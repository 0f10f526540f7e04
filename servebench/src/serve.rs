//! The serving loops: set-up, closed-loop throughput, open-loop latency,
//! and the output check against dedicated recognizers.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::{ObservedTick, Session};
use cace_core::{stream_shared, CaceEngine, HomeRound, Lag, ShardedRouter};

use crate::schedule::{Due, OpenLoopLog, Schedule};
use crate::trace::{SpanKey, Tracer, NO_TICK};
use crate::workload::{self, Spec, MODEL, SHARDS};

/// Worker threads of the open loop. The vendored rayon shim spawns its
/// workers afresh on every round; on a small VM, waking an idle vCPU for
/// them adds a host-dependent 0.2-1.4 ms to every round, which swamps a
/// 50 us serving round and makes latency unrepeatable between identical
/// runs. The open loop therefore serves on the calling thread. The closed
/// loop keeps every worker, so the spawn cost still shows in its
/// throughput and in the traced router self time.
pub const OPEN_LOOP_WORKERS: usize = 1;

/// Closed-loop throughput is the median over chunks of this much round
/// time, so one stalled round cannot move it.
const CHUNK_S: f64 = 0.25;

/// A routed fleet: every home of a workload behind one [`ShardedRouter`].
pub struct Fleet<'a> {
    pub spec: &'static Spec,
    pub sessions: &'a [Session],
    pub engine: Arc<CaceEngine>,
    pub router: ShardedRouter,
    /// Ticks delivered to each home so far; its next tick is
    /// `sessions[home].ticks[cursor % loop_ticks]`.
    pub cursors: Vec<usize>,
    pub log: DecisionLog,
}

/// Every decision the router emitted, per home, plus failure accounting.
#[derive(Default)]
pub struct DecisionLog {
    /// `(tick, macros)` in emission order.
    pub per_home: Vec<Vec<(u32, [u8; 2])>>,
    /// Ticks pushed while `timed` was set.
    pub attempted: u64,
    /// Ticks that came back failed or quarantined, or were not delivered.
    pub failed: u64,
    pub timed: bool,
}

impl DecisionLog {
    fn record(&mut self, home: usize, outcome: HomeRound) {
        if self.timed {
            self.attempted += 1;
        }
        match outcome {
            HomeRound::Advanced(Some(d)) => {
                self.per_home[home].push((d.tick as u32, [d.macros[0] as u8, d.macros[1] as u8]))
            }
            HomeRound::Advanced(None) => {}
            HomeRound::Failed(_) | HomeRound::Quarantined => self.failed += 1,
        }
    }

    fn record_round<E>(
        &mut self,
        round: &[(u64, &ObservedTick)],
        outcomes: Result<Vec<HomeRound>, E>,
    ) {
        match outcomes {
            Ok(outcomes) if outcomes.len() == round.len() => {
                for ((home, _), outcome) in round.iter().zip(outcomes) {
                    self.record(*home as usize, outcome);
                }
            }
            // A refused round delivers nothing: every tick in it failed.
            _ => {
                if self.timed {
                    self.attempted += round.len() as u64;
                }
                self.failed += round.len() as u64;
            }
        }
    }
}

/// A new router of the workload's shape, with homes `0..homes` added.
pub fn new_router(spec: &Spec, engine: &Arc<CaceEngine>, homes: usize) -> ShardedRouter {
    let mut router = ShardedRouter::with_shards(SHARDS);
    router
        .register_model(MODEL, Arc::clone(engine))
        .expect("fresh registry");
    for home in 0..homes as u64 {
        router
            .add_home(home, MODEL, Lag::Fixed(spec.lag))
            .expect("distinct home ids");
    }
    router
}

/// Warm-up rounds of set-up: enough to fill every smoothing window.
pub fn warmup_rounds(spec: &Spec) -> usize {
    spec.lag + 2
}

/// The distinct-traffic guard: no two entries of a round may share an
/// observation, or the router could fuse them into one cohort pass that
/// per-home traffic never triggers.
pub fn check_distinct(round: &[(u64, &ObservedTick)]) {
    let mut seen = HashSet::with_capacity(round.len());
    for (home, tick) in round {
        assert!(
            seen.insert(*tick as *const ObservedTick),
            "home {home} shares an observation with another entry of its round"
        );
    }
}

/// Appends home `home`'s next tick to `round` and advances its cursor.
fn next_tick<'s>(
    sessions: &'s [Session],
    cursors: &mut [usize],
    home: usize,
    round: &mut Vec<(u64, &'s ObservedTick)>,
) {
    let session = &sessions[home];
    round.push((
        home as u64,
        &session.ticks[cursors[home] % session.len()].observed,
    ));
    cursors[home] += 1;
}

/// One tick for every home, in id order.
pub fn full_round<'s>(
    sessions: &'s [Session],
    cursors: &mut [usize],
) -> Vec<(u64, &'s ObservedTick)> {
    let mut round = Vec::with_capacity(sessions.len());
    for home in 0..sessions.len() {
        next_tick(sessions, cursors, home, &mut round);
    }
    round
}

impl<'a> Fleet<'a> {
    /// Trains the model, builds the router, adds every home and runs the
    /// warm-up rounds; returns the fleet and the seconds that took.
    pub fn setup(spec: &'static Spec, train: &[Session], sessions: &'a [Session]) -> (Self, f64) {
        let start = Instant::now();
        let engine = workload::train(train);
        let router = new_router(spec, &engine, spec.homes);
        let mut fleet = Fleet {
            spec,
            sessions,
            engine,
            router,
            cursors: vec![0; spec.homes],
            log: DecisionLog {
                per_home: vec![Vec::new(); spec.homes],
                ..DecisionLog::default()
            },
        };
        for _ in 0..warmup_rounds(spec) {
            let round = full_round(fleet.sessions, &mut fleet.cursors);
            let outcomes = fleet.router.push_round(&round);
            fleet.log.record_round(&round, outcomes);
        }
        (fleet, start.elapsed().as_secs_f64())
    }

    /// Full rounds back to back for at least `seconds` of wall time and
    /// `min_rounds` rounds; returns the home-ticks per second of round time
    /// of every complete [`CHUNK_S`] chunk (or of all rounds, when they
    /// fill no chunk). With a tracer, each round is a span.
    pub fn closed_loop(
        &mut self,
        seconds: f64,
        min_rounds: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<f64> {
        let threads = rayon_threads();
        let start = Instant::now();
        let mut rates = Vec::new();
        let (mut chunk_ticks, mut chunk_s) = (0usize, 0.0f64);
        let (mut all_ticks, mut all_s) = (0usize, 0.0f64);
        let mut rounds = 0usize;
        while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
            let round = full_round(self.sessions, &mut self.cursors);
            check_distinct(&round);
            let t0 = Instant::now();
            let outcomes = self.router.push_round(&round);
            let t1 = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                let key = SpanKey::root(NO_TICK, rounds as u32).on_threads(threads);
                t.record("loop.round", key, t.ns(t0), t.ns(t1));
            }
            let dt = (t1 - t0).as_secs_f64();
            self.log.record_round(&round, outcomes);
            rounds += 1;
            chunk_ticks += round.len();
            chunk_s += dt;
            all_ticks += round.len();
            all_s += dt;
            if chunk_s >= CHUNK_S {
                rates.push(chunk_ticks as f64 / chunk_s);
                (chunk_ticks, chunk_s) = (0, 0.0);
            }
        }
        if rates.is_empty() && rounds > 0 {
            rates.push(all_ticks as f64 / all_s);
        }
        rates
    }

    /// Untimed full rounds until every home has been driven through its
    /// whole session and its last tick decided, so that
    /// [`decision_accuracy`](Self::decision_accuracy) covers every tick.
    pub fn complete_first_pass(&mut self) {
        let driven = self.cursors.iter().copied().min().unwrap_or(0);
        let behind = (self.spec.loop_ticks + self.spec.lag + 1).saturating_sub(driven);
        self.closed_loop(0.0, behind, None);
    }

    /// Serves `schedule` over its stretch `[from, until)`, in seconds of
    /// schedule time, and accounts every tick in `log`: whenever ticks are
    /// due, all of them go into one round. Schedule time runs only while an
    /// open loop serves, so consecutive stretches continue one schedule
    /// whatever ran between them. With a tracer, each round and each tick's
    /// wait for dispatch is a span.
    pub fn open_loop(
        &mut self,
        schedule: &mut Schedule,
        from: f64,
        until: f64,
        log: &mut OpenLoopLog,
        mut tracer: Option<&mut Tracer>,
    ) {
        let workers = rayon_threads();
        set_rayon_threads(OPEN_LOOP_WORKERS);
        let threads = rayon_threads();
        let mut due: Vec<Due> = Vec::new();
        let mut round = Vec::new();
        let mut seq: Vec<u32> = Vec::new();
        let origin = Instant::now();
        let since = |at: Instant| from + (at - origin).as_secs_f64();
        let origin_ns = tracer.as_deref().map_or(0, |t| t.ns(origin));
        let mut rounds = 0u32;
        while schedule.next_due() < until {
            due.clear();
            schedule.drain(since(Instant::now()), until, &mut due);
            if due.is_empty() {
                // Spin rather than sleep: a timer wake-up on a busy host
                // can overshoot by milliseconds, which would show up as
                // tick latency that no serving layer caused.
                std::hint::spin_loop();
                continue;
            }
            round.clear();
            seq.clear();
            for d in &due {
                seq.push(self.cursors[d.home as usize] as u32);
                next_tick(
                    self.sessions,
                    &mut self.cursors,
                    d.home as usize,
                    &mut round,
                );
            }
            check_distinct(&round);
            let t0 = Instant::now();
            let outcomes = self.router.push_round(&round);
            let t1 = Instant::now();
            log.record_round(&due, since(t0), since(t1));
            if let Some(t) = tracer.as_deref_mut() {
                let key = SpanKey::root(NO_TICK, rounds).on_threads(threads);
                t.record("loop.round", key, t.ns(t0), t.ns(t1));
                for (d, tick) in due.iter().zip(&seq) {
                    let at = origin_ns + ((d.at - from).max(0.0) * 1e9) as u64;
                    t.record("loadgen.wait", SpanKey::root(d.home, *tick), at, t.ns(t0));
                }
            }
            self.log.record_round(&round, outcomes);
            rounds += 1;
        }
        set_rayon_threads(workers);
    }

    /// Replays every home's ticks through a dedicated recognizer and
    /// compares each decision with the router's; returns the number of
    /// ticks whose decision differs or is missing. Runs on `threads`
    /// threads, one home at a time per thread.
    pub fn reference_check(&self, threads: usize) -> u64 {
        let homes = self.spec.homes;
        let chunk = homes.div_ceil(threads.max(1));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..homes)
                .step_by(chunk)
                .map(|lo| {
                    scope.spawn(move || {
                        (lo..(lo + chunk).min(homes))
                            .map(|h| self.check_home(h))
                            .sum::<u64>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference check panicked"))
                .sum()
        })
    }

    fn check_home(&self, home: usize) -> u64 {
        let session = &self.sessions[home];
        let mut stream = stream_shared(&self.engine, Lag::Fixed(self.spec.lag));
        let mut reference = Vec::with_capacity(self.log.per_home[home].len());
        for t in 0..self.cursors[home] {
            match stream.push(&session.ticks[t % session.len()].observed) {
                Ok(Some(d)) => {
                    reference.push((d.tick as u32, [d.macros[0] as u8, d.macros[1] as u8]))
                }
                Ok(None) => {}
                Err(_) => return (self.cursors[home] - t) as u64,
            }
        }
        let routed = &self.log.per_home[home];
        let differ = reference.iter().zip(routed).filter(|(a, b)| a != b).count();
        (differ + reference.len().abs_diff(routed.len())) as u64
    }

    /// Share of emitted decisions for each home's first pass through its
    /// session that match the ground-truth labels, pooled over both
    /// residents. A pure function of the seed: every home is driven past
    /// its first pass before this is read.
    pub fn decision_accuracy(&self) -> f64 {
        let (mut correct, mut total) = (0u64, 0u64);
        for (home, decisions) in self.log.per_home.iter().enumerate() {
            let session = &self.sessions[home];
            let first_pass: Vec<_> = decisions
                .iter()
                .filter(|(t, _)| (*t as usize) < session.len())
                .collect();
            assert_eq!(
                first_pass.len(),
                session.len(),
                "home {home} was not driven through its whole session"
            );
            for (t, macros) in first_pass {
                let labels = session.ticks[*t as usize].labels;
                for u in 0..2 {
                    total += 1;
                    correct += u64::from(usize::from(macros[u]) == labels[u]);
                }
            }
        }
        correct as f64 / total as f64
    }
}

/// Sets the worker threads of later parallel rounds; call only while no
/// other thread of the process runs.
pub fn set_rayon_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

/// Worker threads one parallel round fans out to.
pub fn rayon_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
        .min(SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{home_sessions, training_corpus, Corpus};

    static SMALL: Spec = Spec {
        name: "small",
        corpus: Corpus::Cace,
        homes: 20,
        loop_ticks: 12,
        lag: 3,
        replay_homes: 20,
    };

    #[test]
    fn fleet_matches_dedicated_recognizers() {
        let train = training_corpus(Corpus::Cace);
        let sessions = home_sessions(&SMALL, 11, 2);
        let (mut fleet, setup_s) = Fleet::setup(&SMALL, &train, &sessions);
        assert!(setup_s > 0.0);
        fleet.log.timed = true;
        fleet.closed_loop(0.0, 2, None);
        let mut schedule = Schedule::new(SMALL.homes, 600.0, 11);
        let mut open = OpenLoopLog::default();
        fleet.open_loop(&mut schedule, 0.0, 0.05, &mut open, None);
        fleet.closed_loop(0.0, 1, None);
        fleet.open_loop(&mut schedule, 0.05, 0.1, &mut open, None);
        assert_eq!(
            open.latency_s.len(),
            60,
            "two stretches of 0.05 s at 600 ticks/s"
        );
        fleet.complete_first_pass();
        assert_eq!(fleet.log.failed, 0);
        let driven = fleet.cursors.iter().min().copied().unwrap_or(0);
        assert!(driven > SMALL.loop_ticks + SMALL.lag);
        assert_eq!(fleet.reference_check(2), 0);
        let accuracy = fleet.decision_accuracy();
        assert!((0.0..=1.0).contains(&accuracy));
    }

    #[test]
    fn a_tampered_decision_counts_as_a_failed_tick() {
        let train = training_corpus(Corpus::Cace);
        let sessions = home_sessions(&SMALL, 5, 1);
        let (mut fleet, _) = Fleet::setup(&SMALL, &train, &sessions);
        fleet.closed_loop(0.0, 8, None);
        let (_, macros) = &mut fleet.log.per_home[2][0];
        macros[0] = macros[0].wrapping_add(1);
        fleet.log.per_home[4].pop();
        assert_eq!(fleet.reference_check(2), 2);
    }

    #[test]
    #[should_panic(expected = "shares an observation")]
    fn shared_observations_are_refused() {
        let sessions = home_sessions(&SMALL, 1, 1);
        let tick = &sessions[0].ticks[0].observed;
        check_distinct(&[(0, tick), (1, tick)]);
    }
}
