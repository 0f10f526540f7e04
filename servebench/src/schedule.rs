//! The open-loop load generator's schedule and its latency accounting.
//!
//! Every home emits ticks on one fixed period, `homes / rate` seconds, so
//! the fleet offers `rate` ticks per second whatever the server does. A
//! home's phase within the period is seeded from its id. A tick's latency
//! runs from its *due* time to the return of the round that carried it, so
//! a slow round also delays every tick that queued behind it; how late the
//! generator dispatched each tick is recorded beside it.

use crate::stats;
use crate::workload::mix;

/// One scheduled tick: which home, and when it was due (seconds from the
/// start of the open-loop phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Due {
    pub home: u32,
    pub at: f64,
}

/// Fixed-period arrivals of every home, walked in due order.
pub struct Schedule {
    /// `(phase, home)`, ascending by phase.
    order: Vec<(f64, u32)>,
    period: f64,
    next: usize,
    cycle: u64,
}

impl Schedule {
    /// `homes` homes offering `rate` ticks per second in total. Home `h`'s
    /// phase is the fractional part of `offset + h / φ` periods, with the
    /// offset drawn from `seed`: a golden-ratio sequence, so arrivals are
    /// spread almost evenly over the period whatever the fleet size, and
    /// no seed clusters a small fleet's homes onto the same instant.
    pub fn new(homes: usize, rate: f64, seed: u64) -> Self {
        const INV_PHI: f64 = 0.618_033_988_749_894_9;
        let period = homes as f64 / rate;
        let offset = (mix(seed, 0x0f0f_5eed) >> 11) as f64 / (1u64 << 53) as f64;
        let phases = (0..homes)
            .map(|h| (offset + h as f64 * INV_PHI).fract() * period)
            .collect();
        Self::from_phases(phases, period)
    }

    /// Home `h` is due at `phases[h] + k · period` for k = 0, 1, …
    pub fn from_phases(phases: Vec<f64>, period: f64) -> Self {
        let mut order: Vec<(f64, u32)> = phases
            .into_iter()
            .enumerate()
            .map(|(h, p)| (p, h as u32))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert!(!order.is_empty(), "an open loop needs at least one home");
        Self {
            order,
            period,
            next: 0,
            cycle: 0,
        }
    }

    /// When the next undispatched tick is due.
    pub fn next_due(&self) -> f64 {
        self.order[self.next].0 + self.cycle as f64 * self.period
    }

    /// Appends to `out`, in due order, every tick due at or before `now`
    /// and strictly before `end`.
    pub fn drain(&mut self, now: f64, end: f64, out: &mut Vec<Due>) {
        loop {
            let at = self.next_due();
            if at > now || at >= end {
                return;
            }
            out.push(Due {
                home: self.order[self.next].1,
                at,
            });
            self.next += 1;
            if self.next == self.order.len() {
                self.next = 0;
                self.cycle += 1;
            }
        }
    }
}

/// Per-tick latency and lateness samples of an open-loop phase, plus the
/// size of every round it served.
#[derive(Debug, Default)]
pub struct OpenLoopLog {
    /// Due → return of the carrying round, seconds.
    pub latency_s: Vec<f64>,
    /// Due → dispatch of the carrying round, seconds.
    pub late_s: Vec<f64>,
    /// Due time of each sample, seconds.
    pub due_s: Vec<f64>,
    pub round_ticks: Vec<usize>,
}

impl OpenLoopLog {
    /// An empty log with room for `ticks` samples, so that serving does not
    /// grow it.
    pub fn with_capacity(ticks: usize) -> Self {
        Self {
            latency_s: Vec::with_capacity(ticks),
            late_s: Vec::with_capacity(ticks),
            due_s: Vec::with_capacity(ticks),
            round_ticks: Vec::new(),
        }
    }

    /// Accounts one round that was dispatched at `dispatched` and returned
    /// at `completed`, carrying `due`.
    pub fn record_round(&mut self, due: &[Due], dispatched: f64, completed: f64) {
        for d in due {
            self.latency_s.push(completed - d.at);
            self.late_s.push(dispatched - d.at);
            self.due_s.push(d.at);
        }
        self.round_ticks.push(due.len());
    }

    /// The nearest-rank latency quantile `p` of every consecutive
    /// `window`-second slice of due time that holds at least `min_samples`
    /// ticks, in ascending order. Shorter slices (the tail of a run) are
    /// left out, so every value summarises the same amount of traffic.
    pub fn slice_quantiles(&self, p: f64, window: f64, min_samples: usize) -> Vec<f64> {
        let Some(last) = self.due_s.iter().map(|d| (d / window) as usize).max() else {
            return Vec::new();
        };
        let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); last + 1];
        for (due, latency) in self.due_s.iter().zip(&self.latency_s) {
            per_slice[(due / window) as usize].push(*latency);
        }
        let mut quantiles: Vec<f64> = per_slice
            .iter_mut()
            .filter(|s| !s.is_empty() && s.len() >= min_samples)
            .map(|s| {
                stats::sort(s);
                stats::nearest_rank(s, p)
            })
            .collect();
        stats::sort(&mut quantiles);
        quantiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `schedule` with rounds that each take `cost` seconds,
    /// back to back whenever something is due, on a simulated clock.
    fn serve(mut schedule: Schedule, cost: f64, end: f64) -> OpenLoopLog {
        let mut log = OpenLoopLog::default();
        let mut now = 0.0;
        let mut due = Vec::new();
        while schedule.next_due() < end {
            due.clear();
            schedule.drain(now, end, &mut due);
            if due.is_empty() {
                now = schedule.next_due();
                continue;
            }
            log.record_round(&due, now, now + cost);
            now += cost;
        }
        log
    }

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn latency_runs_from_due_time_and_counts_queueing() {
        // Two homes, one tick per second each, half a period apart; every
        // round takes 0.7 s, so the server falls behind and ticks queue.
        let log = serve(Schedule::from_phases(vec![0.0, 0.5], 1.0), 0.7, 2.5);
        // Rounds: [h0@0] at 0; [h1@0.5] at 0.7; [h0@1.0] at 1.4;
        // [h1@1.5, h0@2.0] at 2.1. Nothing due at or after 2.5 is sent.
        assert_eq!(log.round_ticks, vec![1, 1, 1, 2]);
        assert!(close(&log.latency_s, &[0.7, 0.9, 1.1, 1.3, 0.8]));
        assert!(close(&log.late_s, &[0.0, 0.2, 0.4, 0.6, 0.1]));
    }

    #[test]
    fn an_idle_server_sees_only_its_own_service_time() {
        let log = serve(Schedule::from_phases(vec![0.25, 0.0, 0.5], 1.0), 0.1, 3.0);
        assert_eq!(log.round_ticks, vec![1; 9]);
        assert!(log.latency_s.iter().all(|l| (l - 0.1).abs() < 1e-9));
        assert!(log.late_s.iter().all(|l| l.abs() < 1e-9));
    }

    #[test]
    fn slice_quantiles_cover_only_full_slices() {
        let mut log = OpenLoopLog::with_capacity(3001);
        // Three one-second slices of 1000 ticks; the middle one stalls.
        for slice in 0..3 {
            for i in 0..1000 {
                let at = slice as f64 + i as f64 / 1000.0;
                let cost = if slice == 1 {
                    0.5
                } else {
                    0.001 * (1 + i % 100) as f64
                };
                log.record_round(&[Due { home: 0, at }], at, at + cost);
            }
        }
        // A short fourth slice is left out.
        log.record_round(&[Due { home: 0, at: 3.5 }], 3.5, 9.0);
        // Slices 0 and 2 have p99 = 0.099 s; the stalled one 0.5 s.
        let p99 = log.slice_quantiles(0.99, 1.0, 1000);
        assert!(close(&p99, &[0.099, 0.099, 0.5]), "{p99:?}");
        let p50 = log.slice_quantiles(0.5, 1.0, 1000);
        assert!(close(&p50, &[0.05, 0.05, 0.5]), "{p50:?}");
        assert_eq!(log.slice_quantiles(0.5, 1.0, 1).len(), 4);
        assert!(OpenLoopLog::default()
            .slice_quantiles(0.99, 1.0, 1)
            .is_empty());
    }

    #[test]
    fn seeded_schedule_offers_the_requested_rate() {
        let mut schedule = Schedule::new(100, 1000.0, 7);
        let mut due = Vec::new();
        schedule.drain(1.0, 1.0, &mut due);
        // One period is 0.1 s: every home is due ten times in [0, 1).
        assert_eq!(due.len(), 1000);
        assert!(due.windows(2).all(|w| w[0].at <= w[1].at));
        let mut per_home = [0usize; 100];
        for d in &due {
            per_home[d.home as usize] += 1;
        }
        assert!(per_home.iter().all(|&n| n == 10));
        // The same seed gives the same phases.
        let mut again = Vec::new();
        Schedule::new(100, 1000.0, 7).drain(1.0, 1.0, &mut again);
        assert_eq!(due, again);
    }
}
