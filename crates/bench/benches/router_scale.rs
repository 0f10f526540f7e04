//! **router_scale** — the PR 7 serving-tier headline: sustained fleet
//! throughput of the [`ShardedRouter`] as the home count sweeps 10²–10⁵.
//!
//! Every home is a fixed-lag stream over the tiny CACE-sim model; each
//! round delivers one tick to every home through `push_round`, so one
//! "home-tick" is one full online decode step behind the router's shard
//! fan-out. The homes replay the test split's two sessions, so co-resident
//! homes are handed the same ticks, which stay hot in cache: these rows
//! are the **shared-tick best case**. The deployment-shaped number,
//! one session per home, is the serving benchmark's `fleet-live`
//! workload (`servebench/`). Two serving modes are measured at each
//! fleet size:
//!
//! * **uncapped** — every home keeps its decoder live (the memory-rich
//!   deployment: fleet-size × live trellis state resident);
//! * **capped** — an LRU live cap far below the fleet size, so the router
//!   continuously parks cold homes to snapshot bytes and rehydrates them
//!   on their next tick (the million-home deployment shape: resident state
//!   bounded by the cap, not the fleet).
//!
//! The PR 7 acceptance gate is asserted where it is measured: at every
//! swept size the capped router's decision stream must be **bit-identical**
//! to the uncapped one (the cap may only move state, never change
//! answers), and at ≥10⁴ homes the cap (256 live decoders fleet-wide) must
//! actually churn — parks and rehydrations both observed — since this
//! round-robin drive is the cap's worst case: every home is equally hot,
//! so every push beyond the cap is a full snapshot-bytes park/rehydrate
//! cycle. Throughput lands in `BENCH_PR10.json` as `router_scale/*` records
//! carrying the `homes_per_s` claim field plus p50/p99 per-home push
//! latency (the capped rows price that worst case; a production fleet
//! parks *cold* homes, so its cost sits between the two rows). CI's
//! `--quick` smoke re-runs the sweep at 10²–10⁴ and re-asserts the gates;
//! 10⁵ runs in the full mode only, on shortened rounds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::{ObservedTick, Session};
use cace_bench::perf::{self, PerfRecord};
use cace_bench::{header, nearest_rank};
use cace_core::{CaceEngine, HomeRound, Lag, ShardedRouter, Strategy, StreamDecision};
use cace_testkit::{engine, tiny_corpus};
use criterion::{criterion_group, criterion_main, Criterion};

const MODEL: &str = "cace";
const LAG: Lag = Lag::Fixed(6);
/// Measured rounds per fleet size (after a 2-round warmup); the 10⁵ point
/// shortens the drive so the full sweep stays in single-digit minutes.
fn rounds_for(size: usize) -> usize {
    if size >= 100_000 {
        5
    } else {
        18
    }
}
/// Per-shard live cap in capped mode: 8 shards × 32 = 256 live decoders
/// regardless of fleet size — "well below" every swept home count.
const LIVE_CAP: usize = 32;

struct FleetRun {
    homes_per_s: f64,
    p50_push_ns: f64,
    p99_push_ns: f64,
    parks: u64,
    rehydrations: u64,
    decisions: Vec<(u64, Vec<StreamDecision>)>,
}

/// Builds a `size`-home router over `sessions` (home `i` replays session
/// `i % len`), delivers `rounds_for(size)` interleaved rounds, and reports
/// sustained throughput plus per-home push-latency percentiles (each
/// sample is one round's wall time divided by the homes it served).
fn run_fleet(
    engine: &Arc<CaceEngine>,
    sessions: &[Session],
    size: usize,
    live_cap: Option<usize>,
) -> FleetRun {
    let mut router = ShardedRouter::new();
    if let Some(cap) = live_cap {
        router = router.with_live_cap(cap);
    }
    router
        .register_model(MODEL, Arc::clone(engine))
        .expect("fresh registry");
    for id in 0..size as u64 {
        router.add_home(id, MODEL, LAG).expect("distinct ids");
    }

    let rounds = rounds_for(size);
    let mut decisions: Vec<(u64, Vec<StreamDecision>)> =
        (0..size as u64).map(|id| (id, Vec::new())).collect();
    let mut per_push_ns: Vec<f64> = Vec::with_capacity(rounds);
    let mut total_pushes = 0u64;
    let mut total_seconds = 0.0f64;
    let warmup = 2;
    for t in 0..warmup + rounds {
        let round: Vec<(u64, &ObservedTick)> = (0..size as u64)
            .map(|id| {
                let session = &sessions[id as usize % sessions.len()];
                (id, &session.ticks[t % session.len()].observed)
            })
            .collect();
        let t0 = Instant::now();
        let outcomes = black_box(router.push_round(black_box(&round)).expect("routed fleet"));
        let elapsed = t0.elapsed().as_secs_f64();
        for (pos, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                HomeRound::Advanced(Some(d)) => decisions[pos].1.push(d),
                HomeRound::Advanced(None) => {}
                other => panic!("home {pos}: fleet round failed: {other:?}"),
            }
        }
        if t >= warmup {
            per_push_ns.push(elapsed / size as f64 * 1e9);
            total_pushes += size as u64;
            total_seconds += elapsed;
        }
    }
    let stats = router.stats();
    assert_eq!(stats.quarantined_homes(), 0, "no home may fault at scale");
    per_push_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    // Nearest-rank percentiles (see `cace_bench::nearest_rank`): the
    // ⌈p·N⌉-th smallest round latency, an actual observed sample. The
    // previous `round((N-1)·p)` indexing drifted off the conventional
    // rank on short sweeps — p50 of 18 rounds landed on the 10th
    // smallest sample instead of the 9th.
    let pct = |p: f64| nearest_rank(&per_push_ns, p);
    FleetRun {
        homes_per_s: total_pushes as f64 / total_seconds.max(1e-12),
        p50_push_ns: pct(0.50),
        p99_push_ns: pct(0.99),
        parks: stats.parks(),
        rehydrations: stats.rehydrations(),
        decisions,
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let (train, test) = tiny_corpus(6, 60, 4117);
    let engine = Arc::new(engine(&train, Strategy::CorrelationConstraint));

    let sizes: &[usize] = if quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };

    header(
        "router_scale — sharded serving tier, fleet sweep (1 tick/home/round, \
         shared-tick best case)",
    );
    println!(
        "{:>8} {:>9} {:>12} {:>12} {:>12} {:>9} {:>11}",
        "homes", "mode", "homes/s", "p50 ns/push", "p99 ns/push", "parks", "rehydrates"
    );

    let mut records = Vec::new();
    let mut gate_identity_checked = false;
    for &size in sizes {
        let uncapped = run_fleet(&engine, &test, size, None);
        let capped = run_fleet(&engine, &test, size, Some(LIVE_CAP));
        for (mode, run) in [("uncapped", &uncapped), ("capped", &capped)] {
            println!(
                "{size:>8} {mode:>9} {:>12.0} {:>12.0} {:>12.0} {:>9} {:>11}",
                run.homes_per_s, run.p50_push_ns, run.p99_push_ns, run.parks, run.rehydrations
            );
        }
        // The cap may move state between live and parked, never change
        // answers: bit-identical decision streams at every size.
        assert_eq!(
            capped.decisions, uncapped.decisions,
            "{size} homes: LRU cap changed the decision stream"
        );
        if size >= 10_000 {
            gate_identity_checked = true;
            assert!(
                capped.parks > 0 && capped.rehydrations > 0,
                "{size} homes with a {LIVE_CAP}/shard cap must park and rehydrate"
            );
        }
        if size == 10_000 {
            // The 10⁴-home capped fleet doubles as the park-thrash row:
            // 256 live decoders fleet-wide, so ~97% of pushes pay a full
            // binary park/rehydrate cycle.
            records.push(PerfRecord {
                id: "router_scale/thrash_10k_bin".into(),
                per_tick_ns: capped.p50_push_ns,
                speedup_vs_naive: None,
                allocs_per_tick: None,
                homes_per_s: Some(capped.homes_per_s),
                note: format!(
                    "{size} homes, cap {LIVE_CAP}/shard, binary (kind=stream-bin) parking: \
                     p99 {:.0} ns/push, {} parks / {} rehydrations",
                    capped.p99_push_ns, capped.parks, capped.rehydrations
                ),
            });
        }
        assert!(
            capped.homes_per_s.is_finite() && capped.homes_per_s > 0.0,
            "{size} homes: degenerate throughput measurement"
        );
        let id_size = if size >= 1_000 {
            format!("{}k", size / 1_000)
        } else {
            size.to_string()
        };
        records.push(PerfRecord {
            id: format!("router_scale/fleet_{id_size}_capped"),
            per_tick_ns: capped.p50_push_ns,
            speedup_vs_naive: None,
            allocs_per_tick: None,
            homes_per_s: Some(capped.homes_per_s),
            note: format!(
                "shared-tick best case ({} sessions replayed): {size} homes, 8 shards, \
                 LRU cap {LIVE_CAP}/shard, lag 6, tiny C2 model: p99 {:.0} ns/push, {} parks / {} rehydrations over {} rounds (worst-case \
                 round-robin churn); decisions bit-identical to uncapped ({:.0} homes/s)",
                test.len(),
                capped.p99_push_ns,
                capped.parks,
                capped.rehydrations,
                rounds_for(size),
                uncapped.homes_per_s
            ),
        });
        records.push(PerfRecord {
            id: format!("router_scale/fleet_{id_size}_uncapped"),
            per_tick_ns: uncapped.p50_push_ns,
            speedup_vs_naive: None,
            allocs_per_tick: None,
            homes_per_s: Some(uncapped.homes_per_s),
            note: format!(
                "shared-tick best case ({} sessions replayed): {size} homes, 8 shards, \
                 no live cap, lag 6, tiny C2 model: p99 {:.0} ns/push",
                test.len(),
                uncapped.p99_push_ns
            ),
        });
    }
    assert!(
        gate_identity_checked,
        "the sweep must include the 10^4-home acceptance point"
    );

    perf::emit(&records);

    // Criterion target on the smallest fleet so `--quick`/`--test` runs
    // keep a conventional timed entry point.
    c.bench_function("router_scale/round_100_homes_capped", |b| {
        let mut router = ShardedRouter::new().with_live_cap(LIVE_CAP);
        router
            .register_model(MODEL, Arc::clone(&engine))
            .expect("fresh registry");
        for id in 0..100u64 {
            router.add_home(id, MODEL, LAG).expect("distinct ids");
        }
        let mut t = 0usize;
        b.iter(|| {
            let round: Vec<(u64, &ObservedTick)> = (0..100u64)
                .map(|id| {
                    let session = &test[id as usize % test.len()];
                    (id, &session.ticks[t % session.len()].observed)
                })
                .collect();
            t += 1;
            black_box(router.push_round(black_box(&round)).expect("routed fleet"))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
