//! **Fig 12 (streaming companion)** — run-time recognition as data
//! arrives: per-tick latency of the online fixed-lag decoder, the
//! lag/accuracy trade-off, and multi-home router throughput.
//!
//! The paper evaluates CACE offline on complete sessions but pitches it as
//! run-time middleware; this bench covers that gap. The expected shape:
//! accuracy climbs with the smoothing lag and reaches the batch decode by
//! a lag of ~10 ticks, while per-tick cost stays flat (the frontier does
//! `O(|S1||S2|(|S1|+|S2|))` work per tick regardless of stream length).

use cace_behavior::ObservedTick;
use cace_bench::{cace_corpus, header};
use cace_core::{stream_session, CaceConfig, CaceEngine, Lag, ShardedRouter};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let (train, test) = cace_corpus(1, 10, 250, 14002);
    let engine = Arc::new(CaceEngine::train(&train, &CaceConfig::default()).unwrap());
    let session = &test[0];
    let batch = engine.recognize(session).unwrap();
    let batch_acc = batch.accuracy(session);

    header("Fig 12b — streaming recognition (lag sweep)");
    println!(
        "{:<12} {:>10} {:>12} {:>14}",
        "lag", "acc", "vs batch", "decisions"
    );
    for lag in [
        Lag::Fixed(0),
        Lag::Fixed(2),
        Lag::Fixed(5),
        Lag::Fixed(10),
        Lag::Fixed(20),
        Lag::Unbounded,
    ] {
        let (decisions, rec) = stream_session(&engine, session, lag).unwrap();
        let acc = rec.accuracy(session);
        let label = match lag {
            Lag::Fixed(l) => format!("{l}"),
            Lag::Unbounded => "unbounded".into(),
        };
        println!(
            "{label:<12} {:>9.1}% {:>+11.3} {:>14}",
            100.0 * acc,
            acc - batch_acc,
            decisions.len()
        );
        if lag.is_unbounded() {
            assert_eq!(rec.macros, batch.macros, "unbounded must equal batch");
        }
    }
    println!("(paper anchor: Fig 12's incremental story — performance as data arrives)");

    // Multi-home throughput snapshot (every home replays one session).
    let homes = 8usize;
    let mut router = ShardedRouter::new();
    router.register_model("c2", Arc::clone(&engine)).unwrap();
    for id in 0..homes as u64 {
        router.add_home(id, "c2", Lag::Fixed(10)).unwrap();
    }
    let rounds = session.len();
    let t0 = Instant::now();
    for t in 0..rounds {
        let round: Vec<(u64, &ObservedTick)> = (0..homes as u64)
            .map(|id| (id, &session.ticks[t].observed))
            .collect();
        router.push_round(&round).unwrap();
    }
    for (_, result) in router.finish() {
        result.unwrap();
    }
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "router: {homes} homes x {rounds} ticks in {wall:.3} s = {:.0} ticks/s",
        (homes * rounds) as f64 / wall.max(1e-12)
    );

    // Criterion target: steady-state per-tick push cost (bounded window,
    // so repeated pushes measure the amortized frontier step).
    let mut stream = engine.stream(Lag::Fixed(10));
    let mut next = 0usize;
    c.bench_function("fig12b/stream_push_c2_lag10", |b| {
        b.iter(|| {
            let tick = &session.ticks[next % session.len()];
            next += 1;
            black_box(stream.push(black_box(&tick.observed)).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
