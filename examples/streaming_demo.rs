//! Streaming recognition demo: per-tick latency, the lag/accuracy
//! trade-off, and multi-home throughput through the `ShardedRouter`.
//!
//! ```text
//! cargo run --release --example streaming_demo
//! ```
//!
//! Three experiments against one trained C2 engine:
//!
//! 1. **Single stream** — one home's session pushed tick by tick with a
//!    10-tick lag; reports mean/p95/max per-tick latency and checks the
//!    emitted-decision schedule.
//! 2. **Lag sweep** — accuracy at lags 0/2/5/10/20/∞ vs. the batch
//!    decode (∞ is asserted bit-identical to `recognize`).
//! 3. **Router throughput** — N concurrent homes streaming in lockstep
//!    rounds over all cores; reports aggregate ticks/second.

use std::sync::Arc;
use std::time::Instant;

use cace::behavior::session::train_test_split;
use cace::behavior::{cace_grammar, generate_cace_dataset, SessionConfig};
use cace::core::{stream_session, CaceConfig, CaceEngine, Lag, ShardedRouter};

fn main() {
    let grammar = cace_grammar();
    let sessions = generate_cace_dataset(
        &grammar,
        1,
        10,
        &SessionConfig::standard().with_ticks(250),
        20260727,
    );
    let (train, test) = train_test_split(sessions, 0.8);
    println!("training C2 engine on {} sessions ...", train.len());
    let engine =
        Arc::new(CaceEngine::train(&train, &CaceConfig::default()).expect("training succeeds"));
    let session = &test[0];
    let batch = engine.recognize(session).expect("batch recognition");

    // ---- 1. single-stream per-tick latency ----
    let lag = 10;
    let mut stream = engine.stream(Lag::Fixed(lag));
    let mut latencies_us = Vec::with_capacity(session.len());
    let mut decisions = Vec::with_capacity(session.len());
    for tick in &session.ticks {
        let t0 = Instant::now();
        let emitted = stream.push(&tick.observed).expect("push succeeds");
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        decisions.extend(emitted);
    }
    // The stream resolves only its last `lag` ticks at finish; the
    // session's recognition is the emitted decisions plus that tail.
    let streamed = stream
        .finish()
        .expect("finish succeeds")
        .into_recognition(&decisions);
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
    let p95 = latencies_us[(latencies_us.len() * 95) / 100];
    let max = latencies_us.last().copied().unwrap_or(0.0);
    println!("\n-- single stream (lag {lag}) --");
    println!("ticks pushed:        {}", session.len());
    println!(
        "decisions emitted:   {} (+{lag} resolved at finish)",
        decisions.len()
    );
    println!("per-tick latency:    mean {mean:.1} us, p95 {p95:.1} us, max {max:.1} us");
    println!(
        "stream accuracy:     {:.1}% (batch {:.1}%)",
        100.0 * streamed.accuracy(session),
        100.0 * batch.accuracy(session)
    );

    // ---- 2. lag sweep: accuracy as decisions are allowed to ripen ----
    println!("\n-- lag sweep (accuracy vs batch) --");
    println!("{:<12} {:>10} {:>12}", "lag", "acc", "delta");
    for lag in [
        Lag::Fixed(0),
        Lag::Fixed(2),
        Lag::Fixed(5),
        Lag::Fixed(10),
        Lag::Fixed(20),
        Lag::Unbounded,
    ] {
        let (_, rec) = stream_session(&engine, session, lag).expect("stream succeeds");
        let acc = rec.accuracy(session);
        let delta = acc - batch.accuracy(session);
        let label = match lag {
            Lag::Fixed(l) => format!("{l}"),
            Lag::Unbounded => "unbounded".to_string(),
        };
        println!("{label:<12} {:>9.1}% {delta:>+11.3}", 100.0 * acc);
        if lag.is_unbounded() {
            assert_eq!(rec.macros, batch.macros, "unbounded must match batch");
        }
    }
    println!("(unbounded lag checked bit-identical to CaceEngine::recognize)");

    // ---- 3. multi-home throughput through the router ----
    let homes = 16usize;
    let per_home: Vec<_> = (0..homes)
        .map(|h| {
            let cfg = SessionConfig::standard()
                .with_ticks(120)
                .with_home(h as u32 + 50);
            generate_cace_dataset(&grammar, 1, 1, &cfg, 777 + h as u64)
                .pop()
                .expect("one session")
        })
        .collect();
    let mut router = ShardedRouter::new();
    router
        .register_model("c2", Arc::clone(&engine))
        .expect("fresh registry");
    for id in 0..homes as u64 {
        router
            .add_home(id, "c2", Lag::Fixed(lag))
            .expect("distinct home ids");
    }
    let rounds = per_home.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut total_ticks = 0usize;
    // The router keeps no decision history: each home's emitted
    // decisions are collected here, as a consumer would.
    let mut emitted = vec![Vec::new(); homes];
    let t0 = Instant::now();
    for t in 0..rounds {
        let round: Vec<_> = per_home
            .iter()
            .enumerate()
            .filter_map(|(id, s)| s.ticks.get(t).map(|tick| (id as u64, &tick.observed)))
            .collect();
        total_ticks += round.len();
        let outcomes = router.push_round(&round).expect("every home is routed");
        for ((id, _), outcome) in round.iter().zip(&outcomes) {
            emitted[*id as usize].extend(outcome.decision());
        }
    }
    assert!(
        router.quarantined().is_empty(),
        "no home should fault on clean data"
    );
    let finished = router.finish();
    let wall = t0.elapsed().as_secs_f64();
    let mean_acc: f64 = finished
        .into_iter()
        .zip(per_home.iter().zip(&emitted))
        .map(|((_, tail), (session, emitted))| {
            tail.expect("healthy home finishes")
                .into_recognition(emitted)
                .accuracy(session)
        })
        .sum::<f64>()
        / homes as f64;
    println!("\n-- router throughput ({homes} concurrent homes) --");
    println!("rounds:              {rounds}");
    println!("total ticks routed:  {total_ticks}");
    println!("wall:                {wall:.3} s");
    println!(
        "throughput:          {:.0} ticks/s",
        total_ticks as f64 / wall.max(1e-12)
    );
    println!("mean accuracy:       {:.1}%", 100.0 * mean_acc);
}
