//! **Kernel parity** — the generic trellis engine vs the retired
//! per-family kernels (PR 8's refactor gate).
//!
//! The trait-parameterized engine (`cace_hdbn::trellis`) replaced the
//! per-family copies of the dense/pruned step kernels and the online
//! window machinery. Bit-identity is guarded by the equivalence suites;
//! this bench guards *latency*: it re-measures the two hot-path rows
//! whose pre-refactor numbers are frozen in `BENCH_PR7.json` — the
//! warmed exact C2 streaming push (`score_tables/c2_stream_push_exact`)
//! and the exact batch decode
//! (`f32_lane/c2_batch_decode_f64`, the exact-lane row of the since
//! removed `f32_lane` bench) — on the identical fig9 workload, and
//! asserts each is within **5%** of its frozen record. Results land
//! in `BENCH_PR10.json` as `kernel_parity/*` rows whose notes cite the
//! baseline they were gated against.
//!
//! Under `--quick` (the CI smoke) the measurement is shortened and the
//! gate is relaxed to a catastrophic-regression bound (4× the frozen
//! record) so shared-runner noise can't flake the pipeline; the strict
//! 5% gate runs in the full local bench.

use std::sync::Arc;
use std::time::Instant;

use cace_behavior::session::train_test_split;
use cace_behavior::{generate_casas_dataset, CasasConfig};
use cace_bench::perf::{self, PerfRecord};
use cace_bench::{header, trained};
use cace_core::Strategy;
use cace_hdbn::{CoupledHdbn, Lag, OnlineCoupledViterbi, TickInput};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Best-of-`repeats` per-tick wall time of `f` over a `ticks`-long decode.
fn best_per_tick_ns(ticks: usize, repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() / ticks as f64);
    }
    best * 1e9
}

/// Warmed steady-state streaming push latency (ns/tick), best of `repeats`
/// measured passes over the session.
fn stream_push_ns(decoder: &CoupledHdbn, inputs: &[TickInput], repeats: usize) -> f64 {
    let mut online = OnlineCoupledViterbi::new(decoder.clone(), Lag::Fixed(10));
    for tick in inputs {
        online.push(tick).expect("warmup push");
    }
    best_per_tick_ns(inputs.len(), repeats, || {
        for tick in inputs {
            black_box(online.push(black_box(tick)).expect("push"));
        }
    })
}

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    // The fig9 (CASAS-style) C2 workload — corpus shape and seed identical
    // to the `score_tables` and (removed) `f32_lane` benches that produced
    // the frozen PR 7 rows, so the comparison is like-for-like.
    let cfg = CasasConfig {
        pairs: 4,
        sessions_per_pair: 2,
        ticks: 200,
        ..CasasConfig::default()
    };
    let sessions = generate_casas_dataset(&cfg, 9002);
    let (train, test) = train_test_split(sessions, 0.8);
    let engine = trained(&train, Strategy::CorrelationConstraint);
    let inputs: Vec<TickInput> = engine.tick_inputs(&test[0]);
    let n_ticks = inputs.len();
    let params = Arc::clone(engine.hdbn_params());

    let repeats = if quick { 2 } else { 7 };
    let (tolerance, gate) = if quick {
        (4.0, "4x (quick)")
    } else {
        (1.05, "5%")
    };

    let exact_push = stream_push_ns(
        &CoupledHdbn::from_shared(Arc::clone(&params)),
        &inputs,
        repeats,
    );
    let exact_decoder = CoupledHdbn::from_shared(Arc::clone(&params));
    let exact_batch = best_per_tick_ns(n_ticks, repeats, || {
        black_box(exact_decoder.viterbi(black_box(&inputs)).expect("decode"));
    });

    header("kernel_parity — generic trellis engine vs frozen pre-refactor records");
    println!(
        "{:>28} {:>12} {:>12} {:>8}  gate ≤{gate}",
        "row", "PR7 ns/tick", "now ns/tick", "ratio"
    );
    let mut records = Vec::new();
    for (short, baseline_id, now_ns) in [
        (
            "stream_push_exact",
            "score_tables/c2_stream_push_exact",
            exact_push,
        ),
        (
            "batch_decode_exact",
            "f32_lane/c2_batch_decode_f64",
            exact_batch,
        ),
    ] {
        let pr7_ns = perf::baseline("BENCH_PR7.json", baseline_id, "per_tick_ns")
            .unwrap_or_else(|| panic!("BENCH_PR7.json is missing the {baseline_id} record"));
        let ratio = now_ns / pr7_ns;
        println!("{short:>28} {pr7_ns:>12.0} {now_ns:>12.0} {ratio:>8.3}");
        assert!(
            now_ns <= pr7_ns * tolerance,
            "kernel_parity/{short}: {now_ns:.0} ns/tick exceeds the frozen PR 7 record \
             {pr7_ns:.0} ns/tick by more than {gate} — the generic engine must not \
             regress the kernels it replaced",
        );
        records.push(PerfRecord {
            id: format!("kernel_parity/{short}"),
            per_tick_ns: now_ns,
            speedup_vs_naive: None,
            allocs_per_tick: None,
            homes_per_s: None,
            note: format!(
                "generic trellis engine on the fig9 C2 workload; frozen PR 7 record \
                 {baseline_id} = {pr7_ns:.0} ns/tick, ratio {ratio:.3} (gate ≤{gate})"
            ),
        });
    }
    perf::emit(&records);

    // Conventional timed entry point for `--quick`/`--test` runs.
    let model = CoupledHdbn::from_shared(Arc::clone(&params));
    let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(10));
    for tick in &inputs {
        online.push(tick).expect("warmup");
    }
    let mut next = 0usize;
    c.bench_function("kernel_parity/c2_stream_push_exact", |b| {
        b.iter(|| {
            let tick = &inputs[next % n_ticks];
            next += 1;
            black_box(online.push(black_box(tick)).expect("push"))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
