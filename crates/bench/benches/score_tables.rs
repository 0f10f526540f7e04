//! **Score tables** — dense precomputed scoring + trellis arena vs the
//! naive per-edge scorer (PR 5's headline claim).
//!
//! The fig9 (CASAS-style) C2 workload is the serving hot path: this bench
//! decodes its engine-prepared state spaces twice — once through the
//! production table-scored, arena-backed decoder and once through the
//! naive reference (`cace_testkit::naive`, the pre-table implementation
//! with per-edge `transition_score` calls and per-column `Vec`s) — and
//! reports the per-tick speedup (**target ≥2×**), the steady-state
//! streaming push latency, and the heap allocations per warmed push
//! (**target 0**). Everything lands in the perf-record file as
//! machine-readable rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cace_behavior::session::train_test_split;
use cace_behavior::{generate_casas_dataset, CasasConfig};
use cace_bench::perf::{self, PerfRecord};
use cace_bench::{header, trained};
use cace_core::Strategy;
use cace_hdbn::{CoupledHdbn, Lag, OnlineCoupledViterbi, TickInput};
use cace_testkit::naive::naive_coupled_viterbi;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

// ---------------------------------------------------------------------
// Allocation counting (benches run single-threaded, atomics suffice).
// ---------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

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

fn bench(c: &mut Criterion) {
    // The fig9 (CASAS-style) C2 workload, engine-prepared once.
    let cfg = CasasConfig {
        pairs: 4,
        sessions_per_pair: 2,
        ticks: 200,
        ..CasasConfig::default()
    };
    let sessions = generate_casas_dataset(&cfg, 9002);
    let (train, test) = train_test_split(sessions, 0.8);
    let engine = trained(&train, Strategy::CorrelationConstraint);
    let session = &test[0];
    let inputs: Vec<TickInput> = engine.tick_inputs(session);
    let params = Arc::clone(engine.hdbn_params());
    let n_ticks = inputs.len();

    // ---------- Batch decode: dense tables + arena vs naive ----------
    let table_decoder = CoupledHdbn::from_shared(Arc::clone(&params));
    let table_path = table_decoder.viterbi(&inputs).expect("table decode");
    let (naive_macros, naive_lp) = naive_coupled_viterbi(&params, &inputs);
    assert_eq!(
        table_path.macros, naive_macros,
        "table and naive decoders must agree before being compared"
    );
    assert_eq!(table_path.log_prob.to_bits(), naive_lp.to_bits());

    let repeats = 5;
    let table_ns = best_per_tick_ns(n_ticks, repeats, || {
        black_box(table_decoder.viterbi(black_box(&inputs)).expect("decode"));
    });
    let naive_ns = best_per_tick_ns(n_ticks, repeats, || {
        black_box(naive_coupled_viterbi(
            black_box(&params),
            black_box(&inputs),
        ));
    });
    let speedup = naive_ns / table_ns.max(1e-9);

    header("Score tables — C2 batch decode on the fig9 (CASAS-style) workload");
    println!(
        "{n_ticks} ticks/session, {} joint states bound",
        engine.frontier_bound()
    );
    println!("naive scoring : {naive_ns:>10.0} ns/tick");
    println!("dense tables  : {table_ns:>10.0} ns/tick");
    println!(
        "→ {speedup:.2}x per-tick speedup over naive scoring (target ≥2x), bit-identical output"
    );

    // ---------- Streaming: warmed push latency + allocations ----------
    header("Score tables — steady-state streaming push (hdbn coupled frontier)");
    println!("{:>10} {:>12} {:>14}", "decoder", "ns/tick", "allocs/tick");
    let mut stream_records = Vec::new();
    {
        let tag = "exact";
        let model = CoupledHdbn::from_shared(Arc::clone(&params));
        let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(10));
        for tick in &inputs {
            online.push(tick).expect("warmup push");
        }
        // Measured window: one more pass over the session, warmed.
        let t0 = Instant::now();
        for tick in &inputs {
            black_box(online.push(black_box(tick)).expect("push"));
        }
        let push_ns = t0.elapsed().as_secs_f64() / n_ticks as f64 * 1e9;
        let allocs = count_allocs(|| {
            for tick in &inputs {
                black_box(online.push(black_box(tick)).expect("push"));
            }
        });
        let allocs_per_tick = allocs as f64 / n_ticks as f64;
        println!("{tag:>10} {push_ns:>12.0} {allocs_per_tick:>14.3}");
        stream_records.push(PerfRecord {
            id: format!("score_tables/c2_stream_push_{tag}"),
            per_tick_ns: push_ns,
            speedup_vs_naive: None,
            allocs_per_tick: Some(allocs_per_tick),
            homes_per_s: None,
            note: format!("fig9 C2 warmed OnlineCoupledViterbi push, {tag} decoder, lag 10"),
        });
    }

    // ---------- Perf records ----------
    let mut records = vec![PerfRecord {
        id: "score_tables/c2_batch_decode".to_string(),
        per_tick_ns: table_ns,
        speedup_vs_naive: Some(speedup),
        allocs_per_tick: None,
        homes_per_s: None,
        note: format!(
            "fig9 C2 exact coupled decode, dense tables+arena vs naive per-edge scoring \
             ({naive_ns:.0} ns/tick naive); target >=2x"
        ),
    }];
    records.extend(stream_records);
    perf::emit(&records);

    // ---------- Criterion targets ----------
    let mut next = 0usize;
    c.bench_function("score_tables/c2_batch_decode_tables", |b| {
        b.iter(|| black_box(table_decoder.viterbi(black_box(&inputs)).expect("decode")))
    });
    c.bench_function("score_tables/c2_batch_decode_naive", |b| {
        b.iter(|| {
            black_box(naive_coupled_viterbi(
                black_box(&params),
                black_box(&inputs),
            ))
        })
    });
    let model = CoupledHdbn::from_shared(Arc::clone(&params));
    let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(10));
    for tick in &inputs {
        online.push(tick).expect("warmup");
    }
    c.bench_function("score_tables/c2_stream_push_exact", |b| {
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
