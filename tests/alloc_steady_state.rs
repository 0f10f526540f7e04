//! Steady-state allocation accounting for the online decoders and for the
//! whole serving push.
//!
//! The `TrellisArena` + pooled-window design promises that a *warmed*
//! streaming push — slice fill, dominance selection, DP step, fixed-lag
//! emit — performs **zero heap allocations per tick**, on steps that fold
//! a survivor list and steps that run dense alike. This suite counts every
//! allocator call (alloc / realloc / alloc_zeroed) through a wrapping
//! global allocator with a per-thread counter, warms each decoder past its
//! high-water buffer sizes, then drives another window of pushes and
//! asserts the count stayed at zero.
//!
//! The streams keep no decision history, and a fixed-lag window holds at
//! most `lag + 2` entries, so nothing in the decoder loop grows with the
//! stream's age: the zero holds without pre-reserving anything.
//!
//! [`warmed_streaming_push_allocation_budget`] extends the count to a
//! whole `StreamingRecognizer::push`: feature extraction allocates
//! nothing, and a push allocates at most [`PUSH_RESIDUAL`] (see there for
//! what those allocations are).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cace::hdbn::{
    CoupledHdbn, DecoderConfig, Lag, OnlineCoupledViterbi, OnlineSingleViterbi, SingleHdbn,
    TickInput,
};
use cace_testkit::{toy_glitchy_ticks, toy_two_activity_params};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the system allocator, counting allocations made while the
/// current thread has counting enabled. Thread-local so the other tests
/// in this binary (and the harness itself) don't pollute the counter.
struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        // `try_with` so allocations during TLS teardown can't panic.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            }
        });
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

/// Runs `f` with allocation counting on, returning the number of
/// allocator calls it made on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|c| c.get())
}

const WARMUP: usize = 64;
const MEASURED: usize = 64;

fn stream_ticks() -> Vec<TickInput> {
    toy_glitchy_ticks(WARMUP + MEASURED)
}

#[test]
fn warmed_coupled_stream_push_allocates_nothing() {
    let model = CoupledHdbn::new(toy_two_activity_params(true));
    let ticks = stream_ticks();
    let mut online = OnlineCoupledViterbi::new(model, Lag::Fixed(5));
    for tick in &ticks[..WARMUP] {
        online.push(tick).expect("warmup push");
    }
    let allocs = count_allocs(|| {
        for tick in &ticks[WARMUP..] {
            online.push(tick).expect("measured push");
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed coupled push must be allocation-free \
         ({allocs} allocations over {MEASURED} ticks)"
    );
    // The stream still finalizes: the tail is the last `lag` ticks.
    let tail = online.finalize().expect("finalize");
    assert_eq!(tail.macros[0].len(), 5);
}

#[test]
fn warmed_single_stream_push_allocates_nothing() {
    let model = SingleHdbn::new(toy_two_activity_params(false));
    let ticks = stream_ticks();
    let mut online = OnlineSingleViterbi::new(model, 0, Lag::Fixed(5));
    for tick in &ticks[..WARMUP] {
        online.push(tick).expect("warmup push");
    }
    let allocs = count_allocs(|| {
        for tick in &ticks[WARMUP..] {
            online.push(tick).expect("measured push");
        }
    });
    assert_eq!(
        allocs, 0,
        "warmed single-chain push must be allocation-free \
         ({allocs} allocations over {MEASURED} ticks)"
    );
    let tail = online.finalize().expect("finalize");
    assert_eq!(tail.macros.len(), 5);
}

/// Under `Lag::Unbounded` the window keeps every tick, but only as
/// survivor records and candidate tuples in pooled stores; the two whole
/// entries ping-pong as under a fixed lag. With the window spine
/// pre-reserved, a warmed push allocates only when a store doubles: at
/// most one allocation per push on average (the whole entries alone once
/// cost 19 per push).
#[test]
fn warmed_unbounded_coupled_push_allocates_at_most_once_per_push() {
    let model = CoupledHdbn::new(toy_two_activity_params(true));
    let ticks = stream_ticks();
    let mut online = OnlineCoupledViterbi::new(model, Lag::Unbounded);
    online.reserve_ticks(ticks.len());
    for tick in &ticks[..WARMUP] {
        online.push(tick).expect("warmup push");
    }
    let allocs = count_allocs(|| {
        for tick in &ticks[WARMUP..] {
            online.push(tick).expect("measured push");
        }
    });
    assert!(
        allocs <= MEASURED as u64,
        "{allocs} allocations over {MEASURED} warmed unbounded pushes"
    );
    let path = online.finalize().expect("finalize");
    assert_eq!(path.macros[0].len(), ticks.len());
}

/// Dominance pruning genuinely prunes the measured window of both tests
/// above (strict subsets survive), so the zero-allocation claim covers
/// the survivor selection and survivor kernels, not just the dense ones.
#[test]
fn dominance_actually_prunes_in_steady_state() {
    let ticks = stream_ticks();
    let mut coupled = OnlineCoupledViterbi::new(
        CoupledHdbn::new(toy_two_activity_params(true)),
        Lag::Fixed(5),
    );
    let mut single = OnlineSingleViterbi::new(
        SingleHdbn::new(toy_two_activity_params(false)),
        0,
        Lag::Fixed(5),
    );
    let (mut coupled_pruned, mut single_pruned) = (0, 0);
    for (t, tick) in ticks.iter().enumerate() {
        coupled.push(tick).expect("coupled push");
        single.push(tick).expect("single push");
        if t >= WARMUP {
            // 2 activities × 2 candidates: 16 joint states, 4 chain states.
            coupled_pruned += usize::from(coupled.last_survivors().expect("a step ran") < 16);
            single_pruned += usize::from(single.last_survivors().expect("a step ran") < 4);
        }
    }
    assert!(
        coupled_pruned > MEASURED / 2,
        "{coupled_pruned} pruned steps"
    );
    assert!(single_pruned > MEASURED / 2, "{single_pruned} pruned steps");
}

/// Allocations a warmed `StreamingRecognizer::push` on the serving shape
/// may make — the per-tick values the push hands to the decoder:
///
/// * the `TickInput`'s candidate lists, `candidates[0]` and
///   `candidates[1]` (2);
/// * its macro restrictions, `macro_candidates[u]`, on ticks where the
///   rules narrow a user's macro set (up to 2);
/// * its `macro_bonus`, on CASAS ticks only (0 here);
/// * the pruner's `CandidateTick`: four `Vec<bool>` masks per user (8).
///
/// Everything else — frame features, forest scoring, evidence, rule
/// lookup, tuple scoring, the trellis step, the fixed-lag emit — runs on
/// the stack or on reused buffers; the stream keeps no decision history
/// that could grow.
const PUSH_RESIDUAL: u64 = 2 + 2 + 8;

/// Whole-push allocation accounting on the serving shape (`fleet-live`):
/// a tiny C2 engine with the exact decoder and a fixed lag of 6, warmed
/// over eight passes of a session and measured over one more.
#[test]
fn warmed_streaming_push_allocation_budget() {
    use cace::core::{CaceConfig, CaceEngine, Lag as StreamLag, Strategy};
    use cace::features::extract_tick;
    const _: () = assert!(PUSH_RESIDUAL <= 16);

    let (train, test) = cace_testkit::tiny_corpus(6, 60, 4117);
    let config = CaceConfig::default()
        .with_strategy(Strategy::CorrelationConstraint)
        .with_decoder(DecoderConfig::exact());
    let engine = CaceEngine::train(&train, &config).expect("training");
    let session = &test[0];
    let mut stream = engine.stream(StreamLag::Fixed(6));
    // The backpointer window's pooled entries meet the session's widest
    // tick in rotation, so it takes several passes before every entry has
    // grown to it (the arena's high-water mark, not a per-push cost).
    for _ in 0..8 {
        for tick in &session.ticks {
            stream.push(&tick.observed).expect("warmup push");
        }
    }
    for (t, tick) in session.ticks.iter().enumerate() {
        let features = count_allocs(|| {
            std::hint::black_box(extract_tick(std::hint::black_box(&tick.observed)));
        });
        assert_eq!(
            features, 0,
            "tick {t}: extract_tick allocated {features} times"
        );
        let push = count_allocs(|| {
            stream.push(&tick.observed).expect("measured push");
        });
        assert!(
            push <= PUSH_RESIDUAL,
            "tick {t}: push allocated {push} times, budget {PUSH_RESIDUAL}"
        );
    }
}
