//! Shared helpers for the CACE benchmark harnesses.
//!
//! Every bench in `benches/` regenerates one table or figure of the paper's
//! evaluation (§VII). The helpers here build the standard datasets and
//! trained engines so the individual harnesses stay focused on their
//! experiment. Absolute numbers differ from the paper (its substrate was a
//! physical testbed; ours is the simulator documented in `DESIGN.md`) — the
//! *shape* of each result is what the benches reproduce.
//!
//! See `ARCHITECTURE.md` for the full figure/table → bench mapping.
//!
//! ```no_run
//! use cace_bench::{cace_corpus, mean_accuracy, trained};
//! use cace_core::Strategy;
//!
//! let (train, test) = cace_corpus(1, 10, 250, 14000);
//! let engine = trained(&train, Strategy::CorrelationConstraint);
//! assert!(mean_accuracy(&engine, &test) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cace_behavior::session::train_test_split;
use cace_behavior::{cace_grammar, generate_cace_dataset, Session, SessionConfig};
use cace_core::{CaceConfig, CaceEngine, Strategy};

/// Standard CACE-sim corpus: `sessions` recordings of `ticks` ticks in one
/// home, split 80/20.
pub fn cace_corpus(
    home: u32,
    sessions: usize,
    ticks: usize,
    seed: u64,
) -> (Vec<Session>, Vec<Session>) {
    let grammar = cace_grammar();
    let data = generate_cace_dataset(
        &grammar,
        1,
        sessions,
        &SessionConfig::standard().with_ticks(ticks).with_home(home),
        seed,
    );
    train_test_split(data, 0.8)
}

/// Trains an engine with the given strategy on the standard corpus.
pub fn trained(train: &[Session], strategy: Strategy) -> CaceEngine {
    CaceEngine::train(train, &CaceConfig::default().with_strategy(strategy))
        .expect("training succeeds on simulated data")
}

/// Mean tick-level accuracy of an engine over test sessions.
pub fn mean_accuracy(engine: &CaceEngine, test: &[Session]) -> f64 {
    let recognitions = engine.recognize_batch(test).expect("recognition succeeds");
    let acc: f64 = recognitions
        .iter()
        .zip(test)
        .map(|(rec, session)| rec.accuracy(session))
        .sum();
    acc / test.len().max(1) as f64
}

/// Prints a section header for the table output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Nearest-rank percentile of an ascending-sorted sample (Hyndman–Fan
/// definition 1): the `p`-quantile is the `⌈p·N⌉`-th smallest sample,
/// clamped into the observed range. Unlike the rounded-index form this
/// always returns an *actual observed* value (never an interpolation)
/// and is exact at the conventional p50/p99 reporting points: for
/// N = 18 rounds, p99 is the maximum, not the second-largest.
///
/// # Panics
/// Panics on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Machine-readable perf records: the `BENCH_PR10.json` trajectory file.
///
/// Each bench that measures a serving-relevant number appends
/// [`PerfRecord`](perf::PerfRecord)s keyed by a stable `id`; re-running a bench overwrites
/// its own records and leaves the others, so the file accumulates one
/// up-to-date row per measurement across harnesses (`score_tables`,
/// `router_scale`, `kernel_parity`, `adaptation`). CI's
/// `--quick` smoke refreshes it on
/// every run. The PR 5/6/7/8/9 files (`BENCH_PR5.json` …
/// `BENCH_PR9.json`) are kept as historical baselines; when
/// `BENCH_PR10.json` does not exist yet, [`emit`](perf::emit) seeds it
/// from the PR 9 file so still-valid records carry forward.
pub mod perf {
    use std::path::PathBuf;

    /// One measurement row of `BENCH_PR10.json`.
    #[derive(Debug, Clone)]
    pub struct PerfRecord {
        /// Stable record key, e.g. `score_tables/c2_batch_decode`.
        pub id: String,
        /// Steady-state per-tick latency in nanoseconds.
        pub per_tick_ns: f64,
        /// Speedup over the naive-scoring reference on the same workload
        /// (`None` when the record has no naive counterpart).
        pub speedup_vs_naive: Option<f64>,
        /// Heap allocations per warmed tick (`None` when not measured).
        pub allocs_per_tick: Option<f64>,
        /// Sustained serving throughput in home-ticks per second (`None`
        /// outside the `router_scale` fleet records).
        pub homes_per_s: Option<f64>,
        /// Free-form context (workload, beam, accuracy delta, ...).
        pub note: String,
    }

    impl PerfRecord {
        fn to_value(&self) -> serde::Value {
            let mut fields = vec![
                ("id".to_string(), serde::Value::Str(self.id.clone())),
                (
                    "per_tick_ns".to_string(),
                    serde::Value::Float(self.per_tick_ns),
                ),
            ];
            if let Some(s) = self.speedup_vs_naive {
                fields.push(("speedup_vs_naive".to_string(), serde::Value::Float(s)));
            }
            if let Some(a) = self.allocs_per_tick {
                fields.push(("allocs_per_tick".to_string(), serde::Value::Float(a)));
            }
            if let Some(h) = self.homes_per_s {
                fields.push(("homes_per_s".to_string(), serde::Value::Float(h)));
            }
            fields.push(("note".to_string(), serde::Value::Str(self.note.clone())));
            serde::Value::Map(fields)
        }
    }

    /// The perf-record file at the workspace root.
    pub fn record_path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_PR10.json")
    }

    /// A numeric `field` of record `id` in a frozen trajectory file at
    /// the workspace root, e.g. `baseline("BENCH_PR5.json",
    /// "score_tables/c2_batch_decode", "per_tick_ns")`. Acceptance gates
    /// compare against a frozen file so they measure a contract against
    /// the code *as it stood when the contract was specified*, and later
    /// speedups don't move the goalposts. Returns `None` if the file, id,
    /// or field is missing.
    pub fn baseline(file: &str, id: &str, field: &str) -> Option<f64> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        let text = std::fs::read_to_string(path).ok()?;
        let serde::Value::Map(fields) = serde::json::value_from_str(&text).ok()? else {
            return None;
        };
        let records = fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("records", serde::Value::Seq(rs)) => Some(rs),
            _ => None,
        })?;
        records.iter().find_map(|r| {
            let serde::Value::Map(fs) = r else {
                return None;
            };
            let rid = fs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("id", serde::Value::Str(s)) => Some(s.as_str()),
                _ => None,
            })?;
            if rid != id {
                return None;
            }
            fs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                (k, serde::Value::Float(f)) if k == field => Some(*f),
                _ => None,
            })
        })
    }

    fn record_id(value: &serde::Value) -> Option<&str> {
        let serde::Value::Map(fields) = value else {
            return None;
        };
        fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
            ("id", serde::Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
    }

    /// Merges `records` into `BENCH_PR10.json`: existing rows with the same
    /// `id` are replaced, everything else is preserved. When the PR 10 file
    /// does not exist yet, the merge starts from the frozen `BENCH_PR9.json`
    /// so the prior trajectory's record ids carry forward. Prints the file
    /// path so bench logs point at the artifact.
    pub fn emit(records: &[PerfRecord]) {
        let path = record_path();
        let seed = path.with_file_name("BENCH_PR9.json");
        let source = if path.exists() { &path } else { &seed };
        let mut kept: Vec<serde::Value> = Vec::new();
        if let Ok(text) = std::fs::read_to_string(source) {
            if let Ok(serde::Value::Map(fields)) = serde::json::value_from_str(&text) {
                for (key, value) in fields {
                    if key == "records" {
                        if let serde::Value::Seq(existing) = value {
                            kept.extend(existing.into_iter().filter(|r| {
                                record_id(r)
                                    .map(|id| records.iter().all(|n| n.id != id))
                                    .unwrap_or(false)
                            }));
                        }
                    }
                }
            }
        }
        kept.extend(records.iter().map(PerfRecord::to_value));
        let doc = serde::Value::Map(vec![("records".to_string(), serde::Value::Seq(kept))]);
        let text = serde::json::value_to_string(&doc);
        if let Err(e) = std::fs::write(&path, text + "\n") {
            eprintln!("perf: could not write {}: {e}", path.display());
        } else {
            println!("perf: {} record(s) → {}", records.len(), path.display());
        }
    }
}
