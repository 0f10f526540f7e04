//! The CACE serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload fleet-live --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. One run generates the workload's inputs
//! from the seed, sets the serving fleet up, measures it for `--seconds`,
//! checks every decision against dedicated recognizers, and prints one
//! JSON object as its last line: the end-to-end metrics with `--trace 0`,
//! the per-layer split from a traced run with `--trace 1`. It exits
//! non-zero when a decision is wrong. See `servebench/README.md`.

mod alloc;
mod provenance;
mod replay;
mod schedule;
mod serve;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use cace_behavior::Session;
use serde::Value;

use crate::schedule::{OpenLoopLog, Schedule};
use crate::serve::Fleet;
use crate::trace::Tracer;
use crate::workload::{Spec, SHARDS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of the run spent in the closed loop; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.2;
/// The untraced run alternates closed and open loop in this many blocks, so
/// that each loop samples the whole run rather than one stretch of it: the
/// host's speed drifts over seconds.
const BLOCKS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The workload's offered open-loop rate, stored in `BENCHMARK.json` as
/// "open loop at N ticks/s" in the workload's `why`.
fn offered_rate(benchmark: &Path, workload: &str) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = serde::json::value_from_str(&text)
        .map_err(|e| format!("{}: {e:?}", benchmark.display()))?;
    let field = |v: &Value, key: &str| -> Option<Value> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone()),
            _ => None,
        }
    };
    let Some(Value::Seq(workloads)) = field(&doc, "workloads") else {
        return Err("BENCHMARK.json has no workloads list".into());
    };
    let why = workloads
        .iter()
        .find(|w| field(w, "name") == Some(Value::Str(workload.to_string())))
        .and_then(|w| match field(w, "why") {
            Some(Value::Str(why)) => Some(why),
            _ => None,
        })
        .ok_or_else(|| format!("BENCHMARK.json does not describe workload {workload}"))?;
    parse_rate(&why)
        .ok_or_else(|| format!("workload {workload}: no \"open loop at N ticks/s\" in its why"))
}

fn parse_rate(why: &str) -> Option<f64> {
    let rest = &why[why.find("open loop at ")? + "open loop at ".len()..];
    let (number, unit) = rest.split_once(' ')?;
    let rate: f64 = number.parse().ok()?;
    (unit.starts_with("ticks/s") && rate > 0.0).then_some(rate)
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to string");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

/// Schedule periods per latency slice: the fewest whole periods that span
/// a second and hold 1000 ticks. A whole number of periods carries every
/// home the same number of times, so slices differ only in when they ran,
/// and 1000 ticks leave ten samples beyond each slice's p99.
fn slice_periods(homes: usize, rate: f64) -> usize {
    let period = homes as f64 / rate;
    ((1.0 / period).ceil() as usize).max(1000usize.div_ceil(homes))
}

/// Open-loop latency (ms) at `rate`: the lower decile over slices of each
/// slice's nearest-rank p50, the lower quartile over slices of each slice's
/// nearest-rank p99, and the number of slices.
///
/// Both are printed beside the sample counts rather than reported as
/// result metrics: the host's speed drifts between runs by more than a
/// usable bound even on these statistics (over ten seeds on `fleet-live`
/// the p50 spread 0.17 and 0.25 of the median in two sets, the p99 0.14 to
/// 0.29), and at these rates a tick's latency is its service time, which
/// `ticks_per_s` already reports.
///
/// The host's speed moves between levels about 1.5x apart that each last
/// seconds (on a 2-vCPU KVM guest, one run's per-second medians sat at 29
/// and at 45 us in turn), and the share of a run spent in each differs
/// from run to run. A quantile pooled over the run follows that share and
/// jumps between levels; a low quantile over the slices reads the program
/// in the host's faster state whenever a run visits it. It still moves one
/// for one with a change that makes every tick slower or faster. A slice's
/// median rests on hundreds of samples around it and its p99 on ten, so
/// the p99 takes the wider quartile to average out that sampling noise.
fn latency_ms(open: &OpenLoopLog, homes: usize, rate: f64) -> Result<(f64, f64, usize), String> {
    let periods = slice_periods(homes, rate);
    let window = periods as f64 * homes as f64 / rate;
    let full = periods * homes;
    let p50s = open.slice_quantiles(0.5, window, full);
    let p99s = open.slice_quantiles(0.99, window, full);
    if p99s.len() < 4 {
        return Err(format!(
            "{} latency samples fill {} slices of {window} s; need 4",
            open.latency_s.len(),
            p99s.len()
        ));
    }
    Ok((
        stats::nearest_rank(&p50s, 0.1) * 1e3,
        stats::nearest_rank(&p99s, 0.25) * 1e3,
        p99s.len(),
    ))
}

/// The end-to-end run: set-up, closed loop, open loop, output check.
fn end_to_end(
    spec: &'static Spec,
    args: &Args,
    rate: f64,
    train: &[Session],
    sessions: &[Session],
    threads: usize,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let (f, seconds) = Fleet::setup(spec, train, sessions);
        setups.push(seconds);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    fleet.log.timed = true;
    let closed_s = args.seconds * CLOSED_SHARE / BLOCKS as f64;
    let open_s = args.seconds * (1.0 - CLOSED_SHARE);
    let mut schedule = Schedule::new(spec.homes, rate, args.seed);
    let mut open = OpenLoopLog::with_capacity((rate * open_s * 1.05) as usize);
    let mut chunk_rates = Vec::new();
    for block in 0..BLOCKS {
        chunk_rates.extend(fleet.closed_loop(closed_s, 0, None));
        let from = open_s * block as f64 / BLOCKS as f64;
        let until = open_s * (block + 1) as f64 / BLOCKS as f64;
        fleet.open_loop(&mut schedule, from, until, &mut open, None);
    }
    fleet.complete_first_pass();
    let ticks_per_s = stats::median(&mut chunk_rates);
    let (p50, p99, slices) = latency_ms(&open, spec.homes, rate)?;
    let mismatches = fleet.reference_check(threads);
    let accuracy = fleet.decision_accuracy();
    let failed = fleet.log.failed + mismatches;
    let attempted = fleet.log.attempted;
    let rss = provenance::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let mut pooled = open.latency_s.clone();
    stats::sort(&mut pooled);
    println!(
        "samples {{\"latency\": {}, \"latency_slices\": {slices}, \"closed_loop_chunks\": {}, \"tick_p50_ms\": {p50:?}, \"tick_p99_ms\": {p99:?}, \"pooled_p50_ms\": {:?}, \"pooled_p99_ms\": {:?}, \"beyond_pooled_p99\": {}, \"setups_s\": {setups:?}, \"mismatched_decisions\": {mismatches}}}",
        pooled.len(),
        chunk_rates.len(),
        stats::nearest_rank(&pooled, 0.5) * 1e3,
        stats::nearest_rank(&pooled, 0.99) * 1e3,
        stats::beyond(pooled.len(), 0.99)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", stats::median(&mut setups), "s"),
            metric("ticks_per_s", ticks_per_s, "1/s"),
            metric(
                "ok_ratio",
                (attempted - failed.min(attempted)) as f64 / attempted as f64,
                "ratio",
            ),
            metric("decision_accuracy", accuracy, "ratio"),
            metric("peak_rss_mb", rss, "MiB"),
        ],
    })
}

/// The traced run: the same serving loops with spans on, then the layer
/// replay. Writes every span to `servebench/traces/<workload>.tsv`.
fn traced(
    spec: &'static Spec,
    args: &Args,
    rate: f64,
    train: &[Session],
    sessions: &[Session],
    threads: usize,
    header: &str,
) -> Result<Outcome, String> {
    let (mut fleet, _) = Fleet::setup(spec, train, sessions);
    fleet.log.timed = true;
    let share = args.seconds * CLOSED_SHARE / 2.0;
    let before = fleet.router.stats();
    let untraced_tps = stats::median(&mut fleet.closed_loop(share, 0, None));
    let mut tracer = Tracer::new();
    let traced_tps = stats::median(&mut fleet.closed_loop(share, 0, Some(&mut tracer)));
    let open_s = args.seconds * (1.0 - CLOSED_SHARE) / 2.0;
    let mut open = OpenLoopLog::with_capacity((rate * open_s * 1.05) as usize);
    fleet.open_loop(
        &mut Schedule::new(spec.homes, rate, args.seed),
        0.0,
        open_s,
        &mut open,
        Some(&mut tracer),
    );
    let after = fleet.router.stats();
    let mismatches = fleet.reference_check(threads);
    let engine = std::sync::Arc::clone(&fleet.engine);
    let (mut attempted, mut failed) = (fleet.log.attempted, fleet.log.failed + mismatches);
    drop(fleet);

    let replay = replay::replay(spec, &engine, sessions, threads, &mut tracer);
    attempted += replay.pushes;
    failed += replay.mismatches;

    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let features = tracer.totals("features");
    let prepare = tracer.totals("prepare.tick_inputs");
    let step = tracer.totals("hdbn.step");
    let push = tracer.totals("stream.push");
    let encode = tracer.totals("park.encode");
    let decode = tracer.totals("park.decode");
    let router = tracer.totals("router.round");
    let features_ns = per(features.duration_ns, features.count as f64);
    let prepare_ns = per(prepare.self_ns, replay.prepared_ticks as f64);
    let step_ns = per(step.duration_ns, step.count as f64);
    let push_ns = per(push.duration_ns, push.count as f64);
    let mut push_samples = tracer.durations("stream.push");
    stats::sort(&mut push_samples);
    if stats::beyond(push_samples.len(), 0.99) < 10 {
        return Err(format!(
            "only {} traced pushes; need 1000 for a p99",
            push_samples.len()
        ));
    }
    stats::sort(&mut open.late_s);
    let pushes = (after.pushes() - before.pushes()) as f64;
    let round_ticks: Vec<f64> = open.round_ticks.iter().map(|&n| n as f64).collect();

    println!(
        "trace-overhead {{\"untraced_ticks_per_s\": {untraced_tps:?}, \"traced_ticks_per_s\": {traced_tps:?}, \"overhead\": {:?}}}",
        1.0 - traced_tps / untraced_tps
    );
    let path = Path::new("servebench/traces").join(format!("{}.tsv", spec.name));
    tracer
        .write_tsv(&path, header)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "spans {{\"file\": \"{}\", \"count\": {}}}",
        path.display(),
        tracer.spans().len()
    );

    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            metric("features.ns_per_tick", features_ns, "ns"),
            metric(
                "features.allocs_per_tick",
                per(features.allocs, features.count as f64),
                "count",
            ),
            metric("prepare.ns_per_tick", prepare_ns, "ns"),
            metric(
                "prepare.allocs_per_tick",
                per(prepare.self_allocs, replay.prepared_ticks as f64),
                "count",
            ),
            metric(
                "prepare.rules_fired_per_tick",
                replay.rules_fired_per_tick,
                "count",
            ),
            metric("hdbn.step_ns_per_tick", step_ns, "ns"),
            metric(
                "hdbn.allocs_per_step",
                per(step.allocs, step.count as f64),
                "count",
            ),
            metric(
                "hdbn.frontier_states_per_tick",
                replay.frontier_states_per_tick,
                "count",
            ),
            metric(
                "stream.push_p50_ns",
                stats::nearest_rank(&push_samples, 0.5),
                "ns",
            ),
            metric(
                "stream.push_p99_ns",
                stats::nearest_rank(&push_samples, 0.99),
                "ns",
            ),
            metric(
                "stream.allocs_per_push",
                per(push.allocs, push.count as f64),
                "count",
            ),
            metric(
                "stream.residual_ns_per_tick",
                push_ns - features_ns - prepare_ns - step_ns,
                "ns",
            ),
            metric(
                "park.encode_ns",
                per(encode.duration_ns, encode.count as f64),
                "ns",
            ),
            metric(
                "park.decode_ns",
                per(decode.duration_ns, decode.count as f64),
                "ns",
            ),
            metric("park.bytes_per_home", replay.bytes_per_home, "bytes"),
            metric(
                "router.self_ns_per_tick",
                per(router.self_ns, push.count as f64),
                "ns",
            ),
            metric(
                "router.round_ticks_mean",
                stats::mean(&round_ticks),
                "count",
            ),
            metric(
                "router.parks_per_tick",
                per((after.parks() - before.parks()) as f64, pushes),
                "count",
            ),
            metric(
                "router.rehydrations_per_tick",
                per(
                    (after.rehydrations() - before.rehydrations()) as f64,
                    pushes,
                ),
                "count",
            ),
            metric(
                "loadgen.late_p99_ms",
                stats::nearest_rank(&open.late_s, 0.99) * 1e3,
                "ms",
            ),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\nusage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "servebench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let rate = match offered_rate(Path::new("BENCHMARK.json"), spec.name) {
        Ok(rate) => rate,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(SHARDS);
    // The router's fan-out reads its worker count from here; pin it to the
    // machine so every run records what it used.
    serve::set_rayon_threads(threads);

    let train = workload::training_corpus(spec.corpus);
    let sessions = workload::home_sessions(spec, args.seed, threads);
    let provenance = format!(
        "{{\"commit\": {}, \"source_fnv\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"threads\": {threads}, \"open_loop_threads\": {}, \"seconds\": {:?}, \"trace\": {}, \"offered_ticks_per_s\": {rate:?}, \"homes\": {}}}",
        provenance::commit().map_or("null".to_string(), |c| format!("\"{c}\"")),
        provenance::source_fingerprint(),
        spec.name,
        args.seed,
        serve::OPEN_LOOP_WORKERS,
        args.seconds,
        u8::from(args.trace),
        spec.homes,
    );
    println!("provenance {provenance}");

    let outcome = if args.trace {
        traced(spec, &args, rate, &train, &sessions, threads, &provenance)
    } else {
        end_to_end(spec, &args, rate, &train, &sessions, threads)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "servebench: {} of {} ticks failed or disagreed with the reference",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_read_from_the_why() {
        assert_eq!(
            parse_rate("distinct homes; open loop at 20000 ticks/s offered"),
            Some(20000.0)
        );
        assert_eq!(parse_rate("open loop at 2.5 ticks/s"), Some(2.5));
        assert_eq!(parse_rate("open loop at many ticks/s"), None);
        assert_eq!(parse_rate("open loop at 100 homes"), None);
        assert_eq!(parse_rate("no rate here"), None);
    }

    #[test]
    fn every_workload_has_a_rate_in_the_benchmark_file() {
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        for spec in &workload::WORKLOADS {
            let rate = offered_rate(&file, spec.name).expect("a stored rate");
            assert!(rate > 0.0);
        }
    }

    #[test]
    fn latency_slices_are_whole_periods_of_a_second_and_1000_ticks() {
        // 1000 homes at 6000 ticks/s: a period is 1/6 s.
        assert_eq!(slice_periods(1000, 6000.0), 6);
        // 256 homes at 600 ticks/s: 0.43 s periods; 1000 ticks need four.
        assert_eq!(slice_periods(256, 600.0), 4);
        assert_eq!(slice_periods(2000, 100.0), 1);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(&Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![metric("a", 1.5, "ms"), metric("b", 2.0, "s")],
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
