//! Seeded mutation fuzzing of the readers of outside bytes: parked
//! streams, engine snapshots and model records.
//!
//! A serving tier rehydrates parked bytes it may not have written itself
//! (imports, handovers, bytes that rotted in storage). Whatever those
//! bytes hold, [`ParkedStream::from_snapshot_bytes`] followed by
//! [`CaceEngine::resume`] must return `Ok` or
//! [`ModelError::Persistence`]: never panic, and never let a length field
//! request an allocation out of proportion to the input.
//!
//! The parked inputs are fresh `v6` parks of all four strategies and the
//! three golden `v6` fixtures (`tests/fixtures/parked_*_v6.stream-bin`).
//! Each mutant is resealed — its header checksum and length recomputed —
//! so the decoder really runs on it instead of stopping at the checksum.
//! Mutations: bit flips, truncation, varints that lie about a length, and
//! overlong varints.
//!
//! The allocation bound is [`ALLOC_FACTOR`] times the input length; see
//! there for where the factor comes from.
//!
//! Engine and model-record snapshots are the JSON reader's outside
//! inputs ([`CaceEngine::from_snapshot_str`],
//! [`ShardedRouter::import_model`]). Their token-edited mutants must read
//! as `Ok` or [`ModelError::Persistence`], never a panic, and a mutant
//! that reads `Ok` must serve: it streams [`SERVED_TICKS`] ticks of a
//! session (an engine through its own stream, a model record through a
//! router home) and finishes without a panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cace::behavior::Session;
use cace::core::{CaceConfig, CaceEngine, Lag, ModelRecord, ParkedStream, ShardedRouter, Strategy};
use cace::model::ModelError;
use cace_testkit::{engine_with, tiny_corpus};

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the system allocator, recording the largest single request made
/// while the current thread has tracking on.
struct PeakAlloc;

impl PeakAlloc {
    fn record(size: usize) {
        // `try_with` so allocations during TLS teardown can't panic.
        let _ = TRACKING.try_with(|on| {
            if on.get() {
                let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; recording a size touches no allocation.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation it
/// made on this thread.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    TRACKING.with(|on| on.set(true));
    let out = f();
    TRACKING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get))
}

/// No allocation made while reading a parked stream may exceed this many
/// bytes per input byte.
///
/// Binary payloads: every sequence is read by `ByteReader::read_seq`,
/// which reserves `len` elements only after checking that `len` times the
/// element's smallest encoding fits in the bytes that remain. The worst
/// ratio of element size to smallest encoding is 24: a compacted window
/// entry is 48 bytes in memory (a `Vec` of items and one of records) and
/// at least 2 on the wire (two one-byte empty sequences). A record is at
/// most 4 times its smallest encoding (a coupled one: 24 bytes from six
/// one-byte varints), a candidate tuple 40 bytes from 11, and every other
/// sequence at most 8 (a `usize` from a one-byte varint). One factor
/// covers these and the JSON bound below.
///
/// JSON snapshots: the parser holds each array in a `Vec` of 32-byte
/// values that at most doubles past its length, and an array of `n`
/// elements takes at least `2n - 1` bytes of text, so an array costs at
/// most 32 bytes per input byte. (Map entries are 56 bytes and take at
/// least 5 bytes of text each: 22.4.)
const ALLOC_FACTOR: usize = 32;

/// Inputs shorter than this count as this long, so the fixed-size header
/// error messages of a near-empty input stay within the bound.
const ALLOC_FLOOR: usize = 64;

/// `splitmix64`, so every run draws the same mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn split_header(bytes: &[u8]) -> (&str, &[u8]) {
    let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
    let header = std::str::from_utf8(&bytes[..newline]).expect("UTF-8 header");
    (header, &bytes[newline + 1..])
}

/// Wraps an edited binary payload in a valid envelope of `version`.
fn reseal_bin(payload: &[u8], version: &str) -> Vec<u8> {
    let mut out = format!(
        "CACE-SNAPSHOT {version} kind=stream-bin fnv1a64={:016x} len={}\n",
        fnv1a64(payload),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Wraps an edited JSON payload in a valid `v3` header.
fn reseal_json(payload: &str) -> String {
    format!(
        "CACE-SNAPSHOT v3 fnv1a64={:016x}\n{payload}",
        fnv1a64(payload.as_bytes())
    )
}

fn varint(mut x: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
    out
}

/// Length of the varint starting at `at`.
fn varint_len(bytes: &[u8], at: usize) -> usize {
    bytes[at..]
        .iter()
        .position(|&b| b & 0x80 == 0)
        .map_or(bytes.len() - at, |i| i + 1)
}

fn splice(payload: &[u8], at: usize, cut: usize, with: &[u8]) -> Vec<u8> {
    let mut out = payload[..at].to_vec();
    out.extend_from_slice(with);
    out.extend_from_slice(&payload[(at + cut).min(payload.len())..]);
    out
}

/// One mutant of a binary payload. `len_at` is the offset of the first
/// decoder's survivor count, a length field every strategy has.
fn mutate_binary(payload: &[u8], len_at: usize, rng: &mut Rng) -> Vec<u8> {
    let lies = [
        payload.len() as u64,
        2 * payload.len() as u64,
        u64::from(u32::MAX) + 1,
        1 << 40,
        u64::MAX,
        rng.next(),
    ];
    let at = rng.below(payload.len());
    match rng.below(6) {
        0 => {
            let mut out = payload.to_vec();
            for _ in 0..=rng.below(3) {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
            out
        }
        1 => payload[..at].to_vec(),
        // A varint that lies, written over a byte anywhere...
        2 => splice(payload, at, 1, &varint(lies[rng.below(lies.len())])),
        // ...and over a real length field.
        3 => splice(
            payload,
            len_at,
            varint_len(payload, len_at),
            &varint(lies[rng.below(lies.len())]),
        ),
        // An overlong varint: more than 64 bits of continuation...
        4 => splice(payload, at, 1, &[[0xff; 10].as_slice(), &[0x01]].concat()),
        // ...or a padded, non-minimal encoding of a small value.
        _ => splice(payload, at, 1, &[0x80, 0x80, 0x80, 0x80, 0x00]),
    }
}

/// One token-level mutant of a JSON payload.
fn mutate_json(payload: &str, rng: &mut Rng) -> String {
    let bytes = payload.as_bytes();
    let digits: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit())
        .collect();
    let at = digits[rng.below(digits.len())];
    let numbers = [
        "18446744073709551615",
        "99999999999999999999999",
        "-1",
        "1e999",
        "NaN",
        "[]",
        "null",
    ];
    match rng.below(4) {
        0 => {
            let digit = char::from(b'0' + rng.below(10) as u8);
            format!("{}{digit}{}", &payload[..at], &payload[at + 1..])
        }
        1 => {
            // Replace the whole number token around `at`.
            let is_num = |b: u8| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'e' | b'+');
            let start = (0..at)
                .rev()
                .find(|&i| !is_num(bytes[i]))
                .map_or(0, |i| i + 1);
            let end = (at..bytes.len())
                .find(|&i| !is_num(bytes[i]))
                .unwrap_or(bytes.len());
            let with = numbers[rng.below(numbers.len())];
            format!("{}{with}{}", &payload[..start], &payload[end..])
        }
        2 => {
            let end = (at + 1 + rng.below(40)).min(payload.len());
            format!("{}{}", &payload[..at], &payload[end..])
        }
        _ => payload[..at].to_string(),
    }
}

/// Reads one mutant and resumes it, asserting the outcome and the
/// allocation bound. Returns whether the read succeeded.
fn check(engine: &CaceEngine, bytes: &[u8], label: &str) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (read, peak) = peak_alloc(|| ParkedStream::from_snapshot_bytes(bytes));
        let bound = ALLOC_FACTOR * bytes.len().max(ALLOC_FLOOR);
        assert!(
            peak <= bound,
            "{label}: reading {} input bytes allocated {peak} bytes at once (bound {bound})",
            bytes.len()
        );
        match read {
            Ok(parked) => match engine.resume(&parked) {
                Ok(_) | Err(ModelError::Persistence { .. }) => true,
                Err(e) => panic!("{label}: resume failed with a non-persistence error: {e:?}"),
            },
            Err(ModelError::Persistence { .. }) => false,
            Err(e) => panic!("{label}: read failed with a non-persistence error: {e:?}"),
        }
    }));
    outcome.unwrap_or_else(|_| panic!("{label}: the reader or resume panicked"))
}

const MUTANTS_PER_INPUT: usize = 150;

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn mutated_parks_read_and_resume_without_panicking() {
    // The recipe of the golden fixtures: lag 5, parked at tick 30.
    let (train, test) = tiny_corpus(4, 60, 17);
    let mut rng = Rng(0x5eed_f00d);
    let (mut read_ok, mut read_err) = (0usize, 0usize);
    for strategy in Strategy::ALL {
        let engine = engine_with(&train, &CaceConfig::default().with_strategy(strategy));
        let mut stream = engine.stream(Lag::Fixed(5));
        for tick in &test[0].ticks[..30] {
            stream.push(&tick.observed).unwrap();
        }
        let mut inputs = vec![(
            format!("fresh {strategy}"),
            stream.park().to_snapshot_bytes(),
        )];
        let stem = match strategy {
            Strategy::CorrelationConstraint => Some("parked_c2"),
            Strategy::NaiveCorrelation => Some("parked_ncr"),
            Strategy::NaiveHmm => Some("parked_nh"),
            _ => None,
        };
        if let Some(stem) = stem {
            let name = format!("{stem}_v6.stream-bin");
            inputs.push((name.clone(), fixture(&name)));
        }
        for (name, original) in inputs {
            assert!(check(&engine, &original, &name), "{name}: unmutated input");
            let (header, payload) = split_header(&original);
            let version = header.split_whitespace().nth(1).unwrap().to_string();
            for i in 0..MUTANTS_PER_INPUT {
                let label = format!("{name} mutant {i}");
                // Strategy tag, then the lag tag and its varint, then the
                // state tag.
                let mutant = reseal_bin(&mutate_binary(payload, 4, &mut rng), &version);
                if check(&engine, &mutant, &label) {
                    read_ok += 1;
                } else {
                    read_err += 1;
                }
            }
        }
    }
    // Both outcomes occur: the mutants reach the decoder and past it.
    assert!(
        read_ok > 0 && read_err > 0,
        "{read_ok} read, {read_err} rejected"
    );
}

/// Reads one JSON mutant through `read`, asserting it returns `Ok` or a
/// persistence error without panicking, within the allocation bound.
/// Returns what it read, if anything, and the largest single allocation
/// the read made.
fn check_json<T>(
    text: &str,
    label: &str,
    read: impl FnOnce(&str) -> Result<T, ModelError>,
) -> (Option<T>, usize) {
    let (read, peak) = catch_unwind(AssertUnwindSafe(|| peak_alloc(|| read(text))))
        .unwrap_or_else(|_| panic!("{label}: the reader panicked"));
    let bound = ALLOC_FACTOR * text.len().max(ALLOC_FLOOR);
    assert!(
        peak <= bound,
        "{label}: reading {} input bytes allocated {peak} bytes at once (bound {bound})",
        text.len()
    );
    match read {
        Ok(value) => (Some(value), peak),
        Err(ModelError::Persistence { .. }) => (None, peak),
        Err(e) => panic!("{label}: failed with a non-persistence error: {e:?}"),
    }
}

/// Ticks of the test session each accepted engine or model-record mutant
/// serves.
const SERVED_TICKS: usize = 20;

/// Streams the first [`SERVED_TICKS`] ticks of `session` through `engine`
/// and finishes, asserting nothing panics. A push or the finish may fail
/// with an error: a mutant that reads `Ok` may still hold a model that
/// decodes nothing, but it must say so instead of panicking.
fn serve_engine(engine: &CaceEngine, session: &Session, label: &str) {
    catch_unwind(AssertUnwindSafe(|| {
        let mut stream = engine.stream(Lag::Fixed(5));
        for tick in &session.ticks[..SERVED_TICKS] {
            let _ = stream.push(&tick.observed);
        }
        let _ = stream.finish();
    }))
    .unwrap_or_else(|_| panic!("{label}: serving the engine panicked"));
}

/// Imports a model-record mutant into a router, adds a home on it and
/// serves it [`SERVED_TICKS`] rounds of `session`, asserting nothing
/// panics.
fn serve_record(text: &str, session: &Session, label: &str) {
    catch_unwind(AssertUnwindSafe(|| {
        let name = ModelRecord::from_snapshot_str(text).expect("imported").name;
        let mut router = ShardedRouter::new();
        router.import_model(text).expect("imported");
        router.add_home(0, &name, Lag::Fixed(5)).expect("a home");
        for tick in &session.ticks[..SERVED_TICKS] {
            let _ = router.push_round(&[(0, &tick.observed)]);
        }
        let _ = router.finish();
    }))
    .unwrap_or_else(|_| panic!("{label}: serving the imported model panicked"));
}

#[test]
fn mutated_engine_and_model_record_snapshots_never_panic() {
    let (train, test) = tiny_corpus(4, 60, 17);
    let session = &test[0];
    let engine = engine_with(&train, &CaceConfig::default());
    let record = ModelRecord {
        name: "cace".to_string(),
        generation: 0,
        engine: engine.clone(),
    };
    let import = |text: &str| ShardedRouter::new().import_model(text);
    let mut rng = Rng(0x0dec_0de5);
    let (mut read_ok, mut read_err, mut per_byte) = (0usize, 0usize, 0f64);
    let mut served = 0usize;
    for (name, original) in [
        ("engine", engine.to_snapshot_string()),
        ("model record", record.to_snapshot_string()),
    ] {
        let payload = split_header(original.as_bytes()).1;
        let payload = std::str::from_utf8(payload).unwrap();
        for i in 0..MUTANTS_PER_INPUT {
            let label = format!("{name} mutant {i}");
            let mutant = reseal_json(&mutate_json(payload, &mut rng));
            let (engine, engine_peak) = check_json(&mutant, &label, CaceEngine::from_snapshot_str);
            let (imported, import_peak) = check_json(&mutant, &label, import);
            if let Some(engine) = &engine {
                serve_engine(engine, session, &label);
                served += 1;
            }
            if imported.is_some() {
                serve_record(&mutant, session, &label);
                served += 1;
            }
            for (ok, peak) in [
                (engine.is_some(), engine_peak),
                (imported.is_some(), import_peak),
            ] {
                if ok {
                    read_ok += 1;
                } else {
                    read_err += 1;
                }
                per_byte = per_byte.max(peak as f64 / mutant.len() as f64);
            }
        }
    }
    println!(
        "{read_ok} read ({served} served), {read_err} rejected, \
         peak allocation {per_byte:.2} B per input byte"
    );
    // Both outcomes occur: the mutants reach the payload readers and
    // past them.
    assert!(
        read_ok > 0 && read_err > 0,
        "{read_ok} read, {read_err} rejected"
    );
}

/// Regression cases of the engine-snapshot fuzzing: tables that disagree
/// with the model's own counts. Each panicked the engine reader with an
/// index out of bounds before the reader checked the shapes.
#[test]
fn engine_snapshots_with_misshapen_tables_are_rejected() {
    let (train, _) = tiny_corpus(4, 60, 17);
    let config = CaceConfig::default().with_strategy(Strategy::NaiveHmm);
    let text = engine_with(&train, &config).to_snapshot_string();
    let payload = std::str::from_utf8(split_header(text.as_bytes()).1).unwrap();
    for (from, to) in [
        // More posturals than the mined tables have columns.
        (r#""n_postural":6"#, r#""n_postural":7"#),
        // An NH transition row longer than the table is wide.
        (r#""nh_log_trans":[["#, r#""nh_log_trans":[[-1.0,"#),
    ] {
        let edited = payload.replace(from, to);
        assert_ne!(edited, payload, "tamper target must exist");
        let mutant = reseal_json(&edited);
        let (read, _) = check_json(&mutant, to, CaceEngine::from_snapshot_str);
        assert!(read.is_none(), "{to}: accepted");
    }
}

/// Regression cases of serving what the engine reader accepted: a
/// decision tree whose child indices form a cycle looped forever when a
/// tick's features walked into it, and a split on a feature past the
/// frame's end panicked. Both now fail the read, through the engine reader
/// and through a model-record import alike.
#[test]
fn engine_snapshots_with_cyclic_or_out_of_range_trees_are_rejected() {
    let (train, _) = tiny_corpus(4, 60, 17);
    let engine = engine_with(&train, &CaceConfig::default());
    let record = ModelRecord {
        name: "cace".to_string(),
        generation: 0,
        engine,
    };
    let text = record.to_snapshot_string();
    let payload = std::str::from_utf8(split_header(text.as_bytes()).1).unwrap();
    let import = |text: &str| ShardedRouter::new().import_model(text);
    for (from, to) in [
        // The first tree's root names itself as its left child.
        (
            r#"{"Split":{"feature":"#,
            r#"{"Split":{"left":0,"feature":"#,
        ),
        // The first split reads a feature no frame has.
        (
            r#"{"Split":{"feature":"#,
            r#"{"Split":{"feature":4096,"ignored":"#,
        ),
    ] {
        let edited = payload.replacen(from, to, 1);
        assert_ne!(edited, payload, "tamper target must exist");
        let mutant = reseal_json(&edited);
        for (reader, read) in [
            (
                "engine",
                check_json(&mutant, to, |t| CaceEngine::from_snapshot_str(t).map(drop))
                    .0
                    .is_some(),
            ),
            ("import", check_json(&mutant, to, import).0.is_some()),
        ] {
            assert!(!read, "{to}: the {reader} reader accepted it");
        }
    }
}

/// An engine snapshot whose atom space disagrees with the model it carries
/// read `Ok` and then panicked on its first push: a postural vocabulary
/// of 7 indexed past `Postural::ALL` when the candidate tuples were
/// scored. Nothing checked the engine's `space` or its rule set's against
/// the fixed vocabularies, the floor plan or the engine's `n_macro`. Each
/// edit now fails the read, through the engine reader and a model-record
/// import alike.
#[test]
fn engine_snapshots_whose_space_disagrees_with_the_model_are_rejected() {
    let (train, _) = tiny_corpus(4, 60, 17);
    let engine = engine_with(&train, &CaceConfig::default());
    let engine_text = engine.to_snapshot_string();
    let record_text = ModelRecord {
        name: "cace".to_string(),
        generation: 0,
        engine,
    }
    .to_snapshot_string();
    let import = |text: &str| ShardedRouter::new().import_model(text);
    // `(from, to, n)`: replace the `n`th occurrence of `from`. The engine's
    // `space` comes first in the payload and its rule set's second.
    for (from, to, n) in [
        (r#""n_postural":6"#, r#""n_postural":7"#, 0),
        (r#""n_postural":6"#, r#""n_postural":7"#, 1),
        (r#""n_gestural":5"#, r#""n_gestural":4"#, 0),
        (r#""n_location":14"#, r#""n_location":13"#, 0),
        (r#""n_room":6"#, r#""n_room":7"#, 1),
        (r#""loc_to_room":[0"#, r#""loc_to_room":[1"#, 0),
        (r#""space":{"n_macro":11"#, r#""space":{"n_macro":70"#, 0),
        (r#""space":{"n_macro":11"#, r#""space":{"n_macro":12"#, 1),
        (
            r#""n_macro":11,"has_gestural""#,
            r#""n_macro":12,"has_gestural""#,
            0,
        ),
    ] {
        let label = format!("{to} #{n}");
        let edit = |text: &str| {
            let payload = std::str::from_utf8(split_header(text.as_bytes()).1).unwrap();
            let at = payload
                .match_indices(from)
                .nth(n)
                .unwrap_or_else(|| panic!("tamper target {from} #{n} must exist"))
                .0;
            reseal_json(&format!(
                "{}{to}{}",
                &payload[..at],
                &payload[at + from.len()..]
            ))
        };
        let read = |t: &str| CaceEngine::from_snapshot_str(t).map(drop);
        let accepted = check_json(&edit(&engine_text), &label, read).0.is_some();
        assert!(!accepted, "{label}: the engine reader accepted it");
        let accepted = check_json(&edit(&record_text), &label, import).0.is_some();
        assert!(!accepted, "{label}: the import reader accepted it");
    }
}
