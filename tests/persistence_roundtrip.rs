//! Model persistence must be lossless in the only sense that matters for
//! serving: a trained engine saved to disk and reloaded in a fresh
//! "process" (a fresh `CaceEngine` value that never saw the training data)
//! produces **bit-identical** batch and streaming recognition across all
//! four strategies (NH/NCR/NCS/C2), EM-refined parameters included.
//!
//! Parked streams are held to the same bar across builds that write the
//! same layout. The golden `v6` parks resume and continue bit-identically
//! here: `tests/fixtures/parked_*_v6.stream-bin`, whose windows still hold
//! records no backpointer chain reaches, and `parked_*_v6_live.stream-bin`,
//! which hold only the live tree, as a fresh stream parks it exactly. Parks of the layouts this build no longer writes — the
//! `v3` JSON and binary kinds, `v4` and `v5` — are rejected by name, and
//! quarantine a home imported from them. Engine snapshots that record the removed
//! `f32` lane or a lossy beam are rejected, never decoded as exact.

use std::sync::Arc;

use proptest::prelude::*;

use cace::behavior::{ObservedTick, Session};
use cace::core::{
    stream_session, CaceConfig, CaceEngine, HomeRound, Lag, ParkedStream, ShardedRouter, Strategy,
};
use cace::hdbn::wire::ByteWriter;
use cace::model::ModelError;
use cace_testkit::{assert_recognitions_identical, engine_with, tiny_corpus};

fn corpus(ticks: usize, seed: u64) -> (Vec<Session>, Vec<Session>) {
    tiny_corpus(4, ticks, seed)
}

/// Unique-per-case snapshot path in the system temp dir.
fn snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "cace_persistence_roundtrip_{}_{tag}.cace",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random corpus shapes × all four strategies: save → load → recognize
    /// and save → load → stream are bit-identical to the trained engine.
    #[test]
    fn saved_and_loaded_engine_serves_identically(
        ticks in 45usize..70,
        seed in 0u64..1_000,
        em_flag in 0u8..2,
    ) {
        let run_em = em_flag == 1;
        let (train, test) = corpus(ticks, seed);
        for strategy in Strategy::ALL {
            let config = CaceConfig {
                run_em,
                ..CaceConfig::default().with_strategy(strategy)
            };
            let trained = engine_with(&train, &config);

            let path = snapshot_path(&format!("{strategy}_{ticks}_{seed}_{em_flag}"));
            trained.save(&path).expect("snapshot write");
            let reloaded = CaceEngine::load(&path).expect("snapshot read");
            std::fs::remove_file(&path).ok();

            // The decoder settings round-trip verbatim.
            prop_assert_eq!(
                reloaded.config().decoder,
                trained.config().decoder,
                "{}: decoder config",
                strategy
            );

            for (i, session) in test.iter().enumerate() {
                let label = format!("{strategy} session {i}");
                // Batch recognition.
                let original = trained.recognize(session).expect("batch on trained");
                let from_disk = reloaded.recognize(session).expect("batch on reloaded");
                assert_recognitions_identical(&from_disk, &original, &label);

                // Streaming: unbounded lag (bit-identical to batch) and a
                // short fixed lag (mid-stream decisions must agree too).
                for lag in [Lag::Unbounded, Lag::Fixed(5)] {
                    let (decisions_a, streamed_a) =
                        stream_session(&trained, session, lag).expect("stream on trained");
                    let (decisions_b, streamed_b) =
                        stream_session(&reloaded, session, lag).expect("stream on reloaded");
                    prop_assert_eq!(&decisions_a, &decisions_b, "{}: {:?} decisions", &label, lag);
                    assert_recognitions_identical(&streamed_b, &streamed_a, &format!("{label} {lag:?}"));
                }
            }
        }
    }
}

#[test]
fn snapshot_reload_survives_a_second_generation() {
    // load(save(load(save(e)))) — the persistence layer is idempotent, so a
    // model registry can re-publish a loaded engine without drift.
    let (train, test) = corpus(50, 41);
    let engine = engine_with(&train, &CaceConfig::default());
    let gen1 = CaceEngine::from_snapshot_str(&engine.to_snapshot_string()).unwrap();
    let gen2 = CaceEngine::from_snapshot_str(&gen1.to_snapshot_string()).unwrap();
    assert_eq!(
        engine.to_snapshot_string(),
        gen2.to_snapshot_string(),
        "snapshot text must be stable across generations"
    );
    let a = engine.recognize(&test[0]).unwrap();
    let b = gen2.recognize(&test[0]).unwrap();
    assert_recognitions_identical(&b, &a, "second generation");
}

#[test]
fn tampered_snapshots_are_rejected() {
    let (train, _) = corpus(50, 42);
    let engine = engine_with(&train, &CaceConfig::default());
    let good = engine.to_snapshot_string();

    // Payload tampering → checksum mismatch.
    let tampered = good.replacen("\"beam\":8", "\"beam\":9", 1);
    assert_ne!(tampered, good, "tamper target must exist");
    assert!(matches!(
        CaceEngine::from_snapshot_str(&tampered),
        Err(ModelError::Persistence { .. })
    ));

    // Truncation → checksum mismatch.
    assert!(matches!(
        CaceEngine::from_snapshot_str(&good[..good.len() - 10]),
        Err(ModelError::Persistence { .. })
    ));
}

/// The golden parked streams: `(strategy, fixture stem)`. Each fixture is
/// the stream of [`golden_engine`] over the first test session, parked
/// after [`GOLDEN_PARK_AT`] ticks under [`GOLDEN_LAG`]; the stem plus
/// [`LIVE`] names the `v6` park a fresh stream writes, the stem plus
/// [`V6`] one written when a window kept records no chain reaches.
const GOLDEN: [(Strategy, &str); 2] = [
    (Strategy::CorrelationConstraint, "parked_c2"),
    (Strategy::NaiveCorrelation, "parked_ncr"),
];
const V6: &str = "_v6";
const LIVE: &str = "_v6_live";
/// The NH golden stream, parked by the same recipe.
const NH_GOLDEN: (Strategy, &str) = (Strategy::NaiveHmm, "parked_nh");
const GOLDEN_PARK_AT: usize = 30;
const GOLDEN_LAG: usize = 5;

/// Retrains the engine the golden fixtures were parked under.
fn golden_engine(strategy: Strategy) -> (CaceEngine, Session) {
    let (train, test) = tiny_corpus(4, 60, 17);
    let engine = engine_with(&train, &CaceConfig::default().with_strategy(strategy));
    (engine, test[0].clone())
}

fn fixture(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// 64-bit FNV-1a, the snapshot envelope's checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Re-checksums an edited JSON snapshot, so a reader sees the edit and
/// not a checksum mismatch.
fn reseal_text(text: &str) -> String {
    let payload = text.split_once('\n').expect("header line").1;
    format!(
        "CACE-SNAPSHOT v3 fnv1a64={:016x}\n{payload}",
        fnv1a64(payload.as_bytes())
    )
}

/// [`reseal_text`] for the parked-stream reader, which takes bytes.
fn read_text(text: &str) -> Result<ParkedStream, ModelError> {
    ParkedStream::from_snapshot_bytes(reseal_text(text).as_bytes())
}

/// The payload of a binary snapshot.
fn bin_payload(bytes: &[u8]) -> &[u8] {
    let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
    &bytes[newline + 1..]
}

/// Wraps an edited binary payload in a valid `v6` envelope.
fn reseal_bin(payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "CACE-SNAPSHOT v6 kind=stream-bin fnv1a64={:016x} len={}\n",
        fnv1a64(payload),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Asserts `result` is a persistence error naming the removed f32 lane.
fn assert_f32_lane_rejected<T>(result: Result<T, ModelError>, what: &str) {
    match result {
        Err(ModelError::Persistence { what: msg }) => {
            assert!(
                msg.contains("f32"),
                "{what}: rejected for another reason: {msg}"
            )
        }
        Err(e) => panic!("{what}: wrong error kind {e:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn golden_parked_streams_resume_bit_identically() {
    for (strategy, stem) in GOLDEN {
        let parks = vec![v6_park(stem, V6), v6_park(stem, LIVE)];
        assert_continue_the_golden_stream(strategy, parks);
    }
}

/// The golden `v6` park of `stem` plus `suffix`, checked to re-encode to
/// its own bytes.
fn v6_park(stem: &str, suffix: &str) -> (String, ParkedStream) {
    let file = format!("{stem}{suffix}");
    let bytes = fixture(&format!("{file}.stream-bin"));
    let parked = ParkedStream::from_snapshot_bytes(&bytes).expect("golden v6 park reads");
    assert!(parked.to_snapshot_bytes() == bytes, "{file} re-encoded");
    (file, parked)
}

/// Resumes each labelled park of the golden stream of `strategy` and
/// asserts it continues as the stream that was never parked.
fn assert_continue_the_golden_stream(strategy: Strategy, parks: Vec<(String, ParkedStream)>) {
    let (engine, session) = golden_engine(strategy);
    let (straight_decisions, straight) =
        stream_session(&engine, &session, Lag::Fixed(GOLDEN_LAG)).expect("straight stream");
    // Decisions the stream had emitted when it was parked.
    let committed = GOLDEN_PARK_AT - GOLDEN_LAG;
    for (label, parked) in parks {
        assert_eq!(parked.ticks_pushed(), GOLDEN_PARK_AT, "{label}");
        let mut stream = engine.resume(&parked).expect("golden snapshot resumes");
        let mut decisions = straight_decisions[..committed].to_vec();
        for tick in &session.ticks[GOLDEN_PARK_AT..] {
            decisions.extend(stream.push(&tick.observed).expect("push"));
        }
        assert_eq!(
            decisions[committed..],
            straight_decisions[committed..],
            "{label}: decisions after resume"
        );
        let resumed = stream.finish().expect("finish");
        let resumed = resumed.into_recognition(&decisions);
        assert_recognitions_identical(&resumed, &straight, &label);
    }
}

/// The NH golden parks.
#[test]
fn golden_nh_parks_resume_bit_identically() {
    let (strategy, stem) = NH_GOLDEN;
    let parks = vec![v6_park(stem, V6), v6_park(stem, LIVE)];
    assert_continue_the_golden_stream(strategy, parks);
}

#[test]
fn snapshots_of_the_removed_f32_lane_are_rejected() {
    // An engine whose decoder records the f32 lane.
    let (engine, _) = golden_engine(Strategy::CorrelationConstraint);
    let text = engine.to_snapshot_string();
    assert!(CaceEngine::from_snapshot_str(&reseal_text(&text)).is_ok());
    let fast = text.replacen("\"precision\":\"Exact64\"", "\"precision\":\"Fast32\"", 1);
    assert_ne!(fast, text, "tamper target must exist");
    assert_f32_lane_rejected(
        CaceEngine::from_snapshot_str(&reseal_text(&fast)),
        "engine decoder Fast32",
    );
}

/// The binary park `fresh` with `wall_seconds` — the one field that
/// records wall-clock time, not decode state — spliced in from `golden`:
/// the 8 raw bytes before the trailing model-fingerprint varint.
fn with_golden_wall_clock(fresh: &[u8], golden: &[u8], model_fp: u64) -> Vec<u8> {
    let mut fp = ByteWriter::new();
    fp.write_u64(model_fp);
    let tail = fp.into_bytes().len() + 8;
    let mut payload = bin_payload(fresh).to_vec();
    let golden = bin_payload(golden);
    let (at, g_at) = (payload.len() - tail, golden.len() - tail);
    payload[at..at + 8].copy_from_slice(&golden[g_at..g_at + 8]);
    reseal_bin(&payload)
}

#[test]
fn fresh_parks_reproduce_the_golden_bytes() {
    for (strategy, stem) in GOLDEN.into_iter().chain([NH_GOLDEN]) {
        let (engine, session) = golden_engine(strategy);
        let mut stream = engine.stream(Lag::Fixed(GOLDEN_LAG));
        for tick in &session.ticks[..GOLDEN_PARK_AT] {
            stream.push(&tick.observed).expect("push");
        }
        let fresh = stream.park().to_snapshot_bytes();
        let fp = engine.hdbn_params().fingerprint();
        let golden = fixture(&format!("{stem}{LIVE}.stream-bin"));
        assert!(
            with_golden_wall_clock(&fresh, &golden, fp) == golden,
            "{stem}{LIVE}.stream-bin: a fresh park differs from the golden bytes"
        );
        // A park that holds dead records resumes to the live tree.
        let (_, dead) = v6_park(stem, V6);
        let resumed = engine.resume(&dead).expect("resumes");
        let repark = resumed.park().to_snapshot_bytes();
        assert!(
            with_golden_wall_clock(&repark, &golden, fp) == golden,
            "{stem}{V6}.stream-bin: resumed and re-parked, it differs from the golden bytes"
        );
    }
}

/// Asserts `result` is a persistence error naming the removed lossy
/// decoder beams.
fn assert_retired_beam_rejected<T>(result: Result<T, ModelError>, what: &str) {
    match result {
        Err(ModelError::Persistence { what: msg }) => assert!(
            msg.contains("TopK or LogThreshold"),
            "{what}: rejected for another reason: {msg}"
        ),
        Err(e) => panic!("{what}: wrong error kind {e:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn snapshots_of_the_removed_lossy_beams_are_rejected() {
    // Engine JSON: a decoder recording either beam.
    let (engine, _) = golden_engine(Strategy::CorrelationConstraint);
    let text = engine.to_snapshot_string();
    for beam in [r#"{"TopK":56}"#, r#"{"LogThreshold":2.5}"#] {
        let edited = text.replacen(r#""beam":"Exact""#, &format!(r#""beam":{beam}"#), 1);
        assert_ne!(edited, text, "tamper target must exist");
        assert_retired_beam_rejected(
            CaceEngine::from_snapshot_str(&reseal_text(&edited)),
            &format!("engine decoder {beam}"),
        );
    }
}

/// Parks of the layouts this build no longer writes, with what the
/// rejection of each names: the `v3` JSON and binary kinds, `v4`, and
/// `v5` — the former golden parks, and the coupled and NH `v5` parks that
/// carried a dense frontier after resuming a `v3`/`v4` park.
const RETIRED_PARKS: [(&str, &str); 8] = [
    ("parked_c2.snapshot", "version 3"),
    ("parked_c2.stream-bin", "version 3"),
    ("parked_c2_v4.stream-bin", "version 4"),
    ("parked_c2_v5.stream-bin", "version 5"),
    ("parked_ncr_v5.stream-bin", "version 5"),
    ("parked_nh_v5.stream-bin", "version 5"),
    ("parked_c2_v5_from_v4.stream-bin", "version 5"),
    ("parked_nh_v5_from_v4.stream-bin", "version 5"),
];

#[test]
fn retired_park_layouts_are_rejected_by_name() {
    for (file, names) in RETIRED_PARKS {
        let bytes = fixture(file);
        let read = std::panic::catch_unwind(|| ParkedStream::from_snapshot_bytes(&bytes))
            .unwrap_or_else(|_| panic!("{file}: the reader panicked"));
        match read {
            Err(ModelError::Persistence { what }) => {
                assert!(
                    what.contains(names),
                    "{file}: rejected for another reason: {what}"
                )
            }
            Err(e) => panic!("{file}: wrong error kind {e:?}"),
            Ok(_) => panic!("{file}: accepted"),
        }
    }
}

/// A home imported from a retired park fails its first push with a
/// persistence error and is quarantined after it, while shard-mates
/// imported from the golden `v6` park continue the golden stream
/// bit-identically and re-park as `v6`. A cap of one live home per shard,
/// over more homes than shards, makes every round park and rehydrate.
#[test]
fn retired_parks_quarantine_through_the_router_beside_v5_homes() {
    const HOMES: u64 = 5;
    const RETIRED: u64 = 100;
    let (strategy, stem) = GOLDEN[0];
    let (engine, session) = golden_engine(strategy);
    let engine = Arc::new(engine);
    let (straight_decisions, straight) =
        stream_session(&engine, &session, Lag::Fixed(GOLDEN_LAG)).expect("straight stream");
    // The homes' emitted decisions, asserted equal to these below.
    let emitted = &straight_decisions[..session.len() - GOLDEN_LAG];
    let retired: Vec<(u64, &str)> = RETIRED_PARKS
        .iter()
        .filter(|(file, _)| file.starts_with(stem))
        .zip(RETIRED..)
        .map(|(&(file, _), id)| (id, file))
        .collect();
    let mut router = ShardedRouter::with_shards(2).with_live_cap(1);
    router.register_model("cace", Arc::clone(&engine)).unwrap();
    let v6 = fixture(&format!("{stem}{V6}.stream-bin"));
    for id in 0..HOMES {
        router.import_home(id, "cace", v6.clone()).unwrap();
    }
    for &(id, file) in &retired {
        router.import_home(id, "cace", fixture(file)).unwrap();
        let shard = router.shard_of(id);
        assert!(
            (0..HOMES).any(|mate| router.shard_of(mate) == shard),
            "{file}: no v6 shard-mate"
        );
    }
    for (t, tick) in session.ticks.iter().enumerate().skip(GOLDEN_PARK_AT) {
        let mut round: Vec<(u64, &ObservedTick)> =
            (0..HOMES).map(|id| (id, &tick.observed)).collect();
        round.extend(retired.iter().map(|&(id, _)| (id, &tick.observed)));
        let results = router.push_round(&round).unwrap();
        for (id, r) in (0..HOMES).zip(&results) {
            assert!(matches!(r, HomeRound::Advanced(_)), "home {id}");
            assert_eq!(
                r.decision(),
                Some(straight_decisions[t - GOLDEN_LAG]),
                "home {id} tick {t}"
            );
        }
        for (&(_, file), r) in retired.iter().zip(&results[HOMES as usize..]) {
            match (t == GOLDEN_PARK_AT, r) {
                (true, HomeRound::Failed(ModelError::Persistence { .. }))
                | (false, HomeRound::Quarantined) => {}
                _ => panic!("{file} tick {t}: {r:?}"),
            }
        }
    }
    let stats = router.stats();
    assert!(stats.parks() > 0 && stats.rehydrations() > 0);
    assert_eq!(stats.quarantined_homes(), retired.len());
    for id in 0..HOMES {
        let exported = router.export_home(id).unwrap();
        assert!(exported.starts_with(b"CACE-SNAPSHOT v6 "), "home {id}");
        let parked = ParkedStream::from_snapshot_bytes(&exported).unwrap();
        assert_eq!(parked.ticks_pushed(), session.len(), "home {id}");
    }
    for (id, tail) in router.finish() {
        match retired.iter().find(|&&(r, _)| r == id) {
            Some(&(_, file)) => assert!(
                matches!(tail, Err(ModelError::Persistence { .. })),
                "{file}: {tail:?}"
            ),
            None => {
                let resumed = tail.expect("v6 home finishes").into_recognition(emitted);
                assert_recognitions_identical(&resumed, &straight, &format!("home {id}"));
            }
        }
    }
}

#[test]
fn v3_stream_snapshots_are_not_engines() {
    let json = String::from_utf8(fixture("parked_c2.snapshot")).unwrap();
    let err = CaceEngine::from_snapshot_str(&json).unwrap_err();
    assert!(err.to_string().contains("kind `stream`"), "{err}");
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    // 200 000 nested arrays, checksummed: far past the JSON reader's
    // 128-level nesting limit, which outside bytes must not get round.
    let text = reseal_text(&format!("header\n{}", "[".repeat(200_000)));
    let persistence = |result: Result<(), ModelError>| {
        assert!(
            matches!(result, Err(ModelError::Persistence { .. })),
            "{result:?}"
        )
    };
    persistence(read_text(&text).map(drop));
    persistence(CaceEngine::from_snapshot_str(&text).map(drop));
    persistence(cace::core::ModelRecord::from_snapshot_str(&text).map(drop));
    // The router takes imported bytes unread; the first push decodes
    // them and quarantines the home.
    let (engine, session) = golden_engine(Strategy::CorrelationConstraint);
    let mut router = ShardedRouter::new();
    router.register_model("cace", Arc::new(engine)).unwrap();
    router.import_home(0, "cace", text.into_bytes()).unwrap();
    let round = router.push_round(&[(0, &session.ticks[0].observed)]);
    match round.unwrap().as_slice() {
        [HomeRound::Failed(ModelError::Persistence { .. })] => {}
        other => panic!("{other:?}"),
    }
}
