//! Model persistence must be lossless in the only sense that matters for
//! serving: a trained engine saved to disk and reloaded in a fresh
//! "process" (a fresh `CaceEngine` value that never saw the training data)
//! produces **bit-identical** batch and streaming recognition across all
//! four strategies (NH/NCR/NCS/C2), EM-refined parameters included.
//!
//! Parked streams are held to the same bar across builds. The golden
//! `v3` snapshots `tests/fixtures/parked_{c2,ncr}.*`, in the JSON and the
//! binary kind, were written by the build that still had a
//! reduced-precision `f32` decoding lane, lossy decoder beams and a
//! parked decision history; their `*_history_free` twins by a build whose
//! streams kept no history; their `*_v4` twins by a build that parked
//! every window entry whole. All of them resume and continue
//! bit-identically here, and re-encode to one `*_v5_from_v4` park: the
//! `v5` layout this build writes, with each older window entry compacted
//! to the states its successor names. A fresh stream parks to its `*_v5`
//! twin exactly. Snapshots that record the `f32` lane or a lossy beam are
//! rejected, never decoded as exact.

use std::sync::Arc;

use proptest::prelude::*;

use cace::behavior::{ObservedTick, Session};
use cace::core::{
    stream_session, CaceConfig, CaceEngine, HomeRound, Lag, ParkedStream, ShardedRouter, Strategy,
};
use cace::hdbn::park::legacy::{read_coupled, read_decoder_tags};
use cace::hdbn::wire::{self, ByteReader, ByteWriter};
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
/// after [`GOLDEN_PARK_AT`] ticks under [`GOLDEN_LAG`]. The stem names the
/// `v3` layout with a decision history, the stem plus [`TWIN`] its
/// history-free twin, each saved as the JSON snapshot (`.snapshot`) and
/// as the binary kind (`.stream-bin`). The stem plus [`V4`] names the
/// `v4` binary twin, plus [`V5`] the `v5` one a fresh stream parks to,
/// and plus [`V5_FROM_V4`] what every older twin re-encodes to.
const GOLDEN: [(Strategy, &str); 2] = [
    (Strategy::CorrelationConstraint, "parked_c2"),
    (Strategy::NaiveCorrelation, "parked_ncr"),
];
const TWIN: &str = "_history_free";
const V4: &str = "_v4";
const V5: &str = "_v5";
const V5_FROM_V4: &str = "_v5_from_v4";
/// The NH golden stream, parked by the same recipe; its oldest park is
/// the `v4` twin.
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
    ParkedStream::from_snapshot_any(reseal_text(text).as_bytes())
}

/// The payload of a binary snapshot.
fn bin_payload(bytes: &[u8]) -> &[u8] {
    let newline = bytes.iter().position(|&b| b == b'\n').expect("header line");
    &bytes[newline + 1..]
}

/// Wraps an edited binary payload in a valid envelope of the `v3`, `v4`
/// or `v5` layout (`version`).
fn reseal_bin(payload: &[u8], version: u32) -> Vec<u8> {
    let mut out = format!(
        "CACE-SNAPSHOT v{version} kind=stream-bin fnv1a64={:016x} len={}\n",
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
        let from_v4 = fixture(&format!("{stem}{V5_FROM_V4}.stream-bin"));
        let mut parks = Vec::new();
        for file in [stem.to_string(), format!("{stem}{TWIN}")] {
            let json = fixture(&format!("{file}.snapshot"));
            let bin = fixture(&format!("{file}.stream-bin"));
            let from_json =
                ParkedStream::from_snapshot_any(&json).expect("golden JSON snapshot reads");
            let from_bin =
                ParkedStream::from_snapshot_bytes(&bin).expect("golden binary snapshot reads");
            parks.push((format!("{file} JSON"), from_json));
            parks.push((format!("{file} binary"), from_bin));
        }
        let v4 = fixture(&format!("{stem}{V4}.stream-bin"));
        let from_v4_twin = ParkedStream::from_snapshot_bytes(&v4).expect("golden v4 park reads");
        parks.push((format!("{stem}{V4}"), from_v4_twin));
        // Every older layout re-encodes to the same v5 bytes: the same
        // state, compacted, the retired slots dropped.
        for (label, parked) in &parks {
            assert!(
                parked.to_snapshot_bytes() == from_v4,
                "{label} re-encoded differs from {stem}{V5_FROM_V4}"
            );
        }
        parks.extend(v5_parks(stem));
        assert_continue_the_golden_stream(strategy, parks);
    }
}

/// The golden `v5` parks of `stem`, each checked to re-encode to its own
/// bytes.
fn v5_parks(stem: &str) -> Vec<(String, ParkedStream)> {
    [format!("{stem}{V5_FROM_V4}"), format!("{stem}{V5}")]
        .into_iter()
        .map(|file| {
            let bytes = fixture(&format!("{file}.stream-bin"));
            let parked = ParkedStream::from_snapshot_bytes(&bytes).expect("golden v5 park reads");
            assert!(parked.to_snapshot_bytes() == bytes, "{file} re-encoded");
            (file, parked)
        })
        .collect()
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

/// The NH golden parks: a `v4` park, which parked every state list whole
/// (39 596 B), and its `v5` twins.
#[test]
fn golden_nh_parks_resume_bit_identically() {
    let (strategy, stem) = NH_GOLDEN;
    let v4 = fixture(&format!("{stem}{V4}.stream-bin"));
    let from_v4 = ParkedStream::from_snapshot_bytes(&v4).expect("golden v4 park reads");
    assert!(
        from_v4.to_snapshot_bytes() == fixture(&format!("{stem}{V5_FROM_V4}.stream-bin")),
        "{stem}{V4} re-encoded"
    );
    let mut parks = vec![(format!("{stem}{V4}"), from_v4)];
    parks.extend(v5_parks(stem));
    assert_continue_the_golden_stream(strategy, parks);
}

#[test]
fn snapshots_of_the_removed_f32_lane_are_rejected() {
    let json = String::from_utf8(fixture("parked_c2.snapshot")).unwrap();
    let bin = fixture("parked_c2.stream-bin");
    // The resealed, unedited fixtures still read: each rejection below is
    // down to its edit.
    assert!(read_text(&json).is_ok());
    assert!(ParkedStream::from_snapshot_bytes(&reseal_bin(bin_payload(&bin), 3)).is_ok());

    // A stream whose decoder records the f32 lane, in either encoding.
    // Binary payload: strategy tag, beam tag (`Exact`), precision tag.
    let mut payload = bin_payload(&bin).to_vec();
    assert_eq!(payload[1..3], [0, 0], "exact beam, exact precision");
    payload[2] = 1;
    assert_f32_lane_rejected(
        ParkedStream::from_snapshot_bytes(&reseal_bin(&payload, 3)),
        "binary precision tag 1",
    );
    let fast = json.replacen("\"precision\":\"Exact64\"", "\"precision\":\"Fast32\"", 1);
    assert_ne!(fast, json, "tamper target must exist");
    assert_f32_lane_rejected(read_text(&fast), "JSON stream decoder Fast32");

    // A non-empty f32 frontier, in either encoding. Binary: the coupled
    // decoder state follows the lag and its tag; its f64 frontier is a
    // varint length and that many 8-byte floats, then the f32 frontier's
    // length, which is 0.
    let payload = bin_payload(&bin);
    assert_eq!(
        payload[3..6],
        [1, GOLDEN_LAG as u8, 2],
        "fixed lag, coupled state"
    );
    let (mut len, mut at) = (0usize, 6usize);
    for shift in (0..).step_by(7) {
        let byte = payload[at];
        at += 1;
        len |= usize::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    let v32_at = at + 8 * len;
    assert_eq!(payload[v32_at], 0, "empty f32 frontier");
    let mut spliced = payload[..v32_at].to_vec();
    spliced.push(1);
    spliced.extend_from_slice(&(-1.5f32).to_bits().to_le_bytes());
    spliced.extend_from_slice(&payload[v32_at + 1..]);
    assert_f32_lane_rejected(
        ParkedStream::from_snapshot_bytes(&reseal_bin(&spliced, 3)),
        "binary non-empty f32 frontier",
    );
    let filled = json.replacen("\"v32\":[]", "\"v32\":[-1.5]", 1);
    assert_ne!(filled, json, "tamper target must exist");
    assert_f32_lane_rejected(read_text(&filled), "JSON non-empty f32 frontier");

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
    reseal_bin(&payload, 5)
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
        let golden = fixture(&format!("{stem}{V5}.stream-bin"));
        assert!(
            with_golden_wall_clock(&fresh, &golden, fp) == golden,
            "{stem}{V5}.stream-bin: a fresh park differs from the golden bytes"
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

    // Parked JSON: the decoder, a pruned frontier, a survivor list.
    let json = String::from_utf8(fixture("parked_c2.snapshot")).unwrap();
    for (from, to) in [
        (r#""beam":"Exact""#, r#""beam":{"TopK":56}"#),
        (r#""beam":"Exact""#, r#""beam":{"LogThreshold":2.5}"#),
        (r#""pruned":false"#, r#""pruned":true"#),
        (r#""keep":[]"#, r#""keep":[3]"#),
    ] {
        let edited = json.replacen(from, to, 1);
        assert_ne!(edited, json, "tamper target must exist");
        assert_retired_beam_rejected(read_text(&edited), &format!("parked JSON {to}"));
    }

    // stream-bin: strategy tag, beam tag, precision tag, lag, state tag.
    let bin = fixture("parked_c2.stream-bin");
    let payload = bin_payload(&bin);
    assert_eq!(payload[1..3], [0, 0], "exact beam, exact precision");
    let splice = |at: usize, cut: usize, with: &[u8]| {
        let mut edited = payload[..at].to_vec();
        edited.extend_from_slice(with);
        edited.extend_from_slice(&payload[at + cut..]);
        reseal_bin(&edited, 3)
    };
    let log_threshold = [&[2u8][..], &2.5f64.to_le_bytes()].concat();
    for (name, tag) in [("TopK", &[1u8, 56][..]), ("LogThreshold", &log_threshold)] {
        assert_retired_beam_rejected(
            ParkedStream::from_snapshot_bytes(&splice(1, 1, tag)),
            &format!("stream-bin beam {name}"),
        );
    }
    // The coupled state ends with the `pruned` byte and the `keep` length.
    let mut r = ByteReader::new(payload);
    r.read_u8().unwrap();
    read_decoder_tags(&mut r).unwrap();
    let lag = wire::read_lag(&mut r).unwrap();
    assert_eq!(r.read_u8().unwrap(), 2, "coupled state");
    read_coupled(&mut r, lag).unwrap();
    let end = payload.len() - r.remaining();
    assert_eq!(payload[end - 2..end], [0, 0], "not pruned, no survivors");
    assert_retired_beam_rejected(
        ParkedStream::from_snapshot_bytes(&splice(end - 2, 1, &[1])),
        "stream-bin pruned=true",
    );
    assert_retired_beam_rejected(
        ParkedStream::from_snapshot_bytes(&splice(end - 1, 1, &[1, 3])),
        "stream-bin keep=[3]",
    );
}

/// A home handed over as a v3 park — either fixture kind — or a v4 one
/// continues bit-identically through the router, whose own parking then
/// writes v5. A cap of one live home per shard, over more homes than
/// shards, makes every round park and rehydrate.
#[test]
fn legacy_parks_import_through_the_router_and_re_park_as_v5() {
    const HOMES: u64 = 5;
    for (strategy, stem) in GOLDEN {
        let (engine, session) = golden_engine(strategy);
        let engine = Arc::new(engine);
        let (straight_decisions, straight) =
            stream_session(&engine, &session, Lag::Fixed(GOLDEN_LAG)).expect("straight stream");
        // The homes' emitted decisions, asserted equal to these below.
        let emitted = &straight_decisions[..session.len() - GOLDEN_LAG];
        let v3 = [stem.to_string(), format!("{stem}{TWIN}")]
            .into_iter()
            .flat_map(|file| [format!("{file}.snapshot"), format!("{file}.stream-bin")]);
        for label in v3.chain([format!("{stem}{V4}.stream-bin")]) {
            let bytes = fixture(&label);
            let mut router = ShardedRouter::with_shards(2).with_live_cap(1);
            router.register_model("cace", Arc::clone(&engine)).unwrap();
            for id in 0..HOMES {
                router.import_home(id, "cace", bytes.clone()).unwrap();
            }
            for (t, tick) in session.ticks.iter().enumerate().skip(GOLDEN_PARK_AT) {
                let round: Vec<(u64, &ObservedTick)> =
                    (0..HOMES).map(|id| (id, &tick.observed)).collect();
                for (id, r) in router.push_round(&round).unwrap().into_iter().enumerate() {
                    assert!(matches!(r, HomeRound::Advanced(_)), "{label} home {id}");
                    assert_eq!(
                        r.decision(),
                        Some(straight_decisions[t - GOLDEN_LAG]),
                        "{label} home {id} tick {t}"
                    );
                }
            }
            let stats = router.stats();
            assert!(stats.parks() > 0 && stats.rehydrations() > 0, "{label}");
            for id in 0..HOMES {
                let exported = router.export_home(id).unwrap();
                assert!(
                    exported.starts_with(b"CACE-SNAPSHOT v5 "),
                    "{label} home {id}"
                );
                let parked = ParkedStream::from_snapshot_bytes(&exported).unwrap();
                assert_eq!(parked.ticks_pushed(), session.len(), "{label} home {id}");
            }
            for (id, tail) in router.finish() {
                let tail = tail.expect("imported home finishes");
                let resumed = tail.into_recognition(emitted);
                assert_recognitions_identical(&resumed, &straight, &format!("{label} home {id}"));
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
