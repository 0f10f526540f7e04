//! Serving-tier contract for the sharded router: the fleet front end must
//! be a *transparent* multiplexer. However homes are sharded, however the
//! LRU live cap parks and rehydrates them, every home's decision schedule
//! and final recognition are bit-identical to a dedicated
//! `StreamingRecognizer` fed the same ticks — and a home whose parked
//! bytes rot is quarantined without panicking or disturbing shard-mates.
//!
//! CI runs this file under both `RAYON_NUM_THREADS=1` and `=4`: every
//! assertion here compares against a sequential per-home reference, so the
//! suite doubles as the thread-count-invariance gate (the shard grid is a
//! pure function of home id, never of core count).

use std::sync::Arc;

use proptest::prelude::*;

use cace::behavior::{ObservedTick, Session};
use cace::core::{
    stream_session, CaceConfig, CaceEngine, HomeRound, HomeStatus, Lag, ShardedRouter, Strategy,
    StreamDecision,
};
use cace::model::ModelError;
use cace_testkit::{assert_recognitions_identical, engine, engine_with, tiny_corpus};

const MODEL: &str = "cace";

fn fleet(ticks: usize, seed: u64) -> (Arc<CaceEngine>, Vec<Session>) {
    let (train, test) = tiny_corpus(6, ticks, seed);
    (
        Arc::new(engine(&train, Strategy::CorrelationConstraint)),
        test,
    )
}

/// A router pre-registered with `engine` and `homes.len()` live homes,
/// home `i` getting id `homes[i]`.
fn router_with_homes(
    engine: &Arc<CaceEngine>,
    homes: &[u64],
    lag: Lag,
    shards: usize,
    live_cap: Option<usize>,
) -> ShardedRouter {
    let mut router = ShardedRouter::with_shards(shards);
    if let Some(cap) = live_cap {
        router = router.with_live_cap(cap);
    }
    router.register_model(MODEL, Arc::clone(engine)).unwrap();
    for &id in homes {
        router.add_home(id, MODEL, lag).unwrap();
    }
    router
}

/// Feeds each home its session tick-by-tick in interleaved rounds and
/// collects the per-home decision schedules. Panics on any `Failed` /
/// `Quarantined` outcome — the healthy-path tests want faults loud.
fn drive(router: &mut ShardedRouter, homes: &[(u64, &Session)]) -> Vec<(u64, Vec<StreamDecision>)> {
    let mut decisions: Vec<(u64, Vec<StreamDecision>)> =
        homes.iter().map(|(id, _)| (*id, Vec::new())).collect();
    let max_ticks = homes.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for t in 0..max_ticks {
        let round: Vec<(u64, &ObservedTick)> = homes
            .iter()
            .filter(|(_, s)| t < s.len())
            .map(|(id, s)| (*id, &s.ticks[t].observed))
            .collect();
        let outcomes = router.push_round(&round).expect("all ids are routed");
        for ((id, _), outcome) in round.iter().zip(outcomes) {
            match outcome {
                HomeRound::Advanced(Some(d)) => decisions
                    .iter_mut()
                    .find(|(h, _)| h == id)
                    .expect("home is tracked")
                    .1
                    .push(d),
                HomeRound::Advanced(None) => {}
                other => panic!("home {id}: unexpected round outcome {other:?}"),
            }
        }
    }
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole scale contract, shrunk to proptest size: a router with
    /// an LRU cap far below the home count (so every round parks and
    /// rehydrates someone) produces, for every home, decisions and final
    /// recognition bit-identical to an uncapped router *and* to a
    /// dedicated per-home stream.
    #[test]
    fn capped_router_is_bit_identical_to_dedicated_streams(
        ticks in 40usize..60,
        seed in 0u64..1_000,
        shards in 1usize..5,
    ) {
        let (engine, test) = fleet(ticks, seed);
        let lag = Lag::Fixed(6);
        // More homes than test sessions: reuse sessions across ids so the
        // LRU has genuinely interchangeable victims.
        let homes: Vec<(u64, &Session)> = (0..8u64)
            .map(|i| (i * 97 + 13, &test[i as usize % test.len()]))
            .collect();
        let ids: Vec<u64> = homes.iter().map(|(id, _)| *id).collect();

        let mut capped = router_with_homes(&engine, &ids, lag, shards, Some(2));
        let mut uncapped = router_with_homes(&engine, &ids, lag, shards, None);
        let capped_decisions = drive(&mut capped, &homes);
        let uncapped_decisions = drive(&mut uncapped, &homes);
        prop_assert_eq!(&capped_decisions, &uncapped_decisions);

        let stats = capped.stats();
        if homes.len() > 2 * shards {
            prop_assert!(stats.parks() > 0, "cap below home count must park");
            prop_assert!(stats.rehydrations() > 0, "parked homes must rehydrate");
        }
        prop_assert_eq!(stats.quarantined_homes(), 0);

        let capped_final = capped.finish();
        let uncapped_final = uncapped.finish();
        for (((id, session), (cid, capped_rec)), (uid, uncapped_rec)) in
            { let mut h = homes.clone(); h.sort_by_key(|(id, _)| *id); h }
                .into_iter()
                .zip(capped_final)
                .zip(uncapped_final)
        {
            prop_assert_eq!(id, cid);
            prop_assert_eq!(id, uid);
            let (want_decisions, want) =
                stream_session(&engine, session, lag).expect("dedicated stream");
            let got = &capped_decisions
                .iter()
                .find(|(h, _)| *h == id)
                .expect("home is tracked")
                .1;
            prop_assert_eq!(got, &want_decisions, "home {}: routed decisions", id);
            let capped_rec = capped_rec.expect("healthy home finishes").into_recognition(got);
            let uncapped_rec = uncapped_rec.expect("healthy home finishes").into_recognition(got);
            assert_recognitions_identical(&capped_rec, &want, &format!("home {id} capped"));
            assert_recognitions_identical(&uncapped_rec, &want, &format!("home {id} uncapped"));
        }
    }

    /// Same fleet, same rounds, two router instances: eviction order is a
    /// deterministic function of push order alone, so the two runs agree
    /// on every home's live/parked status and on the park/rehydration
    /// counters after every round.
    #[test]
    fn lru_eviction_is_deterministic(
        ticks in 30usize..45,
        seed in 0u64..1_000,
    ) {
        let (engine, test) = fleet(ticks, seed);
        let lag = Lag::Fixed(6);
        let homes: Vec<(u64, &Session)> = (0..6u64)
            .map(|i| (i * 31 + 5, &test[i as usize % test.len()]))
            .collect();
        let ids: Vec<u64> = homes.iter().map(|(id, _)| *id).collect();
        let mut a = router_with_homes(&engine, &ids, lag, 2, Some(1));
        let mut b = router_with_homes(&engine, &ids, lag, 2, Some(1));
        let max_ticks = homes.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        for t in 0..max_ticks {
            let round: Vec<(u64, &ObservedTick)> = homes
                .iter()
                .filter(|(_, s)| t < s.len())
                .map(|(id, s)| (*id, &s.ticks[t].observed))
                .collect();
            a.push_round(&round).expect("routed");
            b.push_round(&round).expect("routed");
            for &id in &ids {
                prop_assert_eq!(
                    a.home_status(id),
                    b.home_status(id),
                    "home {} status diverged after round {}",
                    id,
                    t
                );
            }
            // Compare the deterministic counters field by field —
            // `push_nanos` is wall time and legitimately differs.
            for (sa, sb) in a.stats().shards.iter().zip(b.stats().shards.iter()) {
                prop_assert_eq!(sa.live_homes, sb.live_homes);
                prop_assert_eq!(sa.parked_homes, sb.parked_homes);
                prop_assert_eq!(sa.quarantined_homes, sb.quarantined_homes);
                prop_assert_eq!(sa.parks, sb.parks);
                prop_assert_eq!(sa.rehydrations, sb.rehydrations);
                prop_assert_eq!(sa.pushes, sb.pushes);
            }
        }
        prop_assert_eq!(a.stats().quarantined_homes(), 0);
    }

    /// A router whose rounds hand several homes the same tick reference
    /// produces decision schedules and final recognitions bit-identical
    /// to dedicated per-home streams, for all four strategies.
    #[test]
    fn shared_tick_rounds_are_bit_identical_to_dedicated_streams(
        ticks in 36usize..48,
        seed in 0u64..1_000,
    ) {
        let (train, test) = tiny_corpus(6, ticks, seed);
        let lag = Lag::Fixed(6);
        for strategy in Strategy::ALL {
            let config = CaceConfig::default().with_strategy(strategy);
            let engine = Arc::new(engine_with(&train, &config));
            let homes: Vec<(u64, &Session)> = (0..8u64)
                .map(|i| (i * 17 + 3, &test[i as usize % test.len()]))
                .collect();
            let ids: Vec<u64> = homes.iter().map(|(id, _)| *id).collect();
            let mut router = router_with_homes(&engine, &ids, lag, 2, None);
            let decisions = drive(&mut router, &homes);

            for (id, result) in router.finish() {
                let session = homes.iter().find(|(h, _)| *h == id).expect("tracked").1;
                let (want_decisions, want) =
                    stream_session(&engine, session, lag).expect("dedicated stream");
                let got = &decisions
                    .iter()
                    .find(|(h, _)| *h == id)
                    .expect("home is tracked")
                    .1;
                prop_assert_eq!(got, &want_decisions, "{}: home {} decisions", strategy, id);
                assert_recognitions_identical(
                    &result.expect("healthy home finishes").into_recognition(got),
                    &want,
                    &format!("{strategy} home {id} routed vs dedicated"),
                );
            }
        }
    }
}

#[test]
fn tampered_parked_bytes_quarantine_the_home_without_panicking() {
    let (engine, test) = fleet(50, 11);
    let lag = Lag::Fixed(6);
    let session = &test[0];
    let mut router = router_with_homes(&engine, &[1, 2], lag, 1, None);

    // Warm both homes, then park home 1 and corrupt its bytes in place
    // via the export/import handover path.
    for t in 0..10 {
        router
            .push_round(&[
                (1, &session.ticks[t].observed),
                (2, &session.ticks[t].observed),
            ])
            .unwrap();
    }
    let bytes = router.export_home(1).unwrap();
    assert_eq!(router.home_status(1), Some(HomeStatus::Parked));
    let mut rotten = ShardedRouter::with_shards(1);
    rotten.register_model(MODEL, Arc::clone(&engine)).unwrap();
    // Three corruption shapes: a flipped payload byte (checksum mismatch),
    // truncation (length mismatch), and structural junk with a valid
    // shape but the wrong kind. None may panic; all must quarantine.
    let flipped = {
        let mut b = bytes.clone();
        let last = b.len() - 2;
        b[last] = b[last].wrapping_add(1);
        b
    };
    rotten.import_home(10, MODEL, flipped).unwrap();
    rotten
        .import_home(11, MODEL, bytes[..bytes.len() / 2].to_vec())
        .unwrap();
    rotten
        .import_home(12, MODEL, engine.to_snapshot_string().into_bytes())
        .unwrap();
    // A healthy shard-mate sharing the single shard with all three.
    rotten.import_home(13, MODEL, bytes).unwrap();

    let tick = &session.ticks[10].observed;
    let outcomes = rotten
        .push_round(&[(10, tick), (11, tick), (12, tick), (13, tick)])
        .unwrap();
    for (id, outcome) in [10u64, 11, 12].iter().zip(&outcomes) {
        assert!(
            matches!(outcome, HomeRound::Failed(ModelError::Persistence { .. })),
            "home {id}: expected a persistence failure, got {outcome:?}"
        );
        assert_eq!(rotten.home_status(*id), Some(HomeStatus::Quarantined));
    }
    assert!(
        matches!(outcomes[3], HomeRound::Advanced(_)),
        "healthy shard-mate must keep advancing"
    );

    // Later rounds skip the quarantined homes; the shard-mate still works.
    let outcomes = rotten
        .push_round(&[(10, tick), (13, &session.ticks[11].observed)])
        .unwrap();
    assert!(matches!(outcomes[0], HomeRound::Quarantined));
    assert!(matches!(outcomes[1], HomeRound::Advanced(_)));

    let quarantined = rotten.quarantined();
    assert_eq!(
        quarantined.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        vec![10, 11, 12]
    );
    let finals = rotten.finish();
    for (id, result) in finals {
        if id == 13 {
            result.expect("healthy home finishes");
        } else {
            assert!(
                matches!(result, Err(ModelError::Persistence { .. })),
                "home {id}"
            );
        }
    }
}

#[test]
fn duplicate_home_ids_are_rejected_by_both_router_tiers() {
    // Both ways into the router — a fresh live stream and an imported
    // parked snapshot — reject an id that is already routed.
    let (engine, _) = fleet(30, 4);

    let mut sharded = ShardedRouter::new();
    sharded.register_model(MODEL, Arc::clone(&engine)).unwrap();
    sharded.add_home(7, MODEL, Lag::Fixed(5)).unwrap();
    assert!(matches!(
        sharded.add_home(7, MODEL, Lag::Fixed(5)),
        Err(ModelError::InvalidConfig(_))
    ));
    assert!(matches!(
        sharded.import_home(7, MODEL, Vec::new()),
        Err(ModelError::InvalidConfig(_))
    ));
    assert_eq!(sharded.len(), 1);
}

#[test]
fn mid_round_swap_leaves_decisions_unchanged() {
    // A model publish lands mid-drive and half the fleet is advanced one
    // extra tick so its homes hot-swap first. The next full round then
    // mixes already-swapped homes with lagging ones that swap inside the
    // round, and every home's decision schedule still matches a dedicated
    // stream bit for bit (the published twin is independently trained on
    // the same corpus, so its parameters are identical and no decision
    // may move).
    let (train, test) = tiny_corpus(6, 50, 13);
    let base = Arc::new(engine(&train, Strategy::CorrelationConstraint));
    let twin = Arc::new(engine(&train, Strategy::CorrelationConstraint));
    let session = &test[0];
    let lag = Lag::Fixed(6);
    let ids: Vec<u64> = (0..8u64).map(|i| i * 13 + 1).collect();
    let mut router = router_with_homes(&base, &ids, lag, 2, None);

    let mut cursors = vec![0usize; ids.len()];
    let mut decisions: Vec<Vec<StreamDecision>> = vec![Vec::new(); ids.len()];
    let advance = |router: &mut ShardedRouter,
                   members: &[usize],
                   cursors: &mut Vec<usize>,
                   decisions: &mut Vec<Vec<StreamDecision>>| {
        let round: Vec<(u64, &ObservedTick)> = members
            .iter()
            .map(|&i| (ids[i], &session.ticks[cursors[i]].observed))
            .collect();
        let outcomes = router.push_round(&round).expect("routed");
        for (&i, outcome) in members.iter().zip(outcomes) {
            match outcome {
                HomeRound::Advanced(Some(d)) => decisions[i].push(d),
                HomeRound::Advanced(None) => {}
                other => panic!("home {}: {other:?}", ids[i]),
            }
            cursors[i] += 1;
        }
    };

    let all: Vec<usize> = (0..ids.len()).collect();
    let front: Vec<usize> = (0..ids.len() / 2).collect();
    for _ in 0..20 {
        advance(&mut router, &all, &mut cursors, &mut decisions);
    }
    assert_eq!(router.publish_model(MODEL, Arc::clone(&twin)).unwrap(), 1);
    // The front half swaps onto generation 1 (one swap each).
    advance(&mut router, &front, &mut cursors, &mut decisions);
    let mid = router.stats();
    assert_eq!(mid.swaps(), front.len() as u64);

    // The mixed round: front homes are current-generation, back homes
    // lag and swap — in the same push_round.
    advance(&mut router, &all, &mut cursors, &mut decisions);
    assert_eq!(
        router.stats().swaps(),
        ids.len() as u64,
        "mixed round must swap the lagging half"
    );

    // Drain every home to the end of the session.
    while cursors.iter().any(|&c| c < session.len()) {
        let due: Vec<usize> = (0..ids.len())
            .filter(|&i| cursors[i] < session.len())
            .collect();
        advance(&mut router, &due, &mut cursors, &mut decisions);
    }
    assert_eq!(router.stats().quarantined_homes(), 0);

    let (want_decisions, want) = stream_session(&base, session, lag).expect("dedicated stream");
    for (id, result) in router.finish() {
        let i = ids.iter().position(|&h| h == id).expect("tracked");
        assert_eq!(decisions[i], want_decisions, "home {id}: decisions");
        assert_recognitions_identical(
            &result
                .expect("healthy home finishes")
                .into_recognition(&decisions[i]),
            &want,
            &format!("home {id} across the mid-drive swap"),
        );
    }
}

#[test]
fn export_import_handover_preserves_the_stream_exactly() {
    // Mid-session migration: export every home from one router, import
    // into a fresh one (different shard grid), finish there — identical
    // to never having moved.
    let (engine, test) = fleet(50, 29);
    let lag = Lag::Fixed(6);
    let homes: Vec<(u64, &Session)> = (0..4u64)
        .map(|i| (i + 1, &test[i as usize % test.len()]))
        .collect();
    let ids: Vec<u64> = homes.iter().map(|(id, _)| *id).collect();
    let mut old = router_with_homes(&engine, &ids, lag, 4, None);
    let mut new = ShardedRouter::with_shards(2).with_live_cap(1);
    new.register_model(MODEL, Arc::clone(&engine)).unwrap();

    let handover_at = 20;
    let mut decisions: Vec<(u64, Vec<StreamDecision>)> =
        ids.iter().map(|id| (*id, Vec::new())).collect();
    for t in 0..handover_at {
        let round: Vec<(u64, &ObservedTick)> = homes
            .iter()
            .map(|(id, s)| (*id, &s.ticks[t].observed))
            .collect();
        for ((id, _), outcome) in round.iter().zip(old.push_round(&round).unwrap()) {
            if let HomeRound::Advanced(Some(d)) = outcome {
                decisions
                    .iter_mut()
                    .find(|(h, _)| h == id)
                    .unwrap()
                    .1
                    .push(d);
            }
        }
    }
    for &id in &ids {
        let bytes = old.export_home(id).unwrap();
        new.import_home(id, MODEL, bytes).unwrap();
    }
    let max_ticks = homes.iter().map(|(_, s)| s.len()).max().unwrap();
    for t in handover_at..max_ticks {
        let round: Vec<(u64, &ObservedTick)> = homes
            .iter()
            .filter(|(_, s)| t < s.len())
            .map(|(id, s)| (*id, &s.ticks[t].observed))
            .collect();
        for ((id, _), outcome) in round.iter().zip(new.push_round(&round).unwrap()) {
            match outcome {
                HomeRound::Advanced(Some(d)) => decisions
                    .iter_mut()
                    .find(|(h, _)| h == id)
                    .unwrap()
                    .1
                    .push(d),
                HomeRound::Advanced(None) => {}
                other => panic!("home {id}: {other:?}"),
            }
        }
    }
    for (id, result) in new.finish() {
        let session = homes.iter().find(|(h, _)| *h == id).unwrap().1;
        let (want_decisions, want) = stream_session(&engine, session, lag).unwrap();
        let got = &decisions.iter().find(|(h, _)| *h == id).unwrap().1;
        assert_eq!(got, &want_decisions, "home {id}: migrated decisions");
        assert_recognitions_identical(
            &result
                .expect("migrated home finishes")
                .into_recognition(got),
            &want,
            &format!("home {id} after handover"),
        );
    }
}
