//! Engine-configuration behaviors: augmentation weights, candidate beams,
//! evidence thresholds.

use cace::behavior::Session;
use cace::core::{CaceConfig, Strategy};
use cace_testkit::{engine_with, tiny_corpus};

fn split(seed: u64) -> (Vec<Session>, Vec<Session>) {
    tiny_corpus(4, 140, seed)
}

#[test]
fn zero_coupling_weight_still_decodes() {
    let (train, test) = split(21);
    let config = CaceConfig {
        coupling_weight: 0.0,
        ..CaceConfig::default()
    };
    let engine = engine_with(&train, &config);
    let rec = engine.recognize(&test[0]).unwrap();
    assert!(rec.accuracy(&test[0]) > 0.3);
}

#[test]
fn zero_hierarchy_weight_hurts_but_runs() {
    let (train, test) = split(22);
    let baseline = engine_with(&train, &CaceConfig::default());
    let flat_config = CaceConfig {
        hierarchy_weight: 0.0,
        ..CaceConfig::default()
    };
    let flat = engine_with(&train, &flat_config);
    let acc_base = baseline.recognize(&test[0]).unwrap().accuracy(&test[0]);
    let acc_flat = flat.recognize(&test[0]).unwrap().accuracy(&test[0]);
    // The hierarchy carries signal; dropping it must not help much.
    assert!(
        acc_base + 0.1 >= acc_flat,
        "hierarchy off ({acc_flat}) should not clearly beat on ({acc_base})"
    );
}

#[test]
fn wider_beam_explores_more_states() {
    let (train, test) = split(23);
    let narrow_cfg = CaceConfig {
        beam: 2,
        ..CaceConfig::default()
    }
    .with_strategy(Strategy::NaiveConstraint);
    let wide_cfg = CaceConfig {
        beam: 12,
        ..CaceConfig::default()
    }
    .with_strategy(Strategy::NaiveConstraint);
    let narrow = engine_with(&train, &narrow_cfg);
    let wide = engine_with(&train, &wide_cfg);
    let rn = narrow.recognize(&test[0]).unwrap();
    let rw = wide.recognize(&test[0]).unwrap();
    assert!(rw.states_explored > rn.states_explored);
    assert!(rw.transition_ops > rn.transition_ops);
}

#[test]
fn narrower_frontier_beam_does_less_transition_work() {
    // The candidate beam bounds the frontier (`Strategy::frontier_bound`);
    // each narrower beam must shrink the bound and do strictly less
    // transition work on this workload.
    let (train, test) = split(25);
    let mut bounds = Vec::new();
    let mut ops = Vec::new();
    for beam in [12, 8, 4, 2] {
        let config = CaceConfig {
            beam,
            ..CaceConfig::default()
        };
        let engine = engine_with(&train, &config);
        bounds.push(engine.frontier_bound());
        ops.push(engine.recognize(&test[0]).unwrap().transition_ops);
    }
    for (b, o) in bounds.windows(2).zip(ops.windows(2)) {
        assert!(b[1] < b[0], "narrower beam must cut the bound: {bounds:?}");
        assert!(o[1] < o[0], "narrower beam must cut work: {ops:?}");
    }
}

#[test]
fn frontier_bound_matches_decoded_shapes() {
    let (train, _) = split(26);
    let c2 = engine_with(&train, &CaceConfig::default());
    let cfg = c2.config();
    assert_eq!(
        c2.frontier_bound(),
        (c2.n_macro() * cfg.beam) * (c2.n_macro() * cfg.beam)
    );
    assert_eq!(
        Strategy::CorrelationConstraint.frontier_bound(c2.n_macro(), cfg.beam, cfg.nh_beam),
        c2.frontier_bound()
    );
}

#[test]
fn strict_evidence_thresholds_reduce_rule_firings() {
    let (train, test) = split(24);
    let loose = engine_with(&train, &CaceConfig::default());
    let mut strict_cfg = CaceConfig::default();
    strict_cfg.evidence.postural_confidence = 0.999;
    strict_cfg.evidence.gestural_confidence = 0.999;
    strict_cfg.evidence.beacon_max_residual = 0.0;
    let strict = engine_with(&train, &strict_cfg);
    let fl = loose.recognize(&test[0]).unwrap().rules_fired;
    let fs = strict.recognize(&test[0]).unwrap().rules_fired;
    assert!(
        fs <= fl,
        "stricter evidence must not fire more rules ({fs} vs {fl})"
    );
}
