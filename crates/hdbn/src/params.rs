//! HDBN parameters: log-space CPTs assembled from the constraint miner's
//! statistics.

use std::sync::OnceLock;

use cace_mining::HierarchicalStats;
use cace_model::ModelError;
use serde::{Deserialize, Serialize};

use crate::tables::ScoreTables;

/// Exclusive bound on the entries of a model's widest hierarchy table,
/// `n_macro × max(n_postural, n_gestural, n_location)`. Every activity and
/// micro id then stays below `u16::MAX`, so the 16-bit evidence atoms of
/// `cace-core`'s rule pruner hold them losslessly.
pub(crate) const TABLE_ENTRY_LIMIT: usize = u16::MAX as usize;

/// Structural configuration of the coupled model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HdbnConfig {
    /// Weight of the inter-user concurrent coupling factor
    /// (`0` = independent chains, `1` = full co-occurrence CPT).
    pub coupling_weight: f64,
    /// Weight of the hierarchical `P(micro | macro)` factors.
    pub hierarchy_weight: f64,
    /// Extra log-bonus for remaining in the same macro activity, on top of
    /// the mined termination probability (stabilizes segmentation).
    pub persistence_bonus: f64,
}

impl Default for HdbnConfig {
    fn default() -> Self {
        Self {
            coupling_weight: 1.0,
            hierarchy_weight: 1.0,
            persistence_bonus: 0.0,
        }
    }
}

impl HdbnConfig {
    /// A configuration with the inter-user coupling disabled (per-user
    /// hierarchical model only).
    pub fn uncoupled() -> Self {
        Self {
            coupling_weight: 0.0,
            ..Self::default()
        }
    }
}

/// Log-space parameter tables of the (coupled) HDBN.
#[derive(Debug, Clone)]
pub struct HdbnParams {
    /// The mined statistics the tables were built from.
    pub stats: HierarchicalStats,
    /// Model configuration.
    pub config: HdbnConfig,
    /// `log P(macro)` prior (restart distribution, Eqn 12).
    pub log_prior: Vec<f64>,
    /// `log P(macro_t | macro_{t−1})` for macro changes, renormalized over
    /// `j ≠ i`.
    pub log_switch: Vec<Vec<f64>>,
    /// `log P(end | macro)` and `log P(continue | macro)` (Augmentation 1).
    pub log_end: Vec<f64>,
    /// `log (1 − P(end | macro))`.
    pub log_continue: Vec<f64>,
    /// `log P(partner | macro)` concurrent coupling (Augmentation 3),
    /// pre-scaled by `coupling_weight`.
    pub log_cooc: Vec<Vec<f64>>,
    /// `log P(postural | macro)` scaled by `hierarchy_weight`.
    pub log_post: Vec<Vec<f64>>,
    /// `log P(gestural | macro)` scaled by `hierarchy_weight`.
    pub log_gest: Vec<Vec<f64>>,
    /// `log P(location | macro)` scaled by `hierarchy_weight`.
    pub log_loc: Vec<Vec<f64>>,
    /// `log P(p_t | p_{t−1})` micro-level continuation.
    pub log_post_trans: Vec<Vec<f64>>,
    /// Dense precomputed decode-path tables over compact
    /// `(activity, postural)` pair ids — derived from the log tables above
    /// (never persisted; rebuilt by [`HdbnParams::new`] on snapshot load).
    /// Every decoder scores through these; the naive methods below are the
    /// reference definition they are built from.
    pub tables: ScoreTables,
    /// Lazily computed model fingerprint ([`Self::fingerprint`]).
    fingerprint: OnceLock<u64>,
}

/// 64-bit FNV-1a (same constants as the snapshot layer's checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn log_table(rows: &[Vec<f64>], scale: f64) -> Vec<Vec<f64>> {
    rows.iter()
        .map(|r| r.iter().map(|&p| scale * p.max(1e-12).ln()).collect())
        .collect()
}

impl HdbnParams {
    /// Builds log tables from mined statistics.
    ///
    /// # Errors
    /// Propagates [`HierarchicalStats::validate`] failures, and returns
    /// [`ModelError::InvalidConfig`] for a model whose hierarchy tables
    /// reach 65 535 entries: the rule pruner's evidence atoms store
    /// activity and micro ids in 16 bits.
    pub fn new(stats: HierarchicalStats, config: HdbnConfig) -> Result<Self, ModelError> {
        stats.validate()?;
        let n = stats.n_macro;
        let widest = n.saturating_mul(
            stats
                .n_postural
                .max(stats.n_gestural)
                .max(stats.n_location)
                .max(1),
        );
        if widest >= TABLE_ENTRY_LIMIT {
            return Err(ModelError::InvalidConfig(format!(
                "model too large: a hierarchy table of {widest} entries, but evidence \
                 atoms store ids in 16 bits (tables must stay below {TABLE_ENTRY_LIMIT})"
            )));
        }

        let log_prior: Vec<f64> = stats
            .macro_prior
            .iter()
            .map(|&p| p.max(1e-12).ln())
            .collect();

        // Switch table: transition distribution conditioned on leaving state
        // i (diagonal removed, renormalized) — this is the `π_{i→j}` restart
        // table of Eqn 12 informed by the mined intra-user constraints.
        let mut log_switch = vec![vec![f64::NEG_INFINITY; n]; n];
        for i in 0..n {
            let off_mass: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| stats.intra_trans[i][j])
                .sum();
            for j in 0..n {
                if j != i && off_mass > 0.0 {
                    log_switch[i][j] = (stats.intra_trans[i][j] / off_mass).max(1e-12).ln();
                }
            }
        }

        // Clamped like every other table: a mined end probability of
        // exactly 0 or 1 must not inject −∞ into the sum-based scores
        // (the pruned-forward and EM xi paths add these terms).
        let log_end: Vec<f64> = stats.end_prob.iter().map(|&p| p.max(1e-12).ln()).collect();
        let log_continue: Vec<f64> = stats
            .end_prob
            .iter()
            .map(|&p| (1.0 - p).max(1e-12).ln())
            .collect();

        let mut out = Self {
            log_prior,
            log_switch,
            log_end,
            log_continue,
            log_cooc: log_table(&stats.inter_cooc, config.coupling_weight),
            log_post: log_table(&stats.postural_given_macro, config.hierarchy_weight),
            log_gest: log_table(&stats.gestural_given_macro, config.hierarchy_weight),
            log_loc: log_table(&stats.location_given_macro, config.hierarchy_weight),
            log_post_trans: log_table(&stats.postural_trans, 1.0),
            stats,
            config,
            tables: ScoreTables::default(),
            fingerprint: OnceLock::new(),
        };
        out.tables = ScoreTables::build(&out);
        Ok(out)
    }

    /// Number of macro activities.
    pub fn n_macro(&self) -> usize {
        self.stats.n_macro
    }

    /// A 64-bit fingerprint identifying this model's parameters: FNV-1a
    /// over the canonical serialized form of `(stats, config)` — exactly
    /// the pair persistence stores, because every log/score table is a
    /// deterministic function of it. Two `HdbnParams` fingerprint equal
    /// iff they decode identically, which is what the hot-swap layer needs
    /// to tell "same model, safe to resume" from "different model,
    /// requires an explicit migration". Computed once and cached.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| fnv1a64(serde::json::value_to_string(&self.serialize()).as_bytes()))
    }

    /// Hierarchical emission score of a micro tuple under a macro activity:
    /// `log P(p|a) + log P(g|a) + log P(l|a)` (Augmentation 2).
    ///
    /// `gestural` is `None` when the modality is absent (CASAS).
    pub fn hierarchy_score(
        &self,
        activity: usize,
        postural: usize,
        gestural: Option<usize>,
        location: usize,
    ) -> f64 {
        let mut score = self.log_post[activity][postural] + self.log_loc[activity][location];
        if let Some(g) = gestural {
            score += self.log_gest[activity][g];
        }
        score
    }

    /// Transition score between consecutive per-user states.
    ///
    /// Same macro: continue (Eqns 11/13) — `log(1−p_end) + log P(p_t|p_{t−1})`
    /// plus the persistence bonus. Different macro: terminate and restart
    /// (Eqns 12/14) — `log p_end + log π_{i→j}` (micro restarts from the
    /// hierarchy prior, which the emission side already scores).
    pub fn transition_score(
        &self,
        prev_activity: usize,
        prev_postural: usize,
        activity: usize,
        postural: usize,
    ) -> f64 {
        if activity == prev_activity {
            self.log_continue[prev_activity]
                + self.log_post_trans[prev_postural][postural]
                + self.config.persistence_bonus
        } else {
            self.log_end[prev_activity] + self.log_switch[prev_activity][activity]
        }
    }

    /// Concurrent inter-user coupling factor (Augmentation 3 / Prop 4).
    pub fn coupling_score(&self, activity_u1: usize, activity_u2: usize) -> f64 {
        self.log_cooc[activity_u1][activity_u2]
    }
}

// The log tables are a pure, deterministic function of (stats, config), so
// persistence stores only those two and rebuilds the tables through
// `HdbnParams::new` on load — the reconstructed tables are bit-identical
// because the float pipeline (`ln`, renormalization) reruns on bit-identical
// inputs.
impl serde::Serialize for HdbnParams {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("stats".to_string(), self.stats.serialize()),
            ("config".to_string(), self.config.serialize()),
        ])
    }
}

impl serde::Deserialize for HdbnParams {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let stats = HierarchicalStats::deserialize(value.expect_field("stats", "HdbnParams")?)?;
        let config = HdbnConfig::deserialize(value.expect_field("config", "HdbnParams")?)?;
        Self::new(stats, config)
            .map_err(|e| serde::Error::msg(format!("invalid HdbnParams tables: {e}")))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cace_mining::constraint::{ConstraintMiner, LabeledSequence};

    pub(crate) fn toy_stats() -> HierarchicalStats {
        toy_stats_sized(2, 2)
    }

    fn toy_stats_sized(n_macro: usize, n_location: usize) -> HierarchicalStats {
        // Two activities, strongly self-persistent, always co-occurring.
        let mut macros = Vec::new();
        for r in 0..40 {
            for _ in 0..10 {
                macros.push(r % 2);
            }
        }
        let n = macros.len();
        let seq = LabeledSequence {
            macros: [macros.clone(), macros.clone()],
            posturals: [macros.clone(), macros.clone()],
            gesturals: [vec![0; n], vec![0; n]],
            locations: [macros.clone(), macros],
        };
        let miner = ConstraintMiner {
            laplace: 0.1,
            n_macro,
            n_postural: 2,
            n_gestural: 2,
            n_location,
        };
        miner.mine(&[seq]).unwrap()
    }

    #[test]
    fn models_too_wide_for_16_bit_decision_ids_are_rejected() {
        // 2 macros × 30 000 locations: every table index fits 16 bits.
        assert!(HdbnParams::new(toy_stats_sized(2, 30_000), HdbnConfig::default()).is_ok());
        // 2 × 40 000 does not.
        assert!(matches!(
            HdbnParams::new(toy_stats_sized(2, 40_000), HdbnConfig::default()),
            Err(ModelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_hierarchy_table_of_65_535_entries_is_rejected() {
        // 3 macros × 21 845 locations is exactly the limit.
        let stats = toy_stats_sized(3, 21_845);
        assert_eq!(stats.n_macro * stats.n_location, TABLE_ENTRY_LIMIT);
        match HdbnParams::new(stats, HdbnConfig::default()) {
            Err(ModelError::InvalidConfig(msg)) => {
                assert!(msg.contains("65535 entries"), "{msg}")
            }
            other => panic!("a 65 535-entry table was not rejected: {other:?}"),
        }
    }

    #[test]
    fn params_build_and_tables_are_finite_where_expected() {
        let params = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        assert_eq!(params.n_macro(), 2);
        for i in 0..2 {
            assert!(params.log_prior[i].is_finite());
            assert!(params.log_end[i].is_finite());
            assert!(params.log_continue[i].is_finite());
            assert_eq!(params.log_switch[i][i], f64::NEG_INFINITY);
        }
    }

    #[test]
    fn continuation_beats_switching_for_persistent_activities() {
        let params = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        let stay = params.transition_score(0, 0, 0, 0);
        let switch = params.transition_score(0, 0, 1, 1);
        assert!(stay > switch, "stay {stay} vs switch {switch}");
    }

    #[test]
    fn coupling_prefers_cooccurring_partners() {
        let params = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        assert!(params.coupling_score(0, 0) > params.coupling_score(0, 1));
    }

    #[test]
    fn uncoupled_config_zeroes_coupling() {
        let params = HdbnParams::new(toy_stats(), HdbnConfig::uncoupled()).unwrap();
        assert_eq!(params.coupling_score(0, 1), 0.0);
        assert_eq!(params.coupling_score(0, 0), 0.0);
    }

    #[test]
    fn degenerate_end_probabilities_stay_finite() {
        // A mined end_prob of exactly 0.0 or 1.0 is legal input
        // (`validate` accepts the closed interval); the log tables must
        // clamp rather than store −∞, which would poison every sum-based
        // score downstream (forward filtering, EM xi terms).
        let mut stats = toy_stats();
        stats.end_prob = vec![0.0, 1.0];
        let params = HdbnParams::new(stats, HdbnConfig::default()).unwrap();
        for i in 0..2 {
            assert!(
                params.log_end[i].is_finite(),
                "log_end[{i}] = {}",
                params.log_end[i]
            );
            assert!(
                params.log_continue[i].is_finite(),
                "log_continue[{i}] = {}",
                params.log_continue[i]
            );
        }
        // And the dense tables inherit the clamp: a transition may be −∞
        // only through log_switch's structural zeros (no off-diagonal
        // mass out of an activity), never through a degenerate log_end /
        // log_continue.
        let t = &params.tables;
        let n_post = params.stats.n_postural;
        for src in 0..t.n_pair() as u32 {
            let ap = src as usize / n_post;
            for dst in 0..t.n_pair() as u32 {
                let a = dst as usize / n_post;
                let s = t.transition(src, dst);
                if a == ap {
                    assert!(s.is_finite(), "continue transition({src}, {dst}) = {s}");
                } else {
                    assert_eq!(
                        s.is_finite(),
                        params.log_switch[ap][a].is_finite(),
                        "switch transition({src}, {dst}) = {s} must be −∞ \
                         exactly when log_switch[{ap}][{a}] is"
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_identifies_the_stats_config_pair() {
        let a = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        let b = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        // Deterministic across independent builds of the same inputs.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Cached: repeated calls agree (and a clone carries the cache).
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // Any stats or config change moves the fingerprint.
        let mut stats = toy_stats();
        stats.end_prob[0] = (stats.end_prob[0] + 0.11).min(0.9);
        let c = HdbnParams::new(stats, HdbnConfig::default()).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = HdbnParams::new(toy_stats(), HdbnConfig::uncoupled()).unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn hierarchy_score_prefers_consistent_micro() {
        let params = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        // Activity 0 always had postural 0 / location 0.
        let good = params.hierarchy_score(0, 0, Some(0), 0);
        let bad = params.hierarchy_score(0, 1, Some(0), 1);
        assert!(good > bad);
        // Gestural omission path.
        let no_gest = params.hierarchy_score(0, 0, None, 0);
        assert!(no_gest.is_finite());
    }
}
