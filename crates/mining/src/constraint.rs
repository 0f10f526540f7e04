//! The probabilistic constraint miner.
//!
//! §V-C of the paper: after the correlation miner removes infeasible states,
//! the constraint miner supplies the *probabilistic* structure — transition
//! statistics, inter-user co-occurrence, episode-termination probabilities,
//! and the hierarchical micro-given-macro conditional probability tables
//! stored in the loosely-coupled HDBN's CPTs.

use cace_model::ModelError;
use serde::{Deserialize, Serialize};

/// One labeled training sequence for two residents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LabeledSequence {
    /// `macros[u][t]` — macro-activity id.
    pub macros: [Vec<usize>; 2],
    /// `posturals[u][t]` — postural id.
    pub posturals: [Vec<usize>; 2],
    /// `gesturals[u][t]` — gestural id (empty vectors when absent, CASAS).
    pub gesturals: [Vec<usize>; 2],
    /// `locations[u][t]` — sub-location id.
    pub locations: [Vec<usize>; 2],
}

impl LabeledSequence {
    /// Number of ticks, validating internal alignment.
    ///
    /// # Errors
    /// Returns [`ModelError::LengthMismatch`] if channels disagree.
    pub fn len_checked(&self) -> Result<usize, ModelError> {
        let n = self.macros[0].len();
        let all_match = self.macros[1].len() == n
            && self.posturals.iter().all(|v| v.len() == n)
            && self.locations.iter().all(|v| v.len() == n)
            && self.gesturals.iter().all(|v| v.is_empty() || v.len() == n);
        if all_match {
            Ok(n)
        } else {
            Err(ModelError::LengthMismatch {
                what: "labeled sequence channels".into(),
                left: n,
                right: self.macros[1].len(),
            })
        }
    }
}

/// Everything the constraint miner learns, Laplace-smoothed and normalized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchicalStats {
    /// Macro-activity count.
    pub n_macro: usize,
    /// Postural count.
    pub n_postural: usize,
    /// Gestural count.
    pub n_gestural: usize,
    /// Sub-location count.
    pub n_location: usize,
    /// `P(macro)` marginal.
    pub macro_prior: Vec<f64>,
    /// `P(macro_t = j | macro_{t−1} = i)` — intra-user temporal constraint
    /// (Proposition 3).
    pub intra_trans: Vec<Vec<f64>>,
    /// `P(partner = b | user = a)` at the same tick — inter-user spatial
    /// constraint (Proposition 4).
    pub inter_cooc: Vec<Vec<f64>>,
    /// `P(episode of activity i ends at any given tick)` — drives the
    /// end-of-sequence markers `E` (Eqn 7).
    pub end_prob: Vec<f64>,
    /// `P(postural | macro)` (Augmentation 2 hierarchy).
    pub postural_given_macro: Vec<Vec<f64>>,
    /// `P(gestural | macro)`; uniform when the modality is absent.
    pub gestural_given_macro: Vec<Vec<f64>>,
    /// `P(location | macro)`.
    pub location_given_macro: Vec<Vec<f64>>,
    /// Micro-level postural transition `P(p_t | p_{t−1})`.
    pub postural_trans: Vec<Vec<f64>>,
}

impl HierarchicalStats {
    fn assert_row_normalized(rows: &[Vec<f64>]) -> bool {
        rows.iter()
            .all(|r| (r.iter().sum::<f64>() - 1.0).abs() < 1e-9)
    }

    /// Validates that every table has the shape the four counts give
    /// (the HDBN tables are built by indexing them with those counts) and
    /// that every stored distribution is normalized.
    ///
    /// # Errors
    /// [`ModelError::LengthMismatch`] for a table of the wrong shape, and
    /// [`ModelError::InvalidDistribution`] for one that is not normalized.
    pub fn validate(&self) -> Result<(), ModelError> {
        let (n, np) = (self.n_macro, self.n_postural);
        let mismatch = |what: &str, left: usize, right: usize| ModelError::LengthMismatch {
            what: format!("{what} against the model's counts"),
            left,
            right,
        };
        for (name, vector) in [
            ("macro_prior", &self.macro_prior),
            ("end_prob", &self.end_prob),
        ] {
            if vector.len() != n {
                return Err(mismatch(name, n, vector.len()));
            }
        }
        let shapes: [(&str, &Vec<Vec<f64>>, usize, usize); 6] = [
            ("intra_trans", &self.intra_trans, n, n),
            ("inter_cooc", &self.inter_cooc, n, n),
            ("postural_given_macro", &self.postural_given_macro, n, np),
            (
                "gestural_given_macro",
                &self.gestural_given_macro,
                n,
                self.n_gestural,
            ),
            (
                "location_given_macro",
                &self.location_given_macro,
                n,
                self.n_location,
            ),
            ("postural_trans", &self.postural_trans, np, np),
        ];
        for (name, table, rows, cols) in shapes {
            if table.len() != rows {
                return Err(mismatch(name, rows, table.len()));
            }
            if let Some(row) = table.iter().find(|r| r.len() != cols) {
                return Err(mismatch(name, cols, row.len()));
            }
        }
        let tables: [(&str, &Vec<Vec<f64>>); 5] = [
            ("intra_trans", &self.intra_trans),
            ("inter_cooc", &self.inter_cooc),
            ("postural_given_macro", &self.postural_given_macro),
            ("gestural_given_macro", &self.gestural_given_macro),
            ("location_given_macro", &self.location_given_macro),
        ];
        for (name, table) in tables {
            if !Self::assert_row_normalized(table) {
                return Err(ModelError::InvalidDistribution {
                    what: name.into(),
                    mass: table
                        .iter()
                        .map(|r| r.iter().sum::<f64>())
                        .find(|m| (m - 1.0).abs() >= 1e-9)
                        .unwrap_or(0.0),
                });
            }
        }
        let prior_mass: f64 = self.macro_prior.iter().sum();
        if (prior_mass - 1.0).abs() >= 1e-9 {
            return Err(ModelError::InvalidDistribution {
                what: "macro_prior".into(),
                mass: prior_mass,
            });
        }
        if self.end_prob.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err(ModelError::InvalidDistribution {
                what: "end_prob".into(),
                mass: -1.0,
            });
        }
        Ok(())
    }
}

/// The constraint miner: counts over labeled training sequences.
#[derive(Debug, Clone, Copy)]
pub struct ConstraintMiner {
    /// Laplace smoothing pseudo-count.
    pub laplace: f64,
    /// Macro-activity count.
    pub n_macro: usize,
    /// Postural count.
    pub n_postural: usize,
    /// Gestural count.
    pub n_gestural: usize,
    /// Sub-location count.
    pub n_location: usize,
}

impl ConstraintMiner {
    /// A miner for the CACE vocabulary sizes.
    pub fn cace() -> Self {
        Self {
            laplace: 0.5,
            n_macro: 11,
            n_postural: 6,
            n_gestural: 5,
            n_location: 14,
        }
    }

    /// A miner for the CASAS vocabulary sizes.
    pub fn casas() -> Self {
        Self {
            n_macro: 15,
            ..Self::cace()
        }
    }

    /// Mines the full [`HierarchicalStats`] from labeled sequences.
    ///
    /// # Errors
    /// Returns [`ModelError::InsufficientData`] when no sequence has at
    /// least two ticks, [`ModelError::IndexOutOfRange`] for a macro,
    /// postural, gestural or location label at or above its count, and
    /// propagates alignment errors.
    pub fn mine(&self, sequences: &[LabeledSequence]) -> Result<HierarchicalStats, ModelError> {
        let total_ticks: usize = sequences
            .iter()
            .map(|s| s.len_checked())
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .sum();
        // The count tables below are indexed by label.
        for seq in sequences {
            for (what, channel, count) in [
                ("macro label", &seq.macros, self.n_macro),
                ("postural label", &seq.posturals, self.n_postural),
                ("gestural label", &seq.gesturals, self.n_gestural),
                ("location label", &seq.locations, self.n_location),
            ] {
                if let Some(&index) = channel.iter().flatten().find(|&&l| l >= count) {
                    return Err(ModelError::IndexOutOfRange { what, index, count });
                }
            }
        }
        if total_ticks < 2 {
            return Err(ModelError::InsufficientData {
                what: "constraint mining".into(),
                available: total_ticks,
                required: 2,
            });
        }

        let nm = self.n_macro;
        let mut prior = vec![self.laplace; nm];
        let mut intra = vec![vec![self.laplace; nm]; nm];
        let mut inter = vec![vec![self.laplace; nm]; nm];
        let mut ends = vec![self.laplace; nm];
        let mut stays = vec![self.laplace; nm];
        let mut post_given = vec![vec![self.laplace; self.n_postural]; nm];
        let mut gest_given = vec![vec![self.laplace; self.n_gestural]; nm];
        let mut loc_given = vec![vec![self.laplace; self.n_location]; nm];
        let mut post_trans = vec![vec![self.laplace; self.n_postural]; self.n_postural];

        for seq in sequences {
            let n = seq.len_checked()?;
            for u in 0..2 {
                let has_gest = !seq.gesturals[u].is_empty();
                for t in 0..n {
                    let m = seq.macros[u][t];
                    prior[m] += 1.0;
                    post_given[m][seq.posturals[u][t]] += 1.0;
                    loc_given[m][seq.locations[u][t]] += 1.0;
                    if has_gest {
                        gest_given[m][seq.gesturals[u][t]] += 1.0;
                    }
                    // Inter-user co-occurrence (count once per ordered pair).
                    inter[m][seq.macros[1 - u][t]] += 1.0;
                    if t > 0 {
                        let prev = seq.macros[u][t - 1];
                        intra[prev][m] += 1.0;
                        if prev == m {
                            stays[m] += 1.0;
                        } else {
                            ends[prev] += 1.0;
                        }
                        post_trans[seq.posturals[u][t - 1]][seq.posturals[u][t]] += 1.0;
                    }
                }
            }
        }

        let normalize = |rows: &mut Vec<Vec<f64>>| {
            for row in rows {
                let total: f64 = row.iter().sum();
                for v in row {
                    *v /= total;
                }
            }
        };
        normalize(&mut intra);
        normalize(&mut inter);
        normalize(&mut post_given);
        normalize(&mut gest_given);
        normalize(&mut loc_given);
        normalize(&mut post_trans);
        let prior_total: f64 = prior.iter().sum();
        for p in &mut prior {
            *p /= prior_total;
        }
        let end_prob: Vec<f64> = ends
            .iter()
            .zip(&stays)
            .map(|(&e, &s)| (e / (e + s)).clamp(1e-6, 1.0 - 1e-6))
            .collect();

        let stats = HierarchicalStats {
            n_macro: nm,
            n_postural: self.n_postural,
            n_gestural: self.n_gestural,
            n_location: self.n_location,
            macro_prior: prior,
            intra_trans: intra,
            inter_cooc: inter,
            end_prob,
            postural_given_macro: post_given,
            gestural_given_macro: gest_given,
            location_given_macro: loc_given,
            postural_trans: post_trans,
        };
        stats.validate()?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sequence where both users alternate long runs of activity 0 and 1,
    /// always together, activity 0 at location 0 with posture 0.
    fn synchronized_sequence(runs: usize, run_len: usize) -> LabeledSequence {
        let mut macros = Vec::new();
        for r in 0..runs {
            for _ in 0..run_len {
                macros.push(r % 2);
            }
        }
        let n = macros.len();
        let posturals: Vec<usize> = macros.clone();
        let locations: Vec<usize> = macros.clone();
        LabeledSequence {
            macros: [macros.clone(), macros],
            posturals: [posturals.clone(), posturals],
            gesturals: [vec![0; n], vec![0; n]],
            locations: [locations.clone(), locations],
        }
    }

    fn miner() -> ConstraintMiner {
        ConstraintMiner {
            laplace: 0.1,
            n_macro: 3,
            n_postural: 3,
            n_gestural: 2,
            n_location: 3,
        }
    }

    #[test]
    fn transition_statistics_reflect_runs() {
        let stats = miner().mine(&[synchronized_sequence(10, 20)]).unwrap();
        // Self-transitions dominate (runs of 20).
        assert!(stats.intra_trans[0][0] > 0.9, "{:?}", stats.intra_trans[0]);
        assert!(stats.intra_trans[1][1] > 0.9);
        // 0 goes to 1 much more than to 2 (2 never occurs).
        assert!(stats.intra_trans[0][1] > 5.0 * stats.intra_trans[0][2]);
    }

    #[test]
    fn inter_user_cooccurrence_captures_synchrony() {
        let stats = miner().mine(&[synchronized_sequence(10, 20)]).unwrap();
        // Users always share the activity.
        assert!(stats.inter_cooc[0][0] > 0.95, "{:?}", stats.inter_cooc[0]);
        assert!(stats.inter_cooc[1][1] > 0.95);
    }

    #[test]
    fn end_probability_matches_run_length() {
        let stats = miner().mine(&[synchronized_sequence(20, 10)]).unwrap();
        // Runs of 10 ticks → P(end) ≈ 1/10.
        assert!(
            (stats.end_prob[0] - 0.1).abs() < 0.05,
            "end prob {}",
            stats.end_prob[0]
        );
    }

    #[test]
    fn hierarchy_cpts_are_peaked_and_normalized() {
        let stats = miner().mine(&[synchronized_sequence(10, 20)]).unwrap();
        assert!(stats.validate().is_ok());
        // Activity 0 is always at posture 0 / location 0.
        assert!(stats.postural_given_macro[0][0] > 0.9);
        assert!(stats.location_given_macro[0][0] > 0.9);
        assert!(stats.location_given_macro[1][1] > 0.9);
    }

    #[test]
    fn absent_gesturals_yield_uniform_rows() {
        let mut seq = synchronized_sequence(5, 10);
        seq.gesturals = [vec![], vec![]];
        let stats = miner().mine(&[seq]).unwrap();
        for row in &stats.gestural_given_macro {
            for &v in row {
                assert!((v - 0.5).abs() < 1e-9, "uniform expected, got {row:?}");
            }
        }
    }

    #[test]
    fn insufficient_data_is_rejected() {
        let err = miner().mine(&[]);
        assert!(matches!(err, Err(ModelError::InsufficientData { .. })));
    }

    /// Sets one label of user 2's `channel` to `count` (the first id past
    /// the vocabulary) and expects the miner to reject it by name.
    fn rejects_label(
        what: &'static str,
        channel: fn(&mut LabeledSequence) -> &mut [Vec<usize>; 2],
        count: usize,
    ) {
        let ok = synchronized_sequence(4, 5);
        let mut bad = ok.clone();
        channel(&mut bad)[1][3] = count;
        assert_eq!(
            miner().mine(&[ok, bad]),
            Err(ModelError::IndexOutOfRange {
                what,
                index: count,
                count
            })
        );
    }

    #[test]
    fn out_of_range_macro_label_is_rejected() {
        rejects_label("macro label", |s| &mut s.macros, miner().n_macro);
    }

    #[test]
    fn out_of_range_postural_label_is_rejected() {
        rejects_label("postural label", |s| &mut s.posturals, miner().n_postural);
    }

    #[test]
    fn out_of_range_gestural_label_is_rejected() {
        rejects_label("gestural label", |s| &mut s.gesturals, miner().n_gestural);
    }

    #[test]
    fn out_of_range_location_label_is_rejected() {
        rejects_label("location label", |s| &mut s.locations, miner().n_location);
    }

    #[test]
    fn misaligned_channels_are_rejected() {
        let mut seq = synchronized_sequence(2, 5);
        seq.locations[1].pop();
        assert!(matches!(
            miner().mine(&[seq]),
            Err(ModelError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn priors_sum_to_one() {
        let stats = miner().mine(&[synchronized_sequence(4, 5)]).unwrap();
        assert!((stats.macro_prior.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
