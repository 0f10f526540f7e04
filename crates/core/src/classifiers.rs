//! Micro-activity classifiers (context planar).
//!
//! Random forests over the 32-feature frames, replacing the paper's WEKA
//! forests: one for postural states (smartphone) and one for oral-gestural
//! states (neck tag). Also the macro-level "direct" classifier the NH
//! strategy uses (features directly labeled with the macro activity).

use cace_behavior::Session;
use cace_features::{extract_session, SessionFeatures};
use cace_learn::{ForestConfig, RandomForest};
use cace_model::{Gestural, ModelError, Postural};
use serde::{Deserialize, Serialize};

/// Trained micro classifiers plus the NH macro classifier.
///
/// Serializable as part of the engine snapshot (train once, serve many).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicroClassifiers {
    /// Postural forest (smartphone features).
    pub postural: RandomForest,
    /// Gestural forest (neck-tag features); absent for CASAS-style data.
    pub gestural: Option<RandomForest>,
    /// Macro forest over concatenated phone+tag features (NH strategy).
    pub direct_macro: RandomForest,
}

fn forest_config() -> ForestConfig {
    ForestConfig {
        n_trees: 12,
        ..ForestConfig::default()
    }
}

/// Zero-vector placeholder for a dropped frame when concatenating features.
fn concat_features(phone: Option<&[f64]>, tag: Option<&[f64]>, dim: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * dim);
    out.extend_from_slice(phone.unwrap_or(&[]));
    out.resize(dim, 0.0);
    out.extend_from_slice(tag.unwrap_or(&[]));
    out.resize(2 * dim, 0.0);
    out
}

impl MicroClassifiers {
    /// Trains all classifiers from labeled sessions.
    ///
    /// `stride` subsamples training ticks (1 = every tick) to bound
    /// training cost on large corpora.
    ///
    /// # Errors
    /// Returns [`ModelError::InsufficientData`] when no usable frames exist.
    pub fn train(
        sessions: &[Session],
        features: &[SessionFeatures],
        n_macro: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self, ModelError> {
        let stride = stride.max(1);
        let mut post_x = Vec::new();
        let mut post_y = Vec::new();
        let mut gest_x = Vec::new();
        let mut gest_y = Vec::new();
        let mut macro_x = Vec::new();
        let mut macro_y = Vec::new();
        let mut any_gestural = false;
        let dim = cace_features::FEATURE_COUNT;

        for (session, feats) in sessions.iter().zip(features) {
            any_gestural |= session.has_gestural;
            for (t, tick) in session.ticks.iter().enumerate().step_by(stride) {
                for u in 0..2 {
                    let f = &feats.per_tick[t][u];
                    if let Some(phone) = &f.phone {
                        post_x.push(phone.to_vec());
                        post_y.push(tick.truth[u].micro.postural.index());
                    }
                    if let Some(tag) = &f.tag {
                        gest_x.push(tag.to_vec());
                        gest_y.push(tick.truth[u].micro.gestural.index());
                    }
                    macro_x.push(concat_features(
                        f.phone.as_ref().map(|v| v.as_slice()),
                        f.tag.as_ref().map(|v| v.as_slice()),
                        dim,
                    ));
                    macro_y.push(tick.labels[u]);
                }
            }
        }
        if post_x.is_empty() {
            return Err(ModelError::InsufficientData {
                what: "postural classifier training".into(),
                available: 0,
                required: 1,
            });
        }

        let postural =
            RandomForest::fit(&post_x, &post_y, Postural::COUNT, &forest_config(), seed)?;
        let gestural = if any_gestural && !gest_x.is_empty() {
            Some(RandomForest::fit(
                &gest_x,
                &gest_y,
                Gestural::COUNT,
                &forest_config(),
                seed ^ 0x9e37,
            )?)
        } else {
            None
        };
        let direct_macro =
            RandomForest::fit(&macro_x, &macro_y, n_macro, &forest_config(), seed ^ 0x79b9)?;
        Ok(Self {
            postural,
            gestural,
            direct_macro,
        })
    }

    /// Checks that each forest reads the features and scores the classes
    /// its caller hands it: the postural and gestural forests one frame's
    /// features and their micro states, the NH macro forest a phone and
    /// tag frame side by side and `n_macro` activities. A snapshot's
    /// forests are checked against this when it is read.
    pub(crate) fn check_shapes(&self, n_macro: usize) -> Result<(), String> {
        let dim = cace_features::FEATURE_COUNT;
        let forests = [
            ("postural", Some(&self.postural), dim, Postural::COUNT),
            ("gestural", self.gestural.as_ref(), dim, Gestural::COUNT),
            ("direct_macro", Some(&self.direct_macro), 2 * dim, n_macro),
        ];
        for (name, forest, features, classes) in forests {
            let Some(forest) = forest else { continue };
            if (forest.n_features(), forest.n_classes()) != (features, classes) {
                return Err(format!(
                    "{name} forest: {} features and {} classes, not {features} and {classes}",
                    forest.n_features(),
                    forest.n_classes()
                ));
            }
        }
        Ok(())
    }

    /// Postural log-probabilities of one tick's phone features (uniform
    /// when the frame was dropped).
    pub fn postural_log_proba(&self, phone: Option<&[f64]>) -> [f64; Postural::COUNT] {
        let mut out = [-(Postural::COUNT as f64).ln(); Postural::COUNT];
        if let Some(f) = phone {
            self.postural.predict_log_proba_into(f, &mut out);
        }
        out
    }

    /// Gestural log-probabilities (uniform when dropped or untrained).
    pub fn gestural_log_proba(&self, tag: Option<&[f64]>) -> [f64; Gestural::COUNT] {
        let mut out = [-(Gestural::COUNT as f64).ln(); Gestural::COUNT];
        if let (Some(model), Some(f)) = (&self.gestural, tag) {
            model.predict_log_proba_into(f, &mut out);
        }
        out
    }

    /// NH-style macro log-probabilities from concatenated features.
    pub fn macro_log_proba(&self, phone: Option<&[f64]>, tag: Option<&[f64]>) -> Vec<f64> {
        let dim = cace_features::FEATURE_COUNT;
        self.direct_macro
            .predict_log_proba(&concat_features(phone, tag, dim))
    }
}

/// Convenience: extract features for many sessions at once.
pub fn extract_all(sessions: &[Session]) -> Vec<SessionFeatures> {
    sessions.iter().map(extract_session).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cace_behavior::{cace_grammar, simulate_session, SessionConfig};

    fn setup() -> (Vec<Session>, Vec<SessionFeatures>) {
        let g = cace_grammar();
        let sessions: Vec<Session> = (0..2)
            .map(|i| simulate_session(&g, &SessionConfig::tiny(), 100 + i))
            .collect();
        let features = extract_all(&sessions);
        (sessions, features)
    }

    #[test]
    fn classifiers_train_and_score() {
        let (sessions, features) = setup();
        let clf = MicroClassifiers::train(&sessions, &features, 11, 1, 42).unwrap();
        assert!(clf.gestural.is_some());

        // In-sample accuracy on posturals should be strong (the paper's
        // postural forest reaches ≈98.6 % on its testbed).
        let mut correct = 0usize;
        let mut total = 0usize;
        for (s, f) in sessions.iter().zip(&features) {
            for (t, tick) in s.ticks.iter().enumerate() {
                for u in 0..2 {
                    if let Some(phone) = &f.per_tick[t][u].phone {
                        let lp = clf.postural_log_proba(Some(phone.as_slice()));
                        let pred = lp
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                            .unwrap()
                            .0;
                        total += 1;
                        if pred == tick.truth[u].micro.postural.index() {
                            correct += 1;
                        }
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.85, "in-sample postural accuracy {acc}");
    }

    #[test]
    fn dropped_frames_yield_uniform_scores() {
        let (sessions, features) = setup();
        let clf = MicroClassifiers::train(&sessions, &features, 11, 2, 43).unwrap();
        let lp = clf.postural_log_proba(None);
        assert_eq!(lp.len(), Postural::COUNT);
        assert!(lp.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        let lg = clf.gestural_log_proba(None);
        assert_eq!(lg.len(), Gestural::COUNT);
    }

    #[test]
    fn macro_classifier_produces_distribution() {
        let (sessions, features) = setup();
        let clf = MicroClassifiers::train(&sessions, &features, 11, 2, 44).unwrap();
        let f = &features[0].per_tick[10][0];
        let lp = clf.macro_log_proba(
            f.phone.as_ref().map(|v| v.as_slice()),
            f.tag.as_ref().map(|v| v.as_slice()),
        );
        assert_eq!(lp.len(), 11);
        let mass: f64 = lp.iter().map(|l| l.exp()).sum();
        assert!((mass - 1.0).abs() < 0.05, "mass {mass}");
    }
}
