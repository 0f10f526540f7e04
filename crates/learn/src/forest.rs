//! Random forests: bagged CART trees with feature subsampling.
//!
//! This replaces WEKA 3.7.11's random forest used by the paper for both the
//! gestural (95.3 % accuracy) and postural (≈98.6 %) micro classifiers.

use cace_model::ModelError;
use cace_signal::GaussianSampler;
use serde::{Deserialize, Serialize};

use crate::tree::{argmax, DecisionTree, TreeConfig};

/// Random-forest hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (feature subsample defaults to √d when unset).
    pub tree: TreeConfig,
    /// Bootstrap sample fraction.
    pub bootstrap_fraction: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 20,
            tree: TreeConfig {
                max_depth: 12,
                min_split: 4,
                feature_subsample: None,
                threshold_candidates: 12,
            },
            bootstrap_fraction: 1.0,
        }
    }
}

/// A trained random-forest classifier.
///
/// Serializable so trained models can be persisted and served without
/// re-training (the `CaceEngine` snapshot embeds its forests). Reading one
/// checks it, tree by tree (see
/// [`TryFrom<ForestFields>`](#impl-TryFrom<ForestFields>-for-RandomForest)).
#[derive(Debug, Clone, Serialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

/// A [`RandomForest`]'s serialized fields, its trees already checked one
/// by one.
#[derive(Deserialize)]
pub struct ForestFields {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl TryFrom<ForestFields> for RandomForest {
    type Error = String;

    /// Accepts at least one tree, every tree over the forest's
    /// `n_classes` and all trees over one feature count.
    fn try_from(fields: ForestFields) -> Result<Self, String> {
        let ForestFields { trees, n_classes } = fields;
        let Some(first) = trees.first() else {
            return Err("a random forest needs a tree".into());
        };
        let n_features = first.n_features();
        if let Some((i, tree)) = trees
            .iter()
            .enumerate()
            .find(|(_, t)| t.n_classes() != n_classes || t.n_features() != n_features)
        {
            return Err(format!(
                "forest tree {i}: {} classes over {} features, not {n_classes} over {n_features}",
                tree.n_classes(),
                tree.n_features()
            ));
        }
        Ok(Self { trees, n_classes })
    }
}

impl Deserialize for RandomForest {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        Self::try_from(ForestFields::deserialize(value)?).map_err(serde::Error::msg)
    }
}

impl RandomForest {
    /// Fits a forest on `xs`/`ys` with labels in `0..n_classes`.
    ///
    /// # Errors
    /// Propagates the same input-validation errors as [`DecisionTree::fit`],
    /// plus [`ModelError::InvalidConfig`] for a zero-tree configuration.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        config: &ForestConfig,
        seed: u64,
    ) -> Result<Self, ModelError> {
        if config.n_trees == 0 {
            return Err(ModelError::InvalidConfig(
                "forest needs at least one tree".into(),
            ));
        }
        if xs.is_empty() {
            return Err(ModelError::InsufficientData {
                what: "random forest training".into(),
                available: 0,
                required: 1,
            });
        }
        let n_features = xs[0].len();
        let mut tree_config = config.tree.clone();
        if tree_config.feature_subsample.is_none() {
            // The classic √d default.
            tree_config.feature_subsample =
                Some(((n_features as f64).sqrt().round() as usize).max(1));
        }

        let mut rng = GaussianSampler::seed_from_u64(seed);
        let sample_n = ((xs.len() as f64) * config.bootstrap_fraction)
            .round()
            .max(1.0) as usize;

        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let mut tree_rng = rng.fork(t as u64);
            // Bootstrap resample.
            let mut bx = Vec::with_capacity(sample_n);
            let mut by = Vec::with_capacity(sample_n);
            for _ in 0..sample_n {
                let i = tree_rng.below(xs.len());
                bx.push(xs[i].clone());
                by.push(ys[i]);
            }
            trees.push(DecisionTree::fit(
                &bx,
                &by,
                n_classes,
                &tree_config,
                &mut tree_rng,
            )?);
        }
        Ok(Self { trees, n_classes })
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features every tree reads.
    pub fn n_features(&self) -> usize {
        self.trees.first().map_or(0, DecisionTree::n_features)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The trained trees, in fit order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Averaged class-probability estimate.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        self.predict_proba_into(x, &mut acc);
        acc
    }

    /// [`predict_proba`](Self::predict_proba) written into `out`, which
    /// holds one entry per class ([`n_classes`](Self::n_classes)).
    ///
    /// Accumulates each tree's leaf distribution in place, borrowed
    /// through [`DecisionTree::leaf_dist`]: no allocation.
    pub fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for tree in &self.trees {
            for (a, p) in out.iter_mut().zip(tree.leaf_dist(x)) {
                *a += p;
            }
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            for a in out.iter_mut() {
                *a /= total;
            }
        }
    }

    /// Most likely class.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }

    /// Log-probabilities with an ε floor (for use as HDBN emission scores).
    pub fn predict_log_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes];
        self.predict_log_proba_into(x, &mut out);
        out
    }

    /// [`predict_log_proba`](Self::predict_log_proba) written into `out`
    /// (sized as for [`predict_proba_into`](Self::predict_proba_into)),
    /// mapped in place: no allocation.
    pub fn predict_log_proba_into(&self, x: &[f64], out: &mut [f64]) {
        self.predict_proba_into(x, out);
        for p in out.iter_mut() {
            *p = p.max(1e-6).ln();
        }
    }

    /// Accuracy on a labeled set.
    ///
    /// # Panics
    /// Panics if `xs` and `ys` lengths differ.
    pub fn accuracy(&self, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        assert_eq!(xs.len(), ys.len(), "features vs labels length mismatch");
        if xs.is_empty() {
            return 0.0;
        }
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(seed: u64, n: usize, spread: f64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0)];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let c = i % 4;
            xs.push(vec![
                rng.normal(centers[c].0, spread),
                rng.normal(centers[c].1, spread),
            ]);
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn forest_beats_chance_on_noisy_blobs() {
        let (xs, ys) = blob_data(1, 400, 1.2);
        let (tx, ty) = blob_data(2, 200, 1.2);
        let forest = RandomForest::fit(&xs, &ys, 4, &ForestConfig::default(), 3).unwrap();
        let acc = forest.accuracy(&tx, &ty);
        assert!(acc > 0.8, "test accuracy {acc}");
    }

    #[test]
    fn proba_is_normalized() {
        let (xs, ys) = blob_data(4, 200, 0.5);
        let forest = RandomForest::fit(&xs, &ys, 4, &ForestConfig::default(), 5).unwrap();
        let p = forest.predict_proba(&[2.0, 2.0]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let lp = forest.predict_log_proba(&[2.0, 2.0]);
        assert!(lp.iter().all(|&l| l <= 0.0 && l.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blob_data(6, 150, 0.8);
        let a = RandomForest::fit(&xs, &ys, 4, &ForestConfig::default(), 7).unwrap();
        let b = RandomForest::fit(&xs, &ys, 4, &ForestConfig::default(), 7).unwrap();
        for x in xs.iter().take(30) {
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    fn more_trees_do_not_hurt() {
        let (xs, ys) = blob_data(8, 300, 1.4);
        let (tx, ty) = blob_data(9, 200, 1.4);
        let small = RandomForest::fit(
            &xs,
            &ys,
            4,
            &ForestConfig {
                n_trees: 1,
                ..ForestConfig::default()
            },
            10,
        )
        .unwrap();
        let big = RandomForest::fit(
            &xs,
            &ys,
            4,
            &ForestConfig {
                n_trees: 30,
                ..ForestConfig::default()
            },
            10,
        )
        .unwrap();
        assert!(big.accuracy(&tx, &ty) + 0.05 >= small.accuracy(&tx, &ty));
        assert_eq!(big.n_trees(), 30);
    }

    #[test]
    fn rejects_zero_trees() {
        let (xs, ys) = blob_data(11, 40, 0.5);
        let err = RandomForest::fit(
            &xs,
            &ys,
            4,
            &ForestConfig {
                n_trees: 0,
                ..ForestConfig::default()
            },
            12,
        );
        assert!(matches!(err, Err(ModelError::InvalidConfig(_))));
    }

    #[test]
    fn rejects_empty_data() {
        let err = RandomForest::fit(&[], &[], 2, &ForestConfig::default(), 1);
        assert!(matches!(err, Err(ModelError::InsufficientData { .. })));
    }
}
