//! CART decision trees with Gini impurity.

use cace_model::ModelError;
use cace_signal::GaussianSampler;
use serde::{Deserialize, Serialize};

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_split: usize,
    /// Number of candidate features per split (`None` = all features).
    pub feature_subsample: Option<usize>,
    /// Number of candidate thresholds per feature (quantile-spaced).
    pub threshold_candidates: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_split: 4,
            feature_subsample: None,
            threshold_candidates: 16,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Class-probability distribution at the leaf.
        dist: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A trained CART classifier.
///
/// Serializable so trained models can be persisted and served without
/// re-training (the `CaceEngine` snapshot embeds its forests). Reading one
/// checks it (see [`TryFrom<TreeFields>`](#impl-TryFrom<TreeFields>-for-DecisionTree)),
/// so a tree that reads `Ok` cannot panic or loop when it predicts.
#[derive(Debug, Clone, Serialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
}

/// A [`DecisionTree`]'s serialized fields, as read before they are
/// checked.
#[derive(Deserialize)]
pub struct TreeFields {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
}

impl TryFrom<TreeFields> for DecisionTree {
    type Error = String;

    /// Accepts exactly the trees [`DecisionTree::fit`] can build: at least
    /// one class and one node; every split on a feature below
    /// `n_features`, with both children in range and after it (`fit`
    /// builds in preorder, so a walk from the root only moves forward and
    /// always ends at a leaf); every leaf `n_classes` finite, non-negative
    /// probabilities.
    fn try_from(fields: TreeFields) -> Result<Self, String> {
        let TreeFields {
            nodes,
            n_classes,
            n_features,
        } = fields;
        if n_classes == 0 || nodes.is_empty() {
            return Err("a decision tree needs a class and a node".into());
        }
        for (i, node) in nodes.iter().enumerate() {
            match node {
                Node::Leaf { dist } => {
                    if dist.len() != n_classes || !dist.iter().all(|p| p.is_finite() && *p >= 0.0) {
                        return Err(format!(
                            "tree leaf {i}: not {n_classes} finite, non-negative probabilities"
                        ));
                    }
                }
                Node::Split {
                    feature,
                    left,
                    right,
                    ..
                } => {
                    if *feature >= n_features {
                        return Err(format!("tree split {i}: feature {feature} of {n_features}"));
                    }
                    if [left, right].iter().any(|&&c| c <= i || c >= nodes.len()) {
                        return Err(format!(
                            "tree split {i}: children {left}, {right} must lie in {}..{}",
                            i + 1,
                            nodes.len()
                        ));
                    }
                }
            }
        }
        Ok(Self {
            nodes,
            n_classes,
            n_features,
        })
    }
}

impl Deserialize for DecisionTree {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        Self::try_from(TreeFields::deserialize(value)?).map_err(serde::Error::msg)
    }
}

fn gini(counts: &[f64], total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / total).powi(2)).sum::<f64>()
}

impl DecisionTree {
    /// Fits a tree on `xs` (rows of equal length) with labels `ys` in
    /// `0..n_classes`.
    ///
    /// # Errors
    /// Returns [`ModelError::InsufficientData`] when `xs` is empty,
    /// [`ModelError::LengthMismatch`] when `xs` and `ys` disagree, and
    /// [`ModelError::InvalidConfig`] on malformed rows or labels.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[usize],
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut GaussianSampler,
    ) -> Result<Self, ModelError> {
        if xs.is_empty() {
            return Err(ModelError::InsufficientData {
                what: "decision tree training".into(),
                available: 0,
                required: 1,
            });
        }
        if xs.len() != ys.len() {
            return Err(ModelError::LengthMismatch {
                what: "features vs labels".into(),
                left: xs.len(),
                right: ys.len(),
            });
        }
        let n_features = xs[0].len();
        if xs.iter().any(|row| row.len() != n_features) {
            return Err(ModelError::InvalidConfig("ragged feature rows".into()));
        }
        if ys.iter().any(|&y| y >= n_classes) {
            return Err(ModelError::InvalidConfig("label out of range".into()));
        }

        let mut tree = Self {
            nodes: Vec::new(),
            n_classes,
            n_features,
        };
        let indices: Vec<usize> = (0..xs.len()).collect();
        tree.build(xs, ys, indices, 0, config, rng);
        Ok(tree)
    }

    fn leaf(&mut self, ys: &[usize], indices: &[usize]) -> usize {
        let mut dist = vec![0.0; self.n_classes];
        for &i in indices {
            dist[ys[i]] += 1.0;
        }
        let total: f64 = dist.iter().sum();
        if total > 0.0 {
            for d in &mut dist {
                *d /= total;
            }
        }
        self.nodes.push(Node::Leaf { dist });
        self.nodes.len() - 1
    }

    fn build(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[usize],
        indices: Vec<usize>,
        depth: usize,
        config: &TreeConfig,
        rng: &mut GaussianSampler,
    ) -> usize {
        // Stop: depth, size, or purity.
        let first = ys[indices[0]];
        let pure = indices.iter().all(|&i| ys[i] == first);
        if depth >= config.max_depth || indices.len() < config.min_split || pure {
            return self.leaf(ys, &indices);
        }

        let (feature, threshold, gain) = self.best_split(xs, ys, &indices, config, rng);
        if gain <= 1e-12 {
            return self.leaf(ys, &indices);
        }

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| xs[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return self.leaf(ys, &indices);
        }

        // Reserve the split node, then build children.
        self.nodes.push(Node::Leaf { dist: vec![] }); // placeholder
        let me = self.nodes.len() - 1;
        let left = self.build(xs, ys, left_idx, depth + 1, config, rng);
        let right = self.build(xs, ys, right_idx, depth + 1, config, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    fn best_split(
        &self,
        xs: &[Vec<f64>],
        ys: &[usize],
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut GaussianSampler,
    ) -> (usize, f64, f64) {
        let total = indices.len() as f64;
        let mut parent_counts = vec![0.0; self.n_classes];
        for &i in indices {
            parent_counts[ys[i]] += 1.0;
        }
        let parent_gini = gini(&parent_counts, total);

        // Choose candidate features.
        let mut features: Vec<usize> = (0..self.n_features).collect();
        if let Some(m) = config.feature_subsample {
            rng.shuffle(&mut features);
            features.truncate(m.max(1).min(self.n_features));
        }

        let mut best = (0usize, 0.0f64, -1.0f64);
        let mut values: Vec<f64> = Vec::with_capacity(indices.len());
        for &f in &features {
            values.clear();
            values.extend(indices.iter().map(|&i| xs[i][f]));
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            let k = config.threshold_candidates.min(values.len() - 1).max(1);
            for c in 0..k {
                // Quantile-spaced candidate boundaries between distinct values.
                let pos = (c + 1) * (values.len() - 1) / (k + 1).max(1);
                let pos = pos.min(values.len() - 2);
                let threshold = 0.5 * (values[pos] + values[pos + 1]);

                let mut left_counts = vec![0.0; self.n_classes];
                let mut left_n = 0.0;
                for &i in indices {
                    if xs[i][f] <= threshold {
                        left_counts[ys[i]] += 1.0;
                        left_n += 1.0;
                    }
                }
                let right_n = total - left_n;
                if left_n == 0.0 || right_n == 0.0 {
                    continue;
                }
                let right_counts: Vec<f64> = parent_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(p, l)| p - l)
                    .collect();
                let child = (left_n / total) * gini(&left_counts, left_n)
                    + (right_n / total) * gini(&right_counts, right_n);
                let gain = parent_gini - child;
                if gain > best.2 {
                    best = (f, threshold, gain);
                }
            }
        }
        best
    }

    /// Number of classes the tree predicts over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of input features expected.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of tree nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Class-probability estimate for one sample.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the training feature count.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.leaf_dist(x).to_vec()
    }

    /// The class distribution of the leaf `x` falls into, borrowed from
    /// the tree (what [`predict_proba`](Self::predict_proba) copies out).
    ///
    /// # Panics
    /// Panics if `x` does not have the training feature count.
    pub fn leaf_dist(&self, x: &[f64]) -> &[f64] {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { dist } => return dist,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Most likely class for one sample.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_proba(x))
    }
}

pub(crate) fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_data(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = GaussianSampler::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let centers = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)];
        for i in 0..n {
            let c = i % 3;
            xs.push(vec![
                rng.normal(centers[c].0, 0.6),
                rng.normal(centers[c].1, 0.6),
            ]);
            ys.push(c);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_blobs() {
        let (xs, ys) = blob_data(1, 300);
        let mut rng = GaussianSampler::seed_from_u64(2);
        let tree = DecisionTree::fit(&xs, &ys, 3, &TreeConfig::default(), &mut rng).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| tree.predict(x) == y)
            .count();
        let acc = correct as f64 / xs.len() as f64;
        assert!(acc > 0.95, "training accuracy {acc}");
    }

    #[test]
    fn learns_xor() {
        // XOR needs at least depth 2 — a pure axis-aligned single split fails.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut rng = GaussianSampler::seed_from_u64(3);
        for _ in 0..200 {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            xs.push(vec![
                if a { 1.0 } else { 0.0 } + rng.normal(0.0, 0.05),
                if b { 1.0 } else { 0.0 } + rng.normal(0.0, 0.05),
            ]);
            ys.push(usize::from(a ^ b));
        }
        let tree = DecisionTree::fit(&xs, &ys, 2, &TreeConfig::default(), &mut rng).unwrap();
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| tree.predict(x) == y)
            .count() as f64
            / xs.len() as f64;
        assert!(acc > 0.95, "XOR accuracy {acc}");
    }

    #[test]
    fn proba_sums_to_one() {
        let (xs, ys) = blob_data(4, 120);
        let mut rng = GaussianSampler::seed_from_u64(5);
        let tree = DecisionTree::fit(&xs, &ys, 3, &TreeConfig::default(), &mut rng).unwrap();
        for x in xs.iter().take(20) {
            let p = tree.predict_proba(x);
            assert_eq!(p.len(), 3);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn depth_limit_is_respected() {
        let (xs, ys) = blob_data(6, 200);
        let mut rng = GaussianSampler::seed_from_u64(7);
        let shallow = DecisionTree::fit(
            &xs,
            &ys,
            3,
            &TreeConfig {
                max_depth: 1,
                ..TreeConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        // Depth 1 means at most 3 nodes (root + 2 leaves).
        assert!(shallow.node_count() <= 3, "nodes {}", shallow.node_count());
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = GaussianSampler::seed_from_u64(8);
        assert!(matches!(
            DecisionTree::fit(&[], &[], 2, &TreeConfig::default(), &mut rng),
            Err(ModelError::InsufficientData { .. })
        ));
        assert!(matches!(
            DecisionTree::fit(&[vec![1.0]], &[0, 1], 2, &TreeConfig::default(), &mut rng),
            Err(ModelError::LengthMismatch { .. })
        ));
        assert!(matches!(
            DecisionTree::fit(&[vec![1.0]], &[5], 2, &TreeConfig::default(), &mut rng),
            Err(ModelError::InvalidConfig(_))
        ));
        assert!(matches!(
            DecisionTree::fit(
                &[vec![1.0], vec![1.0, 2.0]],
                &[0, 1],
                2,
                &TreeConfig::default(),
                &mut rng
            ),
            Err(ModelError::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_class_collapses_to_leaf() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![1, 1, 1];
        let mut rng = GaussianSampler::seed_from_u64(9);
        let tree = DecisionTree::fit(&xs, &ys, 2, &TreeConfig::default(), &mut rng).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[10.0]), 1);
    }

    #[test]
    fn reading_checks_splits_children_and_leaves() {
        let (xs, ys) = blob_data(10, 60);
        let mut rng = GaussianSampler::seed_from_u64(10);
        let tree = DecisionTree::fit(&xs, &ys, 3, &TreeConfig::default(), &mut rng).unwrap();
        let text = serde::json::to_string(&tree);
        let back: DecisionTree = serde::json::from_str(&text).unwrap();
        assert_eq!(serde::json::to_string(&back), text);
        for (from, to) in [
            (r#""left":1,"#, r#""left":0,"#),
            (r#"{"Split":{"feature":"#, r#"{"Split":{"feature":2,"x":"#),
            (r#"{"Leaf":{"dist":["#, r#"{"Leaf":{"dist":[-1.0,"#),
            (r#""n_classes":3"#, r#""n_classes":4"#),
        ] {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "{from}: tamper target must exist");
            let read: Result<DecisionTree, _> = serde::json::from_str(&edited);
            assert!(read.is_err(), "{to}: accepted");
        }
    }

    #[test]
    fn argmax_behavior() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[]), 0);
    }
}
