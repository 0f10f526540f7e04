//! Exact dominance pruning of trellis frontiers.
//!
//! Every exact DP step maximizes, per destination `d`, the score
//! `v(s) + T(q(s) → d)` over the previous frontier's states `s` (one
//! transition term per chain; the coupled joint step adds two). Most of
//! those sources provably cannot win any destination: with the per-model
//! table
//!
//! ```text
//! D[q][b] = max over d of  T(q → d) − T(b → d)
//! ```
//!
//! a state `s` whose bound `v(s) + D[q(s)][q(b)]` falls below the frontier
//! maximum `v(b)` scores below `b` into *every* destination, so it can be
//! neither a maximum nor a first argmax. The idea is CarpeDiem (Esposito &
//! Radicioni, *CarpeDiem: Optimizing the Viterbi Algorithm and
//! Applications to Supervised Sequential Learning*, JMLR 2009) with a
//! precomputed bound. Before each step the decoders select the survivors
//!
//! ```text
//! keep s  ⇔  v(s) + D₁[q₁(s)][q₁(b)] + D₂[q₂(s)][q₂(b)]  ≥  v(b) − slack
//! ```
//!
//! (one `D` term for the chain and NH families) and run the survivor-list
//! kernel over them. The step stays exact: frontier bits and
//! backpointers equal those of the same kernel over the whole frontier,
//! which `tests/dominance_differential.rs` checks state by state against
//! the naive references `cace_testkit::toy::{naive_step,
//! naive_joint_step}`.
//!
//! # Why the step stays bit-identical
//!
//! * **Ties.** The test is `≥`, so every source that ties `b` survives, and
//!   first-argmax tie-breaking sees the same candidates. A switch run
//!   collapses to `v(s*)` plus the switch score, `s*` its first-maximum
//!   source; if that candidate can win a destination, `s*` scores at least
//!   `b`'s into it and survives, so the pruned run collapses to the same
//!   candidate.
//! * **Rounding.** The kernels round each addition: `(v + f₂) + f₁` in the
//!   joint kernel, `v + T` in the chain kernel, and the bound itself is
//!   rounded. `slack` absorbs all of it, so a pruned state scores
//!   *strictly* below `b` in floating point too. Write `u = 2⁻⁵³` and
//!   `t = ` the largest finite `|T|` of the model, so `|D| ≤ 2t`.
//!   Rounding is monotone, so the pruned states of one pair id are all
//!   below the largest pruned value `v̂`, and both the bound and the
//!   kernel score grow with `v(s)`: it is enough to check `v(s) = v̂`,
//!   where `|v̂| ≤ V = |v(b)| + 4t + slack`. There, each rounded sum is
//!   within `u` of its magnitude:
//!   - computed `D` undershoots the true difference by at most `4ut`;
//!   - the bound `(v + D₁) + D₂` is off by at most `3u(V + 5t)`;
//!   - the cut `v(b) − slack` is off by at most `u(|v(b)| + slack)`;
//!   - a kernel score `(v + f₂) + f₁` is off by at most `3u(V + 2t)`, and
//!     `b`'s own by at most `3u(|v(b)| + 2t)`.
//!
//!   Summed, a pruned state is strictly below `b` whenever
//!   `slack ≥ 10u·|v(b)| + 55u·t + 7u·slack`. The decoders use
//!   `slack = 2⁻⁴⁴ (|v(b)| + 4t)`, which covers that 32 times over and
//!   costs nothing in pruning power (`|v(b)| ≈ 10³` gives `slack ≈ 10⁻¹⁰`).
//!   Sums with a subnormal result are exact, so the bound holds there as
//!   well, and a slack that underflows to 0 only happens when every sum
//!   is exact.
//! * **Infinities.** A `−∞` `T(q → d)` contributes nothing to the max; a
//!   finite `T(q → d)` against a `−∞` `T(b → d)` makes the entry `+∞`
//!   (the state might win where `b` cannot go), and a pair with no finite
//!   outgoing transition gets `−∞` (it can win nothing). The table never
//!   holds a NaN. A bound of `+∞ + −∞` is NaN and fails the `≥` test,
//!   which is right: one chain of that state reaches no destination.
//!   A `+∞` or NaN transition score makes every entry `+∞`, and a
//!   frontier without a finite maximum, or magnitudes near `f64::MAX`,
//!   keep every state. In those cases the step folds the whole frontier.
//! * **Destinations nobody reaches.** A destination whose every candidate
//!   scores `−∞` gets backpointer 0, whichever survivors were folded.
//!
//! # Accounting
//!
//! Selection changes how much work a step does, not what the overhead
//! experiments charge: `transition_ops` keeps the dense convention
//! (`k₁·k₂·(m₁+m₂)` for the joint step, `|S(t−1)|·|S(t)|` for a chain), so
//! Fig 11 and the overhead tables do not depend on the data's ambiguity.
//! The online decoders report the survivor count of their last step as a
//! separate gauge (`last_survivors`).

use crate::arena::Slice;
use crate::scalar::fold_max;
use crate::trellis::StateSpace;

/// Scale of the selection slack relative to `|v(b)| + 4t` — see the
/// [module docs](self) for the derivation (`2⁻⁴⁴`).
const SLACK: f64 = 1.0 / (1u64 << 44) as f64;

/// The per-model dominance table `D[q][b] = max_d T(q → d) − T(b → d)`
/// over source pair ids, plus the largest finite `|T|` the selection slack
/// scales with.
///
/// A pure function of the transition table: built next to it, never
/// persisted, and rebuilt wherever the tables are (snapshot load,
/// adaptation publish). Holds no NaN, so `PartialEq` is reflexive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dominance {
    n: usize,
    /// `against[b * n + q] = D[q][b]`: the column of one reference pair
    /// is contiguous, because a selection fixes `b` and scans every `q`.
    against: Vec<f64>,
    /// Largest finite `|T(q → d)|`.
    t_max: f64,
}

impl Dominance {
    /// Builds the table over `n` pair ids from a transition score
    /// `t(src, dst)`, in `O(n³)`.
    pub fn build(n: usize, t: impl Fn(usize, usize) -> f64) -> Self {
        let trans: Vec<f64> = (0..n * n).map(|i| t(i / n, i % n)).collect();
        let t_max = trans
            .iter()
            .filter(|x| x.is_finite())
            .fold(0.0f64, |m, x| m.max(x.abs()));
        let unbounded = trans.iter().any(|&x| x.is_nan() || x == f64::INFINITY);
        let mut against = vec![f64::INFINITY; n * n];
        if !unbounded {
            for b in 0..n {
                let row_b = &trans[b * n..][..n];
                for q in 0..n {
                    let row_q = &trans[q * n..][..n];
                    let mut d = f64::NEG_INFINITY;
                    for (&tq, &tb) in row_q.iter().zip(row_b) {
                        if tq == f64::NEG_INFINITY {
                            continue;
                        }
                        // Finite `tq` here, so the difference is finite or
                        // `+∞` (against a `−∞` `tb`), never NaN.
                        d = d.max(tq - tb);
                    }
                    against[b * n + q] = d;
                }
            }
        }
        Self { n, against, t_max }
    }

    /// The column `D[·][b]`, indexed by source pair id.
    fn against(&self, b: u32) -> &[f64] {
        &self.against[b as usize * self.n..][..self.n]
    }

    /// The keep threshold `v(b) − slack` for a frontier maximum `best`,
    /// or `None` when every state must be kept: no finite maximum, or
    /// magnitudes so large that a kernel sum could overflow.
    fn cut(&self, best: f64) -> Option<f64> {
        let scale = best.abs() + 4.0 * self.t_max;
        (best.is_finite() && scale <= f64::MAX / 16.0).then_some(best - SLACK * scale)
    }

    /// Selects the survivors of a chain-shaped frontier `v` over the
    /// states of `prev` into `keep` (ascending): every state when the cut
    /// is undefined.
    pub fn select<Sp: StateSpace>(&self, prev: &Sp, v: &[f64], keep: &mut Vec<u32>) {
        keep.clear();
        let (best, b) = fold_max(v);
        let Some(cut) = self.cut(best) else {
            keep.extend(0..v.len() as u32);
            return;
        };
        let col = self.against(prev.pair(b as usize));
        for (j, &x) in v.iter().enumerate() {
            if x + col[prev.pair(j) as usize] >= cut {
                keep.push(j as u32);
            }
        }
    }

    /// [`select`](Self::select) for the coupled joint frontier
    /// `v[j1 * |prev2| + j2]`, with one `D` term per chain. `d2` is
    /// scratch for the chain-2 column.
    pub(crate) fn select_joint(
        &self,
        prev1: &Slice,
        prev2: &Slice,
        v: &[f64],
        d2: &mut Vec<f64>,
        keep: &mut Vec<u32>,
    ) {
        keep.clear();
        let (best, b) = fold_max(v);
        let Some(cut) = self.cut(best) else {
            keep.extend(0..v.len() as u32);
            return;
        };
        let k2 = prev2.len();
        let (b1, b2) = (b as usize / k2, b as usize % k2);
        let col1 = self.against(prev1.pairs[b1]);
        let col2 = self.against(prev2.pairs[b2]);
        d2.clear();
        d2.extend(prev2.pairs.iter().map(|&q| col2[q as usize]));
        for (j1, row) in v.chunks_exact(k2).enumerate() {
            let d1 = col1[prev1.pairs[j1] as usize];
            // Most rows hold no survivor: a lane-folded row maximum of the
            // bound rules them out before the per-state scan.
            if row_max_bound(row, d1, d2) < cut {
                continue;
            }
            let base = (j1 * k2) as u32;
            for (j2, (&x, &dd)) in row.iter().zip(d2.iter()).enumerate() {
                if (x + d1) + dd >= cut {
                    keep.push(base + j2 as u32);
                }
            }
        }
    }
}

/// `max over j of (row[j] + d1) + d2[j]`, 8-wide (NaN bounds never win),
/// with the per-state bound's exact operation order.
#[inline(never)]
fn row_max_bound(row: &[f64], d1: f64, d2: &[f64]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [f64::NEG_INFINITY; LANES];
    let (row_chunks, row_tail) = row.split_at(row.len() / LANES * LANES);
    let (d2_chunks, d2_tail) = d2.split_at(row_chunks.len());
    for (xs, ds) in row_chunks
        .chunks_exact(LANES)
        .zip(d2_chunks.chunks_exact(LANES))
    {
        for l in 0..LANES {
            let b = (xs[l] + d1) + ds[l];
            acc[l] = if b > acc[l] { b } else { acc[l] };
        }
    }
    let mut best = f64::NEG_INFINITY;
    for (&x, &dd) in row_tail.iter().zip(d2_tail) {
        let b = (x + d1) + dd;
        best = if b > best { b } else { best };
    }
    acc.into_iter().fold(best, |m, b| if b > m { b } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEG: f64 = f64::NEG_INFINITY;

    impl Dominance {
        /// `D[q][b]`.
        fn get(&self, q: u32, b: u32) -> f64 {
            self.against(b)[q as usize]
        }
    }

    #[test]
    fn entries_follow_the_infinity_rules() {
        // t(src, dst) over three pair ids; pair 2 reaches nothing, and
        // nothing but pair 1 reaches destination 1.
        let t = [[-1.0, NEG, -2.0], [-3.0, -0.5, NEG], [NEG, NEG, NEG]];
        let dom = Dominance::build(3, |s, d| t[s][d]);
        assert_eq!(dom.get(0, 0), 0.0);
        assert_eq!(dom.get(0, 1), f64::INFINITY, "finite vs −∞ into dst 2");
        assert_eq!(dom.get(1, 0), f64::INFINITY, "finite vs −∞ into dst 1");
        assert_eq!(dom.get(1, 1), 0.0);
        assert_eq!(dom.get(2, 0), NEG, "no finite outgoing transition");
        assert_eq!(dom.get(0, 2), f64::INFINITY);
        assert_eq!(dom.t_max, 3.0);
        assert!(dom.against.iter().all(|d| !d.is_nan()));
    }

    #[test]
    fn unbounded_scores_disable_pruning() {
        let dom = Dominance::build(2, |s, d| if s == d { f64::INFINITY } else { -1.0 });
        assert!(dom.against.iter().all(|&d| d == f64::INFINITY));
        let dom = Dominance::build(2, |s, d| if s == d { f64::NAN } else { -1.0 });
        assert!(dom.against.iter().all(|&d| d == f64::INFINITY));
    }

    #[test]
    fn cut_needs_a_finite_maximum() {
        let dom = Dominance::build(1, |_, _| -2.0);
        assert_eq!(dom.cut(NEG), None);
        assert_eq!(dom.cut(f64::INFINITY), None);
        assert_eq!(dom.cut(f64::MAX), None);
        let cut = dom.cut(-100.0).unwrap();
        assert!(cut < -100.0 && cut > -100.0 - 1e-9);
        // An all-zero model at a zero maximum needs no slack at all.
        assert_eq!(Dominance::build(1, |_, _| 0.0).cut(0.0), Some(0.0));
    }
}
