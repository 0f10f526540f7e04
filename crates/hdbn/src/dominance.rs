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
//! precomputed bound. As soon as a step has written a frontier, the
//! decoders select its survivors
//!
//! ```text
//! keep s  ⇔  v(s) + D₁[q₁(s)][q₁(b)] + D₂[q₂(s)][q₂(b)]  ≥  v(b) − slack
//! ```
//!
//! (one `D` term for the chain and NH families), keep only those, and run
//! the next step's survivor-list kernel over them; the coupled selection
//! works slot pair by slot pair
//! (see below). The step stays exact: frontier bits and
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
//! # The coupled frontier, slot pair by slot pair
//!
//! The coupled decoders hold their frontier factored per destination slot
//! pair ([`JointFrontier`]): state `(j1, j2)` scores
//! `w[s1, s2] + ((f1[j1] + f2[j2]) + g)`, and every state of a slot pair
//! shares `w`, `g` and — its pair ids being the slots' — both `D` terms.
//! The joint selection (`select_joint`) and the frontier's maxima never
//! visit the `m1·m2` states. They rest on one fact: IEEE rounding is
//! monotone (`a ≤ a′ ⇒ fl(a + c) ≤ fl(a′ + c)`), so a sum evaluated in a
//! member's own operation order with larger operands bounds that member's
//! sum.
//!
//! * A slot pair's `top`, `w + ((F1max + F2max) + g)` over its slots'
//!   largest offsets, is at least every member's score, and it *is* the
//!   score of the member holding both largest offsets, bit for bit. The
//!   frontier maximum is the largest `top`, and the first and last
//!   maxima are found among the members of the slot pairs whose `top`
//!   equals it.
//! * The per-state bound `(v + D₁) + D₂` of every member is at most
//!   `(top + D₁) + D₂`, and that is at most `(row_top + D₁) + max D₂`
//!   for the row of slot pairs sharing `s1`. A row or slot pair whose
//!   bound falls below the cut holds no survivor; the members of the rest
//!   are tested one by one, with the test above. The step that wrote the
//!   frontier already dropped the rows whose own bound could not pass
//!   this row test (`viterbi::joint_fold_into`); their `row_top` is NaN
//!   and fails it.
//!
//! These bounds need no slack of their own: they are not estimates of
//! the members' rounded bounds but upper bounds on them, exact in floating
//! point. NaN needs one more step. A sum that becomes NaN stays NaN, and
//! NaN arises only from `∞ − ∞`; if a bound turns NaN at one of its
//! additions, every member's own bound is `−∞` or NaN from there on, so
//! failing the `≥` test drops nothing. A `top` is NaN only when the two
//! largest offsets meet an infinity of the other sign, which no finite
//! input produces; the slot pair's members are then scanned.
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
use crate::viterbi::JointFrontier;

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
    pub fn against(&self, b: u32) -> &[f64] {
        &self.against[b as usize * self.n..][..self.n]
    }

    /// The keep threshold `v(b) − slack` for a frontier maximum `best`,
    /// or `None` when every state must be kept: no finite maximum, or
    /// magnitudes so large that a kernel sum could overflow.
    pub fn cut(&self, best: f64) -> Option<f64> {
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

    /// The cut of a joint selection over `v`, the frontier over
    /// `prev1 × prev2`, against its first maximum, with the `D` terms the
    /// tests read: the chain-2 slots' terms into `d2`, their maximum, and
    /// the chain-1 column. `None` when every state must be kept.
    pub(crate) fn joint_cut<'a>(
        &'a self,
        prev1: &Slice,
        prev2: &Slice,
        v: &JointFrontier,
        d2: &mut Vec<f64>,
    ) -> Option<JointCut<'a>> {
        let k2 = v.axes[1].len();
        let (b, best) = v.first_max();
        let cut = self.cut(best)?;
        let col2 = self.against(prev2.pairs[b % k2]);
        d2.clear();
        d2.extend(v.axes[1].first.iter().map(|&j| slot_d(col2, prev2, j)));
        let d2_max = d2
            .iter()
            .fold(f64::NEG_INFINITY, |m, &d| if d > m { d } else { m });
        Some(JointCut {
            cut,
            d2_max,
            col1: self.against(prev1.pairs[b / k2]),
        })
    }

    /// [`select`](Self::select) for a coupled [`JointFrontier`] over the
    /// states of `prev1 × prev2`, with one `D` term per chain, slot pair
    /// by slot pair: a chain-1 slot's row is skipped when its bound
    /// `(row_top + D₁) + max D₂` fails the cut, a slot pair when
    /// `(top + D₁) + D₂` does, and only the members of the slot pairs that
    /// pass are tested one by one. Writes the survivors ascending into
    /// `keep` and their scores into `keep_v`; `d2` holds the chain-2 slots'
    /// `D` terms and `found` the survivors before their sort.
    ///
    /// Every state of a slot shares its pair id, so `D` is per slot, and a
    /// slot pair's `top` is its largest score: the bounds are the members'
    /// own rounded sums with larger operands, and rounding is monotone, so
    /// they need no slack of their own (see the [module docs](self)).
    ///
    /// Only the rows the step folded are read. A row it left out has a NaN
    /// `row_top`, which fails the row test: the step folds every row whose
    /// bound could pass it, and every row when the cut is undefined (see
    /// [`JointFrontier`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select_joint(
        &self,
        prev1: &Slice,
        prev2: &Slice,
        v: &JointFrontier,
        d2: &mut Vec<f64>,
        found: &mut Vec<(u32, f64)>,
        keep: &mut Vec<u32>,
        keep_v: &mut Vec<f64>,
    ) {
        keep.clear();
        keep_v.clear();
        let [a1, a2] = &v.axes;
        let k2 = a2.len();
        let Some(c) = self.joint_cut(prev1, prev2, v, d2) else {
            for j in 0..v.len() {
                keep.push(j as u32);
                keep_v.push(v.value(j / k2, j % k2));
            }
            return;
        };
        found.clear();
        // A NaN bound fails every test, and rightly: it is `∞ − ∞`, which
        // leaves each member's own bound at `−∞` or NaN.
        for (s1, &row_top) in v.row_top.iter().enumerate() {
            let d1 = c.d1(prev1, v, s1);
            if (row_top + d1) + c.d2_max >= c.cut {
                let tops = v.row_tops(s1).zip(d2.iter()).enumerate();
                let pass = |&(_, (top, &dd)): &(usize, (f64, &f64))| (top + d1) + dd >= c.cut;
                for (s2, (_, &dd)) in tops.filter(pass) {
                    for j1 in a1.members(s1) {
                        for j2 in a2.members(s2) {
                            let x = v.value(j1, j2);
                            if (x + d1) + dd >= c.cut {
                                found.push(((j1 * k2 + j2) as u32, x));
                            }
                        }
                    }
                }
            }
        }
        found.sort_unstable_by_key(|&(j, _)| j);
        keep.extend(found.iter().map(|&(j, _)| j));
        keep_v.extend(found.iter().map(|&(_, x)| x));
    }
}

/// The `D` term of a slot whose lowest member is state `first` of `prev`:
/// every state of a slot has the slot's pair id.
fn slot_d(col: &[f64], prev: &Slice, first: u32) -> f64 {
    col[prev.pairs[first as usize] as usize]
}

/// A joint selection's cut and the `D` terms its row test reads (see
/// [`Dominance::joint_cut`]).
pub(crate) struct JointCut<'a> {
    /// The keep threshold `v(b) − slack`.
    pub(crate) cut: f64,
    /// The largest chain-2 slot's `D` term.
    pub(crate) d2_max: f64,
    /// `D[·][q₁(b)]`, by source pair id.
    col1: &'a [f64],
}

impl JointCut<'_> {
    /// The `D` term of chain-1 slot `s1` of `v`, the frontier over `prev1`.
    pub(crate) fn d1(&self, prev1: &Slice, v: &JointFrontier, s1: usize) -> f64 {
        slot_d(self.col1, prev1, v.axes[0].first[s1])
    }
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
