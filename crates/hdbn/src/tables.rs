//! Dense precomputed score tables: the decode-path view of
//! [`HdbnParams`].
//!
//! The naive scoring methods ([`HdbnParams::transition_score`],
//! [`HdbnParams::hierarchy_score`], [`HdbnParams::coupling_score`]) branch
//! on the continue-vs-switch case and chase two levels of `Vec<Vec<f64>>`
//! pointers per evaluation. Every decoder tick re-evaluates them across the
//! whole frontier even though the (activity, postural) alphabet is small,
//! model-fixed, and identical across ticks, sessions, and homes. A
//! [`ScoreTables`] folds the entire transition kernel into one flat dense
//! matrix over compact *pair ids* at model-build time:
//!
//! ```text
//! pair(a, p)        = a * n_postural + p          (compact state id)
//! trans[src][dst]   = transition_score(a_src, p_src, a_dst, p_dst)
//!                     stored flat, src-major:  trans[src * n_pair + dst]
//!                     and dst-major (`into_row`): trans_to[dst * n_pair + src]
//! cooc[a1][a2]      = coupling_score(a1, a2)     flat, n_macro stride
//! post/gest/loc[a]  = the hierarchy emission rows, flat
//! ```
//!
//! so the hot path is a single indexed load per edge — no branch, no
//! nested indirection — and a decoder's per-`j` transition column is a
//! gather from one contiguous `n_pair`-entry row that stays in L1. Each
//! table entry is *copied* from the naive scorer (built by calling it), so
//! table scoring is bit-identical to direct scoring by construction;
//! `tests/score_tables.rs` holds every entry and every decode path to
//! that.
//!
//! Next to the transition kernel sits its [`Dominance`] table, the bound
//! the exact decoders prune their frontiers with ([`crate::dominance`]).
//!
//! Tables are a pure function of the parameters, so persistence never
//! stores them: deserializing [`HdbnParams`] rebuilds
//! them through `HdbnParams::new`, bit-identically:
//!
//! ```
//! use cace_hdbn::{HdbnConfig, HdbnParams};
//! use serde::{Deserialize, Serialize};
//! # use cace_mining::constraint::{ConstraintMiner, LabeledSequence};
//! # let macros: Vec<usize> = (0..400).map(|i| (i / 10) % 2).collect();
//! # let n = macros.len();
//! # let seq = LabeledSequence {
//! #     macros: [macros.clone(), macros.clone()],
//! #     posturals: [macros.clone(), macros.clone()],
//! #     gesturals: [vec![0; n], vec![0; n]],
//! #     locations: [macros.clone(), macros],
//! # };
//! # let stats = ConstraintMiner {
//! #     laplace: 0.1, n_macro: 2, n_postural: 2, n_gestural: 2, n_location: 2,
//! # }.mine(&[seq]).unwrap();
//! let params = HdbnParams::new(stats, HdbnConfig::default()).unwrap();
//!
//! // Persist only (stats, config); the dense tables are derived state.
//! let reloaded = HdbnParams::deserialize(&params.serialize()).unwrap();
//!
//! // The rebuilt tables are bit-identical to the originals...
//! assert_eq!(reloaded.tables, params.tables);
//! // ...and every entry equals the naive scorer it was built from.
//! let t = &reloaded.tables;
//! let src = t.pair(0, 1);
//! let dst = t.pair(1, 0);
//! assert_eq!(t.transition(src, dst), params.transition_score(0, 1, 1, 0));
//! ```

use crate::dominance::Dominance;
use crate::params::HdbnParams;

/// Dense flat score tables over compact `(activity, postural)` pair ids —
/// see the [module docs](self) for the memory layout.
///
/// Built once per model by [`HdbnParams::new`] (and therefore rebuilt on
/// every snapshot load), shared read-only by all decoders through the
/// params `Arc`, bit-identical to the naive scorers, and never persisted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreTables {
    n_macro: usize,
    n_postural: usize,
    n_gestural: usize,
    n_location: usize,
    /// `n_macro * n_postural` — the compact pair-id space.
    n_pair: usize,
    /// Transition kernel, src-major: `trans[src * n_pair + dst]`.
    trans: Vec<f64>,
    /// Transition kernel, dst-major: `trans_to[dst * n_pair + src]` — the
    /// orientation the fold kernels gather from (`into_row`).
    trans_to: Vec<f64>,
    /// Inter-user coupling, flat: `cooc[a1 * n_macro + a2]`.
    cooc: Vec<f64>,
    /// `log P(postural | macro)` rows, flat: `post[a * n_postural + p]`.
    post: Vec<f64>,
    /// `log P(gestural | macro)` rows, flat.
    gest: Vec<f64>,
    /// `log P(location | macro)` rows, flat.
    loc: Vec<f64>,
    /// Switch scores, dst-major: `switch_to[a * n_macro + ap]` is the
    /// transition score `ap → a` for `ap ≠ a` — which is independent of
    /// both posturals (`log_end[ap] + log_switch[ap][a]`), the low-rank
    /// structure the fold kernels exploit. Diagonal entries are `−∞`
    /// (a same-activity step is a *continue*, scored through `trans`).
    switch_to: Vec<f64>,
    /// Dominance table over `trans` — the exact decoders' survivor
    /// selection ([`crate::dominance`]).
    dominance: Dominance,
}

impl ScoreTables {
    /// Builds the dense tables by evaluating the naive scorers over the
    /// whole compact alphabet — every entry is a bitwise copy of the
    /// corresponding [`HdbnParams`] score.
    pub(crate) fn build(p: &HdbnParams) -> Self {
        let n_macro = p.stats.n_macro;
        let n_postural = p.stats.n_postural;
        let n_gestural = p.stats.n_gestural;
        let n_location = p.stats.n_location;
        let n_pair = n_macro * n_postural;

        let mut trans = vec![0.0; n_pair * n_pair];
        let mut trans_to = vec![0.0; n_pair * n_pair];
        for ap in 0..n_macro {
            for pp in 0..n_postural {
                let src = ap * n_postural + pp;
                for a in 0..n_macro {
                    for pn in 0..n_postural {
                        let dst = a * n_postural + pn;
                        let score = p.transition_score(ap, pp, a, pn);
                        trans[src * n_pair + dst] = score;
                        trans_to[dst * n_pair + src] = score;
                    }
                }
            }
        }

        let mut cooc = vec![0.0; n_macro * n_macro];
        for a1 in 0..n_macro {
            for a2 in 0..n_macro {
                cooc[a1 * n_macro + a2] = p.coupling_score(a1, a2);
            }
        }

        let mut switch_to = vec![f64::NEG_INFINITY; n_macro * n_macro];
        for a in 0..n_macro {
            for ap in 0..n_macro {
                if ap != a {
                    // Postural-independent: any postural pair gives the
                    // same switch score; 0 is always in range.
                    switch_to[a * n_macro + ap] = p.transition_score(ap, 0, a, 0);
                }
            }
        }

        let dominance = Dominance::build(n_pair, |src, dst| trans[src * n_pair + dst]);

        let flatten = |rows: &[Vec<f64>]| -> Vec<f64> {
            rows.iter().flat_map(|r| r.iter().copied()).collect()
        };
        Self {
            n_macro,
            n_postural,
            n_gestural,
            n_location,
            n_pair,
            trans,
            trans_to,
            cooc,
            post: flatten(&p.log_post),
            gest: flatten(&p.log_gest),
            loc: flatten(&p.log_loc),
            switch_to,
            dominance,
        }
    }

    /// Number of compact pair ids (`n_macro * n_postural`).
    #[inline]
    pub fn n_pair(&self) -> usize {
        self.n_pair
    }

    /// Compact pair id of `(activity, postural)`.
    #[inline]
    pub fn pair(&self, activity: usize, postural: usize) -> u32 {
        (activity * self.n_postural + postural) as u32
    }

    /// Transition score between two pair ids — the single indexed load the
    /// decoders perform per trellis edge
    /// (`== HdbnParams::transition_score` on the decoded pairs, bitwise).
    #[inline]
    pub fn transition(&self, src: u32, dst: u32) -> f64 {
        self.trans[src as usize * self.n_pair + dst as usize]
    }

    /// The dst-major transition row *into* `dst`: `row[src]` is the score
    /// of `src → dst`. One contiguous `n_pair`-entry slice per decoder
    /// column build.
    #[inline]
    pub fn into_row(&self, dst: u32) -> &[f64] {
        let d = dst as usize * self.n_pair;
        &self.trans_to[d..d + self.n_pair]
    }

    /// The src-major transition row *out of* `src`: `row[dst]` is the
    /// score of `src → dst` (the backward pass's contiguous view).
    #[inline]
    pub fn from_row(&self, src: u32) -> &[f64] {
        let s = src as usize * self.n_pair;
        &self.trans[s..s + self.n_pair]
    }

    /// The dominance table over the transition kernel.
    #[inline]
    pub fn dominance(&self) -> &Dominance {
        &self.dominance
    }

    /// Macro activity of a pair id.
    #[inline]
    pub fn activity_of(&self, pair: u32) -> usize {
        pair as usize / self.n_postural
    }

    /// The switch-score row *into* macro `a`, indexed by previous macro:
    /// `row[ap]` is the `ap → a` transition score for `ap ≠ a`
    /// (postural-independent; the diagonal is `−∞` and never read by the
    /// kernels, which score same-activity steps through [`Self::into_row`]).
    #[inline]
    pub fn switch_row(&self, a: usize) -> &[f64] {
        &self.switch_to[a * self.n_macro..(a + 1) * self.n_macro]
    }

    /// Inter-user coupling score (`== HdbnParams::coupling_score`,
    /// bitwise).
    #[inline]
    pub fn coupling(&self, activity_u1: usize, activity_u2: usize) -> f64 {
        self.cooc[activity_u1 * self.n_macro + activity_u2]
    }

    /// Hierarchical emission score of a micro tuple
    /// (`== HdbnParams::hierarchy_score`, bitwise: same addends, same
    /// order).
    #[inline]
    pub fn hierarchy(
        &self,
        activity: usize,
        postural: usize,
        gestural: Option<usize>,
        location: usize,
    ) -> f64 {
        let mut score = self.post[activity * self.n_postural + postural]
            + self.loc[activity * self.n_location + location];
        if let Some(g) = gestural {
            score += self.gest[activity * self.n_gestural + g];
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use crate::params::tests::toy_stats;
    use crate::params::{HdbnConfig, HdbnParams};

    #[test]
    fn every_table_entry_matches_the_naive_scorer() {
        for config in [
            HdbnConfig::default(),
            HdbnConfig::uncoupled(),
            HdbnConfig {
                coupling_weight: 3.0,
                hierarchy_weight: 0.25,
                persistence_bonus: 0.7,
            },
        ] {
            let p = HdbnParams::new(toy_stats(), config).unwrap();
            let t = &p.tables;
            let (nm, np) = (p.stats.n_macro, p.stats.n_postural);
            for ap in 0..nm {
                for pp in 0..np {
                    let src = t.pair(ap, pp);
                    for a in 0..nm {
                        for pn in 0..np {
                            let dst = t.pair(a, pn);
                            let naive = p.transition_score(ap, pp, a, pn);
                            assert_eq!(t.transition(src, dst), naive);
                            assert_eq!(t.into_row(dst)[src as usize], naive);
                        }
                    }
                }
            }
            for a1 in 0..nm {
                for a2 in 0..nm {
                    assert_eq!(t.coupling(a1, a2), p.coupling_score(a1, a2));
                }
            }
            // The switch row is the postural-independent slice of the
            // transition kernel: identical across every postural combo.
            for a in 0..nm {
                for ap in 0..nm {
                    if ap == a {
                        continue;
                    }
                    for pp in 0..np {
                        for pn in 0..np {
                            assert_eq!(t.switch_row(a)[ap], p.transition_score(ap, pp, a, pn));
                        }
                    }
                }
            }
            for a in 0..nm {
                for post in 0..np {
                    for loc in 0..p.stats.n_location {
                        assert_eq!(
                            t.hierarchy(a, post, None, loc),
                            p.hierarchy_score(a, post, None, loc)
                        );
                        for g in 0..p.stats.n_gestural {
                            assert_eq!(
                                t.hierarchy(a, post, Some(g), loc),
                                p.hierarchy_score(a, post, Some(g), loc)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_ids_are_macro_major() {
        let p = HdbnParams::new(toy_stats(), HdbnConfig::default()).unwrap();
        assert_eq!(p.tables.n_pair(), 4);
        assert_eq!(p.tables.pair(0, 0), 0);
        assert_eq!(p.tables.pair(0, 1), 1);
        assert_eq!(p.tables.pair(1, 0), 2);
    }
}
