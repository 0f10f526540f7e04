//! The four pruning strategies of §VII-G.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Which combination of miners and coupling the engine runs with (Fig 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Strategy {
    /// **NH** — Naive-HMM: exhaustive flat HMM per user over the unpruned
    /// (macro × micro-beam) product state space, with the macro label
    /// classified directly from frame features (no hierarchy, no miners).
    NaiveHmm,
    /// **NCR** — Naive-Correlation: per-user rule pruning (rules whose items
    /// all belong to one user, as in ACE \[1\]) over per-user hierarchical
    /// chains; no inter-user coupling.
    NaiveCorrelation,
    /// **NCS** — Naive-Constraint: the coupled HDBN with the constraint
    /// miner's augmentations but *no* correlation pruning (the full coupled
    /// state space).
    NaiveConstraint,
    /// **C2** — Correlation-Constraint: the full loosely-coupled HDBN with
    /// both miners. The paper's proposed configuration.
    #[default]
    CorrelationConstraint,
}

impl Strategy {
    /// All strategies in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::NaiveHmm,
        Strategy::NaiveCorrelation,
        Strategy::NaiveConstraint,
        Strategy::CorrelationConstraint,
    ];

    /// Whether the correlation miner prunes the state space.
    pub const fn uses_correlation_pruning(self) -> bool {
        matches!(
            self,
            Strategy::NaiveCorrelation | Strategy::CorrelationConstraint
        )
    }

    /// Whether rules are restricted to single-user scope (NCR).
    pub const fn per_user_rules_only(self) -> bool {
        matches!(self, Strategy::NaiveCorrelation)
    }

    /// Whether the two chains are coupled at decode time.
    pub const fn coupled(self) -> bool {
        matches!(
            self,
            Strategy::NaiveConstraint | Strategy::CorrelationConstraint
        )
    }

    /// Whether the hierarchical (constraint-miner) structure is used at all.
    pub const fn hierarchical(self) -> bool {
        !matches!(self, Strategy::NaiveHmm)
    }

    /// Upper bound on the decoder-frontier size this strategy carries per
    /// tick, given the engine's per-user macro count and micro-candidate
    /// caps (`beam` for the structured strategies, `nh_beam` for NH).
    ///
    /// Dominance pruning folds at most this many states per step. The
    /// coupled strategies (NCS, C2) decode one *joint* frontier — the
    /// product of both users' chains — while NH and NCR decode two
    /// independent per-user frontiers, so the bound is per decoded
    /// frontier, not per home.
    pub const fn frontier_bound(self, n_macro: usize, beam: usize, nh_beam: usize) -> usize {
        match self {
            Strategy::NaiveHmm => n_macro * nh_beam,
            Strategy::NaiveCorrelation => n_macro * beam,
            Strategy::NaiveConstraint | Strategy::CorrelationConstraint => {
                (n_macro * beam) * (n_macro * beam)
            }
        }
    }

    /// The paper's abbreviation.
    pub const fn label(self) -> &'static str {
        match self {
            Strategy::NaiveHmm => "NH",
            Strategy::NaiveCorrelation => "NCR",
            Strategy::NaiveConstraint => "NCS",
            Strategy::CorrelationConstraint => "C2",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_matrix_matches_paper() {
        use Strategy::*;
        assert!(!NaiveHmm.uses_correlation_pruning());
        assert!(!NaiveHmm.coupled());
        assert!(!NaiveHmm.hierarchical());

        assert!(NaiveCorrelation.uses_correlation_pruning());
        assert!(NaiveCorrelation.per_user_rules_only());
        assert!(!NaiveCorrelation.coupled());

        assert!(!NaiveConstraint.uses_correlation_pruning());
        assert!(NaiveConstraint.coupled());

        assert!(CorrelationConstraint.uses_correlation_pruning());
        assert!(CorrelationConstraint.coupled());
        assert!(!CorrelationConstraint.per_user_rules_only());
    }

    #[test]
    fn frontier_bounds_match_decoder_shapes() {
        use Strategy::*;
        // CACE defaults: 11 macros, beam 8, NH beam 64.
        assert_eq!(NaiveHmm.frontier_bound(11, 8, 64), 11 * 64);
        assert_eq!(NaiveCorrelation.frontier_bound(11, 8, 64), 88);
        assert_eq!(NaiveConstraint.frontier_bound(11, 8, 64), 88 * 88);
        assert_eq!(CorrelationConstraint.frontier_bound(11, 8, 64), 88 * 88);
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(Strategy::default(), Strategy::CorrelationConstraint);
        let labels: Vec<&str> = Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["NH", "NCR", "NCS", "C2"]);
        assert_eq!(Strategy::NaiveConstraint.to_string(), "NCS");
    }
}
