//! # cace-mining
//!
//! The Constraints-And-Correlations mining engine that gives CACE its name.
//!
//! Four pieces (paper §IV–V):
//!
//! * [`apriori`] — classic Apriori frequent-itemset mining and association-
//!   rule generation with `minSup = 4 %` and `minConf = 99 %` over context
//!   transactions spanning both users at `t` and `t − 1`.
//! * [`rules`] — the rule language (Table IV semantics) over a runtime-sized
//!   [`AtomSpace`], so the same machinery serves the 11-activity CACE
//!   vocabulary and the 15-activity CASAS vocabulary.
//! * [`correlation`] — the deterministic pruning engine: positive rules
//!   (`cycling ∧ SR1 ⇒ exercising`) restrict candidate sets; negative
//!   exclusivity rules (`U1:SR9 ⇒ ¬U2:SR9`), mined as never-co-occurring
//!   frequent item pairs, cut joint states.
//! * [`constraint`] — the probabilistic constraint miner: intra-/inter-user
//!   transition and co-occurrence statistics, durations, and hierarchical
//!   micro-given-macro CPTs that parameterize the loosely-coupled HDBN.
//!
//! ```
//! use cace_mining::{AtomSpace, Transaction, AprioriConfig, mine_rules};
//! use cace_mining::item::{Atom, Item};
//!
//! let space = AtomSpace::cace();
//! // Toy corpus: cycling at SR1 always means exercising.
//! let mut corpus = Vec::new();
//! for _ in 0..100 {
//!     let items = vec![
//!         space.encode(Item { user: 0, lag: 0, atom: Atom::Postural(3) }),
//!         space.encode(Item { user: 0, lag: 0, atom: Atom::Location(0) }),
//!         space.encode(Item { user: 0, lag: 0, atom: Atom::Macro(0) }),
//!     ];
//!     corpus.push(Transaction::new(items));
//! }
//! let rules = mine_rules(&corpus, &space, &AprioriConfig::paper_default());
//! assert!(!rules.rules().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod constraint;
pub mod correlation;
pub mod initial;
pub mod item;
pub mod rules;

pub use apriori::{mine_frequent_itemsets, mine_rules, AprioriConfig};
pub use constraint::{ConstraintMiner, HierarchicalStats};
pub use correlation::{CandidateTick, Mask, PruningEngine, UserCandidates};
pub use initial::initial_cace_rules;
pub use item::{Atom, AtomSpace, Item, ItemId, Transaction};
pub use rules::{NegativeRule, Rule, RuleSet};
