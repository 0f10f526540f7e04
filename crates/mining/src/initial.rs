//! User-provided initial rules.
//!
//! The paper's "Base application" is a smartphone interface through which a
//! resident walks the apartment, touches each instrumented object, and
//! defines semantic correlation rules by hand ("select correlated low- and
//! high-level activities … and click Set"). Fig 12 shows these initial
//! rules improving both accuracy and overhead before enough training data
//! accumulates.
//!
//! This module constructs that same starter rule set programmatically from
//! the CACE vocabulary: one venue+posture ⇒ activity rule per activity with
//! an unambiguous venue, plus the bathroom exclusivity.

use cace_model::{MacroActivity, Postural, SubLocation};

use crate::item::{Atom, AtomSpace, Item};
use crate::rules::{NegativeRule, Rule, RuleSet};

/// Builds the CACE initial rule set (both users, current time).
pub fn initial_cace_rules() -> RuleSet {
    let space = AtomSpace::cace();
    let mut rules = Vec::new();

    // Venue + characteristic posture ⇒ activity, for the activities whose
    // primary venue is unambiguous (exactly the ones a resident would define
    // through the app: bike ⇒ exercising, bed ⇒ sleeping, …).
    let definitions: [(MacroActivity, SubLocation, Postural); 6] = [
        (
            MacroActivity::Exercising,
            SubLocation::ExerciseBike,
            Postural::Cycling,
        ),
        (MacroActivity::Sleeping, SubLocation::Bed, Postural::Lying),
        (
            MacroActivity::Studying,
            SubLocation::ReadingTable,
            Postural::Sitting,
        ),
        (
            MacroActivity::Dining,
            SubLocation::DiningTable,
            Postural::Sitting,
        ),
        (
            MacroActivity::Bathrooming,
            SubLocation::Bathroom,
            Postural::Standing,
        ),
        (
            MacroActivity::WatchingTv,
            SubLocation::Couch1,
            Postural::Sitting,
        ),
    ];

    for user in 0..2u8 {
        for (activity, venue, posture) in definitions {
            let mut antecedent = vec![
                space.encode(Item {
                    user,
                    lag: 0,
                    atom: Atom::Location(venue.index() as u16),
                }),
                space.encode(Item {
                    user,
                    lag: 0,
                    atom: Atom::Postural(posture.index() as u16),
                }),
            ];
            antecedent.sort_unstable();
            rules.push(Rule {
                antecedent,
                consequent: space.encode(Item {
                    user,
                    lag: 0,
                    atom: Atom::Macro(activity.index() as u16),
                }),
                support: 0.05, // nominal: user-asserted, not mined
                confidence: 1.0,
            });
        }
    }

    let mut set = RuleSet::new(space.clone(), rules);

    // Bathroom exclusivity, both directions.
    let bath = SubLocation::Bathroom.index() as u16;
    let negatives = vec![
        NegativeRule {
            if_item: space.encode(Item {
                user: 0,
                lag: 0,
                atom: Atom::Location(bath),
            }),
            then_not: space.encode(Item {
                user: 1,
                lag: 0,
                atom: Atom::Location(bath),
            }),
            support: 0.05,
        },
        NegativeRule {
            if_item: space.encode(Item {
                user: 1,
                lag: 0,
                atom: Atom::Location(bath),
            }),
            then_not: space.encode(Item {
                user: 0,
                lag: 0,
                atom: Atom::Location(bath),
            }),
            support: 0.05,
        },
    ];
    set.set_negatives(negatives);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::{CandidateTick, PruningEngine};

    #[test]
    fn initial_rules_cover_both_users() {
        let set = initial_cace_rules();
        assert_eq!(set.rules().len(), 12); // 6 definitions × 2 users
        assert_eq!(set.negatives().len(), 2);
        assert_eq!(set.len(), 14);
        for rule in set.rules() {
            assert_eq!(rule.confidence, 1.0);
            assert_eq!(rule.antecedent.len(), 2);
        }
    }

    #[test]
    fn initial_rules_prune_like_mined_rules() {
        let set = initial_cace_rules();
        let space = set.space().clone();
        let engine = PruningEngine::new(set);
        let mut tick = CandidateTick::full(&space);
        // User 1 cycling at SR1 → exercising identified.
        let mut evidence = vec![
            space.encode(Item {
                user: 0,
                lag: 0,
                atom: Atom::Location(SubLocation::ExerciseBike.index() as u16),
            }),
            space.encode(Item {
                user: 0,
                lag: 0,
                atom: Atom::Postural(Postural::Cycling.index() as u16),
            }),
        ];
        evidence.sort_unstable();
        let report = engine.prune(&evidence, &mut tick);
        assert!(report.positive_fired >= 1);
        assert_eq!(
            tick.users[0].macros.iter().collect::<Vec<_>>(),
            vec![MacroActivity::Exercising.index()]
        );
    }

    #[test]
    fn bathroom_exclusivity_is_bidirectional() {
        let set = initial_cace_rules();
        let space = set.space().clone();
        let engine = PruningEngine::new(set);
        let bath = SubLocation::Bathroom.index();
        for user in 0..2usize {
            let mut tick = CandidateTick::full(&space);
            let evidence = vec![space.encode(Item {
                user: user as u8,
                lag: 0,
                atom: Atom::Location(bath as u16),
            })];
            engine.prune(&evidence, &mut tick);
            assert!(
                !tick.users[1 - user].locations.contains(bath),
                "user {user} in bathroom must exclude partner"
            );
        }
    }
}
