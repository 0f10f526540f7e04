//! The correlation miner's runtime half: deterministic state-space pruning.
//!
//! §V-B of the paper: mined rules "eliminate various infeasible state
//! combination\[s\] from the HDBN". Candidates are kept factorized per user —
//! a macro-activity set plus per-dimension micro sets — so the joint state
//! count is the product the paper's complexity argument is about, and rule
//! application is a cheap set restriction.

use serde::{Deserialize, Serialize};

use crate::item::{Atom, AtomSpace, ItemId};
use crate::rules::RuleSet;

/// Factorized candidate sets for one user at one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserCandidates {
    /// Allowed macro activities.
    pub macros: Vec<bool>,
    /// Allowed postural states.
    pub posturals: Vec<bool>,
    /// Allowed gestural states.
    pub gesturals: Vec<bool>,
    /// Allowed sub-locations.
    pub locations: Vec<bool>,
}

impl UserCandidates {
    /// Everything allowed.
    pub fn full(space: &AtomSpace) -> Self {
        Self {
            macros: vec![true; space.n_macro],
            posturals: vec![true; space.n_postural],
            gesturals: vec![true; space.n_gestural],
            locations: vec![true; space.n_location],
        }
    }

    fn dim_mut(&mut self, atom: Atom) -> (&mut Vec<bool>, usize) {
        match atom {
            Atom::Macro(i) => (&mut self.macros, i as usize),
            Atom::Postural(i) => (&mut self.posturals, i as usize),
            Atom::Gestural(i) => (&mut self.gesturals, i as usize),
            Atom::Location(i) => (&mut self.locations, i as usize),
            Atom::Room(_) => unreachable!("rooms are expanded before dispatch"),
        }
    }

    /// Restricts a dimension to exactly one value. Returns how many
    /// candidates were removed; refuses (returns 0) when the value is
    /// already excluded — evidence conflicts must not empty the space here.
    pub fn restrict(&mut self, space: &AtomSpace, atom: Atom) -> usize {
        if let Atom::Room(r) = atom {
            // A room consequent keeps every sub-location inside the room.
            let mut removed = 0;
            let allowed_any = self
                .locations
                .iter()
                .enumerate()
                .any(|(l, &ok)| ok && space.loc_to_room[l] == r as usize);
            if !allowed_any {
                return 0;
            }
            for (l, slot) in self.locations.iter_mut().enumerate() {
                if *slot && space.loc_to_room[l] != r as usize {
                    *slot = false;
                    removed += 1;
                }
            }
            return removed;
        }
        let (dim, idx) = self.dim_mut(atom);
        if idx >= dim.len() || !dim[idx] {
            return 0;
        }
        let mut removed = 0;
        for (i, slot) in dim.iter_mut().enumerate() {
            if i != idx && *slot {
                *slot = false;
                removed += 1;
            }
        }
        removed
    }

    /// Forbids one value. Returns whether it was removed. Refuses to empty a
    /// dimension (the last candidate survives).
    pub fn forbid(&mut self, space: &AtomSpace, atom: Atom) -> bool {
        if let Atom::Room(r) = atom {
            // Forbid every sub-location inside the room, keeping ≥ 1 overall.
            let mut any = false;
            for l in 0..self.locations.len() {
                if space.loc_to_room[l] == r as usize {
                    any |= self.forbid(space, Atom::Location(l as u16));
                }
            }
            return any;
        }
        let (dim, idx) = self.dim_mut(atom);
        if idx >= dim.len() || !dim[idx] {
            return false;
        }
        if dim.iter().filter(|&&b| b).count() <= 1 {
            return false; // never empty a dimension
        }
        dim[idx] = false;
        true
    }

    /// Number of allowed micro tuples (product of micro dimensions).
    pub fn micro_size(&self) -> usize {
        let count = |v: &Vec<bool>| v.iter().filter(|&&b| b).count();
        count(&self.posturals) * count(&self.gesturals) * count(&self.locations)
    }

    /// Number of allowed (macro, micro) states.
    pub fn joint_size(&self) -> usize {
        self.macros.iter().filter(|&&b| b).count() * self.micro_size()
    }

    /// Whether any dimension has been emptied.
    pub fn any_empty(&self) -> bool {
        [
            &self.macros,
            &self.posturals,
            &self.gesturals,
            &self.locations,
        ]
        .iter()
        .any(|d| d.iter().all(|&b| !b))
    }

    /// Indices of allowed values in a dimension.
    pub fn allowed(dim: &[bool]) -> Vec<usize> {
        Self::allowed_iter(dim).collect()
    }

    /// [`allowed`](Self::allowed), without collecting.
    pub fn allowed_iter(dim: &[bool]) -> impl Iterator<Item = usize> + '_ {
        dim.iter().enumerate().filter(|&(_, &b)| b).map(|(i, _)| i)
    }
}

/// The joint candidate space at one tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateTick {
    /// Per-user candidate sets.
    pub users: [UserCandidates; 2],
}

impl CandidateTick {
    /// Everything allowed for both users.
    pub fn full(space: &AtomSpace) -> Self {
        Self {
            users: [UserCandidates::full(space), UserCandidates::full(space)],
        }
    }

    /// Joint state count across both users (the paper's explosion metric).
    pub fn joint_size(&self) -> u128 {
        self.users.iter().map(|u| u.joint_size() as u128).product()
    }
}

/// Outcome of one pruning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// How many positive rules fired.
    pub positive_fired: usize,
    /// How many negative rules fired.
    pub negative_fired: usize,
    /// Candidate entries removed across all dimensions.
    pub removed: usize,
}

/// Fired-rule indices of one [`PruningEngine::prune`] call fit this stack
/// array; a tick that could fire more puts the same buffer on the heap.
const FIRED_STACK: usize = 64;

/// The deterministic pruning engine.
///
/// Rules are indexed at construction: each positive rule under the first
/// item of its antecedent (a rule fires only if that item is in the
/// evidence), each negative rule under its trigger. A tick then looks up
/// only the rules keyed by its evidence items instead of scanning the
/// whole rule set, and applies them in rule-set order, so the outcome is
/// the linear scan's.
#[derive(Debug, Clone)]
pub struct PruningEngine {
    rules: RuleSet,
    /// `(first antecedent, rule index)`, sorted. Rules whose consequent
    /// cannot prune at run time (undecodable, or a lag-1 item) are left
    /// out: the scan skips them anyway.
    positive_index: Vec<(ItemId, usize)>,
    /// Positive rules with an empty antecedent: they fire on any evidence.
    unconditional: Vec<usize>,
    /// `(trigger, negative rule index)`, sorted, under the same filter.
    negative_index: Vec<(ItemId, usize)>,
}

/// Whether `id` decodes to a current-tick item (the only kind a rule
/// consequent can prune).
fn prunes_now(space: &AtomSpace, id: ItemId) -> bool {
    space.decode(id).is_some_and(|item| item.lag == 0)
}

/// The `index` entries keyed by `key` (the index is sorted by key).
fn keyed(index: &[(ItemId, usize)], key: ItemId) -> &[(ItemId, usize)] {
    let lo = index.partition_point(|&(k, _)| k < key);
    let hi = index.partition_point(|&(k, _)| k <= key);
    &index[lo..hi]
}

/// `evidence` without repeats (it is sorted).
fn distinct(evidence: &[ItemId]) -> impl Iterator<Item = ItemId> + '_ {
    evidence
        .iter()
        .enumerate()
        .filter(|&(i, e)| i == 0 || evidence[i - 1] != *e)
        .map(|(_, &e)| e)
}

impl PruningEngine {
    /// Wraps a mined (or user-provided) rule set and indexes it.
    pub fn new(rules: RuleSet) -> Self {
        let space = rules.space();
        let mut positive_index = Vec::new();
        let mut unconditional = Vec::new();
        for (i, rule) in rules.rules().iter().enumerate() {
            if !prunes_now(space, rule.consequent) {
                continue;
            }
            match rule.antecedent.first() {
                Some(&first) => positive_index.push((first, i)),
                None => unconditional.push(i),
            }
        }
        let mut negative_index: Vec<(ItemId, usize)> = rules
            .negatives()
            .iter()
            .enumerate()
            .filter(|(_, neg)| prunes_now(space, neg.then_not))
            .map(|(i, neg)| (neg.if_item, i))
            .collect();
        positive_index.sort_unstable();
        negative_index.sort_unstable();
        Self {
            rules,
            positive_index,
            unconditional,
            negative_index,
        }
    }

    /// The rule set in use.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Applies every applicable rule to the tick's candidates.
    ///
    /// `evidence` is the sorted list of items known true around this tick
    /// (observed micro states at `t` and the committed states at `t − 1`).
    /// Rules fire on observed facts only, never on another rule's
    /// conclusion, so one pass in rule-set order reaches the fixed point.
    pub fn prune(&self, evidence: &[ItemId], tick: &mut CandidateTick) -> PruneReport {
        debug_assert!(
            evidence.windows(2).all(|w| w[0] <= w[1]),
            "evidence must be sorted"
        );
        let space = self.rules.space();
        let positive_bound = self.unconditional.len()
            + distinct(evidence)
                .map(|e| keyed(&self.positive_index, e).len())
                .sum::<usize>();
        let negative_bound: usize = distinct(evidence)
            .map(|e| keyed(&self.negative_index, e).len())
            .sum();
        let mut stack = [0usize; FIRED_STACK];
        let mut heap = Vec::new();
        let buf: &mut [usize] = if positive_bound + negative_bound <= FIRED_STACK {
            &mut stack[..positive_bound + negative_bound]
        } else {
            heap.resize(positive_bound + negative_bound, 0);
            &mut heap
        };
        let (positive_buf, negative_buf) = buf.split_at_mut(positive_bound);

        // Which rules fire depends only on the evidence: gather them, then
        // apply them in rule-set order.
        let mut n_positive = 0;
        let keyed_positive = distinct(evidence).flat_map(|e| keyed(&self.positive_index, e));
        for i in self
            .unconditional
            .iter()
            .copied()
            .chain(keyed_positive.map(|&(_, i)| i))
        {
            if self.rules.rules()[i].fires_on(evidence) {
                positive_buf[n_positive] = i;
                n_positive += 1;
            }
        }
        let positives = &mut positive_buf[..n_positive];
        positives.sort_unstable();
        let keyed_negative = distinct(evidence).flat_map(|e| keyed(&self.negative_index, e));
        for (slot, &(_, i)) in negative_buf.iter_mut().zip(keyed_negative) {
            *slot = i;
        }
        negative_buf.sort_unstable();

        // One pass is the fixed point. The evidence stays fixed and rules
        // only shrink candidate sets, so a rule that restricted (or was
        // refused, or found nothing to remove) keeps finding nothing on a
        // second pass; a forbid refused as the last value stays refused.
        let mut report = PruneReport::default();
        for &i in positives.iter() {
            let rule = &self.rules.rules()[i];
            let Some(item) = space.decode(rule.consequent) else {
                continue;
            };
            let removed = tick.users[item.user as usize].restrict(space, item.atom);
            if removed > 0 {
                report.positive_fired += 1;
                report.removed += removed;
            }
        }
        for &i in negative_buf.iter() {
            let neg = &self.rules.negatives()[i];
            let Some(item) = space.decode(neg.then_not) else {
                continue;
            };
            if tick.users[item.user as usize].forbid(space, item.atom) {
                report.negative_fired += 1;
                report.removed += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::rules::{NegativeRule, Rule};

    fn space() -> AtomSpace {
        AtomSpace::cace()
    }

    fn enc(s: &AtomSpace, user: u8, atom: Atom) -> ItemId {
        s.encode(Item { user, lag: 0, atom })
    }

    fn engine_with(s: &AtomSpace, rules: Vec<Rule>, negatives: Vec<NegativeRule>) -> PruningEngine {
        let mut set = RuleSet::new(s.clone(), rules);
        set.set_negatives(negatives);
        PruningEngine::new(set)
    }

    #[test]
    fn full_tick_size_matches_model() {
        let s = space();
        let tick = CandidateTick::full(&s);
        // 11 macro × (6 × 5 × 14) micro per user.
        assert_eq!(tick.users[0].joint_size(), 11 * 420);
        assert_eq!(tick.joint_size(), (11u128 * 420).pow(2));
        assert!(!tick.users[0].any_empty());
    }

    #[test]
    fn positive_rule_restricts_macro() {
        let s = space();
        let cycling = enc(&s, 0, Atom::Postural(3));
        let sr1 = enc(&s, 0, Atom::Location(0));
        let mut ants = vec![cycling, sr1];
        ants.sort_unstable();
        let rule = Rule {
            antecedent: ants,
            consequent: enc(&s, 0, Atom::Macro(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule], vec![]);

        let mut tick = CandidateTick::full(&s);
        let mut evidence = vec![cycling, sr1];
        evidence.sort_unstable();
        let report = engine.prune(&evidence, &mut tick);
        assert_eq!(report.positive_fired, 1);
        assert_eq!(UserCandidates::allowed(&tick.users[0].macros), vec![0]);
        // User 2 untouched.
        assert_eq!(tick.users[1].macros.iter().filter(|&&b| b).count(), 11);
        // Joint size shrank by 11×.
        assert_eq!(tick.joint_size(), 420 * (11u128 * 420));
    }

    #[test]
    fn rule_does_not_fire_without_full_antecedent() {
        let s = space();
        let cycling = enc(&s, 0, Atom::Postural(3));
        let sr1 = enc(&s, 0, Atom::Location(0));
        let mut ants = vec![cycling, sr1];
        ants.sort_unstable();
        let rule = Rule {
            antecedent: ants,
            consequent: enc(&s, 0, Atom::Macro(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule], vec![]);
        let mut tick = CandidateTick::full(&s);
        let report = engine.prune(&[cycling], &mut tick);
        assert_eq!(report.positive_fired, 0);
        assert_eq!(tick.joint_size(), (11u128 * 420).pow(2));
    }

    #[test]
    fn negative_rule_forbids_partner_bathroom() {
        let s = space();
        let u1_bath = enc(&s, 0, Atom::Location(8));
        let u2_bath = enc(&s, 1, Atom::Location(8));
        let neg = NegativeRule {
            if_item: u1_bath,
            then_not: u2_bath,
            support: 0.2,
        };
        let engine = engine_with(&s, vec![], vec![neg]);

        let mut tick = CandidateTick::full(&s);
        let report = engine.prune(&[u1_bath], &mut tick);
        assert_eq!(report.negative_fired, 1);
        assert!(
            !tick.users[1].locations[8],
            "partner bathroom must be pruned"
        );
        assert_eq!(tick.users[1].locations.iter().filter(|&&b| b).count(), 13);
    }

    #[test]
    fn room_consequent_restricts_to_room_sublocations() {
        let s = space();
        let trigger = enc(&s, 0, Atom::Postural(2));
        // room 0 = living room (6 sub-locations).
        let rule = Rule {
            antecedent: vec![trigger],
            consequent: enc(&s, 0, Atom::Room(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule], vec![]);
        let mut tick = CandidateTick::full(&s);
        engine.prune(&[trigger], &mut tick);
        let allowed = UserCandidates::allowed(&tick.users[0].locations);
        assert_eq!(allowed.len(), 6);
        assert!(allowed.iter().all(|&l| s.loc_to_room[l] == 0));
    }

    #[test]
    fn conflicting_restriction_is_refused() {
        let s = space();
        let trigger = enc(&s, 0, Atom::Postural(0));
        let rule_a = Rule {
            antecedent: vec![trigger],
            consequent: enc(&s, 0, Atom::Macro(2)),
            support: 0.1,
            confidence: 1.0,
        };
        let rule_b = Rule {
            antecedent: vec![trigger],
            consequent: enc(&s, 0, Atom::Macro(5)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule_a, rule_b], vec![]);
        let mut tick = CandidateTick::full(&s);
        engine.prune(&[trigger], &mut tick);
        // First rule restricted to {2}; second would contradict and is
        // refused; space never empties.
        assert!(!tick.users[0].any_empty());
        assert_eq!(UserCandidates::allowed(&tick.users[0].macros), vec![2]);
    }

    #[test]
    fn forbid_never_empties_a_dimension() {
        let s = space();
        let mut cand = UserCandidates::full(&s);
        // Forbid all but one location; the final forbid must refuse.
        for l in 0..13u16 {
            assert!(cand.forbid(&s, Atom::Location(l)));
        }
        assert!(!cand.forbid(&s, Atom::Location(13)));
        assert_eq!(UserCandidates::allowed(&cand.locations), vec![13]);
    }

    #[test]
    fn paper_example_watching_tv_cascade() {
        // The §V-B walkthrough: livingroom occupancy + sitting identifies
        // watchingTV (macro 3) for user A, walking identifies jogging-like
        // exercising for B — here we verify at least that two rules fire in
        // one pass and both users' spaces shrink.
        let s = space();
        let u1_sitting = enc(&s, 0, Atom::Postural(2));
        let u1_room = enc(&s, 0, Atom::Room(0));
        let u2_walking = enc(&s, 1, Atom::Postural(0));
        let mut a1 = vec![u1_sitting, u1_room];
        a1.sort_unstable();
        let rule1 = Rule {
            antecedent: a1,
            consequent: enc(&s, 0, Atom::Macro(3)), // watching TV
            support: 0.1,
            confidence: 1.0,
        };
        let rule2 = Rule {
            antecedent: vec![u2_walking],
            consequent: enc(&s, 1, Atom::Room(0)),
            support: 0.1,
            confidence: 1.0,
        };
        let engine = engine_with(&s, vec![rule1, rule2], vec![]);
        let mut tick = CandidateTick::full(&s);
        let mut evidence = vec![u1_sitting, u1_room, u2_walking];
        evidence.sort_unstable();
        let before = tick.joint_size();
        let report = engine.prune(&evidence, &mut tick);
        assert_eq!(report.positive_fired, 2);
        assert!(tick.joint_size() < before / 10, "cascade should cut ≥ 10×");
    }
}
