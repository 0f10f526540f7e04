//! The correlation miner's runtime half: deterministic state-space pruning.
//!
//! §V-B of the paper: mined rules "eliminate various infeasible state
//! combination\[s\] from the HDBN". Candidates are kept factorized per user —
//! a macro-activity set plus per-dimension micro sets — so the joint state
//! count is the product the paper's complexity argument is about. Each set
//! is a [`Mask`], one bit per value of its dimension (at most
//! [`Mask::CAPACITY`] values), so applying a rule is a word operation.
//!
//! [`PruningEngine`] holds each rule's antecedent as a bitset over the
//! space's items and each consequent as the user, dimension and values it
//! names; a tick's evidence becomes a bitset too, and a rule fires iff
//! `antecedent & !evidence == 0`.

use std::fmt;
use std::ops::BitAnd;

use crate::item::{Atom, AtomSpace, ItemId};
use crate::rules::RuleSet;

/// The allowed values of one candidate dimension, one bit per value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Mask(u64);

impl Mask {
    /// Most values a dimension can hold.
    pub const CAPACITY: usize = 64;

    /// No value.
    pub const EMPTY: Mask = Mask(0);

    /// Values `0..n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`CAPACITY`](Self::CAPACITY).
    pub fn full(n: usize) -> Self {
        assert!(
            n <= Self::CAPACITY,
            "a candidate dimension holds at most {} values, not {n}",
            Self::CAPACITY
        );
        Mask(if n == Self::CAPACITY {
            u64::MAX
        } else {
            (1 << n) - 1
        })
    }

    /// Value `i` alone; empty when `i` is past the capacity, as no
    /// dimension can hold it.
    pub fn single(i: usize) -> Self {
        if i < Self::CAPACITY {
            Mask(1 << i)
        } else {
            Self::EMPTY
        }
    }

    /// Whether value `i` is allowed.
    pub fn contains(self, i: usize) -> bool {
        !(self & Self::single(i)).is_empty()
    }

    /// Number of allowed values.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether no value is allowed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The values of `self` not in `other`.
    pub fn without(self, other: Mask) -> Self {
        Mask(self.0 & !other.0)
    }

    /// The highest allowed value alone (empty for an empty mask).
    fn highest(self) -> Self {
        match self.0.checked_ilog2() {
            Some(i) => Mask(1 << i),
            None => Self::EMPTY,
        }
    }

    /// The allowed values, ascending.
    pub fn iter(self) -> MaskIter {
        MaskIter(self.0)
    }
}

impl BitAnd for Mask {
    type Output = Mask;
    fn bitand(self, other: Mask) -> Mask {
        Mask(self.0 & other.0)
    }
}

impl FromIterator<usize> for Mask {
    /// The mask of the given values; values past the capacity are left out.
    fn from_iter<I: IntoIterator<Item = usize>>(values: I) -> Self {
        let singles = values.into_iter().map(Mask::single);
        singles.fold(Mask::EMPTY, |m, v| Mask(m.0 | v.0))
    }
}

impl IntoIterator for Mask {
    type Item = usize;
    type IntoIter = MaskIter;
    fn into_iter(self) -> MaskIter {
        self.iter()
    }
}

impl fmt::Debug for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The values of a [`Mask`], ascending.
#[derive(Debug, Clone)]
pub struct MaskIter(u64);

impl Iterator for MaskIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for MaskIter {}

/// One candidate dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    Macro,
    Postural,
    Gestural,
    Location,
}

/// The dimension and values an atom names: one value, or for a room every
/// sub-location inside it.
fn target(space: &AtomSpace, atom: Atom) -> (Dim, Mask) {
    match atom {
        Atom::Macro(i) => (Dim::Macro, Mask::single(i.into())),
        Atom::Postural(i) => (Dim::Postural, Mask::single(i.into())),
        Atom::Gestural(i) => (Dim::Gestural, Mask::single(i.into())),
        Atom::Location(i) => (Dim::Location, Mask::single(i.into())),
        Atom::Room(r) => {
            let inside = space.loc_to_room.iter().enumerate();
            let room = inside.filter(|&(_, &room)| room == usize::from(r));
            (Dim::Location, room.map(|(l, _)| l).collect())
        }
    }
}

/// Restricts `dim` to `keep`. Returns how many values were removed;
/// refuses (returns 0) when `keep` names no allowed value — evidence
/// conflicts must not empty the space here.
fn restrict(dim: &mut Mask, keep: Mask) -> usize {
    if (*dim & keep).is_empty() {
        return 0;
    }
    let removed = dim.without(keep).len();
    *dim = *dim & keep;
    removed
}

/// Forbids `values` in `dim` one at a time, ascending, each refused when
/// it is the last value left. Returns whether any was removed.
fn forbid(dim: &mut Mask, values: Mask) -> bool {
    let hit = *dim & values;
    if hit.is_empty() {
        return false;
    }
    let rest = dim.without(values);
    *dim = if rest.is_empty() {
        // Every allowed value is forbidden: the ascending removals stop at
        // the highest.
        hit.highest()
    } else {
        rest
    };
    hit.len() > 1 || !rest.is_empty()
}

/// Factorized candidate sets for one user at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserCandidates {
    /// Allowed macro activities.
    pub macros: Mask,
    /// Allowed postural states.
    pub posturals: Mask,
    /// Allowed gestural states.
    pub gesturals: Mask,
    /// Allowed sub-locations.
    pub locations: Mask,
}

impl UserCandidates {
    /// Everything allowed.
    ///
    /// # Panics
    /// Panics if a vocabulary of `space` exceeds [`Mask::CAPACITY`].
    pub fn full(space: &AtomSpace) -> Self {
        Self {
            macros: Mask::full(space.n_macro),
            posturals: Mask::full(space.n_postural),
            gesturals: Mask::full(space.n_gestural),
            locations: Mask::full(space.n_location),
        }
    }

    fn dim_mut(&mut self, dim: Dim) -> &mut Mask {
        match dim {
            Dim::Macro => &mut self.macros,
            Dim::Postural => &mut self.posturals,
            Dim::Gestural => &mut self.gesturals,
            Dim::Location => &mut self.locations,
        }
    }

    /// Restricts a dimension to exactly one value (a room: to the
    /// sub-locations inside it). Returns how many candidates were removed;
    /// refuses (returns 0) when the value is already excluded — evidence
    /// conflicts must not empty the space here.
    pub fn restrict(&mut self, space: &AtomSpace, atom: Atom) -> usize {
        let (dim, keep) = target(space, atom);
        restrict(self.dim_mut(dim), keep)
    }

    /// Forbids one value (a room: each sub-location inside it, ascending).
    /// Returns whether any was removed. Refuses to empty a dimension (the
    /// last candidate survives).
    pub fn forbid(&mut self, space: &AtomSpace, atom: Atom) -> bool {
        let (dim, values) = target(space, atom);
        forbid(self.dim_mut(dim), values)
    }

    /// Number of allowed micro tuples (product of micro dimensions).
    pub fn micro_size(&self) -> usize {
        self.posturals.len() * self.gesturals.len() * self.locations.len()
    }

    /// Number of allowed (macro, micro) states.
    pub fn joint_size(&self) -> usize {
        self.macros.len() * self.micro_size()
    }

    /// Whether any dimension has been emptied.
    pub fn any_empty(&self) -> bool {
        [self.macros, self.posturals, self.gesturals, self.locations]
            .iter()
            .any(|d| d.is_empty())
    }
}

/// The joint candidate space at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateTick {
    /// Per-user candidate sets.
    pub users: [UserCandidates; 2],
}

impl CandidateTick {
    /// Everything allowed for both users.
    ///
    /// # Panics
    /// As [`UserCandidates::full`].
    pub fn full(space: &AtomSpace) -> Self {
        let user = UserCandidates::full(space);
        Self { users: [user; 2] }
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

/// Words of an [`ItemSet`]: room for the items of a space whose macro
/// vocabulary fills a [`Mask`] (`4 · (64 + 31)` items with the CACE micro
/// and room vocabularies).
const ITEM_WORDS: usize = 6;

/// A set of item ids of one space, one bit per item.
#[derive(Debug, Clone, Copy, Default)]
struct ItemSet([u64; ITEM_WORDS]);

impl ItemSet {
    /// The set of `items`; `None` when one lies outside the space's
    /// `n_items` (no evidence a tick builds can hold it).
    fn of(items: &[ItemId], n_items: usize) -> Option<Self> {
        let mut set = Self::default();
        for &ItemId(id) in items {
            if id as usize >= n_items {
                return None;
            }
            set.insert(id as usize);
        }
        Some(set)
    }

    fn insert(&mut self, id: usize) {
        self.0[id / 64] |= 1 << (id % 64);
    }

    /// Whether every item of `other` is in `self`.
    #[inline]
    fn covers(&self, other: &ItemSet) -> bool {
        self.0
            .iter()
            .zip(&other.0)
            .all(|(&have, &need)| need & !have == 0)
    }

    /// The items, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.0.iter().enumerate();
        words.flat_map(|(w, &bits)| MaskIter(bits).map(move |b| w * 64 + b))
    }
}

/// Fired-rule indices of one [`PruningEngine::prune`] call fit this stack
/// array; a tick that could fire more puts the same buffer on the heap.
const FIRED_STACK: usize = 64;

/// A rule consequent that prunes at run time: a current-tick item,
/// decoded once into the user, dimension and values it names.
#[derive(Debug, Clone, Copy)]
struct Consequent {
    user: usize,
    dim: Dim,
    values: Mask,
}

impl Consequent {
    /// `None` for an undecodable or lag-1 item (nothing to prune now).
    fn of(space: &AtomSpace, id: ItemId) -> Option<Self> {
        let item = space.decode(id).filter(|item| item.lag == 0)?;
        let (dim, values) = target(space, item.atom);
        Some(Self {
            user: item.user.into(),
            dim,
            values,
        })
    }
}

/// A positive rule as the index holds it.
#[derive(Debug, Clone)]
struct Keyed {
    rule: u32,
    antecedent: ItemSet,
}

/// A rule index grouped by key item: the entries keyed under item `e` are
/// `entries[at[e]..at[e + 1]]`, ascending by rule.
#[derive(Debug, Clone)]
struct ByItem<T> {
    at: Vec<u32>,
    entries: Vec<T>,
}

impl<T> ByItem<T> {
    /// Groups `(key, entry)` pairs, given in rule order, by key.
    fn new(n_items: usize, mut keyed: Vec<(usize, T)>) -> Self {
        keyed.sort_by_key(|&(key, _)| key);
        let mut at = vec![0u32; n_items + 1];
        for &(key, _) in &keyed {
            at[key + 1] += 1;
        }
        for e in 0..n_items {
            at[e + 1] += at[e];
        }
        let entries = keyed.into_iter().map(|(_, entry)| entry).collect();
        Self { at, entries }
    }

    fn under(&self, key: usize) -> &[T] {
        &self.entries[self.at[key] as usize..self.at[key + 1] as usize]
    }
}

/// The deterministic pruning engine.
///
/// Rules are indexed at construction: each positive rule under the first
/// item of its antecedent (a rule fires only if that item is in the
/// evidence), each negative rule under its trigger. A tick then looks up
/// only the rules keyed by its evidence items instead of scanning the
/// whole rule set, tests each positive rule's antecedent against the
/// evidence with one mask compare, and applies the fired rules in
/// rule-set order, so the outcome is the linear scan's.
#[derive(Debug, Clone)]
pub struct PruningEngine {
    rules: RuleSet,
    /// Positive rules keyed by first antecedent item. Rules whose
    /// consequent cannot prune at run time (undecodable, or a lag-1 item)
    /// are left out: the scan skips them anyway. So are rules whose
    /// antecedent names an item outside the space: no evidence a tick
    /// builds holds one.
    positive: ByItem<Keyed>,
    /// Positive rules with an empty antecedent: they fire on any evidence.
    unconditional: Vec<u32>,
    /// Negative rule indices keyed by trigger, under the same filter.
    negative: ByItem<u32>,
    /// Per positive rule, its decoded consequent (`None`: never indexed).
    positive_then: Vec<Option<Consequent>>,
    /// Per negative rule, its decoded consequent.
    negative_then: Vec<Option<Consequent>>,
}

impl PruningEngine {
    /// Wraps a mined (or user-provided) rule set and indexes it.
    ///
    /// # Panics
    /// Panics if the rule set's space has more items than an evidence
    /// bitset holds (a macro vocabulary past [`Mask::CAPACITY`]).
    pub fn new(rules: RuleSet) -> Self {
        let space = rules.space();
        let n_items = space.n_items();
        assert!(
            n_items <= ITEM_WORDS * 64,
            "a rule space holds at most {} items, not {n_items}",
            ITEM_WORDS * 64
        );
        let positive_then: Vec<_> = rules
            .rules()
            .iter()
            .map(|rule| Consequent::of(space, rule.consequent))
            .collect();
        let negative_then: Vec<_> = rules
            .negatives()
            .iter()
            .map(|neg| Consequent::of(space, neg.then_not))
            .collect();
        let mut keyed = Vec::new();
        let mut unconditional = Vec::new();
        for (i, rule) in rules.rules().iter().enumerate() {
            let Some(antecedent) = ItemSet::of(&rule.antecedent, n_items) else {
                continue;
            };
            if positive_then[i].is_none() {
                continue;
            }
            let rule_id = i as u32;
            match rule.antecedent.first() {
                Some(first) => keyed.push((
                    first.0 as usize,
                    Keyed {
                        rule: rule_id,
                        antecedent,
                    },
                )),
                None => unconditional.push(rule_id),
            }
        }
        let negative =
            rules.negatives().iter().enumerate().filter(|&(i, neg)| {
                negative_then[i].is_some() && (neg.if_item.0 as usize) < n_items
            });
        let negative = negative
            .map(|(i, neg)| (neg.if_item.0 as usize, i as u32))
            .collect();
        Self {
            positive: ByItem::new(n_items, keyed),
            unconditional,
            negative: ByItem::new(n_items, negative),
            positive_then,
            negative_then,
            rules,
        }
    }

    /// The rule set in use.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Applies every applicable rule to the tick's candidates.
    ///
    /// `evidence` is the list of items known true around this tick
    /// (observed micro states at `t` and the committed states at `t − 1`).
    /// Items outside the rule space are ignored: no indexed rule names
    /// one. Rules fire on observed facts only, never on another rule's
    /// conclusion, so one pass in rule-set order reaches the fixed point.
    pub fn prune(&self, evidence: &[ItemId], tick: &mut CandidateTick) -> PruneReport {
        let n_items = self.rules.space().n_items();
        let mut present = ItemSet::default();
        for &ItemId(id) in evidence.iter().filter(|id| (id.0 as usize) < n_items) {
            present.insert(id as usize);
        }
        let positive_bound = self.unconditional.len()
            + present
                .iter()
                .map(|e| self.positive.under(e).len())
                .sum::<usize>();
        let negative_bound: usize = present.iter().map(|e| self.negative.under(e).len()).sum();
        let mut stack = [0u32; FIRED_STACK];
        let mut heap = Vec::new();
        let buf: &mut [u32] = if positive_bound + negative_bound <= FIRED_STACK {
            &mut stack[..positive_bound + negative_bound]
        } else {
            heap.resize(positive_bound + negative_bound, 0);
            &mut heap
        };
        let (positive_buf, negative_buf) = buf.split_at_mut(positive_bound);

        // Which rules fire depends only on the evidence: gather them, then
        // apply them in rule-set order.
        let keyed = present.iter().flat_map(|e| self.positive.under(e));
        let fired = keyed
            .filter(|k| present.covers(&k.antecedent))
            .map(|k| k.rule);
        let mut n_positive = 0;
        for (slot, i) in positive_buf
            .iter_mut()
            .zip(self.unconditional.iter().copied().chain(fired))
        {
            *slot = i;
            n_positive += 1;
        }
        let positives = &mut positive_buf[..n_positive];
        positives.sort_unstable();
        let keyed_negative = present.iter().flat_map(|e| self.negative.under(e));
        for (slot, &i) in negative_buf.iter_mut().zip(keyed_negative) {
            *slot = i;
        }
        negative_buf.sort_unstable();

        // One pass is the fixed point. The evidence stays fixed and rules
        // only shrink candidate sets, so a rule that restricted (or was
        // refused, or found nothing to remove) keeps finding nothing on a
        // second pass; a forbid refused as the last value stays refused.
        let mut report = PruneReport::default();
        for &i in positives.iter() {
            let Some(then) = self.positive_then[i as usize] else {
                continue;
            };
            let removed = restrict(tick.users[then.user].dim_mut(then.dim), then.values);
            if removed > 0 {
                report.positive_fired += 1;
                report.removed += removed;
            }
        }
        for &i in negative_buf.iter() {
            let Some(then) = self.negative_then[i as usize] else {
                continue;
            };
            if forbid(tick.users[then.user].dim_mut(then.dim), then.values) {
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
    fn masks_hold_up_to_capacity_values() {
        assert!(Mask::full(0).is_empty());
        assert_eq!(Mask::full(64).len(), 64);
        assert_eq!(
            Mask::full(14).iter().collect::<Vec<_>>(),
            (0..14).collect::<Vec<_>>()
        );
        assert!(Mask::single(64).is_empty());
        assert!(!Mask::full(64).contains(64));
        let m: Mask = [3, 9, 63].into_iter().collect();
        assert_eq!(m.highest(), Mask::single(63));
        assert_eq!(format!("{m:?}"), "{3, 9, 63}");
    }

    #[test]
    fn forbidding_a_whole_room_keeps_its_highest_location() {
        let s = space();
        let mut cand = UserCandidates::full(&s);
        // Room 1 is the bedroom. Once only its locations are left,
        // forbidding it removes them in ascending order until one remains.
        assert!(cand.restrict(&s, Atom::Room(1)) > 0);
        let bedroom: Vec<usize> = cand.locations.iter().collect();
        assert!(cand.forbid(&s, Atom::Room(1)));
        assert_eq!(
            cand.locations.iter().collect::<Vec<_>>(),
            [bedroom[bedroom.len() - 1]]
        );
        assert!(!cand.forbid(&s, Atom::Room(1)), "the last location stays");
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
        assert_eq!(tick.users[0].macros.iter().collect::<Vec<_>>(), vec![0]);
        // User 2 untouched.
        assert_eq!(tick.users[1].macros.len(), 11);
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
            !tick.users[1].locations.contains(8),
            "partner bathroom must be pruned"
        );
        assert_eq!(tick.users[1].locations.len(), 13);
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
        let allowed: Vec<usize> = tick.users[0].locations.iter().collect();
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
        assert_eq!(tick.users[0].macros.iter().collect::<Vec<_>>(), vec![2]);
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
        assert_eq!(cand.locations.iter().collect::<Vec<_>>(), vec![13]);
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
