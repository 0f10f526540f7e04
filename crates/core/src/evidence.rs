//! Run-time evidence construction.
//!
//! The pruning engine fires rules on *observed facts*. At each tick we
//! assemble, per user: the beacon-derived sub-location (and its room), the
//! confidently classified postural and gestural states, plus — as lag-1
//! items — the states committed for the previous tick. Ambient PIR/object
//! firings are unattributed and therefore never enter per-user evidence
//! directly; they shape the candidate scores instead.

use cace_behavior::ObservedTick;
use cace_mining::item::{Atom, Item};
use cace_mining::{AtomSpace, ItemId};
use serde::{Deserialize, Serialize};

/// Confidence thresholds for promoting classifier outputs to evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvidenceConfig {
    /// Minimum posterior probability to assert a postural state.
    pub postural_confidence: f64,
    /// Minimum posterior probability to assert a gestural state.
    pub gestural_confidence: f64,
    /// Maximum beacon residual (meters) to assert a sub-location.
    pub beacon_max_residual: f64,
}

impl Default for EvidenceConfig {
    fn default() -> Self {
        Self {
            postural_confidence: 0.7,
            gestural_confidence: 0.7,
            beacon_max_residual: 1.5,
        }
    }
}

/// The committed (decoded or observed) state of one user at the previous
/// tick, re-encoded as lag-1 evidence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrevState {
    /// Previous macro activity, if committed.
    pub macro_id: Option<usize>,
    /// Previous sub-location, if committed.
    pub location: Option<usize>,
}

fn top1(log_proba: &[f64]) -> (usize, f64) {
    let (idx, &lp) = log_proba
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite log-probs"))
        .expect("nonempty distribution");
    (idx, lp.exp())
}

/// Most evidence items one tick can assert: per user a location and its
/// room, a postural and a gestural state, and two lag-1 items.
const MAX_EVIDENCE: usize = 12;

/// One tick's evidence items, sorted and deduplicated, held inline so the
/// serving path builds them without touching the heap.
#[derive(Debug, Clone, Copy)]
pub struct TickEvidence {
    items: [ItemId; MAX_EVIDENCE],
    len: usize,
}

impl TickEvidence {
    fn push(&mut self, id: ItemId) {
        self.items[self.len] = id;
        self.len += 1;
    }
}

impl std::ops::Deref for TickEvidence {
    type Target = [ItemId];
    fn deref(&self) -> &[ItemId] {
        &self.items[..self.len]
    }
}

/// Builds the sorted, deduplicated evidence items of one tick.
///
/// `postural_lp` / `gestural_lp` are per-user classifier log-probabilities
/// (gestural entries `None` when the modality is absent).
pub fn build_evidence(
    space: &AtomSpace,
    observed: &ObservedTick,
    postural_lp: [&[f64]; 2],
    gestural_lp: [Option<&[f64]>; 2],
    prev: &[PrevState; 2],
    config: &EvidenceConfig,
) -> TickEvidence {
    let mut evidence = TickEvidence {
        items: [ItemId(0); MAX_EVIDENCE],
        len: 0,
    };
    for u in 0..2u8 {
        let uu = u as usize;
        // Location evidence: beacon (CACE) or unique sub-location motion
        // when only one resident candidate region fired (CASAS keeps this
        // ambiguous, so only the beacon path asserts location).
        if let Some(beacon) = &observed.per_user[uu].beacon {
            if beacon.in_home && beacon.residual <= config.beacon_max_residual {
                let loc = beacon.nearest.index();
                evidence.push(space.encode(Item {
                    user: u,
                    lag: 0,
                    atom: Atom::Location(loc as u16),
                }));
                evidence.push(space.encode(Item {
                    user: u,
                    lag: 0,
                    atom: Atom::Room(space.loc_to_room[loc] as u16),
                }));
            }
        }
        // Classifier evidence.
        let (p_idx, p_conf) = top1(postural_lp[uu]);
        if p_conf >= config.postural_confidence {
            evidence.push(space.encode(Item {
                user: u,
                lag: 0,
                atom: Atom::Postural(p_idx as u16),
            }));
        }
        if let Some(glp) = gestural_lp[uu] {
            let (g_idx, g_conf) = top1(glp);
            if g_conf >= config.gestural_confidence {
                evidence.push(space.encode(Item {
                    user: u,
                    lag: 0,
                    atom: Atom::Gestural(g_idx as u16),
                }));
            }
        }
        // Lag-1 committed state.
        if let Some(m) = prev[uu].macro_id {
            evidence.push(space.encode(Item {
                user: u,
                lag: 1,
                atom: Atom::Macro(m as u16),
            }));
        }
        if let Some(l) = prev[uu].location {
            evidence.push(space.encode(Item {
                user: u,
                lag: 1,
                atom: Atom::Location(l as u16),
            }));
        }
    }
    let items = &mut evidence.items[..evidence.len];
    items.sort_unstable();
    let mut kept = 0;
    for i in 0..items.len() {
        if kept == 0 || items[i] != items[kept - 1] {
            items[kept] = items[i];
            kept += 1;
        }
    }
    evidence.len = kept;
    evidence
}

#[cfg(test)]
mod tests {
    use super::*;
    use cace_behavior::{cace_grammar, simulate_session, SessionConfig};
    use cace_sensing::NoiseConfig;

    #[test]
    fn evidence_contains_beacon_location_when_clean() {
        let g = cace_grammar();
        let cfg = SessionConfig::tiny().with_noise(NoiseConfig::noiseless());
        let session = simulate_session(&g, &cfg, 1);
        let space = AtomSpace::cace();
        // Pick a tick late enough for the beacon smoothing to settle.
        let tick = &session.ticks[20];
        let postural_lp = [vec![0.0; 6], vec![0.0; 6]]; // uninformative
        let gestural_lp = [None, None];
        let evidence = build_evidence(
            &space,
            &tick.observed,
            [&postural_lp[0], &postural_lp[1]],
            gestural_lp,
            &[PrevState::default(), PrevState::default()],
            &EvidenceConfig::default(),
        );
        // There must be at least one location atom per user.
        let locs = evidence
            .iter()
            .filter(|&&id| matches!(space.decode(id).unwrap().atom, Atom::Location(_)))
            .count();
        assert!(locs >= 1, "expected location evidence, got {evidence:?}");
        // Sorted and unique.
        assert!(evidence.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unconfident_classifiers_stay_silent() {
        let space = AtomSpace::cace();
        let observed = cace_behavior::ObservedTick {
            room_motion: [false; 6],
            subloc_motion: None,
            items: None,
            objects: [false; 8],
            per_user: [Default::default(), Default::default()],
        };
        let uniform = vec![-(6f64).ln(); 6];
        let evidence = build_evidence(
            &space,
            &observed,
            [&uniform, &uniform],
            [None, None],
            &[PrevState::default(), PrevState::default()],
            &EvidenceConfig::default(),
        );
        assert!(evidence.is_empty(), "nothing confident: {evidence:?}");
    }

    #[test]
    fn confident_posture_is_asserted() {
        let space = AtomSpace::cace();
        let observed = cace_behavior::ObservedTick {
            room_motion: [false; 6],
            subloc_motion: None,
            items: None,
            objects: [false; 8],
            per_user: [Default::default(), Default::default()],
        };
        let mut confident = vec![-10.0; 6];
        confident[3] = -0.01; // ≈ 0.99 probability on postural 3
        let uniform = vec![-(6f64).ln(); 6];
        let evidence = build_evidence(
            &space,
            &observed,
            [&confident, &uniform],
            [None, None],
            &[PrevState::default(), PrevState::default()],
            &EvidenceConfig::default(),
        );
        assert_eq!(evidence.len(), 1);
        let item = space.decode(evidence[0]).unwrap();
        assert_eq!(item.user, 0);
        assert!(matches!(item.atom, Atom::Postural(3)));
    }

    #[test]
    fn previous_state_becomes_lag1_evidence() {
        let space = AtomSpace::cace();
        let observed = cace_behavior::ObservedTick {
            room_motion: [false; 6],
            subloc_motion: None,
            items: None,
            objects: [false; 8],
            per_user: [Default::default(), Default::default()],
        };
        let uniform = vec![-(6f64).ln(); 6];
        let prev = [
            PrevState {
                macro_id: Some(2),
                location: Some(9),
            },
            PrevState::default(),
        ];
        let evidence = build_evidence(
            &space,
            &observed,
            [&uniform, &uniform],
            [None, None],
            &prev,
            &EvidenceConfig::default(),
        );
        let decoded: Vec<Item> = evidence.iter().map(|&i| space.decode(i).unwrap()).collect();
        assert!(decoded
            .iter()
            .any(|i| i.lag == 1 && matches!(i.atom, Atom::Macro(2))));
        assert!(decoded
            .iter()
            .any(|i| i.lag == 1 && matches!(i.atom, Atom::Location(9))));
    }
}
