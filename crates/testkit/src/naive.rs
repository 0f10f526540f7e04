//! Naive reference implementations: the historical hot paths, kept as
//! executable specifications.
//!
//! The production decoders in `cace-hdbn` score every trellis edge through
//! the dense precomputed [`ScoreTables`](cace_hdbn::ScoreTables) and run
//! their step kernels over reused `TrellisArena` buffers. The decoder
//! functions here reproduce the *historical* implementations — direct
//! [`HdbnParams::transition_score`] / [`HdbnParams::hierarchy_score`]
//! calls per edge, fresh fold buffers per column, per-tick `Vec`
//! allocations — with the exact same fold order and tie-breaking.
//!
//! The serving front end has references of the same kind:
//! [`frame_features`] (one pass per feature over per-axis `Vec`s),
//! [`forest_proba`] (one cloned leaf distribution per tree),
//! [`prune_linear`] (every rule checked on every tick, over the
//! one-`bool`-per-value candidate sets of [`BoolTick`]) and [`prepare`]
//! (a whole tick's preparation on those sets, every tuple scored by
//! `micro_score` and stably sorted).
//!
//! Consumers:
//!
//! * `tests/score_tables.rs` asserts the production decoders are
//!   **bit-identical** to these references over random mined statistics —
//!   the differential gate for the dense-table scoring path.
//! * `tests/front_end_oracles.rs` does the same for the fused frame
//!   features, the borrowed-leaf forest, the indexed pruner and the whole
//!   tick preparation.
//! * `crates/bench/benches/score_tables.rs` measures them as the "naive
//!   scoring" baseline that the table path's per-tick speedup is claimed
//!   against.

use cace_behavior::ObservedTick;
use cace_core::evidence::{build_evidence, PrevState};
use cace_core::statespace::{TickPreparer, TickScores};
use cace_features::{TickFeatures, FEATURE_COUNT};
use cace_hdbn::forward::normalize_log;
use cace_hdbn::single::ExpectedCounts;
use cace_hdbn::{log_sum_exp, HdbnParams, MicroCandidate, TickInput};
use cace_learn::RandomForest;
use cace_mining::correlation::PruneReport;
use cace_mining::{Atom, AtomSpace, CandidateTick, ItemId, RuleSet, UserCandidates};
use cace_model::{Postural, StateMask, SubLocation};
use cace_sensing::IMU_RATE_HZ;
use cace_signal::goertzel::goertzel_band;
use cace_signal::stats::{
    kurtosis, mean_abs_deviation, mean_crossings, pearson, signal_magnitude_area, skewness, Summary,
};
use cace_signal::trajectory::ImuSample;

/// One chain's per-tick state enumeration, exactly as the decoders build
/// it: macro-major over the tick's allowed macros × candidates.
struct NaiveSlice {
    activities: Vec<usize>,
    cands: Vec<usize>,
    posturals: Vec<usize>,
    emissions: Vec<f64>,
}

fn naive_slice(p: &HdbnParams, tick: &TickInput, user: usize) -> NaiveSlice {
    let macros = tick.macros_for(user, p.n_macro());
    let n = macros.len() * tick.candidates[user].len();
    let mut slice = NaiveSlice {
        activities: Vec::with_capacity(n),
        cands: Vec::with_capacity(n),
        posturals: Vec::with_capacity(n),
        emissions: Vec::with_capacity(n),
    };
    for &a in &macros {
        for (c, cand) in tick.candidates[user].iter().enumerate() {
            slice.activities.push(a);
            slice.cands.push(c);
            slice.posturals.push(cand.postural);
            slice.emissions.push(
                cand.obs_loglik
                    + tick.bonus(a)
                    + p.hierarchy_score(a, cand.postural, cand.gestural, cand.location),
            );
        }
    }
    slice
}

/// The reference exact coupled decode: `(per-user macro paths, log_prob)`.
///
/// A faithful copy of the pre-score-table dense two-pass fold — chain 2
/// then chain 1, `f2_col`/`f1_col` collected fresh per column via
/// [`HdbnParams::transition_score`] — so the production
/// [`CoupledHdbn::viterbi`](cace_hdbn::CoupledHdbn::viterbi) must match
/// it float for float.
///
/// # Panics
/// Panics on empty input or a tick with no candidates (the references
/// assume pre-validated input).
pub fn naive_coupled_viterbi(p: &HdbnParams, ticks: &[TickInput]) -> ([Vec<usize>; 2], f64) {
    assert!(!ticks.is_empty(), "naive decode needs at least one tick");
    let mut slices: Vec<(NaiveSlice, NaiveSlice)> = Vec::with_capacity(ticks.len());
    slices.push((naive_slice(p, &ticks[0], 0), naive_slice(p, &ticks[0], 1)));

    // First frontier: emissions + priors + coupling, flattened j1·|S2|+j2.
    let (s1, s2) = &slices[0];
    let mut v = Vec::with_capacity(s1.activities.len() * s2.activities.len());
    for (j1, &a1) in s1.activities.iter().enumerate() {
        let base1 = s1.emissions[j1] + p.log_prior[a1];
        for (j2, &a2) in s2.activities.iter().enumerate() {
            let base2 = s2.emissions[j2] + p.log_prior[a2];
            v.push(base1 + base2 + p.coupling_score(a1, a2));
        }
    }

    let mut backptrs: Vec<Vec<u32>> = vec![Vec::new()];
    for tick in ticks.iter().skip(1) {
        let cur1 = naive_slice(p, tick, 0);
        let cur2 = naive_slice(p, tick, 1);
        let (prev1, prev2) = slices.last().expect("nonempty");
        let (k1, k2) = (prev1.activities.len(), prev2.activities.len());
        let (m1, m2) = (cur1.activities.len(), cur2.activities.len());

        // Pass 1 — fold chain 2.
        let mut w = vec![f64::NEG_INFINITY; k1 * m2];
        let mut w_arg = vec![0u32; k1 * m2];
        for (j2, &a2) in cur2.activities.iter().enumerate() {
            let f2_col: Vec<f64> = (0..k2)
                .map(|j2p| {
                    p.transition_score(
                        prev2.activities[j2p],
                        prev2.posturals[j2p],
                        a2,
                        cur2.posturals[j2],
                    )
                })
                .collect();
            for j1p in 0..k1 {
                let row = &v[j1p * k2..(j1p + 1) * k2];
                let mut best = f64::NEG_INFINITY;
                let mut best_arg = 0u32;
                for (j2p, (&vv, &f2)) in row.iter().zip(&f2_col).enumerate() {
                    let score = vv + f2;
                    if score > best {
                        best = score;
                        best_arg = j2p as u32;
                    }
                }
                w[j1p * m2 + j2] = best;
                w_arg[j1p * m2 + j2] = best_arg;
            }
        }

        // Pass 2 — fold chain 1, plus emissions and coupling.
        let mut v_new = vec![f64::NEG_INFINITY; m1 * m2];
        let mut back = vec![0u32; m1 * m2];
        for (j1, &a1) in cur1.activities.iter().enumerate() {
            let f1_col: Vec<f64> = (0..k1)
                .map(|j1p| {
                    p.transition_score(
                        prev1.activities[j1p],
                        prev1.posturals[j1p],
                        a1,
                        cur1.posturals[j1],
                    )
                })
                .collect();
            for (j2, &a2) in cur2.activities.iter().enumerate() {
                let mut best = f64::NEG_INFINITY;
                let mut best_j1p = 0usize;
                for (j1p, &f1) in f1_col.iter().enumerate() {
                    let score = w[j1p * m2 + j2] + f1;
                    if score > best {
                        best = score;
                        best_j1p = j1p;
                    }
                }
                let emit = cur1.emissions[j1] + cur2.emissions[j2] + p.coupling_score(a1, a2);
                v_new[j1 * m2 + j2] = best + emit;
                let j2p = w_arg[best_j1p * m2 + j2];
                back[j1 * m2 + j2] = (best_j1p as u32) * (k2 as u32) + j2p;
            }
        }
        v = v_new;
        backptrs.push(back);
        slices.push((cur1, cur2));
    }

    let (mut flat, log_prob) = v
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(i, &s)| (i, s))
        .expect("nonempty trellis");
    let t_total = ticks.len();
    let mut macros = [vec![0usize; t_total], vec![0usize; t_total]];
    let mut m2_cur = slices.last().expect("nonempty").1.activities.len();
    for t in (0..t_total).rev() {
        let (s1, s2) = &slices[t];
        macros[0][t] = s1.activities[flat / m2_cur];
        macros[1][t] = s2.activities[flat % m2_cur];
        if t > 0 {
            flat = backptrs[t][flat] as usize;
            m2_cur = slices[t - 1].1.activities.len();
        }
    }
    (macros, log_prob)
}

/// The reference exact single-chain decode: `(macro path, log_prob)` —
/// the pre-score-table `chain_step` loop, transition-scored per edge.
///
/// # Panics
/// Same conditions as [`naive_coupled_viterbi`].
pub fn naive_single_viterbi(p: &HdbnParams, ticks: &[TickInput], user: usize) -> (Vec<usize>, f64) {
    assert!(!ticks.is_empty(), "naive decode needs at least one tick");
    let mut slices: Vec<NaiveSlice> = Vec::with_capacity(ticks.len());
    slices.push(naive_slice(p, &ticks[0], user));
    let mut v: Vec<f64> = slices[0]
        .activities
        .iter()
        .zip(&slices[0].emissions)
        .map(|(&a, &e)| p.log_prior[a] + e)
        .collect();

    let mut backptrs: Vec<Vec<u32>> = vec![Vec::new()];
    for tick in ticks.iter().skip(1) {
        let cur = naive_slice(p, tick, user);
        let prev = slices.last().expect("nonempty");
        let mut v_new = vec![f64::NEG_INFINITY; cur.activities.len()];
        let mut back = vec![0u32; cur.activities.len()];
        for (j, (&a, &e)) in cur.activities.iter().zip(&cur.emissions).enumerate() {
            let p_new = cur.posturals[j];
            let mut best = f64::NEG_INFINITY;
            let mut best_arg = 0u32;
            for (jp, &ap) in prev.activities.iter().enumerate() {
                let score = v[jp] + p.transition_score(ap, prev.posturals[jp], a, p_new);
                if score > best {
                    best = score;
                    best_arg = jp as u32;
                }
            }
            v_new[j] = best + e;
            back[j] = best_arg;
        }
        v = v_new;
        backptrs.push(back);
        slices.push(cur);
    }

    let (mut j, log_prob) = v
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map(|(i, &s)| (i, s))
        .expect("nonempty trellis");
    let mut macros = vec![0usize; ticks.len()];
    for t in (0..ticks.len()).rev() {
        macros[t] = slices[t].activities[j];
        if t > 0 {
            j = backptrs[t][j] as usize;
        }
    }
    (macros, log_prob)
}

/// The reference exact forward–backward: `(gamma, log_likelihood)` — the
/// pre-score-table recursion with per-state `terms` vectors and direct
/// transition scoring.
///
/// # Panics
/// Same conditions as [`naive_coupled_viterbi`].
pub fn naive_forward_backward(
    p: &HdbnParams,
    ticks: &[TickInput],
    user: usize,
) -> (Vec<Vec<f64>>, f64) {
    assert!(!ticks.is_empty(), "naive forward-backward needs ticks");
    let slices: Vec<NaiveSlice> = ticks.iter().map(|t| naive_slice(p, t, user)).collect();

    let mut log_z = 0.0;
    let mut alphas: Vec<Vec<f64>> = Vec::with_capacity(ticks.len());
    let mut alpha: Vec<f64> = slices[0]
        .activities
        .iter()
        .zip(&slices[0].emissions)
        .map(|(&a, &e)| p.log_prior[a] + e)
        .collect();
    log_z += normalize_log(&mut alpha);
    alphas.push(alpha);

    for t in 1..ticks.len() {
        let cur = &slices[t];
        let prev = &slices[t - 1];
        let mut next = vec![f64::NEG_INFINITY; cur.activities.len()];
        for (j, (&a, &e)) in cur.activities.iter().zip(&cur.emissions).enumerate() {
            let terms: Vec<f64> = prev
                .activities
                .iter()
                .enumerate()
                .map(|(jp, &ap)| {
                    alphas[t - 1][jp].max(1e-300).ln()
                        + p.transition_score(ap, prev.posturals[jp], a, cur.posturals[j])
                })
                .collect();
            next[j] = log_sum_exp(&terms) + e;
        }
        log_z += normalize_log(&mut next);
        alphas.push(next);
    }

    let mut betas: Vec<Vec<f64>> = vec![Vec::new(); ticks.len()];
    let last = ticks.len() - 1;
    betas[last] = vec![1.0; slices[last].activities.len()];
    for t in (0..last).rev() {
        let cur = &slices[t];
        let nxt = &slices[t + 1];
        let mut beta = vec![f64::NEG_INFINITY; cur.activities.len()];
        for (j, &a) in cur.activities.iter().enumerate() {
            let terms: Vec<f64> = nxt
                .activities
                .iter()
                .enumerate()
                .map(|(jn, &an)| {
                    betas[t + 1][jn].max(1e-300).ln()
                        + p.transition_score(a, cur.posturals[j], an, nxt.posturals[jn])
                        + nxt.emissions[jn]
                })
                .collect();
            beta[j] = log_sum_exp(&terms);
        }
        normalize_log(&mut beta);
        betas[t] = beta;
    }

    let gamma: Vec<Vec<f64>> = alphas
        .iter()
        .zip(&betas)
        .map(|(a, b)| {
            let mut g: Vec<f64> = a.iter().zip(b).map(|(x, y)| x * y).collect();
            let total: f64 = g.iter().sum();
            if total > 0.0 {
                for v in &mut g {
                    *v /= total;
                }
            }
            g
        })
        .collect();
    (gamma, log_z)
}

/// The reference E-step accumulation for one sequence/user into `counts` —
/// the pre-score-table unary + xi loops over
/// [`naive_forward_backward`]'s posteriors.
///
/// # Panics
/// Same conditions as [`naive_coupled_viterbi`].
pub fn naive_accumulate_counts(
    p: &HdbnParams,
    ticks: &[TickInput],
    user: usize,
    counts: &mut ExpectedCounts,
) {
    let (gamma, log_likelihood) = naive_forward_backward(p, ticks, user);
    counts.log_likelihood += log_likelihood;
    let slices: Vec<NaiveSlice> = ticks.iter().map(|t| naive_slice(p, t, user)).collect();

    for (t, slice) in slices.iter().enumerate() {
        for (j, &a) in slice.activities.iter().enumerate() {
            let g = gamma[t][j];
            if g <= 0.0 {
                continue;
            }
            let cand = ticks[t].candidates[user][slice.cands[j]];
            if t == 0 {
                counts.prior[a] += g;
            }
            counts.post[a][cand.postural] += g;
            counts.loc[a][cand.location] += g;
            if let Some(gest) = cand.gestural {
                counts.gest[a][gest] += g;
            }
        }
    }

    for t in 1..ticks.len() {
        let prev = &slices[t - 1];
        let cur = &slices[t];
        let mut xi = vec![0.0; prev.activities.len() * cur.activities.len()];
        let mut total = 0.0;
        for (jp, &ap) in prev.activities.iter().enumerate() {
            let gp = gamma[t - 1][jp];
            if gp <= 0.0 {
                continue;
            }
            for (j, &a) in cur.activities.iter().enumerate() {
                let gc = gamma[t][j];
                if gc <= 0.0 {
                    continue;
                }
                let w = gp
                    * gc
                    * p.transition_score(ap, prev.posturals[jp], a, cur.posturals[j])
                        .exp()
                        .max(1e-300);
                xi[jp * cur.activities.len() + j] = w;
                total += w;
            }
        }
        if total <= 0.0 {
            continue;
        }
        for (jp, &ap) in prev.activities.iter().enumerate() {
            for (j, &a) in cur.activities.iter().enumerate() {
                let w = xi[jp * cur.activities.len() + j] / total;
                if w <= 0.0 {
                    continue;
                }
                counts.trans[ap][a] += w;
                if ap == a {
                    counts.cont[a] += w;
                    counts.post_trans[prev.posturals[jp]][cur.posturals[j]] += w;
                } else {
                    counts.end[ap] += w;
                }
            }
        }
    }
}

/// The 32 frame features as `FeatureVector::from_frame` computed them
/// before its passes were fused: one `Vec` per axis, magnitude and tilt,
/// and each feature from its own [`cace_signal::stats`] function.
///
/// # Panics
/// Panics on a frame whose Goertzel powers are not comparable (a NaN
/// sample), as the historical code did.
pub fn frame_features(frame: &[ImuSample]) -> [f64; FEATURE_COUNT] {
    if frame.is_empty() {
        return [0.0; FEATURE_COUNT];
    }
    let xs: Vec<f64> = frame.iter().map(|s| s.accel.x).collect();
    let ys: Vec<f64> = frame.iter().map(|s| s.accel.y).collect();
    let zs: Vec<f64> = frame.iter().map(|s| s.accel.z).collect();
    let mags: Vec<f64> = frame.iter().map(|s| s.accel.norm()).collect();

    let mag = Summary::of(&mags);
    let ac: Vec<f64> = mags.iter().map(|m| m - mag.mean).collect();
    let band = goertzel_band(&ac, IMU_RATE_HZ);

    let sx = Summary::of(&xs);
    let sy = Summary::of(&ys);
    let sz = Summary::of(&zs);

    let tilts: Vec<f64> = frame
        .iter()
        .zip(&mags)
        .map(|(s, &n)| {
            if n == 0.0 {
                0.0
            } else {
                (s.accel.z / n).clamp(-1.0, 1.0).acos()
            }
        })
        .collect();
    let tilt = Summary::of(&tilts);

    let (dominant_bin, dominant_power) = band
        .iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite powers"))
        .expect("band is nonempty");

    let mut v = [0.0; FEATURE_COUNT];
    v[0] = mag.mean;
    v[1] = mag.variance;
    v[2] = mag.std_dev();
    v[3] = mag.min;
    v[4] = mag.max;
    v[5] = mag.range();
    v[6] = mag.rms;
    v[7] = mean_abs_deviation(&mags);
    v[8] = mean_crossings(&mags) as f64;
    v[9] = skewness(&mags);
    v[10] = kurtosis(&mags);
    v[11..16].copy_from_slice(&band);
    v[16] = sx.mean;
    v[17] = sx.std_dev();
    v[18] = sx.variance;
    v[19] = sy.mean;
    v[20] = sy.std_dev();
    v[21] = sy.variance;
    v[22] = sz.mean;
    v[23] = sz.std_dev();
    v[24] = sz.variance;
    v[25] = pearson(&xs, &ys);
    v[26] = pearson(&xs, &zs);
    v[27] = pearson(&ys, &zs);
    v[28] = signal_magnitude_area(&xs, &ys, &zs);
    v[29] = tilt.mean;
    v[30] = tilt.std_dev();
    v[31] = if dominant_power > 1e-12 {
        (dominant_bin + 1) as f64
    } else {
        0.0
    };
    v
}

/// `RandomForest::predict_proba` as it was before leaves were borrowed:
/// each tree's distribution cloned out, then summed and normalized.
pub fn forest_proba(forest: &RandomForest, x: &[f64]) -> Vec<f64> {
    let mut acc = vec![0.0; forest.n_classes()];
    for tree in forest.trees() {
        for (a, p) in acc.iter_mut().zip(tree.predict_proba(x)) {
            *a += p;
        }
    }
    let total: f64 = acc.iter().sum();
    if total > 0.0 {
        for a in &mut acc {
            *a /= total;
        }
    }
    acc
}

/// One user's candidate sets as they were before they became bitsets:
/// one `bool` per value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolCandidates {
    /// Allowed macro activities.
    pub macros: Vec<bool>,
    /// Allowed postural states.
    pub posturals: Vec<bool>,
    /// Allowed gestural states.
    pub gesturals: Vec<bool>,
    /// Allowed sub-locations.
    pub locations: Vec<bool>,
}

/// Indices of the allowed values of one dimension.
pub fn allowed(dim: &[bool]) -> Vec<usize> {
    dim.iter()
        .enumerate()
        .filter(|&(_, &b)| b)
        .map(|(i, _)| i)
        .collect()
}

impl BoolCandidates {
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

    /// Restricts a dimension to one value (a room: its sub-locations);
    /// returns how many values were removed, refusing (0) when the value
    /// is already excluded.
    pub fn restrict(&mut self, space: &AtomSpace, atom: Atom) -> usize {
        if let Atom::Room(r) = atom {
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

    /// Forbids one value (a room: each of its sub-locations, ascending);
    /// returns whether any was removed, never emptying a dimension.
    pub fn forbid(&mut self, space: &AtomSpace, atom: Atom) -> bool {
        if let Atom::Room(r) = atom {
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
            return false;
        }
        dim[idx] = false;
        true
    }

    /// Number of allowed (macro, micro) states.
    pub fn joint_size(&self) -> usize {
        let count = |v: &Vec<bool>| v.iter().filter(|&&b| b).count();
        count(&self.macros)
            * count(&self.posturals)
            * count(&self.gesturals)
            * count(&self.locations)
    }

    /// The same sets as masks.
    pub fn to_masks(&self) -> UserCandidates {
        let mask = |dim: &[bool]| allowed(dim).into_iter().collect();
        UserCandidates {
            macros: mask(&self.macros),
            posturals: mask(&self.posturals),
            gesturals: mask(&self.gesturals),
            locations: mask(&self.locations),
        }
    }
}

/// Both users' [`BoolCandidates`] at one tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolTick {
    /// Per-user candidate sets.
    pub users: [BoolCandidates; 2],
}

impl BoolTick {
    /// Everything allowed for both users.
    pub fn full(space: &AtomSpace) -> Self {
        Self {
            users: [BoolCandidates::full(space), BoolCandidates::full(space)],
        }
    }

    /// Joint state count across both users.
    pub fn joint_size(&self) -> u128 {
        self.users.iter().map(|u| u.joint_size() as u128).product()
    }

    /// The same sets as a [`CandidateTick`].
    pub fn to_masks(&self) -> CandidateTick {
        CandidateTick {
            users: [self.users[0].to_masks(), self.users[1].to_masks()],
        }
    }
}

/// `PruningEngine::prune` as it was before rules were indexed: every
/// positive and negative rule checked against the evidence, in rule-set
/// order, on each of the two passes.
pub fn prune_linear(rules: &RuleSet, evidence: &[ItemId], tick: &mut BoolTick) -> PruneReport {
    let space = rules.space().clone();
    let mut report = PruneReport::default();
    for _ in 0..2 {
        let mut changed = false;
        for rule in rules.rules() {
            if !rule.fires_on(evidence) {
                continue;
            }
            let Some(item) = space.decode(rule.consequent) else {
                continue;
            };
            if item.lag != 0 {
                continue;
            }
            let removed = tick.users[item.user as usize].restrict(&space, item.atom);
            if removed > 0 {
                report.positive_fired += 1;
                report.removed += removed;
                changed = true;
            }
        }
        for neg in rules.negatives() {
            if evidence.binary_search(&neg.if_item).is_err() {
                continue;
            }
            let Some(item) = space.decode(neg.then_not) else {
                continue;
            };
            if item.lag != 0 {
                continue;
            }
            if tick.users[item.user as usize].forbid(&space, item.atom) {
                report.negative_fired += 1;
                report.removed += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    report
}

/// `micro_score` as it was before the location term was split by postural
/// kind: the classifier log-probabilities plus the beacon, sub-location
/// motion and PIR terms, summed in that order.
fn micro_score(
    observed: &ObservedTick,
    scores: &TickScores,
    user: usize,
    postural: usize,
    gestural: Option<usize>,
    location: usize,
    mask: StateMask,
) -> f64 {
    let mut classifier = scores.postural_lp[user][postural];
    if mask.gestural {
        if let (Some(g), Some(glp)) = (gestural, &scores.gestural_lp[user]) {
            classifier += glp[g];
        }
    }
    let location = SubLocation::ALL[location];
    let mut score = 0.0;
    let mut informed = false;
    if mask.location {
        if let Some(beacon) = &observed.per_user[user].beacon {
            let (bx, by) = beacon.position;
            let (cx, cy) = location.centroid();
            let d2 = (bx - cx).powi(2) + (by - cy).powi(2);
            score += -0.5 * d2 / (1.2 * 1.2);
            informed = true;
        }
        if let Some(fired) = &observed.subloc_motion {
            score += if fired[location.index()] { -0.2 } else { -2.5 };
            informed = true;
        }
        if Postural::ALL[postural].is_moving() {
            score += if observed.room_motion[location.room().index()] {
                0.3
            } else {
                -1.0
            };
        }
    }
    classifier + if informed { score } else { 0.0 }
}

/// `TickPreparer::prepare` on [`BoolTick`] candidate sets: the modality
/// mask applied to a cloned observation, the candidates restricted to the
/// fired sub-locations, the rules applied by [`prune_linear`], every
/// candidate tuple scored by `micro_score` and stably sorted best first,
/// then cut to the beam. Returns the tick input, the post-pruning joint
/// size and the rules fired; `prev` is threaded as `prepare` threads it.
///
/// The classifier scores and the evidence items come from the preparer's
/// own `scores` and from `build_evidence`, which it shares.
pub fn prepare(
    preparer: &TickPreparer<'_>,
    observed: &ObservedTick,
    features: &[TickFeatures; 2],
    prev: &mut [PrevState; 2],
) -> (TickInput, u128, u64) {
    let space = preparer.space();
    let mask = preparer.mask();
    let mut observed = observed.clone();
    if !mask.location {
        observed.subloc_motion = None;
        for user in &mut observed.per_user {
            user.beacon = None;
        }
        observed.room_motion = [false; 6];
    }
    if !mask.gestural {
        for user in &mut observed.per_user {
            user.tag = None;
        }
    }
    let scores = preparer.scores(features);
    let mut tick = BoolTick::full(space);
    if let Some(fired) = observed
        .subloc_motion
        .filter(|f| f.iter().any(|&x| x) && mask.location)
    {
        for user in &mut tick.users {
            for (l, slot) in user.locations.iter_mut().enumerate() {
                *slot &= fired[l];
            }
            if user.locations.iter().all(|&b| !b) {
                user.locations.iter_mut().for_each(|b| *b = true);
            }
        }
    }
    let rules_fired = match preparer.rules() {
        Some(rules) => {
            let evidence = build_evidence(
                space,
                &observed,
                [&scores.postural_lp[0], &scores.postural_lp[1]],
                [
                    scores.gestural_lp[0].as_ref().map(|g| &g[..]),
                    scores.gestural_lp[1].as_ref().map(|g| &g[..]),
                ],
                prev,
                preparer.evidence_config(),
            );
            let report = prune_linear(rules, &evidence, &mut tick);
            (report.positive_fired + report.negative_fired) as u64
        }
        None => 0,
    };
    let use_gestural = preparer.has_gestural() && mask.gestural;
    let mut input = TickInput::default();
    for (u, cand) in tick.users.iter().enumerate() {
        let gesturals: Vec<Option<usize>> = if use_gestural {
            allowed(&cand.gesturals).into_iter().map(Some).collect()
        } else {
            vec![None]
        };
        let mut tuples = Vec::new();
        for p in allowed(&cand.posturals) {
            for &g in &gesturals {
                for l in allowed(&cand.locations) {
                    let raw = micro_score(&observed, &scores, u, p, g, l, mask);
                    tuples.push(MicroCandidate {
                        postural: p,
                        gestural: g,
                        location: l,
                        obs_loglik: if raw.is_nan() { f64::NEG_INFINITY } else { raw },
                    });
                }
            }
        }
        tuples.sort_by(|a, b| b.obs_loglik.total_cmp(&a.obs_loglik));
        tuples.truncate(preparer.beam().max(1));
        input.candidates[u] = tuples;
        let macros = allowed(&cand.macros);
        input.macro_candidates[u] = (macros.len() != space.n_macro).then_some(macros);
    }
    if let Some(items) = &observed.items {
        input.macro_bonus = items.iter().map(|&f| if f { 4.0 } else { -0.8 }).collect();
    }
    for u in 0..2 {
        prev[u] = PrevState {
            macro_id: None,
            location: observed.per_user[u]
                .beacon
                .as_ref()
                .filter(|b| b.in_home)
                .map(|b| b.nearest.index()),
        };
    }
    (input, tick.joint_size(), rules_fired)
}
