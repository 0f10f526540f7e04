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
//! [`forest_proba`] (one cloned leaf distribution per tree) and
//! [`prune_linear`] (every rule checked on every tick).
//!
//! Consumers:
//!
//! * `tests/score_tables.rs` asserts the production decoders are
//!   **bit-identical** to these references over random mined statistics —
//!   the differential gate for the dense-table scoring path.
//! * `tests/front_end_oracles.rs` does the same for the fused frame
//!   features, the borrowed-leaf forest and the indexed pruner.
//! * `crates/bench/benches/score_tables.rs` measures them as the "naive
//!   scoring" baseline that the table path's per-tick speedup is claimed
//!   against.

use cace_features::FEATURE_COUNT;
use cace_hdbn::forward::normalize_log;
use cace_hdbn::single::ExpectedCounts;
use cace_hdbn::{log_sum_exp, HdbnParams, TickInput};
use cace_learn::RandomForest;
use cace_mining::correlation::PruneReport;
use cace_mining::{CandidateTick, ItemId, RuleSet};
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

/// `PruningEngine::prune` as it was before rules were indexed: every
/// positive and negative rule checked against the evidence, in rule-set
/// order, on each of the two passes.
pub fn prune_linear(rules: &RuleSet, evidence: &[ItemId], tick: &mut CandidateTick) -> PruneReport {
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
