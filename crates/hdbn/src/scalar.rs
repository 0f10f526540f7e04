//! The fixed-width folds every step kernel shares.
//!
//! Two lane folds serve every decoder: a first-argmax running max
//! (`fold_max`, the frontier maximum a dominance selection cuts
//! against) and the last-argmax [`argmax`] over the final frontier. Both
//! are *selections* — no arithmetic is reassociated — so they can be
//! evaluated in fixed-width chunks without changing a single bit of the
//! result, while giving the stable-toolchain autovectorizer a shape it
//! reliably turns into SIMD: explicit 8-wide accumulator arrays over
//! contiguous slices (no nightly `std::simd`).
//!
//! The two row sweeps of the joint kernel (`sweep_add_max_arg`,
//! `sweep_max_arg`) phrase their compare/select
//! as *integer mask arithmetic* — every store unconditional — which the
//! loop vectorizer turns into packed compare + blend (`cmpnltpd`/`maxpd`
//! plus a narrowed mask for the `u32` args); a branchy select form
//! scalarizes the float stores into per-element branches. Strict `>`
//! keeps the earlier candidate on ties, exactly like the scalar
//! `if src[i] > acc[i]` scan. Each sweep is `#[inline(never)]` so its
//! `&[_]`/`&mut [_]` parameters keep their noalias guarantees — inlined
//! into the large step kernel the vectorizer loses them and falls back to
//! scalar code.

/// Compare-and-select max sweep with a broadcast addend:
/// `acc[i] = max(acc[i], src[i] + g)`, with `arg[i]` taken from
/// `src_arg[i]` wherever the sum strictly wins — a source row swept
/// across a destination row against one transition score.
#[inline(never)]
pub(crate) fn sweep_add_max_arg(
    src: &[f64],
    g: f64,
    src_arg: &[u32],
    acc: &mut [f64],
    arg: &mut [u32],
) {
    for (((&v, &ja), a), r) in src
        .iter()
        .zip(src_arg.iter())
        .zip(acc.iter_mut())
        .zip(arg.iter_mut())
    {
        let x = v + g;
        let take = x > *a;
        let m = (take as u64).wrapping_neg();
        let m32 = (take as u32).wrapping_neg();
        *r = (ja & m32) | (*r & !m32);
        *a = f64::from_bits((x.to_bits() & m) | (a.to_bits() & !m));
    }
}

/// [`sweep_add_max_arg`] with no addend: `acc[i] = max(acc[i], src[i])`
/// — accumulates a run cache, and merges one partial fold (`src`,
/// `src_arg`) into another with strict `>`, which equals continuing the
/// fold over the partial's candidates.
#[inline(never)]
pub(crate) fn sweep_max_arg(src: &[f64], src_arg: &[u32], acc: &mut [f64], arg: &mut [u32]) {
    for (((&x, &ja), a), r) in src
        .iter()
        .zip(src_arg.iter())
        .zip(acc.iter_mut())
        .zip(arg.iter_mut())
    {
        let take = x > *a;
        let m = (take as u64).wrapping_neg();
        let m32 = (take as u32).wrapping_neg();
        *r = (ja & m32) | (*r & !m32);
        *a = f64::from_bits((x.to_bits() & m) | (a.to_bits() & !m));
    }
}

/// Chunk width of the lane folds: 8 explicit accumulators, wide enough to
/// fill two AVX2 registers, and comfortably unrollable on the SSE2
/// baseline.
const LANES: usize = 8;

/// First-argmax max fold over a contiguous slice, 8-wide.
///
/// Returns `(best, arg)` where `arg` is the *smallest* index attaining
/// `best` (`(f64::NEG_INFINITY, 0)` for an empty or all-`-∞` slice) —
/// bit-identical to the scalar `if v[i] > best` scan: per-lane strict `>`
/// keeps the first maximum within a lane, and the cross-lane reduction
/// breaks value ties toward the smaller index.
#[inline]
pub(crate) fn fold_max(v: &[f64]) -> (f64, u32) {
    let chunks = v.len() / LANES;
    let mut best = f64::NEG_INFINITY;
    let mut arg = 0u32;
    if chunks > 0 {
        let mut acc = [f64::NEG_INFINITY; LANES];
        let mut acc_arg = [0u32; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            let chunk = &v[base..base + LANES];
            for l in 0..LANES {
                if chunk[l] > acc[l] {
                    acc[l] = chunk[l];
                    acc_arg[l] = (base + l) as u32;
                }
            }
        }
        for l in 0..LANES {
            if acc[l] > best || (acc[l] == best && acc_arg[l] < arg) {
                best = acc[l];
                arg = acc_arg[l];
            }
        }
    }
    for (i, &x) in v.iter().enumerate().skip(chunks * LANES) {
        if x > best {
            best = x;
            arg = i as u32;
        }
    }
    (best, arg)
}

/// Last-argmax frontier argmax — the termination rule of every decoder,
/// and the start of every fixed-lag backtrack: `(index, score)` of the
/// *last* maximum, as `Iterator::max_by` returns it (the historical
/// decoders terminate through `max_by`, so this must match it), in the
/// same 8-wide lane shape as `fold_max`.
///
/// A decoder frontier is never empty and never holds a NaN: every decoder
/// rejects a tick with no micro candidates or an empty macro restriction
/// before any kernel runs (`ModelError::EmptyStateSpace`), NaN
/// observation log-likelihoods are clamped to `-∞` when the tick input is
/// built, the model's log tables hold no NaN, and resume rejects a park
/// with no survivor or a NaN score ([`crate::ParkedTrellis::validate`]).
/// Should either invariant ever break, the fold still returns without
/// panicking: NaN entries never win, and an empty or all-NaN slice gives
/// `(0, -∞)`. `tests/hostile_ticks.rs` parks and resumes every strategy's
/// frontier after NaN, infinite, empty and all-missing sensor ticks.
#[inline]
pub fn argmax(v: &[f64]) -> (usize, f64) {
    let chunks = v.len() / LANES;
    let mut best = f64::NEG_INFINITY;
    let mut arg = 0usize;
    let mut seen = false;
    if chunks > 0 {
        let mut acc = [f64::NEG_INFINITY; LANES];
        let mut acc_arg = [usize::MAX; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            let chunk = &v[base..base + LANES];
            for l in 0..LANES {
                // `>=` keeps the last maximum within a lane.
                if chunk[l] >= acc[l] {
                    acc[l] = chunk[l];
                    acc_arg[l] = base + l;
                }
            }
        }
        for l in 0..LANES {
            if acc_arg[l] != usize::MAX
                && (!seen || acc[l] > best || (acc[l] == best && acc_arg[l] > arg))
            {
                best = acc[l];
                arg = acc_arg[l];
                seen = true;
            }
        }
    }
    for (i, &x) in v.iter().enumerate().skip(chunks * LANES) {
        if x >= best {
            best = x;
            arg = i;
        }
    }
    (arg, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_fold(v: &[f64]) -> (f64, u32) {
        let mut best = f64::NEG_INFINITY;
        let mut arg = 0u32;
        for (i, &x) in v.iter().enumerate() {
            if x > best {
                best = x;
                arg = i as u32;
            }
        }
        (best, arg)
    }

    #[test]
    fn fold_max_matches_scalar_scan_with_ties_and_remainders() {
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 7) as f64) - 3.0 // few distinct values → many ties
        };
        for len in 0..70 {
            let v: Vec<f64> = (0..len).map(|_| next()).collect();
            if v.is_empty() {
                assert_eq!(fold_max(&v), (f64::NEG_INFINITY, 0));
                continue;
            }
            assert_eq!(fold_max(&v), scalar_fold(&v), "len {len}");
            let w: Vec<f64> = v.iter().map(|&x| -x).collect();
            assert_eq!(fold_max(&w), scalar_fold(&w), "len {len} negated");
        }
    }

    #[test]
    fn folds_handle_neg_infinity_runs() {
        let v = [f64::NEG_INFINITY; 19];
        assert_eq!(fold_max(&v), (f64::NEG_INFINITY, 0));
        let mut v = vec![f64::NEG_INFINITY; 19];
        v[11] = -2.0;
        assert_eq!(fold_max(&v), (-2.0, 11));
    }

    #[test]
    fn argmax_keeps_the_last_maximum_like_max_by() {
        assert_eq!(argmax(&[1.0f64, 3.0, 3.0, 2.0]), (2, 3.0));
        assert_eq!(argmax(&[5.0]), (0, 5.0));
        // `-∞` entries (impossible states) order like any other score.
        assert_eq!(argmax(&[f64::NEG_INFINITY, -3.0]), (1, -3.0));
        assert_eq!(argmax(&[f64::NEG_INFINITY; 3]), (2, f64::NEG_INFINITY));
    }

    #[test]
    fn argmax_matches_max_by_with_ties_and_remainders() {
        let mut state = 0x2545_F491u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 9 {
                0 => f64::NEG_INFINITY,
                1 => -0.0,
                k => (k % 4) as f64 - 2.0, // few distinct values → many ties
            }
        };
        for len in 1..70 {
            let v: Vec<f64> = (0..len).map(|_| next()).collect();
            let want = v
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, &s)| (i, s))
                .unwrap();
            let got = argmax(&v);
            assert_eq!(
                (got.0, got.1.to_bits()),
                (want.0, want.1.to_bits()),
                "len {len}"
            );
        }
        assert_eq!(argmax(&[]), (0, f64::NEG_INFINITY));
        assert_eq!(argmax(&[f64::NAN, 1.0, f64::NAN]), (1, 1.0));
    }
}
