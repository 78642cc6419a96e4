//! Banded Smith-Waterman around a seed diagonal.
//!
//! The paper's §2 names banded Smith-Waterman as the "limited number of
//! mismatches" option alongside x-drop termination. This kernel restricts
//! the DP to a fixed-width band centred on the seed's diagonal
//! (`t_pos − s_pos`), costing O(min(|s|,|t|) · band) instead of
//! O(|s|·|t|). It is used in the kernel ablation benches and as a
//! second reference for the x-drop kernel.

use crate::scoring::Scoring;
use crate::simd::{self, I32x8, KernelImpl};
use crate::sw::LocalAlignment;
use crate::workspace::AlignWorkspace;

/// Score used for out-of-band recurrence terms. Kept well away from
/// `i32::MIN` so arithmetic cannot overflow.
const NEG_INF: i32 = i32::MIN / 4;

/// Banded local alignment of `s` and `t`, restricted to diagonals
/// `center − half_band ..= center + half_band`, where a cell `(i, j)` lies
/// on diagonal `j − i`.
///
/// Start coordinates are not recovered (score/end only) — the pipeline
/// uses banded alignment for scoring and filtering, like BELLA.
///
/// Thin wrapper over the **scalar** kernel with a throwaway workspace,
/// pinned regardless of the kernel mode so it can serve as the
/// reference oracle in differential tests.
///
/// # Panics
/// Panics if `half_band == 0`... zero-width bands cannot host a match run
/// (callers always derive the band from the error rate).
pub fn banded_sw(
    s: &[u8],
    t: &[u8],
    center: i64,
    half_band: usize,
    scoring: Scoring,
) -> LocalAlignment {
    banded_sw_with(s, t, center, half_band, scoring, &mut AlignWorkspace::new(), KernelImpl::Scalar)
}

/// [`banded_sw`] using caller-owned scratch for its two DP rows: zero
/// heap allocations once the workspace has warmed up to the widest band
/// seen. Runs the kernel implementation selected by the thread's
/// [`crate::simd::SimdMode`]; both
/// implementations are bit-identical to [`banded_sw`] for every input and
/// any prior workspace state.
///
/// # Panics
/// Panics if `half_band == 0`, exactly as [`banded_sw`] does.
pub fn banded_sw_with_workspace(
    s: &[u8],
    t: &[u8],
    center: i64,
    half_band: usize,
    scoring: Scoring,
    ws: &mut AlignWorkspace,
) -> LocalAlignment {
    banded_sw_with(s, t, center, half_band, scoring, ws, simd::thread_simd_mode().kernel())
}

/// [`banded_sw_with_workspace`] with the kernel implementation pinned by
/// the caller instead of resolved from the thread's
/// [`crate::simd::SimdMode`] — the entry point the differential
/// bit-identity suites and kernel benchmarks drive both paths through.
///
/// # Panics
/// Panics if `half_band == 0`, exactly as [`banded_sw`] does.
pub fn banded_sw_with(
    s: &[u8],
    t: &[u8],
    center: i64,
    half_band: usize,
    scoring: Scoring,
    ws: &mut AlignWorkspace,
    imp: KernelImpl,
) -> LocalAlignment {
    match imp {
        KernelImpl::Scalar => banded_core_scalar(s, t, center, half_band, scoring, ws),
        KernelImpl::Simd => banded_core_simd(s, t, center, half_band, scoring, ws),
    }
}

/// The reference row-wise scalar banded scan.
fn banded_core_scalar(
    s: &[u8],
    t: &[u8],
    center: i64,
    half_band: usize,
    scoring: Scoring,
    ws: &mut AlignWorkspace,
) -> LocalAlignment {
    assert!(half_band > 0, "band must have positive width");
    let n = s.len();
    let m = t.len();
    let width = 2 * half_band + 1;
    // Row-wise DP over i; for each i, j ranges over the band around
    // diagonal `center`: j ∈ [i + center − half_band, i + center + half_band].
    let [prev, cur] = &mut ws.banded;
    prev.clear();
    prev.resize(width, 0);
    cur.clear();
    cur.resize(width, 0);
    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut cells = 0u64;

    let band_j = |i: usize, off: usize| -> Option<usize> {
        let j = i as i64 + center - half_band as i64 + off as i64;
        (j >= 1 && j <= m as i64).then_some(j as usize)
    };

    for i in 1..=n {
        for slot in cur.iter_mut() {
            *slot = 0;
        }
        for off in 0..width {
            let Some(j) = band_j(i, off) else { continue };
            cells += 1;
            // In banded coordinates (i, off): moving i → i+1 keeps the
            // same diagonal at the same `off`; cell (i-1, j-1) is at the
            // same off in `prev`, (i-1, j) is at off+1 in `prev`, and
            // (i, j-1) is at off-1 in `cur`.
            let diag = prev[off] + scoring.substitution(s[i - 1], t[j - 1]);
            let up = if off + 1 < width { prev[off + 1] + scoring.gap } else { i32::MIN / 4 };
            let left = if off > 0 { cur[off - 1] + scoring.gap } else { i32::MIN / 4 };
            let v = diag.max(up).max(left).max(0);
            cur[off] = v;
            if v > best {
                best = v;
                best_i = i;
                best_j = j;
            }
        }
        std::mem::swap(prev, cur);
    }
    LocalAlignment {
        score: best,
        s_start: 0,
        s_end: best_i,
        t_start: 0,
        t_end: best_j,
        cells,
    }
}

/// The lane-SIMD banded scan — bit-identical to [`banded_core_scalar`].
///
/// Within a row the only serial dependency is the `left` term. With a
/// linear gap cost that dependency factors out: `T = max(diag, up, 0)` is
/// independent per cell and vectorizes over [`I32x8::LANES`]-wide chunks,
/// and the final value is the max-plus prefix scan `v[off] = max(T[off],
/// v[off−1] + gap)` — a cheap branch-free second pass that also carries
/// the scalar kernel's in-order best tracking (so ties break identically).
/// `T ≥ 0` makes the carry into the first in-band cell irrelevant, exactly
/// like the scalar kernel's `left ≤ 0` at the band's left edge. Rows carry
/// one lane of `NEG_INF` padding past the band so the shifted `up` load at
/// `off = width − 1` reads a term that, like the scalar kernel's explicit
/// `NEG_INF`, can never win against the `max(…, 0)`. In-band cells the
/// scalar kernel skips (j out of `[1, m]`) stay 0, exactly as it leaves
/// them.
fn banded_core_simd(
    s: &[u8],
    t: &[u8],
    center: i64,
    half_band: usize,
    scoring: Scoring,
    ws: &mut AlignWorkspace,
) -> LocalAlignment {
    assert!(half_band > 0, "band must have positive width");
    let n = s.len();
    let m = t.len();
    let width = 2 * half_band + 1;
    let [prev, cur] = &mut ws.banded;
    // `width` band slots plus one lane of NEG_INF padding; the padding is
    // written once here and never stored to again.
    let phys = width + I32x8::LANES;
    prev.clear();
    prev.resize(phys, NEG_INF);
    cur.clear();
    cur.resize(phys, NEG_INF);
    prev[..width].fill(0);
    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut cells = 0u64;

    let gap_v = I32x8::splat(scoring.gap);
    let zero_v = I32x8::splat(0);
    let match_v = I32x8::splat(scoring.match_score);
    let mismatch_v = I32x8::splat(scoring.mismatch);

    for i in 1..=n {
        cur[..width].fill(0);
        // Valid slots are the contiguous `off` range keeping
        // j = i + center − half_band + off within [1, m].
        let jbase = i as i64 + center - half_band as i64;
        let f = (1 - jbase).max(0);
        let l = (m as i64 - jbase).min(width as i64 - 1);
        if f > l {
            std::mem::swap(prev, cur);
            continue;
        }
        let (f, l) = (f as usize, l as usize);
        cells += (l - f) as u64 + 1;
        let jf = (jbase + f as i64) as usize;

        // Pass 1: the order-free part of the recurrence,
        // T = max(diag, up, 0), in full-lane chunks with a scalar tail.
        // `t`'s band window is contiguous and ascending; `s[i−1]` is one
        // splat.
        let s_v = I32x8::splat(s[i - 1] as i32);
        let mut off = f;
        while off + I32x8::LANES <= l + 1 {
            let t_bytes = I32x8::load_bytes(t, jf - 1 + (off - f));
            let sub = t_bytes.eq_lanes(s_v).blend(match_v, mismatch_v);
            let diag = I32x8::load(prev, off).add(sub);
            let up = I32x8::load(prev, off + 1).add(gap_v);
            diag.max(up).max(zero_v).store(cur, off);
            off += I32x8::LANES;
        }
        while off <= l {
            let j = jf + (off - f);
            let diag = prev[off] + scoring.substitution(s[i - 1], t[j - 1]);
            // At off = width − 1 this reads the NEG_INF pad — same
            // can-never-win value as the scalar kernel's explicit branch.
            let up = prev[off + 1] + scoring.gap;
            cur[off] = diag.max(up).max(0);
            off += 1;
        }

        // Pass 2: fold the serial `left` term in with a max-plus carry
        // and replay the scalar kernel's in-order strict-improvement best
        // update.
        let mut carry = NEG_INF;
        for (off, slot) in cur[f..=l].iter_mut().enumerate() {
            let v = (*slot).max(carry + scoring.gap);
            *slot = v;
            carry = v;
            if v > best {
                best = v;
                best_i = i;
                best_j = jf + off;
            }
        }
        std::mem::swap(prev, cur);
    }
    LocalAlignment {
        score: best,
        s_start: 0,
        s_end: best_i,
        t_start: 0,
        t_end: best_j,
        cells,
    }
}

/// Band half-width needed to absorb the expected indel imbalance of an
/// overlap of length `ov` at error rate `e` (≈ half the errors are
/// insertions/deletions; 3σ headroom).
pub fn band_for_error_rate(ov: usize, e: f64) -> usize {
    let expected_indels = ov as f64 * e * 0.5;
    let sigma = expected_indels.sqrt();
    (expected_indels * 0.2 + 3.0 * sigma).ceil().max(8.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::smith_waterman;

    const S: Scoring = Scoring::bella();

    #[test]
    fn identical_on_main_diagonal() {
        let a = banded_sw(b"ACGTACGTAC", b"ACGTACGTAC", 0, 4, S);
        assert_eq!(a.score, 10);
        assert_eq!(a.s_end, 10);
        assert_eq!(a.t_end, 10);
    }

    #[test]
    fn matches_full_sw_when_band_is_wide() {
        let s = b"ACGTTGCAGGTATTTACGCAGGAT";
        let t = b"ACGTTGCATGTATTTACCCAGGAT";
        let full = smith_waterman(s, t, S);
        let banded = banded_sw(s, t, 0, s.len().max(t.len()), S);
        assert_eq!(banded.score, full.score);
    }

    #[test]
    fn narrow_band_misses_off_diagonal_alignment() {
        // The true alignment sits on diagonal +8; a ±2 band centred at 0
        // cannot see it.
        let s = b"TTTTTTTTACGTACGTACGT";
        let t = b"ACGTACGTACGTAAAAAAAA";
        let full = smith_waterman(s, t, S);
        assert!(full.score >= 12);
        let narrow = banded_sw(s, t, 0, 2, S);
        assert!(narrow.score < full.score);
        let centered = banded_sw(s, t, -8, 2, S);
        assert_eq!(centered.score, full.score);
    }

    #[test]
    fn cells_bounded_by_band() {
        let s = vec![b'A'; 500];
        let t = vec![b'A'; 500];
        let a = banded_sw(&s, &t, 0, 10, S);
        assert!(a.cells <= 500 * 21);
        assert_eq!(a.score, 500);
    }

    #[test]
    fn band_sizing_grows_with_error_and_length() {
        assert!(band_for_error_rate(2000, 0.15) > band_for_error_rate(2000, 0.05));
        assert!(band_for_error_rate(8000, 0.15) > band_for_error_rate(2000, 0.15));
        assert!(band_for_error_rate(10, 0.0) >= 8);
    }

    #[test]
    fn empty_inputs_score_zero() {
        let a = banded_sw(b"", b"ACGT", 0, 4, S);
        assert_eq!(a.score, 0);
        assert_eq!(a.cells, 0);
    }
}
