//! Gapped x-drop seed extension — diBELLA's production alignment kernel.
//!
//! Paper §2: "in place of full dynamic programming ... one can search only
//! for solutions with a limited number of mismatches (banded
//! Smith-Waterman) and terminate early when the alignment score drops
//! significantly (x-drop) \[37\]. This makes pairwise alignment linear in
//! L." The original algorithm is Zhang, Schwartz, Wagner & Miller (2000);
//! diBELLA calls SeqAn's implementation — this is a from-scratch
//! equivalent (see DESIGN.md §2).
//!
//! The extension walks antidiagonals of the DP matrix keeping only the
//! cells whose score is within `X` of the best score seen so far; the
//! frontier both grows (gaps) and shrinks (pruning), so well-matched
//! sequences stay in a narrow adaptive band while divergent pairs
//! terminate after O(X) antidiagonals — the property behind the alignment
//! stage's x-drop load imbalance (paper §9, Figure 8).

use crate::scoring::Scoring;
use crate::simd::{self, round_up_lanes, I32x8, KernelImpl, LANES};
use crate::workspace::AlignWorkspace;

/// Score used for pruned/unreachable cells. Kept well away from `i32::MIN`
/// so arithmetic cannot overflow.
const NEG_INF: i32 = i32::MIN / 4;

/// Direction an extension walks its input slices in.
///
/// `Fwd` reads `s[i]`; `Rev` reads `s[len − 1 − i]`, i.e. the slice
/// backward **in place** — the copy-free equivalent of extending over a
/// reversed prefix. Used as a `const` generic so the hot loop is
/// monomorphized with no per-base branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Left-to-right (suffix extension).
    Fwd,
    /// Right-to-left (prefix extension, walked without materializing the
    /// reversed copy).
    Rev,
}

/// Base `idx` of `seq` in walk order: identity for the forward direction,
/// mirrored for the reverse direction.
#[inline(always)]
fn base_at<const REV: bool>(seq: &[u8], idx: usize) -> u8 {
    if REV {
        seq[seq.len() - 1 - idx]
    } else {
        seq[idx]
    }
}

/// Outcome of a one-directional x-drop extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extension {
    /// Best extension score found (≥ 0; the empty extension scores 0).
    pub score: i32,
    /// Bases of `s` consumed by the best extension.
    pub s_ext: usize,
    /// Bases of `t` consumed by the best extension.
    pub t_ext: usize,
    /// DP cells computed.
    pub cells: u64,
}

/// Extend an alignment from the start of `s` against the start of `t`
/// with gapped x-drop pruning (drop-off parameter `x > 0`).
///
/// Returns the maximum-score pair of prefixes; the extension may be empty
/// (`score = 0`).
///
/// Thin wrapper over the **scalar** kernel with a throwaway workspace;
/// hot callers should hold a per-thread [`AlignWorkspace`] and call the
/// workspace variant directly. Stays pinned to the scalar implementation
/// regardless of the kernel mode so it can serve as the reference
/// oracle in differential tests.
pub fn extend_xdrop(s: &[u8], t: &[u8], scoring: Scoring, x: i32) -> Extension {
    extend_xdrop_with(s, t, scoring, x, &mut AlignWorkspace::new(), KernelImpl::Scalar)
}

/// [`extend_xdrop`] using caller-owned scratch: zero heap allocations per
/// antidiagonal and — once `ws` has warmed up — zero per call.
///
/// Runs the kernel implementation selected by the thread's
/// [`crate::simd::SimdMode`]; both
/// implementations are bit-identical to [`extend_xdrop`] for every input
/// and any prior workspace state.
pub fn extend_xdrop_with_workspace(
    s: &[u8],
    t: &[u8],
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
) -> Extension {
    extend_xdrop_with(s, t, scoring, x, ws, simd::thread_simd_mode().kernel())
}

/// [`extend_xdrop_with_workspace`] with the kernel implementation chosen
/// explicitly — the entry point the differential bit-identity suites
/// drive both paths through.
pub fn extend_xdrop_with(
    s: &[u8],
    t: &[u8],
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
    imp: KernelImpl,
) -> Extension {
    match imp {
        KernelImpl::Scalar => xdrop_core::<false>(s, t, scoring, x, &mut ws.xdrop),
        KernelImpl::Simd => xdrop_core_simd::<false>(s, t, scoring, x, ws),
    }
}

/// The x-drop scan over antidiagonals, generic over walk direction.
///
/// Row storage is the caller's three reusable buffers (antidiagonals d−2,
/// d−1 and the one being filled), **rotated** at the end of each
/// antidiagonal instead of cloned. Pruning no longer copies the surviving
/// span out: each row keeps its physical base offset (`*_base`, the `lo`
/// it was filled at) alongside the logical surviving range
/// (`*_lo ..= *_hi`), and all reads bound-check against the logical range
/// — so the scores read, the candidate ranges derived from them, and the
/// `cells` tally are exactly those of the historical copying
/// implementation.
pub(crate) fn xdrop_core<const REV: bool>(
    s: &[u8],
    t: &[u8],
    scoring: Scoring,
    x: i32,
    rows: &mut [Vec<i32>; 3],
) -> Extension {
    assert!(x > 0, "x-drop threshold must be positive");
    let n = s.len();
    let m = t.len();
    if n == 0 || m == 0 {
        return Extension { score: 0, s_ext: 0, t_ext: 0, cells: 0 };
    }

    // Rows indexed by i (chars of s consumed); row d covers antidiagonal
    // i + j = d over i ∈ [lo, hi].
    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut cells = 0u64;

    let [prev2, prev, cur] = rows;

    // d = 0: the single cell (0, 0) = 0.
    prev2.clear();
    prev2.push(0);
    let mut prev2_base = 0usize;
    let mut prev2_lo = 0usize;
    let mut prev2_hi = 0usize;

    // d = 1: cells (0,1) and (1,0), both pure gap (n, m ≥ 1 here).
    prev.clear();
    for i in 0..=1usize {
        let jd = 1 - i;
        if i > n || jd > m {
            prev.push(NEG_INF);
            continue;
        }
        cells += 1;
        prev.push(scoring.gap);
    }
    // Prune row 1 (gap = −1 survives any positive x, but keep the check
    // for exotic scoring schemes).
    if prev.iter().all(|&v| v < best - x) {
        return Extension { score: best, s_ext: best_i, t_ext: best_j, cells };
    }
    let mut prev_base = 0usize;
    let mut prev_lo = 0usize;
    let mut prev_hi = 1usize;

    let mut d = 1usize;
    loop {
        d += 1;
        if d > n + m {
            break;
        }
        // Candidate i range for row d from surviving cells of row d-1:
        // a cell (i, j) on row d is reachable from (i, j-1) [same i] or
        // (i-1, j) [i-1] on row d-1, or (i-1, j-1) on row d-2.
        let lo = prev_lo.max(d.saturating_sub(m));
        let hi = (prev_hi + 1).min(d).min(n);
        if lo > hi {
            break;
        }
        cur.clear();
        cur.resize(hi - lo + 1, NEG_INF);
        let mut any = false;
        for i in lo..=hi {
            let j = d - i;
            if j > m || i > n {
                continue;
            }
            cells += 1;
            let mut v = NEG_INF;
            // Gap in s (from (i, j-1), row d-1, same i).
            if i >= prev_lo && i <= prev_hi && j >= 1 {
                let c = prev[i - prev_base];
                if c > NEG_INF {
                    v = v.max(c + scoring.gap);
                }
            }
            // Gap in t (from (i-1, j), row d-1, index i-1).
            if i > prev_lo && i - 1 <= prev_hi {
                let c = prev[i - 1 - prev_base];
                if c > NEG_INF {
                    v = v.max(c + scoring.gap);
                }
            }
            // Substitution (from (i-1, j-1), row d-2, index i-1).
            if i >= 1 && j >= 1 && i > prev2_lo && i - 1 <= prev2_hi {
                let c = prev2[i - 1 - prev2_base];
                if c > NEG_INF {
                    let sub = scoring
                        .substitution(base_at::<REV>(s, i - 1), base_at::<REV>(t, j - 1));
                    v = v.max(c + sub);
                }
            }
            if v <= NEG_INF {
                continue;
            }
            if v > best {
                best = v;
                best_i = i;
                best_j = j;
            }
            cur[i - lo] = v;
            any = true;
        }
        if !any {
            break;
        }
        // X-drop pruning: restrict the logical range to cells ≥ best − x.
        // No copy, no NEG_INF back-fill: cells outside [first, last] are
        // simply excluded by the next rows' logical-range bound checks.
        let threshold = best - x;
        let first = cur.iter().position(|&v| v >= threshold);
        let last = cur.iter().rposition(|&v| v >= threshold);
        let (first, last) = match (first, last) {
            (Some(f), Some(l)) => (f, l),
            _ => break, // every cell pruned → extension terminates
        };
        // Rotate: d-1 becomes d-2, the filled row becomes d-1, and the
        // old d-2 buffer is recycled as the next row's storage.
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
        prev2_base = prev_base;
        prev2_lo = prev_lo;
        prev2_hi = prev_hi;
        prev_base = lo;
        prev_lo = lo + first;
        prev_hi = lo + last;
    }

    Extension { score: best, s_ext: best_i, t_ext: best_j, cells }
}

/// The lane-SIMD x-drop scan — same antidiagonal walk, pruning and
/// bookkeeping as [`xdrop_core`], with the per-cell recurrence computed
/// [`LANES`] cells at a time.
///
/// The key observation is that within one antidiagonal the cells are
/// independent: cell `(i, d−i)` reads only rows `d−1` and `d−2`, so the
/// inner loop vectorizes *vertically* with three shifted row loads. The
/// scalar kernel's per-cell range guards become per-term interval masks
/// (each recurrence source is legal on one contiguous `i`-interval), and
/// its incremental best tracking collapses to a per-row maximum plus one
/// rescan on improving rows — the first cell achieving a row's maximum is
/// exactly the cell the scalar scan records. Rows store a `NEG_INF`
/// sentinel at slot 0 (so `i−1` loads never underflow) and are padded to
/// whole lanes (so full-width loads never overflow); pruned cells store
/// exactly `NEG_INF`, as the scalar kernel leaves them. Output is
/// therefore bit-identical to [`xdrop_core`] — scores, extents *and* the
/// `cells` tally — which `tests/simd_identity.rs` and
/// `tests/kernel_golden.rs` enforce.
pub(crate) fn xdrop_core_simd<const REV: bool>(
    s: &[u8],
    t: &[u8],
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
) -> Extension {
    assert!(x > 0, "x-drop threshold must be positive");
    let n = s.len();
    let m = t.len();
    if n == 0 || m == 0 {
        return Extension { score: 0, s_ext: 0, t_ext: 0, cells: 0 };
    }

    let AlignWorkspace { xdrop: rows, sub_scores, rev_bytes, .. } = ws;
    let [prev2, prev, cur] = rows;

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut cells = 0u64;

    // Row layout: slot 0 is a NEG_INF sentinel backing the shifted
    // (`i−1`) loads, slot `1 + (i − base)` holds cell `i`, and the tail
    // is padded so any full-width load launched from a valid cell stays
    // in bounds. A row never exceeds min(n, m) + 1 cells, so one sizing
    // covers the whole call; rows are not re-initialized per
    // antidiagonal — every slot an *unmasked* lane reads was stored by
    // the previous rows' store passes (or is the sentinel), masked lanes
    // tolerate arbitrary stale data, and the post-row scans only look at
    // freshly stored cells.
    let max_len = n.min(m) + 1;
    let phys = 1 + round_up_lanes(max_len) + LANES;
    for row in [&mut *prev2, &mut *prev, &mut *cur] {
        row.clear();
        row.resize(phys, NEG_INF);
    }
    sub_scores.clear();
    sub_scores.resize(round_up_lanes(max_len) + LANES, NEG_INF);

    // d = 0: the single cell (0, 0) = 0.
    prev2[1] = 0;
    let mut prev2_base = 0usize;
    let mut prev2_lo = 0usize;
    let mut prev2_hi = 0usize;

    // d = 1: cells (0,1) and (1,0), both pure gap (n, m ≥ 1 here).
    prev[1] = scoring.gap;
    prev[2] = scoring.gap;
    cells += 2;
    if scoring.gap < best - x {
        return Extension { score: best, s_ext: best_i, t_ext: best_j, cells };
    }
    let mut prev_base = 0usize;
    let mut prev_lo = 0usize;
    let mut prev_hi = 1usize;

    let gap_v = I32x8::splat(scoring.gap);
    let neg_v = I32x8::splat(NEG_INF);

    let mut d = 1usize;
    loop {
        d += 1;
        if d > n + m {
            break;
        }
        let lo = prev_lo.max(d.saturating_sub(m));
        let hi = (prev_hi + 1).min(d).min(n);
        if lo > hi {
            break;
        }
        let len = hi - lo + 1;
        // Every i in [lo, hi] is a computed cell: lo ≥ d − m keeps
        // j = d − i ≤ m and hi ≤ min(d, n) keeps i ≤ n, j ≥ 0 — the
        // scalar kernel's skip guard never fires.
        cells += len as u64;

        // Per-term legal-source intervals of i (empty ⇒ all-false masks):
        // gap in s needs (i, j−1) alive on row d−1 and j ≥ 1; gap in t
        // needs (i−1, j) alive on row d−1; substitution needs (i−1, j−1)
        // alive on row d−2 with i, j ≥ 1.
        let gs_lo = lo.max(prev_lo);
        let gs_hi = hi.min(prev_hi).min(d - 1);
        let gt_lo = lo.max(prev_lo + 1);
        let gt_hi = hi.min(prev_hi + 1);
        let sub_lo = lo.max(1).max(prev2_lo + 1);
        let sub_hi = hi.min(prev2_hi + 1).min(d - 1);

        // Substitution scores for the candidate diagonal cells, staged
        // into a lane-padded scratch row indexed by i − lo (only the
        // `[sub_lo, sub_hi]` window is written; lanes outside it are
        // masked or unused). One side of the antidiagonal walks its
        // sequence backward; copying that side reversed first lets the
        // compare loop run forward over both.
        if sub_lo <= sub_hi {
            rev_bytes.clear();
            let fwd: &[u8] = if REV {
                // Walk-order base of s is s[n − i] (descending with i);
                // of t is t[m − d + i] (ascending).
                rev_bytes.extend(s[n - sub_hi..=n - sub_lo].iter().rev());
                &t[m + sub_lo - d..=m + sub_hi - d]
            } else {
                // s[i − 1] ascends with i; t[d − i − 1] descends.
                rev_bytes.extend(t[d - 1 - sub_hi..=d - 1 - sub_lo].iter().rev());
                &s[sub_lo - 1..=sub_hi - 1]
            };
            let at = sub_lo - lo;
            for (slot, (&p, &q)) in sub_scores[at..].iter_mut().zip(fwd.iter().zip(&*rev_bytes)) {
                *slot = if p == q { scoring.match_score } else { scoring.mismatch };
            }
        }

        let gs_lo_v = I32x8::splat(gs_lo as i32);
        let gs_hi_v = I32x8::splat(gs_hi as i32);
        let gt_lo_v = I32x8::splat(gt_lo as i32);
        let gt_hi_v = I32x8::splat(gt_hi as i32);
        let sub_lo_v = I32x8::splat(sub_lo as i32);
        let sub_hi_v = I32x8::splat(sub_hi as i32);

        // On `[core_lo, core_hi]` every term is legal, so whole chunks
        // inside it skip the interval masks (and share the gap add) —
        // that covers all but the first and last chunks of a typical row.
        let core_lo = gs_lo.max(gt_lo).max(sub_lo);
        let core_hi = gs_hi.min(gt_hi).min(sub_hi);

        let mut rowmax = neg_v;
        let mut i0 = lo;
        while i0 <= hi {
            let v = if i0 >= core_lo && i0 + (LANES - 1) <= core_hi {
                let horiz = I32x8::load(prev, i0 - prev_base + 1)
                    .max(I32x8::load(prev, i0 - prev_base))
                    .add(gap_v);
                let diag =
                    I32x8::load(prev2, i0 - prev2_base).add(I32x8::load(sub_scores, i0 - lo));
                // Clamp: a term fed by a pruned (NEG_INF) cell must store
                // exactly NEG_INF, as the scalar kernel leaves it.
                horiz.max(diag).max(neg_v)
            } else {
                let vi = I32x8::iota(i0 as i32);
                // Gap in s (from (i, j−1), row d−1, same i).
                let c = I32x8::load(prev, i0 - prev_base + 1);
                let mask = vi.ge(gs_lo_v).and(vi.le(gs_hi_v));
                let mut v = mask.blend(c.add(gap_v), neg_v);
                // Gap in t (from (i−1, j), row d−1, cell i−1).
                let c = I32x8::load(prev, i0 - prev_base);
                let mask = vi.ge(gt_lo_v).and(vi.le(gt_hi_v));
                v = v.max(mask.blend(c.add(gap_v), neg_v));
                // Substitution (from (i−1, j−1), row d−2, cell i−1).
                let c = I32x8::load(prev2, i0 - prev2_base);
                let sub = I32x8::load(sub_scores, i0 - lo);
                let mask = vi.ge(sub_lo_v).and(vi.le(sub_hi_v));
                v = v.max(mask.blend(c.add(sub), neg_v));
                v.max(neg_v)
            };
            v.store(cur, i0 - lo + 1);
            rowmax = rowmax.max(v);
            i0 += LANES;
        }

        let rm = rowmax.hmax();
        if rm <= NEG_INF {
            break; // no reachable cell on this antidiagonal
        }
        if rm > best {
            // The scalar scan's incremental `v > best` updates land on the
            // first cell achieving the row maximum; recover it by rescan.
            let off = cur[1..1 + len]
                .iter()
                .position(|&v| v == rm)
                .expect("row maximum must be present");
            best = rm;
            best_i = lo + off;
            best_j = d - best_i;
        }
        // X-drop pruning on the logical range, exactly as the scalar scan.
        let threshold = best - x;
        let live = &cur[1..1 + len];
        let first = live.iter().position(|&v| v >= threshold);
        let last = live.iter().rposition(|&v| v >= threshold);
        let (first, last) = match (first, last) {
            (Some(f), Some(l)) => (f, l),
            _ => break, // every cell pruned → extension terminates
        };
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
        prev2_base = prev_base;
        prev2_lo = prev_lo;
        prev2_hi = prev_hi;
        prev_base = lo;
        prev_lo = lo + first;
        prev_hi = lo + last;
    }

    Extension { score: best, s_ext: best_i, t_ext: best_j, cells }
}

/// Ungapped x-drop extension along the main diagonal (the cheap variant
/// BLAST uses before gapped extension; exposed for the kernel ablation).
pub fn extend_ungapped(s: &[u8], t: &[u8], scoring: Scoring, x: i32) -> Extension {
    assert!(x > 0);
    let mut score = 0i32;
    let mut best = 0i32;
    let mut best_len = 0usize;
    let mut cells = 0u64;
    for (i, (&a, &b)) in s.iter().zip(t.iter()).enumerate() {
        cells += 1;
        score += scoring.substitution(a, b);
        if score > best {
            best = score;
            best_len = i + 1;
        }
        if score < best - x {
            break;
        }
    }
    Extension { score: best, s_ext: best_len, t_ext: best_len, cells }
}

/// A shared-seed alignment task between two oriented sequences.
///
/// Positions refer to the *oriented* sequences handed to
/// [`extend_seed`] — the overlap stage resolves canonical-k-mer strands
/// before building tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedHit {
    /// Seed start in `a`.
    pub a_pos: usize,
    /// Seed start in `b` (oriented coordinates).
    pub b_pos: usize,
    /// Seed length (the k-mer length).
    pub k: usize,
}

/// A completed seed-and-extend alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedAlignment {
    /// Total score: left extension + seed + right extension.
    pub score: i32,
    /// Aligned range in `a`.
    pub a_start: usize,
    /// End (exclusive) in `a`.
    pub a_end: usize,
    /// Aligned range in `b` (oriented coordinates).
    pub b_start: usize,
    /// End (exclusive) in `b`.
    pub b_end: usize,
    /// Total DP cells computed (both directions).
    pub cells: u64,
}

/// Directional [`extend_xdrop_with_workspace`]: `Dir::Fwd` extends over
/// the slices left-to-right; `Dir::Rev` extends right-to-left **in
/// place**, equivalent to (and bit-identical with) extending over
/// materialized reversed copies — without the copies.
pub fn extend_xdrop_dir_with_workspace(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
) -> Extension {
    extend_xdrop_dir_with(s, t, dir, scoring, x, ws, simd::thread_simd_mode().kernel())
}

/// [`extend_xdrop_dir_with_workspace`] with the kernel implementation
/// pinned by the caller instead of resolved from the thread's
/// [`crate::simd::SimdMode`]. This is the entry point the differential
/// tests and the kernel benchmarks use to drive both implementations over
/// the same (dirty) workspace.
pub fn extend_xdrop_dir_with(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
    imp: KernelImpl,
) -> Extension {
    match (dir, imp) {
        (Dir::Fwd, KernelImpl::Scalar) => xdrop_core::<false>(s, t, scoring, x, &mut ws.xdrop),
        (Dir::Rev, KernelImpl::Scalar) => xdrop_core::<true>(s, t, scoring, x, &mut ws.xdrop),
        (Dir::Fwd, KernelImpl::Simd) => xdrop_core_simd::<false>(s, t, scoring, x, ws),
        (Dir::Rev, KernelImpl::Simd) => xdrop_core_simd::<true>(s, t, scoring, x, ws),
    }
}

/// Seed-and-extend with gapped x-drop in both directions from a shared
/// k-mer (paper §4 step 4: "perform alignment on these read pairs using
/// the shared k-mer as the starting position (seed)").
///
/// Thin wrapper over the **scalar** kernel with a throwaway workspace,
/// pinned regardless of the kernel mode so it can serve as the
/// reference oracle in differential tests.
///
/// # Panics
/// Panics if the seed exceeds either sequence.
pub fn extend_seed(a: &[u8], b: &[u8], seed: SeedHit, scoring: Scoring, x: i32) -> SeedAlignment {
    extend_seed_with(a, b, seed, scoring, x, &mut AlignWorkspace::new(), KernelImpl::Scalar)
}

/// [`extend_seed`] using caller-owned scratch. The left extension walks
/// the two prefixes backward in place ([`Dir::Rev`]) instead of
/// materializing reversed copies, so the per-task steady state performs
/// zero heap allocations.
///
/// # Panics
/// Panics if the seed exceeds either sequence.
pub fn extend_seed_with_workspace(
    a: &[u8],
    b: &[u8],
    seed: SeedHit,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
) -> SeedAlignment {
    extend_seed_with(a, b, seed, scoring, x, ws, simd::thread_simd_mode().kernel())
}

/// [`extend_seed_with_workspace`] with the kernel implementation pinned
/// by the caller (both directional extensions run on the chosen kernel;
/// the seed-region prologue is scalar by nature and shared).
///
/// # Panics
/// Panics if the seed exceeds either sequence.
pub fn extend_seed_with(
    a: &[u8],
    b: &[u8],
    seed: SeedHit,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
    imp: KernelImpl,
) -> SeedAlignment {
    assert!(seed.a_pos + seed.k <= a.len(), "seed out of range in a");
    assert!(seed.b_pos + seed.k <= b.len(), "seed out of range in b");

    // Score the seed region itself (normally k matches; sequencing errors
    // can make canonical-strand seeds imperfect, so score actual bases).
    // Iterating the two base slices directly lets the compiler hoist the
    // bounds checks out of the per-task prologue.
    let seed_score: i32 = a[seed.a_pos..seed.a_pos + seed.k]
        .iter()
        .zip(&b[seed.b_pos..seed.b_pos + seed.k])
        .map(|(&ab, &bb)| scoring.substitution(ab, bb))
        .sum();

    // Left: the prefixes, walked backward in place.
    let left = extend_xdrop_dir_with(
        &a[..seed.a_pos],
        &b[..seed.b_pos],
        Dir::Rev,
        scoring,
        x,
        ws,
        imp,
    );

    // Right: suffixes.
    let right = extend_xdrop_dir_with(
        &a[seed.a_pos + seed.k..],
        &b[seed.b_pos + seed.k..],
        Dir::Fwd,
        scoring,
        x,
        ws,
        imp,
    );

    SeedAlignment {
        score: left.score + seed_score + right.score,
        a_start: seed.a_pos - left.s_ext,
        a_end: seed.a_pos + seed.k + right.s_ext,
        b_start: seed.b_pos - left.t_ext,
        b_end: seed.b_pos + seed.k + right.t_ext,
        cells: left.cells + right.cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::smith_waterman;

    const S: Scoring = Scoring::bella();

    #[test]
    fn identical_extension_runs_to_the_end() {
        let e = extend_xdrop(b"ACGTACGTGG", b"ACGTACGTGG", S, 10);
        assert_eq!(e.score, 10);
        assert_eq!(e.s_ext, 10);
        assert_eq!(e.t_ext, 10);
    }

    #[test]
    fn empty_inputs() {
        let e = extend_xdrop(b"", b"", S, 5);
        assert_eq!(e.score, 0);
        let e = extend_xdrop(b"ACGT", b"", S, 5);
        assert_eq!((e.score, e.s_ext, e.t_ext), (0, 0, 0));
    }

    #[test]
    fn mismatch_tail_is_not_included() {
        let e = extend_xdrop(b"AAAAGGGG", b"AAAACCCC", S, 3);
        assert_eq!(e.score, 4);
        assert_eq!(e.s_ext, 4);
    }

    #[test]
    fn bridges_single_gap() {
        // s has an extra base; gapped extension must recover the match run.
        let e = extend_xdrop(b"AAAACAAAAAAA", b"AAAAAAAAAAA", S, 6);
        // 11 matches − 1 gap = 10.
        assert_eq!(e.score, 10);
        assert_eq!(e.s_ext, 12);
        assert_eq!(e.t_ext, 11);
    }

    #[test]
    fn xdrop_terminates_early_on_divergence() {
        // After 6 matching bases the sequences are unrelated; with a small
        // X the extension must stop long before the end.
        let mut s = b"ACGTGC".to_vec();
        let mut t = b"ACGTGC".to_vec();
        s.extend(std::iter::repeat_n(b'A', 4000));
        t.extend(std::iter::repeat_n(b'C', 4000));
        let e = extend_xdrop(&s, &t, S, 10);
        assert_eq!(e.score, 6);
        assert!(e.cells < 2_000, "expected early exit, computed {} cells", e.cells);
    }

    #[test]
    fn larger_x_never_scores_lower() {
        let s = b"ACGTTGCAGGTATTTACGCAGGATACGGATTACA";
        let t = b"ACGTTGCAGCTATTTACGCAGCATACGGTTTACA";
        let mut prev = 0;
        for x in [1, 2, 5, 10, 50] {
            let e = extend_xdrop(s, t, S, x);
            assert!(e.score >= prev, "x={x}");
            prev = e.score;
        }
    }

    #[test]
    fn huge_x_matches_best_prefix_pair_score() {
        // With X → ∞ the x-drop finds the global best prefix-pair score,
        // which for these inputs equals the SW local score anchored at 0,0.
        let s = b"ACGTACGTAC";
        let t = b"ACGTACGTAC";
        let e = extend_xdrop(s, t, S, 1_000_000);
        assert_eq!(e.score, 10);
    }

    #[test]
    fn ungapped_stops_at_best() {
        let e = extend_ungapped(b"AAAATTTT", b"AAAACCCC", S, 2);
        assert_eq!(e.score, 4);
        assert_eq!(e.s_ext, 4);
        assert!(e.cells <= 8);
    }

    #[test]
    fn seed_extension_full_overlap() {
        //        0123456789
        let a = b"TTTTACGTACGTAAAA";
        let b = b"TTTTACGTACGTAAAA";
        let seed = SeedHit { a_pos: 4, b_pos: 4, k: 8 };
        let al = extend_seed(a, b, seed, S, 20);
        assert_eq!(al.score, 16);
        assert_eq!((al.a_start, al.a_end), (0, 16));
        assert_eq!((al.b_start, al.b_end), (0, 16));
    }

    #[test]
    fn seed_extension_offset_overlap() {
        // b is a shifted window of a: suffix of a overlaps prefix of b.
        let a = b"GGGGGGACGTACGTTTTT";
        let b = b"ACGTACGTTTTTCCCCCC";
        let seed = SeedHit { a_pos: 6, b_pos: 0, k: 8 };
        let al = extend_seed(a, b, seed, S, 10);
        // Overlap region is 12 bases (ACGTACGTTTTT).
        assert_eq!(al.score, 12);
        assert_eq!((al.a_start, al.a_end), (6, 18));
        assert_eq!((al.b_start, al.b_end), (0, 12));
    }

    #[test]
    fn seed_alignment_never_beats_smith_waterman() {
        let a = b"ACGTTGCAGGTATTTACGCAGGATACGGATTACA";
        let b = b"TTGCAGGTATTAACGCAGGATACGG";
        // Seed at a true shared 8-mer: a[4..12] == b[1..9].
        assert_eq!(&a[4..12], &b[1..9]);
        let al = extend_seed(a, b, SeedHit { a_pos: 4, b_pos: 1, k: 8 }, S, 50);
        let oracle = smith_waterman(a, b, S);
        assert!(al.score <= oracle.score, "xdrop {} > SW {}", al.score, oracle.score);
        assert!(al.score > 0);
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn seed_bounds_checked() {
        let _ = extend_seed(b"ACGT", b"ACGT", SeedHit { a_pos: 2, b_pos: 0, k: 4 }, S, 5);
    }

    #[test]
    fn divergent_pair_cheap_vs_true_pair_expensive() {
        // The Fig-8 load-imbalance mechanism: a true overlapping pair costs
        // DP work proportional to the overlap, a spurious pair terminates
        // after ~X antidiagonals regardless of read length.
        let unit = b"ACGTTGCAGGTATTTACGCA";
        let long: Vec<u8> = unit.iter().cycle().take(2000).copied().collect();
        let seed = SeedHit { a_pos: 0, b_pos: 0, k: 8 };
        let good = extend_seed(&long, &long.clone(), seed, S, 15);
        let mut bad_b = long[..20].to_vec();
        bad_b.extend(std::iter::repeat_n(b'T', 1980));
        let bad = extend_seed(&long, &bad_b, seed, S, 15);
        assert!(
            good.cells > 5 * bad.cells,
            "good={} bad={}",
            good.cells,
            bad.cells
        );
        assert!(good.score > bad.score);
    }
}
