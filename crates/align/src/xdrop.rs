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
use crate::simd::{self, I16x16, KernelImpl};
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
    extend_xdrop_dir_with(s, t, Dir::Fwd, scoring, x, ws, imp)
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

/// `|match|`, `|mismatch|` and `|gap|` bound under which the lane kernel
/// is exact: one row moves `best` by at most this much.
const LANE_SCORE_MAX: i32 = 64;

/// Largest drop-off `x` the lane kernel runs.
const LANE_X_MAX: i32 = 4096;

/// Lowest value, relative to its row's base, the lane kernel lets a cell
/// take; below it the extension restarts on the scalar kernel.
const LANE_FLOOR: i16 = -8192;

/// Rows between two checks of [`LANE_FLOOR`]. A row's minimum sits at
/// most `2 · LANE_SCORE_MAX` below the previous row's, so values stay far
/// above the `i16::MIN` sentinel between checks.
const LANE_GUARD_ROWS: usize = 64;

/// Sentinel of the lane kernel: saturating adds keep it at `i16::MIN`
/// under every non-positive term, and it loses every `max` against a
/// reachable cell.
const NEG: i16 = i16::MIN;

/// Whether the lane kernel is exact for these parameters. With scores in
/// `[−64, 64]` and `x ≤ 4096` every pruning threshold, rebase and
/// recurrence term fits `i16` with room to spare.
fn lanes_exact(scoring: Scoring, x: i32) -> bool {
    (1..=LANE_SCORE_MAX).contains(&scoring.match_score)
        && (-LANE_SCORE_MAX..=-1).contains(&scoring.mismatch)
        && (-LANE_SCORE_MAX..=-1).contains(&scoring.gap)
        && x <= LANE_X_MAX
}

/// Per-row constants of the lane recurrence: the gap and substitution
/// terms rebased to the row's frame, and where cell 0 of the row would
/// sit in the reversed `t` copy. (The chunk step is an `#[inline(always)]`
/// method, not a closure: LLVM declined to inline the closure, and its
/// lanes then went through memory as scalar code.)
struct RowTerms {
    gap: I16x16,
    match_score: I16x16,
    mismatch: I16x16,
    t_at: usize,
}

impl RowTerms {
    /// Cells `i0 .. i0 + 16` of the row: the best of the two gap moves
    /// from row d−1 and the substitution from row d−2.
    #[inline(always)]
    fn chunk(&self, prev: &[i16], prev2: &[i16], sw: &[u8], tr: &[u8], i0: usize) -> I16x16 {
        let horiz = I16x16::load(prev, i0 + 1).max(I16x16::load(prev, i0)).adds(self.gap);
        let eq = I16x16::eq_bytes(&sw[i0..], &tr[self.t_at.wrapping_add(i0)..]);
        let diag = I16x16::load(prev2, i0).adds(eq.blend(self.match_score, self.mismatch));
        horiz.max(diag)
    }
}

/// The lane x-drop scan: the same antidiagonal walk, pruning and
/// bookkeeping as [`xdrop_core`], with each row computed
/// [`I16x16::LANES`] cells at a time in `i16`. Returns `Err(d)` when a
/// cell has dropped below [`LANE_FLOOR`] by antidiagonal `d`; the caller
/// then reruns the scalar kernel.
///
/// * **Relative rows.** Row `d` is stored relative to `best` as it stood
///   before the row (its base), so no cell exceeds `LANE_SCORE_MAX`, and
///   a check every [`LANE_GUARD_ROWS`] rows gives up once one has sunk
///   below `LANE_FLOOR`. Reading rows `d−1` and `d−2` in row `d`'s frame
///   folds into the per-row terms `gap + (base₁ − best)` and
///   `sub + (base₂ − best)`.
/// * **Sentinels, not masks.** Rows are indexed by absolute `i` (slot
///   `i + 1`; slot 0 is a permanent `NEG`). Every cell of `[lo, hi]` has a
///   live source on row `d−1`, and after pruning row `d` to
///   `[first, last]` the kernel writes `NEG` to cells `first − 1` and
///   `last + 1` — the only cells outside the live range that any
///   in-range lane of rows `d+1` and `d+2` reads. So no term needs an
///   interval mask; only the row's last chunk masks its lanes past `hi`.
/// * **Oriented bytes.** `s` in walk order and `t` reversed are copied
///   once per call, so cell `i`'s bases sit at the same lane offset in
///   both and the substitution term is one byte compare.
///
/// The first cell reaching a row's maximum is the one the scalar scan's
/// incremental `v > best` records, so scores, extents and the `cells`
/// tally are bit-identical to [`xdrop_core`] (`tests/simd_identity.rs`,
/// `tests/kernel_golden.rs`). Not inlined, so both directions of
/// [`extend_seed_with`] share one copy of the kernel.
#[inline(never)]
pub(crate) fn xdrop_lanes(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
) -> Result<Extension, usize> {
    const L: usize = I16x16::LANES;
    assert!(x > 0, "x-drop threshold must be positive");
    let n = s.len();
    let m = t.len();
    if n == 0 || m == 0 {
        return Ok(Extension { score: 0, s_ext: 0, t_ext: 0, cells: 0 });
    }
    let AlignWorkspace { xdrop_lanes: rows, oriented: [sw, tr], .. } = ws;

    // sw[i] = walk-order base i − 1 of s; tr[m + i − d] = walk-order base
    // d − i − 1 of t. Pads make full-lane reads at i = 0 and up to `hi`
    // legal; their compares only ever meet `NEG` or masked lanes.
    sw.clear();
    sw.push(0);
    tr.clear();
    match dir {
        Dir::Fwd => {
            sw.extend_from_slice(s);
            tr.extend(t.iter().rev());
        }
        Dir::Rev => {
            sw.extend(s.iter().rev());
            tr.extend_from_slice(t);
        }
    }
    sw.extend_from_slice(&[0; L]);
    tr.extend_from_slice(&[0; L]);

    // A chunk starting at i0 ≤ n touches slots up to i0 + L.
    let phys = n + L + 1;
    for row in rows.iter_mut() {
        if row.len() < phys {
            row.resize(phys, NEG);
        }
    }
    let (sw, tr) = (&sw[..], &tr[..]);
    let [r0, r1, r2] = rows;
    let (mut prev2, mut prev, mut cur) = (&mut r0[..phys], &mut r1[..phys], &mut r2[..phys]);

    // d = 0: the single cell (0, 0) = 0. d = 1: cells (0, 1) and (1, 0),
    // both pure gap. Both rows are relative to best = 0.
    prev2[1] = 0;
    prev2[2] = NEG;
    prev[1] = scoring.gap as i16;
    prev[2] = scoring.gap as i16;
    prev[3] = NEG;
    let mut cells = 2u64;
    if scoring.gap < -x {
        return Ok(Extension { score: 0, s_ext: 0, t_ext: 0, cells });
    }

    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    // Bases (best before the row) of rows d−2 and d−1.
    let mut base2 = 0i32;
    let mut base1 = 0i32;
    let mut prev_lo = 0usize;
    let mut prev_hi = 1usize;
    let mut lowest = I16x16::splat(0);

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
        cells += (hi - lo + 1) as u64;

        let terms = RowTerms {
            gap: I16x16::splat((scoring.gap + base1 - best) as i16),
            match_score: I16x16::splat((scoring.match_score + base2 - best) as i16),
            mismatch: I16x16::splat((scoring.mismatch + base2 - best) as i16),
            t_at: m.wrapping_sub(d), // t_at + i = m + i − d ≥ 0 for i ≥ lo
        };
        let mut rowmax = I16x16::splat(NEG);
        let mut i0 = lo;
        while i0 + L <= hi + 1 {
            let v = terms.chunk(prev, prev2, sw, tr, i0);
            v.store(cur, i0 + 1);
            rowmax = rowmax.max(v);
            lowest = lowest.min(v);
            i0 += L;
        }
        if i0 <= hi {
            let v = terms.chunk(prev, prev2, sw, tr, i0);
            let keep = hi + 1 - i0;
            lowest = lowest.min(v.keep_first(keep, 0));
            let v = v.keep_first(keep, NEG);
            v.store(cur, i0 + 1);
            rowmax = rowmax.max(v);
        }

        let row = &cur[lo + 1..=hi + 1];
        let rm = rowmax.hmax();
        let base = best;
        if rm > 0 {
            let off = row.iter().position(|&v| v == rm).expect("row maximum must be present");
            best = base + rm as i32;
            best_i = lo + off;
            best_j = d - best_i;
        }
        // X-drop pruning against best − x, in row d's frame.
        let threshold = (rm.max(0) as i32 - x) as i16;
        let first = row.iter().position(|&v| v >= threshold);
        let last = row.iter().rposition(|&v| v >= threshold);
        let (first, last) = match (first, last) {
            (Some(f), Some(l)) => (f, l),
            _ => break, // every cell pruned → extension terminates
        };
        cur[lo + first] = NEG; // cell lo + first − 1
        cur[lo + last + 2] = NEG; // cell lo + last + 1
        if d.is_multiple_of(LANE_GUARD_ROWS) && lowest.hmin() < LANE_FLOOR {
            return Err(d);
        }
        (prev2, prev, cur) = (prev, cur, prev2);
        base2 = base1;
        base1 = base;
        prev_lo = lo + first;
        prev_hi = lo + last;
    }

    if lowest.hmin() < LANE_FLOOR {
        return Err(d);
    }
    Ok(Extension { score: best, s_ext: best_i, t_ext: best_j, cells })
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
///
/// [`KernelImpl::Simd`] runs the `i16` lane kernel and falls back to the
/// scalar one for scores of magnitude above 64 or `x` above 4096, and
/// reruns an extension on it if a cell sinks more than 8192 below its
/// row's best — the bounds within which 16 bits are exact.
pub fn extend_xdrop_dir_with(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
    imp: KernelImpl,
) -> Extension {
    if imp == KernelImpl::Simd && lanes_exact(scoring, x) {
        if let Ok(e) = xdrop_lanes(s, t, dir, scoring, x, ws) {
            return e;
        }
    }
    match dir {
        Dir::Fwd => xdrop_core::<false>(s, t, scoring, x, &mut ws.xdrop),
        Dir::Rev => xdrop_core::<true>(s, t, scoring, x, &mut ws.xdrop),
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

    /// Pseudo-random bases (the generator of `tests/common`).
    fn bases(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    #[test]
    fn lane_floor_guard_fires_mid_extension() {
        // A tandem repeat with a 100-base insertion (`tests/common`'s
        // `tandem_insertion`): cells between two surviving diagonals sink
        // more than 8192 below the best.
        let unit = bases(200, 0x9E37_79B9_7F4A_7C15);
        let s: Vec<u8> = unit.iter().cycle().take(600).copied().collect();
        let mut t = s[..100].to_vec();
        t.extend(bases(100, 7));
        t.extend_from_slice(&s[100..]);
        let sc = Scoring { match_score: 64, mismatch: -64, gap: -64 };
        assert!(lanes_exact(sc, 4096), "the up-front check must not be what hands over");
        let mut ws = AlignWorkspace::new();
        let scalar = xdrop_core::<false>(&s, &t, sc, 4096, &mut ws.xdrop);
        let fired = xdrop_lanes(&s, &t, Dir::Fwd, sc, 4096, &mut ws)
            .expect_err("the floor guard must fire");
        // Mid-extension: the scalar walk finds its best cell after it.
        assert!(fired < scalar.s_ext + scalar.t_ext, "fired at {fired}, best at {scalar:?}");
        let auto = extend_xdrop_dir_with(&s, &t, Dir::Fwd, sc, 4096, &mut ws, KernelImpl::Simd);
        assert_eq!(auto, scalar);
        // An ordinary extension stays on the lane kernel.
        let e = xdrop_lanes(&s, &s, Dir::Fwd, S, 25, &mut ws).expect("no guard on identity");
        assert_eq!(e, extend_xdrop(&s, &s, S, 25));
    }

    #[test]
    fn lane_bounds_gate_the_lane_kernel() {
        assert!(lanes_exact(Scoring::new(64, -64, -64), 4096));
        assert!(!lanes_exact(Scoring::new(65, -1, -1), 25));
        assert!(!lanes_exact(Scoring::new(1, -65, -1), 25));
        assert!(!lanes_exact(Scoring::new(1, -1, -65), 25));
        assert!(!lanes_exact(S, 4097));
        // Schemes `Scoring::new` rejects also go to the scalar kernel.
        assert!(!lanes_exact(Scoring { match_score: 1, mismatch: -1, gap: 0 }, 25));
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
