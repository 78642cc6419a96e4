//! Differential bit-identity of the lane-SIMD kernels vs the scalar
//! reference — the property suite behind the "SIMD changes throughput,
//! never output" guarantee.
//!
//! Every case drives **both** implementations through ONE thread-local
//! [`AlignWorkspace`] that is never reset, so the ~1k random inputs
//! double as a dirty-reuse test: the lane kernels keep sentinel-padded
//! rows that are never cleared between calls, and any stale-scratch leak
//! would diverge here. Sweeps cover sequence lengths from 0 to 4k
//! (including lengths below one 16-cell lane), PacBio-like error rates,
//! random scoring parameters, the x-drop `X`, band center/width clamped
//! at matrix edges, and both walk directions; scores, extents, `cells`
//! tallies and CIGARs must all be identical. Fixed cases pin the lane
//! kernel's edges: the score and `X` bounds where it hands over to the
//! scalar kernel, rows wider than 128 cells, live ranges ending on a lane
//! boundary, and an input that trips its floor guard mid-extension.

use dibella_align::{
    banded_sw_with, extend_seed_with, extend_xdrop_dir_with, global_alignment,
    global_alignment_with_workspace, AlignWorkspace, Cigar, Dir, KernelImpl, Scoring, SeedHit,
};
use proptest::prelude::*;
use std::cell::RefCell;

mod common;

thread_local! {
    /// Deliberately shared, never-cleared workspace: every case of every
    /// property dirties it for the next one — alternating between the
    /// scalar and SIMD row layouts.
    static WS: RefCell<AlignWorkspace> = RefCell::new(AlignWorkspace::new());
}

fn with_ws<R>(f: impl FnOnce(&mut AlignWorkspace) -> R) -> R {
    WS.with(|cell| f(&mut cell.borrow_mut()))
}

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), len)
}

/// Random but always-valid scoring parameters (match > 0 > mismatch, gap).
fn scoring() -> impl Strategy<Value = Scoring> {
    (1i32..5, -5i32..0, -5i32..0).prop_map(|(ma, mi, gap)| Scoring::new(ma, mi, gap))
}

/// Apply a PacBio-like mutation stream to `template`: per-base byte `op`
/// drives substitutions, deletions and insertions, with the effective
/// error rate set by the op distribution the caller generates.
fn mutate(template: &[u8], ops: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(template.len() + 8);
    for (&base, &op) in template.iter().zip(ops) {
        match op {
            0..=7 => out.push(b"ACGT"[(op % 4) as usize]), // substitution
            8..=11 => {}                                   // deletion
            12..=15 => {
                // insertion before the kept base
                out.push(b"ACGT"[(op % 4) as usize]);
                out.push(base);
            }
            _ => out.push(base),
        }
    }
    out
}

/// Both x-drop kernels over the shared dirty workspace, scalar first.
fn xdrop_both(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    sc: Scoring,
    x: i32,
) -> (dibella_align::Extension, dibella_align::Extension) {
    with_ws(|ws| {
        let scalar = extend_xdrop_dir_with(s, t, dir, sc, x, ws, KernelImpl::Scalar);
        let simd = extend_xdrop_dir_with(s, t, dir, sc, x, ws, KernelImpl::Simd);
        (scalar, simd)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Sub-lane and tiny inputs (0..16 bases — shorter than one 16-cell
    /// lane) with random scoring and x: the all-edge regime where a
    /// masking or padding bug would live.
    #[test]
    fn sublane_xdrop_identical(
        s in dna(0..16),
        t in dna(0..16),
        sc in scoring(),
        x in 1i32..40,
    ) {
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Fwd, sc, x);
        prop_assert_eq!(simd, scalar);
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Rev, sc, x);
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Mid-size unrelated pairs, both directions, random scoring and x.
    #[test]
    fn random_pair_xdrop_identical(
        s in dna(0..300),
        t in dna(0..300),
        sc in scoring(),
        x in 1i32..100,
    ) {
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Fwd, sc, x);
        prop_assert_eq!(simd, scalar);
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Rev, sc, x);
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// True overlaps at a controlled error rate: template + independent
    /// mutation streams for each copy, then full seed-and-extend (both
    /// directions + prologue) on both kernels — and the CIGAR of the
    /// aligned region afterwards, computed through the same dirty
    /// workspace the SIMD kernel just used.
    #[test]
    fn noisy_overlap_seed_extension_identical(
        template in dna(40..240),
        ops_a in prop::collection::vec(0u8..255, 240),
        ops_b in prop::collection::vec(0u8..255, 240),
        x in 1i32..60,
    ) {
        let a = mutate(&template, &ops_a);
        let b = mutate(&template, &ops_b);
        prop_assume!(a.len() >= 24 && b.len() >= 24);
        let seed = SeedHit { a_pos: a.len() / 3, b_pos: b.len() / 3, k: 12 };
        prop_assume!(seed.a_pos + seed.k <= a.len() && seed.b_pos + seed.k <= b.len());
        let sc = Scoring::bella();
        let (scalar, simd) = with_ws(|ws| {
            (
                extend_seed_with(&a, &b, seed, sc, x, ws, KernelImpl::Scalar),
                extend_seed_with(&a, &b, seed, sc, x, ws, KernelImpl::Simd),
            )
        });
        prop_assert_eq!(simd, scalar);

        // CIGAR of the aligned `a` region vs fresh-scratch reference: the
        // SIMD kernels must leave the shared workspace reusable by every
        // other kernel.
        let (a_s, a_e) = (simd.a_start, simd.a_end);
        let (b_s, b_e) = (simd.b_start, simd.b_end);
        let fresh: (i32, Cigar) = global_alignment(&a[a_s..a_e], &b[b_s..b_e], sc);
        let dirty = with_ws(|ws| global_alignment_with_workspace(&a[a_s..a_e], &b[b_s..b_e], sc, ws));
        prop_assert_eq!(dirty, fresh);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Banded Smith-Waterman: random band center and width, including
    /// bands hanging off the matrix edges and widths exceeding both
    /// sequence lengths.
    #[test]
    fn banded_identical(
        s in dna(0..200),
        t in dna(0..200),
        center in -220i64..220,
        half_band in 1usize..96,
        sc in scoring(),
    ) {
        let (scalar, simd) = with_ws(|ws| {
            (
                banded_sw_with(&s, &t, center, half_band, sc, ws, KernelImpl::Scalar),
                banded_sw_with(&s, &t, center, half_band, sc, ws, KernelImpl::Simd),
            )
        });
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Long-read regime: 1–4 kb noisy overlaps, the shape stage 4
    /// actually runs. Few cases (they are big), but each covers thousands
    /// of antidiagonals of both kernels plus a wide banded pass.
    #[test]
    fn long_noisy_pairs_identical(
        template in dna(1000..4000),
        seed_byte in 0u8..255,
        x in 10i32..60,
    ) {
        // Cheap deterministic per-base op stream derived from the
        // template itself, offset by `seed_byte` — avoids generating a
        // second 4k vector per case.
        let ops_a: Vec<u8> = template
            .iter()
            .enumerate()
            .map(|(i, &b)| b.wrapping_mul(31).wrapping_add(i as u8) ^ seed_byte)
            .collect();
        let ops_b: Vec<u8> = ops_a.iter().map(|&o| o.rotate_left(3) ^ 0x5A).collect();
        let a = mutate(&template, &ops_a);
        let b = mutate(&template, &ops_b);
        let seed = SeedHit { a_pos: a.len() / 2, b_pos: b.len() / 2, k: 17 };
        prop_assume!(seed.a_pos + seed.k <= a.len() && seed.b_pos + seed.k <= b.len());
        let sc = Scoring::bella();
        let (scalar, simd) = with_ws(|ws| {
            (
                extend_seed_with(&a, &b, seed, sc, x, ws, KernelImpl::Scalar),
                extend_seed_with(&a, &b, seed, sc, x, ws, KernelImpl::Simd),
            )
        });
        prop_assert_eq!(simd, scalar);

        let (scalar, simd) = with_ws(|ws| {
            (
                banded_sw_with(&a, &b, 0, 64, sc, ws, KernelImpl::Scalar),
                banded_sw_with(&a, &b, 0, 64, sc, ws, KernelImpl::Simd),
            )
        });
        prop_assert_eq!(simd, scalar);
    }
}

/// Both kernels over the shared dirty workspace in both directions: the
/// reverse walk runs on the mirrored inputs, so all four results must
/// agree.
fn assert_xdrop_identical(s: &[u8], t: &[u8], sc: Scoring, x: i32) -> dibella_align::Extension {
    let (scalar, simd) = xdrop_both(s, t, Dir::Fwd, sc, x);
    assert_eq!(simd, scalar, "forward, x = {x}, {sc:?}, |s| = {}, |t| = {}", s.len(), t.len());
    let s_rev: Vec<u8> = s.iter().rev().copied().collect();
    let t_rev: Vec<u8> = t.iter().rev().copied().collect();
    let (rev_scalar, rev_simd) = xdrop_both(&s_rev, &t_rev, Dir::Rev, sc, x);
    assert_eq!(rev_simd, rev_scalar, "reverse, x = {x}, {sc:?}");
    assert_eq!(rev_scalar, scalar, "mirrored walk, x = {x}, {sc:?}");
    scalar
}

/// The lane kernel runs up to `x = 4096` and scores of magnitude 64 and
/// hands larger ones to the scalar kernel; both sides of each bound.
#[test]
fn lane_bounds_and_scalar_handover_identical() {
    let template = common::bases(700, 11);
    let mut noisy = template.clone();
    for (k, b) in noisy.iter_mut().enumerate() {
        if k % 9 == 4 {
            *b = b"ACGT"[(k / 9) % 4];
        }
    }
    noisy.remove(300);
    let homopolymer = vec![b'A'; 300];
    for (s, t) in [(&template, &noisy), (&homopolymer, &homopolymer[..280].to_vec())] {
        for x in [1, 63, 64, 65, 4095, 4096, 4097, 10_000] {
            assert_xdrop_identical(s, t, Scoring::bella(), x);
        }
        for v in [63, 64, 65] {
            for sc in [
                Scoring::new(v, -1, -1),
                Scoring::new(1, -v, -1),
                Scoring::new(1, -1, -v),
                Scoring::new(v, -v, -v),
            ] {
                for x in [1, v, 4096, 4097] {
                    assert_xdrop_identical(s, t, sc, x);
                }
            }
        }
    }
}

/// Tandem repeats and homopolymers keep rows far wider than the typical
/// ~25 cells: the lane kernel's rows then span many chunks.
#[test]
fn wide_rows_identical() {
    let unit = b"ACGTTGCAGGTATTTACGCA";
    let tandem: Vec<u8> = unit.iter().cycle().take(1_500).copied().collect();
    let mut tandem_edit = tandem.clone();
    tandem_edit.drain(400..407);
    tandem_edit[900] = b'T';
    let poly = vec![b'A'; 1_200];
    let poly_mixed: Vec<u8> = (0..1_100).map(|k| if k % 97 == 0 { b'C' } else { b'A' }).collect();
    for (s, t, x) in [
        (&tandem, &tandem_edit, 400),
        (&tandem_edit, &tandem, 900),
        (&poly, &poly, 300),
        (&poly, &poly_mixed, 600),
    ] {
        let e = assert_xdrop_identical(s, t, Scoring::bella(), x);
        // Probative only if the mean row really exceeds 128 cells.
        let rows = (e.s_ext + e.t_ext) as u64;
        assert!(e.cells > 128 * rows, "rows too narrow: {} cells over {rows} rows", e.cells);
    }
}

/// Every `x` from 1 to 48 over near-identical short inputs: the live
/// range widths pass through every value up to three lanes, so some rows
/// end exactly on a lane boundary and some span exactly one lane. Also
/// every length pair below one lane.
#[test]
fn lane_boundary_and_sublane_sweep_identical() {
    let poly = vec![b'A'; 60];
    let mut near = poly.clone();
    near[20] = b'C';
    near[41] = b'G';
    for x in 1..=48 {
        assert_xdrop_identical(&poly, &near, Scoring::bella(), x);
        assert_xdrop_identical(&poly[..50], &poly, Scoring::bella(), x);
    }
    let a = common::bases(17, 3);
    let b = common::bases(17, 5);
    for n in 0..=17 {
        for m in 0..=17 {
            for x in [1, 3, 16, 40] {
                assert_xdrop_identical(&a[..n], &a[..m], Scoring::bella(), x);
                assert_xdrop_identical(&a[..n], &b[..m], Scoring::new(2, -3, -2), x);
            }
        }
    }
}

/// An input whose cells sink more than 8192 below the best score: the
/// lane kernel abandons the extension partway and the scalar kernel
/// reruns it, so the result is still the scalar one. (The crate's unit
/// tests check that the guard, not the up-front bounds check, handed
/// over.)
#[test]
fn floor_guard_handover_identical() {
    let (s, t) = common::tandem_insertion();
    let e = assert_xdrop_identical(&s, &t, common::GUARD_SCORING, common::GUARD_X);
    assert!(e.cells > 100_000, "extension too short to reach the guard: {e:?}");
    assert_xdrop_identical(&t, &s, common::GUARD_SCORING, common::GUARD_X);
}
