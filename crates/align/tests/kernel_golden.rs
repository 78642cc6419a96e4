//! Golden-vector edge cases for both alignment-kernel implementations.
//!
//! Unlike the random differential suite (`simd_identity.rs`), these are
//! hand-picked worst cases with **committed** expected outputs, so a bug
//! that broke scalar and SIMD identically would still be caught. Each
//! case runs on both kernel paths through one shared dirty workspace and
//! must reproduce the committed (score, s_ext, t_ext, cells) tuple
//! exactly.
//!
//! To regenerate the tables after an intentional kernel change:
//!
//! ```text
//! cargo test -p dibella-align --test kernel_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows (they are produced by the scalar oracle).

use dibella_align::{
    banded_sw_with, extend_xdrop_dir_with, AlignWorkspace, Dir, KernelImpl, Scoring,
};
use std::sync::LazyLock;

mod common;

const BELLA: Scoring = Scoring::bella();

/// An x-drop golden case: inputs plus the expected
/// `(score, s_ext, t_ext, cells)`.
struct XCase {
    name: &'static str,
    s: &'static [u8],
    t: &'static [u8],
    scoring: Scoring,
    x: i32,
    expect: (i32, usize, usize, u64),
}

/// A banded golden case: inputs plus the expected
/// `(score, s_end, t_end, cells)`.
struct BCase {
    name: &'static str,
    s: &'static [u8],
    t: &'static [u8],
    center: i64,
    half_band: usize,
    scoring: Scoring,
    expect: (i32, usize, usize, u64),
}

/// 40-base homopolymer.
const POLY_A: &[u8] = b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
/// Same length, all-mismatching.
const POLY_C: &[u8] = b"CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC";
/// Homopolymer with a 4-base deletion relative to POLY_A.
const POLY_A_SHORT: &[u8] = b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
/// Saturation-boundary scoring: one step from the scalar kernel's
/// NEG_INF = i32::MIN/4 sentinel arithmetic headroom.
const HUGE: Scoring = Scoring { match_score: 1 << 20, mismatch: -(1 << 20), gap: -(1 << 20) };

/// 300-base homopolymer: with a wide `x` its live rows exceed 128 cells.
static POLY_A_300: [u8; 300] = [b'A'; 300];
/// The lane kernel's scoring bound, and one past it.
const SCORE_64: Scoring = Scoring { match_score: 64, mismatch: -64, gap: -64 };
const SCORE_65: Scoring = Scoring { match_score: 65, mismatch: -65, gap: -65 };
/// An input that trips the lane kernel's floor guard mid-extension.
static TANDEM: LazyLock<(Vec<u8>, Vec<u8>)> = LazyLock::new(common::tandem_insertion);

fn xcases() -> Vec<XCase> {
    vec![
        XCase { name: "both_empty", s: b"", t: b"", scoring: BELLA, x: 5, expect: (0, 0, 0, 0) },
        XCase { name: "s_empty", s: b"", t: b"ACGT", scoring: BELLA, x: 5, expect: (0, 0, 0, 0) },
        XCase { name: "t_empty", s: b"ACGT", t: b"", scoring: BELLA, x: 5, expect: (0, 0, 0, 0) },
        XCase { name: "one_base_match", s: b"A", t: b"A", scoring: BELLA, x: 5, expect: (1, 1, 1, 3) },
        XCase { name: "one_base_mismatch", s: b"A", t: b"C", scoring: BELLA, x: 5, expect: (0, 0, 0, 3) },
        XCase { name: "homopolymer_equal", s: POLY_A, t: POLY_A, scoring: BELLA, x: 10, expect: (40, 40, 40, 624) },
        XCase { name: "homopolymer_indel", s: POLY_A, t: POLY_A_SHORT, scoring: BELLA, x: 10, expect: (36, 36, 36, 582) },
        XCase { name: "all_mismatch", s: POLY_A, t: POLY_C, scoring: BELLA, x: 4, expect: (0, 0, 0, 34) },
        XCase { name: "mismatch_tail", s: b"AAAAGGGG", t: b"AAAACCCC", scoring: BELLA, x: 3, expect: (4, 4, 4, 51) },
        XCase { name: "tiny_x_immediate_stop", s: POLY_A, t: POLY_A, scoring: Scoring { match_score: 1, mismatch: -1, gap: -9 }, x: 1, expect: (0, 0, 0, 2) },
        XCase { name: "huge_scores_match_run", s: POLY_A, t: POLY_A, scoring: HUGE, x: 1 << 20, expect: (41943040, 40, 40, 198) },
        XCase { name: "huge_scores_mismatch", s: POLY_A, t: POLY_C, scoring: HUGE, x: 1 << 20, expect: (0, 0, 0, 7) },
        XCase { name: "asymmetric_lengths", s: b"ACGTACGTACGTACGTACGT", t: b"ACG", scoring: BELLA, x: 8, expect: (3, 3, 3, 39) },
        XCase { name: "one_lane_exactly", s: b"ACGTTGCAGGTATTTA", t: b"ACGTTGCAGGTATTTA", scoring: BELLA, x: 5, expect: (16, 16, 16, 132) },
        XCase { name: "scores_at_lane_bound", s: POLY_A, t: POLY_A_SHORT, scoring: SCORE_64, x: 4096, expect: (2304, 36, 36, 1516) },
        XCase { name: "scores_past_lane_bound", s: POLY_A, t: POLY_A_SHORT, scoring: SCORE_65, x: 4096, expect: (2340, 36, 36, 1516) },
        XCase { name: "x_at_lane_bound", s: POLY_A, t: POLY_C, scoring: BELLA, x: 4096, expect: (0, 0, 0, 1680) },
        XCase { name: "x_past_lane_bound", s: POLY_A, t: POLY_C, scoring: BELLA, x: 4097, expect: (0, 0, 0, 1680) },
        XCase { name: "homopolymer_wide_rows", s: &POLY_A_300, t: &POLY_A_300[..290], scoring: BELLA, x: 300, expect: (290, 290, 290, 78635) },
        XCase { name: "tandem_floor_guard", s: &TANDEM.0, t: &TANDEM.1, scoring: common::GUARD_SCORING, x: common::GUARD_X, expect: (30080, 600, 700, 127064) },
    ]
}

fn bcases() -> Vec<BCase> {
    vec![
        BCase { name: "empty_s", s: b"", t: b"ACGT", center: 0, half_band: 4, scoring: BELLA, expect: (0, 0, 0, 0) },
        BCase { name: "empty_t", s: b"ACGT", t: b"", center: 0, half_band: 4, scoring: BELLA, expect: (0, 0, 0, 0) },
        BCase { name: "diagonal_match", s: POLY_A, t: POLY_A, center: 0, half_band: 2, scoring: BELLA, expect: (40, 40, 40, 194) },
        BCase { name: "all_mismatch", s: POLY_A, t: POLY_C, center: 0, half_band: 3, scoring: BELLA, expect: (0, 0, 0, 268) },
        BCase { name: "band_off_top_edge", s: POLY_A, t: POLY_A, center: 45, half_band: 3, scoring: BELLA, expect: (0, 0, 0, 0) },
        BCase { name: "band_off_bottom_edge", s: POLY_A, t: POLY_A, center: -45, half_band: 3, scoring: BELLA, expect: (0, 0, 0, 0) },
        BCase { name: "band_clipped_at_corner", s: POLY_A, t: POLY_A, center: 38, half_band: 4, scoring: BELLA, expect: (6, 6, 40, 21) },
        BCase { name: "band_wider_than_matrix", s: b"ACGTAC", t: b"GTACGT", center: 0, half_band: 20, scoring: BELLA, expect: (4, 4, 6, 36) },
        BCase { name: "one_base_band", s: b"G", t: b"G", center: 0, half_band: 1, scoring: BELLA, expect: (1, 1, 1, 1) },
        BCase { name: "huge_scores", s: POLY_A, t: POLY_A_SHORT, center: 0, half_band: 6, scoring: HUGE, expect: (37748736, 36, 36, 444) },
    ]
}

/// Prints the scalar oracle's outputs in source form for pasting into the
/// `expect` fields above. Ignored in normal runs.
#[test]
#[ignore = "generator for the committed expectations"]
fn print_golden() {
    let mut ws = AlignWorkspace::new();
    for c in xcases() {
        let e = extend_xdrop_dir_with(c.s, c.t, Dir::Fwd, c.scoring, c.x, &mut ws, KernelImpl::Scalar);
        println!("x {}: ({}, {}, {}, {})", c.name, e.score, e.s_ext, e.t_ext, e.cells);
    }
    for c in bcases() {
        let a = banded_sw_with(c.s, c.t, c.center, c.half_band, c.scoring, &mut ws, KernelImpl::Scalar);
        println!("b {}: ({}, {}, {}, {})", c.name, a.score, a.s_end, a.t_end, a.cells);
    }
}

#[test]
fn xdrop_golden_vectors_on_both_kernels() {
    let mut ws = AlignWorkspace::new();
    for c in xcases() {
        for imp in [KernelImpl::Scalar, KernelImpl::Simd] {
            let e = extend_xdrop_dir_with(c.s, c.t, Dir::Fwd, c.scoring, c.x, &mut ws, imp);
            assert_eq!(
                (e.score, e.s_ext, e.t_ext, e.cells),
                c.expect,
                "xdrop case {:?} on {imp:?}",
                c.name
            );
        }
        // The reverse walk over mirrored inputs must agree with the
        // committed forward expectation on both kernels, too.
        let s_rev: Vec<u8> = c.s.iter().rev().copied().collect();
        let t_rev: Vec<u8> = c.t.iter().rev().copied().collect();
        for imp in [KernelImpl::Scalar, KernelImpl::Simd] {
            let e = extend_xdrop_dir_with(&s_rev, &t_rev, Dir::Rev, c.scoring, c.x, &mut ws, imp);
            assert_eq!(
                (e.score, e.s_ext, e.t_ext, e.cells),
                c.expect,
                "reversed xdrop case {:?} on {imp:?}",
                c.name
            );
        }
    }
}

#[test]
fn banded_golden_vectors_on_both_kernels() {
    let mut ws = AlignWorkspace::new();
    for c in bcases() {
        for imp in [KernelImpl::Scalar, KernelImpl::Simd] {
            let a = banded_sw_with(c.s, c.t, c.center, c.half_band, c.scoring, &mut ws, imp);
            assert_eq!(
                (a.score, a.s_end, a.t_end, a.cells),
                c.expect,
                "banded case {:?} on {imp:?}",
                c.name
            );
        }
    }
}
