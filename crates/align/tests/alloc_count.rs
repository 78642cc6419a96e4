//! Proof (not just inspection) that the workspace kernels are
//! allocation-free in steady state: a counting global allocator wraps the
//! system allocator, and after one warm-up call the hot kernels must
//! perform **zero** heap allocations — per call, and therefore per
//! antidiagonal.
//!
//! Kept to a single `#[test]` so no sibling test thread can allocate
//! while a window is being counted.

use dibella_align::{
    banded_sw_with, banded_sw_with_workspace, extend_seed_with_workspace, extend_xdrop_with,
    extend_xdrop_with_workspace, AlignWorkspace, KernelImpl, Scoring, SeedHit,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

mod common;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (incl. reallocations) performed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn noisy_pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    // Deterministic template + light mutation so the extension runs the
    // full length (many antidiagonals — each a row alloc before this PR).
    let mut state = 0xFEED_5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let a: Vec<u8> = (0..len).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
    let b: Vec<u8> = a
        .iter()
        .map(|&c| if next() % 20 == 0 { b"ACGT"[(next() % 4) as usize] } else { c })
        .collect();
    (a, b)
}

#[test]
fn warmed_workspace_kernels_do_not_allocate() {
    let (a, b) = noisy_pair(1_500);
    let sc = Scoring::bella();
    let seed = SeedHit { a_pos: 600, b_pos: 600, k: 17 };
    let mut ws = AlignWorkspace::new();

    // Warm up: first calls may grow the workspace buffers.
    let warm_x = extend_xdrop_with_workspace(&a, &b, sc, 25, &mut ws);
    let warm_s = extend_seed_with_workspace(&a, &b, seed, sc, 25, &mut ws);
    let warm_b = banded_sw_with_workspace(&a, &b, 0, 32, sc, &mut ws);
    assert!(warm_x.cells > 1_000, "extension too small to be probative");

    // Steady state: identical-shape calls must not touch the heap at all.
    let (n, again) = allocs_during(|| extend_xdrop_with_workspace(&a, &b, sc, 25, &mut ws));
    assert_eq!(n, 0, "extend_xdrop_with_workspace allocated {n}x in steady state");
    assert_eq!(again, warm_x);

    let (n, again) = allocs_during(|| extend_seed_with_workspace(&a, &b, seed, sc, 25, &mut ws));
    assert_eq!(n, 0, "extend_seed_with_workspace allocated {n}x in steady state");
    assert_eq!(again, warm_s);

    let (n, again) = allocs_during(|| banded_sw_with_workspace(&a, &b, 0, 32, sc, &mut ws));
    assert_eq!(n, 0, "banded_sw_with_workspace allocated {n}x in steady state");
    assert_eq!(again, warm_b);

    // A smaller problem after a bigger one must also stay allocation-free
    // (buffers shrink logically, never physically).
    let small_seed = SeedHit { a_pos: 100, b_pos: 100, k: 17 };
    let (n, _) = allocs_during(|| {
        extend_seed_with_workspace(&a[..400], &b[..400], small_seed, sc, 25, &mut ws)
    });
    assert_eq!(n, 0, "shrunken follow-up call allocated {n}x");

    // Both explicit kernel implementations — the lane path keeps its own
    // sentinel-padded i16 rows and oriented sequence copies; all of it
    // must come from the reused workspace. Warm each path once (the first
    // lane call may grow those buffers), then demand zero.
    for imp in [KernelImpl::Scalar, KernelImpl::Simd] {
        let warm = extend_xdrop_with(&a, &b, sc, 25, &mut ws, imp);
        assert_eq!(warm, warm_x, "kernel implementations must agree");
        let _ = banded_sw_with(&a, &b, 0, 32, sc, &mut ws, imp);
        let (n, again) = allocs_during(|| extend_xdrop_with(&a, &b, sc, 25, &mut ws, imp));
        assert_eq!(n, 0, "extend_xdrop_with({imp:?}) allocated {n}x in steady state");
        assert_eq!(again, warm_x);
        let (n, again) = allocs_during(|| banded_sw_with(&a, &b, 0, 32, sc, &mut ws, imp));
        assert_eq!(n, 0, "banded_sw_with({imp:?}) allocated {n}x in steady state");
        assert_eq!(again, warm_b);
        // Alternating implementations over the same workspace must also
        // be allocation-free once both are warm: layout switches reuse
        // capacity, never reallocate.
        let other = match imp {
            KernelImpl::Scalar => KernelImpl::Simd,
            KernelImpl::Simd => KernelImpl::Scalar,
        };
        let _ = extend_xdrop_with(&a, &b, sc, 25, &mut ws, other);
        let (n, _) = allocs_during(|| extend_xdrop_with(&a, &b, sc, 25, &mut ws, imp));
        assert_eq!(n, 0, "layout switch back to {imp:?} allocated {n}x");
    }

    // The lane kernel hands two kinds of call to the scalar kernel: scores
    // past its bounds (before it starts) and cells below its floor
    // (partway through). Once warm, neither allocates — nor does the
    // plain i16 path after them.
    let (ta, tb) = common::tandem_insertion();
    let (gs, gx) = (common::GUARD_SCORING, common::GUARD_X);
    let wide = Scoring::new(65, -65, -65);
    let guard = extend_xdrop_with(&ta, &tb, gs, gx, &mut ws, KernelImpl::Simd);
    let past_bounds = extend_xdrop_with(&a, &b, wide, 25, &mut ws, KernelImpl::Simd);
    let lanes = extend_xdrop_with(&a, &b, sc, 25, &mut ws, KernelImpl::Simd);
    let (n, again) = allocs_during(|| extend_xdrop_with(&ta, &tb, gs, gx, &mut ws, KernelImpl::Simd));
    assert_eq!(n, 0, "floor-guard handover allocated {n}x in steady state");
    assert_eq!(again, guard);
    let (n, again) = allocs_during(|| extend_xdrop_with(&a, &b, wide, 25, &mut ws, KernelImpl::Simd));
    assert_eq!(n, 0, "out-of-bounds scoring handover allocated {n}x in steady state");
    assert_eq!(again, past_bounds);
    let (n, again) = allocs_during(|| extend_xdrop_with(&a, &b, sc, 25, &mut ws, KernelImpl::Simd));
    assert_eq!(n, 0, "i16 lane path allocated {n}x after the handovers");
    assert_eq!(again, lanes);
}
