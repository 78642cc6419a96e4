//! Reusable per-thread scratch for the alignment kernels.
//!
//! Pairwise alignment dominates diBELLA's end-to-end runtime (paper §9,
//! Figure 7), and the kernels' only steady-state heap traffic was scratch:
//! a fresh score row per antidiagonal in the x-drop scan, reversed prefix
//! copies per seed extension, two rows per banded call, and a full DP
//! matrix per CIGAR traceback. An [`AlignWorkspace`] owns all of that
//! scratch so the `*_with_workspace` kernel variants
//! ([`crate::extend_xdrop_with_workspace`],
//! [`crate::extend_seed_with_workspace`],
//! [`crate::banded_sw_with_workspace`],
//! [`crate::global_alignment_with_workspace`]) allocate **nothing** once
//! the workspace has warmed up to the largest problem it has seen.
//!
//! # Ownership model
//!
//! One workspace per thread, always: the buffers are plain `Vec`s with no
//! interior synchronization, and every kernel call dirties them. Callers
//! that parallelize (e.g. `dibella-core`'s alignment-stage batch executor)
//! keep one workspace per worker thread and reuse it across every task
//! that worker processes. Reusing a *dirty* workspace is always safe —
//! every kernel writes each scratch cell that can reach its output before
//! reading it — which is exactly what the bit-identity property tests
//! exercise.

use crate::cigar::CigarOp;

/// Reusable scratch buffers for all alignment kernels.
///
/// Construct once per thread ([`AlignWorkspace::new`] allocates nothing —
/// buffers grow lazily to the largest call seen) and pass to the
/// `*_with_workspace` kernel entry points. Outputs are bit-identical to
/// the legacy allocating kernels for every input and any prior workspace
/// state.
#[derive(Clone, Debug, Default)]
pub struct AlignWorkspace {
    /// Three scalar x-drop score rows (antidiagonals d−2, d−1 and d),
    /// rotated in place instead of cloned per antidiagonal.
    pub(crate) xdrop: [Vec<i32>; 3],
    /// The lane x-drop kernel's three `i16` rows: cell `i` at slot
    /// `i + 1`, a sentinel in slot 0. They only ever grow: the kernel
    /// re-initializes the few cells the next rows read, never the whole
    /// row.
    pub(crate) xdrop_lanes: [Vec<i16>; 3],
    /// The lane x-drop kernel's oriented sequence copies, made once per
    /// extension: `s` in walk order behind one pad byte, and `t` in
    /// reversed walk order, each followed by a lane of pad bytes.
    pub(crate) oriented: [Vec<u8>; 2],
    /// Two banded-Smith-Waterman rows (previous and current `i`).
    pub(crate) banded: [Vec<i32>; 2],
    /// Reverse-complement scratch for callers orienting a read before
    /// seeding (take it with [`std::mem::take`] while the kernels borrow
    /// the workspace mutably, and put it back afterwards).
    pub rc: Vec<u8>,
    /// Full DP matrix for the CIGAR traceback of
    /// [`crate::global_alignment_with_workspace`].
    pub(crate) cigar_dp: Vec<i32>,
    /// Reversed op list the CIGAR traceback is accumulated into.
    pub(crate) cigar_ops: Vec<CigarOp>,
}

impl AlignWorkspace {
    /// An empty workspace. Allocates nothing; buffers grow on first use
    /// and are then reused for every subsequent call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap bytes currently reserved by the scratch buffers — the
    /// per-thread steady-state footprint (reported by the kernel bench
    /// baseline).
    pub fn scratch_bytes(&self) -> usize {
        let i32s = self.xdrop.iter().map(Vec::capacity).sum::<usize>()
            + self.banded.iter().map(Vec::capacity).sum::<usize>()
            + self.cigar_dp.capacity();
        let i16s = self.xdrop_lanes.iter().map(Vec::capacity).sum::<usize>();
        i32s * std::mem::size_of::<i32>()
            + i16s * std::mem::size_of::<i16>()
            + self.oriented.iter().map(Vec::capacity).sum::<usize>()
            + self.rc.capacity()
            + self.cigar_ops.capacity() * std::mem::size_of::<CigarOp>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::Scoring;

    #[test]
    fn new_workspace_reserves_nothing() {
        let ws = AlignWorkspace::new();
        assert_eq!(ws.scratch_bytes(), 0);
    }

    #[test]
    fn scratch_grows_with_use_then_plateaus() {
        let mut ws = AlignWorkspace::new();
        let s = vec![b'A'; 400];
        let t = vec![b'A'; 400];
        let _ = crate::xdrop::extend_xdrop_with_workspace(&s, &t, Scoring::bella(), 25, &mut ws);
        let after_first = ws.scratch_bytes();
        assert!(after_first > 0);
        let _ = crate::xdrop::extend_xdrop_with_workspace(&s, &t, Scoring::bella(), 25, &mut ws);
        assert_eq!(ws.scratch_bytes(), after_first, "steady state must not grow");
    }
}
