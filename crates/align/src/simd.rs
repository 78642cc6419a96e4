//! Portable integer SIMD lanes for the alignment kernels, and the
//! per-thread kernel selection.
//!
//! # Why a hand-rolled lane type
//!
//! The striped/vertical kernels in [`crate::xdrop`] and [`crate::banded`]
//! need exact, deterministic integer arithmetic — their contract is
//! **bit-identity** with the scalar kernels, checked by a differential
//! test suite (`tests/simd_identity.rs`, `tests/kernel_golden.rs`). On
//! stable Rust there is no `std::simd`, and explicit `core::arch`
//! intrinsics would tie the crate to one ISA and drag in `unsafe`. An
//! [`I32x8`] is instead a plain `[i32; 8]` with `#[inline(always)]`
//! lane-wise operations: every op is branchless straight-line integer
//! code, which LLVM auto-vectorizes to SSE2 (`paddd`/`pcmpgtd`/`pand`…)
//! on the x86-64 baseline and to NEON on aarch64 — and on any other
//! target it is still the *same arithmetic*, so results never depend on
//! the ISA. Eight lanes = two SSE2 registers or one AVX2 register,
//! enough for the vectorizer to amortize loop overhead either way.
//!
//! # Kernel selection
//!
//! Two implementations of each hot kernel exist forever (scalar and
//! lane-vectorized); [`KernelImpl`] names them. Which one an
//! auto-dispatching entry point ([`crate::extend_xdrop_with_workspace`],
//! [`crate::banded_sw_with_workspace`], …) runs is resolved from
//! [`SimdMode`]:
//!
//! * a **thread-local override** set via [`set_thread_simd_mode`] (the
//!   pipeline sets it from `PipelineConfig::simd` at the top of every
//!   alignment batch, so rayon workers inherit the config, not ambient
//!   process state);
//! * else [`SimdMode::Auto`], which runs the vectorized kernels.
//!
//! `scalar` pins the historical kernels — both paths stay reachable on
//! every build, and the differential suites flip them per call.

use std::cell::Cell;

/// Lane count of [`I32x8`]. Row buffers used by the vector kernels are
/// padded to a multiple of this (plus sentinel slack) so full-width
/// loads never run out of bounds.
pub const LANES: usize = 8;

/// Which implementation of a hot alignment kernel to run.
///
/// Every auto-dispatching kernel entry point has an `*_with` twin taking
/// this explicitly — the differential tests drive both paths through one
/// shared dirty workspace and assert bit-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelImpl {
    /// The historical branchy scalar kernel.
    Scalar,
    /// The striped/vertical lane-SIMD kernel ([`I32x8`] arithmetic).
    Simd,
}

/// How auto-dispatching kernels pick a [`KernelImpl`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// Force the scalar kernels everywhere.
    Scalar,
    /// Use the lane-SIMD kernels (the default; they are portable, so
    /// "auto" resolves to SIMD on every target).
    #[default]
    Auto,
}

impl std::str::FromStr for SimdMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(SimdMode::Scalar),
            "auto" | "simd" => Ok(SimdMode::Auto),
            other => Err(format!("invalid SIMD mode {other:?} (scalar|auto)")),
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Auto => "auto",
        })
    }
}

impl SimdMode {
    /// The [`KernelImpl`] this mode resolves to.
    pub fn kernel(self) -> KernelImpl {
        match self {
            SimdMode::Scalar => KernelImpl::Scalar,
            SimdMode::Auto => KernelImpl::Simd,
        }
    }
}

thread_local! {
    /// Per-thread mode override (see [`set_thread_simd_mode`]).
    static THREAD_MODE: Cell<Option<SimdMode>> = const { Cell::new(None) };
}

/// Set (or with `None`, clear) this thread's kernel-mode override.
///
/// The alignment stage calls this at the top of every batch with the
/// pipeline config's `simd` field, so the choice follows the config onto
/// whichever executor thread runs the batch; `None` means
/// [`SimdMode::Auto`].
pub fn set_thread_simd_mode(mode: Option<SimdMode>) {
    THREAD_MODE.with(|c| c.set(mode));
}

/// The mode auto-dispatching kernels resolve on this thread: the
/// thread-local override if set, else [`SimdMode::Auto`].
pub fn thread_simd_mode() -> SimdMode {
    THREAD_MODE.with(|c| c.get()).unwrap_or_default()
}

/// Eight `i32` lanes with branchless element-wise operations.
///
/// All arithmetic wraps (masked-out lanes may hold garbage whose sums
/// must not abort a debug build); callers only ever read lanes their
/// masks validate, where wrapping and two's-complement addition agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct I32x8(pub [i32; LANES]);

impl I32x8 {
    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: i32) -> Self {
        Self([v; LANES])
    }

    /// Lanes `start, start+1, …, start+7`.
    #[inline(always)]
    pub fn iota(start: i32) -> Self {
        let mut a = [0i32; LANES];
        for (k, slot) in a.iter_mut().enumerate() {
            *slot = start.wrapping_add(k as i32);
        }
        Self(a)
    }

    /// Load lanes from `buf[at .. at + LANES]`.
    #[inline(always)]
    pub fn load(buf: &[i32], at: usize) -> Self {
        Self(buf[at..at + LANES].try_into().expect("lane load in bounds"))
    }

    /// Widen `buf[at .. at + LANES]` bytes to `i32` lanes.
    #[inline(always)]
    pub fn load_bytes(buf: &[u8], at: usize) -> Self {
        let b: [u8; LANES] = buf[at..at + LANES].try_into().expect("byte lane load in bounds");
        let mut a = [0i32; LANES];
        for (slot, &v) in a.iter_mut().zip(&b) {
            *slot = v as i32;
        }
        Self(a)
    }

    /// Store lanes into `buf[at .. at + LANES]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [i32], at: usize) {
        buf[at..at + LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise wrapping addition. Deliberately not `std::ops::Add`:
    /// `+` would suggest overflow-checked semantics, but masked-off
    /// lanes legitimately hold garbage that must wrap silently.
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = x.wrapping_add(y);
        }
        Self(a)
    }

    /// Lane-wise signed maximum.
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = (*x).max(y);
        }
        Self(a)
    }

    /// Lane-wise `self >= o` mask: all-ones lanes where true, 0 where
    /// false.
    #[inline(always)]
    pub fn ge(self, o: Self) -> Self {
        let mut a = [0i32; LANES];
        for ((slot, &x), &y) in a.iter_mut().zip(&self.0).zip(&o.0) {
            *slot = -((x >= y) as i32);
        }
        Self(a)
    }

    /// Lane-wise `self <= o` mask.
    #[inline(always)]
    pub fn le(self, o: Self) -> Self {
        let mut a = [0i32; LANES];
        for ((slot, &x), &y) in a.iter_mut().zip(&self.0).zip(&o.0) {
            *slot = -((x <= y) as i32);
        }
        Self(a)
    }

    /// Lane-wise equality mask against another vector.
    #[inline(always)]
    pub fn eq_lanes(self, o: Self) -> Self {
        let mut a = [0i32; LANES];
        for ((slot, &x), &y) in a.iter_mut().zip(&self.0).zip(&o.0) {
            *slot = -((x == y) as i32);
        }
        Self(a)
    }

    /// Lane-wise mask intersection.
    #[inline(always)]
    pub fn and(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x &= y;
        }
        Self(a)
    }

    /// Treat `self` as a mask: lanes from `on` where the mask is set,
    /// from `off` elsewhere.
    #[inline(always)]
    pub fn blend(self, on: Self, off: Self) -> Self {
        let mut a = [0i32; LANES];
        for (k, slot) in a.iter_mut().enumerate() {
            *slot = (on.0[k] & self.0[k]) | (off.0[k] & !self.0[k]);
        }
        Self(a)
    }

    /// Horizontal maximum over all lanes.
    #[inline(always)]
    pub fn hmax(self) -> i32 {
        let mut m = self.0[0];
        for &v in &self.0[1..] {
            m = m.max(v);
        }
        m
    }
}

/// `len` rounded up to a whole number of [`LANES`].
#[inline(always)]
pub fn round_up_lanes(len: usize) -> usize {
    len.div_ceil(LANES) * LANES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_elementwise() {
        let a = I32x8::iota(0);
        let b = I32x8::splat(3);
        assert_eq!(a.add(b).0, [3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(a.max(b).0, [3, 3, 3, 3, 4, 5, 6, 7]);
        assert_eq!(a.hmax(), 7);
        let m = a.ge(b); // lanes 3..=7 set
        assert_eq!(m.0, [0, 0, 0, -1, -1, -1, -1, -1]);
        let sel = m.blend(I32x8::splat(1), I32x8::splat(-9));
        assert_eq!(sel.0, [-9, -9, -9, 1, 1, 1, 1, 1]);
        let le = a.le(I32x8::splat(2)).and(a.ge(I32x8::splat(1)));
        assert_eq!(le.0, [0, -1, -1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn byte_lanes_and_eq() {
        let bytes = *b"ACGTACGT";
        let v = I32x8::load_bytes(&bytes, 0);
        assert_eq!(v.0[0], b'A' as i32);
        let eq = v.eq_lanes(I32x8::splat(b'C' as i32));
        assert_eq!(eq.0, [0, -1, 0, 0, 0, -1, 0, 0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut buf = vec![0i32; 24];
        I32x8::iota(5).store(&mut buf, 8);
        assert_eq!(I32x8::load(&buf, 8), I32x8::iota(5));
        assert_eq!(round_up_lanes(0), 0);
        assert_eq!(round_up_lanes(1), 8);
        assert_eq!(round_up_lanes(8), 8);
        assert_eq!(round_up_lanes(9), 16);
    }

    #[test]
    fn mode_parsing_and_resolution() {
        assert_eq!("scalar".parse::<SimdMode>().unwrap(), SimdMode::Scalar);
        assert_eq!("AUTO".parse::<SimdMode>().unwrap(), SimdMode::Auto);
        assert!("avx512".parse::<SimdMode>().is_err());
        assert_eq!(SimdMode::Scalar.kernel(), KernelImpl::Scalar);
        assert_eq!(SimdMode::Auto.kernel(), KernelImpl::Simd);
        assert_eq!(SimdMode::Auto.to_string(), "auto");
        // Thread override wins while set and clears back to Auto.
        set_thread_simd_mode(Some(SimdMode::Scalar));
        assert_eq!(thread_simd_mode(), SimdMode::Scalar);
        set_thread_simd_mode(Some(SimdMode::Auto));
        assert_eq!(thread_simd_mode(), SimdMode::Auto);
        set_thread_simd_mode(None);
        assert_eq!(thread_simd_mode(), SimdMode::Auto);
    }
}
