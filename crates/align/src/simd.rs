//! Portable integer SIMD lanes for the alignment kernels, and the
//! per-thread kernel selection.
//!
//! # Why hand-rolled lane types
//!
//! The lane kernels in [`crate::xdrop`] and [`crate::banded`] need exact,
//! deterministic integer arithmetic — their contract is **bit-identity**
//! with the scalar kernels, checked by a differential test suite
//! (`tests/simd_identity.rs`, `tests/kernel_golden.rs`). On stable Rust
//! there is no `std::simd`, and explicit `core::arch` intrinsics would tie
//! the crate to one ISA and drag in `unsafe`. The lane types are instead
//! plain arrays with `#[inline(always)]` branchless lane-wise operations,
//! left to LLVM's SLP vectorizer; on any target they are still the *same
//! arithmetic*, so results never depend on the ISA.
//!
//! What the vectorizer makes of them depends on the lane width, because
//! SSE2 — the x86-64 baseline — has 16-bit but no 32-bit signed `max`:
//!
//! * [`I16x16`] (the x-drop kernel, on the pipeline's path) compiles to
//!   real vector code: `pmaxsw`, `paddsw`, `pminsw`, and `pcmpeqb` plus
//!   `punpck{l,h}bw` for the byte compare, two `xmm` registers per value.
//!   CI greps the kernel's assembly for `pmaxsw` so a change that loses
//!   this fails.
//! * [`I32x8`] (the banded kernel, off the pipeline's path) vectorizes
//!   only in part: its adds become `paddd`, each `max` becomes a
//!   `pcmpgtd`/`pand`/`pandn`/`por` sequence, and much of the kernel stays
//!   scalar `cmov` code.
//!
//! Both counts refer to an optimized build without LTO. Under
//! `lto = "thin"` the crate's own `--emit asm` output is the pre-link
//! module, which holds no vector code at all: vectorization runs when the
//! final binary is linked.
//!
//! # Kernel selection
//!
//! Two implementations of each hot kernel exist forever (scalar and
//! lane-vectorized); [`KernelImpl`] names them. The x-drop lane kernel
//! itself hands inputs it cannot run exactly in `i16` to the scalar one. Which one an
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

/// Which implementation of a hot alignment kernel to run.
///
/// Every auto-dispatching kernel entry point has an `*_with` twin taking
/// this explicitly — the differential tests drive both paths through one
/// shared dirty workspace and assert bit-identical results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelImpl {
    /// The historical branchy scalar kernel.
    Scalar,
    /// The lane kernels: [`I16x16`] x-drop, [`I32x8`] banded.
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

/// Sixteen `i16` lanes — the x-drop kernel's cell type.
///
/// SSE2 has 16-bit signed `max`/`min` and saturating adds (`pmaxsw`,
/// `pminsw`, `paddsw`) but no 32-bit `max`, so these lanes are where the
/// x86-64 baseline actually runs the DP recurrence in vector registers
/// (two `xmm` per value, or one `ymm` under AVX2). Additions saturate:
/// a `i16::MIN` sentinel plus any non-positive term stays `i16::MIN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct I16x16(pub [i16; 16]);

impl I16x16 {
    /// Lane count.
    pub const LANES: usize = 16;

    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: i16) -> Self {
        Self([v; 16])
    }

    /// Load lanes from `buf[at .. at + 16]`.
    #[inline(always)]
    pub fn load(buf: &[i16], at: usize) -> Self {
        Self(buf[at..at + Self::LANES].try_into().expect("lane load in bounds"))
    }

    /// Store lanes into `buf[at .. at + 16]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [i16], at: usize) {
        buf[at..at + Self::LANES].copy_from_slice(&self.0);
    }

    /// Mask of byte equality between `a[..16]` and `b[..16]`: lane `k` is
    /// −1 where `a[k] == b[k]`, 0 elsewhere (`pcmpeqb` + widening).
    #[inline(always)]
    pub fn eq_bytes(a: &[u8], b: &[u8]) -> Self {
        let a: &[u8; 16] = a[..Self::LANES].try_into().expect("byte lanes in bounds");
        let b: &[u8; 16] = b[..Self::LANES].try_into().expect("byte lanes in bounds");
        let mut out = [0i16; 16];
        for ((slot, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *slot = -((x == y) as i16);
        }
        Self(out)
    }

    /// Lane-wise saturating addition.
    #[inline(always)]
    pub fn adds(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = x.saturating_add(y);
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

    /// Lane-wise signed minimum.
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        let mut a = self.0;
        for (x, &y) in a.iter_mut().zip(&o.0) {
            *x = (*x).min(y);
        }
        Self(a)
    }

    /// Treat `self` as a mask: lanes from `on` where the mask is set,
    /// from `off` elsewhere.
    #[inline(always)]
    pub fn blend(self, on: Self, off: Self) -> Self {
        let mut a = [0i16; 16];
        for (k, slot) in a.iter_mut().enumerate() {
            *slot = (on.0[k] & self.0[k]) | (off.0[k] & !self.0[k]);
        }
        Self(a)
    }

    /// The first `keep` lanes of `self`, `fill` in the rest.
    #[inline(always)]
    pub fn keep_first(self, keep: usize, fill: i16) -> Self {
        let mut a = self.0;
        for (k, x) in a.iter_mut().enumerate() {
            if k >= keep {
                *x = fill;
            }
        }
        Self(a)
    }

    /// Horizontal maximum over all lanes.
    #[inline(always)]
    pub fn hmax(self) -> i16 {
        self.0.into_iter().fold(i16::MIN, i16::max)
    }

    /// Horizontal minimum over all lanes.
    #[inline(always)]
    pub fn hmin(self) -> i16 {
        self.0.into_iter().fold(i16::MAX, i16::min)
    }
}

/// Eight `i32` lanes with branchless element-wise operations — the
/// banded kernel's cell type.
///
/// All arithmetic wraps (pad lanes may hold sentinel sums that must not
/// abort a debug build).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct I32x8(pub [i32; 8]);

impl I32x8 {
    /// Lane count. Row buffers used by the banded kernel carry at least
    /// this many slots of padding so full-width loads never run out of
    /// bounds.
    pub const LANES: usize = 8;

    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: i32) -> Self {
        Self([v; 8])
    }

    /// Load lanes from `buf[at .. at + 8]`.
    #[inline(always)]
    pub fn load(buf: &[i32], at: usize) -> Self {
        Self(buf[at..at + Self::LANES].try_into().expect("lane load in bounds"))
    }

    /// Widen `buf[at .. at + 8]` bytes to `i32` lanes.
    #[inline(always)]
    pub fn load_bytes(buf: &[u8], at: usize) -> Self {
        let b: [u8; 8] = buf[at..at + Self::LANES].try_into().expect("byte lane load in bounds");
        let mut a = [0i32; 8];
        for (slot, &v) in a.iter_mut().zip(&b) {
            *slot = v as i32;
        }
        Self(a)
    }

    /// Store lanes into `buf[at .. at + 8]`.
    #[inline(always)]
    pub fn store(self, buf: &mut [i32], at: usize) {
        buf[at..at + Self::LANES].copy_from_slice(&self.0);
    }

    /// Lane-wise wrapping addition. Deliberately not `std::ops::Add`:
    /// `+` would suggest overflow-checked semantics, but pad lanes
    /// legitimately hold sentinel sums that must wrap silently.
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

    /// Lane-wise equality mask against another vector: all-ones lanes
    /// where equal, 0 elsewhere.
    #[inline(always)]
    pub fn eq_lanes(self, o: Self) -> Self {
        let mut a = [0i32; 8];
        for ((slot, &x), &y) in a.iter_mut().zip(&self.0).zip(&o.0) {
            *slot = -((x == y) as i32);
        }
        Self(a)
    }

    /// Treat `self` as a mask: lanes from `on` where the mask is set,
    /// from `off` elsewhere.
    #[inline(always)]
    pub fn blend(self, on: Self, off: Self) -> Self {
        let mut a = [0i32; 8];
        for (k, slot) in a.iter_mut().enumerate() {
            *slot = (on.0[k] & self.0[k]) | (off.0[k] & !self.0[k]);
        }
        Self(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_elementwise() {
        let mut a = [0i16; 16];
        for (k, x) in a.iter_mut().enumerate() {
            *x = k as i16;
        }
        let a = I16x16(a);
        let b = I16x16::splat(3);
        assert_eq!(a.max(b).0[..5], [3, 3, 3, 3, 4]);
        assert_eq!(a.min(b).0[..5], [0, 1, 2, 3, 3]);
        assert_eq!((a.hmax(), a.hmin()), (15, 0));
        assert_eq!(a.keep_first(2, -7).0[..4], [0, 1, -7, -7]);
        assert_eq!(a.keep_first(16, -7), a);
        // Saturation: the sentinel absorbs negative terms and real values
        // are untouched.
        let neg = I16x16::splat(i16::MIN);
        assert_eq!(neg.adds(I16x16::splat(-64)), neg);
        assert_eq!(I16x16::splat(i16::MAX).adds(b), I16x16::splat(i16::MAX));
        assert_eq!(a.adds(I16x16::splat(-1)).0[..3], [-1, 0, 1]);

        let a = I32x8([0, 1, 2, 3, 4, 5, 6, 7]);
        let b = I32x8::splat(3);
        assert_eq!(a.add(b).0, [3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(a.max(b).0, [3, 3, 3, 3, 4, 5, 6, 7]);
        let m = a.eq_lanes(b);
        assert_eq!(m.0, [0, 0, 0, -1, 0, 0, 0, 0]);
        let sel = m.blend(I32x8::splat(1), I32x8::splat(-9));
        assert_eq!(sel.0, [-9, -9, -9, 1, -9, -9, -9, -9]);
    }

    #[test]
    fn byte_lanes_and_eq() {
        let s = *b"ACGTACGTACGTACGTxx";
        let t = *b"ACGAACGTTCGTACGGyy";
        let sub = I16x16::eq_bytes(&s, &t).blend(I16x16::splat(2), I16x16::splat(-5));
        assert_eq!(sub.0[..9], [2, 2, 2, -5, 2, 2, 2, 2, -5]);
        assert_eq!(sub.0[15], -5);

        let v = I32x8::load_bytes(&s, 0);
        assert_eq!(v.0[0], b'A' as i32);
        assert_eq!(v.eq_lanes(I32x8::splat(b'C' as i32)).0, [0, -1, 0, 0, 0, -1, 0, 0]);
    }

    #[test]
    fn load_store_roundtrip() {
        let v = I16x16::splat(-3).adds(I16x16([7; 16]));
        let mut buf = vec![0i16; 40];
        v.store(&mut buf, 7);
        assert_eq!(I16x16::load(&buf, 7), v);
        assert_eq!((buf[6], buf[23]), (0, 0));

        let v = I32x8([5, 6, 7, 8, 9, 10, 11, 12]);
        let mut buf = vec![0i32; 24];
        v.store(&mut buf, 8);
        assert_eq!(I32x8::load(&buf, 8), v);
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
