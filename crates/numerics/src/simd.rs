//! Four-wide `f64` vectors for the hot flux/limiter kernels.
//!
//! The solvers write their vectorized inner loops once, against [`F64x4`];
//! the target picks one of two interchangeable backends:
//!
//! * on `x86_64`, lanes live in a pair of SSE2 `__m128d` registers (SSE2 is
//!   part of the `x86_64` baseline, so no runtime feature detection is
//!   needed);
//! * on every other target, a hand-unrolled `[f64; 4]` scalar quad that
//!   the optimizer can still keep in registers. Tests compile it on
//!   `x86_64` too and check it lane for lane against SSE2.
//!
//! Every operation is lane-wise IEEE-754 double arithmetic with **bitwise
//! identical semantics across the two backends** — including the edge
//! cases. `min`/`max` are defined as `if a < b { a } else { b }` /
//! `if a > b { a } else { b }` per lane, which is exactly what the SSE2
//! `minpd`/`maxpd` instructions compute (second operand returned on NaN or
//! equal-magnitude signed zeros). [`F64x4::select`] is a bitwise blend, so
//! NaNs in discarded lanes never propagate, so physics payloads are
//! bitwise identical on every target.

use core::ops::{Add, Div, Mul, Neg, Sub};

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::*;
    use core::arch::x86_64::*;

    /// Four `f64` lanes held in two SSE2 registers.
    #[derive(Clone, Copy)]
    pub struct F64x4(__m128d, __m128d);

    /// Lane-wise comparison result (all-ones / all-zeros per lane).
    #[derive(Clone, Copy)]
    pub struct Mask4(__m128d, __m128d);

    impl F64x4 {
        /// All four lanes set to `v`.
        #[inline]
        #[must_use]
        pub fn splat(v: f64) -> Self {
            unsafe { Self(_mm_set1_pd(v), _mm_set1_pd(v)) }
        }

        /// Lanes from an array, index = lane.
        #[inline]
        #[must_use]
        pub fn from_array(a: [f64; 4]) -> Self {
            unsafe { Self(_mm_set_pd(a[1], a[0]), _mm_set_pd(a[3], a[2])) }
        }

        /// Lanes back to an array.
        #[inline]
        #[must_use]
        pub fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe {
                _mm_storeu_pd(out.as_mut_ptr(), self.0);
                _mm_storeu_pd(out.as_mut_ptr().add(2), self.1);
            }
            out
        }

        /// Load the first four elements of `s` (panics if `s.len() < 4`).
        #[inline]
        #[must_use]
        pub fn load(s: &[f64]) -> Self {
            assert!(s.len() >= 4);
            unsafe { Self(_mm_loadu_pd(s.as_ptr()), _mm_loadu_pd(s.as_ptr().add(2))) }
        }

        /// Store into the first four elements of `s` (panics if too short).
        #[inline]
        pub fn store(self, s: &mut [f64]) {
            assert!(s.len() >= 4);
            unsafe {
                _mm_storeu_pd(s.as_mut_ptr(), self.0);
                _mm_storeu_pd(s.as_mut_ptr().add(2), self.1);
            }
        }

        /// Lane-wise square root (IEEE correctly rounded, same as
        /// [`f64::sqrt`]).
        #[inline]
        #[must_use]
        pub fn sqrt(self) -> Self {
            unsafe { Self(_mm_sqrt_pd(self.0), _mm_sqrt_pd(self.1)) }
        }

        /// Lane-wise absolute value (sign bit cleared, same as
        /// [`f64::abs`]).
        #[inline]
        #[must_use]
        pub fn abs(self) -> Self {
            unsafe {
                let sign = _mm_set1_pd(-0.0);
                Self(_mm_andnot_pd(sign, self.0), _mm_andnot_pd(sign, self.1))
            }
        }

        /// Lane-wise `if self < other { self } else { other }` (the exact
        /// `minpd` semantics, shared with the scalar backend).
        #[inline]
        #[must_use]
        pub fn min(self, other: Self) -> Self {
            unsafe { Self(_mm_min_pd(self.0, other.0), _mm_min_pd(self.1, other.1)) }
        }

        /// Lane-wise `if self > other { self } else { other }` (the exact
        /// `maxpd` semantics, shared with the scalar backend).
        #[inline]
        #[must_use]
        pub fn max(self, other: Self) -> Self {
            unsafe { Self(_mm_max_pd(self.0, other.0), _mm_max_pd(self.1, other.1)) }
        }

        /// Lane-wise `self < other`.
        #[inline]
        #[must_use]
        pub fn lt(self, other: Self) -> Mask4 {
            unsafe { Mask4(_mm_cmplt_pd(self.0, other.0), _mm_cmplt_pd(self.1, other.1)) }
        }

        /// Lane-wise `self <= other`.
        #[inline]
        #[must_use]
        pub fn le(self, other: Self) -> Mask4 {
            unsafe { Mask4(_mm_cmple_pd(self.0, other.0), _mm_cmple_pd(self.1, other.1)) }
        }

        /// Lane-wise `self > other`.
        #[inline]
        #[must_use]
        pub fn gt(self, other: Self) -> Mask4 {
            unsafe { Mask4(_mm_cmpgt_pd(self.0, other.0), _mm_cmpgt_pd(self.1, other.1)) }
        }

        /// Lane-wise `self >= other`.
        #[inline]
        #[must_use]
        pub fn ge(self, other: Self) -> Mask4 {
            unsafe { Mask4(_mm_cmpge_pd(self.0, other.0), _mm_cmpge_pd(self.1, other.1)) }
        }

        /// Bitwise lane blend: `a` where the mask lane is set, else `b`.
        /// A pure bit select — NaNs in discarded lanes are never touched.
        #[inline]
        #[must_use]
        pub fn select(mask: Mask4, a: Self, b: Self) -> Self {
            unsafe {
                Self(
                    _mm_or_pd(_mm_and_pd(mask.0, a.0), _mm_andnot_pd(mask.0, b.0)),
                    _mm_or_pd(_mm_and_pd(mask.1, a.1), _mm_andnot_pd(mask.1, b.1)),
                )
            }
        }
    }

    impl Add for F64x4 {
        type Output = Self;
        #[inline]
        fn add(self, rhs: Self) -> Self {
            unsafe { Self(_mm_add_pd(self.0, rhs.0), _mm_add_pd(self.1, rhs.1)) }
        }
    }
    impl Sub for F64x4 {
        type Output = Self;
        #[inline]
        fn sub(self, rhs: Self) -> Self {
            unsafe { Self(_mm_sub_pd(self.0, rhs.0), _mm_sub_pd(self.1, rhs.1)) }
        }
    }
    impl Mul for F64x4 {
        type Output = Self;
        #[inline]
        fn mul(self, rhs: Self) -> Self {
            unsafe { Self(_mm_mul_pd(self.0, rhs.0), _mm_mul_pd(self.1, rhs.1)) }
        }
    }
    impl Div for F64x4 {
        type Output = Self;
        #[inline]
        fn div(self, rhs: Self) -> Self {
            unsafe { Self(_mm_div_pd(self.0, rhs.0), _mm_div_pd(self.1, rhs.1)) }
        }
    }
    impl Neg for F64x4 {
        type Output = Self;
        #[inline]
        fn neg(self) -> Self {
            unsafe {
                let sign = _mm_set1_pd(-0.0);
                Self(_mm_xor_pd(self.0, sign), _mm_xor_pd(self.1, sign))
            }
        }
    }
}

#[cfg(any(not(target_arch = "x86_64"), test))]
mod portable {
    use super::*;

    /// Four `f64` lanes as a hand-unrolled scalar quad.
    #[derive(Clone, Copy)]
    pub struct F64x4([f64; 4]);

    /// Lane-wise comparison result.
    #[derive(Clone, Copy)]
    pub struct Mask4([bool; 4]);

    impl F64x4 {
        /// All four lanes set to `v`.
        #[inline]
        #[must_use]
        pub fn splat(v: f64) -> Self {
            Self([v; 4])
        }

        /// Lanes from an array, index = lane.
        #[inline]
        #[must_use]
        pub fn from_array(a: [f64; 4]) -> Self {
            Self(a)
        }

        /// Lanes back to an array.
        #[inline]
        #[must_use]
        pub fn to_array(self) -> [f64; 4] {
            self.0
        }

        /// Load the first four elements of `s` (panics if `s.len() < 4`).
        #[inline]
        #[must_use]
        pub fn load(s: &[f64]) -> Self {
            Self([s[0], s[1], s[2], s[3]])
        }

        /// Store into the first four elements of `s` (panics if too short).
        #[inline]
        pub fn store(self, s: &mut [f64]) {
            s[..4].copy_from_slice(&self.0);
        }

        /// Lane-wise square root.
        #[inline]
        #[must_use]
        pub fn sqrt(self) -> Self {
            Self(self.0.map(f64::sqrt))
        }

        /// Lane-wise absolute value.
        #[inline]
        #[must_use]
        pub fn abs(self) -> Self {
            Self(self.0.map(f64::abs))
        }

        /// Lane-wise `if self < other { self } else { other }` (the exact
        /// SSE2 `minpd` semantics — NOT [`f64::min`], which differs on NaN).
        #[inline]
        #[must_use]
        pub fn min(self, other: Self) -> Self {
            let mut out = [0.0; 4];
            for k in 0..4 {
                out[k] = if self.0[k] < other.0[k] {
                    self.0[k]
                } else {
                    other.0[k]
                };
            }
            Self(out)
        }

        /// Lane-wise `if self > other { self } else { other }` (the exact
        /// SSE2 `maxpd` semantics — NOT [`f64::max`], which differs on NaN).
        #[inline]
        #[must_use]
        pub fn max(self, other: Self) -> Self {
            let mut out = [0.0; 4];
            for k in 0..4 {
                out[k] = if self.0[k] > other.0[k] {
                    self.0[k]
                } else {
                    other.0[k]
                };
            }
            Self(out)
        }

        /// Lane-wise `self < other`.
        #[inline]
        #[must_use]
        pub fn lt(self, other: Self) -> Mask4 {
            Mask4([
                self.0[0] < other.0[0],
                self.0[1] < other.0[1],
                self.0[2] < other.0[2],
                self.0[3] < other.0[3],
            ])
        }

        /// Lane-wise `self <= other`.
        #[inline]
        #[must_use]
        pub fn le(self, other: Self) -> Mask4 {
            Mask4([
                self.0[0] <= other.0[0],
                self.0[1] <= other.0[1],
                self.0[2] <= other.0[2],
                self.0[3] <= other.0[3],
            ])
        }

        /// Lane-wise `self > other`.
        #[inline]
        #[must_use]
        pub fn gt(self, other: Self) -> Mask4 {
            Mask4([
                self.0[0] > other.0[0],
                self.0[1] > other.0[1],
                self.0[2] > other.0[2],
                self.0[3] > other.0[3],
            ])
        }

        /// Lane-wise `self >= other`.
        #[inline]
        #[must_use]
        pub fn ge(self, other: Self) -> Mask4 {
            Mask4([
                self.0[0] >= other.0[0],
                self.0[1] >= other.0[1],
                self.0[2] >= other.0[2],
                self.0[3] >= other.0[3],
            ])
        }

        /// Bitwise lane blend: `a` where the mask lane is set, else `b`.
        #[inline]
        #[must_use]
        pub fn select(mask: Mask4, a: Self, b: Self) -> Self {
            let mut out = [0.0; 4];
            for k in 0..4 {
                out[k] = if mask.0[k] { a.0[k] } else { b.0[k] };
            }
            Self(out)
        }
    }

    impl Add for F64x4 {
        type Output = Self;
        #[inline]
        fn add(self, rhs: Self) -> Self {
            Self([
                self.0[0] + rhs.0[0],
                self.0[1] + rhs.0[1],
                self.0[2] + rhs.0[2],
                self.0[3] + rhs.0[3],
            ])
        }
    }
    impl Sub for F64x4 {
        type Output = Self;
        #[inline]
        fn sub(self, rhs: Self) -> Self {
            Self([
                self.0[0] - rhs.0[0],
                self.0[1] - rhs.0[1],
                self.0[2] - rhs.0[2],
                self.0[3] - rhs.0[3],
            ])
        }
    }
    impl Mul for F64x4 {
        type Output = Self;
        #[inline]
        fn mul(self, rhs: Self) -> Self {
            Self([
                self.0[0] * rhs.0[0],
                self.0[1] * rhs.0[1],
                self.0[2] * rhs.0[2],
                self.0[3] * rhs.0[3],
            ])
        }
    }
    impl Div for F64x4 {
        type Output = Self;
        #[inline]
        fn div(self, rhs: Self) -> Self {
            Self([
                self.0[0] / rhs.0[0],
                self.0[1] / rhs.0[1],
                self.0[2] / rhs.0[2],
                self.0[3] / rhs.0[3],
            ])
        }
    }
    impl Neg for F64x4 {
        type Output = Self;
        #[inline]
        fn neg(self) -> Self {
            Self([-self.0[0], -self.0[1], -self.0[2], -self.0[3]])
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub use portable::{F64x4, Mask4};
#[cfg(target_arch = "x86_64")]
pub use sse2::{F64x4, Mask4};

/// The backend this build uses: `"sse2"` or `"portable"`.
pub const BACKEND: &str = if cfg!(target_arch = "x86_64") {
    "sse2"
} else {
    "portable"
};

impl core::fmt::Debug for F64x4 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("F64x4").field(&self.to_array()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_is_a_bitwise_blend() {
        // NaN in a discarded lane must not leak through the blend.
        let a = F64x4::from_array([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::from_array([f64::NAN, -1.0, f64::NAN, -4.0]);
        let picked = F64x4::select(a.gt(F64x4::splat(2.5)), a, b).to_array();
        assert!(picked[0].is_nan());
        assert_eq!(picked[1], -1.0);
        assert_eq!(picked[2], 3.0);
        assert_eq!(picked[3], 4.0);
    }

    #[test]
    fn load_store_roundtrip() {
        let src = [0.1, 0.2, 0.3, 0.4, 0.5];
        let v = F64x4::load(&src[1..]);
        assert_eq!(v.to_array(), [0.2, 0.3, 0.4, 0.5]);
        let mut dst = [0.0; 6];
        v.store(&mut dst[2..]);
        assert_eq!(dst, [0.0, 0.0, 0.2, 0.3, 0.4, 0.5]);
    }

    /// Every operation of the SSE2 backend agrees bit for bit with the
    /// portable one, edge values included.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_matches_portable_lane_for_lane() {
        use super::portable::F64x4 as P;
        let vals = [
            0.0,
            -0.0,
            1.5,
            -2.25,
            3.0e8,
            -7.125e-3,
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            1.0 / 3.0,
        ];
        let quad = |k: usize| std::array::from_fn::<f64, 4, _>(|l| vals[(k + 3 * l) % vals.len()]);
        let bits = |a: [f64; 4]| a.map(f64::to_bits);
        let mut slice = [0.0; 4];
        for k in 0..vals.len() {
            for m in 0..vals.len() {
                let (a, b) = (quad(k), quad(m));
                let (s, t) = (F64x4::from_array(a), F64x4::from_array(b));
                let (p, q) = (P::from_array(a), P::from_array(b));
                let pairs = [
                    ((s + t).to_array(), (p + q).to_array()),
                    ((s - t).to_array(), (p - q).to_array()),
                    ((s * t).to_array(), (p * q).to_array()),
                    ((s / t).to_array(), (p / q).to_array()),
                    ((-s).to_array(), (-p).to_array()),
                    (s.abs().to_array(), p.abs().to_array()),
                    (s.sqrt().to_array(), p.sqrt().to_array()),
                    (s.min(t).to_array(), p.min(q).to_array()),
                    (s.max(t).to_array(), p.max(q).to_array()),
                    (
                        F64x4::select(s.lt(t), s, t).to_array(),
                        P::select(p.lt(q), p, q).to_array(),
                    ),
                    (
                        F64x4::select(s.le(t), s, t).to_array(),
                        P::select(p.le(q), p, q).to_array(),
                    ),
                    (
                        F64x4::select(s.gt(t), s, t).to_array(),
                        P::select(p.gt(q), p, q).to_array(),
                    ),
                    (
                        F64x4::select(s.ge(t), s, t).to_array(),
                        P::select(p.ge(q), p, q).to_array(),
                    ),
                    (F64x4::splat(a[0]).to_array(), P::splat(a[0]).to_array()),
                    (F64x4::load(&a).to_array(), P::load(&a).to_array()),
                ];
                for (n, (x, y)) in pairs.iter().enumerate() {
                    assert_eq!(bits(*x), bits(*y), "op {n} on {a:?}, {b:?}");
                }
                s.store(&mut slice);
                let from_sse2 = slice;
                p.store(&mut slice);
                assert_eq!(bits(from_sse2), bits(slice), "store on {a:?}");
            }
        }
    }
}
