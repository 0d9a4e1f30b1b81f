//! Floating-point expansion arithmetic (Shewchuk 1997).
//!
//! An *expansion* is a sum of non-overlapping `f64` components stored in
//! increasing order of magnitude; it represents a real number exactly. The
//! adaptive predicates in [`crate::predicates`] fall back to this exact
//! arithmetic when a cheap floating-point filter cannot certify the sign of
//! a determinant.
//!
//! The primitives follow "Adaptive Precision Floating-Point Arithmetic and
//! Fast Robust Geometric Predicates", J. R. Shewchuk, Discrete &
//! Computational Geometry 18:305-363, 1997. All of them are exact provided
//! the inputs are finite and no overflow occurs.
//!
//! Like Shewchuk's C, the predicates keep every expansion in a fixed stack
//! array sized for the worst case. The arrays start uninitialised
//! ([`UNINIT`]); each writer below fills a prefix and hands it back as a
//! `&[f64]`, so nothing is zero-filled and nothing touches the heap.

use std::mem::MaybeUninit;

/// One unwritten expansion component: `[UNINIT; N]` is stack storage for
/// an expansion of at most `N` components.
pub const UNINIT: MaybeUninit<f64> = MaybeUninit::uninit();

/// The first `n` components of `h`, which the caller has just written.
#[inline]
pub(crate) fn written(h: &[MaybeUninit<f64>], n: usize) -> &[f64] {
    let init = &h[..n];
    // SAFETY: every caller passes the count of components it wrote into
    // `h[..n]`, and `MaybeUninit<f64>` has the layout of `f64`.
    unsafe { &*(init as *const [MaybeUninit<f64>] as *const [f64]) }
}

/// Exact sum of two `f64`s as a head/tail pair: `a + b = hi + lo` exactly,
/// with `hi = fl(a + b)`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let hi = a + b;
    let bv = hi - a;
    let av = hi - bv;
    let lo = (a - av) + (b - bv);
    (hi, lo)
}

/// Exact sum when `|a| >= |b|` (one fewer rounding step than [`two_sum`]).
#[inline]
pub fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    debug_assert!(a == 0.0 || a.abs() >= b.abs() || !a.is_finite());
    let hi = a + b;
    let lo = b - (hi - a);
    (hi, lo)
}

/// Exact difference `a - b = hi + lo`.
#[inline]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let hi = a - b;
    let bv = a - hi;
    let av = hi + bv;
    let lo = (a - av) + (bv - b);
    (hi, lo)
}

/// Roundoff tail of an already-computed difference: given `x = fl(a - b)`,
/// returns `lo` such that `a - b = x + lo` exactly. Lets the semi-static
/// predicate stages defer tail computation until the cheap stages fail.
#[inline]
pub fn two_diff_tail(a: f64, b: f64, x: f64) -> f64 {
    let bv = a - x;
    let av = x + bv;
    (a - av) + (bv - b)
}

/// Exact product `a * b = hi + lo` (Shewchuk's `Two_Product`, through
/// Dekker's split). `f64::mul_add` gives the same `lo` in one operation,
/// but without a target FMA feature it compiles to a libm call, which is
/// slower than the seven extra flops here.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let (bhi, blo) = split(b);
    two_product_presplit(a, b, bhi, blo)
}

/// [`two_product`] with `b` already split (Shewchuk's
/// `Two_Product_Presplit`), for a loop that multiplies by one `b`.
#[inline]
fn two_product_presplit(a: f64, b: f64, bhi: f64, blo: f64) -> (f64, f64) {
    let hi = a * b;
    let (ahi, alo) = split(a);
    let err = ((hi - ahi * bhi) - alo * bhi) - ahi * blo;
    (hi, alo * blo - err)
}

/// Splits `a` into two non-overlapping halves of at most 26 significant
/// bits each, `a = hi + lo`, so their products are exact.
#[inline]
fn split(a: f64) -> (f64, f64) {
    const SPLITTER: f64 = 134_217_729.0; // 2^27 + 1
    let c = SPLITTER * a;
    let hi = c - (c - a);
    (hi, a - hi)
}

/// Adds a single `f64` to an expansion, producing a non-overlapping
/// expansion in `out`. Returns the number of components written.
/// `out` must have room for `e.len() + 1` components.
#[cfg(test)]
fn grow_expansion(e: &[f64], b: f64, out: &mut [f64]) -> usize {
    let mut q = b;
    let mut n = 0;
    for &ei in e {
        let (qq, lo) = two_sum(q, ei);
        if lo != 0.0 {
            out[n] = lo;
            n += 1;
        }
        q = qq;
    }
    if q != 0.0 || n == 0 {
        out[n] = q;
        n += 1;
    }
    n
}

/// Multiplies an expansion by a single `f64` into `h` (Shewchuk's
/// `scale_expansion_zeroelim`) and returns the written components (at
/// least 1 — a zero result is written as `[0.0]`). `h` must have room for
/// `2 * e.len()` components.
pub fn scale_expansion<'h>(e: &[f64], b: f64, h: &'h mut [MaybeUninit<f64>]) -> &'h [f64] {
    let Some((&e0, rest)) = e.split_first() else {
        h[0].write(0.0);
        return written(h, 1);
    };
    if b == 0.0 {
        h[0].write(0.0);
        return written(h, 1);
    }
    let (bhi, blo) = split(b);
    let mut n = 0usize;
    let (mut q, lo) = two_product_presplit(e0, b, bhi, blo);
    push_nonzero(h, &mut n, lo);
    for &ei in rest {
        let (phi, plo) = two_product_presplit(ei, b, bhi, blo);
        let (sum, slo) = two_sum(q, plo);
        push_nonzero(h, &mut n, slo);
        let (qq, qlo) = fast_two_sum(phi, sum);
        push_nonzero(h, &mut n, qlo);
        q = qq;
    }
    if q != 0.0 || n == 0 {
        h[n].write(q);
        n += 1;
    }
    written(h, n)
}

/// Appends `x` to the expansion `h[..n]` unless it is zero (Shewchuk's
/// zero elimination). A branch-free form that always writes the slot was
/// measured slower on the boundary-layer workload.
#[inline(always)]
fn push_nonzero(h: &mut [MaybeUninit<f64>], n: &mut usize, x: f64) {
    if x != 0.0 {
        h[*n].write(x);
        *n += 1;
    }
}

/// Exact difference of two head/tail pairs: `(a1 + a0) - b = x2 + x1 + x0`.
#[inline]
fn two_one_diff(a1: f64, a0: f64, b: f64) -> (f64, f64, f64) {
    let (i, x0) = two_diff(a0, b);
    let (x2, x1) = two_sum(a1, i);
    (x2, x1, x0)
}

/// Exact difference of two double-doubles: `(a1 + a0) - (b1 + b0)` as a
/// four-component expansion in increasing order of magnitude.
#[inline]
pub fn two_two_diff(a1: f64, a0: f64, b1: f64, b0: f64) -> [f64; 4] {
    let (j, r0, x0) = two_one_diff(a1, a0, b0);
    let (x3, x2, x1) = two_one_diff(j, r0, b1);
    [x0, x1, x2, x3]
}

/// Exact sum of a head/tail pair and an `f64`: `(a1 + a0) + b = x2 + x1 + x0`.
#[inline]
fn two_one_sum(a1: f64, a0: f64, b: f64) -> (f64, f64, f64) {
    let (i, x0) = two_sum(a0, b);
    let (x2, x1) = two_sum(a1, i);
    (x2, x1, x0)
}

/// Exact sum of two double-doubles: `(a1 + a0) + (b1 + b0)` as a
/// four-component expansion in increasing order of magnitude.
#[inline]
pub fn two_two_sum(a1: f64, a0: f64, b1: f64, b0: f64) -> [f64; 4] {
    let (j, r0, x0) = two_one_sum(a1, a0, b0);
    let (x3, x2, x1) = two_one_sum(j, r0, b1);
    [x0, x1, x2, x3]
}

/// Sums two expansions into `h` (Shewchuk's `fast_expansion_sum_zeroelim`)
/// and returns the written components (at least 1 — a zero result is
/// written as `[0.0]`). Both inputs must be nonoverlapping and sorted by
/// increasing magnitude; the result is, too. `h` must have room for
/// `e.len() + f.len()` components, and for one when both are empty.
pub fn fast_expansion_sum_zeroelim<'h>(
    e: &[f64],
    f: &[f64],
    h: &'h mut [MaybeUninit<f64>],
) -> &'h [f64] {
    if e.is_empty() || f.is_empty() {
        let one = if e.is_empty() { f } else { e };
        for (hi, &c) in h.iter_mut().zip(one) {
            hi.write(c);
        }
        if one.is_empty() {
            h[0].write(0.0);
            return written(h, 1);
        }
        return written(h, one.len());
    }
    // The head of `e` or `f` with the smaller magnitude, chosen by
    // Shewchuk's comparison (ties included) so the merge order is his.
    let (mut eidx, mut fidx) = (0usize, 0usize);
    let next = |eidx: &mut usize, fidx: &mut usize| {
        let (enow, fnow) = (e[*eidx], f[*fidx]);
        let take_e = (fnow > enow) == (fnow > -enow);
        *eidx += usize::from(take_e);
        *fidx += usize::from(!take_e);
        if take_e {
            enow
        } else {
            fnow
        }
    };
    let mut q = next(&mut eidx, &mut fidx);
    let mut n = 0usize;
    if eidx < e.len() && fidx < f.len() {
        let (qq, lo) = fast_two_sum(next(&mut eidx, &mut fidx), q);
        q = qq;
        push_nonzero(h, &mut n, lo);
        while eidx < e.len() && fidx < f.len() {
            let (qq, lo) = two_sum(q, next(&mut eidx, &mut fidx));
            q = qq;
            push_nonzero(h, &mut n, lo);
        }
    }
    for &c in e[eidx..].iter().chain(&f[fidx..]) {
        let (qq, lo) = two_sum(q, c);
        q = qq;
        push_nonzero(h, &mut n, lo);
    }
    if q != 0.0 || n == 0 {
        h[n].write(q);
        n += 1;
    }
    written(h, n)
}

/// Approximate value of an expansion (sum of components, smallest first so
/// the largest dominates last).
#[inline]
pub fn estimate(e: &[f64]) -> f64 {
    e.iter().sum()
}

/// Sign of the exact value of an expansion: the sign of its largest
/// (last non-zero) component.
#[cfg(test)]
fn sign(e: &[f64]) -> f64 {
    for &c in e.iter().rev() {
        if c != 0.0 {
            return if c > 0.0 { 1.0 } else { -1.0 };
        }
    }
    0.0
}

/// A heap-allocated expansion: the plain reference the stack predicates
/// are held to in the tests. Each operation allocates; none is tuned.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Expansion {
    comps: Vec<f64>,
}

#[cfg(test)]
impl Expansion {
    /// The zero expansion.
    pub(crate) fn zero() -> Self {
        Expansion { comps: vec![] }
    }

    /// Expansion representing a single `f64`.
    pub(crate) fn from_f64(v: f64) -> Self {
        if v == 0.0 {
            Self::zero()
        } else {
            Expansion { comps: vec![v] }
        }
    }

    /// Exact product of two `f64`s as an expansion, through a fused
    /// multiply-add rather than [`two_product`]'s split.
    pub(crate) fn product(a: f64, b: f64) -> Self {
        let hi = a * b;
        let lo = f64::mul_add(a, b, -hi);
        Expansion::from_f64(lo).add(&Expansion::from_f64(hi))
    }

    /// Exact sum.
    pub(crate) fn add(&self, other: &Expansion) -> Expansion {
        Expansion {
            comps: expansion_sum_simple(&self.comps, &other.comps),
        }
    }

    /// Exact difference.
    pub(crate) fn sub(&self, other: &Expansion) -> Expansion {
        self.add(&other.negate())
    }

    /// Exact negation.
    pub(crate) fn negate(&self) -> Expansion {
        Expansion {
            comps: self.comps.iter().map(|c| -c).collect(),
        }
    }

    /// Exact product with a scalar: the sum of the components' products,
    /// independent of [`scale_expansion`].
    pub(crate) fn scale(&self, b: f64) -> Expansion {
        self.comps.iter().fold(Expansion::zero(), |acc, &c| {
            acc.add(&Expansion::product(c, b))
        })
    }

    /// Exact product of two expansions (distributes scale over components).
    pub(crate) fn mul(&self, other: &Expansion) -> Expansion {
        let mut acc = Expansion::zero();
        for &c in &other.comps {
            acc = acc.add(&self.scale(c));
        }
        acc
    }

    /// Sign of the exact value: -1.0, 0.0, or 1.0.
    pub(crate) fn sign(&self) -> f64 {
        sign(&self.comps)
    }

    /// Approximate `f64` value.
    pub(crate) fn approx(&self) -> f64 {
        estimate(&self.comps)
    }
}

/// The expansion sum behind [`Expansion::add`]: repeated
/// `grow_expansion`, which avoids the merge-order subtleties of the fast
/// variant. Zero is the empty expansion.
#[cfg(test)]
fn expansion_sum_simple(e: &[f64], f: &[f64]) -> Vec<f64> {
    let mut cur: Vec<f64> = e.to_vec();
    let mut tmp = vec![0.0; e.len() + f.len() + 1];
    for &b in f {
        let n = grow_expansion(&cur, b, &mut tmp);
        cur.clear();
        cur.extend_from_slice(&tmp[..n]);
        // A grown expansion of all zeros collapses to [0.0]; strip it so
        // zero stays canonical (empty).
        if cur == [0.0] {
            cur.clear();
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_exact() {
        let a = 1.0;
        let b = 1e-30;
        let (hi, lo) = two_sum(a, b);
        assert_eq!(hi, 1.0);
        assert_eq!(lo, 1e-30);
        // hi + lo reproduces the mathematical sum exactly.
    }

    #[test]
    fn two_product_is_exact() {
        // (1 + 2^-52) * (1 + 2^-52) = 1 + 2^-51 + 2^-104: not representable.
        let a = 1.0 + f64::EPSILON;
        let (hi, lo) = two_product(a, a);
        assert_ne!(lo, 0.0);
        // Verify against 128-bit-ish reconstruction via expansions.
        let e = Expansion::product(a, a);
        assert_eq!(e.approx(), hi + lo);
    }

    #[test]
    fn two_diff_catastrophic_cancellation() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0;
        let (hi, lo) = two_diff(a, b);
        assert_eq!(hi, f64::EPSILON);
        assert_eq!(lo, 0.0);
    }

    #[test]
    fn expansion_add_sub_roundtrip() {
        let a = Expansion::product(1e20, 1.0 + f64::EPSILON);
        let b = Expansion::product(1e-20, 3.0);
        let s = a.add(&b);
        let d = s.sub(&a);
        // d must equal b exactly.
        assert_eq!(d.sub(&b).sign(), 0.0);
    }

    #[test]
    fn expansion_mul_matches_small_ints() {
        let a = Expansion::from_f64(3.0).add(&Expansion::from_f64(5.0));
        let b = Expansion::from_f64(7.0);
        let p = a.mul(&b);
        assert_eq!(p.approx(), 56.0);
        assert_eq!(p.sign(), 1.0);
    }

    #[test]
    fn sign_of_tiny_difference() {
        // x = 1 + eps, y = 1; x^2 - y^2 - 2*eps = eps^2 > 0, far below f64
        // resolution when accumulated naively around 1.0.
        let eps = f64::EPSILON;
        let x = Expansion::from_f64(1.0).add(&Expansion::from_f64(eps));
        let x2 = x.mul(&x);
        let y2 = Expansion::from_f64(1.0);
        let two_eps = Expansion::from_f64(2.0 * eps);
        let diff = x2.sub(&y2).sub(&two_eps);
        assert_eq!(diff.sign(), 1.0);
        // And the naive computation gets it wrong:
        let naive = (1.0 + eps) * (1.0 + eps) - 1.0 - 2.0 * eps;
        assert_eq!(naive, 0.0);
    }

    #[test]
    fn grow_expansion_zero_elimination() {
        let e = [1.0];
        let mut out = [0.0; 2];
        let n = grow_expansion(&e, -1.0, &mut out);
        assert_eq!(&out[..n], &[0.0]);
    }

    #[test]
    fn scale_expansion_exact() {
        let e = Expansion::from_f64(1.0).add(&Expansion::from_f64(f64::EPSILON));
        let expect = Expansion::from_f64(3.0).add(&Expansion::from_f64(3.0 * f64::EPSILON));
        assert_eq!(e.scale(3.0).sub(&expect).sign(), 0.0);
        let mut h = [UNINIT; 4];
        let got = Expansion {
            comps: scale_expansion(&e.comps, 3.0, &mut h).to_vec(),
        };
        assert_eq!(got.sub(&expect).sign(), 0.0);
    }

    proptest::proptest! {
        /// Dekker's split gives the fused multiply-add's error term, bit
        /// for bit, across 80 binades of each factor.
        #[test]
        fn two_product_matches_fused_multiply_add(
            ma in -1.0f64..1.0, ea in -40i32..40, mb in -1.0f64..1.0, eb in -40i32..40,
        ) {
            let (a, b) = (ma * 2f64.powi(ea), mb * 2f64.powi(eb));
            let (hi, lo) = two_product(a, b);
            proptest::prop_assert_eq!(hi.to_bits(), (a * b).to_bits());
            proptest::prop_assert_eq!(lo.to_bits(), f64::mul_add(a, b, -(a * b)).to_bits());
        }
    }

    #[test]
    fn negate_flips_sign() {
        let e = Expansion::product(1.0 + f64::EPSILON, 1.0 - f64::EPSILON);
        assert_eq!(e.sign(), 1.0);
        assert_eq!(e.negate().sign(), -1.0);
        assert_eq!(Expansion::zero().negate().sign(), 0.0);
    }
}
