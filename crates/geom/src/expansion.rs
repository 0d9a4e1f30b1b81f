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

/// Exact product `a * b = hi + lo`, via fused multiply-add.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let hi = a * b;
    let lo = f64::mul_add(a, b, -hi);
    (hi, lo)
}

/// Adds a single `f64` to an expansion, producing a non-overlapping
/// expansion in `out`. Returns the number of components written.
/// `out` must have room for `e.len() + 1` components.
pub fn grow_expansion(e: &[f64], b: f64, out: &mut [f64]) -> usize {
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

#[inline]
fn ensure_nonempty(out: &mut [f64], n: usize) -> usize {
    if n == 0 {
        out[0] = 0.0;
        1
    } else {
        n
    }
}

/// Multiplies an expansion by a single `f64` into `out` (zero-eliminated).
/// `out` must have room for `2 * e.len()` components.
pub fn scale_expansion(e: &[f64], b: f64, out: &mut [f64]) -> usize {
    if e.is_empty() {
        out[0] = 0.0;
        return 1;
    }
    let mut n = 0usize;
    let (mut q, lo) = two_product(e[0], b);
    if lo != 0.0 {
        out[n] = lo;
        n += 1;
    }
    for &ei in &e[1..] {
        let (phi, plo) = two_product(ei, b);
        let (sum, slo) = two_sum(q, plo);
        if slo != 0.0 {
            out[n] = slo;
            n += 1;
        }
        let (qq, qlo) = fast_two_sum(phi, sum);
        if qlo != 0.0 {
            out[n] = qlo;
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

/// Sums two expansions into `h` without heap allocation (Shewchuk's
/// `fast_expansion_sum_zeroelim`). Both inputs must be nonoverlapping and
/// sorted by increasing magnitude; the result is, too. Returns the number
/// of components written (at least 1 — a zero result is written as `[0.0]`).
/// `h` must have room for `e.len() + f.len()` components.
///
/// This is the merge the semi-static predicate stages use on their hot
/// path; the allocating [`Expansion`] type remains the fallback for the
/// fully exact stages, where clarity beats constant factors.
pub fn fast_expansion_sum_zeroelim(e: &[f64], f: &[f64], h: &mut [f64]) -> usize {
    if e.is_empty() {
        let n = f.len();
        h[..n].copy_from_slice(f);
        return ensure_nonempty(h, n);
    }
    if f.is_empty() {
        let n = e.len();
        h[..n].copy_from_slice(e);
        return ensure_nonempty(h, n);
    }
    let (mut eidx, mut fidx) = (0usize, 0usize);
    let (mut enow, mut fnow) = (e[0], f[0]);
    let mut q;
    if (fnow > enow) == (fnow > -enow) {
        q = enow;
        eidx += 1;
    } else {
        q = fnow;
        fidx += 1;
    }
    let mut n = 0usize;
    if eidx < e.len() && fidx < f.len() {
        enow = e[eidx];
        fnow = f[fidx];
        let (qq, lo) = if (fnow > enow) == (fnow > -enow) {
            eidx += 1;
            fast_two_sum(enow, q)
        } else {
            fidx += 1;
            fast_two_sum(fnow, q)
        };
        q = qq;
        if lo != 0.0 {
            h[n] = lo;
            n += 1;
        }
        while eidx < e.len() && fidx < f.len() {
            enow = e[eidx];
            fnow = f[fidx];
            let (qq, lo) = if (fnow > enow) == (fnow > -enow) {
                eidx += 1;
                two_sum(q, enow)
            } else {
                fidx += 1;
                two_sum(q, fnow)
            };
            q = qq;
            if lo != 0.0 {
                h[n] = lo;
                n += 1;
            }
        }
    }
    while eidx < e.len() {
        let (qq, lo) = two_sum(q, e[eidx]);
        eidx += 1;
        q = qq;
        if lo != 0.0 {
            h[n] = lo;
            n += 1;
        }
    }
    while fidx < f.len() {
        let (qq, lo) = two_sum(q, f[fidx]);
        fidx += 1;
        q = qq;
        if lo != 0.0 {
            h[n] = lo;
            n += 1;
        }
    }
    if q != 0.0 || n == 0 {
        h[n] = q;
        n += 1;
    }
    n
}

/// Approximate value of an expansion (sum of components, smallest first so
/// the largest dominates last).
#[inline]
pub fn estimate(e: &[f64]) -> f64 {
    e.iter().sum()
}

/// Sign of the exact value of an expansion: the sign of its largest
/// (last non-zero) component.
#[inline]
pub fn sign(e: &[f64]) -> f64 {
    for &c in e.iter().rev() {
        if c != 0.0 {
            return if c > 0.0 { 1.0 } else { -1.0 };
        }
    }
    0.0
}

/// A small growable expansion with inline storage, used by the predicates.
#[derive(Debug, Clone)]
pub struct Expansion {
    comps: Vec<f64>,
}

impl Expansion {
    /// The zero expansion.
    pub fn zero() -> Self {
        Expansion { comps: vec![] }
    }

    /// Expansion representing a single `f64`.
    pub fn from_f64(v: f64) -> Self {
        if v == 0.0 {
            Self::zero()
        } else {
            Expansion { comps: vec![v] }
        }
    }

    /// Exact product of two `f64`s as an expansion (the exact-`orient2d`
    /// reference in the predicate tests).
    #[cfg(test)]
    pub(crate) fn product(a: f64, b: f64) -> Self {
        let (hi, lo) = two_product(a, b);
        let mut comps = Vec::with_capacity(2);
        if lo != 0.0 {
            comps.push(lo);
        }
        if hi != 0.0 {
            comps.push(hi);
        }
        Expansion { comps }
    }

    /// Exact sum.
    pub fn add(&self, other: &Expansion) -> Expansion {
        let mut out = vec![0.0; self.comps.len() + other.comps.len() + 1];
        let n = expansion_sum_simple(&self.comps, &other.comps, &mut out);
        out.truncate(n);
        Expansion { comps: out }
    }

    /// Exact difference.
    pub fn sub(&self, other: &Expansion) -> Expansion {
        self.add(&other.negate())
    }

    /// Exact negation.
    pub fn negate(&self) -> Expansion {
        Expansion {
            comps: self.comps.iter().map(|c| -c).collect(),
        }
    }

    /// Exact product with a scalar.
    pub fn scale(&self, b: f64) -> Expansion {
        if self.comps.is_empty() || b == 0.0 {
            return Self::zero();
        }
        let mut out = vec![0.0; 2 * self.comps.len()];
        let n = scale_expansion(&self.comps, b, &mut out);
        out.truncate(n);
        Expansion { comps: out }
    }

    /// Exact product of two expansions (distributes scale over components).
    pub fn mul(&self, other: &Expansion) -> Expansion {
        let mut acc = Expansion::zero();
        for &c in &other.comps {
            acc = acc.add(&self.scale(c));
        }
        acc
    }

    /// Sign of the exact value: -1.0, 0.0, or 1.0.
    pub fn sign(&self) -> f64 {
        sign(&self.comps)
    }

    /// Approximate `f64` value.
    pub fn approx(&self) -> f64 {
        estimate(&self.comps)
    }

    /// Borrow the raw components (increasing magnitude).
    pub fn components(&self) -> &[f64] {
        &self.comps
    }
}

/// Robust (if slightly slower) expansion sum used by [`Expansion::add`]:
/// repeated `grow_expansion`, which avoids the merge-order subtleties of the
/// fast variant. Exactness is what matters here; predicates only hit this
/// path on (near-)degenerate input.
fn expansion_sum_simple(e: &[f64], f: &[f64], out: &mut [f64]) -> usize {
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
    let n = cur.len();
    out[..n].copy_from_slice(&cur);
    ensure_nonempty(out, n)
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
        let s = e.scale(3.0);
        let expect = Expansion::from_f64(3.0).add(&Expansion::from_f64(3.0 * f64::EPSILON));
        assert_eq!(s.sub(&expect).sign(), 0.0);
    }

    #[test]
    fn negate_flips_sign() {
        let e = Expansion::product(1.0 + f64::EPSILON, 1.0 - f64::EPSILON);
        assert_eq!(e.sign(), 1.0);
        assert_eq!(e.negate().sign(), -1.0);
        assert_eq!(Expansion::zero().negate().sign(), 0.0);
    }
}
