//! Robust adaptive geometric predicates.
//!
//! `orient2d` and `incircle` are the two predicates every Delaunay algorithm
//! stands on. Both walk Shewchuk's adaptive ladder: a cheap floating-point
//! filter (stage A), then progressively tighter semi-static stages (B, C)
//! that reuse work from the previous rung, and only when every filter fails
//! stage D, which folds the remaining tail products into stage B's exact
//! expansion (floating-point expansions from [`crate::expansion`]). The
//! result is therefore always the sign of the exact real-arithmetic
//! determinant, and exactly `0.0` when that determinant is zero. Every
//! stage, D included, runs on fixed stack arrays: no call allocates.
//!
//! Build with the `predicate-stats` feature to count how often each rung of
//! the ladder settles the sign (see the `stats` module).

use std::mem::MaybeUninit;

use crate::expansion::{
    estimate, fast_expansion_sum_zeroelim, scale_expansion, two_diff_tail, two_product,
    two_two_diff, two_two_sum, written, UNINIT,
};
#[cfg(test)]
use crate::expansion::{two_diff, Expansion};
use crate::point::Point2;

/// Machine epsilon for `f64` halved, as used in Shewchuk's bounds
/// (his `epsilon` is the rounding unit 2^-53).
const EPS: f64 = f64::EPSILON / 2.0;

/// Stage-A error bound for `orient2d`: `(3 + 16*eps) * eps`.
const CCW_ERR_BOUND_A: f64 = (3.0 + 16.0 * EPS) * EPS;

/// Stage-B error bound for `orient2d`: `(2 + 12*eps) * eps`.
const CCW_ERR_BOUND_B: f64 = (2.0 + 12.0 * EPS) * EPS;

/// Stage-C error bound for `orient2d`: `(9 + 64*eps) * eps^2`.
const CCW_ERR_BOUND_C: f64 = (9.0 + 64.0 * EPS) * EPS * EPS;

/// Relative error of summing a correction into an estimate: `(3 + 8*eps) * eps`.
const RESULT_ERR_BOUND: f64 = (3.0 + 8.0 * EPS) * EPS;

/// Stage-A error bound for `incircle`: `(10 + 96*eps) * eps`.
const ICC_ERR_BOUND_A: f64 = (10.0 + 96.0 * EPS) * EPS;

/// Stage-B error bound for `incircle`: `(4 + 48*eps) * eps`.
const ICC_ERR_BOUND_B: f64 = (4.0 + 48.0 * EPS) * EPS;

/// Stage-C error bound for `incircle`: `(44 + 576*eps) * eps^2`.
const ICC_ERR_BOUND_C: f64 = (44.0 + 576.0 * EPS) * EPS * EPS;

/// Hit-rate counters for each rung of the predicate ladder, compiled in
/// only with the `predicate-stats` feature. All counters are process-wide
/// relaxed atomics: cheap enough to leave on during benchmarking runs.
#[cfg(feature = "predicate-stats")]
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ORIENT_A: AtomicU64 = AtomicU64::new(0);
    pub static ORIENT_B: AtomicU64 = AtomicU64::new(0);
    pub static ORIENT_C: AtomicU64 = AtomicU64::new(0);
    pub static ORIENT_EXACT: AtomicU64 = AtomicU64::new(0);
    pub static INCIRCLE_A: AtomicU64 = AtomicU64::new(0);
    pub static INCIRCLE_B: AtomicU64 = AtomicU64::new(0);
    pub static INCIRCLE_C: AtomicU64 = AtomicU64::new(0);
    pub static INCIRCLE_EXACT: AtomicU64 = AtomicU64::new(0);

    /// Snapshot of the counters as
    /// `(orient [A, B, C, exact], incircle [A, B, C, exact])`.
    pub fn snapshot() -> ([u64; 4], [u64; 4]) {
        (
            [
                ORIENT_A.load(Ordering::Relaxed),
                ORIENT_B.load(Ordering::Relaxed),
                ORIENT_C.load(Ordering::Relaxed),
                ORIENT_EXACT.load(Ordering::Relaxed),
            ],
            [
                INCIRCLE_A.load(Ordering::Relaxed),
                INCIRCLE_B.load(Ordering::Relaxed),
                INCIRCLE_C.load(Ordering::Relaxed),
                INCIRCLE_EXACT.load(Ordering::Relaxed),
            ],
        )
    }

    /// Zeroes every counter.
    pub fn reset() {
        for c in [
            &ORIENT_A,
            &ORIENT_B,
            &ORIENT_C,
            &ORIENT_EXACT,
            &INCIRCLE_A,
            &INCIRCLE_B,
            &INCIRCLE_C,
            &INCIRCLE_EXACT,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Mirrors the current counter values into a trace metrics registry
    /// under the `geom.*` namespace. The atomics stay the recording
    /// mechanism (zero-overhead in the insertion hot path); the registry
    /// is the reporting surface shared with every other subsystem.
    pub fn publish(tracer: &adm_trace::Tracer) {
        let (orient, incircle) = snapshot();
        for (name, v) in [
            ("geom.orient2d.stage_a", orient[0]),
            ("geom.orient2d.stage_b", orient[1]),
            ("geom.orient2d.stage_c", orient[2]),
            ("geom.orient2d.exact", orient[3]),
            ("geom.incircle.stage_a", incircle[0]),
            ("geom.incircle.stage_b", incircle[1]),
            ("geom.incircle.stage_c", incircle[2]),
            ("geom.incircle.exact", incircle[3]),
        ] {
            tracer.set_count(name, v);
        }
    }
}

#[cfg(feature = "predicate-stats")]
macro_rules! bump {
    ($counter:ident) => {
        crate::predicates::stats::$counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    };
}

#[cfg(not(feature = "predicate-stats"))]
macro_rules! bump {
    ($counter:ident) => {};
}

/// Returns a positive value if `a, b, c` are in counter-clockwise order,
/// negative if clockwise, and exactly `0.0` if collinear.
///
/// The magnitude (when nonzero) is an approximation of twice the signed
/// triangle area; only the **sign** is guaranteed exact.
#[inline]
pub fn orient2d(a: Point2, b: Point2, c: Point2) -> f64 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;
    // Mixed signs or a zero product certify for free; when the two
    // products have strictly the same sign, `|detleft| + |detright|` is
    // Shewchuk's `detsum` and the sign is certified iff `|det|` reaches
    // the bound. Signs are compared, never multiplied: `detleft *
    // detright` can underflow to zero in the subnormal range and falsely
    // certify.
    let same_sign = ((detleft > 0.0) & (detright > 0.0)) | ((detleft < 0.0) & (detright < 0.0));
    let detsum = detleft.abs() + detright.abs();
    if same_sign && det.abs() < CCW_ERR_BOUND_A * detsum {
        return orient2d_adapt(a, b, c, detsum);
    }
    bump!(ORIENT_A);
    det
}

/// Stages B-D of Shewchuk's adaptive `orient2d`, entered when the stage-A
/// filter cannot certify the sign. Each stage reuses the exact partial
/// results of the previous one; all intermediates live on the stack.
#[cold]
fn orient2d_adapt(a: Point2, b: Point2, c: Point2, detsum: f64) -> f64 {
    let acx = a.x - c.x;
    let bcx = b.x - c.x;
    let acy = a.y - c.y;
    let bcy = b.y - c.y;

    // Stage B: the determinant of the rounded differences, exactly.
    let (detleft, detlefttail) = two_product(acx, bcy);
    let (detright, detrighttail) = two_product(acy, bcx);
    let b_exp = two_two_diff(detleft, detlefttail, detright, detrighttail);
    let mut det = estimate(&b_exp);
    let errbound = CCW_ERR_BOUND_B * detsum;
    if det >= errbound || -det >= errbound {
        bump!(ORIENT_B);
        return det;
    }

    // Stage C: fold in the first-order tail terms.
    let acxtail = two_diff_tail(a.x, c.x, acx);
    let bcxtail = two_diff_tail(b.x, c.x, bcx);
    let acytail = two_diff_tail(a.y, c.y, acy);
    let bcytail = two_diff_tail(b.y, c.y, bcy);
    if acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0 {
        // The differences were exact: stage B's value is the exact sign.
        bump!(ORIENT_B);
        return det;
    }
    let errbound = CCW_ERR_BOUND_C * detsum + RESULT_ERR_BOUND * det.abs();
    det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
    if det >= errbound || -det >= errbound {
        bump!(ORIENT_C);
        return det;
    }

    // Stage D: exact, accumulating the remaining tail products into B.
    bump!(ORIENT_EXACT);
    let (s1, s0) = two_product(acxtail, bcy);
    let (t1, t0) = two_product(acytail, bcx);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut c1 = [UNINIT; 8];
    let c1 = fast_expansion_sum_zeroelim(&b_exp, &u, &mut c1);

    let (s1, s0) = two_product(acx, bcytail);
    let (t1, t0) = two_product(acy, bcxtail);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut c2 = [UNINIT; 12];
    let c2 = fast_expansion_sum_zeroelim(c1, &u, &mut c2);

    let (s1, s0) = two_product(acxtail, bcytail);
    let (t1, t0) = two_product(acytail, bcxtail);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut d_exp = [UNINIT; 16];
    let d_exp = fast_expansion_sum_zeroelim(c2, &u, &mut d_exp);
    d_exp[d_exp.len() - 1]
}

/// Fully exact `orient2d` via expansion arithmetic — retained as the
/// reference implementation the ladder is validated against.
///
/// The determinant expands to six exact products whose `c`-only terms
/// cancel: `ax*by - ax*cy - cx*by - ay*bx + ay*cx + cy*bx`.
#[cfg(test)]
fn orient2d_exact(a: Point2, b: Point2, c: Point2) -> f64 {
    let t1 = Expansion::product(a.x, b.y);
    let t2 = Expansion::product(a.x, c.y).negate();
    let t3 = Expansion::product(c.x, b.y).negate();
    let t4 = Expansion::product(a.y, b.x).negate();
    let t5 = Expansion::product(a.y, c.x);
    let t6 = Expansion::product(c.y, b.x);
    let det = t1.add(&t2).add(&t3).add(&t4).add(&t5).add(&t6);
    let s = det.sign();
    if s == 0.0 {
        0.0
    } else {
        // Preserve an order-of-magnitude estimate with the exact sign.
        let approx = det.approx();
        if approx != 0.0 && approx.signum() == s {
            approx
        } else {
            s * f64::MIN_POSITIVE
        }
    }
}

/// Returns a positive value if `d` lies strictly inside the circle through
/// `a, b, c` (which must be in counter-clockwise order), negative if
/// strictly outside, and exactly `0.0` if the four points are concyclic.
///
/// If `a, b, c` are clockwise the sign is flipped, matching the standard
/// determinant convention.
#[inline]
pub fn incircle(a: Point2, b: Point2, c: Point2, d: Point2) -> f64 {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    if det.abs() <= ICC_ERR_BOUND_A * permanent {
        return incircle_adapt(a, b, c, d, permanent);
    }
    bump!(INCIRCLE_A);
    det
}

/// Components stage D's running sum can reach: Shewchuk's bound for
/// `incircleadapt` (96 from stage B, 6 × 48 first-order and 3 × 256
/// second-order tail terms).
const FIN_LEN: usize = 1152;

/// An expansion of at most four components with its zero components
/// dropped: a zero is a no-op in every sum and product below, so the
/// results are the same and only the work shrinks.
#[derive(Clone, Copy)]
struct Four {
    c: [f64; 4],
    len: usize,
}

impl Four {
    fn new(e: [f64; 4]) -> Self {
        let mut c = [0.0; 4];
        let mut len = 0;
        for x in e {
            if x != 0.0 {
                c[len] = x;
                len += 1;
            }
        }
        Four { c, len }
    }

    fn get(&self) -> &[f64] {
        &self.c[..self.len]
    }
}

/// The 2x2 minor `px*qy - qx*py` of two rounded differences, exactly.
#[inline]
fn minor(px: f64, py: f64, qx: f64, qy: f64) -> Four {
    let (pq1, pq0) = two_product(px, qy);
    let (qp1, qp0) = two_product(qx, py);
    Four::new(two_two_diff(pq1, pq0, qp1, qp0))
}

/// `(x^2 + y^2) * m` exactly: one row of stage B's determinant.
#[inline]
fn lift_minor<'h>(m: &[f64], x: f64, y: f64, h: &'h mut [MaybeUninit<f64>; 32]) -> &'h [f64] {
    let (mut mx, mut mxx) = ([UNINIT; 8], [UNINIT; 16]);
    let (mut my, mut myy) = ([UNINIT; 8], [UNINIT; 16]);
    let xx = scale_expansion(scale_expansion(m, x, &mut mx), x, &mut mxx);
    let yy = scale_expansion(scale_expansion(m, y, &mut my), y, &mut myy);
    fast_expansion_sum_zeroelim(xx, yy, h)
}

/// Stage D's running sum: Shewchuk's `finnow`/`finother` pair. Each
/// addition merges the sum into the other buffer and swaps the two.
struct Fin<'b> {
    now: &'b mut [MaybeUninit<f64>; FIN_LEN],
    other: &'b mut [MaybeUninit<f64>; FIN_LEN],
    len: usize,
}

impl Fin<'_> {
    fn value(&self) -> &[f64] {
        written(&self.now[..], self.len)
    }

    fn add(&mut self, t: &[f64]) {
        let sum =
            fast_expansion_sum_zeroelim(written(&self.now[..], self.len), t, &mut self.other[..]);
        self.len = sum.len();
        std::mem::swap(&mut self.now, &mut self.other);
    }

    /// Adds the determinant's terms linear in the tail `t` of the rounded
    /// difference `r`: `t * 2r * m` from its own row's lift (`m` is that
    /// row's minor), and `t * l * s` for each other row whose minor `r`
    /// enters, with `l` that row's exact lift and `s` the signed rounded
    /// difference `r` is multiplied by there.
    fn add_first_order(&mut self, t: f64, r: f64, m: &[f64], others: [(&[f64], f64); 2]) {
        let (mut tm, mut own) = ([UNINIT; 8], [UNINIT; 16]);
        let own = scale_expansion(scale_expansion(m, t, &mut tm), 2.0 * r, &mut own);
        let [(l1, s1), (l2, s2)] = others;
        let (mut t1, mut o1) = ([UNINIT; 8], [UNINIT; 16]);
        let o1 = scale_expansion(scale_expansion(l1, t, &mut t1), s1, &mut o1);
        let (mut t2, mut o2) = ([UNINIT; 8], [UNINIT; 16]);
        let o2 = scale_expansion(scale_expansion(l2, t, &mut t2), s2, &mut o2);
        let (mut s32, mut s48) = ([UNINIT; 32], [UNINIT; 48]);
        let own_o1 = fast_expansion_sum_zeroelim(own, o1, &mut s32);
        self.add(fast_expansion_sum_zeroelim(o2, own_o1, &mut s48));
    }

    /// Adds the remaining terms of the tail `t` of the rounded difference
    /// `r` whose row has minor `m`: the lift's `2rt + t^2` against the
    /// minor's tail terms `mt` (first order) and `mtt` (second order), and
    /// `t^2 * m`. `cross` lists the other rows' products of `t` with a tail
    /// in their minors, as `(lift, ±t, tail)`.
    fn add_second_order(
        &mut self,
        t: f64,
        r: f64,
        m: &[f64],
        mt: &[f64],
        mtt: &[f64],
        cross: &[(&[f64], f64, f64)],
    ) {
        let (mut tm, mut ttm) = ([UNINIT; 8], [UNINIT; 16]);
        let ttm = scale_expansion(scale_expansion(m, t, &mut tm), t, &mut ttm);
        let (mut tmt, mut rtmt) = ([UNINIT; 16], [UNINIT; 32]);
        let tmt = scale_expansion(mt, t, &mut tmt);
        let rtmt = scale_expansion(tmt, 2.0 * r, &mut rtmt);
        self.add(fast_expansion_sum_zeroelim(ttm, rtmt, &mut [UNINIT; 48]));

        for &(lift, s, tail) in cross {
            if tail != 0.0 {
                let (mut ls, mut lst) = ([UNINIT; 8], [UNINIT; 16]);
                self.add(scale_expansion(
                    scale_expansion(lift, s, &mut ls),
                    tail,
                    &mut lst,
                ));
            }
        }

        let mut ttmt = [UNINIT; 32];
        let ttmt = scale_expansion(tmt, t, &mut ttmt);
        let mut tmtt = [UNINIT; 8];
        let tmtt = scale_expansion(mtt, t, &mut tmtt);
        let (mut rtmtt, mut ttmtt) = ([UNINIT; 16], [UNINIT; 16]);
        let rtmtt = scale_expansion(tmtt, 2.0 * r, &mut rtmtt);
        let ttmtt = scale_expansion(tmtt, t, &mut ttmtt);
        let mut s32 = [UNINIT; 32];
        let tmtt_terms = fast_expansion_sum_zeroelim(rtmtt, ttmtt, &mut s32);
        self.add(fast_expansion_sum_zeroelim(
            ttmt,
            tmtt_terms,
            &mut [UNINIT; 64],
        ));
    }
}

/// Stages B-D of Shewchuk's adaptive `incircle` (his `incircleadapt`).
/// Stage B evaluates the determinant of the rounded differences exactly;
/// stage C adds a first-order tail correction; stage D adds every
/// remaining tail product to stage B's expansion and returns its largest
/// component, which carries the exact sign (exactly `0.0` for zero).
#[cold]
fn incircle_adapt(a: Point2, b: Point2, c: Point2, d: Point2, permanent: f64) -> f64 {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;

    // Stage B: adet = (adx^2 + ady^2) * (bdx*cdy - cdx*bdy), exactly;
    // likewise for the b and c rows by symmetric rotation.
    let bc = minor(bdx, bdy, cdx, cdy);
    let ca = minor(cdx, cdy, adx, ady);
    let ab = minor(adx, ady, bdx, bdy);
    let (mut adet, mut bdet, mut cdet) = ([UNINIT; 32], [UNINIT; 32], [UNINIT; 32]);
    let adet = lift_minor(bc.get(), adx, ady, &mut adet);
    let bdet = lift_minor(ca.get(), bdx, bdy, &mut bdet);
    let cdet = lift_minor(ab.get(), cdx, cdy, &mut cdet);
    let mut abdet = [UNINIT; 64];
    let abdet = fast_expansion_sum_zeroelim(adet, bdet, &mut abdet);
    let (mut fin1, mut fin2) = ([UNINIT; FIN_LEN], [UNINIT; FIN_LEN]);
    let len = fast_expansion_sum_zeroelim(abdet, cdet, &mut fin1).len();
    let mut fin = Fin {
        now: &mut fin1,
        other: &mut fin2,
        len,
    };

    let mut det = estimate(fin.value());
    let errbound = ICC_ERR_BOUND_B * permanent;
    if det >= errbound || -det >= errbound {
        bump!(INCIRCLE_B);
        return det;
    }

    // Stage C: first-order correction with the difference tails.
    let adxtail = two_diff_tail(a.x, d.x, adx);
    let adytail = two_diff_tail(a.y, d.y, ady);
    let bdxtail = two_diff_tail(b.x, d.x, bdx);
    let bdytail = two_diff_tail(b.y, d.y, bdy);
    let cdxtail = two_diff_tail(c.x, d.x, cdx);
    let cdytail = two_diff_tail(c.y, d.y, cdy);
    if adxtail == 0.0
        && bdxtail == 0.0
        && cdxtail == 0.0
        && adytail == 0.0
        && bdytail == 0.0
        && cdytail == 0.0
    {
        // The differences were exact: stage B's value is the exact sign.
        bump!(INCIRCLE_B);
        return det;
    }
    let errbound = ICC_ERR_BOUND_C * permanent + RESULT_ERR_BOUND * det.abs();
    det += ((adx * adx + ady * ady)
        * ((bdx * cdytail + cdy * bdxtail) - (bdy * cdxtail + cdx * bdytail))
        + 2.0 * (adx * adxtail + ady * adytail) * (bdx * cdy - bdy * cdx))
        + ((bdx * bdx + bdy * bdy)
            * ((cdx * adytail + ady * cdxtail) - (cdy * adxtail + adx * cdytail))
            + 2.0 * (bdx * bdxtail + bdy * bdytail) * (cdx * ady - cdy * adx))
        + ((cdx * cdx + cdy * cdy)
            * ((adx * bdytail + bdy * adxtail) - (ady * bdxtail + bdx * adytail))
            + 2.0 * (cdx * cdxtail + cdy * cdytail) * (adx * bdy - ady * bdx));
    if det >= errbound || -det >= errbound {
        bump!(INCIRCLE_C);
        return det;
    }

    // Stage D: the exact determinant is stage B's plus every product that
    // involves a tail. Rows are indexed a, b, c = 0, 1, 2; row k's minor
    // pairs rows n = k + 1 and p = k + 2 (mod 3), so the loops below visit
    // Shewchuk's blocks in his order.
    bump!(INCIRCLE_EXACT);
    let dx = [adx, bdx, cdx];
    let dy = [ady, bdy, cdy];
    let tx = [adxtail, bdxtail, cdxtail];
    let ty = [adytail, bdytail, cdytail];
    let m = [bc, ca, ab];
    let lift: [Four; 3] = std::array::from_fn(|k| {
        let (xx1, xx0) = two_product(dx[k], dx[k]);
        let (yy1, yy0) = two_product(dy[k], dy[k]);
        Four::new(two_two_sum(xx1, xx0, yy1, yy0))
    });
    for k in 0..3 {
        let (n, p) = ((k + 1) % 3, (k + 2) % 3);
        if tx[k] != 0.0 {
            fin.add_first_order(
                tx[k],
                dx[k],
                m[k].get(),
                [(lift[p].get(), dy[n]), (lift[n].get(), -dy[p])],
            );
        }
        if ty[k] != 0.0 {
            fin.add_first_order(
                ty[k],
                dy[k],
                m[k].get(),
                [(lift[n].get(), dx[p]), (lift[p].get(), -dx[n])],
            );
        }
    }
    for k in 0..3 {
        if tx[k] == 0.0 && ty[k] == 0.0 {
            continue;
        }
        let (n, p) = ((k + 1) % 3, (k + 2) % 3);
        // The tail terms of row k's minor dx[n]*dy[p] - dx[p]*dy[n]: `mt`
        // is linear in the tails, `mtt` their product.
        let mut mt = [UNINIT; 8];
        let mtt;
        let (mt, mtt): (&[f64], &[f64]) =
            if tx[n] != 0.0 || ty[n] != 0.0 || tx[p] != 0.0 || ty[p] != 0.0 {
                let (i1, i0) = two_product(tx[n], dy[p]);
                let (j1, j0) = two_product(dx[n], ty[p]);
                let u = Four::new(two_two_sum(i1, i0, j1, j0));
                let (i1, i0) = two_product(tx[p], -dy[n]);
                let (j1, j0) = two_product(dx[p], -ty[n]);
                let v = Four::new(two_two_sum(i1, i0, j1, j0));
                let (i1, i0) = two_product(tx[n], ty[p]);
                let (j1, j0) = two_product(tx[p], ty[n]);
                mtt = Four::new(two_two_diff(i1, i0, j1, j0));
                (
                    fast_expansion_sum_zeroelim(u.get(), v.get(), &mut mt),
                    mtt.get(),
                )
            } else {
                (&[0.0], &[0.0])
            };
        if tx[k] != 0.0 {
            let cross = [
                (lift[p].get(), tx[k], ty[n]),
                (lift[n].get(), -tx[k], ty[p]),
            ];
            fin.add_second_order(tx[k], dx[k], m[k].get(), mt, mtt, &cross);
        }
        if ty[k] != 0.0 {
            fin.add_second_order(ty[k], dy[k], m[k].get(), mt, mtt, &[]);
        }
    }
    let v = fin.value();
    // `+ 0.0` turns a zero sum's -0.0 into 0.0 and changes no other value.
    v[v.len() - 1] + 0.0
}

/// Fully exact `incircle` via the heap [`Expansion`]: the reference stage
/// D is held to in the tests.
///
/// The differences `a - d` etc. are captured exactly with `two_diff` (each
/// becomes a <=2-component expansion); all subsequent products and sums use
/// exact expansion arithmetic, so the returned sign is exact.
#[cfg(test)]
fn incircle_exact(a: Point2, b: Point2, c: Point2, d: Point2) -> f64 {
    let exp_diff = |p: f64, q: f64| {
        let (hi, lo) = two_diff(p, q);
        Expansion::from_f64(lo).add(&Expansion::from_f64(hi))
    };
    let adx = exp_diff(a.x, d.x);
    let ady = exp_diff(a.y, d.y);
    let bdx = exp_diff(b.x, d.x);
    let bdy = exp_diff(b.y, d.y);
    let cdx = exp_diff(c.x, d.x);
    let cdy = exp_diff(c.y, d.y);

    let alift = adx.mul(&adx).add(&ady.mul(&ady));
    let blift = bdx.mul(&bdx).add(&bdy.mul(&bdy));
    let clift = cdx.mul(&cdx).add(&cdy.mul(&cdy));

    let bc = bdx.mul(&cdy).sub(&cdx.mul(&bdy));
    let ca = cdx.mul(&ady).sub(&adx.mul(&cdy));
    let ab = adx.mul(&bdy).sub(&bdx.mul(&ady));

    let det = alift.mul(&bc).add(&blift.mul(&ca)).add(&clift.mul(&ab));
    let s = det.sign();
    if s == 0.0 {
        0.0
    } else {
        let approx = det.approx();
        if approx != 0.0 && approx.signum() == s {
            approx
        } else {
            s * f64::MIN_POSITIVE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orient_basic() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        assert!(orient2d(a, b, c) > 0.0);
        assert!(orient2d(a, c, b) < 0.0);
    }

    #[test]
    fn orient_collinear_exact() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 1.0);
        let c = Point2::new(2.0, 2.0);
        assert_eq!(orient2d(a, b, c), 0.0);
    }

    #[test]
    fn orient_nearly_collinear_is_decided_exactly() {
        // Classic adversarial case: points on a line y = x with a tiny
        // perturbation below the rounding noise of the naive formula.
        let a = Point2::new(0.5, 0.5);
        let b = Point2::new(12.0, 12.0);
        // c is *exactly* on the line a-b.
        let c = Point2::new(24.0, 24.0);
        assert_eq!(orient2d(a, b, c), 0.0);
        // Nudge c by one ulp in y: orientation must become definite and
        // consistent with the direction of the nudge.
        let c_up = Point2::new(24.0, f64::from_bits(24.0f64.to_bits() + 1));
        let c_dn = Point2::new(24.0, f64::from_bits(24.0f64.to_bits() - 1));
        assert!(orient2d(a, b, c_up) > 0.0);
        assert!(orient2d(a, b, c_dn) < 0.0);
    }

    #[test]
    fn orient_antisymmetry_under_swap() {
        let a = Point2::new(1e-12, 1e-12);
        let b = Point2::new(1.0, 1.0 + 1e-15);
        let c = Point2::new(2.0, 2.0);
        let d1 = orient2d(a, b, c);
        let d2 = orient2d(b, a, c);
        assert_eq!(d1 > 0.0, d2 < 0.0);
    }

    #[test]
    fn incircle_basic() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        // Inside the circumcircle (center (0.5, 0.5), r = sqrt(0.5)).
        assert!(incircle(a, b, c, Point2::new(0.5, 0.5)) > 0.0);
        // Far outside.
        assert!(incircle(a, b, c, Point2::new(5.0, 5.0)) < 0.0);
        // Exactly on the circle: (1, 1) is concyclic with the unit right
        // triangle.
        assert_eq!(incircle(a, b, c, Point2::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn incircle_orientation_flip() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        let inside = Point2::new(0.4, 0.4);
        let pos = incircle(a, b, c, inside);
        let neg = incircle(a, c, b, inside);
        assert!(pos > 0.0);
        assert!(neg < 0.0);
    }

    #[test]
    fn incircle_cocircular_grid_points() {
        // Four corners of a square are exactly cocircular.
        let a = Point2::new(-1.0, -1.0);
        let b = Point2::new(1.0, -1.0);
        let c = Point2::new(1.0, 1.0);
        let d = Point2::new(-1.0, 1.0);
        assert_eq!(incircle(a, b, c, d), 0.0);
    }

    #[test]
    fn incircle_near_degenerate_decided_exactly() {
        // Square corners with the query point nudged by one ulp: the sign
        // must follow the nudge.
        let a = Point2::new(-1.0, -1.0);
        let b = Point2::new(1.0, -1.0);
        let c = Point2::new(1.0, 1.0);
        let inward = Point2::new(-1.0 + f64::EPSILON, 1.0 - f64::EPSILON);
        let outward = Point2::new(-1.0 - f64::EPSILON, 1.0 + f64::EPSILON);
        assert!(incircle(a, b, c, inward) > 0.0);
        assert!(incircle(a, b, c, outward) < 0.0);
    }

    #[test]
    fn orient_translation_invariance_of_sign() {
        // The adaptive predicate must give the same sign after a large
        // translation that destroys naive precision.
        let t = 1e6;
        let a = Point2::new(0.0 + t, 0.0 + t);
        let b = Point2::new(1.0 + t, 1.0 + t);
        let c = Point2::new(2.0 + t, 2.0 + t);
        assert_eq!(orient2d(a, b, c), 0.0);
    }

    #[test]
    fn ladder_matches_exact_reference_on_adversarial_inputs() {
        // Grid points scaled into ranges that force every rung of the
        // ladder: the adaptive result must agree in sign with the fully
        // exact expansion evaluation.
        let mut pts = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let x = (i as f64) * (1.0 / 3.0) + 1.0e6;
                let y = (j as f64) * (1.0 / 3.0) + 1.0e6;
                pts.push(Point2::new(x, y));
            }
        }
        for &a in &pts[..12] {
            for &b in &pts[12..24] {
                for &c in &pts[24..] {
                    let fast = orient2d(a, b, c);
                    let exact = orient2d_exact(a, b, c);
                    assert_eq!(
                        fast.partial_cmp(&0.0),
                        exact.partial_cmp(&0.0),
                        "orient2d sign mismatch at {a:?} {b:?} {c:?}"
                    );
                    if orient2d(a, b, c) != 0.0 {
                        for &d in pts.iter().step_by(7) {
                            let (p, q, r) = if exact > 0.0 { (a, b, c) } else { (a, c, b) };
                            let fast = incircle(p, q, r, d);
                            let exact = incircle_exact(p, q, r, d);
                            assert_eq!(
                                fast.partial_cmp(&0.0),
                                exact.partial_cmp(&0.0),
                                "incircle sign mismatch at {p:?} {q:?} {r:?} {d:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Stage-D quadruples met while the `bl_heavy` benchmark workload's 64
    /// boundary-layer leaves are triangulated (every 797th of the 28,301
    /// calls that reach stage D), as the bits of `a.x a.y b.x b.y c.x c.y
    /// d.x d.y`. Each is an exactly cocircular isosceles trapezoid.
    const BL_HEAVY_STAGE_D: &str = "\
3feff15c983f2a34 bf5a784c2e836a95 3feff15c983f2a34 3f5a784c2e836a95 3fefef8967493626 3f5cf12ca3d72c0e 3fefef8967493626 bf5cf12ca3d72c0e
3feff686cd6c4cad 3f2756dd511838f0 3feff686cd6c4cad bf2756dd511838f0 3feff68a0e33338c bf28bd7ec094131b 3feff68a0e33338c 3f28bd7ec094131b
3fef8212aace62f8 3f62dc68cc5f97d6 3fef8212aace62f8 bf62dc68cc5f97d6 3fef8217bcc0b077 bf62fffdd0892899 3fef8217bcc0b077 3f62fffdd0892899
3fef1d1346e08e99 3f7381eeee8fe0e3 3fef1d1346e08e99 bf7381eeee8fe0e3 3fef1d28d1e6ea10 bf73cebcf17cf19a 3fef1d28d1e6ea10 3f73cebcf17cf19a
3fe539841b45e168 bfa4d37628df2442 3fe539928b9355e3 bfa4dd1d3038c151 3fe539841b45e168 3fa4d37628df2442 3fe539928b9355e3 3fa4dd1d3038c151
3fe620f658dfb07c 3fa3fe6c5be0d923 3fe620f658dfb07c bfa3fe6c5be0d923 3fe62116ec012c18 bfa41340fa8aa6cc 3fe62116ec012c18 3fa41340fa8aa6cc
3fe48b647b2720f5 3fa575d8b88f7d0b 3fe48b67b58f987a bfa5781575f0242c 3fe48b67b58f987a 3fa5781575f0242c 3fe48b647b2720f5 bfa575d8b88f7d0b
3fe2f5099de6bf8f 3fa7a5c5249162b8 3fe2f5099de6bf8f bfa7a5c5249162b8 3fe2f50c8d2bc07a bfa7a8024965d845 3fe2f50c8d2bc07a 3fa7a8024965d845
3fe3db7c268c3948 3fa66ac8530395b7 3fe3db7c268c3948 bfa66ac8530395b7 3fe3db7ecff48f24 bfa66cb38191512a 3fe3db7ecff48f24 3fa66cb38191512a
3fe22be417929cb2 3fa89aa756592d01 3fe22be417929cb2 bfa89aa756592d01 3fe236835e3dd8a6 bfa88d7605c322dc 3fe236835e3dd8a6 3fa88d7605c322dc
3fe0964cc5e92175 3faaa3c0bd72ff3b 3fe0964cc5e92175 bfaaa3c0bd72ff3b 3fe096526f45bb5e bfaaa8fa84aea5c8 3fe096526f45bb5e 3faaa8fa84aea5c8
3fe176cbef291973 3fa9767deda91d93 3fe176cbef291973 bfa9767deda91d93 3fe176cd96fc1dfa bfa977e758c8c034 3fe176cd96fc1dfa 3fa977e758c8c034
3fdf96d67a2e15c4 bfac505dfd430716 3fdf96d67a2e15c4 3fac505dfd430716 3fdf96acda448409 3fac3b7a515591bf 3fdf96acda448409 bfac3b7a515591bf
3fdc52c5b4439d53 3facf3efbcb220fb 3fdc52c5b4439d53 bfacf3efbcb220fb 3fdc52ceb2d88887 bfacf9960ea7cb40 3fdc52ceb2d88887 3facf9960ea7cb40
3fde01cc9bbbf827 3fae58cce42f4c77 3fde01cc9bbbf827 bfae58cce42f4c77 3fde02248f73de33 bfae89860d3a6c4c 3fde02248f73de33 3fae89860d3a6c4c
3fdabf984fd01489 3fadc5c3b4608d28 3fdabfa6ad4b6718 bfadd03996a59633 3fdabfa6ad4b6718 3fadd03996a59633 3fdabf984fd01489 bfadc5c3b4608d28
3fd7a32ecee206f0 3fae5cf9e59b295f 3fd7a32ecee206f0 bfae5cf9e59b295f 3fd7a332c541e5cb bfae617703ee4946 3fd7a332c541e5cb 3fae617703ee4946
3fd958ee7841d597 3fade4c690205b7d 3fd958ee7841d597 bfade4c690205b7d 3fd958f2f1b3d06d bfade89f78ac834c 3fd958f2f1b3d06d 3fade89f78ac834c
3fd61e51ac310165 bfb0b711fb1322bd 3fd61e770d51de7b bfb0d5cd584ec616 3fd61e51ac310165 3fb0b711fb1322bd 3fd61e770d51de7b 3fb0d5cd584ec616
3fd2fc005b681070 3faf01b087cb2b0b 3fd2fc00a2f0e5da bfaefb1775261176 3fd2fc00a2f0e5da 3faefb1775261176 3fd2fc005b681070 bfaf01b087cb2b0b
3fd4c4686855ca33 bfaea8a95452c98b 3fd4c468e514cd52 bfaeaa13b23fc4ce 3fd4c4686855ca33 3faea8a95452c98b 3fd4c468e514cd52 3faeaa13b23fc4ce
3fd19e8db3d43a5e bfb02b979b40f9dd 3fd19e8db3d43a5e 3fb02b979b40f9dd 3fd19e8069747b1c 3fb03d86a8b7931c 3fd19e8069747b1c bfb03d86a8b7931c
3fcd486e6928a38a 3fae291588baef43 3fcd486e6928a38a bfae291588baef43 3fcd48754505b807 bfae2641a387cd86 3fcd48754505b807 3fae2641a387cd86
3fd0361f39231710 3fb063779392a6ae 3fd03640cfdc5b21 bfb04ce1586cdcad 3fd03640cfdc5b21 3fb04ce1586cdcad 3fd0361f39231710 bfb063779392a6ae
3fcaa5a6009dcfde 3fae17c9e3e56edf 3fcaa5c89602d1c8 bfae0d551d1b85aa 3fcaa5c89602d1c8 3fae0d551d1b85aa 3fcaa5a6009dcfde bfae17c9e3e56edf
3fc54039e572ff76 bfae7677650813f6 3fc541306cf101de bfae4971eb915c69 3fc54039e572ff76 3fae7677650813f6 3fc541306cf101de 3fae4971eb915c69
3fc7da58cffdbcde 3facfd826981d9d0 3fc7da629a83b397 bfacfb44aeee6231 3fc7da629a83b397 3facfb44aeee6231 3fc7da58cffdbcde bfacfd826981d9d0
3fc2a7ab9b527693 3fae98b512517241 3fc2a7ab9b527693 bfae98b512517241 3fc2a969a7f1e517 bfae56ae671ee726 3fc2a969a7f1e517 3fae56ae671ee726
3fbbaa5b2adfb5c7 3fa8eea0a7af61dd 3fbbaa5b2adfb5c7 bfa8eea0a7af61dd 3fbbaadcc0f806c5 bfa8e81b953c0c92 3fbbaadcc0f806c5 3fa8e81b953c0c92
3fc052c3510abf01 3faa29705f4bfb4f 3fc052de17b4ba14 bfaa262a3aeb0cf2 3fc052de17b4ba14 3faa262a3aeb0cf2 3fc052c3510abf01 bfaa29705f4bfb4f
3fb7a8a40078bc6e 3fa7597b846a3c47 3fb7a8d7a25ed09e bfa75745cd08347e 3fb7a8d7a25ed09e 3fa75745cd08347e 3fb7a8a40078bc6e bfa7597b846a3c47
3fafe9669a886598 3fa447e69848e293 3fafe9669a886598 bfa447e69848e293 3fafeb2b89abf2c8 bfa440ff84da99d6 3fafeb2b89abf2c8 3fa440ff84da99d6
3fa09c64bf3736e1 bf9f01bc72a1abda 3fa09c64bf3736e1 3f9f01bc72a1abda 3fa098c458390fff 3f9f13b7ac6ac6ad 3fa098c458390fff bf9f13b7ac6ac6ad
3fabb2a8f4ab5dbc bfa3982c264ab912 3fabb2a8f4ab5dbc 3fa3982c264ab912 3fabae1d4e6528fb 3fa3a82740e3a9cf 3fabae1d4e6528fb bfa3a82740e3a9cf
3f9d57ea9b35348c 3f9c8d9ce59f4ca7 3f9d57ea9b35348c bf9c8d9ce59f4ca7 3f9d5959619e22e6 bf9c8a58cc5efe8c 3f9d5959619e22e6 3f9c8a58cc5efe8c
3f4adb4c391ac835 bf74c3f0d4b3809f 3f4adb4c391ac835 3f74c3f0d4b3809f 3f4a854cd283e2ab 3f74c780cf6016a6 3f4a854cd283e2ab bf74c780cf6016a6";

    fn bl_heavy_quadruples() -> Vec<[Point2; 4]> {
        BL_HEAVY_STAGE_D
            .lines()
            .map(|line| {
                let v: Vec<f64> = line
                    .split_whitespace()
                    .map(|h| f64::from_bits(u64::from_str_radix(h, 16).unwrap()))
                    .collect();
                std::array::from_fn(|k| Point2::new(v[2 * k], v[2 * k + 1]))
            })
            .collect()
    }

    /// Holds the ladder to the heap-expansion oracle on every cyclic
    /// rotation of `q`: the same sign, and `0.0` exactly when the oracle's
    /// determinant is zero.
    fn assert_matches_oracle(q: [Point2; 4]) {
        for r in 0..4 {
            let [a, b, c, d] = std::array::from_fn(|k| q[(k + r) % 4]);
            let got = incircle(a, b, c, d);
            let want = incircle_exact(a, b, c, d);
            assert_eq!(
                got.partial_cmp(&0.0),
                want.partial_cmp(&0.0),
                "incircle({a:?}, {b:?}, {c:?}, {d:?}) = {got:e}, exactly {want:e}"
            );
        }
    }

    /// Holds `orient2d` to the heap-expansion oracle: the same sign, and
    /// `0.0` exactly when the oracle's determinant is zero.
    fn assert_orient_matches_oracle([a, b, c]: [Point2; 3]) {
        let (got, want) = (orient2d(a, b, c), orient2d_exact(a, b, c));
        assert_eq!(
            got.partial_cmp(&0.0),
            want.partial_cmp(&0.0),
            "orient2d({a:?}, {b:?}, {c:?}) = {got:e}, exactly {want:e}"
        );
    }

    /// `x` moved by `ulps` units in the last place (toward larger
    /// magnitude for positive `ulps`).
    fn nudged(x: f64, ulps: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
    }

    #[test]
    fn bl_heavy_stage_d_quadruples_are_exact_zeros() {
        let quads = bl_heavy_quadruples();
        assert!(quads.len() >= 32);
        for q in quads {
            assert_matches_oracle(q);
            let [a, b, c, d] = q;
            assert_eq!(incircle(a, b, c, d), 0.0, "{q:?}");
            for k in 0..4 {
                for ulps in [-1, 1] {
                    let mut n = q;
                    n[k] = Point2::new(nudged(n[k].x, ulps), n[k].y);
                    assert_matches_oracle(n);
                    n = q;
                    n[k] = Point2::new(n[k].x, nudged(n[k].y, ulps));
                    assert_matches_oracle(n);
                }
            }
        }
    }

    #[test]
    fn inexact_cocircular_rectangle_is_an_exact_zero() {
        let rect = [
            Point2::new(0.1, 0.3),
            Point2::new(0.7, 0.3),
            Point2::new(0.7, 1.9),
            Point2::new(0.1, 1.9),
        ];
        // Its differences round: the ladder reaches stage D.
        assert_ne!(two_diff_tail(0.3, 1.9, 0.3 - 1.9), 0.0);
        assert_eq!(incircle(rect[0], rect[1], rect[2], rect[3]), 0.0);
        assert_matches_oracle(rect);
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        /// Doubles of either sign with exponents across 2^-40..2^40 and
        /// random mantissas: no product in the determinant over- or
        /// underflows.
        fn double() -> impl Strategy<Value = f64> {
            (any::<bool>(), -40i32..40, 0u64..1 << 52).prop_map(|(neg, e, m)| {
                let v = f64::from_bits(((1023 + e) as u64) << 52 | m);
                if neg {
                    -v
                } else {
                    v
                }
            })
        }

        fn point() -> impl Strategy<Value = Point2> {
            prop_oneof![
                (double(), double()).prop_map(|(x, y)| Point2::new(x, y)),
                (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point2::new(x, y)),
            ]
        }

        /// A square on the integer lattice, rotated by its lattice offset
        /// `(u, v)` about `(cx, cy)`: exactly cocircular, with exact
        /// differences.
        fn lattice_square() -> impl Strategy<Value = [Point2; 4]> {
            let r = 1i64 << 20;
            (-r..r, -r..r, -r..r, -r..r).prop_map(|(cx, cy, u, v)| {
                let p = |x: i64, y: i64| Point2::new(x as f64, y as f64);
                [
                    p(cx + u, cy + v),
                    p(cx - v, cy + u),
                    p(cx - u, cy - v),
                    p(cx + v, cy - u),
                ]
            })
        }

        /// Float rectangles, and isosceles trapezoids mirrored in an axis,
        /// with non-dyadic coordinates: exact zeros whose differences
        /// round, so they reach stage D.
        fn inexact_cocircular() -> impl Strategy<Value = [Point2; 4]> {
            let c = || -10.0f64..10.0;
            prop_oneof![
                (c(), c(), c(), c()).prop_map(|(x0, y0, x1, y1)| [
                    Point2::new(x0, y0),
                    Point2::new(x1, y0),
                    Point2::new(x1, y1),
                    Point2::new(x0, y1),
                ]),
                (c(), c(), c(), c()).prop_map(|(x0, y0, x1, y1)| [
                    Point2::new(x0, -y0),
                    Point2::new(x0, y0),
                    Point2::new(x1, y1),
                    Point2::new(x1, -y1),
                ]),
                (c(), c(), c(), c()).prop_map(|(x0, y0, x1, y1)| [
                    Point2::new(-x0, y0),
                    Point2::new(x0, y0),
                    Point2::new(x1, y1),
                    Point2::new(-x1, y1),
                ]),
            ]
        }

        /// Perturbations from exactly degenerate down to sub-ulp: zero
        /// keeps the configuration degenerate, the tiny magnitudes land
        /// inside stage A's uncertainty band.
        fn eps() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(0.0),
                -1e-9f64..1e-9,
                -1e-14f64..1e-14,
                -1e-18f64..1e-18,
            ]
        }

        /// A triple collinear up to `e`: `c = a + t (b - a)` plus a normal
        /// offset of size `e`.
        fn near_collinear() -> impl Strategy<Value = [Point2; 3]> {
            let c = || -50.0f64..50.0;
            (c(), c(), c(), c(), -2.0f64..3.0, eps()).prop_map(|(ax, ay, bx, by, t, e)| {
                let (dx, dy) = (bx - ax, by - ay);
                [
                    Point2::new(ax, ay),
                    Point2::new(bx, by),
                    Point2::new(ax + t * dx - e * dy, ay + t * dy + e * dx),
                ]
            })
        }

        /// Three counter-clockwise points on a circle and a fourth on it
        /// up to a relative radius error `e`.
        fn near_cocircular() -> impl Strategy<Value = [Point2; 4]> {
            let circle = (-20.0f64..20.0, -20.0f64..20.0, 0.1f64..30.0);
            let turns = (0.0f64..1.0, 0.3f64..1.0, 0.1f64..0.9);
            (circle, turns, eps()).prop_map(|((cx, cy, r), (t0, f1, f2), e)| {
                let at = |turn: f64, rr: f64| {
                    let (s, c) = (std::f64::consts::TAU * turn).sin_cos();
                    Point2::new(cx + rr * c, cy + rr * s)
                };
                [
                    at(t0, r),
                    at(t0 + 0.4 * f1, r),
                    at(t0 + 0.4 + 0.5 * f2, r),
                    at(t0 + 0.93, r * (1.0 + e)),
                ]
            })
        }

        /// `2^-280`: it takes `near_collinear`'s coordinates to where
        /// `detleft` and `detright` are normal but their product
        /// underflows to zero, so stage A must compare their signs.
        const TINY: f64 = f64::from_bits((1023 - 280) << 52);

        /// Moves one coordinate of `q` by one ulp either way.
        fn nudge(q: [Point2; 4], which: usize, up: bool) -> [Point2; 4] {
            let mut n = q;
            let k = which % 4;
            let ulps = if up { 1 } else { -1 };
            n[k] = if which < 4 {
                Point2::new(nudged(n[k].x, ulps), n[k].y)
            } else {
                Point2::new(n[k].x, nudged(n[k].y, ulps))
            };
            n
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn random_doubles(a in point(), b in point(), c in point(), d in point()) {
                assert_matches_oracle([a, b, c, d]);
            }

            #[test]
            fn lattice_squares(q in lattice_square(), which in 0usize..8, up in any::<bool>()) {
                assert_matches_oracle(q);
                assert_matches_oracle(nudge(q, which, up));
            }

            #[test]
            fn near_collinear_triples(t in near_collinear()) {
                assert_orient_matches_oracle(t);
            }

            #[test]
            fn subnormal_product_triples(t in near_collinear()) {
                let [a, b, c] = t.map(|p| Point2::new(p.x * TINY, p.y * TINY));
                let detleft = (a.x - c.x) * (b.y - c.y);
                let detright = (a.y - c.y) * (b.x - c.x);
                prop_assert_eq!(detleft * detright, 0.0);
                assert_orient_matches_oracle([a, b, c]);
            }

            #[test]
            fn near_cocircular_quadruples(q in near_cocircular()) {
                assert_matches_oracle(q);
            }

            #[test]
            fn repeated_points_are_exact_zeros(x in -50.0f64..50.0, y in -50.0f64..50.0) {
                let (p, q) = (Point2::new(x, y), Point2::new(x + 1.0, y - 2.0));
                for [a, b, c] in [[p, p, q], [p, q, p], [q, p, p]] {
                    prop_assert_eq!(orient2d(a, b, c), 0.0);
                    prop_assert_eq!(incircle(a, b, c, q), 0.0);
                }
            }

            #[test]
            fn rectangles_and_trapezoids(q in inexact_cocircular(), which in 0usize..8, up in any::<bool>()) {
                assert_matches_oracle(q);
                assert_matches_oracle(nudge(q, which, up));
            }
        }
    }

    #[test]
    fn incircle_on_perturbed_circle_many_angles() {
        // Points near the unit circle: strictly-inside and strictly-outside
        // queries must be classified correctly at 1e-9 perturbations.
        let a = Point2::new(1.0, 0.0);
        let b = Point2::new(0.0, 1.0);
        let c = Point2::new(-1.0, 0.0);
        for k in 0..32 {
            let theta = 0.1 + (k as f64) * 0.19;
            let (s, co) = theta.sin_cos();
            let inside = Point2::new(co * (1.0 - 1e-9), s * (1.0 - 1e-9));
            let outside = Point2::new(co * (1.0 + 1e-9), s * (1.0 + 1e-9));
            assert!(incircle(a, b, c, inside) > 0.0, "k={k}");
            assert!(incircle(a, b, c, outside) < 0.0, "k={k}");
        }
    }
}
