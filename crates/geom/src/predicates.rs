//! Robust adaptive geometric predicates.
//!
//! `orient2d` and `incircle` are the two predicates every Delaunay algorithm
//! stands on. Both walk Shewchuk's adaptive ladder: a cheap floating-point
//! filter (stage A), then progressively tighter semi-static stages (B, C)
//! that reuse work from the previous rung, and only when every filter fails
//! a fully exact evaluation with floating-point expansions from
//! [`crate::expansion`]. The result is therefore always the sign of the
//! exact real-arithmetic determinant, and near-degenerate — but not exactly
//! degenerate — inputs are usually resolved without heap allocation.
//!
//! Build with the `predicate-stats` feature to count how often each rung of
//! the ladder settles the sign (see the `stats` module).

use crate::expansion::{
    estimate, fast_expansion_sum_zeroelim, scale_expansion, two_diff, two_diff_tail, two_product,
    two_two_diff, Expansion,
};
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

    /// Lanes evaluated through [`crate::predicates::orient2d_batch`] /
    /// [`crate::predicates::incircle_batch`], and how many of those lanes
    /// the vectorizable stage-A filter could *not* certify (each fallback
    /// also bumps the scalar ladder counters above as usual).
    pub static ORIENT_BATCH: AtomicU64 = AtomicU64::new(0);
    pub static ORIENT_BATCH_FALLBACK: AtomicU64 = AtomicU64::new(0);
    pub static INCIRCLE_BATCH: AtomicU64 = AtomicU64::new(0);
    pub static INCIRCLE_BATCH_FALLBACK: AtomicU64 = AtomicU64::new(0);

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

    /// Snapshot of the batch counters as
    /// `(orient [lanes, fallbacks], incircle [lanes, fallbacks])`.
    pub fn batch_snapshot() -> ([u64; 2], [u64; 2]) {
        (
            [
                ORIENT_BATCH.load(Ordering::Relaxed),
                ORIENT_BATCH_FALLBACK.load(Ordering::Relaxed),
            ],
            [
                INCIRCLE_BATCH.load(Ordering::Relaxed),
                INCIRCLE_BATCH_FALLBACK.load(Ordering::Relaxed),
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
            &ORIENT_BATCH,
            &ORIENT_BATCH_FALLBACK,
            &INCIRCLE_BATCH,
            &INCIRCLE_BATCH_FALLBACK,
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
        let (orient_batch, incircle_batch) = batch_snapshot();
        for (name, v) in [
            ("geom.orient2d.stage_a", orient[0]),
            ("geom.orient2d.stage_b", orient[1]),
            ("geom.orient2d.stage_c", orient[2]),
            ("geom.orient2d.exact", orient[3]),
            ("geom.incircle.stage_a", incircle[0]),
            ("geom.incircle.stage_b", incircle[1]),
            ("geom.incircle.stage_c", incircle[2]),
            ("geom.incircle.exact", incircle[3]),
            ("geom.orient2d.batch", orient_batch[0]),
            ("geom.orient2d.batch_fallback", orient_batch[1]),
            ("geom.incircle.batch", incircle_batch[0]),
            ("geom.incircle.batch_fallback", incircle_batch[1]),
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

#[cfg(feature = "predicate-stats")]
macro_rules! bump_n {
    ($counter:ident, $n:expr) => {
        crate::predicates::stats::$counter
            .fetch_add($n as u64, std::sync::atomic::Ordering::Relaxed)
    };
}

#[cfg(not(feature = "predicate-stats"))]
macro_rules! bump_n {
    ($counter:ident, $n:expr) => {
        let _ = $n;
    };
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

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            bump!(ORIENT_A);
            return det;
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            bump!(ORIENT_A);
            return det;
        }
        -detleft - detright
    } else {
        bump!(ORIENT_A);
        return det;
    };

    let errbound = CCW_ERR_BOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        bump!(ORIENT_A);
        return det;
    }
    orient2d_adapt(a, b, c, detsum)
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
    let mut c1 = [0.0f64; 8];
    let c1len = fast_expansion_sum_zeroelim(&b_exp, &u, &mut c1);

    let (s1, s0) = two_product(acx, bcytail);
    let (t1, t0) = two_product(acy, bcxtail);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut c2 = [0.0f64; 12];
    let c2len = fast_expansion_sum_zeroelim(&c1[..c1len], &u, &mut c2);

    let (s1, s0) = two_product(acxtail, bcytail);
    let (t1, t0) = two_product(acytail, bcxtail);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut d_exp = [0.0f64; 16];
    let dlen = fast_expansion_sum_zeroelim(&c2[..c2len], &u, &mut d_exp);

    d_exp[dlen - 1]
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
    let errbound = ICC_ERR_BOUND_A * permanent;
    if det > errbound || -det > errbound {
        bump!(INCIRCLE_A);
        return det;
    }
    incircle_adapt(a, b, c, d, permanent)
}

/// Stages B-C of Shewchuk's adaptive `incircle`. Stage B evaluates the
/// determinant of the rounded differences exactly on the stack; stage C
/// adds a first-order tail correction. Genuinely degenerate input falls
/// through to [`incircle_exact`].
#[cold]
fn incircle_adapt(a: Point2, b: Point2, c: Point2, d: Point2, permanent: f64) -> f64 {
    let adx = a.x - d.x;
    let bdx = b.x - d.x;
    let cdx = c.x - d.x;
    let ady = a.y - d.y;
    let bdy = b.y - d.y;
    let cdy = c.y - d.y;

    // Stage B: lift each rounded difference pair exactly.
    // adet = (adx^2 + ady^2) * (bdx*cdy - cdx*bdy), exactly; likewise for
    // the b and c rows by symmetric rotation.
    let row = |px: f64, py: f64, qx: f64, qy: f64, rx: f64, ry: f64, out: &mut [f64; 32]| {
        let (qr1, qr0) = two_product(qx, ry);
        let (rq1, rq0) = two_product(rx, qy);
        let cross = two_two_diff(qr1, qr0, rq1, rq0);
        let mut px_cross = [0.0f64; 8];
        let nx = scale_expansion(&cross, px, &mut px_cross);
        let mut pxx_cross = [0.0f64; 16];
        let nxx = scale_expansion(&px_cross[..nx], px, &mut pxx_cross);
        let mut py_cross = [0.0f64; 8];
        let ny = scale_expansion(&cross, py, &mut py_cross);
        let mut pyy_cross = [0.0f64; 16];
        let nyy = scale_expansion(&py_cross[..ny], py, &mut pyy_cross);
        fast_expansion_sum_zeroelim(&pxx_cross[..nxx], &pyy_cross[..nyy], out)
    };
    let mut adet = [0.0f64; 32];
    let alen = row(adx, ady, bdx, bdy, cdx, cdy, &mut adet);
    let mut bdet = [0.0f64; 32];
    let blen = row(bdx, bdy, cdx, cdy, adx, ady, &mut bdet);
    let mut cdet = [0.0f64; 32];
    let clen = row(cdx, cdy, adx, ady, bdx, bdy, &mut cdet);

    let mut abdet = [0.0f64; 64];
    let ablen = fast_expansion_sum_zeroelim(&adet[..alen], &bdet[..blen], &mut abdet);
    let mut fin = [0.0f64; 96];
    let finlen = fast_expansion_sum_zeroelim(&abdet[..ablen], &cdet[..clen], &mut fin);

    let mut det = estimate(&fin[..finlen]);
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

    bump!(INCIRCLE_EXACT);
    incircle_exact(a, b, c, d)
}

/// Fully exact `incircle` via expansion arithmetic.
///
/// The differences `a - d` etc. are captured exactly with `two_diff` (each
/// becomes a <=2-component expansion); all subsequent products and sums use
/// exact expansion arithmetic, so the returned sign is exact.
fn incircle_exact(a: Point2, b: Point2, c: Point2, d: Point2) -> f64 {
    let exp_diff = |p: f64, q: f64| {
        let (hi, lo) = two_diff(p, q);
        let mut e = Expansion::from_f64(lo);
        e = e.add(&Expansion::from_f64(hi));
        e
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

/// Batched `orient2d` over coordinate lanes: `out[k] = orient2d(a_k, b_k, c_k)`
/// with `a_k = (ax[k], ay[k])` and so on. Returns the number of lanes the
/// stage-A filter could not certify (those fell back to the scalar ladder).
///
/// The first pass is straight-line branch-free arithmetic over all lanes —
/// the compiler auto-vectorizes it — recording an uncertified-lane mask. A
/// second pass replays only the masked lanes through [`orient2d`], so every
/// lane of `out` is **bit-identical** to the per-lane scalar call. Inputs
/// must be finite (no NaN/inf), which every mesh coordinate satisfies.
///
/// All seven slices must share one length; lane counts beyond 64 are
/// processed in 64-lane chunks. Inline so fixed-small-lane callers (the
/// point-location walk batches 3 edges at a time) compile to straight-line
/// code with the chunk machinery stripped.
#[inline]
pub fn orient2d_batch(
    ax: &[f64],
    ay: &[f64],
    bx: &[f64],
    by: &[f64],
    cx: &[f64],
    cy: &[f64],
    out: &mut [f64],
) -> usize {
    let n = out.len();
    assert!(
        ax.len() == n
            && ay.len() == n
            && bx.len() == n
            && by.len() == n
            && cx.len() == n
            && cy.len() == n,
        "orient2d_batch: slice length mismatch"
    );
    let mut fallbacks = 0usize;
    let mut k0 = 0usize;
    while k0 < n {
        let m = (n - k0).min(64);
        let mut mask = 0u64;
        for j in 0..m {
            let k = k0 + j;
            let detleft = (ax[k] - cx[k]) * (by[k] - cy[k]);
            let detright = (ay[k] - cy[k]) * (bx[k] - cx[k]);
            let det = detleft - detright;
            // Matches the scalar stage-A exactly: when the two products have
            // strictly the same sign, |detleft + detright| equals
            // |detleft| + |detright|, and the sign is certified iff
            // |det| >= errbound (mixed signs or a zero certify for free).
            // Signs are compared directly — a product of the two could
            // underflow to zero and falsely certify subnormal-range lanes.
            let detsum = detleft.abs() + detright.abs();
            let same_sign =
                ((detleft > 0.0) & (detright > 0.0)) | ((detleft < 0.0) & (detright < 0.0));
            let uncertified = same_sign & (det.abs() < CCW_ERR_BOUND_A * detsum);
            mask |= (uncertified as u64) << j;
            out[k] = det;
        }
        let mut mm = mask;
        while mm != 0 {
            let j = mm.trailing_zeros() as usize;
            mm &= mm - 1;
            let k = k0 + j;
            out[k] = orient2d(
                Point2::new(ax[k], ay[k]),
                Point2::new(bx[k], by[k]),
                Point2::new(cx[k], cy[k]),
            );
            fallbacks += 1;
        }
        k0 += m;
    }
    bump_n!(ORIENT_BATCH, n);
    bump_n!(ORIENT_BATCH_FALLBACK, fallbacks);
    fallbacks
}

/// Batched `incircle` over coordinate lanes:
/// `out[k] = incircle(a_k, b_k, c_k, d_k)`. Returns the number of lanes the
/// stage-A filter could not certify. Same contract as [`orient2d_batch`]:
/// pass 1 is branch-free and auto-vectorizable, pass 2 replays uncertified
/// lanes through the scalar adaptive ladder, and every lane of `out` is
/// bit-identical to the per-lane [`incircle`] call on finite inputs.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn incircle_batch(
    ax: &[f64],
    ay: &[f64],
    bx: &[f64],
    by: &[f64],
    cx: &[f64],
    cy: &[f64],
    dx: &[f64],
    dy: &[f64],
    out: &mut [f64],
) -> usize {
    let n = out.len();
    assert!(
        ax.len() == n
            && ay.len() == n
            && bx.len() == n
            && by.len() == n
            && cx.len() == n
            && cy.len() == n
            && dx.len() == n
            && dy.len() == n,
        "incircle_batch: slice length mismatch"
    );
    let mut fallbacks = 0usize;
    let mut k0 = 0usize;
    while k0 < n {
        let m = (n - k0).min(64);
        let mut mask = 0u64;
        for j in 0..m {
            let k = k0 + j;
            let adx = ax[k] - dx[k];
            let bdx = bx[k] - dx[k];
            let cdx = cx[k] - dx[k];
            let ady = ay[k] - dy[k];
            let bdy = by[k] - dy[k];
            let cdy = cy[k] - dy[k];

            let bdxcdy = bdx * cdy;
            let cdxbdy = cdx * bdy;
            let alift = adx * adx + ady * ady;

            let cdxady = cdx * ady;
            let adxcdy = adx * cdy;
            let blift = bdx * bdx + bdy * bdy;

            let adxbdy = adx * bdy;
            let bdxady = bdx * ady;
            let clift = cdx * cdx + cdy * cdy;

            let det =
                alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);
            let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
                + (cdxady.abs() + adxcdy.abs()) * blift
                + (adxbdy.abs() + bdxady.abs()) * clift;
            // Scalar stage A certifies on det > errbound || -det > errbound;
            // the complement (uncertified) is |det| <= errbound.
            let uncertified = det.abs() <= ICC_ERR_BOUND_A * permanent;
            mask |= (uncertified as u64) << j;
            out[k] = det;
        }
        let mut mm = mask;
        while mm != 0 {
            let j = mm.trailing_zeros() as usize;
            mm &= mm - 1;
            let k = k0 + j;
            out[k] = incircle(
                Point2::new(ax[k], ay[k]),
                Point2::new(bx[k], by[k]),
                Point2::new(cx[k], cy[k]),
                Point2::new(dx[k], dy[k]),
            );
            fallbacks += 1;
        }
        k0 += m;
    }
    bump_n!(INCIRCLE_BATCH, n);
    bump_n!(INCIRCLE_BATCH_FALLBACK, fallbacks);
    fallbacks
}

/// One-lane form of [`orient2d_batch`]: the same value as [`orient2d`]
/// bit-for-bit, evaluated through the batched stage-A filter semantics
/// (and counted as a batched lane under `predicate-stats`). The filter is
/// restated inline rather than routed through the slice API so single-test
/// call sites — the insert fan and cavity-repair checks fire once per
/// spoke — compile to straight-line code with no chunk machinery.
#[inline]
pub fn orient2d_one(a: Point2, b: Point2, c: Point2) -> f64 {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;
    // Same certification test as the batch pass; see `orient2d_batch` for
    // the sign-comparison rationale (subnormal products must not falsely
    // certify).
    let same_sign = ((detleft > 0.0) & (detright > 0.0)) | ((detleft < 0.0) & (detright < 0.0));
    bump_n!(ORIENT_BATCH, 1);
    if same_sign && det.abs() < CCW_ERR_BOUND_A * (detleft.abs() + detright.abs()) {
        bump_n!(ORIENT_BATCH_FALLBACK, 1);
        return orient2d(a, b, c);
    }
    det
}

/// One-lane form of [`incircle_batch`]; same contract as [`orient2d_one`].
#[inline]
pub fn incircle_one(a: Point2, b: Point2, c: Point2, d: Point2) -> f64 {
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
    bump_n!(INCIRCLE_BATCH, 1);
    if det.abs() <= ICC_ERR_BOUND_A * permanent {
        bump_n!(INCIRCLE_BATCH_FALLBACK, 1);
        return incircle(a, b, c, d);
    }
    det
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
