//! Two-dimensional points and vectors.
//!
//! `Point2` is a location in the plane; `Vec2` is a displacement. The mesh
//! generator works almost exclusively in `f64`; coordinates of aerospace
//! domains span roughly `[-50, 50]` chord lengths, well inside the range
//! where the adaptive predicates in [`crate::predicates`] stay exact.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

/// A displacement (direction + magnitude) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Vector from `self` to `other`.
    #[inline]
    pub fn to(self, other: Point2) -> Vec2 {
        Vec2::new(other.x - self.x, other.y - self.y)
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point2) -> f64 {
        self.to(other).norm()
    }

    /// Squared Euclidean distance to `other` (avoids the square root).
    #[inline]
    pub fn distance_sq(self, other: Point2) -> f64 {
        self.to(other).norm_sq()
    }

    /// Midpoint of the segment `self`–`other`.
    #[inline]
    pub fn midpoint(self, other: Point2) -> Point2 {
        Point2::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub fn lerp(self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// Componentwise minimum (useful for bounding boxes).
    #[inline]
    pub fn min(self, other: Point2) -> Point2 {
        Point2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Componentwise maximum (useful for bounding boxes).
    #[inline]
    pub fn max(self, other: Point2) -> Point2 {
        Point2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// `true` when both coordinates are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Lexicographic comparison by `(x, y)`; the order used by the
    /// divide-and-conquer triangulator and the monotone-chain hull.
    #[inline]
    pub fn lex_cmp(self, other: Point2) -> std::cmp::Ordering {
        self.x
            .total_cmp(&other.x)
            .then_with(|| self.y.total_cmp(&other.y))
    }
}

/// `v` with `-0.0` folded to `+0.0`, the rule behind [`canonical_bits`].
#[inline]
pub(crate) fn canonical_f64(v: f64) -> f64 {
    v + 0.0
}

/// Coordinate bits with `-0.0` folded to `+0.0`; every other value is
/// unchanged except that a signalling NaN comes back quiet. IEEE-754
/// compares `-0.0 == 0.0` but the two differ in bit pattern, so keying a
/// dedup table on raw `to_bits` would split points on a `y = 0` chord
/// line into two identities when mirrored subdomains emit opposite signs.
///
/// This is the one coordinate-identity rule of the workspace: the mesh
/// kernel's interning, PSLG duplicate merging and
/// `MetricField::canonical_bytes` all use it. Folding by `v + 0.0` and by
/// a `v == 0.0` test differ only on signalling NaNs; PSLG validation and
/// `MetricField::new` reject non-finite values before anything is keyed.
#[inline]
pub fn canonical_bits(p: Point2) -> (u64, u64) {
    (canonical_f64(p.x).to_bits(), canonical_f64(p.y).to_bits())
}

/// `p` with `-0.0` coordinates normalized to `+0.0`.
#[inline]
pub fn canonical_point(p: Point2) -> Point2 {
    Point2::new(canonical_f64(p.x), canonical_f64(p.y))
}

/// The `u64` whose unsigned order is `f64::total_cmp`'s: every bit of a
/// negative value flipped, the sign bit of a non-negative one set. Sorting
/// these keys sorts the values by `total_cmp`, without a comparator call.
#[inline]
pub fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
#[inline]
pub fn from_order_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

impl Vec2 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction. Returns `None` for (near-)zero
    /// vectors, where the direction is undefined.
    #[inline]
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }

    /// Counter-clockwise perpendicular (rotate by +90 degrees).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Rotates the vector by `theta` radians counter-clockwise.
    #[inline]
    pub fn rotated(self, theta: f64) -> Vec2 {
        let (s, c) = theta.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Unsigned angle between two vectors in `[0, pi]`.
    ///
    /// Uses `atan2(|cross|, dot)` which is far more accurate near 0 and pi
    /// than `acos` of a clamped cosine.
    #[inline]
    pub fn angle_between(self, other: Vec2) -> f64 {
        self.cross(other).abs().atan2(self.dot(other))
    }

    /// Signed angle from `self` to `other` in `(-pi, pi]`, positive
    /// counter-clockwise.
    #[inline]
    pub fn signed_angle_to(self, other: Vec2) -> f64 {
        self.cross(other).atan2(self.dot(other))
    }

    /// Direction angle of this vector in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Spherical-style linear interpolation of *directions*: interpolates
    /// the angle between two (not necessarily unit) vectors and returns a
    /// unit vector. This is the "linear interpolation between the two
    /// original normals" used for ray fans in the boundary layer.
    pub fn slerp_dir(self, other: Vec2, t: f64) -> Option<Vec2> {
        let a = self.normalized()?;
        let b = other.normalized()?;
        let delta = a.signed_angle_to(b);
        Some(a.rotated(delta * t))
    }
}

impl Add<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, v: Vec2) -> Point2 {
        Point2::new(self.x + v.x, self.y + v.y)
    }
}

impl Sub<Vec2> for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, v: Vec2) -> Point2 {
        Point2::new(self.x - v.x, self.y - v.y)
    }
}

impl Sub<Point2> for Point2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, p: Point2) -> Vec2 {
        Vec2::new(self.x - p.x, self.y - p.y)
    }
}

impl AddAssign<Vec2> for Point2 {
    #[inline]
    fn add_assign(&mut self, v: Vec2) {
        self.x += v.x;
        self.y += v.y;
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl AddAssign for Vec2 {
    #[inline]
    fn add_assign(&mut self, o: Vec2) {
        self.x += o.x;
        self.y += o.y;
    }
}

impl SubAssign for Vec2 {
    #[inline]
    fn sub_assign(&mut self, o: Vec2) {
        self.x -= o.x;
        self.y -= o.y;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        v * self
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn order_key_is_total_cmp_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in vals {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for b in vals {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point2::new(1.0, 2.0);
        let q = Point2::new(4.0, 6.0);
        let v = q - p;
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(p + v, q);
        assert_eq!(q - v, p);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(p.distance(q), 5.0);
        assert_eq!(p.distance_sq(q), 25.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let p = Point2::new(0.0, 0.0);
        let q = Point2::new(2.0, 4.0);
        assert_eq!(p.midpoint(q), Point2::new(1.0, 2.0));
        assert_eq!(p.lerp(q, 0.0), p);
        assert_eq!(p.lerp(q, 1.0), q);
        assert_eq!(p.lerp(q, 0.25), Point2::new(0.5, 1.0));
    }

    #[test]
    fn dot_cross_perp() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.perp(), b);
    }

    #[test]
    fn normalize_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let v = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-15);
        assert!((v.x - 0.6).abs() < 1e-15);
    }

    #[test]
    fn rotation() {
        let v = Vec2::new(1.0, 0.0).rotated(FRAC_PI_2);
        assert!((v.x).abs() < 1e-15);
        assert!((v.y - 1.0).abs() < 1e-15);
    }

    #[test]
    fn angles() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 2.0);
        assert!((a.angle_between(b) - FRAC_PI_2).abs() < 1e-15);
        assert!((a.signed_angle_to(b) - FRAC_PI_2).abs() < 1e-15);
        assert!((b.signed_angle_to(a) + FRAC_PI_2).abs() < 1e-15);
        // Anti-parallel vectors.
        assert!((a.angle_between(-a) - PI).abs() < 1e-12);
    }

    #[test]
    fn angle_between_is_accurate_for_tiny_angles() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(1.0, 1e-9);
        // acos-based formulas lose all precision here; atan2 keeps it.
        assert!((a.angle_between(b) - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn slerp_dir_interpolates_angle() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        let m = a.slerp_dir(b, 0.5).unwrap();
        assert!((m.angle() - FRAC_PI_2 / 2.0).abs() < 1e-14);
        assert!((m.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn lex_ordering() {
        use std::cmp::Ordering::*;
        let a = Point2::new(0.0, 1.0);
        let b = Point2::new(0.0, 2.0);
        let c = Point2::new(1.0, 0.0);
        assert_eq!(a.lex_cmp(b), Less);
        assert_eq!(b.lex_cmp(a), Greater);
        assert_eq!(a.lex_cmp(c), Less);
        assert_eq!(a.lex_cmp(a), Equal);
    }
}
