//! Boundary-layer growth functions (Garimella & Shephard).
//!
//! A growth function prescribes the wall-normal spacing of boundary-layer
//! points along each ray (paper §II.A): the first layer height captures the
//! viscous sublayer, and successive layers grow so the mesh coarsens away
//! from the wall. The paper names the two common choices — geometric and
//! polynomial — plus adaptive variants for complex geometries.

/// The one wall-normal point-spacing law of the workspace, covering the
/// Garimella–Shephard family the paper cites: plain geometric, polynomial,
/// and thickness-capped geometric (the "adaptive" variant for complex
/// geometries). `height(k)` is the cumulative distance of the `k`-th layer
/// from the surface, with `height(0) == 0` (the surface itself).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrowthSpec {
    /// Geometric layers `h0 * r^k` — the CFD workhorse (typically `r` in
    /// `[1.1, 1.3]`).
    Geometric {
        /// First layer thickness.
        first_height: f64,
        /// Growth ratio.
        ratio: f64,
    },
    /// Cumulative height `h0 * k^p` (p = 1 is uniform spacing, p = 2
    /// quadratic, ...).
    Polynomial {
        /// Height scale.
        first_height: f64,
        /// Exponent (>= 1).
        exponent: f64,
    },
    /// Geometric with a thickness ceiling.
    CappedGeometric {
        /// First layer thickness.
        first_height: f64,
        /// Growth ratio.
        ratio: f64,
        /// Maximum layer thickness.
        max_thickness: f64,
    },
}

/// Validates a geometric law and builds its [`GrowthSpec`] variant
/// (`Geometric::new(h0, r).into()`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    /// First layer thickness.
    pub first_height: f64,
    /// Growth ratio (> 1 for growth).
    pub ratio: f64,
}

impl Geometric {
    /// Creates a geometric law; panics on non-positive height or ratio.
    pub fn new(first_height: f64, ratio: f64) -> Self {
        check_geometric(first_height, ratio);
        Geometric {
            first_height,
            ratio,
        }
    }
}

impl From<Geometric> for GrowthSpec {
    fn from(g: Geometric) -> Self {
        GrowthSpec::Geometric {
            first_height: g.first_height,
            ratio: g.ratio,
        }
    }
}

fn check_geometric(first_height: f64, ratio: f64) {
    assert!(first_height > 0.0, "first height must be positive");
    assert!(ratio > 0.0, "ratio must be positive");
}

impl GrowthSpec {
    /// First-layer thickness of the law (used for sizing calibration).
    pub fn first_height(&self) -> f64 {
        match *self {
            GrowthSpec::Geometric { first_height, .. }
            | GrowthSpec::Polynomial { first_height, .. }
            | GrowthSpec::CappedGeometric { first_height, .. } => first_height,
        }
    }

    /// Panics on a non-positive height or ratio, or an exponent below 1.
    fn check(&self) {
        match *self {
            GrowthSpec::Geometric {
                first_height,
                ratio,
            }
            | GrowthSpec::CappedGeometric {
                first_height,
                ratio,
                ..
            } => check_geometric(first_height, ratio),
            GrowthSpec::Polynomial {
                first_height,
                exponent,
            } => {
                assert!(first_height > 0.0);
                assert!(exponent >= 1.0);
            }
        }
    }

    /// Cumulative offset of layer `k` from the surface. Panics on an
    /// invalid law.
    pub fn height(&self, k: usize) -> f64 {
        self.check();
        match *self {
            GrowthSpec::Geometric {
                first_height: h0,
                ratio: r,
            } => {
                if k == 0 {
                    0.0
                } else if (r - 1.0).abs() < 1e-14 {
                    h0 * k as f64
                } else {
                    h0 * (r.powi(k as i32) - 1.0) / (r - 1.0)
                }
            }
            GrowthSpec::Polynomial {
                first_height: h0,
                exponent,
            } => h0 * (k as f64).powf(exponent),
            GrowthSpec::CappedGeometric { .. } => {
                (1..=k).fold(0.0, |h, i| h + self.layer_thickness(i))
            }
        }
    }

    /// Thickness of layer `k` (distance between layers `k-1` and `k`;
    /// 0 at `k == 0`). Panics on an invalid law.
    pub fn layer_thickness(&self, k: usize) -> f64 {
        self.check();
        if k == 0 {
            return 0.0;
        }
        match *self {
            GrowthSpec::Geometric {
                first_height: h0,
                ratio: r,
            } => h0 * r.powi(k as i32 - 1),
            GrowthSpec::Polynomial { .. } => self.height(k) - self.height(k - 1),
            GrowthSpec::CappedGeometric {
                first_height: h0,
                ratio: r,
                max_thickness,
            } => (h0 * r.powi(k as i32 - 1)).min(max_thickness),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometric(first_height: f64, ratio: f64) -> GrowthSpec {
        Geometric::new(first_height, ratio).into()
    }

    #[test]
    fn geometric_heights() {
        let g = geometric(1.0, 2.0);
        assert_eq!(g.height(0), 0.0);
        assert_eq!(g.height(1), 1.0);
        assert_eq!(g.height(2), 3.0);
        assert_eq!(g.height(3), 7.0);
        assert_eq!(g.layer_thickness(3), 4.0);
    }

    #[test]
    fn geometric_ratio_one_is_uniform() {
        let g = geometric(0.5, 1.0);
        assert_eq!(g.height(4), 2.0);
        assert_eq!(g.layer_thickness(4), 0.5);
    }

    #[test]
    fn geometric_typical_cfd_values() {
        // 1e-5 first height, 1.2 ratio: ~ 48 layers to reach 1% chord... a
        // sanity check that the closed form matches the sum.
        let g = geometric(1e-5, 1.2);
        let mut acc = 0.0;
        for k in 1..=30 {
            acc += g.layer_thickness(k);
            assert!((g.height(k) - acc).abs() < 1e-15, "k={k}");
        }
    }

    #[test]
    fn polynomial_heights() {
        let p = GrowthSpec::Polynomial {
            first_height: 0.1,
            exponent: 1.0,
        };
        assert_eq!(p.height(5), 0.5);
        let q = GrowthSpec::Polynomial {
            first_height: 0.1,
            exponent: 2.0,
        };
        assert!((q.height(3) - 0.9).abs() < 1e-12);
        assert!((q.layer_thickness(3) - (0.9 - 0.4)).abs() < 1e-12);
    }

    #[test]
    fn capped_growth_limits_thickness() {
        let c = GrowthSpec::CappedGeometric {
            first_height: 1.0,
            ratio: 2.0,
            max_thickness: 2.5,
        };
        assert_eq!(c.layer_thickness(1), 1.0);
        assert_eq!(c.layer_thickness(2), 2.0);
        assert_eq!(c.layer_thickness(3), 2.5); // capped from 4
        assert_eq!(c.height(3), 5.5);
    }
}
