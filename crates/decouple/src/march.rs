//! Graded decoupling-path discretization (paper §II.E).
//!
//! New border vertices are marched from vertex to vertex: from the current
//! vertex with edge-length size `k_cur` (equation 1), the next vertex is
//! placed `D` units ahead with `2*k_cur/sqrt(3) <= D < 2*k_cur`, then moved
//! closer until `D < 2*k_next` also holds at the destination, which keeps
//! every border segment compatible with Ruppert's termination bounds on
//! both sides — so the independent refinements never split a shared
//! border segment.

use crate::sizing::{k_value, SizingFn};
use adm_geom::point::Point2;

/// Marching step factor inside `[2/sqrt(3), 2)`; a mid-range value leaves
/// slack on both sides of the window.
const STEP_FACTOR: f64 = 1.6;

/// Discretizes the straight path from `a` to `b` with the graded marching
/// rule. Returns the chain **including** both endpoints.
pub fn march_path(a: Point2, b: Point2, sizing: &dyn SizingFn) -> Vec<Point2> {
    let mut out = vec![a];
    let total = a.distance(b);
    if total == 0.0 {
        return out;
    }
    let dir = (b - a) * (1.0 / total);
    let mut s = 0.0; // arclength position of the current vertex
    let guard =
        4.0 * (total / (2.0 * k_value(min_area_probe(a, b, sizing)) / 3f64.sqrt())).max(16.0);
    let mut steps = 0.0;
    loop {
        let cur = a + dir * s;
        let k_cur = k_value(sizing.target_area(cur));
        let mut d = STEP_FACTOR * k_cur;
        // Move closer until the destination also accepts the segment
        // (D < 2 * k_next). k varies continuously, so a few contractions
        // suffice; the loop is monotone decreasing.
        for _ in 0..64 {
            let next = a + dir * (s + d);
            let k_next = k_value(sizing.target_area(next));
            if d < 2.0 * k_next {
                break;
            }
            d = STEP_FACTOR * k_next;
        }
        // Close-out: once the remainder fits within two steps, distribute
        // it over equal final segments. Even sizing avoids both failure
        // modes: a merged oversized segment (violates the 2k upper bound)
        // and a tiny leftover segment (whose endpoint encroaches the
        // neighboring segment's diametral circle during refinement).
        let remaining = total - s;
        if remaining <= 2.0 * d {
            // Smallest k over the remainder (the sizing need not be
            // monotone along the path).
            let mut kmin = k_cur;
            for j in 0..=8 {
                let q = a + dir * (s + remaining * j as f64 / 8.0);
                kmin = kmin.min(k_value(sizing.target_area(q)));
            }
            let mut m = if remaining <= d { 1usize } else { 2 };
            while remaining / m as f64 >= 1.9 * kmin && m < 1024 {
                m += 1;
            }
            let step = remaining / m as f64;
            for j in 1..m {
                out.push(a + dir * (s + j as f64 * step));
            }
            out.push(b);
            return out;
        }
        s += d;
        out.push(a + dir * s);
        steps += 1.0;
        assert!(
            steps <= guard,
            "marching did not terminate ({a:?} -> {b:?})"
        );
    }
}

/// Crude lower-bound probe of the sizing along the segment (for the
/// termination guard only).
fn min_area_probe(a: Point2, b: Point2, sizing: &dyn SizingFn) -> f64 {
    let mut m = f64::INFINITY;
    for k in 0..=8 {
        let p = a.lerp(b, k as f64 / 8.0);
        m = m.min(sizing.target_area(p));
    }
    m.max(f64::MIN_POSITIVE)
}

/// Validates a discretized chain against the decoupling bounds: every
/// segment `(u, v)` must satisfy `|uv| < 2*k(u)` and `|uv| < 2*k(v)` (no
/// refinement will split it), and should not be shorter than
/// `2*k/sqrt(3)` at its looser end (no over-refinement), except for the
/// final snap segment.
pub fn chain_respects_bounds(chain: &[Point2], sizing: &dyn SizingFn) -> bool {
    for w in chain.windows(2) {
        let d = w[0].distance(w[1]);
        let ku = k_value(sizing.target_area(w[0]));
        let kv = k_value(sizing.target_area(w[1]));
        if d >= 2.0 * ku || d >= 2.0 * kv {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{GradedSizing, UniformH};

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn uniform_marching_is_nearly_uniform() {
        let s = UniformH(0.5);
        let chain = march_path(p(0.0, 0.0), p(10.0, 0.0), &s);
        assert!(chain.len() > 10);
        assert_eq!(chain[0], p(0.0, 0.0));
        assert_eq!(*chain.last().unwrap(), p(10.0, 0.0));
        assert!(chain_respects_bounds(&chain, &s));
        // Interior steps all equal STEP_FACTOR * k; the final one or two
        // segments share the remainder evenly.
        let k = k_value(s.target_area(p(0.0, 0.0)));
        let nseg = chain.len() - 1;
        for w in chain.windows(2).take(nseg.saturating_sub(2)) {
            let d = w[0].distance(w[1]);
            assert!((d - 1.6 * k).abs() < 1e-9, "step {d}");
        }
        let last = chain[chain.len() - 2].distance(chain[chain.len() - 1]);
        let second_last = chain[chain.len() - 3].distance(chain[chain.len() - 2]);
        assert!(last > 0.3 * 1.6 * k, "tiny final segment {last}");
        assert!((last - second_last).abs() < 1e-9 || (second_last - 1.6 * k).abs() < 1e-9);
    }

    #[test]
    fn graded_marching_refines_toward_the_body() {
        let s = GradedSizing::new(&[p(0.0, 0.0)], 0.05, 0.2, 1e9, 4);
        let chain = march_path(p(0.5, 0.0), p(30.0, 0.0), &s);
        assert!(chain_respects_bounds(&chain, &s));
        // Steps grow monotonically (up to the final even-close-out pair).
        let steps: Vec<f64> = chain.windows(2).map(|w| w[0].distance(w[1])).collect();
        for i in 1..steps.len().saturating_sub(2) {
            assert!(
                steps[i] >= steps[i - 1] * 0.99,
                "step shrank away from body: {} -> {}",
                steps[i - 1],
                steps[i]
            );
        }
        // Near end is much finer than far end.
        assert!(steps[0] < *steps.last().unwrap() / 3.0);
    }

    #[test]
    fn marching_toward_the_body_contracts() {
        // Marching in the direction of decreasing k exercises the
        // move-closer rule (D < 2 k_next).
        let s = GradedSizing::new(&[p(0.0, 0.0)], 0.05, 0.2, 1e9, 4);
        let chain = march_path(p(30.0, 0.0), p(0.5, 0.0), &s);
        assert!(chain_respects_bounds(&chain, &s));
    }

    #[test]
    fn degenerate_and_short_paths() {
        let s = UniformH(0.5);
        let same = march_path(p(1.0, 1.0), p(1.0, 1.0), &s);
        assert_eq!(same.len(), 1);
        // A path shorter than one step yields exactly the two endpoints.
        let short = march_path(p(0.0, 0.0), p(1e-3, 0.0), &s);
        assert_eq!(short, vec![p(0.0, 0.0), p(1e-3, 0.0)]);
    }

    #[test]
    fn endpoints_are_exact() {
        // The shared-border property requires bitwise-identical endpoints
        // so adjacent subdomains agree.
        let s = GradedSizing::new(&[p(3.0, 4.0)], 0.02, 0.3, 1e9, 4);
        let (a, b) = (p(-7.3, 2.1), p(11.9, -5.7));
        let chain = march_path(a, b, &s);
        assert_eq!(chain[0], a);
        assert_eq!(*chain.last().unwrap(), b);
    }
}
