//! Iterative linear solvers with residual histories.
//!
//! Figure 16 of the paper plots the residual of the conservation-of-mass
//! equation against solver iterations for the anisotropic vs isotropic
//! meshes. Here the same experiment runs with (unpreconditioned or
//! Jacobi-preconditioned) conjugate gradients and point-Jacobi — methods
//! whose iteration counts grow with mesh resolution, reproducing the
//! "14x more elements, ~2x more iterations to 1e-12" relationship.

use crate::sparse::Csr;

/// Conjugate-gradient options.
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Relative residual tolerance (`||r|| / ||b||`).
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Apply diagonal (Jacobi) preconditioning.
    pub jacobi_precond: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-12,
            max_iters: 200_000,
            jacobi_precond: false,
        }
    }
}

/// Solves `A x = b` (SPD `A`) with CG. Returns the solution and the
/// relative-residual history (one entry per iteration, starting with the
/// initial residual).
pub fn cg(a: &Csr, b: &[f64], opts: &CgOptions) -> (Vec<f64>, Vec<f64>) {
    let n = b.len();
    assert_eq!(a.nrows(), n);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let norm_b = dot(b, b).sqrt().max(f64::MIN_POSITIVE);
    let inv_diag: Option<Vec<f64>> = opts.jacobi_precond.then(|| {
        a.diagonal()
            .iter()
            .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect()
    });
    let apply_m = |r: &[f64], z: &mut Vec<f64>| match &inv_diag {
        Some(di) => {
            z.clear();
            z.extend(r.iter().zip(di).map(|(&ri, &mi)| ri * mi));
        }
        None => {
            z.clear();
            z.extend_from_slice(r);
        }
    };
    let mut z = Vec::with_capacity(n);
    apply_m(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    let mut history = vec![dot(&r, &r).sqrt() / norm_b];

    for _ in 0..opts.max_iters {
        if *history.last().unwrap() <= opts.tol {
            break;
        }
        a.mul_vec(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            break; // matrix not SPD or breakdown
        }
        let alpha = rz / pap;
        axpy(&mut x, alpha, &p);
        axpy(&mut r, -alpha, &ap);
        history.push(dot(&r, &r).sqrt() / norm_b);
        apply_m(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    (x, history)
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D Laplacian (tridiagonal SPD).
    fn laplace_1d(n: usize) -> Csr {
        let mut t = Vec::new();
        for i in 0..n as u32 {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if (i as usize) < n - 1 {
                t.push((i, i + 1, -1.0));
            }
        }
        Csr::from_triplets(n, n, &t)
    }

    #[test]
    fn cg_solves_small_spd() {
        let a = laplace_1d(50);
        let b = vec![1.0; 50];
        let (x, hist) = cg(&a, &b, &CgOptions::default());
        assert!(*hist.last().unwrap() <= 1e-12);
        // Verify residual directly.
        let mut ax = vec![0.0; 50];
        a.mul_vec(&x, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9);
    }

    #[test]
    fn cg_history_is_monotone_enough() {
        let a = laplace_1d(100);
        let b: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let (_x, hist) = cg(&a, &b, &CgOptions::default());
        // CG residuals are not strictly monotone but trend down; compare
        // first and last.
        assert!(hist.last().unwrap() < &1e-12);
        assert!(hist.len() > 5);
    }

    #[test]
    fn finer_systems_need_more_iterations() {
        // The mechanism behind Fig 16: iteration count grows with problem
        // size for the same tolerance.
        let mut iters = Vec::new();
        for n in [50usize, 200, 800] {
            let a = laplace_1d(n);
            let b = vec![1.0; n];
            let (_x, hist) = cg(&a, &b, &CgOptions::default());
            iters.push(hist.len());
        }
        assert!(iters[0] < iters[1] && iters[1] < iters[2], "{iters:?}");
    }

    #[test]
    fn jacobi_preconditioning_helps_scaled_systems() {
        // Badly scaled diagonal: plain CG struggles, Jacobi-PCG fixes it.
        let n = 60;
        let mut t = Vec::new();
        for i in 0..n as u32 {
            let s = if i % 2 == 0 { 1.0 } else { 1e4 };
            t.push((i, i, 2.0 * s));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if (i as usize) < n - 1 {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = Csr::from_triplets(n, n, &t);
        let b = vec![1.0; n];
        let plain = cg(
            &a,
            &b,
            &CgOptions {
                max_iters: 500,
                ..Default::default()
            },
        );
        let pcg = cg(
            &a,
            &b,
            &CgOptions {
                max_iters: 500,
                jacobi_precond: true,
                ..Default::default()
            },
        );
        assert!(pcg.1.len() <= plain.1.len());
    }
}
