//! Property-based tests for the sparse algebra and FEM layers.

use adm_solver::{cg, CgOptions, Csr};
use proptest::prelude::*;

/// Random diagonally-dominant SPD matrix in triplet form.
fn spd_system(n: usize, seed: u64) -> (Csr, Vec<f64>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t: Vec<(u32, u32, f64)> = Vec::new();
    let mut row_abs = vec![0.0f64; n];
    for i in 0..n {
        // A few symmetric off-diagonals.
        for _ in 0..3 {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v: f64 = rng.gen_range(-1.0..1.0);
            t.push((i as u32, j as u32, v));
            t.push((j as u32, i as u32, v));
            row_abs[i] += v.abs();
            row_abs[j] += v.abs();
        }
    }
    for (i, &ra) in row_abs.iter().enumerate() {
        t.push((i as u32, i as u32, ra + 1.0 + rng.gen_range(0.0..2.0)));
    }
    let a = Csr::from_triplets(n, n, &t);
    let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (a, b)
}

/// Dense reference multiply.
fn dense_mul(a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    for (r, yr) in y.iter_mut().enumerate() {
        for (c, xc) in x.iter().enumerate() {
            *yr += a.get(r, c) * xc;
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR SpMV matches the dense reference on random triplet matrices
    /// (with duplicate entries).
    #[test]
    fn spmv_matches_dense(
        n in 2usize..20,
        triplets in prop::collection::vec((0u32..20, 0u32..20, -5.0f64..5.0), 1..80),
        x in prop::collection::vec(-3.0f64..3.0, 20),
    ) {
        let t: Vec<(u32, u32, f64)> = triplets
            .into_iter()
            .map(|(r, c, v)| (r % n as u32, c % n as u32, v))
            .collect();
        let a = Csr::from_triplets(n, n, &t);
        let x = &x[..n];
        let mut y = vec![0.0; n];
        a.mul_vec(x, &mut y);
        let want = dense_mul(&a, x);
        for (got, want) in y.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-9);
        }
    }

    /// CG solves every diagonally-dominant SPD system to tolerance, and
    /// the residual history honestly reports the final residual.
    #[test]
    fn cg_solves_spd(n in 4usize..60, seed in 0u64..1000) {
        let (a, b) = spd_system(n, seed);
        let (x, hist) = cg(&a, &b, &CgOptions { tol: 1e-10, ..Default::default() });
        prop_assert!(hist.last().unwrap() <= &1e-10);
        let mut ax = vec![0.0; n];
        a.mul_vec(&x, &mut ax);
        let norm_b = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        let res = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt()
            / norm_b;
        prop_assert!(res < 1e-8, "actual residual {res}");
    }

    /// Jacobi-preconditioned CG converges on the same systems and agrees
    /// with plain CG.
    #[test]
    fn jacobi_preconditioned_cg_agrees_with_cg(n in 4usize..30, seed in 0u64..200) {
        let (a, b) = spd_system(n, seed);
        let (x_cg, _) = cg(&a, &b, &CgOptions { tol: 1e-12, ..Default::default() });
        let opts = CgOptions { tol: 1e-12, jacobi_precond: true, ..Default::default() };
        let (x_j, hist) = cg(&a, &b, &opts);
        prop_assert!(hist.last().unwrap() <= &1e-12, "preconditioned CG stalled");
        for (p, q) in x_cg.iter().zip(&x_j) {
            prop_assert!((p - q).abs() < 1e-6, "{p} vs {q}");
        }
    }

    /// Preconditioned CG never needs more iterations than the tolerance
    /// implies on the identity.
    #[test]
    fn cg_on_identity_converges_immediately(n in 2usize..40) {
        let t: Vec<(u32, u32, f64)> = (0..n as u32).map(|i| (i, i, 1.0)).collect();
        let a = Csr::from_triplets(n, n, &t);
        let b = vec![1.0; n];
        let (x, hist) = cg(&a, &b, &CgOptions::default());
        prop_assert!(hist.len() <= 3);
        for v in &x {
            prop_assert!((v - 1.0).abs() < 1e-12);
        }
    }
}
