//! Fused-multiply-add references of the production kernels, for tests only.
//!
//! The kernels in [`crate::poly`] and [`crate::matrix`] write every
//! multiply-add as `a * b + c`, two roundings: `f64::mul_add` is an
//! out-of-line call on the x86-64 baseline target, where no FMA instruction
//! is enabled. These references keep the fused form (one rounding per
//! step) so the tests can bound how far the two roundings move a result.

#![allow(clippy::disallowed_methods)]

use crate::Matrix;

/// [`crate::poly::eval_horner`] with every multiply-add fused.
pub(crate) fn eval_horner(n: usize, beta: &[f64], v: f64, c: f64) -> f64 {
    let width = n + 1;
    let mut acc = 0.0f64;
    for i in (0..width).rev() {
        let row = &beta[i * width..(i + 1) * width];
        let r = row.iter().rev().fold(0.0f64, |r, &b| r.mul_add(c, b));
        acc = acc.mul_add(v, r);
    }
    acc
}

/// [`Matrix::gram`] with every multiply-add fused.
pub(crate) fn gram(x: &Matrix) -> Matrix {
    let n = x.cols();
    let mut g = Matrix::zeros(n, n);
    for r in 0..x.rows() {
        let row = x.row(r);
        for i in 0..n {
            for j in i..n {
                g[(i, j)] = row[i].mul_add(row[j], g[(i, j)]);
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            g[(i, j)] = g[(j, i)];
        }
    }
    g
}

/// [`Matrix::transpose_mul_vec`] with every multiply-add fused.
pub(crate) fn transpose_mul_vec(x: &Matrix, y: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.cols()];
    for (r, &yr) in y.iter().enumerate() {
        for (o, &a) in out.iter_mut().zip(x.row(r)) {
            *o = a.mul_add(yr, *o);
        }
    }
    out
}

mod tests {
    use super::*;
    use crate::poly;
    use proptest::prelude::*;

    /// `γ_k = k·u / (1 − k·u)`, the classical bound on `k` chained
    /// roundings, with `u = 2⁻⁵³`.
    fn gamma(k: usize) -> f64 {
        let ku = k as f64 * f64::EPSILON / 2.0;
        ku / (1.0 - ku)
    }

    /// A production result and its fused reference each sit within their
    /// classical bound of the exact value: `γ_2k · Σ|terms|` for a chain of
    /// `k` multiply-adds rounded twice each, `γ_k · Σ|terms|` fused. So
    /// they differ by at most the sum of the two.
    fn within_bound(got: f64, fused: f64, chain: usize, magnitude: f64) -> bool {
        (got - fused).abs() <= (gamma(2 * chain) + gamma(chain)) * magnitude
    }

    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
    }

    proptest! {
        #[test]
        fn horner_stays_within_the_classical_bound_of_the_fused_reference(
            n in 0usize..=6,
            v in -2.0f64..2.0,
            c in -2.0f64..2.0,
            seed in any::<u64>(),
        ) {
            let mut next = uniform(seed);
            let width = n + 1;
            let beta: Vec<f64> = (0..width * width).map(|_| next()).collect();
            // Σ|β_ij·vⁱ·cʲ|; every term passes through at most n inner and
            // n outer multiply-adds.
            let magnitude: f64 = (0..width)
                .flat_map(|i| (0..width).map(move |j| (i, j)))
                .map(|(i, j)| (beta[i * width + j] * v.powi(i as i32) * c.powi(j as i32)).abs())
                .sum();
            let got = poly::eval_horner(n, &beta, v, c);
            let fused = eval_horner(n, &beta, v, c);
            prop_assert!(
                within_bound(got, fused, 2 * n, magnitude),
                "horner {got:e} vs fused {fused:e} (Σ|terms| {magnitude:e})"
            );
        }

        #[test]
        fn gram_and_xty_stay_within_the_classical_bound_of_the_fused_reference(
            rows in 1usize..60,
            cols in 1usize..10,
            seed in any::<u64>(),
        ) {
            let mut next = uniform(seed);
            let x = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap();
            let y: Vec<f64> = (0..rows).map(|_| next()).collect();
            let x_ref = &x;
            let column = |j: usize| (0..rows).map(move |r| x_ref[(r, j)]);

            let g = x.gram();
            let g_fused = gram(&x);
            for i in 0..cols {
                for j in 0..cols {
                    let magnitude: f64 = column(i).zip(column(j)).map(|(a, b)| (a * b).abs()).sum();
                    prop_assert!(
                        within_bound(g[(i, j)], g_fused[(i, j)], rows, magnitude),
                        "gram ({i},{j}): {:e} vs fused {:e}", g[(i, j)], g_fused[(i, j)]
                    );
                }
            }

            let xty = x.transpose_mul_vec(&y).unwrap();
            let xty_fused = transpose_mul_vec(&x, &y);
            for j in 0..cols {
                let magnitude: f64 = column(j).zip(&y).map(|(a, b)| (a * b).abs()).sum();
                prop_assert!(
                    within_bound(xty[j], xty_fused[j], rows, magnitude),
                    "Xᵀy [{j}]: {:e} vs fused {:e}", xty[j], xty_fused[j]
                );
            }
        }
    }
}
