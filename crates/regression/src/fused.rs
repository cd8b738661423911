//! Fused-multiply-add references of the production kernels, for tests only.
//!
//! The Horner kernels in [`crate::poly`] write every multiply-add as
//! `a * b + c`, two roundings: `f64::mul_add` is an out-of-line call on the
//! x86-64 baseline target, where no FMA instruction is enabled. These references keep the fused form (one rounding per
//! step) so the tests can bound how far the two roundings move a result.

#![allow(clippy::disallowed_methods)]

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
    }
}
