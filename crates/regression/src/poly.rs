//! Bivariate polynomial feature expansion (paper Eq. 4 and Eq. 6).
//!
//! A delay-deviation surface is modeled as a polynomial of order `2·N`,
//!
//! ```text
//! f(v, c) = Σ_{i=0..N} Σ_{j=0..N} β_{i,j} · vⁱ cʲ
//! ```
//!
//! The design-matrix column ordering follows Eq. 6 of the paper: row `k`
//! holds the power terms `v_k^i c_k^j` ordered with `i` (voltage power) as
//! the major index and `j` (capacitance power) as the minor index, so the
//! first column is the all-ones zero-degree term.

use crate::RegressionError;

/// The term basis of a bivariate polynomial with per-variable order `N`.
///
/// # Example
///
/// ```
/// use avfs_regression::PolyBasis;
///
/// let basis = PolyBasis::new(1);
/// assert_eq!(basis.len(), 4); // 1, c, v, v·c
/// let mut row = Vec::new();
/// basis.write_features(2.0, 3.0, &mut row);
/// assert_eq!(row, [1.0, 3.0, 2.0, 6.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolyBasis {
    n: usize,
}

impl PolyBasis {
    /// Creates the basis for per-variable order `N` (polynomial order `2·N`).
    pub fn new(n: usize) -> Self {
        PolyBasis { n }
    }

    /// The per-variable order `N`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of terms, `(N+1)²` — the coefficient count the paper quotes
    /// as 4, 9, 16, 25, … for N = 1, 2, 3, 4, …
    pub fn len(&self) -> usize {
        (self.n + 1) * (self.n + 1)
    }

    /// Returns `true` only for the degenerate zero-term basis (never
    /// constructed by [`PolyBasis::new`], provided for completeness).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Appends the feature row `[vⁱcʲ]` of one sample `(v, c)` to `out`.
    ///
    /// Ordering matches Eq. 6: `(i, j)` iterates with `i` major, `j` minor,
    /// i.e. `v⁰c⁰, v⁰c¹, …, v⁰cᴺ, v¹c⁰, …, vᴺcᴺ`.
    pub fn write_features(&self, v: f64, c: f64, out: &mut Vec<f64>) {
        let n = self.n;
        // Incremental powers avoid calling powi in the inner loop.
        let mut vi = 1.0;
        for _ in 0..=n {
            let mut cj = 1.0;
            for _ in 0..=n {
                out.push(vi * cj);
                cj *= c;
            }
            vi *= v;
        }
    }

    /// Evaluates the polynomial with coefficient vector `beta` at `(v, c)`
    /// using Horner's method in both variables.
    ///
    /// This is the same nested-Horner scheme the paper compiles into the GPU
    /// delay kernel (Sec. IV): the inner reduction over `c` and outer
    /// reduction over `v` are chains of multiply-adds, each a multiply and
    /// an add rounded separately (see [`eval_horner`]).
    ///
    /// # Errors
    ///
    /// Returns [`RegressionError::DimensionMismatch`] if `beta.len()` is not
    /// `(N+1)²`.
    pub fn eval(&self, beta: &[f64], v: f64, c: f64) -> Result<f64, RegressionError> {
        if beta.len() != self.len() {
            return Err(RegressionError::DimensionMismatch {
                context: "PolyBasis::eval",
                left: (1, self.len()),
                right: (1, beta.len()),
            });
        }
        Ok(eval_horner(self.n, beta, v, c))
    }
}

/// Nested Horner evaluation of a bivariate polynomial.
///
/// `beta` is laid out with voltage power major (Eq. 6 ordering):
/// `beta[i*(n+1) + j] = β_{i,j}`. The outer Horner loop runs over `v`, the
/// inner one over `c`; each step is `a * b + c`, two roundings. A GPU fuses
/// the pair in hardware, but the x86-64 baseline target has no FMA
/// instruction, so `f64::mul_add` would be an out-of-line libm call there.
///
/// # Panics
///
/// Panics if `beta.len() < (n+1)²` (a debug assertion states it up front;
/// in every build the row slicing panics), so callers validate first — the
/// public entry point [`PolyBasis::eval`] does.
#[inline]
pub fn eval_horner(n: usize, beta: &[f64], v: f64, c: f64) -> f64 {
    debug_assert!(beta.len() >= (n + 1) * (n + 1));
    let width = n + 1;
    let mut acc = 0.0f64;
    // Outer Horner over v: acc = (…((row_N)·v + row_{N-1})·v + …) + row_0.
    for i in (0..width).rev() {
        let row = &beta[i * width..(i + 1) * width];
        // Inner Horner over c.
        let mut r = 0.0f64;
        for &b in row.iter().rev() {
            r = r * c + b;
        }
        acc = acc * v + r;
    }
    acc
}

/// [`eval_horner`] at every point of the lattice `vs × cs`, row-major by
/// `v`, bit for bit: a row's inner Horner over `c` does not depend on `v`,
/// so it runs once per `c`, and only the outer Horner runs per point.
///
/// # Panics
///
/// Panics if `beta.len() < (n+1)²`.
pub fn eval_horner_lattice(n: usize, beta: &[f64], vs: &[f64], cs: &[f64]) -> Vec<f64> {
    let width = n + 1;
    let beta = &beta[..width * width];
    // The inner Horner of every row at every `c`, `width` per `c`.
    let rows: Vec<f64> = cs
        .iter()
        .flat_map(|&c| {
            beta.chunks_exact(width)
                .map(move |row| row.iter().rev().fold(0.0f64, |r, &b| r * c + b))
        })
        .collect();
    let mut out = Vec::with_capacity(vs.len() * cs.len());
    for &v in vs {
        out.extend(
            rows.chunks_exact(width)
                .map(|r| r.iter().rev().fold(0.0f64, |acc, &r| acc * v + r)),
        );
    }
    out
}

/// Lane-batched nested Horner evaluation: `out[k] = f(v[k], c[k])` for a
/// whole lane group in one call.
///
/// The loop body is hand-unrolled into [`HORNER_LANE_BLOCK`]-wide blocks of
/// **independent** multiply-add accumulator chains (`f64x4`-style): the
/// four chains share no data, so they fill the floating-point pipelines
/// (and let the compiler pack them into vector registers) without
/// reordering any per-lane arithmetic. Each lane performs *exactly* the operation sequence
/// of [`eval_horner`] — same inner reduction over `c`, same outer reduction
/// over `v`, in the same order — so the batched result is **bitwise
/// identical** to the scalar result, which is what lets the simulator's
/// lane-packed execution path stay bit-for-bit reproducible against the
/// scalar reference:
///
/// ```
/// use avfs_regression::poly::{eval_horner, eval_horner_lanes};
///
/// let beta = [1.0, 2.0, 3.0, 4.0]; // f(v,c) = 1 + 2c + 3v + 4vc
/// let v = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
/// let c = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4];
/// let mut out = [0.0; 6];
/// eval_horner_lanes(1, &beta, &v, &c, &mut out);
/// for k in 0..6 {
///     // Bitwise equality, not approximate equality.
///     assert_eq!(out[k].to_bits(), eval_horner(1, &beta, v[k], c[k]).to_bits());
/// }
/// ```
///
/// # Panics
///
/// Panics if `v`, `c` and `out` disagree in length; debug assertions also
/// check `beta.len()` like [`eval_horner`].
pub fn eval_horner_lanes(n: usize, beta: &[f64], v: &[f64], c: &[f64], out: &mut [f64]) {
    assert_eq!(v.len(), c.len(), "lane slice length mismatch");
    assert_eq!(v.len(), out.len(), "lane output length mismatch");
    debug_assert!(beta.len() >= (n + 1) * (n + 1));
    let width = n + 1;
    let mut k = 0;
    while k + HORNER_LANE_BLOCK <= v.len() {
        let (v0, v1, v2, v3) = (v[k], v[k + 1], v[k + 2], v[k + 3]);
        let (c0, c1, c2, c3) = (c[k], c[k + 1], c[k + 2], c[k + 3]);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in (0..width).rev() {
            let row = &beta[i * width..(i + 1) * width];
            let (mut r0, mut r1, mut r2, mut r3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for &b in row.iter().rev() {
                // Four independent multiply-add chains — no cross-lane data flow.
                r0 = r0 * c0 + b;
                r1 = r1 * c1 + b;
                r2 = r2 * c2 + b;
                r3 = r3 * c3 + b;
            }
            a0 = a0 * v0 + r0;
            a1 = a1 * v1 + r1;
            a2 = a2 * v2 + r2;
            a3 = a3 * v3 + r3;
        }
        out[k] = a0;
        out[k + 1] = a1;
        out[k + 2] = a2;
        out[k + 3] = a3;
        k += HORNER_LANE_BLOCK;
    }
    // Partial-tail lanes fall back to the scalar kernel (identical math).
    while k < v.len() {
        out[k] = eval_horner(n, beta, v[k], c[k]);
        k += 1;
    }
}

/// Unroll width of [`eval_horner_lanes`]: four independent f64 accumulator
/// chains per block, matching one AVX2 `f64x4` vector register.
pub const HORNER_LANE_BLOCK: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive power-sum evaluation, the cross-check oracle for Horner.
    fn eval_naive(n: usize, beta: &[f64], v: f64, c: f64) -> f64 {
        let width = n + 1;
        let mut acc = 0.0;
        for i in 0..width {
            for j in 0..width {
                acc += beta[i * width + j] * v.powi(i as i32) * c.powi(j as i32);
            }
        }
        acc
    }

    fn features(basis: &PolyBasis, v: f64, c: f64) -> Vec<f64> {
        let mut row = Vec::new();
        basis.write_features(v, c, &mut row);
        row
    }

    #[test]
    fn term_counts_match_paper() {
        // Paper Sec. V.A: "4, 9, 16, 25, …" coefficients per pin-delay.
        assert_eq!(PolyBasis::new(1).len(), 4);
        assert_eq!(PolyBasis::new(2).len(), 9);
        assert_eq!(PolyBasis::new(3).len(), 16);
        assert_eq!(PolyBasis::new(4).len(), 25);
        assert_eq!(PolyBasis::new(5).len(), 36);
    }

    #[test]
    fn feature_ordering_matches_eq6() {
        // Eq. 6 row: v⁰c⁰, v⁰c¹, v¹c⁰ (for N=1 with i major: 1, c, v, vc).
        let basis = PolyBasis::new(1);
        assert_eq!(features(&basis, 2.0, 3.0), vec![1.0, 3.0, 2.0, 6.0]);
        let basis2 = PolyBasis::new(2);
        let f = features(&basis2, 2.0, 3.0);
        // 1, c, c², v, vc, vc², v², v²c, v²c²
        assert_eq!(f, vec![1.0, 3.0, 9.0, 2.0, 6.0, 18.0, 4.0, 12.0, 36.0]);
    }

    #[test]
    fn first_column_is_ones() {
        let basis = PolyBasis::new(3);
        for &(v, c) in &[(0.0, 0.0), (0.5, 0.7), (1.0, 1.0)] {
            assert_eq!(features(&basis, v, c)[0], 1.0);
        }
    }

    #[test]
    fn eval_checks_coefficient_count() {
        let basis = PolyBasis::new(2);
        assert!(basis.eval(&[0.0; 4], 0.5, 0.5).is_err());
        assert!(basis.eval(&[0.0; 9], 0.5, 0.5).is_ok());
    }

    #[test]
    fn horner_matches_hand_computed() {
        // f(v,c) = 1 + 2c + 3v + 4vc at (v,c) = (2,3): 1 + 6 + 6 + 24 = 37.
        let beta = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(eval_horner(1, &beta, 2.0, 3.0), 37.0);
    }

    #[test]
    fn lanes_match_scalar_bitwise_including_tails() {
        let beta: Vec<f64> = (0..16).map(|k| (k as f64) * 0.07 - 0.5).collect();
        // Every length from 0 to 11 covers empty, partial-tail and
        // multi-block cases around the unroll width of 4.
        for len in 0..12usize {
            let v: Vec<f64> = (0..len).map(|k| 0.05 + 0.09 * k as f64).collect();
            let c: Vec<f64> = (0..len).map(|k| 0.95 - 0.08 * k as f64).collect();
            let mut out = vec![0.0; len];
            eval_horner_lanes(3, &beta, &v, &c, &mut out);
            for k in 0..len {
                let scalar = eval_horner(3, &beta, v[k], c[k]);
                assert_eq!(
                    out[k].to_bits(),
                    scalar.to_bits(),
                    "lane {k} of {len} diverged from scalar"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane slice length mismatch")]
    fn lanes_reject_mismatched_inputs() {
        let mut out = [0.0; 2];
        eval_horner_lanes(1, &[0.0; 4], &[0.1, 0.2], &[0.3], &mut out);
    }

    proptest! {
        #[test]
        fn lattice_matches_scalar_bitwise(
            n in 0usize..=5,
            rows in 0usize..7,
            columns in 0usize..7,
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let beta: Vec<f64> = (0..(n + 1) * (n + 1)).map(|_| next()).collect();
            let v: Vec<f64> = (0..rows).map(|_| next()).collect();
            let c: Vec<f64> = (0..columns).map(|_| next()).collect();
            let out = eval_horner_lattice(n, &beta, &v, &c);
            prop_assert_eq!(out.len(), rows * columns);
            for (k, got) in out.iter().enumerate() {
                let want = eval_horner(n, &beta, v[k / columns], c[k % columns]);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        #[test]
        fn lanes_match_scalar_bitwise_random(
            n in 1usize..=4,
            len in 0usize..10,
            seed in any::<u64>(),
        ) {
            let terms = (n + 1) * (n + 1);
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            };
            let beta: Vec<f64> = (0..terms).map(|_| next()).collect();
            let v: Vec<f64> = (0..len).map(|_| next()).collect();
            let c: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut out = vec![0.0; len];
            eval_horner_lanes(n, &beta, &v, &c, &mut out);
            for k in 0..len {
                prop_assert_eq!(out[k].to_bits(), eval_horner(n, &beta, v[k], c[k]).to_bits());
            }
        }

        #[test]
        fn horner_matches_naive(
            n in 1usize..=5,
            v in -2.0f64..2.0,
            c in -2.0f64..2.0,
            seed in any::<u64>(),
        ) {
            // Deterministic pseudo-random coefficients from the seed.
            let len = (n + 1) * (n + 1);
            let mut state = seed | 1;
            let beta: Vec<f64> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
                })
                .collect();
            let h = eval_horner(n, &beta, v, c);
            let e = eval_naive(n, &beta, v, c);
            // Scale tolerance with the magnitude of the result.
            let tol = 1e-11 * (1.0 + e.abs());
            prop_assert!((h - e).abs() < tol, "horner {h} vs naive {e}");
        }

        #[test]
        fn features_dot_beta_equals_eval(
            n in 1usize..=4,
            v in 0.0f64..1.0,
            c in 0.0f64..1.0,
        ) {
            let basis = PolyBasis::new(n);
            let beta: Vec<f64> = (0..basis.len()).map(|k| (k as f64) * 0.37 - 1.0).collect();
            let row = features(&basis, v, c);
            let dot: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            let ev = basis.eval(&beta, v, c).unwrap();
            prop_assert!((dot - ev).abs() < 1e-10 * (1.0 + ev.abs()));
        }
    }
}
