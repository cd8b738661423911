//! Coefficient storage indexed by (cell type, input pin, polarity).
//!
//! Mirrors the paper's GPU-side layout (Sec. IV): "the coefficients of the
//! delay polynomials are stored in a constant double-precision
//! floating-point array structure in the global memory, which is indexed by
//! the cell type, input pin and transition polarity". Here the flat `f64`
//! arena plus an offset table plays the role of that constant array; all
//! kernels share it read-only.

use crate::polynomial::SurfacePolynomial;
use crate::DelayError;
use avfs_netlist::library::{CellId, Polarity};

/// Flat coefficient table for a whole cell library.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientTable {
    order: usize,
    /// Stride per surface: `(order+1)²`.
    stride: usize,
    /// `offsets[cell] = Some(base)` → pin `p`, polarity `q` lives at
    /// `base + (2p + q) · stride`.
    offsets: Vec<Option<usize>>,
    /// Number of input pins per cell entry.
    pins: Vec<u8>,
    arena: Vec<f64>,
}

impl CoefficientTable {
    /// Creates an empty table for `num_cells` cell types at order `N`.
    pub fn new(num_cells: usize, order: usize) -> CoefficientTable {
        CoefficientTable {
            order,
            stride: (order + 1) * (order + 1),
            offsets: vec![None; num_cells],
            pins: vec![0; num_cells],
            arena: Vec::new(),
        }
    }

    /// Per-variable polynomial order `N`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of cell-type slots the table was created for (characterized
    /// or not) — the iteration bound for table-wide audits.
    pub fn num_cells(&self) -> usize {
        self.offsets.len()
    }

    /// Number of input pins characterized for `cell` (0 when the cell has
    /// no kernels installed).
    pub fn num_pins(&self, cell: CellId) -> usize {
        match self.offsets.get(cell.index()) {
            Some(Some(_)) => self.pins[cell.index()] as usize,
            _ => 0,
        }
    }

    /// Total `f64` storage — the "negligible memory" the paper quantifies
    /// against waveform storage.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// A deterministic 64-bit hash of the table's fitted content: order,
    /// per-cell offsets and pin counts, and every coefficient by
    /// IEEE-754 bit pattern. Any refit — a different order, a retuned
    /// coefficient, an added cell — changes the hash. Used by
    /// [`CharacterizedLibrary::content_hash`](crate::CharacterizedLibrary::content_hash)
    /// as the fitted half of compiled-artifact cache keys.
    pub fn content_hash(&self) -> u64 {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        h.write_usize(self.order);
        h.write_usize(self.offsets.len());
        for offset in &self.offsets {
            match offset {
                None => h.write_usize(0),
                Some(base) => {
                    h.write_usize(1);
                    h.write_usize(*base);
                }
            }
        }
        h.write(&self.pins);
        h.write_usize(self.arena.len());
        for &c in &self.arena {
            h.write_f64(c);
        }
        h.finish()
    }

    /// Installs the per-pin/polarity surfaces of one cell.
    ///
    /// `surfaces[p][q]` is the polynomial for input pin `p` and polarity
    /// index `q` ([`Polarity::index`]).
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::BadCoefficients`] if any surface's order
    /// disagrees with the table order, and [`DelayError::MissingCell`] if
    /// `cell` is out of range.
    pub fn insert(
        &mut self,
        cell: CellId,
        surfaces: &[[SurfacePolynomial; 2]],
    ) -> Result<(), DelayError> {
        let idx = cell.index();
        if idx >= self.offsets.len() {
            return Err(DelayError::MissingCell { cell_index: idx });
        }
        for pair in surfaces {
            for s in pair {
                if s.order() != self.order {
                    return Err(DelayError::BadCoefficients {
                        expected: self.stride,
                        got: (s.order() + 1) * (s.order() + 1),
                    });
                }
            }
        }
        let base = self.arena.len();
        for pair in surfaces {
            for s in pair {
                self.arena.extend_from_slice(s.coefficients());
            }
        }
        self.offsets[idx] = Some(base);
        self.pins[idx] = surfaces.len() as u8;
        Ok(())
    }

    /// Fetches the coefficient slice for (cell, pin, polarity) — the
    /// paper's step 4, "fetch corresponding delay coefficients β".
    ///
    /// # Errors
    ///
    /// Returns [`DelayError::MissingCell`] if the cell has no kernels or
    /// the pin is out of range.
    #[inline]
    pub fn coefficients(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
    ) -> Result<&[f64], DelayError> {
        let idx = cell.index();
        let base = self
            .offsets
            .get(idx)
            .copied()
            .flatten()
            .ok_or(DelayError::MissingCell { cell_index: idx })?;
        if pin >= self.pins[idx] as usize {
            return Err(DelayError::MissingCell { cell_index: idx });
        }
        let start = base + (2 * pin + polarity.index()) * self.stride;
        Ok(&self.arena[start..start + self.stride])
    }

    /// Evaluates the deviation polynomial for (cell, pin, polarity) at a
    /// normalized point. Hot path: one offset computation plus nested
    /// Horner on the shared arena.
    ///
    /// # Errors
    ///
    /// Same as [`CoefficientTable::coefficients`].
    #[inline]
    pub fn deviation(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        p: crate::op::NormalizedPoint,
    ) -> Result<f64, DelayError> {
        let beta = self.coefficients(cell, pin, polarity)?;
        Ok(avfs_regression::poly::eval_horner(
            self.order, beta, p.v, p.c,
        ))
    }

    /// Lane-batched [`CoefficientTable::deviation`]: evaluates the same
    /// surface at every point in one call, `out[k] = f(points[k])`.
    ///
    /// One offset computation is amortized over the whole lane group and the
    /// Horner reduction runs through the unrolled multiply-add kernel
    /// ([`avfs_regression::poly::eval_horner_lanes`]); each lane is bitwise
    /// identical to the scalar path.
    ///
    /// # Errors
    ///
    /// Same as [`CoefficientTable::coefficients`].
    ///
    /// # Panics
    ///
    /// Panics if `points.len() != out.len()`.
    #[inline]
    pub fn deviation_lanes(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        points: &[crate::op::NormalizedPoint],
        out: &mut [f64],
    ) -> Result<(), DelayError> {
        let beta = self.coefficients(cell, pin, polarity)?;
        crate::polynomial::eval_lanes_with(self.order, beta, points, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::NormalizedPoint;

    fn constant_surface(order: usize, value: f64) -> SurfacePolynomial {
        let mut coeffs = vec![0.0; (order + 1) * (order + 1)];
        coeffs[0] = value;
        SurfacePolynomial::new(order, coeffs).unwrap()
    }

    #[test]
    fn insert_and_fetch() {
        let mut t = CoefficientTable::new(4, 2);
        let surfaces = vec![
            [constant_surface(2, 0.1), constant_surface(2, 0.2)],
            [constant_surface(2, 0.3), constant_surface(2, 0.4)],
        ];
        t.insert(CellId::from_index(1), &surfaces).unwrap();
        assert_eq!(t.num_pins(CellId::from_index(0)), 0);
        assert_eq!(t.num_pins(CellId::from_index(1)), 2);
        assert_eq!(t.arena_len(), 4 * 9);
        let p = NormalizedPoint { v: 0.5, c: 0.5 };
        let cell = CellId::from_index(1);
        assert!((t.deviation(cell, 0, Polarity::Rise, p).unwrap() - 0.1).abs() < 1e-12);
        assert!((t.deviation(cell, 0, Polarity::Fall, p).unwrap() - 0.2).abs() < 1e-12);
        assert!((t.deviation(cell, 1, Polarity::Rise, p).unwrap() - 0.3).abs() < 1e-12);
        assert!((t.deviation(cell, 1, Polarity::Fall, p).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn deviation_lanes_matches_scalar_bitwise() {
        let mut t = CoefficientTable::new(2, 2);
        let coeffs: Vec<f64> = (0..9).map(|k| 0.011 * k as f64 - 0.03).collect();
        let s = SurfacePolynomial::new(2, coeffs).unwrap();
        t.insert(CellId::from_index(0), &[[s.clone(), s]]).unwrap();
        let cell = CellId::from_index(0);
        for len in [0usize, 1, 3, 4, 5, 8, 11] {
            let points: Vec<NormalizedPoint> = (0..len)
                .map(|k| NormalizedPoint {
                    v: 0.02 + 0.08 * k as f64,
                    c: 0.9 - 0.07 * k as f64,
                })
                .collect();
            let mut out = vec![0.0; len];
            t.deviation_lanes(cell, 0, Polarity::Rise, &points, &mut out)
                .unwrap();
            for (k, &p) in points.iter().enumerate() {
                let scalar = t.deviation(cell, 0, Polarity::Rise, p).unwrap();
                assert_eq!(out[k].to_bits(), scalar.to_bits());
            }
        }
        // Errors propagate before any lane is touched.
        let mut out = [0.0; 2];
        assert!(t
            .deviation_lanes(
                CellId::from_index(1),
                0,
                Polarity::Rise,
                &[NormalizedPoint { v: 0.5, c: 0.5 }; 2],
                &mut out
            )
            .is_err());
    }

    #[test]
    fn missing_cell_and_pin_errors() {
        let mut t = CoefficientTable::new(2, 1);
        let cell0 = CellId::from_index(0);
        let p = NormalizedPoint { v: 0.0, c: 0.0 };
        assert!(matches!(
            t.deviation(cell0, 0, Polarity::Rise, p),
            Err(DelayError::MissingCell { cell_index: 0 })
        ));
        t.insert(
            cell0,
            &[[constant_surface(1, 0.0), constant_surface(1, 0.0)]],
        )
        .unwrap();
        assert!(t.deviation(cell0, 0, Polarity::Rise, p).is_ok());
        // Pin 1 was never installed.
        assert!(t.deviation(cell0, 1, Polarity::Rise, p).is_err());
        // Cell index out of table range.
        assert!(t.insert(CellId::from_index(9), &[]).is_err());
    }

    #[test]
    fn order_mismatch_rejected() {
        let mut t = CoefficientTable::new(2, 3);
        assert!(matches!(
            t.insert(
                CellId::from_index(0),
                &[[constant_surface(2, 0.0), constant_surface(2, 0.0)]]
            ),
            Err(DelayError::BadCoefficients { .. })
        ));
    }

    #[test]
    fn memory_footprint_matches_paper_counts() {
        // One pin stores (N+1)² coefficients per polarity: 4, 9, 16, 25 …
        for (n, per_pin) in [(1usize, 4usize), (2, 9), (3, 16), (4, 25)] {
            let mut t = CoefficientTable::new(1, n);
            t.insert(
                CellId::from_index(0),
                &[[constant_surface(n, 0.0), constant_surface(n, 0.0)]],
            )
            .unwrap();
            assert_eq!(t.arena_len(), 2 * per_pin);
        }
    }
}
