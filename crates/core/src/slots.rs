//! Simulation slots: the unit of horizontal parallelism (paper Fig. 3).
//!
//! "In general, each slot can be assigned an individual input stimuli and
//! operating point for evaluation. This way, the overall parallelization
//! scheme allows to trade-off arbitrarily between simulation of multiple
//! stimuli or multiple operating points."

/// One slot assignment: which pattern pair to replay under which supply
/// voltage. The load half of the operating point is per-net and comes
/// from the annotation, so only the AVFS voltage knob appears here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSpec {
    /// Index into the [`PatternSet`](avfs_atpg::PatternSet) under
    /// simulation.
    pub pattern: usize,
    /// Supply voltage of this circuit instance, V.
    pub voltage: f64,
}

/// Builds the full cross product `patterns × voltages` — `n` stimuli under
/// `m` operating points exactly as Fig. 3 draws the grid. Ordered
/// voltage-major so a batch prefers filling with one voltage first (keeps
/// delay-kernel inputs uniform within a batch, mirroring the SIMD-group
/// uniformity argument of Sec. IV.B).
pub fn cross(num_patterns: usize, voltages: &[f64]) -> Vec<SlotSpec> {
    let mut specs = Vec::with_capacity(num_patterns * voltages.len());
    for &voltage in voltages {
        for pattern in 0..num_patterns {
            specs.push(SlotSpec { pattern, voltage });
        }
    }
    specs
}

/// Builds slots replaying every pattern at one voltage.
pub fn at_voltage(num_patterns: usize, voltage: f64) -> Vec<SlotSpec> {
    cross(num_patterns, std::slice::from_ref(&voltage))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_order() {
        let specs = cross(2, &[0.8, 1.0]);
        assert_eq!(specs.len(), 4);
        assert_eq!(
            specs[0],
            SlotSpec {
                pattern: 0,
                voltage: 0.8
            }
        );
        assert_eq!(
            specs[1],
            SlotSpec {
                pattern: 1,
                voltage: 0.8
            }
        );
        assert_eq!(
            specs[2],
            SlotSpec {
                pattern: 0,
                voltage: 1.0
            }
        );
        assert_eq!(
            specs[3],
            SlotSpec {
                pattern: 1,
                voltage: 1.0
            }
        );
    }

    #[test]
    fn single_voltage_helper() {
        let specs = at_voltage(3, 0.7);
        assert_eq!(specs.len(), 3);
        assert!(specs.iter().all(|s| s.voltage == 0.7));
        assert_eq!(specs[2].pattern, 2);
    }

    #[test]
    fn empty_inputs() {
        assert!(cross(0, &[0.8]).is_empty());
        assert!(cross(5, &[]).is_empty());
    }
}
