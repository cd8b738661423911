//! Random process-variation injection.
//!
//! The paper positions its approximation error "as uncertainty due to
//! random process variations" (Sec. V.C) and motivates the whole flow
//! with the increasing process/voltage/temperature sensitivity of
//! nano-scaled CMOS. This module makes that uncertainty explicit:
//! [`derate`], a deterministic per-(die, pin, polarity) derating of the
//! scaled pin delays, the standard first-order model for uncorrelated
//! random process variation in gate-delay simulation (cf. variation-aware
//! fault grading, the paper's \[13\]).

/// Configuration of the random variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationConfig {
    /// Relative standard deviation of the per-pin delay derating
    /// (e.g. 0.05 = 5 % sigma).
    pub sigma: f64,
    /// Clamp on the absolute relative deviation (guards the tails so
    /// delays stay positive; 3–4 sigma is customary).
    pub max_deviation: f64,
    /// RNG seed; the same seed reproduces the same "die".
    pub seed: u64,
}

impl VariationConfig {
    /// A mild 5 %-sigma configuration.
    pub fn sigma5(seed: u64) -> VariationConfig {
        VariationConfig {
            sigma: 0.05,
            max_deviation: 0.2,
            seed,
        }
    }
}

/// One deterministic Monte Carlo delay-derate factor `1 + ε` with
/// `ε ~ N(0, sigma²)` truncated at `±max_deviation`, addressed by its
/// coordinates instead of drawn from a sequential stream — the one
/// variation model: the factor is a **pure hash** of `(seed, sample,
/// node, pin, polarity)` through the SplitMix64 finalizer, so
///
/// * any slot of a sampled grid can be (re)computed independently, in
///   any order, in any batch, by any thread — the draw never depends on
///   evaluation order (the determinism idiom of `avfs-inject`'s
///   `decide`),
/// * the draw is independent of the slot's operating-point *schedule*:
///   every segment of a scheduled slot sees the same die,
/// * `sample` is the die index — two scenarios evaluated at the same
///   sample index share process variation, which is exactly what a
///   failure-probability-vs-voltage curve wants (paired samples across
///   the voltage axis).
///
/// `sigma == 0.0` returns exactly `1.0` (no floating-point work at all),
/// so a zero-sigma Monte Carlo run multiplies every delay by the exact
/// identity.
pub fn derate(
    config: &VariationConfig,
    sample: u32,
    node: avfs_netlist::NodeId,
    pin: usize,
    polarity: avfs_netlist::library::Polarity,
) -> f64 {
    if config.sigma == 0.0 {
        return 1.0;
    }
    // Chain the coordinates through the SplitMix64 finalizer; the golden
    // ratio increment keeps zero-valued fields from collapsing the state.
    let mut key = config.seed;
    for field in [
        u64::from(sample),
        node.index() as u64,
        pin as u64,
        matches!(polarity, avfs_netlist::library::Polarity::Rise) as u64,
    ] {
        key = finalize(key.wrapping_add(0x9E3779B97F4A7C15).wrapping_add(field));
    }
    let dev = gaussian(key, config.sigma).clamp(-config.max_deviation, config.max_deviation);
    (1.0 + dev).max(0.0)
}

/// The SplitMix64 output finalizer: [`derate`]'s mixing hash and the
/// output function of its generator.
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A standard normal deviate by Box–Muller, scaled by `sigma`, from the
/// first two outputs of a SplitMix64 generator seeded with `key`.
fn gaussian(key: u64, sigma: f64) -> f64 {
    let unit = |draw: u64| {
        let z = finalize(key.wrapping_add(draw.wrapping_mul(0x9E3779B97F4A7C15)));
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let u1 = unit(1).max(f64::MIN_POSITIVE);
    let u2 = unit(2);
    sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::library::Polarity;
    use avfs_netlist::NodeId;

    #[test]
    fn derate_is_a_pure_function_of_its_coordinates() {
        let cfg = VariationConfig::sigma5(0xD1E);
        let base = derate(&cfg, 3, NodeId::from_index(17), 1, Polarity::Rise);
        // Replays exactly, in any call order.
        let _ = derate(&cfg, 9, NodeId::from_index(2), 0, Polarity::Fall);
        assert_eq!(
            base,
            derate(&cfg, 3, NodeId::from_index(17), 1, Polarity::Rise),
            "same coordinates must replay bit-identically"
        );
        // Every coordinate participates in the hash.
        for other in [
            derate(&cfg, 4, NodeId::from_index(17), 1, Polarity::Rise),
            derate(&cfg, 3, NodeId::from_index(18), 1, Polarity::Rise),
            derate(&cfg, 3, NodeId::from_index(17), 0, Polarity::Rise),
            derate(&cfg, 3, NodeId::from_index(17), 1, Polarity::Fall),
            derate(
                &VariationConfig::sigma5(0xD1F),
                3,
                NodeId::from_index(17),
                1,
                Polarity::Rise,
            ),
        ] {
            assert_ne!(base, other);
        }
    }

    /// Every Monte Carlo result rests on these bits: a change to the hash
    /// or the Gaussian re-baselines every die.
    #[test]
    fn derate_bits_are_pinned() {
        let cfg = VariationConfig::sigma5(0xD1E);
        for (sample, node, pin, bits) in [
            (0u32, 0usize, 0usize, 0x3fef3a12e8dea81d_u64),
            (3, 17, 1, 0x3fef13ca426fad43),
            (7, 123456, 2, 0x3fef1a9e917ead1b),
        ] {
            let f = derate(&cfg, sample, NodeId::from_index(node), pin, Polarity::Rise);
            assert_eq!(f.to_bits(), bits, "sample {sample}, node {node}, pin {pin}");
        }
    }

    #[test]
    fn derate_zero_sigma_is_exactly_one() {
        let cfg = VariationConfig {
            sigma: 0.0,
            max_deviation: 0.2,
            seed: 42,
        };
        for sample in 0..8u32 {
            let f = derate(&cfg, sample, NodeId::from_index(5), 0, Polarity::Rise);
            assert_eq!(f.to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn derate_bounded_and_distributed() {
        let cfg = VariationConfig::sigma5(0xBEEF);
        let mut devs = Vec::new();
        for sample in 0..64u32 {
            for node in 0..32 {
                for (pin, pol) in [(0, Polarity::Rise), (0, Polarity::Fall)] {
                    let f = derate(&cfg, sample, NodeId::from_index(node), pin, pol);
                    assert!(f > 0.0 && (f - 1.0).abs() <= cfg.max_deviation + 1e-12);
                    devs.push(f - 1.0);
                }
            }
        }
        let mean: f64 = devs.iter().sum::<f64>() / devs.len() as f64;
        let var: f64 =
            devs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / devs.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.01, "sigma {}", var.sqrt());
    }
}
