//! Random process-variation injection.
//!
//! The paper positions its approximation error "as uncertainty due to
//! random process variations" (Sec. V.C) and motivates the whole flow
//! with the increasing process/voltage/temperature sensitivity of
//! nano-scaled CMOS. This module makes that uncertainty explicit: a
//! deterministic per-instance log-normal-ish derating of the nominal
//! pin delays, the standard first-order model for uncorrelated random
//! process variation in gate-delay simulation (cf. variation-aware fault
//! grading, the paper's \[13\]).

use crate::annotation::TimingAnnotation;
use avfs_waveform::PinDelays;

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

/// Derives a process-varied copy of an annotation: every pin delay is
/// scaled by an independent factor `1 + ε` with `ε ~ N(0, sigma²)`
/// truncated at `±max_deviation`. Loads are unchanged (they model layout,
/// not process).
///
/// # Example
///
/// ```
/// use avfs_delay::{variation::{apply_variation, VariationConfig}, TimingAnnotation};
/// use avfs_netlist::{CellLibrary, NetlistBuilder};
/// use avfs_waveform::PinDelays;
///
/// # fn main() -> Result<(), avfs_netlist::NetlistError> {
/// let lib = CellLibrary::nangate15_like();
/// let mut b = NetlistBuilder::new("t", &lib);
/// let a = b.add_input("a")?;
/// let g = b.add_gate("g", "INV_X1", &[a])?;
/// b.add_output("y", g)?;
/// let netlist = b.finish()?;
/// let mut ann = TimingAnnotation::zero(&netlist);
/// ann.node_delays_mut(netlist.find("g").expect("exists"))[0] =
///     PinDelays { rise: 10.0, fall: 10.0 };
/// let varied = apply_variation(&ann, &VariationConfig::sigma5(1));
/// let d = varied.pin_delays(netlist.find("g").expect("exists"), 0);
/// assert!(d.rise > 8.0 && d.rise < 12.0);
/// # Ok(())
/// # }
/// ```
pub fn apply_variation(
    annotation: &TimingAnnotation,
    config: &VariationConfig,
) -> TimingAnnotation {
    let mut rng = SplitMix64::new(config.seed);
    let mut varied = annotation.clone();
    for node in 0..annotation.len() {
        let id = avfs_netlist::NodeId::from_index(node);
        let pins = varied.node_delays_mut(id);
        for d in pins.iter_mut() {
            let dev_r =
                gaussian(&mut rng, config.sigma).clamp(-config.max_deviation, config.max_deviation);
            let dev_f =
                gaussian(&mut rng, config.sigma).clamp(-config.max_deviation, config.max_deviation);
            *d = PinDelays {
                rise: (d.rise * (1.0 + dev_r)).max(0.0),
                fall: (d.fall * (1.0 + dev_f)).max(0.0),
            };
        }
    }
    varied
}

/// One deterministic Monte Carlo delay-derate factor `1 + ε` with
/// `ε ~ N(0, sigma²)` truncated at `±max_deviation`, addressed by its
/// coordinates instead of drawn from a sequential stream.
///
/// Where [`apply_variation`] materializes one varied annotation per die,
/// `derate` is the sampling form the scenario engine uses: the factor is
/// a **pure hash** of `(seed, sample, node, pin, polarity)` through the
/// SplitMix64 finalizer, so
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
    let mut rng = SplitMix64::new(key);
    let dev = gaussian(&mut rng, config.sigma).clamp(-config.max_deviation, config.max_deviation);
    (1.0 + dev).max(0.0)
}

/// The SplitMix64 output finalizer, used standalone as a mixing hash by
/// [`derate`].
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A tiny deterministic PRNG (SplitMix64) — keeps the crate free of
/// external dependencies while staying reproducible.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        finalize(self.state)
    }

    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Standard normal deviate by Box–Muller, scaled by sigma.
fn gaussian(rng: &mut SplitMix64, sigma: f64) -> f64 {
    let u1 = rng.next_unit().max(f64::MIN_POSITIVE);
    let u2 = rng.next_unit();
    sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::{CellLibrary, NetlistBuilder, NodeKind};

    fn annotated() -> (avfs_netlist::Netlist, TimingAnnotation) {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("v", &lib);
        let a = b.add_input("a").unwrap();
        let mut prev = a;
        for i in 0..50 {
            prev = b.add_gate(format!("g{i}"), "INV_X1", &[prev]).unwrap();
        }
        b.add_output("y", prev).unwrap();
        let n = b.finish().unwrap();
        let mut ann = TimingAnnotation::zero(&n);
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                ann.node_delays_mut(id)[0] = PinDelays {
                    rise: 10.0,
                    fall: 12.0,
                };
            }
        }
        (n, ann)
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, ann) = annotated();
        let a = apply_variation(&ann, &VariationConfig::sigma5(7));
        let b = apply_variation(&ann, &VariationConfig::sigma5(7));
        let c = apply_variation(&ann, &VariationConfig::sigma5(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let (_, ann) = annotated();
        let v = apply_variation(
            &ann,
            &VariationConfig {
                sigma: 0.0,
                max_deviation: 0.2,
                seed: 1,
            },
        );
        assert_eq!(v, ann);
    }

    #[test]
    fn deviations_bounded_and_centered() {
        let (n, ann) = annotated();
        let v = apply_variation(&ann, &VariationConfig::sigma5(3));
        let mut devs = Vec::new();
        for (id, node) in n.iter() {
            if matches!(node.kind(), NodeKind::Gate(_)) {
                let d = v.pin_delays(id, 0);
                devs.push(d.rise / 10.0 - 1.0);
                devs.push(d.fall / 12.0 - 1.0);
                assert!(d.rise > 0.0 && d.fall > 0.0);
                assert!((d.rise / 10.0 - 1.0).abs() <= 0.2 + 1e-12);
            }
        }
        // Sample mean near zero, sample sigma near 5 %.
        let mean: f64 = devs.iter().sum::<f64>() / devs.len() as f64;
        let var: f64 =
            devs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / devs.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn loads_unchanged() {
        let (n, ann) = annotated();
        let v = apply_variation(&ann, &VariationConfig::sigma5(3));
        for (id, _) in n.iter() {
            assert_eq!(ann.load_ff(id), v.load_ff(id));
        }
    }

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
