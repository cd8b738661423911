//! Shared plumbing for the experiment binaries.
//!
//! One binary per paper artifact:
//!
//! * `fig4` — approximation-error distributions of the cell-delay
//!   polynomials per order (plus `--ablation` for coefficient counts and
//!   regression runtimes),
//! * `fig5` — the NOR2_X2 rising-delay surface versus the interpolated
//!   reference,
//! * `table1` — circuit statistics and simulation performance: serial
//!   event-driven vs parallel-static (\[25\]) vs the proposed parametric
//!   engine (plus `--slots-ablation` and `--order-sweep`),
//! * `table2` — latest transition arrival times under the voltage sweep,
//! * `ablation_models` — the delay-model family ablation (polynomial
//!   kernels vs LUT interpolation vs the α-power law).
//!
//! Two more print one experiment table each: `activity_sweep` (gate
//! tasks the quiet scan skips over the stimuli activity factor) and
//! `scenario_sweep` (failure probability vs supply under droop schedules
//! with Monte Carlo variation). `checker`, `chaos` and `sta_crosscheck`
//! write the committed `CHECK_report.json` / `CHAOS_report.json`. Speed
//! is measured by the repo benchmark (`perfbench/`), not here.
//!
//! All binaries accept `--help`. Everything is deterministic (fixed
//! seeds), so `EXPERIMENTS.md` can be regenerated byte-for-byte.

#![forbid(unsafe_code)]

use avfs_atpg::pattern::{Pattern, PatternPair};
use avfs_atpg::PatternSet;
use avfs_delay::characterize::{characterize_library, CharacterizationConfig};
use avfs_delay::CharacterizedLibrary;
use avfs_netlist::{CellLibrary, Netlist, NodeKind};
use avfs_prng::{Rng, SeedableRng, SmallRng};
use avfs_spice::Technology;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

/// A minimal `--flag value` argument parser for the experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list.
    #[cfg(test)]
    fn from_list(list: &[&str]) -> Args {
        Args {
            raw: list.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Whether a bare flag like `--ablation` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == name)
    }

    /// The value following `--name`, parsed.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let pos = self.raw.iter().position(|a| a == name)?;
        self.raw.get(pos + 1)?.parse().ok()
    }

    /// All values of a repeatable option.
    pub fn values(&self, name: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut it = self.raw.iter();
        while let Some(a) = it.next() {
            if a == name {
                if let Some(v) = it.next() {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

/// The cell-type subset a set of netlists instantiates — characterize only
/// what the experiment simulates.
pub fn used_cells(netlists: &[&Netlist]) -> Vec<avfs_netlist::CellId> {
    let mut set = BTreeSet::new();
    for n in netlists {
        for (_, node) in n.iter() {
            if let NodeKind::Gate(cell) = node.kind() {
                set.insert(cell);
            }
        }
    }
    set.into_iter().collect()
}

/// Characterizes the cells used by `netlists` at polynomial order `n` on
/// the default lattice ([`avfs_spice::SweepConfig::sparse`]: six of the
/// paper's twelve supplies at all nine loads).
///
/// # Panics
///
/// Panics on characterization failure (experiment binaries fail loudly).
pub fn characterize_used(
    netlists: &[&Netlist],
    library: &Arc<CellLibrary>,
    order: usize,
) -> CharacterizedLibrary {
    let cells = used_cells(netlists);
    let config = CharacterizationConfig {
        order,
        ..CharacterizationConfig::default()
    };
    characterize_library(library, &Technology::nm15(), &config, Some(&cells))
        .expect("characterization of the synthetic library cannot fail")
}

/// Stimuli with a controlled *activity factor*: each pattern pair's
/// launch is pseudo-random and its capture flips every launch bit
/// independently with probability `activity`, so `activity = 0.0` is a
/// fully quiescent test set (every input constant) and `activity = 1.0`
/// toggles every input. The share of gate tasks the engine's quiet scan
/// skips is a function of exactly this knob (see the `activity_sweep`
/// binary).
/// Deterministic in `seed`.
pub fn activity_patterns(width: usize, count: usize, activity: f64, seed: u64) -> PatternSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let launch = Pattern::random(width, &mut rng);
            let mut capture = launch.clone();
            for k in 0..width {
                if rng.gen_bool(activity) {
                    capture.set_bit(k, !capture.bit(k));
                }
            }
            PatternPair::new(launch, capture).expect("launch and capture share a width")
        })
        .collect()
}

/// Formats a duration the way Table I prints runtimes (`5ms`, `1.93s`,
/// `2:20m`, `0:49h`).
pub fn fmt_runtime(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.0}ms", s * 1e3)
    } else if s < 60.0 {
        format!("{s:.2}s")
    } else if s < 3600.0 {
        format!("{}:{:02}m", (s / 60.0) as u64, (s % 60.0) as u64)
    } else {
        format!(
            "{}:{:02}h",
            (s / 3600.0) as u64,
            ((s % 3600.0) / 60.0) as u64
        )
    }
}

/// Formats a picosecond value the way Table II prints arrival times
/// (`145.3p`, `2.234n`).
pub fn fmt_ps(ps: f64) -> String {
    if ps >= 1000.0 {
        format!("{:.3}n", ps / 1000.0)
    } else {
        format!("{ps:.1}p")
    }
}

/// The rows of the first Markdown table after the first line of `doc`
/// that starts with `heading` (an experiment heading such as `## E6`),
/// each split into its trimmed cells.
pub fn doc_table<'d>(doc: &'d str, heading: &'d str) -> impl Iterator<Item = Vec<&'d str>> + 'd {
    doc.lines()
        .skip_while(move |line| !line.starts_with(heading))
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .map(|row| row.split('|').skip(1).map(str::trim).collect())
}

/// The `--check` of a binary whose printed table a document commits:
/// whether `read`, applied to the document at `path`, gives exactly
/// `fresh`. Reports the verdict either way, naming the table `what`.
pub fn check_table<T: PartialEq + Debug>(
    bin: &str,
    path: &str,
    what: &str,
    read: impl Fn(&str) -> Vec<T>,
    fresh: &[T],
) -> bool {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => read(&text),
        Err(e) => {
            eprintln!("{bin} --check: cannot read {path}: {e}");
            return false;
        }
    };
    if committed == fresh {
        println!(
            "{bin} --check: {path}'s {what} equals a fresh run ({} rows)",
            fresh.len()
        );
        return true;
    }
    eprintln!("{bin} --check: {path}'s {what} differs from a fresh run:");
    eprintln!("  committed {committed:?}");
    eprintln!("  fresh     {fresh:?}");
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse() {
        let a = Args::from_list(&[
            "--scale",
            "0.5",
            "--ablation",
            "--circuit",
            "b17",
            "--circuit",
            "b22",
        ]);
        assert!(a.flag("--ablation"));
        assert!(!a.flag("--missing"));
        assert_eq!(a.value::<f64>("--scale"), Some(0.5));
        assert_eq!(a.value::<f64>("--nope"), None);
        assert_eq!(a.values("--circuit"), vec!["b17", "b22"]);
    }

    #[test]
    fn runtime_formatting() {
        assert_eq!(fmt_runtime(Duration::from_millis(5)), "5ms");
        assert_eq!(fmt_runtime(Duration::from_millis(1930)), "1.93s");
        assert_eq!(fmt_runtime(Duration::from_secs(140)), "2:20m");
        assert_eq!(fmt_runtime(Duration::from_secs(2940)), "49:00m");
        assert_eq!(fmt_runtime(Duration::from_secs(4080)), "1:08h");
    }

    #[test]
    fn ps_formatting() {
        assert_eq!(fmt_ps(145.3), "145.3p");
        assert_eq!(fmt_ps(2234.0), "2.234n");
    }

    #[test]
    fn activity_patterns_track_the_factor() {
        // Factor 0: fully quiescent — capture equals launch everywhere.
        let quiet = activity_patterns(16, 8, 0.0, 42);
        assert_eq!(quiet.len(), 8);
        for pair in quiet.pairs() {
            assert_eq!(pair.launch, pair.capture);
        }
        // Factor 1: every input toggles.
        let busy = activity_patterns(16, 8, 1.0, 42);
        for pair in busy.pairs() {
            for k in 0..16 {
                assert_ne!(pair.launch.bit(k), pair.capture.bit(k));
            }
        }
        // Intermediate factors flip some bits but not all, and the set is
        // deterministic in the seed.
        let mid = activity_patterns(64, 4, 0.5, 7);
        let flips: usize = mid
            .pairs()
            .iter()
            .map(|p| {
                (0..64)
                    .filter(|&k| p.launch.bit(k) != p.capture.bit(k))
                    .count()
            })
            .sum();
        assert!(flips > 0 && flips < 64 * 4, "got {flips} flips");
        assert_eq!(mid, activity_patterns(64, 4, 0.5, 7));
    }

    #[test]
    fn used_cells_collects_subset() {
        let lib = CellLibrary::nangate15_like();
        let c17 = avfs_circuits::c17(&lib).unwrap();
        let cells = used_cells(&[&c17]);
        assert_eq!(cells.len(), 1); // c17 is all NAND2
        assert_eq!(lib.cell(cells[0]).name(), "NAND2_X1");
    }
}
