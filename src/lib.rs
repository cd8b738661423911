//! `avfs` — facade crate re-exporting the whole AVFS time-simulation
//! workspace under one roof.
//!
//! This is a reproduction of Schneider & Wunderlich, *"GPU-accelerated Time
//! Simulation of Systems with Adaptive Voltage and Frequency Scaling"*
//! (DATE'20). See the repository `README.md` for an architecture overview,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for the
//! paper-vs-measured record.
//!
//! The sub-crates re-exported here:
//!
//! * [`netlist`] — gate-level netlist substrate and synthetic cell library,
//! * [`spice`] — transistor-level characterization (SPICE substitute),
//! * [`regression`] — OLS regression, polynomial bases, normalizers,
//! * [`delay`] — parametric delay models and kernels (the paper's Sec. III),
//! * [`sdf`] — SDF / SPEF subset parsing and netlist annotation,
//! * [`waveform`] — glitch-accurate waveform algebra,
//! * [`sim`] — the parallel thread-grid time simulator and baselines
//!   (the paper's Sec. IV), split compile-once / simulate-many:
//!   [`CompiledNetlist`](sim::CompiledNetlist) artifacts,
//!   [`Session`](sim::Session)s and the caching
//!   [`BatchRunner`](sim::BatchRunner), each taking any
//!   [`Launch`](sim::Launch) request down one launch path,
//! * [`atpg`] — pattern-pair generation (transition + timing-aware),
//! * [`circuits`] — benchmark circuits and Table-I/II profiles,
//! * [`obs`] — phase timers, counters and histograms behind
//!   [`SimOptions::profiling`](sim::SimOptions) (dependency-free),
//! * [`check`] — four-tier static analysis: netlist lints, delay-model
//!   lints, the concurrency/unsafe audit, and the STA cross-validation
//!   rules, each writing into one per-rule-capped
//!   [`Findings`](check::Findings) collector, behind the `checker` CI
//!   gate and every run's
//!   [`RunDiagnostics::validation_findings`](sim::RunDiagnostics),
//! * [`sta`] — the independent static-timing oracle: a
//!   per-pin-transition timing graph with earliest/latest arrival
//!   propagation and critical-path extraction, cross-validating the
//!   simulator per operating point via
//!   [`sim::sta::crosscheck`],
//! * [`inject`] — deterministic fault injection: seeded
//!   [`FaultPlan`](inject::FaultPlan)s behind
//!   [`SimOptions::fault_plan`](sim::SimOptions) and the `chaos` soak
//!   harness (dependency-free; no-op when unarmed).
//!
//! # Quickstart
//!
//! The core flow — characterize a cell library, compile the netlist
//! against it, sweep supply voltages in one launch, and read the profiled
//! result (the runnable
//! `examples/quickstart.rs` is the same flow with reporting):
//!
//! ```
//! use avfs::atpg::PatternSet;
//! use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
//! use avfs::netlist::CellLibrary;
//! use avfs::sim::{slots, CompiledNetlist, SimOptions};
//! use avfs::spice::Technology;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Offline (Fig. 1 of the paper): sweep → regression → delay kernels.
//! let library = CellLibrary::nangate15_like();
//! let netlist = Arc::new(avfs::circuits::c17(&library)?);
//! let nand2 = library.find("NAND2_X1").expect("library cell");
//! let chars = characterize_library(
//!     &library,
//!     &Technology::nm15(),
//!     &CharacterizationConfig::fast(), // coarse sweep keeps the doctest quick
//!     Some(&[nand2]),
//! )?;
//!
//! // Online (Sec. IV): simulate the same patterns at two supply voltages.
//! let compiled = CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)?;
//! let patterns = PatternSet::lfsr(netlist.inputs().len(), 8, 42);
//! let options = SimOptions {
//!     profiling: true, // attach a phase-level profile to the run
//!     ..SimOptions::default()
//! };
//! let run = compiled.launch(&patterns, &slots::cross(patterns.len(), &[0.55, 0.8]), &options)?;
//!
//! let t_low = run.latest_arrival_at(0.55).expect("c17 outputs toggle");
//! let t_nom = run.latest_arrival_at(0.8).expect("c17 outputs toggle");
//! assert!(t_low > t_nom, "lower V_DD means slower logic");
//! let profile = run.profile.as_ref().expect("profiling was on");
//! assert!(profile.phase("engine/run").is_some());
//! # Ok(())
//! # }
//! ```
//!
//! # Compile once, simulate many
//!
//! Repeated runs — the AVFS monitoring loop that re-simulates small
//! input deltas over and over — should not pay netlist compilation per
//! run. Compile the netlist into an immutable
//! [`CompiledNetlist`](sim::CompiledNetlist) artifact and launch it
//! through a [`BatchRunner`](sim::BatchRunner), which caches artifacts
//! by content hash and keeps its worker pool parked between runs
//! (bit-identical to a bare
//! [`CompiledNetlist::launch`](sim::CompiledNetlist::launch)):
//!
//! ```
//! use avfs::atpg::PatternSet;
//! use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
//! use avfs::netlist::CellLibrary;
//! use avfs::sim::{slots, BatchRunner, CompileKey, CompiledNetlist, SimOptions};
//! use avfs::spice::Technology;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = CellLibrary::nangate15_like();
//! let netlist = Arc::new(avfs::circuits::c17(&library)?);
//! let nand2 = library.find("NAND2_X1").expect("library cell");
//! let chars = characterize_library(
//!     &library,
//!     &Technology::nm15(),
//!     &CharacterizationConfig::fast(),
//!     Some(&[nand2]),
//! )?;
//!
//! let runner = BatchRunner::new(1, 8);
//! let key = CompileKey::of(&netlist, &chars, "nominal");
//! let patterns = PatternSet::lfsr(netlist.inputs().len(), 8, 42);
//! let slot_list = slots::at_voltage(patterns.len(), 0.8);
//! let mut first = None;
//! for _ in 0..3 {
//!     // Compiled exactly once; later iterations reuse the artifact.
//!     let compiled = runner.compile(key, || {
//!         CompiledNetlist::from_characterization(Arc::clone(&netlist), &chars)
//!     })?;
//!     let run = runner.run(&compiled, &patterns, &slot_list, &SimOptions::default())?;
//!     let prev = first.get_or_insert_with(|| run.slots.clone());
//!     assert_eq!(*prev, run.slots, "launches are bit-for-bit reproducible");
//! }
//! assert_eq!(runner.compile_misses(), 1);
//! assert_eq!(runner.compile_hits(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use avfs_atpg as atpg;
pub use avfs_check as check;
pub use avfs_circuits as circuits;
pub use avfs_core as sim;
pub use avfs_delay as delay;
pub use avfs_inject as inject;
pub use avfs_netlist as netlist;
pub use avfs_obs as obs;
pub use avfs_regression as regression;
pub use avfs_sdf as sdf;
pub use avfs_spice as spice;
pub use avfs_sta as sta;
pub use avfs_waveform as waveform;
