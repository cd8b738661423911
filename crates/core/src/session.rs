//! A lightweight per-run launch handle over a compiled artifact — the
//! simulate-many half of the compile-once / simulate-many split.
//!
//! A [`Session`] binds an `Arc`-shared [`CompiledNetlist`] to a worker
//! pool that is spawned **once** — at session construction — and parked
//! across runs, instead of respawned per launch as a bare
//! [`CompiledNetlist::launch`] does. Repeated launches on a session
//! therefore pay neither compile cost nor thread-spawn cost; only the
//! launch itself.
//!
//! Threads are resolved once, at pool construction. A per-run
//! [`SimOptions::threads`] override that disagrees with the pool is a
//! hard [`SimError::ThreadMismatch`] — a parked pool cannot be resized
//! mid-flight, and silently ignoring the override would make the same
//! options behave differently on `CompiledNetlist::launch` and
//! `Session::run`.

use crate::compile::CompiledNetlist;
use crate::engine::{Launch, SimOptions};
use crate::pool::ParkedPool;
use crate::results::SimRun;
use crate::scenario::{MonteCarlo, ScenarioSpec};
use crate::SimError;
use avfs_atpg::PatternSet;
use std::sync::Arc;

/// A per-run simulation session: one compiled artifact plus one parked
/// worker pool, reused across any number of launches.
///
/// Runs take `&mut self` — the epoch-barrier pool admits exactly one run
/// at a time, and exclusive borrows encode that at compile time. To run
/// concurrently, clone the `Arc<CompiledNetlist>` into more sessions
/// (the artifact is immutable and `Send + Sync`), or front one
/// [`BatchRunner`](crate::batch::BatchRunner) with its internal run
/// queue.
///
/// ```
/// use avfs_core::{slots, CompiledNetlist, Session, SimOptions};
/// use avfs_atpg::PatternSet;
/// use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
/// use avfs_netlist::CellLibrary;
/// use std::sync::Arc;
///
/// let library = CellLibrary::nangate15_like();
/// let netlist = Arc::new(avfs_circuits::ripple_carry_adder(4, &library)?);
/// let compiled = Arc::new(CompiledNetlist::compile(
///     Arc::clone(&netlist),
///     Arc::new(TimingAnnotation::zero(&netlist)),
///     Arc::new(StaticModel::new(ParameterSpace::paper())),
/// )?);
/// let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
/// let slot_list = slots::at_voltage(patterns.len(), 0.8);
/// let mut session = Session::new(compiled, 2);
/// // Both launches reuse the same two parked workers.
/// let a = session.run(&patterns, &slot_list, &SimOptions::default())?;
/// let b = session.run(&patterns, &slot_list, &SimOptions::default())?;
/// assert_eq!(a.slots, b.slots);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Session {
    compiled: Arc<CompiledNetlist>,
    pool: ParkedPool,
}

impl Session {
    /// Creates a session over `compiled` with `threads` workers spawned
    /// now and parked across runs; `0` resolves to the machine's
    /// available parallelism once, here, rather than per run.
    pub fn new(compiled: Arc<CompiledNetlist>, threads: usize) -> Session {
        Session {
            compiled,
            pool: ParkedPool::new(threads),
        }
    }

    /// The session's compiled artifact.
    pub fn compiled(&self) -> &Arc<CompiledNetlist> {
        &self.compiled
    }

    /// The worker count resolved at construction.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Times a launch on this session had to allocate its waveform
    /// arena instead of reusing the resident one: the first launch, and
    /// any later one whose `(slots × nodes, arena_capacity)` shape the
    /// resident allocations could not hold. 1 after any number of
    /// same-shape launches.
    pub fn arena_allocations(&self) -> u64 {
        self.pool.arena_allocations()
    }

    /// Simulates `launch` over `patterns` on the parked pool. Semantics,
    /// results and errors are identical to
    /// [`CompiledNetlist::launch`] (bit-for-bit: the pool only changes
    /// where threads come from, not what they compute), plus
    /// [`SimError::ThreadMismatch`] for a conflicting per-run
    /// [`SimOptions::threads`] override.
    pub fn run<'a>(
        &mut self,
        patterns: &PatternSet,
        launch: impl Into<Launch<'a>>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let plan = self.compiled.prepare(patterns, launch.into())?;
        self.compiled.execute(plan, options, &self.pool)
    }

    /// [`Session::run`] of a [`Launch::Scenarios`] request.
    pub fn run_scenarios(
        &mut self,
        patterns: &PatternSet,
        scenarios: &[ScenarioSpec],
        mc: Option<&MonteCarlo>,
        capture_deadline_ps: Option<f64>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        self.run(
            patterns,
            Launch::Scenarios {
                scenarios,
                mc: mc.copied(),
                capture_deadline_ps,
            },
            options,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::cross;
    use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
    use avfs_netlist::CellLibrary;

    fn compiled_adder() -> Arc<CompiledNetlist> {
        let library = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::ripple_carry_adder(4, &library).unwrap());
        Arc::new(
            CompiledNetlist::compile(
                Arc::clone(&netlist),
                Arc::new(TimingAnnotation::zero(&netlist)),
                Arc::new(StaticModel::new(ParameterSpace::paper())),
            )
            .unwrap(),
        )
    }

    #[test]
    fn session_matches_engine_across_repeated_runs() {
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 6, 7);
        let slot_list = cross(patterns.len(), &[0.7, 0.8, 1.0]);
        let opts = SimOptions {
            threads: 1,
            ..SimOptions::default()
        };
        let reference = compiled.launch(&patterns, &slot_list, &opts).unwrap();
        let mut session = Session::new(Arc::clone(&compiled), 4);
        assert_eq!(session.threads(), 4);
        // Three launches on the same parked pool, all bit-identical to
        // the per-run-pool single-threaded reference.
        for _ in 0..3 {
            let run = session
                .run(&patterns, &slot_list, &SimOptions::default())
                .unwrap();
            assert_eq!(run.slots, reference.slots);
            assert_eq!(run.diagnostics, reference.diagnostics);
        }
    }

    #[test]
    fn thread_override_mismatch_is_rejected() {
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 2, 7);
        let slot_list = cross(patterns.len(), &[0.8]);
        let mut session = Session::new(compiled, 2);
        // 0 (auto) and the pool's own count are accepted...
        for threads in [0, 2] {
            session
                .run(
                    &patterns,
                    &slot_list,
                    &SimOptions {
                        threads,
                        ..SimOptions::default()
                    },
                )
                .unwrap();
        }
        // ...any other override is a hard error naming both counts.
        let err = session
            .run(
                &patterns,
                &slot_list,
                &SimOptions {
                    threads: 8,
                    ..SimOptions::default()
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ThreadMismatch {
                pool: 2,
                requested: 8
            }
        );
    }

    #[test]
    fn single_threaded_session_runs_inline() {
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 3, 7);
        let slot_list = cross(patterns.len(), &[0.8, 0.9]);
        let mut session = Session::new(Arc::clone(&compiled), 1);
        let run = session
            .run(&patterns, &slot_list, &SimOptions::default())
            .unwrap();
        let reference = compiled
            .launch(
                &patterns,
                &slot_list,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots, reference.slots);
    }
}
