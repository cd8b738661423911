//! Cross-run batch execution: a parked worker pool and bounded artifact
//! caches — the server-shaped front half of the compile-once /
//! simulate-many split.
//!
//! Where a [`Session`](crate::session::Session) binds one compiled
//! artifact to one pool, a [`BatchRunner`] is the amortization hub for a
//! whole workload:
//!
//! * **pool reuse** — one worker pool, spawned at construction, serves
//!   every run (runs serialize on an internal lock; the queue depth is
//!   instrumented);
//! * **artifact caching** — compiled netlists and characterized
//!   libraries live in bounded LRUs keyed by
//!   [`CompileKey`] = (netlist hash, library hash, corner), with
//!   `engine.compile_{hits,misses}` counters riding `avfs-obs`.
//!
//! A run is the same launch [`CompiledNetlist::launch`] performs — slot
//! grids larger than the waveform budget are batched inside the engine —
//! so results, diagnostics and profiles are bit-for-bit identical.

use crate::compile::CompiledNetlist;
use crate::engine::{LaunchPlan, SimOptions};
use crate::phases;
use crate::pool::ParkedPool;
use crate::results::SimRun;
use crate::slots::SlotSpec;
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_delay::CharacterizedLibrary;
use avfs_netlist::Netlist;
use avfs_obs::{Metrics, Profile};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key of one compiled artifact: what the compile step actually
/// depends on — the netlist's structure, the characterized library's
/// fitted content, and a caller-chosen corner label (annotation corner,
/// characterization config, anything that distinguishes otherwise
/// identical inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    netlist: u64,
    library: u64,
    corner: u64,
}

impl CompileKey {
    /// Builds a key from pre-computed content hashes and a corner label.
    pub fn new(netlist_hash: u64, library_hash: u64, corner: &str) -> CompileKey {
        let mut h = avfs_netlist::hash::Fnv1a::new();
        h.write_str(corner);
        CompileKey {
            netlist: netlist_hash,
            library: library_hash,
            corner: h.finish(),
        }
    }

    /// Convenience: keys a (netlist, characterized library, corner)
    /// triple by content hash.
    pub fn of(netlist: &Netlist, library: &CharacterizedLibrary, corner: &str) -> CompileKey {
        CompileKey::new(netlist.content_hash(), library.content_hash(), corner)
    }
}

/// A bounded LRU over a small linear-scan table — caches hold a handful
/// of multi-megabyte artifacts, so scan cost is noise and zero
/// dependencies beat an ordered map. Shared with the artifact's
/// per-voltage delay-table cache.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    cap: usize,
    tick: u64,
    entries: Vec<(K, V, u64)>,
}

impl<K: PartialEq + Copy, V> Lru<K, V> {
    pub(crate) fn new(cap: usize) -> Lru<K, V> {
        Lru {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
        }
    }

    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, t)| {
                *t = tick;
                &*v
            })
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            entry.1 = value;
            entry.2 = self.tick;
            return;
        }
        if self.entries.len() >= self.cap {
            // Evict the least recently used entry.
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .map(|(i, _)| i)
                .expect("full cache has entries");
            self.entries.swap_remove(lru);
        }
        self.entries.push((key, value, self.tick));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A compile-and-launch hub: one parked worker pool plus bounded LRU
/// caches of compiled artifacts and characterized libraries, shared
/// across threads (`&self` everywhere; runs serialize internally).
///
/// ```
/// use avfs_core::{slots, BatchRunner, CompileKey, CompiledNetlist, SimOptions};
/// use avfs_atpg::PatternSet;
/// use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
/// use avfs_netlist::CellLibrary;
/// use std::sync::Arc;
///
/// let library = CellLibrary::nangate15_like();
/// let netlist = Arc::new(avfs_circuits::ripple_carry_adder(4, &library)?);
/// let runner = BatchRunner::new(1, 8);
/// let key = CompileKey::new(netlist.content_hash(), library.content_hash(), "typ");
/// let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
/// let slot_list = slots::at_voltage(patterns.len(), 0.8);
/// for _ in 0..3 {
///     // Compiles once; the two later iterations are cache hits.
///     let compiled = runner.compile(key, || {
///         CompiledNetlist::compile(
///             Arc::clone(&netlist),
///             Arc::new(TimingAnnotation::zero(&netlist)),
///             Arc::new(StaticModel::new(ParameterSpace::paper())),
///         )
///     })?;
///     runner.run(&compiled, &patterns, &slot_list, &SimOptions::default())?;
/// }
/// assert_eq!(runner.compile_misses(), 1);
/// assert_eq!(runner.compile_hits(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BatchRunner {
    /// The parked pool, resolved once at construction.
    pool: ParkedPool,
    /// Serializes runs: the epoch-barrier pool admits one run at a time.
    run_lock: Mutex<()>,
    /// Runs currently waiting on (or holding) the run lock — sampled
    /// into the queue-depth histogram as each run gets in line.
    waiting: AtomicU64,
    artifacts: Mutex<Lru<CompileKey, Arc<CompiledNetlist>>>,
    libraries: Mutex<Lru<u64, Arc<CharacterizedLibrary>>>,
    /// The runner's own instrument registry (cache and queue
    /// instruments — the hit/miss accessors read its counters; per-run
    /// engine profiles remain per run).
    metrics: Metrics,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers (0 resolves to available
    /// parallelism once, here) and at most `cache_capacity` entries in
    /// each artifact cache (clamped to at least 1).
    pub fn new(threads: usize, cache_capacity: usize) -> BatchRunner {
        BatchRunner {
            pool: ParkedPool::new(threads),
            run_lock: Mutex::new(()),
            waiting: AtomicU64::new(0),
            artifacts: Mutex::new(Lru::new(cache_capacity)),
            libraries: Mutex::new(Lru::new(cache_capacity)),
            metrics: Metrics::new("engine"),
        }
    }

    /// The worker count resolved at construction.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Returns the cached artifact for `key`, or compiles it via
    /// `build` and caches the result. The build runs *outside* the cache
    /// lock, so a slow compile never blocks hits on other keys — and a
    /// failed (or panicking) compile caches nothing and poisons
    /// nothing: the next request for the same key simply builds again.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; the cache is left untouched on `Err`.
    pub fn compile(
        &self,
        key: CompileKey,
        build: impl FnOnce() -> Result<CompiledNetlist, SimError>,
    ) -> Result<Arc<CompiledNetlist>, SimError> {
        if let Some(hit) = self
            .artifacts
            .lock()
            .expect("artifact cache lock")
            .get(&key)
        {
            self.metrics.add(phases::ENGINE_COMPILE_HITS, 1);
            return Ok(Arc::clone(hit));
        }
        self.metrics.add(phases::ENGINE_COMPILE_MISSES, 1);
        let built = Arc::new(build()?);
        let mut cache = self.artifacts.lock().expect("artifact cache lock");
        cache.insert(key, Arc::clone(&built));
        self.metrics
            .set_gauge(phases::ENGINE_CACHE_OCCUPANCY, cache.len() as f64);
        Ok(built)
    }

    /// Returns the cached characterized library for `library_hash`, or
    /// builds and caches it — the SetupKit-shaped half of amortization:
    /// one characterization serves every corner and netlist that shares
    /// the library. Same non-caching failure semantics as
    /// [`BatchRunner::compile`].
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; the cache is left untouched on `Err`.
    pub fn characterized<E>(
        &self,
        library_hash: u64,
        build: impl FnOnce() -> Result<CharacterizedLibrary, E>,
    ) -> Result<Arc<CharacterizedLibrary>, E> {
        if let Some(hit) = self
            .libraries
            .lock()
            .expect("library cache lock")
            .get(&library_hash)
        {
            self.metrics.add(phases::ENGINE_LIBRARY_HITS, 1);
            return Ok(Arc::clone(hit));
        }
        self.metrics.add(phases::ENGINE_LIBRARY_MISSES, 1);
        let built = Arc::new(build()?);
        self.libraries
            .lock()
            .expect("library cache lock")
            .insert(library_hash, Arc::clone(&built));
        Ok(built)
    }

    /// Artifact-cache hits so far.
    pub fn compile_hits(&self) -> u64 {
        self.metrics.counter(phases::ENGINE_COMPILE_HITS).get()
    }

    /// Artifact-cache misses (= compiles actually performed) so far.
    pub fn compile_misses(&self) -> u64 {
        self.metrics.counter(phases::ENGINE_COMPILE_MISSES).get()
    }

    /// Times a run on this runner had to allocate its waveform arena
    /// instead of reusing the resident one (shared by every artifact the
    /// runner launches): the first run, and any later one whose
    /// `(slots × nodes, arena_capacity)` shape the resident allocations
    /// could not hold. 1 after any number of same-shape runs.
    pub fn arena_allocations(&self) -> u64 {
        self.pool.arena_allocations()
    }

    /// Library-cache hits so far.
    pub fn library_hits(&self) -> u64 {
        self.metrics.counter(phases::ENGINE_LIBRARY_HITS).get()
    }

    /// Library-cache misses so far.
    pub fn library_misses(&self) -> u64 {
        self.metrics.counter(phases::ENGINE_LIBRARY_MISSES).get()
    }

    /// Snapshot of the runner's instrument registry
    /// (`engine.compile_{hits,misses}`, `engine.library_{hits,misses}`,
    /// `engine.batch_runs`, queue depth, cache occupancy).
    pub fn profile(&self) -> Profile {
        self.metrics.snapshot()
    }

    /// Simulates `slots` over `patterns` on the parked pool — bit-for-bit
    /// the launch [`CompiledNetlist::launch`] performs.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledNetlist::launch`], plus
    /// [`SimError::ThreadMismatch`] for a per-run
    /// [`SimOptions::threads`] override that differs from the runner's
    /// pool.
    pub fn run(
        &self,
        compiled: &Arc<CompiledNetlist>,
        patterns: &PatternSet,
        slots: &[SlotSpec],
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let plan = compiled.prepare_uniform(patterns, slots, options)?;
        self.execute(compiled, plan, options)
    }

    /// Simulates piecewise-scheduled scenarios (optionally Monte Carlo
    /// sampled) on the parked pool — see
    /// [`CompiledNetlist::launch_scenarios`] for semantics and errors.
    pub fn run_scenarios(
        &self,
        compiled: &Arc<CompiledNetlist>,
        patterns: &PatternSet,
        scenarios: &[crate::scenario::ScenarioSpec],
        mc: Option<&crate::scenario::MonteCarlo>,
        capture_deadline_ps: Option<f64>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let plan =
            compiled.prepare_scenarios(patterns, scenarios, mc, capture_deadline_ps, options)?;
        self.execute(compiled, plan, options)
    }

    /// Queue admission, then the launch: the epoch-barrier pool admits
    /// one run at a time.
    fn execute(
        &self,
        compiled: &CompiledNetlist,
        plan: LaunchPlan<'_>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let depth = self.waiting.fetch_add(1, Ordering::Relaxed);
        let _guard = self.run_lock.lock().expect("run lock");
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        self.metrics.record(phases::ENGINE_BATCH_QUEUE_DEPTH, depth);
        self.metrics.add(phases::ENGINE_BATCH_RUNS, 1);
        compiled.execute(plan, options, &self.pool)
    }
}

impl std::fmt::Debug for BatchRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("threads", &self.threads())
            .field("compile_hits", &self.compile_hits())
            .field("compile_misses", &self.compile_misses())
            .finish()
    }
}

// The runner is the intended cross-thread amortization point.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BatchRunner>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::cross;
    use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
    use avfs_netlist::CellLibrary;

    /// Uniform nonzero gate delays: the adder's carry chain then
    /// staggers arrivals and glitches internal nets, giving the
    /// tight-arena scenario real multi-transition waveforms.
    fn adder_annotation(netlist: &Arc<avfs_netlist::Netlist>) -> TimingAnnotation {
        let mut ann = TimingAnnotation::zero(netlist);
        for (id, node) in netlist.iter() {
            if matches!(node.kind(), avfs_netlist::NodeKind::Gate(_)) {
                for pin in 0..node.fanin().len() {
                    ann.node_delays_mut(id)[pin] = avfs_waveform::PinDelays {
                        rise: 10.0,
                        fall: 7.0,
                    };
                }
            }
        }
        ann
    }

    fn compiled_adder() -> Arc<CompiledNetlist> {
        Arc::new(build_adder().unwrap())
    }

    fn adder_key(corner: &str) -> CompileKey {
        let library = CellLibrary::nangate15_like();
        let netlist = avfs_circuits::ripple_carry_adder(8, &library).unwrap();
        CompileKey::new(netlist.content_hash(), library.content_hash(), corner)
    }

    fn build_adder() -> Result<CompiledNetlist, SimError> {
        let library = CellLibrary::nangate15_like();
        let netlist = Arc::new(avfs_circuits::ripple_carry_adder(8, &library).unwrap());
        let annotation = adder_annotation(&netlist);
        CompiledNetlist::compile(
            Arc::clone(&netlist),
            Arc::new(annotation),
            Arc::new(StaticModel::new(ParameterSpace::paper())),
        )
    }

    /// The runner's determinism matrix: threads (1, 4) × lanes (1, 8),
    /// in a normal scenario and a tight-arena scenario that forces
    /// quarantine-and-retry — every cell bit-identical (slots,
    /// diagnostics, node evaluations) to the single-threaded
    /// [`CompiledNetlist::launch`] reference.
    #[test]
    fn batch_runs_match_compiled_launch_matrix() {
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 10, 7);
        let slot_list = cross(patterns.len(), &[0.7, 0.8]); // 20 slots
        let scenarios: [(&str, SimOptions); 2] = [
            ("normal", SimOptions::default()),
            (
                "tight-arena",
                SimOptions {
                    // Capacity 1 overflows glitchy carry-chain nets and
                    // exercises quarantine-and-retry.
                    arena_capacity: 1,
                    ..SimOptions::default()
                },
            ),
        ];
        for (name, base) in scenarios {
            let reference = compiled
                .launch(
                    &patterns,
                    &slot_list,
                    &SimOptions {
                        threads: 1,
                        ..base.clone()
                    },
                )
                .unwrap();
            if name == "tight-arena" {
                assert!(
                    reference.diagnostics.slot_retries > 0,
                    "tight-arena scenario must exercise retries"
                );
            }
            for threads in [1usize, 4] {
                let runner = BatchRunner::new(threads, 4);
                for lanes in [1usize, 8] {
                    let run = runner
                        .run(
                            &compiled,
                            &patterns,
                            &slot_list,
                            &SimOptions {
                                lanes,
                                ..base.clone()
                            },
                        )
                        .unwrap();
                    let label = format!("{name} threads={threads} lanes={lanes}");
                    assert_eq!(run.slots, reference.slots, "{label}");
                    assert_eq!(run.diagnostics, reference.diagnostics, "{label}");
                    assert_eq!(run.node_evaluations, reference.node_evaluations, "{label}");
                }
            }
        }
    }

    /// The scenario-engine extension of the matrix: scheduled (droop)
    /// and Monte Carlo sampled grids stay bit-identical to the
    /// single-threaded [`CompiledNetlist::launch_scenarios`] across
    /// threads × lanes, summary included.
    #[test]
    fn batch_scenarios_match_compiled_launch_matrix() {
        use crate::scenario::{cross_schedules, MonteCarlo, Schedule};
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 6, 11);
        let scenarios = cross_schedules(
            patterns.len(),
            &[
                Schedule::droop(0.8, 0.1, 20.0, 70.0),
                Schedule::constant(0.7),
            ],
        );
        let mc = MonteCarlo {
            samples: 2,
            variation: avfs_delay::VariationConfig {
                sigma: 0.06,
                max_deviation: 0.2,
                seed: 0xA11CE,
            },
        };
        let deadline = Some(120.0);
        let reference = compiled
            .launch_scenarios(
                &patterns,
                &scenarios,
                Some(&mc),
                deadline,
                &SimOptions {
                    threads: 1,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(reference.slots.len(), scenarios.len() * mc.samples);
        assert!(reference.scenario.is_some());
        for threads in [1usize, 4] {
            let runner = BatchRunner::new(threads, 4);
            for lanes in [1usize, 8] {
                let run = runner
                    .run_scenarios(
                        &compiled,
                        &patterns,
                        &scenarios,
                        Some(&mc),
                        deadline,
                        &SimOptions {
                            lanes,
                            ..SimOptions::default()
                        },
                    )
                    .unwrap();
                let label = format!("threads={threads} lanes={lanes}");
                assert_eq!(run.slots, reference.slots, "{label}");
                assert_eq!(run.diagnostics, reference.diagnostics, "{label}");
                assert_eq!(run.node_evaluations, reference.node_evaluations, "{label}");
                assert_eq!(run.scenario, reference.scenario, "{label}");
            }
        }
    }

    /// A grid larger than the waveform budget is batched inside the
    /// engine, on the runner's parked pool: a budget that only fits a
    /// few slots per arena batch stays bit-identical to the large-budget
    /// reference, and the run keeps its profile.
    #[test]
    fn oversized_grids_batch_inside_the_engine() {
        let compiled = compiled_adder();
        let nodes = compiled.netlist().num_nodes();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 6, 9);
        let slot_list = cross(patterns.len(), &[0.75, 0.9]); // 12 slots
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
        let runner = BatchRunner::new(2, 4);
        // Budget fits 5 slots per arena batch → batches of 5, 5, 2.
        let run = runner
            .run(
                &compiled,
                &patterns,
                &slot_list,
                &SimOptions {
                    waveform_budget: nodes * SimOptions::default().resolved_arena_capacity() * 5,
                    profiling: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots, reference.slots);
        assert_eq!(run.diagnostics, reference.diagnostics);
        let profile = run.profile.expect("profiled run");
        assert_eq!(profile.counter(phases::ENGINE_BATCHES), Some(3));
        assert_eq!(runner.profile().counter(phases::ENGINE_BATCH_RUNS), Some(1));
    }

    #[test]
    fn thread_override_mismatch_is_rejected() {
        let compiled = compiled_adder();
        let patterns = PatternSet::lfsr(compiled.netlist().inputs().len(), 2, 7);
        let slot_list = cross(patterns.len(), &[0.8]);
        let runner = BatchRunner::new(2, 4);
        let err = runner
            .run(
                &compiled,
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
    fn cache_hit_miss_and_eviction() {
        let runner = BatchRunner::new(1, 2);
        let (k1, k2, k3) = (adder_key("fast"), adder_key("typ"), adder_key("slow"));
        assert_ne!(k1, k2, "corner label discriminates keys");
        let a = runner.compile(k1, build_adder).unwrap();
        let b = runner.compile(k1, build_adder).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit returns the cached artifact");
        assert_eq!((runner.compile_hits(), runner.compile_misses()), (1, 1));
        runner.compile(k2, build_adder).unwrap();
        // Touch k1 so k2 is the least recently used entry...
        runner.compile(k1, build_adder).unwrap();
        // ...and a third key evicts k2 from the 2-entry cache.
        runner.compile(k3, build_adder).unwrap();
        let c = runner.compile(k1, build_adder).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "k1 survived eviction");
        runner.compile(k2, build_adder).unwrap(); // evicted → rebuilt
        assert_eq!((runner.compile_hits(), runner.compile_misses()), (3, 4));
    }

    #[test]
    fn cache_shares_one_arc_across_threads() {
        let runner = Arc::new(BatchRunner::new(1, 4));
        let key = adder_key("typ");
        let first = runner.compile(key, build_adder).unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let runner = Arc::clone(&runner);
                    let first = Arc::clone(&first);
                    scope.spawn(move || {
                        let got = runner.compile(key, build_adder).unwrap();
                        assert!(Arc::ptr_eq(&got, &first), "same artifact on every thread");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(runner.compile_hits(), 4);
        assert_eq!(runner.compile_misses(), 1);
    }

    #[test]
    fn failed_and_panicking_compiles_cache_nothing() {
        let runner = BatchRunner::new(1, 4);
        let key = adder_key("typ");
        let err = runner
            .compile(key, || Err(SimError::AnnotationMismatch))
            .unwrap_err();
        assert_eq!(err, SimError::AnnotationMismatch);
        // The build runs outside the cache lock, so a panicking compile
        // cannot poison the cache either.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = runner.compile(key, || panic!("injected compile panic"));
        }));
        assert!(panicked.is_err());
        // Neither failure was cached: the next compile builds again and
        // succeeds, and from then on the key hits.
        let built = runner.compile(key, build_adder).unwrap();
        let again = runner.compile(key, build_adder).unwrap();
        assert!(Arc::ptr_eq(&built, &again));
        assert_eq!(runner.compile_hits(), 1);
        assert_eq!(runner.compile_misses(), 3);
    }

    #[test]
    fn library_cache_follows_the_same_protocol() {
        let runner = BatchRunner::new(1, 2);
        let library = CellLibrary::nangate15_like();
        let hash = library.content_hash();
        let build = || {
            let ids = [library.find("INV_X1").unwrap()];
            avfs_delay::characterize_library(
                &library,
                &avfs_spice::Technology::nm15(),
                &avfs_delay::characterize::CharacterizationConfig::fast(),
                Some(&ids),
            )
        };
        let a = runner.characterized(hash, build).unwrap();
        let b = runner.characterized(hash, build).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((runner.library_hits(), runner.library_misses()), (1, 1));
        // The characterized library's own content hash is stable and
        // usable as a CompileKey component.
        assert_eq!(a.content_hash(), b.content_hash());
        let key = CompileKey::of(
            &avfs_circuits::ripple_carry_adder(2, &library).unwrap(),
            &a,
            "typ",
        );
        assert_eq!(
            key,
            CompileKey::of(
                &avfs_circuits::ripple_carry_adder(2, &library).unwrap(),
                &a,
                "typ"
            )
        );
    }

    /// Content hashes are stable across rebuilds and sensitive to
    /// structural perturbation — the property the cache key rests on.
    #[test]
    fn content_hashes_discriminate() {
        let library = CellLibrary::nangate15_like();
        let a = avfs_circuits::ripple_carry_adder(8, &library).unwrap();
        let b = avfs_circuits::ripple_carry_adder(8, &library).unwrap();
        assert_eq!(a.content_hash(), b.content_hash(), "rebuild is stable");
        let c = avfs_circuits::ripple_carry_adder(9, &library).unwrap();
        assert_ne!(a.content_hash(), c.content_hash(), "structure changes hash");
        let zero = TimingAnnotation::zero(&a);
        let mut loads = vec![1.0; a.num_nodes()];
        loads[0] = 1.5;
        let perturbed = TimingAnnotation::from_parts(
            a.nodes()
                .iter()
                .map(|n| vec![avfs_waveform::PinDelays::default(); n.fanin().len()])
                .collect(),
            loads,
        );
        assert_ne!(
            zero.content_hash(),
            perturbed.content_hash(),
            "annotation content changes hash"
        );
    }
}
