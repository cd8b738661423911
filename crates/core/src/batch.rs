//! Cross-run batch execution: a parked worker pool and a bounded
//! artifact cache — the server-shaped front half of the compile-once /
//! simulate-many split.
//!
//! Where a [`Session`](crate::session::Session) binds one compiled
//! artifact to one pool, a [`BatchRunner`] is the amortization hub for a
//! whole workload:
//!
//! * **pool reuse** — one worker pool, spawned at construction, serves
//!   every run (runs serialize on an internal lock);
//! * **artifact caching** — compiled netlists live in a bounded LRU
//!   keyed by [`CompileKey`] = (netlist hash, library hash, corner), with
//!   `engine.compile_{hits,misses}` counters riding `avfs-obs`.
//!
//! A run is the same launch [`CompiledNetlist::launch`] performs, for
//! every [`Launch`] kind — slot grids larger than the waveform budget are
//! batched inside the engine — so results, diagnostics and profiles are
//! bit-for-bit identical.

use crate::compile::CompiledNetlist;
use crate::engine::{Launch, SimOptions};
use crate::phases;
use crate::pool::ParkedPool;
use crate::results::SimRun;
use crate::SimError;
use avfs_atpg::PatternSet;
use avfs_delay::CharacterizedLibrary;
use avfs_netlist::Netlist;
use avfs_obs::Metrics;
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
}

/// A compile-and-launch hub: one parked worker pool plus a bounded LRU
/// cache of compiled artifacts, shared across threads (`&self`
/// everywhere; runs serialize internally).
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
    artifacts: Mutex<Lru<CompileKey, Arc<CompiledNetlist>>>,
    /// The runner's own instrument registry (the artifact cache's
    /// counters, which the hit/miss accessors read; per-run engine
    /// profiles remain per run).
    metrics: Metrics,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers (0 resolves to available
    /// parallelism once, here) and at most `cache_capacity` entries in
    /// the artifact cache (clamped to at least 1).
    pub fn new(threads: usize, cache_capacity: usize) -> BatchRunner {
        BatchRunner {
            pool: ParkedPool::new(threads),
            run_lock: Mutex::new(()),
            artifacts: Mutex::new(Lru::new(cache_capacity)),
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
        self.artifacts
            .lock()
            .expect("artifact cache lock")
            .insert(key, Arc::clone(&built));
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

    /// Simulates `launch` over `patterns` on the parked pool — bit-for-bit
    /// the launch [`CompiledNetlist::launch`] performs.
    ///
    /// # Errors
    ///
    /// Same as [`CompiledNetlist::launch`], plus
    /// [`SimError::ThreadMismatch`] for a per-run
    /// [`SimOptions::threads`] override that differs from the runner's
    /// pool.
    pub fn run<'a>(
        &self,
        compiled: &Arc<CompiledNetlist>,
        patterns: &PatternSet,
        launch: impl Into<Launch<'a>>,
        options: &SimOptions,
    ) -> Result<SimRun, SimError> {
        let plan = compiled.prepare(patterns, launch.into())?;
        let _guard = self.run_lock.lock().expect("run lock");
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
        // Budget fits 5 slots per arena batch → batches of 5, 5, 2 at
        // lane width 1 (a wider lane group would round the cut up).
        let run = runner
            .run(
                &compiled,
                &patterns,
                &slot_list,
                &SimOptions {
                    waveform_budget: nodes * SimOptions::default().resolved_arena_capacity() * 5,
                    lanes: 1,
                    profiling: true,
                    ..SimOptions::default()
                },
            )
            .unwrap();
        assert_eq!(run.slots, reference.slots);
        assert_eq!(run.diagnostics, reference.diagnostics);
        let profile = run.profile.expect("profiled run");
        assert_eq!(profile.counter(phases::ENGINE_BATCHES), Some(3));
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

    /// A characterized library's content hash is stable, so it keys
    /// artifacts like a netlist's does.
    #[test]
    fn compile_key_of_a_characterized_library_is_stable() {
        let library = CellLibrary::nangate15_like();
        let ids = [library.find("INV_X1").unwrap()];
        let characterize = || {
            avfs_delay::characterize_library(
                &library,
                &avfs_spice::Technology::nm15(),
                &avfs_delay::characterize::CharacterizationConfig::fast(),
                Some(&ids),
            )
            .unwrap()
        };
        let (a, b) = (characterize(), characterize());
        assert_eq!(a.content_hash(), b.content_hash());
        let adder = avfs_circuits::ripple_carry_adder(2, &library).unwrap();
        assert_eq!(
            CompileKey::of(&adder, &a, "typ"),
            CompileKey::of(&adder, &b, "typ")
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
