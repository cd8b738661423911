//! A persistent worker pool with an epoch barrier — the CPU stand-in for
//! the paper's resident GPU thread grid.
//!
//! The paper's engine launches one kernel per level and pays no thread
//! management beyond that launch: the grid stays resident on the device.
//! This module keeps OS threads resident the same way: workers park on a
//! condvar between releases and are released by bumping an epoch
//! counter; the coordinator participates as worker 0 and then waits for
//! the remaining workers. The engine releases the pool once per batch —
//! the levels inside a batch synchronize among the workers themselves
//! (`engine::batch`), never through the coordinator.
//!
//! Jobs are released by reference, so they may borrow batch-local state
//! (the arena writer, the walk state). The lifetime is erased with an
//! internal `transmute`; soundness rests on [`WorkerPool::run`] not
//! returning — even by unwinding — until every worker has finished the
//! epoch and dropped its reference.
//!
//! Since the compile-once/simulate-many split, a pool is no longer tied
//! to one run: [`Session`](crate::session::Session) and
//! [`BatchRunner`](crate::batch::BatchRunner) construct a pool once and
//! park it *across* runs, so repeated launches pay zero thread spawns.
//! The run-scoped fault [`Injector`] is therefore published per epoch
//! (alongside the job) rather than captured at construction; its one
//! site here, [`WorkerStall`](avfs_inject::InjectionSite::WorkerStall),
//! perturbs the schedule and never a result.

use avfs_inject::Injector;
use avfs_waveform::{GateScratch, WaveformArena};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The erased job type workers execute: called once per worker per epoch
/// with the worker's index (0 is the coordinator). In a type alias a bare
/// `dyn` is `+ 'static` — this is the *stored* type; [`WorkerPool::run`]
/// accepts a borrowed job and erases its lifetime.
type Job = dyn Fn(usize) + Sync;

struct State {
    /// Monotonic release counter; a bump publishes `job` to all workers.
    epoch: u64,
    /// The job of the current epoch, lifetime-erased (see module docs).
    job: Option<&'static Job>,
    /// The fault injector of the current epoch's run (the
    /// [`WorkerStall`](avfs_inject::InjectionSite::WorkerStall) site).
    /// Published per epoch so one parked pool can serve runs with
    /// different fault plans.
    injector: Injector,
    /// Spawned workers still executing the current epoch's job.
    running: usize,
    /// A spawned worker's job invocation panicked this epoch.
    poisoned: bool,
    /// Pool is shutting down; workers exit instead of waiting.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Coordinator → workers: a new epoch (or shutdown) is available.
    start: Condvar,
    /// Workers → coordinator: the last running worker finished.
    done: Condvar,
}

/// A pool of parked worker threads released job by job via an epoch
/// barrier. Created once per [`Session`](crate::session::Session) /
/// [`BatchRunner`](crate::batch::BatchRunner) (or once per run by a bare
/// [`CompiledNetlist::launch`](crate::CompiledNetlist::launch)) and
/// reusable across any number of runs; dropping it joins all workers.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool of `size` workers total: `size - 1` OS threads plus
    /// the calling thread, which participates as worker 0 inside
    /// [`WorkerPool::run`]. `size` is clamped to at least 1.
    pub fn new(size: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                injector: Injector::unarmed(),
                running: 0,
                poisoned: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..size.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("avfs-worker-{index}"))
                    .spawn(move || worker_loop(index, &shared))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Total worker count, the calling thread included.
    pub fn size(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `job` on every worker (the calling thread is worker 0) and
    /// blocks until all of them finished.
    ///
    /// `injector` carries the current run's fault plan for the
    /// [`WorkerStall`](avfs_inject::InjectionSite::WorkerStall) site: a
    /// firing probe — keyed `(worker index, epoch)` — makes the worker
    /// sleep before taking its share, which perturbs the schedule
    /// (exercising the work-stealing rebalance) but never results.
    /// Unarmed, the probe is one branch per worker per epoch.
    /// The caller must have exclusive use of the pool for the duration of
    /// the call (`Session` takes `&mut self`; `BatchRunner` holds its run
    /// lock) — epochs of concurrent runs must never interleave.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the coordinator's own job share (after the
    /// barrier, so borrows stay valid), and panics if a spawned worker's
    /// job share panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync + '_), injector: &Injector) {
        // SAFETY: the 'static lifetime is a lie confined to this call.
        // Workers only hold the reference while `running > 0`, and this
        // function does not return — the coordinator's own panic is
        // deferred past the barrier — until `running == 0`.
        let job: &'static Job =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &'static Job>(job) };
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.job = Some(job);
            state.injector = injector.clone();
            state.running = self.handles.len();
            state.poisoned = false;
            state.epoch += 1;
        }
        self.shared.start.notify_all();
        // Worker 0's share, panic-deferred so the barrier below always
        // runs before any unwinding invalidates the job's borrows.
        let own = catch_unwind(AssertUnwindSafe(|| job(0)));
        let poisoned = {
            let mut state = self.shared.state.lock().expect("pool lock");
            while state.running > 0 {
                state = self.shared.done.wait(state).expect("pool lock");
            }
            state.job = None;
            state.poisoned
        };
        if let Err(payload) = own {
            resume_unwind(payload);
        }
        assert!(!poisoned, "pool worker's job share panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.start.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size())
            .finish()
    }
}

/// Resolves a requested worker count: 0 selects the machine's available
/// parallelism.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        avfs_obs::host::available_parallelism()
    } else {
        threads
    }
}

/// The state a launch needs that outlives it: a worker count resolved
/// once, the pool it stands for, and the waveform arena — what a
/// [`Session`](crate::session::Session) and a
/// [`BatchRunner`](crate::batch::BatchRunner) park across runs and what
/// a bare launch owns for its own duration. The paper's engine
/// allocates its waveform memory once in GPU global memory and keeps
/// the grid resident; this is the CPU stand-in for both.
#[derive(Debug)]
pub(crate) struct ParkedPool {
    threads: usize,
    /// `None` when `threads == 1`: a single-threaded run executes inline
    /// on the caller.
    workers: Option<WorkerPool>,
    /// The round-0 arena of the previous launch (empty before the first
    /// launch and while a launch has it checked out). While idle it
    /// *reserves* up to
    /// [`SimOptions::waveform_budget`](crate::SimOptions::waveform_budget)
    /// × 8 B of address space, or one lane group per worker's when that
    /// is larger; what stays resident is what the launch
    /// wrote (its transitions, packed) plus at most 8⅜ B per cell
    /// (`len`/`off` of cells that switch, three bits each). Dropping the
    /// owner frees it.
    arena: Mutex<WaveformArena>,
    /// Times [`ParkedPool::take_arena`] had to allocate (first use or a
    /// shape the resident allocations could not hold).
    arena_allocations: AtomicU64,
    /// Each worker's merge scratch between its batches, so its vectors
    /// keep the capacity they grew to instead of regrowing from empty
    /// every batch (one per worker; a worker's lock is only ever taken
    /// by that worker, never contended).
    scratch: Vec<Mutex<GateScratch>>,
}

impl ParkedPool {
    /// Resolves `threads` (0 = available parallelism) and spawns the
    /// workers now.
    pub fn new(threads: usize) -> ParkedPool {
        let threads = resolve_threads(threads);
        ParkedPool {
            threads,
            workers: (threads > 1).then(|| WorkerPool::new(threads)),
            arena: Mutex::new(WaveformArena::default()),
            arena_allocations: AtomicU64::new(0),
            scratch: (0..threads).map(|_| Mutex::default()).collect(),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The parked workers (`None` = run inline).
    pub fn workers(&self) -> Option<&WorkerPool> {
        self.workers.as_ref()
    }

    /// Checks the resident arena out for one launch, shaped to `entries`
    /// cells of `capacity` transitions with a fresh occupancy watermark.
    /// A steady-state launch gets the previous launch's allocations back
    /// untouched — no allocation, no `memset`, no page faults; cell
    /// contents are stale until the batch's `reset()`. The launch hands
    /// it back with [`ParkedPool::park_arena`]; one that unwinds instead
    /// simply drops it, leaving the empty arena behind, and the next
    /// launch allocates afresh.
    pub fn take_arena(&self, entries: usize, capacity: usize) -> WaveformArena {
        let mut arena = std::mem::take(&mut *self.arena.lock().expect("arena lock"));
        if arena.reshape(entries, capacity) {
            self.arena_allocations.fetch_add(1, Ordering::Relaxed);
        }
        arena
    }

    /// Parks `arena` for the next launch.
    pub fn park_arena(&self, arena: WaveformArena) {
        *self.arena.lock().expect("arena lock") = arena;
    }

    /// Checks worker `w`'s merge scratch out for one batch: what it
    /// parked after its last batch, or an empty one. A worker that
    /// unwinds drops it instead of parking it, leaving an empty one.
    pub fn take_scratch(&self, w: usize) -> GateScratch {
        std::mem::take(&mut *self.scratch[w].lock().expect("scratch lock"))
    }

    /// Parks worker `w`'s merge scratch for its next batch; everything
    /// staged in it must have been published.
    pub fn park_scratch(&self, w: usize, scratch: GateScratch) {
        *self.scratch[w].lock().expect("scratch lock") = scratch;
    }

    /// Arena allocations so far (see [`ParkedPool::take_arena`]): 1 after
    /// any number of same-shape launches.
    pub fn arena_allocations(&self) -> u64 {
        self.arena_allocations.load(Ordering::Relaxed)
    }

    /// Checks a per-run thread override against the pool: a parked pool
    /// cannot be resized mid-flight, and silently ignoring the override
    /// would make the same options behave differently on different front
    /// doors. Trivially passes for a pool built from these options.
    pub fn admit(&self, options: &crate::SimOptions) -> Result<(), crate::SimError> {
        if options.threads != 0 && options.threads != self.threads {
            return Err(crate::SimError::ThreadMismatch {
                pool: self.threads,
                requested: options.threads,
            });
        }
        Ok(())
    }
}

/// Body of one spawned worker: wait for an epoch bump, run the job,
/// report completion, park again.
fn worker_loop(index: usize, shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let (job, injector) = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen {
                    break;
                }
                state = shared.start.wait(state).expect("pool lock");
            }
            seen = state.epoch;
            (
                state.job.expect("an epoch bump always publishes a job"),
                state.injector.clone(),
            )
        };
        // Injected slow-worker stall: sleep before taking a share, so the
        // other workers take this one's load. Timing only — results are
        // schedule independent (DESIGN.md §6).
        if let Some(stall) = injector.stall_duration(index as u64, seen) {
            std::thread::sleep(stall);
        }
        // Contain job panics so the barrier protocol (and the engine's
        // borrow lifetimes) survive; the coordinator re-raises.
        let outcome = catch_unwind(AssertUnwindSafe(|| job(index)));
        let mut state = shared.state.lock().expect("pool lock");
        if outcome.is_err() {
            state.poisoned = true;
        }
        state.running -= 1;
        if state.running == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_inject::{FaultPlan, InjectionSite};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.size(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(
            &|w| {
                assert_eq!(w, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            },
            &Injector::unarmed(),
        );
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn epochs_reuse_the_same_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.size(), 4);
        let total = AtomicUsize::new(0);
        // Many epochs over the same pool: every worker runs every epoch,
        // and borrows of epoch-local state (the counter) stay sound.
        for epoch in 0..50 {
            let seen = [(); 4].map(|()| AtomicUsize::new(usize::MAX));
            pool.run(
                &|w| {
                    seen[w].store(epoch, Ordering::Relaxed);
                    total.fetch_add(1, Ordering::Relaxed);
                },
                &Injector::unarmed(),
            );
            for s in &seen {
                assert_eq!(s.load(Ordering::Relaxed), epoch);
            }
        }
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn work_stealing_cursor_covers_all_tasks_once() {
        let pool = WorkerPool::new(3);
        let tasks = 1000usize;
        let cursor = AtomicUsize::new(0);
        let done: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
        pool.run(
            &|_w| loop {
                let t = cursor.fetch_add(7, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                for d in done.iter().take((t + 7).min(tasks)).skip(t) {
                    d.fetch_add(1, Ordering::Relaxed);
                }
            },
            &Injector::unarmed(),
        );
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn coordinator_panic_defers_past_the_barrier() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                &|w| {
                    if w == 0 {
                        panic!("coordinator share fails");
                    }
                },
                &Injector::unarmed(),
            );
        }));
        assert!(outcome.is_err());
        // The pool is still usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(
            &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
            &Injector::unarmed(),
        );
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn worker_panic_is_reported() {
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                &|w| {
                    if w == 1 {
                        panic!("worker share fails");
                    }
                },
                &Injector::unarmed(),
            );
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn injected_stall_delays_but_preserves_the_epoch() {
        let plan = Arc::new(
            FaultPlan::empty(5)
                .with_rate(InjectionSite::WorkerStall, 1.0)
                .with_stall(Duration::from_millis(10)),
        );
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let t0 = Instant::now();
        pool.run(
            &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
            &Injector::armed(Arc::clone(&plan)),
        );
        assert_eq!(hits.load(Ordering::Relaxed), 2, "both shares still ran");
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "the stalled worker held the barrier"
        );
        assert!(plan.hits(InjectionSite::WorkerStall) >= 1);
        assert_eq!(plan.fired_keys(InjectionSite::WorkerStall), vec![1]);
    }
}
