//! Tier 3 — a bounded exhaustive-interleaving checker (mini-loom).
//!
//! The engine's hot path rests on two hand-rolled lock-free protocols:
//! the waveform arena's per-cell *claim-bit* writes and the worker
//! pool's *epoch-barrier* release. Their safety arguments live in
//! `SAFETY:` comments; this module turns those arguments into machine
//! checks by exhaustively exploring every thread interleaving of a small
//! *model* of each protocol (2–3 threads, a handful of atomic steps — the
//! sizes at which lock-free bugs actually manifest).
//!
//! # Model
//!
//! A protocol is modeled as cloneable shared state `S` plus one
//! [`ThreadModel`] per thread. Each [`ThreadModel::step`] call performs
//! **one atomic action** (one atomic RMW, or one critical section of a
//! mutex-protected region — anything that is a single indivisible step
//! in the real implementation) and reports whether the thread ran, is
//! blocked (a condvar-style wait whose predicate is false), or finished.
//!
//! [`explore`] then runs a depth-first search over all schedules: at
//! every state it forks one branch per runnable thread. Because states
//! are cloned at each fork, the exploration is exhaustive — every
//! interleaving of the threads' atomic steps is visited exactly once. An
//! `invariant` callback is evaluated after **every** step, and a
//! `final_check` at every completed schedule; the first violation
//! aborts the search with the failing schedule attached as a witness.
//!
//! This is deliberately not a memory-model checker: steps are
//! sequentially consistent. The protocols under test synchronize every
//! cross-thread access through `AcqRel` RMWs or a mutex, so SC
//! exploration of the *protocol logic* (who wins, who waits, what is
//! visible when) is the part that needs proving; per-location release/
//! acquire pairing is argued in the `SAFETY:` comments clippy's
//! `undocumented_unsafe_blocks` lint requires.

use std::fmt;

/// What one atomic step of a thread did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The thread performed its step; it remains schedulable.
    Ran,
    /// The thread's wait predicate is false; the scheduler must pick
    /// another thread (the step must not have mutated shared state).
    Blocked,
    /// The thread has no more steps.
    Finished,
}

/// One modeled thread: a cloneable program counter plus registers.
pub trait ThreadModel<S>: Clone {
    /// Executes the thread's next atomic action against the shared
    /// state. A `Blocked` return must leave `shared` (and `self`)
    /// unchanged, mirroring a condvar wait re-checking its predicate.
    fn step(&mut self, shared: &mut S) -> StepResult;
}

/// Exploration statistics of a passed check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Complete schedules (interleavings) visited.
    pub schedules: u64,
    /// Total atomic steps executed across all branches.
    pub steps: u64,
    /// Length of the longest schedule.
    pub max_depth: usize,
}

/// Why an exploration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterleaveError {
    /// The invariant failed after a step; `schedule` is the thread-index
    /// trace that reaches the violation.
    InvariantViolated {
        /// The violation message from the invariant callback.
        message: String,
        /// Thread indices in execution order reproducing the violation.
        schedule: Vec<usize>,
    },
    /// A completed schedule failed the final check.
    FinalCheckFailed {
        /// The violation message from the final-check callback.
        message: String,
        /// Thread indices in execution order reproducing the violation.
        schedule: Vec<usize>,
    },
    /// Unfinished threads exist but all are blocked.
    Deadlock {
        /// Thread indices in execution order reaching the deadlock.
        schedule: Vec<usize>,
        /// Indices of the threads still blocked.
        blocked: Vec<usize>,
    },
    /// The search exceeded `max_steps` — a livelock in the model (e.g. a
    /// spin loop modeled as `Ran`) or a model far too large to explore.
    BoundExceeded {
        /// The configured step bound.
        max_steps: u64,
    },
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterleaveError::InvariantViolated { message, schedule } => {
                write!(
                    f,
                    "invariant violated after schedule {schedule:?}: {message}"
                )
            }
            InterleaveError::FinalCheckFailed { message, schedule } => {
                write!(f, "final check failed for schedule {schedule:?}: {message}")
            }
            InterleaveError::Deadlock { schedule, blocked } => {
                write!(
                    f,
                    "deadlock after schedule {schedule:?}: threads {blocked:?} blocked"
                )
            }
            InterleaveError::BoundExceeded { max_steps } => {
                write!(f, "exploration exceeded the {max_steps}-step bound")
            }
        }
    }
}

impl std::error::Error for InterleaveError {}

/// Hard bound on total steps across all branches — generous for the 2–3
/// thread protocol models (which need a few thousand) while turning a
/// buggy spin-modeled-as-`Ran` livelock into a clean error.
pub const DEFAULT_MAX_STEPS: u64 = 50_000_000;

/// Exhaustively explores every interleaving of `threads` over `shared`.
///
/// `invariant` runs after every step; `final_check` runs once per
/// completed schedule (all threads finished). Returns exploration
/// statistics, or the first violation with its schedule witness.
///
/// # Errors
///
/// See [`InterleaveError`].
pub fn explore<S: Clone, T: ThreadModel<S>>(
    shared: &S,
    threads: &[T],
    invariant: &dyn Fn(&S) -> Result<(), String>,
    final_check: &dyn Fn(&S) -> Result<(), String>,
) -> Result<Explored, InterleaveError> {
    let mut stats = Explored {
        schedules: 0,
        steps: 0,
        max_depth: 0,
    };
    let mut schedule = Vec::new();
    let done = vec![false; threads.len()];
    dfs(
        shared,
        threads,
        &done,
        invariant,
        final_check,
        &mut schedule,
        &mut stats,
    )?;
    Ok(stats)
}

fn dfs<S: Clone, T: ThreadModel<S>>(
    shared: &S,
    threads: &[T],
    done: &[bool],
    invariant: &dyn Fn(&S) -> Result<(), String>,
    final_check: &dyn Fn(&S) -> Result<(), String>,
    schedule: &mut Vec<usize>,
    stats: &mut Explored,
) -> Result<(), InterleaveError> {
    if done.iter().all(|&d| d) {
        stats.schedules += 1;
        stats.max_depth = stats.max_depth.max(schedule.len());
        return final_check(shared).map_err(|message| InterleaveError::FinalCheckFailed {
            message,
            schedule: schedule.clone(),
        });
    }
    let mut blocked = Vec::new();
    let mut progressed = false;
    for tid in 0..threads.len() {
        if done[tid] {
            continue;
        }
        if stats.steps >= DEFAULT_MAX_STEPS {
            return Err(InterleaveError::BoundExceeded {
                max_steps: DEFAULT_MAX_STEPS,
            });
        }
        // Fork: clone the world, step thread `tid` once.
        let mut s = shared.clone();
        let mut ts: Vec<T> = threads.to_vec();
        let mut d = done.to_vec();
        stats.steps += 1;
        match ts[tid].step(&mut s) {
            StepResult::Blocked => {
                blocked.push(tid);
                continue;
            }
            StepResult::Finished => d[tid] = true,
            StepResult::Ran => {}
        }
        progressed = true;
        schedule.push(tid);
        invariant(&s).map_err(|message| InterleaveError::InvariantViolated {
            message,
            schedule: schedule.clone(),
        })?;
        dfs(&s, &ts, &d, invariant, final_check, schedule, stats)?;
        schedule.pop();
    }
    if !progressed {
        return Err(InterleaveError::Deadlock {
            schedule: schedule.clone(),
            blocked,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A non-atomic counter increment: load then store as *separate*
    /// steps — the canonical lost-update race the checker must find.
    #[derive(Clone)]
    struct RacyIncrement {
        pc: u8,
        loaded: u64,
    }

    impl ThreadModel<u64> for RacyIncrement {
        fn step(&mut self, shared: &mut u64) -> StepResult {
            match self.pc {
                0 => {
                    self.loaded = *shared;
                    self.pc = 1;
                    StepResult::Ran
                }
                _ => {
                    *shared = self.loaded + 1;
                    StepResult::Finished
                }
            }
        }
    }

    /// The same increment as one atomic step (a fetch_add model).
    #[derive(Clone)]
    struct AtomicIncrement;

    impl ThreadModel<u64> for AtomicIncrement {
        fn step(&mut self, shared: &mut u64) -> StepResult {
            *shared += 1;
            StepResult::Finished
        }
    }

    #[test]
    fn finds_the_lost_update_race() {
        let threads = vec![
            RacyIncrement { pc: 0, loaded: 0 },
            RacyIncrement { pc: 0, loaded: 0 },
        ];
        let err = explore(&0u64, &threads, &|_| Ok(()), &|&s| {
            if s == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter is {s}, want 2"))
            }
        })
        .unwrap_err();
        match err {
            InterleaveError::FinalCheckFailed { message, schedule } => {
                assert!(message.contains("lost update"));
                // The witness is replayable: both loads before any store.
                assert_eq!(schedule.len(), 4);
            }
            other => panic!("expected FinalCheckFailed, got {other}"),
        }
    }

    #[test]
    fn atomic_increment_passes_exhaustively() {
        let threads = vec![AtomicIncrement, AtomicIncrement, AtomicIncrement];
        let explored = explore(
            &0u64,
            &threads,
            &|&s| {
                if s <= 3 {
                    Ok(())
                } else {
                    Err("overcount".into())
                }
            },
            &|&s| {
                if s == 3 {
                    Ok(())
                } else {
                    Err("undercount".into())
                }
            },
        )
        .unwrap();
        // 3 single-step threads → 3! = 6 interleavings.
        assert_eq!(explored.schedules, 6);
        assert_eq!(explored.max_depth, 3);
    }

    #[test]
    fn schedule_count_matches_closed_form() {
        // Two threads of 2 steps each: C(4,2) = 6 interleavings.
        let threads = vec![
            RacyIncrement { pc: 0, loaded: 0 },
            RacyIncrement { pc: 0, loaded: 0 },
        ];
        let explored = explore(&0u64, &threads, &|_| Ok(()), &|_| Ok(())).unwrap();
        assert_eq!(explored.schedules, 6);
        assert_eq!(explored.max_depth, 4);
    }

    /// Two threads each waiting for the other to go first.
    #[derive(Clone)]
    struct WaitsForOther {
        me: u64,
        other: u64,
    }

    impl ThreadModel<u64> for WaitsForOther {
        fn step(&mut self, shared: &mut u64) -> StepResult {
            if *shared & self.other == 0 {
                return StepResult::Blocked;
            }
            *shared |= self.me;
            StepResult::Finished
        }
    }

    #[test]
    fn deadlock_is_reported() {
        let threads = vec![
            WaitsForOther { me: 1, other: 2 },
            WaitsForOther { me: 2, other: 1 },
        ];
        let err = explore(&0u64, &threads, &|_| Ok(()), &|_| Ok(())).unwrap_err();
        assert!(matches!(err, InterleaveError::Deadlock { ref blocked, .. } if blocked == &[0, 1]));
    }

    #[test]
    fn invariant_violation_carries_witness() {
        let threads = vec![AtomicIncrement, AtomicIncrement];
        let err = explore(
            &0u64,
            &threads,
            &|&s| if s < 2 { Ok(()) } else { Err("hit two".into()) },
            &|_| Ok(()),
        )
        .unwrap_err();
        match err {
            InterleaveError::InvariantViolated { schedule, .. } => {
                assert_eq!(schedule, vec![0, 1]);
            }
            other => panic!("expected InvariantViolated, got {other}"),
        }
    }
}
