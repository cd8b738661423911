//! Observability for the AVFS simulation workspace: phase timers,
//! counters, histograms and machine-readable profiles — with zero
//! external dependencies.
//!
//! DESIGN.md §3 role: the cross-cutting instrumentation layer. Every other
//! crate answers *what* the simulator computes; this crate answers *where
//! the time goes* — the per-phase breakdown that makes speedups
//! attributable (Table I MEPS, the 1–40 ms regression-runtime claim of
//! Sec. V.A) and performance regressions catchable.
//!
//! # Architecture
//!
//! * [`Metrics`] — a thread-safe registry of named instruments, created
//!   per run (the engine) or per flow (characterization). All updates go
//!   through `&Metrics`, so one registry can be shared across worker
//!   threads without ceremony.
//! * [`Span`] — a scoped phase timer. Spans nest: [`Span::child`] extends
//!   the parent's `/`-separated path, so `engine/level/merge` aggregates
//!   separately from `engine/level`. Dropping (or [`Span::finish`]ing) a
//!   span records its wall-clock duration under its path.
//! * [`Counter`] — a clonable handle to an atomic `u64`; hot paths hold
//!   the handle and increment lock-free.
//! * [`Histogram`] — a log-bucketed value distribution with exact
//!   min/max/mean and approximate (≤ ~6 % relative error) p50/p99.
//! * [`Profile`] — an immutable snapshot of a registry
//!   ([`Metrics::snapshot`]): plain data with a human-readable
//!   [`Display`](std::fmt::Display) rendering and a JSON round-trip
//!   ([`Profile::to_json`] / [`Profile::from_json`]).
//! * [`host::available_parallelism`] — the host's worker count, read
//!   once per process for every thread pool of the workspace.
//! * [`json`] — a minimal self-contained JSON value type (emit + parse)
//!   used for the schema-versioned reports (`avfs-profile/1`,
//!   `avfs-check/1`, `avfs-chaos/1`).
//!
//! # Cost model
//!
//! The disabled path is the absence of a registry: instrumented code holds
//! an `Option<&Metrics>` and the helpers ([`time_option`]) reduce to a
//! single `Option` discriminant check when it is `None`. No global state,
//! no atomics, no clock reads on the disabled path.
//!
//! # Example
//!
//! ```
//! use avfs_obs::Metrics;
//!
//! let m = Metrics::new("demo");
//! {
//!     let run = m.span("run");
//!     let _level = run.child("level"); // records as "run/level" on drop
//! } // "run" records on drop
//! m.counter("evals").add(42);
//! m.record("queue_depth", 7);
//!
//! let profile = m.snapshot();
//! assert_eq!(profile.counter("evals"), Some(42));
//! assert!(profile.phase("run/level").is_some());
//! println!("{profile}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod host;
pub mod json;
pub mod metrics;
pub mod profile;

pub use histogram::{Histogram, HistogramStats};
pub use json::{Json, JsonError};
pub use metrics::{time_option, Counter, Metrics, Span};
pub use profile::{fmt_ns, CounterStat, HistogramStat, PhaseStats, Profile};
