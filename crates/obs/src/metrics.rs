//! The instrument registry: named phases, counters, gauges and
//! histograms behind one thread-safe handle.

use crate::histogram::Histogram;
use crate::profile::{CounterStat, GaugeStat, HistogramStat, PhaseStats, Profile};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A thread-safe registry of named instruments.
///
/// One `Metrics` is created per profiled activity (one engine run, one
/// characterization flow) and shared by reference; all instruments are
/// created on first use. [`Metrics::snapshot`] freezes the current state
/// into an immutable [`Profile`].
///
/// Phase, gauge and histogram updates take a short internal lock; hot
/// loops should either hold a lock-free [`Counter`] handle, accumulate
/// into a local [`Histogram`] and [`Metrics::merge_histogram`] once, or
/// time whole phases rather than individual iterations.
pub struct Metrics {
    name: String,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    phases: BTreeMap<String, PhaseAgg>,
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

#[derive(Clone, Copy)]
struct PhaseAgg {
    calls: u64,
    total: Duration,
    min: Duration,
    max: Duration,
}

impl Metrics {
    /// Creates an empty registry named `name` (the profile title).
    pub fn new(name: &str) -> Metrics {
        Metrics {
            name: name.to_owned(),
            state: Mutex::new(State::default()),
        }
    }

    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Starts a root [`Span`] timing phase `path`; the elapsed time is
    /// recorded when the span drops (or [`Span::finish`]es).
    pub fn span(&self, path: &str) -> Span<'_> {
        Span {
            metrics: self,
            path: path.to_owned(),
            start: Instant::now(),
            recorded: false,
        }
    }

    /// Times a closure as one occurrence of phase `path`.
    pub fn time<R>(&self, path: &str, f: impl FnOnce() -> R) -> R {
        let span = self.span(path);
        let r = f();
        span.finish();
        r
    }

    /// Records one occurrence of phase `path` with an explicit duration.
    pub fn record_duration(&self, path: &str, elapsed: Duration) {
        let mut state = self.state.lock().expect("metrics lock");
        let agg = state.phases.entry(path.to_owned()).or_insert(PhaseAgg {
            calls: 0,
            total: Duration::ZERO,
            min: Duration::MAX,
            max: Duration::ZERO,
        });
        agg.calls += 1;
        agg.total += elapsed;
        agg.min = agg.min.min(elapsed);
        agg.max = agg.max.max(elapsed);
    }

    /// A lock-free handle to the counter named `name` (created at zero on
    /// first use). Clones share the same underlying value.
    pub fn counter(&self, name: &str) -> Counter {
        let mut state = self.state.lock().expect("metrics lock");
        state.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Adds `n` to the counter named `name` (convenience for cold paths;
    /// hot paths should hold the [`Counter`] handle).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Sets the gauge named `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut state = self.state.lock().expect("metrics lock");
        state.gauges.insert(name.to_owned(), value);
    }

    /// Records `value` into the histogram named `name`.
    pub fn record(&self, name: &str, value: u64) {
        let mut state = self.state.lock().expect("metrics lock");
        state
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// Folds a locally accumulated histogram into the one named `name` —
    /// the lock-amortizing path for per-iteration recordings.
    pub fn merge_histogram(&self, name: &str, histogram: &Histogram) {
        let mut state = self.state.lock().expect("metrics lock");
        state
            .histograms
            .entry(name.to_owned())
            .or_default()
            .merge(histogram);
    }

    /// Freezes the current state into an immutable [`Profile`]. Instrument
    /// order in the profile is lexicographic by name, so snapshots are
    /// deterministic.
    pub fn snapshot(&self) -> Profile {
        let state = self.state.lock().expect("metrics lock");
        Profile {
            name: self.name.clone(),
            phases: state
                .phases
                .iter()
                .map(|(path, agg)| PhaseStats {
                    path: path.clone(),
                    calls: agg.calls,
                    total_ns: as_ns(agg.total),
                    min_ns: as_ns(agg.min),
                    max_ns: as_ns(agg.max),
                })
                .collect(),
            counters: state
                .counters
                .iter()
                .map(|(name, c)| CounterStat {
                    name: name.clone(),
                    value: c.get(),
                })
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(name, &value)| GaugeStat {
                    name: name.clone(),
                    value,
                })
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(name, h)| HistogramStat {
                    name: name.clone(),
                    stats: h.stats(),
                })
                .collect(),
        }
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().expect("metrics lock");
        f.debug_struct("Metrics")
            .field("name", &self.name)
            .field("phases", &state.phases.len())
            .field("counters", &state.counters.len())
            .field("gauges", &state.gauges.len())
            .field("histograms", &state.histograms.len())
            .finish()
    }
}

/// Saturating `Duration` → nanoseconds.
fn as_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A shared atomic counter handle obtained from [`Metrics::counter`].
///
/// Increments are lock-free relaxed atomics, cheap enough for per-call
/// instrumentation of hot kernels.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A scoped phase timer started by [`Metrics::span`].
///
/// The span records its wall-clock duration under its `/`-separated path
/// when dropped; [`Span::child`] opens a nested span whose path extends
/// the parent's, so hierarchies aggregate per level:
///
/// ```
/// let m = avfs_obs::Metrics::new("demo");
/// let run = m.span("run");
/// m.time("unrelated", || ());
/// let level = run.child("level"); // path "run/level"
/// level.finish();
/// run.finish();
/// ```
#[must_use = "a span records its phase when dropped; binding it to `_` drops immediately"]
pub struct Span<'a> {
    metrics: &'a Metrics,
    path: String,
    start: Instant,
    recorded: bool,
}

impl<'a> Span<'a> {
    /// Opens a child span at `parent_path/name`, started now.
    pub fn child(&self, name: &str) -> Span<'a> {
        Span {
            metrics: self.metrics,
            path: format!("{}/{name}", self.path),
            start: Instant::now(),
            recorded: false,
        }
    }

    /// The span's full `/`-separated path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Stops the span now and records it, returning the elapsed time.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.metrics.record_duration(&self.path, elapsed);
        self.recorded = true;
        elapsed
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.recorded {
            self.metrics
                .record_duration(&self.path, self.start.elapsed());
        }
    }
}

/// Times `f` as phase `path` when `metrics` is present; otherwise just
/// calls it. This is the switch instrumented hot paths use — the disabled
/// branch is one `Option` discriminant check, no clock read.
#[inline]
pub fn time_option<R>(metrics: Option<&Metrics>, path: &str, f: impl FnOnce() -> R) -> R {
    match metrics {
        Some(m) => m.time(path, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_and_atomic() {
        let m = Metrics::new("t");
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(2);
        b.add(1);
        assert_eq!(m.counter("x").get(), 3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = m.counter("x");
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(m.counter("x").get(), 4003);
    }

    #[test]
    fn span_nesting_builds_paths_and_contains_children() {
        let m = Metrics::new("t");
        {
            let run = m.span("run");
            for _ in 0..3 {
                let level = run.child("level");
                let merge = level.child("merge");
                // Burn a few hundred nanoseconds so totals are nonzero.
                let mut acc = 0u64;
                for i in 0..500u64 {
                    acc = acc.wrapping_add(i * i);
                }
                assert!(acc > 0);
                merge.finish();
                level.finish();
            }
            run.finish();
        }
        let p = m.snapshot();
        let run = p.phase("run").expect("run recorded");
        let level = p.phase("run/level").expect("level recorded");
        let merge = p.phase("run/level/merge").expect("merge recorded");
        assert_eq!(run.calls, 1);
        assert_eq!(level.calls, 3);
        assert_eq!(merge.calls, 3);
        // Nested intervals: each parent's total covers its children.
        assert!(run.total_ns >= level.total_ns);
        assert!(level.total_ns >= merge.total_ns);
        assert!(merge.total_ns > 0);
        assert!(level.min_ns <= level.max_ns);
        assert!(level.min_ns + level.max_ns <= 2 * level.total_ns);
    }

    #[test]
    fn drop_records_once_finish_records_once() {
        let m = Metrics::new("t");
        {
            let _s = m.span("dropped");
        }
        m.span("finished").finish();
        let p = m.snapshot();
        assert_eq!(p.phase("dropped").unwrap().calls, 1);
        assert_eq!(p.phase("finished").unwrap().calls, 1);
    }

    #[test]
    fn gauges_and_histograms_snapshot() {
        let m = Metrics::new("t");
        m.set_gauge("g", 1.0);
        m.set_gauge("g", 2.5);
        m.record("h", 10);
        m.record("h", 12);
        let mut local = Histogram::new();
        local.record(14);
        m.merge_histogram("h", &local);
        let p = m.snapshot();
        assert_eq!(p.gauge("g"), Some(2.5));
        let h = p.histogram("h").expect("histogram");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 14);
    }

    #[test]
    fn time_option_is_transparent() {
        let m = Metrics::new("t");
        assert_eq!(time_option(Some(&m), "p", || 7), 7);
        assert_eq!(time_option(None, "p", || 8), 8);
        let p = m.snapshot();
        assert_eq!(p.phase("p").unwrap().calls, 1);
    }
}
