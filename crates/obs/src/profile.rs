//! Immutable metric snapshots: plain data, `Display`, JSON round-trip.

use crate::histogram::HistogramStats;
use crate::json::{Json, JsonError};
use std::fmt;

/// Schema identifier embedded in serialized profiles.
pub const PROFILE_SCHEMA: &str = "avfs-profile/1";

/// An immutable snapshot of a [`Metrics`](crate::Metrics) registry.
///
/// All durations are nanoseconds; other units are declared by each
/// instrument's name (e.g. `engine.arena_occupancy` counts transitions,
/// `ed.queue_depth` counts pending events). Entries are sorted
/// lexicographically by name, so two snapshots of identical activity
/// compare equal structurally.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The registry name (e.g. `"engine"`, `"event_driven"`).
    pub name: String,
    /// Per-phase wall-clock aggregates, keyed by `/`-separated span path.
    pub phases: Vec<PhaseStats>,
    /// Monotonic event counts.
    pub counters: Vec<CounterStat>,
    /// Last-write-wins measurements.
    pub gauges: Vec<GaugeStat>,
    /// Value distributions.
    pub histograms: Vec<HistogramStat>,
}

/// Wall-clock aggregate for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// `/`-separated span path (e.g. `"engine/run/level/merge"`).
    pub path: String,
    /// Number of recorded spans.
    pub calls: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStats {
    /// Mean span duration in nanoseconds (0 when no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Final value of one monotonic counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    /// Counter name (e.g. `"engine.kernel_evals"`).
    pub name: String,
    /// Final count.
    pub value: u64,
}

/// Final value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeStat {
    /// Gauge name (e.g. `"ed.events_per_sec"`).
    pub name: String,
    /// Last written value.
    pub value: f64,
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStat {
    /// Histogram name; a `_ns` suffix means the unit is nanoseconds.
    pub name: String,
    /// Count / min / max / mean / p50 / p99 of the recorded values.
    pub stats: HistogramStats,
}

impl Profile {
    /// Phase lookup by full span path.
    pub fn phase(&self, path: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// Counter lookup by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Gauge lookup by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Histogram lookup by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.stats)
    }

    /// Serializes to a schema-versioned JSON value (`avfs-profile/1`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(PROFILE_SCHEMA.into())),
            ("name".into(), Json::Str(self.name.clone())),
            (
                "phases".into(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("path".into(), Json::Str(p.path.clone())),
                                ("calls".into(), Json::Num(p.calls as f64)),
                                ("total_ns".into(), Json::Num(p.total_ns as f64)),
                                ("min_ns".into(), Json::Num(p.min_ns as f64)),
                                ("max_ns".into(), Json::Num(p.max_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".into(),
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(c.name.clone())),
                                ("value".into(), Json::Num(c.value as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|g| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(g.name.clone())),
                                ("value".into(), Json::Num(g.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(h.name.clone())),
                                ("count".into(), Json::Num(h.stats.count as f64)),
                                ("min".into(), Json::Num(h.stats.min as f64)),
                                ("max".into(), Json::Num(h.stats.max as f64)),
                                ("mean".into(), Json::Num(h.stats.mean)),
                                ("p50".into(), Json::Num(h.stats.p50 as f64)),
                                ("p99".into(), Json::Num(h.stats.p99 as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a value produced by [`Profile::to_json`], checking the
    /// schema tag.
    pub fn from_json(value: &Json) -> Result<Profile, JsonError> {
        let fail = |message: &str| JsonError {
            offset: 0,
            message: message.to_owned(),
        };
        let schema = value
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing schema tag"))?;
        if schema != PROFILE_SCHEMA {
            return Err(fail(&format!("unsupported schema '{schema}'")));
        }
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing profile name"))?
            .to_owned();
        let req_u64 = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| fail(&format!("missing/invalid field '{key}'")))
        };
        let req_f64 = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(&format!("missing/invalid field '{key}'")))
        };
        let req_str = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| fail(&format!("missing/invalid field '{key}'")))
        };
        let arr = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| fail(&format!("missing array '{key}'")))
        };
        let mut phases = Vec::new();
        for p in arr("phases")? {
            phases.push(PhaseStats {
                path: req_str(p, "path")?,
                calls: req_u64(p, "calls")?,
                total_ns: req_u64(p, "total_ns")?,
                min_ns: req_u64(p, "min_ns")?,
                max_ns: req_u64(p, "max_ns")?,
            });
        }
        let mut counters = Vec::new();
        for c in arr("counters")? {
            counters.push(CounterStat {
                name: req_str(c, "name")?,
                value: req_u64(c, "value")?,
            });
        }
        let mut gauges = Vec::new();
        for g in arr("gauges")? {
            gauges.push(GaugeStat {
                name: req_str(g, "name")?,
                value: req_f64(g, "value")?,
            });
        }
        let mut histograms = Vec::new();
        for h in arr("histograms")? {
            histograms.push(HistogramStat {
                name: req_str(h, "name")?,
                stats: HistogramStats {
                    count: req_u64(h, "count")?,
                    min: req_u64(h, "min")?,
                    max: req_u64(h, "max")?,
                    mean: req_f64(h, "mean")?,
                    p50: req_u64(h, "p50")?,
                    p99: req_u64(h, "p99")?,
                },
            });
        }
        Ok(Profile {
            name,
            phases,
            counters,
            gauges,
            histograms,
        })
    }
}

/// Formats nanoseconds human-readably (`312 ns`, `4.7 µs`, `18.2 ms`,
/// `3.41 s`).
pub fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns_f / 1e6)
    } else {
        format!("{:.2} s", ns_f / 1e9)
    }
}

impl fmt::Display for Profile {
    /// Renders an aligned table per instrument family, durations
    /// humanized via [`fmt_ns`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile '{}'", self.name)?;
        if !self.phases.is_empty() {
            let width = self
                .phases
                .iter()
                .map(|p| p.path.len())
                .max()
                .unwrap_or(0)
                .max(5);
            writeln!(
                f,
                "  {:width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
                "phase", "calls", "total", "mean", "min", "max"
            )?;
            for p in &self.phases {
                writeln!(
                    f,
                    "  {:width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
                    p.path,
                    p.calls,
                    fmt_ns(p.total_ns),
                    fmt_ns(p.mean_ns() as u64),
                    fmt_ns(p.min_ns),
                    fmt_ns(p.max_ns),
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "  counters:")?;
            for c in &self.counters {
                writeln!(f, "    {} = {}", c.name, c.value)?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "  gauges:")?;
            for g in &self.gauges {
                writeln!(f, "    {} = {:.3}", g.name, g.value)?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "  histograms (count / min / mean / p50 / p99 / max):")?;
            for h in &self.histograms {
                let s = &h.stats;
                writeln!(
                    f,
                    "    {}: {} / {} / {:.1} / {} / {} / {}",
                    h.name, s.count, s.min, s.mean, s.p50, s.p99, s.max
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metrics;

    fn sample() -> Profile {
        let m = Metrics::new("sample");
        m.time("run", || {
            m.time("run/level", || ());
        });
        m.counter("evals").add(1234);
        m.set_gauge("meps", 56.75);
        for v in [3u64, 9, 27, 81] {
            m.record("depth", v);
        }
        m.snapshot()
    }

    #[test]
    fn json_round_trip_is_identity() {
        let p = sample();
        let text = p.to_json().to_string_pretty();
        let back = Profile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            fields[0].1 = Json::Str("other/9".into());
        }
        assert!(Profile::from_json(&v).is_err());
        assert!(Profile::from_json(&Json::Null).is_err());
    }

    #[test]
    fn accessors_and_display() {
        let p = sample();
        assert_eq!(p.counter("evals"), Some(1234));
        assert_eq!(p.gauge("meps"), Some(56.75));
        assert_eq!(p.histogram("depth").unwrap().count, 4);
        assert!(p.phase("run/level").is_some());
        assert!(p.phase("run").unwrap().total_ns >= p.phase("run/level").unwrap().total_ns);
        let rendered = format!("{p}");
        assert!(rendered.contains("run/level"));
        assert!(rendered.contains("evals = 1234"));
        assert!(rendered.contains("meps = 56.750"));
        assert!(rendered.contains("depth:"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(312), "312 ns");
        assert_eq!(fmt_ns(4_700), "4.7 µs");
        assert_eq!(fmt_ns(18_200_000), "18.2 ms");
        assert_eq!(fmt_ns(3_410_000_000), "3.41 s");
    }
}
