//! Harness spans: one record per call into a layer, kept in memory and
//! written out only when the run ends (choosing-metrics §4). Spans are
//! recorded from the benchmark's own files, around the layers' public
//! calls; nothing inside the program under test is instrumented here.

use avfs_obs::json::Json;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `delay.characterize`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. A disabled recorder runs the closure and
/// records nothing, so untraced runs pay one branch per layer call.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every finished span in start order.
    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of span `index`: its duration minus the part of that
    /// interval its direct children cover (children of one parent never
    /// overlap — the recorder is single-threaded and strictly nested).
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"X"`) event per span, microsecond timestamps, with the
    /// span's self time, parent, workload and round under `args`.
    pub fn to_chrome_trace(&self, workload: &str, round: u64) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str(workload.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(i as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("self_us".into(), Json::Num(self.self_ns(i) as f64 / 1e3)),
                            ("workload".into(), Json::Str(workload.into())),
                            ("round".into(), Json::Num(round as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut spans = Spans::new(true);
        spans.time("outer", |s| {
            s.time("a", |_| std::hint::black_box(1 + 1));
            s.time("b", |s| s.time("c", |_| ()));
        });
        let all = spans.all();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        let outer = all[0].end_ns - all[0].start_ns;
        let children = (all[1].end_ns - all[1].start_ns) + (all[2].end_ns - all[2].start_ns);
        assert_eq!(spans.self_ns(0), outer - children);
        // A leaf's self time is its duration.
        assert_eq!(spans.self_ns(3), all[3].end_ns - all[3].start_ns);
        assert_eq!(spans.seconds_of("a").len(), 1);
    }

    #[test]
    fn self_time_with_fixed_intervals() {
        let spans = Spans {
            origin: Instant::now(),
            enabled: true,
            open: Vec::new(),
            spans: vec![
                Span {
                    name: "p",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                },
                Span {
                    name: "x",
                    start_ns: 10,
                    end_ns: 40,
                    parent: Some(0),
                },
                Span {
                    name: "y",
                    start_ns: 50,
                    end_ns: 90,
                    parent: Some(0),
                },
                Span {
                    name: "z",
                    start_ns: 55,
                    end_ns: 60,
                    parent: Some(2),
                },
            ],
        };
        assert_eq!(spans.self_ns(0), 30);
        assert_eq!(spans.self_ns(2), 35);
        let trace = spans.to_chrome_trace("w", 3);
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(0.035));
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("round").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", |_| 7), 7);
        assert!(spans.all().is_empty());
    }
}
