//! The machine-readable performance report emitted by `perf_report` —
//! the schema-versioned `BENCH_core.json` that gives the repo's perf
//! trajectory its baseline points.
//!
//! The report is plain data with a JSON round-trip built on
//! [`avfs_obs::Json`]; [`PerfReport::from_json`] doubles as the schema
//! validator used by `perf_report --smoke` and CI.

use avfs_core::Profile;
use avfs_obs::{Json, JsonError};

/// Schema identifier embedded in every report.
pub const PERF_SCHEMA: &str = "avfs-perf-report/1";

/// A full performance report: environment block plus one entry per
/// benchmarked circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Circuit scale factor relative to the paper's node counts.
    pub scale: f64,
    /// Cap on pattern pairs per circuit.
    pub pairs_cap: u64,
    /// Engine worker threads.
    pub threads: u64,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Target OS (`std::env::consts::OS`).
    pub os: String,
    /// Per-circuit measurements.
    pub circuits: Vec<CircuitPerf>,
    /// Worker-pool scaling sweep over one circuit (absent in reports
    /// predating the persistent-pool engine).
    pub thread_scaling: Option<ThreadScaling>,
    /// Activity-gating sweep over one circuit (absent in reports
    /// predating the activity-gated engine).
    pub activity_sweep: Option<ActivitySweep>,
    /// Lane-width scaling sweep over one circuit (absent in reports
    /// predating the lane-major engine).
    pub lane_scaling: Option<LaneScaling>,
    /// Compile-once / simulate-many amortization workload (absent in
    /// reports predating the batch runner).
    pub batch_throughput: Option<BatchThroughput>,
    /// Scenario-engine Monte Carlo sweep: failure probability vs supply
    /// voltage under droop schedules (absent in reports predating the
    /// scenario engine).
    pub scenario_sweep: Option<ScenarioSweep>,
}

/// Scenario-engine measurement: one droop-schedule grid per supply
/// voltage, each scenario expanded into Monte Carlo process-variation
/// dice, reduced into the failure-probability-vs-voltage curve against a
/// capture deadline (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweep {
    /// Circuit the sweep ran on.
    pub circuit: String,
    /// Netlist nodes of that circuit.
    pub nodes: u64,
    /// Pattern pairs simulated per voltage point.
    pub pairs: u64,
    /// Monte Carlo dice per scenario.
    pub samples: u64,
    /// Variation seed (the sweep replays exactly from it).
    pub seed: u64,
    /// Relative sigma of the per-pin delay derate.
    pub sigma: f64,
    /// Capture deadline failures were counted against, ps.
    pub capture_deadline_ps: f64,
    /// Wall-clock of the whole sweep launch, milliseconds.
    pub elapsed_ms: f64,
    /// One curve point per nominal supply voltage, ascending.
    pub points: Vec<ScenarioPoint>,
}

/// One point of a [`ScenarioSweep`] failure-probability curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// Nominal (segment-0) supply voltage of the droop schedule, V.
    pub voltage: f64,
    /// Completed Monte Carlo samples at this voltage.
    pub samples: u64,
    /// Samples whose latest output transition missed the deadline.
    pub failures: u64,
    /// `failures / samples`.
    pub p_fail: f64,
}

/// Compile-once / simulate-many measurement: the same N-run workload
/// executed once with a fresh `CompiledNetlist::compile` per run
/// (compile paid N times, pool respawned N times) and once through a
/// `BatchRunner` (compile paid once, pool parked).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchThroughput {
    /// Circuit the workload ran on.
    pub circuit: String,
    /// Netlist nodes of that circuit.
    pub nodes: u64,
    /// Repeated runs in the amortization workload.
    pub runs: u64,
    /// Pattern pairs per run.
    pub pairs: u64,
    /// Simulation slots per run.
    pub slots: u64,
    /// Total wall-clock of the per-run-compile workload, milliseconds.
    pub per_run_ms: f64,
    /// Total wall-clock of the compile-once workload, milliseconds.
    pub batched_ms: f64,
    /// `per_run_ms / batched_ms` — the amortization payoff.
    pub speedup: f64,
    /// Artifact-cache hits across the batched workload (`runs − 1` when
    /// every run reuses the one compiled artifact).
    pub compile_hits: u64,
    /// Artifact-cache misses (compiles performed) across the batched
    /// workload — 1 for a compile-once workload.
    pub compile_misses: u64,
}

/// Lane-width scaling sweep of the lane-major engine: the report's
/// largest circuit re-run at increasing lane widths on otherwise
/// identical inputs, with results asserted bit-identical to the sweep's
/// own scalar (lane width 1) point.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneScaling {
    /// Circuit the sweep ran on.
    pub circuit: String,
    /// Netlist nodes of that circuit.
    pub nodes: u64,
    /// Pattern pairs simulated per point.
    pub pairs: u64,
    /// Simulation slots per point.
    pub slots: u64,
    /// One measurement per lane width, ascending.
    pub points: Vec<LanePoint>,
}

/// One point of a [`LaneScaling`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePoint {
    /// Lane width of this point.
    pub lanes: u64,
    /// Engine wall-clock, milliseconds.
    pub elapsed_ms: f64,
    /// Speedup versus the sweep's own scalar (lane width 1) point.
    pub speedup_vs_scalar: f64,
}

/// Activity-gating sweep: the report's largest circuit re-run at
/// increasing stimuli activity factors, with the engine's quiet-cell
/// fast path on versus off on otherwise identical inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySweep {
    /// Circuit the sweep ran on.
    pub circuit: String,
    /// Netlist nodes of that circuit.
    pub nodes: u64,
    /// Pattern pairs simulated per point.
    pub pairs: u64,
    /// Simulation slots per point.
    pub slots: u64,
    /// One measurement per activity factor, ascending.
    pub points: Vec<ActivityPoint>,
}

/// One point of an [`ActivitySweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityPoint {
    /// Probability that an input toggles between launch and capture
    /// (see `avfs_bench::activity_patterns`).
    pub activity_factor: f64,
    /// Gated engine wall-clock, milliseconds.
    pub gated_ms: f64,
    /// Ungated engine wall-clock, milliseconds.
    pub ungated_ms: f64,
    /// `ungated_ms / gated_ms` — the activity-gating payoff at this point.
    pub speedup: f64,
    /// Gate tasks the gated run resolved via the quiet-cell fast path
    /// (`engine.gates_skipped_quiet`).
    pub gates_skipped_quiet: u64,
    /// Total (slot, gate) tasks of the gated run, for the skip share.
    pub gate_tasks: u64,
}

/// Thread-scaling sweep of the persistent worker pool: the report's
/// largest circuit re-run at increasing worker counts on otherwise
/// identical inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadScaling {
    /// Circuit the sweep ran on.
    pub circuit: String,
    /// Netlist nodes of that circuit.
    pub nodes: u64,
    /// Pattern pairs simulated per point.
    pub pairs: u64,
    /// Simulation slots per point.
    pub slots: u64,
    /// `engine_elapsed_ms` of the same circuit in the previously committed
    /// report (the fork-join engine), when one was available to compare
    /// against.
    pub prior_engine_elapsed_ms: Option<f64>,
    /// One measurement per worker count, ascending.
    pub points: Vec<ScalingPoint>,
}

/// One point of a [`ThreadScaling`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Worker count of this point.
    pub threads: u64,
    /// Engine wall-clock, milliseconds.
    pub elapsed_ms: f64,
    /// Speedup versus the sweep's own single-worker point.
    pub speedup_vs_single: f64,
}

/// Measurements of one circuit: the event-driven baseline and the
/// parallel polynomial engine on identical inputs, with phase-level
/// profiles of both.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitPerf {
    /// Circuit name (paper Table I designs, or `c17` in smoke mode).
    pub name: String,
    /// Netlist nodes.
    pub nodes: u64,
    /// Levelization depth.
    pub levels: u64,
    /// Pattern pairs simulated.
    pub pairs: u64,
    /// Simulation slots (pattern, operating point).
    pub slots: u64,
    /// Event-driven baseline wall-clock, milliseconds.
    pub ed_elapsed_ms: f64,
    /// Event-driven throughput, million node evaluations per second.
    pub ed_meps: f64,
    /// Parallel engine wall-clock, milliseconds.
    pub engine_elapsed_ms: f64,
    /// Parallel engine throughput, MEPS (the paper's Table I metric).
    pub engine_meps: f64,
    /// `ed_elapsed_ms / engine_elapsed_ms` — the Table I "X" column.
    pub speedup_vs_event_driven: f64,
    /// Phase-level profile of the engine run (`avfs-profile/1`).
    pub engine_profile: Profile,
    /// Phase-level profile of the baseline run (`avfs-profile/1`).
    pub ed_profile: Profile,
}

impl PerfReport {
    /// Serializes to the schema-versioned JSON document.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::Str(PERF_SCHEMA.into())),
            (
                "environment".into(),
                Json::Obj(vec![
                    ("scale".into(), Json::Num(self.scale)),
                    ("pairs_cap".into(), Json::Num(self.pairs_cap as f64)),
                    ("threads".into(), Json::Num(self.threads as f64)),
                    ("arch".into(), Json::Str(self.arch.clone())),
                    ("os".into(), Json::Str(self.os.clone())),
                ]),
            ),
            (
                "circuits".into(),
                Json::Arr(
                    self.circuits
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(c.name.clone())),
                                ("nodes".into(), Json::Num(c.nodes as f64)),
                                ("levels".into(), Json::Num(c.levels as f64)),
                                ("pairs".into(), Json::Num(c.pairs as f64)),
                                ("slots".into(), Json::Num(c.slots as f64)),
                                ("ed_elapsed_ms".into(), Json::Num(c.ed_elapsed_ms)),
                                ("ed_meps".into(), Json::Num(c.ed_meps)),
                                ("engine_elapsed_ms".into(), Json::Num(c.engine_elapsed_ms)),
                                ("engine_meps".into(), Json::Num(c.engine_meps)),
                                (
                                    "speedup_vs_event_driven".into(),
                                    Json::Num(c.speedup_vs_event_driven),
                                ),
                                ("engine_profile".into(), c.engine_profile.to_json()),
                                ("ed_profile".into(), c.ed_profile.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(ts) = &self.thread_scaling {
            fields.push((
                "thread_scaling".into(),
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(ts.circuit.clone())),
                    ("nodes".into(), Json::Num(ts.nodes as f64)),
                    ("pairs".into(), Json::Num(ts.pairs as f64)),
                    ("slots".into(), Json::Num(ts.slots as f64)),
                    (
                        "prior_engine_elapsed_ms".into(),
                        ts.prior_engine_elapsed_ms.map_or(Json::Null, Json::Num),
                    ),
                    (
                        "points".into(),
                        Json::Arr(
                            ts.points
                                .iter()
                                .map(|p| {
                                    Json::Obj(vec![
                                        ("threads".into(), Json::Num(p.threads as f64)),
                                        ("elapsed_ms".into(), Json::Num(p.elapsed_ms)),
                                        (
                                            "speedup_vs_single".into(),
                                            Json::Num(p.speedup_vs_single),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(ls) = &self.lane_scaling {
            fields.push((
                "lane_scaling".into(),
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(ls.circuit.clone())),
                    ("nodes".into(), Json::Num(ls.nodes as f64)),
                    ("pairs".into(), Json::Num(ls.pairs as f64)),
                    ("slots".into(), Json::Num(ls.slots as f64)),
                    (
                        "points".into(),
                        Json::Arr(
                            ls.points
                                .iter()
                                .map(|p| {
                                    Json::Obj(vec![
                                        ("lanes".into(), Json::Num(p.lanes as f64)),
                                        ("elapsed_ms".into(), Json::Num(p.elapsed_ms)),
                                        (
                                            "speedup_vs_scalar".into(),
                                            Json::Num(p.speedup_vs_scalar),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(bt) = &self.batch_throughput {
            fields.push((
                "batch_throughput".into(),
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(bt.circuit.clone())),
                    ("nodes".into(), Json::Num(bt.nodes as f64)),
                    ("runs".into(), Json::Num(bt.runs as f64)),
                    ("pairs".into(), Json::Num(bt.pairs as f64)),
                    ("slots".into(), Json::Num(bt.slots as f64)),
                    ("per_run_ms".into(), Json::Num(bt.per_run_ms)),
                    ("batched_ms".into(), Json::Num(bt.batched_ms)),
                    ("speedup".into(), Json::Num(bt.speedup)),
                    ("compile_hits".into(), Json::Num(bt.compile_hits as f64)),
                    ("compile_misses".into(), Json::Num(bt.compile_misses as f64)),
                ]),
            ));
        }
        if let Some(sw) = &self.scenario_sweep {
            fields.push((
                "scenario_sweep".into(),
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(sw.circuit.clone())),
                    ("nodes".into(), Json::Num(sw.nodes as f64)),
                    ("pairs".into(), Json::Num(sw.pairs as f64)),
                    ("samples".into(), Json::Num(sw.samples as f64)),
                    ("seed".into(), Json::Num(sw.seed as f64)),
                    ("sigma".into(), Json::Num(sw.sigma)),
                    (
                        "capture_deadline_ps".into(),
                        Json::Num(sw.capture_deadline_ps),
                    ),
                    ("elapsed_ms".into(), Json::Num(sw.elapsed_ms)),
                    (
                        "points".into(),
                        Json::Arr(
                            sw.points
                                .iter()
                                .map(|p| {
                                    Json::Obj(vec![
                                        ("voltage".into(), Json::Num(p.voltage)),
                                        ("samples".into(), Json::Num(p.samples as f64)),
                                        ("failures".into(), Json::Num(p.failures as f64)),
                                        ("p_fail".into(), Json::Num(p.p_fail)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(sweep) = &self.activity_sweep {
            fields.push((
                "activity_sweep".into(),
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(sweep.circuit.clone())),
                    ("nodes".into(), Json::Num(sweep.nodes as f64)),
                    ("pairs".into(), Json::Num(sweep.pairs as f64)),
                    ("slots".into(), Json::Num(sweep.slots as f64)),
                    (
                        "points".into(),
                        Json::Arr(
                            sweep
                                .points
                                .iter()
                                .map(|p| {
                                    Json::Obj(vec![
                                        ("activity_factor".into(), Json::Num(p.activity_factor)),
                                        ("gated_ms".into(), Json::Num(p.gated_ms)),
                                        ("ungated_ms".into(), Json::Num(p.ungated_ms)),
                                        ("speedup".into(), Json::Num(p.speedup)),
                                        (
                                            "gates_skipped_quiet".into(),
                                            Json::Num(p.gates_skipped_quiet as f64),
                                        ),
                                        ("gate_tasks".into(), Json::Num(p.gate_tasks as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Deserializes (and thereby validates) a report document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first missing or mistyped
    /// field, or an unsupported schema tag.
    pub fn from_json(value: &Json) -> Result<PerfReport, JsonError> {
        let fail = |message: &str| JsonError {
            offset: 0,
            message: message.to_owned(),
        };
        let schema = value
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing schema tag"))?;
        if schema != PERF_SCHEMA {
            return Err(fail(&format!("unsupported schema '{schema}'")));
        }
        let env = value
            .get("environment")
            .ok_or_else(|| fail("missing environment block"))?;
        let req_f64 = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(&format!("missing/invalid field '{key}'")))
        };
        let req_u64 = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| fail(&format!("missing/invalid field '{key}'")))
        };
        let req_str = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| fail(&format!("missing/invalid field '{key}'")))
        };
        let mut circuits = Vec::new();
        for c in value
            .get("circuits")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("missing circuits array"))?
        {
            circuits.push(CircuitPerf {
                name: req_str(c, "name")?,
                nodes: req_u64(c, "nodes")?,
                levels: req_u64(c, "levels")?,
                pairs: req_u64(c, "pairs")?,
                slots: req_u64(c, "slots")?,
                ed_elapsed_ms: req_f64(c, "ed_elapsed_ms")?,
                ed_meps: req_f64(c, "ed_meps")?,
                engine_elapsed_ms: req_f64(c, "engine_elapsed_ms")?,
                engine_meps: req_f64(c, "engine_meps")?,
                speedup_vs_event_driven: req_f64(c, "speedup_vs_event_driven")?,
                engine_profile: Profile::from_json(
                    c.get("engine_profile")
                        .ok_or_else(|| fail("missing engine_profile"))?,
                )?,
                ed_profile: Profile::from_json(
                    c.get("ed_profile")
                        .ok_or_else(|| fail("missing ed_profile"))?,
                )?,
            });
        }
        let thread_scaling = match value.get("thread_scaling") {
            None | Some(Json::Null) => None,
            Some(ts) => {
                let mut points = Vec::new();
                for p in ts
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| fail("missing thread_scaling points array"))?
                {
                    points.push(ScalingPoint {
                        threads: req_u64(p, "threads")?,
                        elapsed_ms: req_f64(p, "elapsed_ms")?,
                        speedup_vs_single: req_f64(p, "speedup_vs_single")?,
                    });
                }
                Some(ThreadScaling {
                    circuit: req_str(ts, "circuit")?,
                    nodes: req_u64(ts, "nodes")?,
                    pairs: req_u64(ts, "pairs")?,
                    slots: req_u64(ts, "slots")?,
                    prior_engine_elapsed_ms: ts
                        .get("prior_engine_elapsed_ms")
                        .and_then(Json::as_f64),
                    points,
                })
            }
        };
        let lane_scaling = match value.get("lane_scaling") {
            None | Some(Json::Null) => None,
            Some(ls) => {
                let mut points = Vec::new();
                for p in ls
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| fail("missing lane_scaling points array"))?
                {
                    points.push(LanePoint {
                        lanes: req_u64(p, "lanes")?,
                        elapsed_ms: req_f64(p, "elapsed_ms")?,
                        speedup_vs_scalar: req_f64(p, "speedup_vs_scalar")?,
                    });
                }
                Some(LaneScaling {
                    circuit: req_str(ls, "circuit")?,
                    nodes: req_u64(ls, "nodes")?,
                    pairs: req_u64(ls, "pairs")?,
                    slots: req_u64(ls, "slots")?,
                    points,
                })
            }
        };
        let batch_throughput = match value.get("batch_throughput") {
            None | Some(Json::Null) => None,
            Some(bt) => Some(BatchThroughput {
                circuit: req_str(bt, "circuit")?,
                nodes: req_u64(bt, "nodes")?,
                runs: req_u64(bt, "runs")?,
                pairs: req_u64(bt, "pairs")?,
                slots: req_u64(bt, "slots")?,
                per_run_ms: req_f64(bt, "per_run_ms")?,
                batched_ms: req_f64(bt, "batched_ms")?,
                speedup: req_f64(bt, "speedup")?,
                compile_hits: req_u64(bt, "compile_hits")?,
                compile_misses: req_u64(bt, "compile_misses")?,
            }),
        };
        let scenario_sweep = match value.get("scenario_sweep") {
            None | Some(Json::Null) => None,
            Some(sw) => {
                let mut points = Vec::new();
                for p in sw
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| fail("missing scenario_sweep points array"))?
                {
                    points.push(ScenarioPoint {
                        voltage: req_f64(p, "voltage")?,
                        samples: req_u64(p, "samples")?,
                        failures: req_u64(p, "failures")?,
                        p_fail: req_f64(p, "p_fail")?,
                    });
                }
                Some(ScenarioSweep {
                    circuit: req_str(sw, "circuit")?,
                    nodes: req_u64(sw, "nodes")?,
                    pairs: req_u64(sw, "pairs")?,
                    samples: req_u64(sw, "samples")?,
                    seed: req_u64(sw, "seed")?,
                    sigma: req_f64(sw, "sigma")?,
                    capture_deadline_ps: req_f64(sw, "capture_deadline_ps")?,
                    elapsed_ms: req_f64(sw, "elapsed_ms")?,
                    points,
                })
            }
        };
        let activity_sweep = match value.get("activity_sweep") {
            None | Some(Json::Null) => None,
            Some(sweep) => {
                let mut points = Vec::new();
                for p in sweep
                    .get("points")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| fail("missing activity_sweep points array"))?
                {
                    points.push(ActivityPoint {
                        activity_factor: req_f64(p, "activity_factor")?,
                        gated_ms: req_f64(p, "gated_ms")?,
                        ungated_ms: req_f64(p, "ungated_ms")?,
                        speedup: req_f64(p, "speedup")?,
                        gates_skipped_quiet: req_u64(p, "gates_skipped_quiet")?,
                        gate_tasks: req_u64(p, "gate_tasks")?,
                    });
                }
                Some(ActivitySweep {
                    circuit: req_str(sweep, "circuit")?,
                    nodes: req_u64(sweep, "nodes")?,
                    pairs: req_u64(sweep, "pairs")?,
                    slots: req_u64(sweep, "slots")?,
                    points,
                })
            }
        };
        Ok(PerfReport {
            scale: req_f64(env, "scale")?,
            pairs_cap: req_u64(env, "pairs_cap")?,
            threads: req_u64(env, "threads")?,
            arch: req_str(env, "arch")?,
            os: req_str(env, "os")?,
            circuits,
            thread_scaling,
            activity_sweep,
            lane_scaling,
            batch_throughput,
            scenario_sweep,
        })
    }

    /// Parses and validates a serialized report, returning a short
    /// description of the first problem found.
    ///
    /// # Errors
    ///
    /// Returns the parse or schema error rendered as a string.
    pub fn validate(text: &str) -> Result<PerfReport, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        PerfReport::from_json(&value).map_err(|e| e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_core::Metrics;

    fn sample() -> PerfReport {
        let m = Metrics::new("engine");
        m.time("engine/run", || ());
        m.counter("engine.kernel_evals").add(99);
        let engine_profile = m.snapshot();
        let e = Metrics::new("event_driven");
        e.time("ed/simulate", || ());
        e.set_gauge("ed.events_per_sec", 1.25e6);
        let ed_profile = e.snapshot();
        PerfReport {
            scale: 0.01,
            pairs_cap: 24,
            threads: 8,
            arch: "x86_64".into(),
            os: "linux".into(),
            circuits: vec![CircuitPerf {
                name: "c17".into(),
                nodes: 17,
                levels: 4,
                pairs: 8,
                slots: 8,
                ed_elapsed_ms: 1.5,
                ed_meps: 0.09,
                engine_elapsed_ms: 0.5,
                engine_meps: 0.27,
                speedup_vs_event_driven: 3.0,
                engine_profile,
                ed_profile,
            }],
            thread_scaling: Some(ThreadScaling {
                circuit: "c17".into(),
                nodes: 17,
                pairs: 8,
                slots: 8,
                prior_engine_elapsed_ms: Some(0.7),
                points: vec![
                    ScalingPoint {
                        threads: 1,
                        elapsed_ms: 0.6,
                        speedup_vs_single: 1.0,
                    },
                    ScalingPoint {
                        threads: 4,
                        elapsed_ms: 0.2,
                        speedup_vs_single: 3.0,
                    },
                ],
            }),
            lane_scaling: Some(LaneScaling {
                circuit: "c17".into(),
                nodes: 17,
                pairs: 8,
                slots: 8,
                points: vec![
                    LanePoint {
                        lanes: 1,
                        elapsed_ms: 0.6,
                        speedup_vs_scalar: 1.0,
                    },
                    LanePoint {
                        lanes: 8,
                        elapsed_ms: 0.3,
                        speedup_vs_scalar: 2.0,
                    },
                ],
            }),
            batch_throughput: Some(BatchThroughput {
                circuit: "c17".into(),
                nodes: 17,
                runs: 64,
                pairs: 8,
                slots: 8,
                per_run_ms: 30.0,
                batched_ms: 6.0,
                speedup: 5.0,
                compile_hits: 63,
                compile_misses: 1,
            }),
            scenario_sweep: Some(ScenarioSweep {
                circuit: "c17".into(),
                nodes: 17,
                pairs: 8,
                samples: 16,
                seed: 7,
                sigma: 0.05,
                capture_deadline_ps: 42.5,
                elapsed_ms: 1.2,
                points: vec![
                    ScenarioPoint {
                        voltage: 0.6,
                        samples: 128,
                        failures: 96,
                        p_fail: 0.75,
                    },
                    ScenarioPoint {
                        voltage: 0.9,
                        samples: 128,
                        failures: 0,
                        p_fail: 0.0,
                    },
                ],
            }),
            activity_sweep: Some(ActivitySweep {
                circuit: "c17".into(),
                nodes: 17,
                pairs: 8,
                slots: 8,
                points: vec![
                    ActivityPoint {
                        activity_factor: 0.1,
                        gated_ms: 0.2,
                        ungated_ms: 0.5,
                        speedup: 2.5,
                        gates_skipped_quiet: 40,
                        gate_tasks: 48,
                    },
                    ActivityPoint {
                        activity_factor: 1.0,
                        gated_ms: 0.5,
                        ungated_ms: 0.5,
                        speedup: 1.0,
                        gates_skipped_quiet: 0,
                        gate_tasks: 48,
                    },
                ],
            }),
        }
    }

    #[test]
    fn schema_round_trip_is_identity() {
        let report = sample();
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("valid document");
        assert_eq!(back, report);
    }

    #[test]
    fn thread_scaling_is_optional() {
        // Reports predating the pooled engine have no thread_scaling
        // section and must keep validating.
        let mut report = sample();
        report.thread_scaling = None;
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("valid without thread_scaling");
        assert_eq!(back, report);
        // An unknown prior baseline serializes as null and survives.
        let mut report = sample();
        report
            .thread_scaling
            .as_mut()
            .unwrap()
            .prior_engine_elapsed_ms = None;
        let back = PerfReport::validate(&report.to_json().to_string_pretty()).expect("valid");
        assert_eq!(back, report);
    }

    #[test]
    fn activity_sweep_is_optional() {
        // Reports predating the activity-gated engine have no
        // activity_sweep section and must keep validating.
        let mut report = sample();
        report.activity_sweep = None;
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("valid without activity_sweep");
        assert_eq!(back, report);
        // A corrupt section is rejected with a pointed message.
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            if let Some((_, Json::Obj(s))) = fields.iter_mut().find(|(k, _)| k == "activity_sweep")
            {
                s.retain(|(k, _)| k != "points");
            }
        }
        let err = PerfReport::validate(&v.to_string_pretty()).unwrap_err();
        assert!(err.contains("activity_sweep points"), "{err}");
    }

    #[test]
    fn lane_scaling_is_optional() {
        // Reports predating the lane-major engine have no lane_scaling
        // section and must keep validating.
        let mut report = sample();
        report.lane_scaling = None;
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("valid without lane_scaling");
        assert_eq!(back, report);
        // A corrupt section is rejected with a pointed message.
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            if let Some((_, Json::Obj(s))) = fields.iter_mut().find(|(k, _)| k == "lane_scaling") {
                s.retain(|(k, _)| k != "points");
            }
        }
        let err = PerfReport::validate(&v.to_string_pretty()).unwrap_err();
        assert!(err.contains("lane_scaling points"), "{err}");
    }

    #[test]
    fn batch_throughput_is_optional() {
        // Reports predating the batch runner have no batch_throughput
        // section and must keep validating.
        let mut report = sample();
        report.batch_throughput = None;
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("valid without batch_throughput");
        assert_eq!(back, report);
        // A corrupt section is rejected with a pointed message.
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            if let Some((_, Json::Obj(s))) =
                fields.iter_mut().find(|(k, _)| k == "batch_throughput")
            {
                s.retain(|(k, _)| k != "compile_misses");
            }
        }
        let err = PerfReport::validate(&v.to_string_pretty()).unwrap_err();
        assert!(err.contains("compile_misses"), "{err}");
    }

    #[test]
    fn scenario_sweep_is_optional() {
        // Reports predating the scenario engine have no scenario_sweep
        // section and must keep validating.
        let mut report = sample();
        report.scenario_sweep = None;
        let text = report.to_json().to_string_pretty();
        let back = PerfReport::validate(&text).expect("valid without scenario_sweep");
        assert_eq!(back, report);
        // A corrupt section is rejected with a pointed message.
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            if let Some((_, Json::Obj(s))) = fields.iter_mut().find(|(k, _)| k == "scenario_sweep")
            {
                s.retain(|(k, _)| k != "points");
            }
        }
        let err = PerfReport::validate(&v.to_string_pretty()).unwrap_err();
        assert!(err.contains("scenario_sweep points"), "{err}");
    }

    #[test]
    fn validate_rejects_corrupt_documents() {
        assert!(PerfReport::validate("not json").is_err());
        assert!(PerfReport::validate("{}").is_err());
        let wrong_schema = r#"{"schema": "avfs-perf-report/999", "circuits": []}"#;
        assert!(PerfReport::validate(wrong_schema).is_err());
        // Drop a required field and the validator names it.
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            if let Json::Arr(circuits) = &mut fields[2].1 {
                if let Json::Obj(c) = &mut circuits[0] {
                    c.retain(|(k, _)| k != "engine_meps");
                }
            }
        }
        let err = PerfReport::validate(&v.to_string_pretty()).unwrap_err();
        assert!(err.contains("engine_meps"), "{err}");
    }
}
