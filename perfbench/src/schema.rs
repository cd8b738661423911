//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is this table rendered by `benchmark schema`; `run --smoke`
//! fails when the two disagree.

use avfs_obs::json::Json;

/// Seconds one acceptance run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the acceptance driver runs from the root of a checkout;
/// it appends `--workload … --seed … --seconds … --trace …`, hence the
/// closing `--`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--bin",
    "benchmark",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["perfbench"];

/// `(name, why)` of every workload, in round-robin order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "grid_large",
        "54k-node p951k stand-in, 16 pairs x 3 voltages: merge kernel, arena and analysis pass do the work (Table I shape); pool and delay kernel do almost none",
    ),
    (
        "grid_small",
        "949-node s38417 stand-in below the ~5k-node crossover, 32 cached-compile launches per sample: pool epochs, barrier, stimuli and per-launch allocation dominate; the merge kernel idles",
    ),
    (
        "scenario_mc",
        "11k-node droop schedules x 8 Monte Carlo dice: per-die per-segment delay tables bypass every cache, so the delay kernel and the segmented merge do the work",
    ),
    (
        "pipeline_cold",
        "64-bit adder, characterize -> annotate -> compile -> launch -> STA per sample: the first-use cost, dominated by SPICE sweeps and regression; the engine is a rounding error",
    ),
];

/// One metric of the vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Host time unless the name says otherwise.
pub const END_TO_END: [MetricDef; 5] = [
    // Median of the in-process set-up repetitions: synthesis,
    // characterization, annotation, ATPG, compile, pool spawn and the
    // first two launches (`pipeline_cold`: inputs plus the reference
    // pass).
    e2e("setup_s", "s", "lower", 0.25),
    // Gate nodes x slots x launches per sample / fastest sample time,
    // counted by the harness from the netlist. The timing bounds are the
    // widest allowed: run-to-run spreads of 4-9 % were measured, and a
    // bound should be three times the spread.
    e2e("meps", "Mevals/s", "higher", 0.25),
    // Host seconds per launch of the fastest sample (`pipeline_cold`:
    // per cold pass).
    e2e("launch_s", "s", "lower", 0.25),
    // `meps` / MEPS of the serial event-driven simulator on the same
    // netlist and pairs at one voltage, sampled in the same windows.
    e2e("speedup_vs_ed", "ratio", "higher", 0.25),
    // `VmHWM` when the timed window closes, before the oracles run.
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [MetricDef; 70] = [
    // avfs-circuits / avfs-atpg / avfs-netlist
    layer("circuits.synthesize_s", "s", "lower"),
    layer("atpg.patterns_s", "s", "lower"),
    layer("netlist.levelize_s", "s", "lower"),
    // avfs-spice
    layer("spice.sweep_pin_s", "s", "lower"),
    layer("spice.transients", "count", "lower"),
    // avfs-regression
    layer("regression.fit_s", "s", "lower"),
    layer("regression.fit_err_max_pct", "%", "lower"),
    // avfs-delay
    layer("delay.characterize_s", "s", "lower"),
    layer("delay.annotate_s", "s", "lower"),
    layer("delay.ns_per_factor", "ns", "lower"),
    layer("delay.ns_per_derate", "ns", "lower"),
    // avfs-waveform
    layer("waveform.ns_per_transition", "ns", "lower"),
    layer("waveform.ns_per_transition_segmented", "ns", "lower"),
    layer("arena.bytes_per_cell", "B", "lower"),
    layer("arena.peak_occupancy", "count", "lower"),
    layer("arena.occupancy_frac", "ratio", "higher"),
    layer("arena.minor_faults_per_launch", "count", "lower"),
    layer("host.sys_s_per_launch", "s", "lower"),
    // avfs-core: compile / session / batch
    layer("compile.compile_s", "s", "lower"),
    layer("session.first_launch_ratio", "ratio", "lower"),
    layer("batch.compile_hits", "count", "higher"),
    layer("batch.compile_misses", "count", "lower"),
    layer("engine.delay_table_builds", "count", "lower"),
    layer("engine.delay_table_hits", "count", "higher"),
    // avfs-core: engine phases (coordinator-side, per launch)
    layer("engine.stimuli_s", "s", "lower"),
    layer("engine.delay_kernel_s", "s", "lower"),
    layer("engine.waveform_merge_s", "s", "lower"),
    layer("engine.barrier_s", "s", "lower"),
    layer("engine.pool_idle_s", "s", "lower"),
    layer("engine.analysis_s", "s", "lower"),
    layer("engine.unattributed_s", "s", "lower"),
    // avfs-core: engine counts (per launch, repeat exactly)
    layer("engine.levels", "count", "lower"),
    layer("engine.batches", "count", "lower"),
    layer("engine.gate_tasks", "count", "lower"),
    layer("engine.gates_skipped_quiet", "count", "higher"),
    layer("engine.active_task_frac", "ratio", "lower"),
    layer("engine.kernel_evals", "count", "lower"),
    layer("engine.retry_rounds", "count", "lower"),
    layer("engine.pool_steals", "count", "lower"),
    layer("engine.variation_draws", "count", "lower"),
    layer("engine.scenario_segments", "count", "lower"),
    layer("engine.mc_samples", "count", "lower"),
    // avfs-core: engine unit costs
    layer("engine.ns_per_gate_task", "ns", "lower"),
    layer("engine.ns_per_level_epoch", "ns", "lower"),
    layer("engine.ns_per_kernel_eval", "ns", "lower"),
    layer("engine.thread_speedup", "ratio", "higher"),
    layer("engine.lanes_speedup", "ratio", "higher"),
    // avfs-core: event-driven baseline
    layer("event_driven.run_s", "s", "lower"),
    layer("event_driven.meps", "Mevals/s", "higher"),
    layer("event_driven.events", "count", "lower"),
    // avfs-core::sta / avfs-sta
    layer("sta.crosscheck_s", "s", "lower"),
    layer("sta.min_margin_ps", "ps", "higher"),
    // avfs-obs
    layer("obs.profiling_overhead_frac", "ratio", "lower"),
    // simulated results: repeat exactly for a seed, identical under any
    // speed-only change
    layer("sim.latest_arrival_ps", "ps", "lower"),
    layer("sim.transitions", "count", "lower"),
    layer("sim.result_digest", "count", "lower"),
    layer("sim.p_fail_sum", "ratio", "lower"),
    // harness / host
    layer("harness.samples", "count", "higher"),
    layer("harness.sample_s_p50", "s", "lower"),
    layer("harness.sample_s_p25", "s", "lower"),
    layer("harness.sample_s_min", "s", "lower"),
    layer("harness.sample_s_tail", "s", "lower"),
    layer("harness.tail_pct", "%", "higher"),
    layer("harness.sample_iqr_frac", "ratio", "lower"),
    layer("harness.launches_per_sample", "count", "lower"),
    layer("harness.slots_per_launch", "count", "lower"),
    layer("harness.gate_nodes", "count", "lower"),
    layer("harness.setup_s", "s", "lower"),
    layer("host.calib_spin_s", "s", "lower"),
    layer("host.calib_mem_s", "s", "lower"),
];

/// Whether `name` is made of the characters a metric or workload name
/// may use.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn strs(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect())
}

/// `BENCHMARK.json` as this table defines it.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut fields = vec![
            ("name".to_owned(), Json::Str(m.name.into())),
            ("unit".to_owned(), Json::Str(m.unit.into())),
            ("better".to_owned(), Json::Str(m.better.into())),
        ];
        if with_bound {
            fields.push(("bound".to_owned(), Json::Num(m.bound)));
        }
        Json::Obj(fields)
    };
    Json::Obj(vec![
        ("command".into(), strs(&COMMAND)),
        ("paths".into(), strs(&PATHS)),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str((*name).into())),
                            ("why".into(), Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer".into(),
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn vocabulary_meets_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name} why");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(benchmark_json().to_string_pretty().len() < 64 * 1024);
    }

    #[test]
    fn names_with_other_characters_are_refused() {
        assert!(valid_name("engine.ns_per_gate-task"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }
}
