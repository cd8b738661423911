//! One measurement process: one workload, one seed, one window.
//!
//! Set-up is repeated and its median reported, then the workload's
//! samples are timed back to back for the window (closed loop, one
//! client: the next launch starts when the previous returns), with
//! event-driven baseline samples interleaved so both see the same host
//! noise. Every launch is checked against the reference outside the
//! timed regions, and the oracles run once the window has closed and
//! the peak RSS has been read. A traced run alternates profiled and
//! unprofiled samples instead and adds the per-layer measurements.

use crate::host::{self, ProcStat};
use crate::layers;
use crate::oracle::{self, Verdict};
use crate::schema::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{iqr_frac, median, quantile, tail};
use crate::workloads::{default_params, min_margin_ps, sim_options, sta_crosscheck, Kind, Scale};
use crate::workloads::{Prepared, Sample};
use avfs_core::sta::CrossCheck;
use avfs_core::{
    phases, CompiledNetlist, EventDrivenSimulator, Profile, SimOptions, SimRun, SlotSpec,
};
use avfs_delay::StaticModel;
use avfs_netlist::Levelization;
use avfs_obs::json::Json;
use avfs_obs::Metrics;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed samples a run reports on, however short the window.
const MIN_SAMPLES: usize = 3;
/// Event-driven sample time the windows keep up with, as a share of the
/// engine's sample time: a third of a window goes to the baseline, so
/// that its fastest sample is drawn from enough of them (a `grid_large`
/// baseline run is longer than a launch).
const ED_SHARE: f64 = 0.5;
/// Shortest event-driven sample worth timing, seconds: runs are batched
/// until one sample lasts this long.
const ED_SAMPLE_S: f64 = 0.05;
/// Launches of each alternative configuration (1 thread, 1 lane) in a
/// traced run.
const ALT_LAUNCHES: usize = 2;

/// What to measure.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    /// The workload.
    pub kind: Kind,
    /// Drives every generated input.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Per-layer run (profiling on, spans recorded) instead of an
    /// end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Round label carried into the span file.
    pub round: u64,
    /// Where to write the spans as Chrome trace-event JSON.
    pub spans_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Definition from the schema.
    pub def: &'static MetricDef,
    /// Measured value.
    pub value: f64,
}

/// Everything one measurement process found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Oracle tally.
    pub verdict: Verdict,
    /// Every metric of the run's kind, in schema order.
    pub metrics: Vec<Metric>,
    /// Raw material for pooling over rounds.
    pub detail: Detail,
}

/// Raw samples of one run, so a driver can pool rounds before taking
/// medians.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Detail {
    /// Seconds of every unprofiled timed sample.
    pub samples_s: Vec<f64>,
    /// Seconds per event-driven run of every baseline sample.
    pub ed_run_s: Vec<f64>,
    /// Seconds of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// Gate evaluations one timed sample asks for.
    pub evals_per_sample: f64,
    /// Gate evaluations one event-driven run asks for.
    pub ed_evals_per_run: f64,
    /// Launches per timed sample.
    pub launches_per_sample: f64,
    /// Peak RSS when the window closed, MiB.
    pub peak_rss_mb: f64,
}

impl Detail {
    /// The end-to-end metrics these samples amount to — also how a
    /// driver turns samples pooled over rounds into pooled values.
    ///
    /// Timings are the **fastest** sample of the set, not its median.
    /// The sandbox's noise is one-sided — other tenants of the host only
    /// ever slow a sample down, in bursts and in phases about a minute
    /// long — so the fastest sample is the closest the run gets to the
    /// program's own cost, and it is the statistic that repeats: over
    /// ten runs of ten seconds the window medians spread (q3 − q1 over
    /// the median) by 12–19 %, wider than any bound this benchmark could
    /// hold a change to, the window minima by 4–9 % (README, "noise").
    /// The medians, quartiles and tail stay in the per-layer output.
    /// Set-up time is the median of its repetitions.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let sample_s = fastest(&self.samples_s);
        let meps = self.evals_per_sample / sample_s / 1e6;
        let ed_meps = self.ed_evals_per_run / fastest(&self.ed_run_s) / 1e6;
        let values = [
            median(&self.setup_s),
            meps,
            sample_s / self.launches_per_sample,
            meps / ed_meps,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, value)| Metric { def, value })
            .collect()
    }

    /// JSON form (the `detail` line of a child's output).
    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::Obj(vec![
            ("samples_s".into(), nums(&self.samples_s)),
            ("ed_run_s".into(), nums(&self.ed_run_s)),
            ("setup_s".into(), nums(&self.setup_s)),
            ("evals_per_sample".into(), Json::Num(self.evals_per_sample)),
            ("ed_evals_per_run".into(), Json::Num(self.ed_evals_per_run)),
            (
                "launches_per_sample".into(),
                Json::Num(self.launches_per_sample),
            ),
            ("peak_rss_mb".into(), Json::Num(self.peak_rss_mb)),
        ])
    }

    /// Inverse of [`Detail::to_json`].
    pub fn from_json(json: &Json) -> Option<Detail> {
        let nums = |key: &str| -> Option<Vec<f64>> {
            json.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        let num = |key: &str| json.get(key)?.as_f64();
        Some(Detail {
            samples_s: nums("samples_s")?,
            ed_run_s: nums("ed_run_s")?,
            setup_s: nums("setup_s")?,
            evals_per_sample: num("evals_per_sample")?,
            ed_evals_per_run: num("ed_evals_per_run")?,
            launches_per_sample: num("launches_per_sample")?,
            peak_rss_mb: num("peak_rss_mb")?,
        })
    }
}

/// A profiled sample of the traced window.
struct ProfiledSample {
    seconds: f64,
    /// Per-phase seconds summed over the sample's launches, in
    /// [`PHASES`] order.
    phase_s: [f64; 6],
}

const PHASES: [&str; 6] = [
    phases::ENGINE_STIMULI,
    phases::ENGINE_DELAY_KERNEL,
    phases::ENGINE_WAVEFORM_MERGE,
    phases::ENGINE_BARRIER,
    phases::ENGINE_ANALYSIS,
    // Nested inside the merge phase, so not part of the phase sum.
    phases::ENGINE_POOL_IDLE,
];

fn phase_seconds(profile: &Profile, path: &str) -> f64 {
    profile
        .phase(path)
        .map_or(0.0, |p| p.total_ns as f64 * 1e-9)
}

fn counter(profile: Option<&Profile>, name: &str) -> f64 {
    profile.and_then(|p| p.counter(name)).unwrap_or(0) as f64
}

/// Checks every launch of `sample` against the reference.
fn check_sample(verdict: &mut Verdict, prepared: &Prepared, sample: &Sample) {
    for run in &sample.runs {
        verdict.completed("timed launch", run);
        verdict.identical(
            "timed launch differs from the reference launch",
            &prepared.reference.slots,
            &run.slots,
        );
    }
    verdict.fail(
        "sim exceeds the STA bound inside a pipeline pass",
        sample.deny_findings as u64,
    );
}

/// The serial baseline on the workload's netlist, annotation and pairs.
struct Baseline {
    sim: EventDrivenSimulator,
    slots: Vec<SlotSpec>,
    /// One untimed run: the static-model oracle's reference.
    reference: SimRun,
    /// Runs per timed baseline sample.
    batch: usize,
}

impl Baseline {
    fn new(prepared: &Prepared, profiling: bool, spans: &mut Spans) -> Result<Baseline, String> {
        let sim = EventDrivenSimulator::new(
            Arc::clone(&prepared.netlist),
            Arc::clone(prepared.compiled.annotation()),
        )
        .map_err(|e| e.to_string())?;
        let slots = prepared.ed_slots();
        let start = Instant::now();
        let reference = spans
            .time("event_driven.run", |_| {
                sim.run_profiled(&prepared.patterns, &slots, false, profiling)
            })
            .map_err(|e| e.to_string())?;
        let batch = (ED_SAMPLE_S / start.elapsed().as_secs_f64().max(1e-6))
            .ceil()
            .clamp(1.0, 512.0) as usize;
        Ok(Baseline {
            sim,
            slots,
            reference,
            batch,
        })
    }

    /// Seconds per run of one timed sample of `batch` runs.
    fn sample(&self, prepared: &Prepared) -> Result<f64, String> {
        let start = Instant::now();
        for _ in 0..self.batch {
            let run = self
                .sim
                .run(&prepared.patterns, &self.slots, false)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(&run);
        }
        Ok(start.elapsed().as_secs_f64() / self.batch as f64)
    }
}

/// What the timed windows of one process accumulate.
#[derive(Default)]
struct Window {
    samples_s: Vec<f64>,
    profiled: Vec<ProfiledSample>,
    last_profile: Option<Profile>,
    host_stats: Vec<ProcStat>,
    ed_run_s: Vec<f64>,
    model_err_max_pct: f64,
    sample_margin_ps: Option<f64>,
    engine_total_s: f64,
    ed_total_s: f64,
    taken: usize,
}

impl Window {
    /// Times samples back to back for `seconds` (and until this window
    /// has `min_samples` unprofiled ones), a baseline sample following
    /// whenever the baseline's share of the time has fallen below
    /// [`ED_SHARE`]. A traced run profiles every other sample.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        seconds: f64,
        min_samples: usize,
        trace: bool,
        prepared: &mut Prepared,
        baseline: &Baseline,
        verdict: &mut Verdict,
        spans: &mut Spans,
        metrics: Option<&Metrics>,
    ) -> Result<(), String> {
        self.model_err_max_pct = self.model_err_max_pct.max(prepared.model_err_max_pct);
        let enough = self.samples_s.len() + min_samples;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || self.samples_s.len() < enough {
            let profiling = trace && self.taken % 2 == 1;
            self.taken += 1;
            let before = trace.then(ProcStat::now);
            let sample = prepared.sample(profiling, spans, metrics)?;
            if let Some(before) = before {
                self.host_stats.push(ProcStat::now().since(&before));
            }
            self.engine_total_s += sample.seconds;
            check_sample(verdict, prepared, &sample);
            if let Some(err) = sample.model_err_max_pct {
                self.model_err_max_pct = self.model_err_max_pct.max(err);
            }
            self.sample_margin_ps = sample.min_margin_ps.or(self.sample_margin_ps);
            if profiling {
                let mut phase_s = [0.0; 6];
                for run in &sample.runs {
                    let profile = run
                        .profile
                        .as_ref()
                        .ok_or("profiled launch has no profile")?;
                    for (sum, path) in phase_s.iter_mut().zip(PHASES) {
                        *sum += phase_seconds(profile, path);
                    }
                }
                self.last_profile = sample.runs.last().and_then(|r| r.profile.clone());
                self.profiled.push(ProfiledSample {
                    seconds: sample.seconds,
                    phase_s,
                });
            } else {
                self.samples_s.push(sample.seconds);
            }
            if self.ed_total_s < ED_SHARE * self.engine_total_s || self.ed_run_s.is_empty() {
                let per_run = baseline.sample(prepared)?;
                self.ed_total_s += per_run * baseline.batch as f64;
                self.ed_run_s.push(per_run);
            }
        }
        Ok(())
    }
}

/// The oracles that run once, after the windows have closed; returns
/// the STA cross-check for its margins.
fn run_oracles(
    prepared: &mut Prepared,
    baseline: &Baseline,
    verdict: &mut Verdict,
    spans: &mut Spans,
) -> Result<CrossCheck, String> {
    // 1. The same netlist under the static delay model is bitwise equal
    //    to the event-driven simulator (which has static delays only).
    let static_run = CompiledNetlist::compile(
        Arc::clone(&prepared.netlist),
        Arc::clone(prepared.compiled.annotation()),
        Arc::new(StaticModel::new(*prepared.compiled.model().space())),
    )
    .and_then(|c| {
        c.launch(
            &prepared.patterns,
            &baseline.slots,
            &sim_options(prepared.threads(), false),
        )
    })
    .map_err(|e| e.to_string())?;
    verdict.completed("static-model launch", &static_run);
    verdict.identical(
        "static-model engine differs from the event-driven baseline",
        &baseline.reference.slots,
        &static_run.slots,
    );
    // 2. sim <= STA at every workload voltage.
    let uniform = prepared.uniform_launch()?;
    verdict.completed("uniform launch", &uniform);
    let check = spans.time("sta.crosscheck", |_| {
        sta_crosscheck(&prepared.compiled, &uniform, prepared.kind.name())
    })?;
    verdict.fail("sim exceeds the STA bound", check.deny_count() as u64);
    // 3. A constant schedule is the static launch.
    if let Some(constant) = prepared.constant_schedule_launch() {
        let constant = constant?;
        verdict.completed("constant-schedule launch", &constant);
        verdict.identical(
            "constant-schedule launch differs from the static launch",
            &uniform.slots,
            &constant.slots,
        );
    }
    Ok(check)
}

/// The per-layer metrics of a traced run, in schema order: harness
/// spans, engine profiles, `/proc` deltas, fixed-input unit costs and
/// the alternative-configuration launches.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    prepared: &Prepared,
    window: &Window,
    detail: &Detail,
    baseline: &Baseline,
    check: &CrossCheck,
    spans: &mut Spans,
    metrics: Option<&Metrics>,
    (calib_spin_s, calib_mem_s): (f64, f64),
    first_rep_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let Window {
        profiled,
        last_profile,
        host_stats,
        model_err_max_pct,
        sample_margin_ps,
        ..
    } = window;
    let launches = detail.launches_per_sample;
    let threads = prepared.threads();
    if spans.seconds_of("netlist.levelize").is_empty() {
        spans
            .time("netlist.levelize", |_| Levelization::of(&prepared.netlist))
            .map_err(|e| e.to_string())?;
    }
    let alt = |threads: usize, lanes: usize| -> Result<f64, String> {
        let mut seconds = Vec::new();
        for _ in 0..ALT_LAUNCHES {
            let start = Instant::now();
            let run = prepared.launch_with(threads, lanes)?;
            seconds.push(start.elapsed().as_secs_f64());
            std::hint::black_box(&run);
        }
        Ok(median(&seconds))
    };
    let base_s = alt(threads, 0)?;
    let thread_speedup = alt(1, 0)? / base_s;
    let lanes_speedup = alt(threads, 1)? / base_s;
    let (sweep_pin_s, fit_s) = layers::sweep_and_fit(prepared.library())?;
    let (ns_per_transition, ns_per_transition_segmented) = layers::ns_per_transition();

    let e2e = detail.end_to_end();
    let sample_s = median(&detail.samples_s);
    let per_launch = |v: f64| v / launches;
    let phase = |i: usize| {
        per_launch(median(
            &profiled.iter().map(|p| p.phase_s[i]).collect::<Vec<_>>(),
        ))
    };
    let profiled_s = median(&profiled.iter().map(|p| p.seconds).collect::<Vec<_>>());
    let unattributed_s = per_launch(median(
        &profiled
            .iter()
            .map(|p| p.seconds - p.phase_s[..5].iter().sum::<f64>())
            .collect::<Vec<_>>(),
    ));
    let profile = last_profile.as_ref();
    let count = |name: &str| counter(profile, name);
    let gate_tasks = prepared.gate_nodes as f64 * prepared.slots_per_launch() as f64;
    let active_tasks = (gate_tasks - count(phases::ENGINE_GATES_SKIPPED_QUIET)).max(1.0);
    let span_s = |name: &str| {
        let seconds = spans.seconds_of(name);
        if seconds.is_empty() {
            0.0
        } else {
            median(&seconds)
        }
    };
    let characterizations = spans.seconds_of("delay.characterize").len().max(1) as f64;
    let transients = metrics
        .map(|m| m.snapshot())
        .and_then(|p| p.counter("spice.transient_points"))
        .unwrap_or(0) as f64
        / characterizations;
    let ed_s = median(&detail.ed_run_s);
    let (batch_hits, batch_misses) = prepared.batch_counters();
    let (tail_pct, tail_s) = tail(&detail.samples_s);
    let reference = &prepared.reference;
    // The arena holds one batch of slots at a time.
    let cells = prepared.netlist.num_nodes() as f64 * prepared.slots_per_launch() as f64
        / count(phases::ENGINE_BATCHES).max(1.0);
    let capacity = SimOptions::default().resolved_arena_capacity() as f64;
    let peak_occupancy = reference.diagnostics.peak_arena_occupancy as f64;
    let min_margin = sample_margin_ps.or(min_margin_ps(check)).unwrap_or(0.0);
    let host_per_launch =
        |f: fn(&ProcStat) -> f64| per_launch(median(&host_stats.iter().map(f).collect::<Vec<_>>()));

    let values: BTreeMap<&str, f64> = [
        ("circuits.synthesize_s", span_s("circuits.synthesize")),
        ("atpg.patterns_s", span_s("atpg.patterns")),
        ("netlist.levelize_s", span_s("netlist.levelize")),
        ("spice.sweep_pin_s", sweep_pin_s),
        ("spice.transients", transients),
        ("regression.fit_s", fit_s),
        ("regression.fit_err_max_pct", *model_err_max_pct),
        ("delay.characterize_s", span_s("delay.characterize")),
        ("delay.annotate_s", span_s("delay.annotate")),
        (
            "delay.ns_per_factor",
            layers::ns_per_factor(
                &prepared.model,
                prepared.probe_cell().ok_or("the circuit has no gates")?,
            )?,
        ),
        ("delay.ns_per_derate", layers::ns_per_derate()),
        ("waveform.ns_per_transition", ns_per_transition),
        (
            "waveform.ns_per_transition_segmented",
            ns_per_transition_segmented,
        ),
        (
            "arena.bytes_per_cell",
            first_rep_rss_mb * (1u64 << 20) as f64 / cells,
        ),
        ("arena.peak_occupancy", peak_occupancy),
        ("arena.occupancy_frac", peak_occupancy / capacity),
        (
            "arena.minor_faults_per_launch",
            host_per_launch(|s| s.minor_faults as f64),
        ),
        ("host.sys_s_per_launch", host_per_launch(|s| s.sys_s)),
        ("compile.compile_s", span_s("compile.compile")),
        (
            "session.first_launch_ratio",
            prepared.first_launch_s / (sample_s / launches),
        ),
        ("batch.compile_hits", batch_hits as f64),
        ("batch.compile_misses", batch_misses as f64),
        (
            "engine.delay_table_builds",
            count(phases::ENGINE_DELAY_TABLE_BUILDS),
        ),
        (
            "engine.delay_table_hits",
            count(phases::ENGINE_DELAY_TABLE_HITS),
        ),
        ("engine.stimuli_s", phase(0)),
        ("engine.delay_kernel_s", phase(1)),
        ("engine.waveform_merge_s", phase(2)),
        ("engine.barrier_s", phase(3)),
        ("engine.analysis_s", phase(4)),
        ("engine.pool_idle_s", phase(5)),
        ("engine.unattributed_s", unattributed_s),
        ("engine.levels", count(phases::ENGINE_LEVELS)),
        ("engine.batches", count(phases::ENGINE_BATCHES)),
        ("engine.gate_tasks", gate_tasks),
        (
            "engine.gates_skipped_quiet",
            count(phases::ENGINE_GATES_SKIPPED_QUIET),
        ),
        ("engine.active_task_frac", active_tasks / gate_tasks),
        ("engine.kernel_evals", count(phases::ENGINE_KERNEL_EVALS)),
        ("engine.retry_rounds", count(phases::ENGINE_RETRY_ROUNDS)),
        ("engine.pool_steals", count(phases::ENGINE_POOL_STEALS)),
        (
            "engine.variation_draws",
            count(phases::ENGINE_VARIATION_DRAWS),
        ),
        (
            "engine.scenario_segments",
            count(phases::ENGINE_SCENARIO_SEGMENTS),
        ),
        ("engine.mc_samples", count(phases::ENGINE_MC_SAMPLES)),
        ("engine.ns_per_gate_task", phase(2) * 1e9 / active_tasks),
        (
            "engine.ns_per_level_epoch",
            per_launch(profiled_s) * 1e9 / count(phases::ENGINE_LEVELS).max(1.0),
        ),
        (
            // Zero when every delay table came from the cache.
            "engine.ns_per_kernel_eval",
            match count(phases::ENGINE_KERNEL_EVALS) {
                evals if evals > 0.0 => phase(1) * 1e9 / evals,
                _ => 0.0,
            },
        ),
        ("engine.thread_speedup", thread_speedup),
        ("engine.lanes_speedup", lanes_speedup),
        ("event_driven.run_s", ed_s),
        ("event_driven.meps", detail.ed_evals_per_run / ed_s / 1e6),
        (
            "event_driven.events",
            counter(baseline.reference.profile.as_ref(), phases::ED_EVENTS),
        ),
        ("sta.crosscheck_s", span_s("sta.crosscheck")),
        ("sta.min_margin_ps", min_margin),
        (
            "obs.profiling_overhead_frac",
            (profiled_s - sample_s) / sample_s,
        ),
        (
            "sim.latest_arrival_ps",
            oracle::latest_arrival_ps(&reference.slots),
        ),
        (
            "sim.transitions",
            oracle::total_transitions(&reference.slots) as f64,
        ),
        (
            "sim.result_digest",
            oracle::result_digest(&reference.slots) as f64,
        ),
        (
            "sim.p_fail_sum",
            reference
                .scenario
                .as_ref()
                .map_or(0.0, |s| s.points.iter().map(|p| p.p_fail).sum()),
        ),
        ("harness.samples", detail.samples_s.len() as f64),
        ("harness.sample_s_p50", sample_s),
        ("harness.sample_s_p25", quantile(&detail.samples_s, 0.25)),
        (
            "harness.sample_s_min",
            detail.samples_s.iter().copied().fold(f64::MAX, f64::min),
        ),
        ("harness.sample_s_tail", tail_s),
        ("harness.tail_pct", tail_pct),
        ("harness.sample_iqr_frac", iqr_frac(&detail.samples_s)),
        ("harness.launches_per_sample", launches),
        (
            "harness.slots_per_launch",
            prepared.slots_per_launch() as f64,
        ),
        ("harness.gate_nodes", prepared.gate_nodes as f64),
        ("harness.setup_s", e2e[0].value),
        ("host.calib_spin_s", calib_spin_s),
        ("host.calib_mem_s", calib_mem_s),
    ]
    .into_iter()
    .collect();

    PER_LAYER
        .iter()
        .map(|def| {
            values
                .get(def.name)
                .map(|&value| Metric { def, value })
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))
        })
        .collect()
}

/// Runs the measurement `args` describe.
///
/// # Errors
///
/// A layer call returned an error (as opposed to a wrong result, which
/// the verdict records).
pub fn measure(args: &ChildArgs) -> Result<Outcome, String> {
    let params = default_params(args.seed, args.scale);
    let mut spans = Spans::new(args.trace);
    let metrics = args.trace.then(|| Metrics::new("perfbench"));
    let metrics = metrics.as_ref();
    let mut verdict = Verdict::default();
    let calib = args
        .trace
        .then(|| (host::calib_spin_s(), host::calib_mem_s()));

    // Set-up is repeated, and each repetition is followed by its share
    // of the timed window: the samples then span the whole run instead
    // of its last seconds, so a noise phase of the host (they last about
    // a minute) is less likely to cover all of them. Each repetition's
    // memory is released before the next, so the peak RSS is that of one
    // set-up; the oracles use the artifacts of the last.
    let reps = match args.scale {
        Scale::Full => SETUP_REPS,
        Scale::Smoke => 1,
    };
    let mut setup_s = Vec::with_capacity(reps);
    let mut first_rep_rss_mb = 0.0;
    let mut prepared = None;
    let mut baseline = None;
    let mut window = Window::default();
    for rep in 0..reps {
        drop(prepared.take());
        let start = Instant::now();
        let mut p = spans.time("harness.setup", |s| {
            Prepared::new(args.kind, params, s, metrics)
        })?;
        setup_s.push(start.elapsed().as_secs_f64());
        verdict.completed("reference launch", &p.reference);
        if rep == 0 {
            first_rep_rss_mb = p.launch_rss_mb;
            // Same seed, same netlist and pairs in every repetition: one
            // baseline serves them all.
            baseline = Some(Baseline::new(&p, args.trace, &mut spans)?);
        }
        window.run(
            args.seconds / reps as f64,
            MIN_SAMPLES.div_ceil(reps),
            args.trace,
            &mut p,
            baseline.as_ref().expect("built in the first repetition"),
            &mut verdict,
            &mut spans,
            metrics,
        )?;
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("at least one set-up repetition");
    let baseline = baseline.expect("at least one set-up repetition");
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);

    let check = run_oracles(&mut prepared, &baseline, &mut verdict, &mut spans)?;

    let detail = Detail {
        samples_s: std::mem::take(&mut window.samples_s),
        ed_run_s: std::mem::take(&mut window.ed_run_s),
        setup_s,
        evals_per_sample: prepared.evals_per_sample(),
        ed_evals_per_run: prepared.gate_nodes as f64 * baseline.slots.len() as f64,
        launches_per_sample: prepared.launches_per_sample() as f64,
        peak_rss_mb,
    };
    if !args.trace {
        return Ok(Outcome {
            verdict,
            metrics: detail.end_to_end(),
            detail,
        });
    }

    let metrics = per_layer(
        &prepared,
        &window,
        &detail,
        &baseline,
        &check,
        &mut spans,
        metrics,
        calib.expect("calibrated when tracing"),
        first_rep_rss_mb,
    )?;
    if let Some(path) = &args.spans_out {
        let text = spans
            .to_chrome_trace(args.kind.name(), args.round)
            .to_string_pretty();
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        verdict,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(kind: Kind, seed: u64, trace: bool) -> Outcome {
        measure(&ChildArgs {
            kind,
            seed,
            seconds: 0.02,
            trace,
            scale: Scale::Smoke,
            round: 0,
            spans_out: None,
        })
        .expect("smoke measurement runs")
    }

    fn value(outcome: &Outcome, name: &str) -> f64 {
        outcome
            .metrics
            .iter()
            .find(|m| m.def.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_passes_its_oracles() {
        for kind in Kind::ALL {
            let outcome = smoke(kind, 11, false);
            assert!(outcome.verdict.correct(), "{:?}", outcome.verdict.notes);
            assert!(outcome.verdict.attempted > 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.def.name).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
            assert_eq!(names, want);
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    kind.name(),
                    m.def.name
                );
            }
            assert!(outcome.detail.samples_s.len() >= MIN_SAMPLES);
            assert_eq!(
                Detail::from_json(&outcome.detail.to_json()),
                Some(outcome.detail)
            );
        }
    }

    #[test]
    fn simulated_results_repeat_exactly_across_two_in_process_runs() {
        let first = smoke(Kind::ScenarioMc, 5, true);
        let second = smoke(Kind::ScenarioMc, 5, true);
        assert!(first.verdict.correct() && second.verdict.correct());
        assert_eq!(first.metrics.len(), PER_LAYER.len());
        for def in &PER_LAYER {
            let exact = def.name.starts_with("sim.")
                // Which worker steals a chunk is a race by design; every
                // other engine count is decided by the inputs.
                || (def.name.starts_with("engine.")
                    && def.unit == "count"
                    && def.name != "engine.pool_steals")
                || matches!(
                    def.name,
                    "sta.min_margin_ps" | "regression.fit_err_max_pct" | "spice.transients"
                );
            if exact {
                assert_eq!(
                    value(&first, def.name).to_bits(),
                    value(&second, def.name).to_bits(),
                    "{} does not repeat",
                    def.name
                );
            }
            assert!(value(&first, def.name).is_finite(), "{}", def.name);
        }
        // The scenario path was the one exercised, and the seed reaches
        // the dice.
        assert!(value(&first, "engine.variation_draws") > 0.0);
        assert!(value(&first, "engine.scenario_segments") > 0.0);
        let other = smoke(Kind::ScenarioMc, 6, true);
        assert_ne!(
            value(&first, "sim.result_digest"),
            value(&other, "sim.result_digest")
        );
    }
}
