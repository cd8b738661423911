//! The four workloads: how each builds its inputs from the seed, what
//! one timed sample is, and which launches the oracles look at.
//!
//! Only the layer crates' public APIs are called here. The seed drives
//! every generated input (pattern sets, Monte Carlo dice); the program
//! under test receives the generated inputs and nothing else.

use crate::host;
use crate::spans::Spans;
use avfs_atpg::timing_aware::{collect_pairs, generate_timing_aware};
use avfs_atpg::{k_longest_paths, PatternSet};
use avfs_circuits::CircuitProfile;
use avfs_core::scenario::{cross_schedules, MonteCarlo, ScenarioSpec, Schedule};
use avfs_core::sta::{crosscheck, CrossCheck, CrossCheckOptions};
use avfs_core::{
    slots, BatchRunner, CompileKey, CompiledNetlist, Session, SimOptions, SimRun, SlotSpec,
    VariationConfig,
};
use avfs_delay::characterize::{characterize_library_metered, CharacterizationConfig};
use avfs_delay::{CharacterizedLibrary, DelayModel, PolynomialModel};
use avfs_netlist::{CellId, CellLibrary, Levelization, Netlist, NodeKind};
use avfs_obs::Metrics;
use avfs_spice::Technology;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Large design, few pairs, three voltages — the Table I shape.
    GridLarge,
    /// Small design below the pool-epoch crossover, many cached launches.
    GridSmall,
    /// Droop schedules × Monte Carlo dice through the scenario engine.
    ScenarioMc,
    /// Characterize → annotate → compile → launch → STA, cold each time.
    PipelineCold,
}

impl Kind {
    /// Every workload, in round-robin order (the order of
    /// [`crate::schema::WORKLOADS`]).
    pub const ALL: [Kind; 4] = [
        Kind::GridLarge,
        Kind::GridSmall,
        Kind::ScenarioMc,
        Kind::PipelineCold,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridLarge => "grid_large",
            Kind::GridSmall => "grid_small",
            Kind::ScenarioMc => "scenario_mc",
            Kind::PipelineCold => "pipeline_cold",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes: the measured ones, or the seconds-long stand-ins of
/// `run --smoke` (c17 and a 16-bit adder, coarse characterization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Same code paths, toy circuits.
    Smoke,
}

/// Everything a set-up needs besides the workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives every generated input.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Worker threads of the pool under test.
    pub threads: usize,
}

/// Supply voltages of Table II.
const TABLE2_VOLTAGES: [f64; 6] = [0.55, 0.6, 0.7, 0.8, 0.9, 1.1];
/// Voltage every event-driven comparison runs at (the baseline has
/// static delays and ignores it).
pub const ED_VOLTAGE: f64 = 0.8;
/// Launches of one `grid_small` sample: one launch is ~8 ms, too short
/// to time alone on a shared host.
const GRID_SMALL_LAUNCHES: usize = 32;

/// The circuit a workload simulates.
fn build_netlist(kind: Kind, scale: Scale, library: &Arc<CellLibrary>) -> Result<Netlist, String> {
    let profile = |name: &str, factor: f64| {
        CircuitProfile::find(name)
            .ok_or_else(|| format!("no circuit profile {name}"))?
            .synthesize(factor, library)
            .map_err(|e| e.to_string())
    };
    let adder = |bits| avfs_circuits::ripple_carry_adder(bits, library).map_err(|e| e.to_string());
    match (kind, scale) {
        (Kind::GridLarge, Scale::Full) => profile("p951k", 0.05),
        (Kind::GridSmall, Scale::Full) => profile("s38417", 0.05),
        (Kind::ScenarioMc, Scale::Full) => profile("p951k", 0.01),
        (Kind::PipelineCold, Scale::Full) => adder(64),
        (Kind::GridSmall, Scale::Smoke) => avfs_circuits::c17(library).map_err(|e| e.to_string()),
        (_, Scale::Smoke) => adder(16),
    }
}

fn characterization_config(scale: Scale) -> CharacterizationConfig {
    match scale {
        Scale::Full => CharacterizationConfig::default(),
        Scale::Smoke => CharacterizationConfig::fast(),
    }
}

/// Cell types `netlist` instantiates: characterize what is simulated.
fn used_cells(netlist: &Netlist) -> Vec<CellId> {
    let set: BTreeSet<CellId> = netlist
        .iter()
        .filter_map(|(_, node)| match node.kind() {
            NodeKind::Gate(cell) => Some(cell),
            _ => None,
        })
        .collect();
    set.into_iter().collect()
}

/// Gate nodes of `netlist` — the work unit of `meps`.
fn gate_nodes(netlist: &Netlist) -> u64 {
    netlist
        .iter()
        .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
        .count() as u64
}

fn characterize(
    netlist: &Netlist,
    library: &Arc<CellLibrary>,
    scale: Scale,
    metrics: Option<&Metrics>,
) -> Result<CharacterizedLibrary, String> {
    characterize_library_metered(
        library,
        &Technology::nm15(),
        &characterization_config(scale),
        Some(&used_cells(netlist)),
        metrics,
    )
    .map_err(|e| e.to_string())
}

/// Default options at `threads` workers.
pub fn sim_options(threads: usize, profiling: bool) -> SimOptions {
    SimOptions {
        threads,
        profiling,
        ..SimOptions::default()
    }
}

/// How a workload executes one launch.
enum Exec {
    /// One artifact, one parked pool.
    Session(Box<Session>),
    /// Compile through the runner's cache (a hit) before every launch.
    Batch(Box<BatchRunner>, CompileKey),
    /// Nothing is kept between samples.
    Cold,
}

/// The scenario half of `scenario_mc`'s inputs.
pub struct ScenarioInputs {
    /// Pattern × droop-schedule cross product.
    pub scenarios: Vec<ScenarioSpec>,
    /// Dice per scenario and their seed.
    pub mc: MonteCarlo,
    /// Capture deadline: 1.05 × the nominal-supply arrival.
    pub deadline_ps: f64,
    /// The nominal supplies the schedules droop from.
    pub nominals: Vec<f64>,
}

/// What one timed sample produced.
pub struct Sample {
    /// Host seconds of the timed region.
    pub seconds: f64,
    /// Every launch of the sample, in order.
    pub runs: Vec<SimRun>,
    /// STA deny findings raised inside the sample (`pipeline_cold`).
    pub deny_findings: usize,
    /// Max relative fit error of the sample's characterization, %
    /// (`pipeline_cold`).
    pub model_err_max_pct: Option<f64>,
    /// Smallest STA margin of the sample's cross-check, ps
    /// (`pipeline_cold`).
    pub min_margin_ps: Option<f64>,
}

/// A workload after set-up: inputs generated, artifact compiled, pool
/// parked, caches warm.
pub struct Prepared {
    /// Which workload.
    pub kind: Kind,
    params: Params,
    library: Arc<CellLibrary>,
    /// The simulated circuit.
    pub netlist: Arc<Netlist>,
    /// The artifact launches run on (`pipeline_cold`: the reference
    /// pass's).
    pub compiled: Arc<CompiledNetlist>,
    /// Max relative fit error of the set-up characterization, %.
    pub model_err_max_pct: f64,
    /// The characterized polynomial model (unit cost of the delay
    /// kernel).
    pub model: Arc<PolynomialModel>,
    /// Pattern pairs every launch replays.
    pub patterns: PatternSet,
    /// Uniform-voltage slots (`scenario_mc`: the static launch of the
    /// nominal supplies used by the oracles).
    pub slots: Vec<SlotSpec>,
    /// `scenario_mc` only.
    pub scenario: Option<ScenarioInputs>,
    exec: Exec,
    /// Gate nodes of the netlist.
    pub gate_nodes: u64,
    /// Host seconds of the first launch after compile (cold caches).
    pub first_launch_s: f64,
    /// Resident memory the warm-up launches added, MiB (`VmHWM` after −
    /// `VmRSS` before): what the arena and the launch's buffers cost.
    pub launch_rss_mb: f64,
    /// The last warm-up launch: the reference every timed launch must
    /// equal.
    pub reference: SimRun,
}

impl Prepared {
    /// Launches per timed sample.
    pub fn launches_per_sample(&self) -> usize {
        match (self.kind, self.params.scale) {
            (Kind::GridSmall, Scale::Full) => GRID_SMALL_LAUNCHES,
            (Kind::GridSmall, Scale::Smoke) => 4,
            _ => 1,
        }
    }

    /// Slots of one launch.
    pub fn slots_per_launch(&self) -> usize {
        match &self.scenario {
            Some(s) => s.scenarios.len() * s.mc.samples,
            None => self.slots.len(),
        }
    }

    /// Gate evaluations one timed sample asks for.
    pub fn evals_per_sample(&self) -> f64 {
        self.gate_nodes as f64 * self.slots_per_launch() as f64 * self.launches_per_sample() as f64
    }

    /// Slots of the event-driven comparison: every pair at one voltage.
    pub fn ed_slots(&self) -> Vec<SlotSpec> {
        slots::at_voltage(self.patterns.len(), ED_VOLTAGE)
    }

    /// The whole set-up of `kind`, as a user would pay it before the
    /// first steady-state launch.
    pub fn new(
        kind: Kind,
        params: Params,
        spans: &mut Spans,
        metrics: Option<&Metrics>,
    ) -> Result<Prepared, String> {
        let library = CellLibrary::nangate15_like();
        let netlist = Arc::new(spans.time("circuits.synthesize", |_| {
            build_netlist(kind, params.scale, &library)
        })?);
        let gates = gate_nodes(&netlist);
        let width = netlist.inputs().len();
        let opts = sim_options(params.threads, false);

        if kind == Kind::PipelineCold {
            let pairs = match params.scale {
                Scale::Full => 24,
                Scale::Smoke => 4,
            };
            let patterns = spans.time("atpg.patterns", |_| {
                PatternSet::random(width, pairs, params.seed)
            });
            let slot_list = slots::cross(patterns.len(), &TABLE2_VOLTAGES);
            let rss_before = host::rss_mb();
            let start = Instant::now();
            let pass = pipeline_pass(
                &netlist,
                &library,
                params.scale,
                &patterns,
                &slot_list,
                &opts,
                spans,
                metrics,
            )?;
            let first_launch_s = start.elapsed().as_secs_f64();
            return Ok(Prepared {
                kind,
                params,
                library,
                netlist,
                compiled: pass.compiled,
                model_err_max_pct: pass.model_err_max_pct,
                model: pass.model,
                patterns,
                slots: slot_list,
                scenario: None,
                exec: Exec::Cold,
                gate_nodes: gates,
                first_launch_s,
                launch_rss_mb: rss_added_since(rss_before),
                reference: pass.run,
            });
        }

        let chars = spans.time("delay.characterize", |_| {
            characterize(&netlist, &library, params.scale, metrics)
        })?;
        let annotation = Arc::new(
            spans
                .time("delay.annotate", |_| chars.annotate(&netlist))
                .map_err(|e| e.to_string())?,
        );
        let patterns = match kind {
            Kind::GridLarge => {
                let levels = spans
                    .time("netlist.levelize", |_| Levelization::of(&netlist))
                    .map_err(|e| e.to_string())?;
                spans.time("atpg.patterns", |_| {
                    // The paper's recipe: pseudo-random pairs topped off
                    // with timing-aware pairs for the longest paths,
                    // padded with more random pairs to a fixed 16.
                    let mut set = PatternSet::random(width, 8, params.seed);
                    let paths = k_longest_paths(&netlist, &levels, Some(&annotation), 8);
                    let aware = generate_timing_aware(&netlist, &levels, &paths, 4, params.seed);
                    set.extend(collect_pairs(&aware).iter().cloned());
                    let missing = 16usize.saturating_sub(set.len());
                    set.extend(
                        PatternSet::random(width, missing, params.seed ^ 0xA5F5)
                            .iter()
                            .cloned(),
                    );
                    set
                })
            }
            Kind::GridSmall => spans.time("atpg.patterns", |_| {
                PatternSet::random(width, 48, params.seed)
            }),
            _ => spans.time("atpg.patterns", |_| PatternSet::lfsr(width, 8, params.seed)),
        };
        let model = Arc::new(chars.model().clone());
        let build = || {
            CompiledNetlist::compile(
                Arc::clone(&netlist),
                annotation,
                Arc::clone(&model) as Arc<dyn DelayModel>,
            )
        };
        let (compiled, exec) = if kind == Kind::GridSmall {
            let runner = BatchRunner::new(params.threads, 8);
            let key = CompileKey::of(&netlist, &chars, "nominal");
            let compiled = spans
                .time("compile.compile", |_| runner.compile(key, build))
                .map_err(|e| e.to_string())?;
            (compiled, Exec::Batch(Box::new(runner), key))
        } else {
            let compiled = Arc::new(
                spans
                    .time("compile.compile", |_| build())
                    .map_err(|e| e.to_string())?,
            );
            let session = Session::new(Arc::clone(&compiled), params.threads);
            (compiled, Exec::Session(Box::new(session)))
        };

        let (slot_list, scenario) = match kind {
            Kind::GridLarge => (slots::cross(patterns.len(), &[0.55, 0.8, 1.1]), None),
            Kind::GridSmall => (slots::at_voltage(patterns.len(), 0.8), None),
            _ => {
                let nominals = vec![0.70, 0.75, 0.80];
                (slots::cross(patterns.len(), &nominals), Some(nominals))
            }
        };
        let mut exec = exec;
        let scenario = match scenario {
            None => None,
            Some(nominals) => {
                // The capture deadline comes from the static launch of
                // the nominal supplies.
                let fixed = launch_on(&mut exec, &patterns, &slot_list, None, &opts)?;
                let deadline_ps = fixed
                    .latest_arrival_at(0.80)
                    .ok_or("no output toggles at the nominal supply")?
                    * 1.05;
                let schedules: Vec<Schedule> = nominals
                    .iter()
                    .map(|&v| Schedule::droop(v, 0.05, deadline_ps * 0.25, deadline_ps * 0.6))
                    .collect();
                Some(ScenarioInputs {
                    scenarios: cross_schedules(patterns.len(), &schedules),
                    mc: MonteCarlo {
                        samples: match params.scale {
                            Scale::Full => 8,
                            Scale::Smoke => 2,
                        },
                        variation: VariationConfig {
                            sigma: 0.05,
                            max_deviation: 0.2,
                            seed: params.seed,
                        },
                    },
                    deadline_ps,
                    nominals,
                })
            }
        };
        // Two untimed launches: the first fills the delay-table cache
        // and faults the arena in, the second is the steady-state
        // reference.
        let rss_before = host::rss_mb();
        let start = Instant::now();
        launch_on(&mut exec, &patterns, &slot_list, scenario.as_ref(), &opts)?;
        let first_launch_s = start.elapsed().as_secs_f64();
        let reference = launch_on(&mut exec, &patterns, &slot_list, scenario.as_ref(), &opts)?;
        Ok(Prepared {
            kind,
            params,
            library,
            compiled,
            model_err_max_pct: model_err_max_pct(&chars),
            model,
            netlist,
            patterns,
            slots: slot_list,
            scenario,
            exec,
            gate_nodes: gates,
            first_launch_s,
            launch_rss_mb: rss_added_since(rss_before),
            reference,
        })
    }

    fn launch(&mut self, opts: &SimOptions) -> Result<SimRun, String> {
        launch_on(
            &mut self.exec,
            &self.patterns,
            &self.slots,
            self.scenario.as_ref(),
            opts,
        )
    }

    /// One timed sample. `metrics` meters the characterization of a
    /// `pipeline_cold` pass in traced runs.
    pub fn sample(
        &mut self,
        profiling: bool,
        spans: &mut Spans,
        metrics: Option<&Metrics>,
    ) -> Result<Sample, String> {
        let opts = sim_options(self.params.threads, profiling);
        if matches!(self.exec, Exec::Cold) {
            let start = Instant::now();
            let pass = spans.time("harness.sample", |s| {
                pipeline_pass(
                    &self.netlist,
                    &self.library,
                    self.params.scale,
                    &self.patterns,
                    &self.slots,
                    &opts,
                    s,
                    metrics,
                )
            })?;
            return Ok(Sample {
                seconds: start.elapsed().as_secs_f64(),
                deny_findings: pass.check.deny_count(),
                model_err_max_pct: Some(pass.model_err_max_pct),
                min_margin_ps: min_margin_ps(&pass.check),
                runs: vec![pass.run],
            });
        }
        let launches = self.launches_per_sample();
        let mut runs = Vec::with_capacity(launches);
        let start = Instant::now();
        spans.time("harness.sample", |_| -> Result<(), String> {
            for _ in 0..launches {
                runs.push(self.launch(&opts)?);
            }
            Ok(())
        })?;
        Ok(Sample {
            seconds: start.elapsed().as_secs_f64(),
            runs,
            deny_findings: 0,
            model_err_max_pct: None,
            min_margin_ps: None,
        })
    }

    /// One launch on a fresh session over the workload's artifact with
    /// other options — the 1-thread and 1-lane arms of the traced round.
    pub fn launch_with(&self, threads: usize, lanes: usize) -> Result<SimRun, String> {
        let mut session = Session::new(Arc::clone(&self.compiled), threads);
        let opts = SimOptions {
            lanes,
            ..sim_options(threads, false)
        };
        let run = match &self.scenario {
            Some(s) => session.run_scenarios(
                &self.patterns,
                &s.scenarios,
                Some(&s.mc),
                Some(s.deadline_ps),
                &opts,
            ),
            None => session.run(&self.patterns, &self.slots, &opts),
        };
        run.map_err(|e| e.to_string())
    }

    /// The static uniform launch the STA and constant-schedule oracles
    /// compare against: the reference itself, except for `scenario_mc`
    /// where it is the launch of the nominal supplies.
    pub fn uniform_launch(&mut self) -> Result<SimRun, String> {
        match (&mut self.exec, &self.scenario) {
            (Exec::Session(session), Some(_)) => session
                .run(
                    &self.patterns,
                    &self.slots,
                    &sim_options(self.params.threads, false),
                )
                .map_err(|e| e.to_string()),
            _ => Ok(self.reference.clone()),
        }
    }

    /// The constant-schedule twin of [`Prepared::uniform_launch`]
    /// (`scenario_mc` only): must be bit-identical to it.
    pub fn constant_schedule_launch(&mut self) -> Option<Result<SimRun, String>> {
        let (Exec::Session(session), Some(s)) = (&mut self.exec, &self.scenario) else {
            return None;
        };
        let constants: Vec<Schedule> = s.nominals.iter().map(|&v| Schedule::constant(v)).collect();
        let scenarios = cross_schedules(self.patterns.len(), &constants);
        Some(
            session
                .run_scenarios(
                    &self.patterns,
                    &scenarios,
                    None,
                    None,
                    &sim_options(self.params.threads, false),
                )
                .map_err(|e| e.to_string()),
        )
    }

    /// Counters of the batch layer's caches (`grid_small` only).
    pub fn batch_counters(&self) -> (u64, u64) {
        match &self.exec {
            Exec::Batch(runner, _) => (runner.compile_hits(), runner.compile_misses()),
            _ => (0, 0),
        }
    }

    /// Worker threads the workload runs with.
    pub fn threads(&self) -> usize {
        self.params.threads
    }

    /// One cell the characterized model covers.
    pub fn probe_cell(&self) -> Option<CellId> {
        used_cells(&self.netlist).first().copied()
    }

    /// The cell library the circuit instantiates.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }
}

/// One launch the way the workload launches (not `pipeline_cold`).
fn launch_on(
    exec: &mut Exec,
    patterns: &PatternSet,
    slot_list: &[SlotSpec],
    scenario: Option<&ScenarioInputs>,
    opts: &SimOptions,
) -> Result<SimRun, String> {
    let run = match (exec, scenario) {
        (Exec::Session(session), Some(s)) => session.run_scenarios(
            patterns,
            &s.scenarios,
            Some(&s.mc),
            Some(s.deadline_ps),
            opts,
        ),
        (Exec::Session(session), None) => session.run(patterns, slot_list, opts),
        (Exec::Batch(runner, key), _) => runner
            .compile(*key, || unreachable!("artifact compiled during set-up"))
            .and_then(|compiled| runner.run(&compiled, patterns, slot_list, opts)),
        (Exec::Cold, _) => unreachable!("pipeline_cold has no steady-state launch"),
    };
    run.map_err(|e| e.to_string())
}

/// Resident memory added since `before` was read, MiB.
fn rss_added_since(before: Option<f64>) -> f64 {
    match (before, host::peak_rss_mb()) {
        (Some(before), Some(peak)) => (peak - before).max(0.0),
        _ => 0.0,
    }
}

/// Max relative error of the fitted polynomials against the SPICE
/// lattice over every characterized cell, % (Fig. 4).
fn model_err_max_pct(chars: &CharacterizedLibrary) -> f64 {
    chars
        .reports()
        .iter()
        .map(|r| r.stats.max)
        .fold(0.0, f64::max)
        * 100.0
}

/// Smallest `sta − sim` margin over the cross-check's voltages, ps.
pub fn min_margin_ps(check: &CrossCheck) -> Option<f64> {
    check
        .rows
        .iter()
        .filter_map(|r| r.margin_ps)
        .fold(None, |acc, m| Some(acc.map_or(m, |a: f64| a.min(m))))
}

/// STA cross-check of a uniform launch of `compiled`.
pub fn sta_crosscheck(
    compiled: &CompiledNetlist,
    run: &SimRun,
    label: &str,
) -> Result<CrossCheck, String> {
    crosscheck(compiled, run, label, &CrossCheckOptions::default()).map_err(|e| e.to_string())
}

/// One cold pass of the whole flow.
struct PipelinePass {
    compiled: Arc<CompiledNetlist>,
    model: Arc<PolynomialModel>,
    model_err_max_pct: f64,
    run: SimRun,
    check: CrossCheck,
}

#[allow(clippy::too_many_arguments)]
fn pipeline_pass(
    netlist: &Arc<Netlist>,
    library: &Arc<CellLibrary>,
    scale: Scale,
    patterns: &PatternSet,
    slot_list: &[SlotSpec],
    opts: &SimOptions,
    spans: &mut Spans,
    metrics: Option<&Metrics>,
) -> Result<PipelinePass, String> {
    let chars = spans.time("delay.characterize", |_| {
        characterize(netlist, library, scale, metrics)
    })?;
    let annotation = spans
        .time("delay.annotate", |_| chars.annotate(netlist))
        .map_err(|e| e.to_string())?;
    let model = Arc::new(chars.model().clone());
    let compiled = Arc::new(
        spans
            .time("compile.compile", |_| {
                CompiledNetlist::compile(
                    Arc::clone(netlist),
                    Arc::new(annotation),
                    Arc::clone(&model) as Arc<dyn DelayModel>,
                )
            })
            .map_err(|e| e.to_string())?,
    );
    let run = spans
        .time("engine.launch", |_| {
            compiled.launch(patterns, slot_list, opts)
        })
        .map_err(|e| e.to_string())?;
    let check = spans.time("sta.crosscheck", |_| {
        sta_crosscheck(&compiled, &run, "pipeline_cold")
    })?;
    Ok(PipelinePass {
        compiled,
        model,
        model_err_max_pct: model_err_max_pct(&chars),
        run,
        check,
    })
}

/// The parameters every measurement runs with: [`host::bench_threads`]
/// workers.
pub fn default_params(seed: u64, scale: Scale) -> Params {
    Params {
        seed,
        scale,
        threads: host::bench_threads(),
    }
}
