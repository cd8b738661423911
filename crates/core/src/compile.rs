//! The compile step of the compile-once / simulate-many split.
//!
//! GATSPI's 1000× (and this paper's own throughput story) rests on
//! amortization: pay netlist preparation once, then launch as many
//! slot-parallel simulation instances as the hardware fits. This module
//! is the offline half: [`CompiledNetlist`] captures everything about a
//! (netlist, annotation, delay model) triple that is independent of a
//! particular launch —
//!
//! * the levelized graph,
//! * input hardening and per-node load normalization (`φ_C` clamped into
//!   the characterized interval),
//! * the tier-1/tier-2 lint report, pre-rendered so per-run validation
//!   only has to check operating points,
//! * the per-level execution plan (gate task lists, pin-delay offsets,
//!   output passthroughs) previously rebuilt per batch per level.
//!
//! The artifact is immutable, `Send + Sync`, and `Arc`-shared: clone the
//! `Arc` into any number of [`Session`](crate::session::Session)s or
//! hand it to a [`BatchRunner`](crate::batch::BatchRunner), and every
//! launch is launch-only.

use crate::batch::Lru;
use crate::engine::DelayTable;
use crate::SimError;
use avfs_check::{Finding, Findings};
use avfs_delay::model::DelayModel;
use avfs_delay::op::OperatingPoint;
use avfs_delay::TimingAnnotation;
use avfs_netlist::{Levelization, Netlist, NodeId, NodeKind};
use avfs_waveform::PinDelays;
use std::sync::{Arc, Mutex};

/// Distinct uniform supply voltages whose fully-scaled delay tables the
/// artifact keeps resident. AVFS workloads cycle through a small set of
/// DVFS operating points, so a handful of slots covers the steady state;
/// one table costs `O(total gate pins)` `PinDelays`.
const DELAY_TABLE_SLOTS: usize = 16;

/// Refuses gate `gate`'s `pins` with [`SimError::InvalidDelay`], naming
/// the first pin whose rise or fall delay is non-finite or negative: a
/// delay no launch may scale.
pub(crate) fn check_pins(
    gate: &str,
    pins: impl IntoIterator<Item = PinDelays>,
) -> Result<(), SimError> {
    let usable = |d: f64| d.is_finite() && d >= 0.0;
    match pins
        .into_iter()
        .position(|d| !usable(d.rise) || !usable(d.fall))
    {
        Some(pin) => Err(SimError::InvalidDelay {
            gate: gate.to_owned(),
            pin,
        }),
        None => Ok(()),
    }
}

/// The precomputed task plan of one level: which nodes are gate tasks
/// and which are primary-output passthroughs, and per gate everything
/// a level's tasks need of it — pin range, fan-in nets, function — in
/// flat arrays, so neither the gating scan nor a lane task walks the
/// netlist graph. Computed once at compile.
#[derive(Debug, Clone, Default)]
pub(crate) struct LevelPlan {
    /// The level's gate nodes, in level order — the task axis.
    pub(crate) gate_nodes: Vec<NodeId>,
    /// `gate_offsets[pos] .. gate_offsets[pos + 1]` — the pins of
    /// `gate_nodes[pos]` in `gate_fanin` and in the level's flat
    /// per-voltage-group delay buffer (one entry more than there are
    /// gates; empty for a level without gates).
    pub(crate) gate_offsets: Vec<usize>,
    /// The net driving each pin, flat at `gate_offsets`.
    pub(crate) gate_fanin: Vec<NodeId>,
    /// `gate_tables[pos]` — the gate's [`CellKind::truth_table`]: what
    /// the constant scan cofactors over the quiet pins, 64 lanes at a
    /// time, and what the merge loop evaluates per input event.
    ///
    /// [`CellKind::truth_table`]: avfs_netlist::CellKind::truth_table
    pub(crate) gate_tables: Vec<u16>,
    /// Primary outputs of the level, copied cell-to-cell at its close.
    pub(crate) output_nodes: Vec<NodeId>,
}

impl LevelPlan {
    /// Plans `nodes`, one level of `netlist`.
    fn of(netlist: &Netlist, nodes: &[NodeId]) -> LevelPlan {
        let mut plan = LevelPlan::default();
        for &node_id in nodes {
            let node = netlist.node(node_id);
            match node.kind() {
                NodeKind::Gate(_) => {
                    let kind = netlist.kind_of(node_id).expect("gate has a cell");
                    plan.gate_nodes.push(node_id);
                    plan.gate_offsets.push(plan.gate_fanin.len());
                    plan.gate_fanin.extend_from_slice(node.fanin());
                    plan.gate_tables.push(kind.truth_table());
                }
                NodeKind::Output => plan.output_nodes.push(node_id),
                NodeKind::Input => {}
            }
        }
        if !plan.gate_nodes.is_empty() {
            plan.gate_offsets.push(plan.gate_fanin.len());
        }
        plan
    }
}

/// An immutable compiled simulation artifact: one netlist, levelized and
/// hardened, bound to one timing annotation and one delay model, with
/// normalized per-node loads, a pre-rendered lint report and per-level
/// execution plans.
///
/// Compile once with [`CompiledNetlist::compile`], share via `Arc`, then
/// launch any number of runs — directly via
/// [`CompiledNetlist::launch`], with a parked worker pool via
/// [`Session`](crate::session::Session), or cached across a workload via
/// [`BatchRunner`](crate::batch::BatchRunner).
///
/// ```
/// use avfs_core::{slots, CompiledNetlist, Session, SimOptions};
/// use avfs_atpg::PatternSet;
/// use avfs_delay::{ParameterSpace, StaticModel, TimingAnnotation};
/// use avfs_netlist::CellLibrary;
/// use std::sync::Arc;
///
/// let library = CellLibrary::nangate15_like();
/// let netlist = Arc::new(avfs_circuits::ripple_carry_adder(4, &library)?);
/// let compiled = Arc::new(CompiledNetlist::compile(
///     Arc::clone(&netlist),
///     Arc::new(TimingAnnotation::zero(&netlist)),
///     Arc::new(StaticModel::new(ParameterSpace::paper())),
/// )?);
/// // Compile cost is paid; every launch below is launch-only.
/// let patterns = PatternSet::lfsr(netlist.inputs().len(), 4, 7);
/// let slot_list = slots::at_voltage(patterns.len(), 0.8);
/// let mut session = Session::new(Arc::clone(&compiled), 1);
/// let a = session.run(&patterns, &slot_list, &SimOptions::default())?;
/// let b = session.run(&patterns, &slot_list, &SimOptions::default())?;
/// assert_eq!(a.slots, b.slots);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CompiledNetlist {
    pub(crate) netlist: Arc<Netlist>,
    pub(crate) levels: Arc<Levelization>,
    pub(crate) annotation: Arc<TimingAnnotation>,
    pub(crate) model: Arc<dyn DelayModel>,
    /// Pre-normalized `φ_C(load)` per node (clamped into the model's
    /// characterized interval; dangling nets sit at the lower bound).
    pub(crate) c_norm: Vec<f64>,
    /// Annotated loads outside the characterized interval that the
    /// normalization above clamped — reported per run in
    /// [`RunDiagnostics::clamped_loads`](crate::RunDiagnostics::clamped_loads).
    pub(crate) clamped_loads: usize,
    /// Tier-1/tier-2 findings computed once at compile (netlist lints,
    /// clamped annotated loads); recorded in every run's
    /// [`RunDiagnostics::validation_findings`](crate::RunDiagnostics::validation_findings).
    pub(crate) setup_findings: Vec<Finding>,
    /// The setup findings rendered once at compile, so per-run
    /// validation only renders the launch's operating-point findings.
    pub(crate) setup_rendered: Vec<String>,
    /// Per-level task plans, indexed by level (level 0 — the stimuli —
    /// has an empty plan).
    pub(crate) level_plans: Vec<LevelPlan>,
    /// Per-voltage modified-delay tables, keyed by the supply's bit
    /// pattern and built lazily on first launch at that voltage: delay
    /// initialisation is a pure function of (artifact, uniform supply),
    /// so repeated launches reuse it instead of re-evaluating every
    /// `φ_V`/`φ_C` factor.
    pub(crate) delay_tables: Mutex<Lru<u64, Arc<DelayTable>>>,
    /// Test seam: a worker panics outside any lane right after it grabs
    /// a chunk as a helper, holding tasks no other worker will run.
    #[cfg(test)]
    pub(crate) panic_in_help: std::sync::atomic::AtomicBool,
}

impl CompiledNetlist {
    /// Compiles a netlist, annotation and delay model into an immutable
    /// launch artifact: levelization, input hardening, load
    /// normalization, lints, level planning — paid exactly once per
    /// (netlist, library, corner).
    ///
    /// # Errors
    ///
    /// * [`SimError::AnnotationMismatch`] if the annotation does not cover
    ///   the netlist,
    /// * [`SimError::InvalidLoad`] / [`SimError::InvalidDelay`] if the
    ///   annotation carries non-finite or negative loads or delays.
    pub fn compile(
        netlist: Arc<Netlist>,
        annotation: Arc<TimingAnnotation>,
        model: Arc<dyn DelayModel>,
    ) -> Result<CompiledNetlist, SimError> {
        if !annotation.matches(&netlist) {
            return Err(SimError::AnnotationMismatch);
        }
        let levels =
            Arc::new(Levelization::of(&netlist).expect("a Netlist is acyclic by construction"));
        // Input hardening: reject corrupt annotations up front instead of
        // letting NaNs propagate into waveforms.
        for (id, node) in netlist.iter() {
            let load = annotation.load_ff(id);
            if !load.is_finite() || load < 0.0 {
                return Err(SimError::InvalidLoad {
                    node: node.name().to_owned(),
                    load,
                });
            }
            if matches!(node.kind(), NodeKind::Gate(_)) {
                check_pins(node.name(), annotation.node_delays(id).iter().copied())?;
            }
        }
        let space = model.space();
        let (c_lo, c_hi) = space.load_range();
        let mut clamped_loads = 0usize;
        // Tier-1/tier-2 lints over what this artifact is permanently
        // bound to: the annotated loads the normalization below silently
        // clamps into the characterized interval, and the netlist.
        // Per-launch data (slot operating points) is checked at run time
        // instead — the only lint work a launch pays.
        let mut findings = Findings::default();
        let c_norm = netlist
            .iter()
            .map(|(id, node)| {
                let op = OperatingPoint::new(space.nominal_vdd(), annotation.load_ff(id));
                if op.load_ff < c_lo || op.load_ff > c_hi {
                    clamped_loads += 1;
                    // Only gate loads feed the delay kernel; a dangling
                    // or port net clamped at the boundary is expected and
                    // not worth a finding.
                    if matches!(node.kind(), NodeKind::Gate(_)) {
                        let location = || node.name().to_owned();
                        avfs_check::model::lint_operating_point(space, op, location, &mut findings);
                    }
                }
                space.normalize_clamped(op).c
            })
            .collect();
        avfs_check::netlist::lint_netlist(&netlist, &mut findings);
        let setup_findings = findings.finish();
        let setup_rendered: Vec<String> = setup_findings.iter().map(ToString::to_string).collect();
        // Per-level task plans: gates become pool tasks; primary outputs
        // are mere passthroughs, copied cell-to-cell at a level's close.
        // Level 0 is the stimuli: no tasks.
        let level_plans = (0..levels.depth())
            .map(|level| match level {
                0 => LevelPlan::default(),
                _ => LevelPlan::of(&netlist, levels.level(level)),
            })
            .collect();
        Ok(CompiledNetlist {
            netlist,
            levels,
            annotation,
            model,
            c_norm,
            clamped_loads,
            setup_findings,
            setup_rendered,
            level_plans,
            delay_tables: Mutex::new(Lru::new(DELAY_TABLE_SLOTS)),
            #[cfg(test)]
            panic_in_help: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Compiles a netlist against a characterization: the netlist is
    /// annotated with nominal delays at its instance loads, and the
    /// characterized polynomial model becomes the delay kernel.
    ///
    /// # Errors
    ///
    /// [`SimError::Model`] for a cell the characterization lacks, plus
    /// everything [`CompiledNetlist::compile`] returns.
    pub fn from_characterization(
        netlist: Arc<Netlist>,
        chars: &avfs_delay::CharacterizedLibrary,
    ) -> Result<CompiledNetlist, SimError> {
        let annotation = Arc::new(chars.annotate(&netlist)?);
        CompiledNetlist::compile(netlist, annotation, Arc::new(chars.model().clone()))
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// The bound levelization.
    pub fn levels(&self) -> &Arc<Levelization> {
        &self.levels
    }

    /// The bound annotation.
    pub fn annotation(&self) -> &Arc<TimingAnnotation> {
        &self.annotation
    }

    /// The bound delay model.
    pub fn model(&self) -> &Arc<dyn DelayModel> {
        &self.model
    }

    /// The artifact's cached tier-1/tier-2 findings (netlist lints,
    /// clamped annotated loads) — the
    /// compile-time part of what every run records in
    /// [`RunDiagnostics::validation_findings`](crate::RunDiagnostics::validation_findings).
    /// A caller that refuses to simulate a suspect netlist reads them
    /// here, before any launch.
    pub fn setup_findings(&self) -> &[Finding] {
        &self.setup_findings
    }

    /// Annotated loads the compile clamped into the characterized
    /// interval (surfaced per run as
    /// [`RunDiagnostics::clamped_loads`](crate::RunDiagnostics::clamped_loads)).
    pub fn clamped_loads(&self) -> usize {
        self.clamped_loads
    }
}

// The artifact is shared across sessions and worker threads; everything
// inside is immutable and the model trait object is `Send + Sync` by
// bound. Asserted here so a regression fails to compile.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledNetlist>();
};
