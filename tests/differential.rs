//! The differential harness: the levelized engine against the
//! event-driven baseline on every launch kind.
//!
//! Each seed draws a circuit — c17, a ripple-carry adder or a small
//! random netlist, on a characterized polynomial model — and five
//! launches of it: uniform supplies, voltage islands, droop × Monte
//! Carlo scenarios, small-delay faults and a quiet launch. The baseline
//! prices every event with a delay closure written here from public
//! parts only: the nominal delay, plus a fault's `δ`, times the model's
//! factor at the slot's supply — or the gate's domain's, or the supply
//! of the segment the event's cause time falls in, found by the
//! closure's own comparison — times the die's `derate`.
//!
//! Each circuit then runs four launches again under a model with no
//! factor below 0.75 V (NaN or +∞), each reading it there, on
//! supplies fixed either side of it: there the baseline falls back to
//! the nominal delay plus a fault's `δ`, still times the die's
//! `derate`. A run that retries no slot reports, as its fallback
//! tally, two per pin of each gate for every table below 0.75 V each
//! slot reads that gate from — and none on the characterized model.
//!
//! Every engine run of the cross — threads {1, 4} × lanes {0, 1, 8}
//! (0: each batch's resolved default, cut in groups of 8) × a
//! roomy arena under an armed fault plan that never fires, a
//! one-transition arena (retry rounds) or a one-byte budget (several
//! batches) × the three doors `CompiledNetlist::launch`,
//! `Session::run` and `BatchRunner::run` — must equal the baseline bit
//! for bit: every net's waveform, every slot's responses, latest output
//! transition and activity, and a scenario launch's failure curve. The
//! doors must also agree on diagnostics, so an arena a session keeps
//! across launches stays unobservable, and a repeated launch must reuse
//! it. Uniform launches stay under the STA bound.

use avfs::atpg::{PatternPair, PatternSet};
use avfs::circuits::{c17, random_netlist, ripple_carry_adder, GeneratorConfig};
use avfs::delay::characterize::{characterize_library, CharacterizationConfig};
use avfs::delay::variation::derate;
use avfs::delay::{
    DelayError, DelayModel, NormalizedPoint, OperatingPoint, ParameterSpace, VariationConfig,
};
use avfs::inject::FaultPlan;
use avfs::netlist::library::Polarity;
use avfs::netlist::{CellId, CellLibrary, Netlist, NodeId, NodeKind};
use avfs::sim::sta::{crosscheck, CrossCheckOptions};
use avfs::sim::{
    cross, phases, BatchRunner, CompiledNetlist, DomainSlotSpec, EventDrivenSimulator,
    FailurePoint, Launch, MonteCarlo, ScenarioSpec, Schedule, Session, SimOptions, SimRun,
    SlotSpec, SmallDelayFault, VoltageDomains,
};
use avfs::spice::Technology;
use avfs::waveform::{SwitchingActivity, Waveform};
use avfs_prng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Pattern pairs per launch: odd, so lane groups of 8 end ragged.
const PATTERNS: usize = 5;

/// The seeds the harness draws its cases from.
const SEEDS: std::ops::Range<u64> = 0..5;

/// One circuit under test, compiled against the characterized model.
struct Case {
    seed: u64,
    name: String,
    compiled: Arc<CompiledNetlist>,
    patterns: PatternSet,
    /// Whether the model is [`Blind`], so runs must fall back.
    blind: bool,
}

impl Case {
    /// The same circuit and annotation under [`Blind`].
    fn blind(&self) -> Case {
        let model = Arc::clone(self.compiled.model());
        let point = OperatingPoint::new(BLIND_BELOW, 0.0);
        let below = model.space().normalize_clamped(point).v;
        let compiled = CompiledNetlist::compile(
            Arc::clone(self.compiled.netlist()),
            Arc::clone(self.compiled.annotation()),
            Arc::new(Blind { model, below }),
        );
        Case {
            seed: self.seed,
            name: format!("{}, blind below {BLIND_BELOW} V", self.name),
            compiled: Arc::new(compiled.unwrap()),
            patterns: self.patterns.clone(),
            blind: true,
        }
    }
}

/// The supply below which [`Blind`] has no factor.
const BLIND_BELOW: f64 = 0.75;

/// A model with no factor below [`BLIND_BELOW`]: NaN for a rising output
/// and +∞ for a falling one, which the engine replaces by the nominal
/// delay, a fault's `δ` included.
#[derive(Debug)]
struct Blind {
    model: Arc<dyn DelayModel>,
    /// [`BLIND_BELOW`], normalized.
    below: f64,
}

impl DelayModel for Blind {
    fn factor(
        &self,
        cell: CellId,
        pin: usize,
        polarity: Polarity,
        p: NormalizedPoint,
    ) -> Result<f64, DelayError> {
        if p.v < self.below {
            return Ok(match polarity {
                Polarity::Rise => f64::NAN,
                Polarity::Fall => f64::INFINITY,
            });
        }
        self.model.factor(cell, pin, polarity, p)
    }

    fn name(&self) -> &str {
        "blind"
    }

    fn space(&self) -> &ParameterSpace {
        self.model.space()
    }
}

/// The circuits a seed picks from.
fn netlist(seed: u64, library: &Arc<CellLibrary>) -> Netlist {
    let random = |nodes, inputs, outputs, depth| {
        let cfg = GeneratorConfig {
            nodes,
            inputs,
            outputs,
            depth,
            two_input_fraction: 0.7,
        };
        random_netlist("rnd", &cfg, library, seed).unwrap()
    };
    match seed % 5 {
        0 => c17(library).unwrap(),
        1 => ripple_carry_adder(4, library).unwrap(),
        2 => random(60, 8, 6, 6),
        3 => ripple_carry_adder(8, library).unwrap(),
        _ => random(200, 16, 16, 12),
    }
}

/// Every seed's circuit, compiled against one fast characterization of
/// the cells they use.
fn cases() -> Vec<Case> {
    let library = CellLibrary::nangate15_like();
    let netlists: Vec<(u64, Netlist)> = SEEDS.map(|s| (s, netlist(s, &library))).collect();
    let cells: BTreeSet<_> = netlists
        .iter()
        .flat_map(|(_, n)| {
            n.iter().filter_map(|(_, node)| match node.kind() {
                NodeKind::Gate(cell) => Some(cell),
                _ => None,
            })
        })
        .collect();
    let cells: Vec<_> = cells.into_iter().collect();
    let chars = characterize_library(
        &library,
        &Technology::nm15(),
        &CharacterizationConfig::fast(),
        Some(&cells),
    )
    .unwrap();
    netlists
        .into_iter()
        .map(|(seed, n)| {
            let n = Arc::new(n);
            let patterns = PatternSet::random(n.inputs().len(), PATTERNS, seed);
            Case {
                seed,
                name: format!("seed {seed} ({})", n.name()),
                compiled: Arc::new(CompiledNetlist::from_characterization(n, &chars).unwrap()),
                patterns,
                blind: false,
            }
        })
        .collect()
}

/// A supply inside the characterized range.
fn supply(rng: &mut SmallRng) -> f64 {
    0.55 + 0.55 * rng.gen::<f64>()
}

/// The naive price of one event: `nominal + delta` times the model's
/// factor at supply `volts` and the gate's annotated load, or
/// `nominal + delta` itself where that product is not finite.
fn priced(
    c: &CompiledNetlist,
    node: NodeId,
    pin: usize,
    polarity: Polarity,
    volts: f64,
    delta: f64,
) -> f64 {
    let NodeKind::Gate(cell) = c.netlist().node(node).kind() else {
        unreachable!("only gates have delays");
    };
    let annotation = c.annotation();
    let space = c.model().space();
    let point = space.normalize_clamped(OperatingPoint::new(volts, annotation.load_ff(node)));
    let factor = c.model().factor(cell, pin, polarity, point).unwrap();
    let nominal = annotation
        .pin_delays(node, pin)
        .for_output(polarity == Polarity::Rise);
    let scaled = (nominal + delta) * factor;
    if scaled.is_finite() {
        scaled
    } else {
        nominal + delta
    }
}

/// What the baseline says one slot produces.
struct Expected {
    spec: SlotSpec,
    waveforms: Vec<Waveform>,
    /// The outputs' values at the end, or at a fault launch's capture.
    responses: Vec<bool>,
    latest: Option<f64>,
    /// The delays the slot reads that fall back to nominal.
    fallbacks: u64,
}

/// The baseline's waveforms of `pattern` under `delay`.
fn simulate(
    case: &Case,
    pattern: usize,
    delay: impl Fn(NodeId, usize, Polarity, f64) -> f64 + Send + Sync + 'static,
) -> Vec<Waveform> {
    simulate_pair(case, &case.patterns.pairs()[pattern], delay)
}

/// The baseline's waveforms of `pair` under `delay`.
fn simulate_pair(
    case: &Case,
    pair: &PatternPair,
    delay: impl Fn(NodeId, usize, Polarity, f64) -> f64 + Send + Sync + 'static,
) -> Vec<Waveform> {
    let ed = EventDrivenSimulator::with_delays(Arc::clone(case.compiled.netlist()), delay);
    ed.simulate_pair(pair, 0.0).waveforms
}

impl Expected {
    /// `below(gate)`: how many of the supplies the slot reads `gate`'s
    /// delays at lie below [`BLIND_BELOW`]. On a [`Blind`] case each one
    /// falls back once per pin and polarity.
    fn new(
        case: &Case,
        spec: SlotSpec,
        waveforms: Vec<Waveform>,
        capture: Option<f64>,
        below: impl Fn(NodeId) -> usize,
    ) -> Self {
        let netlist = case.compiled.netlist();
        let outputs = netlist.outputs();
        let of = |po: &NodeId| &waveforms[po.index()];
        let gates = netlist
            .iter()
            .filter(|(_, n)| matches!(n.kind(), NodeKind::Gate(_)));
        let fallbacks = gates
            .map(|(id, n)| 2 * n.fanin().len() * below(id))
            .sum::<usize>();
        Expected {
            fallbacks: if case.blind { fallbacks as u64 } else { 0 },
            spec,
            responses: outputs
                .iter()
                .map(|po| capture.map_or(of(po).final_value(), |t| of(po).value_at(t)))
                .collect(),
            latest: outputs
                .iter()
                .filter_map(|po| of(po).transitions().last().copied())
                .reduce(f64::max),
            waveforms,
        }
    }
}

/// One launch request with the data it borrows.
enum Request {
    Uniform(Vec<SlotSpec>),
    Islands(VoltageDomains, Vec<DomainSlotSpec>),
    Scenarios(Vec<ScenarioSpec>, MonteCarlo, f64),
    Faults(Vec<SmallDelayFault>, f64, Option<VariationConfig>, f64),
}

impl Request {
    fn launch(&self) -> Launch<'_> {
        match self {
            Request::Uniform(slots) => Launch::Uniform(slots),
            Request::Islands(domains, slots) => Launch::Domains { domains, slots },
            Request::Scenarios(scenarios, mc, deadline) => Launch::Scenarios {
                scenarios,
                mc: Some(*mc),
                capture_deadline_ps: Some(*deadline),
            },
            Request::Faults(faults, voltage, die, capture_ps) => Launch::Faults {
                faults,
                voltage: *voltage,
                die: *die,
                capture_ps: *capture_ps,
            },
        }
    }
}

/// Uniform supplies: every pattern at three random supplies.
fn uniform(case: &Case, rng: &mut SmallRng) -> (Request, Vec<Expected>) {
    let voltages: Vec<f64> = (0..3).map(|_| supply(rng)).collect();
    uniform_at(case, &voltages)
}

/// 1 if `volts` lies below [`BLIND_BELOW`], else 0.
fn below(volts: f64) -> usize {
    usize::from(volts < BLIND_BELOW)
}

/// Every pattern at each of `voltages`.
fn uniform_at(case: &Case, voltages: &[f64]) -> (Request, Vec<Expected>) {
    let slots = cross(PATTERNS, voltages);
    let expected = slots
        .iter()
        .map(|&spec| {
            let c = Arc::clone(&case.compiled);
            let waveforms = simulate(case, spec.pattern, move |node, pin, polarity, _| {
                priced(&c, node, pin, polarity, spec.voltage, 0.0)
            });
            Expected::new(case, spec, waveforms, None, |_| below(spec.voltage))
        })
        .collect();
    (Request::Uniform(slots), expected)
}

/// A quiet launch, last in a session's sequence: every pattern's launch
/// vector held, so nothing switches and the arena stays empty — a
/// resident arena that kept an earlier launch's state would show.
fn quiet(case: &Case, rng: &mut SmallRng) -> (PatternSet, Request, Vec<Expected>) {
    let held: PatternSet = case
        .patterns
        .pairs()
        .iter()
        .map(|p| PatternPair::new(p.launch.clone(), p.launch.clone()).unwrap())
        .collect();
    let slots = cross(PATTERNS, &[supply(rng)]);
    let expected = slots
        .iter()
        .map(|&spec| {
            let waveforms = simulate_pair(case, &held.pairs()[spec.pattern], |_, _, _, _| 1.0);
            Expected::new(case, spec, waveforms, None, |_| below(spec.voltage))
        })
        .collect();
    (held, Request::Uniform(slots), expected)
}

/// Voltage islands: a random map of two or three domains, and every
/// pattern under three random supply vectors.
fn islands(case: &Case, rng: &mut SmallRng) -> (Request, Vec<Expected>) {
    let netlist = case.compiled.netlist();
    let wanted = 2 + rng.gen_range(0..2usize);
    let domains = VoltageDomains::from_fn(netlist, |_| rng.gen_range(0..wanted));
    let vectors: Vec<Vec<f64>> = (0..3)
        .map(|_| (0..domains.count()).map(|_| supply(rng)).collect())
        .collect();
    islands_at(case, domains, &vectors)
}

/// Every pattern under each of the supply `vectors` of `domains`.
fn islands_at(
    case: &Case,
    domains: VoltageDomains,
    vectors: &[Vec<f64>],
) -> (Request, Vec<Expected>) {
    let netlist = case.compiled.netlist();
    let mut slots = Vec::new();
    let mut expected = Vec::new();
    for voltages in vectors {
        // Each node's supply, read off the map once.
        let supply_of: Arc<Vec<f64>> = Arc::new(
            netlist
                .iter()
                .map(|(id, _)| voltages[domains.domain_of(id)])
                .collect(),
        );
        for pattern in 0..PATTERNS {
            let (c, supply_of) = (Arc::clone(&case.compiled), Arc::clone(&supply_of));
            let waveforms = simulate(case, pattern, move |node, pin, polarity, _| {
                priced(&c, node, pin, polarity, supply_of[node.index()], 0.0)
            });
            let spec = SlotSpec {
                pattern,
                voltage: voltages[0],
            };
            let domain_below = |gate| below(voltages[domains.domain_of(gate)]);
            expected.push(Expected::new(case, spec, waveforms, None, domain_below));
            slots.push(DomainSlotSpec {
                pattern,
                voltages: voltages.clone(),
            });
        }
    }
    (Request::Islands(domains, slots), expected)
}

/// The times, after the launch instant, of the gate input events that
/// cause a transition kept in `waveforms`, simulated under `delay`.
fn causing_events(
    netlist: &Netlist,
    waveforms: &[Waveform],
    delay: impl Fn(NodeId, usize, Polarity) -> f64,
) -> Vec<f64> {
    let mut times = Vec::new();
    for (id, node) in netlist.iter() {
        if !matches!(node.kind(), NodeKind::Gate(_)) {
            continue;
        }
        let out = &waveforms[id.index()];
        for (pin, f) in node.fanin().iter().enumerate() {
            for &t in waveforms[f.index()].transitions() {
                let caused = |&tau: &f64| {
                    let polarity = Polarity::of_transition_to(out.value_at(tau));
                    tau == t + delay(id, pin, polarity)
                };
                if t > 0.0 && out.transitions().iter().any(caused) {
                    times.push(t);
                }
            }
        }
    }
    times.sort_by(f64::total_cmp);
    times.dedup();
    times
}

/// Droop × Monte Carlo: per pattern a constant supply, a random droop,
/// and a step whose boundary is exactly the time of a gate input event
/// that causes an output transition on die 0 (found on the step's first
/// supply, which every event before the boundary runs at), each on two
/// dice, under a deadline the baseline's median arrival sets.
fn scenarios(case: &Case, rng: &mut SmallRng) -> (Request, Vec<Expected>) {
    // Seed 4's dice have zero sigma: they derate by exactly 1.
    let sigma = if case.seed == 4 {
        0.0
    } else {
        0.02 + 0.08 * rng.gen::<f64>()
    };
    let mc = MonteCarlo {
        samples: 2,
        variation: VariationConfig {
            sigma,
            max_deviation: 0.2,
            seed: rng.gen(),
        },
    };
    let mut specs = Vec::new();
    for pattern in 0..PATTERNS {
        let nominal = supply(rng);
        let onset = 40.0 * rng.gen::<f64>();
        let droop = Schedule::droop(
            nominal,
            0.05 + 0.2 * rng.gen::<f64>(),
            onset,
            onset + 1.0 + 60.0 * rng.gen::<f64>(),
        );
        let (before, after) = (supply(rng), supply(rng));
        let step = step_at_an_event(case, pattern, (before, after), &mc.variation, rng);
        for schedule in [Schedule::constant(nominal), droop, step] {
            specs.push(ScenarioSpec { pattern, schedule });
        }
    }
    scenarios_of(case, specs, mc)
}

/// A step from `before` to `after` whose boundary is exactly the time of
/// a gate input event of `pattern` that causes an output transition on
/// die 0 of `variation` (found at `before`, which every event before the
/// boundary runs at); constant at `before` when no such event exists.
fn step_at_an_event(
    case: &Case,
    pattern: usize,
    (before, after): (f64, f64),
    variation: &VariationConfig,
    rng: &mut SmallRng,
) -> Schedule {
    let (c, variation) = (Arc::clone(&case.compiled), *variation);
    let die0 = move |node, pin, polarity| {
        priced(&c, node, pin, polarity, before, 0.0) * derate(&variation, 0, node, pin, polarity)
    };
    let timeline = die0.clone();
    let waveforms = simulate(case, pattern, move |node, pin, polarity, _| {
        timeline(node, pin, polarity)
    });
    let events = causing_events(case.compiled.netlist(), &waveforms, die0);
    match events.len() {
        0 => Schedule::constant(before),
        n => Schedule::steps([(0.0, before), (events[rng.gen_range(0..n)], after)]),
    }
}

/// Every scenario of `specs` on each die of `mc`, under a deadline the
/// baseline's median arrival sets.
fn scenarios_of(case: &Case, specs: Vec<ScenarioSpec>, mc: MonteCarlo) -> (Request, Vec<Expected>) {
    let mut expected = Vec::new();
    for spec in &specs {
        let segments: Arc<Vec<(f64, f64)>> = Arc::new(
            spec.schedule
                .segments
                .iter()
                .map(|s| (s.t_start_ps, s.voltage))
                .collect(),
        );
        let slot = SlotSpec {
            pattern: spec.pattern,
            voltage: segments[0].1,
        };
        // Every gate reads one table per segment.
        let tables_below = segments.iter().map(|&(_, v)| below(v)).sum::<usize>();
        for sample in 0..mc.samples as u32 {
            let (c, segments, variation) = (
                Arc::clone(&case.compiled),
                Arc::clone(&segments),
                mc.variation,
            );
            let waveforms = simulate(case, spec.pattern, move |node, pin, polarity, t| {
                // The last segment started at or before the cause time;
                // the first also covers the time before it starts.
                let segment = segments.iter().rposition(|&(start, _)| start <= t);
                let volts = segments[segment.unwrap_or(0)].1;
                priced(&c, node, pin, polarity, volts, 0.0)
                    * derate(&variation, sample, node, pin, polarity)
            });
            expected.push(Expected::new(case, slot, waveforms, None, |_| tables_below));
        }
    }
    let mut arrivals: Vec<f64> = expected.iter().filter_map(|e| e.latest).collect();
    arrivals.sort_by(f64::total_cmp);
    let deadline = arrivals.get(arrivals.len() / 2).copied().unwrap_or(0.0);
    (Request::Scenarios(specs, mc, deadline), expected)
}

/// Small-delay faults at a random supply: on a random die for even
/// seeds, on the nominal die for odd ones.
fn faults(case: &Case, rng: &mut SmallRng) -> (Request, Vec<Expected>) {
    let faults = random_faults(case, rng);
    let voltage = supply(rng);
    let on_a_die = case.seed.is_multiple_of(2);
    let die = on_a_die.then(|| VariationConfig::sigma5(rng.gen()));
    faults_at(case, faults, voltage, die)
}

/// Five random gates with random `δ`.
fn random_faults(case: &Case, rng: &mut SmallRng) -> Vec<SmallDelayFault> {
    let gates: Vec<NodeId> = case
        .compiled
        .netlist()
        .iter()
        .filter(|(_, node)| matches!(node.kind(), NodeKind::Gate(_)))
        .map(|(id, _)| id)
        .collect();
    (0..5)
        .map(|_| SmallDelayFault {
            node: gates[rng.gen_range(0..gates.len())],
            delta_ps: 1.0 + 30.0 * rng.gen::<f64>(),
        })
        .collect()
}

/// Fault-free and each of `faults`, every pattern at `voltage` on `die`
/// (or the nominal die), captured at the latest fault-free arrival — a
/// transition time, so `value_at`'s edge is exercised.
fn faults_at(
    case: &Case,
    faults: Vec<SmallDelayFault>,
    voltage: f64,
    die: Option<VariationConfig>,
) -> (Request, Vec<Expected>) {
    let netlist = case.compiled.netlist();
    let mut slots = Vec::new();
    for fault in std::iter::once(None).chain(faults.iter().copied().map(Some)) {
        for pattern in 0..PATTERNS {
            let c = Arc::clone(&case.compiled);
            let waveforms = simulate(case, pattern, move |node, pin, polarity, _| {
                let delta = fault.filter(|f| f.node == node).map_or(0.0, |f| f.delta_ps);
                let d = priced(&c, node, pin, polarity, voltage, delta);
                die.map_or(d, |die| d * derate(&die, 0, node, pin, polarity))
            });
            slots.push((SlotSpec { pattern, voltage }, waveforms));
        }
    }
    let capture = slots[..PATTERNS]
        .iter()
        .flat_map(|(_, waveforms)| {
            let outputs = netlist.outputs().iter();
            outputs.filter_map(|po| waveforms[po.index()].transitions().last().copied())
        })
        .fold(0.0, f64::max);
    let expected = slots
        .into_iter()
        .map(|(spec, waveforms)| {
            Expected::new(case, spec, waveforms, Some(capture), |_| below(voltage))
        })
        .collect();
    (Request::Faults(faults, voltage, die, capture), expected)
}

/// How a run's arena and batches are cut.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// The default arena, under an armed fault plan that never fires.
    Roomy,
    /// One transition per cell: every glitching slot retries.
    TightArena,
    /// A one-byte budget: one lane group per worker per batch.
    TinyBudget,
}

/// Asserts that `run` of `request` is the baseline's, slot for slot, with
/// the failure curve its arrivals give and, on uniform supplies, under
/// the STA bound.
fn assert_oracle(case: &Case, request: &Request, run: &SimRun, expected: &[Expected], at: &str) {
    assert_eq!(run.slots.len(), expected.len(), "{at}");
    // A retried slot reads its delays again.
    if run.diagnostics.slot_retries == 0 {
        let fallbacks = expected.iter().map(|e| e.fallbacks).sum::<u64>();
        assert_eq!(run.diagnostics.kernel_fallbacks, fallbacks, "{at}");
    }
    for (i, (slot, want)) in run.slots.iter().zip(expected).enumerate() {
        let at = format!("{at}, slot {i}");
        assert!(slot.status.is_completed(), "{at}: {:?}", slot.status);
        assert_eq!(slot.spec, want.spec, "{at}");
        assert_eq!(slot.waveforms.as_ref(), Some(&want.waveforms), "{at}");
        assert_eq!(slot.responses, want.responses, "{at}");
        assert_eq!(slot.latest_output_transition_ps, want.latest, "{at}");
        let activity = SwitchingActivity::of(want.waveforms.iter());
        assert_eq!(slot.activity, activity, "{at}");
    }
    match request {
        Request::Scenarios(_, mc, deadline) => {
            let summary = run.scenario.as_ref().unwrap();
            assert_eq!(summary.samples_per_scenario, mc.samples, "{at}");
            assert_eq!(summary.points, failure_curve(expected, *deadline), "{at}");
        }
        Request::Uniform(_) => {
            let options = CrossCheckOptions::default();
            let sta = crosscheck(&case.compiled, run, &case.name, &options).unwrap();
            assert_eq!(sta.deny_count(), 0, "{at}: {:?}", sta.findings);
        }
        _ => assert_eq!(run.scenario, None, "{at}"),
    }
}

/// The failure curve the baseline's arrivals give against `deadline`.
fn failure_curve(expected: &[Expected], deadline: f64) -> Vec<FailurePoint> {
    let mut points: Vec<FailurePoint> = Vec::new();
    for e in expected {
        let at = points.iter().position(|p| p.voltage == e.spec.voltage);
        let point = match at {
            Some(i) => &mut points[i],
            None => {
                points.push(FailurePoint {
                    voltage: e.spec.voltage,
                    samples: 0,
                    failures: 0,
                    p_fail: 0.0,
                });
                points.last_mut().unwrap()
            }
        };
        point.samples += 1;
        point.failures += usize::from(e.latest.is_some_and(|t| t > deadline));
        point.p_fail = point.failures as f64 / point.samples as f64;
    }
    points
}

/// Runs `request` over the whole cross and holds every run to the
/// baseline's `expected` results.
fn check(
    case: &Case,
    kind: &str,
    patterns: &PatternSet,
    (request, expected): (Request, Vec<Expected>),
    sessions: &mut [(usize, Session)],
    runners: &[(usize, BatchRunner)],
) {
    let launch = request.launch();
    let falls_back = expected.iter().any(|e| e.fallbacks > 0);
    assert_eq!(falls_back, case.blind, "{}: {kind}", case.name);
    let glitchy = expected
        .iter()
        .any(|e| e.waveforms.iter().any(|w| w.transitions().len() > 1));
    for ((threads, session), (_, runner)) in sessions.iter_mut().zip(runners) {
        let threads = *threads;
        for lanes in [0, 1, 8] {
            for shape in [Shape::Roomy, Shape::TightArena, Shape::TinyBudget] {
                let opts = SimOptions {
                    threads,
                    lanes,
                    keep_waveforms: true,
                    arena_capacity: if shape == Shape::TightArena { 1 } else { 0 },
                    waveform_budget: if shape == Shape::TinyBudget {
                        1
                    } else {
                        SimOptions::default().waveform_budget
                    },
                    profiling: shape == Shape::TinyBudget,
                    fault_plan: (shape == Shape::Roomy)
                        .then(|| Arc::new(FaultPlan::empty(case.seed))),
                    ..SimOptions::default()
                };
                let runs = [
                    ("launch", case.compiled.launch(patterns, launch, &opts)),
                    ("session", session.run(patterns, launch, &opts)),
                    (
                        "runner",
                        runner.run(&case.compiled, patterns, launch, &opts),
                    ),
                ];
                let runs = runs.map(|(door, run)| (door, run.unwrap()));
                let reference = &runs[0].1;
                for (door, run) in &runs {
                    let at = format!(
                        "{}: {kind} via {door}, threads={threads}, lanes={lanes}, {shape:?}",
                        case.name
                    );
                    assert_oracle(case, &request, run, &expected, &at);
                    assert_eq!(run.diagnostics, reference.diagnostics, "{at}");
                    assert_eq!(run.node_evaluations, reference.node_evaluations, "{at}");
                    match shape {
                        Shape::Roomy => {}
                        Shape::TightArena => {
                            assert_eq!(run.diagnostics.slot_retries > 0, glitchy, "{at}");
                        }
                        Shape::TinyBudget => {
                            let profile = run.profile.as_ref().unwrap();
                            let batches = profile.counter(phases::ENGINE_BATCHES).unwrap();
                            // Batches are cut in whole groups of 8
                            // slots for `lanes: 0`, one per worker.
                            let cut = if lanes == 0 { 8 } else { lanes };
                            let several = expected.len() > threads * cut;
                            assert_eq!(batches > 1, several, "{at}: {batches} batches");
                        }
                    }
                }
                if shape == Shape::Roomy {
                    // A repeated launch reuses the resident arena.
                    let allocations = (session.arena_allocations(), runner.arena_allocations());
                    session.run(patterns, launch, &opts).unwrap();
                    runner.run(&case.compiled, patterns, launch, &opts).unwrap();
                    let again = (session.arena_allocations(), runner.arena_allocations());
                    assert_eq!(again, allocations, "{}: {kind}", case.name);
                }
            }
        }
    }
}

/// Engine ≡ event-driven baseline, bit for bit, on every launch kind of
/// seed `seed`'s circuit, at every point of the cross and through every
/// door. The circuits are characterized once, for all the tests.
fn engine_matches_the_oracle(seed: u64) {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    let case = &CASES.get_or_init(cases)[seed as usize];
    let runners = [(1, BatchRunner::new(1, 1)), (4, BatchRunner::new(4, 1))];
    let mut rng = SmallRng::seed_from_u64(case.seed);
    let mut sessions = [1, 4].map(|t| (t, Session::new(Arc::clone(&case.compiled), t)));
    let kinds = [
        ("uniform", uniform(case, &mut rng)),
        ("islands", islands(case, &mut rng)),
        ("scenarios", scenarios(case, &mut rng)),
        ("faults", faults(case, &mut rng)),
    ];
    for (kind, launch) in kinds {
        check(case, kind, &case.patterns, launch, &mut sessions, &runners);
    }
    let (held, request, expected) = quiet(case, &mut rng);
    check(
        case,
        "quiet",
        &held,
        (request, expected),
        &mut sessions,
        &runners,
    );
    let blind = case.blind();
    let mut sessions = [1, 4].map(|t| (t, Session::new(Arc::clone(&blind.compiled), t)));
    for (kind, launch) in blind_kinds(&blind, &mut rng) {
        check(
            &blind,
            kind,
            &blind.patterns,
            launch,
            &mut sessions,
            &runners,
        );
    }
}

/// The launch kinds on a [`Blind`] case, each reading the model below
/// [`BLIND_BELOW`]: uniform supplies either side of it; three islands,
/// one or another below it; per pattern a constant schedule below it and steps into and out
/// of it at a causing event, on two dice; and faults below it on a die.
fn blind_kinds(case: &Case, rng: &mut SmallRng) -> [(&'static str, (Request, Vec<Expected>)); 4] {
    let (low, high) = (0.6, 0.9);
    // Domain 0 stays above, so a slot's tally differs from its first
    // table's.
    let domains = VoltageDomains::from_fn(case.compiled.netlist(), |id| id.index() % 3);
    let vectors = [vec![high, low, high], vec![high, high, low]];
    let islands = islands_at(case, domains, &vectors);
    let mc = MonteCarlo {
        samples: 2,
        variation: VariationConfig {
            sigma: 0.05,
            max_deviation: 0.2,
            seed: rng.gen(),
        },
    };
    let mut specs = Vec::new();
    for pattern in 0..PATTERNS {
        let into = step_at_an_event(case, pattern, (high, low), &mc.variation, rng);
        let out_of = step_at_an_event(case, pattern, (low, high), &mc.variation, rng);
        for schedule in [Schedule::constant(low), into, out_of] {
            specs.push(ScenarioSpec { pattern, schedule });
        }
    }
    let die = VariationConfig::sigma5(rng.gen());
    [
        ("uniform", uniform_at(case, &[low, high])),
        ("islands", islands),
        ("scenarios", scenarios_of(case, specs, mc)),
        (
            "faults",
            faults_at(case, random_faults(case, rng), low, Some(die)),
        ),
    ]
}

#[test]
fn c17_matches_the_event_driven_oracle() {
    engine_matches_the_oracle(0);
}

#[test]
fn four_bit_adder_matches_the_event_driven_oracle() {
    engine_matches_the_oracle(1);
}

#[test]
fn random_60_node_netlist_matches_the_event_driven_oracle() {
    engine_matches_the_oracle(2);
}

#[test]
fn eight_bit_adder_matches_the_event_driven_oracle() {
    engine_matches_the_oracle(3);
}

#[test]
fn random_200_node_netlist_matches_the_event_driven_oracle() {
    engine_matches_the_oracle(4);
}
