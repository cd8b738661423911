//! The per-pin-transition timing graph and its arrival/required
//! propagation.
//!
//! Every netlist node contributes two timing nodes — its rising and its
//! falling output transition — and every fanin pin contributes up to two
//! timing arcs per output transition, selected by the driving cell's
//! *unateness*: a positive-unate cell (BUF/AND/OR) propagates rise→rise
//! and fall→fall, a negative-unate cell (INV/NAND/NOR/AOI/OAI) flips the
//! edge, and a binate cell (XOR/XNOR/MUX2) admits both input edges for
//! either output edge. Arc delays are the simulator's own per-pin
//! [`PinDelays`], selected by the **output** transition edge — exactly
//! the `PinDelays::for_output` convention the waveform kernel applies —
//! so an arrival computed here is the same left-fold `t_in + delay` the
//! event chain performs, operation for operation.

use avfs_netlist::{Levelization, LogicFunction, Netlist, NodeId, NodeKind};
use avfs_waveform::PinDelays;
use std::fmt;

/// How a cell's output edge relates to the input edge that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unateness {
    /// Output follows the input edge (BUF, AND, OR).
    Positive,
    /// Output inverts the input edge (INV, NAND, NOR, AOI21/22, OAI21/22).
    Negative,
    /// Either input edge can cause either output edge (XOR, XNOR, MUX2).
    Binate,
}

/// The unateness of a logic function, per input pin. The repo's cell set
/// is uniform across pins except MUX2, whose select pin is binate — and
/// a binate classification is always safe (it only widens the arc set),
/// so MUX2 is classified binate wholesale.
pub fn unateness(function: LogicFunction) -> Unateness {
    match function {
        LogicFunction::Buf | LogicFunction::And | LogicFunction::Or => Unateness::Positive,
        LogicFunction::Inv
        | LogicFunction::Nand
        | LogicFunction::Nor
        | LogicFunction::Aoi21
        | LogicFunction::Oai21
        | LogicFunction::Aoi22
        | LogicFunction::Oai22 => Unateness::Negative,
        // `LogicFunction` is non-exhaustive; an unknown future function
        // must be treated binate — the only always-sound classification.
        _ => Unateness::Binate,
    }
}

/// Rise/fall pair of timing values at one node — arrivals, required
/// times, or slacks depending on context. Unreachable values are
/// `NEG_INFINITY` for (latest) arrivals and `INFINITY` for earliest
/// arrivals and required times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Value for the rising output transition, ps.
    pub rise: f64,
    /// Value for the falling output transition, ps.
    pub fall: f64,
}

impl Arrival {
    /// The worse (larger) of the two edges.
    pub fn max(&self) -> f64 {
        self.rise.max(self.fall)
    }

    /// The better (smaller) of the two edges.
    pub fn min(&self) -> f64 {
        self.rise.min(self.fall)
    }

    fn get(&self, pol: usize) -> f64 {
        if pol == 0 {
            self.rise
        } else {
            self.fall
        }
    }
}

/// Errors constructing a [`TimingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StaError {
    /// The delay matrix does not match the netlist shape.
    Shape {
        /// Which node disagrees (`None`: the outer vector length).
        node: Option<NodeId>,
        /// Expected pin count (or node count).
        expected: usize,
        /// Provided pin count (or node count).
        got: usize,
    },
    /// An SDF document failed to parse or annotate.
    Sdf(String),
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Shape {
                node: Some(node),
                expected,
                got,
            } => write!(
                f,
                "delay matrix disagrees with netlist at node {}: {expected} pin(s) expected, {got} given",
                node.index()
            ),
            StaError::Shape {
                node: None,
                expected,
                got,
            } => write!(
                f,
                "delay matrix has {got} node entr(ies), netlist has {expected}"
            ),
            StaError::Sdf(message) => write!(f, "SDF annotation failed: {message}"),
        }
    }
}

impl std::error::Error for StaError {}

/// One step of an extracted critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// The node the transition passes through.
    pub node: NodeId,
    /// `true` for a rising transition at this node's output.
    pub rising: bool,
    /// Latest arrival of that transition, ps.
    pub arrival_ps: f64,
    /// Slack against the analysis' worst endpoint arrival, ps
    /// (`required − arrival`; ~0 along the critical path by definition).
    pub slack_ps: f64,
}

/// Per-endpoint (primary-output) timing summary. In this full-scan
/// model every primary input is a launch register's output and every
/// primary output a capture register's data pin, so "PO max delay" *is*
/// the reg2reg analysis: the endpoint's latest arrival is the minimum
/// cycle time its capture register tolerates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointTiming {
    /// The primary-output node.
    pub node: NodeId,
    /// Latest arrival per edge (`NEG_INFINITY` when no launch point
    /// reaches the endpoint with that edge).
    pub latest: Arrival,
    /// Earliest arrival per edge (`INFINITY` when unreachable).
    pub earliest: Arrival,
}

/// The distilled result of one operating point's analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// The launch instant arrivals were seeded with, ps.
    pub launch_time_ps: f64,
    /// Worst latest arrival over all endpoints and edges, ps — the STA
    /// upper bound no simulated transition can exceed
    /// (`NEG_INFINITY` when no endpoint is reachable).
    pub latest_arrival_ps: f64,
    /// Best earliest arrival over all reachable endpoints and edges, ps
    /// (`INFINITY` when no endpoint is reachable).
    pub earliest_arrival_ps: f64,
    /// The critical path, launch point → worst endpoint, with per-step
    /// arrivals and slacks.
    pub critical_path: Vec<PathStep>,
    /// Per-endpoint timing, in primary-output declaration order.
    pub endpoints: Vec<EndpointTiming>,
    /// Endpoints no launch point reaches (rule `AVC-T003`).
    pub unreachable_endpoints: Vec<NodeId>,
    /// Primary inputs with no timing arc leaving them (rule `AVC-T004`).
    pub unconstrained_inputs: Vec<NodeId>,
}

impl StaReport {
    /// The critical path as a plain node sequence (the shape
    /// `avfs_atpg::paths::Path` and sensitization consume).
    pub fn critical_nodes(&self) -> Vec<NodeId> {
        self.critical_path.iter().map(|s| s.node).collect()
    }
}

/// Full per-node analysis arrays — kept when callers need more than the
/// [`StaReport`] summary (per-node slack maps, custom endpoint sets).
#[derive(Debug, Clone, PartialEq)]
pub struct StaAnalysis {
    /// The launch instant arrivals were seeded with, ps.
    pub launch_time_ps: f64,
    /// Latest arrival per node (index = `NodeId::index`).
    pub latest: Vec<Arrival>,
    /// Earliest arrival per node.
    pub earliest: Vec<Arrival>,
    /// Required time per node against the worst endpoint arrival.
    pub required: Vec<Arrival>,
    /// Chosen predecessor `(node, edge)` per node per output edge
    /// (edge 0 = rise, 1 = fall); `None` at launch points and
    /// unreachable transitions.
    pred: Vec<[Option<(NodeId, usize)>; 2]>,
}

impl StaAnalysis {
    /// Slack (`required − latest arrival`) per edge at `node`. Positive
    /// slack means margin against the worst endpoint; ~0 on the critical
    /// path; non-finite where arrival or required is unreachable.
    pub fn slack_of(&self, node: NodeId) -> Arrival {
        let i = node.index();
        Arrival {
            rise: self.required[i].rise - self.latest[i].rise,
            fall: self.required[i].fall - self.latest[i].fall,
        }
    }
}

/// A per-pin-transition timing graph over one netlist: the netlist's
/// structure and levelization plus one concrete delay matrix (nominal,
/// SDF-annotated, or voltage-scaled — construction decides).
#[derive(Debug)]
pub struct TimingGraph<'a> {
    netlist: &'a Netlist,
    levels: &'a Levelization,
    /// Per node, per fanin pin: the rise/fall arc delays.
    delays: Vec<Vec<PinDelays>>,
}

impl<'a> TimingGraph<'a> {
    /// Builds a graph from an explicit delay matrix (`delays[node][pin]`,
    /// same shape as [`avfs_delay::TimingAnnotation`] — the voltage-scaled
    /// matrices `avfs-core` derives use this entry point).
    ///
    /// # Errors
    ///
    /// [`StaError::Shape`] when the matrix does not match the netlist.
    pub fn new(
        netlist: &'a Netlist,
        levels: &'a Levelization,
        delays: Vec<Vec<PinDelays>>,
    ) -> Result<TimingGraph<'a>, StaError> {
        if delays.len() != netlist.num_nodes() {
            return Err(StaError::Shape {
                node: None,
                expected: netlist.num_nodes(),
                got: delays.len(),
            });
        }
        for (id, node) in netlist.iter() {
            if delays[id.index()].len() != node.fanin().len() {
                return Err(StaError::Shape {
                    node: Some(id),
                    expected: node.fanin().len(),
                    got: delays[id.index()].len(),
                });
            }
        }
        Ok(TimingGraph {
            netlist,
            levels,
            delays,
        })
    }

    /// Builds a graph from a [`TimingAnnotation`](avfs_delay::TimingAnnotation) — the nominal-delay
    /// view, and the landing point for SDF-annotated designs
    /// (`avfs_sdf::sdf::parse_sdf` produces exactly this type).
    ///
    /// # Errors
    ///
    /// [`StaError::Shape`] when the annotation was built for a different
    /// netlist.
    pub fn from_annotation(
        netlist: &'a Netlist,
        levels: &'a Levelization,
        annotation: &avfs_delay::TimingAnnotation,
    ) -> Result<TimingGraph<'a>, StaError> {
        let delays = netlist
            .iter()
            .map(|(id, _)| annotation.node_delays(id).to_vec())
            .collect();
        TimingGraph::new(netlist, levels, delays)
    }

    /// Parses an SDF document and builds the annotated graph — the
    /// `crates/sdf` hook: designs whose delays arrive as
    /// `(DELAYFILE …)` text get the same analysis as in-memory
    /// annotations.
    ///
    /// # Errors
    ///
    /// [`StaError::Sdf`] for a malformed document, [`StaError::Shape`]
    /// if annotation produced an inconsistent matrix (unreachable for a
    /// successful parse).
    pub fn from_sdf(
        netlist: &'a Netlist,
        levels: &'a Levelization,
        sdf_text: &str,
    ) -> Result<TimingGraph<'a>, StaError> {
        let annotation = avfs_sdf::sdf::parse_sdf(netlist, sdf_text)
            .map_err(|e| StaError::Sdf(e.to_string()))?;
        TimingGraph::from_annotation(netlist, levels, &annotation)
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The arc delays of one node's fanin pins.
    pub fn node_delays(&self, node: NodeId) -> &[PinDelays] {
        &self.delays[node.index()]
    }

    /// The unateness governing `node`'s input→output edge mapping.
    /// Primary outputs are identity (positive) observation edges;
    /// primary inputs have no incoming arcs.
    fn node_unateness(&self, node: NodeId) -> Unateness {
        match self.netlist.node(node).kind() {
            NodeKind::Gate(cell) => unateness(self.netlist.library().cell(cell).kind().function()),
            _ => Unateness::Positive,
        }
    }

    /// Runs the full forward (earliest/latest arrival) and backward
    /// (required time) propagation, seeding every launch point (primary
    /// input) at `launch_time_ps` on both edges — the instant the
    /// simulator applies its capture stimulus.
    pub fn analyze(&self, launch_time_ps: f64) -> StaAnalysis {
        let n = self.netlist.num_nodes();
        let mut latest = vec![
            Arrival {
                rise: f64::NEG_INFINITY,
                fall: f64::NEG_INFINITY,
            };
            n
        ];
        let mut earliest = vec![
            Arrival {
                rise: f64::INFINITY,
                fall: f64::INFINITY,
            };
            n
        ];
        let mut pred: Vec<[Option<(NodeId, usize)>; 2]> = vec![[None, None]; n];
        for id in self.levels.topological_order() {
            let node = self.netlist.node(id);
            if matches!(node.kind(), NodeKind::Input) {
                latest[id.index()] = Arrival {
                    rise: launch_time_ps,
                    fall: launch_time_ps,
                };
                earliest[id.index()] = latest[id.index()];
                continue;
            }
            let unate = self.node_unateness(id);
            let pins = &self.delays[id.index()];
            for out_pol in [0usize, 1] {
                let mut worst = f64::NEG_INFINITY;
                let mut best = f64::INFINITY;
                let mut arg: Option<(NodeId, usize)> = None;
                for (pin, &fanin) in node.fanin().iter().enumerate() {
                    let d = if out_pol == 0 {
                        pins[pin].rise
                    } else {
                        pins[pin].fall
                    };
                    for in_pol in compatible_edges(unate, out_pol) {
                        let up_latest = latest[fanin.index()].get(in_pol);
                        if up_latest > f64::NEG_INFINITY {
                            let cand = up_latest + d;
                            if cand > worst || arg.is_none() {
                                worst = cand;
                                arg = Some((fanin, in_pol));
                            }
                        }
                        let up_earliest = earliest[fanin.index()].get(in_pol);
                        if up_earliest < f64::INFINITY {
                            best = best.min(up_earliest + d);
                        }
                    }
                }
                if arg.is_some() {
                    if out_pol == 0 {
                        latest[id.index()].rise = worst;
                        earliest[id.index()].rise = best;
                    } else {
                        latest[id.index()].fall = worst;
                        earliest[id.index()].fall = best;
                    }
                    pred[id.index()][out_pol] = arg;
                }
            }
        }

        // Backward required-time pass against the worst endpoint arrival:
        // reachable endpoints are required at T_req on both edges, and a
        // node's required time per input edge is the tightest consumer
        // requirement minus the consumed arc's delay.
        let t_req = self
            .netlist
            .outputs()
            .iter()
            .map(|po| latest[po.index()].max())
            .fold(f64::NEG_INFINITY, f64::max);
        let mut required = vec![
            Arrival {
                rise: f64::INFINITY,
                fall: f64::INFINITY,
            };
            n
        ];
        if t_req > f64::NEG_INFINITY {
            for &po in self.netlist.outputs() {
                let reach = latest[po.index()];
                required[po.index()] = Arrival {
                    rise: if reach.rise > f64::NEG_INFINITY {
                        t_req
                    } else {
                        f64::INFINITY
                    },
                    fall: if reach.fall > f64::NEG_INFINITY {
                        t_req
                    } else {
                        f64::INFINITY
                    },
                };
            }
            let topo: Vec<NodeId> = self.levels.topological_order().collect();
            for &id in topo.iter().rev() {
                let node = self.netlist.node(id);
                if matches!(node.kind(), NodeKind::Output) {
                    continue;
                }
                for &consumer in node.fanout() {
                    let c_node = self.netlist.node(consumer);
                    let c_unate = self.node_unateness(consumer);
                    let c_pins = &self.delays[consumer.index()];
                    for (pin, &driver) in c_node.fanin().iter().enumerate() {
                        if driver != id {
                            continue;
                        }
                        for out_pol in [0usize, 1] {
                            // A PO's required time on an unreachable edge
                            // is INFINITY and drops out of the `min`.
                            let r = required[consumer.index()].get(out_pol);
                            if r == f64::INFINITY {
                                continue;
                            }
                            let d = if out_pol == 0 {
                                c_pins[pin].rise
                            } else {
                                c_pins[pin].fall
                            };
                            for in_pol in compatible_edges(c_unate, out_pol) {
                                let slot = &mut required[id.index()];
                                if in_pol == 0 {
                                    slot.rise = slot.rise.min(r - d);
                                } else {
                                    slot.fall = slot.fall.min(r - d);
                                }
                            }
                        }
                    }
                }
            }
        }

        StaAnalysis {
            launch_time_ps,
            latest,
            earliest,
            required,
            pred,
        }
    }

    /// Runs [`TimingGraph::analyze`] and distills the [`StaReport`]:
    /// worst/best endpoint arrivals, the critical path with per-step
    /// slack, and the structural warnings (unreachable endpoints,
    /// unconstrained inputs).
    pub fn report(&self, launch_time_ps: f64) -> StaReport {
        let analysis = self.analyze(launch_time_ps);
        let endpoints: Vec<EndpointTiming> = self
            .netlist
            .outputs()
            .iter()
            .map(|&po| EndpointTiming {
                node: po,
                latest: analysis.latest[po.index()],
                earliest: analysis.earliest[po.index()],
            })
            .collect();
        let latest_arrival_ps = endpoints
            .iter()
            .map(|e| e.latest.max())
            .fold(f64::NEG_INFINITY, f64::max);
        let earliest_arrival_ps = endpoints
            .iter()
            .map(|e| e.earliest.min())
            .fold(f64::INFINITY, f64::min);
        let unreachable_endpoints = endpoints
            .iter()
            .filter(|e| e.latest.max() == f64::NEG_INFINITY)
            .map(|e| e.node)
            .collect();
        let unconstrained_inputs = self
            .netlist
            .inputs()
            .iter()
            .copied()
            .filter(|&pi| self.netlist.node(pi).fanout().is_empty())
            .collect();

        // Critical path: walk the chosen-predecessor chain back from the
        // worst endpoint edge.
        let mut critical_path = Vec::new();
        let worst = endpoints
            .iter()
            .filter(|e| e.latest.max() > f64::NEG_INFINITY)
            .max_by(|a, b| a.latest.max().total_cmp(&b.latest.max()));
        if let Some(end) = worst {
            let mut cur = end.node;
            let mut pol = if end.latest.rise >= end.latest.fall {
                0
            } else {
                1
            };
            loop {
                critical_path.push(PathStep {
                    node: cur,
                    rising: pol == 0,
                    arrival_ps: analysis.latest[cur.index()].get(pol),
                    slack_ps: analysis.required[cur.index()].get(pol)
                        - analysis.latest[cur.index()].get(pol),
                });
                match analysis.pred[cur.index()][pol] {
                    Some((p, p_pol)) => {
                        cur = p;
                        pol = p_pol;
                    }
                    None => break,
                }
            }
            critical_path.reverse();
        }

        StaReport {
            launch_time_ps,
            latest_arrival_ps,
            earliest_arrival_ps,
            critical_path,
            endpoints,
            unreachable_endpoints,
            unconstrained_inputs,
        }
    }

    /// Folds the arrival of one concrete transition chain along `path`
    /// (consecutive driver→consumer nodes, launch point first) given the
    /// source edge, deriving each downstream edge from cell unateness.
    /// Returns `(arrival_ps, final_edge_rising)`; `None` when the path is
    /// not a fanin chain or crosses a binate cell (whose edge a static
    /// fold cannot decide — use
    /// [`TimingGraph::path_arrival_with_edges`] with
    /// simulation-derived edges instead).
    pub fn path_arrival(
        &self,
        path: &[NodeId],
        source_rising: bool,
        launch_time_ps: f64,
    ) -> Option<(f64, bool)> {
        let mut rising = source_rising;
        let mut edges = Vec::with_capacity(path.len());
        edges.push(rising);
        for &b in path.iter().skip(1) {
            rising = match self.node_unateness(b) {
                Unateness::Positive => rising,
                Unateness::Negative => !rising,
                Unateness::Binate => return None,
            };
            edges.push(rising);
        }
        self.path_arrival_with_edges(path, &edges, launch_time_ps)
            .map(|t| (t, rising))
    }

    /// Folds the arrival of one concrete transition chain along `path`
    /// with an explicit per-node edge sequence (`true` = rising at that
    /// node's output) — the caller decides edges, e.g. by evaluating the
    /// launch and capture patterns, so binate cells pose no problem.
    /// Duplicate-fanin edges take the slower matching pin. Returns `None`
    /// when shapes disagree or `path` is not a fanin chain.
    pub fn path_arrival_with_edges(
        &self,
        path: &[NodeId],
        rising: &[bool],
        launch_time_ps: f64,
    ) -> Option<f64> {
        if path.is_empty() || path.len() != rising.len() {
            return None;
        }
        let mut t = launch_time_ps;
        for (i, &b) in path.iter().enumerate().skip(1) {
            let a = path[i - 1];
            let pins = &self.delays[b.index()];
            let mut d: Option<f64> = None;
            for (pin, &driver) in self.netlist.node(b).fanin().iter().enumerate() {
                if driver == a {
                    let arc = if rising[i] {
                        pins[pin].rise
                    } else {
                        pins[pin].fall
                    };
                    d = Some(d.map_or(arc, |prev: f64| prev.max(arc)));
                }
            }
            t += d?;
        }
        Some(t)
    }
}

/// The input edges able to cause output edge `out_pol` (0 = rise,
/// 1 = fall) through a cell of the given unateness.
fn compatible_edges(unate: Unateness, out_pol: usize) -> std::ops::Range<usize> {
    match unate {
        Unateness::Positive => out_pol..out_pol + 1,
        Unateness::Negative => (1 - out_pol)..(2 - out_pol),
        Unateness::Binate => 0..2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_netlist::{CellLibrary, NetlistBuilder};

    /// a → INV(g1) → AND(g2, with direct a) → y, with asymmetric
    /// rise/fall delays — checks edge flipping through the inverter.
    fn inv_and_graph() -> (Netlist, Levelization, Vec<Vec<PinDelays>>) {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.add_input("a").unwrap();
        let g1 = b.add_gate("g1", "INV_X1", &[a]).unwrap();
        let g2 = b.add_gate("g2", "AND2_X1", &[g1, a]).unwrap();
        b.add_output("y", g2).unwrap();
        let n = b.finish().unwrap();
        let levels = Levelization::of(&n).unwrap();
        let mut delays = vec![Vec::new(); n.num_nodes()];
        let g1_id = n.find("g1").unwrap();
        let g2_id = n.find("g2").unwrap();
        let y_id = n.find("y").unwrap();
        delays[g1_id.index()] = vec![PinDelays {
            rise: 10.0,
            fall: 20.0,
        }];
        delays[g2_id.index()] = vec![
            PinDelays {
                rise: 3.0,
                fall: 5.0,
            },
            PinDelays {
                rise: 4.0,
                fall: 6.0,
            },
        ];
        delays[y_id.index()] = vec![PinDelays::default()];
        (n, levels, delays)
    }

    #[test]
    fn inverter_flips_edges_in_propagation() {
        let (n, levels, delays) = inv_and_graph();
        let g = TimingGraph::new(&n, &levels, delays).unwrap();
        let a = g.analyze(0.0);
        let g1 = n.find("g1").unwrap();
        let g2 = n.find("g2").unwrap();
        // INV output rise comes from input fall: 0 + rise-arc 10.
        assert_eq!(a.latest[g1.index()].rise, 10.0);
        assert_eq!(a.latest[g1.index()].fall, 20.0);
        // AND is positive unate: rise at g2 from rise at g1 (10 + 3) or
        // rise at a (0 + 4) — worst is 13.
        assert_eq!(a.latest[g2.index()].rise, 13.0);
        // Fall: from g1 fall (20 + 5) or a fall (0 + 6) — worst is 25.
        assert_eq!(a.latest[g2.index()].fall, 25.0);
        // Earliest takes the short branch through pin 1.
        assert_eq!(a.earliest[g2.index()].rise, 4.0);
        assert_eq!(a.earliest[g2.index()].fall, 6.0);
    }

    #[test]
    fn report_extracts_critical_path_with_zero_slack() {
        let (n, levels, delays) = inv_and_graph();
        let g = TimingGraph::new(&n, &levels, delays).unwrap();
        let r = g.report(0.0);
        assert_eq!(r.latest_arrival_ps, 25.0);
        assert_eq!(r.earliest_arrival_ps, 4.0);
        let names: Vec<&str> = r
            .critical_path
            .iter()
            .map(|s| n.node(s.node).name())
            .collect();
        assert_eq!(names, ["a", "g1", "g2", "y"]);
        let edges: Vec<bool> = r.critical_path.iter().map(|s| s.rising).collect();
        // Falling at the endpoint ← falling at g2 ← falling at g1 ←
        // rising at a (the inverter flips once).
        assert_eq!(edges, [true, false, false, false]);
        for step in &r.critical_path {
            assert!(
                step.slack_ps.abs() < 1e-12,
                "critical path has ~0 slack, got {}",
                step.slack_ps
            );
        }
        // Off-path edges have positive slack: g1's rising output feeds
        // g2's rise arc (3 ps), so required = 25 − 3 = 22 against an
        // arrival of 10 — slack 12. Its falling output is on the
        // critical path — slack 0.
        let a = g.analyze(0.0);
        let g1 = n.find("g1").unwrap();
        assert_eq!(a.slack_of(g1).fall, 0.0);
        assert_eq!(a.slack_of(g1).rise, 12.0);
    }

    #[test]
    fn launch_time_shifts_every_arrival() {
        let (n, levels, delays) = inv_and_graph();
        let g = TimingGraph::new(&n, &levels, delays).unwrap();
        let r0 = g.report(0.0);
        let r7 = g.report(7.5);
        assert_eq!(r7.latest_arrival_ps, r0.latest_arrival_ps + 7.5);
        assert_eq!(r7.earliest_arrival_ps, r0.earliest_arrival_ps + 7.5);
    }

    #[test]
    fn binate_cells_admit_both_edges() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("x", &lib);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("c").unwrap();
        let inv = b.add_gate("inv", "INV_X1", &[a]).unwrap();
        let x = b.add_gate("x", "XOR2_X1", &[inv, c]).unwrap();
        b.add_output("y", x).unwrap();
        let n = b.finish().unwrap();
        let levels = Levelization::of(&n).unwrap();
        let mut delays = vec![Vec::new(); n.num_nodes()];
        delays[n.find("inv").unwrap().index()] = vec![PinDelays {
            rise: 2.0,
            fall: 30.0,
        }];
        delays[n.find("x").unwrap().index()] = vec![
            PinDelays {
                rise: 1.0,
                fall: 1.5,
            },
            PinDelays {
                rise: 0.5,
                fall: 0.5,
            },
        ];
        delays[n.find("y").unwrap().index()] = vec![PinDelays::default()];
        let g = TimingGraph::new(&n, &levels, delays).unwrap();
        let r = g.analyze(0.0);
        let xid = n.find("x").unwrap();
        // XOR rise may be caused by the inverter's *fall* (30 + 1) even
        // though a positive-unate cell would only admit its rise (2 + 1).
        assert_eq!(r.latest[xid.index()].rise, 31.0);
        assert_eq!(r.latest[xid.index()].fall, 31.5);
    }

    #[test]
    fn structural_warnings_surface() {
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("w", &lib);
        let a = b.add_input("a").unwrap();
        let _floating = b.add_input("floating").unwrap();
        let g1 = b.add_gate("g1", "BUF_X1", &[a]).unwrap();
        b.add_output("y", g1).unwrap();
        let n = b.finish().unwrap();
        let levels = Levelization::of(&n).unwrap();
        let g = TimingGraph::from_annotation(&n, &levels, &avfs_delay::TimingAnnotation::zero(&n))
            .unwrap();
        let r = g.report(0.0);
        assert!(r.unreachable_endpoints.is_empty());
        assert_eq!(r.unconstrained_inputs.len(), 1);
        assert_eq!(n.node(r.unconstrained_inputs[0]).name(), "floating");
    }

    #[test]
    fn path_arrival_folds_match_analysis() {
        let (n, levels, delays) = inv_and_graph();
        let g = TimingGraph::new(&n, &levels, delays).unwrap();
        let r = g.report(0.0);
        let nodes = r.critical_nodes();
        let (t, rising) = g
            .path_arrival(&nodes, r.critical_path[0].rising, 0.0)
            .expect("pure unate path");
        assert_eq!(t, r.latest_arrival_ps);
        assert!(!rising);
        // Explicit-edge variant agrees.
        let edges: Vec<bool> = r.critical_path.iter().map(|s| s.rising).collect();
        assert_eq!(
            g.path_arrival_with_edges(&nodes, &edges, 0.0),
            Some(r.latest_arrival_ps)
        );
        // Binate cells refuse the static fold.
        let lib = CellLibrary::nangate15_like();
        let mut b = NetlistBuilder::new("x", &lib);
        let a = b.add_input("a").unwrap();
        let c = b.add_input("c").unwrap();
        let x = b.add_gate("x", "XOR2_X1", &[a, c]).unwrap();
        b.add_output("y", x).unwrap();
        let nx = b.finish().unwrap();
        let lx = Levelization::of(&nx).unwrap();
        let gx = TimingGraph::from_annotation(&nx, &lx, &avfs_delay::TimingAnnotation::zero(&nx))
            .unwrap();
        let path = [nx.find("a").unwrap(), nx.find("x").unwrap()];
        assert_eq!(gx.path_arrival(&path, true, 0.0), None);
        assert_eq!(
            gx.path_arrival_with_edges(&path, &[true, false], 0.0),
            Some(0.0)
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (n, levels, mut delays) = inv_and_graph();
        delays.pop();
        assert!(matches!(
            TimingGraph::new(&n, &levels, delays),
            Err(StaError::Shape { node: None, .. })
        ));
        let (n2, levels2, mut delays2) = inv_and_graph();
        delays2[n2.find("g2").unwrap().index()].pop();
        assert!(matches!(
            TimingGraph::new(&n2, &levels2, delays2),
            Err(StaError::Shape { node: Some(_), .. })
        ));
    }
}
