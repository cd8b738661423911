//! sta_crosscheck — cross-validates the time simulator against the
//! independent `avfs-sta` static-timing oracle (DESIGN.md §9).
//!
//! Per circuit, the gate simulates an LFSR pattern set across the
//! paper's sweep voltages and runs [`avfs_core::sta::crosscheck`] on
//! the finished run: the STA latest arrival must dominate every
//! simulated latest transition (`AVC-T001` on violation — a bound
//! breach proves a bug in one of the two engines). On the agreement
//! circuits it additionally sensitizes the longest structural paths
//! with timing-aware ATPG and compares the simulated arrival of each
//! fully sensitized pair against the STA fold along that exact path
//! with simulation-derived edges — divergence beyond ε on the critical
//! sensitized path is `AVC-T002`.
//!
//! ```text
//! cargo run -p avfs-bench --bin sta_crosscheck -- --smoke   # CI: tier-1 circuits, no file write
//! cargo run -p avfs-bench --bin sta_crosscheck [-- --scale 0.01 --order 3 --patterns 12 --out CHECK_report.json]
//! cargo run -p avfs-bench --bin sta_crosscheck -- --check CHECK_report.json   # CI: full run, no file write
//! ```
//!
//! A full run merges its `sta-crosscheck` subjects and the quantitative
//! `sta` section into the existing `CHECK_report.json` (preserving the
//! checker's own subjects). The process exits non-zero when any
//! deny-severity cross-check finding exists, so the binary doubles as
//! the CI gate alongside `checker`. `--check <file>` runs the full roster
//! without writing and also exits non-zero when the fresh `sta` section
//! differs from the one in `<file>`, so a committed report cannot go
//! stale.

use avfs_atpg::timing_aware::collect_pairs;
use avfs_atpg::{generate_timing_aware, k_longest_paths, zero_delay_values, PatternSet};
use avfs_bench::{characterize_used, Args};
use avfs_check::{Finding, Report, Severity, StaSection, Subject};
use avfs_circuits::PAPER_PROFILES;
use avfs_core::sta::{crosscheck, scaled_graph, CrossCheckOptions};
use avfs_core::{slots, CompiledNetlist, SimOptions};
use avfs_netlist::{CellLibrary, Netlist};
use avfs_sta::crosscheck::agreement_finding;
use std::process::ExitCode;
use std::sync::Arc;

/// Table II's supply sweep — the voltages every circuit is compared at.
const SWEEP_VOLTAGES: [f64; 6] = [0.55, 0.6, 0.7, 0.8, 0.9, 1.1];

/// Longest paths targeted by the critical-path agreement check — the
/// paper's "200 longest paths" ATPG budget. The false-path-heavy
/// profile designs need the full depth before a sensitizable path
/// appears in the list.
const AGREEMENT_PATHS: usize = 200;

fn main() -> ExitCode {
    let args = Args::capture();
    if args.flag("--help") {
        println!("sta_crosscheck: STA ↔ simulator cross-validation gate (AVC-T rule family)");
        println!("  --scale <f>      paper-circuit scale factor (default 0.01; full run only)");
        println!("  --order <N>      characterization polynomial order (default 3)");
        println!("  --patterns <N>   LFSR pattern pairs per circuit (default 12)");
        println!("  --out <path>     report to merge into (default CHECK_report.json)");
        println!("  --smoke          tier-1 circuits only, validate, no file write");
        println!("  --check <path>   full run, no file write; fail unless its sta section equals <path>'s");
        return ExitCode::SUCCESS;
    }
    let smoke = args.flag("--smoke");
    let check: Option<String> = args.value("--check");
    if args.flag("--check") && check.is_none() {
        eprintln!("sta_crosscheck: --check needs the report to compare against");
        return ExitCode::FAILURE;
    }
    if smoke && check.is_some() {
        eprintln!("sta_crosscheck: --check compares a full run; it does not combine with --smoke");
        return ExitCode::FAILURE;
    }
    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let order: usize = args.value("--order").unwrap_or(3);
    let n_patterns: usize = args.value("--patterns").unwrap_or(12);
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| "CHECK_report.json".into());
    let library = CellLibrary::nangate15_like();

    // The same circuit roster as `checker`: tier-1 always, the paper's
    // designs at --scale on a full run.
    let mut netlists: Vec<(String, Arc<Netlist>)> = vec![
        (
            "c17".into(),
            Arc::new(avfs_circuits::c17(&library).expect("c17 builds")),
        ),
        (
            "rca8".into(),
            Arc::new(avfs_circuits::ripple_carry_adder(8, &library).expect("rca8 builds")),
        ),
        (
            "rnd-small".into(),
            Arc::new(
                avfs_circuits::random_netlist(
                    "rnd-small",
                    &avfs_circuits::GeneratorConfig::small(),
                    &library,
                    0xC0FFEE,
                )
                .expect("random netlist builds"),
            ),
        ),
    ];
    if !smoke {
        for profile in PAPER_PROFILES {
            netlists.push((
                profile.name.into(),
                Arc::new(
                    profile
                        .synthesize(scale, &library)
                        .expect("synthesis succeeds"),
                ),
            ));
        }
    }
    // Agreement circuits: the carry chain is trivially sensitizable;
    // p951k is the acceptance target of the full run.
    let agreement: &[&str] = if smoke { &["rca8"] } else { &["rca8", "p951k"] };

    let refs: Vec<&Netlist> = netlists.iter().map(|(_, n)| n.as_ref()).collect();
    let chars = characterize_used(&refs, &library, order);
    let options = CrossCheckOptions::default();

    let mut subjects: Vec<Subject> = Vec::new();
    let mut rows = Vec::new();
    for (name, netlist) in &netlists {
        let annotation = Arc::new(
            chars
                .annotate(netlist.as_ref())
                .expect("annotation covers netlist"),
        );
        let compiled = CompiledNetlist::compile(
            Arc::clone(netlist),
            annotation,
            Arc::new(chars.model().clone()),
        )
        .expect("netlist compiles");
        let patterns = PatternSet::lfsr(netlist.inputs().len(), n_patterns, 0xA11CE);
        let slot_list = slots::cross(patterns.len(), &SWEEP_VOLTAGES);
        let run = compiled
            .launch(&patterns, &slot_list, &SimOptions::default())
            .expect("uniform launch succeeds");
        let check =
            crosscheck(&compiled, &run, name, &options).expect("sweep voltages are modelable");
        let mut findings = check.findings.clone();
        if agreement.contains(&name.as_str()) {
            findings.extend(critical_path_agreement(&compiled, name, &options));
        }
        for row in &check.rows {
            eprintln!(
                "sta_crosscheck: {:<10} @ {:>4} V  sta {:>9.3} ps  sim {:>9.3} ps  margin {:>9.3} ps",
                row.circuit,
                row.voltage,
                row.sta_latest_ps,
                row.sim_latest_ps.unwrap_or(f64::NAN),
                row.margin_ps.unwrap_or(f64::NAN),
            );
        }
        rows.extend(check.rows);
        subjects.push(Subject::new(name.clone(), "sta-crosscheck", findings));
    }
    let section = StaSection {
        epsilon_ps: options.epsilon_ps,
        rows,
    };

    // A `--check` run compares its section before it is moved into the
    // report.
    let stale = check
        .as_deref()
        .is_some_and(|path| !committed_section_matches(path, &section));

    // Assemble the report: fresh in smoke and check mode; merged into
    // the checker's document on a full run (its own subjects preserved,
    // any previous cross-check subjects and section replaced).
    let mut report = Report::new();
    if !smoke && check.is_none() {
        if let Ok(prev) = std::fs::read_to_string(&out) {
            if let Ok(prev) = Report::validate(&prev) {
                report.tool_version = prev.tool_version;
                report.schedules_explored = prev.schedules_explored;
                report.subjects.extend(
                    prev.subjects
                        .into_iter()
                        .filter(|s| s.kind != "sta-crosscheck"),
                );
            }
        }
    }
    report.subjects.extend(subjects);
    report.sta = Some(section);

    // The document must survive its own schema validation, always.
    let text = report.to_json().to_string_pretty();
    let back = Report::validate(&text).expect("emitted report validates against avfs-check/1");
    assert_eq!(back, report, "round trip is identity");

    let deny: usize = report
        .subjects
        .iter()
        .filter(|s| s.kind == "sta-crosscheck")
        .flat_map(|s| &s.findings)
        .filter(|f| f.severity >= Severity::Deny)
        .count();
    println!(
        "sta_crosscheck: {} circuits × {} voltages — {deny} deny finding(s), ε = {} ps",
        netlists.len(),
        SWEEP_VOLTAGES.len(),
        options.epsilon_ps
    );
    for subject in report
        .subjects
        .iter()
        .filter(|s| s.kind == "sta-crosscheck")
    {
        for finding in &subject.findings {
            println!("  {}: {finding}", subject.name);
        }
    }
    if smoke {
        println!(
            "sta_crosscheck --smoke: schema avfs-check/1 OK ({} bytes)",
            text.len()
        );
    } else if check.is_none() {
        std::fs::write(&out, &text).expect("report written");
        println!("sta_crosscheck: merged sta section into {out}");
    }
    if deny > 0 {
        eprintln!("sta_crosscheck: deny-severity findings present");
    }
    if deny == 0 && !stale {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--check` comparison: whether the `sta` section of the report at
/// `path` equals `fresh` exactly, every row bit for bit. Prints each
/// difference.
fn committed_section_matches(path: &str, fresh: &StaSection) -> bool {
    let committed = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Report::validate(&text))
    {
        Ok(report) => report.sta,
        Err(e) => {
            eprintln!("sta_crosscheck --check: cannot read {path}: {e}");
            return false;
        }
    };
    let Some(committed) = committed else {
        eprintln!("sta_crosscheck --check: {path} has no sta section");
        return false;
    };
    if committed == *fresh {
        println!(
            "sta_crosscheck --check: {path}'s sta section equals a fresh run ({} rows)",
            fresh.rows.len()
        );
        return true;
    }
    eprintln!("sta_crosscheck --check: {path}'s sta section differs from a fresh run:");
    if committed.epsilon_ps != fresh.epsilon_ps {
        eprintln!(
            "  epsilon_ps: committed {}, fresh {}",
            committed.epsilon_ps, fresh.epsilon_ps
        );
    }
    if committed.rows.len() != fresh.rows.len() {
        eprintln!(
            "  rows: committed {}, fresh {}",
            committed.rows.len(),
            fresh.rows.len()
        );
    }
    for (old, new) in committed.rows.iter().zip(&fresh.rows) {
        if old != new {
            eprintln!("  committed {old:?}\n  fresh     {new:?}");
        }
    }
    false
}

/// The `AVC-T002` agreement check: sensitize the longest structural
/// paths with timing-aware ATPG, simulate each fully sensitized pair at
/// nominal supply, and compare the simulated latest arrival against the
/// STA fold along the targeted path (edges derived from the zero-delay
/// capture values, so binate cells pose no problem).
///
/// A single-input-toggle pair can legitimately excite a reconvergent
/// chain *longer* than the targeted path off the same source (observed
/// on the rca8 carry chain: the simulated latest then realizes the
/// global STA bound instead of the targeted fold), so per-pair equality
/// cannot be demanded. What the shared-delay-matrix argument does
/// guarantee — and what this gate asserts — is that at least one
/// sensitized long path agrees with its STA fold *exactly* (within ε,
/// which is ~f64 noise): both engines run the identical
/// `t + delay(pin, edge)` fold over one matrix, so a propagation that
/// follows the targeted path bit-for-bit reproduces it. Zero agreeing
/// pairs means the two engines price arcs differently — `AVC-T002` on
/// the closest pair, with the divergence in the message.
fn critical_path_agreement(
    compiled: &CompiledNetlist,
    circuit: &str,
    options: &CrossCheckOptions,
) -> Vec<Finding> {
    let netlist = compiled.netlist().as_ref();
    let levels = compiled.levels().as_ref();
    let voltage = 0.8;
    let graph = scaled_graph(compiled, voltage).expect("nominal supply is modelable");
    let paths = k_longest_paths(
        netlist,
        levels,
        Some(compiled.annotation().as_ref()),
        AGREEMENT_PATHS,
    );
    let outcomes = generate_timing_aware(netlist, levels, &paths, 32, 0x5EED);
    let set = collect_pairs(&outcomes);
    let run = compiled
        .launch(
            &set,
            &slots::at_voltage(set.len(), voltage),
            &SimOptions {
                keep_waveforms: true,
                ..SimOptions::default()
            },
        )
        .expect("agreement launch succeeds");

    // Backward witness first: always available once any output toggles,
    // including on circuits whose long paths are all false paths.
    let mut findings =
        realized_chain_agreement(netlist, &graph, &run, circuit, voltage, options.epsilon_ps);

    // (sta fold, simulated latest, path index) per fully sensitized pair.
    let mut compared: Vec<(f64, f64, usize)> = Vec::new();
    for (i, (path, outcome)) in paths.iter().zip(&outcomes).enumerate() {
        if !outcome.sensitized {
            continue;
        }
        let v2 = zero_delay_values(netlist, levels, &outcome.pair.capture);
        // Sensitized ⇒ every path node toggles, so its capture value is
        // its final edge direction.
        let edges: Vec<bool> = path.nodes.iter().map(|&id| v2[id.index()]).collect();
        let Some(expected) = graph.path_arrival_with_edges(&path.nodes, &edges, 0.0) else {
            continue;
        };
        let Some(sim) = run.slots[i].latest_output_transition_ps else {
            continue;
        };
        eprintln!(
            "sta_crosscheck: {circuit} path {i} ({} nodes)  fold {expected:.6} ps  sim {sim:.6} ps",
            path.nodes.len()
        );
        compared.push((expected, sim, i));
    }
    if compared.is_empty() {
        eprintln!("sta_crosscheck: {circuit}: no sensitizable long path (all false paths)");
        return findings;
    }
    // The pair whose simulated arrival lands closest to its own fold;
    // exact agreement on any pair passes the forward gate.
    let &(expected, sim, i) = compared
        .iter()
        .min_by(|a, b| (a.1 - a.0).abs().total_cmp(&(b.1 - b.0).abs()))
        .expect("compared is non-empty");
    if (sim - expected).abs() <= options.epsilon_ps {
        eprintln!(
            "sta_crosscheck: {circuit}: path {i} agrees exactly \
             ({sim:.6} ps, {} of {} sensitized pairs compared)",
            compared.len(),
            paths.len()
        );
    } else {
        findings.extend(agreement_finding(
            &format!("{circuit} @ {voltage} V critical path {i}"),
            sim,
            expected,
            options.epsilon_ps,
        ));
    }
    findings
}

/// The backward agreement witness: take the slot whose simulated latest
/// arrival is the worst of the run, and from its critical endpoint walk
/// the realized event chain backwards — at every gate, the last output
/// transition must equal some fanin transition plus the STA arc delay
/// for the realized output edge, *bitwise*, because simulator and oracle
/// price arcs from one shared delay matrix. The STA fold along the
/// reconstructed chain then reproduces the simulated arrival exactly
/// (within ε); an arc the two engines price differently either breaks
/// the walk (no fanin matches) or the final fold — both are `AVC-T002`.
fn realized_chain_agreement(
    netlist: &Netlist,
    graph: &avfs_sta::TimingGraph<'_>,
    run: &avfs_core::SimRun,
    circuit: &str,
    voltage: f64,
    epsilon_ps: f64,
) -> Vec<Finding> {
    let Some((slot, t_end)) = run
        .slots
        .iter()
        .filter_map(|s| Some((s, s.latest_output_transition_ps?)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        eprintln!("sta_crosscheck: {circuit}: no output toggled; no realized chain to check");
        return Vec::new();
    };
    let waves = slot
        .waveforms
        .as_ref()
        .expect("agreement run keeps waveforms");
    let po = netlist
        .outputs()
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let last = |id: avfs_netlist::NodeId| {
                waves[id.index()]
                    .last_transition()
                    .unwrap_or(f64::NEG_INFINITY)
            };
            last(a).total_cmp(&last(b))
        })
        .expect("netlists have at least one output");

    let mut chain = Vec::new();
    let mut edges = Vec::new();
    let mut cur = po;
    let mut t = t_end;
    let mut edge = waves[po.index()].value_at(t);
    loop {
        chain.push(cur);
        edges.push(edge);
        let node = netlist.node(cur);
        if node.fanin().is_empty() {
            break;
        }
        let pins = graph.node_delays(cur);
        let mut matched = None;
        'pins: for (pin, &f) in node.fanin().iter().enumerate() {
            let d = pins[pin].for_output(edge);
            for (tf, vf) in waves[f.index()].iter() {
                if tf + d == t {
                    matched = Some((f, tf, vf));
                    break 'pins;
                }
            }
        }
        match matched {
            Some((f, tf, vf)) => {
                cur = f;
                t = tf;
                edge = vf;
            }
            None => {
                return vec![Finding::new(
                    "AVC-T002",
                    format!("{circuit} @ {voltage} V gate `{}`", node.name()),
                    format!(
                        "no fanin transition prices to this gate's transition at {t} ps \
                         under the STA arc delays — the engines disagree on the arc"
                    ),
                )];
            }
        }
    }
    chain.reverse();
    edges.reverse();
    // `t` is now the source transition instant (the run's launch time).
    let expected = graph
        .path_arrival_with_edges(&chain, &edges, t)
        .expect("the reconstructed chain is a fanin chain by construction");
    eprintln!(
        "sta_crosscheck: {circuit}: realized critical chain `{}` → `{}` ({} nodes), \
         sim {t_end:.6} ps, sta fold {expected:.6} ps",
        netlist.node(chain[0]).name(),
        netlist.node(po).name(),
        chain.len()
    );
    agreement_finding(
        &format!(
            "{circuit} @ {voltage} V realized critical path ({} nodes)",
            chain.len()
        ),
        t_end,
        expected,
        epsilon_ps,
    )
    .into_iter()
    .collect()
}
