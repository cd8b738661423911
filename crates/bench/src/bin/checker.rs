//! checker — the static-analysis gate emitting `avfs-check/1` JSON.
//!
//! Runs all three `avfs-check` analysis tiers, fully offline:
//!
//! 1. **netlist** — connectivity lints over the bundled benchmark
//!    circuits (dangling nets, unobservable gates, unused inputs,
//!    duplicate fan-in);
//! 2. **delay model** — a grid audit of the characterized polynomial
//!    kernel surfaces (finite coefficients, positive `1 + f(P)` scaling,
//!    voltage monotonicity) plus the paper's operating corners;
//! 3. **concurrency** — exhaustive interleaving exploration of the
//!    waveform-arena claim-bit and worker-pool epoch protocols.
//!
//! The `SAFETY:` comments on `unsafe` sites are clippy's to audit
//! (`clippy::undocumented_unsafe_blocks`, denied by `ci.sh`).
//!
//! ```text
//! cargo run -p avfs-bench --bin checker [-- --scale 0.01 --order 3 --out CHECK_report.json]
//! cargo run -p avfs-bench --bin checker -- --smoke   # CI: validate, require zero deny findings, write nothing
//! cargo run -p avfs-bench --bin checker -- --check CHECK_report.json   # CI: full run, no file write
//! ```
//!
//! The process exits non-zero when any deny-severity finding exists, so
//! the binary doubles as the CI gate (`ci.sh`). `--check <path>` also
//! exits non-zero unless the fresh subjects equal the report's subjects
//! other than the `sta-crosscheck` ones (which `sta_crosscheck --check`
//! gates), finding for finding.

use avfs_bench::{characterize_used, Args};
use avfs_check::{Finding, Findings, Report, Severity, Subject};
use avfs_circuits::PAPER_PROFILES;
use avfs_delay::OperatingPoint;
use avfs_netlist::{CellLibrary, Netlist};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::capture();
    if args.flag("--help") {
        println!("checker: three-tier static analysis, avfs-check/1 JSON report");
        println!("  --scale <f>   paper-circuit scale factor (default 0.01; full run only)");
        println!("  --order <N>   characterization polynomial order (default 3)");
        println!("  --out <path>  output path (default CHECK_report.json)");
        println!("  --smoke       small circuits only, validate, require zero deny, no file");
        println!(
            "  --check <path>  full run, no file write; fail unless its subjects equal <path>'s"
        );
        println!("  --list-rules  print the full rule registry with severities and exit");
        return ExitCode::SUCCESS;
    }
    if args.flag("--list-rules") {
        println!("{} rules registered:", avfs_check::RULES.len());
        for rule in avfs_check::RULES {
            println!(
                "  {}  {:<5} tier {}  {:<32} {}",
                rule.id,
                rule.severity.name(),
                rule.tier,
                rule.name,
                rule.summary
            );
        }
        return ExitCode::SUCCESS;
    }
    let smoke = args.flag("--smoke");
    let check: Option<String> = args.value("--check");
    if args.flag("--check") && check.is_none() {
        eprintln!("checker: --check needs the report to compare against");
        return ExitCode::FAILURE;
    }
    if smoke && check.is_some() {
        eprintln!("checker: --check compares a full run; it does not combine with --smoke");
        return ExitCode::FAILURE;
    }
    let scale: f64 = args.value("--scale").unwrap_or(0.01);
    let order: usize = args.value("--order").unwrap_or(3);
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| "CHECK_report.json".into());
    let library = CellLibrary::nangate15_like();
    let mut report = Report::new();

    // Tier 1 — netlist lints. The smoke gate sticks to the small bundled
    // circuits; a full run also synthesizes the paper designs at --scale.
    let mut netlists: Vec<(String, Netlist)> = vec![
        (
            "c17".into(),
            avfs_circuits::c17(&library).expect("c17 builds"),
        ),
        (
            "rca8".into(),
            avfs_circuits::ripple_carry_adder(8, &library).expect("rca8 builds"),
        ),
        (
            "rnd-small".into(),
            avfs_circuits::random_netlist(
                "rnd-small",
                &avfs_circuits::GeneratorConfig::small(),
                &library,
                0xC0FFEE,
            )
            .expect("random netlist builds"),
        ),
    ];
    if !smoke {
        for profile in PAPER_PROFILES {
            netlists.push((
                profile.name.into(),
                profile
                    .synthesize(scale, &library)
                    .expect("synthesis succeeds"),
            ));
        }
    }
    for (name, netlist) in &netlists {
        let mut findings = Findings::default();
        avfs_check::netlist::lint_netlist(netlist, &mut findings);
        report.push(Subject::new(name.clone(), "netlist", findings.finish()));
    }

    // Tier 2 — delay-model lints over a freshly characterized kernel:
    // the grid audit of every fitted surface, plus the paper's corner
    // operating points as intended-use checks.
    let refs: Vec<&Netlist> = netlists.iter().map(|(_, n)| n).collect();
    let chars = characterize_used(&refs, &library, order);
    let space = chars.space();
    let (v_min, v_max) = space.voltage_range();
    let (c_min, c_max) = space.load_range();
    let corners = [
        ("corner v_min/c_min", OperatingPoint::new(v_min, c_min)),
        ("corner v_max/c_max", OperatingPoint::new(v_max, c_max)),
        (
            "nominal",
            OperatingPoint::new(space.nominal_vdd(), (c_min + c_max) / 2.0),
        ),
    ];
    let mut findings = Findings::default();
    avfs_check::model::lint_polynomial_model(chars.model(), &mut findings);
    for (name, op) in corners {
        avfs_check::model::lint_operating_point(space, op, || name.to_owned(), &mut findings);
    }
    report.push(Subject::new(
        "characterized-model",
        "delay-model",
        findings.finish(),
    ));

    // Tier 3 — concurrency audit: exhaustive interleaving exploration of
    // the claim-bit and epoch-barrier protocol models.
    let (runs, findings) = avfs_check::protocols::audit_concurrency();
    report.schedules_explored = runs
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|e| e.schedules)
        .sum();
    for run in &runs {
        match &run.result {
            Ok(explored) => eprintln!(
                "checker: {:<26} {} threads, {} schedules, depth {}",
                run.protocol, run.threads, explored.schedules, explored.max_depth
            ),
            Err(err) => eprintln!("checker: {:<26} VIOLATION: {err}", run.protocol),
        }
    }
    report.push(Subject::new("engine-protocols", "concurrency", findings));

    // The document must survive its own schema validation, always.
    let text = report.to_json().to_string_pretty();
    let back = Report::validate(&text).expect("emitted report validates against avfs-check/1");
    assert_eq!(back, report, "round trip is identity");

    println!(
        "checker: {} subjects — {} deny / {} warn / {} info, {} schedules explored",
        report.subjects.len(),
        report.count(Severity::Deny),
        report.count(Severity::Warn),
        report.count(Severity::Info),
        report.schedules_explored
    );
    for subject in &report.subjects {
        for finding in &subject.findings {
            println!("  {} ({}): {finding}", subject.name, subject.kind);
        }
    }

    let mut stale = false;
    if smoke {
        println!(
            "checker --smoke: schema avfs-check/1 OK ({} bytes)",
            text.len()
        );
    } else if let Some(path) = &check {
        stale = !committed_subjects_match(path, &report.subjects);
    } else {
        // Carry over the STA cross-check section and subjects a previous
        // `sta_crosscheck` run merged into the document, so re-running
        // the checker does not drop them.
        let text = match std::fs::read_to_string(&out)
            .ok()
            .and_then(|prev| Report::validate(&prev).ok())
        {
            Some(prev) => {
                report.sta = prev.sta;
                report.subjects.extend(
                    prev.subjects
                        .into_iter()
                        .filter(|s| s.kind == "sta-crosscheck"),
                );
                let text = report.to_json().to_string_pretty();
                Report::validate(&text).expect("merged report validates against avfs-check/1");
                text
            }
            None => text,
        };
        std::fs::write(&out, &text).expect("report written");
        println!("checker: wrote {out}");
    }
    if !report.passes_ci() {
        eprintln!("checker: deny-severity findings present");
    }
    if report.passes_ci() && !stale {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--check` comparison: whether the subjects of the report at
/// `path`, less its `sta-crosscheck` ones, equal `fresh` exactly. Prints
/// each difference.
fn committed_subjects_match(path: &str, fresh: &[Subject]) -> bool {
    let committed = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Report::validate(&text))
    {
        Ok(report) => report.subjects,
        Err(e) => {
            eprintln!("checker --check: cannot read {path}: {e}");
            return false;
        }
    };
    let committed: Vec<Subject> = committed
        .into_iter()
        .filter(|s| s.kind != "sta-crosscheck")
        .collect();
    if committed == fresh {
        println!(
            "checker --check: {path}'s subjects equal a fresh run ({} subjects)",
            fresh.len()
        );
        return true;
    }
    eprintln!("checker --check: {path}'s subjects differ from a fresh run:");
    if committed.len() != fresh.len() {
        eprintln!(
            "  subjects: committed {}, fresh {}",
            committed.len(),
            fresh.len()
        );
    }
    for (old, new) in committed.iter().zip(fresh) {
        if old == new {
            continue;
        }
        eprintln!(
            "  {} ({}) vs {} ({}):",
            old.name, old.kind, new.name, new.kind
        );
        let (old_findings, new_findings) = (&old.findings, &new.findings);
        for i in 0..old_findings.len().max(new_findings.len()) {
            let (a, b) = (old_findings.get(i), new_findings.get(i));
            if a != b {
                let show = |f: Option<&Finding>| f.map_or("(none)".into(), |f| f.to_string());
                eprintln!("    committed {}\n    fresh     {}", show(a), show(b));
            }
        }
    }
    false
}
