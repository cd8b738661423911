//! Integration: the `avfs-check` static-analysis tiers wired through the
//! public facade — run validation, the `avfs-check/1` report round-trip,
//! and the exhaustive protocol interleaving audit.

use avfs::atpg::PatternSet;
use avfs::check::interleave::{explore, StepResult, ThreadModel};
use avfs::check::{Findings, InterleaveError, Report, Severity, Subject};
use avfs::netlist::CellLibrary;
use avfs::sim::{slots, CompiledNetlist, SimOptions};
use std::sync::Arc;

fn simulator() -> CompiledNetlist {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(avfs::circuits::c17(&library).expect("c17 builds"));
    let chars = avfs::delay::characterize::characterize_library(
        &library,
        &avfs::spice::Technology::nm15(),
        &avfs::delay::characterize::CharacterizationConfig::fast(),
        None,
    )
    .expect("characterization");
    CompiledNetlist::from_characterization(netlist, &chars).expect("simulator binds")
}

#[test]
fn warn_mode_records_out_of_domain_slots() {
    let sim = simulator();
    let patterns = PatternSet::lfsr(sim.netlist().inputs().len(), 4, 9);
    // 0.3 V is far below the characterized [0.55, 1.1] V window; the
    // engine used to clamp it silently. Warn (the default) still clamps
    // but records the finding.
    let run = sim
        .launch(
            &patterns,
            &slots::cross(1, &[0.3, 0.8]),
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .expect("warn mode continues");
    let findings = &run.diagnostics.validation_findings;
    assert!(
        findings
            .iter()
            .any(|f| f.contains("AVC-D005") && f.contains("slot 0")),
        "{findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.contains("slot 1")),
        "0.8 V is in-domain: {findings:?}"
    );
}

#[test]
fn slots_above_the_domain_are_recorded() {
    let sim = simulator();
    // c17 compiles clean, so a caller that refuses suspect launches has
    // nothing to refuse before the first one.
    assert!(
        sim.setup_findings().is_empty(),
        "{:?}",
        sim.setup_findings()
    );
    let patterns = PatternSet::lfsr(sim.netlist().inputs().len(), 2, 9);
    let bad = slots::at_voltage(patterns.len(), 1.4); // above v_max
    let run = sim
        .launch(
            &patterns,
            &bad,
            &SimOptions {
                threads: 1,
                ..SimOptions::default()
            },
        )
        .expect("findings never stop a launch");
    let findings = &run.diagnostics.validation_findings;
    assert!(
        findings
            .iter()
            .any(|f| f.starts_with("warn AVC-D005 [slot 1]")),
        "{findings:?}"
    );
}

#[test]
fn report_round_trips_through_the_facade() {
    let library = CellLibrary::nangate15_like();
    let c17 = avfs::circuits::c17(&library).expect("c17 builds");
    let mut report = Report::new();
    let mut findings = Findings::default();
    avfs::check::netlist::lint_netlist(&c17, &mut findings);
    report.push(Subject::new("c17", "netlist", findings.finish()));
    let (runs, findings) = avfs::check::protocols::audit_concurrency();
    report.schedules_explored = runs
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .map(|e| e.schedules)
        .sum();
    report.push(Subject::new("engine-protocols", "concurrency", findings));
    assert!(report.passes_ci(), "in-tree subjects carry no deny finding");
    assert!(report.schedules_explored > 0);
    let text = report.to_json().to_string_pretty();
    let back = Report::validate(&text).expect("document validates");
    assert_eq!(back, report);
    assert_eq!(back.count(Severity::Deny), 0);
}

#[test]
fn protocol_audit_is_exhaustive_and_clean() {
    // Regression for the engine's two lock-free protocols: the arena's
    // claim-bit single-winner guarantee and the pool's epoch barrier,
    // model-checked over every interleaving.
    let claim = avfs::check::protocols::check_claim_protocol(3, 0).expect("single winner holds");
    // Exhaustiveness shows as a stable, exact schedule count (the losers
    // of the claim race finish right after their fetch_or, so schedules
    // are shorter than writers × steps).
    assert_eq!(claim.schedules, 60, "{claim:?}");
    let epoch = avfs::check::protocols::check_epoch_protocol(2, 2).expect("epoch barrier holds");
    assert!(epoch.schedules > 10, "{epoch:?}");
}

/// Two threads doing a non-atomic read-modify-write on a shared counter:
/// the canonical lost update the interleaving checker must catch.
#[derive(Clone)]
struct LostUpdate {
    loaded: Option<u32>,
}

impl ThreadModel<u32> for LostUpdate {
    fn step(&mut self, shared: &mut u32) -> StepResult {
        match self.loaded.take() {
            None => {
                self.loaded = Some(*shared);
                StepResult::Ran
            }
            Some(v) => {
                *shared = v + 1;
                StepResult::Finished
            }
        }
    }
}

#[test]
fn interleaving_checker_finds_lost_updates() {
    let threads = vec![LostUpdate { loaded: None }, LostUpdate { loaded: None }];
    let err = explore(&0u32, &threads, &|_| Ok(()), &|shared| {
        if *shared == 2 {
            Ok(())
        } else {
            Err(format!("lost update: counter is {shared}, not 2"))
        }
    })
    .expect_err("a torn increment must be caught");
    match err {
        InterleaveError::FinalCheckFailed { message, schedule } => {
            assert!(message.contains("lost update"), "{message}");
            assert!(!schedule.is_empty(), "witness schedule is reported");
        }
        other => panic!("unexpected failure kind: {other:?}"),
    }
}
