//! chaos — the fault-injection soak harness emitting `avfs-chaos/1` JSON.
//!
//! Soaks the engine under deterministic fault injection ([`avfs_inject`])
//! in two sweeps, asserting the robustness invariants after every run:
//!
//! 1. **targeted** — one run per [`InjectionSite`] at rate 1.0 (plus an
//!    overflow run without retries), so every site and every degraded
//!    [`SlotStatus`] is exercised deterministically;
//! 2. **soak** — randomized fault plans ([`FaultPlan::randomized`])
//!    replayed across the determinism matrix (threads × lane width ×
//!    profiling), with a seed-replay pass per plan.
//!
//! Invariants checked after every run:
//!
//! * the run terminates and returns (no deadlock) — either `Ok` or the
//!   graceful [`SimError::AllSlotsFailed`];
//! * every slot resolves to a definite [`SlotStatus`];
//! * slots the plan cannot have touched — predicted offline via the pure
//!   [`FaultPlan::decide`] hash, never from run output — are bit-for-bit
//!   identical to a clean reference run;
//! * re-running from the same plan seed replays bit-for-bit;
//! * the event-driven baseline contains injected panics per slot exactly
//!   as [`FaultPlan::decide`] predicts;
//! * across the whole session, every registered injection site fired at
//!   least once (100 % site coverage).
//!
//! ```text
//! cargo run --release -p avfs-bench --bin chaos [-- --soaks 8 --out CHAOS_report.json]
//! cargo run -p avfs-bench --bin chaos -- --smoke   # CI: reduced matrix, validate, no file
//! ```
//!
//! The process exits non-zero when any invariant fails or a site never
//! fires, so the binary doubles as the CI gate (`ci.sh`).

use avfs_bench::{activity_patterns, characterize_used, Args};
use avfs_circuits::ripple_carry_adder;
use avfs_core::slots::cross;
use avfs_core::{CompiledNetlist, EventDrivenSimulator, SimError, SimOptions, SimRun, SlotStatus};
use avfs_inject::{FaultPlan, InjectionSite, SITE_COUNT};
use avfs_netlist::CellLibrary;
use avfs_obs::Json;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything the report needs to remember about the session.
#[derive(Default)]
struct Tally {
    /// Cumulative per-site hit counts over every plan of the session.
    site_hits: [u64; SITE_COUNT],
    /// Runs that returned `Ok` with every slot statused.
    graceful_ok: u64,
    /// Runs that degraded to [`SimError::AllSlotsFailed`].
    graceful_all_failed: u64,
    /// Per-slot bit-identity comparisons against the clean reference.
    identity_checks: u64,
    /// Seed-replay passes (full-run equality).
    replay_checks: u64,
    /// Final slot statuses observed, by class.
    completed: u64,
    overflowed: u64,
    panicked: u64,
}

impl Tally {
    fn absorb_plan(&mut self, plan: &FaultPlan) {
        for site in InjectionSite::ALL {
            self.site_hits[site.index()] += plan.hits(site);
        }
    }

    fn absorb_statuses(&mut self, run: &SimRun) {
        for slot in &run.slots {
            match slot.status {
                SlotStatus::Completed { .. } => self.completed += 1,
                SlotStatus::Overflowed { .. } => self.overflowed += 1,
                SlotStatus::Panicked => self.panicked += 1,
            }
        }
    }
}

/// The subject circuit: small enough to soak in seconds, busy enough
/// that every injection site has something to bite on.
struct Subject {
    engine: CompiledNetlist,
    baseline: EventDrivenSimulator,
    patterns: avfs_atpg::PatternSet,
    slots: Vec<avfs_core::slots::SlotSpec>,
}

/// A 64-bit adder under 32 slots: several lane groups per batch (four at
/// the default lane width), walked by their owners while idle workers
/// join their open levels, so a fault plan meets tasks run by owners and
/// by helpers. The pool is released once per batch — the only place the
/// worker-stall site is consulted.
fn subject(seed: u64) -> Subject {
    let library = CellLibrary::nangate15_like();
    let netlist = Arc::new(ripple_carry_adder(64, &library).expect("adder builds"));
    let chars = characterize_used(&[netlist.as_ref()], &library, 2);
    let annotation = Arc::new(chars.annotate(&netlist).expect("annotation"));
    let engine = CompiledNetlist::compile(
        Arc::clone(&netlist),
        Arc::clone(&annotation),
        Arc::new(chars.model().clone()),
    )
    .expect("engine builds");
    let baseline =
        EventDrivenSimulator::new(Arc::clone(&netlist), annotation).expect("baseline builds");
    let patterns = activity_patterns(netlist.inputs().len(), 8, 0.7, seed);
    let slots = cross(patterns.len(), &[0.8, 0.9, 1.0, 1.1]);
    Subject {
        engine,
        baseline,
        patterns,
        slots,
    }
}

/// Offline prediction of the slots a plan may have perturbed, from the
/// pure decision hash alone (never from run output). A slot is *suspect*
/// if a result-changing site could fire for it in any retry round:
/// forced arena overflow or an injected kernel panic at rounds
/// `0..=retries`. Worker stalls are timing-only and never change
/// results, so they are excluded — the identity check *proves* they are
/// harmless.
fn suspect_slots(plan: &FaultPlan, slots: usize, retries: u32) -> Vec<bool> {
    (0..slots as u64)
        .map(|key| {
            (0..=u64::from(retries)).any(|round| {
                plan.decide(InjectionSite::ArenaOverflow, key, round)
                    || plan.decide(InjectionSite::KernelPanic, key, round)
            })
        })
        .collect()
}

/// Runs the engine under `plan` and checks the per-run invariants:
/// graceful termination, every slot statused, non-suspect slots
/// bit-identical to `clean`. Returns the run when at least one slot
/// survived.
fn checked_run(
    subject: &Subject,
    options: &SimOptions,
    clean: &SimRun,
    tally: &mut Tally,
    case: &str,
) -> Option<SimRun> {
    let plan = options.fault_plan.as_deref().expect("chaos runs are armed");
    match subject
        .engine
        .launch(&subject.patterns, &subject.slots, options)
    {
        Ok(run) => {
            assert_eq!(
                run.slots.len(),
                subject.slots.len(),
                "{case}: every slot must resolve to a status"
            );
            let suspects = suspect_slots(plan, subject.slots.len(), options.overflow_retries);
            for (i, suspect) in suspects.iter().enumerate() {
                if !suspect {
                    assert_eq!(
                        run.slots[i], clean.slots[i],
                        "{case}: slot {i} is fault-free by prediction and must be \
                         bit-identical to the clean run"
                    );
                    tally.identity_checks += 1;
                }
            }
            tally.graceful_ok += 1;
            tally.absorb_statuses(&run);
            Some(run)
        }
        Err(SimError::AllSlotsFailed { slots }) => {
            assert_eq!(
                slots,
                subject.slots.len(),
                "{case}: total loss must account for every slot"
            );
            tally.graceful_all_failed += 1;
            None
        }
        Err(other) => panic!("{case}: ungraceful failure: {other}"),
    }
}

/// One targeted run per injection site at rate 1.0, so coverage of every
/// site is deterministic rather than probabilistic.
fn targeted_sweep(subject: &Subject, tally: &mut Tally) {
    // Forced arena overflow on every write of every round: every busy
    // slot must degrade to Overflowed (or the run to total loss).
    let plan = Arc::new(FaultPlan::empty(0x0DD5EED).with_rate(InjectionSite::ArenaOverflow, 1.0));
    let clean = subject
        .engine
        .launch(&subject.patterns, &subject.slots, &SimOptions::default())
        .expect("clean reference run");
    let opts = SimOptions {
        fault_plan: Some(Arc::clone(&plan)),
        ..SimOptions::default()
    };
    checked_run(subject, &opts, &clean, tally, "targeted arena-overflow");
    assert!(plan.hits(InjectionSite::ArenaOverflow) > 0);
    tally.absorb_plan(&plan);

    // The same site at rate 0.5 with retries disabled: hit slots must
    // end Overflowed while the rest complete bit-identically.
    let plan = Arc::new(FaultPlan::empty(0x0DD5EED).with_rate(InjectionSite::ArenaOverflow, 0.5));
    let opts = SimOptions {
        overflow_retries: 0,
        fault_plan: Some(Arc::clone(&plan)),
        ..SimOptions::default()
    };
    let run = checked_run(subject, &opts, &clean, tally, "targeted overflow-no-retry")
        .expect("rate 0.5 leaves survivors");
    assert!(
        run.slots
            .iter()
            .any(|s| matches!(s.status, SlotStatus::Overflowed { .. })),
        "with retries disabled a forced overflow must surface as Overflowed"
    );
    assert!(plan.hits(InjectionSite::ArenaOverflow) > 0);
    tally.absorb_plan(&plan);

    // Injected kernel panic in every slot: containment must hold for all
    // of them and the run degrade to AllSlotsFailed.
    let plan = Arc::new(FaultPlan::empty(0x0DD5EED).with_rate(InjectionSite::KernelPanic, 1.0));
    let opts = SimOptions {
        fault_plan: Some(Arc::clone(&plan)),
        ..SimOptions::default()
    };
    checked_run(subject, &opts, &clean, tally, "targeted kernel-panic");
    assert!(plan.hits(InjectionSite::KernelPanic) > 0);
    tally.absorb_plan(&plan);

    // Every spawned worker stalls at every release (briefly), before it
    // takes its share: results must not move. A stalled worker holds no
    // task, so the others keep closing levels.
    let plan = Arc::new(
        FaultPlan::empty(0x0DD5EED)
            .with_rate(InjectionSite::WorkerStall, 1.0)
            .with_stall(Duration::from_millis(3)),
    );
    let opts = SimOptions {
        threads: 2,
        fault_plan: Some(Arc::clone(&plan)),
        ..SimOptions::default()
    };
    let run = checked_run(subject, &opts, &clean, tally, "targeted worker-stall")
        .expect("stalls delay, never fail");
    assert_eq!(run.slots, clean.slots, "stalls are timing-only");
    assert!(plan.hits(InjectionSite::WorkerStall) > 0);
    tally.absorb_plan(&plan);

    eprintln!("chaos: targeted sweep OK (all {SITE_COUNT} sites)");
}

/// Randomized plans across the determinism matrix, with a seed-replay
/// pass per plan.
fn soak_sweep(subject: &Subject, seeds: &[u64], thread_axis: &[usize], tally: &mut Tally) {
    let clean = subject
        .engine
        .launch(&subject.patterns, &subject.slots, &SimOptions::default())
        .expect("clean reference run");
    for &seed in seeds {
        // Short stall so a firing WorkerStall site costs microseconds,
        // not the 20 ms debugging default.
        let plan =
            Arc::new(FaultPlan::randomized(seed, 0.1).with_stall(Duration::from_micros(200)));
        let mut reference: Option<(String, Option<SimRun>)> = None;
        for &threads in thread_axis {
            for lanes in [1, 8] {
                for profiling in [false, true] {
                    let case = format!(
                        "soak seed={seed:#x}, threads={threads}, \
                         lanes={lanes}, profiling={profiling}"
                    );
                    let opts = SimOptions {
                        threads,
                        lanes,
                        profiling,
                        fault_plan: Some(Arc::clone(&plan)),
                        ..SimOptions::default()
                    };
                    let run = checked_run(subject, &opts, &clean, tally, &case);
                    // Schedule-independence: the same plan must produce
                    // the same slot outcomes at every matrix point.
                    match &reference {
                        None => reference = Some((case, run)),
                        Some((ref_case, ref_run)) => {
                            let (got, want) = (
                                run.as_ref().map(|r| &r.slots),
                                ref_run.as_ref().map(|r| &r.slots),
                            );
                            assert_eq!(got, want, "{case}: slot outcomes must match {ref_case}");
                        }
                    }
                }
            }
        }
        // Seed replay: a fresh plan from the same seed, same options —
        // the whole run must reproduce bit for bit.
        let replay_plan =
            Arc::new(FaultPlan::randomized(seed, 0.1).with_stall(Duration::from_micros(200)));
        let replay_opts = |p: &Arc<FaultPlan>| SimOptions {
            threads: *thread_axis.last().expect("axis is non-empty"),
            fault_plan: Some(Arc::clone(p)),
            ..SimOptions::default()
        };
        let first = subject
            .engine
            .launch(&subject.patterns, &subject.slots, &replay_opts(&plan));
        let second = subject.engine.launch(
            &subject.patterns,
            &subject.slots,
            &replay_opts(&replay_plan),
        );
        match (first, second) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.slots, b.slots, "seed {seed:#x}: replay diverged");
                assert_eq!(
                    a.diagnostics, b.diagnostics,
                    "seed {seed:#x}: replay diagnostics diverged"
                );
                tally.replay_checks += 1;
            }
            (
                Err(SimError::AllSlotsFailed { slots: a }),
                Err(SimError::AllSlotsFailed { slots: b }),
            ) => {
                assert_eq!(a, b, "seed {seed:#x}: replay loss count diverged");
                tally.replay_checks += 1;
            }
            (a, b) => panic!(
                "seed {seed:#x}: replay outcome class diverged: {:?} vs {:?}",
                a.map(|r| r.summary()),
                b.map(|r| r.summary())
            ),
        }
        // Event-driven baseline cross-check: injected panics land exactly
        // on the slots the pure hash predicts, keyed (slot, 0).
        let ed_plan = Arc::new(FaultPlan::randomized(seed, 0.1));
        match subject.baseline.run_with_plan(
            &subject.patterns,
            &subject.slots,
            false,
            false,
            Some(&ed_plan),
        ) {
            Ok(run) => {
                for (i, slot) in run.slots.iter().enumerate() {
                    let predicted = ed_plan.decide(InjectionSite::KernelPanic, i as u64, 0);
                    assert_eq!(
                        slot.status == SlotStatus::Panicked,
                        predicted,
                        "seed {seed:#x}: baseline slot {i} panic mismatch"
                    );
                }
                tally.graceful_ok += 1;
                tally.absorb_statuses(&run);
            }
            Err(SimError::AllSlotsFailed { .. }) => {
                assert!(
                    (0..subject.slots.len()).all(|i| ed_plan.decide(
                        InjectionSite::KernelPanic,
                        i as u64,
                        0
                    )),
                    "seed {seed:#x}: baseline total loss without a full panic prediction"
                );
                tally.graceful_all_failed += 1;
            }
            Err(other) => panic!("seed {seed:#x}: baseline ungraceful failure: {other}"),
        }
        tally.absorb_plan(&ed_plan);
        tally.absorb_plan(&plan);
        tally.absorb_plan(&replay_plan);
        eprintln!(
            "chaos: soak seed {seed:#x} OK ({} matrix points, replay, baseline)",
            thread_axis.len() * 4
        );
    }
}

/// Builds the `avfs-chaos/1` document.
fn report(tally: &Tally, soaks: usize, matrix_runs: u64, wall: Duration) -> Json {
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    };
    let num = |n: u64| Json::Num(n as f64);
    let coverage = InjectionSite::ALL
        .iter()
        .map(|site| {
            obj(vec![
                ("site", Json::Str(site.name().to_owned())),
                ("hits", num(tally.site_hits[site.index()])),
                ("covered", Json::Bool(tally.site_hits[site.index()] > 0)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", Json::Str("avfs-chaos/1".to_owned())),
        ("soak_plans", num(soaks as u64)),
        ("matrix_runs", num(matrix_runs)),
        ("wall_ms", num(wall.as_millis() as u64)),
        ("site_coverage", Json::Arr(coverage)),
        (
            "invariants",
            obj(vec![
                ("graceful_ok_runs", num(tally.graceful_ok)),
                ("graceful_total_loss_runs", num(tally.graceful_all_failed)),
                ("bit_identity_slot_checks", num(tally.identity_checks)),
                ("seed_replay_checks", num(tally.replay_checks)),
            ]),
        ),
        (
            "slot_statuses",
            obj(vec![
                ("completed", num(tally.completed)),
                ("overflowed", num(tally.overflowed)),
                ("panicked", num(tally.panicked)),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let args = Args::capture();
    if args.flag("--help") {
        println!("chaos: deterministic fault-injection soak, avfs-chaos/1 JSON report");
        println!("  --soaks <n>   randomized fault plans to soak (default 8; smoke runs 2)");
        println!("  --seed <u64>  base seed for the soak plans (default 0xC4405)");
        println!("  --out <path>  output path (default CHAOS_report.json)");
        println!("  --smoke       reduced thread axis, validate, require coverage, no file");
        return ExitCode::SUCCESS;
    }
    let smoke = args.flag("--smoke");
    let base_seed: u64 = args.value("--seed").unwrap_or(0xC4405);
    let soaks: usize = args.value("--soaks").unwrap_or(if smoke { 2 } else { 8 });
    let out: String = args
        .value("--out")
        .unwrap_or_else(|| "CHAOS_report.json".into());

    // Injected panics are expected and contained; silence their default
    // backtrace spam but keep every organic panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected") {
            default_hook(info);
        }
    }));

    let start = Instant::now();
    let subj = subject(0xC4A050001);
    let mut tally = Tally::default();
    targeted_sweep(&subj, &mut tally);

    let thread_axis: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let seeds: Vec<u64> = (0..soaks as u64)
        .map(|i| base_seed.wrapping_add(i))
        .collect();
    soak_sweep(&subj, &seeds, thread_axis, &mut tally);

    // Two lane widths × profiling on and off per thread count.
    let matrix_runs = (seeds.len() * thread_axis.len() * 4) as u64;
    let doc = report(&tally, soaks, matrix_runs, start.elapsed());

    // 100 % site coverage is the gate: a site that never fired means an
    // injection hook rotted out of the code path it guards.
    let uncovered: Vec<&str> = InjectionSite::ALL
        .iter()
        .filter(|s| tally.site_hits[s.index()] == 0)
        .map(|s| s.name())
        .collect();
    if !uncovered.is_empty() {
        eprintln!("chaos: FAIL — sites never fired: {uncovered:?}");
        return ExitCode::FAILURE;
    }

    // The document must survive its own schema round-trip, always.
    let text = doc.to_string_pretty();
    let back = Json::parse(&text).expect("emitted report parses");
    assert_eq!(back, doc, "report must round-trip");
    assert_eq!(
        back.get("schema").and_then(Json::as_str),
        Some("avfs-chaos/1"),
        "schema header"
    );

    if smoke {
        eprintln!(
            "chaos --smoke: schema avfs-chaos/1 OK ({} bytes), all {} sites covered, \
             {} identity checks, {} replay checks",
            text.len(),
            SITE_COUNT,
            tally.identity_checks,
            tally.replay_checks
        );
        return ExitCode::SUCCESS;
    }
    std::fs::write(&out, text.as_bytes()).expect("report is writable");
    eprintln!(
        "chaos: wrote {out} ({} bytes) — all {} sites covered, {} matrix runs, \
         {} identity checks, {} replay checks",
        text.len(),
        SITE_COUNT,
        matrix_runs,
        tally.identity_checks,
        tally.replay_checks
    );
    ExitCode::SUCCESS
}
