//! `benchmark run`: rounds of measurement processes, pooled into one
//! result file.
//!
//! Host noise on the sandbox comes in phases about a minute long (see
//! the README), so one block of samples cannot repeat within a tenth.
//! The driver therefore re-executes this binary once per *(round,
//! workload)*, round-robin over the workloads, so every workload sees
//! every noise phase and each process reports a clean peak RSS. Samples
//! of all measured rounds are pooled before the median is taken; a last
//! traced round gives the per-layer numbers.

use crate::child::{Detail, Metric};
use crate::host;
use crate::one_line;
use crate::schema::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_frac, median, quartiles, round_spread, tail};
use crate::workloads::Kind;
use crate::Args;
use avfs_obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of a result file.
pub const RESULT_SCHEMA: &str = "avfs-perfbench/1";

/// What one measurement process printed.
struct ChildOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
    detail: Detail,
}

fn parse_child(stdout: &str) -> Result<ChildOutput, String> {
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("result has no `{key}`"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_owned())),
                _ => Err(format!("metric {name} lacks a finite value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| Detail::from_json(&json))
        .ok_or("child printed no detail line")?;
    Ok(ChildOutput {
        correct: field("correct")?
            .as_bool()
            .ok_or("`correct` is not a bool")?,
        attempted: field("attempted")?.as_u64().ok_or("`attempted`")?,
        failed: field("failed")?.as_u64().ok_or("`failed`")?,
        metrics,
        detail,
    })
}

/// Runs this binary as one measurement process and waits for it.
fn spawn_child(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    round: u64,
    smoke: bool,
    spans: Option<&Path>,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--round", &round.to_string()]);
    if smoke {
        command.arg("--smoke");
    }
    if let Some(path) = spans {
        command.arg("--spans").arg(path);
    }
    // `output` waits for the child and collects its pipes; stderr (oracle
    // notes) passes through to the operator.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = parse_child(&stdout).map_err(|e| {
        format!(
            "{} round {round}: {e} (exit {:?})",
            kind.name(),
            output.status.code()
        )
    })?;
    if parsed.correct != output.status.success() {
        return Err(format!(
            "{} round {round}: exit status {:?} contradicts correct={}",
            kind.name(),
            output.status.code(),
            parsed.correct
        ));
    }
    Ok(parsed)
}

/// Everything measured for one workload.
struct WorkloadResult {
    kind: Kind,
    rounds: Vec<ChildOutput>,
    traced: ChildOutput,
}

impl WorkloadResult {
    /// Samples of all measured rounds as one set; peak RSS is the
    /// largest any process saw.
    fn pooled(&self) -> Detail {
        let mut pool = Detail::default();
        for round in &self.rounds {
            let d = &round.detail;
            pool.samples_s.extend(&d.samples_s);
            pool.ed_run_s.extend(&d.ed_run_s);
            pool.setup_s.extend(&d.setup_s);
            pool.evals_per_sample = d.evals_per_sample;
            pool.ed_evals_per_run = d.ed_evals_per_run;
            pool.launches_per_sample = d.launches_per_sample;
            pool.peak_rss_mb = pool.peak_rss_mb.max(d.peak_rss_mb);
        }
        pool
    }

    fn correct(&self) -> bool {
        self.rounds.iter().chain([&self.traced]).all(|r| r.correct)
    }

    fn to_json(&self) -> Json {
        let all = || self.rounds.iter().chain([&self.traced]);
        let pooled = self.pooled();
        let (tail_pct, tail_s) = tail(&pooled.samples_s);
        let end_to_end = pooled
            .end_to_end()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let per_round: Vec<f64> = self.rounds.iter().map(|r| r.metrics[i].1).collect();
                let (q1, q3) = quartiles(&per_round);
                let mut fields = metric_fields(m.def, m.value);
                fields.extend([
                    ("bound".to_owned(), Json::Num(m.def.bound)),
                    ("q1".to_owned(), Json::Num(q1)),
                    ("q3".to_owned(), Json::Num(q3)),
                    ("round_median".to_owned(), Json::Num(median(&per_round))),
                    ("spread".to_owned(), Json::Num(iqr_frac(&per_round))),
                    (
                        "rounds".to_owned(),
                        Json::Arr(per_round.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]);
                Json::Obj(fields)
            })
            .collect();
        let per_layer = self
            .traced
            .metrics
            .iter()
            .zip(&PER_LAYER)
            .map(|((_, value, _), def)| Json::Obj(metric_fields(def, *value)))
            .collect();
        Json::Obj(vec![
            ("name".into(), Json::Str(self.kind.name().into())),
            ("correct".into(), Json::Bool(self.correct())),
            (
                "attempted".into(),
                Json::Num(all().map(|r| r.attempted).sum::<u64>() as f64),
            ),
            (
                "failed".into(),
                Json::Num(all().map(|r| r.failed).sum::<u64>() as f64),
            ),
            ("samples".into(), Json::Num(pooled.samples_s.len() as f64)),
            ("sample_s_p50".into(), Json::Num(median(&pooled.samples_s))),
            ("sample_s_tail".into(), Json::Num(tail_s)),
            ("tail_pct".into(), Json::Num(tail_pct)),
            ("ed_samples".into(), Json::Num(pooled.ed_run_s.len() as f64)),
            (
                "round_spread".into(),
                Json::Num(round_spread(
                    &self
                        .rounds
                        .iter()
                        .map(|r| r.detail.samples_s.clone())
                        .collect::<Vec<_>>(),
                )),
            ),
            ("end_to_end".into(), Json::Arr(end_to_end)),
            ("per_layer".into(), Json::Arr(per_layer)),
        ])
    }
}

fn metric_fields(def: &MetricDef, value: f64) -> Vec<(String, Json)> {
    vec![
        ("name".to_owned(), Json::Str(def.name.into())),
        ("unit".to_owned(), Json::Str(def.unit.into())),
        ("better".to_owned(), Json::Str(def.better.into())),
        ("value".to_owned(), Json::Num(value)),
    ]
}

/// Names and units a child printed against the schema's, in order.
fn check_names(
    what: &str,
    printed: &[(String, f64, String)],
    defs: &[MetricDef],
) -> Result<(), String> {
    let got: Vec<(&str, &str)> = printed
        .iter()
        .map(|(n, _, u)| (n.as_str(), u.as_str()))
        .collect();
    let want: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    if got != want {
        return Err(format!(
            "{what}: printed metrics {got:?} differ from the schema's {want:?}"
        ));
    }
    for (name, value, _) in printed {
        if !schema::valid_name(name) {
            return Err(format!("{what}: metric name `{name}` has other characters"));
        }
        if !value.is_finite() {
            return Err(format!("{what}: metric {name} is not finite"));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` in the working directory must be what this binary
/// defines, so the names a later change is judged by cannot drift from
/// the ones measured.
fn check_benchmark_json() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read ./BENCHMARK.json (run from the repo root): {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if file != schema::benchmark_json() {
        return Err(
            "BENCHMARK.json differs from `benchmark schema`; regenerate one from the other".into(),
        );
    }
    Ok(())
}

/// `benchmark run`.
///
/// # Errors
///
/// Bad arguments, a child that could not be run or parsed, a name that
/// is not the schema's, or an unwritable output file. A failed oracle is
/// `Ok(false)`.
pub fn run(args: &Args) -> Result<bool, String> {
    let smoke = args.flag("--smoke");
    let seed: u64 = args.parsed("--seed", 1)?;
    let rounds: u64 = args.parsed("--rounds", if smoke { 1 } else { 3 })?;
    let seconds: f64 = args.parsed(
        "--seconds",
        if smoke {
            0.2
        } else {
            schema::RUN_SECONDS as f64
        },
    )?;
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let out = args.value("--out").map_or_else(default_out, PathBuf::from);
    let spans_dir = args.value("--spans").map(PathBuf::from);
    if let Some(dir) = &spans_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    if smoke {
        check_benchmark_json()?;
    }

    let measure = |kind: Kind, round: u64, trace: bool| -> Result<ChildOutput, String> {
        if trace {
            eprintln!("benchmark: traced round {}", kind.name());
        } else {
            eprintln!("benchmark: round {}/{rounds} {}", round + 1, kind.name());
        }
        let spans = spans_dir
            .as_ref()
            .filter(|_| trace)
            .map(|d| d.join(format!("{}.trace.json", kind.name())));
        let output = spawn_child(kind, seed, seconds, trace, round, smoke, spans.as_deref())?;
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        check_names(kind.name(), &output.metrics, defs)?;
        Ok(output)
    };
    // Round-robin over the workloads, so each sees every noise phase.
    let mut measured: Vec<Vec<ChildOutput>> = Kind::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (slot, kind) in Kind::ALL.into_iter().enumerate() {
            measured[slot].push(measure(kind, round, false)?);
        }
    }
    let results = Kind::ALL
        .into_iter()
        .zip(measured)
        .map(|(kind, rounds_of_kind)| {
            Ok(WorkloadResult {
                kind,
                rounds: rounds_of_kind,
                traced: measure(kind, rounds, true)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let names: Vec<&str> = results.iter().map(|r| r.kind.name()).collect();
    let want: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    if names != want {
        return Err(format!("ran workloads {names:?}, the schema has {want:?}"));
    }

    for result in &results {
        let name = result.kind.name();
        for Metric { def, value } in result.pooled().end_to_end() {
            println!("{name} {} {value} {}", def.name, def.unit);
        }
        for (metric, value, unit) in &result.traced.metrics {
            println!("{name} {metric} {value} {unit}");
        }
    }
    let ok = results.iter().all(WorkloadResult::correct);
    let mut provenance = match host::provenance() {
        Json::Obj(fields) => fields,
        _ => unreachable!("provenance is an object"),
    };
    provenance.extend([
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("rounds".to_owned(), Json::Num(rounds as f64)),
        ("window_seconds".to_owned(), Json::Num(seconds)),
        (
            "scale".to_owned(),
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
    ]);
    let report = Json::Obj(vec![
        ("schema".into(), Json::Str(RESULT_SCHEMA.into())),
        ("correct".into(), Json::Bool(ok)),
        ("provenance".into(), Json::Obj(provenance)),
        (
            "workloads".into(),
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, report.to_string_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("benchmark: wrote {}", out.display());
    println!(
        "{}",
        one_line(&Json::Obj(vec![
            ("correct".into(), Json::Bool(ok)),
            ("out".into(), Json::Str(out.display().to_string())),
        ]))
    );
    Ok(ok)
}

/// Result files go next to the build products, never into the tree.
fn default_out() -> PathBuf {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    exe_dir.join("benchmark-result.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_and_pools() {
        let detail = Detail {
            samples_s: vec![1.0, 2.0, 3.0],
            ed_run_s: vec![0.5],
            setup_s: vec![4.0],
            evals_per_sample: 2e6,
            ed_evals_per_run: 1e6,
            launches_per_sample: 2.0,
            peak_rss_mb: 10.0,
        };
        let stdout = format!(
            "w meps 1 Mevals/s\ndetail {}\n{}\n",
            one_line(&detail.to_json()),
            r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"meps": {"value": 1.0, "unit": "Mevals/s"}}}"#
        );
        let parsed = parse_child(&stdout).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.attempted, 5);
        assert_eq!(
            parsed.metrics,
            vec![("meps".into(), 1.0, "Mevals/s".into())]
        );
        assert_eq!(parsed.detail, detail);

        // Pooled: the fastest sample of either round.
        let second = Detail {
            samples_s: vec![10.0; 4],
            peak_rss_mb: 12.0,
            ..detail.clone()
        };
        let wrap = |d: Detail| ChildOutput {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: d
                .end_to_end()
                .iter()
                .map(|m| (m.def.name.to_owned(), m.value, m.def.unit.to_owned()))
                .collect(),
            detail: d,
        };
        let result = WorkloadResult {
            kind: Kind::GridSmall,
            rounds: vec![wrap(detail.clone()), wrap(second)],
            traced: wrap(detail),
        };
        let pooled = result.pooled();
        assert_eq!(pooled.samples_s.len(), 7);
        assert_eq!(pooled.peak_rss_mb, 12.0);
        let e2e = pooled.end_to_end();
        // launch_s = fastest pooled sample (1 s) / 2 launches.
        assert_eq!(e2e[2].def.name, "launch_s");
        assert_eq!(e2e[2].value, 0.5);
        // meps = 2e6 evals / 1 s; ED = 1e6 / 0.5 s; speedup = 2 / 2.
        assert_eq!(e2e[1].value, 2.0);
        assert_eq!(e2e[3].value, 1.0);
        // Set-up stays a median: {4, 4}.
        assert_eq!(e2e[0].value, 4.0);
    }

    #[test]
    fn names_that_differ_from_the_schema_are_refused() {
        let printed: Vec<(String, f64, String)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_owned(), 1.0, d.unit.to_owned()))
            .collect();
        assert!(check_names("w", &printed, &END_TO_END).is_ok());
        let mut renamed = printed.clone();
        renamed[1].0 = "mepz".into();
        assert!(check_names("w", &renamed, &END_TO_END).is_err());
        let mut nan = printed.clone();
        nan[0].1 = f64::NAN;
        assert!(check_names("w", &nan, &END_TO_END).is_err());
        assert!(check_names("w", &printed[1..], &END_TO_END).is_err());
    }
}
