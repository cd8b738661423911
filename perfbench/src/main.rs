//! `benchmark` — the repo benchmark (see `README.md` beside this crate
//! and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one measurement process
//! benchmark run [--seed N] [--rounds R] [--seconds S] [--out FILE] [--spans DIR] [--smoke]
//! benchmark compare A.json B.json
//! benchmark schema                                         prints BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod child;
mod compare;
mod host;
mod layers;
mod oracle;
mod report;
mod schema;
mod spans;
mod stats;
mod workloads;

use avfs_obs::json::Json;
use child::{ChildArgs, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Kind, Scale};

const USAGE: &str = "\
benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans FILE] [--round R]
    one measurement process; the last line of stdout is the result object
benchmark run [--seed N] [--rounds R] [--seconds S] [--out FILE] [--spans DIR] [--smoke]
    R measured rounds plus one traced round over all workloads, samples pooled over rounds
benchmark compare A.json B.json
    verdict per workload x end-to-end metric; exits non-zero on `worse`
benchmark schema
    prints BENCHMARK.json as the binary defines it";

/// A `--flag value` argument list.
pub struct Args(Vec<String>);

impl Args {
    /// Whether the bare flag `name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value after `--name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// The value after `--name` parsed, `default` when absent.
    ///
    /// # Errors
    ///
    /// The value is present and does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot parse `{text}`")),
        }
    }
}

/// JSON on one line: the pretty form without its line breaks (strings
/// hold none; the writer escapes them).
pub fn one_line(json: &Json) -> String {
    json.to_string_pretty()
        .lines()
        .map(str::trim_start)
        .collect()
}

/// The result object a measurement process ends its stdout with.
pub fn result_json(outcome: &Outcome) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.verdict.correct())),
        (
            "attempted".into(),
            Json::Num(outcome.verdict.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.verdict.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.def.name.to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.def.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn child_args(args: &Args) -> Result<ChildArgs, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = args.parsed("--seconds", schema::RUN_SECONDS as f64)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(ChildArgs {
        kind,
        seed: args.parsed("--seed", 1)?,
        seconds,
        trace,
        scale: if args.flag("--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        },
        round: args.parsed("--round", 0)?,
        spans_out: args.value("--spans").map(PathBuf::from),
    })
}

/// One measurement process: metric lines, the `detail` line a driver
/// pools, then the result object. A failed oracle prints the result
/// (with `correct: false`) and exits non-zero.
fn run_child(args: &Args) -> Result<bool, String> {
    let child = child_args(args)?;
    let outcome = child::measure(&child)?;
    for note in &outcome.verdict.notes {
        eprintln!("benchmark: {}: {note}", child.kind.name());
    }
    for m in &outcome.metrics {
        println!(
            "{} {} {} {}",
            child.kind.name(),
            m.def.name,
            m.value,
            m.def.unit
        );
    }
    println!("detail {}", one_line(&outcome.detail.to_json()));
    println!("{}", one_line(&result_json(&outcome)));
    Ok(outcome.verdict.correct())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.0.first().map(String::as_str) {
        Some("run") => report::run(args),
        Some("compare") => {
            let [_, a, b] = &args.0[..] else {
                return Err("compare takes two result files".into());
            };
            compare::compare_files(a.as_ref(), b.as_ref())
        }
        Some("schema") => {
            print!("{}", schema::benchmark_json().to_string_pretty());
            Ok(true)
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) if args.value("--workload").is_some() => run_child(args),
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_line_round_trips_and_holds_no_line_break() {
        let json = Json::Obj(vec![
            ("a".into(), Json::Num(0.1 + 0.2)),
            ("b".into(), Json::Str("two\nlines \"quoted\"".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Num(1e-9), Json::Null, Json::Bool(true)]),
            ),
            ("d".into(), Json::Obj(Vec::new())),
        ]);
        let line = one_line(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), json);
    }

    #[test]
    fn child_arguments_are_validated() {
        let args = |list: &[&str]| Args(list.iter().map(|s| (*s).to_owned()).collect());
        let ok = child_args(&args(&[
            "--workload",
            "grid_small",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (ok.kind, ok.seed, ok.seconds, ok.trace),
            (Kind::GridSmall, 9, 2.0, true)
        );
        assert!(child_args(&args(&["--workload", "nope"])).is_err());
        assert!(child_args(&args(&["--workload", "grid_small", "--trace", "2"])).is_err());
        assert!(child_args(&args(&["--workload", "grid_small", "--seconds", "0"])).is_err());
        assert!(child_args(&args(&["--workload", "grid_small", "--seed", "x"])).is_err());
    }
}
