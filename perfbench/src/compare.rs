//! `benchmark compare A.json B.json`: B judged against A, one row per
//! workload × end-to-end metric, by the rule of choosing-metrics §6:
//! no worse than the bound, and `unresolved` — not "unchanged" — where
//! the run-to-run spread is wider than the bound.

use crate::report::RESULT_SCHEMA;
use avfs_obs::json::Json;
use std::fmt;
use std::path::Path;

/// Verdict of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by more than the spread between rounds.
    Better,
    /// B is within the bound of A (either side).
    WithinBound,
    /// B is worse than A by more than the bound.
    Worse,
    /// The spread between rounds of either file is wider than the
    /// bound, or a file has a single round and so no spread at all: the
    /// rounds cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a row: the pooled value and the quartiles of the
/// per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Value over the samples of all rounds pooled.
    pub value: f64,
    /// First quartile over rounds.
    pub q1: f64,
    /// Third quartile over rounds.
    pub q3: f64,
    /// `(q3 − q1) / median` over rounds.
    pub spread: f64,
    /// Measured rounds behind the quartiles.
    pub rounds: usize,
}

/// How much worse `b` is than `a`, as a share of `a` (negative =
/// better), given which direction is better.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// The verdict of one row.
pub fn judge(a: &Side, b: &Side, lower_is_better: bool, bound: f64) -> Verdict {
    let spread = a.spread.max(b.spread);
    let worse_by = worsening(a.value, b.value, lower_is_better);
    if spread > bound || a.rounds.min(b.rounds) < 2 {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

struct MetricRow {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
    side: Side,
}

struct WorkloadRows {
    name: String,
    failed: u64,
    metrics: Vec<MetricRow>,
}

fn load(path: &Path) -> Result<Vec<WorkloadRows>, String> {
    let at = |what: &str| format!("{}: {what}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| at(&e.to_string()))?;
    let json = Json::parse(&text).map_err(|e| at(&e.to_string()))?;
    if json.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Err(at(&format!("not an {RESULT_SCHEMA} result file")));
    }
    let workloads = json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| at("no workloads"))?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload name")?;
            let metrics = w
                .get("end_to_end")
                .and_then(Json::as_arr)
                .ok_or("end_to_end")?
                .iter()
                .map(|m| {
                    let text = |key: &str| m.get(key).and_then(Json::as_str).ok_or(key.to_owned());
                    let num = |key: &str| m.get(key).and_then(Json::as_f64).ok_or(key.to_owned());
                    Ok(MetricRow {
                        name: text("name")?.to_owned(),
                        unit: text("unit")?.to_owned(),
                        lower_is_better: text("better")? == "lower",
                        bound: num("bound")?,
                        side: Side {
                            value: num("value")?,
                            q1: num("q1")?,
                            q3: num("q3")?,
                            spread: num("spread")?,
                            rounds: m
                                .get("rounds")
                                .and_then(Json::as_arr)
                                .ok_or("rounds".to_owned())?
                                .len(),
                        },
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(WorkloadRows {
                name: name.to_owned(),
                failed: w.get("failed").and_then(Json::as_u64).ok_or("failed")?,
                metrics,
            })
        })
        .collect::<Result<Vec<_>, String>>()
        .map_err(|e| at(&format!("missing or malformed field `{e}`")))
}

/// Prints the comparison; `Ok(false)` when any row is `worse`.
///
/// # Errors
///
/// A file that cannot be read or is not a result file, or two files
/// over different workloads or metrics.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    println!("A = {}", a_path.display());
    println!("B = {}", b_path.display());
    println!(
        "{:<14} {:<14} {:>12} {:>25} {:>12} {:>25} {:>20} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "A value",
        "A [q1, q3]",
        "B value",
        "B [q1, q3]",
        "B vs A",
        "spread",
        "bound"
    );
    let mut any_worse = false;
    if a.len() != b.len() {
        return Err("the two files cover different workloads".into());
    }
    for (wa, wb) in a.iter().zip(&b) {
        if wa.name != wb.name || wa.metrics.len() != wb.metrics.len() {
            return Err(format!(
                "workload {} of A does not line up with {} of B",
                wa.name, wb.name
            ));
        }
        for (ma, mb) in wa.metrics.iter().zip(&wb.metrics) {
            if ma.name != mb.name {
                return Err(format!(
                    "metric {} of A lines up with {} of B",
                    ma.name, mb.name
                ));
            }
            let verdict = judge(&ma.side, &mb.side, ma.lower_is_better, ma.bound);
            any_worse |= verdict == Verdict::Worse;
            let change = worsening(ma.side.value, mb.side.value, ma.lower_is_better);
            println!(
                "{:<14} {:<14} {:>12.5} {:>25} {:>12.5} {:>25} {:>20} {:>6.1}% {:>6.1}%  {verdict}",
                wa.name,
                ma.name,
                ma.side.value,
                format!("[{:.5}, {:.5}]", ma.side.q1, ma.side.q3),
                mb.side.value,
                format!("[{:.5}, {:.5}]", mb.side.q1, mb.side.q3),
                format!(
                    "{:+.1}% of {:.5} {}",
                    -change * 100.0,
                    ma.side.value,
                    ma.unit
                ),
                ma.side.spread.max(mb.side.spread) * 100.0,
                ma.bound * 100.0,
            );
        }
        // A gain does not count when more operations fail.
        if wb.failed > wa.failed {
            any_worse = true;
            println!(
                "{:<14} {:<14} {:>12} {:>25} {:>12}  worse (more slots failed)",
                wa.name, "failed", wa.failed, "", wb.failed
            );
        }
    }
    println!(
        "(B vs A: + is better, as a share of A's value; spread: larger (q3-q1)/median over rounds of the two)"
    );
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, spread: f64) -> Side {
        Side {
            value,
            q1: value * (1.0 - spread / 2.0),
            q3: value * (1.0 + spread / 2.0),
            spread,
            rounds: 3,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let bound = 0.10;
        // Lower is better: 8 % slower is inside a 10 % bound.
        assert_eq!(
            judge(&side(1.0, 0.02), &side(1.08, 0.02), true, bound),
            Verdict::WithinBound
        );
        // 12 % slower is outside it.
        assert_eq!(
            judge(&side(1.0, 0.02), &side(1.12, 0.02), true, bound),
            Verdict::Worse
        );
        // 5 % faster with 2 % spread is a gain; with 6 % spread it is not.
        assert_eq!(
            judge(&side(1.0, 0.02), &side(0.95, 0.02), true, bound),
            Verdict::Better
        );
        assert_eq!(
            judge(&side(1.0, 0.06), &side(0.95, 0.02), true, bound),
            Verdict::WithinBound
        );
        // Spread wider than the bound: the rounds cannot tell, even for a
        // change that looks large either way.
        assert_eq!(
            judge(&side(1.0, 0.02), &side(1.5, 0.12), true, bound),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&side(1.0, 0.12), &side(0.5, 0.02), true, bound),
            Verdict::Unresolved
        );
        // Higher is better flips the direction.
        assert_eq!(
            judge(&side(10.0, 0.01), &side(8.0, 0.01), false, bound),
            Verdict::Worse
        );
        assert_eq!(
            judge(&side(10.0, 0.01), &side(12.0, 0.01), false, bound),
            Verdict::Better
        );
        assert_eq!(
            judge(&side(10.0, 0.0), &side(10.0, 0.0), false, bound),
            Verdict::WithinBound
        );
        // One round shows no spread, so nothing can be resolved from it.
        let single = Side {
            rounds: 1,
            ..side(1.0, 0.0)
        };
        assert_eq!(
            judge(&side(2.0, 0.0), &single, true, bound),
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_ratio_is_a_share_of_a() {
        assert!((worsening(2.0, 3.0, true) - 0.5).abs() < 1e-12);
        assert!((worsening(2.0, 3.0, false) + 0.5).abs() < 1e-12);
    }
}
