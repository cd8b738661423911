//! The schema-versioned check report (`avfs-check/1`).
//!
//! Every checker invocation aggregates its findings into a [`Report`]:
//! one [`Subject`] per analyzed artifact (a netlist, a delay model, the
//! concurrency protocols, the workspace source tree) with the subject's
//! findings, plus a derived severity summary. The JSON round-trip is
//! built on [`avfs_obs::Json`] like `avfs-profile/2`;
//! [`Report::from_json`] doubles as the schema
//! validator `checker --smoke` and CI gate on.

use crate::{rule_spec, Finding, Severity};
use avfs_obs::{Json, JsonError};

/// Schema identifier embedded in every report.
pub const CHECK_SCHEMA: &str = "avfs-check/1";

/// Schema identifier of the optional STA cross-check section — versioned
/// independently of the enclosing report so the section can evolve
/// without a report-wide schema bump.
pub const STA_SCHEMA: &str = "avfs-check-sta/1";

/// One STA ↔ simulator comparison row: a circuit at one operating
/// voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct StaRow {
    /// Circuit name.
    pub circuit: String,
    /// Supply voltage, V.
    pub voltage: f64,
    /// STA latest-arrival upper bound, ps.
    pub sta_latest_ps: f64,
    /// Worst simulated latest-transition arrival across the compared
    /// slots, ps (`None` when no slot transitioned).
    pub sim_latest_ps: Option<f64>,
    /// `sta_latest_ps − sim_latest_ps` (`None` when no slot
    /// transitioned). Non-negative in a healthy flow — a negative margin
    /// is exactly an `AVC-T001` finding.
    pub margin_ps: Option<f64>,
}

/// The STA cross-check summary merged into `CHECK_report.json` under the
/// `sta` key (schema [`STA_SCHEMA`]). Findings the cross-check raises
/// flow through ordinary [`Subject`]s; this section carries the
/// quantitative agreement table CI and EXPERIMENTS.md read.
#[derive(Debug, Clone, PartialEq)]
pub struct StaSection {
    /// The comparison tolerance the cross-check ran with, ps.
    pub epsilon_ps: f64,
    /// One row per `(circuit, voltage)` comparison, in run order.
    pub rows: Vec<StaRow>,
}

impl StaSection {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(STA_SCHEMA.into())),
            ("epsilon_ps".into(), Json::Num(self.epsilon_ps)),
            (
                "rows".into(),
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
                            Json::Obj(vec![
                                ("circuit".into(), Json::Str(r.circuit.clone())),
                                ("voltage".into(), Json::Num(r.voltage)),
                                ("sta_latest_ps".into(), Json::Num(r.sta_latest_ps)),
                                ("sim_latest_ps".into(), opt(r.sim_latest_ps)),
                                ("margin_ps".into(), opt(r.margin_ps)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<StaSection, JsonError> {
        let fail = |message: String| JsonError { offset: 0, message };
        let schema = value
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("sta section missing schema tag".into()))?;
        if schema != STA_SCHEMA {
            return Err(fail(format!("unsupported sta section schema '{schema}'")));
        }
        let num = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(format!("sta section: missing/invalid field '{key}'")))
        };
        let mut rows = Vec::new();
        for r in value
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("sta section missing rows array".into()))?
        {
            let opt = |key: &str| match r.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| fail(format!("sta section: invalid field '{key}'"))),
            };
            rows.push(StaRow {
                circuit: r
                    .get("circuit")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| fail("sta section: missing/invalid field 'circuit'".into()))?,
                voltage: num(r, "voltage")?,
                sta_latest_ps: num(r, "sta_latest_ps")?,
                sim_latest_ps: opt("sim_latest_ps")?,
                margin_ps: opt("margin_ps")?,
            });
        }
        Ok(StaSection {
            epsilon_ps: num(value, "epsilon_ps")?,
            rows,
        })
    }
}

/// One analyzed artifact and its findings.
#[derive(Debug, Clone, PartialEq)]
pub struct Subject {
    /// What was analyzed (a circuit name, `characterized-model`,
    /// `engine-protocols`).
    pub name: String,
    /// Which analysis produced the findings (`netlist`, `delay-model`,
    /// `concurrency`, `sta-crosscheck`).
    pub kind: String,
    /// The subject's findings (capped per rule by the
    /// [`Findings`](crate::Findings) collector).
    pub findings: Vec<Finding>,
}

impl Subject {
    /// Creates a subject.
    pub fn new(
        name: impl Into<String>,
        kind: impl Into<String>,
        findings: Vec<Finding>,
    ) -> Subject {
        Subject {
            name: name.into(),
            kind: kind.into(),
            findings,
        }
    }
}

/// A full check report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Version of the checker that produced the report
    /// (`CARGO_PKG_VERSION` of `avfs-check`).
    pub tool_version: String,
    /// One entry per analyzed artifact, in analysis order.
    pub subjects: Vec<Subject>,
    /// Complete interleavings the tier-3 audit explored (0 when the
    /// audit did not run).
    pub schedules_explored: u64,
    /// The STA cross-check summary (`None` when the cross-check did not
    /// run; reports without the section parse unchanged).
    pub sta: Option<StaSection>,
}

impl Report {
    /// Creates an empty report stamped with this crate's version.
    pub fn new() -> Report {
        Report {
            tool_version: env!("CARGO_PKG_VERSION").to_owned(),
            subjects: Vec::new(),
            schedules_explored: 0,
            sta: None,
        }
    }

    /// Appends a subject.
    pub fn push(&mut self, subject: Subject) {
        self.subjects.push(subject);
    }

    /// Number of findings at exactly `severity` across all subjects.
    pub fn count(&self, severity: Severity) -> usize {
        self.subjects
            .iter()
            .flat_map(|s| &s.findings)
            .filter(|f| f.severity == severity)
            .count()
    }

    /// The most severe finding present, `None` for a clean report.
    fn max_severity(&self) -> Option<Severity> {
        self.subjects
            .iter()
            .flat_map(|s| &s.findings)
            .map(|f| f.severity)
            .max()
    }

    /// Whether CI may pass: no deny-severity finding anywhere.
    pub fn passes_ci(&self) -> bool {
        self.max_severity() < Some(Severity::Deny)
    }

    /// Serializes to the schema-versioned JSON document. The optional
    /// `sta` section is emitted only when present, so cross-check-free
    /// reports are byte-identical to pre-section ones.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::Str(CHECK_SCHEMA.into())),
            ("tool_version".into(), Json::Str(self.tool_version.clone())),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("deny".into(), Json::Num(self.count(Severity::Deny) as f64)),
                    ("warn".into(), Json::Num(self.count(Severity::Warn) as f64)),
                    ("info".into(), Json::Num(self.count(Severity::Info) as f64)),
                    (
                        "schedules_explored".into(),
                        Json::Num(self.schedules_explored as f64),
                    ),
                ]),
            ),
            (
                "subjects".into(),
                Json::Arr(
                    self.subjects
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                ("kind".into(), Json::Str(s.kind.clone())),
                                (
                                    "findings".into(),
                                    Json::Arr(
                                        s.findings
                                            .iter()
                                            .map(|f| {
                                                Json::Obj(vec![
                                                    ("rule".into(), Json::Str(f.rule.to_owned())),
                                                    (
                                                        "severity".into(),
                                                        Json::Str(f.severity.name().to_owned()),
                                                    ),
                                                    (
                                                        "location".into(),
                                                        Json::Str(f.location.clone()),
                                                    ),
                                                    (
                                                        "message".into(),
                                                        Json::Str(f.message.clone()),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(sta) = &self.sta {
            fields.push(("sta".into(), sta.to_json()));
        }
        Json::Obj(fields)
    }

    /// Deserializes (and thereby validates) a report document: schema
    /// tag, field types, rule registration, severity consistency with
    /// the registry, and summary-count consistency are all enforced.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first problem found.
    pub fn from_json(value: &Json) -> Result<Report, JsonError> {
        let fail = |message: String| JsonError { offset: 0, message };
        let req_str = |obj: &Json, key: &str| {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| fail(format!("missing/invalid field '{key}'")))
        };
        let schema = req_str(value, "schema")?;
        if schema != CHECK_SCHEMA {
            return Err(fail(format!("unsupported schema '{schema}'")));
        }
        let mut subjects = Vec::new();
        for s in value
            .get("subjects")
            .and_then(Json::as_arr)
            .ok_or_else(|| fail("missing subjects array".into()))?
        {
            let mut findings = Vec::new();
            for f in s
                .get("findings")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail("missing findings array".into()))?
            {
                let rule = req_str(f, "rule")?;
                let spec =
                    rule_spec(&rule).ok_or_else(|| fail(format!("unregistered rule '{rule}'")))?;
                let severity = req_str(f, "severity")?;
                if Severity::from_name(&severity) != Some(spec.severity) {
                    return Err(fail(format!(
                        "severity '{severity}' disagrees with registry for '{rule}'"
                    )));
                }
                findings.push(Finding::new(
                    spec.id,
                    req_str(f, "location")?,
                    req_str(f, "message")?,
                ));
            }
            subjects.push(Subject {
                name: req_str(s, "name")?,
                kind: req_str(s, "kind")?,
                findings,
            });
        }
        let summary = value
            .get("summary")
            .ok_or_else(|| fail("missing summary block".into()))?;
        let report = Report {
            tool_version: req_str(value, "tool_version")?,
            subjects,
            schedules_explored: summary
                .get("schedules_explored")
                .and_then(Json::as_u64)
                .ok_or_else(|| fail("missing/invalid field 'schedules_explored'".into()))?,
            sta: value.get("sta").map(StaSection::from_json).transpose()?,
        };
        for severity in [Severity::Deny, Severity::Warn, Severity::Info] {
            let claimed = summary
                .get(severity.name())
                .and_then(Json::as_u64)
                .ok_or_else(|| fail(format!("missing/invalid summary count '{severity}'")))?;
            let actual = report.count(severity) as u64;
            if claimed != actual {
                return Err(fail(format!(
                    "summary claims {claimed} {severity} finding(s), document has {actual}"
                )));
            }
        }
        Ok(report)
    }

    /// Parses and validates a serialized report.
    ///
    /// # Errors
    ///
    /// Returns the parse or schema error rendered as a string.
    pub fn validate(text: &str) -> Result<Report, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        Report::from_json(&value).map_err(|e| e.message)
    }
}

impl Default for Report {
    fn default() -> Report {
        Report::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut report = Report::new();
        report.push(Subject::new(
            "c17",
            "netlist",
            vec![
                Finding::new("AVC-N005", "g3", "dangling"),
                Finding::new("AVC-N009", "g4", "duplicate fan-in"),
            ],
        ));
        report.push(Subject::new("delay-model", "delay-model", Vec::new()));
        report.push(Subject::new(
            "engine-protocols",
            "concurrency",
            vec![Finding::new("AVC-C001", "claim-bit", "two winners")],
        ));
        report.schedules_explored = 1234;
        report
    }

    #[test]
    fn round_trip_is_identity() {
        let report = sample();
        let text = report.to_json().to_string_pretty();
        assert!(!text.contains("\"sta\""), "no sta section when None");
        let back = Report::validate(&text).expect("valid document");
        assert_eq!(back, report);
    }

    #[test]
    fn sta_section_round_trips() {
        let mut report = sample();
        report.sta = Some(StaSection {
            epsilon_ps: 1e-6,
            rows: vec![
                StaRow {
                    circuit: "c17".into(),
                    voltage: 0.55,
                    sta_latest_ps: 42.5,
                    sim_latest_ps: Some(40.0),
                    margin_ps: Some(2.5),
                },
                StaRow {
                    circuit: "rca8".into(),
                    voltage: 1.1,
                    sta_latest_ps: 10.0,
                    sim_latest_ps: None,
                    margin_ps: None,
                },
            ],
        });
        let text = report.to_json().to_string_pretty();
        assert!(text.contains(STA_SCHEMA));
        let back = Report::validate(&text).expect("valid document");
        assert_eq!(back, report);
        // A corrupted section schema tag is rejected.
        let bad = text.replace(STA_SCHEMA, "avfs-check-sta/99");
        assert!(Report::validate(&bad)
            .unwrap_err()
            .contains("unsupported sta section schema"));
    }

    #[test]
    fn severity_aggregation() {
        let report = sample();
        assert_eq!(report.count(Severity::Deny), 1);
        assert_eq!(report.count(Severity::Warn), 1);
        assert_eq!(report.count(Severity::Info), 1);
        assert_eq!(report.max_severity(), Some(Severity::Deny));
        assert!(!report.passes_ci());
        let clean = Report::new();
        assert_eq!(clean.max_severity(), None);
        assert!(clean.passes_ci());
        let mut warn_only = Report::new();
        warn_only.push(Subject::new(
            "c17",
            "netlist",
            vec![Finding::new("AVC-N007", "a", "unused")],
        ));
        assert!(warn_only.passes_ci(), "warn findings do not fail CI");
    }

    #[test]
    fn validate_rejects_corrupt_documents() {
        assert!(Report::validate("not json").is_err());
        assert!(Report::validate("{}").is_err());
        let wrong = r#"{"schema": "avfs-check/99", "subjects": []}"#;
        assert!(Report::validate(wrong).unwrap_err().contains("unsupported"));
        // Unregistered rule.
        let text = sample()
            .to_json()
            .to_string_pretty()
            .replace("AVC-N005", "AVC-Z999");
        assert!(Report::validate(&text).unwrap_err().contains("AVC-Z999"));
        // Severity drifted from the registry.
        let text = sample()
            .to_json()
            .to_string_pretty()
            .replace(r#""severity": "info""#, r#""severity": "deny""#);
        assert!(Report::validate(&text).unwrap_err().contains("disagrees"));
    }

    #[test]
    fn summary_counts_are_checked() {
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            if let Some((_, Json::Obj(summary))) = fields.iter_mut().find(|(k, _)| k == "summary") {
                for (k, val) in summary.iter_mut() {
                    if k == "deny" {
                        *val = Json::Num(7.0);
                    }
                }
            }
        }
        let err = Report::validate(&v.to_string_pretty()).unwrap_err();
        assert!(err.contains("summary claims 7"), "{err}");
    }
}
