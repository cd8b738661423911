//! Tier-1 lint for piecewise operating-point schedules (AVC-N010).
//!
//! The scenario engine drives each slot with a *schedule* of
//! `(t_start, voltage)` segments (DESIGN.md §5). A malformed schedule —
//! empty, not anchored at `t = 0`, non-finite, or with non-increasing
//! segment starts — has no sound simulation semantics: segment lookup is
//! a `partition_point` over the boundary list, which requires a strictly
//! sorted, finite timeline covering the launch instant. `avfs-core`
//! refuses an un-lowerable schedule before a single kernel evaluation and
//! records the findings of a repairable one (an unanchored first segment,
//! which lowering extends back to `t = 0`) in the run's diagnostics, where
//! a caller that wants to refuse such a launch reads them.
//!
//! A second, compile-time lint ([`lint_schedule_voltages`], `AVC-D006`)
//! checks segment supplies against the *characterized* voltage range:
//! the delay model's polynomials extrapolate badly outside it, so the
//! runtime clamps — this lint makes the clamp visible instead of silent.

use crate::Findings;

/// Lints one schedule given as `(t_start_ps, voltage)` pairs in declared
/// order, writing into `findings`. Every finding is `AVC-N010` (Deny).
/// Nothing is added when the schedule is well-formed: non-empty, first
/// segment at `t = 0`, strictly increasing finite start times, and
/// finite positive voltages.
pub fn lint_schedule(location: &str, segments: &[(f64, f64)], findings: &mut Findings) {
    let Some(&(t0, _)) = segments.first() else {
        findings.push("AVC-N010", || (location, "schedule has no segments"));
        return;
    };
    if t0 != 0.0 {
        findings.push("AVC-N010", || {
            let message = format!("first segment must start at t = 0 ps (starts at {t0} ps)");
            (location, message)
        });
    }
    for (i, &(t_start, voltage)) in segments.iter().enumerate() {
        if !t_start.is_finite() {
            findings.push("AVC-N010", || {
                (
                    location,
                    format!("segment {i} has non-finite start time {t_start}"),
                )
            });
        }
        if !voltage.is_finite() || voltage <= 0.0 {
            findings.push("AVC-N010", || {
                let message = format!("segment {i} requests invalid supply voltage {voltage} V");
                (location, message)
            });
        }
        if i > 0 {
            let prev = segments[i - 1].0;
            // `<=` misses NaN starts, but those already raised the
            // non-finite finding above.
            if t_start <= prev {
                findings.push("AVC-N010", || {
                    let message = format!(
                        "segment {i} starts at {t_start} ps, not after segment {} ({prev} ps)",
                        i - 1
                    );
                    (location, message)
                });
            }
        }
    }
}

/// Lints one schedule's segment voltages against the characterized
/// voltage range `[v_min, v_max]` (from
/// `ParameterSpace::voltage_range`). Every finding is `AVC-D006` (Warn):
/// the segment would simulate, but only after the runtime silently
/// clamps its supply onto the characterized boundary — the delay it
/// yields is the boundary voltage's, not the requested one's.
pub fn lint_schedule_voltages(
    location: &str,
    segments: &[(f64, f64)],
    v_min: f64,
    v_max: f64,
    findings: &mut Findings,
) {
    for (i, &(_, voltage)) in segments.iter().enumerate() {
        // Non-finite/non-positive voltages are AVC-N010's (Deny)
        // territory; this lint covers finite supplies that merely fall
        // off the characterized grid.
        if voltage.is_finite() && voltage > 0.0 && !(v_min..=v_max).contains(&voltage) {
            findings.push("AVC-D006", || {
                let message = format!(
                    "segment supply {voltage} V lies outside the characterized \
                     [{v_min}, {v_max}] V range; the runtime would clamp it"
                );
                (format!("{location} segment {i}"), message)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Severity};

    fn shape(location: &str, segments: &[(f64, f64)]) -> Vec<Finding> {
        let mut findings = Findings::default();
        lint_schedule(location, segments, &mut findings);
        findings.finish()
    }

    fn voltages(location: &str, segments: &[(f64, f64)], v_min: f64, v_max: f64) -> Vec<Finding> {
        let mut findings = Findings::default();
        lint_schedule_voltages(location, segments, v_min, v_max, &mut findings);
        findings.finish()
    }

    #[test]
    fn well_formed_schedules_pass() {
        assert!(shape("s", &[(0.0, 0.8)]).is_empty());
        assert!(shape("s", &[(0.0, 0.8), (50.0, 0.7), (120.0, 0.85)]).is_empty());
    }

    #[test]
    fn empty_schedule_denied() {
        let f = shape("scenario 0", &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "AVC-N010");
        assert_eq!(f[0].severity, Severity::Deny);
        assert_eq!(f[0].location, "scenario 0");
    }

    #[test]
    fn unanchored_start_denied() {
        let f = shape("s", &[(5.0, 0.8)]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("t = 0"), "{}", f[0].message);
    }

    #[test]
    fn unsorted_and_duplicate_starts_denied() {
        assert_eq!(shape("s", &[(0.0, 0.8), (50.0, 0.7), (40.0, 0.9)]).len(), 1);
        // Equal start times are also non-increasing.
        assert_eq!(shape("s", &[(0.0, 0.8), (50.0, 0.7), (50.0, 0.9)]).len(), 1);
    }

    #[test]
    fn out_of_range_voltages_warned_in_range_passes() {
        assert!(voltages("s", &[(0.0, 0.8), (50.0, 0.55)], 0.55, 1.1).is_empty());
        let f = voltages(
            "scenario 2",
            &[(0.0, 0.4), (50.0, 0.8), (90.0, 1.2)],
            0.55,
            1.1,
        );
        assert_eq!(f.len(), 2);
        for finding in &f {
            assert_eq!(finding.rule, "AVC-D006");
            assert_eq!(finding.severity, Severity::Warn);
        }
        assert_eq!(f[0].location, "scenario 2 segment 0");
        assert_eq!(f[1].location, "scenario 2 segment 2");
        // Invalid voltages are AVC-N010's problem, not AVC-D006's.
        assert!(voltages("s", &[(0.0, f64::NAN), (1.0, -2.0)], 0.55, 1.1).is_empty());
    }

    #[test]
    fn non_finite_fields_denied() {
        assert!(!shape("s", &[(0.0, 0.8), (f64::NAN, 0.7)]).is_empty());
        assert!(!shape("s", &[(0.0, f64::INFINITY)]).is_empty());
        assert!(!shape("s", &[(0.0, 0.8), (10.0, -0.1)]).is_empty());
        assert!(!shape("s", &[(0.0, 0.0)]).is_empty());
    }
}
