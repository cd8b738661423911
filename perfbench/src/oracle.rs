//! Correctness checks: slot-for-slot comparisons against a reference,
//! completion counts and the result digest. Every check runs outside
//! the timed regions; a failure adds to `failed` and fails the command.
//! No golden values are pinned, so a later correctness fix is not
//! blocked by the benchmark.

use avfs_core::{SimRun, SlotResult};

/// Running tally of slots checked and slots found wrong.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// Slots attempted (every slot of every checked launch).
    pub attempted: u64,
    /// Slots that did not complete or disagreed with their oracle.
    pub failed: u64,
    /// One line per failed check, for the operator.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Whether every check passed so far.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records `failed` failures of the check called `what`.
    pub fn fail(&mut self, what: &str, failed: u64) {
        if failed > 0 {
            self.failed += failed;
            self.notes.push(format!("{what}: {failed} slot(s) failed"));
        }
    }

    /// Counts `run`'s slots as attempted and the ones that did not
    /// complete as failed.
    pub fn completed(&mut self, what: &str, run: &SimRun) {
        self.attempted += run.slots.len() as u64;
        let incomplete = run
            .slots
            .iter()
            .filter(|s| !s.status.is_completed())
            .count();
        self.fail(&format!("{what}: not completed"), incomplete as u64);
    }

    /// Holds `got` against `reference` slot by slot (status, responses,
    /// latest arrival, switching activity — bitwise). The slots count as
    /// attempted through [`Verdict::completed`], not again here.
    pub fn identical(&mut self, what: &str, reference: &[SlotResult], got: &[SlotResult]) {
        self.fail(what, mismatching_slots(reference, got));
    }
}

/// Slots of `got` that differ from `reference`, a length difference
/// counting one per missing or extra slot.
pub fn mismatching_slots(reference: &[SlotResult], got: &[SlotResult]) -> u64 {
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count();
    (differing + reference.len().abs_diff(got.len())) as u64
}

/// FNV-1a over every slot's status, latest arrival, transition count and
/// responses, folded to 52 bits so it survives a trip through a JSON
/// number. Identical for identical simulated results, whatever the host
/// did.
pub fn result_digest(slots: &[SlotResult]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    };
    for slot in slots {
        eat(u64::from(slot.status.is_completed()));
        eat(slot
            .latest_output_transition_ps
            .map_or(u64::MAX, f64::to_bits));
        eat(slot.activity.total_transitions as u64);
        eat(slot.responses.iter().filter(|&&r| r).count() as u64);
    }
    (hash >> 12) ^ (hash & 0xfff)
}

/// Latest output arrival over all slots, ps.
pub fn latest_arrival_ps(slots: &[SlotResult]) -> f64 {
    slots
        .iter()
        .filter_map(|s| s.latest_output_transition_ps)
        .fold(0.0, f64::max)
}

/// Net transitions summed over all slots.
pub fn total_transitions(slots: &[SlotResult]) -> u64 {
    slots
        .iter()
        .map(|s| s.activity.total_transitions as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfs_core::{SlotSpec, SlotStatus};

    fn slot(pattern: usize, arrival: f64) -> SlotResult {
        SlotResult {
            spec: SlotSpec {
                pattern,
                voltage: 0.8,
            },
            status: SlotStatus::default(),
            responses: vec![true, false],
            latest_output_transition_ps: Some(arrival),
            activity: Default::default(),
            waveforms: None,
        }
    }

    fn run_of(slots: Vec<SlotResult>) -> SimRun {
        SimRun {
            slots,
            elapsed: std::time::Duration::ZERO,
            node_evaluations: 0,
            diagnostics: Default::default(),
            profile: None,
            scenario: None,
        }
    }

    #[test]
    fn a_mismatching_slot_fails_the_verdict_and_the_command() {
        let reference = vec![slot(0, 100.0), slot(1, 120.0)];
        let mut verdict = Verdict::default();
        verdict.completed("launch", &run_of(reference.clone()));
        verdict.identical("same", &reference, &reference.clone());
        assert!(verdict.correct());
        assert_eq!((verdict.attempted, verdict.failed), (2, 0));

        // One slot arrives one ulp later: bitwise comparison catches it.
        let mut off = reference.clone();
        off[1].latest_output_transition_ps = Some(f64::from_bits(120.0f64.to_bits() + 1));
        verdict.identical("one ulp late", &reference, &off);
        assert!(!verdict.correct());
        assert_eq!(verdict.failed, 1);
        assert_eq!(verdict.notes.len(), 1);

        // The process exit code follows the verdict: `correct` is false
        // in the result object and `main` maps it to a non-zero status.
        let outcome = crate::child::Outcome {
            verdict,
            metrics: Vec::new(),
            detail: Default::default(),
        };
        let result = crate::result_json(&outcome);
        assert_eq!(
            result.get("correct"),
            Some(&avfs_obs::json::Json::Bool(false))
        );
        assert_eq!(
            result.get("failed").and_then(avfs_obs::json::Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn missing_extra_and_incomplete_slots_count_as_failed() {
        let reference = vec![slot(0, 1.0), slot(1, 2.0), slot(2, 3.0)];
        assert_eq!(mismatching_slots(&reference, &reference[..2]), 1);
        assert_eq!(mismatching_slots(&reference[..1], &reference), 2);
        let mut panicked = slot(0, 1.0);
        panicked.status = SlotStatus::Panicked;
        let mut verdict = Verdict::default();
        verdict.completed("launch", &run_of(vec![panicked, slot(1, 2.0)]));
        assert_eq!((verdict.attempted, verdict.failed), (2, 1));
    }

    #[test]
    fn digest_sees_every_field_it_names_and_fits_a_json_number() {
        let base = vec![slot(0, 100.0), slot(1, 120.0)];
        let digest = result_digest(&base);
        assert_eq!(digest, result_digest(&base.clone()));
        assert!(digest < 1 << 53);
        assert_eq!(digest as f64 as u64, digest);
        let mut arrival = base.clone();
        arrival[0].latest_output_transition_ps = Some(100.5);
        let mut status = base.clone();
        status[1].status = SlotStatus::Panicked;
        let mut transitions = base.clone();
        transitions[0].activity.total_transitions = 7;
        let mut response = base.clone();
        response[1].responses = vec![true, true];
        for changed in [arrival, status, transitions, response] {
            assert_ne!(result_digest(&changed), digest);
        }
        assert_eq!(latest_arrival_ps(&base), 120.0);
        assert_eq!(total_transitions(&base), 0);
    }
}
