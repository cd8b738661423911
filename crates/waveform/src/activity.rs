//! Switching-activity analysis of simulated waveforms (paper Fig. 2,
//! step 4: "the waveforms are analyzed to extract the output information,
//! such as test responses, switching activity and transition times").

use crate::WaveformRead;

/// Per-waveform summary extracted after simulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WaveformStats {
    /// Total number of transitions.
    pub transitions: usize,
    /// Transitions in excess of the functionally necessary ones — the
    /// glitch count. A net whose initial and final values differ needs one
    /// transition; one that returns to its initial value needs none.
    pub glitch_transitions: usize,
    /// The time of the latest transition, or `None` if the signal never
    /// switched.
    pub latest_transition: Option<f64>,
    /// The value at the end of the window (the test response).
    pub final_value: bool,
}

impl WaveformStats {
    /// Analyzes one waveform (owned or a [`crate::WaveformView`]).
    pub fn of<W: WaveformRead>(waveform: &W) -> WaveformStats {
        let times = waveform.transitions();
        let transitions = times.len();
        let final_value = waveform.initial_value() ^ (transitions % 2 == 1);
        let functional = usize::from(waveform.initial_value() != final_value);
        WaveformStats {
            transitions,
            glitch_transitions: transitions - functional,
            latest_transition: times.last().copied(),
            final_value,
        }
    }
}

/// Aggregated switching activity over a set of nets (one simulation slot).
///
/// # Example
///
/// ```
/// use avfs_waveform::{SwitchingActivity, Waveform};
///
/// # fn main() -> Result<(), avfs_waveform::WaveformError> {
/// let wfs = vec![
///     Waveform::with_transitions(false, vec![5.0])?,
///     Waveform::with_transitions(false, vec![3.0, 9.0])?, // glitch pulse
/// ];
/// let act = SwitchingActivity::of(wfs.iter());
/// assert_eq!(act.total_transitions, 3);
/// assert_eq!(act.total_glitch_transitions, 2);
/// assert_eq!(act.latest_transition, Some(9.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchingActivity {
    /// Sum of transitions over all nets.
    pub total_transitions: usize,
    /// Sum of glitch transitions over all nets.
    pub total_glitch_transitions: usize,
    /// Number of nets that toggled at least once.
    pub active_nets: usize,
    /// Number of analyzed nets.
    pub nets: usize,
    /// Latest transition over all nets (the "latest transition arrival
    /// time" of Table II when restricted to output nets).
    pub latest_transition: Option<f64>,
}

impl SwitchingActivity {
    /// Aggregates statistics over a collection of waveforms.
    pub fn of<W: WaveformRead>(waveforms: impl IntoIterator<Item = W>) -> SwitchingActivity {
        let mut act = SwitchingActivity::default();
        for w in waveforms {
            act.record(&WaveformStats::of(&w));
        }
        act
    }

    /// Adds one net's statistics. Sums and one maximum, so the result
    /// does not depend on the order nets are recorded in.
    pub fn record(&mut self, net: &WaveformStats) {
        self.merge(&SwitchingActivity {
            total_transitions: net.transitions,
            total_glitch_transitions: net.glitch_transitions,
            active_nets: usize::from(net.transitions > 0),
            nets: 1,
            latest_transition: net.latest_transition,
        });
    }

    /// Folds in the activity of a disjoint set of nets.
    pub fn merge(&mut self, other: &SwitchingActivity) {
        self.total_transitions += other.total_transitions;
        self.total_glitch_transitions += other.total_glitch_transitions;
        self.active_nets += other.active_nets;
        self.nets += other.nets;
        self.latest_transition = match (self.latest_transition, other.latest_transition) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;

    fn wf(initial: bool, times: &[f64]) -> Waveform {
        Waveform::with_transitions(initial, times.to_vec()).unwrap()
    }

    #[test]
    fn stats_of_clean_transition() {
        let s = WaveformStats::of(&wf(false, &[10.0]));
        assert_eq!(s.transitions, 1);
        assert_eq!(s.glitch_transitions, 0);
        assert_eq!(s.latest_transition, Some(10.0));
        assert!(s.final_value);
    }

    #[test]
    fn stats_of_glitch_pulse() {
        // Returns to the initial value: both transitions are glitch.
        let s = WaveformStats::of(&wf(false, &[10.0, 12.0]));
        assert_eq!(s.transitions, 2);
        assert_eq!(s.glitch_transitions, 2);
        assert!(!s.final_value);
    }

    #[test]
    fn stats_of_hazardous_transition() {
        // Three transitions ending opposite: one functional, two glitch.
        let s = WaveformStats::of(&wf(false, &[10.0, 12.0, 20.0]));
        assert_eq!(s.glitch_transitions, 2);
        assert!(s.final_value);
    }

    #[test]
    fn stats_of_constant() {
        let s = WaveformStats::of(&Waveform::constant(true));
        assert_eq!(s.transitions, 0);
        assert_eq!(s.glitch_transitions, 0);
        assert_eq!(s.latest_transition, None);
        assert!(s.final_value);
    }

    #[test]
    fn quiet_bit_edge_cases() {
        // The engine's quiet bit is exactly `transitions == 0`. Constant
        // waveforms of either polarity are quiet regardless of their value.
        for initial in [false, true] {
            let s = WaveformStats::of(&Waveform::constant(initial));
            assert_eq!(s.transitions, 0);
            assert_eq!(s.glitch_transitions, 0);
            assert_eq!(s.latest_transition, None);
            assert_eq!(s.final_value, initial);
        }
        // A single-transition net is NOT quiet even though it is entirely
        // glitch-free: its one functional transition must still propagate.
        let s = WaveformStats::of(&wf(true, &[42.0]));
        assert_eq!(s.transitions, 1);
        assert_eq!(s.glitch_transitions, 0);
        assert_eq!(s.latest_transition, Some(42.0));
        assert!(!s.final_value);
        // A glitch-only net that returns to its initial value is NOT quiet
        // either — its final value matches a constant, but the pulse can
        // still stretch or propagate through downstream gates.
        let s = WaveformStats::of(&wf(true, &[10.0, 11.5]));
        assert_eq!(s.transitions, 2);
        assert_eq!(s.glitch_transitions, 2);
        assert_eq!(s.latest_transition, Some(11.5));
        assert!(s.final_value, "returns to its initial value");
    }

    #[test]
    fn inactive_nets_complement_active_nets() {
        // `nets - active_nets` is the per-slot quiet-cell tally the engine
        // reports as `engine.quiet_cells`.
        let wfs = [
            Waveform::constant(false),
            wf(true, &[1.0]),
            Waveform::constant(true),
            wf(false, &[2.0, 3.0]),
        ];
        let act = SwitchingActivity::of(wfs.iter());
        assert_eq!(act.nets, 4);
        assert_eq!(act.active_nets, 2);
        assert_eq!(act.nets - act.active_nets, 2);
    }

    #[test]
    fn aggregate_activity() {
        let wfs = [
            wf(false, &[5.0]),
            Waveform::constant(true),
            wf(true, &[3.0, 9.0, 11.0]),
        ];
        let act = SwitchingActivity::of(wfs.iter());
        assert_eq!(act.nets, 3);
        assert_eq!(act.active_nets, 2);
        assert_eq!(act.total_transitions, 4);
        assert_eq!(act.total_glitch_transitions, 2);
        assert_eq!(act.latest_transition, Some(11.0));
    }

    #[test]
    fn empty_aggregate() {
        let act = SwitchingActivity::of(std::iter::empty::<&Waveform>());
        assert_eq!(act, SwitchingActivity::default());
    }
}
