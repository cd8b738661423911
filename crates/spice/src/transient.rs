//! Transient analysis of a single switching stage.
//!
//! Integrates the output-node ODE
//!
//! ```text
//! C · dV_out/dt = ± I_D(V_in(t), V_out)
//! ```
//!
//! with a linear input ramp, using the embedded Dormand–Prince 5(4) pair
//! under local error control, and measures the propagation delay as the
//! time between the input and output 50 % crossings — the standard
//! `.MEASURE TRIG v(in) VAL=vdd/2 TARG v(out) VAL=vdd/2` of a SPICE deck.
//!
//! The integration does only what that measurement needs:
//!
//! * it starts at the device's turn-on, `t = slew · V_th / V_DD`: before
//!   it the device is in cut-off and the output does not move;
//! * a step is accepted when the pair's embedded error estimate is within
//!   `1e-7 · V_DD`, and the next step is sized from that estimate; a step
//!   that would pass the ramp's end, `t = slew`, is cut to land on it,
//!   because the gate drive has a corner there;
//! * no step is longer than `τ/20`, `τ` the stage time constant at full
//!   drive: the drain current is only C¹ where `V_ds` crosses `V_dsat`,
//!   and the embedded estimate does not see the error a long step commits
//!   across that kink;
//! * the last slope of a step is the next step's first (FSAL), so a step
//!   costs six slopes, and the gate-dependent half of the drain current
//!   (the `powf`, see [`crate::mosfet`]) is evaluated once per distinct
//!   gate time while the input ramps and never again once it has reached
//!   `V_DD`; every slope then costs only the `V_ds` profile;
//! * the loop ends at the step that crosses the output's 50 %, and the
//!   crossing is the root of that step's 4th-order dense output (a linear
//!   interpolation across a step this long is not accurate enough);
//! * a [`SweepPlan`](crate::sweep::SweepPlan) runs one transient per
//!   distinct [`Stage`]: the first stage of a two-stage cell does not see
//!   the external load, and symmetric pins reduce to the same equivalent
//!   device.
//!
//! A step is six dependent slopes of two dependent divisions each, so a
//! single stage keeps a core waiting on latency. The integrator is
//! therefore a lane kernel: eight distinct stages step in lockstep, slope
//! by slope, so an out-of-order core overlaps their chains; each lane has
//! its own step size and its own accept/reject decision, and a lane whose
//! stage is done takes the next one from the sweep's cursor. Every lane
//! runs the serial statement sequence on its own state, so a stage's
//! delay does not depend on its neighbours; [`simulate_stage`] is the
//! one-stage call.
//!
//! The fixed-step RK4 integrator this kernel replaced (`τ/400` or `slew/40`
//! per step, whichever is shorter) survives as the tests' oracle: run at a
//! quarter of its step, it bounds every delay to within 0.01 %.

use crate::mosfet::{DeviceType, Drive, Mosfet};
use crate::technology::Technology;
use crate::SpiceError;

/// Description of one switching stage to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stage {
    /// The equivalent conducting device (width already derated for stack).
    pub device: Mosfet,
    /// Total capacitance at the output node, fF (load + parasitic).
    pub cap_ff: f64,
    /// Supply voltage, V.
    pub vdd: f64,
    /// Input ramp duration (0 → V_DD), ps.
    pub slew_ps: f64,
}

/// Result of one transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientResult {
    /// 50 %-to-50 % propagation delay, ps.
    pub delay_ps: f64,
}

/// µA / fF → V/ps conversion: 1 µA into 1 fF slews 1 V per ns = 1e-3 V/ps.
const UA_PER_FF_TO_V_PER_PS: f64 = 1.0e-3;

/// Integration budget in step attempts, accepted or rejected: enough for
/// very slow near-threshold corners.
const MAX_STEPS: usize = 4_000_000;

/// The local error a step may commit, as a fraction of `V_DD`.
const TOLERANCE: f64 = 1e-7;

/// The first step, as a fraction of the stage time constant
/// `τ = C · V_DD / I_dsat(V_DD)`.
const FIRST_STEP: f64 = 1.0 / 400.0;

/// The longest step, as a fraction of `τ`.
const STEP_CAP: f64 = 1.0 / 20.0;

/// Dormand–Prince 5(4): the stage nodes `c`.
const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];

/// The stage weights: row `s` weighs slopes `0..s` into stage `s`'s
/// state. The last row is the 5th-order solution, so the last stage's
/// slope is the next step's first.
const A: [[f64; 6]; 7] = [
    [0.0; 6],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];

/// The 5th- less the 4th-order weights: the local error estimate.
const E: [f64; 7] = [
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
];

/// The weights of the dense output's 4th-order term (Hairer's DOPRI5).
const D: [f64; 7] = [
    -12715105075.0 / 11282082432.0,
    0.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
];

/// Stages one kernel call integrates in lockstep. Measured on a 2-vCPU
/// x86-64 host (Xeon, 2.0 GHz): the whole library at the paper's sweep
/// (27 144 distinct stages, 455 433 accepted steps) on one thread takes
/// 0.10–0.11 s at 1 lane, 0.053 s at 4, 0.053–0.055 s at 8 and
/// 0.053–0.057 s at 16; the 64-bit adder's sweep alone on both threads
/// takes 2.7, 1.3, 1.2 and 1.2 ms.
pub(crate) const LANES: usize = 8;

/// Where a lane kernel takes its stages from and leaves their outcomes.
pub(crate) trait StageFeed {
    /// The index of the next stage to integrate, or `None` to stop
    /// refilling: the kernel then finishes the stages it holds and returns.
    fn claim(&mut self) -> Option<usize>;

    /// The outcome of a claimed stage: its delay in ps, or its error.
    fn emit(&mut self, index: usize, outcome: Result<f64, SpiceError>);
}

/// Runs a transient analysis of `stage` and measures the propagation delay.
///
/// The output starts at the opposite rail and is driven toward the target
/// rail by the conducting device while the input ramps linearly across the
/// supply. For an NMOS stage the output falls from `vdd` to 0; for a PMOS
/// stage it rises from 0 to `vdd`. The integration stops at the output's
/// 50 % crossing.
///
/// # Errors
///
/// * [`SpiceError::InvalidOperatingPoint`] if `vdd` is at or below the
///   device threshold (the stage would never switch) or a parameter is
///   non-finite, a capacitance, width or threshold non-positive, or the
///   input slew negative (`slew_ps == 0` is a step input).
/// * [`SpiceError::NoConvergence`] if the integration budget is exhausted
///   before the 50 % crossing (pathological configurations only).
pub fn simulate_stage(tech: &Technology, stage: &Stage) -> Result<TransientResult, SpiceError> {
    /// Hands out stage 0 once and keeps its outcome.
    struct One(bool, Option<Result<f64, SpiceError>>);
    impl StageFeed for One {
        fn claim(&mut self) -> Option<usize> {
            (!std::mem::replace(&mut self.0, true)).then_some(0)
        }
        fn emit(&mut self, _: usize, outcome: Result<f64, SpiceError>) {
            self.1 = Some(outcome);
        }
    }
    let mut one = One(false, None);
    integrate_lanes(tech, std::slice::from_ref(stage), &mut one);
    let outcome = one.1.expect("the kernel resolves every stage it claims");
    outcome.map(|delay_ps| TransientResult { delay_ps })
}

/// Integrates `stages[i]` for every index `feed` hands out, [`LANES`] at a
/// time, and returns the steps accepted. A lane whose stage crosses, fails
/// validation or exhausts [`MAX_STEPS`] emits that outcome and claims the
/// next index at once; once `feed` stops handing them out, the kernel runs
/// its remaining lanes to the end.
pub(crate) fn integrate_lanes(
    tech: &Technology,
    stages: &[Stage],
    feed: &mut dyn StageFeed,
) -> u64 {
    let mut lanes = [Lane::IDLE; LANES];
    let mut live = 0;
    while live < LANES {
        let Some(lane) = Lane::claim(tech, stages, feed) else {
            break;
        };
        lanes[live] = lane;
        live += 1;
    }
    let mut steps = 0u64;
    while live > 0 {
        // One step attempt of every live lane, each slope across all lanes
        // before the next, so the lanes' dependency chains interleave.
        let mut span = [(0.0, 0.0); LANES];
        let mut end = [None; LANES];
        let mut k = [[0.0; LANES]; 7];
        for (l, lane) in lanes[..live].iter().enumerate() {
            span[l] = lane.span();
            end[l] = lane.drive_at(tech, span[l].1);
            k[0][l] = lane.slope;
        }
        for s in 1..7 {
            for (l, lane) in lanes[..live].iter().enumerate() {
                let h = span[l].0;
                // The last two stages sit at the step's end, which may be
                // the ramp's end rather than `t + h` to the last bit.
                let drive = if s < 5 {
                    lane.drive_at(tech, lane.t + C[s] * h)
                } else {
                    end[l]
                };
                let dv = (0..s).fold(0.0, |dv, j| dv + A[s][j] * k[j][l]);
                k[s][l] = lane.dv_dt(drive, lane.v_out + h * dv);
            }
        }
        let mut any_done = false;
        for (l, lane) in lanes[..live].iter_mut().enumerate() {
            any_done |= lane.finish(std::array::from_fn(|s| k[s][l]), span[l]);
        }
        if !any_done {
            continue;
        }
        // Retire from the top down, so a lane moved into a retired one's
        // place has already been looked at.
        for l in (0..live).rev() {
            let Some(outcome) = lanes[l].outcome() else {
                continue;
            };
            steps += lanes[l].steps as u64;
            feed.emit(lanes[l].index, outcome);
            if let Some(lane) = Lane::claim(tech, stages, feed) {
                lanes[l] = lane;
            } else {
                live -= 1;
                lanes[l] = lanes[live];
            }
        }
    }
    steps
}

/// One stage in flight: its constants and the integration state.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// The stage's index in the kernel's list.
    index: usize,
    device: Mosfet,
    /// The rail the conducting device pulls the output to: 0 for the
    /// NMOS, `vdd` for the PMOS.
    rail: f64,
    /// The output's direction: −1 falling, +1 rising.
    sign: f64,
    vdd: f64,
    cap_ff: f64,
    slew_ps: f64,
    v_half: f64,
    /// Input 50 % crossing of the linear ramp.
    t_in_cross: f64,
    /// The gate state once the ramp has reached `vdd`.
    full: Option<Drive>,
    /// The error bound per step, V.
    tol: f64,
    /// The longest step, ps.
    h_max: f64,
    /// The size of the next step attempt.
    h: f64,
    /// The last attempt was rejected: the next one may not grow.
    rejected: bool,
    v_out: f64,
    t: f64,
    /// dV_out/dt at `(t, v_out)`: the next step's first slope.
    slope: f64,
    /// Steps accepted and step attempts so far.
    steps: usize,
    attempts: usize,
    /// The delay, once an accepted step has crossed the output's 50 %.
    delay_ps: Option<f64>,
    /// The stage has crossed or exhausted the budget.
    done: bool,
}

impl Lane {
    /// A placeholder for an empty lane; never stepped.
    const IDLE: Lane = Lane {
        index: 0,
        device: Mosfet {
            device: DeviceType::Nmos,
            width: 0.0,
            vth: 0.0,
        },
        rail: 0.0,
        sign: -1.0,
        vdd: 0.0,
        cap_ff: 0.0,
        slew_ps: 0.0,
        v_half: 0.0,
        t_in_cross: 0.0,
        full: None,
        tol: 0.0,
        h_max: 0.0,
        h: 0.0,
        rejected: false,
        v_out: 0.0,
        t: 0.0,
        slope: 0.0,
        steps: 0,
        attempts: 0,
        delay_ps: None,
        done: false,
    };

    /// Claims stages from `feed` until one is valid and returns its lane;
    /// an invalid stage's error is emitted on the way. `None` once the
    /// feed has no more.
    fn claim(tech: &Technology, stages: &[Stage], feed: &mut dyn StageFeed) -> Option<Lane> {
        loop {
            let index = feed.claim()?;
            match Lane::start(tech, index, &stages[index]) {
                Ok(lane) => return Some(lane),
                Err(e) => feed.emit(index, Err(e)),
            }
        }
    }

    /// Validates `stage` and sets up its integration at the device's
    /// turn-on.
    fn start(tech: &Technology, index: usize, stage: &Stage) -> Result<Lane, SpiceError> {
        let Stage {
            device,
            cap_ff,
            vdd,
            slew_ps,
        } = *stage;
        let invalid = |reason| Err(SpiceError::InvalidOperatingPoint { vdd, reason });
        if !vdd.is_finite() || !cap_ff.is_finite() || cap_ff <= 0.0 {
            return invalid("non-finite or non-positive stage parameters");
        }
        if !slew_ps.is_finite() || slew_ps < 0.0 {
            return invalid("non-finite or negative input slew");
        }
        if !device.width.is_finite() || device.width <= 0.0 {
            return invalid("non-finite or non-positive device width");
        }
        if !device.vth.is_finite() || device.vth <= 0.0 {
            return invalid("non-finite or non-positive device threshold");
        }
        if vdd <= device.vth + 0.05 {
            return invalid("supply voltage at or below device threshold");
        }

        let (rail, sign) = match device.device {
            DeviceType::Nmos => (0.0, -1.0),
            DeviceType::Pmos => (vdd, 1.0),
        };
        // The step sizes from the stage time constant at full drive.
        let i_full = device.saturation_current(tech, vdd).max(1e-9);
        let tau_ps = cap_ff * vdd / (i_full * UA_PER_FF_TO_V_PER_PS);
        let mut lane = Lane {
            index,
            device,
            rail,
            sign,
            vdd,
            cap_ff,
            slew_ps,
            v_half: vdd / 2.0,
            t_in_cross: slew_ps * 0.5,
            full: device.drive(tech, vdd),
            tol: TOLERANCE * vdd,
            h_max: STEP_CAP * tau_ps,
            h: FIRST_STEP * tau_ps,
            v_out: vdd - rail,
            t: slew_ps * device.vth / vdd,
            ..Lane::IDLE
        };
        lane.slope = lane.dv_dt(lane.drive_at(tech, lane.t), lane.v_out);
        Ok(lane)
    }

    /// The next attempt's step and end time: `h`, cut to land on the
    /// ramp's end if it would pass it.
    fn span(&self) -> (f64, f64) {
        if self.t < self.slew_ps && self.t + self.h >= self.slew_ps {
            (self.slew_ps - self.t, self.slew_ps)
        } else {
            (self.h, self.t + self.h)
        }
    }

    /// The gate state at time `t`: the input ramps from the
    /// non-conducting rail to the conducting rail over `slew_ps`. For the
    /// NMOS (output falls) the input rises 0→vdd so |Vgs| = Vin; for the
    /// PMOS (output rises) the input falls vdd→0 so |Vgs| = vdd − Vin.
    /// Both give the same ramp in magnitude.
    fn drive_at(&self, tech: &Technology, t: f64) -> Option<Drive> {
        if t >= self.slew_ps {
            self.full
        } else {
            self.device.drive(tech, self.vdd * t / self.slew_ps)
        }
    }

    /// dV_out/dt at output voltage `v` under gate state `drive`; the vds
    /// magnitude is |V_out − conducting rail|.
    fn dv_dt(&self, drive: Option<Drive>, v: f64) -> f64 {
        let vds = self.sign * (self.rail - v);
        let i = drive.map_or(0.0, |d| d.current(vds));
        self.sign * (i * UA_PER_FF_TO_V_PER_PS / self.cap_ff)
    }

    /// Judges one attempt from its seven slopes and its `(h, t_end)`:
    /// accepts or rejects it, sizes the next, and `true` once the stage
    /// has an outcome.
    fn finish(&mut self, k: [f64; 7], (h, t_end): (f64, f64)) -> bool {
        self.attempts += 1;
        // The same sum, in the same order, as the last stage's state.
        let v_new = self.v_out + h * (0..6).fold(0.0, |dv, j| dv + A[6][j] * k[j]);
        let err = (h * (0..7).fold(0.0, |e, j| e + E[j] * k[j])).abs();
        let accepted = err <= self.tol;
        if accepted {
            self.steps += 1;
            if self.crossed(v_new) {
                let t_out_cross = self.t + h * self.crossing(&k, h, v_new);
                self.delay_ps = Some(t_out_cross - self.t_in_cross);
                self.done = true;
                return true;
            }
            self.v_out = v_new;
            self.t = t_end;
            self.slope = k[6];
        }
        // The elementary controller: the error ratio's 4th root (two square
        // roots, not a `powf`) with a safety factor, growth at most 5× and
        // none right after a rejection, shrinkage at most 5×.
        let mut grow = if err == 0.0 {
            5.0
        } else {
            (0.9 * (self.tol / err).sqrt().sqrt()).clamp(0.2, 5.0)
        };
        if self.rejected {
            grow = grow.min(1.0);
        }
        self.rejected = !accepted;
        self.h = (h * grow).min(self.h_max);
        self.done = self.attempts == MAX_STEPS;
        self.done
    }

    /// The stage's outcome once it is done: the delay, or the exhausted
    /// budget.
    fn outcome(&self) -> Option<Result<f64, SpiceError>> {
        self.done.then(|| {
            self.delay_ps
                .ok_or(SpiceError::NoConvergence { reached_ps: self.t })
        })
    }

    /// The output starts on the far side of `v_half`, so the first
    /// accepted step that lands on or past it is the crossing.
    fn crossed(&self, v: f64) -> bool {
        self.sign * (v - self.v_half) >= 0.0
    }

    /// Where in the step from `(t, v_out)` to `v_new` the output crosses
    /// `v_half`, as a fraction of `h`: the root of the step's dense
    /// output, found by regula falsi with the Illinois modification on
    /// the bracket `[0, 1]`.
    fn crossing(&self, k: &[f64; 7], h: f64, v_new: f64) -> f64 {
        let dv = v_new - self.v_out;
        let r3 = h * k[0] - dv;
        let r4 = dv - h * k[6] - r3;
        let r5 = h * (0..7).fold(0.0, |r, j| r + D[j] * k[j]);
        let miss = |theta: f64| {
            let rest = 1.0 - theta;
            self.v_out + theta * (dv + rest * (r3 + theta * (r4 + rest * r5))) - self.v_half
        };
        let (mut a, mut miss_a) = (0.0, self.v_out - self.v_half);
        let (mut b, mut miss_b) = (1.0, v_new - self.v_half);
        for _ in 0..64 {
            if miss_b.abs() <= 1e-6 * self.tol || miss_a == miss_b {
                break;
            }
            let c = (a * miss_b - b * miss_a) / (miss_b - miss_a);
            let miss_c = miss(c);
            if (miss_c < 0.0) != (miss_b < 0.0) {
                (a, miss_a) = (b, miss_b);
            } else {
                miss_a /= 2.0;
            }
            (b, miss_b) = (c, miss_c);
        }
        b
    }
}

/// The fixed-step integrator the error-controlled kernel replaced, kept
/// as its oracle at a fraction of its step: classic RK4 from `t = 0` at
/// `min(τ/400, slew/40) / divisor`, four full [`Mosfet::drain_current`]
/// calls per step, the 50 % crossing interpolated linearly inside the
/// step that reaches it.
#[cfg(test)]
fn simulate_stage_fixed(tech: &Technology, stage: &Stage, divisor: f64) -> Result<f64, SpiceError> {
    let vdd = stage.vdd;
    let falling = stage.device.device == DeviceType::Nmos;
    let v_half = vdd / 2.0;
    let vgs_at = |t: f64| -> f64 {
        if stage.slew_ps <= 0.0 {
            vdd
        } else {
            (vdd * t / stage.slew_ps).clamp(0.0, vdd)
        }
    };
    let dv_dt = |t: f64, v: f64| -> f64 {
        let vds = if falling { v } else { vdd - v };
        let i = stage.device.drain_current(tech, vgs_at(t), vds);
        let slope = i * UA_PER_FF_TO_V_PER_PS / stage.cap_ff;
        if falling {
            -slope
        } else {
            slope
        }
    };
    let i_full = stage.device.saturation_current(tech, vdd).max(1e-9);
    let tau_ps = stage.cap_ff * vdd / (i_full * UA_PER_FF_TO_V_PER_PS);
    let dt = (tau_ps / 400.0)
        .min(stage.slew_ps.max(0.1) / 40.0)
        .max(1e-4)
        / divisor;

    let mut v_out = if falling { vdd } else { 0.0 };
    let mut t = 0.0f64;
    for _ in 0..MAX_STEPS * divisor as usize {
        let v_prev = v_out;
        let k1 = dv_dt(t, v_out);
        let k2 = dv_dt(t + dt / 2.0, v_out + dt / 2.0 * k1);
        let k3 = dv_dt(t + dt / 2.0, v_out + dt / 2.0 * k2);
        let k4 = dv_dt(t + dt, v_out + dt * k3);
        v_out += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        v_out = v_out.clamp(0.0, vdd);
        if (falling && v_out <= v_half) || (!falling && v_out >= v_half) {
            let frac = if (v_out - v_prev).abs() < 1e-15 {
                1.0
            } else {
                (v_half - v_prev) / (v_out - v_prev)
            };
            return Ok(t + frac.clamp(0.0, 1.0) * dt - stage.slew_ps * 0.5);
        }
        t += dt;
    }
    Err(SpiceError::NoConvergence { reached_ps: t })
}

/// Panics unless `got` is within 0.01 % of the delay of `stage` that
/// [`simulate_stage_fixed`] measures at a quarter of its step.
#[cfg(test)]
pub(crate) fn assert_near_oracle(tech: &Technology, stage: &Stage, got: f64) {
    let want = simulate_stage_fixed(tech, stage, 4.0).expect("oracle converges");
    assert!(
        (got - want).abs() <= 1e-4 * want.abs(),
        "{stage:?}: {got} vs {want}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tech() -> Technology {
        Technology::nm15()
    }

    fn stage(vdd: f64, cap: f64, width: f64, falling: bool) -> Stage {
        let t = tech();
        Stage {
            device: if falling {
                Mosfet::nmos(&t, width)
            } else {
                Mosfet::pmos(&t, width)
            },
            cap_ff: cap,
            vdd,
            slew_ps: t.input_slew_ps,
        }
    }

    #[test]
    fn nominal_inverter_delay_in_picosecond_range() {
        let t = tech();
        let r = simulate_stage(&t, &stage(0.8, 2.0, 1.0, true)).unwrap();
        assert!(
            r.delay_ps > 1.0 && r.delay_ps < 50.0,
            "nominal fall delay {} ps outside plausible range",
            r.delay_ps
        );
    }

    #[test]
    fn delay_increases_at_low_voltage() {
        let t = tech();
        let d_nom = simulate_stage(&t, &stage(0.8, 2.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let d_low = simulate_stage(&t, &stage(0.55, 2.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let d_high = simulate_stage(&t, &stage(1.1, 2.0, 1.0, true))
            .unwrap()
            .delay_ps;
        assert!(d_low > d_nom && d_nom > d_high);
        // The paper's Table II shows ~30–40 % swing from 0.55 V to 0.8 V;
        // the model should be strongly non-linear in that range.
        assert!(d_low / d_nom > 1.2, "ratio {}", d_low / d_nom);
    }

    #[test]
    fn delay_increases_with_load() {
        let t = tech();
        let d_small = simulate_stage(&t, &stage(0.8, 0.5, 1.0, true))
            .unwrap()
            .delay_ps;
        let d_big = simulate_stage(&t, &stage(0.8, 128.0, 1.0, true))
            .unwrap()
            .delay_ps;
        assert!(d_big > 10.0 * d_small);
    }

    #[test]
    fn delay_scales_inverse_with_width() {
        let t = tech();
        let d1 = simulate_stage(&t, &stage(0.8, 8.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let d4 = simulate_stage(&t, &stage(0.8, 8.0, 4.0, true))
            .unwrap()
            .delay_ps;
        let ratio = d1 / d4;
        assert!(
            (3.0..5.0).contains(&ratio),
            "4× width should give ≈4× speed, got {ratio}"
        );
    }

    #[test]
    fn rise_slower_than_fall_at_equal_width() {
        let t = tech();
        let fall = simulate_stage(&t, &stage(0.8, 4.0, 1.0, true))
            .unwrap()
            .delay_ps;
        let rise = simulate_stage(&t, &stage(0.8, 4.0, 1.0, false))
            .unwrap()
            .delay_ps;
        assert!(
            rise > fall,
            "PMOS (k_p < k_n) must be slower: {rise} vs {fall}"
        );
    }

    #[test]
    fn subthreshold_supply_rejected() {
        let t = tech();
        assert!(matches!(
            simulate_stage(&t, &stage(0.2, 2.0, 1.0, true)),
            Err(SpiceError::InvalidOperatingPoint { .. })
        ));
    }

    #[test]
    fn bad_cap_rejected() {
        let t = tech();
        let mut s = stage(0.8, 2.0, 1.0, true);
        s.cap_ff = 0.0;
        assert!(simulate_stage(&t, &s).is_err());
        s.cap_ff = f64::NAN;
        assert!(simulate_stage(&t, &s).is_err());
    }

    fn assert_rejected(s: &Stage) {
        assert!(
            matches!(
                simulate_stage(&tech(), s),
                Err(SpiceError::InvalidOperatingPoint { .. })
            ),
            "{s:?}"
        );
    }

    #[test]
    fn bad_slew_rejected() {
        for slew_ps in [f64::NAN, f64::INFINITY, -1.0] {
            let mut s = stage(0.8, 2.0, 1.0, true);
            s.slew_ps = slew_ps;
            assert_rejected(&s);
        }
    }

    #[test]
    fn bad_width_rejected() {
        for width in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut s = stage(0.8, 2.0, 1.0, false);
            s.device.width = width;
            assert_rejected(&s);
        }
    }

    #[test]
    fn bad_threshold_rejected() {
        for vth in [f64::NAN, f64::NEG_INFINITY, 0.0, -0.1] {
            let mut s = stage(0.8, 2.0, 1.0, true);
            s.device.vth = vth;
            assert_rejected(&s);
        }
    }

    #[test]
    fn zero_slew_step_input_works() {
        let t = tech();
        let mut s = stage(0.8, 2.0, 1.0, true);
        s.slew_ps = 0.0;
        let r = simulate_stage(&t, &s).unwrap();
        assert!(r.delay_ps > 0.0);
    }

    #[test]
    fn matches_rc_estimate_order_of_magnitude() {
        // Analytic sanity: delay ≈ C·V/2 / I_sat within a small factor.
        let t = tech();
        let s = stage(0.8, 16.0, 1.0, true);
        let i = s.device.saturation_current(&t, 0.8);
        let est = s.cap_ff * 0.4 / (i * 1e-3);
        let r = simulate_stage(&t, &s).unwrap();
        assert!(
            r.delay_ps > 0.3 * est && r.delay_ps < 3.0 * est,
            "delay {} vs RC estimate {est}",
            r.delay_ps
        );
    }

    proptest! {
        #[test]
        fn delay_is_within_0_01_pct_of_the_fixed_step_oracle(
            vdd in 0.45f64..1.2,
            cap_ff in 0.2f64..160.0,
            width in 0.25f64..8.0,
            stack in 1usize..=4,
            falling in any::<bool>(),
            slew_ps in prop::sample::select(vec![0.0, 2.0, 10.0, 40.0]),
        ) {
            let t = tech();
            let mut s = stage(vdd, cap_ff, width, falling);
            s.device.vth *= 1.0 + t.stack_vth_derate * (stack - 1) as f64;
            s.slew_ps = slew_ps;
            let got = simulate_stage(&t, &s).expect("stage switches").delay_ps;
            assert_near_oracle(&t, &s, got);
        }
    }

    #[test]
    fn paper_grid_is_within_0_01_pct_of_the_fixed_step_oracle() {
        use avfs_netlist::library::Polarity;
        let t = tech();
        let lib = avfs_netlist::CellLibrary::nangate15_like();
        let cfg = crate::SweepConfig::paper();
        let mut stages = Vec::new();
        for name in ["INV_X1", "NAND3_X1", "XOR2_X1"] {
            let cell = lib.cell(lib.find(name).expect("cell exists"));
            for pin in 0..cell.num_inputs() {
                for polarity in Polarity::both() {
                    for &v in &cfg.voltages {
                        for &c in &cfg.loads_ff {
                            let (output, internal) =
                                crate::characterize::pin_stages(&t, cell, pin, polarity, v, c);
                            stages.push(output);
                            stages.extend(internal);
                        }
                    }
                }
            }
        }
        // Every stage through the lane kernel, claimed out of order.
        let outcomes = through_lanes(&t, &stages, 0x9E37_79B9);
        for (s, outcome) in stages.iter().zip(outcomes) {
            assert_near_oracle(&t, s, outcome.expect("stage switches"));
        }
    }

    /// Hands out the stages in `order` and keeps each one's outcome.
    struct Shuffled {
        order: Vec<usize>,
        outcomes: Vec<Option<Result<f64, SpiceError>>>,
    }

    impl StageFeed for Shuffled {
        fn claim(&mut self) -> Option<usize> {
            self.order.pop()
        }

        fn emit(&mut self, index: usize, outcome: Result<f64, SpiceError>) {
            let previous = self.outcomes[index].replace(outcome);
            assert!(previous.is_none(), "stage {index} emitted twice");
        }
    }

    /// A linear congruential step: the next state and a draw in `[0, 1)`.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Every stage through one lane-kernel call, claimed in an order
    /// shuffled by `seed`.
    fn through_lanes(t: &Technology, stages: &[Stage], seed: u64) -> Vec<Result<f64, SpiceError>> {
        let mut state = seed | 1;
        let mut order: Vec<usize> = (0..stages.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (lcg(&mut state) * (i + 1) as f64) as usize);
        }
        let mut feed = Shuffled {
            order,
            outcomes: vec![None; stages.len()],
        };
        integrate_lanes(t, stages, &mut feed);
        feed.outcomes
            .into_iter()
            .map(|o| o.expect("every claimed stage is emitted"))
            .collect()
    }

    /// An outcome compared bit for bit: the delay's bits, or the error's
    /// every field (`{:?}` shows a NaN supply as `NaN` on both sides).
    fn key(outcome: &Result<f64, SpiceError>) -> Result<u64, String> {
        match outcome {
            Ok(ps) => Ok(ps.to_bits()),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// Stages drawn from `state`: valid ones across the proptest's ranges
    /// (supplies low enough for deep stacks to be rejected as below
    /// threshold), step inputs, and about one in eight with a corrupted
    /// field.
    fn random_stages(t: &Technology, state: &mut u64, n: usize) -> Vec<Stage> {
        (0..n)
            .map(|_| {
                let vdd = 0.45 + 0.75 * lcg(state);
                let cap = 0.2 + 160.0 * lcg(state);
                let width = 0.25 + 7.75 * lcg(state);
                let mut s = stage(vdd, cap, width, lcg(state) < 0.5);
                let stack = 1 + (4.0 * lcg(state)) as usize;
                s.device.vth *= 1.0 + t.stack_vth_derate * (stack - 1) as f64;
                s.slew_ps = [0.0, 2.0, 10.0, 40.0][(4.0 * lcg(state)) as usize];
                match (8.0 * lcg(state)) as usize {
                    0 => s.cap_ff = f64::NAN,
                    1 => s.slew_ps = -1.0,
                    2 => s.device.width = 0.0,
                    3 => s.vdd = 0.2,
                    _ => {}
                }
                s
            })
            .collect()
    }

    proptest! {
        #[test]
        fn lanes_equal_the_one_stage_call_in_any_claim_order(
            seed in any::<u64>(),
            n in 1usize..=20,
        ) {
            let t = tech();
            let mut state = seed | 1;
            let stages = random_stages(&t, &mut state, n);
            let outcomes = through_lanes(&t, &stages, seed.rotate_left(17));
            for (s, outcome) in stages.iter().zip(&outcomes) {
                let serial = simulate_stage(&t, s).map(|r| r.delay_ps);
                prop_assert_eq!(key(outcome), key(&serial), "{:?}", s);
            }
        }
    }

    #[test]
    fn a_lane_that_exhausts_the_budget_fails_as_the_serial_call_does() {
        // A ramp so slow that the budget runs out while the device barely
        // conducts, between stages that finish and refill around it.
        let t = tech();
        let mut stuck = stage(0.8, 2.0, 1.0, true);
        stuck.slew_ps = 1e12;
        let mut state = 7;
        let mut stages = random_stages(&t, &mut state, 11);
        stages[4] = stuck;
        let outcomes = through_lanes(&t, &stages, 3);
        for (s, outcome) in stages.iter().zip(&outcomes) {
            let serial = simulate_stage(&t, s).map(|r| r.delay_ps);
            assert_eq!(key(outcome), key(&serial), "{s:?}");
        }
        assert!(
            matches!(outcomes[4], Err(SpiceError::NoConvergence { .. })),
            "{:?}",
            outcomes[4]
        );
    }
}
