//! Transient analysis of a single switching stage.
//!
//! Integrates the output-node ODE
//!
//! ```text
//! C · dV_out/dt = ± I_D(V_in(t), V_out)
//! ```
//!
//! with a linear input ramp, using 4th-order Runge–Kutta with a step sized
//! from the stage time constant, and measures the propagation delay as the
//! time between the input and output 50 % crossings — the standard
//! `.MEASURE TRIG v(in) VAL=vdd/2 TARG v(out) VAL=vdd/2` of a SPICE deck.
//!
//! The integration does only what that measurement needs:
//!
//! * the gate-dependent half of the drain current (the two `powf` calls,
//!   see [`crate::mosfet`]) is evaluated once per distinct gate voltage —
//!   at `t + dt/2` and `t + dt` while the input ramps, the latter carried
//!   over as the next step's `t`, and never again once the ramp has
//!   reached `V_DD`; every slope then costs only the `V_ds` profile;
//! * the loop ends at the output's 50 % crossing, the one thing measured;
//! * a [`SweepPlan`](crate::sweep::SweepPlan) runs one transient per
//!   distinct [`Stage`]: the first stage of a two-stage cell does not see
//!   the external load, and symmetric pins reduce to the same equivalent
//!   device.
//!
//! One step is four dependent slopes of two dependent divisions each, so
//! a single stage keeps a core waiting on latency. The integrator is
//! therefore a lane kernel: eight distinct stages step in lockstep, slope
//! by slope, so an out-of-order core overlaps their chains, and a lane
//! whose stage is done takes the next one from the sweep's cursor. Every
//! lane runs the serial statement sequence on its own state, so a stage's
//! delay does not depend on its neighbours; [`simulate_stage`] is the
//! one-stage call.

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

/// Integration budget: enough for very slow near-threshold corners.
const MAX_STEPS: usize = 4_000_000;

/// Stages one kernel call integrates in lockstep. Measured on a 2-vCPU
/// x86-64 host (Xeon, 2.0 GHz): the whole library at the paper's sweep
/// (27 144 distinct stages, 16.1 M RK4 steps) on one thread takes 0.76 s
/// at 1 lane (the serial integrator: 0.75 s), 0.56–0.58 s at 4, 0.45 s at
/// 8 and 0.45 s at 16, and 0.67–0.69 s at 8 lanes claimed only once all
/// are empty instead of refilled one by one; the 64-bit adder's
/// characterization on both threads takes 29, 21–22, 17–18 and 16–20 ms
/// at 1, 4, 8 and 16 lanes, and 28–30 ms at 8 without refill.
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
/// time, and returns the RK4 steps taken. A lane whose stage crosses, fails
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
        // One RK4 step of every live lane, each slope across all lanes
        // before the next, so the lanes' dependency chains interleave.
        let mut mid = [None; LANES];
        let mut end = [(0.0, None); LANES];
        for (l, lane) in lanes[..live].iter().enumerate() {
            // Classic RK4 samples the gate at t, t + dt/2 (twice) and
            // t + dt. The ramp is monotone, so a gate that has reached vdd
            // stays there; before that, the state at t + dt is the next
            // step's state at t (`t += dt` below produces the same float).
            (mid[l], end[l]) = if lane.gate.0 == lane.vdd {
                (lane.gate.1, lane.gate)
            } else {
                (
                    lane.gate_at(tech, lane.t + lane.dt / 2.0).1,
                    lane.gate_at(tech, lane.t + lane.dt),
                )
            };
        }
        let mut k = [[0.0; LANES]; 4];
        for (l, lane) in lanes[..live].iter().enumerate() {
            k[0][l] = lane.dv_dt(lane.gate.1, lane.v_out);
        }
        for (l, lane) in lanes[..live].iter().enumerate() {
            k[1][l] = lane.dv_dt(mid[l], lane.v_out + lane.dt / 2.0 * k[0][l]);
        }
        for (l, lane) in lanes[..live].iter().enumerate() {
            k[2][l] = lane.dv_dt(mid[l], lane.v_out + lane.dt / 2.0 * k[1][l]);
        }
        for (l, lane) in lanes[..live].iter().enumerate() {
            k[3][l] = lane.dv_dt(end[l].1, lane.v_out + lane.dt * k[2][l]);
        }
        let mut any_done = false;
        for (l, lane) in lanes[..live].iter_mut().enumerate() {
            any_done |= lane.advance([k[0][l], k[1][l], k[2][l], k[3][l]], end[l]);
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
    falling: bool,
    vdd: f64,
    cap_ff: f64,
    slew_ps: f64,
    v_half: f64,
    /// Input 50 % crossing of the linear ramp.
    t_in_cross: f64,
    dt: f64,
    v_out: f64,
    t: f64,
    /// The gate state at `t`, the start of the step.
    gate: (f64, Option<Drive>),
    /// `v_out` and `t` at the start of the last step.
    v_prev: f64,
    t_prev: f64,
    /// Steps taken so far.
    steps: usize,
    /// The last step crossed the output's 50 % or exhausted the budget.
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
        falling: true,
        vdd: 0.0,
        cap_ff: 0.0,
        slew_ps: 0.0,
        v_half: 0.0,
        t_in_cross: 0.0,
        dt: 0.0,
        v_out: 0.0,
        t: 0.0,
        gate: (0.0, None),
        v_prev: 0.0,
        t_prev: 0.0,
        steps: 0,
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

    /// Validates `stage` and sets up its integration.
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

        let falling = device.device == DeviceType::Nmos;
        // Step size from the stage time constant at full drive.
        let i_full = device.saturation_current(tech, vdd).max(1e-9);
        let tau_ps = cap_ff * vdd / (i_full * UA_PER_FF_TO_V_PER_PS);
        let dt = (tau_ps / 400.0).min(slew_ps.max(0.1) / 40.0).max(1e-4);
        let mut lane = Lane {
            index,
            device,
            falling,
            vdd,
            cap_ff,
            slew_ps,
            v_half: vdd / 2.0,
            t_in_cross: slew_ps * 0.5,
            dt,
            v_out: if falling { vdd } else { 0.0 },
            ..Lane::IDLE
        };
        lane.gate = lane.gate_at(tech, 0.0);
        Ok(lane)
    }

    /// Gate overdrive magnitude and the device state it sets, as a
    /// function of time: the input ramps from the non-conducting rail to
    /// the conducting rail over `slew_ps`. For the NMOS (output falls) the
    /// input rises 0→vdd so |Vgs| = Vin; for the PMOS (output rises) the
    /// input falls vdd→0 so |Vgs| = vdd − Vin. Both give the same ramp in
    /// magnitude.
    fn gate_at(&self, tech: &Technology, t: f64) -> (f64, Option<Drive>) {
        let vgs = if self.slew_ps <= 0.0 {
            self.vdd
        } else {
            (self.vdd * t / self.slew_ps).clamp(0.0, self.vdd)
        };
        (vgs, self.device.drive(tech, vgs))
    }

    /// dV_out/dt at output voltage `v` under gate state `drive`; the vds
    /// magnitude is |V_out − conducting rail|.
    fn dv_dt(&self, drive: Option<Drive>, v: f64) -> f64 {
        let vds = if self.falling { v } else { self.vdd - v };
        let i = drive.map_or(0.0, |d| d.current(vds));
        let slope = i * UA_PER_FF_TO_V_PER_PS / self.cap_ff;
        if self.falling {
            -slope
        } else {
            slope
        }
    }

    /// Completes one step from its four slopes and the gate state at its
    /// end; `true` once the stage is done.
    fn advance(&mut self, [k1, k2, k3, k4]: [f64; 4], end: (f64, Option<Drive>)) -> bool {
        self.v_prev = self.v_out;
        self.t_prev = self.t;
        self.v_out += self.dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        self.v_out = self.v_out.clamp(0.0, self.vdd);
        self.t += self.dt;
        self.gate = end;
        self.steps += 1;
        self.done = self.crossed() || self.steps == MAX_STEPS;
        self.done
    }

    /// The output starts on the far side of `v_half`, so the first step
    /// that lands on or past it is the crossing.
    fn crossed(&self) -> bool {
        if self.falling {
            self.v_out <= self.v_half
        } else {
            self.v_out >= self.v_half
        }
    }

    /// The stage's outcome once its last step made it done: the delay,
    /// with the crossing interpolated linearly inside the step, or the
    /// exhausted budget.
    fn outcome(&self) -> Option<Result<f64, SpiceError>> {
        if !self.done {
            return None;
        }
        if !self.crossed() {
            return Some(Err(SpiceError::NoConvergence { reached_ps: self.t }));
        }
        let frac = if (self.v_out - self.v_prev).abs() < 1e-15 {
            1.0
        } else {
            (self.v_half - self.v_prev) / (self.v_out - self.v_prev)
        };
        let t_out_cross = self.t_prev + frac.clamp(0.0, 1.0) * self.dt;
        Some(Ok(t_out_cross - self.t_in_cross))
    }
}

/// The integrator as it stood before [`simulate_stage`] learned to skip
/// work, kept as its oracle: four full [`Mosfet::drain_current`] calls
/// (eight `powf`) per step, run until the output is within 2 % of the
/// target rail, the 50 % crossing picked up on the way. (Its 10 %/90 %
/// slew bookkeeping, which never fed the delay, is not reproduced.)
#[cfg(test)]
fn simulate_stage_reference(tech: &Technology, stage: &Stage) -> Result<f64, SpiceError> {
    let vdd = stage.vdd;
    let falling = stage.device.device == DeviceType::Nmos;
    let v_half = vdd / 2.0;
    let t_in_cross = stage.slew_ps * 0.5;

    let vgs_at = |t: f64| -> f64 {
        if stage.slew_ps <= 0.0 {
            vdd
        } else {
            (vdd * t / stage.slew_ps).clamp(0.0, vdd)
        }
    };

    let i_full = stage.device.saturation_current(tech, vdd).max(1e-9);
    let tau_ps = stage.cap_ff * vdd / (i_full * UA_PER_FF_TO_V_PER_PS);
    let dt = (tau_ps / 400.0)
        .min(stage.slew_ps.max(0.1) / 40.0)
        .max(1e-4);
    let max_steps = 4_000_000usize;

    let mut v_out = if falling { vdd } else { 0.0 };
    let mut t = 0.0f64;
    let mut t_out_cross = None;

    let dv_dt = |t: f64, v: f64| -> f64 {
        let vgs = vgs_at(t);
        let vds = if falling { v } else { vdd - v };
        let i = stage.device.drain_current(tech, vgs, vds);
        let slope = i * UA_PER_FF_TO_V_PER_PS / stage.cap_ff;
        if falling {
            -slope
        } else {
            slope
        }
    };

    let target_reached = |v: f64| -> bool {
        if falling {
            v <= 0.02 * vdd
        } else {
            v >= 0.98 * vdd
        }
    };

    for step in 0..max_steps {
        let v_prev = v_out;
        let t_prev = t;
        let k1 = dv_dt(t, v_out);
        let k2 = dv_dt(t + dt / 2.0, v_out + dt / 2.0 * k1);
        let k3 = dv_dt(t + dt / 2.0, v_out + dt / 2.0 * k2);
        let k4 = dv_dt(t + dt, v_out + dt * k3);
        v_out += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        v_out = v_out.clamp(0.0, vdd);
        t += dt;

        let crossed = |mark: f64, slot: &mut Option<f64>| {
            if slot.is_none() {
                let before = if falling {
                    v_prev > mark
                } else {
                    v_prev < mark
                };
                let after = if falling {
                    v_out <= mark
                } else {
                    v_out >= mark
                };
                if before && after {
                    let frac = if (v_out - v_prev).abs() < 1e-15 {
                        1.0
                    } else {
                        (mark - v_prev) / (v_out - v_prev)
                    };
                    *slot = Some(t_prev + frac.clamp(0.0, 1.0) * dt);
                }
            }
        };
        crossed(v_half, &mut t_out_cross);

        if target_reached(v_out) && t_out_cross.is_some() {
            break;
        }
        if step == max_steps - 1 {
            return Err(SpiceError::NoConvergence { reached_ps: t });
        }
    }

    let t_out = t_out_cross.ok_or(SpiceError::NoConvergence { reached_ps: t })?;
    Ok(t_out - t_in_cross)
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

    /// Bitwise agreement with the reference.
    fn assert_matches_reference(t: &Technology, s: &Stage) {
        let got = simulate_stage(t, s).expect("stage switches").delay_ps;
        let want = simulate_stage_reference(t, s).expect("reference converges");
        assert_eq!(got.to_bits(), want.to_bits(), "{s:?}: {got} vs {want}");
    }

    proptest! {
        #[test]
        fn delay_is_bit_identical_to_the_reference_integrator(
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
            assert_matches_reference(&t, &s);
        }
    }

    #[test]
    fn paper_grid_is_bit_identical_to_the_reference_integrator() {
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
            let got = outcome.expect("stage switches");
            let want = simulate_stage_reference(&t, s).expect("reference converges");
            assert_eq!(got.to_bits(), want.to_bits(), "{s:?}: {got} vs {want}");
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
        // A ramp so slow the gate stays in cut-off for the whole budget,
        // between stages that finish and refill around it.
        let t = tech();
        let mut stuck = stage(0.8, 2.0, 1.0, true);
        stuck.slew_ps = 1e12;
        let mut state = 7;
        let mut stages = random_stages(&t, &mut state, 11);
        stages[4] = stuck;
        let outcomes = through_lanes(&t, &stages, 3);
        let serial = simulate_stage(&t, &stuck).map(|r| r.delay_ps);
        assert!(
            matches!(serial, Err(SpiceError::NoConvergence { .. })),
            "{serial:?}"
        );
        for (s, outcome) in stages.iter().zip(&outcomes) {
            let serial = simulate_stage(&t, s).map(|r| r.delay_ps);
            assert_eq!(key(outcome), key(&serial), "{s:?}");
        }
    }
}
