//! Deterministic fault injection: seeded fault plans over named
//! injection sites.
//!
//! The engine's own recovery paths — quarantine-and-retry and per-slot
//! panic containment — are only trustworthy if they are *exercised*, and
//! its results only schedule independent if a perturbed schedule leaves
//! them alone. This crate provides the substrate: a [`FaultPlan`] maps
//! each registered [`InjectionSite`] to a firing rate, and every
//! decision is a **pure hash** of `(seed, site, key, salt)` — not a draw
//! from a stateful generator — so the outcome of a probe does not depend
//! on how many other probes ran before it or on which thread asks. That
//! makes injected runs deterministic under work stealing, and lets a
//! harness *predict* the affected keys by replaying
//! [`FaultPlan::decide`] offline.
//!
//! The consuming crates thread an [`Injector`] — a cheap clonable handle
//! that is `None` when no plan is armed — through their hot paths. An
//! unarmed probe is a single branch on an `Option` discriminant (the same
//! cost model as the `Option<&Metrics>` instrumentation points), and a
//! plan with every rate at zero decides `false` everywhere, so
//! armed-empty runs are bit-for-bit identical to unarmed runs.
//!
//! # Site keying contract
//!
//! Each site's `(key, salt)` pair is fixed by its host crate so that
//! tests and the chaos harness can replay decisions:
//!
//! | Site | key | salt | host |
//! |---|---|---|---|
//! | `ArenaOverflow` | global slot index | retry round | engine gate task, after the merge and before the output is staged |
//! | `KernelPanic` | global slot index | retry round | engine gate task |
//! | `WorkerStall` | pool worker index | pool epoch | `avfs-core` worker pool |
//!
//! # Example
//!
//! ```
//! use avfs_inject::{FaultPlan, InjectionSite, Injector};
//! use std::sync::Arc;
//!
//! let plan = Arc::new(FaultPlan::empty(42).with_rate(InjectionSite::KernelPanic, 1.0));
//! let injector = Injector::armed(Arc::clone(&plan));
//! assert!(injector.fires(InjectionSite::KernelPanic, 3, 0));
//! assert!(!injector.fires(InjectionSite::ArenaOverflow, 3, 0));
//! // Decisions are pure: the harness can predict them without a run.
//! assert!(plan.decide(InjectionSite::KernelPanic, 3, 0));
//! // Probes were recorded for the site-coverage report.
//! assert_eq!(plan.hits(InjectionSite::KernelPanic), 1);
//! assert_eq!(plan.fired_keys(InjectionSite::KernelPanic), vec![3]);
//! ```

#![forbid(unsafe_code)]

use avfs_prng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A named place in the workspace where a fault can be forced.
///
/// The registry is closed: [`InjectionSite::ALL`] enumerates every site,
/// which is what lets the chaos harness assert 100 % site coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectionSite {
    /// A gate task's arena write reports `CapacityOverflow` even though
    /// the cell had room — exercises quarantine-and-retry.
    ArenaOverflow,
    /// A gate task panics inside its `catch_unwind` — exercises per-slot
    /// panic containment.
    KernelPanic,
    /// A pool worker sleeps before taking its share of a release —
    /// timing only; never changes results.
    WorkerStall,
}

/// Number of registered injection sites.
pub const SITE_COUNT: usize = 3;

impl InjectionSite {
    /// Every registered site, in stable order.
    pub const ALL: [InjectionSite; SITE_COUNT] = [
        InjectionSite::ArenaOverflow,
        InjectionSite::KernelPanic,
        InjectionSite::WorkerStall,
    ];

    /// Stable index of the site within [`InjectionSite::ALL`].
    pub fn index(self) -> usize {
        match self {
            InjectionSite::ArenaOverflow => 0,
            InjectionSite::KernelPanic => 1,
            InjectionSite::WorkerStall => 2,
        }
    }

    /// Stable machine-readable name (used in reports and coverage tables).
    pub fn name(self) -> &'static str {
        match self {
            InjectionSite::ArenaOverflow => "arena-overflow",
            InjectionSite::KernelPanic => "kernel-panic",
            InjectionSite::WorkerStall => "worker-stall",
        }
    }
}

impl fmt::Display for InjectionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded assignment of firing rates to injection sites, plus the
/// record of what actually fired.
///
/// Decisions are pure functions of `(seed, site, key, salt)` (SplitMix64
/// finalizer over the mixed words); the recording side — per-site hit
/// counters and the fired `(site, key)` set — uses atomics and a mutex
/// whose *contents* are order-independent sets and sums, so concurrent
/// probes from a racing worker pool still produce one deterministic
/// record.
pub struct FaultPlan {
    seed: u64,
    rates: [f64; SITE_COUNT],
    stall: Duration,
    hits: [AtomicU64; SITE_COUNT],
    fired: Mutex<BTreeSet<(u8, u64)>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rates", &self.rates)
            .field("stall", &self.stall)
            .field("total_fired", &self.total_fired())
            .finish()
    }
}

impl FaultPlan {
    /// A plan with every rate at zero: armed but inert. Runs with this
    /// plan are bit-for-bit identical to unarmed runs.
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; SITE_COUNT],
            stall: Duration::from_millis(20),
            hits: Default::default(),
            fired: Mutex::new(BTreeSet::new()),
        }
    }

    /// Sets `site`'s firing rate (clamped to `[0, 1]`; NaN means 0).
    pub fn with_rate(mut self, site: InjectionSite, rate: f64) -> FaultPlan {
        self.rates[site.index()] = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        self
    }

    /// Sets the sleep a firing [`InjectionSite::WorkerStall`] imposes.
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }

    /// A randomized plan: each site's rate is drawn uniformly from
    /// `[0, max_rate]` by a generator seeded with `seed`, so the whole
    /// plan — rates and every decision — replays from the seed alone.
    pub fn randomized(seed: u64, max_rate: f64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = FaultPlan::empty(seed);
        for site in InjectionSite::ALL {
            let rate = rng.gen::<f64>() * max_rate.clamp(0.0, 1.0);
            plan = plan.with_rate(site, rate);
        }
        plan
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `site`'s firing rate.
    pub fn rate(&self, site: InjectionSite) -> f64 {
        self.rates[site.index()]
    }

    /// The worker-stall sleep duration.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// Pure decision: would `(site, key, salt)` fire under this plan?
    /// Records nothing — this is the replay/prediction entry point.
    pub fn decide(&self, site: InjectionSite, key: u64, salt: u64) -> bool {
        let rate = self.rates[site.index()];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // SplitMix64 finalizer over the mixed words: high-quality
        // avalanche, so nearby keys/salts decide independently.
        let mut z = self
            .seed
            .wrapping_add((site.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(key.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < rate
    }

    /// Decision plus recording: bumps the site's hit counter and adds
    /// `(site, key)` to the fired set when the decision is `true`.
    pub fn fire(&self, site: InjectionSite, key: u64, salt: u64) -> bool {
        let fired = self.decide(site, key, salt);
        if fired {
            self.hits[site.index()].fetch_add(1, Ordering::Relaxed);
            self.fired
                .lock()
                .expect("fault-plan record lock")
                .insert((site.index() as u8, key));
        }
        fired
    }

    /// How many probes of `site` fired so far.
    pub fn hits(&self, site: InjectionSite) -> u64 {
        self.hits[site.index()].load(Ordering::Relaxed)
    }

    /// Total fired probes across all sites.
    pub fn total_fired(&self) -> u64 {
        self.hits.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// The distinct keys on which `site` fired, ascending.
    pub fn fired_keys(&self, site: InjectionSite) -> Vec<u64> {
        let fired = self.fired.lock().expect("fault-plan record lock");
        fired
            .iter()
            .filter(|(s, _)| *s as usize == site.index())
            .map(|&(_, k)| k)
            .collect()
    }
}

/// A cheap clonable handle threading a fault plan (or nothing) through
/// the simulation stack.
///
/// The unarmed handle is the default everywhere; probing it is one
/// branch on the `Option` discriminant and touches no shared state.
#[derive(Clone, Default)]
pub struct Injector(Option<Arc<FaultPlan>>);

impl fmt::Debug for Injector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("Injector(unarmed)"),
            Some(plan) => f.debug_tuple("Injector").field(plan).finish(),
        }
    }
}

impl Injector {
    /// The no-op handle: every probe decides `false`.
    pub fn unarmed() -> Injector {
        Injector(None)
    }

    /// A handle armed with `plan`.
    pub fn armed(plan: Arc<FaultPlan>) -> Injector {
        Injector(Some(plan))
    }

    /// Whether a plan is armed (an armed-empty plan still reports `true`).
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<&Arc<FaultPlan>> {
        self.0.as_ref()
    }

    /// Probes `(site, key, salt)`: `false` when unarmed, otherwise the
    /// plan's recorded decision.
    #[inline]
    pub fn fires(&self, site: InjectionSite, key: u64, salt: u64) -> bool {
        match &self.0 {
            None => false,
            Some(plan) => plan.fire(site, key, salt),
        }
    }

    /// The sleep to impose at a [`InjectionSite::WorkerStall`] probe,
    /// if it fires.
    #[inline]
    pub fn stall_duration(&self, key: u64, salt: u64) -> Option<Duration> {
        match &self.0 {
            None => None,
            Some(plan) => {
                if plan.fire(InjectionSite::WorkerStall, key, salt) {
                    Some(plan.stall())
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::empty(7);
        for site in InjectionSite::ALL {
            for key in 0..64 {
                assert!(!plan.decide(site, key, 0));
                assert!(!plan.fire(site, key, 1));
            }
        }
        assert_eq!(plan.total_fired(), 0);
    }

    #[test]
    fn rate_one_always_fires_and_records() {
        let plan = FaultPlan::empty(3).with_rate(InjectionSite::ArenaOverflow, 1.0);
        for key in 0..10 {
            assert!(plan.fire(InjectionSite::ArenaOverflow, key, 0));
        }
        assert_eq!(plan.hits(InjectionSite::ArenaOverflow), 10);
        assert_eq!(
            plan.fired_keys(InjectionSite::ArenaOverflow),
            (0..10).collect::<Vec<_>>()
        );
        assert_eq!(plan.total_fired(), 10);
    }

    #[test]
    fn decisions_are_pure_and_seed_deterministic() {
        let a = FaultPlan::empty(99).with_rate(InjectionSite::KernelPanic, 0.5);
        let b = FaultPlan::empty(99).with_rate(InjectionSite::KernelPanic, 0.5);
        let c = FaultPlan::empty(100).with_rate(InjectionSite::KernelPanic, 0.5);
        let decisions = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|k| p.decide(InjectionSite::KernelPanic, k, 4))
                .collect()
        };
        assert_eq!(decisions(&a), decisions(&b));
        assert_ne!(decisions(&a), decisions(&c), "seed must matter");
        // Roughly half fire at rate 0.5.
        let count = decisions(&a).iter().filter(|&&d| d).count();
        assert!((64..192).contains(&count), "rate 0.5 fired {count}/256");
        // Probe order cannot matter: ask in reverse, get the same answers.
        let forward = decisions(&a);
        let reverse: Vec<bool> = (0..256)
            .rev()
            .map(|k| a.decide(InjectionSite::KernelPanic, k, 4))
            .collect();
        assert_eq!(forward, reverse.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn sites_decide_independently() {
        let plan = FaultPlan::randomized(11, 1.0);
        let per_site: Vec<Vec<bool>> = InjectionSite::ALL
            .iter()
            .map(|&s| (0..128).map(|k| plan.decide(s, k, 0)).collect())
            .collect();
        // No two sites share the identical decision vector (rates and
        // hashes differ per site).
        for i in 0..per_site.len() {
            for j in i + 1..per_site.len() {
                assert_ne!(per_site[i], per_site[j], "sites {i} and {j} collide");
            }
        }
    }

    #[test]
    fn randomized_plan_replays_from_seed() {
        let a = FaultPlan::randomized(5, 0.3);
        let b = FaultPlan::randomized(5, 0.3);
        for site in InjectionSite::ALL {
            assert_eq!(a.rate(site), b.rate(site));
            assert!(a.rate(site) <= 0.3);
        }
    }

    #[test]
    fn unarmed_injector_is_inert() {
        let inj = Injector::unarmed();
        assert!(!inj.is_armed());
        assert!(!inj.fires(InjectionSite::ArenaOverflow, 0, 0));
        assert!(!inj.fires(InjectionSite::KernelPanic, 0, 0));
        assert!(inj.stall_duration(0, 0).is_none());
    }

    #[test]
    fn armed_injector_records_through_the_plan() {
        let plan = Arc::new(
            FaultPlan::empty(1)
                .with_rate(InjectionSite::WorkerStall, 1.0)
                .with_stall(Duration::from_millis(1)),
        );
        let inj = Injector::armed(Arc::clone(&plan));
        assert!(inj.is_armed());
        assert_eq!(inj.stall_duration(2, 9), Some(Duration::from_millis(1)));
        assert_eq!(plan.hits(InjectionSite::WorkerStall), 1);
        assert_eq!(plan.fired_keys(InjectionSite::WorkerStall), vec![2]);
    }

    #[test]
    fn site_names_stable_and_distinct() {
        let mut names: Vec<&str> = InjectionSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), SITE_COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SITE_COUNT, "site names must be distinct");
        for (i, site) in InjectionSite::ALL.into_iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }
}
