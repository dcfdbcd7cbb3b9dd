//! The fault plan: which sites fail, when, and how often.
//!
//! A [`FaultPlan`] holds one [`SitePolicy`] per [`FaultSite`] plus per-site
//! call/injection counters. Hooks call [`FaultPlan::decide`] at the moment a
//! fault *could* happen; the plan answers "inject (and which flavour)" or
//! "pass" as a pure function of the seed, the site, and that site's call
//! ordinal. Escalating schedules fall out of the policy shape: an arming
//! delay models a healthy warm-up window, a per-call ramp models a slow
//! burn, and an injection cap bounds total damage so a soak run always
//! converges back to a healthy system.

use crate::rng::{mix, unit};
use stage_core::sync::{OrderedMutex, RANK_SESSION};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A place in the serving stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A socket read in the server's connection loop (disconnects,
    /// slow-loris stalls).
    SockRead,
    /// A socket write of a response (torn frames, disconnects, stalls).
    SockWrite,
    /// A snapshot write: the payload is truncated mid-write or the write
    /// fails outright.
    PersistWrite,
    /// The fsync barrier of a snapshot write fails.
    PersistFsync,
    /// A snapshot read on restore: one bit of the file flips (disk rot).
    PersistRestore,
    /// The local model refuses to answer a prediction.
    LocalPredict,
    /// A due local-model retrain is poisoned (skipped) or slowed.
    LocalRetrain,
    /// The global model refuses to answer an escalated prediction.
    GlobalPredict,
    /// A workload step-change: the driver multiplies true execution times
    /// from this decision on, so every model trained before it is suddenly
    /// miscalibrated. Unlike the other sites this one lives in the load
    /// driver rather than the server — the fault is in the *world*, and
    /// the system under test must notice (drift detection) and recover
    /// (the latched shard retrains on its next pool add).
    WorkloadShift,
}

/// Number of distinct fault sites.
pub const SITE_COUNT: usize = 9;

impl FaultSite {
    /// Every site, in index order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::SockRead,
        FaultSite::SockWrite,
        FaultSite::PersistWrite,
        FaultSite::PersistFsync,
        FaultSite::PersistRestore,
        FaultSite::LocalPredict,
        FaultSite::LocalRetrain,
        FaultSite::GlobalPredict,
        FaultSite::WorkloadShift,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::SockRead => 0,
            FaultSite::SockWrite => 1,
            FaultSite::PersistWrite => 2,
            FaultSite::PersistFsync => 3,
            FaultSite::PersistRestore => 4,
            FaultSite::LocalPredict => 5,
            FaultSite::LocalRetrain => 6,
            FaultSite::GlobalPredict => 7,
            FaultSite::WorkloadShift => 8,
        }
    }

    /// Stable snake_case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SockRead => "sock_read",
            FaultSite::SockWrite => "sock_write",
            FaultSite::PersistWrite => "persist_write",
            FaultSite::PersistFsync => "persist_fsync",
            FaultSite::PersistRestore => "persist_restore",
            FaultSite::LocalPredict => "local_predict",
            FaultSite::LocalRetrain => "local_retrain",
            FaultSite::GlobalPredict => "global_predict",
            FaultSite::WorkloadShift => "workload_shift",
        }
    }
}

/// One site's injection schedule.
#[derive(Debug, Clone, Copy)]
pub struct SitePolicy {
    /// Base injection probability per call once armed.
    pub probability: f64,
    /// Calls to pass through before the site arms (healthy warm-up).
    pub start_after: u64,
    /// Probability added per armed call (escalation; clamped to 1.0).
    pub ramp_per_call: f64,
    /// Hard cap on total injections (`u64::MAX` = unbounded). A finite cap
    /// guarantees an escalating schedule eventually quiesces.
    pub max_injections: u64,
}

impl SitePolicy {
    /// A disabled site (never injects).
    pub const OFF: SitePolicy = SitePolicy {
        probability: 0.0,
        start_after: 0,
        ramp_per_call: 0.0,
        max_injections: 0,
    };

    /// A flat schedule: inject with probability `p`, at most `cap` times.
    pub fn flat(p: f64, cap: u64) -> Self {
        Self {
            probability: p,
            start_after: 0,
            ramp_per_call: 0.0,
            max_injections: cap,
        }
    }

    /// An escalating schedule: quiet for `start_after` calls, then the
    /// injection probability climbs from `base` by `ramp` per call until
    /// `cap` injections have landed.
    pub fn ramped(base: f64, start_after: u64, ramp: f64, cap: u64) -> Self {
        Self {
            probability: base,
            start_after,
            ramp_per_call: ramp,
            max_injections: cap,
        }
    }
}

/// The full plan configuration: seed, stall length, per-site policies.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Seed every injection decision derives from.
    pub seed: u64,
    /// How long an injected stall (slow-loris read, slow write, slow
    /// retrain) sleeps.
    pub stall: Duration,
    policies: [SitePolicy; SITE_COUNT],
}

impl FaultPlanConfig {
    /// All sites off; enable them with [`FaultPlanConfig::site`].
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            stall: Duration::from_millis(20),
            policies: [SitePolicy::OFF; SITE_COUNT],
        }
    }

    /// Sets one site's policy (builder style).
    pub fn site(mut self, site: FaultSite, policy: SitePolicy) -> Self {
        if let Some(slot) = self.policies.get_mut(site.index()) {
            *slot = policy;
        }
        self
    }

    /// Sets the stall duration (builder style).
    pub fn stall(mut self, stall: Duration) -> Self {
        self.stall = stall;
        self
    }

    /// The policy of one site.
    pub fn policy(&self, site: FaultSite) -> SitePolicy {
        self.policies
            .get(site.index())
            .copied()
            .unwrap_or(SitePolicy::OFF)
    }
}

#[derive(Clone, Copy, Default)]
struct SiteCounters {
    calls: u64,
    injected: u64,
}

/// Observed activity of one site (for reports and ledger checks).
#[derive(Debug, Clone, Copy)]
pub struct SiteStats {
    /// The site.
    pub site: FaultSite,
    /// Decisions taken at the site.
    pub calls: u64,
    /// Decisions that injected a fault.
    pub injected: u64,
}

/// A live fault plan: configuration plus per-site counters. Shared across
/// every hook via `Arc`; its one lock sits at the bottom of the workspace
/// lock hierarchy (`RANK_SESSION`) so hooks may be called while a shard
/// lock is held.
pub struct FaultPlan {
    config: FaultPlanConfig,
    disarmed: AtomicBool,
    state: OrderedMutex<[SiteCounters; SITE_COUNT]>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.config.seed)
            .field("disarmed", &self.disarmed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// Builds a plan from its configuration.
    pub fn new(config: FaultPlanConfig) -> Self {
        Self {
            config,
            disarmed: AtomicBool::new(false),
            state: OrderedMutex::new(RANK_SESSION, [SiteCounters::default(); SITE_COUNT]),
        }
    }

    /// Decides whether this call at `site` injects a fault. `Some(k)` means
    /// "inject", where `k` is the injection ordinal at this site — hooks use
    /// it to rotate deterministically through fault flavours. The decision
    /// depends only on the seed, the site, and the site's call ordinal, so a
    /// rerun with identical per-site traffic injects identically regardless
    /// of how threads interleave across *different* sites.
    pub fn decide(&self, site: FaultSite) -> Option<u64> {
        let i = site.index();
        let mut state = self.state.lock();
        let counters = state.get_mut(i)?;
        let call = counters.calls;
        counters.calls += 1;
        if self.disarmed.load(Ordering::Relaxed) {
            return None;
        }
        let policy = self.config.policy(site);
        if counters.injected >= policy.max_injections || call < policy.start_after {
            return None;
        }
        let armed_for = call - policy.start_after;
        let p = (policy.probability + policy.ramp_per_call * armed_for as f64).clamp(0.0, 1.0);
        if unit(self.config.seed, i as u64, call) < p {
            let k = counters.injected;
            counters.injected += 1;
            Some(k)
        } else {
            None
        }
    }

    /// Turns every site off (counters keep tracking calls). The soak
    /// harness disarms before graceful shutdown so the final checkpoint and
    /// drain run clean.
    pub fn disarm(&self) {
        self.disarmed.store(true, Ordering::Relaxed);
    }

    /// Re-enables injection after [`FaultPlan::disarm`].
    pub fn rearm(&self) {
        self.disarmed.store(false, Ordering::Relaxed);
    }

    /// The configured stall duration.
    pub fn stall(&self) -> Duration {
        self.config.stall
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Injections at one site so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.state
            .lock()
            .get(site.index())
            .map_or(0, |c| c.injected)
    }

    /// Decisions at one site so far.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.state.lock().get(site.index()).map_or(0, |c| c.calls)
    }

    /// Total injections across all sites.
    pub fn injected_total(&self) -> u64 {
        self.state.lock().iter().map(|c| c.injected).sum()
    }

    /// Per-site activity snapshot.
    pub fn stats(&self) -> Vec<SiteStats> {
        let state = self.state.lock();
        FaultSite::ALL
            .iter()
            .map(|&site| SiteStats {
                site,
                calls: state.get(site.index()).map_or(0, |c| c.calls),
                injected: state.get(site.index()).map_or(0, |c| c.injected),
            })
            .collect()
    }

    /// A deterministic pseudo-random u64 for hook-internal choices (e.g.
    /// which bit to flip), derived from the seed, a site, and an ordinal.
    pub fn derive(&self, site: FaultSite, ordinal: u64) -> u64 {
        mix(self.config.seed ^ mix((site.index() as u64) << 32 | ordinal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_never_injects() {
        let plan = FaultPlan::new(FaultPlanConfig::new(1));
        for _ in 0..500 {
            assert_eq!(plan.decide(FaultSite::SockRead), None);
        }
        assert_eq!(plan.calls(FaultSite::SockRead), 500);
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let mk = || {
            FaultPlan::new(
                FaultPlanConfig::new(99)
                    .site(FaultSite::SockWrite, SitePolicy::flat(0.3, u64::MAX)),
            )
        };
        let a = mk();
        let b = mk();
        let da: Vec<_> = (0..200).map(|_| a.decide(FaultSite::SockWrite)).collect();
        let db: Vec<_> = (0..200).map(|_| b.decide(FaultSite::SockWrite)).collect();
        assert_eq!(da, db);
        assert!(a.injected(FaultSite::SockWrite) > 20);
        // A different seed injects a different pattern.
        let c = FaultPlan::new(
            FaultPlanConfig::new(100).site(FaultSite::SockWrite, SitePolicy::flat(0.3, u64::MAX)),
        );
        let dc: Vec<_> = (0..200).map(|_| c.decide(FaultSite::SockWrite)).collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn arming_delay_and_cap_bound_the_schedule() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(5)
                .site(FaultSite::PersistWrite, SitePolicy::ramped(1.0, 10, 0.0, 3)),
        );
        let mut injected_at = Vec::new();
        for call in 0..50u64 {
            if plan.decide(FaultSite::PersistWrite).is_some() {
                injected_at.push(call);
            }
        }
        // p=1.0 once armed: exactly calls 10, 11, 12 inject, then the cap.
        assert_eq!(injected_at, vec![10, 11, 12]);
        assert_eq!(plan.injected(FaultSite::PersistWrite), 3);
    }

    #[test]
    fn ramp_escalates_to_certainty() {
        let plan = FaultPlan::new(FaultPlanConfig::new(3).site(
            FaultSite::LocalPredict,
            SitePolicy::ramped(0.0, 0, 0.01, u64::MAX),
        ));
        // After 100 armed calls the probability is clamped at 1.0.
        for _ in 0..100 {
            plan.decide(FaultSite::LocalPredict);
        }
        assert_eq!(
            plan.decide(FaultSite::LocalPredict),
            Some(plan.injected(FaultSite::LocalPredict) - 1)
        );
    }

    #[test]
    fn injection_ordinals_count_up() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(8).site(FaultSite::SockRead, SitePolicy::flat(1.0, u64::MAX)),
        );
        for expect in 0..10 {
            assert_eq!(plan.decide(FaultSite::SockRead), Some(expect));
        }
    }

    #[test]
    fn disarm_stops_injection_and_rearm_resumes() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(2).site(FaultSite::SockRead, SitePolicy::flat(1.0, u64::MAX)),
        );
        assert!(plan.decide(FaultSite::SockRead).is_some());
        plan.disarm();
        for _ in 0..20 {
            assert_eq!(plan.decide(FaultSite::SockRead), None);
        }
        plan.rearm();
        assert!(plan.decide(FaultSite::SockRead).is_some());
    }

    #[test]
    fn stats_ledger_matches_counters() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(4)
                .site(FaultSite::SockRead, SitePolicy::flat(0.5, u64::MAX))
                .site(FaultSite::LocalRetrain, SitePolicy::flat(0.5, u64::MAX)),
        );
        for _ in 0..100 {
            plan.decide(FaultSite::SockRead);
            plan.decide(FaultSite::LocalRetrain);
        }
        let stats = plan.stats();
        assert_eq!(stats.len(), SITE_COUNT);
        let total: u64 = stats.iter().map(|s| s.injected).sum();
        assert_eq!(total, plan.injected_total());
        for s in &stats {
            assert_eq!(s.injected, plan.injected(s.site));
            assert_eq!(s.calls, plan.calls(s.site));
            assert!(s.injected <= s.calls);
        }
    }
}
