//! The fault plan: which sites fail, when, and how often.
//!
//! A [`FaultPlan`] holds one [`SitePolicy`] per [`FaultSite`] plus per-site
//! call/injection counters. Hooks call [`FaultPlan::decide`] at the moment a
//! fault *could* happen; the plan answers "inject (and which flavour)" or
//! "pass" as a pure function of the seed, the site, and that site's call
//! ordinal. A policy is a flat probability plus an injection cap; the cap
//! bounds total damage, so a faulted run always converges back to a
//! healthy system.
//!
//! The counters sit behind one private `std::sync::Mutex`, a leaf lock:
//! each guard lives inside one [`FaultPlan`] method that calls out to
//! nothing while holding it, so hooks may run under a shard lock without
//! any ordering to keep.

use crate::rng::{mix, unit};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
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
}

/// Number of distinct fault sites.
pub const SITE_COUNT: usize = 8;

impl FaultSite {
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
        }
    }
}

/// One site's injection schedule.
#[derive(Debug, Clone, Copy)]
pub struct SitePolicy {
    /// Injection probability per call.
    pub probability: f64,
    /// Hard cap on total injections (`u64::MAX` = unbounded). A finite cap
    /// guarantees the schedule eventually quiesces.
    pub max_injections: u64,
}

impl SitePolicy {
    /// A disabled site (never injects).
    pub const OFF: SitePolicy = SitePolicy {
        probability: 0.0,
        max_injections: 0,
    };

    /// A flat schedule: inject with probability `p`, at most `cap` times.
    pub fn flat(p: f64, cap: u64) -> Self {
        Self {
            probability: p,
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

    fn policy(&self, site: FaultSite) -> SitePolicy {
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

/// A live fault plan: configuration plus per-site counters. Shared across
/// every hook via `Arc`.
pub struct FaultPlan {
    config: FaultPlanConfig,
    disarmed: AtomicBool,
    state: Mutex<[SiteCounters; SITE_COUNT]>,
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
            state: Mutex::new([SiteCounters::default(); SITE_COUNT]),
        }
    }

    /// The counters. Poison is absorbed: every update is a plain
    /// increment, so a holder that panicked left them valid.
    fn counters(&self) -> MutexGuard<'_, [SiteCounters; SITE_COUNT]> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decides whether this call at `site` injects a fault. `Some(k)` means
    /// "inject", where `k` is the injection ordinal at this site — hooks use
    /// it to rotate deterministically through fault flavours. The decision
    /// depends only on the seed, the site, and the site's call ordinal, so a
    /// rerun with identical per-site traffic injects identically regardless
    /// of how threads interleave across *different* sites.
    pub fn decide(&self, site: FaultSite) -> Option<u64> {
        let i = site.index();
        let mut state = self.counters();
        let counters = state.get_mut(i)?;
        let call = counters.calls;
        counters.calls += 1;
        if self.disarmed.load(Ordering::Relaxed) {
            return None;
        }
        let policy = self.config.policy(site);
        if counters.injected >= policy.max_injections {
            return None;
        }
        if unit(self.config.seed, i as u64, call) < policy.probability {
            let k = counters.injected;
            counters.injected += 1;
            Some(k)
        } else {
            None
        }
    }

    /// Turns every site off (call ordinals keep advancing). A test driver
    /// disarms before a graceful shutdown it wants clean: the final
    /// checkpoint and drain then run unfaulted.
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

    /// Injections at one site so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.counters().get(site.index()).map_or(0, |c| c.injected)
    }

    /// Total injections across all sites.
    pub fn injected_total(&self) -> u64 {
        self.counters().iter().map(|c| c.injected).sum()
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
}
