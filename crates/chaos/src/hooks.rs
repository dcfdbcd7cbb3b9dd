//! Trait implementations wiring [`FaultPlan`] into `stage-core`'s hook
//! points: [`stage_core::persist::PersistFaults`] (snapshot I/O) and
//! [`stage_core::stage::ComponentFaults`] (model tiers).
//!
//! Each hook calls [`FaultPlan::decide`] exactly once per would-be fault
//! opportunity, so the plan's per-site injection counters form an exact
//! ledger against the degraded-mode counters the serving stack keeps:
//! every injected `LocalPredict` is one `local_failover`, every injected
//! `LocalRetrain` is one poisoned or slowed retrain, and so on. The
//! per-family tests of `tests/oracle.rs` assert this correspondence.

use crate::plan::{FaultPlan, FaultSite};
use stage_core::persist::PersistFaults;
use stage_core::stage::{ComponentFaults, RetrainFault};
use std::io;
use std::path::Path;

impl PersistFaults for FaultPlan {
    fn before_write(&self, _path: &Path, bytes: &mut Vec<u8>) -> io::Result<()> {
        match self.decide(FaultSite::PersistWrite) {
            // Partial write: a prefix of the file image lands on disk. Its
            // header declares the pristine length and CRCs, so the damage
            // is caught (and the file quarantined) on restore.
            Some(k) if k % 2 == 0 => {
                bytes.truncate(bytes.len() / 2);
                Ok(())
            }
            Some(_) => Err(io::Error::other("chaos: injected write failure")),
            None => Ok(()),
        }
    }

    fn on_fsync(&self, _path: &Path) -> io::Result<()> {
        match self.decide(FaultSite::PersistFsync) {
            Some(_) => Err(io::Error::other("chaos: injected fsync failure")),
            None => Ok(()),
        }
    }

    fn after_read(&self, _path: &Path, bytes: &mut Vec<u8>) {
        // Disk rot: flip one deterministic bit somewhere in the file.
        if let Some(k) = self.decide(FaultSite::PersistRestore) {
            if bytes.is_empty() {
                return;
            }
            let bit = self.derive(FaultSite::PersistRestore, k) % (bytes.len() as u64 * 8);
            if let Some(byte) = bytes.get_mut((bit / 8) as usize) {
                *byte ^= 1 << (bit % 8);
            }
        }
    }
}

impl ComponentFaults for FaultPlan {
    fn local_unavailable(&self) -> bool {
        self.decide(FaultSite::LocalPredict).is_some()
    }

    fn global_unavailable(&self) -> bool {
        self.decide(FaultSite::GlobalPredict).is_some()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "a slowed retrain's latency is the injected fault; chaos runs opt into it"
    )]
    fn retrain_fault(&self) -> Option<RetrainFault> {
        self.decide(FaultSite::LocalRetrain).map(|k| {
            if k % 2 == 0 {
                // A slowed retrain models its latency right here, while the
                // caller holds the shard busy — then trains normally.
                std::thread::sleep(self.stall());
                RetrainFault::Slowed
            } else {
                RetrainFault::Poisoned
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultPlanConfig, SitePolicy};
    use std::time::Duration;

    fn plan_with(site: FaultSite, policy: SitePolicy) -> FaultPlan {
        FaultPlan::new(
            FaultPlanConfig::new(21)
                .stall(Duration::from_millis(1))
                .site(site, policy),
        )
    }

    #[test]
    fn write_faults_rotate_truncation_and_failure() {
        let plan = plan_with(FaultSite::PersistWrite, SitePolicy::flat(1.0, u64::MAX));
        let p = Path::new("x");
        // Ordinal 0: silent truncation to half.
        let mut bytes = b"0123456789".to_vec();
        assert!(plan.before_write(p, &mut bytes).is_ok());
        assert_eq!(bytes, b"01234");
        // Ordinal 1: outright failure, payload untouched.
        let mut bytes = b"0123456789".to_vec();
        assert!(plan.before_write(p, &mut bytes).is_err());
        assert_eq!(bytes, b"0123456789");
        assert_eq!(plan.injected(FaultSite::PersistWrite), 2);
    }

    #[test]
    fn fsync_fault_is_an_error() {
        let plan = plan_with(FaultSite::PersistFsync, SitePolicy::flat(1.0, 1));
        let p = Path::new("x");
        assert!(plan.on_fsync(p).is_err());
        assert!(plan.on_fsync(p).is_ok(), "cap of 1: the site heals");
    }

    #[test]
    fn read_fault_flips_exactly_one_bit() {
        let plan = plan_with(FaultSite::PersistRestore, SitePolicy::flat(1.0, 1));
        let p = Path::new("x");
        let original = vec![0u8; 64];
        let mut bytes = original.clone();
        plan.after_read(p, &mut bytes);
        let flipped: u32 = bytes
            .iter()
            .zip(&original)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Empty files are left alone (no panic, no injection effect).
        let mut empty = Vec::new();
        plan.after_read(p, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn retrain_faults_rotate_slowed_and_poisoned() {
        let plan = plan_with(FaultSite::LocalRetrain, SitePolicy::flat(1.0, u64::MAX));
        assert_eq!(plan.retrain_fault(), Some(RetrainFault::Slowed));
        assert_eq!(plan.retrain_fault(), Some(RetrainFault::Poisoned));
        assert_eq!(plan.retrain_fault(), Some(RetrainFault::Slowed));
    }

    #[test]
    fn model_tier_hooks_track_the_ledger() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(7)
                .site(FaultSite::LocalPredict, SitePolicy::flat(0.5, u64::MAX))
                .site(FaultSite::GlobalPredict, SitePolicy::flat(0.5, u64::MAX)),
        );
        let mut local_faults = 0u64;
        let mut global_faults = 0u64;
        for _ in 0..200 {
            if plan.local_unavailable() {
                local_faults += 1;
            }
            if plan.global_unavailable() {
                global_faults += 1;
            }
        }
        assert_eq!(local_faults, plan.injected(FaultSite::LocalPredict));
        assert_eq!(global_faults, plan.injected(FaultSite::GlobalPredict));
        assert!(local_faults > 0 && global_faults > 0);
    }
}
