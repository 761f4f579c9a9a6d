//! Deterministic failpoints for crash testing.
//!
//! A [`FailpointRegistry`] maps *site names* (e.g. `storage.insert`,
//! `durable.wal_append`, `evolve.classify`) to a one-shot action that fires
//! on the Nth time execution reaches the site. Sites are threaded through
//! storage mutation paths, the durable persistence layer, and each phase of
//! the evolution pipeline, so a test can kill the system at any point in a
//! schema change and then prove recovery restores a consistent state.
//!
//! The registry is a cheap clonable handle (`Arc` inside); every layer of
//! one system shares the same registry. When nothing is armed, a site check
//! is a single relaxed atomic load — the hooks cost effectively nothing in
//! production and in benches.
//!
//! Determinism: a site fires on an exact hit count after arming, never on
//! wall-clock or randomness, so every injected fault is replayable.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::StorageError;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Return an [`StorageError::Injected`] error from the site: a clean,
    /// recoverable failure the caller is expected to handle (an evolve
    /// drops its fork).
    Error,
    /// Return [`StorageError::SimulatedCrash`]: the process is considered
    /// dead at this point. Callers propagate it without cleanup: an evolve
    /// drops its fork, so the system is unchanged, and a durable system
    /// poisons its log, so every later write and change is refused. The
    /// test drops the in-memory system and re-opens from disk.
    Crash,
    /// For file-writing sites only: persist the first `keep_bytes` bytes of
    /// the write, then crash — a torn write, exactly what a power cut
    /// mid-`write(2)` leaves behind. Non-file sites treat it as
    /// [`FailAction::Crash`].
    TornWrite {
        /// Bytes of the attempted write that reach the disk.
        keep_bytes: usize,
    },
    /// Return [`StorageError::Transient`] for `succeed_after` consecutive
    /// hits starting at the trigger hit, then pass forever: a momentary
    /// device stall that a bounded retry loop rides out. Unlike the other
    /// actions this one is multi-shot — it fires on hits
    /// `[trigger, trigger + succeed_after)`.
    TransientError {
        /// Number of consecutive hits that fail before the site recovers.
        succeed_after: u64,
    },
    /// Return [`StorageError::DiskFull`] on every hit from the trigger on,
    /// until the site is disarmed — a full disk stays full until space is
    /// reclaimed. Sticky, not one-shot.
    DiskFull,
}

impl FailAction {
    /// The error a firing site returns.
    pub fn to_error(self, site: &str) -> StorageError {
        match self {
            FailAction::Error => StorageError::Injected(site.to_string()),
            FailAction::Crash | FailAction::TornWrite { .. } => {
                StorageError::SimulatedCrash(site.to_string())
            }
            FailAction::TransientError { .. } => {
                StorageError::Transient(format!("injected transient fault at {site}"))
            }
            FailAction::DiskFull => {
                StorageError::DiskFull(format!("injected disk-full at {site}"))
            }
        }
    }
}

#[derive(Debug)]
struct Armed {
    action: FailAction,
    /// 1-based hit index on which the action fires.
    trigger_on_hit: u64,
    /// Hits observed since arming.
    hits: u64,
    /// Whether the action has already fired (one-shot).
    fired: bool,
}

#[derive(Default)]
struct Inner {
    /// Fast path: false ⇒ no site is armed, `hit` returns immediately.
    any_armed: AtomicBool,
    map: Mutex<HashMap<String, Armed>>,
    /// When true, [`FailpointRegistry::backoff_sleep`] accumulates into
    /// `virtual_slept_ns` instead of blocking the thread — deterministic,
    /// instant backoff for tests.
    virtual_clock: AtomicBool,
    /// Total nanoseconds "slept" while the virtual clock was on.
    virtual_slept_ns: AtomicU64,
}

/// Shared registry of armed failpoints. Clones share state.
#[derive(Clone, Default)]
pub struct FailpointRegistry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FailpointRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let map = self.inner.map.lock();
        f.debug_struct("FailpointRegistry").field("armed", &map.len()).finish()
    }
}

impl FailpointRegistry {
    /// A registry with nothing armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `site` to perform `action` on its `on_hit`-th hit (1-based;
    /// 0 is treated as 1). One-shot: after firing, the site counts hits but
    /// never fires again until re-armed. Re-arming resets the hit counter.
    pub fn arm(&self, site: &str, on_hit: u64, action: FailAction) {
        let mut map = self.inner.map.lock();
        map.insert(
            site.to_string(),
            Armed { action, trigger_on_hit: on_hit.max(1), hits: 0, fired: false },
        );
        self.inner.any_armed.store(true, Ordering::Release);
    }

    /// Count hits at `site` without ever firing — used to discover how many
    /// times a workload passes a site before choosing where to crash it.
    pub fn observe(&self, site: &str) {
        self.arm(site, u64::MAX, FailAction::Error);
    }

    /// Disarm one site (its hit count is discarded).
    pub fn disarm(&self, site: &str) {
        let mut map = self.inner.map.lock();
        map.remove(site);
        if map.is_empty() {
            self.inner.any_armed.store(false, Ordering::Release);
        }
    }

    /// Disarm everything.
    pub fn clear(&self) {
        let mut map = self.inner.map.lock();
        map.clear();
        self.inner.any_armed.store(false, Ordering::Release);
    }

    /// Hits observed at `site` since it was (last) armed.
    pub fn hits(&self, site: &str) -> u64 {
        self.inner.map.lock().get(site).map(|a| a.hits).unwrap_or(0)
    }

    /// Has `site` fired since it was armed?
    pub fn fired(&self, site: &str) -> bool {
        self.inner.map.lock().get(site).map(|a| a.fired).unwrap_or(false)
    }

    /// Instrumentation call placed at each site: count the hit and return
    /// the action to perform if the site fires now.
    pub fn hit(&self, site: &str) -> Option<FailAction> {
        if !self.inner.any_armed.load(Ordering::Acquire) {
            return None;
        }
        let mut map = self.inner.map.lock();
        let armed = map.get_mut(site)?;
        armed.hits += 1;
        match armed.action {
            // Multi-shot: fail on hits [trigger, trigger + succeed_after),
            // then pass forever — the device "recovered".
            FailAction::TransientError { succeed_after } => {
                let window_end = armed.trigger_on_hit.saturating_add(succeed_after);
                if armed.hits >= armed.trigger_on_hit && armed.hits < window_end {
                    armed.fired = true;
                    return Some(armed.action);
                }
            }
            // Sticky: a full disk stays full until disarmed.
            FailAction::DiskFull => {
                if armed.hits >= armed.trigger_on_hit {
                    armed.fired = true;
                    return Some(armed.action);
                }
            }
            // One-shot actions fire exactly on the trigger hit.
            _ => {
                if !armed.fired && armed.hits == armed.trigger_on_hit {
                    armed.fired = true;
                    return Some(armed.action);
                }
            }
        }
        None
    }

    /// Convenience: check the site and convert a firing into an `Err`.
    pub fn check(&self, site: &str) -> Result<(), StorageError> {
        match self.hit(site) {
            Some(action) => Err(action.to_error(site)),
            None => Ok(()),
        }
    }

    /// Switch retry-backoff sleeps to a virtual clock (tests) or back to
    /// real `thread::sleep` (production default).
    pub fn set_virtual_clock(&self, on: bool) {
        self.inner.virtual_clock.store(on, Ordering::Release);
    }

    /// Sleep `ns` nanoseconds before a retry. Under the virtual clock the
    /// duration is accumulated instead of slept, so deterministic tests run
    /// at full speed while still asserting the schedule production would
    /// follow.
    pub fn backoff_sleep(&self, ns: u64) {
        if self.inner.virtual_clock.load(Ordering::Acquire) {
            self.inner.virtual_slept_ns.fetch_add(ns, Ordering::Relaxed);
        } else if ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }

    /// Total nanoseconds accumulated by [`Self::backoff_sleep`] while the
    /// virtual clock was on.
    pub fn virtual_slept_ns(&self) -> u64 {
        self.inner.virtual_slept_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_on_nth_hit_once() {
        let fp = FailpointRegistry::new();
        fp.arm("s", 3, FailAction::Error);
        assert_eq!(fp.hit("s"), None);
        assert_eq!(fp.hit("s"), None);
        assert_eq!(fp.hit("s"), Some(FailAction::Error));
        assert_eq!(fp.hit("s"), None, "one-shot");
        assert_eq!(fp.hits("s"), 4);
        assert!(fp.fired("s"));
    }

    #[test]
    fn unarmed_sites_are_free_and_silent() {
        let fp = FailpointRegistry::new();
        assert_eq!(fp.hit("nothing"), None);
        fp.arm("a", 1, FailAction::Crash);
        assert_eq!(fp.hit("b"), None, "other sites unaffected");
        assert!(fp.check("a").is_err());
        fp.clear();
        assert_eq!(fp.hit("a"), None);
    }

    #[test]
    fn observe_counts_without_firing() {
        let fp = FailpointRegistry::new();
        fp.observe("s");
        for _ in 0..10 {
            assert_eq!(fp.hit("s"), None);
        }
        assert_eq!(fp.hits("s"), 10);
    }

    #[test]
    fn clones_share_state() {
        let fp = FailpointRegistry::new();
        let other = fp.clone();
        other.arm("s", 1, FailAction::Crash);
        assert_eq!(fp.hit("s"), Some(FailAction::Crash));
    }

    #[test]
    fn transient_error_fires_for_window_then_passes() {
        let fp = FailpointRegistry::new();
        fp.arm("s", 2, FailAction::TransientError { succeed_after: 3 });
        assert_eq!(fp.hit("s"), None, "hit 1: before trigger");
        for i in 0..3 {
            assert!(
                matches!(fp.hit("s"), Some(FailAction::TransientError { .. })),
                "hit {} inside the failure window",
                i + 2
            );
        }
        assert_eq!(fp.hit("s"), None, "hit 5: device recovered");
        assert_eq!(fp.hit("s"), None, "stays recovered");
        assert!(fp.fired("s"));
    }

    #[test]
    fn disk_full_is_sticky_until_disarmed() {
        let fp = FailpointRegistry::new();
        fp.arm("s", 1, FailAction::DiskFull);
        for _ in 0..5 {
            assert_eq!(fp.hit("s"), Some(FailAction::DiskFull));
        }
        fp.disarm("s");
        assert_eq!(fp.hit("s"), None, "space reclaimed");
    }

    #[test]
    fn virtual_clock_accumulates_instead_of_sleeping() {
        let fp = FailpointRegistry::new();
        fp.set_virtual_clock(true);
        fp.backoff_sleep(5_000_000_000); // 5 s — would hang a real sleep
        fp.backoff_sleep(1);
        assert_eq!(fp.virtual_slept_ns(), 5_000_000_001);
    }

    #[test]
    fn actions_map_to_errors() {
        assert!(matches!(
            FailAction::Error.to_error("x"),
            StorageError::Injected(s) if s == "x"
        ));
        assert!(matches!(
            FailAction::Crash.to_error("x"),
            StorageError::SimulatedCrash(s) if s == "x"
        ));
        assert!(matches!(
            FailAction::TornWrite { keep_bytes: 4 }.to_error("x"),
            StorageError::SimulatedCrash(_)
        ));
        assert!(matches!(
            FailAction::TransientError { succeed_after: 1 }.to_error("x"),
            StorageError::Transient(s) if s.contains("x")
        ));
        assert!(matches!(
            FailAction::DiskFull.to_error("x"),
            StorageError::DiskFull(s) if s.contains("x")
        ));
    }
}
