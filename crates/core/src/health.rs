//! System health state machine: `Healthy → Degraded(read-only) → Poisoned`.
//!
//! The paper's promise is *transparent* evolution — applications keep
//! working through schema change. A durability fault must therefore degrade
//! service, not end it. The health machine classifies every durable-path
//! failure by [`tse_storage::IoFaultKind`] and reacts by kind:
//!
//! - **Transient, retries exhausted** or **disk full** → [`SystemHealth::Degraded`]:
//!   reads keep serving from the published metadata snapshot, writers get a
//!   typed `ModelError::Unavailable { retry_after }` as backpressure, and an
//!   explicit `try_heal()` can restore `Healthy` without a restart.
//! - **Corruption**, or a **permanent** fault that actually poisoned the WAL
//!   (failed fsync) → [`SystemHealth::Poisoned`]: fail-stop, absorbing. The
//!   process must restart and recover from disk; `try_heal()` refuses — a
//!   poisoned log's durable contents are unknowable, so "healing" in place
//!   could silently ack lost writes.
//!
//! Every transition is journaled as a `health.transition` event (fields
//! `from`, `to`, `reason`) under the active trace, and mirrored in the
//! `health.state` gauge (0 = healthy, 1 = degraded, 2 = poisoned), so
//! `tse-inspect --check` can flag a degradation that never recovered.
//!
//! Transition rules (enforced by [`HealthMachine`]):
//! `Degraded` is only entered from `Healthy` (re-degrading with a new
//! reason while already degraded keeps the *first* reason — the root
//! cause); `Poisoned` is entered from anywhere and never left; `Healthy`
//! is only re-entered from `Degraded`, via a successful heal.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use tse_storage::{IoFaultKind, StorageError};
use tse_telemetry::Telemetry;

/// Why the system dropped to read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The device reported `ENOSPC`; space must be reclaimed (the heal
    /// path's emergency checkpoint resets the log) before writes resume.
    DiskFull,
    /// A transient fault outlasted the bounded retry budget.
    RetriesExhausted,
}

impl DegradedReason {
    /// Stable lowercase name used in telemetry and error messages.
    pub fn name(self) -> &'static str {
        match self {
            DegradedReason::DiskFull => "disk_full",
            DegradedReason::RetriesExhausted => "retries_exhausted",
        }
    }
}

/// Current service level of a durable system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemHealth {
    /// Normal operation.
    Healthy,
    /// Read-only: reads serve, writes get `Unavailable` backpressure,
    /// `try_heal()` may restore `Healthy`.
    Degraded {
        /// Root cause of the degradation.
        reason: DegradedReason,
    },
    /// Fail-stop: the WAL's durable contents are unknowable (failed fsync)
    /// or on-disk state is corrupt. Absorbing — restart and recover.
    Poisoned,
}

impl SystemHealth {
    /// Stable lowercase name used in telemetry fields.
    pub fn name(&self) -> &'static str {
        match self {
            SystemHealth::Healthy => "healthy",
            SystemHealth::Degraded { .. } => "degraded",
            SystemHealth::Poisoned => "poisoned",
        }
    }

    fn gauge(&self) -> u64 {
        match self {
            SystemHealth::Healthy => 0,
            SystemHealth::Degraded { .. } => 1,
            SystemHealth::Poisoned => 2,
        }
    }
}

impl fmt::Display for SystemHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemHealth::Degraded { reason } => write!(f, "degraded ({})", reason.name()),
            other => f.write_str(other.name()),
        }
    }
}

/// Thread-safe holder of a [`SystemHealth`] enforcing the transition rules
/// and journaling every transition.
#[derive(Debug)]
pub struct HealthMachine {
    /// Fast path for the per-write health check: the gauge value.
    state: AtomicU8,
    detail: Mutex<SystemHealth>,
}

impl Default for HealthMachine {
    fn default() -> Self {
        HealthMachine {
            state: AtomicU8::new(0),
            detail: Mutex::new(SystemHealth::Healthy),
        }
    }
}

impl HealthMachine {
    /// A machine starting `Healthy`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current health. The fast path (`Healthy`) is a single relaxed load.
    pub fn current(&self) -> SystemHealth {
        if self.state.load(Ordering::Relaxed) == 0 {
            return SystemHealth::Healthy;
        }
        *self.detail.lock().unwrap()
    }

    /// True when writes should be refused with `Unavailable` (degraded
    /// only — a poisoned system refuses them with the WAL's own fail-stop
    /// error, preserving its diagnostic).
    pub fn is_degraded(&self) -> bool {
        matches!(self.current(), SystemHealth::Degraded { .. })
    }

    /// Degrade to read-only. Only effective from `Healthy`: a second fault
    /// while already degraded keeps the original root cause, and a
    /// poisoned system never un-poisons. Returns true when the transition
    /// happened.
    pub fn degrade(&self, reason: DegradedReason, telemetry: &Telemetry) -> bool {
        let mut cur = self.detail.lock().unwrap();
        if *cur != SystemHealth::Healthy {
            return false;
        }
        let next = SystemHealth::Degraded { reason };
        self.transition(&mut cur, next, reason.name(), telemetry);
        true
    }

    /// Enter fail-stop. Absorbing; idempotent. Returns true on the first
    /// transition.
    pub fn poison(&self, reason: &str, telemetry: &Telemetry) -> bool {
        let mut cur = self.detail.lock().unwrap();
        if *cur == SystemHealth::Poisoned {
            return false;
        }
        self.transition(&mut cur, SystemHealth::Poisoned, reason, telemetry);
        true
    }

    /// Record a successful heal: `Degraded → Healthy`. Refused (returns
    /// false) from any other state.
    pub fn healed(&self, telemetry: &Telemetry) -> bool {
        let mut cur = self.detail.lock().unwrap();
        if !matches!(*cur, SystemHealth::Degraded { .. }) {
            return false;
        }
        self.transition(&mut cur, SystemHealth::Healthy, "heal", telemetry);
        true
    }

    fn transition(
        &self,
        cur: &mut SystemHealth,
        next: SystemHealth,
        reason: &str,
        telemetry: &Telemetry,
    ) {
        let from = *cur;
        *cur = next;
        self.state.store(next.gauge() as u8, Ordering::Relaxed);
        telemetry.set_gauge("health.state", next.gauge());
        telemetry.incr("health.transitions", 1);
        telemetry.event(
            "health.transition",
            &[
                ("from", from.name().into()),
                ("to", next.name().into()),
                ("reason", reason.into()),
            ],
        );
    }
}

/// Classify a durable-path error and advance the health machine. Called at
/// every point a WAL append, fsync, or snapshot write surfaces an error to
/// the control/data plane (retries have already been spent by then):
///
/// - disk-full → `Degraded(disk_full)`;
/// - transient (necessarily retry-exhausted to reach here) →
///   `Degraded(retries_exhausted)`;
/// - corruption → `Poisoned`;
/// - permanent errors poison only when the WAL itself is poisoned (failed
///   fsync) — a *clean* injected failure (`StorageError::Injected` from a
///   rolled-back evolve or a no-op append fault) leaves health alone;
/// - [`StorageError::Poisoned`] never transitions: it is a follower's
///   observation of an earlier root cause, which was classified when it
///   happened. Without this rule a degraded system would be escalated to
///   `Poisoned` by every thread that merely *noticed* the poisoned log.
pub(crate) fn observe_io_error(
    health: &HealthMachine,
    wal_poisoned: bool,
    telemetry: &Telemetry,
    e: &StorageError,
) {
    match IoFaultKind::of(e) {
        IoFaultKind::DiskFull => {
            health.degrade(DegradedReason::DiskFull, telemetry);
        }
        IoFaultKind::Transient => {
            health.degrade(DegradedReason::RetriesExhausted, telemetry);
        }
        IoFaultKind::Corruption => {
            health.poison(&e.to_string(), telemetry);
        }
        IoFaultKind::Permanent => {
            if !matches!(e, StorageError::Poisoned(_)) && wal_poisoned {
                health.poison(&e.to_string(), telemetry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_classifies_by_kind() {
        let t = Telemetry::new();
        let h = HealthMachine::new();
        // A clean injected failure with a healthy log: no transition.
        observe_io_error(&h, false, &t, &StorageError::Injected("site".into()));
        assert_eq!(h.current(), SystemHealth::Healthy);
        // A follower seeing the poisoned log: still no transition.
        observe_io_error(&h, true, &t, &StorageError::Poisoned("earlier".into()));
        assert_eq!(h.current(), SystemHealth::Healthy);
        // Disk full degrades.
        observe_io_error(&h, false, &t, &StorageError::DiskFull("enospc".into()));
        assert_eq!(h.current(), SystemHealth::Degraded { reason: DegradedReason::DiskFull });

        // Root-cause permanent fault with a poisoned wal: poison.
        let h2 = HealthMachine::new();
        observe_io_error(&h2, true, &t, &StorageError::Injected("durable.wal_fsync".into()));
        assert_eq!(h2.current(), SystemHealth::Poisoned);

        // Exhausted transient retries: degraded, even if the wal poisoned.
        let h3 = HealthMachine::new();
        observe_io_error(&h3, true, &t, &StorageError::Transient("stall".into()));
        assert_eq!(
            h3.current(),
            SystemHealth::Degraded { reason: DegradedReason::RetriesExhausted }
        );
    }

    #[test]
    fn healthy_to_degraded_to_healed() {
        let t = Telemetry::new();
        let h = HealthMachine::new();
        assert_eq!(h.current(), SystemHealth::Healthy);
        assert!(h.degrade(DegradedReason::DiskFull, &t));
        assert_eq!(h.current(), SystemHealth::Degraded { reason: DegradedReason::DiskFull });
        assert!(h.is_degraded());
        assert!(h.healed(&t));
        assert_eq!(h.current(), SystemHealth::Healthy);
        assert_eq!(t.snapshot().counter("health.transitions"), 2);
        assert_eq!(t.snapshot().counter("health.state"), 0);
    }

    #[test]
    fn second_degrade_keeps_the_root_cause() {
        let t = Telemetry::new();
        let h = HealthMachine::new();
        assert!(h.degrade(DegradedReason::RetriesExhausted, &t));
        assert!(!h.degrade(DegradedReason::DiskFull, &t), "already degraded");
        assert_eq!(
            h.current(),
            SystemHealth::Degraded { reason: DegradedReason::RetriesExhausted }
        );
    }

    #[test]
    fn poisoned_is_absorbing() {
        let t = Telemetry::new();
        let h = HealthMachine::new();
        assert!(h.poison("fsync failed", &t));
        assert!(!h.poison("again", &t), "idempotent");
        assert!(!h.degrade(DegradedReason::DiskFull, &t));
        assert!(!h.healed(&t), "a poisoned system cannot heal in place");
        assert_eq!(h.current(), SystemHealth::Poisoned);
        assert_eq!(t.snapshot().counter("health.state"), 2);
    }

    #[test]
    fn healed_requires_degraded() {
        let t = Telemetry::new();
        let h = HealthMachine::new();
        assert!(!h.healed(&t), "healthy has nothing to heal");
        assert_eq!(t.snapshot().counter("health.transitions"), 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(SystemHealth::Healthy.to_string(), "healthy");
        assert_eq!(
            SystemHealth::Degraded { reason: DegradedReason::DiskFull }.to_string(),
            "degraded (disk_full)"
        );
        assert_eq!(SystemHealth::Poisoned.to_string(), "poisoned");
    }
}
