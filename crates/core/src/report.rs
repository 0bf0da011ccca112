//! Update instrumentation: per-phase timings and errors.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Wall-clock cost breakdown of one applied update — the quantity the
/// paper's patch-application experiment (Table 2) reports. Seven buckets
/// are spent inside the update pause and sum to [`PhaseTimings::total`];
/// `staged` was spent ahead of it, with the guest running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Time the stage step took ([`crate::stage`]: ahead-of-time
    /// verification plus the patch-only half of link) on the enqueuing
    /// thread, before the pause — **not part of [`PhaseTimings::total`]**.
    /// Charged to the first lifecycle that enqueues the staged patch: a
    /// fleet rollout stages once, so one worker's report carries it and
    /// the rest read zero, as does anything committed with nothing staged.
    pub staged: Duration,
    /// Time spent in the host's drain hook before the patch touched the
    /// process: a host whose in-flight work holds guest state waits for
    /// it there. Zero for hosts without a hook; FlashEd's hook carries
    /// injected pause faults only, so it reads ≈ 0 unless one is armed.
    pub drain: Duration,
    /// The certificate check — every type definition the staged
    /// verification consulted is still bound, `==` — or, when the
    /// certificate is stale or absent, full bytecode verification of the
    /// patch module ([`UpdateReport::verification`] says which).
    pub verify: Duration,
    /// Interface-compatibility / update-safety analysis.
    pub compat: Duration,
    /// Dynamic linking (type registration, code resolution, new globals):
    /// the per-process half when the patch was staged, all of it otherwise.
    pub link: Duration,
    /// Atomic rebinding of names, slots and types.
    pub bind: Duration,
    /// New-global initialiser execution (runs in the new code world,
    /// after bind and before state transformation).
    pub init: Duration,
    /// State-transformer execution.
    pub transform: Duration,
}

impl PhaseTimings {
    /// Total update pause: the seven in-pause buckets. `staged` is
    /// excluded — the guest was running.
    pub fn total(&self) -> Duration {
        self.drain + self.verify + self.compat + self.link + self.bind + self.init + self.transform
    }
}

/// How the verify phase of one commit was discharged (the journal's
/// `verify` event carries the same text as its detail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verification {
    /// Nothing was verified: `UpdatePolicy::verify` is off, or the update
    /// was a snapshot restore (no code enters the process).
    Skipped,
    /// The staged certificate held against the process: no verification
    /// ran inside the pause.
    CertificateHeld,
    /// The staged certificate was stale — the process binds `changed`
    /// (the first consulted name to differ) to another definition than the
    /// one staging saw — so the patch was verified in full, in the pause.
    Reverified {
        /// The first consulted type name whose binding differs.
        changed: String,
    },
    /// Nothing certified came with the patch (a direct `apply_patch`, a
    /// patch reloaded from a state blob, a stage whose verification
    /// failed): it was verified in full, in the pause.
    NoCertificate,
}

impl fmt::Display for Verification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verification::Skipped => write!(f, "skipped"),
            Verification::CertificateHeld => write!(f, "certificate held"),
            Verification::Reverified { changed } => {
                write!(f, "re-verified: type {changed} changed since staging")
            }
            Verification::NoCertificate => write!(f, "no certificate"),
        }
    }
}

/// The record of one successful dynamic update.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateReport {
    /// Version transition, e.g. `"v2" -> "v3"`.
    pub from_version: String,
    /// Target version.
    pub to_version: String,
    /// Per-phase wall-clock costs.
    pub timings: PhaseTimings,
    /// Whether the pause re-checked a staged certificate or verified in
    /// full.
    pub verification: Verification,
    /// Functions rebound by the update.
    pub functions_replaced: usize,
    /// Functions added.
    pub functions_added: usize,
    /// Functions removed.
    pub functions_removed: usize,
    /// Types whose name was rebound to a new version.
    pub types_changed: usize,
    /// Globals whose value was transformed.
    pub globals_transformed: usize,
    /// Patch size in (virtual) bytes.
    pub patch_bytes: usize,
    /// Whether this apply was a *rollback* — an inverse patch (reverse
    /// state transformers) or a snapshot restore taking the process back
    /// to `to_version`, which it ran before. Rollback lifecycles close
    /// with `rolled-back` in the journal instead of `committed`.
    pub rolled_back: bool,
}

impl fmt::Display for UpdateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{} -> {}: {:?} total (drain {:?}, verify {:?} [{}], compat {:?}, link {:?}, bind {:?}, init {:?}, xform {:?}; \
             staged {:?} ahead); {} replaced, {} added, {} removed, {} types, {} transformed",
            if self.rolled_back { "rollback " } else { "" },
            self.from_version,
            self.to_version,
            self.timings.total(),
            self.timings.drain,
            self.timings.verify,
            self.verification,
            self.timings.compat,
            self.timings.link,
            self.timings.bind,
            self.timings.init,
            self.timings.transform,
            self.timings.staged,
            self.functions_replaced,
            self.functions_added,
            self.functions_removed,
            self.types_changed,
            self.globals_transformed,
        )
    }
}

/// The aggregated record of one patch rolled out across a fleet of
/// workers: per-worker reports plus fleet-level pause statistics (the
/// quantities a multi-machine deployment of the paper's system would
/// monitor).
#[derive(Debug, Clone, Default)]
pub struct FleetUpdateReport {
    /// Fleet size when the rollout ran.
    pub workers: usize,
    /// Per-worker apply results: `(worker index, report)` for each worker
    /// whose apply succeeded.
    pub applied: Vec<(usize, UpdateReport)>,
    /// Per-worker failures: `(worker index, failure)` for each worker
    /// whose apply was rejected (that worker keeps serving its old
    /// version).
    pub failed: Vec<(usize, FailedUpdate)>,
    /// Per-worker observed pause (coordination wait + apply), one entry
    /// per worker that paused, in worker order.
    pub pauses: Vec<Duration>,
}

impl FleetUpdateReport {
    /// Whether every worker applied the patch.
    pub fn complete(&self) -> bool {
        self.failed.is_empty() && self.applied.len() == self.workers
    }

    /// The longest per-worker pause — for a simultaneous rollout, the
    /// fleet-wide service gap is governed by this.
    pub fn max_pause(&self) -> Duration {
        self.pauses.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Mean per-worker pause.
    pub fn mean_pause(&self) -> Duration {
        if self.pauses.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.pauses.iter().sum();
        total / self.pauses.len() as u32
    }

    /// Per-phase breakdown summed over all successful applies.
    pub fn phase_totals(&self) -> PhaseTimings {
        let mut acc = PhaseTimings::default();
        for (_, r) in &self.applied {
            acc.staged += r.timings.staged;
            acc.drain += r.timings.drain;
            acc.verify += r.timings.verify;
            acc.compat += r.timings.compat;
            acc.link += r.timings.link;
            acc.bind += r.timings.bind;
            acc.init += r.timings.init;
            acc.transform += r.timings.transform;
        }
        acc
    }
}

impl fmt::Display for FleetUpdateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let totals = self.phase_totals();
        write!(
            f,
            "fleet rollout: {}/{} applied, {} failed; pause max {:?} mean {:?}; \
             staged ahead {:?}; \
             phases (summed): drain {:?}, verify {:?}, compat {:?}, link {:?}, bind {:?}, init {:?}, xform {:?}",
            self.applied.len(),
            self.workers,
            self.failed.len(),
            self.max_pause(),
            self.mean_pause(),
            totals.staged,
            totals.drain,
            totals.verify,
            totals.compat,
            totals.link,
            totals.bind,
            totals.init,
            totals.transform,
        )
    }
}

/// Why an update was rejected or aborted. Rejected updates leave the
/// process exactly as it was (verified by snapshot/rollback).
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// The patch module failed bytecode verification.
    Verify(tal::VerifyError),
    /// The patch violates update-safety rules (see [`crate::compat`]).
    Compat(String),
    /// Dynamic linking failed.
    Link(vm::LinkError),
    /// A state transformer (or new-global initialiser) trapped.
    Transform {
        /// The transformer or initialiser that failed.
        function: String,
        /// The trap it raised.
        trap: vm::Trap,
    },
    /// The policy refused to update code that is live on the guest stack.
    ActiveCode(Vec<String>),
    /// A snapshot rollback was requested but the snapshot ring holds no
    /// entry to restore (never updated, or the ring's bound evicted it).
    NoSnapshot,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Verify(e) => write!(f, "patch verification failed: {e}"),
            UpdateError::Compat(msg) => write!(f, "update-safety violation: {msg}"),
            UpdateError::Link(e) => write!(f, "patch linking failed: {e}"),
            UpdateError::Transform { function, trap } => {
                write!(f, "state transformer `{function}` trapped: {trap}")
            }
            UpdateError::ActiveCode(fns) => {
                write!(f, "refused: updated code is active on the stack: {fns:?}")
            }
            UpdateError::NoSnapshot => {
                write!(f, "rollback refused: no snapshot available to restore")
            }
        }
    }
}

impl Error for UpdateError {}

impl UpdateError {
    /// The lifecycle phase the update failed in (stable lowercase name,
    /// matching the journal's stage names).
    pub fn phase(&self) -> &'static str {
        match self {
            UpdateError::Verify(_) => "verify",
            UpdateError::Compat(_) => "compat",
            UpdateError::Link(_) => "link",
            // New-global initialisers fail under a synthetic
            // `<init name>` function tag (see `crate::apply`).
            UpdateError::Transform { function, .. } if function.starts_with("<init") => "init",
            UpdateError::Transform { .. } => "transform",
            UpdateError::ActiveCode(_) => "policy",
            UpdateError::NoSnapshot => "rollback",
        }
    }
}

/// One rejected or rolled-back update in the failure log, carrying
/// enough context — the version transition and the failing phase — to
/// diagnose an aborted patch without replaying the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedUpdate {
    /// Source version of the attempted transition.
    pub from_version: String,
    /// Target version of the attempted transition.
    pub to_version: String,
    /// Lifecycle phase the apply failed in (see [`UpdateError::phase`]).
    pub phase: &'static str,
    /// The underlying rejection.
    pub error: UpdateError,
}

impl FailedUpdate {
    /// Wraps `error` with the transition it interrupted.
    pub fn new(from_version: &str, to_version: &str, error: UpdateError) -> FailedUpdate {
        FailedUpdate {
            from_version: from_version.to_string(),
            to_version: to_version.to_string(),
            phase: error.phase(),
            error,
        }
    }
}

impl fmt::Display for FailedUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} failed in {}: {}",
            self.from_version, self.to_version, self.phase, self.error
        )
    }
}

impl Error for FailedUpdate {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

impl From<tal::VerifyError> for UpdateError {
    fn from(e: tal::VerifyError) -> UpdateError {
        UpdateError::Verify(e)
    }
}

impl From<vm::LinkError> for UpdateError {
    fn from(e: vm::LinkError) -> UpdateError {
        UpdateError::Link(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_phases() {
        let t = PhaseTimings {
            // Spent ahead of the pause: not in the total.
            staged: Duration::from_millis(100),
            drain: Duration::from_millis(7),
            verify: Duration::from_millis(1),
            compat: Duration::from_millis(2),
            link: Duration::from_millis(3),
            bind: Duration::from_millis(4),
            init: Duration::from_millis(6),
            transform: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(28));
    }

    #[test]
    fn error_displays() {
        let e = UpdateError::Compat("type `t` changed but `f` not replaced".into());
        assert!(e.to_string().contains("update-safety"));
        let e = UpdateError::ActiveCode(vec!["handler".into()]);
        assert!(e.to_string().contains("handler"));
    }
}
