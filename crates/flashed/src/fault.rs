//! Fault injection for rollout hardening.
//!
//! Self-healing machinery is only trustworthy if it has been watched
//! healing; this module supplies the injuries. A [`FaultPlan`] describes
//! deliberate per-worker misbehaviour — threaded through
//! [`crate::FleetConfig`]/[`crate::WorkerOverride`] so tests and the
//! `rollout_guard` bench can drive real breach→rollback→converge
//! sequences:
//!
//! * **Pause inflation** ([`FaultPlan::pause_delay`]) — extra sleep inside
//!   every update pause, pushing the worker's pause tail past a
//!   [`crate::guard::PauseSlo`] budget.
//! * **Gate stall** ([`FaultPlan::gate_stall`]) — a sleep long enough that
//!   the coordinator's rollout deadline expires while the worker sits at
//!   its quiescence gate.
//! * **Read errors** ([`FaultPlan::read_errors`]) — the worker's
//!   filesystem handle fails every device read. The flag is a shared
//!   atomic, so [`crate::fs::SimFs::set_read_failures`] can also start
//!   (and stop) the failures on a *live* worker mid-run.
//! * **Crashes** ([`FaultPlan::crash_at`]) — kill the worker thread for
//!   real at a chosen [`CrashPoint`], by panicking with a typed payload
//!   that the fleet boundary maps to
//!   [`crate::fleet::WorkerFailure::Crashed`]. This is what the
//!   supervisor's restart-from-persisted-ring path is tested against.
//!
//! Guest-side faults ride in as *patches* instead: [`trapping_patch`]
//! builds one whose state transformer traps mid-apply, and
//! [`spinning_patch`] one whose transformer burns guest instructions so
//! the transform phase (and therefore the pause) balloons.

use std::sync::Mutex;
use std::time::Duration;

use dsu_core::{Patch, PatchGen, Transformer};

use crate::versions;

/// Where an injected crash kills the worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Inside the update pause's drain hook, before any patch applies —
    /// queued ops are still `Enqueued` when the thread dies, and the
    /// worker's admitted-but-unanswered requests (ready or parked on a
    /// read) die with it.
    MidPause,
    /// At the start of the apply pipeline's `transform` phase — the worst
    /// spot: bindings already flipped, state transformation interrupted.
    MidTransform,
    /// In the serve loop right after an update landed, while the cohort
    /// is soaking on the new version.
    MidSoak,
    /// In the steady-state serve loop, between requests.
    Serving,
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CrashPoint::MidPause => "mid-pause",
            CrashPoint::MidTransform => "mid-transform",
            CrashPoint::MidSoak => "mid-soak",
            CrashPoint::Serving => "serving",
        };
        f.write_str(name)
    }
}

/// The panic payload of an injected crash. The fleet's worker boundary
/// downcasts join errors to this to tell a deliberate kill
/// ([`crate::fleet::WorkerFailure::Crashed`]) apart from an accidental
/// panic.
#[derive(Debug, Clone, Copy)]
pub struct InjectedCrash(pub CrashPoint);

/// Atomically consumes a pending crash at `point` from the live plan
/// (one-shot: the point is cleared before the panic so a restarted or
/// retried path cannot re-fire it) and, if one was armed, kills the
/// current thread by panicking with [`InjectedCrash`].
pub(crate) fn crash_if_armed(plan: &Mutex<FaultPlan>, point: CrashPoint) {
    let armed = {
        let mut p = plan.lock().expect("poisoned");
        if p.crash_at == Some(point) {
            p.crash_at = None;
            true
        } else {
            false
        }
    };
    if armed {
        std::panic::panic_any(InjectedCrash(point));
    }
}

/// Deliberate per-worker misbehaviour, injected so tests can prove the
/// guarded-rollout machinery notices and reacts. `Default` injects
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Extra sleep inside every update pause (in the drain hook, before
    /// any patch applies) — inflates the recorded pause, and its `drain`
    /// phase, past a pause-SLO budget.
    pub pause_delay: Option<Duration>,
    /// Sleep at the pause's quiescence gate long enough for a
    /// coordinator's rollout deadline to expire — a worker that "hangs"
    /// mid-rollout.
    pub gate_stall: Option<Duration>,
    /// Fail every device read on this worker's filesystem handle.
    /// Armed at worker boot, and — because the flag is shared — also
    /// flippable on a live worker via
    /// [`crate::fs::SimFs::set_read_failures`] (or
    /// [`crate::Fleet::set_worker_read_failures`]).
    pub read_errors: bool,
    /// Kill the worker thread for real at the given point (one-shot; the
    /// supervisor restarts the worker with the crash disarmed).
    pub crash_at: Option<CrashPoint>,
}

impl FaultPlan {
    /// A plan that injects nothing (same as `Default`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan injects anything at update pauses.
    pub fn delays_pauses(&self) -> bool {
        self.pause_delay.is_some() || self.gate_stall.is_some()
    }

    /// Sleeps the injected pause delays. Called from the worker's drain
    /// hook, so the wait lands in the pause and its `drain` phase — the
    /// only thing a FlashEd server ever charges there.
    pub(crate) fn sleep(&self) {
        if let Some(d) = self.pause_delay {
            std::thread::sleep(d);
        }
        if let Some(d) = self.gate_stall {
            std::thread::sleep(d);
        }
    }
}

/// The v1→v2 FlashEd patch with a state transformer grafted on that traps
/// (division by zero) mid-apply: the apply aborts in its `transform`
/// phase and `apply_patch`'s snapshot restore puts the process back on
/// v1 — the canonical "bad patch" for abort paths.
///
/// # Panics
///
/// Panics if the checked-in version sources stop generating (covered by
/// tests).
pub fn trapping_patch() -> Patch {
    faulted_patch(
        "v2-trap",
        "fun fault_boom(x: int): int { return x / 0; }",
        "fault_boom",
    )
}

/// The v1→v2 FlashEd patch with a state transformer that spins `iters`
/// guest iterations before returning its input unchanged: the transform
/// phase (and therefore the worker's update pause) balloons, breaching
/// wall-clock pause budgets without any host-side sleep.
///
/// # Panics
///
/// As [`trapping_patch`].
pub fn spinning_patch(iters: u64) -> Patch {
    faulted_patch(
        "v2-slow",
        &format!(
            "fun fault_spin(x: int): int {{\n    var i: int = 0;\n    while (i < {iters}) {{ i = i + 1; }}\n    return x;\n}}"
        ),
        "fault_spin",
    )
}

/// Generates v1→`to_version` where v2 additionally defines `function`
/// (source in `def`), then registers it as the transformer for the
/// `served_total` global so it runs during the apply's transform phase.
fn faulted_patch(to_version: &str, def: &str, function: &str) -> Patch {
    let v2_faulted = format!("{}\n{def}\n", versions::v2());
    let mut generated = PatchGen::new()
        .generate(&versions::v1(), &v2_faulted, "v1", to_version)
        .expect("fault patch generates");
    generated.patch.manifest.transformers.push(Transformer {
        global: "served_total".to_string(),
        function: function.to_string(),
    });
    generated.patch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::SimFs;
    use crate::server::{Server, ServerConfig};
    use crate::workload::Workload;
    use dsu_core::UpdateError;

    #[test]
    fn trapping_patch_aborts_and_the_server_keeps_its_version() {
        let fs = SimFs::generate_fixed(8, 128, 3);
        let mut wl = Workload::new(fs.paths(), 1.0, 11);
        let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
        s.updater.strict = false;
        s.push_requests(wl.batch(5));
        s.serve().unwrap();

        s.queue_patch(trapping_patch());
        s.apply_pending_now().unwrap();
        let failures = s.updater.failures();
        assert_eq!(failures.len(), 1);
        assert!(matches!(
            failures[0].error,
            UpdateError::Transform { ref function, .. } if function == "fault_boom"
        ));
        assert!(s.updater.log().is_empty(), "nothing applied");

        // The snapshot restore left the server serving v1, correctly.
        s.push_requests(wl.batch(5));
        assert_eq!(s.serve().unwrap(), 5);
    }

    #[test]
    fn spinning_patch_inflates_the_transform_phase() {
        let fs = SimFs::generate_fixed(8, 128, 3);
        let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
        s.queue_patch(spinning_patch(200_000));
        s.apply_pending_now().unwrap();
        let report = &s.updater.log()[0];
        assert!(
            report.timings.transform > Duration::from_micros(50),
            "spin transformer should dominate: {:?}",
            report.timings
        );
    }
}
