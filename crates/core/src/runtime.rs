//! The update runtime: pending patches, update points, and the driver loop.
//!
//! An [`Updater`] owns the patch queue and the update policy. Host code
//! runs guest entry points through [`Updater::run`]; when a patch is
//! pending and the guest reaches an `update;` point, the run suspends, all
//! queued patches are applied in order, and execution resumes — old frames
//! under old code, everything else under the new version. This is exactly
//! the paper's programmer-chosen update-point model.
//!
//! Patches are *staged* where they are enqueued ([`crate::stage`]:
//! verified ahead of time, on the enqueuing thread, while the guest runs)
//! and *committed* at the update point, where the pause only re-checks
//! the stage's certificate. No staging happens inside
//! [`Updater::apply_pending`].
//!
//! The updater is a monitor. Everything another thread may see — the op
//! queue and its mid-apply count, the reports, failures and pause events,
//! the ring's transitions, the bound-type view, the gate, the trace
//! destination — sits behind **one lock with one condvar**, and an
//! [`Updater`] and its [`UpdaterRemote`]s are two views of it: the worker
//! thread's (which also owns what never leaves that thread — the snapshot
//! ring, the drain hook, the replay chain) and a coordinator's. The lock
//! is held for pops, pushes and reads only: the drain hook, the gate,
//! [`crate::stage`], the commit, journal writes and guest code all run
//! with it released. A pause collects its outcomes locally and
//! **publishes them once**, as its last act on every exit path, so whoever
//! holds the lock sees the whole pause or none of it: a report never
//! precedes its pause event, and `pending_count() == 0` never precedes an
//! outcome. [`UpdaterRemote::wait_until`] evaluates its predicate under
//! that lock and parks on the condvar, so there is no window between "not
//! yet" and "parked" for a publish to fall into.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dsu_obs::trace::{Span, SpanKind};
use dsu_obs::{Journal, Stage, Tracer};
use tal::TypeDef;
use vm::{Outcome, Process, ProcessTypes, Trap, UpdateSignal, Value};

use crate::apply::{stage, Committed, PhaseSpanLog, StagedPatch, UpdatePolicy};
use crate::patch::Patch;
use crate::report::{FailedUpdate, PhaseTimings, UpdateError, UpdateReport, Verification};
use crate::rollback::SnapshotRing;

/// One update pause: the guest suspended (or sat quiescent) while queued
/// patches applied. Host instrumentation (e.g. the FlashEd server's
/// service-time accounting) uses these to tell update-pause time apart
/// from genuine request service time.
#[derive(Debug, Clone, Copy)]
pub struct PauseEvent {
    /// When the pause began.
    pub at: Instant,
    /// How long the pause lasted: gate wait (coordinated rollouts) plus
    /// apply time for the whole queue, successful or not.
    pub dur: Duration,
}

/// A read-only handle onto an [`Updater`]'s pause history, for host
/// instrumentation that outlives its borrow of the updater. Observes
/// pauses published after the handle was taken.
#[derive(Clone)]
pub struct PauseLog(Arc<Shared>);

impl PauseLog {
    /// Total length of the pauses that began at or after `t0`. Pauses are
    /// published in time order, so this scans from the newest and stops
    /// at the first that began earlier.
    pub fn paused_since(&self, t0: Instant) -> Duration {
        let s = self.0.lock();
        s.pauses
            .iter()
            .rev()
            .take_while(|ev| ev.at >= t0)
            .map(|ev| ev.dur)
            .sum()
    }
}

/// A one-shot rendezvous run at the start of the next update pause, before
/// any patch applies — e.g. a barrier wait that lines a whole fleet up at
/// their update points for a simultaneous rollout.
pub type Gate = Box<dyn FnOnce() + Send>;

/// A persistent quiescence hook run at the start of *every* update pause,
/// before the gate and before any patch applies. A host whose asynchronous
/// in-flight work holds guest values or frames installs one to drain that
/// work to quiescence (FlashEd's parked reads hold neither; its hook only
/// injects faults); the updater times the call and charges the wait to the
/// pause's first applied patch as [`crate::PhaseTimings::drain`].
pub type DrainHook = Box<dyn FnMut() + Send>;

/// An opaque cursor into one updater's outcome history: take it with
/// [`UpdaterRemote::mark`] before enqueueing, read what happened after it
/// with [`UpdaterRemote::since`]. The default mark is the beginning.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    reports: usize,
    failures: usize,
    pauses: usize,
}

/// Everything published after a [`Mark`], read as one consistent cut:
/// whole pauses only, each report and failure with its pause event.
#[derive(Debug, Clone, Default)]
pub struct Cut {
    /// Reports of the successful applies, oldest first.
    pub reports: Vec<UpdateReport>,
    /// Failures of the failed applies, oldest first.
    pub failures: Vec<FailedUpdate>,
    /// The update pauses, oldest first.
    pub pauses: Vec<PauseEvent>,
}

/// What a [`UpdaterRemote::wait_until`] predicate is shown: the updater's
/// counts, read under its lock — so all four belong to one instant.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Successful applies so far.
    pub applied: usize,
    /// Failed applies so far (non-strict updater).
    pub failed: usize,
    /// Operations queued or mid-apply. Zero means every submitted op's
    /// outcome is counted above.
    pub pending: usize,
    /// Update pauses published so far.
    pub pauses: usize,
}

impl Progress {
    /// Operations resolved — applied or failed — since `mark` (zero when
    /// the history is shorter than the mark: a restarted worker's is).
    pub fn resolved_since(&self, mark: Mark) -> usize {
        (self.applied + self.failed).saturating_sub(mark.reports + mark.failures)
    }
}

/// Where an updater's lifecycle events go: a shared journal plus the
/// worker tag stamped onto every event this updater emits, and — when
/// span tracing is on — the shared [`Tracer`] update spans land in.
#[derive(Clone)]
struct Trace {
    journal: Journal,
    worker: Option<usize>,
    tracer: Option<Tracer>,
}

/// Span bookkeeping for one update pause: ids are allocated before the
/// gate runs so the `GateWait` journal event can cross-link to the root
/// span the pause's first applied patch will record.
struct SpanCtx {
    tracer: Tracer,
    worker: Option<usize>,
    /// Trace the pause joins: the propagated rollout trace when a
    /// coordinator set one, else a fresh trace per pause.
    trace_id: u64,
    /// Rollout root span to parent under, when propagated.
    parent: Option<u64>,
    /// Pre-allocated root span id for the pause's first applied patch.
    head_root: u64,
    /// Whether `head_root` has been claimed yet.
    head_used: bool,
}

/// A queued update operation, tagged with its journal lifecycle id
/// (0 when no journal is attached).
struct QueuedOp {
    update: u64,
    kind: OpKind,
    /// The stage cost this lifecycle claimed at enqueue (zero when the
    /// patch came unstaged, or another lifecycle already paid for it).
    stage_cost: Duration,
}

/// What a queued operation does when the pause drains it.
#[derive(Clone)]
enum OpKind {
    /// Commit `staged`. `rollback` marks an *inverse* patch — a downgrade
    /// whose reverse state transformers take the process back to a prior
    /// version while preserving current guest state; its lifecycle closes
    /// with `RolledBack` instead of `Committed`.
    Apply {
        staged: Arc<StagedPatch>,
        rollback: bool,
    },
    /// Pop the snapshot ring and restore its top entry (best-effort state:
    /// guest mutations made after the forward apply are lost). The
    /// versions are resolved from the ring at enqueue time for the
    /// journal's benefit; apply re-reads the ring, so a raced ring is
    /// surfaced as an abort, not a wrong restore.
    Restore { from: String, to: String },
}

impl QueuedOp {
    fn version_from(&self) -> &str {
        match &self.kind {
            OpKind::Apply { staged, .. } => &staged.patch().from_version,
            OpKind::Restore { from, .. } => from,
        }
    }

    fn version_to(&self) -> &str {
        match &self.kind {
            OpKind::Apply { staged, .. } => &staged.patch().to_version,
            OpKind::Restore { to, .. } => to,
        }
    }
}

/// What the monitor's lock guards: every piece of an updater another
/// thread may read or write.
#[derive(Default)]
struct State {
    queue: VecDeque<QueuedOp>,
    /// Ops the running pause has popped off `queue` and not published
    /// yet. Counted into `pending_count`, so "nothing pending" can never
    /// be observed while an outcome is still invisible.
    mid_apply: usize,
    reports: Vec<UpdateReport>,
    /// Failures of patches that did not apply (the run continues), with
    /// version-transition and failing-phase context attached.
    failures: Vec<FailedUpdate>,
    pauses: Vec<PauseEvent>,
    /// The `(from, to)` transitions the worker's snapshot ring retains,
    /// oldest first: what a coordinator may see of a ring whose snapshots
    /// hold `Rc` guest values and never leave the worker thread.
    transitions: Vec<(String, String)>,
    /// The type definitions the process binds, by name, as a `Send` value
    /// a coordinator can stage against. `None` until [`Updater::remote`]
    /// seeds it; refreshed by any pause that changed a type binding.
    /// Advisory only — commit checks the certificate against the process
    /// itself, so a view that lags costs a re-verification, never safety.
    bound_types: Option<Arc<BTreeMap<String, TypeDef>>>,
    /// One-shot rendezvous for the next pause (coordinated rollouts).
    gate: Option<Gate>,
    /// Lifecycle-event destination (None = tracing off, the default —
    /// enqueues and applies cost nothing extra).
    trace: Option<Trace>,
    /// Propagated rollout span context `(trace, span)`: when set (by a
    /// fleet coordinator), update spans this worker records parent under
    /// that rollout span instead of opening fresh traces. Persists until
    /// overwritten by the next rollout.
    span_parent: Option<(u64, u64)>,
    /// Threads parked in [`UpdaterRemote::wait_until`]. A publish signals
    /// the condvar only when this is non-zero, so an apply nobody waits
    /// for (a bare guest, a boot-time replay) pays no wake-up system call.
    waiting: usize,
}

impl State {
    fn progress(&self) -> Progress {
        Progress {
            applied: self.reports.len(),
            failed: self.failures.len(),
            pending: self.queue.len() + self.mid_apply,
            pauses: self.pauses.len(),
        }
    }
}

/// One change to the monitor's state, made visible in one critical
/// section (see [`Shared::publish`]). The default changes nothing and is
/// a bare wake.
#[derive(Default)]
struct Publication {
    reports: Vec<UpdateReport>,
    failures: Vec<FailedUpdate>,
    pause: Option<PauseEvent>,
    /// The ring's transitions, when the ring changed.
    transitions: Option<Vec<(String, String)>>,
    /// The bound-type view, when a type binding changed.
    bound_types: Option<Arc<BTreeMap<String, TypeDef>>>,
    /// Popped ops this resolves: the mid-apply count drops by it.
    resolved: usize,
}

/// The monitor an [`Updater`] and its [`UpdaterRemote`]s share.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    moved: Condvar,
    /// `notify_all` calls made so far (what the no-waiter test observes).
    #[cfg(test)]
    notifies: std::sync::atomic::AtomicUsize,
}

impl Shared {
    /// Every critical section is a few pushes, pops or reads that leave
    /// `State` valid at each step, and the one piece of foreign code that
    /// runs under the lock — a `wait_until` predicate — gets `&Progress`
    /// and can change nothing. A panic under the lock therefore poisons
    /// nothing worth refusing: recover the guard, so a coordinator's
    /// panicking predicate cannot take the worker's next publish (which
    /// runs in a `Drop`) down with it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `out` under the lock, releases it, and only then — and only
    /// if somebody is parked — signals the condvar: a woken waiter does
    /// not wake into a held lock, and a publish nobody waits for makes no
    /// condvar call at all.
    fn publish(&self, mut out: Publication) {
        let wake = {
            let mut s = self.lock();
            s.reports.append(&mut out.reports);
            s.failures.append(&mut out.failures);
            s.pauses.extend(out.pause);
            // Swapped, not assigned: the superseded values are freed with
            // `out`, after the unlock.
            if let Some(t) = &mut out.transitions {
                std::mem::swap(&mut s.transitions, t);
            }
            if out.bound_types.is_some() {
                std::mem::swap(&mut s.bound_types, &mut out.bound_types);
            }
            s.mid_apply -= out.resolved;
            s.waiting > 0
        };
        if wake {
            #[cfg(test)]
            self.notifies
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.moved.notify_all();
        }
    }

    /// Queues an operation, assigning it a journal lifecycle id and
    /// emitting the `Enqueued` event when tracing is on — before the push,
    /// so no pause can journal a phase ahead of it. A staged patch whose
    /// stage cost nobody has claimed yet is claimed by this lifecycle:
    /// `Staged` follows `Enqueued`, carrying the duration the report's
    /// `timings.staged` will.
    fn enqueue(&self, kind: OpKind) {
        let t = self.lock().trace.clone();
        let update = match &t {
            Some(t) => t.journal.next_update_id(),
            None => 0,
        };
        let stage_cost = match &kind {
            OpKind::Apply { staged, .. } => staged.claim_cost(),
            OpKind::Restore { .. } => None,
        };
        let queued = QueuedOp {
            update,
            kind,
            stage_cost: stage_cost.unwrap_or_default(),
        };
        if let Some(t) = &t {
            let (from, to) = (queued.version_from(), queued.version_to());
            t.journal
                .record(t.worker, update, from, to, Stage::Enqueued, None, None);
            if stage_cost.is_some() {
                t.journal
                    .record(t.worker, update, from, to, Stage::Staged, stage_cost, None);
            }
        }
        self.lock().queue.push_back(queued);
    }

    /// Queues up to `hops` snapshot restores walking the ring's retained
    /// transitions backwards (newest first). Each hop's versions are
    /// resolved now so every journal lifecycle names its own leg of the
    /// chain; apply pops the real ring sequentially, so the hops line up
    /// as long as nothing else races the ring. Returns the number of hops
    /// actually queued (clamped to the ring's length).
    fn enqueue_restores(&self, hops: usize) -> usize {
        let legs: Vec<(String, String)> = {
            let s = self.lock();
            s.transitions.iter().rev().take(hops).cloned().collect()
        };
        for (from, to) in &legs {
            self.enqueue(OpKind::Restore {
                from: to.clone(),
                to: from.clone(),
            });
        }
        legs.len()
    }

    /// Queues one snapshot restore of the ring's top transition — or,
    /// over an empty ring, a restore of `"?" -> "?"` that will abort with
    /// `NoSnapshot` at apply time.
    fn enqueue_restore(&self) {
        if self.enqueue_restores(1) == 0 {
            self.enqueue(OpKind::Restore {
                from: "?".to_string(),
                to: "?".to_string(),
            });
        }
    }
}

/// Errors surfaced by the driver loop.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The guest trapped.
    Trap(Trap),
    /// A queued patch failed to apply (the process keeps running the old
    /// version; the failed patch is dropped from the queue).
    Update(UpdateError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Trap(t) => write!(f, "guest trap: {t}"),
            RunError::Update(e) => write!(f, "update failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<Trap> for RunError {
    fn from(t: Trap) -> RunError {
        RunError::Trap(t)
    }
}

/// Manages pending dynamic patches for one process: the worker thread's
/// view of the monitor, plus what only that thread touches.
#[derive(Default)]
pub struct Updater {
    policy: UpdatePolicy,
    shared: Arc<Shared>,
    /// Persistent quiescence hook run at the start of every pause.
    drain_hook: Option<DrainHook>,
    /// Bounded ring of pre-update snapshots, pushed on every successful
    /// forward apply — the substrate of first-class rollback.
    snapshots: SnapshotRing,
    /// Net forward patch path from the boot version to the current
    /// version: every successful forward apply pushes its patch, every
    /// successful rollback (inverse patch or snapshot restore) pops the
    /// hop it undoes. Unlike the bounded snapshot ring this is the whole
    /// path, so a supervisor can rebuild a crashed worker from source by
    /// replaying it (see [`Updater::save_worker_state`]).
    chain: Vec<Arc<StagedPatch>>,
    /// When `true` (default), a patch failure during a run aborts the run
    /// with [`RunError::Update`] instead of continuing on the old version.
    pub strict: bool,
}

impl std::fmt::Debug for Updater {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.shared.lock().progress();
        f.debug_struct("Updater")
            .field("policy", &self.policy)
            .field("pending", &p.pending)
            .field("applied", &p.applied)
            .field("failures", &p.failed)
            .finish()
    }
}

impl Updater {
    /// Creates an updater with the paper-default policy.
    pub fn new() -> Updater {
        Updater {
            strict: true,
            ..Updater::default()
        }
    }

    /// Creates an updater with an explicit policy.
    pub fn with_policy(policy: UpdatePolicy) -> Updater {
        Updater {
            policy,
            strict: true,
            ..Updater::default()
        }
    }

    /// The active policy.
    pub fn policy(&self) -> UpdatePolicy {
        self.policy
    }

    /// Attaches a journal: from now on every patch this updater (or a
    /// remote of it) handles emits lifecycle events — enqueued, gate
    /// waits, the six apply phases, committed/aborted — tagged with
    /// `worker` when given.
    pub fn set_journal(&self, journal: Journal, worker: Option<usize>) {
        self.shared.lock().trace = Some(Trace {
            journal,
            worker,
            tracer: None,
        });
    }

    /// Attaches a span tracer on top of an attached journal: every
    /// applied patch then records an update span (phases as children,
    /// durations identical to `PhaseTimings`) and journal events carry
    /// the `(trace, span)` cross-link. No-op until a journal is attached
    /// — the journal supplies the lifecycle ids spans are tagged with.
    pub fn set_tracer(&self, tracer: Tracer) {
        if let Some(t) = self.shared.lock().trace.as_mut() {
            t.tracer = Some(tracer);
        }
    }

    /// Installs the quiescence hook run (and timed) at the start of every
    /// update pause, before the rollout gate and before any patch applies.
    /// The measured wait lands in the first applied patch's
    /// [`crate::PhaseTimings::drain`] bucket.
    pub fn set_drain_hook(&mut self, hook: DrainHook) {
        self.drain_hook = Some(hook);
    }

    /// Stages `patch` against `proc`'s bound types — here, in the call,
    /// on the caller's thread ([`crate::stage`]) — then queues it and arms
    /// the process's update request so the next executed update point
    /// suspends and commits it.
    pub fn enqueue(&mut self, proc: &mut Process, patch: Patch) {
        let staged = stage(patch, &ProcessTypes(proc), self.policy);
        self.enqueue_staged(proc, staged);
    }

    /// Queues a patch that was staged already (see [`crate::stage`];
    /// one staged value can be enqueued on any number of processes) and
    /// arms the process's update request.
    pub fn enqueue_staged(&mut self, proc: &mut Process, staged: Arc<StagedPatch>) {
        self.shared.enqueue(OpKind::Apply {
            staged,
            rollback: false,
        });
        proc.request_update(true);
    }

    /// Queues an *inverse* patch — a downgrade generated by diffing the
    /// versions the other way round (see [`crate::PatchGen`]) whose
    /// reverse state transformers preserve current guest state. The
    /// resulting report is marked [`UpdateReport::rolled_back`] and its
    /// journal lifecycle closes with `RolledBack`. Staged in the call,
    /// like [`Updater::enqueue`].
    pub fn enqueue_rollback(&mut self, proc: &mut Process, patch: Patch) {
        self.shared.enqueue(OpKind::Apply {
            staged: stage(patch, &ProcessTypes(proc), self.policy),
            rollback: true,
        });
        proc.request_update(true);
    }

    /// Queues a snapshot rollback: at the next pause, pop the snapshot
    /// ring and restore its top entry (best-effort state — guest
    /// mutations since the forward update are discarded). Aborts with
    /// [`UpdateError::NoSnapshot`] when the ring is empty at apply time.
    pub fn enqueue_snapshot_rollback(&mut self, proc: &mut Process) {
        self.shared.enqueue_restore();
        proc.request_update(true);
    }

    /// Queues a rollback *chain*: up to `hops` snapshot restores, newest
    /// transition first, so one call walks the process back several
    /// versions (v3 → v2 → v1) through the ordinary pipeline — each hop
    /// is its own journal lifecycle closing with `RolledBack`. Clamped to
    /// the ring's current length; returns how many hops were queued.
    pub fn enqueue_rollback_chain(&mut self, proc: &mut Process, hops: usize) -> usize {
        let n = self.shared.enqueue_restores(hops);
        if n > 0 {
            proc.request_update(true);
        }
        n
    }

    /// The `(from, to)` transitions whose pre-update snapshots the ring
    /// currently retains, oldest first.
    pub fn snapshot_transitions(&self) -> Vec<(String, String)> {
        self.snapshots.transitions()
    }

    /// Number of operations not yet fully applied: queued patches plus
    /// any the running pause has popped and not published. Zero means
    /// every submitted op's outcome is visible in [`Updater::log`] /
    /// [`Updater::failures`].
    pub fn pending_count(&self) -> usize {
        self.shared.lock().progress().pending
    }

    /// Serializes the updater's crash-durable state — the snapshot ring
    /// and every still-pending operation — as a text block. Together with
    /// a write-ahead journal this lets a restarted worker resume exactly
    /// where the old one stopped: restore the ring, re-queue the ops.
    /// Patches are saved bare: what was staged for them is not persisted.
    pub fn save_state(&self) -> String {
        let mut out = String::from("dsu-updater-state 1\n");
        push_section(&mut out, "ring", &self.snapshots.save());
        // Cloned out (an `Arc` and two short strings per op): patches are
        // not serialized under the lock.
        let ops: Vec<OpKind> = {
            let s = self.shared.lock();
            s.queue.iter().map(|q| q.kind.clone()).collect()
        };
        for kind in &ops {
            match kind {
                OpKind::Restore { from, to } => {
                    out.push_str(&format!("op-restore\t{from}\t{to}\n"));
                }
                OpKind::Apply { staged, rollback } => push_section(
                    &mut out,
                    &format!("op-apply {}", u8::from(*rollback)),
                    &crate::patch_io::save_patch(staged.patch()),
                ),
            }
        }
        out
    }

    /// Restores state saved by [`Updater::save_state`]: replaces the
    /// snapshot ring and re-queues the pending operations (each gets a
    /// fresh journal lifecycle — the old incarnation's lifecycles belong
    /// to the old journal stream; patches come back unstaged, so their
    /// commits verify in full). Arms the process's update request when
    /// any operation was re-queued. Returns the number of re-queued ops.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed section, or of the
    /// first ring entry that does not fit `proc` (see
    /// [`vm::BindingSnapshot::fits`]) — a restore of such an entry would
    /// index outside the process's tables in the middle of a pause. On
    /// error the updater is left unchanged.
    pub fn load_state(&mut self, proc: &mut Process, text: &str) -> Result<usize, String> {
        let rest = text
            .strip_prefix("dsu-updater-state 1\n")
            .ok_or("bad header")?;
        let (ring_line, rest) = rest.split_once('\n').ok_or("missing ring section")?;
        let ring_len = ring_line
            .strip_prefix("ring ")
            .ok_or("missing ring section")?;
        let (ring_text, mut rest) = take_section(rest, ring_len, "ring")?;
        let ring = SnapshotRing::load(ring_text)?;
        ring.fits(proc)?;

        // Parse every op before touching the updater, so a malformed tail
        // cannot leave it half-restored.
        let mut ops = Vec::new();
        while !rest.is_empty() {
            let (line, next) = rest.split_once('\n').ok_or("truncated op line")?;
            rest = next;
            if line.trim().is_empty() {
                continue;
            }
            if let Some(body) = line.strip_prefix("op-restore\t") {
                let mut parts = body.split('\t');
                let from = parts.next().ok_or("op-restore missing from")?;
                let to = parts.next().ok_or("op-restore missing to")?;
                ops.push(OpKind::Restore {
                    from: from.to_string(),
                    to: to.to_string(),
                });
            } else if let Some(body) = line.strip_prefix("op-apply ") {
                let (flag, len) = body.split_once(' ').ok_or("malformed op-apply line")?;
                let rollback = match flag {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad rollback flag `{other}`")),
                };
                let (patch_text, tail) = take_section(rest, len, "patch")?;
                let patch = crate::patch_io::load_patch(patch_text).map_err(|e| e.to_string())?;
                rest = tail;
                ops.push(OpKind::Apply {
                    staged: Arc::new(StagedPatch::unstaged(patch)),
                    rollback,
                });
            } else {
                return Err(format!("unknown state line `{line}`"));
            }
        }

        self.shared.publish(Publication {
            transitions: Some(ring.transitions()),
            ..Publication::default()
        });
        self.snapshots = ring;
        let n = ops.len();
        for kind in ops {
            self.shared.enqueue(kind);
        }
        if n > 0 {
            proc.request_update(true);
        }
        Ok(n)
    }

    /// Serializes everything a supervisor needs to rebuild this worker
    /// after a crash: the replay chain (patches from the boot version to
    /// the current version) plus [`Updater::save_state`]'s crash-durable
    /// block (snapshot ring + still-pending ops). A restarted worker
    /// re-applies the chain to get back to its pre-crash version, then
    /// installs the saved ring/pending state over the replayed updater
    /// (see [`decode_worker_state`]).
    pub fn save_worker_state(&self) -> String {
        let mut out = String::from("dsu-worker-state 1\n");
        out.push_str(&format!("chain {}\n", self.chain.len()));
        for s in &self.chain {
            push_section(&mut out, "patch", &crate::patch_io::save_patch(s.patch()));
        }
        push_section(&mut out, "state", &self.save_state());
        out
    }

    /// Reports of every successfully applied update, oldest first.
    pub fn log(&self) -> Vec<UpdateReport> {
        self.shared.lock().reports.clone()
    }

    /// Successful applies so far.
    pub fn applied_count(&self) -> usize {
        self.shared.lock().reports.len()
    }

    /// Failed applies so far (non-strict mode).
    pub fn failure_count(&self) -> usize {
        self.shared.lock().failures.len()
    }

    /// Failures of patches that did not apply (non-strict mode), with
    /// version and failing-phase context.
    pub fn failures(&self) -> Vec<FailedUpdate> {
        self.shared.lock().failures.clone()
    }

    /// A read-only handle onto the pause history. Clones observe pauses
    /// published by future applies.
    pub fn pause_log(&self) -> PauseLog {
        PauseLog(Arc::clone(&self.shared))
    }

    /// Update pauses recorded so far, oldest first.
    pub fn pauses(&self) -> Vec<PauseEvent> {
        self.shared.lock().pauses.clone()
    }

    /// A cross-thread control handle for this updater driving `proc`: feed
    /// patches, arm the update signal, set rollout gates, read results.
    pub fn remote(&self, proc: &Process) -> UpdaterRemote {
        let types = Arc::new(bound_types(proc));
        self.shared.lock().bound_types = Some(types);
        UpdaterRemote {
            policy: self.policy,
            shared: Arc::clone(&self.shared),
            signal: proc.update_signal(),
        }
    }

    /// Applies all queued patches right now. The process must be quiescent
    /// (suspended at an update point, or with no guest code running). If a
    /// rollout gate is set and patches are pending, the gate runs first
    /// (inside the recorded pause).
    ///
    /// # Errors
    ///
    /// In strict mode, returns the first failing patch's error (later
    /// patches stay queued). Otherwise failures are recorded in
    /// [`Updater::failures`] and the queue keeps draining.
    pub fn apply_pending(&mut self, proc: &mut Process) -> Result<usize, UpdateError> {
        let (trace, span_parent, gate, types) = {
            let mut s = self.shared.lock();
            if s.queue.is_empty() {
                drop(s);
                proc.request_update(false);
                return Ok(0);
            }
            (
                s.trace.clone(),
                s.span_parent,
                s.gate.take(),
                s.bound_types.clone(),
            )
        };
        // Armed before anything can fail: from here on every way out —
        // return, strict error, panic — publishes exactly once.
        let mut pause = Pause {
            up: self,
            proc,
            began: Instant::now(),
            types,
            ring_moved: false,
            out: Publication::default(),
        };
        pause.run(trace.as_ref(), span_parent, gate)
    }

    /// Mirrors a successful op into the replay chain: forward applies
    /// move their patch in; rollbacks (inverse patch or snapshot restore)
    /// pop the hop they undo when it is the chain tip.
    fn record_chain_hop(&mut self, kind: OpKind, report: &UpdateReport) {
        if report.rolled_back {
            let undoes_tip = self.chain.last().is_some_and(|s| {
                let p = s.patch();
                p.to_version == report.from_version && p.from_version == report.to_version
            });
            if undoes_tip {
                self.chain.pop();
            }
        } else if let OpKind::Apply { staged, .. } = kind {
            self.chain.push(staged);
        }
    }

    /// Runs `entry(args)` to completion, applying queued patches whenever
    /// the guest suspends at an update point.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trap`] if the guest traps, or (strict mode)
    /// [`RunError::Update`] if a queued patch fails to apply.
    pub fn run(
        &mut self,
        proc: &mut Process,
        entry: &str,
        args: Vec<Value>,
    ) -> Result<Value, RunError> {
        let mut outcome = proc.run(entry, args)?;
        loop {
            match outcome {
                Outcome::Done(v) => return Ok(v),
                Outcome::Suspended => {
                    if let Err(e) = self.apply_pending(proc) {
                        if self.strict {
                            // Abandon the suspended run cleanly.
                            proc.discard_suspended();
                            return Err(RunError::Update(e));
                        }
                    }
                    outcome = proc.resume()?;
                }
            }
        }
    }
}

/// One update pause in progress. Results collect in `out`, off the lock,
/// and dropping the pause — on return, on a strict-mode error, during a
/// panic's unwind — is its single publish: its reports and failures, its
/// [`PauseEvent`], the ring's transitions if the ring moved, the bound
/// types if a binding changed, and the mid-apply count lowered by every
/// op it popped (a panicking op's lifecycle is journaled `Aborted` first).
struct Pause<'a> {
    up: &'a mut Updater,
    proc: &'a mut Process,
    began: Instant,
    /// The bound-type view remotes held when the pause began (`None`: no
    /// remote exists, nothing to refresh).
    types: Option<Arc<BTreeMap<String, TypeDef>>>,
    ring_moved: bool,
    out: Publication,
}

impl Drop for Pause<'_> {
    fn drop(&mut self) {
        // Compared before copied: the usual pause changes no type binding.
        let proc = &*self.proc;
        let rebound = self.types.as_ref().is_some_and(|view| {
            proc.type_bindings().count() != view.len()
                || proc
                    .type_bindings()
                    .any(|(name, id)| view.get(name) != Some(proc.struct_def(id)))
        });
        self.out.bound_types = rebound.then(|| Arc::new(bound_types(proc)));
        self.out.transitions = self.ring_moved.then(|| self.up.snapshots.transitions());
        self.out.pause = Some(PauseEvent {
            at: self.began,
            dur: self.began.elapsed(),
        });
        self.up.shared.publish(std::mem::take(&mut self.out));
    }
}

impl Pause<'_> {
    /// The pause proper: drain hook, gate, then the queue.
    fn run(
        &mut self,
        trace: Option<&Trace>,
        span_parent: Option<(u64, u64)>,
        gate: Option<Gate>,
    ) -> Result<usize, UpdateError> {
        // Span ids are allocated up front so the gate-wait journal event
        // below can cross-link to the root span the pause's first applied
        // patch will record.
        let mut span_ctx = trace
            .and_then(|t| t.tracer.clone().map(|tr| (tr, t.worker)))
            .map(|(tracer, worker)| {
                let (trace_id, parent) = match span_parent {
                    Some((t, p)) => (t, Some(p)),
                    None => (tracer.next_trace_id(), None),
                };
                let head_root = tracer.next_span_id();
                SpanCtx {
                    tracer,
                    worker,
                    trace_id,
                    parent,
                    head_root,
                    head_used: false,
                }
            });
        // The host's drain hook runs before the rendezvous: in a barriered
        // fleet every worker does its own waiting concurrently, then they
        // line up. The wait is timed here so the report and the journal
        // agree on it exactly.
        let drain_dur = match self.up.drain_hook.as_mut() {
            Some(hook) => {
                let t = Instant::now();
                hook();
                t.elapsed()
            }
            None => Duration::ZERO,
        };
        // Rendezvous before touching the process (one-shot); the wait is
        // part of the pause, not of any request's service time.
        let mut gate_span: Option<(Instant, Duration)> = None;
        if let Some(gate) = gate {
            let gate_began = Instant::now();
            gate();
            let gate_dur = gate_began.elapsed();
            gate_span = Some((gate_began, gate_dur));
            if let Some(t) = trace {
                // The wait is charged to the patch at the head of the
                // queue — the one the rendezvous was lining up for. Read
                // after the wait: a patch withdrawn meanwhile is closed.
                let head = self.up.shared.lock().queue.front().map(|q| {
                    (
                        q.update,
                        q.version_from().to_string(),
                        q.version_to().to_string(),
                    )
                });
                if let Some((update, from, to)) = head {
                    t.journal.record_spanned(
                        t.worker,
                        update,
                        &from,
                        &to,
                        Stage::GateWait,
                        Some(gate_dur),
                        None,
                        span_ctx.as_ref().map(|c| (c.trace_id, c.head_root)),
                    );
                }
            }
        }
        self.drain(trace, drain_dur, gate_span, &mut span_ctx)
    }

    fn drain(
        &mut self,
        trace: Option<&Trace>,
        mut drain_dur: Duration,
        gate_span: Option<(Instant, Duration)>,
        span_ctx: &mut Option<SpanCtx>,
    ) -> Result<usize, UpdateError> {
        loop {
            // Out of the queue and into the mid-apply count in one
            // critical section: the op stays in `pending_count` until this
            // pause publishes.
            let queued = {
                let mut s = self.up.shared.lock();
                let queued = s.queue.pop_front();
                s.mid_apply += usize::from(queued.is_some());
                queued
            };
            let Some(queued) = queued else { break };
            self.out.resolved += 1;
            let op_began = Instant::now();
            let mut phase_log = span_ctx.as_ref().map(|_| PhaseSpanLog::default());
            let kind = &queued.kind;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match kind {
                OpKind::Apply { staged, rollback } => staged
                    .commit_spanned(self.proc, self.up.policy, phase_log.as_mut())
                    .map(|Committed { mut report, before }| {
                        report.rolled_back = *rollback;
                        // The commit's own pre-update snapshot feeds
                        // the rollback ring (a depth-0 ring drops it):
                        // forward applies record it, rollbacks retire
                        // the entry they undo instead.
                        let patch = staged.patch();
                        if *rollback {
                            self.up.snapshots.retire_undone(&patch.from_version);
                        } else {
                            self.up
                                .snapshots
                                .push(&patch.from_version, &patch.to_version, before);
                        }
                        self.ring_moved = true;
                        report
                    }),
                OpKind::Restore { .. } => {
                    // A snapshot restore is pure rebinding: the whole
                    // pause is charged to `bind`, the atomic-flip phase.
                    let t = Instant::now();
                    match self.up.snapshots.pop() {
                        None => Err(UpdateError::NoSnapshot),
                        Some(entry) => {
                            self.ring_moved = true;
                            self.proc.restore(entry.snapshot);
                            let timings = PhaseTimings {
                                bind: t.elapsed(),
                                ..PhaseTimings::default()
                            };
                            if let Some(log) = phase_log.as_mut() {
                                log.push("bind", t, timings.bind);
                            }
                            Ok(UpdateReport {
                                from_version: entry.to_version,
                                to_version: entry.from_version,
                                timings,
                                verification: Verification::Skipped,
                                functions_replaced: 0,
                                functions_added: 0,
                                functions_removed: 0,
                                types_changed: 0,
                                globals_transformed: 0,
                                patch_bytes: 0,
                                rolled_back: true,
                            })
                        }
                    }
                }
            }));
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => {
                    // A panic mid-apply (crash injection, or a genuine
                    // bug) is about to kill this thread. The journal must
                    // not be left with a dangling open lifecycle, so
                    // close the in-flight op with `Aborted` first, then
                    // let the panic keep unwinding to the worker
                    // boundary — the supervisor sees a dead thread, the
                    // journal sees a closed lifecycle.
                    if let Some(t) = trace {
                        let detail = format!("crashed: {}", panic_detail(payload.as_ref()));
                        emit_aborted(t, &queued, &detail);
                    }
                    std::panic::resume_unwind(payload);
                }
            };
            match result {
                Ok(mut report) => {
                    // The quiescence wait is charged once, to the first
                    // patch this pause applies.
                    report.timings.drain += std::mem::take(&mut drain_dur);
                    report.timings.staged = queued.stage_cost;
                    let link = span_ctx.as_mut().map(|ctx| {
                        record_update_spans(
                            ctx,
                            queued.update,
                            &report,
                            self.began,
                            op_began,
                            gate_span,
                            phase_log.as_ref().expect("span ctx implies phase log"),
                        )
                    });
                    if let Some(t) = trace {
                        emit_applied(t, queued.update, &report, link);
                    }
                    self.up.record_chain_hop(queued.kind, &report);
                    self.out.reports.push(report);
                }
                Err(e) => {
                    if let Some(t) = trace {
                        emit_aborted(t, &queued, &format!("{}: {e}", e.phase()));
                    }
                    if self.up.strict {
                        let more = !self.up.shared.lock().queue.is_empty();
                        self.proc.request_update(more);
                        return Err(e);
                    }
                    self.out.failures.push(FailedUpdate::new(
                        queued.version_from(),
                        queued.version_to(),
                        e,
                    ));
                }
            }
        }
        self.proc.request_update(false);
        Ok(self.out.reports.len())
    }
}

/// Best human-readable rendering of a panic payload (`&str` and `String`
/// payloads verbatim; anything else a generic note).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked mid-apply".to_string()
    }
}

/// Splits a [`Updater::save_worker_state`] blob into the replay chain
/// (patches, oldest first) and the inner [`Updater::save_state`] block.
/// The caller replays the chain through the ordinary pipeline (each hop a
/// normal journaled lifecycle) and then feeds the inner block to
/// [`Updater::load_state`], which installs the *pre-crash* snapshot ring
/// over the replay's and re-queues any ops the crash interrupted.
///
/// # Errors
///
/// Returns a description of the first malformed section.
pub fn decode_worker_state(text: &str) -> Result<(Vec<Patch>, String), String> {
    let rest = text
        .strip_prefix("dsu-worker-state 1\n")
        .ok_or("bad worker-state header")?;
    let (line, mut rest) = rest.split_once('\n').ok_or("missing chain section")?;
    let n: usize = line
        .strip_prefix("chain ")
        .ok_or("missing chain section")?
        .parse()
        .map_err(|e| format!("bad chain count: {e}"))?;
    // Every patch takes at least its length line: a count the remaining
    // bytes cannot hold is refused before anything is sized by it.
    if n > rest.len() {
        return Err(format!(
            "bad chain count: {n} patches in {} bytes",
            rest.len()
        ));
    }
    let mut chain = Vec::new();
    for _ in 0..n {
        let (pline, body) = rest.split_once('\n').ok_or("truncated patch line")?;
        let len = pline.strip_prefix("patch ").ok_or("missing patch line")?;
        let (patch_text, tail) = take_section(body, len, "patch")?;
        chain.push(crate::patch_io::load_patch(patch_text).map_err(|e| e.to_string())?);
        rest = tail;
    }
    let (sline, rest) = rest.split_once('\n').ok_or("missing state section")?;
    let len = sline
        .strip_prefix("state ")
        .ok_or("missing state section")?;
    let (state, _) = take_section(rest, len, "state")?;
    Ok((chain, state.to_string()))
}

/// Appends one length-prefixed section of the state formats: `header`
/// and `text`'s byte length on a line, `text`, and the newline it lacks.
fn push_section(out: &mut String, header: &str, text: &str) {
    out.push_str(&format!("{header} {}\n", text.len()));
    out.push_str(text);
    if !text.ends_with('\n') {
        out.push('\n');
    }
}

/// Splits the section a length line announced off the front of `rest`,
/// with the newline that may follow it. The length is hostile input: one
/// that overruns `rest`, or lands inside a character, is an error.
fn take_section<'a>(rest: &'a str, len: &str, what: &str) -> Result<(&'a str, &'a str), String> {
    let len: usize = len.parse().map_err(|e| format!("bad {what} length: {e}"))?;
    let (text, tail) = rest
        .split_at_checked(len)
        .ok_or_else(|| format!("truncated {what} section"))?;
    Ok((text, tail.strip_prefix('\n').unwrap_or(tail)))
}

/// The type definitions `proc` binds right now, by name.
fn bound_types(proc: &Process) -> BTreeMap<String, TypeDef> {
    proc.type_bindings()
        .map(|(name, id)| (name.to_string(), proc.struct_def(id).clone()))
        .collect()
}

/// Records the span tree of one applied update: a root `Update` span
/// covering the whole pause share of this op (the pause's first applied
/// patch owns the pre-apply interval — drain hook and gate included)
/// with one `UpdatePhase` child per non-empty phase, carrying the exact
/// durations stored in `PhaseTimings`. Returns the `(trace, span)`
/// cross-link for the journal. Child intervals are clamped into the
/// root's so the nesting invariant holds by construction.
fn record_update_spans(
    ctx: &mut SpanCtx,
    update: u64,
    report: &UpdateReport,
    pause_began: Instant,
    op_began: Instant,
    gate_span: Option<(Instant, Duration)>,
    phase_log: &PhaseSpanLog,
) -> (u64, u64) {
    let first = !ctx.head_used;
    let root_id = if first {
        ctx.head_used = true;
        ctx.head_root
    } else {
        ctx.tracer.next_span_id()
    };
    let start = if first { pause_began } else { op_began };
    let root_start = ctx.tracer.since_epoch(start);
    let root_end = ctx.tracer.now().max(root_start);
    let name = if report.rolled_back {
        "rollback"
    } else {
        "update"
    };

    let mut children: Vec<(&'static str, Duration, Duration)> = Vec::new();
    if first {
        if report.timings.drain > Duration::ZERO {
            children.push(("drain", root_start, report.timings.drain));
        }
        if let Some((gate_began, gate_dur)) = gate_span {
            if gate_dur > Duration::ZERO {
                children.push(("gate-wait", ctx.tracer.since_epoch(gate_began), gate_dur));
            }
        }
    }
    for (phase, began, dur) in &phase_log.phases {
        if *dur > Duration::ZERO {
            children.push((phase, ctx.tracer.since_epoch(*began), *dur));
        }
    }

    let mut batch = Vec::with_capacity(children.len() + 1);
    batch.push(Span {
        trace: ctx.trace_id,
        id: root_id,
        parent: ctx.parent,
        kind: SpanKind::Update,
        name,
        worker: ctx.worker,
        start: root_start,
        dur: root_end - root_start,
        update: Some(update),
        request: None,
        detail: Some(format!("{}->{}", report.from_version, report.to_version)),
    });
    for (phase, begin, dur) in children {
        let s = begin.clamp(root_start, root_end);
        let e = (begin + dur).clamp(s, root_end);
        batch.push(Span {
            trace: ctx.trace_id,
            id: ctx.tracer.next_span_id(),
            parent: Some(root_id),
            kind: SpanKind::UpdatePhase,
            name: phase,
            worker: ctx.worker,
            start: s,
            dur: e - s,
            update: Some(update),
            request: None,
            detail: None,
        });
    }
    ctx.tracer.record_many(batch);
    (ctx.trace_id, root_id)
}

/// Emits the seven phase events (durations copied verbatim from the
/// report's [`crate::PhaseTimings`], so journal sums equal
/// `timings.total()` exactly; `verify` also says how verification was
/// discharged) followed by the terminal stage —
/// `Committed`, or `RolledBack` for a downgrade, either way carrying the
/// pipeline total. `link` is the update root span's `(trace, span)`,
/// attached to every event when span tracing is on.
fn emit_applied(t: &Trace, update: u64, report: &UpdateReport, link: Option<(u64, u64)>) {
    let ts = &report.timings;
    let phases = [
        (Stage::Drain, ts.drain),
        (Stage::Verify, ts.verify),
        (Stage::Compat, ts.compat),
        (Stage::Link, ts.link),
        (Stage::Bind, ts.bind),
        (Stage::Init, ts.init),
        (Stage::Transform, ts.transform),
    ];
    let verification = match &report.verification {
        Verification::Skipped => None,
        v => Some(v.to_string()),
    };
    for (stage, dur) in phases {
        t.journal.record_spanned(
            t.worker,
            update,
            &report.from_version,
            &report.to_version,
            stage,
            Some(dur),
            verification.as_deref().filter(|_| stage == Stage::Verify),
            link,
        );
    }
    let terminal = if report.rolled_back {
        Stage::RolledBack
    } else {
        Stage::Committed
    };
    t.journal.record_spanned(
        t.worker,
        update,
        &report.from_version,
        &report.to_version,
        terminal,
        Some(ts.total()),
        None,
        link,
    );
}

/// Closes `queued`'s lifecycle with `Aborted`, carrying the cause: the
/// failing phase and error, a crash, or a withdrawal.
fn emit_aborted(t: &Trace, queued: &QueuedOp, detail: &str) {
    t.journal.record(
        t.worker,
        queued.update,
        queued.version_from(),
        queued.version_to(),
        Stage::Aborted,
        None,
        Some(detail),
    );
}
/// Cross-thread control over one worker's [`Updater`]/[`Process`] pair
/// (see [`Updater::remote`]): a coordinator's view of the same monitor.
/// All methods are safe to call while the worker thread is mid-run:
/// patches land in the queue, the signal makes the guest suspend at its
/// next update point, and each pause's results appear — all at once —
/// when the worker publishes it.
#[derive(Clone)]
pub struct UpdaterRemote {
    /// The worker's update policy (fixed when its updater was built).
    policy: UpdatePolicy,
    shared: Arc<Shared>,
    signal: UpdateSignal,
}

impl std::fmt::Debug for UpdaterRemote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.shared.lock().progress();
        f.debug_struct("UpdaterRemote")
            .field("pending", &p.pending)
            .field("applied", &p.applied)
            .field("failed", &p.failed)
            .finish()
    }
}

impl UpdaterRemote {
    /// The stage step ([`crate::stage`]) for this worker, run here on the
    /// caller's thread while the worker serves: verifies `patch` against
    /// the type definitions the worker published at its last
    /// type-changing pause, under the worker's policy. The result can be
    /// enqueued on this worker and on every replica of it
    /// ([`UpdaterRemote::enqueue_staged`]) — its certificate is checked
    /// by content at each one's update point, so a replica that binds
    /// other definitions simply verifies for itself.
    pub fn stage(&self, patch: Patch) -> Arc<StagedPatch> {
        // The view is cloned out: verification runs with the lock released.
        let types = self.shared.lock().bound_types.clone();
        stage(patch, &*types.unwrap_or_default(), self.policy)
    }

    /// Stages `patch` for this worker — here, in the call, on the
    /// caller's thread ([`UpdaterRemote::stage`]) — then queues it and
    /// arms the worker's update signal: the guest suspends and commits at
    /// its next executed update point (or the worker commits at its next
    /// quiescent boundary).
    pub fn enqueue(&self, patch: Patch) {
        self.enqueue_staged(self.stage(patch));
    }

    /// Queues a patch staged already — by [`UpdaterRemote::stage`] on
    /// this or any other worker's handle — and arms the update signal.
    /// Staging once and enqueueing the same value fleet-wide is how a
    /// rollout pays for one verification, not one per worker.
    pub fn enqueue_staged(&self, staged: Arc<StagedPatch>) {
        self.shared.enqueue(OpKind::Apply {
            staged,
            rollback: false,
        });
        self.signal.arm();
    }

    /// Queues an *inverse* patch on the worker: a downgrade whose reverse
    /// state transformers preserve current guest state. The report comes
    /// back marked [`UpdateReport::rolled_back`] and the lifecycle closes
    /// with `RolledBack` (see [`Updater::enqueue_rollback`]). Staged in
    /// the call, like [`UpdaterRemote::enqueue`].
    pub fn enqueue_rollback(&self, patch: Patch) {
        self.shared.enqueue(OpKind::Apply {
            staged: self.stage(patch),
            rollback: true,
        });
        self.signal.arm();
    }

    /// Queues a snapshot rollback on the worker: pop its snapshot ring
    /// and restore the top entry at the next pause (see
    /// [`Updater::enqueue_snapshot_rollback`]).
    pub fn enqueue_snapshot_rollback(&self) {
        self.shared.enqueue_restore();
        self.signal.arm();
    }

    /// Queues a rollback *chain* on the worker: up to `hops` snapshot
    /// restores, newest transition first, each its own `RolledBack`
    /// lifecycle (see [`Updater::enqueue_rollback_chain`]). Clamped to
    /// the ring's current length; returns how many hops were queued.
    pub fn enqueue_rollback_chain(&self, hops: usize) -> usize {
        let n = self.shared.enqueue_restores(hops);
        if n > 0 {
            self.signal.arm();
        }
        n
    }

    /// Withdraws every queued operation before it applies, emitting an
    /// `Aborted` journal event per operation (`cancelled: {reason}`).
    /// Returns how many were cancelled. The worker's next pause then
    /// finds an empty queue and resumes untouched — this is how a
    /// coordinator holds a rollout or defuses a stalled worker without
    /// letting the withdrawn patch land later. Wakes
    /// [`UpdaterRemote::wait_until`] waiters: a waiter counting on those
    /// operations must see that they will never resolve.
    pub fn cancel_pending(&self, reason: &str) -> usize {
        let (drained, trace) = {
            let mut s = self.shared.lock();
            let drained: Vec<QueuedOp> = s.queue.drain(..).collect();
            (drained, s.trace.clone())
        };
        if let Some(t) = trace {
            for q in &drained {
                emit_aborted(&t, q, &format!("cancelled: {reason}"));
            }
        }
        self.wake();
        drained.len()
    }

    /// Blocks until `ready` yields a value or `deadline` passes (`None`).
    /// `ready` runs **under the updater's lock**: at once — an outcome
    /// published before the call returns immediately — and again after
    /// every update pause on the worker, every
    /// [`UpdaterRemote::cancel_pending`] and every [`UpdaterRemote::wake`],
    /// through any clone of this handle. What it is shown is therefore one
    /// instant of the updater, whole pauses only, and no publish can land
    /// between its "not yet" and the park. In exchange it must be quick
    /// and must not call back into this handle (read the [`Progress`] it
    /// is given). There is no timer in between: a change to anything else
    /// `ready` reads must be followed by [`UpdaterRemote::wake`].
    pub fn wait_until<T>(
        &self,
        deadline: Instant,
        mut ready: impl FnMut(&Progress) -> Option<T>,
    ) -> Option<T> {
        let mut s = self.shared.lock();
        loop {
            if let Some(v) = ready(&s.progress()) {
                return Some(v);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            s.waiting += 1;
            s = self
                .shared
                .moved
                .wait_timeout(s, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            s.waiting -= 1;
        }
    }

    /// Makes every [`UpdaterRemote::wait_until`] waiter re-evaluate: for a
    /// party that changed something a predicate reads outside the updater
    /// (a supervisor declaring the worker restarted or down). Change
    /// first, then wake: the wake passes through the lock, so it lands
    /// either before the waiter's next evaluation or after its park.
    pub fn wake(&self) {
        self.shared.publish(Publication::default());
    }

    /// A cursor at the end of everything published so far: take it before
    /// enqueueing, hand it to [`UpdaterRemote::since`] (or to
    /// [`Progress::resolved_since`] inside a wait) afterwards.
    pub fn mark(&self) -> Mark {
        let s = self.shared.lock();
        Mark {
            reports: s.reports.len(),
            failures: s.failures.len(),
            pauses: s.pauses.len(),
        }
    }

    /// The reports, failures and pause events published after `mark`, as
    /// one consistent cut. A history shorter than the mark — a restarted
    /// worker's, against a mark taken before its crash — reads as empty.
    pub fn since(&self, mark: Mark) -> Cut {
        fn tail<T: Clone>(log: &[T], base: usize) -> Vec<T> {
            log.get(base..).map(<[T]>::to_vec).unwrap_or_default()
        }
        let s = self.shared.lock();
        Cut {
            reports: tail(&s.reports, mark.reports),
            failures: tail(&s.failures, mark.failures),
            pauses: tail(&s.pauses, mark.pauses),
        }
    }

    /// The `(from, to)` transitions whose pre-update snapshots the
    /// worker's ring retains, oldest first.
    pub fn snapshot_transitions(&self) -> Vec<(String, String)> {
        self.shared.lock().transitions.clone()
    }

    /// Installs a one-shot gate run at the start of the next pause, before
    /// any patch applies. Used to line several workers up (barrier) for a
    /// simultaneous rollout.
    pub fn set_gate(&self, gate: Gate) {
        self.shared.lock().gate = Some(gate);
    }

    /// Propagates a rollout span context: update spans this worker
    /// records from now on join trace `trace` and parent under span
    /// `span` (the coordinator's rollout root span), until the next
    /// rollout overwrites the context. No-op for the journal; spans only.
    pub fn set_span_parent(&self, trace: u64, span: u64) {
        self.shared.lock().span_parent = Some((trace, span));
    }

    /// Clears a propagated rollout span context: subsequent update spans
    /// open fresh traces again. Coordinators call this when their rollout
    /// root span closes, so a later direct update cannot parent under a
    /// span that has already ended.
    pub fn clear_span_parent(&self) {
        self.shared.lock().span_parent = None;
    }

    /// Operations not yet fully applied: queued patches plus any the
    /// running pause has popped and not published. Zero means every
    /// submitted op's outcome is visible through
    /// [`UpdaterRemote::reports`] / [`UpdaterRemote::failures`] — the
    /// invariant coordinators lean on when they wait for "counts moved and
    /// nothing pending".
    pub fn pending_count(&self) -> usize {
        self.shared.lock().progress().pending
    }

    /// Successful applies so far.
    pub fn applied_count(&self) -> usize {
        self.shared.lock().reports.len()
    }

    /// Failed applies so far (non-strict worker).
    pub fn failure_count(&self) -> usize {
        self.shared.lock().failures.len()
    }

    /// Reports of every successful apply, oldest first.
    pub fn reports(&self) -> Vec<UpdateReport> {
        self.shared.lock().reports.clone()
    }

    /// The most recent successful apply's report.
    pub fn last_report(&self) -> Option<UpdateReport> {
        self.shared.lock().reports.last().cloned()
    }

    /// Failures of every failed apply, oldest first, with version and
    /// failing-phase context.
    pub fn failures(&self) -> Vec<FailedUpdate> {
        self.shared.lock().failures.clone()
    }

    /// Update pauses recorded so far, oldest first.
    pub fn pauses(&self) -> Vec<PauseEvent> {
        self.shared.lock().pauses.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use vm::LinkMode;

    /// One whole pause, patch-free: a restore queued over an empty ring
    /// fails (`NoSnapshot`), and a non-strict updater publishes that.
    fn pause(up: &mut Updater, proc: &mut Process) {
        up.enqueue_snapshot_rollback(proc);
        assert_eq!(up.apply_pending(proc), Ok(0));
    }

    /// The condvar is touched only for somebody: pauses, withdrawals and
    /// wakes that nobody is parked on make no `notify_all` call (an apply
    /// on a bare guest pays no futex), and the one that finds a waiter
    /// makes exactly one — after the outcome it carries is visible.
    #[test]
    fn a_publish_nobody_waits_for_makes_no_condvar_call() {
        let mut proc = Process::new(LinkMode::Updateable);
        let mut up = Updater::new();
        up.strict = false;
        let remote = up.remote(&proc);
        let shared = Arc::clone(&up.shared);

        pause(&mut up, &mut proc);
        remote.cancel_pending("nobody waits");
        remote.wake();
        assert_eq!((remote.failure_count(), remote.pauses().len()), (1, 1));
        assert_eq!(shared.lock().waiting, 0);
        assert_eq!(shared.notifies.load(Ordering::SeqCst), 0);

        let deadline = Instant::now() + Duration::from_secs(30);
        let ready = |p: &Progress| (p.failed == 2 && p.pending == 0).then_some(p.pauses);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| remote.wait_until(deadline, ready));
            // Parked, not merely started: the publish below must find it.
            while shared.lock().waiting == 0 {
                std::thread::yield_now();
            }
            pause(&mut up, &mut proc);
            assert_eq!(waiter.join().expect("waiter"), Some(2));
        });
        assert_eq!(shared.lock().waiting, 0);
        assert_eq!(shared.notifies.load(Ordering::SeqCst), 1);
    }
}
