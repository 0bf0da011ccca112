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
//! The patch queue, apply log and failure log live behind shared handles:
//! an [`UpdaterRemote`] lets *another thread* (a fleet coordinator) feed
//! patches to a process it does not own, arm the process's update signal,
//! and block in [`UpdaterRemote::wait_until`] until the outcome it is
//! waiting for exists — the substrate of coordinated multi-worker
//! rollouts. Outcomes are published, then waiters woken: when a waiter
//! runs, the report or failure, the dropped in-flight count and the
//! pause event of the apply that woke it are all already visible.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// Shared, clonable handle onto an [`Updater`]'s pause log.
pub type PauseLog = Arc<Mutex<Vec<PauseEvent>>>;

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

/// What the outcome signal's lock guards.
#[derive(Default)]
struct Outcomes {
    /// Publishes so far. A count, not a flag: a waiter compares it with
    /// the reading it took *before* evaluating its predicate, so a publish
    /// that lands between the two is never lost.
    events: u64,
    /// Waiters currently parked. A publish signals the condvar only when
    /// this is non-zero, so an apply nobody waits for (a bare guest, a
    /// boot-time replay) pays no wake-up system call.
    waiting: usize,
}

/// The one wake an [`Updater`] and its [`UpdaterRemote`]s share: bumped
/// after an update pause's outcomes are all visible, by a withdrawal, and
/// by [`UpdaterRemote::wake`].
#[derive(Default)]
struct OutcomeSignal {
    state: Mutex<Outcomes>,
    moved: Condvar,
}

impl OutcomeSignal {
    /// Bumps the event count and wakes every parked waiter. Callers make
    /// whatever a waiter's predicate reads visible *first*.
    fn publish(&self) {
        let wake = {
            let mut s = self.state.lock().expect("poisoned");
            s.events += 1;
            s.waiting > 0
        };
        if wake {
            self.moved.notify_all();
        }
    }

    fn events(&self) -> u64 {
        self.state.lock().expect("poisoned").events
    }

    /// Parks until the event count moves past `seen`; `false` when
    /// `deadline` passed first.
    fn park(&self, seen: u64, deadline: Instant) -> bool {
        let mut s = self.state.lock().expect("poisoned");
        while s.events == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            s.waiting += 1;
            s = self.moved.wait_timeout(s, left).expect("poisoned").0;
            s.waiting -= 1;
        }
        true
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

/// The type definitions a process binds, by name, as a `Send` value a
/// coordinator can stage against (see [`UpdaterRemote::stage`]). `None`
/// until [`Updater::remote`] seeds it: an updater nobody drives remotely
/// publishes nothing.
type BoundTypes = Mutex<Option<Arc<BTreeMap<String, TypeDef>>>>;

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

/// Manages pending dynamic patches for one process.
#[derive(Default)]
pub struct Updater {
    policy: UpdatePolicy,
    pending: Arc<Mutex<VecDeque<QueuedOp>>>,
    /// Ops popped off `pending` whose outcome (report or failure) is not
    /// published yet — i.e. mid-apply. Shared with remotes and counted
    /// into [`Updater::pending_count`], so a coordinator waiting for
    /// "pending == 0 and the counts moved" can never observe the window
    /// where an op is out of the queue but its result is invisible.
    in_flight: Arc<AtomicUsize>,
    /// Wakes coordinators blocked in [`UpdaterRemote::wait_until`].
    outcomes: Arc<OutcomeSignal>,
    log: Arc<Mutex<Vec<UpdateReport>>>,
    /// Failures of patches that did not apply (the run continues), with
    /// version-transition and failing-phase context attached.
    failures: Arc<Mutex<Vec<FailedUpdate>>>,
    /// Update pauses, shared with host instrumentation.
    pauses: PauseLog,
    /// One-shot rendezvous for the next pause (coordinated rollouts).
    gate: Arc<Mutex<Option<Gate>>>,
    /// Persistent quiescence hook run at the start of every pause.
    drain_hook: Arc<Mutex<Option<DrainHook>>>,
    /// Bounded ring of pre-update snapshots, pushed on every successful
    /// forward apply — the substrate of first-class rollback. Never
    /// shared with remotes: snapshots hold `Rc` guest values and must
    /// stay on the worker thread.
    snapshots: Arc<Mutex<SnapshotRing>>,
    /// Send-safe mirror of the ring's `(from, to)` transitions, kept in
    /// sync on every ring mutation and shared with remotes so a
    /// coordinator can see what a snapshot rollback would undo.
    transitions: Arc<Mutex<Vec<(String, String)>>>,
    /// Send-safe mirror of the process's bound type definitions, shared
    /// with remotes so a coordinator can stage a patch against them:
    /// seeded by [`Updater::remote`], refreshed before the outcome publish
    /// by any pause that changed a type binding. Advisory only — commit
    /// checks the certificate against the process itself, so a mirror
    /// that lags costs a re-verification, never safety.
    bound_types: Arc<BoundTypes>,
    /// Net forward patch path from the boot version to the current
    /// version: every successful forward apply pushes its patch, every
    /// successful rollback (inverse patch or snapshot restore) pops the
    /// hop it undoes. Unlike the bounded snapshot ring this is the whole
    /// path, so a supervisor can rebuild a crashed worker from source by
    /// replaying it (see [`Updater::save_worker_state`]).
    chain: Vec<Arc<StagedPatch>>,
    /// Lifecycle-event destination, shared with remotes (None = tracing
    /// off, the default — enqueues and applies cost nothing extra).
    trace: Arc<Mutex<Option<Trace>>>,
    /// Propagated rollout span context `(trace, span)`: when set (by a
    /// fleet coordinator through the remote), update spans this worker
    /// records parent under that rollout span instead of opening fresh
    /// traces. Persists until overwritten by the next rollout.
    span_parent: Arc<Mutex<Option<(u64, u64)>>>,
    /// When `true` (default), a patch failure during a run aborts the run
    /// with [`RunError::Update`] instead of continuing on the old version.
    pub strict: bool,
}

impl std::fmt::Debug for Updater {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Updater")
            .field("policy", &self.policy)
            .field("pending", &self.pending_count())
            .field("applied", &self.log.lock().expect("poisoned").len())
            .field("failures", &self.failures.lock().expect("poisoned").len())
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
        *self.trace.lock().expect("poisoned") = Some(Trace {
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
        if let Some(t) = self.trace.lock().expect("poisoned").as_mut() {
            t.tracer = Some(tracer);
        }
    }

    /// Installs the quiescence hook run (and timed) at the start of every
    /// update pause, before the rollout gate and before any patch applies.
    /// The measured wait lands in the first applied patch's
    /// [`crate::PhaseTimings::drain`] bucket.
    pub fn set_drain_hook(&self, hook: DrainHook) {
        *self.drain_hook.lock().expect("poisoned") = Some(hook);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Journal> {
        self.trace
            .lock()
            .expect("poisoned")
            .as_ref()
            .map(|t| t.journal.clone())
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
        let kind = OpKind::Apply {
            staged,
            rollback: false,
        };
        enqueue_traced(&self.pending, &self.trace, kind);
        proc.request_update(true);
    }

    /// Queues an *inverse* patch — a downgrade generated by diffing the
    /// versions the other way round (see [`crate::PatchGen`]) whose
    /// reverse state transformers preserve current guest state. The
    /// resulting report is marked [`UpdateReport::rolled_back`] and its
    /// journal lifecycle closes with `RolledBack`. Staged in the call,
    /// like [`Updater::enqueue`].
    pub fn enqueue_rollback(&mut self, proc: &mut Process, patch: Patch) {
        let kind = OpKind::Apply {
            staged: stage(patch, &ProcessTypes(proc), self.policy),
            rollback: true,
        };
        enqueue_traced(&self.pending, &self.trace, kind);
        proc.request_update(true);
    }

    /// Queues a snapshot rollback: at the next pause, pop the snapshot
    /// ring and restore its top entry (best-effort state — guest
    /// mutations since the forward update are discarded). Aborts with
    /// [`UpdateError::NoSnapshot`] when the ring is empty at apply time.
    pub fn enqueue_snapshot_rollback(&mut self, proc: &mut Process) {
        let (from, to) = rollback_transition(&self.transitions);
        enqueue_traced(&self.pending, &self.trace, OpKind::Restore { from, to });
        proc.request_update(true);
    }

    /// Queues a rollback *chain*: up to `hops` snapshot restores, newest
    /// transition first, so one call walks the process back several
    /// versions (v3 → v2 → v1) through the ordinary pipeline — each hop
    /// is its own journal lifecycle closing with `RolledBack`. Clamped to
    /// the ring's current length; returns how many hops were queued.
    pub fn enqueue_rollback_chain(&mut self, proc: &mut Process, hops: usize) -> usize {
        let n = enqueue_chain(&self.pending, &self.trace, &self.transitions, hops);
        if n > 0 {
            proc.request_update(true);
        }
        n
    }

    /// Resizes the snapshot ring (discarding currently retained
    /// snapshots). Depth 0 disables retention; the default is
    /// [`crate::rollback::DEFAULT_SNAPSHOT_DEPTH`].
    pub fn set_snapshot_depth(&self, depth: usize) {
        *self.snapshots.lock().expect("poisoned") = SnapshotRing::new(depth);
        self.transitions.lock().expect("poisoned").clear();
    }

    /// The `(from, to)` transitions whose pre-update snapshots the ring
    /// currently retains, oldest first.
    pub fn snapshot_transitions(&self) -> Vec<(String, String)> {
        self.transitions.lock().expect("poisoned").clone()
    }

    /// Number of operations not yet fully applied: queued patches plus
    /// the op currently mid-apply, if any. Zero means every submitted
    /// op's outcome is visible in [`Updater::log`] / [`Updater::failures`].
    pub fn pending_count(&self) -> usize {
        self.pending.lock().expect("poisoned").len() + self.in_flight.load(Ordering::SeqCst)
    }

    /// Serializes the updater's crash-durable state — the snapshot ring
    /// and every still-pending operation — as a text block. Together with
    /// a write-ahead journal this lets a restarted worker resume exactly
    /// where the old one stopped: restore the ring, re-queue the ops.
    /// Patches are saved bare: what was staged for them is not persisted.
    pub fn save_state(&self) -> String {
        let mut out = String::from("dsu-updater-state 1\n");
        let ring_text = self.snapshots.lock().expect("poisoned").save();
        out.push_str(&format!("ring {}\n", ring_text.len()));
        out.push_str(&ring_text);
        for q in self.pending.lock().expect("poisoned").iter() {
            match &q.kind {
                OpKind::Restore { from, to } => {
                    out.push_str(&format!("op-restore\t{from}\t{to}\n"));
                }
                OpKind::Apply { staged, rollback } => {
                    let text = crate::patch_io::save_patch(staged.patch());
                    out.push_str(&format!(
                        "op-apply {} {}\n",
                        u8::from(*rollback),
                        text.len()
                    ));
                    out.push_str(&text);
                    if !text.ends_with('\n') {
                        out.push('\n');
                    }
                }
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
    /// Returns a description of the first malformed section; on error the
    /// updater is left unchanged.
    pub fn load_state(&mut self, proc: &mut Process, text: &str) -> Result<usize, String> {
        let rest = text
            .strip_prefix("dsu-updater-state 1\n")
            .ok_or("bad header")?;
        let (ring_line, rest) = rest.split_once('\n').ok_or("missing ring section")?;
        let ring_len: usize = ring_line
            .strip_prefix("ring ")
            .ok_or("missing ring section")?
            .parse()
            .map_err(|e| format!("bad ring length: {e}"))?;
        if rest.len() < ring_len {
            return Err("truncated ring section".to_string());
        }
        let ring = SnapshotRing::load(&rest[..ring_len])?;
        let mut rest = &rest[ring_len..];

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
                let len: usize = len.parse().map_err(|e| format!("bad patch length: {e}"))?;
                if rest.len() < len {
                    return Err("truncated patch section".to_string());
                }
                let patch = crate::patch_io::load_patch(&rest[..len]).map_err(|e| e.to_string())?;
                rest = &rest[len..];
                rest = rest.strip_prefix('\n').unwrap_or(rest);
                ops.push(OpKind::Apply {
                    staged: Arc::new(StagedPatch::unstaged(patch)),
                    rollback,
                });
            } else {
                return Err(format!("unknown state line `{line}`"));
            }
        }

        *self.transitions.lock().expect("poisoned") = ring.transitions();
        *self.snapshots.lock().expect("poisoned") = ring;
        let n = ops.len();
        for kind in ops {
            enqueue_traced(&self.pending, &self.trace, kind);
        }
        if n > 0 {
            proc.request_update(true);
        }
        Ok(n)
    }

    /// The `(from, to)` hops of the replay chain (boot version → current
    /// version), oldest first. Empty when the process still runs the
    /// version it booted with.
    pub fn chain_transitions(&self) -> Vec<(String, String)> {
        self.chain
            .iter()
            .map(|s| s.patch())
            .map(|p| (p.from_version.clone(), p.to_version.clone()))
            .collect()
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
            let text = crate::patch_io::save_patch(s.patch());
            out.push_str(&format!("patch {}\n", text.len()));
            out.push_str(&text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
        }
        let inner = self.save_state();
        out.push_str(&format!("state {}\n", inner.len()));
        out.push_str(&inner);
        out
    }

    /// Reports of every successfully applied update, oldest first.
    pub fn log(&self) -> Vec<UpdateReport> {
        self.log.lock().expect("poisoned").clone()
    }

    /// Successful applies so far.
    pub fn applied_count(&self) -> usize {
        self.log.lock().expect("poisoned").len()
    }

    /// Failed applies so far (non-strict mode).
    pub fn failure_count(&self) -> usize {
        self.failures.lock().expect("poisoned").len()
    }

    /// Failures of patches that did not apply (non-strict mode), with
    /// version and failing-phase context.
    pub fn failures(&self) -> Vec<FailedUpdate> {
        self.failures.lock().expect("poisoned").clone()
    }

    /// A shared handle onto the pause log. Clones observe pauses recorded
    /// by future applies.
    pub fn pause_log(&self) -> PauseLog {
        Arc::clone(&self.pauses)
    }

    /// Update pauses recorded so far, oldest first.
    pub fn pauses(&self) -> Vec<PauseEvent> {
        self.pauses.lock().expect("poisoned").clone()
    }

    /// A cross-thread control handle for this updater driving `proc`: feed
    /// patches, arm the update signal, set rollout gates, read results.
    pub fn remote(&self, proc: &Process) -> UpdaterRemote {
        *self.bound_types.lock().expect("poisoned") = Some(Arc::new(bound_types(proc)));
        UpdaterRemote {
            policy: self.policy,
            bound_types: Arc::clone(&self.bound_types),
            pending: Arc::clone(&self.pending),
            in_flight: Arc::clone(&self.in_flight),
            outcomes: Arc::clone(&self.outcomes),
            log: Arc::clone(&self.log),
            failures: Arc::clone(&self.failures),
            pauses: Arc::clone(&self.pauses),
            gate: Arc::clone(&self.gate),
            trace: Arc::clone(&self.trace),
            span_parent: Arc::clone(&self.span_parent),
            transitions: Arc::clone(&self.transitions),
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
        if self.pending.lock().expect("poisoned").is_empty() {
            proc.request_update(false);
            return Ok(0);
        }
        let began = Instant::now();
        let trace = self.trace.lock().expect("poisoned").clone();
        // Span ids are allocated up front so the gate-wait journal event
        // below can cross-link to the root span the pause's first applied
        // patch will record.
        let mut span_ctx = trace
            .as_ref()
            .and_then(|t| t.tracer.clone().map(|tr| (tr, t.worker)))
            .map(|(tracer, worker)| {
                let (trace_id, parent) = match *self.span_parent.lock().expect("poisoned") {
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
        let drain_dur = {
            let mut hook = self.drain_hook.lock().expect("poisoned");
            match hook.as_mut() {
                Some(h) => {
                    let t = Instant::now();
                    h();
                    t.elapsed()
                }
                None => Duration::ZERO,
            }
        };
        // Rendezvous before touching the process (one-shot); the wait is
        // part of the pause, not of any request's service time.
        let gate = self.gate.lock().expect("poisoned").take();
        let mut gate_span: Option<(Instant, Duration)> = None;
        if let Some(gate) = gate {
            let gate_began = Instant::now();
            gate();
            let gate_dur = gate_began.elapsed();
            gate_span = Some((gate_began, gate_dur));
            if let Some(t) = &trace {
                // The wait is charged to the patch at the head of the
                // queue — the one the rendezvous was lining up for.
                let head = self.pending.lock().expect("poisoned").front().map(|q| {
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
        let result = self.drain(proc, drain_dur, began, gate_span, &mut span_ctx);
        self.publish_bound_types(proc);
        self.pauses.lock().expect("poisoned").push(PauseEvent {
            at: began,
            dur: began.elapsed(),
        });
        // Publish last: every report and failure is in its log, the
        // in-flight count has dropped and the pause event is recorded, so
        // a woken waiter finds all of it.
        self.outcomes.publish();
        result
    }

    /// Refreshes the remotes' view of the bound types when this pause
    /// changed one (a patch that bound a type name, a restore that took
    /// one back). Compares before it copies: the usual pause changes none.
    fn publish_bound_types(&self, proc: &Process) {
        let mut published = self.bound_types.lock().expect("poisoned");
        let Some(view) = published.as_ref() else {
            return;
        };
        let unchanged = proc.type_bindings().count() == view.len()
            && proc
                .type_bindings()
                .all(|(name, id)| view.get(name) == Some(proc.struct_def(id)));
        if !unchanged {
            *published = Some(Arc::new(bound_types(proc)));
        }
    }

    fn drain(
        &mut self,
        proc: &mut Process,
        mut drain_dur: Duration,
        pause_began: Instant,
        gate_span: Option<(Instant, Duration)>,
        span_ctx: &mut Option<SpanCtx>,
    ) -> Result<usize, UpdateError> {
        let mut applied = 0;
        let trace = self.trace.lock().expect("poisoned").clone();
        loop {
            let queued = self.pending.lock().expect("poisoned").pop_front();
            let Some(queued) = queued else { break };
            // The op is out of the queue but its outcome is not published
            // yet: keep it counted in `pending_count` until the end of
            // this iteration, after the report or failure lands. The
            // guard also covers the panic path — the count drops during
            // unwind, after the `Aborted` lifecycle is recorded.
            let _in_flight = InFlightGuard::arm(&self.in_flight);
            let op_began = Instant::now();
            let mut phase_log = span_ctx.as_ref().map(|_| PhaseSpanLog::default());
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &queued.kind {
                    OpKind::Apply { staged, rollback } => staged
                        .commit_spanned(proc, self.policy, phase_log.as_mut())
                        .map(|Committed { mut report, before }| {
                            report.rolled_back = *rollback;
                            // The commit's own pre-update snapshot feeds
                            // the rollback ring (a depth-0 ring drops it):
                            // forward applies record it, rollbacks retire
                            // the entry they undo instead.
                            let patch = staged.patch();
                            let mut ring = self.snapshots.lock().expect("poisoned");
                            if *rollback {
                                ring.retire_undone(&patch.from_version);
                            } else {
                                ring.push(&patch.from_version, &patch.to_version, before);
                            }
                            *self.transitions.lock().expect("poisoned") = ring.transitions();
                            report
                        }),
                    OpKind::Restore { .. } => {
                        // A snapshot restore is pure rebinding: the whole
                        // pause is charged to `bind`, the atomic-flip phase.
                        let t = Instant::now();
                        let entry = {
                            let mut ring = self.snapshots.lock().expect("poisoned");
                            let entry = ring.pop();
                            *self.transitions.lock().expect("poisoned") = ring.transitions();
                            entry
                        };
                        match entry {
                            None => Err(UpdateError::NoSnapshot),
                            Some(entry) => {
                                proc.restore(entry.snapshot);
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
                    if let Some(t) = &trace {
                        t.journal.record(
                            t.worker,
                            queued.update,
                            queued.version_from(),
                            queued.version_to(),
                            Stage::Aborted,
                            None,
                            Some(&format!("crashed: {}", panic_detail(payload.as_ref()))),
                        );
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
                    self.record_chain_hop(queued.kind, &report);
                    let link = span_ctx.as_mut().map(|ctx| {
                        record_update_spans(
                            ctx,
                            queued.update,
                            &report,
                            pause_began,
                            op_began,
                            gate_span,
                            phase_log.as_ref().expect("span ctx implies phase log"),
                        )
                    });
                    if let Some(t) = &trace {
                        emit_applied(t, queued.update, &report, link);
                    }
                    self.log.lock().expect("poisoned").push(report);
                    applied += 1;
                }
                Err(e) => {
                    if let Some(t) = &trace {
                        emit_aborted(t, &queued, &e);
                    }
                    if self.strict {
                        proc.request_update(!self.pending.lock().expect("poisoned").is_empty());
                        return Err(e);
                    }
                    self.failures
                        .lock()
                        .expect("poisoned")
                        .push(FailedUpdate::new(
                            queued.version_from(),
                            queued.version_to(),
                            e,
                        ));
                }
            }
        }
        proc.request_update(false);
        Ok(applied)
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

/// Holds one mid-apply op inside [`Updater::pending_count`] from its pop
/// off the queue until its outcome is published (normally, on an early
/// strict-mode return, or during a panic unwind alike).
struct InFlightGuard(Arc<AtomicUsize>);

impl InFlightGuard {
    fn arm(count: &Arc<AtomicUsize>) -> InFlightGuard {
        count.fetch_add(1, Ordering::SeqCst);
        InFlightGuard(Arc::clone(count))
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
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
    let mut chain = Vec::with_capacity(n);
    for _ in 0..n {
        let (pline, body) = rest.split_once('\n').ok_or("truncated patch line")?;
        let len: usize = pline
            .strip_prefix("patch ")
            .ok_or("missing patch line")?
            .parse()
            .map_err(|e| format!("bad patch length: {e}"))?;
        if body.len() < len {
            return Err("truncated patch body".to_string());
        }
        let patch = crate::patch_io::load_patch(&body[..len]).map_err(|e| e.to_string())?;
        let tail = &body[len..];
        rest = tail.strip_prefix('\n').unwrap_or(tail);
        chain.push(patch);
    }
    let (sline, rest) = rest.split_once('\n').ok_or("missing state section")?;
    let len: usize = sline
        .strip_prefix("state ")
        .ok_or("missing state section")?
        .parse()
        .map_err(|e| format!("bad state length: {e}"))?;
    if rest.len() < len {
        return Err("truncated state section".to_string());
    }
    Ok((chain, rest[..len].to_string()))
}

/// The type definitions `proc` binds right now, by name.
fn bound_types(proc: &Process) -> BTreeMap<String, TypeDef> {
    proc.type_bindings()
        .map(|(name, id)| (name.to_string(), proc.struct_def(id).clone()))
        .collect()
}

/// Queues an operation, assigning it a journal lifecycle id and emitting
/// the `Enqueued` event when tracing is on (shared by [`Updater::enqueue`]
/// and [`UpdaterRemote::enqueue`] and their rollback variants). A staged
/// patch whose stage cost nobody has claimed yet is claimed by this
/// lifecycle: `Staged` follows `Enqueued`, carrying the duration the
/// report's `timings.staged` will.
fn enqueue_traced(pending: &Mutex<VecDeque<QueuedOp>>, trace: &Mutex<Option<Trace>>, kind: OpKind) {
    let t = trace.lock().expect("poisoned").clone();
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
    pending.lock().expect("poisoned").push_back(queued);
}

/// The `(from, to)` a snapshot rollback enqueued *now* would report: the
/// ring's top transition reversed, read from the Send-safe mirror. Falls
/// back to `"?"` when the ring is empty (the apply will abort with
/// `NoSnapshot`).
fn rollback_transition(transitions: &Mutex<Vec<(String, String)>>) -> (String, String) {
    transitions
        .lock()
        .expect("poisoned")
        .last()
        .map(|(from, to)| (to.clone(), from.clone()))
        .unwrap_or_else(|| ("?".to_string(), "?".to_string()))
}

/// Queues up to `hops` snapshot restores walking the ring's retained
/// transitions backwards (newest first). Each hop's versions are resolved
/// now from the Send-safe mirror so every journal lifecycle names its own
/// leg of the chain; apply pops the real ring sequentially, so the hops
/// line up as long as nothing else races the ring. Returns the number of
/// hops actually queued (clamped to the mirror's length).
fn enqueue_chain(
    pending: &Mutex<VecDeque<QueuedOp>>,
    trace: &Mutex<Option<Trace>>,
    transitions: &Mutex<Vec<(String, String)>>,
    hops: usize,
) -> usize {
    let trans = transitions.lock().expect("poisoned").clone();
    let n = hops.min(trans.len());
    for (from, to) in trans.iter().rev().take(n) {
        enqueue_traced(
            pending,
            trace,
            OpKind::Restore {
                from: to.clone(),
                to: from.clone(),
            },
        );
    }
    n
}

/// Drains every queued operation without applying it, emitting an
/// `Aborted` lifecycle event per operation when tracing is on. Used by a
/// coordinator to withdraw patches from a worker that must not proceed
/// (a held rollout, a stalled gate). Returns how many were cancelled.
fn cancel_traced(
    pending: &Mutex<VecDeque<QueuedOp>>,
    trace: &Mutex<Option<Trace>>,
    reason: &str,
) -> usize {
    let drained: Vec<QueuedOp> = pending.lock().expect("poisoned").drain(..).collect();
    if let Some(t) = trace.lock().expect("poisoned").clone() {
        for q in &drained {
            t.journal.record(
                t.worker,
                q.update,
                q.version_from(),
                q.version_to(),
                Stage::Aborted,
                None,
                Some(&format!("cancelled: {reason}")),
            );
        }
    }
    drained.len()
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

/// Emits `Aborted`, carrying the failing phase and cause.
fn emit_aborted(t: &Trace, queued: &QueuedOp, error: &UpdateError) {
    t.journal.record(
        t.worker,
        queued.update,
        queued.version_from(),
        queued.version_to(),
        Stage::Aborted,
        None,
        Some(&format!("{}: {error}", error.phase())),
    );
}

/// Cross-thread control over one worker's [`Updater`]/[`Process`] pair
/// (see [`Updater::remote`]). All methods are safe to call while the
/// worker thread is mid-run: patches land in the shared queue, the signal
/// makes the guest suspend at its next update point, and results appear in
/// the shared logs as the worker applies.
#[derive(Clone)]
pub struct UpdaterRemote {
    /// The worker's update policy (fixed when its updater was built).
    policy: UpdatePolicy,
    bound_types: Arc<BoundTypes>,
    pending: Arc<Mutex<VecDeque<QueuedOp>>>,
    in_flight: Arc<AtomicUsize>,
    outcomes: Arc<OutcomeSignal>,
    log: Arc<Mutex<Vec<UpdateReport>>>,
    failures: Arc<Mutex<Vec<FailedUpdate>>>,
    pauses: PauseLog,
    gate: Arc<Mutex<Option<Gate>>>,
    trace: Arc<Mutex<Option<Trace>>>,
    span_parent: Arc<Mutex<Option<(u64, u64)>>>,
    transitions: Arc<Mutex<Vec<(String, String)>>>,
    signal: UpdateSignal,
}

impl std::fmt::Debug for UpdaterRemote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdaterRemote")
            .field("pending", &self.pending_count())
            .field("applied", &self.applied_count())
            .field("failed", &self.failure_count())
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
        // Clone the view out: verification must not hold the lock a
        // finishing pause takes to refresh it.
        let types = self.bound_types.lock().expect("poisoned").clone();
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
        let kind = OpKind::Apply {
            staged,
            rollback: false,
        };
        enqueue_traced(&self.pending, &self.trace, kind);
        self.signal.arm();
    }

    /// Queues an *inverse* patch on the worker: a downgrade whose reverse
    /// state transformers preserve current guest state. The report comes
    /// back marked [`UpdateReport::rolled_back`] and the lifecycle closes
    /// with `RolledBack` (see [`Updater::enqueue_rollback`]). Staged in
    /// the call, like [`UpdaterRemote::enqueue`].
    pub fn enqueue_rollback(&self, patch: Patch) {
        let kind = OpKind::Apply {
            staged: self.stage(patch),
            rollback: true,
        };
        enqueue_traced(&self.pending, &self.trace, kind);
        self.signal.arm();
    }

    /// Queues a snapshot rollback on the worker: pop its snapshot ring
    /// and restore the top entry at the next pause (see
    /// [`Updater::enqueue_snapshot_rollback`]).
    pub fn enqueue_snapshot_rollback(&self) {
        let (from, to) = rollback_transition(&self.transitions);
        enqueue_traced(&self.pending, &self.trace, OpKind::Restore { from, to });
        self.signal.arm();
    }

    /// Queues a rollback *chain* on the worker: up to `hops` snapshot
    /// restores, newest transition first, each its own `RolledBack`
    /// lifecycle (see [`Updater::enqueue_rollback_chain`]). Clamped to
    /// the ring's current length; returns how many hops were queued.
    pub fn enqueue_rollback_chain(&self, hops: usize) -> usize {
        let n = enqueue_chain(&self.pending, &self.trace, &self.transitions, hops);
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
        let n = cancel_traced(&self.pending, &self.trace, reason);
        self.outcomes.publish();
        n
    }

    /// Blocks until `ready` yields a value or `deadline` passes (`None`).
    /// `ready` is evaluated at once — an outcome published before the call
    /// returns immediately — and again after every update pause on the
    /// worker, every [`UpdaterRemote::cancel_pending`] and every
    /// [`UpdaterRemote::wake`], through any clone of this handle. A pause
    /// publishes last, so `ready` sees its reports, failures, pending
    /// count and pause event together. There is no timer in between: a
    /// change to anything else `ready` reads must be followed by
    /// [`UpdaterRemote::wake`].
    pub fn wait_until<T>(
        &self,
        deadline: Instant,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        loop {
            // Count before predicate: a publish between the two makes the
            // park below return at once.
            let seen = self.outcomes.events();
            if let Some(v) = ready() {
                return Some(v);
            }
            if !self.outcomes.park(seen, deadline) {
                return None;
            }
        }
    }

    /// Makes every [`UpdaterRemote::wait_until`] waiter re-evaluate: for a
    /// party that changed something a predicate reads outside the updater
    /// (a supervisor declaring the worker restarted or down). Change
    /// first, then wake.
    pub fn wake(&self) {
        self.outcomes.publish();
    }

    /// The `(from, to)` transitions whose pre-update snapshots the
    /// worker's ring retains, oldest first.
    pub fn snapshot_transitions(&self) -> Vec<(String, String)> {
        self.transitions.lock().expect("poisoned").clone()
    }

    /// Installs a one-shot gate run at the start of the next pause, before
    /// any patch applies. Used to line several workers up (barrier) for a
    /// simultaneous rollout.
    pub fn set_gate(&self, gate: Gate) {
        *self.gate.lock().expect("poisoned") = Some(gate);
    }

    /// Propagates a rollout span context: update spans this worker
    /// records from now on join trace `trace` and parent under span
    /// `span` (the coordinator's rollout root span), until the next
    /// rollout overwrites the context. No-op for the journal; spans only.
    pub fn set_span_parent(&self, trace: u64, span: u64) {
        *self.span_parent.lock().expect("poisoned") = Some((trace, span));
    }

    /// Clears a propagated rollout span context: subsequent update spans
    /// open fresh traces again. Coordinators call this when their rollout
    /// root span closes, so a later direct update cannot parent under a
    /// span that has already ended.
    pub fn clear_span_parent(&self) {
        *self.span_parent.lock().expect("poisoned") = None;
    }

    /// Operations not yet fully applied: queued patches plus the op
    /// currently mid-apply, if any. Zero means every submitted op's
    /// outcome is visible through [`UpdaterRemote::reports`] /
    /// [`UpdaterRemote::failures`] — the invariant coordinators lean on
    /// when they wait for "counts moved and nothing pending".
    pub fn pending_count(&self) -> usize {
        self.pending.lock().expect("poisoned").len() + self.in_flight.load(Ordering::SeqCst)
    }

    /// Successful applies so far.
    pub fn applied_count(&self) -> usize {
        self.log.lock().expect("poisoned").len()
    }

    /// Failed applies so far (non-strict worker).
    pub fn failure_count(&self) -> usize {
        self.failures.lock().expect("poisoned").len()
    }

    /// Update pauses recorded so far.
    pub fn pause_count(&self) -> usize {
        self.pauses.lock().expect("poisoned").len()
    }

    /// Reports of every successful apply, oldest first.
    pub fn reports(&self) -> Vec<UpdateReport> {
        self.reports_from(0)
    }

    /// Reports of the successful applies after the first `base`, oldest
    /// first (empty when fewer than `base` exist — a restarted worker's
    /// history can be shorter than a count taken before its crash).
    pub fn reports_from(&self, base: usize) -> Vec<UpdateReport> {
        tail(&self.log, base)
    }

    /// The most recent successful apply's report.
    pub fn last_report(&self) -> Option<UpdateReport> {
        self.log.lock().expect("poisoned").last().cloned()
    }

    /// Failures of every failed apply, oldest first, with version and
    /// failing-phase context.
    pub fn failures(&self) -> Vec<FailedUpdate> {
        self.failures_from(0)
    }

    /// Failures after the first `base`, oldest first.
    pub fn failures_from(&self, base: usize) -> Vec<FailedUpdate> {
        tail(&self.failures, base)
    }

    /// Update pauses recorded so far, oldest first.
    pub fn pauses(&self) -> Vec<PauseEvent> {
        self.pauses_from(0)
    }

    /// Update pauses after the first `base`, oldest first.
    pub fn pauses_from(&self, base: usize) -> Vec<PauseEvent> {
        tail(&self.pauses, base)
    }
}

/// Clones a shared log's entries after the first `base`.
fn tail<T: Clone>(log: &Mutex<Vec<T>>, base: usize) -> Vec<T> {
    let log = log.lock().expect("poisoned");
    log.get(base..).map(<[T]>::to_vec).unwrap_or_default()
}
