//! A sharded FlashEd fleet with coordinated live updates.
//!
//! The paper updates one single-threaded server mid-traffic. This module
//! scales that experiment out: a [`Fleet`] runs N worker threads, each
//! owning its *own* [`vm::Process`] (guest state is thread-local; nothing
//! about the VM becomes concurrent), all pulling from one shared
//! [`Inbox`] — or, behind an [`Edge`], from one inbox each — and
//! reporting into one [`ServerShared`] completion log. A coordinator
//! thread broadcasts a compiled [`Patch`] to every worker through
//! [`dsu_core::UpdaterRemote`] handles, driven by a [`RolloutPlan`]
//! ([`Fleet::rollout_plan`]):
//!
//! * [`RolloutPlan::simultaneous`] — every worker pauses at its next
//!   update point, a barrier lines the whole fleet up, all workers apply
//!   at once, all resume. One fleet-wide service gap; no version skew.
//! * [`RolloutPlan::rolling`] — workers apply one at a time; while one
//!   pauses the rest keep serving, so the fleet never stops completing
//!   requests. Transient version skew; no fleet-wide gap.
//! * [`RolloutPlan::guarded`] / [`RolloutPlan::staged`] — a canary worker
//!   updates first and a [`crate::guard::HealthGate`] judges every step
//!   (pause-SLO budget, error counters, completion liveness) before the
//!   patch advances; a breach holds the line or rolls every updated
//!   worker back, and the whole run leaves a
//!   [`crate::guard::RolloutReportCard`] behind.
//!
//! The coordinator blocks on the worker, not on a timer: every await is
//! one [`dsu_core::UpdaterRemote::wait_until`] on the handle the patch
//! was enqueued on. Its predicate runs under the updater's one lock, so it
//! sees whole pauses only, and is re-run after the worker's single
//! end-of-pause publish, a withdrawal, or the supervisor's
//! [`dsu_core::UpdaterRemote::wake`] — which changes, then wakes: the
//! restart epoch is bumped after the fresh seat, the edge's `mark_up` and
//! the [`RestartReport`] are all in place, and only then are parked
//! coordinators woken. Progress is measured from a [`Mark`] taken before
//! the enqueue and read back as one cut ([`dsu_core::UpdaterRemote::since`]).
//!
//! Workers run their updaters non-strict: a worker whose apply is rejected
//! keeps serving its old version and the failure lands in the rollout's
//! [`FleetUpdateReport`] — the rest of the fleet still rolls forward.
//! Deliberate misbehaviour for hardening tests is threaded in per worker
//! through [`WorkerOverride::fault`] (see [`crate::fault::FaultPlan`]).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dsu_core::{FleetUpdateReport, Mark, Patch, UpdaterRemote};
use dsu_obs::trace::{Span, SpanKind};
use dsu_obs::{Journal, Tracer};
use vm::LinkMode;

use crate::edge::{Edge, EdgeConfig, Inbox};
use crate::fault::{crash_if_armed, CrashPoint, FaultPlan, InjectedCrash};
use crate::fs::SimFs;
use crate::rollout::{Orchestrator, OrchestratorReport, RolloutPlan};
use crate::server::{Completion, ServeMode, Server, ServerConfig, ServerShared};
use crate::telemetry::FleetTelemetry;

/// Per-worker deviations from the fleet-wide configuration — a fleet
/// whose workers sit on heterogeneous "hardware" (different device
/// latencies, cache sizes, concurrency windows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOverride {
    /// Per-read device latency for this worker's filesystem copy.
    pub read_latency: Option<Duration>,
    /// Buffer-cache capacity (event-loop mode only).
    pub cache_entries: Option<usize>,
    /// In-flight request window (event-loop mode only).
    pub max_in_flight: Option<usize>,
    /// Injected misbehaviour for hardening tests: pause/gate delays take
    /// effect at this worker's update pauses, read errors at its boot.
    pub fault: FaultPlan,
}

/// Fleet configuration: size, link mode, serve mode, telemetry, and
/// optional per-worker overrides. Built fluently:
///
/// ```
/// use flashed::{EventLoopConfig, FleetConfig, ServeMode};
/// let cfg = FleetConfig::new(4)
///     .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
///     .with_telemetry();
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Link mode every worker boots in.
    pub link_mode: LinkMode,
    /// Serve mode every worker runs (see [`WorkerOverride`] for per-worker
    /// event-loop tuning).
    pub serve_mode: ServeMode,
    /// Whether to build a [`FleetTelemetry`] (journal + registries).
    pub telemetry: bool,
    /// Whether to build a fleet-shared span [`dsu_obs::Tracer`] (implies
    /// `telemetry`): request, update and rollout spans land in one
    /// collector, ready for latency attribution.
    pub tracing: bool,
    /// Whether each worker arms its VM's hot-path profiler at boot and
    /// publishes the collapsed-stack profile at shutdown.
    pub vm_profile: bool,
    /// Per-worker overrides, indexed by worker id; missing entries mean
    /// "no override".
    pub overrides: Vec<WorkerOverride>,
    /// How long rollouts (and [`Fleet::drain`]) wait for a worker before
    /// giving up (30 s by default). Hardening tests shrink this so an
    /// injected gate stall surfaces in milliseconds.
    pub rollout_deadline: Duration,
    /// Journal the workers' lifecycle events land in. `None` builds a
    /// fresh in-memory one; an [`Orchestrator`] hands every shard fleet
    /// one shared (possibly write-ahead-backed) journal so the whole
    /// staged rollout is one recoverable stream. Implies `telemetry`.
    pub journal: Option<Journal>,
    /// First worker id used for journal tags and metric labels. Shard
    /// fleets under one orchestrator get disjoint ranges so worker ids
    /// stay globally unambiguous in the shared journal.
    pub worker_base: usize,
    /// Fronts the fleet with a routed [`Edge`]: one bounded inbox per
    /// worker, instead of every worker contending on one shared
    /// unbounded inbox (`None`).
    pub edge: Option<EdgeConfig>,
    /// Runs a supervisor thread over the fleet: dead workers are
    /// detected, failed over at the edge, and rebooted from their
    /// persisted snapshot rings (see [`FleetConfig::supervised`]).
    /// `None` (the default) keeps the pre-supervision behaviour — a dead
    /// worker stays dead until shutdown reports it.
    pub supervision: Option<SupervisorConfig>,
}

impl FleetConfig {
    /// A `workers`-strong updateable, blocking, untelemetered fleet.
    pub fn new(workers: usize) -> FleetConfig {
        FleetConfig {
            workers,
            link_mode: LinkMode::Updateable,
            serve_mode: ServeMode::Blocking,
            telemetry: false,
            tracing: false,
            vm_profile: false,
            overrides: Vec::new(),
            rollout_deadline: ROLLOUT_DEADLINE,
            journal: None,
            worker_base: 0,
            edge: None,
            supervision: None,
        }
    }

    /// Supervises the fleet with default knobs: dead workers are failed
    /// over at the edge and rebooted from their persisted snapshot rings,
    /// with exponential backoff and a bounded restart budget.
    pub fn supervised(self) -> FleetConfig {
        self.with_supervision(SupervisorConfig::default())
    }

    /// Supervises the fleet with explicit knobs.
    pub fn with_supervision(mut self, cfg: SupervisorConfig) -> FleetConfig {
        self.supervision = Some(cfg);
        self
    }

    /// Fronts the fleet with a routed edge (see [`EdgeConfig`]): workers
    /// pull from per-worker bounded inboxes, [`Fleet::push_requests`]
    /// goes through [`Edge::submit_all`], and overflow sheds with a typed
    /// error.
    pub fn with_edge(mut self, edge: EdgeConfig) -> FleetConfig {
        self.edge = Some(edge);
        self
    }

    /// Routes lifecycle events into a caller-supplied `journal` (shared
    /// across fleets, possibly write-ahead-backed) instead of a fresh
    /// in-memory one. Implies [`FleetConfig::with_telemetry`].
    pub fn with_journal(mut self, journal: Journal) -> FleetConfig {
        self.telemetry = true;
        self.journal = Some(journal);
        self
    }

    /// Offsets this fleet's worker ids (journal tags, metric labels) by
    /// `base`, so shard fleets in one orchestrator keep globally unique
    /// worker ids.
    pub fn worker_base(mut self, base: usize) -> FleetConfig {
        self.worker_base = base;
        self
    }

    /// Sets the rollout/drain deadline.
    pub fn rollout_deadline(mut self, deadline: Duration) -> FleetConfig {
        self.rollout_deadline = deadline;
        self
    }

    /// Sets the link mode.
    pub fn link_mode(mut self, mode: LinkMode) -> FleetConfig {
        self.link_mode = mode;
        self
    }

    /// Sets the serve mode.
    pub fn serve_mode(mut self, mode: ServeMode) -> FleetConfig {
        self.serve_mode = mode;
        self
    }

    /// Enables fleet telemetry.
    pub fn with_telemetry(mut self) -> FleetConfig {
        self.telemetry = true;
        self
    }

    /// Enables causal tracing (and, with it, telemetry): every worker's
    /// server emits request spans, every updater emits update/phase
    /// spans, and rollouts stamp a fleet-wide root span — all into one
    /// shared [`dsu_obs::Tracer`].
    pub fn with_tracing(mut self) -> FleetConfig {
        self.telemetry = true;
        self.tracing = true;
        self
    }

    /// Arms each worker's VM hot-path profiler at boot; the collapsed
    /// profile is published into the worker's telemetry at shutdown.
    pub fn with_vm_profile(mut self) -> FleetConfig {
        self.vm_profile = true;
        self
    }

    /// Overrides worker `worker`'s configuration.
    pub fn override_worker(mut self, worker: usize, ov: WorkerOverride) -> FleetConfig {
        if self.overrides.len() <= worker {
            self.overrides.resize(worker + 1, WorkerOverride::default());
        }
        self.overrides[worker] = ov;
        self
    }

    fn override_for(&self, worker: usize) -> WorkerOverride {
        self.overrides.get(worker).copied().unwrap_or_default()
    }
}

/// What went wrong inside one worker.
#[derive(Debug)]
pub enum WorkerFailure {
    /// The worker thread could not be spawned.
    Spawn(String),
    /// The worker's server failed to boot (compile/link).
    Boot(String),
    /// The worker thread died before reporting its boot outcome.
    BootChannel,
    /// The guest trapped (or a strict-mode update failed) while serving.
    Guest(String),
    /// The worker thread panicked.
    Panic,
    /// The worker thread was killed by injected crash fault at the given
    /// point (see [`crate::fault::FaultPlan::crash_at`]) — told apart
    /// from an accidental [`WorkerFailure::Panic`] by the typed panic
    /// payload.
    Crashed(CrashPoint),
    /// The supervisor exhausted its restart budget for this worker and
    /// degraded the fleet instead of restart-looping; the worker stays
    /// down and the edge routes around it.
    GaveUp {
        /// Restarts attempted before giving up.
        restarts: u64,
    },
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFailure::Spawn(e) => write!(f, "thread spawn failed: {e}"),
            WorkerFailure::Boot(e) => write!(f, "failed to boot: {e}"),
            WorkerFailure::BootChannel => write!(f, "died during boot"),
            WorkerFailure::Guest(e) => write!(f, "{e}"),
            WorkerFailure::Panic => write!(f, "panicked"),
            WorkerFailure::Crashed(point) => write!(f, "crashed ({point})"),
            WorkerFailure::GaveUp { restarts } => {
                write!(f, "supervisor gave up after {restarts} restarts")
            }
        }
    }
}

/// Fleet operation failures, carrying the worker they originate from
/// (where one does) and the underlying cause.
#[derive(Debug)]
pub enum FleetError {
    /// A worker failed — at boot, while serving, or at shutdown.
    Worker {
        /// The failing worker's index.
        worker: usize,
        /// What happened to it.
        cause: WorkerFailure,
    },
    /// [`Fleet::drain`] timed out with requests still outstanding. The
    /// stall is attributed per inbox, so behind an edge a single wedged
    /// worker is identifiable from the error alone.
    QueueStall {
        /// Requests still queued in each inbox at the deadline: one entry
        /// per worker behind an edge, a single entry for the shared inbox
        /// without one.
        per_worker: Vec<usize>,
        /// Completions observed at the deadline.
        completed: usize,
        /// Completions the caller expected.
        expected: usize,
    },
    /// A rollout gave up waiting for a worker to reach an update boundary.
    RolloutStalled {
        /// The worker that never resolved its patch.
        worker: usize,
    },
    /// The awaited worker died and its supervisor rebooted it mid-wait:
    /// the patch that was in flight was withdrawn (`Aborted`) and the
    /// worker now runs a fresh incarnation at its pre-crash version. The
    /// rollout driver catches this and re-drives the cohort patch on the
    /// new incarnation.
    WorkerRestarted {
        /// The restarted worker's index.
        worker: usize,
    },
    /// The awaited worker is down for good: it died and either no
    /// supervisor is running or the supervisor exhausted its restart
    /// budget. The rollout treats this like a stall (breach or partial
    /// rollout) while the rest of the fleet keeps serving.
    WorkerDown {
        /// The dead worker's index.
        worker: usize,
    },
    /// A rolling rollout stalled mid-fleet: some workers already serve the
    /// new version, the rest never will (the stalled worker's pending
    /// patch was withdrawn) — the fleet is left version-skewed and the
    /// caller must decide whether to retry forward or roll the updated
    /// workers back.
    PartialRollout {
        /// Workers now serving the new version.
        updated: Vec<usize>,
        /// Workers still on the old version (stalled or never reached).
        remaining: Vec<usize>,
    },
    /// A staged rollout pushed the cross-fleet version skew (distinct
    /// live versions minus one) past the orchestrator's configured bound.
    SkewExceeded {
        /// The skew observed at the violation.
        observed: usize,
        /// The configured bound.
        bound: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Worker { worker, cause } => write!(f, "worker {worker}: {cause}"),
            FleetError::QueueStall {
                per_worker,
                completed,
                expected,
            } => write!(
                f,
                "fleet did not drain: {per_worker:?} queued, {completed}/{expected} completed"
            ),
            FleetError::RolloutStalled { worker } => {
                write!(f, "worker {worker} did not reach an update boundary")
            }
            FleetError::WorkerRestarted { worker } => {
                write!(
                    f,
                    "worker {worker} was restarted by its supervisor mid-wait"
                )
            }
            FleetError::WorkerDown { worker } => {
                write!(f, "worker {worker} is down and will not be restarted")
            }
            FleetError::PartialRollout { updated, remaining } => write!(
                f,
                "rolling rollout stalled mid-fleet: {updated:?} updated, {remaining:?} remaining"
            ),
            FleetError::SkewExceeded { observed, bound } => {
                write!(
                    f,
                    "version skew {observed} exceeded the configured bound {bound}"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// The longest an idle worker stays blocked on its inbox. A push, a
/// queued patch and shutdown all wake it at once; this bound only keeps
/// the heartbeat and the injectable crash seams ticking, and lets a
/// worker whose fleet was dropped without a shutdown notice and exit.
const IDLE_WAIT: Duration = Duration::from_millis(10);

/// How long a rollout waits for a worker to apply before giving up.
const ROLLOUT_DEADLINE: Duration = Duration::from_secs(30);

enum Ctrl {
    Shutdown,
}

/// Supervision knobs: how fast death is noticed and how patiently (and
/// how often) a dead worker is rebooted before the fleet degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How often the supervisor sweeps the fleet for dead workers —
    /// bounds detection latency.
    pub poll: Duration,
    /// Backoff before the first restart of a worker; doubles on each
    /// consecutive restart of the same worker.
    pub backoff_base: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Restarts per worker before the supervisor gives up on it. The
    /// fleet then degrades gracefully: the worker stays down, the edge
    /// keeps routing around it, and shutdown reports
    /// [`WorkerFailure::GaveUp`].
    pub max_restarts: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            poll: Duration::from_micros(500),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            max_restarts: 3,
        }
    }
}

/// One supervised restart, timed phase by phase: how long death went
/// unnoticed plus reaping/failover (`detect`), booting the fresh server
/// (`reboot`), and replaying the persisted chain + installing the saved
/// snapshot ring (`replay`). `total` is detection → serving again.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// The restarted worker.
    pub worker: usize,
    /// What killed the previous incarnation.
    pub failure: String,
    /// Death noticed → old thread reaped, edge failed over, pending
    /// patches withdrawn.
    pub detect: Duration,
    /// Backoff + spawn + server boot (compile/link), excluding replay.
    pub reboot: Duration,
    /// Replaying the persisted patch chain and installing the saved
    /// snapshot ring.
    pub replay: Duration,
    /// The version the replay brought the fresh incarnation back to.
    pub replayed_to: String,
    /// Requests drained from the dead worker's inbox at failover and
    /// pushed back through the router (zero without an edge: the shared
    /// inbox needs no failover).
    pub rerouted: usize,
    /// Death noticed → rejoined and serving.
    pub total: Duration,
}

/// What a worker thread hands back at boot: the updater remote plus the
/// live handles a supervisor needs to observe and fault the running
/// worker from outside.
#[derive(Clone)]
struct WorkerLinks {
    remote: UpdaterRemote,
    /// The server's live fault-plan cell — crash points and pause delays
    /// can be armed mid-run.
    fault: Arc<Mutex<FaultPlan>>,
    /// Bumped by the worker every loop iteration; feeds the liveness
    /// gauge and survives restarts (the same cell is re-armed into each
    /// incarnation).
    heartbeat: Arc<AtomicU64>,
    /// The worker's persisted crash-durable state (replay chain +
    /// snapshot ring + pending ops), refreshed at quiescent boundaries.
    state: Arc<Mutex<Option<String>>>,
    /// How long this incarnation spent replaying persisted state at boot
    /// (zero for a first boot).
    replayed: Duration,
    /// The version the replay reached (the boot version for a first
    /// boot).
    replayed_to: String,
}

/// What a worker thread reports over its boot channel once serving.
struct BootInfo {
    remote: UpdaterRemote,
    fault: Arc<Mutex<FaultPlan>>,
    /// Time spent replaying persisted state (zero for a first boot).
    replayed: Duration,
    /// The version the replay reached (the boot version otherwise).
    replayed_to: String,
}

/// One incarnation of a worker: control channel, live links, and the
/// thread to reap. Swapped wholesale by the supervisor on restart.
struct Seat {
    ctrl: mpsc::Sender<Ctrl>,
    links: WorkerLinks,
    /// `None` after the supervisor reaped a dead incarnation (and before
    /// a successful respawn).
    join: Option<JoinHandle<Result<i64, String>>>,
}

impl Seat {
    /// Tells this incarnation to exit, then wakes it in case it is idle
    /// on `inbox` — in that order, so the woken worker finds the message.
    fn stop(&self, inbox: &Inbox) {
        let _ = self.ctrl.send(Ctrl::Shutdown);
        inbox.poke();
    }
}

pub(crate) struct Worker {
    pub(crate) id: usize,
    /// The current incarnation, swapped by the supervisor on restart.
    seat: Mutex<Seat>,
    /// Bumped on every successful respawn; rollout waits watch it to
    /// tell "restarted, re-drive the patch" apart from "stalled".
    epoch: AtomicU64,
    /// Whether the current incarnation is believed alive.
    up: AtomicBool,
    /// Set when the supervisor exhausted its restart budget.
    failed: AtomicBool,
    /// Successful supervised restarts of this worker.
    restarts: AtomicU64,
}

impl Worker {
    /// The current incarnation's updater remote. Cloned out (not
    /// borrowed) because the supervisor may swap the seat mid-use; an
    /// old clone stays safe — its Arcs just belong to a dead updater.
    pub(crate) fn remote(&self) -> UpdaterRemote {
        self.seat.lock().expect("poisoned").links.remote.clone()
    }

    /// Restart epoch: bumped once per successful supervised respawn.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether the current incarnation is believed alive.
    pub(crate) fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Whether the supervisor has given up on this worker.
    pub(crate) fn has_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    fn fault_handle(&self) -> Arc<Mutex<FaultPlan>> {
        Arc::clone(&self.seat.lock().expect("poisoned").links.fault)
    }
}

/// Everything needed to (re)spawn any worker — the fleet's boot-time
/// configuration flattened per worker, kept alive for the supervisor.
struct RespawnSpec {
    /// What each worker's server boots with: link and serve mode, the
    /// fleet's completion log, its telemetry slot, its inbox.
    servers: Vec<ServerConfig>,
    src: String,
    version: String,
    /// Per-worker filesystem handles, one forked fault domain each —
    /// retained so read failures can be flipped on a live worker.
    fs: Vec<SimFs>,
    vm_profile: bool,
    telemetry: Option<Arc<FleetTelemetry>>,
    ingress: Ingress,
}

/// Where a fleet's requests wait for a worker.
enum Ingress {
    /// No edge: every worker pulls from this one unbounded inbox.
    Shared(Arc<Inbox>),
    /// One bounded inbox per worker, behind a routing edge.
    Routed(Arc<Edge>),
}

impl Ingress {
    /// The inbox worker `w` pulls from.
    fn inbox(&self, w: usize) -> &Arc<Inbox> {
        match self {
            Ingress::Shared(inbox) => inbox,
            Ingress::Routed(edge) => edge.inbox(w),
        }
    }

    fn edge(&self) -> Option<&Arc<Edge>> {
        match self {
            Ingress::Shared(_) => None,
            Ingress::Routed(edge) => Some(edge),
        }
    }

    /// Requests queued in each inbox.
    fn depths(&self) -> Vec<usize> {
        match self {
            Ingress::Shared(inbox) => vec![inbox.depth()],
            Ingress::Routed(edge) => edge.depths(),
        }
    }
}

/// The supervisor-shared heart of a [`Fleet`]: the worker table plus the
/// respawn spec and the restart log.
struct FleetState {
    workers: Vec<Worker>,
    spec: RespawnSpec,
    restart_log: Mutex<Vec<RestartReport>>,
}

/// The supervisor thread: stopped (and joined) before workers at
/// shutdown so a restart never races the teardown.
struct SupervisorHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl SupervisorHandle {
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.join.join();
    }
}

/// Maps a joined worker thread's outcome to a typed failure; a clean
/// exit reports `None`.
fn classify_join(res: std::thread::Result<Result<i64, String>>) -> Option<WorkerFailure> {
    match res {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(WorkerFailure::Guest(e)),
        Err(payload) => Some(match payload.downcast_ref::<InjectedCrash>() {
            Some(c) => WorkerFailure::Crashed(c.0),
            None => WorkerFailure::Panic,
        }),
    }
}

/// An open fleet-wide rollout trace: the `(trace, root span)` ids every
/// worker's update spans parent under, plus when coordination began.
pub(crate) struct RolloutTrace {
    trace: u64,
    span: u64,
    began: Instant,
}

/// A running fleet of FlashEd workers over one completion log.
pub struct Fleet {
    shared: ServerShared,
    /// Worker table + respawn spec + restart log, shared with the
    /// supervisor thread.
    state: Arc<FleetState>,
    /// The version every worker booted on (the skew baseline).
    boot_version: String,
    telemetry: Option<Arc<FleetTelemetry>>,
    /// The supervisor thread, when configured (see
    /// [`FleetConfig::supervised`]); stopped before workers at shutdown.
    supervisor: Option<SupervisorHandle>,
    /// How long rollouts and drains wait for a worker (see
    /// [`FleetConfig::rollout_deadline`]).
    rollout_deadline: Duration,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("workers", &self.state.workers.len())
            .field("shared", &self.shared)
            .finish()
    }
}

impl Fleet {
    /// Boots `cfg.workers` workers, each compiling `src` inside its own
    /// thread (guest processes are thread-local by construction), with
    /// the serve mode (blocking or AMPED event loop), telemetry, edge,
    /// supervision and per-worker overrides `cfg` describes.
    ///
    /// # Errors
    ///
    /// Returns the first worker's boot error; already-started workers are
    /// shut down.
    pub fn start_cfg(
        cfg: &FleetConfig,
        src: &str,
        version: &str,
        fs: &SimFs,
    ) -> Result<Fleet, FleetError> {
        let n = cfg.workers;
        assert!(n > 0, "a fleet needs at least one worker");
        let telemetry = cfg.telemetry.then(|| {
            let journal = cfg.journal.clone().unwrap_or_default();
            let tracer = cfg.tracing.then(Tracer::new);
            Arc::new(FleetTelemetry::shared(n, cfg.worker_base, journal, tracer))
        });
        let shared = ServerShared::new();
        let ingress = match &cfg.edge {
            Some(ec) => Ingress::Routed(Arc::new(Edge::new(
                n,
                ec,
                shared.clone(),
                telemetry.clone(),
            ))),
            None => Ingress::Shared(Arc::new(Inbox::unbounded())),
        };
        // Flatten the per-worker configuration into the respawn spec: the
        // supervisor reboots workers from exactly what they booted with
        // (minus the one-shot crash faults, disarmed on respawn).
        let mut servers = Vec::with_capacity(n);
        let mut worker_fs = Vec::with_capacity(n);
        for id in 0..n {
            let ov = cfg.override_for(id);
            // Each worker gets its own fault domain over the shared
            // content: read failures are per worker, flippable live.
            let mut wfs = fs.fork_faults();
            if let Some(latency) = ov.read_latency {
                wfs.set_read_latency(latency);
            }
            if ov.fault.read_errors {
                wfs.set_read_failures(true);
            }
            worker_fs.push(wfs);
            let mut serve_mode = cfg.serve_mode;
            if let ServeMode::EventLoop(ec) = &mut serve_mode {
                ec.cache_entries = ov.cache_entries.unwrap_or(ec.cache_entries);
                ec.max_in_flight = ov.max_in_flight.unwrap_or(ec.max_in_flight);
            }
            let mut server = ServerConfig::new()
                .link_mode(cfg.link_mode)
                .serve_mode(serve_mode)
                .shared(shared.clone())
                .inbox(Arc::clone(ingress.inbox(id)));
            if let Some(t) = &telemetry {
                server = server.telemetry(t.worker(id).clone());
            }
            servers.push(server);
        }
        let spec = RespawnSpec {
            servers,
            src: src.to_string(),
            version: version.to_string(),
            fs: worker_fs,
            vm_profile: cfg.vm_profile,
            telemetry: telemetry.clone(),
            ingress,
        };
        let mut workers = Vec::with_capacity(n);
        let mut boot_err = None;
        for id in 0..n {
            let ov = cfg.override_for(id);
            let heartbeat = Arc::new(AtomicU64::new(0));
            let state_slot = Arc::new(Mutex::new(None));
            match spawn_worker(&spec, id, ov.fault, None, heartbeat, state_slot) {
                Ok(seat) => workers.push(Worker {
                    id,
                    seat: Mutex::new(seat),
                    epoch: AtomicU64::new(0),
                    up: AtomicBool::new(true),
                    failed: AtomicBool::new(false),
                    restarts: AtomicU64::new(0),
                }),
                Err(cause) => {
                    boot_err = Some(FleetError::Worker { worker: id, cause });
                    break;
                }
            }
        }
        if let Some(e) = boot_err {
            for w in workers {
                let seat = w.seat.into_inner().expect("poisoned");
                seat.stop(spec.ingress.inbox(w.id));
                if let Some(join) = seat.join {
                    let _ = join.join();
                }
            }
            return Err(e);
        }
        if let Some(t) = &telemetry {
            t.set_live_versions(&vec![version.to_string(); n]);
        }
        let state = Arc::new(FleetState {
            workers,
            spec,
            restart_log: Mutex::new(Vec::new()),
        });
        let supervisor = cfg
            .supervision
            .map(|sc| start_supervisor(Arc::clone(&state), sc));
        Ok(Fleet {
            shared,
            state,
            boot_version: version.to_string(),
            telemetry,
            supervisor,
            rollout_deadline: cfg.rollout_deadline,
        })
    }

    /// The routed front door, when this fleet was booted with
    /// [`FleetConfig::with_edge`]. Load generators submit through it
    /// directly to see each request's admission verdict.
    pub fn edge(&self) -> Option<&Arc<Edge>> {
        self.state.spec.ingress.edge()
    }

    /// The fleet's telemetry (journal, registries, skew gauge), when
    /// booted with [`FleetConfig::with_telemetry`].
    pub fn telemetry(&self) -> Option<&FleetTelemetry> {
        self.telemetry.as_deref()
    }

    /// The workers, in id order (for the rollout orchestrator).
    pub(crate) fn workers(&self) -> &[Worker] {
        &self.state.workers
    }

    /// The rollout/drain deadline this fleet was configured with.
    pub(crate) fn deadline(&self) -> Duration {
        self.rollout_deadline
    }

    /// The version worker `w` is currently serving: its last successful
    /// update's target version, or the boot version.
    pub(crate) fn worker_version(&self, w: &Worker) -> String {
        w.remote()
            .last_report()
            .map_or_else(|| self.boot_version.clone(), |r| r.to_version)
    }

    /// The version each worker currently serves, in worker order.
    pub fn live_versions(&self) -> Vec<String> {
        self.state
            .workers
            .iter()
            .map(|w| self.worker_version(w))
            .collect()
    }

    /// Recomputes the version-skew gauge from the workers' current
    /// versions (no-op without telemetry).
    pub(crate) fn refresh_skew(&self) {
        if let Some(t) = &self.telemetry {
            t.set_live_versions(&self.live_versions());
        }
    }

    /// Fleet size.
    pub fn worker_count(&self) -> usize {
        self.state.workers.len()
    }

    /// Control handle for one worker — canary a patch on a single worker,
    /// or inspect its apply history, without a fleet-wide rollout.
    ///
    /// The handle belongs to the worker's *current incarnation*: after a
    /// supervised restart an old handle keeps working but addresses the
    /// dead updater; re-fetch after [`Fleet::worker_epoch`] changes.
    pub fn remote(&self, worker: usize) -> UpdaterRemote {
        self.state.workers[worker].remote()
    }

    /// Arms a fault plan on a *live* worker: crash points and pause
    /// delays take effect at the worker's next pass through the matching
    /// seam, no reboot needed.
    pub fn inject_worker_fault(&self, worker: usize, plan: FaultPlan) {
        *self.state.workers[worker]
            .fault_handle()
            .lock()
            .expect("poisoned") = plan;
    }

    /// Starts (or stops) failing every device read on a *live* worker —
    /// the flag is shared with the worker's filesystem handle, so the
    /// flip is visible on its very next read.
    pub fn set_worker_read_failures(&self, worker: usize, fail: bool) {
        self.state.spec.fs[worker].set_read_failures(fail);
    }

    /// Every supervised restart so far, in completion order.
    pub fn restart_reports(&self) -> Vec<RestartReport> {
        self.state.restart_log.lock().expect("poisoned").clone()
    }

    /// Whether `worker`'s current incarnation is believed alive.
    pub fn worker_up(&self, worker: usize) -> bool {
        self.state.workers[worker].is_up()
    }

    /// `worker`'s restart epoch: 0 for the boot incarnation, bumped once
    /// per successful supervised restart.
    pub fn worker_epoch(&self, worker: usize) -> u64 {
        self.state.workers[worker].epoch()
    }

    /// `worker`'s liveness heartbeat: bumped by the worker every serve
    /// loop iteration, preserved across supervised restarts.
    pub fn worker_heartbeat(&self, worker: usize) -> u64 {
        let seat = self.state.workers[worker].seat.lock().expect("poisoned");
        seat.links.heartbeat.load(Ordering::Relaxed)
    }

    /// The shared completion log and clock (clone to observe the fleet
    /// from other threads).
    pub fn shared(&self) -> ServerShared {
        self.shared.clone()
    }

    /// Enqueues client requests: into the shared inbox, or through
    /// [`Edge::submit_all`] when the fleet has an edge (sheds are
    /// counted, and answered 503 when so configured, but not reported
    /// back — submit through [`Fleet::edge`] to see them).
    pub fn push_requests<I>(&self, requests: I)
    where
        I: IntoIterator<Item = String>,
    {
        match &self.state.spec.ingress {
            Ingress::Shared(inbox) => inbox.admit_all(requests),
            Ingress::Routed(edge) => {
                edge.submit_all(requests);
            }
        }
    }

    /// Requests admitted but not yet pulled by a worker, fleet-wide.
    pub fn queued(&self) -> usize {
        self.state.spec.ingress.depths().iter().sum()
    }

    /// Completed responses so far, fleet-wide, in completion order.
    pub fn completions(&self) -> Vec<Completion> {
        self.shared.completions()
    }

    /// Blocks until every inbox is empty and every pulled request has
    /// completed (`expected` = completions expected so far).
    ///
    /// # Errors
    ///
    /// Errors if the fleet does not drain within the deadline.
    pub fn drain(&self, expected: usize) -> Result<(), FleetError> {
        let deadline = Instant::now() + self.rollout_deadline;
        loop {
            if self.queued() == 0 && self.shared.completions_len() >= expected {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(FleetError::QueueStall {
                    per_worker: self.state.spec.ingress.depths(),
                    completed: self.shared.completions_len(),
                    expected,
                });
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    /// Rolls `patch` out across this fleet as `plan` directs — a
    /// one-shard [`Orchestrator`] run with no skew bound — blocking until
    /// each covered worker has either applied it or had it rejected.
    /// Serving continues throughout (for [`RolloutPlan::rolling`],
    /// completions never stop fleet-wide; for
    /// [`RolloutPlan::simultaneous`], the whole fleet pauses once,
    /// together). The per-worker outcome is the report's `fleet_report`,
    /// a gated plan's verdicts its `card`.
    ///
    /// # Errors
    ///
    /// An ungated plan errors if a worker fails to reach an update
    /// boundary within the rollout deadline (e.g. its thread died); when
    /// that happens after at least one worker updated, the error is
    /// [`FleetError::PartialRollout`] (the stalled worker's pending patch
    /// is withdrawn first, so it cannot land later). Under a gate a
    /// forward stall is a health breach, handled by the gate; only a
    /// stalled *rollback* errors.
    pub fn rollout_plan(
        &self,
        patch: &Patch,
        plan: &RolloutPlan,
    ) -> Result<OrchestratorReport, FleetError> {
        Orchestrator::new(std::slice::from_ref(self)).rollout(patch, plan)
    }

    /// Opens a rollout trace: allocates `(trace, root span)` ids on the
    /// fleet tracer and propagates them to every worker, so the update
    /// spans each worker records during this rollout parent under one
    /// fleet-wide root. Returns `None` when tracing is off.
    pub(crate) fn begin_rollout_trace(&self) -> Option<RolloutTrace> {
        let tracer = self.telemetry.as_deref()?.tracer()?;
        let trace = tracer.next_trace_id();
        let span = tracer.next_span_id();
        for w in &self.state.workers {
            w.remote().set_span_parent(trace, span);
        }
        Some(RolloutTrace {
            trace,
            span,
            began: Instant::now(),
        })
    }

    /// Closes a rollout trace: records the root `Rollout` span (covering
    /// the whole coordination window, so every worker's update spans nest
    /// inside it) and clears the propagated context — later direct
    /// updates must not parent under a span that has ended.
    pub(crate) fn end_rollout_trace(&self, rt: Option<RolloutTrace>, patch: &Patch) {
        let Some(rt) = rt else { return };
        let Some(tracer) = self.telemetry.as_deref().and_then(FleetTelemetry::tracer) else {
            return;
        };
        for w in &self.state.workers {
            w.remote().clear_span_parent();
        }
        let start = tracer.since_epoch(rt.began);
        let end = tracer.now().max(start);
        tracer.record(Span {
            trace: rt.trace,
            id: rt.span,
            parent: None,
            kind: SpanKind::Rollout,
            name: "rollout",
            worker: None,
            start,
            dur: end.saturating_sub(start),
            update: None,
            request: None,
            detail: Some(format!("{}->{}", patch.from_version, patch.to_version)),
        });
    }

    /// Every worker's [`Mark`] before a rollout.
    pub(crate) fn marks(&self) -> Vec<Mark> {
        let workers = self.state.workers.iter();
        workers.map(|w| w.remote().mark()).collect()
    }

    /// Gathers everything each worker applied/failed/paused since `marks`
    /// into a [`FleetUpdateReport`].
    pub(crate) fn collect_report(&self, marks: &[Mark]) -> FleetUpdateReport {
        let mut report = FleetUpdateReport {
            workers: self.state.workers.len(),
            ..FleetUpdateReport::default()
        };
        for (w, mark) in self.state.workers.iter().zip(marks) {
            // A supervised restart resets the worker's history to its
            // replay hops, which can be shorter than a mark taken
            // pre-crash: the cut is then empty.
            let cut = w.remote().since(*mark);
            report
                .applied
                .extend(cut.reports.into_iter().map(|r| (w.id, r)));
            report
                .failed
                .extend(cut.failures.into_iter().map(|e| (w.id, e)));
            report.pauses.push(cut.pauses.iter().map(|p| p.dur).sum());
        }
        report
    }

    /// Per-worker device-read-error counts (zeros untelemetered).
    pub(crate) fn read_error_counts(&self) -> Vec<u64> {
        match &self.telemetry {
            Some(t) => (0..self.state.workers.len())
                .map(|i| t.worker(i).read_errors())
                .collect(),
            None => vec![0; self.state.workers.len()],
        }
    }

    /// Blocks on `remote` — the handle the patches were enqueued on —
    /// until `worker` has resolved `n` of them since `mark`, taken on
    /// that handle before the enqueue (a rollback *chain* resolves several
    /// in one pause), and nothing is pending. A pause publishes whole, so
    /// the pause events of those outcomes are visible with them. The
    /// worker's publish is the wake; there is no timer.
    ///
    /// `epoch0` is the worker's restart epoch at enqueue time: a bump
    /// mid-wait means a supervisor rebooted the worker (the in-flight
    /// patch was withdrawn) and surfaces as
    /// [`FleetError::WorkerRestarted`] for the caller to re-drive. The
    /// supervisor wakes the incarnation it reaped, which is the one a
    /// patch enqueued before the crash sits on — so the wait parks on the
    /// enqueue handle and never on a re-fetched seat.
    pub(crate) fn await_worker_n(
        &self,
        worker: &Worker,
        remote: &UpdaterRemote,
        mark: Mark,
        n: usize,
        epoch0: u64,
    ) -> Result<(), FleetError> {
        let deadline = Instant::now() + self.rollout_deadline;
        remote
            .wait_until(deadline, |p| {
                if worker.has_failed() {
                    return Some(Err(FleetError::WorkerDown { worker: worker.id }));
                }
                if worker.epoch() != epoch0 {
                    return Some(Err(FleetError::WorkerRestarted { worker: worker.id }));
                }
                (p.resolved_since(mark) >= n && p.pending == 0).then_some(Ok(()))
            })
            .unwrap_or(Err(FleetError::RolloutStalled { worker: worker.id }))
    }

    /// Stops every worker and returns the per-worker served-request counts
    /// (in worker order).
    ///
    /// # Errors
    ///
    /// Returns the first worker error (guest trap, crash, or panic),
    /// after all workers have been joined. A worker the supervisor gave
    /// up on reports [`WorkerFailure::GaveUp`].
    pub fn shutdown(mut self) -> Result<Vec<i64>, FleetError> {
        // Stop the supervisor before anything else: a restart racing the
        // teardown would resurrect a worker we are about to join.
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
        for w in &self.state.workers {
            let inbox = self.state.spec.ingress.inbox(w.id);
            w.seat.lock().expect("poisoned").stop(inbox);
        }
        let mut served = Vec::with_capacity(self.state.workers.len());
        let mut first_err: Option<FleetError> = None;
        for w in &self.state.workers {
            let join = w.seat.lock().expect("poisoned").join.take();
            match join {
                Some(join) => match join.join() {
                    Ok(Ok(n)) => served.push(n),
                    res => {
                        let cause =
                            classify_join(res).unwrap_or(WorkerFailure::Guest(String::new()));
                        first_err.get_or_insert(FleetError::Worker {
                            worker: w.id,
                            cause,
                        });
                        served.push(0);
                    }
                },
                // The supervisor reaped this incarnation and gave up (or
                // its last respawn failed): nothing to join, the failure
                // is the report.
                None => {
                    first_err.get_or_insert(FleetError::Worker {
                        worker: w.id,
                        cause: WorkerFailure::GaveUp {
                            restarts: w.restarts.load(Ordering::SeqCst),
                        },
                    });
                    served.push(0);
                }
            }
        }
        match first_err {
            None => Ok(served),
            Some(e) => Err(e),
        }
    }
}

/// Everything one worker thread needs, bundled (the spawn site builds it
/// from the [`RespawnSpec`]).
struct WorkerCtx {
    server: ServerConfig,
    src: String,
    version: String,
    fs: SimFs,
    fault: FaultPlan,
    vm_profile: bool,
    /// The inbox `server` pulls from — where the idle worker blocks.
    inbox: Arc<Inbox>,
    /// Persisted crash-durable state to replay at boot (the respawn
    /// path); `None` boots fresh.
    restore: Option<String>,
    heartbeat: Arc<AtomicU64>,
    state_slot: Arc<Mutex<Option<String>>>,
}

/// Spawns (or respawns) worker `id` from the fleet's respawn spec,
/// blocking until the worker reports its boot outcome.
fn spawn_worker(
    spec: &RespawnSpec,
    id: usize,
    fault: FaultPlan,
    restore: Option<String>,
    heartbeat: Arc<AtomicU64>,
    state_slot: Arc<Mutex<Option<String>>>,
) -> Result<Seat, WorkerFailure> {
    let (ctrl_tx, ctrl_rx) = mpsc::channel();
    let (boot_tx, boot_rx) = mpsc::channel();
    let ctx = WorkerCtx {
        server: spec.servers[id].clone(),
        src: spec.src.clone(),
        version: spec.version.clone(),
        fs: spec.fs[id].clone(),
        fault,
        vm_profile: spec.vm_profile,
        inbox: Arc::clone(spec.ingress.inbox(id)),
        restore,
        heartbeat: Arc::clone(&heartbeat),
        state_slot: Arc::clone(&state_slot),
    };
    let join = thread::Builder::new()
        .name(format!("flashed-worker-{id}"))
        .spawn(move || worker_main(ctx, ctrl_rx, boot_tx))
        .map_err(|e| WorkerFailure::Spawn(e.to_string()))?;
    match boot_rx.recv() {
        Ok(Ok(info)) => Ok(Seat {
            ctrl: ctrl_tx,
            links: WorkerLinks {
                remote: info.remote,
                fault: info.fault,
                heartbeat,
                state: state_slot,
                replayed: info.replayed,
                replayed_to: info.replayed_to,
            },
            join: Some(join),
        }),
        Ok(Err(e)) => {
            let _ = join.join();
            Err(WorkerFailure::Boot(e))
        }
        Err(_) => {
            let _ = join.join();
            Err(WorkerFailure::BootChannel)
        }
    }
}

/// Starts the supervisor thread sweeping `state` for dead workers.
fn start_supervisor(state: Arc<FleetState>, cfg: SupervisorConfig) -> SupervisorHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_t = Arc::clone(&stop);
    let join = thread::Builder::new()
        .name("flashed-supervisor".to_string())
        .spawn(move || supervisor_main(&state, cfg, &stop_t))
        .expect("supervisor thread spawns");
    SupervisorHandle { stop, join }
}

/// The supervisor loop: detect a dead worker (its thread finished without
/// being asked to), fail its traffic over at the edge, withdraw its
/// in-flight patches, and — within the restart budget, after a capped
/// exponential backoff — reboot it from its persisted crash-durable
/// state, restore its vnode ownership, and log a [`RestartReport`].
fn supervisor_main(state: &FleetState, cfg: SupervisorConfig, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for w in &state.workers {
            if w.has_failed() {
                continue;
            }
            let dead = {
                let seat = w.seat.lock().expect("poisoned");
                seat.join.as_ref().is_none_or(JoinHandle::is_finished)
            };
            if !dead {
                continue;
            }
            let detect_began = Instant::now();
            w.up.store(false, Ordering::SeqCst);
            if let Some(t) = &state.spec.telemetry {
                t.set_worker_up(w.id, false);
            }
            // Fail the dead worker's traffic over: its vnodes route to
            // ring successors, its queued requests drain back through the
            // router. Idempotent — a retry sweep won't double-count.
            let rerouted = state.spec.ingress.edge().map_or(0, |e| e.mark_down(w.id));
            // Reap the dead incarnation; `join` already `None` means a
            // previous respawn attempt failed and this is a retry.
            let (failure, old_links) = {
                let mut seat = w.seat.lock().expect("poisoned");
                let links = seat.links.clone();
                let failure = match seat.join.take() {
                    Some(join) => classify_join(join.join())
                        .unwrap_or_else(|| WorkerFailure::Guest("worker exited".to_string())),
                    None => WorkerFailure::Guest("previous respawn failed".to_string()),
                };
                (failure, links)
            };
            // The dead worker's remote Arcs outlive its thread: withdraw
            // whatever was still enqueued so those lifecycles close
            // (`Aborted`) instead of dangling `Enqueued` in the journal.
            old_links
                .remote
                .cancel_pending("worker crashed; withdrawn for re-drive");
            let attempts = w.restarts.load(Ordering::SeqCst);
            if attempts >= cfg.max_restarts {
                // Budget exhausted: degrade gracefully. The worker stays
                // down, the edge keeps routing around it, shutdown
                // reports `GaveUp`.
                w.failed.store(true, Ordering::SeqCst);
                old_links.remote.wake();
                continue;
            }
            let detect = detect_began.elapsed();
            let shift = u32::try_from(attempts.min(20)).expect("bounded");
            let backoff = cfg
                .backoff_base
                .saturating_mul(1u32 << shift)
                .min(cfg.backoff_cap);
            thread::sleep(backoff);
            let blob = old_links.state.lock().expect("poisoned").clone();
            let spawn_began = Instant::now();
            // Respawn with crash faults disarmed: they are one-shot by
            // design (a crash loop would just burn the restart budget).
            match spawn_worker(
                &state.spec,
                w.id,
                FaultPlan::none(),
                blob,
                Arc::clone(&old_links.heartbeat),
                Arc::clone(&old_links.state),
            ) {
                Ok(seat) => {
                    let spawn_dur = spawn_began.elapsed();
                    let replay = seat.links.replayed;
                    let replayed_to = seat.links.replayed_to.clone();
                    let fresh = seat.links.remote.clone();
                    *w.seat.lock().expect("poisoned") = seat;
                    w.restarts.fetch_add(1, Ordering::SeqCst);
                    w.up.store(true, Ordering::SeqCst);
                    if let Some(t) = &state.spec.telemetry {
                        t.set_worker_up(w.id, true);
                        t.record_worker_restart();
                    }
                    if let Some(e) = state.spec.ingress.edge() {
                        e.mark_up(w.id);
                    }
                    // Second withdrawal sweep: an op enqueued onto the
                    // dead incarnation *during* the reboot window (after
                    // the first cancel, before the seat swap) would
                    // dangle `Enqueued` forever; close it now that no new
                    // enqueue can reach the old seat.
                    old_links
                        .remote
                        .cancel_pending("worker crashed; withdrawn for re-drive");
                    state
                        .restart_log
                        .lock()
                        .expect("poisoned")
                        .push(RestartReport {
                            worker: w.id,
                            failure: failure.to_string(),
                            detect,
                            reboot: spawn_dur.saturating_sub(replay),
                            replay,
                            replayed_to,
                            rerouted,
                            total: detect_began.elapsed(),
                        });
                    // Epoch bump last, then the wake: an await that sees
                    // the new epoch must also see the new seat, the edge
                    // routing to it again and the restart report. Both
                    // incarnations are woken — a coordinator that fetched
                    // its handle between the seat swap and this bump is
                    // parked on the fresh one.
                    w.epoch.fetch_add(1, Ordering::SeqCst);
                    old_links.remote.wake();
                    fresh.wake();
                }
                Err(_) => {
                    // Seat stays reaped (`join` is `None`); the next sweep
                    // retries until the budget runs out.
                    w.restarts.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        thread::sleep(cfg.poll);
    }
}

/// Rebuilds a respawned worker to its pre-crash version: re-applies the
/// persisted net patch chain (strict — a replay failure is a boot
/// failure), then installs the persisted snapshot ring and re-queues
/// whatever ops the crash interrupted (for a crashed rollback chain,
/// its remaining hops). Returns the version the replay reached.
fn restore_worker(server: &mut Server, blob: &str, boot_version: &str) -> Result<String, String> {
    let (chain, inner) = dsu_core::decode_worker_state(blob)?;
    server.updater.strict = true;
    let mut version = boot_version.to_string();
    for patch in chain {
        let to = patch.to_version.clone();
        server.queue_patch(patch);
        server
            .apply_pending_now()
            .map_err(|e| format!("replay failed applying to {to}: {e}"))?;
        version = to;
    }
    server
        .load_updater_state(&inner)
        .map_err(|e| format!("replay failed installing state: {e}"))?;
    server.updater.strict = false;
    Ok(version)
}

/// How far a worker's apply history has moved — the trigger for
/// re-persisting its crash-durable state.
fn history_mark(server: &Server) -> (usize, usize) {
    (
        server.updater.applied_count(),
        server.updater.failure_count(),
    )
}

/// Persists the worker's crash-durable state (net patch chain + snapshot
/// ring + pending ops) into the supervisor-visible slot.
fn persist_state(server: &Server, slot: &Mutex<Option<String>>) {
    *slot.lock().expect("poisoned") = Some(server.updater.save_worker_state());
}

/// One worker: boots its own server against the shared state, then serves
/// until told to shut down, applying patches fed through its remote at
/// update points (busy) or quiescent boundaries (idle). A respawned
/// worker first replays its persisted state back to its pre-crash
/// version. Each loop iteration bumps the heartbeat, re-persists state
/// when the apply history moved, and passes the injectable crash seams.
fn worker_main(
    ctx: WorkerCtx,
    ctrl: mpsc::Receiver<Ctrl>,
    boot_tx: mpsc::Sender<Result<BootInfo, String>>,
) -> Result<i64, String> {
    let mut server = match Server::start(&ctx.server, &ctx.src, &ctx.version, ctx.fs) {
        Ok(s) => s,
        Err(e) => {
            let _ = boot_tx.send(Err(e.to_string()));
            return Err(e.to_string());
        }
    };
    // Fleet workers keep serving their old version when a patch is
    // rejected; the coordinator reads the failure out of the shared log.
    server.updater.strict = false;
    if ctx.vm_profile {
        server.set_vm_profiling(true);
    }
    server.inject_fault(ctx.fault);
    let fault = server.fault_handle();
    // The mid-transform crash point fires from inside the apply pipeline
    // itself, via the core's thread-local phase probe — bindings already
    // flipped, state transformation interrupted.
    {
        let fault = Arc::clone(&fault);
        dsu_core::set_phase_probe(Some(Box::new(move |phase| {
            if phase == "transform" {
                crash_if_armed(&fault, CrashPoint::MidTransform);
            }
        })));
    }
    let replay_began = Instant::now();
    let (replayed, replayed_to) = match &ctx.restore {
        Some(blob) => match restore_worker(&mut server, blob, &ctx.version) {
            Ok(v) => (replay_began.elapsed(), v),
            Err(e) => {
                let _ = boot_tx.send(Err(e.clone()));
                return Err(e);
            }
        },
        None => (Duration::ZERO, ctx.version.clone()),
    };
    // "Mid-soak" means an update landed in *this* incarnation — replay
    // hops don't count, or a restart after a crash would re-crash.
    let soak_base = server.updater.applied_count();
    let info = BootInfo {
        remote: server.remote(),
        fault: Arc::clone(&fault),
        replayed,
        replayed_to,
    };
    if boot_tx.send(Ok(info)).is_err() {
        return Ok(0); // coordinator went away before boot finished
    }
    persist_state(&server, &ctx.state_slot);
    let mut persisted = history_mark(&server);

    // Lands the collapsed-stack VM profile (when armed) in the worker's
    // telemetry slot on the way out, success or failure.
    let finish = |server: &Server, r: Result<i64, String>| {
        server.publish_vm_profile();
        r
    };
    let mut total = 0i64;
    let mut seen_pokes = 0;
    loop {
        ctx.heartbeat.fetch_add(1, Ordering::Relaxed);
        // Quiescent boundary: re-persist crash-durable state whenever the
        // apply history moved since the last persist.
        let mark @ (applied, _) = history_mark(&server);
        if mark != persisted {
            persist_state(&server, &ctx.state_slot);
            persisted = mark;
        }
        if applied > soak_base {
            crash_if_armed(&fault, CrashPoint::MidSoak);
        }
        crash_if_armed(&fault, CrashPoint::Serving);
        match ctrl.try_recv() {
            Ok(Ctrl::Shutdown) | Err(TryRecvError::Disconnected) => {
                return finish(&server, Ok(total))
            }
            Err(TryRecvError::Empty) => {}
        }
        // A patch that arrived while the queue was empty never meets an
        // update point (the guest exits its serve loop without passing
        // one); apply it here, at the quiescent boundary. Non-strict, so
        // rejections are recorded, not returned.
        if server.updater.pending_count() > 0 {
            if let Err(e) = server.apply_pending_now() {
                return finish(&server, Err(e.to_string()));
            }
        }
        match server.serve() {
            // Idle: block until a request, a queued patch or shutdown
            // pokes the inbox.
            Ok(0) => seen_pokes = ctx.inbox.wait(seen_pokes, IDLE_WAIT),
            Ok(n) => total += n,
            Err(e) => return finish(&server, Err(e.to_string())),
        }
    }
}
