//! The FlashEd serving harness: process, host environment, driver.
//!
//! A [`Server`] boots one FlashEd version inside a [`vm::Process`]
//! (static or updateable link mode), wires the guest's externs to the
//! simulated filesystem and its request [`Inbox`], and drives the guest
//! `serve` loop through a [`dsu_core::Updater`] so queued dynamic patches
//! apply at the guest's update points — mid-traffic, exactly like the
//! paper's live-update experiments.
//!
//! Several servers can share one completion log and clock through a
//! [`ServerShared`], and one request queue by being handed the same
//! inbox: that is the substrate of the multi-worker fleet in
//! [`crate::fleet`], where each worker thread boots its own `Server`.
//!
//! Two serve modes are supported (see [`ServeMode`]):
//!
//! * **Blocking** — the guest pulls one request at a time and every
//!   `fs_read` stalls the loop for the device latency (thread-per-worker).
//! * **Event loop** (AMPED, after the Flash server the paper updated) —
//!   the host admits a window of requests, submits their reads to an
//!   [`AsyncFs`] helper pool, parks each request on its read ticket, and
//!   hands requests to the guest only once their content sits in the
//!   buffer cache. The guest's `fs_read` then completes from cache without
//!   sleeping, so one worker overlaps many device waits. A dynamic update
//!   does not wait for parked reads: a parked request is host data (text,
//!   an id, a ticket) that crosses versions the way a request still in the
//!   inbox does, and is served by whichever version is bound when its read
//!   comes back. The updater's drain hook carries injected faults only, so
//!   the report's (and journal's) `drain` phase reads zero without one.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsu_core::{Patch, PauseLog, RunError, Updater};
use dsu_obs::trace::{Span, SpanKind};
use tal::{FnSig, Ty};
use vm::{LinkMode, Process, Value};

use crate::edge::Inbox;
use crate::fault::FaultPlan;
use crate::fs::{AsyncFs, ReadTicket, SimFs};
use crate::telemetry::ServerTelemetry;

/// How a server drives its guest `serve` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Thread-per-request-at-a-time: the guest's `fs_read` sleeps the
    /// device latency inline. Concurrency comes only from fleet workers.
    Blocking,
    /// AMPED: the host event loop multiplexes a window of in-flight
    /// requests per worker; helper threads absorb device waits and warm
    /// the buffer cache. Guest-visible behaviour is identical.
    EventLoop(EventLoopConfig),
}

/// Tuning for [`ServeMode::EventLoop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLoopConfig {
    /// Helper threads absorbing device waits (the disk queue depth).
    pub helpers: usize,
    /// Buffer-cache capacity, in entries.
    pub cache_entries: usize,
    /// Maximum requests parked on in-flight reads at once.
    pub max_in_flight: usize,
}

impl Default for EventLoopConfig {
    fn default() -> EventLoopConfig {
        EventLoopConfig {
            helpers: 8,
            cache_entries: 256,
            max_in_flight: 16,
        }
    }
}

/// One completed response with its completion time (relative to server
/// start) — the raw material of the throughput-timeline figure.
#[derive(Debug, Clone)]
pub struct Completion {
    /// When the response was sent, relative to [`Server::start`].
    pub at: Duration,
    /// Per-request service time: from the guest pulling the request off
    /// the queue to it sending the response (the latency a client of this
    /// single-threaded server observes, queueing excluded). Time the guest
    /// spent suspended in a dynamic update between pull and response is
    /// *excluded* — it is reported separately as [`Completion::update_pause`].
    pub service: Duration,
    /// Update-pause time that fell inside this request (between its pull
    /// and its response). Zero for the overwhelming majority of requests;
    /// non-zero exactly for requests in flight across an update point.
    pub update_pause: Duration,
    /// Time the request waited in its inbox before a worker pulled it,
    /// measured from the admission stamp (see [`crate::Routed::accepted_at`]).
    /// End-to-end sojourn — what a client observes — is
    /// `queue_wait + service`.
    pub queue_wait: Duration,
    /// Whether this response was matched to a queue pull. A response
    /// without a matching pull (guest answered without calling
    /// `next_request`) carries no meaningful service time and is excluded
    /// from [`latency_stats`].
    pub pulled: bool,
    /// The pull this response was matched to (ids are per-server, starting
    /// at 1 in pull order). `None` exactly when `pulled` is false. Pulls
    /// and responses are matched FIFO, so a guest that pulls several
    /// requests before answering still gets each response timed from its
    /// own pull.
    pub request_id: Option<u64>,
    /// The raw response text.
    pub response: String,
}

/// Service-time percentiles over a set of completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median service time.
    pub p50: Duration,
    /// 99th-percentile service time.
    pub p99: Duration,
    /// Worst observed service time.
    pub max: Duration,
}

/// Computes service-time percentiles (nearest-rank) over the completions
/// that were matched to a queue pull (see [`Completion::pulled`]).
///
/// # Panics
/// Panics when no completion has a measured service time.
pub fn latency_stats(completions: &[Completion]) -> LatencyStats {
    let mut times: Vec<Duration> = completions
        .iter()
        .filter(|c| c.pulled)
        .map(|c| c.service)
        .collect();
    assert!(!times.is_empty(), "no completions");
    times.sort();
    let rank = |p: f64| -> Duration {
        let idx = ((p * times.len() as f64).ceil() as usize).clamp(1, times.len());
        times[idx - 1]
    };
    LatencyStats {
        p50: rank(0.50),
        p99: rank(0.99),
        max: *times.last().expect("non-empty"),
    }
}

/// Boot failures.
#[derive(Debug)]
pub enum BootError {
    /// The version source failed to compile.
    Compile(popcorn::CompileError),
    /// The compiled module failed to load.
    Link(vm::LinkError),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::Compile(e) => write!(f, "boot: {e}"),
            BootError::Link(e) => write!(f, "boot: {e}"),
        }
    }
}

impl std::error::Error for BootError {}

/// The host-side state one or more servers report into: a completion
/// log, a guest log, and a common time epoch.
///
/// Cloning shares the underlying state — the fleet hands every worker a
/// clone. Completion timestamps from every sharing server are on the
/// same clock (`started`), so merged completion streams order correctly.
#[derive(Clone)]
pub struct ServerShared {
    completions: Arc<Mutex<Vec<Completion>>>,
    logs: Arc<Mutex<Vec<String>>>,
    started: Instant,
}

impl Default for ServerShared {
    fn default() -> ServerShared {
        ServerShared::new()
    }
}

impl fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerShared")
            .field(
                "completions",
                &self.completions.lock().expect("poisoned").len(),
            )
            .finish()
    }
}

impl ServerShared {
    /// Creates an empty shared state; `started` is now.
    pub fn new() -> ServerShared {
        ServerShared {
            completions: Arc::new(Mutex::new(Vec::new())),
            logs: Arc::new(Mutex::new(Vec::new())),
            started: Instant::now(),
        }
    }

    /// Completed responses so far (in completion order).
    pub fn completions(&self) -> Vec<Completion> {
        self.completions.lock().expect("poisoned").clone()
    }

    /// Number of completed responses so far — constant-time, for pollers
    /// ([`Server::completions`] clones every response).
    pub fn completions_len(&self) -> usize {
        self.completions.lock().expect("poisoned").len()
    }

    /// Drains and returns completed responses.
    pub fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("poisoned"))
    }

    /// Guest log lines (v5's request log).
    pub fn logs(&self) -> Vec<String> {
        self.logs.lock().expect("poisoned").clone()
    }

    /// Time since this shared state was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Appends a host-synthesized completion (the edge's 503 shed
    /// responses). Recorded with `pulled: false` so latency stats skip it
    /// while drain accounting still counts it.
    pub(crate) fn push_completion(&self, completion: Completion) {
        self.completions.lock().expect("poisoned").push(completion);
    }
}

/// A request admitted by the event loop, either parked on an in-flight
/// read or ready for the guest.
#[derive(Debug, Clone)]
struct Admitted {
    /// Pull id (FIFO-matched to the response; see [`Completion::request_id`]).
    id: u64,
    /// The raw request text, exactly as queued.
    request: String,
    /// When the host pulled it off the inbox — service time is
    /// measured from here, so time parked on a read counts as service.
    pulled_at: Instant,
    /// When the prefetch read was submitted to a helper (event loop only).
    submitted: Option<Instant>,
    /// When the read completed and the request left the parked table.
    reaped: Option<Instant>,
    /// Time the request sat in the inbox before admission.
    queue_wait: Duration,
}

/// One outstanding pull awaiting its response, with the lifecycle
/// instants the request span is cut from. FIFO-matched to responses.
#[derive(Debug, Clone)]
struct PullRec {
    id: u64,
    /// Pull instant — service time and the request span start here.
    t0: Instant,
    /// Read submission / completion instants (the `park` phase), when the
    /// request went through the event loop and needed a device read.
    submitted: Option<Instant>,
    reaped: Option<Instant>,
    /// When the guest picked the request up (`next_request` returning it).
    guest_at: Instant,
    /// Time the request sat in the inbox before its pull.
    queue_wait: Duration,
}

/// Host-side state of one event-loop server: the async filesystem, the
/// parked-request table, and the ready queue the guest drains.
struct EventState {
    afs: AsyncFs,
    cfg: EventLoopConfig,
    /// Requests parked on an in-flight read, keyed by its ticket.
    parked: Mutex<HashMap<ReadTicket, Admitted>>,
    /// Requests whose read (if any) completed, in admission order.
    ready: Mutex<VecDeque<Admitted>>,
}

impl EventState {
    /// Moves every completed read's request from `parked` to `ready`.
    fn reap(&self) {
        for c in self.afs.poll() {
            if let Some(mut entry) = self.parked.lock().expect("poisoned").remove(&c.ticket) {
                entry.reaped = Some(Instant::now());
                self.ready.lock().expect("poisoned").push_back(entry);
            }
        }
    }

    /// True when no admitted request is waiting anywhere in the loop.
    fn is_idle(&self) -> bool {
        self.parked.lock().expect("poisoned").is_empty()
            && self.ready.lock().expect("poisoned").is_empty()
    }
}

/// The path the guest's handler will read for `req`, if any: the request
/// target when it exists, else its query-stripped form (v5 strips query
/// strings before the lookup). `None` means no device read will happen
/// (bad request, or a miss the guest answers 404 from `fs_exists` alone).
fn prefetch_path(req: &str, fs: &SimFs) -> Option<String> {
    let mut parts = req.split(' ');
    let target = parts.nth(1)?;
    if target.is_empty() {
        return None;
    }
    if fs.exists(target) {
        return Some(target.to_string());
    }
    let stripped = target.split('?').next().unwrap_or(target);
    if stripped != target && fs.exists(stripped) {
        return Some(stripped.to_string());
    }
    None
}

/// Emits one sampled request's span tree: a root `Request` span covering
/// pull → response, with `RequestPhase` children for the AMPED lifecycle
/// — `admit` (instantaneous, at the pull), `park` (read submitted →
/// reaped, when the request waited on a device read), `guest-exec`
/// (guest pickup → response) and `respond` (instantaneous, at the end).
/// Children are clamped into the root, so span invariants hold even when
/// clocks are read across lock boundaries.
fn record_request_spans(tracer: &dsu_obs::Tracer, worker: Option<usize>, rec: &PullRec) {
    let trace = tracer.next_trace_id();
    let root_id = tracer.next_span_id();
    let start = tracer.since_epoch(rec.t0);
    let end = tracer.now().max(start);
    let child = |name: &'static str, s: Duration, e: Duration| Span {
        trace,
        id: tracer.next_span_id(),
        parent: Some(root_id),
        kind: SpanKind::RequestPhase,
        name,
        worker,
        start: s,
        dur: e.saturating_sub(s),
        update: None,
        request: Some(rec.id),
        detail: None,
    };
    let mut spans = vec![Span {
        trace,
        id: root_id,
        parent: None,
        kind: SpanKind::Request,
        name: "request",
        worker,
        start,
        dur: end.saturating_sub(start),
        update: None,
        request: Some(rec.id),
        detail: None,
    }];
    spans.push(child("admit", start, start));
    if let (Some(sub), Some(reap)) = (rec.submitted, rec.reaped) {
        let s = tracer.since_epoch(sub).clamp(start, end);
        let e = tracer.since_epoch(reap).clamp(s, end);
        spans.push(child("park", s, e));
    }
    let g = tracer.since_epoch(rec.guest_at).clamp(start, end);
    spans.push(child("guest-exec", g, end));
    spans.push(child("respond", end, end));
    tracer.record_many(spans);
}

/// A running FlashEd server.
pub struct Server {
    proc: Process,
    /// The dynamic-update driver; queue patches through [`Server::queue_patch`].
    pub updater: Updater,
    shared: ServerShared,
    telemetry: Option<ServerTelemetry>,
    /// Pause-log entries already observed into the pause histogram.
    pauses_seen: usize,
    /// Event-loop state; `None` in [`ServeMode::Blocking`].
    event: Option<Arc<EventState>>,
    /// Pull-id source shared with the `next_request` host closure.
    pull_ids: Arc<AtomicU64>,
    /// Pulled requests not yet answered, oldest first.
    outstanding: Arc<Mutex<VecDeque<PullRec>>>,
    /// Answers the oldest outstanding pull (the `send_response` host).
    respond: Arc<dyn Fn(String) + Send + Sync>,
    /// The one queue this server pulls requests from: its own, a
    /// fleet-wide shared one, or the inbox an [`Edge`](crate::Edge)
    /// routes to it.
    inbox: Arc<Inbox>,
    /// The filesystem handle the guest serves from (shared with the host
    /// closures; content is shared with every clone of the same disk).
    fs: Arc<SimFs>,
    /// Injected misbehaviour, shared with the updater's drain hook.
    fault: Arc<Mutex<FaultPlan>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("mode", &self.proc.mode())
            .field("shared", &self.shared)
            .finish()
    }
}

/// What a [`Server`] boots with, built fluently:
///
/// ```
/// use flashed::{EventLoopConfig, ServeMode, ServerConfig};
/// let cfg = ServerConfig::new().serve_mode(ServeMode::EventLoop(EventLoopConfig::default()));
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    link_mode: LinkMode,
    serve_mode: ServeMode,
    shared: Option<ServerShared>,
    telemetry: Option<ServerTelemetry>,
    inbox: Option<Arc<Inbox>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            link_mode: LinkMode::Updateable,
            serve_mode: ServeMode::Blocking,
            shared: None,
            telemetry: None,
            inbox: None,
        }
    }
}

impl ServerConfig {
    /// An updateable, blocking, untelemetered server with a private
    /// completion log and its own unbounded inbox.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Sets the link mode.
    pub fn link_mode(mut self, mode: LinkMode) -> ServerConfig {
        self.link_mode = mode;
        self
    }

    /// Sets the serve mode. [`ServeMode::EventLoop`] boots the AMPED
    /// machinery — helper pool, buffer cache, parked and ready queues —
    /// around the same guest. Updates pause the guest, not the reads in
    /// flight.
    pub fn serve_mode(mut self, mode: ServeMode) -> ServerConfig {
        self.serve_mode = mode;
        self
    }

    /// Reports into caller-provided shared state — several servers handed
    /// clones of the same [`ServerShared`] append to one completion log
    /// on one clock.
    pub fn shared(mut self, shared: ServerShared) -> ServerConfig {
        self.shared = Some(shared);
        self
    }

    /// Attaches telemetry: the journal is attached to the updater (every
    /// patch lifecycle is recorded), and the request-path host calls
    /// record pull/response counters, queue depth and service-time
    /// observations as they happen.
    pub fn telemetry(mut self, telemetry: ServerTelemetry) -> ServerConfig {
        self.telemetry = Some(telemetry);
        self
    }

    /// Pulls requests from `inbox` — one an [`Edge`](crate::Edge) routes
    /// into, or one shared with other servers — instead of a private one.
    /// The guest's `next_request` (and the event loop's admission path)
    /// drains it and nothing else.
    pub fn inbox(mut self, inbox: Arc<Inbox>) -> ServerConfig {
        self.inbox = Some(inbox);
        self
    }
}

impl Server {
    /// Compiles `src` (a FlashEd version) and boots it over `fs` as `cfg`
    /// describes.
    ///
    /// # Errors
    ///
    /// Returns [`BootError`] when the source does not compile or link.
    pub fn start(
        cfg: &ServerConfig,
        src: &str,
        version: &str,
        fs: SimFs,
    ) -> Result<Server, BootError> {
        let shared = cfg.shared.clone().unwrap_or_default();
        let telemetry = cfg.telemetry.clone();
        let inbox = cfg
            .inbox
            .clone()
            .unwrap_or_else(|| Arc::new(Inbox::unbounded()));
        let module = popcorn::compile(src, "flashed", version, &popcorn::Interface::new())
            .map_err(BootError::Compile)?;
        let mut proc = Process::new(cfg.link_mode);
        // An idle host blocks on the inbox; a patch queued from another
        // thread arms the update signal, which must wake it.
        {
            let inbox = Arc::clone(&inbox);
            proc.set_update_wake(Box::new(move || inbox.poke()));
        }
        let mut updater = Updater::new();
        if let Some(tel) = &telemetry {
            updater.set_journal(tel.journal().clone(), tel.worker());
            if let Some(tr) = tel.tracer() {
                updater.set_tracer(tr.clone());
            }
        }

        let fs = Arc::new(fs);
        let started = shared.started;
        let event = match cfg.serve_mode {
            ServeMode::Blocking => None,
            ServeMode::EventLoop(cfg) => Some(Arc::new(EventState {
                afs: AsyncFs::new((*fs).clone(), cfg.helpers, cfg.cache_entries),
                cfg,
                parked: Mutex::new(HashMap::new()),
                ready: Mutex::new(VecDeque::new()),
            })),
        };
        // Fault seam, run and timed at the start of every pause: it sleeps
        // any injected pause faults, so an injected stall is charged to
        // the report's and journal's `drain` phase. It does not wait for
        // reads parked in the event loop — those are host data and stay in
        // flight across the update (DESIGN.md, "The pause stops the guest,
        // not the disk").
        let fault = Arc::new(Mutex::new(FaultPlan::default()));
        {
            let fault = Arc::clone(&fault);
            updater.set_drain_hook(Box::new(move || {
                let plan = *fault.lock().expect("poisoned");
                plan.sleep();
                // The mid-pause crash point lives here: the pause has
                // begun, queued ops are still Enqueued, and the thread
                // dies exactly where a real quiescence-stall watchdog
                // kill would land.
                crate::fault::crash_if_armed(&fault, crate::fault::CrashPoint::MidPause);
            }));
        }

        {
            let fs = Arc::clone(&fs);
            let event = event.clone();
            let tel = telemetry.clone();
            // A read that comes back empty for a file that *exists* is a
            // device error (e.g. an injected `SimFs` read failure); the
            // guest is served an empty body and the error is counted
            // immediately so a mid-rollout health gate sees it.
            let read_or_count = move |fs: &SimFs, path: &str| -> String {
                match fs.read(path) {
                    Some(content) => content,
                    None => {
                        if fs.exists(path) {
                            if let Some(tel) = &tel {
                                tel.record_read_error();
                            }
                        }
                        String::new()
                    }
                }
            };
            proc.register_host(
                "fs_read",
                FnSig::new(vec![Ty::Str], Ty::Str),
                Box::new(move |args| {
                    let path = args[0].as_str();
                    match &event {
                        // Event loop: the admission path prefetched this
                        // file into the buffer cache, so the common case
                        // completes without sleeping. A miss (request
                        // never admitted through the loop) falls back to
                        // the blocking read and warms the cache.
                        Some(ev) => match ev.afs.cache().peek(&path) {
                            Some(content) => Ok(Value::str(&content)),
                            None => {
                                let content = read_or_count(&fs, &path);
                                ev.afs.cache().insert(&path, content.clone());
                                Ok(Value::str(&content))
                            }
                        },
                        None => Ok(Value::str(read_or_count(&fs, &path))),
                    }
                }),
            );
        }
        {
            let fs = Arc::clone(&fs);
            proc.register_host(
                "fs_exists",
                FnSig::new(vec![Ty::Str], Ty::Bool),
                Box::new(move |args| Ok(Value::Bool(fs.exists(&args[0].as_str())))),
            );
        }
        // Outstanding pulls in pull order. `send_response` pops the
        // front, matching responses to pulls FIFO, so several
        // concurrently pulled requests each get timed from their own
        // pull, and a response that was never preceded by a pull is
        // detectable rather than silently timed from some stale (or
        // boot-time) instant.
        let outstanding: Arc<Mutex<VecDeque<PullRec>>> = Arc::new(Mutex::new(VecDeque::new()));
        let pull_ids = Arc::new(AtomicU64::new(0));
        {
            let outstanding = Arc::clone(&outstanding);
            let pull_ids = Arc::clone(&pull_ids);
            let event = event.clone();
            let tel = telemetry.clone();
            let inbox = Arc::clone(&inbox);
            proc.register_host(
                "next_request",
                FnSig::new(vec![], Ty::Str),
                Box::new(move |_| {
                    if let Some(ev) = &event {
                        // Event loop: the guest drains the ready queue;
                        // the pull (id, instant) was assigned at host
                        // admission so time parked on the read counts.
                        let next = ev.ready.lock().expect("poisoned").pop_front();
                        return match next {
                            Some(r) => {
                                outstanding.lock().expect("poisoned").push_back(PullRec {
                                    id: r.id,
                                    t0: r.pulled_at,
                                    submitted: r.submitted,
                                    reaped: r.reaped,
                                    guest_at: Instant::now(),
                                    queue_wait: r.queue_wait,
                                });
                                Ok(Value::str(&r.request))
                            }
                            // Batch drained: back to the host loop.
                            None => Ok(Value::str("")),
                        };
                    }
                    match inbox.pop() {
                        Some(routed) => {
                            if let Some(tel) = &tel {
                                tel.record_pull(inbox.depth());
                            }
                            let id = pull_ids.fetch_add(1, Ordering::Relaxed) + 1;
                            let now = Instant::now();
                            outstanding.lock().expect("poisoned").push_back(PullRec {
                                id,
                                t0: now,
                                submitted: None,
                                reaped: None,
                                guest_at: now,
                                queue_wait: now.saturating_duration_since(routed.accepted_at),
                            });
                            Ok(Value::str(&routed.request))
                        }
                        None => Ok(Value::str("")),
                    }
                }),
            );
        }
        let respond: Arc<dyn Fn(String) + Send + Sync> = {
            let completions = Arc::clone(&shared.completions);
            let outstanding = Arc::clone(&outstanding);
            let pauses: PauseLog = updater.pause_log();
            let tel = telemetry.clone();
            Arc::new(move |response: String| {
                let rec = outstanding.lock().expect("poisoned").pop_front();
                let (service, update_pause, queue_wait, request_id) = match &rec {
                    Some(r) => {
                        let raw = r.t0.elapsed();
                        // Suspensions at update points between this
                        // request's pull and its response are update
                        // pause, not service time.
                        let pause = pauses.paused_since(r.t0);
                        (raw.saturating_sub(pause), pause, r.queue_wait, Some(r.id))
                    }
                    None => (Duration::ZERO, Duration::ZERO, Duration::ZERO, None),
                };
                let pulled = request_id.is_some();
                if let Some(tel) = &tel {
                    tel.record_response(pulled.then_some(service));
                    if pulled {
                        tel.record_sojourn(queue_wait + service);
                    }
                    if let (Some(r), Some(tracer)) = (&rec, tel.tracer()) {
                        if tracer.sample() {
                            record_request_spans(tracer, tel.worker(), r);
                        }
                    }
                }
                completions.lock().expect("poisoned").push(Completion {
                    at: started.elapsed(),
                    service,
                    update_pause,
                    queue_wait,
                    pulled,
                    request_id,
                    response,
                });
            })
        };
        {
            let respond = Arc::clone(&respond);
            proc.register_host(
                "send_response",
                FnSig::new(vec![Ty::Str], Ty::Unit),
                Box::new(move |args| {
                    respond(args[0].as_str().to_string());
                    Ok(Value::Unit)
                }),
            );
        }
        {
            let logs = Arc::clone(&shared.logs);
            proc.register_host(
                "log_line",
                FnSig::new(vec![Ty::Str], Ty::Unit),
                Box::new(move |args| {
                    logs.lock()
                        .expect("poisoned")
                        .push(args[0].as_str().to_string());
                    Ok(Value::Unit)
                }),
            );
        }

        proc.load_module(&module).map_err(BootError::Link)?;
        Ok(Server {
            proc,
            updater,
            shared,
            telemetry,
            pauses_seen: 0,
            event,
            pull_ids,
            outstanding,
            respond,
            inbox,
            fs,
            fault,
        })
    }

    /// Enqueues client requests straight into this server's inbox,
    /// stamped as admitted now. A request that does not fit a bounded
    /// inbox is dropped and counted in [`Inbox::sheds`].
    pub fn push_requests<I>(&self, requests: I)
    where
        I: IntoIterator<Item = String>,
    {
        self.inbox.admit_all(requests);
    }

    /// Queues a dynamic patch; it applies at the next guest update point
    /// (or immediately on the next [`Server::serve`] boundary).
    pub fn queue_patch(&mut self, patch: Patch) {
        self.updater.enqueue(&mut self.proc, patch);
    }

    /// Runs the guest `serve` loop until the inbox drains.
    /// Returns the number of requests the guest reports having served.
    ///
    /// In [`ServeMode::EventLoop`] this drives the AMPED loop: admit a
    /// window of requests, submit their reads, and hand the guest batches
    /// of ready requests as completions arrive — until queue, parked set
    /// and ready queue are all empty.
    ///
    /// A guest trap answers each pulled, unanswered request with HTTP 500
    /// and serving goes on (the trapped run's count is lost).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the guest traps with no request pulled, or
    /// a queued patch fails.
    pub fn serve(&mut self) -> Result<i64, RunError> {
        if let Some(ev) = self.event.clone() {
            return self.serve_event(&ev);
        }
        let v = self.run_guest();
        // Publish even when the run errored: the counters up to the trap
        // (and any pauses the failed update incurred) are still real.
        self.publish_telemetry();
        Ok(v?.as_int())
    }

    /// Runs the guest `serve` loop, again after each trap that
    /// [`Server::fail_pulled`] answered.
    fn run_guest(&mut self) -> Result<Value, RunError> {
        loop {
            match self.updater.run(&mut self.proc, "serve", vec![]) {
                Err(RunError::Trap(_)) if self.fail_pulled() => {}
                v => return v,
            }
        }
    }

    /// Answers every pulled, unanswered request with HTTP 500; `false` when
    /// there is none, so a trap outside any request is the caller's.
    fn fail_pulled(&self) -> bool {
        let n = self.outstanding.lock().expect("poisoned").len();
        for _ in 0..n {
            (self.respond)("HTTP/1.0 500 Internal Server Error\r\n\r\n".to_string());
        }
        n > 0
    }

    /// The AMPED host loop (see [`ServeMode::EventLoop`]).
    fn serve_event(&mut self, ev: &Arc<EventState>) -> Result<i64, RunError> {
        let mut served = 0i64;
        loop {
            self.admit(ev);
            ev.reap();
            let have_ready = !ev.ready.lock().expect("poisoned").is_empty();
            if have_ready {
                match self.run_guest() {
                    Ok(v) => served += v.as_int(),
                    Err(e) => {
                        self.publish_telemetry();
                        return Err(e);
                    }
                }
            }
            // Patches queued without an armed update signal apply here, at
            // the quiescent loop boundary (the guest's own update points
            // cover the mid-batch, signal-armed case). An `Err` can only
            // surface in strict mode; non-strict failures are recorded in
            // the updater's failure log and the loop keeps serving.
            if self.updater.pending_count() > 0 {
                if let Err(e) = self.updater.apply_pending(&mut self.proc) {
                    self.publish_telemetry();
                    return Err(RunError::Update(e));
                }
            }
            if ev.is_idle() && self.inbox.depth() == 0 {
                break;
            }
            if !have_ready {
                // Nothing ready yet: wait briefly for helper completions.
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        self.publish_telemetry();
        Ok(served)
    }

    /// Pulls requests off the inbox into the event loop until the
    /// in-flight window is full or the inbox is empty. Requests needing a
    /// device read are parked on their ticket; the rest go straight to
    /// `ready`.
    fn admit(&mut self, ev: &Arc<EventState>) {
        loop {
            if ev.parked.lock().expect("poisoned").len() >= ev.cfg.max_in_flight {
                return;
            }
            let Some(routed) = self.inbox.pop() else {
                return;
            };
            if let Some(tel) = &self.telemetry {
                tel.record_pull(self.inbox.depth());
            }
            let pulled_at = Instant::now();
            let mut entry = Admitted {
                id: self.pull_ids.fetch_add(1, Ordering::Relaxed) + 1,
                request: routed.request,
                pulled_at,
                submitted: None,
                reaped: None,
                queue_wait: pulled_at.saturating_duration_since(routed.accepted_at),
            };
            match prefetch_path(&entry.request, ev.afs.fs()) {
                // No device read will happen (400/404): ready now.
                None => ev.ready.lock().expect("poisoned").push_back(entry),
                Some(path) => {
                    // Park under the lock so a helper completing before
                    // the insert cannot be reaped against an absent key.
                    entry.submitted = Some(Instant::now());
                    let mut parked = ev.parked.lock().expect("poisoned");
                    let ticket = ev.afs.submit(&path);
                    parked.insert(ticket, entry);
                }
            }
        }
    }

    /// Applies queued patches immediately, without waiting for a guest
    /// update point. Only valid while no guest code is running (the
    /// quiescent case: between serve batches).
    ///
    /// # Errors
    ///
    /// Returns the first failing patch's [`dsu_core::UpdateError`].
    pub fn apply_pending_now(&mut self) -> Result<usize, dsu_core::UpdateError> {
        assert!(!self.proc.is_suspended(), "guest is suspended mid-run");
        let r = self.updater.apply_pending(&mut self.proc);
        self.publish_telemetry();
        r
    }

    /// The telemetry bundle this server records into, if any.
    pub fn telemetry(&self) -> Option<&ServerTelemetry> {
        self.telemetry.as_ref()
    }

    /// Arms (or disarms) the guest VM's hot-path profiler (see
    /// [`vm::Profiler`]). Off by default — profiling is opt-in so the
    /// serving hot path stays unobserved unless asked.
    pub fn set_vm_profiling(&mut self, on: bool) {
        self.proc.set_profiling(on);
    }

    /// Collapsed-stack export of the VM profile, and publishes it into
    /// the telemetry bundle's profile slot. `None` when profiling is off.
    pub fn publish_vm_profile(&self) -> Option<String> {
        let collapsed = self.proc.profile_collapsed()?;
        if let Some(tel) = &self.telemetry {
            tel.set_vm_profile(collapsed.clone());
        }
        Some(collapsed)
    }

    /// How this server drives its guest (set at boot).
    pub fn serve_mode(&self) -> ServeMode {
        match &self.event {
            Some(ev) => ServeMode::EventLoop(ev.cfg),
            None => ServeMode::Blocking,
        }
    }

    /// Buffer-cache `(hits, misses)` so far; `None` in blocking mode.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.event
            .as_ref()
            .map(|ev| (ev.afs.cache().hits(), ev.afs.cache().misses()))
    }

    /// Writes `content` to `path` on this server's disk. In event-loop
    /// mode the write goes through the async filesystem so the buffer
    /// cache drops any stale copy (see [`AsyncFs::write`]); clones of the
    /// same disk (other fleet workers) see the new content on their next
    /// device read.
    pub fn write_file(&self, path: &str, content: &str) {
        match &self.event {
            Some(ev) => ev.afs.write(path, content),
            None => self.fs.write(path, content),
        }
    }

    /// Installs (or replaces) this server's injected fault plan. Pause
    /// faults take effect at the next update pause; read-error faults
    /// cannot be injected here — the filesystem handle is fixed at boot
    /// (see [`FaultPlan::read_errors`]).
    pub fn inject_fault(&self, plan: FaultPlan) {
        *self.fault.lock().expect("poisoned") = plan;
    }

    /// The currently injected fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        *self.fault.lock().expect("poisoned")
    }

    /// The live fault-plan cell itself. A supervisor keeps this so faults
    /// — including one-shot crash points — can be armed on a *running*
    /// worker from another thread, and so a consumed crash point is
    /// observable as cleared.
    pub fn fault_handle(&self) -> Arc<Mutex<FaultPlan>> {
        Arc::clone(&self.fault)
    }

    /// Restores crash-durable updater state saved by
    /// [`dsu_core::Updater::save_state`] (snapshot ring + pending ops)
    /// into this server's updater — the last step of a supervised
    /// restart, after the replay chain has re-applied the worker to its
    /// pre-crash version.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed section; the updater
    /// is left unchanged on error.
    pub fn load_updater_state(&mut self, text: &str) -> Result<usize, String> {
        self.updater.load_state(&mut self.proc, text)
    }

    /// Publishes quiescent-boundary telemetry: mirrors the interpreter
    /// counters into the shared stats and feeds pause-log entries recorded
    /// since the last publish into the update-pause histogram. No-op
    /// without telemetry. Called automatically after [`Server::serve`] and
    /// [`Server::apply_pending_now`]; long-lived embedders (fleet workers)
    /// may also call it on idle ticks.
    pub fn publish_telemetry(&mut self) {
        let Some(tel) = &self.telemetry else { return };
        tel.publish_vm_stats(&self.proc.stats);
        if let Some(ev) = &self.event {
            let cache = ev.afs.cache();
            tel.publish_cache(
                cache.hits(),
                cache.misses(),
                cache.evictions(),
                ev.afs.in_flight(),
            );
        }
        let pauses = self.updater.pauses();
        for p in &pauses[self.pauses_seen..] {
            tel.record_update_pause(p.dur);
        }
        self.pauses_seen = pauses.len();
    }

    /// The shared state this server reports into (clone to observe
    /// completions from outside, or to boot another server onto the same
    /// log and clock).
    pub fn shared(&self) -> ServerShared {
        self.shared.clone()
    }

    /// Cross-thread control over this server's updater/process pair: feed
    /// patches, arm the update signal, observe reports — from a thread
    /// that does not own the server (see [`dsu_core::UpdaterRemote`]).
    pub fn remote(&self) -> dsu_core::UpdaterRemote {
        self.updater.remote(&self.proc)
    }

    /// Completed responses so far (in completion order).
    pub fn completions(&self) -> Vec<Completion> {
        self.shared.completions()
    }

    /// Drains and returns completed responses.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.shared.take_completions()
    }

    /// Guest log lines (v5's request log).
    pub fn logs(&self) -> Vec<String> {
        self.shared.logs()
    }

    /// Time since the server started.
    pub fn elapsed(&self) -> Duration {
        self.shared.elapsed()
    }

    /// The underlying process (for interface extraction and inspection).
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Mutable access to the underlying process.
    pub fn process_mut(&mut self) -> &mut Process {
        &mut self.proc
    }
}
