//! The FlashEd network edge: sharded admission in front of the fleet.
//!
//! Every worker pulls requests from an [`Inbox`]. A fleet without an
//! edge hands all of its workers one shared unbounded inbox — a single
//! lock all N workers contend on, which hides routing and admission
//! effects and caps scaling. This module is the front door that replaces
//! that shared inbox with one per worker:
//!
//! * **Per-worker inboxes** ([`Inbox`]) — bounded queues, one per worker.
//!   The edge is the only producer and the owning worker the only
//!   consumer, so the per-request pull path never touches a fleet-wide
//!   lock. Depth is mirrored in a lock-free atomic that both the
//!   LeastLoaded policy and the telemetry gauges read live. An idle
//!   consumer blocks in [`Inbox::wait`] and is woken by a push or a
//!   [`Inbox::poke`].
//! * **Routing** ([`RoutePolicy`]) — consistent hashing over the request
//!   path (a [`HashRing`] with virtual nodes, so worker-count changes
//!   move only the keys adjacent to the new points: cache affinity
//!   survives resizes), least-loaded (live inbox depths), or round-robin.
//! * **Admission control** — every inbox is bounded. A full inbox sheds
//!   the request: the submitter gets a typed [`EdgeError::Overloaded`]
//!   (the backpressure signal a load generator throttles on) and, when
//!   [`EdgeConfig::shed_responses`] is on, the client-visible side is a
//!   synthesized HTTP 503 appended to the completion log (`pulled:
//!   false`, so latency stats skip it while drain accounting counts it).
//!
//! Requests are stamped with their admission instant; workers propagate
//! it into [`Completion::queue_wait`], so end-to-end sojourn
//! (`queue_wait + service`) is measurable per request — the number the
//! p99 SLO in the rollout-under-load experiments is held against.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::Response;
use crate::server::{Completion, ServerShared};
use crate::telemetry::FleetTelemetry;

/// How the edge picks a worker inbox for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Hash the request path onto a ring of virtual nodes. Requests for
    /// one path always land on one worker (buffer-cache affinity), and a
    /// worker-count change remaps only the keys owned by the new points.
    ConsistentHash,
    /// Send each request to the shallowest inbox (live atomic depths,
    /// the same numbers the queue-depth gauges publish). Ties go to the
    /// lowest worker id.
    LeastLoaded,
    /// Rotate through workers in id order.
    RoundRobin,
}

impl fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutePolicy::ConsistentHash => write!(f, "consistent-hash"),
            RoutePolicy::LeastLoaded => write!(f, "least-loaded"),
            RoutePolicy::RoundRobin => write!(f, "round-robin"),
        }
    }
}

/// Admission failures, typed so generators can throttle on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeError {
    /// The routed worker's inbox was full; the request was shed (and,
    /// when configured, answered with a synthesized HTTP 503).
    Overloaded {
        /// The worker the request routed to.
        worker: usize,
        /// That worker's inbox depth at the shed.
        depth: usize,
        /// The inbox capacity.
        capacity: usize,
    },
    /// Every worker was down (see [`Edge::mark_down`]); no inbox could
    /// accept the request. Shed like an overflow.
    Unavailable,
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeError::Overloaded {
                worker,
                depth,
                capacity,
            } => write!(f, "worker {worker} overloaded: inbox at {depth}/{capacity}"),
            EdgeError::Unavailable => write!(f, "every worker is down"),
        }
    }
}

impl std::error::Error for EdgeError {}

/// Edge tuning: routing policy, inbox bound, shed behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeConfig {
    /// How requests map to workers.
    pub policy: RoutePolicy,
    /// Per-worker inbox capacity; a request routed to a full inbox is
    /// shed, not queued.
    pub queue_capacity: usize,
    /// Whether sheds synthesize an HTTP 503 completion (`pulled: false`)
    /// so the client-visible side of load shedding is observable in the
    /// completion log. Off, a shed is only the typed error + counters.
    pub shed_responses: bool,
    /// Virtual nodes per worker on the consistent-hash ring. More nodes
    /// smooth the key distribution; 64 keeps the worst worker within a
    /// few percent of fair share.
    pub vnodes: usize,
    /// The `Retry-After` hint rendered (in milliseconds) on synthesized
    /// 503s — how long the edge suggests a shed client wait before
    /// retrying. Closed-loop generators floor their backoff at it.
    pub retry_after_hint: Duration,
}

impl Default for EdgeConfig {
    fn default() -> EdgeConfig {
        EdgeConfig {
            policy: RoutePolicy::ConsistentHash,
            queue_capacity: 1024,
            shed_responses: true,
            vnodes: 64,
            retry_after_hint: Duration::ZERO,
        }
    }
}

impl EdgeConfig {
    /// An edge with the given routing policy and default bounds.
    pub fn new(policy: RoutePolicy) -> EdgeConfig {
        EdgeConfig {
            policy,
            ..EdgeConfig::default()
        }
    }

    /// Sets the per-worker inbox capacity.
    pub fn queue_capacity(mut self, capacity: usize) -> EdgeConfig {
        assert!(
            capacity > 0,
            "an inbox needs capacity for at least one request"
        );
        self.queue_capacity = capacity;
        self
    }

    /// Enables or disables synthesized 503 responses on shed.
    pub fn shed_responses(mut self, on: bool) -> EdgeConfig {
        self.shed_responses = on;
        self
    }

    /// Sets the `Retry-After` hint synthesized 503s carry.
    pub fn retry_after_hint(mut self, hint: Duration) -> EdgeConfig {
        self.retry_after_hint = hint;
        self
    }
}

/// One admitted request: the raw text plus its admission stamp, which
/// the worker turns into [`Completion::queue_wait`] at pull time.
#[derive(Debug, Clone)]
pub struct Routed {
    /// The raw request text, exactly as submitted.
    pub request: String,
    /// When the edge admitted it (sojourn measurement starts here).
    pub accepted_at: Instant,
}

/// What the inbox lock guards: the queue and the poke count.
struct Queue {
    items: VecDeque<Routed>,
    /// [`Inbox::poke`] calls so far. A count, not a flag: several workers
    /// can share one inbox, and each must see a poke aimed at it however
    /// many of the others woke (and went back to waiting) first.
    pokes: u64,
    /// Consumers currently blocked in [`Inbox::wait`]. A push signals the
    /// condvar only when this is non-zero, so the busy path (the worker
    /// is serving, nobody waits) pays no wake-up system call.
    waiting: usize,
}

/// A queue of admitted requests: the edge (or a server's own
/// `push_requests`) pushes, the owning worker pops; the depth mirror is a
/// lock-free atomic so routing and gauges read it without taking the
/// queue lock.
pub struct Inbox {
    q: Mutex<Queue>,
    /// Signalled by a push that finds a consumer waiting (one waiter) and
    /// by every poke (all waiters).
    arrived: Condvar,
    depth: AtomicUsize,
    capacity: usize,
    shed: AtomicU64,
}

impl fmt::Debug for Inbox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inbox")
            .field("depth", &self.depth())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Inbox {
    /// An empty inbox holding at most `capacity` requests.
    pub fn new(capacity: usize) -> Inbox {
        assert!(
            capacity > 0,
            "an inbox needs capacity for at least one request"
        );
        Inbox::with_queue(VecDeque::with_capacity(capacity.min(4096)), capacity)
    }

    /// An empty inbox that never sheds — what a server without an edge
    /// in front of it pulls from.
    pub fn unbounded() -> Inbox {
        Inbox::with_queue(VecDeque::new(), usize::MAX)
    }

    fn with_queue(items: VecDeque<Routed>, capacity: usize) -> Inbox {
        Inbox {
            q: Mutex::new(Queue {
                items,
                pokes: 0,
                waiting: 0,
            }),
            arrived: Condvar::new(),
            depth: AtomicUsize::new(0),
            capacity,
            shed: AtomicU64::new(0),
        }
    }

    /// Enqueues `routed` unless the inbox is full, waking one waiting
    /// consumer if there is one. Returns the new depth on success; on overflow the item
    /// is dropped, the shed counter bumps, and the depth at rejection
    /// comes back as the error.
    pub fn try_push(&self, routed: Routed) -> Result<usize, usize> {
        let mut q = self.q.lock().expect("poisoned");
        if q.items.len() >= self.capacity {
            drop(q);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(self.capacity);
        }
        q.items.push_back(routed);
        let depth = q.items.len();
        self.depth.store(depth, Ordering::Relaxed);
        let wake = q.waiting > 0;
        drop(q);
        if wake {
            self.arrived.notify_one();
        }
        Ok(depth)
    }

    /// Enqueues every request in `requests`, stamped as admitted now —
    /// the edgeless front door. One that does not fit is shed.
    pub(crate) fn admit_all<I>(&self, requests: I)
    where
        I: IntoIterator<Item = String>,
    {
        for request in requests {
            let _ = self.try_push(Routed {
                request,
                accepted_at: Instant::now(),
            });
        }
    }

    /// Dequeues the oldest request, if any.
    pub fn pop(&self) -> Option<Routed> {
        let mut q = self.q.lock().expect("poisoned");
        let routed = q.items.pop_front();
        if routed.is_some() {
            self.depth.store(q.items.len(), Ordering::Relaxed);
        }
        routed
    }

    /// Wakes every consumer blocked in [`Inbox::wait`] although nothing
    /// was pushed — a patch was queued for it, or it should shut down.
    pub fn poke(&self) {
        self.q.lock().expect("poisoned").pokes += 1;
        self.arrived.notify_all();
    }

    /// Blocks the calling consumer until the inbox holds a request, a
    /// poke newer than `seen_pokes` has been issued, or `timeout` passes
    /// — whichever is first — and returns the poke count to pass next
    /// time (start from 0). The count lives under the queue lock, so a
    /// poke issued after the consumer last looked for work but before it
    /// got here is not lost: this call returns at once. May also return
    /// early for no reason; callers loop.
    pub fn wait(&self, seen_pokes: u64, timeout: Duration) -> u64 {
        let mut q = self.q.lock().expect("poisoned");
        if !q.items.is_empty() || q.pokes != seen_pokes {
            return q.pokes;
        }
        q.waiting += 1;
        let (mut q, _) = self.arrived.wait_timeout(q, timeout).expect("poisoned");
        q.waiting -= 1;
        q.pokes
    }

    /// Requests currently queued (lock-free mirror; exact at quiescence,
    /// momentarily stale under concurrent push/pop).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests rejected at this inbox so far.
    pub fn sheds(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Fullness in `[0, 1]` — the per-worker backpressure signal.
    pub fn fullness(&self) -> f64 {
        self.depth() as f64 / self.capacity as f64
    }
}

/// FNV-1a, the key hash for ring lookups.
fn hash_key(key: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finalizer — scatters `(worker, replica)` pairs uniformly
/// around the ring.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring: each worker owns `vnodes` points; a key maps
/// to the worker owning the first point at or after its hash (wrapping).
///
/// The stability property routing relies on: growing the ring from `n`
/// to `n + 1` workers adds only worker `n`'s points, so every key whose
/// owner changes moves *to* worker `n` — no key moves between surviving
/// workers, and at most `vnodes / (total points)` of the key space moves
/// at all.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, worker)` pairs, sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over `workers` workers with `vnodes` points each.
    pub fn new(workers: usize, vnodes: usize) -> HashRing {
        assert!(workers > 0 && vnodes > 0, "empty hash ring");
        let mut points = Vec::with_capacity(workers * vnodes);
        for w in 0..workers {
            for r in 0..vnodes {
                points.push((mix(((w as u64) << 32) | r as u64), w));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The worker owning `key`.
    pub fn pick(&self, key: &str) -> usize {
        let h = hash_key(key);
        let idx = self.points.partition_point(|(p, _)| *p < h);
        self.points[idx % self.points.len()].1
    }

    /// The first worker at or after `key`'s hash for which `alive` holds
    /// — consistent-hash failover. While a worker is down its keys land
    /// on their ring *successors* (each vnode fails over independently,
    /// so the dead worker's load spreads rather than piling onto one
    /// neighbour); because the ring itself never changes, recovery
    /// restores the original ownership exactly. `None` when nothing is
    /// alive.
    pub fn pick_with<F: Fn(usize) -> bool>(&self, key: &str, alive: F) -> Option<usize> {
        let h = hash_key(key);
        let start = self.points.partition_point(|(p, _)| *p < h);
        let n = self.points.len();
        for i in 0..n {
            let (_, w) = self.points[(start + i) % n];
            if alive(w) {
                return Some(w);
            }
        }
        None
    }
}

/// The routing key for a raw request: its query-stripped path (the same
/// value [`crate::Request::path`] yields), so `/doc?a` and `/doc?b`
/// share a worker. Unparseable requests key on their full text — they
/// still route deterministically.
fn route_key(request: &str) -> &str {
    let target = match request.split(' ').nth(1) {
        Some(t) if !t.is_empty() => t,
        _ => return request,
    };
    target.split('?').next().unwrap_or(target)
}

/// How many admitted / shed a bulk submission split into.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeAdmission {
    /// Requests that landed in some worker inbox.
    pub admitted: usize,
    /// Requests rejected at a full inbox.
    pub shed: usize,
}

/// The front door: routes submissions into per-worker inboxes, sheds on
/// overflow, and keeps the live counters routing and telemetry read.
pub struct Edge {
    inboxes: Vec<Arc<Inbox>>,
    policy: RoutePolicy,
    ring: HashRing,
    rr: AtomicUsize,
    shared: ServerShared,
    shed_responses: bool,
    retry_after: Duration,
    admitted: AtomicU64,
    shed: AtomicU64,
    /// Per-worker liveness, flipped by the fleet supervisor: routing
    /// skips dead workers (consistent-hash keys fail over to their ring
    /// successors) until [`Edge::mark_up`] restores them.
    alive: Vec<AtomicBool>,
    /// Down transitions handled (each drains the dead worker's inbox
    /// back through the router).
    failovers: AtomicU64,
    telemetry: Option<Arc<FleetTelemetry>>,
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Edge")
            .field("policy", &self.policy)
            .field("workers", &self.inboxes.len())
            .field("depths", &self.depths())
            .finish()
    }
}

impl Edge {
    /// An edge over `workers` fresh inboxes, feeding completions (shed
    /// 503s) into `shared` on the fleet's clock. With `telemetry`, every
    /// admission updates the routed worker's depth gauge and every shed
    /// bumps both the worker's and the coordinator's shed counters.
    pub fn new(
        workers: usize,
        cfg: &EdgeConfig,
        shared: ServerShared,
        telemetry: Option<Arc<FleetTelemetry>>,
    ) -> Edge {
        assert!(workers > 0, "an edge needs at least one worker");
        Edge {
            inboxes: (0..workers)
                .map(|_| Arc::new(Inbox::new(cfg.queue_capacity)))
                .collect(),
            policy: cfg.policy,
            ring: HashRing::new(workers, cfg.vnodes),
            rr: AtomicUsize::new(0),
            shared,
            shed_responses: cfg.shed_responses,
            retry_after: cfg.retry_after_hint,
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            alive: (0..workers).map(|_| AtomicBool::new(true)).collect(),
            failovers: AtomicU64::new(0),
            telemetry,
        }
    }

    /// Worker `w`'s inbox (the handle its server pulls from).
    pub fn inbox(&self, w: usize) -> &Arc<Inbox> {
        &self.inboxes[w]
    }

    /// Number of worker inboxes.
    pub fn worker_count(&self) -> usize {
        self.inboxes.len()
    }

    /// The configured routing policy.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The worker `request` would route to right now (no enqueue),
    /// skipping dead workers. For LeastLoaded this reads the live
    /// depths, so the answer can change between calls. When every worker
    /// is down this falls back to the liveness-blind pick (a preview
    /// must still answer something).
    pub fn route(&self, request: &str) -> usize {
        self.route_live(request)
            .unwrap_or_else(|| match self.policy {
                RoutePolicy::ConsistentHash => self.ring.pick(route_key(request)),
                RoutePolicy::LeastLoaded | RoutePolicy::RoundRobin => 0,
            })
    }

    /// The live routing decision: dead workers are skipped — a
    /// consistent-hash key walks to its ring successor, LeastLoaded
    /// ignores dead inboxes, RoundRobin rotates past them. `None` when
    /// every worker is down.
    fn route_live(&self, request: &str) -> Option<usize> {
        let alive = |w: usize| self.alive[w].load(Ordering::SeqCst);
        match self.policy {
            RoutePolicy::ConsistentHash => self.ring.pick_with(route_key(request), alive),
            RoutePolicy::LeastLoaded => self
                .inboxes
                .iter()
                .enumerate()
                .filter(|(i, _)| alive(*i))
                .min_by_key(|(i, b)| (b.depth(), *i))
                .map(|(i, _)| i),
            RoutePolicy::RoundRobin => {
                let n = self.inboxes.len();
                (0..n)
                    .map(|_| self.rr.fetch_add(1, Ordering::Relaxed) % n)
                    .find(|w| alive(*w))
            }
        }
    }

    /// Routes and admits one request, stamping its admission instant.
    /// Returns the worker it landed on.
    ///
    /// # Errors
    ///
    /// [`EdgeError::Overloaded`] when the routed inbox is full: the
    /// request is shed, counters bump, and (when configured) a 503
    /// completion is synthesized. The caller seeing this error *is* the
    /// backpressure signal — an open-loop generator counts it, a
    /// closed-loop one backs off.
    pub fn submit(&self, request: String) -> Result<usize, EdgeError> {
        let Some(worker) = self.route_live(&request) else {
            self.record_shed(None);
            return Err(EdgeError::Unavailable);
        };
        let routed = Routed {
            request,
            accepted_at: Instant::now(),
        };
        match self.inboxes[worker].try_push(routed) {
            Ok(depth) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &self.telemetry {
                    t.record_edge_admitted();
                    t.worker(worker).set_edge_depth(depth);
                }
                Ok(worker)
            }
            Err(capacity) => {
                self.record_shed(Some(worker));
                Err(EdgeError::Overloaded {
                    worker,
                    depth: capacity,
                    capacity,
                })
            }
        }
    }

    /// Shed bookkeeping: counters, telemetry, and (when configured) the
    /// client-visible 503. `worker` is the inbox that rejected, when one
    /// was even reachable.
    fn record_shed(&self, worker: Option<usize>) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_edge_shed_total();
            if let Some(w) = worker {
                t.worker(w).record_edge_shed();
            }
        }
        if self.shed_responses {
            self.shared.push_completion(self.shed_completion());
        }
    }

    /// Submits a batch, tallying admissions and sheds.
    pub fn submit_all<I>(&self, requests: I) -> EdgeAdmission
    where
        I: IntoIterator<Item = String>,
    {
        let mut report = EdgeAdmission::default();
        for r in requests {
            match self.submit(r) {
                Ok(_) => report.admitted += 1,
                Err(_) => report.shed += 1,
            }
        }
        report
    }

    /// Takes worker `w` out of rotation (idempotent; the fleet
    /// supervisor calls this the moment it notices the worker died).
    /// Routing immediately skips it — consistent-hash keys fail over to
    /// their ring successors — and whatever its inbox still queued is
    /// drained back through the router to live workers, preserving each
    /// request's original admission stamp (sojourn keeps counting the
    /// failover delay). Requests no live inbox can hold are shed with a
    /// 503. Returns how many requests were rerouted.
    pub fn mark_down(&self, w: usize) -> usize {
        if !self.alive[w].swap(false, Ordering::SeqCst) {
            return 0; // already down; a supervisor retry sweep
        }
        self.failovers.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_edge_failover();
        }
        let mut rerouted = 0;
        while let Some(routed) = self.inboxes[w].pop() {
            if self.reroute(routed).is_ok() {
                rerouted += 1;
            }
        }
        if let Some(t) = &self.telemetry {
            t.worker(w).set_edge_depth(0);
        }
        rerouted
    }

    /// Puts worker `w` back in rotation. The ring never changed, so its
    /// keys return to exactly their original vnode ownership.
    pub fn mark_up(&self, w: usize) {
        self.alive[w].store(true, Ordering::SeqCst);
    }

    /// Whether worker `w` is in rotation.
    pub fn is_alive(&self, w: usize) -> bool {
        self.alive[w].load(Ordering::SeqCst)
    }

    /// Down transitions handled so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Re-admits an already-admitted request during failover. It is not
    /// a fresh admission, so the edge-wide admitted/shed totals stay
    /// balanced (one eventual completion per admission): a reject here
    /// synthesizes the request's 503 answer and bumps only the rejecting
    /// worker's counters — the request is answered, never silently
    /// dropped.
    fn reroute(&self, routed: Routed) -> Result<usize, EdgeError> {
        let Some(worker) = self.route_live(&routed.request) else {
            if self.shed_responses {
                self.shared.push_completion(self.shed_completion());
            }
            return Err(EdgeError::Unavailable);
        };
        match self.inboxes[worker].try_push(routed) {
            Ok(depth) => {
                if let Some(t) = &self.telemetry {
                    t.worker(worker).set_edge_depth(depth);
                }
                Ok(worker)
            }
            Err(capacity) => {
                if let Some(t) = &self.telemetry {
                    t.worker(worker).record_edge_shed();
                }
                if self.shed_responses {
                    self.shared.push_completion(self.shed_completion());
                }
                Err(EdgeError::Overloaded {
                    worker,
                    depth: capacity,
                    capacity,
                })
            }
        }
    }

    /// The client-visible face of a shed: HTTP 503, `pulled: false` (no
    /// pull to time service from), zero service — latency stats skip it,
    /// drain accounting counts it.
    fn shed_completion(&self) -> Completion {
        let body = "overloaded";
        let response = Response {
            status: 503,
            headers: vec![
                (
                    "Retry-After".to_string(),
                    self.retry_after.as_millis().to_string(),
                ),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body: body.to_string(),
        }
        .render();
        Completion {
            at: self.shared.elapsed(),
            service: Duration::ZERO,
            update_pause: Duration::ZERO,
            queue_wait: Duration::ZERO,
            pulled: false,
            request_id: None,
            response,
        }
    }

    /// Live inbox depths, in worker order — what
    /// [`Fleet::drain`](crate::Fleet::drain) reports per worker in
    /// [`crate::FleetError::QueueStall`].
    pub fn depths(&self) -> Vec<usize> {
        self.inboxes.iter().map(|b| b.depth()).collect()
    }

    /// Total requests queued across all inboxes.
    pub fn queued(&self) -> usize {
        self.inboxes.iter().map(|b| b.depth()).sum()
    }

    /// The fullest inbox's fullness in `[0, 1]` — the edge-wide
    /// backpressure signal (1.0 means the next submission to that worker
    /// sheds).
    pub fn pressure(&self) -> f64 {
        self.inboxes
            .iter()
            .map(|b| b.fullness())
            .fold(0.0, f64::max)
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed so far (all workers).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The `Retry-After` hint synthesized 503s carry.
    pub fn retry_after_hint(&self) -> Duration {
        self.retry_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_balanced() {
        let ring = HashRing::new(8, 64);
        let keys: Vec<String> = (0..4000).map(|i| format!("/doc{i}.html")).collect();
        let mut counts = [0usize; 8];
        for k in &keys {
            let w = ring.pick(k);
            assert_eq!(w, ring.pick(k), "same key, same worker");
            counts[w] += 1;
        }
        // Every worker owns a nontrivial share of the key space.
        for (w, c) in counts.iter().enumerate() {
            assert!(*c > 150, "worker {w} owns only {c}/4000 keys: {counts:?}");
        }
    }

    #[test]
    fn ring_growth_moves_keys_only_to_the_new_worker() {
        let old = HashRing::new(8, 64);
        let new = HashRing::new(9, 64);
        let mut moved = 0;
        for i in 0..4000 {
            let key = format!("/doc{i}.html");
            let (before, after) = (old.pick(&key), new.pick(&key));
            if before != after {
                assert_eq!(
                    after, 8,
                    "key {key} moved {before} -> {after}, not to the new worker"
                );
                moved += 1;
            }
        }
        // Roughly 1/9 of the space moves; well under a full reshuffle.
        assert!(moved > 0, "growth moved nothing — ring not live");
        assert!(
            moved < 4000 / 4,
            "growth moved {moved}/4000 keys — not consistent"
        );
    }

    #[test]
    fn route_key_strips_method_and_query() {
        assert_eq!(route_key("GET /doc.html HTTP/1.0"), "/doc.html");
        assert_eq!(route_key("GET /doc.html?q=1 HTTP/1.0"), "/doc.html");
        assert_eq!(route_key("BOGUS"), "BOGUS");
        assert_eq!(route_key("GET  HTTP/1.0"), "GET  HTTP/1.0");
    }

    #[test]
    fn inbox_bounds_and_counts() {
        let inbox = Inbox::new(2);
        let routed = |s: &str| Routed {
            request: s.to_string(),
            accepted_at: Instant::now(),
        };
        assert_eq!(inbox.try_push(routed("a")), Ok(1));
        assert_eq!(inbox.try_push(routed("b")), Ok(2));
        assert_eq!(inbox.try_push(routed("c")), Err(2));
        assert_eq!(inbox.depth(), 2);
        assert_eq!(inbox.sheds(), 1);
        assert!((inbox.fullness() - 1.0).abs() < f64::EPSILON);
        assert_eq!(inbox.pop().unwrap().request, "a");
        assert_eq!(inbox.depth(), 1);
        assert_eq!(inbox.try_push(routed("d")), Ok(2));
    }

    #[test]
    fn least_loaded_prefers_shallow_inboxes() {
        let edge = Edge::new(
            3,
            &EdgeConfig::new(RoutePolicy::LeastLoaded).queue_capacity(8),
            ServerShared::new(),
            None,
        );
        edge.submit("GET /a HTTP/1.0".to_string()).unwrap();
        edge.submit("GET /b HTTP/1.0".to_string()).unwrap();
        edge.submit("GET /c HTTP/1.0".to_string()).unwrap();
        // One request per worker: depths [1, 1, 1].
        assert_eq!(edge.depths(), vec![1, 1, 1]);
        // Drain worker 1; the next submission must go there.
        edge.inbox(1).pop().unwrap();
        assert_eq!(edge.route("GET /d HTTP/1.0"), 1);
    }

    #[test]
    fn round_robin_rotates() {
        let edge = Edge::new(
            3,
            &EdgeConfig::new(RoutePolicy::RoundRobin),
            ServerShared::new(),
            None,
        );
        let picks: Vec<usize> = (0..6).map(|_| edge.route("GET /x HTTP/1.0")).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn overflow_sheds_with_typed_error_and_503() {
        let shared = ServerShared::new();
        let edge = Edge::new(
            1,
            &EdgeConfig::new(RoutePolicy::RoundRobin).queue_capacity(1),
            shared.clone(),
            None,
        );
        edge.submit("GET /a HTTP/1.0".to_string()).unwrap();
        let err = edge.submit("GET /b HTTP/1.0".to_string()).unwrap_err();
        assert_eq!(
            err,
            EdgeError::Overloaded {
                worker: 0,
                depth: 1,
                capacity: 1
            }
        );
        assert_eq!(edge.shed(), 1);
        assert_eq!(edge.admitted(), 1);
        assert!((edge.pressure() - 1.0).abs() < f64::EPSILON);
        // The shed synthesized a client-visible 503, excluded from stats.
        let completions = shared.completions();
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].pulled);
        let resp = crate::http::parse_response(&completions[0].response).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("0"));
    }

    #[test]
    fn failover_reroutes_queued_requests_and_recovery_restores_ownership() {
        let edge = Edge::new(
            4,
            &EdgeConfig::default().queue_capacity(64),
            ServerShared::new(),
            None,
        );
        // Find a path owned by worker 2 and queue a few requests on it.
        let req = (0..200)
            .map(|i| format!("GET /doc{i}.html HTTP/1.0"))
            .find(|r| edge.route(r) == 2)
            .expect("some key lands on worker 2");
        for _ in 0..3 {
            edge.submit(req.clone()).unwrap();
        }
        assert_eq!(edge.inbox(2).depth(), 3);

        let rerouted = edge.mark_down(2);
        assert_eq!(
            rerouted, 3,
            "queued requests drained back through the router"
        );
        assert_eq!(edge.inbox(2).depth(), 0);
        assert!(!edge.is_alive(2));
        assert_eq!(edge.failovers(), 1);
        // Idempotent: a second mark_down is a no-op.
        assert_eq!(edge.mark_down(2), 0);
        assert_eq!(edge.failovers(), 1);

        // While down, the key routes to a live successor — deterministically.
        let failover = edge.route(&req);
        assert_ne!(failover, 2);
        assert_eq!(edge.route(&req), failover);
        assert_eq!(edge.submit(req.clone()).unwrap(), failover);

        // Recovery restores the original vnode ownership exactly.
        edge.mark_up(2);
        assert!(edge.is_alive(2));
        assert_eq!(edge.route(&req), 2);
    }

    #[test]
    fn all_workers_down_sheds_with_unavailable() {
        let shared = ServerShared::new();
        let edge = Edge::new(2, &EdgeConfig::default(), shared.clone(), None);
        edge.mark_down(0);
        edge.mark_down(1);
        let err = edge.submit("GET /a HTTP/1.0".to_string()).unwrap_err();
        assert_eq!(err, EdgeError::Unavailable);
        assert_eq!(edge.shed(), 1);
        // The client still gets an answer: a synthesized 503.
        let completions = shared.completions();
        assert_eq!(completions.len(), 1);
        assert!(!completions[0].pulled);
    }

    #[test]
    fn least_loaded_and_round_robin_skip_dead_workers() {
        let edge = Edge::new(
            3,
            &EdgeConfig::new(RoutePolicy::LeastLoaded).queue_capacity(8),
            ServerShared::new(),
            None,
        );
        edge.mark_down(0);
        for _ in 0..4 {
            let w = edge.submit("GET /x HTTP/1.0".to_string()).unwrap();
            assert_ne!(w, 0, "least-loaded routed to a dead worker");
        }
        let rr = Edge::new(
            3,
            &EdgeConfig::new(RoutePolicy::RoundRobin),
            ServerShared::new(),
            None,
        );
        rr.mark_down(1);
        let picks: Vec<usize> = (0..4)
            .map(|_| rr.submit("GET /x HTTP/1.0".to_string()).unwrap())
            .collect();
        assert!(!picks.contains(&1), "round-robin routed to a dead worker");
    }

    #[test]
    fn retry_after_hint_renders_in_millis() {
        let shared = ServerShared::new();
        let edge = Edge::new(
            1,
            &EdgeConfig::new(RoutePolicy::RoundRobin)
                .queue_capacity(1)
                .retry_after_hint(Duration::from_millis(7)),
            shared.clone(),
            None,
        );
        edge.submit("GET /a HTTP/1.0".to_string()).unwrap();
        edge.submit("GET /b HTTP/1.0".to_string()).unwrap_err();
        let completions = shared.completions();
        let resp = crate::http::parse_response(&completions[0].response).unwrap();
        assert_eq!(resp.header("retry-after"), Some("7"));
    }

    #[test]
    fn consistent_hash_repeats_per_path() {
        let edge = Edge::new(4, &EdgeConfig::default(), ServerShared::new(), None);
        let w = edge.route("GET /doc7.html HTTP/1.0");
        for _ in 0..10 {
            assert_eq!(edge.route("GET /doc7.html?cache=bust HTTP/1.0"), w);
        }
    }
}
