//! Every call the benchmark makes into the system under test.
//!
//! The rest of the harness sees the system only through this file, and
//! this file uses only the API the roadmap's "collapse the parallel
//! paths" item keeps: `FleetConfig` builders + `with_edge`, `Edge::submit`,
//! `rollout_plan`, `UpdaterRemote`, `Updater`/`apply_patch`, `Process`,
//! `popcorn::compile`, `PatchGen`. It never calls `Server::start_*`,
//! `RolloutPolicy`, `rollout`/`rollout_guarded`, or `push_requests`, so
//! the later simplicity changes can delete those without touching the
//! benchmark.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu_core::{PatchGen, UpdatePolicy, Updater};
use flashed::{
    Edge, EdgeConfig, EventLoopConfig, FleetConfig, RolloutPlan, RoutePolicy, ServeMode,
    ServerShared,
};
use tal::Module;
use vm::{LinkMode, Process, Value};

pub use dsu_core::{Patch, PhaseTimings, UpdateReport};
pub use flashed::{Completion, SimFs};

use crate::oracle::Corpus;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---- guest programs ---------------------------------------------------

/// The five FlashEd versions, `("v1", source)` … `("v5", source)`.
pub fn flashed_versions() -> Vec<(&'static str, String)> {
    flashed::versions::all()
}

/// Compiles one self-contained Popcorn program (updateable link form).
pub fn compile(src: &str, module: &str, version: &str) -> Res<Module> {
    popcorn::compile(src, module, version, &popcorn::Interface::new()).map_err(err("compile"))
}

/// Generates the patch between two source versions (transformers
/// synthesized automatically).
pub fn generate_patch(old: &str, new: &str, from: &str, to: &str) -> Res<Patch> {
    PatchGen::new()
        .generate(old, new, from, to)
        .map(|g| g.patch)
        .map_err(err("patchgen"))
}

/// The patch stream between consecutive versions.
pub fn patch_stream(versions: &[(&str, String)]) -> Res<Vec<Patch>> {
    versions
        .windows(2)
        .map(|w| generate_patch(&w[0].1, &w[1].1, w[0].0, w[1].0))
        .collect()
}

pub fn save_patch(patch: &Patch) -> String {
    dsu_core::save_patch(patch)
}

pub fn load_patch(text: &str) -> Res<Patch> {
    dsu_core::load_patch(text).map_err(err("load_patch"))
}

/// Whether two patches are the same patch (the save → load round trip
/// must hold this).
pub fn same_patch(a: &Patch, b: &Patch) -> bool {
    a == b
}

/// Verifies a self-contained module.
pub fn verify_module(m: &Module) -> Res<()> {
    tal::verify_module(m, &tal::NoAmbientTypes).map_err(err("verify"))
}

/// Instructions in a module's functions.
pub fn module_instrs(m: &Module) -> usize {
    m.functions.iter().map(|f| f.code.len()).sum()
}

/// Runs the peephole optimizer over a copy of `m`.
pub fn optimize(m: &Module) -> Module {
    let mut copy = m.clone();
    tal::opt::optimize_module(&mut copy);
    copy
}

// ---- a bare process with its updater ------------------------------------

/// One guest process and the updater that drives it — the single-process
/// form of the paper's experiment.
pub struct Guest {
    proc: Process,
    updater: Updater,
    /// The updater's counters without cloning its whole history.
    remote: dsu_core::UpdaterRemote,
}

/// Which link form a process boots in.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Link {
    Static,
    Updateable,
}

impl Guest {
    pub fn boot(module: &Module, link: Link) -> Res<Guest> {
        let mut proc = Process::new(match link {
            Link::Static => LinkMode::Static,
            Link::Updateable => LinkMode::Updateable,
        });
        proc.load_module(module).map_err(err("link"))?;
        Ok(Guest::around(proc))
    }

    fn around(proc: Process) -> Guest {
        let updater = Updater::new();
        let remote = updater.remote(&proc);
        Guest {
            proc,
            updater,
            remote,
        }
    }

    /// Boots a FlashEd version outside any server: its host functions are
    /// stand-ins (an empty request queue, an empty disk), enough to link
    /// the module, apply patches to it, and run `serve()` to its end.
    pub fn boot_flashed(module: &Module) -> Res<Guest> {
        use tal::{FnSig, Ty};
        let mut proc = Process::new(LinkMode::Updateable);
        // Host functions must be `Send`, guest values are not: each
        // stand-in builds its answer when called.
        type Host = (&'static str, Vec<Ty>, Ty, fn() -> Value);
        let hosts: [Host; 5] = [
            ("fs_read", vec![Ty::Str], Ty::Str, || Value::str("")),
            ("fs_exists", vec![Ty::Str], Ty::Bool, || Value::Bool(false)),
            ("next_request", vec![], Ty::Str, || Value::str("")),
            ("send_response", vec![Ty::Str], Ty::Unit, || Value::Unit),
            ("log_line", vec![Ty::Str], Ty::Unit, || Value::Unit),
        ];
        for (name, params, ret, answer) in hosts {
            proc.register_host(
                name,
                FnSig::new(params, ret),
                Box::new(move |_| Ok(answer())),
            );
        }
        proc.load_module(module).map_err(err("link"))?;
        Ok(Guest::around(proc))
    }

    /// Calls an int → int (or no-argument) guest function to completion.
    pub fn call(&mut self, entry: &str, args: &[i64]) -> Res<i64> {
        self.proc
            .call(entry, args.iter().map(|a| Value::Int(*a)).collect())
            .map(|v| v.as_int())
            .map_err(err("guest call"))
    }

    /// Runs `entry` through the updater: a queued operation applies when
    /// the guest reaches its `update;` point, and the run resumes.
    pub fn run(&mut self, entry: &str, args: &[i64]) -> Res<i64> {
        self.updater
            .run(
                &mut self.proc,
                entry,
                args.iter().map(|a| Value::Int(*a)).collect(),
            )
            .map(|v| v.as_int())
            .map_err(err("guest run"))
    }

    /// Queues a forward patch for the next update point.
    pub fn queue_patch(&mut self, patch: &Patch) {
        self.updater.enqueue(&mut self.proc, patch.clone());
    }

    /// Queues a snapshot rollback for the next update point.
    pub fn queue_rollback(&mut self) {
        self.updater.enqueue_snapshot_rollback(&mut self.proc);
    }

    /// Applies whatever is queued right now — the quiescent case, for a
    /// guest that is not running and so will not reach an update point.
    pub fn apply_queued(&mut self) -> Res<usize> {
        self.updater
            .apply_pending(&mut self.proc)
            .map_err(err("apply queued"))
    }

    /// How many updates (forward or back) have applied so far.
    pub fn applied(&self) -> usize {
        self.remote.applied_count()
    }

    /// The most recent applied update's report.
    pub fn last_report(&self) -> Option<UpdateReport> {
        self.updater.log().pop()
    }

    /// The update-safety analysis alone.
    pub fn compat_check(&self, patch: &Patch) -> Res<()> {
        dsu_core::compat::check(&self.proc, patch).map_err(err("compat"))
    }

    /// The seven-phase pipeline, directly (no updater, no ring snapshot).
    pub fn apply_patch(&mut self, patch: &Patch) -> Res<UpdateReport> {
        dsu_core::apply_patch(&mut self.proc, patch, UpdatePolicy::default()).map_err(err("apply"))
    }

    pub fn set_inline_caching(&mut self, on: bool) {
        self.proc.set_inline_caching(on);
    }

    /// `(slot calls answered by a warm inline cache, slot calls)` so far.
    pub fn ic_counts(&self) -> (u64, u64) {
        (self.proc.stats.ic_hits, self.proc.stats.slot_calls)
    }

    /// Captures and immediately restores a binding snapshot, returning
    /// `(capture, restore, encoded bytes)`.
    pub fn snapshot_roundtrip(&mut self) -> (Duration, Duration, usize) {
        let t = Instant::now();
        let snap = self.proc.snapshot();
        let capture = t.elapsed();
        let bytes = vm::encode_snapshot(&snap).len();
        let t = Instant::now();
        self.proc.restore(snap);
        (capture, t.elapsed(), bytes)
    }

    /// Bytes of crash-durable updater state (snapshot ring + pending ops).
    pub fn state_save_bytes(&self) -> usize {
        self.updater.save_state().len()
    }
}

// ---- the fleet behind its edge ------------------------------------------

/// How the edge maps requests to workers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Hash,
    LeastLoaded,
    RoundRobin,
}

impl Route {
    fn policy(self) -> RoutePolicy {
        match self {
            Route::Hash => RoutePolicy::ConsistentHash,
            Route::LeastLoaded => RoutePolicy::LeastLoaded,
            Route::RoundRobin => RoutePolicy::RoundRobin,
        }
    }
}

/// Everything that shapes a fleet. Fleet sizes are constants chosen for a
/// 2-core box; nothing here is derived from `nproc` at run time.
#[derive(Clone, Copy)]
pub struct FleetSpec {
    pub workers: usize,
    /// `None` serves blocking; `Some((helpers, cache entries, in-flight))`
    /// runs the AMPED event loop.
    pub event_loop: Option<(usize, usize, usize)>,
    pub route: Route,
    pub inbox_capacity: usize,
    pub shed_responses: bool,
    pub telemetry: bool,
}

/// Writes the corpus into a fresh simulated filesystem.
pub fn build_fs(corpus: &Corpus, device_latency: Duration) -> SimFs {
    let fs = SimFs::new();
    for (path, body) in corpus.paths.iter().zip(&corpus.bodies) {
        fs.insert(path.clone(), body.clone());
    }
    fs.with_read_latency(device_latency)
}

/// A running fleet, its edge, and the clock completions are stamped on.
pub struct Fleet {
    inner: flashed::Fleet,
    edge: Arc<Edge>,
    shared: ServerShared,
    /// The instant the shared clock reads zero.
    epoch: Instant,
}

/// One fleet-wide forward hop as the coordinator saw it.
pub struct Hop {
    /// Each worker's report for this hop, `(worker, report)`.
    pub applied: Vec<(usize, UpdateReport)>,
    /// Why each rejecting worker refused the patch.
    pub rejected: Vec<String>,
}

impl Fleet {
    pub fn boot(spec: &FleetSpec, src: &str, version: &str, fs: &SimFs) -> Res<Fleet> {
        let mode = match spec.event_loop {
            None => ServeMode::Blocking,
            Some((helpers, cache_entries, max_in_flight)) => {
                ServeMode::EventLoop(EventLoopConfig {
                    helpers,
                    cache_entries,
                    max_in_flight,
                })
            }
        };
        let mut cfg = FleetConfig::new(spec.workers).serve_mode(mode).with_edge(
            EdgeConfig::new(spec.route.policy())
                .queue_capacity(spec.inbox_capacity)
                .shed_responses(spec.shed_responses),
        );
        if spec.telemetry {
            cfg = cfg.with_telemetry();
        }
        let inner = flashed::Fleet::start_cfg(&cfg, src, version, fs).map_err(err("fleet boot"))?;
        let edge = Arc::clone(inner.edge().ok_or("fleet booted without an edge")?);
        let shared = inner.shared();
        let epoch = Instant::now() - shared.elapsed();
        Ok(Fleet {
            inner,
            edge,
            shared,
            epoch,
        })
    }

    /// Nanoseconds on the clock `Completion.at` is stamped on.
    pub fn now_ns(&self) -> u64 {
        self.shared.elapsed().as_nanos() as u64
    }

    /// Submits one request at the front door. `Err` means it was shed.
    pub fn submit(&self, line: String) -> Result<usize, ()> {
        self.edge.submit(line).map_err(|_| ())
    }

    /// Drains the completion log.
    pub fn take_completions(&self) -> Vec<Completion> {
        self.shared.take_completions()
    }

    pub fn workers(&self) -> usize {
        self.inner.worker_count()
    }

    /// The version each worker serves now.
    pub fn live_versions(&self) -> Vec<String> {
        self.inner.live_versions()
    }

    /// One rolling hop: every worker on `patch.to_version` when it
    /// returns.
    pub fn rollout_hop(&self, patch: &Patch) -> Res<Hop> {
        let report = self
            .inner
            .rollout_plan(patch, &RolloutPlan::rolling())
            .map_err(err("rollout"))?;
        Ok(Hop {
            applied: report.fleet_report.applied,
            rejected: report
                .fleet_report
                .failed
                .iter()
                .map(|(w, f)| format!("worker {w}: {f}"))
                .collect(),
        })
    }

    /// Walks every worker back `hops` versions through its snapshot ring
    /// and waits for the chains to land. Returns every restore's report.
    pub fn rollback_chain(&self, hops: usize) -> Res<Vec<UpdateReport>> {
        let mut waits = Vec::new();
        for w in 0..self.workers() {
            let remote = self.inner.remote(w);
            let before = remote.applied_count() + remote.failure_count();
            let queued = remote.enqueue_rollback_chain(hops);
            if queued != hops {
                return Err(format!("worker {w}: ring held {queued} of {hops} hops"));
            }
            waits.push((remote, before));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut reports = Vec::new();
        for (w, (remote, before)) in waits.iter().enumerate() {
            while remote.applied_count() + remote.failure_count() < before + hops
                || remote.pending_count() > 0
            {
                if Instant::now() > deadline {
                    return Err(format!("worker {w}: rollback chain did not land"));
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            if remote.failure_count() > 0 {
                return Err(format!("worker {w}: a rollback hop was rejected"));
            }
            let log = remote.reports();
            reports.extend_from_slice(&log[log.len() - hops..]);
        }
        Ok(reports)
    }

    /// Every update pause worker `w` has taken, as `(start, length)` in
    /// nanoseconds on the fleet's clock.
    pub fn pause_windows(&self, w: usize) -> Vec<(u64, u64)> {
        self.inner
            .remote(w)
            .pauses()
            .iter()
            .map(|p| {
                let start = p.at.saturating_duration_since(self.epoch);
                (start.as_nanos() as u64, p.dur.as_nanos() as u64)
            })
            .collect()
    }

    /// Buffer-cache `(hits, misses, evictions)` summed over workers; only
    /// a fleet booted with telemetry publishes them.
    pub fn cache_counts(&self) -> Option<(u64, u64, u64)> {
        let t = self.inner.telemetry()?;
        Some((0..t.worker_count()).fold((0, 0, 0), |acc, i| {
            let w = t.worker(i);
            (
                acc.0 + w.cache_hits(),
                acc.1 + w.cache_misses(),
                acc.2 + w.cache_evictions(),
            )
        }))
    }

    /// Stops every worker; returns the per-worker served counts.
    pub fn shutdown(self) -> Res<Vec<i64>> {
        self.inner.shutdown().map_err(err("fleet shutdown"))
    }
}

// ---- isolated calls for the per-layer rows ------------------------------

/// Single-layer operations the traced run times in isolation.
pub mod layer {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use dsu_obs::{Histogram, Journal, Stage};
    use flashed::{
        AsyncFs, BufferCache, Edge, EdgeConfig, HashRing, Inbox, Routed, ServerShared, SimFs,
    };

    use super::Route;

    pub fn parse_request(raw: &str) -> bool {
        flashed::parse_request(raw).is_some()
    }

    pub fn parse_response(raw: &str) -> bool {
        flashed::parse_response(raw).is_some()
    }

    /// Renders a 200 response around `body`.
    pub fn render_response(body: &str) -> String {
        flashed::Response {
            status: 200,
            headers: vec![
                ("Content-Type".to_string(), "text/html".to_string()),
                ("Content-Length".to_string(), body.len().to_string()),
            ],
            body: body.to_string(),
        }
        .render()
    }

    /// An edge over `workers` empty inboxes that nothing drains.
    pub fn edge(workers: usize, route: Route, capacity: usize) -> Edge {
        Edge::new(
            workers,
            &EdgeConfig::new(route.policy())
                .queue_capacity(capacity)
                .shed_responses(false),
            ServerShared::new(),
            None,
        )
    }

    pub fn route(edge: &Edge, request: &str) -> usize {
        edge.route(request)
    }

    /// Submits one request and pops it back off its inbox.
    pub fn submit_and_pop(edge: &Edge, request: String) -> bool {
        match edge.submit(request) {
            Ok(w) => edge.inbox(w).pop().is_some(),
            Err(_) => false,
        }
    }

    pub fn inbox(capacity: usize) -> Inbox {
        Inbox::new(capacity)
    }

    pub fn inbox_push_pop(inbox: &Inbox, request: String) -> bool {
        inbox
            .try_push(Routed {
                request,
                accepted_at: Instant::now(),
            })
            .is_ok()
            && inbox.pop().is_some()
    }

    /// The share of `keys` the busiest of `workers` ring owners holds,
    /// over the fair share (1.0 = perfectly even).
    pub fn hash_imbalance(workers: usize, keys: &[String]) -> f64 {
        let ring = HashRing::new(workers, EdgeConfig::default().vnodes);
        let mut counts = vec![0usize; workers];
        for k in keys {
            counts[ring.pick(k)] += 1;
        }
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        max / (keys.len() as f64 / workers as f64)
    }

    /// A buffer cache of `capacity` holding `paths`' bodies.
    pub fn warm_cache(capacity: usize, paths: &[String], body: &str) -> BufferCache {
        let cache = BufferCache::new(capacity);
        for p in paths {
            cache.insert(p, body.to_string());
        }
        cache
    }

    pub fn cache_lookup(cache: &BufferCache, path: &str) -> bool {
        cache.lookup(path).is_some()
    }

    pub fn async_fs(fs: SimFs, helpers: usize, cache_entries: usize) -> AsyncFs {
        AsyncFs::new(fs, helpers, cache_entries)
    }

    /// Submits one uncached read and polls until its completion posts.
    pub fn async_read(afs: &AsyncFs, path: &str) -> bool {
        afs.cache().invalidate(path);
        let ticket = afs.submit(path);
        loop {
            if let Some(c) = afs.poll().into_iter().find(|c| c.ticket == ticket) {
                return c.content.is_some();
            }
            std::hint::spin_loop();
        }
    }

    pub fn journal() -> Journal {
        Journal::new()
    }

    pub fn journal_record(journal: &Journal, update: u64) {
        journal.record(
            Some(0),
            update,
            "v1",
            "v2",
            Stage::Verify,
            Some(Duration::from_micros(7)),
            None,
        );
    }

    pub fn histogram() -> Arc<Histogram> {
        Arc::new(Histogram::new(&[10, 50, 100, 500, 1000, 5000, 10_000]))
    }

    pub fn histogram_observe(h: &Histogram, d: Duration) {
        h.observe(d);
    }
}
