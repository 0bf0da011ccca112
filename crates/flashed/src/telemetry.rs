//! FlashEd telemetry: per-server instruments and fleet-wide scraping.
//!
//! A [`ServerTelemetry`] bundles the observability surface of one server:
//! a lifecycle [`Journal`] (attached to the server's updater so every
//! patch traversal is recorded), a metrics [`Registry`] of request and
//! update-pause instruments, and a [`vm::ExecStatsShared`] mirror the
//! worker publishes its interpreter counters into at quiescent
//! boundaries.
//!
//! A [`FleetTelemetry`] is the coordinator's view of N of those: one
//! shared journal (events worker-tagged), one labelled registry per
//! worker, a coordinator registry carrying fleet-level series — most
//! importantly the live **version-skew gauge**, the number of distinct
//! versions serving at once — and merged Prometheus/JSON scrapes, the
//! same document a Prometheus server scraping N targets would assemble.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dsu_obs::metrics::LATENCY_BOUNDS_US;
use dsu_obs::{
    aggregate_json, aggregate_text, Counter, Gauge, Histogram, Journal, Registry, Tracer,
};
use vm::{ExecStats, ExecStatsShared};

/// Metric names exposed by every FlashEd server. Public so tests and
/// dashboards don't hard-code strings.
pub mod names {
    /// Requests pulled off an inbox (counter).
    pub const REQUESTS_PULLED: &str = "flashed_requests_pulled_total";
    /// Responses sent (counter; includes unpulled responses).
    pub const RESPONSES: &str = "flashed_responses_total";
    /// Per-request service time, update pauses excluded (histogram).
    pub const SERVICE_SECONDS: &str = "flashed_request_service_seconds";
    /// Update-pause durations (histogram).
    pub const UPDATE_PAUSE_SECONDS: &str = "flashed_update_pause_seconds";
    /// Requests waiting in the worker's inbox (gauge, sampled at pulls).
    pub const QUEUE_DEPTH: &str = "flashed_queue_depth";
    /// Requests waiting in this worker's edge inbox (gauge, written by
    /// the edge at routing time and by the worker at pulls — the same
    /// number [`RoutePolicy::LeastLoaded`](crate::RoutePolicy) reads
    /// live).
    pub const EDGE_QUEUE_DEPTH: &str = "flashed_edge_queue_depth";
    /// Requests shed at admission because this worker's inbox was full
    /// (counter).
    pub const EDGE_SHED: &str = "flashed_edge_shed_total";
    /// End-to-end request sojourn: edge admission → response sent, queue
    /// wait included, update pauses excluded (histogram).
    pub const SOJOURN_SECONDS: &str = "flashed_request_sojourn_seconds";
    /// Requests the edge admitted into some worker inbox (coordinator
    /// counter).
    pub const EDGE_ADMITTED: &str = "edge_requests_admitted_total";
    /// Requests the edge shed across all workers (coordinator counter).
    pub const EDGE_SHED_TOTAL: &str = "edge_requests_shed_total";
    /// Interpreter instructions executed (counter, published at
    /// quiescent boundaries).
    pub const VM_INSTRS: &str = "flashed_vm_instructions_total";
    /// Guest update points executed (counter).
    pub const VM_UPDATE_POINTS: &str = "flashed_vm_update_points_total";
    /// Slot calls answered by a warm inline cache (counter, published at
    /// quiescent boundaries).
    pub const VM_IC_HITS: &str = "flashed_vm_ic_hits_total";
    /// Slot calls that (re-)resolved through the indirection table
    /// (counter).
    pub const VM_IC_MISSES: &str = "flashed_vm_ic_misses_total";
    /// Guest calls whose frame buffers came from the recycling pool
    /// (counter).
    pub const VM_POOL_HITS: &str = "flashed_vm_frame_pool_hits_total";
    /// Guest calls that allocated fresh frame buffers (counter).
    pub const VM_POOL_MISSES: &str = "flashed_vm_frame_pool_misses_total";
    /// Buffer-cache hits on the event-loop read path (counter).
    pub const CACHE_HITS: &str = "flashed_cache_hits_total";
    /// Buffer-cache misses — reads that went to a helper (counter).
    pub const CACHE_MISSES: &str = "flashed_cache_misses_total";
    /// Buffer-cache entries dropped: LRU pressure plus write-through
    /// invalidations (counter).
    pub const CACHE_EVICTIONS: &str = "flashed_cache_evictions_total";
    /// Device reads that failed on an existing file (counter) — the
    /// error signal guarded rollouts watch.
    pub const READ_ERRORS: &str = "flashed_read_errors_total";
    /// Reads submitted to helpers and not yet completed (gauge).
    pub const READS_IN_FLIGHT: &str = "flashed_reads_in_flight";
    /// Distinct versions live across the fleet, minus one (gauge).
    pub const VERSION_SKEW: &str = "fleet_version_skew";
    /// Rollouts started (counter).
    pub const ROLLOUTS: &str = "fleet_rollouts_total";
    /// Fleet size (gauge).
    pub const WORKERS: &str = "fleet_workers";
    /// Whether this worker's current incarnation is alive (per-worker
    /// liveness gauge, flipped by the fleet supervisor).
    pub const WORKER_UP: &str = "flashed_worker_up";
    /// Supervised worker restarts completed (coordinator counter).
    pub const WORKER_RESTARTS: &str = "flashed_worker_restarts_total";
    /// Edge failovers handled — down transitions that rerouted a dead
    /// worker's traffic (coordinator counter).
    pub const EDGE_FAILOVER: &str = "flashed_edge_failover_total";
}

/// One server's telemetry bundle. Cheap to clone; clones share every
/// instrument, the journal and the VM-stats mirror.
#[derive(Clone)]
pub struct ServerTelemetry {
    journal: Journal,
    registry: Registry,
    worker: Option<usize>,
    vm_stats: Arc<ExecStatsShared>,
    requests_pulled: Counter,
    responses: Counter,
    service: Histogram,
    sojourn: Histogram,
    update_pause: Histogram,
    queue_depth: Gauge,
    edge_depth: Gauge,
    edge_shed: Counter,
    vm_instrs: Counter,
    vm_update_points: Counter,
    vm_ic_hits: Counter,
    vm_ic_misses: Counter,
    vm_pool_hits: Counter,
    vm_pool_misses: Counter,
    tracer: Option<Tracer>,
    vm_profile: Arc<Mutex<Option<String>>>,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    read_errors: Counter,
    reads_in_flight: Gauge,
    worker_up: Gauge,
}

impl std::fmt::Debug for ServerTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerTelemetry")
            .field("worker", &self.worker)
            .field("journal_events", &self.journal.len())
            .finish()
    }
}

impl Default for ServerTelemetry {
    fn default() -> ServerTelemetry {
        ServerTelemetry::new()
    }
}

impl ServerTelemetry {
    /// Telemetry for a standalone server: fresh journal, unlabelled
    /// registry.
    pub fn new() -> ServerTelemetry {
        ServerTelemetry::build(Journal::new(), Registry::new(), None)
    }

    /// Telemetry for fleet worker `worker`: events tagged with the worker
    /// id, every metric labelled `worker="<id>"`, journal shared with the
    /// rest of the fleet.
    pub fn for_worker(journal: Journal, worker: usize) -> ServerTelemetry {
        let registry = Registry::with_labels(&[("worker", &worker.to_string())]);
        ServerTelemetry::build(journal, registry, Some(worker))
    }

    fn build(journal: Journal, registry: Registry, worker: Option<usize>) -> ServerTelemetry {
        let requests_pulled =
            registry.counter(names::REQUESTS_PULLED, "requests pulled off an inbox");
        let responses = registry.counter(names::RESPONSES, "responses sent");
        let service = registry.histogram(
            names::SERVICE_SECONDS,
            "per-request service time (update pauses excluded)",
            &LATENCY_BOUNDS_US,
        );
        let update_pause = registry.histogram(
            names::UPDATE_PAUSE_SECONDS,
            "update-pause durations (gate wait + apply)",
            &LATENCY_BOUNDS_US,
        );
        let sojourn = registry.histogram(
            names::SOJOURN_SECONDS,
            "end-to-end sojourn: edge admission to response (queue wait included)",
            &LATENCY_BOUNDS_US,
        );
        let queue_depth = registry.gauge(
            names::QUEUE_DEPTH,
            "requests waiting in the worker's inbox (sampled at pulls)",
        );
        let edge_depth = registry.gauge(
            names::EDGE_QUEUE_DEPTH,
            "requests waiting in this worker's edge inbox",
        );
        let edge_shed =
            registry.counter(names::EDGE_SHED, "requests shed at admission (inbox full)");
        let vm_instrs = registry.counter(
            names::VM_INSTRS,
            "interpreter instructions executed (published at quiescent boundaries)",
        );
        let vm_update_points = registry.counter(
            names::VM_UPDATE_POINTS,
            "guest update points executed (published at quiescent boundaries)",
        );
        let vm_ic_hits = registry.counter(
            names::VM_IC_HITS,
            "slot calls answered by a warm inline cache",
        );
        let vm_ic_misses = registry.counter(
            names::VM_IC_MISSES,
            "slot calls that (re-)resolved through the indirection table",
        );
        let vm_pool_hits = registry.counter(
            names::VM_POOL_HITS,
            "guest calls whose frame buffers came from the recycling pool",
        );
        let vm_pool_misses = registry.counter(
            names::VM_POOL_MISSES,
            "guest calls that allocated fresh frame buffers",
        );
        let cache_hits = registry.counter(
            names::CACHE_HITS,
            "buffer-cache hits on the event-loop read path",
        );
        let cache_misses = registry.counter(
            names::CACHE_MISSES,
            "buffer-cache misses (reads that went to a helper)",
        );
        let cache_evictions = registry.counter(
            names::CACHE_EVICTIONS,
            "buffer-cache entries dropped (LRU pressure + invalidations)",
        );
        let read_errors = registry.counter(
            names::READ_ERRORS,
            "device reads that failed on an existing file",
        );
        let reads_in_flight = registry.gauge(
            names::READS_IN_FLIGHT,
            "reads submitted to helpers and not yet completed",
        );
        let worker_up = registry.gauge(
            names::WORKER_UP,
            "whether this worker's current incarnation is alive",
        );
        worker_up.set(1);
        ServerTelemetry {
            journal,
            registry,
            worker,
            vm_stats: Arc::new(ExecStatsShared::new()),
            requests_pulled,
            responses,
            service,
            sojourn,
            update_pause,
            queue_depth,
            edge_depth,
            edge_shed,
            vm_instrs,
            vm_update_points,
            vm_ic_hits,
            vm_ic_misses,
            vm_pool_hits,
            vm_pool_misses,
            tracer: None,
            vm_profile: Arc::new(Mutex::new(None)),
            cache_hits,
            cache_misses,
            cache_evictions,
            read_errors,
            reads_in_flight,
            worker_up,
        }
    }

    /// Attaches a span [`Tracer`]: the server emits request spans, its
    /// updater emits update/phase spans, all into this collector. Fleet
    /// workers share one tracer so intervals are comparable fleet-wide.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> ServerTelemetry {
        self.tracer = Some(tracer);
        self
    }

    /// The attached span tracer, if tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Stores the worker's collapsed-stack VM profile (published at
    /// clean shutdown when profiling is on).
    pub fn set_vm_profile(&self, collapsed: String) {
        *self.vm_profile.lock().expect("profile lock") = Some(collapsed);
    }

    /// The last published collapsed-stack VM profile, if any.
    pub fn vm_profile(&self) -> Option<String> {
        self.vm_profile.lock().expect("profile lock").clone()
    }

    /// The lifecycle journal (shared fleet-wide for fleet workers).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The metrics registry backing this server's instruments.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The worker tag stamped onto journal events, if any.
    pub fn worker(&self) -> Option<usize> {
        self.worker
    }

    /// The cross-thread mirror of the server's interpreter counters.
    pub fn vm_stats(&self) -> &Arc<ExecStatsShared> {
        &self.vm_stats
    }

    /// The per-request service-time histogram.
    pub fn service_histogram(&self) -> &Histogram {
        &self.service
    }

    /// The update-pause histogram.
    pub fn update_pause_histogram(&self) -> &Histogram {
        &self.update_pause
    }

    /// The end-to-end sojourn histogram (edge admission → response).
    pub fn sojourn_histogram(&self) -> &Histogram {
        &self.sojourn
    }

    pub(crate) fn record_pull(&self, queue_remaining: usize) {
        self.requests_pulled.inc();
        self.queue_depth.set(queue_remaining as i64);
        self.set_edge_depth(queue_remaining);
    }

    /// Publishes this worker's live edge-inbox depth. Written by the
    /// edge at routing time and by the worker at pulls, so the gauge
    /// tracks the same number LeastLoaded routing reads.
    pub(crate) fn set_edge_depth(&self, depth: usize) {
        self.edge_depth.set(depth as i64);
    }

    /// Counts one request shed at admission because this worker's inbox
    /// was full. Recorded immediately — a load generator polling the
    /// scrape mid-run must see sheds as they happen.
    pub(crate) fn record_edge_shed(&self) {
        self.edge_shed.inc();
    }

    pub(crate) fn record_sojourn(&self, dur: Duration) {
        self.sojourn.observe(dur);
    }

    /// Requests shed at this worker's inbox so far.
    pub fn edge_sheds(&self) -> u64 {
        self.edge_shed.get()
    }

    /// Last published edge-inbox depth for this worker.
    pub fn edge_depth(&self) -> i64 {
        self.edge_depth.get()
    }

    pub(crate) fn record_response(&self, service: Option<Duration>) {
        self.responses.inc();
        if let Some(d) = service {
            self.service.observe(d);
        }
    }

    pub(crate) fn record_update_pause(&self, dur: Duration) {
        self.update_pause.observe(dur);
    }

    /// Publishes the interpreter counters (mirror + counter metrics).
    /// Called by the server at quiescent boundaries.
    pub(crate) fn publish_vm_stats(&self, stats: &ExecStats) {
        self.vm_stats.publish(stats);
        self.vm_instrs.store(stats.instrs);
        self.vm_update_points.store(stats.update_points);
        self.vm_ic_hits.store(stats.ic_hits);
        self.vm_ic_misses.store(stats.ic_misses);
        self.vm_pool_hits.store(stats.pool_hits);
        self.vm_pool_misses.store(stats.pool_misses);
    }

    /// Publishes buffer-cache counters and the in-flight-reads gauge.
    /// Called by event-loop servers at quiescent boundaries.
    pub(crate) fn publish_cache(&self, hits: u64, misses: u64, evictions: u64, in_flight: usize) {
        self.cache_hits.store(hits);
        self.cache_misses.store(misses);
        self.cache_evictions.store(evictions);
        self.reads_in_flight.set(in_flight as i64);
    }

    /// Counts one failed device read on an existing file. Recorded
    /// immediately (not at publish boundaries): a health gate polling
    /// mid-rollout must see the error before the worker next quiesces.
    pub(crate) fn record_read_error(&self) {
        self.read_errors.inc();
    }

    /// Buffer-cache hits published so far (zero in blocking mode).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Buffer-cache misses published so far (zero in blocking mode).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.get()
    }

    /// Buffer-cache entries dropped so far (LRU + invalidations).
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.get()
    }

    /// Failed device reads on existing files so far.
    pub fn read_errors(&self) -> u64 {
        self.read_errors.get()
    }

    /// Current liveness reading (1 up, 0 down).
    pub fn worker_up(&self) -> i64 {
        self.worker_up.get()
    }
}

/// The coordinator's telemetry over a whole fleet: shared journal,
/// per-worker registries, fleet-level gauges, merged scrapes.
pub struct FleetTelemetry {
    journal: Journal,
    coordinator: Registry,
    workers: Vec<ServerTelemetry>,
    version_skew: Gauge,
    rollouts: Counter,
    edge_admitted: Counter,
    edge_shed: Counter,
    worker_restarts: Counter,
    edge_failovers: Counter,
    tracer: Option<Tracer>,
}

impl std::fmt::Debug for FleetTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTelemetry")
            .field("workers", &self.workers.len())
            .field("journal_events", &self.journal.len())
            .finish()
    }
}

impl FleetTelemetry {
    /// Builds telemetry for an `n`-worker fleet: one shared journal, one
    /// labelled [`ServerTelemetry`] per worker, a coordinator registry
    /// with the version-skew gauge and rollout counter.
    pub fn new(n: usize) -> FleetTelemetry {
        FleetTelemetry::build(n, 0, Journal::new(), None)
    }

    /// [`FleetTelemetry::new`] plus one fleet-shared span [`Tracer`]:
    /// every worker's [`ServerTelemetry`] carries a clone, so request,
    /// update and rollout spans land in one collector on one epoch —
    /// the precondition for cross-worker latency attribution.
    pub fn with_tracing(n: usize) -> FleetTelemetry {
        FleetTelemetry::build(n, 0, Journal::new(), Some(Tracer::new()))
    }

    /// Builds telemetry whose events land in a caller-supplied `journal`
    /// (possibly write-ahead-backed, possibly shared with other fleets)
    /// and whose worker tags start at `worker_base` — the constructor an
    /// orchestrator uses to give every shard fleet globally unique worker
    /// ids in one stream.
    pub fn shared(
        n: usize,
        worker_base: usize,
        journal: Journal,
        tracer: Option<Tracer>,
    ) -> FleetTelemetry {
        FleetTelemetry::build(n, worker_base, journal, tracer)
    }

    fn build(
        n: usize,
        worker_base: usize,
        journal: Journal,
        tracer: Option<Tracer>,
    ) -> FleetTelemetry {
        let coordinator = Registry::new();
        let version_skew = coordinator.gauge(
            names::VERSION_SKEW,
            "distinct versions live across the fleet, minus one",
        );
        let rollouts = coordinator.counter(names::ROLLOUTS, "rollouts started");
        let edge_admitted = coordinator.counter(
            names::EDGE_ADMITTED,
            "requests the edge admitted into a worker inbox",
        );
        let edge_shed = coordinator.counter(
            names::EDGE_SHED_TOTAL,
            "requests the edge shed across all workers",
        );
        let worker_restarts = coordinator.counter(
            names::WORKER_RESTARTS,
            "supervised worker restarts completed",
        );
        let edge_failovers = coordinator.counter(
            names::EDGE_FAILOVER,
            "edge failovers handled (dead-worker down transitions rerouted)",
        );
        coordinator
            .gauge(names::WORKERS, "fleet size")
            .set(n as i64);
        let workers = (0..n)
            .map(|i| {
                let t = ServerTelemetry::for_worker(journal.clone(), worker_base + i);
                match &tracer {
                    Some(tr) => t.with_tracer(tr.clone()),
                    None => t,
                }
            })
            .collect();
        FleetTelemetry {
            journal,
            coordinator,
            workers,
            version_skew,
            rollouts,
            edge_admitted,
            edge_shed,
            worker_restarts,
            edge_failovers,
            tracer,
        }
    }

    /// The fleet-shared span tracer, if tracing is on.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The fleet-wide lifecycle journal (events worker-tagged).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The coordinator's own registry (skew gauge, rollout counter).
    pub fn coordinator(&self) -> &Registry {
        &self.coordinator
    }

    /// Telemetry bundle of worker `i`.
    pub fn worker(&self, i: usize) -> &ServerTelemetry {
        &self.workers[i]
    }

    /// Fleet size this telemetry was built for.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Every registry, coordinator first — the scrape set.
    pub fn registries(&self) -> Vec<Registry> {
        let mut rs = vec![self.coordinator.clone()];
        rs.extend(self.workers.iter().map(|w| w.registry.clone()));
        rs
    }

    /// One merged Prometheus text exposition over the whole fleet.
    pub fn scrape_text(&self) -> String {
        aggregate_text(&self.registries())
    }

    /// One merged JSON snapshot over the whole fleet.
    pub fn scrape_json(&self) -> String {
        aggregate_json(&self.registries())
    }

    /// The rollout timeline reconstructed from the shared journal.
    pub fn timeline(&self) -> Vec<dsu_obs::RolloutRow> {
        dsu_obs::fleet::rollout_timeline(&self.journal.events())
    }

    /// Current version-skew reading.
    pub fn version_skew(&self) -> i64 {
        self.version_skew.get()
    }

    /// Recomputes the skew gauge from the set of versions currently live
    /// (distinct count minus one; zero for a uniform fleet). Returns the
    /// new reading. The coordinator calls this as workers step through a
    /// rollout.
    pub fn set_live_versions(&self, versions: &[String]) -> i64 {
        let mut distinct: Vec<&String> = versions.iter().collect();
        distinct.sort();
        distinct.dedup();
        let skew = distinct.len().saturating_sub(1) as i64;
        self.version_skew.set(skew);
        skew
    }

    pub(crate) fn record_rollout_start(&self) {
        self.rollouts.inc();
    }

    pub(crate) fn record_edge_admitted(&self) {
        self.edge_admitted.inc();
    }

    pub(crate) fn record_edge_shed_total(&self) {
        self.edge_shed.inc();
    }

    /// Requests the edge admitted into some worker inbox so far.
    pub fn edge_admitted(&self) -> u64 {
        self.edge_admitted.get()
    }

    /// Requests the edge shed (all workers) so far.
    pub fn edge_shed(&self) -> u64 {
        self.edge_shed.get()
    }

    /// Flips worker `i`'s liveness gauge (the supervisor's detection and
    /// rejoin both land here).
    pub(crate) fn set_worker_up(&self, i: usize, up: bool) {
        self.workers[i].worker_up.set(i64::from(up));
    }

    /// Counts one completed supervised restart.
    pub(crate) fn record_worker_restart(&self) {
        self.worker_restarts.inc();
    }

    /// Counts one edge failover (a down transition rerouted).
    pub(crate) fn record_edge_failover(&self) {
        self.edge_failovers.inc();
    }

    /// Supervised restarts completed so far.
    pub fn worker_restarts(&self) -> u64 {
        self.worker_restarts.get()
    }

    /// Edge failovers handled so far.
    pub fn edge_failovers(&self) -> u64 {
        self.edge_failovers.get()
    }

    /// Worker `i`'s liveness reading (1 up, 0 down).
    pub fn worker_up(&self, i: usize) -> i64 {
        self.workers[i].worker_up()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_counts_distinct_versions() {
        let t = FleetTelemetry::new(3);
        assert_eq!(
            t.set_live_versions(&["v1".into(), "v1".into(), "v1".into()]),
            0
        );
        assert_eq!(
            t.set_live_versions(&["v1".into(), "v2".into(), "v1".into()]),
            1
        );
        assert_eq!(t.version_skew(), 1);
    }

    #[test]
    fn fleet_scrape_labels_workers() {
        let t = FleetTelemetry::new(2);
        t.worker(0).record_pull(5);
        t.worker(1).record_pull(4);
        let text = t.scrape_text();
        assert!(
            text.contains("flashed_requests_pulled_total{worker=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("flashed_requests_pulled_total{worker=\"1\"} 1"),
            "{text}"
        );
        assert!(text.contains("fleet_workers 2"), "{text}");
        // One header per metric name despite two worker series.
        assert_eq!(
            text.matches("# TYPE flashed_requests_pulled_total counter")
                .count(),
            1
        );
    }

    #[test]
    fn vm_publish_mirrors_counters() {
        let t = ServerTelemetry::new();
        let stats = ExecStats {
            instrs: 100,
            calls: 10,
            slot_calls: 5,
            ic_hits: 4,
            ic_misses: 1,
            host_calls: 3,
            update_points: 2,
            pool_hits: 9,
            pool_misses: 1,
            records_migrated: 0,
        };
        t.publish_vm_stats(&stats);
        assert_eq!(t.vm_stats().snapshot().instrs, 100);
        let text = t.registry().prometheus_text();
        assert!(text.contains("flashed_vm_instructions_total 100"), "{text}");
        assert!(text.contains("flashed_vm_update_points_total 2"), "{text}");
        assert!(text.contains("flashed_vm_ic_hits_total 4"), "{text}");
        assert!(text.contains("flashed_vm_ic_misses_total 1"), "{text}");
        assert!(
            text.contains("flashed_vm_frame_pool_hits_total 9"),
            "{text}"
        );
        assert!(
            text.contains("flashed_vm_frame_pool_misses_total 1"),
            "{text}"
        );
    }

    #[test]
    fn tracing_fleet_shares_one_tracer() {
        let t = FleetTelemetry::with_tracing(2);
        let tr = t.tracer().expect("tracing on");
        assert!(t.worker(0).tracer().is_some());
        assert!(t.worker(1).tracer().is_some());
        // Shared, not per-worker: ids allocated through one worker's
        // handle are visible to the fleet handle.
        let id = t.worker(0).tracer().unwrap().next_trace_id();
        assert!(tr.next_trace_id() > id);
        assert!(FleetTelemetry::new(2).tracer().is_none());
    }
}
