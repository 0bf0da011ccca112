//! The telemetry layer end to end: per-server instruments, the fleet
//! scrape, journal/report agreement, version skew, and typed fleet
//! errors.

use std::time::Duration;

use dsu_obs::journal::validate_lifecycle;
use flashed::telemetry::names;
use flashed::{
    patch_stream, versions, CrashPoint, EdgeConfig, FaultPlan, Fleet, FleetConfig, FleetError,
    RolloutPlan, RoutePolicy, Server, ServerConfig, ServerTelemetry, SimFs, WorkerFailure,
    Workload,
};

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(16, 256, 11);
    let wl = Workload::new(fs.paths(), 1.0, 23);
    (fs, wl)
}

#[test]
fn server_records_request_metrics_and_lifecycle() {
    let (fs, mut wl) = fixture();
    let tel = ServerTelemetry::new();
    let mut s = Server::start(
        &ServerConfig::new().telemetry(tel.clone()),
        &versions::v1(),
        "v1",
        fs,
    )
    .unwrap();

    s.push_requests(wl.batch(40));
    let gen = dsu_core::PatchGen::new()
        .generate(&versions::v1(), &versions::v2(), "v1", "v2")
        .unwrap();
    s.queue_patch(gen.patch);
    assert_eq!(s.serve().unwrap(), 40);

    // Request-path instruments saw every request.
    let text = tel.registry().prometheus_text();
    assert!(
        text.contains(&format!("{} 40", names::REQUESTS_PULLED)),
        "{text}"
    );
    assert!(text.contains(&format!("{} 40", names::RESPONSES)), "{text}");
    assert_eq!(tel.service_histogram().count(), 40);
    assert!(tel.service_histogram().sum() > Duration::ZERO);
    // The update paused once; the pause histogram observed it.
    assert_eq!(tel.update_pause_histogram().count(), 1);
    // VM counters were published at the serve boundary.
    assert!(tel.vm_stats().snapshot().instrs > 0);
    assert!(text.contains(names::VM_INSTRS), "{text}");

    // The patch's lifecycle is fully journalled and agrees with the
    // updater's report exactly.
    let events = tel.journal().events_for(1);
    validate_lifecycle(&events).unwrap();
    let report = &s.updater.log()[0];
    let phase_sum: Duration = events
        .iter()
        .filter(|e| dsu_obs::Stage::PHASES.contains(&e.stage))
        .filter_map(|e| e.dur)
        .sum();
    assert_eq!(phase_sum, report.timings.total());
}

#[test]
fn fleet_scrape_merges_workers_and_tracks_skew() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(
        &FleetConfig::new(2).with_telemetry(),
        &versions::v3(),
        "v3",
        &fs,
    )
    .unwrap();
    let tel = fleet.telemetry().unwrap();
    assert_eq!(tel.version_skew(), 0, "uniform fleet at boot");

    fleet.push_requests(wl.batch(200));
    let gen = &patch_stream().unwrap()[2]; // v3 -> v4
    let report = fleet
        .rollout_plan(&gen.patch, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    fleet.drain(200).unwrap();
    assert!(report.complete());
    assert_eq!(tel.version_skew(), 0, "skew settles once all workers apply");

    // Journal: one committed lifecycle per worker, phase sums exact.
    let timeline = tel.timeline();
    assert_eq!(timeline.len(), 2);
    for (worker, r) in &report.applied {
        let row = timeline
            .iter()
            .find(|row| row.worker == Some(*worker))
            .unwrap();
        assert!(row.committed);
        assert_eq!(row.phase_total, r.timings.total());
    }
    for id in tel.journal().update_ids() {
        validate_lifecycle(&tel.journal().events_for(id)).unwrap();
    }

    // The merged scrape carries per-worker series and the fleet gauges.
    let text = tel.scrape_text();
    for w in 0..2 {
        assert!(
            text.contains(&format!("{}{{worker=\"{w}\"}}", names::REQUESTS_PULLED)),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "{}_count{{worker=\"{w}\"}}",
                names::SERVICE_SECONDS
            )),
            "{text}"
        );
    }
    assert!(
        text.contains(&format!("{} 0", names::VERSION_SKEW)),
        "{text}"
    );
    assert!(text.contains(&format!("{} 1", names::ROLLOUTS)), "{text}");
    assert!(text.contains(&format!("{} 2", names::WORKERS)), "{text}");
    let json = tel.scrape_json();
    assert!(
        json.contains(&format!("\"name\":\"{}\"", names::VERSION_SKEW)),
        "{json}"
    );

    fleet.shutdown().unwrap();
}

#[test]
fn failed_worker_keeps_context_in_report_and_journal() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(
        &FleetConfig::new(2).with_telemetry(),
        &versions::v1(),
        "v1",
        &fs,
    )
    .unwrap();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2

    // Canary on worker 0 so the fleet-wide rollout fails there.
    let canary = fleet.remote(0);
    canary.enqueue(gen.patch.clone());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while canary.applied_count() == 0 {
        assert!(std::time::Instant::now() < deadline, "canary never applied");
        std::thread::sleep(Duration::from_micros(200));
    }

    fleet.push_requests(wl.batch(100));
    let report = fleet
        .rollout_plan(&gen.patch, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    assert_eq!(report.failed.len(), 1);
    let (worker, failure) = &report.failed[0];
    assert_eq!(*worker, 0);
    // Satellite context: the failure log entry names the transition and
    // the failing phase, not just the raw error.
    assert_eq!(failure.from_version, "v1");
    assert_eq!(failure.to_version, "v2");
    assert!(!failure.phase.is_empty());
    assert!(failure
        .to_string()
        .contains(&format!("v1 -> v2 failed in {}", failure.phase)));

    // The journal closed that lifecycle as aborted, naming the phase.
    let tel = fleet.telemetry().unwrap();
    let aborted = tel
        .timeline()
        .into_iter()
        .find(|r| !r.committed && r.resolved_at.is_some())
        .expect("an aborted lifecycle");
    assert_eq!(aborted.worker, Some(0));
    assert!(
        aborted
            .detail
            .as_deref()
            .unwrap()
            .starts_with(failure.phase),
        "{:?}",
        aborted.detail
    );

    fleet.drain(100).unwrap();
    fleet.shutdown().unwrap();
}

#[test]
fn supervision_metrics_cover_restart_and_failover() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(2).supervised().with_telemetry().with_edge(
        EdgeConfig::new(RoutePolicy::ConsistentHash)
            .queue_capacity(4096)
            .shed_responses(true),
    );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    let tel = fleet.telemetry().unwrap();
    let edge = fleet.edge().unwrap().clone();

    // Boot state: both liveness gauges up, no restarts, no failovers.
    let text = tel.scrape_text();
    for w in 0..2 {
        assert!(
            text.contains(&format!("{}{{worker=\"{w}\"}} 1", names::WORKER_UP)),
            "{text}"
        );
    }
    assert!(
        text.contains(&format!("{} 0", names::WORKER_RESTARTS)),
        "{text}"
    );
    assert!(
        text.contains(&format!("{} 0", names::EDGE_FAILOVER)),
        "{text}"
    );

    let warm = edge.submit_all(wl.batch(60));
    assert_eq!(warm.shed, 0);
    fleet.drain(60).unwrap();

    // Kill worker 1 and let the supervisor bring it back: the death is
    // one edge failover (down transition rerouted) and one restart.
    fleet.inject_worker_fault(
        1,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while fleet.worker_epoch(1) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "supervised restart never completed"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(tel.worker_restarts(), 1);
    assert_eq!(tel.edge_failovers(), 1);
    assert_eq!(tel.worker_up(1), 1, "rejoin must restore the gauge");

    // The scrape carries the whole story: counters moved, gauge restored.
    let text = tel.scrape_text();
    assert!(
        text.contains(&format!("{} 1", names::WORKER_RESTARTS)),
        "{text}"
    );
    assert!(
        text.contains(&format!("{} 1", names::EDGE_FAILOVER)),
        "{text}"
    );
    assert!(
        text.contains(&format!("{}{{worker=\"1\"}} 1", names::WORKER_UP)),
        "{text}"
    );

    // The restarted incarnation serves through the edge like any other.
    let before = fleet.completions().len();
    let tail = edge.submit_all(wl.batch(40));
    fleet.drain(before + tail.admitted).unwrap();
    fleet.shutdown().unwrap();
}

#[test]
fn fleet_errors_are_typed_and_displayed() {
    // Boot failure: garbage source cannot compile.
    let fs = SimFs::generate_fixed(4, 64, 1);
    let err = Fleet::start_cfg(&FleetConfig::new(2), "not popcorn", "v1", &fs).unwrap_err();
    match &err {
        FleetError::Worker {
            worker,
            cause: WorkerFailure::Boot(msg),
        } => {
            assert_eq!(*worker, 0);
            assert!(msg.contains("boot"), "{msg}");
        }
        other => panic!("expected a boot failure, got {other}"),
    }
    assert!(err.to_string().starts_with("worker 0:"), "{err}");

    // The other variants render their context. A stall attributes its
    // backlog per inbox: one entry per worker behind an edge, a single
    // entry for the shared inbox without one.
    let e = FleetError::QueueStall {
        per_worker: vec![0, 4, 1],
        completed: 7,
        expected: 10,
    };
    assert_eq!(
        e.to_string(),
        "fleet did not drain: [0, 4, 1] queued, 7/10 completed"
    );
    let e = FleetError::RolloutStalled { worker: 2 };
    assert_eq!(e.to_string(), "worker 2 did not reach an update boundary");
    let e = FleetError::Worker {
        worker: 1,
        cause: WorkerFailure::Panic,
    };
    assert_eq!(e.to_string(), "worker 1: panicked");
    // FleetError is a real error type.
    let _: &dyn std::error::Error = &e;
}
