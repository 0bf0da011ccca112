//! Causal-tracing invariants end to end: request spans nest inside
//! their roots, update spans nest under the fleet's rollout root, span
//! durations reconcile exactly with the reports' [`PhaseTimings`] sums,
//! and the latency-attribution report charges each delayed request to
//! exactly one update.

use std::time::Duration;

use dsu_obs::journal::validate_lifecycle;
use dsu_obs::{stall_report, to_chrome_trace, validate_spans, SpanKind};
use flashed::fault::FaultPlan;
use flashed::{
    versions, BreachAction, EventLoopConfig, Fleet, FleetConfig, PauseSlo, RolloutPlan, ServeMode,
    SimFs, WorkerOverride, Workload,
};

fn fixture() -> (SimFs, Workload) {
    let mut fs = SimFs::generate_fixed(16, 256, 7);
    fs.set_read_latency(Duration::from_micros(200));
    let wl = Workload::new(fs.paths(), 1.0, 41);
    (fs, wl)
}

fn forward_patch() -> dsu_core::Patch {
    flashed::patch_stream().unwrap()[0].patch.clone() // v1 -> v2
}

fn inverse_patch() -> dsu_core::Patch {
    dsu_core::PatchGen::new()
        .generate(&versions::v2(), &versions::v1(), "v2", "v1")
        .unwrap()
        .patch
}

/// A traced guarded rollout over an AMPED fleet, mid-traffic: the span
/// forest validates, every update span parents under the one rollout
/// root, phase children sum exactly to the reports' `PhaseTimings`, the
/// journal cross-links resolve, and the stall report's books balance.
#[test]
fn guarded_rollout_spans_nest_and_reconcile() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(2)
        .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
        .with_tracing();
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(300));

    let slo = PauseSlo::p99(Duration::from_millis(500));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::Hold);
    let run = fleet.rollout_plan(&forward_patch(), &plan).unwrap();
    let (report, card) = (run.fleet_report, run.card);
    assert_eq!(report.applied.len(), 2);
    assert!(card.converged(), "{:?}", card.final_versions);
    fleet.drain(300).unwrap();

    let tel = fleet.telemetry().unwrap();
    let tracer = tel.tracer().unwrap().clone();
    let journal = tel.journal().clone();
    fleet.shutdown().unwrap();
    let spans = tracer.spans();

    // The whole forest is structurally sound: every parent exists, every
    // child starts and ends inside its parent, ids are unique.
    validate_spans(&spans).unwrap();

    // One rollout root; every update span nests directly under it, in
    // the same trace, inside its window.
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Rollout)
        .collect();
    assert_eq!(roots.len(), 1);
    let root = roots[0];
    assert_eq!(root.detail.as_deref(), Some("v1->v2"));
    let updates: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Update)
        .collect();
    assert_eq!(updates.len(), 2);
    for u in &updates {
        assert_eq!(u.parent, Some(root.id));
        assert_eq!(u.trace, root.trace);
    }

    // Span durations reuse the reports' exact `Duration`s, so each update
    // span's phase children sum to its report's `PhaseTimings::total()`
    // exactly (gate-wait is coordination overlap, not pause work).
    for (wid, r) in &report.applied {
        let u = updates
            .iter()
            .find(|s| s.worker == Some(*wid))
            .expect("every applied update has a span");
        let phase_sum: Duration = spans
            .iter()
            .filter(|s| {
                s.kind == SpanKind::UpdatePhase && s.parent == Some(u.id) && s.name != "gate-wait"
            })
            .map(|s| s.dur)
            .sum();
        assert_eq!(phase_sum, r.timings.total(), "worker {wid}");
    }

    // Journal cross-links: every lifecycle validates, and the span ids
    // stamped on its events resolve to real spans in the same trace.
    for id in journal.update_ids() {
        let events = journal.events_for(id);
        validate_lifecycle(&events).unwrap();
        for e in &events {
            if let (Some(trace), Some(span)) = (e.trace, e.span) {
                let s = spans
                    .iter()
                    .find(|s| s.id == span)
                    .expect("journalled span id resolves");
                assert_eq!(s.trace, trace);
            }
        }
    }

    // Request spans exist (sampling defaults to 1-in-1) and each carries
    // its AMPED lifecycle children.
    let requests: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .collect();
    assert!(!requests.is_empty());
    for r in requests.iter().take(10) {
        assert!(spans
            .iter()
            .any(|s| s.kind == SpanKind::RequestPhase && s.parent == Some(r.id)));
    }

    // Attribution: per update, attributed + unattributed covers the phase
    // total exactly, and every request charged pause time overlapped
    // exactly one update.
    let stalls = stall_report(&spans);
    assert!(stalls.requests_seen > 0);
    for u in &stalls.updates {
        assert_eq!(u.attributed + u.unattributed, u.phase_total);
    }
    for r in &stalls.requests {
        if r.attributed > Duration::ZERO {
            assert_eq!(r.overlapping_updates, 1, "request {}", r.request);
        }
    }

    // The Chrome export is loadable JSON with one complete event per
    // span (plus process/thread-name metadata).
    let chrome = to_chrome_trace(&spans);
    assert!(chrome.starts_with("{\"traceEvents\":[") && chrome.trim_end().ends_with("]}"));
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), spans.len());
}

/// Sampling `0` mutes request spans without touching update or rollout
/// spans — the knob that makes tracing cheap enough to leave on.
#[test]
fn sampling_zero_keeps_update_spans_only() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(2)
        .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
        .with_tracing();
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    let tracer = fleet.telemetry().unwrap().tracer().unwrap().clone();
    tracer.set_sampling(0);

    fleet.push_requests(wl.batch(120));
    fleet
        .rollout_plan(&forward_patch(), &RolloutPlan::rolling())
        .unwrap();
    fleet.drain(120).unwrap();
    fleet.shutdown().unwrap();

    let spans = tracer.spans();
    validate_spans(&spans).unwrap();
    assert!(spans
        .iter()
        .all(|s| s.kind != SpanKind::Request && s.kind != SpanKind::RequestPhase));
    assert_eq!(
        spans.iter().filter(|s| s.kind == SpanKind::Update).count(),
        2
    );
    assert_eq!(
        spans.iter().filter(|s| s.kind == SpanKind::Rollout).count(),
        1
    );
}

/// A breached guarded rollout that rolls back still leaves a clean
/// trace: forward and reverse update spans both nest under the rollout
/// root, the rollback span is named distinctly, and the stall report
/// flags it.
#[test]
fn rollback_spans_nest_under_the_rollout_root() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(3).with_tracing().override_worker(
        0,
        WorkerOverride {
            fault: FaultPlan {
                pause_delay: Some(Duration::from_millis(8)),
                ..FaultPlan::default()
            },
            ..WorkerOverride::default()
        },
    );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(150));

    let slo = PauseSlo::p99(Duration::from_millis(2));
    let inverse = Some(Box::new(inverse_patch()));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::RollBack { inverse });
    let card = fleet.rollout_plan(&forward_patch(), &plan).unwrap().card;
    assert_eq!(card.rollbacks.len(), 1);
    fleet.drain(150).unwrap();

    let tel = fleet.telemetry().unwrap();
    let tracer = tel.tracer().unwrap().clone();
    let journal = tel.journal().clone();
    fleet.shutdown().unwrap();
    let spans = tracer.spans();
    validate_spans(&spans).unwrap();
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }

    let root = spans
        .iter()
        .find(|s| s.kind == SpanKind::Rollout)
        .expect("rollout root span");
    let updates: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Update)
        .collect();
    // Forward apply on the canary plus its rollback, both under the root.
    assert_eq!(updates.len(), 2);
    assert!(updates.iter().all(|u| u.parent == Some(root.id)));
    let rollback = updates
        .iter()
        .find(|u| u.name == "rollback")
        .expect("the reverse apply records a rollback span");
    assert_eq!(rollback.detail.as_deref(), Some("v2->v1"));

    let stalls = stall_report(&spans);
    assert!(stalls.updates.iter().any(|u| u.rollback));
}
