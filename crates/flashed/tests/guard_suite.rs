//! Self-healing rollouts end to end: cache invalidation, injected
//! faults under rolling rollouts, and guarded canary rollouts that hold
//! or roll the whole fleet back on a health breach.

use std::time::Duration;

use dsu_obs::journal::validate_lifecycle;
use dsu_obs::Stage;
use flashed::fault::{trapping_patch, FaultPlan};
use flashed::{
    parse_response, patch_stream, versions, BreachAction, EdgeConfig, EventLoopConfig, Fleet,
    FleetConfig, FleetError, HealthBreach, PauseSlo, RolloutOutcome, RolloutPlan, RoutePolicy,
    ServeMode, Server, ServerConfig, ServerTelemetry, SimFs, WorkerOverride, Workload,
};

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(16, 256, 7);
    let wl = Workload::new(fs.paths(), 1.0, 41);
    (fs, wl)
}

fn forward_patch() -> dsu_core::Patch {
    patch_stream().unwrap()[0].patch.clone() // v1 -> v2
}

fn inverse_patch() -> dsu_core::Patch {
    dsu_core::PatchGen::new()
        .generate(&versions::v2(), &versions::v1(), "v2", "v1")
        .unwrap()
        .patch
}

#[test]
fn write_through_invalidation_serves_fresh_bytes() {
    let (fs, _) = fixture();
    let path = fs.paths()[0].clone();
    let tel = ServerTelemetry::new();
    let cfg = ServerConfig::new()
        .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
        .telemetry(tel.clone());
    let mut s = Server::start(&cfg, &versions::v1(), "v1", fs).unwrap();

    // Warm the cache, then read through it.
    s.push_requests(vec![
        format!("GET {path} HTTP/1.0"),
        format!("GET {path} HTTP/1.0"),
    ]);
    s.serve().unwrap();
    let stale = parse_response(&s.completions()[1].response).unwrap().body;

    // Write-through: the cache drops its stale copy, so the next request
    // reads the new bytes from the device.
    s.write_file(&path, "fresh bytes after deploy");
    s.push_requests(vec![format!("GET {path} HTTP/1.0")]);
    s.serve().unwrap();
    let fresh = parse_response(&s.completions()[2].response).unwrap().body;
    assert_ne!(stale, fresh);
    assert_eq!(fresh, "fresh bytes after deploy");

    // The invalidation is visible as an eviction in the telemetry.
    assert!(
        tel.cache_evictions() >= 1,
        "evictions: {}",
        tel.cache_evictions()
    );
}

#[test]
fn rolling_rollout_survives_a_trapping_transformer_everywhere() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(
        &FleetConfig::new(3).with_telemetry(),
        &versions::v1(),
        "v1",
        &fs,
    )
    .unwrap();
    fleet.push_requests(wl.batch(150));

    // Every worker rejects the patch (its transformer traps mid-apply);
    // apply_patch restores each worker's pre-apply snapshot and the
    // fleet keeps serving v1.
    let report = fleet
        .rollout_plan(&trapping_patch(), &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    assert!(report.applied.is_empty());
    assert_eq!(report.failed.len(), 3);
    for (_, f) in &report.failed {
        assert!(
            matches!(f.error, dsu_core::UpdateError::Transform { .. }),
            "{f}"
        );
    }
    assert!(fleet.live_versions().iter().all(|v| v == "v1"));

    // Every lifecycle the fleet journalled is well-formed — the three
    // aborted ones included.
    let tel = fleet.telemetry().unwrap();
    for id in tel.journal().update_ids() {
        validate_lifecycle(&tel.journal().events_for(id)).unwrap();
    }
    let aborted = tel
        .journal()
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Aborted)
        .count();
    assert_eq!(aborted, 3);

    fleet.drain(150).unwrap();
    let completions = fleet.completions();
    assert_eq!(completions.len(), 150);
    assert!(completions
        .iter()
        .all(|c| parse_response(&c.response).is_some()));
    fleet.shutdown().unwrap();
}

#[test]
fn rolling_rollout_stall_becomes_partial_rollout() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(3)
        .with_telemetry()
        .rollout_deadline(Duration::from_millis(150))
        .override_worker(
            1,
            WorkerOverride {
                fault: FaultPlan {
                    gate_stall: Some(Duration::from_millis(500)),
                    ..FaultPlan::default()
                },
                ..WorkerOverride::default()
            },
        );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(60));

    let err = fleet
        .rollout_plan(&forward_patch(), &RolloutPlan::rolling())
        .unwrap_err();
    match &err {
        FleetError::PartialRollout { updated, remaining } => {
            assert_eq!(updated, &vec![0]);
            assert_eq!(remaining, &vec![1, 2]);
        }
        other => panic!("expected a partial rollout, got {other}"),
    }
    assert!(err.to_string().contains("stalled mid-fleet"), "{err}");

    // The stalled worker's patch was withdrawn — it cannot land later —
    // and the journal shows the cancellation as a well-formed abort.
    assert_eq!(fleet.remote(1).pending_count(), 0);
    let tel = fleet.telemetry().unwrap();
    for id in tel.journal().update_ids() {
        validate_lifecycle(&tel.journal().events_for(id)).unwrap();
    }
    assert!(tel.journal().events().iter().any(|e| e
        .detail
        .as_deref()
        .is_some_and(|d| d.contains("cancelled: rolling rollout stalled"))));

    // The fleet is left skewed exactly as the error reported.
    fleet.drain(60).unwrap();
    assert_eq!(fleet.live_versions(), vec!["v2", "v1", "v1"]);
    fleet.shutdown().unwrap();
}

#[test]
fn guarded_breach_rolls_every_updated_worker_back() {
    let (fs, mut wl) = fixture();
    // The canary's pauses are inflated well past the SLO budget.
    let cfg = FleetConfig::new(3).with_telemetry().override_worker(
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
    let run = fleet.rollout_plan(&forward_patch(), &plan).unwrap();
    let (report, card) = (run.fleet_report, run.card);

    // The canary breached on its pause tail and the rollout healed
    // itself: the forward apply landed, was judged, and was undone.
    match &card.outcome {
        RolloutOutcome::RolledBack(HealthBreach::PauseSlo {
            worker, observed, ..
        }) => {
            assert_eq!(*worker, 0);
            assert!(*observed >= Duration::from_millis(8), "{observed:?}");
        }
        other => panic!("expected a pause-SLO rollback, got {other:?}"),
    }
    assert_eq!(card.steps.len(), 1, "the breach stopped the rollout");
    assert_eq!(card.forward.len(), 1);
    assert_eq!(card.rollbacks.len(), 1);
    let (rb_worker, rb) = &card.rollbacks[0];
    assert_eq!(*rb_worker, 0);
    assert!(rb.rolled_back);
    assert_eq!(
        (rb.from_version.as_str(), rb.to_version.as_str()),
        ("v2", "v1")
    );

    // Every worker ends on the prior version.
    assert!(card.converged(), "{:?}", card.final_versions);
    assert!(fleet.live_versions().iter().all(|v| v == "v1"));
    // The fleet report carries both applies (forward and reverse) for
    // the canary and nothing for the untouched workers.
    assert_eq!(report.applied.len(), 2);
    assert!(report.failed.is_empty());

    // Journal: the reverse lifecycle is well-formed, closes with
    // `RolledBack`, and its phase sum equals the rollback report's
    // pipeline total exactly.
    let tel = fleet.telemetry().unwrap();
    for id in tel.journal().update_ids() {
        validate_lifecycle(&tel.journal().events_for(id)).unwrap();
    }
    let rb_event = tel
        .journal()
        .events()
        .into_iter()
        .find(|e| e.stage == Stage::RolledBack)
        .expect("a RolledBack lifecycle");
    let events = tel.journal().events_for(rb_event.update);
    let phase_sum: Duration = events
        .iter()
        .filter(|e| Stage::PHASES.contains(&e.stage))
        .filter_map(|e| e.dur)
        .sum();
    assert_eq!(phase_sum, rb.timings.total());
    assert_eq!(rb_event.dur, Some(rb.timings.total()));
    assert_eq!(card.rollback_total(), rb.timings.total());
    // The timeline artifact marks the worker as rolled back.
    assert!(tel
        .timeline()
        .iter()
        .any(|row| row.rolled_back && row.worker == Some(0)));

    // Guest responses stayed correct throughout the breach and the
    // rollback, and the fleet still serves afterwards.
    fleet.drain(150).unwrap();
    let completions = fleet.completions();
    assert_eq!(completions.len(), 150);
    assert!(completions
        .iter()
        .all(|c| parse_response(&c.response).is_some_and(|r| r.status == 200 || r.status == 404)));
    fleet.push_requests(wl.batch(30));
    fleet.drain(180).unwrap();

    // The report card is a usable artifact.
    let json = card.to_json();
    assert!(json.contains("\"kind\":\"rolled-back\""), "{json}");
    assert!(json.contains("\"converged\":true"), "{json}");
    assert!(card.render().contains("ROLLED BACK"));
    fleet.shutdown().unwrap();
}

#[test]
fn guarded_hold_keeps_the_line_and_read_errors_surface() {
    let (fs, mut wl) = fixture();
    // Worker 1's device reads are slowed so the faulted worker 0 (whose
    // failing reads return instantly) demonstrably pulls work — otherwise
    // worker 1 could vacuum the queue while worker 0 sits in its 8 ms
    // injected pause and the read-error assertion would race.
    let cfg = FleetConfig::new(2)
        .with_telemetry()
        .override_worker(
            0,
            WorkerOverride {
                fault: FaultPlan {
                    pause_delay: Some(Duration::from_millis(8)),
                    read_errors: true,
                    ..FaultPlan::default()
                },
                ..WorkerOverride::default()
            },
        )
        .override_worker(
            1,
            WorkerOverride {
                read_latency: Some(Duration::from_micros(500)),
                ..WorkerOverride::default()
            },
        );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(80));

    // The breach holds the line instead of rolling back, leaving the
    // canary on the new version.
    let slo = PauseSlo::p99(Duration::from_millis(2));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::Hold);
    let report = fleet
        .rollout_plan(&forward_patch(), &plan)
        .unwrap()
        .fleet_report;
    assert_eq!(report.applied.len(), 1, "only the canary took the patch");
    fleet.drain(80).unwrap();
    assert_eq!(fleet.live_versions(), vec!["v2", "v1"]);

    // Post-hold traffic: worker 0 is out of its pause and serving again,
    // so its injected read failures surface in the error counter (every
    // device read on worker 0 fails; it serves empty bodies), while the
    // healthy worker records none.
    fleet.push_requests(wl.batch(80));
    fleet.drain(160).unwrap();
    let tel = fleet.telemetry().unwrap();
    assert!(
        tel.worker(0).read_errors() > 0,
        "read errors never surfaced"
    );
    assert_eq!(tel.worker(1).read_errors(), 0);
    fleet.shutdown().unwrap();
}

/// The gate's completion-liveness check needs the backlog wherever it
/// waits. Behind an edge that is the worker inboxes: 300 requests at
/// 2 ms a read outlast both steps many times over, and every step's
/// health reading must say so.
#[test]
fn health_gate_counts_backlog_waiting_in_worker_inboxes() {
    let (fs, mut wl) = fixture();
    let fs = fs.with_read_latency(Duration::from_millis(2));
    let cfg = FleetConfig::new(2).with_edge(EdgeConfig::new(RoutePolicy::RoundRobin));
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(300));

    let slo = PauseSlo::p99(Duration::from_millis(500));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::Hold);
    let card = fleet.rollout_plan(&forward_patch(), &plan).unwrap().card;
    assert_eq!(card.outcome, RolloutOutcome::Completed);
    assert_eq!(card.steps.len(), 2);
    for step in &card.steps {
        assert!(step.queued > 0, "gate read an empty backlog: {step:?}");
    }
    fleet.drain(300).unwrap();
    fleet.shutdown().unwrap();
}
