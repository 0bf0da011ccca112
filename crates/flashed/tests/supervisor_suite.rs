//! Worker supervision under injected crashes: typed crash failures,
//! restart-from-persisted-state recovery, edge failover and restore,
//! restart-budget degradation, and the full chaos acceptance run (staged
//! rollout across shard fleets with a mid-transform kill).

use std::time::{Duration, Instant};

use dsu_obs::journal::validate_lifecycle;
use dsu_obs::Journal;
use flashed::{
    patch_stream, versions, BreachAction, CrashPoint, EdgeConfig, ErrorRateWindow, FaultPlan,
    Fleet, FleetConfig, FleetError, Orchestrator, PauseSlo, RolloutOutcome, RolloutPlan,
    RoutePolicy, SimFs, SupervisorConfig, WorkerFailure, Workload,
};

/// How long a wake-seam test lets a wait run before calling the wake
/// lost (the waits have no timer of their own), and the most a woken
/// wait may have taken: supervisor poll + backoff + reboot are
/// milliseconds, the margin is scheduler noise on a loaded two-core box.
const WAKE_GUARD: Duration = Duration::from_secs(30);
const WAKE_MARGIN: Duration = Duration::from_secs(10);

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(16, 256, 7);
    let wl = Workload::new(fs.paths(), 1.0, 53);
    (fs, wl)
}

/// Polls `cond` until it holds or `deadline` elapses; panics with `what`
/// on timeout so hung recovery paths fail fast instead of wedging CI.
fn await_cond<F: Fn() -> bool>(deadline: Duration, what: &str, cond: F) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn injected_crash_surfaces_as_a_typed_failure() {
    let (fs, mut wl) = fixture();
    // No supervisor: the crash is terminal and shutdown must say exactly
    // what killed the worker (not a generic panic).
    let fleet = Fleet::start_cfg(&FleetConfig::new(2), &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(40));
    fleet.drain(40).unwrap();

    fleet.inject_worker_fault(
        0,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    // The crash fires at the worker's next pass through the serving seam;
    // its heartbeat stops advancing once the thread is dead.
    await_cond(Duration::from_secs(5), "worker 0 to die", || {
        let a = fleet.worker_heartbeat(0);
        std::thread::sleep(Duration::from_millis(2));
        fleet.worker_heartbeat(0) == a
    });

    // The survivor keeps draining the shared queue alone.
    fleet.push_requests(wl.batch(40));
    fleet.drain(80).unwrap();

    let err = fleet.shutdown().unwrap_err();
    match err {
        FleetError::Worker {
            worker: 0,
            cause: WorkerFailure::Crashed(CrashPoint::Serving),
        } => {}
        other => panic!("expected a typed serving crash, got {other}"),
    }
}

#[test]
fn supervisor_restarts_a_serving_crash_and_the_worker_rejoins() {
    let (fs, mut wl) = fixture();
    let journal = Journal::new();
    let cfg = FleetConfig::new(2)
        .supervised()
        .with_telemetry()
        .with_journal(journal.clone());
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(40));
    fleet.drain(40).unwrap();

    fleet.inject_worker_fault(
        0,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    await_cond(Duration::from_secs(10), "supervised restart", || {
        fleet.worker_epoch(0) >= 1
    });
    assert!(fleet.worker_up(0));

    // No updates had landed, so the replay had nothing to walk: the fresh
    // incarnation reboots straight onto the boot version.
    let reports = fleet.restart_reports();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.worker, 0);
    assert!(r.failure.contains("crashed (serving)"), "{}", r.failure);
    assert_eq!(r.replayed_to, "v1");
    assert!(r.total >= r.detect, "{:?} >= {:?}", r.total, r.detect);

    // The restarted incarnation serves again, and the telemetry layer saw
    // the whole arc: down, restarted, up.
    fleet.push_requests(wl.batch(40));
    fleet.drain(80).unwrap();
    let t = fleet.telemetry().unwrap();
    assert_eq!(t.worker_restarts(), 1);
    assert_eq!(t.worker_up(0), 1);
    fleet.shutdown().unwrap();
}

#[test]
fn mid_transform_crash_recovers_from_the_persisted_ring_and_redrives() {
    let (fs, mut wl) = fixture();
    let journal = Journal::new();
    let cfg = FleetConfig::new(2)
        .supervised()
        .with_telemetry()
        .with_journal(journal.clone());
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    let stream = patch_stream().unwrap();

    // Seed the crash-durable state: v1 -> v2 lands everywhere, and each
    // worker persists a one-hop chain plus its snapshot ring — at its
    // *next* loop top, which can be after `rollout_plan` returned. A
    // worker bumps its heartbeat and then persists, every turn: two bumps
    // past a reading taken after the apply mean one whole turn, persist
    // included, has run since.
    fleet.push_requests(wl.batch(60));
    fleet
        .rollout_plan(&stream[0].patch, &RolloutPlan::rolling())
        .unwrap();
    fleet.drain(60).unwrap();
    for w in 0..2 {
        let beat = fleet.worker_heartbeat(w);
        await_cond(Duration::from_secs(10), "hop 1 to be persisted", || {
            fleet.worker_heartbeat(w) >= beat + 2
        });
    }

    // Kill worker 1 at the worst spot of the next hop: inside the
    // transform phase, bindings already flipped.
    fleet.inject_worker_fault(
        1,
        FaultPlan {
            crash_at: Some(CrashPoint::MidTransform),
            ..FaultPlan::default()
        },
    );
    fleet.push_requests(wl.batch(60));
    let report = fleet
        .rollout_plan(&stream[1].patch, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;

    // The rollout healed itself: the supervisor replayed the persisted
    // chain back to the pre-crash version, the driver re-drove the patch
    // on the fresh incarnation, and the fleet converged.
    assert_eq!(report.applied.len(), 2);
    assert!(fleet.live_versions().iter().all(|v| v == "v3"));
    assert!(fleet.worker_up(1));
    assert!(fleet.worker_epoch(1) >= 1);
    let reports = fleet.restart_reports();
    assert!(!reports.is_empty());
    let r = reports.iter().find(|r| r.worker == 1).unwrap();
    assert!(r.failure.contains("mid-transform"), "{}", r.failure);
    assert_eq!(
        r.replayed_to, "v2",
        "replay must reach the persisted chain tip"
    );
    assert!(r.replay > Duration::ZERO);

    // Every lifecycle the crash touched closed: the interrupted apply is
    // Aborted, the re-driven one Committed — no dangling Enqueued.
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }

    fleet.drain(120).unwrap();
    fleet.shutdown().unwrap();
}

/// The supervisor publishes, then wakes: a waiter parked on the crashed
/// incarnation's handle is woken by the epoch bump — no timer runs in
/// between — and everything the restart produced is already readable:
/// the restart report, the worker marked up, the fresh seat.
#[test]
fn a_supervised_restart_wakes_a_parked_waiter_after_its_report_is_logged() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(
        &FleetConfig::new(2).supervised(),
        &versions::v1(),
        "v1",
        &fs,
    )
    .unwrap();
    fleet.push_requests(wl.batch(20));
    fleet.drain(20).unwrap();

    let remote = fleet.remote(0);
    fleet.inject_worker_fault(
        0,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    let began = Instant::now();
    let seen = remote.wait_until(began + WAKE_GUARD, |_| {
        (fleet.worker_epoch(0) == 1).then(|| (fleet.restart_reports().len(), fleet.worker_up(0)))
    });
    assert_eq!(
        seen,
        Some((1, true)),
        "woken before the restart was published"
    );
    assert!(began.elapsed() < WAKE_MARGIN, "{:?}", began.elapsed());
    fleet.shutdown().unwrap();
}

/// With the restart budget spent, the death of a worker mid-apply ends
/// the coordinator's wait with `WorkerDown` as soon as the supervisor
/// gives up — not at the 30 s rollout deadline.
#[test]
fn an_exhausted_budget_wakes_the_coordinator_with_worker_down() {
    let (fs, _) = fixture();
    let cfg = FleetConfig::new(2).with_supervision(SupervisorConfig {
        max_restarts: 0,
        ..SupervisorConfig::default()
    });
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    // The crash fires inside the apply of the patch the coordinator is by
    // then waiting on, so the give-up necessarily finds it parked.
    fleet.inject_worker_fault(
        0,
        FaultPlan {
            crash_at: Some(CrashPoint::MidTransform),
            ..FaultPlan::default()
        },
    );
    let began = Instant::now();
    let err = fleet
        .rollout_plan(&patch_stream().unwrap()[0].patch, &RolloutPlan::rolling())
        .unwrap_err();
    assert!(
        matches!(err, FleetError::WorkerDown { worker: 0 }),
        "expected worker 0 down, got {err}"
    );
    assert!(began.elapsed() < WAKE_MARGIN, "{:?}", began.elapsed());
    assert!(!fleet.worker_up(0));
    assert!(fleet.restart_reports().is_empty());
    assert!(matches!(
        fleet.shutdown().unwrap_err(),
        FleetError::Worker {
            worker: 0,
            cause: WorkerFailure::GaveUp { restarts: 0 },
        }
    ));
}

/// Nobody wakes the coordinator of an unsupervised fleet when a worker
/// dies mid-apply: the rollout deadline is the one bound left, and it
/// still holds.
#[test]
fn an_unsupervised_dead_worker_stalls_the_rollout_at_its_deadline() {
    let (fs, _) = fixture();
    let deadline = Duration::from_millis(300);
    let cfg = FleetConfig::new(2).rollout_deadline(deadline);
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.inject_worker_fault(
        0,
        FaultPlan {
            crash_at: Some(CrashPoint::MidTransform),
            ..FaultPlan::default()
        },
    );
    let began = Instant::now();
    let err = fleet
        .rollout_plan(&patch_stream().unwrap()[0].patch, &RolloutPlan::rolling())
        .unwrap_err();
    assert!(
        matches!(err, FleetError::RolloutStalled { worker: 0 }),
        "expected worker 0 stalled, got {err}"
    );
    assert!(began.elapsed() >= deadline, "{:?}", began.elapsed());
    assert!(began.elapsed() < WAKE_MARGIN, "{:?}", began.elapsed());
    assert!(matches!(
        fleet.shutdown().unwrap_err(),
        FleetError::Worker {
            worker: 0,
            cause: WorkerFailure::Crashed(CrashPoint::MidTransform),
        }
    ));
}

#[test]
fn exhausted_restart_budget_degrades_instead_of_looping() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(2).with_supervision(SupervisorConfig {
        max_restarts: 0,
        ..SupervisorConfig::default()
    });
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.inject_worker_fault(
        0,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    // A zero budget means the first death is final: no restart, worker
    // marked failed, fleet degraded but serving.
    await_cond(Duration::from_secs(10), "the supervisor to give up", || {
        !fleet.worker_up(0)
    });
    std::thread::sleep(Duration::from_millis(5));
    assert!(fleet.restart_reports().is_empty());
    assert_eq!(fleet.worker_epoch(0), 0);

    fleet.push_requests(wl.batch(40));
    fleet.drain(40).unwrap();

    let err = fleet.shutdown().unwrap_err();
    match err {
        FleetError::Worker {
            worker: 0,
            cause: WorkerFailure::GaveUp { restarts: 0 },
        } => {}
        other => panic!("expected a give-up report, got {other}"),
    }
}

#[test]
fn edge_fails_over_a_dead_worker_and_restores_it_after_restart() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(3).supervised().with_telemetry().with_edge(
        EdgeConfig::new(RoutePolicy::ConsistentHash)
            .queue_capacity(4096)
            .shed_responses(true),
    );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    let edge = fleet.edge().unwrap().clone();

    let warm = edge.submit_all(wl.batch(90));
    assert_eq!(warm.shed, 0);
    fleet.drain(90).unwrap();

    fleet.inject_worker_fault(
        2,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    // Keep traffic flowing across the death window: routing must skip the
    // dead inbox (ring successors take its vnodes) rather than queue into
    // a worker that will never pull again.
    let mut admitted = 90usize;
    let end = Instant::now() + Duration::from_secs(10);
    while fleet.worker_epoch(2) == 0 {
        assert!(
            Instant::now() < end,
            "timed out waiting for failover restart"
        );
        admitted += edge.submit_all(wl.batch(10)).admitted;
        std::thread::sleep(Duration::from_micros(500));
    }
    // The down transition was failed over exactly once and the restart
    // restored the worker's vnode ownership.
    assert_eq!(edge.failovers(), 1);
    assert!(edge.is_alive(2));
    assert_eq!(fleet.telemetry().unwrap().edge_failovers(), 1);

    // Every admitted request is answered — rerouted, served by a
    // survivor, or 503'd — never silently dropped.
    admitted += edge.submit_all(wl.batch(30)).admitted;
    fleet.drain(admitted).unwrap();
    assert_eq!(fleet.completions().len(), admitted);
    fleet.shutdown().unwrap();
}

/// The chaos acceptance run: a staged rollout across three shard fleets
/// over one merged journal, with a mid-transform kill inside the 25%
/// cohort. The supervisor restarts the victim from its persisted ring,
/// replays it to the cohort's version, the driver re-drives the hop, the
/// edge fails traffic over and restores it — and the rollout still
/// finishes green under its latency SLO with zero lifecycle gaps.
#[test]
fn chaos_acceptance_staged_rollout_survives_a_mid_transform_kill() {
    let (fs, mut wl) = fixture();
    let journal = Journal::new();
    let fleets: Vec<Fleet> = (0..3)
        .map(|s| {
            let cfg = FleetConfig::new(3)
                .with_journal(journal.clone())
                .worker_base(s * 3)
                .supervised()
                .with_telemetry()
                .with_edge(
                    EdgeConfig::new(RoutePolicy::ConsistentHash)
                        .queue_capacity(4096)
                        .shed_responses(true),
                );
            Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap()
        })
        .collect();
    let stream = patch_stream().unwrap();
    let orch = Orchestrator::new(&fleets).skew_bound(2);

    // Hop 1 (v1 -> v2) seeds every worker's persisted chain and ring.
    let mut submitted = [0usize; 3];
    for (i, f) in fleets.iter().enumerate() {
        submitted[i] += f.edge().unwrap().submit_all(wl.batch(60)).admitted;
    }
    let r1 = orch
        .rollout(&stream[0].patch, &RolloutPlan::simultaneous())
        .unwrap();
    assert!(r1.card.final_versions.iter().all(|v| v == "v2"));

    // Arm the kill on global worker 1 (fleet 0, local 1): it sits in the
    // 25% cohort of the staged hop and dies inside its transform phase.
    fleets[0].inject_worker_fault(
        1,
        FaultPlan {
            crash_at: Some(CrashPoint::MidTransform),
            ..FaultPlan::default()
        },
    );
    for (i, f) in fleets.iter().enumerate() {
        submitted[i] += f.edge().unwrap().submit_all(wl.batch(60)).admitted;
    }

    // Hop 2 (v2 -> v3), staged and fully gated: pause SLO, sojourn-based
    // latency SLO, and an error-rate budget — all generous enough that
    // recovery itself must not breach them.
    let plan = RolloutPlan::staged(0, PauseSlo::p99(Duration::from_secs(5)), BreachAction::Hold)
        .with_soak(Duration::from_millis(5))
        .with_latency_slo(PauseSlo::p99(Duration::from_secs(10)))
        .with_error_budget(ErrorRateWindow {
            max_ratio: 0.5,
            min_events: 20,
        });
    let report = orch.rollout(&stream[1].patch, &plan).unwrap();

    // Green end to end: the kill cost a restart and a re-drive, not the
    // rollout.
    assert!(
        matches!(report.card.outcome, RolloutOutcome::Completed),
        "{:?}",
        report.card.outcome
    );
    assert!(report.card.final_versions.iter().all(|v| v == "v3"));
    assert!(orch.live_versions().iter().all(|v| v == "v3"));

    // The restart really happened, from persisted state, back to the
    // cohort's pre-hop version.
    let restarts = fleets[0].restart_reports();
    assert!(
        !restarts.is_empty(),
        "the injected kill must restart worker 1"
    );
    let r = restarts.iter().find(|r| r.worker == 1).unwrap();
    assert!(r.failure.contains("mid-transform"), "{}", r.failure);
    assert_eq!(r.replayed_to, "v2");
    assert!(fleets[0].worker_epoch(1) >= 1);
    assert!(fleets[0].worker_up(1));
    assert_eq!(fleets[0].telemetry().unwrap().worker_restarts(), 1);

    // The edge failed the victim over and restored it.
    let edge = fleets[0].edge().unwrap();
    assert_eq!(edge.failovers(), 1);
    assert!((0..3).all(|w| edge.is_alive(w)));

    // Merged journal: every lifecycle across both hops, the abort, and
    // the re-drive validates — no lifecycle left open.
    assert!(!journal.update_ids().is_empty());
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }

    // Every admitted request is eventually answered on every shard.
    for (i, f) in fleets.iter().enumerate() {
        submitted[i] += f.edge().unwrap().submit_all(wl.batch(30)).admitted;
        f.drain(submitted[i]).unwrap();
        assert_eq!(f.completions().len(), submitted[i]);
    }
    for f in fleets {
        f.shutdown().unwrap();
    }
}
