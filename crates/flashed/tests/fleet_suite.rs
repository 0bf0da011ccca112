//! Multi-worker fleet behaviour: sharding, coordinated rollouts, and
//! partial-failure handling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dsu_core::{PatchGen, UpdateError, UpdaterRemote};
use dsu_obs::journal::{validate_lifecycle, Event, Stage};
use flashed::{
    patch_stream, versions, BreachAction, EdgeConfig, Fleet, FleetConfig, PauseSlo, RolloutOutcome,
    RolloutPlan, RoutePolicy, SimFs, Workload,
};

/// How long a wake-seam test lets a wait run before calling the wake
/// lost. The waits have no timer of their own, so a lost wake blocks until
/// this guard — far above anything a live wake takes.
const WAKE_GUARD: Duration = Duration::from_secs(30);

/// The most a woken wait may have taken: well inside [`WAKE_GUARD`], well
/// above scheduler noise on a loaded two-core box.
const WAKE_MARGIN: Duration = Duration::from_secs(10);

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(16, 256, 7);
    let wl = Workload::new(fs.paths(), 1.0, 29);
    (fs, wl)
}

/// Blocks until the worker behind `remote` has applied `n` operations.
fn await_applied(remote: &UpdaterRemote, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while remote.applied_count() < n {
        assert!(Instant::now() < deadline, "worker never applied op {n}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// True when every worker's most recent pause window shares a common
/// instant — the signature of a barrier rendezvous.
fn pause_windows_overlap(fleet: &Fleet) -> bool {
    let windows: Vec<_> = (0..fleet.worker_count())
        .filter_map(|i| {
            fleet
                .remote(i)
                .pauses()
                .last()
                .map(|p| (p.at, p.at + p.dur))
        })
        .collect();
    windows.len() == fleet.worker_count()
        && windows.iter().map(|w| w.0).max() <= windows.iter().map(|w| w.1).min()
}

#[test]
fn fleet_shards_one_queue_across_workers() {
    let (mut fs, mut wl) = fixture();
    // A little device latency per read: serving 400 requests then takes
    // long enough that no single worker can drain the queue alone while
    // the others are still inside their idle wait.
    fs.set_read_latency(Duration::from_micros(20));
    let fleet = Fleet::start_cfg(&FleetConfig::new(4), &versions::v1(), "v1", &fs).unwrap();
    assert_eq!(fleet.worker_count(), 4);
    fleet.push_requests(wl.batch(400));
    fleet.drain(400).unwrap();
    let completions = fleet.completions();
    let served = fleet.shutdown().unwrap();
    assert_eq!(completions.len(), 400);
    assert!(completions.iter().all(|c| c.pulled));
    // Every request was served exactly once, fleet-wide.
    assert_eq!(served.iter().sum::<i64>(), 400);
    // The load actually spread (400 requests over 4 workers makes a
    // single-worker monopoly effectively impossible).
    assert!(
        served.iter().filter(|&&n| n > 0).count() >= 2,
        "served: {served:?}"
    );
}

#[test]
fn simultaneous_rollout_updates_every_worker_at_once() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(&FleetConfig::new(3), &versions::v1(), "v1", &fs).unwrap();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2

    fleet.push_requests(wl.batch(300));
    let rollout = fleet
        .rollout_plan(&gen.patch, &RolloutPlan::simultaneous())
        .unwrap();
    // The coordinator wakes on each worker's end-of-pause publish, which
    // follows the pause event: no step of the barrier cohort is carded
    // pauseless.
    assert_eq!(rollout.card.steps.len(), 3);
    for step in &rollout.card.steps {
        assert!(step.pause_at_quantile.is_some(), "{step:?}");
    }
    let report = rollout.fleet_report;
    assert!(report.complete(), "{report}");
    assert_eq!(report.applied.len(), 3);
    assert!(report.failed.is_empty());
    // Every worker paused (barrier wait + apply), and the aggregate
    // statistics cover all of them.
    assert_eq!(report.pauses.len(), 3);
    assert!(report.pauses.iter().all(|p| *p > Duration::ZERO));
    assert!(report.max_pause() >= report.mean_pause());
    assert!(report.phase_totals().total() > Duration::ZERO);
    // The barrier lined everyone up: all pause windows share an instant
    // (the moment the last worker arrived and the barrier released).
    assert!(pause_windows_overlap(&fleet));

    fleet.drain(300).unwrap();
    // Post-rollout traffic is served by the new version everywhere:
    // v2 responses carry a Content-Type header, v1 responses do not.
    let before = fleet.completions().len();
    fleet.push_requests(wl.batch(60));
    fleet.drain(before + 60).unwrap();
    let completions = fleet.completions();
    assert!(
        completions[before..]
            .iter()
            .all(|c| c.response.contains("Content-Type:")),
        "all post-rollout responses come from v2",
    );
    fleet.shutdown().unwrap();
}

#[test]
fn rolling_rollout_never_stops_serving() {
    let (fs, mut wl) = fixture();
    // Simulated device latency keeps the queue from draining before the
    // first worker applies: the rollout must land mid-traffic for the
    // version-skew assertions below to be meaningful.
    let fs = fs.with_read_latency(Duration::from_micros(100));
    let fleet = Fleet::start_cfg(&FleetConfig::new(3), &versions::v1(), "v1", &fs).unwrap();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2

    fleet.push_requests(wl.batch(600));
    // Mid-traffic means v1 has answered something: a coordinator that
    // waits on no timer can otherwise finish all three hops before any
    // worker completes its first 100 µs read.
    let shared = fleet.shared();
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.completions_len() == 0 {
        assert!(Instant::now() < deadline, "v1 never answered a request");
        std::thread::yield_now();
    }
    let report = fleet
        .rollout_plan(&gen.patch, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    assert!(report.complete(), "{report}");
    assert_eq!(report.applied.len(), 3);
    // Rolling serializes the applies: the three pause windows cannot all
    // share an instant.
    assert!(!pause_windows_overlap(&fleet));

    fleet.drain(600).unwrap();
    let completions = fleet.completions();
    assert_eq!(completions.len(), 600);
    // The rollout ran mid-traffic: some requests were answered by v1,
    // some by v2 (version skew is the price of never pausing fleet-wide).
    let v2_responses = completions
        .iter()
        .filter(|c| c.response.contains("Content-Type:"))
        .count();
    assert!(v2_responses > 0, "rollout landed before the queue drained");
    assert!(v2_responses < 600, "rollout was mid-traffic, not before it");
    fleet.shutdown().unwrap();
}

#[test]
fn one_failing_worker_does_not_stop_the_fleet_rolling_forward() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(&FleetConfig::new(3), &versions::v1(), "v1", &fs).unwrap();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2

    // Canary the patch on worker 0 alone; it applies there.
    let canary = fleet.remote(0);
    canary.enqueue(gen.patch.clone());
    await_applied(&canary, 1);

    // Fleet-wide rollout of the same patch: worker 0 (already on v2)
    // rejects it — v2's additions collide with its own bindings — while
    // workers 1 and 2 roll forward.
    let report = fleet
        .rollout_plan(&gen.patch, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    assert!(!report.complete(), "{report}");
    assert_eq!(report.applied.len(), 2, "{report}");
    assert_eq!(report.failed.len(), 1, "{report}");
    assert_eq!(
        report.failed[0].0, 0,
        "the canaried worker is the one that failed"
    );

    // The failed worker keeps serving (its old-new version), and the
    // fleet as a whole still answers everything.
    fleet.push_requests(wl.batch(300));
    fleet.drain(300).unwrap();
    assert_eq!(fleet.completions().len(), 300);
    fleet.shutdown().unwrap();
}

/// An idle worker is blocked on its inbox, not polling: anything queued
/// through a bare remote — no rollout driver, no request traffic — must
/// wake it, behind an edge (its own inbox) and without one (the inbox
/// it shares with its idle neighbour).
#[test]
fn bare_remote_enqueue_reaches_an_idle_worker() {
    let (fs, _) = fixture();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2
    let routed = FleetConfig::new(2).with_edge(EdgeConfig::new(RoutePolicy::RoundRobin));
    for cfg in [FleetConfig::new(2), routed] {
        let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
        let remote = fleet.remote(1);
        remote.enqueue(gen.patch.clone());
        await_applied(&remote, 1);
        assert_eq!(fleet.live_versions(), vec!["v1", "v2"]);
        assert_eq!(remote.enqueue_rollback_chain(1), 1);
        await_applied(&remote, 2);
        assert_eq!(fleet.live_versions(), vec!["v1", "v1"]);
        fleet.shutdown().unwrap();
    }
}

/// A publish aimed between a waiter's "not ready" and its park must not
/// be lost. The predicate runs under the updater's lock, so the closest a
/// publisher can get is to be started from inside the first evaluation: it
/// then blocks on that lock until the park releases it, and its wake (a
/// withdrawal on an empty queue) has to bring the waiter back at once.
#[test]
fn a_publish_between_the_predicate_and_the_park_is_not_lost() {
    let (fs, _) = fixture();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2
    let fleet = Fleet::start_cfg(&FleetConfig::new(1), &versions::v1(), "v1", &fs).unwrap();
    let remote = fleet.remote(0);

    // An outcome that already exists when the wait starts: no park at all.
    remote.enqueue(gen.patch.clone());
    await_applied(&remote, 1);
    let began = Instant::now();
    let seen = remote.wait_until(began + WAKE_GUARD, |p| {
        (p.applied == 1 && p.pending == 0).then_some(p.pauses)
    });
    assert_eq!(seen, Some(1), "the apply's pause is published with it");
    assert!(began.elapsed() < WAKE_MARGIN);

    let mut evaluations = 0;
    let began = Instant::now();
    std::thread::scope(|scope| {
        let woke = remote.wait_until(began + WAKE_GUARD, |_| {
            evaluations += 1;
            if evaluations == 1 {
                scope.spawn(|| remote.cancel_pending("test: publish under the waiter's feet"));
                return None;
            }
            Some(())
        });
        assert_eq!(woke, Some(()));
    });
    assert_eq!(evaluations, 2);
    assert!(began.elapsed() < WAKE_MARGIN, "{:?}", began.elapsed());

    // Nothing published and nothing to wait for: the deadline is the only
    // way out, and it is honoured.
    let began = Instant::now();
    let timed_out = remote.wait_until(began + Duration::from_millis(20), |_| None::<()>);
    assert_eq!(timed_out, None);
    assert!(began.elapsed() >= Duration::from_millis(20));
    fleet.shutdown().unwrap();
}

/// A withdrawal from another thread wakes a parked waiter. The canceller
/// is released from inside the waiter's first evaluation — under the
/// updater's lock — so its withdrawal cannot get in before the park: it is
/// a real wake, never one that ran before the wait began.
#[test]
fn cancel_pending_from_another_thread_wakes_a_parked_waiter() {
    let (fs, _) = fixture();
    let fleet = Fleet::start_cfg(&FleetConfig::new(1), &versions::v1(), "v1", &fs).unwrap();
    let remote = fleet.remote(0);
    let withdrawn = AtomicBool::new(false);
    let (go_tx, go_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        let canceller = remote.clone();
        let withdrawn = &withdrawn;
        scope.spawn(move || {
            go_rx.recv().unwrap();
            // State first, then the publish — the rule every waker keeps.
            withdrawn.store(true, Ordering::SeqCst);
            canceller.cancel_pending("test: withdrawn while a waiter is parked");
        });
        let mut released = false;
        let began = Instant::now();
        let woke = remote.wait_until(began + WAKE_GUARD, |_| {
            if !released {
                released = true;
                go_tx.send(()).unwrap();
            }
            withdrawn.load(Ordering::SeqCst).then_some(())
        });
        assert_eq!(woke, Some(()));
        assert!(began.elapsed() < WAKE_MARGIN, "{:?}", began.elapsed());
    });
    fleet.shutdown().unwrap();
}

/// A chain rollback resolves several hops per worker in one pause; the
/// coordinator parks once per worker and wakes with all of it visible.
/// Walk v1 -> v4, breach the canary's v4 -> v5 step on an impossible
/// budget, and the reaction takes the canary back four hops and the rest
/// three — every forward step carded with its pause, every restore
/// carded, every worker's pause total covering its chain.
#[test]
fn a_four_hop_chain_rollback_cards_every_pause() {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(&FleetConfig::new(3), &versions::v1(), "v1", &fs).unwrap();
    let stream = patch_stream().unwrap();
    fleet.push_requests(wl.batch(90));
    for gen in &stream[..3] {
        let r = fleet
            .rollout_plan(&gen.patch, &RolloutPlan::rolling())
            .unwrap();
        assert!(r.card.steps.iter().all(|s| s.pause_at_quantile.is_some()));
    }
    assert!(fleet.live_versions().iter().all(|v| v == "v4"));

    let plan = RolloutPlan::guarded(
        0,
        PauseSlo::p99(Duration::from_nanos(1)),
        BreachAction::ChainRollBack {
            to_version: "v1".to_string(),
        },
    );
    let began = Instant::now();
    let report = fleet.rollout_plan(&stream[3].patch, &plan).unwrap();
    assert!(began.elapsed() < WAKE_MARGIN, "{:?}", began.elapsed());
    assert!(
        matches!(report.card.outcome, RolloutOutcome::RolledBack(_)),
        "{:?}",
        report.card.outcome
    );
    assert_eq!(report.card.steps.len(), 1, "the canary breached");
    assert!(report.card.steps[0].pause_at_quantile.is_some());
    assert_eq!(report.card.rollbacks.len(), 4 + 3 + 3);
    assert!(report.card.final_versions.iter().all(|v| v == "v1"));
    assert_eq!(report.fleet_report.pauses.len(), 3);
    assert!(report
        .fleet_report
        .pauses
        .iter()
        .all(|p| *p > Duration::ZERO));
    fleet.drain(90).unwrap();
    fleet.shutdown().unwrap();
}

/// A rollout verifies once, on the coordinator: a 2-worker rolling hop
/// journals one `staged` and two commits whose pause only checked the
/// certificate. The check is by content, per worker: a replica whose
/// types differ — walked one hop further by hand — finds the certificate
/// stale, verifies for itself, and rejects the patch in phase `verify`
/// exactly as it did when every pause verified.
#[test]
fn a_rollout_stages_once_and_every_pause_checks_the_certificate() {
    let (fs, _) = fixture();
    let cfg = FleetConfig::new(2).with_telemetry();
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    let journal = fleet.telemetry().unwrap().journal().clone();
    let stream = patch_stream().unwrap();

    let held = |events: &[Event]| {
        let detail = |e: &&Event| e.detail.as_deref() == Some("certificate held");
        events
            .iter()
            .filter(|e| e.stage == Stage::Verify)
            .filter(detail)
            .count()
    };
    let staged = |events: &[Event]| events.iter().filter(|e| e.stage == Stage::Staged).count();
    for (hop, gen) in stream[..2].iter().enumerate() {
        let report = fleet
            .rollout_plan(&gen.patch, &RolloutPlan::rolling())
            .unwrap();
        assert!(report.fleet_report.complete(), "{}", report.fleet_report);
        let events = journal.events();
        assert_eq!(staged(&events), hop + 1, "one stage per rollout");
        assert_eq!(held(&events), 2 * (hop + 1), "no pause verified in full");
        // The stage is charged once: to the first member's report.
        let paid: Vec<bool> = report
            .fleet_report
            .applied
            .iter()
            .map(|(_, r)| r.timings.staged > Duration::ZERO)
            .collect();
        assert_eq!(paid, [true, false]);
    }
    assert_eq!(fleet.live_versions(), ["v3", "v3"]);

    // Worker 1 goes on to v4 alone: its `cache_entry` gains a field.
    let ahead = fleet.remote(1);
    ahead.enqueue(stream[2].patch.clone());
    await_applied(&ahead, 3);
    // A v3 patch that builds a two-field `cache_entry` without defining
    // it: right for worker 0, ill-typed where the type has three fields.
    let v3 = versions::v3();
    let v3b = v3.replace("len(cache) >= cache_cap", "len(cache) + 1 > cache_cap");
    let fix = PatchGen::new()
        .generate(&v3, &v3b, "v3", "v3b")
        .unwrap()
        .patch;

    let report = fleet
        .rollout_plan(&fix, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    assert_eq!(report.applied.len(), 1, "{report}");
    assert_eq!(report.applied[0].0, 0);
    assert_eq!(report.failed.len(), 1, "{report}");
    let (worker, failure) = &report.failed[0];
    assert_eq!((*worker, failure.phase), (1, "verify"), "{failure}");
    assert!(matches!(failure.error, UpdateError::Verify(_)), "{failure}");
    assert_eq!(fleet.live_versions(), ["v3b", "v4"]);

    let events = journal.events();
    assert_eq!(
        staged(&events),
        4,
        "worker 1's own hop and the fix staged too"
    );
    assert_eq!(
        held(&events),
        6,
        "…and held on workers 1 and 0 respectively"
    );
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }
    fleet.shutdown().unwrap();
}
