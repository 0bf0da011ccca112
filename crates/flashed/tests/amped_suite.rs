//! The AMPED serving core: event-loop multiplexing, buffer-cache
//! behaviour, keyed pull/response matching, and — the paper's concern —
//! dynamic updates arriving while requests are parked on in-flight reads.

use std::time::{Duration, Instant};

use dsu_obs::journal::{validate_lifecycle, Stage};
use flashed::{
    parse_response, versions, EventLoopConfig, FaultPlan, Fleet, FleetConfig, Response,
    RolloutPlan, ServeMode, Server, ServerConfig, ServerTelemetry, SimFs, WorkerOverride, Workload,
};

fn event_mode(helpers: usize, max_in_flight: usize) -> ServeMode {
    ServeMode::EventLoop(EventLoopConfig {
        helpers,
        cache_entries: 256,
        max_in_flight,
    })
}

/// The event loop is an implementation detail: for the same request
/// stream, an AMPED server produces exactly the same multiset of
/// responses as a blocking one (200s, 404s and 400s alike).
#[test]
fn event_loop_serves_identical_responses() {
    let fs = SimFs::generate_fixed(16, 256, 11);
    let mut wl = Workload::new(fs.paths(), 1.0, 23)
        .with_miss_rate(0.1)
        .with_bad_rate(0.1);
    let requests = wl.batch(80);

    let mut blocking =
        Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs.clone()).unwrap();
    blocking.push_requests(requests.clone());
    blocking.serve().unwrap();

    let mut amped = Server::start(
        &ServerConfig::new().serve_mode(event_mode(4, 8)),
        &versions::v1(),
        "v1",
        fs,
    )
    .unwrap();
    amped.push_requests(requests);
    let served = amped.serve().unwrap();

    let mut b: Vec<String> = blocking
        .completions()
        .iter()
        .map(|c| c.response.clone())
        .collect();
    let mut a: Vec<String> = amped
        .completions()
        .iter()
        .map(|c| c.response.clone())
        .collect();
    assert_eq!(a.len(), 80);
    assert_eq!(served, 80);
    b.sort();
    a.sort();
    assert_eq!(a, b);
    // Every AMPED completion was matched to a pull with its own id.
    let mut ids: Vec<u64> = amped
        .completions()
        .iter()
        .map(|c| c.request_id.expect("matched to a pull"))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 80, "pull ids must be distinct");
}

/// One AMPED worker overlaps device waits: serving N distinct documents
/// with a helper pool takes far less wall-clock than the blocking server,
/// and the buffer cache turns the second pass into pure hits.
#[test]
fn event_loop_overlaps_reads_and_counts_cache_traffic() {
    let mut fs = SimFs::generate_fixed(16, 256, 7);
    fs.set_read_latency(Duration::from_millis(5));
    let wl = Workload::new(fs.paths(), 1.0, 1);
    let sweep = wl.sweep(16); // every document exactly once

    let mut blocking =
        Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs.clone()).unwrap();
    blocking.push_requests(sweep.clone());
    let t0 = Instant::now();
    blocking.serve().unwrap();
    let blocking_elapsed = t0.elapsed();

    let mut amped = Server::start(
        &ServerConfig::new().serve_mode(event_mode(16, 16)),
        &versions::v1(),
        "v1",
        fs,
    )
    .unwrap();
    amped.push_requests(sweep.clone());
    let t0 = Instant::now();
    amped.serve().unwrap();
    let amped_elapsed = t0.elapsed();

    // Blocking pays 16 × 5ms serially; AMPED overlaps them all.
    assert!(
        amped_elapsed < blocking_elapsed,
        "amped {amped_elapsed:?} should beat blocking {blocking_elapsed:?}"
    );
    assert_eq!(amped.cache_stats(), Some((0, 16)), "first pass all misses");

    // Second pass over the same documents: the cache absorbs every read.
    amped.push_requests(sweep);
    let t0 = Instant::now();
    amped.serve().unwrap();
    let cached_elapsed = t0.elapsed();
    assert_eq!(amped.cache_stats(), Some((16, 16)), "second pass all hits");
    assert!(
        cached_elapsed < blocking_elapsed,
        "cached {cached_elapsed:?} should beat blocking {blocking_elapsed:?}"
    );
    assert_eq!(amped.completions().len(), 32);
}

/// An update pause stops the guest, not the disk: a patch landing while
/// requests are parked on in-flight reads binds at once, the reads stay
/// in flight across it, and each parked request is served exactly once,
/// by the new version, when its read comes back.
#[test]
fn update_mid_loop_leaves_parked_reads_in_flight() {
    let read_latency = Duration::from_millis(3);
    let mut fs = SimFs::generate_fixed(8, 256, 3);
    let expected: Vec<String> = fs.paths().iter().map(|p| fs.read(p).unwrap()).collect();
    fs.set_read_latency(read_latency);
    let wl = Workload::new(fs.paths(), 1.0, 1);

    let tel = ServerTelemetry::new();
    // One helper: the seven cold reads complete serially, 3 ms apart.
    let mut server = Server::start(
        &ServerConfig::new()
            .serve_mode(event_mode(1, 8))
            .telemetry(tel.clone()),
        &versions::v1(),
        "v1",
        fs,
    )
    .unwrap();
    // Warm the first document, so in the window below its read completes
    // at admission: the guest answers it under v1 and reaches its update
    // point with the other seven reads still parked.
    server.push_requests(wl.sweep(1));
    assert_eq!(server.serve().unwrap(), 1);

    let gen = dsu_core::PatchGen::new()
        .generate(&versions::v1(), &versions::v2(), "v1", "v2")
        .unwrap();
    server.push_requests(wl.sweep(8));
    server.queue_patch(gen.patch);
    assert_eq!(server.serve().unwrap(), 8);

    // The pause is the pipeline, not the ≈ 21 ms of reads still parked.
    let report = &server.updater.log()[0];
    assert!(
        report.timings.total() < read_latency,
        "the pause must not wait out parked reads: {:?}",
        report.timings
    );
    assert!(
        report.timings.drain < Duration::from_millis(1),
        "no fault injected, nothing to drain: {:?}",
        report.timings
    );
    // Journal agrees with the report to the nanosecond.
    let events = tel.journal().events_for(1);
    validate_lifecycle(&events).unwrap();
    // (The seven in-pause phases: `staged` happened before the pause.)
    let phase_sum: Duration = events
        .iter()
        .filter(|e| Stage::PHASES.contains(&e.stage))
        .filter_map(|e| e.dur)
        .sum();
    assert_eq!(phase_sum, report.timings.total());
    assert_eq!(events.last().unwrap().dur, Some(report.timings.total()));

    // One completion per pushed request, none duplicated or lost.
    let done = server.completions();
    let mut ids: Vec<u64> = done.iter().map(|c| c.request_id.unwrap()).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=9).collect::<Vec<u64>>());
    let mut bodies: Vec<String> = done
        .iter()
        .map(|c| parse_response(&c.response).unwrap().body)
        .collect();
    bodies.sort();
    let mut want = expected;
    want.push(want[0].clone()); // the warmed document, served twice
    want.sort();
    assert_eq!(bodies, want);
    // A request crossed the pause exactly when it was parked across it;
    // those — and only those — are served by v2 (v1 sends no
    // Content-Type).
    let crossed: Vec<bool> = done.iter().map(|c| !c.update_pause.is_zero()).collect();
    let typed: Vec<bool> = done
        .iter()
        .map(|c| c.response.contains("Content-Type"))
        .collect();
    assert_eq!(crossed, typed);
    assert_eq!(typed.iter().filter(|t| **t).count(), 7);
}

/// Boots v4 on an event loop with 3 ms reads, admits `/f.html?x=1` (its
/// read parks), and lands v4→v5 mid-park. `mid_pause` runs inside the
/// pause with a handle on the disk. Returns the one response.
fn cross_v4_to_v5_mid_park(fs: SimFs, mid_pause: impl FnOnce(&SimFs) + Send + 'static) -> Response {
    let read_latency = Duration::from_millis(3);
    let mut server = Server::start(
        &ServerConfig::new().serve_mode(event_mode(1, 8)),
        &versions::v4(),
        "v4",
        fs.clone().with_read_latency(read_latency),
    )
    .unwrap();
    let v4_to_v5 = flashed::patch_stream().unwrap().remove(3).patch;
    server.push_requests(vec!["GET /f.html?x=1 HTTP/1.0".to_string()]);
    server.queue_patch(v4_to_v5);
    // The gate runs inside the pause: the request is admitted and its
    // read is with the helper — an interleaving forced, not slept for.
    server.remote().set_gate(Box::new(move || mid_pause(&fs)));
    assert_eq!(server.serve().unwrap(), 1);

    assert_eq!(server.cache_stats(), Some((0, 1)), "one read, parked");
    let report = &server.updater.log()[0];
    assert_eq!(report.to_version, "v5");
    assert!(
        report.timings.total() < read_latency,
        "{:?}",
        report.timings
    );
    let done = server.completions();
    assert_eq!(done.len(), 1);
    assert!(!done[0].update_pause.is_zero(), "parked across the pause");
    parse_response(&done[0].response).unwrap()
}

/// A request admitted under one version is answered by the next: v4
/// would 404 `/f.html?x=1` (it looks the query string up verbatim), v5
/// strips it — and the prefetch already warmed the stripped path.
#[test]
fn parked_request_crosses_versions() {
    let fs = SimFs::new();
    fs.insert("/f.html", "<p>corpus</p>");
    let resp = cross_v4_to_v5_mid_park(fs, |_| {});
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("text/html"));
    assert_eq!(resp.body, "<p>corpus</p>");
}

/// The new version reads a path the old one's prefetch did not warm: at
/// admission only a file literally named `/f.html?x=1` exists (what v4
/// would serve), and `/f.html` is written mid-pause. v5's `fs_read`
/// misses the buffer cache and falls back to a synchronous read.
#[test]
fn parked_request_crossing_to_an_unwarmed_path_reads_through() {
    let fs = SimFs::new();
    fs.insert("/f.html?x=1", "<p>verbatim</p>");
    let resp = cross_v4_to_v5_mid_park(fs, |fs| fs.write("/f.html", "<p>written later</p>"));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, "<p>written later</p>");
}

/// The drain hook still carries injected pause faults on an event-loop
/// server: `pause_delay` is charged to the report's `drain` phase.
#[test]
fn injected_pause_delay_lands_in_drain_on_event_loop() {
    let delay = Duration::from_millis(2);
    let fs = SimFs::generate_fixed(4, 128, 5);
    let mut server = Server::start(
        &ServerConfig::new().serve_mode(event_mode(2, 4)),
        &versions::v1(),
        "v1",
        fs,
    )
    .unwrap();
    server.inject_fault(FaultPlan {
        pause_delay: Some(delay),
        ..FaultPlan::none()
    });
    server.queue_patch(flashed::patch_stream().unwrap().remove(0).patch);
    assert_eq!(server.apply_pending_now().unwrap(), 1);
    let timings = server.updater.log()[0].timings;
    assert!(timings.drain >= delay, "{timings:?}");
    assert!(timings.total() - timings.drain < delay, "{timings:?}");
}

/// Rolling and simultaneous rollouts over an AMPED fleet, mid-traffic:
/// every lifecycle validates, and the journal timeline's phase totals
/// equal the reports' exactly.
#[test]
fn amped_fleet_rollouts_reconcile() {
    let mut fs = SimFs::generate_fixed(24, 512, 9);
    fs.set_read_latency(Duration::from_micros(300));
    let mut wl = Workload::new(fs.paths(), 1.0, 41);

    // 600 requests at 300us simulated latency normally clear in well
    // under a second, but a loaded single-core runner can starve the
    // event loops past the default 30s deadline — give it headroom.
    let cfg = FleetConfig::new(2)
        .serve_mode(event_mode(4, 8))
        .with_telemetry()
        .rollout_deadline(Duration::from_secs(120));
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    let stream = flashed::patch_stream().unwrap();

    fleet.push_requests(wl.batch(300));
    let rolling = fleet
        .rollout_plan(&stream[0].patch, &RolloutPlan::rolling())
        .unwrap()
        .fleet_report;
    fleet.push_requests(wl.batch(300));
    let simultaneous = fleet
        .rollout_plan(&stream[1].patch, &RolloutPlan::simultaneous())
        .unwrap()
        .fleet_report;
    fleet.drain(600).unwrap();

    assert_eq!(rolling.applied.len(), 2);
    assert_eq!(simultaneous.applied.len(), 2);
    assert!(rolling.failed.is_empty() && simultaneous.failed.is_empty());

    let tel = fleet.telemetry().unwrap();
    let journal = tel.journal().clone();
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }
    // Timeline rows reconcile with the reports: match each applied report
    // to its row by (worker, version transition) and compare totals.
    let timeline = tel.timeline();
    assert_eq!(timeline.len(), 4);
    for (wid, r) in rolling.applied.iter().chain(&simultaneous.applied) {
        let row = timeline
            .iter()
            .find(|row| {
                row.worker == Some(*wid)
                    && row.from_version == r.from_version
                    && row.to_version == r.to_version
            })
            .expect("every applied patch has a timeline row");
        assert!(row.committed);
        assert_eq!(row.phase_total, r.timings.total(), "worker {wid}");
    }

    let served = fleet.shutdown().unwrap();
    assert_eq!(served.iter().sum::<i64>(), 600);
}

/// Per-worker fleet overrides: a worker on a slow device completes fewer
/// requests than its fast sibling under the same shared queue.
#[test]
fn worker_latency_override_shapes_throughput() {
    let fs = SimFs::generate_fixed(16, 256, 5); // zero base latency
    let mut wl = Workload::new(fs.paths(), 1.0, 17);

    let cfg = FleetConfig::new(2).override_worker(
        1,
        WorkerOverride {
            read_latency: Some(Duration::from_millis(2)),
            ..WorkerOverride::default()
        },
    );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();
    fleet.push_requests(wl.batch(60));
    fleet.drain(60).unwrap();
    let served = fleet.shutdown().unwrap();
    assert_eq!(served.iter().sum::<i64>(), 60);
    assert!(
        served[0] > served[1],
        "fast worker should out-serve the slow one: {served:?}"
    );
}

/// Satellite regression: concurrent pulls are matched to responses FIFO
/// by id — a guest holding two requests open gets each response timed
/// from its *own* pull, not a single shared slot.
#[test]
fn concurrent_pulls_are_keyed_not_overwritten() {
    let src = r#"
extern fun next_request(): string;
extern fun send_response(r: string): unit;

fun serve(): int {
    var a: string = next_request();
    var b: string = next_request();
    var n: int = 0;
    if (len(a) > 0) { send_response("first:" + a); n = n + 1; }
    if (len(b) > 0) { send_response("second:" + b); n = n + 1; }
    return n;
}
"#;
    let fs = SimFs::generate_fixed(2, 64, 1);
    let mut server = Server::start(&ServerConfig::new(), src, "v1", fs).unwrap();
    server.push_requests(vec!["GET /a HTTP/1.0".into(), "GET /b HTTP/1.0".into()]);
    assert_eq!(server.serve().unwrap(), 2);

    let done = server.completions();
    assert_eq!(done.len(), 2);
    // Both responses matched to their own pull, in pull order.
    assert!(done[0].pulled && done[1].pulled);
    assert_eq!(done[0].request_id, Some(1));
    assert_eq!(done[1].request_id, Some(2));
    assert!(done[0].response.starts_with("first:"));
    assert!(done[1].response.starts_with("second:"));
}
