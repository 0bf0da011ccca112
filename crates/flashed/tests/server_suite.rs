//! FlashEd harness behaviour suite.

use flashed::{
    latency_stats, parse_response, patch_stream, versions, Server, ServerConfig, SimFs, Workload,
};
use std::time::Duration;
use vm::{LinkMode, Value};

fn small_fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(8, 128, 3);
    let wl = Workload::new(fs.paths(), 1.0, 5);
    (fs, wl)
}

#[test]
fn latency_stats_percentiles() {
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
    s.push_requests(wl.batch(200));
    s.serve().unwrap();
    let stats = latency_stats(&s.completions());
    assert!(stats.p50 <= stats.p99, "{stats:?}");
    assert!(stats.p99 <= stats.max, "{stats:?}");
    assert!(stats.p50.as_nanos() > 0);
}

#[test]
#[should_panic(expected = "no completions")]
fn latency_stats_rejects_empty() {
    let _ = latency_stats(&[]);
}

#[test]
fn serve_returns_per_batch_counts_and_accumulates_total() {
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
    s.push_requests(wl.batch(5));
    assert_eq!(s.serve().unwrap(), 5);
    s.push_requests(wl.batch(7));
    assert_eq!(s.serve().unwrap(), 7);
    assert_eq!(
        s.process().global_value("served_total"),
        Some(Value::Int(12))
    );
}

#[test]
fn take_completions_drains() {
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
    s.push_requests(wl.batch(3));
    s.serve().unwrap();
    assert_eq!(s.take_completions().len(), 3);
    assert!(s.completions().is_empty());
}

#[test]
fn miss_and_bad_workloads_get_correct_statuses() {
    let (fs, _) = small_fixture();
    let mut wl = Workload::new(fs.paths(), 1.0, 5)
        .with_miss_rate(0.3)
        .with_bad_rate(0.2);
    let mut s = Server::start(&ServerConfig::new(), &versions::v2(), "v2", fs).unwrap();
    s.push_requests(wl.batch(300));
    s.serve().unwrap();
    let (mut ok, mut missing, mut bad) = (0, 0, 0);
    for c in s.completions() {
        match parse_response(&c.response).expect("well-formed").status {
            200 => ok += 1,
            404 => missing += 1,
            400 => bad += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(ok > 100, "{ok}");
    assert!(missing > 40, "{missing}");
    assert!(bad > 20, "{bad}");
}

#[test]
fn cache_respects_capacity_bound() {
    // More distinct files than cache_cap (64): cache must not grow past it.
    let fs = SimFs::generate_fixed(100, 64, 9);
    let mut wl = Workload::new(fs.paths(), 0.0 /* uniform */, 9);
    let mut s = Server::start(&ServerConfig::new(), &versions::v3(), "v3", fs).unwrap();
    s.push_requests(wl.batch(500));
    s.serve().unwrap();
    let Some(Value::Array(cache)) = s.process().global_value("cache") else {
        panic!()
    };
    assert!(cache.borrow().len() <= 64, "{}", cache.borrow().len());
}

#[test]
fn cached_responses_match_uncached() {
    let (fs, _) = small_fixture();
    let target = fs.paths()[0].clone();
    let mut s = Server::start(&ServerConfig::new(), &versions::v3(), "v3", fs).unwrap();
    s.push_requests(vec![
        format!("GET {target} HTTP/1.0"),
        format!("GET {target} HTTP/1.0"),
    ]);
    s.serve().unwrap();
    let done = s.completions();
    assert_eq!(
        done[0].response, done[1].response,
        "cache hit must be byte-identical"
    );
}

#[test]
fn static_server_cannot_be_patched_usefully() {
    // A patch applies (bindings change) but direct-linked call sites keep
    // their targets: Flash (static) stays on old behaviour. This pins the
    // baseline semantics the overhead experiments rely on.
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(
        &ServerConfig::new().link_mode(LinkMode::Static),
        &versions::v1(),
        "v1",
        fs,
    )
    .unwrap();
    let gen = &patch_stream().unwrap()[0]; // v1 -> v2 (adds content-type)
    s.queue_patch(gen.patch.clone());
    s.push_requests(wl.batch(4));
    s.serve().unwrap();
    let last = s.completions().pop().unwrap();
    let resp = parse_response(&last.response).unwrap();
    assert!(
        resp.header("content-type").is_none(),
        "static linking must not pick up the new handler"
    );
}

#[test]
fn logs_only_appear_from_v5() {
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v4(), "v4", fs.clone()).unwrap();
    s.push_requests(wl.batch(5));
    s.serve().unwrap();
    assert!(s.logs().is_empty());

    let mut s = Server::start(&ServerConfig::new(), &versions::v5(), "v5", fs).unwrap();
    s.push_requests(wl.batch(5));
    s.serve().unwrap();
    assert_eq!(s.logs().len(), 5);
    assert!(s.logs()[0].starts_with("GET /"));
}

#[test]
fn elapsed_is_monotone_with_completions() {
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
    s.push_requests(wl.batch(50));
    s.serve().unwrap();
    let done = s.completions();
    for w in done.windows(2) {
        assert!(w[0].at <= w[1].at, "completion order must be time-ordered");
    }
    assert!(s.elapsed() >= done.last().unwrap().at);
}

// ---------------------------------------------------------------- accounting

/// A guest whose update point sits *inside* the request window (between
/// pull and response) — the case where naive service-time measurement
/// silently charges the whole update pause to one unlucky request.
const MID_REQUEST_V1: &str = r#"
extern fun next_request(): string;
extern fun send_response(r: string): unit;

fun handle(req: string): string { return "old:" + req; }

fun serve(): int {
    var served: int = 0;
    while (true) {
        var req: string = next_request();
        if (len(req) == 0) { break; }
        update;
        send_response(handle(req));
        served = served + 1;
    }
    return served;
}
"#;

#[test]
fn in_request_update_pause_is_excluded_from_service_time() {
    use dsu_core::PatchGen;

    let v2 = MID_REQUEST_V1.replace("\"old:\"", "\"new:\"");
    let gen = PatchGen::new()
        .generate(MID_REQUEST_V1, &v2, "v1", "v2")
        .unwrap();

    let mut s = Server::start(&ServerConfig::new(), MID_REQUEST_V1, "v1", SimFs::new()).unwrap();
    s.push_requests((0..10).map(|i| format!("req-{i}")));
    s.queue_patch(gen.patch);
    assert_eq!(s.serve().unwrap(), 10);
    assert_eq!(s.updater.log().len(), 1);

    let completions = s.completions();
    assert_eq!(completions.len(), 10);
    assert!(completions.iter().all(|c| c.pulled));

    // Exactly one request was in flight across the update point; the
    // pause is reported on it, not folded into its service time.
    let paused: Vec<_> = completions
        .iter()
        .filter(|c| c.update_pause > Duration::ZERO)
        .collect();
    assert_eq!(paused.len(), 1, "{completions:#?}");
    assert!(
        paused[0].response.starts_with("new:"),
        "update landed before the response"
    );
    assert!(
        paused[0].update_pause >= s.updater.log()[0].timings.total(),
        "reported pause {:?} covers the apply {:?}",
        paused[0].update_pause,
        s.updater.log()[0].timings.total(),
    );
    // With the pause excluded, the unlucky request's service time is in
    // family with its neighbours rather than orders of magnitude above.
    let typical = completions
        .iter()
        .filter(|c| c.update_pause == Duration::ZERO)
        .map(|c| c.service)
        .max()
        .unwrap();
    assert!(
        paused[0].service <= typical * 50 + Duration::from_millis(1),
        "service {:?} should not absorb the pause (typical {typical:?})",
        paused[0].service,
    );
}

/// `send_response` finds a request's pauses by walking the pause log
/// from its newest entry back to the pull. With a long history behind it,
/// a request pulled before one pause and answered after it is charged
/// exactly that pause — none of the hundred-odd before it — and a request
/// no pause touched is charged nothing.
#[test]
fn a_long_pause_history_charges_a_request_exactly_its_own_pause() {
    use dsu_core::PatchGen;

    let v2 = MID_REQUEST_V1.replace("\"old:\"", "\"new:\"");
    let forward = PatchGen::new()
        .generate(MID_REQUEST_V1, &v2, "v1", "v2")
        .unwrap()
        .patch;
    let back = PatchGen::new()
        .generate(&v2, MID_REQUEST_V1, "v2", "v1")
        .unwrap()
        .patch;

    let mut s = Server::start(&ServerConfig::new(), MID_REQUEST_V1, "v1", SimFs::new()).unwrap();
    const ROUNDS: usize = 120;
    for round in 0..ROUNDS {
        // One request per round, pulled before the update point the
        // queued patch lands at and answered after it.
        s.push_requests([format!("req-{round}")]);
        s.queue_patch(if round % 2 == 0 {
            forward.clone()
        } else {
            back.clone()
        });
        assert_eq!(s.serve().unwrap(), 1);
    }
    let pauses = s.updater.pauses();
    let completions = s.completions();
    assert_eq!(pauses.len(), ROUNDS);
    assert_eq!(completions.len(), ROUNDS);
    for (round, (c, p)) in completions.iter().zip(&pauses).enumerate() {
        assert_eq!(c.update_pause, p.dur, "round {round}");
    }

    s.push_requests(["quiet".to_string()]);
    assert_eq!(s.serve().unwrap(), 1);
    assert_eq!(s.completions().last().unwrap().update_pause, Duration::ZERO);
}

#[test]
fn response_without_a_pull_is_flagged_and_excluded_from_stats() {
    const SPONTANEOUS: &str = r#"
extern fun send_response(r: string): unit;
fun serve(): int { send_response("unsolicited"); return 0; }
"#;
    let mut s = Server::start(&ServerConfig::new(), SPONTANEOUS, "v1", SimFs::new()).unwrap();
    assert_eq!(s.serve().unwrap(), 0);
    let cs = s.completions();
    assert_eq!(cs.len(), 1);
    assert!(!cs[0].pulled, "no next_request preceded this response");
    assert_eq!(cs[0].service, Duration::ZERO);
    // Stats are computed over measured (pulled) completions only; a set
    // with none is rejected rather than reporting garbage.
    assert!(std::panic::catch_unwind(|| latency_stats(&cs)).is_err());
}

#[test]
fn one_process_walks_the_history_forward_and_back_repeatedly() {
    // A chain rollback used to leave the globals later versions added
    // (`cache`, ...) name-bound, so the second forward walk was refused at
    // v2 -> v3 with "global `cache` already exists".
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
    let stream = patch_stream().unwrap();
    let typed = |s: &Server| {
        let last = s.completions().last().expect("served").response.clone();
        last.contains("Content-Type")
    };
    for round in 1..=3 {
        for gen in &stream {
            s.queue_patch(gen.patch.clone());
            s.push_requests(wl.batch(10));
            let served = s.serve();
            assert!(
                served.is_ok(),
                "round {round}, {} -> {}: {served:?}",
                gen.patch.from_version,
                gen.patch.to_version
            );
        }
        assert!(typed(&s), "round {round}: v5 names the content type");
        assert_eq!(s.remote().enqueue_rollback_chain(4), 4);
        s.push_requests(wl.batch(10));
        s.serve().unwrap();
        s.push_requests(wl.batch(10));
        s.serve().unwrap();
        assert!(!typed(&s), "round {round}: back at v1");
        assert!(s.updater.snapshot_transitions().is_empty());
    }
    assert!(
        s.updater.failures().is_empty(),
        "{:?}",
        s.updater.failures()
    );
    assert_eq!(s.updater.log().len(), 3 * (4 + 4));
}

/// Requests are stamped when pushed, whatever front door they came
/// through: a standalone server measures inbox wait just as a routed
/// fleet worker does.
#[test]
fn standalone_server_stamps_queue_wait_from_the_push() {
    let (fs, mut wl) = small_fixture();
    let mut s = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();
    s.push_requests(wl.batch(10));
    let held = Duration::from_millis(2);
    std::thread::sleep(held);
    assert_eq!(s.serve().unwrap(), 10);
    for c in s.completions() {
        assert!(c.queue_wait >= held, "{:?}", c.queue_wait);
    }
}

/// A record no armed remap converts traps the request that touches it
/// (`Trap::StaleRecord`, never a panic): that request is answered with
/// HTTP 500 and the server keeps serving. Once a remap is armed the same
/// record converts and the request succeeds.
#[test]
fn a_stale_record_fails_its_request_with_a_500() {
    let (fs, _) = small_fixture();
    let path = fs.paths()[0].clone();
    let mut s = Server::start(&ServerConfig::new(), &versions::v3(), "v3", fs).unwrap();
    let p = s.process_mut();
    let bound = p.struct_id("cache_entry").unwrap();
    let stray = p.register_struct(p.struct_def(bound).clone());
    let entry = Value::record(stray, vec![Value::str(&path), Value::str("stale")]);
    assert!(p.set_global("cache", Value::array(vec![entry])));
    let statuses = |s: &mut Server, n: usize| {
        s.push_requests(Workload::new(vec![path.clone()], 1.0, 1).batch(n));
        s.serve().unwrap();
        let done = s.take_completions();
        done.iter()
            .map(|c| parse_response(&c.response).unwrap().status)
            .collect::<Vec<_>>()
    };
    assert_eq!(statuses(&mut s, 2), [500, 500]);
    s.process_mut().arm_remap(stray, bound).unwrap();
    assert_eq!(statuses(&mut s, 1), [200]);
}
