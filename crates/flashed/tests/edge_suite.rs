//! The network edge end to end: admission control and shedding,
//! backpressure round-trips, routing stability, routed-fleet serving
//! with edge telemetry, per-worker stall attribution, and a staged
//! rollout under live load holding its latency SLO.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu_obs::journal::validate_lifecycle;
use flashed::telemetry::names;
use flashed::{
    parse_response, patch_stream, versions, BreachAction, Completion, Edge, EdgeConfig, EdgeError,
    Fleet, FleetConfig, FleetError, FleetTelemetry, Inbox, PauseSlo, RolloutOutcome, RolloutPlan,
    RoutePolicy, Routed, ServerShared, SimFs, Workload,
};
use vm::LinkMode;

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(16, 256, 11);
    let wl = Workload::new(fs.paths(), 1.0, 23);
    (fs, wl)
}

/// Exact nearest-rank p99 over pulled completions' sojourn.
fn p99_sojourn(completions: &[Completion]) -> Duration {
    let mut times: Vec<Duration> = completions
        .iter()
        .filter(|c| c.pulled)
        .map(|c| c.queue_wait + c.service)
        .collect();
    assert!(!times.is_empty());
    times.sort();
    let idx = ((0.99 * times.len() as f64).ceil() as usize).clamp(1, times.len());
    times[idx - 1]
}

#[test]
fn overflow_sheds_typed_errors_503s_and_counters() {
    // No workers pull: a capacity-2 inbox admits 2, sheds the rest.
    let shared = ServerShared::new();
    let tel = Arc::new(FleetTelemetry::new(1));
    let edge = Edge::new(
        1,
        &EdgeConfig::new(RoutePolicy::RoundRobin).queue_capacity(2),
        shared.clone(),
        Some(Arc::clone(&tel)),
    );
    for i in 0..2 {
        assert_eq!(edge.submit(format!("GET /doc{i}.html HTTP/1.0")), Ok(0));
    }
    let err = edge
        .submit("GET /late.html HTTP/1.0".to_string())
        .unwrap_err();
    match err {
        EdgeError::Overloaded {
            worker,
            depth,
            capacity,
        } => {
            assert_eq!(worker, 0);
            assert_eq!(depth, 2);
            assert_eq!(capacity, 2);
        }
        EdgeError::Unavailable => panic!("the worker is up; expected an overflow shed"),
    }
    assert_eq!(
        edge.submit("GET /later.html HTTP/1.0".to_string()).ok(),
        None
    );

    // Counters: edge totals, the worker's shed counter, the
    // coordinator's admitted/shed counters — all agree.
    assert_eq!(edge.admitted(), 2);
    assert_eq!(edge.shed(), 2);
    assert_eq!(edge.inbox(0).sheds(), 2);
    assert_eq!(tel.edge_admitted(), 2);
    assert_eq!(tel.edge_shed(), 2);
    assert_eq!(tel.worker(0).edge_sheds(), 2);

    // Each shed synthesized a client-visible 503 with Retry-After; they
    // are completions (drain counts them) but not pulled (latency stats
    // skip them).
    let done = shared.take_completions();
    assert_eq!(done.len(), 2);
    for c in &done {
        assert!(!c.pulled);
        let resp = parse_response(&c.response).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("0"));
    }
}

#[test]
fn backpressure_roundtrip_admission_resumes_after_drain() {
    let edge = Edge::new(
        1,
        &EdgeConfig::new(RoutePolicy::RoundRobin)
            .queue_capacity(4)
            .shed_responses(false),
        ServerShared::new(),
        None,
    );
    let report = edge.submit_all((0..6).map(|i| format!("GET /d{i}.html HTTP/1.0")));
    assert_eq!(report.admitted, 4);
    assert_eq!(report.shed, 2);
    assert_eq!(edge.pressure(), 1.0, "full inbox signals maximum pressure");

    // A worker drains two requests; the depth mirror follows, pressure
    // falls, and the very next submission is admitted again.
    assert_eq!(
        edge.inbox(0).pop().unwrap().request,
        "GET /d0.html HTTP/1.0"
    );
    assert_eq!(
        edge.inbox(0).pop().unwrap().request,
        "GET /d1.html HTTP/1.0"
    );
    assert_eq!(edge.depths(), vec![2]);
    assert!(edge.pressure() < 1.0);
    assert_eq!(edge.submit("GET /d6.html HTTP/1.0".to_string()), Ok(0));
    assert_eq!(edge.queued(), 3);
}

#[test]
fn consistent_hash_keys_stay_put_when_the_fleet_grows() {
    let cfg = EdgeConfig::new(RoutePolicy::ConsistentHash);
    let edge8 = Edge::new(8, &cfg, ServerShared::new(), None);
    let edge9 = Edge::new(9, &cfg, ServerShared::new(), None);
    let mut moved = 0;
    for i in 0..2000 {
        let req = format!("GET /site/page-{i}.html HTTP/1.0");
        let (w8, w9) = (edge8.route(&req), edge9.route(&req));
        if w8 != w9 {
            // Growth only ever moves a key to the new worker; nothing
            // reshuffles between survivors.
            assert_eq!(w9, 8, "key {i} moved {w8} -> {w9}, not to the new worker");
            moved += 1;
        }
    }
    // Roughly 1/9 of the keyspace lands on the newcomer.
    assert!((50..600).contains(&moved), "moved {moved} of 2000");

    // Same path, different query: one cache shard.
    assert_eq!(
        edge8.route("GET /site/page-7.html?a=1 HTTP/1.0"),
        edge8.route("GET /site/page-7.html?b=2 HTTP/1.0")
    );
}

#[test]
fn routed_fleet_serves_correctly_and_exports_edge_series() {
    let (fs, mut wl) = fixture();
    let fs_copy = fs.clone();
    let cfg = FleetConfig::new(3)
        .link_mode(LinkMode::Updateable)
        .with_edge(EdgeConfig::new(RoutePolicy::ConsistentHash))
        .with_telemetry();
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();

    // push_requests on a routed fleet goes through `Edge::submit_all`:
    // every request is routed into a worker inbox on the caller's thread.
    let reqs = wl.batch(200);
    fleet.push_requests(reqs.clone());
    fleet.drain(200).unwrap();
    let done = fleet.completions();
    assert_eq!(done.len(), 200);
    for c in &done {
        assert!(c.pulled, "no sheds expected under default capacity");
        let resp = parse_response(&c.response).unwrap();
        assert_eq!(resp.status, 200);
    }
    // Responses match the filesystem (completion order is fleet-wide,
    // so check membership, not ordering).
    let mut bodies: Vec<String> = done
        .iter()
        .map(|c| parse_response(&c.response).unwrap().body)
        .collect();
    bodies.sort();
    let mut expected: Vec<String> = reqs
        .iter()
        .map(|r| fs_copy.read(r.split(' ').nth(1).unwrap()).unwrap())
        .collect();
    expected.sort();
    assert_eq!(bodies, expected);

    let edge = fleet.edge().expect("routed fleet exposes its edge");
    assert_eq!(edge.admitted(), 200);
    assert_eq!(edge.shed(), 0);
    assert_eq!(edge.queued(), 0, "drained fleet holds nothing");

    // The scrape carries the per-worker edge gauges, the coordinator's
    // admission counters, and the sojourn histograms.
    let tel = fleet.telemetry().unwrap();
    assert_eq!(tel.edge_admitted(), 200);
    let text = tel.scrape_text();
    for w in 0..3 {
        assert!(
            text.contains(&format!("{}{{worker=\"{w}\"}}", names::EDGE_QUEUE_DEPTH)),
            "{text}"
        );
        assert!(
            text.contains(&format!("{}{{worker=\"{w}\"}}", names::EDGE_SHED)),
            "{text}"
        );
    }
    assert!(
        text.contains(&format!("{} 200", names::EDGE_ADMITTED)),
        "{text}"
    );
    assert!(
        text.contains(&format!("{} 0", names::EDGE_SHED_TOTAL)),
        "{text}"
    );
    assert!(text.contains(names::SOJOURN_SECONDS), "{text}");
    let json = tel.scrape_json();
    assert!(
        json.contains(&format!("\"name\":\"{}\"", names::EDGE_QUEUE_DEPTH)),
        "{json}"
    );

    // Sojourn was recorded for every routed pull: queue wait is real
    // (admission-to-pull), so sojourn >= service.
    assert!(done.iter().any(|c| c.queue_wait > Duration::ZERO));

    fleet.shutdown().unwrap();
}

#[test]
fn queue_stall_attributes_backlog_per_worker() {
    let (fs, _) = fixture();
    let cfg = FleetConfig::new(3)
        .link_mode(LinkMode::Updateable)
        .with_edge(EdgeConfig::new(RoutePolicy::RoundRobin))
        .rollout_deadline(Duration::from_millis(200));
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).unwrap();

    // Expecting completions that never arrive: the stall report carries
    // one queued count per worker (here all empty — the point is the
    // per-worker shape, proven non-empty in telemetry_suite's Display
    // checks).
    match fleet.drain(5).unwrap_err() {
        FleetError::QueueStall {
            per_worker,
            completed,
            expected,
        } => {
            assert_eq!(per_worker, vec![0, 0, 0]);
            assert_eq!(completed, 0);
            assert_eq!(expected, 5);
        }
        other => panic!("expected a queue stall, got {other}"),
    }
    fleet.shutdown().unwrap();
}

#[test]
fn staged_rollout_under_load_holds_the_sojourn_slo() {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(4)
        .link_mode(LinkMode::Updateable)
        .with_edge(EdgeConfig::new(RoutePolicy::ConsistentHash).queue_capacity(4096))
        .with_telemetry();
    let fleet = Fleet::start_cfg(&cfg, &versions::v3(), "v3", &fs).unwrap();

    // Calibrate this build's capacity (debug vs release differ an order
    // of magnitude), then hold ~40% of it through the rollout.
    let t0 = Instant::now();
    fleet.push_requests(wl.batch(400));
    fleet.drain(400).unwrap();
    let rps = 400.0 / t0.elapsed().as_secs_f64();
    fleet.shared().take_completions();
    let rate = 0.4 * rps;

    let stop = Arc::new(AtomicBool::new(false));
    let edge = Arc::clone(fleet.edge().unwrap());
    let texts = wl.batch(512);
    let pump = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Paced submission: bursts of 10 at the calibrated rate,
            // at least 400 requests so load spans the whole rollout.
            let burst = 10;
            let gap = Duration::from_secs_f64(burst as f64 / rate);
            let mut next = texts.iter().cycle().cloned();
            let mut offered = 0usize;
            let mut shed = 0usize;
            while !stop.load(Ordering::Relaxed) || offered < 400 {
                for _ in 0..burst {
                    offered += 1;
                    if edge.submit(next.next().unwrap()).is_err() {
                        shed += 1;
                    }
                }
                std::thread::sleep(gap);
            }
            (offered, shed)
        })
    };

    let gen = &patch_stream().unwrap()[2]; // v3 -> v4
    let plan = RolloutPlan::staged(
        0,
        PauseSlo {
            quantile: 0.99,
            max: Duration::from_secs(2),
        },
        BreachAction::Hold,
    )
    .with_soak(Duration::from_millis(30));
    let report = fleet.rollout_plan(&gen.patch, &plan).unwrap();
    stop.store(true, Ordering::Relaxed);
    let (offered, shed) = pump.join().unwrap();

    // Every offer completes: admissions serve, sheds synthesized 503s.
    fleet.drain(offered).unwrap();
    let done = fleet.shared().take_completions();
    assert_eq!(done.len(), offered);

    // Acceptance: the staged rollout converged on v4 with load applied
    // throughout, and p99 sojourn held the SLO.
    assert!(matches!(report.card.outcome, RolloutOutcome::Completed));
    assert!(report.card.converged());
    assert!(report.fleet_report.complete());
    assert_eq!(report.fleet_report.applied.len(), 4);
    let p99 = p99_sojourn(&done);
    assert!(
        p99 <= Duration::from_millis(500),
        "p99 sojourn {p99:?} broke the 500ms SLO (offered {offered}, shed {shed})"
    );

    // The journal closed every lifecycle the staged plan opened.
    let tel = fleet.telemetry().unwrap();
    let ids = tel.journal().update_ids();
    assert_eq!(ids.len(), 4, "one lifecycle per worker");
    for id in ids {
        validate_lifecycle(&tel.journal().events_for(id)).unwrap();
    }

    fleet.shutdown().unwrap();
}

/// The timeout every `Inbox::wait` below is given. A lost wake-up sits
/// it out in full, so "came back well inside it" is the whole assertion
/// and no case races a short sleep.
const LONG: Duration = Duration::from_secs(5);

fn routed(request: &str) -> Routed {
    Routed {
        request: request.to_string(),
        accepted_at: Instant::now(),
    }
}

/// Waits (from poke count `seen`) and asserts the wait ended early.
fn wait_wakes(inbox: &Inbox, seen: u64) -> u64 {
    let t0 = Instant::now();
    let seen = inbox.wait(seen, LONG);
    assert!(t0.elapsed() < LONG / 2, "wait sat out its timeout");
    seen
}

#[test]
fn inbox_wait_returns_at_once_when_non_empty() {
    let inbox = Inbox::unbounded();
    inbox.try_push(routed("a")).unwrap();
    wait_wakes(&inbox, 0);
}

#[test]
fn inbox_wait_returns_on_a_push_from_another_thread() {
    let inbox = Inbox::unbounded();
    std::thread::scope(|s| {
        // The delay only makes "pushed mid-wait" the likely order; a push
        // that lands first ends the wait just the same.
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(20));
            inbox.try_push(routed("a")).unwrap();
        });
        let t0 = Instant::now();
        while inbox.depth() == 0 {
            inbox.wait(0, LONG);
        }
        assert!(t0.elapsed() < LONG / 2, "wait sat out its timeout");
    });
}

#[test]
fn inbox_poke_before_the_wait_is_not_lost() {
    let inbox = Inbox::unbounded();
    inbox.poke();
    let seen = wait_wakes(&inbox, 0);
    // The same consumer sees each poke once; a later one wakes it again.
    inbox.poke();
    assert_ne!(wait_wakes(&inbox, seen), seen);
}

#[test]
fn two_consumers_on_one_inbox_each_get_one_of_two_pushes() {
    let inbox = Arc::new(Inbox::unbounded());
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || loop {
                if let Some(r) = inbox.pop() {
                    return r.request;
                }
                wait_wakes(&inbox, 0);
            })
        })
        .collect();
    inbox.try_push(routed("a")).unwrap();
    inbox.try_push(routed("b")).unwrap();
    let mut got: Vec<String> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
    got.sort();
    assert_eq!(got, vec!["a", "b"]);
}
