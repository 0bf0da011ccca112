//! Network-edge latency and throughput: sharded routed inboxes vs the
//! one shared inbox, a routing-policy latency sweep under open-loop
//! load, and a staged guarded rollout under peak load.
//!
//! Three measurements:
//!
//! 1. **Shared vs routed throughput** — the same cache-affinity-bound
//!    AMPED workload (more distinct files than one worker's buffer cache
//!    holds, 1 ms simulated device latency per miss) pushed through an
//!    edgeless fleet's shared inbox and through a consistent-hash routed
//!    edge at `WORKERS` workers. The shared inbox sprays every path across every
//!    worker, so each small cache thrashes over the full file set; the
//!    routed edge pins each path to one worker, whose cache then holds
//!    its shard. Acceptance: the routed edge must beat the shared inbox.
//! 2. **Routing-policy sweep** — an open-loop generator (deterministic
//!    exponential inter-arrivals) offers fractions of the measured
//!    routed capacity against each [`RoutePolicy`]; exact sojourn
//!    percentiles (queue wait + service) per policy and rate, exported
//!    as JSON.
//! 3. **Rollout under load** — the v3 -> v4 type-changing patch rolled
//!    out with the canonical staged plan (canary → 25% → 100%, each
//!    cohort gated on a pause SLO) while the open-loop generator holds
//!    peak load. Acceptance: the rollout completes and converges, and
//!    p99 sojourn across the whole run holds the request-latency SLO.
//!    The report card and lifecycle journal export for the CI artifact.
//!
//! Run with: `cargo run --release -p dsu-bench --bin edge_latency`
//! (pass `--quick` for the smaller CI smoke shape: fewer workers,
//! fewer requests, one sweep rate)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsu_bench::loadgen::{sojourn_stats, GenReport, OpenLoop, SojournStats};
use dsu_bench::measure::{fmt_dur, row, rule};
use flashed::telemetry::names;
use flashed::{
    patch_stream, versions, BreachAction, EdgeConfig, EventLoopConfig, Fleet, FleetConfig,
    PauseSlo, RolloutOutcome, RolloutPlan, RoutePolicy, ServeMode, SimFs, Workload,
};

/// More distinct files than one worker's buffer cache holds: the regime
/// where routing for affinity pays.
const FILES: usize = 512;
const DOC_SIZE: usize = 512;
/// Per-worker buffer cache, in entries. Routed, each worker owns
/// `FILES / workers` paths and its cache covers them; shared, every
/// worker sees all `FILES` and thrashes.
const CACHE_ENTRIES: usize = 96;
/// Simulated device latency per (uncached) read.
const READ_LATENCY: Duration = Duration::from_millis(1);
/// Flatter-than-default Zipf so the head of the distribution does not
/// fit any single cache.
const ZIPF_ALPHA: f64 = 0.7;
/// Request-latency SLO asserted over the rollout-under-load run.
const SOJOURN_SLO_P99: Duration = Duration::from_millis(250);
/// Update-pause budget each staged cohort is gated on.
const PAUSE_SLO: PauseSlo = PauseSlo {
    quantile: 0.99,
    max: Duration::from_millis(250),
};

/// Full-run vs `--quick` (CI smoke) shape.
struct Shape {
    workers: usize,
    requests: usize,
    trials: usize,
    sweep_fractions: &'static [f64],
    sweep_requests: usize,
    rollout_min_requests: usize,
    quick: bool,
}

const FULL: Shape = Shape {
    workers: 8,
    requests: 6000,
    trials: 3,
    sweep_fractions: &[0.4, 0.7, 0.9],
    sweep_requests: 3000,
    rollout_min_requests: 4000,
    quick: false,
};

const QUICK: Shape = Shape {
    workers: 4,
    requests: 1500,
    trials: 2,
    sweep_fractions: &[0.6],
    sweep_requests: 800,
    rollout_min_requests: 1200,
    quick: true,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let shape = if quick { QUICK } else { FULL };
    let routed_rps = throughput(&shape)?;
    let sweep = sweep(&shape, routed_rps)?;
    rollout_under_load(&shape, routed_rps, &sweep)?;
    Ok(())
}

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3).with_read_latency(READ_LATENCY);
    let wl = Workload::new(fs.paths(), ZIPF_ALPHA, 17);
    (fs, wl)
}

fn amped() -> ServeMode {
    // A narrow disk pipe: misses overlap only 4 deep, so the miss rate —
    // not raw CPU — governs throughput, and cache affinity shows up.
    ServeMode::EventLoop(EventLoopConfig {
        helpers: 2,
        cache_entries: CACHE_ENTRIES,
        max_in_flight: 4,
    })
}

/// Boots, warms (outside the timed region), times one full batch, and
/// returns requests/second. With an edge, asserts nothing was shed —
/// a shed 503 completes instantly and would flatter the routed number.
fn one_trial(shape: &Shape, edge: Option<EdgeConfig>) -> Result<f64, Box<dyn std::error::Error>> {
    let (fs, mut wl) = fixture();
    let mut cfg = FleetConfig::new(shape.workers).serve_mode(amped());
    let routed = edge.is_some();
    if let Some(ec) = edge {
        cfg = cfg.with_edge(ec);
    }
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
    // Warm every worker's buffer cache through the same routing the
    // timed region uses (push_requests goes through the edge on a routed
    // fleet, so consistent-hash warms exactly the right shards).
    let warm = 400 * shape.workers;
    fleet.push_requests(wl.batch(warm));
    fleet.drain(warm).map_err(|e| e.to_string())?;
    fleet.shared().take_completions();

    let t0 = Instant::now();
    fleet.push_requests(wl.batch(shape.requests));
    fleet.drain(shape.requests).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed();
    if routed {
        let shed = fleet.edge().expect("routed fleet has an edge").shed();
        assert_eq!(shed, 0, "throughput trial must not shed (got {shed})");
    }
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(shape.requests as f64 / elapsed.as_secs_f64())
}

/// Measurement 1: shared inbox vs consistent-hash routed edge.
/// Returns the routed capacity (req/s) the other measurements scale to.
fn throughput(shape: &Shape) -> Result<f64, Box<dyn std::error::Error>> {
    println!(
        "Shared inbox vs routed edge: {} workers, {} requests, {FILES} files x {DOC_SIZE} B,\n\
         zipf({ZIPF_ALPHA}), per-worker cache {CACHE_ENTRIES} entries, {READ_LATENCY:?}/miss, \
         best of {} trials\n",
        shape.workers, shape.requests, shape.trials
    );
    let widths = [24, 12, 9];
    row(&["ingress", "req/s", "speedup"], &widths);
    rule(&widths);

    let best = |edge: fn() -> Option<EdgeConfig>| -> Result<f64, Box<dyn std::error::Error>> {
        let mut best = 0.0f64;
        for _ in 0..shape.trials {
            best = best.max(one_trial(shape, edge())?);
        }
        Ok(best)
    };
    let shared = best(|| None)?;
    let routed =
        best(|| Some(EdgeConfig::new(RoutePolicy::ConsistentHash).queue_capacity(1 << 15)))?;

    row(&["shared inbox", &format!("{shared:.0}"), "1.00x"], &widths);
    row(
        &[
            "routed (consistent-hash)",
            &format!("{routed:.0}"),
            &format!("{:.2}x", routed / shared),
        ],
        &widths,
    );
    let ratio = routed / shared;
    if shape.quick {
        // CI smoke on noisy shared runners: require parity, not a win.
        assert!(
            ratio > 0.85,
            "quick acceptance: routed must stay within noise of shared, got {ratio:.2}x"
        );
    } else {
        assert!(
            ratio > 1.0,
            "acceptance: routed inboxes must beat the shared inbox at {} workers, got {ratio:.2}x",
            shape.workers
        );
    }
    println!(
        "\n(consistent-hash pins each path to one worker, so its {CACHE_ENTRIES}-entry cache\n\
         holds its shard; the shared inbox sprays all {FILES} paths across every cache)\n"
    );
    Ok(routed)
}

struct SweepRow {
    policy: RoutePolicy,
    rate: f64,
    report: GenReport,
    stats: SojournStats,
}

/// Measurement 2: open-loop sojourn percentiles per routing policy at
/// fractions of the measured routed capacity.
fn sweep(shape: &Shape, routed_rps: f64) -> Result<Vec<SweepRow>, Box<dyn std::error::Error>> {
    println!(
        "Open-loop routing-policy sweep: exponential inter-arrivals at fractions of the\n\
         measured routed capacity ({routed_rps:.0} req/s), {} requests per point\n",
        shape.sweep_requests
    );
    let widths = [17, 9, 9, 7, 9, 9, 9, 9];
    row(
        &[
            "policy", "rate", "offered", "shed", "p50", "p99", "p999", "max",
        ],
        &widths,
    );
    rule(&widths);

    let policies = [
        RoutePolicy::ConsistentHash,
        RoutePolicy::LeastLoaded,
        RoutePolicy::RoundRobin,
    ];
    let mut rows = Vec::new();
    for policy in policies {
        for (i, frac) in shape.sweep_fractions.iter().enumerate() {
            let rate = frac * routed_rps;
            let (fs, mut wl) = fixture();
            let cfg = FleetConfig::new(shape.workers)
                .serve_mode(amped())
                .with_edge(EdgeConfig::new(policy).queue_capacity(4096))
                .with_telemetry();
            let fleet =
                Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
            let warm = 400 * shape.workers;
            fleet.push_requests(wl.batch(warm));
            fleet.drain(warm).map_err(|e| e.to_string())?;
            fleet.shared().take_completions();

            // The generator submits at the edge itself, so queue wait is
            // measured from the client's send.
            let texts = wl.batch(shape.sweep_requests);
            let mut next = texts.iter().cycle().cloned();
            let edge = Arc::clone(fleet.edge().expect("routed fleet has an edge"));
            let gen = OpenLoop {
                rate,
                requests: shape.sweep_requests,
                seed: 29 + i as u64,
            };
            let report = gen.run(&edge, || next.next().expect("cycled"));
            // Sheds synthesize 503 completions, so drain converges on
            // everything offered.
            fleet.drain(report.offered).map_err(|e| e.to_string())?;
            let completions = fleet.shared().take_completions();
            let stats = sojourn_stats(&completions);

            // The serve path fed the same distribution into the metrics
            // registry; a scrape after the run must carry it.
            let scrape = fleet.telemetry().expect("telemetry on").scrape_text();
            assert!(
                scrape.contains(names::SOJOURN_SECONDS),
                "sojourn histogram missing from scrape"
            );
            fleet.shutdown().map_err(|e| e.to_string())?;

            row(
                &[
                    &policy.to_string(),
                    &format!("{rate:.0}/s"),
                    &report.offered.to_string(),
                    &report.shed.to_string(),
                    &fmt_dur(stats.p50),
                    &fmt_dur(stats.p99),
                    &fmt_dur(stats.p999),
                    &fmt_dur(stats.max),
                ],
                &widths,
            );
            rows.push(SweepRow {
                policy,
                rate,
                report,
                stats,
            });
        }
    }

    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("edge_latency.json"),
        sweep_json(shape, routed_rps, &rows),
    )?;
    println!("\nexported target/telemetry/edge_latency.json\n");
    Ok(rows)
}

fn sweep_json(shape: &Shape, routed_rps: f64, rows: &[SweepRow]) -> String {
    let points: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"policy\":\"{}\",\"rate_rps\":{:.1},\"offered\":{},\"admitted\":{},\
                 \"shed\":{},\"offered_rps\":{:.1},\"p50_us\":{},\"p99_us\":{},\
                 \"p999_us\":{},\"max_us\":{}}}",
                r.policy,
                r.rate,
                r.report.offered,
                r.report.admitted,
                r.report.shed,
                r.report.offered_rps(),
                r.stats.p50.as_micros(),
                r.stats.p99.as_micros(),
                r.stats.p999.as_micros(),
                r.stats.max.as_micros(),
            )
        })
        .collect();
    format!(
        "{{\"workers\":{},\"routed_capacity_rps\":{:.1},\"points\":[{}]}}",
        shape.workers,
        routed_rps,
        points.join(",")
    )
}

/// Measurement 3: the staged guarded rollout (v3 -> v4) while an
/// open-loop generator holds ~70% of routed capacity.
fn rollout_under_load(
    shape: &Shape,
    _routed_rps: f64,
    _sweep: &[SweepRow],
) -> Result<(), Box<dyn std::error::Error>> {
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(shape.workers)
        .serve_mode(amped())
        .with_edge(EdgeConfig::new(RoutePolicy::ConsistentHash).queue_capacity(4096))
        .with_telemetry();
    let fleet = Fleet::start_cfg(&cfg, &versions::v3(), "v3", &fs).map_err(|e| e.to_string())?;
    let warm = 400 * shape.workers;
    fleet.push_requests(wl.batch(warm));
    fleet.drain(warm).map_err(|e| e.to_string())?;
    fleet.shared().take_completions();

    // Calibrate peak against *this* fleet — v3's guest does different
    // work than v1's, so the measurement-1 capacity does not transfer.
    let t0 = Instant::now();
    fleet.push_requests(wl.batch(shape.requests));
    fleet.drain(shape.requests).map_err(|e| e.to_string())?;
    let v3_rps = shape.requests as f64 / t0.elapsed().as_secs_f64();
    fleet.shared().take_completions();

    let rate = 0.7 * v3_rps;
    println!(
        "Staged guarded rollout under load: v3 -> v4, canary -> 25% -> 100%, gated on a\n\
         {:?} p{:.0} pause SLO, open-loop load at {rate:.0} req/s\n\
         (70% of this fleet's measured {v3_rps:.0} req/s) throughout\n",
        PAUSE_SLO.max,
        PAUSE_SLO.quantile * 100.0
    );

    // Generator thread: open-loop chunks until the rollout settles, so
    // load covers every cohort and soak window.
    let stop = Arc::new(AtomicBool::new(false));
    let edge = Arc::clone(fleet.edge().expect("routed fleet has an edge"));
    let texts = wl.batch(4096);
    let min_requests = shape.rollout_min_requests;
    let gen_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> GenReport {
            let chunk = ((rate / 20.0) as usize).max(50);
            let mut next = texts.iter().cycle().cloned();
            let mut total = GenReport::default();
            let mut seed = 101u64;
            while !stop.load(Ordering::Relaxed) || total.offered < min_requests {
                let r = OpenLoop {
                    rate,
                    requests: chunk,
                    seed,
                }
                .run(&edge, || next.next().expect("cycled"));
                total.offered += r.offered;
                total.admitted += r.admitted;
                total.shed += r.shed;
                total.elapsed += r.elapsed;
                seed += 1;
            }
            total
        })
    };

    let gen_patch = &patch_stream()?[2]; // v3 -> v4 (cache representation change)
    let plan = RolloutPlan::staged(0, PAUSE_SLO, BreachAction::Hold)
        .with_soak(Duration::from_millis(if shape.quick { 50 } else { 150 }));
    let report = fleet
        .rollout_plan(&gen_patch.patch, &plan)
        .map_err(|e| e.to_string())?;
    stop.store(true, Ordering::Relaxed);
    let offered = gen_thread.join().expect("generator thread panicked");

    fleet.drain(offered.offered).map_err(|e| e.to_string())?;
    let completions = fleet.shared().take_completions();
    let stats = sojourn_stats(&completions);

    // Acceptance: the staged rollout completed and converged, and the
    // request-latency SLO held across the whole run.
    assert!(
        matches!(report.card.outcome, RolloutOutcome::Completed),
        "staged rollout did not complete: {:?}",
        report.card.outcome
    );
    assert!(report.card.converged(), "fleet did not converge");
    assert!(report.fleet_report.complete(), "a worker missed the patch");
    assert!(
        stats.p99 <= SOJOURN_SLO_P99,
        "p99 sojourn {} broke the {} SLO under rollout",
        fmt_dur(stats.p99),
        fmt_dur(SOJOURN_SLO_P99)
    );

    // The journal must close every lifecycle it opened.
    let tel = fleet.telemetry().expect("telemetry on");
    for id in tel.journal().update_ids() {
        dsu_obs::journal::validate_lifecycle(&tel.journal().events_for(id))?;
    }

    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("edge_rollout_card.json"), report.card.to_json())?;
    std::fs::write(dir.join("edge_rollout.jsonl"), tel.journal().to_jsonl())?;
    let journal_events = tel.journal().len();
    fleet.shutdown().map_err(|e| e.to_string())?;

    println!(
        "  offered {} ({:.0} req/s), admitted {}, shed {}",
        offered.offered,
        offered.offered_rps(),
        offered.admitted,
        offered.shed
    );
    println!(
        "  cohorts: {} ({} workers total); max pause {}",
        report.cohorts.len(),
        report.fleet_report.workers,
        fmt_dur(report.fleet_report.max_pause()),
    );
    println!(
        "  sojourn over the run: p50 {} p99 {} p999 {} max {} — p99 SLO ({}) held",
        fmt_dur(stats.p50),
        fmt_dur(stats.p99),
        fmt_dur(stats.p999),
        fmt_dur(stats.max),
        fmt_dur(SOJOURN_SLO_P99),
    );
    println!("  journal: {journal_events} events, every lifecycle closed");
    println!("  exported target/telemetry/edge_rollout_card.json / edge_rollout.jsonl");
    Ok(())
}
