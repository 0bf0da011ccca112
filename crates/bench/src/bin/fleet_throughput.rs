//! Fleet serving: multi-worker throughput scaling and coordinated
//! live-update rollouts.
//!
//! Scales the paper's single-server live-update experiment out to a
//! sharded fleet: N worker threads, each its own FlashEd process, one
//! shared inbox. Three measurements:
//!
//! 1. **Scaling** — fleet throughput at 1, 2 and 4 workers over a
//!    disk-bound workload (v1, no response cache, simulated per-read
//!    device latency — Flash's own regime); 4 workers should clear 2x a
//!    single worker by overlapping reads.
//! 2. **Rolling rollout** — the v3->v4 type-changing patch applied one
//!    worker at a time while the fleet serves: completions never stop,
//!    so the largest fleet-wide completion gap stays at workload scale.
//! 3. **Simultaneous rollout** — the same patch applied to all workers
//!    at once behind a barrier: the aggregated report shows the
//!    fleet-wide pause, and the completion timeline shows a matching gap.
//!
//! Rollouts run with telemetry on: the update-lifecycle journal is
//! cross-checked against the rollout report (phase sums must match
//! exactly) and exported, with the merged Prometheus/JSON scrapes, under
//! `target/telemetry/`.
//!
//! On top of the blocking fleet, two AMPED measurements (event-loop
//! serve mode, helper pool + buffer cache per worker):
//!
//! 4. **AMPED vs blocking** — the same disk-bound workload at a 1 ms
//!    device latency, blocking and event-loop fleets side by side; a
//!    single AMPED worker must clear 1.5x a single blocking worker.
//! 5. **AMPED rollout** — a rolling update over an event-loop fleet with
//!    reads in flight: they stay in flight across each worker's pause
//!    (the report's `drain` phase reads ≈ 0), and the journal still
//!    reconciles with the report timings exactly.
//!
//! Run with: `cargo run --release -p dsu-bench --bin fleet_throughput`
//! (pass `amped` to run only the AMPED sections, as CI's smoke job does;
//! pass `--trace-out <path>` to run the AMPED rollout with causal
//! tracing on and write the Chrome trace — loadable in Perfetto /
//! `chrome://tracing` — to `<path>`)

use std::time::{Duration, Instant};

use dsu_bench::measure::{fmt_dur, row, rule};
use flashed::{
    patch_stream, versions, Completion, EventLoopConfig, Fleet, FleetConfig, RolloutPlan,
    ServeMode, ServerTelemetry, SimFs, Workload,
};

const REQUESTS: usize = 6000;
const FILES: usize = 32;
const DOC_SIZE: usize = 1024;
const WORKERS: usize = 4;
/// Simulated device latency per (uncached) read in the scaling runs.
const READ_LATENCY: Duration = Duration::from_micros(150);
/// Requests and device latency for the AMPED-vs-blocking comparison —
/// slow enough that a blocking worker is clearly disk-bound.
const AMPED_REQUESTS: usize = 2000;
const AMPED_LATENCY: Duration = Duration::from_millis(1);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let only_amped = args.iter().any(|a| a == "amped");
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());
    if !only_amped {
        scaling()?;
    }
    amped_scaling()?;
    if !only_amped {
        rollouts()?;
    }
    amped_rollout(trace_out.as_deref())?;
    Ok(())
}

/// Throughput at 1, 2 and 4 workers over the same workload.
fn scaling() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "Fleet scaling: {REQUESTS} requests, {FILES} files x {DOC_SIZE} B, zipf(1.0), v1,\n\
         {READ_LATENCY:?} simulated device latency per read\n"
    );
    let widths = [9, 12, 12, 9];
    row(&["workers", "elapsed", "req/s", "speedup"], &widths);
    rule(&widths);

    let mut base = 0.0f64;
    for n in [1usize, 2, 4] {
        let fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3).with_read_latency(READ_LATENCY);
        let mut wl = Workload::new(fs.paths(), 1.0, 17);
        let fleet = Fleet::start_cfg(&FleetConfig::new(n), &versions::v1(), "v1", &fs)
            .map_err(|e| e.to_string())?;
        // Warm every worker's cache and code path outside the timed region.
        fleet.push_requests(wl.batch(200 * n));
        fleet.drain(200 * n).map_err(|e| e.to_string())?;
        fleet.shared().take_completions();

        let t0 = Instant::now();
        fleet.push_requests(wl.batch(REQUESTS));
        fleet.drain(REQUESTS).map_err(|e| e.to_string())?;
        let elapsed = t0.elapsed();
        fleet.shutdown().map_err(|e| e.to_string())?;

        let rps = REQUESTS as f64 / elapsed.as_secs_f64();
        if n == 1 {
            base = rps;
        }
        row(
            &[
                &n.to_string(),
                &fmt_dur(elapsed),
                &format!("{rps:.0}"),
                &format!("{:.2}x", rps / base),
            ],
            &widths,
        );
    }
    println!();
    Ok(())
}

/// Blocking vs AMPED fleets over the same disk-bound workload: the
/// event loop overlaps device waits within one worker, so it beats the
/// blocking fleet at every size — acceptance requires >1.5x at a single
/// worker.
fn amped_scaling() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "AMPED vs blocking: {AMPED_REQUESTS} requests, {FILES} files x {DOC_SIZE} B, zipf(1.0), v1,\n\
         {AMPED_LATENCY:?} simulated device latency per read\n"
    );
    let widths = [10, 9, 12, 12, 9, 11];
    row(
        &[
            "mode",
            "workers",
            "elapsed",
            "req/s",
            "speedup",
            "cache hit%",
        ],
        &widths,
    );
    rule(&widths);

    let mut base = 0.0f64;
    let mut single_blocking = 0.0f64;
    let mut single_amped = 0.0f64;
    let modes = [
        ("blocking", ServeMode::Blocking),
        ("amped", ServeMode::EventLoop(EventLoopConfig::default())),
    ];
    for (label, serve_mode) in modes {
        for n in [1usize, 2, 4] {
            let mut fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3);
            fs.set_read_latency(AMPED_LATENCY);
            let mut wl = Workload::new(fs.paths(), 1.0, 17);
            let cfg = FleetConfig::new(n).serve_mode(serve_mode).with_telemetry();
            let fleet =
                Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
            // Keep worker telemetry handles; shutdown consumes the fleet.
            let tels: Vec<ServerTelemetry> = (0..n)
                .map(|i| fleet.telemetry().expect("telemetry on").worker(i).clone())
                .collect();

            let t0 = Instant::now();
            fleet.push_requests(wl.batch(AMPED_REQUESTS));
            fleet.drain(AMPED_REQUESTS).map_err(|e| e.to_string())?;
            let elapsed = t0.elapsed();
            fleet.shutdown().map_err(|e| e.to_string())?;

            let rps = AMPED_REQUESTS as f64 / elapsed.as_secs_f64();
            if label == "blocking" && n == 1 {
                base = rps;
                single_blocking = rps;
            }
            if label == "amped" && n == 1 {
                single_amped = rps;
            }
            let (hits, misses) = tels.iter().fold((0u64, 0u64), |(h, m), t| {
                (h + t.cache_hits(), m + t.cache_misses())
            });
            let hit_pct = if hits + misses == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * hits as f64 / (hits + misses) as f64)
            };
            row(
                &[
                    label,
                    &n.to_string(),
                    &fmt_dur(elapsed),
                    &format!("{rps:.0}"),
                    &format!("{:.2}x", rps / base),
                    &hit_pct,
                ],
                &widths,
            );
        }
    }
    let ratio = single_amped / single_blocking;
    assert!(
        ratio > 1.5,
        "acceptance: one AMPED worker must clear 1.5x one blocking worker, got {ratio:.2}x"
    );
    println!("\n(single-worker AMPED speedup over blocking: {ratio:.2}x — the event\n loop overlaps device waits the blocking server serializes)\n");
    Ok(())
}

/// A rolling update over an AMPED fleet with reads in flight: each worker
/// binds without waiting for them (the `drain` phase reads ≈ 0), the
/// journal reconciles with the report exactly, and everything exports.
fn amped_rollout(trace_out: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    println!("Live update over an AMPED fleet (v3 -> v4, rolling, reads in flight)\n");
    let mut fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3);
    fs.set_read_latency(Duration::from_micros(300));
    let mut wl = Workload::new(fs.paths(), 1.0, 17);
    let gen = &patch_stream()?[2]; // v3 -> v4 (cache representation change)

    let mut cfg = FleetConfig::new(WORKERS)
        .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
        .with_telemetry();
    if trace_out.is_some() {
        cfg = cfg.with_tracing();
    }
    let fleet = Fleet::start_cfg(&cfg, &versions::v3(), "v3", &fs).map_err(|e| e.to_string())?;

    fleet.push_requests(wl.batch(REQUESTS));
    let report = fleet
        .rollout_plan(&gen.patch, &RolloutPlan::rolling())
        .map_err(|e| e.to_string())?
        .fleet_report;
    fleet.drain(REQUESTS).map_err(|e| e.to_string())?;

    let tel = fleet.telemetry().expect("fleet started with telemetry");
    let timeline = tel.timeline();
    for (worker, r) in &report.applied {
        let row = timeline
            .iter()
            .find(|row| row.worker == Some(*worker) && row.committed)
            .unwrap_or_else(|| panic!("no committed journal row for worker {worker}"));
        assert_eq!(
            row.phase_total,
            r.timings.total(),
            "worker {worker}: journal phase sum != report total"
        );
    }
    for id in tel.journal().update_ids() {
        dsu_obs::journal::validate_lifecycle(&tel.journal().events_for(id))?;
    }

    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("fleet_amped.jsonl"), tel.journal().to_jsonl())?;
    std::fs::write(dir.join("fleet_amped.prom"), tel.scrape_text())?;
    std::fs::write(dir.join("fleet_amped.json"), tel.scrape_json())?;
    if let Some(path) = trace_out {
        let spans = tel.tracer().expect("tracing on").spans();
        dsu_obs::validate_spans(&spans).map_err(|e| format!("trace invariants: {e}"))?;
        std::fs::write(path, dsu_obs::to_chrome_trace(&spans))?;
        println!(
            "  wrote {} ({} spans; load it in Perfetto or chrome://tracing)",
            path,
            spans.len()
        );
    }

    println!("  {report}");
    let drains: Vec<String> = report
        .applied
        .iter()
        .map(|(w, r)| format!("w{w}={}", fmt_dur(r.timings.drain)))
        .collect();
    println!(
        "  drain (fault seam only; parked reads are not waited for) per worker: {}",
        drains.join(" ")
    );
    println!(
        "  journal: {} events, phase sums (drain included) match report timings exactly",
        tel.journal().len()
    );
    println!("  exported target/telemetry/fleet_amped.{{jsonl,prom,json}}\n");
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

/// The largest gap between consecutive fleet-wide completions.
fn max_completion_gap(completions: &[Completion]) -> Duration {
    let mut ats: Vec<Duration> = completions.iter().map(|c| c.at).collect();
    ats.sort();
    ats.windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(Duration::ZERO)
}

/// One rollout of the v3->v4 type-changing patch mid-traffic, with
/// telemetry on: the journal's per-patch phase sums are checked against
/// the rollout report's timings (they must match exactly — the journal
/// copies them), and the journal/metrics are exported for scraping.
fn rollout_once(name: &str, plan: &RolloutPlan) -> Result<(), Box<dyn std::error::Error>> {
    let fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3);
    let mut wl = Workload::new(fs.paths(), 1.0, 17);
    let gen = &patch_stream()?[2]; // v3 -> v4 (cache representation change)

    let tag = name.to_lowercase();
    let fleet = Fleet::start_cfg(
        &FleetConfig::new(WORKERS).with_telemetry(),
        &versions::v3(),
        "v3",
        &fs,
    )
    .map_err(|e| e.to_string())?;
    // Warm up, then discard pre-rollout history.
    fleet.push_requests(wl.batch(200 * WORKERS));
    fleet.drain(200 * WORKERS).map_err(|e| e.to_string())?;
    fleet.shared().take_completions();

    fleet.push_requests(wl.batch(REQUESTS));
    let report = fleet
        .rollout_plan(&gen.patch, plan)
        .map_err(|e| e.to_string())?
        .fleet_report;
    fleet.drain(REQUESTS).map_err(|e| e.to_string())?;
    let completions = fleet.completions();

    // Did every worker pause at the same time (barrier) or staggered?
    let windows: Vec<(Instant, Instant)> = (0..fleet.worker_count())
        .filter_map(|i| {
            fleet
                .remote(i)
                .pauses()
                .last()
                .map(|p| (p.at, p.at + p.dur))
        })
        .collect();
    let overlap = windows.len() == fleet.worker_count()
        && windows.iter().map(|w| w.0).max() <= windows.iter().map(|w| w.1).min();

    // Cross-check the journal against the rollout report: every committed
    // lifecycle's phase sum equals that worker's report total, exactly.
    let tel = fleet.telemetry().expect("fleet started with telemetry");
    let timeline = tel.timeline();
    for (worker, r) in &report.applied {
        let row = timeline
            .iter()
            .find(|row| row.worker == Some(*worker) && row.committed)
            .unwrap_or_else(|| panic!("no committed journal row for worker {worker}"));
        assert_eq!(
            row.phase_total,
            r.timings.total(),
            "worker {worker}: journal phase sum != report total"
        );
    }
    for id in tel.journal().update_ids() {
        dsu_obs::journal::validate_lifecycle(&tel.journal().events_for(id))?;
    }
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    let journal_path = dir.join(format!("fleet_{tag}.jsonl"));
    let prom_path = dir.join(format!("fleet_{tag}.prom"));
    let json_path = dir.join(format!("fleet_{tag}.json"));
    std::fs::write(&journal_path, tel.journal().to_jsonl())?;
    std::fs::write(&prom_path, tel.scrape_text())?;
    std::fs::write(&json_path, tel.scrape_json())?;
    let skew = tel.version_skew();
    let journal_events = tel.journal().len();
    fleet.shutdown().map_err(|e| e.to_string())?;

    println!("{name} rollout ({WORKERS} workers, {REQUESTS} requests in flight):");
    println!("  {report}");
    println!(
        "  completions: {} (all served); largest fleet-wide gap: {}; \
         all pause windows overlap: {}",
        completions.len(),
        fmt_dur(max_completion_gap(&completions)),
        if overlap {
            "yes (one synchronized fleet pause)"
        } else {
            "no (staggered pauses)"
        },
    );
    println!(
        "  journal: {journal_events} events, phase sums match report timings exactly; \
         version skew now {skew}"
    );
    println!(
        "  exported {} / {} / {}",
        journal_path.display(),
        prom_path.display(),
        json_path.display()
    );
    println!();
    Ok(())
}

fn rollouts() -> Result<(), Box<dyn std::error::Error>> {
    println!("Coordinated live update (v3 -> v4, state transformation over warm caches)\n");
    rollout_once("Rolling", &RolloutPlan::rolling())?;
    rollout_once("Simultaneous", &RolloutPlan::simultaneous())?;
    println!(
        "(expected shape: Rolling staggers the pauses — workers apply one at\n\
         a time, the fleet keeps completing requests throughout — while\n\
         Simultaneous lines every worker up behind a barrier: one synchronized\n\
         fleet-wide pause, visible in the aggregated max/mean pause. Same\n\
         patch, same total work; the policies trade version skew against a\n\
         full-fleet service gap.)"
    );
    Ok(())
}
