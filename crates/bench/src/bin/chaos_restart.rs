//! Worker supervision under injected crashes: restart anatomy and
//! request-loss accounting during a failover under load.
//!
//! Two measurements:
//!
//! 1. **Restart anatomy** — a supervised fleet walks two forward
//!    rollouts (so every worker carries a two-hop replay chain), then a
//!    rotating victim is killed N times. Each cycle reports the
//!    supervisor's phase timings: detect (death noticed → reaped,
//!    failed over, patches withdrawn), reboot (backoff + compile/link
//!    boot), replay (re-applying the persisted chain + installing the
//!    saved snapshot ring). Acceptance: every restart lands back on the
//!    pre-crash version and completes within the bound.
//! 2. **Failover under load** — closed-loop clients sized for roughly
//!    70% of the fleet's measured capacity hold traffic through the
//!    routed edge while one worker is killed mid-stream. The generator
//!    only returns once every admitted request's completion (and every
//!    shed's synthesized 503) is observed, so the run *finishing* is
//!    the zero-loss proof; a watchdog turns a lost request into a loud
//!    failure instead of a hang. Acceptance: no requests lost, the
//!    death failed over exactly once, and the dead worker's queued
//!    requests were rerouted, not dropped.
//!
//! Run with: `cargo run --release -p dsu-bench --bin chaos_restart`
//! (pass `--quick` for the smaller CI smoke shape: fewer workers,
//! fewer kill cycles, less load)

use std::time::{Duration, Instant};

use dsu_bench::loadgen::ClosedLoop;
use dsu_bench::measure::{fmt_dur, row, rule};
use flashed::{
    patch_stream, versions, CrashPoint, EdgeConfig, FaultPlan, Fleet, FleetConfig, RestartReport,
    RolloutPlan, RoutePolicy, SimFs, SupervisorConfig, Workload,
};

const FILES: usize = 64;
const DOC_SIZE: usize = 256;
/// Simulated device latency per read: with the blocking serve mode this
/// sets the service time, so capacity is `workers / READ_LATENCY` and
/// the closed-loop window maps onto a load fraction by Little's law.
const READ_LATENCY: Duration = Duration::from_millis(1);
/// Per-restart wall-clock bound (detect → serving again). Generous: a
/// debug-build compile-heavy reboot stays well under it.
const RESTART_BOUND: Duration = Duration::from_secs(2);

/// Full-run vs `--quick` (CI smoke) shape.
struct Shape {
    workers: usize,
    /// Kill/restart cycles in the anatomy measurement.
    cycles: usize,
    /// Calibration batch for the load measurement.
    calibrate: usize,
    /// Closed-loop requests pushed through the failover window.
    load_requests: usize,
}

const FULL: Shape = Shape {
    workers: 4,
    cycles: 6,
    calibrate: 3000,
    load_requests: 2500,
};

const QUICK: Shape = Shape {
    workers: 3,
    cycles: 2,
    calibrate: 800,
    load_requests: 600,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let shape = if quick { QUICK } else { FULL };
    let cycles = restart_anatomy(&shape)?;
    let load = failover_under_load(&shape)?;

    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("chaos_restart.json"),
        to_json(&shape, &cycles, &load),
    )?;
    println!("exported target/telemetry/chaos_restart.json");
    Ok(())
}

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(FILES, DOC_SIZE, 5).with_read_latency(READ_LATENCY);
    let wl = Workload::new(fs.paths(), 1.0, 17);
    (fs, wl)
}

fn supervised(workers: usize) -> FleetConfig {
    FleetConfig::new(workers)
        .with_supervision(SupervisorConfig {
            max_restarts: 64,
            ..SupervisorConfig::default()
        })
        .with_telemetry()
}

/// Arms a serving-seam crash on `victim` and blocks until the
/// supervisor's respawn bumps its epoch, then returns the restart report
/// that respawn logged.
fn kill_and_await(fleet: &Fleet, victim: usize) -> RestartReport {
    let epoch0 = fleet.worker_epoch(victim);
    let logged0 = fleet.restart_reports().len();
    fleet.inject_worker_fault(
        victim,
        FaultPlan {
            crash_at: Some(CrashPoint::Serving),
            ..FaultPlan::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.worker_epoch(victim) == epoch0 || fleet.restart_reports().len() == logged0 {
        assert!(
            Instant::now() < deadline,
            "supervised restart of worker {victim} never completed"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let report = fleet.restart_reports().pop().expect("a restart was logged");
    assert_eq!(report.worker, victim, "restart attributed to the victim");
    report
}

/// Measurement 1: N kill/restart cycles on a rotating victim, each
/// recovering a two-hop replay chain.
fn restart_anatomy(shape: &Shape) -> Result<Vec<RestartReport>, Box<dyn std::error::Error>> {
    let (fs, mut wl) = fixture();
    let fleet = Fleet::start_cfg(&supervised(shape.workers), &versions::v1(), "v1", &fs)
        .map_err(|e| e.to_string())?;

    // Two forward hops so every restart replays a real chain (v1 -> v2
    // -> v3) instead of rebooting into the boot version.
    let stream = patch_stream()?;
    fleet.push_requests(wl.batch(60));
    fleet
        .rollout_plan(&stream[0].patch, &RolloutPlan::rolling())
        .map_err(|e| e.to_string())?;
    fleet
        .rollout_plan(&stream[1].patch, &RolloutPlan::rolling())
        .map_err(|e| e.to_string())?;
    fleet.drain(60).map_err(|e| e.to_string())?;

    println!(
        "Restart anatomy: {} workers, {} kill/restart cycles, two-hop replay chain\n",
        shape.workers, shape.cycles
    );
    let widths = [7, 8, 10, 10, 10, 10, 12];
    row(
        &[
            "cycle",
            "worker",
            "detect",
            "reboot",
            "replay",
            "total",
            "replayed to",
        ],
        &widths,
    );
    rule(&widths);

    let mut cycles = Vec::with_capacity(shape.cycles);
    for c in 0..shape.cycles {
        let victim = c % shape.workers;
        let report = kill_and_await(&fleet, victim);
        assert_eq!(
            report.replayed_to, "v3",
            "cycle {c}: replay must recover the pre-crash version"
        );
        assert!(
            report.total < RESTART_BOUND,
            "cycle {c}: restart took {:?}, bound {RESTART_BOUND:?}",
            report.total
        );
        row(
            &[
                &c.to_string(),
                &victim.to_string(),
                &fmt_dur(report.detect),
                &fmt_dur(report.reboot),
                &fmt_dur(report.replay),
                &fmt_dur(report.total),
                &report.replayed_to,
            ],
            &widths,
        );
        cycles.push(report);
    }

    // The fleet serves correctly after the whole gauntlet: v3 responses
    // carry the Content-Type header v1's guest never emits.
    let before = fleet.completions().len();
    fleet.push_requests(wl.batch(40));
    fleet.drain(before + 40).map_err(|e| e.to_string())?;
    let done = fleet.completions();
    assert!(
        done[before..]
            .iter()
            .all(|c| c.response.contains("Content-Type:")),
        "post-gauntlet responses must come from the recovered v3"
    );

    let mean = |f: fn(&RestartReport) -> Duration| -> Duration {
        cycles.iter().map(f).sum::<Duration>() / u32::try_from(cycles.len()).expect("bounded")
    };
    let max_total = cycles.iter().map(|r| r.total).max().unwrap_or_default();
    println!(
        "\n  mean: detect {} reboot {} replay {} total {}; worst total {} (bound {})\n",
        fmt_dur(mean(|r| r.detect)),
        fmt_dur(mean(|r| r.reboot)),
        fmt_dur(mean(|r| r.replay)),
        fmt_dur(mean(|r| r.total)),
        fmt_dur(max_total),
        fmt_dur(RESTART_BOUND),
    );
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(cycles)
}

struct LoadPhase {
    capacity_rps: f64,
    achieved_rps: f64,
    clients: usize,
    offered: usize,
    admitted: usize,
    shed: usize,
    completions: usize,
    rerouted: usize,
    failovers: u64,
    restart: RestartReport,
}

/// Measurement 2: closed-loop clients hold ~70% of measured capacity
/// through the routed edge while one worker dies and is restarted.
fn failover_under_load(shape: &Shape) -> Result<LoadPhase, Box<dyn std::error::Error>> {
    let (fs, mut wl) = fixture();
    let cfg = supervised(shape.workers).with_edge(
        EdgeConfig::new(RoutePolicy::ConsistentHash)
            .queue_capacity(4096)
            .shed_responses(true),
    );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
    let edge = fleet.edge().expect("routed fleet has an edge").clone();

    // Calibrate this fleet's capacity, then size the closed-loop window
    // for ~70% of it: each worker serves one request at a time, so by
    // Little's law the in-flight window is the load fraction times the
    // worker count.
    let t0 = Instant::now();
    fleet.push_requests(wl.batch(shape.calibrate));
    fleet.drain(shape.calibrate).map_err(|e| e.to_string())?;
    let capacity_rps = shape.calibrate as f64 / t0.elapsed().as_secs_f64();
    fleet.shared().take_completions();

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let clients = ((0.7 * shape.workers as f64).round() as usize).max(2);
    println!(
        "Failover under load: {} workers, {} closed-loop clients (~70% of {capacity_rps:.0} req/s),\n\
         {} requests, worker {} killed mid-stream\n",
        shape.workers,
        clients,
        shape.load_requests,
        shape.workers - 1
    );

    let shared = fleet.shared();
    let gen_thread = {
        let edge = std::sync::Arc::clone(&edge);
        let shared = shared.clone();
        let texts = wl.batch(2048);
        let requests = shape.load_requests;
        std::thread::spawn(move || {
            let mut next = texts.iter().cycle().cloned();
            ClosedLoop {
                clients,
                requests,
                backoff: Duration::from_micros(500),
                backoff_cap: Duration::from_millis(10),
                seed: 31,
            }
            .run(&edge, &shared, || next.next().expect("cycled"))
        })
    };

    // Let the window fill, then kill the last worker (a consistent-hash
    // ring member with real vnode ownership) under live traffic.
    std::thread::sleep(Duration::from_millis(5));
    let restart = kill_and_await(&fleet, shape.workers - 1);

    // The generator returns only when every admitted request's
    // completion — and every shed's synthesized 503 — arrived. A lost
    // request would hang it; the watchdog makes that a failure, not a
    // wedge.
    let watchdog = Instant::now() + Duration::from_secs(120);
    let report = loop {
        if gen_thread.is_finished() {
            break gen_thread.join().expect("generator thread panicked");
        }
        assert!(
            Instant::now() < watchdog,
            "closed loop never drained: a request was lost in the failover"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let completions = shared.completions_len();
    let lost = (report.admitted + report.shed).saturating_sub(completions);
    assert_eq!(lost, 0, "every admitted request must complete");
    assert_eq!(edge.failovers(), 1, "exactly one down transition");
    let achieved_rps = report.offered as f64 / report.elapsed.as_secs_f64();

    println!(
        "  offered {} ({achieved_rps:.0} req/s, {:.0}% of capacity), admitted {}, shed-retried {}",
        report.offered,
        100.0 * achieved_rps / capacity_rps,
        report.admitted,
        report.shed
    );
    println!(
        "  restart: detect {} reboot {} replay {} total {}; {} queued requests rerouted, 0 lost\n",
        fmt_dur(restart.detect),
        fmt_dur(restart.reboot),
        fmt_dur(restart.replay),
        fmt_dur(restart.total),
        restart.rerouted,
    );

    let phase = LoadPhase {
        capacity_rps,
        achieved_rps,
        clients,
        offered: report.offered,
        admitted: report.admitted,
        shed: report.shed,
        completions,
        rerouted: restart.rerouted,
        failovers: edge.failovers(),
        restart,
    };
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(phase)
}

fn restart_json(r: &RestartReport) -> String {
    format!(
        "{{\"worker\":{},\"detect_us\":{},\"reboot_us\":{},\"replay_us\":{},\
         \"total_us\":{},\"replayed_to\":\"{}\",\"rerouted\":{}}}",
        r.worker,
        r.detect.as_micros(),
        r.reboot.as_micros(),
        r.replay.as_micros(),
        r.total.as_micros(),
        r.replayed_to,
        r.rerouted,
    )
}

fn to_json(shape: &Shape, cycles: &[RestartReport], load: &LoadPhase) -> String {
    let cycle_rows: Vec<String> = cycles.iter().map(restart_json).collect();
    format!(
        "{{\"workers\":{},\"cycles\":[{}],\
         \"failover_under_load\":{{\"capacity_rps\":{:.1},\"achieved_rps\":{:.1},\
         \"clients\":{},\"offered\":{},\"admitted\":{},\"shed\":{},\"completions\":{},\
         \"lost\":0,\"rerouted\":{},\"failovers\":{},\"restart\":{}}}}}",
        shape.workers,
        cycle_rows.join(","),
        load.capacity_rps,
        load.achieved_rps,
        load.clients,
        load.offered,
        load.admitted,
        load.shed,
        load.completions,
        load.rerouted,
        load.failovers,
        restart_json(&load.restart),
    )
}
