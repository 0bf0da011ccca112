//! Attribution demo: who paid for the pause?
//!
//! Runs a guarded canary rollout (v1 -> v2) over an AMPED event-loop
//! fleet under open-loop load with causal tracing and the VM hot-path
//! profiler on, then joins the request spans against the update phase
//! spans into a per-update **stall report**: which requests were
//! delayed, by which phase, for how long — attributed vs. intrinsic
//! latency, p50/p99.
//!
//! Acceptance (enforced outside smoke mode): the per-request attributed
//! pause time sums to within 1% of the journal's pause+drain phase
//! totals (drain ≈ 0: the AMPED pause does not wait for parked reads) —
//! the trace and the journal tell the same story about where the
//! update's cost went. The span forest must also be invariant-clean
//! (`validate_spans`), and every journalled lifecycle well-formed.
//!
//! Artifacts land under `target/telemetry/`: the Chrome trace
//! (`stall_trace.json`, loadable in Perfetto / `chrome://tracing`), the
//! stall report (JSON + rendered text), and each worker's collapsed
//! VM profile (`vm_profile_w<N>.collapsed`, flamegraph-ready).
//!
//! Run with: `cargo run --release -p dsu-bench --bin stall_report`
//! (pass `smoke` for a fast CI-sized run that reports the
//! reconciliation gap but only enforces non-emptiness and invariants).

use std::time::Duration;

use dsu_obs::journal::validate_lifecycle;
use dsu_obs::{stall_report, to_chrome_trace, validate_spans, Stage};
use flashed::{
    versions, BreachAction, EventLoopConfig, Fleet, FleetConfig, PauseSlo, RolloutPlan, ServeMode,
    ServerTelemetry, SimFs, Workload,
};

const WORKERS: usize = 4;
const FILES: usize = 32;
const DOC_SIZE: usize = 1024;
/// Simulated device latency per read — keeps reads parked in the event
/// loop, so every pause has requests in flight to attribute to.
const READ_LATENCY: Duration = Duration::from_micros(300);
const THRESHOLD_PERCENT: f64 = 1.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "smoke");
    let requests = if smoke { 2500 } else { 6000 };

    let mut fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3);
    fs.set_read_latency(READ_LATENCY);
    let mut wl = Workload::new(fs.paths(), 1.0, 17);

    let cfg = FleetConfig::new(WORKERS)
        .serve_mode(ServeMode::EventLoop(EventLoopConfig::default()))
        .with_tracing()
        .with_vm_profile();
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
    let worker_tels: Vec<ServerTelemetry> = (0..WORKERS)
        .map(|i| fleet.telemetry().expect("telemetry on").worker(i).clone())
        .collect();

    println!(
        "Stall attribution: guarded rollout (v1 -> v2, canary 0) over a {WORKERS}-worker\n\
         AMPED fleet, {requests} open-loop requests, {READ_LATENCY:?} device latency{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );

    // Open loop: the whole burst is queued before the rollout starts, so
    // the in-flight window stays saturated through every pause.
    fleet.push_requests(wl.batch(requests));
    let slo = PauseSlo::p99(Duration::from_millis(500));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::Hold);
    let run = fleet
        .rollout_plan(&flashed::patch_stream()?[0].patch, &plan)
        .map_err(|e| e.to_string())?;
    let (report, card) = (run.fleet_report, run.card);
    assert_eq!(report.applied.len(), WORKERS, "every worker applied");
    assert!(card.converged(), "{:?}", card.final_versions);
    fleet.drain(requests).map_err(|e| e.to_string())?;

    let tel = fleet.telemetry().expect("telemetry on");
    let tracer = tel.tracer().expect("tracing on").clone();
    let journal = tel.journal().clone();
    fleet.shutdown().map_err(|e| e.to_string())?;

    // Invariants first: the whole span forest must be well-formed, and
    // so must every journalled lifecycle.
    let spans = tracer.spans();
    validate_spans(&spans).map_err(|e| format!("trace invariants: {e}"))?;
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id))?;
    }

    let stalls = stall_report(&spans);
    assert!(!stalls.updates.is_empty(), "stall report has update rows");
    assert!(stalls.requests_seen > 0, "request spans were sampled");
    assert!(
        stalls.requests_delayed > 0,
        "some requests overlapped a pause"
    );
    println!("{}", stalls.render());

    // Reconciliation: the trace's attributed pause time vs. the
    // journal's pause+drain phase totals (the same `PhaseTimings`, via
    // two independent paths).
    let journal_total: Duration = journal
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Drain || Stage::PHASES.contains(&e.stage))
        .filter_map(|e| e.dur)
        .sum();
    let attributed = stalls.attributed_total;
    let gap_pct = if journal_total > Duration::ZERO {
        100.0 * (journal_total.as_secs_f64() - attributed.as_secs_f64()).abs()
            / journal_total.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "reconciliation: attributed {:.3}ms vs journal pause+drain {:.3}ms (gap {gap_pct:.2}%, budget {THRESHOLD_PERCENT}%)",
        attributed.as_secs_f64() * 1e3,
        journal_total.as_secs_f64() * 1e3,
    );

    // Artifacts: Chrome trace, stall report (JSON + text), VM profiles.
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("stall_trace.json"), to_chrome_trace(&spans))?;
    std::fs::write(dir.join("stall_report.json"), stalls.to_json())?;
    std::fs::write(dir.join("stall_report.txt"), stalls.render())?;
    let mut profiled = 0;
    for (i, t) in worker_tels.iter().enumerate() {
        if let Some(p) = t.vm_profile() {
            std::fs::write(dir.join(format!("vm_profile_w{i}.collapsed")), p)?;
            profiled += 1;
        }
    }
    assert_eq!(profiled, WORKERS, "every worker published a VM profile");
    println!(
        "exported target/telemetry/stall_{{trace.json,report.json,report.txt}} \
         and {profiled} collapsed VM profiles ({} spans)",
        spans.len()
    );

    if smoke {
        println!("smoke mode: reconciliation reported, not enforced");
    } else if gap_pct < THRESHOLD_PERCENT {
        println!("PASS: attributed pause within {THRESHOLD_PERCENT}% of journal totals");
    } else {
        println!("FAIL: attribution gap {gap_pct:.2}% above {THRESHOLD_PERCENT}%");
        std::process::exit(1);
    }
    Ok(())
}
