//! Guarded rollouts under fault injection: breach, rollback, converge.
//!
//! Drives the self-healing rollout pipeline end to end, twice:
//!
//! 1. **Healthy rollout** — a clean v1 -> v2 guarded rollout (canary
//!    first, health gate after every step). Every step passes, the fleet
//!    converges on v2, and the report card says `completed`.
//! 2. **Breach -> rollback** — the canary's update pause is inflated by
//!    an injected [`FaultPlan`] well past a tight p99 pause SLO. The
//!    health gate trips on the canary, the rollout rolls the canary back
//!    through the inverse (v2 -> v1) patch, and the fleet converges on
//!    the *prior* version while still serving.
//!
//! Both runs cross-check the fleet journal against the report card: every
//! lifecycle validates, and each rollback lifecycle's phase sum equals
//! that report's pipeline total exactly. The breach run also measures
//! forward-apply vs rollback latency (EXPERIMENTS R1) — the rollback is
//! the same seven-phase pipeline in reverse, so the two should sit within
//! the same order of magnitude.
//!
//! Artifacts (CI's fault-smoke job uploads these):
//! `target/telemetry/rollout_guard_card.json` — the breach run's report
//! card; `target/telemetry/rollout_guard.jsonl` — its journal.
//!
//! Run with: `cargo run --release -p dsu-bench --bin rollout_guard`

use std::time::Duration;

use dsu_bench::measure::fmt_dur;
use flashed::{
    patch_stream, versions, BreachAction, FaultPlan, Fleet, FleetConfig, HealthBreach, PauseSlo,
    RolloutOutcome, RolloutPlan, RolloutReportCard, SimFs, WorkerOverride, Workload,
};

const WORKERS: usize = 3;
const REQUESTS: usize = 300;
const FILES: usize = 16;
const DOC_SIZE: usize = 256;

fn fixture() -> (SimFs, Workload) {
    let fs = SimFs::generate_fixed(FILES, DOC_SIZE, 7);
    let wl = Workload::new(fs.paths(), 1.0, 53);
    (fs, wl)
}

fn forward_patch() -> Result<dsu_core::Patch, Box<dyn std::error::Error>> {
    Ok(patch_stream()?[0].patch.clone()) // v1 -> v2
}

fn inverse_patch() -> Result<dsu_core::Patch, Box<dyn std::error::Error>> {
    Ok(dsu_core::PatchGen::new()
        .generate(&versions::v2(), &versions::v1(), "v2", "v1")?
        .patch)
}

/// Re-derives each journal lifecycle and checks its phase sum against the
/// matching report in the card — the "journal-backed" guarantee.
fn check_journal(
    fleet: &Fleet,
    card: &RolloutReportCard,
) -> Result<(), Box<dyn std::error::Error>> {
    let tel = fleet.telemetry().expect("fleet started with telemetry");
    for id in tel.journal().update_ids() {
        dsu_obs::journal::validate_lifecycle(&tel.journal().events_for(id))?;
    }
    let timeline = tel.timeline();
    for (worker, r) in card.forward.iter().chain(&card.rollbacks) {
        let row = timeline
            .iter()
            .find(|row| {
                row.worker == Some(*worker)
                    && row.to_version == r.to_version
                    && (row.committed || row.rolled_back)
            })
            .unwrap_or_else(|| panic!("no journal row for worker {worker} -> {}", r.to_version));
        assert_eq!(
            row.phase_total,
            r.timings.total(),
            "worker {worker}: journal phase sum != report total"
        );
    }
    Ok(())
}

/// A clean guarded rollout: every step passes its gate, the fleet
/// converges on the new version.
fn healthy() -> Result<(), Box<dyn std::error::Error>> {
    println!("Guarded rollout, healthy fleet ({WORKERS} workers, v1 -> v2, canary worker 0)\n");
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(WORKERS).with_telemetry();
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
    fleet.push_requests(wl.batch(REQUESTS));

    let slo = PauseSlo::p99(Duration::from_millis(50));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::RollBack { inverse: None });
    let card = fleet
        .rollout_plan(&forward_patch()?, &plan)
        .map_err(|e| e.to_string())?
        .card;
    fleet.drain(REQUESTS).map_err(|e| e.to_string())?;

    assert_eq!(card.outcome, RolloutOutcome::Completed);
    assert!(
        card.converged(),
        "fleet diverged: {:?}",
        card.final_versions
    );
    assert!(fleet.live_versions().iter().all(|v| v == "v2"));
    check_journal(&fleet, &card)?;
    print!("{}", card.render());
    println!();
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

/// The self-healing path: an injected pause fault breaches the SLO on the
/// canary, and the rollout rolls the fleet back through the inverse patch.
fn breach_and_rollback() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "Guarded rollout, faulted canary ({WORKERS} workers, v1 -> v2, \
         8 ms injected pause vs 2 ms p99 budget)\n"
    );
    let (fs, mut wl) = fixture();
    let cfg = FleetConfig::new(WORKERS).with_telemetry().override_worker(
        0,
        WorkerOverride {
            fault: FaultPlan {
                pause_delay: Some(Duration::from_millis(8)),
                ..FaultPlan::default()
            },
            ..WorkerOverride::default()
        },
    );
    let fleet = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs).map_err(|e| e.to_string())?;
    fleet.push_requests(wl.batch(REQUESTS));

    let slo = PauseSlo::p99(Duration::from_millis(2));
    let inverse = Some(Box::new(inverse_patch()?));
    let plan = RolloutPlan::guarded(0, slo, BreachAction::RollBack { inverse });
    let card = fleet
        .rollout_plan(&forward_patch()?, &plan)
        .map_err(|e| e.to_string())?
        .card;
    fleet.drain(REQUESTS).map_err(|e| e.to_string())?;

    // The breach names the canary's pause, the fleet is back on v1, and
    // the journal backs every number on the card.
    assert!(
        matches!(
            card.outcome,
            RolloutOutcome::RolledBack(HealthBreach::PauseSlo { worker: 0, .. })
        ),
        "expected a pause-SLO rollback, got {:?}",
        card.outcome
    );
    assert!(
        card.converged(),
        "fleet diverged: {:?}",
        card.final_versions
    );
    assert!(fleet.live_versions().iter().all(|v| v == "v1"));
    check_journal(&fleet, &card)?;
    print!("{}", card.render());

    // R1: forward apply vs rollback, same pipeline both directions. The
    // forward total includes the injected 8 ms pause (charged to drain);
    // the transform-onward phases are the honest comparison.
    let fwd = &card.forward[0].1;
    let rb = &card.rollbacks[0].1;
    println!("\n  R1: forward apply vs rollback (canary, one update each way)");
    println!(
        "    forward  v1 -> v2: total {} (drain {} holds the injected fault), transform {}",
        fmt_dur(fwd.timings.total()),
        fmt_dur(fwd.timings.drain),
        fmt_dur(fwd.timings.transform),
    );
    println!(
        "    rollback v2 -> v1: total {} (reverse transformers), transform {}",
        fmt_dur(rb.timings.total()),
        fmt_dur(rb.timings.transform),
    );
    let fwd_pipeline = fwd.timings.total() - fwd.timings.drain;
    let rb_pipeline = rb.timings.total() - rb.timings.drain;
    println!(
        "    pipeline excl. drain: forward {} vs rollback {} (ratio {:.2}x)",
        fmt_dur(fwd_pipeline),
        fmt_dur(rb_pipeline),
        rb_pipeline.as_secs_f64() / fwd_pipeline.as_secs_f64().max(f64::EPSILON),
    );

    // Artifacts for CI.
    let tel = fleet.telemetry().expect("fleet started with telemetry");
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("rollout_guard_card.json"), card.to_json())?;
    std::fs::write(dir.join("rollout_guard.jsonl"), tel.journal().to_jsonl())?;
    println!("\n  exported target/telemetry/rollout_guard_card.json and rollout_guard.jsonl\n");
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    healthy()?;
    breach_and_rollback()?;
    Ok(())
}
