//! Telemetry and tracing self-overhead: what does observability cost
//! the fleet?
//!
//! Runs the disk-bound fleet workload (the regime of the scaling
//! experiment: v1, no response cache, simulated per-read device latency)
//! four times per round on otherwise-identical fleets — interleaved
//! round-robin, taking the per-side minimum to suppress scheduler noise:
//!
//! * **plain** — no instrumentation at all (the baseline);
//! * **telemetry** — lifecycle journal attached to every updater,
//!   per-request counters/histograms, queue-depth gauge, VM-stat
//!   publishing;
//! * **traced** — telemetry plus causal tracing with every request
//!   sampled (a root span + AMPED phase children per response);
//! * **traced 1/16** — the same tracer sampling 1 request in 16, the
//!   configuration meant to stay on in production.
//!
//! The claims under test: telemetry costs **under 2%** of throughput,
//! and so does sampled tracing. Full-rate tracing is reported but not
//! enforced — it is a debugging mode, not a default.
//!
//! Also exports the telemetry fleet's journal (JSONL), merged metric
//! scrapes (Prometheus text + JSON) and the traced fleet's Chrome trace
//! under `target/telemetry/`, so a CI run leaves the artifacts behind.
//!
//! Run with: `cargo run --release -p dsu-bench --bin telemetry_overhead`
//! (pass `smoke` for a fast CI-sized run that reports but does not
//! enforce the thresholds).

use std::time::Duration;

use dsu_bench::measure::{fmt_dur, overhead_percent, row, rule, time_interleaved_n};
use flashed::{versions, Fleet, FleetConfig, SimFs, Workload};

const WORKERS: usize = 4;
const FILES: usize = 32;
const DOC_SIZE: usize = 1024;
/// Simulated device latency per read — the disk-bound regime.
const READ_LATENCY: Duration = Duration::from_micros(150);
const THRESHOLD_PERCENT: f64 = 2.0;
/// The production sampling rate: record 1 request in 16.
const SAMPLE_EVERY: u64 = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "smoke");
    let (requests, samples) = if smoke { (400, 2) } else { (3000, 5) };

    let fs = SimFs::generate_fixed(FILES, DOC_SIZE, 3).with_read_latency(READ_LATENCY);
    let mut wl = Workload::new(fs.paths(), 1.0, 17);

    let cfg = FleetConfig::new(WORKERS);
    let plain = Fleet::start_cfg(&cfg, &versions::v1(), "v1", &fs)?;
    let telemetry = Fleet::start_cfg(&cfg.with_telemetry(), &versions::v1(), "v1", &fs)?;
    let traced_cfg = FleetConfig::new(WORKERS).with_tracing();
    let traced = Fleet::start_cfg(&traced_cfg, &versions::v1(), "v1", &fs)?;
    let sampled = Fleet::start_cfg(&traced_cfg, &versions::v1(), "v1", &fs)?;
    sampled
        .telemetry()
        .expect("traced fleet")
        .tracer()
        .expect("tracer on")
        .set_sampling(SAMPLE_EVERY);

    // Warm every fleet outside the timed region.
    for fleet in [&plain, &telemetry, &traced, &sampled] {
        fleet.push_requests(wl.batch(100 * WORKERS));
        fleet.drain(100 * WORKERS)?;
        fleet.shared().take_completions();
    }

    let batch: Vec<String> = wl.batch(requests);
    let run = |fleet: &Fleet| {
        fleet.push_requests(batch.iter().cloned());
        fleet.drain(requests).expect("fleet drains");
        fleet.shared().take_completions();
    };
    let mut run_plain = || run(&plain);
    let mut run_telemetry = || run(&telemetry);
    let mut run_traced = || run(&traced);
    let mut run_sampled = || run(&sampled);
    let best = time_interleaved_n(
        samples,
        &mut [
            &mut run_plain,
            &mut run_telemetry,
            &mut run_traced,
            &mut run_sampled,
        ],
    );
    let base = best[0];
    let sampled_name = format!("traced 1/{SAMPLE_EVERY}");
    let sides = [
        ("plain", best[0]),
        ("telemetry", best[1]),
        ("traced 1/1", best[2]),
        (sampled_name.as_str(), best[3]),
    ];

    println!(
        "Observability self-overhead: {WORKERS} workers, {requests} requests/side x {samples} rounds,\n\
         {READ_LATENCY:?} simulated device latency per read{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );
    let widths = [14, 12, 12, 10];
    row(&["fleet", "elapsed", "req/s", "overhead"], &widths);
    rule(&widths);
    for (name, d) in sides {
        row(
            &[
                name,
                &fmt_dur(d),
                &format!("{:.0}", requests as f64 / d.as_secs_f64()),
                &format!("{:+.2}%", overhead_percent(base, d)),
            ],
            &widths,
        );
    }
    let tel_overhead = overhead_percent(base, best[1]);
    let sampled_overhead = overhead_percent(base, best[3]);
    println!(
        "\nenforced (budget {THRESHOLD_PERCENT}%): telemetry {tel_overhead:+.2}%, \
         {sampled_name} {sampled_overhead:+.2}%"
    );

    // Leave the telemetry artifacts behind for scraping/upload.
    let tel = telemetry.telemetry().expect("telemetry fleet");
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("overhead_journal.jsonl"), tel.journal().to_jsonl())?;
    std::fs::write(dir.join("overhead_metrics.prom"), tel.scrape_text())?;
    std::fs::write(dir.join("overhead_metrics.json"), tel.scrape_json())?;
    let traced_tel = traced.telemetry().expect("traced fleet");
    let spans = traced_tel.tracer().expect("tracer on").take_spans();
    std::fs::write(
        dir.join("overhead_trace.json"),
        dsu_obs::to_chrome_trace(&spans),
    )?;
    println!(
        "exported target/telemetry/overhead_{{journal.jsonl,metrics.prom,metrics.json,trace.json}} \
         ({} spans in the full-rate trace)",
        spans.len()
    );

    plain.shutdown()?;
    telemetry.shutdown()?;
    traced.shutdown()?;
    sampled.shutdown()?;

    if smoke {
        println!("smoke mode: thresholds reported, not enforced");
    } else if tel_overhead < THRESHOLD_PERCENT && sampled_overhead < THRESHOLD_PERCENT {
        println!("PASS: telemetry and sampled tracing both under {THRESHOLD_PERCENT}%");
    } else {
        println!("FAIL: observability overhead above {THRESHOLD_PERCENT}%");
        std::process::exit(1);
    }
    Ok(())
}
