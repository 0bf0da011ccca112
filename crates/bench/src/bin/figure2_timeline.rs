//! Figure 2 — throughput timeline across live updates.
//!
//! FlashEd serves a continuous request stream while the full patch stream
//! (v1→…→v5) is applied mid-traffic. Completions are bucketed over time;
//! update events are marked. The paper's shape: throughput dips only for
//! the duration of the update pause, with no residual degradation after —
//! the type-changing v3→v4 patch shows the largest pause (state
//! transformation).
//!
//! Update marks are read out of the telemetry journal (one committed
//! lifecycle per patch) rather than the updater's report log, and
//! cross-checked against it.
//!
//! Run with: `cargo run --release -p dsu-bench --bin figure2_timeline`

use std::time::Duration;

use dsu_bench::measure::{fmt_dur, row, rule};
use dsu_obs::fleet::rollout_timeline;
use flashed::{
    parse_response, patch_stream, versions, Server, ServerConfig, ServerTelemetry, SimFs, Workload,
};

const BATCH: usize = 1200;
const BUCKET: Duration = Duration::from_millis(2);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = SimFs::generate_fixed(48, 2048, 9);
    let mut wl = Workload::new(fs.paths(), 1.0, 31);
    // Shared state and journal are created back-to-back, so completion
    // timestamps and journal offsets share an epoch (within microseconds)
    // and the journal's update marks land in the right buckets.
    let telemetry = ServerTelemetry::new();
    let mut server = Server::start(
        &ServerConfig::new().telemetry(telemetry.clone()),
        &versions::v1(),
        "v1",
        fs,
    )?;
    let stream = patch_stream()?;

    // Phase 0: v1 alone, then one batch per patch with the patch applying
    // at the first update point inside the batch.
    server.push_requests(wl.batch(BATCH));
    server.serve().map_err(|e| e.to_string())?;
    for gen in stream {
        server.push_requests(wl.batch(BATCH));
        server.queue_patch(gen.patch);
        server.serve().map_err(|e| e.to_string())?;
    }

    // The update marks come straight out of the lifecycle journal: one
    // committed row per patch, pause = its recorded phase sum (identical
    // to the updater's report timings by construction).
    let timeline = rollout_timeline(&telemetry.journal().events());
    let update_marks: Vec<(Duration, String, Duration)> = timeline
        .iter()
        .filter(|r| r.committed)
        .map(|r| {
            (
                r.enqueued_at,
                format!("{}->{}", r.from_version, r.to_version),
                r.phase_total,
            )
        })
        .collect();
    assert_eq!(update_marks.len(), 4, "all four patches committed");
    for (r, (_, _, pause)) in server.updater.log().iter().zip(&update_marks) {
        assert_eq!(r.timings.total(), *pause, "journal disagrees with report");
    }

    let completions = server.completions();
    let ok = completions
        .iter()
        .filter(|c| {
            parse_response(&c.response)
                .map(|r| r.status == 200)
                .unwrap_or(false)
        })
        .count();

    // Bucket completions.
    let end = completions.iter().map(|c| c.at).max().unwrap_or_default();
    let buckets = (end.as_nanos() / BUCKET.as_nanos() + 1) as usize;
    let mut counts = vec![0usize; buckets];
    for c in &completions {
        counts[(c.at.as_nanos() / BUCKET.as_nanos()) as usize] += 1;
    }

    println!(
        "Figure 2: completions per {} bucket, {} requests total ({} OK)\n",
        fmt_dur(BUCKET),
        completions.len(),
        ok
    );
    let widths = [10, 8];
    row(&["t", "req"], &widths);
    rule(&[10, 8, 44]);
    let max = counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, n) in counts.iter().enumerate() {
        let t = BUCKET * i as u32;
        let bar = "#".repeat(n * 40 / max);
        let marks: Vec<String> = update_marks
            .iter()
            .filter(|(at, _, _)| *at >= t && *at < t + BUCKET)
            .map(|(_, label, pause)| format!("<- update {label} (pause {})", fmt_dur(*pause)))
            .collect();
        println!("{:>10}  {:>8}  {bar} {}", fmt_dur(t), n, marks.join(" "));
    }

    println!("\nupdate events:");
    for (at, label, pause) in &update_marks {
        println!(
            "  {label:8} at {:>9} pause {:>9}",
            fmt_dur(*at),
            fmt_dur(*pause)
        );
    }
    println!(
        "\n(expected shape: steady buckets before and after each mark; the pause\n\
         is orders of magnitude shorter than a stop/restart and there is no\n\
         residual post-update slowdown — unlike proxy-based DSU designs)"
    );
    Ok(())
}
