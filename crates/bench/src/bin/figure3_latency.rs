//! Figure 3 — per-request service-time distribution.
//!
//! Complements the throughput figures with the client-visible view:
//! service-time percentiles for the static and updateable servers, and
//! for the updateable server across a live update — showing that the
//! update pause affects (at most) the handful of requests served at the
//! update point and leaves the distribution otherwise untouched.
//!
//! Run with: `cargo run --release -p dsu-bench --bin figure3_latency`

use dsu_bench::measure::{fmt_dur, row, rule};
use flashed::{latency_stats, patch_stream, versions, Server, ServerConfig, SimFs, Workload};
use vm::LinkMode;

const REQUESTS: usize = 3000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Figure 3: per-request service time ({REQUESTS} requests, v3, 1KiB docs)\n");
    let widths = [26, 10, 10, 10];
    row(&["configuration", "p50", "p99", "max"], &widths);
    rule(&widths);

    // Static baseline.
    let stats = run(LinkMode::Static, false)?;
    print_row("static (Flash)", stats, &widths);

    // Updateable, no update.
    let stats = run(LinkMode::Updateable, false)?;
    print_row("updateable (FlashEd)", stats, &widths);

    // Updateable with the v3->v4 type-changing update mid-stream.
    let stats = run(LinkMode::Updateable, true)?;
    print_row("updateable + live update", stats, &widths);

    println!(
        "\n(expected shape: the three distributions coincide — updateable\n\
         dispatch does not inflate per-request service time, and the update\n\
         pause falls *between* requests (an inter-arrival gap, figure 2),\n\
         never inside one. No residual post-update inflation: unlike\n\
         proxy-based DSU, updated code runs at full speed.)"
    );
    Ok(())
}

fn run(
    mode: LinkMode,
    update_mid_stream: bool,
) -> Result<flashed::LatencyStats, Box<dyn std::error::Error>> {
    let fs = SimFs::generate_fixed(32, 1024, 3);
    let mut wl = Workload::new(fs.paths(), 1.0, 17);
    let cfg = ServerConfig::new().link_mode(mode);
    let mut server = Server::start(&cfg, &versions::v3(), "v3", fs)?;
    // Warm up (cache population, allocator).
    server.push_requests(wl.batch(300));
    server.serve().map_err(|e| e.to_string())?;
    server.take_completions();

    server.push_requests(wl.batch(REQUESTS));
    if update_mid_stream {
        let gen = &patch_stream()?[2]; // v3 -> v4
        server.queue_patch(gen.patch.clone());
    }
    server.serve().map_err(|e| e.to_string())?;
    Ok(latency_stats(&server.completions()))
}

fn print_row(label: &str, s: flashed::LatencyStats, widths: &[usize]) {
    row(
        &[label, &fmt_dur(s.p50), &fmt_dur(s.p99), &fmt_dur(s.max)],
        widths,
    );
}
