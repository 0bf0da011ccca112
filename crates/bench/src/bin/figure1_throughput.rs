//! Figure 1 — Flash vs FlashEd throughput across document sizes.
//!
//! The paper's server experiment: the same server code, linked statically
//! ("Flash", not updateable) and updateably ("FlashEd"), serving the same
//! workload. The updateable server should stay within a small margin of
//! the static one, shrinking as per-request work (document size) grows.
//!
//! A second table isolates the serve *architecture* on one updateable
//! server: blocking vs AMPED event loop across in-flight windows, on a
//! disk-bound workload — Flash's original argument, reproduced on the
//! updateable runtime.
//!
//! Run with: `cargo run --release -p dsu-bench --bin figure1_throughput`

use std::time::{Duration, Instant};

use dsu_bench::measure::{overhead_percent, row, rule, time_interleaved};
use flashed::{versions, EventLoopConfig, ServeMode, Server, ServerConfig, SimFs, Workload};
use vm::LinkMode;

const REQUESTS: usize = 1500;
const FILES: usize = 32;
const REPS: usize = 12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    static_vs_updateable()?;
    blocking_vs_amped()?;
    Ok(())
}

fn static_vs_updateable() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "Figure 1: throughput vs document size ({REQUESTS} requests, {FILES} files,\n\
         zipf(1.0), min of {REPS} interleaved runs)\n"
    );
    let widths = [10, 14, 14, 10];
    row(
        &["doc size", "static req/s", "updtbl req/s", "overhead"],
        &widths,
    );
    rule(&widths);

    for size in [256usize, 1024, 4096, 16384, 65536] {
        let fs = SimFs::generate_fixed(FILES, size, 3);
        // Identical request sequences for both servers.
        let mut wl_s = Workload::new(fs.paths(), 1.0, 17);
        let mut wl_u = Workload::new(fs.paths(), 1.0, 17);
        let static_link = ServerConfig::new().link_mode(LinkMode::Static);
        let mut flash = Server::start(&static_link, &versions::v2(), "v2", fs.clone())?;
        let mut flashed = Server::start(&ServerConfig::new(), &versions::v2(), "v2", fs)?;
        let (t_static, t_upd) = time_interleaved(
            REPS,
            || {
                flash.push_requests(wl_s.batch(REQUESTS));
                flash.serve().expect("serve");
                // Drain so repeated batches don't accumulate gigabytes.
                flash.take_completions();
            },
            || {
                flashed.push_requests(wl_u.batch(REQUESTS));
                flashed.serve().expect("serve");
                flashed.take_completions();
            },
        );
        row(
            &[
                &format!("{size}B"),
                &format!("{:.0}", REQUESTS as f64 / t_static.as_secs_f64()),
                &format!("{:.0}", REQUESTS as f64 / t_upd.as_secs_f64()),
                &format!("{:+.1}%", overhead_percent(t_static, t_upd)),
            ],
            &widths,
        );
    }
    println!(
        "\n(expected shape: updateable within a small percentage of static, the\n\
         gap narrowing as documents grow and per-request copying dominates\n\
         dispatch cost)\n"
    );
    Ok(())
}

/// One updateable server, disk-bound workload: the blocking loop pays
/// every device wait serially; the AMPED event loop overlaps them, with
/// throughput growing in the in-flight window until the helper pool
/// saturates.
fn blocking_vs_amped() -> Result<(), Box<dyn std::error::Error>> {
    const AMPED_REQUESTS: usize = 400;
    const LATENCY: Duration = Duration::from_micros(500);
    println!(
        "Figure 1b: serve architecture on one updateable server\n\
         ({AMPED_REQUESTS} requests, {FILES} files x 1024 B, {LATENCY:?} device latency per read)\n"
    );
    let widths = [22, 12, 12, 9];
    row(&["mode", "elapsed", "req/s", "speedup"], &widths);
    rule(&widths);

    let mut fs = SimFs::generate_fixed(FILES, 1024, 3);
    fs.set_read_latency(LATENCY);

    let run = |mode: ServeMode| -> Result<Duration, String> {
        let mut wl = Workload::new(fs.paths(), 1.0, 17);
        let mut server = Server::start(
            &ServerConfig::new().serve_mode(mode),
            &versions::v1(),
            "v1",
            fs.clone(),
        )
        .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        server.push_requests(wl.batch(AMPED_REQUESTS));
        server.serve().map_err(|e| e.to_string())?;
        Ok(t0.elapsed())
    };

    let blocking = run(ServeMode::Blocking)?;
    let base_rps = AMPED_REQUESTS as f64 / blocking.as_secs_f64();
    row(
        &[
            "blocking",
            &dsu_bench::measure::fmt_dur(blocking),
            &format!("{base_rps:.0}"),
            "1.00x",
        ],
        &widths,
    );
    for window in [2usize, 4, 8, 16] {
        let elapsed = run(ServeMode::EventLoop(EventLoopConfig {
            helpers: window,
            cache_entries: 256,
            max_in_flight: window,
        }))?;
        let rps = AMPED_REQUESTS as f64 / elapsed.as_secs_f64();
        row(
            &[
                &format!("amped (window {window})"),
                &dsu_bench::measure::fmt_dur(elapsed),
                &format!("{rps:.0}"),
                &format!("{:.2}x", rps / base_rps),
            ],
            &widths,
        );
    }
    println!(
        "\n(expected shape: throughput grows with the in-flight window while\n\
         device waits dominate, then flattens once the buffer cache absorbs\n\
         the popular documents)"
    );
    Ok(())
}
