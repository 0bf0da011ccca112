//! End-to-end serving throughput, static vs updateable, and serving
//! across a live update. Plain timing harness (no external framework).

use dsu_bench::measure::{fmt_dur, time_median};
use flashed::{patch_stream, versions, Server, ServerConfig, SimFs, Workload};
use vm::LinkMode;

const REQS: usize = 300;

fn bench_serve() {
    println!("serve: {REQS} requests per iteration (median of 30)");
    for mode in [LinkMode::Static, LinkMode::Updateable] {
        let fs = SimFs::generate_fixed(32, 1024, 3);
        let mut wl = Workload::new(fs.paths(), 1.0, 17);
        let cfg = ServerConfig::new().link_mode(mode);
        let mut server = Server::start(&cfg, &versions::v2(), "v2", fs).expect("boot");
        let t = time_median(30, || {
            server.push_requests(wl.batch(REQS));
            server.serve().expect("serve");
            // Drain responses so iterations don't accumulate memory.
            server.take_completions();
        });
        let rps = REQS as f64 / t.as_secs_f64();
        println!("  {mode:?}/v2: {} per batch ({rps:.0} req/s)", fmt_dur(t));
    }
}

fn bench_serve_across_update() {
    let stream = patch_stream().expect("stream");
    let v3v4 = stream[2].patch.clone();
    println!("serve_across_update: v3-to-v4 mid-batch (median of 20)");
    let t = time_median(20, || {
        let fs = SimFs::generate_fixed(32, 1024, 3);
        let mut wl = Workload::new(fs.paths(), 1.0, 17);
        let mut server =
            Server::start(&ServerConfig::new(), &versions::v3(), "v3", fs).expect("boot");
        server.push_requests(wl.batch(REQS));
        server.queue_patch(v3v4.clone());
        server.serve().expect("serve");
    });
    println!(
        "  v3-to-v4/{REQS}req: {} (boot + serve + update)",
        fmt_dur(t)
    );
}

fn main() {
    bench_serve();
    bench_serve_across_update();
}
