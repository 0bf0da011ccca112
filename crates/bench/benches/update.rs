//! Dynamic-update machinery costs. Plain timing harness.
//!
//! * `apply/*` — end-to-end patch application per FlashEd patch (fresh
//!   warmed server per iteration).
//! * `verify_only` — bytecode re-verification of the largest patch.
//! * `patchgen/*` — source-diff patch generation.

use dsu_bench::measure::{fmt_dur, time_median};
use dsu_core::{apply_patch, PatchGen, UpdatePolicy};
use flashed::{patch_stream, versions, Server, ServerConfig, SimFs, Workload};
use vm::ProcessTypes;

fn warmed(version_idx: usize) -> Server {
    let all = versions::all();
    let (name, src) = &all[version_idx];
    let fs = SimFs::generate_fixed(16, 512, 5);
    let mut wl = Workload::new(fs.paths(), 1.0, 100);
    let mut server = Server::start(&ServerConfig::new(), src, name, fs).expect("boot");
    server.push_requests(wl.batch(100));
    server.serve().expect("warm");
    server
}

fn bench_apply() {
    let stream = patch_stream().expect("stream");
    println!("apply: end-to-end patch application on a warmed server (median of 30)");
    for (i, gen) in stream.iter().enumerate() {
        // Warming happens outside the timed region: each sample warms a
        // fresh server, then times only the apply.
        let mut samples: Vec<std::time::Duration> = (0..30)
            .map(|_| {
                let mut s = warmed(i);
                let t = std::time::Instant::now();
                apply_patch(s.process_mut(), &gen.patch, UpdatePolicy::default()).expect("apply");
                t.elapsed()
            })
            .collect();
        samples.sort();
        println!(
            "  {}-to-{}: {}",
            gen.patch.from_version,
            gen.patch.to_version,
            fmt_dur(samples[samples.len() / 2]),
        );
    }
}

fn bench_verify() {
    let stream = patch_stream().expect("stream");
    let biggest = stream
        .iter()
        .max_by_key(|g| g.patch.size_bytes())
        .expect("non-empty");
    let server = warmed(0);
    let t = time_median(50, || {
        tal::verify_module(&biggest.patch.module, &ProcessTypes(server.process()))
            .expect("verifies");
    });
    println!("verify_only/largest_patch: {}", fmt_dur(t));
}

fn bench_patchgen() {
    let all = versions::all();
    let t = time_median(20, || {
        PatchGen::new()
            .generate(&all[2].1, &all[3].1, "v3", "v4")
            .expect("generates");
    });
    println!("patchgen/v3-to-v4: {}", fmt_dur(t));
}

fn main() {
    bench_apply();
    bench_verify();
    bench_patchgen();
}
