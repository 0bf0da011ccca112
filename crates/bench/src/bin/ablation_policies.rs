//! Ablation — design-choice experiments called out in DESIGN.md.
//!
//! 1. **Verification on/off**: verification's share of the update pause
//!    (the price of the "nothing unverified is ever linked" guarantee).
//! 2. **Activeness policy**: paper semantics (old frames finish under old
//!    code) vs Ginseng-style strict refusal, measured as how many of the
//!    FlashEd patches remain applicable while `serve` is live.
//! 3. **Eager vs lazy migration** (100 000 records): a hand-written eager
//!    transformer against the per-record remap, on Mlinaric & Mornar's
//!    axes (pause, first and steady scan, peak memory, CPU per record).
//!
//! Run with: `cargo run --release -p dsu-bench --bin ablation_policies`

use std::time::Instant;

use dsu_bench::measure::{fmt_dur, row, rule};
use dsu_bench::rec_table;
use dsu_core::{apply_patch, ManualTransformer, PatchGen, UpdatePolicy};
use flashed::{patch_stream, versions, Server, ServerConfig, SimFs, Workload};
use vm::{LinkMode, Process, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    verification_share()?;
    activeness_policies()?;
    eager_vs_remap()?;
    Ok(())
}

fn warmed_server(version_idx: usize) -> Result<Server, Box<dyn std::error::Error>> {
    let all = versions::all();
    let (name, src) = &all[version_idx];
    let fs = SimFs::generate_fixed(32, 1024, 5);
    let mut wl = Workload::new(fs.paths(), 1.0, 100);
    let mut server = Server::start(&ServerConfig::new(), src, name, fs)?;
    server.push_requests(wl.batch(200));
    server.serve().map_err(|e| e.to_string())?;
    Ok(server)
}

fn verification_share() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation 1: patch verification share of the update pause\n");
    let widths = [8, 12, 12, 9];
    row(&["patch", "verified", "unverified", "share"], &widths);
    rule(&widths);
    for (i, gen) in patch_stream()?.iter().enumerate() {
        let mut with = std::time::Duration::ZERO;
        let mut without = std::time::Duration::ZERO;
        const REPS: usize = 15;
        for _ in 0..REPS {
            let mut s = warmed_server(i)?;
            let r = apply_patch(s.process_mut(), &gen.patch, UpdatePolicy::default())?;
            with += r.timings.total();
            let mut s = warmed_server(i)?;
            let r = apply_patch(
                s.process_mut(),
                &gen.patch,
                UpdatePolicy {
                    verify: false,
                    refuse_active: false,
                },
            )?;
            without += r.timings.total();
        }
        let share = 1.0 - without.as_secs_f64() / with.as_secs_f64();
        row(
            &[
                &format!("{}->{}", gen.patch.from_version, gen.patch.to_version),
                &fmt_dur(with / REPS as u32),
                &fmt_dur(without / REPS as u32),
                &format!("{:.0}%", share * 100.0),
            ],
            &widths,
        );
    }
    println!();
    Ok(())
}

fn activeness_policies() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation 2: activeness policy — mid-traffic applicability\n");
    let all = versions::all();
    let stream = patch_stream()?;
    for refuse_active in [false, true] {
        let mut applied = 0;
        let mut refused = 0;
        // The four development patches: none replaces the suspended
        // `serve` function itself.
        for (i, gen) in stream.iter().enumerate() {
            let (name, src) = &all[i];
            if run_mid_traffic(src, name, gen.patch.clone(), refuse_active)? {
                applied += 1;
            } else {
                refused += 1;
            }
        }
        // A fifth patch that DOES replace the live `serve` loop.
        let serve_patch = serve_replacing_patch()?;
        if run_mid_traffic(&all[4].1, "v5", serve_patch, refuse_active)? {
            applied += 1;
        } else {
            refused += 1;
        }
        println!(
            "  refuse_active = {refuse_active:<5} -> {applied} applied, {refused} refused \
             (4 handler patches + 1 patch replacing the live `serve` loop)"
        );
    }
    println!(
        "\n(only the patch touching the suspended `serve` frame separates the\n\
         policies: the paper's semantics applies it — the in-flight loop\n\
         iteration finishes under old code — while strict Ginseng-style\n\
         refusal rejects it; the compat rules refuse the genuinely unsafe\n\
         cases under both policies.)\n"
    );
    Ok(())
}

/// Runs one batch with `patch` queued mid-traffic; returns whether it
/// applied.
fn run_mid_traffic(
    src: &str,
    name: &str,
    patch: dsu_core::Patch,
    refuse_active: bool,
) -> Result<bool, Box<dyn std::error::Error>> {
    let fs = SimFs::generate_fixed(16, 512, 5);
    let mut wl = Workload::new(fs.paths(), 1.0, 9);
    let mut server = Server::start(&ServerConfig::new(), src, name, fs)?;
    server.updater = dsu_core::Updater::with_policy(UpdatePolicy {
        verify: true,
        refuse_active,
    });
    server.push_requests(wl.batch(50));
    server.queue_patch(patch);
    Ok(server.serve().is_ok())
}

/// A patch against v5 that replaces the `serve` loop itself (adding a
/// request budget), so the suspended frame is among the replaced code.
fn serve_replacing_patch() -> Result<dsu_core::Patch, Box<dyn std::error::Error>> {
    let fs = SimFs::generate_fixed(4, 128, 5);
    let probe = Server::start(&ServerConfig::new(), &versions::v5(), "v5", fs)?;
    let patch = dsu_core::compile_patch(
        r#"
        fun serve(): int {
            var served: int = 0;
            while (served < 100000) {
                var req: string = next_request();
                if (len(req) == 0) { break; }
                send_response(handle(req));
                served = served + 1;
                served_total = served_total + 1;
                update;
            }
            return served;
        }
        "#,
        "v5",
        "v6",
        &dsu_core::interface_of(probe.process()),
        dsu_core::Manifest {
            replaces: vec!["serve".into()],
            ..dsu_core::Manifest::default()
        },
    )?;
    Ok(patch)
}

/// The remap's mapping for [`rec_table`], written as a hand-written
/// transformer.
const EAGER_XFORM: &str = r#"
    fun migrate_data(old: [rec__old]): [rec] {
        var out: [rec] = new [rec];
        var i: int = 0;
        while (i < len(old)) {
            var o: rec__old = old[i];
            if (o == null) { push(out, null); } else { push(out, rec { id: o.id, tag: o.tag, dirty: false }); }
            i = i + 1;
        }
        return out;
    }
"#;

/// `VmHWM` or `VmRSS` of this process, in KiB (0 where `/proc` is absent).
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

fn eager_vs_remap() -> Result<(), Box<dyn std::error::Error>> {
    const RECORDS: i64 = 100_000;
    println!("\nAblation 3: eager transformer vs first-touch remap ({RECORDS} records)\n");
    let (v1, v2) = rec_table();
    let remap = PatchGen::new().generate(&v1, &v2, "v1", "v2")?;
    let eager = PatchGen::new()
        .with_manual(ManualTransformer {
            global: "data".into(),
            function: "migrate_data".into(),
            source: EAGER_XFORM.into(),
        })
        .generate(&v1, &v2, "v1", "v2")?;
    let widths = [7, 11, 12, 12, 13, 15];
    row(
        &[
            "design",
            "pause",
            "first scan",
            "steady scan",
            "peak growth",
            "migrate/record",
        ],
        &widths,
    );
    rule(&widths);
    // Remap first: the eager run then reuses the pages it freed, so its
    // growth is the copy it makes, not the allocator warming up.
    for (design, gen) in [("remap", &remap), ("eager", &eager)] {
        let module = popcorn::compile(&v1, "abl", "v1", &popcorn::Interface::new())?;
        let mut proc = Process::new(LinkMode::Updateable);
        proc.load_module(&module)?;
        proc.call("fill", vec![Value::Int(RECORDS)])?;
        // Writing 5 resets the peak to the current size (Linux).
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let base_kb = status_kb("VmRSS:");
        let report = apply_patch(&mut proc, &gen.patch, UpdatePolicy::default())?;
        let t = Instant::now();
        let want = proc.call("total", vec![])?;
        let first = t.elapsed();
        let mut steady = [(); 5].map(|()| {
            let t = Instant::now();
            assert_eq!(proc.call("total", vec![]).as_ref(), Ok(&want));
            t.elapsed()
        });
        steady.sort();
        let steady = steady[2];
        let growth_mb = status_kb("VmHWM:").saturating_sub(base_kb) as f64 / 1024.0;
        // Eager pays the conversion in the pause; the remap in the scan
        // that touches each record first.
        let migrate = if gen.patch.manifest.transformers.is_empty() {
            first.saturating_sub(steady)
        } else {
            report.timings.transform
        };
        row(
            &[
                design,
                &fmt_dur(report.timings.total()),
                &fmt_dur(first),
                &fmt_dur(steady),
                &format!("{growth_mb:.1}MiB"),
                &format!("{:.0}ns", migrate.as_nanos() as f64 / RECORDS as f64),
            ],
            &widths,
        );
    }
    println!(
        "\n(peak growth: the process's peak resident size above the filled table,\n\
         reset just before the update. migrate/record: eager's transform phase,\n\
         or the remap's first scan less a steady one, over the record count.)"
    );
    Ok(())
}
