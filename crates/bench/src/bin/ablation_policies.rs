//! Ablation — design-choice experiments called out in DESIGN.md.
//!
//! 1. **Verification on/off**: verification's share of the update pause
//!    (the price of the "nothing unverified is ever linked" guarantee).
//! 2. **Activeness policy**: paper semantics (old frames finish under old
//!    code) vs Ginseng-style strict refusal, measured as how many of the
//!    FlashEd patches remain applicable while `serve` is live.
//! 3. **Transformer staging**: cost of the staged (atomic) commit vs
//!    state size, isolating the eager-transform design point.
//! 4. **Eager vs lazy transformation**: update pause, first-read latency
//!    and steady-state read cost of the two designs — the central
//!    trade-off between this paper's eager model and later lazy systems
//!    (Javelus, Ginseng's lazy types).
//!
//! Run with: `cargo run --release -p dsu-bench --bin ablation_policies`

use std::time::Instant;

use dsu_bench::measure::{fmt_dur, row, rule};
use dsu_core::{apply_patch, PatchGen, TransformTiming, UpdatePolicy};
use flashed::{patch_stream, versions, Server, ServerConfig, SimFs, Workload};
use vm::{LinkMode, Process, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    verification_share()?;
    activeness_policies()?;
    transformer_scaling()?;
    eager_vs_lazy()?;
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
            let r = apply_patch(
                s.process_mut(),
                &gen.patch,
                UpdatePolicy {
                    verify: true,
                    refuse_active: false,
                    ..UpdatePolicy::default()
                },
            )?;
            with += r.timings.total();
            let mut s = warmed_server(i)?;
            let r = apply_patch(
                s.process_mut(),
                &gen.patch,
                UpdatePolicy {
                    verify: false,
                    refuse_active: false,
                    ..UpdatePolicy::default()
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
        ..UpdatePolicy::default()
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

fn transformer_scaling() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation 3: eager (staged) state transformation cost vs state size\n");
    let v1 = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i }); i = i + 1; }
            return len(data);
        }
    "#;
    let v2 = r#"
        struct rec { id: int, gen: int }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i, gen: 0 }); i = i + 1; }
            return len(data);
        }
    "#;
    let gen = PatchGen::new().generate(v1, v2, "v1", "v2")?;
    let widths = [9, 12, 14];
    row(&["records", "xform", "heap after"], &widths);
    rule(&widths);
    for n in [1_000i64, 10_000, 50_000] {
        let module = popcorn::compile(v1, "abl", "v1", &popcorn::Interface::new())?;
        let mut proc = Process::new(LinkMode::Updateable);
        proc.load_module(&module)?;
        proc.call("fill", vec![Value::Int(n)])?;
        let report = apply_patch(&mut proc, &gen.patch, UpdatePolicy::default())?;
        row(
            &[
                &n.to_string(),
                &fmt_dur(report.timings.transform),
                &format!("{}B", proc.heap_size()),
            ],
            &widths,
        );
    }
    println!(
        "\n(the eager design pays the whole cost inside the pause; a lazy design\n\
         would amortise it over first accesses at the price of permanent\n\
         per-access checks — the trade-off discussed in the paper's related work)"
    );
    Ok(())
}

/// Ablation 4: eager (paper) vs lazy (Javelus-style) state transformation.
fn eager_vs_lazy() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "\nAblation 4: eager vs lazy state transformation ({} records)\n",
        50_000
    );
    let v1 = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i }); i = i + 1; }
            return len(data);
        }
        fun total(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let v2 = r#"
        struct rec { id: int, gen: int }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i, gen: 0 }); i = i + 1; }
            return len(data);
        }
        fun total(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let gen = PatchGen::new().generate(v1, v2, "v1", "v2")?;
    let widths = [8, 13, 14, 14];
    row(
        &["mode", "update pause", "first read", "later reads"],
        &widths,
    );
    rule(&widths);
    for timing in [TransformTiming::Eager, TransformTiming::Lazy] {
        let module = popcorn::compile(v1, "abl", "v1", &popcorn::Interface::new())?;
        let mut proc = Process::new(LinkMode::Updateable);
        proc.load_module(&module)?;
        proc.call("fill", vec![Value::Int(50_000)])?;
        let report = apply_patch(
            &mut proc,
            &gen.patch,
            UpdatePolicy {
                transform: timing,
                ..UpdatePolicy::default()
            },
        )?;
        let t = Instant::now();
        proc.call("total", vec![])?;
        let first_read = t.elapsed();
        let t = Instant::now();
        for _ in 0..5 {
            proc.call("total", vec![])?;
        }
        let later = t.elapsed() / 5;
        row(
            &[
                &format!("{timing:?}"),
                &fmt_dur(report.timings.total()),
                &fmt_dur(first_read),
                &fmt_dur(later),
            ],
            &widths,
        );
    }
    println!(
        "\n(the lazy design moves the whole transformation cost out of the pause\n\
         and into the first access; steady-state reads converge once the\n\
         migration has run. The paper's eager design keeps failures confined\n\
         to the update — a lazy transformer that traps does so at some later\n\
         read, long after the update \"succeeded\".)"
    );
    Ok(())
}
