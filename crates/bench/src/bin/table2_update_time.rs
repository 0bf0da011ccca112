//! Table 2 — patch application cost breakdown.
//!
//! Part A: per-phase wall-clock cost of each FlashEd patch, applied to a
//! warmed server (populated cache), averaged over repetitions.
//!
//! Part B: state-transformation cost as a function of live state size —
//! a synthetic guest with N records undergoes a representation change.
//!
//! Run with: `cargo run --release -p dsu-bench --bin table2_update_time`

use std::time::Duration;

use dsu_bench::measure::{fmt_dur, row, rule};
use dsu_core::{apply_patch, PatchGen, PhaseTimings, UpdatePolicy};
use flashed::{patch_stream, versions, Server, ServerConfig, SimFs, Workload};
use vm::{LinkMode, Process, Value};

const REPS: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    part_a()?;
    part_b()?;
    Ok(())
}

/// Applies each FlashEd patch to a freshly warmed server, REPS times, and
/// reports mean per-phase costs.
fn part_a() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 2a: FlashEd patch application cost (mean of {REPS} runs)\n");
    let widths = [8, 10, 10, 10, 10, 10, 10, 11];
    row(
        &[
            "patch", "verify", "compat", "link", "bind", "init", "xform", "total",
        ],
        &widths,
    );
    rule(&widths);

    let all = versions::all();
    let stream = patch_stream()?;
    for (i, gen) in stream.iter().enumerate() {
        let (from_name, from_src) = &all[i];
        let mut sum = PhaseSums::default();
        for rep in 0..REPS {
            // Fresh, warmed server per repetition.
            let fs = SimFs::generate_fixed(32, 1024, 5);
            let mut wl = Workload::new(fs.paths(), 1.0, 100 + rep as u64);
            let mut server = Server::start(&ServerConfig::new(), from_src, from_name, fs)?;
            server.push_requests(wl.batch(200));
            server.serve().map_err(|e| e.to_string())?;
            let report = apply_patch(server.process_mut(), &gen.patch, UpdatePolicy::default())?;
            sum.add(&report.timings);
        }
        let mean = sum.mean(REPS);
        row(
            &[
                &format!("{}->{}", gen.patch.from_version, gen.patch.to_version),
                &fmt_dur(mean.verify),
                &fmt_dur(mean.compat),
                &fmt_dur(mean.link),
                &fmt_dur(mean.bind),
                &fmt_dur(mean.init),
                &fmt_dur(mean.transform),
                &fmt_dur(mean.total()),
            ],
            &widths,
        );
    }
    println!();
    Ok(())
}

/// Synthetic state-size sweep: transform cost over N live records.
fn part_b() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 2b: state-transformation cost vs live state size\n");
    let widths = [9, 12, 12, 12];
    row(&["records", "xform", "total pause", "per record"], &widths);
    rule(&widths);

    let v1 = r#"
        struct rec { id: int, tag: string }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) {
                push(data, rec { id: i, tag: "r" + itoa(i) });
                i = i + 1;
            }
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
        struct rec { id: int, tag: string, dirty: bool }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) {
                push(data, rec { id: i, tag: "r" + itoa(i), dirty: false });
                i = i + 1;
            }
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

    for n in [100i64, 1_000, 10_000, 100_000] {
        let module = popcorn::compile(v1, "sweep", "v1", &popcorn::Interface::new())?;
        let mut proc = Process::new(LinkMode::Updateable);
        proc.load_module(&module)?;
        proc.call("fill", vec![Value::Int(n)])?;
        let before = proc.call("total", vec![])?;
        let report = apply_patch(&mut proc, &gen.patch, UpdatePolicy::default())?;
        assert_eq!(proc.call("total", vec![])?, before, "state preserved");
        let per = report.timings.transform.as_secs_f64() / n as f64 * 1e9;
        row(
            &[
                &n.to_string(),
                &fmt_dur(report.timings.transform),
                &fmt_dur(report.timings.total()),
                &format!("{per:.0}ns"),
            ],
            &widths,
        );
    }
    println!(
        "\n(expected shape: transform grows linearly with live state and dominates\n\
         the pause at large N; verify/link costs are state-independent)"
    );
    Ok(())
}

#[derive(Default)]
struct PhaseSums {
    verify: Duration,
    compat: Duration,
    link: Duration,
    bind: Duration,
    init: Duration,
    transform: Duration,
}

impl PhaseSums {
    fn add(&mut self, t: &PhaseTimings) {
        self.verify += t.verify;
        self.compat += t.compat;
        self.link += t.link;
        self.bind += t.bind;
        self.init += t.init;
        self.transform += t.transform;
    }

    fn mean(&self, n: usize) -> PhaseTimings {
        let n = n as u32;
        PhaseTimings {
            verify: self.verify / n,
            compat: self.compat / n,
            link: self.link / n,
            bind: self.bind / n,
            init: self.init / n,
            transform: self.transform / n,
            // Direct applies never wait on in-flight host work.
            ..PhaseTimings::default()
        }
    }
}
