//! Table 2 — patch application cost breakdown.
//!
//! Part A: per-phase wall-clock cost of each FlashEd patch, applied to a
//! warmed server (populated cache), averaged over repetitions.
//!
//! Part B: the update pause as a function of live state size — a
//! synthetic guest with N records undergoes a mechanical representation
//! change, which is remapped: its records convert on first touch, after
//! the pause (Ablation 3 prices that conversion).
//!
//! Run with: `cargo run --release -p dsu-bench --bin table2_update_time`

use std::time::Duration;

use dsu_bench::measure::{fmt_dur, row, rule};
use dsu_bench::rec_table;
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

/// Synthetic state-size sweep: the pause over N live records.
fn part_b() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 2b: update pause vs live state size (a remapped type change)\n");
    let widths = [9, 12];
    row(&["records", "pause"], &widths);
    rule(&widths);

    let (v1, v2) = rec_table();
    let gen = PatchGen::new().generate(&v1, &v2, "v1", "v2")?;
    for n in [100i64, 1_000, 10_000, 100_000] {
        let module = popcorn::compile(&v1, "sweep", "v1", &popcorn::Interface::new())?;
        let mut proc = Process::new(LinkMode::Updateable);
        proc.load_module(&module)?;
        proc.call("fill", vec![Value::Int(n)])?;
        let before = proc.call("total", vec![])?;
        let report = apply_patch(&mut proc, &gen.patch, UpdatePolicy::default())?;
        assert_eq!(proc.call("total", vec![])?, before, "state preserved");
        row(&[&n.to_string(), &fmt_dur(report.timings.total())], &widths);
    }
    println!(
        "\n(expected shape: nothing in the pause walks the records, so the pause\n\
         is flat in live state)"
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
