//! The one ledger benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! ledger run <all|name> [--seed n] [--seconds s] [--trace]          each workload in a child process
//! ledger check [--seed n] [--seconds s]                             the untraced set twice, held to the bounds
//! ledger manifest                                                   print BENCHMARK.json from the tables
//! ```

mod drive;
mod gen;
mod json;
mod ledger;
mod oracle;
mod probes;
mod procfs;
mod scenario;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use ledger::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use scenario::Row;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: ledger::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 1.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace` alone (human form) or `--trace 0|1` (driver form).
            "--trace" => {
                out.trace = match it.clone().next().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", ledger::manifest());
            Ok(true)
        }
        Some("run") => match args.get(1) {
            Some(which) => parse_flags(&args[2..]).and_then(|a| run_children(which, &a)),
            None => Err("run: name a workload, or `all`".into()),
        },
        Some("check") => parse_flags(&args[1..]).and_then(|a| check(&a)),
        _ => parse_flags(&args).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&w, &a),
            None => Err("name a workload with --workload, or use `run all`".into()),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// The environment every run is stamped with.
fn stamp(seed: u64) -> String {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: git {} | {} | nproc {nproc} | seed {seed}",
        tool("git", &["rev-parse", "--short", "HEAD"]),
        tool("rustc", &["-V"]),
    )
}

/// Runs one workload in this process and prints its rows; the last line
/// of standard output is the result object.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("no workload named `{workload}`"));
    }
    println!("{}", stamp(args.seed));
    let mut tracer = args.trace.then(|| trace::Tracer::with_capacity(400_000));
    let scenario = workloads::run(workload, args.seed, args.seconds, tracer.as_mut())?;
    let (rows, table): (Vec<Row>, &[Metric]) = if args.trace {
        let mut rows = scenario.layers();
        let spans = tracer.as_ref().map_or(&[][..], |t| t.spans());
        // Latency no span under the request accounts for.
        rows.push((
            "req.unattributed_share".to_string(),
            trace::unattributed_share(spans, "request"),
            spans.len(),
        ));
        rows.extend(probes::run(args.seconds)?);
        (rows, PER_LAYER)
    } else {
        (scenario.end_to_end(procfs::peak_rss_mb()), END_TO_END)
    };
    if let Some(tracer) = &tracer {
        let dir = std::path::Path::new("benchmark/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("benchmark/out: {e}"))?;
        let path = dir.join(format!("{workload}.trace.json"));
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {} ({} dropped)",
            tracer.spans().len(),
            path.display(),
            tracer.dropped
        );
    }
    let rows = ledger::conform(&rows, table)?;
    println!(
        "{workload}: {} operations attempted, {} failed",
        scenario.attempted, scenario.failed
    );
    print!("{}", ledger::table(&rows, table));
    println!(
        "{}",
        ledger::result_line(&rows, table, scenario.attempted, scenario.failed)
    );
    Ok(scenario.failed == 0)
}

/// One child's parsed result: metric name → value.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process of this same binary, passing its
/// output through, and reads the result line back.
fn run_child(workload: &str, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true),
        metrics,
    })
}

fn selected(which: &str) -> Result<Vec<&'static str>, String> {
    if which == "all" {
        return Ok(WORKLOADS.iter().map(|w| w.name).collect());
    }
    WORKLOADS
        .iter()
        .find(|w| w.name == which)
        .map(|w| vec![w.name])
        .ok_or_else(|| format!("no workload named `{which}`"))
}

fn run_children(which: &str, args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for w in selected(which)? {
        println!("== {w} ==");
        all_correct &= run_child(w, args)?.correct;
    }
    Ok(all_correct)
}

/// Runs the untraced set twice and holds every end-to-end metric of every
/// workload to its bound in `BENCHMARK.json`: the second run may not be
/// worse than the first by more than the bound.
fn check(args: &Args) -> Result<bool, String> {
    let args = Args {
        trace: false,
        workload: None,
        ..*args
    };
    let mut ok = true;
    for w in selected("all")? {
        println!("== {w} (first) ==");
        let first = run_child(w, &args)?;
        println!("== {w} (second) ==");
        let second = run_child(w, &args)?;
        ok &= first.correct && second.correct;
        for m in END_TO_END {
            let value = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{w}: `{}` missing", m.name))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            let worse = if m.better == "lower" {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let verdict = if worse > m.bound {
                "OUT OF BOUND"
            } else {
                "ok"
            };
            ok &= worse <= m.bound;
            println!(
                "check {w:<16} {:<22} {a:>14.4} -> {b:>14.4} {:<5} worse by {:>6.1}% (bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}
