//! The ledger's tables — workloads, end-to-end metrics, per-layer metrics —
//! and the two forms a run is printed in. `BENCHMARK.json` is generated
//! from these tables (`ledger manifest`) and a test holds the two equal.

use std::fmt::Write as _;

use crate::json::quote;
use crate::scenario::Row;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

/// How long one run measures (`--seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_hot",
        why: "closed loop on one CPU, 64 hot files, no device wait: nothing sleeps, so per-request CPU in http/edge/server/vm is the whole cost",
    },
    Workload {
        name: "serve_missbound",
        why: "open loop at 12000 req/s, 2048 files over 256-entry caches, 1 ms reads: the miss pipe and routing set latency, a faster VM must not",
    },
    Workload {
        name: "update_walk",
        why: "the paper's experiment: fleets walked v1..v5 and back, a hop every 10 ms under 2000 req/s; verify+link set the pause, coordinator polling the hop",
    },
    Workload {
        name: "update_bigstate",
        why: "same pipeline on 100000 live records: transform and snapshot capture/restore do the work, verify/link gains must not move it",
    },
    Workload {
        name: "guest_kernels",
        why: "fib, pingpong, matmul, sort, strhash in updateable link mode: pure vm decode/interp, which the request workloads dilute",
    },
    Workload {
        name: "patch_build",
        why: "two sources to a verified, round-tripped, applied patch: the developer-side path (popcorn, tal, patchgen, patch_io) no server run touches",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_rps", "1/s", "higher", 0.25),
    e2e("cpu_us_per_req", "us", "lower", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_p99_us", "us", "lower", 0.25),
    e2e("update_pause_p50_us", "us", "lower", 0.25),
    e2e("rollout_hop_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const PER_LAYER: &[Metric] = &[
    // From the workload's own operations.
    layer("gen.lag_p99_us", "us", "lower"),
    layer("gen.offered_rps", "1/s", "higher"),
    layer("req.latency_us", "us", "lower"),
    layer("req.gen_lag_us", "us", "lower"),
    layer("req.edge_submit_us", "us", "lower"),
    layer("req.queue_wait_us", "us", "lower"),
    layer("req.service_us", "us", "lower"),
    layer("req.update_pause_us", "us", "lower"),
    layer("req.unattributed_share", "ratio", "lower"),
    layer("req.pairing_mismatches", "count", "lower"),
    layer("edge.queue_wait_p50_us", "us", "lower"),
    layer("edge.queue_wait_p99_us", "us", "lower"),
    layer("edge.shed_share", "ratio", "lower"),
    layer("server.service_p50_us", "us", "lower"),
    layer("server.service_p99_us", "us", "lower"),
    // From the workload's own updates.
    layer("core.drain_us", "us", "lower"),
    layer("core.verify_us", "us", "lower"),
    layer("core.compat_us", "us", "lower"),
    layer("core.link_us", "us", "lower"),
    layer("core.bind_us", "us", "lower"),
    layer("core.init_us", "us", "lower"),
    layer("core.transform_us", "us", "lower"),
    layer("core.phase_sum_over_total", "ratio", "lower"),
    layer("core.rollback_hop_us", "us", "lower"),
    layer("core.rss_growth_kb_per_cycle", "KiB", "lower"),
    layer("rollout.coord_self_us", "us", "lower"),
    layer("rollout.rollback_chain_us", "us", "lower"),
    layer("update.cycles", "count", "higher"),
    layer("failed_share", "ratio", "lower"),
    layer("proc.trace_overhead_pct", "%", "lower"),
    // Isolated timings of single layers (the same suite in every run).
    layer("http.parse_request_ns", "ns", "lower"),
    layer("http.parse_response_ns", "ns", "lower"),
    layer("http.render_ns", "ns", "lower"),
    layer("edge.route_ns.hash", "ns", "lower"),
    layer("edge.route_ns.least", "ns", "lower"),
    layer("edge.route_ns.rr", "ns", "lower"),
    layer("edge.submit_ns", "ns", "lower"),
    layer("edge.inbox_push_pop_ns", "ns", "lower"),
    layer("edge.hash_imbalance", "ratio", "lower"),
    layer("edge.ladder_p99_us.6000", "us", "lower"),
    layer("edge.ladder_p99_us.12000", "us", "lower"),
    layer("edge.ladder_p99_us.18000", "us", "lower"),
    layer("edge.ladder_shed_share.18000", "ratio", "lower"),
    layer("edge.max_rate_within_limit_rps", "1/s", "higher"),
    layer("fs.cache_hit_ratio", "ratio", "higher"),
    layer("fs.cache_lookup_ns", "ns", "lower"),
    layer("fs.evictions", "count", "lower"),
    layer("fs.asyncfs_roundtrip_us", "us", "lower"),
    layer("server.blocking_rps", "1/s", "higher"),
    layer("server.amped_rps", "1/s", "higher"),
    layer("fleet.boot_us", "us", "lower"),
    layer("fleet.shutdown_us", "us", "lower"),
    layer("fleet.completion_take_ns", "ns", "lower"),
    layer("core.patchgen_us", "us", "lower"),
    layer("core.patch_save_us", "us", "lower"),
    layer("core.patch_load_us", "us", "lower"),
    layer("core.patch_bytes", "B", "lower"),
    layer("core.state_save_bytes", "B", "lower"),
    layer("core.retained_bytes_per_hop", "B", "lower"),
    layer("core.transform_ns_per_record", "ns", "lower"),
    layer("vm.kernel_us.fib", "us", "lower"),
    layer("vm.kernel_us.pingpong", "us", "lower"),
    layer("vm.kernel_us.matmul", "us", "lower"),
    layer("vm.kernel_us.sort", "us", "lower"),
    layer("vm.kernel_us.strhash", "us", "lower"),
    layer("vm.kernel_geomean_us", "us", "lower"),
    layer("vm.static_geomean_us", "us", "lower"),
    layer("vm.cold_overhead_pct", "%", "lower"),
    layer("vm.cached_overhead_pct", "%", "lower"),
    layer("vm.ic_hit_ratio", "ratio", "higher"),
    layer("vm.load_module_us", "us", "lower"),
    layer("vm.load_static_over_updateable", "ratio", "lower"),
    layer("vm.snapshot_us", "us", "lower"),
    layer("vm.restore_us", "us", "lower"),
    layer("vm.snapshot_bytes", "B", "lower"),
    layer("tal.verify_module_us", "us", "lower"),
    layer("tal.verify_ns_per_instr", "ns", "lower"),
    layer("tal.optimize_us", "us", "lower"),
    layer("tal.module_instrs", "count", "lower"),
    layer("popcorn.compile_us.v1", "us", "lower"),
    layer("popcorn.compile_us.v2", "us", "lower"),
    layer("popcorn.compile_us.v3", "us", "lower"),
    layer("popcorn.compile_us.v4", "us", "lower"),
    layer("popcorn.compile_us.v5", "us", "lower"),
    layer("obs.journal_record_ns", "ns", "lower"),
    layer("obs.histogram_observe_ns", "ns", "lower"),
    layer("obs.telemetry_overhead_pct", "%", "lower"),
];

/// The driver's command; it appends `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(out, "  \"command\": [{}],", strings(COMMAND));
    let _ = writeln!(out, "  \"paths\": [\"benchmark\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let list = |out: &mut String, key: &str, items: Vec<String>, last: bool| {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, item) in items.iter().enumerate() {
            let sep = if i + 1 == items.len() { "" } else { "," };
            let _ = writeln!(out, "    {item}{sep}");
        }
        let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
    };
    list(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect(),
        false,
    );
    list(
        &mut out,
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    list(
        &mut out,
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better)
                )
            })
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// Checks that `rows` holds exactly the metrics of `table`, each a finite
/// number, and returns them in table order.
pub fn conform<'r>(rows: &'r [Row], table: &[Metric]) -> Result<Vec<&'r Row>, String> {
    let mut out = Vec::with_capacity(table.len());
    for m in table {
        let mut found = rows.iter().filter(|(name, _, _)| name == m.name);
        let row = found
            .next()
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        if found.next().is_some() {
            return Err(format!("metric `{}` was measured twice", m.name));
        }
        if !row.1.is_finite() {
            return Err(format!("metric `{}` is not a number: {}", m.name, row.1));
        }
        out.push(row);
    }
    if let Some((name, _, _)) = rows
        .iter()
        .find(|(name, _, _)| table.iter().all(|m| m.name != name))
    {
        return Err(format!("metric `{name}` is not in the ledger's table"));
    }
    Ok(out)
}

/// The human form: one aligned line per metric with unit and sample count.
pub fn table(rows: &[&Row], defs: &[Metric]) -> String {
    let mut out = String::new();
    for (row, m) in rows.iter().zip(defs) {
        let _ = writeln!(
            out,
            "  {:<34} {:>16.4} {:<6} n={}",
            m.name, row.1, m.unit, row.2
        );
    }
    out
}

/// The machine form: the one-line JSON object the driver reads.
pub fn result_line(rows: &[&Row], defs: &[Metric], attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .zip(defs)
        .map(|(row, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                row.1,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = Vec::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            names.push(m.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    /// The committed `BENCHMARK.json` is the generated one, and it reads
    /// back as the tables.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, manifest(), "regenerate with `ledger manifest`");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, def) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
            assert_eq!(m.as_obj().unwrap().len(), 4);
        }
    }

    #[test]
    fn conform_wants_exactly_the_table() {
        let defs = [layer("a", "us", "lower"), layer("b", "us", "lower")];
        let row = |n: &str, v: f64| (n.to_string(), v, 1usize);
        let ok = [row("b", 2.0), row("a", 1.0)];
        let got = conform(&ok, &defs).unwrap();
        assert_eq!((got[0].1, got[1].1), (1.0, 2.0));
        assert!(conform(&[row("a", 1.0)], &defs).is_err(), "missing");
        assert!(conform(&[row("a", 1.0), row("b", 2.0), row("c", 3.0)], &defs).is_err());
        assert!(conform(&[row("a", f64::NAN), row("b", 2.0)], &defs).is_err());
        let line = result_line(&got, &defs, 10, 0);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("b"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
