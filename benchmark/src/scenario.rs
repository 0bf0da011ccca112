//! What one workload run hands back, in the one shape every workload
//! shares, and the reduction of that shape to ledger rows.
//!
//! Every workload is the same experiment on different inputs: set a guest
//! program up from source, drive a stream of operations against it, and
//! update it live while (or after) it serves. So every workload yields
//! every end-to-end metric; what an "operation" and an "update" are for
//! each is stated in `benchmark/README.md`.

use crate::stats::{mean, median, percentile_of, windowed_percentile};
use crate::sut::{Guest, Patch, PhaseTimings};

/// One ledger row: metric name, value, and how many samples stand behind
/// the value (the unit comes from the metric table in `ledger.rs`).
pub type Row = (String, f64, usize);

/// The timed operation stream.
#[derive(Debug, Default)]
pub struct Timed {
    /// Process CPU over the timed window (open-loop workloads leave out
    /// the harness's pacing thread, which spins to be punctual).
    pub cpu_s: f64,
    /// Correct operations completed per second, per equal sub-window.
    pub window_rps: Vec<f64>,
    /// Correct operations completed inside the window.
    pub completed: u64,
    /// Operation latency in µs, in arrival order (open loop: from the
    /// instant the operation was due, update pauses included).
    pub latency_us: Vec<f64>,
}

/// The live updates performed.
#[derive(Debug, Default)]
pub struct UpdateLog {
    /// `UpdateReport.timings.total()` per worker per forward apply, µs,
    /// tagged with which patch of the workload's stream it applied.
    pub pause_us: Vec<(u8, f64)>,
    /// Wall time around one forward update as its issuer sees it, µs: the
    /// `rollout_plan` call on a fleet, enqueue-to-resumed on a bare guest.
    /// Tagged like the pauses.
    pub hop_us: Vec<(u8, f64)>,
    pub phases: Vec<PhaseTimings>,
    /// Each forward update's wall time minus the pauses inside it, µs:
    /// what the coordinator (polling, snapshot capture) adds on top.
    pub coord_self_us: Vec<f64>,
    /// Pause of each rollback hop (a snapshot restore), µs.
    pub restore_us: Vec<f64>,
    /// Wall time around each whole rollback (chain), µs.
    pub rollback_us: Vec<f64>,
    /// Forward-and-back cycles completed.
    pub cycles: u64,
    /// Resident-set growth across the update stage, KiB per cycle.
    pub rss_growth_kb_per_cycle: f64,
}

/// Where an operation's latency went, each a mean in µs over the timed
/// operations. Bare-guest workloads have only `service`.
#[derive(Debug, Default)]
pub struct ReqBreakdown {
    pub latency: f64,
    pub gen_lag: f64,
    pub edge_submit: f64,
    pub queue_wait: f64,
    pub service: f64,
    pub update_pause: f64,
    pub gen_lag_p99: f64,
    pub offered_rps: f64,
    pub queue_wait_us: Vec<f64>,
    pub service_us: Vec<f64>,
    pub shed_share: f64,
    pub pairing_mismatches: u64,
}

#[derive(Debug, Default)]
pub struct Scenario {
    /// Each repetition of the set-up, in seconds.
    pub setups_s: Vec<f64>,
    pub timed: Timed,
    pub updates: UpdateLog,
    pub req: ReqBreakdown,
    pub attempted: u64,
    pub failed: u64,
    /// Traced run only: CPU per operation with the harness's spans on,
    /// over the same with them off, minus one, in percent.
    pub trace_overhead_pct: f64,
}

/// The median of each patch's samples, averaged over the patches. A
/// stream's patches cost different amounts (a body swap, a new global, a
/// type change with its transformer), so the plain median of the mixture
/// sits on the boundary between two of them and flips from run to run;
/// this is the typical pause of the stream's typical patch.
fn median_by_patch(samples: &[(u8, f64)]) -> f64 {
    let mut by_patch: std::collections::BTreeMap<u8, Vec<f64>> = Default::default();
    for (patch, us) in samples {
        by_patch.entry(*patch).or_default().push(*us);
    }
    let medians: Vec<f64> = by_patch.values_mut().map(|v| median(v)).collect();
    mean(&medians)
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A latency stream is cut into up to this many equal runs and a
/// percentile is the median of the runs' percentiles (see
/// [`windowed_percentile`]); a run holds at least this many samples.
const WINDOWS: usize = 20;
const MIN_FOR_P50: usize = 20;
const MIN_FOR_P99: usize = 100;

impl Scenario {
    /// The end-to-end rows, measured with tracing off.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Row> {
        let t = &self.timed;
        let u = &self.updates;
        let row = |name: &str, v: f64, n: usize| (name.to_string(), v, n);
        vec![
            row(
                "setup_s",
                median(&mut self.setups_s.clone()),
                self.setups_s.len(),
            ),
            row(
                "throughput_rps",
                median(&mut t.window_rps.clone()),
                t.completed as usize,
            ),
            row(
                "cpu_us_per_req",
                t.cpu_s * 1e6 / t.completed.max(1) as f64,
                t.completed as usize,
            ),
            row(
                "latency_p50_us",
                windowed_percentile(&t.latency_us, 0.5, WINDOWS, MIN_FOR_P50),
                t.latency_us.len(),
            ),
            row(
                "latency_p99_us",
                windowed_percentile(&t.latency_us, 0.99, WINDOWS, MIN_FOR_P99),
                t.latency_us.len(),
            ),
            row(
                "update_pause_p50_us",
                median_by_patch(&u.pause_us),
                u.pause_us.len(),
            ),
            row(
                "rollout_hop_p50_us",
                median_by_patch(&u.hop_us),
                u.hop_us.len(),
            ),
            row("peak_rss_mb", peak_rss_mb, 1),
        ]
    }

    /// The per-layer rows this run's own operations and updates yield
    /// (`req.unattributed_share` comes from the recorded spans instead).
    pub fn layers(&self) -> Vec<Row> {
        let r = &self.req;
        let u = &self.updates;
        let n = self.timed.latency_us.len();
        let mut rows: Vec<Row> = Vec::new();
        let mut row = |name: &str, v: f64, n: usize| rows.push((name.to_string(), v, n));
        row("gen.lag_p99_us", r.gen_lag_p99, n);
        row("gen.offered_rps", r.offered_rps, n);
        row("req.latency_us", r.latency, n);
        row("req.gen_lag_us", r.gen_lag, n);
        row("req.edge_submit_us", r.edge_submit, n);
        row("req.queue_wait_us", r.queue_wait, n);
        row("req.service_us", r.service, n);
        row("req.update_pause_us", r.update_pause, n);
        row("req.pairing_mismatches", r.pairing_mismatches as f64, n);
        let pct = |v: &[f64], p: f64| {
            if v.is_empty() {
                0.0
            } else {
                percentile_of(&mut v.to_vec(), p)
            }
        };
        row(
            "edge.queue_wait_p50_us",
            pct(&r.queue_wait_us, 0.5),
            r.queue_wait_us.len(),
        );
        row(
            "edge.queue_wait_p99_us",
            pct(&r.queue_wait_us, 0.99),
            r.queue_wait_us.len(),
        );
        row("edge.shed_share", r.shed_share, n);
        row(
            "server.service_p50_us",
            pct(&r.service_us, 0.5),
            r.service_us.len(),
        );
        row(
            "server.service_p99_us",
            pct(&r.service_us, 0.99),
            r.service_us.len(),
        );

        let phase = |f: fn(&PhaseTimings) -> std::time::Duration| {
            pct(&u.phases.iter().map(|p| us(f(p))).collect::<Vec<_>>(), 0.5)
        };
        let k = u.phases.len();
        row("core.drain_us", phase(|p| p.drain), k);
        row("core.verify_us", phase(|p| p.verify), k);
        row("core.compat_us", phase(|p| p.compat), k);
        row("core.link_us", phase(|p| p.link), k);
        row("core.bind_us", phase(|p| p.bind), k);
        row("core.init_us", phase(|p| p.init), k);
        row("core.transform_us", phase(|p| p.transform), k);
        // The seven rows above are medians; the identity is checked on the
        // sums: phases must add up to the pause exactly.
        let phase_sum: f64 = u
            .phases
            .iter()
            .map(|p| {
                us(p.drain)
                    + us(p.verify)
                    + us(p.compat)
                    + us(p.link)
                    + us(p.bind)
                    + us(p.init)
                    + us(p.transform)
            })
            .sum();
        let total: f64 = u.pause_us.iter().map(|(_, us)| us).sum();
        row(
            "core.phase_sum_over_total",
            if total > 0.0 { phase_sum / total } else { 1.0 },
            k,
        );
        row(
            "core.rollback_hop_us",
            pct(&u.restore_us, 0.5),
            u.restore_us.len(),
        );
        row(
            "core.rss_growth_kb_per_cycle",
            u.rss_growth_kb_per_cycle,
            u.cycles as usize,
        );
        row(
            "rollout.coord_self_us",
            pct(&u.coord_self_us, 0.5),
            u.coord_self_us.len(),
        );
        row(
            "rollout.rollback_chain_us",
            pct(&u.rollback_us, 0.5),
            u.rollback_us.len(),
        );
        row("update.cycles", u.cycles as f64, u.cycles as usize);
        row(
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted as usize,
        );
        row("proc.trace_overhead_pct", self.trace_overhead_pct, n);
        rows
    }
}

/// Mean of the listed per-pair quantities, as µs.
pub fn mean_us(ns: impl Iterator<Item = u64>) -> f64 {
    mean(&ns.map(|v| v as f64 / 1e3).collect::<Vec<_>>())
}

/// A stream of back-to-back operations against a bare guest, reduced.
pub struct OpStream {
    pub timed: Timed,
    pub req: ReqBreakdown,
    pub attempted: u64,
    pub failed: u64,
    pub trace_overhead_pct: f64,
}

/// Runs `op` back to back for `length`. `op` returns whether its result
/// was correct. With a tracer, the second half of the stream records a
/// `request → server.service` span pair per operation and the first half
/// does not, which is what `proc.trace_overhead_pct` compares.
pub fn op_stream(
    length: std::time::Duration,
    mut tracer: Option<&mut crate::trace::Tracer>,
    mut op: impl FnMut() -> Result<bool, String>,
) -> Result<OpStream, String> {
    use crate::procfs::cpu_time;
    use std::time::Instant;
    const RATE_WINDOWS: usize = 20;
    op()?; // warm: caches filled, lazy set-up done
    let began = Instant::now();
    let cpu0 = cpu_time();
    let mut half = None; // (ops, cpu) when the traced half began
    let mut latency_us = Vec::new();
    let mut good_ends = Vec::new();
    let mut failed = 0u64;
    while began.elapsed() < length {
        let spans_on = tracer.is_some() && began.elapsed() >= length / 2;
        if spans_on && half.is_none() {
            half = Some((latency_us.len(), cpu_time()));
        }
        let t = Instant::now();
        let correct = op()?;
        let took = t.elapsed();
        latency_us.push(took.as_secs_f64() * 1e6);
        if correct {
            good_ends.push(began.elapsed().as_secs_f64());
        } else {
            failed += 1;
        }
        if let (true, Some(tr)) = (spans_on, tracer.as_deref_mut()) {
            if tr.has_room(2) {
                let start = t.duration_since(began).as_nanos() as u64;
                let end = start + took.as_nanos() as u64;
                let root = tr.root("request", start, end);
                tr.child(root, root, "server.service", start, end);
            }
        }
    }
    let wall_s = began.elapsed().as_secs_f64();
    let cpu1 = cpu_time();
    let window = wall_s / RATE_WINDOWS as f64;
    let mut per_window = [0u64; RATE_WINDOWS];
    for end in &good_ends {
        per_window[((end / window) as usize).min(RATE_WINDOWS - 1)] += 1;
    }
    let trace_overhead_pct = match half {
        Some((ops, cpu_half)) if ops > 0 && latency_us.len() > ops => {
            let plain = cpu_half.saturating_sub(cpu0).as_secs_f64() / ops as f64;
            let traced =
                cpu1.saturating_sub(cpu_half).as_secs_f64() / (latency_us.len() - ops) as f64;
            (traced / plain - 1.0) * 100.0
        }
        _ => 0.0,
    };
    let service = mean(&latency_us);
    Ok(OpStream {
        timed: Timed {
            cpu_s: cpu1.saturating_sub(cpu0).as_secs_f64(),
            window_rps: per_window.iter().map(|c| *c as f64 / window).collect(),
            completed: good_ends.len() as u64,
            latency_us: latency_us.clone(),
        },
        // A bare guest has no generator, edge or queue: an operation's
        // latency is all service.
        req: ReqBreakdown {
            latency: service,
            service,
            offered_rps: latency_us.len() as f64 / wall_s,
            service_us: latency_us.clone(),
            ..ReqBreakdown::default()
        },
        attempted: latency_us.len() as u64,
        failed,
        trace_overhead_pct,
    })
}

/// Records `core.apply[w] → seven phases` under the hop span `root`: the
/// apply covers `[start_ns, start_ns + len_ns]` and the phases, whose
/// instants the reports do not carry, are laid end to end from its start
/// in pipeline order with exactly their `PhaseTimings` lengths.
pub fn apply_spans(
    tracer: &mut crate::trace::Tracer,
    root: u32,
    worker: usize,
    start_ns: u64,
    len_ns: u64,
    timings: &PhaseTimings,
) {
    const NAMES: [&str; 2] = ["core.apply[0]", "core.apply[1]"];
    let apply = tracer.child(
        root,
        root,
        NAMES[worker.min(1)],
        start_ns,
        start_ns + len_ns,
    );
    let mut at = start_ns;
    for (phase, dur) in [
        ("core.drain", timings.drain),
        ("core.verify", timings.verify),
        ("core.compat", timings.compat),
        ("core.link", timings.link),
        ("core.bind", timings.bind),
        ("core.init", timings.init),
        ("core.transform", timings.transform),
    ] {
        let end = at + dur.as_nanos() as u64;
        tracer.child(apply, root, phase, at, end);
        at = end;
    }
}

impl UpdateLog {
    /// Records one forward update of a bare guest: its pause, the wall
    /// time its issuer saw, and (traced run) `rollout.hop → core.apply[0] →
    /// phases` starting `start_ns` into the update stage.
    pub fn record_forward(
        &mut self,
        patch: u8,
        start_ns: u64,
        hop: std::time::Duration,
        timings: &PhaseTimings,
        tracer: Option<&mut crate::trace::Tracer>,
    ) {
        let (pause, wall) = (us(timings.total()), us(hop));
        self.pause_us.push((patch, pause));
        self.hop_us.push((patch, wall));
        self.coord_self_us.push((wall - pause).max(0.0));
        self.phases.push(*timings);
        if let Some(tracer) = tracer.filter(|t| t.has_room(9)) {
            let root = tracer.root("rollout.hop", start_ns, start_ns + hop.as_nanos() as u64);
            let pause_ns = timings.total().as_nanos() as u64;
            apply_spans(tracer, root, 0, start_ns, pause_ns, timings);
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Sets up [`SETUPS`] times, timing each, and keeps the last; `discard`
/// disposes of the earlier ones outside the timing.
pub fn timed_setups<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(Vec<f64>, T), String> {
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some(previous) = ready.take() {
            discard(previous)?;
        }
        let t = std::time::Instant::now();
        ready = Some(make()?);
        setups_s.push(t.elapsed().as_secs_f64());
    }
    Ok((setups_s, ready.expect("SETUPS > 0")))
}

/// Update cycles on a bare guest whose `step()` is its update point, until
/// `length` is spent or `max_cycles` are done: queue `patch`, run to the
/// update point (apply), check; queue the snapshot rollback, run, check.
/// `still_right(guest, cycle)` is the check. Returns the log with
/// `(attempted, failed)` update operations.
pub fn step_cycles(
    guest: &mut Guest,
    patch: &Patch,
    length: std::time::Duration,
    max_cycles: u64,
    mut tracer: Option<&mut crate::trace::Tracer>,
    mut still_right: impl FnMut(&mut Guest, u64) -> Result<bool, String>,
) -> Result<(UpdateLog, u64, u64), String> {
    use std::time::Instant;
    let mut log = UpdateLog::default();
    let (mut attempted, mut failed) = (0, 0);
    let rss_before = crate::procfs::rss_kb();
    let began = Instant::now();
    while log.cycles == 0 || (began.elapsed() < length && log.cycles < max_cycles) {
        attempted += 2;
        let applied = guest.applied();
        guest.queue_patch(patch);
        let t = Instant::now();
        guest.run("step", &[])?;
        let hop = t.elapsed();
        match guest
            .last_report()
            .filter(|_| guest.applied() == applied + 1)
        {
            Some(r)
                if r.to_version == patch.to_version
                    && !r.rolled_back
                    && still_right(guest, log.cycles)? =>
            {
                let start = t.duration_since(began).as_nanos() as u64;
                log.record_forward(0, start, hop, &r.timings, tracer.as_deref_mut());
            }
            _ => failed += 1,
        }
        guest.queue_rollback();
        let t = Instant::now();
        guest.run("step", &[])?;
        let back = t.elapsed();
        match guest
            .last_report()
            .filter(|_| guest.applied() == applied + 2)
        {
            Some(r)
                if r.to_version == patch.from_version
                    && r.rolled_back
                    && still_right(guest, log.cycles)? =>
            {
                log.restore_us.push(us(r.timings.total()));
                log.rollback_us.push(us(back));
            }
            _ => failed += 1,
        }
        log.cycles += 1;
    }
    log.rss_growth_kb_per_cycle =
        crate::procfs::rss_kb().saturating_sub(rss_before) as f64 / log.cycles as f64;
    Ok((log, attempted, failed))
}
