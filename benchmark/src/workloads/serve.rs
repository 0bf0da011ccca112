//! The three fleet workloads: `serve_hot`, `serve_missbound`, `update_walk`.
//!
//! All three run the same experiment in two stages. *Serve*: a FlashEd
//! fleet behind its edge, booted at v1 and walked to v5 during set-up,
//! serves generated traffic for the timed window. *Update*: again and
//! again a fresh fleet boots at v1 and, under the same traffic, is walked
//! v1 → … → v5 by rolling hops and back to v1 through every worker's
//! snapshot ring. They differ in the inputs: fleet shape, document set,
//! device latency, traffic law, and which stage the timed window is.
//!
//! A fresh fleet per walk, because at the seed commit a snapshot rollback
//! leaves the globals later versions added in place, and the update-safety
//! check then refuses to add them again: one process can walk the history
//! forward once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::drive::{content_type_ok, versions_at, Driver, HopRecord, Walker};
use crate::gen::{pair, Done, Mix, Rng, Sub};
use crate::oracle::{Corpus, Outcome};
use crate::procfs;
use crate::scenario::{
    apply_spans, mean_us, timed_setups, ReqBreakdown, Scenario, Timed, UpdateLog,
};
use crate::stats::percentile_of;
use crate::sut::{self, Fleet, FleetSpec, Patch, Route};
use crate::trace::Tracer;

/// How traffic is offered.
#[derive(Clone, Copy)]
pub enum Load {
    /// Keep this many requests outstanding (saturating).
    Closed { window: usize },
    /// Exponential gaps at this many requests per second.
    Open { rate: f64 },
}

pub struct ServeSpec {
    pub fleet: FleetSpec,
    pub files: usize,
    pub file_bytes: usize,
    pub device_latency: Duration,
    pub zipf_alpha: f64,
    pub miss_share: f64,
    pub bad_share: f64,
    pub load: Load,
    /// One update operation this often during a walk.
    pub update_every: Duration,
    /// Share of `--seconds` the serve stage takes; the update stage gets
    /// the rest. At 0.0 there is no serve stage and the timed window is
    /// the update stage's traffic: latency *while* the fleet updates.
    pub serve_share: f64,
}

/// Closed loop, saturating, the whole process on one CPU: nothing sleeps,
/// so CPU per request is the whole cost. One worker (a second one made the
/// issue's prototype swing 168k–247k req/s on this 2-core box).
pub fn serve_hot() -> ServeSpec {
    ServeSpec {
        fleet: FleetSpec {
            workers: 1,
            event_loop: Some((2, 256, 16)),
            route: Route::Hash,
            inbox_capacity: 16384,
            shed_responses: true,
            telemetry: false,
        },
        files: 64,
        file_bytes: 1024,
        device_latency: Duration::ZERO,
        zipf_alpha: 1.0,
        miss_share: 0.0,
        bad_share: 0.0,
        load: Load::Closed { window: 2048 },
        update_every: Duration::from_millis(5),
        serve_share: 0.7,
    }
}

/// Open loop against a document set eight times the buffer cache, 1 ms
/// device reads: the miss pipe and cache affinity set the result. 12000
/// req/s is about half of what this fleet saturates at here.
pub fn serve_missbound() -> ServeSpec {
    ServeSpec {
        fleet: FleetSpec {
            workers: 2,
            event_loop: Some((4, 256, 8)),
            route: Route::Hash,
            inbox_capacity: 4096,
            shed_responses: true,
            telemetry: false,
        },
        files: 2048,
        file_bytes: 512,
        device_latency: Duration::from_millis(1),
        zipf_alpha: 0.9,
        miss_share: 0.02,
        bad_share: 0.005,
        load: Load::Open { rate: 12_000.0 },
        update_every: Duration::from_millis(10),
        serve_share: 0.7,
    }
}

/// The paper's experiment: light open-loop traffic while the fleet walks
/// the whole version history forward and back, again and again.
pub fn update_walk() -> ServeSpec {
    ServeSpec {
        fleet: FleetSpec {
            workers: 2,
            event_loop: Some((2, 256, 16)),
            route: Route::Hash,
            inbox_capacity: 16384,
            shed_responses: true,
            telemetry: false,
        },
        files: 64,
        file_bytes: 1024,
        device_latency: Duration::ZERO,
        zipf_alpha: 1.0,
        miss_share: 0.0,
        bad_share: 0.0,
        load: Load::Open { rate: 2_000.0 },
        update_every: Duration::from_millis(10),
        serve_share: 0.0,
    }
}

/// Traffic before a serve window opens (guest cache fill, steady state),
/// and before a walk's first hop.
const SETTLE: Duration = Duration::from_millis(300);
const WALK_SETTLE: Duration = Duration::from_millis(20);
/// Equal sub-windows a serve window's throughput is taken over.
const RATE_WINDOWS: u64 = 20;
/// A closed-loop serve window also closes after this many completions:
/// the generator's logs and the guest's own request log grow with every
/// request, and `peak_rss_mb` should not scale with the box's speed.
const SERVE_CAP: usize = 300_000;
/// Documents a walk's fresh fleet is warmed with (one buffer cache's worth).
const WALK_WARM: usize = 256;

struct Ready {
    corpus: Corpus,
    fs: sut::SimFs,
    versions: Vec<(&'static str, String)>,
    patches: Vec<Patch>,
    fleet: Fleet,
}

/// Everything from nothing to a warm fleet on the newest version:
/// documents, patch stream, boot at v1, warm-up sweep, walk to v5.
fn set_up(spec: &ServeSpec, seed: u64) -> Result<Ready, String> {
    let corpus = Corpus::generate(spec.files, spec.file_bytes, seed);
    let fs = sut::build_fs(&corpus, spec.device_latency);
    let versions = sut::flashed_versions();
    let patches = sut::patch_stream(&versions)?;
    let fleet = fresh_fleet(spec, &corpus, &fs, &versions, spec.files, seed)?;
    let mut walker = Walker::new(&patches, 1);
    walker.finish_at_newest(&fleet);
    if walker.log.failed > 0 {
        return Err("set-up: the walk to the newest version did not converge".into());
    }
    Ok(Ready {
        corpus,
        fs,
        versions,
        patches,
        fleet,
    })
}

/// The CPU everything the system spawns runs on, and the CPU an open-loop
/// generator keeps to itself.
///
/// The harness places threads because the scheduler does not do it the
/// same way twice: left alone, wake-affinity stacked generator, acceptor
/// and worker on one of this box's two CPUs in some runs and spread them
/// in others, and the same binary and seed measured 83 000 or 117 000
/// req/s on `serve_hot`, and latency spreads of 20–45 % on
/// `serve_missbound`, depending on which.
pub const SYSTEM_CPU: usize = 0;
pub const GENERATOR_CPU: usize = 1;

/// Boots a fleet whose threads all inherit [`SYSTEM_CPU`]. A closed-loop
/// generator stays there too: the whole run then shares one CPU, nothing
/// sleeps, and throughput is exactly one over the CPU a request costs. An
/// open-loop generator spins to be punctual, so it moves to
/// [`GENERATOR_CPU`] and never competes with a worker (on a one-CPU box
/// that pin fails and everything shares the one CPU).
pub fn boot_placed(
    spec: &FleetSpec,
    open_loop: bool,
    src: &str,
    version: &str,
    fs: &sut::SimFs,
) -> Result<Fleet, String> {
    procfs::pin_to_cpu(SYSTEM_CPU);
    let fleet = Fleet::boot(spec, src, version, fs);
    if open_loop {
        procfs::pin_to_cpu(GENERATOR_CPU);
    }
    fleet
}

/// Boots a fleet at v1 and warms it with the `hottest` documents.
fn fresh_fleet(
    spec: &ServeSpec,
    corpus: &Corpus,
    fs: &sut::SimFs,
    versions: &[(&str, String)],
    hottest: usize,
    seed: u64,
) -> Result<Fleet, String> {
    let open_loop = matches!(spec.load, Load::Open { .. });
    let fleet = boot_placed(&spec.fleet, open_loop, &versions[0].1, versions[0].0, fs)?;
    let mix = Mix::new(corpus, spec.zipf_alpha, 0.0, 0.0, seed ^ 0x7ea1);
    Driver::new(&fleet, corpus, mix, false).warm_up(hottest)?;
    Ok(fleet)
}

/// Marks taken where a timed window opens and closes.
#[derive(Clone, Copy, Default)]
struct Mark {
    ns: u64,
    cpu: Duration,
    pacer_cpu: Duration,
}

fn mark(fleet: &Fleet) -> Mark {
    Mark {
        ns: fleet.now_ns(),
        cpu: procfs::cpu_time(),
        pacer_cpu: procfs::thread_cpu_time(),
    }
}

/// What a stretch of traffic does besides serving.
enum Plan<'p> {
    /// Serve for this long; the fleet stays on `version` (1-based).
    Serve { length: Duration, version: usize },
    /// Walk a fleet fresh on v1 through one whole forward-and-back cycle,
    /// one operation every `update_every`; the stretch ends with it.
    Walk(&'p [Patch]),
}

/// One stretch of traffic against one fleet, checked and reduced.
struct Stretch {
    /// Pairs due inside the window, in submission order.
    pairs: Vec<(Sub, Done)>,
    window_s: f64,
    cpu_s: f64,
    /// Whole-process CPU over the window, pacing thread included, and
    /// whether the generator recorded span instants meanwhile: the two
    /// sides of `proc.trace_overhead_pct`.
    cpu_all_s: f64,
    traced: bool,
    /// Correct completions inside the window, in all and per sub-window.
    completed: u64,
    rates: Vec<f64>,
    hops: Vec<HopRecord>,
    /// Each worker's update pauses, for the span trees (traced run only).
    pause_windows: Vec<Vec<(u64, u64)>>,
    submitted: u64,
    shed: u64,
    mismatches: u64,
    attempted: u64,
    failed: u64,
}

fn stretch(
    spec: &ServeSpec,
    fleet: &Fleet,
    corpus: &Corpus,
    plan: Plan<'_>,
    (seed, part): (u64, u64),
    trace: bool,
) -> Result<Stretch, String> {
    // Which files are popular belongs to the run (`seed`): the guest's own
    // cache is a list in first-seen order, so a second stretch on the same
    // fleet with another popularity order would scan it five times as far.
    // Only the draws differ between a run's stretches (`part`).
    let mix = Mix::new(
        corpus,
        spec.zipf_alpha,
        spec.miss_share,
        spec.bad_share,
        seed ^ 0x7ea1,
    )
    .draws_from(part);
    let mut driver = Driver::new(fleet, corpus, mix, trace);
    let (boot_version, mut walker, settle, length) = match plan {
        Plan::Serve { length, version } => (version, None, SETTLE, Some(length)),
        Plan::Walk(patches) => (1, Some(Walker::new(patches, 1)), WALK_SETTLE, None),
    };
    let (mut open, mut close) = (Mark::default(), Mark::default());
    let ns = |d: Duration| d.as_nanos() as u64;

    match spec.load {
        Load::Closed { window } => {
            // One thread does everything: top up, take, and one update
            // operation every `update_every`. A hop blocks the top-ups for
            // under a millisecond; the window holds ~20 ms of work, so the
            // worker never runs dry.
            let began = Instant::now();
            let mut opened_at = None;
            let mut next_update = settle;
            driver.closed_loop(window, |fleet, completed| {
                let at = began.elapsed();
                if opened_at.is_none() && at >= settle {
                    open = mark(fleet);
                    opened_at = Some(completed);
                }
                let over = match (&mut walker, length, opened_at) {
                    (Some(walker), _, Some(_)) if at >= next_update => {
                        walker.step(fleet);
                        next_update = began.elapsed().max(next_update + spec.update_every);
                        walker.log.cycles >= 1
                    }
                    (None, Some(length), Some(from)) => {
                        at >= settle + length || completed - from >= SERVE_CAP
                    }
                    _ => false,
                };
                if over {
                    close = mark(fleet);
                }
                over
            });
        }
        Load::Open { rate } => {
            let mut rng = Rng::new(seed ^ 0x9a95 ^ part.wrapping_mul(0x9e37_79b9));
            let (go, walked, never) = (
                AtomicBool::new(false),
                AtomicBool::new(false),
                AtomicBool::new(false),
            );
            std::thread::scope(|s| {
                // The coordinator has its own thread (a hop would stall an
                // open-loop generator) and sleeps until the window opens.
                if let Some(walker) = walker.as_mut() {
                    let (go, walked) = (&go, &walked);
                    s.spawn(move || {
                        // Polling and sleeping, next to the workers.
                        procfs::pin_to_cpu(SYSTEM_CPU);
                        while !go.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        walker.run(fleet, spec.update_every, 1);
                        walked.store(true, Ordering::Relaxed);
                    });
                }
                let began = fleet.now_ns();
                driver.open_loop(rate, began + ns(settle), &never, &mut rng);
                open = mark(fleet);
                go.store(true, Ordering::Relaxed);
                match length {
                    Some(length) => driver.open_loop(rate, open.ns + ns(length), &never, &mut rng),
                    None => driver.open_loop(rate, u64::MAX, &walked, &mut rng),
                }
                close = mark(fleet);
            });
        }
    }
    driver.drain(Duration::from_secs(30))?;

    let walk = walker.map(|w| w.log).unwrap_or_default();
    let shed = driver.shed;
    let submitted = driver.subs.len() as u64 + shed;
    let mut failed = shed + driver.stray + walk.failed;
    if spec.fleet.shed_responses {
        failed += shed.abs_diff(driver.shed_responses);
    }
    let subs = std::mem::take(&mut driver.subs);
    let paired = pair(&subs, std::mem::take(&mut driver.dones));
    drop(driver);
    failed += paired.failed as u64;
    // Content-Type must follow the version that served each response.
    let wrong_type = paired
        .pairs
        .iter()
        .filter(|(_, d)| !content_type_ok(d, versions_at(&walk.hops, boot_version, d.at_ns)))
        .count() as u64;
    failed += wrong_type;
    if failed > 0 {
        eprintln!(
            "failures: {shed} shed, {} walk, {} responses, {wrong_type} content types",
            walk.failed, paired.failed
        );
    }

    let span = (close.ns - open.ns).max(1);
    let windows = if length.is_some() { RATE_WINDOWS } else { 1 };
    let mut per_window = vec![0u64; windows as usize];
    for (_, d) in &paired.pairs {
        if matches!(d.outcome, Outcome::Ok(_)) && d.at_ns >= open.ns && d.at_ns < close.ns {
            per_window[((d.at_ns - open.ns) * windows / span) as usize] += 1;
        }
    }
    let cpu_all = close.cpu.saturating_sub(open.cpu);
    let mut cpu = cpu_all;
    if matches!(spec.load, Load::Open { .. }) {
        // The pacing thread spins to submit on time; that is the
        // harness's cost, not the system's.
        cpu = cpu.saturating_sub(close.pacer_cpu.saturating_sub(open.pacer_cpu));
    }
    let window_s = span as f64 / 1e9;
    Ok(Stretch {
        window_s,
        cpu_s: cpu.as_secs_f64(),
        cpu_all_s: cpu_all.as_secs_f64(),
        traced: trace,
        completed: per_window.iter().sum(),
        rates: per_window
            .iter()
            .map(|c| *c as f64 * windows as f64 / window_s)
            .collect(),
        pause_windows: if trace {
            (0..fleet.workers())
                .map(|w| fleet.pause_windows(w))
                .collect()
        } else {
            Vec::new()
        },
        hops: walk.hops,
        submitted,
        shed,
        mismatches: paired.mismatches as u64,
        attempted: submitted + walk.attempted,
        failed,
        pairs: paired
            .pairs
            .into_iter()
            .filter(|(s, _)| s.due_ns >= open.ns && s.due_ns < close.ns)
            .collect(),
    })
}

pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Scenario, String> {
    let (setups_s, ready) = timed_setups(
        || set_up(spec, seed),
        |earlier| earlier.fleet.shutdown().map(|_| ()),
    )?;
    let Ready {
        corpus,
        fs,
        versions,
        patches,
        fleet,
    } = ready;
    let trace = tracer.is_some();

    // Serve stage: the long-lived fleet, on the newest version throughout.
    let run_began = Instant::now();
    let serve_len = Duration::from_secs_f64(seconds * spec.serve_share);
    let mut timed: Vec<Stretch> = Vec::new();
    // A traced run serves one half with the generator's span instants off
    // and one half with them on; the difference is the tracing overhead.
    let parts: &[bool] = if trace { &[false, true] } else { &[false] };
    for (i, traced) in parts.iter().enumerate() {
        if serve_len.is_zero() {
            break;
        }
        let plan = Plan::Serve {
            length: serve_len / parts.len() as u32,
            version: versions.len(),
        };
        timed.push(stretch(
            spec,
            &fleet,
            &corpus,
            plan,
            (seed, i as u64),
            *traced,
        )?);
    }
    fleet.shutdown()?;

    // Update stage: one fresh fleet per walk, until `--seconds` is up (a
    // serve window that closed early on its cap leaves the walks more).
    let run_len = Duration::from_secs_f64(seconds);
    let rss_before = procfs::rss_kb();
    let mut walks: Vec<Stretch> = Vec::new();
    while walks.is_empty() || run_began.elapsed() < run_len {
        let episode = 1 + walks.len() as u64;
        let fleet = fresh_fleet(spec, &corpus, &fs, &versions, WALK_WARM, seed)?;
        let traced = trace && walks.len() % 2 == 1;
        let mut walk = stretch(
            spec,
            &fleet,
            &corpus,
            Plan::Walk(&patches),
            (seed, episode),
            traced,
        )?;
        if !timed.is_empty() && !traced {
            // Only a workload timed on its walks (or a traced walk, for
            // its spans) needs the walk's request log afterwards.
            walk.pairs = Vec::new();
        }
        walks.push(walk);
        fleet.shutdown()?;
    }
    let rss_after = procfs::rss_kb();

    if let Some(tracer) = tracer {
        for s in timed.iter().chain(&walks) {
            record_spans(tracer, s);
        }
    }
    let updates = update_log(&walks, rss_before, rss_after);
    let attempted = timed.iter().chain(&walks).map(|s| s.attempted).sum();
    let failed = timed.iter().chain(&walks).map(|s| s.failed).sum();
    // The timed window is the serve stage, or — for a workload without
    // one — the traffic of the walks.
    let window = if timed.is_empty() { &walks } else { &timed };
    let cpu_per_op = |traced: bool| {
        let side = window.iter().filter(|s| s.traced == traced);
        let ops: u64 = side.clone().map(|s| s.completed).sum();
        side.map(|s| s.cpu_all_s).sum::<f64>() / ops.max(1) as f64
    };
    let trace_overhead_pct = if trace && cpu_per_op(false) > 0.0 {
        (cpu_per_op(true) / cpu_per_op(false) - 1.0) * 100.0
    } else {
        0.0
    };
    Ok(Scenario {
        setups_s,
        timed: Timed {
            cpu_s: window.iter().map(|s| s.cpu_s).sum(),
            window_rps: window
                .iter()
                .flat_map(|s| s.rates.iter().copied())
                .collect(),
            completed: window.iter().map(|s| s.completed).sum(),
            latency_us: window
                .iter()
                .flat_map(|s| &s.pairs)
                .map(|(s, d)| d.at_ns.saturating_sub(s.due_ns) as f64 / 1e3)
                .collect(),
        },
        updates,
        req: breakdown(window, trace),
        attempted,
        failed,
        trace_overhead_pct,
    })
}

fn breakdown(window: &[Stretch], trace_on: bool) -> ReqBreakdown {
    let pairs: Vec<&(Sub, Done)> = window.iter().flat_map(|s| &s.pairs).collect();
    let mut lags: Vec<f64> = pairs
        .iter()
        .map(|(s, _)| f64::from(s.lag_ns) / 1e3)
        .collect();
    let wall_s: f64 = window.iter().map(|s| s.window_s).sum();
    let (submitted, shed): (u64, u64) = window
        .iter()
        .fold((0, 0), |acc, s| (acc.0 + s.submitted, acc.1 + s.shed));
    ReqBreakdown {
        latency: mean_us(pairs.iter().map(|(s, d)| d.at_ns.saturating_sub(s.due_ns))),
        gen_lag: mean_us(pairs.iter().map(|(s, _)| u64::from(s.lag_ns))),
        edge_submit: if trace_on {
            mean_us(pairs.iter().map(|(s, _)| u64::from(s.submit_ns)))
        } else {
            0.0
        },
        queue_wait: mean_us(pairs.iter().map(|(_, d)| u64::from(d.queue_wait_ns))),
        service: mean_us(pairs.iter().map(|(_, d)| u64::from(d.service_ns))),
        update_pause: mean_us(pairs.iter().map(|(_, d)| u64::from(d.pause_ns))),
        gen_lag_p99: if lags.is_empty() {
            0.0
        } else {
            percentile_of(&mut lags, 0.99)
        },
        offered_rps: pairs.len() as f64 / wall_s.max(1e-9),
        queue_wait_us: pairs
            .iter()
            .map(|(_, d)| f64::from(d.queue_wait_ns) / 1e3)
            .collect(),
        service_us: pairs
            .iter()
            .map(|(_, d)| f64::from(d.service_ns) / 1e3)
            .collect(),
        shed_share: shed as f64 / submitted.max(1) as f64,
        pairing_mismatches: window.iter().map(|s| s.mismatches).sum(),
    }
}

fn update_log(walks: &[Stretch], rss_before: u64, rss_after: u64) -> UpdateLog {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let cycles = walks.len() as u64;
    let mut log = UpdateLog {
        cycles,
        rss_growth_kb_per_cycle: rss_after.saturating_sub(rss_before) as f64 / cycles.max(1) as f64,
        ..UpdateLog::default()
    };
    for h in walks.iter().flat_map(|s| &s.hops) {
        let wall = (h.end_ns - h.start_ns) as f64 / 1e3;
        if h.to > h.from {
            let pauses: Vec<f64> = h.applies.iter().map(|p| us(p.total())).collect();
            let patch = h.from as u8;
            log.hop_us.push((patch, wall));
            log.coord_self_us
                .push((wall - pauses.iter().sum::<f64>()).max(0.0));
            log.pause_us
                .extend(pauses.into_iter().map(|us| (patch, us)));
            log.phases.extend(h.applies.iter().copied());
        } else {
            log.rollback_us.push(wall);
            log.restore_us.extend(h.restores.iter().map(|d| us(*d)));
        }
    }
    log
}

/// One request in this many gets its span tree written out.
const SPAN_SAMPLE: usize = 16;

/// Rebuilds span trees from what the calls returned: per request
/// `gen.lag → edge.submit → edge.queue_wait → server.service (+ core.pause)`
/// under one span from the due instant to `Completion.at`; per hop
/// `rollout.hop → core.apply[worker] → phases`. Each stretch's instants
/// are on its own fleet's clock.
fn record_spans(tracer: &mut Tracer, stretch: &Stretch) {
    for (s, d) in stretch.pairs.iter().step_by(SPAN_SAMPLE) {
        if !tracer.has_room(6) {
            break;
        }
        let start = s.due_ns + u64::from(s.lag_ns);
        let root = tracer.root("request", s.due_ns, d.at_ns);
        tracer.child(root, root, "gen.lag", s.due_ns, start);
        tracer.child(
            root,
            root,
            "edge.submit",
            start,
            start + u64::from(s.submit_ns),
        );
        let admitted = d.admitted_ns();
        let pulled = admitted + u64::from(d.queue_wait_ns);
        tracer.child(root, root, "edge.queue_wait", admitted, pulled);
        let service = tracer.child(root, root, "server.service", pulled, d.at_ns);
        if d.pause_ns > 0 {
            let began = d.at_ns - u64::from(d.pause_ns);
            tracer.child(service, root, "core.pause", began, d.at_ns);
        }
    }
    for h in stretch.hops.iter().filter(|h| h.to > h.from) {
        if !tracer.has_room(1 + 8 * h.applies.len()) {
            break;
        }
        let root = tracer.root("rollout.hop", h.start_ns, h.end_ns);
        // A rolling hop applies worker by worker in id order; a worker's
        // pause inside the hop's window is where its apply ran.
        for (w, (timings, windows)) in h.applies.iter().zip(&stretch.pause_windows).enumerate() {
            let Some(&(start, len)) = windows
                .iter()
                .find(|(start, _)| *start >= h.start_ns && *start <= h.end_ns)
            else {
                continue;
            };
            apply_spans(tracer, root, w, start, len, timings);
        }
    }
}
