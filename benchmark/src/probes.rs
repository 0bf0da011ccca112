//! Isolated timings of single layers: the same suite in every traced run,
//! whatever the workload. Each row times calls into one layer's public
//! functions from outside; the workload's own rows (in `scenario.rs`) say
//! where its time went, these say what each layer costs on its own.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use crate::drive::Driver;
use crate::gen::{pair, Mix, Rng};
use crate::oracle::Corpus;
use crate::scenario::Row;
use crate::stats::{geomean, median, percentile_of};
use crate::sut::{self, layer, FleetSpec, Guest, Link, Route};
use crate::workloads::{boot_placed, kernel_suite, KERNELS_V1, REC_V1, REC_V2};

/// Runs `f` in batches for `budget` and returns the median batch's cost per
/// call in nanoseconds, with the number of calls made.
fn per_call_ns(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    // Size a batch to about half a millisecond.
    let t = Instant::now();
    let mut probe = 0usize;
    while t.elapsed() < Duration::from_micros(500) {
        f();
        probe += 1;
    }
    let batch = probe.max(1);
    let began = Instant::now();
    let mut means = Vec::new();
    while began.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    let calls = means.len() * batch;
    (median(&mut means), calls)
}

/// Median wall time of `runs` calls of `f`, in microseconds.
fn median_us<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut samples)
}

struct Rows(Vec<Row>);

impl Rows {
    fn put(&mut self, name: &str, value: f64, samples: usize) {
        self.0.push((name.to_string(), value, samples));
    }
}

const HOT_FLEET: FleetSpec = FleetSpec {
    workers: 1,
    event_loop: Some((2, 256, 16)),
    route: Route::Hash,
    inbox_capacity: 16384,
    shed_responses: true,
    telemetry: false,
};

/// The whole suite. `seconds` is the run's `--seconds`; every budget below
/// is a fixed share of it.
pub fn run(seconds: f64) -> Result<Vec<Row>, String> {
    let mut rows = Rows(Vec::new());
    // An isolated `*_ns` row runs for this long (200 ms at ten seconds).
    let slot = Duration::from_secs_f64(seconds * 0.02);
    http_rows(&mut rows, slot);
    edge_rows(&mut rows, slot);
    fs_rows(&mut rows, slot)?;
    obs_rows(&mut rows, slot);
    toolchain_rows(&mut rows)?;
    vm_rows(&mut rows, slot * 3)?;
    fleet_rows(&mut rows, slot * 2)?;
    ladder_rows(&mut rows, slot * 2)?;
    Ok(rows.0)
}

fn http_rows(rows: &mut Rows, slot: Duration) {
    let corpus = Corpus::generate(8, 1024, 1);
    let request = format!("GET {} HTTP/1.0", corpus.paths[3]);
    let response = layer::render_response(&corpus.bodies[3]);
    let (ns, n) = per_call_ns(slot, || {
        black_box(layer::parse_request(black_box(&request)));
    });
    rows.put("http.parse_request_ns", ns, n);
    let (ns, n) = per_call_ns(slot, || {
        black_box(layer::parse_response(black_box(&response)));
    });
    rows.put("http.parse_response_ns", ns, n);
    let (ns, n) = per_call_ns(slot, || {
        black_box(layer::render_response(black_box(&corpus.bodies[3])));
    });
    rows.put("http.render_ns", ns, n);
}

fn edge_rows(rows: &mut Rows, slot: Duration) {
    let corpus = Corpus::generate(2048, 16, 1);
    let requests: Vec<String> = corpus
        .paths
        .iter()
        .map(|p| format!("GET {p} HTTP/1.0"))
        .collect();
    for (route, name) in [
        (Route::Hash, "edge.route_ns.hash"),
        (Route::LeastLoaded, "edge.route_ns.least"),
        (Route::RoundRobin, "edge.route_ns.rr"),
    ] {
        let edge = layer::edge(2, route, 64);
        let mut i = 0;
        let (ns, n) = per_call_ns(slot, || {
            i = (i + 1) % requests.len();
            black_box(layer::route(&edge, &requests[i]));
        });
        rows.put(name, ns, n);
    }
    // One admission and the pop that keeps the inbox from filling; the
    // inbox row below is the part of it that is not routing or counting.
    let edge = layer::edge(2, Route::Hash, 64);
    let mut i = 0;
    let (ns, n) = per_call_ns(slot, || {
        i = (i + 1) % requests.len();
        black_box(layer::submit_and_pop(&edge, requests[i].clone()));
    });
    rows.put("edge.submit_ns", ns, n);
    let inbox = layer::inbox(64);
    let (ns, n) = per_call_ns(slot, || {
        i = (i + 1) % requests.len();
        black_box(layer::inbox_push_pop(&inbox, requests[i].clone()));
    });
    rows.put("edge.inbox_push_pop_ns", ns, n);
    rows.put(
        "edge.hash_imbalance",
        layer::hash_imbalance(2, &corpus.paths),
        corpus.paths.len(),
    );
}

fn fs_rows(rows: &mut Rows, slot: Duration) -> Result<(), String> {
    let corpus = Corpus::generate(256, 512, 1);
    let cache = layer::warm_cache(256, &corpus.paths, &corpus.bodies[0]);
    let mut i = 0;
    let (ns, n) = per_call_ns(slot, || {
        i = (i + 7) % corpus.paths.len();
        black_box(layer::cache_lookup(&cache, &corpus.paths[i]));
    });
    rows.put("fs.cache_lookup_ns", ns, n);
    // Submit → helper thread → completion, with no device wait.
    let afs = layer::async_fs(sut::build_fs(&corpus, Duration::ZERO), 2, 256);
    let mut ok = true;
    let (ns, n) = per_call_ns(slot, || {
        i = (i + 7) % corpus.paths.len();
        ok &= layer::async_read(&afs, &corpus.paths[i]);
    });
    if !ok {
        return Err("probe: an async read found no file".into());
    }
    rows.put("fs.asyncfs_roundtrip_us", ns / 1e3, n);
    Ok(())
}

fn obs_rows(rows: &mut Rows, slot: Duration) {
    // A journal keeps every event; start a fresh one every 10 000 so the
    // probe's memory stays flat.
    let mut journal = layer::journal();
    let mut update = 0u64;
    let (ns, n) = per_call_ns(slot, || {
        update += 1;
        if update.is_multiple_of(10_000) {
            journal = layer::journal();
        }
        layer::journal_record(&journal, update);
    });
    rows.put("obs.journal_record_ns", ns, n);
    let histogram = layer::histogram();
    let (ns, n) = per_call_ns(slot, || {
        update += 37;
        layer::histogram_observe(&histogram, Duration::from_micros(update % 12_000));
    });
    rows.put("obs.histogram_observe_ns", ns, n);
}

fn toolchain_rows(rows: &mut Rows) -> Result<(), String> {
    const RUNS: usize = 15;
    let versions = sut::flashed_versions();
    for (name, src) in &versions {
        let us = median_us(RUNS, || sut::compile(src, "flashed", name));
        rows.put(&format!("popcorn.compile_us.{name}"), us, RUNS);
    }
    let (newest_name, newest_src) = versions.last().expect("five versions");
    let module = sut::compile(newest_src, "flashed", newest_name)?;
    let instrs = sut::module_instrs(&module);
    let verify = median_us(RUNS, || sut::verify_module(&module));
    rows.put("tal.verify_module_us", verify, RUNS);
    rows.put(
        "tal.verify_ns_per_instr",
        verify * 1e3 / instrs as f64,
        RUNS,
    );
    rows.put(
        "tal.optimize_us",
        median_us(RUNS, || sut::optimize(&module)),
        RUNS,
    );
    rows.put("tal.module_instrs", instrs as f64, 1);

    rows.put(
        "core.patchgen_us",
        median_us(RUNS, || sut::patch_stream(&versions)),
        RUNS,
    );
    let stream = sut::patch_stream(&versions)?;
    let texts: Vec<String> = stream.iter().map(sut::save_patch).collect();
    rows.put(
        "core.patch_save_us",
        median_us(RUNS, || {
            stream.iter().map(sut::save_patch).collect::<Vec<_>>()
        }),
        RUNS,
    );
    rows.put(
        "core.patch_load_us",
        median_us(RUNS, || {
            texts.iter().map(|t| sut::load_patch(t)).collect::<Vec<_>>()
        }),
        RUNS,
    );
    rows.put(
        "core.patch_bytes",
        texts.iter().map(String::len).sum::<usize>() as f64,
        texts.len(),
    );

    // What one process retains after walking the whole stream: the
    // crash-durable updater state (snapshot ring + pending operations).
    let mut guest = Guest::boot_flashed(&sut::compile(&versions[0].1, "flashed", "v1")?)?;
    for patch in &stream {
        guest.queue_patch(patch);
        guest.apply_queued()?;
    }
    if guest.applied() != stream.len() {
        return Err("probe: the stream did not apply to a bare guest".into());
    }
    let saved = guest.state_save_bytes();
    rows.put("core.state_save_bytes", saved as f64, 1);
    rows.put(
        "core.retained_bytes_per_hop",
        saved as f64 / stream.len() as f64,
        stream.len(),
    );
    Ok(())
}

fn vm_rows(rows: &mut Rows, budget: Duration) -> Result<(), String> {
    const RUNS: usize = 15;
    let module = sut::compile(KERNELS_V1, "kernels", "v1")?;
    let load = median_us(RUNS, || Guest::boot(&module, Link::Updateable).is_ok());
    let load_static = median_us(RUNS, || Guest::boot(&module, Link::Static).is_ok());
    rows.put("vm.load_module_us", load, RUNS);
    rows.put("vm.load_static_over_updateable", load_static / load, RUNS);

    // Three link forms of the same kernels, interleaved so all see the
    // same machine: static, updateable with inline caches (what serves),
    // and updateable with the caches off (every call through the table).
    let suite = kernel_suite(1);
    let mut forms = [
        Guest::boot(&module, Link::Static)?,
        Guest::boot(&module, Link::Updateable)?,
        Guest::boot(&module, Link::Updateable)?,
    ];
    forms[2].set_inline_caching(false);
    let mut samples = vec![vec![Vec::new(); suite.len()]; forms.len()];
    let began = Instant::now();
    while began.elapsed() < budget || samples[0][0].len() < 5 {
        for (k, kernel) in suite.iter().enumerate() {
            for (f, guest) in forms.iter_mut().enumerate() {
                let t = Instant::now();
                let got = guest.call(kernel.entry, &kernel.args)?;
                samples[f][k].push(t.elapsed().as_secs_f64() * 1e6);
                if got != kernel.expect {
                    return Err(format!("probe: kernel {} gave {got}", kernel.name));
                }
            }
        }
    }
    let medians: Vec<Vec<f64>> = samples
        .iter_mut()
        .map(|form| form.iter_mut().map(|s| median(s)).collect())
        .collect();
    let n = samples[0][0].len();
    for (kernel, us) in suite.iter().zip(&medians[1]) {
        rows.put(&format!("vm.kernel_us.{}", kernel.name), *us, n);
    }
    let (fixed, cached, cold) = (
        geomean(&medians[0]),
        geomean(&medians[1]),
        geomean(&medians[2]),
    );
    rows.put("vm.kernel_geomean_us", cached, n);
    rows.put("vm.static_geomean_us", fixed, n);
    rows.put("vm.cached_overhead_pct", (cached / fixed - 1.0) * 100.0, n);
    rows.put("vm.cold_overhead_pct", (cold / fixed - 1.0) * 100.0, n);
    let (hits, slot_calls) = forms[1].ic_counts();
    rows.put(
        "vm.ic_hit_ratio",
        hits as f64 / slot_calls.max(1) as f64,
        slot_calls as usize,
    );

    // State-heavy guest: 20 000 records to snapshot, restore, transform.
    const RECORDS: i64 = 20_000;
    let mut guest = Guest::boot(&sut::compile(REC_V1, "bigstate", "v1")?, Link::Updateable)?;
    guest.call("fill", &[RECORDS, 1])?;
    let mut shots: Vec<(Duration, Duration, usize)> =
        (0..RUNS).map(|_| guest.snapshot_roundtrip()).collect();
    shots.sort();
    let (capture, restore, bytes) = shots[RUNS / 2];
    rows.put("vm.snapshot_us", capture.as_secs_f64() * 1e6, RUNS);
    rows.put("vm.restore_us", restore.as_secs_f64() * 1e6, RUNS);
    rows.put("vm.snapshot_bytes", bytes as f64, 1);
    let report = guest.apply_patch(&sut::generate_patch(REC_V1, REC_V2, "v1", "v2")?)?;
    rows.put(
        "core.transform_ns_per_record",
        report.timings.transform.as_nanos() as f64 / RECORDS as f64,
        RECORDS as usize,
    );
    Ok(())
}

/// A saturating closed loop on the hot set for `length`; returns correct
/// completions per second and the mean cost of taking one completion.
fn hot_rps(spec: &FleetSpec, length: Duration) -> Result<(f64, f64, usize), String> {
    let corpus = Corpus::generate(64, 1024, 1);
    let fs = sut::build_fs(&corpus, Duration::ZERO);
    let versions = sut::flashed_versions();
    let (name, src) = versions.last().expect("five versions");
    let fleet = boot_placed(spec, false, src, name, &fs)?;
    let mut driver = Driver::new(&fleet, &corpus, Mix::new(&corpus, 1.0, 0.0, 0.0, 1), false);
    driver.warm_up(64)?;
    let began = Instant::now();
    driver.closed_loop(512, |_, _| began.elapsed() >= length);
    let wall = began.elapsed().as_secs_f64();
    let served = driver.dones.len();
    driver.drain(Duration::from_secs(30))?;
    let take_ns = driver.take_time.as_nanos() as f64 / driver.taken.max(1) as f64;
    let paired = pair(&driver.subs, std::mem::take(&mut driver.dones));
    drop(driver);
    fleet.shutdown()?;
    if paired.failed > 0 {
        return Err(format!(
            "probe: {} wrong responses on the hot set",
            paired.failed
        ));
    }
    Ok((served as f64 / wall, take_ns, served))
}

fn fleet_rows(rows: &mut Rows, length: Duration) -> Result<(), String> {
    const BOOTS: usize = 5;
    let corpus = Corpus::generate(64, 1024, 1);
    let fs = sut::build_fs(&corpus, Duration::ZERO);
    let versions = sut::flashed_versions();
    let (name, src) = versions.last().expect("five versions");
    let (mut boots, mut stops) = (Vec::new(), Vec::new());
    for _ in 0..BOOTS {
        let t = Instant::now();
        let fleet = boot_placed(&HOT_FLEET, false, src, name, &fs)?;
        boots.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        fleet.shutdown()?;
        stops.push(t.elapsed().as_secs_f64() * 1e6);
    }
    rows.put("fleet.boot_us", median(&mut boots), BOOTS);
    rows.put("fleet.shutdown_us", median(&mut stops), BOOTS);

    let blocking = FleetSpec {
        event_loop: None,
        ..HOT_FLEET
    };
    let telemetered = FleetSpec {
        telemetry: true,
        ..HOT_FLEET
    };
    let (blocking_rps, _, n) = hot_rps(&blocking, length)?;
    rows.put("server.blocking_rps", blocking_rps, n);
    let (amped_rps, take_ns, n) = hot_rps(&HOT_FLEET, length)?;
    rows.put("server.amped_rps", amped_rps, n);
    rows.put("fleet.completion_take_ns", take_ns, n);
    let (observed_rps, _, n) = hot_rps(&telemetered, length)?;
    rows.put(
        "obs.telemetry_overhead_pct",
        (amped_rps / observed_rps - 1.0) * 100.0,
        n,
    );
    Ok(())
}

/// The open-loop ladder: the miss-bound fleet at three fixed rates, a
/// latency limit of p99 ≤ 5 ms with nothing shed, and the highest rung that
/// meets it.
fn ladder_rows(rows: &mut Rows, rung: Duration) -> Result<(), String> {
    const LIMIT_US: f64 = 5_000.0;
    let spec = FleetSpec {
        workers: 2,
        event_loop: Some((4, 256, 8)),
        route: Route::Hash,
        inbox_capacity: 4096,
        shed_responses: true,
        // On, so the buffer cache's counters can be read afterwards.
        telemetry: true,
    };
    let corpus = Corpus::generate(2048, 512, 1);
    let fs = sut::build_fs(&corpus, Duration::from_millis(1));
    let versions = sut::flashed_versions();
    let (name, src) = versions.last().expect("five versions");
    let fleet = boot_placed(&spec, true, src, name, &fs)?;
    Driver::new(&fleet, &corpus, Mix::new(&corpus, 0.9, 0.0, 0.0, 1), false).warm_up(256)?;
    let never = AtomicBool::new(false);
    let mut rng = Rng::new(1);
    let mut best = 0.0;
    // The first rung runs twice; its first pass only settles the caches.
    for (i, rate) in [6_000u32, 6_000, 12_000, 18_000].into_iter().enumerate() {
        let mix = Mix::new(&corpus, 0.9, 0.02, 0.005, u64::from(rate));
        let mut driver = Driver::new(&fleet, &corpus, mix, false);
        let until = fleet.now_ns() + rung.as_nanos() as u64;
        driver.open_loop(f64::from(rate), until, &never, &mut rng);
        driver.drain(Duration::from_secs(30))?;
        let shed = driver.shed;
        let offered = driver.subs.len() as u64 + shed;
        let paired = pair(&driver.subs, std::mem::take(&mut driver.dones));
        let mut latency: Vec<f64> = paired
            .pairs
            .iter()
            .map(|(s, d)| d.at_ns.saturating_sub(s.due_ns) as f64 / 1e3)
            .collect();
        if i == 0 {
            continue;
        }
        let p99 = percentile_of(&mut latency, 0.99);
        rows.put(&format!("edge.ladder_p99_us.{rate}"), p99, latency.len());
        if rate == 18_000 {
            rows.put(
                "edge.ladder_shed_share.18000",
                shed as f64 / offered.max(1) as f64,
                offered as usize,
            );
        }
        if p99 <= LIMIT_US && shed == 0 && paired.failed == 0 {
            best = f64::from(rate);
        }
    }
    rows.put("edge.max_rate_within_limit_rps", best, 3);
    let (hits, misses, evictions) = fleet.cache_counts().ok_or("probe: no telemetry")?;
    rows.put(
        "fs.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );
    rows.put("fs.evictions", evictions as f64, (hits + misses) as usize);
    fleet.shutdown()?;
    Ok(())
}
