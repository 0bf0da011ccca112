//! FlashEd: push an updateable web server through its development history
//! while it serves traffic — the paper's headline case study.
//!
//! Run with: `cargo run --release --example webserver_live_update`

use dsu::flashed::{parse_response, patch_stream, versions, Server, ServerConfig, SimFs, Workload};

const BATCH: usize = 400;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = SimFs::generate(64, (256, 4096), 42);
    let mut wl = Workload::new(fs.paths(), 1.0, 7).with_miss_rate(0.02);
    let mut server = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs)?;

    println!("serving {BATCH} requests per version; patches apply mid-batch\n");

    let stream = patch_stream()?;
    let labels = [
        "v1->v2",
        "v2->v3",
        "v3->v4 (type change)",
        "v4->v5 (bugfix)",
    ];

    // Warm batch on v1.
    serve_batch(&mut server, &mut wl, "v1")?;

    for (gen, label) in stream.into_iter().zip(labels) {
        // Queue the patch, then serve: it applies at the first guest
        // `update;` point inside the batch.
        server.push_requests(wl.batch(BATCH));
        server.queue_patch(gen.patch);
        let t = std::time::Instant::now();
        server.serve()?;
        let elapsed = t.elapsed();
        let report = server.updater.log().last().expect("applied").clone();
        println!(
            "{label:24} pause {:>9.3?} (verify {:?}, link {:?}, bind {:?}, xform {:?}); batch {:?}",
            report.timings.total(),
            report.timings.verify,
            report.timings.link,
            report.timings.bind,
            report.timings.transform,
            elapsed,
        );
    }

    // Final validation batch on v5.
    serve_batch(&mut server, &mut wl, "v5")?;

    let completions = server.completions();
    let ok = completions
        .iter()
        .filter(|c| {
            parse_response(&c.response)
                .map(|r| r.status == 200)
                .unwrap_or(false)
        })
        .count();
    println!(
        "\nserved {} requests across 5 versions, {} OK, {} logged by v5, cache hits {}",
        completions.len(),
        ok,
        server.logs().len(),
        server.process_mut().call("cache_hits_total", vec![])?,
    );
    Ok(())
}

fn serve_batch(
    server: &mut Server,
    wl: &mut Workload,
    label: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    server.push_requests(wl.batch(BATCH));
    let t = std::time::Instant::now();
    let served = server.serve()?;
    let dt = t.elapsed();
    println!(
        "{label:24} {served} requests in {dt:?} ({:.0} req/s)",
        served as f64 / dt.as_secs_f64()
    );
    Ok(())
}
