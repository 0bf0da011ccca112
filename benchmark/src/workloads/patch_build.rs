//! `patch_build`: the developer-side path no serving workload touches —
//! `popcorn`, `tal`, `patchgen`, `patch_io`.
//!
//! Operation: one whole patch stream built from source — per version pair
//! compile and verify both sides, generate the patch, save it, load it
//! back (it must compare equal). Update: each patch of the stream checked
//! for update safety and applied to a process freshly booted at its old
//! version; the process must still run afterwards.

use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::procfs;
use crate::scenario::{op_stream, timed_setups, Scenario, UpdateLog};
use crate::sut::{self, Guest, Patch};
use crate::trace::Tracer;

/// Share of `--seconds` spent on the operation stream.
const SERVE_SHARE: f64 = 0.7;

type Versions = Vec<(&'static str, String)>;

/// Builds the patch for one version pair, start to finish; `None` when a
/// check along the way failed.
fn build_pair(old: &(&str, String), new: &(&str, String)) -> Result<Option<Patch>, String> {
    for (name, src) in [old, new] {
        sut::verify_module(&sut::compile(src, "flashed", name)?)?;
    }
    let patch = sut::generate_patch(&old.1, &new.1, old.0, new.0)?;
    let loaded = sut::load_patch(&sut::save_patch(&patch))?;
    let sound = sut::same_patch(&patch, &loaded)
        && patch.from_version == old.0
        && patch.to_version == new.0;
    Ok(sound.then_some(loaded))
}

/// Builds the stream in `order` (indices of the pairs).
fn build_stream(versions: &Versions, order: &[usize]) -> Result<Option<Vec<Patch>>, String> {
    let mut stream = vec![None; versions.len() - 1];
    for &i in order {
        stream[i] = build_pair(&versions[i], &versions[i + 1])?;
    }
    Ok(stream.into_iter().collect())
}

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Scenario, String> {
    let versions = sut::flashed_versions();
    // The inputs are the five checked-in versions; the seed picks the
    // order the pairs are built and applied in.
    let mut order: Vec<usize> = (0..versions.len() - 1).collect();
    let mut rng = Rng::new(seed ^ 0x9a7c);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }

    // Set-up: building the stream the update stage applies.
    let (setups_s, stream) = timed_setups(|| build_stream(&versions, &order), |_| Ok(()))?;
    let stream = stream.ok_or("set-up: a patch did not survive its round trip")?;

    let serve_len = Duration::from_secs_f64(seconds * SERVE_SHARE);
    let ops = op_stream(serve_len, tracer.as_deref_mut(), || {
        Ok(build_stream(&versions, &order)?.is_some())
    })?;
    let (mut attempted, mut failed) = (ops.attempted, ops.failed);

    let update_len = Duration::from_secs_f64(seconds) - serve_len;
    let mut updates = UpdateLog::default();
    let rss_before = procfs::rss_kb();
    let began = Instant::now();
    while updates.cycles == 0 || began.elapsed() < update_len {
        for &i in &order {
            attempted += 1;
            let (name, src) = &versions[i];
            let mut guest = Guest::boot_flashed(&sut::compile(src, "flashed", name)?)?;
            let t = Instant::now();
            let applied = guest
                .compat_check(&stream[i])
                .and_then(|()| guest.apply_patch(&stream[i]));
            let hop = t.elapsed();
            match applied {
                Ok(r) if r.to_version == versions[i + 1].0 && guest.call("serve", &[])? == 0 => {
                    let start = t.duration_since(began).as_nanos() as u64;
                    updates.record_forward(i as u8, start, hop, &r.timings, tracer.as_deref_mut());
                }
                _ => failed += 1,
            }
        }
        updates.cycles += 1;
    }
    updates.rss_growth_kb_per_cycle =
        procfs::rss_kb().saturating_sub(rss_before) as f64 / updates.cycles as f64;

    Ok(Scenario {
        setups_s,
        timed: ops.timed,
        updates,
        req: ops.req,
        attempted,
        failed,
        trace_overhead_pct: ops.trace_overhead_pct,
    })
}
