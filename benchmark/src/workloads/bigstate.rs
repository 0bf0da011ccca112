//! `update_bigstate`: the same update pipeline, used differently. A bare
//! process holds 100 000 live records; the update changes their type, so
//! the auto-generated transformer rebuilds every one, and the rollback
//! restores the pre-update snapshot. Transform and snapshot capture/restore
//! do >99 % of the work — a verify or link gain must not move this
//! workload, a transformer or snapshot change must.
//!
//! Operation: one `window_total(from, 5000)` call, a guest loop over a
//! seeded slice of the records.
//! Update: queue the patch, run the guest to its `update;` point (apply),
//! check the state, queue a snapshot rollback, run again, check again.

use std::time::Duration;

use crate::gen::Rng;
use crate::scenario::{op_stream, step_cycles, timed_setups, Scenario};
use crate::sut::{self, Guest, Link, Patch};
use crate::trace::Tracer;

pub const V1: &str = include_str!("../../guest/rec_v1.pop");
pub const V2: &str = include_str!("../../guest/rec_v2.pop");

const RECORDS: i64 = 100_000;
/// Records one operation reads: enough that a timer tick or a neighbour's
/// burst landing inside it is a small share of its length (at 1000 records
/// an operation took 150 µs and p99 was mostly the box's noise).
const SLICE: i64 = 5_000;
/// Share of `--seconds` spent on the operation stream.
const SERVE_SHARE: f64 = 0.3;

struct Ready {
    guest: Guest,
    patch: Patch,
    /// What `total()` must return, computed without the guest.
    total: i64,
}

fn set_up(seed: u64) -> Result<Ready, String> {
    let base = (seed % 1_000_003) as i64;
    let module = sut::compile(V1, "bigstate", "v1")?;
    let patch = sut::generate_patch(V1, V2, "v1", "v2")?;
    let mut guest = Guest::boot(&module, Link::Updateable)?;
    if guest.call("fill", &[RECORDS, base])? != RECORDS {
        return Err("fill did not create every record".into());
    }
    Ok(Ready {
        guest,
        patch,
        total: (0..RECORDS).map(|i| (i * 7 + base) % 1_000_003).sum(),
    })
}

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Scenario, String> {
    let (setups_s, ready) = timed_setups(|| set_up(seed), |_| Ok(()))?;
    let Ready {
        mut guest,
        patch,
        total,
    } = ready;
    // Operation stream: seeded slices of the live records, back to back.
    let serve_len = Duration::from_secs_f64(seconds * SERVE_SHARE);
    let base = (seed % 1_000_003) as i64;
    let mut rng = Rng::new(seed ^ 0xb165);
    let ops = op_stream(serve_len, tracer.as_deref_mut(), || {
        let from = (rng.next_u64() % (RECORDS - SLICE) as u64) as i64;
        let want: i64 = (from..from + SLICE)
            .map(|i| (i * 7 + base) % 1_000_003)
            .sum();
        Ok(guest.call("window_total", &[from, SLICE])? == want)
    })?;
    // Update cycles until the time is up; every record must survive each
    // apply and each rollback.
    let update_len = Duration::from_secs_f64(seconds) - serve_len;
    let (updates, attempted, failed) = step_cycles(
        &mut guest,
        &patch,
        update_len,
        u64::MAX,
        tracer,
        |guest, _| Ok(guest.call("total", &[])? == total && guest.call("count", &[])? == RECORDS),
    )?;
    Ok(Scenario {
        setups_s,
        timed: ops.timed,
        updates,
        req: ops.req,
        attempted: ops.attempted + attempted,
        failed: ops.failed + failed,
        trace_overhead_pct: ops.trace_overhead_pct,
    })
}
