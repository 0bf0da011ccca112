//! `guest_kernels`: pure `vm::decode`/`interp`, which the request
//! workloads dilute. Five kernels in one updateable-linked module, inline
//! caches on.
//!
//! Operation: one round — every kernel once, in a seeded order, each
//! result checked against its native Rust twin. Update: a patch that
//! rewrites two function bodies (same results) applied at the guest's
//! `update;` point, which also invalidates every warm inline cache; then
//! the snapshot rollback.

use std::time::Duration;

use crate::gen::Rng;
use crate::oracle::kernels as native;
use crate::scenario::{op_stream, step_cycles, timed_setups, Scenario};
use crate::sut::{self, Guest, Link, Patch};
use crate::trace::Tracer;

pub const V1: &str = include_str!("../../guest/kernels_v1.pop");
const V2: &str = include_str!("../../guest/kernels_v2.pop");

/// One kernel invocation and the answer it must give.
pub struct Kernel {
    pub name: &'static str,
    pub entry: &'static str,
    pub args: Vec<i64>,
    pub expect: i64,
}

/// The suite. Sizes are the repository's own (`crates/bench`). The seed
/// picks only which strings `strhash` hashes (always six digits long);
/// `sort`'s data is fixed, because a bubble sort's cost follows its
/// input's inversions and that alone moved the round by ±2 % per seed.
pub fn kernel_suite(seed: u64) -> Vec<Kernel> {
    let lcg = 12345;
    let base = 100_000 + (seed % 800_000) as i64;
    let k = |name, entry, args: Vec<i64>, expect| Kernel {
        name,
        entry,
        args,
        expect,
    };
    vec![
        k("fib", "fib", vec![18], native::fib(18)),
        k("pingpong", "ping", vec![4000], native::pingpong(4000)),
        k("matmul", "matmul", vec![16], native::matmul(16)),
        k("sort", "sort", vec![150, lcg], native::sort(150, lcg)),
        k(
            "strhash",
            "strhash",
            vec![400, base],
            native::strhash(400, base),
        ),
    ]
}

/// Share of `--seconds` spent on the operation stream.
const SERVE_SHARE: f64 = 0.7;

struct Ready {
    guest: Guest,
    patch: Patch,
    round: Vec<Kernel>,
}

fn set_up(seed: u64) -> Result<Ready, String> {
    let module = sut::compile(V1, "kernels", "v1")?;
    let patch = sut::generate_patch(V1, V2, "v1", "v2")?;
    let guest = Guest::boot(&module, Link::Updateable)?;
    let mut round = kernel_suite(seed);
    let mut rng = Rng::new(seed ^ 0x6b65);
    for i in (1..round.len()).rev() {
        round.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    Ok(Ready {
        guest,
        patch,
        round,
    })
}

/// The two functions the patch rewrites, on inputs small enough to run
/// after every update without pushing the update path out of the caches.
fn rewritten_ok(guest: &mut Guest) -> Result<bool, String> {
    Ok(guest.call("fib", &[12])? == native::fib(12)
        && guest.call("matmul", &[6])? == native::matmul(6))
}

/// The update stage stops after this many cycles even with time left: the
/// updater keeps every report it ever made, and `peak_rss_mb` should not
/// scale with how many cycles the box's speed happens to allow.
const MAX_CYCLES: u64 = 1_000;
/// Every this-many-th update cycle checks a whole round on each side.
const FULL_CHECK_EVERY: u64 = 64;

/// Runs every kernel once; whether all answers were right.
fn run_round(guest: &mut Guest, round: &[Kernel]) -> Result<bool, String> {
    let mut correct = true;
    for k in round {
        correct &= guest.call(k.entry, &k.args)? == k.expect;
    }
    Ok(correct)
}

pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Scenario, String> {
    let (setups_s, ready) = timed_setups(
        || {
            let mut r = set_up(seed)?;
            // First timed operation needs decoded code and warm caches.
            run_round(&mut r.guest, &r.round)?;
            Ok(r)
        },
        |_| Ok(()),
    )?;
    let Ready {
        mut guest,
        patch,
        round,
    } = ready;

    let serve_len = Duration::from_secs_f64(seconds * SERVE_SHARE);
    let ops = op_stream(serve_len, tracer.as_deref_mut(), || {
        run_round(&mut guest, &round)
    })?;
    let update_len = Duration::from_secs_f64(seconds) - serve_len;
    let (updates, attempted, failed) = step_cycles(
        &mut guest,
        &patch,
        update_len,
        MAX_CYCLES,
        tracer,
        |guest, cycle| {
            let full = cycle % FULL_CHECK_EVERY == 0;
            Ok(rewritten_ok(guest)? && (!full || run_round(guest, &round)?))
        },
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
