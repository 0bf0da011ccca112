//! The six workloads. Each is the same experiment on different inputs and
//! hands back the same [`Scenario`] shape.

mod bigstate;
mod kernels;
mod patch_build;
mod serve;

use crate::scenario::Scenario;
use crate::trace::Tracer;

pub use bigstate::{V1 as REC_V1, V2 as REC_V2};
pub use kernels::{kernel_suite, V1 as KERNELS_V1};
pub use serve::boot_placed;

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Scenario, String> {
    match workload {
        "serve_hot" => serve::run(&serve::serve_hot(), seed, seconds, tracer),
        "serve_missbound" => serve::run(&serve::serve_missbound(), seed, seconds, tracer),
        "update_walk" => serve::run(&serve::update_walk(), seed, seconds, tracer),
        "update_bigstate" => bigstate::run(seed, seconds, tracer),
        "guest_kernels" => kernels::run(seed, seconds, tracer),
        "patch_build" => patch_build::run(seed, seconds, tracer),
        other => Err(format!("no workload named `{other}`")),
    }
}
