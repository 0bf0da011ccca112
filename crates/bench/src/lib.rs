//! # dsu-bench — the evaluation harness
//!
//! One binary per table/figure of the reproduced evaluation (see
//! `EXPERIMENTS.md` at the repository root for the experiment index and
//! recorded results):
//!
//! | Target | Reproduces |
//! |---|---|
//! | `table1_patch_stats` | FlashEd patch-stream statistics |
//! | `table2_update_time` | patch application cost breakdown + pause vs state size |
//! | `table3_indirection` | updateable-compilation overhead on kernels |
//! | `table4_code_size` | code/metadata size of static vs updateable images |
//! | `figure1_throughput` | Flash vs FlashEd throughput across file sizes |
//! | `figure2_timeline` | throughput timeline across live updates |
//! | `ablation_policies` | verify on/off, activeness policies, eager vs first-touch migration |
//!
//! Criterion benches (`cargo bench`) cover call dispatch, patch
//! application and end-to-end serving.

pub mod kernels;
pub mod loadgen;
pub mod measure;

pub use kernels::{boot_kernel, kernels, run_kernel, Kernel};
pub use loadgen::{
    decorrelated_backoff, observe_sojourns, sojourn_stats, ClosedLoop, GenReport, OpenLoop,
    SojournStats,
};

/// The record table `table2_update_time` and `ablation_policies` migrate,
/// as `(v1, v2)`: v2's `rec` gains `dirty: bool`, a mechanical type change.
pub fn rec_table() -> (String, String) {
    let v1 = r#"
        struct rec { id: int, tag: string }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i, tag: "r" + itoa(i) }); i = i + 1; }
            return len(data);
        }
        fun total(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let v2 = v1
        .replace("tag: string }", "tag: string, dirty: bool }")
        .replace("itoa(i) }", "itoa(i), dirty: false }");
    (v1.to_string(), v2)
}
