//! Table 1 — FlashEd patch-stream statistics.
//!
//! For each version-to-version patch of the FlashEd development history:
//! functions changed / carried by safety rules / added / removed, types
//! changed, globals added, hand-written state transformers, types remapped
//! (converted record by record on first touch), and patch size.
//!
//! Run with: `cargo run --release -p dsu-bench --bin table1_patch_stats`

use dsu_bench::measure::{row, rule};
use flashed::patch_stream;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let widths = [8, 7, 7, 5, 7, 5, 7, 11, 6, 7];
    println!("Table 1: FlashEd patch stream statistics\n");
    row(
        &[
            "patch", "changed", "carried", "added", "removed", "types", "globals", "xformers",
            "remaps", "bytes",
        ],
        &widths,
    );
    rule(&widths);
    for gen in patch_stream()? {
        let s = &gen.stats;
        row(
            &[
                &format!("{}->{}", gen.patch.from_version, gen.patch.to_version),
                &s.functions_changed.to_string(),
                &s.functions_carried.to_string(),
                &s.functions_added.to_string(),
                &s.functions_removed.to_string(),
                &s.types_changed.to_string(),
                &s.globals_added.to_string(),
                &s.transformers.to_string(),
                &s.types_remapped.to_string(),
                &gen.patch.size_bytes().to_string(),
            ],
            &widths,
        );
    }
    println!(
        "\n(carried = functions whose text is unchanged but that the update-safety\n\
         analysis pulls into the patch: they touch a changed type or call a\n\
         signature-changed function)"
    );
    Ok(())
}
