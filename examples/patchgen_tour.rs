//! A tour of the patch generator: what the source diff finds, what patch
//! source it composes, and which changed types its manifest remaps.
//!
//! Run with: `cargo run --example patchgen_tour`

use dsu::core::PatchGen;
use dsu::flashed::versions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== FlashEd patch stream through the generator ==\n");
    let all = versions::all();
    for w in all.windows(2) {
        let (from, old_src) = &w[0];
        let (to, new_src) = &w[1];
        let gen = PatchGen::new().generate(old_src, new_src, from, to)?;
        println!(
            "{from} -> {to}: {} changed, {} carried, {} added, {} removed, \
             {} types changed ({} remapped), {} globals added, {} transformers, {} bytes",
            gen.stats.functions_changed,
            gen.stats.functions_carried,
            gen.stats.functions_added,
            gen.stats.functions_removed,
            gen.stats.types_changed,
            gen.stats.types_remapped,
            gen.stats.globals_added,
            gen.stats.transformers,
            gen.patch.size_bytes(),
        );
    }

    // Show the interesting one in full: the type-changing v3 -> v4 patch.
    let gen = PatchGen::new().generate(&versions::v3(), &versions::v4(), "v3", "v4")?;
    println!("\n== composed patch source for v3 -> v4 ==\n");
    println!("{}", gen.source);
    println!("== manifest ==\n{:#?}", gen.patch.manifest);
    Ok(())
}
