//! The FlashEd patch stream, generated from the version history.

use dsu_core::{GeneratedPatch, PatchGen, PatchGenError};

use crate::versions;

/// Generates the full patch stream v1→v2→…→v5 with the patch generator
/// (the v3→v4 cache-entry change is mechanical field growth: its records
/// are remapped on first touch, no transformer needed).
///
/// # Errors
///
/// Returns the first [`PatchGenError`]; with the checked-in version
/// sources this does not happen (see tests).
pub fn patch_stream() -> Result<Vec<GeneratedPatch>, PatchGenError> {
    let versions = versions::all();
    versions
        .windows(2)
        .map(|w| PatchGen::new().generate(&w[0].1, &w[1].1, w[0].0, w[1].0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_generates_and_has_expected_shape() {
        let stream = patch_stream().unwrap();
        assert_eq!(stream.len(), 4);

        let v1v2 = &stream[0];
        assert_eq!(v1v2.stats.functions_changed, 1, "handle changed");
        assert_eq!(v1v2.stats.functions_added, 2, "mime_of, respond_typed");
        assert_eq!(v1v2.stats.types_changed, 0);

        let v2v3 = &stream[1];
        assert_eq!(v2v3.stats.globals_added, 2, "cache, cache_cap");
        assert_eq!(v2v3.stats.functions_added, 2, "cache_lookup, cache_insert");
        assert_eq!(
            v2v3.stats.types_changed, 0,
            "cache_entry is new, not changed"
        );

        let v3v4 = &stream[2];
        assert_eq!(v3v4.stats.types_changed, 1, "cache_entry");
        assert_eq!(v3v4.stats.transformers, 0, "no transformer needed");
        assert_eq!(v3v4.stats.types_remapped, 1, "field growth is mechanical");
        assert!(
            v3v4.stats.functions_carried >= 1,
            "handle carried: {:?}",
            v3v4.stats
        );

        let v4v5 = &stream[3];
        assert_eq!(v4v5.stats.types_changed, 0);
        assert_eq!(v4v5.stats.functions_changed, 2, "parse_path, handle");
        assert_eq!(v4v5.stats.transformers, 0);
    }
}
