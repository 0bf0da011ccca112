//! On-disk patch format.
//!
//! A dynamic patch serialises to a single text file: a manifest header
//! followed by the module in `tal::text` object-code form. Because the
//! receiving process re-verifies every patch before linking (see
//! [`crate::apply_patch`]), a patch file needs no trust — exactly the
//! paper's verifiable-object-code story for patches distributed as files.
//!
//! ```text
//! dsu-patch 1
//! from v3
//! to v4
//! replace handle
//! add cache_hits_total
//! type-change cache_entry
//! remap cache_entry
//! ---module---
//! module patch-v4 v4
//! ...
//! ```

use std::error::Error;
use std::fmt;

use crate::patch::{Manifest, Patch, Transformer, TypeAlias};

/// Magic first line of the format.
const MAGIC: &str = "dsu-patch 1";
/// Separator between manifest and module text.
const MODULE_SEP: &str = "---module---";

/// A failure while reading a patch file.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchIoError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PatchIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "patch file error: {}", self.message)
    }
}

impl Error for PatchIoError {}

impl From<tal::text::TextError> for PatchIoError {
    fn from(e: tal::text::TextError) -> PatchIoError {
        PatchIoError {
            message: e.to_string(),
        }
    }
}

/// Serialises a patch to its file form.
pub fn save_patch(patch: &Patch) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("from {}\n", patch.from_version));
    out.push_str(&format!("to {}\n", patch.to_version));
    let m = &patch.manifest;
    for x in &m.replaces {
        out.push_str(&format!("replace {x}\n"));
    }
    for x in &m.adds {
        out.push_str(&format!("add {x}\n"));
    }
    for x in &m.removes {
        out.push_str(&format!("remove {x}\n"));
    }
    for x in &m.new_globals {
        out.push_str(&format!("new-global {x}\n"));
    }
    for x in &m.type_changes {
        out.push_str(&format!("type-change {x}\n"));
    }
    for x in &m.type_aliases {
        out.push_str(&format!("type-alias {} = {}\n", x.alias, x.target));
    }
    for x in &m.remaps {
        out.push_str(&format!("remap {x}\n"));
    }
    for x in &m.transformers {
        out.push_str(&format!("transform {} = {}\n", x.global, x.function));
    }
    out.push_str(MODULE_SEP);
    out.push('\n');
    out.push_str(&tal::text::emit(&patch.module));
    out
}

/// Reads a patch back from its file form.
///
/// # Errors
///
/// Returns [`PatchIoError`] on a malformed header or module section. The
/// result still needs [`crate::apply_patch`]'s verification — loading
/// performs no trust decisions.
pub fn load_patch(text: &str) -> Result<Patch, PatchIoError> {
    let err = |m: &str| PatchIoError {
        message: m.to_string(),
    };
    let (header, module_text) = text
        .split_once(&format!("{MODULE_SEP}\n"))
        .ok_or_else(|| err("missing `---module---` separator"))?;
    let mut lines = header.lines();
    if lines.next() != Some(MAGIC) {
        return Err(err("not a dsu-patch file (bad magic)"));
    }
    let mut from_version = None;
    let mut to_version = None;
    let mut manifest = Manifest::default();
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line
            .split_once(' ')
            .ok_or_else(|| err(&format!("malformed manifest line `{line}`")))?;
        let rest = rest.trim();
        match key {
            "from" => from_version = Some(rest.to_string()),
            "to" => to_version = Some(rest.to_string()),
            "replace" => manifest.replaces.push(rest.to_string()),
            "add" => manifest.adds.push(rest.to_string()),
            "remove" => manifest.removes.push(rest.to_string()),
            "new-global" => manifest.new_globals.push(rest.to_string()),
            "type-change" => manifest.type_changes.push(rest.to_string()),
            "remap" => manifest.remaps.push(rest.to_string()),
            "type-alias" => {
                let (alias, target) = rest
                    .split_once('=')
                    .ok_or_else(|| err("type-alias needs `alias = target`"))?;
                manifest.type_aliases.push(TypeAlias {
                    alias: alias.trim().to_string(),
                    target: target.trim().to_string(),
                });
            }
            "transform" => {
                let (global, function) = rest
                    .split_once('=')
                    .ok_or_else(|| err("transform needs `global = function`"))?;
                manifest.transformers.push(Transformer {
                    global: global.trim().to_string(),
                    function: function.trim().to_string(),
                });
            }
            other => return Err(err(&format!("unknown manifest key `{other}`"))),
        }
    }
    Ok(Patch {
        from_version: from_version.ok_or_else(|| err("missing `from`"))?,
        to_version: to_version.ok_or_else(|| err("missing `to`"))?,
        module: tal::text::parse(module_text)?,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patchgen::PatchGen;

    #[test]
    fn round_trips_a_generated_patch() {
        let v1 = r#"
            struct rec { id: int }
            global data: [rec] = new [rec];
            fun get(i: int): int { return data[i].id; }
        "#;
        let v2 = r#"
            struct rec { id: int, seen: bool }
            global data: [rec] = new [rec];
            fun get(i: int): int { return data[i].id; }
        "#;
        let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
        assert_eq!(gen.patch.manifest.remaps, vec!["rec".to_string()]);
        let text = save_patch(&gen.patch);
        assert!(text.contains("\nremap rec\n"), "{text}");
        let back = load_patch(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(back, gen.patch);
        // Stability: save(load(save(p))) == save(p).
        assert_eq!(save_patch(&back), text);
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(load_patch("").is_err());
        assert!(
            load_patch("dsu-patch 1\nfrom a\nto b\n").is_err(),
            "no separator"
        );
        assert!(
            load_patch("nonsense\n---module---\nmodule m v1\n").is_err(),
            "bad magic"
        );
        assert!(
            load_patch("dsu-patch 1\nto b\n---module---\nmodule m v1\n").is_err(),
            "missing from"
        );
        assert!(
            load_patch("dsu-patch 1\nfrom a\nto b\nbogus x\n---module---\nmodule m v1\n").is_err(),
            "unknown key"
        );
    }
}
