//! Dynamic patches.
//!
//! A [`Patch`] is the unit of dynamic updating (paper §2): verifiable object
//! code for the new and changed definitions, plus a [`Manifest`] describing
//! how the running program's bindings and state must change — which
//! functions are replaced, added or removed, which types change version,
//! how patch-local *alias* names map onto the old type registrations, and
//! which remaps and state transformers convert existing state.

use tal::Module;

/// Maps a patch-local type name onto an already-registered type, so patch
/// code (chiefly state transformers) can mention the *old* version of a
/// changed type. E.g. `entry__old` → the running registration of `entry`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeAlias {
    /// Name the patch module uses (and structurally defines).
    pub alias: String,
    /// Name currently bound in the running process whose registration the
    /// alias must resolve to.
    pub target: String,
}

/// A state transformer: a function in the patch module that maps the old
/// value of one global to its new representation (paper §4, "state
/// transformation"). Its signature must be `(T_old) -> T_new` for the
/// affected global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transformer {
    /// The global whose value is transformed.
    pub global: String,
    /// The patch-module function implementing the transformation.
    pub function: String,
}

/// What a patch does to the program's interface and state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Existing functions whose binding is re-pointed to a new definition.
    pub replaces: Vec<String>,
    /// Brand-new functions (includes transformers and helpers).
    pub adds: Vec<String>,
    /// Functions whose binding is removed.
    pub removes: Vec<String>,
    /// Globals defined by the patch module to be added to the process.
    pub new_globals: Vec<String>,
    /// Type names this patch re-defines (the module carries the new
    /// definition; the old registration stays for existing records).
    pub type_changes: Vec<String>,
    /// Patch-local aliases for old type versions.
    pub type_aliases: Vec<TypeAlias>,
    /// Changed types whose records convert on first touch, both ways
    /// ([`vm::Remap::derive_both`]). A subset of `type_changes`.
    pub remaps: Vec<String>,
    /// State transformers to run at update time.
    pub transformers: Vec<Transformer>,
}

/// A dynamic patch: code plus manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Patch {
    /// Version the patch upgrades from (diagnostics).
    pub from_version: String,
    /// Version the patch upgrades to.
    pub to_version: String,
    /// Verified object code of all new/changed definitions.
    pub module: Module,
    /// Interface and state deltas.
    pub manifest: Manifest,
}

impl Patch {
    /// Approximate wire size of the patch in bytes (code + metadata), used
    /// by the patch-statistics experiment (Table 1).
    pub fn size_bytes(&self) -> usize {
        self.module.size_report().updateable_total()
    }

    /// Number of function definitions carried by the patch.
    pub fn function_count(&self) -> usize {
        self.module.functions.len()
    }

    /// Whether the patch needs any state transformation.
    pub fn has_transformers(&self) -> bool {
        !self.manifest.transformers.is_empty()
    }
}

/// Convenience constructor for hand-written patches: compiles `src` against
/// `iface` (typically [`crate::interface_of`] the running process, extended
/// with alias structs) and pairs it with the manifest.
///
/// # Errors
///
/// Returns the underlying [`popcorn::CompileError`] when the patch source
/// does not compile against the interface.
pub fn compile_patch(
    src: &str,
    from_version: &str,
    to_version: &str,
    iface: &popcorn::Interface,
    manifest: Manifest,
) -> Result<Patch, popcorn::CompileError> {
    let module = popcorn::compile(src, &format!("patch-{to_version}"), to_version, iface)?;
    Ok(Patch {
        from_version: from_version.to_string(),
        to_version: to_version.to_string(),
        module,
        manifest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_patch_builds_module_and_metadata() {
        let iface = popcorn::Interface::new();
        let p = compile_patch(
            "fun f(): int { return 7; }",
            "v1",
            "v2",
            &iface,
            Manifest {
                replaces: vec!["f".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        assert_eq!(p.function_count(), 1);
        assert!(p.size_bytes() > 0);
        assert!(!p.has_transformers());
        assert_eq!(p.module.version, "v2");
    }
}
