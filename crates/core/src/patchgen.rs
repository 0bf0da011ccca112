//! The patch generator: source diff → dynamic patch.
//!
//! Mirrors the paper's patch-generation tooling (§5): given the previous
//! and next versions of a program's source, it computes which functions,
//! types and globals changed; pulls in everything the update-safety rules
//! require (callers of signature-changed functions, all code touching a
//! changed type); lists each changed type whose conversion is mechanical
//! both ways ([`vm::Remap::derive_both`]) as a **remap**, converted on
//! first touch; and compiles the result into a verified [`Patch`]. State it
//! cannot convert is reported so the programmer can supply a hand-written
//! transformer, which runs eagerly in the pause, as in the paper.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use popcorn::ast::{Item, Program};
use popcorn::{pretty, Interface};
use tal::{Module, SymbolKind, TypeDef};
use vm::Remap;

use crate::compat::{reachable_types, rename_typedef};
use crate::patch::{compile_patch, Manifest, Patch, Transformer, TypeAlias};

/// Suffix appended to a changed type's name to form its patch-local alias
/// for the old representation.
pub const ALIAS_SUFFIX: &str = "__old";

/// A hand-written state transformer supplied to the generator for changes
/// it cannot convert mechanically. It runs eagerly, in the pause; the
/// changed types its global reaches are not remapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManualTransformer {
    /// The global this transformer converts.
    pub global: String,
    /// Name of the transformer function inside `source`.
    pub function: String,
    /// Popcorn source of the transformer (may reference `T__old` aliases).
    pub source: String,
}

/// Patch-generation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchGenError {
    /// One of the two sources (or the composed patch) failed to compile.
    Compile(popcorn::CompileError),
    /// A global needs state conversion that is not mechanical; supply a
    /// [`ManualTransformer`].
    NeedsManualTransformer {
        /// The affected global.
        global: String,
        /// Its (new) type.
        ty: String,
        /// Why no remap covers it.
        reason: String,
    },
}

impl fmt::Display for PatchGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchGenError::Compile(e) => write!(f, "patch generation: {e}"),
            PatchGenError::NeedsManualTransformer { global, ty, reason } => write!(
                f,
                "global `{global}`: {ty} needs a hand-written transformer ({reason})"
            ),
        }
    }
}

impl std::error::Error for PatchGenError {}

impl From<popcorn::CompileError> for PatchGenError {
    fn from(e: popcorn::CompileError) -> PatchGenError {
        PatchGenError::Compile(e)
    }
}

/// What the diff found (the paper's per-patch statistics, Table 1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Functions whose body or signature changed.
    pub functions_changed: usize,
    /// Functions pulled in only because a type or signature they depend on
    /// changed (their own text is identical).
    pub functions_carried: usize,
    /// New functions.
    pub functions_added: usize,
    /// Removed functions.
    pub functions_removed: usize,
    /// Struct types whose definition changed.
    pub types_changed: usize,
    /// New globals.
    pub globals_added: usize,
    /// Hand-written state transformers in the patch.
    pub transformers: usize,
    /// Changed types whose records convert on first touch.
    pub types_remapped: usize,
}

/// A generated patch, its composed source, and diff statistics.
#[derive(Debug, Clone)]
pub struct GeneratedPatch {
    /// The compiled patch, ready for [`crate::apply_patch`].
    pub patch: Patch,
    /// The Popcorn source the patch was compiled from (debugging aid).
    pub source: String,
    /// Diff statistics.
    pub stats: DiffStats,
}

/// Configurable patch generator.
#[derive(Debug, Clone, Default)]
pub struct PatchGen {
    /// Hand-written transformers for non-mechanical state changes.
    pub manual: Vec<ManualTransformer>,
}

impl PatchGen {
    /// Creates a generator with no manual transformers.
    pub fn new() -> PatchGen {
        PatchGen::default()
    }

    /// Registers a manual transformer.
    pub fn with_manual(mut self, m: ManualTransformer) -> PatchGen {
        self.manual.push(m);
        self
    }

    /// Diffs `old_src` → `new_src` and produces the patch taking a process
    /// running the old version to the new one.
    ///
    /// # Errors
    ///
    /// Returns [`PatchGenError::Compile`] when either source (or the
    /// composed patch) fails to compile, and
    /// [`PatchGenError::NeedsManualTransformer`] when a global's state
    /// change is not mechanical and no hand-written transformer covers it.
    pub fn generate(
        &self,
        old_src: &str,
        new_src: &str,
        from_version: &str,
        to_version: &str,
    ) -> Result<GeneratedPatch, PatchGenError> {
        let old_ast = popcorn::parse(old_src)?;
        let new_ast = popcorn::parse(new_src)?;
        let old_mod = popcorn::compile(old_src, "old", from_version, &Interface::new())?;
        let new_mod = popcorn::compile(new_src, "new", to_version, &Interface::new())?;

        let d = Diff::compute(&old_ast, &new_ast, &old_mod, &new_mod);

        // ---- remaps, then transformers for what they do not cover ---------
        let old_types: BTreeMap<String, TypeDef> = old_mod
            .types
            .iter()
            .map(|t| (t.name.clone(), t.clone()))
            .collect();
        let reach = |g: &str| reachable_types(&old_mod.global(g).expect("diffed").ty, &old_types);
        let manual = |g: &str| self.manual.iter().find(|m| m.global == g);
        // A changed type a hand-written transformer's global reaches is
        // that transformer's to convert; every other one is remapped when
        // its conversion is mechanical both ways.
        let owned: BTreeSet<String> = d
            .globals_kept
            .iter()
            .filter(|g| manual(g).is_some())
            .flat_map(|g| reach(g))
            .collect();
        let mut remaps = Vec::new();
        let mut why_not: BTreeMap<&str, String> = BTreeMap::new();
        for t in &d.types_changed {
            let derived = if owned.contains(t) {
                Err(format!("`{t}` is converted by a hand-written transformer"))
            } else {
                Remap::derive_both(&old_types[t], new_mod.type_def(t).expect("diffed"))
            };
            match derived {
                Ok(_) => remaps.push(t.clone()),
                Err(reason) => {
                    why_not.insert(t, reason);
                }
            }
        }
        let mut xform_sources = Vec::new();
        let mut transformers = Vec::new();
        for g in &d.globals_kept {
            let (old_ty, new_ty) = (
                &old_mod.global(g).expect("diffed").ty,
                &new_mod.global(g).expect("diffed").ty,
            );
            let reason = if old_ty != new_ty {
                format!("type changed from {old_ty} to {new_ty}")
            } else {
                match reach(g).iter().find_map(|t| why_not.get(t.as_str())) {
                    Some(reason) => reason.clone(),
                    None => continue,
                }
            };
            let man = manual(g).ok_or_else(|| PatchGenError::NeedsManualTransformer {
                global: g.clone(),
                ty: new_ty.to_string(),
                reason,
            })?;
            xform_sources.push(man.source.clone());
            transformers.push(Transformer {
                global: g.clone(),
                function: man.function.clone(),
            });
        }
        let alias_pairs: Vec<(String, String)> = d
            .types_changed
            .iter()
            .map(|t| (t.clone(), alias_name(t)))
            .collect();
        let alias_map: HashMap<&str, &str> = alias_pairs
            .iter()
            .map(|(t, a)| (t.as_str(), a.as_str()))
            .collect();

        // ---- compose the patch source ------------------------------------
        let mut source = String::new();
        // Alias structs for old representations (only when needed).
        let needs_aliases = !transformers.is_empty();
        let mut type_aliases = Vec::new();
        if needs_aliases {
            for t in &d.types_changed {
                let old_def = old_mod.type_def(t).expect("diffed");
                let alias = alias_name(t);
                let renamed = rename_typedef(old_def, &alias, &alias_map);
                source.push_str(&typedef_source(&renamed));
                type_aliases.push(TypeAlias {
                    alias,
                    target: t.clone(),
                });
            }
        }
        // New definitions of changed types, and brand-new types.
        for t in &d.types_changed {
            source.push_str(&typedef_source(new_mod.type_def(t).expect("diffed")));
        }
        for t in &d.types_added {
            source.push_str(&typedef_source(new_mod.type_def(t).expect("diffed")));
        }
        // Extern declarations (hosts merge by signature).
        for e in new_ast.externs() {
            source.push_str(&pretty::extern_def(e));
        }
        // New globals.
        for item in &new_ast.items {
            if let Item::Global(g) = item {
                if d.globals_added.contains(&g.name) {
                    source.push_str(&pretty::global_def(g));
                }
            }
        }
        // Replaced, carried and added functions (new text).
        for item in &new_ast.items {
            if let Item::Fun(f) = item {
                if d.functions_in_patch.contains(&f.name) {
                    source.push_str(&pretty::fun_def(f));
                    source.push('\n');
                }
            }
        }
        // Transformers last.
        for x in &xform_sources {
            source.push_str(x);
            source.push('\n');
        }

        // ---- manifest -------------------------------------------------------
        let old_funs: BTreeSet<&str> = old_mod.functions.iter().map(|f| f.name.as_str()).collect();
        let mut replaces = Vec::new();
        let mut adds = Vec::new();
        for name in &d.functions_in_patch {
            if old_funs.contains(name.as_str()) {
                replaces.push(name.clone());
            } else {
                adds.push(name.clone());
            }
        }
        for x in &transformers {
            adds.push(x.function.clone());
        }
        let manifest = Manifest {
            replaces,
            adds,
            removes: d.functions_removed.iter().cloned().collect(),
            new_globals: d.globals_added.iter().cloned().collect(),
            type_changes: d.types_changed.iter().cloned().collect(),
            type_aliases,
            remaps,
            transformers,
        };

        // ---- compile against the old program's interface ------------------
        let iface = interface_of_module(&old_mod);
        let patch = compile_patch(&source, from_version, to_version, &iface, manifest)?;

        let stats = DiffStats {
            functions_changed: d.functions_changed_count,
            functions_carried: d.functions_carried_count,
            functions_added: d.functions_added_count,
            functions_removed: d.functions_removed.len(),
            types_changed: d.types_changed.len(),
            globals_added: d.globals_added.len(),
            transformers: patch.manifest.transformers.len(),
            types_remapped: patch.manifest.remaps.len(),
        };
        Ok(GeneratedPatch {
            patch,
            source,
            stats,
        })
    }
}

/// The computed difference between two program versions.
struct Diff {
    types_changed: BTreeSet<String>,
    types_added: BTreeSet<String>,
    functions_in_patch: BTreeSet<String>,
    functions_removed: BTreeSet<String>,
    globals_added: BTreeSet<String>,
    /// Globals both versions define.
    globals_kept: BTreeSet<String>,
    functions_changed_count: usize,
    functions_carried_count: usize,
    functions_added_count: usize,
}

impl Diff {
    fn compute(old_ast: &Program, new_ast: &Program, old_mod: &Module, new_mod: &Module) -> Diff {
        // Canonical renderings for text-level change detection.
        let old_fun_text: BTreeMap<&str, String> = old_ast
            .functions()
            .map(|f| (f.name.as_str(), pretty::fun_def(f)))
            .collect();
        let new_fun_text: BTreeMap<&str, String> = new_ast
            .functions()
            .map(|f| (f.name.as_str(), pretty::fun_def(f)))
            .collect();
        let old_struct_text: BTreeMap<&str, String> = old_ast
            .structs()
            .map(|s| (s.name.as_str(), pretty::struct_def(s)))
            .collect();
        let new_struct_text: BTreeMap<&str, String> = new_ast
            .structs()
            .map(|s| (s.name.as_str(), pretty::struct_def(s)))
            .collect();

        let mut types_changed = BTreeSet::new();
        let mut types_added = BTreeSet::new();
        for (name, text) in &new_struct_text {
            match old_struct_text.get(name) {
                Some(old) if old == text => {}
                Some(_) => {
                    types_changed.insert((*name).to_string());
                }
                None => {
                    types_added.insert((*name).to_string());
                }
            }
        }

        let mut changed: BTreeSet<String> = BTreeSet::new();
        let mut added: BTreeSet<String> = BTreeSet::new();
        let mut removed: BTreeSet<String> = BTreeSet::new();
        for (name, text) in &new_fun_text {
            match old_fun_text.get(name) {
                Some(old) if old == text => {}
                Some(_) => {
                    changed.insert((*name).to_string());
                }
                None => {
                    added.insert((*name).to_string());
                }
            }
        }
        for name in old_fun_text.keys() {
            if !new_fun_text.contains_key(name) {
                removed.insert((*name).to_string());
            }
        }

        // Carry in functions forced by the update-safety rules, using the
        // *compiled* metadata (accurate about field accesses and calls).
        let mut carried: BTreeSet<String> = BTreeSet::new();
        // (a) any surviving function touching a changed type;
        for f in &new_mod.functions {
            if changed.contains(&f.name) || added.contains(&f.name) {
                continue;
            }
            let touched = f.referenced_types(new_mod);
            if touched.iter().any(|t| types_changed.contains(t)) {
                carried.insert(f.name.clone());
            }
        }
        // (b) any surviving caller of a signature-changed function.
        let sig_changed: BTreeSet<&str> = changed
            .iter()
            .filter(
                |name| match (old_mod.function(name), new_mod.function(name)) {
                    (Some(o), Some(n)) => o.sig != n.sig,
                    _ => false,
                },
            )
            .map(String::as_str)
            .collect();
        if !sig_changed.is_empty() {
            for f in &new_mod.functions {
                if changed.contains(&f.name) || added.contains(&f.name) || carried.contains(&f.name)
                {
                    continue;
                }
                let refs = f.referenced_symbols(new_mod);
                if refs.iter().any(|r| sig_changed.contains(r)) {
                    carried.insert(f.name.clone());
                }
            }
        }

        let mut functions_in_patch: BTreeSet<String> = BTreeSet::new();
        functions_in_patch.extend(changed.iter().cloned());
        functions_in_patch.extend(added.iter().cloned());
        functions_in_patch.extend(carried.iter().cloned());

        let (globals_kept, globals_added) = new_mod
            .globals
            .iter()
            .map(|g| g.name.clone())
            .partition(|g| old_mod.global(g).is_some());

        Diff {
            functions_changed_count: changed.len(),
            functions_carried_count: carried.len(),
            functions_added_count: added.len(),
            types_changed,
            types_added,
            functions_in_patch,
            functions_removed: removed,
            globals_added,
            globals_kept,
        }
    }
}

fn alias_name(t: &str) -> String {
    format!("{t}{ALIAS_SUFFIX}")
}

/// Renders a `tal` type definition as Popcorn source.
fn typedef_source(def: &TypeDef) -> String {
    let fields: Vec<String> = def
        .fields
        .iter()
        .map(|f| format!("{}: {}", f.name, f.ty))
        .collect();
    format!("struct {} {{ {} }}\n", def.name, fields.join(", "))
}

/// Builds the ambient interface of a compiled module (the "running
/// program" as the patch compiler sees it).
pub fn interface_of_module(m: &Module) -> Interface {
    let mut iface = Interface::new();
    for t in &m.types {
        iface.structs.insert(t.name.clone(), t.clone());
    }
    for g in &m.globals {
        iface.globals.insert(g.name.clone(), g.ty.clone());
    }
    for f in &m.functions {
        iface.functions.insert(f.name.clone(), f.sig.clone());
    }
    for s in &m.symbols {
        if let SymbolKind::Host(sig) = &s.kind {
            iface.hosts.insert(s.name.clone(), sig.clone());
        }
    }
    iface
}
