//! Update-safety (interface-compatibility) analysis.
//!
//! A verified patch is *type-safe as code*; this module checks that
//! applying it to this particular process state cannot break type safety
//! either (paper §3, "well-formed updates"):
//!
//! * a replaced function whose **signature changed** requires every live
//!   caller to be replaced/removed in the same patch, and must not be
//!   referenced by any *active* stack frame (old frames keep running old
//!   code and would call through the rebound slot with the old calling
//!   convention);
//! * a **removed** function must leave no live or active references;
//! * a **changed type** requires every live function touching it to be
//!   replaced/removed, no active frame touching it (old code could mint
//!   old-layout records into new-code paths), and either a **remap** that
//!   derives both ways ([`vm::Remap::derive_both`]) or a state transformer
//!   on every global whose type reaches it through any chain of fields;
//! * **transformers** must have signature `(old-repr) -> new-repr`, where
//!   the old representation is the global's type with changed names
//!   rewritten to their patch-local aliases;
//! * **aliases** must be structurally identical to the old registration
//!   (after rewriting nested changed names).

use std::collections::{BTreeSet, HashMap};

use tal::{SymbolKind, Ty, TypeDef, TypeProvider};
use vm::{Process, ProcessTypes, Remap};

use crate::patch::{Manifest, Patch};
use crate::report::UpdateError;

/// Checks `patch` against the current state of `proc`.
///
/// # Errors
///
/// Returns [`UpdateError::Compat`] (or [`UpdateError::ActiveCode`])
/// describing the first violated rule.
pub fn check(proc: &Process, patch: &Patch) -> Result<(), UpdateError> {
    let m = &patch.manifest;
    let err = |msg: String| Err(UpdateError::Compat(msg));

    let updated: BTreeSet<&str> = m
        .replaces
        .iter()
        .chain(m.removes.iter())
        .map(String::as_str)
        .collect();
    let alias_map: HashMap<&str, &str> = m
        .type_aliases
        .iter()
        .map(|a| (a.target.as_str(), a.alias.as_str()))
        .collect();
    let active = proc.suspended_frames();

    // ---- manifest / module consistency ---------------------------------
    for name in m.replaces.iter().chain(m.adds.iter()) {
        if patch.module.function(name).is_none() {
            return err(format!(
                "manifest lists `{name}` but the module does not define it"
            ));
        }
    }
    for name in &m.replaces {
        if proc.function_id(name).is_none() {
            return err(format!("`{name}` is marked replaced but is not bound"));
        }
    }
    for name in &m.adds {
        if proc.function_id(name).is_some() {
            return err(format!("`{name}` is marked added but already exists"));
        }
    }
    for name in &m.removes {
        if proc.function_id(name).is_none() {
            return err(format!("`{name}` is marked removed but is not bound"));
        }
    }
    for g in &m.new_globals {
        if patch.module.global(g).is_none() {
            return err(format!("new global `{g}` is not defined by the module"));
        }
        if proc.global_type(g).is_some() {
            return err(format!("global `{g}` already exists"));
        }
    }
    // Globals defined by the module must all be declared new.
    for g in &patch.module.globals {
        if !m.new_globals.contains(&g.name) {
            return err(format!(
                "module defines global `{}` not listed in new_globals",
                g.name
            ));
        }
    }
    // Functions defined by the module must all be accounted for.
    for f in &patch.module.functions {
        if !m.replaces.contains(&f.name) && !m.adds.contains(&f.name) {
            return err(format!(
                "module defines function `{}` not listed as replaced or added",
                f.name
            ));
        }
    }

    // ---- signature changes ----------------------------------------------
    for name in &m.replaces {
        let old_sig = proc.function_sig(name).expect("checked bound");
        let new_sig = &patch.module.function(name).expect("checked defined").sig;
        if old_sig != new_sig {
            // All live callers must be updated too.
            for (caller, f) in proc.bound_functions() {
                if f.sym_refs.iter().any(|r| r == name) && !updated.contains(caller) {
                    return err(format!(
                        "`{name}` changes signature but live caller `{caller}` is not updated"
                    ));
                }
            }
            // No active frame may reference it (old code would use the old
            // calling convention through the rebound slot).
            let offenders: Vec<String> = active
                .iter()
                .filter(|f| f.name == *name || f.sym_refs.iter().any(|r| r == name))
                .map(|f| f.name.clone())
                .collect();
            if !offenders.is_empty() {
                return Err(UpdateError::ActiveCode(offenders));
            }
        }
    }

    // ---- removals ---------------------------------------------------------
    for name in &m.removes {
        for (live, f) in proc.bound_functions() {
            if !updated.contains(live) && f.sym_refs.iter().any(|r| r == name) {
                return err(format!(
                    "`{name}` is removed but live function `{live}` still references it"
                ));
            }
        }
        if patch
            .module
            .symbols
            .iter()
            .any(|s| s.name == *name && matches!(s.kind, SymbolKind::Fn(_)))
        {
            return err(format!("patch code references removed function `{name}`"));
        }
        let offenders: Vec<String> = active
            .iter()
            .filter(|f| f.sym_refs.iter().any(|r| r == name))
            .map(|f| f.name.clone())
            .collect();
        if !offenders.is_empty() {
            return Err(UpdateError::ActiveCode(offenders));
        }
    }

    // ---- type changes ------------------------------------------------------
    for tname in &m.type_changes {
        if proc.struct_id(tname).is_none() {
            return err(format!("type `{tname}` is marked changed but is not bound"));
        }
        if patch.module.type_def(tname).is_none() {
            return err(format!(
                "changed type `{tname}` is not defined by the module"
            ));
        }
        for (live, f) in proc.bound_functions() {
            if !updated.contains(live) && f.type_names.iter().any(|t| t == tname) {
                return err(format!(
                    "type `{tname}` changes but live function `{live}` still uses it"
                ));
            }
        }
        let offenders: Vec<String> = active
            .iter()
            .filter(|f| f.type_names.iter().any(|t| t == tname))
            .map(|f| f.name.clone())
            .collect();
        if !offenders.is_empty() {
            return Err(UpdateError::ActiveCode(offenders));
        }
    }

    // ---- remaps and transformer coverage ---------------------------------
    for tname in &m.remaps {
        if !m.type_changes.contains(tname) {
            return err(format!("remapped type `{tname}` is not a type change"));
        }
        let old = proc.struct_def(proc.struct_id(tname).expect("checked bound"));
        let new = patch.module.type_def(tname).expect("checked defined");
        if let Err(why) = Remap::derive_both(old, new) {
            return err(format!("type `{tname}` cannot be remapped: {why}"));
        }
    }
    let unconverted = |t: &String| m.type_changes.contains(t) && !m.remaps.contains(t);
    let uncovered = |g: &str| !m.transformers.iter().any(|x| x.global == g);
    if m.type_changes.iter().any(unconverted) {
        for cell in proc.globals().filter(|c| uncovered(&c.name)) {
            let reached = reachable_types(&cell.ty, &ProcessTypes(proc));
            if let Some(t) = reached.iter().find(|t| unconverted(t)) {
                let g = &cell.name;
                return err(format!(
                    "global `{g}` reaches changed type `{t}` but no transformer"
                ));
            }
        }
    }

    // ---- aliases -------------------------------------------------------------
    for alias in &m.type_aliases {
        let Some(sid) = proc.struct_id(&alias.target) else {
            return err(format!(
                "alias target `{}` is not a bound type",
                alias.target
            ));
        };
        let Some(alias_def) = patch.module.type_def(&alias.alias) else {
            return err(format!(
                "alias `{}` is not defined by the module",
                alias.alias
            ));
        };
        let old_def = proc.struct_def(sid);
        let expected = rename_typedef(old_def, &alias.alias, &alias_map);
        if alias_def.fields != expected.fields {
            return err(format!(
                "alias `{}` does not match the old structure of `{}`",
                alias.alias, alias.target
            ));
        }
    }

    // ---- transformers -----------------------------------------------------------
    for x in &m.transformers {
        let Some(f) = patch.module.function(&x.function) else {
            return err(format!(
                "transformer `{}` is not defined by the module",
                x.function
            ));
        };
        let Some(gty) = proc.global_type(&x.global) else {
            return err(format!("transformer targets unknown global `{}`", x.global));
        };
        let old_repr = rename_ty(gty, &alias_map);
        if f.sig.params.len() != 1 || f.sig.params[0] != old_repr {
            return err(format!(
                "transformer `{}` must take ({old_repr}), has {}",
                x.function, f.sig
            ));
        }
        if &f.sig.ret != gty {
            return err(format!(
                "transformer `{}` must return {gty}, returns {}",
                x.function, f.sig.ret
            ));
        }
    }

    check_manifest_duplicates(m)?;
    Ok(())
}

fn check_manifest_duplicates(m: &Manifest) -> Result<(), UpdateError> {
    let mut seen = BTreeSet::new();
    for name in m
        .replaces
        .iter()
        .chain(m.adds.iter())
        .chain(m.removes.iter())
    {
        if !seen.insert(name.as_str()) {
            return Err(UpdateError::Compat(format!(
                "`{name}` appears more than once in the manifest"
            )));
        }
    }
    Ok(())
}

/// Every type name `ty` reaches through any chain of fields (and, to be
/// conservative, array elements and signatures), its own included.
pub(crate) fn reachable_types(ty: &Ty, types: &dyn TypeProvider) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut work = Vec::new();
    ty.collect_named(&mut work);
    while let Some(name) = work.pop() {
        if seen.contains(&name) {
            continue;
        }
        if let Some(def) = types.lookup_type(&name) {
            for f in &def.fields {
                f.ty.collect_named(&mut work);
            }
        }
        seen.insert(name);
    }
    seen
}

/// Rewrites every changed type name in `ty` to its patch-local alias —
/// producing the type *as the patch must spell it* to denote the old
/// representation.
pub fn rename_ty(ty: &Ty, alias_map: &HashMap<&str, &str>) -> Ty {
    match ty {
        Ty::Named(n) => match alias_map.get(n.as_str()) {
            Some(alias) => Ty::Named((*alias).to_string()),
            None => ty.clone(),
        },
        Ty::Array(e) => Ty::array(rename_ty(e, alias_map)),
        Ty::Fn(sig) => Ty::func(
            sig.params.iter().map(|p| rename_ty(p, alias_map)).collect(),
            rename_ty(&sig.ret, alias_map),
        ),
        _ => ty.clone(),
    }
}

/// Rewrites a type definition for alias comparison: the definition is
/// renamed to `new_name` and every field type is alias-rewritten (so a
/// self-referential `entry { next: entry }` aliases to
/// `entry__old { next: entry__old }`).
pub fn rename_typedef(def: &TypeDef, new_name: &str, alias_map: &HashMap<&str, &str>) -> TypeDef {
    TypeDef::new(
        new_name.to_string(),
        def.fields
            .iter()
            .map(|f| tal::Field::new(f.name.clone(), rename_ty(&f.ty, alias_map)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_walks_nested_types() {
        let mut map = HashMap::new();
        map.insert("entry", "entry__old");
        let ty = Ty::array(Ty::func(vec![Ty::named("entry")], Ty::named("other")));
        let out = rename_ty(&ty, &map);
        assert_eq!(
            out,
            Ty::array(Ty::func(vec![Ty::named("entry__old")], Ty::named("other")))
        );
    }

    #[test]
    fn rename_typedef_handles_self_reference() {
        let mut map = HashMap::new();
        map.insert("entry", "entry__old");
        let def = TypeDef::new(
            "entry",
            vec![
                tal::Field::new("k", Ty::Str),
                tal::Field::new("next", Ty::named("entry")),
            ],
        );
        let out = rename_typedef(&def, "entry__old", &map);
        assert_eq!(out.name, "entry__old");
        assert_eq!(out.fields[1].ty, Ty::named("entry__old"));
    }
}
