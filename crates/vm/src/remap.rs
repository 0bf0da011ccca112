//! Records migrate on first touch.
//!
//! A type change registers the new layout beside the old one and leaves
//! the heap alone. The field operations carry the layout their code
//! expects; a record in another converts itself in place along a
//! [`Remap`] — native code, no guest call, no fuel. Committed patches arm
//! remaps both ways ([`Process::arm_remap`](crate::Process::arm_remap));
//! a record several hops away follows the path, composed into one remap
//! (what eager transformers would have built hop by hop) and memoised per
//! `(from, to)`. The table only grows and is not part of a binding
//! snapshot, so records a rollback leaves in a newer layout convert back.

use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use tal::{Ty, TypeDef};

use crate::trap::Trap;
use crate::value::{RecordObj, StructId, Value};

/// Where one field of the target layout comes from.
#[derive(Debug, Clone, PartialEq)]
enum Source {
    /// The source record's field at this index.
    Carry(usize),
    /// A fresh default of this type.
    Default(Ty),
}

/// How a record of one layout is rebuilt as another: per field of the
/// target layout, the source field it carries or the default it starts at.
#[derive(Debug, Clone, PartialEq)]
pub struct Remap {
    fields: Box<[Source]>,
}

impl Remap {
    /// Derives the conversion of `from` records into `to` records, where it
    /// is mechanical: a field of `to` whose name and type match a field of
    /// `from` carries its value; any other starts at
    /// [`Value::default_for`] its type, which must be `int`, `bool`,
    /// `string`, a record or an array.
    ///
    /// # Errors
    /// Names the first field of `to` that neither carries over nor has a
    /// default; such a change needs a hand-written transformer.
    pub fn derive(from: &TypeDef, to: &TypeDef) -> Result<Remap, String> {
        let source = |f: &tal::Field| match from.fields.iter().position(|o| o.name == f.name) {
            Some(i) if from.fields[i].ty == f.ty => Ok(Source::Carry(i)),
            Some(i) => Err(format!(
                "field `{}` of `{}` changes type from {} to {}",
                f.name, to.name, from.fields[i].ty, f.ty
            )),
            None if matches!(f.ty, Ty::Unit | Ty::Fn(_)) => Err(format!(
                "new field `{}: {}` of `{}` has no default",
                f.name, f.ty, to.name
            )),
            None => Ok(Source::Default(f.ty.clone())),
        };
        let fields = to.fields.iter().map(source).collect::<Result<_, _>>()?;
        Ok(Remap { fields })
    }

    /// The conversions `old → new` and `new → old`: an update and its
    /// rollback.
    ///
    /// # Errors
    /// As [`Remap::derive`], for whichever direction fails first.
    pub fn derive_both(old: &TypeDef, new: &TypeDef) -> Result<(Remap, Remap), String> {
        Ok((Remap::derive(old, new)?, Remap::derive(new, old)?))
    }

    /// This remap followed by `next` (whose source is this one's target).
    fn then(&self, next: &Remap) -> Remap {
        Remap {
            fields: next
                .fields
                .iter()
                .map(|s| match s {
                    Source::Carry(j) => self.fields[*j].clone(),
                    fresh => fresh.clone(),
                })
                .collect(),
        }
    }

    /// Rewrites `rec`'s fields in place and stamps it with layout `to`.
    /// `rec` must hold this remap's source layout, so every carried index
    /// is one of its fields.
    fn apply(&self, rec: &RecordObj, to: StructId) {
        let mut fields = rec.fields.borrow_mut();
        let rebuilt = self
            .fields
            .iter()
            .map(|s| match s {
                Source::Carry(i) => fields[*i].clone(),
                Source::Default(ty) => Value::default_for(ty),
            })
            .collect();
        *fields = rebuilt;
        rec.struct_id.set(to);
    }
}

/// The remaps committed patches armed, and the paths composed from them.
#[derive(Debug, Default)]
pub(crate) struct RemapTable {
    /// Armed edges `(from, to, remap)`.
    edges: Vec<Edge>,
    /// Composed paths; `None` records that no path exists. Cleared
    /// whenever an edge is armed.
    paths: HashMap<(StructId, StructId), Option<Rc<Remap>>>,
}

type Edge = (StructId, StructId, Rc<Remap>);

impl RemapTable {
    /// Arms the edge `from → to`.
    pub(crate) fn arm(&mut self, from: StructId, to: StructId, remap: Remap) {
        self.edges.push((from, to, Rc::new(remap)));
        self.paths.clear();
    }

    /// Converts `rec` to layout `expected` along the armed path from its
    /// current layout; with none, the record is left untouched.
    pub(crate) fn migrate(&mut self, rec: &RecordObj, expected: StructId) -> Result<(), Trap> {
        let (edges, found) = (&self.edges, rec.struct_id.get());
        let path = self.paths.entry((found, expected));
        let path = path.or_insert_with(|| search(edges, found, expected));
        let remap = path.as_ref().ok_or(Trap::StaleRecord { found, expected })?;
        remap.apply(rec, expected);
        Ok(())
    }
}

/// Breadth-first search for the path `from → to`, composing the remaps
/// along the way.
fn search(edges: &[Edge], from: StructId, to: StructId) -> Option<Rc<Remap>> {
    let mut seen = HashSet::from([from]);
    let mut queue = VecDeque::from([(from, None::<Rc<Remap>>)]);
    while let Some((at, so_far)) = queue.pop_front() {
        for (_, next, step) in edges.iter().filter(|e| e.0 == at && seen.insert(e.1)) {
            let composed = match &so_far {
                None => Rc::clone(step),
                Some(path) => Rc::new(path.then(step)),
            };
            if *next == to {
                return Some(composed);
            }
            queue.push_back((*next, Some(composed)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tal::Field;

    fn def(fields: &[(&str, Ty)]) -> TypeDef {
        TypeDef::new(
            "rec",
            fields
                .iter()
                .map(|(n, t)| Field::new(*n, t.clone()))
                .collect(),
        )
    }

    fn record(sid: u32, fields: Vec<Value>) -> Rc<RecordObj> {
        match Value::record(StructId(sid), fields) {
            Value::Record(r) => r,
            _ => unreachable!(),
        }
    }

    #[test]
    fn derive_carries_by_name_and_type_and_defaults_the_rest() {
        let v1 = def(&[("id", Ty::Int), ("tag", Ty::Str)]);
        let v2 = def(&[
            ("seen", Ty::Bool),
            ("id", Ty::Int),
            ("xs", Ty::array(Ty::Int)),
        ]);
        let r = Remap::derive(&v1, &v2).unwrap();
        let rec = record(0, vec![Value::Int(7), Value::str("t")]);
        r.apply(&rec, StructId(1));
        assert_eq!(rec.struct_id.get(), StructId(1));
        assert_eq!(
            *rec.fields.borrow(),
            vec![Value::Bool(false), Value::Int(7), Value::array(vec![])]
        );
        // A retyped field, or a new one with no default, is not mechanical.
        assert!(Remap::derive(&v1, &def(&[("id", Ty::Str)])).is_err());
        let f = Ty::func(vec![], Ty::Int);
        assert!(Remap::derive(&v1, &def(&[("id", Ty::Int), ("f", f)])).is_err());
    }

    #[test]
    fn paths_compose_across_hops_and_a_missing_one_leaves_the_record() {
        let v1 = def(&[("id", Ty::Int), ("tag", Ty::Str)]);
        let v2 = def(&[("id", Ty::Int)]);
        let v3 = def(&[("id", Ty::Int), ("tag", Ty::Str), ("n", Ty::Int)]);
        let mut t = RemapTable::default();
        t.arm(StructId(1), StructId(2), Remap::derive(&v1, &v2).unwrap());
        t.arm(StructId(2), StructId(3), Remap::derive(&v2, &v3).unwrap());
        let rec = record(1, vec![Value::Int(4), Value::str("lost at v2")]);
        assert!(t.migrate(&rec, StructId(3)).is_ok());
        // v2 dropped `tag`, so the hop-by-hop result has it defaulted.
        assert_eq!(
            *rec.fields.borrow(),
            vec![Value::Int(4), Value::str(""), Value::Int(0)]
        );
        let stale = record(3, vec![Value::Int(1), Value::str(""), Value::Int(2)]);
        assert!(
            t.migrate(&stale, StructId(1)).is_err(),
            "no backward edges armed"
        );
        assert_eq!(stale.struct_id.get(), StructId(3));
        t.arm(StructId(3), StructId(2), Remap::derive(&v3, &v2).unwrap());
        t.arm(StructId(2), StructId(1), Remap::derive(&v2, &v1).unwrap());
        assert!(
            t.migrate(&stale, StructId(1)).is_ok(),
            "arming clears the miss"
        );
        assert_eq!(*stale.fields.borrow(), vec![Value::Int(1), Value::str("")]);
    }
}
