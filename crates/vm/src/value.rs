//! Runtime values.
//!
//! Values are reference-counted; records and arrays are shared mutable heap
//! objects (the guest language has C-like aliasing). Every record carries
//! the [`StructId`] of its current layout, which is how two *versions* of a
//! source-level type coexist in one heap after a dynamic update: an old
//! record keeps its old layout until code expecting the new one touches it
//! and it converts itself in place (see [`crate::remap`]).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use tal::Ty;

/// Identity of a registered record-type layout (one per registered
/// [`tal::TypeDef`], including per version).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(pub u32);

/// Identity of a linked function in the process code store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identity of a function indirection-table (GIT) slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u32);

/// Identity of a global-variable cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// Identity of a registered host (extern) function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// A heap-allocated record instance.
#[derive(Debug)]
pub struct RecordObj {
    /// The record's current layout: the one it was allocated with, until a
    /// field access expecting another layout converts it.
    pub struct_id: Cell<StructId>,
    /// Field values, in declaration order of that layout.
    pub fields: RefCell<Vec<Value>>,
}

/// How a first-class function value refers to code.
///
/// Under *updateable* linking the value holds an indirection-table slot, so
/// a stored function pointer transparently picks up the new version after an
/// update — exactly the behaviour the paper gets from routing function
/// pointers through the dynamic linker's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnRef {
    /// No target yet (default value of a function-typed local); calling
    /// traps, like an uninitialised C function pointer, without breaking
    /// memory safety.
    Unresolved,
    /// Fixed code target (static linking).
    Direct(FuncId),
    /// Current occupant of an indirection-table slot (updateable linking).
    Slot(SlotId),
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// The unit value.
    Unit,
    /// 64-bit integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Immutable string.
    Str(Rc<str>),
    /// Shared growable array.
    Array(Rc<RefCell<Vec<Value>>>),
    /// Shared record instance.
    Record(Rc<RecordObj>),
    /// The null reference (inhabits every named record type).
    Null,
    /// First-class function.
    Fn(FnRef),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Creates an empty array value.
    pub fn empty_array() -> Value {
        Value::Array(Rc::new(RefCell::new(Vec::new())))
    }

    /// Creates an array value from elements.
    pub fn array(elems: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(elems)))
    }

    /// Creates a record value with the given layout and fields.
    pub fn record(struct_id: StructId, fields: Vec<Value>) -> Value {
        Value::Record(Rc::new(RecordObj {
            struct_id: Cell::new(struct_id),
            fields: RefCell::new(fields),
        }))
    }

    /// The default value a local slot of type `ty` starts with.
    pub fn default_for(ty: &Ty) -> Value {
        thread_local! {
            static EMPTY_STR: Rc<str> = Rc::from("");
        }
        match ty {
            Ty::Unit => Value::Unit,
            Ty::Int => Value::Int(0),
            Ty::Bool => Value::Bool(false),
            Ty::Str => Value::Str(EMPTY_STR.with(Rc::clone)),
            Ty::Array(_) => Value::empty_array(),
            Ty::Named(_) => Value::Null,
            Ty::Fn(_) => Value::Fn(FnRef::Unresolved),
        }
    }

    /// Integer payload.
    ///
    /// # Panics
    /// Panics when the value is not an `Int`; verified code never does this.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(n) => *n,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Boolean payload (panics on type confusion, which verified code rules out).
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected bool, found {other:?}"),
        }
    }

    /// String payload (panics on type confusion, which verified code rules out).
    pub fn as_str(&self) -> Rc<str> {
        match self {
            Value::Str(s) => Rc::clone(s),
            other => panic!("expected string, found {other:?}"),
        }
    }

    /// Approximate heap footprint in bytes of this value, following
    /// references (shared substructure is counted each time it is reached;
    /// cycles are impossible to build in the guest language through `new`
    /// expressions alone, and depth is bounded for the measured workloads).
    /// Used by the memory-usage experiment.
    pub fn deep_size(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Null | Value::Fn(_) => 8,
            Value::Str(s) => 16 + s.len(),
            Value::Array(a) => 16 + a.borrow().iter().map(Value::deep_size).sum::<usize>(),
            Value::Record(r) => {
                16 + r
                    .fields
                    .borrow()
                    .iter()
                    .map(Value::deep_size)
                    .sum::<usize>()
            }
        }
    }
}

impl Value {
    /// Invokes `f` on every function reference reachable from this value,
    /// following arrays and records (cycle-safe). Used by the code-store
    /// garbage collector to find live code targets held in the heap.
    pub fn for_each_fnref(&self, f: &mut impl FnMut(FnRef)) {
        let mut seen: std::collections::HashSet<*const ()> = std::collections::HashSet::new();
        self.walk_fnrefs(f, &mut seen);
    }

    fn walk_fnrefs(
        &self,
        f: &mut impl FnMut(FnRef),
        seen: &mut std::collections::HashSet<*const ()>,
    ) {
        match self {
            Value::Fn(r) => f(*r),
            Value::Array(a) if seen.insert(Rc::as_ptr(a).cast()) => {
                for v in a.borrow().iter() {
                    v.walk_fnrefs(f, seen);
                }
            }
            Value::Record(r) if seen.insert(Rc::as_ptr(r).cast()) => {
                for v in r.fields.borrow().iter() {
                    v.walk_fnrefs(f, seen);
                }
            }
            _ => {}
        }
    }
}

impl PartialEq for Value {
    /// Structural equality (arrays and records compare by contents), used by
    /// tests and state-transformer assertions.
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Null, Value::Null) => true,
            (Value::Fn(a), Value::Fn(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => *a.borrow() == *b.borrow(),
            (Value::Record(a), Value::Record(b)) => {
                a.struct_id.get() == b.struct_id.get() && *a.fields.borrow() == *b.fields.borrow()
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Null => write!(f, "null"),
            Value::Fn(FnRef::Unresolved) => write!(f, "<fn:unresolved>"),
            Value::Fn(FnRef::Direct(id)) => write!(f, "<fn:{}>", id.0),
            Value::Fn(FnRef::Slot(id)) => write!(f, "<fn@slot:{}>", id.0),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record(r) => {
                write!(f, "{{#{}:", r.struct_id.get().0)?;
                for (i, v) in r.fields.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, " {v}")?;
                }
                write!(f, " }}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_types() {
        assert_eq!(Value::default_for(&Ty::Int), Value::Int(0));
        assert_eq!(Value::default_for(&Ty::Bool), Value::Bool(false));
        assert_eq!(Value::default_for(&Ty::Str), Value::str(""));
        assert_eq!(Value::default_for(&Ty::named("t")), Value::Null);
        assert_eq!(
            Value::default_for(&Ty::func(vec![], Ty::Unit)),
            Value::Fn(FnRef::Unresolved)
        );
        assert_eq!(
            Value::default_for(&Ty::array(Ty::Int)),
            Value::array(vec![])
        );
    }

    #[test]
    fn structural_equality() {
        let a = Value::array(vec![Value::Int(1), Value::str("x")]);
        let b = Value::array(vec![Value::Int(1), Value::str("x")]);
        assert_eq!(a, b);
        let r1 = Value::record(StructId(0), vec![Value::Int(1)]);
        let r2 = Value::record(StructId(0), vec![Value::Int(1)]);
        let r3 = Value::record(StructId(1), vec![Value::Int(1)]);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3, "different layout identity");
    }

    #[test]
    fn deep_size_counts_contents() {
        let v = Value::array(vec![Value::str("abcd"), Value::Int(0)]);
        assert_eq!(v.deep_size(), 16 + (16 + 4) + 8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(
            Value::array(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
    }
}
