//! Run-time traps and link-time errors.

use std::error::Error;
use std::fmt;

use crate::value::StructId;

/// A run-time fault. Verified code can still trap on the C-like partial
/// operations (null dereference, division by zero, out-of-bounds indexing);
/// it can never violate type safety.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivByZero,
    /// Field access through a `null` record reference.
    NullDeref,
    /// Array or string index out of bounds.
    IndexOutOfBounds {
        /// Requested index.
        index: i64,
        /// Container length.
        len: usize,
    },
    /// Call through an indirection-table slot that has no binding.
    UnboundSlot(String),
    /// Call through an unresolved (default) function value.
    UnresolvedFn,
    /// Guest call stack exceeded the configured limit.
    StackOverflow,
    /// The configured instruction budget was exhausted (see
    /// `Process::set_fuel`) — protection against runaway guest loops.
    OutOfFuel,
    /// A host (extern) function reported an error.
    Host(String),
    /// A field access found a record in a layout no armed remap converts
    /// to the one the code expects (see [`crate::remap`]).
    StaleRecord {
        /// The record's layout.
        found: StructId,
        /// The layout the accessing code was linked against.
        expected: StructId,
    },
    /// The entry function named in a `run` call does not exist.
    NoSuchFunction(String),
    /// Arguments passed from the host do not match the entry signature arity.
    BadEntryArity {
        /// Expected parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::NullDeref => write!(f, "null dereference"),
            Trap::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            Trap::UnboundSlot(name) => write!(f, "call through unbound slot `{name}`"),
            Trap::UnresolvedFn => write!(f, "call through unresolved function value"),
            Trap::StackOverflow => write!(f, "guest stack overflow"),
            Trap::OutOfFuel => write!(f, "instruction budget exhausted"),
            Trap::Host(msg) => write!(f, "host function error: {msg}"),
            Trap::StaleRecord { found, expected } => write!(f, "no remap {found:?} → {expected:?}"),
            Trap::NoSuchFunction(name) => write!(f, "no function named `{name}`"),
            Trap::BadEntryArity { expected, got } => {
                write!(f, "entry expects {expected} arguments, got {got}")
            }
        }
    }
}

impl Error for Trap {}

/// A link-time failure while loading or binding a module.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// A symbol could not be resolved against the process.
    Unresolved {
        /// Symbol name.
        name: String,
        /// Symbol kind description (`function`, `global`, `host`).
        kind: &'static str,
    },
    /// A symbol resolved, but to a definition of a different type.
    TypeMismatch {
        /// Symbol name.
        name: String,
        /// Expected (symbol-table) type rendering.
        expected: String,
        /// Found (definition) type rendering.
        found: String,
    },
    /// A type name is already bound to a structurally different definition.
    TypeConflict(String),
    /// A definition (function, global) clashes with an existing one during
    /// initial load.
    Duplicate(String),
    /// Global initialiser trapped while being evaluated.
    InitTrap {
        /// Global name.
        name: String,
        /// The trap.
        trap: Trap,
    },
    /// Module failed bytecode verification.
    Verify(tal::VerifyError),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Unresolved { name, kind } => {
                write!(f, "unresolved {kind} symbol `{name}`")
            }
            LinkError::TypeMismatch {
                name,
                expected,
                found,
            } => {
                write!(f, "symbol `{name}`: expected {expected}, found {found}")
            }
            LinkError::TypeConflict(name) => {
                write!(f, "type `{name}` conflicts with an existing definition")
            }
            LinkError::Duplicate(name) => write!(f, "duplicate definition `{name}`"),
            LinkError::InitTrap { name, trap } => {
                write!(f, "initialiser of `{name}` trapped: {trap}")
            }
            LinkError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl Error for LinkError {}

impl From<tal::VerifyError> for LinkError {
    fn from(e: tal::VerifyError) -> LinkError {
        LinkError::Verify(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(Trap::DivByZero.to_string(), "division by zero");
        assert!(Trap::IndexOutOfBounds { index: 9, len: 3 }
            .to_string()
            .contains("9"));
        assert!(LinkError::Unresolved {
            name: "f".into(),
            kind: "function"
        }
        .to_string()
        .contains("`f`"));
        assert!(LinkError::Duplicate("g".into())
            .to_string()
            .contains("duplicate"));
    }
}
