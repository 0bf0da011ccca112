//! Link-resolved instructions.
//!
//! [`Op`] is the executed form of [`tal::Instr`]: all symbolic references
//! have been bound by the linker. The two call/push-function variants make
//! the cost model of the paper's experiment explicit:
//!
//! * `CallDirect`/`PushFnDirect` — static linking; the target is fixed.
//! * `CallSlot`/`PushFnSlot` — updateable linking; each call reads the
//!   current occupant of a Global Indirection Table slot, paying one extra
//!   indirection, and is retargetable by a dynamic patch.

use std::rc::Rc;

use crate::value::{FuncId, GlobalId, HostId, SlotId, StructId};

/// A resolved, directly executable instruction.
#[derive(Debug, Clone)]
pub enum Op {
    /// Push the unit value.
    PushUnit,
    /// Push an integer constant.
    PushInt(i64),
    /// Push a boolean constant.
    PushBool(bool),
    /// Push an interned string constant.
    PushStr(Rc<str>),
    /// Push `null`.
    PushNull,
    /// Push a function value with a fixed target.
    PushFnDirect(FuncId),
    /// Push a function value referring to an indirection slot.
    PushFnSlot(SlotId),
    /// Push local slot `n`.
    LoadLocal(u16),
    /// Pop into local slot `n`.
    StoreLocal(u16),
    /// Push the value of a global cell.
    LoadGlobal(GlobalId),
    /// Pop into a global cell.
    StoreGlobal(GlobalId),
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost values.
    Swap,
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer division (traps on zero).
    Div,
    /// Integer remainder (traps on zero).
    Rem,
    /// Integer negation.
    Neg,
    /// Integer equality.
    Eq,
    /// Integer inequality.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,
    /// Boolean and.
    And,
    /// Boolean or.
    Or,
    /// Boolean not.
    Not,
    /// String concatenation.
    Concat,
    /// String length.
    StrLen,
    /// Substring (clamped).
    Substr,
    /// Byte at index (traps out of bounds).
    CharAt,
    /// String equality.
    StrEq,
    /// Substring search.
    StrFind,
    /// Integer to string.
    IntToStr,
    /// String to integer (`0` on malformed input).
    StrToInt,
    /// Unconditional branch.
    Jump(u32),
    /// Pop bool, branch when false.
    JumpIfFalse(u32),
    /// Call a fixed target (static linking).
    CallDirect(FuncId),
    /// Call through an indirection slot (updateable linking).
    CallSlot(SlotId),
    /// Call a popped function value.
    CallIndirect,
    /// Call a host function with known arity.
    CallHost(HostId, u16),
    /// Return.
    Ret,
    /// Allocate a record with the given layout and field count.
    NewRecord(StructId, u16),
    /// Read field `i` of a record the code expects in this layout.
    GetField(StructId, u16),
    /// Write field `i` of a record the code expects in this layout.
    SetField(StructId, u16),
    /// Null test.
    IsNull,
    /// Allocate an empty array.
    NewArray,
    /// Indexed array read.
    ArrayGet,
    /// Indexed array write.
    ArraySet,
    /// Array length.
    ArrayLen,
    /// Array append.
    ArrayPush,
    /// Update point: suspend here when an update is pending.
    UpdatePoint,
    /// No operation.
    Nop,
    /// Body of a garbage-collected code tombstone; traps if ever executed
    /// (the collector's reachability analysis guarantees it is not).
    Unreachable,
}
