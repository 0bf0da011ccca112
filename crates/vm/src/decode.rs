//! Pre-decoded threaded code.
//!
//! [`lower`] turns a function's linked [`Op`] sequence into the form the
//! interpreter actually executes: a flat [`DOp`] vector with operands
//! pre-extracted, common pairs fused into superinstructions, and every
//! `CallSlot` site carrying its own [`InlineCache`]. The lowering runs
//! once at link time, so the per-instruction fetch in the hot loop is a
//! dense-discriminant match with no re-decoding — structured so a
//! computed-goto/tail-call backend can replace the match later without
//! touching the decode layer.
//!
//! ## Inline caches
//!
//! A `CallSlot` site caches the [`FuncId`] its Global Indirection Table
//! slot resolved to, stamped with the process's **bind generation** at
//! resolution time. While the generation is unchanged the site dispatches
//! with zero indirection-table traffic (one compare, then a direct
//! code-store fetch — no slot load, no name lookup); any rebind — patch
//! apply, rollback, unbind — bumps the generation, so the very next call
//! through every site re-resolves through the slot and refills. A dynamic
//! update therefore stays one atomic slot store plus a generation bump,
//! and suspended frames resume correctly because their sites validate on
//! first use after the patch.
//!
//! The cache holds a plain `(u64, FuncId)` pair in a [`Cell`] rather
//! than a strong `Rc` to the target: the code store is append-only (a
//! collected function is *replaced* by a trapping tombstone, never
//! removed), so a cached id can never dangle, the hit path carries no
//! interior-mutability bookkeeping, and caches cannot form `Rc` cycles
//! through recursive functions or pin collected code.
//! [`Process::collect_code`] still flushes every cache (and bumps the
//! generation) so a tombstoned target is re-resolved rather than trapped.
//!
//! [`Process::collect_code`]: crate::process::Process::collect_code
//!
//! ## Fusion rules
//!
//! Patterns are matched greedily left-to-right, longest first, and never
//! across a jump target (a branch must land on a decoded instruction
//! boundary). Every rewrite keeps the operand-stack effect and the traps
//! of the sequence it replaces, so what the verifier proved about the
//! `Op`s holds for the `DOp`s.
//!
//! Borrowed access paths — the container is read where it lives instead
//! of being cloned onto the operand stack and dropped again:
//!
//! * `LoadLocal r; GetField f` → [`DOp::LocalGetField`]
//! * `LoadLocal a; LoadLocal i; ArrayGet` → [`DOp::LocalArrayGet`]
//! * `LoadGlobal g; LoadLocal i; ArrayGet` → [`DOp::GlobalArrayGet`]
//! * `LoadLocal a; ArrayLen` → [`DOp::LocalArrayLen`]
//!
//! Arithmetic, compares and calls:
//!
//! * `PushInt k; <cmp>; JumpIfFalse t` → [`DOp::CmpConstBranch`]
//! * `<cmp>; JumpIfFalse t` → [`DOp::CmpBranch`]
//! * `PushInt k; Add|Sub|Mul` → [`DOp::AddConst`] / `SubConst` / `MulConst`
//! * `PushInt k; <cmp>` → [`DOp::CmpConst`]
//! * `LoadLocal n; CallSlot s` → [`DOp::LoadLocalCallSlot`]
//! * `LoadLocal n; CallDirect f` → [`DOp::LoadLocalCallDirect`]
//! * `LoadLocal a; LoadLocal b` → [`DOp::LoadLocal2`], unless the second
//!   load starts an access path — then the first stays a plain
//!   `LoadLocal` and the path fuses
//!
//! `PushUnit; Pop` — what an expression statement leaves behind — decodes
//! to nothing; a branch to it lands on the instruction that follows.

use std::cell::Cell;
use std::rc::Rc;

use crate::ops::Op;
use crate::value::{FuncId, GlobalId, HostId, SlotId, StructId};

/// An integer comparison, shared by the fused compare forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl Cmp {
    /// Evaluates the comparison.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }

    fn from_op(op: &Op) -> Option<Cmp> {
        Some(match op {
            Op::Eq => Cmp::Eq,
            Op::Ne => Cmp::Ne,
            Op::Lt => Cmp::Lt,
            Op::Le => Cmp::Le,
            Op::Gt => Cmp::Gt,
            Op::Ge => Cmp::Ge,
            _ => return None,
        })
    }
}

/// A rebind-safe inline cache attached to one `CallSlot` site.
///
/// Interior-mutable (a [`Cell`] of a `Copy` pair) so the immutable,
/// `Rc`-shared decoded code can refill it mid-execution with no borrow
/// bookkeeping on the hit path. Generation `0` means cold: the process's
/// bind generation starts at 1 and only increments, so `0` never
/// validates.
#[derive(Debug)]
pub struct InlineCache {
    /// The Global Indirection Table slot this site calls through.
    pub slot: SlotId,
    state: Cell<(u64, FuncId)>,
}

impl InlineCache {
    pub(crate) fn new(slot: SlotId) -> InlineCache {
        InlineCache {
            slot,
            state: Cell::new((0, FuncId(0))),
        }
    }

    /// The cached target, when the cache was filled at `generation`.
    #[inline]
    pub(crate) fn lookup(&self, generation: u64) -> Option<FuncId> {
        let (g, id) = self.state.get();
        if g == generation {
            Some(id)
        } else {
            None
        }
    }

    /// Fills the cache with a target resolved at `generation`.
    #[inline]
    pub(crate) fn fill(&self, generation: u64, target: FuncId) {
        self.state.set((generation, target));
    }

    /// Resets the cache to cold.
    pub(crate) fn clear(&self) {
        self.state.set((0, FuncId(0)));
    }

    /// Whether a target is cached (regardless of generation validity).
    pub fn is_warm(&self) -> bool {
        self.state.get().0 != 0
    }
}

/// A decoded, directly executable instruction. See the module docs for
/// the fusion rules; the un-fused variants mirror [`Op`] with operands
/// pre-extracted.
#[derive(Debug)]
pub enum DOp {
    // ------------------------------------------------- superinstructions
    /// `PushInt k; <cmp>; JumpIfFalse t`: pop `a`, branch to `t` when
    /// `!(a cmp k)`.
    CmpConstBranch(Cmp, i64, u32),
    /// `<cmp>; JumpIfFalse t`: pop `b`, `a`, branch when `!(a cmp b)`.
    CmpBranch(Cmp, u32),
    /// `PushInt k; Add`: pop `a`, push `a + k` (wrapping).
    AddConst(i64),
    /// `PushInt k; Sub`: pop `a`, push `a - k` (wrapping).
    SubConst(i64),
    /// `PushInt k; Mul`: pop `a`, push `a * k` (wrapping).
    MulConst(i64),
    /// `PushInt k; <cmp>`: pop `a`, push `a cmp k`.
    CmpConst(Cmp, i64),
    /// `LoadLocal a; LoadLocal b`.
    LoadLocal2(u16, u16),
    /// `LoadLocal r; GetField s f`: push field `f` of the record in local
    /// `r`, expected in layout `s` (traps on `null`).
    LocalGetField(u16, StructId, u16),
    /// `LoadLocal a; LoadLocal i; ArrayGet`: push element `locals[i]` of
    /// the array in local `a` (traps out of bounds).
    LocalArrayGet(u16, u16),
    /// `LoadGlobal g; LoadLocal i; ArrayGet`: push element `locals[i]` of
    /// the array in global `g`.
    GlobalArrayGet(GlobalId, u16),
    /// `LoadLocal a; ArrayLen`: push the length of the array in local `a`.
    LocalArrayLen(u16),
    /// `LoadLocal n; CallSlot s`: push local `n`, call through the slot's
    /// inline cache.
    LoadLocalCallSlot(u16, Box<InlineCache>),
    /// `LoadLocal n; CallDirect f`.
    LoadLocalCallDirect(u16, FuncId),

    // ------------------------------------------------------------- calls
    /// Call a fixed target (static linking).
    CallDirect(FuncId),
    /// Call through an indirection slot, via the site's inline cache.
    CallSlot(Box<InlineCache>),
    /// Call a popped function value.
    CallIndirect,
    /// Call a host function with known arity.
    CallHost(HostId, u16),
    /// Return.
    Ret,
    /// Update point: suspend here when an update is pending.
    UpdatePoint,

    // ------------------------------------------------------ plain bodies
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
    /// Integer comparison.
    IntCmp(Cmp),
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
    /// String to integer.
    StrToInt,
    /// Unconditional branch.
    Jump(u32),
    /// Pop bool, branch when false.
    JumpIfFalse(u32),
    /// Allocate a record with the given layout and field count.
    NewRecord(StructId, u16),
    /// Read field `i` of a record expected in this layout.
    GetField(StructId, u16),
    /// Write field `i` of a record expected in this layout.
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
    /// No operation.
    Nop,
    /// Garbage-collected code tombstone; traps if executed.
    Unreachable,
}

/// Lowers one non-fusable op. Branch targets are remapped by the caller.
fn lower_one(op: &Op) -> DOp {
    match op {
        Op::PushUnit => DOp::PushUnit,
        Op::PushInt(n) => DOp::PushInt(*n),
        Op::PushBool(b) => DOp::PushBool(*b),
        Op::PushStr(s) => DOp::PushStr(Rc::clone(s)),
        Op::PushNull => DOp::PushNull,
        Op::PushFnDirect(id) => DOp::PushFnDirect(*id),
        Op::PushFnSlot(s) => DOp::PushFnSlot(*s),
        Op::LoadLocal(n) => DOp::LoadLocal(*n),
        Op::StoreLocal(n) => DOp::StoreLocal(*n),
        Op::LoadGlobal(id) => DOp::LoadGlobal(*id),
        Op::StoreGlobal(id) => DOp::StoreGlobal(*id),
        Op::Dup => DOp::Dup,
        Op::Pop => DOp::Pop,
        Op::Swap => DOp::Swap,
        Op::Add => DOp::Add,
        Op::Sub => DOp::Sub,
        Op::Mul => DOp::Mul,
        Op::Div => DOp::Div,
        Op::Rem => DOp::Rem,
        Op::Neg => DOp::Neg,
        Op::Eq => DOp::IntCmp(Cmp::Eq),
        Op::Ne => DOp::IntCmp(Cmp::Ne),
        Op::Lt => DOp::IntCmp(Cmp::Lt),
        Op::Le => DOp::IntCmp(Cmp::Le),
        Op::Gt => DOp::IntCmp(Cmp::Gt),
        Op::Ge => DOp::IntCmp(Cmp::Ge),
        Op::And => DOp::And,
        Op::Or => DOp::Or,
        Op::Not => DOp::Not,
        Op::Concat => DOp::Concat,
        Op::StrLen => DOp::StrLen,
        Op::Substr => DOp::Substr,
        Op::CharAt => DOp::CharAt,
        Op::StrEq => DOp::StrEq,
        Op::StrFind => DOp::StrFind,
        Op::IntToStr => DOp::IntToStr,
        Op::StrToInt => DOp::StrToInt,
        Op::Jump(t) => DOp::Jump(*t),
        Op::JumpIfFalse(t) => DOp::JumpIfFalse(*t),
        Op::CallDirect(id) => DOp::CallDirect(*id),
        Op::CallSlot(s) => DOp::CallSlot(Box::new(InlineCache::new(*s))),
        Op::CallIndirect => DOp::CallIndirect,
        Op::CallHost(id, argc) => DOp::CallHost(*id, *argc),
        Op::Ret => DOp::Ret,
        Op::NewRecord(sid, n) => DOp::NewRecord(*sid, *n),
        Op::GetField(sid, i) => DOp::GetField(*sid, *i),
        Op::SetField(sid, i) => DOp::SetField(*sid, *i),
        Op::IsNull => DOp::IsNull,
        Op::NewArray => DOp::NewArray,
        Op::ArrayGet => DOp::ArrayGet,
        Op::ArraySet => DOp::ArraySet,
        Op::ArrayLen => DOp::ArrayLen,
        Op::ArrayPush => DOp::ArrayPush,
        Op::UpdatePoint => DOp::UpdatePoint,
        Op::Nop => DOp::Nop,
        Op::Unreachable => DOp::Unreachable,
    }
}

/// The borrowed access path starting at `code[i]`, if any, with the number
/// of ops it covers. `is_target` marks ops a branch lands on; none but the
/// first may be absorbed.
fn access_path(code: &[Op], is_target: &[bool], i: usize) -> Option<(DOp, usize)> {
    let free = |j: usize| j < code.len() && !is_target[j];
    if !free(i + 1) {
        return None;
    }
    match (&code[i], &code[i + 1]) {
        (Op::LoadLocal(r), Op::GetField(sid, f)) => Some((DOp::LocalGetField(*r, *sid, *f), 2)),
        (Op::LoadLocal(a), Op::ArrayLen) => Some((DOp::LocalArrayLen(*a), 2)),
        (base, Op::LoadLocal(n)) if free(i + 2) && matches!(code[i + 2], Op::ArrayGet) => {
            match base {
                Op::LoadLocal(a) => Some((DOp::LocalArrayGet(*a, *n), 3)),
                Op::LoadGlobal(g) => Some((DOp::GlobalArrayGet(*g, *n), 3)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Lowers linked code into decoded threaded form (see module docs).
pub fn lower(code: &[Op]) -> Vec<DOp> {
    // A branch must land on a decoded-instruction boundary: an op that is
    // a jump target can never be absorbed into its predecessor's fusion.
    let mut is_target = vec![false; code.len() + 1];
    for op in code {
        if let Op::Jump(t) | Op::JumpIfFalse(t) = op {
            is_target[*t as usize] = true;
        }
    }

    // Pass 1: fuse, recording old-index → new-index for every old op (a
    // target always maps to the start of the group that covers it, since
    // targets are never absorbed; an elided group maps to what follows).
    let mut map = vec![0usize; code.len() + 1];
    let mut out: Vec<DOp> = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        let free2 = i + 1 < code.len() && !is_target[i + 1];
        let free3 = free2 && i + 2 < code.len() && !is_target[i + 2];
        if free2 && matches!(code[i..i + 2], [Op::PushUnit, Op::Pop]) {
            map[i] = out.len();
            map[i + 1] = out.len();
            i += 2;
            continue;
        }
        let (dop, len) = access_path(code, &is_target, i).unwrap_or_else(|| match &code[i] {
            Op::PushInt(k) if free2 => match (&code[i + 1], code.get(i + 2)) {
                (Op::Add, _) => (DOp::AddConst(*k), 2),
                (Op::Sub, _) => (DOp::SubConst(*k), 2),
                (Op::Mul, _) => (DOp::MulConst(*k), 2),
                (cmp, Some(Op::JumpIfFalse(t))) if free3 && Cmp::from_op(cmp).is_some() => {
                    (DOp::CmpConstBranch(Cmp::from_op(cmp).unwrap(), *k, *t), 3)
                }
                (cmp, _) if Cmp::from_op(cmp).is_some() => {
                    (DOp::CmpConst(Cmp::from_op(cmp).unwrap(), *k), 2)
                }
                _ => (DOp::PushInt(*k), 1),
            },
            cmp if free2
                && Cmp::from_op(cmp).is_some()
                && matches!(code[i + 1], Op::JumpIfFalse(_)) =>
            {
                let Op::JumpIfFalse(t) = code[i + 1] else {
                    unreachable!()
                };
                (DOp::CmpBranch(Cmp::from_op(cmp).unwrap(), t), 2)
            }
            Op::LoadLocal(n) if free2 => match &code[i + 1] {
                Op::LoadLocal(m) if access_path(code, &is_target, i + 1).is_none() => {
                    (DOp::LoadLocal2(*n, *m), 2)
                }
                Op::CallSlot(s) => (
                    DOp::LoadLocalCallSlot(*n, Box::new(InlineCache::new(*s))),
                    2,
                ),
                Op::CallDirect(f) => (DOp::LoadLocalCallDirect(*n, *f), 2),
                _ => (DOp::LoadLocal(*n), 1),
            },
            other => (lower_one(other), 1),
        });
        for m in &mut map[i..i + len] {
            *m = out.len();
        }
        out.push(dop);
        i += len;
    }
    map[code.len()] = out.len();

    // Pass 2: remap branch targets into decoded indices.
    for d in &mut out {
        match d {
            DOp::Jump(t)
            | DOp::JumpIfFalse(t)
            | DOp::CmpBranch(_, t)
            | DOp::CmpConstBranch(_, _, t) => *t = map[*t as usize] as u32,
            _ => {}
        }
    }
    out
}

/// Clears every inline cache in `decoded` (code GC support: a cached id
/// whose target was tombstoned must re-resolve, not trap).
pub fn flush_caches(decoded: &[DOp]) {
    for d in decoded {
        match d {
            DOp::CallSlot(ic) | DOp::LoadLocalCallSlot(_, ic) => ic.clear(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_const_binops_and_compare_branches() {
        // LoadLocal 0; PushInt 2; Lt; JumpIfFalse 6; LoadLocal 0;
        // PushInt 1; Sub; Ret; <target 6:> PushUnit; Ret
        let code = vec![
            Op::LoadLocal(0),
            Op::PushInt(2),
            Op::Lt,
            Op::JumpIfFalse(8),
            Op::LoadLocal(0),
            Op::PushInt(1),
            Op::Sub,
            Op::Ret,
            Op::PushUnit,
            Op::Ret,
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [
                    DOp::LoadLocal(0),
                    DOp::CmpConstBranch(Cmp::Lt, 2, 5),
                    DOp::LoadLocal(0),
                    DOp::SubConst(1),
                    DOp::Ret,
                    DOp::PushUnit,
                    DOp::Ret,
                ]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn never_fuses_across_a_jump_target() {
        // The back edge targets the PushInt at index 1: it must stay a
        // decoded-instruction boundary even though `PushInt; Add` would
        // otherwise fuse with the op before it... and the pair itself IS
        // fusable (PushInt is the group leader, Add is not a target).
        let code = vec![
            Op::LoadLocal(0), // 0
            Op::PushInt(1),   // 1  <- jump target
            Op::Add,          // 2
            Op::Jump(1),      // 3
        ];
        let d = lower(&code);
        // LoadLocal(0) may not absorb PushInt(1); the target lands on the
        // AddConst group whose leader is old index 1.
        assert!(
            matches!(
                d.as_slice(),
                [DOp::LoadLocal(0), DOp::AddConst(1), DOp::Jump(1)]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn fused_compare_is_blocked_when_branch_is_a_target() {
        // JumpIfFalse at index 2 is itself a jump target: Lt may not
        // absorb it.
        let code = vec![
            Op::LoadLocal(0),   // 0
            Op::LoadLocal(1),   // 1
            Op::Lt,             // 2 (fuses with 0? no — 0/1 fuse as pair)
            Op::JumpIfFalse(0), // 3 <- target of the jump below
            Op::Jump(3),        // 4
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [
                    DOp::LoadLocal2(0, 1),
                    DOp::IntCmp(Cmp::Lt),
                    DOp::JumpIfFalse(0),
                    DOp::Jump(2),
                ]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn fuses_borrowed_access_paths() {
        let g = GlobalId(7);
        let code = vec![
            Op::LoadLocal(3),
            Op::GetField(StructId(5), 1),
            Op::LoadLocal(0),
            Op::LoadLocal(2),
            Op::ArrayGet,
            Op::LoadGlobal(g),
            Op::LoadLocal(2),
            Op::ArrayGet,
            Op::LoadLocal(0),
            Op::ArrayLen,
            Op::Ret,
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [
                    DOp::LocalGetField(3, StructId(5), 1),
                    DOp::LocalArrayGet(0, 2),
                    DOp::GlobalArrayGet(GlobalId(7), 2),
                    DOp::LocalArrayLen(0),
                    DOp::Ret,
                ]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn load_local_pair_yields_to_an_access_path() {
        // `i < len(a)`: the second load belongs to the length read.
        let code = vec![
            Op::LoadLocal(2),
            Op::LoadLocal(0),
            Op::ArrayLen,
            Op::Lt,
            Op::Ret,
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [
                    DOp::LoadLocal(2),
                    DOp::LocalArrayLen(0),
                    DOp::IntCmp(Cmp::Lt),
                    DOp::Ret
                ]
            ),
            "{d:?}"
        );
        // `push(out, a[i])`: the last two loads and the read are the path.
        let code = vec![
            Op::LoadLocal(1),
            Op::LoadLocal(0),
            Op::LoadLocal(2),
            Op::ArrayGet,
            Op::ArrayPush,
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [DOp::LoadLocal(1), DOp::LocalArrayGet(0, 2), DOp::ArrayPush]
            ),
            "{d:?}"
        );
        // Two loads feeding plain arithmetic still pair up.
        let d = lower(&[Op::LoadLocal(0), Op::LoadLocal(1), Op::Add]);
        assert!(
            matches!(d.as_slice(), [DOp::LoadLocal2(0, 1), DOp::Add]),
            "{d:?}"
        );
    }

    #[test]
    fn access_paths_never_absorb_a_jump_target() {
        // Each `Jump` lands inside what would otherwise be one path.
        let code = vec![
            Op::LoadLocal(0),             // 0
            Op::GetField(StructId(0), 0), // 1 <- target
            Op::LoadLocal(0),             // 2
            Op::ArrayLen,                 // 3 <- target
            Op::LoadLocal(0),             // 4
            Op::LoadLocal(1),             // 5
            Op::ArrayGet,                 // 6 <- target
            Op::LoadGlobal(GlobalId(0)),  // 7
            Op::LoadLocal(1),             // 8 <- target
            Op::ArrayGet,                 // 9
            Op::Jump(1),
            Op::Jump(3),
            Op::Jump(6),
            Op::Jump(8),
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [
                    DOp::LoadLocal(0),
                    DOp::GetField(StructId(0), 0),
                    DOp::LoadLocal(0),
                    DOp::ArrayLen,
                    DOp::LoadLocal2(0, 1),
                    DOp::ArrayGet,
                    DOp::LoadGlobal(GlobalId(0)),
                    DOp::LoadLocal(1),
                    DOp::ArrayGet,
                    DOp::Jump(1),
                    DOp::Jump(3),
                    DOp::Jump(5),
                    DOp::Jump(7),
                ]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn expression_statement_residue_is_elided() {
        // A branch to the elided pair lands on what follows it; a `Pop`
        // that is itself a target keeps its `PushUnit`.
        let code = vec![
            Op::PushBool(true), // 0
            Op::JumpIfFalse(3), // 1
            Op::Nop,            // 2
            Op::PushUnit,       // 3 <- target, elided with 4
            Op::Pop,            // 4
            Op::PushUnit,       // 5
            Op::Pop,            // 6 <- target: kept
            Op::PushUnit,       // 7
            Op::Ret,            // 8
            Op::Jump(6),        // 9
        ];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [
                    DOp::PushBool(true),
                    DOp::JumpIfFalse(3),
                    DOp::Nop,
                    DOp::PushUnit,
                    DOp::Pop,
                    DOp::PushUnit,
                    DOp::Ret,
                    DOp::Jump(4),
                ]
            ),
            "{d:?}"
        );
    }

    #[test]
    fn call_sites_get_inline_caches() {
        let code = vec![
            Op::LoadLocal(0),
            Op::CallSlot(SlotId(3)),
            Op::CallSlot(SlotId(4)),
            Op::Ret,
        ];
        let d = lower(&code);
        match d.as_slice() {
            [DOp::LoadLocalCallSlot(0, ic1), DOp::CallSlot(ic2), DOp::Ret] => {
                assert_eq!(ic1.slot, SlotId(3));
                assert_eq!(ic2.slot, SlotId(4));
                assert!(!ic1.is_warm() && !ic2.is_warm());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn branch_target_one_past_the_end_is_remapped() {
        let code = vec![Op::PushBool(true), Op::JumpIfFalse(3), Op::Ret];
        let d = lower(&code);
        assert!(
            matches!(
                d.as_slice(),
                [DOp::PushBool(true), DOp::JumpIfFalse(3), DOp::Ret]
            ),
            "{d:?}"
        );
    }
}
