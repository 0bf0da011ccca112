//! The interpreter.
//!
//! Execution uses an explicit frame stack so a run can be *suspended* at an
//! update point and resumed after a dynamic patch has been applied. Frames
//! hold an `Rc` to their code: a frame that was executing a function when
//! it got replaced finishes under the old code — the paper's semantics for
//! updating active code.
//!
//! Execution is two nested loops. `exec` moves between frames: it
//! pushes a frame for a call, pops one for a return, and stops on
//! suspension or a trap. Inside it, one dispatch loop runs the top frame:
//! a single `match` over the function's **pre-decoded** form (see
//! [`crate::decode`]) — operands pre-extracted, hot sequences fused into
//! superinstructions, updateable calls going through per-site inline
//! caches validated against the process's bind generation, so a warm call
//! pays no indirection-table traffic at all while any rebind is observed
//! by the very next call through every site.
//!
//! The dispatch loop borrows the frame's locals, operand stack and code
//! once on entry and keeps the instruction pointer and the instruction
//! counter in locals. It stores both back on every way out — call,
//! return, suspension, trap — and around the one place it hands control
//! elsewhere mid-frame, host calls. So `ExecStats::instrs` always counts
//! one per decoded op, fuel is exact across frames, and a run suspended at
//! `update;` resumes at the instruction after it, under the code its
//! frames pinned. A field access compares the layout its code was linked
//! against with the record's — the only layout check — and converts a
//! mismatched record in place first ([`crate::remap`]).

use std::cell::Ref;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use tal::Ty;

use crate::decode::{DOp, InlineCache};
use crate::process::{LinkedFunction, Process};
use crate::trap::Trap;
use crate::value::{FnRef, RecordObj, StructId, Value};

/// Cumulative execution counters, used by the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Decoded instructions executed (a fused superinstruction counts 1).
    pub instrs: u64,
    /// Guest-to-guest calls.
    pub calls: u64,
    /// Calls that went through an indirection-table slot.
    pub slot_calls: u64,
    /// Slot calls answered by a warm inline cache (no table traffic).
    pub ic_hits: u64,
    /// Slot calls that (re-)resolved through the indirection table.
    pub ic_misses: u64,
    /// Host calls.
    pub host_calls: u64,
    /// Update points executed (whether or not they suspended).
    pub update_points: u64,
    /// Guest calls whose frame buffers came from the recycling pool.
    pub pool_hits: u64,
    /// Guest calls that had to allocate fresh frame buffers.
    pub pool_misses: u64,
    /// Records converted to another layout on first touch.
    pub records_migrated: u64,
}

/// A cross-thread mirror of one process's [`ExecStats`].
///
/// The interpreter's own counters stay plain `u64` fields on the
/// (thread-local) [`Process`] — the hot path pays nothing for
/// observability. An embedder that wants live telemetry *publishes* the
/// counters into one of these at its natural quiescent boundaries
/// (serve-loop iterations, update points): relaxed atomic stores, so a
/// scraper on another thread reads a recent — not torn — snapshot.
#[derive(Debug, Default)]
pub struct ExecStatsShared {
    instrs: AtomicU64,
    calls: AtomicU64,
    slot_calls: AtomicU64,
    ic_hits: AtomicU64,
    ic_misses: AtomicU64,
    host_calls: AtomicU64,
    update_points: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    records_migrated: AtomicU64,
}

impl ExecStatsShared {
    /// Creates a zeroed mirror.
    pub fn new() -> ExecStatsShared {
        ExecStatsShared::default()
    }

    /// Publishes `stats` (relaxed stores; cheap enough for every
    /// serve-loop iteration).
    pub fn publish(&self, stats: &ExecStats) {
        self.instrs.store(stats.instrs, Ordering::Relaxed);
        self.calls.store(stats.calls, Ordering::Relaxed);
        self.slot_calls.store(stats.slot_calls, Ordering::Relaxed);
        self.ic_hits.store(stats.ic_hits, Ordering::Relaxed);
        self.ic_misses.store(stats.ic_misses, Ordering::Relaxed);
        self.host_calls.store(stats.host_calls, Ordering::Relaxed);
        self.update_points
            .store(stats.update_points, Ordering::Relaxed);
        self.pool_hits.store(stats.pool_hits, Ordering::Relaxed);
        self.pool_misses.store(stats.pool_misses, Ordering::Relaxed);
        self.records_migrated
            .store(stats.records_migrated, Ordering::Relaxed);
    }

    /// The most recently published counters (relaxed loads).
    pub fn snapshot(&self) -> ExecStats {
        ExecStats {
            instrs: self.instrs.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            slot_calls: self.slot_calls.load(Ordering::Relaxed),
            ic_hits: self.ic_hits.load(Ordering::Relaxed),
            ic_misses: self.ic_misses.load(Ordering::Relaxed),
            host_calls: self.host_calls.load(Ordering::Relaxed),
            update_points: self.update_points.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            records_migrated: self.records_migrated.load(Ordering::Relaxed),
        }
    }
}

/// One activation record.
#[derive(Debug)]
pub struct Frame {
    /// The code this frame executes (pinned: survives rebinding).
    pub func: Rc<LinkedFunction>,
    /// Next instruction index (into the function's *decoded* code).
    pub pc: usize,
    /// Local slots (parameters first).
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
}

impl Frame {
    /// Builds a frame for `func` with `args` already bound to the leading
    /// locals; remaining locals take their type's default value.
    pub fn new(func: Rc<LinkedFunction>, args: Vec<Value>) -> Frame {
        let mut locals = args;
        for ty in &func.locals[locals.len()..] {
            locals.push(Value::default_for(ty));
        }
        Frame {
            func,
            pc: 0,
            locals,
            stack: Vec::new(),
        }
    }
}

/// A (possibly suspended) execution: the guest call stack.
///
/// Finished frames donate their `locals`/`stack` buffers to a small pool
/// so the hot call path does not allocate — keeping per-call cost low
/// enough that the *dispatch* difference between static and updateable
/// linking (the paper's overhead experiment) is what dominates. Host
/// calls marshal their arguments through a reusable scratch buffer for
/// the same reason.
#[derive(Debug)]
pub struct ExecState {
    frames: Vec<Frame>,
    pool: Vec<(Vec<Value>, Vec<Value>)>,
    host_args: Vec<Value>,
}

impl ExecState {
    /// Starts an execution with a single entry frame.
    pub fn with_frame(frame: Frame) -> ExecState {
        ExecState {
            frames: vec![frame],
            pool: Vec::new(),
            host_args: Vec::new(),
        }
    }

    /// Names of the functions on the stack, outermost first.
    pub fn frame_functions(&self) -> Vec<String> {
        self.frames.iter().map(|f| f.func.name.clone()).collect()
    }

    /// The code of every frame on the stack, outermost first.
    pub fn frame_codes(&self) -> Vec<Rc<LinkedFunction>> {
        self.frames.iter().map(|f| Rc::clone(&f.func)).collect()
    }

    /// Every value held in any frame's locals or operand stack (the code
    /// garbage collector scans these for live function values).
    pub fn frame_values(&self) -> impl Iterator<Item = &Value> {
        self.frames
            .iter()
            .flat_map(|f| f.locals.iter().chain(f.stack.iter()))
    }
}

/// Why `exec` returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The entry frame returned this value.
    Done(Value),
    /// The guest reached an update point while an update was pending; the
    /// execution state is retained for [`Process::resume`].
    Suspended,
}

/// Resolves the slot-call site at `pc` of `func` through its inline cache.
///
/// A warm cache whose generation matches the process's current bind
/// generation answers with no indirection-table traffic — one compare,
/// then a direct code-store fetch. Otherwise the slot is consulted and
/// the cache refilled at the current generation (so the next rebind —
/// which bumps the generation — invalidates it again). Generation 0 means
/// caching is disabled: every call goes through the table.
#[inline]
fn resolve_slot_call(
    proc: &mut Process,
    ic: &InlineCache,
    generation: u64,
    func: &str,
    pc: usize,
) -> Result<Rc<LinkedFunction>, Trap> {
    proc.stats.slot_calls += 1;
    let caching = generation != 0;
    let cached = if caching { ic.lookup(generation) } else { None };
    let (hits, misses) = match cached {
        Some(_) => (1, 0),
        None => (0, u64::from(caching)),
    };
    proc.stats.ic_hits += hits;
    proc.stats.ic_misses += misses;
    let id = match cached {
        Some(id) => id,
        None => {
            let id = proc
                .slot_target(ic.slot)
                .ok_or_else(|| Trap::UnboundSlot(proc.slot_name(ic.slot).to_string()))?;
            if caching {
                ic.fill(generation, id);
            }
            id
        }
    };
    if let Some(p) = proc.profiler.as_deref_mut() {
        p.record_site(func, pc, hits, misses);
    }
    Ok(Rc::clone(proc.function(id)))
}

/// How the dispatch loop leaves the frame it was running.
enum Transfer {
    /// Enter this callee; its arguments are on the operand stack.
    Call(Rc<LinkedFunction>),
    /// Leave the frame; its return value is on top of the operand stack.
    Ret,
    /// Suspend at the update point just executed.
    Suspend,
}

#[cold]
#[inline(never)]
fn type_confusion(expected: &str, found: Option<Value>) -> ! {
    panic!("verified code: expected {expected}, found {found:?}")
}

/// Pops an operand of the variant the verifier guarantees. Matching the
/// moved `Value` leaves nothing to drop for scalars and no reference-count
/// round trip for strings.
macro_rules! pop {
    ($stack:expr, $variant:ident) => {
        match $stack.pop() {
            Some(Value::$variant(x)) => x,
            v => type_confusion(stringify!($variant), v),
        }
    };
}

#[inline(always)]
fn top_int(stack: &mut [Value]) -> &mut i64 {
    match stack.last_mut() {
        Some(Value::Int(n)) => n,
        v => type_confusion("Int", v.cloned()),
    }
}

/// The record `r` in layout `sid`, converted first if it is in another.
/// Any field index the code uses is then in range: `tal::verify` bounds it
/// by the field count of the type it names, link resolved `sid` from that
/// name, and a record in layout `sid` has exactly that many fields
/// (`NewRecord`, a remap, or a snapshot checked by `BindingSnapshot::fits`).
#[inline(always)]
fn record_in<'a>(proc: &mut Process, r: &'a Value, sid: StructId) -> Result<&'a RecordObj, Trap> {
    match r {
        Value::Record(rec) if rec.struct_id.get() == sid => Ok(rec),
        Value::Record(rec) => proc.migrate(rec, sid).map(|()| &**rec),
        Value::Null => Err(Trap::NullDeref),
        v => panic!("verified code accessed a field of {v:?}"),
    }
}

/// Element `i` of the array `a`, borrowed in place.
#[inline(always)]
fn array_elem(a: &Value, i: i64) -> Result<Ref<'_, Value>, Trap> {
    let Value::Array(a) = a else {
        panic!("verified code indexed {a:?}")
    };
    Ref::filter_map(a.borrow(), |a| {
        usize::try_from(i).ok().and_then(|i| a.get(i))
    })
    .map_err(|a| Trap::IndexOutOfBounds {
        index: i,
        len: a.len(),
    })
}

#[inline(always)]
fn array_len(a: &Value) -> Value {
    let Value::Array(a) = a else {
        panic!("verified code measured {a:?}")
    };
    Value::Int(a.borrow().len() as i64)
}

/// Runs `st` to completion (or suspension) against `proc`.
///
/// `honor_updates` gates whether `update.point` instructions can suspend;
/// state transformers and host-driven helper calls run with it off.
pub(crate) fn exec(
    proc: &mut Process,
    st: &mut ExecState,
    honor_updates: bool,
) -> Result<Outcome, Trap> {
    // Nothing can rebind while `&mut Process` is held here, so the bind
    // generation is fixed for the whole run (0 = caching disabled, which
    // no real generation ever equals).
    let generation = if proc.inline_caching() {
        proc.bind_generation()
    } else {
        0
    };
    // An armed profiler mirrors the guest stack; re-entering execution
    // (fresh call, resume, host-driven helper) re-seeds the mirror from
    // the real frames so charged stacks stay truthful.
    if let Some(p) = proc.profiler.as_deref_mut() {
        p.resync(&st.frame_functions(), proc.stats.instrs);
    }
    loop {
        let ExecState {
            frames, host_args, ..
        } = &mut *st;
        let frame = frames.last_mut().expect("at least one frame");
        match run_frame(proc, frame, host_args, generation, honor_updates)? {
            Transfer::Call(callee) => push_call(proc, st, callee)?,
            Transfer::Ret => {
                let mut frame = st.frames.pop().expect("frame");
                let ret = frame.stack.pop().expect("verified: return value");
                if let Some(p) = proc.profiler.as_deref_mut() {
                    p.on_ret(proc.stats.instrs);
                }
                // Recycle the frame's buffers for future calls.
                if st.pool.len() < 64 {
                    frame.locals.clear();
                    frame.stack.clear();
                    st.pool.push((frame.locals, frame.stack));
                }
                match st.frames.last_mut() {
                    Some(caller) => caller.stack.push(ret),
                    None => return Ok(Outcome::Done(ret)),
                }
            }
            Transfer::Suspend => {
                if let Some(p) = proc.profiler.as_deref_mut() {
                    p.on_suspend(proc.stats.instrs);
                }
                return Ok(Outcome::Suspended);
            }
        }
    }
}

/// The dispatch loop: runs `frame` until it calls, returns, suspends or
/// traps. The instruction counter and `pc` live in locals while it runs;
/// every way out stores them back first.
#[inline(never)]
#[allow(clippy::too_many_lines)]
fn run_frame(
    proc: &mut Process,
    frame: &mut Frame,
    host_args: &mut Vec<Value>,
    generation: u64,
    honor_updates: bool,
) -> Result<Transfer, Trap> {
    let Frame {
        func,
        pc: frame_pc,
        locals,
        stack,
    } = frame;
    let code = func.decoded.as_slice();
    // The instruction pointer is the tail of `code` still to run: fetching
    // is `next()`, and the one bounds check left is on taken branches.
    let mut ip = code[*frame_pc..].iter();
    let mut instrs = proc.stats.instrs;
    let fuel = proc.fuel_limit();
    let exit: Result<Transfer, Trap> = 'run: loop {
        // Index of the next instruction.
        macro_rules! pc {
            () => {
                code.len() - ip.len()
            };
        }
        macro_rules! trap {
            ($t:expr) => {
                break 'run Err($t)
            };
        }
        macro_rules! tri {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(t) => trap!(t),
                }
            };
        }
        // `Vec::push` carries its argument across the capacity check in a
        // stack temporary, written field by field and read back as one
        // wide load: a store-forwarding stall on every push. Extending
        // by a lazy one-shot iterator reserves first and then builds the
        // value straight into its slot.
        macro_rules! push {
            ($v:expr) => {
                stack.extend(std::iter::once_with(|| $v))
            };
        }
        // Integers — what loops are made of — are tested first: one
        // predictable branch instead of `Clone`'s jump table.
        macro_rules! push_clone {
            ($v:expr) => {
                match $v {
                    Value::Int(n) => push!(Value::Int(*n)),
                    v => push!(v.clone()),
                }
            };
        }
        // Integer arithmetic rewrites the left operand where it lies.
        macro_rules! int_binop {
            ($f:expr) => {{
                let b = pop!(stack, Int);
                let a = top_int(stack);
                *a = $f(*a, b);
            }};
        }

        let op = ip.next().expect("verified code ends in a return");
        instrs += 1;
        if instrs >= fuel {
            trap!(Trap::OutOfFuel);
        }
        match op {
            // ------------------------------------ calls and frame exits
            DOp::CallDirect(id) => break 'run Ok(Transfer::Call(Rc::clone(proc.function(*id)))),
            DOp::CallSlot(ic) => {
                let callee = resolve_slot_call(proc, ic, generation, &func.name, pc!() - 1);
                break 'run callee.map(Transfer::Call);
            }
            DOp::LoadLocalCallDirect(n, id) => {
                push_clone!(&locals[*n as usize]);
                break 'run Ok(Transfer::Call(Rc::clone(proc.function(*id))));
            }
            DOp::LoadLocalCallSlot(n, ic) => {
                let callee = resolve_slot_call(proc, ic, generation, &func.name, pc!() - 1);
                push_clone!(&locals[*n as usize]);
                break 'run callee.map(Transfer::Call);
            }
            DOp::CallIndirect => {
                let fnref = pop!(stack, Fn);
                let id = tri!(proc.deref_fn(fnref));
                if matches!(fnref, FnRef::Slot(_)) {
                    proc.stats.slot_calls += 1;
                }
                break 'run Ok(Transfer::Call(Rc::clone(proc.function(id))));
            }
            DOp::Ret => break 'run Ok(Transfer::Ret),
            DOp::UpdatePoint => {
                proc.stats.update_points += 1;
                if honor_updates && proc.update_requested() {
                    break 'run Ok(Transfer::Suspend);
                }
            }
            DOp::CallHost(id, argc) => {
                // Host arguments marshal through a reusable scratch
                // buffer: the host-call path allocates no more than the
                // frame-pooled guest-call path does.
                let at = stack.len() - *argc as usize;
                host_args.clear();
                host_args.extend(stack.drain(at..));
                proc.stats.host_calls += 1;
                *frame_pc = pc!();
                proc.stats.instrs = instrs;
                let ret = tri!((proc.hosts[id.0 as usize].func)(host_args));
                host_args.clear();
                push!(ret);
            }

            // ------------------------------------------ superinstructions
            DOp::CmpConstBranch(c, k, t) => {
                if !c.eval(pop!(stack, Int), *k) {
                    ip = code[*t as usize..].iter();
                }
            }
            DOp::CmpBranch(c, t) => {
                let b = pop!(stack, Int);
                let a = pop!(stack, Int);
                if !c.eval(a, b) {
                    ip = code[*t as usize..].iter();
                }
            }
            DOp::AddConst(k) => {
                let a = top_int(stack);
                *a = a.wrapping_add(*k);
            }
            DOp::SubConst(k) => {
                let a = top_int(stack);
                *a = a.wrapping_sub(*k);
            }
            DOp::MulConst(k) => {
                let a = top_int(stack);
                *a = a.wrapping_mul(*k);
            }
            DOp::CmpConst(c, k) => {
                let a = pop!(stack, Int);
                push!(Value::Bool(c.eval(a, *k)));
            }
            DOp::LoadLocal2(n, m) => {
                push_clone!(&locals[*n as usize]);
                push_clone!(&locals[*m as usize]);
            }
            DOp::LocalGetField(r, sid, f) => {
                let rec = tri!(record_in(proc, &locals[*r as usize], *sid));
                push!(rec.fields.borrow()[*f as usize].clone());
            }
            DOp::LocalArrayGet(a, i) => {
                let i = locals[*i as usize].as_int();
                let v = tri!(array_elem(&locals[*a as usize], i));
                push!(Value::clone(&v));
            }
            DOp::GlobalArrayGet(id, i) => {
                let i = locals[*i as usize].as_int();
                let v = tri!(array_elem(&proc.global_cell(*id).value, i));
                push!(Value::clone(&v));
            }
            DOp::LocalArrayLen(a) => push!(array_len(&locals[*a as usize])),

            // ---------------------------------------------------- the rest
            DOp::PushUnit => push!(Value::Unit),
            DOp::PushInt(n) => push!(Value::Int(*n)),
            DOp::PushBool(b) => push!(Value::Bool(*b)),
            DOp::PushStr(s) => push!(Value::Str(Rc::clone(s))),
            DOp::PushNull => push!(Value::Null),
            DOp::PushFnDirect(id) => push!(Value::Fn(FnRef::Direct(*id))),
            DOp::PushFnSlot(slot) => push!(Value::Fn(FnRef::Slot(*slot))),
            DOp::LoadLocal(n) => push_clone!(&locals[*n as usize]),
            DOp::StoreLocal(n) => match (stack.last(), &mut locals[*n as usize]) {
                (Some(Value::Int(_)), Value::Int(slot)) => *slot = pop!(stack, Int),
                (_, slot) => *slot = stack.pop().expect("verified"),
            },
            DOp::LoadGlobal(id) => push!(proc.global_cell(*id).value.clone()),
            DOp::StoreGlobal(id) => {
                proc.global_cell_mut(*id).value = stack.pop().expect("verified");
            }
            DOp::Dup => {
                let v = stack.last().expect("verified").clone();
                push!(v);
            }
            DOp::Pop => {
                stack.pop().expect("verified");
            }
            DOp::Swap => {
                let n = stack.len();
                stack.swap(n - 1, n - 2);
            }
            DOp::Add => int_binop!(i64::wrapping_add),
            DOp::Sub => int_binop!(i64::wrapping_sub),
            DOp::Mul => int_binop!(i64::wrapping_mul),
            DOp::Div | DOp::Rem if matches!(stack.last(), Some(Value::Int(0))) => {
                trap!(Trap::DivByZero);
            }
            DOp::Div => int_binop!(i64::wrapping_div),
            DOp::Rem => int_binop!(i64::wrapping_rem),
            DOp::Neg => {
                let a = top_int(stack);
                *a = a.wrapping_neg();
            }
            DOp::IntCmp(c) => {
                let b = pop!(stack, Int);
                let a = pop!(stack, Int);
                push!(Value::Bool(c.eval(a, b)));
            }
            DOp::And => {
                let b = pop!(stack, Bool);
                let a = pop!(stack, Bool);
                push!(Value::Bool(a && b));
            }
            DOp::Or => {
                let b = pop!(stack, Bool);
                let a = pop!(stack, Bool);
                push!(Value::Bool(a || b));
            }
            DOp::Not => {
                let a = pop!(stack, Bool);
                push!(Value::Bool(!a));
            }
            DOp::Concat => {
                let b = pop!(stack, Str);
                let a = pop!(stack, Str);
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(&a);
                s.push_str(&b);
                push!(Value::str(s));
            }
            DOp::StrLen => {
                let s = pop!(stack, Str);
                push!(Value::Int(s.len() as i64));
            }
            DOp::Substr => {
                let len = pop!(stack, Int);
                let start = pop!(stack, Int);
                let s = pop!(stack, Str);
                let start = start.clamp(0, s.len() as i64) as usize;
                let end = (start as i64)
                    .saturating_add(len.max(0))
                    .clamp(start as i64, s.len() as i64) as usize;
                // Clamp to char boundaries to keep the operation total on UTF-8.
                let start = floor_char_boundary(&s, start);
                let end = floor_char_boundary(&s, end);
                push!(Value::str(&s[start..end]));
            }
            DOp::CharAt => {
                let i = pop!(stack, Int);
                let s = pop!(stack, Str);
                if i < 0 || i as usize >= s.len() {
                    trap!(Trap::IndexOutOfBounds {
                        index: i,
                        len: s.len(),
                    });
                }
                push!(Value::Int(i64::from(s.as_bytes()[i as usize])));
            }
            DOp::StrEq => {
                let b = pop!(stack, Str);
                let a = pop!(stack, Str);
                push!(Value::Bool(a == b));
            }
            DOp::StrFind => {
                let needle = pop!(stack, Str);
                let hay = pop!(stack, Str);
                let pos = hay.find(&*needle).map_or(-1, |p| p as i64);
                push!(Value::Int(pos));
            }
            DOp::IntToStr => {
                let n = pop!(stack, Int);
                push!(Value::str(n.to_string()));
            }
            DOp::StrToInt => {
                let s = pop!(stack, Str);
                push!(Value::Int(atoi(&s)));
            }
            DOp::Jump(t) => ip = code[*t as usize..].iter(),
            DOp::JumpIfFalse(t) => {
                if !pop!(stack, Bool) {
                    ip = code[*t as usize..].iter();
                }
            }
            DOp::NewRecord(sid, n) => {
                let at = stack.len() - *n as usize;
                let fields = stack.split_off(at);
                push!(Value::record(*sid, fields));
            }
            DOp::GetField(sid, i) => {
                let r = stack.pop().expect("verified");
                let rec = tri!(record_in(proc, &r, *sid));
                push!(rec.fields.borrow()[*i as usize].clone());
            }
            DOp::SetField(sid, i) => {
                let v = stack.pop().expect("verified");
                let r = stack.pop().expect("verified");
                tri!(record_in(proc, &r, *sid)).fields.borrow_mut()[*i as usize] = v;
            }
            DOp::IsNull => {
                let r = stack.pop().expect("verified");
                push!(Value::Bool(matches!(r, Value::Null)));
            }
            DOp::NewArray => push!(Value::empty_array()),
            DOp::ArrayGet => {
                let i = pop!(stack, Int);
                let a = stack.pop().expect("verified");
                let v = tri!(array_elem(&a, i));
                push!(Value::clone(&v));
            }
            DOp::ArraySet => {
                let v = stack.pop().expect("verified");
                let i = pop!(stack, Int);
                let a = stack.pop().expect("verified");
                let Value::Array(a) = a else {
                    panic!("verified code indexed {a:?}")
                };
                let mut a = a.borrow_mut();
                if i < 0 || i as usize >= a.len() {
                    trap!(Trap::IndexOutOfBounds {
                        index: i,
                        len: a.len(),
                    });
                }
                a[i as usize] = v;
            }
            DOp::ArrayLen => {
                let a = stack.pop().expect("verified");
                push!(array_len(&a));
            }
            DOp::ArrayPush => {
                let v = stack.pop().expect("verified");
                let a = stack.pop().expect("verified");
                let Value::Array(a) = a else {
                    panic!("verified code pushed to {a:?}")
                };
                a.borrow_mut().push(v);
            }
            DOp::Nop => {}
            DOp::Unreachable => {
                trap!(Trap::Host("garbage-collected code executed".to_string()));
            }
        }
    };

    *frame_pc = code.len() - ip.len();
    proc.stats.instrs = instrs;
    exit
}

fn push_call(
    proc: &mut Process,
    st: &mut ExecState,
    callee: Rc<LinkedFunction>,
) -> Result<(), Trap> {
    if st.frames.len() >= proc.max_stack_depth {
        return Err(Trap::StackOverflow);
    }
    proc.stats.calls += 1;
    let (mut locals, stack) = match st.pool.pop() {
        Some(buffers) => {
            proc.stats.pool_hits += 1;
            buffers
        }
        None => {
            proc.stats.pool_misses += 1;
            <(Vec<Value>, Vec<Value>)>::default()
        }
    };
    if let Some(p) = proc.profiler.as_deref_mut() {
        p.on_call(proc.stats.instrs, &callee.name);
    }
    let caller = st.frames.last_mut().expect("frame");
    let at = caller.stack.len() - callee.param_count;
    locals.extend(caller.stack.drain(at..));
    // String locals share the process's one empty string rather than going
    // through `default_for`'s thread-local on every call.
    locals.extend(
        callee.locals[callee.param_count..]
            .iter()
            .map(|ty| match ty {
                Ty::Str => Value::Str(Rc::clone(proc.empty_str())),
                ty => Value::default_for(ty),
            }),
    );
    st.frames.push(Frame {
        func: callee,
        pc: 0,
        locals,
        stack,
    });
    Ok(())
}

/// Largest byte index `<= i` that is a UTF-8 character boundary of `s`.
fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    if i >= s.len() {
        return s.len();
    }
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// C-style `atoi`: optional sign, leading digits, `0` on no digits;
/// saturates on overflow.
fn atoi(s: &str) -> i64 {
    let s = s.trim_start();
    let (neg, rest) = match s.as_bytes().first() {
        Some(b'-') => (true, &s[1..]),
        Some(b'+') => (false, &s[1..]),
        _ => (false, s),
    };
    let mut n: i64 = 0;
    for b in rest.bytes().take_while(u8::is_ascii_digit) {
        n = n.saturating_mul(10).saturating_add(i64::from(b - b'0'));
    }
    if neg {
        -n
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoi_matches_c_semantics() {
        assert_eq!(atoi("42"), 42);
        assert_eq!(atoi("  -17"), -17);
        assert_eq!(atoi("+8"), 8);
        assert_eq!(atoi("12abc"), 12);
        assert_eq!(atoi("abc"), 0);
        assert_eq!(atoi(""), 0);
        assert_eq!(atoi("999999999999999999999999"), i64::MAX);
    }

    #[test]
    fn char_boundary_floor() {
        let s = "aé"; // 'é' occupies bytes 1..3
        assert_eq!(floor_char_boundary(s, 2), 1);
        assert_eq!(floor_char_boundary(s, 3), 3);
        assert_eq!(floor_char_boundary(s, 10), 3);
    }
}
