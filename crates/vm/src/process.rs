//! A running guest process: code store, indirection tables, globals, hosts.
//!
//! The [`Process`] is the unit the dynamic-update runtime operates on. Its
//! design mirrors the paper's updateable executables:
//!
//! * a **code store** of immutable linked functions (old versions persist,
//!   so frames already executing them finish under the old code);
//! * a **function indirection table** (GIT) of slots, one per referenced
//!   symbol name, through which all calls go under
//!   [`LinkMode::Updateable`] — rebinding a slot is how an update takes
//!   effect atomically;
//! * a **type registry** in which each registered [`TypeDef`] gets a fresh
//!   [`StructId`]; rebinding a type *name* to a new id is how a type is
//!   versioned without disturbing existing heap records;
//! * **global cells** whose value (and, across an update, type) can be
//!   swapped after state transformation;
//! * the **remaps** committed patches armed between layouts
//!   ([`crate::remap`]).
//!
//! Linking is two-phase on purpose: [`Process::link_functions`] installs
//! code and returns planned name bindings without publishing them, and
//! [`Process::bind_function`] flips a binding. The dynamic-update runtime
//! uses the split to make the *bind* step atomic and separately measurable.
//! The half of linking that depends on the module alone is a [`LinkPlan`],
//! which the runtime computes ahead of the update pause and hands to
//! [`Process::link_planned`].

use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tal::{FnSig, GlobalDef, Instr, Module, SymId, SymbolKind, Ty, TypeDef, TypeProvider};

use crate::decode::{self, DOp};
use crate::interp::{exec, ExecState, ExecStats, Frame, Outcome};
use crate::ops::Op;
use crate::profile::Profiler;
use crate::remap::{Remap, RemapTable};
use crate::trap::{LinkError, Trap};
use crate::value::{FnRef, FuncId, GlobalId, HostId, RecordObj, SlotId, StructId, Value};

/// How inter-procedural references are bound at link time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// Bind calls directly to code (a conventional executable; cannot be
    /// updated, used as the paper's baseline).
    Static,
    /// Bind calls through indirection-table slots (an updateable
    /// executable; slots can be re-pointed by a dynamic patch).
    Updateable,
}

/// A function linked into the code store.
#[derive(Debug)]
pub struct LinkedFunction {
    /// Program-wide symbol name.
    pub name: String,
    /// Version tag of the module this function came from.
    pub version: String,
    /// Declared signature.
    pub sig: FnSig,
    /// Number of parameters (prefix of `locals`).
    pub param_count: usize,
    /// All local slot types (parameters first).
    pub locals: Vec<Ty>,
    /// Resolved code (linker output; also what the code GC scans).
    pub code: Vec<Op>,
    /// Pre-decoded threaded form of `code` — operands extracted, hot
    /// pairs fused into superinstructions, slot-call sites carrying
    /// inline caches. This is what the interpreter dispatches over.
    pub decoded: Vec<DOp>,
    /// Names of symbols this function references (for update-safety
    /// analysis: "who calls f", "who touches type T"). Shared with the
    /// [`LinkPlan`] it was linked from.
    pub sym_refs: Arc<[String]>,
    /// Names of record types this function depends on.
    pub type_names: Arc<[String]>,
}

/// The part of linking a module that is a function of the module alone:
/// computed once — ahead of an update pause, on any thread — and handed
/// to [`Process::link_planned`] by every process that links the module.
#[derive(Debug, Clone)]
pub struct LinkPlan {
    /// Per function, in module order.
    refs: Vec<FnRefs>,
    /// Per symbol: the index of the module's own function a function
    /// symbol names, if it names one (the first, should names repeat).
    own_fns: Vec<Option<u32>>,
}

/// What one function mentions, as its [`LinkedFunction`] will carry it.
#[derive(Debug, Clone)]
struct FnRefs {
    sym_refs: Arc<[String]>,
    type_names: Arc<[String]>,
}

impl LinkPlan {
    /// Plans the linking of `m`.
    pub fn of(m: &Module) -> LinkPlan {
        LinkPlan {
            refs: m
                .functions
                .iter()
                .map(|f| FnRefs {
                    sym_refs: f
                        .referenced_symbols(m)
                        .into_iter()
                        .map(str::to_string)
                        .collect(),
                    type_names: f.referenced_types(m).into_iter().collect(),
                })
                .collect(),
            own_fns: m
                .symbols
                .iter()
                .map(|s| match s.kind {
                    SymbolKind::Fn(_) => m
                        .functions
                        .iter()
                        .position(|f| f.name == s.name)
                        .map(|k| k as u32),
                    _ => None,
                })
                .collect(),
        }
    }
}

/// Planned (but not yet published) name bindings returned by
/// [`Process::link_functions`].
pub type PlannedBindings = Vec<(String, FuncId)>;

/// Extra resolution context used when linking a *patch* module: type
/// names that should resolve to specific registered layouts (old-version
/// aliases and new versions).
#[derive(Debug, Default, Clone)]
pub struct LinkOverrides {
    /// Type name → registered layout to use.
    pub types: HashMap<String, StructId>,
}

/// What a module symbol resolved to in this process.
#[derive(Clone, Copy)]
enum Resolved {
    /// A function, called through its indirection slot (updateable mode).
    Slot(SlotId),
    /// A function, bound directly (static mode).
    Direct(FuncId),
    Global(GlobalId),
    /// A host function and its arity.
    Host(HostId, u16),
}

/// One link's resolution state. Each symbol, type reference and string
/// constant of the module is resolved against the process on first use
/// and answered from the memo afterwards: a call site costs an index, an
/// import is looked up and type-checked once however many sites name it,
/// and an unresolved name is still reported in the order code mentions it.
struct Resolver<'a> {
    m: &'a Module,
    types: &'a HashMap<String, StructId>,
    /// `(plan.own_fns, id of the module's first function)` when linking
    /// the module's functions, whose mutual references resolve to their
    /// planned ids; `None` for initialiser code, which runs after bind.
    own: Option<(&'a [Option<u32>], u32)>,
    syms: Vec<Option<Resolved>>,
    type_refs: Vec<Option<StructId>>,
    strings: Vec<Option<Rc<str>>>,
}

impl<'a> Resolver<'a> {
    fn new(
        m: &'a Module,
        ov: &'a LinkOverrides,
        own: Option<(&'a [Option<u32>], u32)>,
    ) -> Resolver<'a> {
        Resolver {
            m,
            types: &ov.types,
            own,
            syms: vec![None; m.symbols.len()],
            type_refs: vec![None; m.type_refs.len()],
            strings: vec![None; m.strings.len()],
        }
    }
}

/// A host (extern) function: the embedder's side of the guest's FFI.
///
/// `Send` so a process (and the closures wired into it) can be built and
/// driven inside a worker thread — the fleet serving layer boots one
/// process per worker.
pub type HostFn = Box<dyn FnMut(&[Value]) -> Result<Value, Trap> + Send>;

/// A host callback run whenever an [`UpdateSignal`] is armed (see
/// [`Process::set_update_wake`]).
pub type WakeFn = Box<dyn Fn() + Send>;

pub(crate) struct HostEntry {
    pub name: String,
    pub sig: FnSig,
    pub func: HostFn,
}

impl std::fmt::Debug for HostEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostEntry({}{})", self.name, self.sig)
    }
}

/// A global variable cell.
#[derive(Debug, Clone)]
pub struct GlobalCell {
    /// Symbol name.
    pub name: String,
    /// Current declared type (may change across an update).
    pub ty: Ty,
    /// Current value.
    pub value: Value,
}

/// A snapshot of all mutable bindings, sufficient to roll back an update.
#[derive(Debug, Clone)]
pub struct BindingSnapshot {
    pub(crate) fn_by_name: HashMap<String, FuncId>,
    pub(crate) slots: Vec<Option<FuncId>>,
    pub(crate) struct_by_name: HashMap<String, StructId>,
    pub(crate) globals: Vec<GlobalCell>,
}

impl BindingSnapshot {
    /// Checks that [`Process::restore`] can install this snapshot on
    /// `proc`: no more slots or global cells than the process has, every
    /// function id inside the code store, every slot id inside the slot
    /// table, every struct id registered, and every record holding as many
    /// fields as its layout declares. A snapshot the process took of
    /// itself always fits; one decoded from bytes need not.
    ///
    /// # Errors
    ///
    /// Describes the first table or id that is out of range.
    pub fn fits(&self, proc: &Process) -> Result<(), String> {
        let fits = |what: &str, id: u32, len: usize| {
            if (id as usize) < len {
                Ok(())
            } else {
                Err(format!("{what} {id} is outside the process's {len}"))
            }
        };
        if self.slots.len() > proc.slots.len() {
            let (n, have) = (self.slots.len(), proc.slots.len());
            return Err(format!("{n} slots, the process has {have}"));
        }
        if self.globals.len() > proc.globals.len() {
            let (n, have) = (self.globals.len(), proc.globals.len());
            return Err(format!("{n} globals, the process has {have}"));
        }
        let bound = self.fn_by_name.values().copied();
        for id in bound.chain(self.slots.iter().flatten().copied()) {
            fits("function", id.0, proc.functions.len())?;
        }
        for id in self.struct_by_name.values() {
            fits("struct", id.0, proc.structs.len())?;
        }
        // Guest values form a DAG (aliased arrays and records): each
        // shared object is walked once.
        let mut seen = HashSet::new();
        let mut stack: Vec<Value> = self.globals.iter().map(|g| g.value.clone()).collect();
        while let Some(v) = stack.pop() {
            match &v {
                Value::Fn(FnRef::Direct(id)) => fits("function", id.0, proc.functions.len())?,
                Value::Fn(FnRef::Slot(id)) => fits("slot", id.0, proc.slots.len())?,
                Value::Array(a) if seen.insert(Rc::as_ptr(a).cast::<()>()) => {
                    stack.extend(a.borrow().iter().cloned());
                }
                Value::Record(r) if seen.insert(Rc::as_ptr(r).cast::<()>()) => {
                    let sid = r.struct_id.get();
                    fits("struct", sid.0, proc.structs.len())?;
                    let (have, want) = (r.fields.borrow().len(), proc.struct_def(sid).fields.len());
                    if have != want {
                        return Err(format!(
                            "struct {} record has {have} of {want} fields",
                            sid.0
                        ));
                    }
                    stack.extend(r.fields.borrow().iter().cloned());
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A running guest process. Single-threaded (guest values are `Rc`-based);
/// the paper's updateable programs are likewise single-threaded event loops.
#[derive(Debug)]
pub struct Process {
    mode: LinkMode,
    functions: Vec<Rc<LinkedFunction>>,
    fn_by_name: HashMap<String, FuncId>,
    slots: Vec<Option<FuncId>>,
    slot_by_name: HashMap<String, SlotId>,
    slot_names: Vec<String>,
    /// Every registered layout, by `StructId`; the *current* binding of
    /// each name lives in `struct_by_name`.
    structs: Vec<TypeDef>,
    struct_by_name: HashMap<String, StructId>,
    /// Layout conversions armed by committed patches (append-only, and
    /// deliberately outside [`BindingSnapshot`]).
    remaps: RemapTable,
    globals: Vec<GlobalCell>,
    global_by_name: HashMap<String, GlobalId>,
    pub(crate) hosts: Vec<HostEntry>,
    host_by_name: HashMap<String, HostId>,
    update_signal: UpdateSignal,
    suspended: Option<ExecState>,
    /// Monotonically increasing generation bumped by every bind, unbind
    /// and rollback; inline caches validate against it, so one bump
    /// invalidates every warm call site in the program at once.
    bind_generation: u64,
    /// Whether slot-call sites may answer from their inline caches.
    /// Disabled by the benchmark harness to measure the cold per-call
    /// table-lookup path.
    icache: bool,
    /// Cumulative execution statistics.
    pub stats: ExecStats,
    /// Maximum guest call-stack depth before a [`Trap::StackOverflow`].
    pub max_stack_depth: usize,
    /// Cumulative instruction count at which execution traps with
    /// [`Trap::OutOfFuel`]; `u64::MAX` = unlimited.
    fuel_limit: u64,
    /// Opt-in hot-path profiler (`None` = disarmed, the default; the
    /// interpreter pays one pointer-null check per call/return edge).
    pub(crate) profiler: Option<Box<Profiler>>,
    /// The empty string every string-typed local of a new frame starts as.
    empty_str: Rc<str>,
}

impl Process {
    /// Creates an empty process with the given link mode.
    pub fn new(mode: LinkMode) -> Process {
        Process {
            mode,
            functions: Vec::new(),
            fn_by_name: HashMap::new(),
            slots: Vec::new(),
            slot_by_name: HashMap::new(),
            slot_names: Vec::new(),
            structs: Vec::new(),
            struct_by_name: HashMap::new(),
            remaps: RemapTable::default(),
            globals: Vec::new(),
            global_by_name: HashMap::new(),
            hosts: Vec::new(),
            host_by_name: HashMap::new(),
            update_signal: UpdateSignal {
                requested: Arc::new(AtomicBool::new(false)),
                wake: Arc::default(),
            },
            suspended: None,
            bind_generation: 1,
            icache: true,
            stats: ExecStats::default(),
            max_stack_depth: 10_000,
            fuel_limit: u64::MAX,
            profiler: None,
            empty_str: Rc::from(""),
        }
    }

    /// Arms (or disarms) the per-function hot-path profiler. Arming
    /// starts a fresh profile; disarming discards it. See
    /// [`crate::profile::Profiler`] for what is collected.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler = on.then(|| Box::new(Profiler::new()));
    }

    /// Whether the hot-path profiler is armed.
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// The armed profiler's accumulated state, if any.
    pub fn profile(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// Collapsed-stack export of the armed profiler (`a;b;c <ops>` lines;
    /// see [`Profiler::collapsed`]). `None` when profiling is off.
    pub fn profile_collapsed(&self) -> Option<String> {
        self.profiler.as_deref().map(Profiler::collapsed)
    }

    /// Human-readable profile report ([`Profiler::report`]). `None` when
    /// profiling is off.
    pub fn profile_report(&self) -> Option<String> {
        self.profiler.as_deref().map(Profiler::report)
    }

    /// The link mode this process was created with.
    pub fn mode(&self) -> LinkMode {
        self.mode
    }

    /// Limits execution to `budget` further instructions (cumulative
    /// across runs from this point); exceeding it traps with
    /// [`Trap::OutOfFuel`]. `None` removes the limit. Runaway-loop
    /// protection for host-driven guests.
    pub fn set_fuel(&mut self, budget: Option<u64>) {
        self.fuel_limit = match budget {
            Some(b) => self.stats.instrs.saturating_add(b),
            None => u64::MAX,
        };
    }

    pub(crate) fn fuel_limit(&self) -> u64 {
        self.fuel_limit
    }

    pub(crate) fn empty_str(&self) -> &Rc<str> {
        &self.empty_str
    }

    // ---------------------------------------------------------------- hosts

    /// Registers a host (extern) function the guest can call.
    ///
    /// Re-registering a name replaces the implementation (the signature must
    /// match), which lets tests stub the environment.
    pub fn register_host(&mut self, name: impl Into<String>, sig: FnSig, func: HostFn) {
        let name = name.into();
        if let Some(&id) = self.host_by_name.get(&name) {
            let entry = &mut self.hosts[id.0 as usize];
            assert_eq!(
                entry.sig, sig,
                "host `{name}` re-registered with a different signature"
            );
            entry.func = func;
            return;
        }
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(HostEntry {
            name: name.clone(),
            sig,
            func,
        });
        self.host_by_name.insert(name, id);
    }

    /// Iterates over registered host functions (name, signature).
    pub fn host_sigs(&self) -> impl Iterator<Item = (&str, &FnSig)> {
        self.hosts.iter().map(|h| (h.name.as_str(), &h.sig))
    }

    // ---------------------------------------------------------------- types

    /// Registers a record layout, returning its fresh identity. Does *not*
    /// bind the type name; see [`Process::bind_type_name`].
    pub fn register_struct(&mut self, def: TypeDef) -> StructId {
        let id = StructId(self.structs.len() as u32);
        self.structs.push(def);
        id
    }

    /// Binds (or rebinds) a type name to a registered layout.
    pub fn bind_type_name(&mut self, name: impl Into<String>, id: StructId) {
        self.struct_by_name.insert(name.into(), id);
    }

    /// Current layout bound to a type name.
    pub fn struct_id(&self, name: &str) -> Option<StructId> {
        self.struct_by_name.get(name).copied()
    }

    /// Definition of a registered layout.
    ///
    /// # Panics
    /// Panics when `id` was not returned by this process.
    pub fn struct_def(&self, id: StructId) -> &TypeDef {
        &self.structs[id.0 as usize]
    }

    /// Arms the remaps between layouts `from` and `to`, both ways
    /// ([`Remap::derive_both`]); records then convert on first touch.
    ///
    /// # Errors
    /// Names the field that makes either direction non-mechanical; nothing
    /// is armed then.
    ///
    /// # Panics
    /// Panics when either id was not returned by this process.
    pub fn arm_remap(&mut self, from: StructId, to: StructId) -> Result<(), String> {
        let (forward, backward) = Remap::derive_both(self.struct_def(from), self.struct_def(to))?;
        self.remaps.arm(from, to, forward);
        self.remaps.arm(to, from, backward);
        Ok(())
    }

    /// Converts `rec` to layout `to` along the armed remaps: the cold half
    /// of every field access whose layouts differ.
    #[cold]
    #[inline(never)]
    pub(crate) fn migrate(&mut self, rec: &RecordObj, to: StructId) -> Result<(), Trap> {
        self.remaps.migrate(rec, to)?;
        self.stats.records_migrated += 1;
        Ok(())
    }

    /// Iterates over the current type-name bindings.
    pub fn type_bindings(&self) -> impl Iterator<Item = (&str, StructId)> {
        self.struct_by_name.iter().map(|(n, id)| (n.as_str(), *id))
    }

    // -------------------------------------------------------------- globals

    /// Adds a new global cell.
    ///
    /// # Errors
    /// Fails with [`LinkError::Duplicate`] when the name already exists.
    pub fn add_global(
        &mut self,
        name: impl Into<String>,
        ty: Ty,
        value: Value,
    ) -> Result<GlobalId, LinkError> {
        let name = name.into();
        if self.global_by_name.contains_key(&name) {
            return Err(LinkError::Duplicate(name));
        }
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(GlobalCell {
            name: name.clone(),
            ty,
            value,
        });
        self.global_by_name.insert(name, id);
        Ok(id)
    }

    /// Current value of a global.
    pub fn global_value(&self, name: &str) -> Option<Value> {
        self.global_by_name
            .get(name)
            .map(|id| self.globals[id.0 as usize].value.clone())
    }

    /// Current declared type of a global.
    pub fn global_type(&self, name: &str) -> Option<&Ty> {
        self.global_by_name
            .get(name)
            .map(|id| &self.globals[id.0 as usize].ty)
    }

    /// Overwrites a global's value (type unchanged). Returns `false` when
    /// the global does not exist.
    pub fn set_global(&mut self, name: &str, value: Value) -> bool {
        match self.global_by_name.get(name) {
            Some(id) => {
                self.globals[id.0 as usize].value = value;
                true
            }
            None => false,
        }
    }

    /// Iterates over all global cells.
    pub fn globals(&self) -> impl Iterator<Item = &GlobalCell> {
        self.globals.iter()
    }

    pub(crate) fn global_cell(&self, id: GlobalId) -> &GlobalCell {
        &self.globals[id.0 as usize]
    }

    pub(crate) fn global_cell_mut(&mut self, id: GlobalId) -> &mut GlobalCell {
        &mut self.globals[id.0 as usize]
    }

    /// Total approximate heap footprint of all global state, in bytes
    /// (memory-usage experiment).
    pub fn heap_size(&self) -> usize {
        self.globals.iter().map(|g| g.value.deep_size()).sum()
    }

    // ------------------------------------------------------------ functions

    /// Currently bound target of a function name.
    pub fn function_id(&self, name: &str) -> Option<FuncId> {
        self.fn_by_name.get(name).copied()
    }

    /// The linked function at `id`.
    ///
    /// # Panics
    /// Panics when `id` was not returned by this process.
    pub fn function(&self, id: FuncId) -> &Rc<LinkedFunction> {
        &self.functions[id.0 as usize]
    }

    /// Signature of the currently bound function `name`.
    pub fn function_sig(&self, name: &str) -> Option<&FnSig> {
        self.function_id(name)
            .map(|id| &self.functions[id.0 as usize].sig)
    }

    /// Iterates over the *live* interface: every currently bound function.
    pub fn bound_functions(&self) -> impl Iterator<Item = (&str, &Rc<LinkedFunction>)> {
        self.fn_by_name
            .iter()
            .map(|(n, id)| (n.as_str(), &self.functions[id.0 as usize]))
    }

    /// Number of functions ever linked (old versions included).
    pub fn code_store_len(&self) -> usize {
        self.functions.len()
    }

    /// Publishes a name binding: future symbolic calls to `name` reach
    /// `id`. Under updateable linking this re-points the GIT slot, which is
    /// the atomic switch of a dynamic update.
    pub fn bind_function(&mut self, name: &str, id: FuncId) {
        self.bind_generation += 1;
        self.fn_by_name.insert(name.to_string(), id);
        if let Some(&slot) = self.slot_by_name.get(name) {
            self.slots[slot.0 as usize] = Some(id);
        } else if self.mode == LinkMode::Updateable {
            // Create the slot eagerly so later patches can link against it.
            let slot = self.ensure_slot(name);
            self.slots[slot.0 as usize] = Some(id);
        }
    }

    /// Removes a name binding (function deletion in a patch). The code
    /// itself stays in the store for frames still executing it; the GIT
    /// slot, if any, becomes unbound and future calls through it trap.
    pub fn unbind_function(&mut self, name: &str) {
        self.bind_generation += 1;
        self.fn_by_name.remove(name);
        if let Some(&slot) = self.slot_by_name.get(name) {
            self.slots[slot.0 as usize] = None;
        }
    }

    fn ensure_slot(&mut self, name: &str) -> SlotId {
        if let Some(&s) = self.slot_by_name.get(name) {
            return s;
        }
        let id = SlotId(self.slots.len() as u32);
        self.slots.push(self.fn_by_name.get(name).copied());
        self.slot_by_name.insert(name.to_string(), id);
        self.slot_names.push(name.to_string());
        id
    }

    pub(crate) fn slot_target(&self, slot: SlotId) -> Option<FuncId> {
        self.slots[slot.0 as usize]
    }

    pub(crate) fn slot_name(&self, slot: SlotId) -> &str {
        &self.slot_names[slot.0 as usize]
    }

    /// Number of indirection-table slots (updateable mode metadata size).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Current bind generation. Bumped by every [`Process::bind_function`],
    /// [`Process::unbind_function`] and [`Process::restore`] — including
    /// those performed inside the seven-phase update pipeline — so an
    /// inline cache stamped with an older generation is stale by
    /// definition.
    pub fn bind_generation(&self) -> u64 {
        self.bind_generation
    }

    /// Enables or disables inline caching at slot-call sites. Disabling
    /// forces every updateable call back through the indirection table —
    /// the benchmarks' "updateable-cold" variant, equivalent to the
    /// pre-cache dispatch cost. Toggling bumps the generation so stale
    /// entries cannot be resurrected.
    pub fn set_inline_caching(&mut self, on: bool) {
        self.icache = on;
        self.bind_generation += 1;
    }

    pub(crate) fn inline_caching(&self) -> bool {
        self.icache
    }

    // ----------------------------------------------------------- code GC

    /// Garbage-collects the code store: function versions superseded by
    /// updates that are no longer reachable — not bound to any name, not
    /// the target of any indirection slot, not on the suspended stack, not
    /// called directly by retained code, and not held as a function value
    /// anywhere in global state — are replaced by trapping tombstones and
    /// their code freed. (The paper's linker likewise retains old code
    /// only while frames may still run it.)
    ///
    /// Snapshots taken *before* a collection may refer to collected code;
    /// restoring one afterwards can leave bindings that trap. Take fresh
    /// snapshots after collecting.
    ///
    /// Returns `(collected, retained)` counts.
    pub fn collect_code(&mut self) -> (usize, usize) {
        let mut live = vec![false; self.functions.len()];
        let mut work: Vec<FuncId> = Vec::new();
        for id in self.fn_by_name.values() {
            work.push(*id);
        }
        for slot in self.slots.iter().flatten() {
            work.push(*slot);
        }
        for cell in &self.globals {
            cell.value.for_each_fnref(&mut |r| {
                if let FnRef::Direct(id) = r {
                    work.push(id);
                }
            });
        }
        // Suspended frames also hold function *values* in locals/stacks;
        // conservatively scan them.
        if let Some(st) = &self.suspended {
            for f in st.frame_codes() {
                if let Some(idx) = self.functions.iter().position(|g| Rc::ptr_eq(g, &f)) {
                    work.push(FuncId(idx as u32));
                }
            }
            for v in st.frame_values() {
                v.for_each_fnref(&mut |r| {
                    if let FnRef::Direct(id) = r {
                        work.push(id);
                    }
                });
            }
        }
        // Transitive closure over direct call/function-value targets.
        while let Some(id) = work.pop() {
            let idx = id.0 as usize;
            if live[idx] {
                continue;
            }
            live[idx] = true;
            for op in &self.functions[idx].code {
                match op {
                    crate::ops::Op::CallDirect(t) | crate::ops::Op::PushFnDirect(t)
                        if !live[t.0 as usize] =>
                    {
                        work.push(*t);
                    }
                    _ => {}
                }
            }
        }
        // A warm cache whose target is about to be tombstoned must
        // re-resolve rather than dispatch into the tombstone; flush every
        // cache and bump the generation (belt and braces — a reachable
        // target cannot be collected, but snapshots restored across a
        // collection can resurrect stale bindings). Live sites simply
        // re-resolve (one miss).
        self.bind_generation += 1;
        for f in &self.functions {
            decode::flush_caches(&f.decoded);
        }
        let mut collected = 0;
        for (idx, is_live) in live.iter().enumerate() {
            if *is_live
                || self.functions[idx]
                    .code
                    .first()
                    .is_none_or(|op| matches!(op, crate::ops::Op::Unreachable))
            {
                continue;
            }
            let code = vec![crate::ops::Op::Unreachable];
            let decoded = decode::lower(&code);
            self.functions[idx] = Rc::new(LinkedFunction {
                name: format!("<collected {}>", self.functions[idx].name),
                version: self.functions[idx].version.clone(),
                sig: self.functions[idx].sig.clone(),
                param_count: self.functions[idx].param_count,
                locals: Vec::new(),
                code,
                decoded,
                sym_refs: Arc::default(),
                type_names: Arc::default(),
            });
            collected += 1;
        }
        (collected, self.functions.len() - collected)
    }

    // ------------------------------------------------------------- snapshot

    /// Captures all mutable bindings, for rollback.
    pub fn snapshot(&self) -> BindingSnapshot {
        BindingSnapshot {
            fn_by_name: self.fn_by_name.clone(),
            slots: self.slots.clone(),
            struct_by_name: self.struct_by_name.clone(),
            globals: self.globals.clone(),
        }
    }

    /// Restores bindings captured by [`Process::snapshot`]. Code, type
    /// registrations and global cells added since remain in the stores
    /// (unreachable by name), exactly like aborted patches in the paper's
    /// linker.
    ///
    /// # Panics
    /// Panics if the snapshot holds more slots or global cells than this
    /// process: it does not [`BindingSnapshot::fits`]. A process's own
    /// snapshots always do (its tables only grow), and a snapshot decoded
    /// from bytes is checked where it is loaded.
    pub fn restore(&mut self, snap: BindingSnapshot) {
        self.bind_generation += 1;
        self.fn_by_name = snap.fn_by_name;
        for (i, v) in snap.slots.iter().enumerate() {
            self.slots[i] = *v;
        }
        // Slots created after the snapshot point at patch code; unbind them.
        for i in snap.slots.len()..self.slots.len() {
            self.slots[i] = None;
        }
        self.struct_by_name = snap.struct_by_name;
        for (i, cell) in snap.globals.iter().enumerate() {
            self.globals[i] = cell.clone();
        }
        // Globals added after the snapshot keep their cells (frames finishing
        // under the newer code may still index them) but lose their names, so
        // a later patch can introduce them again.
        for cell in &self.globals[snap.globals.len()..] {
            self.global_by_name.remove(&cell.name);
        }
    }

    // -------------------------------------------------------------- linking

    /// Verifies and loads a complete module into an empty-ish process: the
    /// initial program image. Types, globals and functions must all be new.
    ///
    /// # Errors
    /// Fails when verification fails, a name clashes with an existing
    /// definition, or a global initialiser traps.
    pub fn load_module(&mut self, m: &Module) -> Result<(), LinkError> {
        tal::verify_module(m, &ProcessTypes(self))?;
        // Types first (functions and globals may mention them).
        for def in &m.types {
            match self.struct_id(&def.name) {
                Some(existing) if self.struct_def(existing).same_structure(def) => {}
                Some(_) => return Err(LinkError::TypeConflict(def.name.clone())),
                None => {
                    let id = self.register_struct(def.clone());
                    self.bind_type_name(def.name.clone(), id);
                }
            }
        }
        for f in &m.functions {
            if self.fn_by_name.contains_key(&f.name) {
                return Err(LinkError::Duplicate(f.name.clone()));
            }
        }
        // Global cells exist (with defaults) before function linking so
        // code referencing them resolves; initialisers run after binding.
        for g in &m.globals {
            self.add_global(g.name.clone(), g.ty.clone(), Value::default_for(&g.ty))?;
        }
        let planned = self.link_functions(m, &LinkOverrides::default())?;
        for (name, id) in planned {
            self.bind_function(&name, id);
        }
        for g in &m.globals {
            let v = self
                .eval_init(m, g, &LinkOverrides::default())
                .map_err(|trap| LinkError::InitTrap {
                    name: g.name.clone(),
                    trap,
                })?;
            self.set_global(&g.name, v);
        }
        Ok(())
    }

    /// Links every function of `m` into the code store and returns the
    /// planned `(name, FuncId)` bindings **without publishing them**.
    ///
    /// Mutual references among `m`'s own functions resolve to the planned
    /// ids; other references resolve against the process's current bindings
    /// (or `overrides`). The update runtime publishes the bindings later via
    /// [`Process::bind_function`] — that separation is what makes the bind
    /// step of an update atomic.
    ///
    /// # Errors
    /// Fails when a symbol is unresolved or resolves at a different type.
    pub fn link_functions(
        &mut self,
        m: &Module,
        overrides: &LinkOverrides,
    ) -> Result<PlannedBindings, LinkError> {
        self.link_planned(m, &LinkPlan::of(m), overrides)
    }

    /// [`Process::link_functions`] with the module-only half of the work
    /// done ahead of time: `plan` must be [`LinkPlan::of`] this `m`.
    ///
    /// # Errors
    /// Fails when a symbol is unresolved or resolves at a different type.
    ///
    /// # Panics
    /// Panics when `plan` was not computed from a module of `m`'s shape.
    pub fn link_planned(
        &mut self,
        m: &Module,
        plan: &LinkPlan,
        overrides: &LinkOverrides,
    ) -> Result<PlannedBindings, LinkError> {
        assert!(
            plan.refs.len() == m.functions.len() && plan.own_fns.len() == m.symbols.len(),
            "link plan does not belong to module `{}`",
            m.name
        );
        let base = self.functions.len() as u32;
        let mut r = Resolver::new(m, overrides, Some((&plan.own_fns, base)));
        let mut planned = Vec::with_capacity(m.functions.len());
        for (i, (f, refs)) in m.functions.iter().zip(&plan.refs).enumerate() {
            let code = self.resolve_code(&mut r, &f.code)?;
            let decoded = decode::lower(&code);
            self.functions.push(Rc::new(LinkedFunction {
                name: f.name.clone(),
                version: m.version.clone(),
                sig: f.sig.clone(),
                param_count: f.sig.params.len(),
                locals: f.locals.clone(),
                code,
                decoded,
                sym_refs: Arc::clone(&refs.sym_refs),
                type_names: Arc::clone(&refs.type_names),
            }));
            planned.push((f.name.clone(), FuncId(base + i as u32)));
        }
        Ok(planned)
    }

    /// Links and evaluates a global initialiser, returning the value.
    ///
    /// # Errors
    /// Returns the trap raised by the initialiser, or a resolution trap.
    pub fn eval_init(
        &mut self,
        m: &Module,
        g: &GlobalDef,
        overrides: &LinkOverrides,
    ) -> Result<Value, Trap> {
        let code = self
            .resolve_code(&mut Resolver::new(m, overrides, None), &g.init)
            .map_err(|e| Trap::Host(e.to_string()))?;
        let decoded = decode::lower(&code);
        let f = Rc::new(LinkedFunction {
            name: format!("<init {}>", g.name),
            version: m.version.clone(),
            sig: FnSig::new(vec![], g.ty.clone()),
            param_count: 0,
            locals: Vec::new(),
            code,
            decoded,
            sym_refs: Arc::default(),
            type_names: Arc::default(),
        });
        self.call_linked(&f, Vec::new())
    }

    fn resolve_code(&mut self, r: &mut Resolver<'_>, code: &[Instr]) -> Result<Vec<Op>, LinkError> {
        let mut out = Vec::with_capacity(code.len());
        for ins in code {
            out.push(self.resolve_instr(r, ins)?);
        }
        Ok(out)
    }

    fn resolve_type(
        &self,
        r: &mut Resolver<'_>,
        tr: tal::TypeRefId,
    ) -> Result<StructId, LinkError> {
        if let Some(Some(id)) = r.type_refs.get(tr.0 as usize) {
            return Ok(*id);
        }
        let name = r.m.type_ref(tr).expect("verified type ref");
        let id = match r.types.get(name) {
            Some(&id) => id,
            None => self.struct_id(name).ok_or_else(|| LinkError::Unresolved {
                name: name.to_string(),
                kind: "type",
            })?,
        };
        r.type_refs[tr.0 as usize] = Some(id);
        Ok(id)
    }

    /// Resolves symbol `s` against the process (first use) or the memo,
    /// checking the type the module expects of it against what is bound.
    fn resolve_sym(&mut self, r: &mut Resolver<'_>, s: SymId) -> Result<Resolved, LinkError> {
        let i = s.0 as usize;
        if let Some(Some(done)) = r.syms.get(i) {
            return Ok(*done);
        }
        let sym = r.m.symbol(s).expect("verified symbol");
        let unresolved = |kind| LinkError::Unresolved {
            name: sym.name.clone(),
            kind,
        };
        let mismatch = |expected: String, found: String| LinkError::TypeMismatch {
            name: sym.name.clone(),
            expected,
            found,
        };
        let resolved = match &sym.kind {
            SymbolKind::Fn(want) => {
                let own = r.own.and_then(|(own, base)| Some((own[i]?, base)));
                let (id, found) = match own {
                    Some((k, base)) => (FuncId(base + k), &r.m.functions[k as usize].sig),
                    None => {
                        let id = *self
                            .fn_by_name
                            .get(&sym.name)
                            .ok_or_else(|| unresolved("function"))?;
                        (id, &self.functions[id.0 as usize].sig)
                    }
                };
                if found != want {
                    return Err(mismatch(want.to_string(), found.to_string()));
                }
                match self.mode {
                    LinkMode::Updateable => Resolved::Slot(self.ensure_slot(&sym.name)),
                    LinkMode::Static => Resolved::Direct(id),
                }
            }
            SymbolKind::Global(want) => {
                let id = *self
                    .global_by_name
                    .get(&sym.name)
                    .ok_or_else(|| unresolved("global"))?;
                let found = &self.globals[id.0 as usize].ty;
                if found != want {
                    return Err(mismatch(want.to_string(), found.to_string()));
                }
                Resolved::Global(id)
            }
            SymbolKind::Host(want) => {
                let id = *self
                    .host_by_name
                    .get(&sym.name)
                    .ok_or_else(|| unresolved("host"))?;
                let found = &self.hosts[id.0 as usize].sig;
                if found != want {
                    return Err(mismatch(want.to_string(), found.to_string()));
                }
                Resolved::Host(id, want.params.len() as u16)
            }
        };
        r.syms[i] = Some(resolved);
        Ok(resolved)
    }

    fn resolve_instr(&mut self, r: &mut Resolver<'_>, ins: &Instr) -> Result<Op, LinkError> {
        use Instr as I;
        Ok(match ins {
            I::PushUnit => Op::PushUnit,
            I::PushInt(n) => Op::PushInt(*n),
            I::PushBool(b) => Op::PushBool(*b),
            I::PushStr(s) => {
                let m = r.m;
                let slot = &mut r.strings[s.0 as usize];
                Op::PushStr(Rc::clone(
                    slot.get_or_insert_with(|| Rc::from(m.strings[s.0 as usize].as_str())),
                ))
            }
            I::PushNull(_) => Op::PushNull,
            I::PushFn(s) => match self.resolve_sym(r, *s)? {
                Resolved::Slot(slot) => Op::PushFnSlot(slot),
                Resolved::Direct(id) => Op::PushFnDirect(id),
                _ => unreachable!("verified kind"),
            },
            I::LoadLocal(n) => Op::LoadLocal(*n),
            I::StoreLocal(n) => Op::StoreLocal(*n),
            I::LoadGlobal(s) | I::StoreGlobal(s) => {
                let Resolved::Global(id) = self.resolve_sym(r, *s)? else {
                    unreachable!("verified kind")
                };
                if matches!(ins, I::LoadGlobal(_)) {
                    Op::LoadGlobal(id)
                } else {
                    Op::StoreGlobal(id)
                }
            }
            I::Dup => Op::Dup,
            I::Pop => Op::Pop,
            I::Swap => Op::Swap,
            I::Add => Op::Add,
            I::Sub => Op::Sub,
            I::Mul => Op::Mul,
            I::Div => Op::Div,
            I::Rem => Op::Rem,
            I::Neg => Op::Neg,
            I::Eq => Op::Eq,
            I::Ne => Op::Ne,
            I::Lt => Op::Lt,
            I::Le => Op::Le,
            I::Gt => Op::Gt,
            I::Ge => Op::Ge,
            I::And => Op::And,
            I::Or => Op::Or,
            I::Not => Op::Not,
            I::Concat => Op::Concat,
            I::StrLen => Op::StrLen,
            I::Substr => Op::Substr,
            I::CharAt => Op::CharAt,
            I::StrEq => Op::StrEq,
            I::StrFind => Op::StrFind,
            I::IntToStr => Op::IntToStr,
            I::StrToInt => Op::StrToInt,
            I::Jump(t) => Op::Jump(*t),
            I::JumpIfFalse(t) => Op::JumpIfFalse(*t),
            I::Call(s) => match self.resolve_sym(r, *s)? {
                Resolved::Slot(slot) => Op::CallSlot(slot),
                Resolved::Direct(id) => Op::CallDirect(id),
                _ => unreachable!("verified kind"),
            },
            I::CallIndirect => Op::CallIndirect,
            I::CallHost(s) => {
                let Resolved::Host(id, argc) = self.resolve_sym(r, *s)? else {
                    unreachable!("verified kind")
                };
                Op::CallHost(id, argc)
            }
            I::Ret => Op::Ret,
            I::NewRecord(tr) => {
                let id = self.resolve_type(r, *tr)?;
                let n = self.struct_def(id).fields.len() as u16;
                Op::NewRecord(id, n)
            }
            I::GetField(tr, i) => Op::GetField(self.resolve_type(r, *tr)?, *i),
            I::SetField(tr, i) => Op::SetField(self.resolve_type(r, *tr)?, *i),
            I::IsNull(_) => Op::IsNull,
            I::NewArray(_) => Op::NewArray,
            I::ArrayGet => Op::ArrayGet,
            I::ArraySet => Op::ArraySet,
            I::ArrayLen => Op::ArrayLen,
            I::ArrayPush => Op::ArrayPush,
            I::UpdatePoint => Op::UpdatePoint,
            I::Nop => Op::Nop,
        })
    }

    // ------------------------------------------------------------ execution

    /// Resolves a function value to code, following an indirection slot.
    pub(crate) fn deref_fn(&self, r: FnRef) -> Result<FuncId, Trap> {
        match r {
            FnRef::Direct(id) => Ok(id),
            FnRef::Slot(slot) => self
                .slot_target(slot)
                .ok_or_else(|| Trap::UnboundSlot(self.slot_name(slot).to_string())),
            FnRef::Unresolved => Err(Trap::UnresolvedFn),
        }
    }

    fn entry_frame(&self, name: &str, args: Vec<Value>) -> Result<Frame, Trap> {
        let id = self
            .function_id(name)
            .ok_or_else(|| Trap::NoSuchFunction(name.to_string()))?;
        let f = Rc::clone(&self.functions[id.0 as usize]);
        if f.param_count != args.len() {
            return Err(Trap::BadEntryArity {
                expected: f.param_count,
                got: args.len(),
            });
        }
        Ok(Frame::new(f, args))
    }

    /// Calls a bound function to completion. Update points inside the call
    /// are ignored (used for state transformers and direct host-driven
    /// entry points).
    ///
    /// # Errors
    /// Returns any [`Trap`] the guest raises.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, Trap> {
        let frame = self.entry_frame(name, args)?;
        let mut st = ExecState::with_frame(frame);
        match exec(self, &mut st, false)? {
            Outcome::Done(v) => Ok(v),
            Outcome::Suspended => unreachable!("update points disabled"),
        }
    }

    /// Calls a specific linked function (bound or not) to completion —
    /// used by the update runtime to run freshly linked state transformers
    /// before their module's names are published.
    ///
    /// # Errors
    /// Returns any [`Trap`] the guest raises.
    pub fn call_fid(&mut self, id: FuncId, args: Vec<Value>) -> Result<Value, Trap> {
        let f = Rc::clone(&self.functions[id.0 as usize]);
        self.call_linked(&f, args)
    }

    fn call_linked(&mut self, f: &Rc<LinkedFunction>, args: Vec<Value>) -> Result<Value, Trap> {
        let mut st = ExecState::with_frame(Frame::new(Rc::clone(f), args));
        match exec(self, &mut st, false)? {
            Outcome::Done(v) => Ok(v),
            Outcome::Suspended => unreachable!("update points disabled"),
        }
    }

    /// Runs a bound function, honouring update points: when an update has
    /// been requested via [`Process::request_update`] and the guest reaches
    /// an `update.point`, execution suspends with
    /// [`Outcome::Suspended`]. Apply the update, then [`Process::resume`].
    ///
    /// # Errors
    /// Returns any [`Trap`] the guest raises.
    pub fn run(&mut self, name: &str, args: Vec<Value>) -> Result<Outcome, Trap> {
        assert!(
            self.suspended.is_none(),
            "process already suspended; resume first"
        );
        let frame = self.entry_frame(name, args)?;
        let mut st = ExecState::with_frame(frame);
        let out = exec(self, &mut st, true)?;
        if matches!(out, Outcome::Suspended) {
            self.suspended = Some(st);
        }
        Ok(out)
    }

    /// Resumes a run suspended at an update point.
    ///
    /// # Errors
    /// Returns any [`Trap`] the guest raises.
    ///
    /// # Panics
    /// Panics when the process is not suspended.
    pub fn resume(&mut self) -> Result<Outcome, Trap> {
        let mut st = self.suspended.take().expect("process is suspended");
        let out = exec(self, &mut st, true)?;
        if matches!(out, Outcome::Suspended) {
            self.suspended = Some(st);
        }
        Ok(out)
    }

    /// Whether a run is currently suspended at an update point.
    pub fn is_suspended(&self) -> bool {
        self.suspended.is_some()
    }

    /// Abandons a suspended run (e.g. after a failed update in strict
    /// mode). The guest stack is dropped; the process state is otherwise
    /// untouched. No-op when not suspended.
    pub fn discard_suspended(&mut self) {
        self.suspended = None;
    }

    /// Names of the functions on the suspended guest stack, innermost last
    /// (the update runtime's *activeness check* inspects this).
    pub fn suspended_stack(&self) -> Vec<String> {
        self.suspended
            .as_ref()
            .map(|st| st.frame_functions())
            .unwrap_or_default()
    }

    /// The linked functions of the suspended guest stack's frames (old
    /// code versions included) — the update runtime's safety analysis
    /// inspects what active code can still reference.
    pub fn suspended_frames(&self) -> Vec<Rc<LinkedFunction>> {
        self.suspended
            .as_ref()
            .map(|st| st.frame_codes())
            .unwrap_or_default()
    }

    /// Requests that the next executed update point suspend the run.
    pub fn request_update(&mut self, requested: bool) {
        self.update_signal
            .requested
            .store(requested, Ordering::SeqCst);
    }

    /// Whether an update request is pending.
    pub fn update_requested(&self) -> bool {
        self.update_signal.requested.load(Ordering::SeqCst)
    }

    /// A clonable handle onto this process's update-request flag. Another
    /// thread can arm it so the guest suspends at its next update point —
    /// this is how a fleet coordinator interrupts a worker mid-serve
    /// without sharing the (thread-local) process itself.
    pub fn update_signal(&self) -> UpdateSignal {
        self.update_signal.clone()
    }

    /// Installs the callback every [`UpdateSignal::arm`] on this process
    /// runs after setting the flag (signals handed out earlier see it
    /// too). A guest that is not running passes no update point, so a
    /// host that blocks while idle uses this to be woken and apply the
    /// queued patch at its quiescent boundary.
    pub fn set_update_wake(&self, wake: WakeFn) {
        *self.update_signal.wake.lock().expect("poisoned") = Some(wake);
    }
}

/// A cross-thread handle onto a process's update-request flag (see
/// [`Process::update_signal`]).
#[derive(Clone)]
pub struct UpdateSignal {
    requested: Arc<AtomicBool>,
    wake: Arc<Mutex<Option<WakeFn>>>,
}

impl std::fmt::Debug for UpdateSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("UpdateSignal").field(&self.armed()).finish()
    }
}

impl UpdateSignal {
    /// Arms the flag: the guest suspends at its next executed update
    /// point. Then runs the host's wake callback, if one is installed.
    pub fn arm(&self) {
        self.requested.store(true, Ordering::SeqCst);
        if let Some(wake) = &*self.wake.lock().expect("poisoned") {
            wake();
        }
    }

    /// Whether the flag is currently armed.
    pub fn armed(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// [`TypeProvider`] view of a process's current type-name bindings, used to
/// verify patch modules against the running program's types.
pub struct ProcessTypes<'a>(pub &'a Process);

impl TypeProvider for ProcessTypes<'_> {
    fn lookup_type(&self, name: &str) -> Option<&TypeDef> {
        self.0.struct_id(name).map(|id| self.0.struct_def(id))
    }
}
