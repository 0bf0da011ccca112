//! The bytecode verifier.
//!
//! This is the analogue of TAL type-checking in the paper: before any object
//! code — the initial program *or a dynamic patch* — is linked into a running
//! process, every function is checked by an abstract interpretation over
//! stack types. A verified module cannot violate type safety at run time
//! (it may still trap on `null`, division by zero or out-of-bounds indices,
//! exactly as the paper's safe-C setting allows).
//!
//! Verification is a forward dataflow analysis: each instruction index is
//! assigned the abstract operand-stack typing with which it may be entered;
//! control-flow joins require the typings to agree exactly.

use crate::instr::{Instr, SymId};
use crate::module::{Function, GlobalDef, Module, SymbolKind};
use crate::types::{Ty, TypeDef};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;

/// Provides record type definitions that a module may reference without
/// defining — e.g. a dynamic patch referring to types of the running program.
pub trait TypeProvider {
    /// Looks up the definition of a named record type.
    fn lookup_type(&self, name: &str) -> Option<&TypeDef>;
}

/// A [`TypeProvider`] with no definitions, for self-contained modules.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAmbientTypes;

impl TypeProvider for NoAmbientTypes {
    fn lookup_type(&self, _name: &str) -> Option<&TypeDef> {
        None
    }
}

impl TypeProvider for BTreeMap<String, TypeDef> {
    fn lookup_type(&self, name: &str) -> Option<&TypeDef> {
        self.get(name)
    }
}

impl TypeProvider for HashMap<String, TypeDef> {
    fn lookup_type(&self, name: &str) -> Option<&TypeDef> {
        self.get(name)
    }
}

/// A verification failure, pinpointing the function and instruction index.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Function (or `global <name>` initialiser) in which the error occurred,
    /// when applicable.
    pub context: Option<String>,
    /// Instruction index within that function, when applicable.
    pub at: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl VerifyError {
    fn module(message: impl Into<String>) -> VerifyError {
        VerifyError {
            context: None,
            at: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.context, self.at) {
            (Some(c), Some(i)) => write!(f, "verify error in `{c}` at {i}: {}", self.message),
            (Some(c), None) => write!(f, "verify error in `{c}`: {}", self.message),
            _ => write!(f, "verify error: {}", self.message),
        }
    }
}

impl Error for VerifyError {}

/// Verifies an entire module against an ambient type environment.
///
/// Checks, in order:
/// 1. module-level well-formedness (unique names, resolvable type
///    references, symbol/definition signature agreement);
/// 2. every global initialiser (must produce exactly its declared type);
/// 3. every function body (dataflow stack typing).
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(m: &Module, ambient: &dyn TypeProvider) -> Result<(), VerifyError> {
    check_module_shape(m, ambient)?;
    let env = Env::new(m, ambient);
    for g in &m.globals {
        verify_global_init(m, &env, g)?;
    }
    for f in &m.functions {
        verify_function(m, &env, f)?;
    }
    Ok(())
}

/// Verifies a single function body. Exposed so the dynamic-update runtime
/// can re-verify individual patched functions and time the verification
/// phase precisely.
///
/// # Errors
///
/// Returns a [`VerifyError`] describing the first ill-typed instruction.
pub fn verify_function(m: &Module, env: &Env<'_>, f: &Function) -> Result<(), VerifyError> {
    if f.locals.len() < f.sig.params.len() {
        return Err(err_fn(f, None, "fewer locals than parameters"));
    }
    for (i, p) in f.sig.params.iter().enumerate() {
        if &f.locals[i] != p {
            return Err(err_fn(
                f,
                None,
                format!("local {i} does not match parameter type {p}"),
            ));
        }
    }
    Dataflow::new(m, env, &f.name, &f.locals, &f.sig.ret).run(&f.code)
}

/// Verifies a global initialiser: no locals, and the code must return
/// exactly one value of the declared type.
fn verify_global_init(m: &Module, env: &Env<'_>, g: &GlobalDef) -> Result<(), VerifyError> {
    let ctx = format!("global {}", g.name);
    Dataflow::new(m, env, &ctx, &[], &g.ty).run(&g.init)
}

/// Resolved typing environment for one module: its symbol table plus the
/// record type definitions visible to it.
pub struct Env<'a> {
    module: &'a Module,
    ambient: &'a dyn TypeProvider,
}

impl<'a> Env<'a> {
    /// Builds the environment for `module`, falling back to `ambient` for
    /// type names the module does not define itself.
    pub fn new(module: &'a Module, ambient: &'a dyn TypeProvider) -> Env<'a> {
        Env { module, ambient }
    }

    fn type_def(&self, name: &str) -> Option<&TypeDef> {
        self.module
            .type_def(name)
            .or_else(|| self.ambient.lookup_type(name))
    }
}

fn err_fn(f: &Function, at: Option<usize>, msg: impl Into<String>) -> VerifyError {
    VerifyError {
        context: Some(f.name.clone()),
        at,
        message: msg.into(),
    }
}

fn check_module_shape(m: &Module, ambient: &dyn TypeProvider) -> Result<(), VerifyError> {
    let mut seen = std::collections::HashSet::new();
    for f in &m.functions {
        if !seen.insert(&f.name) {
            return Err(VerifyError::module(format!(
                "duplicate function `{}`",
                f.name
            )));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for g in &m.globals {
        if !seen.insert(&g.name) {
            return Err(VerifyError::module(format!(
                "duplicate global `{}`",
                g.name
            )));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for t in &m.types {
        if !seen.insert(&t.name) {
            return Err(VerifyError::module(format!("duplicate type `{}`", t.name)));
        }
        let mut fseen = std::collections::HashSet::new();
        for fld in &t.fields {
            if !fseen.insert(&fld.name) {
                return Err(VerifyError::module(format!(
                    "duplicate field `{}` in type `{}`",
                    fld.name, t.name
                )));
            }
        }
    }

    let env = Env::new(m, ambient);
    // Every named type mentioned anywhere must resolve.
    let mut mentioned: Vec<String> = m.type_refs.clone();
    let push_ty = |t: &Ty, mentioned: &mut Vec<String>| t.collect_named(mentioned);
    for t in &m.types {
        for fld in &t.fields {
            push_ty(&fld.ty, &mut mentioned);
        }
    }
    for s in &m.symbols {
        match &s.kind {
            SymbolKind::Fn(sig) | SymbolKind::Host(sig) => {
                for p in &sig.params {
                    push_ty(p, &mut mentioned);
                }
                push_ty(&sig.ret, &mut mentioned);
            }
            SymbolKind::Global(t) => push_ty(t, &mut mentioned),
        }
    }
    for f in &m.functions {
        for l in &f.locals {
            push_ty(l, &mut mentioned);
        }
        for i in &f.code {
            if let Instr::NewArray(ty) = i {
                push_ty(ty, &mut mentioned);
            }
        }
    }
    for g in &m.globals {
        push_ty(&g.ty, &mut mentioned);
    }
    for name in mentioned {
        if env.type_def(&name).is_none() {
            return Err(VerifyError::module(format!("unresolved type `{name}`")));
        }
    }

    // Symbols naming locally defined items must agree with the definitions.
    for s in &m.symbols {
        match &s.kind {
            SymbolKind::Fn(sig) => {
                if let Some(def) = m.function(&s.name) {
                    if &def.sig != sig {
                        return Err(VerifyError::module(format!(
                            "symbol `{}` signature {sig} disagrees with definition {}",
                            s.name, def.sig
                        )));
                    }
                }
            }
            SymbolKind::Global(ty) => {
                if let Some(def) = m.global(&s.name) {
                    if &def.ty != ty {
                        return Err(VerifyError::module(format!(
                            "symbol `{}` type {ty} disagrees with definition {}",
                            s.name, def.ty
                        )));
                    }
                }
            }
            SymbolKind::Host(_) => {}
        }
    }
    Ok(())
}

/// Forward dataflow over one code body.
struct Dataflow<'a> {
    module: &'a Module,
    env: &'a Env<'a>,
    ctx: &'a str,
    locals: &'a [Ty],
    ret: &'a Ty,
    /// Entry stack typing per instruction index; `None` = not yet reached.
    states: Vec<Option<Vec<Ty>>>,
}

impl<'a> Dataflow<'a> {
    fn new(
        module: &'a Module,
        env: &'a Env<'a>,
        ctx: &'a str,
        locals: &'a [Ty],
        ret: &'a Ty,
    ) -> Dataflow<'a> {
        Dataflow {
            module,
            env,
            ctx,
            locals,
            ret,
            states: Vec::new(),
        }
    }

    fn err(&self, at: usize, msg: impl Into<String>) -> VerifyError {
        VerifyError {
            context: Some(self.ctx.to_string()),
            at: Some(at),
            message: msg.into(),
        }
    }

    fn run(mut self, code: &[Instr]) -> Result<(), VerifyError> {
        if code.is_empty() {
            return Err(self.err(0, "empty code body"));
        }
        self.states = vec![None; code.len()];
        self.states[0] = Some(Vec::new());
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        while let Some(pc) = work.pop_front() {
            let stack = self.states[pc].clone().expect("queued pc has a state");
            let instr = &code[pc];
            let (out, succs) = self.step(pc, instr, stack)?;
            for s in succs {
                if s >= code.len() {
                    return Err(self.err(pc, "control falls off the end of the code"));
                }
                match &self.states[s] {
                    None => {
                        self.states[s] = Some(out.clone());
                        work.push_back(s);
                    }
                    Some(existing) => {
                        if existing != &out {
                            return Err(self.err(
                                s,
                                format!(
                                    "inconsistent stack typing at join: {:?} vs {:?}",
                                    existing, out
                                ),
                            ));
                        }
                    }
                }
            }
        }
        // Only reachable instructions were typed, but a loader lowers the
        // whole body: a branch in dead code must still name an index the
        // body has (one past the end at most).
        for (at, instr) in code.iter().enumerate() {
            if let Instr::Jump(t) | Instr::JumpIfFalse(t) = instr {
                if *t as usize > code.len() {
                    return Err(self.err(at, "branch target outside the code"));
                }
            }
        }
        Ok(())
    }

    fn pop(&self, at: usize, stack: &mut Vec<Ty>) -> Result<Ty, VerifyError> {
        stack
            .pop()
            .ok_or_else(|| self.err(at, "operand stack underflow"))
    }

    fn pop_expect(&self, at: usize, stack: &mut Vec<Ty>, want: &Ty) -> Result<(), VerifyError> {
        let got = self.pop(at, stack)?;
        if &got != want {
            return Err(self.err(at, format!("expected {want}, found {got}")));
        }
        Ok(())
    }

    fn type_ref_def(
        &self,
        at: usize,
        tr: crate::instr::TypeRefId,
    ) -> Result<(&str, &TypeDef), VerifyError> {
        let name = self
            .module
            .type_ref(tr)
            .ok_or_else(|| self.err(at, format!("bad type ref #{}", tr.0)))?;
        let def = self
            .env
            .type_def(name)
            .ok_or_else(|| self.err(at, format!("unresolved type `{name}`")))?;
        Ok((name, def))
    }

    fn symbol(&self, at: usize, s: SymId) -> Result<&'a crate::module::Symbol, VerifyError> {
        self.module
            .symbol(s)
            .ok_or_else(|| self.err(at, format!("bad symbol ref #{}", s.0)))
    }

    /// Simulates one instruction; returns the post-stack and successor pcs.
    /// An empty successor list means the instruction ends the path (`Ret`).
    #[allow(clippy::too_many_lines)]
    fn step(
        &self,
        pc: usize,
        instr: &Instr,
        mut stack: Vec<Ty>,
    ) -> Result<(Vec<Ty>, Vec<usize>), VerifyError> {
        use Instr::*;
        let next = vec![pc + 1];
        macro_rules! binop {
            ($in:expr, $out:expr) => {{
                self.pop_expect(pc, &mut stack, &$in)?;
                self.pop_expect(pc, &mut stack, &$in)?;
                stack.push($out);
                Ok((stack, next))
            }};
        }
        match instr {
            PushUnit => {
                stack.push(Ty::Unit);
                Ok((stack, next))
            }
            PushInt(_) => {
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            PushBool(_) => {
                stack.push(Ty::Bool);
                Ok((stack, next))
            }
            PushStr(s) => {
                if self.module.string(*s).is_none() {
                    return Err(self.err(pc, format!("bad string ref #{}", s.0)));
                }
                stack.push(Ty::Str);
                Ok((stack, next))
            }
            PushNull(tr) => {
                let (name, _) = self.type_ref_def(pc, *tr)?;
                stack.push(Ty::Named(name.to_string()));
                Ok((stack, next))
            }
            PushFn(s) => {
                let sym = self.symbol(pc, *s)?;
                match &sym.kind {
                    SymbolKind::Fn(sig) => {
                        stack.push(Ty::Fn(Box::new(sig.clone())));
                        Ok((stack, next))
                    }
                    _ => Err(self.err(pc, format!("`{}` is not a function symbol", sym.name))),
                }
            }
            LoadLocal(n) => {
                let ty = self
                    .locals
                    .get(*n as usize)
                    .ok_or_else(|| self.err(pc, format!("no local {n}")))?;
                stack.push(ty.clone());
                Ok((stack, next))
            }
            StoreLocal(n) => {
                let ty = self
                    .locals
                    .get(*n as usize)
                    .cloned()
                    .ok_or_else(|| self.err(pc, format!("no local {n}")))?;
                self.pop_expect(pc, &mut stack, &ty)?;
                Ok((stack, next))
            }
            LoadGlobal(s) => {
                let sym = self.symbol(pc, *s)?;
                match &sym.kind {
                    SymbolKind::Global(ty) => {
                        stack.push(ty.clone());
                        Ok((stack, next))
                    }
                    _ => Err(self.err(pc, format!("`{}` is not a global symbol", sym.name))),
                }
            }
            StoreGlobal(s) => {
                let sym = self.symbol(pc, *s)?;
                match &sym.kind {
                    SymbolKind::Global(ty) => {
                        let ty = ty.clone();
                        self.pop_expect(pc, &mut stack, &ty)?;
                        Ok((stack, next))
                    }
                    _ => Err(self.err(pc, format!("`{}` is not a global symbol", sym.name))),
                }
            }
            Dup => {
                let t = self.pop(pc, &mut stack)?;
                stack.push(t.clone());
                stack.push(t);
                Ok((stack, next))
            }
            Pop => {
                self.pop(pc, &mut stack)?;
                Ok((stack, next))
            }
            Swap => {
                let a = self.pop(pc, &mut stack)?;
                let b = self.pop(pc, &mut stack)?;
                stack.push(a);
                stack.push(b);
                Ok((stack, next))
            }
            Add | Sub | Mul | Div | Rem => binop!(Ty::Int, Ty::Int),
            Neg => {
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            Eq | Ne | Lt | Le | Gt | Ge => binop!(Ty::Int, Ty::Bool),
            And | Or => binop!(Ty::Bool, Ty::Bool),
            Not => {
                self.pop_expect(pc, &mut stack, &Ty::Bool)?;
                stack.push(Ty::Bool);
                Ok((stack, next))
            }
            Concat => binop!(Ty::Str, Ty::Str),
            StrEq => binop!(Ty::Str, Ty::Bool),
            StrLen => {
                self.pop_expect(pc, &mut stack, &Ty::Str)?;
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            Substr => {
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                self.pop_expect(pc, &mut stack, &Ty::Str)?;
                stack.push(Ty::Str);
                Ok((stack, next))
            }
            CharAt => {
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                self.pop_expect(pc, &mut stack, &Ty::Str)?;
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            StrFind => {
                self.pop_expect(pc, &mut stack, &Ty::Str)?;
                self.pop_expect(pc, &mut stack, &Ty::Str)?;
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            IntToStr => {
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                stack.push(Ty::Str);
                Ok((stack, next))
            }
            StrToInt => {
                self.pop_expect(pc, &mut stack, &Ty::Str)?;
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            Jump(t) => Ok((stack, vec![*t as usize])),
            JumpIfFalse(t) => {
                self.pop_expect(pc, &mut stack, &Ty::Bool)?;
                Ok((stack, vec![pc + 1, *t as usize]))
            }
            Call(s) | CallHost(s) => {
                let sym = self.symbol(pc, *s)?;
                let sig = match (&sym.kind, instr) {
                    (SymbolKind::Fn(sig), Call(_)) => sig,
                    (SymbolKind::Host(sig), CallHost(_)) => sig,
                    _ => {
                        return Err(self.err(
                            pc,
                            format!("`{}` has the wrong symbol kind for this call", sym.name),
                        ))
                    }
                };
                for p in sig.params.iter().rev() {
                    self.pop_expect(pc, &mut stack, p)?;
                }
                stack.push(sig.ret.clone());
                Ok((stack, next))
            }
            CallIndirect => {
                let f = self.pop(pc, &mut stack)?;
                let Ty::Fn(sig) = f else {
                    return Err(self.err(pc, format!("call.indirect on non-function {f}")));
                };
                for p in sig.params.iter().rev() {
                    self.pop_expect(pc, &mut stack, p)?;
                }
                stack.push(sig.ret.clone());
                Ok((stack, next))
            }
            Ret => {
                self.pop_expect(pc, &mut stack, self.ret)?;
                if !stack.is_empty() {
                    return Err(
                        self.err(pc, format!("{} residual operands at return", stack.len()))
                    );
                }
                Ok((stack, Vec::new()))
            }
            NewRecord(tr) => {
                let (name, def) = self.type_ref_def(pc, *tr)?;
                let name = name.to_string();
                let fields: Vec<Ty> = def.fields.iter().map(|f| f.ty.clone()).collect();
                for ty in fields.iter().rev() {
                    self.pop_expect(pc, &mut stack, ty)?;
                }
                stack.push(Ty::Named(name));
                Ok((stack, next))
            }
            GetField(tr, i) => {
                let (name, def) = self.type_ref_def(pc, *tr)?;
                let fld = def
                    .fields
                    .get(*i as usize)
                    .ok_or_else(|| self.err(pc, format!("`{name}` has no field {i}")))?;
                let (name, fty) = (name.to_string(), fld.ty.clone());
                self.pop_expect(pc, &mut stack, &Ty::Named(name))?;
                stack.push(fty);
                Ok((stack, next))
            }
            SetField(tr, i) => {
                let (name, def) = self.type_ref_def(pc, *tr)?;
                let fld = def
                    .fields
                    .get(*i as usize)
                    .ok_or_else(|| self.err(pc, format!("`{name}` has no field {i}")))?;
                let (name, fty) = (name.to_string(), fld.ty.clone());
                self.pop_expect(pc, &mut stack, &fty)?;
                self.pop_expect(pc, &mut stack, &Ty::Named(name))?;
                Ok((stack, next))
            }
            IsNull(tr) => {
                let (name, _) = self.type_ref_def(pc, *tr)?;
                let name = name.to_string();
                self.pop_expect(pc, &mut stack, &Ty::Named(name))?;
                stack.push(Ty::Bool);
                Ok((stack, next))
            }
            NewArray(ty) => {
                stack.push(Ty::Array(Box::new(ty.clone())));
                Ok((stack, next))
            }
            ArrayGet => {
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                let arr = self.pop(pc, &mut stack)?;
                let Ty::Array(e) = arr else {
                    return Err(self.err(pc, format!("array.get on non-array {arr}")));
                };
                stack.push(*e);
                Ok((stack, next))
            }
            ArraySet => {
                let v = self.pop(pc, &mut stack)?;
                self.pop_expect(pc, &mut stack, &Ty::Int)?;
                let arr = self.pop(pc, &mut stack)?;
                if arr != Ty::Array(Box::new(v.clone())) {
                    return Err(self.err(pc, format!("array.set type mismatch: {arr} vs {v}")));
                }
                Ok((stack, next))
            }
            ArrayLen => {
                let arr = self.pop(pc, &mut stack)?;
                let Ty::Array(_) = arr else {
                    return Err(self.err(pc, format!("array.len on non-array {arr}")));
                };
                stack.push(Ty::Int);
                Ok((stack, next))
            }
            ArrayPush => {
                let v = self.pop(pc, &mut stack)?;
                let arr = self.pop(pc, &mut stack)?;
                if arr != Ty::Array(Box::new(v.clone())) {
                    return Err(self.err(pc, format!("array.push type mismatch: {arr} vs {v}")));
                }
                Ok((stack, next))
            }
            UpdatePoint | Nop => Ok((stack, next)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::{Field, FnSig};

    fn verify(m: &Module) -> Result<(), VerifyError> {
        verify_module(m, &NoAmbientTypes)
    }

    #[test]
    fn accepts_identity_function() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("id", FnSig::new(vec![Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::Ret);
        });
        verify(&b.finish()).unwrap();
    }

    #[test]
    fn rejects_stack_underflow() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("bad", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::Add);
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn rejects_wrong_return_type() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("bad", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushBool(true));
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("expected int"), "{e}");
    }

    #[test]
    fn rejects_residual_operands_at_return() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("bad", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(1));
            f.emit(Instr::PushInt(2));
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("residual"), "{e}");
    }

    #[test]
    fn rejects_fall_off_end() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("bad", FnSig::new(vec![], Ty::Unit), |f| {
            f.emit(Instr::PushUnit);
            f.emit(Instr::Pop);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("falls off"), "{e}");
    }

    #[test]
    fn rejects_inconsistent_join() {
        // One branch leaves an int on the stack, the other a bool, at the
        // same join point.
        let mut b = ModuleBuilder::new("t", "v");
        b.function("bad", FnSig::new(vec![Ty::Bool], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0)); // 0
            f.emit(Instr::JumpIfFalse(4)); // 1
            f.emit(Instr::PushInt(1)); // 2
            f.emit(Instr::Jump(5)); // 3
            f.emit(Instr::PushBool(true)); // 4  (join at 5 disagrees)
            f.emit(Instr::Pop); // 5
            f.emit(Instr::PushInt(0)); // 6
            f.emit(Instr::Ret); // 7
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("join"), "{e}");
    }

    #[test]
    fn accepts_loop_with_consistent_typing() {
        // while (n > 0) { n = n - 1; } return n;
        let mut b = ModuleBuilder::new("t", "v");
        b.function("loop", FnSig::new(vec![Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0)); // 0
            f.emit(Instr::PushInt(0)); // 1
            f.emit(Instr::Gt); // 2
            f.emit(Instr::JumpIfFalse(9)); // 3
            f.emit(Instr::LoadLocal(0)); // 4
            f.emit(Instr::PushInt(1)); // 5
            f.emit(Instr::Sub); // 6
            f.emit(Instr::StoreLocal(0)); // 7
            f.emit(Instr::Jump(0)); // 8
            f.emit(Instr::LoadLocal(0)); // 9
            f.emit(Instr::Ret); // 10
        });
        verify(&b.finish()).unwrap();
    }

    #[test]
    fn checks_record_field_types() {
        let mut b = ModuleBuilder::new("t", "v");
        b.def_type(TypeDef::new("p", vec![Field::new("x", Ty::Int)]));
        let tr = b.type_ref("p");
        b.function("bad", FnSig::new(vec![], Ty::Unit), move |f| {
            f.emit(Instr::PushBool(true)); // wrong field type
            f.emit(Instr::NewRecord(tr));
            f.emit(Instr::Pop);
            f.emit(Instr::PushUnit);
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("expected int"), "{e}");
    }

    #[test]
    fn resolves_types_from_ambient_provider() {
        let mut ambient = BTreeMap::new();
        ambient.insert(
            "q".to_string(),
            TypeDef::new("q", vec![Field::new("v", Ty::Int)]),
        );
        let mut b = ModuleBuilder::new("t", "v");
        let tr = b.type_ref("q");
        b.function("mk", FnSig::new(vec![], Ty::named("q")), move |f| {
            f.emit(Instr::PushInt(3));
            f.emit(Instr::NewRecord(tr));
            f.emit(Instr::Ret);
        });
        let m = b.finish();
        assert!(verify_module(&m, &NoAmbientTypes).is_err());
        verify_module(&m, &ambient).unwrap();
    }

    #[test]
    fn rejects_unresolved_type_reference() {
        let mut b = ModuleBuilder::new("t", "v");
        let tr = b.type_ref("ghost");
        b.function("mk", FnSig::new(vec![], Ty::Unit), move |f| {
            f.emit(Instr::PushNull(tr));
            f.emit(Instr::Pop);
            f.emit(Instr::PushUnit);
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("unresolved type"), "{e}");
    }

    #[test]
    fn rejects_symbol_definition_mismatch() {
        let mut b = ModuleBuilder::new("t", "v");
        // Symbol claims f: (int) -> int but the definition is (): unit.
        b.declare_fn("f", FnSig::new(vec![Ty::Int], Ty::Int));
        b.function("f", FnSig::new(vec![], Ty::Unit), |f| {
            f.emit(Instr::PushUnit);
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("disagrees"), "{e}");
    }

    #[test]
    fn call_checks_argument_types() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("f", FnSig::new(vec![Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::Ret);
        });
        let callee = b.declare_fn("f", FnSig::new(vec![Ty::Int], Ty::Int));
        b.function("g", FnSig::new(vec![], Ty::Int), move |f| {
            f.emit(Instr::PushBool(false)); // wrong argument type
            f.emit(Instr::Call(callee));
            f.emit(Instr::Ret);
        });
        let e = verify(&b.finish()).unwrap_err();
        assert!(e.message.contains("expected int"), "{e}");
    }

    #[test]
    fn verifies_global_initialisers() {
        let mut b = ModuleBuilder::new("t", "v");
        b.global("ok", Ty::Int, vec![Instr::PushInt(1), Instr::Ret]);
        verify(&b.finish()).unwrap();

        let mut b = ModuleBuilder::new("t", "v");
        b.global("bad", Ty::Int, vec![Instr::PushBool(true), Instr::Ret]);
        let e = verify(&b.finish()).unwrap_err();
        assert_eq!(e.context.as_deref(), Some("global bad"));
    }

    #[test]
    fn indirect_call_through_function_value() {
        let mut b = ModuleBuilder::new("t", "v");
        b.function("inc", FnSig::new(vec![Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Add);
            f.emit(Instr::Ret);
        });
        let inc = b.declare_fn("inc", FnSig::new(vec![Ty::Int], Ty::Int));
        b.function("apply", FnSig::new(vec![Ty::Int], Ty::Int), move |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushFn(inc));
            f.emit(Instr::CallIndirect);
            f.emit(Instr::Ret);
        });
        verify(&b.finish()).unwrap();
    }
}
