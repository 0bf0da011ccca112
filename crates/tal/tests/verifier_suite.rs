//! Verifier rejection/acceptance suite: one case per typing rule.
//!
//! The verifier is the safety gate for dynamic patches, so its rejection
//! behaviour is specified as exhaustively as its acceptance.

use tal::{
    verify_module, Field, FnSig, Instr, ModuleBuilder, NoAmbientTypes, Ty, TypeDef, VerifyError,
};

fn check_fn(
    sig: FnSig,
    build: impl FnOnce(&mut tal::FunctionBuilder<'_>),
) -> Result<(), VerifyError> {
    let mut b = ModuleBuilder::new("t", "v");
    b.def_type(TypeDef::new(
        "rec",
        vec![Field::new("n", Ty::Int), Field::new("s", Ty::Str)],
    ));
    b.function("f", sig, build);
    verify_module(&b.finish(), &NoAmbientTypes)
}

fn rejects(sig: FnSig, needle: &str, build: impl FnOnce(&mut tal::FunctionBuilder<'_>)) {
    let e = check_fn(sig, build).expect_err("must be rejected");
    assert!(e.message.contains(needle), "expected {needle:?} in `{e}`");
}

fn accepts(sig: FnSig, build: impl FnOnce(&mut tal::FunctionBuilder<'_>)) {
    check_fn(sig, build).unwrap_or_else(|e| panic!("must verify: {e}"));
}

#[test]
fn empty_body_is_rejected() {
    rejects(FnSig::new(vec![], Ty::Unit), "empty code body", |_| {});
}

#[test]
fn locals_prefix_mismatch_rejected() {
    // Build a function whose first local does not match its parameter.
    let mut m = tal::Module::new("t", "v");
    m.functions.push(tal::Function {
        name: "f".into(),
        sig: FnSig::new(vec![Ty::Int], Ty::Int),
        locals: vec![Ty::Bool],
        code: vec![Instr::PushInt(1), Instr::Ret],
    });
    let e = verify_module(&m, &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("does not match parameter"), "{e}");

    let mut m = tal::Module::new("t", "v");
    m.functions.push(tal::Function {
        name: "f".into(),
        sig: FnSig::new(vec![Ty::Int], Ty::Int),
        locals: vec![],
        code: vec![Instr::PushInt(1), Instr::Ret],
    });
    let e = verify_module(&m, &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("fewer locals"), "{e}");
}

#[test]
fn jump_bounds_are_checked() {
    rejects(FnSig::new(vec![], Ty::Unit), "falls off", |f| {
        f.emit(Instr::Jump(99));
    });
}

/// Dead code is not typed, but it is lowered with the rest of the body:
/// a branch in it may not point outside (one past the end is the most a
/// loader's tables hold).
#[test]
fn jump_bounds_are_checked_in_unreachable_code_too() {
    let dead_jump = |t| {
        move |f: &mut tal::FunctionBuilder<'_>| {
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Ret);
            f.emit(Instr::Jump(t));
        }
    };
    accepts(FnSig::new(vec![], Ty::Int), dead_jump(3));
    rejects(FnSig::new(vec![], Ty::Int), "outside", dead_jump(4));
}

#[test]
fn operand_kinds_are_checked_per_instruction() {
    // Integer op on strings.
    rejects(
        FnSig::new(vec![Ty::Str, Ty::Str], Ty::Int),
        "expected int",
        |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Add);
            f.emit(Instr::Ret);
        },
    );
    // Concat on ints.
    rejects(
        FnSig::new(vec![Ty::Int, Ty::Int], Ty::Str),
        "expected string",
        |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Concat);
            f.emit(Instr::Ret);
        },
    );
    // Branch on non-bool.
    rejects(FnSig::new(vec![Ty::Int], Ty::Unit), "expected bool", |f| {
        f.emit(Instr::LoadLocal(0));
        f.emit(Instr::JumpIfFalse(2));
        f.emit(Instr::PushUnit);
        f.emit(Instr::Ret);
    });
    // ArrayGet with non-int index.
    rejects(
        FnSig::new(vec![Ty::array(Ty::Int), Ty::Bool], Ty::Int),
        "expected int",
        |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::ArrayGet);
            f.emit(Instr::Ret);
        },
    );
    // ArrayGet on non-array.
    rejects(
        FnSig::new(vec![Ty::Int], Ty::Int),
        "array.get on non-array",
        |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushInt(0));
            f.emit(Instr::ArrayGet);
            f.emit(Instr::Ret);
        },
    );
    // ArraySet element type mismatch.
    rejects(
        FnSig::new(vec![Ty::array(Ty::Int)], Ty::Unit),
        "array.set type mismatch",
        |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushInt(0));
            f.emit(Instr::PushBool(true));
            f.emit(Instr::ArraySet);
            f.emit(Instr::PushUnit);
            f.emit(Instr::Ret);
        },
    );
    // CallIndirect on non-function.
    rejects(
        FnSig::new(vec![Ty::Int], Ty::Int),
        "call.indirect on non-function",
        |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::CallIndirect);
            f.emit(Instr::Ret);
        },
    );
}

#[test]
fn record_instruction_rules() {
    // Field index out of range.
    rejects(
        FnSig::new(vec![Ty::named("rec")], Ty::Int),
        "has no field 7",
        |f| {
            let tr = f.type_ref("rec");
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::GetField(tr, 7));
            f.emit(Instr::Ret);
        },
    );
    // SetField with wrong value type.
    rejects(
        FnSig::new(vec![Ty::named("rec")], Ty::Unit),
        "expected int",
        |f| {
            let tr = f.type_ref("rec");
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushBool(true));
            f.emit(Instr::SetField(tr, 0));
            f.emit(Instr::PushUnit);
            f.emit(Instr::Ret);
        },
    );
    // NewRecord with fields in the wrong order.
    rejects(
        FnSig::new(vec![], Ty::named("rec")),
        "expected string",
        |f| {
            let tr = f.type_ref("rec");
            let s = f.string("x");
            f.emit(Instr::PushStr(s));
            f.emit(Instr::PushInt(1));
            f.emit(Instr::NewRecord(tr));
            f.emit(Instr::Ret);
        },
    );
    // IsNull on the wrong named type.
    let mut b = ModuleBuilder::new("t", "v");
    b.def_type(TypeDef::new("a", vec![Field::new("x", Ty::Int)]));
    b.def_type(TypeDef::new("b", vec![Field::new("x", Ty::Int)]));
    let trb = b.type_ref("b");
    b.function("f", FnSig::new(vec![Ty::named("a")], Ty::Bool), move |f| {
        f.emit(Instr::LoadLocal(0));
        f.emit(Instr::IsNull(trb));
        f.emit(Instr::Ret);
    });
    let e = verify_module(&b.finish(), &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("expected b, found a"), "{e}");
}

#[test]
fn nominal_types_do_not_unify_structurally() {
    // Two structurally identical named types are distinct.
    let mut b = ModuleBuilder::new("t", "v");
    b.def_type(TypeDef::new("a", vec![Field::new("x", Ty::Int)]));
    b.def_type(TypeDef::new("b", vec![Field::new("x", Ty::Int)]));
    let tra = b.type_ref("a");
    b.function("f", FnSig::new(vec![], Ty::named("b")), move |f| {
        f.emit(Instr::PushInt(1));
        f.emit(Instr::NewRecord(tra));
        f.emit(Instr::Ret);
    });
    let e = verify_module(&b.finish(), &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("expected b, found a"), "{e}");
}

#[test]
fn stack_discipline_at_joins() {
    // A loop that grows the stack each iteration must be rejected (the
    // entry typing of the loop head would disagree).
    rejects(FnSig::new(vec![], Ty::Int), "join", |f| {
        let top = f.new_label();
        f.emit(Instr::PushInt(0)); // 0
        f.bind(top);
        f.emit(Instr::PushInt(1)); // grows every iteration
        f.emit(Instr::PushBool(true));
        f.jump_if_false(top); // jump back with a deeper stack? no: jump target is `top`
        f.jump(top);
    });
}

#[test]
fn diamond_join_with_equal_typing_is_accepted() {
    accepts(FnSig::new(vec![Ty::Bool], Ty::Int), |f| {
        let lelse = f.new_label();
        let lend = f.new_label();
        f.emit(Instr::LoadLocal(0));
        f.jump_if_false(lelse);
        f.emit(Instr::PushInt(1));
        f.jump(lend);
        f.bind(lelse);
        f.emit(Instr::PushInt(2));
        f.bind(lend);
        f.emit(Instr::Ret);
    });
}

#[test]
fn unreachable_ill_typed_code_is_ignored() {
    // The verifier is a reachability-based dataflow: dead code after an
    // unconditional return is not checked (this mirrors TAL, where only
    // reachable instructions need typings).
    accepts(FnSig::new(vec![], Ty::Int), |f| {
        f.emit(Instr::PushInt(1));
        f.emit(Instr::Ret);
        f.emit(Instr::Concat); // ill-typed but unreachable
        f.emit(Instr::Ret);
    });
}

#[test]
fn swap_dup_pop_typing() {
    accepts(FnSig::new(vec![Ty::Int, Ty::Str], Ty::Str), |f| {
        f.emit(Instr::LoadLocal(0));
        f.emit(Instr::LoadLocal(1));
        f.emit(Instr::Swap); // [str, int]
        f.emit(Instr::Pop); // [str]
        f.emit(Instr::Dup); // [str, str]
        f.emit(Instr::Concat);
        f.emit(Instr::Ret);
    });
    rejects(FnSig::new(vec![], Ty::Unit), "underflow", |f| {
        f.emit(Instr::Dup);
        f.emit(Instr::PushUnit);
        f.emit(Instr::Ret);
    });
    rejects(FnSig::new(vec![Ty::Int], Ty::Unit), "underflow", |f| {
        f.emit(Instr::LoadLocal(0));
        f.emit(Instr::Swap);
        f.emit(Instr::PushUnit);
        f.emit(Instr::Ret);
    });
}

#[test]
fn symbol_kind_confusion_is_rejected() {
    // Calling a global symbol.
    let mut b = ModuleBuilder::new("t", "v");
    let g = b.declare_global("g", Ty::Int);
    b.global("g", Ty::Int, vec![Instr::PushInt(0), Instr::Ret]);
    b.function("f", FnSig::new(vec![], Ty::Int), move |f| {
        f.emit(Instr::Call(g));
        f.emit(Instr::Ret);
    });
    let e = verify_module(&b.finish(), &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("wrong symbol kind"), "{e}");

    // Loading a function symbol as a global.
    let mut b = ModuleBuilder::new("t", "v");
    b.function("h", FnSig::new(vec![], Ty::Unit), |f| {
        f.emit(Instr::PushUnit);
        f.emit(Instr::Ret);
    });
    let h = b.declare_fn("h", FnSig::new(vec![], Ty::Unit));
    b.function("f", FnSig::new(vec![], Ty::Unit), move |f| {
        f.emit(Instr::LoadGlobal(h));
        f.emit(Instr::Ret);
    });
    let e = verify_module(&b.finish(), &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("not a global symbol"), "{e}");

    // CallHost through a guest-function symbol.
    let mut b = ModuleBuilder::new("t", "v");
    b.function("h", FnSig::new(vec![], Ty::Unit), |f| {
        f.emit(Instr::PushUnit);
        f.emit(Instr::Ret);
    });
    let h = b.declare_fn("h", FnSig::new(vec![], Ty::Unit));
    b.function("f", FnSig::new(vec![], Ty::Unit), move |f| {
        f.emit(Instr::CallHost(h));
        f.emit(Instr::Ret);
    });
    let e = verify_module(&b.finish(), &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("wrong symbol kind"), "{e}");
}

#[test]
fn function_value_types_are_precise() {
    // Pushing &h where a different signature is expected must fail at the
    // point of use (sig is part of the value's type).
    let mut b = ModuleBuilder::new("t", "v");
    b.function("h", FnSig::new(vec![Ty::Int], Ty::Int), |f| {
        f.emit(Instr::LoadLocal(0));
        f.emit(Instr::Ret);
    });
    let h = b.declare_fn("h", FnSig::new(vec![Ty::Int], Ty::Int));
    b.function("f", FnSig::new(vec![], Ty::Bool), move |f| {
        f.emit(Instr::PushFn(h));
        f.emit(Instr::CallIndirect); // pops no args per sig? needs an int
        f.emit(Instr::Ret);
    });
    let e = verify_module(&b.finish(), &NoAmbientTypes).unwrap_err();
    assert!(
        e.message.contains("underflow") || e.message.contains("expected"),
        "{e}"
    );
}

#[test]
fn bad_pool_references_are_rejected() {
    let mut m = tal::Module::new("t", "v");
    m.functions.push(tal::Function {
        name: "f".into(),
        sig: FnSig::new(vec![], Ty::Str),
        locals: vec![],
        code: vec![Instr::PushStr(tal::StrId(9)), Instr::Ret],
    });
    let e = verify_module(&m, &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("bad string ref"), "{e}");

    let mut m = tal::Module::new("t", "v");
    m.functions.push(tal::Function {
        name: "f".into(),
        sig: FnSig::new(vec![], Ty::Int),
        locals: vec![],
        code: vec![Instr::Call(tal::SymId(4)), Instr::Ret],
    });
    let e = verify_module(&m, &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("bad symbol ref"), "{e}");
}

#[test]
fn global_initialiser_must_be_closed() {
    // Initialisers have no locals: referencing one underflows or errors.
    let mut m = tal::Module::new("t", "v");
    m.globals.push(tal::GlobalDef {
        name: "g".into(),
        ty: Ty::Int,
        init: vec![Instr::LoadLocal(0), Instr::Ret],
    });
    let e = verify_module(&m, &NoAmbientTypes).unwrap_err();
    assert!(e.message.contains("no local 0"), "{e}");
}
