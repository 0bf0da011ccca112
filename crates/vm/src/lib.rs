//! # vm — interpreter for `tal` bytecode with static and updateable linking
//!
//! This crate executes verified [`tal`] modules inside a [`Process`]. Its
//! defining feature, following "Dynamic Software Updating" (PLDI 2001), is
//! the **link mode**:
//!
//! * [`LinkMode::Static`] binds every call directly to code — the
//!   conventional-executable baseline of the paper's overhead experiment;
//! * [`LinkMode::Updateable`] routes every call (and function pointer)
//!   through a Global Indirection Table slot, paying a small per-call cost
//!   in exchange for the ability to *rebind* any function at run time.
//!
//! Executions can suspend at guest `update` points and resume after the
//! embedding update runtime (the `dsu-core` crate) has relinked the
//! process; frames already on the stack keep executing their old code.
//!
//! ## Example
//!
//! ```
//! use tal::{ModuleBuilder, FnSig, Ty, Instr};
//! use vm::{Process, LinkMode, Value};
//!
//! let mut b = ModuleBuilder::new("demo", "v1");
//! b.function("add", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int), |f| {
//!     f.emit(Instr::LoadLocal(0));
//!     f.emit(Instr::LoadLocal(1));
//!     f.emit(Instr::Add);
//!     f.emit(Instr::Ret);
//! });
//! let mut p = Process::new(LinkMode::Updateable);
//! p.load_module(&b.finish())?;
//! assert_eq!(p.call("add", vec![Value::Int(2), Value::Int(3)])?, Value::Int(5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod decode;
pub mod interp;
pub mod ops;
pub mod process;
pub mod profile;
pub mod remap;
pub mod snapshot_io;
pub mod trap;
pub mod value;

pub use decode::{Cmp, DOp, InlineCache};
pub use interp::{ExecState, ExecStats, ExecStatsShared, Frame, Outcome};
pub use ops::Op;
pub use process::{
    BindingSnapshot, GlobalCell, HostFn, LinkMode, LinkOverrides, LinkPlan, LinkedFunction,
    PlannedBindings, Process, ProcessTypes, UpdateSignal, WakeFn,
};
pub use profile::{Profiler, SiteStats};
pub use remap::Remap;
pub use snapshot_io::{decode_snapshot, encode_snapshot, SnapshotCodecError};
pub use trap::{LinkError, Trap};
pub use value::{FnRef, FuncId, GlobalId, HostId, RecordObj, SlotId, StructId, Value};

#[cfg(test)]
mod tests {
    use super::*;
    use tal::{FnSig, Instr, ModuleBuilder, Ty, TypeDef};

    fn arith_module() -> tal::Module {
        let mut b = ModuleBuilder::new("m", "v1");
        b.function("add", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Add);
            f.emit(Instr::Ret);
        });
        let add = b.declare_fn("add", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int));
        b.function("triple_add", FnSig::new(vec![Ty::Int], Ty::Int), move |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::Call(add));
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::Call(add));
            f.emit(Instr::Ret);
        });
        b.finish()
    }

    #[test]
    fn runs_in_both_link_modes() {
        for mode in [LinkMode::Static, LinkMode::Updateable] {
            let mut p = Process::new(mode);
            p.load_module(&arith_module()).unwrap();
            let v = p.call("triple_add", vec![Value::Int(7)]).unwrap();
            assert_eq!(v, Value::Int(21), "{mode:?}");
        }
    }

    #[test]
    fn profiler_collects_stacks_and_ic_sites() {
        let mut p = Process::new(LinkMode::Updateable);
        p.set_profiling(true);
        p.load_module(&arith_module()).unwrap();
        p.call("triple_add", vec![Value::Int(7)]).unwrap();
        p.call("triple_add", vec![Value::Int(9)]).unwrap();

        let profile = p.profile().expect("armed");
        let collapsed = p.profile_collapsed().unwrap();
        assert!(
            collapsed.contains("triple_add;add "),
            "callee stacks nest under the caller: {collapsed}"
        );
        let dispatches = profile.dispatch_counts();
        let add = dispatches.iter().find(|d| d.0 == "add").expect("add seen");
        assert_eq!(add.1, 4, "two calls x two add dispatches each");

        // Both slot-call sites in triple_add show up, and after the first
        // (cold) resolution every call is an inline-cache hit.
        let sites = profile.site_stats();
        assert_eq!(sites.len(), 2, "{sites:?}");
        let (hits, misses): (u64, u64) = sites
            .iter()
            .fold((0, 0), |(h, m), (_, s)| (h + s.hits, m + s.misses));
        assert_eq!(misses, 2, "one cold miss per site");
        assert_eq!(hits, 2, "warm calls answer from the cache");
        assert!(p.profile_report().unwrap().contains("triple_add"));

        // Frame-pool counters: first call-chain allocates, later ones reuse.
        assert!(p.stats.pool_misses >= 1);
        assert!(p.stats.pool_hits >= 1, "{:?}", p.stats);

        p.set_profiling(false);
        assert!(p.profile_collapsed().is_none());
    }

    #[test]
    fn updateable_mode_counts_slot_calls() {
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&arith_module()).unwrap();
        p.call("triple_add", vec![Value::Int(1)]).unwrap();
        assert_eq!(p.stats.slot_calls, 2);

        let mut p = Process::new(LinkMode::Static);
        p.load_module(&arith_module()).unwrap();
        p.call("triple_add", vec![Value::Int(1)]).unwrap();
        assert_eq!(p.stats.slot_calls, 0);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut b = ModuleBuilder::new("m", "v1");
        b.function("div", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Div);
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Static);
        p.load_module(&b.finish()).unwrap();
        assert_eq!(
            p.call("div", vec![Value::Int(6), Value::Int(2)]).unwrap(),
            Value::Int(3)
        );
        let e = p
            .call("div", vec![Value::Int(6), Value::Int(0)])
            .unwrap_err();
        assert_eq!(e, Trap::DivByZero);
    }

    #[test]
    fn null_dereference_traps() {
        let mut b = ModuleBuilder::new("m", "v1");
        b.def_type(TypeDef::new("box", vec![tal::Field::new("v", Ty::Int)]));
        let tr = b.type_ref("box");
        b.function("deref_null", FnSig::new(vec![], Ty::Int), move |f| {
            f.emit(Instr::PushNull(tr));
            f.emit(Instr::GetField(tr, 0));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Static);
        p.load_module(&b.finish()).unwrap();
        assert_eq!(p.call("deref_null", vec![]).unwrap_err(), Trap::NullDeref);
    }

    #[test]
    fn records_and_arrays_round_trip() {
        let mut b = ModuleBuilder::new("m", "v1");
        b.def_type(TypeDef::new(
            "pair",
            vec![tal::Field::new("a", Ty::Int), tal::Field::new("b", Ty::Int)],
        ));
        let tr = b.type_ref("pair");
        b.function("sum_pairs", FnSig::new(vec![Ty::Int], Ty::Int), move |f| {
            // Build an array of `n` pairs {i, i*2}, then sum all fields.
            let arr = f.local(Ty::array(Ty::named("pair")));
            let i = f.local(Ty::Int);
            let acc = f.local(Ty::Int);
            f.emit(Instr::NewArray(Ty::named("pair")));
            f.emit(Instr::StoreLocal(arr));
            // fill loop
            let top = f.new_label();
            let done = f.new_label();
            f.bind(top);
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::Lt);
            f.jump_if_false(done);
            f.emit(Instr::LoadLocal(arr));
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::PushInt(2));
            f.emit(Instr::Mul);
            f.emit(Instr::NewRecord(tr));
            f.emit(Instr::ArrayPush);
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Add);
            f.emit(Instr::StoreLocal(i));
            f.jump(top);
            f.bind(done);
            // sum loop
            f.emit(Instr::PushInt(0));
            f.emit(Instr::StoreLocal(i));
            let top2 = f.new_label();
            let done2 = f.new_label();
            f.bind(top2);
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::LoadLocal(arr));
            f.emit(Instr::ArrayLen);
            f.emit(Instr::Lt);
            f.jump_if_false(done2);
            f.emit(Instr::LoadLocal(acc));
            f.emit(Instr::LoadLocal(arr));
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::ArrayGet);
            f.emit(Instr::GetField(tr, 0));
            f.emit(Instr::Add);
            f.emit(Instr::LoadLocal(arr));
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::ArrayGet);
            f.emit(Instr::GetField(tr, 1));
            f.emit(Instr::Add);
            f.emit(Instr::StoreLocal(acc));
            f.emit(Instr::LoadLocal(i));
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Add);
            f.emit(Instr::StoreLocal(i));
            f.jump(top2);
            f.bind(done2);
            f.emit(Instr::LoadLocal(acc));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();
        // sum over i of (i + 2i) for i in 0..4 = 3 * (0+1+2+3) = 18
        assert_eq!(
            p.call("sum_pairs", vec![Value::Int(4)]).unwrap(),
            Value::Int(18)
        );
    }

    #[test]
    fn globals_initialise_and_persist() {
        let mut b = ModuleBuilder::new("m", "v1");
        b.global("counter", Ty::Int, vec![Instr::PushInt(10), Instr::Ret]);
        let g = b.declare_global("counter", Ty::Int);
        b.function("bump", FnSig::new(vec![], Ty::Int), move |f| {
            f.emit(Instr::LoadGlobal(g));
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Add);
            f.emit(Instr::StoreGlobal(g));
            f.emit(Instr::LoadGlobal(g));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();
        assert_eq!(p.global_value("counter"), Some(Value::Int(10)));
        assert_eq!(p.call("bump", vec![]).unwrap(), Value::Int(11));
        assert_eq!(p.call("bump", vec![]).unwrap(), Value::Int(12));
        assert_eq!(p.global_value("counter"), Some(Value::Int(12)));
    }

    #[test]
    fn host_functions_are_callable() {
        let mut b = ModuleBuilder::new("m", "v1");
        let h = b.declare_host("double_it", FnSig::new(vec![Ty::Int], Ty::Int));
        b.function("go", FnSig::new(vec![Ty::Int], Ty::Int), move |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::CallHost(h));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Static);
        p.register_host(
            "double_it",
            FnSig::new(vec![Ty::Int], Ty::Int),
            Box::new(|args| Ok(Value::Int(args[0].as_int() * 2))),
        );
        p.load_module(&b.finish()).unwrap();
        assert_eq!(p.call("go", vec![Value::Int(21)]).unwrap(), Value::Int(42));
        assert_eq!(p.stats.host_calls, 1);
    }

    #[test]
    fn missing_host_is_a_link_error() {
        let mut b = ModuleBuilder::new("m", "v1");
        let h = b.declare_host("ghost", FnSig::new(vec![], Ty::Unit));
        b.function("go", FnSig::new(vec![], Ty::Unit), move |f| {
            f.emit(Instr::CallHost(h));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Static);
        let e = p.load_module(&b.finish()).unwrap_err();
        assert!(
            matches!(e, LinkError::Unresolved { kind: "host", .. }),
            "{e}"
        );
    }

    #[test]
    fn rebinding_a_function_redirects_future_calls() {
        // The essence of dynamic updating, at the VM level.
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&arith_module()).unwrap();
        assert_eq!(
            p.call("triple_add", vec![Value::Int(5)]).unwrap(),
            Value::Int(15)
        );

        // Build a replacement for `add` that subtracts instead.
        let mut b = ModuleBuilder::new("patch", "v2");
        b.function("add", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Sub);
            f.emit(Instr::Ret);
        });
        let patch = b.finish();
        tal::verify_module(&patch, &ProcessTypes(&p)).unwrap();
        let planned = p.link_functions(&patch, &LinkOverrides::default()).unwrap();
        for (name, id) in planned {
            p.bind_function(&name, id);
        }
        // (5 - 5) - 5 = -5: `triple_add` now reaches the new `add` through
        // its indirection slot without itself being relinked.
        assert_eq!(
            p.call("triple_add", vec![Value::Int(5)]).unwrap(),
            Value::Int(-5)
        );
    }

    #[test]
    fn static_mode_is_not_affected_by_rebinding() {
        let mut p = Process::new(LinkMode::Static);
        p.load_module(&arith_module()).unwrap();
        let mut b = ModuleBuilder::new("patch", "v2");
        b.function("add", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Sub);
            f.emit(Instr::Ret);
        });
        let patch = b.finish();
        let planned = p.link_functions(&patch, &LinkOverrides::default()).unwrap();
        for (name, id) in planned {
            p.bind_function(&name, id);
        }
        // Direct binding: old callers keep their resolved target.
        assert_eq!(
            p.call("triple_add", vec![Value::Int(5)]).unwrap(),
            Value::Int(15)
        );
    }

    #[test]
    fn update_point_suspends_and_resumes() {
        let mut b = ModuleBuilder::new("m", "v1");
        b.global("state", Ty::Int, vec![Instr::PushInt(0), Instr::Ret]);
        let g = b.declare_global("state", Ty::Int);
        b.function("work", FnSig::new(vec![], Ty::Int), move |f| {
            f.emit(Instr::PushInt(1));
            f.emit(Instr::StoreGlobal(g));
            f.emit(Instr::UpdatePoint);
            f.emit(Instr::LoadGlobal(g));
            f.emit(Instr::PushInt(100));
            f.emit(Instr::Add);
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();

        // Without a pending request the update point is a no-op.
        assert_eq!(
            p.run("work", vec![]).unwrap(),
            Outcome::Done(Value::Int(101))
        );

        // With a pending request the run suspends; we mutate state (as a
        // state transformer would) and resume.
        p.request_update(true);
        assert_eq!(p.run("work", vec![]).unwrap(), Outcome::Suspended);
        assert!(p.is_suspended());
        assert_eq!(p.suspended_stack(), vec!["work".to_string()]);
        p.set_global("state", Value::Int(50));
        p.request_update(false);
        assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(150)));
        assert!(!p.is_suspended());
    }

    #[test]
    fn snapshot_restore_rolls_back_bindings() {
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&arith_module()).unwrap();
        let snap = p.snapshot();

        let mut b = ModuleBuilder::new("patch", "v2");
        b.function("add", FnSig::new(vec![Ty::Int, Ty::Int], Ty::Int), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::LoadLocal(1));
            f.emit(Instr::Sub);
            f.emit(Instr::Ret);
        });
        let planned = p
            .link_functions(&b.finish(), &LinkOverrides::default())
            .unwrap();
        for (name, id) in planned {
            p.bind_function(&name, id);
        }
        assert_eq!(
            p.call("triple_add", vec![Value::Int(5)]).unwrap(),
            Value::Int(-5)
        );

        p.restore(snap);
        assert_eq!(
            p.call("triple_add", vec![Value::Int(5)]).unwrap(),
            Value::Int(15)
        );
    }

    #[test]
    fn function_values_follow_slot_rebinding() {
        let mut b = ModuleBuilder::new("m", "v1");
        b.function("f", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Ret);
        });
        let fsym = b.declare_fn("f", FnSig::new(vec![], Ty::Int));
        b.function(
            "call_through_value",
            FnSig::new(vec![], Ty::Int),
            move |fb| {
                fb.emit(Instr::PushFn(fsym));
                fb.emit(Instr::CallIndirect);
                fb.emit(Instr::Ret);
            },
        );
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();
        assert_eq!(p.call("call_through_value", vec![]).unwrap(), Value::Int(1));

        let mut b = ModuleBuilder::new("patch", "v2");
        b.function("f", FnSig::new(vec![], Ty::Int), |f| {
            f.emit(Instr::PushInt(2));
            f.emit(Instr::Ret);
        });
        let planned = p
            .link_functions(&b.finish(), &LinkOverrides::default())
            .unwrap();
        for (name, id) in planned {
            p.bind_function(&name, id);
        }
        assert_eq!(p.call("call_through_value", vec![]).unwrap(), Value::Int(2));
    }

    #[test]
    fn unbinding_makes_future_calls_trap() {
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&arith_module()).unwrap();
        p.unbind_function("add");
        let e = p.call("triple_add", vec![Value::Int(1)]).unwrap_err();
        assert_eq!(e, Trap::UnboundSlot("add".to_string()));
    }

    #[test]
    fn deep_recursion_overflows_gracefully() {
        let mut b = ModuleBuilder::new("m", "v1");
        let rec = b.declare_fn("spin", FnSig::new(vec![Ty::Int], Ty::Int));
        b.function("spin", FnSig::new(vec![Ty::Int], Ty::Int), move |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushInt(1));
            f.emit(Instr::Add);
            f.emit(Instr::Call(rec));
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Static);
        p.max_stack_depth = 64;
        p.load_module(&b.finish()).unwrap();
        assert_eq!(
            p.call("spin", vec![Value::Int(0)]).unwrap_err(),
            Trap::StackOverflow
        );
    }

    #[test]
    fn string_operations() {
        let mut b = ModuleBuilder::new("m", "v1");
        let hello = b.string("hello ");
        b.function("greet", FnSig::new(vec![Ty::Str], Ty::Str), move |f| {
            f.emit(Instr::PushStr(hello));
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::Concat);
            f.emit(Instr::Ret);
        });
        b.function("head3", FnSig::new(vec![Ty::Str], Ty::Str), |f| {
            f.emit(Instr::LoadLocal(0));
            f.emit(Instr::PushInt(0));
            f.emit(Instr::PushInt(3));
            f.emit(Instr::Substr);
            f.emit(Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Static);
        p.load_module(&b.finish()).unwrap();
        assert_eq!(
            p.call("greet", vec![Value::str("world")]).unwrap(),
            Value::str("hello world")
        );
        assert_eq!(
            p.call("head3", vec![Value::str("abcdef")]).unwrap(),
            Value::str("abc")
        );
        assert_eq!(
            p.call("head3", vec![Value::str("ab")]).unwrap(),
            Value::str("ab")
        );
    }
}
