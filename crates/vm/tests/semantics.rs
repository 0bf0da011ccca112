//! Interpreter semantics suite: arithmetic edges, traps, aliasing,
//! suspension, linking corner cases. Guest programs are written in
//! Popcorn for readability; the properties under test are the VM's.

use popcorn::Interface;
use vm::{LinkMode, Outcome, Process, Trap, Value};

fn boot(src: &str) -> Process {
    let m = popcorn::compile(src, "t", "v1", &Interface::new()).expect("compiles");
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).expect("links");
    p
}

fn run1(src: &str, entry: &str, arg: i64) -> Result<Value, Trap> {
    boot(src).call(entry, vec![Value::Int(arg)])
}

// ----------------------------- arithmetic -----------------------------

#[test]
fn integer_arithmetic_wraps() {
    let src = "fun f(x: int): int { return x + 1; }";
    assert_eq!(run1(src, "f", i64::MAX).unwrap(), Value::Int(i64::MIN));
    let src = "fun f(x: int): int { return x * 2; }";
    assert_eq!(run1(src, "f", i64::MAX).unwrap(), Value::Int(-2));
    let src = "fun f(x: int): int { return -x; }";
    assert_eq!(run1(src, "f", i64::MIN).unwrap(), Value::Int(i64::MIN));
}

#[test]
fn division_and_remainder_signs() {
    let src = "fun f(x: int): int { return x / 3; }";
    assert_eq!(
        run1(src, "f", -7).unwrap(),
        Value::Int(-2),
        "trunc toward zero"
    );
    let src = "fun f(x: int): int { return x % 3; }";
    assert_eq!(run1(src, "f", -7).unwrap(), Value::Int(-1));
    let src = "fun f(x: int): int { return 1 % x; }";
    assert_eq!(run1(src, "f", 0).unwrap_err(), Trap::DivByZero);
}

// ------------------------------- strings -------------------------------

#[test]
fn string_ops_edges() {
    let p = |src: &str, s: &str| boot(src).call("f", vec![Value::str(s)]).unwrap();
    assert_eq!(
        p("fun f(s: string): int { return len(s); }", ""),
        Value::Int(0)
    );
    assert_eq!(
        p(
            "fun f(s: string): string { return substr(s, -5, 100); }",
            "abc"
        ),
        Value::str("abc"),
        "substr clamps"
    );
    assert_eq!(
        p(
            "fun f(s: string): string { return substr(s, 1, 0); }",
            "abc"
        ),
        Value::str("")
    );
    assert_eq!(
        p("fun f(s: string): int { return find(s, \"\"); }", "abc"),
        Value::Int(0)
    );
    assert_eq!(
        p("fun f(s: string): int { return find(s, \"zz\"); }", "abc"),
        Value::Int(-1)
    );
    assert_eq!(
        p("fun f(s: string): int { return atoi(s); }", "  42abc"),
        Value::Int(42)
    );
    assert_eq!(
        p("fun f(s: string): int { return atoi(s); }", "-"),
        Value::Int(0)
    );
}

#[test]
fn char_at_bounds_trap() {
    let src = "fun f(x: int): int { return char_at(\"ab\", x); }";
    assert_eq!(run1(src, "f", 1).unwrap(), Value::Int(i64::from(b'b')));
    assert_eq!(
        run1(src, "f", 2).unwrap_err(),
        Trap::IndexOutOfBounds { index: 2, len: 2 }
    );
    assert_eq!(
        run1(src, "f", -1).unwrap_err(),
        Trap::IndexOutOfBounds { index: -1, len: 2 }
    );
}

#[test]
fn substr_clamps_lengths_up_to_the_int_range() {
    // `start + len` saturates: a length near `i64::MAX` reads to the end,
    // in debug and release builds alike.
    let mut p = boot("fun f(s: string, i: int, n: int): int { return len(substr(s, i, n)); }");
    for (start, n, want) in [
        (1, i64::MAX, 4),
        (0, i64::MAX, 5),
        (-3, i64::MAX, 5),
        (5, i64::MAX, 0),
        (i64::MAX, i64::MAX, 0),
        (2, i64::MIN, 0),
    ] {
        let args = vec![Value::str("hello"), Value::Int(start), Value::Int(n)];
        assert_eq!(
            p.call("f", args).unwrap(),
            Value::Int(want),
            "substr(\"hello\", {start}, {n})"
        );
    }
}

#[test]
fn utf8_substr_stays_on_boundaries() {
    // Slicing through a multi-byte char must not panic; it clamps to the
    // previous boundary.
    let mut p = boot("fun f(s: string): string { return substr(s, 0, 2); }");
    let out = p.call("f", vec![Value::str("aé")]).unwrap();
    assert_eq!(out, Value::str("a"));
}

// ------------------------------- arrays -------------------------------

#[test]
fn array_bounds_traps() {
    let src = r#"
        fun f(i: int): int {
            var a: [int] = [10, 20];
            return a[i];
        }
    "#;
    assert_eq!(run1(src, "f", 1).unwrap(), Value::Int(20));
    assert_eq!(
        run1(src, "f", 2).unwrap_err(),
        Trap::IndexOutOfBounds { index: 2, len: 2 }
    );
    assert_eq!(
        run1(src, "f", -1).unwrap_err(),
        Trap::IndexOutOfBounds { index: -1, len: 2 }
    );
}

#[test]
fn arrays_and_records_alias() {
    // C-like reference semantics: two variables naming the same record
    // observe each other's writes.
    let src = r#"
        struct box { v: int }
        fun f(x: int): int {
            var a: box = box { v: x };
            var b: box = a;
            b.v = b.v + 1;
            var xs: [box] = [a];
            xs[0].v = xs[0].v + 10;
            return a.v;
        }
    "#;
    assert_eq!(run1(src, "f", 1).unwrap(), Value::Int(12));
}

#[test]
fn fresh_defaults_per_call_do_not_alias() {
    // Each call's array-typed local must be a fresh array, not a shared
    // default.
    let src = r#"
        fun f(x: int): int {
            var a: [int] = new [int];
            push(a, x);
            return len(a);
        }
    "#;
    let mut p = boot(src);
    assert_eq!(p.call("f", vec![Value::Int(1)]).unwrap(), Value::Int(1));
    assert_eq!(
        p.call("f", vec![Value::Int(1)]).unwrap(),
        Value::Int(1),
        "no leak across calls"
    );
}

// ----------------------------- suspension -----------------------------

#[test]
fn suspension_preserves_locals_and_operands() {
    let src = r#"
        fun f(x: int): int {
            var acc: int = x * 10;
            update;
            return acc + x;
        }
    "#;
    let mut p = boot(src);
    p.request_update(true);
    assert_eq!(p.run("f", vec![Value::Int(3)]).unwrap(), Outcome::Suspended);
    p.request_update(false);
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(33)));
}

#[test]
fn nested_suspension_reports_full_stack() {
    let src = r#"
        fun inner(): int { update; return 1; }
        fun outer(): int { return inner() + 1; }
    "#;
    let mut p = boot(src);
    p.request_update(true);
    assert_eq!(p.run("outer", vec![]).unwrap(), Outcome::Suspended);
    assert_eq!(
        p.suspended_stack(),
        vec!["outer".to_string(), "inner".to_string()]
    );
    p.request_update(false);
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(2)));
}

#[test]
fn calls_during_suspension_use_a_separate_stack() {
    let src = r#"
        global g: int = 0;
        fun probe(): int { return g; }
        fun f(): int { g = 7; update; return g; }
    "#;
    let mut p = boot(src);
    p.request_update(true);
    assert_eq!(p.run("f", vec![]).unwrap(), Outcome::Suspended);
    // A helper call while suspended (as transformers do) works fine.
    assert_eq!(p.call("probe", vec![]).unwrap(), Value::Int(7));
    p.request_update(false);
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(7)));
}

#[test]
fn discard_suspended_allows_fresh_runs() {
    let mut p = boot("fun f(): int { update; return 1; }");
    p.request_update(true);
    assert_eq!(p.run("f", vec![]).unwrap(), Outcome::Suspended);
    p.discard_suspended();
    p.request_update(false);
    assert_eq!(p.run("f", vec![]).unwrap(), Outcome::Done(Value::Int(1)));
}

// ------------------------------ linking ------------------------------

#[test]
fn entry_point_errors() {
    let mut p = boot("fun f(x: int): int { return x; }");
    assert_eq!(
        p.call("ghost", vec![]).unwrap_err(),
        Trap::NoSuchFunction("ghost".to_string())
    );
    assert_eq!(
        p.call("f", vec![]).unwrap_err(),
        Trap::BadEntryArity {
            expected: 1,
            got: 0
        }
    );
}

#[test]
fn duplicate_initial_load_is_rejected() {
    let m = popcorn::compile("fun f(): int { return 1; }", "t", "v1", &Interface::new()).unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).unwrap();
    let e = p.load_module(&m).unwrap_err();
    assert!(matches!(e, vm::LinkError::Duplicate(_)), "{e}");
}

#[test]
fn conflicting_type_definition_is_rejected() {
    let m1 = popcorn::compile(
        "struct s { v: int } fun f(x: s): int { return x.v; }",
        "a",
        "v1",
        &Interface::new(),
    )
    .unwrap();
    let m2 = popcorn::compile(
        "struct s { v: bool } fun g(x: s): bool { return x.v; }",
        "b",
        "v1",
        &Interface::new(),
    )
    .unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m1).unwrap();
    let e = p.load_module(&m2).unwrap_err();
    assert!(matches!(e, vm::LinkError::TypeConflict(_)), "{e}");
}

#[test]
fn identical_type_definition_is_shared() {
    let m1 = popcorn::compile(
        "struct s { v: int } fun f(x: s): int { return x.v; }",
        "a",
        "v1",
        &Interface::new(),
    )
    .unwrap();
    let m2 = popcorn::compile(
        "struct s { v: int } fun g(): s { return s { v: 3 }; }",
        "b",
        "v1",
        &Interface::new(),
    )
    .unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m1).unwrap();
    p.load_module(&m2).unwrap();
    // Records built by module b flow into module a's functions.
    let v = p.call("g", vec![]).unwrap();
    assert_eq!(p.call("f", vec![v]).unwrap(), Value::Int(3));
}

#[test]
fn init_trap_is_reported_as_link_error() {
    let m = popcorn::compile(
        "global g: int = 1 / 0; fun f(): int { return g; }",
        "t",
        "v1",
        &Interface::new(),
    )
    .unwrap();
    let mut p = Process::new(LinkMode::Static);
    let e = p.load_module(&m).unwrap_err();
    assert!(
        matches!(&e, vm::LinkError::InitTrap { name, trap: Trap::DivByZero } if name == "g"),
        "{e}"
    );
}

#[test]
fn stats_accumulate_across_calls() {
    // `calls` counts guest-to-guest calls; host-driven entries are not
    // guest calls.
    let mut p = boot(
        "fun helper(x: int): int { return x + 1; }\
         fun f(x: int): int { return helper(x); }",
    );
    p.call("f", vec![Value::Int(1)]).unwrap();
    let after_one = p.stats.instrs;
    assert_eq!(p.stats.calls, 1);
    p.call("f", vec![Value::Int(1)]).unwrap();
    assert_eq!(p.stats.instrs, after_one * 2);
    assert_eq!(p.stats.calls, 2);
}

#[test]
fn heap_size_tracks_global_state() {
    let src = r#"
        global xs: [string] = new [string];
        fun grow(): int { push(xs, "0123456789"); return len(xs); }
    "#;
    let mut p = boot(src);
    let h0 = p.heap_size();
    p.call("grow", vec![]).unwrap();
    let h1 = p.heap_size();
    assert!(h1 > h0, "{h0} -> {h1}");
    p.call("grow", vec![]).unwrap();
    assert!(p.heap_size() > h1);
}

#[test]
fn uninitialised_function_pointer_traps_not_panics() {
    let src = r#"
        fun f(): int {
            var g: fn(): int = &f;
            var h: fn(): int = g;
            return 0;
        }
        fun bad(): int {
            var g: fn(): int = &f;
            if (false) { return g(); }
            var h: fn(): int = h2();
            return h();
        }
        fun h2(): fn(): int {
            var x: fn(): int = &f;
            return x;
        }
    "#;
    // Exercise the declared-but-defaulted path through raw tal instead:
    // a fn-typed local read before assignment.
    let mut b = tal::ModuleBuilder::new("m", "v1");
    b.function("g", tal::FnSig::new(vec![], tal::Ty::Int), |f| {
        let l = f.local(tal::Ty::func(vec![], tal::Ty::Int));
        f.emit(tal::Instr::LoadLocal(l));
        f.emit(tal::Instr::CallIndirect);
        f.emit(tal::Instr::Ret);
    });
    let mut p = Process::new(LinkMode::Static);
    p.load_module(&b.finish()).unwrap();
    assert_eq!(p.call("g", vec![]).unwrap_err(), Trap::UnresolvedFn);
    // And the popcorn source above still compiles and runs.
    let mut p = boot(src);
    assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(0));
}

#[test]
fn fuel_limits_runaway_loops() {
    let mut p = boot("fun spin(): int { while (true) { } return 0; }");
    p.set_fuel(Some(10_000));
    assert_eq!(p.call("spin", vec![]).unwrap_err(), Trap::OutOfFuel);
    // Refuelling allows further work.
    p.set_fuel(Some(1_000_000));
    assert_eq!(
        boot("fun f(): int { return 1; }")
            .call("f", vec![])
            .unwrap(),
        Value::Int(1)
    );
    let mut p2 = boot("fun f(): int { return 1; }");
    p2.set_fuel(Some(1_000));
    assert_eq!(p2.call("f", vec![]).unwrap(), Value::Int(1));
    // Removing the limit restores unlimited execution.
    p2.set_fuel(None);
    assert_eq!(p2.call("f", vec![]).unwrap(), Value::Int(1));
}

// --------------------------- inline caches ---------------------------
//
// Updateable calls resolve through per-site inline caches validated
// against the process bind generation. These tests pin the contract:
// warm sites pay no table traffic, and *any* rebind — patch, deletion,
// rollback — is observed by the very next call through every site,
// including frames suspended at an update point across the change.

fn patch(p: &mut Process, src: &str) {
    let m = popcorn::compile(src, "patch", "v2", &Interface::new()).expect("patch compiles");
    let planned = p
        .link_functions(&m, &vm::LinkOverrides::default())
        .expect("patch links");
    for (name, id) in planned {
        p.bind_function(&name, id);
    }
}

const WORK: &str = r#"
    fun helper(x: int): int { return x + 1; }
    fun work(x: int): int { return helper(helper(x)); }
"#;

#[test]
fn warm_call_sites_hit_the_inline_cache() {
    let mut p = boot(WORK);
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(2));
    let first_misses = p.stats.ic_misses;
    assert!(first_misses >= 1, "first run must fill the caches");
    let first_hits = p.stats.ic_hits;
    assert_eq!(p.call("work", vec![Value::Int(5)]).unwrap(), Value::Int(7));
    assert_eq!(p.stats.ic_misses, first_misses, "warm run re-resolved");
    assert!(p.stats.ic_hits > first_hits, "warm run did not hit");
    // Every slot call is accounted as exactly one hit or one miss.
    assert_eq!(p.stats.slot_calls, p.stats.ic_hits + p.stats.ic_misses);
}

#[test]
fn rebinding_invalidates_every_warm_cache() {
    let mut p = boot(WORK);
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(2));
    let misses = p.stats.ic_misses;
    patch(&mut p, "fun helper(x: int): int { return x + 10; }");
    // The next call through the (warm) sites re-resolves and sees v2.
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(20));
    assert!(p.stats.ic_misses > misses, "rebind was not observed");
    // And the refilled caches hit again afterwards.
    let misses = p.stats.ic_misses;
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(20));
    assert_eq!(p.stats.ic_misses, misses);
}

#[test]
fn unbinding_traps_even_through_a_warm_cache() {
    let mut p = boot(WORK);
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(2));
    p.unbind_function("helper");
    assert_eq!(
        p.call("work", vec![Value::Int(0)]).unwrap_err(),
        Trap::UnboundSlot("helper".to_string())
    );
}

#[test]
fn suspended_frames_observe_patch_and_rollback() {
    let src = r#"
        fun helper(): int { return 1; }
        fun work(): int {
            var a: int = helper();
            update;
            return a * 100 + helper();
        }
    "#;
    let mut p = boot(src);
    // Warm every cache under v1.
    assert_eq!(
        p.run("work", vec![]).unwrap(),
        Outcome::Done(Value::Int(101))
    );
    let snap = p.snapshot();

    // Patch while suspended: the frame's first `helper` call happened
    // under v1 (a = 1); the call after the update point must see v2.
    p.request_update(true);
    assert_eq!(p.run("work", vec![]).unwrap(), Outcome::Suspended);
    p.request_update(false);
    patch(&mut p, "fun helper(): int { return 2; }");
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(102)));

    // Roll back while suspended: a = 2 came from v2 before the update
    // point; the restore re-binds v1, and the resumed call must see it
    // even though every cache is warm with v2.
    p.request_update(true);
    assert_eq!(p.run("work", vec![]).unwrap(), Outcome::Suspended);
    p.request_update(false);
    p.restore(snap);
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(201)));
}

#[test]
fn disabling_inline_caching_falls_back_to_table_lookups() {
    let mut p = boot(WORK);
    p.set_inline_caching(false);
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(2));
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(2));
    assert_eq!(p.stats.ic_hits + p.stats.ic_misses, 0);
    assert!(
        p.stats.slot_calls >= 4,
        "slot calls still go through the GIT"
    );
    // Re-enabling resumes caching (and still resolves correctly).
    p.set_inline_caching(true);
    assert_eq!(p.call("work", vec![Value::Int(0)]).unwrap(), Value::Int(2));
    assert!(p.stats.ic_misses >= 1);
}

#[test]
fn restore_unbinds_globals_added_after_the_snapshot() {
    // Whether the snapshot is restored directly or after a trip through
    // the codec, a global introduced since can be introduced again; its
    // old cell stays for code that already indexes it.
    for through_codec in [false, true] {
        let mut p = boot("global g: int = 1; fun f(): int { return g; }");
        let snap = p.snapshot();
        let snap = if through_codec {
            vm::decode_snapshot(&vm::encode_snapshot(&snap)).unwrap()
        } else {
            snap
        };
        p.add_global("cache", tal::Ty::Int, Value::Int(7)).unwrap();
        patch(
            &mut p,
            "global cache: int = 0; fun peek(): int { return cache; }",
        );
        assert_eq!(p.call("peek", vec![]).unwrap(), Value::Int(7));
        let cells = p.globals().count();

        p.restore(snap);
        assert_eq!(p.global_value("cache"), None, "codec={through_codec}");
        assert_eq!(p.global_value("g"), Some(Value::Int(1)));
        assert_eq!(p.globals().count(), cells, "the cell itself stays");
        p.add_global("cache", tal::Ty::Int, Value::Int(9))
            .expect("the name is free again");
        assert_eq!(p.global_value("cache"), Some(Value::Int(9)));
    }
}

// ------------------------- accounting and resume -------------------------
//
// The dispatch loop keeps the instruction counter and the frame's `pc` in
// locals. These tests pin what that must not change: `stats.instrs` counts
// one per decoded op and is stored on every way out of the loop, fuel is
// exact across frames, and a suspended frame resumes where it stopped.

/// Decoded ops a call of straight-line `func` retires up to and including
/// the first op `stop` matches.
fn ops_through(p: &Process, func: &str, stop: impl Fn(&vm::DOp) -> bool) -> u64 {
    let id = p.function_id(func).expect("bound");
    let at = p.function(id).decoded.iter().position(stop);
    at.expect("op present") as u64 + 1
}

#[test]
fn instrs_are_stored_on_every_exit_path() {
    use vm::DOp;
    let src = r#"
        struct rec { a: int }
        extern fun boom(): int;
        fun done(): int { return 1; }
        fun div(x: int): int { return 7 / x; }
        fun null_field(): int { var r: rec = null; return r.a; }
        fun bounds(i: int): int { var a: [int] = [1]; return a[i]; }
        fun host(): int { return boom() + 1; }
        fun pause(): int { update; return 1; }
    "#;
    let mut iface = Interface::new();
    iface
        .hosts
        .insert("boom".into(), tal::FnSig::new(vec![], tal::Ty::Int));
    let m = popcorn::compile(src, "t", "v1", &iface).expect("compiles");
    let mut p = Process::new(LinkMode::Updateable);
    p.register_host(
        "boom",
        tal::FnSig::new(vec![], tal::Ty::Int),
        Box::new(|_| Err(Trap::Host("boom".into()))),
    );
    p.load_module(&m).expect("links");

    let mut expect = p.stats.instrs;
    expect += ops_through(&p, "done", |d| matches!(d, DOp::Ret));
    assert_eq!(p.call("done", vec![]).unwrap(), Value::Int(1));
    assert_eq!(p.stats.instrs, expect, "Done");

    expect += ops_through(&p, "div", |d| matches!(d, DOp::Div));
    assert_eq!(
        p.call("div", vec![Value::Int(0)]).unwrap_err(),
        Trap::DivByZero
    );
    assert_eq!(p.stats.instrs, expect, "DivByZero");

    expect += ops_through(&p, "null_field", |d| matches!(d, DOp::LocalGetField(..)));
    assert_eq!(p.call("null_field", vec![]).unwrap_err(), Trap::NullDeref);
    assert_eq!(p.stats.instrs, expect, "NullDeref");

    expect += ops_through(&p, "bounds", |d| matches!(d, DOp::LocalArrayGet(..)));
    assert!(matches!(
        p.call("bounds", vec![Value::Int(4)]).unwrap_err(),
        Trap::IndexOutOfBounds { index: 4, len: 1 }
    ));
    assert_eq!(p.stats.instrs, expect, "IndexOutOfBounds");

    expect += ops_through(&p, "host", |d| matches!(d, DOp::CallHost(..)));
    assert_eq!(
        p.call("host", vec![]).unwrap_err(),
        Trap::Host("boom".into())
    );
    assert_eq!(p.stats.instrs, expect, "host call");
    assert_eq!(p.stats.host_calls, 1);

    expect += ops_through(&p, "pause", |d| matches!(d, DOp::UpdatePoint));
    p.request_update(true);
    assert_eq!(p.run("pause", vec![]).unwrap(), Outcome::Suspended);
    assert_eq!(p.stats.instrs, expect, "Suspended");
    p.request_update(false);
    expect += ops_through(&p, "pause", |d| matches!(d, DOp::Ret)) - 1;
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(1)));
    assert_eq!(p.stats.instrs, expect, "resumed to Done");
}

#[test]
fn fuel_is_exact_across_a_call_boundary() {
    let src = r#"
        fun leaf(x: int): int { return x + 1; }
        fun f(x: int): int { return leaf(x) * leaf(x + 1); }
    "#;
    let mut p = boot(src);
    p.call("f", vec![Value::Int(1)]).unwrap();
    let n = p.stats.instrs;
    assert!(n > 8, "the run crosses two calls and returns: {n}");
    // With a budget of k <= n the k-th op is the one that traps, wherever
    // it falls — caller, callee, or the call and return edges themselves.
    for k in 1..=n {
        let before = p.stats.instrs;
        p.set_fuel(Some(k));
        assert_eq!(
            p.call("f", vec![Value::Int(1)]).unwrap_err(),
            Trap::OutOfFuel,
            "budget {k} of {n}"
        );
        assert_eq!(p.stats.instrs - before, k, "budget {k} of {n}");
    }
    let before = p.stats.instrs;
    p.set_fuel(Some(n + 1));
    assert_eq!(p.call("f", vec![Value::Int(1)]).unwrap(), Value::Int(6));
    assert_eq!(p.stats.instrs - before, n);
}

#[test]
fn patch_while_suspended_resumes_at_the_saved_pc() {
    let src = r#"
        global n: int = 0;
        fun helper(): int { return 1; }
        fun work(): int {
            n = n + 1;
            var a: int = helper();
            update;
            n = n + 10;
            return a * 100 + helper();
        }
    "#;
    let mut p = boot(src);
    // Warm both call sites.
    assert_eq!(
        p.run("work", vec![]).unwrap(),
        Outcome::Done(Value::Int(101))
    );
    p.request_update(true);
    assert_eq!(p.run("work", vec![]).unwrap(), Outcome::Suspended);
    p.request_update(false);
    assert_eq!(p.global_value("n"), Some(Value::Int(12)));
    let (hits, misses) = (p.stats.ic_hits, p.stats.ic_misses);
    patch(&mut p, "fun helper(): int { return 2; }");
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(102)));
    // Nothing before the update point ran again, everything after it ran
    // once, and the one call left went cold with the rebind.
    assert_eq!(p.global_value("n"), Some(Value::Int(22)));
    assert_eq!(p.stats.ic_misses, misses + 1);
    assert_eq!(p.stats.ic_hits, hits);
}

#[test]
fn profiler_edges_balance() {
    let src = r#"
        fun inner(x: int): int { update; return x + 1; }
        fun outer(x: int): int { return inner(x) + inner(x); }
        fun bad(x: int): int { return inner(x) / 0; }
    "#;
    let mut p = boot(src);
    p.set_profiling(true);
    let armed_at = p.stats.instrs;
    p.request_update(true);
    assert_eq!(
        p.run("outer", vec![Value::Int(1)]).unwrap(),
        Outcome::Suspended
    );
    p.request_update(false);
    assert_eq!(p.resume().unwrap(), Outcome::Done(Value::Int(4)));
    assert_eq!(
        p.call("bad", vec![Value::Int(1)]).unwrap_err(),
        Trap::DivByZero
    );
    assert_eq!(p.call("outer", vec![Value::Int(2)]).unwrap(), Value::Int(6));

    let profile = p.profile().expect("armed");
    // A missed return edge would nest `inner` under itself; a missed call
    // edge would charge it to `outer`.
    let collapsed = profile.collapsed();
    let stacks: Vec<&str> = collapsed
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().0)
        .collect();
    assert_eq!(stacks, ["bad", "bad;inner", "outer", "outer;inner"]);
    let calls = profile.dispatch_counts();
    assert_eq!(calls, [("inner".to_string(), 5)]);
    // Every op is charged except the trapping run's last stretch, which no
    // edge follows.
    let charged = profile.total_ops();
    let retired = p.stats.instrs - armed_at;
    assert!(
        charged <= retired && retired - charged <= 3,
        "{charged} of {retired}"
    );
}
