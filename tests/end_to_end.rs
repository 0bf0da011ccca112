//! Integration tests spanning the whole stack:
//! popcorn → tal → verifier → vm → dsu-core → flashed.

use dsu::prelude::*;
use flashed::{parse_response, patch_stream, versions, Server, ServerConfig, SimFs, Workload};

fn boot(src: &str) -> Process {
    let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).expect("compiles");
    tal::verify_module(&m, &tal::NoAmbientTypes).expect("verifies");
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).expect("links");
    p
}

#[test]
fn compile_verify_run_pipeline_both_modes() {
    let src = r#"
        struct acc { total: int }
        global state: acc = acc { total: 0 };
        fun add(n: int): int {
            state.total = state.total + n;
            return state.total;
        }
    "#;
    for mode in [LinkMode::Static, LinkMode::Updateable] {
        let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
        let mut p = Process::new(mode);
        p.load_module(&m).unwrap();
        assert_eq!(p.call("add", vec![Value::Int(3)]).unwrap(), Value::Int(3));
        assert_eq!(p.call("add", vec![Value::Int(4)]).unwrap(), Value::Int(7));
    }
}

#[test]
fn sequential_patches_compose() {
    // v1 -> v2 (body change) -> v3 (signature change with caller update).
    let mut p = boot(
        r#"
        fun scale(x: int): int { return x * 2; }
        fun run(x: int): int { return scale(x); }
        "#,
    );
    let p2 = compile_patch(
        "fun scale(x: int): int { return x * 3; }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["scale".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    apply_patch(&mut p, &p2, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("run", vec![Value::Int(5)]).unwrap(), Value::Int(15));

    let p3 = compile_patch(
        r#"
        fun scale(x: int, f: int): int { return x * f; }
        fun run(x: int): int { return scale(x, 10); }
        "#,
        "v2",
        "v3",
        &interface_of(&p),
        Manifest {
            replaces: vec!["scale".into(), "run".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    apply_patch(&mut p, &p3, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("run", vec![Value::Int(5)]).unwrap(), Value::Int(50));
}

#[test]
fn multiple_patches_apply_at_one_update_point() {
    let mut p = boot(
        r#"
        fun tick(): int { return 1; }
        fun spin(n: int): int {
            var acc: int = 0;
            var i: int = 0;
            while (i < n) {
                acc = acc + tick();
                update;
                i = i + 1;
            }
            return acc;
        }
        "#,
    );
    let mut up = Updater::new();
    let patch_a = compile_patch(
        "fun tick(): int { return 10; }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["tick".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    // Patch B compiles against the interface as of v2 (same sigs here).
    let patch_b = compile_patch(
        "fun tick(): int { return 100; }",
        "v2",
        "v3",
        &interface_of(&p),
        Manifest {
            replaces: vec!["tick".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    up.enqueue(&mut p, patch_a);
    up.enqueue(&mut p, patch_b);
    // First iteration runs v1's tick; both patches land at the first
    // update point; the remaining two iterations run v3's tick.
    assert_eq!(
        up.run(&mut p, "spin", vec![Value::Int(3)]).unwrap(),
        Value::Int(201)
    );
    assert_eq!(up.log().len(), 2);
}

#[test]
fn strict_updater_surfaces_failed_patches() {
    let mut p = boot("fun work(): int { update; return 1; }");
    // Malformed manifest: claims to replace a function it does not define.
    let bad = compile_patch(
        "fun other(): int { return 2; }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["work".into()],
            adds: vec!["other".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    let mut up = Updater::new();
    up.enqueue(&mut p, bad);
    let e = up.run(&mut p, "work", vec![]).unwrap_err();
    assert!(matches!(e, dsu::core::RunError::Update(_)), "{e}");
    // The process is intact and runnable after the failure.
    assert!(!p.is_suspended());
    assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
}

#[test]
fn non_strict_updater_continues_on_old_version() {
    let mut p = boot("fun work(): int { update; return 1; }");
    let bad = compile_patch(
        "fun other(): int { return 2; }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["work".into()],
            adds: vec!["other".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    let mut up = Updater::new();
    up.strict = false;
    up.enqueue(&mut p, bad);
    assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
    assert_eq!(up.failures().len(), 1);
    assert_eq!(up.log().len(), 0);
}

#[test]
fn flashed_stream_then_rollback_to_every_version() {
    let fs = SimFs::generate_fixed(8, 256, 1);
    let mut wl = Workload::new(fs.paths(), 1.0, 2);
    let mut server = Server::start(&ServerConfig::new(), &versions::v1(), "v1", fs).unwrap();

    for gen in patch_stream().unwrap() {
        server.push_requests(wl.batch(20));
        server.queue_patch(gen.patch);
        server.serve().unwrap();
    }
    // Every forward apply left its pre-update snapshot in the ring.
    let retired: Vec<String> = server
        .updater
        .snapshot_transitions()
        .into_iter()
        .map(|(from, _)| from)
        .collect();
    assert_eq!(retired, ["v1", "v2", "v3", "v4"]);

    // Roll all the way back to v1 and verify v1 behaviour (no
    // Content-Type header).
    assert_eq!(server.remote().enqueue_rollback_chain(4), 4);
    assert_eq!(server.apply_pending_now().unwrap(), 4);
    assert!(server.updater.snapshot_transitions().is_empty());
    server.push_requests(wl.batch(5));
    server.serve().unwrap();
    let last = server.completions().pop().unwrap();
    let resp = parse_response(&last.response).unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("content-type").is_none(),
        "v1 has no content-type"
    );
}

#[test]
fn state_identity_patched_vs_fresh() {
    // Behavioural equivalence: a v1 process patched to v2 must answer
    // future requests exactly like a fresh v2 process whose state was
    // built the same way.
    let v1 = r#"
        struct item { k: string, n: int }
        global items: [item] = new [item];
        fun add(k: string, n: int): unit { push(items, item { k: k, n: n }); }
        fun sum(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(items)) { s = s + items[i].n; i = i + 1; }
            return s;
        }
    "#;
    let v2 = r#"
        struct item { k: string, n: int, flag: bool }
        global items: [item] = new [item];
        fun add(k: string, n: int): unit { push(items, item { k: k, n: n, flag: false }); }
        fun sum(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(items)) {
                if (!items[i].flag) { s = s + items[i].n; }
                i = i + 1;
            }
            return s;
        }
    "#;
    let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();

    // Patched world.
    let mut patched = boot(v1);
    for i in 0..10 {
        patched
            .call("add", vec![Value::str(format!("k{i}")), Value::Int(i)])
            .unwrap();
    }
    apply_patch(&mut patched, &gen.patch, UpdatePolicy::default()).unwrap();
    for i in 10..15 {
        patched
            .call("add", vec![Value::str(format!("k{i}")), Value::Int(i)])
            .unwrap();
    }

    // Fresh v2 world with the same logical history.
    let m2 = popcorn::compile(v2, "app", "v2", &popcorn::Interface::new()).unwrap();
    let mut fresh = Process::new(LinkMode::Updateable);
    fresh.load_module(&m2).unwrap();
    for i in 0..15 {
        fresh
            .call("add", vec![Value::str(format!("k{i}")), Value::Int(i)])
            .unwrap();
    }

    assert_eq!(
        patched.call("sum", vec![]).unwrap(),
        fresh.call("sum", vec![]).unwrap(),
        "patched process must be observationally equivalent to fresh v2"
    );
}

#[test]
fn heap_accounting_reflects_transformed_state() {
    let v1 = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i }); i = i + 1; }
            return len(data);
        }
        fun ids(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let v2 = r#"
        struct rec { id: int, note: string }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i, note: "" }); i = i + 1; }
            return len(data);
        }
        fun ids(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
    let mut p = boot(v1);
    p.call("fill", vec![Value::Int(1000)]).unwrap();
    // Measured by the caller, outside the pause: a heap walk is O(state).
    let heap_before = p.heap_size();
    apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    // The update converts no record; each grows on its first touch.
    assert_eq!(p.heap_size(), heap_before);
    p.call("ids", vec![]).unwrap();
    let heap_after = p.heap_size();
    // Records grew by one field each: heap after > heap before.
    assert!(
        heap_after > heap_before,
        "before {heap_before} after {heap_after}"
    );
}

#[test]
fn tal_text_round_trips_every_real_module() {
    // The text object-code format must round-trip everything the compiler
    // produces: all FlashEd versions and every generated patch module.
    for (name, src) in versions::all() {
        let m = popcorn::compile(&src, "flashed", name, &popcorn::Interface::new()).unwrap();
        let text = tal::text::emit(&m);
        let back = tal::text::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m, back, "{name}");
    }
    for gen in patch_stream().unwrap() {
        let text = tal::text::emit(&gen.patch.module);
        let back = tal::text::parse(&text).unwrap();
        assert_eq!(gen.patch.module, back);
    }
}

#[test]
fn patch_files_round_trip_and_apply() {
    let fs = SimFs::generate_fixed(8, 256, 1);
    let mut wl = Workload::new(fs.paths(), 1.0, 2);
    let mut server = Server::start(&ServerConfig::new(), &versions::v3(), "v3", fs).unwrap();
    server.push_requests(wl.batch(40));
    server.serve().unwrap();

    // Serialise the type-changing patch to its file form and back.
    let gen = PatchGen::new()
        .generate(&versions::v3(), &versions::v4(), "v3", "v4")
        .unwrap();
    let file = dsu::core::save_patch(&gen.patch);
    let loaded = dsu::core::load_patch(&file).unwrap();
    assert_eq!(loaded, gen.patch);

    // The loaded patch applies and remaps state like the original.
    server.queue_patch(loaded);
    server.apply_pending_now().unwrap();
    let report = &server.updater.log()[0];
    assert_eq!((report.types_changed, report.globals_transformed), (1, 0));
    let hits = server
        .process_mut()
        .call("cache_hits_total", vec![])
        .unwrap();
    assert_eq!(hits, Value::Int(0));
}

#[test]
fn optimizer_preserves_kernel_and_server_semantics() {
    // Every kernel and FlashEd version must behave identically when
    // compiled with the peephole optimiser.
    let src = r#"
        fun fib(n: int): int {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fun constfold(): int { return 2 * 3 + 10 / 2 - (1 + 1); }
        fun branches(x: int): int {
            if (true) { x = x + 1; }
            if (1 > 2) { x = x + 1000; }
            while (false) { x = x + 1000000; }
            return x;
        }
    "#;
    let plain = popcorn::compile(src, "t", "v1", &popcorn::Interface::new()).unwrap();
    let (opt, stats) = popcorn::compile_opt(src, "t", "v1", &popcorn::Interface::new()).unwrap();
    assert!(stats.after < stats.before, "{stats:?}");
    tal::verify_module(&opt, &tal::NoAmbientTypes).unwrap();

    let mut p1 = Process::new(LinkMode::Updateable);
    p1.load_module(&plain).unwrap();
    let mut p2 = Process::new(LinkMode::Updateable);
    p2.load_module(&opt).unwrap();
    for n in [0i64, 1, 7, 15] {
        assert_eq!(
            p1.call("fib", vec![Value::Int(n)]).unwrap(),
            p2.call("fib", vec![Value::Int(n)]).unwrap()
        );
        assert_eq!(
            p1.call("branches", vec![Value::Int(n)]).unwrap(),
            p2.call("branches", vec![Value::Int(n)]).unwrap()
        );
    }
    assert_eq!(p2.call("constfold", vec![]).unwrap(), Value::Int(9));
    // The optimised process executed fewer instructions for the same work.
    assert!(
        p2.stats.instrs < p1.stats.instrs,
        "{} vs {}",
        p2.stats.instrs,
        p1.stats.instrs
    );

    for (name, vsrc) in versions::all() {
        let (opt, _) =
            popcorn::compile_opt(&vsrc, "flashed", name, &popcorn::Interface::new()).unwrap();
        tal::verify_module(&opt, &tal::NoAmbientTypes).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn code_gc_collects_superseded_versions_only() {
    let mut p = boot(
        r#"
        fun helper(): int { return 1; }
        fun f(): int { return helper(); }
        "#,
    );
    // Three successive replacements of `helper`.
    for (i, body) in ["return 2;", "return 3;", "return 4;"].iter().enumerate() {
        let patch = compile_patch(
            &format!("fun helper(): int {{ {body} }}"),
            &format!("v{}", i + 1),
            &format!("v{}", i + 2),
            &interface_of(&p),
            Manifest {
                replaces: vec!["helper".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
    }
    assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(4));
    assert_eq!(p.code_store_len(), 5, "v1 helper+f plus three replacements");

    let (collected, retained) = p.collect_code();
    assert_eq!(collected, 3, "the three superseded helpers");
    assert_eq!(retained, 2);
    // The live world is untouched.
    assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(4));

    // A second collection finds nothing new.
    let (collected, _) = p.collect_code();
    assert_eq!(collected, 0);
}

#[test]
fn code_gc_keeps_functions_held_as_values() {
    // A function value stored in global state pins its (direct-mode)
    // target; under updateable linking values hold slots, which pin
    // whatever the slot currently targets.
    let mut p = boot(
        r#"
        global handler: fn(int): int = &first;
        fun first(x: int): int { return x + 1; }
        fun call_it(x: int): int {
            var h: fn(int): int = handler;
            return h(x);
        }
        "#,
    );
    let patch = compile_patch(
        "fun first(x: int): int { return x + 100; }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["first".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
    let (collected, _) = p.collect_code();
    assert_eq!(collected, 1, "old `first` unreachable through the slot");
    assert_eq!(
        p.call("call_it", vec![Value::Int(1)]).unwrap(),
        Value::Int(101)
    );
}
