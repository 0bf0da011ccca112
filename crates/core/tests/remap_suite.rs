//! Records migrate on first touch: a mechanical type change arms a
//! per-record remap at bind, and each record converts itself the first
//! time code expecting the other layout touches it — forward after an
//! update, backward after a rollback.

use std::time::Duration;

use dsu_core::{
    apply_patch, compile_patch, interface_of, Manifest, ManualTransformer, PatchGen, UpdateError,
    UpdatePolicy,
};
use vm::{LinkMode, Process, Trap, Value};

fn boot(src: &str) -> Process {
    let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).unwrap();
    p
}

const V1: &str = r#"
    struct rec { id: int, tag: string }
    global data: [rec] = new [rec];
    global also: [rec] = new [rec];
    fun fill(n: int): int {
        var i: int = 0;
        while (i < n) { push(data, rec { id: i * 2, tag: "t" }); i = i + 1; }
        return len(data);
    }
    fun total(): int {
        var s: int = 0;
        var i: int = 0;
        while (i < len(data)) { s = s + data[i].id; i = i + 1; }
        return s;
    }
    fun share(): int { also = data; return len(also); }
"#;

const V2: &str = r#"
    struct rec { id: int, tag: string, seen: int }
    global data: [rec] = new [rec];
    global also: [rec] = new [rec];
    fun fill(n: int): int {
        var i: int = 0;
        while (i < n) { push(data, rec { id: i * 2, tag: "t", seen: 0 }); i = i + 1; }
        return len(data);
    }
    fun total(): int {
        var s: int = 0;
        var i: int = 0;
        while (i < len(data)) { s = s + data[i].id + data[i].seen; i = i + 1; }
        return s;
    }
    fun share(): int { also = data; return len(also); }
    fun grow(id: int): int { push(also, rec { id: id, tag: "", seen: 1 }); return len(data); }
"#;

/// The remap's mapping written as a hand-written transformer, which runs
/// eagerly in the pause.
fn eager_gen() -> dsu_core::GeneratedPatch {
    PatchGen::new()
        .with_manual(ManualTransformer {
            global: "data".into(),
            function: "xdata".into(),
            source: r#"
                fun xdata(old: [rec__old]): [rec] {
                    var out: [rec] = new [rec];
                    var i: int = 0;
                    while (i < len(old)) {
                        push(out, rec { id: old[i].id, tag: old[i].tag, seen: 0 });
                        i = i + 1;
                    }
                    return out;
                }
            "#
            .into(),
        })
        .with_manual(ManualTransformer {
            global: "also".into(),
            function: "xalso".into(),
            source: r#"
                fun xalso(old: [rec__old]): [rec] {
                    var out: [rec] = new [rec];
                    var i: int = 0;
                    while (i < len(old)) {
                        push(out, rec { id: old[i].id, tag: old[i].tag, seen: 0 });
                        i = i + 1;
                    }
                    return out;
                }
            "#
            .into(),
        })
        .generate(V1, V2, "v1", "v2")
        .unwrap()
}

#[test]
fn an_apply_on_100k_records_converts_none_until_they_are_touched() {
    let gen = PatchGen::new().generate(V1, V2, "v1", "v2").unwrap();
    assert_eq!(gen.patch.manifest.remaps, vec!["rec".to_string()]);
    let mut p = boot(V1);
    p.call("fill", vec![Value::Int(100_000)]).unwrap();
    let before = p.call("total", vec![]).unwrap();

    let report = apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(p.stats.records_migrated, 0);
    assert!(
        report.timings.transform < Duration::from_micros(100),
        "{:?}",
        report.timings
    );
    assert_eq!(p.call("total", vec![]).unwrap(), before);
    assert_eq!(p.stats.records_migrated, 100_000);
    assert_eq!(p.call("total", vec![]).unwrap(), before);
    assert_eq!(p.stats.records_migrated, 100_000, "a second scan adds 0");
}

#[test]
fn the_pause_excludes_the_conversion_cost() {
    let (remap, eager) = (
        PatchGen::new().generate(V1, V2, "v1", "v2").unwrap(),
        eager_gen(),
    );
    let mut timed = Vec::new();
    let mut totals = Vec::new();
    for gen in [&remap, &eager] {
        let mut p = boot(V1);
        p.call("fill", vec![Value::Int(20_000)]).unwrap();
        let report = apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
        timed.push(report.timings.total());
        totals.push(p.call("total", vec![]).unwrap());
    }
    assert!(
        timed[0] * 10 < timed[1],
        "remap pause {:?} must be far below eager {:?}",
        timed[0],
        timed[1]
    );
    assert_eq!(totals[0], totals[1], "both end at the same state");
}

#[test]
fn the_first_read_after_a_rollback_sees_the_rolled_back_layout() {
    let gen = PatchGen::new().generate(V1, V2, "v1", "v2").unwrap();
    let mut p = boot(V1);
    p.call("fill", vec![Value::Int(5)]).unwrap();
    let v1_rec = p.struct_id("rec").unwrap();
    let snap = p.snapshot();
    apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    // v2 code converts every record it reads...
    assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(20));
    assert_eq!(p.stats.records_migrated, 5);
    p.restore(snap);
    // ...and after the rollback v1 code converts them back on first read.
    assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(2 + 4 + 6 + 8));
    assert_eq!(p.stats.records_migrated, 10);
    let Some(Value::Array(data)) = p.global_value("data") else {
        panic!("data is an array")
    };
    for r in data.borrow().iter() {
        let Value::Record(r) = r else { panic!() };
        assert_eq!(r.struct_id.get(), v1_rec);
        assert_eq!(r.fields.borrow().len(), 2);
    }
}

#[test]
fn aliased_arrays_stay_aliased_across_the_update() {
    let gen = PatchGen::new().generate(V1, V2, "v1", "v2").unwrap();
    let mut p = boot(V1);
    p.call("fill", vec![Value::Int(3)]).unwrap();
    assert_eq!(p.call("share", vec![]).unwrap(), Value::Int(3));
    apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    // A push through `also` shows through `data`: one array, still. (The
    // eager transformers of `eager_gen` build one new array per global,
    // splitting the alias.)
    assert_eq!(p.call("grow", vec![Value::Int(10)]).unwrap(), Value::Int(4));
    assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(17));

    let mut split = boot(V1);
    split.call("fill", vec![Value::Int(3)]).unwrap();
    split.call("share", vec![]).unwrap();
    apply_patch(&mut split, &eager_gen().patch, UpdatePolicy::default()).unwrap();
    assert_eq!(
        split.call("grow", vec![Value::Int(10)]).unwrap(),
        Value::Int(3)
    );
}

#[test]
fn a_record_with_no_remap_path_is_a_typed_trap() {
    let mut p = boot(
        r#"
        struct s { v: int }
        global g: s = s { v: 4 };
        fun read(): int { return g.v; }
        fun write(): int { g.v = 9; return 0; }
        "#,
    );
    let bound = p.struct_id("s").unwrap();
    // A layout nothing converts from: no patch armed an edge to it.
    let stray = p.register_struct(tal::TypeDef::new(
        "s",
        vec![tal::Field::new("v", tal::Ty::Int)],
    ));
    assert!(p.set_global("g", Value::record(stray, vec![Value::Int(4)])));
    let stale = Trap::StaleRecord {
        found: stray,
        expected: bound,
    };
    assert_eq!(p.call("read", vec![]).unwrap_err(), stale);
    assert_eq!(p.call("write", vec![]).unwrap_err(), stale);
    assert!(p.arm_remap(stray, bound).is_ok());
    assert_eq!(p.call("read", vec![]).unwrap(), Value::Int(4));
}

#[test]
fn a_changed_type_nested_in_an_unchanged_struct_converts() {
    let v1 = r#"
        struct entry { k: int }
        struct holder { e: entry }
        global h: holder = holder { e: entry { k: 7 } };
        fun get(): int { return h.e.k; }
    "#;
    let v2 = r#"
        struct entry { k: int, extra: int }
        struct holder { e: entry }
        global h: holder = holder { e: entry { k: 7, extra: 0 } };
        fun get(): int { return h.e.extra + h.e.k; }
    "#;
    let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
    assert_eq!(gen.patch.manifest.remaps, vec!["entry".to_string()]);
    let mut p = boot(v1);
    apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("get", vec![]).unwrap(), Value::Int(7));

    // Without the remap, compat reaches `entry` through `holder`'s field
    // and wants a transformer on `h`.
    let mut p = boot(v1);
    let bare = compile_patch(
        "struct entry { k: int, extra: int }\nfun get(): int { return h.e.extra + h.e.k; }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["get".into()],
            type_changes: vec!["entry".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    match apply_patch(&mut p, &bare, UpdatePolicy::default()) {
        Err(UpdateError::Compat(msg)) => {
            assert!(
                msg.contains("global `h` reaches changed type `entry`"),
                "{msg}"
            )
        }
        other => panic!("expected a compat refusal, got {other:?}"),
    }
    assert_eq!(p.call("get", vec![]).unwrap(), Value::Int(7));
}

#[test]
fn a_remap_that_does_not_derive_is_refused() {
    let mut p = boot(
        r#"
        struct s { v: int }
        global g: s = s { v: 4 };
        fun read(): int { return g.v; }
        "#,
    );
    let retyped = compile_patch(
        "struct s { v: string }\nfun read(): int { return len(g.v); }",
        "v1",
        "v2",
        &interface_of(&p),
        Manifest {
            replaces: vec!["read".into()],
            type_changes: vec!["s".into()],
            remaps: vec!["s".into()],
            ..Manifest::default()
        },
    )
    .unwrap();
    match apply_patch(&mut p, &retyped, UpdatePolicy::default()) {
        Err(UpdateError::Compat(msg)) => assert!(msg.contains("cannot be remapped"), "{msg}"),
        other => panic!("expected a compat refusal, got {other:?}"),
    }
    assert_eq!(p.call("read", vec![]).unwrap(), Value::Int(4));
}
