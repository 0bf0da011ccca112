//! Patch-generator edge-case suite.

use dsu_core::{apply_patch, PatchGen, PatchGenError, UpdatePolicy};
use vm::{LinkMode, Process, Value};

fn boot(src: &str) -> Process {
    let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).unwrap();
    p
}

fn gen(old: &str, new: &str) -> dsu_core::GeneratedPatch {
    PatchGen::new().generate(old, new, "v1", "v2").unwrap()
}

#[test]
fn identical_sources_yield_an_empty_patch() {
    let src = "fun f(): int { return 1; }";
    let g = gen(src, src);
    assert_eq!(g.stats.functions_changed, 0);
    assert_eq!(g.patch.manifest.replaces.len(), 0);
    assert_eq!(g.patch.manifest.adds.len(), 0);
    // Applying the empty patch is a harmless no-op.
    let mut p = boot(src);
    let report = apply_patch(&mut p, &g.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(report.functions_replaced, 0);
    assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(1));
}

#[test]
fn whitespace_and_comment_changes_are_not_changes() {
    let old = "fun f(x: int): int { return x + 1; }";
    let new = r#"
        // a comment
        fun f( x : int ) : int {
            return (x) + 1; /* same body */
        }
    "#;
    let g = gen(old, new);
    assert_eq!(
        g.stats.functions_changed, 0,
        "canonical form ignores formatting"
    );
}

#[test]
fn function_removal_flows_into_manifest() {
    let old = r#"
        fun helper(): int { return 1; }
        fun f(): int { return helper(); }
    "#;
    let new = "fun f(): int { return 7; }";
    let g = gen(old, new);
    assert_eq!(g.stats.functions_removed, 1);
    assert_eq!(g.patch.manifest.removes, vec!["helper".to_string()]);
    let mut p = boot(old);
    apply_patch(&mut p, &g.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(7));
    assert!(p.function_id("helper").is_none());
}

#[test]
fn new_extern_in_new_version_compiles_into_patch() {
    let old = "fun f(): int { return 1; }";
    let new = r#"
        extern fun beep(): unit;
        fun f(): int { beep(); return 2; }
    "#;
    let g = gen(old, new);
    let mut p = Process::new(LinkMode::Updateable);
    // The host must exist before the patch links.
    p.register_host(
        "beep",
        tal::FnSig::new(vec![], tal::Ty::Unit),
        Box::new(|_| Ok(Value::Unit)),
    );
    let m = popcorn::compile(old, "app", "v1", &popcorn::Interface::new()).unwrap();
    p.load_module(&m).unwrap();
    apply_patch(&mut p, &g.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(2));
}

#[test]
fn global_initialiser_change_alone_does_not_transform() {
    // Changing only a global's initial value must NOT reset live state —
    // the paper's semantics: initialisers run at program start, not at
    // updates.
    let old = "global g: int = 1; fun bump(): int { g = g + 1; return g; }";
    let new = "global g: int = 999; fun bump(): int { g = g + 1; return g; }";
    let g = gen(old, new);
    assert_eq!(g.stats.transformers, 0);
    let mut p = boot(old);
    p.call("bump", vec![]).unwrap(); // g = 2
    apply_patch(&mut p, &g.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(
        p.call("bump", vec![]).unwrap(),
        Value::Int(3),
        "state kept, not re-initialised"
    );
}

#[test]
fn struct_field_removal_is_mechanical() {
    let old = r#"
        struct rec { id: int, junk: string }
        global data: [rec] = new [rec];
        fun add(n: int): unit { push(data, rec { id: n, junk: "x" }); }
        fun first(): int { if (len(data) == 0) { return -1; } return data[0].id; }
    "#;
    let new = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun add(n: int): unit { push(data, rec { id: n }); }
        fun first(): int { if (len(data) == 0) { return -1; } return data[0].id; }
    "#;
    let g = gen(old, new);
    assert_eq!(g.stats.types_remapped, 1, "field drop is mechanical");
    assert_eq!(g.stats.transformers, 0);
    let mut p = boot(old);
    p.call("add", vec![Value::Int(42)]).unwrap();
    apply_patch(&mut p, &g.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("first", vec![]).unwrap(), Value::Int(42));
}

#[test]
fn field_type_change_requires_manual_transformer() {
    let old = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun f(): int { return len(data); }
    "#;
    let new = r#"
        struct rec { id: string }
        global data: [rec] = new [rec];
        fun f(): int { return len(data); }
    "#;
    let e = PatchGen::new().generate(old, new, "v1", "v2").unwrap_err();
    assert!(
        matches!(e, PatchGenError::NeedsManualTransformer { ref global, .. } if global == "data"),
        "{e}"
    );
}

#[test]
fn scalar_named_global_remaps_and_null_survives() {
    let old = r#"
        struct cfg { port: int }
        global config: cfg = null;
        fun port(): int { if (config == null) { return -1; } return config.port; }
    "#;
    let new = r#"
        struct cfg { port: int, tls: bool }
        global config: cfg = null;
        fun port(): int { if (config == null) { return -1; } return config.port; }
    "#;
    let g = gen(old, new);
    assert_eq!(g.stats.types_remapped, 1);
    // A null global holds no record to convert.
    let mut p = boot(old);
    apply_patch(&mut p, &g.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(p.call("port", vec![]).unwrap(), Value::Int(-1));
}

#[test]
fn generated_patch_source_is_reusable_text() {
    // The composed source itself is valid input for compile_patch with
    // the same manifest: no hidden state in GeneratedPatch.
    let old = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun get(i: int): int { return data[i].id; }
    "#;
    let new = r#"
        struct rec { id: int, hot: bool }
        global data: [rec] = new [rec];
        fun get(i: int): int { return data[i].id; }
    "#;
    let g = gen(old, new);
    let p = boot(old);
    let old_mod = popcorn::compile(old, "o", "v1", &popcorn::Interface::new()).unwrap();
    let iface = dsu_core::interface_of_module(&old_mod);
    let recompiled =
        dsu_core::compile_patch(&g.source, "v1", "v2", &iface, g.patch.manifest.clone()).unwrap();
    assert_eq!(recompiled.manifest, g.patch.manifest);
    drop(p);
}

#[test]
fn remaps_compose_across_successive_patches() {
    let src = |fields: &str, init: &str| {
        format!(
            r#"
            struct rec {{ id: int{fields} }}
            global data: [rec] = new [rec];
            fun add(n: int): int {{ push(data, rec {{ id: n{init} }}); return len(data); }}
            fun ids(): int {{
                var s: int = 0;
                var i: int = 0;
                while (i < len(data)) {{ s = s + data[i].id; i = i + 1; }}
                return s;
            }}
            "#
        )
    };
    let v1 = src("", "");
    let v2 = src(", a: int", ", a: 1");
    let v3 = src(", a: int, b: string", ", a: 1, b: \"b\"");
    let g12 = PatchGen::new().generate(&v1, &v2, "v1", "v2").unwrap();
    let g23 = PatchGen::new().generate(&v2, &v3, "v2", "v3").unwrap();
    assert!(g12.patch.manifest.transformers.is_empty());
    assert_eq!(g23.patch.manifest.remaps, vec!["rec".to_string()]);
    let mut p = boot(&v1);
    p.call("add", vec![Value::Int(5)]).unwrap();
    apply_patch(&mut p, &g12.patch, UpdatePolicy::default()).unwrap();
    p.call("add", vec![Value::Int(7)]).unwrap();
    apply_patch(&mut p, &g23.patch, UpdatePolicy::default()).unwrap();
    // The v1 record crosses two hops at once, the v2 record one.
    assert_eq!(p.call("ids", vec![]).unwrap(), Value::Int(12));
    assert_eq!(p.stats.records_migrated, 2);
}
