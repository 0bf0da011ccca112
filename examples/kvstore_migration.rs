//! A key-value store whose record representation is migrated live, with a
//! hand-written state transformer, and then rolled back.
//!
//! Shows the parts the paper leaves to the programmer: a manual
//! transformer for a non-mechanical change (splitting one field into two)
//! and undoing a bad update.
//!
//! Run with: `cargo run --example kvstore_migration`

use dsu::prelude::*;

const V1: &str = r#"
struct kv { key: string, value: string }

global store: [kv] = new [kv];

fun put(k: string, v: string): unit {
    var i: int = 0;
    while (i < len(store)) {
        if (store[i].key == k) { store[i].value = v; return; }
        i = i + 1;
    }
    push(store, kv { key: k, value: v });
}

fun get(k: string): string {
    var i: int = 0;
    while (i < len(store)) {
        if (store[i].key == k) { return store[i].value; }
        i = i + 1;
    }
    return "";
}

fun size(): int { return len(store); }
"#;

/// v2 splits `value` into a payload plus a version stamp — not a
/// mechanical field addition, so the patch generator requires a manual
/// transformer.
const V2: &str = r#"
struct kv { key: string, payload: string, revision: int }

global store: [kv] = new [kv];

fun put(k: string, v: string): unit {
    var i: int = 0;
    while (i < len(store)) {
        if (store[i].key == k) {
            store[i].payload = v;
            store[i].revision = store[i].revision + 1;
            return;
        }
        i = i + 1;
    }
    push(store, kv { key: k, payload: v, revision: 1 });
}

fun get(k: string): string {
    var i: int = 0;
    while (i < len(store)) {
        if (store[i].key == k) { return store[i].payload; }
        i = i + 1;
    }
    return "";
}

fun revision(k: string): int {
    var i: int = 0;
    while (i < len(store)) {
        if (store[i].key == k) { return store[i].revision; }
        i = i + 1;
    }
    return 0;
}

fun size(): int { return len(store); }
"#;

const MIGRATE_STORE: &str = r#"
fun migrate_store(old: [kv__old]): [kv] {
    var out: [kv] = new [kv];
    var i: int = 0;
    while (i < len(old)) {
        push(out, kv { key: old[i].key, payload: old[i].value, revision: 1 });
        i = i + 1;
    }
    return out;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Boot v1 and fill it with data.
    let module = popcorn::compile(V1, "kvstore", "v1", &popcorn::Interface::new())?;
    let mut proc = Process::new(LinkMode::Updateable);
    proc.load_module(&module)?;
    for (k, v) in [("lang", "rust"), ("paper", "pldi01"), ("city", "zagreb")] {
        proc.call("put", vec![Value::str(k), Value::str(v)])?;
    }
    println!(
        "v1: {} entries, get(paper) = {}",
        proc.call("size", vec![])?,
        proc.call("get", vec![Value::str("paper")])?
    );

    // Generate the patch with the hand-written transformer.
    let gen = PatchGen::new()
        .with_manual(dsu::core::ManualTransformer {
            global: "store".into(),
            function: "migrate_store".into(),
            source: MIGRATE_STORE.into(),
        })
        .generate(V1, V2, "v1", "v2")?;
    println!(
        "\npatch v1->v2: {} changed, {} carried, {} added, {} types changed, {} transformers",
        gen.stats.functions_changed,
        gen.stats.functions_carried,
        gen.stats.functions_added,
        gen.stats.types_changed,
        gen.stats.transformers,
    );

    // Apply through an `Updater`, whose snapshot ring records the
    // pre-update state for rollback.
    let mut updater = Updater::new();
    updater.enqueue(&mut proc, gen.patch);
    updater.apply_pending(&mut proc)?;
    println!("applied: {}", updater.log()[0]);
    println!(
        "v2: get(paper) = {}, revision(paper) = {}",
        proc.call("get", vec![Value::str("paper")])?,
        proc.call("revision", vec![Value::str("paper")])?,
    );
    proc.call("put", vec![Value::str("paper"), Value::str("toplas05")])?;
    println!(
        "after put: get(paper) = {}, revision(paper) = {}",
        proc.call("get", vec![Value::str("paper")])?,
        proc.call("revision", vec![Value::str("paper")])?,
    );

    // The operator decides v2 is bad: roll back.
    updater.enqueue_snapshot_rollback(&mut proc);
    updater.apply_pending(&mut proc)?;
    println!(
        "\nrolled back to v1: {} entries, get(paper) = {}",
        proc.call("size", vec![])?,
        proc.call("get", vec![Value::str("paper")])?,
    );
    Ok(())
}
