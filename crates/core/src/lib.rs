//! # dsu-core — Dynamic Software Updating (PLDI 2001) in Rust
//!
//! This crate is the reproduction's primary contribution: the dynamic
//! software updating methodology of Hicks, Moore & Nettles — *verifiable
//! dynamic patches applied at programmer-chosen update points, with state
//! transformation* — implemented over the `tal`/`popcorn`/`vm` substrate.
//!
//! The moving parts:
//!
//! * [`Patch`] — new/changed code as verifiable object code plus a
//!   [`Manifest`] of interface and state deltas;
//! * [`stage`] / [`commit`] — the update pipeline in two steps: the patch
//!   is verified ahead of time where it is enqueued (the definitions the
//!   verifier consulted kept as a [`Certificate`]), then at the update
//!   point: certificate check (or full verification) → compatibility
//!   check → link → atomic bind → state transformation, with rollback on
//!   failure. [`apply_patch`] is the commit step with nothing staged;
//! * [`compat`] — the update-safety analysis that keeps a *running*
//!   program type-safe across the update (signature-change, removal and
//!   type-change rules, including against active stack frames);
//! * [`Updater`] — the runtime driver: queue patches, suspend at `update;`
//!   points, apply, resume (old frames finish under old code);
//! * [`PatchGen`] — the tooling: diff two source versions, carry in
//!   everything safety requires, remap mechanical type changes;
//! * [`SnapshotRing`] — first-class rollback: a bounded ring of
//!   pre-update snapshots per process, driving both snapshot restores and
//!   inverse-patch downgrades through the [`Updater`].
//!
//! ## Quick start
//!
//! ```
//! use dsu_core::{interface_of, compile_patch, apply_patch, Manifest, UpdatePolicy};
//! use vm::{Process, LinkMode, Value};
//!
//! // A running v1 program...
//! let v1 = popcorn::compile(
//!     "fun greet(): string { return \"hello v1\"; }",
//!     "app", "v1", &popcorn::Interface::new())?;
//! let mut proc = Process::new(LinkMode::Updateable);
//! proc.load_module(&v1)?;
//! assert_eq!(proc.call("greet", vec![])?, Value::str("hello v1"));
//!
//! // ...dynamically updated to v2.
//! let patch = compile_patch(
//!     "fun greet(): string { return \"hello v2\"; }",
//!     "v1", "v2", &interface_of(&proc),
//!     Manifest { replaces: vec!["greet".into()], ..Manifest::default() })?;
//! apply_patch(&mut proc, &patch, UpdatePolicy::default())?;
//! assert_eq!(proc.call("greet", vec![])?, Value::str("hello v2"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod apply;
pub mod compat;
pub mod iface;
pub mod patch;
pub mod patch_io;
pub mod patchgen;
pub mod report;
pub mod rollback;
pub mod runtime;

pub use apply::{
    apply_patch, commit, set_phase_probe, stage, Certificate, StagedPatch, UpdatePolicy,
};
pub use iface::interface_of;
pub use patch::{compile_patch, Manifest, Patch, Transformer, TypeAlias};
pub use patch_io::{load_patch, save_patch, PatchIoError};
pub use patchgen::{
    interface_of_module, DiffStats, GeneratedPatch, ManualTransformer, PatchGen, PatchGenError,
    ALIAS_SUFFIX,
};
pub use report::{
    FailedUpdate, FleetUpdateReport, PhaseTimings, UpdateError, UpdateReport, Verification,
};
pub use rollback::{SnapshotEntry, SnapshotRing, DEFAULT_SNAPSHOT_DEPTH};
pub use runtime::{
    decode_worker_state, Cut, DrainHook, Gate, Mark, PauseEvent, PauseLog, Progress, RunError,
    Updater, UpdaterRemote,
};

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{LinkMode, Process, Value};

    fn boot(src: &str) -> Process {
        let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&m).unwrap();
        p
    }

    #[test]
    fn method_body_change() {
        let mut p = boot("fun f(x: int): int { return x + 1; }");
        assert_eq!(p.call("f", vec![Value::Int(1)]).unwrap(), Value::Int(2));
        let patch = compile_patch(
            "fun f(x: int): int { return x * 10; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["f".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        let report = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("f", vec![Value::Int(1)]).unwrap(), Value::Int(10));
        assert_eq!(report.functions_replaced, 1);
        assert!(report.timings.total().as_nanos() > 0);
    }

    #[test]
    fn add_function_and_global() {
        let mut p = boot("fun f(): int { return 1; }");
        let patch = compile_patch(
            r#"
            global calls: int = 100;
            fun f(): int { calls = calls + 1; return calls; }
            "#,
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["f".into()],
                new_globals: vec!["calls".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(101));
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(102));
    }

    #[test]
    fn remove_function() {
        let mut p = boot("fun helper(): int { return 1; } fun f(): int { return helper(); }");
        // Removing `helper` requires replacing its caller too.
        let patch = compile_patch(
            "fun f(): int { return 42; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["f".into()],
                removes: vec!["helper".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(42));
        assert!(p.function_id("helper").is_none());
    }

    #[test]
    fn remove_with_live_reference_is_rejected() {
        let mut p = boot("fun helper(): int { return 1; } fun f(): int { return helper(); }");
        let patch = compile_patch(
            "fun unrelated(): int { return 0; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                adds: vec!["unrelated".into()],
                removes: vec!["helper".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        let e = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap_err();
        assert!(matches!(e, UpdateError::Compat(_)), "{e}");
        // Process unchanged.
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(1));
    }

    #[test]
    fn type_change_with_state_transformer() {
        let mut p = boot(
            r#"
            struct acct { owner: string, balance: int }
            global store: [acct] = [acct { owner: "ada", balance: 10 }];
            fun total(): int {
                var sum: int = 0;
                var i: int = 0;
                while (i < len(store)) { sum = sum + store[i].balance; i = i + 1; }
                return sum;
            }
            "#,
        );
        assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(10));

        // v2 adds a `frozen` field; the transformer carries balances over.
        let iface = interface_of(&p);
        let patch = compile_patch(
            r#"
            struct acct__old { owner: string, balance: int }
            struct acct { owner: string, balance: int, frozen: bool }
            fun total(): int {
                var sum: int = 0;
                var i: int = 0;
                while (i < len(store)) {
                    if (!store[i].frozen) { sum = sum + store[i].balance; }
                    i = i + 1;
                }
                return sum;
            }
            fun freeze(i: int): unit { store[i].frozen = true; }
            fun __xform_store(old: [acct__old]): [acct] {
                var out: [acct] = new [acct];
                var i: int = 0;
                while (i < len(old)) {
                    push(out, acct { owner: old[i].owner, balance: old[i].balance, frozen: false });
                    i = i + 1;
                }
                return out;
            }
            "#,
            "v1",
            "v2",
            &iface,
            Manifest {
                replaces: vec!["total".into()],
                adds: vec!["freeze".into(), "__xform_store".into()],
                type_changes: vec!["acct".into()],
                type_aliases: vec![TypeAlias {
                    alias: "acct__old".into(),
                    target: "acct".into(),
                }],
                transformers: vec![Transformer {
                    global: "store".into(),
                    function: "__xform_store".into(),
                }],
                ..Manifest::default()
            },
        )
        .unwrap();
        let report = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
        assert_eq!(report.globals_transformed, 1);
        assert_eq!(report.types_changed, 1);
        // Old balance carried across the representation change.
        assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(10));
        p.call("freeze", vec![Value::Int(0)]).unwrap();
        assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(0));
    }

    #[test]
    fn type_change_without_transformer_is_rejected() {
        let mut p = boot(
            r#"
            struct s { v: int }
            global g: s = s { v: 1 };
            fun f(): int { return g.v; }
            "#,
        );
        let patch = compile_patch(
            r#"
            struct s { v: int, w: int }
            fun f(): int { return g.v + g.w; }
            "#,
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["f".into()],
                type_changes: vec!["s".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        let e = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap_err();
        assert!(e.to_string().contains("transformer"), "{e}");
    }

    #[test]
    fn signature_change_requires_callers_updated() {
        let mut p = boot(
            r#"
            fun helper(x: int): int { return x; }
            fun f(): int { return helper(1); }
            "#,
        );
        // Change helper's signature without updating its caller: rejected.
        let patch = compile_patch(
            "fun helper(x: int, y: int): int { return x + y; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["helper".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        let e = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap_err();
        assert!(e.to_string().contains("caller"), "{e}");

        // Updating the caller in the same patch: accepted.
        let patch = compile_patch(
            r#"
            fun helper(x: int, y: int): int { return x + y; }
            fun f(): int { return helper(1, 2); }
            "#,
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["helper".into(), "f".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(3));
    }

    #[test]
    fn malformed_patch_fails_verification() {
        let mut p = boot("fun f(): int { return 1; }");
        // Hand-build a patch whose code lies about its return type.
        let mut b = tal::ModuleBuilder::new("evil", "v2");
        b.function("f", tal::FnSig::new(vec![], tal::Ty::Int), |fb| {
            fb.emit(tal::Instr::PushBool(true));
            fb.emit(tal::Instr::Ret);
        });
        let patch = Patch {
            from_version: "v1".into(),
            to_version: "v2".into(),
            module: b.finish(),
            manifest: Manifest {
                replaces: vec!["f".into()],
                ..Manifest::default()
            },
        };
        let e = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap_err();
        assert!(matches!(e, UpdateError::Verify(_)), "{e}");
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(1));
    }

    #[test]
    fn updater_applies_at_update_points_only() {
        let mut p = boot(
            r#"
            global log: [int] = new [int];
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
        // Without a queued patch, runs complete normally.
        assert_eq!(
            up.run(&mut p, "spin", vec![Value::Int(3)]).unwrap(),
            Value::Int(3)
        );

        // Queue a patch; it applies at the first update point, so later
        // iterations see the new `tick`.
        let patch = compile_patch(
            "fun tick(): int { return 100; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["tick".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        up.enqueue(&mut p, patch);
        // First iteration runs old tick (update point is after the call).
        assert_eq!(
            up.run(&mut p, "spin", vec![Value::Int(3)]).unwrap(),
            Value::Int(1 + 100 + 100)
        );
        assert_eq!(up.log().len(), 1);
        assert_eq!(up.pending_count(), 0);
    }

    #[test]
    fn update_while_active_frame_continues_old_code() {
        // The suspended function itself is replaced; its current frame
        // must finish under the old code (paper semantics), while future
        // calls reach the new version.
        let mut p = boot(
            r#"
            fun work(): int {
                update;
                return 1;
            }
            "#,
        );
        let patch = compile_patch(
            "fun work(): int { update; return 2; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["work".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        let mut up = Updater::new();
        up.enqueue(&mut p, patch);
        // The in-flight activation returns the OLD value...
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
        // ...and the next call the new one.
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(2));
    }

    #[test]
    fn strict_activeness_policy_refuses_active_code() {
        let mut p = boot("fun work(): int { update; return 1; }");
        let patch = compile_patch(
            "fun work(): int { return 2; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["work".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        let mut up = Updater::with_policy(UpdatePolicy {
            verify: true,
            refuse_active: true,
        });
        up.enqueue(&mut p, patch);
        let e = up.run(&mut p, "work", vec![]).unwrap_err();
        assert!(
            matches!(e, RunError::Update(UpdateError::ActiveCode(_))),
            "{e}"
        );
    }

    #[test]
    fn patchgen_end_to_end_method_body() {
        let v1 = "fun f(x: int): int { return x + 1; }\nfun g(): int { return f(0); }";
        let v2 = "fun f(x: int): int { return x + 2; }\nfun g(): int { return f(0); }";
        let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
        assert_eq!(gen.stats.functions_changed, 1);
        assert_eq!(gen.stats.functions_carried, 0);
        assert_eq!(gen.patch.manifest.replaces, vec!["f".to_string()]);

        let mut p = boot(v1);
        apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("g", vec![]).unwrap(), Value::Int(2));
    }

    #[test]
    fn patchgen_remaps_struct_growth() {
        let v1 = r#"
            struct item { name: string, qty: int }
            global inv: [item] = [item { name: "bolt", qty: 7 }];
            fun count(): int {
                var s: int = 0;
                var i: int = 0;
                while (i < len(inv)) { s = s + inv[i].qty; i = i + 1; }
                return s;
            }
        "#;
        let v2 = r#"
            struct item { name: string, qty: int, reserved: int }
            global inv: [item] = [item { name: "bolt", qty: 7, reserved: 0 }];
            fun count(): int {
                var s: int = 0;
                var i: int = 0;
                while (i < len(inv)) { s = s + inv[i].qty - inv[i].reserved; i = i + 1; }
                return s;
            }
        "#;
        let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
        assert_eq!(gen.stats.types_changed, 1);
        assert_eq!(gen.stats.types_remapped, 1);
        assert!(!gen.source.contains("item__old"), "{}", gen.source);

        let mut p = boot(v1);
        apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
        // Existing state (qty 7) carried; new field defaulted.
        assert_eq!(p.call("count", vec![]).unwrap(), Value::Int(7));
    }

    #[test]
    fn patchgen_carries_type_touchers_and_sig_callers() {
        let v1 = r#"
            struct rec { v: int }
            global g: rec = rec { v: 3 };
            fun read(): int { return g.v; }
            fun helper(x: int): int { return x; }
            fun caller(): int { return helper(1); }
            fun untouched(): int { return 0; }
        "#;
        let v2 = r#"
            struct rec { v: int, tag: string }
            global g: rec = rec { v: 3, tag: "" };
            fun read(): int { return g.v; }
            fun helper(x: int, y: int): int { return x + y; }
            fun caller(): int { return helper(1, 2); }
            fun untouched(): int { return 0; }
        "#;
        let gen = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
        // `read` is textually unchanged but touches the changed type.
        assert!(gen.patch.manifest.replaces.contains(&"read".to_string()));
        // `caller` changed textually anyway; `untouched` must stay out.
        assert!(!gen
            .patch
            .manifest
            .replaces
            .contains(&"untouched".to_string()));

        let mut p = boot(v1);
        apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
        assert_eq!(p.call("read", vec![]).unwrap(), Value::Int(3));
        assert_eq!(p.call("caller", vec![]).unwrap(), Value::Int(3));
    }

    #[test]
    fn patchgen_requests_manual_transformer_when_not_mechanical() {
        let v1 = "global g: int = 1; fun f(): int { return g; }";
        let v2 = "global g: string = \"x\"; fun f(): int { return len(g); }";
        let e = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap_err();
        assert!(
            matches!(e, PatchGenError::NeedsManualTransformer { .. }),
            "{e}"
        );
    }

    #[test]
    fn patchgen_accepts_manual_transformer() {
        let v1 = "global g: int = 41; fun f(): int { return g; }";
        let v2 = "global g: int = 41; fun f(): int { return g; }";
        // Same program, but force a manual transformer by changing a
        // global's type in a custom scenario instead: here we just verify
        // the manual path plumbs through on a changed-type global.
        let v2b = r#"
            struct boxed { v: int, note: string }
            global h: boxed = boxed { v: 0, note: "" };
            global g: int = 41;
            fun f(): int { return g + h.v; }
        "#;
        let _ = (v1, v2);
        let v1b = r#"
            struct boxed { v: int }
            global h: boxed = boxed { v: 5 };
            global g: int = 41;
            fun f(): int { return g + h.v; }
        "#;
        let manual = ManualTransformer {
            global: "h".into(),
            function: "fix_h".into(),
            source: r#"
                fun fix_h(old: boxed__old): boxed {
                    if (old == null) { return null; }
                    return boxed { v: old.v * 2, note: "migrated" };
                }
            "#
            .into(),
        };
        let gen = PatchGen::new()
            .with_manual(manual)
            .generate(v1b, v2b, "v1", "v2")
            .unwrap();
        let mut p = boot(v1b);
        apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
        // Manual transformer doubled v: 41 + 10.
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(51));
    }

    #[test]
    fn snapshot_rollback_restores_prior_version() {
        let mut p = boot(
            r#"
            global hits: int = 0;
            fun tick(): int { return 1; }
            fun work(): int { hits = hits + tick(); update; return hits; }
            "#,
        );
        let journal = dsu_obs::Journal::new();
        let mut up = Updater::new();
        up.set_journal(journal.clone(), Some(0));
        let patch = compile_patch(
            "fun tick(): int { return 100; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["tick".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        up.enqueue(&mut p, patch);
        // Applies at the update point; old tick already ran -> hits == 1.
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
        // The forward apply recorded its pre-update snapshot in the ring.
        assert_eq!(
            up.snapshot_transitions(),
            vec![("v1".to_string(), "v2".to_string())]
        );
        // New code mutates state past the snapshot...
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(101));

        // ...then the snapshot rollback restores bindings AND state as of
        // the apply instant (best-effort semantics): the restore lands at
        // this run's update point, so the post-point read sees hits == 1.
        up.enqueue_snapshot_rollback(&mut p);
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
        assert!(up.snapshot_transitions().is_empty());
        // Back on v1 code (tick -> 1) and v1 state.
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(2));

        let log = up.log();
        assert_eq!(log.len(), 2);
        let rb = &log[1];
        assert!(rb.rolled_back);
        assert_eq!(rb.from_version, "v2");
        assert_eq!(rb.to_version, "v1");
        // The restore is pure rebinding: the whole pause sits in `bind`.
        assert_eq!(rb.timings.total(), rb.timings.bind + rb.timings.drain);

        // The reverse lifecycle validates and its phase sum equals the
        // report total exactly.
        let events = journal.events_for(2);
        dsu_obs::journal::validate_lifecycle(&events).unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.stage, dsu_obs::Stage::RolledBack);
        let phase_sum: std::time::Duration = events
            .iter()
            .filter_map(|e| e.dur)
            .sum::<std::time::Duration>()
            - last.dur.unwrap();
        assert_eq!(phase_sum, rb.timings.total());
    }

    #[test]
    fn inverse_patch_downgrades_with_reverse_remap() {
        // Representation change: v2 grows `item` by a field. The inverse
        // patch is generated by diffing the other way round; its remap
        // shrinks the records while *preserving* state mutated since the
        // upgrade.
        // The update point lives in `work`, which never touches `item` —
        // compat (rightly) refuses type changes under frames that do.
        let v1 = r#"
            struct item { name: string, qty: int }
            global inv: [item] = [item { name: "bolt", qty: 7 }];
            fun add(n: int): int {
                inv[0] = item { name: inv[0].name, qty: inv[0].qty + n };
                return inv[0].qty;
            }
            fun work(n: int): int { var q: int = add(n); update; return q; }
        "#;
        let v2 = r#"
            struct item { name: string, qty: int, reserved: int }
            global inv: [item] = [item { name: "bolt", qty: 7, reserved: 0 }];
            fun add(n: int): int {
                inv[0] = item { name: inv[0].name, qty: inv[0].qty + n, reserved: 1 };
                return inv[0].qty;
            }
            fun work(n: int): int { var q: int = add(n); update; return q; }
        "#;
        let forward = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
        let inverse = PatchGen::new().generate(v2, v1, "v2", "v1").unwrap();
        assert_eq!(inverse.stats.types_remapped, 1, "reverse remap");

        let mut p = boot(v1);
        let journal = dsu_obs::Journal::new();
        let mut up = Updater::new();
        up.set_journal(journal.clone(), Some(0));
        up.enqueue(&mut p, forward.patch);
        // add runs under v1 (qty 10), then the upgrade lands at the point.
        assert_eq!(
            up.run(&mut p, "work", vec![Value::Int(3)]).unwrap(),
            Value::Int(10)
        );
        // State mutated under v2: qty 15.
        assert_eq!(
            up.run(&mut p, "work", vec![Value::Int(5)]).unwrap(),
            Value::Int(15)
        );

        up.enqueue_rollback(&mut p, inverse.patch);
        // add runs under v2 (qty 21), then the downgrade lands; the
        // records shrink on first touch, preserving qty.
        assert_eq!(
            up.run(&mut p, "work", vec![Value::Int(6)]).unwrap(),
            Value::Int(21)
        );
        // Back under v1 code with state mutated since the upgrade intact.
        assert_eq!(
            up.run(&mut p, "work", vec![Value::Int(1)]).unwrap(),
            Value::Int(22)
        );

        let log = up.log();
        assert_eq!(log.len(), 2);
        let rb = &log[1];
        assert!(rb.rolled_back);
        assert_eq!(
            (rb.from_version.as_str(), rb.to_version.as_str()),
            ("v2", "v1")
        );
        assert_eq!((rb.globals_transformed, rb.types_changed), (0, 1));
        // The undone transition's snapshot is retired from the ring: a
        // later snapshot rollback cannot "restore" v2.
        assert!(up.snapshot_transitions().is_empty());

        let events = journal.events_for(2);
        dsu_obs::journal::validate_lifecycle(&events).unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.stage, dsu_obs::Stage::RolledBack);
        // The seven in-pause phases: `staged` is outside the sum.
        let phase_sum: std::time::Duration = events
            .iter()
            .filter(|e| dsu_obs::Stage::PHASES.contains(&e.stage))
            .filter_map(|e| e.dur)
            .sum();
        assert_eq!(phase_sum, rb.timings.total());
    }

    #[test]
    fn empty_ring_rollback_aborts_and_cancel_withdraws() {
        let mut p = boot("fun work(): int { update; return 1; }");
        let journal = dsu_obs::Journal::new();
        let mut up = Updater::new();
        up.set_journal(journal.clone(), Some(0));
        up.strict = false;

        // Rolling back a never-updated process aborts with NoSnapshot.
        up.enqueue_snapshot_rollback(&mut p);
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
        let failures = up.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].phase, "rollback");
        assert!(matches!(failures[0].error, UpdateError::NoSnapshot));
        dsu_obs::journal::validate_lifecycle(&journal.events_for(1)).unwrap();

        // A cancelled patch never applies, and its withdrawn lifecycle
        // still validates (enqueued -> aborted).
        let remote = up.remote(&p);
        let patch = compile_patch(
            "fun work(): int { update; return 2; }",
            "v1",
            "v2",
            &interface_of(&p),
            Manifest {
                replaces: vec!["work".into()],
                ..Manifest::default()
            },
        )
        .unwrap();
        remote.enqueue(patch);
        assert_eq!(remote.cancel_pending("held rollout"), 1);
        assert_eq!(remote.pending_count(), 0);
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(1));
        let events = journal.events_for(2);
        dsu_obs::journal::validate_lifecycle(&events).unwrap();
        assert!(events
            .last()
            .unwrap()
            .detail
            .as_deref()
            .unwrap()
            .contains("cancelled: held rollout"));
    }

    #[test]
    fn suspended_update_sees_transformed_state_after_resume() {
        let mut p = boot(
            r#"
            struct s { v: int }
            global g: s = s { v: 5 };
            fun read(): int { return g.v; }
            fun work(): int {
                var before: int = read();
                update;
                return before * 1000 + read();
            }
            "#,
        );
        let iface = interface_of(&p);
        let patch = compile_patch(
            r#"
            struct s__old { v: int }
            struct s { v: int, w: int }
            fun read(): int { return g.v + g.w; }
            fun __xform_g(old: s__old): s {
                if (old == null) { return null; }
                return s { v: old.v, w: 100 };
            }
            "#,
            "v1",
            "v2",
            &iface,
            Manifest {
                replaces: vec!["read".into()],
                adds: vec!["__xform_g".into()],
                type_changes: vec!["s".into()],
                type_aliases: vec![TypeAlias {
                    alias: "s__old".into(),
                    target: "s".into(),
                }],
                transformers: vec![Transformer {
                    global: "g".into(),
                    function: "__xform_g".into(),
                }],
                ..Manifest::default()
            },
        )
        .unwrap();
        let mut up = Updater::new();
        up.enqueue(&mut p, patch);
        // Before the update point: old read() -> 5. After: new read() ->
        // 5 + 100. `work` itself (active) finished under old code.
        assert_eq!(up.run(&mut p, "work", vec![]).unwrap(), Value::Int(5105));
    }

    #[test]
    fn failed_update_rolls_back_cleanly() {
        let mut p = boot(
            r#"
            struct s { v: int }
            global g: s = null;
            fun f(): int { if (g == null) { return -1; } return g.v; }
            "#,
        );
        // Transformer dereferences null -> traps -> rollback.
        let iface = interface_of(&p);
        let patch = compile_patch(
            r#"
            struct s__old { v: int }
            struct s { v: int, w: int }
            fun f(): int { if (g == null) { return -1; } return g.v + g.w; }
            fun __xform_g(old: s__old): s {
                return s { v: old.v, w: 0 };
            }
            "#,
            "v1",
            "v2",
            &iface,
            Manifest {
                replaces: vec!["f".into()],
                adds: vec!["__xform_g".into()],
                type_changes: vec!["s".into()],
                type_aliases: vec![TypeAlias {
                    alias: "s__old".into(),
                    target: "s".into(),
                }],
                transformers: vec![Transformer {
                    global: "g".into(),
                    function: "__xform_g".into(),
                }],
                ..Manifest::default()
            },
        )
        .unwrap();
        let e = apply_patch(&mut p, &patch, UpdatePolicy::default()).unwrap_err();
        assert!(matches!(e, UpdateError::Transform { .. }), "{e}");
        // Old behaviour intact.
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(-1));
    }
}
