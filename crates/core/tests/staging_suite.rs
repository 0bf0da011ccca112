//! Stage/commit: a patch is verified ahead of the pause, where it is
//! enqueued, and the pause re-checks what that verification consulted —
//! never trusts it. Every case here is observed through what the pause
//! *says* it did (the report's [`Verification`], the journal's `verify`
//! detail), not through how long it took.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dsu_core::{
    apply_patch, commit, interface_of, stage, Manifest, Patch, PatchGen, UpdateError, UpdatePolicy,
    Updater, Verification,
};
use dsu_obs::journal::{validate_lifecycle, Event, Stage};
use dsu_obs::Journal;
use tal::{FnSig, Instr, ModuleBuilder, Ty, TypeDef};
use vm::{LinkMode, Process, ProcessTypes, Value};

/// A small keyed store in the shape of FlashEd's cache: `fields` and
/// `literal` are the `entry` layout and how `put` fills it, `weight`
/// lives in `total` alone.
fn program(fields: &str, literal: &str, weight: i64) -> String {
    format!(
        r#"
        struct entry {{ {fields} }}
        global store: [entry] = new [entry];
        fun put(k: string, v: int): unit {{ push(store, entry {{ {literal} }}); }}
        fun total(): int {{
            var s: int = 0;
            var i: int = 0;
            while (i < len(store)) {{ s = s + store[i].val * {weight}; i = i + 1; }}
            return s;
        }}
        "#
    )
}

/// v4 of the store; v5 changes `total` only, so the v4→v5 patch names
/// `entry` without defining it: verification consults the process.
fn v4() -> String {
    program(
        "key: string, val: int, hits: int",
        "key: k, val: v, hits: 0",
        1,
    )
}

fn v5() -> String {
    program(
        "key: string, val: int, hits: int",
        "key: k, val: v, hits: 0",
        2,
    )
}

/// v4 with `entry` grown at the end: v5's `total` still type-checks.
fn v4_grown() -> String {
    program(
        "key: string, val: int, hits: int, age: int",
        "key: k, val: v, hits: 0, age: 0",
        1,
    )
}

/// v4 with `key` and `val` swapped: v5's `total` reads a string where it
/// adds an int, and no longer type-checks.
fn v4_swapped() -> String {
    program(
        "val: int, key: string, hits: int",
        "val: v, key: k, hits: 0",
        1,
    )
}

fn boot_plain(src: &str) -> Process {
    let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).unwrap();
    p
}

/// A store holding `a = 20` and `b = 1`.
fn boot(src: &str) -> Process {
    let mut p = boot_plain(src);
    for (k, v) in [("a", 20), ("b", 1)] {
        p.call("put", vec![Value::str(k), Value::Int(v)]).unwrap();
    }
    p
}

fn patch(old: &str, new: &str, to: &str) -> Patch {
    PatchGen::new().generate(old, new, "v4", to).unwrap().patch
}

fn journaled() -> (Updater, Journal) {
    let mut up = Updater::new();
    up.strict = false;
    let journal = Journal::new();
    up.set_journal(journal.clone(), Some(0));
    (up, journal)
}

fn event(events: &[Event], stage: Stage) -> Option<&Event> {
    events.iter().find(|e| e.stage == stage)
}

fn verify_detail(events: &[Event]) -> &str {
    event(events, Stage::Verify)
        .and_then(|e| e.detail.as_deref())
        .expect("a verify event with a detail")
}

/// What an apply did, minus the clock.
fn outcome(r: Result<dsu_core::UpdateReport, UpdateError>) -> Result<(usize, usize), UpdateError> {
    r.map(|r| (r.functions_replaced, r.globals_transformed))
}

#[test]
fn a_holding_certificate_is_all_the_pause_checks() {
    let mut p = boot(&v4());
    let v45 = patch(&v4(), &v5(), "v5");
    let (mut up, journal) = journaled();
    up.enqueue(&mut p, v45);
    assert_eq!(up.apply_pending(&mut p).unwrap(), 1);
    assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(42));

    let report = &up.log()[0];
    assert_eq!(report.verification, Verification::CertificateHeld);
    let events = journal.events_for(1);
    validate_lifecycle(&events).unwrap();
    assert_eq!(verify_detail(&events), "certificate held");

    // The stage is journaled once, between `enqueued` and the pause, with
    // the duration the report carries — outside the pause total, whose
    // seven buckets still add up exactly.
    let t = report.timings;
    assert!(t.staged > Duration::ZERO, "{t:?}");
    assert_eq!(events[1].stage, Stage::Staged);
    assert_eq!(events[1].dur, Some(t.staged));
    assert_eq!(
        t.total(),
        t.drain + t.verify + t.compat + t.link + t.bind + t.init + t.transform
    );
    assert_eq!(events.last().unwrap().dur, Some(t.total()));
}

#[test]
fn the_certificate_records_exactly_what_verification_consulted() {
    let p = boot(&v4());
    let policy = UpdatePolicy::default();
    // v4→v5 names `entry` without defining it.
    let staged = stage(patch(&v4(), &v5(), "v5"), &ProcessTypes(&p), policy);
    let consulted = staged.certificate().unwrap().consulted();
    assert_eq!(consulted.len(), 1);
    assert_eq!(consulted[0].0, "entry");
    assert_eq!(Some(&consulted[0].1), interface_of(&p).structs.get("entry"));
    // A patch that redefines the type brings its own definitions (the new
    // layout and the old-layout alias): nothing of the process consulted.
    let staged = stage(patch(&v4(), &v4_grown(), "v4b"), &ProcessTypes(&p), policy);
    assert!(staged.certificate().unwrap().consulted().is_empty());
}

#[test]
fn nothing_staged_means_full_verification_in_the_pause() {
    // A direct apply.
    let mut p = boot(&v4());
    let v45 = patch(&v4(), &v5(), "v5");
    let report = apply_patch(&mut p, &v45, UpdatePolicy::default()).unwrap();
    assert_eq!(report.verification, Verification::NoCertificate);
    assert_eq!(report.timings.staged, Duration::ZERO);

    // A patch that went through a state blob: certificates are not
    // persisted.
    let mut p = boot(&v4());
    let mut first = Updater::new();
    first.enqueue(&mut p, v45);
    let blob = first.save_state();
    let (mut up, journal) = journaled();
    assert_eq!(up.load_state(&mut p, &blob).unwrap(), 1);
    up.apply_pending(&mut p).unwrap();
    assert_eq!(up.log()[0].verification, Verification::NoCertificate);
    let events = journal.events_for(1);
    validate_lifecycle(&events).unwrap();
    assert_eq!(verify_detail(&events), "no certificate");
    assert!(event(&events, Stage::Staged).is_none());
}

/// Stage at v4, let another patch rebind `entry` to a different layout,
/// commit: the check fails, the full verification runs, and what comes
/// out is what an unstaged apply produces on a twin process — success
/// when the new layout still suits the patch, the same typed error when
/// it does not.
#[test]
fn a_stale_certificate_reverifies_to_the_unstaged_outcome() {
    let policy = UpdatePolicy::default();
    let v45 = patch(&v4(), &v5(), "v5");
    for (other_layout, accepted) in [(v4_grown(), true), (v4_swapped(), false)] {
        let (mut a, mut b) = (boot(&v4()), boot(&v4()));
        let staged = stage(v45.clone(), &ProcessTypes(&a), policy);
        assert!(staged.certificate().is_some());

        let rebind = patch(&v4(), &other_layout, "v4b");
        apply_patch(&mut a, &rebind, policy).unwrap();
        apply_patch(&mut b, &rebind, policy).unwrap();

        let (mut up, journal) = journaled();
        up.enqueue_staged(&mut a, Arc::clone(&staged));
        up.apply_pending(&mut a).unwrap();
        let unstaged = apply_patch(&mut b, &v45, policy);
        assert_eq!(unstaged.is_ok(), accepted, "{unstaged:?}");

        let events = journal.events_for(1);
        validate_lifecycle(&events).unwrap();
        if accepted {
            let report = up.log().pop().unwrap();
            let changed = "entry".to_string();
            assert_eq!(report.verification, Verification::Reverified { changed });
            assert_eq!(
                verify_detail(&events),
                "re-verified: type entry changed since staging"
            );
            assert_eq!(outcome(Ok(report)), outcome(unstaged));
        } else {
            let failure = up.failures().pop().unwrap();
            assert_eq!(failure.phase, "verify");
            assert!(matches!(failure.error, UpdateError::Verify(_)));
            assert_eq!(Err(failure.error), outcome(unstaged));
        }
        assert_eq!(interface_of(&a), interface_of(&b));
        assert_eq!(a.call("total", vec![]), b.call("total", vec![]));
    }
}

/// A certificate vouches for the definitions it recorded and no others:
/// staged against a view of the process in which one field of `entry`
/// has another type — a field the patch never touches, so verification
/// succeeds there too — it records that definition, and no process
/// binding the real one accepts it.
#[test]
fn a_certificate_off_by_one_field_type_is_never_accepted() {
    let mut p = boot(&v4());
    let mut view: BTreeMap<String, TypeDef> = interface_of(&p).structs;
    let hits = view.get_mut("entry").unwrap().fields.last_mut().unwrap();
    assert_eq!((hits.name.as_str(), &hits.ty), ("hits", &Ty::Int));
    hits.ty = Ty::Str;

    let policy = UpdatePolicy::default();
    let staged = stage(patch(&v4(), &v5(), "v5"), &view, policy);
    let certificate = staged.certificate().expect("verifies against the view");
    assert_eq!(certificate.stale(&view), None);
    assert_eq!(certificate.stale(&ProcessTypes(&p)), Some("entry"));

    let report = commit(&mut p, &staged, policy).unwrap();
    let changed = "entry".to_string();
    assert_eq!(report.verification, Verification::Reverified { changed });
    assert_eq!(p.call("total", vec![]).unwrap(), Value::Int(42));
}

#[test]
fn verify_off_skips_stage_and_check_together() {
    let off = UpdatePolicy {
        verify: false,
        ..UpdatePolicy::default()
    };
    let mut p = boot(&v4());
    let v45 = patch(&v4(), &v5(), "v5");
    assert!(stage(v45.clone(), &ProcessTypes(&p), off)
        .certificate()
        .is_none());

    let mut up = Updater::with_policy(off);
    let journal = Journal::new();
    up.set_journal(journal.clone(), None);
    up.enqueue(&mut p, v45.clone());
    up.apply_pending(&mut p).unwrap();
    let report = &up.log()[0];
    assert_eq!(report.verification, Verification::Skipped);
    assert_eq!(report.timings.staged, Duration::ZERO);
    let events = journal.events_for(1);
    validate_lifecycle(&events).unwrap();
    assert!(event(&events, Stage::Staged).is_none());
    assert_eq!(event(&events, Stage::Verify).unwrap().detail, None);

    // And a certificate staged under a verifying policy is not consulted
    // by a commit whose policy does not verify.
    let mut q = boot(&v4());
    let staged = stage(v45, &ProcessTypes(&q), UpdatePolicy::default());
    let report = commit(&mut q, &staged, off).unwrap();
    assert_eq!(report.verification, Verification::Skipped);
}

/// One staged value, many processes: the first lifecycle to enqueue it
/// pays for the stage, every commit checks the certificate for itself.
#[test]
fn one_stage_serves_every_replica() {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<dsu_core::StagedPatch>();

    let (mut a, mut b) = (boot(&v4()), boot(&v4()));
    let staged = stage(
        patch(&v4(), &v5(), "v5"),
        &ProcessTypes(&a),
        UpdatePolicy::default(),
    );
    let (mut up_a, journal_a) = journaled();
    let (mut up_b, journal_b) = journaled();
    up_a.enqueue_staged(&mut a, Arc::clone(&staged));
    up_b.enqueue_staged(&mut b, staged);
    up_a.apply_pending(&mut a).unwrap();
    up_b.apply_pending(&mut b).unwrap();

    let (ra, rb) = (&up_a.log()[0], &up_b.log()[0]);
    assert_eq!(ra.verification, Verification::CertificateHeld);
    assert_eq!(rb.verification, Verification::CertificateHeld);
    assert!(ra.timings.staged > Duration::ZERO);
    assert_eq!(rb.timings.staged, Duration::ZERO);
    assert!(event(&journal_a.events(), Stage::Staged).is_some());
    assert!(event(&journal_b.events(), Stage::Staged).is_none());
    assert_eq!(a.call("total", vec![]), b.call("total", vec![]));
}

/// Hand-built patches for `fun f(): int` that no verifier accepts.
fn rejected_corpus() -> Vec<(&'static str, Patch)> {
    let int_fn = || FnSig::new(vec![], Ty::Int);
    let wrap = |module: tal::Module| Patch {
        from_version: "v1".into(),
        to_version: "v2".into(),
        module,
        manifest: Manifest {
            replaces: vec!["f".into()],
            ..Manifest::default()
        },
    };
    let mut corpus = Vec::new();

    let mut b = ModuleBuilder::new("evil", "v2");
    b.function("f", int_fn(), |fb| {
        fb.emit(Instr::PushBool(true));
        fb.emit(Instr::Ret);
    });
    corpus.push(("lies about its return type", wrap(b.finish())));

    let mut b = ModuleBuilder::new("evil", "v2");
    b.function("f", int_fn(), |fb| {
        fb.emit(Instr::Add);
        fb.emit(Instr::Ret);
    });
    corpus.push(("underflows the operand stack", wrap(b.finish())));

    let mut b = ModuleBuilder::new("evil", "v2");
    b.function("f", int_fn(), |fb| {
        fb.emit(Instr::PushInt(1));
        fb.emit(Instr::Jump(7));
    });
    corpus.push(("jumps out of its body", wrap(b.finish())));

    let mut b = ModuleBuilder::new("evil", "v2");
    let ghost = b.type_ref("ghost");
    b.function("f", int_fn(), move |fb| {
        fb.emit(Instr::PushNull(ghost));
        fb.emit(Instr::Pop);
        fb.emit(Instr::PushInt(1));
        fb.emit(Instr::Ret);
    });
    corpus.push(("names a type nobody defines", wrap(b.finish())));

    let mut b = ModuleBuilder::new("evil", "v2");
    let s = b.type_ref("s");
    b.function("f", int_fn(), move |fb| {
        fb.emit(Instr::PushNull(s));
        fb.emit(Instr::GetField(s, 1));
        fb.emit(Instr::Ret);
    });
    corpus.push(("reads a field the ambient type lacks", wrap(b.finish())));
    corpus
}

/// Stage never rejects, it only certifies: every patch verification
/// refuses still goes through `enqueue`, is refused at the update point
/// with the error a direct apply gives, and lands in `failures()` under
/// phase `verify` — or, strict, comes back as the typed error.
#[test]
fn rejected_patches_are_rejected_at_the_update_point_as_before() {
    let src = "struct s { v: int } global g: s = null; fun f(): int { return 1; }";
    for (what, bad) in rejected_corpus() {
        let mut p = boot_plain(src);
        let direct = apply_patch(&mut p, &bad, UpdatePolicy::default()).unwrap_err();
        assert!(matches!(direct, UpdateError::Verify(_)), "{what}: {direct}");
        let staged = stage(bad.clone(), &ProcessTypes(&p), UpdatePolicy::default());
        assert!(staged.certificate().is_none(), "{what}");

        let (mut up, journal) = journaled();
        up.enqueue(&mut p, bad.clone());
        assert_eq!(up.apply_pending(&mut p).unwrap(), 0, "{what}");
        let failure = up.failures().pop().unwrap();
        assert_eq!(failure.phase, "verify", "{what}");
        assert_eq!(failure.error, direct, "{what}");
        let events = journal.events_for(1);
        validate_lifecycle(&events).unwrap();
        let aborted = events.last().unwrap();
        assert_eq!(aborted.stage, Stage::Aborted);
        assert!(aborted.detail.as_deref().unwrap().starts_with("verify:"));

        let mut strict = Updater::new();
        strict.enqueue(&mut p, bad);
        assert_eq!(strict.apply_pending(&mut p).unwrap_err(), direct, "{what}");
        assert_eq!(p.call("f", vec![]).unwrap(), Value::Int(1), "{what}");
    }
}
