//! Updater failure paths: strict aborts, non-strict drains, and the
//! pause log that instruments both.

use dsu_core::{compile_patch, interface_of, Manifest, PatchGen, RunError, Updater};
use vm::{LinkMode, Process, Value};

fn boot(src: &str) -> Process {
    let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).unwrap();
    p
}

// The update point sits in `spin`, but the patched function is `tick`:
// the active `spin` frame keeps running old code, while each iteration's
// `tick` call dispatches to whichever version is bound.
const SPIN: &str = r#"
    global n: int = 0;
    fun tick(): unit { n = n + 1; }
    fun spin(k: int): int {
        var i: int = 0;
        while (i < k) { tick(); update; i = i + 1; }
        return n;
    }
"#;

/// A patch whose manifest claims to replace a function the module does
/// not define — linking rejects it.
fn bad_patch(p: &Process) -> dsu_core::Patch {
    compile_patch(
        "fun other(): int { return 2; }",
        "v1",
        "v2",
        &interface_of(p),
        Manifest {
            replaces: vec!["spin".into()],
            adds: vec!["other".into()],
            ..Manifest::default()
        },
    )
    .unwrap()
}

#[test]
fn strict_failure_mid_run_leaves_process_consistent() {
    let mut p = boot(SPIN);
    let mut up = Updater::new();
    assert!(up.strict);
    let bad = bad_patch(&p);
    up.enqueue(&mut p, bad);

    let e = up.run(&mut p, "spin", vec![Value::Int(2)]).unwrap_err();
    assert!(matches!(e, RunError::Update(_)), "{e}");

    // The suspended run was discarded cleanly: no dangling guest stack,
    // no armed update request, nothing left queued.
    assert!(!p.is_suspended());
    assert!(!p.update_requested());
    assert_eq!(up.pending_count(), 0);
    // Strict failures abort; they are not recorded as tolerated failures.
    assert!(up.failures().is_empty());
    assert!(up.log().is_empty());

    // State mutated before the abort persists (the first iteration ran),
    // and the process is fully runnable on the old version.
    assert_eq!(p.global_value("n"), Some(Value::Int(1)));
    assert_eq!(
        up.run(&mut p, "spin", vec![Value::Int(2)]).unwrap(),
        Value::Int(3)
    );
}

#[test]
fn strict_failure_keeps_later_patches_queued() {
    let mut p = boot(SPIN);
    let mut up = Updater::new();
    let bad = bad_patch(&p);
    let good = PatchGen::new()
        .generate(SPIN, &SPIN.replace("n = n + 1", "n = n + 2"), "v1", "v2")
        .unwrap()
        .patch;
    up.enqueue(&mut p, bad);
    up.enqueue(&mut p, good);

    assert!(up.run(&mut p, "spin", vec![Value::Int(1)]).is_err());
    // The failing patch was dropped; the one behind it is still pending
    // and the process stays armed so the next update point takes it.
    assert_eq!(up.pending_count(), 1);
    assert!(p.update_requested());

    // The next run applies the survivor: iteration 1 adds 1 (old code,
    // n: 1 -> 2), the patch lands at the update point, iteration 2 adds 2.
    assert_eq!(
        up.run(&mut p, "spin", vec![Value::Int(2)]).unwrap(),
        Value::Int(4)
    );
    assert_eq!(up.log().len(), 1);
}

#[test]
fn non_strict_drains_queue_and_records_failures() {
    let mut p = boot(SPIN);
    let mut up = Updater::new();
    up.strict = false;
    let good = PatchGen::new()
        .generate(SPIN, &SPIN.replace("n = n + 1", "n = n + 10"), "v1", "v2")
        .unwrap()
        .patch;
    let (bad_a, bad_b) = (bad_patch(&p), bad_patch(&p));
    up.enqueue(&mut p, bad_a);
    up.enqueue(&mut p, good);
    up.enqueue(&mut p, bad_b);

    // The run completes: failures are tolerated, the good patch applies.
    // Iteration 1 under old code (n: 0 -> 1), iterations 2-3 under new.
    assert_eq!(
        up.run(&mut p, "spin", vec![Value::Int(3)]).unwrap(),
        Value::Int(21)
    );
    assert_eq!(up.failures().len(), 2);
    assert_eq!(up.log().len(), 1);
    assert_eq!(up.pending_count(), 0);
    assert!(!p.update_requested());
}

#[test]
fn pause_log_records_mid_run_applies() {
    let mut p = boot(SPIN);
    let mut up = Updater::new();
    let good = PatchGen::new()
        .generate(SPIN, &SPIN.replace("n = n + 1", "n = n + 10"), "v1", "v2")
        .unwrap()
        .patch;
    assert!(up.pauses().is_empty());
    up.enqueue(&mut p, good);
    up.run(&mut p, "spin", vec![Value::Int(2)]).unwrap();

    let pauses = up.pauses();
    assert_eq!(pauses.len(), 1);
    // The pause covers (at least) the apply itself.
    assert!(pauses[0].dur >= up.log()[0].timings.total());
}

#[test]
fn rollback_chain_walks_the_ring_backwards() {
    let mut p = boot(SPIN);
    let mut up = Updater::new();
    let v2_src = SPIN.replace("n = n + 1", "n = n + 10");
    let v3_src = SPIN.replace("n = n + 1", "n = n + 100");
    let p12 = PatchGen::new()
        .generate(SPIN, &v2_src, "v1", "v2")
        .unwrap()
        .patch;
    let p23 = PatchGen::new()
        .generate(&v2_src, &v3_src, "v2", "v3")
        .unwrap()
        .patch;
    up.enqueue(&mut p, p12);
    up.run(&mut p, "spin", vec![Value::Int(1)]).unwrap();
    up.enqueue(&mut p, p23);
    up.run(&mut p, "spin", vec![Value::Int(1)]).unwrap();
    assert_eq!(
        up.snapshot_transitions(),
        vec![
            ("v1".to_string(), "v2".to_string()),
            ("v2".to_string(), "v3".to_string()),
        ]
    );

    // One call queues both hops; clamping keeps a too-deep request sane.
    assert_eq!(up.enqueue_rollback_chain(&mut p, 5), 2);
    assert_eq!(up.pending_count(), 2);
    up.run(&mut p, "spin", vec![Value::Int(1)]).unwrap();

    // Both restores applied newest-first: v3 -> v2, then v2 -> v1.
    let log = up.log();
    assert_eq!(log.len(), 4);
    let hops: Vec<(&str, &str, bool)> = log[2..]
        .iter()
        .map(|r| {
            (
                r.from_version.as_str(),
                r.to_version.as_str(),
                r.rolled_back,
            )
        })
        .collect();
    assert_eq!(hops, vec![("v3", "v2", true), ("v2", "v1", true)]);
    assert!(up.snapshot_transitions().is_empty());

    // The process serves v1 semantics again (+1 per tick).
    let before = match p.global_value("n") {
        Some(Value::Int(v)) => v,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        up.run(&mut p, "spin", vec![Value::Int(2)]).unwrap(),
        Value::Int(before + 2)
    );
}

#[test]
fn updater_state_survives_a_save_load_round_trip() {
    let mut p = boot(SPIN);
    let mut up = Updater::new();
    let v2_src = SPIN.replace("n = n + 1", "n = n + 10");
    let p12 = PatchGen::new()
        .generate(SPIN, &v2_src, "v1", "v2")
        .unwrap()
        .patch;
    up.enqueue(&mut p, p12);
    up.run(&mut p, "spin", vec![Value::Int(1)]).unwrap();

    // Leave one forward patch and one restore pending, then "crash".
    let p23 = PatchGen::new()
        .generate(
            &v2_src,
            &SPIN.replace("n = n + 1", "n = n + 100"),
            "v2",
            "v3",
        )
        .unwrap()
        .patch;
    up.enqueue(&mut p, p23);
    up.enqueue_snapshot_rollback(&mut p);
    let saved = up.save_state();

    // A fresh updater restores ring + queue and drives them to completion.
    let mut up2 = Updater::new();
    up2.strict = false;
    assert_eq!(up2.load_state(&mut p, &saved).unwrap(), 2);
    assert_eq!(up2.pending_count(), 2);
    assert_eq!(
        up2.snapshot_transitions(),
        vec![("v1".to_string(), "v2".to_string())]
    );
    assert!(p.update_requested());
    up2.run(&mut p, "spin", vec![Value::Int(1)]).unwrap();
    let log = up2.log();
    // v2 -> v3 forward, then the restore pops the recovered ring. The
    // restore was enqueued against the pre-crash top (v2 -> v1); the ring
    // re-read at apply time agrees because the v2->v3 apply pushed and
    // the pop takes the newest entry (v3 -> v2).
    assert_eq!(log.len(), 2);
    assert_eq!(
        (log[0].from_version.as_str(), log[0].to_version.as_str()),
        ("v2", "v3")
    );
    assert!(log[1].rolled_back);

    // Garbage inputs error without clobbering the updater.
    assert!(up2.load_state(&mut p, "nope").is_err());
    assert!(up2
        .load_state(&mut p, "dsu-updater-state 1\nring 5\nxx")
        .is_err());
}

/// A pause publishes once, as its last act: a coordinator woken by it finds
/// the report, the failure, the drained queue and the pause event together
/// — never an apply without its pause. The pause starts only after the
/// waiter's first (empty-handed) evaluation, so every later evaluation
/// was triggered by a publish.
#[test]
fn a_pause_wakes_its_waiter_with_the_whole_outcome_visible() {
    use std::time::{Duration, Instant};

    let mut p = boot(SPIN);
    let mut up = Updater::new();
    up.strict = false;
    let bad = bad_patch(&p);
    let good = PatchGen::new()
        .generate(SPIN, &SPIN.replace("n = n + 1", "n = n + 2"), "v1", "v2")
        .unwrap()
        .patch;
    let remote = up.remote(&p);
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();

    std::thread::scope(|s| {
        let coordinator = remote.clone();
        let waiter = s.spawn(move || {
            let mut first = true;
            coordinator.wait_until(Instant::now() + Duration::from_secs(30), |p| {
                if std::mem::take(&mut first) {
                    parked_tx.send(()).unwrap();
                }
                (p.applied + p.failed > 0).then_some((p.applied, p.failed, p.pending, p.pauses))
            })
        });
        parked_rx.recv().unwrap();
        remote.enqueue(bad);
        remote.enqueue(good);
        up.run(&mut p, "spin", vec![Value::Int(2)]).unwrap();
        assert_eq!(waiter.join().unwrap(), Some((1, 1, 0, 1)));
    });
}

/// `since(mark)` is a consistent cut. A guest walks hops — forward patch,
/// snapshot restore, rejected patch, one pause each — while a reader
/// hammers the remote; the walk goes on (200 hops at least) until the
/// reader has taken 64 cuts alongside it. Every cut, from the beginning or
/// from a mark taken mid-walk, holds exactly as many pause events as
/// outcomes (never a report without its pause), and whenever nothing is
/// pending every op submitted before the reading has its outcome counted.
#[test]
fn since_mark_is_a_consistent_cut_while_a_guest_applies_hops() {
    use dsu_core::{Cut, Mark};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let mut p = boot(SPIN);
    let mut up = Updater::new();
    up.strict = false;
    let bad = bad_patch(&p);
    let good = PatchGen::new()
        .generate(SPIN, &SPIN.replace("n = n + 1", "n = n + 2"), "v1", "v2")
        .unwrap()
        .patch;
    let remote = up.remote(&p);
    let (submitted, cuts, done) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicBool::new(false),
    );
    let mut kinds = [0usize; 3];

    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let whole = |cut: Cut| {
                assert_eq!(cut.reports.len() + cut.failures.len(), cut.pauses.len());
                cut.pauses.len()
            };
            while !done.load(Ordering::SeqCst) {
                let mark = remote.mark();
                let before = submitted.load(Ordering::SeqCst);
                let now = remote
                    .wait_until(std::time::Instant::now(), |p| Some(*p))
                    .unwrap();
                if now.pending == 0 {
                    assert!(now.applied + now.failed >= before, "{now:?} < {before}");
                }
                assert!(whole(remote.since(Mark::default())) >= now.pauses);
                whole(remote.since(mark));
                cuts.fetch_add(1, Ordering::SeqCst);
            }
        });
        let mut hop = 0;
        while !reader.is_finished() && (hop < 200 || cuts.load(Ordering::SeqCst) < 64) {
            match hop % 3 {
                0 => up.enqueue(&mut p, good.clone()),
                1 => up.enqueue_snapshot_rollback(&mut p),
                _ => up.enqueue(&mut p, bad.clone()),
            }
            submitted.fetch_add(1, Ordering::SeqCst);
            up.run(&mut p, "spin", vec![Value::Int(1)]).unwrap();
            kinds[hop % 3] += 1;
            hop += 1;
        }
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap();
    });
    let all = remote.since(Mark::default());
    assert_eq!(
        (all.reports.len(), all.failures.len(), all.pauses.len()),
        (kinds[0] + kinds[1], kinds[2], kinds.iter().sum())
    );
}

/// A pause publishes once on every way out — a panic's unwind included.
/// Three ops are queued. A pause that dies in the drain hook, before any
/// op, leaves all three pending. In the next, the apply of the second op
/// dies: the first op's report, the ring it moved and the pause event are
/// published by the unwind, the dead op is gone, and the third is still
/// queued — `pending_count()` is the remainder, not zero and not three.
#[test]
fn a_panic_mid_pause_publishes_what_finished_and_keeps_the_rest_queued() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut p = boot(SPIN);
    let mut up = Updater::new();
    up.strict = false;
    let v2_src = SPIN.replace("n = n + 1", "n = n + 10");
    let v3_src = SPIN.replace("n = n + 1", "n = n + 100");
    let p12 = PatchGen::new().generate(SPIN, &v2_src, "v1", "v2").unwrap();
    let p23 = PatchGen::new()
        .generate(&v2_src, &v3_src, "v2", "v3")
        .unwrap();
    let remote = up.remote(&p);
    remote.enqueue(p12.patch);
    remote.enqueue(p23.patch);
    assert_eq!(remote.enqueue_rollback_chain(1), 0, "nothing to undo yet");
    remote.enqueue_snapshot_rollback();
    let counts = || {
        (
            remote.pending_count(),
            remote.applied_count(),
            remote.pauses().len(),
        )
    };

    let hook_dies = Arc::new(AtomicBool::new(true));
    let armed = Arc::clone(&hook_dies);
    up.set_drain_hook(Box::new(move || {
        assert!(!armed.load(Ordering::SeqCst), "injected: mid-pause crash");
    }));
    assert!(catch_unwind(AssertUnwindSafe(|| up.apply_pending(&mut p))).is_err());
    assert_eq!(counts(), (3, 0, 1));

    hook_dies.store(false, Ordering::SeqCst);
    let mut links = 0;
    dsu_core::set_phase_probe(Some(Box::new(move |phase| {
        links += usize::from(phase == "link");
        assert!(links < 2, "injected: second apply crashes");
    })));
    assert!(catch_unwind(AssertUnwindSafe(|| up.apply_pending(&mut p))).is_err());
    dsu_core::set_phase_probe(None);
    assert_eq!(counts(), (1, 1, 2));
    let moved = vec![("v1".to_string(), "v2".to_string())];
    assert_eq!(remote.snapshot_transitions(), moved);

    // The survivor still applies: the restore takes the process back to v1.
    assert_eq!(up.apply_pending(&mut p), Ok(1));
    assert_eq!(counts(), (0, 2, 3));
    assert!(remote.snapshot_transitions().is_empty());
}
