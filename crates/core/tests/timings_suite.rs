//! Update-pause accounting: the per-phase breakdown must attribute every
//! phase to its own bucket and sum exactly to the reported total — and
//! the telemetry journal, when attached, must agree with it event for
//! event.

use dsu_core::{apply_patch, ManualTransformer, PatchGen, PhaseTimings, UpdatePolicy, Updater};
use dsu_obs::journal::{validate_lifecycle, Stage};
use dsu_obs::Journal;
use std::time::Duration;
use vm::{LinkMode, Process, Value};

fn boot(src: &str) -> Process {
    let m = popcorn::compile(src, "app", "v1", &popcorn::Interface::new()).unwrap();
    let mut p = Process::new(LinkMode::Updateable);
    p.load_module(&m).unwrap();
    p
}

/// A generator whose patch converts `data: [rec]` (gaining `hot: bool`)
/// with a hand-written transformer: eagerly, inside the pause, where a
/// remap would leave the records for their first touch.
fn eager_data() -> PatchGen {
    PatchGen::new().with_manual(ManualTransformer {
        global: "data".into(),
        function: "xdata".into(),
        source: r#"
            fun xdata(old: [rec__old]): [rec] {
                var out: [rec] = new [rec];
                var i: int = 0;
                while (i < len(old)) { push(out, rec { id: old[i].id, hot: false }); i = i + 1; }
                return out;
            }
        "#
        .into(),
    })
}

/// Applies a patch that exercises every phase (verify, compat, link,
/// bind, new-global init, state transform) and checks the breakdown.
#[test]
fn phases_sum_exactly_to_total() {
    let old = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun add(n: int): unit { push(data, rec { id: n }); }
        fun sum(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let new = r#"
        struct rec { id: int, hot: bool }
        global data: [rec] = new [rec];
        global hits: int = 40 + 2;
        fun add(n: int): unit { push(data, rec { id: n, hot: false }); }
        fun sum(): int {
            var s: int = 0;
            var i: int = 0;
            while (i < len(data)) { s = s + data[i].id; i = i + 1; }
            return s;
        }
    "#;
    let gen = eager_data().generate(old, new, "v1", "v2").unwrap();
    assert!(
        !gen.patch.manifest.new_globals.is_empty(),
        "patch must add a global"
    );
    assert!(
        !gen.patch.manifest.transformers.is_empty(),
        "patch must transform state"
    );

    let mut p = boot(old);
    for n in 0..50 {
        p.call("add", vec![Value::Int(n)]).unwrap();
    }
    let report = apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    let t = report.timings;

    // The breakdown is definitionally exact: total() is the sum of the
    // phase buckets, with no unattributed remainder.
    assert_eq!(
        t.drain + t.verify + t.compat + t.link + t.bind + t.init + t.transform,
        t.total(),
    );
    // A direct apply has no in-flight host work to wait for.
    assert_eq!(t.drain, Duration::ZERO);
    // Each phase actually ran and was measured into its own bucket.
    assert!(t.verify > Duration::ZERO, "verification was timed: {t:?}");
    assert!(
        t.compat > Duration::ZERO,
        "compat analysis was timed: {t:?}"
    );
    assert!(t.link > Duration::ZERO, "linking was timed: {t:?}");
    assert!(t.init > Duration::ZERO, "new-global init was timed: {t:?}");
    assert!(
        t.transform > Duration::ZERO,
        "state transform was timed: {t:?}"
    );
    // Initialisation is no longer misattributed to state transformation:
    // the new global got its (computed) initial value during `init`.
    assert_eq!(p.global_value("hits"), Some(Value::Int(42)));
    // And the transformer's work really happened under `transform`.
    assert_eq!(
        p.call("sum", vec![]).unwrap(),
        Value::Int((0..50).sum::<i64>())
    );
}

/// A patch with no new globals reports a zero init bucket.
#[test]
fn no_new_globals_means_zero_init_bucket() {
    let old = "fun f(): int { return 1; }";
    let new = "fun f(): int { return 2; }";
    let gen = PatchGen::new().generate(old, new, "v1", "v2").unwrap();
    let mut p = boot(old);
    let report = apply_patch(&mut p, &gen.patch, UpdatePolicy::default()).unwrap();
    assert_eq!(report.timings.init, Duration::ZERO);
    assert_eq!(report.timings.transform, Duration::ZERO);
    assert!(report.timings.total() > Duration::ZERO);
}

/// Default-constructed timings are all-zero (fresh accounting baseline).
#[test]
fn default_timings_are_zero() {
    let t = PhaseTimings::default();
    assert_eq!(t.total(), Duration::ZERO);
}

/// With a journal attached, an applied update's lifecycle events carry
/// the report's phase durations verbatim: the journal's per-patch phase
/// sum equals `PhaseTimings::total()` *exactly*, not approximately.
#[test]
fn journal_durations_agree_with_phase_timings_exactly() {
    let old = "fun f(): int { return 1; }";
    let new = "fun f(): int { return 2; }";
    let gen = PatchGen::new().generate(old, new, "v1", "v2").unwrap();

    let mut p = boot(old);
    let mut updater = Updater::new();
    let journal = Journal::new();
    updater.set_journal(journal.clone(), Some(7));
    updater.enqueue(&mut p, gen.patch);
    updater.apply_pending(&mut p).unwrap();

    let report = &updater.log()[0];
    let events = journal.events();
    // One lifecycle: enqueued, staged, seven phases, committed.
    assert_eq!(events.len(), 10);
    assert!(events.iter().all(|e| e.worker == Some(7)));
    assert!(events.iter().all(|e| e.update == 1));
    validate_lifecycle(&events).unwrap();

    let phase_dur = |stage: Stage| {
        events
            .iter()
            .find(|e| e.stage == stage)
            .and_then(|e| e.dur)
            .unwrap_or_else(|| panic!("missing {stage:?}"))
    };
    let t = report.timings;
    assert_eq!(phase_dur(Stage::Drain), t.drain);
    assert_eq!(phase_dur(Stage::Verify), t.verify);
    assert_eq!(phase_dur(Stage::Compat), t.compat);
    assert_eq!(phase_dur(Stage::Link), t.link);
    assert_eq!(phase_dur(Stage::Bind), t.bind);
    assert_eq!(phase_dur(Stage::Init), t.init);
    assert_eq!(phase_dur(Stage::Transform), t.transform);
    let journal_sum: Duration = Stage::PHASES.iter().map(|&s| phase_dur(s)).sum();
    assert_eq!(journal_sum, t.total(), "journal must copy timings verbatim");
    // The committed event records the total as its duration.
    assert_eq!(
        events.last().unwrap().dur,
        Some(t.total()),
        "committed event carries the pause total"
    );
}

/// Journal ordering invariants: sequence numbers and timestamps are
/// monotonic across lifecycles, and every lifecycle is phase-bracketed
/// (opens with `enqueued`, phases in pipeline order, closes with a
/// resolution).
#[test]
fn journal_events_are_monotonic_and_bracketed() {
    let v1 = "fun f(): int { return 1; }";
    let v2 = "fun f(): int { return 2; }";
    let v3 = "fun f(): int { return 3; }";

    let mut p = boot(v1);
    let mut updater = Updater::new();
    let journal = Journal::new();
    updater.set_journal(journal.clone(), None);

    let gen12 = PatchGen::new().generate(v1, v2, "v1", "v2").unwrap();
    let gen23 = PatchGen::new().generate(v2, v3, "v2", "v3").unwrap();
    updater.enqueue(&mut p, gen12.patch);
    updater.enqueue(&mut p, gen23.patch);
    updater.apply_pending(&mut p).unwrap();

    let events = journal.events();
    assert_eq!(events.len(), 20, "two full lifecycles");
    for w in events.windows(2) {
        assert!(w[1].seq > w[0].seq, "seq must increase");
        assert!(w[1].at >= w[0].at, "timestamps must not go backwards");
    }
    assert_eq!(journal.update_ids(), vec![1, 2]);
    for id in journal.update_ids() {
        validate_lifecycle(&journal.events_for(id)).unwrap();
    }
    // JSONL export carries one line per event, in order.
    assert_eq!(journal.to_jsonl().lines().count(), events.len());
}

/// A rejected patch's lifecycle closes with `aborted`, carrying the
/// failing phase; the failure log records the version transition and
/// phase alongside the error.
#[test]
fn journal_and_failure_log_carry_abort_context() {
    let old = "fun f(): int { return 1; }";
    let mut p = boot(old);
    // A patch whose manifest claims to replace a function it does not
    // define — linking rejects it.
    let bad = dsu_core::compile_patch(
        "fun other(): int { return 2; }",
        "v1",
        "v2",
        &dsu_core::interface_of(&p),
        dsu_core::Manifest {
            replaces: vec!["f".into()],
            adds: vec!["other".into()],
            ..dsu_core::Manifest::default()
        },
    )
    .unwrap();

    let mut updater = Updater::new();
    updater.strict = false;
    let journal = Journal::new();
    updater.set_journal(journal.clone(), Some(0));
    updater.enqueue(&mut p, bad);
    updater.apply_pending(&mut p).unwrap();

    let events = journal.events_for(1);
    validate_lifecycle(&events).unwrap();
    let aborted = events.last().unwrap();
    assert_eq!(aborted.stage, Stage::Aborted);
    let detail = aborted.detail.as_deref().unwrap();
    assert!(
        detail.starts_with("compat:"),
        "detail names phase: {detail}"
    );

    let failures = updater.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].from_version, "v1");
    assert_eq!(failures[0].to_version, "v2");
    assert_eq!(failures[0].phase, "compat");
    assert!(failures[0]
        .to_string()
        .contains("v1 -> v2 failed in compat"));
}

/// The stopped window holds nothing its buckets do not see: on a process
/// with 60 000 live records the wall clock of a pause stays within a
/// twentieth of the report's total (it measures ≈ 1.005), for a forward
/// apply (transform-bound) and for the snapshot restore that undoes it.
/// An O(state) walk outside the buckets — heap accounting used to make
/// two per pause, a tenth of it and more — breaks this on every attempt;
/// scheduler noise does not break all five.
#[test]
fn a_big_state_pause_is_all_in_its_buckets() {
    let old = r#"
        struct rec { id: int }
        global data: [rec] = new [rec];
        fun fill(n: int): int {
            var i: int = 0;
            while (i < n) { push(data, rec { id: i }); i = i + 1; }
            return len(data);
        }
    "#;
    let new = &old
        .replace("{ id: int }", "{ id: int, hot: bool }")
        .replace("{ id: i }", "{ id: i, hot: false }");
    let gen = eager_data().generate(old, new, "v1", "v2").unwrap();

    let mut best = [f64::MAX; 2];
    for _ in 0..5 {
        let mut p = boot(old);
        p.call("fill", vec![Value::Int(60_000)]).unwrap();
        let mut updater = Updater::new();
        updater.enqueue(&mut p, gen.patch.clone());
        updater.apply_pending(&mut p).unwrap();
        updater.enqueue_snapshot_rollback(&mut p);
        updater.apply_pending(&mut p).unwrap();

        let (log, pauses) = (updater.log(), updater.pauses());
        assert!(log[0].timings.transform > Duration::ZERO && log[1].rolled_back);
        for (i, best) in best.iter_mut().enumerate() {
            let ratio = pauses[i].dur.as_secs_f64() / log[i].timings.total().as_secs_f64();
            *best = best.min(ratio);
        }
    }
    assert!(
        best[0] <= 1.05,
        "forward apply: pause / total = {}",
        best[0]
    );
    assert!(best[1] <= 1.05, "restore: pause / total = {}", best[1]);
}
