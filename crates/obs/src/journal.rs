//! The structured update-lifecycle journal.
//!
//! Every dynamic patch traverses an explicit lifecycle:
//!
//! ```text
//! enqueued -> [staged] -> gate-wait -> drain -> verify -> compat -> link
//!          -> bind -> init -> transform -> committed | aborted | rolled-back
//! ```
//!
//! `staged` is the one timed step that happens *outside* the update
//! pause: the enqueuing thread verified the patch ahead of time, while
//! the guest kept running. It is recorded by the lifecycle that paid for
//! the work (a fleet rollout stages once and shares the result, so one
//! lifecycle per rollout carries it) and is not part of the phase sum.
//!
//! A *reverse* lifecycle — an inverse patch or snapshot restore undoing a
//! prior update — traverses the same stages and closes with
//! [`Stage::RolledBack`] instead of `Committed`; its phase events carry
//! the rollback's own `PhaseTimings`, so the phase-sum invariant holds
//! for downgrades exactly as it does for upgrades.
//!
//! Each step is recorded as a timestamped, worker-tagged [`Event`] in a
//! shared [`Journal`]. Events carry the *same* phase durations that land
//! in `PhaseTimings`, so a journal is a faithful, exportable view of the
//! update pauses the paper's Table 2 reports — per-patch phase sums match
//! `UpdateReport::timings.total()` exactly, by construction.
//!
//! The journal is a cheap-clone handle (`Arc` inside): a fleet shares one
//! journal across every worker thread and the coordinator, and events
//! interleave on a single monotonic sequence and a common epoch clock.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json;

/// One step of the update lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Patch entered the pending queue.
    Enqueued,
    /// The patch was staged ahead of the pause, on the enqueuing thread:
    /// verified against the types the target binds (the consulted
    /// definitions kept as a certificate the pause re-checks) and its
    /// patch-only link work precomputed. Timed, but outside
    /// [`Stage::PHASES`]: the guest was running.
    Staged,
    /// Rollout-gate rendezvous (barrier wait) at the start of a pause.
    GateWait,
    /// The host's drain hook, timed: whatever the host waits for before
    /// the patch binds. FlashEd waits for nothing (parked reads stay in
    /// flight), so only an injected pause fault shows here.
    Drain,
    /// Bytecode re-verification.
    Verify,
    /// Update-safety (compatibility) analysis.
    Compat,
    /// Dynamic linking.
    Link,
    /// Atomic rebinding.
    Bind,
    /// New-global initialisers.
    Init,
    /// State transformation.
    Transform,
    /// The patch applied; the process runs the new version.
    Committed,
    /// The patch was rejected or rolled back.
    Aborted,
    /// A rollback applied: the process runs the *prior* version again
    /// (inverse patch with reverse state transformers, or a snapshot
    /// restore). Terminal, like `Committed`, and carries the rollback's
    /// whole-pipeline total the same way.
    RolledBack,
}

impl Stage {
    /// The seven timed apply phases, in pipeline order (the breakdown of
    /// `PhaseTimings`).
    pub const PHASES: [Stage; 7] = [
        Stage::Drain,
        Stage::Verify,
        Stage::Compat,
        Stage::Link,
        Stage::Bind,
        Stage::Init,
        Stage::Transform,
    ];

    /// Stable lowercase name (used in JSONL and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Enqueued => "enqueued",
            Stage::Staged => "staged",
            Stage::GateWait => "gate-wait",
            Stage::Drain => "drain",
            Stage::Verify => "verify",
            Stage::Compat => "compat",
            Stage::Link => "link",
            Stage::Bind => "bind",
            Stage::Init => "init",
            Stage::Transform => "transform",
            Stage::Committed => "committed",
            Stage::Aborted => "aborted",
            Stage::RolledBack => "rolled-back",
        }
    }

    /// The inverse of [`Stage::name`] (for reading persisted journals
    /// back).
    pub fn from_name(name: &str) -> Option<Stage> {
        Some(match name {
            "enqueued" => Stage::Enqueued,
            "staged" => Stage::Staged,
            "gate-wait" => Stage::GateWait,
            "drain" => Stage::Drain,
            "verify" => Stage::Verify,
            "compat" => Stage::Compat,
            "link" => Stage::Link,
            "bind" => Stage::Bind,
            "init" => Stage::Init,
            "transform" => Stage::Transform,
            "committed" => Stage::Committed,
            "aborted" => Stage::Aborted,
            "rolled-back" => Stage::RolledBack,
            _ => return None,
        })
    }

    /// Position in the canonical lifecycle order (for bracketing checks).
    fn order(self) -> u8 {
        match self {
            Stage::Enqueued => 0,
            Stage::Staged => 1,
            Stage::GateWait => 2,
            Stage::Drain => 3,
            Stage::Verify => 4,
            Stage::Compat => 5,
            Stage::Link => 6,
            Stage::Bind => 7,
            Stage::Init => 8,
            Stage::Transform => 9,
            Stage::Committed => 10,
            Stage::Aborted => 10,
            Stage::RolledBack => 10,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global monotonic sequence number (unique within one journal).
    pub seq: u64,
    /// Offset from the journal's epoch when the event was recorded.
    pub at: Duration,
    /// The worker the event happened on (fleet runs), if tagged.
    pub worker: Option<usize>,
    /// The update lifecycle this event belongs to (one id per queued
    /// patch instance).
    pub update: u64,
    /// Source version of the transition.
    pub from_version: String,
    /// Target version of the transition.
    pub to_version: String,
    /// Lifecycle step.
    pub stage: Stage,
    /// Duration of the step, for timed stages (phases, gate waits, and
    /// `Committed`, which carries the whole-pipeline total).
    pub dur: Option<Duration>,
    /// Free-form context (abort cause, failing phase, queue depth).
    pub detail: Option<String>,
    /// Trace id of the update's root span, when tracing was on — the
    /// journal↔trace cross-link.
    pub trace: Option<u64>,
    /// Span id of the update's root span, when tracing was on.
    pub span: Option<u64>,
}

impl Event {
    /// One JSON object, no trailing newline (JSONL line).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"at_ns\":{},\"update\":{},\"from\":\"{}\",\"to\":\"{}\",\"stage\":\"{}\"",
            self.seq,
            self.at.as_nanos(),
            self.update,
            json::escape(&self.from_version),
            json::escape(&self.to_version),
            self.stage.name(),
        );
        if let Some(w) = self.worker {
            s.push_str(&format!(",\"worker\":{w}"));
        }
        if let Some(d) = self.dur {
            s.push_str(&format!(",\"dur_ns\":{}", d.as_nanos()));
        }
        if let Some(detail) = &self.detail {
            s.push_str(&format!(",\"detail\":\"{}\"", json::escape(detail)));
        }
        if let Some(t) = self.trace {
            s.push_str(&format!(",\"trace\":{t}"));
        }
        if let Some(sp) = self.span {
            s.push_str(&format!(",\"span\":{sp}"));
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line back into an event — the inverse of
    /// [`Event::to_json`], for recovering a persisted journal.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let fields = json::parse_flat_object(line)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let int = |key: &str| -> Result<i128, String> {
            get(key)
                .and_then(json::Scalar::as_int)
                .ok_or_else(|| format!("missing or non-integer `{key}`"))
        };
        let text = |key: &str| -> Result<String, String> {
            get(key)
                .and_then(json::Scalar::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string `{key}`"))
        };
        let opt_int = |key: &str| -> Result<Option<i128>, String> {
            match get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_int()
                    .map(Some)
                    .ok_or_else(|| format!("non-integer `{key}`")),
            }
        };
        let stage_name = text("stage")?;
        let stage =
            Stage::from_name(&stage_name).ok_or_else(|| format!("unknown stage `{stage_name}`"))?;
        Ok(Event {
            seq: int("seq")? as u64,
            at: Duration::from_nanos(int("at_ns")? as u64),
            worker: opt_int("worker")?.map(|w| w as usize),
            update: int("update")? as u64,
            from_version: text("from")?,
            to_version: text("to")?,
            stage,
            dur: opt_int("dur_ns")?.map(|d| Duration::from_nanos(d as u64)),
            detail: match get("detail") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or("non-string `detail`")?,
                ),
            },
            trace: opt_int("trace")?.map(|t| t as u64),
            span: opt_int("span")?.map(|s| s as u64),
        })
    }
}

struct Inner {
    epoch: Instant,
    /// Offset added to every timestamp. Zero for a fresh journal; a
    /// recovered journal sets it to the last persisted timestamp so the
    /// stream stays monotonic across the restart boundary.
    base: Duration,
    seq: AtomicU64,
    updates: AtomicU64,
    events: Mutex<Vec<Event>>,
    /// Write-ahead log: when set, every recorded event is appended (and
    /// flushed) as one JSONL line before `record` returns.
    wal: Mutex<Option<BufWriter<fs::File>>>,
}

/// A shared, append-only event journal (cheap to clone; all clones
/// observe the same stream).
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Inner>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("events", &self.len())
            .finish()
    }
}

impl Journal {
    /// Creates an empty journal; the epoch is now.
    pub fn new() -> Journal {
        Journal {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                base: Duration::ZERO,
                seq: AtomicU64::new(0),
                updates: AtomicU64::new(0),
                events: Mutex::new(Vec::new()),
                wal: Mutex::new(None),
            }),
        }
    }

    /// Creates an empty journal with a write-ahead log at `path`: every
    /// event is appended to the file as one JSONL line (flushed) before
    /// `record` returns, so a crash loses at most the event being
    /// written. The file is truncated if it exists.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn with_wal(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let file = fs::File::create(path)?;
        let j = Journal::new();
        *j.inner.wal.lock().expect("poisoned") = Some(BufWriter::new(file));
        Ok(j)
    }

    /// Reconstructs a journal from a write-ahead log written by
    /// [`Journal::with_wal`], and reopens the file in append mode so the
    /// recovered journal keeps persisting to the same log.
    ///
    /// Sequence numbers continue from the highest persisted `seq`, update
    /// ids from the highest persisted id, and new timestamps are offset
    /// past the last persisted one — so `validate_lifecycle` holds for
    /// lifecycles that straddle the restart boundary.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure or the first unparsable
    /// line.
    pub fn recover(path: impl AsRef<Path>) -> Result<Journal, String> {
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(Event::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        let seq = events.iter().map(|e| e.seq).max().unwrap_or(0);
        let updates = events.iter().map(|e| e.update).max().unwrap_or(0);
        let base = events.iter().map(|e| e.at).max().unwrap_or(Duration::ZERO);
        let file = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| format!("reopening {}: {e}", path.as_ref().display()))?;
        Ok(Journal {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                base,
                seq: AtomicU64::new(seq),
                updates: AtomicU64::new(updates),
                events: Mutex::new(events),
                wal: Mutex::new(Some(BufWriter::new(file))),
            }),
        })
    }

    /// Allocates a fresh update-lifecycle id (one per queued patch
    /// instance; ids are unique journal-wide, so a fleet-wide rollout of
    /// one patch yields one lifecycle per worker).
    pub fn next_update_id(&self) -> u64 {
        self.inner.updates.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Time elapsed since the journal epoch (offset past the recovery
    /// point for a recovered journal).
    pub fn elapsed(&self) -> Duration {
        self.inner.base + self.inner.epoch.elapsed()
    }

    /// Appends one event; `at` and `seq` are assigned here, so events are
    /// globally ordered by both.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        worker: Option<usize>,
        update: u64,
        from_version: &str,
        to_version: &str,
        stage: Stage,
        dur: Option<Duration>,
        detail: Option<&str>,
    ) {
        self.record_spanned(
            worker,
            update,
            from_version,
            to_version,
            stage,
            dur,
            detail,
            None,
        );
    }

    /// [`Journal::record`] plus the trace cross-link: `link` is the
    /// `(trace, span)` of the update's root span in the tracer, attached
    /// to every lifecycle event so journal rows resolve into the trace
    /// and back.
    #[allow(clippy::too_many_arguments)]
    pub fn record_spanned(
        &self,
        worker: Option<usize>,
        update: u64,
        from_version: &str,
        to_version: &str,
        stage: Stage,
        dur: Option<Duration>,
        detail: Option<&str>,
        link: Option<(u64, u64)>,
    ) {
        let at = self.inner.base + self.inner.epoch.elapsed();
        let mut events = self.inner.events.lock().expect("poisoned");
        // Seq assigned under the lock so event order and seq order agree.
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let event = Event {
            seq,
            at,
            worker,
            update,
            from_version: from_version.to_string(),
            to_version: to_version.to_string(),
            stage,
            dur,
            detail: detail.map(str::to_string),
            trace: link.map(|(t, _)| t),
            span: link.map(|(_, s)| s),
        };
        // Persist (still under the events lock, so file order matches seq
        // order) before making the event visible in memory.
        if let Some(w) = self.inner.wal.lock().expect("poisoned").as_mut() {
            let _ = writeln!(w, "{}", event.to_json());
            let _ = w.flush();
        }
        events.push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.events.lock().expect("poisoned").len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.lock().expect("poisoned").clone()
    }

    /// Events of one update lifecycle, in record order.
    pub fn events_for(&self, update: u64) -> Vec<Event> {
        self.inner
            .events
            .lock()
            .expect("poisoned")
            .iter()
            .filter(|e| e.update == update)
            .cloned()
            .collect()
    }

    /// Distinct update-lifecycle ids present, ascending.
    pub fn update_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .inner
            .events
            .lock()
            .expect("poisoned")
            .iter()
            .map(|e| e.update)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The whole journal as JSONL (one event object per line).
    pub fn to_jsonl(&self) -> String {
        let events = self.inner.events.lock().expect("poisoned");
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// Checks the ordering invariants of one update's event slice (as
/// returned by [`Journal::events_for`]): non-empty, opening with
/// `Enqueued`, closing with `Committed`, `Aborted` or `RolledBack`,
/// stages in lifecycle order, and `seq`/`at` monotonic. Abort and
/// rollback orderings are accepted alike: an aborted lifecycle may close
/// straight from `Enqueued`, and a reverse (rollback) lifecycle runs the
/// same phase sequence as a forward one (same checks, closing with
/// `RolledBack`).
///
/// Beyond ordering, it enforces the accounting invariants the rest of
/// the stack relies on: the terminal stage appears exactly once (at the
/// end), each timed pipeline phase at most once (so `Drain` precedes
/// every other phase of the same pause, gate waits precede the drain),
/// `Staged` at most once and only between `Enqueued` and the pause,
/// every event agrees on the version transition, and a `Committed` or
/// `RolledBack` total equals the sum of the phase durations exactly —
/// the phase-sum law that makes journal and `PhaseTimings` (and the
/// trace's phase spans) interchangeable.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_lifecycle(events: &[Event]) -> Result<(), String> {
    let first = events.first().ok_or("no events for update")?;
    if first.stage != Stage::Enqueued {
        return Err(format!(
            "lifecycle opens with {}, not enqueued",
            first.stage
        ));
    }
    let last = events.last().expect("non-empty");
    if !matches!(
        last.stage,
        Stage::Committed | Stage::Aborted | Stage::RolledBack
    ) {
        return Err(format!(
            "lifecycle closes with {}, not committed/aborted/rolled-back",
            last.stage
        ));
    }
    for pair in events.windows(2) {
        if pair[1].seq <= pair[0].seq {
            return Err(format!(
                "seq not monotonic: {} then {}",
                pair[0].seq, pair[1].seq
            ));
        }
        if pair[1].at < pair[0].at {
            return Err(format!(
                "timestamps not monotonic: {:?} then {:?}",
                pair[0].at, pair[1].at
            ));
        }
        if pair[1].stage.order() < pair[0].stage.order() {
            return Err(format!(
                "stage order violated: {} after {}",
                pair[1].stage, pair[0].stage
            ));
        }
    }
    // One terminal, and only at the end (two terminal stages share an
    // order and would slip past the monotonic check above).
    for e in &events[..events.len() - 1] {
        if matches!(
            e.stage,
            Stage::Committed | Stage::Aborted | Stage::RolledBack
        ) {
            return Err(format!("terminal {} before the last event", e.stage));
        }
    }
    // Each pipeline phase at most once per lifecycle: a second Drain (or
    // a repeated Bind) means two pauses were folded into one id. Likewise
    // the stage step: a patch is staged once, where it is enqueued (the
    // order check above already puts it after `Enqueued`, before `Drain`).
    for phase in Stage::PHASES.into_iter().chain([Stage::Staged]) {
        if events.iter().filter(|e| e.stage == phase).count() > 1 {
            return Err(format!("phase {phase} recorded more than once"));
        }
    }
    // A lifecycle is one version transition; every event must agree.
    for e in events {
        if e.from_version != first.from_version || e.to_version != first.to_version {
            return Err(format!(
                "version transition drifts: {}->{} then {}->{}",
                first.from_version, first.to_version, e.from_version, e.to_version
            ));
        }
    }
    // Phase-sum law: a committed/rolled-back total is exactly the sum of
    // its phase events (gate waits are pause overhead, not pipeline
    // time, and are excluded — same as `PhaseTimings::total`).
    if matches!(last.stage, Stage::Committed | Stage::RolledBack) {
        if let Some(total) = last.dur {
            let phase_sum: Duration = events
                .iter()
                .filter(|e| Stage::PHASES.contains(&e.stage))
                .filter_map(|e| e.dur)
                .sum();
            if phase_sum != total {
                return Err(format!(
                    "terminal {} total {total:?} != phase sum {phase_sum:?}",
                    last.stage
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_lifecycle(j: &Journal, worker: Option<usize>) -> u64 {
        let u = j.next_update_id();
        j.record(worker, u, "v1", "v2", Stage::Enqueued, None, None);
        for stage in Stage::PHASES {
            j.record(
                worker,
                u,
                "v1",
                "v2",
                stage,
                Some(Duration::from_micros(10)),
                None,
            );
        }
        j.record(
            worker,
            u,
            "v1",
            "v2",
            Stage::Committed,
            Some(Duration::from_micros(70)),
            None,
        );
        u
    }

    #[test]
    fn events_are_globally_ordered() {
        let j = Journal::new();
        let a = full_lifecycle(&j, Some(0));
        let b = full_lifecycle(&j, Some(1));
        assert_ne!(a, b);
        let events = j.events();
        assert_eq!(events.len(), 18);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(j.update_ids(), vec![a, b]);
    }

    #[test]
    fn lifecycle_validation_accepts_well_formed() {
        let j = Journal::new();
        let u = full_lifecycle(&j, None);
        validate_lifecycle(&j.events_for(u)).unwrap();
    }

    #[test]
    fn lifecycle_validation_rejects_misordered() {
        let j = Journal::new();
        let u = j.next_update_id();
        j.record(None, u, "v1", "v2", Stage::Enqueued, None, None);
        j.record(None, u, "v1", "v2", Stage::Link, None, None);
        j.record(None, u, "v1", "v2", Stage::Verify, None, None);
        j.record(None, u, "v1", "v2", Stage::Committed, None, None);
        let e = validate_lifecycle(&j.events_for(u)).unwrap_err();
        assert!(e.contains("stage order"), "{e}");

        // Missing terminal stage.
        let u2 = j.next_update_id();
        j.record(None, u2, "v1", "v2", Stage::Enqueued, None, None);
        let e = validate_lifecycle(&j.events_for(u2)).unwrap_err();
        assert!(e.contains("closes"), "{e}");
    }

    #[test]
    fn lifecycle_validation_accepts_rollbacks() {
        // A reverse lifecycle runs the same stages and closes with
        // `RolledBack`; the validator treats it like any terminal stage.
        let j = Journal::new();
        let u = j.next_update_id();
        j.record(Some(2), u, "v2", "v1", Stage::Enqueued, None, None);
        for stage in Stage::PHASES {
            j.record(
                Some(2),
                u,
                "v2",
                "v1",
                stage,
                Some(Duration::from_micros(5)),
                None,
            );
        }
        j.record(
            Some(2),
            u,
            "v2",
            "v1",
            Stage::RolledBack,
            Some(Duration::from_micros(35)),
            None,
        );
        validate_lifecycle(&j.events_for(u)).unwrap();

        // An aborted rollback is still a valid (abort-ordered) lifecycle.
        let u2 = j.next_update_id();
        j.record(Some(2), u2, "v2", "v1", Stage::Enqueued, None, None);
        j.record(
            Some(2),
            u2,
            "v2",
            "v1",
            Stage::Aborted,
            None,
            Some("no snapshot available"),
        );
        validate_lifecycle(&j.events_for(u2)).unwrap();
    }

    #[test]
    fn lifecycle_validation_enforces_accounting_laws() {
        // Terminal total must equal the phase sum exactly.
        let j = Journal::new();
        let u = j.next_update_id();
        j.record(None, u, "v1", "v2", Stage::Enqueued, None, None);
        j.record(
            None,
            u,
            "v1",
            "v2",
            Stage::Bind,
            Some(Duration::from_micros(10)),
            None,
        );
        j.record(
            None,
            u,
            "v1",
            "v2",
            Stage::Committed,
            Some(Duration::from_micros(11)),
            None,
        );
        let e = validate_lifecycle(&j.events_for(u)).unwrap_err();
        assert!(e.contains("phase sum"), "{e}");

        // A repeated phase means two pauses were folded into one id.
        let u2 = j.next_update_id();
        j.record(None, u2, "v2", "v1", Stage::Enqueued, None, None);
        j.record(None, u2, "v2", "v1", Stage::Drain, None, None);
        j.record(None, u2, "v2", "v1", Stage::Drain, None, None);
        j.record(None, u2, "v2", "v1", Stage::RolledBack, None, None);
        let e = validate_lifecycle(&j.events_for(u2)).unwrap_err();
        assert!(e.contains("more than once"), "{e}");

        // The version transition may not drift mid-lifecycle.
        let u3 = j.next_update_id();
        j.record(None, u3, "v1", "v2", Stage::Enqueued, None, None);
        j.record(None, u3, "v1", "v3", Stage::Committed, None, None);
        let e = validate_lifecycle(&j.events_for(u3)).unwrap_err();
        assert!(e.contains("drifts"), "{e}");

        // Staged: once, after Enqueued, before the pause — and outside the
        // phase sum.
        let us = Some(Duration::from_micros(30));
        let u5 = j.next_update_id();
        j.record(None, u5, "v1", "v2", Stage::Enqueued, None, None);
        j.record(None, u5, "v1", "v2", Stage::Staged, us, None);
        j.record(None, u5, "v1", "v2", Stage::Drain, us, None);
        j.record(None, u5, "v1", "v2", Stage::Committed, us, None);
        validate_lifecycle(&j.events_for(u5)).unwrap();
        let u6 = j.next_update_id();
        j.record(None, u6, "v1", "v2", Stage::Enqueued, None, None);
        j.record(None, u6, "v1", "v2", Stage::Staged, us, None);
        j.record(None, u6, "v1", "v2", Stage::Staged, us, None);
        j.record(None, u6, "v1", "v2", Stage::Aborted, None, None);
        let e = validate_lifecycle(&j.events_for(u6)).unwrap_err();
        assert!(e.contains("more than once"), "{e}");
        let u7 = j.next_update_id();
        j.record(None, u7, "v1", "v2", Stage::Enqueued, None, None);
        j.record(None, u7, "v1", "v2", Stage::Drain, us, None);
        j.record(None, u7, "v1", "v2", Stage::Staged, us, None);
        j.record(None, u7, "v1", "v2", Stage::Committed, us, None);
        let e = validate_lifecycle(&j.events_for(u7)).unwrap_err();
        assert!(e.contains("stage order"), "{e}");

        // A terminal stage anywhere but last is rejected.
        let u4 = j.next_update_id();
        j.record(None, u4, "v1", "v2", Stage::Enqueued, None, None);
        j.record(None, u4, "v1", "v2", Stage::Committed, None, None);
        j.record(None, u4, "v1", "v2", Stage::RolledBack, None, None);
        let e = validate_lifecycle(&j.events_for(u4)).unwrap_err();
        assert!(e.contains("before the last"), "{e}");
    }

    #[test]
    fn spanned_events_carry_the_cross_link() {
        let j = Journal::new();
        let u = j.next_update_id();
        j.record_spanned(
            Some(1),
            u,
            "v1",
            "v2",
            Stage::Enqueued,
            None,
            None,
            Some((7, 42)),
        );
        let e = &j.events_for(u)[0];
        assert_eq!(e.trace, Some(7));
        assert_eq!(e.span, Some(42));
        let line = j.to_jsonl();
        assert!(line.contains("\"trace\":7"), "{line}");
        assert!(line.contains("\"span\":42"), "{line}");
    }

    #[test]
    fn jsonl_round_trips_the_essentials() {
        let j = Journal::new();
        let u = j.next_update_id();
        j.record(
            Some(3),
            u,
            "v1",
            "v2",
            Stage::Aborted,
            None,
            Some("state transformer \"x\" trapped"),
        );
        let jsonl = j.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let line = jsonl.lines().next().unwrap();
        assert!(line.contains("\"stage\":\"aborted\""), "{line}");
        assert!(line.contains("\"worker\":3"), "{line}");
        assert!(line.contains("\\\"x\\\""), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn clones_share_the_stream() {
        let j = Journal::new();
        let j2 = j.clone();
        full_lifecycle(&j, None);
        assert_eq!(j2.len(), 9);
        assert!(!j2.is_empty());
    }

    #[test]
    fn events_round_trip_through_json() {
        let j = Journal::new();
        let u = j.next_update_id();
        j.record_spanned(
            Some(4),
            u,
            "v1",
            "v2",
            Stage::Transform,
            Some(Duration::from_nanos(12_345)),
            Some("detail with \"quotes\"\nand newline"),
            Some((9, 11)),
        );
        j.record(None, u, "v1", "v2", Stage::Aborted, None, None);
        for e in j.events() {
            let back = Event::from_json(&e.to_json()).unwrap();
            assert_eq!(back, e);
        }
        assert!(Event::from_json("{\"seq\":1}").is_err());
        assert!(Event::from_json("not json").is_err());
    }

    #[test]
    fn wal_persists_and_recovery_continues_the_stream() {
        let path =
            std::env::temp_dir().join(format!("dsu-journal-wal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // First incarnation: open a lifecycle but crash before closing it.
        let j = Journal::with_wal(&path).unwrap();
        let u = j.next_update_id();
        j.record(Some(0), u, "v1", "v2", Stage::Enqueued, None, None);
        j.record(
            Some(0),
            u,
            "v1",
            "v2",
            Stage::Bind,
            Some(Duration::from_micros(10)),
            None,
        );
        let seq_before = j.events().last().unwrap().seq;
        drop(j); // "crash": in-memory journal gone, file remains

        // Second incarnation recovers the stream and finishes the
        // lifecycle; seq/at/update-id all continue monotonically.
        let r = Journal::recover(&path).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.events_for(u).len(), 2);
        r.record(
            Some(0),
            u,
            "v1",
            "v2",
            Stage::Committed,
            Some(Duration::from_micros(10)),
            None,
        );
        assert!(r.events().last().unwrap().seq > seq_before);
        validate_lifecycle(&r.events_for(u)).unwrap();
        let u2 = r.next_update_id();
        assert!(u2 > u, "update ids continue past the recovered max");

        // The continuation also hit the WAL: recover again from disk and
        // the straddling lifecycle still validates.
        let r2 = Journal::recover(&path).unwrap();
        assert_eq!(r2.len(), 3);
        validate_lifecycle(&r2.events_for(u)).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
