//! Staged-cohort rollout orchestration with rollback chains.
//!
//! The [`fleet`](crate::fleet) module owns worker lifecycle and
//! queueing; *driving* a patch across workers lives here. The unit of
//! driving is a [`RolloutPlan`]: an ordered list of [`CohortSpec`]s
//! (cumulative targets — e.g. 1 worker, then 25%, then 100%), an
//! optional [`PauseSlo`] health gate judging every worker after its
//! cohort applies, a soak window between cohorts, and a
//! [`BreachAction`] for when a gate trips. Every classic policy is a
//! degenerate plan:
//!
//! * [`RolloutPlan::simultaneous`] — one all-worker cohort,
//!   barrier-coordinated, no gate;
//! * [`RolloutPlan::rolling`] — one cohort per worker, no gate;
//! * [`RolloutPlan::guarded`] — one cohort per worker, canary first,
//!   gated.
//!
//! A rollout *stages* its patch once, on the coordinator, while every
//! worker serves ([`dsu_core::UpdaterRemote::stage`], against the first
//! target's published types), and hands each member the same staged
//! value: a worker's update pause re-checks the stage's certificate and
//! verifies for itself only when its types differ.
//!
//! Each member is awaited by one park on its enqueue handle (see
//! [`fleet`](crate::fleet)): a step's health window closes the moment
//! its pause does, so completion liveness is judged on evidence
//! (`settle_liveness`), never on how long the coordinator happened to
//! wait.
//!
//! An [`Orchestrator`] drives one plan across *several* shard
//! [`Fleet`]s at once: cohorts are resolved over the global worker set,
//! cross-fleet cohort members rendezvous on one shared barrier, and a
//! configurable **version-skew bound** caps how many distinct versions
//! may serve simultaneously fleet-of-fleets-wide. On a breach, a
//! [`BreachAction::ChainRollBack`] walks every worker's snapshot-ring
//! rollback *chain* (v3 → v2 → v1) down to a target version — undoing
//! earlier rollouts too, not just the breached one. The whole run is
//! summarised in one [`OrchestratorReport`] (merged
//! [`RolloutReportCard`], per-cohort timings, skew peak and window).
//!
//! When the shard fleets share a write-ahead
//! [`Journal`] (see [`FleetConfig::with_journal`](crate::FleetConfig)),
//! an orchestrator killed mid-rollout can be rebuilt and
//! [`Orchestrator::resume`]d: completed cohorts are reconstructed from
//! the persisted `Committed` events and driving restarts at the first
//! incomplete cohort.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use dsu_core::{FleetUpdateReport, Mark, Patch, StagedPatch, UpdateReport, UpdaterRemote};
use dsu_obs::{Journal, Stage};

use crate::fleet::{Fleet, FleetError};
use crate::guard::{
    windowed_quantile, BreachAction, ErrorRateWindow, HealthBreach, HealthGate, PauseSlo,
    RolloutOutcome, RolloutReportCard, StepHealth,
};

/// How many times a cohort worker's patch is re-driven after a
/// supervised restart withdrew it mid-wait.
const MAX_REDRIVES: usize = 2;

/// How many extra soak windows a marginal step can earn before the
/// rollout advances anyway.
const MAX_SOAK_EXTENDS: usize = 3;

/// How often an inconclusive liveness window re-reads the completion log
/// (see [`settle_liveness`]). The data plane's completion push wakes
/// nobody, by design, so this one wait is a poll.
const LIVENESS_POLL: Duration = Duration::from_micros(100);

/// Closes a step's liveness window on evidence. `read` returns the
/// window's `(new completions, queued backlog)`. A backlog with no
/// completion is not yet a stall when the window is shorter than one
/// request's service time — and a step's window is as short as its pause —
/// so such a window stays open until a completion lands, the backlog
/// clears, or `budget` has passed; the reading returned is the one the
/// gate judges.
fn settle_liveness(budget: Duration, mut read: impl FnMut() -> (usize, usize)) -> (usize, usize) {
    let deadline = Instant::now() + budget;
    loop {
        let (done, queued) = read();
        if done > 0 || queued == 0 || Instant::now() >= deadline {
            return (done, queued);
        }
        thread::sleep(LIVENESS_POLL);
    }
}

/// One stage of a [`RolloutPlan`], as a *cumulative* coverage target
/// over the global worker set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CohortSpec {
    /// Grow coverage to `n` workers total.
    Count(usize),
    /// Grow coverage to `⌈fraction · workers⌉` total.
    Fraction(f64),
    /// Expand every not-yet-covered worker into its own singleton
    /// cohort (the classic rolling/guarded shape).
    EachRemaining,
}

/// An ordered staged-rollout plan: which workers update together, in
/// what order, judged how, with what reaction to a health breach.
#[derive(Debug, Clone)]
pub struct RolloutPlan {
    /// The worker (global id) updated first — cohort order starts here.
    pub canary: usize,
    /// Cumulative cohort targets, in driving order. Targets that add no
    /// new workers resolve to nothing and are skipped.
    pub cohorts: Vec<CohortSpec>,
    /// How long the orchestrator soaks (keeps serving, watching) between
    /// cohorts.
    pub soak: Duration,
    /// The pause budget each worker is judged against after its cohort
    /// applies; `None` drives ungated (stalls become errors, nothing
    /// else is judged).
    pub gate: Option<PauseSlo>,
    /// Optional end-to-end request-latency SLO, judged over the window
    /// of each stepped worker's sojourn histogram that filled during the
    /// step. Only effective when `gate` is set.
    pub latency_slo: Option<PauseSlo>,
    /// Optional error-rate window (read errors plus sheds, over
    /// completions plus sheds). When set, raw read errors are judged by
    /// ratio instead of tripping on the first one. Only effective when
    /// `gate` is set.
    pub error_budget: Option<ErrorRateWindow>,
    /// What to do when a gated step breaches.
    pub on_breach: BreachAction,
}

impl RolloutPlan {
    /// One all-worker cohort, barrier-coordinated, ungated: every worker
    /// pauses at its next update point, all apply at once, all resume.
    pub fn simultaneous() -> RolloutPlan {
        RolloutPlan {
            canary: 0,
            cohorts: vec![CohortSpec::Fraction(1.0)],
            soak: Duration::ZERO,
            gate: None,
            latency_slo: None,
            error_budget: None,
            on_breach: BreachAction::Hold,
        }
    }

    /// One cohort per worker, ungated: workers apply one at a time while
    /// the rest keep serving.
    pub fn rolling() -> RolloutPlan {
        RolloutPlan {
            canary: 0,
            cohorts: vec![CohortSpec::EachRemaining],
            soak: Duration::ZERO,
            gate: None,
            latency_slo: None,
            error_budget: None,
            on_breach: BreachAction::Hold,
        }
    }

    /// One cohort per worker, canary first, every step judged against
    /// `slo` before the next begins; `on_breach` says what a breach does.
    pub fn guarded(canary: usize, slo: PauseSlo, on_breach: BreachAction) -> RolloutPlan {
        RolloutPlan {
            canary,
            cohorts: vec![CohortSpec::EachRemaining],
            soak: Duration::ZERO,
            gate: Some(slo),
            latency_slo: None,
            error_budget: None,
            on_breach,
        }
    }

    /// The canonical staged shape: 1 worker → 25% → 100%, gated.
    pub fn staged(canary: usize, slo: PauseSlo, on_breach: BreachAction) -> RolloutPlan {
        RolloutPlan {
            canary,
            cohorts: vec![
                CohortSpec::Count(1),
                CohortSpec::Fraction(0.25),
                CohortSpec::Fraction(1.0),
            ],
            soak: Duration::ZERO,
            gate: Some(slo),
            latency_slo: None,
            error_budget: None,
            on_breach,
        }
    }

    /// Sets the between-cohort soak window.
    #[must_use]
    pub fn with_soak(mut self, soak: Duration) -> RolloutPlan {
        self.soak = soak;
        self
    }

    /// Adds an end-to-end request-latency SLO: each gated step's
    /// windowed sojourn quantile must stay within `slo.max`.
    #[must_use]
    pub fn with_latency_slo(mut self, slo: PauseSlo) -> RolloutPlan {
        self.latency_slo = Some(slo);
        self
    }

    /// Adds an error-rate window verdict over each gated step's read
    /// errors and sheds.
    #[must_use]
    pub fn with_error_budget(mut self, window: ErrorRateWindow) -> RolloutPlan {
        self.error_budget = Some(window);
        self
    }

    /// Resolves the plan against an `n`-worker global set into concrete
    /// cohorts of global worker ids: canary first, then id order, each
    /// spec claiming workers up to its cumulative target. Cohorts that
    /// claim nothing are dropped; workers beyond the last target are
    /// never updated (the plan's choice).
    pub fn resolve(&self, n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let canary = self.canary.min(n - 1);
        let order: Vec<usize> = std::iter::once(canary)
            .chain((0..n).filter(|&i| i != canary))
            .collect();
        let mut cohorts = Vec::new();
        let mut taken = 0usize;
        for spec in &self.cohorts {
            match spec {
                CohortSpec::EachRemaining => {
                    while taken < n {
                        cohorts.push(vec![order[taken]]);
                        taken += 1;
                    }
                }
                CohortSpec::Count(k) => {
                    let target = (*k).min(n);
                    if target > taken {
                        cohorts.push(order[taken..target].to_vec());
                        taken = target;
                    }
                }
                CohortSpec::Fraction(f) => {
                    let target = ((f * n as f64).ceil() as usize).min(n);
                    if target > taken {
                        cohorts.push(order[taken..target].to_vec());
                        taken = target;
                    }
                }
            }
        }
        cohorts
    }
}

/// One driven cohort's summary inside an [`OrchestratorReport`].
#[derive(Debug, Clone)]
pub struct CohortReport {
    /// Position in the resolved plan (0-based; stable across resume).
    pub index: usize,
    /// Global worker ids the cohort covered.
    pub workers: Vec<usize>,
    /// The cohort's pooled update pause at the plan's SLO quantile
    /// (maximum pause for ungated plans); `None` when no pause was seen.
    pub pause_at_quantile: Option<Duration>,
    /// Wall-clock from first enqueue to last verdict (soak excluded).
    pub dur: Duration,
    /// Whether the orchestrator soaked after this cohort.
    pub soaked: bool,
    /// Extra soak windows this cohort earned because its latest health
    /// reading was marginal (0 when the soak ended on schedule).
    pub soak_extends: usize,
}

/// Everything one orchestrated rollout left behind.
#[derive(Debug)]
pub struct OrchestratorReport {
    /// The merged per-worker apply/failure/pause report (worker ids are
    /// global across fleets).
    pub fleet_report: FleetUpdateReport,
    /// The guarded-rollout report card (steps, outcome, rollbacks,
    /// final versions — global ids throughout).
    pub card: RolloutReportCard,
    /// Per-cohort summaries, in driving order.
    pub cohorts: Vec<CohortReport>,
    /// How many shard fleets the orchestrator drove.
    pub fleets: usize,
    /// The configured skew bound (`usize::MAX` when unbounded).
    pub skew_bound: usize,
    /// Peak cross-fleet version skew observed (distinct versions − 1).
    pub max_skew: usize,
    /// Total wall-clock during which skew was non-zero (the
    /// mixed-version exposure window).
    pub skew_window: Duration,
    /// The cohort index this run started from (non-zero after
    /// [`Orchestrator::resume`]).
    pub resumed_from: usize,
}

impl OrchestratorReport {
    /// One JSON object (single line) summarising the run; the embedded
    /// `card` is [`RolloutReportCard::to_json`].
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"fleets\":{},\"workers\":{},\"skew_bound\":{},\"max_skew\":{},\
             \"skew_window_us\":{},\"resumed_from\":{},\"cohorts\":[",
            self.fleets,
            self.fleet_report.workers,
            if self.skew_bound == usize::MAX {
                -1i64
            } else {
                self.skew_bound as i64
            },
            self.max_skew,
            self.skew_window.as_micros(),
            self.resumed_from,
        );
        for (i, c) in self.cohorts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"index\":{},\"workers\":{:?},\"pause_at_quantile_us\":{},\
                 \"dur_us\":{},\"soaked\":{},\"soak_extends\":{}}}",
                c.index,
                c.workers,
                c.pause_at_quantile
                    .map(|d| d.as_micros() as i128)
                    .unwrap_or(-1),
                c.dur.as_micros(),
                c.soaked,
                c.soak_extends,
            ));
        }
        s.push_str("],\"card\":");
        s.push_str(&self.card.to_json());
        s.push('}');
        s
    }

    /// A human-readable multi-cohort timeline of the run.
    pub fn render(&self) -> String {
        let (from, to) = &self.card.transition;
        let mut out = format!(
            "staged rollout {from} -> {to}: {} fleets / {} workers",
            self.fleets, self.fleet_report.workers
        );
        if self.skew_bound != usize::MAX {
            out.push_str(&format!(" (skew bound {})", self.skew_bound));
        }
        if self.resumed_from > 0 {
            out.push_str(&format!("  [resumed at cohort {}]", self.resumed_from));
        }
        out.push('\n');
        for c in &self.cohorts {
            let workers = c
                .workers
                .iter()
                .map(|w| format!("w{w}"))
                .collect::<Vec<_>>()
                .join(" ");
            let pause = match c.pause_at_quantile {
                Some(d) => format!("{:.1?}", d),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  cohort {:>2}  [{workers}]  pause@q {pause}  {:.1?}{}\n",
                c.index,
                c.dur,
                match (c.soaked, c.soak_extends) {
                    (false, _) => String::new(),
                    (true, 0) => "  soak".to_string(),
                    (true, n) => format!("  soak (+{n} extends)"),
                },
            ));
        }
        match &self.card.outcome {
            RolloutOutcome::Completed => out.push_str("  outcome: completed\n"),
            RolloutOutcome::Held(b) => out.push_str(&format!("  outcome: HELD — {b}\n")),
            RolloutOutcome::RolledBack(b) => {
                out.push_str(&format!("  outcome: ROLLED BACK — {b}\n"));
                for (w, r) in &self.card.rollbacks {
                    out.push_str(&format!(
                        "    w{w}: {} -> {} undone\n",
                        r.to_version, r.from_version
                    ));
                }
            }
        }
        out.push_str(&format!(
            "  skew: peak {}, mixed-version window {:.1?}; final versions {:?}\n",
            self.max_skew, self.skew_window, self.card.final_versions
        ));
        out
    }
}

/// Mutable skew bookkeeping for one orchestrated run.
struct SkewWatch {
    bound: usize,
    max: usize,
    window: Duration,
    open: Option<Instant>,
}

impl SkewWatch {
    fn new(bound: usize) -> SkewWatch {
        SkewWatch {
            bound,
            max: 0,
            window: Duration::ZERO,
            open: None,
        }
    }

    /// Folds one skew sample in; errors when the bound is crossed.
    fn sample(&mut self, skew: usize) -> Result<(), FleetError> {
        self.max = self.max.max(skew);
        if skew > 0 && self.open.is_none() {
            self.open = Some(Instant::now());
        }
        if skew == 0 {
            if let Some(t0) = self.open.take() {
                self.window += t0.elapsed();
            }
        }
        if skew > self.bound {
            return Err(FleetError::SkewExceeded {
                observed: skew,
                bound: self.bound,
            });
        }
        Ok(())
    }

    fn close(&mut self) {
        if let Some(t0) = self.open.take() {
            self.window += t0.elapsed();
        }
    }
}

/// Drives several shard [`Fleet`]s through one [`RolloutPlan`].
///
/// Worker addressing is *global*: fleet 0's workers come first, then
/// fleet 1's, and so on; plan canaries, cohort members, report cards
/// and health verdicts all speak global ids. For the shared journal to
/// agree, boot each shard with
/// [`FleetConfig::worker_base`](crate::FleetConfig) set to its offset.
pub struct Orchestrator<'a> {
    fleets: &'a [Fleet],
    skew_bound: usize,
}

impl<'a> Orchestrator<'a> {
    /// An orchestrator over `fleets`, with no skew bound.
    pub fn new(fleets: &'a [Fleet]) -> Orchestrator<'a> {
        assert!(
            !fleets.is_empty(),
            "an orchestrator needs at least one fleet"
        );
        Orchestrator {
            fleets,
            skew_bound: usize::MAX,
        }
    }

    /// Caps the cross-fleet version skew (distinct live versions minus
    /// one); a rollout observing more fails with
    /// [`FleetError::SkewExceeded`].
    #[must_use]
    pub fn skew_bound(mut self, bound: usize) -> Orchestrator<'a> {
        self.skew_bound = bound;
        self
    }

    /// Total workers across all shard fleets.
    pub fn worker_count(&self) -> usize {
        self.fleets.iter().map(Fleet::worker_count).sum()
    }

    /// `(fleet index, local worker index)` for a global worker id.
    fn locate(&self, gid: usize) -> (usize, usize) {
        let mut offset = 0;
        for (fi, f) in self.fleets.iter().enumerate() {
            if gid < offset + f.worker_count() {
                return (fi, gid - offset);
            }
            offset += f.worker_count();
        }
        panic!("worker {gid} out of range ({} total)", offset);
    }

    /// Global id offsets per fleet.
    fn offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.fleets.len());
        let mut off = 0;
        for f in self.fleets {
            offsets.push(off);
            off += f.worker_count();
        }
        offsets
    }

    /// Every worker's live version, in global id order.
    pub fn live_versions(&self) -> Vec<String> {
        self.fleets.iter().flat_map(Fleet::live_versions).collect()
    }

    /// Distinct live versions minus one, across every fleet.
    pub fn global_skew(&self) -> usize {
        let mut versions = self.live_versions();
        versions.sort();
        versions.dedup();
        versions.len().saturating_sub(1)
    }

    /// Drives `patch` through the whole `plan`.
    ///
    /// # Errors
    ///
    /// [`FleetError::SkewExceeded`] when the skew bound is crossed; an
    /// ungated stall surfaces as [`FleetError::RolloutStalled`] (nothing
    /// updated) or [`FleetError::PartialRollout`]; a stalled *rollback*
    /// is [`FleetError::RolloutStalled`]. Gated forward stalls are
    /// health breaches, not errors.
    pub fn rollout(
        &self,
        patch: &Patch,
        plan: &RolloutPlan,
    ) -> Result<OrchestratorReport, FleetError> {
        self.rollout_span(patch, plan, 0, None)
    }

    /// Drives `count` cohorts of `plan` starting at resolved-cohort
    /// index `start` (`None` = all remaining). The crash-test seam:
    /// a prefix run, a kill, then [`Orchestrator::resume`].
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::rollout`].
    pub fn rollout_span(
        &self,
        patch: &Patch,
        plan: &RolloutPlan,
        start: usize,
        count: Option<usize>,
    ) -> Result<OrchestratorReport, FleetError> {
        let n = self.worker_count();
        assert!(n > 0, "an orchestrator needs at least one worker");
        let cohorts = plan.resolve(n);
        let end = match count {
            Some(c) => (start + c).min(cohorts.len()),
            None => cohorts.len(),
        };

        for f in self.fleets {
            if let Some(t) = f.telemetry() {
                t.record_rollout_start();
            }
        }
        let traces: Vec<_> = self.fleets.iter().map(Fleet::begin_rollout_trace).collect();

        let mut run = Run {
            orch: self,
            patch,
            staged: None,
            plan,
            gate: plan.gate.map(|slo| {
                let mut g = HealthGate::new(slo);
                if let Some(l) = plan.latency_slo {
                    g = g.with_latency_slo(l);
                }
                if let Some(w) = plan.error_budget {
                    g = g.with_error_rate(w);
                }
                g
            }),
            marks: self.fleets.iter().map(Fleet::marks).collect(),
            steps: Vec::new(),
            forward: Vec::new(),
            rollbacks: Vec::new(),
            outcome: RolloutOutcome::Completed,
            cohort_reports: Vec::new(),
            skew: SkewWatch::new(self.skew_bound),
        };
        let result = run.drive(&cohorts, start, end);
        run.skew.close();
        // Root spans close on every exit path — a stalled or skew-bounded
        // rollout still leaves complete traces behind.
        for (f, rt) in self.fleets.iter().zip(traces) {
            f.end_rollout_trace(rt, patch);
        }
        let Run {
            marks,
            steps,
            forward,
            rollbacks,
            outcome,
            cohort_reports,
            skew,
            ..
        } = run;
        result?;

        let offsets = self.offsets();
        let mut fleet_report = FleetUpdateReport {
            workers: n,
            ..FleetUpdateReport::default()
        };
        for ((f, marks), off) in self.fleets.iter().zip(&marks).zip(&offsets) {
            let r = f.collect_report(marks);
            fleet_report
                .applied
                .extend(r.applied.into_iter().map(|(i, rep)| (off + i, rep)));
            fleet_report
                .failed
                .extend(r.failed.into_iter().map(|(i, e)| (off + i, e)));
            fleet_report.pauses.extend(r.pauses);
        }

        let card = RolloutReportCard {
            transition: (patch.from_version.clone(), patch.to_version.clone()),
            canary: plan.canary.min(n - 1),
            slo: plan.gate.unwrap_or(PauseSlo {
                quantile: 1.0,
                max: Duration::MAX,
            }),
            steps,
            outcome,
            forward,
            rollbacks,
            final_versions: self.live_versions(),
        };
        Ok(OrchestratorReport {
            fleet_report,
            card,
            cohorts: cohort_reports,
            fleets: self.fleets.len(),
            skew_bound: self.skew_bound,
            max_skew: skew.max,
            skew_window: skew.window,
            resumed_from: start,
        })
    }

    /// Resumes a rollout from the cohort progress persisted in
    /// `journal`: cohorts whose every member already committed
    /// `patch`'s transition are skipped, driving restarts at the first
    /// incomplete one.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::rollout`].
    pub fn resume(
        &self,
        patch: &Patch,
        plan: &RolloutPlan,
        journal: &Journal,
    ) -> Result<OrchestratorReport, FleetError> {
        let done = Orchestrator::completed_cohorts(journal, patch, plan, self.worker_count());
        self.rollout_span(patch, plan, done, None)
    }

    /// How many leading resolved cohorts of `plan` are fully committed
    /// in `journal` for `patch`'s transition — the resume point after a
    /// crash. Counts stop at the first cohort with any uncommitted
    /// member.
    pub fn completed_cohorts(
        journal: &Journal,
        patch: &Patch,
        plan: &RolloutPlan,
        workers: usize,
    ) -> usize {
        let committed: HashSet<usize> = journal
            .events()
            .iter()
            .filter(|e| {
                e.stage == Stage::Committed
                    && e.from_version == patch.from_version
                    && e.to_version == patch.to_version
            })
            .filter_map(|e| e.worker)
            .collect();
        plan.resolve(workers)
            .iter()
            .take_while(|cohort| cohort.iter().all(|gid| committed.contains(gid)))
            .count()
    }
}

/// One in-flight orchestrated rollout's mutable state. Marks are owned
/// and mutable: a supervised restart resets a worker's history, so its
/// mark is re-taken before the patch is re-driven.
struct Run<'o, 'a> {
    orch: &'o Orchestrator<'a>,
    patch: &'o Patch,
    /// `patch`, staged once per rollout — at the first enqueue, against
    /// the first target's types, here on the coordinator while the fleet
    /// serves. Every member is handed this one value and its pause checks
    /// the certificate against its own types.
    staged: Option<Arc<StagedPatch>>,
    plan: &'o RolloutPlan,
    gate: Option<HealthGate>,
    marks: Vec<Vec<Mark>>,
    steps: Vec<StepHealth>,
    forward: Vec<(usize, UpdateReport)>,
    rollbacks: Vec<(usize, UpdateReport)>,
    outcome: RolloutOutcome,
    cohort_reports: Vec<CohortReport>,
    skew: SkewWatch,
}

/// Point-in-time counters opening one health window over a worker:
/// readings taken at step (or soak) start, judged against the current
/// values when the window closes.
struct StepMarks {
    failures: usize,
    read_errors: u64,
    completions: usize,
    sheds: u64,
    sojourn_buckets: Option<Vec<u64>>,
}

impl Run<'_, '_> {
    /// Drives cohorts `start..end`, judging, soaking and reacting to
    /// breaches along the way.
    fn drive(
        &mut self,
        cohorts: &[Vec<usize>],
        start: usize,
        end: usize,
    ) -> Result<(), FleetError> {
        let orch = self.orch;
        for ci in start..end {
            let members = &cohorts[ci];
            let began = Instant::now();
            let breach = self.drive_cohort(members)?;
            let pooled: Vec<Duration> = members
                .iter()
                .flat_map(|&gid| {
                    let (fi, li) = orch.locate(gid);
                    let since = orch.fleets[fi].workers()[li]
                        .remote()
                        .since(self.marks[fi][li]);
                    since.pauses.into_iter().map(|p| p.dur)
                })
                .collect();
            let slo = self.plan.gate.unwrap_or(PauseSlo {
                quantile: 1.0,
                max: Duration::MAX,
            });
            let breached = breach.is_some();
            let last = ci + 1 == cohorts.len();
            let soaked = !breached && !last && self.plan.soak > Duration::ZERO;
            self.cohort_reports.push(CohortReport {
                index: ci,
                workers: members.clone(),
                pause_at_quantile: slo.observe(&pooled),
                dur: began.elapsed(),
                soaked,
                soak_extends: 0,
            });
            if let Some(b) = breach {
                self.outcome = match self.plan.on_breach.clone() {
                    BreachAction::Hold => RolloutOutcome::Held(b),
                    BreachAction::RollBack { inverse } => {
                        self.roll_back_forward(inverse.as_deref())?;
                        RolloutOutcome::RolledBack(b)
                    }
                    BreachAction::ChainRollBack { to_version } => {
                        self.chain_roll_back(&to_version)?;
                        RolloutOutcome::RolledBack(b)
                    }
                };
                break;
            }
            if soaked {
                thread::sleep(self.plan.soak);
                let extends = self.extend_soak_while_marginal(members);
                if let Some(report) = self.cohort_reports.last_mut() {
                    report.soak_extends = extends;
                }
            }
        }
        Ok(())
    }

    /// Auto-extends a soak window: while the latest health reading for
    /// the cohort's last-stepped worker is *marginal* (passing, but at
    /// 80%+ of some budget), sleep another soak window and re-measure —
    /// up to [`MAX_SOAK_EXTENDS`] times. Returns the extensions taken.
    fn extend_soak_while_marginal(&mut self, members: &[usize]) -> usize {
        let (Some(gate), Some(&gid)) = (self.gate, members.last()) else {
            return 0;
        };
        let mut marginal = self.steps.last().is_some_and(|h| gate.marginal(h));
        let mut extends = 0;
        while marginal && extends < MAX_SOAK_EXTENDS {
            extends += 1;
            let marks = self.step_marks(gid);
            thread::sleep(self.plan.soak);
            let health = self.window_health(gid, &marks, None);
            marginal = gate.marginal(&health);
        }
        extends
    }

    /// Opens a health window over global worker `gid`: the counter
    /// readings later deltas are taken against.
    fn step_marks(&self, gid: usize) -> StepMarks {
        let (fi, li) = self.orch.locate(gid);
        let fleet = &self.orch.fleets[fi];
        let worker_t = fleet.telemetry().map(|t| t.worker(li));
        StepMarks {
            failures: fleet.workers()[li].remote().failure_count(),
            read_errors: fleet.read_error_counts()[li],
            completions: fleet.shared().completions_len(),
            sheds: worker_t.map_or(0, |t| t.edge_sheds()),
            sojourn_buckets: worker_t.map(|t| t.sojourn_histogram().bucket_counts()),
        }
    }

    /// Closes the window `marks` opened over `gid` into a
    /// [`StepHealth`]. Saturating deltas: a supervised restart can
    /// shrink a worker's history below its marks.
    fn window_health(&self, gid: usize, marks: &StepMarks, pause: Option<Duration>) -> StepHealth {
        let (fi, li) = self.orch.locate(gid);
        let fleet = &self.orch.fleets[fi];
        let worker_t = fleet.telemetry().map(|t| t.worker(li));
        let sojourn_at_quantile = self.gate.and_then(|g| g.latency).and_then(|slo| {
            let t = worker_t?;
            let before = marks.sojourn_buckets.as_ref()?;
            let hist = t.sojourn_histogram();
            windowed_quantile(
                hist.bounds_us(),
                before,
                &hist.bucket_counts(),
                slo.quantile,
            )
        });
        StepHealth {
            worker: gid,
            pause_at_quantile: pause,
            new_failures: fleet.workers()[li]
                .remote()
                .failure_count()
                .saturating_sub(marks.failures),
            new_read_errors: fleet.read_error_counts()[li].saturating_sub(marks.read_errors),
            new_completions: fleet
                .shared()
                .completions_len()
                .saturating_sub(marks.completions),
            queued: fleet.queued(),
            sojourn_at_quantile,
            new_sheds: worker_t.map_or(0, |t| t.edge_sheds().saturating_sub(marks.sheds)),
        }
    }

    /// The rollout's patch as every member gets it: staged on first use,
    /// through `remote`, and the same value from then on.
    fn staged_on(&mut self, remote: &UpdaterRemote) -> Arc<StagedPatch> {
        let staged = self
            .staged
            .get_or_insert_with(|| remote.stage(self.patch.clone()));
        Arc::clone(staged)
    }

    /// Drives one cohort: barrier gates first (a fast worker must find
    /// its rendezvous installed when it pauses), then every member's
    /// patch enqueued, then each awaited and judged in cohort order. The
    /// await is one park on the handle the patch was enqueued on, woken
    /// by the worker's end-of-pause publish (or its supervisor): a pause
    /// publishes whole, so when it returns `Ok` the report, the drained
    /// queue and the pause event are all in the cut read next and no step
    /// is ever judged pauseless.
    ///
    /// A member whose supervisor restarts it mid-wait (the in-flight
    /// patch was withdrawn at death) is *re-driven*: its mark is re-taken
    /// on the rebooted history and the patch re-enqueued,
    /// up to [`MAX_REDRIVES`] times. A member whose supervisor gave up
    /// on it reads as a stall — a breach under a gate, an error without
    /// one. Returns the first health breach, if any.
    fn drive_cohort(&mut self, members: &[usize]) -> Result<Option<HealthBreach>, FleetError> {
        let orch = self.orch;
        if members.len() > 1 {
            let barrier = Arc::new(Barrier::new(members.len()));
            for &gid in members {
                let (fi, li) = orch.locate(gid);
                let b = Arc::clone(&barrier);
                orch.fleets[fi].workers()[li]
                    .remote()
                    .set_gate(Box::new(move || {
                        b.wait();
                    }));
            }
        }
        let mut windows = Vec::with_capacity(members.len());
        let mut epochs = Vec::with_capacity(members.len());
        let mut remotes = Vec::with_capacity(members.len());
        for &gid in members {
            let (fi, li) = orch.locate(gid);
            windows.push(self.step_marks(gid));
            // Epoch before enqueue: a restart between the two counts as a
            // withdrawal of this patch, never goes unnoticed. The handle
            // we enqueue on is kept: if the seat is swapped mid-wait, the
            // defuse must land on *this* incarnation's queue, not the
            // replacement's.
            epochs.push(orch.fleets[fi].workers()[li].epoch());
            let remote = orch.fleets[fi].workers()[li].remote();
            remote.enqueue_staged(self.staged_on(&remote));
            remotes.push(remote);
        }
        let mut breach: Option<HealthBreach> = None;
        for (mi, &gid) in members.iter().enumerate() {
            let (fi, li) = orch.locate(gid);
            let fleet = &orch.fleets[fi];
            let w = &fleet.workers()[li];
            let mut mark = self.marks[fi][li];
            let mut epoch0 = epochs[mi];
            let mut redrives = 0usize;
            let mut down = false;
            let stalled = loop {
                match fleet.await_worker_n(w, &remotes[mi], mark, 1, epoch0) {
                    Ok(()) => break false,
                    Err(FleetError::WorkerRestarted { .. }) if redrives < MAX_REDRIVES => {
                        redrives += 1;
                        // Defuse the handle we enqueued on: if the enqueue
                        // raced past the supervisor's withdrawal onto the
                        // dead incarnation's queue, this closes that
                        // lifecycle (`Aborted`) instead of leaving it
                        // dangling `Enqueued`. On the live replacement
                        // it is a no-op (applied) or an explicit
                        // withdrawal ahead of the re-drive below.
                        remotes[mi].cancel_pending("withdrawn after supervised restart");
                        // Epoch before handle, as at the first enqueue: a
                        // second restart between the two reads as a
                        // mismatch, not as a handle nobody will wake.
                        epoch0 = w.epoch();
                        remotes[mi] = w.remote();
                        let remote = &remotes[mi];
                        mark = remote.mark();
                        self.marks[fi][li] = mark;
                        windows[mi] = self.step_marks(gid);
                        if fleet.worker_version(w) == self.patch.to_version {
                            // The reboot replayed past this transition
                            // already — nothing left to drive.
                            break false;
                        }
                        remote.enqueue_staged(self.staged_on(remote));
                    }
                    Err(FleetError::WorkerDown { .. }) => {
                        down = true;
                        break true;
                    }
                    Err(_) => break true,
                }
            };
            if stalled {
                // The worker never reached its boundary: defuse the
                // handle the patch was enqueued on so it cannot land
                // after the rollout moved on.
                remotes[mi].cancel_pending(if self.gate.is_some() {
                    "guarded rollout: step stalled"
                } else {
                    "rolling rollout stalled"
                });
            }
            let since = remotes[mi].since(mark);
            let pauses: Vec<Duration> = since.pauses.iter().map(|p| p.dur).collect();
            let slo = self.plan.gate.unwrap_or(PauseSlo {
                quantile: 1.0,
                max: Duration::MAX,
            });
            let mut health = self.window_health(gid, &windows[mi], slo.observe(&pauses));
            let verdict = if stalled {
                Err(HealthBreach::Stalled { worker: gid })
            } else if let Some(g) = &self.gate {
                // The window is now as short as the pause: judge liveness
                // on evidence, not on its width.
                let completions0 = windows[mi].completions;
                (health.new_completions, health.queued) =
                    settle_liveness(g.slo.max.min(fleet.deadline()), || {
                        let done = fleet.shared().completions_len();
                        (done.saturating_sub(completions0), fleet.queued())
                    });
                g.check(&health)
            } else {
                Ok(())
            };
            self.steps.push(health);
            self.forward
                .extend(since.reports.into_iter().map(|r| (gid, r)));
            fleet.refresh_skew();
            self.skew.sample(orch.global_skew())?;
            if self.gate.is_none() && stalled {
                if down {
                    return Err(FleetError::WorkerDown { worker: gid });
                }
                return Err(self.stall_fallout(gid));
            }
            if let Err(b) = verdict {
                breach.get_or_insert(b);
            }
        }
        Ok(breach)
    }

    /// An ungated stall at global worker `stalled`: withdraw every
    /// still-pending patch (none may land after the coordinator gave
    /// up), then classify — nothing updated keeps the plain stall
    /// error, a mid-rollout stall becomes
    /// [`FleetError::PartialRollout`] (global ids).
    fn stall_fallout(&self, stalled: usize) -> FleetError {
        let offsets = self.orch.offsets();
        let mut updated = Vec::new();
        let mut all = Vec::new();
        for ((f, marks), off) in self.orch.fleets.iter().zip(&self.marks).zip(&offsets) {
            for (w, mark) in f.workers().iter().zip(marks) {
                let gid = off + w.id;
                all.push(gid);
                let remote = w.remote();
                if remote.pending_count() > 0 {
                    remote.cancel_pending("rolling rollout stalled");
                }
                if !remote.since(*mark).reports.is_empty() {
                    updated.push(gid);
                }
            }
            f.refresh_skew();
        }
        if updated.is_empty() {
            return FleetError::RolloutStalled { worker: stalled };
        }
        let remaining = all.into_iter().filter(|g| !updated.contains(g)).collect();
        FleetError::PartialRollout { updated, remaining }
    }

    /// Rolls every worker updated *by this rollout* back one hop,
    /// newest first: through `inverse` when supplied (state-preserving
    /// reverse transformers), through each worker's snapshot ring
    /// otherwise.
    fn roll_back_forward(&mut self, inverse: Option<&Patch>) -> Result<(), FleetError> {
        let orch = self.orch;
        let order: Vec<usize> = self.forward.iter().rev().map(|(gid, _)| *gid).collect();
        for gid in order {
            let (fi, li) = orch.locate(gid);
            let fleet = &orch.fleets[fi];
            let w = &fleet.workers()[li];
            // Epoch before handle (see `drive_cohort`).
            let epoch0 = w.epoch();
            let remote = w.remote();
            let mark = remote.mark();
            match inverse {
                Some(p) => remote.enqueue_rollback(p.clone()),
                None => remote.enqueue_snapshot_rollback(),
            }
            if let Err(e) = fleet.await_worker_n(w, &remote, mark, 1, epoch0) {
                // Close the hop's lifecycle on the handle it was enqueued
                // on (the seat may have been swapped under us) before
                // surfacing the failure.
                remote.cancel_pending("rollback interrupted");
                return Err(self.globalize_stall(e, fi));
            }
            if let Some(r) = remote.last_report().filter(|r| r.rolled_back) {
                self.rollbacks.push((gid, r));
            }
            fleet.refresh_skew();
            self.skew.sample(orch.global_skew())?;
        }
        Ok(())
    }

    /// Walks every worker's rollback chain down to `to_version`, newest
    /// global id first — across fleets, and across *earlier* rollouts,
    /// not just the breached one. Workers already at the target are
    /// skipped; workers whose rings don't reach it are left where their
    /// chain ends.
    fn chain_roll_back(&mut self, to_version: &str) -> Result<(), FleetError> {
        let orch = self.orch;
        let offsets = orch.offsets();
        let mut targets = Vec::new();
        for (fi, (f, off)) in orch.fleets.iter().zip(&offsets).enumerate() {
            targets.extend(f.workers().iter().map(|w| (off + w.id, fi, w)));
        }
        targets.sort_by_key(|t| std::cmp::Reverse(t.0));
        for (gid, fi, w) in targets {
            let fleet = &orch.fleets[fi];
            if fleet.worker_version(w) == to_version {
                continue;
            }
            // Hop count: walk the retained transitions newest-first until
            // one *starts* at the target (that hop lands on it).
            let epoch0 = w.epoch();
            let remote = w.remote();
            let transitions = remote.snapshot_transitions();
            let mut hops = 0usize;
            let mut reachable = false;
            for (from, _to) in transitions.iter().rev() {
                hops += 1;
                if from == to_version {
                    reachable = true;
                    break;
                }
            }
            if !reachable {
                continue;
            }
            let mark = remote.mark();
            let queued = remote.enqueue_rollback_chain(hops);
            if let Err(e) = fleet.await_worker_n(w, &remote, mark, queued, epoch0) {
                // As in `roll_back_forward`: defuse the enqueued hops on
                // the handle that holds them before surfacing the error.
                remote.cancel_pending("rollback chain interrupted");
                return Err(self.globalize_stall(e, fi));
            }
            let undone = remote.since(mark).reports.into_iter();
            self.rollbacks
                .extend(undone.filter(|r| r.rolled_back).map(|r| (gid, r)));
            fleet.refresh_skew();
            self.skew.sample(orch.global_skew())?;
        }
        Ok(())
    }

    /// Remaps a fleet-local stall error to global worker ids.
    fn globalize_stall(&self, e: FleetError, fleet_idx: usize) -> FleetError {
        match e {
            FleetError::RolloutStalled { worker } => FleetError::RolloutStalled {
                worker: self.orch.offsets()[fleet_idx] + worker,
            },
            e => e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_resolve_to_cumulative_cohorts() {
        let staged = RolloutPlan::staged(
            0,
            PauseSlo::p99(Duration::from_millis(2)),
            BreachAction::Hold,
        );
        assert_eq!(
            staged.resolve(12),
            vec![vec![0], vec![1, 2], vec![3, 4, 5, 6, 7, 8, 9, 10, 11],]
        );
        // Canary-first ordering threads through every cohort.
        assert_eq!(
            RolloutPlan::staged(
                5,
                PauseSlo::p99(Duration::from_millis(2)),
                BreachAction::Hold
            )
            .resolve(8),
            vec![vec![5], vec![0], vec![1, 2, 3, 4, 6, 7]]
        );
        assert_eq!(
            RolloutPlan::simultaneous().resolve(4),
            vec![vec![0, 1, 2, 3]]
        );
        assert_eq!(
            RolloutPlan::rolling().resolve(3),
            vec![vec![0], vec![1], vec![2]]
        );
        // Degenerate sizes: empty set resolves to nothing; targets that
        // add no workers are dropped.
        assert_eq!(
            RolloutPlan::simultaneous().resolve(0),
            Vec::<Vec<usize>>::new()
        );
        assert_eq!(
            RolloutPlan::staged(
                0,
                PauseSlo::p99(Duration::from_millis(2)),
                BreachAction::Hold
            )
            .resolve(1),
            vec![vec![0]]
        );
    }

    #[test]
    fn liveness_windows_close_on_evidence() {
        let long = Duration::from_secs(30);
        // Conclusive at the first reading, either way: one read, no wait.
        for first in [(3, 7), (0, 0)] {
            let mut reads = 0;
            let settled = settle_liveness(long, || {
                reads += 1;
                first
            });
            assert_eq!((settled, reads), (first, 1));
        }
        // Backlog and no completion: held open until a completion lands…
        let mut reads = 0;
        let settled = settle_liveness(long, || {
            reads += 1;
            (usize::from(reads == 3), 5)
        });
        assert_eq!((settled, reads), ((1, 5), 3));
        // …or until the backlog clears.
        let mut reads = 0;
        let settled = settle_liveness(long, || {
            reads += 1;
            (0, 4 - reads.min(4))
        });
        assert_eq!((settled, reads), ((0, 0), 4));
        // Neither, for the whole budget: the reading a gate calls
        // `Stalled` comes back, and not before the budget has passed.
        let budget = Duration::from_millis(5);
        let began = Instant::now();
        let settled = settle_liveness(budget, || (0, 9));
        assert!(began.elapsed() >= budget);
        let gate = HealthGate::new(PauseSlo::p99(budget));
        let health = StepHealth {
            worker: 2,
            pause_at_quantile: None,
            new_failures: 0,
            new_read_errors: 0,
            new_completions: settled.0,
            queued: settled.1,
            sojourn_at_quantile: None,
            new_sheds: 0,
        };
        assert_eq!(
            gate.check(&health),
            Err(HealthBreach::Stalled { worker: 2 })
        );
    }

    #[test]
    fn skew_watch_tracks_peak_and_bound() {
        let mut w = SkewWatch::new(1);
        w.sample(0).unwrap();
        w.sample(1).unwrap();
        assert_eq!(w.max, 1);
        let err = w.sample(2).unwrap_err();
        assert!(matches!(
            err,
            FleetError::SkewExceeded {
                observed: 2,
                bound: 1
            }
        ));
        w.sample(0).unwrap();
        w.close();
        assert!(w.window > Duration::ZERO);
    }
}
