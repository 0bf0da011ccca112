//! Guarded rollouts: pause-budget SLOs, health gates, and report cards.
//!
//! A guarded rollout ([`crate::RolloutPlan::guarded`]) updates one
//! *canary* worker first and lets a [`HealthGate`] judge it before the
//! patch touches the rest of the fleet: the canary's update-pause tail is
//! held against a [`PauseSlo`] budget, its failure and device-read-error
//! counters against their pre-step baselines, and the fleet's completion
//! stream against a liveness floor. A clean bill rolls the patch onward
//! (re-checking after every step); a [`HealthBreach`] triggers the
//! configured [`BreachAction`] — hold the line, or roll every
//! already-updated worker back to the prior version (inverse patch when
//! one is supplied, snapshot restore otherwise).
//!
//! Every guarded rollout produces a [`RolloutReportCard`]: the per-step
//! health observations, the outcome, and the forward/rollback
//! [`UpdateReport`]s — journal-backed, in the sense that each report's
//! phase timings equal the lifecycle the worker emitted into the
//! `dsu_obs` journal (sums match exactly; see the guard test suite).

use std::fmt;
use std::time::Duration;

use dsu_core::{Patch, UpdateReport};
use dsu_obs::json;

/// An update-pause service-level objective: the pause observed at
/// `quantile` (nearest-rank over the step's raw pauses) must not exceed
/// `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauseSlo {
    /// The quantile checked, in (0, 1] — e.g. `0.99`.
    pub quantile: f64,
    /// The pause budget at that quantile.
    pub max: Duration,
}

impl PauseSlo {
    /// The conventional p99 budget.
    pub fn p99(max: Duration) -> PauseSlo {
        PauseSlo {
            quantile: 0.99,
            max,
        }
    }

    /// The pause at this SLO's quantile, nearest-rank, over the pauses
    /// one rollout step recorded. `None` when the step recorded none.
    pub fn observe(&self, pauses: &[Duration]) -> Option<Duration> {
        if pauses.is_empty() {
            return None;
        }
        let mut sorted = pauses.to_vec();
        sorted.sort();
        let idx = ((self.quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[idx - 1])
    }
}

/// What a guarded rollout does when a step breaches its health gate.
#[derive(Debug, Clone, PartialEq)]
pub enum BreachAction {
    /// Stop rolling: withdraw any pending patches and leave
    /// already-updated workers on the new version (an operator decision
    /// point — the report card says exactly where the line held).
    Hold,
    /// Roll every already-updated worker back to the prior version —
    /// through the `inverse` patch (reverse state transformers preserve
    /// live guest state) when one is supplied, through each worker's
    /// snapshot ring otherwise (best-effort state, as of the forward
    /// apply).
    RollBack {
        /// The downgrade patch, typically generated by diffing the two
        /// versions the other way round (see [`dsu_core::PatchGen`]).
        inverse: Option<Box<Patch>>,
    },
    /// Walk every worker's rollback *chain* down to `to_version` —
    /// possibly several hops (v3 → v2 → v1), each replayed through the
    /// ordinary pipeline from the worker's snapshot ring. Unlike
    /// [`BreachAction::RollBack`], this undoes *earlier* rollouts too:
    /// the whole fleet converges on `to_version`, not merely on the
    /// breached patch's source version. Workers whose rings do not reach
    /// `to_version` are left where their chain ends (the report card's
    /// `final_versions` says where everyone landed).
    ChainRollBack {
        /// The version every worker should converge back to.
        to_version: String,
    },
}

/// An error-rate window: the step's error ratio (errors + sheds over
/// completions + sheds) must stay at or under `max_ratio` — but only
/// once the step saw at least `min_events` events, so a quiet window
/// with one unlucky request cannot trip the gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRateWindow {
    /// The highest tolerable error ratio, in `[0, 1]`.
    pub max_ratio: f64,
    /// Events (completions + sheds) required before the ratio counts.
    pub min_events: usize,
}

impl ErrorRateWindow {
    /// A window tripping above `max_ratio` once 20 events were seen.
    pub fn ratio(max_ratio: f64) -> ErrorRateWindow {
        ErrorRateWindow {
            max_ratio,
            min_events: 20,
        }
    }
}

/// Why a rollout step failed its health check.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthBreach {
    /// The step's pause at the SLO quantile exceeded the budget.
    PauseSlo {
        /// The worker whose pause breached.
        worker: usize,
        /// The observed pause at the SLO quantile.
        observed: Duration,
        /// The configured budget.
        budget: Duration,
    },
    /// The step's end-to-end request sojourn at the SLO quantile
    /// exceeded the latency budget.
    LatencySlo {
        /// The worker being stepped.
        worker: usize,
        /// The observed sojourn at the SLO quantile.
        observed: Duration,
        /// The configured budget.
        budget: Duration,
    },
    /// The step's error ratio (read errors + sheds over completions +
    /// sheds) exceeded the window's budget.
    ErrorRate {
        /// The worker being stepped.
        worker: usize,
        /// The observed ratio.
        ratio: f64,
        /// The configured ceiling.
        budget: f64,
    },
    /// The worker recorded new update failures during the step.
    Failures {
        /// The worker that failed.
        worker: usize,
        /// Failures recorded during the step.
        count: usize,
    },
    /// The worker recorded new device-read errors during the step.
    ReadErrors {
        /// The worker whose reads failed.
        worker: usize,
        /// Read errors recorded during the step.
        count: u64,
    },
    /// The fleet stopped completing requests during the step (requests
    /// were queued, none finished).
    Stalled {
        /// The worker being stepped when the fleet went quiet.
        worker: usize,
    },
}

impl fmt::Display for HealthBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthBreach::PauseSlo {
                worker,
                observed,
                budget,
            } => write!(
                f,
                "worker {worker}: pause {observed:?} breached the {budget:?} budget"
            ),
            HealthBreach::LatencySlo {
                worker,
                observed,
                budget,
            } => write!(
                f,
                "worker {worker}: sojourn {observed:?} breached the {budget:?} latency budget"
            ),
            HealthBreach::ErrorRate {
                worker,
                ratio,
                budget,
            } => write!(
                f,
                "worker {worker}: error ratio {ratio:.3} breached the {budget:.3} budget"
            ),
            HealthBreach::Failures { worker, count } => {
                write!(f, "worker {worker}: {count} update failure(s)")
            }
            HealthBreach::ReadErrors { worker, count } => {
                write!(f, "worker {worker}: {count} device read error(s)")
            }
            HealthBreach::Stalled { worker } => {
                write!(f, "worker {worker}: fleet stopped completing requests")
            }
        }
    }
}

/// One rollout step's health observations: the deltas a [`HealthGate`]
/// judges, all measured against the pre-step baseline.
#[derive(Debug, Clone)]
pub struct StepHealth {
    /// The worker this step updated.
    pub worker: usize,
    /// The step's pause at the SLO quantile (`None`: no pause recorded,
    /// e.g. the patch was rejected before pausing).
    pub pause_at_quantile: Option<Duration>,
    /// Update failures the worker recorded during the step.
    pub new_failures: usize,
    /// Device-read errors the worker recorded during the step (0 when
    /// the fleet runs untelemetered).
    pub new_read_errors: u64,
    /// Fleet-wide request completions during the step.
    pub new_completions: usize,
    /// Requests still queued, across every inbox of the worker's fleet,
    /// when the step's health was read.
    pub queued: usize,
    /// The step's end-to-end request sojourn at the latency-SLO quantile,
    /// computed over the *window* of the worker's sojourn histogram that
    /// filled during the step (`None`: no latency SLO configured, or no
    /// requests completed in the window).
    pub sojourn_at_quantile: Option<Duration>,
    /// Requests the edge shed at this worker during the step (0 without
    /// an edge or telemetry).
    pub new_sheds: u64,
}

impl StepHealth {
    /// The step's error ratio: errors + sheds over completions + sheds
    /// (zero when the window saw nothing).
    pub fn error_ratio(&self) -> f64 {
        let events = self.new_completions as u64 + self.new_sheds;
        if events == 0 {
            return 0.0;
        }
        (self.new_read_errors + self.new_sheds) as f64 / events as f64
    }

    /// Events (completions + sheds) the step's window saw.
    pub fn events(&self) -> usize {
        self.new_completions + self.new_sheds as usize
    }
}

/// Judges one step's [`StepHealth`] against a [`PauseSlo`] and the
/// error/liveness baselines — plus, when configured, a request-latency
/// SLO over the step's sojourn window and an error-rate window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthGate {
    /// The pause budget.
    pub slo: PauseSlo,
    /// Optional end-to-end request-latency budget, held against the
    /// step's windowed sojourn quantile (fed from the worker's sojourn
    /// histogram).
    pub latency: Option<PauseSlo>,
    /// Optional error-rate window over the step's read errors and sheds.
    /// When set, raw read-error counts are judged *by ratio* instead of
    /// tripping on the first error.
    pub error_rate: Option<ErrorRateWindow>,
}

impl HealthGate {
    /// Creates a gate over `slo` (no latency or error-rate verdicts).
    pub fn new(slo: PauseSlo) -> HealthGate {
        HealthGate {
            slo,
            latency: None,
            error_rate: None,
        }
    }

    /// Adds a request-latency SLO: the step's windowed sojourn quantile
    /// must stay within `latency.max`.
    #[must_use]
    pub fn with_latency_slo(mut self, latency: PauseSlo) -> HealthGate {
        self.latency = Some(latency);
        self
    }

    /// Adds an error-rate window verdict (and switches read errors from
    /// trip-on-first to judged-by-ratio).
    #[must_use]
    pub fn with_error_rate(mut self, window: ErrorRateWindow) -> HealthGate {
        self.error_rate = Some(window);
        self
    }

    /// Whether `h` reads as *marginal*: it passes, but some verdict sits
    /// at 80% or more of its budget. Soak windows auto-extend while the
    /// latest step is marginal.
    pub fn marginal(&self, h: &StepHealth) -> bool {
        if self.check(h).is_err() {
            return true;
        }
        let frac = |observed: Duration, budget: Duration| {
            budget > Duration::ZERO && observed.as_nanos() * 10 >= budget.as_nanos() * 8
        };
        if h.pause_at_quantile.is_some_and(|p| frac(p, self.slo.max)) {
            return true;
        }
        if let (Some(slo), Some(observed)) = (self.latency, h.sojourn_at_quantile) {
            if frac(observed, slo.max) {
                return true;
            }
        }
        if let Some(w) = self.error_rate {
            if h.events() >= w.min_events && h.error_ratio() >= 0.8 * w.max_ratio {
                return true;
            }
        }
        false
    }

    /// Passes the step or names the first breach, checked in severity
    /// order: update failures, device-read errors, pause budget, latency
    /// budget, error-rate window, then completion liveness (a stall only
    /// counts when requests were actually waiting).
    ///
    /// # Errors
    ///
    /// Returns the first [`HealthBreach`] the observations support.
    pub fn check(&self, h: &StepHealth) -> Result<(), HealthBreach> {
        if h.new_failures > 0 {
            return Err(HealthBreach::Failures {
                worker: h.worker,
                count: h.new_failures,
            });
        }
        // With an error-rate window, sporadic read errors are a ratio
        // question, not an automatic breach.
        if self.error_rate.is_none() && h.new_read_errors > 0 {
            return Err(HealthBreach::ReadErrors {
                worker: h.worker,
                count: h.new_read_errors,
            });
        }
        if let Some(observed) = h.pause_at_quantile {
            if observed > self.slo.max {
                return Err(HealthBreach::PauseSlo {
                    worker: h.worker,
                    observed,
                    budget: self.slo.max,
                });
            }
        }
        if let (Some(slo), Some(observed)) = (self.latency, h.sojourn_at_quantile) {
            if observed > slo.max {
                return Err(HealthBreach::LatencySlo {
                    worker: h.worker,
                    observed,
                    budget: slo.max,
                });
            }
        }
        if let Some(w) = self.error_rate {
            let ratio = h.error_ratio();
            if h.events() >= w.min_events && ratio > w.max_ratio {
                return Err(HealthBreach::ErrorRate {
                    worker: h.worker,
                    ratio,
                    budget: w.max_ratio,
                });
            }
        }
        if h.new_completions == 0 && h.queued > 0 {
            return Err(HealthBreach::Stalled { worker: h.worker });
        }
        Ok(())
    }
}

/// The nearest-rank quantile over a histogram *window*: the per-bucket
/// counts that arrived between `before` and `after` (two
/// [`dsu_obs::Histogram::bucket_counts`] readings over the same
/// `bounds_us`, the later one element-wise ≥ the earlier). Returns the
/// upper bound of the bucket holding the q-th windowed observation (the
/// last finite bound for overflow), or `None` when the window is empty.
pub fn windowed_quantile(
    bounds_us: &[u64],
    before: &[u64],
    after: &[u64],
    quantile: f64,
) -> Option<Duration> {
    let deltas: Vec<u64> = after
        .iter()
        .zip(before.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = deltas.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((quantile * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (i, c) in deltas.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let bound = bounds_us.get(i).or_else(|| bounds_us.last()).copied()?;
            return Some(Duration::from_micros(bound));
        }
    }
    bounds_us.last().map(|&b| Duration::from_micros(b))
}

/// How a guarded rollout ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RolloutOutcome {
    /// Every worker took the patch and every step passed its gate.
    Completed,
    /// A step breached and the policy held: updated workers stay
    /// updated, pending patches were withdrawn.
    Held(HealthBreach),
    /// A step breached and every already-updated worker was rolled back
    /// to the prior version.
    RolledBack(HealthBreach),
}

/// The journal-backed artifact a guarded rollout leaves behind: what was
/// rolled out, what each step's health looked like, how it ended, and
/// the forward/rollback apply reports (whose phase timings match the
/// lifecycles in the fleet journal exactly).
#[derive(Debug, Clone)]
pub struct RolloutReportCard {
    /// The forward transition (`from`, `to`).
    pub transition: (String, String),
    /// The canary worker.
    pub canary: usize,
    /// The pause budget every step was held against.
    pub slo: PauseSlo,
    /// Per-step health, in step order (canary first).
    pub steps: Vec<StepHealth>,
    /// How the rollout ended.
    pub outcome: RolloutOutcome,
    /// Successful forward applies, `(worker, report)`, in step order.
    pub forward: Vec<(usize, UpdateReport)>,
    /// Rollback applies (inverse patches or snapshot restores),
    /// `(worker, report)`, in rollback order — empty unless the outcome
    /// is [`RolloutOutcome::RolledBack`].
    pub rollbacks: Vec<(usize, UpdateReport)>,
    /// The version each worker serves after the rollout, in worker order.
    pub final_versions: Vec<String>,
}

impl RolloutReportCard {
    /// Whether every worker ended the rollout on the same version.
    pub fn converged(&self) -> bool {
        self.final_versions.windows(2).all(|w| w[0] == w[1])
    }

    /// Total rollback pipeline time across every rolled-back worker.
    pub fn rollback_total(&self) -> Duration {
        self.rollbacks.iter().map(|(_, r)| r.timings.total()).sum()
    }

    /// The card as a JSON object (for CI artifacts).
    pub fn to_json(&self) -> String {
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|s| {
                format!(
                    "{{\"worker\":{},\"pause_at_quantile_us\":{},\"new_failures\":{},\"new_read_errors\":{},\"new_completions\":{},\"queued\":{},\"sojourn_at_quantile_us\":{},\"new_sheds\":{}}}",
                    s.worker,
                    s.pause_at_quantile.map_or(-1, |d| d.as_micros() as i64),
                    s.new_failures,
                    s.new_read_errors,
                    s.new_completions,
                    s.queued,
                    s.sojourn_at_quantile.map_or(-1, |d| d.as_micros() as i64),
                    s.new_sheds,
                )
            })
            .collect();
        let applies = |list: &[(usize, UpdateReport)]| -> String {
            let rows: Vec<String> = list
                .iter()
                .map(|(w, r)| {
                    format!(
                        "{{\"worker\":{w},\"from\":{},\"to\":{},\"rolled_back\":{},\"total_us\":{}}}",
                        json::escape(&r.from_version),
                        json::escape(&r.to_version),
                        r.rolled_back,
                        r.timings.total().as_micros(),
                    )
                })
                .collect();
            format!("[{}]", rows.join(","))
        };
        let outcome = match &self.outcome {
            RolloutOutcome::Completed => "{\"kind\":\"completed\"}".to_string(),
            RolloutOutcome::Held(b) => {
                format!(
                    "{{\"kind\":\"held\",\"breach\":{}}}",
                    json::escape(&b.to_string())
                )
            }
            RolloutOutcome::RolledBack(b) => format!(
                "{{\"kind\":\"rolled-back\",\"breach\":{}}}",
                json::escape(&b.to_string())
            ),
        };
        let versions: Vec<String> = self
            .final_versions
            .iter()
            .map(|v| json::escape(v))
            .collect();
        format!(
            "{{\"from\":{},\"to\":{},\"canary\":{},\"slo\":{{\"quantile\":{},\"max_us\":{}}},\"outcome\":{},\"converged\":{},\"steps\":[{}],\"forward\":{},\"rollbacks\":{},\"final_versions\":[{}]}}",
            json::escape(&self.transition.0),
            json::escape(&self.transition.1),
            self.canary,
            json::num(self.slo.quantile),
            self.slo.max.as_micros(),
            outcome,
            self.converged(),
            steps.join(","),
            applies(&self.forward),
            applies(&self.rollbacks),
            versions.join(","),
        )
    }

    /// A human-readable rendering (one line per step, then the verdict).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "guarded rollout {} -> {} (canary worker {}, p{:.0} pause budget {:?})\n",
            self.transition.0,
            self.transition.1,
            self.canary,
            self.slo.quantile * 100.0,
            self.slo.max,
        ));
        for s in &self.steps {
            out.push_str(&format!(
                "  step worker {}: pause {} | sojourn {} | failures +{} | read errors +{} | sheds +{} | completions +{}\n",
                s.worker,
                s.pause_at_quantile
                    .map_or("none".to_string(), |d| format!("{d:?}")),
                s.sojourn_at_quantile
                    .map_or("none".to_string(), |d| format!("{d:?}")),
                s.new_failures,
                s.new_read_errors,
                s.new_sheds,
                s.new_completions,
            ));
        }
        match &self.outcome {
            RolloutOutcome::Completed => out.push_str("  outcome: completed\n"),
            RolloutOutcome::Held(b) => out.push_str(&format!("  outcome: HELD — {b}\n")),
            RolloutOutcome::RolledBack(b) => {
                out.push_str(&format!("  outcome: ROLLED BACK — {b}\n"));
                for (w, r) in &self.rollbacks {
                    out.push_str(&format!(
                        "    worker {w}: {} -> {} in {:?}\n",
                        r.from_version,
                        r.to_version,
                        r.timings.total()
                    ));
                }
            }
        }
        out.push_str(&format!(
            "  final versions: [{}]\n",
            self.final_versions.join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(worker: usize) -> StepHealth {
        StepHealth {
            worker,
            pause_at_quantile: Some(Duration::from_micros(80)),
            new_failures: 0,
            new_read_errors: 0,
            new_completions: 12,
            queued: 0,
            sojourn_at_quantile: None,
            new_sheds: 0,
        }
    }

    #[test]
    fn gate_judges_in_severity_order() {
        let gate = HealthGate::new(PauseSlo::p99(Duration::from_millis(1)));
        assert_eq!(gate.check(&healthy(0)), Ok(()));

        let mut h = healthy(1);
        h.pause_at_quantile = Some(Duration::from_millis(5));
        h.new_failures = 2;
        // Failures outrank the pause breach.
        assert_eq!(
            gate.check(&h),
            Err(HealthBreach::Failures {
                worker: 1,
                count: 2
            })
        );

        let mut h = healthy(2);
        h.pause_at_quantile = Some(Duration::from_millis(5));
        assert!(matches!(
            gate.check(&h),
            Err(HealthBreach::PauseSlo { worker: 2, .. })
        ));

        // A quiet fleet with an empty queue is idle, not stalled.
        let mut h = healthy(3);
        h.new_completions = 0;
        assert_eq!(gate.check(&h), Ok(()));
        h.queued = 4;
        assert_eq!(gate.check(&h), Err(HealthBreach::Stalled { worker: 3 }));
    }

    #[test]
    fn latency_slo_and_error_rate_window_verdicts() {
        let gate = HealthGate::new(PauseSlo::p99(Duration::from_millis(1)))
            .with_latency_slo(PauseSlo::p99(Duration::from_millis(10)))
            .with_error_rate(ErrorRateWindow::ratio(0.25));

        let mut h = healthy(0);
        h.sojourn_at_quantile = Some(Duration::from_millis(50));
        assert!(matches!(
            gate.check(&h),
            Err(HealthBreach::LatencySlo { worker: 0, .. })
        ));

        // With an error-rate window, raw read errors no longer trip the
        // gate — the ratio does, and only once min_events is met.
        let mut h = healthy(1);
        h.new_read_errors = 2;
        h.new_completions = 30;
        assert_eq!(gate.check(&h), Ok(()));
        h.new_read_errors = 10;
        assert!(matches!(
            gate.check(&h),
            Err(HealthBreach::ErrorRate { worker: 1, .. })
        ));
        // Below min_events, even a terrible ratio passes.
        let mut h = healthy(2);
        h.new_read_errors = 5;
        h.new_completions = 5;
        assert_eq!(gate.check(&h), Ok(()));

        // Sheds count as both events and errors.
        let mut h = healthy(3);
        h.new_sheds = 10;
        h.new_completions = 15;
        assert!(matches!(
            gate.check(&h),
            Err(HealthBreach::ErrorRate { worker: 3, .. })
        ));
    }

    #[test]
    fn marginal_flags_near_budget_steps() {
        let gate = HealthGate::new(PauseSlo::p99(Duration::from_micros(100)))
            .with_latency_slo(PauseSlo::p99(Duration::from_millis(10)));
        // 80µs pause against a 100µs budget sits exactly at 80%.
        assert!(gate.marginal(&healthy(0)));
        let mut h = healthy(1);
        h.pause_at_quantile = Some(Duration::from_micros(10));
        assert!(!gate.marginal(&h));
        h.sojourn_at_quantile = Some(Duration::from_millis(9));
        assert!(gate.marginal(&h));
    }

    #[test]
    fn windowed_quantile_ranks_over_the_delta() {
        let bounds = [10u64, 100, 1000];
        let before = [4u64, 1, 0, 1];
        let after = [6u64, 2, 0, 1]; // window: 2 in bucket 0, 1 in bucket 1
        assert_eq!(
            windowed_quantile(&bounds, &before, &after, 0.5),
            Some(Duration::from_micros(10))
        );
        assert_eq!(
            windowed_quantile(&bounds, &before, &after, 0.99),
            Some(Duration::from_micros(100))
        );
        // Empty window.
        assert_eq!(windowed_quantile(&bounds, &after, &after, 0.5), None);
        // Overflow observations report the last finite bound.
        let after2 = [6u64, 2, 0, 3];
        assert_eq!(
            windowed_quantile(&bounds, &after, &after2, 1.0),
            Some(Duration::from_micros(1000))
        );
    }

    #[test]
    fn slo_observe_is_nearest_rank() {
        let slo = PauseSlo::p99(Duration::from_millis(1));
        assert_eq!(slo.observe(&[]), None);
        let pauses: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(slo.observe(&pauses), Some(Duration::from_micros(99)));
        let median = PauseSlo {
            quantile: 0.5,
            max: Duration::ZERO,
        };
        assert_eq!(median.observe(&pauses), Some(Duration::from_micros(50)));
    }

    #[test]
    fn report_card_serialises_and_renders() {
        let card = RolloutReportCard {
            transition: ("v1".to_string(), "v2".to_string()),
            canary: 0,
            slo: PauseSlo::p99(Duration::from_millis(2)),
            steps: vec![healthy(0)],
            outcome: RolloutOutcome::RolledBack(HealthBreach::PauseSlo {
                worker: 0,
                observed: Duration::from_millis(9),
                budget: Duration::from_millis(2),
            }),
            forward: vec![],
            rollbacks: vec![],
            final_versions: vec!["v1".to_string(), "v1".to_string()],
        };
        let json = card.to_json();
        assert!(json.contains("\"kind\":\"rolled-back\""));
        assert!(json.contains("\"converged\":true"));
        let text = card.render();
        assert!(text.contains("ROLLED BACK"));
        assert!(text.contains("final versions: [v1, v1]"));
    }
}
