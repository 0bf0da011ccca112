//! Open- and closed-loop load generators for the FlashEd edge.
//!
//! Both drive [`Edge::submit`] directly, one request at a time, so
//! every request's admission instant is stamped at the source and
//! end-to-end sojourn (`Completion::queue_wait + Completion::service`)
//! is measured per request.
//!
//! * [`OpenLoop`] — arrivals follow a deterministic Poisson process:
//!   exponential inter-arrival gaps drawn from the existing
//!   [`flashed::Rng`] (`-ln(1-U)/λ`), submitted on schedule whether or
//!   not earlier requests completed. This is the generator that exposes
//!   overload: when offered rate exceeds capacity, queues fill and the
//!   edge sheds — the generator counts the [`EdgeError::Overloaded`]
//!   backpressure signals rather than slowing down.
//! * [`ClosedLoop`] — N simulated clients, each with one request in
//!   flight: a new request is issued only when a completion frees a
//!   client. Offered load self-limits to `N / sojourn`, so a closed
//!   loop *cannot* overload the edge; on a shed it backs off and
//!   retries, which is the backpressure round-trip.
//!
//! Percentiles come in two forms: exact nearest-rank over the recorded
//! completions ([`sojourn_stats`]), and bucketed observations fed into
//! the existing [`dsu_obs::Histogram`] instruments
//! ([`observe_sojourns`]) so fleet scrapes carry the same distribution
//! the bench tables print.

use std::time::{Duration, Instant};

use dsu_obs::Histogram;
use flashed::{Completion, Edge, EdgeError, Rng, ServerShared};

/// What a generator run offered and what became of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenReport {
    /// Requests the generator offered (excluding closed-loop retries).
    pub offered: usize,
    /// Requests admitted into some inbox.
    pub admitted: usize,
    /// Requests shed at admission (open loop: dropped; closed loop:
    /// retried after backoff, counted once per backpressure signal).
    pub shed: usize,
    /// Wall-clock time spent offering.
    pub elapsed: Duration,
}

impl GenReport {
    /// Achieved offered rate in requests/second.
    pub fn offered_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.offered as f64 / self.elapsed.as_secs_f64()
    }
}

/// Exact sojourn percentiles (nearest-rank) over a completion set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SojournStats {
    /// Completions with a measured sojourn (pulled ones).
    pub count: usize,
    /// Median sojourn.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Worst observed.
    pub max: Duration,
}

/// Computes exact sojourn percentiles over the completions that were
/// matched to a pull (shed 503s carry no sojourn and are skipped).
/// Sojourn is queue wait plus service — update pauses excluded, matching
/// the service-time convention.
///
/// # Panics
/// Panics when no completion has a measured sojourn.
pub fn sojourn_stats(completions: &[Completion]) -> SojournStats {
    let mut times: Vec<Duration> = completions
        .iter()
        .filter(|c| c.pulled)
        .map(|c| c.queue_wait + c.service)
        .collect();
    assert!(!times.is_empty(), "no pulled completions");
    times.sort();
    let rank = |p: f64| -> Duration {
        let idx = ((p * times.len() as f64).ceil() as usize).clamp(1, times.len());
        times[idx - 1]
    };
    SojournStats {
        count: times.len(),
        p50: rank(0.50),
        p99: rank(0.99),
        p999: rank(0.999),
        max: *times.last().expect("non-empty"),
    }
}

/// Feeds every pulled completion's sojourn into `hist` — the bridge from
/// a generator run into the existing metrics instruments, so a scrape
/// taken after a sweep carries the same distribution the tables print.
pub fn observe_sojourns(completions: &[Completion], hist: &Histogram) {
    for c in completions.iter().filter(|c| c.pulled) {
        hist.observe(c.queue_wait + c.service);
    }
}

/// Sleeps (coarsely) then spins (precisely) until `deadline` on the
/// clock that `t0` started. Arrival schedules need microsecond-ish
/// precision; bare `sleep` overshoots by a scheduler quantum.
fn wait_until(t0: Instant, deadline: Duration) {
    loop {
        let now = t0.elapsed();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(200) {
            std::thread::sleep(remaining - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// An open-loop (arrival-rate-driven) generator.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Offered arrival rate, requests/second.
    pub rate: f64,
    /// Requests to offer.
    pub requests: usize,
    /// Seed for the inter-arrival draw (same seed, same schedule).
    pub seed: u64,
}

impl OpenLoop {
    /// Offers `requests` arrivals at exponential gaps, submitting each
    /// through `edge` on schedule. `next_req` supplies request texts
    /// (e.g. a [`flashed::Workload`] handle). Sheds are counted, never
    /// retried — open loops don't slow down for an overloaded server,
    /// which is exactly why they expose tail latency.
    pub fn run<F>(&self, edge: &Edge, mut next_req: F) -> GenReport
    where
        F: FnMut() -> String,
    {
        assert!(self.rate > 0.0, "open loop needs a positive rate");
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut report = GenReport::default();
        let t0 = Instant::now();
        let mut due = Duration::ZERO;
        for _ in 0..self.requests {
            // Exponential inter-arrival: -ln(1-U)/λ. gen_f64 is in
            // [0, 1), so 1-U is in (0, 1] and the log is finite.
            let gap = -(1.0_f64 - rng.gen_f64()).ln() / self.rate;
            due += Duration::from_secs_f64(gap);
            wait_until(t0, due);
            report.offered += 1;
            match edge.submit(next_req()) {
                Ok(_) => report.admitted += 1,
                Err(EdgeError::Overloaded { .. } | EdgeError::Unavailable) => report.shed += 1,
            }
        }
        report.elapsed = t0.elapsed();
        report
    }
}

/// One decorrelated-jitter backoff draw (the AWS "decorrelated jitter"
/// schedule): uniform in `[base, prev * 3]`, clamped to `cap`. Feeding
/// each draw back as the next `prev` grows the *expected* delay
/// geometrically while keeping every draw randomized — two clients shed
/// by the same 503 wave spread out instead of retrying in lockstep.
pub fn decorrelated_backoff(
    rng: &mut Rng,
    base: Duration,
    cap: Duration,
    prev: Duration,
) -> Duration {
    let cap = cap.max(base);
    let lo = base.as_nanos().min(u64::MAX as u128) as u64;
    let hi = prev
        .saturating_mul(3)
        .min(cap)
        .max(base)
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    let span = hi.saturating_sub(lo);
    Duration::from_nanos(lo + (rng.gen_f64() * span as f64) as u64)
}

/// A closed-loop (concurrency-driven) generator: at most `clients`
/// requests in flight at once.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    /// Simulated concurrent clients (the in-flight window).
    pub clients: usize,
    /// Total requests to complete.
    pub requests: usize,
    /// Minimum backoff after a shed. The *effective* floor is this
    /// value or the edge's `Retry-After` hint, whichever is larger;
    /// actual delays are decorrelated-jitter draws from there up to
    /// [`ClosedLoop::backoff_cap`].
    pub backoff: Duration,
    /// Ceiling the jittered backoff saturates at (clamped up to the
    /// floor when configured smaller).
    pub backoff_cap: Duration,
    /// Seed for the jitter draws — distinct clients should use distinct
    /// seeds so their retries decorrelate.
    pub seed: u64,
}

impl ClosedLoop {
    /// The backoff floor this generator would actually use against
    /// `edge`: the configured base, floored at the edge's synthesized
    /// `Retry-After` hint.
    pub fn backoff_floor(&self, edge: &Edge) -> Duration {
        self.backoff.max(edge.retry_after_hint())
    }

    /// Drives the window: submit while fewer than `clients` requests are
    /// outstanding, poll `shared` for completions, back off and retry on
    /// a shed — honoring the edge's 503 `Retry-After` hint as the floor
    /// and spreading retries with decorrelated jitter. Returns once
    /// every request has been admitted and its completion observed.
    pub fn run<F>(&self, edge: &Edge, shared: &ServerShared, mut next_req: F) -> GenReport
    where
        F: FnMut() -> String,
    {
        assert!(self.clients > 0, "closed loop needs at least one client");
        let base = shared.completions_len();
        let floor = self.backoff_floor(edge);
        let cap = self.backoff_cap.max(floor);
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut prev = floor;
        let mut report = GenReport::default();
        let t0 = Instant::now();
        // Completions expected so far: every admission produces exactly
        // one (sheds are retried, not abandoned, so they produce their
        // completion on the eventual successful admission; any shed
        // 503s the edge synthesizes arrive on top and are absorbed into
        // the outstanding count conservatively below).
        let mut pending: Option<String> = None;
        while report.admitted < self.requests {
            let completed = shared.completions_len() - base;
            let outstanding = (report.admitted + report.shed).saturating_sub(completed);
            if outstanding >= self.clients {
                std::thread::sleep(Duration::from_micros(20));
                continue;
            }
            let req = pending.take().unwrap_or_else(&mut next_req);
            match edge.submit(req.clone()) {
                Ok(_) => {
                    report.admitted += 1;
                    report.offered += 1;
                    prev = floor;
                }
                Err(EdgeError::Overloaded { .. } | EdgeError::Unavailable) => {
                    // Backpressure: hold the request, back off (jittered,
                    // Retry-After-floored), try again.
                    report.shed += 1;
                    pending = Some(req);
                    prev = decorrelated_backoff(&mut rng, floor, cap, prev);
                    std::thread::sleep(prev);
                }
            }
        }
        // Wait for the window to fully drain.
        let expected = report.admitted + report.shed;
        while shared.completions_len() - base < expected {
            std::thread::sleep(Duration::from_micros(50));
        }
        report.elapsed = t0.elapsed();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashed::{EdgeConfig, RoutePolicy};

    fn completion(queue_wait_us: u64, service_us: u64, pulled: bool) -> Completion {
        Completion {
            at: Duration::ZERO,
            service: Duration::from_micros(service_us),
            update_pause: Duration::ZERO,
            queue_wait: Duration::from_micros(queue_wait_us),
            pulled,
            request_id: pulled.then_some(1),
            response: String::new(),
        }
    }

    #[test]
    fn sojourn_stats_sum_wait_and_service_and_skip_sheds() {
        let mut completions: Vec<Completion> =
            (1..=100).map(|i| completion(i, 100, true)).collect();
        completions.push(completion(0, 0, false)); // a shed 503
        let stats = sojourn_stats(&completions);
        assert_eq!(stats.count, 100);
        assert_eq!(stats.p50, Duration::from_micros(150));
        assert_eq!(stats.p99, Duration::from_micros(199));
        assert_eq!(stats.p999, Duration::from_micros(200));
        assert_eq!(stats.max, Duration::from_micros(200));
    }

    #[test]
    fn open_loop_is_deterministic_and_sheds_on_overflow() {
        // Nobody consumes: an inbox of 8 admits 8 and sheds the rest.
        let edge = Edge::new(
            1,
            &EdgeConfig::new(RoutePolicy::RoundRobin)
                .queue_capacity(8)
                .shed_responses(false),
            ServerShared::new(),
            None,
        );
        let gen = OpenLoop {
            rate: 50_000.0,
            requests: 20,
            seed: 7,
        };
        let report = gen.run(&edge, || "GET /x HTTP/1.0".to_string());
        assert_eq!(report.offered, 20);
        assert_eq!(report.admitted, 8);
        assert_eq!(report.shed, 12);
        assert_eq!(edge.shed(), 12);
        // The schedule is seeded: a second identical run offers at the
        // same pace (same total gap, within scheduling noise).
        assert!(report.offered_rps() > 0.0);
    }

    #[test]
    fn decorrelated_backoff_stays_bounded_and_grows() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        let mut rng = Rng::seed_from_u64(3);
        let mut prev = base;
        for _ in 0..64 {
            prev = decorrelated_backoff(&mut rng, base, cap, prev);
            assert!(prev >= base, "draw {prev:?} under the floor");
            assert!(prev <= cap, "draw {prev:?} over the cap");
        }
        // A cap below the base clamps up, never panics.
        let d = decorrelated_backoff(&mut rng, base, Duration::ZERO, base);
        assert_eq!(d, base);
    }

    #[test]
    fn backoff_draws_decorrelate_across_seeds() {
        // Two clients shed by the same wave must not retry in lockstep:
        // distinct seeds produce distinct backoff schedules.
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut rng = Rng::seed_from_u64(seed);
            let mut prev = base;
            (0..16)
                .map(|_| {
                    prev = decorrelated_backoff(&mut rng, base, cap, prev);
                    prev
                })
                .collect()
        };
        let a = schedule(1);
        let b = schedule(2);
        assert_ne!(a, b, "seeds 1 and 2 drew identical backoff schedules");
        // Deterministic per seed (reproducible benches).
        assert_eq!(a, schedule(1));
        // And not a constant schedule — the jitter actually jitters.
        assert!(a.windows(2).any(|w| w[0] != w[1]), "schedule never varied");
    }

    #[test]
    fn closed_loop_floors_backoff_at_the_retry_after_hint() {
        let edge = Edge::new(
            1,
            &EdgeConfig::new(RoutePolicy::RoundRobin)
                .queue_capacity(1)
                .retry_after_hint(Duration::from_millis(5)),
            ServerShared::new(),
            None,
        );
        let gen = ClosedLoop {
            clients: 1,
            requests: 1,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(50),
            seed: 9,
        };
        assert_eq!(gen.backoff_floor(&edge), Duration::from_millis(5));
        // A base above the hint wins instead.
        let gen = ClosedLoop {
            backoff: Duration::from_millis(8),
            ..gen
        };
        assert_eq!(gen.backoff_floor(&edge), Duration::from_millis(8));
    }

    #[test]
    fn open_loop_paces_arrivals_near_the_nominal_rate() {
        let edge = Edge::new(
            1,
            &EdgeConfig::new(RoutePolicy::RoundRobin).queue_capacity(4096),
            ServerShared::new(),
            None,
        );
        let gen = OpenLoop {
            rate: 2000.0,
            requests: 200,
            seed: 11,
        };
        let report = gen.run(&edge, || "GET /x HTTP/1.0".to_string());
        let rps = report.offered_rps();
        // Mean of 200 exponential gaps at λ=2000: ~100ms total, sd ~7ms.
        // Accept a generous band — the assertion is about pacing, not
        // statistics.
        assert!(
            (1000.0..4000.0).contains(&rps),
            "offered {rps:.0} req/s, wanted ≈2000"
        );
    }
}
