//! Driving a fleet: the closed and open loops, incremental completion
//! checking, and the update coordinator that walks versions meanwhile.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::gen::{ns32, Done, Mix, Rng, Sub};
use crate::oracle::Expect;
use crate::oracle::{Corpus, Outcome};
use crate::sut::{Completion, Fleet, Patch, PhaseTimings};

/// How often the closed loop tops its window up and takes completions.
const TICK: Duration = Duration::from_micros(200);

/// The generator side of one fleet run: submits, takes and classifies
/// completions as they arrive (so the completion log never holds more
/// than one window of responses), and keeps the compact logs pairing
/// works from.
pub struct Driver<'a> {
    pub fleet: &'a Fleet,
    corpus: &'a Corpus,
    mix: Mix,
    pub subs: Vec<Sub>,
    pub dones: Vec<Done>,
    /// Submissions the edge refused, and the 503s it synthesized for them.
    pub shed: u64,
    pub shed_responses: u64,
    /// Unpulled completions that were not a well-formed 503.
    pub stray: u64,
    /// Record how long each `Edge::submit` took (one more clock read per
    /// request; traced run).
    pub trace: bool,
    /// Time spent inside `take_completions` calls, and completions taken.
    pub take_time: Duration,
    pub taken: u64,
}

impl<'a> Driver<'a> {
    pub fn new(fleet: &'a Fleet, corpus: &'a Corpus, mix: Mix, trace: bool) -> Driver<'a> {
        Driver {
            fleet,
            corpus,
            mix,
            subs: Vec::with_capacity(1 << 20),
            dones: Vec::with_capacity(1 << 20),
            shed: 0,
            shed_responses: 0,
            stray: 0,
            trace,
            take_time: Duration::ZERO,
            taken: 0,
        }
    }

    fn outstanding(&self) -> usize {
        self.subs.len() - self.dones.len()
    }

    fn submit(&mut self, due_ns: u64) {
        let (line, expect) = self.mix.draw();
        self.submit_line(due_ns, line, expect);
    }

    fn submit_line(&mut self, due_ns: u64, line: String, expect: Expect) {
        let start_ns = self.fleet.now_ns();
        let admitted = self.fleet.submit(line).is_ok();
        let end_ns = if self.trace {
            self.fleet.now_ns()
        } else {
            start_ns
        };
        if admitted {
            self.subs.push(Sub {
                due_ns,
                lag_ns: ns32(u128::from(start_ns.saturating_sub(due_ns))),
                submit_ns: ns32(u128::from(end_ns - start_ns)),
                expect,
            });
        } else {
            self.shed += 1;
        }
    }

    /// Takes whatever completed, classifies each response against the
    /// corpus, and keeps only the compact record.
    pub fn collect(&mut self) {
        let t = Instant::now();
        let batch = self.fleet.take_completions();
        self.take_time += t.elapsed();
        self.taken += batch.len() as u64;
        for c in &batch {
            self.absorb(c);
        }
    }

    fn absorb(&mut self, c: &Completion) {
        let verdict = self.corpus.classify(&c.response);
        if !c.pulled {
            if verdict.outcome == Outcome::Shed {
                self.shed_responses += 1;
            } else {
                self.stray += 1;
            }
            return;
        }
        self.dones.push(Done {
            at_ns: c.at.as_nanos() as u64,
            queue_wait_ns: ns32(c.queue_wait.as_nanos()),
            service_ns: ns32(c.service.as_nanos()),
            pause_ns: ns32(c.update_pause.as_nanos()),
            outcome: verdict.outcome,
            content_type: verdict.content_type,
        });
    }

    /// Requests the `hottest` documents once each and waits for the
    /// answers, so caches are warm and lazy set-up is done. The warm-up
    /// traffic is checked like any other but kept out of the logs.
    pub fn warm_up(&mut self, hottest: usize) -> Result<(), String> {
        let sweep: Vec<_> = self.mix.sweep().take(hottest).collect();
        for chunk in sweep.chunks(256) {
            for (line, expect) in chunk {
                self.submit_line(self.fleet.now_ns(), line.clone(), *expect);
            }
            self.drain(Duration::from_secs(20))?;
        }
        let wrong = self
            .dones
            .iter()
            .filter(|d| !matches!(d.outcome, Outcome::Ok(_)))
            .count();
        if wrong > 0 || self.shed > 0 {
            return Err(format!(
                "warm-up: {wrong} wrong responses, {} shed",
                self.shed
            ));
        }
        self.subs.clear();
        self.dones.clear();
        Ok(())
    }

    /// Closed loop: keeps `window` requests outstanding, topping up and
    /// taking completions every [`TICK`]. `each_tick` runs once per tick on
    /// this thread with the completions so far (the saturating workload's
    /// inline update coordinator lives there) and ends the loop by
    /// returning true.
    pub fn closed_loop(&mut self, window: usize, mut each_tick: impl FnMut(&Fleet, usize) -> bool) {
        loop {
            self.collect();
            for _ in self.outstanding()..window {
                self.submit(self.fleet.now_ns());
            }
            if each_tick(self.fleet, self.dones.len()) {
                return;
            }
            std::thread::sleep(TICK);
        }
    }

    /// Open loop: exponential gaps at `rate` requests per second until
    /// `until_ns` (or `stop` reads true); each request is timed from the
    /// instant it was due, so a late generator shows as lag, not as lower
    /// latency.
    pub fn open_loop(&mut self, rate: f64, until_ns: u64, stop: &AtomicBool, rng: &mut Rng) {
        let mean_gap = 1e9 / rate;
        let mut due = self.fleet.now_ns() + rng.exp_ns(mean_gap);
        let mut last_collect = 0u64;
        while due < until_ns && !stop.load(Ordering::Relaxed) {
            let now = self.fleet.now_ns();
            if now >= due {
                self.submit(due);
                due += rng.exp_ns(mean_gap).max(1);
                continue;
            }
            let wait = due - now;
            if wait > 20_000 && now - last_collect > 250_000 {
                self.collect();
                last_collect = now;
            } else if wait > 200_000 {
                // The kernel's timer slack is ~50 µs; wake early, then spin.
                std::thread::sleep(Duration::from_nanos(wait - 120_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Waits until every admitted submission has completed.
    pub fn drain(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            self.collect();
            if self.outstanding() == 0 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "{} of {} requests never completed",
                    self.outstanding(),
                    self.subs.len()
                ));
            }
            std::thread::sleep(TICK);
        }
    }
}

/// One update operation the coordinator performed, on the fleet's clock.
#[derive(Debug, Clone)]
pub struct HopRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Version index (1-based) every worker served before and after.
    pub from: usize,
    pub to: usize,
    /// Forward hop: each worker's phase timings. Rollback chain: empty.
    pub applies: Vec<PhaseTimings>,
    /// Rollback chain: each restore's pause. Forward hop: empty.
    pub restores: Vec<Duration>,
}

/// What the coordinator did over a run.
#[derive(Debug, Default)]
pub struct WalkLog {
    pub hops: Vec<HopRecord>,
    pub cycles: u64,
    /// Rejected patches, missing reports, workers on the wrong version.
    pub failed: u64,
    pub attempted: u64,
}

/// Walks the fleet v1 → … → v5 one rolling hop at a time and back to v1
/// through every worker's snapshot ring, over and over.
pub struct Walker<'a> {
    patches: &'a [Patch],
    /// The version index (1-based) the fleet serves now.
    at: usize,
    pub log: WalkLog,
}

impl<'a> Walker<'a> {
    /// A walker over a fleet currently serving version `at` (1-based)
    /// whose workers' rings hold the hops that led there from v1.
    pub fn new(patches: &'a [Patch], at: usize) -> Walker<'a> {
        Walker {
            patches,
            at,
            log: WalkLog::default(),
        }
    }

    /// Performs the next operation of the cycle: a forward hop while below
    /// the newest version, else the chain rollback to v1.
    pub fn step(&mut self, fleet: &Fleet) {
        let newest = self.patches.len() + 1;
        let start_ns = fleet.now_ns();
        self.log.attempted += 1;
        if self.at < newest {
            let (from, to) = (self.at, self.at + 1);
            let hop = fleet.rollout_hop(&self.patches[from - 1]);
            let end_ns = fleet.now_ns();
            self.at = to;
            match hop {
                Ok(hop) => {
                    let converged = hop.rejected.is_empty()
                        && hop.applied.len() == fleet.workers()
                        && hop
                            .applied
                            .iter()
                            .all(|(_, r)| r.to_version == format!("v{to}") && !r.rolled_back);
                    if !converged {
                        eprintln!("hop v{from} -> v{to} did not converge: {:?}", hop.rejected);
                        self.log.failed += 1;
                    }
                    self.log.hops.push(HopRecord {
                        start_ns,
                        end_ns,
                        from,
                        to,
                        applies: hop.applied.iter().map(|(_, r)| r.timings).collect(),
                        restores: Vec::new(),
                    });
                }
                Err(e) => {
                    eprintln!("hop v{from} -> v{to} failed: {e}");
                    self.log.failed += 1;
                }
            }
        } else {
            let hops = self.at - 1;
            let chain = fleet.rollback_chain(hops);
            let end_ns = fleet.now_ns();
            let from = self.at;
            self.at = 1;
            self.log.cycles += 1;
            match chain {
                Ok(reports) => {
                    let back = fleet.live_versions().iter().all(|v| v == "v1");
                    if !back || reports.iter().any(|r| !r.rolled_back) {
                        self.log.failed += 1;
                    }
                    self.log.hops.push(HopRecord {
                        start_ns,
                        end_ns,
                        from,
                        to: 1,
                        applies: Vec::new(),
                        restores: reports.iter().map(|r| r.timings.total()).collect(),
                    });
                }
                Err(e) => {
                    eprintln!("rollback chain v{from} -> v1 failed: {e}");
                    self.log.failed += 1;
                }
            }
        }
    }

    /// Steps every `every` until `cycles` forward-and-back cycles are done
    /// (on a thread of its own).
    pub fn run(&mut self, fleet: &Fleet, every: Duration, cycles: u64) {
        let mut next = Instant::now() + every;
        while self.log.cycles < cycles {
            let now = Instant::now();
            if now < next {
                std::thread::sleep((next - now).min(Duration::from_millis(1)));
                continue;
            }
            self.step(fleet);
            next += every;
            if next < Instant::now() {
                next = Instant::now() + every;
            }
        }
    }

    /// Brings the fleet to its newest version (stepping through whatever
    /// remains of the cycle) so a run can end where it began.
    pub fn finish_at_newest(&mut self, fleet: &Fleet) {
        while self.at < self.patches.len() + 1 {
            self.step(fleet);
        }
    }
}

/// Which versions may have produced a response completed at `at_ns`:
/// `(oldest, newest)` version index, from the coordinator's hop log. A
/// response inside a hop's window may come from either side of it.
pub fn versions_at(hops: &[HopRecord], boot: usize, at_ns: u64) -> (usize, usize) {
    let idx = hops.partition_point(|h| h.start_ns <= at_ns);
    if idx == 0 {
        return (boot, boot);
    }
    let h = &hops[idx - 1];
    if at_ns <= h.end_ns {
        (h.from.min(h.to), h.from.max(h.to))
    } else {
        (h.to, h.to)
    }
}

/// Whether a response's `Content-Type` agrees with the versions that may
/// have served it: present (and naming the right type) iff the serving
/// version is ≥ v2, and never on an error response.
pub fn content_type_ok(done: &Done, versions: (usize, usize)) -> bool {
    let is_file = matches!(done.outcome, Outcome::Ok(Expect::File(_)));
    match done.content_type {
        Some(false) => false,
        Some(true) => is_file && versions.1 >= 2,
        None => !is_file || versions.0 < 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(start_ns: u64, end_ns: u64, from: usize, to: usize) -> HopRecord {
        HopRecord {
            start_ns,
            end_ns,
            from,
            to,
            applies: Vec::new(),
            restores: Vec::new(),
        }
    }

    fn done(outcome: Outcome, content_type: Option<bool>) -> Done {
        Done {
            at_ns: 0,
            queue_wait_ns: 0,
            service_ns: 0,
            pause_ns: 0,
            outcome,
            content_type,
        }
    }

    #[test]
    fn version_window_follows_the_hop_log() {
        let hops = [
            hop(100, 150, 1, 2),
            hop(300, 350, 2, 3),
            hop(500, 600, 3, 1),
        ];
        assert_eq!(versions_at(&hops, 1, 50), (1, 1));
        assert_eq!(versions_at(&hops, 1, 120), (1, 2));
        assert_eq!(versions_at(&hops, 1, 200), (2, 2));
        assert_eq!(versions_at(&hops, 1, 320), (2, 3));
        assert_eq!(versions_at(&hops, 1, 550), (1, 3));
        assert_eq!(versions_at(&hops, 1, 700), (1, 1));
    }

    #[test]
    fn content_type_must_match_the_serving_version() {
        let file = Outcome::Ok(Expect::File(0));
        assert!(content_type_ok(&done(file, None), (1, 1)));
        assert!(!content_type_ok(&done(file, Some(true)), (1, 1)));
        assert!(content_type_ok(&done(file, Some(true)), (2, 2)));
        assert!(!content_type_ok(&done(file, None), (2, 5)));
        // Inside a v1 → v2 hop either form is right.
        assert!(content_type_ok(&done(file, None), (1, 2)));
        assert!(content_type_ok(&done(file, Some(true)), (1, 2)));
        assert!(!content_type_ok(&done(file, Some(false)), (3, 3)));
        // Errors never carry a type.
        let miss = Outcome::Ok(Expect::NotFound);
        assert!(content_type_ok(&done(miss, None), (5, 5)));
        assert!(!content_type_ok(&done(miss, Some(true)), (5, 5)));
    }
}
