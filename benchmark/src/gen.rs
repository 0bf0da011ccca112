//! The benchmark's own load generator: seeded draws, the request mix,
//! the submission and completion logs, and the rule that pairs them.
//!
//! All instants are nanoseconds on the fleet's `ServerShared` clock, the
//! clock `Completion.at` is stamped on.

use std::collections::HashMap;

use crate::oracle::{Corpus, Expect, Outcome};

/// SplitMix64: small, seedable, and independent of the system's own `Rng`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1)`: never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// An exponential gap with the given mean, in nanoseconds.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        (-self.unit().ln() * mean_ns) as u64
    }
}

/// Zipf(α) over `n` ranks as an explicit CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64) -> Zipf {
        assert!(n > 0, "zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += (i as f64).powf(-alpha);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|p| *p < u).min(self.cdf.len() - 1)
    }
}

/// Distinct missing paths and malformed lines, so they spread over the
/// hash ring like real keys instead of piling onto one worker.
const VARIANTS: u64 = 64;

/// The traffic mix of one workload: Zipf-popular documents, plus fixed
/// shares of missing paths (expect 404) and malformed lines (expect 400).
pub struct Mix {
    /// `(request line, file id)` by popularity rank.
    ranked: Vec<(String, u32)>,
    zipf: Zipf,
    miss_share: f64,
    bad_share: f64,
    rng: Rng,
}

impl Mix {
    pub fn new(corpus: &Corpus, alpha: f64, miss_share: f64, bad_share: f64, seed: u64) -> Mix {
        // Popularity rank is a seeded shuffle of the files, so which file
        // is hot (and which worker owns it) moves with the seed.
        let mut rng = Rng::new(seed ^ 0x5eed);
        let mut order: Vec<u32> = (0..corpus.paths.len() as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        Mix {
            ranked: order
                .iter()
                .map(|&f| (format!("GET {} HTTP/1.0", corpus.paths[f as usize]), f))
                .collect(),
            zipf: Zipf::new(order.len(), alpha),
            miss_share,
            bad_share,
            rng,
        }
    }

    /// The same popularity order, another stream of draws.
    pub fn draws_from(mut self, part: u64) -> Mix {
        self.rng = Rng::new(self.rng.next_u64() ^ part.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self
    }

    /// The next request line and what it must be answered with.
    pub fn draw(&mut self) -> (String, Expect) {
        let r = self.rng.unit();
        if r < self.bad_share {
            let k = self.rng.next_u64() % VARIANTS;
            return (format!("BOGUS-{k}"), Expect::BadRequest);
        }
        if r < self.bad_share + self.miss_share {
            let k = self.rng.next_u64() % VARIANTS;
            return (
                format!("GET /missing/m{k:03}.html HTTP/1.0"),
                Expect::NotFound,
            );
        }
        let (line, file) = &self.ranked[self.zipf.sample(&mut self.rng)];
        (line.clone(), Expect::File(*file))
    }

    /// Every document's request line once, hottest first (warm-up).
    pub fn sweep(&self) -> impl Iterator<Item = (String, Expect)> + '_ {
        self.ranked
            .iter()
            .map(|(line, f)| (line.clone(), Expect::File(*f)))
    }
}

/// One admitted submission, in submission order.
#[derive(Debug, Clone, Copy)]
pub struct Sub {
    /// When the request was due (open loop) or issued (closed loop).
    pub due_ns: u64,
    /// How long after that the generator called `Edge::submit`, and how
    /// long the call took. (Spans are `u32` nanoseconds, saturating at
    /// 4.29 s — the logs hold a million entries and their size shows in
    /// `peak_rss_mb`.)
    pub lag_ns: u32,
    pub submit_ns: u32,
    pub expect: Expect,
}

/// Saturating nanoseconds of a span.
pub fn ns32(ns: u128) -> u32 {
    ns.min(u32::MAX as u128) as u32
}

/// One pulled completion, reduced to what pairing and the ledger need —
/// the response text is classified on arrival and dropped.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub at_ns: u64,
    pub queue_wait_ns: u32,
    pub service_ns: u32,
    pub pause_ns: u32,
    pub outcome: Outcome,
    /// `None`: no `Content-Type`; `Some(ok)`: one, naming the right type.
    pub content_type: Option<bool>,
}

impl Done {
    /// The admission instant recovered from the completion's own fields.
    /// `Completion` carries no request identity, but a single submitter
    /// admits in submission order, so sorting completions on this instant
    /// lines them up with the submission log.
    pub fn admitted_ns(&self) -> u64 {
        self.at_ns.saturating_sub(
            u64::from(self.queue_wait_ns) + u64::from(self.service_ns) + u64::from(self.pause_ns),
        )
    }
}

/// Result of pairing a phase's completions to its submissions.
#[derive(Debug, Default)]
pub struct Paired {
    /// `(submission, completion)` rank-aligned, in submission order.
    pub pairs: Vec<(Sub, Done)>,
    /// Pairs whose completion answers another submission than the one at
    /// its own rank: the recovered instant jittered past a neighbour's (a
    /// worker descheduled between its clock reads moves it by far more).
    /// Counted and printed; latency is off by one inter-arrival gap there.
    pub mismatches: usize,
    /// Wrong responses, plus submissions no correct response of their
    /// class answered (or correct responses nobody asked for).
    pub failed: usize,
}

/// Pairs `dones` (any order) with `subs` (submission order) by rank on
/// the recovered admission instant. Correctness does not lean on the
/// ranks: it is an exact count per expectation class, so clock jitter
/// cannot fail a correct run and a wrong or lost response cannot pass.
pub fn pair(subs: &[Sub], mut dones: Vec<Done>) -> Paired {
    dones.sort_by_key(Done::admitted_ns);
    let mut asked: HashMap<Expect, i64> = HashMap::new();
    for s in subs {
        *asked.entry(s.expect).or_default() += 1;
    }
    let mut wrong = 0;
    for d in &dones {
        match d.outcome {
            Outcome::Ok(class) => *asked.entry(class).or_default() -= 1,
            Outcome::Shed | Outcome::Wrong => wrong += 1,
        }
    }
    let unanswered: i64 = asked.values().filter(|n| **n > 0).sum();
    let unasked: i64 = -asked.values().filter(|n| **n < 0).sum::<i64>();
    let n = subs.len().min(dones.len());
    let pairs: Vec<(Sub, Done)> = subs[..n].iter().copied().zip(dones.drain(..n)).collect();
    Paired {
        mismatches: pairs
            .iter()
            .filter(|(s, d)| d.outcome != Outcome::Ok(s.expect))
            .count(),
        failed: wrong + unanswered.max(unasked) as usize,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(due: u64, expect: Expect) -> Sub {
        Sub {
            due_ns: due,
            lag_ns: 0,
            submit_ns: 10,
            expect,
        }
    }

    fn done(admitted: u64, service: u32, outcome: Outcome) -> Done {
        Done {
            at_ns: admitted + 50 + u64::from(service),
            queue_wait_ns: 50,
            service_ns: service,
            pause_ns: 0,
            outcome,
            content_type: None,
        }
    }

    #[test]
    fn pairs_out_of_order_completions_by_recovered_admission() {
        let subs = [
            sub(100, Expect::File(1)),
            sub(200, Expect::File(2)),
            sub(300, Expect::NotFound),
        ];
        // Completion order is scrambled: the slow first request ends last.
        let dones = vec![
            done(205, 10, Outcome::Ok(Expect::File(2))),
            done(305, 10, Outcome::Ok(Expect::NotFound)),
            done(105, 9000, Outcome::Ok(Expect::File(1))),
        ];
        let p = pair(&subs, dones);
        assert_eq!((p.failed, p.mismatches), (0, 0));
        assert_eq!(p.pairs[0].1.service_ns, 9000);
        assert_eq!(p.pairs[2].1.outcome, Outcome::Ok(Expect::NotFound));
    }

    #[test]
    fn a_swap_between_neighbours_is_a_mismatch_not_a_failure() {
        let subs = [sub(100, Expect::File(1)), sub(101, Expect::File(2))];
        // Recovered instants crossed: file 2's completion sorts first.
        let dones = vec![
            done(103, 10, Outcome::Ok(Expect::File(1))),
            done(102, 10, Outcome::Ok(Expect::File(2))),
        ];
        let p = pair(&subs, dones);
        assert_eq!((p.failed, p.mismatches), (0, 2));
    }

    #[test]
    fn wrong_lost_and_unrequested_responses_fail() {
        let subs = [
            sub(100, Expect::File(1)),
            sub(200, Expect::File(2)),
            sub(300, Expect::File(3)),
        ];
        let dones = vec![
            done(105, 10, Outcome::Ok(Expect::File(1))),
            // A well-formed body nobody asked for, and one lost request.
            done(205, 10, Outcome::Ok(Expect::File(9))),
        ];
        // File 9 is unasked; files 2 and 3 are unanswered: two failures.
        let p = pair(&subs, dones);
        assert_eq!(p.failed, 2);
        // A wrong response fails once for itself and once for the request
        // it left unanswered.
        let p = pair(&subs[..1], vec![done(105, 10, Outcome::Wrong)]);
        assert_eq!(p.failed, 2);
    }

    #[test]
    fn draws_are_seeded_and_the_shares_hold() {
        let corpus = Corpus::generate(32, 64, 3);
        let mut a = Mix::new(&corpus, 1.0, 0.02, 0.005, 9);
        let mut b = Mix::new(&corpus, 1.0, 0.02, 0.005, 9);
        let mut miss = 0;
        let mut bad = 0;
        for _ in 0..20_000 {
            let (line, expect) = a.draw();
            assert_eq!((line, expect), b.draw());
            match expect {
                Expect::NotFound => miss += 1,
                Expect::BadRequest => bad += 1,
                Expect::File(_) => {}
            }
        }
        assert!((300..500).contains(&miss), "{miss}");
        assert!((60..140).contains(&bad), "{bad}");
        // Another part of the same run: the same hottest file, other draws.
        let first = Mix::new(&corpus, 1.0, 0.0, 0.0, 9);
        let second = Mix::new(&corpus, 1.0, 0.0, 0.0, 9).draws_from(1);
        assert_eq!(first.sweep().next(), second.sweep().next());
        let draws = |mut m: Mix| (0..50).map(|_| m.draw().0).collect::<Vec<_>>();
        assert_ne!(draws(first), draws(second));
        // Another seed: another popularity order.
        let other = Mix::new(&corpus, 1.0, 0.0, 0.0, 10);
        let order = |m: &Mix| m.sweep().map(|(line, _)| line).collect::<Vec<_>>();
        assert_ne!(order(&other), order(&Mix::new(&corpus, 1.0, 0.0, 0.0, 9)));
    }

    #[test]
    fn exponential_gaps_have_the_asked_mean() {
        let mut rng = Rng::new(7);
        let n = 100_000u64;
        let total: u64 = (0..n).map(|_| rng.exp_ns(50_000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((49_000.0..51_000.0).contains(&mean), "{mean}");
    }
}
