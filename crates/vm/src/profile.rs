//! Opt-in per-function execution profiling for the decoded-dispatch loop.
//!
//! When a [`Profiler`] is armed on a [`crate::Process`], the interpreter
//! feeds it at *control-flow edges only* — call, return, suspension —
//! never per instruction: the profiler mirrors the guest stack as a
//! collapsed key (`"serve;handle;render"`) and charges the decoded-op
//! delta since the previous edge to the stack that executed it. Slot
//! calls additionally record per-call-site inline-cache hit/miss
//! counts, so "which site went cold after the patch" is answerable
//! directly.
//!
//! Export formats:
//!
//! * [`Profiler::collapsed`] — collapsed-stack lines (`a;b;c 1234`),
//!   the format flamegraph tooling ingests;
//! * [`Profiler::report`] — a per-function table with dispatch counts,
//!   self and inclusive decoded ops, and per-site ic hit rates.
//!
//! The cost model matches the rest of the VM's observability: nothing
//! on the hot path when disarmed (one `Option` check per call/return
//! when armed), and the paper's dispatch-overhead numbers stay valid
//! because profiling is off everywhere by default.

use std::collections::HashMap;

/// Inline-cache behaviour of one slot-call site (function + decoded pc).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Calls answered by the warm inline cache.
    pub hits: u64,
    /// Calls that (re-)resolved through the indirection table.
    pub misses: u64,
}

/// Collapsed-stack profiler state (see module docs).
#[derive(Debug, Default)]
pub struct Profiler {
    /// Mirror of the guest stack, outermost first.
    stack: Vec<String>,
    /// `stack` joined with `;` — maintained incrementally so a call
    /// edge is a push + two string appends, not a re-join.
    key: String,
    /// `Process::stats.instrs` at the last flush.
    last_instrs: u64,
    /// Decoded ops retired per collapsed stack.
    by_stack: HashMap<String, u64>,
    /// Invocations per function (dispatch counts).
    calls: HashMap<String, u64>,
    /// Inline-cache behaviour per `(function, decoded pc)` call site.
    sites: HashMap<(String, usize), SiteStats>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Charges ops retired since the last edge to the current stack.
    fn flush(&mut self, instrs_now: u64) {
        let delta = instrs_now.saturating_sub(self.last_instrs);
        self.last_instrs = instrs_now;
        if delta > 0 && !self.key.is_empty() {
            *self.by_stack.entry(self.key.clone()).or_insert(0) += delta;
        }
    }

    /// Call edge: flush, then push `callee` onto the mirrored stack.
    pub fn on_call(&mut self, instrs_now: u64, callee: &str) {
        self.flush(instrs_now);
        if !self.key.is_empty() {
            self.key.push(';');
        }
        self.key.push_str(callee);
        self.stack.push(callee.to_string());
        *self.calls.entry(callee.to_string()).or_insert(0) += 1;
    }

    /// Return edge: flush, then pop the mirrored stack.
    pub fn on_ret(&mut self, instrs_now: u64) {
        self.flush(instrs_now);
        if let Some(top) = self.stack.pop() {
            let cut = self.key.len() - top.len();
            self.key
                .truncate(cut.saturating_sub(usize::from(!self.key[..cut].is_empty())));
        }
    }

    /// Suspension edge (update point): flush so the suspended stack's
    /// ops are charged before the pause.
    pub fn on_suspend(&mut self, instrs_now: u64) {
        self.flush(instrs_now);
    }

    /// Re-enters execution with stack `names` (outermost first): resets
    /// the mirror without charging the gap (ops retired outside guest
    /// execution do not exist).
    pub fn resync(&mut self, names: &[String], instrs_now: u64) {
        self.stack = names.to_vec();
        self.key = names.join(";");
        self.last_instrs = instrs_now;
    }

    /// Records one slot call's inline-cache outcome at `(func, pc)`.
    pub fn record_site(&mut self, func: &str, pc: usize, hits: u64, misses: u64) {
        let s = self.sites.entry((func.to_string(), pc)).or_default();
        s.hits += hits;
        s.misses += misses;
    }

    /// Total decoded ops charged so far (over all stacks).
    pub fn total_ops(&self) -> u64 {
        self.by_stack.values().sum()
    }

    /// Invocation count per function, sorted descending.
    pub fn dispatch_counts(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self.calls.iter().map(|(n, c)| (n.clone(), *c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Per-site inline-cache stats, sorted by (function, pc).
    pub fn site_stats(&self) -> Vec<((String, usize), SiteStats)> {
        let mut v: Vec<((String, usize), SiteStats)> =
            self.sites.iter().map(|(k, s)| (k.clone(), *s)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Self and *inclusive* decoded ops per function. Inclusive is the
    /// sum over every stack the function appears on (counted once per
    /// stack, so recursion does not double-charge).
    pub fn function_ops(&self) -> Vec<(String, u64, u64)> {
        let mut self_ops: HashMap<&str, u64> = HashMap::new();
        let mut incl_ops: HashMap<&str, u64> = HashMap::new();
        for (key, ops) in &self.by_stack {
            let frames: Vec<&str> = key.split(';').collect();
            if let Some(leaf) = frames.last() {
                *self_ops.entry(leaf).or_insert(0) += ops;
            }
            let mut seen: Vec<&str> = Vec::with_capacity(frames.len());
            for f in frames {
                if !seen.contains(&f) {
                    seen.push(f);
                    *incl_ops.entry(f).or_insert(0) += ops;
                }
            }
        }
        let mut v: Vec<(String, u64, u64)> = incl_ops
            .iter()
            .map(|(n, incl)| {
                (
                    (*n).to_string(),
                    self_ops.get(n).copied().unwrap_or(0),
                    *incl,
                )
            })
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        v
    }

    /// Collapsed-stack export (`a;b;c <ops>` per line, sorted by stack
    /// key) — feed straight into flamegraph tooling.
    pub fn collapsed(&self) -> String {
        let mut lines: Vec<(&String, &u64)> = self.by_stack.iter().collect();
        lines.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = String::new();
        for (key, ops) in lines {
            out.push_str(key);
            out.push(' ');
            out.push_str(&ops.to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable profile: per-function table (dispatches, self,
    /// inclusive) plus the per-site inline-cache table.
    pub fn report(&self) -> String {
        let mut out = format!(
            "{:<24} {:>12} {:>14} {:>14}\n",
            "function", "dispatches", "self ops", "incl ops"
        );
        for (name, self_ops, incl) in self.function_ops() {
            let dispatches = self.calls.get(&name).copied().unwrap_or(0);
            out.push_str(&format!(
                "{name:<24} {dispatches:>12} {self_ops:>14} {incl:>14}\n"
            ));
        }
        let sites = self.site_stats();
        if !sites.is_empty() {
            out.push_str(&format!(
                "\n{:<24} {:>6} {:>12} {:>12} {:>9}\n",
                "call site", "pc", "ic hits", "ic misses", "hit rate"
            ));
            for ((func, pc), s) in sites {
                let total = s.hits + s.misses;
                let rate = if total == 0 {
                    0.0
                } else {
                    100.0 * s.hits as f64 / total as f64
                };
                out.push_str(&format!(
                    "{func:<24} {pc:>6} {:>12} {:>12} {rate:>8.1}%\n",
                    s.hits, s.misses
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_build_collapsed_stacks() {
        let mut p = Profiler::new();
        p.on_call(0, "main"); // enter main at op 0
        p.on_call(10, "helper"); // main ran 10 ops
        p.on_ret(25); // helper ran 15 ops
        p.on_ret(30); // main ran 5 more
        let collapsed = p.collapsed();
        assert!(collapsed.contains("main 15\n"), "{collapsed}");
        assert!(collapsed.contains("main;helper 15\n"), "{collapsed}");
        assert_eq!(p.total_ops(), 30);

        let fns = p.function_ops();
        let main = fns.iter().find(|f| f.0 == "main").unwrap();
        assert_eq!((main.1, main.2), (15, 30), "self 15, inclusive 30");
        let helper = fns.iter().find(|f| f.0 == "helper").unwrap();
        assert_eq!((helper.1, helper.2), (15, 15));
        assert_eq!(p.dispatch_counts()[0].1, 1);
    }

    #[test]
    fn recursion_counts_inclusive_once() {
        let mut p = Profiler::new();
        p.on_call(0, "f");
        p.on_call(5, "f");
        p.on_ret(15);
        p.on_ret(20);
        let fns = p.function_ops();
        let f = fns.iter().find(|x| x.0 == "f").unwrap();
        assert_eq!(f.2, 20, "recursive frames counted once per stack");
        assert_eq!(f.1, 20, "both leaves are f");
    }

    #[test]
    fn resync_restores_a_suspended_stack() {
        let mut p = Profiler::new();
        p.on_call(0, "serve");
        p.on_suspend(40);
        // ...update pause happens, execution resumes...
        p.resync(&["serve".to_string()], 40);
        p.on_ret(50);
        assert_eq!(p.total_ops(), 50);
        assert!(p.collapsed().contains("serve 50\n"));
    }

    #[test]
    fn sites_accumulate_and_render() {
        let mut p = Profiler::new();
        p.record_site("serve", 3, 0, 1);
        p.record_site("serve", 3, 1, 0);
        p.record_site("serve", 3, 1, 0);
        let sites = p.site_stats();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, SiteStats { hits: 2, misses: 1 });
        let report = p.report();
        assert!(report.contains("66.7%"), "{report}");
    }

    #[test]
    fn unbalanced_ret_is_harmless() {
        let mut p = Profiler::new();
        p.on_ret(10); // nothing on the stack: ignore
        assert_eq!(p.total_ops(), 0);
        p.on_call(10, "f");
        p.on_ret(12);
        assert_eq!(p.total_ops(), 2);
    }
}
