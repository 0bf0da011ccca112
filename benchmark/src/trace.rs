//! Harness-side spans for the traced run.
//!
//! A span is `(id, parent, name, start, end)` on the run's clock, in
//! nanoseconds. The harness records one around each call it makes into a
//! layer and rebuilds the rest from what the calls return (`Completion`
//! fields, `PhaseTimings`). Spans live in a vector sized before the run and
//! are written to `benchmark/out/<workload>.trace.json` when it ends.

use std::fmt::Write as _;

/// One recorded interval. `parent == 0` marks a root; the spans of one
/// request (or one update hop) share `root`, their root span's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub root: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A bounded in-memory span store: allocation happens once, up front, and
/// a full store drops (and counts) further spans instead of growing.
pub struct Tracer {
    spans: Vec<Span>,
    capacity: usize,
    next_id: u32,
    pub dropped: u64,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(capacity),
            capacity,
            next_id: 1,
            dropped: 0,
        }
    }

    /// Whether `n` more spans fit (so a tree is recorded whole or not at all).
    pub fn has_room(&self, n: usize) -> bool {
        self.spans.len() + n <= self.capacity
    }

    /// Records a root span and returns its id.
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.next_id;
        self.push(id, 0, id, name, start_ns, end_ns)
    }

    /// Records a child of `parent` inside the tree rooted at `root`.
    pub fn child(
        &mut self,
        parent: u32,
        root: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.next_id;
        self.push(id, parent, root, name, start_ns, end_ns)
    }

    fn push(
        &mut self,
        id: u32,
        parent: u32,
        root: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.next_id += 1;
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                id,
                parent,
                root,
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        } else {
            self.dropped += 1;
        }
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id, s.parent, s.root, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover (overlapping children are not counted twice).
pub fn self_time_ns(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| (c.start_ns, c.end_ns))
        .collect();
    (span.end_ns - span.start_ns) - covered_ns(&mut kids, span.start_ns, span.end_ns)
}

/// Over every tree whose root is named `root_name`: the roots' summed self
/// time as a share of their summed duration — the part of those intervals
/// no child span accounts for. A tree's spans are stored together, root
/// first, so one pass does it.
pub fn unattributed_share(spans: &[Span], root_name: &str) -> f64 {
    let (mut own, mut all) = (0u64, 0u64);
    let mut i = 0;
    while i < spans.len() {
        let root = &spans[i];
        let tree_end = i
            + 1
            + spans[i + 1..]
                .iter()
                .take_while(|s| s.root == root.id)
                .count();
        if root.parent == 0 && root.name == root_name {
            own += self_time_ns(root, &spans[i..tree_end]);
            all += root.end_ns - root.start_ns;
        }
        i = tree_end;
    }
    if all == 0 {
        0.0
    } else {
        own as f64 / all as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::with_capacity(16);
        let root = t.root("request", 100, 200);
        t.child(root, root, "edge.submit", 100, 110);
        // Two overlapping children: union is [120, 170].
        let svc = t.child(root, root, "server.service", 120, 160);
        t.child(root, root, "core.pause", 150, 170);
        // A grandchild does not count against the root.
        t.child(svc, root, "fs.read", 125, 135);
        // A child leaking past the parent is clipped to it.
        t.child(root, root, "late", 195, 230);
        let spans = t.spans().to_vec();
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - 10 - 50 - 5);
        assert_eq!(self_time_ns(&spans[2], &spans), 40 - 10);
        assert_eq!(self_time_ns(&spans[1], &spans), 10, "a leaf is all self");
    }

    #[test]
    fn unattributed_share_is_root_self_time_over_root_time() {
        let mut t = Tracer::with_capacity(16);
        let a = t.root("request", 0, 100);
        t.child(a, a, "edge.queue_wait", 0, 60);
        t.child(a, a, "server.service", 60, 90);
        let hop = t.root("rollout.hop", 0, 1000);
        t.child(hop, hop, "core.apply[0]", 0, 10);
        let b = t.root("request", 200, 300);
        t.child(b, b, "server.service", 200, 300);
        // Requests: 10 of 200 ns uncovered; the hop is another tree.
        assert!((unattributed_share(t.spans(), "request") - 0.05).abs() < 1e-12);
        assert!((unattributed_share(t.spans(), "rollout.hop") - 0.99).abs() < 1e-12);
        assert_eq!(unattributed_share(t.spans(), "nothing"), 0.0);
    }

    #[test]
    fn covered_merges_and_clips() {
        assert_eq!(covered_ns(&mut [(5, 10), (8, 12), (20, 30)], 0, 25), 7 + 5);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
        assert_eq!(covered_ns(&mut [(0, 100)], 10, 20), 10);
    }

    #[test]
    fn a_full_store_drops_and_counts() {
        let mut t = Tracer::with_capacity(2);
        let r = t.root("a", 0, 1);
        t.child(r, r, "b", 0, 1);
        assert!(!t.has_room(1));
        t.child(r, r, "c", 0, 1);
        assert_eq!((t.spans().len(), t.dropped), (2, 1));
        assert!(t
            .to_json()
            .starts_with("[\n{\"id\":1,\"parent\":0,\"root\":1,\"name\":\"a\""));
    }
}
