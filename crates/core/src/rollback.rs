//! First-class rollback: a bounded ring of prior binding snapshots.
//!
//! Every successful forward update pushes the snapshot taken just before
//! the apply into a [`SnapshotRing`]; a *downgrade* then has two routes
//! back, mirroring the two directions the paper's machinery already has:
//!
//! * **Inverse patch** — diff the versions the other way round
//!   ([`crate::PatchGen`] diffs both directions; a mechanical type change
//!   is remapped back) and apply it like any patch. Current guest state is
//!   *preserved* — counters keep counting, caches stay warm.
//! * **Snapshot restore** — pop the ring and restore the recorded
//!   bindings, slots, type names and global values. Instant and
//!   transformer-free, but best-effort about state: guest mutations made
//!   *after* the forward update are discarded with the restore.
//!
//! Either way the runtime marks the resulting report `rolled_back` and
//! closes its journal lifecycle with `Stage::RolledBack` — a reverse
//! lifecycle whose phase sum still equals `timings.total()` exactly.

use std::collections::VecDeque;

use vm::BindingSnapshot;

/// Default number of prior versions a ring retains.
pub const DEFAULT_SNAPSHOT_DEPTH: usize = 4;

/// One retired version: the bindings recorded immediately before the
/// forward update that superseded it.
#[derive(Debug)]
pub struct SnapshotEntry {
    /// The version the snapshot captures (the update's source).
    pub from_version: String,
    /// The version that superseded it (the update's target).
    pub to_version: String,
    /// The process bindings at `from_version`.
    pub snapshot: BindingSnapshot,
}

/// A bounded LIFO ring of [`SnapshotEntry`]s — newest on top, oldest
/// evicted once the ring exceeds its depth.
#[derive(Debug)]
pub struct SnapshotRing {
    depth: usize,
    entries: VecDeque<SnapshotEntry>,
}

impl Default for SnapshotRing {
    fn default() -> SnapshotRing {
        SnapshotRing::new(DEFAULT_SNAPSHOT_DEPTH)
    }
}

impl SnapshotRing {
    /// Creates a ring retaining at most `depth` prior versions. A depth
    /// of zero disables snapshot retention entirely.
    pub fn new(depth: usize) -> SnapshotRing {
        SnapshotRing {
            depth,
            entries: VecDeque::new(),
        }
    }

    /// The ring's bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Records the pre-update snapshot of a `from -> to` transition,
    /// evicting the oldest entry when the ring is full. No-op at depth 0.
    pub fn push(&mut self, from: &str, to: &str, snapshot: BindingSnapshot) {
        if self.depth == 0 {
            return;
        }
        if self.entries.len() == self.depth {
            self.entries.pop_front();
        }
        self.entries.push_back(SnapshotEntry {
            from_version: from.to_string(),
            to_version: to.to_string(),
            snapshot,
        });
    }

    /// Removes and returns the newest entry.
    pub fn pop(&mut self) -> Option<SnapshotEntry> {
        self.entries.pop_back()
    }

    /// The newest entry's `(from_version, to_version)` transition — what
    /// a snapshot rollback would undo.
    pub fn top_transition(&self) -> Option<(String, String)> {
        self.entries
            .back()
            .map(|e| (e.from_version.clone(), e.to_version.clone()))
    }

    /// Drops the newest entry if it records the transition an inverse
    /// patch just undid (its `to_version` equals the downgrade's source):
    /// the snapshot is superseded, holding it would let a later snapshot
    /// rollback "restore" a version the process already left twice.
    pub fn retire_undone(&mut self, undone_from: &str) {
        if self
            .entries
            .back()
            .is_some_and(|e| e.to_version == undone_from)
        {
            self.entries.pop_back();
        }
    }

    /// Retained transitions, oldest first, as `(from, to)` pairs.
    pub fn transitions(&self) -> Vec<(String, String)> {
        self.entries
            .iter()
            .map(|e| (e.from_version.clone(), e.to_version.clone()))
            .collect()
    }

    /// Checks that every retained snapshot can be restored onto `proc`
    /// (see [`BindingSnapshot::fits`]): a ring read back from bytes is
    /// trusted no further than this.
    ///
    /// # Errors
    ///
    /// Names the first entry that does not fit, and why.
    pub fn fits(&self, proc: &vm::Process) -> Result<(), String> {
        self.entries.iter().try_for_each(|e| {
            e.snapshot.fits(proc).map_err(|why| {
                format!(
                    "ring entry {}->{} does not fit the process: {why}",
                    e.from_version, e.to_version
                )
            })
        })
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the ring — depth, order and every snapshot — as a
    /// line-oriented text block (the crash-durable form an orchestrator
    /// persists alongside its journal).
    pub fn save(&self) -> String {
        let mut out = format!("dsu-snapshot-ring 1\ndepth {}\n", self.depth);
        for e in &self.entries {
            out.push_str(&format!("entry\t{}\t{}\n", e.from_version, e.to_version));
            out.push_str(&vm::encode_snapshot(&e.snapshot));
            out.push('\n');
        }
        out
    }

    /// Reconstructs a ring from [`SnapshotRing::save`] output, preserving
    /// the configured depth even when it exceeds the number of retained
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn load(text: &str) -> Result<SnapshotRing, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("dsu-snapshot-ring 1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let depth = lines
            .next()
            .and_then(|l| l.strip_prefix("depth "))
            .ok_or("missing depth line")?
            .parse::<usize>()
            .map_err(|e| format!("bad depth: {e}"))?;
        let mut entries = VecDeque::new();
        while let Some(line) = lines.next() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            match parts.next() {
                Some("entry") => {}
                other => return Err(format!("expected entry line, got {other:?}")),
            }
            let from = parts.next().ok_or("entry missing from-version")?;
            let to = parts.next().ok_or("entry missing to-version")?;
            let snap_line = lines.next().ok_or("entry missing snapshot line")?;
            let snapshot =
                vm::decode_snapshot(snap_line).map_err(|e| format!("entry {from}->{to}: {e}"))?;
            entries.push_back(SnapshotEntry {
                from_version: from.to_string(),
                to_version: to.to_string(),
                snapshot,
            });
        }
        if entries.len() > depth {
            return Err(format!("{} entries exceed depth {depth}", entries.len()));
        }
        Ok(SnapshotRing { depth, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::{LinkMode, Process};

    fn snap() -> BindingSnapshot {
        Process::new(LinkMode::Updateable).snapshot()
    }

    #[test]
    fn ring_is_bounded_and_lifo() {
        let mut ring = SnapshotRing::new(2);
        ring.push("v1", "v2", snap());
        ring.push("v2", "v3", snap());
        ring.push("v3", "v4", snap());
        assert_eq!(ring.len(), 2);
        assert_eq!(
            ring.transitions(),
            vec![
                ("v2".to_string(), "v3".to_string()),
                ("v3".to_string(), "v4".to_string()),
            ]
        );
        assert_eq!(
            ring.top_transition(),
            Some(("v3".to_string(), "v4".to_string()))
        );
        let top = ring.pop().unwrap();
        assert_eq!(top.from_version, "v3");
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn depth_zero_retains_nothing() {
        let mut ring = SnapshotRing::new(0);
        ring.push("v1", "v2", snap());
        assert!(ring.is_empty());
        assert!(ring.pop().is_none());
    }

    #[test]
    fn save_load_round_trip_preserves_depth_and_order() {
        // A non-trivial snapshot: bindings plus a live global value.
        let mut b = tal::ModuleBuilder::new("m", "v1");
        b.global(
            "hits",
            tal::Ty::Int,
            vec![tal::Instr::PushInt(33), tal::Instr::Ret],
        );
        b.function("serve", tal::FnSig::new(vec![], tal::Ty::Int), |f| {
            f.emit(tal::Instr::PushInt(1));
            f.emit(tal::Instr::Ret);
        });
        let mut p = Process::new(LinkMode::Updateable);
        p.load_module(&b.finish()).unwrap();

        let mut ring = SnapshotRing::new(4);
        ring.push("v1", "v2", p.snapshot());
        ring.push("v2", "v3", p.snapshot());

        let text = ring.save();
        let back = SnapshotRing::load(&text).unwrap();
        // Depth survives even though only 2 of 4 slots are filled.
        assert_eq!(back.depth(), 4);
        assert_eq!(back.transitions(), ring.transitions());
        assert_eq!(back.len(), 2);
        // Entry payloads survive byte-for-byte (codec is deterministic).
        for (a, b) in back.entries.iter().zip(&ring.entries) {
            assert_eq!(
                vm::encode_snapshot(&a.snapshot),
                vm::encode_snapshot(&b.snapshot)
            );
        }
        // And the save of the load reproduces the text exactly.
        assert_eq!(back.save(), text);

        // Malformed input errors instead of panicking.
        assert!(SnapshotRing::load("").is_err());
        assert!(SnapshotRing::load("dsu-snapshot-ring 1\n").is_err());
        assert!(SnapshotRing::load("dsu-snapshot-ring 1\ndepth 1\nentry\tv1\tv2\n{bad\n").is_err());
        assert!(
            SnapshotRing::load("dsu-snapshot-ring 9\ndepth 1\n").is_err(),
            "unknown version rejected"
        );
    }

    #[test]
    fn retire_undone_pops_only_the_matching_transition() {
        let mut ring = SnapshotRing::new(4);
        ring.push("v1", "v2", snap());
        ring.push("v2", "v3", snap());
        // An inverse patch v3 -> v2 retires the v2 -> v3 snapshot...
        ring.retire_undone("v3");
        assert_eq!(ring.len(), 1);
        // ...but a mismatched downgrade leaves the ring alone.
        ring.retire_undone("v9");
        assert_eq!(ring.len(), 1);
    }
}
