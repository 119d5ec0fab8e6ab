//! Miss-status holding registers.
//!
//! The MSHR file bounds the number of outstanding misses and merges
//! secondary misses to an in-flight line: a second load to a line that is
//! already being fetched completes when the primary miss does, without
//! re-walking the lower levels of the hierarchy (and without re-counting
//! accesses there).
//!
//! ## Invariants
//!
//! * **Throttling** — an allocation against a full file starts only
//!   when the earliest in-flight entry retires (`full_stall_cycles`),
//!   so the stream of fetches the file injects into the shared
//!   backside is paced by backside completions, never ahead of them.

/// One in-flight miss.
#[derive(Clone, Copy, Debug)]
struct Entry {
    line_addr: u64,
    ready_at: u64,
    valid: bool,
    /// The fill's backside walk included an inter-core coherence
    /// intervention (M-state recall), lengthening it; merges against
    /// this entry are stalled by another core's dirty data.
    intervention: bool,
}

/// Statistics of the MSHR file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Primary misses that allocated an entry.
    pub allocations: u64,
    /// Secondary misses merged into an in-flight entry.
    pub merges: u64,
    /// Cycles lost waiting for a free entry.
    pub full_stall_cycles: u64,
    /// Of the merges, those that waited on a fill lengthened by an
    /// inter-core M-state intervention (`CoherenceMode::Mesi` only): the
    /// per-core cost of sharing a line another core is writing.
    pub intervention_stalls: u64,
}

/// A file of miss-status holding registers.
pub struct MshrFile {
    entries: Vec<Entry>,
    /// Statistics.
    pub stats: MshrStats,
}

/// The outcome of presenting a miss to the MSHR file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// The line is already in flight; the access completes at the given
    /// cycle without going below.
    Merged {
        /// Completion cycle of the in-flight fetch.
        ready_at: u64,
    },
    /// A new entry was allocated; the caller must fetch from below and
    /// then call [`MshrFile::set_ready`]. `start_at` is delayed past `now`
    /// when the file was full.
    Allocated {
        /// Index of the allocated entry.
        idx: usize,
        /// Cycle at which the fetch can begin.
        start_at: u64,
    },
}

impl MshrFile {
    /// Creates a file with `n` entries.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        MshrFile {
            entries: vec![
                Entry {
                    line_addr: 0,
                    ready_at: 0,
                    valid: false,
                    intervention: false,
                };
                n
            ],
            stats: MshrStats::default(),
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries still in flight at `now`.
    pub fn in_flight(&self, now: u64) -> usize {
        self.entries
            .iter()
            .filter(|e| e.valid && e.ready_at > now)
            .count()
    }

    /// Checks whether `line_addr` is still being fetched at `now`. Counts
    /// a merge and returns the completion cycle when it is. Used by the
    /// hierarchy for accesses that *hit* on a line whose fill is still in
    /// flight (the timing model places lines at miss time).
    pub fn pending_ready(&mut self, line_addr: u64, now: u64) -> Option<u64> {
        for e in &self.entries {
            if e.valid && e.line_addr == line_addr && e.ready_at != u64::MAX && e.ready_at > now {
                self.stats.merges += 1;
                if e.intervention {
                    self.stats.intervention_stalls += 1;
                }
                return Some(e.ready_at);
            }
        }
        None
    }

    /// Presents a miss on `line_addr` at cycle `now`.
    pub fn lookup_or_allocate(&mut self, line_addr: u64, now: u64) -> MshrOutcome {
        // Merge with an in-flight fetch of the same line.
        for e in &self.entries {
            if e.valid && e.line_addr == line_addr && e.ready_at > now {
                self.stats.merges += 1;
                if e.intervention {
                    self.stats.intervention_stalls += 1;
                }
                return MshrOutcome::Merged {
                    ready_at: e.ready_at,
                };
            }
        }
        // Find a free (invalid or completed) entry, else wait for the
        // earliest completion.
        let mut free: Option<usize> = None;
        let mut earliest = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.valid || e.ready_at <= now {
                free = Some(i);
                break;
            }
            earliest = earliest.min(e.ready_at);
        }
        let (idx, start_at) = match free {
            Some(i) => (i, now),
            None => {
                self.stats.full_stall_cycles += earliest - now;
                // The entry completing earliest is reused.
                let idx = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.ready_at)
                    .map(|(i, _)| i)
                    .unwrap();
                (idx, earliest)
            }
        };
        self.stats.allocations += 1;
        self.entries[idx] = Entry {
            line_addr,
            ready_at: u64::MAX, // provisional until set_ready
            valid: true,
            intervention: false,
        };
        MshrOutcome::Allocated { idx, start_at }
    }

    /// Records the completion cycle of an allocated fetch.
    pub fn set_ready(&mut self, idx: usize, ready_at: u64) {
        debug_assert!(self.entries[idx].valid);
        self.entries[idx].ready_at = ready_at;
    }

    /// Flags an allocated entry's fill as lengthened by an inter-core
    /// M-state intervention; later merges against it count as
    /// [`MshrStats::intervention_stalls`].
    pub fn note_intervention(&mut self, idx: usize) {
        debug_assert!(self.entries[idx].valid);
        self.entries[idx].intervention = true;
    }

    /// Clears all entries (statistics are kept).
    pub fn reset(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        let o = m.lookup_or_allocate(0x1000, 10);
        let idx = match o {
            MshrOutcome::Allocated { idx, start_at } => {
                assert_eq!(start_at, 10);
                idx
            }
            other => panic!("{other:?}"),
        };
        m.set_ready(idx, 100);
        // A second miss to the same line merges.
        assert_eq!(
            m.lookup_or_allocate(0x1000, 20),
            MshrOutcome::Merged { ready_at: 100 }
        );
        assert_eq!(m.stats.merges, 1);
        // After completion, the same line allocates again.
        match m.lookup_or_allocate(0x1000, 150) {
            MshrOutcome::Allocated { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn different_lines_do_not_merge() {
        let mut m = MshrFile::new(4);
        if let MshrOutcome::Allocated { idx, .. } = m.lookup_or_allocate(0x1000, 0) {
            m.set_ready(idx, 100);
        }
        match m.lookup_or_allocate(0x2000, 0) {
            MshrOutcome::Allocated { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_file_delays_start() {
        let mut m = MshrFile::new(2);
        for (i, line) in [0x1000u64, 0x2000].iter().enumerate() {
            if let MshrOutcome::Allocated { idx, .. } = m.lookup_or_allocate(*line, 0) {
                m.set_ready(idx, 50 + i as u64 * 10); // ready at 50, 60
            } else {
                panic!();
            }
        }
        // Third miss at cycle 10 must wait for the cycle-50 completion.
        match m.lookup_or_allocate(0x3000, 10) {
            MshrOutcome::Allocated { start_at, .. } => assert_eq!(start_at, 50),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats.full_stall_cycles, 40);
    }

    #[test]
    fn in_flight_counting() {
        let mut m = MshrFile::new(4);
        if let MshrOutcome::Allocated { idx, .. } = m.lookup_or_allocate(0x1000, 0) {
            m.set_ready(idx, 100);
        }
        assert_eq!(m.in_flight(10), 1);
        assert_eq!(m.in_flight(100), 0);
    }

    #[test]
    fn merges_on_intervention_fills_count_as_intervention_stalls() {
        let mut m = MshrFile::new(4);
        let idx = match m.lookup_or_allocate(0x1000, 0) {
            MshrOutcome::Allocated { idx, .. } => idx,
            other => panic!("{other:?}"),
        };
        m.set_ready(idx, 300);
        m.note_intervention(idx);
        assert_eq!(
            m.lookup_or_allocate(0x1000, 10),
            MshrOutcome::Merged { ready_at: 300 }
        );
        assert_eq!(m.pending_ready(0x1000, 20), Some(300));
        assert_eq!(m.stats.merges, 2);
        assert_eq!(m.stats.intervention_stalls, 2);
        // Re-allocation clears the flag.
        match m.lookup_or_allocate(0x1000, 400) {
            MshrOutcome::Allocated { idx, .. } => m.set_ready(idx, 500),
            other => panic!("{other:?}"),
        }
        m.pending_ready(0x1000, 450);
        assert_eq!(m.stats.intervention_stalls, 2, "clean fill must not count");
    }

    #[test]
    fn reset_clears_entries() {
        let mut m = MshrFile::new(2);
        if let MshrOutcome::Allocated { idx, .. } = m.lookup_or_allocate(0x1000, 0) {
            m.set_ready(idx, 1000);
        }
        m.reset();
        assert_eq!(m.in_flight(1), 0);
        assert_eq!(m.stats.allocations, 1, "stats preserved");
    }
}
