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
//! * **No provisional entry** — [`MshrFile::lookup`] only answers (and
//!   counts); an entry is written once, whole, by [`MshrFile::fill`],
//!   with its completion cycle. An entry never filled reads as a fill
//!   that completed at cycle 0, so every entry is always either in
//!   flight or free, and a full file always has an earliest completion.
//! * **First match** — of the entries fetching a line at `now` (two can
//!   hold one line: the `now` a tile passes is not monotone, since TLB
//!   and recall penalties are added to it first), a lookup answers with
//!   the first in index order.
//! * **Bucket bound** — lines hash into 64 buckets, and `until[b]` is at
//!   or after the completion of every fill of a line of bucket `b`. A
//!   lookup at or past its bucket's bound knows, without visiting an
//!   entry, that its line is not in flight; otherwise it scans the
//!   entries in index order, as the file always did.

/// One in-flight or completed miss.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    line_addr: u64,
    /// Completion cycle of the fill; 0 for an entry never filled.
    ready_at: u64,
    /// The fill's backside walk included an inter-core coherence
    /// intervention (M-state recall), lengthening it; merges against
    /// this entry are stalled by another core's dirty data.
    intervention: bool,
}

/// `log2` of the number of buckets.
const BUCKET_BITS: u32 = 6;

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
    /// inter-core M-state intervention (`CoherenceProtocol::Mesi` only): the
    /// per-core cost of sharing a line another core is writing.
    pub intervention_stalls: u64,
}

/// A file of miss-status holding registers.
pub struct MshrFile {
    entries: Vec<Entry>,
    /// `until[b]`: no fill of a line hashing to bucket `b` completes
    /// later than this cycle.
    until: [u64; 1 << BUCKET_BITS],
    /// Statistics.
    pub stats: MshrStats,
    /// Entries the lookups have examined.
    #[cfg(test)]
    pub(crate) visits: u64,
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
    /// Entry `idx` is free for the miss: the caller fetches from below
    /// and then calls [`MshrFile::fill`]. `start_at` is delayed past `now`
    /// when the file was full.
    Free {
        /// Index of the entry to fill.
        idx: usize,
        /// Cycle at which the fetch can begin.
        start_at: u64,
    },
}

/// The bucket of `line_addr`.
#[inline]
fn bucket_of(line_addr: u64) -> usize {
    crate::fib_index(line_addr, BUCKET_BITS) as usize
}

impl MshrFile {
    /// Creates a file with `n` entries.
    pub fn new(n: usize) -> Self {
        MshrFile {
            entries: vec![Entry::default(); n],
            until: [0; 1 << BUCKET_BITS],
            stats: MshrStats::default(),
            #[cfg(test)]
            visits: 0,
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of entries still in flight at `now`.
    pub fn in_flight(&self, now: u64) -> usize {
        self.entries.iter().filter(|e| e.ready_at > now).count()
    }

    /// The first entry in index order still fetching `line_addr` at
    /// `now`; visits no entry unless a fill of a line of its bucket may
    /// still be in flight.
    #[inline]
    fn fetching(&mut self, line_addr: u64, now: u64) -> Option<Entry> {
        if now >= self.until[bucket_of(line_addr)] {
            return None;
        }
        let found = self.entries.iter().find(|e| {
            #[cfg(test)]
            {
                self.visits += 1;
            }
            e.line_addr == line_addr && e.ready_at > now
        });
        found.copied()
    }

    /// Counts a merge into `e` and returns its completion cycle.
    fn merge(&mut self, e: Entry) -> u64 {
        self.stats.merges += 1;
        if e.intervention {
            self.stats.intervention_stalls += 1;
        }
        e.ready_at
    }

    /// Checks whether `line_addr` is still being fetched at `now`. Counts
    /// a merge and returns the completion cycle when it is. Used by the
    /// hierarchy for accesses that *hit* on a line whose fill is still in
    /// flight (the timing model places lines at miss time).
    #[inline]
    pub fn pending_ready(&mut self, line_addr: u64, now: u64) -> Option<u64> {
        let e = self.fetching(line_addr, now)?;
        Some(self.merge(e))
    }

    /// Presents a miss on `line_addr` at cycle `now`: merges it into an
    /// in-flight fetch of the line, or names the entry its own fetch is
    /// to [`fill`](MshrFile::fill) — the first free one, else (a full
    /// file) the one completing earliest, from when it completes.
    /// Changes only the statistics.
    pub fn lookup(&mut self, line_addr: u64, now: u64) -> MshrOutcome {
        if let Some(e) = self.fetching(line_addr, now) {
            return MshrOutcome::Merged {
                ready_at: self.merge(e),
            };
        }
        self.stats.allocations += 1;
        let free = self.entries.iter().position(|e| e.ready_at <= now);
        #[cfg(test)]
        {
            self.visits += free.map_or(self.entries.len(), |i| i + 1) as u64;
        }
        let (idx, start_at) = match free {
            Some(idx) => (idx, now),
            None => {
                let (idx, e) = (self.entries.iter().enumerate())
                    .min_by_key(|(_, e)| e.ready_at)
                    .expect("a file has an entry");
                self.stats.full_stall_cycles += e.ready_at - now;
                (idx, e.ready_at)
            }
        };
        MshrOutcome::Free { idx, start_at }
    }

    /// Writes entry `idx` — the one a [`lookup`](MshrFile::lookup) just
    /// named — as the fetch of `line_addr` completing at `ready_at`;
    /// `intervention` flags a fill lengthened by an inter-core M-state
    /// intervention, so later merges against it count as
    /// [`MshrStats::intervention_stalls`].
    pub fn fill(&mut self, idx: usize, line_addr: u64, ready_at: u64, intervention: bool) {
        let until = &mut self.until[bucket_of(line_addr)];
        *until = (*until).max(ready_at);
        self.entries[idx] = Entry {
            line_addr,
            ready_at,
            intervention,
        };
    }

    /// Clears all entries (statistics are kept).
    pub fn reset(&mut self) {
        self.entries.fill(Entry::default());
        self.until = [0; 1 << BUCKET_BITS];
    }
}

/// The file as it was before lookups had a bucket bound and allocation
/// became two calls: a scan of every entry per lookup, and an entry
/// allocated provisionally until `set_ready`. Kept as the oracle the
/// file is stepped beside.
#[cfg(test)]
mod reference {
    use super::{MshrOutcome, MshrStats};

    #[derive(Clone, Copy)]
    struct Entry {
        line_addr: u64,
        ready_at: u64,
        valid: bool,
        intervention: bool,
    }

    pub struct RefMshr {
        entries: Vec<Entry>,
        pub stats: MshrStats,
    }

    impl RefMshr {
        pub fn new(n: usize) -> Self {
            let e = Entry {
                line_addr: 0,
                ready_at: 0,
                valid: false,
                intervention: false,
            };
            RefMshr {
                entries: vec![e; n],
                stats: MshrStats::default(),
            }
        }

        pub fn in_flight(&self, now: u64) -> usize {
            (self.entries.iter())
                .filter(|e| e.valid && e.ready_at > now)
                .count()
        }

        pub fn pending_ready(&mut self, line_addr: u64, now: u64) -> Option<u64> {
            for e in &self.entries {
                if e.valid && e.line_addr == line_addr && e.ready_at != u64::MAX && e.ready_at > now
                {
                    self.stats.merges += 1;
                    if e.intervention {
                        self.stats.intervention_stalls += 1;
                    }
                    return Some(e.ready_at);
                }
            }
            None
        }

        /// `Allocated` is reported as [`MshrOutcome::Free`].
        pub fn lookup_or_allocate(&mut self, line_addr: u64, now: u64) -> MshrOutcome {
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
                    let idx = (self.entries.iter().enumerate())
                        .min_by_key(|(_, e)| e.ready_at)
                        .map(|(i, _)| i)
                        .unwrap();
                    (idx, earliest)
                }
            };
            self.stats.allocations += 1;
            self.entries[idx] = Entry {
                line_addr,
                ready_at: u64::MAX,
                valid: true,
                intervention: false,
            };
            MshrOutcome::Free { idx, start_at }
        }

        pub fn set_ready(&mut self, idx: usize, ready_at: u64) {
            self.entries[idx].ready_at = ready_at;
        }

        pub fn note_intervention(&mut self, idx: usize) {
            self.entries[idx].intervention = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefMshr;
    use super::*;
    use proptest::prelude::*;

    /// Looks `line` up at `now` and fills a free entry with a fetch of
    /// `latency` cycles from its start.
    fn miss(m: &mut MshrFile, line: u64, now: u64, latency: u64, iv: bool) -> MshrOutcome {
        let o = m.lookup(line, now);
        if let MshrOutcome::Free { idx, start_at } = o {
            m.fill(idx, line, start_at + latency, iv);
        }
        o
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(
            miss(&mut m, 0x1000, 10, 90, false),
            MshrOutcome::Free {
                idx: 0,
                start_at: 10
            }
        );
        // A second miss to the same line merges.
        assert_eq!(m.lookup(0x1000, 20), MshrOutcome::Merged { ready_at: 100 });
        assert_eq!(m.stats.merges, 1);
        // After completion, the same line allocates again.
        assert!(matches!(m.lookup(0x1000, 150), MshrOutcome::Free { .. }));
    }

    #[test]
    fn different_lines_do_not_merge() {
        let mut m = MshrFile::new(4);
        miss(&mut m, 0x1000, 0, 100, false);
        assert!(matches!(
            m.lookup(0x2000, 0),
            MshrOutcome::Free { idx: 1, .. }
        ));
    }

    #[test]
    fn full_file_delays_start() {
        let mut m = MshrFile::new(2);
        miss(&mut m, 0x1000, 0, 50, false);
        miss(&mut m, 0x2000, 0, 60, false);
        // Third miss at cycle 10 must wait for the cycle-50 completion.
        assert_eq!(
            m.lookup(0x3000, 10),
            MshrOutcome::Free {
                idx: 0,
                start_at: 50
            }
        );
        assert_eq!(m.stats.full_stall_cycles, 40);
    }

    #[test]
    fn in_flight_counting() {
        let mut m = MshrFile::new(4);
        miss(&mut m, 0x1000, 0, 100, false);
        assert_eq!(m.in_flight(10), 1);
        assert_eq!(m.in_flight(100), 0);
    }

    #[test]
    fn merges_on_intervention_fills_count_as_intervention_stalls() {
        let mut m = MshrFile::new(4);
        miss(&mut m, 0x1000, 0, 300, true);
        assert_eq!(m.lookup(0x1000, 10), MshrOutcome::Merged { ready_at: 300 });
        assert_eq!(m.pending_ready(0x1000, 20), Some(300));
        assert_eq!(m.stats.merges, 2);
        assert_eq!(m.stats.intervention_stalls, 2);
        // Re-allocation clears the flag.
        miss(&mut m, 0x1000, 400, 100, false);
        m.pending_ready(0x1000, 450);
        assert_eq!(m.stats.intervention_stalls, 2, "clean fill must not count");
    }

    #[test]
    fn reset_clears_entries() {
        let mut m = MshrFile::new(2);
        miss(&mut m, 0x1000, 0, 1000, false);
        m.reset();
        assert_eq!(m.in_flight(1), 0);
        let before = m.visits;
        assert_eq!(m.pending_ready(0x1000, 1), None);
        assert_eq!(m.visits, before, "the bucket bound is cleared too");
        assert_eq!(m.stats.allocations, 1, "stats preserved");
    }

    #[test]
    fn a_lookup_between_lookup_and_fill_sees_no_half_written_entry() {
        // Every entry named but none filled: the file is still free, and
        // nothing overflows.
        let mut m = MshrFile::new(2);
        for now in [0, 5] {
            assert_eq!(
                m.lookup(0x1000, now),
                MshrOutcome::Free {
                    idx: 0,
                    start_at: now
                }
            );
        }
        assert_eq!(m.pending_ready(0x1000, 1), None);
        assert_eq!((m.stats.allocations, m.stats.full_stall_cycles), (2, 0));
    }

    #[test]
    fn of_two_entries_fetching_one_line_the_first_answers() {
        let mut m = MshrFile::new(4);
        // Entry 0 fetches another line until 50, entry 1 this one until 100.
        miss(&mut m, 0x2000, 0, 50, false);
        miss(&mut m, 0x1000, 0, 100, false);
        // At 120 both are free: the line refetches into entry 0, until 400.
        miss(&mut m, 0x1000, 120, 280, false);
        // A later access whose `now` lies before 100 (a penalty added to
        // an earlier cycle) sees both fetches in flight.
        assert_eq!(m.pending_ready(0x1000, 90), Some(400));
        assert_eq!(m.lookup(0x1000, 90), MshrOutcome::Merged { ready_at: 400 });
    }

    #[test]
    fn a_lookup_with_no_fill_in_flight_in_its_bucket_visits_no_entry() {
        let mut m = MshrFile::new(48);
        for i in 0..48u64 {
            miss(&mut m, 0x1000_0000 + 64 * i, i, 200, false);
        }
        let before = m.visits;
        for i in 0..48u64 {
            assert_eq!(m.pending_ready(0x1000_0000 + 64 * i, 1_000), None);
        }
        assert_eq!(m.visits, before, "completed fills are not visited");
        // In flight, the scan runs in index order to the line's entry.
        assert_eq!(m.pending_ready(0x1000_0000 + 64 * 47, 100), Some(247));
        assert_eq!(m.visits - before, 48);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Stepped beside the scanning file, over random misses and hits
        /// on eight lines (four sharing a bucket, four consecutive) at cycles
        /// that mostly rise but step back by up to 64, on files of 1 to
        /// 6 entries and on Table 1's 48: every outcome, every
        /// statistic and the in-flight count agree after every step.
        /// A step is `(op, line, back, advance, latency, intervention)`.
        #[test]
        fn the_file_answers_as_the_scan_did(
            size in 0usize..5,
            ops in prop::collection::vec(
                (0u8..3, 0u64..8, 0u64..64, 0u64..40, 1u64..300, prop::bool::ANY),
                1..200,
            ),
        ) {
            let n = [1, 2, 3, 6, 48][size];
            let (mut m, mut r) = (MshrFile::new(n), RefMshr::new(n));
            let lines: Vec<u64> = (0..)
                .map(|k| k << 20)
                .filter(|&l| bucket_of(l) == bucket_of(0))
                .take(4)
                .chain((1..5).map(|k| 64 * k))
                .collect();
            let mut clock = 64;
            for (op, line, back, advance, latency, iv) in ops {
                clock += advance;
                let now = clock - back;
                let line = lines[line as usize];
                if op == 0 {
                    prop_assert_eq!(m.pending_ready(line, now), r.pending_ready(line, now));
                } else {
                    let got = m.lookup(line, now);
                    prop_assert_eq!(got, r.lookup_or_allocate(line, now));
                    if let MshrOutcome::Free { idx, start_at } = got {
                        m.fill(idx, line, start_at + latency, iv);
                        r.set_ready(idx, start_at + latency);
                        if iv {
                            r.note_intervention(idx);
                        }
                    }
                }
                prop_assert_eq!(m.stats, r.stats);
                prop_assert_eq!(m.in_flight(now), r.in_flight(now));
            }
        }
    }
}
