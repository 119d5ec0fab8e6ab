//! One L3 bank's slice of the inter-core directory — and the only file
//! that knows how the directory is stored.
//!
//! A slice keeps one [`DirLine`] per resident *shared* line of its bank,
//! keyed by the bank-local line address (entry existence tracks L3
//! residency, so capacity never exceeds the bank's line count); it stays
//! empty on a machine that registers no shared range.
//! Each operation is one lookup that steps the record in place through
//! the backside's [`ProtocolTable`] and hands back the [`Obligations`]
//! the transition owes, for the backside's `discharge` to pay.

use hsim_coherence::protocol::{DirLine, Obligations, ProtocolTable, Stuck};
use std::collections::HashMap;

/// The product path's one answer to a [`Stuck`] table: a protocol bug
/// (the explorer proves the shipped tables total where reachable).
fn stepped<T>(step: Result<T, Stuck>) -> T {
    step.unwrap_or_else(|stuck| panic!("{stuck}"))
}

/// The per-bank directory slice (see the module docs).
#[derive(Default)]
pub(crate) struct DirectorySlice {
    /// Bank-local line address → record.
    entries: HashMap<u64, DirLine>,
    /// Lookups performed so far (the memory side's work guard).
    #[cfg(test)]
    pub(crate) lookups: u64,
}

impl DirectorySlice {
    /// The storage, reached only through here and once per lookup, so
    /// the work guard counts a copy-and-reinsert as the two it is.
    #[inline]
    fn store(&mut self) -> &mut HashMap<u64, DirLine> {
        #[cfg(test)]
        {
            self.lookups += 1;
        }
        &mut self.entries
    }

    /// `core`'s miss (`write` = RFO) just made `local` L3-resident: the
    /// requester is its sole upper holder, in whatever state the table's
    /// Invalid row fills to.
    pub(crate) fn fill(&mut self, local: u64, table: &ProtocolTable, core: usize, write: bool) {
        self.store()
            .insert(local, stepped(DirLine::fill(table, core, write)));
    }

    /// Steps one access by `core` to a resident line: the table decides
    /// the successor state and the protocol work owed. `None` when the
    /// slice does not track `local`.
    pub(crate) fn access(
        &mut self,
        local: u64,
        table: &ProtocolTable,
        core: usize,
        write: bool,
    ) -> Option<Obligations> {
        let line = self.store().get_mut(&local)?;
        Some(stepped(line.access(table, core, write)))
    }

    /// `core`'s L2 wrote `local` back, so it also evicted its upper
    /// copy: its sharer bit clears and a departing owner demotes the
    /// line (a write-back that allocated it leaves no upper copies).
    pub(crate) fn writeback_from(&mut self, local: u64, core: usize) {
        self.store()
            .entry(local)
            .or_insert(DirLine::empty())
            .writeback_from(core);
    }

    /// `core`'s `dma-get` snoop hit `local`. A DMA engine is not a
    /// caching reader: only the table's dirty-recall transition applies
    /// and the sharer set is left alone. `None` when nothing is owed.
    pub(crate) fn snoop_recall(
        &mut self,
        local: u64,
        table: &ProtocolTable,
        core: usize,
    ) -> Option<Obligations> {
        let ob = stepped(self.store().get_mut(&local)?.snoop_recall(table, core))?;
        debug_assert!(
            ob.intervention && ob.invalidate == 0 && !ob.shared_hit,
            "a snoop recall is an intervention and nothing else: {ob:?}"
        );
        Some(ob)
    }

    /// `local` left the L3 (capacity eviction or `dma-put`): drops its
    /// record (an empty line when it was not tracked) through the table's
    /// Evict row, which names every upper copy to recall and whether a
    /// dirty owner's data is owed.
    pub(crate) fn retire(&mut self, local: u64, table: &ProtocolTable) -> Obligations {
        let mut line = self.store().remove(&local).unwrap_or(DirLine::empty());
        stepped(line.evict(table))
    }

    /// How many cores hold `local` above the L3 (`None` when the slice
    /// does not track it).
    #[cfg(test)]
    pub(crate) fn sharer_count(&self, local: u64) -> Option<u32> {
        self.entries.get(&local).map(|e| e.sharers.count_ones())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_coherence::protocol::CoherenceProtocol;

    #[test]
    fn every_operation_is_one_lookup() {
        let t = ProtocolTable::new(CoherenceProtocol::Mesi);
        let mut s = DirectorySlice::default();
        s.fill(0x40, &t, 0, false);
        assert!(s.access(0x40, &t, 1, false).is_some());
        assert!(s.access(0x80, &t, 1, false).is_none(), "untracked line");
        assert!(s.snoop_recall(0x40, &t, 2).is_none(), "clean: nothing owed");
        s.writeback_from(0x40, 1);
        s.retire(0x40, &t);
        assert_eq!(s.lookups, 6);
    }

    #[test]
    fn records_follow_fill_share_writeback_retire() {
        let t = ProtocolTable::new(CoherenceProtocol::Mesi);
        let mut s = DirectorySlice::default();
        s.fill(0x40, &t, 0, true);
        // A remote read of the Modified line owes the owner's data.
        let ob = s.access(0x40, &t, 1, false).expect("tracked");
        assert!(ob.intervention && ob.writeback && ob.old_owner == 0);
        assert_eq!(s.sharer_count(0x40), Some(2));
        s.writeback_from(0x40, 1);
        assert_eq!(s.sharer_count(0x40), Some(1));
        // A write-back that allocated the line tracks it with no holders.
        s.writeback_from(0x80, 1);
        assert_eq!(s.sharer_count(0x80), Some(0));
        assert_eq!(s.retire(0x40, &t).invalidate, 1);
        assert_eq!(s.sharer_count(0x40), None);
        assert_eq!(s.retire(0x40, &t), Obligations::default(), "retiring twice");
    }
}
