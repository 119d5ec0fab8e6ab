//! The issue stage: wakeup, select and memory disambiguation, and the
//! slot sets, wake wheel and store filter they run on.
//!
//! An in-flight entry's *slot* is its seq modulo the ROB size rounded up
//! to a power of two. The seqs in flight are consecutive and no more
//! than there are slots, so no two in-flight entries share one, and
//! walking the slots in ring order from the ROB head's visits entries
//! oldest first.

use super::decode::{LOAD, MISPREDICTED, SYNCH};
use super::*;

/// A set of ROB slots, one bit each.
pub(super) struct SlotSet {
    pub(super) words: Box<[u64]>,
}

impl SlotSet {
    pub(super) fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)].into(),
        }
    }

    #[inline]
    pub(super) fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// The slots whose bits are set in `words`, lowest first.
pub(super) fn slots_of(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// Cycles the wake wheel spans: a key due sooner than this waits in the
/// wheel, a later one in [`Core::far`].
pub(super) const WHEEL_SPAN: u64 = 64;

/// The operand-complete entries due within [`WHEEL_SPAN`] cycles: one
/// [`SlotSet`]-shaped bucket per cycle, bucket `t % 64` holding the
/// slots of the entries whose operands arrive at cycle `t`. Between
/// ticks every key lies in `now..now + 64`, so a bucket never mixes two
/// cycles.
pub(super) struct WakeWheel {
    /// `WHEEL_SPAN` buckets of `words` words each.
    buckets: Box<[u64]>,
    words: usize,
    /// Bit `b` is set iff bucket `b` is non-empty.
    pub(super) occupied: u64,
}

impl WakeWheel {
    pub(super) fn new(slots: usize) -> Self {
        let words = slots.div_ceil(64);
        WakeWheel {
            buckets: vec![0; WHEEL_SPAN as usize * words].into(),
            words,
            occupied: 0,
        }
    }

    /// The bucket of cycle `at`.
    #[inline]
    pub(super) fn bucket(&self, at: u64) -> &[u64] {
        let b = (at % WHEEL_SPAN) as usize;
        &self.buckets[b * self.words..(b + 1) * self.words]
    }

    #[inline]
    fn insert(&mut self, at: u64, slot: usize) {
        let b = (at % WHEEL_SPAN) as usize;
        self.buckets[b * self.words + slot / 64] |= 1 << (slot % 64);
        self.occupied |= 1 << b;
    }

    /// Moves the keys due at cycle `at` into `ready`.
    #[inline]
    pub(super) fn drain_into(&mut self, at: u64, ready: &mut SlotSet) {
        let b = (at % WHEEL_SPAN) as usize;
        if self.occupied & (1 << b) == 0 {
            return;
        }
        self.occupied &= !(1 << b);
        let bucket = &mut self.buckets[b * self.words..(b + 1) * self.words];
        for (r, w) in ready.words.iter_mut().zip(bucket) {
            *r |= std::mem::take(w);
        }
    }

    /// The earliest cycle after `now` with a key in its bucket.
    #[inline]
    pub(super) fn next_after(&self, now: u64) -> Option<u64> {
        let ahead = self.occupied.rotate_right((now % WHEEL_SPAN) as u32) & !1;
        (ahead != 0).then(|| now + ahead.trailing_zeros() as u64)
    }
}

/// In-flight-store counts per hashed 8-byte granule: a load none of whose
/// granules is counted overlaps no in-flight store. A false positive
/// costs a walk of the store queue, nothing else.
pub(super) struct StoreFilter {
    pub(super) counts: Box<[u32]>,
    shift: u32,
}

impl StoreFilter {
    /// A filter for at most `stores` stores in flight: sixteen counters
    /// per store, so even a full queue occupies at most an eighth.
    pub(super) fn new(stores: usize) -> Self {
        let len = (16 * stores).next_power_of_two().max(64);
        StoreFilter {
            counts: vec![0; len].into(),
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// The counters of the one or two granules `bytes` (at most 8) bytes
    /// at `addr` touch, wrapping with the address space.
    #[inline]
    fn counters(&self, addr: u64, bytes: u64) -> (usize, usize) {
        let at = |a: u64| ((a >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        (at(addr), at(addr.wrapping_add(bytes - 1)))
    }

    #[inline]
    pub(super) fn add(&mut self, addr: u64, bytes: u64) {
        let (first, last) = self.counters(addr, bytes);
        self.counts[first] += 1;
        if last != first {
            self.counts[last] += 1;
        }
    }

    #[inline]
    pub(super) fn remove(&mut self, addr: u64, bytes: u64) {
        let (first, last) = self.counters(addr, bytes);
        self.counts[first] -= 1;
        if last != first {
            self.counts[last] -= 1;
        }
    }

    #[inline]
    fn may_overlap(&self, addr: u64, bytes: u64) -> bool {
        let (first, last) = self.counters(addr, bytes);
        self.counts[first] != 0 || self.counts[last] != 0
    }
}

/// Whether `w` bytes at `a` and `sw` bytes at `sa` share a byte, on the
/// wrapping address space.
#[inline]
fn overlaps(a: u64, w: u64, sa: u64, sw: u64) -> bool {
    a.wrapping_sub(sa) < sw || sa.wrapping_sub(a) < w
}

impl Core {
    /// The slot of in-flight entry `seq`.
    #[inline(always)]
    pub(super) fn slot(&self, seq: u64) -> usize {
        (seq & self.slot_mask) as usize
    }

    /// Wakeup and select. The keys that come due this cycle — the wheel
    /// bucket of `now` and the top of `far` — join `ready`; select then
    /// runs oldest-first over `ready` alone, losers (no free unit, a
    /// disambiguation-blocked load, no width left) staying for the next
    /// cycle. This picks what an oldest-first scan of the whole ROB
    /// would — under test `scan_select` checks exactly that, every cycle —
    /// on three invariants:
    ///
    /// * every `done_at` assigned at issue is `> now`, so an entry woken
    ///   during this select cannot itself be selectable this cycle —
    ///   draining the due keys once, up front, sees every candidate;
    /// * select visits `ready` in age order, so a store issued earlier
    ///   in the cycle is already `Issued` when a younger load
    ///   disambiguates against it;
    /// * a wheel key is never skipped: [`Core::next_event_at`] reports
    ///   the nearest non-empty bucket, and the one bucket a skip may
    ///   leave behind — blocked loads due at the cycle it departs from —
    ///   [`Core::advance_to`] drains on the way out.
    pub(super) fn issue(&mut self, port: &mut impl MemoryPort) {
        let now = self.now;
        self.wheel.drain_into(now, &mut self.ready);
        while let Some(&Reverse((ready_at, seq))) = self.far.peek() {
            if ready_at > now {
                break;
            }
            self.far.pop();
            let slot = self.slot(seq);
            self.ready.insert(slot);
        }
        #[cfg(test)]
        let predicted = self.scan_select();
        #[cfg(test)]
        self.selected.clear();
        self.select(port);
        #[cfg(test)]
        assert_eq!(
            self.selected, predicted,
            "cycle {now}: select issued these seqs, an oldest-first scan of the ROB picks the others"
        );
    }

    /// Walks the set bits of `ready` in ring order from the head slot —
    /// age order — issuing what it can. A class whose units run out
    /// drops out of the walk; the walk ends with the issue width or the
    /// last unit.
    fn select(&mut self, port: &mut impl MemoryPort) {
        let mut free = [self.cfg.int_alus, self.cfg.fp_alus, self.cfg.ls_units];
        let mut width = self.cfg.issue_width;
        if width == 0 || self.ready.is_empty() {
            return;
        }
        let words = self.ready.words.len();
        let head = self.slot(self.head_seq);
        let (head_word, head_bit) = (head / 64, head % 64);
        // The head's word comes first with the bits from the head slot
        // up, and once more at the end with the bits below it.
        for (k, w) in (head_word..words).chain(0..=head_word).enumerate() {
            let mut bits = self.ready.words[w];
            if k == 0 {
                bits &= !0 << head_bit;
            } else if k == words {
                bits &= !(!0 << head_bit);
            }
            if bits == 0 {
                continue;
            }
            for (class, &units) in self.waiting.iter().zip(&free) {
                if units == 0 {
                    bits &= !class.words[w];
                }
            }
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = self.visit(w * 64 + bit);
                let Some(fu) = self.try_issue(slot, port) else {
                    continue; // a blocked load stays set
                };
                self.ready.words[w] &= !(1 << bit);
                self.waiting[fu].words[w] &= !(1 << bit);
                width -= 1;
                free[fu] -= 1;
                if width == 0 {
                    return;
                }
                if free[fu] == 0 {
                    if free == [0; 3] {
                        return;
                    }
                    bits &= !self.waiting[fu].words[w];
                }
            }
        }
    }

    /// Issues the entry in `slot`, whose operands are ready and whose
    /// unit class has a unit free, unless it is a load that
    /// disambiguation holds back. Returns the unit class it occupies.
    #[inline]
    fn try_issue(&mut self, slot: usize, port: &mut impl MemoryPort) -> Option<usize> {
        let now = self.now;
        let e = &self.rob[slot];
        let done_at = if e.flags & LOAD != 0 {
            // Loads: memory disambiguation against older stores.
            match self.load_disambiguate(slot) {
                LoadPath::Blocked => return None,
                LoadPath::Forward => {
                    self.stats.lsq_forwards += 1;
                    self.stats.served[level_index(hsim_mem::Level::Forward)] += 1;
                    now + 1 + self.cfg.forward_latency
                }
                LoadPath::Memory => {
                    let pc_addr = self.pc_addr(e.pc as usize);
                    let info = self.cold[slot].mem().info;
                    // AGU takes one cycle; the presence bit may delay
                    // the access further (§3.2 double-buffer support).
                    let mut start = now + 1;
                    if info.ready_at > start {
                        self.stats.presence_stalls += 1;
                        start = info.ready_at;
                    }
                    let (lat, served) = port.timing_access(start, pc_addr, &info, false);
                    self.stats.load_latency_sum += start + lat - (now + 1);
                    self.stats.loads_timed += 1;
                    self.stats.served[level_index(served)] += 1;
                    if matches!(
                        served,
                        hsim_mem::Level::L2 | hsim_mem::Level::L3 | hsim_mem::Level::Dram
                    ) {
                        self.stats.replay_issues += self.cfg.replay_per_miss;
                    }
                    start + lat
                }
            }
        } else if e.flags & SYNCH != 0 {
            (now + 1).max(self.cold[slot].synch_until)
        } else {
            now + e.latency as u64
        };
        debug_assert!(done_at > now, "a result is never ready in its issue cycle");
        let e = &mut self.rob[slot];
        e.state = EState::Issued;
        e.done_at = done_at;
        let (fu, flags) = (e.fu as usize, e.flags);
        #[cfg(test)]
        self.selected.push(e.seq);
        self.stats.issued += 1;
        // A resolved misprediction restarts the front end.
        if flags & MISPREDICTED != 0 {
            let resume = done_at + self.cfg.redirect_penalty;
            self.pending_redirect = None;
            self.fetch_pc = self.cold[slot].redirect_to;
            self.fetch_resume_at = self.fetch_resume_at.max(resume);
            self.last_fetch_line = u64::MAX;
        }
        self.wake_dependents(slot, done_at);
        Some(fu)
    }

    /// The entry in `slot` just issued, its result due at `done_at`:
    /// walks its consumer chain, folding that into each consumer's
    /// `ready_at`; a consumer whose last un-issued producer this was is
    /// parked until then.
    #[inline]
    fn wake_dependents(&mut self, slot: usize, done_at: u64) {
        let mut link = std::mem::replace(&mut self.rob[slot].dep_head, NO_LINK);
        while link != NO_LINK {
            let at = self.visit((link >> 2) as usize);
            let c = &mut self.rob[at];
            c.ready_at = c.ready_at.max(done_at);
            c.pending -= 1;
            link = c.dep_next[(link & 3) as usize];
            if c.pending == 0 {
                let (seq, ready_at) = (c.seq, c.ready_at);
                self.park(seq, ready_at);
            }
        }
    }

    /// Operand-complete entry `seq` waits for cycle `ready_at`, which a
    /// later select will see come due: in the wheel when that is within
    /// its span, else in `far`.
    #[inline]
    pub(super) fn park(&mut self, seq: u64, ready_at: u64) {
        debug_assert!(ready_at > self.now);
        if ready_at - self.now < WHEEL_SPAN {
            let slot = self.slot(seq);
            self.wheel.insert(ready_at, slot);
        } else {
            self.far.push(Reverse((ready_at, seq)));
        }
    }

    /// How load `i` gets its data, given the older in-flight stores.
    ///
    /// The youngest older store that overlaps the load decides, and the
    /// load remembers it (`blocker`): dispatch and commit are both in
    /// order, so the stores older than a load only ever leave, oldest
    /// first — for as long as that store is in flight it stays the
    /// youngest older overlapping one, and once it has committed no
    /// older store is left at all. Every ask but the first is one ROB
    /// lookup.
    #[inline]
    pub(super) fn load_disambiguate(&self, slot: usize) -> LoadPath {
        let blocker = &self.cold[slot].blocker;
        if blocker.get() == Blocker::Unasked {
            blocker.set(self.find_blocker(slot));
        }
        match blocker.get() {
            // A store whose address is not generated yet blocks, and so
            // does a partial overlap, until the store commits.
            Blocker::Store { seq, partial } if seq >= self.head_seq => {
                if partial || self.rob[self.rob_index(seq)].state == EState::Waiting {
                    LoadPath::Blocked
                } else {
                    LoadPath::Forward
                }
            }
            _ => LoadPath::Memory,
        }
    }

    /// The first ask for the load in `slot`: the store filter clears a
    /// load no in-flight store can overlap; only past it are the older
    /// stores walked, youngest first.
    fn find_blocker(&self, slot: usize) -> Blocker {
        let m = self.cold[slot].mem();
        let (a, w) = (m.info.addr, m.width.bytes());
        if !self.store_filter.may_overlap(a, w) {
            return Blocker::Clear;
        }
        let load_seq = self.rob[slot].seq;
        let older = self.store_q.partition_point(|&s| s < load_seq);
        for &seq in self.store_q.range(..older).rev() {
            #[cfg(test)]
            self.store_q_visits.set(self.store_q_visits.get() + 1);
            let sm = self.cold[self.rob_index(seq)].mem();
            let (sa, sw) = (sm.info.addr, sm.width.bytes());
            if overlaps(a, w, sa, sw) {
                let partial = sa != a || sw != w;
                return Blocker::Store { seq, partial };
            }
        }
        Blocker::Clear
    }
}

#[derive(Debug, PartialEq, Eq)]
pub(super) enum LoadPath {
    Blocked,
    Forward,
    Memory,
}
