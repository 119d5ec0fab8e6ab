//! The issue stage: wakeup, select and memory disambiguation.

use super::*;

impl Core {
    // ---------------------------------------------------------------- issue

    /// Wakeup and select. `wake` keys that have come due join the
    /// age-ordered `ready` list; select then runs oldest-first over
    /// `ready` alone, losers (no free unit, a disambiguation-blocked
    /// load, no slot left) staying for the next cycle. This picks what
    /// an oldest-first scan of the whole ROB would, on two invariants,
    /// both asserted:
    ///
    /// * every `done_at` assigned at issue is `> now`, so an entry woken
    ///   during this select cannot itself be selectable this cycle —
    ///   draining `wake` once, up front, sees every candidate;
    /// * select visits `ready` in `seq` order, so a store issued earlier
    ///   in the cycle is already `Issued` when a younger load
    ///   disambiguates against it.
    pub(super) fn issue(&mut self, port: &mut impl MemoryPort) {
        let now = self.now;
        while let Some(&Reverse((ready_at, seq))) = self.wake.peek() {
            if ready_at > now {
                break;
            }
            self.wake.pop();
            let at = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(at, seq);
        }
        if self.ready.is_empty() {
            return;
        }
        debug_assert!(self.ready.windows(2).all(|w| w[0] < w[1]));
        let mut int_free = self.cfg.int_alus;
        let mut fp_free = self.cfg.fp_alus;
        let mut mem_free = self.cfg.ls_units;
        let mut slots = self.cfg.issue_width;

        let mut ready = std::mem::take(&mut self.ready);
        ready.retain(|&seq| {
            if slots == 0 {
                return true;
            }
            let i = self.rob_index(seq);
            // FU availability.
            let fu_free = match self.rob[i].fu {
                FuClass::IntAlu => &mut int_free,
                FuClass::FpAlu => &mut fp_free,
                FuClass::Mem => &mut mem_free,
            };
            if *fu_free == 0 {
                return true;
            }
            let done_at = if self.rob[i].is_load {
                // Loads: memory disambiguation against older stores.
                match self.load_disambiguate(i) {
                    LoadPath::Blocked => return true,
                    LoadPath::Forward => {
                        self.stats.lsq_forwards += 1;
                        self.stats.served[5] += 1;
                        now + 1 + self.cfg.forward_latency
                    }
                    LoadPath::Memory => {
                        let e = &self.rob[i];
                        let info = e.mem.as_ref().unwrap().info;
                        // AGU takes one cycle; the presence bit may delay
                        // the access further (§3.2 double-buffer support).
                        let mut start = now + 1;
                        if info.ready_at > start {
                            self.stats.presence_stalls += 1;
                            start = info.ready_at;
                        }
                        let (lat, served) =
                            port.timing_access(start, self.pc_addr(e.pc), &info, false);
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
            } else {
                let e = &self.rob[i];
                if e.synch_until > 0 {
                    (now + 1).max(e.synch_until)
                } else {
                    now + e.latency
                }
            };
            debug_assert!(done_at > now, "a result is never ready in its issue cycle");
            *fu_free -= 1;
            slots -= 1;
            let e = &mut self.rob[i];
            e.state = EState::Issued;
            e.done_at = done_at;
            self.stats.issued += 1;
            // A resolved misprediction restarts the front end.
            if e.mispredicted {
                let target = e.redirect_to;
                let resume = done_at + self.cfg.redirect_penalty;
                self.pending_redirect = None;
                self.fetch_pc = target;
                self.fetch_resume_at = self.fetch_resume_at.max(resume);
                self.last_fetch_line = u64::MAX;
            }
            self.wake_dependents(i);
            false
        });
        self.ready = ready;
    }

    /// Entry `i` just issued: walks its consumer chain, folding its
    /// completion time into each consumer's `ready_at`; a consumer whose
    /// last un-issued producer this was enters `wake`.
    fn wake_dependents(&mut self, i: usize) {
        let done_at = self.rob[i].done_at;
        let mut link = std::mem::replace(&mut self.rob[i].dep_head, NO_LINK);
        while link != NO_LINK {
            let (seq, slot) = (link >> 2, (link & 3) as usize);
            let at = self.rob_index(seq);
            let c = &mut self.rob[at];
            c.ready_at = c.ready_at.max(done_at);
            c.pending -= 1;
            if c.pending == 0 {
                self.wake.push(Reverse((c.ready_at, seq)));
            }
            link = c.dep_next[slot];
        }
    }

    pub(super) fn load_disambiguate(&self, i: usize) -> LoadPath {
        let e = &self.rob[i];
        let m = e.mem.as_ref().unwrap();
        let (a, w) = (m.info.addr, m.width.bytes());
        // Older in-flight stores, youngest first.
        let older = self.store_q.partition_point(|&s| s < e.seq);
        for &s in self.store_q.range(..older).rev() {
            let s = &self.rob[self.rob_index(s)];
            let sm = s.mem.as_ref().unwrap();
            let (sa, sw) = (sm.info.addr, sm.width.bytes());
            let overlap = a < sa + sw && sa < a + w;
            if !overlap {
                continue;
            }
            if s.state == EState::Waiting {
                return LoadPath::Blocked; // store address not generated yet
            }
            if sa == a && sw == w {
                return LoadPath::Forward;
            }
            return LoadPath::Blocked; // partial overlap: wait for commit
        }
        LoadPath::Memory
    }
}

#[derive(Debug, PartialEq, Eq)]
pub(super) enum LoadPath {
    Blocked,
    Forward,
    Memory,
}
