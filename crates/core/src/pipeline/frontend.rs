//! The in-order front half: fetch, and dispatch with its functional
//! execution.

use super::decode::{CONTROL, HALT, LOAD, MISPREDICTED, STORE, WRITES_FP, WRITES_INT};
use super::*;

impl Core {
    // ------------------------------------------------------------- dispatch

    /// Whether the fetch-queue head provably cannot dispatch this cycle:
    /// it fails [`Core::dispatch_gated`], the gate [`Core::dispatch`]
    /// itself applies. An off-program pc counts as *not* blocked — the
    /// impending `RanOffProgram` error must surface on a real tick, never
    /// be skipped over.
    pub(super) fn dispatch_blocked(&self) -> bool {
        let Some(&(pc, _)) = self.fetch_queue.front() else {
            return true;
        };
        self.decoded
            .get(pc)
            .is_some_and(|d| self.dispatch_gated(d.flags))
    }

    /// The rename/LSQ gates: whether an instruction with decode bits
    /// `flags` must wait for a commit to free a physical register or a
    /// load/store-queue entry.
    fn dispatch_gated(&self, flags: u16) -> bool {
        (flags & WRITES_INT != 0 && self.int_inflight >= self.cfg.int_rename_budget())
            || (flags & WRITES_FP != 0 && self.fp_inflight >= self.cfg.fp_rename_budget())
            || (flags & LOAD != 0 && self.loads_inflight >= self.cfg.lsq_loads)
            || (flags & STORE != 0 && self.stores_inflight >= self.cfg.lsq_stores)
    }

    /// Renames, functionally executes and enters up to the fetch width
    /// of instructions into the ROB, each written in place into its slot.
    pub(super) fn dispatch(&mut self, port: &mut impl MemoryPort) -> Result<(), SimError> {
        let mut budget = self.cfg.fetch_width;
        while budget > 0 {
            if self.rob_len() >= self.cfg.rob_size {
                self.stats.rob_full_stalls += 1;
                break;
            }
            let Some(&(pc, predicted_next)) = self.fetch_queue.front() else {
                break;
            };
            let Some(&d) = self.decoded.get(pc) else {
                return Err(SimError::RanOffProgram);
            };
            if self.dispatch_gated(d.flags) {
                break;
            }
            self.fetch_queue.pop_front();
            budget -= 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.stats.dispatched += 1;
            let slot = self.slot(seq);

            // Functional execution + dependence collection.
            let mut srcs = [None; 3];
            let actual_next = self.exec_functional(port, &d.inst, pc, seq, slot, &mut srcs)?;

            // Wakeup links. A committed producer's value is architectural
            // and an issued one's completion time is known; only a
            // producer still waiting to issue has to wake this entry.
            let (mut ready_at, mut pending, mut dep_next) = (0, 0, [NO_LINK; 3]);
            for (src_slot, src) in srcs.into_iter().enumerate() {
                let Some(src) = src.filter(|&s| s >= self.head_seq) else {
                    continue;
                };
                let at = self.rob_index(src);
                let producer = &mut self.rob[at];
                if producer.state == EState::Issued {
                    ready_at = ready_at.max(producer.done_at);
                } else {
                    dep_next[src_slot] = producer.dep_head;
                    producer.dep_head = (slot as u32) << 2 | src_slot as u32;
                    pending += 1;
                }
            }
            #[cfg(test)]
            {
                self.cold[slot].srcs = srcs;
            }
            let mispredicted = actual_next != predicted_next;
            self.rob[slot] = RobEntry {
                seq,
                ready_at,
                done_at: 0,
                pc: pc as u32,
                latency: d.latency,
                dep_head: NO_LINK,
                dep_next,
                flags: d.flags | if mispredicted { MISPREDICTED } else { 0 },
                state: EState::Waiting,
                pending,
                fu: d.fu,
            };

            if d.flags & WRITES_INT != 0 {
                self.int_inflight += 1;
            }
            if d.flags & WRITES_FP != 0 {
                self.fp_inflight += 1;
            }
            if d.flags & LOAD != 0 {
                self.loads_inflight += 1;
                self.cold[slot].blocker.set(Blocker::Unasked);
            }
            if d.flags & STORE != 0 {
                self.stores_inflight += 1;
                self.store_q.push_back(seq);
                let m = self.cold[slot].mem();
                self.store_filter.add(m.info.addr, m.width.bytes());
            }
            self.waiting[d.fu as usize].insert(slot);
            if pending == 0 {
                // Due by the next select, whenever that runs.
                if ready_at <= self.now + 1 {
                    self.ready.insert(slot);
                } else {
                    self.park(seq, ready_at);
                }
            }

            // Control-flow resolution: compare against the front end's
            // prediction.
            if mispredicted {
                self.stats.mispredicts += 1;
                self.cold[slot].redirect_to = actual_next;
                self.pending_redirect = Some(seq);
                self.fetch_queue.clear();
                self.bp.repair();
                self.ras.restore_from(&self.arch_call_stack);
                break;
            }
            if d.flags & HALT != 0 {
                self.fetch_off = true;
                self.fetch_queue.clear();
                break;
            }
        }
        Ok(())
    }

    /// Functionally executes `inst`, entry `seq` in `slot`: fills the
    /// producer sequence numbers of its source registers in `srcs` and
    /// the slot's cold fields, and returns the actual next PC.
    fn exec_functional(
        &mut self,
        port: &mut impl MemoryPort,
        inst: &Inst,
        pc: usize,
        seq: u64,
        slot: usize,
        srcs: &mut [Option<u64>; 3],
    ) -> Result<usize, SimError> {
        use Inst::*;
        let mut next = pc + 1;
        match *inst {
            Alu { op, rd, rs1, src2 } => {
                let a = self.int_regs[rs1.index()];
                let (b, src2_dep) = match src2 {
                    Operand::Reg(r) => (self.int_regs[r.index()], self.last_writer_int[r.index()]),
                    Operand::Imm(i) => (i, None),
                };
                srcs[0] = self.last_writer_int[rs1.index()];
                srcs[1] = src2_dep;
                self.write_int(rd, op.eval(a, b), seq);
            }
            Li { rd, imm } => {
                self.write_int(rd, imm, seq);
            }
            Fpu { op, fd, fs1, fs2 } => {
                let a = self.fp_regs[fs1.index()];
                let b = self.fp_regs[fs2.index()];
                srcs[0] = self.last_writer_fp[fs1.index()];
                srcs[1] = self.last_writer_fp[fs2.index()];
                self.write_fp(fd, op.eval(a, b), seq);
            }
            MovIF { fd, rs } => {
                srcs[0] = self.last_writer_int[rs.index()];
                let v = f64::from_bits(self.int_regs[rs.index()] as u64);
                self.write_fp(fd, v, seq);
            }
            MovFI { rd, fs } => {
                srcs[0] = self.last_writer_fp[fs.index()];
                self.write_int(rd, self.fp_regs[fs.index()].to_bits() as i64, seq);
            }
            CvtIF { fd, rs } => {
                srcs[0] = self.last_writer_int[rs.index()];
                self.write_fp(fd, self.int_regs[rs.index()] as f64, seq);
            }
            CvtFI { rd, fs } => {
                srcs[0] = self.last_writer_fp[fs.index()];
                self.write_int(rd, self.fp_regs[fs.index()] as i64, seq);
            }
            Load {
                rd,
                base,
                index,
                offset,
                width,
                route,
            } => {
                srcs[0] = self.last_writer_int[base.index()];
                srcs[1] = index.and_then(|x| self.last_writer_int[x.index()]);
                let addr = self.effective_addr(base, index, offset);
                let (bits, info) = port.exec_mem(self.pc_addr(pc), addr, width, route, None);
                self.cold[slot].mem = Some(MemOp { info, width, route });
                self.write_int(rd, bits as i64, seq);
            }
            Store {
                rs,
                base,
                index,
                offset,
                width,
                route,
            } => {
                srcs[0] = self.last_writer_int[rs.index()];
                srcs[1] = self.last_writer_int[base.index()];
                srcs[2] = index.and_then(|x| self.last_writer_int[x.index()]);
                let addr = self.effective_addr(base, index, offset);
                let bits = self.int_regs[rs.index()] as u64;
                let (_, info) = port.exec_mem(self.pc_addr(pc), addr, width, route, Some(bits));
                self.cold[slot].mem = Some(MemOp { info, width, route });
            }
            FLoad {
                fd,
                base,
                index,
                offset,
                route,
            } => {
                srcs[0] = self.last_writer_int[base.index()];
                srcs[1] = index.and_then(|x| self.last_writer_int[x.index()]);
                let addr = self.effective_addr(base, index, offset);
                let (bits, info) = port.exec_mem(self.pc_addr(pc), addr, Width::D, route, None);
                self.cold[slot].mem = Some(MemOp {
                    info,
                    width: Width::D,
                    route,
                });
                self.write_fp(fd, f64::from_bits(bits), seq);
            }
            FStore {
                fs,
                base,
                index,
                offset,
                route,
            } => {
                srcs[0] = self.last_writer_fp[fs.index()];
                srcs[1] = self.last_writer_int[base.index()];
                srcs[2] = index.and_then(|x| self.last_writer_int[x.index()]);
                let addr = self.effective_addr(base, index, offset);
                let bits = self.fp_regs[fs.index()].to_bits();
                let (_, info) = port.exec_mem(self.pc_addr(pc), addr, Width::D, route, Some(bits));
                self.cold[slot].mem = Some(MemOp {
                    info,
                    width: Width::D,
                    route,
                });
            }
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                srcs[0] = self.last_writer_int[rs1.index()];
                srcs[1] = self.last_writer_int[rs2.index()];
                let taken = cond.eval(self.int_regs[rs1.index()], self.int_regs[rs2.index()]);
                self.bp.update(self.pc_addr(pc), taken);
                next = if taken { target } else { pc + 1 };
            }
            Jump { target } => {
                next = target;
            }
            Call { target } => {
                self.arch_call_stack.push((pc + 1) as u64);
                next = target;
            }
            Ret => {
                let Some(ra) = self.arch_call_stack.pop() else {
                    return Err(SimError::RetWithoutCall { pc });
                };
                next = ra as usize;
            }
            DmaGet { lm, sm, bytes, tag } => {
                srcs[0] = self.last_writer_int[lm.index()];
                srcs[1] = self.last_writer_int[sm.index()];
                srcs[2] = self.last_writer_int[bytes.index()];
                let _ = port.exec_dma(
                    self.now,
                    DmaKind::Get,
                    self.int_regs[lm.index()] as u64,
                    self.int_regs[sm.index()] as u64,
                    self.int_regs[bytes.index()] as u64,
                    tag,
                );
            }
            DmaPut { lm, sm, bytes, tag } => {
                srcs[0] = self.last_writer_int[lm.index()];
                srcs[1] = self.last_writer_int[sm.index()];
                srcs[2] = self.last_writer_int[bytes.index()];
                let _ = port.exec_dma(
                    self.now,
                    DmaKind::Put,
                    self.int_regs[lm.index()] as u64,
                    self.int_regs[sm.index()] as u64,
                    self.int_regs[bytes.index()] as u64,
                    tag,
                );
            }
            DmaSynch { tag } => {
                self.cold[slot].synch_until = port.dma_synch(self.now, tag).max(1);
            }
            DirCfg { rs } => {
                srcs[0] = self.last_writer_int[rs.index()];
                port.dir_configure(self.int_regs[rs.index()] as u64);
            }
            PhaseMark { .. } | Halt | Nop => {}
        }
        Ok(next)
    }

    #[inline]
    fn effective_addr(&self, base: Reg, index: Option<Reg>, offset: i64) -> u64 {
        let mut a = self.int_regs[base.index()] as u64;
        if let Some(x) = index {
            a = a.wrapping_add(self.int_regs[x.index()] as u64);
        }
        a.wrapping_add(offset as u64)
    }

    fn write_int(&mut self, rd: Reg, v: i64, seq: u64) {
        self.int_regs[rd.index()] = v;
        self.last_writer_int[rd.index()] = Some(seq);
    }

    fn write_fp(&mut self, fd: FReg, v: f64, seq: u64) {
        self.fp_regs[fd.index()] = v;
        self.last_writer_fp[fd.index()] = Some(seq);
    }

    // ---------------------------------------------------------------- fetch

    pub(super) fn fetch(&mut self, port: &mut impl MemoryPort) {
        if self.fetch_off || self.pending_redirect.is_some() {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        if self.now < self.fetch_resume_at {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        let mut slots = self.cfg.fetch_width;
        while slots > 0 && self.fetch_queue.len() < self.cfg.fetch_queue {
            let pc = self.fetch_pc;
            if pc >= self.decoded.len() {
                // Queued once and unpredicted: dispatch raises
                // RanOffProgram if the program really gets here, and a
                // wrong path is flushed before it does.
                if !self.fetch_parked() {
                    self.fetch_queue.push_back((pc, pc));
                }
                break;
            }
            // I-cache: charge a bubble when crossing into a line that
            // misses.
            let addr = self.pc_addr(pc);
            let line = addr / 64;
            if line != self.last_fetch_line {
                let lat = port.fetch_latency(self.now, addr);
                self.last_fetch_line = line;
                if lat > 2 {
                    self.fetch_resume_at = self.now + lat;
                    return;
                }
            }
            let predicted_next = self.predict_next(pc);
            self.fetch_queue.push_back((pc, predicted_next));
            self.stats.fetched += 1;
            slots -= 1;
            self.fetch_pc = predicted_next;
            if predicted_next != pc + 1 {
                break; // taken-control fetch break
            }
            if self.decoded[pc].flags & HALT != 0 {
                break;
            }
        }
    }

    /// Whether fetch stands at an off-program pc it has queued already,
    /// so it has nothing left to fetch until a redirect moves it.
    pub(super) fn fetch_parked(&self) -> bool {
        self.fetch_pc >= self.decoded.len()
            && self
                .fetch_queue
                .back()
                .is_some_and(|&(pc, _)| pc == self.fetch_pc)
    }

    /// Front-end next-PC logic: real predictor state, no peeking at
    /// functional outcomes.
    #[inline]
    fn predict_next(&mut self, pc: usize) -> usize {
        if self.decoded[pc].flags & CONTROL == 0 {
            return pc + 1;
        }
        match self.decoded[pc].inst {
            Inst::Branch { target, .. } => {
                let taken = self.bp.predict(self.pc_addr(pc));
                if taken {
                    if !self.btb.lookup_allocate(self.pc_addr(pc)) {
                        self.stats.btb_bubbles += 1;
                        self.fetch_resume_at = self.now + self.cfg.btb_miss_penalty;
                    }
                    target
                } else {
                    pc + 1
                }
            }
            Inst::Jump { target } => target,
            Inst::Call { target } => {
                self.ras.push((pc + 1) as u64);
                target
            }
            Inst::Ret => match self.ras.pop() {
                Some(ra) => ra as usize,
                None => pc + 1, // cold RAS: will mispredict
            },
            _ => pc + 1,
        }
    }
}
