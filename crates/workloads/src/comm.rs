//! Communication workloads: kernels where the *traffic between cores*
//! is the workload (SNIPPETS.md §3, ROADMAP "millions of users").
//!
//! Every NAS-signature kernel is a disjoint data-parallel shard, so the
//! inter-core protocol family mostly idles. The generators here build
//! **per-core kernel sets** whose arrays deliberately overlap: each
//! kernel in a set declares the *identical* array list (same order and
//! lengths — the layout engine places arrays purely by declaration
//! order, so identical lists give identical chip-wide layouts) and
//! marks the communication arrays with
//! [`hsim_compiler::KernelBuilder::mark_comm`]. The machine registers
//! those ranges as directory-tracked shared lines; a layout divergence
//! is a hard `ShardError::CommLayoutDiverged`, never a silent
//! replication fallback.
//!
//! The simulator's inter-core coherence is **timing-only** (each tile
//! keeps a private functional backing store), so these kernels are
//! architecturally self-contained per core — what they share is the
//! *address traffic*: flag lines ping-ponging between writers and
//! readers, dirty payload lines handed M→S across the directory,
//! read-mostly table lines served by a Forwarder. That is exactly the
//! part the protocol family (MSI/MESI/MOESI/MESIF) differentiates.
//!
//! Workloads:
//! * [`ping_pong`] — producer/consumer pairs exchanging a payload
//!   stream against an acknowledgement stream. Hybrid tiles move the
//!   payload through LM+DMA double buffering and keep only the ack
//!   flags coherent (`no_map`); cache-based tiles pay per-line
//!   invalidation/intervention rounds on both streams.
//! * [`queue`] — a multi-buffered SPSC ring: strided payload slots,
//!   per-buffer valid/credit words (indirect `i/B` refs) and the
//!   classic head/tail hand-off. The dirty payload hand-off is where
//!   MOESI's Owned dirty-sharing and MESIF's Forwarder beat MSI's
//!   recall-to-DRAM.
//! * [`lock`] — all cores read-modify-write one lock word per
//!   iteration plus private critical-section work.
//! * [`barrier`] — each core bumps its own arrival slot and reads
//!   everyone else's (one cache line for ≤8 cores: deliberate false
//!   sharing).
//! * [`request_serving`] — every core gathers from one large
//!   comm-marked read-mostly table: the per-request service kernel
//!   under the open-loop arrival driver in `hsim::experiments`.

use crate::nas::Scale;
use crate::{rng, uniform};
use hsim_compiler::{Elem, Expr, Kernel, KernelBuilder, Words};

/// One communication workload: a set of per-core kernels (index =
/// core id) plus the hand-off count the timing results are normalized
/// by (`makespan / rounds` = cycles per hand-off).
#[derive(Clone, Debug)]
pub struct CommWorkload {
    /// Workload family name (`"pingpong"`, `"queue"`, ...).
    pub name: String,
    /// One kernel per core, all declaring the identical array list.
    pub kernels: Vec<Kernel>,
    /// Modeled hand-offs (rounds/slots/acquisitions/epochs) per core.
    pub rounds: u64,
}

/// The request-serving kernel set plus the parameters the open-loop
/// driver needs to turn one machine run into per-request latencies.
#[derive(Clone, Debug)]
pub struct RequestServingWorkload {
    /// One serving kernel per core.
    pub kernels: Vec<Kernel>,
    /// Requests modeled per core (`core cycles / requests` = service
    /// time per request).
    pub requests_per_core: u64,
    /// Indirect table gathers per request.
    pub gathers_per_request: u64,
    /// Elements in the shared read-mostly table.
    pub table_len: u64,
}

/// Flag/data ping-pong over `cores/2` producer/consumer pairs
/// (`cores` must be even and ≥ 2). Pair `p` exchanges `msg{p}`
/// (payload, written by the producer, read by the consumer) against
/// `ack{p}` (flags, written by the consumer, read by the producer) —
/// every kernel declares every pair's arrays (identical layouts) but
/// touches only its own pair's. The payload stays LM-mappable (hybrid
/// tiles double-buffer it over DMA); the ack stream is `no_map`ed so
/// synchronization always flows through the coherent caches, like the
/// paper's hybrid design keeps sync lines under hardware coherence.
pub fn ping_pong(scale: Scale, cores: usize) -> CommWorkload {
    assert!(
        cores >= 2 && cores.is_multiple_of(2),
        "ping_pong needs core pairs"
    );
    let n = scale.pick(2 * 1024, 16 * 1024);
    let pairs = cores / 2;
    let mut kernels = Vec::with_capacity(cores);
    for c in 0..cores {
        let p = c / 2;
        let producer = c % 2 == 0;
        let role = if producer { "tx" } else { "rx" };
        let mut kb = KernelBuilder::new(&format!("pingpong.p{p}.{role}"));
        let mut msgs = Vec::with_capacity(pairs);
        let mut acks = Vec::with_capacity(pairs);
        for q in 0..pairs {
            let msg = kb.array_f64(&format!("msg{q}"), n);
            let ack = kb.array_f64(&format!("ack{q}"), n);
            kb.mark_comm(msg);
            kb.mark_comm(ack);
            msgs.push(msg);
            acks.push(ack);
        }
        kb.begin_loop(n);
        let rmsg = kb.ref_affine(msgs[p], 1, 0);
        let rack = kb.ref_affine(acks[p], 1, 0);
        kb.no_map(acks[p]); // sync flags stay under cache coherence
        if producer {
            // msg[i] = 0.5 * ack[i] + 1.0 — writes the payload the
            // consumer reads, reads the flags the consumer writes.
            kb.stmt(
                rmsg,
                Expr::add(
                    Expr::mul(Expr::ConstF(0.5), Expr::Ref(rack)),
                    Expr::ConstF(1.0),
                ),
            );
        } else {
            // ack[i] = 0.25 * msg[i] + 2.0 — the mirror image.
            kb.stmt(
                rack,
                Expr::add(
                    Expr::mul(Expr::ConstF(0.25), Expr::Ref(rmsg)),
                    Expr::ConstF(2.0),
                ),
            );
        }
        kb.end_loop();
        kernels.push(kb.build().expect("ping_pong kernel"));
    }
    CommWorkload {
        name: "pingpong".into(),
        kernels,
        rounds: n,
    }
}

/// A multi-buffered SPSC queue per core pair: `n` payload slots in
/// buffers of `buffers` slots each. The producer writes payload slots
/// and bumps the per-buffer valid word `flag{p}[i/B]`; the consumer
/// drains slots into a private sink and bumps the per-buffer credit
/// word `credit{p}[i/B]` — so flag traffic is amortized per buffer
/// while every payload line is handed off dirty (the producer's M
/// line intervened by the consumer's read: MSI recalls it through
/// DRAM, MOESI dirty-shares, MESIF forwards).
pub fn queue(scale: Scale, cores: usize, buffers: u64) -> CommWorkload {
    assert!(
        cores >= 2 && cores.is_multiple_of(2),
        "queue needs core pairs"
    );
    assert!(buffers >= 1);
    let n = scale.pick(2 * 1024, 16 * 1024);
    let nb = n.div_ceil(buffers);
    let pairs = cores / 2;
    // Every kernel declares the same slot → buffer map: built once.
    let bidx_words: Words = (0..n).map(|i| i / buffers).collect();
    let mut kernels = Vec::with_capacity(cores);
    for c in 0..cores {
        let p = c / 2;
        let producer = c % 2 == 0;
        let role = if producer { "tx" } else { "rx" };
        let mut kb = KernelBuilder::new(&format!("queue.p{p}.{role}"));
        let mut qs = Vec::with_capacity(pairs);
        let mut flags = Vec::with_capacity(pairs);
        let mut credits = Vec::with_capacity(pairs);
        for qd in 0..pairs {
            let qa = kb.array_f64(&format!("q{qd}"), n);
            let fl = kb.array_i64(&format!("flag{qd}"), nb);
            let cr = kb.array_i64(&format!("credit{qd}"), nb);
            kb.mark_comm(qa);
            kb.mark_comm(fl);
            kb.mark_comm(cr);
            qs.push(qa);
            flags.push(fl);
            credits.push(cr);
        }
        let bidx = kb.array_words("bidx", Elem::I64, bidx_words.clone());
        let sink = kb.array_f64("sink", n);
        kb.begin_loop(n);
        let rb = kb.ref_affine(bidx, 1, 0);
        let rq = kb.ref_affine(qs[p], 1, 0);
        if producer {
            // q[i] = i (payload fill), flag[i/B] += credit[i/B] + 1
            // (publish the buffer, observing the consumer's credits).
            let rf = kb.ref_indirect(flags[p], rb, 0);
            let rc = kb.ref_indirect(credits[p], rb, 0);
            kb.stmt(rq, Expr::cvt(Expr::Ivar));
            kb.stmt(
                rf,
                Expr::add(Expr::Ref(rf), Expr::add(Expr::Ref(rc), Expr::ConstI(1))),
            );
        } else {
            // sink[i] = q[i] + 0.5 (drain), credit[i/B] = flag[i/B] + 1
            // (return the buffer, observing the producer's valid word).
            let rsink = kb.ref_affine(sink, 1, 0);
            let rf = kb.ref_indirect(flags[p], rb, 0);
            let rc = kb.ref_indirect(credits[p], rb, 0);
            kb.stmt(rsink, Expr::add(Expr::Ref(rq), Expr::ConstF(0.5)));
            kb.stmt(rc, Expr::add(Expr::Ref(rf), Expr::ConstI(1)));
        }
        kb.end_loop();
        kernels.push(kb.build().expect("queue kernel"));
    }
    CommWorkload {
        name: "queue".into(),
        kernels,
        rounds: n,
    }
}

/// Lock contention: every core read-modify-writes the same lock word
/// once per iteration (scale-0 ref — L1-resident until another core's
/// write invalidates it, which is every iteration) and runs a little
/// private critical-section work.
pub fn lock(scale: Scale, cores: usize) -> CommWorkload {
    assert!(cores >= 2, "lock contention needs at least two cores");
    let n = scale.pick(1024, 8 * 1024);
    let mut kernels = Vec::with_capacity(cores);
    for c in 0..cores {
        let mut kb = KernelBuilder::new(&format!("lock.c{c}"));
        let lockw = kb.array_i64("lockw", 8);
        kb.mark_comm(lockw);
        let work = kb.array_f64("work", n);
        kb.begin_loop(n);
        let rl = kb.ref_affine(lockw, 0, 0);
        let rw = kb.ref_affine(work, 1, 0);
        kb.stmt(rl, Expr::add(Expr::Ref(rl), Expr::ConstI(1)));
        kb.stmt(
            rw,
            Expr::add(
                Expr::mul(Expr::Ref(rw), Expr::ConstF(0.5)),
                Expr::ConstF(1.0 + c as f64),
            ),
        );
        kb.end_loop();
        kernels.push(kb.build().expect("lock kernel"));
    }
    CommWorkload {
        name: "lock".into(),
        kernels,
        rounds: n,
    }
}

/// Barrier arrival: each core bumps its own slot of one `arrive` line
/// and sums every core's slot (scale-0 refs — for ≤8 cores all slots
/// share one 64-byte line, so every arrival invalidates every waiter:
/// the textbook sense-reversing-barrier line ping-pong).
pub fn barrier(scale: Scale, cores: usize) -> CommWorkload {
    assert!(cores >= 2, "a barrier needs at least two cores");
    let n = scale.pick(1024, 8 * 1024);
    let slots = (cores as u64).max(8);
    let mut kernels = Vec::with_capacity(cores);
    for c in 0..cores {
        let mut kb = KernelBuilder::new(&format!("barrier.c{c}"));
        let arrive = kb.array_i64("arrive", slots);
        kb.mark_comm(arrive);
        kb.begin_loop(n);
        let mine = kb.ref_affine(arrive, 0, c as i64);
        let mut sum = Expr::ConstI(1);
        for o in 0..cores {
            let ro = if o == c {
                mine
            } else {
                kb.ref_affine(arrive, 0, o as i64)
            };
            sum = Expr::add(sum, Expr::Ref(ro));
        }
        kb.stmt(mine, sum);
        kb.end_loop();
        kernels.push(kb.build().expect("barrier kernel"));
    }
    CommWorkload {
        name: "barrier".into(),
        kernels,
        rounds: n,
    }
}

/// Request-serving: every core is a server draining short requests,
/// each request gathering `gathers_per_request` random elements from
/// one large comm-marked **read-mostly table** shared by all cores
/// (directory read-sharing and the MESIF Forwarder under load). The
/// per-core index streams differ (per-core seeds) while the declared
/// array list stays identical, so the chip-wide layouts agree.
pub fn request_serving(scale: Scale, cores: usize) -> RequestServingWorkload {
    assert!(cores >= 1);
    let requests = scale.pick(64, 512);
    let gathers = 16u64;
    let n = requests * gathers;
    let table_len = scale.pick(8 * 1024, 64 * 1024);
    // Every kernel declares the same table: built once.
    let table_words: Words = uniform(&mut rng(0x7AB1E), table_len, -1.0..1.0)
        .map(f64::to_bits)
        .collect();
    let mut kernels = Vec::with_capacity(cores);
    for c in 0..cores {
        let mut kb = KernelBuilder::new(&format!("serve.c{c}"));
        let table = kb.array_words("table", Elem::F64, table_words.clone());
        kb.mark_comm(table);
        let mut r = rng(0x5EED + c as u64);
        let idx = kb.array_i64_from("idx", uniform(&mut r, n, 0..table_len as i64));
        let out = kb.array_f64("out", n);
        kb.begin_loop(n);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rt = kb.ref_indirect(table, ridx, 0);
        let rout = kb.ref_affine(out, 1, 0);
        kb.stmt(
            rout,
            Expr::add(
                Expr::mul(Expr::Ref(rt), Expr::ConstF(0.5)),
                Expr::ConstF(1.0),
            ),
        );
        kb.end_loop();
        kernels.push(kb.build().expect("request-serving kernel"));
    }
    RequestServingWorkload {
        kernels,
        requests_per_core: requests,
        gathers_per_request: gathers,
        table_len,
    }
}

/// The pair-communication workload families at their default
/// parameters (queue with 64-slot buffers), for sweep drivers.
/// `cores` must be even.
pub fn all_comm(scale: Scale, cores: usize) -> Vec<CommWorkload> {
    vec![
        ping_pong(scale, cores),
        queue(scale, cores, 64),
        lock(scale, cores),
        barrier(scale, cores),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsim_compiler::interpret;

    fn decl_sig(k: &Kernel) -> Vec<(String, u64, bool)> {
        k.arrays
            .iter()
            .map(|a| (a.name.clone(), a.len, a.comm))
            .collect()
    }

    #[test]
    fn identical_declaration_lists_per_set() {
        for w in all_comm(Scale::Test, 4) {
            let sig0 = decl_sig(&w.kernels[0]);
            for k in &w.kernels[1..] {
                assert_eq!(decl_sig(k), sig0, "{}: diverging decls", w.name);
            }
            assert!(
                sig0.iter().any(|(_, _, comm)| *comm),
                "{}: no comm arrays",
                w.name
            );
        }
        let rs = request_serving(Scale::Test, 4);
        let sig0 = decl_sig(&rs.kernels[0]);
        for k in &rs.kernels[1..] {
            assert_eq!(decl_sig(k), sig0);
        }
        assert!(rs.kernels[0].arrays[0].comm, "table must be comm-marked");
    }

    #[test]
    fn all_comm_kernels_interpret_cleanly() {
        for w in all_comm(Scale::Test, 4) {
            for k in &w.kernels {
                interpret(k).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            }
        }
        for k in &request_serving(Scale::Test, 2).kernels {
            interpret(k).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = request_serving(Scale::Test, 2);
        let b = request_serving(Scale::Test, 2);
        for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
            assert_eq!(ka.init, kb.init);
        }
        let qa = queue(Scale::Test, 2, 64);
        let qb = queue(Scale::Test, 2, 64);
        assert_eq!(qa.kernels[0].init, qb.kernels[0].init);
    }

    #[test]
    fn per_core_index_streams_differ() {
        let rs = request_serving(Scale::Test, 2);
        let idx_id = rs.kernels[0]
            .arrays
            .iter()
            .position(|a| a.name == "idx")
            .unwrap();
        assert_ne!(rs.kernels[0].init[idx_id], rs.kernels[1].init[idx_id]);
    }
}
