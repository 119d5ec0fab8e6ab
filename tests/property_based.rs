//! Property-based tests: randomized kernels and access streams checked
//! against reference models.
//!
//! The central property is the paper's correctness claim: for *any* loop
//! kernel, the code the compiler generates for the coherent hybrid
//! machine (and for the oracle and cache-based machines) computes exactly
//! what the direct interpretation of the kernel computes, with zero
//! coherence violations — regardless of aliasing, tiling boundaries,
//! guarded stores and window crossings.

use hsim::prelude::*;
use proptest::prelude::*;

/// A random but well-formed kernel: 1-3 arrays of i64, one loop with a
/// mix of strided (offset 0..=2), scalar, indirect and forced-incoherent
/// references.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        2u64..600,                           // n
        1usize..4,                           // value arrays
        prop::collection::vec(0u8..5, 1..5), // statement shapes
        any::<u64>(),                        // data seed
        prop::bool::ANY,                     // force an incoherent ref?
    )
        .prop_map(|(n, n_arrays, shapes, seed, force)| {
            let mut kb = KernelBuilder::new("prop");
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let arrays: Vec<_> = (0..n_arrays)
                .map(|k| {
                    let init: Vec<i64> = (0..n + 2).map(|_| (next() % 1000) as i64).collect();
                    kb.array_i64_init(&format!("a{k}"), &init)
                })
                .collect();
            let idx_init: Vec<i64> = (0..n).map(|_| (next() % n) as i64).collect();
            let idx = kb.array_i64_init("idx", &idx_init);
            let scal = kb.array_i64_init("s", &[3, 5]);
            kb.begin_loop(n);
            let ridx = kb.ref_affine(idx, 1, 0);
            for (si, shape) in shapes.iter().enumerate() {
                let a = arrays[si % arrays.len()];
                match shape {
                    // strided read-modify-write with offset
                    0 => {
                        let r0 = kb.ref_affine(a, 1, 0);
                        let r1 = kb.ref_affine(a, 1, (si as i64 % 3).min(2));
                        kb.stmt(r1, Expr::add(Expr::Ref(r0), Expr::ConstI(1)));
                    }
                    // scalar accumulate
                    1 => {
                        let r0 = kb.ref_affine(a, 1, 0);
                        let rs = kb.ref_affine(scal, 0, 0);
                        kb.stmt(rs, Expr::add(Expr::Ref(rs), Expr::Ref(r0)));
                    }
                    // indirect write (scatter) into the first array:
                    // must-aliases its own regular refs -> guarded
                    2 => {
                        let rg = kb.ref_indirect(arrays[0], ridx, 0);
                        kb.stmt(rg, Expr::add(Expr::Ref(rg), Expr::ConstI(2)));
                    }
                    // indirect read (gather) combined with ivar
                    3 => {
                        let rg = kb.ref_indirect(arrays[0], ridx, 0);
                        let r1 = kb.ref_affine(a, 1, 0);
                        kb.stmt(r1, Expr::add(Expr::Ref(rg), Expr::Ivar));
                    }
                    // plain strided copy between arrays
                    _ => {
                        let r0 = kb.ref_affine(arrays[(si + 1) % arrays.len()], 1, 0);
                        let r1 = kb.ref_affine(a, 1, 0);
                        kb.stmt(r1, Expr::sub(Expr::Ref(r0), Expr::ConstI(1)));
                    }
                }
            }
            if force {
                // Force the idx stream's own access guarded as well.
                kb.force_incoherent(ridx);
            }
            kb.end_loop();
            kb.build().expect("generated kernel must validate")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flagship property: all three machines compute the interpreter's
    /// result, with zero coherence violations.
    #[test]
    fn compiled_kernels_match_interpreter(kernel in arb_kernel()) {
        for mode in [SysMode::HybridCoherent, SysMode::HybridOracle, SysMode::CacheBased] {
            let (r, mismatches) = RunSpec::new(&kernel)
            .mode(mode)
            .track(true)
            .verified()
            .run()
            .map(|out| {
                let m = out.verify_mismatches.expect("verified run");
                (out.into_single(), m)
            }).unwrap();
            prop_assert_eq!(mismatches, 0, "memory diverged in {:?}", mode);
            prop_assert_eq!(r.violations, 0, "violations in {:?}", mode);
        }
    }

    /// Simulation is deterministic for arbitrary kernels.
    #[test]
    fn simulation_is_deterministic(kernel in arb_kernel()) {
        let a = RunSpec::new(&kernel).mode(SysMode::HybridCoherent).track(false).run().map(RunOutcome::into_single).unwrap();
        let b = RunSpec::new(&kernel).mode(SysMode::HybridCoherent).track(false).run().map(RunOutcome::into_single).unwrap();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.committed, b.committed);
    }

    /// Cycle skipping is timing-invisible for arbitrary kernels: the
    /// event-horizon scheduler and the naive per-cycle loop agree on
    /// every pipeline statistic.
    #[test]
    fn cycle_skipping_is_timing_invisible(kernel in arb_kernel()) {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
        let skip = RunSpec::new(&kernel).config(cfg.clone()).run().map(RunOutcome::into_single).unwrap();
        let lock = RunSpec::new(&kernel).config(cfg.with_lockstep()).run().map(RunOutcome::into_single).unwrap();
        prop_assert_eq!(lock.skipped_cycles, 0);
        let mut core = skip.core.clone();
        core.skipped_cycles = 0;
        prop_assert_eq!(core, lock.core, "core stats diverged");
        prop_assert_eq!(skip.bus_wait_cycles, lock.bus_wait_cycles);
        prop_assert_eq!(skip.dram_reads, lock.dram_reads);
        prop_assert_eq!(skip.dram_writes, lock.dram_writes);
        prop_assert_eq!(skip.l3_accesses, lock.l3_accesses);
    }
}

mod shard_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Uniform weights are the identity: for any kernel and shard
        /// count, `shard_weighted(&[1; n])` must reproduce `shard(n)`
        /// shard by shard — same names, trip counts, array declarations
        /// and initial data (or fail with the same error).
        #[test]
        fn uniform_weighted_shards_equal_plain_shard(
            kernel in arb_kernel(),
            n in 1usize..6,
        ) {
            let weights = vec![1u64; n];
            match (kernel.shard(n), kernel.shard_weighted(&weights)) {
                (Ok(plain), Ok(weighted)) => {
                    prop_assert_eq!(plain.len(), weighted.len());
                    for (p, w) in plain.iter().zip(&weighted) {
                        prop_assert_eq!(&p.name, &w.name);
                        prop_assert_eq!(p.loops.len(), w.loops.len());
                        for (pl, wl) in p.loops.iter().zip(&w.loops) {
                            prop_assert_eq!(pl.n, wl.n);
                        }
                        prop_assert_eq!(p.arrays.len(), w.arrays.len());
                        for (pa, wa) in p.arrays.iter().zip(&w.arrays) {
                            prop_assert_eq!(pa.len, wa.len);
                            prop_assert_eq!(pa.shared, wa.shared);
                        }
                        prop_assert_eq!(&p.init, &w.init);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (p, w) => prop_assert!(
                    false,
                    "plain and uniform-weighted sharding disagree: {:?} vs {:?}",
                    p.map(|s| s.len()),
                    w.map(|s| s.len())
                ),
            }
        }

        /// Weighted shards always cover the iteration space exactly:
        /// trip counts sum to the original for any positive weights.
        #[test]
        fn weighted_shards_cover_all_iterations(
            kernel in arb_kernel(),
            weights in prop::collection::vec(1u64..8, 1..6),
        ) {
            if let Ok(shards) = kernel.shard_weighted(&weights) {
                let total: u64 = shards.iter().map(|s| s.loops[0].n).sum();
                prop_assert_eq!(total, kernel.loops[0].n);
                for s in &shards {
                    prop_assert!(s.loops[0].n >= 1);
                    prop_assert!(s.validate().is_ok());
                }
            }
        }
    }
}

mod coherence_mode_props {
    use super::*;
    use hsim::compiler::compile;
    use hsim::machine::MultiMachine;
    use hsim_bench::private_tables;

    /// Final array images, indexed `[shard][array][element]`.
    type Images = Vec<Vec<Vec<u64>>>;

    /// Runs `shards` on one tile each under one coherence mode and
    /// returns (final array images per shard, committed per core).
    fn run_mode(shards: Vec<Kernel>, cm: CoherenceProtocol) -> (Images, Vec<u64>) {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let compiled: Vec<_> = shards
            .iter()
            .map(|s| (compile(s, cfg.mode.codegen()), s.clone()))
            .collect();
        let mut m = MultiMachine::for_kernels(cfg, &compiled);
        m.run().expect("run");
        let images = m
            .tiles
            .iter()
            .zip(&compiled)
            .map(|(tile, (ck, shard))| {
                (0..shard.arrays.len())
                    .map(|id| tile.read_array(ck, shard, id))
                    .collect()
            })
            .collect();
        let committed = m.tiles.iter().map(|t| t.core.stats.committed).collect();
        (images, committed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The coherence mode is a pure timing model: for any shardable
        /// kernel, the private-tables baseline and every protocol
        /// (`Msi`/`Mesi`/`Moesi`/`Mesif`) commit identical architectural
        /// state (final memory images, committed instruction counts) —
        /// the directory may only move cycles around.
        #[test]
        fn coherence_mode_never_changes_architectural_state(kernel in arb_kernel()) {
            let Ok(shards) = kernel.shard(2) else { return Ok(()); };
            let (rep_img, rep_committed) =
                run_mode(private_tables(shards.clone()), CoherenceProtocol::Mesi);
            for cm in CoherenceProtocol::ALL {
                let (img, committed) = run_mode(shards.clone(), cm);
                prop_assert_eq!(
                    &rep_img, &img,
                    "memory images diverged under {}", cm.name()
                );
                prop_assert_eq!(
                    &rep_committed, &committed,
                    "committed work diverged under {}", cm.name()
                );
            }
        }
    }
}

mod cluster_props {
    use super::*;
    use hsim::cluster::{ClusterConfig, ClusterTopology};
    use hsim::experiments::MultiRunError;

    /// Runs a random kernel on a clustered machine; `None` when the
    /// kernel does not shard to the topology.
    fn run(
        kernel: &Kernel,
        topo: ClusterTopology,
        cm: CoherenceProtocol,
        channels: usize,
        serial: bool,
    ) -> Option<hsim::ClusterRunReport> {
        let mut cluster = ClusterConfig::new(topo);
        if serial {
            cluster = cluster.serial();
        }
        let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        cfg.mem.dram_channels = channels;
        match RunSpec::new(kernel)
            .clustered(&cluster)
            .config(cfg)
            .run()
            .map(RunOutcome::into_clusters)
        {
            Ok(r) => Some(r),
            Err(MultiRunError::Shard(_)) => None,
            Err(e) => panic!("simulation failed: {e}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Host-parallel clusters are invisible: for any kernel,
        /// cluster topology, coherence mode and channel count, one host
        /// thread per cluster produces bit-identical results to the
        /// serial driver — every per-core statistic including the
        /// cycle-skip counters, every makespan and the fallback
        /// accounting.
        #[test]
        fn threaded_clusters_match_serial_for_any_topology(
            kernel in arb_kernel(),
            clusters in 1usize..4,
            per in 1usize..3,
            mode_idx in 0usize..CoherenceProtocol::ALL.len(),
            two_channels in prop::bool::ANY,
        ) {
            let topo = ClusterTopology::new(clusters, per);
            let cm = CoherenceProtocol::ALL[mode_idx];
            let channels = if two_channels { 2 } else { 1 };
            let Some(serial) = run(&kernel, topo, cm, channels, true) else { return Ok(()); };
            let threaded = run(&kernel, topo, cm, channels, false)
                .expect("shardability cannot depend on threading");
            prop_assert_eq!(serial.makespan, threaded.makespan, "makespan");
            prop_assert_eq!(
                serial.cross_cluster_fallbacks,
                threaded.cross_cluster_fallbacks
            );
            prop_assert_eq!(serial.per_cluster.len(), threaded.per_cluster.len());
            for (ca, cb) in serial.per_cluster.iter().zip(&threaded.per_cluster) {
                prop_assert_eq!(ca.makespan, cb.makespan, "cluster makespan");
                prop_assert_eq!(ca.replication_fallbacks, cb.replication_fallbacks);
                for (ra, rb) in ca.per_core.iter().zip(&cb.per_core) {
                    prop_assert_eq!(&ra.core, &rb.core, "core stats (incl. skips)");
                    prop_assert_eq!(ra.bus_wait_cycles, rb.bus_wait_cycles);
                    prop_assert_eq!(ra.dram_reads, rb.dram_reads);
                    prop_assert_eq!(ra.dram_writes, rb.dram_writes);
                    prop_assert_eq!(ra.dram_row_hits, rb.dram_row_hits);
                    prop_assert_eq!(ra.l3_accesses, rb.l3_accesses);
                }
            }
        }
    }
}

mod directory_props {
    use super::*;
    use hsim::coherence::{DirConfig, Directory};
    use hsim::isa::memmap::{LM_BASE, LM_SIZE};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Address decomposition: for any configured buffer size and any
        /// mapped chunk, every in-chunk address diverts to the LM address
        /// with the same offset, and out-of-chunk addresses miss.
        #[test]
        fn lookup_matches_reference_model(
            buf_log in 6u32..15, // 64 B .. 16 KiB
            buf_idx in 0u64..32,
            chunk_sel in 0u64..1024,
            offset in 0u64..16384,
        ) {
            let buf_size = 1u64 << buf_log;
            let mut dir = Directory::new(DirConfig::default());
            dir.configure(buf_size).unwrap();
            let n_bufs = dir.num_buffers() as u64;
            let buf_idx = buf_idx % n_bufs;
            let sm_chunk = 0x1000_0000u64 + chunk_sel * buf_size;
            let lm_addr = LM_BASE + buf_idx * buf_size;
            dir.update_get(lm_addr, sm_chunk, 7).unwrap();

            let probe = sm_chunk.wrapping_add(offset);
            let hit = dir.lookup(probe);
            if offset < buf_size {
                let h = hit.expect("in-chunk must hit");
                prop_assert_eq!(h.lm_addr, lm_addr + offset);
                prop_assert_eq!(h.ready_at, 7);
                prop_assert!(h.lm_addr >= LM_BASE && h.lm_addr < LM_BASE + LM_SIZE);
            } else if offset >= buf_size {
                // Outside the chunk: may only hit if it falls into the
                // same chunk again (it cannot, offsets < 16K and chunks
                // don't repeat) — must miss.
                prop_assert!(hit.is_none());
            }
        }

        /// Base/offset masks decompose and reassemble any address.
        #[test]
        fn masks_partition_addresses(buf_log in 6u32..15, addr in any::<u64>()) {
            let mut dir = Directory::new(DirConfig::default());
            dir.configure(1 << buf_log).unwrap();
            let base = addr & dir.base_mask();
            let off = addr & dir.offset_mask();
            prop_assert_eq!(base | off, addr);
            prop_assert_eq!(base & off, 0);
        }
    }
}

mod state_machine_props {
    use super::*;
    use hsim::coherence::{DataEvent, DataState};

    fn arb_event() -> impl Strategy<Value = DataEvent> {
        prop_oneof![
            Just(DataEvent::LmMap),
            Just(DataEvent::LmUnmap),
            Just(DataEvent::LmWriteback),
            Just(DataEvent::CmAccess),
            Just(DataEvent::CmEvict),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Under arbitrary event streams (applying only the legal ones),
        /// the replica invariants of §3.4 hold: replica count matches the
        /// state, and no single event removes two replicas.
        #[test]
        fn replica_count_is_consistent(events in prop::collection::vec(arb_event(), 0..64)) {
            let mut s = DataState::MM;
            for e in events {
                if let Ok(next) = s.step(e) {
                    let before = s.replicas() as i64;
                    let after = next.replicas() as i64;
                    prop_assert!((after - before).abs() <= 1,
                        "{:?} --{:?}--> {:?} changed replicas by more than one", s, e, next);
                    // LM-CM never jumps straight to MM (§3.4.2).
                    if s == DataState::LmCm {
                        prop_assert_ne!(next, DataState::MM);
                    }
                    s = next;
                }
            }
        }
    }
}

mod cache_props {
    use super::*;
    use hsim::mem::{AccessKind, Cache, CacheConfig, WritePolicy};
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Inclusion-of-recency: immediately after any access sequence,
        /// re-probing the most recent `ways` distinct lines of any one set
        /// always hits (true LRU never evicts the most recent).
        #[test]
        fn lru_keeps_most_recent_lines(addrs in prop::collection::vec(0u64..(1 << 16), 1..200)) {
            let mut c = Cache::new(CacheConfig {
                name: "T",
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
                latency: 1,
                write_policy: WritePolicy::WriteBack,
            });
            for a in &addrs {
                if !c.access(*a, AccessKind::Read) {
                    c.fill(c.line_addr(*a), false, false);
                }
            }
            // The last 4 distinct lines touched within one set must hit.
            let last = *addrs.last().unwrap();
            let set_of = |a: u64| (a / 64) % 16;
            let mut recent = Vec::new();
            let mut seen = HashSet::new();
            for a in addrs.iter().rev() {
                if set_of(*a) == set_of(last) && seen.insert(c.line_addr(*a)) {
                    recent.push(c.line_addr(*a));
                    if recent.len() == 4 {
                        break;
                    }
                }
            }
            for line in recent {
                prop_assert!(c.probe(line), "recently-touched line {line:#x} missing");
            }
        }

        /// Write-back caches never lose dirty data silently: every dirty
        /// line is either resident or was reported evicted.
        #[test]
        fn dirty_lines_are_never_lost(writes in prop::collection::vec(0u64..(1 << 14), 1..150)) {
            let mut c = Cache::new(CacheConfig {
                name: "T",
                size_bytes: 2048,
                ways: 2,
                line_bytes: 64,
                latency: 1,
                write_policy: WritePolicy::WriteBack,
            });
            let mut dirty: HashSet<u64> = HashSet::new();
            for a in &writes {
                let line = c.line_addr(*a);
                if !c.access(*a, AccessKind::Write) {
                    if let Some(ev) = c.fill(line, true, false) {
                        if ev.dirty {
                            prop_assert!(dirty.remove(&ev.addr), "evicted unknown dirty line");
                        }
                    }
                }
                dirty.insert(line);
                // Re-access as write to mark dirty if the fill path raced.
                c.access(*a, AccessKind::Write);
            }
            for line in dirty {
                prop_assert!(c.probe(line), "dirty line {line:#x} vanished");
            }
        }
    }
}

mod asm_props {
    use super::*;
    use hsim::isa::asm::{assemble, disassemble};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Assembler/disassembler round trip over random compiled
        /// programs (which exercise every instruction the compiler can
        /// emit, including guarded forms and DMA ops).
        #[test]
        fn compiled_programs_roundtrip_through_asm(kernel in arb_kernel()) {
            let ck = compile(&kernel, CodegenMode::HybridCoherent);
            let text = disassemble(&ck.program);
            let back = assemble(&text).expect("disassembly must re-assemble");
            prop_assert_eq!(&back.insts, &ck.program.insts);
        }
    }
}
