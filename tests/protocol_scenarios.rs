//! Hand-written machine-level scenarios for the protocol's §3.4 corner
//! cases — the situations the design discussion reasons about, exercised
//! directly with assembly on the coherent machine.

use hsim::core::config::CoherenceProtocol;
use hsim::isa::asm::assemble;
use hsim::machine::{Machine, MachineConfig, MultiMachine, SysMode};
use hsim_compiler::compile;
use hsim_isa::memmap::{DATA_BASE, LM_BASE};
use hsim_isa::Reg;
use hsim_workloads::{nas, Scale};

fn machine(src: &str) -> Machine {
    let program = assemble(src).expect("assembles");
    let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
    cfg.track_coherence = true;
    Machine::new(cfg, program)
}

/// The double-store motivation (§3.1): data mapped read-only (no
/// write-back), modified through a potentially incoherent store. With the
/// double store, the update survives the unmap; a single guarded store
/// would lose it.
#[test]
fn double_store_survives_readonly_unmap() {
    let w0 = DATA_BASE; // window 0 of the "array"
    let w1 = DATA_BASE + 0x8000; // an unrelated chunk, same buffer later
    let src = format!(
        "
        li r1, 1024
        dir.cfg r1
        ; map w0 read-only (never dma-put)
        li r2, {lm}
        li r3, {w0}
        li r4, 1024
        dma.get r2, r3, r4, 0
        dma.synch 0
        ; potentially incoherent write: double store (gst hits LM + st to SM)
        li r5, {w0}
        li r6, 777
        gst.d r6, 16(r5)
        st.d  r6, 16(r5)
        ; unmap: reuse the buffer for another chunk (read-only data discarded)
        li r3, {w1}
        dma.get r2, r3, r4, 0
        dma.synch 0
        ; read back through the SM: the update must be visible
        ld.d r7, 16(r5)
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
        w1 = w1,
    );
    let mut m = machine(&src);
    m.run().expect("halts");
    assert_eq!(m.core.int_reg(Reg(7)), 777, "update lost at unmap");
    assert_eq!(
        m.violations(),
        0,
        "{:?}",
        m.world.tracker.as_ref().unwrap().violations
    );
}

/// Figure 5 step 4: a guarded load hits the directory and reads the LM
/// copy (which may be newer than the SM's), then a guarded load outside
/// any mapping falls through to the caches.
#[test]
fn guarded_load_reads_valid_lm_copy() {
    let w0 = DATA_BASE;
    let src = format!(
        "
        li r1, 1024
        dir.cfg r1
        li r2, {lm}
        li r3, {w0}
        li r4, 1024
        dma.get r2, r3, r4, 0
        dma.synch 0
        ; modify the LM copy through a plain LM store (regular access)
        li r5, {lm}
        li r6, 42
        st.d r6, 8(r5)
        ; guarded load with the SM address: must divert and see 42
        li r7, {w0}
        gld.d r8, 8(r7)
        ; guarded load of an unmapped chunk: falls through to the SM
        li r9, {far}
        gld.d r10, 0(r9)
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
        far = w0 + 0x100000,
    );
    let mut m = machine(&src);
    m.world.backing.write_u64(w0 + 0x100000, 9001);
    m.run().expect("halts");
    assert_eq!(
        m.core.int_reg(Reg(8)),
        42,
        "guarded load must divert to the LM"
    );
    assert_eq!(
        m.core.int_reg(Reg(10)),
        9001,
        "guarded miss must read the SM"
    );
    let dir = m.world.dir.as_ref().unwrap();
    assert_eq!(dir.stats.hits, 1);
    assert_eq!(dir.stats.lookups, 2);
    assert_eq!(m.violations(), 0);
}

/// LM-writeback keeps the mapping (§3.4.1: "an LM-writeback action does
/// not imply a switch to the MM state"): guarded accesses after a
/// `dma-put` still divert to the LM, and the cached copy was invalidated.
#[test]
fn writeback_keeps_mapping_and_invalidates_cache() {
    let w0 = DATA_BASE;
    let src = format!(
        "
        li r1, 1024
        dir.cfg r1
        li r2, {lm}
        li r3, {w0}
        li r4, 1024
        dma.get r2, r3, r4, 0
        dma.synch 0
        ; dirty the LM copy, write it back
        li r5, {lm}
        li r6, 1234
        st.d r6, 0(r5)
        dma.put r2, r3, r4, 0
        dma.synch 0
        ; guarded access still diverts (mapping survives the put)
        li r7, {w0}
        gld.d r8, 0(r7)
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
    );
    let mut m = machine(&src);
    m.run().expect("halts");
    assert_eq!(m.core.int_reg(Reg(8)), 1234);
    assert_eq!(m.world.backing.read_u64(w0), 1234, "put wrote the SM");
    let dir = m.world.dir.as_ref().unwrap();
    assert_eq!(dir.stats.hits, 1, "mapping must survive the writeback");
    assert_eq!(m.violations(), 0);
}

/// Reconfiguring the directory invalidates every mapping: the same
/// guarded access that hit before must miss after `dir.cfg`.
#[test]
fn reconfiguration_unmaps_everything() {
    let w0 = DATA_BASE;
    let src = format!(
        "
        li r1, 1024
        dir.cfg r1
        li r2, {lm}
        li r3, {w0}
        li r4, 1024
        dma.get r2, r3, r4, 0
        dma.synch 0
        li r7, {w0}
        gld.d r8, 0(r7)     ; hit
        li r1, 2048
        dir.cfg r1          ; invalidates all entries
        gld.d r9, 0(r7)     ; miss: served by the SM
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
    );
    let mut m = machine(&src);
    m.world.backing.write_u64(w0, 5);
    m.run().expect("halts");
    assert_eq!(m.core.int_reg(Reg(8)), 5);
    assert_eq!(m.core.int_reg(Reg(9)), 5);
    let dir = m.world.dir.as_ref().unwrap();
    assert_eq!(dir.stats.hits, 1, "second lookup must miss after dir.cfg");
    assert_eq!(m.violations(), 0);
}

/// DMA coherence (§2.1): a dma-get must observe data that only lives in
/// the cache hierarchy (written by plain stores, not yet evicted) — the
/// snoop path of Figure 5's MAP transitions.
#[test]
fn dma_get_snoops_dirty_cache_data() {
    let w0 = DATA_BASE;
    let src = format!(
        "
        ; write through the caches
        li r1, {w0}
        li r2, 31337
        st.d r2, 24(r1)
        ; now map that chunk into the LM and read the LM copy directly
        li r3, 1024
        dir.cfg r3
        li r4, {lm}
        li r5, {w0}
        li r6, 1024
        dma.get r4, r5, r6, 0
        dma.synch 0
        li r7, {lm}
        ld.d r8, 24(r7)
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
    );
    let mut m = machine(&src);
    m.run().expect("halts");
    assert_eq!(
        m.core.int_reg(Reg(8)),
        31337,
        "dma-get must see the cached write"
    );
    assert!(
        m.world.mem.l1d.stats.snoops > 0,
        "get must snoop the caches"
    );
    assert_eq!(m.violations(), 0);
}

/// The tracker actually catches violations: a plain SM store to a mapped,
/// diverged chunk is flagged (this is the bug class the protocol
/// prevents; we bypass the compiler to inject it).
#[test]
fn tracker_flags_injected_incoherence() {
    let w0 = DATA_BASE;
    let src = format!(
        "
        li r1, 1024
        dir.cfg r1
        li r2, {lm}
        li r3, {w0}
        li r4, 1024
        dma.get r2, r3, r4, 0
        dma.synch 0
        ; diverge the copies: write the LM only (legal, buffer is dirty-able)
        li r5, {lm}
        li r6, 1
        st.d r6, 0(r5)
        ; now an UNGUARDED SM store to the same chunk: incoherent update
        li r7, {w0}
        li r8, 2
        st.d r8, 8(r7)
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
    );
    let mut m = machine(&src);
    m.run().expect("halts");
    assert!(
        m.violations() > 0,
        "the checker must flag the unguarded diverging SM store"
    );
}

// ----------------------------------------------------------------- multicore

/// Builds the `n`-core coherent machine running the CG shards, plus the
/// compiled shard kernels, with one shared configuration.
fn cg_shard_machine(
    n: usize,
    cfg: &MachineConfig,
) -> (
    MultiMachine,
    Vec<(hsim_compiler::CompiledKernel, hsim_compiler::Kernel)>,
) {
    let kernel = nas::cg(Scale::Test);
    let shards = kernel.shard(n).expect("CG shards cleanly");
    let compiled: Vec<_> = shards
        .into_iter()
        .map(|s| (compile(&s, cfg.mode.codegen()), s))
        .collect();
    (MultiMachine::for_kernels(cfg.clone(), &compiled), compiled)
}

/// §3: the directory is replicated per core and never sees another
/// core's traffic. Running the same program on every tile of a 4-core
/// machine must leave each tile's directory statistics *identical* to a
/// solo single-core run — any cross-core directory traffic would show up
/// as extra lookups or updates.
#[test]
fn multicore_directories_are_isolated() {
    let w0 = DATA_BASE;
    let src = format!(
        "
        li r1, 1024
        dir.cfg r1
        li r2, {lm}
        li r3, {w0}
        li r4, 1024
        dma.get r2, r3, r4, 0
        dma.synch 0
        li r7, {w0}
        gld.d r8, 8(r7)     ; directory hit, diverted to the LM
        li r9, {far}
        gld.d r10, 0(r9)    ; directory miss, served by the SM
        halt
        ",
        lm = LM_BASE,
        w0 = w0,
        far = w0 + 0x100000,
    );
    let program = assemble(&src).expect("assembles");

    let mut solo = machine(&src);
    solo.run().expect("solo halts");
    let solo_dir = solo.world.dir.as_ref().unwrap().stats;

    for cm in CoherenceProtocol::ALL {
        let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        cfg.track_coherence = true;
        let mut multi = Machine::new_multi_hetero(vec![cfg; 4], vec![program.clone(); 4]);
        multi.run().expect("all cores halt");

        for tile in &multi.tiles {
            let dir = tile.world.dir.as_ref().unwrap();
            assert_eq!(
                dir.stats.lookups, solo_dir.lookups,
                "{cm:?}: extra directory lookups"
            );
            assert_eq!(
                dir.stats.hits, solo_dir.hits,
                "{cm:?}: directory hit count diverged"
            );
            assert_eq!(
                dir.stats.updates, solo_dir.updates,
                "{cm:?}: extra directory updates"
            );
            assert_eq!(tile.violations(), 0);
        }
        assert_eq!(multi.violations(), 0);
    }
}

/// Disjoint-slice equivalence: a 4-core machine on CG's shards computes,
/// per core, bit-for-bit what four independent single-core machines
/// compute on the same shards. The shared backside only couples timing,
/// never function.
#[test]
fn disjoint_shards_match_single_core_runs() {
    for cm in CoherenceProtocol::ALL {
        let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        cfg.track_coherence = true;
        let (mut multi, compiled) = cg_shard_machine(4, &cfg);
        multi.run().expect("all cores halt");
        assert_eq!(multi.violations(), 0);

        for (tile, (ck, shard)) in multi.tiles.iter().zip(&compiled) {
            let mut solo = Machine::for_kernel(cfg.clone(), ck, shard);
            solo.run().expect("solo shard halts");
            assert_eq!(
                tile.core.stats.committed, solo.core.stats.committed,
                "{} {cm:?}: committed instructions diverged",
                shard.name
            );
            for id in 0..shard.arrays.len() {
                assert_eq!(
                    tile.read_array(ck, shard, id),
                    solo.read_array(ck, shard, id),
                    "{} {cm:?}: array {} diverged between multi-core and solo runs",
                    shard.name,
                    shard.arrays[id].name
                );
            }
            assert_eq!(solo.violations(), 0);
        }
    }
}

/// Shared-L3/DRAM contention is visible per core: with four cores
/// hammering one backside, every core's cycle count strictly exceeds its
/// own uncontended (solo, same configuration) run, and the arbiter
/// records bus waits for every core — under every inter-core protocol.
#[test]
fn shared_backside_contention_slows_every_core() {
    for cm in CoherenceProtocol::ALL {
        let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        cfg.mem.l3_port_gap = 16;
        let (mut multi, compiled) = cg_shard_machine(4, &cfg);
        multi.run().expect("all cores halt");

        for (tile, (ck, shard)) in multi.tiles.iter().zip(&compiled) {
            let mut solo = Machine::for_kernel(cfg.clone(), ck, shard);
            solo.run().expect("solo shard halts");
            let contended = tile.core.stats.cycles;
            let uncontended = solo.core.stats.cycles;
            assert!(
                contended > uncontended,
                "{} {cm:?}: contended run must be strictly slower ({contended} vs {uncontended})",
                shard.name
            );
            // A solo core can queue behind its own outstanding misses (the
            // port bounds memory-level parallelism); cross-core contention
            // must add waits beyond that self-induced floor.
            let waits = tile.world.mem.backside_stats().bus_wait_cycles;
            let solo_waits = solo.world.mem.backside_stats().bus_wait_cycles;
            assert!(
                waits > solo_waits,
                "{} {cm:?}: sharing the backside must add bus waits ({waits} vs solo {solo_waits})",
                shard.name
            );
        }
    }
}
