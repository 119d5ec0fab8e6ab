//! Protocol-family equivalence: every directory protocol
//! (`Msi`/`Mesi`/`Moesi`/`Mesif`) must satisfy the same host-speed and
//! architectural contracts the original `Mesi` backside was pinned to:
//!
//! 1. **skip == lockstep** — the event-horizon scheduler stays
//!    bit-identical under every protocol (the directory's message
//!    charges, recalls and owner-attributed write-backs all live inside
//!    access calls, whatever the table says);
//! 2. **threaded == serial clusters** — per-cluster directory slices
//!    keep host-parallel epoch execution invisible for every protocol;
//! 3. **fault equivalence** — a fault plan is a pure timing
//!    perturbation under every protocol: architectural state matches
//!    the fault-free run, and skipping stays invisible under faults;
//! 4. **architectural invariance** — all four protocols and the
//!    `Replicate` baseline commit the same final memory images and the
//!    same instruction counts; protocols only move cycles around.
//!
//! The suite runs identically under any `HSIM_COHERENCE` leg: every
//! configuration here pins its coherence mode explicitly.

use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::compiler::compile;
use hsim::experiments::MultiRunError;
use hsim::machine::MultiMachine;
use hsim::prelude::*;
use hsim_workloads::nas;

/// Every observable of two per-core reports, with the skip counters
/// normalized away (callers that need them equal assert separately).
fn assert_cores_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.committed, b.committed, "{what}: committed");
    assert_eq!(a.phase_cycles, b.phase_cycles, "{what}: phases");
    assert_eq!(a.l1_accesses, b.l1_accesses, "{what}: L1");
    assert_eq!(a.l2_accesses, b.l2_accesses, "{what}: L2");
    assert_eq!(a.l3_accesses, b.l3_accesses, "{what}: L3");
    assert_eq!(a.lm_accesses, b.lm_accesses, "{what}: LM");
    assert_eq!(a.bus_requests, b.bus_requests, "{what}: bus requests");
    assert_eq!(a.bus_wait_cycles, b.bus_wait_cycles, "{what}: bus waits");
    assert_eq!(a.dram_reads, b.dram_reads, "{what}: DRAM reads");
    assert_eq!(a.dram_writes, b.dram_writes, "{what}: DRAM writes");
    assert_eq!(a.coh_shared_hits, b.coh_shared_hits, "{what}: shared hits");
    assert_eq!(a.coh_invalidations, b.coh_invalidations, "{what}: invals");
    assert_eq!(a.coh_interventions, b.coh_interventions, "{what}: intervs");
    assert_eq!(
        a.coh_dirty_recalls, b.coh_dirty_recalls,
        "{what}: dirty recalls"
    );
    assert_eq!(a.ecc_retries, b.ecc_retries, "{what}: ECC retries");
    assert_eq!(a.dma_retries, b.dma_retries, "{what}: DMA retries");
    assert_eq!(
        a.energy_total().to_bits(),
        b.energy_total().to_bits(),
        "{what}: energy"
    );
    let mut sa = a.core.clone();
    sa.skipped_cycles = 0;
    let mut sb = b.core.clone();
    sb.skipped_cycles = 0;
    assert_eq!(sa, sb, "{what}: core stats");
}

#[test]
fn every_protocol_skips_bit_identically() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceMode::DIRECTORY {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let skip = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg.clone())
            .run()
            .map(RunOutcome::into_multi)
            .expect("skip run");
        let lock = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg.with_lockstep())
            .run()
            .map(RunOutcome::into_multi)
            .expect("lockstep run");
        assert_eq!(skip.makespan, lock.makespan, "{}: makespan", cm.name());
        assert_eq!(
            lock.total(|c| c.skipped_cycles),
            0,
            "{}: lockstep",
            cm.name()
        );
        assert!(
            skip.total(|c| c.skipped_cycles) > 0,
            "{}: the run must still skip idle cycles",
            cm.name()
        );
        assert!(
            skip.total(|c| c.coh_shared_hits) > 0,
            "{}: CG x4 must actually exercise the directory",
            cm.name()
        );
        for (s, l) in skip.per_core.iter().zip(&lock.per_core) {
            assert_cores_equal(s, l, &format!("{} cg x4 core {}", cm.name(), s.core_id));
        }
    }
}

#[test]
fn every_protocol_keeps_threaded_clusters_equal_to_serial() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceMode::DIRECTORY {
        let run = |serial: bool| {
            let mut cluster = ClusterConfig::new(ClusterTopology::new(2, 2));
            if serial {
                cluster = cluster.serial();
            }
            let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
            match RunSpec::new(&kernel)
                .clustered(&cluster)
                .config(cfg)
                .run()
                .map(RunOutcome::into_clusters)
            {
                Ok(r) => Some(r),
                Err(MultiRunError::Shard(_)) => None,
                Err(e) => panic!("{}: cluster run failed: {e}", cm.name()),
            }
        };
        let Some(serial) = run(true) else {
            panic!("CG must shard to a 2x2 topology");
        };
        let threaded = run(false).expect("shardability cannot depend on threading");
        assert_eq!(
            serial.makespan,
            threaded.makespan,
            "{}: makespan",
            cm.name()
        );
        assert_eq!(serial.epochs, threaded.epochs, "{}: epochs", cm.name());
        assert_eq!(
            serial.cross_cluster_fallbacks,
            threaded.cross_cluster_fallbacks,
            "{}: fallbacks",
            cm.name()
        );
        for (ca, cb) in serial.per_cluster.iter().zip(&threaded.per_cluster) {
            assert_eq!(ca.makespan, cb.makespan, "{}: cluster makespan", cm.name());
            for (ra, rb) in ca.per_core.iter().zip(&cb.per_core) {
                assert_eq!(
                    ra.core,
                    rb.core,
                    "{}: core stats diverged across drivers (incl. skips)",
                    cm.name()
                );
                assert_eq!(ra.coh_shared_hits, rb.coh_shared_hits, "{}", cm.name());
                assert_eq!(ra.coh_invalidations, rb.coh_invalidations, "{}", cm.name());
                assert_eq!(ra.coh_interventions, rb.coh_interventions, "{}", cm.name());
            }
        }
    }
}

#[test]
fn every_protocol_treats_faults_as_pure_timing() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceMode::DIRECTORY {
        let cfg = |fault: FaultConfig| {
            MachineConfig::for_mode(SysMode::HybridCoherent)
                .with_coherence(cm)
                .with_faults(fault)
        };
        let clean = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg(FaultConfig::none()))
            .run()
            .map(RunOutcome::into_multi)
            .expect("clean run");
        let faulted = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg(FaultConfig::uniform(7, 0.3)))
            .run()
            .map(RunOutcome::into_multi)
            .expect("faulted run");
        assert_eq!(
            clean.total(|c| c.committed),
            faulted.total(|c| c.committed),
            "{}: committed work diverged under faults",
            cm.name()
        );
        assert!(
            faulted.total(|c| c.ecc_retries)
                + faulted.total(|c| c.dma_retries)
                + faulted.total(|c| c.dir_nacks)
                > 0,
            "{}: the plan must actually inject faults",
            cm.name()
        );
        // Skipping stays invisible under faults for every protocol.
        let skip = faulted;
        let lock = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg(FaultConfig::uniform(7, 0.3)).with_lockstep())
            .run()
            .map(RunOutcome::into_multi)
            .expect("faulted lockstep run");
        assert_eq!(
            skip.makespan,
            lock.makespan,
            "{}: faulted makespan",
            cm.name()
        );
        for (s, l) in skip.per_core.iter().zip(&lock.per_core) {
            assert_cores_equal(
                s,
                l,
                &format!("{} faulted cg x4 core {}", cm.name(), s.core_id),
            );
        }
    }
}

#[test]
fn all_protocols_commit_identical_architectural_state() {
    // Final memory images and committed counts across the whole family,
    // against the `Replicate` baseline, on the sharded CG kernel whose
    // gathered table is the acceptance case for directory sharing.
    let kernel = nas::cg(Scale::Test);
    let images = |cm: CoherenceMode| -> (Vec<Vec<Vec<u64>>>, u64) {
        let shards = kernel.shard(4).expect("CG shards to 4");
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let compiled: Vec<_> = shards
            .iter()
            .map(|s| (compile(s, cfg.mode.codegen()), s.clone()))
            .collect();
        let mut m = MultiMachine::for_kernels(cfg, &compiled);
        m.run().expect("run");
        let imgs = m
            .tiles
            .iter()
            .zip(&compiled)
            .map(|(tile, (ck, shard))| {
                (0..shard.arrays.len())
                    .map(|id| tile.read_array(ck, shard, id))
                    .collect()
            })
            .collect();
        let committed = m.tiles.iter().map(|t| t.core.stats.committed).sum();
        (imgs, committed)
    };
    let (base_img, base_committed) = images(CoherenceMode::Replicate);
    for cm in CoherenceMode::DIRECTORY {
        let (img, committed) = images(cm);
        assert_eq!(base_img, img, "{}: memory images diverged", cm.name());
        assert_eq!(
            base_committed,
            committed,
            "{}: committed work diverged",
            cm.name()
        );
    }
}

#[test]
fn family_members_differ_only_where_their_tables_say() {
    // The family's distinguishing statistics on CG x4: MSI's dirty
    // recalls re-read memory, so its DRAM reads dominate MESI's, which
    // dominate MOESI's (dirty sharing drops the round-trip); MESIF's
    // designated forwarder serves at least MESI's shared hits. CG's
    // shared table is read-mostly, so the orderings are non-strict.
    let kernel = nas::cg(Scale::Test);
    let run = |cm: CoherenceMode| {
        RunSpec::new(&kernel)
            .cores(4)
            .config(MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm))
            .run()
            .map(RunOutcome::into_multi)
            .expect("run")
    };
    let msi = run(CoherenceMode::Msi);
    let mesi = run(CoherenceMode::Mesi);
    let moesi = run(CoherenceMode::Moesi);
    let mesif = run(CoherenceMode::Mesif);
    assert!(
        msi.total(|c| c.dram_reads) >= mesi.total(|c| c.dram_reads),
        "MSI must not read less DRAM than MESI ({} vs {})",
        msi.total(|c| c.dram_reads),
        mesi.total(|c| c.dram_reads)
    );
    assert!(
        mesi.total(|c| c.dram_reads) >= moesi.total(|c| c.dram_reads),
        "MOESI must not read more DRAM than MESI ({} vs {})",
        moesi.total(|c| c.dram_reads),
        mesi.total(|c| c.dram_reads)
    );
    assert!(
        mesif.total(|c| c.coh_shared_hits) >= mesi.total(|c| c.coh_shared_hits),
        "MESIF must not score fewer shared hits than MESI ({} vs {})",
        mesif.total(|c| c.coh_shared_hits),
        mesi.total(|c| c.coh_shared_hits)
    );
    for (name, r) in [
        ("msi", &msi),
        ("mesi", &mesi),
        ("moesi", &moesi),
        ("mesif", &mesif),
    ] {
        assert!(
            r.total(|c| c.coh_shared_hits) > 0,
            "{name}: CG x4 must exercise the directory"
        );
    }
}
