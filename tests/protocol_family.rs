//! Protocol-family equivalence: every directory protocol
//! (`Msi`/`Mesi`/`Moesi`/`Mesif`) must satisfy the same host-speed and
//! architectural contracts the original `Mesi` backside was pinned to:
//!
//! 1. **skip == lockstep** — the event-horizon scheduler stays
//!    bit-identical under every protocol (the directory's message
//!    charges, recalls and owner-attributed write-backs all live inside
//!    access calls, whatever the table says);
//! 2. **threaded == serial clusters** — per-cluster directory slices
//!    keep host-parallel cluster execution invisible for every protocol;
//! 3. **fault equivalence** — a fault plan is a pure timing
//!    perturbation under every protocol: architectural state matches
//!    the fault-free run, and skipping stays invisible under faults;
//! 4. **architectural invariance** — all four protocols and the
//!    private-tables baseline commit the same final memory images and
//!    the same instruction counts; protocols only move cycles around.
//!
//! Every configuration here names its coherence mode explicitly; the
//! machine spec is the only input.

use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::compiler::compile;
use hsim::experiments::MultiRunError;
use hsim::machine::MultiMachine;
use hsim::prelude::*;
use hsim_bench::private_tables;
use hsim_workloads::nas;

mod common;
use common::Unskipped;

#[test]
fn every_protocol_skips_bit_identically() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
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
        assert_eq!(skip.unskipped(), lock, "{} cg x4", cm.name());
    }
}

#[test]
fn every_protocol_keeps_threaded_clusters_equal_to_serial() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
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
        // Skip counters included: both drivers run the same scheduler.
        assert_eq!(serial, threaded, "{}", cm.name());
    }
}

#[test]
fn every_protocol_treats_faults_as_pure_timing() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
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
        assert_eq!(skip.unskipped(), lock, "{} faulted cg x4", cm.name());
    }
}

#[test]
fn all_protocols_commit_identical_architectural_state() {
    // Final memory images and committed counts across the whole family,
    // against the private-tables baseline, on the sharded CG kernel
    // whose gathered table is the acceptance case for directory sharing.
    let shards = nas::cg(Scale::Test).shard(4).expect("CG shards to 4");
    let images = |shards: Vec<Kernel>, cm: CoherenceProtocol| -> (Vec<Vec<Vec<u64>>>, u64) {
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
    let (base_img, base_committed) =
        images(private_tables(shards.clone()), CoherenceProtocol::Mesi);
    for cm in CoherenceProtocol::ALL {
        let (img, committed) = images(shards.clone(), cm);
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
    let run = |cm: CoherenceProtocol| {
        RunSpec::new(&kernel)
            .cores(4)
            .config(MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm))
            .run()
            .map(RunOutcome::into_multi)
            .expect("run")
    };
    let msi = run(CoherenceProtocol::Msi);
    let mesi = run(CoherenceProtocol::Mesi);
    let moesi = run(CoherenceProtocol::Moesi);
    let mesif = run(CoherenceProtocol::Mesif);
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
