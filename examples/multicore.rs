//! A real N-core machine: per-core tiles (pipeline, L1/L2, TLB, LM,
//! DMAC, coherence directory) in front of one **shared L3 + DRAM
//! backside**, ticked in lock step with round-robin bus arbitration.
//!
//! The protocol is strictly per-core (§3): LMs hold private data only
//! and the hybrid-coherence hardware never interacts with inter-core
//! cache coherence. This example shards one NAS kernel into disjoint
//! iteration slices, runs all cores as *one* machine, and reports what
//! the single-core story cannot show: per-core shared-L3/DRAM
//! contention and the parallel makespan. The first run keeps private
//! tables (the shards' `shared` marks cleared, so every core caches its
//! own lines of CG's read-only gathered table); the second runs the
//! same shards as sharded, where the MESI directory slices at the L3
//! banks serve that table from shared lines.
//!
//! ```text
//! cargo run --release --example multicore
//! ```

use hsim::prelude::*;
use hsim_bench::private_tables;
use hsim_compiler::compile;
use hsim_workloads::nas;

fn main() {
    let cores = 4;
    let kernel = nas::cg(Scale::Test);
    println!(
        "one {cores}-core machine on disjoint shards of {} (shared L3 + DRAM, per-core LM + directory):",
        kernel.name
    );

    let shards = kernel.shard(cores).expect("CG shards cleanly");
    let compile_all = |shards: Vec<Kernel>| -> Vec<_> {
        shards
            .into_iter()
            .map(|s| (compile(&s, SysMode::HybridCoherent.codegen()), s))
            .collect()
    };
    let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
    cfg.track_coherence = true;
    // The first run keeps every table private: the §3 baseline, where
    // no line is directory-tracked.
    let private = compile_all(private_tables(shards.clone()));
    let mut machine = MultiMachine::for_kernels(cfg.clone(), &private);
    machine.run().expect("all cores halt");

    let cks: Vec<_> = private.iter().map(|(ck, _)| ck.clone()).collect();
    let report = MultiRunReport::collect(&machine, &cks);
    for r in &report.per_core {
        println!(
            "  core {}: {:>8} cycles, {:>6} directory accesses, {:>5} bus-wait cycles, \
             {:>4} DRAM lines, {} violations",
            r.core_id,
            r.cycles,
            r.dir_accesses,
            r.bus_wait_cycles,
            r.dram_reads + r.dram_writes,
            r.violations
        );
    }
    println!(
        "parallel makespan: {} cycles; aggregate IPC {:.2}; total shared-backside waits: {} cycles; \
         coherence violations: {}",
        report.makespan,
        report.aggregate_ipc(),
        report.total(|c| c.bus_wait_cycles),
        report.total(|c| c.violations)
    );
    println!(
        "with private tables, no inter-core coherence traffic exists: each directory only ever \
         observes its own core, and the only cross-core coupling is timing through the shared \
         L3/DRAM backside."
    );

    // The same shards with their marks kept: the MESI directory at the
    // L3 banks serves the sharder's read-only gathered table (CG's x)
    // from shared lines, so the chip fetches it from DRAM once instead
    // of once per core. The per-tile hybrid protocol is untouched (§3):
    // still zero violations with the tracker on.
    let shared = compile_all(shards);
    let mut mesi_machine = MultiMachine::for_kernels(cfg, &shared);
    mesi_machine.run().expect("all cores halt");
    let cks: Vec<_> = shared.iter().map(|(ck, _)| ck.clone()).collect();
    let mesi = MultiRunReport::collect(&mesi_machine, &cks);
    println!(
        "\nsame shards with shared tables under MESI: makespan {} cycles ({} with private tables), \
         DRAM reads {} (vs {}), {} shared-line hits, {} invalidations, {} interventions, \
         coherence violations: {}",
        mesi.makespan,
        report.makespan,
        mesi.total(|c| c.dram_reads),
        report.total(|c| c.dram_reads),
        mesi.total(|c| c.coh_shared_hits),
        mesi.total(|c| c.coh_invalidations),
        mesi.total(|c| c.coh_interventions),
        mesi.total(|c| c.violations)
    );
}
