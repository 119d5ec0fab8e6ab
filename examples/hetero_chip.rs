//! A heterogeneous chip: hybrid (LM + directory) tiles and plain
//! cache-based tiles **coexisting on one machine**, sharing one banked
//! L3 + DRAM backside — the paper's central claim (§3, §6) actually
//! simulated instead of argued.
//!
//! The sibling of `multicore.rs`: where that example runs four
//! identical hybrid tiles, this one builds a 2-hybrid/2-cache 4-core
//! chip, shards one NAS kernel across it with weights matched to tile
//! strength (`Kernel::shard_weighted`), and runs the same chip under
//! both inter-core coherence modes. Under `Mesi` the read-only gathered
//! table is served from shared directory-tracked lines to *both* kinds
//! of tile at once — a cache-based tile and a hybrid tile reading one
//! physical copy while each hybrid tile's private LM protocol runs
//! untouched above it.
//!
//! ```text
//! cargo run --release --example hetero_chip
//! ```

use hsim::prelude::*;
use hsim_workloads::nas;

fn main() {
    let kernel = nas::cg(Scale::Test);
    println!(
        "one 4-core chip on weighted shards of {}: tiles 0-1 hybrid (LM + directory), \
         tiles 2-3 cache-based (no LM), one shared L3/DRAM backside:",
        kernel.name
    );

    // The hybrid tiles are faster on CG, so they take double iteration
    // shares; the largest-remainder split keeps every slice contiguous
    // and disjoint.
    let modes = [
        SysMode::HybridCoherent,
        SysMode::HybridCoherent,
        SysMode::CacheBased,
        SysMode::CacheBased,
    ];
    let weights = [2u64, 2, 1, 1];
    let shards = kernel.shard_weighted(&weights).expect("CG shards cleanly");
    for cm in [CoherenceMode::Replicate, CoherenceMode::Mesi] {
        // Each shard compiles for its own tile's system: guarded loads
        // and DMA tiling on the hybrid tiles, plain cacheable code on
        // the cache-based ones. The data layout is mode-independent, so
        // the shards still agree on every shared array's address.
        let cfgs: Vec<MachineConfig> = modes
            .iter()
            .map(|&m| {
                let mut c = MachineConfig::for_mode(m).with_coherence(cm);
                c.track_coherence = true; // §3: the protocols must not interact
                c
            })
            .collect();
        let compiled: Vec<_> = shards
            .iter()
            .zip(&cfgs)
            .map(|(s, cfg)| (compile_for_tile(s, cfg), s.clone()))
            .collect();
        let mut machine = MultiMachine::try_for_kernels_hetero(cfgs, &compiled)
            .expect("CG declares no comm arrays");
        machine.run().expect("all tiles halt");
        let cks: Vec<_> = compiled.iter().map(|(ck, _)| ck.clone()).collect();
        let report = MultiRunReport::collect(&machine, &cks);

        println!("\n{cm:?}: {}", report.mode_summary());
        for r in &report.per_core {
            println!(
                "  core {} ({:>15}, {} iters): {:>7} cycles, {:>5} bus-wait, \
                 {:>4} DRAM reads, {:>3} shared hits, {} violations",
                r.core_id,
                r.mode.name(),
                compiled[r.core_id].1.loops[0].n,
                r.cycles,
                r.bus_wait_cycles,
                r.dram_reads,
                r.coh_shared_hits,
                r.violations
            );
        }
        println!(
            "  makespan {} cycles; DRAM reads {}; shared hits {}; invalidations {}; \
             replication fallbacks {}; coherence violations {}",
            report.makespan,
            report.total(|c| c.dram_reads),
            report.total(|c| c.coh_shared_hits),
            report.total(|c| c.coh_invalidations),
            report.replication_fallbacks,
            report.total(|c| c.violations)
        );
    }
    println!(
        "\nunder Mesi the chip fetches CG's gathered table from DRAM once and serves \
         hybrid and cache-based tiles from the same directory-tracked lines; the \
         per-tile hybrid LM protocol observes zero violations either way (§3: the \
         protocols do not interact)."
    );
}
