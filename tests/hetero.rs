//! Heterogeneous-chip integration tests: mixed hybrid/cache-based
//! tiles, per-tile LM budgets and weighted shards on one machine.
//!
//! The acceptance scenario of the hetero refactor: a 2-hybrid /
//! 2-cache-based 4-core chip runs the NAS kernels to completion with
//! private and with shared tables, with every backside counter still partitioned
//! exactly across the per-core shares — the invariant the homogeneous
//! machine has pinned since the banked backside landed, re-proven for
//! tiles that differ.

use hsim::compiler::ShardError;
use hsim::machine::MultiMachine;
use hsim::prelude::*;
use hsim_bench::private_tables;
use hsim_workloads::nas;

/// 2 hybrid + 2 cache-based tiles under one inter-core protocol.
fn mixed_cfgs(cm: CoherenceProtocol) -> Vec<MachineConfig> {
    [
        SysMode::HybridCoherent,
        SysMode::HybridCoherent,
        SysMode::CacheBased,
        SysMode::CacheBased,
    ]
    .iter()
    .map(|&m| MachineConfig::for_mode(m).with_coherence(cm))
    .collect()
}

/// `kernel`'s shards by `weights`.
fn weighted(kernel: &Kernel, weights: &[u64]) -> Vec<Kernel> {
    kernel.shard_weighted(weights).expect("kernel must shard")
}

/// Compiles each shard for its tile and returns the finished machine
/// (for backside inspection) plus the report.
fn run_hetero_machine(
    shards: Vec<Kernel>,
    cfgs: &[MachineConfig],
) -> (MultiMachine, MultiRunReport) {
    let compiled: Vec<_> = shards
        .into_iter()
        .zip(cfgs)
        .map(|(s, cfg)| {
            let ck = compile_for_tile(&s, cfg);
            (ck, s)
        })
        .collect();
    let mut m = MultiMachine::try_for_kernels_hetero(cfgs.to_vec(), &compiled)
        .expect("no comm arrays to diverge");
    m.run().expect("all tiles halt");
    let cks: Vec<_> = compiled.iter().map(|(ck, _)| ck.clone()).collect();
    let report = MultiRunReport::collect(&m, &cks);
    (m, report)
}

#[test]
fn mixed_chip_runs_nas_kernels_with_exact_stat_partitioning() {
    // The acceptance criterion: CG, FT and IS complete on the mixed
    // chip with private AND with shared tables, and for every backside
    // counter the per-core shares sum to the chip totals exactly.
    for kernel in [
        nas::cg(Scale::Test),
        nas::ft(Scale::Test),
        nas::is(Scale::Test),
    ] {
        let shards = weighted(&kernel, &[1, 1, 1, 1]);
        for (tables, shards) in [
            ("private", private_tables(shards.clone())),
            ("shared", shards),
        ] {
            let cfgs = mixed_cfgs(CoherenceProtocol::Mesi);
            let (m, report) = run_hetero_machine(shards, &cfgs);
            let what = format!("{} {tables} tables", kernel.name);
            assert!(report.makespan > 0, "{what}: must run to completion");
            assert_eq!(report.n_cores(), 4);
            assert!(report.is_mixed_chip());

            // Exact partitioning: sum per-core shares, compare against
            // the backside aggregates, counter by counter.
            let bs = m.backside();
            let bs = bs.borrow();
            let shares: Vec<_> = m
                .tiles
                .iter()
                .map(|t| t.world.mem.backside_stats())
                .collect();
            let mut l3 = hsim::mem::CacheStats::default();
            let mut coh = hsim::mem::CoherenceStats::default();
            let mut dram = hsim::mem::DramStats::default();
            for s in &shares {
                l3.merge(&s.l3);
                coh.merge(&s.coh);
                dram.merge(&s.dram);
            }
            assert_eq!(l3, bs.l3_total_stats(), "{what}: L3 shares");
            assert_eq!(coh, bs.coherence_total_stats(), "{what}: coherence shares");
            assert_eq!(dram, bs.dram_total_stats(), "{what}: DRAM shares");

            // Tile shapes: hybrid tiles have an LM and a directory,
            // cache-based tiles neither.
            for (i, tile) in m.tiles.iter().enumerate() {
                let hybrid = i < 2;
                assert_eq!(tile.world.mem.lm.is_some(), hybrid, "{what}: tile {i} LM");
                assert_eq!(tile.world.dir.is_some(), hybrid, "{what}: tile {i} dir");
            }
        }
    }
}

#[test]
fn mixed_chip_shares_read_only_tables_across_modes_under_mesi() {
    // CG's gathered table is read-only and replicated whole into every
    // shard; with even shards the layouts agree even though the tiles
    // compile for different SysModes (the data layout is
    // mode-independent). Under Mesi the chip must serve it from shared
    // lines — hybrid and cache-based tiles alike — and read less DRAM
    // than with private tables.
    let shards = weighted(&nas::cg(Scale::Test), &[1; 4]);
    let cfgs = mixed_cfgs(CoherenceProtocol::Mesi);
    let (_, rep) = run_hetero_machine(private_tables(shards.clone()), &cfgs);
    let (_, mesi) = run_hetero_machine(shards, &cfgs);
    assert_eq!(
        mesi.replication_fallbacks, 0,
        "even shards must not diverge"
    );
    assert_eq!(rep.total(|c| c.coh_shared_hits), 0);
    assert!(
        mesi.total(|c| c.coh_shared_hits) > 0,
        "the mixed chip must share"
    );
    assert!(
        mesi.total(|c| c.dram_reads) < rep.total(|c| c.dram_reads),
        "sharing must cut DRAM reads ({} vs {})",
        mesi.total(|c| c.dram_reads),
        rep.total(|c| c.dram_reads)
    );
    // Architectural work is mode-invariant on the mixed chip too.
    assert_eq!(rep.total(|c| c.committed), mesi.total(|c| c.committed));
    // Both tile kinds participate: at least one hybrid and one
    // cache-based tile score shared hits.
    let hits = |r: &MultiRunReport, mode: SysMode| {
        r.per_core
            .iter()
            .filter(|c| c.mode == mode)
            .map(|c| c.coh_shared_hits)
            .sum::<u64>()
    };
    assert!(
        hits(&mesi, SysMode::HybridCoherent) > 0,
        "hybrid tiles share"
    );
    assert!(hits(&mesi, SysMode::CacheBased) > 0, "cache tiles share");
}

#[test]
fn weighted_shards_speed_up_a_mixed_chip() {
    // Matching iteration counts to tile strength is what weighted
    // sharding exists for: on the 2-hybrid/2-cache chip, handing the
    // hybrid tiles double shares must beat the even split's makespan
    // (the cache-based tiles stop being the long pole *and* stop
    // hammering the shared backside with their larger shards' misses).
    for kernel in [
        nas::cg(Scale::Test),
        nas::ft(Scale::Test),
        nas::is(Scale::Test),
    ] {
        let cfgs = mixed_cfgs(CoherenceProtocol::Mesi);
        let private = |weights| private_tables(weighted(&kernel, weights));
        let (_, even) = run_hetero_machine(private(&[1, 1, 1, 1]), &cfgs);
        let (_, weighted) = run_hetero_machine(private(&[2, 2, 1, 1]), &cfgs);
        assert!(
            weighted.makespan < even.makespan,
            "{}: 2:1 weights toward the hybrid tiles must beat the even \
             split ({} vs {})",
            kernel.name,
            weighted.makespan,
            even.makespan
        );
        // The rebalance shows up where it should: the cache-based
        // tiles' busy time drops with their smaller shards.
        let cache_max = |r: &MultiRunReport| {
            r.per_core
                .iter()
                .filter(|c| c.mode == SysMode::CacheBased)
                .map(|c| c.cycles)
                .max()
                .unwrap()
        };
        assert!(
            cache_max(&weighted) < cache_max(&even),
            "{}: the cache tiles must shed cycles",
            kernel.name
        );
    }
}

#[test]
fn small_lm_tiles_pay_more_dma_round_trips() {
    // Big/little LM asymmetry: two tiles compile their shards against a
    // quarter LM budget. Smaller buffers mean more DMA commands for the
    // same data — visible in the little tiles' reports — while the
    // all-default chip is reproduced bit for bit by the hetero path
    // (covered in skip_equivalence); here the asymmetric chip must
    // still complete and the little tiles must issue more DMA traffic
    // per iteration than the big ones.
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
        let hybrid = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let mut cfgs = vec![hybrid; 4];
        for c in cfgs.iter_mut().skip(2) {
            c.mem.lm.as_mut().unwrap().size_bytes /= 4;
        }
        let (m, report) = run_hetero_machine(weighted(&kernel, &[1, 1, 1, 1]), &cfgs);
        assert!(report.makespan > 0);
        let dma_cmds: Vec<u64> = m
            .tiles
            .iter()
            .map(|t| t.world.mem.dmac.stats.gets + t.world.mem.dmac.stats.puts)
            .collect();
        assert!(
            dma_cmds[2] > dma_cmds[0],
            "{cm:?}: a quarter-LM tile must issue more DMA commands ({dma_cmds:?})"
        );
        // Same architectural result notwithstanding: every tile halts and
        // commits its shard.
        for r in &report.per_core {
            assert!(
                r.committed > 0,
                "{cm:?}: tile {} must commit work",
                r.core_id
            );
        }
    }
}

#[test]
fn every_run_spec_shape_compiles_against_the_tiles_own_lm() {
    // One compile policy: `RunSpec::config` with a quarter-LM tile must
    // reach codegen on the single-machine and the sharded clustered
    // shapes too (they used to tile against the full LM window whatever
    // the configuration said). Smaller DMA buffers mean more round
    // trips, so more committed control instructions.
    let kernel = nas::cg(Scale::Test);
    let quarter = |mut cfg: MachineConfig| {
        cfg.mem.lm.as_mut().unwrap().size_bytes /= 4;
        cfg
    };
    let default_lm = MachineConfig::for_mode(SysMode::HybridCoherent);
    let single = |cfg: MachineConfig| {
        let spec = RunSpec::new(&kernel).config(cfg);
        spec.run().expect("single run").into_single().committed
    };
    assert!(
        single(quarter(default_lm.clone())) > single(default_lm),
        "a quarter-LM single machine must commit more instructions"
    );

    let cluster = hsim::ClusterConfig::new(hsim::ClusterTopology::new(2, 2));
    let clustered = |cfg: MachineConfig| {
        let spec = RunSpec::new(&kernel).clustered(&cluster).config(cfg);
        let report = spec.run().expect("clustered run").into_clusters();
        report.total(|c| c.committed)
    };
    for cm in CoherenceProtocol::ALL {
        let default_lm = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        assert!(
            clustered(quarter(default_lm.clone())) > clustered(default_lm),
            "{cm:?}: a quarter-LM 2x2 clustered machine must commit more instructions"
        );
    }
}

#[test]
#[should_panic(expected = "backside slice")]
fn tiles_disagreeing_on_the_backside_are_rejected() {
    let kernel = nas::cg(Scale::Test);
    let mut cfgs = vec![MachineConfig::for_mode(SysMode::HybridCoherent); 2];
    cfgs[1].mem.l3_geometry.banks = 1; // one chip cannot have two L3 shapes
    let _ = run_hetero_machine(weighted(&kernel, &[1, 1]), &cfgs);
}

#[test]
fn more_tiles_than_sharer_bits_is_a_construction_error() {
    // The directory names sharers in a 64-bit set: a 65-tile machine is
    // refused with a typed error before any tile is built, through the
    // machine constructor and through `RunSpec` alike.
    let mut kb = KernelBuilder::new("wide");
    let a = kb.array_i64_init("a", &[1; 65]);
    kb.begin_loop(65);
    let ra = kb.ref_affine(a, 1, 0);
    kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::ConstI(1)));
    kb.end_loop();
    let shards = kb
        .build()
        .unwrap()
        .shard(65)
        .expect("one iteration per shard");
    let want = ShardError::TooManyTiles { tiles: 65, max: 64 };
    let cfg = MachineConfig::for_mode(SysMode::CacheBased);
    let compiled: Vec<_> = shards
        .iter()
        .map(|s| (compile_for_tile(s, &cfg), s.clone()))
        .collect();
    let built = MultiMachine::try_for_kernels_hetero(vec![cfg.clone(); 65], &compiled);
    assert_eq!(built.err(), Some(want.clone()));
    let run = RunSpec::many(&shards).config(cfg).run();
    assert_eq!(run.err(), Some(MultiRunError::Shard(want)));
}
