//! Integration tests of the per-L3-bank MESI directory (the default
//! protocol) against the private-tables baseline — the same shards
//! with their `ArrayDecl::shared` marks cleared, so no table is
//! directory-tracked:
//!
//! * timing-only: committed architectural state (final memory images,
//!   per-core committed counts) is identical either way;
//! * sharing works: sharded CG reads less DRAM under `Mesi` because the
//!   gathered table is fetched once per chip;
//! * the baseline is protocol-free: a private-tables run reports the
//!   same under every protocol;
//! * the §3 non-interaction claim: the hybrid protocol's runtime
//!   tracker finds exactly zero violations under the real inter-core
//!   protocol, same as with private tables.

use hsim::compiler::compile;
use hsim::prelude::*;
use hsim_bench::private_tables;
use hsim_bench::sweeps::{coherence_view, protocol_points};
use hsim_workloads::nas;

/// `kernel` sharded `n` ways.
fn split(kernel: &Kernel, n: usize) -> Vec<Kernel> {
    kernel.shard(n).expect("kernel must shard")
}

/// Runs `shards` on a machine of one tile per shard built from `cfg`,
/// and returns the report plus every shard's final array images.
fn run_sharded(shards: Vec<Kernel>, cfg: MachineConfig) -> (MultiRunReport, Vec<Vec<Vec<u64>>>) {
    let compiled: Vec<_> = shards
        .iter()
        .map(|s| (compile(s, cfg.mode.codegen()), s.clone()))
        .collect();
    let mut m = MultiMachine::for_kernels(cfg, &compiled);
    m.run().expect("run");
    let images: Vec<Vec<Vec<u64>>> = m
        .tiles
        .iter()
        .zip(&compiled)
        .map(|(tile, (ck, shard))| {
            (0..shard.arrays.len())
                .map(|id| tile.read_array(ck, shard, id))
                .collect()
        })
        .collect();
    let cks: Vec<_> = compiled.into_iter().map(|(ck, _)| ck).collect();
    (MultiRunReport::collect(&m, &cks), images)
}

fn cfg_with(mode: SysMode, cm: CoherenceProtocol) -> MachineConfig {
    MachineConfig::for_mode(mode).with_coherence(cm)
}

#[test]
fn modes_only_change_timing_never_architectural_state() {
    let shards = split(&nas::cg(Scale::Test), 4);
    for mode in SysMode::ALL {
        let cfg = cfg_with(mode, CoherenceProtocol::Mesi);
        let (rep, rep_img) = run_sharded(private_tables(shards.clone()), cfg.clone());
        let (mesi, mesi_img) = run_sharded(shards.clone(), cfg);
        assert_eq!(rep_img, mesi_img, "{mode:?}: memory images diverged");
        for (r, m) in rep.per_core.iter().zip(&mesi.per_core) {
            assert_eq!(
                r.committed, m.committed,
                "{mode:?} core {}: committed work diverged",
                r.core_id
            );
        }
    }
}

#[test]
fn sharded_cg_reads_less_dram_under_mesi() {
    // The acceptance shape: CG's gathered x table (replicated whole by
    // the sharder) is fetched once per core with private tables and
    // once per chip under Mesi.
    let shards = split(&nas::cg(Scale::Test), 4);
    let cfg = cfg_with(SysMode::HybridCoherent, CoherenceProtocol::Mesi);
    let (rep, _) = run_sharded(private_tables(shards.clone()), cfg.clone());
    let (mesi, _) = run_sharded(shards, cfg);
    assert!(
        mesi.total(|c| c.dram_reads) < rep.total(|c| c.dram_reads),
        "Mesi must read less DRAM: {} vs {}",
        mesi.total(|c| c.dram_reads),
        rep.total(|c| c.dram_reads)
    );
    assert!(
        mesi.total(|c| c.coh_shared_hits) > 0,
        "the directory must serve shared hits"
    );
    assert_eq!(
        rep.total(|c| c.coh_shared_hits),
        0,
        "private tables have nothing to share"
    );
}

#[test]
fn mesi_matches_the_default_machine_bit_for_bit() {
    // `with_coherence(Mesi)` must be the default machine exactly — same
    // makespan, same per-core cycle counts: the spec's default protocol
    // is `Mesi`, and nothing else can change it.
    let shards = split(&nas::cg(Scale::Test), 4);
    let (a, _) = run_sharded(
        shards.clone(),
        cfg_with(SysMode::HybridCoherent, CoherenceProtocol::Mesi),
    );
    let (b, _) = run_sharded(shards, MachineConfig::for_mode(SysMode::HybridCoherent));
    assert_eq!(a.makespan, b.makespan);
    for (x, y) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.bus_wait_cycles, y.bus_wait_cycles);
    }
}

#[test]
fn private_tables_run_identically_under_every_protocol() {
    // With no table registered, every line is private to its core and
    // no directory state exists: the protocol cannot show. Pinned on
    // every NAS kernel, core count and system mode, it is what makes
    // the private-tables run the protocol-free baseline.
    let kernels = nas::all_nas(Scale::Test);
    let points: Vec<_> = kernels
        .iter()
        .flat_map(|k| [1, 2, 4].map(|cores| (k, cores)))
        .collect();
    hsim::parallel_map(points, |(kernel, cores)| {
        let Ok(shards) = kernel.shard(cores) else {
            return;
        };
        let shards = private_tables(shards);
        for mode in SysMode::ALL {
            let run = |cm| {
                let spec = RunSpec::many(&shards).config(cfg_with(mode, cm));
                format!("{:?}", spec.run().expect("run").into_multi())
            };
            let [first, rest @ ..] = CoherenceProtocol::ALL;
            let first = run(first);
            for cm in rest {
                assert!(
                    run(cm) == first,
                    "{} x{cores} {mode:?}: private tables differ under {}",
                    kernel.name,
                    cm.name()
                );
            }
        }
    });
}

#[test]
fn hybrid_tracker_stays_clean_under_the_inter_core_protocol() {
    // The §3 non-interaction claim, end to end: with the runtime
    // checker replaying every LM map/writeback and cache residency
    // event, sharing tables through the MESI directory must not create
    // (or mask) a single hybrid-protocol violation.
    let shards = split(&nas::is(Scale::Test), 2);
    for (tables, shards) in [
        ("private", private_tables(shards.clone())),
        ("shared", shards),
    ] {
        let mut cfg = cfg_with(SysMode::HybridCoherent, CoherenceProtocol::Mesi);
        cfg.track_coherence = true;
        let compiled: Vec<_> = shards
            .iter()
            .map(|s| (compile(s, cfg.mode.codegen()), s.clone()))
            .collect();
        let mut m = MultiMachine::for_kernels(cfg, &compiled);
        m.run().expect("run");
        assert_eq!(
            m.violations(),
            0,
            "{tables} tables: hybrid invariants violated"
        );
    }
}

#[test]
fn mesi_coherence_counters_reach_the_reports() {
    let (mesi, _) = run_sharded(
        split(&nas::cg(Scale::Test), 4),
        cfg_with(SysMode::HybridCoherent, CoherenceProtocol::Mesi),
    );
    // Sharing happened and was attributed to cores (partitioned, so the
    // totals are sums of per-core shares by construction).
    let per_core_hits: Vec<u64> = mesi.per_core.iter().map(|r| r.coh_shared_hits).collect();
    assert_eq!(
        per_core_hits.iter().sum::<u64>(),
        mesi.total(|c| c.coh_shared_hits)
    );
    assert!(
        per_core_hits.iter().filter(|&&h| h > 0).count() >= 2,
        "several cores must benefit from sharing: {per_core_hits:?}"
    );
}

#[test]
fn diverged_shard_layouts_fall_back_to_replication() {
    // Uneven shards can lay the shared table out at different addresses
    // per shard (a sliced array whose per-shard size straddles an
    // LM-size alignment boundary shifts everything after it). Sharing a
    // range that is not the same slot in every layout would alias one
    // core's table with another core's unrelated private data, so such
    // arrays must stay private: zero sharing traffic, and Mesi
    // bit-identical to the private-tables run.
    let n = 8193u64; // 2 shards: 4097 vs 4096 elements -> 32776 vs 32768 bytes
    let mut kb = KernelBuilder::new("uneven");
    let a = kb.array_i64_init("a", &vec![1i64; n as usize]);
    let idx = kb.array_i64_init("idx", &(0..n).map(|i| (i % 4) as i64).collect::<Vec<_>>());
    let table = kb.array_i64_init("t", &[10, 20, 30, 40]);
    kb.begin_loop(n);
    let ra = kb.ref_affine(a, 1, 0);
    let ridx = kb.ref_affine(idx, 1, 0);
    let rt = kb.ref_indirect(table, ridx, 0);
    kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::Ref(rt)));
    kb.end_loop();
    let kernel = kb.build().unwrap();

    // Preconditions of the scenario: the table is marked shared, but
    // the two shards lay it out at different bases.
    let shards = kernel.shard(2).unwrap();
    assert!(shards.iter().all(|s| s.arrays[table].shared));
    let bases: Vec<u64> = shards
        .iter()
        .map(|s| compile(s, SysMode::HybridCoherent.codegen()).layout.arrays[table].base)
        .collect();
    assert_ne!(bases[0], bases[1], "the layouts must actually diverge");
    let _ = (a, idx);

    let cfg = cfg_with(SysMode::HybridCoherent, CoherenceProtocol::Mesi);
    let (rep, rep_img) = run_sharded(private_tables(shards.clone()), cfg.clone());
    let (mesi, mesi_img) = run_sharded(shards, cfg);
    assert_eq!(
        mesi.total(|c| c.coh_shared_hits),
        0,
        "diverged table must not share"
    );
    assert_eq!(mesi.total(|c| c.coh_invalidations), 0);
    assert_eq!(
        rep.makespan, mesi.makespan,
        "with nothing registered, Mesi is the private-tables machine"
    );
    assert_eq!(rep_img, mesi_img);
    // The fallback is no longer silent: the report counts the one
    // shared-marked array whose layouts diverged. The private-tables
    // run marks nothing, so nothing falls back.
    assert_eq!(mesi.replication_fallbacks, 1, "fallback must be surfaced");
    assert_eq!(rep.replication_fallbacks, 0);

    // An evenly-splitting sibling (8192 iterations -> two 4096-element
    // slices, identical layouts) registers cleanly and reports zero.
    let even = {
        let n = 8192u64;
        let mut kb = KernelBuilder::new("even");
        let a = kb.array_i64_init("a", &vec![1i64; n as usize]);
        let idx = kb.array_i64_init("idx", &(0..n).map(|i| (i % 4) as i64).collect::<Vec<_>>());
        let table = kb.array_i64_init("t", &[10, 20, 30, 40]);
        kb.begin_loop(n);
        let ra = kb.ref_affine(a, 1, 0);
        let ridx = kb.ref_affine(idx, 1, 0);
        let rt = kb.ref_indirect(table, ridx, 0);
        kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::Ref(rt)));
        kb.end_loop();
        kb.build().unwrap()
    };
    let (even_rep, _) = run_sharded(
        split(&even, 2),
        cfg_with(SysMode::HybridCoherent, CoherenceProtocol::Mesi),
    );
    assert_eq!(even_rep.replication_fallbacks, 0);
    assert!(
        even_rep.total(|c| c.coh_shared_hits) > 0,
        "even shards share cleanly"
    );
}

#[test]
fn coherence_sweep_driver_reports_the_cg_win() {
    let cg = [nas::cg(Scale::Test)];
    let proto = protocol_points(&cg, &[1, 4], SysMode::HybridCoherent).expect("sweep");
    let rows = coherence_view(&proto);
    assert_eq!(rows.len(), 2);
    let ((_, cores), [private, mesi]) = &rows[0];
    assert_eq!(*cores, 1);
    assert_eq!(
        private.makespan, mesi.makespan,
        "a lone core has nothing to share"
    );
    let reads = |m: &MultiRunReport| m.total(|c| c.dram_reads);
    assert_eq!(reads(private), reads(mesi));
    let ((_, cores), [private, mesi]) = &rows[1];
    assert_eq!(*cores, 4);
    assert!(reads(mesi) < reads(private));
    assert!(mesi.total(|c| c.coh_shared_hits) > 0);
}
