//! Shape invariants: the orderings and identities the results must
//! keep, each written once and called from both the sweep that measures
//! it and the `figshapes` guard — a violated shape is a failed build,
//! not a silently drifting figure.

use crate::Flags;
use hsim::prelude::*;
use hsim_workloads::nas;

fn dram_reads(m: &MultiRunReport) -> u64 {
    m.total(|c| c.dram_reads)
}

fn shared_hits(m: &MultiRunReport) -> u64 {
    m.total(|c| c.coh_shared_hits)
}

fn committed(m: &MultiRunReport) -> u64 {
    m.total(|c| c.committed)
}

/// The all-hybrid heterogeneous chip is the homogeneous machine,
/// exactly: the hetero path is a pure generalization.
pub fn all_hybrid_is_homogeneous(kernel: &str, all_hybrid: u64, homogeneous: u64) {
    assert_eq!(
        all_hybrid, homogeneous,
        "{kernel}: the all-hybrid hetero chip must reproduce the homogeneous \
         machine bit for bit"
    );
}

/// A mixed hybrid/cache chip's makespan sits between the all-hybrid and
/// all-cache endpoints (inclusive, with a small contention tolerance).
pub fn mixed_chip_interpolates(what: &str, mixed: u64, all_hybrid: u64, all_cache: u64) {
    let (lo, hi) = (all_hybrid.min(all_cache), all_hybrid.max(all_cache));
    assert!(
        mixed as f64 >= lo as f64 * 0.95 && mixed as f64 <= hi as f64 * 1.05,
        "{what}: mixed makespan {mixed} must interpolate the endpoints [{lo}, {hi}]"
    );
}

/// One kernel × core-count point under every directory protocol:
/// dirty-recall policy orders the DRAM read counts — MSI re-reads
/// memory on every dirty recall, MESI serves recalls without a re-read,
/// MOESI's dirty sharing can only drop further reads — and MESIF's
/// designated forwarder never scores fewer shared hits than MESI. Ties
/// are legitimate on read-mostly tables: the orderings are non-strict.
/// Returns the `[msi, mesi, moesi, mesif]` rows of the point.
pub fn protocol_family_ordering(point: &[ProtocolSweepRow]) -> [&ProtocolSweepRow; 4] {
    let row = |name: &str| {
        point
            .iter()
            .find(|r| r.protocol == name)
            .unwrap_or_else(|| panic!("every point runs under {name}"))
    };
    let (msi, mesi, moesi, mesif) = (row("msi"), row("mesi"), row("moesi"), row("mesif"));
    let what = format!("{} x{}", mesi.kernel, mesi.cores);
    let [r_msi, r_mesi, r_moesi] = [msi, mesi, moesi].map(|r| dram_reads(&r.report));
    assert!(
        r_msi >= r_mesi,
        "{what}: MSI DRAM reads ({r_msi}) must be >= MESI ({r_mesi})"
    );
    assert!(
        r_mesi >= r_moesi,
        "{what}: MESI DRAM reads ({r_mesi}) must be >= MOESI ({r_moesi})"
    );
    let (h_mesif, h_mesi) = (shared_hits(&mesif.report), shared_hits(&mesi.report));
    assert!(
        h_mesif >= h_mesi,
        "{what}: MESIF shared hits ({h_mesif}) must be >= MESI ({h_mesi})"
    );
    [msi, mesi, moesi, mesif]
}

/// The communication sweep's headline orderings at one core count.
/// Hybrid tiles move the ping-pong payload through LM + DMA bulk
/// transfers and keep only the `no_map`'d flags coherent; cache-based
/// tiles ping-pong every payload line through invalidations and
/// interventions, so the hybrid round trip must be cheaper. On the
/// cache-based queue hand-off, MSI recalls every dirty line through
/// DRAM while MOESI's dirty sharing and MESIF's forwarder avoid the
/// re-read: MSI upper-bounds both on DRAM reads. Returns the
/// `[pingpong hybrid, pingpong cache, queue msi, queue moesi, queue
/// mesif]` rows.
pub fn comm_orderings(rows: &[CommSweepRow], cores: usize) -> [&CommSweepRow; 5] {
    let find = |workload: &str, mode: SysMode, proto: Option<&str>| {
        rows.iter()
            .find(|r| {
                r.workload == workload
                    && r.cores == cores
                    && r.mode == mode
                    && (proto.is_none() || proto == Some(&r.protocol))
            })
            .unwrap_or_else(|| panic!("{workload} x{cores} must run on {mode:?} {proto:?}"))
    };
    let hybrid = find("pingpong", SysMode::HybridCoherent, None);
    let cache = find("pingpong", SysMode::CacheBased, None);
    assert!(
        hybrid.round_cycles < cache.round_cycles,
        "pingpong x{cores}: hybrid LM+DMA RTT ({:.1}) must beat the \
         cache-coherent flag-spinning RTT ({:.1})",
        hybrid.round_cycles,
        cache.round_cycles
    );
    let q = |proto| find("queue", SysMode::CacheBased, Some(proto));
    let (msi, moesi, mesif) = (q("msi"), q("moesi"), q("mesif"));
    let msi_reads = dram_reads(&msi.report);
    for other in [moesi, mesif] {
        let reads = dram_reads(&other.report);
        assert!(
            msi_reads >= reads,
            "queue x{cores}: MSI hand-off DRAM reads ({msi_reads}) must be >= {} ({reads})",
            other.protocol
        );
    }
    [hybrid, cache, msi, moesi, mesif]
}

/// The figure-shapes guard: asserts the monotonicity and ordering
/// invariants of the paper's figures (7, 8, 9), the scaling curves, the
/// mixed-chip interpolation and the protocol/communication orderings on
/// a small grid, then returns. The single-core figures are
/// coherence-mode-invariant (an unsharded kernel registers no shared
/// ranges); the multicore sections are asserted at shape level so the
/// guard holds under every `HSIM_COHERENCE` leg.
pub fn figshapes(flags: Flags) {
    let n: u64 = flags.pick(2 * 1024, 4 * 1024);
    let par = Parallelism::HostThreads;
    let mut checked = 0usize;

    // ---------------------------------------------------------- fig 7
    // RD guards are free (the CAM lookup fits the AGU cycle); WR
    // overhead grows monotonically with the guarded share, driven by
    // the double store's extra instructions.
    let pts = fig7(n, 50, par).expect("fig7");
    for p in pts.iter().filter(|p| p.mode == MicroMode::Rd) {
        assert!(
            (p.overhead - 1.0).abs() < 0.05,
            "fig7 RD@{}%: overhead must be ~1.0, got {:.3}",
            p.pct,
            p.overhead
        );
        checked += 1;
    }
    let wr: Vec<_> = pts.iter().filter(|p| p.mode == MicroMode::Wr).collect();
    for w in wr.windows(2) {
        assert!(
            w[1].overhead >= w[0].overhead - 0.02,
            "fig7 WR: overhead must be monotone in the guarded share \
             ({:.3}@{}% -> {:.3}@{}%)",
            w[0].overhead,
            w[0].pct,
            w[1].overhead,
            w[1].pct
        );
        checked += 1;
    }
    let wr_last = wr.last().expect("WR points");
    assert!(
        wr_last.overhead > wr[0].overhead + 0.05,
        "fig7 WR: the curve must actually rise"
    );
    assert!(
        wr_last.inst_ratio > 1.10,
        "fig7 WR@100%: the double store must add instructions"
    );
    checked += 2;
    println!("fig7 shapes OK (RD flat, WR monotone rising)");

    // ---------------------------------------------------------- fig 8
    // Protocol overhead vs the oracle: never a speedup beyond noise,
    // and the double-store kernels (IS) sit above the read-only ones
    // (CG).
    let f8 = fig8(&[nas::is(Scale::Test), nas::cg(Scale::Test)], par).expect("fig8");
    let ratio = |name: &str| f8.iter().find(|r| r.name == name).unwrap().time_ratio;
    for r in &f8 {
        assert!(
            r.time_ratio > 0.999,
            "fig8 {}: the coherent machine cannot beat the oracle ({:.4})",
            r.name,
            r.time_ratio
        );
        checked += 1;
    }
    assert!(
        ratio("IS") >= ratio("CG"),
        "fig8: double-store IS ({:.4}) must pay at least read-only CG ({:.4})",
        ratio("IS"),
        ratio("CG")
    );
    checked += 1;
    println!("fig8 shapes OK (no oracle beating, IS >= CG overhead)");

    // ---------------------------------------------------------- fig 9
    // Hybrid vs cache-based: the stream/reuse kernels (MG, FT) must
    // favor the hybrid, compute-bound EP sits near parity below them.
    let f9 = compare_systems(
        &[
            nas::ep(Scale::Test),
            nas::ft(Scale::Test),
            nas::mg(Scale::Test),
        ],
        par,
    )
    .expect("fig9");
    let speedup = |name: &str| f9.iter().find(|r| r.name == name).unwrap().speedup;
    assert!(speedup("MG") > 1.1, "fig9 MG: {:.2}", speedup("MG"));
    assert!(speedup("FT") > 1.05, "fig9 FT: {:.2}", speedup("FT"));
    assert!(
        speedup("MG") > speedup("EP") && speedup("FT") > speedup("EP"),
        "fig9 ordering: memory-bound kernels ({:.2}, {:.2}) must beat EP ({:.2})",
        speedup("MG"),
        speedup("FT"),
        speedup("EP")
    );
    assert!(
        (0.75..1.3).contains(&speedup("EP")),
        "fig9 EP must sit near parity: {:.2}",
        speedup("EP")
    );
    checked += 4;
    println!("fig9 shapes OK (MG/FT favor hybrid, EP near parity)");

    // -------------------------------------------------------- scaling
    // Sharding a kernel over more cores must shrink the makespan
    // monotonically and keep the speedup curve rising; the shared
    // backside keeps it sublinear (speedup < cores).
    let cg = nas::cg(Scale::Test);
    let cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
    let curves = scaling_sweep(std::slice::from_ref(&cg), &[1, 2, 4], &cfg, par).expect("scaling");
    assert_eq!(curves.len(), 3, "CG must shard to every point");
    for w in curves.windows(2) {
        assert!(
            w[1].report.makespan < w[0].report.makespan,
            "scaling: makespan must shrink with cores ({}@x{} -> {}@x{})",
            w[0].report.makespan,
            w[0].cores,
            w[1].report.makespan,
            w[1].cores
        );
        assert!(
            w[1].speedup > w[0].speedup,
            "scaling: speedup must rise with cores"
        );
        checked += 2;
    }
    for r in &curves {
        assert!(
            r.speedup <= r.cores as f64 + 1e-9,
            "scaling x{}: speedup {:.2} cannot be superlinear here",
            r.cores,
            r.speedup
        );
        checked += 1;
    }
    assert!(
        curves[2].report.total(|c| c.bus_wait_cycles)
            >= curves[0].report.total(|c| c.bus_wait_cycles),
        "scaling: contention must not shrink with more cores"
    );
    checked += 1;
    println!(
        "scaling shapes OK (CG x1/2/4 speedups {:.2}/{:.2}/{:.2}, {:?} coherence)",
        curves[0].speedup, curves[1].speedup, curves[2].speedup, cfg.mem.coherence.mode
    );

    // --------------------------------------------------------- hetero
    // Mixed hybrid/cache chips: mixing in cache-based tiles moves the
    // makespan toward (and between) the all-cache endpoint — the
    // coexistence claim, as a curve.
    let cores = 4;
    let chips = hetero_sweep(std::slice::from_ref(&cg), cores, par).expect("hetero sweep");
    let chip = |shape: &str| {
        let row = chips.iter().find(|r| r.label == shape);
        row.unwrap_or_else(|| panic!("CG must run on {shape}"))
            .report
            .makespan
    };
    let (all_hybrid, mixed, all_cache) = (chip("4H+0C"), chip("2H+2C"), chip("0H+4C"));
    let homo = RunSpec::new(&cg)
        .cores(cores)
        .run()
        .expect("homogeneous run")
        .into_multi()
        .makespan;
    all_hybrid_is_homogeneous("CG", all_hybrid, homo);
    mixed_chip_interpolates("CG 2H+2C", mixed, all_hybrid, all_cache);
    assert!(
        all_hybrid < all_cache,
        "hetero: CG must favor the hybrid endpoint ({all_hybrid} vs {all_cache})"
    );
    checked += 3;
    println!(
        "hetero shapes OK (CG 4H/2H+2C/0H makespans {all_hybrid}/{mixed}/{all_cache}, \
         all-hybrid == homogeneous)"
    );

    // ------------------------------------------------- protocol family
    // CG x4 under every directory protocol; no protocol may change
    // committed work (`protocol_sweep` asserts it for every row).
    let proto = protocol_sweep(
        std::slice::from_ref(&cg),
        &[4],
        SysMode::HybridCoherent,
        par,
    )
    .expect("protocol sweep");
    let [msi, mesi, moesi, mesif] = protocol_family_ordering(&proto);
    checked += 3 + proto.len();
    println!(
        "protocol shapes OK (CG x4 dramR msi/mesi/moesi {}/{}/{}, \
         shrhits mesif/mesi {}/{})",
        dram_reads(&msi.report),
        dram_reads(&mesi.report),
        dram_reads(&moesi.report),
        shared_hits(&mesif.report),
        shared_hits(&mesi.report)
    );

    // ----------------------------------------------- comm workloads
    let comm = comm_sweep(Scale::Test, &[4], par).expect("comm sweep");
    let [pp_hybrid, pp_cache, q_msi, q_moesi, q_mesif] = comm_orderings(&comm, 4);
    // Protocols are timing-only: every cache-based queue run commits
    // the same instructions regardless of the directory table. (The
    // hybrid rows commit a different count — LM+DMA codegen — so the
    // invariance is asserted within one system mode.)
    let cache_queue: Vec<_> = comm
        .iter()
        .filter(|r| r.workload == "queue" && r.mode == SysMode::CacheBased)
        .collect();
    for r in &cache_queue {
        assert_eq!(
            committed(&r.report),
            committed(&q_msi.report),
            "comm: queue committed work must be protocol-invariant ({})",
            r.protocol
        );
    }
    checked += 3 + cache_queue.len();
    println!(
        "comm shapes OK (pingpong RTT hybrid/cache {:.1}/{:.1}, \
         queue dramR msi/moesi/mesif {}/{}/{})",
        pp_hybrid.round_cycles,
        pp_cache.round_cycles,
        dram_reads(&q_msi.report),
        dram_reads(&q_moesi.report),
        dram_reads(&q_mesif.report)
    );

    println!("all figure shapes hold ({checked} assertions)");
}
