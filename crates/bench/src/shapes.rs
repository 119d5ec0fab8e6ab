//! Shape invariants: the orderings and identities the results must
//! keep, each written once and called from both the sweep that measures
//! it and the `figshapes` guard — a violated shape is a failed build,
//! not a silently drifting figure.

use crate::figures::{fig7_points, inst_ratio, overhead, speedup, time_ratio, two_systems};
use crate::figures::{VS_CACHE, VS_ORACLE};
use crate::sweeps::{
    comm_points, hetero_points, hetero_shapes, protocol_points, round_cycles, scaling_points,
    scaling_speedup, CommRow, ProtocolRow,
};
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
pub fn protocol_family_ordering<'p, 'k>(point: &'p [ProtocolRow<'k>]) -> [&'p ProtocolRow<'k>; 4] {
    let row = |cm: CoherenceProtocol| {
        point
            .iter()
            .find(|((.., m), _)| *m == Some(cm))
            .unwrap_or_else(|| panic!("every point runs under {}", cm.name()))
    };
    use CoherenceProtocol::{Mesi, Mesif, Moesi, Msi};
    let (msi, mesi, moesi, mesif) = (row(Msi), row(Mesi), row(Moesi), row(Mesif));
    let ((kernel, cores, _), _) = mesi;
    let what = format!("{} x{cores}", kernel.name);
    let [r_msi, r_mesi, r_moesi] = [msi, mesi, moesi].map(|r| dram_reads(&r.1));
    assert!(
        r_msi >= r_mesi,
        "{what}: MSI DRAM reads ({r_msi}) must be >= MESI ({r_mesi})"
    );
    assert!(
        r_mesi >= r_moesi,
        "{what}: MESI DRAM reads ({r_mesi}) must be >= MOESI ({r_moesi})"
    );
    let (h_mesif, h_mesi) = (shared_hits(&mesif.1), shared_hits(&mesi.1));
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
pub fn comm_orderings(rows: &[CommRow], cores: usize) -> [&CommRow; 5] {
    let find = |workload: &str, mode: SysMode, proto: Option<CoherenceProtocol>| {
        rows.iter()
            .find(|((w, c, m, cm), _)| {
                (*w, *c, *m) == (workload, cores, mode) && (proto.is_none() || proto == Some(*cm))
            })
            .unwrap_or_else(|| panic!("{workload} x{cores} must run on {mode:?} {proto:?}"))
    };
    let hybrid = find("pingpong", SysMode::HybridCoherent, None);
    let cache = find("pingpong", SysMode::CacheBased, None);
    assert!(
        round_cycles(hybrid) < round_cycles(cache),
        "pingpong x{cores}: hybrid LM+DMA RTT ({:.1}) must beat the \
         cache-coherent flag-spinning RTT ({:.1})",
        round_cycles(hybrid),
        round_cycles(cache)
    );
    let q = |proto| find("queue", SysMode::CacheBased, Some(proto));
    use CoherenceProtocol::{Mesif, Moesi, Msi};
    let (msi, moesi, mesif) = (q(Msi), q(Moesi), q(Mesif));
    let msi_reads = dram_reads(&msi.1 .0);
    for ((.., cm), (report, _)) in [moesi, mesif] {
        let reads = dram_reads(report);
        assert!(
            msi_reads >= reads,
            "queue x{cores}: MSI hand-off DRAM reads ({msi_reads}) must be >= {} ({reads})",
            cm.name()
        );
    }
    [hybrid, cache, msi, moesi, mesif]
}

/// The figure-shapes guard: asserts the monotonicity and ordering
/// invariants of the paper's figures (7, 8, 9), the scaling curves, the
/// mixed-chip interpolation and the protocol/communication orderings on
/// a small grid, then returns. The single-core figures are
/// coherence-mode-invariant (an unsharded kernel registers no shared
/// ranges); the multicore sections run under `--coherence` and are
/// asserted at shape level, so the guard holds under every mode.
pub fn figshapes(flags: Flags) {
    let n: u64 = flags.pick(2 * 1024, 4 * 1024);
    let mut checked = 0usize;

    // ---------------------------------------------------------- fig 7
    // RD guards are free (the CAM lookup fits the AGU cycle); WR
    // overhead grows monotonically with the guarded share, driven by
    // the double store's extra instructions.
    let pts = fig7_points(n, 50).expect("fig7");
    let of = |mode| pts.iter().filter(move |((m, _), _)| *m == mode);
    for p in of(MicroMode::Rd) {
        assert!(
            (overhead(p) - 1.0).abs() < 0.05,
            "fig7 RD@{}%: overhead must be ~1.0, got {:.3}",
            p.0 .1,
            overhead(p)
        );
        checked += 1;
    }
    let wr: Vec<_> = of(MicroMode::Wr).collect();
    for w in wr.windows(2) {
        assert!(
            overhead(w[1]) >= overhead(w[0]) - 0.02,
            "fig7 WR: overhead must be monotone in the guarded share \
             ({:.3}@{}% -> {:.3}@{}%)",
            overhead(w[0]),
            w[0].0 .1,
            overhead(w[1]),
            w[1].0 .1
        );
        checked += 1;
    }
    let wr_last = wr.last().expect("WR points");
    assert!(
        overhead(wr_last) > overhead(wr[0]) + 0.05,
        "fig7 WR: the curve must actually rise"
    );
    assert!(
        inst_ratio(wr_last) > 1.10,
        "fig7 WR@100%: the double store must add instructions"
    );
    checked += 2;
    println!("fig7 shapes OK (RD flat, WR monotone rising)");

    // ---------------------------------------------------------- fig 8
    // Protocol overhead vs the oracle: never a speedup beyond noise,
    // and the double-store kernels (IS) sit above the read-only ones
    // (CG).
    let f8_kernels = [nas::is(Scale::Test), nas::cg(Scale::Test)];
    let f8 = two_systems(&f8_kernels, VS_ORACLE).expect("fig8");
    let ratio = |name: &str| time_ratio(&f8.iter().find(|(k, _)| k.name == name).unwrap().1);
    for (k, r) in &f8 {
        assert!(
            time_ratio(r) > 0.999,
            "fig8 {}: the coherent machine cannot beat the oracle ({:.4})",
            k.name,
            time_ratio(r)
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
    let f9_kernels = [
        nas::ep(Scale::Test),
        nas::ft(Scale::Test),
        nas::mg(Scale::Test),
    ];
    let f9 = two_systems(&f9_kernels, VS_CACHE).expect("fig9");
    let speedup_of = |name: &str| speedup(&f9.iter().find(|(k, _)| k.name == name).unwrap().1);
    assert!(speedup_of("MG") > 1.1, "fig9 MG: {:.2}", speedup_of("MG"));
    assert!(speedup_of("FT") > 1.05, "fig9 FT: {:.2}", speedup_of("FT"));
    assert!(
        speedup_of("MG") > speedup_of("EP") && speedup_of("FT") > speedup_of("EP"),
        "fig9 ordering: memory-bound kernels ({:.2}, {:.2}) must beat EP ({:.2})",
        speedup_of("MG"),
        speedup_of("FT"),
        speedup_of("EP")
    );
    assert!(
        (0.75..1.3).contains(&speedup_of("EP")),
        "fig9 EP must sit near parity: {:.2}",
        speedup_of("EP")
    );
    checked += 4;
    println!("fig9 shapes OK (MG/FT favor hybrid, EP near parity)");

    // -------------------------------------------------------- scaling
    // Sharding a kernel over more cores must shrink the makespan
    // monotonically and keep the speedup curve rising; the shared
    // backside keeps it sublinear (speedup < cores).
    let cg = nas::cg(Scale::Test);
    let cfg = flags.config(SysMode::HybridCoherent);
    let curves = scaling_points(std::slice::from_ref(&cg), &[1, 2, 4], &cfg).expect("scaling");
    assert_eq!(curves.len(), 3, "CG must shard to every point");
    let makespan = |i: usize| curves[i].1[0].makespan;
    let s: Vec<f64> = curves.iter().map(scaling_speedup).collect();
    for i in 1..curves.len() {
        let cores = |i: usize| curves[i].0 .1;
        assert!(
            makespan(i) < makespan(i - 1),
            "scaling: makespan must shrink with cores ({}@x{} -> {}@x{})",
            makespan(i - 1),
            cores(i - 1),
            makespan(i),
            cores(i)
        );
        assert!(s[i] > s[i - 1], "scaling: speedup must rise with cores");
        checked += 2;
    }
    for (((_, cores), _), s) in curves.iter().zip(&s) {
        assert!(
            *s <= *cores as f64 + 1e-9,
            "scaling x{cores}: speedup {s:.2} cannot be superlinear here"
        );
        checked += 1;
    }
    let bus_wait = |i: usize| curves[i].1[0].total(|c| c.bus_wait_cycles);
    assert!(
        bus_wait(2) >= bus_wait(0),
        "scaling: contention must not shrink with more cores"
    );
    checked += 1;
    println!(
        "scaling shapes OK (CG x1/2/4 speedups {:.2}/{:.2}/{:.2}, {:?} coherence)",
        s[0], s[1], s[2], cfg.mem.coherence.mode
    );

    // --------------------------------------------------------- hetero
    // Mixed hybrid/cache chips: mixing in cache-based tiles moves the
    // makespan toward (and between) the all-cache endpoint — the
    // coexistence claim, as a curve.
    let cores = 4;
    let shapes = hetero_shapes(cores, flags.coherence);
    let chips = hetero_points(std::slice::from_ref(&cg), &shapes).expect("hetero sweep");
    let chip = |shape: &str| {
        let row = chips.iter().find(|((_, (label, ..)), _)| label == shape);
        row.unwrap_or_else(|| panic!("CG must run on {shape}"))
            .1
            .makespan
    };
    let (all_hybrid, mixed, all_cache) = (chip("4H+0C"), chip("2H+2C"), chip("0H+4C"));
    let homo = RunSpec::new(&cg)
        .cores(cores)
        .config(cfg.clone())
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
    // CG x4 with private tables and under every protocol; no run may
    // change committed work (`protocol_points` asserts it for every row).
    let proto = protocol_points(std::slice::from_ref(&cg), &[4], SysMode::HybridCoherent)
        .expect("protocol sweep");
    let [msi, mesi, moesi, mesif] = protocol_family_ordering(&proto);
    checked += 3 + proto.len();
    println!(
        "protocol shapes OK (CG x4 dramR msi/mesi/moesi {}/{}/{}, \
         shrhits mesif/mesi {}/{})",
        dram_reads(&msi.1),
        dram_reads(&mesi.1),
        dram_reads(&moesi.1),
        shared_hits(&mesif.1),
        shared_hits(&mesi.1)
    );

    // ----------------------------------------------- comm workloads
    let comm = comm_points(Scale::Test, &[4], flags.coherence).expect("comm sweep");
    let [pp_hybrid, pp_cache, q_msi, q_moesi, q_mesif] = comm_orderings(&comm, 4);
    // Protocols are timing-only: every cache-based queue run commits
    // the same instructions regardless of the directory table. (The
    // hybrid rows commit a different count — LM+DMA codegen — so the
    // invariance is asserted within one system mode.)
    let cache_queue: Vec<_> = comm
        .iter()
        .filter(|((w, _, mode, _), _)| *w == "queue" && *mode == SysMode::CacheBased)
        .collect();
    for ((.., cm), (report, _)) in &cache_queue {
        assert_eq!(
            committed(report),
            committed(&q_msi.1 .0),
            "comm: queue committed work must be protocol-invariant ({})",
            cm.name()
        );
    }
    checked += 3 + cache_queue.len();
    println!(
        "comm shapes OK (pingpong RTT hybrid/cache {:.1}/{:.1}, \
         queue dramR msi/moesi/mesif {}/{}/{})",
        round_cycles(pp_hybrid),
        round_cycles(pp_cache),
        dram_reads(&q_msi.1 .0),
        dram_reads(&q_moesi.1 .0),
        dram_reads(&q_mesif.1 .0)
    );

    println!("all figure shapes hold ({checked} assertions)");
}
