//! Shape tests for the paper's experiments at test scale: the qualitative
//! claims (who wins, what is flat, what grows) must hold even on the
//! small workloads the CI runs. The drivers are the bench driver's
//! (`hsim_bench`), so these tests run the code that prints the figures.

use hsim::prelude::*;
use hsim_bench::figures::{
    energy_ratio, fig7_points, inst_ratio, overhead, speedup, time_ratio, two_systems, VS_CACHE,
    VS_ORACLE,
};
use hsim_bench::sweeps::{
    hetero_points, hetero_shapes, hybrid_tiles, scaling_points, scaling_speedup, small_lm_tiles,
};
use hsim_workloads::nas;

#[test]
fn fig7_rd_is_free_and_wr_grows_linearly() {
    let pts = fig7_points(4 * 1024, 20).unwrap();
    let of = |mode| pts.iter().filter(move |((m, _), _)| *m == mode);
    // RD: flat at 1.0 (guarded loads are free — the lookup fits the AGU
    // cycle).
    for p in of(MicroMode::Rd) {
        assert!(
            (overhead(p) - 1.0).abs() < 0.02,
            "RD overhead at {}% must be ~1.0, got {:.3}",
            p.0 .1,
            overhead(p)
        );
    }
    // WR: monotonically growing with the guarded share, driven by the
    // double store's extra instructions.
    let wr: Vec<_> = of(MicroMode::Wr).collect();
    assert!(
        overhead(wr.last().unwrap()) > 1.15,
        "WR @100% must cost >15%"
    );
    assert!(
        overhead(wr.last().unwrap()) < 1.6,
        "WR @100% must stay bounded"
    );
    for w in wr.windows(2) {
        assert!(
            overhead(w[1]) >= overhead(w[0]) - 0.02,
            "WR overhead must grow with the guarded share"
        );
    }
    // Instruction count at 100% grows by the double store's extra store.
    assert!(inst_ratio(wr.last().unwrap()) > 1.15);
    assert!(inst_ratio(wr.last().unwrap()) < 1.35);
    // RD/WR tracks WR (the guarded load adds nothing).
    let rdwr: Vec<_> = of(MicroMode::RdWr).collect();
    for (a, b) in wr.iter().zip(&rdwr) {
        assert!(
            (overhead(a) - overhead(b)).abs() < 0.05,
            "RD/WR must track WR at {}%",
            a.0 .1
        );
    }
}

#[test]
fn fig8_overheads_are_small_and_double_store_driven() {
    let kernels = nas::all_nas(Scale::Test);
    let rows = two_systems(&kernels, VS_ORACLE).unwrap();
    for (k, r) in &rows {
        let [coherent, oracle] = r;
        match k.name.as_str() {
            // No potentially incoherent writes: zero time overhead.
            "CG" | "MG" | "SP" => {
                assert!(
                    (time_ratio(r) - 1.0).abs() < 0.002,
                    "{} must have ~zero protocol overhead, got {:.4}",
                    k.name,
                    time_ratio(r)
                );
            }
            // Double-store kernels: small but nonzero.
            "EP" | "FT" | "IS" => {
                assert!(
                    time_ratio(r) < 1.15,
                    "{} overhead must stay small, got {:.3}",
                    k.name,
                    time_ratio(r)
                );
                assert!(coherent.committed > oracle.committed);
            }
            _ => unreachable!(),
        }
        // Energy overhead present but bounded.
        assert!(
            energy_ratio(r) >= 0.999 && energy_ratio(r) < 1.15,
            "{}",
            k.name
        );
    }
}

#[test]
fn fig9_memory_bound_kernels_favor_the_hybrid() {
    // At test scale the footprints are small, so only the strongest
    // effects are asserted: MG and FT (many streams, heavy reuse) must
    // favor the hybrid; EP (compute-bound) must be close to parity.
    let kernels = vec![
        nas::ep(Scale::Test),
        nas::ft(Scale::Test),
        nas::mg(Scale::Test),
    ];
    let rows = two_systems(&kernels, VS_CACHE).unwrap();
    let get = |n: &str| speedup(&rows.iter().find(|(k, _)| k.name == n).unwrap().1);
    assert!(get("MG") > 1.2, "MG: {:.2}", get("MG"));
    assert!(get("FT") > 1.1, "FT: {:.2}", get("FT"));
    let ep = get("EP");
    assert!((0.8..1.25).contains(&ep), "EP must be near parity: {ep:.2}");
}

#[test]
fn fig10_hybrid_saves_energy_on_stream_kernels() {
    let kernels = vec![nas::ft(Scale::Test), nas::mg(Scale::Test)];
    for (k, r) in two_systems(&kernels, VS_CACHE).unwrap() {
        assert!(
            energy_ratio(&r) < 0.95,
            "{}: hybrid must save energy, got {:.3}",
            k.name,
            energy_ratio(&r)
        );
        // The LM itself must be a small fraction of total energy (paper:
        // <5%).
        let [hybrid, _] = &r;
        let lm_share = hybrid.energy.lm / hybrid.energy_total();
        assert!(lm_share < 0.10, "{}: LM share {:.3}", k.name, lm_share);
    }
}

#[test]
fn table3_activity_shifts_from_caches_to_lm() {
    let kernels = vec![nas::mg(Scale::Test)];
    let rows = two_systems(&kernels, VS_CACHE).unwrap();
    let [hybrid, cache] = &rows[0].1;
    // The hybrid system must serve most traffic from the LM and touch the
    // caches less than the cache-based system does.
    assert!(hybrid.lm_accesses > 0);
    assert!(
        hybrid.l1_accesses < cache.l1_accesses,
        "L1 activity must drop: {} vs {}",
        hybrid.l1_accesses,
        cache.l1_accesses
    );
    assert!(hybrid.amat < cache.amat, "AMAT must improve");
}

#[test]
fn parallel_drivers_match_sequential_results() {
    // Every sweep driver fans its points out through `parallel_map`: it
    // must return exactly `Iterator::map`'s outputs, in input order,
    // whichever worker finishes first (later items take less work here,
    // so they tend to finish first).
    let items: Vec<u64> = (0..64).collect();
    let f = |i: u64| {
        let spin = (64 - i) * 1_000;
        let h = (0..spin).fold(i, |h, x| h.wrapping_mul(31).wrapping_add(x));
        format!("{i}:{h}")
    };
    let want: Vec<String> = items.iter().copied().map(f).collect();
    assert_eq!(hsim::parallel_map(items, f), want);
    assert!(hsim::parallel_map(Vec::<u64>::new(), f).is_empty());
}

#[test]
fn scaling_sweep_produces_rising_sublinear_curves() {
    // The promoted scaling experiment: per kernel, speedup rises with
    // cores but stays sublinear (shared backside), and the 1-core point
    // is exactly 1.0 by construction — under every inter-core protocol.
    for cm in CoherenceProtocol::ALL {
        let cg = [nas::cg(Scale::Test)];
        let rows = scaling_points(&cg, &[1, 2, 4], &hybrid(cm)).unwrap();
        assert_eq!(rows.len(), 3);
        let s: Vec<f64> = rows.iter().map(scaling_speedup).collect();
        assert!((s[0] - 1.0).abs() < 1e-12, "1-core speedup is 1");
        for w in s.windows(2) {
            assert!(
                w[1] > w[0],
                "{cm:?}: speedup must rise: {:.2} -> {:.2}",
                w[0],
                w[1]
            );
        }
        for (((_, cores), _), s) in rows.iter().zip(&s) {
            assert!(
                *s <= *cores as f64,
                "{cm:?} x{cores}: sublinear expected, got {s:.2}"
            );
        }
    }
}

#[test]
fn hetero_sweep_covers_the_shapes() {
    // The heterogeneous sweep on a 2-core chip: every hybrid:cache
    // ratio plus the LM-asymmetry and weighted shapes, with the
    // all-hybrid anchor equal to the homogeneous machine — under every
    // inter-core protocol.
    let kernels = [nas::cg(Scale::Test)];
    for cm in CoherenceProtocol::ALL {
        let shapes = hetero_shapes(2, cm);
        let rows = hetero_points(&kernels, &shapes).unwrap();
        let labels: Vec<&str> = rows.iter().map(|((_, (l, ..)), _)| l.as_str()).collect();
        assert_eq!(
            labels,
            ["2H+0C", "1H+1C", "0H+2C", "2H lm/4x1", "1H+1C w2:1"],
            "{cm:?}: CG must shard to every 2-core shape"
        );
        let shape = |l: &str| shapes.iter().find(|(label, ..)| label == l).unwrap();
        assert_eq!(hybrid_tiles(&shape("2H+0C").1), 2);
        assert_eq!(hybrid_tiles(&shape("0H+2C").1), 0);
        assert_eq!(small_lm_tiles(&shape("2H lm/4x1").1), 1);
        assert_eq!(shape("1H+1C w2:1").2, vec![2, 1]);
        let by = |l: &str| {
            &rows
                .iter()
                .find(|((_, (label, ..)), _)| label == l)
                .unwrap()
                .1
        };

        // The all-hybrid shape anchors to the homogeneous machine
        // exactly.
        let homo = RunSpec::new(&kernels[0])
            .cores(2)
            .config(hybrid(cm))
            .track(false)
            .run()
            .map(RunOutcome::into_multi)
            .unwrap();
        assert_eq!(by("2H+0C").makespan, homo.makespan, "{cm:?}");
        assert_eq!(
            by("2H+0C").total(|c| c.committed),
            homo.total(|c| c.committed),
            "{cm:?}"
        );
        // Mixing in the cache tile costs cycles on CG.
        assert!(by("1H+1C").makespan > by("2H+0C").makespan, "{cm:?}");
    }
}

/// The hybrid-coherent machine under `cm`.
fn hybrid(cm: CoherenceProtocol) -> MachineConfig {
    MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm)
}

#[test]
fn multicore_sharding_scales_the_makespan_down() {
    // One CG kernel sharded over 1/2/4 cores of one machine: more cores
    // means a shorter makespan (the slices shrink), while the shared
    // backside keeps the scaling sublinear and the contention visible —
    // under every inter-core protocol.
    let kernel = nas::cg(Scale::Test);
    let solo = RunSpec::new(&kernel)
        .mode(SysMode::HybridCoherent)
        .track(false)
        .run()
        .map(RunOutcome::into_single)
        .unwrap();
    for cm in CoherenceProtocol::ALL {
        let m1 = RunSpec::new(&kernel)
            .cores(1)
            .config(hybrid(cm))
            .track(false)
            .run()
            .map(RunOutcome::into_multi)
            .unwrap();
        let m2 = RunSpec::new(&kernel)
            .cores(2)
            .config(hybrid(cm))
            .track(false)
            .run()
            .map(RunOutcome::into_multi)
            .unwrap();
        let m4 = RunSpec::new(&kernel)
            .cores(4)
            .config(hybrid(cm))
            .track(false)
            .run()
            .map(RunOutcome::into_multi)
            .unwrap();
        assert_eq!(m1.n_cores(), 1);
        assert_eq!(m4.n_cores(), 4);
        assert!(
            m2.makespan < m1.makespan && m4.makespan < m2.makespan,
            "{cm:?}: makespan must shrink with cores: {} / {} / {}",
            m1.makespan,
            m2.makespan,
            m4.makespan
        );
        // The whole kernel's work happens: the per-core committed counts sum
        // close to the unsharded run (per-shard control overhead aside).
        let total = m4.total(|c| c.committed) as f64;
        assert!(
            total > 0.8 * solo.committed as f64,
            "{cm:?}: sharded work went missing: {} vs {}",
            total,
            solo.committed
        );
        // Sharing the backside must add waits beyond the one-core floor (a
        // lone core can still queue behind its own outstanding misses).
        assert!(
            m4.total(|c| c.bus_wait_cycles) > m1.total(|c| c.bus_wait_cycles),
            "{cm:?}: four cores must contend: {} vs {}",
            m4.total(|c| c.bus_wait_cycles),
            m1.total(|c| c.bus_wait_cycles)
        );
        assert_eq!(m4.total(|c| c.violations), 0);
    }
}
