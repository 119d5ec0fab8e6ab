//! Shape tests for the paper's experiments at test scale: the qualitative
//! claims (who wins, what is flat, what grows) must hold even on the
//! small workloads the CI runs.

use hsim::prelude::*;
use hsim_workloads::nas;

#[test]
fn fig7_rd_is_free_and_wr_grows_linearly() {
    let pts = fig7(4 * 1024, 20).unwrap();
    // RD: flat at 1.0 (guarded loads are free — the lookup fits the AGU
    // cycle).
    for p in pts.iter().filter(|p| p.mode == MicroMode::Rd) {
        assert!(
            (p.overhead - 1.0).abs() < 0.02,
            "RD overhead at {}% must be ~1.0, got {:.3}",
            p.pct,
            p.overhead
        );
    }
    // WR: monotonically growing with the guarded share, driven by the
    // double store's extra instructions.
    let wr: Vec<_> = pts.iter().filter(|p| p.mode == MicroMode::Wr).collect();
    assert!(
        wr.last().unwrap().overhead > 1.15,
        "WR @100% must cost >15%"
    );
    assert!(
        wr.last().unwrap().overhead < 1.6,
        "WR @100% must stay bounded"
    );
    for w in wr.windows(2) {
        assert!(
            w[1].overhead >= w[0].overhead - 0.02,
            "WR overhead must grow with the guarded share"
        );
    }
    // Instruction count at 100% grows by the double store's extra store.
    assert!(wr.last().unwrap().inst_ratio > 1.15);
    assert!(wr.last().unwrap().inst_ratio < 1.35);
    // RD/WR tracks WR (the guarded load adds nothing).
    let rdwr: Vec<_> = pts.iter().filter(|p| p.mode == MicroMode::RdWr).collect();
    for (a, b) in wr.iter().zip(&rdwr) {
        assert!(
            (a.overhead - b.overhead).abs() < 0.05,
            "RD/WR must track WR at {}%",
            a.pct
        );
    }
}

#[test]
fn fig8_overheads_are_small_and_double_store_driven() {
    let kernels = nas::all_nas(Scale::Test);
    let rows = fig8(&kernels).unwrap();
    for r in &rows {
        match r.name.as_str() {
            // No potentially incoherent writes: zero time overhead.
            "CG" | "MG" | "SP" => {
                assert!(
                    (r.time_ratio - 1.0).abs() < 0.002,
                    "{} must have ~zero protocol overhead, got {:.4}",
                    r.name,
                    r.time_ratio
                );
            }
            // Double-store kernels: small but nonzero.
            "EP" | "FT" | "IS" => {
                assert!(
                    r.time_ratio < 1.15,
                    "{} overhead must stay small, got {:.3}",
                    r.name,
                    r.time_ratio
                );
                assert!(r.coherent.committed > r.oracle.committed);
            }
            _ => unreachable!(),
        }
        // Energy overhead present but bounded.
        assert!(
            r.energy_ratio >= 0.999 && r.energy_ratio < 1.15,
            "{}",
            r.name
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
    let rows = compare_systems(&kernels).unwrap();
    let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
    assert!(get("MG").speedup > 1.2, "MG: {:.2}", get("MG").speedup);
    assert!(get("FT").speedup > 1.1, "FT: {:.2}", get("FT").speedup);
    let ep = get("EP").speedup;
    assert!((0.8..1.25).contains(&ep), "EP must be near parity: {ep:.2}");
}

#[test]
fn fig10_hybrid_saves_energy_on_stream_kernels() {
    let kernels = vec![nas::ft(Scale::Test), nas::mg(Scale::Test)];
    for r in compare_systems(&kernels).unwrap() {
        assert!(
            r.energy_norm < 0.95,
            "{}: hybrid must save energy, got {:.3}",
            r.name,
            r.energy_norm
        );
        // The LM itself must be a small fraction of total energy (paper:
        // <5%).
        let lm_share = r.hybrid.energy.lm / r.hybrid.energy_total();
        assert!(lm_share < 0.10, "{}: LM share {:.3}", r.name, lm_share);
    }
}

#[test]
fn table3_activity_shifts_from_caches_to_lm() {
    let kernels = vec![nas::mg(Scale::Test)];
    let r = &compare_systems(&kernels).unwrap()[0];
    // The hybrid system must serve most traffic from the LM and touch the
    // caches less than the cache-based system does.
    assert!(r.hybrid.lm_accesses > 0);
    assert!(
        r.hybrid.l1_accesses < r.cache.l1_accesses,
        "L1 activity must drop: {} vs {}",
        r.hybrid.l1_accesses,
        r.cache.l1_accesses
    );
    assert!(r.hybrid.amat < r.cache.amat, "AMAT must improve");
}

#[test]
fn geomean_helper() {
    let g = hsim::geomean([2.0, 8.0].into_iter());
    assert!((g - 4.0).abs() < 1e-12);
    assert_eq!(hsim::geomean(std::iter::empty()), 1.0);
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
    for cm in CoherenceMode::ALL {
        let rows = scaling_sweep(&[nas::cg(Scale::Test)], &[1, 2, 4], &hybrid(cm)).unwrap();
        assert_eq!(rows.len(), 3);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12, "1-core speedup is 1");
        for w in rows.windows(2) {
            assert!(
                w[1].speedup > w[0].speedup,
                "{cm:?}: speedup must rise: {:.2} -> {:.2}",
                w[0].speedup,
                w[1].speedup
            );
        }
        for r in &rows {
            assert!(
                r.speedup <= r.cores as f64,
                "{cm:?} x{}: sublinear expected, got {:.2}",
                r.cores,
                r.speedup
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
    for cm in CoherenceMode::ALL {
        let rows = hetero_sweep(&kernels, 2, cm).unwrap();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            ["2H+0C", "1H+1C", "0H+2C", "2H lm/4x1", "1H+1C w2:1"],
            "{cm:?}: CG must shard to every 2-core shape"
        );
        let by = |l: &str| rows.iter().find(|r| r.label == l).unwrap();
        assert_eq!(by("2H+0C").hybrid_tiles, 2);
        assert_eq!(by("0H+2C").hybrid_tiles, 0);
        assert_eq!(by("2H lm/4x1").small_lm_tiles, 1);
        assert_eq!(by("1H+1C w2:1").weights, vec![2, 1]);

        // The all-hybrid shape anchors to the homogeneous machine
        // exactly.
        let homo = RunSpec::new(&kernels[0])
            .cores(2)
            .config(hybrid(cm))
            .track(false)
            .run()
            .map(RunOutcome::into_multi)
            .unwrap();
        assert_eq!(by("2H+0C").report.makespan, homo.makespan, "{cm:?}");
        assert_eq!(
            by("2H+0C").report.total(|c| c.committed),
            homo.total(|c| c.committed),
            "{cm:?}"
        );
        // Mixing in the cache tile costs cycles on CG.
        assert!(
            by("1H+1C").report.makespan > by("2H+0C").report.makespan,
            "{cm:?}"
        );
    }
}

/// The hybrid-coherent machine under `cm`.
fn hybrid(cm: CoherenceMode) -> MachineConfig {
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
    for cm in CoherenceMode::ALL {
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
