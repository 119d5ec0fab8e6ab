//! Communication-workload equivalence and determinism suite.
//!
//! The comm kernel sets (`hsim_workloads::comm`) are where the
//! inter-core protocol actually works for a living, so they get the
//! same treatment the NAS shards do:
//!
//! - **skip == lockstep**: the event-horizon scheduler must stay a pure
//!   host-speed optimization under flag ping-pong, dirty queue
//!   hand-offs and the request-serving gather — across every
//!   [`CoherenceProtocol`], on hybrid and cache-based chips.
//! - **clusters serial == threaded**: comm kernel sets on the cluster
//!   machine are bit-identical whether the clusters run on one host
//!   thread or one thread each.
//! - **open-loop determinism** (proptest): the request-serving arrival
//!   replay is pure integer math on a seeded stream — the same seed
//!   must render a byte-identical report.
//! - **diverged comm layouts are hard errors**: a per-core kernel set
//!   whose comm-marked declarations disagree must fail with
//!   [`ShardError::CommLayoutDiverged`] — flat, or as the clustered
//!   run's typed `ClusterFailure::Shard` — never silently fall back to
//!   replication and report wrong-answer timings.

use hsim::compiler::ShardError;
use hsim::prelude::*;
use hsim_workloads::comm;

mod common;
use common::Unskipped;

/// Runs one comm kernel set with and without cycle skipping and
/// demands identical observables.
fn check_skip_lockstep(w: &comm::CommWorkload, mode: SysMode, cm: CoherenceProtocol) {
    let what = format!("{} {mode:?} {}", w.name, cm.name());
    let cfg = MachineConfig::for_mode(mode).with_coherence(cm);
    let skip = RunSpec::many(&w.kernels)
        .config(cfg.clone())
        .run()
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .into_multi();
    let lock = RunSpec::many(&w.kernels)
        .config(cfg.with_lockstep())
        .run()
        .unwrap_or_else(|e| panic!("{what} lockstep: {e}"))
        .into_multi();
    assert_eq!(skip.unskipped(), lock, "{what}");
}

/// Ping-pong and queue hand-offs — the protocol-differentiating
/// traffic — under every coherence mode on both chip styles.
#[test]
fn skip_equals_lockstep_for_handoff_workloads_all_protocols() {
    for w in [
        comm::ping_pong(Scale::Test, 4),
        comm::queue(Scale::Test, 4, 64),
    ] {
        for cm in CoherenceProtocol::ALL {
            for mode in [SysMode::HybridCoherent, SysMode::CacheBased] {
                check_skip_lockstep(&w, mode, cm);
            }
        }
    }
}

/// Lock and barrier contention under every coherence mode (one chip
/// style each keeps the matrix affordable; the hand-off suite above
/// covers the mode × system cross).
#[test]
fn skip_equals_lockstep_for_contention_workloads() {
    for cm in CoherenceProtocol::ALL {
        check_skip_lockstep(&comm::lock(Scale::Test, 4), SysMode::CacheBased, cm);
        check_skip_lockstep(&comm::barrier(Scale::Test, 4), SysMode::HybridCoherent, cm);
    }
}

/// Four hybrid tiles contending for one lock word at Paper scale: the
/// spinning tiles' posted stores keep recalling the line, and the home
/// bank's port may be booked at most `BANK_BACKLOG_WINDOW` ahead. The
/// makespans are pinned: without the cap the backlog delays the next
/// demand load to the bank by hundreds of thousands of cycles — a wait
/// that now completes, so only its length shows the missing bound.
#[test]
fn hybrid_lock_completes_at_paper_scale_under_every_protocol() {
    let w = comm::lock(Scale::Paper, 4);
    for (cm, makespan) in [
        (CoherenceProtocol::Msi, 74_132),
        (CoherenceProtocol::Mesi, 70_966),
        (CoherenceProtocol::Moesi, 70_966),
        (CoherenceProtocol::Mesif, 70_966),
    ] {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let report = RunSpec::many(&w.kernels)
            .config(cfg)
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", cm.name()))
            .into_multi();
        assert_eq!(report.makespan, makespan, "{}", cm.name());
    }
}

/// The request-serving gather set (shared read-mostly table) is
/// skip-clean too — this is the machine run under the open-loop driver.
#[test]
fn skip_equals_lockstep_for_request_serving_set() {
    let w = comm::request_serving(Scale::Test, 4);
    let fake = comm::CommWorkload {
        name: "serve".into(),
        kernels: w.kernels,
        rounds: w.requests_per_core,
    };
    for cm in CoherenceProtocol::ALL {
        for mode in [SysMode::HybridCoherent, SysMode::CacheBased] {
            check_skip_lockstep(&fake, mode, cm);
        }
    }
}

/// Comm kernel sets on the clustered machine: one host thread per
/// cluster must be bit-identical to the serial oracle, under every
/// [`CoherenceProtocol`].
#[test]
fn clusters_serial_matches_threaded_for_comm_sets() {
    let sets = [
        comm::ping_pong(Scale::Test, 4),
        comm::queue(Scale::Test, 4, 64),
    ];
    for (w, cm) in sets
        .iter()
        .flat_map(|w| CoherenceProtocol::ALL.map(|cm| (w, cm)))
    {
        let topo = ClusterTopology::new(2, 2);
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let serial = RunSpec::many(&w.kernels)
            .clustered(&ClusterConfig::new(topo).serial())
            .config(cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{} {cm:?} serial: {e}", w.name))
            .into_clusters();
        let threaded = RunSpec::many(&w.kernels)
            .clustered(&ClusterConfig::new(topo))
            .config(cfg)
            .run()
            .unwrap_or_else(|e| panic!("{} {cm:?} threaded: {e}", w.name))
            .into_clusters();
        let what = format!("{} {cm:?}", w.name);
        assert_eq!(serial.makespan, threaded.makespan, "{what}: makespan");
        assert_eq!(
            serial.total(|c| c.committed),
            threaded.total(|c| c.committed),
            "{what}: committed"
        );
        assert_eq!(
            serial.total(|c| c.skipped_cycles),
            threaded.total(|c| c.skipped_cycles),
            "{what}: skipped"
        );
        assert_eq!(
            serial.total(|c| c.dram_reads),
            threaded.total(|c| c.dram_reads),
            "{what}: DRAM reads"
        );
        assert_eq!(
            serial.cross_cluster_fallbacks, threaded.cross_cluster_fallbacks,
            "{what}: fallbacks"
        );
    }
}

/// A per-core kernel set whose comm-marked arrays disagree (here: two
/// queues of different capacities) must be rejected outright — wrong
/// layouts would silently turn the hand-off into private traffic and
/// report meaningless timings.
#[test]
fn diverged_comm_layout_is_a_hard_error() {
    fn queue_kernel(slots: u64) -> Kernel {
        let mut kb = KernelBuilder::new("divergent.queue");
        let q = kb.array_f64("q", slots);
        kb.mark_comm(q);
        kb.begin_loop(64);
        let rq = kb.ref_affine(q, 1, 0);
        kb.stmt(rq, Expr::add(Expr::Ref(rq), Expr::ConstF(1.0)));
        kb.end_loop();
        kb.build().expect("divergent queue kernel")
    }
    let kernels = vec![queue_kernel(1024), queue_kernel(2048)];
    match RunSpec::many(&kernels).run() {
        Err(MultiRunError::Shard(ShardError::CommLayoutDiverged { .. })) => {}
        Err(other) => panic!("expected CommLayoutDiverged, got {other}"),
        Ok(_) => panic!("diverging comm layouts must not run"),
    }
    // The clustered shape fails the cluster with the same typed error —
    // on the 1×2 machine, and on 2×2, whose clusters each get their own
    // host thread unless serial.
    for clusters in [1, 2] {
        let kernels: Vec<Kernel> = kernels.iter().cycle().take(2 * clusters).cloned().collect();
        let topo = ClusterTopology::new(clusters, 2);
        for cluster in [ClusterConfig::new(topo), ClusterConfig::new(topo).serial()] {
            let what = format!("{clusters}x2 serial={}", cluster.serial_clusters);
            match RunSpec::many(&kernels).clustered(&cluster).run() {
                Err(MultiRunError::Cluster(e)) => {
                    assert_eq!(e.failures.len(), clusters, "{what}: {e}");
                    for (_, cause) in &e.failures {
                        assert!(
                            matches!(
                                cause,
                                ClusterFailure::Shard(ShardError::CommLayoutDiverged { name })
                                    if name == "q"
                            ),
                            "{what}: expected CommLayoutDiverged, got {cause}"
                        );
                        assert!(cause.to_string().contains("\"q\""), "{what}: {cause}");
                    }
                }
                Err(other) => panic!("{what}: expected a cluster failure, got {other}"),
                Ok(_) => panic!("{what}: diverging comm layouts must not run"),
            }
        }
    }
}

/// The request-serving machine: hybrid-coherent tiles under `cm`.
fn server(cm: CoherenceProtocol) -> MachineConfig {
    MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm)
}

/// Different arrival seeds actually change the replay (the proptest
/// below pins the converse), under every [`CoherenceProtocol`].
#[test]
fn different_seeds_change_the_request_serving_report() {
    for cm in CoherenceProtocol::ALL {
        let a = hsim::request_serving_on(&server(cm), Scale::Test, 2, 1, 700).unwrap();
        let b = hsim::request_serving_on(&server(cm), Scale::Test, 2, 2, 700).unwrap();
        assert_ne!(
            a.render(),
            b.render(),
            "{cm:?}: seed must steer the arrivals"
        );
        assert_eq!(
            a.requests, b.requests,
            "{cm:?}: seed must not change the load"
        );
    }
}

mod open_loop_determinism {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The paper-facing pin: the open-loop replay is a pure
        /// function of (machine, workload, seed, load) — the same seed
        /// renders a byte-identical report, under any protocol.
        #[test]
        fn same_seed_renders_byte_identical_reports(
            seed in any::<u64>(),
            load in 100u64..901,
            mode_idx in 0usize..CoherenceProtocol::ALL.len(),
        ) {
            let cfg = server(CoherenceProtocol::ALL[mode_idx]);
            let a = hsim::request_serving_on(&cfg, Scale::Test, 2, seed, load).unwrap();
            let b = hsim::request_serving_on(&cfg, Scale::Test, 2, seed, load).unwrap();
            prop_assert_eq!(a.render(), b.render());
            prop_assert_eq!(a.latency.p99(), b.latency.p99());
            prop_assert_eq!(a.span_cycles, b.span_cycles);
        }
    }
}
