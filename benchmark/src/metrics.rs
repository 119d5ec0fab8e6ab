//! The benchmark's metrics: name, unit and direction of each, and for
//! the end-to-end ones the bound by which they may worsen. This table
//! and `BENCHMARK.json` say the same thing; a unit test holds them
//! together.

/// One metric of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name, layer-qualified for per-layer metrics (`"core.tick_s"`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: None,
    }
}

/// What a user of the simulator sees, per workload. Host timings sum
/// each point's fastest timed run (see `run::end_to_end`).
///
/// The host-time bounds are 24 %, not the 10 % the issue proposed: ten
/// 28 s runs of one commit on the shared 2-CPU sandbox spread 1–4 % when
/// the host was quiet, but 12 s runs spread up to 24 % on the driver's
/// host (README, "Steadiness"), and a bound inside the noise fails on
/// noise alone. They stay a hair under `setup_s`'s so that set-up keeps
/// the largest bound.
pub const END_TO_END: [Metric; 6] = [
    // One pass: generate → shard → compile → build → run → collect.
    e2e("wall_s", "s", true, 0.24),
    // The part of a pass outside Machine::run / MultiMachine::run /
    // run_clusters. Milliseconds on three workloads, hence the widest
    // bound.
    e2e("setup_s", "s", true, 0.25),
    e2e("sim_minstr_per_s", "Minstr/s", false, 0.24),
    // The ROADMAP's definition of "fast".
    e2e("sim_mcycles_per_s", "Mcycles/s", false, 0.24),
    // Simulated time: exact for a given seed, so a change that only
    // speeds the simulator up must leave it identical.
    e2e("sim_cycles", "cycles", true, 0.005),
    // 15 %, not the issue's 10 %: `clusters_2x8` reads 36.2–40.4 MiB
    // from one process to the next on identical inputs.
    e2e("peak_rss_mb", "MiB", true, 0.15),
];

/// Metrics of single layers, from the traced pass and the replays.
pub const PER_LAYER: [Metric; 51] = [
    // Spans around the benchmark's calls into each layer.
    layer("workloads.gen_s", "s", true),
    layer("compiler.shard_s", "s", true),
    layer("compiler.compile_s", "s", true),
    layer("compiler.insts", "count", true),
    layer("machine.build_s", "s", true),
    layer("machine.run_s", "s", true),
    layer("metrics.collect_s", "s", true),
    // HostProfile of the traced pass.
    layer("core.tick_s", "s", true),
    layer("core.ticks", "count", true),
    layer("core.ns_per_tick", "ns", true),
    layer("core.advance_s", "s", true),
    layer("core.advances", "count", true),
    layer("machine.horizon_s", "s", true),
    layer("machine.horizon_scans", "count", true),
    // Simulated counters of the collected reports: exact.
    layer("core.committed", "count", false),
    layer("core.cycles", "cycles", true),
    layer("core.skipped_fraction", "ratio", false),
    layer("mem.l1_accesses", "count", true),
    layer("mem.l1d_hit_ratio", "%", false),
    layer("mem.l2_accesses", "count", true),
    layer("mem.lm_accesses", "count", true),
    layer("backside.l3_accesses", "count", true),
    layer("backside.bus_wait_cycles", "cycles", true),
    layer("backside.bank_conflicts", "count", true),
    layer("dram.reads", "count", true),
    layer("dram.writes", "count", true),
    layer("dram.row_hit_rate", "%", false),
    layer("coherence.dir_accesses", "count", true),
    layer("coherence.shared_hits", "count", false),
    layer("coherence.invalidations", "count", true),
    layer("coherence.interventions", "count", true),
    layer("coherence.dirty_recalls", "count", true),
    layer("metrics.serve_p99_cycles", "cycles", true),
    // Layer-isolated replays.
    layer("core.ideal_port_minstr_per_s", "Minstr/s", false),
    layer("mem.replay_hit_ns_per_access", "ns", true),
    layer("mem.replay_miss_ns_per_access", "ns", true),
    layer("backside.read_ns_per_access", "ns", true),
    layer("backside.write_share_ns_per_access", "ns", true),
    layer("dram.read_ns", "ns", true),
    layer("dram.write_posted_ns", "ns", true),
    layer("mem.paged_rw_ns", "ns", true),
    layer("coherence.dirline_ns_per_step.msi", "ns", true),
    layer("coherence.dirline_ns_per_step.mesi", "ns", true),
    layer("coherence.dirline_ns_per_step.moesi", "ns", true),
    layer("coherence.dirline_ns_per_step.mesif", "ns", true),
    layer("coherence.dir_lookup_ns", "ns", true),
    // The cluster drivers (0 on workloads without clusters).
    layer("cluster.run_s", "s", true),
    layer("cluster.epoch_overhead_s", "s", true),
    layer("cluster.threaded_run_s", "s", true),
    layer("cluster.thread_speedup", "x", false),
    // Traced machine.run_s ÷ untraced: what HostProfile's timers cost.
    layer("trace.overhead_ratio", "ratio", true),
];

#[cfg(test)]
/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
/// Whether `s` is a name the benchmark contract accepts: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn is_plain_name(s: &str) -> bool {
    s.len() <= 64
        && s.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[cfg(test)]
/// Whether `s` is a unit the benchmark contract accepts.
pub fn is_plain_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_and_units_are_plain_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(is_plain_name(m.name), "name {}", m.name);
            assert!(is_plain_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(!is_plain_name(""));
        assert!(!is_plain_name(".hidden"));
        assert!(!is_plain_name("has space"));
        assert!(!is_plain_name(&"x".repeat(65)));
        assert!(!is_plain_unit("M instr"));
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must not drift apart.
    #[test]
    fn benchmark_json_matches_this_table() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let check = |key: &str, table: &[Metric]| {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} count");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
                let better = if m.lower_is_better { "lower" } else { "higher" };
                assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let listed = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(w.why));
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }
}
