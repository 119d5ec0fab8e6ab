//! The request-serving macro-workload: a machine run measures the
//! per-request service time, then a deterministic open-loop arrival
//! process replays it into a latency report.

use super::spec::{MultiRunError, RunOutcome, RunSpec};
use crate::machine::{MachineConfig, SysMode};
use crate::metrics::{LatencyHistogram, RequestServingReport};
use hsim_workloads::comm as commw;
use hsim_workloads::Scale;

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The request-serving macro-workload: `cores` server tiles built from
/// `cfg` gather from one shared read-mostly table
/// ([`hsim_workloads::comm::request_serving`]), then a **deterministic
/// open-loop arrival process** replays the measured per-core service
/// times against seeded inter-arrival gaps:
///
/// 1. The machine run measures each core's mean service time per
///    request (`core cycles / requests`, backside contention included).
/// 2. Arrivals are drawn open-loop (they never wait for completions)
///    from a seeded xorshift64 stream, uniform in `[1, 2·gap]` where
///    `gap` is set so the offered load is `load_permille`/1000 of the
///    measured chip capacity.
/// 3. Requests dispatch round-robin to per-core FIFOs; completion is
///    `max(arrival, core free) + service`, and `completion − arrival`
///    is the recorded sojourn latency.
///
/// Everything after the machine run is integer math on a seeded
/// stream: the same seed gives a byte-identical
/// [`RequestServingReport::render`] (pinned by proptest).
pub fn request_serving_on(
    cfg: &MachineConfig,
    scale: Scale,
    cores: usize,
    seed: u64,
    load_permille: u64,
) -> Result<RequestServingReport, MultiRunError> {
    let w = commw::request_serving(scale, cores);
    let m = RunSpec::many(&w.kernels)
        .config(cfg.clone())
        .run()
        .map(RunOutcome::into_multi)?;
    let service: Vec<u64> = m
        .per_core
        .iter()
        .map(|r| (r.cycles / w.requests_per_core).max(1))
        .collect();
    let avg_service = (service.iter().sum::<u64>() / service.len().max(1) as u64).max(1);
    let mean_gap = (avg_service * 1000 / (load_permille.max(1) * cores as u64)).max(1);
    let requests = w.requests_per_core * cores as u64;
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    if state == 0 {
        state = 1;
    }
    let mut latency = LatencyHistogram::new();
    let mut free = vec![0u64; cores];
    let mut arrival = 0u64;
    let mut first_arrival = None;
    let mut last_completion = 0u64;
    for i in 0..requests {
        arrival += 1 + xorshift64(&mut state) % (2 * mean_gap);
        if first_arrival.is_none() {
            first_arrival = Some(arrival);
        }
        let c = (i % cores as u64) as usize;
        let start = arrival.max(free[c]);
        let done = start + service[c];
        free[c] = done;
        last_completion = last_completion.max(done);
        latency.record(done - arrival);
    }
    Ok(RequestServingReport {
        name: "serve".into(),
        mode: cfg.mode,
        cores,
        seed,
        requests,
        service_cycles: avg_service,
        mean_interarrival: mean_gap,
        span_cycles: last_completion - first_arrival.unwrap_or(0),
        latency,
    })
}

/// [`request_serving_on`] the default `mode` machine (MESI). Kept only for the frozen repository benchmark
/// (`benchmark/`), which calls it by this signature; the ROADMAP's
/// benchmark-unfreeze item moves that call to [`request_serving_on`]
/// and deletes this wrapper.
pub fn request_serving(
    scale: Scale,
    cores: usize,
    mode: SysMode,
    seed: u64,
    load_permille: u64,
) -> Result<RequestServingReport, MultiRunError> {
    let cfg = MachineConfig::for_mode(mode);
    request_serving_on(&cfg, scale, cores, seed, load_permille)
}
