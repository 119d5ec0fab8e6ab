//! Layer-isolated replays: each times one layer of the simulator alone,
//! on an input stream the benchmark owns, so a regression names its
//! layer. Streams are drawn from `--seed`; the product sees only the
//! generated addresses.
//!
//! Every replay reports host nanoseconds per operation as the fastest of
//! [`REPS`] repetitions on fresh state.

use crate::stats::Rng;
use hsim::coherence::{CoherenceProtocol, DirConfig, DirLine, Directory, ProtocolTable};
use hsim::compiler::{compile, Kernel};
use hsim::core::config::CoherenceMode;
use hsim::core::{DmaKind, MemSide, MemoryPort, PortDiagnostics, RouteInfo};
use hsim::isa::{Route, Width};
use hsim::machine::{Machine, MachineConfig, SysMode, World};
use hsim::mem::{
    AccessKind, DramConfig, DramController, Level, MemConfig, MemSystem, PagedMem, SharedBackside,
};
use hsim::workloads::{self as w, Scale};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per replay; the fastest is reported.
pub const REPS: usize = 5;

/// Operation counts of the replays: `full` for a measuring run, a
/// sixteenth of it for `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySize {
    /// Kernel scale of the core and memory-stream replays.
    pub scale: Scale,
    /// Operations per synthetic stream.
    pub ops: usize,
    /// Bytes the DRAM and paged-memory streams range over.
    pub span_bytes: u64,
    /// Simulated cycles of the recorded runs.
    pub record_cycles: u64,
}

impl ReplaySize {
    /// The measuring size.
    pub fn full() -> Self {
        ReplaySize {
            scale: Scale::Paper,
            ops: 400_000,
            span_bytes: 64 << 20,
            record_cycles: 1_500_000,
        }
    }

    /// The `--smoke` size.
    pub fn smoke() -> Self {
        ReplaySize {
            scale: Scale::Test,
            ops: 25_000,
            span_bytes: 4 << 20,
            record_cycles: 100_000,
        }
    }
}

/// Fastest of [`REPS`] calls of `f`, each returning seconds, as
/// nanoseconds per operation for `ops` operations. Host noise only ever
/// slows a repetition down, so the fastest is the least disturbed.
fn best_ns_per_op(ops: usize, mut f: impl FnMut() -> f64) -> f64 {
    let secs = (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min);
    secs * 1e9 / ops.max(1) as f64
}

const LINE: u64 = 64;

// ---------------------------------------------------------------- core

/// A memory port that executes accesses functionally against the real
/// `World` but answers every timed access in two cycles: the core
/// pipeline with the whole memory hierarchy taken out.
struct IdealPort {
    world: World,
}

/// Latency the ideal port charges for any data access or fetch.
const IDEAL_LATENCY: u64 = 2;

impl MemoryPort for IdealPort {
    fn exec_mem(
        &mut self,
        pc: u64,
        addr: u64,
        width: Width,
        route: Route,
        store: Option<u64>,
    ) -> (u64, RouteInfo) {
        self.world.exec_mem(pc, addr, width, route, store)
    }

    fn timing_access(&mut self, _: u64, _: u64, info: &RouteInfo, _: bool) -> (u64, Level) {
        let level = match info.side {
            MemSide::Lm => Level::Lm,
            MemSide::Sm => Level::L1,
        };
        (IDEAL_LATENCY, level)
    }

    fn exec_dma(&mut self, now: u64, kind: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64 {
        self.world.exec_dma(now, kind, lm, sm, bytes, tag)
    }

    fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
        self.world.dma_synch(now, tag)
    }

    fn dir_configure(&mut self, buf_size: u64) {
        self.world.dir_configure(buf_size)
    }

    fn fetch_latency(&mut self, _: u64, _: u64) -> u64 {
        IDEAL_LATENCY
    }
}

fn cache_based() -> MachineConfig {
    MachineConfig::for_mode(SysMode::CacheBased).with_coherence(CoherenceMode::Mesi)
}

/// `Core::run` on cache-based EP and SP against [`IdealPort`]: million
/// committed instructions per host second of the pipeline alone.
pub fn core_ideal_port(size: ReplaySize) -> Result<f64, String> {
    let mut committed = 0u64;
    let mut secs = 0.0;
    for kernel in [w::ep(size.scale), w::sp(size.scale)] {
        let cfg = cache_based();
        let ck = compile(&kernel, cfg.mode.codegen());
        let Machine {
            mut core, world, ..
        } = Machine::for_kernel(cfg, &ck, &kernel);
        let mut port = IdealPort { world };
        let t0 = Instant::now();
        core.run(&mut port)
            .map_err(|e| format!("ideal-port {}: {e}", kernel.name))?;
        secs += t0.elapsed().as_secs_f64();
        committed += core.stats.committed;
    }
    Ok(committed as f64 / secs / 1e6)
}

// ----------------------------------------------------------------- mem

/// One recorded system-memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Cycle the access reached the hierarchy.
    pub now: u64,
    /// PC of the instruction (the prefetcher trains on it).
    pub pc: u64,
    /// Address.
    pub addr: u64,
    /// Store (`true`) or load.
    pub write: bool,
}

/// A memory port that is the real `World` and also logs every timed
/// system-memory access, up to a cap.
struct RecordingPort {
    world: World,
    log: Vec<MemAccess>,
    cap: usize,
}

impl MemoryPort for RecordingPort {
    fn exec_mem(
        &mut self,
        pc: u64,
        addr: u64,
        width: Width,
        route: Route,
        store: Option<u64>,
    ) -> (u64, RouteInfo) {
        self.world.exec_mem(pc, addr, width, route, store)
    }

    fn timing_access(&mut self, now: u64, pc: u64, info: &RouteInfo, write: bool) -> (u64, Level) {
        if info.side == MemSide::Sm && self.log.len() < self.cap {
            self.log.push(MemAccess {
                now,
                pc,
                addr: info.addr,
                write,
            });
        }
        self.world.timing_access(now, pc, info, write)
    }

    fn exec_dma(&mut self, now: u64, kind: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64 {
        self.world.exec_dma(now, kind, lm, sm, bytes, tag)
    }

    fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
        self.world.dma_synch(now, tag)
    }

    fn dir_configure(&mut self, buf_size: u64) {
        self.world.dir_configure(buf_size)
    }

    fn fetch_latency(&mut self, now: u64, pc_addr: u64) -> u64 {
        self.world.fetch_latency(now, pc_addr)
    }

    fn next_mem_event_at(&self, now: u64) -> Option<u64> {
        self.world.next_mem_event_at(now)
    }

    fn stall_diagnostics(&self, now: u64) -> PortDiagnostics {
        self.world.stall_diagnostics(now)
    }
}

/// Records the system-memory access stream of the first
/// `size.record_cycles` cycles of `kernel` on one cache-based core.
pub fn record_accesses(kernel: &Kernel, size: ReplaySize) -> Vec<MemAccess> {
    let mut cfg = cache_based();
    // The cycle budget ends the run; the log up to there is the result.
    cfg.core.max_cycles = size.record_cycles;
    let ck = compile(kernel, cfg.mode.codegen());
    let Machine {
        mut core, world, ..
    } = Machine::for_kernel(cfg, &ck, kernel);
    let mut port = RecordingPort {
        world,
        log: Vec::new(),
        cap: size.ops,
    };
    let _ = core.run(&mut port);
    port.log
}

/// Replays `log` into a fresh cache-based `MemSystem` with no pipeline
/// in front of it; returns host ns per `data_access` and the share of
/// accesses the L1 served.
pub fn mem_replay(log: &[MemAccess]) -> (f64, f64) {
    let mut l1_hits = 0usize;
    let ns = best_ns_per_op(log.len(), || {
        let mut mem = MemSystem::new(MemConfig {
            coherence: hsim::mem::CoherenceConfig {
                mode: CoherenceMode::Mesi,
                ..Default::default()
            },
            ..MemConfig::cache_based()
        });
        l1_hits = 0;
        let t0 = Instant::now();
        for a in log {
            let r = mem.data_access(a.now, a.pc, a.addr, a.write);
            l1_hits += usize::from(r.served == Level::L1);
        }
        black_box(&mem);
        t0.elapsed().as_secs_f64()
    });
    (ns, l1_hits as f64 / log.len().max(1) as f64)
}

// ------------------------------------------------------------ backside

/// One backside request of a synthetic stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BacksideReq {
    /// Requesting core.
    pub core: usize,
    /// Line-aligned address.
    pub line: u64,
    /// RFO (`true`) or read.
    pub write: bool,
}

const BACKSIDE_CORES: usize = 4;
/// Base of the range the write-sharing stream marks shared.
const SHARED_BASE: u64 = 0x1000_0000;
/// 512 KiB: fits the L3, so the directory — not DRAM — does the work.
const SHARED_BYTES: u64 = 512 << 10;

/// Private streaming reads: each core walks its own region line by
/// line, cores interleaved round-robin.
pub fn backside_read_stream(ops: usize) -> Vec<BacksideReq> {
    (0..ops)
        .map(|i| {
            let core = i % BACKSIDE_CORES;
            BacksideReq {
                core,
                line: 0x4000_0000 * (core as u64 + 1) + (i / BACKSIDE_CORES) as u64 * LINE,
                write: false,
            }
        })
        .collect()
}

/// Write-sharing: seeded (core, line) over one shared range, a quarter
/// of the requests RFOs.
pub fn backside_share_stream(seed: u64, ops: usize) -> Vec<BacksideReq> {
    let mut r = Rng::new(seed, 0xB5);
    (0..ops)
        .map(|_| BacksideReq {
            core: r.below(BACKSIDE_CORES as u64) as usize,
            line: SHARED_BASE + r.below(SHARED_BYTES / LINE) * LINE,
            write: r.below(4) == 0,
        })
        .collect()
}

/// Host ns per `SharedBackside::access` over `stream` (4 cores, MESI,
/// the multicore L3 port gap). Before each request the requester drains
/// its back-invalidation queue, as a tile does.
pub fn backside_replay(stream: &[BacksideReq]) -> f64 {
    let cfg = MemConfig {
        l3_port_gap: hsim::machine::MultiMachine::DEFAULT_L3_PORT_GAP,
        coherence: hsim::mem::CoherenceConfig {
            mode: CoherenceMode::Mesi,
            ..Default::default()
        },
        ..MemConfig::cache_based()
    };
    best_ns_per_op(stream.len(), || {
        let mut bs = SharedBackside::new(&cfg, BACKSIDE_CORES);
        bs.mark_shared_range(SHARED_BASE, SHARED_BYTES);
        let t0 = Instant::now();
        for (i, q) in stream.iter().enumerate() {
            if bs.has_upper_invals(q.core) {
                black_box(bs.take_upper_invals(q.core));
            }
            let kind = if q.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            black_box(bs.access(q.core, i as u64 * 8, q.line, kind));
        }
        t0.elapsed().as_secs_f64()
    })
}

// ------------------------------------------------- DRAM and paged store

/// Line addresses over `span_bytes`: the first half of the stream
/// sequential, the second half seeded-random.
pub fn line_stream(seed: u64, stream: u64, ops: usize, span_bytes: u64) -> Vec<u64> {
    let lines = span_bytes / LINE;
    let mut r = Rng::new(seed, stream);
    (0..ops)
        .map(|i| {
            if i < ops / 2 {
                (i as u64 % lines) * LINE
            } else {
                r.below(lines) * LINE
            }
        })
        .collect()
}

/// Host ns per `DramController::read` and per `write_posted`.
pub fn dram_replay(seed: u64, size: ReplaySize) -> (f64, f64) {
    let addrs = line_stream(seed, 0xD7, size.ops, size.span_bytes);
    let read = best_ns_per_op(addrs.len(), || {
        let mut d = DramController::new(DramConfig::default());
        let t0 = Instant::now();
        for (i, &a) in addrs.iter().enumerate() {
            black_box(d.read(i as u64 * 16, a));
        }
        t0.elapsed().as_secs_f64()
    });
    let write = best_ns_per_op(addrs.len(), || {
        let mut d = DramController::new(DramConfig::default());
        let t0 = Instant::now();
        for (i, &a) in addrs.iter().enumerate() {
            black_box(d.write_posted(i as u64 * 16, a, i % BACKSIDE_CORES, false));
        }
        t0.elapsed().as_secs_f64()
    });
    (read, write)
}

/// Host ns per `PagedMem` word access: one `write_u64` and one
/// `read_u64` per address of the stream.
pub fn paged_replay(seed: u64, size: ReplaySize) -> f64 {
    let addrs = line_stream(seed, 0x9A, size.ops, size.span_bytes);
    best_ns_per_op(2 * addrs.len(), || {
        let mut m = PagedMem::new();
        let t0 = Instant::now();
        for &a in &addrs {
            m.write_u64(a, a);
        }
        let mut sum = 0u64;
        for &a in &addrs {
            sum = sum.wrapping_add(m.read_u64(a));
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    })
}

// ----------------------------------------------------------- coherence

/// Seeded `(line, core, write)` steps over 4 cores and 256 lines, a
/// third of them writes.
pub fn dirline_stream(seed: u64, ops: usize) -> Vec<(usize, usize, bool)> {
    let mut r = Rng::new(seed, 0xD1);
    (0..ops)
        .map(|_| {
            (
                r.below(256) as usize,
                r.below(BACKSIDE_CORES as u64) as usize,
                r.below(3) == 0,
            )
        })
        .collect()
}

/// Host ns per `DirLine::access` under `protocol`'s table.
pub fn dirline_replay(protocol: CoherenceProtocol, stream: &[(usize, usize, bool)]) -> f64 {
    let table = ProtocolTable::new(protocol);
    best_ns_per_op(stream.len(), || {
        let mut lines = vec![DirLine::empty(); 256];
        let t0 = Instant::now();
        for &(line, core, write) in stream {
            black_box(lines[line].access(&table, core, write));
        }
        t0.elapsed().as_secs_f64()
    })
}

/// Host ns per `Directory::lookup` of the per-tile Figure-4 directory:
/// every buffer mapped, half of the seeded addresses inside a mapped
/// chunk (hits) and half outside (misses).
pub fn dir_lookup_replay(seed: u64, ops: usize) -> f64 {
    let cfg = DirConfig::default();
    let mut dir = Directory::new(cfg.clone());
    let buf = dir.buf_size();
    let n = dir.num_buffers() as u64;
    let mapped_base = 0x1000_0000u64;
    for b in 0..n {
        dir.update_get(cfg.lm_base + b * buf, mapped_base + b * buf, 0)
            .expect("aligned mapping");
    }
    let mut r = Rng::new(seed, 0xD2);
    let addrs: Vec<u64> = (0..ops)
        .map(|_| {
            let off = r.below(n * buf) & !7;
            if r.below(2) == 0 {
                mapped_base + off
            } else {
                mapped_base + n * buf + off
            }
        })
        .collect();
    best_ns_per_op(addrs.len(), || {
        let t0 = Instant::now();
        let mut hits = 0usize;
        for &a in &addrs {
            hits += usize::from(dir.lookup(a).is_some());
        }
        black_box(hits);
        t0.elapsed().as_secs_f64()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_repeat_and_differ_by_seed() {
        assert_eq!(backside_share_stream(3, 500), backside_share_stream(3, 500));
        assert_ne!(backside_share_stream(3, 500), backside_share_stream(4, 500));
        assert_eq!(dirline_stream(3, 500), dirline_stream(3, 500));
        assert_ne!(dirline_stream(3, 500), dirline_stream(4, 500));
        assert_eq!(
            line_stream(3, 1, 500, 1 << 20),
            line_stream(3, 1, 500, 1 << 20)
        );
        assert_ne!(
            line_stream(3, 1, 500, 1 << 20),
            line_stream(4, 1, 500, 1 << 20)
        );
        // The read stream is fixed by construction: no seed.
        assert_eq!(backside_read_stream(8)[5].core, 1);
    }

    #[test]
    fn share_stream_stays_inside_the_marked_range() {
        for q in backside_share_stream(9, 2_000) {
            assert!(q.core < BACKSIDE_CORES);
            assert!((SHARED_BASE..SHARED_BASE + SHARED_BYTES).contains(&q.line));
            assert_eq!(q.line % LINE, 0);
        }
    }

    #[test]
    fn recorded_log_replays_with_the_same_hit_profile() {
        let size = ReplaySize::smoke();
        let log = record_accesses(&w::ep(size.scale), size);
        assert!(!log.is_empty() && log.len() <= size.ops);
        assert!(
            log.windows(2).all(|p| p[0].now <= p[1].now),
            "time moves forward"
        );
        assert_eq!(
            log,
            record_accesses(&w::ep(size.scale), size),
            "recording repeats"
        );
        let (ns, l1_share) = mem_replay(&log);
        assert!(ns > 0.0);
        assert!(l1_share > 0.5, "EP is L1-resident, got {l1_share}");
    }

    #[test]
    fn every_replay_runs_at_smoke_size() {
        let size = ReplaySize::smoke();
        assert!(core_ideal_port(size).expect("ideal port") > 0.0);
        assert!(backside_replay(&backside_read_stream(size.ops)) > 0.0);
        assert!(backside_replay(&backside_share_stream(1, size.ops)) > 0.0);
        let (rd, wr) = dram_replay(1, size);
        assert!(rd > 0.0 && wr > 0.0);
        assert!(paged_replay(1, size) > 0.0);
        for p in [
            CoherenceProtocol::Msi,
            CoherenceProtocol::Mesi,
            CoherenceProtocol::Moesi,
            CoherenceProtocol::Mesif,
        ] {
            assert!(dirline_replay(p, &dirline_stream(1, size.ops)) > 0.0);
        }
        assert!(dir_lookup_replay(1, size.ops) > 0.0);
    }
}
