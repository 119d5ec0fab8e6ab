//! IP-based stream prefetcher (Table 1: "IP-based stream prefetcher to L1,
//! L2 and L3", after Chen & Baer and the Intel Core smart-memory-access
//! design).
//!
//! The prefetcher keeps a finite, direct-mapped history table indexed by
//! the load/store PC. Each entry learns the stride of its stream and, once
//! confident, issues prefetches `distance` lines ahead with a configurable
//! `degree`. The **finite table is load-bearing for the paper's
//! evaluation**: loops with many concurrent strided references (MG: 60,
//! SP: 497) overflow the table, entries are continually re-allocated
//! ("collisions in the history tables of the prefetchers", §4.3), training
//! never completes, and the cache-based system loses both the prefetch
//! benefit and cache capacity to useless prefetches. The hybrid memory
//! system sidesteps this by serving strided references from the LM.

/// Prefetcher configuration.
#[derive(Clone, Debug)]
pub struct PrefetchConfig {
    /// Number of history-table entries (per-PC streams tracked).
    pub table_entries: usize,
    /// Consecutive same-stride observations required before prefetching.
    pub train_threshold: u32,
    /// Lines prefetched per trigger.
    pub degree: u32,
    /// How many strides ahead the first prefetch lands.
    pub distance: u32,
    /// Enables the prefetcher.
    pub enabled: bool,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            table_entries: 64,
            train_threshold: 2,
            degree: 2,
            distance: 4,
            enabled: true,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct StreamEntry {
    pc_tag: u64,
    valid: bool,
    last_addr: u64,
    stride: i64,
    confidence: u32,
}

/// Prefetcher statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchStats {
    /// Training observations processed.
    pub observations: u64,
    /// Table collisions: a PC evicted another live stream's entry.
    pub collisions: u64,
    /// Prefetch addresses issued.
    pub issued: u64,
}

/// The IP-based stream prefetcher.
pub struct StreamPrefetcher {
    cfg: PrefetchConfig,
    table: Vec<StreamEntry>,
    mask: usize,
    /// Statistics.
    pub stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// Builds a prefetcher; `table_entries` is rounded up to a power of
    /// two.
    pub fn new(cfg: PrefetchConfig) -> Self {
        let n = cfg.table_entries.next_power_of_two().max(1);
        StreamPrefetcher {
            mask: n - 1,
            table: vec![StreamEntry::default(); n],
            cfg,
            stats: PrefetchStats::default(),
        }
    }

    /// Observes a demand access from `pc` to `addr` and replaces the
    /// contents of `out` with the line addresses to prefetch (none while
    /// training or disabled). The caller keeps `out` across calls, so a
    /// trained stream allocates nothing.
    pub fn observe(&mut self, pc: u64, addr: u64, line_bytes: u64, out: &mut Vec<u64>) {
        out.clear();
        if !self.cfg.enabled {
            return;
        }
        self.stats.observations += 1;
        // Instructions are 8-byte aligned: hash on the instruction index
        // so consecutive memory PCs spread over the whole table.
        let idx = ((pc >> 3) as usize ^ (pc >> 9) as usize) & self.mask;
        let e = &mut self.table[idx];
        if !e.valid || e.pc_tag != pc {
            if e.valid && e.pc_tag != pc {
                self.stats.collisions += 1;
            }
            *e = StreamEntry {
                pc_tag: pc,
                valid: true,
                last_addr: addr,
                stride: 0,
                confidence: 0,
            };
            return;
        }
        let stride = addr as i64 - e.last_addr as i64;
        e.last_addr = addr;
        if stride == 0 {
            return;
        }
        if stride == e.stride {
            e.confidence = e.confidence.saturating_add(1);
        } else {
            e.stride = stride;
            e.confidence = 0;
        }
        if e.confidence < self.cfg.train_threshold {
            return;
        }
        // Confident: prefetch `degree` lines starting `distance` *lines*
        // ahead in the stream's direction. Small strides advance less
        // than a line per access, so the lookahead must be line-granular
        // for the prefetch to stay ahead of the demand stream
        // (timeliness). Strides larger than a line use the stride itself.
        let line_mask = !(line_bytes - 1);
        let step = if stride.unsigned_abs() >= line_bytes {
            stride
        } else {
            stride.signum() * line_bytes as i64
        };
        for k in 0..self.cfg.degree {
            let target = addr as i64 + step * (self.cfg.distance + k) as i64;
            if target < 0 {
                continue;
            }
            let line = target as u64 & line_mask;
            if !out.contains(&line) && line != (addr & line_mask) {
                out.push(line);
            }
        }
        self.stats.issued += out.len() as u64;
    }

    /// Fraction of observations that collided in the table (0..1).
    pub fn collision_rate(&self) -> f64 {
        if self.stats.observations == 0 {
            0.0
        } else {
            self.stats.collisions as f64 / self.stats.observations as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf(entries: usize) -> StreamPrefetcher {
        StreamPrefetcher::new(PrefetchConfig {
            table_entries: entries,
            train_threshold: 2,
            degree: 2,
            distance: 4,
            enabled: true,
        })
    }

    /// One observation of 64-byte lines, into a buffer holding stale
    /// contents that it must replace.
    fn obs(p: &mut StreamPrefetcher, pc: u64, addr: u64) -> Vec<u64> {
        let mut out = vec![0xdead];
        p.observe(pc, addr, 64, &mut out);
        out
    }

    #[test]
    fn trains_on_constant_stride() {
        let mut p = pf(16);
        let pc = 0x400;
        // stride 64: needs 1 (allocate) + 2 (train) observations.
        assert!(obs(&mut p, pc, 0x1000).is_empty());
        assert!(obs(&mut p, pc, 0x1040).is_empty()); // stride learned, conf=0
        assert!(obs(&mut p, pc, 0x1080).is_empty()); // conf=1
        let v = obs(&mut p, pc, 0x10c0); // conf=2 -> prefetch
        assert_eq!(v, vec![0x10c0 + 4 * 64, 0x10c0 + 5 * 64]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = pf(16);
        let pc = 0x400;
        obs(&mut p, pc, 0x1000);
        obs(&mut p, pc, 0x1040);
        obs(&mut p, pc, 0x1080);
        assert!(!obs(&mut p, pc, 0x10c0).is_empty());
        // Irregular jump: confidence resets, no prefetch.
        assert!(obs(&mut p, pc, 0x9000).is_empty());
        assert!(obs(&mut p, pc, 0x9040).is_empty());
    }

    #[test]
    fn small_strides_dedup_lines() {
        let mut p = pf(16);
        let pc = 0x8;
        // stride 8 within a 64B line: distance 4 & 5 strides ahead both in
        // the same or adjacent line; duplicates must be removed.
        obs(&mut p, pc, 0x1000);
        obs(&mut p, pc, 0x1008);
        obs(&mut p, pc, 0x1010);
        let v = obs(&mut p, pc, 0x1018);
        assert!(!v.is_empty());
        let mut sorted = v.clone();
        sorted.dedup();
        assert_eq!(v, sorted);
    }

    #[test]
    fn table_collisions_prevent_training() {
        // 2-entry table, 8 interleaved streams with distinct PCs: entries
        // thrash, nothing trains.
        let mut p = pf(2);
        let mut issued = 0;
        for round in 0..50u64 {
            for s in 0..8u64 {
                let pc = 0x100 + s * 8;
                let addr = 0x10000 * s + round * 64;
                issued += obs(&mut p, pc, addr).len();
            }
        }
        assert_eq!(issued, 0, "thrashed table must never train");
        assert!(p.stats.collisions > 300);
        assert!(p.collision_rate() > 0.8);
    }

    #[test]
    fn large_table_handles_many_streams() {
        let mut p = pf(64);
        let mut issued = 0;
        for round in 0..50u64 {
            for s in 0..8u64 {
                let pc = 0x100 + s * 8;
                let addr = 0x10000 * s + round * 64;
                issued += obs(&mut p, pc, addr).len();
            }
        }
        assert!(issued > 0, "8 streams fit a 64-entry table");
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(PrefetchConfig {
            enabled: false,
            ..PrefetchConfig::default()
        });
        for i in 0..10 {
            assert!(obs(&mut p, 0x4, 0x1000 + i * 64).is_empty());
        }
        assert_eq!(p.stats.observations, 0);
    }

    #[test]
    fn zero_stride_never_prefetches() {
        let mut p = pf(16);
        for _ in 0..10 {
            assert!(obs(&mut p, 0x4, 0x1000).is_empty());
        }
    }

    #[test]
    fn negative_stride_streams_train() {
        let mut p = pf(16);
        let pc = 0x40;
        obs(&mut p, pc, 0x10000);
        obs(&mut p, pc, 0x10000 - 64);
        obs(&mut p, pc, 0x10000 - 128);
        let v = obs(&mut p, pc, 0x10000 - 192);
        assert!(!v.is_empty());
        assert!(v[0] < 0x10000 - 192);
    }
}
