//! Everything behind the last-level cache: the functional backing store
//! and the DRAM channel's timing model.
//!
//! Two independent concerns live here, deliberately side by side:
//!
//! * [`PagedMem`] — the **functional** sparse, paged 64-bit address
//!   space. Every byte of architectural state (data segment, local-memory
//!   window, DMA buffers) lives here. The cache hierarchy and local
//!   memory are pure *timing* models layered on top, so functional
//!   correctness is independent of timing bugs — which in turn lets the
//!   test suite check the coherence protocol end to end by comparing
//!   final memory images across machine configurations. Pages are 4 KiB
//!   frames of 512 words, allocated on first touch; a one-entry
//!   translation cache makes the common sequential-access pattern cheap.
//!   Initial data is mapped, not copied ([`PagedMem::map_words`]): a page
//!   an init view covers whole borrows a read-only window of the view's
//!   buffer, so one table sliced over, or replicated into, every tile is
//!   stored once, and the first write to such a page copies it, so each
//!   memory stays private.
//! * [`DramController`] — the **timing** model of the memory channel the
//!   shared backside reads and writes through: per-DRAM-bank row buffers
//!   with an open-row policy (row hit / row miss / row conflict
//!   latencies) and a bounded posted-write queue drained hit-first
//!   (FR-FCFS-style).
//!
//! ## Invariants
//!
//! * **Stat partitioning** — [`DramController`] increments each
//!   [`DramStats`] counter exactly once per event and reports the
//!   affected requester to its caller ([`RowOutcome`], the drained-write
//!   owner), so the shared backside can mirror every increment into
//!   exactly one per-core share; summing per-core shares always
//!   reproduces the channel totals. The `core` recorded with a posted
//!   write is whoever the backside charges the write to — for write
//!   throughs and dirty victims the requester, for MESI M-state
//!   interventions the *owner* whose dirty line is recalled — and the
//!   drain-time row outcome is attributed to that same core, so
//!   intervention-triggered writes partition exactly like every other
//!   counter (pinned by the hierarchy partitioning tests in both
//!   coherence modes).
//! * **Byte order** — memory is little-endian whatever the host's byte
//!   order: byte `i` of a page is bits `8 * (i % 8)..` of word `i / 8`,
//!   and reads and writes take their bytes by shifts.

use crate::fault::{FaultConfig, FaultRoller, FaultSite};
use hsim_isa::Words;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE - 1) as u64;
/// Words per page.
const PAGE_WORDS: usize = PAGE_SIZE / 8;

/// The memo's empty sentinel: page numbers are `addr >> 12`, so a real
/// page can never equal it.
const NO_PAGE: u64 = u64::MAX;

/// Tags a frame slot as an index into the borrowed windows rather than
/// the private frames.
const BORROWED: usize = 1 << (usize::BITS - 1);

/// One 4 KiB page frame, as 512 little-endian words.
type Frame = [u64; PAGE_WORDS];

/// Hashes a page number by one multiplication. Page numbers come from
/// the simulated program's addresses, not from outside input, and the
/// default SipHash costs more than the access it translates whenever a
/// loop alternates arrays and the one-entry memo misses.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    /// The product's high bits are its well-mixed ones and the map
    /// picks buckets by the low ones: rotate them down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A page borrowed from a mapped init buffer: the page's words are
/// `buf[start..start + 512]`.
struct Window {
    pn: u64,
    buf: Arc<[u64]>,
    start: usize,
}

impl Window {
    #[inline]
    fn frame(&self) -> &Frame {
        self.buf[self.start..]
            .first_chunk()
            .expect("a window spans a whole page of its buffer")
    }
}

/// Sparse paged memory. Reads of untouched memory return zero.
///
/// A frame is private or borrowed. Private frames are boxed in a dense
/// `Vec` and written in place. A borrowed frame is a read-only window of
/// an init buffer mapped by [`PagedMem::map_words`], which other
/// memories may map too, so a table is stored once however many tiles
/// hold it; the first write to a borrowed page copies it into a private
/// frame, so no memory ever sees another's stores and no buffer ever
/// changes. A `HashMap` translates page numbers to frame slots, whose
/// top bit says which kind the frame is, and a one-entry
/// `(page, slot)` memo short-circuits the map on the sequential access
/// patterns that dominate kernel traffic (both reads and writes).
pub struct PagedMem {
    /// Private frames, indexed by the untagged slots in `index`.
    pages: Vec<Box<Frame>>,
    /// Borrowed frames, indexed by the `BORROWED`-tagged slots in
    /// `index`.
    borrowed: Vec<Window>,
    /// Page number → frame slot.
    index: HashMap<u64, usize, BuildHasherDefault<PageHasher>>,
    /// One-entry translation memo: the last resident page touched, as
    /// `(page number, frame slot)`. A `Cell` so the read path (`&self`)
    /// can refresh it too.
    last: Cell<(u64, usize)>,
}

impl Default for PagedMem {
    fn default() -> Self {
        PagedMem {
            pages: Vec::new(),
            borrowed: Vec::new(),
            index: HashMap::default(),
            last: Cell::new((NO_PAGE, 0)),
        }
    }
}

/// The low `N` bytes of a word.
const fn low_bytes(n: usize) -> u64 {
    u64::MAX >> (64 - 8 * n)
}

impl PagedMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (touched or mapped) pages.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Resident pages held in frames of this memory's own.
    pub fn private_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident pages borrowed from a mapped init buffer and not written
    /// since.
    pub fn shared_pages(&self) -> usize {
        self.borrowed.len()
    }

    /// Maps `words` from `base` (8-byte aligned): afterwards the memory
    /// reads as if each word had been stored there. A page the view
    /// covers whole and that is not resident yet borrows a read-only
    /// window of the view's buffer, so mapping copies nothing. A page
    /// the view covers in part, or that is resident already, takes the
    /// words by copy, into a frame that reads zero past them.
    pub fn map_words(&mut self, base: u64, words: &Words) {
        assert_eq!(base % 8, 0, "words must be mapped 8-byte aligned");
        let (buf, range) = words.buffer();
        let mut at = 0;
        while at < words.len() {
            let (pn, off) = Self::page_of(base + at as u64 * 8);
            let run = &words[at..words.len().min(at + PAGE_WORDS - off / 8)];
            if run.len() == PAGE_WORDS && !self.index.contains_key(&pn) {
                self.index.insert(pn, self.borrowed.len() | BORROWED);
                self.borrowed.push(Window {
                    pn,
                    buf: Arc::clone(buf),
                    start: range.start + at,
                });
            } else {
                self.page_mut(pn)[off / 8..][..run.len()].copy_from_slice(run);
            }
            at += run.len();
        }
    }

    #[inline]
    fn page_of(addr: u64) -> (u64, usize) {
        (addr >> PAGE_SHIFT, (addr & OFFSET_MASK) as usize)
    }

    /// Resolves a page number to its frame slot, through the memo.
    #[inline]
    fn slot_of(&self, pn: u64) -> Option<usize> {
        let (last_pn, last_slot) = self.last.get();
        if last_pn == pn {
            return Some(last_slot);
        }
        let slot = *self.index.get(&pn)?;
        self.last.set((pn, slot));
        Some(slot)
    }

    /// The resident frame for `pn`, if any. A `BORROWED`-tagged slot is
    /// past the end of `pages`, so the bounds check that finds a private
    /// frame is also the test of the frame's kind.
    #[inline]
    fn page(&self, pn: u64) -> Option<&Frame> {
        let slot = self.slot_of(pn)?;
        Some(match self.pages.get(slot) {
            Some(private) => private,
            None => self.borrowed[slot ^ BORROWED].frame(),
        })
    }

    /// The private frame for `pn`, allocating (and memoizing) one on
    /// first touch or on the first write to a borrowed page.
    #[inline]
    fn page_mut(&mut self, pn: u64) -> &mut Frame {
        match self.slot_of(pn) {
            Some(s) if s < self.pages.len() => &mut self.pages[s],
            found => self.make_private(pn, found),
        }
    }

    /// Gives `pn` a private frame — zeroed, or a copy of the borrowed
    /// window at slot `found` — and returns it.
    #[cold]
    #[inline(never)]
    fn make_private(&mut self, pn: u64, found: Option<usize>) -> &mut Frame {
        let frame = match found {
            None => Box::new([0; PAGE_WORDS]),
            Some(tagged) => {
                let window = self.borrowed.swap_remove(tagged ^ BORROWED);
                // The last window moved into the vacated slot.
                if let Some(moved) = self.borrowed.get(tagged ^ BORROWED) {
                    self.index.insert(moved.pn, tagged);
                }
                Box::new(*window.frame())
            }
        };
        let s = self.pages.len();
        self.pages.push(frame);
        self.index.insert(pn, s);
        self.last.set((pn, s));
        &mut self.pages[s]
    }

    /// Reads the `N`-byte little-endian value at `addr`.
    #[inline]
    fn read_le<const N: usize>(&self, addr: u64) -> u64 {
        let (pn, off) = Self::page_of(addr);
        let shift = (off % 8) * 8;
        if shift + 8 * N > 64 {
            return self.read_straddling::<N>(addr);
        }
        match self.page(pn) {
            Some(p) => (p[off / 8] >> shift) & low_bytes(N),
            None => 0,
        }
    }

    /// A read that straddles two words, byte by byte: rare, so kept out
    /// of line to leave the common path small enough to inline.
    #[cold]
    #[inline(never)]
    fn read_straddling<const N: usize>(&self, addr: u64) -> u64 {
        (0..N as u64).fold(0, |v, i| v | ((self.read_u8(addr + i) as u64) << (8 * i)))
    }

    /// Writes the low `N` bytes of `val` little-endian at `addr`.
    #[inline]
    fn write_le<const N: usize>(&mut self, addr: u64, val: u64) {
        let (pn, off) = Self::page_of(addr);
        let shift = (off % 8) * 8;
        if shift + 8 * N > 64 {
            return self.write_straddling::<N>(addr, val);
        }
        let keep = !(low_bytes(N) << shift);
        let word = &mut self.page_mut(pn)[off / 8];
        *word = (*word & keep) | ((val & low_bytes(N)) << shift);
    }

    /// A write that straddles two words, byte by byte (see
    /// `read_straddling`).
    #[cold]
    #[inline(never)]
    fn write_straddling<const N: usize>(&mut self, addr: u64, val: u64) {
        for i in 0..N as u64 {
            self.write_u8(addr + i, (val >> (8 * i)) as u8);
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_le::<1>(addr) as u8
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.write_le::<1>(addr, val.into());
    }

    /// Reads a 32-bit little-endian value.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le::<4>(addr) as u32
    }

    /// Writes a 32-bit little-endian value.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_le::<4>(addr, val.into());
    }

    /// Reads a 64-bit little-endian value.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le::<8>(addr)
    }

    /// Writes a 64-bit little-endian value.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_le::<8>(addr, val);
    }

    /// Reads an `i64`.
    #[inline]
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes an `i64`.
    #[inline]
    pub fn write_i64(&mut self, addr: u64, val: i64) {
        self.write_u64(addr, val as u64);
    }

    /// Reads an `f64`.
    #[inline]
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    #[inline]
    pub fn write_f64(&mut self, addr: u64, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Copies `len` bytes from `src` to `dst` (the functional effect of a
    /// DMA transfer), one chunk at a time, no chunk crossing a page of
    /// either range. Ranges may overlap; the copy behaves like `memmove`.
    /// Writing a borrowed page copies it first, like any other store.
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) {
        if len == 0 || dst == src {
            return;
        }
        // Walking away from the overlap — from the end when `dst` lies
        // inside the source — reads every source byte before a chunk
        // overwrites it.
        let backwards = dst > src && dst - src < len;
        let mut chunk = [0u64; PAGE_WORDS];
        let mut left = len;
        while left > 0 {
            let (at, n) = if backwards {
                // The last bytes left, back to the nearer page start.
                let room = |a: u64| ((a + left - 1) & OFFSET_MASK) + 1;
                let n = left.min(room(src)).min(room(dst));
                (left - n, n)
            } else {
                let at = len - left;
                let room = |a: u64| PAGE_SIZE as u64 - ((a + at) & OFFSET_MASK);
                (at, left.min(room(src)).min(room(dst)))
            };
            let (from, to) = (src + at, dst + at);
            if (from | to | n) % 8 != 0 {
                self.copy_bytes(to, from, n);
            } else {
                let words = &mut chunk[..n as usize / 8];
                let (pn, off) = Self::page_of(from);
                match self.page(pn) {
                    Some(p) => words.copy_from_slice(&p[off / 8..][..words.len()]),
                    None => words.fill(0),
                }
                let (pn, off) = Self::page_of(to);
                self.page_mut(pn)[off / 8..][..words.len()].copy_from_slice(words);
            }
            left -= n;
        }
    }

    /// One chunk of a `copy` that is not word-aligned, byte by byte
    /// through a buffer: rare, so kept out of line.
    #[cold]
    #[inline(never)]
    fn copy_bytes(&mut self, dst: u64, src: u64, len: u64) {
        let bytes: Vec<u8> = (0..len).map(|i| self.read_u8(src + i)).collect();
        for (i, b) in (0..).zip(bytes) {
            self.write_u8(dst + i, b);
        }
    }

    /// Computes a FNV-1a checksum of `[addr, addr+len)`; used by tests to
    /// compare memory images cheaply.
    pub fn checksum(&self, addr: u64, len: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..len {
            h ^= self.read_u8(addr + i) as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

// --------------------------------------------------------------------
// DRAM channel timing
// --------------------------------------------------------------------

/// Row-buffer timing of the DRAM devices behind one channel.
///
/// The defaults decompose the historical flat 200-cycle access
/// (`t_rcd + t_cas = 200`), so a cold access to a closed row costs
/// exactly what the flat model charged — the seed figures shift only
/// where row locality or bank conflicts actually occur.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramTiming {
    /// Activate (row open) latency: RAS-to-CAS delay in cycles.
    pub t_rcd: u64,
    /// Precharge (row close) latency in cycles.
    pub t_rp: u64,
    /// Column access latency in cycles — the cost of a row-buffer hit.
    pub t_cas: u64,
    /// Row-buffer size in bytes. Consecutive lines within one row hit
    /// the open row.
    pub row_bytes: u64,
    /// Number of DRAM banks on the channel (power of two). Rows
    /// interleave across banks, so streaming accesses rotate banks at
    /// row boundaries.
    pub banks: usize,
    /// Posted-write queue depth. A write posted to a full queue forces
    /// the controller to drain one queued write first (hit-first, then
    /// oldest), occupying the channel.
    pub queue_depth: usize,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_rcd: 120,
            t_rp: 60,
            t_cas: 80,
            row_bytes: 2048,
            banks: 16,
            queue_depth: 8,
        }
    }
}

/// DRAM channel configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Minimum gap between line transfers on the channel (bandwidth).
    pub gap: u64,
    /// Row-buffer timing.
    pub timing: DramTiming,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            gap: 12,
            timing: DramTiming::default(),
        }
    }
}

/// DRAM channel statistics. Per-core shares of these live in the shared
/// backside's `BacksideCoreStats` and partition the channel totals
/// exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Line reads.
    pub reads: u64,
    /// Line writes (posted).
    pub writes: u64,
    /// Accesses that hit the open row of their bank (`t_cas`).
    pub row_hits: u64,
    /// Accesses to a bank with no open row (`t_rcd + t_cas`).
    pub row_misses: u64,
    /// Accesses that closed another open row first
    /// (`t_rp + t_rcd + t_cas`).
    pub row_conflicts: u64,
    /// Write posts that found the queue full and forced a drain.
    pub queue_stalls: u64,
    /// The subset of `queue_stalls` whose drained victim was a MESI
    /// M-intervention write-back: the drain serviced another core's
    /// recalled dirty data, so the stall is attributed to that owner,
    /// not to whoever happened to post the triggering write.
    pub intervention_drain_stalls: u64,
    /// ECC retries: transient read errors injected by the fault plan
    /// that forced the column access to replay (`t_cas` extra latency
    /// plus one channel gap each). Zero whenever the plan's
    /// `dram_read_error_rate` is zero.
    pub ecc_retries: u64,
}

impl DramStats {
    /// Counts one row-classified access (the shared backside mirrors the
    /// channel's outcomes into per-core shares with this).
    pub(crate) fn count_row(&mut self, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => self.row_hits += 1,
            RowOutcome::Miss => self.row_misses += 1,
            RowOutcome::Conflict => self.row_conflicts += 1,
        }
    }

    /// Merges another stats block into this one, field by field — the
    /// partitioning tests sum per-core shares through this, so a newly
    /// added counter is covered the moment it exists.
    pub fn merge(&mut self, other: &DramStats) {
        let DramStats {
            reads,
            writes,
            row_hits,
            row_misses,
            row_conflicts,
            queue_stalls,
            intervention_drain_stalls,
            ecc_retries,
        } = other;
        self.reads += reads;
        self.writes += writes;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
        self.row_conflicts += row_conflicts;
        self.queue_stalls += queue_stalls;
        self.intervention_drain_stalls += intervention_drain_stalls;
        self.ecc_retries += ecc_retries;
    }

    /// Row-classified accesses (reads plus drained writes).
    pub fn row_accesses(&self) -> u64 {
        self.row_hits + self.row_misses + self.row_conflicts
    }

    /// Row-buffer hit rate in percent over classified accesses (100.0
    /// when there were none).
    pub fn row_hit_rate(&self) -> f64 {
        let n = self.row_accesses();
        if n == 0 {
            return 100.0;
        }
        100.0 * self.row_hits as f64 / n as f64
    }
}

/// How an access met its bank's row buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOutcome {
    /// The target row was open: column access only.
    Hit,
    /// No row was open: activate, then column access.
    Miss,
    /// A different row was open: precharge, activate, column access.
    Conflict,
}

/// One write sitting in the posted-write queue.
#[derive(Clone, Copy, Debug)]
struct QueuedWrite {
    bank: usize,
    row: u64,
    /// Core that posted the write (stat attribution at drain time).
    core: usize,
    /// Whether this write is a MESI M-intervention write-back (another
    /// core's recalled dirty data, charged to that owner). Drains
    /// forced by such a victim attribute their stall to the owner too.
    intervention: bool,
}

/// The DRAM memory controller of one channel.
///
/// **Timing model.** Line addresses map to (bank, row) by interleaving
/// consecutive rows across banks. Each bank keeps an open row; an access
/// pays `t_cas` (row hit), `t_rcd + t_cas` (row closed) or
/// `t_rp + t_rcd + t_cas` (row conflict), starts no earlier than both
/// the channel (`gap`-spaced bursts) and its bank are free, and leaves
/// its row open (open-row policy). Reads return their full latency to
/// the caller at issue; posted writes park in a bounded queue and touch
/// the channel only when a full queue forces a drain — the drain picks a
/// queued write hitting an open row first, else the oldest
/// (FR-FCFS-style hit-first scheduling over the reorderable traffic;
/// read latencies are returned synchronously at issue, so reads
/// themselves serve in arrival order with priority over queued writes).
pub struct DramController {
    cfg: DramConfig,
    /// Finite-queue horizon: the furthest beyond `now` a request can be
    /// made to wait (`queue_depth` worst-case services). A real
    /// controller's bounded queue back-pressures producers; a
    /// synchronous call-return model cannot delay its callers'
    /// *issuing*, so sustained overload saturates each request's
    /// visible wait at one full queue drain instead of compounding
    /// without bound (the slow responses then stall the requesting
    /// core's ROB, which is the real feedback loop).
    backlog_window: u64,
    /// When the channel can start the next burst.
    busy_until: u64,
    /// Per-bank completion time of the last access.
    bank_busy: Vec<u64>,
    /// Per-bank open row.
    open_rows: Vec<Option<u64>>,
    /// Posted writes not yet drained.
    queue: VecDeque<QueuedWrite>,
    /// Deterministic transient-read-error roller (disabled by default:
    /// `new` builds a fault-free channel).
    faults: FaultRoller,
    /// Retry budget per faulting read (from the fault plan).
    ecc_max_retries: u32,
    /// Channel totals (per-core shares are kept by the caller).
    pub stats: DramStats,
}

impl DramController {
    /// Builds an idle, fault-free controller.
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_faults(cfg, &FaultConfig::none(), 0)
    }

    /// Builds an idle controller under a fault plan. `instance` is the
    /// channel index, so multi-channel backsides draw independent
    /// fault streams per channel.
    pub fn with_faults(cfg: DramConfig, fault: &FaultConfig, instance: u64) -> Self {
        assert!(
            cfg.timing.banks.is_power_of_two(),
            "DRAM bank count must be a power of two"
        );
        assert!(cfg.timing.row_bytes > 0, "row size must be positive");
        assert!(cfg.timing.queue_depth > 0, "write queue needs a slot");
        let banks = cfg.timing.banks;
        let t = &cfg.timing;
        let worst_service = cfg.gap + t.t_rp + t.t_rcd + t.t_cas;
        DramController {
            backlog_window: t.queue_depth as u64 * worst_service,
            busy_until: 0,
            bank_busy: vec![0; banks],
            open_rows: vec![None; banks],
            queue: VecDeque::with_capacity(cfg.timing.queue_depth),
            faults: FaultRoller::new(fault, FaultSite::DramRead, instance),
            ecc_max_retries: fault.max_retries,
            stats: DramStats::default(),
            cfg,
        }
    }

    /// Maps a line address to its (bank, row) pair.
    ///
    /// The bank index is a multiplicative (Fibonacci) hash of the row
    /// id rather than its low bits: plain modulo interleaving sends
    /// equally-aligned arrays — and every core's identically-laid-out
    /// shard — to the *same* bank, where two active rows ping-pong at
    /// the row-conflict latency. Hashing permutes rows across banks the
    /// way real controllers' permutation-based interleaving (and
    /// scattered physical frame allocation) does, so independent
    /// streams keep their row locality instead of serializing on one
    /// bank. The row identity is the full row id, so distinct rows
    /// never alias within a bank.
    #[inline]
    fn map(&self, line_addr: u64) -> (usize, u64) {
        let row_id = line_addr / self.cfg.timing.row_bytes;
        let bank_bits = self.cfg.timing.banks.trailing_zeros();
        let bank = if bank_bits == 0 {
            0
        } else {
            (row_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bank_bits)) as usize
        };
        (bank, row_id)
    }

    /// Classifies an access against its bank's row buffer and returns
    /// the access latency beyond the start cycle.
    #[inline]
    fn classify(&self, bank: usize, row: u64) -> (RowOutcome, u64) {
        let t = &self.cfg.timing;
        match self.open_rows[bank] {
            Some(open) if open == row => (RowOutcome::Hit, t.t_cas),
            Some(_) => (RowOutcome::Conflict, t.t_rp + t.t_rcd + t.t_cas),
            None => (RowOutcome::Miss, t.t_rcd + t.t_cas),
        }
    }

    /// Occupies the channel and the bank for one access starting no
    /// earlier than `now`; returns (start cycle, row outcome, latency).
    /// Waits behind the channel and the bank are capped at the
    /// finite-queue horizon (see `backlog_window`).
    fn schedule(&mut self, now: u64, bank: usize, row: u64) -> (u64, RowOutcome, u64) {
        let horizon = now + self.backlog_window;
        let start = now
            .max(self.busy_until.min(horizon))
            .max(self.bank_busy[bank].min(horizon));
        let (outcome, lat) = self.classify(bank, row);
        self.stats.count_row(outcome);
        self.open_rows[bank] = Some(row);
        self.busy_until = start + self.cfg.gap;
        // The bank is occupied by its *commands* (precharge/activate);
        // the column access overlaps the data burst, which occupies the
        // channel instead — so back-to-back hits to one open row stream
        // at channel rate, while the requester still sees the full
        // access latency.
        self.bank_busy[bank] = start + (lat - self.cfg.timing.t_cas).max(self.cfg.gap);
        (start, outcome, lat)
    }

    /// Rolls the transient-read-error site for one read: each injected
    /// error replays the column access and holds the channel for one
    /// more gap, bounded by the plan's retry budget (the last replay is
    /// assumed clean — recovery never livelocks). Returns the replay
    /// count; the caller mirrors it into the requesting core's share.
    /// Deliberately *not* routed through `schedule`: a replay re-reads
    /// the already-open row, so it must not re-classify the row buffer
    /// (which would break the exact stat partitioning).
    fn ecc_replays(&mut self) -> u64 {
        let mut n = 0u64;
        while n < self.ecc_max_retries as u64 && self.faults.roll() {
            n += 1;
            self.busy_until += self.cfg.gap;
        }
        self.stats.ecc_retries += n;
        n
    }

    /// A line read issued at cycle `now`. Returns the latency beyond
    /// `now` (wait plus access), how the access met the row buffer, and
    /// the number of injected ECC retries (each one `t_cas` extra
    /// latency) — the caller mirrors the outcome and the retries into
    /// the requesting core's stat share.
    pub fn read(&mut self, now: u64, line_addr: u64) -> (u64, RowOutcome, u64) {
        self.stats.reads += 1;
        let (bank, row) = self.map(line_addr);
        let (start, outcome, lat) = self.schedule(now, bank, row);
        let retries = self.ecc_replays();
        (
            (start - now) + lat + retries * self.cfg.timing.t_cas,
            outcome,
            retries,
        )
    }

    /// Posts a line write at cycle `now`. The write is counted
    /// immediately and parks in the bounded queue; when the queue is
    /// full one queued write is drained first — hit-first
    /// over the open rows, else the oldest. `intervention` marks a MESI
    /// M-intervention write-back (the caller charges those to the
    /// recalled owner). Returns the drained write's (posting core, row
    /// outcome, was-intervention) when a drain happened, so the caller
    /// can mirror the row outcome to the drained write's owner and the
    /// stall to either `core` or — when the victim was an intervention
    /// write-back — to that owner (see [`DramStats`]).
    pub fn write_posted(
        &mut self,
        now: u64,
        line_addr: u64,
        core: usize,
        intervention: bool,
    ) -> Option<(usize, RowOutcome, bool)> {
        self.stats.writes += 1;
        let (bank, row) = self.map(line_addr);
        let drained = if self.queue.len() >= self.cfg.timing.queue_depth {
            self.stats.queue_stalls += 1;
            // FR-FCFS hit-first: drain a write whose row is open, else
            // the oldest.
            let pick = self
                .queue
                .iter()
                .position(|w| self.open_rows[w.bank] == Some(w.row))
                .unwrap_or(0);
            let w = self.queue.remove(pick).expect("queue is non-empty");
            let (_, outcome, _) = self.schedule(now, w.bank, w.row);
            if w.intervention {
                self.stats.intervention_drain_stalls += 1;
            }
            Some((w.core, outcome, w.intervention))
        } else {
            None
        };
        self.queue.push_back(QueuedWrite {
            bank,
            row,
            core,
            intervention,
        });
        drained
    }

    /// Writes parked in the posted-write queue (drained lazily; they
    /// never block program completion).
    pub fn queued_writes(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let m = PagedMem::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_u8(u64::MAX - 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_your_writes() {
        let mut m = PagedMem::new();
        m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
        m.write_u32(0x2000, 0x1234_5678);
        assert_eq!(m.read_u32(0x2000), 0x1234_5678);
        m.write_u8(0x3000, 0xab);
        assert_eq!(m.read_u8(0x3000), 0xab);
        m.write_f64(0x4000, -1.25);
        assert_eq!(m.read_f64(0x4000), -1.25);
        m.write_i64(0x5000, -42);
        assert_eq!(m.read_i64(0x5000), -42);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PagedMem::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }

    #[test]
    fn page_crossing_access() {
        let mut m = PagedMem::new();
        let addr = (1 << 12) - 4; // crosses the first page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn memo_survives_page_crossing_and_alternation() {
        // Exercise the one-entry translation memo: sequential same-page
        // traffic, strict page alternation (every access evicts the
        // memo), and straddling accesses whose byte path walks both
        // pages through the memo — all must read back exactly.
        let mut m = PagedMem::new();
        let page = 1u64 << PAGE_SHIFT;
        for i in 0..64u64 {
            m.write_u8(3 * page + i, i as u8);
            m.write_u8(7 * page + i, !i as u8);
        }
        for i in 0..64u64 {
            assert_eq!(m.read_u8(3 * page + i), i as u8);
            assert_eq!(m.read_u8(7 * page + i), !i as u8);
        }
        // Writes through a stale memo must not land in the wrong frame.
        let boundary = 4 * page - 4;
        m.write_u64(boundary, 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(m.read_u64(boundary), 0xa1b2_c3d4_e5f6_0718);
        assert_eq!(m.read_u32(boundary), 0xe5f6_0718);
        assert_eq!(m.read_u32(boundary + 4), 0xa1b2_c3d4);
        // The crossing allocated page 4; pages 3 and 7 already existed.
        assert_eq!(m.resident_pages(), 3);
        // Reads of absent pages still return zero and allocate nothing.
        assert_eq!(m.read_u64(100 * page), 0);
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn copy_non_overlapping() {
        let mut m = PagedMem::new();
        for i in 0..64u64 {
            m.write_u8(0x1000 + i, i as u8);
        }
        m.copy(0x2000, 0x1000, 64);
        for i in 0..64u64 {
            assert_eq!(m.read_u8(0x2000 + i), i as u8);
        }
    }

    #[test]
    fn copy_overlapping_is_memmove() {
        let mut m = PagedMem::new();
        for i in 0..16u64 {
            m.write_u8(0x100 + i, i as u8);
        }
        m.copy(0x104, 0x100, 16); // forward overlap
        for i in 0..16u64 {
            assert_eq!(m.read_u8(0x104 + i), i as u8);
        }
    }

    #[test]
    fn copy_zero_len_and_self() {
        let mut m = PagedMem::new();
        m.write_u8(0x10, 7);
        m.copy(0x20, 0x10, 0);
        assert_eq!(m.read_u8(0x20), 0);
        m.copy(0x10, 0x10, 8);
        assert_eq!(m.read_u8(0x10), 7);
    }

    /// Pages 0..7 hold a byte pattern; page 7 was never touched.
    fn patterned() -> (PagedMem, Vec<u8>) {
        let mut flat: Vec<u8> = (0..8 * PAGE_SIZE)
            .map(|i| (i * 7 + i / 4096) as u8)
            .collect();
        flat[7 * PAGE_SIZE..].fill(0);
        let mut m = PagedMem::new();
        for (i, &b) in flat[..7 * PAGE_SIZE].iter().enumerate() {
            m.write_u8(i as u64, b);
        }
        (m, flat)
    }

    /// `copy(dst, src, len)` leaves every byte as `copy_within` does.
    fn copy_matches_memmove(dst: u64, src: u64, len: u64) {
        let (mut m, mut flat) = patterned();
        m.copy(dst, src, len);
        flat.copy_within(src as usize..(src + len) as usize, dst as usize);
        for (i, &b) in flat.iter().enumerate() {
            let at = i as u64;
            assert_eq!(
                m.read_u8(at),
                b,
                "byte {at:#x} after copy({dst:#x}, {src:#x}, {len})"
            );
        }
    }

    #[test]
    fn overlapping_copies_across_pages_are_memmove() {
        copy_matches_memmove(0x0a30, 0x0100, 0x2345); // dst inside the source
        copy_matches_memmove(0x0100, 0x0a30, 0x2345); // src inside the destination
        copy_matches_memmove(0x1008, 0x1000, 0x3000); // one word apart
        copy_matches_memmove(0x0ff8, 0x1000, 0x3000);
    }

    #[test]
    fn page_crossing_copy() {
        copy_matches_memmove(0x2ffc, 0x0ffa, 0x20);
        copy_matches_memmove(0x5001, 0x3ffe, 0x7);
    }

    #[test]
    fn multi_page_copy() {
        copy_matches_memmove(0x4003, 0x0007, 0x3800);
        // Part of the source lies on the untouched page: it copies zeros.
        copy_matches_memmove(0x0010, 0x6ff0, 0x1000);
    }

    /// `words` stored one word at a time: the image a mapping must read as.
    fn stored(base: u64, words: &[u64]) -> PagedMem {
        let mut m = PagedMem::new();
        for (i, &w) in (0..).zip(words) {
            m.write_u64(base + 8 * i, w);
        }
        m
    }

    #[test]
    fn mapped_words_borrow_whole_pages_and_copy_the_partial_ones() {
        // 1500 words from 0x8ff8: a partial first page (1 word), two
        // whole pages and a partial last page (475 words).
        let words: Words = (1..=1500).collect();
        let mut m = PagedMem::new();
        m.map_words(0x8ff8, &words);
        assert_eq!((m.private_pages(), m.shared_pages()), (2, 2));
        let copy = stored(0x8ff8, &words);
        assert_eq!(m.checksum(0x8000, 0x5000), copy.checksum(0x8000, 0x5000));
        // Bytes past the array on its last page still read zero.
        assert_eq!(m.read_u64(0x8ff8 + 1500 * 8), 0);
        // A view of a view borrows the same buffer at its own offset.
        let mut v = PagedMem::new();
        v.map_words(0x4_0000, &words.slice(512..1024));
        assert_eq!((v.private_pages(), v.shared_pages()), (0, 1));
        assert_eq!(v.read_u64(0x4_0000), 513);
        assert_eq!(v.read_u64(0x4_0ff8), 1024);
    }

    #[test]
    fn mapping_over_a_resident_page_copies_into_it() {
        let words: Words = (0..1024u64).map(|i| i * 3).collect();
        let mut m = PagedMem::new();
        m.write_u64(0x2_1ff8, 77);
        m.write_u64(0x2_2000, 5); // past the view: kept
        m.map_words(0x2_0000, &words);
        assert_eq!((m.private_pages(), m.shared_pages()), (2, 1));
        assert_eq!(m.read_u64(0x2_1ff8), 1023 * 3);
        assert_eq!(m.read_u64(0x2_2000), 5);
        assert_eq!(m.read_u64(0x2_0008), 3);
    }

    #[test]
    fn copy_onto_a_borrowed_frame_leaves_the_other_mappings_alone() {
        let table: Words = (1..=1024).collect(); // two pages
        let (mut a, mut b) = (PagedMem::new(), PagedMem::new());
        a.map_words(0x1_0000, &table);
        b.map_words(0x1_0000, &table);
        // A `dma-put` of one word from `a`'s private buffer into the table.
        a.write_u64(0x800, 0xdead);
        a.copy(0x1_0008, 0x800, 8);
        assert_eq!(a.read_u64(0x1_0008), 0xdead);
        assert_eq!(a.read_u64(0x1_0010), 3, "the rest of the page was copied");
        assert_eq!((a.private_pages(), a.shared_pages()), (2, 1));
        assert_eq!(b.read_u64(0x1_0008), 2, "the other memory is unchanged");
        assert_eq!((b.private_pages(), b.shared_pages()), (0, 2));
        assert_eq!(table[1], 2, "the buffer is unchanged");
    }

    #[test]
    fn copy_on_write_keeps_every_other_borrowed_page_in_place() {
        // Writing the first of three borrowed pages moves the last one
        // into its slot; both survivors must still resolve, memo or not.
        let table: Words = (0..3 * 512).map(|i| i + 1).collect();
        let mut m = PagedMem::new();
        m.map_words(0, &table);
        assert_eq!(m.read_u64(2 * 4096), 1025);
        m.write_u64(0, 42);
        for page in 1..3u64 {
            assert_eq!(m.read_u64(page * 4096 + 8), page * 512 + 2);
        }
        m.write_u64(2 * 4096, 7);
        m.write_u64(4096, 8);
        assert_eq!(
            (m.read_u64(0), m.read_u64(4096), m.read_u64(2 * 4096)),
            (42, 8, 7)
        );
        assert_eq!((m.private_pages(), m.shared_pages()), (3, 0));
        assert_eq!(m.read_u64(4096 + 16), 515);
    }

    #[test]
    fn unaligned_accesses_read_back_little_endian() {
        let mut m = PagedMem::new();
        m.write_u64(0x13, 0x1122_3344_5566_7788); // straddles two words
        assert_eq!(m.read_u64(0x13), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0x13), 0x88);
        assert_eq!(m.read_u32(0x16), 0x2233_4455);
        m.write_u32(0x1e, 0xaabb_ccdd);
        assert_eq!(m.read_u64(0x18), 0xccdd_0000_0011_2233);
    }

    #[test]
    fn checksum_detects_differences() {
        let mut a = PagedMem::new();
        let mut b = PagedMem::new();
        a.write_u64(0x100, 1);
        b.write_u64(0x100, 1);
        assert_eq!(a.checksum(0x100, 64), b.checksum(0x100, 64));
        b.write_u8(0x120, 9);
        assert_ne!(a.checksum(0x100, 64), b.checksum(0x100, 64));
    }

    // ------------------------------------------------- DRAM controller

    fn dram() -> DramController {
        DramController::new(DramConfig::default())
    }

    #[test]
    fn first_access_to_a_closed_row_costs_the_flat_latency() {
        // The defaults decompose the historical flat 200 cycles:
        // t_rcd + t_cas = 200.
        let mut d = dram();
        let (lat, outcome, retries) = d.read(0, 0);
        assert_eq!(lat, 200);
        assert_eq!(outcome, RowOutcome::Miss);
        assert_eq!(retries, 0, "fault-free controllers never ECC-retry");
    }

    #[test]
    fn same_row_second_access_pays_the_row_hit_latency() {
        let mut d = dram();
        let (first, _, _) = d.read(0, 0);
        // Next line in the same 2 KiB row, issued after the bank freed.
        let (second, outcome, _) = d.read(first, 64);
        assert_eq!(outcome, RowOutcome::Hit);
        assert_eq!(second, 80, "row hit must cost t_cas only");
        assert_eq!(d.stats.row_hits, 1);
        assert_eq!(d.stats.row_misses, 1);
    }

    /// First row id whose bank relation to row 0 matches `same`.
    fn row_with_bank(d: &DramController, same: bool) -> u64 {
        let t = &d.cfg.timing;
        let bank0 = d.map(0).0;
        (1..1024)
            .find(|&r| (d.map(r * t.row_bytes).0 == bank0) == same)
            .expect("hashed interleave must produce both cases")
    }

    #[test]
    fn same_bank_different_row_conflicts_and_serializes() {
        let mut d = dram();
        d.read(0, 0); // opens row 0 of its bank; bank busy until 200
        let t = DramTiming::default();
        let other = row_with_bank(&d, true) * t.row_bytes;
        let (lat, outcome, _) = d.read(0, other);
        assert_eq!(outcome, RowOutcome::Conflict);
        // Serializes behind the first access's bank commands (its
        // activate: t_rcd) then pays precharge + activate + column.
        assert_eq!(lat, t.t_rcd + t.t_rp + t.t_rcd + t.t_cas);
        assert_eq!(d.stats.row_conflicts, 1);
    }

    #[test]
    fn different_banks_overlap_on_the_channel() {
        let mut d = dram();
        d.read(0, 0);
        let t = DramTiming::default();
        let other = row_with_bank(&d, false) * t.row_bytes;
        let (lat, outcome, _) = d.read(0, other);
        assert_eq!(outcome, RowOutcome::Miss);
        // Only the channel gap separates them, not the full access.
        assert_eq!(lat, d.cfg.gap + t.t_rcd + t.t_cas);
    }

    #[test]
    fn full_write_queue_drains_hit_first() {
        let mut d = dram();
        let t = DramTiming::default();
        // Open row 0 of its bank.
        d.read(0, 0);
        // Fill the queue: depth-1 writes to a different row first, then
        // one write to the open row LAST — FCFS alone would never pick
        // it.
        let other = row_with_bank(&d, true) * t.row_bytes;
        for _ in 1..t.queue_depth {
            assert_eq!(d.write_posted(300, other, 1, false), None);
        }
        assert_eq!(d.write_posted(300, 0, 0, false), None);
        assert_eq!(d.queued_writes(), t.queue_depth);
        // The next post forces a drain: FR-FCFS must pick the
        // row-hitting write (owner core 0) from the back of the queue.
        let drained = d.write_posted(400, 8 * t.row_bytes, 1, false);
        let (owner, outcome, iv) = drained.expect("full queue must drain");
        assert_eq!(owner, 0, "hit-first must pick the open-row write");
        assert_eq!(outcome, RowOutcome::Hit);
        assert!(!iv, "no intervention writes were queued");
        assert_eq!(d.stats.queue_stalls, 1);
        assert_eq!(d.stats.intervention_drain_stalls, 0);
        assert_eq!(d.queued_writes(), t.queue_depth);
    }

    #[test]
    fn drained_intervention_writebacks_are_flagged_to_the_caller() {
        let mut d = dram();
        let t = DramTiming::default();
        // Fill the queue with M-intervention write-backs owned by core
        // 2, then trigger a drain with core 5's plain write: the victim
        // must come back flagged so the backside can land the stall on
        // the owner, not the poster.
        for i in 0..t.queue_depth as u64 {
            assert_eq!(d.write_posted(0, i * t.row_bytes, 2, true), None);
        }
        let drained = d.write_posted(100, 100 * t.row_bytes, 5, false);
        let (owner, _, iv) = drained.expect("full queue must drain");
        assert_eq!(owner, 2, "the victim belongs to the intervention owner");
        assert!(iv, "the drained victim is an intervention write-back");
        assert_eq!(d.stats.queue_stalls, 1);
        assert_eq!(d.stats.intervention_drain_stalls, 1);
    }

    #[test]
    fn ecc_retries_are_deterministic_bounded_and_timing_only() {
        use crate::fault::FaultConfig;
        // Rate 1.0: every read replays exactly max_retries times (the
        // livelock watchdog) and pays t_cas + one channel gap each.
        let plan = FaultConfig {
            max_retries: 3,
            ..FaultConfig::uniform(11, 1.0)
        };
        let t = DramTiming::default();
        let mut d = DramController::with_faults(DramConfig::default(), &plan, 0);
        let (lat, outcome, retries) = d.read(0, 0);
        assert_eq!(retries, 3);
        assert_eq!(outcome, RowOutcome::Miss);
        assert_eq!(lat, 200 + 3 * t.t_cas);
        assert_eq!(d.stats.ecc_retries, 3);
        assert_eq!(d.stats.row_misses, 1, "replays never re-classify rows");
        // The replays held the channel: 1 gap for the read + 3 more.
        assert_eq!(d.busy_until, 4 * d.cfg.gap);
        // Same seed, fresh controller: byte-identical replay.
        let mut e = DramController::with_faults(DramConfig::default(), &plan, 0);
        assert_eq!(e.read(0, 0), (lat, outcome, retries));
        // Zero-rate plan: bit-identical to the fault-free controller.
        let mut z = DramController::with_faults(DramConfig::default(), &FaultConfig::none(), 0);
        assert_eq!(z.read(0, 0), dram().read(0, 0));
        assert_eq!(z.stats.ecc_retries, 0);
    }
}
