//! Unit tests of the shared backside: tiles meeting at the banked L3,
//! the directory, and the guards on `home` / `discharge`.

use super::*;
use crate::config::CoherenceProtocol;
use crate::fault::FaultConfig;
use crate::tile::MemSystem;
use std::cell::RefCell;
use std::rc::Rc;

/// The sharer count of a resident shared line (`None` when the line is
/// not directory-tracked).
fn sharer_count(bs: &SharedBackside, line_addr: u64) -> Option<u32> {
    let home = bs.home(0, line_addr);
    bs.banks[home.bank].dir.sharer_count(home.local)
}

// ------------------------------------------------- shared backside

/// Two tiles in front of one backside, as a multi-core machine
/// builds them.
fn shared_pair(l3_port_gap: u64) -> (MemSystem, MemSystem) {
    let mut cfg = MemConfig::hybrid();
    cfg.prefetch.enabled = false;
    cfg.l3_port_gap = l3_port_gap;
    let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 2)));
    let a = MemSystem::with_backside(cfg.clone(), Rc::clone(&backside), 0);
    let b = MemSystem::with_backside(cfg, backside, 1);
    (a, b)
}

#[test]
fn same_address_on_two_cores_stays_private_in_shared_l3() {
    let (mut a, mut b) = shared_pair(0);
    a.data_access(0, 0x40, 0x1000_0000, false);
    // Core 1 reading the same (core-local) address must not hit core
    // 0's line: private data is tagged per core in the shared array.
    let r = b.data_access(10_000, 0x40, 0x1000_0000, false);
    assert_eq!(r.served, Level::Dram, "no false sharing across cores");
    assert!(a.backside.borrow().probe(a.core_id(), 0x1000_0000));
    assert!(b.backside.borrow().probe(b.core_id(), 0x1000_0000));
    assert_eq!(a.backside_stats().dram.reads, 1);
    assert_eq!(b.backside_stats().dram.reads, 1);
}

#[test]
fn l3_port_contention_charges_waits_to_the_second_core() {
    let (mut a, mut b) = shared_pair(8);
    // Both cores miss to DRAM at the same cycle: the port serializes
    // them and the second core records the wait.
    a.data_access(0, 0x40, 0x1000_0000, false);
    b.data_access(0, 0x40, 0x1000_0000, false);
    let wait_a = a.backside_stats().bus_wait_cycles;
    let wait_b = b.backside_stats().bus_wait_cycles;
    assert_eq!(wait_a, 0, "first requester never waits");
    assert!(
        wait_b >= 8,
        "second requester waits for the port, got {wait_b}"
    );
    assert_eq!(a.backside_stats().bus_requests, 1);
    assert_eq!(b.backside_stats().bus_requests, 1);
}

#[test]
fn uncontended_port_is_free_even_when_shared() {
    let (mut a, mut b) = shared_pair(8);
    a.data_access(0, 0x40, 0x1000_0000, false);
    // Far apart in time: no wait.
    b.data_access(100_000, 0x40, 0x2000_0000, false);
    assert_eq!(b.backside_stats().bus_wait_cycles, 0);
}

#[test]
fn per_core_l3_stats_sum_to_shared_totals() {
    let (mut a, mut b) = shared_pair(0);
    for i in 0..32u64 {
        a.data_access(i * 500, 0x40, 0x1000_0000 + i * 64, false);
        b.data_access(i * 500 + 7, 0x44, 0x3000_0000 + i * 128, false);
    }
    // Write traffic at a 128 KB stride from both cores lands in one
    // L2 set *and* one (shared) L3 set: dirty L2 victims cascade
    // into the L3 as write-backs, and the other core's pressure
    // evicts some of them from the L3 first, so `accept_writeback`
    // exercises both its resident and its line-allocating paths.
    for i in 0..50u64 {
        a.data_access(20_000 + i * 600, 0x48, 0x5000_0000 + i * 0x20000, true);
        b.data_access(20_000 + i * 600 + 7, 0x4c, 0x6000_0000 + i * 0x20000, true);
    }
    assert!(
        a.backside_stats().l3.writebacks_in > 0 && b.backside_stats().l3.writebacks_in > 0,
        "the write pattern must actually cascade write-backs into the L3"
    );
    let backside = Rc::clone(&a.backside);
    let total = backside.borrow().l3_total_stats();
    let mut sum = a.backside_stats().l3;
    sum.merge(&b.backside_stats().l3);
    assert_eq!(sum, total, "per-core shares must partition the totals");
    let dram_total = backside.borrow().dram_total_stats();
    let (da, db) = (a.backside_stats().dram, b.backside_stats().dram);
    assert_eq!(da.reads + db.reads, dram_total.reads);
    assert_eq!(da.writes + db.writes, dram_total.writes);
    assert_eq!(da.row_hits + db.row_hits, dram_total.row_hits);
    assert_eq!(da.row_misses + db.row_misses, dram_total.row_misses);
    assert_eq!(
        da.row_conflicts + db.row_conflicts,
        dram_total.row_conflicts
    );
    assert_eq!(da.queue_stalls + db.queue_stalls, dram_total.queue_stalls);
    assert_eq!(da.ecc_retries + db.ecc_retries, dram_total.ecc_retries);
}

#[test]
fn fault_counters_partition_chip_totals_exactly() {
    // The recovery counters obey the same attribution invariant as
    // every other backside stat: each injected event lands on
    // exactly one core's share.
    let mut cfg = MemConfig::hybrid();
    cfg.prefetch.enabled = false;
    cfg.l3_port_gap = 8;
    cfg.fault = FaultConfig::uniform(77, 0.4);
    let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 2)));
    let mut a = MemSystem::with_backside(cfg.clone(), Rc::clone(&backside), 0);
    let mut b = MemSystem::with_backside(cfg, backside, 1);
    for i in 0..64u64 {
        // Same-cycle pairs so the bank ports actually contend (the
        // NACK site only rolls on contended arbitrations).
        a.data_access(i * 300, 0x40, 0x1000_0000 + i * 64, i % 5 == 0);
        b.data_access(i * 300, 0x44, 0x1000_0000 + i * 64 + 16, false);
    }
    let bs = Rc::clone(&a.backside);
    let total_dram = bs.borrow().dram_total_stats();
    let total_coh = bs.borrow().coherence_total_stats();
    let (sa, sb) = (a.backside_stats(), b.backside_stats());
    assert!(
        total_dram.ecc_retries > 0,
        "rate 0.4 must inject ECC retries"
    );
    assert!(total_coh.dir_nacks > 0, "contended ports must see NACKs");
    assert_eq!(
        sa.dram.ecc_retries + sb.dram.ecc_retries,
        total_dram.ecc_retries
    );
    let mut coh = sa.coh;
    coh.merge(&sb.coh);
    assert_eq!(coh, total_coh, "NACK shares must partition");
}

#[test]
fn shared_dram_channel_queues_across_cores() {
    let (mut a, mut b) = shared_pair(0);
    // Same-cycle DRAM misses share the channel: the second transfer
    // queues at least one burst gap behind the first (and possibly a
    // whole bank occupancy, if the hashed interleave put the two
    // cores' tagged rows in one bank).
    let ra = a.data_access(0, 0x40, 0x1000_0000, false);
    let rb = b.data_access(0, 0x40, 0x1000_0000, false);
    assert_eq!(ra.served, Level::Dram);
    assert_eq!(rb.served, Level::Dram);
    assert!(
        rb.latency >= ra.latency + 12,
        "second DRAM read must queue behind the first ({} vs {})",
        rb.latency,
        ra.latency
    );
    assert_eq!(a.backside_stats().dram.row_misses, 1, "first opens its row");
    assert_eq!(
        b.backside_stats().dram.row_accesses(),
        1,
        "second is row-classified too (tagged rows are distinct)"
    );
    assert_eq!(
        b.backside_stats().dram.row_hits,
        0,
        "distinct rows cannot hit"
    );
}

#[test]
fn different_l3_banks_do_not_conflict_on_the_port() {
    let (mut a, mut b) = shared_pair(8);
    // Adjacent lines interleave across L3 banks: same-cycle requests
    // to different banks both start immediately.
    a.data_access(0, 0x40, 0x1000_0000, false);
    b.data_access(0, 0x40, 0x1000_0040, false);
    assert_eq!(a.backside_stats().bank_conflicts, 0);
    assert_eq!(b.backside_stats().bank_conflicts, 0);
    assert_eq!(b.backside_stats().bus_wait_cycles, 0);
}

#[test]
fn same_l3_bank_conflicts_and_counts() {
    let (mut a, mut b) = shared_pair(8);
    let backside = Rc::clone(&a.backside);
    let n_banks = backside.borrow().banks.len() as u64;
    // Two same-cycle requests one bank-stride apart collide on one
    // bank's port; the second is charged the wait and the conflict.
    a.data_access(0, 0x40, 0x1000_0000, false);
    b.data_access(0, 0x44, 0x1000_0000 + n_banks * 64, false);
    assert_eq!(a.backside_stats().bank_conflicts, 0);
    assert_eq!(b.backside_stats().bank_conflicts, 1);
    assert!(b.backside_stats().bus_wait_cycles >= 8);
}

#[test]
fn single_bank_backside_keeps_the_monolithic_geometry() {
    let mut cfg = MemConfig::hybrid();
    cfg.l3_geometry.banks = 1;
    let bs = SharedBackside::new(&cfg, 1);
    assert_eq!(bs.banks.len(), 1);
    assert_eq!(bs.banks[0].cache.cfg.num_sets(), cfg.l3.num_sets());
    // Bank-local addresses are the identity under one bank.
    assert_eq!(bs.home(0, 0x1234_5640).local, 0x1234_5640);
    assert_eq!(bs.global_addr(0x1234_5640, 0), 0x1234_5640);
}

#[test]
fn bank_address_mapping_round_trips() {
    let cfg = MemConfig::hybrid();
    let bs = SharedBackside::new(&cfg, 1);
    for line in [0u64, 0x40, 0x1000_0000, 0x1000_0040, 0x3fff_ffc0] {
        let home = bs.home(0, line);
        assert!(home.bank < bs.banks.len());
        assert_eq!(bs.global_addr(home.local, home.bank), line);
    }
    // Adjacent lines rotate through the banks.
    assert_ne!(bs.home(0, 0x1000_0000).bank, bs.home(0, 0x1000_0040).bank);
}

// ------------------------------------------------- MESI directory

/// Two tiles under MESI (the default protocol) with `[0x1000_0000,
/// +8 MiB)` registered as cross-core shared.
fn mesi_pair(l3_port_gap: u64) -> (MemSystem, MemSystem) {
    let mut cfg = MemConfig::hybrid();
    cfg.prefetch.enabled = false;
    cfg.l3_port_gap = l3_port_gap;
    let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 2)));
    backside
        .borrow_mut()
        .mark_shared_range(0x1000_0000, 8 << 20);
    let a = MemSystem::with_backside(cfg.clone(), Rc::clone(&backside), 0);
    let b = MemSystem::with_backside(cfg, backside, 1);
    (a, b)
}

#[test]
fn shared_read_is_served_without_replication() {
    let (mut a, mut b) = mesi_pair(0);
    a.data_access(0, 0x40, 0x1000_0000, false);
    // The second core hits the line the first brought in: one DRAM
    // read total, and the directory records two sharers.
    let r = b.data_access(10_000, 0x40, 0x1000_0000, false);
    assert_eq!(r.served, Level::L3, "read sharing must hit the L3");
    assert_eq!(a.backside_stats().dram.reads, 1);
    assert_eq!(b.backside_stats().dram.reads, 0, "no replicated DRAM read");
    assert_eq!(b.backside_stats().coh.shared_hits, 1);
    let bs = Rc::clone(&a.backside);
    assert_eq!(sharer_count(&bs.borrow(), 0x1000_0000), Some(2));
}

#[test]
fn outside_registered_ranges_mesi_keeps_private_replicas() {
    let (mut a, mut b) = mesi_pair(0);
    a.data_access(0, 0x40, 0x5000_0000, false);
    let r = b.data_access(10_000, 0x40, 0x5000_0000, false);
    assert_eq!(r.served, Level::Dram, "private data stays core-tagged");
    assert_eq!(b.backside_stats().dram.reads, 1);
    assert_eq!(b.backside_stats().coh.shared_hits, 0);
}

#[test]
fn write_recalls_sharers_and_read_back_pays_intervention() {
    let (mut a, mut b) = mesi_pair(0);
    a.data_access(0, 0x40, 0x1000_0000, false);
    b.data_access(10_000, 0x44, 0x1000_0000, false);
    assert!(b.l1d.probe(0x1000_0000), "B holds an upper copy");
    // A stores to the shared line: its L2 absorbs the write-through,
    // and the directory recalls B's copy.
    a.data_access(20_000, 0x48, 0x1000_0004, true);
    assert_eq!(a.backside_stats().coh.invalidations_sent, 1);
    // B's next access first applies the recall (losing its L1/L2
    // copies), then re-misses into the L3, where A's M state forces
    // an intervention: A's dirty data is written back, charged to A.
    let writes_before = a.backside_stats().dram.writes;
    let r = b.data_access(30_000, 0x4c, 0x1000_0000, false);
    assert_eq!(b.backside_stats().coh.upper_invals_applied, 1);
    assert!(!b.l1d.probe(0x1000_0010) || r.served == Level::L3);
    assert_eq!(r.served, Level::L3, "L3 still holds the line");
    assert_eq!(b.backside_stats().coh.interventions, 1);
    assert_eq!(
        a.backside_stats().dram.writes,
        writes_before + 1,
        "the intervention write-back is charged to the owner"
    );
    let bs = Rc::clone(&a.backside);
    assert_eq!(sharer_count(&bs.borrow(), 0x1000_0000), Some(2));
}

#[test]
fn dma_get_snoop_intervenes_on_remote_modified_line() {
    let (mut a, mut b) = mesi_pair(0);
    // A write-allocates the shared line: Modified, owned by A.
    a.data_access(0, 0x40, 0x1000_0000, true);
    let writes_before = a.backside_stats().dram.writes;
    // B's dma-get over the same line snoops the hierarchy while the
    // line is M elsewhere: the owner's data must be recalled so the
    // transfer reads current data.
    b.dma_get(1000, 0x1000_0000, 64, 0);
    assert_eq!(b.backside_stats().coh.interventions, 1);
    assert_eq!(a.backside_stats().dram.writes, writes_before + 1);
}

#[test]
fn shared_line_eviction_back_invalidates_sharers() {
    let (mut a, mut b) = mesi_pair(0);
    // Both cores share line 0x1000_0000.
    a.data_access(0, 0x40, 0x1000_0000, false);
    b.data_access(1_000, 0x44, 0x1000_0000, false);
    assert!(b.l1d.probe(0x1000_0000));
    // A floods the victim's L3 bank set with other shared lines
    // until 0x1000_0000 is evicted. Bank-local set stride: banks *
    // sets_per_bank * line bytes.
    let bs = Rc::clone(&a.backside);
    let (banks, ways, sets) = {
        let bs = bs.borrow();
        let ways = bs.banks[0].cache.cfg.ways as u64;
        (
            bs.banks.len() as u64,
            ways,
            bs.banks[0].cache.cfg.num_sets() as u64,
        )
    };
    let stride = banks * sets * 64;
    let mut i = 1u64;
    while bs.borrow().probe(0, 0x1000_0000) {
        a.data_access(10_000 + i * 700, 0x48, 0x1000_0000 + i * stride, false);
        assert!(i <= 2 * ways, "eviction must happen within the set");
        i += 1;
    }
    // The eviction recalled every sharer's copy (the sharer-eviction
    // race): B's next access applies it and re-misses to DRAM.
    assert!(a.backside_stats().coh.invalidations_sent >= 2);
    let r = b.data_access(900_000, 0x4c, 0x1000_0000, false);
    assert!(b.backside_stats().coh.upper_invals_applied >= 1);
    assert_eq!(r.served, Level::Dram, "the shared copy is gone");
}

#[test]
fn dirty_recall_charges_the_victim_tile_port() {
    let (mut a, mut b) = mesi_pair(0);
    // B write-allocates the shared line: its L2 absorbs the
    // write-through and holds the line dirty; B owns it Modified.
    b.data_access(0, 0x40, 0x1000_0000, true);
    assert!(b.l2.probe(0x1000_0000));
    // Warm a private line into B's L1 (and its TLB page) so the
    // post-recall access below is a pure L1 hit.
    b.data_access(1_000, 0x48, 0x5000_0000, false);
    b.data_access(2_000, 0x48, 0x5000_0000, false);
    // A writes the shared line: ownership moves, B's dirty copy is
    // recalled via a queued back-invalidation.
    a.data_access(10_000, 0x44, 0x1000_0000, true);
    assert_eq!(a.backside_stats().coh.invalidations_sent, 1);
    // B's next memory operation drains the recall: the dirty line's
    // transfer occupies B's tile port, so even an unrelated L1 hit
    // pays the recall latency on top of its own.
    let lat = Rc::clone(&b.backside).borrow().dirty_recall_latency();
    assert!(lat > 0, "default config must charge dirty recalls");
    let r = b.data_access(20_000, 0x4c, 0x5000_0000, false);
    assert_eq!(r.served, Level::L1);
    assert_eq!(r.latency, 2 + lat, "L1 hit + one dirty-recall charge");
    assert_eq!(b.backside_stats().coh.dirty_recalls, 1);
    assert_eq!(b.backside_stats().coh.upper_invals_applied, 1);
    // A clean recall costs nothing: B re-reads the line (Shared),
    // A writes again, and B's next hit pays no occupancy.
    b.data_access(30_000, 0x50, 0x1000_0000, false);
    a.data_access(40_000, 0x54, 0x1000_0004, true);
    let r = b.data_access(50_000, 0x58, 0x5000_0000, false);
    assert_eq!(r.latency, 2, "clean recalls charge no port occupancy");
    assert_eq!(b.backside_stats().coh.dirty_recalls, 1);
}

#[test]
fn mesi_stats_still_partition_chip_totals_exactly() {
    // The satellite invariant: with interventions, recalls and
    // owner-attributed write-backs in play, per-core shares must
    // still sum to the aggregate backside totals for every counter.
    let (mut a, mut b) = mesi_pair(4);
    for i in 0..64u64 {
        a.data_access(i * 500, 0x40, 0x1000_0000 + i * 64, i % 5 == 0);
        b.data_access(i * 500 + 3, 0x44, 0x1000_0000 + i * 64, i % 7 == 0);
        b.data_access(i * 500 + 9, 0x48, 0x5000_0000 + i * 128, false);
    }
    // Force evictions of shared lines with set-conflicting traffic.
    let bs = Rc::clone(&a.backside);
    let stride = {
        let bs = bs.borrow();
        bs.banks.len() as u64 * bs.banks[0].cache.cfg.num_sets() as u64 * 64
    };
    for i in 0..40u64 {
        a.data_access(100_000 + i * 800, 0x4c, 0x1000_0000 + i * stride, true);
    }
    let total_l3 = bs.borrow().l3_total_stats();
    let total_dram = bs.borrow().dram_total_stats();
    let total_coh = bs.borrow().coherence_total_stats();
    let (sa, sb) = (a.backside_stats(), b.backside_stats());
    let mut l3 = sa.l3;
    l3.merge(&sb.l3);
    assert_eq!(l3, total_l3, "L3 shares must partition the totals");
    assert_eq!(sa.dram.reads + sb.dram.reads, total_dram.reads);
    assert_eq!(sa.dram.writes + sb.dram.writes, total_dram.writes);
    assert_eq!(sa.dram.row_hits + sb.dram.row_hits, total_dram.row_hits);
    assert_eq!(
        sa.dram.row_misses + sb.dram.row_misses,
        total_dram.row_misses
    );
    assert_eq!(
        sa.dram.row_conflicts + sb.dram.row_conflicts,
        total_dram.row_conflicts
    );
    assert_eq!(
        sa.dram.queue_stalls + sb.dram.queue_stalls,
        total_dram.queue_stalls
    );
    // The directory-aware drain split partitions too: a stall whose
    // drained victim was an intervention write-back lands on the
    // owner, every other stall on the poster — one core either way.
    assert_eq!(
        sa.dram.intervention_drain_stalls + sb.dram.intervention_drain_stalls,
        total_dram.intervention_drain_stalls
    );
    assert_eq!(
        sa.dram.ecc_retries + sb.dram.ecc_retries,
        total_dram.ecc_retries
    );
    let mut coh = sa.coh;
    coh.merge(&sb.coh);
    assert_eq!(coh, total_coh, "coherence shares must partition");
    assert!(
        total_coh.shared_hits > 0 && total_coh.invalidations_sent > 0,
        "the workload must actually exercise the directory"
    );
}

#[test]
fn unregistered_lines_have_inert_directory_state() {
    let (mut a, mut b) = shared_pair(4);
    for i in 0..32u64 {
        a.data_access(i * 500, 0x40, 0x1000_0000 + i * 64, i % 3 == 0);
        b.data_access(i * 500 + 3, 0x44, 0x1000_0000 + i * 64, false);
    }
    let bs = Rc::clone(&a.backside);
    assert_eq!(
        bs.borrow().coherence_total_stats(),
        CoherenceStats::default()
    );
    assert_eq!(sharer_count(&bs.borrow(), 0x1000_0000), None);
    assert!(!bs.borrow().has_upper_invals(0));
    assert!(!bs.borrow().has_upper_invals(1));
}

#[test]
#[should_panic(expected = "sharer bitset")]
fn directory_backside_refuses_more_tiles_than_sharer_bits() {
    SharedBackside::new(&MemConfig::hybrid(), SharedBackside::MAX_CORES + 1);
}

#[test]
fn every_protocol_takes_as_many_tiles_as_sharer_bits() {
    let mut cfg = MemConfig::hybrid();
    for mode in CoherenceProtocol::ALL {
        cfg.coherence.mode = mode;
        assert_eq!(SharedBackside::new(&cfg, 64).n_cores(), 64);
    }
}

#[test]
fn posted_stores_book_a_bank_port_at_most_the_backlog_window_ahead() {
    // Tiles 0 and 1 trade ownership of one shared line with posted
    // stores — each an intervention plus an invalidation round on the
    // home bank's port — far faster than the port drains them, as
    // hybrid tiles spinning on one lock word do. Tile 2's demand load
    // to a private line of the same bank then waits at most the
    // backlog window, not the whole booked message train.
    let bs = &mut three_tiles(CoherenceProtocol::Mesi, true);
    let now = 2_000;
    for i in 0..2_000 {
        bs.note_shared_store(i % 2, now, SHARED_LINE);
    }
    assert!(bs.core_stats(1).coh.interventions >= 999, "stores recall");
    let same_bank = PRIVATE_LINE + 64 * bs.banks.len() as u64;
    assert_eq!(bs.home(2, same_bank).bank, bs.home(2, SHARED_LINE).bank);
    bs.access(2, now, same_bank, AccessKind::Read);
    let wait = bs.core_stats(2).bus_wait_cycles;
    assert!(
        wait > 0 && wait <= BANK_BACKLOG_WINDOW,
        "demand load waited {wait} cycles behind posted coherence messages"
    );
}

// ------------------------------------------- work guard + discharge pins

const SHARED_LINE: u64 = 0x1000_0000;
const PRIVATE_LINE: u64 = 0x5000_0000;

/// A 3-tile backside with `l3_port_gap` 4 and `SHARED_LINE` registered
/// as cross-core shared, after tile 0 write-allocated the line (dirty at
/// 0) and, when `shared`, tile 1 read it.
fn three_tiles(mode: CoherenceProtocol, shared: bool) -> SharedBackside {
    let mut cfg = MemConfig::hybrid();
    cfg.l3_port_gap = 4;
    cfg.coherence = CoherenceConfig {
        mode,
        ..Default::default()
    };
    let mut bs = SharedBackside::new(&cfg, 3);
    bs.mark_shared_range(SHARED_LINE, 64);
    bs.access(0, 0, SHARED_LINE, AccessKind::Write);
    if shared {
        bs.access(1, 1_000, SHARED_LINE, AccessKind::Read);
    }
    bs
}

/// Directory-slice lookups `op` performs (the memory side's work guard:
/// a counter, not a timer).
fn lookups_of(bs: &mut SharedBackside, op: impl FnOnce(&mut SharedBackside)) -> u64 {
    let count = |bs: &SharedBackside| bs.banks.iter().map(|b| b.dir.lookups).sum::<u64>();
    let before = count(bs);
    op(bs);
    count(bs) - before
}

#[test]
fn directory_work_is_one_lookup_per_shared_access_and_none_otherwise() {
    let bs = &mut three_tiles(CoherenceProtocol::Mesi, true);
    let demand_hit = lookups_of(bs, |bs| {
        let (_, served, _) = bs.access(2, 2_000, SHARED_LINE, AccessKind::Read);
        assert_eq!(served, Level::L3);
    });
    assert_eq!(demand_hit, 1, "a shared L3 hit steps its record in place");
    let absorbed_store = lookups_of(bs, |bs| bs.note_shared_store(1, 3_000, SHARED_LINE));
    assert_eq!(absorbed_store, 1, "no contains/copy/reinsert");
    assert_eq!(
        bs.core_stats(1).coh.invalidations_sent,
        2,
        "the store stepped"
    );
    let private = lookups_of(bs, |bs| {
        bs.access(2, 4_000, PRIVATE_LINE, AccessKind::Read);
        bs.access(2, 5_000, PRIVATE_LINE, AccessKind::Write);
        bs.note_shared_store(2, 6_000, PRIVATE_LINE);
        bs.writethrough(2, 7_000, PRIVATE_LINE);
        bs.snoop(2, 8_000, PRIVATE_LINE);
        bs.invalidate(2, PRIVATE_LINE);
    });
    assert_eq!(private, 0, "private lines never reach the directory");

    // With nothing registered (the private-tables machine), the same
    // operations on the same line never reach the directory.
    let mut cfg = MemConfig::hybrid();
    cfg.l3_port_gap = 4;
    let bs = &mut SharedBackside::new(&cfg, 3);
    bs.access(0, 0, SHARED_LINE, AccessKind::Write);
    bs.access(1, 1_000, SHARED_LINE, AccessKind::Read);
    let unregistered = lookups_of(bs, |bs| {
        bs.access(2, 2_000, SHARED_LINE, AccessKind::Read);
        bs.access(2, 3_000, SHARED_LINE, AccessKind::Write);
        bs.note_shared_store(1, 4_000, SHARED_LINE);
        bs.writethrough(1, 5_000, SHARED_LINE);
        bs.accept_writeback(0, 6_000, SHARED_LINE);
        bs.snoop(2, 7_000, SHARED_LINE);
        bs.invalidate(2, SHARED_LINE);
    });
    assert_eq!(
        unregistered, 0,
        "unregistered lines keep no directory state"
    );
}

/// One pinned `discharge` composition: the mode, the scenario, the
/// latency it returned, the home bank's `busy_until` afterwards (the
/// earliest port still busy after `now`; 0 = idle) and per tile
/// `[shared_hits, invalidations_sent, interventions, dram.reads,
/// dram.writes]`.
type DischargePin = (CoherenceProtocol, Scenario, u64, u64, [[u64; 5]; 3]);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Scenario {
    /// Tile 2 posts a store to the line tile 0 holds dirty and tile 1
    /// shares: under MOESI one transition owes the invalidation round
    /// *and* the intervention.
    PostedStore,
    /// Tile 2 demand-reads that line.
    DemandRead,
    /// Tile 2's `dma-get` snoops that line.
    DmaSnoop,
    /// Tile 2's `dma-get` snoops the line while tile 0 still holds it
    /// Modified (tile 1 never read it): every protocol recalls.
    DmaSnoopModified,
}
use Scenario::*;

/// Recorded at the parent of the `hierarchy.rs` split (three hand-written
/// discharge sites), asserted against the single `discharge`.
#[rustfmt::skip]
const DISCHARGE_PINS: [DischargePin; 16] = [
    (CoherenceProtocol::Msi, PostedStore, 0, 2012, [[0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 2, 0, 0, 0]]),
    (CoherenceProtocol::Msi, DemandRead, 40, 2004, [[0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [1, 0, 0, 0, 0]]),
    (CoherenceProtocol::Msi, DmaSnoop, 0, 0, [[0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 0, 0, 0, 0]]),
    (CoherenceProtocol::Msi, DmaSnoopModified, 0, 2030, [[0, 0, 0, 1, 1], [0, 0, 0, 0, 0], [0, 0, 1, 1, 0]]),
    (CoherenceProtocol::Mesi, PostedStore, 0, 2012, [[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [0, 2, 0, 0, 0]]),
    (CoherenceProtocol::Mesi, DemandRead, 40, 2004, [[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [1, 0, 0, 0, 0]]),
    (CoherenceProtocol::Mesi, DmaSnoop, 0, 0, [[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]]),
    (CoherenceProtocol::Mesi, DmaSnoopModified, 0, 2030, [[0, 0, 0, 1, 1], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]]),
    (CoherenceProtocol::Moesi, PostedStore, 0, 2042, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 2, 1, 0, 0]]),
    (CoherenceProtocol::Moesi, DemandRead, 70, 2070, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]]),
    (CoherenceProtocol::Moesi, DmaSnoop, 0, 2030, [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]]),
    (CoherenceProtocol::Moesi, DmaSnoopModified, 0, 2030, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]]),
    (CoherenceProtocol::Mesif, PostedStore, 0, 2012, [[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [0, 2, 0, 0, 0]]),
    (CoherenceProtocol::Mesif, DemandRead, 40, 2004, [[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [1, 0, 0, 0, 0]]),
    (CoherenceProtocol::Mesif, DmaSnoop, 0, 0, [[0, 0, 0, 1, 1], [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]]),
    (CoherenceProtocol::Mesif, DmaSnoopModified, 0, 2030, [[0, 0, 0, 1, 1], [0, 0, 0, 0, 0], [0, 0, 1, 0, 0]]),
];

#[test]
fn discharge_composes_what_the_three_hand_written_sites_did() {
    for (mode, scenario, latency, busy_until, tiles) in DISCHARGE_PINS {
        let mut bs = three_tiles(mode, scenario != DmaSnoopModified);
        let now = 2_000;
        let got = match scenario {
            PostedStore => {
                bs.writethrough(2, now, SHARED_LINE);
                0
            }
            DemandRead => bs.access(2, now, SHARED_LINE, AccessKind::Read).0,
            DmaSnoop | DmaSnoopModified => {
                assert!(bs.snoop(2, now, SHARED_LINE), "{mode:?}: the L3 holds it");
                0
            }
        };
        let what = format!("{mode:?} {scenario:?}");
        assert_eq!(got, latency, "{what}: latency");
        let port = bs.banks.iter().map(|b| b.busy_until).filter(|&t| t > now);
        assert_eq!(port.min().unwrap_or(0), busy_until, "{what}: port");
        for (core, [shared_hits, invalidations_sent, interventions, reads, writes]) in
            tiles.into_iter().enumerate()
        {
            let s = bs.core_stats(core);
            let coh = CoherenceStats {
                shared_hits,
                invalidations_sent,
                interventions,
                ..Default::default()
            };
            assert_eq!(s.coh, coh, "{what}: tile {core} coherence counters");
            assert_eq!(
                (s.dram.reads, s.dram.writes),
                (reads, writes),
                "{what}: tile {core} DRAM"
            );
        }
    }
}
