//! Every table stored once per process. The sharder hands each shard a
//! view of its parent's init buffers — the whole buffer for a
//! replicated array, a narrowed range for a sliced one — and each tile
//! maps its views by borrowing their whole pages as read-only,
//! copy-on-write frames. Only storage is shared: each tile's memory
//! stays private.

use hsim::core::{DmaKind, MemoryPort};
use hsim::isa::memmap::{LM_BASE, LM_SIZE};
use hsim::isa::{Route, Width};
use hsim::mem::PagedMem;
use hsim::prelude::*;
use hsim_compiler::CompiledKernel;
use hsim_workloads::nas;

const PAGE: u64 = 4096;
const PAGE_WORDS: usize = 512;

/// Shards `kernel` over `n` tiles of `cfg` and builds the machine.
fn build(
    kernel: &Kernel,
    n: usize,
    cfg: &MachineConfig,
) -> (MultiMachine, Vec<(CompiledKernel, Kernel)>) {
    let shards: Vec<_> = kernel
        .shard(n)
        .expect("kernel must shard")
        .into_iter()
        .map(|s| (compile(&s, cfg.mode.codegen()), s))
        .collect();
    (MultiMachine::for_kernels(cfg.clone(), &shards), shards)
}

/// The copying loader that mapping replaced: every init word stored
/// into a fresh memory of its own.
fn copied_image(ck: &CompiledKernel, shard: &Kernel) -> PagedMem {
    let mut m = PagedMem::new();
    for (init, array) in shard.init.iter().zip(&ck.layout.arrays) {
        for (i, &w) in (0..).zip(init.iter()) {
            m.write_u64(array.base + 8 * i, w);
        }
    }
    m
}

/// Pages a shard's views cover whole, and partial last pages.
fn whole_and_partial_pages(shard: &Kernel) -> (usize, usize) {
    let whole = shard.init.iter().map(|w| w.len() / PAGE_WORDS).sum();
    let partial = shard.init.iter().filter(|w| w.len() % PAGE_WORDS != 0);
    (whole, partial.count())
}

/// Asserts that `a` and `b` hold the same bytes in every array and in
/// the local-memory window.
fn assert_same_image(a: &PagedMem, b: &PagedMem, ck: &CompiledKernel, what: &str) {
    let ranges = ck.layout.arrays.iter().map(|a| (a.base, a.bytes));
    for (base, bytes) in ranges.chain([(LM_BASE, LM_SIZE)]) {
        assert_eq!(
            a.checksum(base, bytes),
            b.checksum(base, bytes),
            "{what}: bytes at {base:#x}"
        );
    }
}

/// CG's gathered vector `x`: its array id and its pages.
fn gathered_table(kernel: &Kernel) -> (usize, usize) {
    let x = kernel.arrays.iter().position(|a| a.name == "x").unwrap();
    (x, kernel.init[x].len().div_ceil(PAGE_WORDS))
}

#[test]
fn a_replicated_table_is_stored_once_across_the_tiles() {
    let kernel = nas::cg(Scale::Test);
    let (x, table_pages) = gathered_table(&kernel);
    assert_eq!(table_pages, 24, "96 KiB of f64");
    for n in [4, 8] {
        let (m, shards) = build(&kernel, n, &MachineConfig::for_mode(SysMode::CacheBased));
        for (i, (tile, (ck, shard))) in m.tiles.iter().zip(&shards).enumerate() {
            let b = &tile.world.backing;
            // x's 24 pages, and the sliced arrays' whole pages: 3 each
            // of 6 arrays on 4 tiles, 1 each on 8.
            let sliced_pages = 6 * (6 * 1024 / n / PAGE_WORDS);
            assert_eq!(
                b.shared_pages(),
                table_pages + sliced_pages,
                "{n} tiles: tile {i} borrows x and its slices"
            );
            assert_same_image(b, &copied_image(ck, shard), ck, &format!("tile {i}"));
        }
        let base = shards[0].0.layout.arrays[x].base;
        assert!(shards
            .iter()
            .all(|(ck, _)| ck.layout.arrays[x].base == base));
    }
}

#[test]
fn a_write_into_a_shared_page_changes_only_the_writing_tile() {
    let kernel = nas::cg(Scale::Test);
    let (x, _) = gathered_table(&kernel);
    let hybrid = MachineConfig::for_mode(SysMode::HybridCoherent);
    let (mut m, shards) = build(&kernel, 4, &hybrid);
    let borrowed: Vec<usize> = m
        .tiles
        .iter()
        .map(|t| t.world.backing.shared_pages())
        .collect();
    let base = shards[0].0.layout.arrays[x].base;
    let word = |m: &MultiMachine, tile: usize, at: u64| m.tiles[tile].world.backing.read_u64(at);
    let (first, second) = (word(&m, 0, base + 8), word(&m, 0, base + PAGE));
    // Tile 1 stores one word; tile 2 `dma-put`s one over the next page.
    m.tiles[1]
        .world
        .exec_mem(0, base + 8, Width::D, Route::Plain, Some(!first));
    m.tiles[2].world.backing.write_u64(LM_BASE, !second);
    m.tiles[2]
        .world
        .exec_dma(0, DmaKind::Put, LM_BASE, base + PAGE, 8, 0);
    for (tile, before) in borrowed.into_iter().enumerate() {
        let wrote = |t: usize, v: u64| if tile == t { !v } else { v };
        assert_eq!(word(&m, tile, base + 8), wrote(1, first), "tile {tile}");
        assert_eq!(word(&m, tile, base + PAGE), wrote(2, second), "tile {tile}");
        // The copied page kept the rest of the table.
        assert_eq!(word(&m, tile, base + 16), word(&m, 0, base + 16));
        let shared = m.tiles[tile].world.backing.shared_pages();
        let expect = before - usize::from(tile == 1 || tile == 2);
        assert_eq!(
            shared, expect,
            "tile {tile}: only a written page turns private"
        );
    }
    assert_eq!(kernel.init, nas::cg(Scale::Test).init, "no buffer changed");
}

#[test]
fn tiles_copy_only_partial_last_pages_and_run_as_if_loaded_by_copy() {
    let kernel = nas::cg(Scale::Test);
    let tiles = CoherenceMode::ALL
        .into_iter()
        .flat_map(|cm| [4, 8, 16].map(|n| (cm, n)));
    for (cm, n) in tiles {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let (mut m, shards) = build(&kernel, n, &cfg);
        for (i, (tile, (_, shard))) in m.tiles.iter().zip(&shards).enumerate() {
            let (whole, partial) = whole_and_partial_pages(shard);
            let b = &tile.world.backing;
            assert!(partial <= shard.init.len());
            assert_eq!(
                (b.private_pages(), b.shared_pages()),
                (partial, whole),
                "{cm:?} {n} tiles: tile {i} copies only its partial last pages"
            );
        }
        // The same machine with every tile loaded by copy.
        let (mut copied, _) = build(&kernel, n, &cfg);
        for (tile, (ck, shard)) in copied.tiles.iter_mut().zip(&shards) {
            tile.world.backing = copied_image(ck, shard);
        }
        m.run().expect("borrowing run completes");
        copied.run().expect("copying run completes");
        for (i, (tile, (ck, _))) in m.tiles.iter().zip(&shards).enumerate() {
            let reference = &copied.tiles[i];
            let what = format!("{cm:?} {n} tiles: tile {i} after the run");
            assert_eq!(tile.core.stats, reference.core.stats, "{what}");
            assert_same_image(&tile.world.backing, &reference.world.backing, ck, &what);
        }
    }
    assert_eq!(kernel.init, nas::cg(Scale::Test).init, "no buffer changed");
}

/// Asserts that array `name` of every kernel views one allocation.
fn one_buffer_for(kernels: &[Kernel], name: &str) {
    let id = kernels[0].arrays.iter().position(|a| a.name == name);
    let id = id.unwrap_or_else(|| panic!("no array {name}"));
    let (first, range) = kernels[0].init[id].buffer();
    assert_eq!(range, 0..first.len(), "{name} views its whole buffer");
    for (c, k) in kernels.iter().enumerate() {
        assert_eq!(k.arrays[id].name, name);
        assert!(
            std::sync::Arc::ptr_eq(k.init[id].buffer().0, first),
            "core {c}'s {name} is a copy"
        );
    }
}

#[test]
fn a_table_every_core_declares_is_generated_once() {
    use hsim_workloads::{queue, request_serving};
    one_buffer_for(&request_serving(Scale::Paper, 4).kernels, "table");
    one_buffer_for(&queue(Scale::Paper, 4, 64).kernels, "bidx");
}
