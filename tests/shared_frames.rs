//! Read-only tables stored once per machine. The sharder hands every
//! shard the parent's init buffer for a replicated-whole array, and the
//! machine maps that buffer into its tiles as shared, copy-on-write page
//! frames. Only storage is shared: each tile's memory stays private.

use hsim::core::{DmaKind, MemoryPort};
use hsim::isa::memmap::LM_BASE;
use hsim::isa::{Route, Width};
use hsim::mem::PagedMem;
use hsim::prelude::*;
use hsim_compiler::CompiledKernel;
use hsim_workloads::nas;

const PAGE: u64 = 4096;

/// Shards `kernel` over `n` tiles of `mode` and builds the machine.
fn build(
    kernel: &Kernel,
    n: usize,
    mode: SysMode,
) -> (MultiMachine, Vec<(CompiledKernel, Kernel)>) {
    let shards: Vec<_> = kernel
        .shard(n)
        .expect("kernel must shard")
        .into_iter()
        .map(|s| (compile(&s, mode.codegen()), s))
        .collect();
    (
        MultiMachine::for_kernels(MachineConfig::for_mode(mode), &shards),
        shards,
    )
}

/// CG's gathered vector `x`: its array id and its pages.
fn gathered_table(kernel: &Kernel) -> (usize, usize) {
    let x = kernel.arrays.iter().position(|a| a.name == "x").unwrap();
    (x, (kernel.init[x].len() as u64 * 8).div_ceil(PAGE) as usize)
}

#[test]
fn a_replicated_table_is_stored_once_across_the_tiles() {
    let kernel = nas::cg(Scale::Test);
    let (x, table_pages) = gathered_table(&kernel);
    assert_eq!(table_pages, 24, "96 KiB of f64");
    for n in [4, 8] {
        let (m, shards) = build(&kernel, n, SysMode::CacheBased);
        for (i, (tile, (ck, shard))) in m.tiles.iter().zip(&shards).enumerate() {
            // The same data, loaded into private frames only.
            let mut private = PagedMem::new();
            for (id, init) in shard.init.iter().enumerate() {
                private.load_words(ck.layout.arrays[id].base, init);
            }
            let b = &tile.world.backing;
            assert_eq!(b.shared_pages(), table_pages, "{n} tiles: tile {i} maps x");
            assert_eq!(b.private_pages() + table_pages, private.resident_pages());
            for (id, a) in ck.layout.arrays.iter().enumerate() {
                let sum = |m: &PagedMem| m.checksum(a.base, a.bytes);
                assert_eq!(sum(b), sum(&private), "{n} tiles: tile {i} array {id}");
            }
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
    let (x, table_pages) = gathered_table(&kernel);
    let (mut m, shards) = build(&kernel, 4, SysMode::HybridCoherent);
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
    for tile in 0..4 {
        let wrote = |t: usize, v: u64| if tile == t { !v } else { v };
        assert_eq!(word(&m, tile, base + 8), wrote(1, first), "tile {tile}");
        assert_eq!(word(&m, tile, base + PAGE), wrote(2, second), "tile {tile}");
        // The copied page kept the rest of the table.
        assert_eq!(word(&m, tile, base + 16), word(&m, 0, base + 16));
        let shared = m.tiles[tile].world.backing.shared_pages();
        let expect = table_pages - usize::from(tile == 1 || tile == 2);
        assert_eq!(
            shared, expect,
            "tile {tile}: only a written page turns private"
        );
    }
}
