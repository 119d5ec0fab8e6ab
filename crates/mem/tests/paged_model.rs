//! `PagedMem` against a naive model: a byte map where every absent
//! address reads zero. Random reads and writes of 1, 4 and 8 bytes at
//! any address (page- and word-crossing ones included), overlapping
//! copies in both directions, and mappings of random views at random
//! 8-aligned bases — partial pages, whole pages borrowed from a shared
//! buffer, and writes into those borrowed pages — must read exactly as
//! the model does, and no mapped buffer may ever change. The addresses
//! fall in four regions 1 GiB apart, so the pages of one region compete
//! with the others' for entries of the translation memo.

use hsim_isa::Words;
use hsim_mem::PagedMem;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Addresses stay within these bytes of a region, so operations
/// collide often.
const SPAN: u64 = 6 * 4096;

/// The regions' distance.
const REGION: u64 = 1 << 30;

/// An address in one of the four regions, picked by `x`'s top bits.
fn at(x: u64) -> u64 {
    (x >> 62) * REGION + x % SPAN
}

/// The model memory: bytes by address, zero where absent.
#[derive(Default)]
struct Model(BTreeMap<u64, u8>);

impl Model {
    fn read(&self, addr: u64, n: u64) -> u64 {
        (0..n).fold(0, |v, i| {
            v | (u64::from(*self.0.get(&(addr + i)).unwrap_or(&0)) << (8 * i))
        })
    }

    fn write(&mut self, addr: u64, n: u64, val: u64) {
        for i in 0..n {
            self.0.insert(addr + i, (val >> (8 * i)) as u8);
        }
    }
}

fn read(m: &PagedMem, addr: u64, n: u64) -> u64 {
    match n {
        1 => m.read_u8(addr).into(),
        4 => m.read_u32(addr).into(),
        _ => m.read_u64(addr),
    }
}

fn write(m: &mut PagedMem, addr: u64, n: u64, val: u64) {
    match n {
        1 => m.write_u8(addr, val as u8),
        4 => m.write_u32(addr, val as u32),
        _ => m.write_u64(addr, val),
    }
}

/// One operation: `(kind, a, b, c)`, decoded by `apply`.
type Op = (u8, u64, u64, u64);

/// Applies `op` to both memories. Reads are checked here; the final
/// sweep checks every byte.
fn apply(
    m: &mut PagedMem,
    model: &mut Model,
    buffers: &[Words],
    (kind, a, b, c): Op,
) -> Result<(), TestCaseError> {
    let size = [1, 4, 8][(c % 3) as usize];
    let addr = at(a);
    match kind {
        // Reads and writes, at any alignment.
        0..=3 => {
            let got = read(m, addr, size);
            prop_assert_eq!(got, model.read(addr, size), "read {size} at {addr:#x}");
        }
        4..=7 => {
            write(m, addr, size, b);
            model.write(addr, size, b);
        }
        // Copies: overlapping ones within a few words, either way.
        8..=9 => {
            let len = c % 9000;
            let (src, near) = (at(b), a % 24);
            let dst = match (kind, a / 24 % 2) {
                (8, _) => addr,
                (_, 0) => src + near,
                _ => src.saturating_sub(near),
            };
            m.copy(dst, src, len);
            let bytes: Vec<u8> = (0..len).map(|i| model.read(src + i, 1) as u8).collect();
            for (i, byte) in (0..).zip(bytes) {
                model.write(dst + i, 1, byte.into());
            }
        }
        // A view of a random buffer, mostly long enough to cover whole
        // pages, at a random 8-aligned base, page-aligned half the time.
        _ => {
            let buf = &buffers[(c % buffers.len() as u64) as usize];
            let start = (b % (buf.len() as u64 / 4 + 1)) as usize;
            let end = buf.len() - (c as usize / 8) % ((buf.len() - start) / 4 + 1);
            let view = buf.slice(start..end);
            let base = if c & 4 == 0 { addr & !4095 } else { addr & !7 };
            m.map_words(base, &view);
            for (i, &w) in (0..).zip(view.iter()) {
                model.write(base + 8 * i, 8, w);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paged_mem_reads_like_a_byte_map(
        ops in prop::collection::vec((0u8..13, any::<u64>(), any::<u64>(), any::<u64>()), 1..60),
        seed in any::<u64>(),
    ) {
        // Buffers of 0 to 4 pages, words derived from the seed.
        let buffers: Vec<Words> = [0usize, 7, 512, 700, 1280, 2048]
            .iter()
            .map(|&n| (0..n as u64).map(|i| (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect())
            .collect();
        let pristine: Vec<Vec<u64>> = buffers.iter().map(|b| b.to_vec()).collect();
        let (mut m, mut model) = (PagedMem::new(), Model::default());
        for op in ops {
            apply(&mut m, &mut model, &buffers, op)?;
        }
        // Copies and mappings reach at most four pages past `SPAN`.
        for addr in (0..4).flat_map(|r| r * REGION..r * REGION + SPAN + 4 * 4096) {
            prop_assert_eq!(m.read_u8(addr), model.read(addr, 1) as u8, "byte {addr:#x}");
        }
        for (buffer, words) in buffers.iter().zip(&pristine) {
            prop_assert_eq!(&**buffer, &words[..], "a mapped buffer changed");
        }
    }
}
