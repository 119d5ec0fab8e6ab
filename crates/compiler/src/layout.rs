//! Data layout: placing kernel arrays in the SM address space.
//!
//! The directory's masked CAM lookup (Figure 4) requires `dma-get` source
//! chunks to be buffer-size aligned. The compiler therefore aligns every
//! array to the largest possible buffer size (the whole LM) and pads each
//! array with one maximal window, so the last tile's full-window transfer
//! never touches a neighbouring array.

use crate::ir::Kernel;
use hsim_isa::memmap::{Addr, DATA_BASE, LM_SIZE};

/// Placement of one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayLayout {
    /// Base SM address (aligned to the LM size).
    pub base: Addr,
    /// Payload size in bytes (`len * 8`).
    pub bytes: u64,
}

/// The layout of a kernel's data segment.
#[derive(Clone, Debug, Default)]
pub struct Layout {
    /// Per-array placements, indexed by `ArrayId`.
    pub arrays: Vec<ArrayLayout>,
    /// First free address after the data segment.
    pub end: Addr,
}

impl Layout {
    /// Computes the layout for a kernel starting at the default data
    /// base.
    pub fn new(kernel: &Kernel) -> Self {
        Self::at(kernel, DATA_BASE)
    }

    /// Computes the layout starting at `base`.
    pub fn at(kernel: &Kernel, base: Addr) -> Self {
        let align = LM_SIZE; // largest possible buffer size
        let mut cursor = round_up(base, align);
        let mut arrays = Vec::with_capacity(kernel.arrays.len());
        for a in &kernel.arrays {
            let bytes = a.len * 8;
            arrays.push(ArrayLayout {
                base: cursor,
                bytes,
            });
            // Payload + one max-window guard, window-aligned.
            cursor = round_up(cursor + bytes + align, align);
        }
        Layout {
            arrays,
            end: cursor,
        }
    }

    /// SM address of element `idx` of `array`.
    #[inline]
    pub fn elem_addr(&self, array: usize, idx: u64) -> Addr {
        self.arrays[array].base + idx * 8
    }
}

fn round_up(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::KernelBuilder;

    #[test]
    fn arrays_are_window_aligned_and_guarded() {
        let mut kb = KernelBuilder::new("l");
        kb.array_f64("x", 1000);
        kb.array_f64("y", 1);
        kb.array_i64("z", 100_000);
        let k = kb.build().unwrap();
        let l = Layout::new(&k);
        for (i, a) in l.arrays.iter().enumerate() {
            assert_eq!(a.base % LM_SIZE, 0, "array {i} misaligned");
        }
        // Guard padding: next array starts at least one window after the
        // payload ends.
        for w in l.arrays.windows(2) {
            assert!(w[1].base >= w[0].base + w[0].bytes + LM_SIZE);
        }
        assert!(l.end > l.arrays[2].base);
    }

    #[test]
    fn elem_addressing() {
        let mut kb = KernelBuilder::new("l");
        kb.array_f64("x", 16);
        let k = kb.build().unwrap();
        let l = Layout::new(&k);
        assert_eq!(l.elem_addr(0, 0), l.arrays[0].base);
        assert_eq!(l.elem_addr(0, 3), l.arrays[0].base + 24);
    }

    #[test]
    fn custom_base_respected() {
        let mut kb = KernelBuilder::new("l");
        kb.array_f64("x", 16);
        let k = kb.build().unwrap();
        let l = Layout::at(&k, 0x5000_0000);
        assert!(l.arrays[0].base >= 0x5000_0000);
        assert_eq!(l.arrays[0].base % LM_SIZE, 0);
    }
}
