//! Read-only views of 64-bit words: how initial data is held.
//!
//! A [`Words`] is a range of one shared, immutable buffer. Narrowing it
//! ([`Words::slice`]) makes another view of the same allocation, so a
//! table sliced into many pieces, and each piece mapped into a tile's
//! memory, is still stored once.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A read-only view of a range of a shared word buffer. Dereferences to
/// the viewed `[u64]`, and compares and prints as that slice: two views
/// are equal when their words are, whatever buffers they view.
#[derive(Clone)]
pub struct Words {
    buf: Arc<[u64]>,
    range: Range<usize>,
}

impl Words {
    /// The view `range` of this view (indices relative to this view):
    /// the same buffer, no copy. Panics if `range` is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Words {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "view {range:?} out of bounds of {} words",
            self.len()
        );
        let start = self.range.start;
        Words {
            buf: Arc::clone(&self.buf),
            range: start + range.start..start + range.end,
        }
    }

    /// The whole buffer this view is a range of, and that range.
    pub fn buffer(&self) -> (&Arc<[u64]>, Range<usize>) {
        (&self.buf, self.range.clone())
    }
}

impl From<Arc<[u64]>> for Words {
    fn from(buf: Arc<[u64]>) -> Self {
        Words {
            range: 0..buf.len(),
            buf,
        }
    }
}

impl FromIterator<u64> for Words {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        iter.into_iter().collect::<Arc<[u64]>>().into()
    }
}

impl Default for Words {
    fn default() -> Self {
        Arc::<[u64]>::from([]).into()
    }
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.buf[self.range.clone()]
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_views_the_same_buffer() {
        let whole: Words = (0..10).collect();
        let mid = whole.slice(2..8);
        let inner = mid.slice(1..4);
        assert_eq!(*inner, [3, 4, 5]);
        assert!(Arc::ptr_eq(whole.buffer().0, inner.buffer().0));
        assert_eq!(inner.buffer().1, 3..6);
        assert!(mid.slice(6..6).is_empty());
    }

    #[test]
    fn views_compare_and_print_as_their_words() {
        let a: Words = [1, 2, 3, 4].into_iter().collect();
        let b: Words = [9, 2, 3].into_iter().collect();
        assert_eq!(a.slice(1..3), b.slice(1..3));
        assert_ne!(a, b);
        assert_eq!(format!("{:?}", a.slice(0..2)), "[1, 2]");
        assert_eq!(Words::default(), a.slice(4..4));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_past_the_view_panics() {
        let w: Words = (1..=3).collect();
        w.slice(1..3).slice(0..3);
    }
}
