//! Offline stand-in for the `rand` crate (API subset).
//!
//! Provides exactly what this repository uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`] and [`Rng::gen_range`] over half-open
//! ranges of `i64`/`u64`/`usize`/`i32`/`f64`. The generator is
//! SplitMix64 — deterministic, well distributed, and *not* the real
//! crate's stream. The values are load-bearing: every workload's initial
//! data is drawn from this stream, so every committed `BENCH_*.json` and
//! golden depends on the generator and on how [`SampleUniform`] maps its
//! bits onto a range. Changing either re-records all of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Core interface of a random generator (subset of `rand::RngCore`).
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a half-open range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Draws a uniform value in `[range.start, range.end)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

// An integer draw is `start + next_u64() % span`. Every supported type is
// at most 64 bits wide, so the span `end - start` fits in a `u64`, and the
// sum is taken modulo 2^64 (sign-extending signed bounds) and truncated
// back to the type: the same value as exact wide arithmetic.
macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                (range.start as u64).wrapping_add(rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_sample_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl SampleUniform for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + (range.end - range.start) * unit
    }
}

/// User-facing sampling interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a uniform value from a half-open range.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample(self, range)
    }
}

impl<R: RngCore> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand`'s
    /// `StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele et al.): passes BigCrush, one u64 state.
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SampleUniform, SeedableRng};

    /// Replays a fixed word through the sampler.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The exact-arithmetic draw the `u64` reduction must reproduce.
    fn wide(word: u64, start: i128, end: i128) -> i128 {
        start + (word as u128 % (end - start) as u128) as i128
    }

    /// Words that hit the reduction's edges: 0, 1, all ones, the sign
    /// bit, 2^32 boundaries, plus a seeded stream.
    fn words() -> Vec<u64> {
        let mut w = vec![0, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        w.extend([(1 << 32) - 1, 1 << 32, (1 << 32) + 1]);
        let mut r = StdRng::seed_from_u64(0xED6E);
        w.extend((0..256).map(|_| r.next_u64()));
        w
    }

    #[test]
    fn integer_draws_match_exact_arithmetic_at_edge_spans() {
        let i64_ranges: [(i64, i64); 8] = [
            (0, 1),
            (0, 2),
            (-1, 1),
            (0, (1 << 32) + 1),
            (i64::MIN, 0),
            (i64::MIN, i64::MAX),
            (-5, 5),
            (i64::MIN + 3, i64::MIN + 5),
        ];
        let u64_ranges: [(u64, u64); 6] = [
            (0, 1),
            (0, 2),
            (0, 1 << 63),
            (0, u64::MAX),
            (u64::MAX - 2, u64::MAX),
            (1 << 63, u64::MAX),
        ];
        for w in words() {
            for (s, e) in i64_ranges {
                let got = i64::sample(&mut Fixed(w), s..e);
                assert_eq!(
                    got as i128,
                    wide(w, s as i128, e as i128),
                    "{w:#x} in {s}..{e}"
                );
            }
            for (s, e) in u64_ranges {
                let got = u64::sample(&mut Fixed(w), s..e);
                assert_eq!(
                    got as i128,
                    wide(w, s as i128, e as i128),
                    "{w:#x} in {s}..{e}"
                );
            }
            let got = i32::sample(&mut Fixed(w), i32::MIN..i32::MAX);
            assert_eq!(got as i128, wide(w, i32::MIN as i128, i32::MAX as i128));
            let got = i8::sample(&mut Fixed(w), -128..-3);
            assert_eq!(got as i128, wide(w, -128, -3));
            let got = usize::sample(&mut Fixed(w), 7..usize::MAX);
            assert_eq!(got as i128, wide(w, 7, usize::MAX as i128));
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0i64..1000), b.gen_range(0i64..1000));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let f = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
            let u = r.gen_range(0u64..3);
            assert!(u < 3);
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = StdRng::seed_from_u64(1);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.gen_range(0usize..10)] += 1;
        }
        for b in buckets {
            assert!((700..1300).contains(&b), "bucket count {b} out of range");
        }
    }
}
