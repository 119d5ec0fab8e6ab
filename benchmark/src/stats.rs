//! Seeded input generation and the small numeric helpers the benchmark
//! reports with: a deterministic generator, medians, and the report
//! digest.

/// SplitMix64: the benchmark's only source of randomness. Every input
/// the product sees — gather indices, arrival seeds, replay streams —
/// is drawn from one of these seeded from `--seed`, so the same seed
/// gives the same inputs on every host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`. Distinct streams
    /// of one seed are independent, so adding a replay never shifts the
    /// inputs of another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` (`bound` > 0). The modulo bias is below
    /// 2^-40 for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Median of `xs` (mean of the middle two for an even count). Panics on
/// an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest and largest of `xs`.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of a report: a hash of its `Debug` rendering, which names
/// every counter the report holds. Two runs agree on the digest exactly
/// when they agree on every simulated statistic.
pub fn digest<T: std::fmt::Debug>(report: &T) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next_u64()
        })
        .take(64)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next_u64()
        })
        .take(64)
        .collect();
        let c: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(8, 1);
            move || r.next_u64()
        })
        .take(64)
        .collect();
        let d: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 2);
            move || r.next_u64()
        })
        .take(64)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "streams of one seed are independent");
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
            let x = r.unit_f64();
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min_max(&[4.0, 1.0, 3.0]), (1.0, 4.0));
    }

    #[test]
    fn digest_separates_reports_and_repeats() {
        #[derive(Debug)]
        #[allow(dead_code)] // read through Debug only
        struct R {
            cycles: u64,
            hits: u64,
        }
        let a = digest(&R {
            cycles: 10,
            hits: 3,
        });
        assert_eq!(
            a,
            digest(&R {
                cycles: 10,
                hits: 3
            })
        );
        assert_ne!(
            a,
            digest(&R {
                cycles: 10,
                hits: 4
            })
        );
        assert_ne!(
            a,
            digest(&R {
                cycles: 11,
                hits: 3
            })
        );
        // The published FNV-1a test vector.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
