//! Log-linear latency histogram.
//!
//! Values below 128 ns get a bucket each. Above that, every power of two
//! is split into 128 equal sub-buckets, so a bucket is at most 1/128 of
//! its lower edge wide. Quantiles interpolate linearly inside the bucket
//! that holds the rank, so a reported quantile is within one bucket width
//! (< 0.8 %) of the exact sample quantile.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// Relative error bound of a reported quantile (one bucket width).
pub const REL_ERROR: f64 = 1.0 / SUB as f64;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

/// One quantile with the sample count it was read from.
#[derive(Clone, Copy, Debug)]
pub struct Quantile {
    pub ns: f64,
    pub samples: u64,
    /// Samples ranked above this quantile.
    pub beyond: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mant = (v >> shift) & (SUB - 1);
    (((shift + 1) as u64) << SUB_BITS | mant) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, (i + 1) as f64);
    }
    let shift = (i >> SUB_BITS) - 1;
    let mant = i & (SUB - 1);
    let lo = ((SUB | mant) << shift) as f64;
    (lo, lo + (1u64 << shift) as f64)
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (nearest-rank, interpolated within its bucket);
    /// `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<Quantile> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bounds(i);
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some(Quantile {
                    ns: lo + frac * (hi - lo),
                    samples: self.n,
                    beyond: self.n - rank,
                });
            }
            seen += c;
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for i in 1..BUCKETS - 1 {
            assert_eq!(bounds(i - 1).1, bounds(i).0, "gap before bucket {i}");
        }
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            u64::MAX / 3,
        ] {
            let (lo, hi) = bounds(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < hi,
                "{v} outside [{lo}, {hi})"
            );
            assert!(hi - lo <= (lo * REL_ERROR).max(1.0));
        }
    }

    #[test]
    fn quantiles_match_exact_within_error() {
        let mut h = Hist::default();
        let vals: Vec<u64> = (1..=10_000u64).map(|i| i * 37 % 9_973 + 500).collect();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let exact = sorted[(q * sorted.len() as f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!(
                (got.ns - exact).abs() <= exact * REL_ERROR,
                "q{q}: {} vs {exact}",
                got.ns
            );
        }
        assert_eq!(h.quantile(0.99).unwrap().beyond, 100);
    }
}
