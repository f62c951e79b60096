//! Log-linear latency histogram (HDR-style).
//!
//! Values are bucketed by power-of-two magnitude with `SUB_BITS` linear
//! sub-buckets per octave, giving a guaranteed relative error below
//! `1/2^SUB_BITS` ≈ 1.6 % — plenty for latency percentiles — with a small,
//! fixed memory footprint and O(1) recording.
//!
//! Used to measure **per-operation latency in simulated cycles**, which the
//! throughput figures hide: the paper's §I motivation is precisely that
//! batch reclamation causes "long program interruptions and dramatically
//! increases tail latency", while Conditional Access reclaims one node at a
//! time. `ablation_latency` regenerates that comparison.

/// Linear sub-bucket bits per octave.
const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Octaves covered (values up to 2^40 cycles ≈ 18 minutes at 1 GHz).
const OCTAVES: usize = 40;

/// A fixed-size log-linear histogram of `u64` values.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
    max: u64,
    min: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SUB_COUNT * (OCTAVES + 1)],
            count: 0,
            total: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUB_COUNT as u64 {
            // Values below 2^SUB_BITS are exact.
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = msb - SUB_BITS + 1;
        if octave as usize > OCTAVES {
            // Beyond the covered range (~2^(OCTAVES+SUB_BITS-1)): saturate
            // into the very last bucket. Clamping the octave alone would
            // keep shifting by the capped amount, scattering huge values
            // across arbitrary sub-buckets of the top octave — breaking
            // bucket monotonicity and making quantiles under-report by
            // orders of magnitude.
            return SUB_COUNT * (OCTAVES + 1) - 1;
        }
        let sub = (v >> (octave - 1)) as usize & (SUB_COUNT - 1);
        octave as usize * SUB_COUNT + sub
    }

    /// Lower edge of bucket `b` (the smallest value mapping into it) —
    /// except for the final bucket, which reports `u64::MAX`.
    ///
    /// The final bucket is special: since `bucket_of` saturates, it holds
    /// both the top in-range sliver *and* every out-of-range value up to
    /// `u64::MAX`. Reconstructing it as its in-range lower edge (~2^45)
    /// made any quantile that landed there under-report by orders of
    /// magnitude — `quantile` clamps the edge into `[min, max]`, so a
    /// histogram of huge values answered every quantile with its *minimum*.
    /// Saturating the reconstruction to `u64::MAX` turns that into the
    /// clamped *maximum*: a conservative upper bound instead of a
    /// nonsensical lower one. (The shift is also `checked` so a future
    /// `OCTAVES` covering the full 64-bit range cannot overflow into
    /// garbage edges.)
    fn bucket_low(b: usize) -> u64 {
        if b >= SUB_COUNT * (OCTAVES + 1) - 1 {
            return u64::MAX;
        }
        let octave = (b / SUB_COUNT) as u32;
        let sub = (b % SUB_COUNT) as u64;
        if octave == 0 {
            sub
        } else {
            (SUB_COUNT as u64 + sub)
                .checked_shl(octave - 1)
                .unwrap_or(u64::MAX)
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.total += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` (e.g. `0.99` for p99), accurate to
    /// the bucket resolution. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        debug_assert!((0.0..=1.0).contains(&q));
        // Rank of the target value (1-based), clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max; // p100 is exact
        }
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Report the bucket's lower edge, clamped to observed range
                // (keeps p100 == max exact).
                return Self::bucket_low(b).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_COUNT as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_COUNT as u64 - 1);
        // Rank ceil(0.5·64) = 32, i.e. the 32nd smallest value, which is 31.
        assert_eq!(h.quantile(0.5), (SUB_COUNT / 2) as u64 - 1);
        assert_eq!(h.quantile(1.0), SUB_COUNT as u64 - 1);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(i * 17); // values up to 1.7M
        }
        for q in [0.5f64, 0.9, 0.99, 0.999] {
            let exact = (q * 100_000.0).ceil() as u64 * 17;
            let est = h.quantile(q);
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel < 1.0 / SUB_COUNT as f64 + 1e-9,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
        assert_eq!(h.quantile(1.0), 1_700_000);
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn huge_values_do_not_overflow_buckets() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) == u64::MAX);
    }

    #[test]
    fn out_of_range_values_saturate_into_the_last_bucket() {
        // Regression: the octave used to be clamped at OCTAVES while the
        // sub-bucket shift kept using the clamped exponent, so distinct huge
        // values aliased into arbitrary sub-buckets of the top octave —
        // out of order — and quantiles under-reported by orders of
        // magnitude (2^50 landed in a bucket whose lower edge is 2^45).
        let last = SUB_COUNT * (OCTAVES + 1) - 1;
        let in_range_top = (1u64 << (OCTAVES as u32 + SUB_BITS)) - 1; // 2^46 - 1
        assert_eq!(Histogram::bucket_of(in_range_top), last);
        for huge in [1u64 << 46, 1 << 50, 1 << 55, 1 << 60, u64::MAX] {
            assert_eq!(
                Histogram::bucket_of(huge),
                last,
                "{huge:#x} must saturate into the final bucket"
            );
        }
        // bucket_of must stay monotone across the whole range boundary.
        let below = Histogram::bucket_of(in_range_top >> 1);
        assert!(below < last);
    }

    #[test]
    fn quantiles_with_huge_values_do_not_under_report() {
        // 100, 2^50, 2^51: the 2nd-smallest (q≈0.67) is 2^50. The broken
        // bucketing reported 2^45 (clamped to min only when min was larger).
        // The saturated bucket covers everything from the top in-range
        // sliver to u64::MAX, so the estimate must never fall below that
        // sliver's edge.
        let mut h = Histogram::new();
        h.record(100);
        h.record(1 << 50);
        h.record(1 << 51);
        let est = h.quantile(0.67);
        let in_range_edge = (1u64 << (OCTAVES as u32 + SUB_BITS)) - (1 << (OCTAVES as u32 - 1));
        assert!(
            est >= in_range_edge,
            "q0.67 of [100, 2^50, 2^51] reported {est}, below the final \
             bucket's in-range edge {in_range_edge} — huge values aliased \
             into a wrong bucket"
        );
        assert_eq!(h.quantile(1.0), 1 << 51, "p100 stays exact");
        // Several distinct huge values all share the saturated bucket: the
        // estimate is bounded below by the observed minimum, and p100 is
        // exact.
        let mut h2 = Histogram::new();
        for v in [1u64 << 47, 1 << 52, 1 << 57, 1 << 62] {
            h2.record(v);
        }
        for q in [0.25, 0.5, 0.75] {
            assert!(h2.quantile(q) >= h2.min(), "q{q}");
        }
        assert_eq!(h2.quantile(1.0), 1 << 62);
    }

    #[test]
    fn saturated_bucket_quantiles_report_the_observed_max_not_the_min() {
        // Regression for the `bucket_low` half of the saturation story:
        // PR 3's saturating `bucket_of` made the final bucket *reachable*,
        // but `bucket_low` still reconstructed it as its tiny in-range
        // edge (~2^45). `quantile` clamps that edge into `[min, max]`, so
        // for a histogram of values all above 2^46 every quantile
        // collapsed to the MINIMUM — under-reporting by orders of
        // magnitude (here 65536×). The fixed reconstruction saturates to
        // u64::MAX, which the clamp turns into the observed maximum — a
        // conservative upper bound.
        let mut h = Histogram::new();
        h.record(1 << 47);
        for _ in 0..99 {
            h.record(1 << 63);
        }
        // Exact p50 is 2^63 (99 of 100 values). The old code returned 2^47.
        assert_eq!(
            h.quantile(0.5),
            1 << 63,
            "median of 99×2^63 + 1×2^47 must not collapse to the minimum"
        );
        assert_eq!(h.quantile(1.0), 1 << 63, "p100 stays exact");
        assert_eq!(h.min(), 1 << 47, "the exact min is still tracked");
        // And the final bucket's reconstruction itself is saturated.
        assert_eq!(
            Histogram::bucket_low(SUB_COUNT * (OCTAVES + 1) - 1),
            u64::MAX
        );
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert!((h.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_low_is_monotone_and_consistent() {
        // Every bucket's lower edge must map back into that bucket, and the
        // edges must be non-decreasing.
        let mut prev = 0;
        for b in 0..(SUB_COUNT * (OCTAVES + 1)) {
            let low = Histogram::bucket_low(b);
            assert!(low >= prev, "bucket {b} edge not monotone");
            if low > 0 && b < SUB_COUNT * OCTAVES {
                assert_eq!(Histogram::bucket_of(low), b, "edge of bucket {b}");
            }
            prev = low;
        }
    }
}
