//! The workspace's one seeded PRNG: Vigna's splitmix64.
//!
//! Everything reproducible draws from here — seeded composition orders,
//! generated xMAS fabrics, per-trajectory Monte-Carlo seeds and the seeded
//! test models — so a seed means the same stream everywhere, on every
//! platform, independent of `std`'s `RandomState`.

/// The splitmix64 output finalizer: a bijective avalanche of one word.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    x: u64,
}

impl SplitMix64 {
    /// The golden-ratio increment of the generator state.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Seeds the stream.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { x: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(Self::GAMMA);
        mix64(self.x)
    }

    /// Draw in `0..n` by reduction modulo `n` (`n > 0`; the modulo bias is
    /// irrelevant for topology fuzzing, shuffles and test models).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_values() {
        // Vigna's reference stream for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        let got: Vec<u64> = (0..5).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423,
                4_593_380_528_125_082_431,
                16_408_922_859_458_223_821,
            ]
        );
    }

    #[test]
    fn below_reduces_the_raw_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for n in 1..200usize {
            assert_eq!(a.below(n), (b.next_u64() % n as u64) as usize);
        }
    }
}
