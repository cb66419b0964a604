//! splitmix64: the benchmark's only source of randomness, so the same
//! `--seed` gives the same inputs on every host and toolchain.

/// Sebastiano Vigna's splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-32 for
    /// every `n` the generators use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A derived generator for sub-stream `index`, independent of how
    /// much of this one was consumed.
    pub fn fork(seed: u64, index: u64) -> Self {
        let mut g = Self::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        g.next_u64();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs for seed 0, from the reference implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn forks_differ_and_repeat() {
        let a: Vec<u64> = (0..4).map(|i| SplitMix64::fork(7, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| SplitMix64::fork(7, i).next_u64()).collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] != w[1]));
    }
}
