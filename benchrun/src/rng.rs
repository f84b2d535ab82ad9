//! The benchmark's own random numbers: `--seed` reaches the data
//! generator, the key draws and the ad-hoc query generator through this
//! splitmix64 and nothing else, so the engine sees only generated inputs.

/// splitmix64 (Steele, Lea & Flood): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one purpose: `stream` separates the data generator's
    /// draws from the key draws and the query generator's under one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(8, 1).next_u64()
        );
    }
}
