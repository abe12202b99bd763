//! The benchmark's own seeded generator (SplitMix64), so that the request
//! list for a seed does not depend on the repository's `rand` stand-in.

/// A SplitMix64 pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that one run seed
    /// drives several independent samplers.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A number in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, stream: u64) -> Vec<u64> {
        let mut rng = Rng::new(seed, stream);
        (0..4).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn same_seed_same_sequence_and_streams_differ() {
        assert_eq!(sequence(7, 1), sequence(7, 1));
        assert_ne!(sequence(7, 1), sequence(7, 2));
        assert_ne!(sequence(7, 1), sequence(8, 1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
        assert!((0..1000).all(|_| Rng::new(1, 1).below(7) < 7));
    }
}
