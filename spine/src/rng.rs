//! The benchmark's own seeded generator: SplitMix64. The workloads must
//! not depend on the repository's vendored `rand` stand-in, whose stream
//! a later change may alter.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream of one `(seed, workload stream, round)` triple. Rounds
    /// and workloads get unrelated streams from one `--seed`.
    pub fn for_round(seed: u64, stream: u64, round: u64) -> Rng {
        Rng(mix(mix(mix(seed) ^ stream) ^ round))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, stream, round| {
            let mut r = Rng::for_round(seed, stream, round);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11, 2, 0), draw(11, 2, 0));
        assert_ne!(draw(11, 2, 0), draw(12, 2, 0));
        assert_ne!(draw(11, 2, 0), draw(11, 3, 0));
        assert_ne!(draw(11, 2, 0), draw(11, 2, 1));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::for_round(1, 1, 1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
