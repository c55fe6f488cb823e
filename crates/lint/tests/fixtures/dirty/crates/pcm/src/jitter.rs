//! Seeded-negative fixture for `stream-stateful-rng`: a device model
//! that stores a stateful RNG and threads it through its write path.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A cell that keeps its own jitter stream.
pub struct Cell {
    jitter: StdRng,
}

impl Cell {
    /// Seeds the stored stream.
    pub fn new(seed: u64) -> Self {
        Self { jitter: StdRng::seed_from_u64(seed) }
    }
}

/// Threads the caller's RNG through the write path: the draw now
/// depends on how many draws every earlier caller made.
pub fn pulse_gain(rng: &mut StdRng) -> u64 {
    rng.next_u64()
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn test_code_may_seed() {
        let _ = StdRng::seed_from_u64(1);
    }
}
