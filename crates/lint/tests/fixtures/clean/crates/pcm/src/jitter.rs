//! Clean fixture: device noise counter-addressed by the cell's identity
//! and its own pulse count; only the test module seeds a stateful RNG.

use trident_streams::{seeded_u64, STREAM_FIX_PROG};

/// Raw jitter draw of pulse `pulse` of the cell with identity `cell`.
pub fn pulse_jitter(cell: u64, pulse: u64) -> u64 {
    seeded_u64(cell, STREAM_FIX_PROG, pulse)
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
