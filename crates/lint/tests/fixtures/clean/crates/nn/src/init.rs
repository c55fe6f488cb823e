//! Weight initialisation walks a seeded stream in call order. That is
//! outside the device model, so `stream-stateful-rng` leaves it alone.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The initialisation stream.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
