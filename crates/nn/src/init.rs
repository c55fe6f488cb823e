//! Seeded weight initialisers.
//!
//! Photonic weights live in `[-1, 1]` (the balanced-detection encoding),
//! so initialisers additionally clamp to that range; with Xavier scales
//! on the layer widths used here the clamp almost never binds.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialisation for a `[fan_out, fan_in]` matrix.
pub fn xavier_uniform(fan_out: usize, fan_in: usize, rng: &mut StdRng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
    let limit = limit.min(1.0);
    let data = (0..fan_out * fan_in).map(|_| rng.gen_range(-limit..limit)).collect();
    Tensor::from_vec(&[fan_out, fan_in], data)
}

/// Seeded RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut rng = seeded_rng(1);
        let w = xavier_uniform(16, 64, &mut rng);
        let limit = (6.0f32 / 80.0).sqrt();
        assert!(w.data().iter().all(|&x| x.abs() <= limit));
        let mut rng2 = seeded_rng(1);
        let w2 = xavier_uniform(16, 64, &mut rng2);
        assert_eq!(w.data(), w2.data(), "same seed, same weights");
    }

    #[test]
    fn weights_stay_in_photonic_range() {
        let mut rng = seeded_rng(3);
        // A 2×1 matrix would push the limit to sqrt(2) without the clamp.
        let w = xavier_uniform(2, 1, &mut rng);
        assert!(w.data().iter().all(|&x| x.abs() <= 1.0));
    }

    #[test]
    fn different_seeds_differ() {
        let a = xavier_uniform(8, 8, &mut seeded_rng(1));
        let b = xavier_uniform(8, 8, &mut seeded_rng(2));
        assert_ne!(a.data(), b.data());
    }
}
