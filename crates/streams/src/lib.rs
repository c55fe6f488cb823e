//! The workspace's registered counter-addressed RNG stream-id table.
//!
//! Every draw of **device noise** is **counter-addressed**: sample `n`
//! of a noise source is a pure function of `(seed, stream, n)` through
//! the stateless bit mixer [`mix`], with the seed a device identity and
//! `n` that device's own event index. That covers the PCM statistical
//! model (drift exponents, programming and read noise), fabrication
//! resonance offsets, write-verify pulse jitter, fault sampling,
//! receiver noise, and the serving layer's traffic. It is what makes
//! "same seed ⇒ bitwise-identical outputs" a structural property — no
//! RNG state threads through the simulation, no draw order depends on
//! the thread schedule, and no bank's noise depends on how many draws
//! another bank made before it. The discipline only holds, though, if
//! every *logical noise source* owns a distinct `stream` constant within
//! its seed domain: two sources sharing a stream id draw **correlated**
//! noise, which corrupts every drift/serve ablation without failing a
//! single dynamic test.
//!
//! Still sequential (a seeded `StdRng` walked in call order): weight
//! initialisation (MLP, CNN, transformer, DFA feedback), the synthetic
//! datasets, and the fidelity study's trial inputs — every benchmark
//! workload and the claims pinned to particular seeds (`ablations::bits`)
//! consume those exact sequences — and `core`'s xorshift token stream,
//! because `core` does not depend on this crate.
//!
//! This crate is the single registry of those constants. The rules,
//! enforced statically by `trident-lint`'s stream-hygiene pass
//! (DESIGN.md §10):
//!
//! 1. Stream constants are declared **here and only here**
//!    (`stream-local-const` flags strays).
//! 2. They are named `STREAM_<DOMAIN>_<SOURCE>`. A *domain* is one seed
//!    family — a set of draws whose `seed` arguments come from the same
//!    identity space. Ids must be unique within a domain
//!    (`stream-dup`); ids in different domains may coincide because
//!    their seed spaces never alias (the PCM bank seed is a
//!    `StatParams::seed`-derived chip identity, the traffic seed is the
//!    scenario's arrival seed). The device-side domains (`pcm.stat`,
//!    `device`, `receiver`) are the exception: their seeds are all small
//!    derived chip identities that can coincide numerically (the
//!    transformer seeds its banks' statistics and device draws from one
//!    identity), so their ids are kept distinct across all three.
//! 3. Call sites pass a registered constant, never an expression
//!    (`stream-nonconst`).
//! 4. The device model holds no RNG object (`stream-stateful-rng`
//!    flags `StdRng`, `SeedableRng` and `thread_rng` in its sources).
//!
//! Existing ids are **frozen**: changing a value silently re-addresses
//! every draw of that source and breaks byte-identity of the repro_all
//! sections, so new sources take fresh ids and dead ids are retired,
//! never reused within their domain.

/// One registered stream: its seed domain, constant name, and id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDef {
    /// Seed domain — one identity space (see module docs).
    pub domain: &'static str,
    /// The constant's identifier, `STREAM_<DOMAIN>_<SOURCE>`.
    pub name: &'static str,
    /// The id passed as `mix`'s `stream` argument.
    pub id: u64,
}

// ── pcm.stat domain ─────────────────────────────────────────────────
// Seed space: `StatParams::seed` mixed with the per-bank chip identity
// (see `trident-arch`'s weight bank). One triple per device-physics
// noise ingredient.

/// Per-cell drift-exponent initialization draws (ν_i half-normal).
pub const STREAM_PCM_NU: u64 = 1;
/// Post-write programming-noise draws (one per successful write).
pub const STREAM_PCM_PROG: u64 = 2;
/// Per-probe read-noise draws (one per row readout).
pub const STREAM_PCM_READ: u64 = 3;

// ── device domain ───────────────────────────────────────────────────
// Seed space: a bank's device identity (unique within its chip and fixed
// when the bank is built), or an identity derived from it through
// [`member_identity`] (one physical ring of the bank; the bank under one
// fault plan). Ids continue after `pcm.stat`'s (see the module docs).

/// Fabrication resonance offset of ring `i` of a bank (draw `i`).
pub const STREAM_DEVICE_RESONANCE: u64 = 4;
/// Write-verify pulse-gain jitter of one GST cell (draw = the cell's own
/// pulse count).
pub const STREAM_DEVICE_JITTER: u64 = 5;
/// Stuck-cell fault sampling of ring `i` of a bank under one plan.
pub const STREAM_DEVICE_STUCK: u64 = 6;
/// Dead-ring fault sampling of ring `i` of a bank under one plan.
pub const STREAM_DEVICE_DEAD: u64 = 7;

// ── receiver domain ─────────────────────────────────────────────────
// Seed space: a PE's receiver-noise seed. The id continues after the
// device domain's (see the module docs).

/// Receiver (shot + TIA) current noise of one row readout (draw = the
/// PE's own readout count).
pub const STREAM_RECEIVER_NOISE: u64 = 8;

// ── serve.traffic domain ────────────────────────────────────────────
// Seed space: the serving scenario's traffic seed.

/// Interarrival-gap draws of the open-loop arrival process.
pub const STREAM_TRAFFIC_ARRIVAL: u64 = 1;
/// ON/OFF burst-phase duration draws of the bursty process.
pub const STREAM_TRAFFIC_ONOFF: u64 = 2;
/// Dataset-sample selection draws of the request front-end.
pub const STREAM_TRAFFIC_INPUT: u64 = 3;

/// The full registry. `trident-lint` audits the constant declarations
/// above; this table is the runtime mirror the uniqueness tests (and
/// any future tooling) consume, and the `registry_is_consistent` test proves
/// the two views agree.
pub const REGISTRY: &[StreamDef] = &[
    StreamDef { domain: "pcm.stat", name: "STREAM_PCM_NU", id: STREAM_PCM_NU },
    StreamDef { domain: "pcm.stat", name: "STREAM_PCM_PROG", id: STREAM_PCM_PROG },
    StreamDef { domain: "pcm.stat", name: "STREAM_PCM_READ", id: STREAM_PCM_READ },
    StreamDef { domain: "device", name: "STREAM_DEVICE_RESONANCE", id: STREAM_DEVICE_RESONANCE },
    StreamDef { domain: "device", name: "STREAM_DEVICE_JITTER", id: STREAM_DEVICE_JITTER },
    StreamDef { domain: "device", name: "STREAM_DEVICE_STUCK", id: STREAM_DEVICE_STUCK },
    StreamDef { domain: "device", name: "STREAM_DEVICE_DEAD", id: STREAM_DEVICE_DEAD },
    StreamDef { domain: "receiver", name: "STREAM_RECEIVER_NOISE", id: STREAM_RECEIVER_NOISE },
    StreamDef {
        domain: "serve.traffic",
        name: "STREAM_TRAFFIC_ARRIVAL",
        id: STREAM_TRAFFIC_ARRIVAL,
    },
    StreamDef { domain: "serve.traffic", name: "STREAM_TRAFFIC_ONOFF", id: STREAM_TRAFFIC_ONOFF },
    StreamDef { domain: "serve.traffic", name: "STREAM_TRAFFIC_INPUT", id: STREAM_TRAFFIC_INPUT },
];

/// Stateless bit mixer over the `(seed, stream, draw)` address of one
/// sample. The single definition every counter-addressed draw builds on
/// — the avalanche across consecutive `draw` values and the stream
/// separation live here.
pub fn mix(seed: u64, stream: u64, draw: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ draw.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03).rotate_left(17)
}

/// The `draw`-th raw `u64` of a stream — splitmix64 finalization over
/// the mixed address, so low-entropy addresses still produce
/// well-distributed outputs.
pub fn seeded_u64(seed: u64, stream: u64, draw: u64) -> u64 {
    splitmix64(mix(seed, stream, draw))
}

/// The `draw`-th unit-normal sample of a stream: one Box–Muller pair
/// over the address's raw word and its splitmix64 successor. No RNG
/// object is built; the sample is a pure function of the address.
pub fn seeded_gaussian(seed: u64, stream: u64, draw: u64) -> f64 {
    let raw = seeded_u64(seed, stream, draw);
    box_muller(raw, splitmix64(raw))
}

/// Map a raw draw to the open unit interval `(0, 1]` (53-bit mantissa;
/// never 0, so a logarithm of it is always finite).
pub fn unit_open(raw: u64) -> f64 {
    ((raw >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// One splitmix64 step: advance `z` by the golden gamma and finalize.
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Box–Muller over two raw words: the radius from `a`, the angle from
/// `b`, both through [`unit_open`], so every input gives a finite sample
/// (at most √(2·53·ln 2) ≈ 8.6 in magnitude).
fn box_muller(a: u64, b: u64) -> f64 {
    (-2.0 * unit_open(a).ln()).sqrt() * (std::f64::consts::TAU * unit_open(b)).cos()
}

// ── identity-seed derivations ───────────────────────────────────────
// Seeds (the first mixer argument) are derived, not registered: each
// helper below is one documented identity scheme, kept here so the
// derivation arithmetic has a single frozen home next to the stream
// table it feeds.

/// Chip/trial identity: the `trial`-th replica of a study derives its
/// seed by offsetting the study's base seed. Used by all three deployment
/// studies: the fault campaign's per-chip fault draws, and the variation
/// and drift studies' per-chip fabrication/device identities.
pub fn trial_identity(base_seed: u64, trial: u64) -> u64 {
    base_seed.wrapping_add(trial)
}

/// Identity of member `member` of the population `parent` identifies:
/// physical ring `member` of the bank with device identity `parent`, or
/// the bank with identity `member` on a chip struck by the fault plan
/// with seed `parent`. Both inputs pass through splitmix64, so nearby
/// parents and members (consecutive trials, neighbouring banks) land far
/// apart instead of sharing draws the way a sum or an XOR would.
pub fn member_identity(parent: u64, member: u64) -> u64 {
    splitmix64(parent ^ splitmix64(member))
}

/// Per-bank device identity inside one chip: layer `layer`, tile `tile`
/// of the engine's bank grid. The stride keeps distinct tiles of
/// distinct layers on distinct identities for any realistic tile count.
pub fn bank_identity(variation_seed: u64, layer: usize, tile: usize) -> u64 {
    variation_seed.wrapping_add((layer * 1000 + tile) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The registry's core contract: within one seed domain every
    /// stream id is unique, and every constant name is globally unique.
    #[test]
    fn stream_ids_unique_within_each_domain() {
        let mut seen: BTreeSet<(&str, u64)> = BTreeSet::new();
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for def in REGISTRY {
            assert!(
                seen.insert((def.domain, def.id)),
                "duplicate stream id {} in domain {} ({})",
                def.id,
                def.domain,
                def.name
            );
            assert!(names.insert(def.name), "duplicate stream name {}", def.name);
        }
    }

    /// The table mirrors the constants (a renumbered constant that
    /// misses its registry row would silently re-address draws).
    #[test]
    fn registry_is_consistent() {
        let by_name: Vec<(&str, u64)> = vec![
            ("STREAM_PCM_NU", STREAM_PCM_NU),
            ("STREAM_PCM_PROG", STREAM_PCM_PROG),
            ("STREAM_PCM_READ", STREAM_PCM_READ),
            ("STREAM_DEVICE_RESONANCE", STREAM_DEVICE_RESONANCE),
            ("STREAM_DEVICE_JITTER", STREAM_DEVICE_JITTER),
            ("STREAM_DEVICE_STUCK", STREAM_DEVICE_STUCK),
            ("STREAM_DEVICE_DEAD", STREAM_DEVICE_DEAD),
            ("STREAM_RECEIVER_NOISE", STREAM_RECEIVER_NOISE),
            ("STREAM_TRAFFIC_ARRIVAL", STREAM_TRAFFIC_ARRIVAL),
            ("STREAM_TRAFFIC_ONOFF", STREAM_TRAFFIC_ONOFF),
            ("STREAM_TRAFFIC_INPUT", STREAM_TRAFFIC_INPUT),
        ];
        assert_eq!(by_name.len(), REGISTRY.len());
        for (name, id) in by_name {
            let row = REGISTRY.iter().find(|d| d.name == name);
            assert_eq!(row.map(|d| d.id), Some(id), "registry row for {name}");
        }
    }

    /// Frozen values: these exact ids address every historical draw of
    /// the drift and serve ablations. Changing one breaks byte-identity
    /// of repro_all — this test is the tripwire.
    #[test]
    fn ids_are_frozen() {
        assert_eq!(
            [STREAM_PCM_NU, STREAM_PCM_PROG, STREAM_PCM_READ],
            [1, 2, 3],
            "pcm.stat ids are frozen"
        );
        assert_eq!(
            [STREAM_DEVICE_RESONANCE, STREAM_DEVICE_JITTER, STREAM_DEVICE_STUCK, STREAM_DEVICE_DEAD],
            [4, 5, 6, 7],
            "device ids are frozen"
        );
        assert_eq!(STREAM_RECEIVER_NOISE, 8, "receiver id is frozen");
        assert_eq!(
            [STREAM_TRAFFIC_ARRIVAL, STREAM_TRAFFIC_ONOFF, STREAM_TRAFFIC_INPUT],
            [1, 2, 3],
            "serve.traffic ids are frozen"
        );
    }

    /// The device-side domains share small chip identities as seeds, so
    /// their ids must not coincide even across domains.
    #[test]
    fn device_side_ids_are_distinct_across_domains() {
        let device_side = ["pcm.stat", "device", "receiver"];
        let mut seen = BTreeSet::new();
        for def in REGISTRY.iter().filter(|d| device_side.contains(&d.domain)) {
            assert!(seen.insert(def.id), "{} reuses device-side id {}", def.name, def.id);
        }
    }

    const N: u64 = 100_000;

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        (mean, xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n)
    }

    #[test]
    fn gaussian_is_standard_normal() {
        let xs: Vec<f64> = (0..N).map(|i| seeded_gaussian(11, STREAM_PCM_READ, i)).collect();
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn gaussian_is_finite_at_the_extreme_uniforms() {
        assert_eq!(unit_open(u64::MAX).to_bits(), 1.0f64.to_bits());
        assert!(unit_open(0) > 0.0);
        for (a, b) in [(0, 0), (0, u64::MAX), (u64::MAX, 0), (u64::MAX, u64::MAX)] {
            let g = box_muller(a, b);
            assert!(g.is_finite() && g.abs() < 8.6, "box_muller({a:#x}, {b:#x}) = {g}");
        }
    }

    #[test]
    fn streams_of_one_seed_are_uncorrelated() {
        let a: Vec<f64> = (0..N).map(|i| seeded_gaussian(3, STREAM_PCM_PROG, i)).collect();
        let b: Vec<f64> = (0..N).map(|i| seeded_gaussian(3, STREAM_PCM_READ, i)).collect();
        let ((ma, va), (mb, vb)) = (moments(&a), moments(&b));
        let cov = a.iter().zip(&b).map(|(x, y)| (x - ma) * (y - mb)).sum::<f64>() / N as f64;
        let r = cov / (va * vb).sqrt();
        assert!(r.abs() < 0.01, "correlation {r}");
    }

    #[test]
    fn member_identities_separate_neighbours() {
        let ids: BTreeSet<u64> =
            (0..4).flat_map(|p| (0..64).map(move |m| member_identity(p, m))).collect();
        assert_eq!(ids.len(), 4 * 64, "no two (parent, member) pairs share an identity");
        assert_eq!(member_identity(9, 2), member_identity(9, 2));
    }

    #[test]
    fn mixer_separates_streams_and_draws() {
        assert_eq!(mix(9, 1, 5), mix(9, 1, 5));
        assert_ne!(mix(9, 1, 5), mix(9, 1, 6));
        assert_ne!(mix(9, 1, 5), mix(9, 2, 5));
        assert_ne!(seeded_u64(9, 1, 5), seeded_u64(10, 1, 5));
        let g = seeded_gaussian(42, STREAM_PCM_PROG, 7);
        assert_eq!(g.to_bits(), seeded_gaussian(42, STREAM_PCM_PROG, 7).to_bits());
        assert_ne!(g.to_bits(), seeded_gaussian(42, STREAM_PCM_PROG, 8).to_bits());
        assert_ne!(g.to_bits(), seeded_gaussian(42, STREAM_PCM_READ, 7).to_bits());
        assert_ne!(g.to_bits(), seeded_gaussian(43, STREAM_PCM_PROG, 7).to_bits());
    }

    #[test]
    fn identity_derivations_are_frozen() {
        // Same arithmetic the studies used before the helpers existed.
        assert_eq!(trial_identity(1000, 2), 1002);
        assert_eq!(trial_identity(u64::MAX, 1), 0);
        assert_eq!(bank_identity(7, 2, 3), 7 + 2003);
    }
}
