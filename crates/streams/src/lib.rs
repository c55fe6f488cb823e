//! The workspace's registered counter-addressed RNG stream-id table.
//!
//! Every random draw in the workspace is **counter-addressed**: sample
//! `n` of a noise source is a pure function of `(seed, stream, n)`
//! through the stateless bit mixer [`mix`]. That is what makes "same
//! seed ⇒ bitwise-identical outputs" a structural property — no RNG
//! state threads through the simulation, no draw order depends on the
//! thread schedule. The discipline only holds, though, if every
//! *logical noise source* owns a distinct `stream` constant within its
//! seed domain: two sources sharing a stream id draw **correlated**
//! noise, which corrupts every drift/serve ablation without failing a
//! single dynamic test.
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
//!    scenario's arrival seed).
//! 3. Call sites pass a registered constant, never an expression
//!    (`stream-nonconst`).
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
/// any future tooling) consume, and [`registry_is_consistent`] proves
/// the two views agree.
pub const REGISTRY: &[StreamDef] = &[
    StreamDef { domain: "pcm.stat", name: "STREAM_PCM_NU", id: STREAM_PCM_NU },
    StreamDef { domain: "pcm.stat", name: "STREAM_PCM_PROG", id: STREAM_PCM_PROG },
    StreamDef { domain: "pcm.stat", name: "STREAM_PCM_READ", id: STREAM_PCM_READ },
    StreamDef {
        domain: "serve.traffic",
        name: "STREAM_TRAFFIC_ARRIVAL",
        id: STREAM_TRAFFIC_ARRIVAL,
    },
    StreamDef { domain: "serve.traffic", name: "STREAM_TRAFFIC_ONOFF", id: STREAM_TRAFFIC_ONOFF },
    StreamDef { domain: "serve.traffic", name: "STREAM_TRAFFIC_INPUT", id: STREAM_TRAFFIC_INPUT },
];

/// Stateless bit mixer over the `(seed, stream, draw)` address of one
/// sample. The single definition both `pcm::stat`'s Gaussian layer and
/// `serve::traffic`'s arrival process build on — the avalanche across
/// consecutive `draw` values and the stream separation live here.
pub fn mix(seed: u64, stream: u64, draw: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ draw.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03).rotate_left(17)
}

/// The `draw`-th raw `u64` of a stream — splitmix64 finalization over
/// the mixed address, so low-entropy addresses still produce
/// well-distributed outputs.
pub fn seeded_u64(seed: u64, stream: u64, draw: u64) -> u64 {
    let mut z = mix(seed, stream, draw).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

/// Per-bank fabrication identity inside one chip: layer `layer`, tile
/// `tile` of the engine's bank grid. The stride keeps distinct tiles of
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
            [STREAM_TRAFFIC_ARRIVAL, STREAM_TRAFFIC_ONOFF, STREAM_TRAFFIC_INPUT],
            [1, 2, 3],
            "serve.traffic ids are frozen"
        );
    }

    #[test]
    fn mixer_separates_streams_and_draws() {
        assert_eq!(mix(9, 1, 5), mix(9, 1, 5));
        assert_ne!(mix(9, 1, 5), mix(9, 1, 6));
        assert_ne!(mix(9, 1, 5), mix(9, 2, 5));
        assert_ne!(seeded_u64(9, 1, 5), seeded_u64(10, 1, 5));
    }

    #[test]
    fn identity_derivations_are_frozen() {
        // Same arithmetic the studies used before the helpers existed.
        assert_eq!(trial_identity(1000, 2), 1002);
        assert_eq!(trial_identity(u64::MAX, 1), 0);
        assert_eq!(bank_identity(7, 2, 3), 7 + 2003);
    }
}
