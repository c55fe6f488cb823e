//! Seeded-negative fixture for `stream-stateful-rng`: fault sampling
//! from a process-global RNG.

/// Draws the fault of the next ring.
pub fn next_fault_draw() -> u64 {
    thread_rng().next_u64()
}
