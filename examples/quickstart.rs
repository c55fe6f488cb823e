//! Quickstart: program a photonic PE, run a matrix-vector product through
//! the ring physics, fire the GST activation, and read the energy bill.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```


#![allow(clippy::unwrap_used, clippy::float_cmp, clippy::cast_lossless)]
use trident::arch::pe::{spilled_hadamard, ProcessingElement};
use trident::pcm::activation::GstRelu;

fn main() {
    println!("Trident quickstart: one photonic processing element\n");

    // A 4×4 PE: 16 PCM-MRR weight cells, one BPD+TIA+LDSU+activation per
    // row. `None` disables receiver noise (pass a seed to enable it).
    let mut pe = ProcessingElement::new(4, 4, None);

    // Program a weight matrix. Each weight is written into a GST cell by
    // optical pulses through the calibrated weight LUT (8-bit levels).
    #[rustfmt::skip]
    let weights = [
        0.9, -0.3,  0.0,  0.5,
       -0.7,  0.8,  0.2, -0.1,
        0.1,  0.1,  0.1,  0.1,
        1.0, -1.0,  1.0, -1.0,
    ];
    pe.program(&weights);
    println!("programmed 16 weights (8-bit PCM quantization)");

    // Inference: encode an input vector on the WDM comb and detect the
    // per-row dot products on the balanced photodetectors.
    let x = [1.0, 0.5, 0.25, 0.75];
    let mut h = [0.0; 4];
    pe.mvm_unsigned_into(&x, &mut h);
    println!("\ninput  x = {x:?}");
    for (r, v) in h.iter().enumerate() {
        let exact: f64 = (0..4).map(|c| weights[r * 4 + c] * x[c]).sum();
        println!("row {r}: photonic dot = {v:+.4}   exact = {exact:+.4}");
    }

    // Photonic activation: the GST cell fires when a row's weighted-sum
    // pulse exceeds the 430 pJ threshold. The backward pass reads f'(h)
    // from the kept logit: the spilled-bit Hadamard of a unit error.
    let relu = GstRelu { threshold: 0.43, slope: 0.34 };
    let mut y = [0.0; 4];
    pe.latch_and_activate(&h, &mut y);
    println!("\nGST activation (threshold 0.43, slope 0.34):");
    for (r, (hv, yv)) in h.iter().zip(&y).enumerate() {
        println!(
            "row {r}: h = {hv:+.4} -> y = {yv:+.4} (reference {:+.4}), f'(h) = {}",
            relu.forward(*hv),
            spilled_hadamard(1.0, *hv)
        );
    }

    // Every optical event was charged to the PE's energy ledger.
    println!("\nenergy ledger:\n{}", pe.energy());
    println!("simulated time: {:.1}", pe.elapsed());
}
