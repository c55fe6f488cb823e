//! Typed errors for the architecture layer.
//!
//! Device faults surface from `trident-pcm` as [`PcmError`]s; the bank,
//! PE and engine wrap them in [`ArchError`] together with the structural
//! failures only the architecture can detect (shape mismatches, spare
//! exhaustion, bad labels). Hand-written `Display` / `Error` impls — the
//! offline build has no `thiserror`.

use std::fmt;
use trident_pcm::PcmError;

/// Everything that can go wrong running a network on the simulated chip.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchError {
    /// A device-level PCM failure that the bank could not absorb.
    Pcm(PcmError),
    /// A matrix or vector had the wrong number of elements.
    ShapeMismatch {
        /// Elements expected.
        expected: usize,
        /// Elements provided.
        got: usize,
    },
    /// A training label referenced a class the network does not have.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Output classes available.
        classes: usize,
    },
    /// A row ran out of spare rings while remapping faulty cells.
    SparesExhausted {
        /// Bank row of the cell that needed a spare.
        row: usize,
        /// Bank column of the cell that needed a spare.
        col: usize,
    },
    /// A layer index beyond the network depth.
    LayerOutOfRange {
        /// The requested layer.
        layer: usize,
        /// Weight layers in the network.
        layers: usize,
    },
    /// A construction or training parameter outside its valid range.
    InvalidParameter {
        /// The parameter's name.
        name: &'static str,
        /// The value provided.
        value: usize,
        /// The accepted range.
        expected: &'static str,
    },
    /// A real-valued parameter (a fault rate, a droop, a learning rate, a
    /// spread) outside its valid range, NaN and infinities included.
    ValueOutOfRange {
        /// The field's name.
        name: &'static str,
        /// The value provided.
        value: f64,
        /// The accepted range.
        expected: &'static str,
    },
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Pcm(ref e) => write!(f, "PCM device error: {e}"),
            Self::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected} elements, got {got}")
            }
            Self::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            Self::SparesExhausted { row, col } => {
                write!(f, "no spare ring left to remap faulty cell ({row}, {col})")
            }
            Self::LayerOutOfRange { layer, layers } => {
                write!(f, "layer {layer} out of range for {layers} weight layers")
            }
            Self::InvalidParameter { name, value, expected } => {
                write!(f, "invalid {name} {value}: expected {expected}")
            }
            Self::ValueOutOfRange { name, value, expected } => {
                write!(f, "invalid {name} {value}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Pcm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PcmError> for ArchError {
    fn from(e: PcmError) -> Self {
        Self::Pcm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcm_errors_convert_and_chain() {
        let e: ArchError = PcmError::WeightOutOfRange(2.0).into();
        assert!(e.to_string().contains("PCM device error"));
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.source().is_some(), "the PCM cause must be chained");
    }

    #[test]
    fn structural_errors_render_their_indices() {
        let s = ArchError::SparesExhausted { row: 3, col: 7 }.to_string();
        assert!(s.contains("(3, 7)"), "{s}");
        let s = ArchError::LabelOutOfRange { label: 11, classes: 10 }.to_string();
        assert!(s.contains("11") && s.contains("10"), "{s}");
        let s = ArchError::InvalidParameter { name: "weight_bits", value: 9, expected: "2..=8" }
            .to_string();
        assert!(s.contains("weight_bits 9") && s.contains("2..=8"), "{s}");
    }
}
