//! Typed errors for the float reference stack.
//!
//! Layer forward/backward passes validate their inputs and report
//! violations as [`NnError`] values instead of panicking, so callers that
//! drive layers with externally-derived shapes (the photonic mirror) can
//! recover.

use std::fmt;

/// Everything that can go wrong driving a layer or network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// An input tensor's shape does not match what the layer expects.
    ShapeMismatch {
        /// Layer kind reporting the mismatch (e.g. `"dense"`).
        layer: &'static str,
        /// Human-readable description of the expected shape.
        expected: String,
        /// The shape actually received.
        got: Vec<usize>,
    },
    /// `backward` was called before any `forward` cached its inputs.
    BackwardBeforeForward {
        /// Layer kind reporting the ordering violation.
        layer: &'static str,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::ShapeMismatch { layer, expected, got } => {
                write!(f, "{layer}: expected input {expected}, got shape {got:?}")
            }
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "{layer}: backward called before forward cached its inputs")
            }
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_layer_and_shapes() {
        let e = NnError::ShapeMismatch {
            layer: "dense",
            expected: "[batch, 4]".into(),
            got: vec![2, 3],
        };
        let msg = e.to_string();
        assert!(msg.contains("dense") && msg.contains("[2, 3]"), "{msg}");
        let o = NnError::BackwardBeforeForward { layer: "activation" };
        assert!(o.to_string().contains("before forward"), "{o}");
    }
}
