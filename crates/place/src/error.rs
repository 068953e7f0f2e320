//! Typed errors for the placement stages.

use std::fmt;

/// Why a placement stage could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// The core region is unusable (non-finite or non-positive dims).
    DegenerateCore {
        /// Core width, µm.
        width: f64,
        /// Core height, µm.
        height: f64,
    },
    /// An input or intermediate value carried a NaN or infinity.
    NonFinite {
        /// Stage that observed the value ("seed positions", "legalize", …).
        stage: &'static str,
    },
    /// Input shapes or contents don't form a valid problem.
    InvalidInput {
        /// What was wrong.
        reason: String,
    },
    /// The solver diverged and revert-on-divergence was disabled.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
        /// Best finite HPWL observed before the blow-up, µm.
        best_hpwl: f64,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegenerateCore { width, height } => {
                write!(f, "degenerate core region ({width} x {height} um)")
            }
            Self::NonFinite { stage } => {
                write!(f, "non-finite coordinate reached the {stage} stage")
            }
            Self::InvalidInput { reason } => write!(f, "invalid placement input: {reason}"),
            Self::Diverged {
                iteration,
                best_hpwl,
            } => write!(
                f,
                "placement diverged at iteration {iteration} \
                 (best HPWL before blow-up: {best_hpwl:.1} um); \
                 enable revert_if_diverge to recover the best snapshot"
            ),
        }
    }
}

impl std::error::Error for PlaceError {}
