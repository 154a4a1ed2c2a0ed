use std::fmt;

/// Errors produced by SWOPE query validation.
///
/// All errors are detected before any sampling work starts; a query that
/// begins executing always produces a result.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SwopeError {
    /// `ε` outside the open interval `(0, 1)` required by Definitions 5–6.
    InvalidEpsilon(f64),
    /// `p_f` outside the open interval `(0, 1)`.
    InvalidFailureProbability(f64),
    /// `k` is zero or exceeds the number of candidate attributes.
    InvalidK {
        /// Requested k.
        k: usize,
        /// Number of candidate attributes available.
        candidates: usize,
    },
    /// The filtering threshold `η` is negative or not finite.
    InvalidThreshold(f64),
    /// The dataset has no rows or no attributes.
    EmptyDataset,
    /// The MI target attribute index is out of range.
    TargetOutOfRange {
        /// The offending index.
        target: usize,
        /// Number of attributes in the dataset.
        num_attrs: usize,
    },
    /// A mutual-information query needs at least one non-target attribute.
    NoCandidates,
    /// The query scope is malformed: an inverted row range, a predicate
    /// attribute out of range, or a predicate code outside its support.
    InvalidScope(String),
    /// A shard transport failed mid-query: a peer became unreachable,
    /// timed out, or answered with a malformed or error frame.
    Transport(String),
}

impl fmt::Display for SwopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidEpsilon(e) => {
                write!(f, "epsilon must satisfy 0 < ε < 1, got {e}")
            }
            Self::InvalidFailureProbability(p) => {
                write!(f, "failure probability must satisfy 0 < p_f < 1, got {p}")
            }
            Self::InvalidK { k, candidates } => {
                write!(f, "k = {k} is invalid for {candidates} candidate attribute(s)")
            }
            Self::InvalidThreshold(t) => {
                write!(f, "threshold must be finite and nonnegative, got {t}")
            }
            Self::EmptyDataset => write!(f, "dataset has no rows or no attributes"),
            Self::TargetOutOfRange { target, num_attrs } => {
                write!(f, "target attribute {target} out of range (dataset has {num_attrs})")
            }
            Self::NoCandidates => {
                write!(f, "mutual information query needs at least one candidate attribute")
            }
            Self::InvalidScope(reason) => write!(f, "invalid scope: {reason}"),
            Self::Transport(reason) => write!(f, "shard transport error: {reason}"),
        }
    }
}

impl std::error::Error for SwopeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_values() {
        assert!(SwopeError::InvalidEpsilon(1.5).to_string().contains("1.5"));
        assert!(SwopeError::InvalidK { k: 9, candidates: 3 }.to_string().contains('9'));
        assert!(SwopeError::TargetOutOfRange { target: 7, num_attrs: 4 }.to_string().contains('7'));
    }
}
