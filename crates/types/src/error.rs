//! The workspace-wide error type.
//!
//! Every fallible public function in the CBMA crates returns
//! [`Result<T>`](Result) with [`CbmaError`], except the frame parser, whose
//! typed failure the receiver matches on. The variants are grouped by the
//! subsystem that raises them; keeping one error enum across the workspace
//! lets the simulation engine propagate failures from any layer with `?`.

use std::fmt;

/// Convenience alias used across the CBMA workspace.
pub type Result<T> = std::result::Result<T, CbmaError>;

/// Errors raised anywhere in the CBMA stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CbmaError {
    /// A value that must be 0 or 1 was something else.
    InvalidBit(u8),
    /// A bit sequence had the wrong length (e.g. not a whole number of
    /// bytes when packing).
    BitLength {
        /// The length must be a multiple of this.
        expected_multiple: usize,
        /// The length that was supplied.
        actual: usize,
    },
    /// A frame payload exceeded the 126-byte maximum (§III-A).
    PayloadTooLarge {
        /// Bytes supplied.
        actual: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// A recorded round trace was malformed.
    MalformedFrame(String),
    /// A PN-code family could not produce the requested code.
    CodeUnavailable {
        /// Family name, e.g. `"gold"`.
        family: &'static str,
        /// Explanation of the limit that was hit.
        reason: String,
    },
    /// A configuration parameter was out of its valid range.
    InvalidConfig(String),
    /// A DSP operation received incompatible buffer shapes.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it received.
        actual: String,
    },
}

impl fmt::Display for CbmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CbmaError::InvalidBit(b) => write!(f, "value {b} is not a valid bit (must be 0 or 1)"),
            CbmaError::BitLength {
                expected_multiple,
                actual,
            } => write!(
                f,
                "bit length {actual} is not a multiple of {expected_multiple}"
            ),
            CbmaError::PayloadTooLarge { actual, max } => {
                write!(
                    f,
                    "payload of {actual} bytes exceeds the {max}-byte maximum"
                )
            }
            CbmaError::MalformedFrame(why) => write!(f, "malformed frame: {why}"),
            CbmaError::CodeUnavailable { family, reason } => {
                write!(f, "{family} code unavailable: {reason}")
            }
            CbmaError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            CbmaError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for CbmaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_static() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<CbmaError>();
    }

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let samples: Vec<CbmaError> = vec![
            CbmaError::InvalidBit(7),
            CbmaError::BitLength {
                expected_multiple: 8,
                actual: 3,
            },
            CbmaError::PayloadTooLarge {
                actual: 200,
                max: 126,
            },
            CbmaError::MalformedFrame("too short".into()),
            CbmaError::CodeUnavailable {
                family: "gold",
                reason: "degree 4 has no preferred pair".into(),
            },
            CbmaError::InvalidConfig("samples_per_chip must be >= 1".into()),
            CbmaError::ShapeMismatch {
                expected: "len 8".into(),
                actual: "len 5".into(),
            },
        ];
        for err in samples {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            let first = msg.chars().next().unwrap();
            assert!(
                first.is_lowercase() || first.is_numeric(),
                "message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn question_mark_compatible() {
        fn inner() -> Result<()> {
            Err(CbmaError::InvalidBit(2))?;
            Ok(())
        }
        assert_eq!(inner(), Err(CbmaError::InvalidBit(2)));
    }
}
