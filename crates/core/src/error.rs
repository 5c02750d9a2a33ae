//! Error type of the core relation layer.

use std::fmt;

use itd_numth::NumthError;

use crate::schema::Schema;

/// Errors from generalized-relation construction and algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Arithmetic failure in the underlying number theory (overflow, …).
    Numth(NumthError),
    /// Two relations (or a tuple and a relation) disagree on schema.
    SchemaMismatch {
        /// Schema expected by the operation.
        expected: Schema,
        /// Schema actually found.
        found: Schema,
    },
    /// An attribute index was out of range for the schema.
    AttributeOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of attributes of that kind.
        arity: usize,
    },
    /// A projection keep list named the same attribute twice.
    RepeatedAttribute {
        /// The repeated index.
        index: usize,
    },
    /// A residue-class enumeration — normalization, exact emptiness, tuple
    /// difference or complement — would visit more than the configured
    /// number of combinations (the exponential blow-ups of Appendix A.1
    /// and A.6 and of difference in Table 2).
    TooManyExtensions {
        /// The common period `k` the columns are enumerated at.
        period: i64,
        /// The number of columns enumerated.
        arity: usize,
        /// The configured ceiling that was exceeded.
        limit: u64,
    },
    /// A grid view was requested for a tuple whose infinite lrps do not
    /// share a single period — normalize first.
    NotSinglePeriod,
    /// Complement of a relation with data attributes was requested;
    /// only purely temporal relations have a representable complement
    /// (the data domain is unbounded). Use active-domain complement at the
    /// query layer instead.
    ComplementHasData,
    /// Execution was cancelled cooperatively (deadline expired or the
    /// caller's [`crate::CancelToken`] was triggered). The operation stopped
    /// at a chunk boundary; no partial results were published.
    Cancelled,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Numth(e) => write!(f, "arithmetic failure: {e}"),
            CoreError::SchemaMismatch { expected, found } => {
                write!(f, "schema mismatch: expected {expected}, found {found}")
            }
            CoreError::AttributeOutOfRange { index, arity } => {
                write!(f, "attribute {index} out of range (arity {arity})")
            }
            CoreError::RepeatedAttribute { index } => {
                write!(f, "attribute {index} listed twice in a projection")
            }
            CoreError::TooManyExtensions {
                period,
                arity,
                limit,
            } => write!(
                f,
                "enumerating the residue classes of {arity} column(s) at period {period} \
                 exceeds the limit of {limit} combinations"
            ),
            CoreError::NotSinglePeriod => {
                f.write_str("tuple is not single-period; normalize before grid operations")
            }
            CoreError::ComplementHasData => {
                f.write_str("complement is only defined for purely temporal relations")
            }
            CoreError::Cancelled => f.write_str("execution cancelled (deadline exceeded)"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumthError> for CoreError {
    fn from(e: NumthError) -> Self {
        CoreError::Numth(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::SchemaMismatch {
            expected: Schema::new(2, 1),
            found: Schema::new(1, 1),
        };
        let text = e.to_string();
        assert!(text.contains("schema mismatch"), "{text}");
        assert!(CoreError::ComplementHasData
            .to_string()
            .contains("temporal"));
        assert!(CoreError::Numth(NumthError::Overflow)
            .to_string()
            .contains("overflow"));
        assert!(CoreError::AttributeOutOfRange { index: 5, arity: 2 }
            .to_string()
            .contains('5'));
        assert!(CoreError::RepeatedAttribute { index: 3 }
            .to_string()
            .contains("attribute 3 listed twice"));
        let e = CoreError::TooManyExtensions {
            period: 30,
            arity: 4,
            limit: 100_000,
        };
        assert_eq!(
            e.to_string(),
            "enumerating the residue classes of 4 column(s) at period 30 \
             exceeds the limit of 100000 combinations"
        );
    }

    #[test]
    fn numth_conversion_and_source() {
        use std::error::Error as _;
        let e: CoreError = NumthError::Overflow.into();
        assert!(e.source().is_some());
        assert!(CoreError::ComplementHasData.source().is_none());
    }
}
