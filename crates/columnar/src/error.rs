use std::fmt;

/// Errors produced while building, reading, or persisting columnar data.
#[derive(Debug)]
#[non_exhaustive]
pub enum ColumnarError {
    /// A row had a different number of values than the schema has fields.
    RowArity {
        /// Number of values the schema expects.
        expected: usize,
        /// Number of values the offending row supplied.
        got: usize,
    },
    /// A column was referenced by an index that is out of range.
    AttrOutOfRange {
        /// The offending attribute index.
        index: usize,
        /// The number of attributes in the dataset.
        num_attrs: usize,
    },
    /// An attribute name was not found in the schema.
    UnknownAttr(String),
    /// A code in a column is `>= support`, violating the encoding invariant.
    CodeOutOfRange {
        /// The attribute whose column is invalid.
        attr: usize,
        /// The offending code.
        code: u32,
        /// The declared support size.
        support: u32,
    },
    /// Columns of a dataset disagree on the number of rows.
    RaggedColumns,
    /// Some of a dataset's columns are on the heap and some are paged, so
    /// no one position numbers a row in all of them.
    MixedResidency,
    /// A dataset's columns lay their rows out in different frames, so no
    /// one position numbers a row in all of them.
    MixedLayout,
    /// A CSV document was malformed.
    Csv {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A snapshot byte stream was malformed or of an unsupported version.
    Snapshot(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RowArity { expected, got } => {
                write!(f, "row has {got} values but schema has {expected} fields")
            }
            Self::AttrOutOfRange { index, num_attrs } => {
                write!(f, "attribute index {index} out of range (dataset has {num_attrs})")
            }
            Self::UnknownAttr(name) => write!(f, "unknown attribute name {name:?}"),
            Self::CodeOutOfRange { attr, code, support } => {
                write!(f, "attribute {attr} contains code {code} outside its support 0..{support}")
            }
            Self::RaggedColumns => write!(f, "columns have differing row counts"),
            Self::MixedResidency => write!(f, "columns mix heap and paged storage"),
            Self::MixedLayout => write!(f, "columns lay their rows out in different frames"),
            Self::Csv { line, message } => write!(f, "CSV error at line {line}: {message}"),
            Self::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
            Self::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ColumnarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ColumnarError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ColumnarError::RowArity { expected: 3, got: 2 };
        assert!(e.to_string().contains("2 values"));
        let e = ColumnarError::UnknownAttr("age".into());
        assert!(e.to_string().contains("age"));
        let e = ColumnarError::CodeOutOfRange { attr: 1, code: 9, support: 4 };
        assert!(e.to_string().contains("code 9"));
    }

    #[test]
    fn io_error_is_wrapped_with_source() {
        use std::error::Error;
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e = ColumnarError::from(io);
        assert!(e.source().is_some());
    }
}
