//! Errors produced by the WOL language front end.

use std::fmt;

/// Errors from lexing, parsing, type checking or range-restriction analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// A lexical error at a byte offset in the input.
    Lex {
        /// Byte offset of the offending character.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// A parse error.
    Parse {
        /// Byte offset near which the error occurred.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// A term nests deeper than the parser's limit
    /// ([`crate::parser::MAX_TERM_DEPTH`]).
    TooDeep {
        /// Byte offset where the limit was exceeded.
        offset: usize,
        /// The nesting limit.
        limit: usize,
    },
    /// A clause is not well-typed.
    Type {
        /// Clause identifier (index or label) the error refers to.
        clause: String,
        /// Description of the problem.
        message: String,
    },
    /// A clause is not range-restricted.
    RangeRestriction {
        /// Clause identifier (index or label) the error refers to.
        clause: String,
        /// The variables that could not be bound.
        unbound: Vec<String>,
    },
    /// A schema required by the program is missing or inconsistent.
    Schema(String),
    /// Any other invariant violation.
    Invalid(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { offset, message } => {
                write!(f, "lexical error at byte {offset}: {message}")
            }
            LangError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            LangError::TooDeep { offset, limit } => {
                write!(f, "term nested deeper than {limit} levels at byte {offset}")
            }
            LangError::Type { clause, message } => {
                write!(f, "type error in clause {clause}: {message}")
            }
            LangError::RangeRestriction { clause, unbound } => write!(
                f,
                "clause {clause} is not range-restricted: unbound variables {unbound:?}"
            ),
            LangError::Schema(m) => write!(f, "schema error: {m}"),
            LangError::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<wol_model::ModelError> for LangError {
    fn from(e: wol_model::ModelError) -> Self {
        LangError::Schema(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = LangError::Lex {
            offset: 3,
            message: "bad char".into(),
        };
        assert!(e.to_string().contains("byte 3"));
        let e = LangError::RangeRestriction {
            clause: "C1".into(),
            unbound: vec!["Y".into()],
        };
        assert!(e.to_string().contains("not range-restricted"));
        let e = LangError::Type {
            clause: "0".into(),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("type error"));
    }

    #[test]
    fn from_model_error() {
        let m = wol_model::ModelError::Invalid("x".into());
        let e: LangError = m.into();
        assert!(matches!(e, LangError::Schema(_)));
    }
}
