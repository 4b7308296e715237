//! Error types for the Datalog substrate.

use std::fmt;

/// Errors produced while parsing, transforming or evaluating Datalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// A parse error with a human-readable message and 1-based line/column.
    Parse {
        /// Human-readable description.
        message: String,
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
    },
    /// A rule or query is unsafe: a variable occurs in the head, in a
    /// negative literal, or in a comparison without also occurring in a
    /// positive body literal.
    UnsafeVariable {
        /// The offending clause, pretty-printed.
        clause: String,
        /// The unsafe variable.
        variable: String,
    },
    /// A fact contained a variable or an evaluable head.
    NonGroundFact {
        /// The offending fact, pretty-printed.
        fact: String,
    },
    /// The program's negation could not be stratified.
    NotStratified {
        /// The predicate involved.
        predicate: String,
    },
    /// Arity mismatch against a previously declared/used predicate.
    ArityMismatch {
        /// The predicate involved.
        predicate: String,
        /// What was expected.
        expected: usize,
        /// What was found instead.
        found: usize,
    },
    /// A referenced predicate has no facts and no rules.
    UnknownPredicate {
        /// The predicate involved.
        predicate: String,
    },
    /// Comparison between incomparable constants (e.g. a string and an int
    /// under `<`).
    Incomparable {
        /// Left operand, pretty-printed.
        lhs: String,
        /// Right operand, pretty-printed.
        rhs: String,
    },
    /// A relation cannot take another row: row ids are dense `u32`s.
    RelationFull {
        /// The most rows a relation holds.
        limit: usize,
    },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Parse {
                message,
                line,
                column,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            DatalogError::UnsafeVariable { clause, variable } => {
                write!(f, "unsafe variable {variable} in clause `{clause}`")
            }
            DatalogError::NonGroundFact { fact } => {
                write!(f, "fact is not ground: `{fact}`")
            }
            DatalogError::NotStratified { predicate } => {
                write!(f, "program is not stratifiable (recursion through negation involving `{predicate}`)")
            }
            DatalogError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for `{predicate}`: expected {expected}, found {found}"
            ),
            DatalogError::UnknownPredicate { predicate } => {
                write!(f, "unknown predicate `{predicate}`")
            }
            DatalogError::Incomparable { lhs, rhs } => {
                write!(f, "incomparable constants `{lhs}` and `{rhs}`")
            }
            DatalogError::RelationFull { limit } => {
                write!(f, "relation is full: at most {limit} rows")
            }
        }
    }
}

impl std::error::Error for DatalogError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DatalogError>;
