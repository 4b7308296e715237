#![warn(missing_docs)]

//! # sqo-core
//!
//! The public facade of the semantic query optimizer reproducing
//! *"Semantic Query Optimization for Object Databases"* (Grant, Gryz,
//! Minker, Raschid — ICDE 1997): the full Figure 2 pipeline from ODL
//! schema and OQL query to semantically equivalent optimized queries, a
//! contradiction verdict, or both representations side by side.
//!
//! ```
//! use sqo_core::SemanticOptimizer;
//!
//! let mut opt = SemanticOptimizer::university();
//! opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).").unwrap();
//! let report = opt
//!     .optimize("select x.name from x in Person where x.age < 30")
//!     .unwrap();
//! assert!(!report.is_contradiction());
//! assert!(report.proper_rewrites().count() > 0);
//! ```

pub mod error;
pub mod optimizer;
pub mod prepared;

pub use error::{Result, SqoError};
pub use optimizer::{EquivalentQuery, OptimizationReport, SemanticOptimizer, UnionReport, Verdict};
pub use prepared::{CacheOutcome, PlanCache, PreparedOptimizer};

// Re-export the pieces callers typically need alongside the facade.
pub use sqo_datalog::residue::CompileOptions;
pub use sqo_datalog::search::{Delta, Outcome, Step};
pub use sqo_datalog::{Constraint, Query, Rule};
pub use sqo_odl::Schema;
pub use sqo_oql::SelectQuery;
