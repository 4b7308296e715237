#![warn(missing_docs)]

//! # semantic-sqo
//!
//! A reproduction of *"Semantic Query Optimization for Object
//! Databases"* (J. Grant, J. Gryz, J. Minker, L. Raschid — ICDE 1997):
//! residue-based semantic query optimization for ODMG-93 object
//! databases via a Datalog representation.
//!
//! This is the umbrella crate: it re-exports the workspace members.
//!
//! * [`sqo_core`] — the [`sqo_core::SemanticOptimizer`]
//!   facade (the full Figure 2 pipeline);
//! * [`sqo_odl`] — ODMG-93 ODL parser and schema model (Figure 1
//!   fixture included);
//! * [`sqo_oql`] — OQL parser, normalizer and pretty-printer;
//! * [`sqo_translate`] — Steps 1, 2 and 4 (schema/query translation and
//!   algorithm DATALOG_to_OQL);
//! * [`sqo_datalog`] — the Datalog substrate: residues, the constraint
//!   solver, the chase, the equivalent-query search, and a bottom-up
//!   evaluation engine;
//! * [`sqo_objdb`] — an in-memory object database with extents,
//!   relationships, methods, access support relations, a cost-accounting
//!   executor and a cardinality-based plan chooser;
//! * [`sqo_service`] — the concurrent query-serving subsystem: session
//!   registry, parameterized semantic-plan cache, admission control, and
//!   a JSON-lines-over-TCP front end (`sqo serve` / `sqo client`);
//! * [`sqo_fuzz`] — the differential semantic-equivalence fuzz harness:
//!   randomized schema/IC/query generation with an answer-set oracle,
//!   shrinking, and `.repro` replay (`sqo fuzz`).
//!
//! ## Quickstart
//!
//! ```
//! use semantic_sqo::SemanticOptimizer;
//!
//! let mut opt = SemanticOptimizer::university();
//! opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).").unwrap();
//! let report = opt
//!     .optimize("select x.name from x in Person where x.age < 30")
//!     .unwrap();
//! // Application 2: the optimizer derives `x not in Faculty`.
//! assert!(report
//!     .proper_rewrites()
//!     .any(|e| e.oql.to_string().contains("x not in Faculty")));
//! ```

pub use sqo_core::{
    CacheOutcome, CompileOptions, Constraint, Delta, EquivalentQuery, OptimizationReport, Outcome,
    PlanCache, PreparedOptimizer, Query, Result, Rule, Schema, SelectQuery, SemanticOptimizer,
    SqoError, Step, Verdict,
};
pub use sqo_datalog as datalog;
pub use sqo_fuzz as fuzz;
pub use sqo_objdb as objdb;
pub use sqo_obs as obs;
pub use sqo_odl as odl;
pub use sqo_oql as oql;
pub use sqo_service as service;
pub use sqo_translate as translate;
