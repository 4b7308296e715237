#![warn(missing_docs)]

//! # sqo-datalog
//!
//! The Datalog substrate for residue-based **semantic query optimization**
//! (SQO), reproducing the machinery of Chakravarthy, Grant & Minker
//! (*TODS* 15(2), 1990) as used by Grant, Gryz, Minker & Raschid,
//! *"Semantic Query Optimization for Object Databases"* (ICDE 1997).
//!
//! The crate provides:
//!
//! * the function-free first-order representation: [`term`], [`atom`],
//!   [`clause`] (rules, integrity constraints, conjunctive queries);
//! * [`subst`]/[`unify`]/[`subsume`] — substitutions, unification,
//!   one-way matching and θ-subsumption;
//! * [`solver`] — a sound decision procedure for conjunctions of
//!   comparison literals (contradiction and implication);
//! * [`residue`] — semantic compilation: partial subsumption attaches
//!   integrity-constraint fragments (residues) to relations;
//! * [`transform`]/[`search`] — query-time application of residues,
//!   producing contradictions, added/removed literals and the space of
//!   semantically equivalent queries;
//! * [`parser`] — a concrete syntax for facts, rules, constraints and
//!   queries, matching the paper's notation;
//! * [`program`]/[`eval`] — stored relations with secondary indexes, and
//!   the hop-by-hop join that answers conjunctive queries over them.

pub mod atom;
pub mod clause;
pub mod error;
pub mod eval;
pub mod fxhash;
pub mod intern;
pub mod parser;
pub mod program;
pub mod residue;
pub mod search;
pub mod solver;
pub mod subst;
pub mod subsume;
pub mod term;
pub mod transform;
pub mod unify;

pub use atom::{Atom, CmpOp, Comparison, Literal, PredSym};
pub use clause::{CanonicalTemplate, Constraint, ConstraintHead, ParamSlot, Query, Rule};
pub use error::{DatalogError, Result};
pub use intern::Sym;
pub use solver::{ConstraintSet, Sat};
pub use subst::Subst;
pub use term::{Const, Term, Var, R64};
pub mod chase;
