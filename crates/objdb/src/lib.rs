#![warn(missing_docs)]

//! # sqo-objdb
//!
//! An in-memory ODMG-style object database substrate: objects with OIDs,
//! class extents (including subclass members), binary relationships with
//! inverse maintenance and cardinality enforcement, registered Rust
//! closures as methods, and materialized access support relations —
//! everything the paper's optimization opportunities need to be
//! *measured* rather than asserted.
//!
//! [`exec`] evaluates translated Datalog queries against the store with
//! an object-level cost model (object fetches vs extent probes vs
//! relationship traversals vs method invocations), and [`plan`] provides
//! the simple cardinality-based cost estimator that plays the role of
//! the paper's "conventional cost-based optimizer" choosing among the
//! semantically equivalent queries produced by SQO.

pub mod error;
pub mod exec;
pub mod generate;
pub mod plan;
pub mod store;
pub mod value;

pub use error::{ObjDbError, Result};
pub use exec::{execute, execute_with, CostReport};
pub use generate::{
    register_university_methods, GenericConfig, GenericData, UniversityConfig, UniversityData,
};
pub use plan::{choose_best, estimate_cost, priced_steps};
/// The executor's physical options are the Datalog engine's.
pub use sqo_datalog::eval::EvalOptions as ExecOptions;
pub use sqo_store::ShardedStore;
pub use store::{AsrDef, MethodFn, Object, ObjectDb};
pub use value::{Oid, Value};
