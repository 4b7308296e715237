#![warn(missing_docs)]

//! # sqo-service
//!
//! The concurrent query-serving subsystem over the semantic optimizer:
//! long-lived prepared schemas, a parameterized semantic-plan cache, and
//! admission control behind a JSON-lines-over-TCP front end — all on the
//! standard library alone.
//!
//! * [`registry`] — named sessions holding a shared
//!   [`sqo_core::PreparedOptimizer`] (schema parse, Step-1 translation
//!   and residue compilation done once) plus a [`sqo_core::PlanCache`];
//!   constraint reloads bump the generation and invalidate the cache.
//! * [`admission`] — a bounded worker pool: full queue ⇒ shed
//!   (`overloaded`), expired deadline ⇒ dropped unexecuted
//!   (`deadline_exceeded`), panicking task ⇒ caught (`internal_error`).
//! * [`server`] — the wire protocol: one JSON request per line, one JSON
//!   response per line; responses embed the optimizer's explain report.
//!   Every `query` is traced (`trace_id` = `session:generation:seq`) and
//!   can return its span events; `metrics` reports latency-histogram
//!   quantiles per stage; `slowlog` returns the slow-query ring buffer.
//! * [`slowlog`] — the bounded slow-query explain log.
//! * [`json`] — the tiny JSON reader backing the protocol.
//!
//! ```no_run
//! use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(SessionRegistry::new());
//! registry
//!     .prepare("default", SessionSpec::University,
//!              Some("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad)."))
//!     .unwrap();
//! let server = Server::bind(ServerConfig::default(), registry).unwrap();
//! server.run().unwrap();
//! ```

pub mod admission;
#[cfg(unix)]
mod event_loop;
pub mod framing;
pub mod json;
#[cfg(unix)]
pub mod poll;
pub mod registry;
pub mod server;
pub mod slowlog;

pub use registry::{Session, SessionRegistry, SessionSpec};
pub use server::{Server, ServerConfig};
pub use slowlog::{SlowEntry, SlowLog};

/// Why a request was not answered with a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request line was not a valid protocol request.
    BadRequest(String),
    /// The named session has not been prepared.
    UnknownSession(String),
    /// The admission queue was full; the request was shed.
    Overloaded,
    /// The deadline passed before a result was produced.
    DeadlineExceeded,
    /// The optimizer rejected the query (parse/translation error).
    Optimize(String),
    /// The thread serving the request — a worker, or the serving loop
    /// for what it answers itself — panicked; the request is lost, the
    /// thread is not.
    Internal,
}

impl ServeError {
    /// Stable machine-readable error kind for the wire envelope.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::UnknownSession(_) => "unknown_session",
            ServeError::Overloaded => "overloaded",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::Optimize(_) => "optimize_error",
            ServeError::Internal => "internal_error",
        }
    }

    /// Human-readable detail.
    pub fn message(&self) -> String {
        match self {
            ServeError::BadRequest(m) => m.clone(),
            ServeError::UnknownSession(s) => format!("session {s:?} is not prepared"),
            ServeError::Overloaded => "admission queue full; request shed".to_string(),
            ServeError::DeadlineExceeded => "deadline exceeded".to_string(),
            ServeError::Optimize(m) => m.clone(),
            ServeError::Internal => "the thread serving this request panicked".to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for ServeError {}
