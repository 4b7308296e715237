//! The session registry: prepared schemas shared across workers.
//!
//! A *session* is a named, prepared knowledge base — ODL parse, Step-1
//! translation and residue compilation are done once, at prepare or
//! reload time, and the resulting [`PreparedOptimizer`] is shared behind
//! an `Arc` so any number of workers can optimize concurrently with
//! `&self`. Each session owns one [`PlanCache`]; reloading the
//! constraint set rebuilds the optimizer at the next *generation* and
//! invalidates the cache, so stale plans are never served (the cache
//! double-checks the generation besides).

use crate::ServeError;
use sqo_core::{PlanCache, PreparedOptimizer, SemanticOptimizer};
use sqo_datalog::parser::{parse_program, Statement};
use sqo_objdb::{ObjectDb, ShardedStore, UniversityConfig};
use sqo_obs as obs;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// How a session's base schema is constructed (kept so reloads can
/// rebuild from scratch).
#[derive(Debug, Clone)]
pub enum SessionSpec {
    /// The built-in university schema of the paper's Figure 1.
    University,
    /// An ODL schema given as source text.
    Odl(String),
}

/// A named prepared knowledge base plus its plan cache.
pub struct Session {
    name: String,
    spec: SessionSpec,
    prep: RwLock<Arc<PreparedOptimizer>>,
    cache: PlanCache,
    /// Per-session request sequence, the tail of each trace id.
    trace_seq: AtomicU64,
    /// Optional bound object base. `ObjectDb` keeps interior caches in
    /// `RefCell`s, so execution serializes on its mutex; optimization
    /// (the expensive part) stays concurrent.
    data: RwLock<Option<Attached>>,
}

/// A bound object base and, beside it, the durable store it logs to (if
/// any): what can be asked of the store alone — its generation — is
/// answered without waiting for whoever holds the base.
struct Attached {
    db: Arc<Mutex<ObjectDb>>,
    store: Option<Arc<ShardedStore>>,
}

impl Session {
    fn build(
        spec: &SessionSpec,
        ic_text: Option<&str>,
        generation: u64,
    ) -> Result<PreparedOptimizer, ServeError> {
        let mut opt = match spec {
            SessionSpec::University => SemanticOptimizer::university(),
            SessionSpec::Odl(src) => SemanticOptimizer::from_odl(src)
                .map_err(|e| ServeError::BadRequest(e.to_string()))?,
        };
        if let Some(src) = ic_text {
            let statements =
                parse_program(src).map_err(|e| ServeError::BadRequest(e.to_string()))?;
            for st in statements {
                match st {
                    Statement::Constraint(ic) => opt.add_constraint(ic),
                    Statement::Rule(rule) => opt.add_view(rule),
                    other => {
                        return Err(ServeError::BadRequest(format!(
                            "unsupported statement in constraint text: {other:?}"
                        )))
                    }
                }
            }
        }
        Ok(opt.prepare().with_generation(generation))
    }

    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current prepared optimizer (cheap `Arc` clone).
    pub fn prepared(&self) -> Arc<PreparedOptimizer> {
        self.prep.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// This session's plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The session's bound object base, when data was attached.
    pub fn data(&self) -> Option<Arc<Mutex<ObjectDb>>> {
        let data = self.data.read().unwrap_or_else(|e| e.into_inner());
        data.as_ref().map(|a| a.db.clone())
    }

    /// The attached store's generation (0 without data, or for an
    /// in-memory base). Reads the store's own atomic: never waits for a
    /// query executing under the [`Session::data`] mutex.
    pub fn store_generation(&self) -> u64 {
        let data = self.data.read().unwrap_or_else(|e| e.into_inner());
        let store = data.as_ref().and_then(|a| a.store.as_ref());
        store.map_or(0, |s| s.generation())
    }

    /// Binds an object base to this session so `query` requests can
    /// execute chosen plans, and `create`/`link`/`persist` requests can
    /// mutate durable state. The database may be in-memory or opened
    /// from a store directory (see `ObjectDb::open`).
    pub fn attach_db(&self, db: ObjectDb) {
        let attached = Attached {
            store: db.store().cloned(),
            db: Arc::new(Mutex::new(db)),
        };
        *self.data.write().unwrap_or_else(|e| e.into_inner()) = Some(attached);
    }

    /// Binds the deterministic built-in university object base (the
    /// Figure 1 instance the benchmarks use) so `query` requests can
    /// execute chosen plans and report plan costs. Only meaningful for
    /// [`SessionSpec::University`] sessions, whose schema the generator
    /// targets.
    pub fn attach_university_data(&self) -> Result<(), ServeError> {
        if !matches!(self.spec, SessionSpec::University) {
            return Err(ServeError::BadRequest(
                "\"data\":true requires a university session".into(),
            ));
        }
        let built = UniversityConfig::default()
            .build()
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        self.attach_db(built.db);
        Ok(())
    }

    /// The next deterministic trace id for this session:
    /// `<session>:<generation>:<sequence>`. The sequence is process-wide
    /// monotonic per session, so ids are unique and — given a serialized
    /// request order, as in tests — fully predictable.
    pub fn next_trace_id(&self) -> String {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        format!("{}:{}:{}", self.name, self.prepared().generation(), seq)
    }

    /// Replaces the constraint/view text, rebuilds the prepared
    /// optimizer at the next generation, and invalidates the plan
    /// cache. Returns the new generation.
    pub fn reload_ic(&self, ic: &str) -> Result<u64, ServeError> {
        let generation = self.prepared().generation() + 1;
        let fresh = Session::build(&self.spec, Some(ic), generation)?;
        *self.prep.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(fresh);
        self.cache.invalidate();
        obs::add(obs::Counter::ServiceSessionsPrepared, 1);
        Ok(generation)
    }
}

/// A concurrent map of named [`Session`]s.
#[derive(Default)]
pub struct SessionRegistry {
    sessions: RwLock<HashMap<String, Arc<Session>>>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SessionRegistry::default()
    }

    /// Prepares (or replaces) the session `name` from `spec` plus
    /// optional constraint/view source text. Returns the session's
    /// starting generation (0 for new sessions, previous + 1 when a
    /// session of that name is replaced).
    pub fn prepare(
        &self,
        name: &str,
        spec: SessionSpec,
        ic_text: Option<&str>,
    ) -> Result<u64, ServeError> {
        let generation = self
            .get(name)
            .map(|s| s.prepared().generation() + 1)
            .unwrap_or(0);
        let prep = Session::build(&spec, ic_text, generation)?;
        let session = Arc::new(Session {
            name: name.to_string(),
            spec,
            prep: RwLock::new(Arc::new(prep)),
            cache: PlanCache::new(),
            trace_seq: AtomicU64::new(0),
            data: RwLock::new(None),
        });
        self.sessions
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), session);
        obs::add(obs::Counter::ServiceSessionsPrepared, 1);
        Ok(generation)
    }

    /// Fetches a session by name.
    pub fn get(&self, name: &str) -> Option<Arc<Session>> {
        self.sessions
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Session names in sorted order (for the metrics reply).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .sessions
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_reload_and_generations() {
        let reg = SessionRegistry::new();
        let g0 = reg
            .prepare(
                "uni",
                SessionSpec::University,
                Some("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad)."),
            )
            .unwrap();
        assert_eq!(g0, 0);
        let s = reg.get("uni").unwrap();
        assert_eq!(s.prepared().generation(), 0);
        let g1 = s
            .reload_ic("ic IC4: Age >= 40 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        assert_eq!(g1, 1);
        assert_eq!(s.prepared().generation(), 1);
        assert!(s.cache().is_empty());
        // Re-preparing under the same name keeps advancing generations.
        let g2 = reg.prepare("uni", SessionSpec::University, None).unwrap();
        assert_eq!(g2, 2);
    }

    #[test]
    fn trace_ids_are_deterministic_per_session() {
        let reg = SessionRegistry::new();
        reg.prepare("t", SessionSpec::University, None).unwrap();
        let s = reg.get("t").unwrap();
        assert_eq!(s.next_trace_id(), "t:0:0");
        assert_eq!(s.next_trace_id(), "t:0:1");
        s.reload_ic("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        // The generation component tracks reloads; the sequence keeps
        // counting so ids never repeat.
        assert_eq!(s.next_trace_id(), "t:1:2");
    }

    #[test]
    fn bad_ic_text_is_rejected() {
        let reg = SessionRegistry::new();
        let err = reg
            .prepare("u", SessionSpec::University, Some("this is not datalog"))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
        assert!(reg.get("u").is_none());
    }
}
