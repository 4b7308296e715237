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
use sqo_datalog::clause::CanonicalForm;
use sqo_datalog::parser::{parse_program, Statement};
use sqo_datalog::{Query, Rule};
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
    /// [`Session::check_views`]'s last verdict.
    views_checked: Mutex<Option<ViewCheck>>,
}

/// Whether the attached data defines a session's views.
struct ViewCheck {
    /// The prepared generation and ASR count the verdict was reached at.
    at: (u64, usize),
    /// The first view the data lacks, if any.
    unbacked: Option<String>,
}

/// A rule's head arguments and body as [`Query::canonical_form`] writes
/// them: two rules of one head predicate with equal forms are one rule
/// with its variables renamed (and its body reordered).
fn rule_form(rule: &Rule) -> CanonicalForm {
    let (args, body) = (rule.head.args.clone(), rule.body.clone());
    Query::new(rule.head.pred.name(), args, body).canonical_form()
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
        *self.views_checked.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Refuses to execute against a base that lacks a view the optimizer
    /// may fold a path into: every view of `prep` must be one of `db`'s
    /// ASR rules up to variable renaming, or the evaluator would read the
    /// missing relation as empty and answer nothing. The verdict is kept
    /// per prepared generation and ASR count.
    pub(crate) fn check_views(
        &self,
        prep: &PreparedOptimizer,
        db: &ObjectDb,
    ) -> Result<(), ServeError> {
        let at = (prep.generation(), db.asrs().len());
        let mut memo = self.views_checked.lock().unwrap_or_else(|e| e.into_inner());
        if memo.as_ref().is_none_or(|check| check.at != at) {
            let backed = |view: &Rule| {
                let form = rule_form(view);
                let asrs = db.asrs().iter().map(|asr| &asr.rule);
                asrs.filter(|asr| asr.head.pred == view.head.pred)
                    .any(|asr| rule_form(asr) == form)
            };
            let unbacked = prep.views().iter().find(|v| !backed(v));
            let unbacked = unbacked.map(|v| v.head.pred.name().to_string());
            *memo = Some(ViewCheck { at, unbacked });
        }
        match memo.as_ref().and_then(|check| check.unbacked.as_deref()) {
            None => Ok(()),
            Some(view) => Err(ServeError::BadRequest(format!(
                "view `{view}` is not an access support relation of the attached data \
                 (define it there with the same path, or drop it from the constraint text)"
            ))),
        }
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
            views_checked: Mutex::new(None),
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

    /// A view passes only as the data's ASR up to renaming; the verdict
    /// follows the ASRs the base defines.
    #[test]
    fn views_are_checked_against_the_data_asrs() {
        let reg = SessionRegistry::new();
        let path = "takes(A, B), is_section_of(B, C), has_sections(C, D), has_ta(D, E)";
        reg.prepare(
            "v",
            SessionSpec::University,
            Some(&format!("asr(A, E) <- {path}.")),
        )
        .unwrap();
        let s = reg.get("v").unwrap();
        let mut db = ObjectDb::new(sqo_odl::fixtures::university_schema());
        let refused = s.check_views(&s.prepared(), &db).unwrap_err();
        assert!(matches!(&refused, ServeError::BadRequest(m) if m.contains("`asr`")));
        db.define_asr(
            "asr",
            "Student",
            &["takes", "is_section_of", "has_sections", "has_ta"],
        )
        .unwrap();
        assert!(s.check_views(&s.prepared(), &db).is_ok());
        // Same predicates, other variable pattern: not the data's view.
        s.reload_ic(&format!("asr(E, A) <- {path}.")).unwrap();
        assert!(s.check_views(&s.prepared(), &db).is_err());
        s.reload_ic("asr(A, C) <- takes(A, B), has_ta(B, C).")
            .unwrap();
        assert!(s.check_views(&s.prepared(), &db).is_err());
        s.reload_ic("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        assert!(s.check_views(&s.prepared(), &db).is_ok());
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
