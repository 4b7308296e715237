//! The prepared (immutable) optimizer and the parameterized semantic-plan
//! cache — the amortization layer behind `sqo-service`.
//!
//! A [`PreparedOptimizer`] freezes the expensive per-schema work (ODL
//! parse, Step-1 translation, residue compilation) so concurrent workers
//! can share it behind an `Arc` and run queries with `&self`. A
//! [`PlanCache`] then amortizes the Step-3 search across a workload: the
//! cache key is the query's parameter-normalized canonical fingerprint
//! ([`Query::canonical_template`]), so `age < 30` and `age < 40` share
//! one entry, with the residue-applicability conditions re-checked
//! cheaply against the bound constants (the *parameter signature*), and
//! the cached rewrite set retargeted onto the new variables and
//! constants before Step 4 runs. Beside the templates the cache keeps the
//! *finished instances* of the queries it has answered — the query's
//! parsed, normalized and Datalog forms, the Step-4 verdict, the rendered
//! explanation and the chosen physical plan — by the request text that
//! produced them, so a query repeated verbatim costs one lookup and its
//! execution: no parse, no Step 2.
//!
//! ## Why the parameter signature is sound
//!
//! Every decision the Step-3 search takes about a constant is a pairwise
//! comparison: a query constant against an IC/view constant (residue
//! applicability, chase refutation) or against another query constant.
//! The signature records, for each lifted parameter, its type and its
//! ordering against every such *threshold* — all constants of the
//! compiled constraint set, the views, the query's own non-lifted
//! constants — and against every earlier parameter. Two parameter
//! vectors with equal signatures therefore drive every comparison to the
//! same outcome, so the search would traverse the same path; the cached
//! outcome transfers. A parameter that *equals* a threshold forces the
//! new parameter to equal it too, so retargeting can never corrupt an
//! IC-derived constant. A finished instance was derived under its own
//! signature, so it stays valid when its template is later searched
//! again for another one.

use crate::error::Result;
use crate::optimizer::{
    count_verdict, outcome_to_verdict, Finished, OptimizationReport, SemanticOptimizer, Verdict,
};
use sqo_datalog::clause::CanonicalForm;
use sqo_datalog::search::{self, Outcome, SearchConfig, Variant};
use sqo_datalog::transform::TransformContext;
use sqo_datalog::{Atom, CanonicalTemplate, Comparison, Literal, Query, Rule, Term};
use sqo_obs as obs;
use sqo_odl::Schema;
use sqo_oql::SelectQuery;
use sqo_translate::{translate_query, Catalog};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use sqo_datalog::term::{Const, Var};

/// How a cached-path optimization was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The template matched and the parameter signature agreed: the
    /// cached rewrite set was retargeted, skipping the Step-3 search.
    Hit,
    /// The template matched but the parameter signature differed; a
    /// fresh search ran and re-populated the entry.
    Rebind,
    /// No entry for the template; a fresh search ran and was cached.
    Miss,
}

impl CacheOutcome {
    /// Stable lowercase label (used in wire responses and logs).
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Rebind => "rebind",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// One cached plan: the verdict of the template representative, plus
/// everything needed to decide applicability and retarget.
struct CacheEntry {
    /// Schema generation the entry was computed under.
    generation: u64,
    /// The template itself. The entry's key is only its 64-bit hash, a
    /// digest anyone can compute: a template with that hash and another
    /// form is another template.
    form: CanonicalForm,
    /// Thresholds the signature was computed against (knowledge-base
    /// constants plus the template's non-lifted constants).
    thresholds: Vec<Const>,
    /// The representative's parameter signature.
    signature: Vec<u8>,
    /// The representative's bound parameters, in template order.
    repr_params: Vec<Const>,
    /// The representative's variables, in canonical order.
    repr_var_order: Vec<Var>,
    /// The representative's verdict: the very one its report carries, so
    /// storing it copies a pointer, as a hit does under the cache lock
    /// before it retargets outside it.
    verdict: Arc<Verdict>,
}

/// One query finished from a template hit: what a repeat of its request
/// text gets without a parse, Step 2, retargeting, Step 4, pricing or
/// rendering.
struct Instance {
    /// Generation of the prepared optimizer that finished it.
    generation: u64,
    /// The parsed query.
    original: SelectQuery,
    /// What Step 2 made of it; a hit found by text has no other source.
    normalized: SelectQuery,
    datalog: Query,
    verdict: Arc<Verdict>,
    finished: Arc<Finished>,
}

impl Instance {
    /// A report of this instance: the query forms copied, the verdict
    /// and the memo shared.
    fn report(&self, stats: obs::Snapshot) -> OptimizationReport {
        OptimizationReport {
            original: self.original.clone(),
            normalized: self.normalized.clone(),
            datalog: self.datalog.clone(),
            verdict: Arc::clone(&self.verdict),
            stats,
            finished: Some(Arc::clone(&self.finished)),
        }
    }

    /// The report of a repeat served from this instance, counted as the
    /// optimization and the hit it is.
    fn hit(&self, scope: obs::Scope) -> OptimizationReport {
        obs::bump(obs::Counter::OptimizerQueries);
        obs::bump(obs::Counter::PlanCacheHits);
        obs::bump(obs::Counter::PlanCacheInstanceHits);
        count_verdict(&self.verdict);
        self.report(scope.finish())
    }
}

/// A request text and the instance it finished, which it owns.
struct TextSlot {
    /// The exact request bytes; the slot's key is only their hash.
    text: Box<str>,
    instance: Arc<Instance>,
}

/// What the cache holds for one query's template.
#[allow(clippy::large_enum_variant)] // a return value, matched at once
enum Lookup {
    /// The template's verdict applies; retarget it and finish.
    Template(Arc<Verdict>, Retarget),
    /// Nothing usable: search. `had_entry` tells a rebind from a miss.
    Search { had_entry: bool },
}

/// The two maps of a [`PlanCache`], under its one lock.
#[derive(Default)]
struct Maps {
    /// Searched verdicts by template hash.
    templates: HashMap<u64, CacheEntry>,
    /// Finished instances by [`PlanCache::text_hash`] of their text.
    texts: HashMap<u64, TextSlot>,
}

/// Puts `value` under `key` in a map held to `capacity`: a new key into a
/// full map first takes an arbitrary other one out. Returns the value
/// replaced and the one evicted, for the caller to count and to drop
/// after the lock.
fn insert_bounded<V>(
    map: &mut HashMap<u64, V>,
    key: u64,
    value: V,
    capacity: usize,
) -> (Option<V>, Option<V>) {
    let mut evicted = None;
    if map.len() >= capacity && !map.contains_key(&key) {
        if let Some(&k) = map.keys().next() {
            evicted = map.remove(&k);
        }
    }
    (map.insert(key, value), evicted)
}

/// A bounded, invalidation-aware semantic-plan cache: Step-3 search
/// outcomes by [`Query::canonical_template`], and the queries finished
/// from them by request text.
///
/// Thread-safe; share one per prepared schema. One lock covers both
/// maps, and a text hit holds it for a probe and a pointer copy; a
/// retarget, a search, and dropping what an insertion displaced run
/// outside it.
///
/// * *Templates.* One entry per template hash, confirmed by the
///   template's canonical form. A request whose parameter signature
///   matches the entry's retargets its outcome (a hit) and finishes an
///   instance for its text; one whose signature differs is searched and
///   replaces the entry (a rebind).
/// * *Texts.* The instance each request text finished, keyed by the exact
///   bytes — no normalisation, so a client that reformats a query pays
///   Step 2 and one retarget per spelling. The keys come from clients, so
///   they are hashed with a per-cache random SipHash key. A text hit is
///   decided by those bytes and the prepared optimizer's generation
///   alone: a rebind of the template leaves the instance standing.
///
/// The maps hold at most `capacity` templates and an eighth as many
/// texts, and each gives up an arbitrary item per insertion into a full
/// map ([`PlanCache::instance_count`], `plan_cache.instance_evictions`).
/// [`PlanCache::invalidate`] bumps the generation and empties both — call
/// it whenever the constraint set changes (the service does this on IC
/// reload).
pub struct PlanCache {
    maps: Mutex<Maps>,
    generation: AtomicU64,
    /// The budget of `templates`.
    capacity: usize,
    /// The budget of `texts`.
    text_capacity: usize,
    /// Keys [`PlanCache::text_hash`].
    text_keys: RandomState,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// A cache holding up to 4096 templates and 512 finished texts: a few
    /// MiB per session, as a finished text keeps its verdict, query forms
    /// and written report (~6 KB for a report of 2 KB).
    pub fn new() -> Self {
        PlanCache::with_capacity(4096)
    }

    /// A cache holding up to `capacity` templates and an eighth as many
    /// finished texts (at least one); a full map gives up an arbitrary
    /// item per insertion.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            maps: Mutex::default(),
            generation: AtomicU64::new(0),
            capacity: capacity.max(1),
            text_capacity: (capacity / 8).max(1),
            text_keys: RandomState::new(),
        }
    }

    /// The maps. Each step of every change leaves them valid, so a lock
    /// poisoned by a panicking thread is taken over as it stands.
    fn maps(&self) -> MutexGuard<'_, Maps> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Finished instances, one per request text; at most an eighth of
    /// the cache's capacity.
    pub fn instance_count(&self) -> usize {
        self.maps().texts.len()
    }

    /// The key of the request text `src`.
    fn text_hash(&self, src: &str) -> u64 {
        self.text_keys.hash_one(src)
    }

    /// The instance `src` finished, when a prepared optimizer of
    /// `generation` finished it.
    fn find_text(&self, src: &str, generation: u64) -> Option<Arc<Instance>> {
        let hash = self.text_hash(src);
        let maps = self.maps();
        let slot = maps.texts.get(&hash).filter(|s| *s.text == *src)?;
        (slot.instance.generation == generation).then(|| Arc::clone(&slot.instance))
    }

    /// Makes `src` find `instance` from now on.
    fn register_text(&self, src: &str, instance: Arc<Instance>) {
        let hash = self.text_hash(src);
        let slot = TextSlot {
            text: src.into(),
            instance,
        };
        let (_replaced, evicted) =
            insert_bounded(&mut self.maps().texts, hash, slot, self.text_capacity);
        if evicted.is_some() {
            obs::bump(obs::Counter::PlanCacheInstanceEvictions);
        }
    }

    /// The current invalidation generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.maps().templates.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan and every finished instance, and bump the
    /// generation, so plans computed under the previous constraint set
    /// can never be served again.
    /// Bumps [`obs::Counter::PlanCacheInvalidations`] once per dropped
    /// template.
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        // Dropped after the guard: freeing plans needs no lock.
        let dropped = std::mem::take(&mut *self.maps());
        obs::add(
            obs::Counter::PlanCacheInvalidations,
            dropped.templates.len() as u64,
        );
    }
}

/// An immutable, eagerly compiled optimizer: schema, Step-1 catalog,
/// compiled residues, shareable across threads
/// with `&self` (wrap in an `Arc` for the service layer).
pub struct PreparedOptimizer {
    schema: Schema,
    catalog: Catalog,
    ctx: TransformContext,
    generation: u64,
    /// Constants of the compiled knowledge base (constraints + views):
    /// the schema-level part of every parameter-signature threshold set.
    kb_consts: Vec<Const>,
}

impl PreparedOptimizer {
    /// Compile `opt` (Step 1 + residues) and freeze it at generation 0.
    pub fn new(opt: SemanticOptimizer) -> Self {
        let (schema, catalog, ctx) = opt.into_parts();
        let mut kb: BTreeSet<Const> = BTreeSet::new();
        for ic in &ctx.residues.constraints {
            collect_head_consts(&ic.head, &mut kb);
            for l in &ic.body {
                collect_literal_consts(l, &mut kb);
            }
        }
        for v in &ctx.chase.views {
            for t in &v.head.args {
                collect_term_const(t, &mut kb);
            }
            for l in &v.body {
                collect_literal_consts(l, &mut kb);
            }
        }
        PreparedOptimizer {
            schema,
            catalog,
            ctx,
            generation: 0,
            kb_consts: kb.into_iter().collect(),
        }
    }

    /// The same prepared optimizer stamped with an explicit generation
    /// (the service bumps this on every reload).
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The schema generation this instance was prepared under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The Step-1 catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The registered view rules, heads as the catalog named them and
    /// variables renamed apart (the chase's copies): the relations a
    /// rewrite may fold a path into.
    pub fn views(&self) -> &[Rule] {
        &self.ctx.chase.views
    }

    /// Number of compiled residues.
    pub fn residue_count(&self) -> usize {
        self.ctx.residues.len()
    }

    /// Optimize an OQL query without consulting a cache. Step 1 never
    /// runs here — it already ran at preparation time.
    pub fn optimize(&self, oql_src: &str) -> Result<OptimizationReport> {
        let original = sqo_oql::parse_oql(oql_src)?;
        self.optimize_query(&original)
    }

    /// Optimize a parsed OQL query without consulting a cache.
    pub fn optimize_query(&self, original: &SelectQuery) -> Result<OptimizationReport> {
        let _span = obs::span!("pipeline.optimize");
        let scope = obs::Scope::enter();
        obs::bump(obs::Counter::OptimizerQueries);
        let translation = translate_query(original, &self.schema, &self.catalog)?;
        let outcome = search::optimize(&translation.query, &self.ctx, &SearchConfig::default());
        let verdict = outcome_to_verdict(outcome, &translation, &self.catalog)?;
        Ok(OptimizationReport::fresh(
            original,
            translation,
            Arc::new(verdict),
            scope.finish(),
        ))
    }

    /// Optimize an OQL query through the semantic-plan cache. A text the
    /// cache has finished before — these exact bytes, under this
    /// generation — gets its instance back before anything is parsed:
    /// such a hit's `stats` show one `cache.lookup`, `translate.queries: 0`
    /// and no Step-2 span. Any other text is parsed and translated; on a
    /// template hit with a matching parameter signature the Step-3 search
    /// is skipped, the cached rewrite set is retargeted onto this query's
    /// variables and constants, and the result is kept as the text's
    /// instance for the next repeat. A miss or rebind searches and keeps
    /// the outcome for the template, but finishes no instance.
    pub fn optimize_cached(
        &self,
        cache: &PlanCache,
        oql_src: &str,
    ) -> Result<(OptimizationReport, CacheOutcome)> {
        let _span = obs::span!("pipeline.optimize");
        let scope = obs::Scope::enter();
        if let Some(instance) = self.probe_text(cache, oql_src) {
            return Ok((instance.hit(scope), CacheOutcome::Hit));
        }
        let original = sqo_oql::parse_oql(oql_src)?;
        obs::bump(obs::Counter::OptimizerQueries);
        let translation = translate_query(&original, &self.schema, &self.catalog)?;

        let (template, found) = {
            let _s = obs::span!("cache.lookup");
            let template = translation.query.canonical_template();
            let found = self.lookup(cache, &template);
            (template, found)
        };
        match found {
            Lookup::Template(cached, retarget) => {
                obs::bump(obs::Counter::PlanCacheHits);
                let retargeted = {
                    let _s = obs::span!("cache.retarget");
                    retarget.outcome(&cached)
                };
                let verdict = outcome_to_verdict(retargeted, &translation, &self.catalog)?;
                let instance = Arc::new(Instance {
                    generation: self.generation,
                    original,
                    normalized: translation.normalized,
                    datalog: translation.query,
                    verdict: Arc::new(verdict),
                    finished: Arc::default(),
                });
                cache.register_text(oql_src, Arc::clone(&instance));
                Ok((instance.report(scope.finish()), CacheOutcome::Hit))
            }
            Lookup::Search { had_entry } => {
                let disposition = if had_entry {
                    obs::bump(obs::Counter::PlanCacheRebinds);
                    CacheOutcome::Rebind
                } else {
                    obs::bump(obs::Counter::PlanCacheMisses);
                    CacheOutcome::Miss
                };
                let outcome =
                    search::optimize(&translation.query, &self.ctx, &SearchConfig::default());
                let verdict = Arc::new(outcome_to_verdict(outcome, &translation, &self.catalog)?);
                self.store(cache, &translation.query, template, Arc::clone(&verdict));
                let report =
                    OptimizationReport::fresh(&original, translation, verdict, scope.finish());
                Ok((report, disposition))
            }
        }
    }

    /// The text-hit branch of [`Self::optimize_cached`] on its own: the
    /// report of a repeat of a text the cache has finished under this
    /// generation — one probe under the cache lock, nothing parsed — and
    /// `None` for any other text. A `None` records the probe as a
    /// `cache.lookup` sample and nothing else.
    pub fn finished_text(&self, cache: &PlanCache, oql_src: &str) -> Option<OptimizationReport> {
        let span = obs::span!("pipeline.optimize");
        let scope = obs::Scope::enter();
        match self.probe_text(cache, oql_src) {
            Some(instance) => Some(instance.hit(scope)),
            None => {
                span.discard();
                None
            }
        }
    }

    /// The instance `oql_src` finished under this generation: the probe by
    /// text every cached optimization starts with.
    fn probe_text(&self, cache: &PlanCache, oql_src: &str) -> Option<Arc<Instance>> {
        let _s = obs::span!("cache.lookup");
        cache.find_text(oql_src, self.generation)
    }

    /// [`Self::optimize_cached`] on the text `original` renders to. A
    /// parsed query parses back from its rendering; one built by hand that
    /// does not (a keyword for a name, say) is refused rather than
    /// answered as the query its text stands for.
    pub fn optimize_query_cached(
        &self,
        cache: &PlanCache,
        original: &SelectQuery,
    ) -> Result<(OptimizationReport, CacheOutcome)> {
        let (report, outcome) = self.optimize_cached(cache, &original.to_string())?;
        if report.original != *original {
            return Err(sqo_oql::OqlError::Unsupported {
                feature: "a query that does not parse back from its own text".into(),
            }
            .into());
        }
        Ok((report, outcome))
    }

    /// What the cache holds for `template`: one probe under the cache
    /// lock. The entry's verdict applies when it was searched under this
    /// generation, for this very form, with the same parameter signature.
    fn lookup(&self, cache: &PlanCache, template: &CanonicalTemplate) -> Lookup {
        let maps = cache.maps();
        let Some(entry) = maps.templates.get(&template.hash) else {
            return Lookup::Search { had_entry: false };
        };
        if entry.generation != self.generation
            || entry.form != template.form
            || param_signature(&template.params, &entry.thresholds) != entry.signature
        {
            return Lookup::Search { had_entry: true };
        }
        Lookup::Template(
            Arc::clone(&entry.verdict),
            Retarget::new(
                &entry.repr_var_order,
                &template.var_order,
                &entry.repr_params,
                &template.params,
            ),
        )
    }

    /// Insert (or replace) the template's entry with a fresh verdict.
    fn store(
        &self,
        cache: &PlanCache,
        datalog: &Query,
        template: CanonicalTemplate,
        verdict: Arc<Verdict>,
    ) {
        let mut thresholds: BTreeSet<Const> = self.kb_consts.iter().copied().collect();
        collect_unlifted_consts(datalog, &mut thresholds);
        let thresholds: Vec<Const> = thresholds.into_iter().collect();
        let entry = CacheEntry {
            generation: self.generation,
            form: template.form,
            signature: param_signature(&template.params, &thresholds),
            thresholds,
            repr_params: template.params,
            repr_var_order: template.var_order,
            verdict,
        };
        // Dropped after the guard: freeing plans needs no lock.
        let _displaced = insert_bounded(
            &mut cache.maps().templates,
            template.hash,
            entry,
            cache.capacity,
        );
    }
}

/// The parameter signature: for each parameter, its value family and its
/// ordering against every threshold and every earlier parameter. Equal
/// signatures guarantee every constant-vs-constant decision the search
/// could take comes out identically (see the module docs).
fn param_signature(params: &[Const], thresholds: &[Const]) -> Vec<u8> {
    fn rel(a: &Const, b: &Const) -> u8 {
        match a.order(b) {
            Some(std::cmp::Ordering::Less) => 0,
            Some(std::cmp::Ordering::Equal) => 1,
            Some(std::cmp::Ordering::Greater) => 2,
            None if a == b => 3,
            None => 4,
        }
    }
    let mut sig = Vec::with_capacity(params.len() * (thresholds.len() + params.len() + 1));
    for (i, p) in params.iter().enumerate() {
        sig.push(family(p));
        for t in thresholds {
            sig.push(rel(p, t));
        }
        for q in &params[..i] {
            sig.push(rel(p, q));
        }
    }
    sig
}

/// A constant's spelling family. Templates, signatures and retargeting
/// keep `30` and `30.0` apart, though they are one value: the cached
/// rewrite is rendered back with the constants it was given.
fn family(c: &Const) -> u8 {
    match c {
        Const::Int(_) => 0,
        Const::Real(_) => 1,
        Const::Str(_) => 2,
        Const::Bool(_) => 3,
        Const::Oid(_) => 4,
    }
}

fn collect_term_const(t: &Term, out: &mut BTreeSet<Const>) {
    if let Term::Const(c) = t {
        out.insert(*c);
    }
}

fn collect_literal_consts(l: &Literal, out: &mut BTreeSet<Const>) {
    match l {
        Literal::Pos(a) | Literal::Neg(a) => {
            for t in &a.args {
                collect_term_const(t, out);
            }
        }
        Literal::Cmp(c) => {
            collect_term_const(&c.lhs, out);
            collect_term_const(&c.rhs, out);
        }
    }
}

fn collect_head_consts(h: &sqo_datalog::ConstraintHead, out: &mut BTreeSet<Const>) {
    match h {
        sqo_datalog::ConstraintHead::None => {}
        sqo_datalog::ConstraintHead::Atom(a) | sqo_datalog::ConstraintHead::NegAtom(a) => {
            for t in &a.args {
                collect_term_const(t, out);
            }
        }
        sqo_datalog::ConstraintHead::Cmp(c) => {
            collect_term_const(&c.lhs, out);
            collect_term_const(&c.rhs, out);
        }
    }
}

/// The query's constants that were *not* lifted into parameters: atom
/// arguments, ground comparisons, and projection constants — mirroring
/// exactly what [`Query::canonical_template`] keeps in the shape.
fn collect_unlifted_consts(q: &Query, out: &mut BTreeSet<Const>) {
    for t in &q.projection {
        collect_term_const(t, out);
    }
    for l in &q.body {
        match l {
            Literal::Cmp(c)
                if matches!(
                    (&c.lhs, &c.rhs),
                    (Term::Var(_), Term::Const(_)) | (Term::Const(_), Term::Var(_))
                ) =>
            {
                // Lifted: exactly the parameter slots.
            }
            other => collect_literal_consts(other, out),
        }
    }
}

/// Maps the cached representative's variables and parameters onto a new
/// member of the same template family. Variables the search introduced
/// (IC existentials) are renamed to fresh names that cannot capture any
/// target variable.
struct Retarget {
    var_map: HashMap<Var, Var>,
    /// Each representative parameter, by family and value, to the new
    /// query's.
    const_map: HashMap<(u8, Const), Const>,
    used: HashSet<Var>,
    fresh: HashMap<Var, Var>,
    next_fresh: usize,
}

impl Retarget {
    fn new(from_vars: &[Var], to_vars: &[Var], from_params: &[Const], to_params: &[Const]) -> Self {
        let var_map: HashMap<Var, Var> = from_vars
            .iter()
            .copied()
            .zip(to_vars.iter().copied())
            .collect();
        let const_map: HashMap<(u8, Const), Const> = from_params
            .iter()
            .map(|c| (family(c), *c))
            .zip(to_params.iter().copied())
            .collect();
        Retarget {
            var_map,
            const_map,
            used: to_vars.iter().copied().collect(),
            fresh: HashMap::new(),
            next_fresh: 0,
        }
    }

    fn var(&mut self, v: Var) -> Var {
        if let Some(&w) = self.var_map.get(&v) {
            return w;
        }
        if let Some(&w) = self.fresh.get(&v) {
            return w;
        }
        // A search-introduced existential: keep its name when free,
        // otherwise derive a non-capturing one.
        let mut cand = v;
        while self.used.contains(&cand) {
            cand = Var::new(format!("{}_c{}", v.name(), self.next_fresh));
            self.next_fresh += 1;
        }
        self.used.insert(cand);
        self.fresh.insert(v, cand);
        cand
    }

    fn term(&mut self, t: &Term) -> Term {
        match t {
            Term::Var(v) => Term::Var(self.var(*v)),
            Term::Const(c) => Term::Const(*self.const_map.get(&(family(c), *c)).unwrap_or(c)),
        }
    }

    fn atom(&mut self, a: &Atom) -> Atom {
        Atom::new(a.pred, a.args.iter().map(|t| self.term(t)).collect())
    }

    fn literal(&mut self, l: &Literal) -> Literal {
        match l {
            Literal::Pos(a) => Literal::Pos(self.atom(a)),
            Literal::Neg(a) => Literal::Neg(self.atom(a)),
            Literal::Cmp(c) => {
                Literal::Cmp(Comparison::new(self.term(&c.lhs), c.op, self.term(&c.rhs)))
            }
        }
    }

    fn query(&mut self, q: &Query) -> Query {
        Query {
            name: q.name.clone(),
            projection: q.projection.iter().map(|t| self.term(t)).collect(),
            body: q.body.iter().map(|l| self.literal(l)).collect(),
        }
    }

    /// The search outcome a cached verdict came from, retargeted: each
    /// equivalent's Datalog form is rewritten onto the new
    /// variables/constants, ready for this query's own Step 4; derivation
    /// steps are kept verbatim — the provenance describes the template
    /// representative's derivation, which is step-for-step the derivation
    /// of the new query.
    fn outcome(mut self, cached: &Verdict) -> Outcome {
        match cached {
            Verdict::Contradiction {
                ic_name,
                note,
                steps,
            } => Outcome::Contradiction {
                ic_name: ic_name.clone(),
                note: Arc::clone(note),
                steps: steps.clone(),
            },
            Verdict::Equivalents(eqs) => Outcome::Equivalents(
                eqs.iter()
                    .map(|e| Variant {
                        query: self.query(&e.datalog),
                        steps: e.steps.clone(),
                    })
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_datalog::{CmpOp, R64};

    #[test]
    fn signature_orders_against_thresholds_and_peers() {
        let thresholds = [Const::Int(30)];
        let a = param_signature(&[Const::Int(18)], &thresholds);
        let b = param_signature(&[Const::Int(25)], &thresholds);
        let c = param_signature(&[Const::Int(40)], &thresholds);
        let eq = param_signature(&[Const::Int(30)], &thresholds);
        assert_eq!(a, b, "both below the threshold");
        assert_ne!(a, c, "opposite sides of the threshold");
        assert_ne!(a, eq, "equality with a threshold is its own class");
        // Pairwise parameter order matters too.
        let lo_hi = param_signature(&[Const::Int(1), Const::Int(2)], &[]);
        let hi_lo = param_signature(&[Const::Int(2), Const::Int(1)], &[]);
        assert_ne!(lo_hi, hi_lo);
        // And value families are distinguished even when order is moot.
        assert_ne!(
            param_signature(&[Const::Int(1)], &[]),
            param_signature(&[Const::Real(R64::new(1.0))], &[]),
        );
    }

    /// A template whose hash equals a stored one's, with as many
    /// parameters and variables, is still another template: it is
    /// searched, never handed the stored outcome.
    #[test]
    fn a_hash_collision_is_searched_not_retargeted() {
        let mut opt = SemanticOptimizer::university();
        opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        let prep = opt.prepare();
        let cache = PlanCache::new();
        let template = |src: &str| {
            let q = sqo_oql::parse_oql(src).unwrap();
            let translation = translate_query(&q, prep.schema(), prep.catalog()).unwrap();
            translation.query.canonical_template()
        };
        // `employee` and `student` both have five columns.
        let employee = "select x.name from x in Employee where x.age < 25";
        prep.optimize_cached(&cache, employee).unwrap();
        let stored = template(employee);
        assert!(matches!(prep.lookup(&cache, &stored), Lookup::Template(..)));

        let mut student = template("select x.name from x in Student where x.age < 25");
        assert_eq!(student.params.len(), stored.params.len());
        assert_eq!(student.var_order.len(), stored.var_order.len());
        student.hash = stored.hash;
        assert!(matches!(
            prep.lookup(&cache, &student),
            Lookup::Search { had_entry: true }
        ));
    }

    #[test]
    fn retarget_renames_without_capture() {
        // Representative used X; the new query calls that variable N2 —
        // which collides with the existential N2 the search introduced.
        let from = [Var::new("X")];
        let to = [Var::new("N2")];
        let mut rt = Retarget::new(&from, &to, &[Const::Int(30)], &[Const::Int(40)]);
        let variant = Query::new(
            "q",
            vec![Term::var("X")],
            vec![
                Literal::pos("p", vec![Term::var("X"), Term::var("N2")]),
                Literal::cmp(Term::var("X"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let out = rt.query(&variant);
        assert_eq!(out.projection, vec![Term::var("N2")]);
        let Literal::Pos(a) = &out.body[0] else {
            panic!()
        };
        assert_eq!(a.args[0], Term::var("N2"));
        assert_ne!(a.args[1], Term::var("N2"), "existential must not capture");
        let Literal::Cmp(c) = &out.body[1] else {
            panic!()
        };
        assert_eq!(c.rhs, Term::int(40), "parameter remapped");
    }

    /// `30` and `30.0` are one value but two parameters, each retargeted
    /// in its own spelling; an IC's `90000` is not the `90000.0`
    /// parameter the signature pinned to it, and keeps its spelling.
    #[test]
    fn retarget_keeps_each_constant_in_its_family() {
        let mut rt = Retarget::new(
            &[],
            &[],
            &[Const::Int(30), Const::from(30.0), Const::from(90_000.0)],
            &[Const::Int(31), Const::from(31.0), Const::from(90_000.0)],
        );
        let mut spelled = |t: Term| rt.term(&t).to_string();
        assert_eq!(spelled(Term::int(30)), "31");
        assert_eq!(spelled(Term::real(30.0)), "31.0");
        assert_eq!(spelled(Term::int(90_000)), "90000");
        assert_eq!(spelled(Term::real(90_000.0)), "90000.0");
    }
}
