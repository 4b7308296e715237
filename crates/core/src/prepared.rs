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
//! constants before Step 4 runs. Each entry also keeps the *finished
//! instances* of the queries it has answered — the query's parsed,
//! normalized and Datalog forms, the Step-4 verdict, the rendered
//! explanation and the chosen physical plan — and the cache indexes them
//! by the request text that produced them, so a query repeated verbatim
//! costs one lookup and its execution: no parse, no Step 2.
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
//! IC-derived constant.

use crate::error::Result;
use crate::optimizer::{
    count_verdict, outcome_to_verdict, Finished, OptimizationReport, SemanticOptimizer, Verdict,
};
use sqo_datalog::search::{self, Outcome, SearchConfig, Variant};
use sqo_datalog::transform::TransformContext;
use sqo_datalog::{Atom, CanonicalTemplate, Comparison, Literal, Query, Term};
use sqo_obs as obs;
use sqo_odl::Schema;
use sqo_oql::SelectQuery;
use sqo_translate::{translate_query, Catalog};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

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

/// One cached plan: the search outcome of the template representative,
/// plus everything needed to decide applicability and retarget.
struct CacheEntry {
    /// Schema generation the entry was computed under.
    generation: u64,
    /// Thresholds the signature was computed against (knowledge-base
    /// constants plus the template's non-lifted constants).
    thresholds: Vec<Const>,
    /// The representative's parameter signature.
    signature: Vec<u8>,
    /// The representative's bound parameters, in template order.
    repr_params: Vec<Const>,
    /// The representative's variables, in canonical order.
    repr_var_order: Vec<Var>,
    /// The representative's search outcome. Shared, so a hit copies a
    /// pointer under the shard lock and retargets outside it.
    outcome: Arc<Outcome>,
    /// The queries this entry has finished, by [`binding_hash`]. The
    /// entry owns them: they live and die with it, a rebind, an eviction
    /// or an invalidation of the entry drops them — and with them every
    /// [`TextSlot`] that points at one.
    instances: HashMap<u64, Arc<Instance>>,
}

/// One query answered under a [`CacheEntry`], finished: what a repeat of
/// the same query gets without Step 2, retargeting, Step 4, pricing or
/// rendering.
struct Instance {
    /// Generation of the prepared optimizer that finished it (its
    /// entry's): a hit found by text never sees the entry.
    generation: u64,
    /// The parsed query. The binding hash only finds the slot; equality
    /// here decides the hit, because two OQL surfaces (`select x.a, y.b`
    /// and `select list(x.a, y.b)`) can share a template and a binding
    /// yet print different rewrites.
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
    /// hit it is, whichever way the instance was found.
    fn hit(&self, scope: obs::Scope) -> OptimizationReport {
        obs::bump(obs::Counter::PlanCacheHits);
        obs::bump(obs::Counter::PlanCacheInstanceHits);
        count_verdict(&self.verdict);
        self.report(scope.finish())
    }
}

/// One request text known to produce a finished instance. It points and
/// never owns: once the entry drops the instance the slot is dead, and a
/// dead slot is a miss.
struct TextSlot {
    /// The exact request bytes; the slot's key is only their hash.
    text: Box<str>,
    instance: Weak<Instance>,
}

/// Where a template's instance for these variables and constants lives.
fn binding_hash(template: &CanonicalTemplate) -> u64 {
    let mut h = DefaultHasher::new();
    template.var_order.hash(&mut h);
    template.params.hash(&mut h);
    h.finish()
}

/// One independently locked slice of the cache.
#[derive(Default)]
struct Shard {
    entries: HashMap<u64, CacheEntry>,
    /// Instances over all entries of this shard, held to the same budget
    /// as the entries.
    instances: usize,
    /// Request texts by [`PlanCache::text_hash`], which also picks the
    /// shard — so a slot and the instance it points at usually live in
    /// different shards. Held to the same budget again.
    texts: HashMap<u64, TextSlot>,
}

impl Shard {
    /// Takes the entry of `template` out, its instances with it.
    fn remove(&mut self, template: u64) -> Option<CacheEntry> {
        let entry = self.entries.remove(&template)?;
        self.instances -= entry.instances.len();
        Some(entry)
    }

    /// Inserts (or replaces) the entry of `template`; a full shard gives
    /// up an arbitrary other entry first. Returns the entry displaced
    /// either way, for the caller to drop outside the shard lock.
    fn store(&mut self, template: u64, entry: CacheEntry, capacity: usize) -> Option<CacheEntry> {
        let mut displaced = self.remove(template);
        if displaced.is_none() && self.entries.len() >= capacity {
            if let Some(&k) = self.entries.keys().next() {
                displaced = self.remove(k);
                let evicted = displaced.as_ref().map_or(0, |e| e.instances.len());
                obs::add(obs::Counter::PlanCacheInstanceEvictions, evicted as u64);
            }
        }
        self.entries.insert(template, entry);
        displaced
    }

    /// Attaches `instance` to the entry it was derived from — unless that
    /// entry was replaced meanwhile — and, over budget, gives up an
    /// arbitrary other instance, the way [`Shard::store`] does entries.
    /// Returns the instance displaced, for the caller to drop outside
    /// the shard lock.
    fn fill(
        &mut self,
        template: u64,
        outcome: &Arc<Outcome>,
        binding: u64,
        instance: Arc<Instance>,
        capacity: usize,
    ) -> Option<Arc<Instance>> {
        let Some(entry) = self
            .entries
            .get_mut(&template)
            .filter(|e| Arc::ptr_eq(&e.outcome, outcome))
        else {
            return Some(instance);
        };
        if let Some(same_slot) = entry.instances.insert(binding, instance) {
            return Some(same_slot);
        }
        self.instances += 1;
        if self.instances <= capacity {
            return None;
        }
        // The entry just filled usually holds the victim; only when the
        // new instance is its first do the other entries get a look.
        let own = entry.instances.keys().find(|k| **k != binding);
        let (t, k) = own.map(|k| (template, *k)).or_else(|| {
            self.entries
                .iter()
                .filter(|(t, _)| **t != template)
                .find_map(|(t, e)| Some((*t, *e.instances.keys().next()?)))
        })?;
        let evicted = self.entries.get_mut(&t)?.instances.remove(&k)?;
        self.instances -= 1;
        obs::bump(obs::Counter::PlanCacheInstanceEvictions);
        Some(evicted)
    }

    /// Points `hash` at `slot`; a full shard gives up an arbitrary other
    /// slot first, the way [`Shard::store`] does entries. Returns the
    /// slot displaced, for the caller to drop outside the shard lock.
    fn point(&mut self, hash: u64, slot: TextSlot, capacity: usize) -> Option<TextSlot> {
        let mut displaced = self.texts.insert(hash, slot);
        if displaced.is_none() && self.texts.len() > capacity {
            if let Some(&k) = self.texts.keys().find(|k| **k != hash) {
                displaced = self.texts.remove(&k);
            }
        }
        displaced
    }
}

/// What the cache holds for one query.
enum Lookup {
    /// The query itself was finished before.
    Instance(Arc<Instance>),
    /// The template's outcome applies; retarget it and finish.
    Template(Arc<Outcome>, Retarget),
    /// Nothing usable: search. `had_entry` tells a rebind from a miss.
    Search { had_entry: bool },
}

/// A bounded, invalidation-aware cache of Step-3 search outcomes keyed
/// by [`Query::canonical_template`] fingerprints.
///
/// Thread-safe; share one per prepared schema. Entries live in
/// `shard_count()` independently locked shards selected by template
/// hash, so concurrent warm lookups of *different* templates never
/// contend on a common mutex (the serving event loop's workers hit this
/// path on every cached query). The observable behaviour is that of the
/// former single-map cache: `len()` sums the shards, and the
/// `plan_cache.*` counters are bumped exactly as before, so per-shard
/// stats always sum to the old global totals.
///
/// Finished instances hang off the entries and share their budget: over
/// the whole cache there are never more instances than `capacity`, an
/// instance goes when its entry is rebound, evicted or invalidated, and a
/// full shard gives up an arbitrary instance per insertion
/// ([`PlanCache::instance_count`], `plan_cache.instance_evictions`).
///
/// There are two ways to find an instance, the cheaper tried first: by
/// the exact bytes of the request text — no normalisation, so a client
/// that reformats a query pays Step 2 once per spelling — and, through
/// the entry, by template and binding. The text index only points at
/// instances ([`PlanCache::text_count`] slots, the same budget and
/// eviction again); its keys come from clients, so it hashes them with a
/// per-cache random SipHash key.
///
/// [`PlanCache::invalidate`] bumps the generation and drops every entry
/// in every shard — call it whenever the constraint set changes (the
/// service does this on IC reload).
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    /// `shards.len() - 1`; shard count is always a power of two.
    shard_mask: u64,
    generation: AtomicU64,
    /// Per-shard budget (total capacity / shard count), for entries,
    /// finished instances and request texts alike.
    shard_capacity: usize,
    /// Keys [`PlanCache::text_hash`].
    text_keys: RandomState,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

/// Default shard count: enough that a worker pool in the tens never
/// queues on one lock, small enough that `len()`/`invalidate()` stay
/// cheap.
const DEFAULT_SHARDS: usize = 16;

impl PlanCache {
    /// A cache holding up to 4096 templates across 16 shards.
    pub fn new() -> Self {
        PlanCache::with_capacity(4096)
    }

    /// A cache holding up to `capacity` templates; when a shard is full,
    /// an arbitrary entry of that shard is evicted per insertion.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two, and down to one no larger than `capacity`) splitting
    /// `capacity` evenly, so the shards' budgets never sum to more.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let most = 1 << capacity.ilog2();
        let shards = shards.clamp(1, 1 << 16).next_power_of_two().min(most);
        PlanCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            shard_mask: (shards - 1) as u64,
            generation: AtomicU64::new(0),
            shard_capacity: capacity / shards,
            text_keys: RandomState::new(),
        }
    }

    /// The shard holding `hash`. Template hashes are already avalanched,
    /// but fold the high half in so shard choice never depends on low
    /// bits alone.
    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[((hash ^ (hash >> 32)) & self.shard_mask) as usize]
    }

    /// Changes the shard holding `hash`. What the change displaced is
    /// dropped here, after the shard lock: freeing plans needs no lock.
    fn update<T>(&self, hash: u64, change: impl FnOnce(&mut Shard, usize) -> Option<T>) {
        let displaced = match self.shard(hash).lock() {
            Ok(mut shard) => change(&mut shard, self.shard_capacity),
            Err(_) => None,
        };
        drop(displaced);
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Entries per shard, in shard order. Sums to [`PlanCache::len`].
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().map(|s| s.entries.len()).unwrap_or(0))
            .collect()
    }

    /// Finished instances over all entries; at most the cache's capacity.
    pub fn instance_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|s| s.instances).unwrap_or(0))
            .sum()
    }

    /// Request texts the cache can answer without parsing, live or dead;
    /// at most the cache's capacity.
    pub fn text_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|s| s.texts.len()).unwrap_or(0))
            .sum()
    }

    /// Where the request text `src` lives: slot key and shard choice.
    fn text_hash(&self, src: &str) -> u64 {
        self.text_keys.hash_one(src)
    }

    /// The finished instance `src` is known to produce, when the entry
    /// that owns it still does and a prepared optimizer of `generation`
    /// finished it.
    fn find_text(&self, src: &str, generation: u64) -> Option<Arc<Instance>> {
        let hash = self.text_hash(src);
        let shard = self.shard(hash).lock().ok()?;
        let slot = shard.texts.get(&hash).filter(|s| *s.text == *src)?;
        slot.instance
            .upgrade()
            .filter(|i| i.generation == generation)
    }

    /// Makes `src` find `instance` from now on.
    fn register_text(&self, src: &str, instance: &Arc<Instance>) {
        let hash = self.text_hash(src);
        let slot = TextSlot {
            text: src.into(),
            instance: Arc::downgrade(instance),
        };
        self.update(hash, |shard, capacity| shard.point(hash, slot, capacity));
    }

    /// The current invalidation generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of cached templates (summed over shards).
    pub fn len(&self) -> usize {
        self.shard_lens().iter().sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan, and every request text with them, and bump
    /// the generation, so plans computed under the previous constraint
    /// set can never be served again.
    /// Bumps [`obs::Counter::PlanCacheInvalidations`] once per dropped
    /// entry (summed over shards, so the total matches the old
    /// single-map behaviour exactly).
    pub fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
        for shard in self.shards.iter() {
            // Dropped after the guard: freeing plans needs no lock.
            let dropped = shard.lock().map(|mut s| std::mem::take(&mut *s));
            if let Ok(dropped) = dropped {
                obs::add(
                    obs::Counter::PlanCacheInvalidations,
                    dropped.entries.len() as u64,
                );
            }
        }
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
        for v in &ctx.views {
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
            verdict,
            scope.finish(),
        ))
    }

    /// Optimize an OQL query through the semantic-plan cache. A text the
    /// cache has finished before — these exact bytes — gets its instance
    /// back before anything is parsed: such a hit's `stats` show one
    /// `cache.lookup`, `translate.queries: 0` and no Step-2 span. Any
    /// other text is parsed and goes the way of
    /// [`Self::optimize_query_cached`], which remembers the text with the
    /// instance it fills or finds.
    pub fn optimize_cached(
        &self,
        cache: &PlanCache,
        oql_src: &str,
    ) -> Result<(OptimizationReport, CacheOutcome)> {
        let _span = obs::span!("pipeline.optimize");
        let scope = obs::Scope::enter();
        let by_text = {
            let _s = obs::span!("cache.lookup");
            cache.find_text(oql_src, self.generation)
        };
        if let Some(instance) = by_text {
            obs::bump(obs::Counter::OptimizerQueries);
            return Ok((instance.hit(scope), CacheOutcome::Hit));
        }
        let original = sqo_oql::parse_oql(oql_src)?;
        self.optimize_parsed(cache, &original, Some(oql_src), scope)
    }

    /// Optimize a parsed OQL query through the semantic-plan cache. A
    /// query the cache has finished before gets its verdict back as is;
    /// on a template hit with a matching parameter signature the Step-3
    /// search is skipped and the cached rewrite set is retargeted onto
    /// this query's variables and constants, which finishes an instance
    /// for the next repeat.
    pub fn optimize_query_cached(
        &self,
        cache: &PlanCache,
        original: &SelectQuery,
    ) -> Result<(OptimizationReport, CacheOutcome)> {
        let _span = obs::span!("pipeline.optimize");
        self.optimize_parsed(cache, original, None, obs::Scope::enter())
    }

    /// The cached path from Step 2 on, inside the caller's
    /// `pipeline.optimize` span and `scope`. `text` is the request text
    /// `original` was parsed from, when there is one to remember.
    fn optimize_parsed(
        &self,
        cache: &PlanCache,
        original: &SelectQuery,
        text: Option<&str>,
        scope: obs::Scope,
    ) -> Result<(OptimizationReport, CacheOutcome)> {
        obs::bump(obs::Counter::OptimizerQueries);
        let translation = translate_query(original, &self.schema, &self.catalog)?;
        let datalog = &translation.query;

        let (template, binding, found) = {
            let _s = obs::span!("cache.lookup");
            let template = datalog.canonical_template();
            let binding = binding_hash(&template);
            let found = self.lookup(cache, &template, binding, original);
            (template, binding, found)
        };
        match found {
            Lookup::Instance(instance) => {
                if let Some(src) = text {
                    cache.register_text(src, &instance);
                }
                Ok((instance.hit(scope), CacheOutcome::Hit))
            }
            Lookup::Template(outcome, retarget) => {
                obs::bump(obs::Counter::PlanCacheHits);
                let retargeted = {
                    let _s = obs::span!("cache.retarget");
                    retarget.outcome(&outcome)
                };
                let verdict = outcome_to_verdict(retargeted, &translation, &self.catalog)?;
                let instance = Arc::new(Instance {
                    generation: self.generation,
                    original: original.clone(),
                    normalized: translation.normalized,
                    datalog: translation.query,
                    verdict: Arc::new(verdict),
                    finished: Arc::new(Finished::default()),
                });
                cache.update(template.hash, |shard, capacity| {
                    let filling = Arc::clone(&instance);
                    shard.fill(template.hash, &outcome, binding, filling, capacity)
                });
                if let Some(src) = text {
                    cache.register_text(src, &instance);
                }
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
                let outcome = search::optimize(datalog, &self.ctx, &SearchConfig::default());
                self.store(cache, datalog, &template, &outcome);
                let verdict = outcome_to_verdict(outcome, &translation, &self.catalog)?;
                let report =
                    OptimizationReport::fresh(original, translation, verdict, scope.finish());
                Ok((report, disposition))
            }
        }
    }

    /// What the cache holds for `original`, whose template is `template`:
    /// one probe for the entry, one for the instance, both under the
    /// shard lock, which is held for pointer copies only.
    fn lookup(
        &self,
        cache: &PlanCache,
        template: &CanonicalTemplate,
        binding: u64,
        original: &SelectQuery,
    ) -> Lookup {
        let Ok(shard) = cache.shard(template.hash).lock() else {
            return Lookup::Search { had_entry: false };
        };
        let Some(entry) = shard.entries.get(&template.hash) else {
            return Lookup::Search { had_entry: false };
        };
        if entry.generation != self.generation
            || entry.repr_params.len() != template.params.len()
            || entry.repr_var_order.len() != template.var_order.len()
        {
            return Lookup::Search { had_entry: true };
        }
        // An instance was finished under this very entry for these very
        // parameters, so their signature needs no second check.
        if let Some(i) = entry.instances.get(&binding) {
            if i.original == *original {
                return Lookup::Instance(Arc::clone(i));
            }
        }
        if param_signature(&template.params, &entry.thresholds) != entry.signature {
            return Lookup::Search { had_entry: true };
        }
        Lookup::Template(
            Arc::clone(&entry.outcome),
            Retarget::new(
                &entry.repr_var_order,
                &template.var_order,
                &entry.repr_params,
                &template.params,
            ),
        )
    }

    /// Insert (or replace) the template's entry with a fresh outcome.
    fn store(
        &self,
        cache: &PlanCache,
        datalog: &Query,
        template: &CanonicalTemplate,
        outcome: &Outcome,
    ) {
        let mut thresholds: BTreeSet<Const> = self.kb_consts.iter().copied().collect();
        collect_unlifted_consts(datalog, &mut thresholds);
        let thresholds: Vec<Const> = thresholds.into_iter().collect();
        let entry = CacheEntry {
            generation: self.generation,
            signature: param_signature(&template.params, &thresholds),
            thresholds,
            repr_params: template.params.clone(),
            repr_var_order: template.var_order.clone(),
            outcome: Arc::new(outcome.clone()),
            instances: HashMap::new(),
        };
        cache.update(template.hash, |shard, capacity| {
            shard.store(template.hash, entry, capacity)
        });
    }
}

/// The parameter signature: for each parameter, its value family and its
/// ordering against every threshold and every earlier parameter. Equal
/// signatures guarantee every constant-vs-constant decision the search
/// could take comes out identically (see the module docs).
fn param_signature(params: &[Const], thresholds: &[Const]) -> Vec<u8> {
    fn family(c: &Const) -> u8 {
        match c {
            Const::Int(_) => 0,
            Const::Real(_) => 1,
            Const::Str(_) => 2,
            Const::Bool(_) => 3,
            Const::Oid(_) => 4,
        }
    }
    fn rel(a: &Const, b: &Const) -> u8 {
        match a.order(b) {
            Some(std::cmp::Ordering::Less) => 0,
            Some(std::cmp::Ordering::Equal) => 1,
            Some(std::cmp::Ordering::Greater) => 2,
            None if a.same_value(b) => 3,
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
    const_map: HashMap<Const, Const>,
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
        let const_map: HashMap<Const, Const> = from_params
            .iter()
            .copied()
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
            Term::Const(c) => Term::Const(*self.const_map.get(c).unwrap_or(c)),
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

    /// Retarget a cached outcome. Variant queries are rewritten onto the
    /// new variables/constants; derivation steps are kept verbatim — the
    /// provenance describes the template representative's derivation,
    /// which is step-for-step the derivation of the new query.
    fn outcome(mut self, o: &Outcome) -> Outcome {
        match o {
            Outcome::Contradiction { .. } => o.clone(),
            Outcome::Equivalents(variants) => Outcome::Equivalents(
                variants
                    .iter()
                    .map(|v| Variant {
                        query: self.query(&v.query),
                        steps: v.steps.clone(),
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
}
