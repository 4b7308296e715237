//! Step 3 proper: the search for semantically equivalent queries.
//!
//! The paper (Section 4.1) notes that Step 3 is exponential in the number
//! of integrity constraints applicable to a query and that heuristics must
//! guide the transformation process so "only promising transformations are
//! generated". This module implements two engines over query variants,
//! selected by [`Strategy`], with the heuristic knobs exposed in
//! [`SearchConfig`]:
//!
//! * **`BestFirst`** (default) — a cost-ordered priority frontier over an
//!   exact [`SubsumptionIndex`]. Residue matching is memoized per query
//!   structure on the [`TransformContext`], so it is shared by every
//!   search on that context; each popped node is analysed when it is
//!   merged, and once no child of it could be admitted (depth bound
//!   reached or variant budget spent) it gets the contradiction probe
//!   only. Under the default [`CostModel::DepthUniform`] it expands nodes
//!   in exactly the BFS order and produces byte-identical outcomes.
//! * **`Bfs`** — the original bounded level-BFS, deduplicated by a
//!   canonical form and analysed without the memo. Kept intact as the
//!   ablation baseline; [`Backend`] and the `parallel` feature select
//!   only how *its* levels are analysed.

use crate::atom::Literal;
use crate::clause::Query;
use crate::fxhash::FxHashSet;
use crate::subsume::SubsumptionIndex;
use crate::transform::{analyse, analyse_memo, apply, Analysis, Op, TransformContext};
use sqo_obs as obs;
use std::collections::{BinaryHeap, HashSet};

/// When join introduction (`AddAtom`) is explored.
///
/// Unrestricted join introduction adds every implied atom (inverse
/// relationships, superclass memberships, …) and blows up the search
/// space without enabling anything — exactly the explosion Section 4.1
/// warns about. The default only introduces atoms that can participate
/// in a registered view (access support relation), which covers the
/// paper's IC9/ASR scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinIntro {
    /// Never introduce atoms.
    Off,
    /// Introduce only atoms whose predicate occurs in a registered view
    /// definition (head or body).
    ViewRelevant,
    /// Introduce every implied atom (exhaustive; exponential).
    All,
}

/// How the search deduplicates query variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Hash the canonical form ([`Query::canonical_hash`]) — no string
    /// rendering per candidate.
    #[default]
    Fingerprint,
    /// Render the full canonical string ([`Query::canonical_key`]) per
    /// candidate. Functionally identical; kept as the measurable
    /// baseline for the benchmark ablation.
    CanonicalKey,
}

/// Which engine analyses a level of the [`Strategy::Bfs`] frontier (the
/// best-first engine analyses each node as it merges it and has no
/// batch to fan out). The two backends produce byte-identical outcomes
/// (same variants, same order, same provenance, same counter totals);
/// the enumeration exists so differential harnesses can run every
/// backend against the same query and assert exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Frontier analyses fan out over worker threads (the default path;
    /// falls back to sequential analysis without the `parallel` feature).
    Parallel,
    /// Frontier analyses run on the calling thread.
    Sequential,
}

impl Backend {
    /// Every backend, for exhaustive differential sweeps.
    pub fn all() -> [Backend; 2] {
        [Backend::Parallel, Backend::Sequential]
    }

    /// Stable lowercase label (used in logs and repro dumps).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Parallel => "parallel",
            Backend::Sequential => "sequential",
        }
    }
}

/// Which search engine explores the variant space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The original exhaustive level-BFS. Kept byte-for-byte as the
    /// ablation baseline (`--search=bfs`).
    Bfs,
    /// Cost-driven best-first search: priority frontier, context-lifetime
    /// structure memo, exactness prefilter, exact subsumption index.
    /// Byte-identical outcomes to [`Strategy::Bfs`] under the default
    /// [`CostModel::DepthUniform`].
    #[default]
    BestFirst,
}

impl Strategy {
    /// Every strategy, for exhaustive differential sweeps.
    pub fn all() -> [Strategy; 2] {
        [Strategy::Bfs, Strategy::BestFirst]
    }

    /// Stable lowercase label (CLI flag value, logs, repro dumps).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Bfs => "bfs",
            Strategy::BestFirst => "best-first",
        }
    }

    /// Parse a CLI/wire label (`"bfs"` / `"best-first"`).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "bfs" => Some(Strategy::Bfs),
            "best-first" | "best_first" | "bestfirst" => Some(Strategy::BestFirst),
            _ => None,
        }
    }
}

/// How the best-first engine orders its priority frontier.
#[derive(Clone, Default)]
pub enum CostModel {
    /// Cost = derivation depth: the frontier pops in exact BFS FIFO
    /// order, so the engine's speedups are output-identical work
    /// reductions (analysis caching, exactness skips). The default.
    #[default]
    DepthUniform,
    /// An external per-query cost estimate (e.g. the object-store's
    /// index-aware plan cost): cheapest-looking variants are analysed
    /// first, which matters once `frontier_slice`/`cost_cutoff` bound
    /// the explored region.
    Estimator(std::sync::Arc<dyn Fn(&Query) -> f64 + Send + Sync>),
}

impl std::fmt::Debug for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostModel::DepthUniform => f.write_str("DepthUniform"),
            CostModel::Estimator(_) => f.write_str("Estimator(..)"),
        }
    }
}

/// Heuristic configuration for the equivalent-query search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum number of transformation steps applied along one path.
    pub max_depth: usize,
    /// Maximum number of equivalent queries to produce (including the
    /// original).
    pub max_variants: usize,
    /// Maximum number of analysed nodes (applicability checks are the
    /// expensive part; this bounds total work).
    pub max_expansions: usize,
    /// Enable restriction introduction (`AddCmp`).
    pub enable_add_cmp: bool,
    /// Join-introduction policy (`AddAtom`).
    pub join_intro: JoinIntro,
    /// Enable scope reduction (`AddNegAtom`).
    pub enable_add_neg: bool,
    /// Enable comparison removal (`RemoveCmp`).
    pub enable_remove_cmp: bool,
    /// Enable atom/group removal (`RemoveAtoms`).
    pub enable_remove_atoms: bool,
    /// Variant deduplication strategy (the [`Strategy::Bfs`] engine
    /// only; the best-first engine always dedups through the exact
    /// [`SubsumptionIndex`]).
    pub dedup: DedupMode,
    /// Which engine explores the variant space.
    pub strategy: Strategy,
    /// Frontier ordering for the best-first engine.
    pub cost_model: CostModel,
    /// Maximum nodes the best-first engine pops per round. `None`
    /// (default) drains the whole frontier each round (one BFS level
    /// under [`CostModel::DepthUniform`]); `Some(k)` analyses only the
    /// top-K cheapest nodes per round.
    pub frontier_slice: Option<usize>,
    /// Admissible early-termination bound for the best-first engine:
    /// frontier nodes whose cost exceeds this skip analysis and pass
    /// through as (already-proven) equivalents. `None` disables it.
    pub cost_cutoff: Option<f64>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_depth: 4,
            max_variants: 64,
            max_expansions: 96,
            enable_add_cmp: true,
            join_intro: JoinIntro::ViewRelevant,
            enable_add_neg: true,
            enable_remove_cmp: true,
            enable_remove_atoms: true,
            dedup: DedupMode::default(),
            strategy: Strategy::default(),
            cost_model: CostModel::default(),
            frontier_slice: None,
            cost_cutoff: None,
        }
    }
}

impl SearchConfig {
    fn enabled(&self, op: &Op, ctx: &TransformContext) -> bool {
        match op {
            Op::AddCmp(_) => self.enable_add_cmp,
            Op::AddAtom(a) => match self.join_intro {
                JoinIntro::Off => false,
                JoinIntro::All => true,
                JoinIntro::ViewRelevant => ctx.views.iter().any(|v| {
                    v.head.pred == a.pred
                        || v.body
                            .iter()
                            .any(|l| l.pred().is_some_and(|p| *p == a.pred))
                }),
            },
            Op::AddNegAtom(_) => self.enable_add_neg,
            Op::RemoveCmp(_) => self.enable_remove_cmp,
            Op::RemoveAtoms(_) => self.enable_remove_atoms,
        }
    }

    /// Exploration priority: cheaper/more-decisive transformations first
    /// (folds, removals, key equalities), speculative additions last.
    fn priority(op: &Op) -> u8 {
        match op {
            Op::RemoveAtoms(atoms) if atoms.len() > 1 => 0, // view fold
            Op::RemoveCmp(_) => 1,
            Op::AddCmp(c) if c.op == crate::atom::CmpOp::Eq => 2,
            Op::AddNegAtom(_) => 3,
            Op::RemoveAtoms(_) => 4,
            Op::AddCmp(_) => 5,
            Op::AddAtom(_) => 6,
        }
    }
}

/// One applied transformation step, for provenance reporting.
#[derive(Debug, Clone)]
pub struct Step {
    /// The transformation applied.
    pub op: Op,
    /// The justifying constraint/view name, if any.
    pub ic_name: Option<String>,
    /// Provenance id of the compiled residue that drove the step, if one
    /// did (see [`crate::residue::Residue::provenance_id`]).
    pub residue: Option<String>,
    /// Human-readable explanation.
    pub note: String,
}

impl Step {
    /// The step as a provenance record: (transformation kind, residue id,
    /// source IC, detail).
    pub fn provenance(&self) -> obs::ProvenanceStep {
        obs::ProvenanceStep {
            kind: self.op.kind(),
            residue: self.residue.clone(),
            ic: self.ic_name.clone(),
            detail: self.note.clone(),
        }
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.ic_name {
            Some(n) => write!(f, "{} [{n}]", self.op),
            None => write!(f, "{}", self.op),
        }
    }
}

/// A semantically equivalent query variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// The variant query.
    pub query: Query,
    /// The steps that produced it from the original.
    pub steps: Vec<Step>,
}

impl Variant {
    /// The derivation chain of this variant. The original query (no steps)
    /// yields the synthetic `original` chain, so every variant — including
    /// the input itself — carries a non-empty provenance.
    pub fn provenance(&self) -> obs::Provenance {
        obs::Provenance::from_steps(self.steps.iter().map(Step::provenance).collect())
    }
}

/// The difference between the original query and a variant, as literal
/// multiset changes — exactly what algorithm DATALOG_to_OQL consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Literals present in the variant but not the original.
    pub added: Vec<Literal>,
    /// Literals present in the original but not the variant.
    pub removed: Vec<Literal>,
}

impl Delta {
    /// Whether the variant is identical to the original.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

impl std::fmt::Display for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for l in &self.added {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "+ {l}")?;
            first = false;
        }
        for l in &self.removed {
            if !first {
                f.write_str("; ")?;
            }
            write!(f, "- {l}")?;
            first = false;
        }
        if first {
            f.write_str("(unchanged)")?;
        }
        Ok(())
    }
}

/// Compute the literal-level delta between the original and a variant.
/// Comparisons are matched up to orientation.
pub fn delta(original: &Query, variant: &Query) -> Delta {
    let mut removed: Vec<Literal> = Vec::new();
    let mut remaining: Vec<Literal> = variant.body.clone();
    for l in &original.body {
        let found = remaining.iter().position(|m| lit_eq(l, m));
        match found {
            Some(i) => {
                remaining.remove(i);
            }
            None => removed.push(l.clone()),
        }
    }
    Delta {
        added: remaining,
        removed,
    }
}

fn lit_eq(a: &Literal, b: &Literal) -> bool {
    match (a, b) {
        (Literal::Cmp(x), Literal::Cmp(y)) => x.canonical() == y.canonical(),
        _ => a == b,
    }
}

/// The outcome of semantic query optimization on one query.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The query is unsatisfiable under the integrity constraints: it
    /// need not be evaluated at all.
    Contradiction {
        /// The justifying constraint, if known.
        ic_name: Option<String>,
        /// Human-readable explanation.
        note: String,
        /// Steps applied before the contradiction surfaced (empty when
        /// the original query is already contradictory).
        steps: Vec<Step>,
    },
    /// The semantically equivalent queries found (the original is always
    /// first, with an empty step list).
    Equivalents(Vec<Variant>),
}

impl Outcome {
    /// The variants, if the query is satisfiable.
    pub fn variants(&self) -> &[Variant] {
        match self {
            Outcome::Contradiction { .. } => &[],
            Outcome::Equivalents(v) => v,
        }
    }

    /// Whether SQO proved the query unsatisfiable.
    pub fn is_contradiction(&self) -> bool {
        matches!(self, Outcome::Contradiction { .. })
    }
}

/// Run the bounded equivalent-query search (Step 3).
///
/// Under the default [`Strategy::BestFirst`] the search pops its
/// frontier in cost order (derivation depth by default, so level by
/// level), analyses each popped node on the calling thread against the
/// context's structure memo, and merges its children through the
/// subsumption index; a node that can no longer contribute a child is
/// only probed for a contradiction. The outcome depends on the query,
/// the context and `cfg` alone — never on what earlier searches left in
/// the memo. [`Strategy::Bfs`] runs the legacy level-BFS, whose levels
/// are analysed on worker threads with the `parallel` feature (on by
/// default) and merged sequentially, byte-identical to
/// [`optimize_sequential`].
pub fn optimize(q: &Query, ctx: &TransformContext, cfg: &SearchConfig) -> Outcome {
    match cfg.strategy {
        Strategy::Bfs => optimize_with(q, ctx, cfg, analyse_level),
        Strategy::BestFirst => best_first(q, ctx, cfg),
    }
}

/// [`optimize`] with the [`Strategy::Bfs`] levels analysed on the
/// calling thread. Produces the identical outcome (same variants, same
/// order, same provenance); exists so the equivalence can be asserted in
/// tests and measured in benchmarks.
pub fn optimize_sequential(q: &Query, ctx: &TransformContext, cfg: &SearchConfig) -> Outcome {
    match cfg.strategy {
        Strategy::Bfs => optimize_with(q, ctx, cfg, analyse_level_sequential),
        Strategy::BestFirst => best_first(q, ctx, cfg),
    }
}

/// Run the search through an explicitly selected [`Backend`].
pub fn optimize_with_backend(
    q: &Query,
    ctx: &TransformContext,
    cfg: &SearchConfig,
    backend: Backend,
) -> Outcome {
    match backend {
        Backend::Parallel => optimize(q, ctx, cfg),
        Backend::Sequential => optimize_sequential(q, ctx, cfg),
    }
}

fn analyse_level_sequential(nodes: &[Variant], ctx: &TransformContext) -> Vec<Analysis> {
    nodes.iter().map(|n| analyse(&n.query, ctx)).collect()
}

/// Analyse one BFS level, fanning out over the available cores. Results
/// come back in node order (contiguous chunks, joined in spawn order).
/// Cached core count: `available_parallelism` re-reads the cgroup
/// quota files on every call on Linux, which is far too slow to sit on
/// the per-level path of a microsecond-scale search.
#[cfg(feature = "parallel")]
fn worker_budget() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(feature = "parallel")]
fn analyse_level(nodes: &[Variant], ctx: &TransformContext) -> Vec<Analysis> {
    let workers = worker_budget().min(nodes.len());
    if workers <= 1 {
        return analyse_level_sequential(nodes, ctx);
    }
    let chunk = nodes.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = nodes
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    let out = analyse_level_sequential(c, ctx);
                    // Flush inside the closure: scope/join completion does
                    // not wait for the worker's TLS destructors to run.
                    obs::flush_local();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
}

#[cfg(not(feature = "parallel"))]
fn analyse_level(nodes: &[Variant], ctx: &TransformContext) -> Vec<Analysis> {
    analyse_level_sequential(nodes, ctx)
}

/// The variant seen-set, generic over [`DedupMode`]. Both modes dedup
/// on the same canonical form; they differ only in whether that form is
/// hashed as tokens or rendered into a string.
enum Seen {
    Fingerprint(FxHashSet<u64>),
    CanonicalKey(HashSet<String>),
}

impl Seen {
    fn new(mode: DedupMode) -> Self {
        match mode {
            DedupMode::Fingerprint => Seen::Fingerprint(FxHashSet::default()),
            DedupMode::CanonicalKey => Seen::CanonicalKey(HashSet::new()),
        }
    }

    /// Insert the query's canonical form; `false` if already present.
    fn insert(&mut self, q: &Query) -> bool {
        match self {
            Seen::Fingerprint(s) => s.insert(q.canonical_hash()),
            Seen::CanonicalKey(s) => s.insert(q.canonical_key()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Seen::Fingerprint(s) => s.len(),
            Seen::CanonicalKey(s) => s.len(),
        }
    }
}

fn optimize_with(
    q: &Query,
    ctx: &TransformContext,
    cfg: &SearchConfig,
    analyse_level: impl Fn(&[Variant], &TransformContext) -> Vec<Analysis>,
) -> Outcome {
    let _span = obs::span!("step3.search");
    let mut variants: Vec<Variant> = Vec::new();
    let mut seen = Seen::new(cfg.dedup);
    let mut expansions = 0usize;

    let mut frontier = vec![Variant {
        query: q.clone(),
        steps: Vec::new(),
    }];
    seen.insert(q);

    while !frontier.is_empty() {
        // Nodes beyond the expansion budget pass through unexpanded, in
        // order, exactly as they would pop off a FIFO queue.
        let analysed = cfg
            .max_expansions
            .saturating_sub(expansions)
            .min(frontier.len());
        expansions += analysed;
        obs::bump(obs::Counter::SearchLevels);
        obs::add(obs::Counter::SearchNodesExpanded, analysed as u64);
        // Worker threads flush their local counters into the global
        // registry before their closures return inside `analyse_level`,
        // so by the time the sequential merge below runs, totals are
        // already identical to a sequential analysis.
        let analyses = analyse_level(&frontier[..analysed], ctx);
        let mut results = analyses.into_iter();
        let mut next_level: Vec<Variant> = Vec::new();
        for (i, node) in frontier.into_iter().enumerate() {
            if i >= analysed {
                variants.push(node);
                continue;
            }
            match results.next().expect("one analysis per analysed node") {
                Analysis::Contradiction { ic_name, note } => {
                    return Outcome::Contradiction {
                        ic_name,
                        note,
                        steps: node.steps,
                    };
                }
                Analysis::Candidates(mut cands) => {
                    let depth = node.steps.len();
                    if depth < cfg.max_depth {
                        cands.sort_by_key(|c| SearchConfig::priority(&c.op));
                        for cand in cands {
                            if !cfg.enabled(&cand.op, ctx) {
                                continue;
                            }
                            let next = apply(&node.query, &cand.op);
                            if !next.is_safe() {
                                continue;
                            }
                            if !seen.insert(&next) {
                                obs::bump(obs::Counter::SearchDedupHits);
                                obs::bump(obs::Counter::SearchNodesPruned);
                                continue;
                            }
                            if seen.len() > cfg.max_variants {
                                obs::bump(obs::Counter::SearchNodesPruned);
                                continue;
                            }
                            let mut steps = node.steps.clone();
                            steps.push(Step {
                                op: cand.op,
                                ic_name: cand.ic_name,
                                residue: cand.residue,
                                note: cand.note,
                            });
                            next_level.push(Variant { query: next, steps });
                        }
                    }
                    variants.push(node);
                }
            }
        }
        frontier = next_level;
    }

    note_budget(cfg, &variants, expansions, seen.len());
    Outcome::Equivalents(variants)
}

/// Bump `search.budget_exhausted` when a finished search was bounded by
/// a budget rather than by running out of transformations: a variant
/// sits at the depth bound, some passed through unanalysed (`expanded`
/// falls short of their number), or a child was refused because the
/// dedup structure had outgrown the variant budget (`distinct`).
/// Conservative: a bounded search *may* have had nothing more to find.
fn note_budget(cfg: &SearchConfig, variants: &[Variant], expanded: usize, distinct: usize) {
    if variants.iter().any(|v| v.steps.len() >= cfg.max_depth)
        || expanded < variants.len()
        || distinct > cfg.max_variants
    {
        obs::bump(obs::Counter::SearchBudgetExhausted);
    }
}

/// A frontier entry in the best-first heap. Ordering is inverted so the
/// default max-heap pops the *lowest* cost first; ties break on the
/// discovery sequence number so equal-cost nodes pop in FIFO order.
/// Under [`CostModel::DepthUniform`] (cost = plan depth) this makes the
/// pop order exactly the BFS level order, which is what makes the
/// best-first engine byte-identical to the legacy BFS by construction.
struct FrontierNode {
    cost: f64,
    seq: u64,
    node: Variant,
}

impl PartialEq for FrontierNode {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for FrontierNode {}

impl PartialOrd for FrontierNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontierNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-cost / min-seq.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The cost-driven best-first engine. Structure per round:
///
/// 1. Pop the cheapest `frontier_slice` nodes off the heap (all of them
///    when the slice is `None`, which is a whole BFS level under
///    [`CostModel::DepthUniform`]).
/// 2. Nodes whose cost exceeds `cost_cutoff` skip analysis entirely and
///    pass straight through as variants — sound, because every frontier
///    node is an already-proven equivalent; the cutoff only stops us
///    *expanding* them further.
/// 3. Analyse each remaining node as it is merged, against the
///    context's structure memo ([`analyse_memo`]). The candidate list
///    is asked for only while a child could still be admitted — below
///    the depth bound and with room in the variant budget, which the
///    never-shrinking [`SubsumptionIndex`] cannot give back; otherwise
///    the node gets the contradiction probe alone. Children merge
///    through the index (canonical-hash-bucketed, exact on collision —
///    no false dedup from a 64-bit fingerprint).
///
/// Under the default config (DepthUniform, no slice, no cutoff) the pop
/// order, budget accounting, candidate filtering, and dedup decisions
/// are all identical to [`optimize_with`], and every node the BFS would
/// analyse is still probed, so the outcome — and the downstream
/// `explain_json` — is byte-identical to the legacy BFS. Pinned by
/// `best_first_matches_bfs_*` tests here and the cross-strategy sweep in
/// the fuzz crate.
fn best_first(q: &Query, ctx: &TransformContext, cfg: &SearchConfig) -> Outcome {
    let _span = obs::span!("step3.search");
    let cost_of = |node: &Variant| -> f64 {
        match &cfg.cost_model {
            CostModel::DepthUniform => node.steps.len() as f64,
            CostModel::Estimator(f) => f(&node.query),
        }
    };

    let mut variants: Vec<Variant> = Vec::new();
    let mut index = SubsumptionIndex::new();
    let mut expansions = 0usize;
    let mut seq = 0u64;
    let mut frontier_peak = 0usize;

    let root = Variant {
        query: q.clone(),
        steps: Vec::new(),
    };
    index.insert(q);
    let mut heap: BinaryHeap<FrontierNode> = BinaryHeap::new();
    heap.push(FrontierNode {
        cost: cost_of(&root),
        seq,
        node: root,
    });
    seq += 1;
    frontier_peak = frontier_peak.max(heap.len());

    while !heap.is_empty() {
        let take = cfg
            .frontier_slice
            .unwrap_or(usize::MAX)
            .min(heap.len())
            .max(1);
        let mut batch: Vec<Variant> = Vec::with_capacity(take);
        let mut above_cutoff: Vec<Variant> = Vec::new();
        for _ in 0..take {
            let entry = heap.pop().expect("heap non-empty for 0..take");
            match cfg.cost_cutoff {
                Some(cutoff) if entry.cost > cutoff => above_cutoff.push(entry.node),
                _ => batch.push(entry.node),
            }
        }
        // Nodes beyond the expansion budget pass through unexpanded, in
        // pop (cost, seq) order, mirroring the legacy FIFO passthrough.
        let analysed = cfg
            .max_expansions
            .saturating_sub(expansions)
            .min(batch.len());
        expansions += analysed;
        obs::bump(obs::Counter::SearchLevels);
        obs::add(obs::Counter::SearchNodesExpanded, analysed as u64);
        for (i, node) in batch.into_iter().enumerate() {
            if i >= analysed {
                variants.push(node);
                continue;
            }
            // A child needs room under the depth bound and in the variant
            // budget, which the never-shrinking index cannot give back;
            // without both, all this node can still yield is a
            // contradiction.
            let enumerate = node.steps.len() < cfg.max_depth && index.len() <= cfg.max_variants;
            match analyse_memo(&node.query, ctx, enumerate) {
                Analysis::Contradiction { ic_name, note } => {
                    return Outcome::Contradiction {
                        ic_name,
                        note,
                        steps: node.steps,
                    };
                }
                Analysis::Candidates(mut cands) => {
                    cands.sort_by_key(|c| SearchConfig::priority(&c.op));
                    for cand in cands {
                        if !cfg.enabled(&cand.op, ctx) {
                            continue;
                        }
                        // The budget can run out between two children of
                        // one node: skip building and canonicalizing the
                        // rest.
                        if index.len() > cfg.max_variants {
                            obs::bump(obs::Counter::SearchNodesPruned);
                            continue;
                        }
                        let next = apply(&node.query, &cand.op);
                        if !next.is_safe() {
                            continue;
                        }
                        if !index.insert(&next) {
                            obs::bump(obs::Counter::SearchDedupHits);
                            obs::bump(obs::Counter::SearchNodesPruned);
                            obs::bump(obs::Counter::SearchSubsumedPruned);
                            continue;
                        }
                        if index.len() > cfg.max_variants {
                            obs::bump(obs::Counter::SearchNodesPruned);
                            continue;
                        }
                        let mut steps = node.steps.clone();
                        steps.push(Step {
                            op: cand.op,
                            ic_name: cand.ic_name,
                            residue: cand.residue,
                            note: cand.note,
                        });
                        let child = Variant { query: next, steps };
                        heap.push(FrontierNode {
                            cost: cost_of(&child),
                            seq,
                            node: child,
                        });
                        seq += 1;
                    }
                    variants.push(node);
                }
            }
        }
        variants.append(&mut above_cutoff);
        frontier_peak = frontier_peak.max(heap.len());
    }

    obs::add(obs::Counter::SearchFrontierPeak, frontier_peak as u64);
    note_budget(cfg, &variants, expansions, index.len());
    Outcome::Equivalents(variants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, CmpOp, Comparison};
    use crate::clause::{Constraint, ConstraintHead, Rule};
    use crate::residue::ResidueSet;
    use crate::term::Term;
    use std::collections::BTreeMap;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    fn scope_ctx() -> TransformContext {
        let ic4 = Constraint::named(
            "IC4",
            ConstraintHead::Cmp(Comparison::new(v("Age"), CmpOp::Ge, Term::int(30))),
            vec![Literal::pos("faculty", vec![v("X"), v("N"), v("Age")])],
        );
        let ic5 = Constraint::named(
            "IC5",
            ConstraintHead::Atom(Atom::new("person", vec![v("X"), v("N"), v("Age")])),
            vec![Literal::pos("faculty", vec![v("X"), v("N"), v("Age")])],
        );
        TransformContext::new(ResidueSet::compile(vec![ic4, ic5]), vec![], BTreeMap::new())
    }

    #[test]
    fn search_finds_scope_reduced_variant() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let out = optimize(&q, &scope_ctx(), &SearchConfig::default());
        let variants = out.variants();
        assert!(variants.len() >= 2);
        // Original is first, unchanged.
        assert!(variants[0].steps.is_empty());
        assert_eq!(variants[0].query, q);
        // Some variant carries the negative literal.
        let reduced = variants.iter().find(|va| {
            va.query
                .body
                .iter()
                .any(|l| matches!(l, Literal::Neg(a) if a.pred.name() == "faculty"))
        });
        let reduced = reduced.expect("scope-reduced variant");
        let d = delta(&q, &reduced.query);
        assert_eq!(d.added.len(), 1);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn contradiction_short_circuits() {
        let ic = Constraint::named(
            "IC1",
            ConstraintHead::Cmp(Comparison::new(v("S"), CmpOp::Gt, Term::int(40000))),
            vec![Literal::pos("faculty", vec![v("O"), v("S")])],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("O")],
            vec![
                Literal::pos("faculty", vec![v("O"), v("Sal")]),
                Literal::cmp(v("Sal"), CmpOp::Lt, Term::int(20000)),
            ],
        );
        let out = optimize(&q, &ctx, &SearchConfig::default());
        assert!(out.is_contradiction());
        if let Outcome::Contradiction { ic_name, .. } = out {
            assert_eq!(ic_name.as_deref(), Some("IC1"));
        }
    }

    #[test]
    fn depth_zero_returns_only_original() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let cfg = SearchConfig {
            max_depth: 0,
            ..Default::default()
        };
        let out = optimize(&q, &scope_ctx(), &cfg);
        assert_eq!(out.variants().len(), 1);
    }

    #[test]
    fn disabled_op_classes_are_not_applied() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let cfg = SearchConfig {
            enable_add_neg: false,
            ..Default::default()
        };
        let out = optimize(&q, &scope_ctx(), &cfg);
        assert!(out
            .variants()
            .iter()
            .all(|va| { va.query.body.iter().all(|l| !matches!(l, Literal::Neg(_))) }));
    }

    #[test]
    fn max_variants_bounds_output() {
        // Many applicable restriction residues blow up the variant space;
        // the bound must hold.
        let mut ics = Vec::new();
        for i in 0..6 {
            ics.push(Constraint::named(
                format!("R{i}"),
                ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Gt, Term::int(i))),
                vec![Literal::pos("p", vec![v("X"), v("A")])],
            ));
        }
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("X")],
            vec![Literal::pos("p", vec![v("X"), v("A")])],
        );
        let cfg = SearchConfig {
            max_variants: 5,
            ..Default::default()
        };
        let out = optimize(&q, &ctx, &cfg);
        assert!(out.variants().len() <= 6);
    }

    #[test]
    fn full_application4_q_pipeline() {
        // Original chain query + ASR view: the search should surface the
        // folded variant within default bounds.
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
            ],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![]), vec![view], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("W")],
            vec![
                Literal::pos("student", vec![v("X"), v("Name")]),
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
                Literal::cmp(v("Name"), CmpOp::Eq, Term::str("james")),
            ],
        );
        let out = optimize(&q, &ctx, &SearchConfig::default());
        let folded = out.variants().iter().find(|va| {
            va.query.body.len() == 3
                && va
                    .query
                    .body
                    .iter()
                    .any(|l| matches!(l, Literal::Pos(a) if a.pred.name() == "asr"))
        });
        let folded = folded.expect("folded variant");
        let d = delta(&q, &folded.query);
        assert_eq!(d.removed.len(), 4);
        assert_eq!(d.added.len(), 1);
    }

    /// Assert the two [`Backend`]s return identical outcomes: same
    /// variants in the same order, same steps, same provenance. Only
    /// [`Strategy::Bfs`] has a batch for a backend to analyse.
    fn assert_outcomes_identical(q: &Query, ctx: &TransformContext, cfg: &SearchConfig) {
        let bfs = SearchConfig {
            strategy: Strategy::Bfs,
            ..cfg.clone()
        };
        let par = optimize(q, ctx, &bfs);
        let seq = optimize_sequential(q, ctx, &bfs);
        assert_same_outcome(&par, &seq);
    }

    /// Assert two outcomes are identical: same kind, same variants in
    /// the same order, same steps, same provenance.
    fn assert_same_outcome(par: &Outcome, seq: &Outcome) {
        match (par, seq) {
            (
                Outcome::Contradiction {
                    ic_name: n1,
                    note: m1,
                    steps: s1,
                },
                Outcome::Contradiction {
                    ic_name: n2,
                    note: m2,
                    steps: s2,
                },
            ) => {
                assert_eq!(n1, n2);
                assert_eq!(m1, m2);
                assert_eq!(s1.len(), s2.len());
                for (a, b) in s1.iter().zip(s2) {
                    assert_eq!(a.op, b.op);
                    assert_eq!(a.ic_name, b.ic_name);
                }
            }
            (Outcome::Equivalents(v1), Outcome::Equivalents(v2)) => {
                assert_eq!(v1.len(), v2.len(), "variant count differs");
                for (a, b) in v1.iter().zip(v2) {
                    assert_eq!(a.query, b.query, "variant query differs");
                    assert_eq!(a.query.to_string(), b.query.to_string());
                    assert_eq!(a.steps.len(), b.steps.len());
                    for (x, y) in a.steps.iter().zip(&b.steps) {
                        assert_eq!(x.op, y.op);
                        assert_eq!(x.ic_name, y.ic_name);
                        assert_eq!(x.note, y.note);
                    }
                }
            }
            _ => panic!("outcome kinds differ: {par:?} vs {seq:?}"),
        }
    }

    /// Run the same search under both strategies (and both backends for
    /// the BFS side) and assert identical outcomes. This is the
    /// unit-level pin behind the "best-first is byte-identical to BFS by
    /// default" guarantee; the fuzz crate pins the rendered
    /// `explain_json` across strategies on top of this.
    fn assert_strategies_identical(q: &Query, ctx: &TransformContext, cfg: &SearchConfig) {
        let bfs = SearchConfig {
            strategy: Strategy::Bfs,
            ..cfg.clone()
        };
        let best = SearchConfig {
            strategy: Strategy::BestFirst,
            ..cfg.clone()
        };
        let baseline = optimize_sequential(q, ctx, &bfs);
        assert_same_outcome(&optimize(q, ctx, &bfs), &baseline);
        assert_same_outcome(&optimize(q, ctx, &best), &baseline);
    }

    #[test]
    fn best_first_matches_bfs_on_scope_reduction() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        assert_strategies_identical(&q, &scope_ctx(), &SearchConfig::default());
    }

    #[test]
    fn best_first_matches_bfs_on_view_fold() {
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
            ],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![]), vec![view], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("W")],
            vec![
                Literal::pos("student", vec![v("X"), v("Name")]),
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
                Literal::cmp(v("Name"), CmpOp::Eq, Term::str("james")),
            ],
        );
        assert_strategies_identical(&q, &ctx, &SearchConfig::default());
    }

    #[test]
    fn best_first_matches_bfs_on_contradiction() {
        let ic = Constraint::named(
            "IC1",
            ConstraintHead::Cmp(Comparison::new(v("S"), CmpOp::Gt, Term::int(40000))),
            vec![Literal::pos("faculty", vec![v("O"), v("S")])],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("O")],
            vec![
                Literal::pos("faculty", vec![v("O"), v("Sal")]),
                Literal::cmp(v("Sal"), CmpOp::Lt, Term::int(20000)),
            ],
        );
        assert_strategies_identical(&q, &ctx, &SearchConfig::default());
    }

    #[test]
    fn best_first_matches_bfs_under_tight_budgets() {
        let mut ics = Vec::new();
        for i in 0..8 {
            ics.push(Constraint::named(
                format!("R{i}"),
                ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Gt, Term::int(i))),
                vec![Literal::pos("p", vec![v("X"), v("A")])],
            ));
        }
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("X")],
            vec![Literal::pos("p", vec![v("X"), v("A")])],
        );
        for (max_variants, max_expansions) in [(5, 3), (64, 96), (2, 1), (16, 7)] {
            let cfg = SearchConfig {
                max_variants,
                max_expansions,
                ..Default::default()
            };
            assert_strategies_identical(&q, &ctx, &cfg);
        }
    }

    #[test]
    fn best_first_counters_fire() {
        // R0 and R1 restrict independent attributes, so the depth-2
        // variant {A>3, B>7} is reached in both application orders — the
        // second arrival hits the subsumption index. F0's head mentions
        // C, which no body literal can bind: the exactness prefilter
        // must skip it.
        let ics = vec![
            Constraint::named(
                "R0",
                ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Gt, Term::int(3))),
                vec![Literal::pos("p", vec![v("X"), v("A"), v("B")])],
            ),
            Constraint::named(
                "R1",
                ConstraintHead::Cmp(Comparison::new(v("B"), CmpOp::Gt, Term::int(7))),
                vec![Literal::pos("p", vec![v("X"), v("A"), v("B")])],
            ),
            Constraint::named(
                "F0",
                ConstraintHead::Cmp(Comparison::new(v("C"), CmpOp::Gt, Term::int(5))),
                vec![Literal::pos("p", vec![v("X"), v("A"), v("B")])],
            ),
        ];
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("X")],
            vec![Literal::pos("p", vec![v("X"), v("A"), v("B")])],
        );
        let before = obs::snapshot();
        let out = optimize(&q, &ctx, &SearchConfig::default());
        let after = obs::snapshot();
        assert!(out.variants().len() >= 2);
        // Counters are process-global, so compare before/after deltas:
        // concurrent tests can only inflate them, never hide our bumps.
        let delta = |name: &str| after.counters[name] - before.counters[name];
        assert!(delta("search.subsumed_pruned") >= 1, "subsumption prune");
        assert!(delta("search.exact_skipped") >= 1, "exactness skip");
        assert!(delta("search.frontier_peak") >= 1, "frontier peak");
    }

    #[test]
    fn cost_cutoff_passes_variants_through_unexpanded() {
        // With a cutoff below depth 1, the engine analyses only the root;
        // depth-1 children pass through as (already proven) equivalents.
        // That is exactly what BFS produces at max_depth = 1 when no
        // contradiction hides at depth 1 — same variants, same order.
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let ctx = scope_ctx();
        let cut = optimize(
            &q,
            &ctx,
            &SearchConfig {
                cost_cutoff: Some(0.5),
                ..Default::default()
            },
        );
        let bfs = optimize(
            &q,
            &ctx,
            &SearchConfig {
                strategy: Strategy::Bfs,
                max_depth: 1,
                ..Default::default()
            },
        );
        assert_same_outcome(&cut, &bfs);
    }

    #[test]
    fn estimator_model_with_slice_explores_same_variant_set() {
        // A non-uniform cost model plus a single-node frontier slice pops
        // in cost order, so the variant *order* may legitimately differ
        // from BFS — but with no budget pressure the explored *set* of
        // distinct queries must be identical.
        let mut ics = Vec::new();
        for i in 0..4 {
            ics.push(Constraint::named(
                format!("R{i}"),
                ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Gt, Term::int(i))),
                vec![Literal::pos("p", vec![v("X"), v("A")])],
            ));
        }
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("X")],
            vec![Literal::pos("p", vec![v("X"), v("A")])],
        );
        let best = optimize(
            &q,
            &ctx,
            &SearchConfig {
                cost_model: CostModel::Estimator(std::sync::Arc::new(|q: &Query| {
                    q.body.len() as f64
                })),
                frontier_slice: Some(1),
                ..Default::default()
            },
        );
        let bfs = optimize(
            &q,
            &ctx,
            &SearchConfig {
                strategy: Strategy::Bfs,
                ..Default::default()
            },
        );
        let keys = |o: &Outcome| -> std::collections::BTreeSet<String> {
            o.variants()
                .iter()
                .map(|va| va.query.canonical_key())
                .collect()
        };
        assert_eq!(keys(&best), keys(&bfs));
    }

    #[test]
    fn parallel_matches_sequential_on_scope_reduction() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        assert_outcomes_identical(&q, &scope_ctx(), &SearchConfig::default());
    }

    #[test]
    fn parallel_matches_sequential_on_view_fold() {
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
            ],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![]), vec![view], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("W")],
            vec![
                Literal::pos("student", vec![v("X"), v("Name")]),
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
                Literal::cmp(v("Name"), CmpOp::Eq, Term::str("james")),
            ],
        );
        assert_outcomes_identical(&q, &ctx, &SearchConfig::default());
    }

    #[test]
    fn parallel_matches_sequential_under_tight_budgets() {
        // A wide frontier (many restriction residues) with tight variant
        // and expansion bounds exercises the budget-ordering guarantees.
        let mut ics = Vec::new();
        for i in 0..8 {
            ics.push(Constraint::named(
                format!("R{i}"),
                ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Gt, Term::int(i))),
                vec![Literal::pos("p", vec![v("X"), v("A")])],
            ));
        }
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("X")],
            vec![Literal::pos("p", vec![v("X"), v("A")])],
        );
        for (max_variants, max_expansions) in [(5, 3), (64, 96), (2, 1), (16, 7)] {
            let cfg = SearchConfig {
                max_variants,
                max_expansions,
                ..Default::default()
            };
            assert_outcomes_identical(&q, &ctx, &cfg);
        }
    }

    #[test]
    fn dedup_modes_produce_identical_variants() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let ctx = scope_ctx();
        let fp = optimize(&q, &ctx, &SearchConfig::default());
        let key = optimize(
            &q,
            &ctx,
            &SearchConfig {
                dedup: DedupMode::CanonicalKey,
                ..Default::default()
            },
        );
        let (Outcome::Equivalents(a), Outcome::Equivalents(b)) = (&fp, &key) else {
            panic!("both satisfiable");
        };
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.query, y.query);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_contradiction() {
        let ic = Constraint::named(
            "IC1",
            ConstraintHead::Cmp(Comparison::new(v("S"), CmpOp::Gt, Term::int(40000))),
            vec![Literal::pos("faculty", vec![v("O"), v("S")])],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("O")],
            vec![
                Literal::pos("faculty", vec![v("O"), v("Sal")]),
                Literal::cmp(v("Sal"), CmpOp::Lt, Term::int(20000)),
            ],
        );
        assert_outcomes_identical(&q, &ctx, &SearchConfig::default());
    }

    #[test]
    fn delta_detects_replacement() {
        let q1 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![v("X")]),
                Literal::cmp(v("X"), CmpOp::Eq, v("Y")),
            ],
        );
        let q2 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![v("X")]),
                Literal::cmp(v("X"), CmpOp::Lt, v("Y")),
            ],
        );
        let d = delta(&q1, &q2);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
        // Orientation-insensitive match keeps flipped comparisons equal.
        let q3 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![v("X")]),
                Literal::cmp(v("Y"), CmpOp::Eq, v("X")),
            ],
        );
        assert!(delta(&q1, &q3).is_empty());
    }
}
