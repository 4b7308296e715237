//! Step 3 proper: the search for semantically equivalent queries.
//!
//! The paper (Section 4.1) notes that Step 3 is exponential in the number
//! of integrity constraints applicable to a query and that heuristics must
//! guide the transformation process so "only promising transformations are
//! generated". This module is that search ([`optimize`]): a
//! level-by-level queue over query variants, deduplicated by an exact
//! [`SubsumptionIndex`], bounded by [`SearchConfig`] and exploring join
//! introduction only where a registered view can use it. Residue
//! matching is memoized per query structure on the [`TransformContext`],
//! so it is shared by every search on that context.

use crate::atom::Literal;
use crate::clause::Query;
use crate::subsume::SubsumptionIndex;
pub use crate::transform::Step;
use crate::transform::{analyse, apply, Analysis, Op, TransformContext};
use sqo_obs as obs;
use std::sync::Arc;

/// Bounds on the equivalent-query search.
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
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_depth: 4,
            max_variants: 64,
            max_expansions: 96,
        }
    }
}

/// Whether the search explores a candidate. Every class is explored but
/// join introduction (`AddAtom`), which only introduces atoms whose
/// predicate occurs in a registered view definition (head or body).
/// Unrestricted join introduction adds every implied atom (inverse
/// relationships, superclass memberships, …) and blows up the search
/// space without enabling anything — exactly the explosion Section 4.1
/// warns about; the view-relevant ones are what the paper's IC9/ASR
/// fold (Application 4) needs.
fn explored(op: &Op, ctx: &TransformContext) -> bool {
    let Op::AddAtom(a) = op else {
        return true;
    };
    ctx.chase.views.iter().any(|v| {
        v.head.pred == a.pred
            || v.body
                .iter()
                .any(|l| l.pred().is_some_and(|p| *p == a.pred))
    })
}

impl SearchConfig {
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
        (Literal::Cmp(x), Literal::Cmp(y)) => x.same_as(y),
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
        ic_name: Option<Arc<str>>,
        /// Human-readable explanation.
        note: Arc<str>,
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
/// The search works through its queue level by level (a level is every
/// variant at one derivation depth, in discovery order). Each node is
/// analysed on the calling thread against the context's structure memo
/// ([`analyse`]). The candidate list is asked for only while a child
/// could still be admitted — below the depth bound and with room in the
/// variant budget, which the never-shrinking [`SubsumptionIndex`] cannot
/// give back; otherwise the node gets the contradiction probe alone.
/// Children merge through the index (canonical-hash-bucketed, exact on
/// collision — no false dedup from a 64-bit fingerprint). Nodes beyond
/// the expansion budget pass through unanalysed, in discovery order:
/// sound, because every queued node is an already-proven equivalent.
///
/// The outcome depends on the query, the context and `cfg` alone — never
/// on what earlier searches left in the memo.
pub fn optimize(q: &Query, ctx: &TransformContext, cfg: &SearchConfig) -> Outcome {
    let _span = obs::span!("step3.search");
    let mut variants: Vec<Variant> = Vec::new();
    let mut index = SubsumptionIndex::new();
    let mut expansions = 0usize;
    let mut frontier_peak = 1usize;

    index.insert(q);
    let mut level = vec![Variant {
        query: q.clone(),
        steps: Vec::new(),
    }];

    while !level.is_empty() {
        let analysed = cfg
            .max_expansions
            .saturating_sub(expansions)
            .min(level.len());
        expansions += analysed;
        obs::bump(obs::Counter::SearchLevels);
        obs::add(obs::Counter::SearchNodesExpanded, analysed as u64);
        let mut next_level: Vec<Variant> = Vec::new();
        for (i, node) in level.into_iter().enumerate() {
            if i >= analysed {
                variants.push(node);
                continue;
            }
            let enumerate = node.steps.len() < cfg.max_depth && index.len() <= cfg.max_variants;
            match analyse(&node.query, ctx, enumerate) {
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
                        if !explored(&cand.op, ctx) {
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
                        steps.push(cand);
                        next_level.push(Variant { query: next, steps });
                    }
                    variants.push(node);
                }
            }
        }
        frontier_peak = frontier_peak.max(next_level.len());
        level = next_level;
    }

    obs::add(obs::Counter::SearchFrontierPeak, frontier_peak as u64);
    note_budget(cfg, &variants, expansions, index.len());
    Outcome::Equivalents(variants)
}

/// Bump `search.budget_exhausted` when a finished search was bounded by
/// a budget rather than by running out of transformations: a variant
/// sits at the depth bound, some passed through unanalysed (`expanded`
/// falls short of their number), or a child was refused because the
/// index had outgrown the variant budget (`distinct`).
/// Conservative: a bounded search *may* have had nothing more to find.
fn note_budget(cfg: &SearchConfig, variants: &[Variant], expanded: usize, distinct: usize) {
    if variants.iter().any(|v| v.steps.len() >= cfg.max_depth)
        || expanded < variants.len()
        || distinct > cfg.max_variants
    {
        obs::bump(obs::Counter::SearchBudgetExhausted);
    }
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

    /// Run one search inside a request trace and return the outcome with
    /// the counters *this thread* bumped during `step3.search` — exact
    /// even while other tests in the binary run their own searches.
    fn traced(
        q: &Query,
        ctx: &TransformContext,
        cfg: &SearchConfig,
    ) -> (Outcome, BTreeMap<&'static str, u64>) {
        obs::trace_begin("search-test".into());
        let out = optimize(q, ctx, cfg);
        let trace = obs::trace_end().expect("trace was begun on this thread");
        let search = trace
            .events
            .iter()
            .find(|e| e.name == "step3.search")
            .expect("the search span completed inside the trace");
        (out, search.counters.iter().copied().collect())
    }

    #[test]
    fn budget_grid_bounds_order_and_accounting() {
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
        // Counters a warm structure memo cannot move.
        const PINNED: [&str; 7] = [
            "search.levels",
            "search.nodes_expanded",
            "search.nodes_pruned",
            "search.dedup_hits",
            "search.subsumed_pruned",
            "search.frontier_peak",
            "search.budget_exhausted",
        ];
        for (max_variants, max_expansions) in [(5, 3), (64, 96), (2, 1), (16, 7)] {
            let cfg = SearchConfig {
                max_variants,
                max_expansions,
                ..Default::default()
            };
            let (out, counters) = traced(&q, &ctx, &cfg);
            let count = |name: &str| counters.get(name).copied().unwrap_or(0);
            let variants = out.variants();
            let cell = format!("({max_variants}, {max_expansions})");

            assert_eq!(variants[0].query, q, "{cell}");
            assert!(variants[0].steps.is_empty(), "{cell}");
            assert!(variants.len() <= max_variants, "{cell}");
            let expanded = count("search.nodes_expanded") as usize;
            assert_eq!(expanded, max_expansions.min(variants.len()), "{cell}");

            // Discovery order, for analysed and passed-through nodes
            // alike: depth never decreases, and same-depth nodes keep
            // the order of their parents.
            let ops = |va: &Variant| va.steps.iter().map(|s| s.op.clone()).collect::<Vec<_>>();
            let parent_of = |va: &Variant| {
                let path = ops(va);
                variants
                    .iter()
                    .position(|p| ops(p)[..] == path[..path.len() - 1])
                    .expect("every derived variant's parent is a variant")
            };
            for pair in variants[1..].windows(2) {
                assert!(pair[0].steps.len() <= pair[1].steps.len(), "{cell}");
                if pair[0].steps.len() == pair[1].steps.len() {
                    assert!(parent_of(&pair[0]) <= parent_of(&pair[1]), "{cell}");
                }
            }

            let at_depth_bound = variants.iter().any(|va| va.steps.len() >= cfg.max_depth);
            let passed_through = expanded < variants.len();
            let child_refused = count("search.nodes_pruned") > count("search.dedup_hits");
            assert_eq!(
                count("search.budget_exhausted"),
                u64::from(at_depth_bound || passed_through || child_refused),
                "{cell}"
            );

            let (again, counters_again) = traced(&q, &ctx, &cfg);
            assert_eq!(format!("{out:?}"), format!("{again:?}"), "{cell}");
            for name in PINNED {
                assert_eq!(
                    count(name),
                    counters_again.get(name).copied().unwrap_or(0),
                    "{cell} {name}"
                );
            }
        }

        // One cell spelled out: the root's first four children fill the
        // variant budget, the expansion budget covers the root and two of
        // them, and the other two come back unanalysed, still in order.
        let cfg = SearchConfig {
            max_variants: 5,
            max_expansions: 3,
            ..Default::default()
        };
        let (out, counters) = traced(&q, &ctx, &cfg);
        let names: Vec<Option<&str>> = out
            .variants()
            .iter()
            .map(|va| va.steps.last().and_then(|s| s.ic_name.as_deref()))
            .collect();
        assert_eq!(
            names,
            [None, Some("R0"), Some("R1"), Some("R2"), Some("R3")]
        );
        assert_eq!(counters["search.nodes_expanded"], 3);
        assert_eq!(counters["search.levels"], 2);
        assert_eq!(counters["search.budget_exhausted"], 1);
    }

    #[test]
    fn unbounded_search_does_not_report_an_exhausted_budget() {
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let (out, counters) = traced(&q, &scope_ctx(), &SearchConfig::default());
        assert!(out.variants().len() >= 2);
        assert!(!counters.contains_key("search.budget_exhausted"));
    }

    #[test]
    fn search_counters_fire() {
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
