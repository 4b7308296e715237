//! The semantic optimizer facade: the full pipeline of Figure 2.
//!
//! ```text
//!  ODL schema ──(Step 1)──► Datalog relations + ICs ─┐
//!                                                    ▼ (semantic
//!  application ICs ────────────────────────────► residues  compilation)
//!                                                    │
//!  OQL query ──(Step 2)──► Datalog query ──(Step 3)──┤ SQO: equivalent
//!                                                    ▼ queries/contradiction
//!  optimized OQL ◄──(Step 4: DATALOG_to_OQL)── literal deltas
//! ```
//!
//! Steps 1–2 and 4 are linear; Step 3 is the exponential search, bounded
//! by the default [`SearchConfig`] (Section 4.1).

use crate::error::Result;
use sqo_datalog::residue::{CompileOptions, ResidueSet};
use sqo_datalog::search::{self, Delta, Outcome, SearchConfig, Step};
use sqo_datalog::transform::TransformContext;
use sqo_datalog::{parser as dl_parser, Constraint, Query, Rule};
use sqo_obs as obs;
use sqo_odl::Schema;
use sqo_oql::SelectQuery;
use sqo_translate::{apply_delta, translate_query, translate_schema, Catalog, QueryTranslation};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// One semantically equivalent query, in both representations.
#[derive(Debug, Clone)]
pub struct EquivalentQuery {
    /// The Datalog form.
    pub datalog: Query,
    /// The literal-level difference from the original Datalog query.
    pub delta: Delta,
    /// The transformation steps that produced it.
    pub steps: Vec<Step>,
    /// The OQL form (Step 4 output).
    pub oql: SelectQuery,
    /// Edits that could not be applied at the OQL level.
    pub oql_warnings: Vec<String>,
}

impl EquivalentQuery {
    /// The derivation chain: which residue, source IC, and transformation
    /// kind produced each step. The unchanged original carries the synthetic
    /// `original` chain, so the provenance is never empty.
    pub fn provenance(&self) -> obs::Provenance {
        obs::Provenance::from_steps(self.steps.iter().map(Step::provenance).collect())
    }
}

/// The outcome of optimizing one OQL query.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The query can never return answers; skip evaluation entirely.
    Contradiction {
        /// The justifying constraint, if known.
        ic_name: Option<Arc<str>>,
        /// Human-readable explanation.
        note: Arc<str>,
        /// Transformation steps applied before the contradiction surfaced
        /// (empty when the original query is already contradictory).
        steps: Vec<Step>,
    },
    /// The semantically equivalent queries (original first).
    Equivalents(Vec<EquivalentQuery>),
}

/// What a finished optimization keeps besides its verdict, so a repeat
/// of the same query re-derives neither: the written explain body
/// (everything of [`OptimizationReport::write_json`] before the
/// per-request `stats`) and the chosen physical plan. Shared between a
/// plan-cache instance and every report served from it; each part is
/// filled by the first caller that asks for it.
#[derive(Debug, Default)]
pub(crate) struct Finished {
    /// The body as [`OptimizationReport::write_json`] writes it.
    body: OnceLock<Box<str>>,
    /// The cheapest equivalent as last priced.
    plan: Mutex<Option<ChosenPlan>>,
}

/// A plan choice and the object-base state it was priced against: any
/// mutation moves [`sqo_objdb::ObjectDb::generation`] and forces one
/// re-pricing, a read-only base never re-prices.
#[derive(Debug)]
struct ChosenPlan {
    generation: u64,
    index: usize,
    costs: Vec<f64>,
}

/// The full report of one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// The query as parsed.
    pub original: SelectQuery,
    /// The normalized (one-dot) form actually translated.
    pub normalized: SelectQuery,
    /// The Step 2 Datalog translation.
    pub datalog: Query,
    /// The Step 3/4 outcome (shared with the plan cache on a warm hit).
    pub verdict: Arc<Verdict>,
    /// What this one optimization run counted and which spans it
    /// completed, on the thread that ran it (an [`obs::Scope`] around the
    /// pipeline): work other threads did meanwhile is not in it.
    pub stats: obs::Snapshot,
    /// The plan-cache instance's memo, when the report was served from
    /// (or filled) one; `None` renders and prices on every call.
    pub(crate) finished: Option<Arc<Finished>>,
}

impl OptimizationReport {
    /// The report of an optimization no plan-cache instance stands
    /// behind: it owns what it says, and renders and prices on demand.
    pub(crate) fn fresh(
        original: &SelectQuery,
        translation: QueryTranslation,
        verdict: Arc<Verdict>,
        stats: obs::Snapshot,
    ) -> OptimizationReport {
        OptimizationReport {
            original: original.clone(),
            normalized: translation.normalized,
            datalog: translation.query,
            verdict,
            stats,
            finished: None,
        }
    }

    /// Whether SQO proved the query unsatisfiable.
    pub fn is_contradiction(&self) -> bool {
        matches!(*self.verdict, Verdict::Contradiction { .. })
    }

    /// The equivalent queries (empty on contradiction).
    pub fn equivalents(&self) -> &[EquivalentQuery] {
        match &*self.verdict {
            Verdict::Contradiction { .. } => &[],
            Verdict::Equivalents(v) => v,
        }
    }

    /// Equivalents other than the unchanged original.
    pub fn proper_rewrites(&self) -> impl Iterator<Item = &EquivalentQuery> {
        self.equivalents().iter().filter(|e| !e.delta.is_empty())
    }

    /// Pick the cheapest equivalent against a concrete object base, using
    /// the index-aware cost model: the winning equivalent, its index, and
    /// the per-candidate estimates (empty on contradiction). A report
    /// served through a [`crate::PlanCache`] hit remembers the choice
    /// with the cache instance, tagged with `db.generation()`: repeats of
    /// the query against an unchanged base skip the pricing, and any
    /// mutation re-prices once. The tag is the generation alone, so one
    /// plan cache is meant to serve one object base, as a session does.
    pub fn best_plan<'a>(
        &'a self,
        db: &sqo_objdb::ObjectDb,
    ) -> Option<(usize, &'a EquivalentQuery, Vec<f64>)> {
        let eqs = self.equivalents();
        if eqs.is_empty() {
            return None;
        }
        let generation = db.generation();
        // Held across the pricing, so concurrent repeats after a write
        // price once between them.
        let mut memo = self.finished.as_ref().and_then(|f| f.plan.lock().ok());
        if let Some(Some(p)) = memo.as_deref() {
            if p.generation == generation {
                return Some((p.index, &eqs[p.index], p.costs.clone()));
            }
        }
        let queries: Vec<&Query> = eqs.iter().map(|e| &e.datalog).collect();
        let (index, costs) = sqo_objdb::choose_best(db, &queries);
        if let Some(slot) = memo.as_deref_mut() {
            *slot = Some(ChosenPlan {
                generation,
                index,
                costs: costs.clone(),
            });
        }
        Some((index, &eqs[index], costs))
    }

    /// The refutation chain when the verdict is a contradiction: the
    /// transformation steps leading to the refuted variant, closed by a
    /// `contradiction` step naming the refuting IC.
    pub fn contradiction_provenance(&self) -> Option<obs::Provenance> {
        let Verdict::Contradiction {
            ic_name,
            note,
            steps,
        } = &*self.verdict
        else {
            return None;
        };
        let mut chain: Vec<obs::ProvenanceStep> = steps.iter().map(Step::provenance).collect();
        chain.push(obs::ProvenanceStep {
            kind: "contradiction",
            residue: None,
            ic: ic_name.as_deref().map(str::to_owned),
            detail: note.to_string(),
        });
        Some(obs::Provenance { steps: chain })
    }

    /// Human-readable account of the run: the verdict, each equivalent
    /// query with its provenance chain, and the per-run counters/spans.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("query: {}\n", self.original));
        out.push_str(&format!("datalog: {}\n", self.datalog));
        match &*self.verdict {
            Verdict::Contradiction { .. } => {
                out.push_str("verdict: contradiction (query can return no answers)\n");
                if let Some(p) = self.contradiction_provenance() {
                    out.push_str(&format!("{p}\n"));
                }
            }
            Verdict::Equivalents(eqs) => {
                out.push_str(&format!("verdict: {} equivalent quer{}\n", eqs.len(), {
                    if eqs.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                }));
                for (i, e) in eqs.iter().enumerate() {
                    out.push_str(&format!("--- equivalent {} ---\n", i + 1));
                    out.push_str(&format!("oql: {}\n", e.oql));
                    out.push_str(&format!("datalog: {}\n", e.datalog));
                    out.push_str(&format!("provenance:\n{}\n", e.provenance()));
                    for w in &e.oql_warnings {
                        out.push_str(&format!("warning: {w}\n"));
                    }
                }
            }
        }
        out.push_str(&self.stats.to_text());
        out
    }

    /// The machine-readable account of the run: [`Self::write_json`]'s line.
    pub fn explain_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the report to `out` as one compact JSON object.
    ///
    /// Top-level keys: `query`, `datalog`, `verdict`, then either
    /// `contradiction` (object with `ic`, `note`, `provenance`) or
    /// `equivalents` (array of objects with `oql`, `datalog`, `changed`,
    /// `warnings`, `provenance`), then `stats` (the [`obs::Snapshot`]).
    /// Everything before `stats` is a pure function of the parsed query
    /// and the verdict, so a report with a plan-cache instance writes it
    /// once and copies it from then on.
    pub fn write_json(&self, out: &mut String) {
        match &self.finished {
            Some(f) => out.push_str(f.body.get_or_init(|| {
                let mut body = String::new();
                self.write_body(&mut body);
                body.into()
            })),
            None => self.write_body(out),
        }
        out.push_str("\"stats\":");
        self.stats.write_json(out);
        out.push('}');
    }

    /// Everything of [`Self::write_json`] up to the `stats` key.
    fn write_body(&self, out: &mut String) {
        out.push_str("{\"query\":");
        push_display(out, &self.original);
        out.push_str(",\"datalog\":");
        push_display(out, &self.datalog);
        match &*self.verdict {
            Verdict::Contradiction {
                ic_name,
                note,
                steps,
            } => {
                out.push_str(",\"verdict\":\"contradiction\",\"contradiction\":{\"ic\":");
                push_opt(out, ic_name.as_deref());
                out.push_str(",\"note\":");
                obs::push_json_string(out, note);
                out.push_str(",\"provenance\":");
                let refuted = ("contradiction", None, ic_name.as_deref(), &**note);
                push_chain(out, steps.iter().map(record).chain([refuted]));
                out.push_str("},");
            }
            Verdict::Equivalents(eqs) => {
                let original = obs::ProvenanceStep::original();
                out.push_str(",\"verdict\":\"equivalents\",\"equivalents\":[");
                for (i, e) in eqs.iter().enumerate() {
                    out.push_str(if i > 0 { ",{\"oql\":" } else { "{\"oql\":" });
                    push_display(out, &e.oql);
                    out.push_str(",\"datalog\":");
                    push_display(out, &e.datalog);
                    let _ = write!(out, ",\"changed\":{},\"warnings\":[", !e.delta.is_empty());
                    for (j, w) in e.oql_warnings.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        obs::push_json_string(out, w);
                    }
                    out.push_str("],\"provenance\":");
                    if e.steps.is_empty() {
                        push_chain(out, [(original.kind, None, None, &*original.detail)]);
                    } else {
                        push_chain(out, e.steps.iter().map(record));
                    }
                    out.push('}');
                }
                out.push_str("],");
            }
        }
    }
}

/// Appends `v` as a JSON string literal, escaped while it is formatted.
fn push_display(out: &mut String, v: &impl std::fmt::Display) {
    out.push('"');
    let _ = write!(obs::JsonEscape(out), "{v}");
    out.push('"');
}

/// Appends `s` as a JSON string literal, or `null`.
fn push_opt(out: &mut String, s: Option<&str>) {
    match s {
        Some(s) => obs::push_json_string(out, s),
        None => out.push_str("null"),
    }
}

/// One [`obs::ProvenanceStep`], borrowed: kind, residue, IC, detail.
type Record<'a> = (&'a str, Option<&'a str>, Option<&'a str>, &'a str);

/// A search step as its provenance record ([`Step::provenance`]).
fn record(s: &Step) -> Record<'_> {
    let (residue, ic) = (s.residue.as_deref(), s.ic_name.as_deref());
    (s.op.kind(), residue, ic, &s.note)
}

/// Appends a provenance chain as a JSON array of step objects.
fn push_chain<'a>(out: &mut String, chain: impl IntoIterator<Item = Record<'a>>) {
    out.push('[');
    for (i, (kind, residue, ic, detail)) in chain.into_iter().enumerate() {
        out.push_str(if i > 0 { ",{\"kind\":" } else { "{\"kind\":" });
        obs::push_json_string(out, kind);
        out.push_str(",\"residue\":");
        push_opt(out, residue);
        out.push_str(",\"ic\":");
        push_opt(out, ic);
        out.push_str(",\"detail\":");
        obs::push_json_string(out, detail);
        out.push('}');
    }
    out.push(']');
}

/// The result of optimizing a `union` query: one report per branch.
#[derive(Debug, Clone)]
pub struct UnionReport {
    /// Per-branch optimization reports, in source order.
    pub branches: Vec<OptimizationReport>,
}

impl UnionReport {
    /// Branches SQO proved empty (they can be dropped from evaluation).
    pub fn pruned(&self) -> impl Iterator<Item = &OptimizationReport> {
        self.branches.iter().filter(|b| b.is_contradiction())
    }

    /// The surviving branches.
    pub fn surviving(&self) -> impl Iterator<Item = &OptimizationReport> {
        self.branches.iter().filter(|b| !b.is_contradiction())
    }

    /// Whether the whole union is provably empty.
    pub fn is_empty_union(&self) -> bool {
        self.branches.iter().all(|b| b.is_contradiction())
    }

    /// Contradiction provenance for every pruned branch: the branch index
    /// (source order), the refuting IC when known, and the full refutation
    /// chain — so a caller can answer "why was this branch dropped?".
    pub fn pruned_provenance(&self) -> Vec<(usize, Option<String>, obs::Provenance)> {
        self.branches
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let Verdict::Contradiction { ic_name, .. } = &*b.verdict else {
                    return None;
                };
                let ic_name = ic_name.as_deref().map(str::to_owned);
                Some((i, ic_name, b.contradiction_provenance()?))
            })
            .collect()
    }
}

/// The semantic query optimizer: owns the schema, its Step 1 translation,
/// application-specific constraints, views, and the compiled residues.
pub struct SemanticOptimizer {
    schema: Schema,
    catalog: Catalog,
    user_constraints: Vec<Constraint>,
    views: Vec<Rule>,
    compile_options: CompileOptions,
    /// Compiled transform context (rebuilt lazily after changes).
    ctx: Option<TransformContext>,
}

impl SemanticOptimizer {
    /// Create an optimizer for a schema (runs Step 1).
    pub fn new(schema: Schema) -> Self {
        let catalog = translate_schema(&schema);
        SemanticOptimizer {
            schema,
            catalog,
            user_constraints: Vec::new(),
            views: Vec::new(),
            compile_options: CompileOptions::default(),
            ctx: None,
        }
    }

    /// Create an optimizer from ODL source text.
    pub fn from_odl(src: &str) -> Result<Self> {
        Ok(SemanticOptimizer::new(Schema::parse(src)?))
    }

    /// An optimizer over the paper's Figure 1 university schema.
    pub fn university() -> Self {
        SemanticOptimizer::new(sqo_odl::fixtures::university_schema())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The Step 1 catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All integrity constraints: schema-derived plus user-supplied.
    pub fn constraints(&self) -> Vec<Constraint> {
        let mut out = self.catalog.constraints.clone();
        out.extend(self.user_constraints.iter().cloned());
        out
    }

    /// Add an application-specific integrity constraint (the ODMG-93
    /// extension the paper argues for).
    pub fn add_constraint(&mut self, ic: Constraint) {
        self.user_constraints.push(ic);
        self.ctx = None;
    }

    /// Parse and add a constraint, e.g.
    /// `"ic IC1: Salary > 40000 <- faculty(OID, Salary)"`. Attribute
    /// positions refer to the Step 1 relations (full arity) — use
    /// [`Self::catalog`] to inspect them.
    pub fn add_constraint_text(&mut self, src: &str) -> Result<()> {
        let ic = dl_parser::parse_constraint(src)?;
        self.add_constraint(ic);
        Ok(())
    }

    /// Register an access-support-relation view definition; its head
    /// predicate becomes available for folding and for Step 4 output.
    /// If the head name collides with an existing class/relationship
    /// relation, the view is registered under a qualified name and the
    /// rule's head is renamed accordingly.
    pub fn add_view(&mut self, mut rule: Rule) {
        let pred = self
            .catalog
            .register_view(rule.head.pred.name(), rule.head.arity());
        rule.head.pred = pred;
        self.views.push(rule);
        self.ctx = None;
    }

    /// Parse and register a view, e.g.
    /// `"asr(X, W) <- takes(X, Y), has_ta(Y, W)"`.
    pub fn add_view_text(&mut self, src: &str) -> Result<()> {
        let rule = dl_parser::parse_rule(src)?;
        self.add_view(rule);
        Ok(())
    }

    /// Tune semantic compilation (IC derivation).
    pub fn set_compile_options(&mut self, opts: CompileOptions) {
        self.compile_options = opts;
        self.ctx = None;
    }

    /// Run (or reuse) semantic compilation: residues attached to
    /// relations, chase context assembled.
    pub fn compile(&mut self) -> &TransformContext {
        if self.ctx.is_none() {
            let _span = obs::span!("step1.compile");
            let residues = ResidueSet::compile_with(self.constraints(), &self.compile_options);
            self.ctx = Some(TransformContext::new(
                residues,
                self.views.clone(),
                self.catalog.functional.clone(),
            ));
        }
        self.ctx.as_ref().expect("just compiled")
    }

    /// Number of compiled residues (after derivation).
    pub fn residue_count(&mut self) -> usize {
        self.compile().residues.len()
    }

    /// Translate an OQL query (Step 2) without optimizing.
    pub fn translate(&self, oql: &SelectQuery) -> Result<QueryTranslation> {
        Ok(translate_query(oql, &self.schema, &self.catalog)?)
    }

    /// Optimize an OQL query through the full pipeline.
    pub fn optimize(&mut self, oql_src: &str) -> Result<OptimizationReport> {
        let original = sqo_oql::parse_oql(oql_src)?;
        self.optimize_query(&original)
    }

    /// Optimize a parsed OQL query through the full pipeline.
    pub fn optimize_query(&mut self, original: &SelectQuery) -> Result<OptimizationReport> {
        let _span = obs::span!("pipeline.optimize");
        let scope = obs::Scope::enter();
        obs::bump(obs::Counter::OptimizerQueries);
        let translation = self.translate(original)?;
        let ctx = self.compile();
        let outcome = search::optimize(&translation.query, ctx, &SearchConfig::default());
        let verdict = outcome_to_verdict(outcome, &translation, &self.catalog)?;
        Ok(OptimizationReport::fresh(
            original,
            translation,
            Arc::new(verdict),
            scope.finish(),
        ))
    }

    /// Optimize a top-level `union` of select-from-where queries.
    /// Each branch is optimized independently; branches proved
    /// contradictory are *pruned* (they contribute no answers), which is
    /// the set-expression payoff Section 4.3 alludes to.
    pub fn optimize_union(&mut self, src: &str) -> Result<UnionReport> {
        let branches = sqo_oql::parse_oql_union(src)?;
        let mut reports = Vec::with_capacity(branches.len());
        for b in &branches {
            reports.push(self.optimize_query(b)?);
        }
        Ok(UnionReport { branches: reports })
    }

    /// Optimize a raw Datalog query (skipping Steps 2/4) — useful for
    /// experiments phrased directly in the Datalog representation, like
    /// the paper's Example 1.
    pub fn optimize_datalog(&mut self, q: &Query) -> Outcome {
        search::optimize(q, self.compile(), &SearchConfig::default())
    }

    /// Freeze this optimizer into an immutable, shareable
    /// [`crate::prepared::PreparedOptimizer`]: Step-1 translation and
    /// residue compilation run once here and are reused for every query
    /// optimized through the prepared instance.
    pub fn prepare(self) -> crate::prepared::PreparedOptimizer {
        crate::prepared::PreparedOptimizer::new(self)
    }

    /// Decompose into the pieces a prepared optimizer keeps, compiling
    /// first so the transform context is guaranteed present.
    pub(crate) fn into_parts(mut self) -> (Schema, Catalog, TransformContext) {
        self.compile();
        let ctx = self.ctx.take().expect("just compiled");
        (self.schema, self.catalog, ctx)
    }
}

/// Steps 3½–4 epilogue shared by [`SemanticOptimizer`] and
/// [`crate::prepared::PreparedOptimizer`]: turn a search outcome into a
/// verdict, back-translating every surviving variant to OQL.
pub(crate) fn outcome_to_verdict(
    outcome: Outcome,
    translation: &QueryTranslation,
    catalog: &Catalog,
) -> Result<Verdict> {
    let verdict = match outcome {
        Outcome::Contradiction {
            ic_name,
            note,
            steps,
        } => Verdict::Contradiction {
            ic_name,
            note,
            steps,
        },
        Outcome::Equivalents(variants) => {
            let mut out = Vec::with_capacity(variants.len());
            for v in variants {
                let delta = search::delta(&translation.query, &v.query);
                let edit = apply_delta(&translation.normalized, &translation.map, catalog, &delta)?;
                out.push(EquivalentQuery {
                    datalog: v.query,
                    delta,
                    steps: v.steps,
                    oql: edit.query,
                    oql_warnings: edit.warnings,
                });
            }
            Verdict::Equivalents(out)
        }
    };
    count_verdict(&verdict);
    Ok(verdict)
}

/// Counts one optimization's verdict into `optimizer.contradictions` or
/// `optimizer.rewrites`, whether it was just derived or is served again
/// from a plan-cache instance.
pub(crate) fn count_verdict(verdict: &Verdict) {
    match verdict {
        Verdict::Contradiction { .. } => obs::bump(obs::Counter::OptimizerContradictions),
        Verdict::Equivalents(eqs) => obs::add(
            obs::Counter::OptimizerRewrites,
            eqs.iter().filter(|e| !e.delta.is_empty()).count() as u64,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_datalog::Literal;

    /// Example 1 of the paper, end to end at the Datalog level.
    #[test]
    fn example1_relational_contradiction() {
        let mut opt =
            SemanticOptimizer::from_odl("interface StudentR { attribute string name; };").unwrap();
        // Stand-alone relational setting: declare the IC directly.
        opt.add_constraint_text("ic: Age > 30 <- faculty(Sec, Fac, Age).")
            .unwrap();
        let q = dl_parser::parse_query(
            "Q(Name) <- student(St, Name), takes_section(St, Sec), \
             faculty(Sec, Fac, Age), Age < 18",
        )
        .unwrap();
        assert!(opt.optimize_datalog(&q).is_contradiction());
    }

    /// Application 1: the method-monotonicity consequence IC3 makes the
    /// Example 2 query contradictory.
    #[test]
    fn application1_contradiction_via_method_ic() {
        let mut opt = SemanticOptimizer::university();
        // IC3: Value > 3000 <- taxes_withheld(OID, 10%, Value), faculty(OID, ...).
        opt.add_constraint_text(
            "ic IC3: Value > 3000 <- taxes_withheld(OID, 0.1, Value), \
             faculty(OID, N, A, S, R, Ad).",
        )
        .unwrap();
        let report = opt
            .optimize(
                r#"select z.name, w.city
                   from x in Student
                        y in x.takes
                        z in y.is_taught_by
                        w in z.address
                   where x.name = "john" and z.taxes_withheld(10%) < 1000"#,
            )
            .unwrap();
        assert!(report.is_contradiction(), "verdict: {:?}", report.verdict);
        if let Verdict::Contradiction { ic_name, .. } = &*report.verdict {
            assert_eq!(ic_name.as_deref(), Some("IC3"));
        }
    }

    /// Application 2 end to end: OQL in, scope-reduced OQL out.
    #[test]
    fn application2_end_to_end() {
        let mut opt = SemanticOptimizer::university();
        // IC4: faculty members are 30 or older (ages sit at position 2).
        opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, Name, Age, S, R, Ad).")
            .unwrap();
        let report = opt
            .optimize("select x.name from x in Person where x.age < 30")
            .unwrap();
        assert!(!report.is_contradiction());
        let reduced = report
            .proper_rewrites()
            .find(|e| {
                e.datalog
                    .body
                    .iter()
                    .any(|l| matches!(l, Literal::Neg(a) if a.pred.name() == "faculty"))
            })
            .expect("scope-reduced variant");
        assert_eq!(
            reduced.oql.to_string(),
            "select x.name\nfrom x in Person,\n     x not in Faculty\nwhere x.age < 30"
        );
        assert!(
            reduced.oql_warnings.is_empty(),
            "{:?}",
            reduced.oql_warnings
        );
    }

    /// Application 3 end to end: the key constraint is generated by
    /// Step 1 (Person.name is a key), so no user IC is needed.
    #[test]
    fn application3_end_to_end() {
        let mut opt = SemanticOptimizer::university();
        let report = opt
            .optimize(
                r#"select list(x.student_id, t.employee_id)
                   from x in Student
                        y in x.takes
                        z in y.is_taught_by
                        t in TA
                        v in t.takes
                        w in v.is_taught_by
                   where z.name = w.name"#,
            )
            .unwrap();
        assert!(!report.is_contradiction());
        // A variant replaces the name join with an OID comparison.
        let rewritten = report
            .proper_rewrites()
            .find(|e| {
                let s = e.oql.to_string();
                s.contains("z = w") && !s.contains("z.name = w.name")
            })
            .unwrap_or_else(|| {
                panic!(
                    "no key-join rewrite among {} variants: {:#?}",
                    report.equivalents().len(),
                    report
                        .equivalents()
                        .iter()
                        .map(|e| e.oql.to_string())
                        .collect::<Vec<_>>()
                )
            });
        // Constructor retained.
        assert!(rewritten
            .oql
            .to_string()
            .contains("list(x.student_id, t.employee_id)"));
    }

    /// Application 4 end to end (the Q case): the ASR fold.
    #[test]
    fn application4_end_to_end() {
        let mut opt = SemanticOptimizer::university();
        opt.add_view_text(
            "asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W)",
        )
        .unwrap();
        let report = opt
            .optimize(
                r#"select w
                   from x in Student
                        y in x.takes
                        z in y.is_section_of
                        v in z.has_sections
                        w in v.has_ta
                   where x.name = "james""#,
            )
            .unwrap();
        let folded = report
            .proper_rewrites()
            .find(|e| {
                e.datalog.positive_atoms().any(|a| a.pred.name() == "asr")
                    && e.datalog.body.len() <= 3
            })
            .expect("folded variant");
        let text = folded.oql.to_string();
        assert!(text.contains("w in x.asr"), "{text}");
        assert!(!text.contains("takes"), "{text}");
    }

    /// The chosen plan rides with the plan-cache instance, tagged with
    /// the object base's generation: a repeat against an unchanged base
    /// reads it back, any write re-prices exactly like a fresh report.
    #[test]
    fn chosen_plan_is_remembered_until_the_object_base_changes() {
        let mut opt = SemanticOptimizer::university();
        opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        let prep = opt.prepare();
        let cache = crate::PlanCache::new();
        let mut db = sqo_objdb::UniversityConfig::default().build().unwrap().db;
        let q = "select x.name from x in Person where x.age < 28";
        prep.optimize_cached(&cache, q).unwrap();
        let (filled, _) = prep.optimize_cached(&cache, q).unwrap();
        let memo = Arc::clone(filled.finished.as_ref().expect("a hit fills an instance"));
        assert!(memo.plan.lock().unwrap().is_none(), "priced on demand");

        let fresh = prep.optimize(q).unwrap();
        let (idx, _, priced_before) = filled.best_plan(&db).unwrap();
        let (fresh_idx, _, fresh_costs) = fresh.best_plan(&db).unwrap();
        assert_eq!((idx, &priced_before), (fresh_idx, &fresh_costs));
        assert_eq!(
            memo.plan.lock().unwrap().as_ref().map(|p| p.generation),
            Some(db.generation())
        );

        // A repeat shares the memo and reads it: a marker planted in the
        // remembered costs comes back instead of a re-pricing.
        let (repeat, _) = prep.optimize_cached(&cache, q).unwrap();
        assert!(Arc::ptr_eq(repeat.finished.as_ref().unwrap(), &memo));
        memo.plan.lock().unwrap().as_mut().unwrap().costs[0] = -1.0;
        assert_eq!(repeat.best_plan(&db).unwrap().2[0], -1.0);

        // A write that changes a selectivity moves the generation: the
        // next repeat prices again, as a fresh report does, and the plan
        // it picks still answers like the untouched original.
        for i in 0..200 {
            db.create(
                "Student",
                vec![("name", format!("young{i}").into()), ("age", 19.into())],
            )
            .unwrap();
        }
        let (repeat, _) = prep.optimize_cached(&cache, q).unwrap();
        let (idx, eq, costs) = repeat.best_plan(&db).unwrap();
        let (fresh_idx, _, fresh_costs) = fresh.best_plan(&db).unwrap();
        assert_eq!((idx, &costs), (fresh_idx, &fresh_costs));
        assert_ne!(costs, priced_before, "200 more students move the estimates");
        let got = sqo_objdb::execute(&db, &eq.datalog).unwrap().0;
        let want = sqo_objdb::execute(&db, &repeat.datalog).unwrap().0;
        let mut got: Vec<_> = got.rows().collect();
        let mut want: Vec<_> = want.rows().collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(
            memo.plan.lock().unwrap().as_ref().map(|p| p.generation),
            Some(db.generation())
        );
    }

    #[test]
    fn no_knowledge_returns_only_original() {
        let mut opt = SemanticOptimizer::university();
        let report = opt.optimize("select x.name from x in Course").unwrap_err();
        // Course has no extent member named name? It has `title`/`number`…
        let _ = report; // UnknownMember
        let mut opt = SemanticOptimizer::university();
        let report = opt.optimize("select x.title from x in Course").unwrap();
        // Key(Course.number) exists but isn't applicable; subclass ICs
        // aren't applicable. Only the original should remain, modulo
        // harmless variants.
        assert!(!report.equivalents().is_empty());
        assert!(report.equivalents()[0].delta.is_empty());
    }

    #[test]
    fn view_name_collision_is_qualified_not_aliased() {
        let mut opt = SemanticOptimizer::university();
        // A view named like the Student class must not alias the class
        // relation.
        opt.add_view_text("student(X, W) <- takes(X, Y), has_ta(Y, W)")
            .unwrap();
        let view_kind = opt
            .catalog()
            .relation_by_pred(&"view_student".into())
            .map(|d| d.kind.clone());
        assert!(
            matches!(view_kind, Some(sqo_translate::RelKind::View { .. })),
            "view registered under a qualified name"
        );
        // The class relation is untouched.
        assert!(matches!(
            opt.catalog()
                .relation_by_pred(&"student".into())
                .map(|d| d.kind.clone()),
            Some(sqo_translate::RelKind::Class { .. })
        ));
        // And the fold machinery uses the qualified predicate.
        let report = opt
            .optimize("select w from x in Student, y in x.takes, w in y.has_ta")
            .unwrap();
        assert!(report.proper_rewrites().any(|e| e
            .datalog
            .positive_atoms()
            .any(|a| a.pred.name() == "view_student")));
    }

    #[test]
    fn union_branch_pruning() {
        let mut opt = SemanticOptimizer::university();
        opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
            .unwrap();
        let report = opt
            .optimize_union(
                "select x.name from x in Faculty where x.age < 20 \
                 union select x.name from x in Student where x.age < 20",
            )
            .unwrap();
        assert_eq!(report.branches.len(), 2);
        assert_eq!(report.pruned().count(), 1, "faculty branch refuted by IC4");
        assert_eq!(report.surviving().count(), 1);
        assert!(!report.is_empty_union());
        // Both branches contradictory ⇒ the whole union is empty.
        let empty = opt
            .optimize_union(
                "select x.name from x in Faculty where x.age < 20 \
                 union select x.name from x in Faculty where x.age < 10",
            )
            .unwrap();
        assert!(empty.is_empty_union());
    }

    #[test]
    fn residue_count_reflects_compilation() {
        let mut opt = SemanticOptimizer::university();
        let base = opt.residue_count();
        assert!(base > 0, "schema ICs compile to residues");
        opt.add_constraint_text("ic: Salary > 40000 <- faculty(X, N, A, Salary, R, Ad).")
            .unwrap();
        assert!(opt.residue_count() > base);
    }
}
