//! The answer-set equivalence oracle.
//!
//! [`run_inputs`] runs one rendered case end to end: it populates a store
//! from the IC-consistent recipe, evaluates the original query to get the
//! baseline answer multiset, then checks that *every* artifact the
//! optimizer can emit agrees with it —
//!
//! * each [`sqo_core::EquivalentQuery`] from the Step-3 search,
//! * a second search on a context an earlier search has warmed (same
//!   verdict, equivalents and steps as the context's first search),
//! * the warm plan-cache path, driven by the case's OQL text as a client
//!   sends it (miss → hit, then two repeats served from the finished
//!   instance that hit filled, decided on the text before anything is
//!   parsed), then a constant-shifted sibling through retargeting,
//! * and a [`sqo_core::Verdict::Contradiction`] only when the baseline is actually
//!   empty — a contradiction verdict over a non-empty answer set is a
//!   soundness bug, not an optimization.
//!
//! Invalid cases (parse/translate errors) are reported as `Err(reason)`
//! so the driver can skip them; the generator should make these rare.

use sqo_core::{CacheOutcome, OptimizationReport, PlanCache, SemanticOptimizer, Verdict};
use sqo_datalog::program::Relation;
use sqo_datalog::term::Const;
use sqo_datalog::Query;
use sqo_objdb::{execute, execute_with, ExecOptions, ObjectDb};
use sqo_odl::Schema;
use sqo_oql::SelectQuery;

use crate::spec::CaseInputs;

/// Summary of a passing case.
#[derive(Debug, Clone, Default)]
pub struct PassInfo {
    /// Rows in the baseline answer set.
    pub baseline_rows: usize,
    /// Equivalent queries checked (0 when the verdict was a
    /// contradiction).
    pub variants: usize,
    /// Whether the verdict was a (validated) contradiction.
    pub contradiction: bool,
}

/// An equivalence violation, with enough detail to triage.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which check failed (`"equivalent"`, `"contradiction"`,
    /// `"warm-context"`, `"cache"`, `"instance"`, `"sibling"`,
    /// `"recovery"`).
    pub path: String,
    /// Human-readable explanation.
    pub detail: String,
}

/// Outcome of running one case through the oracle.
#[derive(Debug, Clone)]
pub enum CaseStatus {
    /// All artifacts agreed with the baseline.
    Pass(PassInfo),
    /// Some artifact disagreed.
    Mismatch(Mismatch),
}

impl CaseStatus {
    /// Whether this is a pass.
    pub fn is_pass(&self) -> bool {
        matches!(self, CaseStatus::Pass(_))
    }
}

/// Why one evaluation could not produce a trusted answer set: the case is
/// invalid (skip it), or the two executors disagreed (a soundness bug).
enum EvalFailure {
    Invalid(String),
    Mismatch(Box<Mismatch>),
}

/// Evaluate `q` under BOTH the indexed and the scan-only executor; the
/// two must agree on the sorted answer set *and* on whether evaluation
/// errors at all (range probes must not suppress incomparable-operand
/// errors). Every oracle evaluation is therefore also an access-path
/// differential test.
fn answers(db: &ObjectDb, q: &Query) -> Result<Vec<Vec<Const>>, EvalFailure> {
    let indexed = execute(db, q);
    let scan = execute_with(db, q, ExecOptions::scan_only());
    match (indexed, scan) {
        (Ok((rows, _)), Ok((scan_rows, _))) => {
            let (rows, scan_rows) = (sorted(&rows), sorted(&scan_rows));
            if rows != scan_rows {
                return Err(EvalFailure::Mismatch(Box::new(Mismatch {
                    path: "index-differential".to_string(),
                    detail: format!(
                        "indexed execution returned {} rows but scan-only returned {} for [{q}]",
                        rows.len(),
                        scan_rows.len()
                    ),
                })));
            }
            Ok(rows)
        }
        (Err(a), Err(_)) => Err(EvalFailure::Invalid(format!("execute: {a}"))),
        (Ok((rows, _)), Err(e)) => Err(EvalFailure::Mismatch(Box::new(Mismatch {
            path: "index-differential".to_string(),
            detail: format!(
                "indexed execution returned {} rows but scan-only errored ({e}) for [{q}]",
                rows.len()
            ),
        }))),
        (Err(e), Ok((rows, _))) => Err(EvalFailure::Mismatch(Box::new(Mismatch {
            path: "index-differential".to_string(),
            detail: format!(
                "scan-only execution returned {} rows but indexed errored ({e}) for [{q}]",
                rows.len()
            ),
        }))),
    }
}

/// An answer relation as a sorted list: what the checks compare.
fn sorted(answers: &Relation) -> Vec<Vec<Const>> {
    let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
    rows.sort();
    rows
}

/// [`answers`] adapted to the `Result<Option<Mismatch>, String>` shape of
/// the report checks: a differential mismatch becomes the early `Some`.
fn answers_or_mismatch(
    db: &ObjectDb,
    q: &Query,
) -> Result<Result<Vec<Vec<Const>>, Mismatch>, String> {
    match answers(db, q) {
        Ok(rows) => Ok(Ok(rows)),
        Err(EvalFailure::Mismatch(m)) => Ok(Err(*m)),
        Err(EvalFailure::Invalid(s)) => Err(s),
    }
}

/// A stable fingerprint of a report's verdict: contradictions by
/// (ic, note), equivalents by their Datalog renderings in order.
fn fingerprint(report: &OptimizationReport) -> String {
    match &*report.verdict {
        Verdict::Contradiction { ic_name, note, .. } => {
            format!("contradiction ic={ic_name:?} note={note}")
        }
        Verdict::Equivalents(eqs) => eqs
            .iter()
            .map(|e| e.datalog.to_string())
            .collect::<Vec<_>>()
            .join("\n"),
    }
}

fn build_optimizer(inputs: &CaseInputs) -> Result<SemanticOptimizer, String> {
    let mut opt = SemanticOptimizer::from_odl(&inputs.odl).map_err(|e| format!("odl: {e}"))?;
    for ic in &inputs.ics {
        opt.add_constraint_text(ic)
            .map_err(|e| format!("ic: {e}"))?;
    }
    Ok(opt)
}

/// Check every equivalent in `report` against `baseline`; on the
/// contradiction verdict, check the baseline is empty instead.
fn check_report(
    db: &ObjectDb,
    report: &OptimizationReport,
    baseline: &[Vec<Const>],
    path: &str,
) -> Result<Option<Mismatch>, String> {
    match &*report.verdict {
        Verdict::Contradiction { ic_name, note, .. } => {
            if !baseline.is_empty() {
                return Ok(Some(Mismatch {
                    path: "contradiction".to_string(),
                    detail: format!(
                        "{path}: verdict Contradiction (ic={ic_name:?}, note={note}) but the \
                         store returns {} answer rows",
                        baseline.len()
                    ),
                }));
            }
            Ok(None)
        }
        Verdict::Equivalents(eqs) => {
            for (i, eq) in eqs.iter().enumerate() {
                let rows = match answers_or_mismatch(db, &eq.datalog)? {
                    Ok(rows) => rows,
                    Err(m) => return Ok(Some(m)),
                };
                if rows != baseline {
                    return Ok(Some(Mismatch {
                        path: path.to_string(),
                        detail: format!(
                            "{path}: equivalent #{i} [{}] returned {} rows vs baseline {} \
                             (steps: {})",
                            eq.datalog,
                            rows.len(),
                            baseline.len(),
                            eq.steps
                                .iter()
                                .map(|s| s.op.to_string())
                                .collect::<Vec<_>>()
                                .join(", "),
                        ),
                    }));
                }
            }
            Ok(None)
        }
    }
}

/// Everything a report says besides its per-request `stats`: verdict,
/// and per equivalent the OQL and Datalog text, warnings and provenance.
fn rendering(report: &OptimizationReport) -> String {
    let json = report.explain_json();
    let body = json.split("\"stats\":").next().unwrap_or_default();
    body.to_string()
}

/// A repeat of the text whose warm hit produced `filled` must be served
/// from that hit's finished instance without running Step 2, and be
/// indistinguishable from `fresh`, an uncached optimization of the same
/// query: in what it says, in the plan it picks and in what that plan
/// answers.
fn check_repeat(
    db: &ObjectDb,
    filled: &OptimizationReport,
    repeat: &OptimizationReport,
    outcome: CacheOutcome,
    fresh: &OptimizationReport,
    baseline: &[Vec<Const>],
) -> Result<Option<Mismatch>, String> {
    let mismatch = |detail: String| {
        Ok(Some(Mismatch {
            path: "instance".to_string(),
            detail,
        }))
    };
    // Sibling tests of one binary share the process-wide counters, so
    // the delta is at least this repeat's one; the shared verdict is the
    // exact witness.
    let instance_hits = repeat
        .stats
        .counter(sqo_obs::Counter::PlanCacheInstanceHits);
    let translated = repeat.stats.counter(sqo_obs::Counter::TranslateQueries);
    if outcome != CacheOutcome::Hit
        || instance_hits < 1
        || translated != 0
        || !std::sync::Arc::ptr_eq(&repeat.verdict, &filled.verdict)
    {
        return mismatch(format!(
            "repeat of a warm hit was not served from its finished instance \
             (cache={}, plan_cache.instance_hits delta={instance_hits}, \
             translate.queries={translated})",
            outcome.label()
        ));
    }
    let (said, expected) = (rendering(repeat), rendering(fresh));
    if said != expected {
        return mismatch(format!(
            "instance hit explains differently from a fresh optimize:\n--- fresh ---\n\
             {expected}\n--- instance ---\n{said}"
        ));
    }
    let (Some((idx, eq, costs)), Some((fresh_idx, _, fresh_costs))) =
        (repeat.best_plan(db), fresh.best_plan(db))
    else {
        return Ok(None); // contradiction: nothing to execute
    };
    if (idx, &costs) != (fresh_idx, &fresh_costs) {
        return mismatch(format!(
            "remembered plan #{idx} {costs:?} differs from a fresh choice #{fresh_idx} \
             {fresh_costs:?}"
        ));
    }
    let rows = match answers_or_mismatch(db, &eq.datalog)? {
        Ok(rows) => rows,
        Err(m) => return Ok(Some(m)),
    };
    if rows != baseline {
        return mismatch(format!(
            "plan #{idx} [{}] of an instance hit returned {} rows vs baseline {}",
            eq.datalog,
            rows.len(),
            baseline.len()
        ));
    }
    Ok(None)
}

/// Durability round-trip: save the populated store into a fresh on-disk
/// directory, recover it through the snapshot + WAL path, and require
/// the recovered store to return the baseline answer set for the
/// original query and every emitted equivalent. Any divergence —
/// including an evaluation error that did not occur on the live store —
/// is a recovery mismatch, not a skip.
fn check_recovery(
    inputs: &CaseInputs,
    db: &ObjectDb,
    report: &OptimizationReport,
    baseline_query: &Query,
    baseline: &[Vec<Const>],
) -> Result<Option<Mismatch>, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sqo-fuzz-recover-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let outcome = (|| {
        if let Err(e) = db.save_to(&dir, 4) {
            return Ok(Some(Mismatch {
                path: "recovery".to_string(),
                detail: format!("saving the store failed: {e}"),
            }));
        }
        let schema = Schema::parse(&inputs.odl).map_err(|e| format!("schema: {e}"))?;
        let recovered = match ObjectDb::open(schema, &dir, 4) {
            Ok(db) => db,
            Err(e) => {
                return Ok(Some(Mismatch {
                    path: "recovery".to_string(),
                    detail: format!("recovering the saved store failed: {e}"),
                }))
            }
        };
        let mut queries: Vec<(String, &Query)> = vec![("baseline".to_string(), baseline_query)];
        if let Verdict::Equivalents(eqs) = &*report.verdict {
            for (i, eq) in eqs.iter().enumerate() {
                queries.push((format!("equivalent #{i}"), &eq.datalog));
            }
        }
        for (label, q) in queries {
            let rows = match answers(&recovered, q) {
                Ok(rows) => rows,
                Err(EvalFailure::Mismatch(mut m)) => {
                    m.path = "recovery".to_string();
                    return Ok(Some(*m));
                }
                // The live store evaluated this query fine, so an error
                // here means recovery corrupted the data.
                Err(EvalFailure::Invalid(e)) => {
                    return Ok(Some(Mismatch {
                        path: "recovery".to_string(),
                        detail: format!("{label} failed to evaluate on the recovered store: {e}"),
                    }))
                }
            };
            if rows != baseline {
                return Ok(Some(Mismatch {
                    path: "recovery".to_string(),
                    detail: format!(
                        "{label} [{q}] returned {} rows on the recovered store vs {} on the \
                         live store",
                        rows.len(),
                        baseline.len()
                    ),
                }));
            }
        }
        Ok(None)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Run one rendered case through every differential check.
pub fn run_inputs(inputs: &CaseInputs) -> Result<CaseStatus, String> {
    run_inputs_full(inputs, false)
}

/// [`run_inputs`] plus, when `recovery` is set, a durability
/// round-trip (save → recover → re-answer). The driver samples which seeds pay
/// for the save + recover; shrink and replay keep the flag so recovery
/// mismatches stay reproducible end to end.
pub fn run_inputs_full(inputs: &CaseInputs, recovery: bool) -> Result<CaseStatus, String> {
    // Store population (IC-consistent by construction).
    let schema = Schema::parse(&inputs.odl).map_err(|e| format!("schema: {e}"))?;
    let data = inputs
        .population
        .build(schema)
        .map_err(|e| format!("populate: {e}"))?;
    let db = &data.db;

    // Baseline: the original query, translated but untouched by Step 3.
    let mut opt = build_optimizer(inputs)?;
    let query: SelectQuery = sqo_oql::parse_oql(&inputs.oql).map_err(|e| format!("oql: {e}"))?;
    let translation = opt
        .translate(&query)
        .map_err(|e| format!("translate: {e}"))?;
    let baseline = match answers_or_mismatch(db, &translation.query)? {
        Ok(rows) => rows,
        Err(m) => return Ok(CaseStatus::Mismatch(m)),
    };

    let report = opt
        .optimize_query(&query)
        .map_err(|e| format!("optimize: {e}"))?;
    let fp_cold = fingerprint(&report);

    // Every equivalent (and any contradiction verdict) vs the baseline.
    if let Some(m) = check_report(db, &report, &baseline, "equivalent")? {
        return Ok(CaseStatus::Mismatch(m));
    }

    // Warm plan-cache path, on the text as a client sends it: miss,
    // then hit, on the very same words.
    let prepared = build_optimizer(inputs)?.prepare();
    let cache = PlanCache::new();
    let (cold_report, first) = prepared
        .optimize_cached(&cache, &inputs.oql)
        .map_err(|e| format!("cache(miss): {e}"))?;
    if first != CacheOutcome::Miss {
        return Err(format!("expected cold cache miss, got {}", first.label()));
    }

    // Warm context: the miss was this `PreparedOptimizer`'s first search
    // and filled its context's structure memo; a second, uncached search
    // replays the memo and must say (verdict, equivalents, steps) and
    // answer exactly what the cold one did.
    let fresh = prepared
        .optimize_query(&query)
        .map_err(|e| format!("optimize(warm context): {e}"))?;
    let (cold, warm) = (rendering(&cold_report), rendering(&fresh));
    if cold != warm {
        return Ok(CaseStatus::Mismatch(Mismatch {
            path: "warm-context".to_string(),
            detail: format!(
                "a search on a warm context disagrees with the context's first search:\n\
                 --- cold ---\n{cold}\n--- warm ---\n{warm}"
            ),
        }));
    }
    if let Some(m) = check_report(db, &fresh, &baseline, "warm-context")? {
        return Ok(CaseStatus::Mismatch(m));
    }
    let (hit_report, second) = prepared
        .optimize_cached(&cache, &inputs.oql)
        .map_err(|e| format!("cache(hit): {e}"))?;
    if second == CacheOutcome::Miss {
        return Err("expected warm cache hit, got miss".to_string());
    }
    let fp_hit = fingerprint(&hit_report);
    if fp_hit != fp_cold {
        return Ok(CaseStatus::Mismatch(Mismatch {
            path: "cache".to_string(),
            detail: format!(
                "warm cached plan disagrees with cold search:\n--- cold ---\n{fp_cold}\n--- \
                 cached ---\n{fp_hit}"
            ),
        }));
    }
    if let Some(m) = check_report(db, &hit_report, &baseline, "cache")? {
        return Ok(CaseStatus::Mismatch(m));
    }

    // Finished instances: the hit above filled one, so the same text
    // asked again skips the parse, Step 2, retargeting, Step 4, pricing
    // and rendering — and must not be told apart from a fresh, uncached
    // optimization. Twice: the second repeat also reads the plan the
    // first one remembered. (A hit that rebound fills nothing.)
    if second == CacheOutcome::Hit {
        for _ in 0..2 {
            let (repeat, outcome) = prepared
                .optimize_cached(&cache, &inputs.oql)
                .map_err(|e| format!("cache(repeat): {e}"))?;
            if let Some(m) = check_repeat(db, &hit_report, &repeat, outcome, &fresh, &baseline)? {
                return Ok(CaseStatus::Mismatch(m));
            }
        }
    }

    // Constant-shifted sibling through the warm cache: the retargeted
    // rewrites must agree with the sibling's own baseline.
    if let Some(sib_src) = &inputs.sibling_oql {
        let sib: SelectQuery =
            sqo_oql::parse_oql(sib_src).map_err(|e| format!("sibling oql: {e}"))?;
        let sib_translation = opt
            .translate(&sib)
            .map_err(|e| format!("sibling translate: {e}"))?;
        let sib_baseline = match answers_or_mismatch(db, &sib_translation.query)? {
            Ok(rows) => rows,
            Err(m) => return Ok(CaseStatus::Mismatch(m)),
        };
        let (sib_report, _outcome) = prepared
            .optimize_query_cached(&cache, &sib)
            .map_err(|e| format!("cache(sibling): {e}"))?;
        if let Some(mut m) = check_report(db, &sib_report, &sib_baseline, "sibling")? {
            if m.path == "contradiction" {
                m.path = "sibling".to_string();
            }
            return Ok(CaseStatus::Mismatch(m));
        }
        // Same template, other constants: the sibling must get its own
        // instance, never the first query's — its leading equivalent is
        // the sibling itself, unchanged.
        let own = sib_report
            .equivalents()
            .first()
            .is_none_or(|e| e.delta.is_empty());
        if !own
            || (sib != query && std::sync::Arc::ptr_eq(&sib_report.verdict, &hit_report.verdict))
        {
            return Ok(CaseStatus::Mismatch(Mismatch {
                path: "sibling".to_string(),
                detail: format!(
                    "sibling [{sib_src}] was answered with another query's finished instance"
                ),
            }));
        }
    }

    // Sampled durability round-trip: save, recover, re-check everything.
    if recovery {
        if let Some(m) = check_recovery(inputs, db, &report, &translation.query, &baseline)? {
            return Ok(CaseStatus::Mismatch(m));
        }
    }

    let (variants, contradiction) = match &*report.verdict {
        Verdict::Contradiction { .. } => (0, true),
        Verdict::Equivalents(eqs) => (eqs.len(), false),
    };
    Ok(CaseStatus::Pass(PassInfo {
        baseline_rows: baseline.len(),
        variants,
        contradiction,
    }))
}
