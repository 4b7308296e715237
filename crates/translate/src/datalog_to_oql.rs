//! Step 4: ALGORITHM DATALOG_to_OQL — mapping Datalog-level changes back
//! onto the OQL query.
//!
//! Per Section 4.3, the optimized Datalog query is *not* translated into
//! a fresh OQL query (constructors and other extralogical features would
//! be lost); instead the literal-level [`sqo_datalog::search::Delta`]
//! between the original and the optimized Datalog query is replayed as
//! edits on the (normalized) OQL query:
//!
//! | Datalog change            | OQL edit                             |
//! |---------------------------|--------------------------------------|
//! | ± `X = Y`                 | ± `x = y` in **where**               |
//! | ± `A θ k`, `A θ B`        | ± `x.a θ k`, `x.a θ y.b` in **where**|
//! | ± `c(X, …)`               | ± `x in C` in **from**               |
//! | ± `r(X, Y)`               | ± `y in x.R` in **from**             |
//! | ± `not c(X, …)`           | ± `x not in C` in **from**           |
//! | ± `not r(X, Y)`           | ± `y not in x.R` in **from**         |
//! | ± `m(X, args, V)` + cmp   | ± `x.m(args) θ k` in **where**       |
//! | ± view atom `asr(X, W)`   | ± `w in x.ASR` in **from** (synthetic relationship) |
//!
//! Removing a `from` entry that still *binds* a referenced variable would
//! break OQL scoping even though the Datalog query stays safe; such edits
//! are skipped and reported in [`OqlEdit::warnings`] (the equivalent
//! query remains available at the Datalog level). So is an added
//! `not c(X, …)` that restricts an attribute — with a constant, with a
//! variable the translation named for anything but `x`'s own value of
//! that attribute, or with a variable it repeats — which `x not in C`
//! would drop.

use crate::catalog::{Catalog, RelKind, RelationDecl};
use crate::error::Result;
use crate::query_to_datalog::TranslationMap;
use sqo_datalog::search::Delta;
use sqo_datalog::{Atom, Comparison, Literal, Term, Var};
use sqo_oql::{
    CmpOp as OqlCmpOp, Expr, FromEntry, Literal as OqlLit, PathExpr, PathStep, Predicate,
    SelectQuery, Source,
};

/// The result of Step 4: the edited OQL query plus any skipped edits.
#[derive(Debug, Clone)]
pub struct OqlEdit {
    /// The edited query.
    pub query: SelectQuery,
    /// Human-readable notes about edits that could not be applied at the
    /// OQL level.
    pub warnings: Vec<String>,
}

struct Editor<'a> {
    map: &'a TranslationMap,
    catalog: &'a Catalog,
    query: SelectQuery,
    warnings: Vec<String>,
    /// OQL names invented for Datalog variables with no OQL counterpart
    /// (fresh witnesses from join introduction).
    invented: std::collections::BTreeMap<String, String>,
    /// From entries deleted by removals, kept around so the final scoping
    /// pass can restore one whose variable turned out to still be needed.
    removed_entries: Vec<FromEntry>,
}

impl<'a> Editor<'a> {
    /// The OQL identifier for a Datalog variable, inventing one (its
    /// lower-cased Datalog name) if needed.
    fn oql_name(&mut self, v: &Var) -> String {
        if let Some(n) = self.map.oql_var(v) {
            return n.to_string();
        }
        if let Some(n) = self.invented.get(v.name()) {
            return n.clone();
        }
        let mut candidate = v.name().to_lowercase();
        let taken: Vec<String> = self
            .query
            .declared_vars()
            .iter()
            .map(|s| s.to_string())
            .collect();
        while taken.contains(&candidate) || self.invented.values().any(|x| *x == candidate) {
            candidate.push('_');
        }
        self.invented
            .insert(v.name().to_string(), candidate.clone());
        candidate
    }

    /// Map a Datalog term to an OQL expression.
    fn term_expr(&mut self, t: &Term) -> Option<Expr> {
        match t {
            Term::Const(c) => Some(Expr::Lit(const_lit(c))),
            Term::Var(v) => {
                if let Some((ovar, attr)) = self.map.attr_of(v) {
                    return Some(Expr::Path(PathExpr::member(ovar, attr)));
                }
                if let Some((ovar, method, args)) = self.map.method_results.get(v.name()) {
                    return Some(Expr::Path(PathExpr {
                        root: ovar.clone(),
                        steps: vec![PathStep::MethodCall {
                            name: method.clone(),
                            args: args.clone(),
                        }],
                    }));
                }
                if self.map.oql_var(v).is_some() {
                    return Some(Expr::Path(PathExpr::var(self.oql_name(v))));
                }
                // A variable invented during optimization: expressible only
                // if it was introduced by an added from entry.
                Some(Expr::Path(PathExpr::var(self.oql_name(v))))
            }
        }
    }

    fn cmp_predicate(&mut self, c: &Comparison) -> Option<Predicate> {
        let lhs = self.term_expr(&c.lhs)?;
        let rhs = self.term_expr(&c.rhs)?;
        Some(Predicate {
            lhs,
            op: oql_op(c.op),
            rhs,
        })
    }

    fn add_cmp(&mut self, c: &Comparison) {
        match self.cmp_predicate(c) {
            Some(p) => self.query.where_.push(p),
            None => self
                .warnings
                .push(format!("could not express added comparison `{c}` in OQL")),
        }
    }

    fn remove_cmp(&mut self, c: &Comparison) {
        let Some(target) = self.cmp_predicate(c) else {
            self.warnings
                .push(format!("could not express removed comparison `{c}` in OQL"));
            return;
        };
        let flipped = Predicate {
            lhs: target.rhs.clone(),
            op: flip(target.op),
            rhs: target.lhs.clone(),
        };
        let before = self.query.where_.len();
        let mut removed = false;
        self.query.where_.retain(|p| {
            if !removed && (*p == target || *p == flipped) {
                removed = true;
                false
            } else {
                true
            }
        });
        if self.query.where_.len() == before {
            self.warnings.push(format!(
                "removed comparison `{c}` not found in the where clause"
            ));
        }
    }

    /// The from entry expressing an added positive atom, per the paper's
    /// algorithm.
    fn atom_entry(&mut self, a: &Atom) -> Option<FromEntry> {
        let decl = self.catalog.relation_by_pred(&a.pred)?;
        match &decl.kind {
            RelKind::Class { class } | RelKind::Struct { strct: class } => {
                let v = a.args.first()?.as_var()?;
                Some(FromEntry::In {
                    var: self.oql_name(v),
                    source: Source::Extent(class.clone()),
                })
            }
            RelKind::Relationship { name, .. } => {
                let x = a.args.first()?.as_var()?;
                let y = a.args.get(1)?.as_var()?;
                let (x, y) = (*x, *y);
                Some(FromEntry::In {
                    var: self.oql_name(&y),
                    source: Source::Path(PathExpr::member(self.oql_name(&x), name)),
                })
            }
            RelKind::View { name } => {
                // Synthetic relationship syntax: `w in x.ASR`.
                let x = a.args.first()?.as_var()?;
                let w = a.args.last()?.as_var()?;
                let (x, w) = (*x, *w);
                Some(FromEntry::In {
                    var: self.oql_name(&w),
                    source: Source::Path(PathExpr::member(self.oql_name(&x), name)),
                })
            }
            RelKind::Method { .. } => None,
        }
    }

    fn add_atom(&mut self, a: &Atom) {
        match self.atom_entry(a) {
            Some(entry) => self.query.from.push(entry),
            None => self
                .warnings
                .push(format!("could not express added atom `{a}` in OQL")),
        }
    }

    fn remove_atom(&mut self, a: &Atom) {
        let Some(decl) = self.catalog.relation_by_pred(&a.pred) else {
            self.warnings
                .push(format!("removed atom `{a}` has no catalog entry"));
            return;
        };
        // Identify the from entry to delete by its bound variable and
        // source shape.
        let kind = decl.kind.clone();
        let target: Option<(String, Option<String>)> = match &kind {
            RelKind::Class { class } | RelKind::Struct { strct: class } => a
                .args
                .first()
                .and_then(Term::as_var)
                .cloned()
                .map(|v| (self.oql_name(&v), Some(class.clone()))),
            RelKind::Relationship { .. } | RelKind::View { .. } => a
                .args
                .get(1)
                .and_then(Term::as_var)
                .cloned()
                .map(|v| (self.oql_name(&v), None)),
            RelKind::Method { .. } => None,
        };
        let Some((var, class)) = target else {
            self.warnings
                .push(format!("could not express removed atom `{a}` in OQL"));
            return;
        };
        let before = self.query.from.len();
        let mut removed_at: Option<usize> = None;
        for (i, e) in self.query.from.iter().enumerate() {
            let matches = match (e, &kind) {
                (
                    FromEntry::In {
                        var: v,
                        source: Source::Extent(c),
                    },
                    RelKind::Class { .. } | RelKind::Struct { .. },
                ) => *v == var && Some(c.clone()) == class,
                (
                    FromEntry::In {
                        var: v,
                        source: Source::Path(_),
                    },
                    RelKind::Relationship { .. } | RelKind::View { .. },
                ) => *v == var,
                (
                    FromEntry::In {
                        var: v,
                        source: Source::Path(_),
                    },
                    RelKind::Class { .. } | RelKind::Struct { .. },
                ) => {
                    // A structure-attribute entry (`w in z.address`) also
                    // "binds" the class atom variable.
                    *v == var
                }
                _ => false,
            };
            if matches {
                removed_at = Some(i);
                break;
            }
        }
        match removed_at {
            Some(i) => {
                // Scoping is validated once all edits are in (a group
                // removal may delete the referencing entries too).
                let entry = self.query.from.remove(i);
                self.removed_entries.push(entry);
            }
            None => {
                if self.query.from.len() == before {
                    self.warnings
                        .push(format!("removed atom `{a}` has no matching from entry"));
                }
            }
        }
    }

    fn add_neg_atom(&mut self, a: &Atom) {
        let Some(decl) = self.catalog.relation_by_pred(&a.pred) else {
            self.warnings
                .push(format!("added negated atom `{a}` has no catalog entry"));
            return;
        };
        match &decl.kind {
            RelKind::Class { class } | RelKind::Struct { strct: class } => {
                let Some(v) = a.args.first().and_then(Term::as_var) else {
                    self.warnings
                        .push(format!("negated atom `{a}` has a non-variable OID"));
                    return;
                };
                if !self.negates_whole_object(a, decl) {
                    self.warnings.push(format!(
                        "negated atom `{a}` restricts an attribute, which `not in` cannot express"
                    ));
                    return;
                }
                let var = self.oql_name(v);
                self.query.from.push(FromEntry::NotIn {
                    var,
                    source: Source::Extent(class.clone()),
                });
            }
            RelKind::Relationship { name, .. } | RelKind::View { name } => {
                let name = name.clone();
                if let (Some(x), Some(y)) = (
                    a.args.first().and_then(Term::as_var).cloned(),
                    a.args.get(1).and_then(Term::as_var).cloned(),
                ) {
                    let root = self.oql_name(&x);
                    let var = self.oql_name(&y);
                    self.query.from.push(FromEntry::NotIn {
                        var,
                        source: Source::Path(PathExpr::member(root, name)),
                    });
                } else {
                    self.warnings
                        .push(format!("negated atom `{a}` has non-variable arguments"));
                }
            }
            RelKind::Method { .. } => self
                .warnings
                .push(format!("cannot negate method atom `{a}` in OQL")),
        }
    }

    /// Whether `not c(X, …)` says what `x not in C` says: each attribute
    /// argument is `x`'s own variable for that attribute, or a variable
    /// the translation never named, used once. A constant, or any other
    /// variable, restricts the attribute, which `x not in C` drops.
    fn negates_whole_object(&self, a: &Atom, decl: &RelationDecl) -> bool {
        let owner = a
            .args
            .first()
            .and_then(Term::as_var)
            .and_then(|v| self.map.oql_var(v));
        let mut unnamed = std::collections::BTreeSet::new();
        a.args.iter().zip(&decl.args).skip(1).all(|(t, arg)| {
            let Term::Var(v) = t else { return false };
            match self.map.attr_of(v) {
                Some((x, attr)) => owner == Some(x) && attr == arg.name,
                None => {
                    self.map.oql_var(v).is_none()
                        && !self.map.method_results.contains_key(v.name())
                        && unnamed.insert(*v)
                }
            }
        })
    }

    fn remove_neg_atom(&mut self, a: &Atom) {
        let Some(v) = a.args.first().and_then(Term::as_var) else {
            return;
        };
        let var = self.oql_name(&v.clone());
        let before = self.query.from.len();
        let mut removed = false;
        self.query.from.retain(|e| {
            if removed {
                return true;
            }
            match e {
                FromEntry::NotIn { var: v2, .. } if *v2 == var => {
                    removed = true;
                    false
                }
                _ => true,
            }
        });
        if self.query.from.len() == before {
            self.warnings
                .push(format!("removed negated atom `{a}` had no from entry"));
        }
    }

    /// Whether an OQL variable occurs anywhere outside its own binder.
    fn var_referenced(&self, var: &str) -> bool {
        let in_path = |p: &PathExpr| p.root == var;
        let in_expr = |e: &Expr| match e {
            Expr::Path(p) => {
                in_path(p)
                    || p.steps.iter().any(|s| match s {
                        PathStep::MethodCall { args, .. } => args.iter().any(|a| match a {
                            Expr::Path(pp) => pp.root == var,
                            Expr::Lit(_) => false,
                        }),
                        PathStep::Member(_) => false,
                    })
            }
            Expr::Lit(_) => false,
        };
        let select_hit = self.query.select.iter().any(|i| match i {
            sqo_oql::SelectItem::Expr(e) => in_expr(e),
            sqo_oql::SelectItem::Constructor { fields, .. } => {
                fields.iter().any(|f| in_expr(&f.expr))
            }
        });
        let where_hit = self
            .query
            .where_
            .iter()
            .any(|p| in_expr(&p.lhs) || in_expr(&p.rhs));
        let from_hit = self.query.from.iter().any(|e| match e {
            FromEntry::In {
                source: Source::Path(p),
                ..
            } => in_path(p),
            FromEntry::NotIn { var: v, source } => {
                v == var
                    || match source {
                        Source::Path(p) => in_path(p),
                        Source::Extent(_) => false,
                    }
            }
            _ => false,
        });
        select_hit || where_hit || from_hit
    }

    /// Whether any remaining from entry binds the variable.
    fn var_bound(&self, var: &str) -> bool {
        self.query
            .from
            .iter()
            .any(|e| matches!(e, FromEntry::In { var: v, .. } if v == var))
    }

    /// After all edits: re-insert any removed binder whose variable is
    /// still referenced and no longer bound (with a warning), so the
    /// edited query stays well-scoped.
    fn restore_needed_binders(&mut self) {
        loop {
            let needed: Option<usize> = self.removed_entries.iter().position(|e| {
                matches!(e, FromEntry::In { var, .. }
                    if self.var_referenced(var) && !self.var_bound(var))
            });
            match needed {
                Some(i) => {
                    let entry = self.removed_entries.remove(i);
                    self.warnings.push(format!(
                        "kept `{entry}` in the from clause: its variable is still \
                         referenced (the Datalog-level equivalent drops it)"
                    ));
                    self.query.from.push(entry);
                }
                None => break,
            }
        }
    }

    /// Reorder from entries so binders precede uses (a bounded
    /// topological fix-up after group edits).
    fn reorder_from(&mut self) {
        let n = self.query.from.len();
        for _ in 0..n {
            let mut bound: Vec<String> = Vec::new();
            let mut move_idx: Option<usize> = None;
            for (i, e) in self.query.from.iter().enumerate() {
                let root = match e {
                    FromEntry::In {
                        source: Source::Path(p),
                        ..
                    }
                    | FromEntry::NotIn {
                        source: Source::Path(p),
                        ..
                    } => Some(p.root.clone()),
                    _ => None,
                };
                if let Some(r) = root {
                    if !bound.contains(&r) {
                        move_idx = Some(i);
                        break;
                    }
                }
                if let FromEntry::In { var, .. } = e {
                    bound.push(var.clone());
                }
            }
            match move_idx {
                Some(i) if i + 1 < n => {
                    let e = self.query.from.remove(i);
                    self.query.from.push(e);
                }
                _ => break,
            }
        }
    }
}

fn const_lit(c: &sqo_datalog::Const) -> OqlLit {
    match c {
        sqo_datalog::Const::Int(v) => OqlLit::Int(*v),
        sqo_datalog::Const::Real(r) => OqlLit::Real(r.get()),
        sqo_datalog::Const::Str(s) => OqlLit::Str(s.as_str().to_string()),
        sqo_datalog::Const::Bool(b) => OqlLit::Bool(*b),
        // OIDs have no OQL literal syntax; surface them as ints (only
        // reachable through hand-written Datalog deltas).
        sqo_datalog::Const::Oid(o) => OqlLit::Int(*o as i64),
    }
}

fn oql_op(op: sqo_datalog::CmpOp) -> OqlCmpOp {
    match op {
        sqo_datalog::CmpOp::Eq => OqlCmpOp::Eq,
        sqo_datalog::CmpOp::Ne => OqlCmpOp::Ne,
        sqo_datalog::CmpOp::Lt => OqlCmpOp::Lt,
        sqo_datalog::CmpOp::Le => OqlCmpOp::Le,
        sqo_datalog::CmpOp::Gt => OqlCmpOp::Gt,
        sqo_datalog::CmpOp::Ge => OqlCmpOp::Ge,
    }
}

fn flip(op: OqlCmpOp) -> OqlCmpOp {
    match op {
        OqlCmpOp::Eq => OqlCmpOp::Eq,
        OqlCmpOp::Ne => OqlCmpOp::Ne,
        OqlCmpOp::Lt => OqlCmpOp::Gt,
        OqlCmpOp::Le => OqlCmpOp::Ge,
        OqlCmpOp::Gt => OqlCmpOp::Lt,
        OqlCmpOp::Ge => OqlCmpOp::Le,
    }
}

/// Run algorithm DATALOG_to_OQL: apply the delta to the (normalized) OQL
/// query the translation started from.
pub fn apply_delta(
    oql: &SelectQuery,
    map: &TranslationMap,
    catalog: &Catalog,
    delta: &Delta,
) -> Result<OqlEdit> {
    let mut ed = Editor {
        map,
        catalog,
        query: oql.clone(),
        warnings: Vec::new(),
        invented: std::collections::BTreeMap::new(),
        removed_entries: Vec::new(),
    };
    // Removals first, then additions (added entries may re-bind variables
    // whose original binders were removed, e.g. the ASR fold).
    for l in &delta.removed {
        match l {
            Literal::Cmp(c) => ed.remove_cmp(c),
            Literal::Pos(a) => ed.remove_atom(a),
            Literal::Neg(a) => ed.remove_neg_atom(a),
        }
    }
    for l in &delta.added {
        match l {
            Literal::Cmp(c) => ed.add_cmp(c),
            Literal::Pos(a) => ed.add_atom(a),
            Literal::Neg(a) => ed.add_neg_atom(a),
        }
    }
    ed.restore_needed_binders();
    ed.reorder_from();
    Ok(OqlEdit {
        query: ed.query,
        warnings: ed.warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::translate_schema;
    use crate::query_to_datalog::translate_query;
    use sqo_datalog::{CmpOp, Literal as DLiteral, Term};
    use sqo_odl::fixtures::university_schema;
    use sqo_oql::parse_oql;

    fn setup(src: &str) -> (SelectQuery, TranslationMap, Catalog) {
        let schema = university_schema();
        let catalog = translate_schema(&schema);
        let q = parse_oql(src).unwrap();
        let t = translate_query(&q, &schema, &catalog).unwrap();
        (t.normalized, t.map, catalog)
    }

    /// Application 2: adding `not faculty(X, …)` yields `x not in Faculty`.
    #[test]
    fn application2_oql_output() {
        let (oql, map, catalog) = setup("select x.name from x in Person where x.age < 30");
        let delta = Delta {
            added: vec![DLiteral::neg(
                "faculty",
                vec![
                    Term::var("X"),
                    Term::var("Name"),
                    Term::var("Age"),
                    Term::var("S"),
                    Term::var("R"),
                    Term::var("Ad"),
                ],
            )],
            removed: vec![],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(edit.warnings.is_empty(), "{:?}", edit.warnings);
        assert_eq!(
            edit.query.to_string(),
            "select x.name\nfrom x in Person,\n     x not in Faculty\nwhere x.age < 30"
        );
    }

    /// Application 3: remove `Name1 = Name2`, add `Z = W` — the paper's
    /// where-clause rewrite, with the `list` constructor retained.
    #[test]
    fn application3_oql_output() {
        let (oql, map, catalog) = setup(
            r#"select list(x.student_id, t.employee_id)
               from x in Student
                    y in x.takes
                    z in y.is_taught_by
                    t in TA
                    v in t.takes
                    w in v.is_taught_by
               where z.name = w.name"#,
        );
        let delta = Delta {
            added: vec![DLiteral::cmp(Term::var("Z"), CmpOp::Eq, Term::var("W"))],
            removed: vec![DLiteral::cmp(
                Term::var("Name1"),
                CmpOp::Eq,
                Term::var("Name2"),
            )],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(edit.warnings.is_empty(), "{:?}", edit.warnings);
        let text = edit.query.to_string();
        assert!(
            text.contains("select list(x.student_id, t.employee_id)"),
            "constructor must be retained: {text}"
        );
        assert!(text.contains("where z = w"), "OID comparison added: {text}");
        assert!(
            !text.contains("z.name = w.name"),
            "name join removed: {text}"
        );
    }

    /// Adding a restriction `Age > 30` yields `x.age > 30`.
    #[test]
    fn added_attribute_restriction() {
        let (oql, map, catalog) = setup("select x.name from x in Faculty");
        // The Datalog var for x.age was never created by translation, so
        // express the bound through an existing attribute var (x.name) —
        // instead test the attr-var path with name:
        let delta = Delta {
            added: vec![DLiteral::cmp(
                Term::var("Name"),
                CmpOp::Eq,
                Term::str("john"),
            )],
            removed: vec![],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(edit
            .query
            .where_
            .iter()
            .any(|p| p.to_string() == "x.name = \"john\""));
    }

    /// A method-result comparison maps back to the method-call syntax.
    #[test]
    fn method_result_comparison_roundtrip() {
        let (oql, map, catalog) =
            setup("select z.name from z in Faculty where z.taxes_withheld(10%) < 1000");
        let delta = Delta {
            added: vec![DLiteral::cmp(Term::var("V"), CmpOp::Gt, Term::int(3000))],
            removed: vec![],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(
            edit.query
                .where_
                .iter()
                .any(|p| p.to_string() == "z.taxes_withheld(0.1) > 3000"),
            "{}",
            edit.query
        );
    }

    /// Application 4 (Q): the ASR fold — remove the 4-hop chain, add the
    /// view atom; the view appears as a synthetic relationship.
    #[test]
    fn application4_asr_fold_output() {
        let (oql, map, mut catalog) = setup(
            r#"select w
               from x in Student
                    y in x.takes
                    z in y.is_section_of
                    v in z.has_sections
                    w in v.has_ta
               where x.name = "james""#,
        );
        catalog.register_view("asr", 2);
        let delta = Delta {
            added: vec![DLiteral::pos("asr", vec![Term::var("X"), Term::var("W")])],
            removed: vec![
                DLiteral::pos("takes", vec![Term::var("X"), Term::var("Y")]),
                DLiteral::pos("is_section_of", vec![Term::var("Y"), Term::var("Z")]),
                DLiteral::pos("has_sections", vec![Term::var("Z"), Term::var("V")]),
                DLiteral::pos("has_ta", vec![Term::var("V"), Term::var("W")]),
            ],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(edit.warnings.is_empty(), "{:?}", edit.warnings);
        let text = edit.query.to_string();
        assert!(text.contains("w in x.asr"), "{text}");
        assert!(!text.contains("x.takes"), "{text}");
        assert!(!text.contains("has_ta"), "{text}");
    }

    /// Removing a binder whose variable is still referenced is refused
    /// with a warning.
    #[test]
    fn scoping_preserving_refusal() {
        let (oql, map, catalog) = setup("select y from x in Student, y in x.takes");
        let delta = Delta {
            added: vec![],
            removed: vec![DLiteral::pos("takes", vec![Term::var("X"), Term::var("Y")])],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(!edit.warnings.is_empty());
        // The entry survives.
        assert_eq!(edit.query.from.len(), 2);
    }

    /// A negated class atom that restricts an attribute has no `not in`
    /// form: it is skipped with a warning and the from clause is kept.
    #[test]
    fn negated_class_atom_restricting_an_attribute_is_a_warning() {
        let (oql, map, catalog) = setup("select x.name from x in Employee where x.age < 25");
        let not_faculty = |rank: Term| Delta {
            added: vec![DLiteral::neg(
                "faculty",
                vec![
                    Term::var("X"),
                    Term::var("NV1"),
                    Term::var("Age"),
                    Term::var("NV2"),
                    rank,
                    Term::var("Address_X"),
                ],
            )],
            removed: vec![],
        };
        // A constant rank, x's name variable in the rank position, or
        // the salary's unnamed variable again.
        for rank in [Term::str("professor"), Term::var("Name"), Term::var("NV2")] {
            let edit = apply_delta(&oql, &map, &catalog, &not_faculty(rank)).unwrap();
            assert_eq!(edit.warnings.len(), 1, "{rank}: {:?}", edit.warnings);
            assert_eq!(edit.query.to_string(), oql.to_string(), "{rank}");
        }
        // Any rank at all: the whole object is negated.
        let edit = apply_delta(&oql, &map, &catalog, &not_faculty(Term::var("NV3"))).unwrap();
        assert!(edit.warnings.is_empty(), "{:?}", edit.warnings);
        assert!(
            edit.query.to_string().contains("x not in Faculty"),
            "{}",
            edit.query
        );
    }

    /// Added negated relationship literal: `y not in x.takes`.
    #[test]
    fn negated_relationship_entry() {
        let (oql, map, catalog) = setup("select x from x in Student, y in Section");
        let delta = Delta {
            added: vec![DLiteral::neg("takes", vec![Term::var("X"), Term::var("Y")])],
            removed: vec![],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(edit
            .query
            .from
            .iter()
            .any(|e| e.to_string() == "y not in x.takes"));
    }

    /// Fresh witness variables from join introduction get invented OQL
    /// names.
    #[test]
    fn invented_variable_names() {
        let (oql, map, catalog) = setup(
            "select v from x in Student, y in x.takes, z in y.is_section_of, v in z.has_sections",
        );
        let delta = Delta {
            added: vec![DLiteral::pos(
                "has_ta",
                vec![Term::var("V"), Term::var("NV1")],
            )],
            removed: vec![],
        };
        let edit = apply_delta(&oql, &map, &catalog, &delta).unwrap();
        assert!(
            edit.query
                .from
                .iter()
                .any(|e| e.to_string() == "nv1 in v.has_ta"),
            "{}",
            edit.query
        );
    }
}
