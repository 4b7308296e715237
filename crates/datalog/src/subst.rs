//! Substitutions: finite maps from variables to terms.

use crate::atom::{Atom, Comparison, Literal};
use crate::clause::{Constraint, ConstraintHead, Query};
use crate::term::{Term, Var};
use std::collections::BTreeMap;
use std::fmt;

/// A substitution θ mapping variables to terms.
///
/// Substitutions are kept *idempotent*: no variable in the domain occurs in
/// any term of the range. [`Subst::bind`] maintains this invariant by
/// normalizing through existing bindings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Var, Term>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the substitution is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a variable's binding (after path compression through the
    /// map), if any.
    pub fn lookup(&self, v: &Var) -> Option<&Term> {
        self.map.get(v)
    }

    /// Resolve a term through the substitution until fixpoint.
    pub fn resolve(&self, t: &Term) -> Term {
        let mut cur = *t;
        let mut steps = 0;
        while let Term::Var(v) = &cur {
            match self.map.get(v) {
                Some(next) => {
                    cur = *next;
                    steps += 1;
                    // Idempotent substitutions terminate in one step, but be
                    // defensive against accidental chains.
                    if steps > self.map.len() + 1 {
                        break;
                    }
                }
                None => break,
            }
        }
        cur
    }

    /// Bind `v` to `t`, keeping the substitution idempotent. Returns
    /// `false` (and leaves the substitution unchanged) if the binding
    /// conflicts with an existing one.
    pub fn bind(&mut self, v: Var, t: Term) -> bool {
        let t = self.resolve(&t);
        match self.resolve(&Term::Var(v)) {
            Term::Var(root) => {
                if Term::Var(root) == t {
                    return true;
                }
                // Substitute the new binding into existing range terms to
                // preserve idempotence.
                let mut single = Subst::new();
                single.map.insert(root, t);
                for val in self.map.values_mut() {
                    *val = single.apply_term(val);
                }
                self.map.insert(root, t);
                true
            }
            Term::Const(c) => t == Term::Const(c),
        }
    }

    /// Bind `v` to `t` like [`Subst::bind`], but *record* the binding
    /// even when it is the identity (`v ↦ v`). One-way matching needs
    /// this: once a pattern variable has matched a target term — even a
    /// target variable of the same name — later occurrences of the
    /// pattern variable must match exactly that term.
    pub fn bind_exact(&mut self, v: Var, t: Term) -> bool {
        if Term::Var(v) == t {
            self.map.entry(v).or_insert(t);
            return true;
        }
        self.bind(v, t)
    }

    /// Apply the substitution to a term.
    pub fn apply_term(&self, t: &Term) -> Term {
        self.resolve(t)
    }

    /// Apply the substitution to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom::new(a.pred, a.args.iter().map(|t| self.apply_term(t)).collect())
    }

    /// Apply the substitution to a comparison.
    pub fn apply_cmp(&self, c: &Comparison) -> Comparison {
        Comparison::new(self.apply_term(&c.lhs), c.op, self.apply_term(&c.rhs))
    }

    /// Apply the substitution to a literal.
    pub fn apply_literal(&self, l: &Literal) -> Literal {
        match l {
            Literal::Pos(a) => Literal::Pos(self.apply_atom(a)),
            Literal::Neg(a) => Literal::Neg(self.apply_atom(a)),
            Literal::Cmp(c) => Literal::Cmp(self.apply_cmp(c)),
        }
    }

    /// Apply the substitution to all body literals.
    pub fn apply_body(&self, body: &[Literal]) -> Vec<Literal> {
        body.iter().map(|l| self.apply_literal(l)).collect()
    }

    /// Apply the substitution to a constraint head.
    pub fn apply_head(&self, h: &ConstraintHead) -> ConstraintHead {
        match h {
            ConstraintHead::None => ConstraintHead::None,
            ConstraintHead::Atom(a) => ConstraintHead::Atom(self.apply_atom(a)),
            ConstraintHead::NegAtom(a) => ConstraintHead::NegAtom(self.apply_atom(a)),
            ConstraintHead::Cmp(c) => ConstraintHead::Cmp(self.apply_cmp(c)),
        }
    }

    /// Apply the substitution to a constraint.
    pub fn apply_constraint(&self, c: &Constraint) -> Constraint {
        Constraint {
            name: c.name.clone(),
            head: self.apply_head(&c.head),
            body: self.apply_body(&c.body),
        }
    }

    /// Apply the substitution to a query.
    pub fn apply_query(&self, q: &Query) -> Query {
        Query::new(
            q.name.clone(),
            q.projection.iter().map(|t| self.apply_term(t)).collect(),
            self.apply_body(&q.body),
        )
    }

    /// Iterate over the bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Term)> {
        self.map.iter()
    }

    /// Compose: the substitution that first applies `self`, then `other`.
    pub fn compose(&self, other: &Subst) -> Subst {
        let mut out = Subst::new();
        for (v, t) in &self.map {
            out.map.insert(*v, other.apply_term(t));
        }
        for (v, t) in &other.map {
            out.map.entry(*v).or_insert_with(|| *t);
        }
        // Drop trivial bindings v ↦ v.
        out.map.retain(|v, t| Term::Var(*v) != *t);
        out
    }

    /// Restrict the substitution to the given variables.
    pub fn restrict(&self, vars: &std::collections::BTreeSet<Var>) -> Subst {
        Subst {
            map: self
                .map
                .iter()
                .filter(|(v, _)| vars.contains(*v))
                .map(|(v, t)| (*v, *t))
                .collect(),
        }
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}/{t}")?;
        }
        f.write_str("}")
    }
}

/// Rename all variables of a constraint apart from the given "used" set by
/// appending a numeric suffix (standardizing apart before resolution-style
/// matching).
pub fn standardize_apart(c: &Constraint, used: &std::collections::BTreeSet<Var>) -> Constraint {
    let mut s = Subst::new();
    let mut counter = 0usize;
    let clash: Vec<Var> = c.vars().into_iter().filter(|v| used.contains(v)).collect();
    for v in clash {
        loop {
            counter += 1;
            let fresh = Var::new(format!("{}_{counter}", v.name()));
            if !used.contains(&fresh) && !c.vars().contains(&fresh) {
                s.bind(v, Term::Var(fresh));
                break;
            }
        }
    }
    s.apply_constraint(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;

    #[test]
    fn bind_and_apply() {
        let mut s = Subst::new();
        assert!(s.bind(Var::new("X"), Term::int(3)));
        assert_eq!(s.apply_term(&Term::var("X")), Term::int(3));
        assert_eq!(s.apply_term(&Term::var("Y")), Term::var("Y"));
    }

    #[test]
    fn bind_conflict_rejected() {
        let mut s = Subst::new();
        assert!(s.bind(Var::new("X"), Term::int(3)));
        assert!(!s.bind(Var::new("X"), Term::int(4)));
        assert!(s.bind(Var::new("X"), Term::int(3)));
    }

    #[test]
    fn bind_keeps_idempotence() {
        let mut s = Subst::new();
        assert!(s.bind(Var::new("X"), Term::var("Y")));
        assert!(s.bind(Var::new("Y"), Term::int(5)));
        // X must resolve all the way to 5 in a single application.
        assert_eq!(s.apply_term(&Term::var("X")), Term::int(5));
        // And the stored range must already be normalized.
        assert_eq!(s.lookup(&Var::new("X")), Some(&Term::int(5)));
    }

    #[test]
    fn bind_var_to_var_chains() {
        let mut s = Subst::new();
        assert!(s.bind(Var::new("X"), Term::var("Y")));
        assert!(s.bind(Var::new("X"), Term::var("Z")));
        // X ↦ Y, then binding X again unifies Y with Z.
        let x = s.apply_term(&Term::var("X"));
        let y = s.apply_term(&Term::var("Y"));
        assert_eq!(x, y);
    }

    #[test]
    fn compose_order() {
        let mut a = Subst::new();
        a.bind(Var::new("X"), Term::var("Y"));
        let mut b = Subst::new();
        b.bind(Var::new("Y"), Term::int(1));
        let c = a.compose(&b);
        assert_eq!(c.apply_term(&Term::var("X")), Term::int(1));
        assert_eq!(c.apply_term(&Term::var("Y")), Term::int(1));
    }

    #[test]
    fn apply_literal_forms() {
        let mut s = Subst::new();
        s.bind(Var::new("Age"), Term::int(25));
        let l = Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(30));
        assert_eq!(s.apply_literal(&l).to_string(), "25 < 30");
    }

    #[test]
    fn standardize_apart_renames_clashing_vars() {
        use crate::clause::{Constraint, ConstraintHead};
        let ic = Constraint::new(
            ConstraintHead::Cmp(Comparison::new(Term::var("Age"), CmpOp::Gt, Term::int(30))),
            vec![Literal::pos(
                "faculty",
                vec![Term::var("X"), Term::var("Age")],
            )],
        );
        let used: std::collections::BTreeSet<Var> = [Var::new("Age")].into_iter().collect();
        let renamed = standardize_apart(&ic, &used);
        assert!(!renamed.vars().contains(&Var::new("Age")));
        assert!(renamed.vars().contains(&Var::new("X"))); // no clash, kept
    }

    #[test]
    fn restrict_keeps_only_requested() {
        let mut s = Subst::new();
        s.bind(Var::new("X"), Term::int(1));
        s.bind(Var::new("Y"), Term::int(2));
        let keep: std::collections::BTreeSet<Var> = [Var::new("X")].into_iter().collect();
        let r = s.restrict(&keep);
        assert_eq!(r.len(), 1);
        assert_eq!(r.apply_term(&Term::var("Y")), Term::var("Y"));
    }
}
