//! Atoms, comparisons and literals.

use crate::intern::Sym;
use crate::term::{Term, Var};
use std::fmt;

/// A predicate symbol. By convention predicate symbols start with a
/// lower-case letter (`faculty`, `takes_section`).
///
/// Backed by an interned [`Sym`]: `Copy`, and predicate equality inside
/// unification, subsumption and the residue indexes is a single integer
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredSym(pub Sym);

impl PredSym {
    /// Create a predicate symbol.
    pub fn new(name: impl Into<Sym>) -> Self {
        PredSym(name.into())
    }

    /// The symbol's name.
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for PredSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for PredSym {
    fn from(s: &str) -> Self {
        PredSym(Sym::intern(s))
    }
}

impl From<String> for PredSym {
    fn from(s: String) -> Self {
        PredSym(Sym::intern(&s))
    }
}

/// An atom `p(t1, ..., tn)` over a database (or view) predicate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The predicate symbol.
    pub pred: PredSym,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Create an atom.
    pub fn new(pred: impl Into<PredSym>, args: Vec<Term>) -> Self {
        Atom {
            pred: pred.into(),
            args,
        }
    }

    /// The atom's arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Iterate over the variables occurring in the atom (with duplicates).
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.args.iter().filter_map(Term::as_var)
    }

    /// Whether the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_ground)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            t.fmt(f)?;
        }
        f.write_str(")")
    }
}

/// Comparison operators for evaluable (built-in) atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator's logical negation (`<` ↦ `>=`, `=` ↦ `!=`, …).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with its operands swapped (`<` ↦ `>`, `=` ↦ `=`, …).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Evaluate the operator on a concrete ordering result.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `Display` text of a term in a fixed buffer on the stack.
struct StackText {
    buf: [u8; 48],
    len: usize,
}

impl StackText {
    /// Render `t`; `None` when its text does not fit.
    fn of(t: &Term) -> Option<StackText> {
        use fmt::Write;
        let mut text = StackText {
            buf: [0; 48],
            len: 0,
        };
        write!(text, "{t}").ok()?;
        Some(text)
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let free = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
        free.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// An evaluable atom `t1 θ t2`, e.g. `Age > 30`, `Name1 = Name2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Comparison {
    /// Left operand.
    pub lhs: Term,
    /// The comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Term,
}

impl Comparison {
    /// Create a comparison.
    pub fn new(lhs: Term, op: CmpOp, rhs: Term) -> Self {
        Comparison { lhs, op, rhs }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: Term, rhs: Term) -> Self {
        Comparison::new(lhs, CmpOp::Eq, rhs)
    }

    /// The logically negated comparison.
    pub fn negate(&self) -> Comparison {
        Comparison::new(self.lhs, self.op.negate(), self.rhs)
    }

    /// The same constraint with operands swapped (`X < Y` ↦ `Y > X`).
    pub fn flip(&self) -> Comparison {
        Comparison::new(self.rhs, self.op.flip(), self.lhs)
    }

    /// Whether the two comparisons state the same constraint: equal, or
    /// equal once one is flipped (`X < Y` and `Y > X`). The same relation
    /// as `self.canonical() == other.canonical()`, without rendering
    /// either side.
    pub fn same_as(&self, other: &Comparison) -> bool {
        self == other || *self == other.flip()
    }

    /// A canonical orientation, so that `X = Y` and `Y = X` normalize
    /// identically: of the comparison and its flip, the one whose
    /// [`Display`](fmt::Display) text sorts first (`30 < Age`, not
    /// `Age > 30`). The two texts are compared piece by piece — operand,
    /// operator, operand — with each operand rendered once, on the stack;
    /// only an operand whose text is longer than 48 bytes goes through two
    /// heap `String`s.
    pub fn canonical(&self) -> Comparison {
        fn text<'a>(l: &'a [u8], op: CmpOp, r: &'a [u8]) -> impl Iterator<Item = &'a u8> {
            let op = op.as_str().as_bytes();
            l.iter().chain(b" ").chain(op).chain(b" ").chain(r)
        }
        let flipped = self.flip();
        let flipped_first = match (StackText::of(&self.lhs), StackText::of(&self.rhs)) {
            (Some(l), Some(r)) => {
                let (l, r) = (l.bytes(), r.bytes());
                text(r, flipped.op, l).lt(text(l, self.op, r))
            }
            _ => flipped.to_string() < self.to_string(),
        };
        if flipped_first {
            flipped
        } else {
            *self
        }
    }

    /// Iterate over the variables in the comparison.
    pub fn vars(&self) -> impl Iterator<Item = &Var> {
        self.lhs.as_var().into_iter().chain(self.rhs.as_var())
    }

    /// Whether both operands are constants.
    pub fn is_ground(&self) -> bool {
        self.lhs.is_ground() && self.rhs.is_ground()
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// A body literal: a positive atom, a negative atom, or a comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// `p(...)`
    Pos(Atom),
    /// `not p(...)`
    Neg(Atom),
    /// `t1 θ t2`
    Cmp(Comparison),
}

impl Literal {
    /// Positive literal constructor.
    pub fn pos(pred: impl Into<PredSym>, args: Vec<Term>) -> Self {
        Literal::Pos(Atom::new(pred, args))
    }

    /// Negative literal constructor.
    pub fn neg(pred: impl Into<PredSym>, args: Vec<Term>) -> Self {
        Literal::Neg(Atom::new(pred, args))
    }

    /// Comparison literal constructor.
    pub fn cmp(lhs: Term, op: CmpOp, rhs: Term) -> Self {
        Literal::Cmp(Comparison::new(lhs, op, rhs))
    }

    /// The atom inside, if this is a (positive or negative) database literal.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => Some(a),
            Literal::Cmp(_) => None,
        }
    }

    /// The predicate symbol, if this is a database literal.
    pub fn pred(&self) -> Option<&PredSym> {
        self.atom().map(|a| &a.pred)
    }

    /// All variables occurring in the literal (with duplicates).
    pub fn vars(&self) -> Vec<&Var> {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a.vars().collect(),
            Literal::Cmp(c) => c.vars().collect(),
        }
    }

    /// [`Literal::vars`] without the allocation.
    pub fn iter_vars(&self) -> impl Iterator<Item = &Var> {
        let (atom, cmp) = match self {
            Literal::Pos(a) | Literal::Neg(a) => (Some(a), None),
            Literal::Cmp(c) => (None, Some(c)),
        };
        let in_atom = atom.into_iter().flat_map(|a| a.vars());
        in_atom.chain(cmp.into_iter().flat_map(|c| c.vars()))
    }

    /// Whether this literal is positive (a plain database atom).
    pub fn is_positive(&self) -> bool {
        matches!(self, Literal::Pos(_))
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => a.fmt(f),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(c) => c.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn cmp_op_negate_flip_roundtrip() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn cmp_op_test_semantics() {
        assert!(CmpOp::Lt.test(Ordering::Less));
        assert!(!CmpOp::Lt.test(Ordering::Equal));
        assert!(CmpOp::Le.test(Ordering::Equal));
        assert!(CmpOp::Ge.test(Ordering::Greater));
        assert!(CmpOp::Ne.test(Ordering::Less));
        assert!(!CmpOp::Eq.test(Ordering::Greater));
    }

    #[test]
    fn atom_display() {
        let a = Atom::new(
            "faculty",
            vec![Term::var("Sec"), Term::var("F"), Term::var("Age")],
        );
        assert_eq!(a.to_string(), "faculty(Sec, F, Age)");
        assert_eq!(a.arity(), 3);
        assert!(!a.is_ground());
    }

    #[test]
    fn literal_display() {
        let l = Literal::cmp(Term::var("Age"), CmpOp::Gt, Term::int(30));
        assert_eq!(l.to_string(), "Age > 30");
        let n = Literal::neg("faculty", vec![Term::var("X")]);
        assert_eq!(n.to_string(), "not faculty(X)");
    }

    #[test]
    fn comparison_canonical_orients_consistently() {
        let c1 = Comparison::new(Term::var("X"), CmpOp::Eq, Term::var("Y"));
        let c2 = Comparison::new(Term::var("Y"), CmpOp::Eq, Term::var("X"));
        assert_eq!(c1.canonical(), c2.canonical());
        let c3 = Comparison::new(Term::var("X"), CmpOp::Lt, Term::var("Y"));
        let c4 = Comparison::new(Term::var("Y"), CmpOp::Gt, Term::var("X"));
        assert_eq!(c3.canonical(), c4.canonical());
    }

    #[test]
    fn literal_vars() {
        let l = Literal::pos("takes", vec![Term::var("X"), Term::var("Y")]);
        let vs: Vec<_> = l.vars().into_iter().map(|v| v.name().to_string()).collect();
        assert_eq!(vs, vec!["X", "Y"]);
    }
}
