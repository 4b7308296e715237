//! Step 1: schema translation — ODL schema → Datalog relations + ICs.
//!
//! Implements the rules of Section 4.2 of the paper:
//!
//! **Relations.** Each class, structure, relationship and method becomes a
//! relation:
//!
//! 1. class `C` → `c(OID, A1, …, An, OID_S1, …, OID_Sm)` — simple
//!    attributes first, then structure-attribute OIDs, inherited
//!    attributes before own ones;
//! 2. structure `S` → same shape;
//! 3. relationship `R` between `C1`, `C2` → `r(OID_C1, OID_C2)`;
//! 4. method `M` on `C` with arguments `A1…An` → `m(OID_C, A1, …, An, V)`.
//!
//! **Integrity constraints.**
//!
//! 1. OID identification (relationships, structure attributes, methods);
//! 2. subclass hierarchy: `c1(OID, shared…) ← c2(OID, all…)`;
//! 3. inverse relationships: `r1(X, Y) ← r2(Y, X)` and the converse;
//! 4. one-to-one constraints: `Y = Z ← r(X, Y), r(X, Z)` (and the mirror
//!    for the inverse side). We additionally emit the functional
//!    constraint for every to-one relationship side — implicit in the
//!    ODMG object model and required for the Application 4 reasoning;
//! 5. key constraints (IC7-style) for every declared key;
//!
//! plus the IC8-style *OID functionality* of class/structure/method
//! relations, recorded in [`Catalog::functional`].

use sqo_datalog::{Atom, CmpOp, Comparison, Constraint, ConstraintHead, Literal, PredSym, Term};
use sqo_odl::{BaseType, Schema, Type};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What kind of schema element a relation encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelKind {
    /// A class extent relation.
    Class {
        /// The class name.
        class: String,
    },
    /// A structure relation.
    Struct {
        /// The structure name.
        strct: String,
    },
    /// A relationship relation `r(OID_owner, OID_target)`.
    Relationship {
        /// The declaring class.
        class: String,
        /// The relationship name.
        name: String,
        /// The target class.
        target: String,
        /// Whether the declared side is to-many.
        many: bool,
        /// Whether the relationship is one-to-one.
        one_to_one: bool,
    },
    /// A method relation `m(OID, args…, V)`.
    Method {
        /// The declaring class.
        class: String,
        /// The method name.
        name: String,
    },
    /// A registered view (access support relation).
    View {
        /// The view name.
        name: String,
    },
}

/// The type of a relation argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgType {
    /// OID of an object of the named class or structure.
    Oid(String),
    /// A base value.
    Base(BaseType),
}

/// A named, typed relation argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgDesc {
    /// The source-level name (attribute name, `OID`, parameter name, or
    /// `Value` for a method result).
    pub name: String,
    /// The argument's type.
    pub ty: ArgType,
}

/// One relation of the Datalog schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDecl {
    /// The predicate symbol.
    pub pred: PredSym,
    /// What the relation encodes.
    pub kind: RelKind,
    /// Argument descriptors, in order.
    pub args: Vec<ArgDesc>,
}

impl RelationDecl {
    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Position of the named argument.
    pub fn arg_position(&self, name: &str) -> Option<usize> {
        self.args.iter().position(|a| a.name == name)
    }
}

/// The result of Step 1: the Datalog schema.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// All relations, in a deterministic order.
    pub relations: Vec<RelationDecl>,
    /// All generated integrity constraints.
    pub constraints: Vec<Constraint>,
    /// Functional-dependency map (`pred → k`: the first `k` arguments
    /// determine the rest) — the IC8 family. Classes and structures have
    /// `k = 1` (the OID determines every attribute); a method relation
    /// `m(OID, args…, V)` has `k = arity − 1` (receiver and arguments
    /// determine the result).
    pub functional: BTreeMap<PredSym, usize>,
    class_rel: HashMap<String, usize>,
    struct_rel: HashMap<String, usize>,
    rel_rel: HashMap<(String, String), usize>,
    method_rel: HashMap<(String, String), usize>,
    by_pred: sqo_datalog::fxhash::FxHashMap<PredSym, usize>,
    used_names: BTreeSet<String>,
}

impl Catalog {
    /// The relation encoding a class.
    pub fn class_relation(&self, class: &str) -> Option<&RelationDecl> {
        self.class_rel.get(class).map(|&i| &self.relations[i])
    }

    /// The relation encoding a structure.
    pub fn struct_relation(&self, strct: &str) -> Option<&RelationDecl> {
        self.struct_rel.get(strct).map(|&i| &self.relations[i])
    }

    /// The relation encoding a relationship, looked up by declaring class
    /// and relationship name.
    pub fn relationship_relation(&self, class: &str, name: &str) -> Option<&RelationDecl> {
        self.rel_rel
            .get(&(class.to_string(), name.to_string()))
            .map(|&i| &self.relations[i])
    }

    /// The relation encoding a method, looked up by declaring class and
    /// method name.
    pub fn method_relation(&self, class: &str, name: &str) -> Option<&RelationDecl> {
        self.method_rel
            .get(&(class.to_string(), name.to_string()))
            .map(|&i| &self.relations[i])
    }

    /// Look up any relation by predicate symbol.
    pub fn relation_by_pred(&self, pred: &PredSym) -> Option<&RelationDecl> {
        self.by_pred.get(pred).map(|&i| &self.relations[i])
    }

    /// Register a view relation (access support relation) so Step 4 can
    /// map its atoms back to OQL. Re-registering an existing view is a
    /// no-op; a name that collides with a class/relationship/method
    /// relation is qualified (`view_<name>`) rather than silently
    /// aliased — callers must use the returned predicate.
    pub fn register_view(&mut self, name: &str, arity: usize) -> PredSym {
        let mut pred = PredSym::new(name.to_lowercase());
        match self.by_pred.get(&pred).map(|&i| &self.relations[i].kind) {
            Some(RelKind::View { .. }) => return pred,
            Some(_) => pred = PredSym::new(self.fresh_name(name, "view")),
            None => {}
        }
        let name = pred.name().to_string();
        let name = name.as_str();
        let args = (0..arity)
            .map(|i| ArgDesc {
                name: format!("A{i}"),
                ty: ArgType::Base(BaseType::Int),
            })
            .collect();
        self.push(RelationDecl {
            pred,
            kind: RelKind::View {
                name: name.to_string(),
            },
            args,
        });
        pred
    }

    fn push(&mut self, decl: RelationDecl) -> usize {
        let i = self.relations.len();
        self.by_pred.insert(decl.pred, i);
        self.used_names.insert(decl.pred.name().to_string());
        match &decl.kind {
            RelKind::Class { class } => {
                self.class_rel.insert(class.clone(), i);
            }
            RelKind::Struct { strct } => {
                self.struct_rel.insert(strct.clone(), i);
            }
            RelKind::Relationship { class, name, .. } => {
                self.rel_rel.insert((class.clone(), name.clone()), i);
            }
            RelKind::Method { class, name } => {
                self.method_rel.insert((class.clone(), name.clone()), i);
            }
            RelKind::View { .. } => {}
        }
        self.relations.push(decl);
        i
    }

    fn fresh_name(&self, base: &str, qualifier: &str) -> String {
        let base = base.to_lowercase();
        if !self.used_names.contains(&base) {
            return base;
        }
        let qualified = format!("{}_{}", qualifier.to_lowercase(), base);
        if !self.used_names.contains(&qualified) {
            return qualified;
        }
        let mut n = 2;
        loop {
            let name = format!("{qualified}{n}");
            if !self.used_names.contains(&name) {
                return name;
            }
            n += 1;
        }
    }
}

/// Argument descriptors for a class or structure relation: `OID` first,
/// then simple attributes, then structure-attribute OIDs (rule 1),
/// inherited before own.
fn object_args(schema: &Schema, owner: &str, is_class: bool) -> Vec<ArgDesc> {
    let mut args = vec![ArgDesc {
        name: "OID".into(),
        ty: ArgType::Oid(owner.to_string()),
    }];
    let attrs: Vec<(String, Type)> = if is_class {
        schema
            .all_attributes(owner)
            .into_iter()
            .map(|(_, a)| (a.name.clone(), a.ty.clone()))
            .collect()
    } else {
        schema
            .structure(owner)
            .map(|s| {
                s.fields
                    .iter()
                    .map(|f| (f.name.clone(), f.ty.clone()))
                    .collect()
            })
            .unwrap_or_default()
    };
    for (name, ty) in attrs.iter().filter(|(_, t)| matches!(t, Type::Base(_))) {
        let Type::Base(b) = ty else { unreachable!() };
        args.push(ArgDesc {
            name: name.clone(),
            ty: ArgType::Base(*b),
        });
    }
    for (name, ty) in attrs.iter().filter(|(_, t)| matches!(t, Type::Named(_))) {
        let Type::Named(n) = ty else { unreachable!() };
        args.push(ArgDesc {
            name: name.clone(),
            ty: ArgType::Oid(n.clone()),
        });
    }
    args
}

/// A template atom for a relation, with variables named after the
/// argument descriptors (optionally suffixed for freshness).
pub fn template_atom(decl: &RelationDecl, suffix: &str) -> Atom {
    Atom::new(
        decl.pred,
        decl.args
            .iter()
            .map(|a| Term::var(format!("{}{}", capitalize(&a.name), suffix)))
            .collect(),
    )
}

fn capitalize(s: &str) -> String {
    let mut cs = s.chars();
    match cs.next() {
        Some(first) => first.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

/// Run Step 1: translate an ODL schema into the Datalog [`Catalog`].
pub fn translate_schema(schema: &Schema) -> Catalog {
    let mut cat = Catalog::default();

    // ---- Relations -------------------------------------------------
    for c in schema.classes() {
        let pred = PredSym::new(cat.fresh_name(&c.name, "class"));
        let args = object_args(schema, &c.name, true);
        cat.functional.insert(pred, 1);
        cat.push(RelationDecl {
            pred,
            kind: RelKind::Class {
                class: c.name.clone(),
            },
            args,
        });
    }
    for s in schema.structures() {
        let pred = PredSym::new(cat.fresh_name(&s.name, "struct"));
        let args = object_args(schema, &s.name, false);
        cat.functional.insert(pred, 1);
        cat.push(RelationDecl {
            pred,
            kind: RelKind::Struct {
                strct: s.name.clone(),
            },
            args,
        });
    }
    for c in schema.classes() {
        for r in &c.relationships {
            let pred = PredSym::new(cat.fresh_name(&r.name, &c.name));
            cat.push(RelationDecl {
                pred,
                kind: RelKind::Relationship {
                    class: c.name.clone(),
                    name: r.name.clone(),
                    target: r.target.clone(),
                    many: r.many,
                    one_to_one: schema.is_one_to_one(&c.name, r),
                },
                args: vec![
                    ArgDesc {
                        name: "OID1".into(),
                        ty: ArgType::Oid(c.name.clone()),
                    },
                    ArgDesc {
                        name: "OID2".into(),
                        ty: ArgType::Oid(r.target.clone()),
                    },
                ],
            });
        }
        for m in &c.methods {
            let pred = PredSym::new(cat.fresh_name(&m.name, &c.name));
            let mut args = vec![ArgDesc {
                name: "OID".into(),
                ty: ArgType::Oid(c.name.clone()),
            }];
            for (pname, pty) in &m.params {
                args.push(ArgDesc {
                    name: pname.clone(),
                    ty: match pty {
                        Type::Base(b) => ArgType::Base(*b),
                        Type::Named(n) => ArgType::Oid(n.clone()),
                        Type::Collection(..) => ArgType::Base(BaseType::Int),
                    },
                });
            }
            args.push(ArgDesc {
                name: "Value".into(),
                ty: match &m.ret {
                    Type::Base(b) => ArgType::Base(*b),
                    Type::Named(n) => ArgType::Oid(n.clone()),
                    Type::Collection(..) => ArgType::Base(BaseType::Int),
                },
            });
            // Methods are functional: receiver OID plus the user-provided
            // arguments determine the result value.
            cat.functional.insert(pred, args.len() - 1);
            cat.push(RelationDecl {
                pred,
                kind: RelKind::Method {
                    class: c.name.clone(),
                    name: m.name.clone(),
                },
                args,
            });
        }
    }

    // ---- Integrity constraints -------------------------------------
    let mut ics: Vec<Constraint> = Vec::new();

    // 1a. OID identification for relationships.
    for decl in cat.relations.clone() {
        let RelKind::Relationship {
            class,
            name,
            target,
            ..
        } = &decl.kind
        else {
            continue;
        };
        let r_atom = Atom::new(decl.pred, vec![Term::var("OID1"), Term::var("OID2")]);
        if let Some(cd) = cat.class_relation(class) {
            let mut head = template_atom(cd, "_a");
            head.args[0] = Term::var("OID1");
            ics.push(Constraint::named(
                format!("OID({}.{},{})", class, name, class),
                ConstraintHead::Atom(head),
                vec![Literal::Pos(r_atom.clone())],
            ));
        }
        if let Some(td) = cat.class_relation(target) {
            let mut head = template_atom(td, "_b");
            head.args[0] = Term::var("OID2");
            ics.push(Constraint::named(
                format!("OID({}.{},{})", class, name, target),
                ConstraintHead::Atom(head),
                vec![Literal::Pos(r_atom)],
            ));
        }
    }

    // 1b. OID identification for structure attributes.
    for decl in cat.relations.clone() {
        let RelKind::Class { class } = &decl.kind else {
            continue;
        };
        for (pos, arg) in decl.args.iter().enumerate().skip(1) {
            let ArgType::Oid(target) = &arg.ty else {
                continue;
            };
            let Some(sd) = cat.struct_relation(target) else {
                continue; // class-typed attribute without a struct decl
            };
            let body_atom = template_atom(&decl, "_c");
            let shared = body_atom.args[pos];
            let mut head = template_atom(sd, "_s");
            head.args[0] = shared;
            ics.push(Constraint::named(
                format!("OID({}.{},{})", class, arg.name, target),
                ConstraintHead::Atom(head),
                vec![Literal::Pos(body_atom)],
            ));
        }
    }

    // 1c. OID identification for methods.
    for decl in cat.relations.clone() {
        let RelKind::Method { class, name } = &decl.kind else {
            continue;
        };
        let Some(cd) = cat.class_relation(class) else {
            continue;
        };
        let body_atom = template_atom(&decl, "_m");
        let oid = body_atom.args[0];
        let mut head = template_atom(cd, "_h");
        head.args[0] = oid;
        ics.push(Constraint::named(
            format!("OID({}.{})", class, name),
            ConstraintHead::Atom(head),
            vec![Literal::Pos(body_atom)],
        ));
    }

    // 2. Subclass hierarchy: attributes matched by name.
    for c in schema.classes() {
        let Some(sup) = &c.super_class else { continue };
        let (Some(sub_rel), Some(sup_rel)) = (cat.class_relation(&c.name), cat.class_relation(sup))
        else {
            continue;
        };
        let body_atom = template_atom(sub_rel, "");
        let head_args: Vec<Term> = sup_rel
            .args
            .iter()
            .map(|a| {
                let pos = sub_rel
                    .arg_position(&a.name)
                    .expect("superclass attribute present in subclass relation");
                body_atom.args[pos]
            })
            .collect();
        ics.push(Constraint::named(
            format!("SUB({}<{})", c.name, sup),
            ConstraintHead::Atom(Atom::new(sup_rel.pred, head_args)),
            vec![Literal::Pos(body_atom)],
        ));
    }

    // 3. Inverse relationships.
    for c in schema.classes() {
        for r in &c.relationships {
            let Some((icls, irel)) = &r.inverse else {
                continue;
            };
            let (Some(fwd), Some(bwd)) = (
                cat.relationship_relation(&c.name, &r.name),
                cat.relationship_relation(icls, irel),
            ) else {
                continue;
            };
            ics.push(Constraint::named(
                format!("INV({}.{})", c.name, r.name),
                ConstraintHead::Atom(Atom::new(fwd.pred, vec![Term::var("X"), Term::var("Y")])),
                vec![Literal::pos(
                    bwd.pred.name(),
                    vec![Term::var("Y"), Term::var("X")],
                )],
            ));
        }
    }

    // 4. Functional / one-to-one constraints.
    for decl in cat.relations.clone() {
        let RelKind::Relationship {
            class,
            name,
            many,
            one_to_one,
            ..
        } = &decl.kind
        else {
            continue;
        };
        if !many {
            // This side is to-one: the owner determines the target.
            ics.push(Constraint::named(
                format!("FUN({}.{})", class, name),
                ConstraintHead::Cmp(Comparison::new(Term::var("Y1"), CmpOp::Eq, Term::var("Y2"))),
                vec![
                    Literal::pos(decl.pred.name(), vec![Term::var("X"), Term::var("Y1")]),
                    Literal::pos(decl.pred.name(), vec![Term::var("X"), Term::var("Y2")]),
                ],
            ));
        }
        if *one_to_one {
            ics.push(Constraint::named(
                format!("1-1({}.{})", class, name),
                ConstraintHead::Cmp(Comparison::new(Term::var("X1"), CmpOp::Eq, Term::var("X2"))),
                vec![
                    Literal::pos(decl.pred.name(), vec![Term::var("X1"), Term::var("Y")]),
                    Literal::pos(decl.pred.name(), vec![Term::var("X2"), Term::var("Y")]),
                ],
            ));
        }
    }

    // 5. Key constraints (IC7-style). A key declared on a class also
    //    holds on every subclass (its extent is a subset), and the
    //    subclass form is what Application 3 applies to faculty atoms.
    for c in schema.classes() {
        let mut keyed: Vec<Vec<String>> = Vec::new();
        for anc in schema.chain(&c.name) {
            for key in &anc.keys {
                if !keyed.contains(key) {
                    keyed.push(key.clone());
                }
            }
        }
        let Some(decl) = cat.class_relation(&c.name) else {
            continue;
        };
        for key in &keyed {
            let a1 = template_atom(decl, "_k1");
            let a2 = template_atom(decl, "_k2");
            let mut body = vec![Literal::Pos(a1.clone()), Literal::Pos(a2.clone())];
            let mut ok = true;
            for attr in key {
                match decl.arg_position(attr) {
                    Some(pos) => body.push(Literal::Cmp(Comparison::new(
                        a1.args[pos],
                        CmpOp::Eq,
                        a2.args[pos],
                    ))),
                    None => ok = false,
                }
            }
            if !ok {
                continue;
            }
            ics.push(Constraint::named(
                format!("KEY({}.{})", c.name, key.join("+")),
                ConstraintHead::Cmp(Comparison::new(a1.args[0], CmpOp::Eq, a2.args[0])),
                body,
            ));
        }
    }

    cat.constraints = ics;
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_odl::fixtures::university_schema;

    fn catalog() -> Catalog {
        translate_schema(&university_schema())
    }

    #[test]
    fn class_relations_have_rule1_layout() {
        let cat = catalog();
        let person = cat.class_relation("Person").unwrap();
        let names: Vec<&str> = person.args.iter().map(|a| a.name.as_str()).collect();
        // OID, simple attrs (name, age), then structure OIDs (address).
        assert_eq!(names, vec!["OID", "name", "age", "address"]);
        assert!(matches!(&person.args[3].ty, ArgType::Oid(s) if s == "Address"));

        let faculty = cat.class_relation("Faculty").unwrap();
        let fnames: Vec<&str> = faculty.args.iter().map(|a| a.name.as_str()).collect();
        // Inherited simple attrs first, then own, then structure OIDs.
        assert_eq!(
            fnames,
            vec!["OID", "name", "age", "salary", "rank", "address"]
        );
    }

    #[test]
    fn relationship_and_method_relations() {
        let cat = catalog();
        let takes = cat.relationship_relation("Student", "takes").unwrap();
        assert_eq!(takes.pred.name(), "takes");
        assert_eq!(takes.arity(), 2);
        let tw = cat.method_relation("Employee", "taxes_withheld").unwrap();
        assert_eq!(tw.pred.name(), "taxes_withheld");
        // m(OID, Rate, Value)
        assert_eq!(tw.arity(), 3);
        assert_eq!(tw.args[1].name, "rate");
        assert_eq!(tw.args[2].name, "Value");
    }

    #[test]
    fn functional_covers_classes_structs_methods() {
        let cat = catalog();
        for p in ["person", "faculty", "address"] {
            assert_eq!(
                cat.functional.get(&PredSym::new(p)),
                Some(&1),
                "{p} should be OID-functional"
            );
        }
        // taxes_withheld(OID, Rate, Value): OID + Rate determine Value.
        assert_eq!(
            cat.functional.get(&PredSym::new("taxes_withheld")),
            Some(&2)
        );
        assert!(!cat.functional.contains_key(&PredSym::new("takes")));
    }

    #[test]
    fn subclass_ics_match_attributes_by_name() {
        let cat = catalog();
        let sub = cat
            .constraints
            .iter()
            .find(|c| c.name.as_deref() == Some("SUB(Faculty<Employee)"))
            .expect("subclass IC");
        let ConstraintHead::Atom(head) = &sub.head else {
            panic!()
        };
        assert_eq!(head.pred.name(), "employee");
        // employee args: OID, name, age, salary, address — all shared with
        // faculty's template.
        assert_eq!(head.args.len(), 5);
        let Literal::Pos(body) = &sub.body[0] else {
            panic!()
        };
        assert_eq!(body.pred.name(), "faculty");
        assert_eq!(body.args.len(), 6);
        // The head's salary var must equal the body's salary var.
        let faculty = cat.class_relation("Faculty").unwrap();
        let employee = cat.class_relation("Employee").unwrap();
        let f_sal = faculty.arg_position("salary").unwrap();
        let e_sal = employee.arg_position("salary").unwrap();
        assert_eq!(head.args[e_sal], body.args[f_sal]);
    }

    #[test]
    fn inverse_ics_generated_both_ways() {
        let cat = catalog();
        let inv: Vec<&Constraint> = cat
            .constraints
            .iter()
            .filter(|c| c.name.as_deref().is_some_and(|n| n.starts_with("INV")))
            .collect();
        // Each of the 4 inverse pairs yields 2 ICs.
        assert_eq!(inv.len(), 8);
        let takes_inv = inv
            .iter()
            .find(|c| c.name.as_deref() == Some("INV(Student.takes)"))
            .unwrap();
        assert_eq!(
            takes_inv.to_string(),
            "INV(Student.takes): takes(X, Y) <- taken_by(Y, X)"
        );
    }

    #[test]
    fn one_to_one_ics_for_has_ta() {
        let cat = catalog();
        assert!(cat
            .constraints
            .iter()
            .any(|c| c.name.as_deref() == Some("FUN(Section.has_ta)")));
        assert!(cat
            .constraints
            .iter()
            .any(|c| c.name.as_deref() == Some("1-1(Section.has_ta)")));
        // takes is many-many: neither.
        assert!(!cat.constraints.iter().any(|c| c
            .name
            .as_deref()
            .is_some_and(|n| n.contains("Student.takes)") && n.starts_with("FUN"))));
    }

    #[test]
    fn key_ics_ic7_shape() {
        let cat = catalog();
        let key = cat
            .constraints
            .iter()
            .find(|c| c.name.as_deref() == Some("KEY(Person.name)"))
            .expect("person name key");
        let ConstraintHead::Cmp(h) = &key.head else {
            panic!()
        };
        assert_eq!(h.op, CmpOp::Eq);
        assert_eq!(key.body.len(), 3); // two person atoms + name equality
    }

    #[test]
    fn oid_identification_ics_present() {
        let cat = catalog();
        // Relationship endpoints.
        assert!(cat
            .constraints
            .iter()
            .any(|c| c.name.as_deref() == Some("OID(Student.takes,Student)")));
        assert!(cat
            .constraints
            .iter()
            .any(|c| c.name.as_deref() == Some("OID(Student.takes,Section)")));
        // Structure attribute.
        assert!(cat
            .constraints
            .iter()
            .any(|c| c.name.as_deref() == Some("OID(Person.address,Address)")));
        // Method.
        assert!(cat
            .constraints
            .iter()
            .any(|c| c.name.as_deref() == Some("OID(Employee.taxes_withheld)")));
    }

    #[test]
    fn taught_by_oid_identification_types_the_target() {
        // Section 4.3: "faculty(Z, …) ← taught_by(Y, Z)" — the IC that
        // types z in Example 2.
        let cat = catalog();
        let ic = cat
            .constraints
            .iter()
            .find(|c| c.name.as_deref() == Some("OID(Section.is_taught_by,Faculty)"))
            .expect("typing IC");
        let ConstraintHead::Atom(h) = &ic.head else {
            panic!()
        };
        assert_eq!(h.pred.name(), "faculty");
        let Literal::Pos(b) = &ic.body[0] else {
            panic!()
        };
        assert_eq!(b.pred.name(), "is_taught_by");
        // Head OID = body's second argument.
        assert_eq!(h.args[0], b.args[1]);
    }

    #[test]
    fn name_collisions_are_qualified() {
        let schema = Schema::parse(
            "interface A { attribute string x; };
             interface B { relationship A a inverse A::back; };
             interface AClash { };",
        );
        // `a` relation name for class A (lowercase) collides with
        // relationship `a`. Build a schema where that happens:
        let schema2 = Schema::parse(
            "interface A { };
             interface B { relationship A a inverse A::back_b; };",
        );
        // Neither schema is inverse-complete; just check fresh_name logic
        // directly instead.
        let _ = (schema, schema2);
        let mut cat = Catalog::default();
        cat.used_names.insert("a".into());
        assert_eq!(cat.fresh_name("A", "B"), "b_a");
        cat.used_names.insert("b_a".into());
        assert_eq!(cat.fresh_name("A", "B"), "b_a2");
    }

    #[test]
    fn register_view() {
        let mut cat = catalog();
        let pred = cat.register_view("ASR", 2);
        assert_eq!(pred.name(), "asr");
        assert!(matches!(
            &cat.relation_by_pred(&pred).unwrap().kind,
            RelKind::View { name } if name == "asr"
        ));
        // Idempotent.
        let again = cat.register_view("ASR", 2);
        assert_eq!(again, pred);
    }
}
