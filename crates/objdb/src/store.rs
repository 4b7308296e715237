//! The in-memory object store: objects, extents, relationships, methods
//! and access support relations.
//!
//! This is the execution substrate the paper assumes: an ODMG-style
//! object base that maintains **class extents** (including subclass
//! members — the basis for Application 2's scope reduction), binary
//! **relationships** with inverse maintenance and cardinality
//! enforcement, registered Rust closures as **methods**, and
//! materialized **access support relations** over relationship paths
//! (Kemper–Moerkotte; Application 4).
//!
//! [`ObjectDb::edb_pinned`] exposes the whole store in the Datalog
//! representation of Step 1, so translated queries run directly against
//! it; an `Arc`-shared cache keeps repeated query evaluation cheap
//! while letting callers pin a consistent snapshot — a writer that
//! arrives later marks the relations it writes stale, and the next read
//! rebuilds those and shares the rest, without disturbing pinned readers.
//!
//! Every mutation is checked, expressed as [`StoreOp`]s, appended to the
//! attached durable [`ShardedStore`] (if any, via [`ObjectDb::open`] or
//! [`ObjectDb::from_store`]), and only then applied to the in-memory
//! maps by the one `apply` that recovery also runs: the WAL always leads
//! the materialized state, and recovery replays to exactly the
//! acknowledged prefix. Compound mutations commit as a single atomic
//! [`StoreOp::Batch`] (one WAL frame): a `link` batches the relation
//! with its inverse, a `delete` batches one `Unlink` per severed pair
//! with the `RemoveObject` — so a crash can never persist a forward
//! link whose inverse is missing, or a half-severed object.

use crate::error::{ObjDbError, Result};
use crate::value::{from_const, to_const, Oid, Value};
use sqo_datalog::fxhash::{FxHashMap, FxHashSet};
use sqo_datalog::program::{EdbDatabase, Relation};
use sqo_datalog::{Atom, Const, Literal, PredSym, Rule, Term};
use sqo_odl::{BaseType, Member, Schema, Type};
use sqo_store::{PersistReport, ShardedStore, StoreOp, StoreView};
use sqo_translate::{translate_schema, ArgType, Catalog, RelKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

/// A stored object (or structure instance): the store's record, held in
/// the head as it was logged.
pub use sqo_store::StoredObject as Object;

/// A registered method implementation. `Send` so a populated store can
/// move behind a `Mutex` shared across service worker threads.
pub type MethodFn = Box<dyn Fn(&ObjectDb, Oid, &[Value]) -> Result<Value> + Send>;

/// A defined access support relation.
#[derive(Debug, Clone)]
pub struct AsrDef {
    /// The view predicate name.
    pub name: String,
    /// The class the path starts at, as given to `define_asr` (kept so
    /// the definition can be re-played from a durable store).
    pub src_class: String,
    /// The relationship *member* names along the path, as given to
    /// `define_asr`.
    pub src_path: Vec<String>,
    /// The relationship predicates along the path, in order.
    pub path: Vec<String>,
    /// The view definition rule `asr(X0, Xn) ← r1(X0, X1), …`.
    pub rule: Rule,
}

/// The in-memory object database.
pub struct ObjectDb {
    schema: Schema,
    catalog: Catalog,
    objects: HashMap<Oid, Object>,
    /// Extents per class/structure name — a class's extent includes its
    /// subclasses' instances.
    extents: HashMap<String, Vec<Oid>>,
    /// Relationship pairs per relation predicate name.
    links: HashMap<String, Vec<(Oid, Oid)>>,
    link_sets: HashMap<String, HashSet<(Oid, Oid)>>,
    methods: HashMap<String, MethodFn>,
    asrs: Vec<AsrDef>,
    next_oid: u64,
    /// Local cache epoch: bumped on every mutation. When a store is
    /// attached this moves in lockstep with store writes but remains a
    /// purely local counter (method registration also bumps it).
    generation: u64,
    /// Attached durable store; `None` for a purely in-memory database.
    store: Option<Arc<ShardedStore>>,
    /// Per class or structure name, the EDB relations its objects have
    /// rows in: fixed by the schema, so a write finds what it makes
    /// stale in O(class chain).
    members: HashMap<String, Members>,
    /// The method relations, which every data write resets.
    method_rels: Vec<PredSym>,
    /// Cached Datalog representation of the current generation: a write
    /// marks the relations it changes stale, and the next read rebuilds
    /// those. Pinned `Arc` clones handed out earlier stay valid and
    /// unchanged.
    edb_cache: RefCell<Option<EdbCacheEntry>>,
}

/// The EDB relations an object of one class (or structure) has rows in.
#[derive(Default)]
struct Members {
    /// The class relation of each class of its chain (a structure: its
    /// own relation): what a `SetAttr` changes.
    rows: Vec<PredSym>,
    /// Their `__extent` relations, which a `PutObject` or `RemoveObject`
    /// changes too.
    extents: Vec<PredSym>,
}

/// The cached EDB, the method/argument combinations already
/// materialized into it, and the relations written since.
struct EdbCacheEntry {
    edb: Arc<EdbDatabase>,
    methods: HashSet<(String, Vec<Const>)>,
    /// Relations of `edb` that writes have changed: the next read
    /// rebuilds them, and an unpinned `edb` no longer holds them.
    stale: FxHashSet<PredSym>,
}

/// The unary relation of a class or structure relation's OIDs.
fn extent_pred(pred: PredSym) -> PredSym {
    PredSym::new(format!("{}__extent", pred.name()))
}

/// A binary relation of OID pairs, both columns hash-declared.
fn pair_relation(pairs: &[(Oid, Oid)]) -> Relation {
    let mut rel = Relation::with_arity(2);
    rel.declare_hash_index(0);
    rel.declare_hash_index(1);
    rel.reserve(pairs.len());
    for (f, t) in pairs {
        rel.insert(&[Const::Oid(f.0), Const::Oid(t.0)])
            .expect("binary");
    }
    rel
}

/// One WAL frame for a write's ops: the op itself, or a `Batch` of them.
fn one_frame(mut ops: Vec<StoreOp>) -> StoreOp {
    match ops.len() {
        1 => ops.pop().expect("one op"),
        _ => StoreOp::Batch { ops },
    }
}

impl std::fmt::Debug for ObjectDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectDb")
            .field("objects", &self.objects.len())
            .field("classes", &self.extents.len())
            .field("asrs", &self.asrs.len())
            .finish()
    }
}

impl ObjectDb {
    /// Create an empty database over a schema.
    pub fn new(schema: Schema) -> Self {
        let catalog = translate_schema(&schema);
        let mut members: HashMap<String, Members> = HashMap::new();
        for cls in schema.classes() {
            let m = members.entry(cls.name.clone()).or_default();
            for c in schema.chain(&cls.name) {
                if let Some(decl) = catalog.class_relation(&c.name) {
                    m.rows.push(decl.pred);
                    m.extents.push(extent_pred(decl.pred));
                }
            }
        }
        for strct in schema.structures() {
            if let Some(decl) = catalog.struct_relation(&strct.name) {
                let (rows, extents) = (vec![decl.pred], vec![extent_pred(decl.pred)]);
                members.insert(strct.name.clone(), Members { rows, extents });
            }
        }
        let method_rels = catalog
            .relations
            .iter()
            .filter(|d| matches!(d.kind, RelKind::Method { .. }))
            .map(|d| d.pred)
            .collect();
        ObjectDb {
            schema,
            catalog,
            objects: HashMap::new(),
            extents: HashMap::new(),
            links: HashMap::new(),
            link_sets: HashMap::new(),
            methods: HashMap::new(),
            asrs: Vec::new(),
            next_oid: 1,
            generation: 0,
            store: None,
            members,
            method_rels,
            edb_cache: RefCell::new(None),
        }
    }

    /// Open (or create) a durable database at `dir`: recovers the store
    /// (latest snapshot plus WAL tail) and attaches it so subsequent
    /// mutations are logged. Registered methods are *not* persisted —
    /// re-register them after opening.
    pub fn open(schema: Schema, dir: &Path, n_shards: usize) -> Result<ObjectDb> {
        let store = Arc::new(ShardedStore::open(dir, n_shards)?);
        Self::from_store(schema, store)
    }

    /// Build a database from an already-opened store, replaying its
    /// current view into the in-memory representation, then attach it.
    pub fn from_store(schema: Schema, store: Arc<ShardedStore>) -> Result<ObjectDb> {
        let mut db = ObjectDb::new(schema);
        let view = store.view();
        db.load_view(&view)?;
        db.next_oid = view.next_oid().max(1);
        db.generation = view.generation();
        db.store = Some(store);
        Ok(db)
    }

    /// Dump the current logical state into a fresh store at `dir` and
    /// write a snapshot. The target directory must not already hold
    /// store state. The receiver keeps (or keeps lacking) its own
    /// attachment; use [`ObjectDb::open`] on `dir` to work against the
    /// copy.
    pub fn save_to(&self, dir: &Path, n_shards: usize) -> Result<PersistReport> {
        let store = ShardedStore::open(dir, n_shards)?;
        if store.object_count() != 0 {
            return Err(ObjDbError::Store(sqo_store::StoreError::Invalid {
                detail: format!("save_to target {} is not empty", dir.display()),
            }));
        }
        let mut oids: Vec<&Oid> = self.objects.keys().collect();
        oids.sort_unstable();
        for oid in oids {
            let obj = &self.objects[oid];
            store.apply(&StoreOp::PutObject {
                oid: oid.0,
                class: obj.class.clone(),
                attrs: obj
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            })?;
        }
        let mut preds: Vec<&String> = self.links.keys().collect();
        preds.sort_unstable();
        for pred in preds {
            for (f, t) in &self.links[pred] {
                store.apply(&StoreOp::Link {
                    pred: pred.clone(),
                    from: f.0,
                    to: t.0,
                })?;
            }
        }
        for def in &self.asrs {
            store.apply(&StoreOp::DefineAsr {
                name: def.name.clone(),
                class: def.src_class.clone(),
                path: def.src_path.clone(),
            })?;
        }
        store.bump_next_oid(self.next_oid);
        Ok(store.persist()?)
    }

    /// Replay a pinned store view into the (empty) head through
    /// [`apply`](Self::apply), the one path live writes take too.
    fn load_view(&mut self, view: &StoreView) -> Result<()> {
        // Objects in OID order: OIDs allocate monotonically in creation
        // order, so this reproduces every extent's original order.
        for (oid, obj) in view.objects_sorted() {
            self.apply(StoreOp::PutObject {
                oid,
                class: obj.class.clone(),
                attrs: obj
                    .attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            })?;
        }
        // Links ordered by their global sequence stamps: per-predicate
        // insertion order comes back exactly. Inverses are stored as
        // their own pairs.
        for (pred, pairs) in view.links_by_pred() {
            for (from, to) in pairs {
                let pred = pred.clone();
                self.apply(StoreOp::Link { pred, from, to })?;
            }
        }
        for asr in view.asrs() {
            self.apply(StoreOp::DefineAsr {
                name: asr.name.clone(),
                class: asr.class.clone(),
                path: asr.path.clone(),
            })?;
        }
        Ok(())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The Step 1 catalog (with registered ASR views).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The defined access support relations.
    pub fn asrs(&self) -> &[AsrDef] {
        &self.asrs
    }

    /// View rules for all defined ASRs (for the SQO transform context).
    pub fn asr_rules(&self) -> Vec<Rule> {
        self.asrs.iter().map(|a| a.rule.clone()).collect()
    }

    /// The local cache epoch. Bumped by every mutation; EDB snapshots
    /// pinned at an older generation remain valid but are no longer
    /// served for fresh reads.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<ShardedStore>> {
        self.store.as_ref()
    }

    /// The attached store's generation (0 for an in-memory database).
    pub fn store_generation(&self) -> u64 {
        self.store.as_ref().map(|s| s.generation()).unwrap_or(0)
    }

    /// Force a snapshot of the attached store and truncate its WALs.
    /// `Ok(None)` for an in-memory database.
    pub fn persist(&self) -> Result<Option<PersistReport>> {
        match &self.store {
            Some(store) => Ok(Some(store.persist()?)),
            None => Ok(None),
        }
    }

    /// Bump the cache epoch and mark the relations `op` writes stale in
    /// the cached EDB, before `op` is applied; `None` — a change to what
    /// the catalog or the methods say, e.g. method registration — stales
    /// the whole EDB. An unpinned cached EDB drops its stale relations
    /// here, so the old rows are freed at the write.
    fn touch(&mut self, op: Option<&StoreOp>) {
        self.generation += 1;
        if self.edb_cache.get_mut().is_none() {
            return;
        }
        let mut stale = self.method_rels.clone();
        if !op.is_some_and(|op| self.writes(op, &mut stale)) {
            *self.edb_cache.get_mut() = None;
            return;
        }
        let entry = self.edb_cache.get_mut().as_mut().expect("checked above");
        if let Some(db) = Arc::get_mut(&mut entry.edb) {
            stale.iter().for_each(|pred| db.remove(pred));
        }
        entry.stale.extend(stale);
        entry.methods.clear();
    }

    /// Push the EDB relations `op` changes onto `out`, method relations
    /// aside; `false` for an op that changes the catalog, which stales
    /// every relation. Runs before `op` is applied, so the object a
    /// `RemoveObject` removes is still there.
    fn writes(&self, op: &StoreOp, out: &mut Vec<PredSym>) -> bool {
        let none = Members::default();
        let members = |class: &str| self.members.get(class).unwrap_or(&none);
        match op {
            StoreOp::PutObject { class, .. } => {
                let m = members(class);
                out.extend(m.rows.iter().chain(&m.extents));
            }
            StoreOp::RemoveObject { oid } => {
                if let Some(obj) = self.objects.get(&Oid(*oid)) {
                    let m = members(&obj.class);
                    out.extend(m.rows.iter().chain(&m.extents));
                }
            }
            StoreOp::SetAttr { oid, .. } => {
                if let Some(obj) = self.objects.get(&Oid(*oid)) {
                    out.extend(&members(&obj.class).rows);
                }
            }
            StoreOp::Link { pred, .. } | StoreOp::Unlink { pred, .. } => {
                out.push(PredSym::new(pred.as_str()));
                let over = self.asrs.iter().filter(|def| def.path.contains(pred));
                out.extend(over.map(|def| def.rule.head.pred));
            }
            StoreOp::DefineAsr { .. } => return false,
            StoreOp::Batch { ops } => return ops.iter().all(|op| self.writes(op, out)),
        }
        true
    }

    /// The one write path: append `op` to the attached store (one WAL
    /// frame; a compound write is one [`StoreOp::Batch`]), bump the cache
    /// epoch once and mark what `op` writes stale, then
    /// [`apply`](Self::apply) `op` to the head.
    ///
    /// Every check runs before this call. `apply` fails only on what a
    /// recovered record may hold (an unknown class, an ASR path the
    /// schema does not resolve), and a live op has been checked for both:
    /// an error after the append would leave the log ahead of memory.
    fn commit(&mut self, op: StoreOp) -> Result<()> {
        if let Some(store) = &self.store {
            store.apply(&op)?;
        }
        self.touch(Some(&op));
        self.apply(op)
    }

    /// The one writer of the head: what `op` does to the objects,
    /// extents, links and ASRs, and the catalog's ASR views. Live writes
    /// reach it through [`commit`](Self::commit), recovery through
    /// [`load_view`](Self::load_view).
    fn apply(&mut self, op: StoreOp) -> Result<()> {
        match op {
            StoreOp::PutObject { oid, class, attrs } => {
                let oid = Oid(oid);
                if self.schema.class(&class).is_some() {
                    // Its own extent and every superclass extent.
                    for c in self.schema.chain(&class) {
                        self.extents.entry(c.name.clone()).or_default().push(oid);
                    }
                } else if self.schema.structure(&class).is_some() {
                    self.extents.entry(class.clone()).or_default().push(oid);
                } else {
                    return Err(ObjDbError::UnknownClass { name: class });
                }
                let attrs = attrs.into_iter().collect();
                self.objects.insert(oid, Object { class, attrs });
            }
            StoreOp::SetAttr { oid, attr, value } => {
                let Some(obj) = self.objects.get_mut(&Oid(oid)) else {
                    return Err(ObjDbError::UnknownObject { oid });
                };
                obj.attrs.insert(attr, value);
            }
            StoreOp::Link { pred, from, to } => {
                let pair = (Oid(from), Oid(to));
                self.link_sets.entry(pred.clone()).or_default().insert(pair);
                self.links.entry(pred).or_default().push(pair);
            }
            StoreOp::Unlink { pred, from, to } => {
                let pair = (Oid(from), Oid(to));
                if let Some(set) = self.link_sets.get_mut(&pred) {
                    set.remove(&pair);
                }
                if let Some(pairs) = self.links.get_mut(&pred) {
                    pairs.retain(|p| *p != pair);
                }
            }
            // Its links were severed by the `Unlink`s batched before it.
            StoreOp::RemoveObject { oid } => {
                let oid = Oid(oid);
                for extent in self.extents.values_mut() {
                    extent.retain(|o| *o != oid);
                }
                self.objects.remove(&oid);
            }
            StoreOp::DefineAsr { name, class, path } => {
                let preds = self.asr_path(&class, &path)?;
                let pred = self.catalog.register_view(&name, 2);
                // The view rule asr(X0, Xn) ← r1(X0, X1), …, rn(Xn-1, Xn).
                let x = |i: usize| Term::var(format!("X{i}"));
                let body = preds
                    .iter()
                    .enumerate()
                    .map(|(i, p)| Literal::pos(p.as_str(), vec![x(i), x(i + 1)]))
                    .collect();
                let rule = Rule::new(Atom::new(pred, vec![x(0), x(preds.len())]), body);
                self.asrs.push(AsrDef {
                    name: pred.name().to_string(),
                    src_class: class,
                    src_path: path,
                    path: preds,
                    rule,
                });
            }
            StoreOp::Batch { ops } => {
                for op in ops {
                    self.apply(op)?;
                }
            }
        }
        Ok(())
    }

    fn alloc_oid(&mut self) -> Oid {
        let o = Oid(self.next_oid);
        self.next_oid += 1;
        o
    }

    fn default_value(&mut self, ty: &Type) -> Result<Value> {
        Ok(match ty {
            Type::Base(BaseType::Int) => Value::Int(0),
            Type::Base(BaseType::Real) => Value::Real(0.0),
            Type::Base(BaseType::Str) => Value::Str(String::new()),
            Type::Base(BaseType::Bool) => Value::Bool(false),
            Type::Named(n) => {
                let n = n.clone();
                // Auto-create a default structure instance.
                Value::Obj(self.create_struct(&n, Vec::new())?)
            }
            Type::Collection(..) => {
                return Err(ObjDbError::Unsupported {
                    feature: "collection-valued attributes".into(),
                })
            }
        })
    }

    /// The attributes of a new `owner` object: the `provided` values
    /// type-checked, then defaults for the rest. Every check runs before a
    /// default structure instance is created and logged, so a refused
    /// write logs nothing.
    fn attr_values(
        &mut self,
        owner: &str,
        declared: &[(String, Type)],
        mut provided: BTreeMap<&str, Value>,
    ) -> Result<BTreeMap<String, Value>> {
        let mut values = BTreeMap::new();
        for (name, ty) in declared {
            if let Some(v) = provided.remove(name.as_str()) {
                values.insert(name.clone(), self.check_type(owner, name, ty, v)?);
            }
        }
        for (name, ty) in declared {
            if !values.contains_key(name) {
                let v = self.default_value(ty)?;
                values.insert(name.clone(), v);
            }
        }
        Ok(values)
    }

    /// Create an object of a class; missing attributes get defaults
    /// (structure attributes get auto-created structure instances).
    pub fn create(&mut self, class: &str, attrs: Vec<(&str, Value)>) -> Result<Oid> {
        if self.schema.class(class).is_none() {
            return Err(ObjDbError::UnknownClass {
                name: class.to_string(),
            });
        }
        let declared: Vec<(String, Type)> = self
            .schema
            .all_attributes(class)
            .into_iter()
            .map(|(_, a)| (a.name.clone(), a.ty.clone()))
            .collect();
        let mut provided: BTreeMap<&str, Value> = BTreeMap::new();
        for (k, v) in attrs {
            if !declared.iter().any(|(n, _)| n == k) {
                return Err(ObjDbError::BadAttribute {
                    class: class.to_string(),
                    attribute: k.to_string(),
                    detail: "not declared".into(),
                });
            }
            provided.insert(k, v);
        }
        let attrs = self.attr_values(class, &declared, provided)?;
        self.put_object(class, attrs)
    }

    /// Create a structure instance.
    pub fn create_struct(&mut self, strct: &str, fields: Vec<(&str, Value)>) -> Result<Oid> {
        let declared: Vec<(String, Type)> = self
            .schema
            .structure(strct)
            .ok_or_else(|| ObjDbError::UnknownClass {
                name: strct.to_string(),
            })?
            .fields
            .iter()
            .map(|f| (f.name.clone(), f.ty.clone()))
            .collect();
        let attrs = self.attr_values(strct, &declared, fields.into_iter().collect())?;
        self.put_object(strct, attrs)
    }

    /// Commit a new object of `class` with checked `attrs` under a fresh
    /// OID.
    fn put_object(&mut self, class: &str, attrs: BTreeMap<String, Value>) -> Result<Oid> {
        let oid = self.alloc_oid();
        self.commit(StoreOp::PutObject {
            oid: oid.0,
            class: class.to_string(),
            attrs: attrs.into_iter().collect(),
        })?;
        Ok(oid)
    }

    fn check_type(&self, owner: &str, attr: &str, ty: &Type, v: Value) -> Result<Value> {
        let ok = match (ty, &v) {
            (Type::Base(BaseType::Int), Value::Int(_)) => true,
            (Type::Base(BaseType::Real), Value::Real(_) | Value::Int(_)) => true,
            (Type::Base(BaseType::Str), Value::Str(_)) => true,
            (Type::Base(BaseType::Bool), Value::Bool(_)) => true,
            (Type::Named(n), Value::Obj(o)) => match self.objects.get(o) {
                Some(obj) => obj.class == *n || self.schema.is_subclass_of(&obj.class, n),
                None => false,
            },
            _ => false,
        };
        let refuse = |detail: String| ObjDbError::BadAttribute {
            class: owner.to_string(),
            attribute: attr.to_string(),
            detail,
        };
        if !ok {
            return Err(refuse(format!("value {v} does not match type {ty}")));
        }
        match (ty, v) {
            // Coerce ints to reals where declared real; an integer the
            // real would round (past 2^53) is refused, not stored as
            // another number.
            (Type::Base(BaseType::Real), Value::Int(i)) => {
                let real = i as f64;
                if Const::Int(i) == Const::from(real) {
                    Ok(Value::Real(real))
                } else {
                    Err(refuse(format!("integer {i} has no exact {ty} value")))
                }
            }
            (_, v) => Ok(v),
        }
    }

    /// Set an attribute on an existing object.
    pub fn set_attr(&mut self, oid: Oid, attr: &str, v: Value) -> Result<()> {
        let class = self
            .objects
            .get(&oid)
            .ok_or(ObjDbError::UnknownObject { oid: oid.0 })?
            .class
            .clone();
        let ty = self
            .schema
            .all_attributes(&class)
            .into_iter()
            .find(|(_, a)| a.name == attr)
            .map(|(_, a)| a.ty.clone())
            .or_else(|| {
                self.schema
                    .structure(&class)
                    .and_then(|s| s.fields.iter().find(|f| f.name == attr))
                    .map(|f| f.ty.clone())
            })
            .ok_or_else(|| ObjDbError::BadAttribute {
                class: class.clone(),
                attribute: attr.to_string(),
                detail: "not declared".into(),
            })?;
        let v = self.check_type(&class, attr, &ty, v)?;
        self.commit(StoreOp::SetAttr {
            oid: oid.0,
            attr: attr.to_string(),
            value: v,
        })
    }

    /// Look up an object.
    pub fn get(&self, oid: Oid) -> Option<&Object> {
        self.objects.get(&oid)
    }

    /// Read an attribute value.
    pub fn attr(&self, oid: Oid, name: &str) -> Option<&Value> {
        self.objects.get(&oid).and_then(|o| o.attrs.get(name))
    }

    /// The extent of a class (including subclass instances), in creation
    /// order.
    pub fn extent(&self, class: &str) -> &[Oid] {
        self.extents.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of live objects (including structure instances).
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Resolve the relationship declaration reachable from an object's
    /// class, returning (declaring class, target, many, pred name,
    /// inverse pred name if any).
    fn resolve_rel(
        &self,
        class: &str,
        rel: &str,
    ) -> Result<(String, String, bool, String, Option<String>)> {
        let Some(Member::Relationship(decl_cls, r)) = self.schema.find_member(class, rel) else {
            return Err(ObjDbError::UnknownRelationship {
                class: class.to_string(),
                name: rel.to_string(),
            });
        };
        let pred = self
            .catalog
            .relationship_relation(decl_cls, &r.name)
            .expect("relationship in catalog")
            .pred
            .name()
            .to_string();
        let inv_pred = r.inverse.as_ref().and_then(|(icls, irel)| {
            self.catalog
                .relationship_relation(icls, irel)
                .map(|d| d.pred.name().to_string())
        });
        Ok((
            decl_cls.to_string(),
            r.target.clone(),
            r.many,
            pred,
            inv_pred,
        ))
    }

    /// Link two objects through a relationship (maintaining the inverse
    /// and enforcing cardinality).
    pub fn link(&mut self, from: Oid, rel: &str, to: Oid) -> Result<()> {
        let from_class = self
            .objects
            .get(&from)
            .ok_or(ObjDbError::UnknownObject { oid: from.0 })?
            .class
            .clone();
        let to_class = self
            .objects
            .get(&to)
            .ok_or(ObjDbError::UnknownObject { oid: to.0 })?
            .class
            .clone();
        let (_, target, many, pred, inv_pred) = self.resolve_rel(&from_class, rel)?;
        if !self.schema.is_subclass_of(&to_class, &target) {
            return Err(ObjDbError::TypeMismatch {
                expected: target,
                found: to_class,
            });
        }
        if self
            .link_sets
            .get(&pred)
            .is_some_and(|s| s.contains(&(from, to)))
        {
            return Ok(()); // idempotent
        }
        if !many {
            let already = self
                .links
                .get(&pred)
                .is_some_and(|v| v.iter().any(|(f, _)| *f == from));
            if already {
                return Err(ObjDbError::Cardinality {
                    relationship: format!("{from_class}::{rel}"),
                    detail: format!("{from} is already linked (to-one side)"),
                });
            }
        }
        // Cardinality on the inverse side.
        if let Some(inv) = &inv_pred {
            let inv_many = self
                .catalog
                .relation_by_pred(&PredSym::new(inv.clone()))
                .map(|d| matches!(&d.kind, RelKind::Relationship { many, .. } if *many))
                .unwrap_or(true);
            if !inv_many {
                let already = self
                    .links
                    .get(inv)
                    .is_some_and(|v| v.iter().any(|(f, _)| *f == to));
                if already {
                    return Err(ObjDbError::Cardinality {
                        relationship: format!("inverse of {from_class}::{rel}"),
                        detail: format!("{to} is already linked (to-one inverse)"),
                    });
                }
            }
        }
        let mut ops = vec![StoreOp::Link {
            pred,
            from: from.0,
            to: to.0,
        }];
        if let Some(pred) = inv_pred {
            ops.push(StoreOp::Link {
                pred,
                from: to.0,
                to: from.0,
            });
        }
        self.commit(one_frame(ops))
    }

    /// The objects linked from `from` through a relationship.
    pub fn linked(&self, from: Oid, rel: &str) -> Result<Vec<Oid>> {
        let class = self
            .objects
            .get(&from)
            .ok_or(ObjDbError::UnknownObject { oid: from.0 })?
            .class
            .clone();
        let (_, _, _, pred, _) = self.resolve_rel(&class, rel)?;
        Ok(self
            .links
            .get(&pred)
            .map(|v| {
                v.iter()
                    .filter(|(f, _)| *f == from)
                    .map(|(_, t)| *t)
                    .collect()
            })
            .unwrap_or_default())
    }

    /// Remove a relationship link (and its inverse). Returns whether the
    /// link existed.
    pub fn unlink(&mut self, from: Oid, rel: &str, to: Oid) -> Result<bool> {
        let from_class = self
            .objects
            .get(&from)
            .ok_or(ObjDbError::UnknownObject { oid: from.0 })?
            .class
            .clone();
        let (_, _, _, pred, inv_pred) = self.resolve_rel(&from_class, rel)?;
        let existed = self
            .link_sets
            .get(&pred)
            .is_some_and(|s| s.contains(&(from, to)));
        if !existed {
            return Ok(false);
        }
        let mut ops = vec![StoreOp::Unlink {
            pred,
            from: from.0,
            to: to.0,
        }];
        if let Some(pred) = inv_pred {
            ops.push(StoreOp::Unlink {
                pred,
                from: to.0,
                to: from.0,
            });
        }
        self.commit(one_frame(ops))?;
        Ok(true)
    }

    /// Delete an object: removes it from every extent, severs every
    /// relationship link it participates in (maintaining inverses), and
    /// drops it from the store. Structure instances owned through
    /// attributes are left in place (they may be shared in the Datalog
    /// representation).
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        if !self.objects.contains_key(&oid) {
            return Err(ObjDbError::UnknownObject { oid: oid.0 });
        }
        // One Unlink per severed pair (inverse pairs are their own
        // entries), then the removal — committed as one atomic frame.
        let mut ops = Vec::new();
        for (pred, pairs) in &self.links {
            for (f, t) in pairs {
                if *f == oid || *t == oid {
                    ops.push(StoreOp::Unlink {
                        pred: pred.clone(),
                        from: f.0,
                        to: t.0,
                    });
                }
            }
        }
        ops.push(StoreOp::RemoveObject { oid: oid.0 });
        self.commit(one_frame(ops))
    }

    /// Register a method implementation for `class::name`.
    pub fn register_method(&mut self, class: &str, name: &str, f: MethodFn) -> Result<()> {
        let decl = self
            .catalog
            .method_relation(class, name)
            .ok_or_else(|| ObjDbError::Method {
                name: format!("{class}::{name}"),
                detail: "not declared in the schema".into(),
            })?;
        self.methods.insert(decl.pred.name().to_string(), f);
        // Methods are closures, not durable state: bump the cache epoch
        // without logging a store op.
        self.touch(None);
        Ok(())
    }

    /// Invoke a registered method.
    pub fn call_method(&self, pred: &str, receiver: Oid, args: &[Value]) -> Result<Value> {
        let f = self.methods.get(pred).ok_or_else(|| ObjDbError::Method {
            name: pred.to_string(),
            detail: "no implementation registered".into(),
        })?;
        f(self, receiver, args)
    }

    /// Define (and materialize) an access support relation over a path of
    /// relationship names starting at `class`. Returns the view predicate.
    pub fn define_asr(&mut self, name: &str, class: &str, path: &[&str]) -> Result<PredSym> {
        let path: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        self.asr_path(class, &path)?;
        // The name `apply` registers: the catalog qualifies one that
        // collides with another relation, and the log must hold that one.
        let pred = self.catalog.clone().register_view(name, 2);
        self.commit(StoreOp::DefineAsr {
            name: pred.name().to_string(),
            class: class.to_string(),
            path,
        })?;
        Ok(pred)
    }

    /// The relationship predicates along an ASR path from `class`.
    fn asr_path(&self, class: &str, path: &[String]) -> Result<Vec<String>> {
        if path.is_empty() {
            return Err(ObjDbError::BadAsrPath {
                detail: "empty path".into(),
            });
        }
        let mut preds = Vec::with_capacity(path.len());
        let mut cur_class = class.to_string();
        for rel in path {
            if self.schema.class(&cur_class).is_none() {
                return Err(ObjDbError::UnknownClass { name: cur_class });
            }
            let (_, target, _, pred, _) = self.resolve_rel(&cur_class, rel)?;
            preds.push(pred);
            cur_class = target;
        }
        Ok(preds)
    }

    /// The pairs of an ASR (walking the stored links) in derivation order:
    /// by first-hop pair, then by what the rest of the path reaches from
    /// its far end. A pair derived along two paths is listed twice; the
    /// relation keeps the first.
    fn asr_pairs(&self, def: &AsrDef) -> Vec<(Oid, Oid)> {
        let hop = |pred: &String| self.links.get(pred).map_or(&[][..], Vec::as_slice);
        let Some((first, rest)) = def.path.split_first() else {
            return Vec::new();
        };
        // `ends[x]`: what the hops after the first reach from `x`, each
        // end once, composed from the last hop back — these maps are
        // keyed by the path's inner objects, not by its many starts.
        let mut ends: Option<FxHashMap<Oid, Vec<Oid>>> = None;
        let mut seen = FxHashSet::default();
        for pred in rest.iter().rev() {
            let mut reached: FxHashMap<Oid, Vec<Oid>> = FxHashMap::default();
            for (from, to) in hop(pred) {
                let list = reached.entry(*from).or_default();
                match &ends {
                    None => list.push(*to),
                    Some(ends) => list.extend(ends.get(to).into_iter().flatten()),
                }
            }
            for list in reached.values_mut() {
                seen.clear();
                list.retain(|end| seen.insert(*end));
            }
            ends = Some(reached);
        }
        let Some(ends) = ends else {
            return hop(first).to_vec();
        };
        let mut pairs = Vec::new();
        for (start, mid) in hop(first) {
            let ends = ends.get(mid).into_iter().flatten();
            pairs.extend(ends.map(|end| (*start, *end)));
        }
        pairs
    }

    /// Bring the cached EDB up to date: build it if there is none (or a
    /// catalog change dropped it), or else rebuild the relations writes
    /// made stale and share the rest. Pinned `Arc` clones of an earlier
    /// one stay untouched: a pinned EDB is copied — its pointers — first.
    fn refresh_edb(&self) {
        let mut cache = self.edb_cache.borrow_mut();
        if cache.as_ref().is_some_and(|entry| entry.stale.is_empty()) {
            return;
        }
        let _span = sqo_obs::span!("objdb.edb_refresh");
        match &mut *cache {
            Some(entry) => {
                let stale = std::mem::take(&mut entry.stale);
                self.build_edb(Arc::make_mut(&mut entry.edb), |p| stale.contains(&p));
            }
            None => {
                let mut edb = EdbDatabase::new();
                self.build_edb(&mut edb, |_| true);
                *cache = Some(EdbCacheEntry {
                    edb: Arc::new(edb),
                    methods: HashSet::new(),
                    stale: FxHashSet::default(),
                });
            }
        }
    }

    /// The Datalog representation of the whole store, as a consistent
    /// snapshot pinned at the current generation.
    ///
    /// Produces: full class/structure relations (a class relation contains
    /// its subclasses' objects, projected onto the class's attributes),
    /// unary `{pred}__extent` relations for cheap extent membership,
    /// relationship relations, and materialized ASR relations. Method
    /// relations are materialized lazily per (method, arguments) combo by
    /// [`ensure_method_facts`](Self::ensure_method_facts).
    ///
    /// The returned `Arc` stays valid and *unchanged* while later
    /// writers advance the database: a write marks relations stale
    /// rather than touching shared state, and the next read rebuilds them
    /// in a copy when the `Arc` is pinned. Late method materialization
    /// copies-on-write the same way — a pinned `Arc` held across
    /// `ensure_method_facts` costs a copy of the relation pointers and of
    /// the method relation. Long-running evaluations (or service
    /// sessions) should pin once and evaluate against the pin.
    pub fn edb_pinned(&self) -> Arc<EdbDatabase> {
        self.refresh_edb();
        self.edb_cache
            .borrow()
            .as_ref()
            .expect("just built")
            .edb
            .clone()
    }

    /// The one production loader of the EDB: (re)builds from the head
    /// every relation of the catalog that `stale` names, in place of the
    /// one `db` holds, and leaves the others — with the indexes built on
    /// them — as they are. A first build names them all. Every rebuilt
    /// relation's indexes are declared — not built: that is the first
    /// probe's — and its room reserved before its rows arrive, and the
    /// rows of an extent are staged in one reused scratch row.
    fn build_edb(&self, db: &mut EdbDatabase, stale: impl Fn(PredSym) -> bool) {
        let mut row: Vec<Const> = Vec::new();
        for decl in &self.catalog.relations {
            let pred = decl.pred;
            match &decl.kind {
                RelKind::Class { class } | RelKind::Struct { strct: class } => {
                    let extent_pred = extent_pred(pred);
                    let extent = self.extent(class);
                    if stale(extent_pred) {
                        let mut rel = Relation::with_arity(1);
                        rel.declare_hash_index(0);
                        rel.reserve(extent.len());
                        for oid in extent {
                            rel.insert(&[Const::Oid(oid.0)]).expect("unary");
                        }
                        db.put(extent_pred, rel);
                    }
                    if !stale(pred) {
                        continue;
                    }
                    let mut rel = Relation::with_arity(decl.arity());
                    // Physical design: every attribute column a query can
                    // bind gets an index. The OID column, every declared
                    // (single-attribute) key and every string attribute
                    // get a hash index; numeric attributes an ordered one,
                    // for range probes. Object-valued and boolean columns
                    // stay unindexed. Declaring is free — the first probe
                    // of a column builds its index.
                    rel.declare_hash_index(0);
                    if let Some(cls) = self.schema.class(class) {
                        for key in &cls.keys {
                            if let [attr] = key.as_slice() {
                                if let Some(pos) = decl.arg_position(attr) {
                                    rel.declare_hash_index(pos);
                                }
                            }
                        }
                    }
                    for (pos, arg) in decl.args.iter().enumerate().skip(1) {
                        match arg.ty {
                            ArgType::Base(BaseType::Int | BaseType::Real) => {
                                rel.declare_ordered_index(pos)
                            }
                            ArgType::Base(BaseType::Str) => rel.declare_hash_index(pos),
                            ArgType::Base(BaseType::Bool) | ArgType::Oid(_) => {}
                        }
                    }
                    rel.reserve(extent.len());
                    for oid in extent {
                        let obj = &self.objects[oid];
                        row.clear();
                        row.push(Const::Oid(oid.0));
                        row.extend(decl.args.iter().skip(1).map(|arg| {
                            obj.attrs.get(&arg.name).map_or_else(
                                || match &arg.ty {
                                    ArgType::Oid(_) => Const::Oid(0),
                                    ArgType::Base(BaseType::Str) => {
                                        Const::Str(sqo_datalog::Sym::intern(""))
                                    }
                                    ArgType::Base(BaseType::Real) => Const::Real(0.0.into()),
                                    ArgType::Base(BaseType::Bool) => Const::Bool(false),
                                    ArgType::Base(BaseType::Int) => Const::Int(0),
                                },
                                to_const,
                            )
                        }));
                        rel.insert(&row).expect("consistent arity");
                    }
                    db.put(pred, rel);
                }
                _ if !stale(pred) => {}
                RelKind::Relationship { .. } => {
                    let pairs = self.links.get(pred.name()).map_or(&[][..], Vec::as_slice);
                    db.put(pred, pair_relation(pairs));
                }
                // An ASR's relation is its catalog view: the pairs of
                // every definition under that name.
                RelKind::View { .. } => {
                    let defs = self.asrs.iter().filter(|def| def.rule.head.pred == pred);
                    let pairs: Vec<(Oid, Oid)> = defs.flat_map(|def| self.asr_pairs(def)).collect();
                    db.put(pred, pair_relation(&pairs));
                }
                RelKind::Method { .. } => {
                    let mut rel = Relation::with_arity(decl.arity());
                    rel.declare_hash_index(0);
                    db.put(pred, rel);
                }
            }
        }
    }

    /// Ensure method facts for the given (method predicate, constant
    /// arguments) combination exist in the cached EDB. Returns the number
    /// of invocations performed (0 when already materialized).
    pub fn ensure_method_facts(&self, pred: &str, args: &[Const]) -> Result<u64> {
        let key = (pred.to_string(), args.to_vec());
        // The materialized-methods set lives with the cache entry, so a
        // mutation forgets it along with the EDB.
        self.refresh_edb();
        if self
            .edb_cache
            .borrow()
            .as_ref()
            .is_some_and(|e| e.methods.contains(&key))
        {
            return Ok(0);
        }
        let decl = self
            .catalog
            .relation_by_pred(&PredSym::new(pred))
            .ok_or_else(|| ObjDbError::Method {
                name: pred.to_string(),
                detail: "unknown method relation".into(),
            })?;
        let RelKind::Method { class, .. } = &decl.kind else {
            return Err(ObjDbError::Method {
                name: pred.to_string(),
                detail: "not a method relation".into(),
            });
        };
        let class = class.clone();
        let values: Vec<Value> = args.iter().map(from_const).collect();
        let receivers: Vec<Oid> = self.extent(&class).to_vec();
        let mut calls = 0u64;
        let mut facts: Vec<Vec<Const>> = Vec::with_capacity(receivers.len());
        for oid in receivers {
            let out = self.call_method(pred, oid, &values)?;
            calls += 1;
            let mut tuple = vec![Const::Oid(oid.0)];
            tuple.extend(args.iter().cloned());
            tuple.push(to_const(&out));
            facts.push(tuple);
        }
        {
            let mut cache = self.edb_cache.borrow_mut();
            let entry = cache.as_mut().expect("cache built above");
            // Copy-on-write: if a pinned snapshot holds this Arc, the
            // clone keeps the pin isolated from the new facts.
            let db = Arc::make_mut(&mut entry.edb);
            let pred = PredSym::new(pred);
            for t in facts {
                db.insert(pred, &t).map_err(ObjDbError::from)?;
            }
            entry.methods.insert(key);
        }
        Ok(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqo_odl::fixtures::university_schema;

    fn db() -> ObjectDb {
        ObjectDb::new(university_schema())
    }

    #[test]
    fn create_with_defaults_and_extents() {
        let mut d = db();
        let p = d
            .create(
                "Faculty",
                vec![("name", "smith".into()), ("age", Value::Int(50))],
            )
            .unwrap();
        let obj = d.get(p).unwrap();
        assert_eq!(obj.class, "Faculty");
        assert_eq!(obj.attrs["name"], Value::Str("smith".into()));
        // salary defaulted; address auto-created.
        assert_eq!(obj.attrs["salary"], Value::Real(0.0));
        assert!(matches!(obj.attrs["address"], Value::Obj(_)));
        // Extent membership up the chain.
        assert_eq!(d.extent("Faculty").len(), 1);
        assert_eq!(d.extent("Employee").len(), 1);
        assert_eq!(d.extent("Person").len(), 1);
        assert_eq!(d.extent("Student").len(), 0);
    }

    #[test]
    fn attribute_type_checking() {
        let mut d = db();
        assert!(d
            .create("Person", vec![("age", Value::Str("old".into()))])
            .is_err());
        assert!(d.create("Person", vec![("wings", Value::Int(2))]).is_err());
        // Int coerces to declared float.
        let e = d
            .create("Employee", vec![("salary", Value::Int(50000))])
            .unwrap();
        assert_eq!(d.attr(e, "salary"), Some(&Value::Real(50000.0)));
    }

    /// A `float` attribute takes an integer only if it holds it exactly:
    /// past 2^53 the write is refused before it reaches the log.
    #[test]
    fn a_float_attribute_refuses_an_integer_it_would_round() {
        let dir = std::env::temp_dir().join(format!("sqo_objdb_{}_round", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d = ObjectDb::open(university_schema(), &dir, 2).unwrap();
        let big = 1_i64 << 53;
        for ok in [50_000, big] {
            let e = d.create("Employee", vec![("salary", Value::Int(ok))]);
            assert_eq!(d.attr(e.unwrap(), "salary"), Some(&Value::Real(ok as f64)));
        }
        let logged = d.store_generation();
        let e = d.create("Employee", vec![]).unwrap();
        let logged_with_e = d.store_generation();
        assert!(logged_with_e > logged);
        for refused in [
            d.create("Employee", vec![("salary", Value::Int(big + 1))]),
            d.set_attr(e, "salary", Value::Int(big + 1)).map(|()| e),
        ] {
            assert!(matches!(refused, Err(ObjDbError::BadAttribute { .. })));
        }
        assert_eq!(d.store_generation(), logged_with_e);
        assert_eq!(d.attr(e, "salary"), Some(&Value::Real(0.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn link_maintains_inverse_and_cardinality() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        let course = d.create("Course", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        // Inverse maintained.
        assert_eq!(d.linked(sec, "taken_by").unwrap(), vec![s]);
        // Many-many allows more links.
        let sec2 = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec2).unwrap();
        // To-one: a section has exactly one course.
        d.link(sec, "is_section_of", course).unwrap();
        let course2 = d.create("Course", vec![]).unwrap();
        assert!(matches!(
            d.link(sec, "is_section_of", course2),
            Err(ObjDbError::Cardinality { .. })
        ));
        // Idempotent re-link is fine.
        d.link(s, "takes", sec).unwrap();
    }

    #[test]
    fn one_to_one_enforced_via_inverse() {
        let mut d = db();
        let sec = d.create("Section", vec![]).unwrap();
        let sec2 = d.create("Section", vec![]).unwrap();
        let ta = d.create("TA", vec![]).unwrap();
        d.link(sec, "has_ta", ta).unwrap();
        // The same TA cannot assist a second section (inverse is to-one).
        assert!(matches!(
            d.link(sec2, "has_ta", ta),
            Err(ObjDbError::Cardinality { .. })
        ));
    }

    #[test]
    fn link_type_mismatch_rejected() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let p = d.create("Person", vec![]).unwrap();
        assert!(matches!(
            d.link(s, "takes", p),
            Err(ObjDbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn edb_contains_class_extent_and_relationship_facts() {
        let mut d = db();
        let s = d
            .create(
                "Student",
                vec![("name", "ann".into()), ("age", Value::Int(20))],
            )
            .unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        let edb = d.edb_pinned();
        // Person relation includes the student (subclass member).
        let person = edb.relation(&"person".into()).unwrap();
        assert_eq!(person.len(), 1);
        let student = edb.relation(&"student".into()).unwrap();
        assert_eq!(student.len(), 1);
        assert!(edb.relation(&"person__extent".into()).unwrap().len() == 1);
        let takes = edb.relation(&"takes".into()).unwrap();
        assert_eq!(takes.tuple_at(0), [Const::Oid(s.0), Const::Oid(sec.0)]);
        let taken_by = edb.relation(&"taken_by".into()).unwrap();
        assert_eq!(taken_by.len(), 1);
        // Structure instances present (auto-created addresses).
        assert!(!edb.relation(&"address".into()).unwrap().is_empty());
    }

    #[test]
    fn methods_materialize_lazily() {
        let mut d = db();
        let f = d
            .create("Faculty", vec![("salary", Value::Real(50000.0))])
            .unwrap();
        d.register_method(
            "Employee",
            "taxes_withheld",
            Box::new(|db, oid, args| {
                let salary = db
                    .attr(oid, "salary")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                let rate = args.first().and_then(Value::as_f64).unwrap_or(0.0);
                Ok(Value::Real(salary * rate))
            }),
        )
        .unwrap();
        let calls = d
            .ensure_method_facts("taxes_withheld", &[Const::Real(0.1.into())])
            .unwrap();
        assert_eq!(calls, 1);
        // Second time: cached.
        let calls2 = d
            .ensure_method_facts("taxes_withheld", &[Const::Real(0.1.into())])
            .unwrap();
        assert_eq!(calls2, 0);
        let edb = d.edb_pinned();
        let m = edb.relation(&"taxes_withheld".into()).unwrap();
        assert_eq!(
            m.tuple_at(0),
            [
                Const::Oid(f.0),
                Const::Real(0.1.into()),
                Const::Real(5000.0.into())
            ]
        );
    }

    #[test]
    fn asr_definition_and_materialization() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        let course = d.create("Course", vec![]).unwrap();
        let sec2 = d.create("Section", vec![]).unwrap();
        let ta = d.create("TA", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        d.link(sec, "is_section_of", course).unwrap();
        d.link(course, "has_sections", sec2).unwrap();
        d.link(sec2, "has_ta", ta).unwrap();
        let pred = d
            .define_asr(
                "asr",
                "Student",
                &["takes", "is_section_of", "has_sections", "has_ta"],
            )
            .unwrap();
        assert_eq!(pred.name(), "asr");
        let edb = d.edb_pinned();
        let asr = edb.relation(&pred).unwrap();
        assert_eq!(
            asr.rows().collect::<Vec<_>>(),
            [[Const::Oid(s.0), Const::Oid(ta.0)]]
        );
        // The view rule is available for the optimizer.
        assert_eq!(d.asr_rules().len(), 1);
        assert_eq!(
            d.asr_rules()[0].to_string(),
            "asr(X0, X4) <- takes(X0, X1), is_section_of(X1, X2), \
             has_sections(X2, X3), has_ta(X3, X4)"
        );
    }

    #[test]
    fn asr_pair_derived_along_two_paths_is_stored_once_in_derivation_order() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let course = d.create("Course", vec![]).unwrap();
        let mut tas = Vec::new();
        for _ in 0..2 {
            let sec = d.create("Section", vec![]).unwrap();
            let ta = d.create("TA", vec![]).unwrap();
            // Both sections of the one course: each is reached from
            // either, so every (student, TA) pair is derived twice.
            d.link(s, "takes", sec).unwrap();
            d.link(sec, "is_section_of", course).unwrap();
            d.link(sec, "has_ta", ta).unwrap();
            tas.push(ta);
        }
        let path = ["takes", "is_section_of", "has_sections", "has_ta"];
        let pred = d.define_asr("asr", "Student", &path).unwrap();
        let edb = d.edb_pinned();
        assert_eq!(
            edb.relation(&pred).unwrap().rows().collect::<Vec<_>>(),
            [
                [Const::Oid(s.0), Const::Oid(tas[0].0)],
                [Const::Oid(s.0), Const::Oid(tas[1].0)]
            ]
        );
    }

    #[test]
    fn bad_asr_paths_rejected() {
        let mut d = db();
        assert!(d.define_asr("v", "Student", &[]).is_err());
        assert!(d.define_asr("v", "Student", &["nope"]).is_err());
        assert!(d.define_asr("v", "Martian", &["takes"]).is_err());
        assert!(d.asrs().is_empty());
    }

    /// A name that collides with a relation is qualified by the catalog;
    /// the view rule is headed by the registered name, not the given one.
    #[test]
    fn a_colliding_asr_name_heads_its_rule_with_the_registered_name() {
        let mut d = db();
        let pred = d.define_asr("takes", "Student", &["takes"]).unwrap();
        assert_ne!(pred.name(), "takes");
        assert_eq!(d.asrs()[0].name, pred.name());
        assert_eq!(d.asr_rules()[0].head.pred, pred);
    }

    #[test]
    fn unlink_removes_both_directions() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        assert!(d.unlink(s, "takes", sec).unwrap());
        assert!(d.linked(s, "takes").unwrap().is_empty());
        assert!(d.linked(sec, "taken_by").unwrap().is_empty());
        // Second unlink is a no-op.
        assert!(!d.unlink(s, "takes", sec).unwrap());
        // The EDB no longer carries the pair.
        let edb = d.edb_pinned();
        assert!(edb.relation(&"takes".into()).is_none_or(|r| r.is_empty()));
    }

    #[test]
    fn unlink_frees_to_one_slot() {
        let mut d = db();
        let sec = d.create("Section", vec![]).unwrap();
        let c1 = d.create("Course", vec![]).unwrap();
        let c2 = d.create("Course", vec![]).unwrap();
        d.link(sec, "is_section_of", c1).unwrap();
        assert!(d.link(sec, "is_section_of", c2).is_err());
        d.unlink(sec, "is_section_of", c1).unwrap();
        d.link(sec, "is_section_of", c2).unwrap();
    }

    #[test]
    fn delete_severs_links_and_extents() {
        let mut d = db();
        let s = d.create("Student", vec![]).unwrap();
        let sec = d.create("Section", vec![]).unwrap();
        d.link(s, "takes", sec).unwrap();
        d.delete(s).unwrap();
        assert!(d.get(s).is_none());
        assert_eq!(d.extent("Student").len(), 0);
        assert_eq!(d.extent("Person").len(), 0);
        assert!(d.linked(sec, "taken_by").unwrap().is_empty());
        assert!(matches!(d.delete(s), Err(ObjDbError::UnknownObject { .. })));
    }

    #[test]
    fn set_attr_checks_types_and_invalidates() {
        let mut d = db();
        let p = d.create("Person", vec![]).unwrap();
        {
            let edb = d.edb_pinned();
            assert_eq!(edb.relation(&"person".into()).unwrap().len(), 1);
        }
        d.set_attr(p, "age", Value::Int(44)).unwrap();
        assert!(d.set_attr(p, "age", Value::Str("x".into())).is_err());
        let edb = d.edb_pinned();
        let person = edb.relation(&"person".into()).unwrap();
        let pos = d
            .catalog()
            .class_relation("Person")
            .unwrap()
            .arg_position("age")
            .unwrap();
        assert_eq!(person.tuple_at(0)[pos], Const::Int(44));
    }
}
