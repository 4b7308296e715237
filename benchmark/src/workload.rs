//! The four workloads: what each session knows, what data it serves, and
//! the seeded request stream a client sends.
//!
//! Every workload isolates one side of the rewrite-time / evaluation-time
//! trade (see README.md for the reasoning per workload):
//!
//! | workload          | work that dominates                         | work bypassed          |
//! |-------------------|---------------------------------------------|------------------------|
//! | `serve_warm`  | socket, framing, pool hop, cache hit, explain | search, execution     |
//! | `serve_exec`  | plan choice and execution                     | search                |
//! | `cold_search` | parse, Steps 2-4, the Step-3 search           | cache hits, execution |
//! | `write_read`  | WAL append, head apply, EDB rebuild, reads    | search                |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_objdb::{ObjectDb, UniversityConfig, Value};
use sqo_obs::json_string;
use sqo_odl::fixtures::university_schema;
use sqo_service::{Session, SessionRegistry, SessionSpec};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["serve_warm", "serve_exec", "cold_search", "write_read"];

/// The paper's IC4: faculty members are thirty or older.
const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// What `serve_exec` knows: IC4 (A2 scope reduction), IC3 (A1
/// contradiction), the professor salary bound (e3 indexed rewrite) and
/// the four-hop access support relation (A4). A3's key constraint comes
/// from the schema itself.
const EXEC_ICS: &str = "\
ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).
ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).
ic IC_PROF: Salary >= 90000 <- faculty(X, N, Age, Salary, Rank, Ad), Rank = \"professor\".
asr(X, W) <- takes(X, Y), is_section_of(Y, Z), has_sections(Z, V), has_ta(V, W).";

/// Range constraints of the `cold_search` session; thresholds 10..=41.
const COLD_ICS: usize = 32;
const COLD_BASE: i64 = 10;

/// Shards of the durable store `write_read` runs on.
pub const STORE_SHARDS: usize = 8;

/// Student names the `serve_exec` templates draw their constants from.
const NAME_POOL: i64 = 32;

/// `age < C` constants of the warm template: all below IC4's threshold,
/// so every request has the parameter signature of the first and hits.
/// The old loadgen drew 20..35, straddling 30: 24 % of its "warm"
/// requests were rebinds, each a full Step-3 search.
const WARM_AGES: std::ops::Range<i64> = 16..29;

/// Projections that tell the `cold_search` templates apart. Each client
/// owns [`COLD_SHAPES_PER_CLIENT`] of them, so no client can hit an
/// entry another client just stored.
const COLD_PROJECTIONS: [&str; 8] = [
    "x.name",
    "x.age",
    "x.salary",
    "x.rank",
    "x.name, x.age",
    "x.name, x.salary",
    "x.age, x.salary",
    "x.name, x.rank",
];
const COLD_SHAPES_PER_CLIENT: usize = 4;

/// Distinct request streams a workload has. The end-to-end run sends the
/// first over its one connection; the traced run's paired passes use two.
pub const MAX_CLIENTS: usize = COLD_PROJECTIONS.len() / COLD_SHAPES_PER_CLIENT;

/// Each client's private `age` range in `write_read`; the generated base
/// holds no age above 79, so a range starts out empty.
const WRITE_AGE_BASE: i64 = 1000;
const WRITE_AGE_SPAN: i64 = 2000;

/// Most recent creates a `write_read` query may cover.
const READ_WINDOW: usize = 8;

/// Ops after which the `write_read` stream repeats its pattern of two
/// creates, one link and seventeen reads.
const WRITE_CYCLE: usize = 20;

/// Requests of a `serve_exec` block. Every block holds each family
/// exactly `share` times, in seeded random order: any run of whole blocks
/// is the same mix, so that one slice of a run costs what the next does.
const EXEC_BLOCK: usize = 20;

/// One `serve_exec` template family: how many requests of a block are
/// its, the constants it draws from and the query a constant gives.
struct Family {
    name: &'static str,
    share: usize,
    params: std::ops::Range<i64>,
    oql: fn(i64) -> String,
}

/// Shares of 15, 15, 40, 15 and 15 %. A4 holds the middle 40 % of the
/// latency order and the two cheap families the fastest 30 %, so p50 sits
/// inside A4's mode; the slowest 30 % are A3 and A2.
const EXEC_MIX: [Family; 5] = [
    Family {
        name: "A1_contradiction",
        share: 3,
        params: 0..NAME_POOL,
        oql: |p| {
            format!(
                "select z.name, w.city from x in Student y in x.takes z in y.is_taught_by \
                 w in z.address where x.name = \"student{p}\" and z.taxes_withheld(10%) < 1000"
            )
        },
    },
    Family {
        name: "e3_indexed",
        share: 3,
        params: 0..1,
        oql: |_| "select x.name from x in Faculty where x.rank = \"professor\"".to_string(),
    },
    Family {
        name: "A4_asr",
        share: 8,
        params: 0..NAME_POOL,
        oql: |p| {
            format!(
                "select w from x in Student y in x.takes z in y.is_section_of \
                 v in z.has_sections w in v.has_ta where x.name = \"student{p}\""
            )
        },
    },
    Family {
        name: "A3_key_join",
        share: 3,
        params: 0..NAME_POOL,
        oql: |p| {
            format!(
                "select list(x.student_id, t.employee_id) from x in Student y in x.takes \
                 z in y.is_taught_by t in TA v in t.takes w in v.is_taught_by \
                 where z.name = w.name and x.name = \"student{p}\""
            )
        },
    },
    Family {
        name: "A2_scope",
        share: 3,
        params: WARM_AGES,
        oql: |p| format!("select x.name from x in Person where x.age < {p}"),
    },
];

/// One of the four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    ServeWarm,
    ServeExec,
    ColdSearch,
    WriteRead,
}

/// A workload's fixed sizes. Only `--smoke` changes them (1/50 scale).
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Operations of one slice of the timed load: a whole number of the
    /// stream's blocks (`serve_exec`) or cycles (`write_read`), about 0.4 s
    /// long, so that the 10 ms steps of the steal counter are a few
    /// percent of it.
    pub slice_ops: usize,
    /// Multiplier on `UniversityConfig::default()`; 0 attaches no data.
    pub base_mult: usize,
    /// Whether the base lives in a durable store directory.
    pub durable: bool,
    /// Requests the set-up sends before timing starts.
    pub warmup: usize,
    /// Requests the traced in-process replay covers.
    pub trace_requests: usize,
    /// Requests of each served single-client pass of the traced run.
    pub served_requests: usize,
}

impl Spec {
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let idx = WORKLOADS.iter().position(|w| *w == name)?;
        let kind = [
            Kind::ServeWarm,
            Kind::ServeExec,
            Kind::ColdSearch,
            Kind::WriteRead,
        ][idx];
        // (slice_ops, base_mult, durable, warmup, trace_requests, served_requests)
        let (slice_ops, base_mult, durable, warmup, trace_requests, served_requests) = match kind {
            Kind::ServeWarm => (5000, 0, false, 2000, 2000, 2000),
            Kind::ServeExec => (12 * EXEC_BLOCK, 20, false, 200, 2000, 1000),
            Kind::ColdSearch => (140, 0, false, 50, 1000, 1000),
            // A base of 6 000 objects, a fifth of serve_exec's: the
            // O(store) rebuild after a write still costs a hundred fresh
            // reads, and a run's writes grow the base by a few percent
            // only. The served passes are long enough for a p99.
            Kind::WriteRead => (7 * WRITE_CYCLE, 4, true, 50, 600, 1200),
        };
        let scale = |n: usize| if smoke { (n / 50).max(4) } else { n };
        Some(Spec {
            kind,
            name: WORKLOADS[idx],
            slice_ops: if smoke { WRITE_CYCLE } else { slice_ops },
            base_mult: if smoke { base_mult.min(1) } else { base_mult },
            durable,
            warmup: scale(warmup),
            trace_requests: scale(trace_requests),
            served_requests: scale(served_requests),
        })
    }

    /// Whether queries ask the server to execute the chosen plan.
    pub fn executes(&self) -> bool {
        self.base_mult > 0
    }

    /// Constraint and view text the session is prepared with.
    pub fn ic_text(&self) -> String {
        match self.kind {
            Kind::ServeExec => EXEC_ICS.to_string(),
            Kind::ColdSearch => (0..COLD_ICS)
                .map(|i| {
                    format!(
                        "ic R{i}: Age >= {} <- faculty(X, N, Age, S, R, Ad).\n",
                        COLD_BASE + i as i64
                    )
                })
                .collect(),
            _ => IC4.to_string(),
        }
    }

    /// Share of `hit` dispositions the workload is valid within:
    /// `(at least, at most)`.
    pub fn hit_share_bounds(&self) -> (f64, f64) {
        match self.kind {
            Kind::ColdSearch => (0.0, 0.01),
            _ => (0.99, 1.0),
        }
    }
}

/// What the request streams need to know about the served data.
#[derive(Clone, Debug, Default)]
pub struct DataHandles {
    /// Section OIDs `link` requests may target.
    pub sections: Vec<u64>,
}

/// Builds the seeded university base at the spec's scale, shaped so that
/// every constraint of [`EXEC_ICS`] holds: one faculty member in fifty is
/// a professor paid at least 90 000, everyone else earns less.
pub fn build_base(spec: &Spec, seed: u64) -> (ObjectDb, DataHandles) {
    let d = UniversityConfig::default();
    let m = spec.base_mult;
    let mut data = UniversityConfig {
        persons: d.persons * m,
        students: d.students * m,
        faculty: d.faculty * m,
        courses: d.courses * m,
        salary_spread: 49_000.0,
        seed,
        ..d
    }
    .build()
    .expect("university base builds");
    for (i, f) in data.faculty.iter().enumerate() {
        let (rank, salary) = if i % 50 == 0 {
            ("professor", Some(90_000.0 + (i % 977) as f64))
        } else {
            ("assistant", None)
        };
        data.db.set_attr(*f, "rank", rank.into()).expect("rank");
        if let Some(s) = salary {
            data.db
                .set_attr(*f, "salary", Value::Real(s))
                .expect("salary");
        }
    }
    data.db
        .define_asr(
            "asr",
            "Student",
            &["takes", "is_section_of", "has_sections", "has_ta"],
        )
        .expect("asr path resolves");
    let handles = DataHandles {
        sections: data.sections.iter().map(|o| o.0).collect(),
    };
    (data.db, handles)
}

/// Reopens a durable base from `dir` (recovery: snapshot plus WAL tail).
pub fn open_base(dir: &Path) -> ObjectDb {
    let mut db =
        ObjectDb::open(university_schema(), dir, STORE_SHARDS).expect("store directory opens");
    sqo_objdb::register_university_methods(&mut db).expect("methods register");
    db
}

/// Prepares the workload's session and attaches its data: in memory, or
/// saved to `store_dir` and reopened from it when the spec is durable.
pub fn prepare_session(
    spec: &Spec,
    seed: u64,
    store_dir: &Path,
) -> (Arc<SessionRegistry>, Arc<Session>, DataHandles) {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(&spec.ic_text()))
        .expect("session prepares");
    let session = registry.get("default").expect("just prepared");
    let mut handles = DataHandles::default();
    if spec.base_mult > 0 {
        let (db, h) = build_base(spec, seed);
        handles = h;
        if spec.durable {
            db.save_to(store_dir, STORE_SHARDS)
                .expect("base saves to the store directory");
            drop(db);
            session.attach_db(open_base(store_dir));
        } else {
            session.attach_db(db);
        }
    }
    (registry, session, handles)
}

/// What kind of operation a request is, with what the durability check
/// must find after a reopen.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    Query,
    Create { name: String, age: i64 },
    Link { from: u64, to: u64 },
}

/// One generated request: the JSON line the server sees, plus what the
/// harness needs to check the reply.
#[derive(Clone, Debug)]
pub struct Request {
    pub line: String,
    pub op: Op,
    /// Template family (`serve_exec`) or a fixed label elsewhere.
    pub family: &'static str,
    /// The OQL text of a query request.
    pub oql: Option<String>,
    /// The answer count a correct server returns, when known.
    pub expect_answers: Option<usize>,
    /// First read this client issues after one of its own writes.
    pub stale: bool,
}

/// Expected answer counts of the read-only executing workload, keyed by
/// OQL text; computed before the timed phase (see `serve::oracle`).
pub type Oracle = HashMap<String, usize>;

fn query_request(oql: String, execute: bool, family: &'static str) -> Request {
    let exec = if execute { r#","execute":true"# } else { "" };
    Request {
        line: format!(r#"{{"op":"query","oql":{}{exec}}}"#, json_string(&oql)),
        op: Op::Query,
        family,
        oql: Some(oql),
        expect_answers: None,
        stale: false,
    }
}

/// Every distinct query `serve_exec` can send, for the answer oracle and
/// for warming every template during set-up.
pub fn exec_distinct_queries() -> Vec<String> {
    EXEC_MIX
        .iter()
        .flat_map(|f| f.params.clone().map(f.oql))
        .collect()
}

/// One client's seeded request stream. The same `(kind, seed, client)`
/// always yields the same requests; `write_read` additionally
/// depends on the OIDs the server acknowledged, which a deterministic
/// base makes deterministic too.
pub struct Stream {
    kind: Kind,
    rng: StdRng,
    client: usize,
    handles: DataHandles,
    oracle: Option<Arc<Oracle>>,
    /// Requests generated so far.
    issued: u64,
    /// `serve_exec`: what is left of the current block, as indices into
    /// [`EXEC_MIX`].
    block: Vec<usize>,
    /// `cold_search`: the last constant used per template shape.
    cold_last: [i64; COLD_SHAPES_PER_CLIENT],
    /// `write_read`: acknowledged creates, the last [`READ_WINDOW`] of
    /// them as `(k, linked)`, the last created OID awaiting its link, and
    /// whether a write is yet unread.
    created: usize,
    recent: VecDeque<(usize, bool)>,
    pending_link: Option<u64>,
    wrote: bool,
    reads_only: bool,
}

impl Stream {
    pub fn new(
        spec: &Spec,
        seed: u64,
        client: usize,
        handles: DataHandles,
        oracle: Option<Arc<Oracle>>,
    ) -> Stream {
        assert!(client < MAX_CLIENTS, "at most {MAX_CLIENTS} clients");
        // Distinct, seed-determined sub-streams per client and workload.
        let mix = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((client as u64 + 1) << 32)
            .wrapping_add(spec.kind as u64);
        Stream {
            kind: spec.kind,
            rng: StdRng::seed_from_u64(mix),
            client,
            handles,
            oracle,
            issued: 0,
            block: Vec::new(),
            cold_last: [COLD_BASE; COLD_SHAPES_PER_CLIENT],
            created: 0,
            recent: VecDeque::new(),
            pending_link: None,
            wrote: false,
            reads_only: false,
        }
    }

    /// The same stream with its writes replaced by reads: what set-up
    /// warms the server with, so timing starts on an unwritten base.
    pub fn reads_only(mut self) -> Stream {
        self.reads_only = true;
        self
    }

    /// This client's private age range in `write_read`.
    fn age_base(&self) -> i64 {
        WRITE_AGE_BASE + WRITE_AGE_SPAN * self.client as i64
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let i = self.issued;
        self.issued += 1;
        match self.kind {
            Kind::ServeWarm => {
                let age = self.rng.gen_range(WARM_AGES);
                query_request(
                    format!("select x.name from x in Person where x.age < {age}"),
                    false,
                    "warm",
                )
            }
            Kind::ServeExec => {
                if self.block.is_empty() {
                    self.block = EXEC_MIX
                        .iter()
                        .enumerate()
                        .flat_map(|(i, f)| std::iter::repeat_n(i, f.share))
                        .collect();
                    for i in (1..self.block.len()).rev() {
                        self.block.swap(i, self.rng.gen_range(0..i + 1));
                    }
                }
                let family = &EXEC_MIX[self.block.pop().expect("a block is never empty")];
                let param = self.rng.gen_range(family.params.clone());
                let mut req = query_request((family.oql)(param), true, family.name);
                req.expect_answers = self
                    .oracle
                    .as_ref()
                    .and_then(|o| o.get(req.oql.as_deref().unwrap_or_default()).copied());
                req
            }
            Kind::ColdSearch => {
                // A non-zero step modulo the threshold count: the new
                // constant equals a different IC threshold than the last
                // one of this shape, so its parameter signature differs
                // and the cached entry cannot be retargeted.
                let shape = self.rng.gen_range(0..COLD_SHAPES_PER_CLIENT);
                let step = self.rng.gen_range(1..COLD_ICS as i64);
                let mut c =
                    COLD_BASE + (self.cold_last[shape] - COLD_BASE + step) % COLD_ICS as i64;
                self.cold_last[shape] = c;
                if self.reads_only {
                    // Set-up's constants lie outside the threshold range,
                    // so whatever it leaves cached, the first timed
                    // request of a shape cannot match it.
                    c = if i.is_multiple_of(2) {
                        COLD_BASE - 5
                    } else {
                        COLD_BASE + 2 * COLD_ICS as i64
                    };
                }
                let proj = COLD_PROJECTIONS[self.client * COLD_SHAPES_PER_CLIENT + shape];
                query_request(
                    format!("select {proj} from x in Faculty where x.age > {c}"),
                    false,
                    "cold",
                )
            }
            Kind::WriteRead => self.next_write_read(i),
        }
    }

    /// Ten ops that start with a `create`; every other time a `link` of the
    /// object just created follows, so the stream repeats after
    /// [`WRITE_CYCLE`] ops. The rest are reads over this client's own age
    /// range.
    fn next_write_read(&mut self, i: u64) -> Request {
        let base = self.age_base();
        let slot = i % 10;
        if slot == 0 && !self.reads_only {
            let k = self.created as i64;
            assert!(k < WRITE_AGE_SPAN, "a client's age range is exhausted");
            let (tag, age) = (format!("w{}_{k}", self.client), base + k);
            return Request {
                line: format!(
                    r#"{{"op":"create","class":"Student","attrs":{{"name":"{tag}","age":{age},"student_id":"{tag}"}}}}"#
                ),
                op: Op::Create { name: tag, age },
                family: "create",
                oql: None,
                expect_answers: None,
                stale: false,
            };
        }
        if slot == 1 {
            if let Some(from) = self.pending_link.take() {
                let to = self.handles.sections[self.rng.gen_range(0..self.handles.sections.len())];
                return Request {
                    line: format!(r#"{{"op":"link","from":{from},"rel":"takes","to":{to}}}"#),
                    op: Op::Link { from, to },
                    family: "link",
                    oql: None,
                    expect_answers: None,
                    stale: false,
                };
            }
        }
        // Reads cover this client's most recent creates, whatever the
        // other clients did meanwhile: the ranges are disjoint. A window
        // of bounded size keeps the cost of a read the same all run long.
        // The k-th create has age `base + k`.
        let lo = self.created - self.rng.gen_range(0..self.recent.len() + 1);
        let hi = self.created as i64 + self.rng.gen_range(1..READ_WINDOW as i64);
        let (select, family, expected) = if i.is_multiple_of(2) {
            (
                "select x.name from x in Student",
                "read_created",
                self.created - lo,
            )
        } else {
            // One answer per linked student: each links at most once.
            let linked = self.recent.iter().filter(|(k, linked)| *k >= lo && *linked);
            (
                "select x.student_id from x in Student, y in x.takes",
                "read_linked",
                linked.count(),
            )
        };
        let mut req = query_request(
            format!(
                "{select} where x.age >= {} and x.age < {}",
                base + lo as i64,
                base + hi
            ),
            true,
            family,
        );
        req.expect_answers = Some(expected);
        req.stale = std::mem::take(&mut self.wrote);
        req
    }

    /// Records the server's acknowledgement of a `create`.
    pub fn ack_create(&mut self, oid: u64) {
        if self.recent.len() == READ_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back((self.created, false));
        self.created += 1;
        self.wrote = true;
        // Every other create is followed by a link.
        if self.created % 2 == 1 {
            self.pending_link = Some(oid);
        }
    }

    /// Records the server's acknowledgement of the `link` of the object
    /// created last.
    pub fn ack_link(&mut self) {
        if let Some(last) = self.recent.back_mut() {
            last.1 = true;
        }
        self.wrote = true;
    }
}

/// FNV-1a hash of the first `n` request lines of the timed stream, with
/// synthetic acknowledgements: a fingerprint of the generated load that
/// two runs of one seed must share.
pub fn stream_hash(spec: &Spec, seed: u64, handles: &DataHandles, n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut s = Stream::new(spec, seed, 0, handles.clone(), None);
    for i in 0..n {
        let req = s.next_request();
        for b in req.line.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        match req.op {
            Op::Create { .. } => s.ack_create(1_000_000 + i as u64),
            Op::Link { .. } => s.ack_link(),
            Op::Query => {}
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(name: &str, seed: u64, client: usize, n: usize) -> Vec<String> {
        let spec = Spec::named(name, false).unwrap();
        let handles = DataHandles {
            sections: (500..540).collect(),
        };
        let mut s = Stream::new(&spec, seed, client, handles, None);
        (0..n)
            .map(|i| {
                let r = s.next_request();
                match r.op {
                    Op::Create { .. } => s.ack_create(9000 + i as u64),
                    Op::Link { .. } => s.ack_link(),
                    Op::Query => {}
                }
                r.line
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for name in WORKLOADS {
            assert_eq!(lines(name, 7, 0, 300), lines(name, 7, 0, 300), "{name}");
            assert_ne!(lines(name, 7, 0, 300), lines(name, 8, 0, 300), "{name}");
            assert_ne!(lines(name, 7, 0, 300), lines(name, 7, 1, 300), "{name}");
        }
        let spec = Spec::named("serve_exec", false).unwrap();
        let h = DataHandles::default();
        assert_eq!(
            stream_hash(&spec, 3, &h, 100),
            stream_hash(&spec, 3, &h, 100)
        );
        assert_ne!(
            stream_hash(&spec, 3, &h, 100),
            stream_hash(&spec, 4, &h, 100)
        );
    }

    #[test]
    fn cold_constants_always_change_threshold_per_shape() {
        let spec = Spec::named("cold_search", false).unwrap();
        let mut s = Stream::new(&spec, 1, 1, DataHandles::default(), None);
        let mut last: HashMap<String, String> = HashMap::new();
        for _ in 0..2000 {
            let oql = s.next_request().oql.unwrap();
            let (shape, constant) = oql.rsplit_once("> ").unwrap();
            let c: i64 = constant.parse().unwrap();
            assert!((COLD_BASE..COLD_BASE + COLD_ICS as i64).contains(&c));
            if let Some(prev) = last.insert(shape.to_string(), constant.to_string()) {
                assert_ne!(prev, constant, "consecutive constants of a shape differ");
            }
        }
        assert_eq!(last.len(), COLD_SHAPES_PER_CLIENT);
    }

    #[test]
    fn write_read_cycle_and_expectations() {
        let spec = Spec::named("write_read", false).unwrap();
        for smoke in [false, true] {
            let slice = Spec::named("write_read", smoke).unwrap().slice_ops;
            assert_eq!(slice % WRITE_CYCLE, 0, "a slice is whole cycles");
            let slice = Spec::named("serve_exec", smoke).unwrap().slice_ops;
            assert_eq!(slice % EXEC_BLOCK, 0, "a slice is whole blocks");
        }
        let handles = DataHandles { sections: vec![77] };
        let mut s = Stream::new(&spec, 5, 1, handles, None);
        let (mut creates, mut links, mut stale) = (0, 0, 0);
        for i in 0..40u64 {
            let r = s.next_request();
            match r.op {
                Op::Create { age, .. } => {
                    assert_eq!(i % 10, 0);
                    assert_eq!(age, 3000 + creates as i64);
                    assert!(r.line.contains(&format!("\"age\":{age}")));
                    creates += 1;
                    s.ack_create(100 + i);
                }
                Op::Link { from, to } => {
                    assert_eq!((i % 10, from, to), (1, 100 + i - 1, 77));
                    links += 1;
                    s.ack_link();
                }
                Op::Query => {
                    stale += r.stale as usize;
                    // Few creates yet: every one is inside the window.
                    let expect = r.expect_answers.unwrap();
                    let all = if r.family == "read_linked" {
                        links
                    } else {
                        creates
                    };
                    assert!(expect <= all && all <= READ_WINDOW);
                    let oql = r.oql.unwrap();
                    if oql.contains(&format!("x.age >= {} ", 3000)) {
                        assert_eq!(expect, all, "{oql}");
                    }
                }
            }
        }
        assert_eq!((creates, links), (4, 2));
        // One stale read per write burst (create, or create + link).
        assert_eq!(stale, 4);
    }

    #[test]
    fn exec_blocks_hold_every_family_its_share_and_names_parse() {
        assert_eq!(EXEC_MIX.iter().map(|f| f.share).sum::<usize>(), EXEC_BLOCK);
        let spec = Spec::named("serve_exec", false).unwrap();
        let mut s = Stream::new(&spec, 11, 0, DataHandles::default(), None);
        for _ in 0..5 {
            let mut seen: HashMap<&str, usize> = HashMap::new();
            for _ in 0..EXEC_BLOCK {
                *seen.entry(s.next_request().family).or_default() += 1;
            }
            for f in &EXEC_MIX {
                assert_eq!(seen[f.name], f.share, "{}", f.name);
            }
        }
        for q in exec_distinct_queries() {
            sqo_oql::parse_oql(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
