//! The traced run (`--trace 1`): per-layer numbers.
//!
//! The first requests of the workload's stream are replayed on one
//! thread, in process, calling each layer's public functions in the
//! order the server's `run_query` does. Every call sits inside a
//! harness-side span; a layer's number is the median *self* time of its
//! spans (duration minus child spans). Counts come from the program's own
//! `obs` counters and repeat exactly, because nothing runs concurrently.
//!
//! `optimize_query_cached` is one call into `core`, so its inside cannot
//! be spanned from here. The parts it is made of (`translate` Step 2,
//! `datalog` template and search, `translate` Step 4) are called a second
//! time, directly, under a separate `shadow` root with `obs` switched
//! off, so they neither count twice nor enter the request's own time.
//!
//! Short served passes over one connection then give what only a socket
//! can: ping round trip, queue wait, the residual between the served p50
//! and everything the in-process replay explains, the tail latency the
//! end-to-end run is too easily disturbed to gate on, and (`serve_warm`)
//! the same traffic pipelined.

use crate::serve::{self, Conn, Limit, Load, RunResult, Scratch, Served};
use crate::stats::{self, P50, P99};
use crate::workload::{self, Kind, Op, Request, Spec, Stream};
use sqo_core::{CacheOutcome, CompileOptions, SemanticOptimizer};
use sqo_datalog::parser::{parse_program, Statement};
use sqo_datalog::residue::ResidueSet;
use sqo_datalog::search::{self, SearchConfig};
use sqo_objdb::{execute, execute_with, ExecOptions, ObjectDb, Oid, Value};
use sqo_obs::{self as obs, Counter};
use sqo_service::admission::{Pool, Task};
use sqo_service::framing::LineFramer;
use sqo_service::json::{self, Json};
use sqo_store::{ShardedStore, StoreOp, StoreValue};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One harness-side span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req_id: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans held in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, req_id: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req_id: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, req_id, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Each span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(span.name).or_default().push(own);
        }
        by_name
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"name":"{}","req_id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.req_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Builds the optimizer a session of `ic_text` is prepared from, the way
/// `sqo_service`'s registry does.
fn build_optimizer(ic_text: &str) -> SemanticOptimizer {
    let mut opt = SemanticOptimizer::university();
    for st in parse_program(ic_text).expect("constraint text parses") {
        match st {
            Statement::Constraint(ic) => opt.add_constraint(ic),
            Statement::Rule(rule) => opt.add_view(rule),
            other => panic!("unexpected statement {other:?}"),
        }
    }
    opt
}

fn json_value(v: &Json) -> Value {
    match v {
        Json::Str(s) => Value::Str(s.clone()),
        Json::Num(n) => Value::Int(*n as i64),
        other => panic!("generated attribute {other:?}"),
    }
}

/// Requests the pipelined pass writes before it reads a reply, and how
/// many times the lock-step pass's requests it sends.
const PIPELINE_WINDOW: usize = 8;

/// Every this-many-th executing request also runs the unoptimized query
/// on the scan-only executor, for `objdb.execute_original_us`.
const ORIGINAL_EVERY: u32 = 10;

/// The single-threaded in-process replay.
struct Replay {
    rec: Recorder,
    framer: LineFramer,
    shadow: SemanticOptimizer,
    search_cfg: SearchConfig,
    /// Generation the EDB was last built at, as `refresh_edb` tracks it.
    edb_generation: Option<u64>,
    edb_builds: u64,
    queries: u64,
    hits: u64,
    rebinds: u64,
    answers: u64,
    response_bytes: u64,
    /// `(oql, answers, expected when the stream knows it)` per executed
    /// query; checked after the replay.
    answered: Vec<(String, usize, Option<usize>)>,
    /// Template family of each request, by request id.
    families: Vec<&'static str>,
}

impl Replay {
    /// Builds the EDB under its own span when the next read would find
    /// it stale, exactly when `ObjectDb::refresh_edb` rebuilds.
    fn refresh_edb(&mut self, db: &ObjectDb, id: u32, parent: usize) {
        if self.edb_generation != Some(db.generation()) {
            self.rec.time("objdb.edb_build", id, Some(parent), || {
                db.edb_pinned();
            });
            self.edb_generation = Some(db.generation());
            self.edb_builds += 1;
        }
    }

    fn request(
        &mut self,
        id: u32,
        req: &Request,
        session: &sqo_service::Session,
        stream: &mut Stream,
    ) {
        self.families.push(req.family);
        let root = self.rec.open("request", id, None);
        let at = Some(root);
        let frame = self.rec.time("service.frame", id, at, || {
            self.framer
                .push(format!("{}\n", req.line).as_bytes())
                .expect("frame fits");
            self.framer.next_frame().expect("one whole frame")
        });
        let line = String::from_utf8(frame).expect("utf-8 frame");
        let parsed = self
            .rec
            .time("service.json_parse", id, at, || json::parse(&line))
            .expect("generated JSON parses");
        match &req.op {
            // Closes the root itself, before its shadow calls.
            Op::Query => return self.query(id, root, req, &parsed, session),
            Op::Create { .. } => {
                let db = session.data().expect("bound data");
                let mut db = db.lock().expect("db lock");
                let Some(Json::Obj(attrs)) = parsed.get("attrs") else {
                    panic!("create without attrs");
                };
                let attrs: Vec<(&str, Value)> = attrs
                    .iter()
                    .map(|(k, v)| (k.as_str(), json_value(v)))
                    .collect();
                let class = parsed.get("class").and_then(Json::as_str).expect("class");
                let oid = self
                    .rec
                    .time("objdb.create", id, at, || db.create(class, attrs))
                    .expect("create applies");
                stream.ack_create(oid.0);
            }
            Op::Link { .. } => {
                let db = session.data().expect("bound data");
                let mut db = db.lock().expect("db lock");
                let num = |k: &str| parsed.get(k).and_then(Json::as_u64).expect("oid");
                let rel = parsed.get("rel").and_then(Json::as_str).expect("rel");
                self.rec
                    .time("objdb.link", id, at, || {
                        db.link(Oid(num("from")), rel, Oid(num("to")))
                    })
                    .expect("link applies");
                stream.ack_link();
            }
        }
        self.rec.close(root);
    }

    fn query(
        &mut self,
        id: u32,
        root: usize,
        req: &Request,
        parsed: &Json,
        session: &sqo_service::Session,
    ) {
        let at = Some(root);
        let oql = parsed.get("oql").and_then(Json::as_str).expect("oql");
        let want_execute = parsed.get("execute").and_then(Json::as_bool) == Some(true);
        let select = self
            .rec
            .time("oql.parse", id, at, || sqo_oql::parse_oql(oql))
            .expect("generated OQL parses");
        let prep = session.prepared();
        let cached = self.rec.open("core.cached_hit", id, at);
        let (report, outcome) = prep
            .optimize_query_cached(session.cache(), &select)
            .expect("generated query optimizes");
        self.rec.close(cached);
        self.queries += 1;
        match outcome {
            CacheOutcome::Hit => self.hits += 1,
            CacheOutcome::Rebind => self.rebinds += 1,
            _ => {}
        }
        if outcome != CacheOutcome::Hit {
            self.rec.spans[cached].name = "core.cached_miss";
        }

        let mut exec = String::new();
        if want_execute {
            let mut answers = 0;
            if !report.is_contradiction() {
                let db = session.data().expect("bound data");
                let db = db.lock().expect("db lock");
                self.refresh_edb(&db, id, root);
                let (idx, eq, costs) = self
                    .rec
                    .time("core.best_plan", id, at, || report.best_plan(&db))
                    .expect("an equivalent to execute");
                let (rows, _) = self
                    .rec
                    .time("objdb.execute", id, at, || execute(&db, &eq.datalog))
                    .expect("chosen plan executes");
                answers = rows.len();
                exec = format!(
                    r#","plan_index":{idx},"plan_cost":{:.1},"answers":{answers}"#,
                    costs[idx]
                );
            }
            self.answers += answers as u64;
            self.answered
                .push((oql.to_string(), answers, req.expect_answers));
        }
        let response = self.rec.time("service.serialize", id, at, || {
            let explain = json::compact(&report.explain_json());
            format!(
                r#"{{"ok":true,"op":"query","session":"default","generation":{},"cache":"{}","elapsed_us":0,"trace_id":"default:0:{id}"{exec},"report":{explain}}}"#,
                prep.generation(),
                outcome.label()
            )
        });
        self.response_bytes += response.len() as u64;
        self.rec.close(root);

        // The parts of `optimize_query_cached`, called directly.
        obs::set_enabled(false);
        let shadow = self.rec.open("shadow", id, None);
        let at = Some(shadow);
        let translation = self
            .rec
            .time("translate.step2", id, at, || self.shadow.translate(&select))
            .expect("generated query translates");
        self.rec.time("datalog.template", id, at, || {
            translation.query.canonical_template()
        });
        if outcome != CacheOutcome::Hit {
            let ctx = self.shadow.compile();
            self.rec.time("datalog.search", id, at, || {
                search::optimize(&translation.query, ctx, &self.search_cfg)
            });
        }
        self.rec.time("translate.step4", id, at, || {
            for eq in report.equivalents() {
                let delta = search::delta(&translation.query, &eq.datalog);
                sqo_translate::apply_delta(
                    &translation.normalized,
                    &translation.map,
                    self.shadow.catalog(),
                    &delta,
                )
                .expect("delta applies");
            }
        });
        if want_execute && !report.is_contradiction() && id.is_multiple_of(ORIGINAL_EVERY) {
            let db = session.data().expect("bound data");
            let db = db.lock().expect("db lock");
            self.rec
                .time("objdb.execute_original", id, at, || {
                    execute_with(&db, &translation.query, ExecOptions::scan_only())
                })
                .expect("original executes");
        }
        self.rec.close(shadow);
        obs::set_enabled(true);
    }
}

fn median_us(samples: Option<&Vec<u64>>) -> f64 {
    stats::median_of(samples.cloned().unwrap_or_default()) / 1e3
}

fn median_ms_of(mut f: impl FnMut(), times: usize) -> f64 {
    let samples = (0..times)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    stats::median_of(samples) / 1e6
}

/// Geometric mean over families of median scan-only-original time over
/// median chosen-plan time: what the rewrite plus the access paths buy.
/// `families` names each request's template family by request id.
fn plan_speedup(rec: &Recorder, families: &[&'static str]) -> f64 {
    let by_family = |name: &str| {
        let mut m: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in rec.spans.iter().filter(|s| s.name == name) {
            m.entry(families[s.req_id as usize])
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
        m
    };
    let chosen = by_family("objdb.execute");
    let ratios: Vec<f64> = by_family("objdb.execute_original")
        .into_iter()
        .filter_map(|(family, orig)| {
            let plan = stats::median_of(chosen.get(family)?.clone());
            (plan > 0.0).then(|| stats::median_of(orig) / plan)
        })
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `Pool::submit` of a no-op task until its completion callback has run.
fn pool_hop_us(rounds: usize) -> f64 {
    let pool = Pool::new(2, 64);
    let (tx, rx) = mpsc::channel::<()>();
    let samples = (0..rounds)
        .map(|_| {
            let tx = tx.clone();
            let t0 = Instant::now();
            let admitted = pool.submit(Task {
                deadline: t0 + Duration::from_secs(60),
                submitted: t0,
                run: Box::new(move |_| {
                    let _ = tx.send(());
                }),
            });
            assert!(admitted, "an idle pool admits");
            rx.recv().expect("completion");
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    stats::median_of(samples) / 1e3
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Paired on/off ratio of the in-process request path with `obs`
/// recording enabled and disabled, in percent of the disabled time.
fn obs_overhead_pct(spec: &Spec, seed: u64, session: &sqo_service::Session) -> f64 {
    const ROUNDS: usize = 4;
    let n = (spec.trace_requests / 10).clamp(4, 100);
    let mut stream = Stream::new(spec, seed, 0, Default::default(), None).reads_only();
    let selects: Vec<_> = (0..n)
        .map(|_| {
            let oql = stream.next_request().oql.expect("reads only");
            sqo_oql::parse_oql(&oql).expect("generated OQL parses")
        })
        .collect();
    let prep = session.prepared();
    let pass = |on: bool| {
        obs::set_enabled(on);
        let t0 = Instant::now();
        for select in &selects {
            let (report, _) = prep
                .optimize_query_cached(session.cache(), select)
                .expect("optimizes");
            std::hint::black_box(json::compact(&report.explain_json()));
        }
        obs::set_enabled(true);
        t0.elapsed().as_nanos() as f64
    };
    let ratios: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            // Alternate which side runs first.
            if round % 2 == 0 {
                let on = pass(true);
                on / pass(false)
            } else {
                let off = pass(false);
                pass(true) / off
            }
        })
        .collect();
    (stats::median_and_spread(&ratios).0 - 1.0) * 100.0
}

/// The traced run. Returns every per-layer metric, in BENCHMARK.json
/// order, for every workload; a layer the workload never enters reads 0.
pub fn run(spec: &Spec, seed: u64, trace_out: &Path) -> Result<RunResult, String> {
    let mut scratch = Scratch::new();

    // ---- set-up layers, by direct calls --------------------------------
    let ic_text = spec.ic_text();
    let odl_parse_ms = median_ms_of(
        || {
            sqo_odl::Schema::parse(sqo_odl::fixtures::UNIVERSITY_ODL).expect("schema parses");
        },
        5,
    );
    let schema = sqo_odl::fixtures::university_schema();
    let step1_ms = median_ms_of(
        || {
            std::hint::black_box(sqo_translate::translate_schema(&schema));
        },
        5,
    );
    let constraints = build_optimizer(&ic_text).constraints();
    let residue_compile_ms = median_ms_of(
        || {
            std::hint::black_box(ResidueSet::compile_with(
                constraints.clone(),
                &CompileOptions::default(),
            ));
        },
        5,
    );
    let prepare_ms = median_ms_of(
        || {
            std::hint::black_box(build_optimizer(&ic_text).prepare());
        },
        5,
    );

    // ---- in-process replay ----------------------------------------------
    let store_dir = scratch.fresh();
    let (registry, session, handles) = workload::prepare_session(spec, seed, &store_dir);
    let wal_before = wal_bytes(&store_dir);
    let mut replay = Replay {
        rec: Recorder::new(),
        framer: LineFramer::new(1 << 20),
        shadow: build_optimizer(&ic_text),
        search_cfg: SearchConfig::default(),
        edb_generation: None,
        edb_builds: 0,
        queries: 0,
        hits: 0,
        rebinds: 0,
        answers: 0,
        response_bytes: 0,
        answered: Vec::new(),
        families: Vec::new(),
    };
    // Fill the plan cache as the served set-up does, by optimizing
    // only: the replay's first execution is then the one EDB build.
    {
        let prep = session.prepared();
        let mut warm = Stream::new(spec, seed, 1, handles.clone(), None).reads_only();
        let streamed = (0..spec.warmup).filter_map(|_| warm.next_request().oql);
        let distinct = if spec.kind == Kind::ServeExec {
            workload::exec_distinct_queries()
        } else {
            Vec::new()
        };
        for oql in distinct.into_iter().chain(streamed) {
            prep.optimize_cached(session.cache(), &oql)
                .expect("generated query optimizes");
        }
    }
    let before = obs::snapshot();
    let mut stream = Stream::new(spec, seed, 0, handles, None);
    for id in 0..spec.trace_requests as u32 {
        let req = stream.next_request();
        replay.request(id, &req, &session, &mut stream);
    }
    let counters = obs::snapshot().since(&before);
    let count = |c: Counter| counters.counter(c) as f64;
    let wal_appends = count(Counter::StoreWalAppends);
    let wal_growth = wal_bytes(&store_dir).saturating_sub(wal_before);
    let obs_pct = obs_overhead_pct(spec, seed, &session);
    // The reference answers are computed after the replay, so that the
    // replay's first execution is the one that builds the EDB.
    let oracle = (spec.kind == Kind::ServeExec).then(|| Arc::new(serve::oracle(&session)));
    let mut failed = 0u64;
    for (oql, answers, expected) in &replay.answered {
        let expected = expected.or_else(|| oracle.as_ref()?.get(oql).copied());
        if expected.is_some_and(|e| e != *answers) {
            failed += 1;
            eprintln!("failure: {oql}: {answers} answers in process, expected {expected:?}");
        }
    }
    replay
        .rec
        .write_jsonl(trace_out)
        .expect("trace file writes");
    let own = replay.rec.self_times_by_name();
    let layer = |name: &str| median_us(own.get(name));
    let inproc_request_us = {
        let roots: Vec<u64> = replay
            .rec
            .spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        stats::median_of(roots) / 1e3
    };

    // ---- store layers, on the replay's own directory ---------------------
    let (mut open_ms, mut load_view_ms, mut persist_ms, mut apply_us, mut view_us) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if spec.durable {
        let db = session.data().expect("bound data");
        {
            let db = db.lock().expect("db lock");
            let t0 = Instant::now();
            db.persist().expect("persist").expect("durable store");
            persist_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        drop(db);
        drop(session);
        drop(registry);
        let t0 = Instant::now();
        let opened = Arc::new(
            ShardedStore::open(&store_dir, workload::STORE_SHARDS).expect("store reopens"),
        );
        open_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let db = ObjectDb::from_store(sqo_odl::fixtures::university_schema(), opened.clone())
            .expect("view loads");
        load_view_ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(db);
        let applies = (0..200)
            .map(|i| {
                let op = StoreOp::PutObject {
                    oid: opened.alloc_oid(),
                    class: "Student".to_string(),
                    attrs: vec![
                        ("name".to_string(), StoreValue::Str(format!("probe{i}"))),
                        ("age".to_string(), StoreValue::Int(5000 + i)),
                    ]
                    .into_iter()
                    .collect(),
                };
                let t0 = Instant::now();
                opened.apply(&op).expect("probe applies");
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        apply_us = stats::median_of(applies) / 1e3;
        let views = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(opened.view());
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        view_us = stats::median_of(views) / 1e3;
    }

    // ---- served single-client passes --------------------------------------
    let served = Served::start(spec, seed, &mut scratch);
    let ping_rtt_us = {
        let mut conn = Conn::connect(served.addr).expect("ping connects");
        let samples = (0..spec.served_requests.max(100))
            .map(|_| {
                let t0 = Instant::now();
                conn.call(r#"{"op":"ping"}"#).expect("pong");
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        stats::median_of(samples) / 1e3
    };
    // Spans off, on, on, off over half the requests each: whatever the
    // machine does meanwhile lands on both sides of the comparison.
    let lock_step = Load {
        window: 1,
        limit: Limit::Requests(spec.served_requests / 2),
        slice_ops: 0,
        sample: false,
    };
    let mut off_stream = Stream::new(spec, seed, 0, served.handles.clone(), oracle.clone());
    let mut on_stream = Stream::new(spec, seed, 1, served.handles.clone(), oracle);
    let mut client_rec = Recorder::new();
    let (mut off, mut on) = (serve::Tally::default(), serve::Tally::default());
    let before = obs::snapshot();
    for spans_on in [false, true, true, false] {
        let (stream, tally, rec) = if spans_on {
            (&mut on_stream, &mut on, Some(&mut client_rec))
        } else {
            (&mut off_stream, &mut off, None)
        };
        tally.merge(serve::drive(served.addr, stream, lock_step, rec));
    }
    let pass = obs::snapshot().since(&before);
    // The same traffic, eight requests to a window: drain-all-frames
    // batching and in-order completion slots, which lock-step traffic
    // never enters. Latency is per reply from the window write.
    let (mut pipelined_p50_us, mut pipelined_ops_s) = (0.0, 0.0);
    if spec.kind == Kind::ServeWarm {
        let requests = spec.served_requests * PIPELINE_WINDOW;
        let load = Load {
            window: PIPELINE_WINDOW,
            limit: Limit::Requests(requests),
            ..lock_step
        };
        let t0 = Instant::now();
        let tally = serve::drive(served.addr, &mut off_stream, load, None);
        pipelined_ops_s = requests as f64 / t0.elapsed().as_secs_f64();
        pipelined_p50_us = stats::percentile(&stats::sorted(&tally.query), P50) as f64 / 1e3;
        off.attempted += tally.attempted;
        off.failed += tally.failed;
        off.failures.extend(tally.failures);
    }
    let mut recover_ms = 0.0;
    let store_dir = served.stop();
    if spec.durable {
        let mut both = serve::Tally::default();
        both.created
            .extend(off.created.iter().chain(&on.created).cloned());
        both.links
            .extend(off.links.iter().chain(&on.links).copied());
        let (took, wrong) = serve::recover_and_check(&store_dir, &both);
        recover_ms = took.as_secs_f64() * 1e3;
        for w in &wrong {
            eprintln!("failure: {w}");
        }
        off.failed += wrong.len() as u64;
    }
    for f in off.failures.iter().chain(&on.failures) {
        eprintln!("failure: {f}");
    }
    let percentile_us = |tally: &serve::Tally, p: u64| match stats::sorted(&tally.query) {
        ns if ns.is_empty() => 0.0,
        ns => stats::percentile(&ns, p) as f64 / 1e3,
    };
    let served_p50_us = percentile_us(&off, P50);
    let served_on_p50_us = percentile_us(&on, P50);
    let hop_us = pool_hop_us(2000);

    // ---- the metrics, in BENCHMARK.json order --------------------------------
    let queries = replay.queries.max(1) as f64;
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    m.push(("service.ping_rtt_us", ping_rtt_us, "us"));
    m.push(("service.frame_us", layer("service.frame"), "us"));
    m.push(("service.json_parse_us", layer("service.json_parse"), "us"));
    m.push(("service.pool_hop_us", hop_us, "us"));
    m.push(("service.serialize_us", layer("service.serialize"), "us"));
    m.push((
        "service.response_bytes",
        replay.response_bytes as f64 / queries,
        "B",
    ));
    m.push((
        "service.queue_wait_us",
        pass.counter(Counter::ServeWaitNs) as f64 / 1e3 / (off.queries + on.queries).max(1) as f64,
        "us",
    ));
    m.push((
        "service.shed_count",
        pass.counter(Counter::ServeShed) as f64,
        "count",
    ));
    m.push(("service.inproc_request_us", inproc_request_us, "us"));
    m.push(("service.served_single_p50_us", served_p50_us, "us"));
    m.push(("query_p99_us", percentile_us(&off, P99), "us"));
    m.push(("service.pipelined_p50_us", pipelined_p50_us, "us"));
    m.push(("service.pipelined_ops_s", pipelined_ops_s, "1/s"));
    m.push((
        "service.wire_overhead_us",
        served_p50_us - ping_rtt_us - hop_us - inproc_request_us,
        "us",
    ));
    m.push(("oql.parse_us", layer("oql.parse"), "us"));
    m.push(("translate.step2_us", layer("translate.step2"), "us"));
    m.push(("translate.step4_us", layer("translate.step4"), "us"));
    m.push(("datalog.template_us", layer("datalog.template"), "us"));
    m.push(("core.cached_hit_us", layer("core.cached_hit"), "us"));
    m.push((
        "core.cache_hit_ratio",
        replay.hits as f64 / queries,
        "ratio",
    ));
    m.push(("core.rebind_count", replay.rebinds as f64, "count"));
    m.push(("datalog.search_us", layer("datalog.search"), "us"));
    m.push((
        "datalog.search_nodes_expanded",
        count(Counter::SearchNodesExpanded),
        "count",
    ));
    m.push((
        "datalog.search_nodes_pruned",
        count(Counter::SearchNodesPruned),
        "count",
    ));
    m.push((
        "datalog.residues_applied",
        count(Counter::ResiduesApplied),
        "count",
    ));
    m.push(("core.cached_miss_us", layer("core.cached_miss"), "us"));
    m.push(("core.best_plan_us", layer("core.best_plan"), "us"));
    m.push(("objdb.execute_us", layer("objdb.execute"), "us"));
    m.push((
        "objdb.execute_original_us",
        layer("objdb.execute_original"),
        "us",
    ));
    m.push((
        "core.plan_speedup",
        plan_speedup(&replay.rec, &replay.families),
        "ratio",
    ));
    m.push((
        "objdb.rows_per_answer",
        count(Counter::EvalJoinInputTuples) / replay.answers.max(1) as f64,
        "ratio",
    ));
    m.push((
        "objdb.index_probe_count",
        count(Counter::ExecIndexProbes),
        "count",
    ));
    m.push((
        "objdb.range_probe_count",
        count(Counter::ExecRangeProbes),
        "count",
    ));
    m.push(("objdb.scan_count", count(Counter::ExecScans), "count"));
    m.push(("objdb.edb_build_ms", layer("objdb.edb_build") / 1e3, "ms"));
    m.push(("objdb.edb_builds", replay.edb_builds as f64, "count"));
    m.push(("objdb.create_us", layer("objdb.create"), "us"));
    m.push(("objdb.link_us", layer("objdb.link"), "us"));
    m.push(("store.apply_us", apply_us, "us"));
    m.push(("store.wal_appends", wal_appends, "count"));
    m.push((
        "store.wal_bytes_per_op",
        if wal_appends > 0.0 {
            wal_growth as f64 / wal_appends
        } else {
            0.0
        },
        "B",
    ));
    m.push(("store.view_us", view_us, "us"));
    m.push((
        "store.lock_wait_ns",
        count(Counter::StoreShardLockWaitNs),
        "ns",
    ));
    m.push(("store.open_ms", open_ms, "ms"));
    m.push(("store.persist_ms", persist_ms, "ms"));
    m.push(("objdb.load_view_ms", load_view_ms, "ms"));
    m.push(("odl.parse_ms", odl_parse_ms, "ms"));
    m.push(("translate.step1_ms", step1_ms, "ms"));
    m.push(("datalog.residue_compile_ms", residue_compile_ms, "ms"));
    m.push(("core.prepare_ms", prepare_ms, "ms"));
    m.push(("obs.overhead_pct", obs_pct, "%"));
    m.push((
        "trace_overhead_pct",
        if served_p50_us > 0.0 {
            (served_on_p50_us / served_p50_us - 1.0) * 100.0
        } else {
            0.0
        },
        "%",
    ));
    m.push((
        "write_p50_us",
        stats::median_of(off.write.clone()) / 1e3,
        "us",
    ));
    m.push((
        "stale_read_p50_us",
        stats::median_of(off.stale_ns) / 1e3,
        "us",
    ));
    m.push(("recover_ms", recover_ms, "ms"));

    let attempted = spec.trace_requests as u64 + off.attempted + on.attempted;
    let failed = failed + off.failed + on.failed;
    let detail = format!(
        r#"{{"replayed":{},"served_spans_off":{},"spans":{},"client_spans":{},"cache_hits":{},"queries":{},"trace_file":{}}}"#,
        spec.trace_requests,
        spec.served_requests,
        replay.rec.spans.len(),
        client_rec.spans.len(),
        replay.hits,
        replay.queries,
        obs::json_string(&trace_out.display().to_string()),
    );
    serve::check_dispositions(spec, replay.hits, replay.queries)?;
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let rec = Recorder {
            origin: Instant::now(),
            spans: vec![
                span("request", None, 0, 100),
                span("parse", Some(0), 10, 30),
                span("optimize", Some(0), 30, 90),
                span("search", Some(2), 40, 80),
            ],
        };
        // request: 100 - 20 - 60; optimize: 60 - 40; leaves keep theirs.
        assert_eq!(rec.self_times(), vec![20, 20, 20, 40]);
        let by_name = rec.self_times_by_name();
        assert_eq!(by_name["search"], vec![40]);
        assert_eq!(by_name["request"], vec![20]);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new();
        let root = rec.open("request", 7, None);
        let v = rec.time("child", 7, Some(root), || 42);
        rec.close(root);
        assert_eq!(v, 42);
        assert_eq!(rec.spans[1].parent, Some(root));
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);
        let own = rec.self_times();
        assert_eq!(own[0] + own[1], rec.spans[0].end_ns - rec.spans[0].start_ns);
    }

    #[test]
    fn plan_speedup_is_a_geometric_mean_over_families() {
        let exec = |req_id, name, ns| Span {
            name,
            req_id,
            parent: None,
            start_ns: 0,
            end_ns: ns,
        };
        let mut rec = Recorder::new();
        rec.spans = vec![
            exec(0, "objdb.execute", 10),
            exec(1, "objdb.execute", 100),
            exec(2, "objdb.execute", 10),
        ];
        let families = ["a", "b", "a"];
        assert_eq!(plan_speedup(&rec, &families), 0.0);
        rec.spans.push(exec(0, "objdb.execute_original", 40));
        rec.spans.push(exec(1, "objdb.execute_original", 100));
        // a: 4x, b: 1x -> sqrt(4) = 2.
        assert!((plan_speedup(&rec, &families) - 2.0).abs() < 1e-9);
    }
}
