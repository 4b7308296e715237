//! The served path: an in-process `sqo_service::Server` on loopback TCP,
//! a closed-loop client, exact latency samples and checked answers.

use crate::clock;
use crate::stats::{self, P50, P99};
use crate::trace::Recorder;
use crate::workload::{self, DataHandles, Kind, Op, Oracle, Request, Spec, Stream};
use sqo_core::PreparedOptimizer;
use sqo_objdb::{execute_with, ExecOptions, Value};
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, Session};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads of the server under test.
const WORKERS: usize = 2;

/// Servers that carry a share of the timed load each (see `run`), and
/// with that the least number of set-ups; `setup_s` is their quiet level
/// (`stats::quiet_level`), as every timing of the run is. A set-up that
/// takes under [`QUICK_SETUP`] is repeated more often, being cheap to
/// repeat and the more easily disturbed.
const PHASES: usize = 5;
const QUICK_SETUP_REPEATS: usize = 15;
const QUICK_SETUP: Duration = Duration::from_millis(600);

/// Requests per window of the warm-up; half the server's default
/// admission queue, so none is shed.
const WARMUP_WINDOW: usize = 32;

/// Every this-many-th reply of a workload that does not execute is kept
/// and compared with a fresh, uncached optimization after the run.
const SAMPLE_EVERY: u64 = 100;

/// Samples a client has room for before its vector must grow (untouched
/// pages of the reservation are not resident).
const SAMPLE_CAPACITY: usize = 1 << 18;

/// Failure messages kept for the log; the count is always exact.
const KEPT_FAILURES: usize = 5;

/// A directory for a run's store files, under the directory of the
/// running executable: inside the checkout's ignored build output,
/// wherever the benchmark was built. Removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new() -> Scratch {
        let exe = std::env::current_exe().expect("path of the running executable");
        let root = exe
            .parent()
            .expect("executable has a directory")
            .join(format!("sqo-benchmark-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch directory");
        Scratch { root, next: 0 }
    }

    /// A path no earlier call returned; nothing is created there.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A blocking JSON-lines connection with `TCP_NODELAY` set.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // One-line requests must not wait in Nagle's buffer for the
        // peer's delayed ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// The next response line, without its terminator.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// One request, one reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.send(format!("{line}\n").as_bytes())?;
        self.recv()
    }
}

/// The fields of a response envelope the harness checks, read from the
/// part of the line before the (large) embedded explain report.
#[derive(Debug, PartialEq)]
pub struct Envelope<'a> {
    pub ok: bool,
    pub cache: Option<&'a str>,
    pub answers: Option<usize>,
    pub oid: Option<u64>,
}

pub fn envelope(resp: &str) -> Envelope<'_> {
    let head = &resp[..resp.find(r#","report":"#).unwrap_or(resp.len())];
    let after = |key: &str| head.find(key).map(|i| &head[i + key.len()..]);
    let number = |key: &str| {
        after(key).and_then(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
    };
    Envelope {
        ok: head.starts_with(r#"{"ok":true"#),
        cache: after(r#""cache":""#).and_then(|rest| rest.split('"').next()),
        answers: number(r#""answers":"#).map(|n| n as usize),
        oid: number(r#""oid":"#),
    }
}

/// A running server with its session, after warm-up.
pub struct Served {
    pub addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    pub session: Arc<Session>,
    pub handles: DataHandles,
    pub store_dir: PathBuf,
}

impl Served {
    /// Set-up as a user of the system pays it: prepare the session, build
    /// (or save and reopen) the data, start the server, warm it up.
    pub fn start(spec: &Spec, seed: u64, scratch: &mut Scratch) -> Served {
        let store_dir = scratch.fresh();
        let (registry, session, handles) = workload::prepare_session(spec, seed, &store_dir);
        let server = Server::bind(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: WORKERS,
                default_timeout_ms: 60_000,
                ..ServerConfig::default()
            },
            registry,
        )
        .expect("server binds a loopback port");
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        let served = Served {
            addr,
            thread,
            session,
            handles,
            store_dir,
        };
        served.warm_up(spec, seed);
        served
    }

    /// Fills the plan cache and builds the first EDB, so the timed phase
    /// measures the steady state. Reads only: the base stays unwritten.
    /// Requests go out in windows, so that set-up time is the server's
    /// work and not one idle-core wake-up per request (which costs 10 us
    /// or 40 us on the same machine, depending on what else it does).
    fn warm_up(&self, spec: &Spec, seed: u64) {
        let mut conn = Conn::connect(self.addr).expect("warm-up connects");
        let mut ask = |window: &[String]| {
            conn.send(format!("{}\n", window.join("\n")).as_bytes())
                .expect("warm-up write");
            for line in window {
                let resp = conn.recv().expect("warm-up reply");
                assert!(
                    envelope(resp).ok,
                    "warm-up request failed: {line} -> {resp}"
                );
            }
        };
        if spec.kind == Kind::ServeExec {
            // Every distinct query once, one at a time: the families'
            // searches run here, each once.
            for oql in workload::exec_distinct_queries() {
                ask(&[format!(
                    r#"{{"op":"query","oql":{},"execute":true}}"#,
                    sqo_obs::json_string(&oql)
                )]);
            }
        }
        for client in 0..workload::MAX_CLIENTS {
            let mut stream =
                Stream::new(spec, seed, client, self.handles.clone(), None).reads_only();
            let lines: Vec<String> = (0..spec.warmup / workload::MAX_CLIENTS)
                .map(|_| stream.next_request().line)
                .collect();
            lines.chunks(WARMUP_WINDOW).for_each(&mut ask);
        }
    }

    /// Asks the server to shut down and waits for its thread; the
    /// session (and with it the store) is released when the last handle
    /// drops.
    pub fn stop(self) -> PathBuf {
        let mut conn = Conn::connect(self.addr).expect("shutdown connects");
        let _ = conn.call(r#"{"op":"shutdown"}"#);
        self.thread
            .join()
            .expect("server thread")
            .expect("server loop");
        self.store_dir
    }
}

/// Expected answer counts for every distinct query `serve_exec` sends:
/// the unoptimized Step-2 translation, evaluated by the scan-only
/// executor over the served base itself.
pub fn oracle(session: &Session) -> Oracle {
    let prep = session.prepared();
    let db = session.data().expect("serve_exec has data");
    let db = db.lock().expect("db lock");
    workload::exec_distinct_queries()
        .into_iter()
        .map(|oql| {
            let parsed = sqo_oql::parse_oql(&oql).expect("template parses");
            let translation =
                sqo_translate::translate_query(&parsed, prep.schema(), prep.catalog())
                    .expect("template translates");
            let (rows, _) = execute_with(&db, &translation.query, ExecOptions::scan_only())
                .expect("reference execution");
            (oql, rows.len())
        })
        .collect()
}

/// The end of one slice of a client's load: when its last reply arrived
/// (on `clock::unstolen`, since the load began) and how many operations
/// and query samples the client had by then.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SliceEnd {
    pub at: Duration,
    pub ops: u64,
    pub queries: usize,
}

/// What one client measured.
#[derive(Default)]
pub struct Tally {
    /// Latency in nanoseconds of every answered query, and of every
    /// acknowledged `create` and `link`, in order of arrival.
    pub query: Vec<u64>,
    pub write: Vec<u64>,
    /// The queries' latencies on `clock::busy`: stolen time left out.
    pub query_busy: Vec<u64>,
    pub slices: Vec<SliceEnd>,
    /// Latency of the first read a client issued after its own write.
    pub stale_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub queries: u64,
    pub hits: u64,
    /// Of a workload that does not execute, every [`SAMPLE_EVERY`]-th
    /// query with what its reply said: `(contradiction, equivalents)`,
    /// or `None` for a reply that did not parse.
    pub samples: Vec<(String, Option<(bool, usize)>)>,
    /// Acknowledged creates as `(oid, name, age)` and links as `(from,
    /// to)`, for the durability check.
    pub created: Vec<(u64, String, i64)>,
    pub links: Vec<(u64, u64)>,
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        // Slice ends index one client's samples: they are not merged.
        self.query.extend(other.query);
        self.write.extend(other.write);
        self.query_busy.extend(other.query_busy);
        self.stale_ns.extend(other.stale_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queries += other.queries;
        self.hits += other.hits;
        self.samples.extend(other.samples);
        self.created.extend(other.created);
        self.links.extend(other.links);
        for f in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(f);
            }
        }
    }

    /// Checks one reply against its request and files its latency.
    fn account(
        &mut self,
        req: &Request,
        resp: &str,
        (reply_ns, busy_ns): (u64, u64),
        stream: &mut Stream,
        sample: bool,
    ) {
        self.attempted += 1;
        let env = envelope(resp);
        if !env.ok {
            let head: String = resp.chars().take(200).collect();
            return self.fail(format!("{} -> {head}", req.line));
        }
        match &req.op {
            Op::Query => {
                self.queries += 1;
                self.hits += (env.cache == Some("hit")) as u64;
                self.query.push(reply_ns);
                self.query_busy.push(busy_ns);
                if req.stale {
                    self.stale_ns.push(reply_ns);
                }
                if let Some(expected) = req.expect_answers {
                    if env.answers != Some(expected) {
                        self.fail(format!(
                            "{}: {:?} answers, expected {expected}",
                            req.line, env.answers
                        ));
                    }
                }
                if sample && self.queries.is_multiple_of(SAMPLE_EVERY) {
                    self.samples
                        .push((req.oql.clone().unwrap_or_default(), reply_verdict(resp)));
                }
            }
            Op::Create { name, age } => {
                self.write.push(reply_ns);
                match env.oid {
                    Some(oid) => {
                        stream.ack_create(oid);
                        self.created.push((oid, name.clone(), *age));
                    }
                    None => self.fail(format!("{}: create reply without oid", req.line)),
                }
            }
            Op::Link { from, to } => {
                self.write.push(reply_ns);
                stream.ack_link();
                self.links.push((*from, *to));
            }
        }
    }
}

/// When a client stops sending.
#[derive(Clone, Copy)]
pub enum Limit {
    Until(Instant),
    Requests(usize),
}

/// How a client loads the server.
#[derive(Clone, Copy)]
pub struct Load {
    /// Requests written before any reply is read; 1 is lock-step.
    pub window: usize,
    pub limit: Limit,
    /// Operations per slice; 0 marks no slices.
    pub slice_ops: usize,
    /// Whether to keep every [`SAMPLE_EVERY`]-th reply for `verify_samples`.
    pub sample: bool,
}

/// One closed-loop client: writes a window of requests, waits for every
/// reply, repeats. Latency is measured per reply from the window write.
/// With a recorder, each window and reply also leaves a harness span.
pub fn drive(
    addr: SocketAddr,
    stream: &mut Stream,
    load: Load,
    mut rec: Option<&mut Recorder>,
) -> Tally {
    let Load {
        window,
        limit,
        slice_ops,
        sample,
    } = load;
    let mut conn = Conn::connect(addr).expect("client connects");
    let epoch = clock::unstolen();
    // Room for every sample up front: a growing vector would copy itself
    // and move the process's peak RSS with the throughput.
    let mut tally = Tally {
        query: Vec::with_capacity(SAMPLE_CAPACITY),
        query_busy: Vec::with_capacity(SAMPLE_CAPACITY),
        ..Tally::default()
    };
    let mut sent = 0usize;
    let mut batch = String::new();
    let mut reqs: Vec<Request> = Vec::with_capacity(window);
    loop {
        let n = match limit {
            Limit::Until(deadline) if Instant::now() >= deadline => break,
            Limit::Until(_) => window,
            Limit::Requests(total) if sent >= total => break,
            Limit::Requests(total) => window.min(total - sent),
        };
        batch.clear();
        reqs.clear();
        for _ in 0..n {
            let req = stream.next_request();
            batch.push_str(&req.line);
            batch.push('\n');
            reqs.push(req);
        }
        let root = rec
            .as_deref_mut()
            .map(|r| r.open("client.window", sent as u32, None));
        let (t0, busy0) = (Instant::now(), clock::busy());
        if let Err(e) = conn.send(batch.as_bytes()) {
            tally.attempted += n as u64;
            tally.fail(format!("transport: {e}"));
            break;
        }
        for req in &reqs {
            let reply = rec
                .as_deref_mut()
                .map(|r| r.open("client.reply", sent as u32, root));
            match conn.recv() {
                Ok(resp) => {
                    let took = (
                        t0.elapsed().as_nanos() as u64,
                        (clock::busy() - busy0).as_nanos() as u64,
                    );
                    tally.account(req, resp, took, stream, sample);
                    if slice_ops > 0 && tally.attempted.is_multiple_of(slice_ops as u64) {
                        tally.slices.push(SliceEnd {
                            at: clock::unstolen().saturating_sub(epoch),
                            ops: tally.attempted,
                            queries: tally.query.len(),
                        });
                    }
                }
                Err(e) => {
                    tally.attempted += 1;
                    tally.fail(format!("transport: {e}"));
                    return tally;
                }
            }
            if let (Some(r), Some(i)) = (rec.as_deref_mut(), reply) {
                r.close(i);
            }
            sent += 1;
        }
        if let (Some(r), Some(i)) = (rec.as_deref_mut(), root) {
            r.close(i);
        }
    }
    tally
}

/// What a query reply's embedded report says: whether the verdict is a
/// contradiction, and how many equivalent queries it lists.
fn reply_verdict(resp: &str) -> Option<(bool, usize)> {
    let reply = json::parse(resp).ok()?;
    let report = reply.get("report")?;
    let contradiction = report.get("verdict")?.as_str()? == "contradiction";
    let equivalents = report
        .get("equivalents")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    Some((contradiction, equivalents))
}

/// Compares the sampled replies of a workload that does not execute with
/// a fresh, uncached optimization of the same query: same verdict, same
/// number of equivalent queries. Returns the mismatches.
pub fn verify_samples(
    prep: &PreparedOptimizer,
    samples: &[(String, Option<(bool, usize)>)],
) -> Vec<String> {
    let mut fresh: HashMap<&str, (bool, usize)> = HashMap::new();
    let mut wrong = Vec::new();
    for (oql, got) in samples {
        let expected = *fresh.entry(oql).or_insert_with(|| {
            let report = prep.optimize(oql).expect("generated query optimizes");
            (report.is_contradiction(), report.equivalents().len())
        });
        if *got != Some(expected) {
            wrong.push(format!(
                "{oql}: reply has {got:?}, fresh optimize has {expected:?}"
            ));
        }
    }
    wrong
}

/// Reopens the store directory and checks every acknowledged write is
/// there: each created object with its attributes, each link. Returns
/// the reopen time and the violations.
pub fn recover_and_check(dir: &Path, tally: &Tally) -> (Duration, Vec<String>) {
    let t0 = Instant::now();
    let db = workload::open_base(dir);
    let took = t0.elapsed();
    let mut wrong = Vec::new();
    for (oid, name, age) in &tally.created {
        let got_name = db.attr(sqo_objdb::Oid(*oid), "name");
        let got_age = db.attr(sqo_objdb::Oid(*oid), "age");
        if got_name != Some(&Value::Str(name.clone())) || got_age != Some(&Value::Int(*age)) {
            wrong.push(format!(
                "created #{oid} {name} age {age} came back as {got_name:?} age {got_age:?}"
            ));
        }
    }
    for (from, to) in &tally.links {
        let linked = db
            .linked(sqo_objdb::Oid(*from), "takes")
            .unwrap_or_default();
        if !linked.contains(&sqo_objdb::Oid(*to)) {
            wrong.push(format!("link {from} -takes-> {to} is gone after reopen"));
        }
    }
    (took, wrong)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of one run: the contract's result line plus details.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra facts for the `detail` line, already JSON.
    pub detail: String,
}

/// A workload whose cache dispositions are not the ones it exists to
/// produce measures something else: the run ends without a result.
pub fn check_dispositions(spec: &Spec, hits: u64, queries: u64) -> Result<(), String> {
    let share = hits as f64 / queries.max(1) as f64;
    let (lo, hi) = spec.hit_share_bounds();
    if (lo..=hi).contains(&share) {
        return Ok(());
    }
    Err(format!(
        "workload invalid: {} saw {hits} cache hits in {queries} queries ({:.2} %), \
         outside [{:.0} %, {:.0} %]",
        spec.name,
        share * 100.0,
        lo * 100.0,
        hi * 100.0
    ))
}

/// `[operations per unstolen second, median busy query latency in us]`
/// of every slice the client completed. A load too short for one slice is
/// one slice.
fn slice_values(tally: &Tally, elapsed: Duration) -> Vec<[f64; 2]> {
    let whole = [SliceEnd {
        at: elapsed,
        ops: tally.attempted,
        queries: tally.query_busy.len(),
    }];
    let ends = if tally.slices.is_empty() {
        &whole[..]
    } else {
        &tally.slices[..]
    };
    let mut from = SliceEnd {
        at: Duration::ZERO,
        ops: 0,
        queries: 0,
    };
    let mut values = Vec::with_capacity(ends.len());
    for &end in ends {
        let latencies = stats::sorted(&tally.query_busy[from.queries..end.queries]);
        // The steal counter moves in steps of 10 ms: a slice it makes
        // look instantaneous says nothing.
        let took = end.at.saturating_sub(from.at);
        if !latencies.is_empty() && !took.is_zero() {
            values.push([
                (end.ops - from.ops) as f64 / took.as_secs_f64(),
                stats::percentile(&latencies, P50) as f64 / 1e3,
            ]);
        }
        from = end;
    }
    values
}

/// The end-to-end run (`--trace 0`).
///
/// Set-up runs [`PHASES`] times (or more, see there), and each of the first
/// [`PHASES`] servers it produces carries an equal share of the `seconds`
/// of load: one connection, lock-step, closed loop. The load is cut into
/// slices of `spec.slice_ops` operations, each a few tenths of a second
/// and the same request mix as the next. `throughput_ops_s` and
/// `query_p50_us` are each the median over the best fifth of all the
/// run's slices, and `setup_s` the median over the best fifth of the
/// set-ups (see `stats::quiet_level`): what the program does while the
/// machine leaves it alone. Slices and set-ups are timed on
/// `clock::unstolen`, single queries on `clock::busy`: neither counts the
/// time the hypervisor gave the processor to another tenant.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut scratch = Scratch::new();
    let phase_s = seconds / PHASES as f64;
    let mut setups: Vec<f64> = Vec::new();
    let mut slices: Vec<[f64; 2]> = Vec::new();
    let mut per_phase: Vec<String> = Vec::new();
    let mut oracle: Option<Arc<Oracle>> = None;
    let mut total = Tally::default();
    let mut stream_hash = 0;
    let mut rss_peak_mb = None;
    let mut repeats = PHASES;
    while setups.len() < repeats {
        let t0 = clock::unstolen();
        let served = Served::start(spec, seed, &mut scratch);
        let took = clock::unstolen().saturating_sub(t0);
        if setups.is_empty() && took < QUICK_SETUP {
            repeats = QUICK_SETUP_REPEATS;
        }
        setups.push(took.as_secs_f64());
        if per_phase.len() == PHASES {
            // Every share of the load is carried: this set-up was for
            // `setup_s` alone.
            let _ = std::fs::remove_dir_all(served.stop());
            continue;
        }
        if slices.is_empty() {
            stream_hash = workload::stream_hash(spec, seed, &served.handles, 1000);
            if spec.kind == Kind::ServeExec {
                oracle = Some(Arc::new(self::oracle(&served.session)));
            }
        }
        let mut stream = Stream::new(spec, seed, 0, served.handles.clone(), oracle.clone());
        let t0 = clock::unstolen();
        let load = Load {
            window: 1,
            limit: Limit::Until(Instant::now() + Duration::from_secs_f64(phase_s)),
            slice_ops: spec.slice_ops,
            sample: !spec.executes(),
        };
        let mut tally = drive(served.addr, &mut stream, load, None);
        let elapsed = clock::unstolen().saturating_sub(t0);
        // The peak of the first server that carries load, with its load.
        // Later servers are built where the allocator kept or did not
        // keep the freed memory of earlier ones: the whole run's peak on
        // `serve_exec` read 170 MiB in four runs of five and 217 MiB in
        // the fifth.
        rss_peak_mb.get_or_insert_with(self::rss_peak_mb);
        let prep = served.session.prepared();
        let store_dir = served.stop();
        check_dispositions(spec, tally.hits, tally.queries)?;
        let phase = slice_values(&tally, elapsed);
        let column = |c: usize| phase.iter().map(|s| s[c]).collect::<Vec<f64>>();
        per_phase.push(format!(
            "[{:.3},{:.3}]",
            stats::median_f64(&column(0)),
            stats::median_f64(&column(1))
        ));
        slices.extend(phase);
        for wrong in verify_samples(&prep, &tally.samples) {
            tally.fail(wrong);
        }
        if spec.durable {
            for wrong in recover_and_check(&store_dir, &tally).1 {
                tally.fail(wrong);
            }
        }
        let _ = std::fs::remove_dir_all(store_dir);
        total.merge(tally);
    }
    for f in &total.failures {
        eprintln!("failure: {f}");
    }
    if slices.is_empty() {
        return Err(format!("{}: no query completed", spec.name));
    }
    let rss_peak_mb = rss_peak_mb.expect("a phase ran");
    let column = |c: usize| slices.iter().map(|s| s[c]).collect::<Vec<f64>>();
    let (throughputs, p50s) = (column(0), column(1));
    let metrics = vec![
        (
            "throughput_ops_s",
            stats::quiet_level(&throughputs, true),
            "1/s",
        ),
        ("query_p50_us", stats::quiet_level(&p50s, false), "us"),
        ("rss_peak_mb", rss_peak_mb, "MiB"),
        ("setup_s", stats::quiet_level(&setups, false), "s"),
    ];
    let all = stats::sorted(&total.query);
    let n = all.len();
    let whole = |p: u64| stats::percentile(&all, p) as f64 / 1e3;
    let tail = stats::tail_percentile(n);
    let detail = format!(
        r#"{{"seconds":{seconds},"setups":{},"all_setups_median_s":{:.6},"phases":[{}],"slices":{},"slice_ops":{},"all_slices_throughput_ops_s":{:.3},"all_slices_p50_us":{:.3},"query_samples":{n},"write_samples":{},"stolen_s":{:.2},"whole_run_ops_s":{:.3},"whole_run_p50_us":{:.3},"whole_run_p99_us":{:.3},"tail_percentile":{},"tail_us":{},"cache_hits":{},"queries":{},"sampled_replies_checked":{},"stream_hash":"{stream_hash:016x}"}}"#,
        setups.len(),
        stats::median_f64(&setups),
        per_phase.join(","),
        slices.len(),
        spec.slice_ops,
        stats::median_f64(&throughputs),
        stats::median_f64(&p50s),
        total.write.len(),
        clock::stolen().as_secs_f64(),
        total.attempted as f64 / seconds,
        whole(P50),
        whole(P99),
        tail.map_or("null".to_string(), |p| format!("{}", p as f64 / 100.0)),
        tail.map_or("null".to_string(), |p| format!("{:.3}", whole(p))),
        total.hits,
        total.queries,
        total.samples.len(),
    );
    Ok(RunResult {
        correct: total.failed == 0,
        attempted: total.attempted,
        failed: total.failed,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_reads_the_head_only() {
        let resp = r#"{"ok":true,"op":"query","session":"default","generation":0,"cache":"hit","elapsed_us":12,"trace_id":"default:0:5","plan_index":1,"plan_cost":10.0,"answers":42,"report":{"query":"x \"cache\":\"miss\" \"answers\":7"}}"#;
        assert_eq!(
            envelope(resp),
            Envelope {
                ok: true,
                cache: Some("hit"),
                answers: Some(42),
                oid: None
            }
        );
        let create =
            r#"{"ok":true,"op":"create","session":"default","oid":31001,"store_generation":9}"#;
        assert_eq!(envelope(create).oid, Some(31001));
        let err = r#"{"ok":false,"error":{"kind":"overloaded","message":"m"}}"#;
        assert!(!envelope(err).ok);
    }

    #[test]
    fn slices_are_timed_by_their_last_reply() {
        let ms = Duration::from_millis;
        let mut tally = Tally {
            // Two slices of three ops; the second holds one write.
            query_busy: vec![3_000, 1_000, 2_000, 9_000, 7_000],
            attempted: 7,
            ..Tally::default()
        };
        // Too short for a slice: the whole load is one.
        assert_eq!(slice_values(&tally, ms(500)), vec![[14.0, 3.0]]);
        tally.slices = vec![
            SliceEnd {
                at: ms(250),
                ops: 3,
                queries: 3,
            },
            SliceEnd {
                at: ms(1000),
                ops: 6,
                queries: 5,
            },
        ];
        // The op after the last slice end belongs to no slice.
        assert_eq!(
            slice_values(&tally, ms(1100)),
            vec![[12.0, 2.0], [4.0, 7.0]]
        );
    }
}
