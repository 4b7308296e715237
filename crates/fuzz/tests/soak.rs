//! Mixed-tenant mini-soak against the event-loop server (seed of
//! ROADMAP item 5b).
//!
//! Three university sessions with different integrity-constraint sets
//! share one event-loop server. The soak alternates serialized `create`
//! writes (mirrored into per-tenant oracle stores), pipelined bursts of
//! Zipf-skewed `execute:true` queries from concurrent clients, and
//! periodic `reload_ic` swaps that invalidate each tenant's plan cache
//! mid-run. Every query answer count is checked against the answer-set
//! oracle: the *original* (unoptimized) translation executed on the
//! local mirror of that tenant's store. A divergence means the served
//! semantic rewrite changed the answer set — the same invariant the
//! fuzz harness enforces, here under concurrency, pipelining, and cache
//! churn.
//!
//! Ignored by default (it is a soak, not a unit test); CI's fuzz job
//! runs it with `cargo test -p sqo-fuzz --test soak -- --ignored`.
//! `SQO_SOAK_REQUESTS` scales the query budget (default 400).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_core::SemanticOptimizer;
use sqo_objdb::{execute, ObjectDb, UniversityConfig, Value};
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const IC_STRICT: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";
const IC_WEAK: &str = "ic IC4w: Age >= 25 <- faculty(X, N, Age, S, R, Ad).";
const IC_SALARY: &str = "ic IC1: Salary > 40000 <- faculty(X, N, A, Salary, R, Ad).";

/// One tenant: its session name, the ICs `reload_ic` cycles through
/// (all of which hold on the fixture data, so served rewrites must be
/// answer-preserving), and the local oracle mirror of its store.
struct Tenant {
    name: &'static str,
    ics: &'static [&'static str],
    ic_cursor: usize,
    mirror: ObjectDb,
}

/// The query pool every tenant draws from, Zipf-skewed towards the
/// front. Mixes always-satisfiable Person scans, Faculty ranges that
/// are contradictions under the strict IC (served as zero answers with
/// no evaluation), and Student lookups.
fn query_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for k in [27, 24, 40, 21] {
        pool.push(format!("select x.name from x in Person where x.age < {k}"));
    }
    for k in [28, 33, 60] {
        pool.push(format!("select f.name from f in Faculty where f.age < {k}"));
    }
    pool.push("select s.name from s in Student where s.age < 30".to_string());
    pool.push("select f.name from f in Faculty where f.salary > 45000".to_string());
    pool.push("select s.name from s in Student".to_string());
    pool
}

/// Sample an index in `0..n` with Zipf weights `1/(i+1)`.
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let total: f64 = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).sum();
    let mut t = rng.gen_range(0.0..total);
    for i in 0..n {
        let w = 1.0 / (i as f64 + 1.0);
        if t < w {
            return i;
        }
        t -= w;
    }
    n - 1
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// Send each line and read its response before sending the next.
fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
    let (mut stream, mut reader) = connect(addr);
    lines
        .iter()
        .map(|l| {
            writeln!(stream, "{l}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            json::parse(&resp).unwrap()
        })
        .collect()
}

/// Send every line in one write (a pipelined batch), then read all
/// responses; the server must answer in request order.
fn pipelined(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    lines: &[String],
) -> Vec<Json> {
    let mut batch = String::new();
    for l in lines {
        batch.push_str(l);
        batch.push('\n');
    }
    stream.write_all(batch.as_bytes()).unwrap();
    lines
        .iter()
        .map(|_| {
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            json::parse(&resp).unwrap()
        })
        .collect()
}

#[test]
#[ignore = "mini-soak: run explicitly or via the CI fuzz job (-- --ignored)"]
fn mixed_tenant_zipf_soak() {
    let budget: usize = std::env::var("SQO_SOAK_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);

    let mut tenants = vec![
        Tenant {
            name: "alpha",
            ics: &[IC_STRICT, IC_WEAK],
            ic_cursor: 0,
            mirror: UniversityConfig::default().build().unwrap().db,
        },
        Tenant {
            name: "beta",
            ics: &[IC_WEAK, IC_SALARY],
            ic_cursor: 0,
            mirror: UniversityConfig::default().build().unwrap().db,
        },
        Tenant {
            name: "gamma",
            ics: &[IC_SALARY, IC_STRICT, IC_WEAK],
            ic_cursor: 0,
            mirror: UniversityConfig::default().build().unwrap().db,
        },
    ];

    let registry = Arc::new(SessionRegistry::new());
    for t in &tenants {
        registry
            .prepare(t.name, SessionSpec::University, Some(t.ics[0]))
            .unwrap();
        registry
            .get(t.name)
            .unwrap()
            .attach_university_data()
            .unwrap();
    }
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 128,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // The oracle translates with a no-IC optimizer: translation is
    // Steps 1–2 only, so the baseline Datalog is the query *before* any
    // semantic rewriting.
    let baseline_opt = SemanticOptimizer::university();
    let pool = query_pool();
    let translations: Vec<_> = pool
        .iter()
        .map(|oql| {
            let q = sqo_oql::parse_oql(oql).unwrap();
            baseline_opt.translate(&q).unwrap().query
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let mut issued = 0usize;
    let mut round = 0usize;
    const CLIENTS: usize = 3;
    const BURST: usize = 8;

    while issued < budget {
        round += 1;

        // Serialized write phase: a few Person creates on Zipf-chosen
        // tenants, mirrored into the local oracle stores. Person writes
        // can never violate the Faculty ICs, so every IC stays true and
        // rewrites must stay answer-preserving.
        for _ in 0..2 {
            let ti = zipf(&mut rng, tenants.len());
            let age = rng.gen_range(16i64..80);
            let name = format!("soak{round}_{age}");
            let t = &mut tenants[ti];
            let resp = &roundtrip(
                addr,
                &[format!(
                    r#"{{"op":"create","session":"{}","class":"Person","attrs":{{"name":{},"age":{age}}}}}"#,
                    t.name,
                    sqo_obs::json_string(&name),
                )],
            )[0];
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "create: {resp:?}");
            let oid = t
                .mirror
                .create(
                    "Person",
                    vec![("name", name.into()), ("age", Value::Int(age))],
                )
                .unwrap();
            // Identical fixture + identical write sequence ⇒ identical
            // oid allocation; a drift here means the mirror desynced.
            assert_eq!(resp.get("oid").and_then(Json::as_u64), Some(oid.0));
        }

        // Oracle expectations for this round: original translation
        // executed on each tenant's mirror.
        let expected: Vec<Vec<u64>> = tenants
            .iter()
            .map(|t| {
                translations
                    .iter()
                    .map(|q| execute(&t.mirror, q).unwrap().0.len() as u64)
                    .collect()
            })
            .collect();

        // Concurrent pipelined query phase: each client samples
        // Zipf-skewed (tenant, query) pairs and fires them as one
        // batch; answers must come back in order and match the oracle.
        let mut plans: Vec<Vec<(usize, usize)>> = Vec::new();
        for _ in 0..CLIENTS {
            let burst = BURST.min(budget.saturating_sub(issued).max(1));
            let mut picks = Vec::with_capacity(burst);
            for _ in 0..burst {
                picks.push((zipf(&mut rng, tenants.len()), zipf(&mut rng, pool.len())));
            }
            issued += burst;
            plans.push(picks);
        }
        let workers: Vec<_> = plans
            .into_iter()
            .map(|picks| {
                let expected = expected.clone();
                let pool = pool.clone();
                let names: Vec<&'static str> = tenants.iter().map(|t| t.name).collect();
                std::thread::spawn(move || {
                    let lines: Vec<String> = picks
                        .iter()
                        .map(|&(ti, qi)| {
                            format!(
                                r#"{{"op":"query","session":"{}","oql":{},"execute":true}}"#,
                                names[ti],
                                sqo_obs::json_string(&pool[qi]),
                            )
                        })
                        .collect();
                    let (mut stream, mut reader) = connect(addr);
                    let resps = pipelined(&mut stream, &mut reader, &lines);
                    for (i, (resp, &(ti, qi))) in resps.iter().zip(&picks).enumerate() {
                        assert_eq!(
                            resp.get("ok"),
                            Some(&Json::Bool(true)),
                            "client batch #{i} [{}]: {resp:?}",
                            lines[i]
                        );
                        assert_eq!(
                            resp.get("answers").and_then(Json::as_u64),
                            Some(expected[ti][qi]),
                            "tenant {} query [{}] diverged from the oracle: {resp:?}",
                            names[ti],
                            pool[qi]
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        // IC churn phase: every third round, rotate one tenant to its
        // next (still data-consistent) constraint set, invalidating its
        // plan cache under the concurrent-tenant load that follows.
        if round.is_multiple_of(3) {
            let ti = round / 3 % tenants.len();
            let t = &mut tenants[ti];
            t.ic_cursor = (t.ic_cursor + 1) % t.ics.len();
            let resp = &roundtrip(
                addr,
                &[format!(
                    r#"{{"op":"reload_ic","session":"{}","ic":{}}}"#,
                    t.name,
                    sqo_obs::json_string(t.ics[t.ic_cursor]),
                )],
            )[0];
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(true)),
                "reload_ic: {resp:?}"
            );
        }
    }

    // Health check: nothing was shed or timed out.
    let metrics = &roundtrip(addr, &[r#"{"op":"metrics"}"#.to_string()])[0];
    let counters = metrics
        .get("stats")
        .and_then(|s| s.get("counters"))
        .expect("metrics counters");
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert!(
        counter("serve.requests") >= issued as u64,
        "served fewer queries than issued: {metrics:?}"
    );
    assert_eq!(counter("serve.shed"), 0, "soak load was shed: {metrics:?}");
    assert_eq!(
        counter("serve.deadline_exceeded"),
        0,
        "soak queries timed out: {metrics:?}"
    );

    roundtrip(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    server_thread.join().unwrap();
}
