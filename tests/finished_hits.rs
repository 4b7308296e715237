//! Finished warm hits over a real `sqo_service::Server` socket: a
//! repeated executing query is served from the plan cache's finished
//! instance, found by the request text before anything is parsed — same
//! bytes as the hit that filled it — and is still executed, so a write
//! between two repeats shows in the answer count; another spelling gets
//! an instance of its own that says the same; an IC reload leaves nothing
//! of either behind.

use sqo_obs as obs;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// Drops the per-request fields: timings, the trace id and every `stats`
/// object (its spans list only the work a request did).
fn scrub(v: &Json) -> Json {
    match v {
        Json::Obj(m) => Json::Obj(
            m.iter()
                .filter(|(k, _)| !matches!(k.as_str(), "elapsed_us" | "trace_id" | "stats"))
                .map(|(k, v)| (k.clone(), scrub(v)))
                .collect(),
        ),
        Json::Arr(a) => Json::Arr(a.iter().map(scrub).collect()),
        other => other.clone(),
    }
}

/// A counter of the `stats` object `holder` carries: a `metrics` reply
/// (whole process) or a query reply's `report` (that request alone).
fn counter(holder: &Json, name: &str) -> u64 {
    holder
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats list {name}"))
}

/// The same counter of a query reply's own report.
fn own(reply: &Json, name: &str) -> u64 {
    counter(reply.get("report").expect("a query reply"), name)
}

#[test]
fn a_repeated_query_is_finished_once_and_executed_every_time() {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let session = registry.get("default").unwrap();
    session.attach_university_data().unwrap();
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| {
        writeln!(stream, "{line}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        json::parse(&resp).unwrap_or_else(|e| panic!("{e}: {resp}"))
    };
    let query = format!(
        r#"{{"op":"query","execute":true,"oql":{}}}"#,
        obs::json_string("select x.name from x in Person where x.age < 27")
    );
    let cache = |r: &Json| r.get("cache").and_then(Json::as_str).map(str::to_string);
    let answers = |r: &Json| r.get("answers").and_then(Json::as_u64).unwrap();

    let miss = ask(&query);
    assert_eq!(cache(&miss).as_deref(), Some("miss"), "{miss:?}");
    let first = ask(&query);
    let before = ask(r#"{"op":"metrics"}"#);
    let repeat = ask(&query);
    assert_eq!(cache(&first).as_deref(), Some("hit"));
    assert_eq!(cache(&repeat).as_deref(), Some("hit"));
    assert_eq!(
        scrub(&first),
        scrub(&repeat),
        "an instance hit answers what the hit that filled it answered"
    );
    assert!(answers(&repeat) > 0, "the generated base has young persons");
    // The repeat skipped Step 4: its stats carry no retarget span.
    let spans = |r: &Json| {
        r.get("report")
            .and_then(|r| r.get("stats"))
            .and_then(|s| s.get("spans"))
            .cloned()
            .unwrap()
    };
    assert!(spans(&first).get("cache.retarget").is_some());
    assert!(spans(&repeat).get("cache.retarget").is_none());
    // ... and Step 2: it was decided on its text.
    assert_eq!(own(&first, "translate.queries"), 1);
    assert_eq!(own(&repeat, "translate.queries"), 0);
    assert!(spans(&repeat).get("step2.translate_query").is_none());
    for reply in [&first, &repeat] {
        assert_eq!(own(reply, "optimizer.queries"), 1);
    }
    // `metrics` read right after a reply already counts that request,
    // whichever of the two workers served it.
    let counted = ask(r#"{"op":"metrics"}"#);
    assert_eq!(
        counter(&counted, "optimizer.queries"),
        counter(&before, "optimizer.queries") + 1
    );

    // Answers are never cached: a write between two repeats shows.
    let created =
        ask(r#"{"op":"create","class":"Student","attrs":{"name":"finished-hit","age":19}}"#);
    assert_eq!(created.get("ok"), Some(&Json::Bool(true)), "{created:?}");
    let after = ask(&query);
    assert_eq!(cache(&after).as_deref(), Some("hit"));
    assert_eq!(own(&after, "translate.queries"), 0, "a text hit");
    assert_eq!(answers(&after), answers(&repeat) + 1);
    assert_ne!(
        after.get("plan_cost"),
        repeat.get("plan_cost"),
        "the write re-priced the remembered plan"
    );
    assert_eq!(
        scrub(after.get("report").unwrap()),
        scrub(repeat.get("report").unwrap())
    );

    // Another spelling of the query is another text: it pays Step 2 and
    // a retarget once, for an instance of its own, and says the same.
    let respelled = format!(
        r#"{{"op":"query","execute":true,"oql":{}}}"#,
        obs::json_string("SELECT  x.name  FROM x IN Person  WHERE  x.age < 27")
    );
    let other = ask(&respelled);
    assert_eq!(own(&other, "translate.queries"), 1);
    assert_eq!(own(&other, "plan_cache.instance_hits"), 0);
    assert_eq!(scrub(&other), scrub(&after));
    let other = ask(&respelled);
    assert_eq!(own(&other, "translate.queries"), 0);
    assert_eq!(scrub(&other), scrub(&after));

    let metrics = ask(r#"{"op":"metrics"}"#);
    assert_eq!(
        counter(&metrics, "plan_cache.instance_hits"),
        counter(&before, "plan_cache.instance_hits") + 3,
        "every repeat of a finished text was an instance hit"
    );
    let instances = metrics.get("sessions").and_then(Json::as_arr).unwrap()[0]
        .get("cached_instances")
        .and_then(Json::as_u64);
    assert_eq!(instances, Some(2), "one instance per spelling");

    // An IC reload between two verbatim repeats: the text finds
    // nothing of the old generation, and the reply carries the new
    // constraints' verdict. IC4 (no faculty member under 30) let
    // `x.age < 27` exclude Faculty from the scan; the reloaded bound
    // of 20 does not, so the report differs and the answers do not.
    let verdict_of = |r: &Json| scrub(r.get("report").unwrap());
    let reloaded = ask(&format!(
        r#"{{"op":"reload_ic","ic":{}}}"#,
        obs::json_string("ic IC4: Age >= 20 <- faculty(X, N, Age, S, R, Ad).")
    ));
    assert_eq!(reloaded.get("ok"), Some(&Json::Bool(true)), "{reloaded:?}");
    let fresh = ask(&query);
    assert_eq!(cache(&fresh).as_deref(), Some("miss"));
    assert_eq!(own(&fresh, "plan_cache.instance_hits"), 0);
    assert_eq!(fresh.get("generation").and_then(Json::as_u64), Some(1));
    assert_ne!(verdict_of(&fresh), verdict_of(&after));
    assert_eq!(answers(&fresh), answers(&after));

    ask(r#"{"op":"shutdown"}"#);
    serving.join().unwrap();
}
