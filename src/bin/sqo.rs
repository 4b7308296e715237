//! `sqo` — a command-line front end for the semantic query optimizer.
//!
//! ```text
//! sqo --schema school.odl [--ic constraints.dl] [--asr views.dl] "select ... from ... where ..."
//! sqo --university "select x.name from x in Person where x.age < 30"
//! sqo --university --show-schema
//! sqo serve --university --ic constraints.dl --addr 127.0.0.1:7878 --workers 4
//! sqo client --addr 127.0.0.1:7878 --oql "select x.name from x in Person where x.age < 30"
//! ```
//!
//! Constraint / view files use the Datalog concrete syntax, one statement
//! per line (see `sqo_datalog::parser`):
//!
//! ```text
//! ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).
//! asr(X, W) <- takes(X, Y), has_ta(Y, W).
//! ```

use semantic_sqo::datalog::parser::{parse_program, Statement};
use semantic_sqo::service::json::{self as wire, Json};
use semantic_sqo::service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use semantic_sqo::{SemanticOptimizer, Verdict};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    schema: Option<String>,
    university: bool,
    ic_files: Vec<String>,
    show_schema: bool,
    show_datalog: bool,
    trace: bool,
    explain: bool,
    query: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sqo (--schema FILE.odl | --university) [options] [OQL-QUERY]\n\
         \u{20}      sqo serve  (--schema FILE.odl | --university) [--ic FILE]...\n\
         \u{20}                 [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N]\n\
         \u{20}                 [--slow-ms N] [--slowlog-cap N] [--slowlog-path FILE]\n\
         \u{20}                 [--store-path DIR] [--store-shards N] [--max-frame-bytes N]\n\
         \u{20}      sqo client [--addr HOST:PORT] (--oql QUERY [--session S] [--timeout-ms N]\n\
         \u{20}                 [--trace] [--execute]\n\
         \u{20}                 | --metrics | --slowlog | --ping | --shutdown | --persist\n\
         \u{20}                 | --json REQUEST | --reload-ic FILE [--session S])\n\
         \u{20}      sqo fuzz   [--seeds A..B] [--budget 60s] [--replay FILE|DIR] [--save DIR]\n\
         \u{20}                 [--emit-cases N --out DIR] [--dump-dir DIR]\n\
         \n\
         options:\n\
           --ic FILE         add integrity constraints / ASR views (Datalog syntax;\n\
                             may be repeated)\n\
           --show-schema     print the Step 1 Datalog schema and exit\n\
           --show-datalog    also print the Datalog form of every rewrite\n\
           --trace           append a trace section: provenance chain per\n\
                             rewrite plus pipeline counters and span timings\n\
           --explain         print the machine-readable optimization report\n\
                             (JSON: verdict, rewrites, provenance, stats)\n\
         \n\
         A contradiction verdict exits with status 2."
    );
    std::process::exit(64)
}

fn parse_args() -> Args {
    let mut args = Args {
        schema: None,
        university: false,
        ic_files: Vec::new(),
        show_schema: false,
        show_datalog: false,
        trace: false,
        explain: false,
        query: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--schema" => args.schema = Some(it.next().unwrap_or_else(|| usage())),
            "--university" => args.university = true,
            "--ic" => args.ic_files.push(it.next().unwrap_or_else(|| usage())),
            "--show-schema" => args.show_schema = true,
            "--show-datalog" => args.show_datalog = true,
            "--trace" => args.trace = true,
            "--explain" => args.explain = true,
            "--help" | "-h" => usage(),
            q if !q.starts_with('-') => args.query = Some(q.to_string()),
            _ => usage(),
        }
    }
    if args.schema.is_none() && !args.university {
        usage()
    }
    args
}

/// `sqo serve` — prepare a session and run the JSON-lines TCP server.
fn serve_main(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut schema: Option<String> = None;
    let mut university = false;
    let mut ic_files: Vec<String> = Vec::new();
    let mut store_path: Option<String> = None;
    let mut store_shards: usize = 8;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("sqo serve: {flag} needs a value");
                std::process::exit(64)
            })
        };
        match a.as_str() {
            "--schema" => schema = Some(next("--schema")),
            "--university" => university = true,
            "--ic" => ic_files.push(next("--ic")),
            "--addr" => cfg.addr = next("--addr"),
            "--workers" => cfg.workers = next("--workers").parse().unwrap_or_else(|_| usage()),
            "--queue" => cfg.queue_capacity = next("--queue").parse().unwrap_or_else(|_| usage()),
            "--timeout-ms" => {
                cfg.default_timeout_ms = next("--timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--slow-ms" => cfg.slow_ms = next("--slow-ms").parse().unwrap_or_else(|_| usage()),
            "--slowlog-cap" => {
                cfg.slowlog_capacity = next("--slowlog-cap").parse().unwrap_or_else(|_| usage())
            }
            "--slowlog-path" => cfg.slowlog_path = Some(next("--slowlog-path")),
            "--store-path" => store_path = Some(next("--store-path")),
            "--store-shards" => {
                store_shards = next("--store-shards").parse().unwrap_or_else(|_| usage())
            }
            "--max-frame-bytes" => {
                cfg.max_frame_bytes = next("--max-frame-bytes")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    let spec = match (&schema, university) {
        (Some(path), false) => match std::fs::read_to_string(path) {
            Ok(src) => SessionSpec::Odl(src),
            Err(e) => {
                eprintln!("sqo serve: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, true) => SessionSpec::University,
        _ => usage(),
    };
    let mut ic_text = String::new();
    for f in &ic_files {
        match std::fs::read_to_string(f) {
            Ok(src) => {
                ic_text.push_str(&src);
                ic_text.push('\n');
            }
            Err(e) => {
                eprintln!("sqo serve: cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let registry = Arc::new(SessionRegistry::new());
    let ic = (!ic_text.is_empty()).then_some(ic_text.as_str());
    if let Err(e) = registry.prepare("default", spec.clone(), ic) {
        eprintln!("sqo serve: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &store_path {
        // Open (or create) the durable store, recover its state, and
        // bind it to the default session so writes are WAL-logged and
        // queries execute against the recovered base.
        let odl_schema = match &spec {
            SessionSpec::University => semantic_sqo::odl::fixtures::university_schema(),
            SessionSpec::Odl(src) => {
                match semantic_sqo::odl::parse_odl(src)
                    .and_then(semantic_sqo::odl::Schema::from_decls)
                {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("sqo serve: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
        let mut db = match semantic_sqo::objdb::ObjectDb::open(
            odl_schema,
            std::path::Path::new(path),
            store_shards,
        ) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("sqo serve: cannot open store {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if matches!(spec, SessionSpec::University) {
            // Method closures are not persisted; re-register them.
            if let Err(e) = semantic_sqo::objdb::register_university_methods(&mut db) {
                eprintln!("sqo serve: {e}");
                return ExitCode::FAILURE;
            }
        }
        let report = db
            .store()
            .map(|s| s.recover_report().clone())
            .unwrap_or_default();
        eprintln!(
            "sqo serve: store {path}: {} objects, generation {}, snapshot={}, wal_records={}",
            db.object_count(),
            db.store_generation(),
            report.had_snapshot,
            report.wal_records_replayed
        );
        match registry.get("default") {
            Some(session) => session.attach_db(db),
            None => unreachable!("default session prepared above"),
        }
    }
    let server = match Server::bind(cfg, registry) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sqo serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One machine-readable line so launchers (and the smoke test) can
    // discover the bound port when started with :0.
    println!("{{\"listening\":\"{}\"}}", server.local_addr());
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sqo serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sqo client` — send one request line and print the response line.
fn client_main(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut session: Option<String> = None;
    let mut oql: Option<String> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut op: Option<&'static str> = None;
    let mut reload_file: Option<String> = None;
    let mut trace = false;
    let mut execute = false;
    let mut raw: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("sqo client: {flag} needs a value");
                std::process::exit(64)
            })
        };
        match a.as_str() {
            "--addr" => addr = next("--addr"),
            "--session" => session = Some(next("--session")),
            "--oql" => {
                oql = Some(next("--oql"));
                op = Some("query");
            }
            "--timeout-ms" => {
                timeout_ms = Some(next("--timeout-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--metrics" => op = Some("metrics"),
            "--slowlog" => op = Some("slowlog"),
            "--trace" => trace = true,
            "--execute" => execute = true,
            "--ping" => op = Some("ping"),
            "--persist" => op = Some("persist"),
            "--json" => raw = Some(next("--json")),
            "--shutdown" => op = Some("shutdown"),
            "--reload-ic" => {
                reload_file = Some(next("--reload-ic"));
                op = Some("reload_ic");
            }
            _ => usage(),
        }
    }
    // A raw request line (e.g. the create/link write ops, whose attrs
    // object has no flag syntax) is sent verbatim.
    if raw.is_none() && op.is_none() {
        usage()
    };
    let op = op.unwrap_or("query");
    let mut fields = vec![format!("\"op\":{}", sqo_obs::json_string(op))];
    if let Some(s) = &session {
        fields.push(format!("\"session\":{}", sqo_obs::json_string(s)));
    }
    if let Some(q) = &oql {
        fields.push(format!("\"oql\":{}", sqo_obs::json_string(q)));
    }
    if let Some(ms) = timeout_ms {
        fields.push(format!("\"timeout_ms\":{ms}"));
    }
    if trace {
        fields.push("\"trace\":true".to_string());
    }
    if execute {
        fields.push("\"execute\":true".to_string());
    }
    if let Some(f) = &reload_file {
        match std::fs::read_to_string(f) {
            Ok(src) => fields.push(format!("\"ic\":{}", sqo_obs::json_string(&src))),
            Err(e) => {
                eprintln!("sqo client: cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let request = match raw {
        Some(line) => line,
        None => format!("{{{}}}", fields.join(",")),
    };
    let response = (|| -> std::io::Result<String> {
        let mut stream = TcpStream::connect(&addr)?;
        stream.write_all(request.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        Ok(line)
    })();
    let line = match response {
        Ok(l) if !l.trim().is_empty() => l,
        Ok(_) => {
            eprintln!("sqo client: server closed the connection without a response");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("sqo client: {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{line}");
    match wire::parse(line.trim()) {
        Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
            // Mirror the one-shot CLI: a contradiction verdict exits 2.
            let verdict = v
                .get("report")
                .and_then(|r| r.get("verdict"))
                .and_then(Json::as_str);
            if verdict == Some("contradiction") {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_main(&argv[1..]),
        Some("client") => return client_main(&argv[1..]),
        Some("fuzz") => {
            let code = semantic_sqo::fuzz::cli_main(&argv[1..]);
            return ExitCode::from(u8::try_from(code).unwrap_or(1));
        }
        _ => {}
    }
    let args = parse_args();
    let mut opt = if args.university {
        SemanticOptimizer::university()
    } else {
        let path = args.schema.as_deref().expect("checked in parse_args");
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sqo: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match SemanticOptimizer::from_odl(&src) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sqo: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    for f in &args.ic_files {
        let src = match std::fs::read_to_string(f) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sqo: cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let statements = match parse_program(&src) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sqo: {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for st in statements {
            match st {
                Statement::Constraint(ic) => opt.add_constraint(ic),
                Statement::Rule(rule) => opt.add_view(rule),
                other => {
                    eprintln!("sqo: {f}: unsupported statement {other:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if args.show_schema {
        println!("% Step 1 — Datalog schema");
        for rel in &opt.catalog().relations {
            let cols: Vec<&str> = rel.args.iter().map(|a| a.name.as_str()).collect();
            println!("{}({}).", rel.pred, cols.join(", "));
        }
        println!("\n% Integrity constraints");
        for ic in opt.constraints() {
            println!("{ic}.");
        }
        if args.query.is_none() {
            return ExitCode::SUCCESS;
        }
    }

    let Some(query) = &args.query else {
        eprintln!("sqo: no query given (try --show-schema or --help)");
        return ExitCode::FAILURE;
    };

    // Top-level unions: optimize each branch; prune refuted ones.
    if query
        .split_whitespace()
        .any(|w| w.eq_ignore_ascii_case("union"))
    {
        let report = match opt.optimize_union(query) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sqo: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.explain {
            // One JSON report per branch, in source order.
            let items: Vec<String> = report.branches.iter().map(|b| b.explain_json()).collect();
            println!("[{}]", items.join(",\n"));
            return if report.is_empty_union() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            };
        }
        for (i, b) in report.branches.iter().enumerate() {
            match &*b.verdict {
                semantic_sqo::Verdict::Contradiction { ic_name, note, .. } => println!(
                    "branch {}: PRUNED [{}] {note}",
                    i + 1,
                    ic_name.as_deref().unwrap_or("query-local")
                ),
                semantic_sqo::Verdict::Equivalents(v) => {
                    println!("branch {}: {} equivalent forms", i + 1, v.len())
                }
            }
        }
        if args.trace {
            for (i, ic, chain) in report.pruned_provenance() {
                println!(
                    "-- branch {} refuted by {}:\n{chain}",
                    i + 1,
                    ic.as_deref().unwrap_or("query-local constraints")
                );
            }
            println!("\n-- trace\n{}", sqo_obs::snapshot().to_text());
        }
        if report.is_empty_union() {
            println!("the whole union is provably empty.");
            return ExitCode::from(2);
        }
        println!("\nsurviving query:");
        let survivors: Vec<String> = report.surviving().map(|b| b.original.to_string()).collect();
        println!("{}", survivors.join("\nunion\n"));
        return ExitCode::SUCCESS;
    }

    let report = match opt.optimize(query) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sqo: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.explain {
        println!("{}", report.explain_json());
        return if report.is_contradiction() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    if args.trace {
        println!("{}", report.explain());
        return if report.is_contradiction() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    println!("-- datalog translation\n{}\n", report.datalog);
    match &*report.verdict {
        Verdict::Contradiction { ic_name, note, .. } => {
            println!(
                "CONTRADICTION [{}]: {note}\nThe query can return no answers and need not be evaluated.",
                ic_name.as_deref().unwrap_or("query-local")
            );
            ExitCode::from(2)
        }
        Verdict::Equivalents(_) => {
            let rewrites: Vec<_> = report.proper_rewrites().collect();
            if rewrites.is_empty() {
                println!("no semantic rewrites apply; the query is already minimal.");
            }
            for (i, e) in rewrites.iter().enumerate() {
                println!("-- rewrite {} (delta: {})", i + 1, e.delta);
                for s in &e.steps {
                    println!("--   via {s}");
                }
                if args.show_datalog {
                    println!("--   datalog: {}", e.datalog);
                }
                println!("{}\n", e.oql);
                for w in &e.oql_warnings {
                    println!("--   note: {w}");
                }
            }
            ExitCode::SUCCESS
        }
    }
}
