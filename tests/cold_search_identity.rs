//! What a `cold_search` session answers, request by request: the 32 range
//! ICs `R{i}: Age >= 10+i` of the served workload, its four projections of
//! one client, and every constant from 5 to 42, sent through
//! `optimize_cached` on one plan cache — constants below every threshold
//! (a miss, then hits), on each threshold (a rebind each), and above them
//! all.
//!
//! For each request the table `cold_search_identity.txt` holds the cache
//! disposition, the FNV-1a hash of the reply body (`write_json`'s line up
//! to `"stats"`: the query forms, the verdict, every equivalent with its
//! OQL, Datalog and provenance) and the request's own `search.*` and
//! `residue.applied` counters, nonzero ones only. A faster search, Step 4
//! or cache store must leave every line alone; an intentional change to
//! what Step 3 finds re-records it with
//! `cargo test --test cold_search_identity -- --ignored --nocapture`.

use semantic_sqo::obs;
use semantic_sqo::PlanCache;

const RECORDED: &str = include_str!("cold_search_identity.txt");

/// The first client's projections of the served `cold_search` workload.
const PROJECTIONS: [&str; 4] = ["x.name", "x.age", "x.salary", "x.rank"];

/// 64-bit FNV-1a, written out so the recorded values never depend on a
/// standard-library or in-repo hasher changing its definition.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per request, in the order they are sent.
fn table() -> String {
    let (opt, _) = sqo_bench::optimizer_with_n_ics(32);
    let prep = opt.prepare();
    let cache = PlanCache::new();
    let mut out = String::new();
    for c in 5..=42 {
        for proj in PROJECTIONS {
            let text = format!("select {proj} from x in Faculty where x.age > {c}");
            let (report, disposition) = prep.optimize_cached(&cache, &text).expect("optimizes");
            let line = report.explain_json();
            let body = &line[..line.find("\"stats\":").expect("a report ends in its stats")];
            out.push_str(&format!(
                "{c} {proj} {} {:016x}",
                disposition.label(),
                fnv1a(body.as_bytes())
            ));
            for (name, n) in &report.stats.counters {
                if *n > 0 && (name.starts_with("search.") || *name == "residue.applied") {
                    out.push_str(&format!(" {name}={n}"));
                }
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn every_cold_search_reply_matches_the_recorded_table() {
    obs::set_enabled(true);
    let live = table();
    for (i, (live, recorded)) in live.lines().zip(RECORDED.lines()).enumerate() {
        assert_eq!(
            live, recorded,
            "request {i} differs from the recorded table"
        );
    }
    assert_eq!(live.lines().count(), RECORDED.lines().count());
}

#[test]
#[ignore = "prints the table to re-record after an intentional search change"]
fn print_cold_search_identity() {
    obs::set_enabled(true);
    print!("{}", table());
}
