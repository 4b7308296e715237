//! The one JSON form of a report: `explain_json()` is a single line of
//! compact JSON that parses back to what the report says, for every fuzz
//! seed the determinism table covers, every corpus case, a contradiction,
//! a rewrite Step 4 could only partly apply (an OQL warning), and string
//! constants full of what JSON must escape. The escaping writer is pinned
//! on its own too: however a formatted value reaches it in pieces, the
//! output is that of `json_string` on the whole.

use proptest::prelude::*;
use semantic_sqo::fuzz::gen::generate_case;
use semantic_sqo::fuzz::repro;
use semantic_sqo::fuzz::spec::CaseInputs;
use semantic_sqo::obs::{json_string, JsonEscape};
use semantic_sqo::service::json::{self, Json};
use semantic_sqo::{OptimizationReport, SemanticOptimizer};
use std::fmt::Write as _;
use std::path::Path;

/// Everything the report says outside `stats`, read back off the parse:
/// the query, its Datalog form and, per equivalent, both forms and the
/// warnings must be exactly the report's own text.
fn assert_one_compact_line(what: &str, report: &OptimizationReport) {
    let line = report.explain_json();
    let parsed = json::parse(&line).unwrap_or_else(|e| panic!("{what}: {e}\n{line}"));
    assert_eq!(json::compact(&line), line, "{what}: not compact");
    let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
    assert_eq!(
        text(&parsed, "query"),
        Some(report.original.to_string()),
        "{what}"
    );
    assert_eq!(
        text(&parsed, "datalog"),
        Some(report.datalog.to_string()),
        "{what}"
    );
    let listed = parsed
        .get("equivalents")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    assert_eq!(listed.len(), report.equivalents().len(), "{what}");
    for (json_eq, eq) in listed.iter().zip(report.equivalents()) {
        assert_eq!(text(json_eq, "oql"), Some(eq.oql.to_string()), "{what}");
        assert_eq!(
            text(json_eq, "datalog"),
            Some(eq.datalog.to_string()),
            "{what}"
        );
        let warnings: Vec<&str> = json_eq
            .get("warnings")
            .and_then(Json::as_arr)
            .expect("warnings array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(warnings, eq.oql_warnings, "{what}");
    }
    assert!(parsed
        .get("stats")
        .and_then(|s| s.get("counters"))
        .is_some());
}

fn optimize_case(inputs: &CaseInputs) -> Option<OptimizationReport> {
    let mut opt = SemanticOptimizer::from_odl(&inputs.odl).ok()?;
    for ic in &inputs.ics {
        opt.add_constraint_text(ic).ok()?;
    }
    opt.optimize(&inputs.oql).ok()
}

#[test]
fn the_first_50_fuzz_seeds_explain_on_one_compact_line() {
    let mut checked = 0;
    for seed in 0u64..50 {
        if let Some(report) = optimize_case(&generate_case(seed).inputs()) {
            assert_one_compact_line(&format!("seed {seed}"), &report);
            checked += 1;
        }
    }
    assert!(checked >= 45, "only {checked} of 50 seeds optimized");
}

#[test]
fn the_corpus_cases_explain_on_one_compact_line() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("tests/corpus exists") {
        let path = entry.expect("corpus entry").path();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let case = repro::parse(&text).expect("corpus case parses");
        if let Some(report) = optimize_case(&case.inputs) {
            assert_one_compact_line(&path.display().to_string(), &report);
            checked += 1;
        }
    }
    assert!(checked >= 5, "only {checked} corpus cases optimized");
}

#[test]
fn contradictions_warnings_and_escapes_explain_on_one_compact_line() {
    let mut opt = SemanticOptimizer::university();
    opt.add_constraint_text("ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).")
        .unwrap();
    // A constant JSON must escape: quote, backslash, newline, tab, \u0001
    // and non-ASCII text, in an IC and in the queries.
    let odd = "q\\\"b\\\\s\\n\\t\u{1}é😀";
    opt.add_constraint_text(&format!(
        "ic ODD: N != \"{odd}\" <- faculty(X, N, Age, S, R, Ad)."
    ))
    .unwrap();
    let cases = [
        (
            "contradiction",
            "select x.name from x in Faculty where x.age < 20",
        ),
        (
            "oql warning",
            "select y.number from x in Student, y in x.takes",
        ),
        (
            "escapes, refuted",
            &format!("select x.name from x in Faculty where x.name = \"{odd}\""),
        ),
        (
            "escapes, rewritten",
            &format!("select x.name from x in Person where x.age < 30 and x.name = \"{odd}\""),
        ),
    ];
    for (what, oql) in cases {
        let report = opt.optimize(oql).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_one_compact_line(what, &report);
        let line = report.explain_json();
        match what {
            "contradiction" | "escapes, refuted" => {
                assert!(report.is_contradiction(), "{what}: {line}");
                assert!(line.contains(r#""verdict":"contradiction","contradiction":{"ic":"#));
            }
            "oql warning" => assert!(
                report
                    .equivalents()
                    .iter()
                    .any(|e| !e.oql_warnings.is_empty()),
                "{line}"
            ),
            _ => assert!(line.contains(r#"\\\"b\\\\s"#) && !line.is_ascii(), "{line}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Text written through `JsonEscape` in pieces — split anywhere
    /// between characters — comes out as `json_string` of the whole.
    #[test]
    fn escaping_does_not_depend_on_where_the_pieces_break(
        picks in proptest::collection::vec(0usize..12, 0..40),
        breaks in proptest::collection::vec(any::<bool>(), 0..40),
    ) {
        const ALPHABET: [char; 12] =
            ['a', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀'];
        let whole: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let mut out = String::from("\"");
        let mut piece = String::new();
        for (i, c) in whole.chars().enumerate() {
            piece.push(c);
            if breaks.get(i).copied().unwrap_or(false) {
                JsonEscape(&mut out).write_str(&piece).unwrap();
                piece.clear();
            }
        }
        JsonEscape(&mut out).write_str(&piece).unwrap();
        out.push('"');
        prop_assert_eq!(&out, &json_string(&whole));
        prop_assert_eq!(json::parse(&out), Ok(Json::Str(whole)));
    }
}
