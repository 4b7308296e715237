//! Self-contained `.repro` case files.
//!
//! A repro file captures everything the oracle consumes — schema, ICs,
//! population recipe, query — plus the expected status, in a sectioned
//! plain-text format that diffs well and needs no external parser:
//!
//! ```text
//! sqo-fuzz repro v1
//! seed = 42
//! expect = pass
//!
//! [schema]
//! interface C0 { … };
//!
//! [ics]
//! ic F0: V >= 5 <- c0(OID, V).
//!
//! [population]
//! count C0 = 8
//! int a0_0 = 5..100        # inclusive bounds
//! str a0_1 = alpha, beta
//! unique a0_k
//! links = 2
//! popseed = 42
//!
//! [query]
//! select x0 from x0 in C0
//!
//! [sibling]
//! select …                 # optional
//! ```
//!
//! `expect = mismatch` marks committed *regression* reproducers of bugs
//! that were fixed (replay fails if the oracle no longer flags them) or
//! deliberately inconsistent fixtures proving the oracle detects unsound
//! rewrites.

use crate::oracle::{run_inputs_full, CaseStatus};
use crate::spec::CaseInputs;
use sqo_objdb::GenericConfig;
use std::collections::{BTreeMap, BTreeSet};

const HEADER: &str = "sqo-fuzz repro v1";

/// What a repro file asserts the oracle reports for its case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// All differential checks pass.
    Pass,
    /// The oracle flags an equivalence mismatch.
    Mismatch,
}

impl Expect {
    fn text(self) -> &'static str {
        match self {
            Expect::Pass => "pass",
            Expect::Mismatch => "mismatch",
        }
    }
}

/// A parsed repro case.
#[derive(Debug, Clone)]
pub struct ReproCase {
    /// Generator seed (informational — the case is fully rendered).
    pub seed: u64,
    /// Expected oracle status.
    pub expect: Expect,
    /// The rendered inputs.
    pub inputs: CaseInputs,
}

/// Render a repro file.
pub fn render(seed: u64, expect: Expect, inputs: &CaseInputs) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("seed = {seed}\n"));
    out.push_str(&format!("expect = {}\n", expect.text()));
    out.push_str("\n[schema]\n");
    out.push_str(inputs.odl.trim_end());
    out.push_str("\n\n[ics]\n");
    for ic in &inputs.ics {
        out.push_str(ic);
        out.push('\n');
    }
    out.push_str("\n[population]\n");
    let p = &inputs.population;
    for (class, n) in &p.counts {
        out.push_str(&format!("count {class} = {n}\n"));
    }
    for (attr, (lo, hi)) in &p.int_ranges {
        out.push_str(&format!("int {attr} = {lo}..{hi}\n"));
    }
    for (attr, domain) in &p.str_domains {
        out.push_str(&format!("str {attr} = {}\n", domain.join(", ")));
    }
    for attr in &p.unique_attrs {
        out.push_str(&format!("unique {attr}\n"));
    }
    out.push_str(&format!("links = {}\n", p.links_per_object));
    out.push_str(&format!("popseed = {}\n", p.seed));
    out.push_str("\n[query]\n");
    out.push_str(inputs.oql.trim());
    out.push('\n');
    if let Some(sib) = &inputs.sibling_oql {
        out.push_str("\n[sibling]\n");
        out.push_str(sib.trim());
        out.push('\n');
    }
    out
}

fn kv<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.strip_prefix(key)
        .and_then(|r| r.trim_start().strip_prefix('='))
        .map(str::trim)
}

/// Parse a repro file.
pub fn parse(text: &str) -> Result<ReproCase, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Err(format!("missing `{HEADER}` header"));
    }

    let mut seed = 0u64;
    let mut expect = Expect::Pass;
    let mut section = String::new();
    let mut schema = String::new();
    let mut ics: Vec<String> = Vec::new();
    let mut counts: Vec<(String, usize)> = Vec::new();
    let mut int_ranges: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    let mut str_domains: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut unique_attrs: BTreeSet<String> = BTreeSet::new();
    let mut links = 1usize;
    let mut popseed = 0u64;
    let mut query_lines: Vec<String> = Vec::new();
    let mut sibling_lines: Vec<String> = Vec::new();

    for raw in lines {
        let line = raw.trim_end();
        let bare = line.trim();
        if bare.starts_with('[') && bare.ends_with(']') {
            section = bare[1..bare.len() - 1].to_string();
            continue;
        }
        match section.as_str() {
            "" => {
                if let Some(v) = kv(bare, "seed") {
                    seed = v.parse().map_err(|e| format!("seed: {e}"))?;
                } else if let Some(v) = kv(bare, "expect") {
                    expect = match v {
                        "pass" => Expect::Pass,
                        "mismatch" => Expect::Mismatch,
                        other => return Err(format!("unknown expect `{other}`")),
                    };
                }
            }
            "schema" => {
                schema.push_str(line);
                schema.push('\n');
            }
            "ics" => {
                if !bare.is_empty() {
                    ics.push(bare.to_string());
                }
            }
            "population" => {
                // Strip trailing `# comment`.
                let bare = bare.split('#').next().unwrap_or("").trim();
                if bare.is_empty() {
                    continue;
                }
                if let Some(rest) = bare.strip_prefix("count ") {
                    let (class, n) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("bad count line `{bare}`"))?;
                    counts.push((
                        class.trim().to_string(),
                        n.trim().parse().map_err(|e| format!("count: {e}"))?,
                    ));
                } else if let Some(rest) = bare.strip_prefix("int ") {
                    let (attr, range) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("bad int line `{bare}`"))?;
                    let (lo, hi) = range
                        .trim()
                        .split_once("..")
                        .ok_or_else(|| format!("bad range `{range}`"))?;
                    int_ranges.insert(
                        attr.trim().to_string(),
                        (
                            lo.trim().parse().map_err(|e| format!("range lo: {e}"))?,
                            hi.trim().parse().map_err(|e| format!("range hi: {e}"))?,
                        ),
                    );
                } else if let Some(rest) = bare.strip_prefix("str ") {
                    let (attr, vals) = rest
                        .split_once('=')
                        .ok_or_else(|| format!("bad str line `{bare}`"))?;
                    str_domains.insert(
                        attr.trim().to_string(),
                        vals.split(',').map(|v| v.trim().to_string()).collect(),
                    );
                } else if let Some(attr) = bare.strip_prefix("unique ") {
                    unique_attrs.insert(attr.trim().to_string());
                } else if let Some(v) = kv(bare, "links") {
                    links = v.parse().map_err(|e| format!("links: {e}"))?;
                } else if let Some(v) = kv(bare, "popseed") {
                    popseed = v.parse().map_err(|e| format!("popseed: {e}"))?;
                } else {
                    return Err(format!("unknown population line `{bare}`"));
                }
            }
            "query" => {
                if !bare.is_empty() {
                    query_lines.push(bare.to_string());
                }
            }
            "sibling" => {
                if !bare.is_empty() {
                    sibling_lines.push(bare.to_string());
                }
            }
            other => return Err(format!("unknown section `[{other}]`")),
        }
    }

    if schema.trim().is_empty() {
        return Err("missing [schema] section".to_string());
    }
    if query_lines.is_empty() {
        return Err("missing [query] section".to_string());
    }
    Ok(ReproCase {
        seed,
        expect,
        inputs: CaseInputs {
            odl: schema,
            ics,
            population: GenericConfig {
                counts,
                int_ranges,
                str_domains,
                unique_attrs,
                links_per_object: links,
                seed: popseed,
            },
            oql: query_lines.join(" "),
            sibling_oql: if sibling_lines.is_empty() {
                None
            } else {
                Some(sibling_lines.join(" "))
            },
        },
    })
}

/// Outcome of replaying one repro file.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// What the file asserted.
    pub expected: Expect,
    /// What the oracle observed (`None` when the case errored).
    pub observed: Option<CaseStatus>,
    /// Whether observed matched expected.
    pub ok: bool,
    /// Detail line for logs.
    pub detail: String,
}

/// Replay a parsed repro case through the oracle and compare against
/// its expectation. Replays always run the durability round-trip, so
/// recovery mismatches (found on sampled seeds) reproduce from their
/// `.repro` files.
pub fn replay(case: &ReproCase) -> ReplayReport {
    match run_inputs_full(&case.inputs, true) {
        Err(e) => ReplayReport {
            expected: case.expect,
            observed: None,
            ok: false,
            detail: format!("case invalid: {e}"),
        },
        Ok(status) => {
            let observed = if status.is_pass() {
                Expect::Pass
            } else {
                Expect::Mismatch
            };
            let ok = observed == case.expect;
            let detail = match &status {
                CaseStatus::Pass(info) => format!(
                    "pass ({} baseline rows, {} variants{})",
                    info.baseline_rows,
                    info.variants,
                    if info.contradiction {
                        ", contradiction"
                    } else {
                        ""
                    }
                ),
                CaseStatus::Mismatch(m) => format!("mismatch [{}]: {}", m.path, m.detail),
            };
            ReplayReport {
                expected: case.expect,
                observed: Some(status),
                ok,
                detail,
            }
        }
    }
}
