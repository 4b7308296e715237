#![warn(missing_docs)]

//! # sqo-fuzz
//!
//! Differential semantic-equivalence fuzzing for the SQO pipeline.
//!
//! Semantic query optimization is only an optimization if every rewrite
//! preserves the answer set on every IC-consistent store. This crate
//! checks exactly that, at scale: each seed deterministically generates a
//! random-but-valid ODL schema (inheritance chains, inverse
//! relationships, keys), a set of range ICs *satisfied by construction*
//! by the generated population, and a conjunctive OQL query — then the
//! [`oracle`] runs the full pipeline and asserts that the original
//! query, every [`sqo_core::EquivalentQuery`] the Step-3 search emits,
//! and the warm plan-cache retargeted path all return identical answer
//! sets against the store. A [`sqo_core::Verdict::Contradiction`] is only accepted
//! when the store's answer set really is empty.
//!
//! On a mismatch the [`shrink`] module greedily minimizes the case and
//! [`repro`] dumps a self-contained `.repro` file replayable with
//! `sqo fuzz --replay <file>`.

pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod spec;

use oracle::{CaseStatus, Mismatch};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Result of running one seed end to end.
#[derive(Debug, Clone)]
pub enum SeedOutcome {
    /// All differential checks passed.
    Pass(oracle::PassInfo),
    /// A mismatch was found; carries the *shrunk* spec and its repro
    /// rendering.
    Mismatch {
        /// The failing check.
        mismatch: Mismatch,
        /// The minimized case, rendered as a `.repro` file.
        repro: String,
    },
    /// The generated case was invalid (parse/translate refused it); the
    /// seed is skipped, not failed.
    Skipped(String),
}

/// Every `RECOVERY_SAMPLE`th seed also saves its populated store to
/// disk, recovers it through the snapshot + WAL path, and requires the
/// recovered store to reproduce every answer set — a durability
/// differential riding the same oracle.
pub const RECOVERY_SAMPLE: u64 = 4;

/// Generate, run, and (on mismatch) shrink one seed.
pub fn run_seed(seed: u64) -> SeedOutcome {
    let spec = gen::generate_case(seed);
    let recovery = seed.is_multiple_of(RECOVERY_SAMPLE);
    match oracle::run_inputs_full(&spec.inputs(), recovery) {
        Err(e) => SeedOutcome::Skipped(e),
        Ok(CaseStatus::Pass(info)) => SeedOutcome::Pass(info),
        Ok(CaseStatus::Mismatch(_)) => {
            let small = shrink::shrink(&spec, recovery);
            // Re-run the minimized case to report its (possibly clearer)
            // mismatch rather than the original's.
            let mismatch = match oracle::run_inputs_full(&small.inputs(), recovery) {
                Ok(CaseStatus::Mismatch(m)) => m,
                // Shrinking never keeps a non-failing candidate, so this
                // arm only guards against oracle nondeterminism.
                _ => Mismatch {
                    path: "unstable".to_string(),
                    detail: "mismatch did not reproduce on the shrunk case".to_string(),
                },
            };
            let repro = repro::render(seed, repro::Expect::Mismatch, &small.inputs());
            SeedOutcome::Mismatch { mismatch, repro }
        }
    }
}

fn parse_seed_range(s: &str) -> Result<(u64, u64), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("expected A..B, got `{s}`"))?;
    let lo: u64 = a
        .trim()
        .parse()
        .map_err(|e| format!("bad range start: {e}"))?;
    let hi: u64 = b
        .trim()
        .parse()
        .map_err(|e| format!("bad range end: {e}"))?;
    if lo >= hi {
        return Err(format!("empty seed range {lo}..{hi}"));
    }
    Ok((lo, hi))
}

fn parse_budget(s: &str) -> Result<Duration, String> {
    let t = s.trim();
    let secs: u64 = t
        .strip_suffix('s')
        .unwrap_or(t)
        .parse()
        .map_err(|e| format!("bad budget `{t}`: {e}"))?;
    Ok(Duration::from_secs(secs))
}

fn replay_paths(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut out: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read_dir {}: {e}", path.display()))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "repro"))
            .collect();
        out.sort();
        if out.is_empty() {
            return Err(format!("no .repro files under {}", path.display()));
        }
        Ok(out)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

/// Replay every `.repro` file at `path` (a file or a directory). Returns
/// the number of files whose observed status did not match their
/// expectation.
pub fn replay_path(path: &Path) -> Result<usize, String> {
    let mut failures = 0usize;
    for p in replay_paths(path)? {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let case = repro::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        let report = repro::replay(&case);
        let tag = if report.ok { "ok" } else { "FAIL" };
        println!(
            "replay {} [{tag}] expected {}, observed: {}",
            p.display(),
            match report.expected {
                repro::Expect::Pass => "pass",
                repro::Expect::Mismatch => "mismatch",
            },
            report.detail
        );
        if !report.ok {
            failures += 1;
        }
    }
    Ok(failures)
}

/// Write `n` generated cases under `dir` as `case{i}.odl` / `case{i}.ic`
/// / `case{i}.oql` triples (consumed by the service smoke test). Skips
/// seeds the oracle refuses, so exactly `n` valid cases are emitted.
pub fn emit_cases(n: usize, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut emitted = 0usize;
    let mut seed = 0u64;
    while emitted < n {
        if seed > 10_000 {
            return Err("could not find enough valid seeds".to_string());
        }
        let spec = gen::generate_case(seed);
        seed += 1;
        let inputs = spec.inputs();
        if oracle::run_inputs(&inputs).is_err() {
            continue;
        }
        let base = dir.join(format!("case{emitted}"));
        std::fs::write(base.with_extension("odl"), &inputs.odl)
            .map_err(|e| format!("write: {e}"))?;
        std::fs::write(base.with_extension("ic"), inputs.ics.join("\n") + "\n")
            .map_err(|e| format!("write: {e}"))?;
        std::fs::write(
            base.with_extension("oql"),
            inputs.oql.trim().to_string() + "\n",
        )
        .map_err(|e| format!("write: {e}"))?;
        emitted += 1;
    }
    Ok(())
}

/// Entry point shared by the `sqo-fuzz` binary and the `sqo fuzz`
/// subcommand. Returns the process exit code: 0 on success, 1 on any
/// equivalence mismatch or replay failure, 2 on usage errors.
pub fn cli_main(args: &[String]) -> i32 {
    let mut seeds = (0u64, 100u64);
    let mut budget: Option<Duration> = None;
    let mut replay: Option<PathBuf> = None;
    let mut save: Option<PathBuf> = None;
    let mut emit: Option<usize> = None;
    let mut out_dir = PathBuf::from("fuzz-out");
    let mut dump_dir = PathBuf::from("fuzz-failures");

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let r: Result<(), String> = match a.as_str() {
            "--seeds" => val("--seeds").and_then(|v| {
                seeds = parse_seed_range(&v)?;
                Ok(())
            }),
            "--budget" => val("--budget").and_then(|v| {
                budget = Some(parse_budget(&v)?);
                Ok(())
            }),
            "--replay" => val("--replay").map(|v| {
                replay = Some(PathBuf::from(v));
            }),
            "--save" => val("--save").map(|v| {
                save = Some(PathBuf::from(v));
            }),
            "--emit-cases" => val("--emit-cases").and_then(|v| {
                emit = Some(v.parse().map_err(|e| format!("bad --emit-cases: {e}"))?);
                Ok(())
            }),
            "--out" => val("--out").map(|v| {
                out_dir = PathBuf::from(v);
            }),
            "--dump-dir" => val("--dump-dir").map(|v| {
                dump_dir = PathBuf::from(v);
            }),
            "--help" | "-h" => {
                println!(
                    "usage: sqo-fuzz [--seeds A..B] [--budget 60s] [--replay FILE|DIR]\n\
                     \x20               [--save DIR] [--emit-cases N --out DIR] [--dump-dir DIR]"
                );
                return 0;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("sqo-fuzz: {e}");
            return 2;
        }
    }

    if let Some(path) = replay {
        return match replay_path(&path) {
            Ok(0) => {
                println!("replay: all cases matched their expectations");
                0
            }
            Ok(n) => {
                eprintln!("replay: {n} case(s) FAILED");
                1
            }
            Err(e) => {
                eprintln!("sqo-fuzz: {e}");
                2
            }
        };
    }

    if let Some(dir) = save {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("sqo-fuzz: mkdir {}: {e}", dir.display());
            return 2;
        }
        let (lo, hi) = seeds;
        let mut written = 0usize;
        for seed in lo..hi {
            let spec = gen::generate_case(seed);
            let inputs = spec.inputs();
            let expect = match oracle::run_inputs(&inputs) {
                Err(_) => continue, // invalid case: nothing worth pinning
                Ok(CaseStatus::Pass(_)) => repro::Expect::Pass,
                Ok(CaseStatus::Mismatch(_)) => repro::Expect::Mismatch,
            };
            let path = dir.join(format!("seed{seed}.repro"));
            if let Err(e) = std::fs::write(&path, repro::render(seed, expect, &inputs)) {
                eprintln!("sqo-fuzz: write {}: {e}", path.display());
                return 2;
            }
            written += 1;
        }
        println!("saved {written} repro cases under {}", dir.display());
        return 0;
    }

    if let Some(n) = emit {
        return match emit_cases(n, &out_dir) {
            Ok(()) => {
                println!("emitted {n} cases under {}", out_dir.display());
                0
            }
            Err(e) => {
                eprintln!("sqo-fuzz: {e}");
                2
            }
        };
    }

    let start = Instant::now();
    let (lo, hi) = seeds;
    let mut passed = 0usize;
    let mut skipped = 0usize;
    let mut contradictions = 0usize;
    let mut variants = 0usize;
    let mut mismatches = 0usize;
    let mut ran = 0u64;
    for seed in lo..hi {
        if let Some(b) = budget {
            if start.elapsed() >= b {
                println!("budget exhausted after {} of {} seeds", seed - lo, hi - lo);
                break;
            }
        }
        ran += 1;
        match run_seed(seed) {
            SeedOutcome::Pass(info) => {
                passed += 1;
                variants += info.variants;
                if info.contradiction {
                    contradictions += 1;
                }
            }
            SeedOutcome::Skipped(reason) => {
                skipped += 1;
                println!("seed {seed}: skipped ({reason})");
            }
            SeedOutcome::Mismatch { mismatch, repro } => {
                mismatches += 1;
                eprintln!(
                    "seed {seed}: MISMATCH [{}] {}",
                    mismatch.path, mismatch.detail
                );
                if let Err(e) = std::fs::create_dir_all(&dump_dir) {
                    eprintln!("sqo-fuzz: cannot create {}: {e}", dump_dir.display());
                } else {
                    let path = dump_dir.join(format!("seed{seed}.repro"));
                    match std::fs::write(&path, &repro) {
                        Ok(()) => eprintln!("  minimized repro written to {}", path.display()),
                        Err(e) => eprintln!("sqo-fuzz: cannot write repro: {e}"),
                    }
                }
            }
        }
    }
    println!(
        "fuzz: {ran} seeds — {passed} passed ({variants} equivalents checked, \
         {contradictions} validated contradictions), {skipped} skipped, {mismatches} mismatches \
         in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    if mismatches > 0 {
        1
    } else {
        0
    }
}
