//! Running every workload, writing result files, and comparing two of
//! them under the bounds `BENCHMARK.json` fixes.

use crate::serve::RunResult;
use crate::stats;
use crate::workload::WORKLOADS;
use crate::Args;
use sqo_obs::json_string;
use sqo_service::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each value with all its digits.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers were measured: results from different machines or
/// toolchains are not comparable.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        r#"{{"nproc":{},"cpu":{},"os":{},"rustc":{},"git_commit":{}}}"#,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_string(&cpu),
        json_string(std::env::consts::OS),
        json_string(&command_output("rustc", &["--version"])),
        json_string(&command_output("git", &["rev-parse", "HEAD"])),
    )
}

/// Runs one workload in a child process and returns its `detail` and
/// result lines, or `None` when it printed no result.
fn spawn_single(args: &Args, workload: &str, trace: bool) -> Option<(String, String, bool)> {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().filter(|l| l.starts_with("{\"correct\""))?;
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .unwrap_or("{}");
    Some((detail.to_string(), result.to_string(), out.status.success()))
}

/// `run` and `trace`: every workload, each in its own process; prints
/// every metric and writes the result file. Non-zero exit when any
/// workload failed a check or printed no result.
pub fn run_all(args: &Args, trace: bool) -> ExitCode {
    // `run --smoke` covers the traced run as well.
    let passes = if args.smoke && !trace {
        vec![false, true]
    } else {
        vec![trace]
    };
    let mut ok = true;
    let mut body = Vec::new();
    for &traced in &passes {
        for workload in WORKLOADS {
            let mut runs = Vec::new();
            for _ in 0..if traced { 1 } else { args.repeat } {
                match spawn_single(args, workload, traced) {
                    Some((detail, result, success)) => {
                        ok &= success;
                        let open = result.strip_suffix('}').expect("a JSON object");
                        runs.push(format!("{open},\"detail\":{detail}}}"));
                    }
                    None => {
                        eprintln!("{workload}: no result");
                        ok = false;
                    }
                }
            }
            let key = if traced && passes.len() > 1 {
                format!("{workload}.trace")
            } else {
                workload.to_string()
            };
            body.push(format!(
                r#"{}:{{"runs":[{}]}}"#,
                json_string(&key),
                runs.join(",")
            ));
        }
    }
    let file = format!(
        r#"{{"kind":"{}","seed":{},"seconds":{},"smoke":{},"fingerprint":{},"workloads":{{{}}}}}"#,
        if trace { "trace" } else { "run" },
        args.seed,
        args.seconds.map_or("null".to_string(), |s| s.to_string()),
        args.smoke,
        fingerprint(),
        body.join(",")
    );
    if let Some(path) = &args.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("output directory");
        }
        std::fs::write(path, format!("{file}\n")).expect("result file writes");
        eprintln!("wrote {}", path.display());
    }
    println!("{file}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// Per workload, per metric: every run's value.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct ResultFile {
    values: Values,
    /// Per workload `(failed, attempted)` summed over runs.
    failures: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err(format!("{path}: no \"workloads\""));
    };
    let mut file = ResultFile {
        values: Values::new(),
        failures: BTreeMap::new(),
    };
    for (workload, entry) in workloads {
        let runs = entry.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
        for run in runs {
            let num = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let f = file.failures.entry(workload.clone()).or_default();
            f.0 += num("failed");
            f.1 += num("attempted");
            let Some(Json::Obj(metrics)) = run.get("metrics") else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    file.values
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(file)
}

/// `(higher is better, bound)` per end-to-end metric of BENCHMARK.json.
fn load_bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"end_to_end\"", path.display()))?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()? == "higher",
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect())
}

/// How B's median stands against A's under a metric's bound.
#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// A per-layer metric: no bound is fixed.
    Unbounded,
}

/// `worsening` is the share of A's median by which B is worse (negative
/// when better); spreads are quartile distances over the median.
pub fn judge(a: &[f64], b: &[f64], bound: Option<(bool, f64)>) -> (f64, f64, Verdict) {
    let (ma, sa) = stats::median_and_spread(a);
    let (mb, sb) = stats::median_and_spread(b);
    let Some((higher_better, bound)) = bound else {
        return (ma, mb, Verdict::Unbounded);
    };
    let worsening = if ma == 0.0 {
        0.0
    } else if higher_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if sa.is_some_and(|s| s > bound) || sb.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (ma, mb, verdict)
}

/// `compare A.json B.json`: one row per (workload, metric) with both
/// medians, the ratio B/A and its base, and the verdict. Non-zero exit on
/// any `worse` row or a higher failure rate in B.
pub fn compare(args: &Args) -> ExitCode {
    let loaded = load(&args.positional[1])
        .and_then(|a| Ok((a, load(&args.positional[2])?, load_bounds(&args.bounds)?)));
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    let mut bad = false;
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>8}  {:<10} (ratio = B/A, base A)",
        "workload", "metric", "A median", "B median", "ratio", "verdict"
    );
    for (workload, metrics) in &a.values {
        let Some(other) = b.values.get(workload) else {
            println!("{workload:<18} missing from B");
            bad = true;
            continue;
        };
        for (metric, va) in metrics {
            let Some(vb) = other.get(metric) else {
                continue;
            };
            let (ma, mb, verdict) = judge(va, vb, bounds.get(metric).copied());
            bad |= verdict == Verdict::Worse;
            let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
                Verdict::Unbounded => "-",
            };
            println!("{workload:<18} {metric:<30} {ma:>14.3} {mb:>14.3} {ratio:>8.3}  {label}");
        }
        let rate = |f: &ResultFile| {
            let (failed, attempted) = f.failures.get(workload).copied().unwrap_or((0.0, 0.0));
            failed / attempted.max(1.0)
        };
        let (ra, rb) = (rate(&a), rate(&b));
        let label = if rb > ra { "worse" } else { "ok" };
        bad |= rb > ra;
        println!(
            "{workload:<18} {:<30} {ra:>14.6} {rb:>14.6} {:>8}  {label}",
            "fail_rate", "-"
        );
    }
    if bad {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lower = Some((false, 0.10));
        let higher = Some((true, 0.05));
        // Latency up 20 % against a 10 % bound.
        assert_eq!(judge(&[100.0], &[120.0], lower).2, Verdict::Worse);
        assert_eq!(judge(&[100.0], &[108.0], lower).2, Verdict::Ok);
        assert_eq!(judge(&[100.0], &[50.0], lower).2, Verdict::Ok);
        // Throughput down 6 % against a 5 % bound.
        assert_eq!(judge(&[1000.0], &[940.0], higher).2, Verdict::Worse);
        assert_eq!(judge(&[1000.0], &[2000.0], higher).2, Verdict::Ok);
        // Medians agree, but A's own runs spread wider than the bound.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(&noisy, &[100.0], lower).2, Verdict::Unresolved);
        assert_eq!(judge(&[1.0], &[9.0], None).2, Verdict::Unbounded);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("query_p50_us", 152.25, "us")],
            detail: "{}".to_string(),
        };
        let parsed = json::parse(&result_line(&r)).unwrap();
        let Json::Obj(top) = &parsed else { panic!() };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let m = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }
}
