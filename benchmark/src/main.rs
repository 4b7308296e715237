//! The repository's benchmark: four served-path workloads, end-to-end
//! and per-layer metrics, exact latencies, checked answers.
//!
//! ```text
//! sqo-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! sqo-benchmark run     [--seed N] [--seconds S] [--repeat K] [--out FILE] [--smoke]
//! sqo-benchmark trace   [--seed N] [--out FILE] [--smoke]
//! sqo-benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! See README.md next to this package for what each workload and metric
//! is for.

mod clock;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line flags shared by every mode.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub out: Option<PathBuf>,
    pub bounds: PathBuf,
    pub positional: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sqo-benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--smoke] [--out TRACE.jsonl]\n  \
         sqo-benchmark run [--seed N] [--seconds S] [--repeat K] [--out FILE] [--smoke]\n  \
         sqo-benchmark trace [--seed N] [--out FILE] [--smoke]\n  \
         sqo-benchmark compare A.json B.json [--bounds BENCHMARK.json]",
        workload::WORKLOADS.join("|")
    );
    ExitCode::from(64)
}

fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = num(a, value()?)?,
            "--seconds" => args.seconds = Some(num(a, value()?)?),
            "--trace" => args.trace = num::<u8>(a, value()?)? != 0,
            "--repeat" => args.repeat = num::<usize>(a, value()?)?.max(1),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--bounds" => args.bounds = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.positional.push(a.clone()),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// One run of one workload in this process: the unit the driver invokes
/// and the unit `run`/`trace` spawn, so peak RSS is per workload.
fn single(args: &Args, name: &str) -> ExitCode {
    let Some(spec) = workload::Spec::named(name, args.smoke) else {
        eprintln!("unknown workload {name:?}");
        return usage();
    };
    if !clock::start() {
        eprintln!(
            "could not pin to one processor: lock-step latencies will vary with thread placement"
        );
    }
    let result = if args.trace {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("benchmark/out/{}.trace.jsonl", spec.name)));
        trace::run(&spec, args.seed, &out)
    } else {
        // The default is BENCHMARK.json's `run_seconds`.
        let seconds = args.seconds.unwrap_or(if args.smoke { 1.0 } else { 25.0 });
        serve::run(&spec, args.seed, seconds)
    };
    let result = match result {
        Ok(r) => r,
        Err(invalid) => {
            eprintln!("{invalid}");
            return ExitCode::from(3);
        }
    };
    for (name, value, unit) in &result.metrics {
        eprintln!("{:<16} {name:<32} {value:>16.4} {unit}", spec.name);
    }
    println!("detail {}", result.detail);
    println!("{}", report::result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed a check",
            spec.name, result.failed, result.attempted
        );
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    match (args.positional.first().map(String::as_str), &args.workload) {
        (None, Some(name)) => single(&args, name),
        (Some("run"), None) => report::run_all(&args, false),
        (Some("trace"), None) => report::run_all(&args, true),
        (Some("compare"), None) if args.positional.len() == 3 => report::compare(&args),
        _ => usage(),
    }
}
