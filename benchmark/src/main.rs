//! `embench` — the repo's benchmark.  See `benchmark/README.md`.
//!
//! ```text
//! embench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, in this process
//! embench run   [--workload W] [--seed N] [--seconds S] [--smoke] [--reverse] [--out FILE]
//! embench trace [same flags]                                       traced runs
//! embench compare A.json B.json [--same-code]                      apply the bounds
//! embench --smoke                                                  = run --smoke
//! embench manifest                                                 print BENCHMARK.json
//! ```
//!
//! The first form is the driver's contract: its last line on standard
//! output is the result object.  `run` and `trace` start one such process
//! per workload, so that `peak_rss_mb` belongs to one workload.

mod device;
mod gen;
mod json;
mod measure;
mod metrics;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::Ctx;

/// What `BENCHMARK.json` passes as `--seconds`.
const RUN_SECONDS: u32 = 8;
/// `bench.calibration_drift` beyond which a run is repeated once.
const MAX_DRIFT: f64 = 0.10;
/// Metrics that are pure counts, and the workload whose counts depend on
/// thread timing (the hot cache's shared per-tenant admission budget).
const EXACT_METRICS: [&str; 3] = ["transfers", "write_amp", "space_amp"];
const TIMING_DEPENDENT_COUNTS: &str = "serve_read";

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    reverse: bool,
    same_code: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        reverse: false,
        same_code: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => args.out = Some(value("--out")?),
            "--smoke" => args.smoke = true,
            "--reverse" => args.reverse = true,
            "--same-code" => args.same_code = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.positional.push(arg),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Overlap is always set explicitly; the environment must not set it.
    std::env::remove_var("EMSORT_OVERLAP");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("embench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => one_run(&args, workload),
        (None, None) if args.smoke => many_runs(&args, false),
        (Some("run"), _) => many_runs(&args, false),
        (Some("trace"), _) => many_runs(&args, true),
        (Some("compare"), _) => compare(&args),
        (Some("manifest"), _) => {
            print!("{}", manifest());
            true
        }
        _ => {
            eprintln!("embench: expected --workload W, run, trace, compare or --smoke");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, from the tables in `metrics.rs`.
fn manifest() -> String {
    let quoted = |items: &[&str]| {
        let items: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        items.join(", ")
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "embench",
        "--",
    ];
    let mut out = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n",
        quoted(&command)
    );
    let rows = |rows: Vec<String>| rows.join(",\n");
    let _ = writeln!(
        out,
        "  \"workloads\": [\n{}\n  ],",
        rows(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()
        )
    );
    let metric = |m: &metrics::Metric, bound: bool| {
        let bound = if bound {
            format!(", \"bound\": {}", m.bound)
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name, m.unit, m.better
        )
    };
    let _ = writeln!(
        out,
        "  \"end_to_end\": [\n{}\n  ],",
        rows(END_TO_END.iter().map(|m| metric(m, true)).collect())
    );
    let _ = writeln!(
        out,
        "  \"per_layer\": [\n{}\n  ]\n}}",
        rows(PER_LAYER.iter().map(|m| metric(m, false)).collect())
    );
    out
}

fn seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        f64::from(RUN_SECONDS)
    })
}

/// The driver's contract: one workload, in this process.
fn one_run(args: &Args, workload: &str) -> bool {
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: seconds(args),
        trace: args.trace,
        smoke: args.smoke,
    };
    std::fs::create_dir_all(measure::out_dir()).expect("create benchmark/out");
    let mut report = run_workload(&ctx);
    // A device whose price moved during the timed part measured two
    // devices: run once more, and report what the second run saw.
    let drift = report.get("bench.calibration_drift").unwrap_or(1.0);
    if (drift - 1.0).abs() > MAX_DRIFT {
        eprintln!("{workload}: calibration drifted x{drift:.3}; running once more");
        report = run_workload(&ctx);
    }
    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    for m in table {
        if let Some(v) = report.get(m.name) {
            eprintln!("{workload:<12} {:<36} {v:>16.6} {}", m.name, m.unit);
        }
    }
    eprintln!(
        "{workload:<12} checked {} operations, {} failed",
        report.attempted, report.failed
    );
    for g in &report.guard_failures {
        eprintln!("{workload}: GUARD {g}");
    }
    println!("{}", report.result_line(ctx.trace));
    report.correct()
}

fn run_workload(ctx: &Ctx) -> Report {
    match ctx.workload.as_str() {
        "sort_io" => workloads::sort::run(ctx, true),
        "sort_cpu" => workloads::sort::run(ctx, false),
        "query_io" => workloads::query::run(ctx, true),
        "query_cpu" => workloads::query::run(ctx, false),
        "serve_read" => workloads::serve_read::run(ctx),
        "serve_write" => workloads::serve_write::run(ctx),
        other => unreachable!("{other} passed argument checking"),
    }
}

/// `run` / `trace`: one child process per workload, results to a file.
fn many_runs(args: &Args, traced: bool) -> bool {
    let mut names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    if args.reverse {
        names.reverse();
    }
    let exe = std::env::current_exe().expect("own path");
    let mut results: Vec<(&str, String)> = Vec::new();
    let mut all_ok = true;
    for name in names {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds(args).to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        // The child's table goes straight to our standard error.
        child.stderr(Stdio::inherit());
        let output = child.output().expect("start a workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        match stdout.lines().last().filter(|l| Json::parse(l).is_ok()) {
            Some(line) => results.push((name, line.to_string())),
            None => eprintln!("{name}: no result line"),
        }
        all_ok &= output.status.success();
    }
    results.sort_by_key(|(name, _)| WORKLOADS.iter().position(|w| w.name == *name));
    let mut file = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"traced\": {traced}, \"smoke\": {}, \"workloads\": {{\n",
        args.seed,
        seconds(args),
        args.smoke
    );
    for (i, (name, line)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(file, "  \"{name}\": {line}{sep}");
    }
    file.push_str("}}\n");
    let default_out = measure::out_dir().join(if traced { "trace.json" } else { "run.json" });
    let out = args.out.as_ref().map_or(default_out, Into::into);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create the result file's directory");
    }
    std::fs::write(&out, file).expect("write the result file");
    eprintln!("results written to {}", out.display());
    all_ok
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value_of(results: &Json, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `compare A B`: B against A under the end-to-end bounds.  A metric
/// breaches when B is worse than A by more than its bound; with
/// `--same-code` (two runs of one build) a difference in either direction
/// beyond the bound breaches, and pure counts must be bit-identical.
fn compare(args: &Args) -> bool {
    let [a_path, b_path] = args.positional.as_slice() else {
        eprintln!("embench compare: expected two result files");
        return false;
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("embench compare: {e}");
            return false;
        }
    };
    let mut breaches = 0;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for w in WORKLOADS {
        for side in [&a, &b] {
            let correct = side
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .and_then(|r| r.get("correct"));
            if correct.and_then(Json::as_bool) == Some(false) {
                println!("{:<12} a run reported incorrect outputs  BREACH", w.name);
                breaches += 1;
            }
        }
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (value_of(&a, w.name, m.name), value_of(&b, w.name, m.name))
            else {
                continue;
            };
            // Every end-to-end metric is lower-is-better.
            let worse = (vb - va) / va;
            let exact = args.same_code
                && EXACT_METRICS.contains(&m.name)
                && w.name != TIMING_DEPENDENT_COUNTS;
            let breach = if exact {
                va.to_bits() != vb.to_bits()
            } else if args.same_code {
                worse.abs() > m.bound
            } else {
                worse > m.bound
            };
            breaches += usize::from(breach);
            println!(
                "{:<12} {:<14} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>6}%{}",
                w.name,
                m.name,
                worse * 100.0,
                if exact {
                    "0".to_string()
                } else {
                    format!("{:.0}", m.bound * 100.0)
                },
                if breach { "  BREACH" } else { "" }
            );
        }
        for m in PER_LAYER {
            if let (Some(va), Some(vb)) =
                (value_of(&a, w.name, m.name), value_of(&b, w.name, m.name))
            {
                if va != 0.0 || vb != 0.0 {
                    println!("{:<12} {:<36} {va:>14.6} {vb:>14.6}", w.name, m.name);
                }
            }
        }
    }
    println!("{breaches} breach(es)");
    breaches == 0
}
