//! Time-to-verdict benchmark for the `fa-modelcheck` verification API.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_n4|quotient_n4|single_combo_n5> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One closed-loop caller issues one
//! verification at a time; the next starts only after the previous verdict
//! returns. `--trace 0` reports end-to-end metrics; `--trace 1` reports
//! per-layer metrics measured by timing calls into each layer's public
//! functions and by reading the program's own telemetry counters. Every
//! run also checks the verdict gates and the known-bad control. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Scratch files live under `.bench_out/` in the working
//! directory.

mod control;
mod host;
mod measure;
mod procfs;
mod stats;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use host::{json_str, Host};
use workload::{Inputs, Workload};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The final result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) become `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let tmp = work.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    // Visited-set spill files go to the system temp dir: keep them inside
    // the working directory. Set before any thread starts.
    std::env::set_var(
        "TMPDIR",
        std::fs::canonicalize(&tmp).map_err(|e| e.to_string())?,
    );
    let result = run_in(args, &out_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, out_dir: &Path, work: &Path) -> Result<bool, String> {
    let host = Host::detect();
    let inputs = Inputs::generate(args.workload, args.seed);
    println!(
        "workload {} seed {}: inputs {:?}{}",
        args.workload.name(),
        args.seed,
        inputs.values,
        inputs
            .shared_wiring
            .as_ref()
            .map_or(String::new(), |w| format!(", shared wiring {w}"))
    );

    let t = Instant::now();
    let control_report = control::explore();
    let control = control::verify(&control_report);
    match &control {
        Ok(len) => println!(
            "control ok: naive consensus disagreement found among {} states in {:.3} s; its {len}-block schedule replays to a disagreement",
            control_report.states,
            t.elapsed().as_secs_f64()
        ),
        Err(e) => println!("control FAILED: {e}"),
    }

    if args.trace {
        return trace::report(
            args.workload,
            &inputs,
            args.seconds,
            work,
            out_dir,
            &host,
            control.is_ok(),
            args.seed,
        );
    }

    let u = measure::run(args.workload, &inputs, args.seconds, work)?;
    let walls: Vec<f64> = u.reps.iter().map(|r| r.wall_s).collect();
    let noise = stats::relative_spread(&walls);
    println!(
        "repetitions: wall_s {}",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("host {}", host.to_json(noise));
    for (k, bad) in &u.gate_failures {
        println!("gate FAILED on repetition {k}: {}", bad.join("; "));
    }
    let expected = args.workload.expected();
    println!(
        "gate {}: {} of {} repetitions ok (no violation, {} combos explored of {}, {} states, {} covered, {} spilled shards)",
        if u.gate_failures.is_empty() { "ok" } else { "FAILED" },
        u.reps.len() - u.gate_failures.len(),
        u.reps.len(),
        expected.combos,
        expected.swept,
        expected.states,
        expected.covered,
        expected.spilled_shards
    );
    let per_rep = |f: fn(&measure::Rep) -> f64| u.reps.iter().map(f).collect::<Vec<f64>>();
    let samples: Vec<(&'static str, &'static str, Vec<f64>)> = vec![
        ("wall_s", "s", per_rep(|r| r.wall_s)),
        ("states_per_s", "1/s", per_rep(|r| r.states_per_s)),
        (
            "covered_states_per_s",
            "1/s",
            per_rep(|r| r.covered_states_per_s),
        ),
        ("setup_s", "s", u.setup_samples.clone()),
        ("peak_rss_mib", "MiB", per_rep(|r| r.peak_rss_mib)),
    ];
    let mut metrics = Vec::new();
    for (name, unit, xs) in &samples {
        let m = Metric::new(name, stats::median(xs).unwrap_or(f64::NAN), unit);
        let tail = match stats::reportable_tail(xs.len()) {
            Some(q) => format!(
                "p{} = {}",
                q * 100.0,
                json_num(stats::quantile(xs, q).unwrap_or(f64::NAN))
            ),
            None => "no tail percentile below 20 samples".to_string(),
        };
        println!(
            "metric {name} = {} {unit} (median of {} samples; {tail})",
            json_num(m.value),
            xs.len()
        );
        metrics.push(m);
    }
    let n = u.reps.len();
    // Printed, not in the result object: both are legitimately 0 on some
    // workload (no spill or journal on quotient_n4; no failures).
    println!(
        "metric disk_write_mib = {} MiB (median of {n})",
        json_num(stats::median(&per_rep(|r| r.disk_write_mib)).unwrap_or(f64::NAN))
    );
    println!(
        "metric failed_ratio = {} ({} failed of {} combo explorations)",
        json_num(u.failed as f64 / u.attempted.max(1) as f64),
        u.failed,
        u.attempted
    );
    if !u.rss_per_rep {
        println!("note: peak RSS could not be reset per repetition; it covers the whole process");
    }
    let correct = control.is_ok() && u.gate_failures.is_empty() && u.failed == 0;
    println!("{}", result_json(correct, u.attempted, u.failed, &metrics));
    Ok(correct)
}
