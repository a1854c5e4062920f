//! `perfbench`: the fatrobots benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`sweep-small`, `window-mid` or `scale-10k`), checks
//! the program's outputs, prints sample summaries and every metric as text,
//! and prints the result as one JSON object on the last line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod report;
mod speed;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::{Outcome, END_TO_END, PER_LAYER};
use workloads::{Plan, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <sweep-small|window-mid|scale-10k> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} rustc=\"{}\" nproc={nproc} jobs=2 threads=1,2",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line(&rustc, &["--version"]),
    );

    let mut out = Outcome::default();
    workloads::run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Plan::full(),
        &mut out,
    );
    let listed: &[(&str, &str)] = if args.trace {
        for &(name, unit) in &PER_LAYER {
            if workloads::unused_layers(&args.workload)
                .iter()
                .any(|prefix| name.starts_with(prefix))
            {
                out.metrics.entry(name).or_insert((0.0, unit));
            }
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, (value, unit)) in &out.metrics {
        println!("# metric {name} {value} {unit}");
    }
    println!("{}", out.json(listed));
    ExitCode::SUCCESS
}
