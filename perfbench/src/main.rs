//! The repository's benchmark: served cold compiles, synthetic scaling,
//! and warm wire traffic through the public API of `lalr-service`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md`). The last line of standard output is one JSON
//! object; a wrong answer makes `correct` false and the exit code 1.

mod cold;
mod counts;
mod earley;
mod inputs;
mod layers;
mod phases;
mod report;
mod stats;
mod trace;
mod warm;

use report::Outcome;

/// The three workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["cold_compile", "cold_scaling", "warm_served"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        layers::run(args, &mut out)?;
    } else {
        match args.workload.as_str() {
            "cold_compile" => {
                cold::cold_compile(args, args.seconds, None).report(args, false, &mut out)?
            }
            "cold_scaling" => {
                cold::cold_scaling(args, args.seconds, None).report(args, true, &mut out)?
            }
            _ => warm::run(args)?.report(&mut out)?,
        }
    }
    let counts = counts::record(args, &mut out)?;
    if args.trace {
        layers::count_metrics(&counts, &mut out);
    }
    Ok(out)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--write-expected") {
        counts::write_expected();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value:.6} {unit}");
    }
    if let Some(why) = &out.broken {
        println!("run is not valid: {why}");
    }
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1);
    }
}
