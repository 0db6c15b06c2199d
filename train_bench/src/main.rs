//! `train_bench --workload <name|all> --seed <n> --seconds <n> --trace <0|1> [--size tiny]`
//!
//! Prints the run's environment (effective configuration, cores, micro-kernel, the
//! environment knobs present), one line per metric, and as the last line the JSON
//! result. Exits non-zero when a correctness check fails. `--workload all` runs every
//! workload in its own child process and prints their reports in turn, then a
//! one-line verdict.

use std::process::{Command, ExitCode};
use train_bench::workload::{describe, Size, Workload};
use train_bench::{measure, sys, traced};

#[global_allocator]
static ALLOC: mergesfl_nn::pool::CountingAlloc = mergesfl_nn::pool::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its report.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let config = workload.config(args.seed, args.size);
    let name = workload.name();
    println!("[{name}] config: {}", describe(&config));
    println!(
        "[{name}] training seeds: {} derived from --seed {}",
        workload.seeds_per_run(args.size),
        args.seed
    );
    println!(
        "[{name}] nproc={} fan_out_threads={} micro_kernel={} env_knobs=[{}]",
        sys::nproc(),
        workload.threads(),
        sys::micro_kernel(),
        sys::knobs_present().join(" ")
    );
    let outcome = if args.trace {
        traced::traced(workload, args.seed, args.seconds, args.size)
    } else {
        measure::measure(workload, args.seed, args.seconds, args.size)
    };
    for line in outcome.human_lines(name) {
        println!("{line}");
    }
    println!("{}", outcome.json(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (so peak memory and thread
/// settings stay per workload), each printing its full report in turn.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        let mut child_args = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was given");
        child_args[at + 1] = workload.name().to_string();
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("the benchmark can start itself");
        if !status.success() {
            failed.push(workload.name());
        }
    }
    if failed.is_empty() {
        println!("[all] every workload passed its checks");
        ExitCode::SUCCESS
    } else {
        println!("[all] FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("train_bench: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    match Workload::parse(&args.workload) {
        Some(workload) => run_one(workload, &args),
        None => {
            eprintln!(
                "train_bench: --workload must be one of all, {}",
                Workload::ALL.map(Workload::name).join(", ")
            );
            ExitCode::from(2)
        }
    }
}
