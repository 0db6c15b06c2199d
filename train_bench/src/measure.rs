//! The untraced measurement: `SflEngine::new` then `SflEngine::run`, timed, repeated
//! over the workload's training seeds until the time budget is spent, with every
//! trajectory checked against the first run of the same seed.

use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::sys;
use crate::workload::{Size, Workload};
use mergesfl::config::RunConfig;
use mergesfl::sfl::{SflEngine, SflStrategy};
use mergesfl::RoundRecord;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The per-round fields a trajectory is compared on, floats as bit patterns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundKey {
    pub round: usize,
    pub train_loss: u32,
    pub participants: usize,
    pub total_batch: usize,
    pub accuracy: Option<u32>,
}

impl RoundKey {
    pub fn of(r: &RoundRecord) -> Self {
        Self {
            round: r.round,
            train_loss: r.train_loss.to_bits(),
            participants: r.participants,
            total_batch: r.total_batch,
            accuracy: r.accuracy.map(f32::to_bits),
        }
    }
}

/// One timed engine run.
pub struct EngineRun {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub heap_allocs: u64,
    /// Σ total_batch · τ over rounds: the training samples the run processed.
    pub samples: usize,
    pub rounds: usize,
    pub trajectory: Vec<RoundKey>,
    pub final_accuracy: f64,
    pub finite: bool,
}

/// Builds and runs the engine once, or returns the panic message.
pub fn engine_run(config: &RunConfig) -> Result<EngineRun, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let engine = SflEngine::new(SflStrategy::merge_sfl(), config);
        let setup_s = start.elapsed().as_secs_f64();
        let cpu0 = sys::cpu_seconds();
        let allocs0 = mergesfl_nn::pool::heap_allocs();
        let start = Instant::now();
        let result = std::hint::black_box(engine.run());
        let run_s = start.elapsed().as_secs_f64();
        let heap_allocs = mergesfl_nn::pool::heap_allocs() - allocs0;
        let cpu_s = sys::cpu_seconds() - cpu0;
        EngineRun {
            setup_s,
            run_s,
            cpu_s,
            heap_allocs,
            samples: result
                .records
                .iter()
                .map(|r| r.total_batch * config.tau())
                .sum(),
            rounds: result.records.len(),
            trajectory: result.records.iter().map(RoundKey::of).collect(),
            final_accuracy: f64::from(result.final_accuracy()),
            finite: result.records.iter().all(|r| r.train_loss.is_finite()),
        }
    }))
    .map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Checks one run against the reference trajectory of its seed (recording it as the
/// reference when it is the seed's first). Returns the failure, if any.
fn check_run(
    run: &Result<EngineRun, String>,
    seed: u64,
    references: &mut BTreeMap<u64, Vec<RoundKey>>,
    what: &str,
) -> Option<String> {
    let run = match run {
        Ok(run) => run,
        Err(panic) => return Some(format!("{what} seed {seed:#x} panicked: {panic}")),
    };
    if !run.finite {
        return Some(format!("{what} seed {seed:#x}: non-finite training loss"));
    }
    match references.get(&seed) {
        None => {
            references.insert(seed, run.trajectory.clone());
            None
        }
        Some(reference) if *reference == run.trajectory => None,
        Some(reference) => {
            let round = reference
                .iter()
                .zip(&run.trajectory)
                .position(|(a, b)| a != b)
                .unwrap_or(reference.len().min(run.trajectory.len()));
            Some(format!(
                "{what} seed {seed:#x}: trajectory differs from the reference at round {round}"
            ))
        }
    }
}

/// Runs the untraced measurement of a workload for `seconds` and returns its
/// end-to-end metrics. Every training seed is run at least once, so the reported
/// accuracy always covers the same seed set.
pub fn measure(workload: Workload, seed: u64, seconds: f64, size: Size) -> Outcome {
    let seeds = workload.training_seeds(seed, size);
    let configs: Vec<RunConfig> = seeds.iter().map(|&s| workload.config(s, size)).collect();
    workload.apply_process_settings(&configs[0]);
    let mut outcome = Outcome::default();
    let mut references: BTreeMap<u64, Vec<RoundKey>> = BTreeMap::new();

    // Warm-up run of the first seed (pool pages, lazy kernel set-up), which is also that
    // seed's reference trajectory. The multi-threaded workload takes its reference at
    // one thread, so every later run also checks parallel == sequential.
    if workload == Workload::CifarNt {
        rayon::set_num_threads(1);
    }
    let warm = engine_run(&configs[0]);
    outcome.attempt(check_run(&warm, seeds[0], &mut references, "warm-up"));
    rayon::set_num_threads(workload.threads());

    let mut runs: Vec<EngineRun> = Vec::new();
    let mut accuracy: BTreeMap<u64, f64> = BTreeMap::new();
    let mut peak_rss_mb = 0.0;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while i < seeds.len() || start.elapsed() < budget {
        let k = i % seeds.len();
        let run = engine_run(&configs[k]);
        outcome.attempt(check_run(&run, seeds[k], &mut references, workload.name()));
        if let Ok(run) = run {
            accuracy.entry(seeds[k]).or_insert(run.final_accuracy);
            runs.push(run);
        }
        i += 1;
        // Resident memory keeps growing with the number of runs a process makes, so
        // the peak is read after a fixed amount of work: the warm-up plus one pass
        // over the seed set.
        if i == seeds.len() {
            peak_rss_mb = sys::peak_rss_mb();
        }
    }

    let throughput: Vec<f64> = runs.iter().map(|r| r.samples as f64 / r.run_s).collect();
    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let allocs: Vec<f64> = runs
        .iter()
        .map(|r| r.heap_allocs as f64 / r.rounds.max(1) as f64)
        .collect();
    let cpu_total: f64 = runs.iter().map(|r| r.cpu_s).sum();
    let samples_total: usize = runs.iter().map(|r| r.samples).sum();
    let accuracies: Vec<f64> = accuracy.values().copied().collect();

    outcome.metrics = vec![
        Metric::timing("train_samples_per_s", "1/s", &throughput),
        Metric::timing("setup_s", "s", &setup),
        Metric::value(
            "cpu_s_per_ksample",
            "s",
            1000.0 * cpu_total / samples_total.max(1) as f64,
            runs.len(),
        ),
        Metric::value("peak_rss_mb", "MB", peak_rss_mb, 1),
        Metric::value(
            "heap_allocs_per_round",
            "count",
            median(&allocs),
            allocs.len(),
        ),
        Metric::value(
            "final_accuracy",
            "ratio",
            accuracies.iter().sum::<f64>() / accuracies.len().max(1) as f64,
            accuracies.len(),
        ),
    ];
    outcome
}
