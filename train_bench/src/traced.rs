//! The traced run: engine and replay alternated on the same training seeds, every
//! replay checked against its engine run, then the per-layer pass; reports every
//! per-layer metric.

use crate::measure::engine_run;
use crate::replay::{replay, Trace};
use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::workload::{Size, Workload};
use std::time::{Duration, Instant};

/// Layer timings reported as median plus tail, with their units.
const TIMINGS: [(&str, &str); 18] = [
    ("data.synth_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("simnet.states_ms", "ms"),
    ("control.plan_ms", "ms"),
    ("worker.build_ms", "ms"),
    ("worker.load_bottom_ms", "ms"),
    ("worker.forward_ms", "ms"),
    ("worker.apply_ms", "ms"),
    ("rayon.fanout_wait_ms", "ms"),
    ("kernels.stage_wait_ms", "ms"),
    ("merge.merge_ms", "ms"),
    ("merge.align_ms", "ms"),
    ("server.begin_step_ms", "ms"),
    ("server.finish_step_ms", "ms"),
    ("server.step_ms", "ms"),
    ("server.aggregate_ms", "ms"),
    ("server.end_round_ms", "ms"),
    ("server.eval_ms", "ms"),
];

/// How a counter's per-round samples become one value.
#[derive(Clone, Copy)]
enum Fold {
    Median,
    Mean,
    /// The last (largest) reading of a cumulative gauge.
    Max,
}

/// Layer counters and ratios, with how each is folded over rounds.
const COUNTERS: [(&str, &str, Fold); 8] = [
    ("control.candidates", "count", Fold::Median),
    ("control.kept_ratio", "ratio", Fold::Mean),
    ("worker.samples", "count", Fold::Median),
    ("kernels.double_stages", "count", Fold::Median),
    ("pipeline.worker_idle_pct", "%", Fold::Median),
    ("pipeline.server_idle_pct", "%", Fold::Median),
    ("pool.hit_rate", "ratio", Fold::Median),
    ("pool.bytes", "bytes", Fold::Max),
];

/// Traced replay wall time over untraced engine wall time, minus one, in percent.
const OVERHEAD: (&str, &str) = ("replay.overhead_pct", "%");

/// Iterations the per-layer pass runs per model.
fn layer_iterations(size: Size) -> usize {
    match size {
        Size::Full => 40,
        Size::Tiny => 3,
    }
}

/// Every per-layer metric name, in the order the traced run reports them: each
/// timing followed by its `.tail`, then the counters and the tracing overhead.
pub fn metric_names() -> Vec<String> {
    let timings = crate::layers::metric_names()
        .into_iter()
        .chain(TIMINGS.iter().map(|(n, _)| n.to_string()));
    let mut names: Vec<String> = timings
        .flat_map(|n| {
            let tail = format!("{n}.tail");
            [n, tail]
        })
        .collect();
    names.extend(COUNTERS.iter().map(|(n, _, _)| n.to_string()));
    names.push(OVERHEAD.0.to_string());
    names
}

/// Runs the traced measurement of a workload for `seconds`.
pub fn traced(workload: Workload, seed: u64, seconds: f64, size: Size) -> Outcome {
    let seeds = workload.training_seeds(seed, size);
    let configs: Vec<_> = seeds.iter().map(|&s| workload.config(s, size)).collect();
    workload.apply_process_settings(&configs[0]);
    let mut outcome = Outcome::default();
    let mut trace = Trace::default();
    let mut overhead = Vec::new();
    let mut shapes = Vec::new();

    // Warm-up: pool pages and lazy kernel set-up, untimed and unchecked.
    let _ = engine_run(&configs[0]);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed() < budget {
        let config = &configs[i % configs.len()];
        i += 1;
        let engine = match engine_run(config) {
            Ok(run) if run.finite => {
                outcome.attempt(None);
                run
            }
            Ok(_) => {
                outcome.attempt(Some(format!(
                    "engine seed {:#x}: non-finite loss",
                    config.seed
                )));
                continue;
            }
            Err(panic) => {
                outcome.attempt(Some(format!(
                    "engine seed {:#x} panicked: {panic}",
                    config.seed
                )));
                continue;
            }
        };
        let mut local = Trace::default();
        let replayed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay(config, &mut local)));
        let Ok(run) = replayed else {
            outcome.attempt(Some(format!("replay seed {:#x} panicked", config.seed)));
            continue;
        };
        trace.absorb(local);
        if run.trajectory == engine.trajectory {
            outcome.attempt(None);
        } else {
            let round = run
                .trajectory
                .iter()
                .zip(&engine.trajectory)
                .position(|(a, b)| a != b)
                .unwrap_or(run.trajectory.len().min(engine.trajectory.len()));
            outcome.attempt(Some(format!(
                "replay seed {:#x} differs from the engine at round {round}",
                config.seed
            )));
        }
        overhead.push(100.0 * (run.wall_s / (engine.setup_s + engine.run_s) - 1.0));
        if shapes.is_empty() {
            shapes = run.batch_sizes;
        }
    }
    crate::layers::drive(&shapes, layer_iterations(size), seeds[0], &mut trace);

    for name in crate::layers::metric_names() {
        outcome
            .metrics
            .push(Metric::timing(name.clone(), "us", trace.samples(&name)));
    }
    for (name, unit) in TIMINGS {
        outcome
            .metrics
            .push(Metric::timing(name, unit, trace.samples(name)));
    }
    for (name, unit, fold) in COUNTERS {
        let samples = trace.samples(name);
        let value = match fold {
            Fold::Median => median(samples),
            Fold::Mean => samples.iter().sum::<f64>() / samples.len().max(1) as f64,
            Fold::Max => samples.iter().copied().fold(0.0, f64::max),
        };
        outcome
            .metrics
            .push(Metric::value(name, unit, value, samples.len()));
    }
    outcome.metrics.push(Metric::value(
        OVERHEAD.0,
        OVERHEAD.1,
        median(&overhead),
        overhead.len(),
    ));
    outcome
}
