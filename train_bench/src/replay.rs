//! The traced replay: the engine's round loop re-driven from this crate through the
//! public layer functions `SflEngine` calls, with a timer or counter at every layer
//! boundary. It computes the same trajectory as the engine — the traced run checks
//! that round by round — so its timings describe the program the untraced run times.
//!
//! Covers the MergeSFL strategy (feature merging on) in every schedule the workloads
//! use: dense or fleet cohorts, barrier or pipelined iterations, any shard topology.

use crate::measure::RoundKey;
use mergesfl::config::RunConfig;
use mergesfl::control::{ControlModule, PlanOptions, RoundPlan};
use mergesfl::sfl::{
    align_gradients, merge_feature_refs, FeatureUpload, SflStrategy, SflWorker, ShardTopology,
    ShardedServer,
};
use mergesfl_data::{eval_subsample, partition_dirichlet, synth, Dataset};
use mergesfl_nn::optim::LrSchedule;
use mergesfl_nn::rng::derive_seed;
use mergesfl_nn::{zoo, Sequential, Tensor};
use mergesfl_simnet::{Cluster, ClusterConfig, ModelProfile};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The engine's fleet-mode loader stream tag (`FLEET_LOADER_TAG` in the engine).
const FLEET_LOADER_TAG: u64 = 0xF1EE_0000_0000_0000;
/// The engine's bounded-channel depth between the pipeline stages.
const PIPELINE_DEPTH: usize = 2;
/// Test samples per evaluation forward pass (the engine's `EVAL_CHUNK`).
const EVAL_CHUNK: usize = 64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Samples recorded at layer boundaries, by metric name.
#[derive(Debug, Default)]
pub struct Trace {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Trace {
    pub fn record(&mut self, name: &str, value: f64) {
        match self.samples.get_mut(name) {
            Some(v) => v.push(value),
            None => {
                self.samples.insert(name.to_string(), vec![value]);
            }
        }
    }

    /// Runs `f`, recording its wall time in milliseconds under `name`.
    pub fn ms<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, ms(start.elapsed()));
        out
    }

    /// Moves every sample of `other` into this trace.
    pub fn absorb(&mut self, other: Trace) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// The samples recorded under `name` (empty when the layer never ran).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// What one replay produced: its trajectory, wall time, and the batch sizes of every
/// round that trained (the shapes the per-layer pass replays).
pub struct ReplayRun {
    pub trajectory: Vec<RoundKey>,
    pub wall_s: f64,
    pub batch_sizes: Vec<Vec<usize>>,
}

/// Per-iteration parameters (the engine's `IterationParams`, merging always on).
#[derive(Clone, Copy)]
struct Iteration {
    lr: f32,
    total_batch: usize,
    reference_batch: usize,
    parallel: bool,
}

/// Replays a MergeSFL run of `config`, recording into `trace`.
pub fn replay(config: &RunConfig, trace: &mut Trace) -> ReplayRun {
    let start = Instant::now();
    let strategy = SflStrategy::merge_sfl();
    config.validate();

    // --- Set-up, as `SflEngine::new` does it.
    let mut spec = config.dataset.spec();
    if let Some(train_size) = config.train_size {
        spec.train_size = train_size;
    }
    let (train, test) = trace.ms("data.synth_ms", || {
        synth::generate_default(&spec, derive_seed(config.seed, 1))
    });
    let min_per_worker = (config.max_batch * 2)
        .min(train.len() / config.num_workers)
        .max(4);
    let partition = trace.ms("data.partition_ms", || {
        partition_dirichlet(
            &train,
            config.num_workers,
            config.non_iid_level,
            min_per_worker,
            derive_seed(config.seed, 2),
        )
    });
    let profile = ModelProfile::for_architecture(spec.architecture);
    let fleet = config.fleet_size();
    let fleet_mode = config.fleet_mode();
    let mut cluster = Cluster::new(
        &ClusterConfig {
            num_workers: fleet,
            ps_ingress_mean_mbps: config.ps_ingress_mean_mbps,
            seed: derive_seed(config.seed, 3),
        },
        profile,
    );
    let model_seed = derive_seed(config.seed, 4);
    let build = || zoo::build(spec.architecture, spec.num_classes, model_seed).into_split();
    let split = build();
    let global_bottom = split.bottom.state();
    let eval_top = build().top;
    let mut server = match config.topology {
        ShardTopology::Replicated => {
            let mut tops = vec![split.top];
            tops.extend((1..config.num_servers).map(|_| build().top));
            ShardedServer::new(tops, eval_top, global_bottom, config.sync_every)
        }
        ShardTopology::OutputPartitioned => {
            ShardedServer::partitioned(split.top, eval_top, global_bottom, config.num_servers)
        }
    };
    server.set_staleness(config.staleness);
    let mut workers: Vec<SflWorker> = if fleet_mode {
        Vec::new()
    } else {
        partition
            .indices
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                SflWorker::new(
                    i,
                    build().bottom,
                    shard.clone(),
                    derive_seed(config.seed, 100 + i as u64),
                )
            })
            .collect()
    };
    let mut eval_bottom = build().bottom;
    let eval_indices = eval_subsample(test.len(), config.eval_samples, derive_seed(config.seed, 6));
    let mut control = ControlModule::new(
        partition.label_dists.clone(),
        config.max_batch,
        config.kl_epsilon,
        config.estimate_alpha as f64,
        profile.feature_bytes_per_sample,
        config.tau(),
        derive_seed(config.seed, 5),
    );
    if fleet_mode {
        control = control.with_fleet(fleet, config.churn_model());
    }
    let churn = config.churn_model();
    let lr_schedule = LrSchedule::new(spec.initial_lr, spec.lr_decay);
    let opts = PlanOptions {
        batch_regulation: strategy.batch_regulation,
        kl_selection: strategy.kl_selection,
        finetune: strategy.finetune,
        budget_rescale: strategy.budget_rescale,
        max_participants: config.participants_per_round,
        uniform_batch: config.uniform_batch,
        num_servers: server.num_shards(),
        topology: server.topology(),
    };
    let tau = config.tau();

    // --- The round loop, as `SflEngine::run_round` drives it.
    let mut trajectory = Vec::with_capacity(config.rounds);
    let mut batch_sizes = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        cluster.begin_round(round);
        let pool_mark = mergesfl_nn::pool::stats();
        mergesfl_nn::kernels::reset_stage_stats();
        if !fleet_mode {
            trace.ms("simnet.states_ms", || {
                for state in cluster.all_worker_states() {
                    control.observe_worker(
                        state.worker_id,
                        state.bottom_compute_per_sample,
                        state.transfer_per_sample,
                    );
                }
            });
        }
        let ingress_budget = cluster.ps_ingress_budget();
        control.observe_ingress(ingress_budget);
        let mut plan = trace.ms("control.plan_ms", || {
            control.plan_round(round, ingress_budget, &opts)
        });
        trace.record("control.candidates", plan.records_touched as f64);
        let selected = plan.selected.len();
        plan.drop_empty_participants();
        plan.drop_mid_round_departures(&churn, round);
        trace.record(
            "control.kept_ratio",
            plan.selected.len() as f64 / selected.max(1) as f64,
        );
        if plan.selected.is_empty() {
            trace.ms("server.end_round_ms", || server.end_round(round));
            trajectory.push(RoundKey {
                round,
                train_loss: 0.0f32.to_bits(),
                participants: 0,
                total_batch: 0,
                accuracy: None,
            });
            continue;
        }

        if fleet_mode {
            trace.ms("simnet.states_ms", || {
                for &w in &plan.selected {
                    let state = cluster.worker_state(w);
                    control.observe_worker(
                        w,
                        state.bottom_compute_per_sample,
                        state.transfer_per_sample,
                    );
                }
            });
        }
        let mut fleet_cohort: Vec<SflWorker> = if fleet_mode {
            trace.ms("worker.build_ms", || {
                let shards = partition.indices.len();
                plan.selected
                    .iter()
                    .map(|&c| {
                        let client_stream = derive_seed(config.seed, FLEET_LOADER_TAG | c as u64);
                        SflWorker::new(
                            c,
                            build().bottom,
                            partition.indices[c % shards].clone(),
                            derive_seed(client_stream, round as u64),
                        )
                    })
                    .collect()
            })
        } else {
            Vec::new()
        };

        let lr = lr_schedule.at_round(round);
        let total_batch = plan.total_batch();
        let iteration = Iteration {
            lr,
            total_batch,
            reference_batch: (total_batch / plan.selected.len().max(1)).max(1),
            parallel: config.parallel,
        };
        server.set_lr(lr);
        let loss_sum = {
            let mut cohort: Vec<&mut SflWorker> = if fleet_mode {
                fleet_cohort.iter_mut().collect()
            } else {
                select_disjoint_mut(&mut workers, &plan.selected)
            };
            let global = server.global_bottom().to_vec();
            for worker in cohort.iter_mut() {
                trace.ms("worker.load_bottom_ms", || worker.load_bottom(&global));
            }
            let loss_sum = if config.pipeline {
                pipelined(
                    &mut cohort,
                    &train,
                    &mut server,
                    &plan,
                    tau,
                    iteration,
                    trace,
                )
            } else {
                barrier(
                    &mut cohort,
                    &train,
                    &mut server,
                    &plan,
                    tau,
                    iteration,
                    trace,
                )
            };
            let states: Vec<Vec<f32>> = cohort.iter().map(|w| w.bottom_state()).collect();
            let weights: Vec<f32> = if strategy.weighted_aggregation {
                plan.batch_sizes.iter().map(|&d| d as f32).collect()
            } else {
                vec![1.0; plan.selected.len()]
            };
            trace.ms("server.aggregate_ms", || {
                server.aggregate_bottoms(&states, &weights)
            });
            for state in states {
                mergesfl_nn::pool::recycle(state);
            }
            loss_sum
        };
        control.record_participation(&plan.selected);
        trace.ms("server.end_round_ms", || server.end_round(round));

        let evaluate = round.is_multiple_of(config.eval_every) || round + 1 == config.rounds;
        let accuracy = evaluate.then(|| {
            trace.ms("server.eval_ms", || {
                evaluate_global(&mut server, &mut eval_bottom, &test, &eval_indices)
            })
        });
        let pool = mergesfl_nn::pool::stats();
        trace.record("pool.hit_rate", pool.since(&pool_mark).hit_rate());
        trace.record("pool.bytes", pool.bytes as f64);
        let stages = mergesfl_nn::kernels::stage_stats();
        trace.record("kernels.double_stages", stages.stages as f64);
        trace.record("kernels.stage_wait_ms", stages.compute_wait_ns as f64 / 1e6);
        trace.record("worker.samples", (total_batch * tau) as f64);
        trajectory.push(RoundKey {
            round,
            train_loss: (loss_sum / tau as f32).to_bits(),
            participants: plan.selected.len(),
            total_batch,
            accuracy: accuracy.map(f32::to_bits),
        });
        batch_sizes.push(plan.batch_sizes.clone());
    }
    ReplayRun {
        trajectory,
        wall_s: start.elapsed().as_secs_f64(),
        batch_sizes,
    }
}

/// `&mut` references to `items[i]` for each (distinct) index, in index order.
fn select_disjoint_mut<'a, T>(items: &'a mut [T], indices: &[usize]) -> Vec<&'a mut T> {
    let mut slots: Vec<Option<&'a mut T>> = items.iter_mut().map(Some).collect();
    indices
        .iter()
        .map(|&i| slots[i].take().expect("cohort members are distinct"))
        .collect()
}

/// Global-model evaluation on the seeded test subsample, in engine-sized chunks.
fn evaluate_global(
    server: &mut ShardedServer,
    eval_bottom: &mut Sequential,
    test: &Dataset,
    eval_indices: &[usize],
) -> f32 {
    server.load_global_bottom(eval_bottom);
    server.prepare_eval();
    let mut weighted_accuracy = 0.0f64;
    let mut total = 0usize;
    for chunk in eval_indices.chunks(EVAL_CHUNK) {
        let (inputs, labels) = test.batch(chunk);
        let (_, accuracy) = server.evaluate_preloaded(eval_bottom, &inputs, &labels);
        weighted_accuracy += f64::from(accuracy) * chunk.len() as f64;
        total += chunk.len();
    }
    if total == 0 {
        return 0.0;
    }
    (weighted_accuracy / total as f64) as f32
}

/// Runs `call` over every task, fanned out across threads when `parallel` and more
/// than one thread is configured. Each call's wall time goes to `metric`; a real
/// fan-out also records `rayon.fanout_wait_ms`: the fan-out's wall time minus the
/// busiest thread's summed call time (spawn, join and imbalance).
fn fan_out<T: Send, R: Send>(
    tasks: Vec<T>,
    parallel: bool,
    metric: &str,
    trace: &mut Trace,
    call: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let timed = |task: T| {
        let start = Instant::now();
        let out = call(task);
        (out, std::thread::current().id(), start.elapsed())
    };
    let fanned = parallel && rayon::current_num_threads() > 1 && tasks.len() > 1;
    let start = Instant::now();
    let results: Vec<(R, ThreadId, Duration)> = if fanned {
        tasks.into_par_iter().map(timed).collect()
    } else {
        tasks.into_iter().map(timed).collect()
    };
    let wall = start.elapsed();
    let mut busy: Vec<(ThreadId, Duration)> = Vec::new();
    let mut out = Vec::with_capacity(results.len());
    for (r, thread, took) in results {
        trace.record(metric, ms(took));
        match busy.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, total)) => *total += took,
            None => busy.push((thread, took)),
        }
        out.push(r);
    }
    if fanned {
        let slowest = busy.iter().map(|&(_, d)| d).max().unwrap_or_default();
        trace.record("rayon.fanout_wait_ms", ms(wall.saturating_sub(slowest)));
    }
    out
}

/// One iteration's worker forward passes, uploads in plan order.
fn forward_all(
    cohort: &mut [&mut SflWorker],
    train: &Dataset,
    batch_sizes: &[usize],
    parallel: bool,
    trace: &mut Trace,
) -> Vec<FeatureUpload> {
    let tasks: Vec<(&mut SflWorker, usize)> = cohort
        .iter_mut()
        .map(|w| &mut **w)
        .zip(batch_sizes.iter().copied())
        .collect();
    fan_out(
        tasks,
        parallel,
        "worker.forward_ms",
        trace,
        |(worker, d)| worker.forward_iteration(train, d),
    )
}

/// One iteration's worker-side bottom updates from plan-ordered gradients.
fn apply_all(
    cohort: &mut [&mut SflWorker],
    grads: Vec<Option<Tensor>>,
    batch_sizes: &[usize],
    p: Iteration,
    trace: &mut Trace,
) {
    let tasks: Vec<(&mut SflWorker, Tensor, usize)> = cohort
        .iter_mut()
        .map(|w| &mut **w)
        .zip(grads)
        .zip(batch_sizes.iter().copied())
        .filter_map(|((worker, grad), d)| grad.map(|g| (worker, g, d)))
        .collect();
    fan_out(
        tasks,
        p.parallel,
        "worker.apply_ms",
        trace,
        |(worker, grad, d)| {
            worker.apply_merged_gradient(&grad, p.lr, d, p.total_batch, p.reference_batch, true)
        },
    );
}

/// The uploads a route group processes, in plan order (the engine's `routed_uploads`).
fn routed_uploads<'a>(
    uploads: &'a [FeatureUpload],
    plan: &RoundPlan,
    group: usize,
) -> Vec<&'a FeatureUpload> {
    match plan.topology {
        ShardTopology::Replicated => uploads
            .iter()
            .zip(&plan.shard_of)
            .filter(|&(_, &s)| s == group)
            .map(|(u, _)| u)
            .collect(),
        ShardTopology::OutputPartitioned => uploads.iter().collect(),
    }
}

/// Sample-weighted mean of per-shard losses; one shard passes through untouched.
fn combine_shard_losses(per_shard: &[(f32, usize)]) -> f32 {
    match per_shard {
        [] => 0.0,
        [(loss, _)] => *loss,
        many => {
            let total: usize = many.iter().map(|(_, n)| n).sum();
            let weighted: f32 = many.iter().map(|&(l, n)| l * n as f32).sum();
            weighted / total.max(1) as f32
        }
    }
}

/// The dispatch-critical half of one server iteration: every route group merges its
/// uploads and runs `begin_step`. Returns the loss, the plan-ordered gradients, and
/// per active shard the `begin_step` time (for `server.step_ms`).
fn begin_iteration(
    server: &mut ShardedServer,
    uploads: &[FeatureUpload],
    plan: &RoundPlan,
    trace: &mut Trace,
) -> (f32, Vec<Option<Tensor>>, Vec<(usize, Duration)>) {
    let mut gradients: Vec<(usize, Tensor)> = Vec::with_capacity(uploads.len());
    let mut shard_losses: Vec<(f32, usize)> = Vec::with_capacity(plan.route_groups());
    let mut active = Vec::with_capacity(plan.route_groups());
    for shard in 0..plan.route_groups() {
        let routed = routed_uploads(uploads, plan, shard);
        if routed.is_empty() {
            continue;
        }
        let merged = trace.ms("merge.merge_ms", || merge_feature_refs(&routed));
        let start = Instant::now();
        let step = server.begin_step(shard, &merged);
        let took = start.elapsed();
        trace.record("server.begin_step_ms", ms(took));
        shard_losses.push((step.loss, merged.total()));
        gradients.extend(step.gradients);
        active.push((shard, took));
    }
    let grads = trace.ms("merge.align_ms", || {
        align_gradients(&plan.selected, gradients)
    });
    (combine_shard_losses(&shard_losses), grads, active)
}

/// The optimizer tail of every active shard; records `server.step_ms` as each
/// shard's begin plus finish time.
fn finish_iteration(server: &mut ShardedServer, active: Vec<(usize, Duration)>, trace: &mut Trace) {
    for (shard, begin) in active {
        let start = Instant::now();
        server.finish_step(shard);
        let took = start.elapsed();
        trace.record("server.finish_step_ms", ms(took));
        trace.record("server.step_ms", ms(begin + took));
    }
}

/// The barrier schedule: forward → server step → gradient application, τ times.
fn barrier(
    cohort: &mut [&mut SflWorker],
    train: &Dataset,
    server: &mut ShardedServer,
    plan: &RoundPlan,
    tau: usize,
    p: Iteration,
    trace: &mut Trace,
) -> f32 {
    let mut loss_sum = 0.0f32;
    for _ in 0..tau {
        let uploads = forward_all(cohort, train, &plan.batch_sizes, p.parallel, trace);
        let (loss, grads, active) = begin_iteration(server, &uploads, plan, trace);
        finish_iteration(server, active, trace);
        loss_sum += loss;
        apply_all(cohort, grads, &plan.batch_sizes, p, trace);
    }
    loss_sum
}

/// The pipelined schedule: the worker stage on its own thread, the server stage here,
/// joined by bounded channels; the server's optimizer tails overlap the workers'
/// backward and next forward. Records each stage's share of time blocked in `recv`.
fn pipelined(
    cohort: &mut [&mut SflWorker],
    train: &Dataset,
    server: &mut ShardedServer,
    plan: &RoundPlan,
    tau: usize,
    p: Iteration,
    trace: &mut Trace,
) -> f32 {
    let mut loss_sum = 0.0f32;
    std::thread::scope(|scope| {
        let (upload_tx, upload_rx) = rayon::channel::bounded::<Vec<FeatureUpload>>(PIPELINE_DEPTH);
        let (grad_tx, grad_rx) = rayon::channel::bounded::<Vec<Option<Tensor>>>(PIPELINE_DEPTH);
        let batch_sizes = &plan.batch_sizes;
        let worker_stage = scope.spawn(move || {
            let mut local = Trace::default();
            let start = Instant::now();
            let mut idle = Duration::ZERO;
            for _ in 0..tau {
                let uploads = forward_all(cohort, train, batch_sizes, p.parallel, &mut local);
                if upload_tx.send(uploads).is_err() {
                    break;
                }
                let waiting = Instant::now();
                let Some(grads) = grad_rx.recv() else {
                    break;
                };
                idle += waiting.elapsed();
                apply_all(cohort, grads, batch_sizes, p, &mut local);
            }
            local.record(
                "pipeline.worker_idle_pct",
                100.0 * idle.as_secs_f64() / start.elapsed().as_secs_f64(),
            );
            local
        });

        let start = Instant::now();
        let mut idle = Duration::ZERO;
        for _ in 0..tau {
            let waiting = Instant::now();
            let Some(uploads) = upload_rx.recv() else {
                break;
            };
            idle += waiting.elapsed();
            let (loss, grads, active) = begin_iteration(server, &uploads, plan, trace);
            loss_sum += loss;
            if grad_tx.send(grads).is_err() {
                break;
            }
            finish_iteration(server, active, trace);
        }
        drop(grad_tx);
        trace.record(
            "pipeline.server_idle_pct",
            100.0 * idle.as_secs_f64() / start.elapsed().as_secs_f64(),
        );
        match worker_stage.join() {
            Ok(local) => trace.absorb(local),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
    loss_sum
}
