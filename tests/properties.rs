//! Property-based tests (proptest) of the core invariants the system relies on:
//! merge/dispatch round-trips, aggregation weights, label-distribution mixtures and
//! batch-size regulation.

use mergesfl::config::RunConfig;
use mergesfl::control::{regulate_batch_sizes, rescale_to_budget, rescale_to_budget_capped};
use mergesfl::experiment::{run, Approach};
use mergesfl::sfl::{dispatch_gradients, merge_features, FeatureUpload};
use mergesfl_data::{eval_subsample, DatasetKind, LabelDistribution};
use mergesfl_nn::model::weighted_average_states;
use mergesfl_nn::Tensor;
use mergesfl_simnet::RoundTiming;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging worker features and splitting the merged tensor back always recovers each
    /// worker's rows exactly, whatever the batch sizes.
    #[test]
    fn merge_then_dispatch_roundtrip(sizes in prop::collection::vec(1usize..6, 1..6), dim in 1usize..8) {
        let uploads: Vec<FeatureUpload> = sizes.iter().enumerate().map(|(w, &d)| {
            let data: Vec<f32> = (0..d * dim).map(|i| (w * 1000 + i) as f32).collect();
            FeatureUpload::new(w, Tensor::from_vec(data, &[d, dim]), vec![0; d])
        }).collect();
        let merged = merge_features(&uploads);
        prop_assert_eq!(merged.total(), sizes.iter().sum::<usize>());
        let grad = merged.features.clone();
        let dispatched = dispatch_gradients(&merged, &grad);
        for (upload, (worker, part)) in uploads.iter().zip(&dispatched) {
            prop_assert_eq!(upload.worker_id, *worker);
            prop_assert_eq!(part.data(), upload.features.data());
        }
    }

    /// Weighted aggregation always lies inside the element-wise min/max envelope of the
    /// input states and preserves exact equality when all states are identical.
    #[test]
    fn aggregation_stays_in_envelope(
        states in prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 4), 1..5),
        raw_weights in prop::collection::vec(0.1f32..10.0, 1..5),
    ) {
        let n = states.len().min(raw_weights.len());
        let states = &states[..n];
        let weights = &raw_weights[..n];
        let avg = weighted_average_states(states, weights);
        for j in 0..4 {
            let lo = states.iter().map(|s| s[j]).fold(f32::INFINITY, f32::min);
            let hi = states.iter().map(|s| s[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[j] >= lo - 1e-4 && avg[j] <= hi + 1e-4);
        }
    }

    /// A mixture of label distributions is itself a valid distribution, and mixing a
    /// distribution with itself is the identity.
    #[test]
    fn mixtures_are_valid_distributions(
        counts_a in prop::collection::vec(0u32..50, 2..8),
        counts_b in prop::collection::vec(0u32..50, 2..8),
        w_a in 1.0f32..20.0,
        w_b in 1.0f32..20.0,
    ) {
        let classes = counts_a.len().min(counts_b.len());
        let make = |c: &[u32]| {
            let mut v: Vec<f32> = c[..classes].iter().map(|&x| x as f32).collect();
            if v.iter().all(|&x| x == 0.0) { v[0] = 1.0; }
            LabelDistribution::new(v)
        };
        let a = make(&counts_a);
        let b = make(&counts_b);
        let mix = LabelDistribution::mixture(&[&a, &b], &[w_a, w_b]);
        let sum: f32 = mix.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(mix.probs().iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        let self_mix = LabelDistribution::mixture(&[&a, &a], &[w_a, w_b]);
        prop_assert!(self_mix.total_variation(&a) < 1e-5);
        prop_assert!(a.kl_divergence(&a) < 1e-6);
    }

    /// Batch-size regulation always yields sizes in [1, D], assigns D to the fastest worker,
    /// and never gives a slower worker a larger batch than a faster one.
    #[test]
    fn regulation_invariants(costs in prop::collection::vec(0.01f64..2.0, 1..20), max_batch in 1usize..64) {
        let assignment = regulate_batch_sizes(&costs, max_batch);
        prop_assert_eq!(assignment.batch_sizes.len(), costs.len());
        prop_assert!(assignment.batch_sizes.iter().all(|&d| d >= 1 && d <= max_batch));
        prop_assert_eq!(assignment.batch_sizes[assignment.fastest], max_batch);
        for i in 0..costs.len() {
            for j in 0..costs.len() {
                if costs[i] < costs[j] {
                    prop_assert!(assignment.batch_sizes[i] >= assignment.batch_sizes[j]);
                }
            }
        }
    }

    /// Rescaling to a budget never produces zero batches and never exceeds the budget when
    /// the budget admits at least one sample per worker.
    #[test]
    fn rescale_invariants(
        sizes in prop::collection::vec(1usize..32, 1..10),
        feature_bytes in 16.0f64..4096.0,
        budget_factor in 0.5f64..4.0,
    ) {
        let current: f64 = sizes.iter().map(|&d| d as f64).sum::<f64>() * feature_bytes;
        let budget = current * budget_factor;
        let scaled = rescale_to_budget(&sizes, feature_bytes, budget);
        prop_assert_eq!(scaled.len(), sizes.len());
        prop_assert!(scaled.iter().all(|&d| d >= 1));
        let min_possible = sizes.len() as f64 * feature_bytes;
        let total: f64 = scaled.iter().map(|&d| d as f64).sum::<f64>() * feature_bytes;
        if budget >= min_possible {
            prop_assert!(total <= budget * 1.0001, "total {} exceeds budget {}", total, budget);
        }
    }

    /// A budget smaller than one sample per worker degrades gracefully: every worker keeps
    /// exactly the floor of one sample and nothing panics or overflows.
    #[test]
    fn rescale_with_budget_below_cohort_minimum(
        sizes in prop::collection::vec(1usize..32, 1..10),
        feature_bytes in 16.0f64..4096.0,
        starvation in 0.01f64..0.99,
    ) {
        // Strictly less than `len` samples' worth of budget: cannot be met at one sample
        // per worker, so the floor must win.
        let budget = sizes.len() as f64 * feature_bytes * starvation;
        let scaled = rescale_to_budget(&sizes, feature_bytes, budget);
        prop_assert_eq!(scaled.len(), sizes.len());
        prop_assert!(scaled.iter().all(|&d| d == 1), "starved rescale {:?} should floor to 1", scaled);
    }

    /// A single worker always gets the full default maximum batch, whatever its speed.
    #[test]
    fn single_worker_gets_the_max_batch(cost in 0.001f64..100.0, max_batch in 1usize..128) {
        let assignment = regulate_batch_sizes(&[cost], max_batch);
        prop_assert_eq!(assignment.batch_sizes.len(), 1);
        prop_assert_eq!(assignment.batch_sizes[0], max_batch);
        prop_assert_eq!(assignment.fastest, 0);
    }

    /// The overlap-aware makespan of a split round never exceeds the barrier sum, never
    /// beats any single serial strand (slowest worker, ingress drain, server, sync), and
    /// saves exactly `(τ−1)` times the two smaller of the three mutually-overlapping
    /// stages — the pipeline can only hide work behind other work, not delete it.
    #[test]
    fn split_round_pipelined_makespan_bounds(
        iter_durations in prop::collection::vec(0.01f64..5.0, 1..12),
        tau in 1usize..12,
        ingress in 0.0f64..3.0,
        server_critical in 0.0f64..2.0,
        server_overlap in 0.0f64..2.0,
        sync in 0.0f64..3.0,
    ) {
        let totals: Vec<f64> = iter_durations.iter().map(|d| d * tau as f64).collect();
        let timing = RoundTiming::with_sharded_stages(
            totals, sync, tau, vec![ingress], vec![server_critical], vec![server_overlap], 0.0);
        let barrier = timing.barrier_completion_time();
        let pipelined = timing.pipelined_completion_time();

        prop_assert!(pipelined <= barrier + 1e-9, "pipelined {} exceeds barrier {}", pipelined, barrier);
        // Never below the slowest single stage strand.
        prop_assert!(pipelined + 1e-9 >= timing.barrier_time());
        prop_assert!(pipelined + 1e-9 >= tau as f64 * ingress);
        prop_assert!(pipelined + 1e-9 >= tau as f64 * (server_critical + server_overlap));
        prop_assert!(pipelined + 1e-9 >= sync);
        // The saving is exactly the hideable slice per steady-state iteration.
        let a = timing.barrier_time() / tau as f64;
        let expected_saving =
            (tau as f64 - 1.0) * (a + ingress + server_overlap - a.max(ingress).max(server_overlap));
        prop_assert!((barrier - pipelined - expected_saving).abs() < 1e-6,
            "saving {} != expected {}", barrier - pipelined, expected_saving);
    }

    /// A sharded split round: the pipelined makespan never exceeds the barrier sum, both
    /// makespans are gated by the slowest shard's strand plus the cross-shard sync, and
    /// splitting the same server load across shards never costs more than keeping it on
    /// one PS (sync aside) — sharding can only divide work, not create it.
    #[test]
    fn sharded_split_round_makespan_bounds(
        iter_durations in prop::collection::vec(0.01f64..5.0, 1..8),
        tau in 1usize..10,
        raw_ingress in prop::collection::vec(0.0f64..2.0, 1..6),
        raw_critical in prop::collection::vec(0.0f64..1.5, 1..6),
        raw_overlap in prop::collection::vec(0.0f64..1.5, 1..6),
        sync in 0.0f64..2.0,
        cross_sync in 0.0f64..1.0,
    ) {
        let totals: Vec<f64> = iter_durations.iter().map(|d| d * tau as f64).collect();
        let shards = raw_ingress.len().min(raw_critical.len()).min(raw_overlap.len());
        let ingress: Vec<f64> = raw_ingress[..shards].to_vec();
        let critical: Vec<f64> = raw_critical[..shards].to_vec();
        let overlap: Vec<f64> = raw_overlap[..shards].to_vec();
        let sharded = RoundTiming::with_sharded_stages(
            totals.clone(), sync, tau, ingress.clone(), critical.clone(), overlap.clone(), cross_sync);
        let barrier = sharded.barrier_completion_time();
        let pipelined = sharded.pipelined_completion_time();

        prop_assert!(pipelined <= barrier + 1e-9, "pipelined {} exceeds barrier {}", pipelined, barrier);
        prop_assert!(pipelined + 1e-9 >= sharded.barrier_time() + cross_sync);
        for s in 0..ingress.len() {
            // No schedule beats any single shard's serial strands.
            prop_assert!(pipelined + 1e-9 >= tau as f64 * ingress[s] + cross_sync);
            prop_assert!(pipelined + 1e-9 >= tau as f64 * (critical[s] + overlap[s]) + cross_sync);
            prop_assert!(barrier + 1e-9 >= tau as f64 * (ingress[s] + critical[s] + overlap[s]) + cross_sync);
        }

        // The same total load concentrated on one PS (no sync needed there) is never
        // cheaper than the sharded layout with the sync stripped.
        let one_ps = RoundTiming::with_sharded_stages(
            totals, sync, tau,
            vec![ingress.iter().sum()], vec![critical.iter().sum()], vec![overlap.iter().sum()],
            0.0);
        let sharded_no_sync = RoundTiming::with_sharded_stages(
            sharded.worker_durations.clone(), sync, tau, ingress, critical, overlap, 0.0);
        prop_assert!(sharded_no_sync.barrier_completion_time() <= one_ps.barrier_completion_time() + 1e-9);
        prop_assert!(sharded_no_sync.pipelined_completion_time() <= one_ps.pipelined_completion_time() + 1e-9);
    }

    /// Shard-aware budget rescaling: solving against the aggregate `S · B^h` ingress
    /// budget never yields a smaller batch than the single-link solve for any worker, is
    /// monotone in the shard count, and never exceeds the per-worker capacity `D`.
    #[test]
    fn shard_aware_rescale_grows_monotonically_and_respects_the_cap(
        sizes in prop::collection::vec(1usize..32, 1..10),
        feature_bytes in 16.0f64..4096.0,
        budget_factor in 0.2f64..3.0,
        max_batch in 1usize..64,
    ) {
        let current: f64 = sizes.iter().map(|&d| d as f64).sum::<f64>() * feature_bytes;
        let single_link = current * budget_factor;
        let mut previous: Option<Vec<usize>> = None;
        for shards in 1usize..=6 {
            let aggregate = single_link * shards as f64;
            let solved = rescale_to_budget_capped(&sizes, feature_bytes, aggregate, max_batch);
            prop_assert_eq!(solved.len(), sizes.len());
            prop_assert!(solved.iter().all(|&d| d >= 1 && d <= max_batch),
                "shards {}: {:?} outside [1, {}]", shards, solved, max_batch);
            if let Some(prev) = &previous {
                for (s, p) in solved.iter().zip(prev) {
                    prop_assert!(s >= p,
                        "more shards shrank a batch: {:?} after {:?}", solved, prev);
                }
            }
            previous = Some(solved);
        }
    }

    /// The partitioned-exchange makespan term: the activation collective rides the
    /// critical segment, so both schedules pay exactly `τ · exchange` over the
    /// exchange-free round, pipelining still never exceeds the barrier sum, and no
    /// schedule beats the serial exchange strand itself.
    #[test]
    fn partitioned_exchange_makespan_bounds(
        iter_durations in prop::collection::vec(0.01f64..5.0, 1..8),
        tau in 1usize..10,
        raw_ingress in prop::collection::vec(0.0f64..2.0, 1..6),
        raw_critical in prop::collection::vec(0.0f64..1.5, 1..6),
        raw_overlap in prop::collection::vec(0.0f64..1.5, 1..6),
        sync in 0.0f64..2.0,
        exchange in 0.0f64..1.0,
    ) {
        let totals: Vec<f64> = iter_durations.iter().map(|d| d * tau as f64).collect();
        let shards = raw_ingress.len().min(raw_critical.len()).min(raw_overlap.len());
        let ingress: Vec<f64> = raw_ingress[..shards].to_vec();
        let critical: Vec<f64> = raw_critical[..shards].to_vec();
        let overlap: Vec<f64> = raw_overlap[..shards].to_vec();
        let base = RoundTiming::with_sharded_stages(
            totals.clone(), sync, tau, ingress.clone(), critical.clone(), overlap.clone(), 0.0);
        let exchanged = RoundTiming::with_sharded_stages(
            totals, sync, tau, ingress.clone(), critical.clone(), overlap, 0.0)
            .with_activation_exchange(exchange);

        let barrier = exchanged.barrier_completion_time();
        let pipelined = exchanged.pipelined_completion_time();
        prop_assert!(pipelined <= barrier + 1e-9, "pipelined {} exceeds barrier {}", pipelined, barrier);
        // The collective gates dispatch in every iteration of both schedules.
        let tau_f = tau as f64;
        prop_assert!((barrier - base.barrier_completion_time() - tau_f * exchange).abs() < 1e-9);
        prop_assert!((pipelined - base.pipelined_completion_time() - tau_f * exchange).abs() < 1e-9);
        // No schedule beats the serial exchange strand or any shard's critical strand.
        prop_assert!(pipelined + 1e-9 >= tau_f * exchange);
        for s in 0..shards {
            prop_assert!(pipelined + 1e-9 >= tau_f * (critical[s] + exchange));
            prop_assert!(barrier + 1e-9 >= tau_f * (ingress[s] + critical[s] + exchange));
        }
    }

    /// The bounded-staleness async makespan: equals the pipelined makespan exactly at
    /// k = 0, never exceeds it (hence never the barrier sum) for any k, is monotone
    /// nonincreasing in k, never hides more than the round-boundary work (bottom sync
    /// overhead + cross-shard sync), and never beats the slowest worker strand — the
    /// version window can only hide boundary work behind next-round iterations, not
    /// delete compute.
    #[test]
    fn async_makespan_bounds(
        iter_durations in prop::collection::vec(0.01f64..5.0, 1..8),
        tau in 1usize..10,
        raw_ingress in prop::collection::vec(0.0f64..2.0, 1..6),
        raw_critical in prop::collection::vec(0.0f64..1.5, 1..6),
        raw_overlap in prop::collection::vec(0.0f64..1.5, 1..6),
        sync in 0.0f64..2.0,
        cross_sync in 0.0f64..1.0,
        staleness in 0usize..8,
    ) {
        let totals: Vec<f64> = iter_durations.iter().map(|d| d * tau as f64).collect();
        let shards = raw_ingress.len().min(raw_critical.len()).min(raw_overlap.len());
        let timing = RoundTiming::with_sharded_stages(
            totals, sync, tau,
            raw_ingress[..shards].to_vec(),
            raw_critical[..shards].to_vec(),
            raw_overlap[..shards].to_vec(),
            cross_sync);
        let barrier = timing.barrier_completion_time();
        let pipelined = timing.pipelined_completion_time();
        let async_t = timing.async_completion_time(staleness);

        prop_assert_eq!(timing.async_completion_time(0), pipelined);
        prop_assert!(async_t <= pipelined + 1e-9, "async {} exceeds pipelined {}", async_t, pipelined);
        prop_assert!(async_t <= barrier + 1e-9, "async {} exceeds barrier {}", async_t, barrier);
        prop_assert!(async_t + 1e-9 >= pipelined - (sync + cross_sync),
            "async {} hides more than the boundary work {}", async_t, sync + cross_sync);
        prop_assert!(async_t + 1e-9 >= timing.barrier_time(),
            "async {} beats the slowest worker strand {}", async_t, timing.barrier_time());
        let mut prev = pipelined;
        for k in 1..=staleness {
            let cur = timing.async_completion_time(k);
            prop_assert!(cur <= prev + 1e-12, "async makespan not monotone at k={}", k);
            prev = cur;
        }
    }

    /// The streaming-aggregation makespan of an FL round never exceeds the barrier sum and
    /// never beats the last arrival plus one fold (the fold of the slowest worker's state
    /// can never be hidden).
    #[test]
    fn aggregate_round_pipelined_makespan_bounds(
        durations in prop::collection::vec(0.01f64..20.0, 1..12),
        per_state in 0.0f64..2.0,
        sync in 0.0f64..3.0,
    ) {
        let n = durations.len() as f64;
        let timing = RoundTiming::with_aggregate_stage(durations, sync, per_state);
        let barrier = timing.barrier_completion_time();
        let pipelined = timing.pipelined_completion_time();
        prop_assert!(pipelined <= barrier + 1e-9, "pipelined {} exceeds barrier {}", pipelined, barrier);
        prop_assert!(pipelined + 1e-9 >= timing.barrier_time() + per_state + sync);
        prop_assert!(pipelined + 1e-9 >= n * per_state);
        prop_assert!((barrier - (timing.barrier_time() + n * per_state + sync)).abs() < 1e-9);
    }

    /// Evaluation subsampling always yields the requested number of distinct, in-range
    /// indices and is deterministic in the seed.
    #[test]
    fn eval_subsample_invariants(len in 1usize..2000, frac in 0.05f64..2.0, seed in 0u32..1000) {
        let n = ((len as f64 * frac) as usize).max(1);
        let sample = eval_subsample(len, n, seed as u64);
        prop_assert_eq!(sample.len(), n.min(len));
        prop_assert!(sample.iter().all(|&i| i < len));
        let mut unique = sample.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), sample.len(), "subsample repeated an index");
        prop_assert_eq!(&sample, &eval_subsample(len, n, seed as u64));
    }

    /// A near-zero-capacity worker (per-sample cost orders of magnitude above the rest)
    /// still receives at least one sample, and never more than anyone faster.
    #[test]
    fn zero_capacity_worker_keeps_minimum_batch(
        costs in prop::collection::vec(0.01f64..0.1, 1..10),
        straggler_factor in 1_000.0f64..1_000_000.0,
        max_batch in 1usize..64,
    ) {
        let mut with_straggler = costs.clone();
        with_straggler.push(costs[0] * straggler_factor);
        let assignment = regulate_batch_sizes(&with_straggler, max_batch);
        let straggler = with_straggler.len() - 1;
        prop_assert!(assignment.batch_sizes[straggler] >= 1);
        for (i, &d) in assignment.batch_sizes.iter().enumerate() {
            prop_assert!(d >= assignment.batch_sizes[straggler] || i == straggler);
        }
    }
}

#[test]
fn rescale_single_worker_tracks_budget_exactly() {
    // One worker, byte-for-byte: the scaled batch is the largest one under the budget.
    let scaled = rescale_to_budget(&[10], 100.0, 450.0);
    assert_eq!(scaled, vec![4]);
    // Budget far above the current batch grows it proportionally.
    let grown = rescale_to_budget(&[4], 100.0, 1600.0);
    assert_eq!(grown.len(), 1);
    assert!(
        grown[0] >= 4,
        "budget headroom should never shrink the batch"
    );
}

#[test]
fn version_lag_stays_bounded_under_cohort_churn() {
    // Workers drop in and out of each shard's route group every round (genetic selection
    // re-picks the cohort under heavy non-IID) and the periodic cross-shard sync clears
    // the version rings mid-run, so the ring length keeps being rebuilt from zero. The
    // recorded per-round lag histogram must still have exactly k+1 buckets — a lag beyond
    // the bound has nowhere to be counted, and the engine asserts the bound on every step
    // under debug_assertions — and the run must genuinely exercise positive lags.
    for k in [1usize, 4] {
        let mut c = RunConfig::quick(DatasetKind::Har, 10.0, 77);
        c.num_workers = 8;
        c.rounds = 4;
        c.local_iterations = Some(3);
        c.participants_per_round = 4;
        c.train_size = Some(400);
        c.eval_every = 4;
        c.eval_samples = 80;
        c.num_servers = 2;
        c.sync_every = 2;
        c.staleness = k;
        let result = run(Approach::MergeSfl, &c);
        let mut lagged_steps = 0usize;
        for r in result.records.iter().filter(|r| r.participants > 0) {
            assert_eq!(
                r.staleness, k,
                "round {} lost the configured staleness",
                r.round
            );
            assert_eq!(
                r.version_lag.len(),
                k + 1,
                "round {}: lag histogram must have k+1 buckets",
                r.round
            );
            let steps: usize = r.version_lag.iter().sum();
            assert!(steps > 0, "round {} recorded no top-model steps", r.round);
            lagged_steps += r.version_lag.iter().skip(1).sum::<usize>();
        }
        assert!(
            lagged_steps > 0,
            "staleness {k} never produced a positive version lag"
        );
    }
}
