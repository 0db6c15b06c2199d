//! Simulated time accounting.
//!
//! The paper's timing model (Section IV-A): a worker `i` assigned batch size `d_i` in round
//! `h` spends `t_i^h = τ · d_i · (µ_i^h + β_i^h)` on local iterations, the round completes
//! when the slowest participating worker finishes, and the average waiting time is
//! `W^h = (1/R) Σ (t^h − t_i^h)`. [`SimClock`] accumulates completion times across rounds so
//! experiments can report time-to-accuracy on the simulated hardware.
//!
//! On top of the barrier model, [`StageModel`] breaks a round into its pipeline stages so
//! the makespan of the *pipelined* schedule can be accounted: in a split round the server's
//! top-model step has a critical part (merge + forward + backward, which gates gradient
//! dispatch) and an overlappable part (optimizer update + bookkeeping) that runs while the
//! workers are already on the next iteration; in a full-model FL round the server folds
//! each arriving model into the aggregate while slower workers are still training.

use serde::{Deserialize, Serialize};

/// Per-stage breakdown of a round, enabling overlap-aware (pipelined) makespan accounting.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum StageModel {
    /// A split-learning round of `iterations` iterations across one or more top-model
    /// shards. Each iteration is a worker stage (bottom forward + last-hop
    /// feature/gradient transfer + bottom backward; the slowest selected worker gates
    /// it), then — **independently per shard, on that shard's own machine and ingress
    /// link** — the drain of the shard's routed uploads (`Σ_{i∈shard} d_i · c / B^h`,
    /// the bandwidth the paper's Eq. 10 budgets per PS instance), a pre-dispatch server
    /// part (`shard_critical`) and an overlappable server part (`shard_overlap`). In the
    /// barrier schedule worker stage and the slowest shard's full server segment
    /// serialise every iteration; pipelined, each shard's ingress drain, overlappable
    /// tail and the workers' next iteration run concurrently (NIC, GPU and workers are
    /// independent resources) and shards run concurrently with each other. A
    /// `cross_sync` term charges the periodic cross-shard top-model synchronisation of
    /// the replicated topology at the end of the round in both schedules.
    SplitRound {
        /// Local updating frequency τ of the round.
        iterations: usize,
        /// Per-shard PS-ingress drain of one iteration's routed uploads, seconds.
        shard_ingress: Vec<f64>,
        /// Per-shard pre-dispatch server time per iteration (merge + top fwd/bwd), seconds.
        shard_critical: Vec<f64>,
        /// Per-shard overlappable server time per iteration (optimizer step), seconds.
        shard_overlap: Vec<f64>,
        /// Cross-shard top-model sync charged once at the end of the round, seconds
        /// (zero for a single shard, a round where no sync is due, or the
        /// output-partitioned topology, which never syncs state).
        cross_sync: f64,
        /// Per-iteration activation exchange of the output-partitioned topology
        /// (feature all-gather + split-gradient all-reduce over the server
        /// interconnect), seconds. The collective gates gradient dispatch, so it is
        /// charged `iterations` times on the critical path of **both** schedules —
        /// this is the term that replaces `cross_sync` when shards exchange partial
        /// activations instead of whole-model state. Zero under replication.
        exchange: f64,
    },
    /// A full-model FL round: workers train locally and upload; the server folds each
    /// arriving model state into the aggregate, `per_state_seconds` per worker. Pipelined,
    /// the folds of early arrivals hide behind the stragglers' training time.
    AggregateRound {
        /// Server time to fold one worker's model state into the aggregate, seconds.
        per_state_seconds: f64,
    },
}

/// Timing of one communication round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundTiming {
    /// Duration of every participating worker (seconds).
    pub worker_durations: Vec<f64>,
    /// Extra per-round overhead that does not overlap with computation, e.g. model
    /// broadcast and aggregation transfer time (seconds).
    pub sync_overhead: f64,
    /// Per-stage breakdown for overlap-aware accounting; `None` falls back to the plain
    /// barrier model (no server stage charged).
    pub stages: Option<StageModel>,
}

impl RoundTiming {
    /// Creates the timing record for a round (barrier model, no server stage).
    pub fn new(worker_durations: Vec<f64>, sync_overhead: f64) -> Self {
        assert!(
            !worker_durations.is_empty(),
            "RoundTiming: no participating workers"
        );
        assert!(
            worker_durations.iter().all(|&t| t.is_finite() && t >= 0.0),
            "RoundTiming: invalid worker duration"
        );
        assert!(sync_overhead >= 0.0, "RoundTiming: negative overhead");
        Self {
            worker_durations,
            sync_overhead,
            stages: None,
        }
    }

    /// Creates the timing record of a split round whose server stage is partitioned
    /// across parameter-server shards, each with its own per-iteration ingress drain and
    /// critical/overlappable server parts, plus the round's cross-shard sync cost.
    #[allow(clippy::too_many_arguments)]
    pub fn with_sharded_stages(
        worker_durations: Vec<f64>,
        sync_overhead: f64,
        iterations: usize,
        shard_ingress: Vec<f64>,
        shard_critical: Vec<f64>,
        shard_overlap: Vec<f64>,
        cross_sync: f64,
    ) -> Self {
        assert!(iterations > 0, "RoundTiming: need at least one iteration");
        assert!(
            !shard_ingress.is_empty(),
            "RoundTiming: need at least one shard"
        );
        assert!(
            shard_ingress.len() == shard_critical.len()
                && shard_ingress.len() == shard_overlap.len(),
            "RoundTiming: shard stage vectors must align"
        );
        let valid = |v: &[f64]| v.iter().all(|&t| t.is_finite() && t >= 0.0);
        assert!(
            valid(&shard_ingress)
                && valid(&shard_critical)
                && valid(&shard_overlap)
                && cross_sync.is_finite()
                && cross_sync >= 0.0,
            "RoundTiming: invalid stage duration"
        );
        let mut timing = Self::new(worker_durations, sync_overhead);
        timing.stages = Some(StageModel::SplitRound {
            iterations,
            shard_ingress,
            shard_critical,
            shard_overlap,
            cross_sync,
            exchange: 0.0,
        });
        timing
    }

    /// Sets the per-iteration activation-exchange cost of the output-partitioned
    /// topology on a split-round stage model. Panics on a non-split stage breakdown.
    pub fn with_activation_exchange(mut self, exchange_per_iteration: f64) -> Self {
        assert!(
            exchange_per_iteration.is_finite() && exchange_per_iteration >= 0.0,
            "RoundTiming: invalid exchange duration"
        );
        match &mut self.stages {
            Some(StageModel::SplitRound { exchange, .. }) => *exchange = exchange_per_iteration,
            _ => panic!("with_activation_exchange: requires a split-round stage model"),
        }
        self
    }

    /// Creates the timing record of a full-model FL round with a streaming-aggregation
    /// stage breakdown.
    pub fn with_aggregate_stage(
        worker_durations: Vec<f64>,
        sync_overhead: f64,
        per_state_seconds: f64,
    ) -> Self {
        assert!(
            per_state_seconds.is_finite() && per_state_seconds >= 0.0,
            "RoundTiming: invalid aggregation duration"
        );
        let mut timing = Self::new(worker_durations, sync_overhead);
        timing.stages = Some(StageModel::AggregateRound { per_state_seconds });
        timing
    }

    /// Duration of the slowest worker (the synchronisation barrier), excluding overhead.
    pub fn barrier_time(&self) -> f64 {
        self.worker_durations.iter().cloned().fold(0.0, f64::max)
    }

    /// Wall-clock completion time under the **barrier** schedule: every stage of every
    /// iteration strictly serialised — the slowest worker, then the full server stage,
    /// iteration after iteration, plus synchronisation overhead.
    pub fn barrier_completion_time(&self) -> f64 {
        let base = self.barrier_time() + self.sync_overhead;
        match &self.stages {
            None => base,
            Some(StageModel::SplitRound {
                iterations,
                shard_ingress,
                shard_critical,
                shard_overlap,
                cross_sync,
                exchange,
            }) => {
                // Shards serve their routed uploads concurrently on separate machines
                // and links, so each iteration's server segment is gated by the slowest
                // shard plus the iteration's activation-exchange collective (if the
                // topology exchanges partials); the cross-shard sync serialises at the
                // round boundary.
                let slowest_shard = shard_ingress
                    .iter()
                    .zip(shard_critical)
                    .zip(shard_overlap)
                    .map(|((i, c), o)| (i + c) + o)
                    .fold(0.0, f64::max);
                base + *iterations as f64 * (slowest_shard + exchange) + cross_sync
            }
            Some(StageModel::AggregateRound { per_state_seconds }) => {
                base + self.worker_durations.len() as f64 * per_state_seconds
            }
        }
    }

    /// Wall-clock completion time under the **pipelined** schedule, where iteration `k+1`
    /// worker compute overlaps iteration `k` server compute (split rounds) or aggregation
    /// folds overlap straggler training (FL rounds). Falls back to the barrier makespan
    /// when no stage breakdown is attached.
    pub fn pipelined_completion_time(&self) -> f64 {
        match &self.stages {
            None => self.barrier_completion_time(),
            Some(StageModel::SplitRound {
                iterations,
                shard_ingress,
                shard_critical,
                shard_overlap,
                cross_sync,
                exchange,
            }) => {
                let tau = *iterations as f64;
                // Slowest worker's per-iteration duration: the worker stage of one slot.
                let a = self.barrier_time() / tau;
                // Critical path per shard: the first iteration fills the pipe (worker
                // stage, the shard's ingress drain, its critical server part). Every
                // further iteration costs the shard's critical part plus the longest of
                // the three stages that overlap each other — the workers' compute, the
                // shard's NIC draining early uploads, and its overlappable tail. The
                // last overlap part drains the pipe. Shards pipeline independently and
                // concurrently, so the round is gated by the slowest shard's strand;
                // the cross-shard sync serialises at the round boundary. The
                // activation-exchange collective of the partitioned topology gates
                // every iteration's dispatch (it synchronises all shards), so it rides
                // the critical segment and cannot be hidden by the pipeline.
                let slowest_strand = shard_ingress
                    .iter()
                    .zip(shard_critical)
                    .zip(shard_overlap)
                    .map(|((&ingress, &server_critical), &server_overlap)| {
                        a + ingress
                            + tau * (server_critical + exchange)
                            + (tau - 1.0) * a.max(ingress).max(server_overlap)
                            + server_overlap
                    })
                    .fold(0.0, f64::max);
                slowest_strand + self.sync_overhead + cross_sync
            }
            Some(StageModel::AggregateRound { per_state_seconds }) => {
                // States are folded in arrival order; each fold starts when both the state
                // has arrived and the previous fold has finished.
                let mut arrivals = self.worker_durations.clone();
                arrivals.sort_by(|x, y| x.partial_cmp(y).expect("finite durations"));
                let mut finish: f64 = 0.0;
                for t in arrivals {
                    finish = finish.max(t) + per_state_seconds;
                }
                finish + self.sync_overhead
            }
        }
    }

    /// Wall-clock completion time under the **bounded-staleness async** schedule: on top
    /// of the pipelined overlap, round `h+1`'s planning/broadcast and the first
    /// iterations of its worker stage may proceed on top-model state up to `staleness`
    /// versions old, so the round-boundary work (bottom sync overhead plus any
    /// cross-shard top sync) hides behind the next round's first `staleness` iterations
    /// instead of serialising at the boundary. The hidden amount is capped both by the
    /// boundary work itself and by the `staleness · a` window the version bound opens
    /// (`a` = the slowest worker's per-iteration stage). At `staleness = 0` this *is*
    /// the pipelined makespan; FL aggregate rounds have no version ring and are
    /// unchanged.
    pub fn async_completion_time(&self, staleness: usize) -> f64 {
        let pipelined = self.pipelined_completion_time();
        if staleness == 0 {
            return pipelined;
        }
        match &self.stages {
            Some(StageModel::SplitRound {
                iterations,
                cross_sync,
                ..
            }) => {
                let a = self.barrier_time() / *iterations as f64;
                let boundary = self.sync_overhead + cross_sync;
                let window = staleness as f64 * a;
                pipelined - boundary.min(window)
            }
            _ => pipelined,
        }
    }

    /// Average waiting time across the participating workers (paper Eq. 8). Waiting is a
    /// property of worker heterogeneity and is the same under both schedules: the merge
    /// still needs every selected worker's upload each iteration.
    pub fn average_waiting_time(&self) -> f64 {
        let barrier = self.barrier_time();
        let total: f64 = self.worker_durations.iter().map(|t| barrier - t).sum();
        total / self.worker_durations.len() as f64
    }
}

/// Computes a worker's round duration `t_i^h = τ · d_i · (µ_i^h + β_i^h)` (paper Eq. 7).
pub fn worker_duration(
    local_iterations: usize,
    batch_size: usize,
    compute_time_per_sample: f64,
    transfer_time_per_sample: f64,
) -> f64 {
    local_iterations as f64
        * batch_size as f64
        * (compute_time_per_sample + transfer_time_per_sample)
}

/// Accumulates simulated time across communication rounds.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SimClock {
    elapsed: f64,
    rounds: usize,
    total_waiting: f64,
    pipelined: bool,
    staleness: usize,
}

impl SimClock {
    /// Creates a clock at time zero charging the chosen schedule, including the
    /// bounded-staleness async one: with `pipelined` set and `staleness > 0`, rounds
    /// advance by [`RoundTiming::async_completion_time`]. A positive staleness without
    /// pipelining still charges the barrier makespan — the version ring relaxes *which
    /// state* steps read, but only the pipelined loop exposes boundary work to hide.
    pub fn with_schedule(pipelined: bool, staleness: usize) -> Self {
        Self {
            pipelined,
            staleness,
            ..Self::default()
        }
    }

    /// Advances the clock by one round and returns the round's completion time.
    pub fn advance_round(&mut self, timing: &RoundTiming) -> f64 {
        let completion = if self.pipelined && self.staleness > 0 {
            timing.async_completion_time(self.staleness)
        } else if self.pipelined {
            timing.pipelined_completion_time()
        } else {
            timing.barrier_completion_time()
        };
        self.elapsed += completion;
        self.total_waiting += timing.average_waiting_time();
        self.rounds += 1;
        completion
    }

    /// Advances the clock by an arbitrary non-negative amount (e.g. an initial broadcast).
    pub fn advance_by(&mut self, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "SimClock: invalid advance"
        );
        self.elapsed += seconds;
    }

    /// Total simulated seconds elapsed.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed
    }

    /// Number of rounds advanced so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Mean of the per-round average waiting times (the series of the paper's Fig. 9).
    pub fn mean_waiting_time(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.total_waiting / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_duration_formula() {
        // τ=10, d=8, µ=0.05, β=0.01 → 10*8*0.06 = 4.8 s
        let t = worker_duration(10, 8, 0.05, 0.01);
        assert!((t - 4.8).abs() < 1e-9);
    }

    #[test]
    fn barrier_is_slowest_worker() {
        let timing = RoundTiming::new(vec![1.0, 5.0, 3.0], 0.5);
        assert_eq!(timing.barrier_time(), 5.0);
        assert_eq!(timing.barrier_completion_time(), 5.5);
        // Without stages the pipelined makespan degenerates to the barrier one.
        assert_eq!(timing.pipelined_completion_time(), 5.5);
    }

    #[test]
    fn waiting_time_matches_manual_computation() {
        let timing = RoundTiming::new(vec![2.0, 4.0, 6.0], 0.0);
        // Waits: 4 + 2 + 0 = 6, average 2.
        assert!((timing.average_waiting_time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_durations_have_zero_waiting_time() {
        let timing = RoundTiming::new(vec![3.0; 5], 1.0);
        assert_eq!(timing.average_waiting_time(), 0.0);
    }

    #[test]
    fn split_stage_makespans_match_manual_computation() {
        // τ=4, per-iteration worker stages {0.5, 1.0} (totals {2, 4}), 0.8 s ingress
        // drain, server 0.3 critical + 0.1 overlap per iteration, 0.2 s sync.
        let timing = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.8],
            vec![0.3],
            vec![0.1],
            0.0,
        );
        // Barrier: 4 + 4·(0.8+0.3+0.1) + 0.2 = 9.0.
        assert!((timing.barrier_completion_time() - 9.0).abs() < 1e-9);
        // Pipelined: 1.0 + 0.8 + 4·0.3 + 3·max(1.0, 0.8, 0.1) + 0.1 + 0.2 = 6.3.
        assert!((timing.pipelined_completion_time() - 6.3).abs() < 1e-9);
        // The saving is exactly (τ−1)·(a + I + s_o − max(a, I, s_o)) = 3·0.9.
        let saved = timing.barrier_completion_time() - timing.pipelined_completion_time();
        assert!((saved - 2.7).abs() < 1e-9);
    }

    #[test]
    fn split_stage_pipelining_never_loses() {
        let timing = RoundTiming::with_sharded_stages(
            vec![1.5, 0.5, 3.0],
            0.4,
            6,
            vec![0.7],
            vec![0.2],
            vec![0.35],
            0.0,
        );
        assert!(timing.pipelined_completion_time() <= timing.barrier_completion_time());
        // And never beats the slowest single stage strand.
        assert!(timing.pipelined_completion_time() >= timing.barrier_time());
        assert!(timing.pipelined_completion_time() >= 6.0 * 0.7);
        assert!(timing.pipelined_completion_time() >= 6.0 * (0.2 + 0.35));
    }

    #[test]
    fn single_iteration_split_round_has_no_overlap_window() {
        // τ = 1: nothing to pipeline; the two schedules agree exactly.
        let timing = RoundTiming::with_sharded_stages(
            vec![2.5, 1.0],
            0.3,
            1,
            vec![0.6],
            vec![0.2],
            vec![0.4],
            0.0,
        );
        assert!(
            (timing.pipelined_completion_time() - timing.barrier_completion_time()).abs() < 1e-12
        );
    }

    #[test]
    fn sharded_makespans_match_manual_computation() {
        // τ=4, worker totals {2, 4} (slowest per-iteration stage a = 1.0); two shards:
        // shard 0 gets ingress 0.5, crit 0.2, overlap 0.06; shard 1 gets 0.3/0.1/0.04.
        // Cross-shard sync 0.15 s, plus 0.2 s bottom-model sync overhead.
        let timing = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.5, 0.3],
            vec![0.2, 0.1],
            vec![0.06, 0.04],
            0.15,
        );
        // Barrier: 4 + 4·max(0.76, 0.44) + 0.2 + 0.15 = 7.39.
        assert!((timing.barrier_completion_time() - 7.39).abs() < 1e-9);
        // Pipelined strands: shard0 = 1.0 + 0.5 + 4·0.2 + 3·max(1.0, 0.5, 0.06) + 0.06
        // = 5.36; shard1 = 1.0 + 0.3 + 4·0.1 + 3·1.0 + 0.04 = 4.74. Max + 0.2 + 0.15.
        assert!((timing.pipelined_completion_time() - 5.71).abs() < 1e-9);
    }

    #[test]
    fn splitting_the_server_stage_across_shards_shrinks_both_makespans() {
        // The same total server load, once on a single PS and once split across four
        // shards (each with its own ingress link and GPU): both makespans must drop,
        // strictly for the pipelined schedule as long as the shards see real load.
        let single = RoundTiming::with_sharded_stages(
            vec![3.0, 6.0],
            0.4,
            6,
            vec![1.2],
            vec![0.8],
            vec![0.4],
            0.0,
        );
        let sharded = RoundTiming::with_sharded_stages(
            vec![3.0, 6.0],
            0.4,
            6,
            vec![0.3; 4],
            vec![0.2; 4],
            vec![0.1; 4],
            0.0,
        );
        assert!(sharded.barrier_completion_time() < single.barrier_completion_time());
        assert!(sharded.pipelined_completion_time() < single.pipelined_completion_time());
        // Waiting time is a property of worker heterogeneity, not of the server layout.
        assert_eq!(
            sharded.average_waiting_time(),
            single.average_waiting_time()
        );
    }

    #[test]
    fn activation_exchange_charges_every_iteration_in_both_schedules() {
        // τ=4, two shards; 0.05 s exchange per iteration. The collective gates dispatch,
        // so both schedules pay exactly τ·exchange more than the exchange-free round.
        let base = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.5, 0.3],
            vec![0.2, 0.1],
            vec![0.06, 0.04],
            0.0,
        );
        let exchanged = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.5, 0.3],
            vec![0.2, 0.1],
            vec![0.06, 0.04],
            0.0,
        )
        .with_activation_exchange(0.05);
        let barrier_delta = exchanged.barrier_completion_time() - base.barrier_completion_time();
        let pipelined_delta =
            exchanged.pipelined_completion_time() - base.pipelined_completion_time();
        assert!((barrier_delta - 0.2).abs() < 1e-12);
        assert!((pipelined_delta - 0.2).abs() < 1e-12);
        // Pipelining still never loses with the exchange on the critical segment.
        assert!(exchanged.pipelined_completion_time() <= exchanged.barrier_completion_time());
    }

    #[test]
    fn partitioned_shards_beat_the_single_server_despite_the_exchange() {
        // The acceptance shape of the output-partitioned topology: the same total server
        // load split across 4 slices (each ingress link carrying a quarter stripe, each
        // instance computing a quarter step) beats the single PS in both schedules as
        // long as the per-iteration exchange stays below the per-iteration saving.
        let single = RoundTiming::with_sharded_stages(
            vec![3.0, 6.0],
            0.4,
            6,
            vec![1.2],
            vec![0.8],
            vec![0.4],
            0.0,
        );
        let partitioned = RoundTiming::with_sharded_stages(
            vec![3.0, 6.0],
            0.4,
            6,
            vec![0.3; 4],
            vec![0.2; 4],
            vec![0.1; 4],
            0.0,
        )
        .with_activation_exchange(0.25);
        assert!(partitioned.barrier_completion_time() < single.barrier_completion_time());
        assert!(partitioned.pipelined_completion_time() < single.pipelined_completion_time());
    }

    #[test]
    #[should_panic(expected = "requires a split-round stage model")]
    fn activation_exchange_rejects_non_split_rounds() {
        let _ =
            RoundTiming::with_aggregate_stage(vec![1.0], 0.0, 0.1).with_activation_exchange(0.1);
    }

    #[test]
    fn cross_shard_sync_charges_both_schedules_equally() {
        let base = RoundTiming::with_sharded_stages(
            vec![2.0],
            0.0,
            2,
            vec![0.1, 0.1],
            vec![0.1, 0.1],
            vec![0.1, 0.1],
            0.0,
        );
        let synced = RoundTiming::with_sharded_stages(
            vec![2.0],
            0.0,
            2,
            vec![0.1, 0.1],
            vec![0.1, 0.1],
            vec![0.1, 0.1],
            0.5,
        );
        let barrier_delta = synced.barrier_completion_time() - base.barrier_completion_time();
        let pipelined_delta = synced.pipelined_completion_time() - base.pipelined_completion_time();
        assert!((barrier_delta - 0.5).abs() < 1e-12);
        assert!((pipelined_delta - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shard stage vectors must align")]
    fn rejects_misaligned_shard_vectors() {
        let _ = RoundTiming::with_sharded_stages(
            vec![1.0],
            0.0,
            1,
            vec![0.1, 0.2],
            vec![0.1],
            vec![0.1, 0.2],
            0.0,
        );
    }

    #[test]
    fn aggregate_stage_folds_hide_behind_stragglers() {
        // Arrivals 1, 2, 10; 1 s per fold. Folds of the first two states finish at 2 and 3,
        // the straggler arrives at 10 and its fold ends at 11; the barrier schedule would
        // serialise all three folds after the barrier: 10 + 3 = 13.
        let timing = RoundTiming::with_aggregate_stage(vec![10.0, 1.0, 2.0], 0.0, 1.0);
        assert!((timing.pipelined_completion_time() - 11.0).abs() < 1e-9);
        assert!((timing.barrier_completion_time() - 13.0).abs() < 1e-9);
    }

    #[test]
    fn async_makespan_matches_manual_computation() {
        // τ=4 (a = 1.0), boundary work = 0.2 sync overhead + 0.15 cross-shard sync.
        let timing = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.5, 0.3],
            vec![0.2, 0.1],
            vec![0.06, 0.04],
            0.15,
        );
        // Pipelined makespan is 5.71 (see sharded_makespans_match_manual_computation).
        // k=1 opens a 1.0 s window, more than the 0.35 s boundary: all of it hides.
        assert!((timing.async_completion_time(1) - (5.71 - 0.35)).abs() < 1e-9);
        // Larger k cannot hide more than the boundary work itself.
        assert_eq!(
            timing.async_completion_time(1),
            timing.async_completion_time(4)
        );
    }

    #[test]
    fn async_makespan_at_zero_staleness_is_the_pipelined_makespan() {
        let timing = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.8],
            vec![0.3],
            vec![0.1],
            0.0,
        );
        assert_eq!(
            timing.async_completion_time(0),
            timing.pipelined_completion_time()
        );
    }

    #[test]
    fn async_makespan_window_caps_the_hidden_boundary_work() {
        // Huge boundary work (3.0 s) against a 0.5 s per-iteration worker stage: k=2
        // hides only 2·0.5 = 1.0 s of it.
        let timing = RoundTiming::with_sharded_stages(
            vec![1.0, 2.0],
            2.0,
            4,
            vec![0.1],
            vec![0.1],
            vec![0.1],
            0.0,
        );
        assert!(
            (timing.pipelined_completion_time() - timing.async_completion_time(2) - 1.0).abs()
                < 1e-9
        );
        // Monotone nonincreasing in k, floored at pipelined − boundary.
        let mut prev = timing.async_completion_time(0);
        for k in 1..8 {
            let cur = timing.async_completion_time(k);
            assert!(cur <= prev + 1e-12);
            assert!(cur >= timing.pipelined_completion_time() - 2.0 - 1e-12);
            prev = cur;
        }
    }

    #[test]
    fn async_makespan_leaves_aggregate_rounds_unchanged() {
        let timing = RoundTiming::with_aggregate_stage(vec![10.0, 1.0, 2.0], 0.5, 1.0);
        assert_eq!(
            timing.async_completion_time(4),
            timing.pipelined_completion_time()
        );
    }

    #[test]
    fn stale_clock_advances_by_the_async_makespan_only_when_pipelined() {
        let timing = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.5, 0.3],
            vec![0.2, 0.1],
            vec![0.06, 0.04],
            0.15,
        );
        let mut barrier_stale = SimClock::with_schedule(false, 2);
        let mut pipelined_plain = SimClock::with_schedule(true, 0);
        let mut pipelined_stale = SimClock::with_schedule(true, 2);
        barrier_stale.advance_round(&timing);
        pipelined_plain.advance_round(&timing);
        pipelined_stale.advance_round(&timing);
        // Staleness without pipelining charges the barrier makespan.
        assert_eq!(
            barrier_stale.elapsed_seconds(),
            timing.barrier_completion_time()
        );
        assert_eq!(
            pipelined_plain.elapsed_seconds(),
            timing.pipelined_completion_time()
        );
        assert_eq!(
            pipelined_stale.elapsed_seconds(),
            timing.async_completion_time(2)
        );
        assert!(pipelined_stale.elapsed_seconds() < pipelined_plain.elapsed_seconds());
        // Waiting time is schedule-independent across all three.
        assert_eq!(
            barrier_stale.mean_waiting_time(),
            pipelined_stale.mean_waiting_time()
        );
    }

    #[test]
    fn clock_accumulates_rounds() {
        let mut clock = SimClock::default();
        clock.advance_round(&RoundTiming::new(vec![1.0, 2.0], 0.0));
        clock.advance_round(&RoundTiming::new(vec![4.0, 4.0], 1.0));
        assert_eq!(clock.rounds(), 2);
        assert!((clock.elapsed_seconds() - 7.0).abs() < 1e-9);
        // Waiting: round 1 avg 0.5, round 2 avg 0 → mean 0.25.
        assert!((clock.mean_waiting_time() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn pipelined_clock_advances_by_the_overlap_aware_makespan() {
        let timing = RoundTiming::with_sharded_stages(
            vec![2.0, 4.0],
            0.2,
            4,
            vec![0.8],
            vec![0.3],
            vec![0.1],
            0.0,
        );
        let mut barrier = SimClock::with_schedule(false, 0);
        let mut pipelined = SimClock::with_schedule(true, 0);
        barrier.advance_round(&timing);
        pipelined.advance_round(&timing);
        assert!(pipelined.elapsed_seconds() < barrier.elapsed_seconds());
        // Waiting time is schedule-independent.
        assert_eq!(barrier.mean_waiting_time(), pipelined.mean_waiting_time());
    }

    #[test]
    fn advance_by_adds_overhead() {
        let mut clock = SimClock::default();
        clock.advance_by(10.0);
        assert_eq!(clock.elapsed_seconds(), 10.0);
        assert_eq!(clock.rounds(), 0);
        assert_eq!(clock.mean_waiting_time(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no participating workers")]
    fn rejects_empty_round() {
        let _ = RoundTiming::new(vec![], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn rejects_zero_iteration_split_stages() {
        let _ = RoundTiming::with_sharded_stages(
            vec![1.0],
            0.0,
            0,
            vec![0.1],
            vec![0.1],
            vec![0.1],
            0.0,
        );
    }
}
