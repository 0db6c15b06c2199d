//! Run metrics: per-round records and whole-run summaries.
//!
//! These are the quantities the paper's evaluation reports: test accuracy over simulated
//! time (Figs. 6–7), time-to-accuracy, network traffic to reach a target accuracy (Fig. 8),
//! and average per-round waiting time (Fig. 9).

use crate::json;
use crate::sfl::server::ShardTopology;
use serde::{Deserialize, Serialize};

/// Per-shard slice of one round's server-side timing: how one parameter-server instance
/// spent the round on its routed share of the cohort's uploads.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardBreakdown {
    /// Shard index.
    pub shard: usize,
    /// Number of cohort members routed to this shard.
    pub participants: usize,
    /// Samples per iteration routed to this shard (its merged mini-batch size).
    pub batch: usize,
    /// Per-iteration drain of this shard's routed uploads through its ingress link, s.
    pub ingress_seconds: f64,
    /// Per-iteration pre-dispatch server time on this shard, seconds.
    pub server_critical_seconds: f64,
    /// Per-iteration overlappable server time on this shard, seconds.
    pub server_overlap_seconds: f64,
}

/// Measurements taken at the end of one communication round.
///
/// Equality compares the *trajectory* — every field except the `pool_*` gauges, which
/// read process-global pool counters and therefore depend on how warm the pool already
/// was (a second same-seed run in the same process sees higher hit rates, not a
/// different model). The determinism suite's "bit-identical traces" contract is about
/// the trajectory; the pool gauges are telemetry riding along.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Communication round index (0-based).
    pub round: usize,
    /// Simulated wall-clock time elapsed since the start of training (seconds).
    pub sim_time: f64,
    /// Test accuracy of the global model, if evaluated this round.
    pub accuracy: Option<f32>,
    /// Mean training loss observed during the round.
    pub train_loss: f32,
    /// Average waiting time of participating workers this round (seconds).
    pub avg_waiting_time: f64,
    /// Simulated round makespan under the barrier schedule (every stage serialised).
    pub round_makespan_barrier: f64,
    /// Simulated round makespan under the pipelined schedule (iteration `h+1` worker
    /// compute overlapping iteration `h` server compute). Both makespans are recorded for
    /// every round regardless of which schedule advanced the clock, so a single run can
    /// report the pipeline's win.
    pub round_makespan_pipelined: f64,
    /// Cumulative network traffic since the start of training (megabytes).
    pub traffic_mb: f64,
    /// Number of workers that participated in this round.
    pub participants: usize,
    /// Sum of the participants' batch sizes (the merged mini-batch size).
    pub total_batch: usize,
    /// KL divergence of the selected cohort's label mixture from the IID reference.
    pub cohort_kl: f32,
    /// Registered fleet size the round planned over (equals the worker count for
    /// classic fixed-cohort runs).
    pub fleet_registered: usize,
    /// Per-client registry records the planner actually touched this round — the active
    /// set of the event-driven fleet path (the whole fleet on the dense path). The
    /// scalability contract is `fleet_active ≪ fleet_registered`.
    pub fleet_active: usize,
    /// Per-shard server-side breakdown of the round (one entry per parameter-server
    /// shard the plan routed uploads to; empty for FL rounds and skipped rounds).
    pub shards: Vec<ShardBreakdown>,
    /// Server topology the round trained under (`Replicated` for FL rounds).
    pub topology: ShardTopology,
    /// Cross-shard top-model sync charged this round, seconds (0 when no sync was due,
    /// a single shard serves the round, or the topology never syncs state).
    pub cross_sync_seconds: f64,
    /// Server-interconnect bytes the output-partitioned topology exchanged this round
    /// (per-iteration feature all-gather + split-gradient all-reduce, summed over the
    /// round's iterations; 0 under replication, whose server-plane cost is the periodic
    /// sync reported in `cross_sync_seconds`).
    pub exchange_bytes: f64,
    /// Calibrated server throughput the round was charged at, GFLOP/s
    /// (`mergesfl::calibrate::ServerCostModel`; the global constant for FL rounds).
    pub server_gflops: f64,
    /// Calibrated dispatch-critical fraction of a server step the round was charged with.
    pub server_critical_fraction: f64,
    /// Bounded-staleness window `k` the round trained under (0 for the synchronous loop
    /// and FL rounds).
    pub staleness: usize,
    /// Histogram of observed top-model version lags this round (index = lag in optimizer
    /// steps, length `staleness + 1`); empty for synchronous rounds, FL rounds and
    /// skipped rounds.
    pub version_lag: Vec<usize>,
    /// Pages held by the tensor memory pool at the end of the round (cumulative: pages
    /// are never freed, only recycled). 0 for pool-disabled runs.
    pub pool_pages: usize,
    /// Bytes held by the tensor memory pool at the end of the round. 0 for pool-disabled
    /// runs.
    pub pool_bytes: usize,
    /// Fraction of this round's pool checkouts served without a heap allocation
    /// (local hit or reservoir refill). 1.0 after warmup on the steady-state path;
    /// 0.0 for pool-disabled runs.
    pub pool_hit_rate: f64,
}

impl PartialEq for RoundRecord {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the pool gauges (see the struct docs for why).
        self.round == other.round
            && self.sim_time == other.sim_time
            && self.accuracy == other.accuracy
            && self.train_loss == other.train_loss
            && self.avg_waiting_time == other.avg_waiting_time
            && self.round_makespan_barrier == other.round_makespan_barrier
            && self.round_makespan_pipelined == other.round_makespan_pipelined
            && self.traffic_mb == other.traffic_mb
            && self.participants == other.participants
            && self.total_batch == other.total_batch
            && self.cohort_kl == other.cohort_kl
            && self.fleet_registered == other.fleet_registered
            && self.fleet_active == other.fleet_active
            && self.shards == other.shards
            && self.topology == other.topology
            && self.cross_sync_seconds == other.cross_sync_seconds
            && self.exchange_bytes == other.exchange_bytes
            && self.server_gflops == other.server_gflops
            && self.server_critical_fraction == other.server_critical_fraction
            && self.staleness == other.staleness
            && self.version_lag == other.version_lag
    }
}

/// The full trace of one training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Name of the approach that produced this run (e.g. "MergeSFL").
    pub approach: String,
    /// Dataset name (e.g. "CIFAR-10").
    pub dataset: String,
    /// Non-IID level `p` of the run.
    pub non_iid_level: f32,
    /// Per-round records, in order.
    pub records: Vec<RoundRecord>,
}

impl RunResult {
    /// Creates an empty result for an approach/dataset pair.
    pub fn new(approach: &str, dataset: &str, non_iid_level: f32) -> Self {
        Self {
            approach: approach.to_string(),
            dataset: dataset.to_string(),
            non_iid_level,
            records: Vec::new(),
        }
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// The last recorded accuracy (0.0 if the model was never evaluated).
    pub fn final_accuracy(&self) -> f32 {
        self.records
            .iter()
            .rev()
            .find_map(|r| r.accuracy)
            .unwrap_or(0.0)
    }

    /// The best accuracy observed at any evaluation point.
    pub fn best_accuracy(&self) -> f32 {
        self.records
            .iter()
            .filter_map(|r| r.accuracy)
            .fold(0.0, f32::max)
    }

    /// Total simulated training time (seconds).
    pub fn total_sim_time(&self) -> f64 {
        self.records.last().map(|r| r.sim_time).unwrap_or(0.0)
    }

    /// Total network traffic (megabytes).
    pub fn total_traffic_mb(&self) -> f64 {
        self.records.last().map(|r| r.traffic_mb).unwrap_or(0.0)
    }

    /// Mean of the per-round average waiting times (seconds).
    pub fn mean_waiting_time(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.avg_waiting_time).sum::<f64>() / self.records.len() as f64
    }

    /// Sum of the per-round barrier makespans (seconds): the simulated run duration had
    /// every round been executed with the strict barrier schedule.
    pub fn total_barrier_makespan(&self) -> f64 {
        self.records.iter().map(|r| r.round_makespan_barrier).sum()
    }

    /// Sum of the per-round pipelined makespans (seconds): the simulated run duration with
    /// iteration-level overlap between worker and server compute.
    pub fn total_pipelined_makespan(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.round_makespan_pipelined)
            .sum()
    }

    /// Simulated time (seconds) at which the run first reached `target` accuracy, if ever.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
            .map(|r| r.sim_time)
    }

    /// Network traffic (megabytes) consumed when the run first reached `target` accuracy.
    pub fn traffic_to_accuracy(&self, target: f32) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.accuracy.map(|a| a >= target).unwrap_or(false))
            .map(|r| r.traffic_mb)
    }

    /// The (sim_time, accuracy) series of evaluation points — the curves of Figs. 6–7.
    pub fn accuracy_curve(&self) -> Vec<(f64, f32)> {
        self.records
            .iter()
            .filter_map(|r| r.accuracy.map(|a| (r.sim_time, a)))
            .collect()
    }

    /// Serialises the result as a JSON string (used by the bench binaries to persist runs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.records.len() * 160);
        out.push_str("{\"approach\":");
        json::write_escaped(&mut out, &self.approach);
        out.push_str(",\"dataset\":");
        json::write_escaped(&mut out, &self.dataset);
        out.push_str(",\"non_iid_level\":");
        json::write_f64(&mut out, f64::from(self.non_iid_level));
        out.push_str(",\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(out, "{{\"round\":{},\"sim_time\":", r.round);
            json::write_f64(&mut out, r.sim_time);
            out.push_str(",\"accuracy\":");
            match r.accuracy {
                Some(a) => json::write_f64(&mut out, f64::from(a)),
                None => out.push_str("null"),
            }
            out.push_str(",\"train_loss\":");
            json::write_f64(&mut out, f64::from(r.train_loss));
            out.push_str(",\"avg_waiting_time\":");
            json::write_f64(&mut out, r.avg_waiting_time);
            out.push_str(",\"round_makespan_barrier\":");
            json::write_f64(&mut out, r.round_makespan_barrier);
            out.push_str(",\"round_makespan_pipelined\":");
            json::write_f64(&mut out, r.round_makespan_pipelined);
            out.push_str(",\"traffic_mb\":");
            json::write_f64(&mut out, r.traffic_mb);
            let _ = write!(
                out,
                ",\"participants\":{},\"total_batch\":{},\"cohort_kl\":",
                r.participants, r.total_batch
            );
            json::write_f64(&mut out, f64::from(r.cohort_kl));
            let _ = write!(
                out,
                ",\"fleet_registered\":{},\"fleet_active\":{}",
                r.fleet_registered, r.fleet_active
            );
            out.push_str(",\"server_gflops\":");
            json::write_f64(&mut out, r.server_gflops);
            out.push_str(",\"server_critical_fraction\":");
            json::write_f64(&mut out, r.server_critical_fraction);
            out.push_str(",\"cross_sync_seconds\":");
            json::write_f64(&mut out, r.cross_sync_seconds);
            out.push_str(",\"topology\":");
            json::write_escaped(&mut out, r.topology.name());
            out.push_str(",\"exchange_bytes\":");
            json::write_f64(&mut out, r.exchange_bytes);
            let _ = write!(
                out,
                ",\"pool_pages\":{},\"pool_bytes\":{},\"pool_hit_rate\":",
                r.pool_pages, r.pool_bytes
            );
            json::write_f64(&mut out, r.pool_hit_rate);
            let _ = write!(out, ",\"staleness\":{},\"version_lag\":[", r.staleness);
            for (j, count) in r.version_lag.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{count}");
            }
            out.push(']');
            out.push_str(",\"shards\":[");
            for (j, s) in r.shards.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"shard\":{},\"participants\":{},\"batch\":{},\"ingress_seconds\":",
                    s.shard, s.participants, s.batch
                );
                json::write_f64(&mut out, s.ingress_seconds);
                out.push_str(",\"server_critical_seconds\":");
                json::write_f64(&mut out, s.server_critical_seconds);
                out.push_str(",\"server_overlap_seconds\":");
                json::write_f64(&mut out, s.server_overlap_seconds);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn record(round: usize, time: f64, acc: Option<f32>, traffic: f64) -> RoundRecord {
        RoundRecord {
            round,
            sim_time: time,
            accuracy: acc,
            train_loss: 1.0,
            avg_waiting_time: 2.0,
            round_makespan_barrier: 12.0,
            round_makespan_pipelined: 9.0,
            traffic_mb: traffic,
            participants: 5,
            total_batch: 40,
            cohort_kl: 0.01,
            fleet_registered: 100_000,
            fleet_active: 64,
            shards: vec![
                ShardBreakdown {
                    shard: 0,
                    participants: 3,
                    batch: 24,
                    ingress_seconds: 0.004,
                    server_critical_seconds: 0.002,
                    server_overlap_seconds: 0.001,
                },
                ShardBreakdown {
                    shard: 1,
                    participants: 2,
                    batch: 16,
                    ingress_seconds: 0.003,
                    server_critical_seconds: 0.0015,
                    server_overlap_seconds: 0.0008,
                },
            ],
            topology: if round % 2 == 1 {
                ShardTopology::OutputPartitioned
            } else {
                ShardTopology::Replicated
            },
            exchange_bytes: if round % 2 == 1 { 81_920.0 } else { 0.0 },
            cross_sync_seconds: if round % 2 == 1 { 0.006 } else { 0.0 },
            server_gflops: 450.25,
            server_critical_fraction: 0.7,
            staleness: if round % 2 == 1 { 2 } else { 0 },
            version_lag: if round % 2 == 1 {
                vec![1, 3, 12]
            } else {
                Vec::new()
            },
            pool_pages: 17,
            pool_bytes: 1_048_576,
            pool_hit_rate: 0.96875,
        }
    }

    fn sample_run() -> RunResult {
        let mut r = RunResult::new("MergeSFL", "CIFAR-10", 10.0);
        r.push(record(0, 10.0, Some(0.2), 5.0));
        r.push(record(1, 20.0, None, 10.0));
        r.push(record(2, 30.0, Some(0.5), 15.0));
        r.push(record(3, 40.0, Some(0.6), 20.0));
        r
    }

    #[test]
    fn final_and_best_accuracy() {
        let r = sample_run();
        assert_eq!(r.final_accuracy(), 0.6);
        assert_eq!(r.best_accuracy(), 0.6);
        assert_eq!(r.total_sim_time(), 40.0);
        assert_eq!(r.total_traffic_mb(), 20.0);
    }

    #[test]
    fn time_and_traffic_to_accuracy() {
        let r = sample_run();
        assert_eq!(r.time_to_accuracy(0.5), Some(30.0));
        assert_eq!(r.traffic_to_accuracy(0.5), Some(15.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn accuracy_curve_skips_unevaluated_rounds() {
        let r = sample_run();
        let curve = r.accuracy_curve();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[1], (30.0, 0.5));
    }

    #[test]
    fn empty_run_is_safe() {
        let r = RunResult::new("FedAvg", "HAR", 0.0);
        assert_eq!(r.final_accuracy(), 0.0);
        assert_eq!(r.total_sim_time(), 0.0);
        assert_eq!(r.mean_waiting_time(), 0.0);
        assert!(r.time_to_accuracy(0.1).is_none());
    }

    #[test]
    fn equality_compares_the_trajectory_not_the_pool_gauges() {
        // Two same-seed runs in one process see different pool warmth (first run fills
        // the arena, second run hits it), so trace equality must not depend on the
        // gauges — but any trajectory field still breaks it.
        let r = sample_run();
        let mut warm = r.clone();
        warm.records[0].pool_pages = 0;
        warm.records[0].pool_bytes = 0;
        warm.records[0].pool_hit_rate = 0.0;
        assert_eq!(warm, r);
        let mut diverged = r.clone();
        diverged.records[0].train_loss += 1.0;
        assert_ne!(diverged, r);
        // Unlike the pool gauges, the fleet gauges are part of the trajectory: a planner
        // that touched a different number of registry records made different decisions.
        let mut diverged = r.clone();
        diverged.records[0].fleet_active += 1;
        assert_ne!(diverged, r, "fleet gauges must participate in equality");
    }

    #[test]
    fn to_json_writes_every_record_field() {
        // The writer's schema, key by key: every record field under its own name, a
        // non-finite float as `null`, unevaluated accuracy as `null`, and the version-lag
        // histogram and per-shard breakdown as arrays.
        let mut run = sample_run();
        run.records[1].train_loss = f32::NAN;
        run.records[2].avg_waiting_time = f64::INFINITY;
        let doc = json::parse(&run.to_json()).expect("to_json writes valid JSON");

        let num = |v: f64| {
            if v.is_finite() {
                JsonValue::Number(v)
            } else {
                JsonValue::Null
            }
        };
        let int = |v: usize| JsonValue::Number(v as f64);
        let text = |v: &str| JsonValue::String(v.to_string());
        let object = |fields: Vec<(&str, JsonValue)>| {
            JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let records = run
            .records
            .iter()
            .map(|r| {
                let shards = r
                    .shards
                    .iter()
                    .map(|s| {
                        object(vec![
                            ("shard", int(s.shard)),
                            ("participants", int(s.participants)),
                            ("batch", int(s.batch)),
                            ("ingress_seconds", num(s.ingress_seconds)),
                            ("server_critical_seconds", num(s.server_critical_seconds)),
                            ("server_overlap_seconds", num(s.server_overlap_seconds)),
                        ])
                    })
                    .collect();
                object(vec![
                    ("round", int(r.round)),
                    ("sim_time", num(r.sim_time)),
                    (
                        "accuracy",
                        r.accuracy.map_or(JsonValue::Null, |a| num(a.into())),
                    ),
                    ("train_loss", num(r.train_loss.into())),
                    ("avg_waiting_time", num(r.avg_waiting_time)),
                    ("round_makespan_barrier", num(r.round_makespan_barrier)),
                    ("round_makespan_pipelined", num(r.round_makespan_pipelined)),
                    ("traffic_mb", num(r.traffic_mb)),
                    ("participants", int(r.participants)),
                    ("total_batch", int(r.total_batch)),
                    ("cohort_kl", num(r.cohort_kl.into())),
                    ("fleet_registered", int(r.fleet_registered)),
                    ("fleet_active", int(r.fleet_active)),
                    ("server_gflops", num(r.server_gflops)),
                    ("server_critical_fraction", num(r.server_critical_fraction)),
                    ("cross_sync_seconds", num(r.cross_sync_seconds)),
                    ("topology", text(r.topology.name())),
                    ("exchange_bytes", num(r.exchange_bytes)),
                    ("pool_pages", int(r.pool_pages)),
                    ("pool_bytes", int(r.pool_bytes)),
                    ("pool_hit_rate", num(r.pool_hit_rate)),
                    ("staleness", int(r.staleness)),
                    (
                        "version_lag",
                        JsonValue::Array(r.version_lag.iter().map(|&n| int(n)).collect()),
                    ),
                    ("shards", JsonValue::Array(shards)),
                ])
            })
            .collect();
        let expected = object(vec![
            ("approach", text("MergeSFL")),
            ("dataset", text("CIFAR-10")),
            ("non_iid_level", num(10.0)),
            ("records", JsonValue::Array(records)),
        ]);
        assert_eq!(doc, expected);

        // The same document, spot-checked against literal values.
        let records = doc.get("records").and_then(JsonValue::as_array).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[1].get("train_loss"), Some(&JsonValue::Null));
        assert_eq!(records[1].get("accuracy"), Some(&JsonValue::Null));
        assert_eq!(records[2].get("avg_waiting_time"), Some(&JsonValue::Null));
        assert_eq!(
            records[1].get("version_lag"),
            Some(&JsonValue::Array(vec![int(1), int(3), int(12)]))
        );
        assert_eq!(records[1].get("topology"), Some(&text("partitioned")));
        let shards = records[0]
            .get("shards")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(shards[1].get("batch"), Some(&int(16)));
        assert_eq!(shards[0].get("ingress_seconds"), Some(&num(0.004)));
    }

    #[test]
    fn mean_waiting_time_averages_rounds() {
        let r = sample_run();
        assert!((r.mean_waiting_time() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_totals_sum_per_round_makespans() {
        let r = sample_run();
        assert!((r.total_barrier_makespan() - 48.0).abs() < 1e-9);
        assert!((r.total_pipelined_makespan() - 36.0).abs() < 1e-9);
    }
}
