//! The benchmark's workloads: fixed training configurations, each built from a seed
//! with every environment-overridable `RunConfig` field set explicitly and the
//! fan-out width pinned.

use mergesfl::config::{KernelBackend, RunConfig, ShardTopology, TilingOverride};
use mergesfl_data::DatasetKind;
use mergesfl_nn::rng::derive_seed;

/// Stream tag under which a run's seed derives the training seeds it cycles through.
const SUB_SEED_TAG: u64 = 0x7B00;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Quickstart CIFAR-10 analogue on AlexNet-lite, fan-out pinned to one thread.
    Cifar1t,
    /// The same configuration at the host's default fan-out (one thread per core).
    CifarNt,
    /// Speech on CNN-S: 10^5 registered clients with churn, the pipelined schedule
    /// and 4 output-partitioned shards, fan-out pinned to one thread.
    SpeechFleetPipeline,
}

/// How large the workload's training runs are: `Full` is what the benchmark times,
/// `Tiny` a seconds-long variant for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Cifar1t,
        Workload::CifarNt,
        Workload::SpeechFleetPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cifar1t => "cifar_1t",
            Workload::CifarNt => "cifar_nt",
            Workload::SpeechFleetPipeline => "speech_fleet_pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fan-out width the workload pins with `rayon::set_num_threads`.
    pub fn threads(self) -> usize {
        match self {
            Workload::CifarNt => crate::sys::nproc(),
            Workload::Cifar1t | Workload::SpeechFleetPipeline => 1,
        }
    }

    /// How many training seeds one benchmark run cycles through. Final accuracy at
    /// this scale swings with the seed (relative standard deviation ≈ 0.38 for both
    /// datasets), so a run reports its mean over this many seeds — enough to keep the
    /// quartile spread across runs near 0.08 — and throughput is a median over the
    /// same mix.
    pub fn seeds_per_run(self, size: Size) -> usize {
        match (self, size) {
            (_, Size::Tiny) => 2,
            (Workload::Cifar1t | Workload::CifarNt, Size::Full) => 40,
            (Workload::SpeechFleetPipeline, Size::Full) => 96,
        }
    }

    /// The training seeds a benchmark run with seed `seed` cycles through.
    pub fn training_seeds(self, seed: u64, size: Size) -> Vec<u64> {
        (0..self.seeds_per_run(size) as u64)
            .map(|i| derive_seed(seed, SUB_SEED_TAG + i))
            .collect()
    }

    /// The run configuration for one training seed. Starts from `RunConfig::quick`
    /// and then sets every field a `MERGESFL_*` variable could have changed, so the
    /// environment cannot alter what is measured.
    pub fn config(self, seed: u64, size: Size) -> RunConfig {
        let dataset = match self {
            Workload::Cifar1t | Workload::CifarNt => DatasetKind::Cifar10,
            Workload::SpeechFleetPipeline => DatasetKind::Speech,
        };
        let mut c = RunConfig::quick(dataset, 10.0, seed);
        c.parallel = true;
        c.kernel_backend = KernelBackend::Blocked;
        c.micro_kernel = None;
        c.tiling = TilingOverride::default();
        c.tensor_pool = true;
        c.sync_every = 1;
        c.staleness = 0;
        c.churn_period = 48;
        c.churn_min_availability = 0.6;
        c.churn_dropout = 0.05;
        match self {
            Workload::Cifar1t | Workload::CifarNt => {
                c.pipeline = false;
                c.num_servers = 1;
                c.topology = ShardTopology::Replicated;
                c.fleet = None;
                c.churn = false;
            }
            Workload::SpeechFleetPipeline => {
                c.pipeline = true;
                c.num_servers = 4;
                c.topology = ShardTopology::OutputPartitioned;
                c.fleet = Some(100_000);
                c.churn = true;
            }
        }
        if size == Size::Tiny {
            c.num_workers = 8;
            c.participants_per_round = 4;
            c.rounds = 3;
            c.local_iterations = Some(2);
            c.train_size = Some(320);
            c.eval_samples = 40;
            if c.fleet.is_some() {
                c.fleet = Some(1_000);
            }
        }
        c
    }

    /// Applies the process-wide settings the workload runs under: the kernel knobs
    /// `experiment::run` would apply from the configuration, and the fan-out width.
    pub fn apply_process_settings(self, config: &RunConfig) {
        mergesfl_nn::kernels::set_default_backend(config.kernel_backend);
        mergesfl_nn::kernels::set_micro_override(config.micro_kernel);
        mergesfl_nn::kernels::set_tiling_override(config.tiling);
        mergesfl_nn::pool::set_enabled(config.tensor_pool);
        rayon::set_num_threads(self.threads());
    }
}

/// One line describing the effective configuration, printed with every run.
pub fn describe(config: &RunConfig) -> String {
    format!(
        "dataset={:?} non_iid={} workers={} per_round={} rounds={} tau={} max_batch={} \
         uniform_batch={} train_size={:?} eval_samples={} eval_every={} parallel={} \
         pipeline={} servers={} topology={} sync_every={} staleness={} fleet={} churn={} \
         churn_period={} churn_min_avail={} churn_dropout={} kernels={} micro_override={:?} \
         tiling={:?} tensor_pool={}",
        config.dataset,
        config.non_iid_level,
        config.num_workers,
        config.participants_per_round,
        config.rounds,
        config.tau(),
        config.max_batch,
        config.uniform_batch,
        config.train_size,
        config.eval_samples,
        config.eval_every,
        config.parallel,
        config.pipeline,
        config.num_servers,
        config.topology.name(),
        config.sync_every,
        config.staleness,
        config.fleet_size(),
        config.churn,
        config.churn_period,
        config.churn_min_availability,
        config.churn_dropout,
        config.kernel_backend.name(),
        config.micro_kernel.map(|m| m.name()),
        config.tiling,
        config.tensor_pool,
    )
}
