//! End-to-end trajectory pin: a hash over the bits of every round's `train_loss`,
//! `accuracy`, `participants` and `total_batch` for a few rounds of the quickstart
//! CIFAR-10/AlexNet-lite configuration and of the Speech/CNN-S configuration.
//!
//! The kernels may change how the convolution, pooling and GEMM work is scheduled, but
//! never a single bit of what a training run computes. The constants below were taken
//! before the direct convolution kernels replaced the im2col + GEMM path; a kernel change
//! that reassociates any reduction on the blocked backend shows up here as a new hash.
//!
//! Every trajectory-affecting knob is pinned explicitly, so the `MERGESFL_*` matrix CI
//! runs this suite under cannot move the hash. The micro-kernel knob is deliberately left
//! to the environment: every instantiation must produce the same bits.

use mergesfl::config::{RunConfig, ShardTopology, TilingOverride};
use mergesfl::experiment::{run, Approach};
use mergesfl::metrics::RunResult;
use mergesfl_data::DatasetKind;
use mergesfl_nn::kernels::KernelBackend;

/// FNV-1a over the trajectory fields of every round, in round order.
fn trajectory_hash(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &result.records {
        eat(u64::from(r.train_loss.to_bits()));
        eat(r.accuracy.map_or(u64::MAX, |a| u64::from(a.to_bits())));
        eat(r.participants as u64);
        eat(r.total_batch as u64);
    }
    h
}

/// The quickstart configuration cut to `rounds` rounds, with every knob that may change
/// a trajectory set to its default regardless of the environment.
fn pinned(dataset: DatasetKind, rounds: usize) -> RunConfig {
    let mut c = RunConfig::quick(dataset, 10.0, 42);
    c.rounds = rounds;
    c.pipeline = false;
    c.kernel_backend = KernelBackend::Blocked;
    c.tiling = TilingOverride::default();
    c.num_servers = 1;
    c.sync_every = 1;
    c.topology = ShardTopology::default();
    c.staleness = 0;
    c.fleet = None;
    c.churn = false;
    c
}

fn check(dataset: DatasetKind, rounds: usize, want: u64) {
    let result = run(Approach::MergeSfl, &pinned(dataset, rounds));
    assert_eq!(result.records.len(), rounds);
    assert!(
        result.records.iter().all(|r| r.train_loss.is_finite()),
        "{dataset:?}: non-finite training loss"
    );
    let got = trajectory_hash(&result);
    assert_eq!(
        got, want,
        "{dataset:?}: trajectory hash {got:#018x} differs from the pinned {want:#018x}"
    );
}

#[test]
fn cifar_alexnet_trajectory_is_pinned() {
    check(DatasetKind::Cifar10, 4, 0x8d13_8a13_d83f_09c8);
}

#[test]
fn speech_cnns_trajectory_is_pinned() {
    check(DatasetKind::Speech, 4, 0x29c4_ce6e_c951_c562);
}
