//! `train_bench`: wall-clock benchmark of the MergeSFL training loop.
//!
//! The untraced run ([`measure`]) times `SflEngine::new` and `SflEngine::run` on a
//! fixed workload and reports the end-to-end metrics. The traced run ([`replay`])
//! re-drives the same round loop through the public layer functions the engine
//! calls — control, simnet, `SflWorker`, merge, `ShardedServer` — with timers around
//! every call, proves it computed the engine's trajectory, and adds per-layer timings
//! of the models split into single-layer `Sequential`s ([`layers`]).
//!
//! Run `cargo run --release --offline --manifest-path train_bench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <n> --trace <0|1>` from the repository root;
//! see `README.md` in this directory for the workloads and metrics.

pub mod layers;
pub mod measure;
pub mod replay;
pub mod report;
pub mod stats;
pub mod sys;
pub mod traced;
pub mod workload;
