//! Per-layer timings: a zoo model split into single-layer `Sequential`s with
//! `split_at`, driven forward and backward at a workload's batch shapes — every
//! worker's bottom pass at its own batch size, the top pass at the merged batch.

use crate::replay::Trace;
use mergesfl_data::{synth, Dataset, DatasetKind};
use mergesfl_nn::zoo::{self, Architecture};
use mergesfl_nn::{Sequential, SoftmaxCrossEntropy, Tensor};
use std::time::Instant;

/// The models the per-layer metrics cover, with their metric prefix and the dataset
/// that feeds them.
const MODELS: [(Architecture, &str, DatasetKind); 2] = [
    (Architecture::AlexNetLite, "alexnet", DatasetKind::Cifar10),
    (Architecture::CnnS, "cnns", DatasetKind::Speech),
];

/// Layers that do arithmetic worth timing (activations, flatten and dropout are
/// driven for their shapes but not reported).
fn reported(layer: &str) -> bool {
    matches!(
        layer,
        "Conv2d" | "Conv1d" | "MaxPool2d" | "MaxPool1d" | "Linear"
    )
}

fn layer_metric(prefix: &str, idx: usize, layer: &str, direction: &str) -> Option<String> {
    reported(layer).then(|| format!("nn.{prefix}.{idx}_{}.{direction}_us", layer.to_lowercase()))
}

/// Every per-layer metric name of `MODELS`, in model then layer order.
pub fn metric_names() -> Vec<String> {
    let mut names = Vec::new();
    for (arch, prefix, kind) in MODELS {
        let model = zoo::build(arch, kind.spec().num_classes, 0).model;
        for (idx, layer) in model.layer_names().into_iter().enumerate() {
            for direction in ["fwd", "bwd"] {
                names.extend(layer_metric(prefix, idx, layer, direction));
            }
        }
    }
    names
}

/// One model cut into single-layer stages, plus the data it trains on.
struct Stages {
    layers: Vec<Sequential>,
    fwd: Vec<Option<String>>,
    bwd: Vec<Option<String>>,
    split: usize,
    data: Dataset,
    next_sample: usize,
}

impl Stages {
    fn new(arch: Architecture, prefix: &str, kind: DatasetKind, seed: u64) -> Self {
        let mut spec = kind.spec();
        spec.train_size = 512;
        spec.test_size = 1;
        let (data, _) = synth::generate_default(&spec, seed);
        let built = zoo::build(arch, spec.num_classes, seed);
        let names = built.model.layer_names();
        let mut layers = Vec::with_capacity(names.len());
        let mut rest = built.model;
        for _ in 0..names.len() {
            let (first, tail) = rest.split_at(1);
            layers.push(first);
            rest = tail;
        }
        let metric = |direction: &str| -> Vec<Option<String>> {
            names
                .iter()
                .enumerate()
                .map(|(idx, layer)| layer_metric(prefix, idx, layer, direction))
                .collect()
        };
        Self {
            fwd: metric("fwd"),
            bwd: metric("bwd"),
            layers,
            split: built.split_index,
            data,
            next_sample: 0,
        }
    }

    /// A batch of `n` training samples, cycling through the data set.
    fn batch(&mut self, n: usize) -> (Tensor, Vec<usize>) {
        let indices: Vec<usize> = (0..n)
            .map(|i| (self.next_sample + i) % self.data.len())
            .collect();
        self.next_sample = (self.next_sample + n) % self.data.len();
        self.data.batch(&indices)
    }

    fn forward(
        &mut self,
        range: std::ops::Range<usize>,
        mut x: Tensor,
        trace: &mut Trace,
    ) -> Tensor {
        for idx in range {
            let start = Instant::now();
            x = self.layers[idx].forward(&x, true);
            if let Some(name) = &self.fwd[idx] {
                trace.record(name, start.elapsed().as_secs_f64() * 1e6);
            }
        }
        x
    }

    fn backward(&mut self, range: std::ops::Range<usize>, mut g: Tensor, trace: &mut Trace) {
        for idx in range.rev() {
            let start = Instant::now();
            g = self.layers[idx].backward(&g);
            if let Some(name) = &self.bwd[idx] {
                trace.record(name, start.elapsed().as_secs_f64() * 1e6);
            }
            self.layers[idx].zero_grad();
        }
    }

    /// One training iteration at `batch_sizes`: each worker's bottom forward and
    /// backward at its batch size, then the top forward, loss and backward on the
    /// merged features.
    fn iteration(&mut self, batch_sizes: &[usize], trace: &mut Trace) {
        let split = self.split;
        let top = split..self.layers.len();
        let mut features = Vec::with_capacity(batch_sizes.len());
        let mut labels = Vec::new();
        for &d in batch_sizes {
            let (x, y) = self.batch(d);
            let f = self.forward(0..split, x, trace);
            // The bottom backward's timing does not depend on the gradient's values.
            self.backward(0..split, Tensor::full(f.shape(), 1e-3), trace);
            features.push(f);
            labels.extend(y);
        }
        let refs: Vec<&Tensor> = features.iter().collect();
        let logits = self.forward(top.clone(), Tensor::concat_batch(&refs), trace);
        let loss = SoftmaxCrossEntropy::new().forward(&logits, &labels);
        self.backward(top, loss.grad, trace);
    }
}

/// Drives every model in `MODELS` for `iterations` iterations, cycling through
/// `rounds` (each round's per-worker batch sizes), recording into `trace`.
pub fn drive(rounds: &[Vec<usize>], iterations: usize, seed: u64, trace: &mut Trace) {
    if rounds.is_empty() {
        return;
    }
    for (arch, prefix, kind) in MODELS {
        let mut stages = Stages::new(arch, prefix, kind, seed);
        for i in 0..iterations {
            stages.iteration(&rounds[i % rounds.len()], trace);
        }
    }
}
