//! Worker-side training state for split federated learning.
//!
//! Each worker holds a bottom model, a mini-batch loader over its local shard and an SGD
//! optimizer. During a round it repeatedly (a) samples a mini-batch of its assigned batch
//! size, (b) runs the bottom forward pass and uploads the features, and (c) applies the
//! dispatched split-layer gradient with a batch-size-scaled learning rate.
//!
//! Under the bounded-staleness mode (`RunConfig::staleness > 0`) the dispatched gradient
//! a worker applies in (c) may have been computed by the server on top-model state up to
//! `k` optimizer steps older than the state the server updated — the worker arithmetic
//! is unchanged; only the provenance of the split-layer gradient is relaxed, and the
//! server asserts the version lag never exceeds the bound.

use crate::sfl::merge::FeatureUpload;
use mergesfl_data::{Dataset, WorkerLoader};
use mergesfl_nn::optim::scaled_worker_lr;
use mergesfl_nn::{Sequential, Sgd, Tensor};

/// A split-federated-learning worker.
pub struct SflWorker {
    /// Stable worker identifier.
    pub id: usize,
    bottom: Sequential,
    optimizer: Sgd,
    loader: WorkerLoader,
}

impl SflWorker {
    /// Creates a worker with its own bottom-model replica and local data shard.
    pub fn new(id: usize, bottom: Sequential, shard: Vec<usize>, seed: u64) -> Self {
        assert!(
            !bottom.is_empty(),
            "SflWorker: bottom model must have layers"
        );
        let optimizer =
            Sgd::new(0.05, 0.0, 0.0).with_max_grad_norm(crate::sfl::server::GRAD_CLIP_NORM);
        Self {
            id,
            bottom,
            optimizer,
            loader: WorkerLoader::new(shard, seed),
        }
    }

    /// Number of samples in the worker's local shard.
    pub fn shard_size(&self) -> usize {
        self.loader.shard_size()
    }

    /// Loads the latest global bottom model and clears any stale optimizer state.
    pub fn load_bottom(&mut self, state: &[f32]) {
        self.bottom.load_state(state);
        self.optimizer.reset_state();
    }

    /// Serialises the worker's current bottom model.
    pub fn bottom_state(&self) -> Vec<f32> {
        self.bottom.state()
    }

    /// Runs one forward pass over a fresh mini-batch of `batch_size` samples, producing the
    /// feature upload for the PS.
    pub fn forward_iteration(&mut self, dataset: &Dataset, batch_size: usize) -> FeatureUpload {
        let (inputs, labels) = self.loader.next_batch(dataset, batch_size);
        self.bottom.zero_grad();
        let features = self.bottom.forward(&inputs, true);
        FeatureUpload::new(self.id, features, labels)
    }

    /// Applies the dispatched split-layer gradient: completes the bottom backward pass and
    /// takes one SGD step with a learning rate scaled by this worker's batch size relative
    /// to `reference_batch` (paper Section IV-B).
    pub fn apply_gradient(
        &mut self,
        grad_features: &Tensor,
        base_lr: f32,
        batch_size: usize,
        reference_batch: usize,
    ) {
        let lr = scaled_worker_lr(base_lr, batch_size, reference_batch);
        self.optimizer.set_lr(lr);
        self.bottom.backward_params(grad_features);
        self.optimizer.step(&mut self.bottom);
        self.bottom.zero_grad();
    }

    /// Applies a gradient dispatched from a *merged* top-model step. Merged gradients are
    /// normalised by the cohort total `Σ d_i` rather than this worker's `d_i`, so the base
    /// learning rate is scaled by `Σ d / d_i` — capped at [`MERGE_SCALE_CAP`] so stragglers
    /// with tiny batches (ratios of 20–40×) cannot be blown up by one bad merged gradient:
    /// clipping bounds the norm, the cap bounds the systematic amplification. With
    /// `merging == false` the gradient is already normalised per-worker and the base rate
    /// is used unscaled.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_merged_gradient(
        &mut self,
        grad_features: &Tensor,
        base_lr: f32,
        batch_size: usize,
        total_batch: usize,
        reference_batch: usize,
        merging: bool,
    ) {
        let scale = if merging {
            (total_batch as f32 / batch_size.max(1) as f32).min(MERGE_SCALE_CAP)
        } else {
            1.0
        };
        self.apply_gradient(grad_features, base_lr * scale, batch_size, reference_batch);
    }

    /// Size of the bottom model in scalars (used in tests and sanity checks).
    pub fn bottom_num_params(&self) -> usize {
        self.bottom.num_params()
    }
}

/// Upper bound on the `Σ d / d_i` learning-rate amplification of merged gradients (see
/// [`SflWorker::apply_merged_gradient`]).
pub const MERGE_SCALE_CAP: f32 = 4.0;

#[cfg(test)]
mod tests {
    use super::*;
    use mergesfl_data::datasets::DatasetKind;
    use mergesfl_data::synth::generate_default;
    use mergesfl_nn::layers::{Flatten, Linear, Relu};
    use mergesfl_nn::rng::seeded;

    fn toy_bottom() -> Sequential {
        let mut rng = seeded(0);
        Sequential::new()
            .push(Box::new(Flatten::new()))
            .push(Box::new(Linear::new(&mut rng, 144, 16)))
            .push(Box::new(Relu::new()))
    }

    fn toy_worker(id: usize) -> (SflWorker, Dataset) {
        let (train, _) = generate_default(&DatasetKind::Har.spec(), 3);
        let shard: Vec<usize> = (0..60).collect();
        (SflWorker::new(id, toy_bottom(), shard, 1), train)
    }

    #[test]
    fn forward_iteration_produces_features_with_labels() {
        let (mut worker, data) = toy_worker(4);
        let upload = worker.forward_iteration(&data, 8);
        assert_eq!(upload.worker_id, 4);
        assert_eq!(upload.batch_size(), 8);
        assert_eq!(upload.features.shape(), &[8, 16]);
    }

    #[test]
    fn apply_gradient_changes_bottom_parameters() {
        let (mut worker, data) = toy_worker(0);
        let before = worker.bottom_state();
        let upload = worker.forward_iteration(&data, 4);
        let grad = Tensor::ones(upload.features.shape());
        worker.apply_gradient(&grad, 0.05, 4, 4);
        let after = worker.bottom_state();
        assert_ne!(before, after);
    }

    #[test]
    fn load_bottom_synchronises_replicas() {
        let (mut a, data) = toy_worker(0);
        let (mut b, _) = toy_worker(1);
        // Diverge worker a.
        let upload = a.forward_iteration(&data, 4);
        a.apply_gradient(&Tensor::ones(upload.features.shape()), 0.1, 4, 4);
        assert_ne!(a.bottom_state(), b.bottom_state());
        let global = a.bottom_state();
        b.load_bottom(&global);
        assert_eq!(a.bottom_state(), b.bottom_state());
    }

    #[test]
    fn batch_scaled_learning_rate_changes_update_magnitude() {
        let (mut small, data) = toy_worker(0);
        let (mut large, _) = toy_worker(1);
        let global = small.bottom_state();
        large.load_bottom(&global);

        let up_s = small.forward_iteration(&data, 4);
        small.apply_gradient(&Tensor::ones(up_s.features.shape()), 0.1, 2, 8);
        let up_l = large.forward_iteration(&data, 4);
        large.apply_gradient(&Tensor::ones(up_l.features.shape()), 0.1, 8, 8);

        let delta =
            |state: &[f32]| -> f32 { state.iter().zip(&global).map(|(a, b)| (a - b).abs()).sum() };
        // The worker with the larger batch (relative to the reference) uses a larger LR.
        assert!(delta(&large.bottom_state()) > delta(&small.bottom_state()));
    }

    #[test]
    fn merged_gradient_scale_is_capped_for_extreme_stragglers() {
        // A straggler with d=1 in a 100-sample merged batch would get a 100× LR without
        // the cap; with it, the update magnitude equals the 4×-scaled one.
        let (mut capped, data) = toy_worker(0);
        let (mut manual, _) = toy_worker(1);
        let global = capped.bottom_state();
        manual.load_bottom(&global);

        let up = capped.forward_iteration(&data, 4);
        capped.apply_merged_gradient(&Tensor::ones(up.features.shape()), 0.1, 1, 100, 4, true);
        let up_m = manual.forward_iteration(&data, 4);
        manual.apply_gradient(
            &Tensor::ones(up_m.features.shape()),
            0.1 * MERGE_SCALE_CAP,
            1,
            4,
        );
        assert_eq!(capped.bottom_state(), manual.bottom_state());
    }

    #[test]
    fn unmerged_gradient_uses_the_base_rate() {
        let (mut a, data) = toy_worker(0);
        let (mut b, _) = toy_worker(1);
        let global = a.bottom_state();
        b.load_bottom(&global);
        let up_a = a.forward_iteration(&data, 4);
        a.apply_merged_gradient(&Tensor::ones(up_a.features.shape()), 0.1, 2, 100, 4, false);
        let up_b = b.forward_iteration(&data, 4);
        b.apply_gradient(&Tensor::ones(up_b.features.shape()), 0.1, 2, 4);
        assert_eq!(a.bottom_state(), b.bottom_state());
    }

    #[test]
    fn shard_size_is_reported() {
        let (worker, _) = toy_worker(0);
        assert_eq!(worker.shard_size(), 60);
        assert!(worker.bottom_num_params() > 0);
    }
}
