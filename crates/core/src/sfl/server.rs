//! Parameter-server side of split federated learning, sharded across PS instances.
//!
//! The top model lives on one or more parameter-server shards. [`TopModelShard`] is the
//! seam one PS instance implements: per iteration it either processes one *merged*
//! feature sequence (MergeSFL) or the features of each routed worker separately (typical
//! SFL), producing the split-layer gradients that are dispatched back. [`TopShard`] is
//! the full replica of the replicated topology; [`PartitionedShard`] is the
//! output-partitioned ensemble, each instance owning a slice of the classifier.
//!
//! [`ShardedServer`] is the subsystem the engine drives: the engine's one server half
//! calls [`ShardedServer::begin_step`] on every active route group, dispatches the
//! gradients, then calls [`ShardedServer::finish_step`] on each (or runs
//! [`ShardedServer::process_sequential`], the per-worker sweep, without merging). The
//! server routes that work to the shard instances, applies the bounded-staleness version
//! ring around it, periodically synchronises the replicas (averaging weighted by the
//! samples each shard processed since the last sync), owns the global bottom model that
//! is aggregated from the workers at the end of a round (paper Eq. 17 / Eq. 4), and
//! evaluates the combined global model. With one shard it is exactly the paper's
//! single-server loop: work is routed to the only replica and synchronisation is a no-op,
//! so trajectories are bit-identical to the pre-sharding engine.

use crate::sfl::merge::{dispatch_gradients, merge_feature_refs, FeatureUpload, MergedBatch};
use mergesfl_nn::kernels::{self, Epilogue};
use mergesfl_nn::model::weighted_average_states;
use mergesfl_nn::{Sequential, Sgd, SoftmaxCrossEntropy, Tensor};
use rayon::channel::VersionedSlot;

/// Gradient-clipping norm used by both sides of split training (and the FL baselines).
/// Large enough to be inactive in steady state; small enough that a single bad merged
/// batch cannot blow a model up in round 0.
pub const GRAD_CLIP_NORM: f32 = 5.0;

/// Outcome of one top-model update.
#[derive(Clone, Debug)]
pub struct TopStep {
    /// Mean training loss of the processed features.
    pub loss: f32,
    /// Training accuracy of the processed features.
    pub accuracy: f32,
    /// Split-layer gradients per worker, in upload order.
    pub gradients: Vec<(usize, Tensor)>,
}

/// One parameter-server instance holding (a partition of) the top model: the seam the
/// sharded server routes iteration work through.
///
/// The replicated topology's [`TopShard`] holds a full replica; an output-partitioned
/// implementation would hold a slice of the classifier and exchange partial logits
/// instead of synchronising states — the trait's state accessors are what the periodic
/// cross-shard sync of the replicated topology uses, and are also how tests and the
/// evaluation path observe shard parameters.
pub trait TopModelShard: Send {
    /// Sets the learning rate used for this shard's top-model updates.
    fn set_lr(&mut self, lr: f32);

    /// The gradient-dispatch-critical part of one top-model update: merged-batch forward,
    /// loss, backward, and split-layer gradient dispatching. The returned gradients can
    /// be shipped to the routed workers immediately; the pipelined engine overlaps the
    /// remaining [`TopModelShard::finish_step`] with the workers' bottom-backward and
    /// next forward.
    fn begin_step(&mut self, merged: &MergedBatch) -> TopStep;

    /// The overlappable tail of one top-model update: the optimizer step on the gradients
    /// accumulated by [`TopModelShard::begin_step`]. Must be called exactly once per
    /// `begin_step` before the next iteration's features are processed.
    fn finish_step(&mut self);

    /// Serialises this shard's top-model parameters.
    fn state(&self) -> Vec<f32>;

    /// Loads top-model parameters (the cross-shard sync writes the averaged state back).
    fn load_state(&mut self, state: &[f32]);

    /// Inference-mode forward pass through this shard's top model (evaluation only —
    /// no gradients are accumulated). A single-shard server evaluates through its one
    /// replica directly instead of copying state into the evaluation replica.
    fn eval_forward(&mut self, features: &Tensor) -> Tensor;

    /// Processes routed uploads **with feature merging**: one forward/backward pass over
    /// the mixed feature sequence, then gradient dispatching.
    fn process_merged(&mut self, uploads: &[&FeatureUpload]) -> TopStep {
        let merged = merge_feature_refs(uploads);
        let step = self.begin_step(&merged);
        self.finish_step();
        step
    }

    /// Processes routed uploads **without feature merging** (typical SFL): the shard's
    /// top model is updated once per routed worker, in sequence, each update using only
    /// that worker's features.
    fn process_sequential(&mut self, uploads: &[&FeatureUpload]) -> TopStep {
        sweep_per_worker(uploads, |single| {
            let step = self.begin_step(single);
            self.finish_step();
            step
        })
    }
}

/// The per-worker sweep of typical SFL: one whole top-model update per routed upload, in
/// upload order, each on that worker's features alone. `update` runs one update (the
/// dispatch-critical part and the optimizer tail). Returns the sample-weighted loss and
/// accuracy of the sweep and every worker's gradients, in upload order.
fn sweep_per_worker(
    uploads: &[&FeatureUpload],
    mut update: impl FnMut(&MergedBatch) -> TopStep,
) -> TopStep {
    assert!(!uploads.is_empty(), "process_sequential: no uploads");
    let mut gradients = Vec::with_capacity(uploads.len());
    let mut loss_sum = 0.0f32;
    let mut acc_sum = 0.0f32;
    let mut samples = 0usize;
    for upload in uploads {
        let step = update(&merge_feature_refs(std::slice::from_ref(upload)));
        loss_sum += step.loss * upload.batch_size() as f32;
        acc_sum += step.accuracy * upload.batch_size() as f32;
        samples += upload.batch_size();
        gradients.extend(step.gradients);
    }
    TopStep {
        loss: loss_sum / samples as f32,
        accuracy: acc_sum / samples as f32,
        gradients,
    }
}

/// A full top-model replica on one PS instance (the replicated topology's shard).
pub struct TopShard {
    top: Sequential,
    optimizer: Sgd,
    loss: SoftmaxCrossEntropy,
}

impl TopShard {
    /// Creates a shard from a top-model replica.
    pub fn new(top: Sequential) -> Self {
        assert!(!top.is_empty(), "TopShard: top model must have layers");
        // Clipping bounds the occasional merged-batch gradient spike in the first rounds,
        // which would otherwise saturate the top model before training gets going.
        let optimizer = Sgd::new(0.05, 0.0, 0.0).with_max_grad_norm(GRAD_CLIP_NORM);
        Self {
            top,
            optimizer,
            loss: SoftmaxCrossEntropy::new(),
        }
    }
}

impl TopModelShard for TopShard {
    fn set_lr(&mut self, lr: f32) {
        self.optimizer.set_lr(lr);
    }

    fn begin_step(&mut self, merged: &MergedBatch) -> TopStep {
        self.top.zero_grad();
        let logits = self.top.forward(&merged.features, true);
        let out = self.loss.forward(&logits, &merged.labels);
        let grad_features = self.top.backward(&out.grad);
        let gradients = dispatch_gradients(merged, &grad_features);
        TopStep {
            loss: out.loss,
            accuracy: out.accuracy,
            gradients,
        }
    }

    fn finish_step(&mut self) {
        self.optimizer.step(&mut self.top);
        self.top.zero_grad();
    }

    fn state(&self) -> Vec<f32> {
        self.top.state()
    }

    fn load_state(&mut self, state: &[f32]) {
        self.top.load_state(state);
    }

    fn eval_forward(&mut self, features: &Tensor) -> Tensor {
        self.top.forward(features, false)
    }
}

/// How the top model is laid out across the parameter-server shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShardTopology {
    /// Every shard holds a full top-model replica trained on its routed uploads; replicas
    /// are averaged at the periodic cross-shard sync.
    #[default]
    Replicated,
    /// Each shard owns a contiguous slice of the classifier's output dimension, runs on
    /// the full merged batch every iteration, and exchanges partial activations (logit
    /// all-gather before softmax/loss, gradient-slice scatter back) instead of whole-model
    /// state. The global trajectory is exact: no replica averaging, no sync staleness.
    OutputPartitioned,
}

impl ShardTopology {
    /// Short name used in run records and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Replicated => "replicated",
            Self::OutputPartitioned => "partitioned",
        }
    }

    /// Parses a topology name (`replicated`, `partitioned`, `output-partitioned`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_lowercase().as_str() {
            "replicated" => Some(Self::Replicated),
            "partitioned" | "output-partitioned" | "output_partitioned" => {
                Some(Self::OutputPartitioned)
            }
            _ => None,
        }
    }
}

/// One parameter-server instance's share of the output-partitioned classifier: the
/// contiguous class range `[lo, hi)` with the matching rows of the `[classes, in]` weight
/// matrix and entries of the bias (rows of the row-major weight are classes, so a class
/// slice is a contiguous block of the flat parameter vector). The slice carries its own
/// gradient buffers — in a real deployment these never leave the shard's machine.
struct ClassifierSlice {
    lo: usize,
    hi: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

impl ClassifierSlice {
    fn width(&self) -> usize {
        self.hi - self.lo
    }
}

/// The output-partitioned parameter-server ensemble behind the [`TopModelShard`] seam.
///
/// Each of the `S` shards owns a contiguous slice of the classifier's output dimension;
/// the layers below the classifier (the *trunk*) stay bit-identical on every shard, so
/// the simulation materialises them once. (The *timing* model charges the ideal
/// output-parallel division of the whole top-model head — every layer column-partitioned
/// Megatron-style, `1/S` of the step per shard — which is also mathematically exact;
/// the functional simulation slices only the final layer because that is already
/// sufficient for bit-exactness, the hidden layers' column partition being
/// arithmetically transparent. Making the parameter-level trunk division real is a
/// recorded ROADMAP item.) One iteration runs exactly the tensor-parallel schedule:
///
/// 1. every shard runs the trunk forward on the full merged feature batch;
/// 2. every shard computes its **partial logits** `h · W_s^T + b_s` for its class slice;
/// 3. the partial logits are **all-gathered** into the full logit matrix, softmax/loss
///    runs on the gathered logits;
/// 4. the logit gradient is **scattered** back: each shard takes its class columns and
///    computes its own weight/bias gradient slices locally;
/// 5. the per-shard partial trunk gradients are **all-reduced** (evaluated here in
///    canonical class order — one GEMM against the gathered weight — so the sum carries
///    the exact bits of the unsharded backward rather than a reassociated float sum);
/// 6. the gradient-clipping norm (a scalar all-reduce across shards in a real system) is
///    folded in canonical full-model parameter order, and every shard applies the same
///    plain-SGD update to its slice while the trunk takes the identical full update.
///
/// Because every combining step evaluates the mathematically identical sum in the
/// unsharded operation order, the ensemble's trajectory is **bit-identical** to a single
/// [`TopShard`] — the property the topology-parity tests pin. The per-shard slice GEMMs
/// themselves are bitwise exact by the kernel contract (every backend computes each
/// output element as the same k-ordered fold, so a column block of the full GEMM equals
/// the narrow GEMM over the owned rows).
pub struct PartitionedShard {
    trunk: Sequential,
    in_features: usize,
    classes: usize,
    slices: Vec<ClassifierSlice>,
    lr: f32,
    loss: SoftmaxCrossEntropy,
}

impl PartitionedShard {
    /// Partitions a full top model across `num_shards` output slices. The model must end
    /// in a `Linear` classifier; the slice count is capped at the class count (a shard
    /// cannot own less than one output column). Slices are contiguous and balanced: the
    /// first `classes % shards` slices own one extra class.
    pub fn new(top: Sequential, num_shards: usize) -> Self {
        assert!(
            !top.is_empty(),
            "PartitionedShard: top model must have layers"
        );
        assert!(
            top.layer_names().last() == Some(&"Linear"),
            "PartitionedShard: top model must end in a Linear classifier"
        );
        let classifier_index = top.num_layers() - 1;
        let (trunk, classifier) = top.split_at(classifier_index);
        let params = classifier.params();
        let weight_shape = params[0].value.shape().to_vec();
        let (classes, in_features) = (weight_shape[0], weight_shape[1]);
        let weight = params[0].value.data();
        let bias = params[1].value.data();

        let shards = num_shards.max(1).min(classes);
        let base = classes / shards;
        let extra = classes % shards;
        let mut slices = Vec::with_capacity(shards);
        let mut lo = 0usize;
        for s in 0..shards {
            let width = base + usize::from(s < extra);
            let hi = lo + width;
            slices.push(ClassifierSlice {
                lo,
                hi,
                weight: weight[lo * in_features..hi * in_features].to_vec(),
                bias: bias[lo..hi].to_vec(),
                grad_w: vec![0.0; width * in_features],
                grad_b: vec![0.0; width],
            });
            lo = hi;
        }
        Self {
            trunk,
            in_features,
            classes,
            slices,
            // Matches TopShard's optimizer default; the engine overrides it every round.
            lr: 0.05,
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Number of classifier slices (parameter-server instances) in the ensemble.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// The contiguous class range owned by one slice.
    pub fn slice_range(&self, slice: usize) -> std::ops::Range<usize> {
        self.slices[slice].lo..self.slices[slice].hi
    }

    /// The all-gather of the partial logits: every slice's `h · W_s^T + b_s` block
    /// written into its class columns of the full `[batch, classes]` logit matrix.
    fn gathered_logits(&self, h: &Tensor) -> Tensor {
        let batch = h.shape()[0];
        let backend = kernels::default_backend();
        // The slices partition [0, classes), so every element of `full` is overwritten by
        // exactly one copy below — the exchange buffer can skip zeroing. The per-slice
        // partials are GEMM accumulation targets and must start zeroed.
        let mut full = mergesfl_nn::pool::take_uninit::<f32>(batch * self.classes);
        for s in &self.slices {
            let width = s.width();
            let mut partial = mergesfl_nn::pool::take_zeroed::<f32>(batch * width);
            kernels::gemm_nt(
                backend,
                batch,
                width,
                self.in_features,
                h.data(),
                &s.weight,
                &mut partial,
                Epilogue::BiasRow(&s.bias),
            );
            for (row, chunk) in partial.chunks(width).enumerate() {
                full[row * self.classes + s.lo..row * self.classes + s.hi].copy_from_slice(chunk);
            }
            mergesfl_nn::pool::recycle(partial);
        }
        Tensor::from_vec(full, &[batch, self.classes])
    }

    /// The gathered `[classes, in]` classifier weight (slices are contiguous row blocks,
    /// so gathering is concatenation in class order). Re-gathered per step by design:
    /// the copy is `classes·in` floats against the step's `batch·classes·in` GEMM work,
    /// and a persistent mirror would add a second state invariant to keep in sync
    /// through every slice update and `load_state`.
    fn gathered_weight(&self) -> Vec<f32> {
        let mut w = mergesfl_nn::pool::take_uninit::<f32>(self.classes * self.in_features);
        let mut offset = 0usize;
        for s in &self.slices {
            w[offset..offset + s.weight.len()].copy_from_slice(&s.weight);
            offset += s.weight.len();
        }
        w
    }
}

/// Copies the class columns `[lo, hi)` out of a row-major `[batch, classes]` matrix.
fn scatter_columns(grad: &Tensor, lo: usize, hi: usize) -> Vec<f32> {
    let cols = grad.shape()[1];
    let width = hi - lo;
    let mut out = mergesfl_nn::pool::take_uninit::<f32>(grad.shape()[0] * width);
    for (dst, row) in out.chunks_mut(width.max(1)).zip(grad.data().chunks(cols)) {
        dst.copy_from_slice(&row[lo..hi]);
    }
    out
}

impl TopModelShard for PartitionedShard {
    fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "PartitionedShard: learning rate must be positive");
        self.lr = lr;
    }

    fn begin_step(&mut self, merged: &MergedBatch) -> TopStep {
        self.trunk.zero_grad();
        let h = self.trunk.forward(&merged.features, true);
        let batch = h.shape()[0];
        let backend = kernels::default_backend();

        // Partial logits per slice, all-gathered before softmax/loss.
        let logits = self.gathered_logits(&h);
        let out = self.loss.forward(&logits, &merged.labels);

        // Scatter: each shard takes its class columns of the logit gradient and computes
        // its weight/bias gradient slices locally (the same GEMM/fold the unsharded
        // Linear backward runs restricted to the owned rows).
        for s in &mut self.slices {
            let width = s.width();
            let grad_block = scatter_columns(&out.grad, s.lo, s.hi);
            s.grad_w.fill(0.0);
            kernels::gemm_tn(
                backend,
                width,
                self.in_features,
                batch,
                &grad_block,
                h.data(),
                &mut s.grad_w,
                Epilogue::None,
            );
            s.grad_b.fill(0.0);
            for row in grad_block.chunks(width) {
                for (acc, g) in s.grad_b.iter_mut().zip(row) {
                    *acc += *g;
                }
            }
            mergesfl_nn::pool::recycle(grad_block);
        }

        // All-reduce of the partial trunk gradients, evaluated in canonical class order:
        // one GEMM against the gathered weight carries the exact bits of the unsharded
        // `grad_logits · W`, where a chunk-then-add float sum would not.
        let gathered_w = self.gathered_weight();
        let mut grad_h = mergesfl_nn::pool::take_zeroed::<f32>(batch * self.in_features);
        kernels::gemm_nn(
            backend,
            batch,
            self.in_features,
            self.classes,
            out.grad.data(),
            &gathered_w,
            &mut grad_h,
            Epilogue::None,
        );
        mergesfl_nn::pool::recycle(gathered_w);
        let grad_features = self
            .trunk
            .backward(&Tensor::from_vec(grad_h, &[batch, self.in_features]));
        let gradients = dispatch_gradients(merged, &grad_features);
        TopStep {
            loss: out.loss,
            accuracy: out.accuracy,
            gradients,
        }
    }

    fn finish_step(&mut self) {
        // Gradient clipping by global norm (a scalar all-reduce across shards in a real
        // deployment), folded in canonical full-model parameter order — trunk parameters
        // first, then the gathered classifier weight and bias — exactly as `Sgd::step`
        // folds the unsharded model.
        let mut sq_norm: f32 = 0.0;
        for p in self.trunk.params() {
            sq_norm += p.grad.data().iter().map(|g| g * g).sum::<f32>();
        }
        let mut weight_sq: f32 = 0.0;
        for s in &self.slices {
            for &g in &s.grad_w {
                weight_sq += g * g;
            }
        }
        sq_norm += weight_sq;
        let mut bias_sq: f32 = 0.0;
        for s in &self.slices {
            for &g in &s.grad_b {
                bias_sq += g * g;
            }
        }
        sq_norm += bias_sq;
        let norm = sq_norm.sqrt();
        let clip_scale = if norm.is_finite() && norm > GRAD_CLIP_NORM {
            GRAD_CLIP_NORM / norm
        } else {
            1.0
        };

        // Plain-SGD updates with the shared clip scale: the trunk takes the identical
        // full update on every shard (materialised once); each shard updates its own
        // slice. Element-for-element this is `Sgd::step` without momentum/weight decay.
        for p in self.trunk.params_mut() {
            let value = p.value.data_mut();
            let grad = p.grad.data();
            for i in 0..value.len() {
                let g = grad[i] * clip_scale;
                value[i] -= self.lr * g;
            }
        }
        for s in &mut self.slices {
            for i in 0..s.weight.len() {
                let g = s.grad_w[i] * clip_scale;
                s.weight[i] -= self.lr * g;
            }
            for i in 0..s.bias.len() {
                let g = s.grad_b[i] * clip_scale;
                s.bias[i] -= self.lr * g;
            }
        }
        self.trunk.zero_grad();
    }

    fn state(&self) -> Vec<f32> {
        // Canonical full-top-model layout: trunk parameters, then the classifier weight
        // (slices are contiguous row blocks) and bias — interchangeable with TopShard.
        let mut out = self.trunk.state();
        for s in &self.slices {
            out.extend_from_slice(&s.weight);
        }
        for s in &self.slices {
            out.extend_from_slice(&s.bias);
        }
        out
    }

    fn load_state(&mut self, state: &[f32]) {
        let trunk_len = self.trunk.num_params();
        let expected = trunk_len + self.classes * self.in_features + self.classes;
        assert_eq!(
            state.len(),
            expected,
            "PartitionedShard::load_state: expected {expected} values, got {}",
            state.len()
        );
        self.trunk.load_state(&state[..trunk_len]);
        let mut offset = trunk_len;
        for s in &mut self.slices {
            let n = s.weight.len();
            s.weight.copy_from_slice(&state[offset..offset + n]);
            offset += n;
        }
        for s in &mut self.slices {
            let n = s.bias.len();
            s.bias.copy_from_slice(&state[offset..offset + n]);
            offset += n;
        }
    }

    fn eval_forward(&mut self, features: &Tensor) -> Tensor {
        let h = self.trunk.forward(features, false);
        self.gathered_logits(&h)
    }
}

/// The sharded parameter-server subsystem: the shard instances, the cross-shard sync
/// policy, the global bottom model and the evaluation replica of the top model.
pub struct ShardedServer {
    shards: Vec<Box<dyn TopModelShard>>,
    topology: ShardTopology,
    /// Parameter-server instances the topology spreads the top model across. Replicated:
    /// one replica per routed group (`shards.len()`). Output-partitioned: the slice count
    /// of the one coordinated ensemble (`shards.len() == 1` routed group).
    instances: usize,
    sync_every: usize,
    /// Samples each shard processed since the last cross-shard sync (the sync weights).
    samples_since_sync: Vec<f64>,
    /// Bounded-staleness window `k`: each route group's gradients may be computed on
    /// top-model state up to `k` optimizer steps older than the state the update is
    /// applied to. 0 (the default) is the synchronous loop — no snapshots are taken and
    /// the step arithmetic is untouched.
    staleness: usize,
    /// Per-route-group ring of the `k` most recent pre-step parameter states. The oldest
    /// retained version is what `begin_step` computes gradients on; the worst-case
    /// deterministic schedule keeps the lag saturated at the ring length so the bound is
    /// actually exercised (a lighter backlog would make the convergence harness vacuous
    /// on this hardware profile, where the worker stage dominates the server stage).
    version_rings: Vec<VersionedSlot<Vec<f32>>>,
    /// Per-route-group snapshot of the *current* (pre-step) state, taken at `begin_step`
    /// and published to the ring at `finish_step`.
    pending_version: Vec<Option<Vec<f32>>>,
    /// Histogram of observed version lags (index = lag in optimizer steps, length
    /// `staleness + 1`); empty when `staleness == 0`. Drained per round by the engine.
    lag_counts: Vec<usize>,
    global_bottom: Vec<f32>,
    eval_top: Sequential,
    eval_loss: SoftmaxCrossEntropy,
}

impl ShardedServer {
    /// Creates the sharded server from identically initialised top-model replicas (one
    /// per shard), an evaluation replica of the same architecture, the initial global
    /// bottom-model state and the cross-shard sync period in rounds.
    pub fn new(
        tops: Vec<Sequential>,
        eval_top: Sequential,
        global_bottom: Vec<f32>,
        sync_every: usize,
    ) -> Self {
        assert!(!tops.is_empty(), "ShardedServer: need at least one shard");
        assert!(
            sync_every >= 1,
            "ShardedServer: sync_every must be positive"
        );
        let shards: Vec<Box<dyn TopModelShard>> = tops
            .into_iter()
            .map(|top| Box::new(TopShard::new(top)) as Box<dyn TopModelShard>)
            .collect();
        let samples_since_sync = vec![0.0; shards.len()];
        let instances = shards.len();
        let pending_version = (0..shards.len()).map(|_| None).collect();
        Self {
            shards,
            topology: ShardTopology::Replicated,
            instances,
            sync_every,
            samples_since_sync,
            staleness: 0,
            version_rings: Vec::new(),
            pending_version,
            lag_counts: Vec::new(),
            global_bottom,
            eval_top,
            eval_loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Creates an output-partitioned sharded server: one top model whose classifier is
    /// sliced across `num_shards` parameter-server instances (capped at the class count).
    /// The ensemble is routed as a single group — every instance sees the full cohort's
    /// merged batch and the shards exchange partial activations within the step — so
    /// there is no replica state to synchronise and `sync_every` does not apply.
    pub fn partitioned(
        top: Sequential,
        eval_top: Sequential,
        global_bottom: Vec<f32>,
        num_shards: usize,
    ) -> Self {
        assert!(num_shards >= 1, "ShardedServer: need at least one shard");
        let ensemble = PartitionedShard::new(top, num_shards);
        let instances = ensemble.num_slices();
        Self {
            shards: vec![Box::new(ensemble)],
            topology: ShardTopology::OutputPartitioned,
            instances,
            sync_every: 1,
            samples_since_sync: vec![0.0],
            staleness: 0,
            version_rings: Vec::new(),
            pending_version: vec![None],
            lag_counts: Vec::new(),
            global_bottom,
            eval_top,
            eval_loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// Number of parameter-server instances the top model is spread across.
    pub fn num_shards(&self) -> usize {
        self.instances
    }

    /// Number of independently routed server groups: one per replica under the
    /// replicated topology; exactly one under output partitioning, where every instance
    /// participates in every routed batch.
    pub fn num_route_groups(&self) -> usize {
        self.shards.len()
    }

    /// The shard layout in use.
    pub fn topology(&self) -> ShardTopology {
        self.topology
    }

    /// Cross-shard synchronisation period in rounds.
    pub fn sync_every(&self) -> usize {
        self.sync_every
    }

    /// Sets the learning rate used for top-model updates this round, on every shard.
    pub fn set_lr(&mut self, lr: f32) {
        for shard in &mut self.shards {
            shard.set_lr(lr);
        }
    }

    /// The current global bottom-model state broadcast to selected workers each round.
    pub fn global_bottom(&self) -> &[f32] {
        &self.global_bottom
    }

    /// Sets the bounded-staleness window `k` for every route group, (re)creating the
    /// per-group version rings. With `k = 0` no snapshots are taken and every step is
    /// the synchronous arithmetic, bit for bit.
    pub fn set_staleness(&mut self, staleness: usize) {
        self.staleness = staleness;
        self.version_rings = if staleness > 0 {
            (0..self.shards.len())
                .map(|_| VersionedSlot::new(staleness))
                .collect()
        } else {
            Vec::new()
        };
        self.pending_version = (0..self.shards.len()).map(|_| None).collect();
        self.lag_counts = if staleness > 0 {
            vec![0; staleness + 1]
        } else {
            Vec::new()
        };
    }

    /// The bounded-staleness window in optimizer steps (0 = synchronous).
    pub fn staleness(&self) -> usize {
        self.staleness
    }

    /// Drains the version-lag histogram accumulated since the last call (index = lag in
    /// optimizer steps, length `staleness + 1`; empty when `staleness == 0`).
    pub fn take_lag_counts(&mut self) -> Vec<usize> {
        if self.staleness == 0 {
            return Vec::new();
        }
        std::mem::replace(&mut self.lag_counts, vec![0; self.staleness + 1])
    }

    /// The dispatch-critical half of one stale-aware step: under a positive window the
    /// gradients are computed on the oldest state the group's version ring retains (the
    /// worst case the bound admits), then the *current* parameters are restored so the
    /// matching [`ShardedServer::finish_step`] applies those stale gradients to them.
    /// The restore only touches parameter values — the gradient buffers accumulated by
    /// `begin_step` survive untouched for the optimizer tail.
    fn stale_begin(&mut self, shard: usize, merged: &MergedBatch) -> TopStep {
        if self.staleness == 0 {
            return self.shards[shard].begin_step(merged);
        }
        let lag = self.version_rings[shard].lag();
        debug_assert!(
            lag <= self.staleness,
            "version lag {lag} exceeds the staleness bound {}",
            self.staleness
        );
        self.lag_counts[lag] += 1;
        let current = self.shards[shard].state();
        // Copy the stale snapshot through the pool instead of cloning: the ring keeps
        // its page, the working copy returns to the pool right after the restore.
        let stale = self.version_rings[shard].oldest().map(|(_, state)| {
            let mut copy = mergesfl_nn::pool::take_uninit::<f32>(state.len());
            copy.copy_from_slice(state);
            copy
        });
        let step = match stale {
            Some(state) => {
                self.shards[shard].load_state(&state);
                let step = self.shards[shard].begin_step(merged);
                self.shards[shard].load_state(&current);
                mergesfl_nn::pool::recycle(state);
                step
            }
            None => self.shards[shard].begin_step(merged),
        };
        debug_assert!(
            self.pending_version[shard].is_none(),
            "begin_step called twice without finish_step"
        );
        self.pending_version[shard] = Some(current);
        step
    }

    /// Routes one merged batch to a shard's dispatch-critical step (tracks the shard's
    /// processed samples for the sync weights).
    pub fn begin_step(&mut self, shard: usize, merged: &MergedBatch) -> TopStep {
        self.samples_since_sync[shard] += merged.total() as f64;
        self.stale_begin(shard, merged)
    }

    /// Routes the overlappable optimizer tail to a shard. Under a positive staleness
    /// window this publishes the pre-step state to the group's version ring, advancing
    /// the version the next steps may lag behind.
    pub fn finish_step(&mut self, shard: usize) {
        self.shards[shard].finish_step();
        if self.staleness > 0 {
            let pre_step = self.pending_version[shard]
                .take()
                .expect("finish_step without a matching begin_step");
            let (_, evicted) = self.version_rings[shard].publish_evicting(pre_step);
            if let Some(state) = evicted {
                mergesfl_nn::pool::recycle(state);
            }
        }
    }

    /// Routes one iteration's uploads to a shard with feature merging: one whole merged
    /// step ([`ShardedServer::begin_step`] then [`ShardedServer::finish_step`]).
    pub fn process_merged(&mut self, shard: usize, uploads: &[&FeatureUpload]) -> TopStep {
        let step = self.begin_step(shard, &merge_feature_refs(uploads));
        self.finish_step(shard);
        step
    }

    /// Routes one iteration's uploads to a shard without feature merging (typical SFL).
    /// Each per-worker update is its own version under a positive staleness window,
    /// mirroring the merged path's step granularity.
    pub fn process_sequential(&mut self, shard: usize, uploads: &[&FeatureUpload]) -> TopStep {
        sweep_per_worker(uploads, |single| {
            let step = self.begin_step(shard, single);
            self.finish_step(shard);
            step
        })
    }

    /// The cross-shard average of the shard top-model states, weighted by the samples
    /// each shard processed since the last sync (uniform right after a sync). With one
    /// shard this is that shard's state, bit for bit.
    pub fn averaged_top_state(&self) -> Vec<f32> {
        if self.shards.len() == 1 {
            return self.shards[0].state();
        }
        let states: Vec<Vec<f32>> = self.shards.iter().map(|s| s.state()).collect();
        let total: f64 = self.samples_since_sync.iter().sum();
        let weights: Vec<f32> = if total > 0.0 {
            self.samples_since_sync.iter().map(|&w| w as f32).collect()
        } else {
            vec![1.0; states.len()]
        };
        let averaged = weighted_average_states(&states, &weights);
        for state in states {
            mergesfl_nn::pool::recycle(state);
        }
        averaged
    }

    /// Performs one cross-shard synchronisation now: averages the replicas (weighted by
    /// samples processed since the last sync) and writes the result back to every shard.
    /// A single shard only resets its sample counter.
    pub fn sync_now(&mut self) {
        if self.shards.len() > 1 {
            let averaged = self.averaged_top_state();
            for shard in &mut self.shards {
                shard.load_state(&averaged);
            }
            mergesfl_nn::pool::recycle(averaged);
        }
        for w in &mut self.samples_since_sync {
            *w = 0.0;
        }
        // Averaging invalidates the retained versions: they no longer describe any live
        // parameter vector, so the staleness window restarts from the synced state. The
        // snapshots drain back to the pool rather than being freed.
        for ring in &mut self.version_rings {
            for (_, state) in ring.drain() {
                mergesfl_nn::pool::recycle(state);
            }
        }
    }

    /// Round-boundary hook: synchronises the shards when round `round` (0-based) ends a
    /// `sync_every`-period. Returns whether a sync ran.
    pub fn end_round(&mut self, round: usize) -> bool {
        let due = self.shards.len() > 1 && (round + 1).is_multiple_of(self.sync_every);
        if due {
            self.sync_now();
        }
        due
    }

    /// Aggregates bottom models pushed by the selected workers, weighting each by its
    /// batch size (paper Eq. 17). Passing equal weights reproduces plain FedAvg
    /// aggregation. The bottom plane is not sharded: one aggregate serves every shard.
    pub fn aggregate_bottoms(&mut self, states: &[Vec<f32>], weights: &[f32]) {
        let aggregated = weighted_average_states(states, weights);
        assert_eq!(
            aggregated.len(),
            self.global_bottom.len(),
            "aggregate_bottoms: bottom model size changed"
        );
        let old = std::mem::replace(&mut self.global_bottom, aggregated);
        mergesfl_nn::pool::recycle(old);
    }

    /// Loads the current global bottom-model state into an evaluation replica. Chunked
    /// evaluation loops call this once, then [`ShardedServer::evaluate_preloaded`] per
    /// chunk, instead of re-copying the full state for every chunk.
    pub fn load_global_bottom(&self, bottom_replica: &mut Sequential) {
        bottom_replica.load_state(&self.global_bottom);
    }

    /// Loads the evaluation replica of the top model with the current cross-shard
    /// average. Call once before a chunked evaluation loop; between syncs this is what
    /// "the global top model" means under the replicated topology. A single shard needs
    /// no replica — evaluation forwards through it directly, with zero state copies.
    pub fn prepare_eval(&mut self) {
        if self.shards.len() == 1 {
            return;
        }
        let state = self.averaged_top_state();
        self.eval_top.load_state(&state);
        mergesfl_nn::pool::recycle(state);
    }

    /// Evaluates the combined global model (aggregated bottom + cross-shard averaged
    /// top) on a dataset slice, returning `(loss, accuracy)`. The bottom replica passed
    /// in is loaded with the global state before evaluation.
    pub fn evaluate(
        &mut self,
        bottom_replica: &mut Sequential,
        inputs: &Tensor,
        labels: &[usize],
    ) -> (f32, f32) {
        self.load_global_bottom(bottom_replica);
        self.prepare_eval();
        self.evaluate_preloaded(bottom_replica, inputs, labels)
    }

    /// Evaluates on replicas already loaded via [`ShardedServer::load_global_bottom`] and
    /// [`ShardedServer::prepare_eval`].
    pub fn evaluate_preloaded(
        &mut self,
        bottom_replica: &mut Sequential,
        inputs: &Tensor,
        labels: &[usize],
    ) -> (f32, f32) {
        let features = bottom_replica.forward(inputs, false);
        let logits = if self.shards.len() == 1 {
            // The one replica IS the global top model: no averaged-state copy needed.
            self.shards[0].eval_forward(&features)
        } else {
            self.eval_top.forward(&features, false)
        };
        let out = self.eval_loss.forward(&logits, labels);
        (out.loss, out.accuracy)
    }

    /// Serialises one shard's top-model parameters (tests and diagnostics).
    pub fn shard_state(&self, shard: usize) -> Vec<f32> {
        self.shards[shard].state()
    }

    /// Serialises shard 0's top model (kept as the historical accessor name).
    pub fn top_state(&self) -> Vec<f32> {
        self.shards[0].state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mergesfl_nn::layers::{Linear, Relu};
    use mergesfl_nn::rng::seeded;

    fn toy_top() -> Sequential {
        let mut rng = seeded(1);
        Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 8, 16)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new(&mut rng, 16, 4)))
    }

    fn sharded(shards: usize, sync_every: usize) -> ShardedServer {
        let tops = (0..shards).map(|_| toy_top()).collect();
        ShardedServer::new(tops, toy_top(), vec![0.0; 10], sync_every)
    }

    fn upload(worker: usize, batch: usize, class: usize) -> FeatureUpload {
        let features = Tensor::full(&[batch, 8], 0.3 + class as f32 * 0.2);
        FeatureUpload::new(worker, features, vec![class; batch])
    }

    fn refs(uploads: &[FeatureUpload]) -> Vec<&FeatureUpload> {
        uploads.iter().collect()
    }

    #[test]
    fn merged_processing_returns_gradients_for_every_worker() {
        let mut shard = TopShard::new(toy_top());
        let uploads = vec![upload(0, 3, 0), upload(1, 5, 1), upload(2, 2, 3)];
        let step = shard.process_merged(&refs(&uploads));
        assert_eq!(step.gradients.len(), 3);
        assert_eq!(step.gradients[0].0, 0);
        assert_eq!(step.gradients[0].1.batch(), 3);
        assert_eq!(step.gradients[1].1.batch(), 5);
        assert!(step.loss > 0.0);
    }

    #[test]
    fn merged_processing_updates_top_model_once() {
        let mut shard = TopShard::new(toy_top());
        let before = shard.state();
        let uploads = [upload(0, 4, 0), upload(1, 4, 1)];
        let _ = shard.process_merged(&refs(&uploads));
        assert_ne!(before, shard.state());
    }

    #[test]
    fn sequential_processing_matches_upload_order_and_sizes() {
        let mut shard = TopShard::new(toy_top());
        let uploads = vec![upload(5, 2, 0), upload(9, 6, 1)];
        let step = shard.process_sequential(&refs(&uploads));
        assert_eq!(step.gradients.len(), 2);
        assert_eq!(step.gradients[0].0, 5);
        assert_eq!(step.gradients[0].1.batch(), 2);
        assert_eq!(step.gradients[1].0, 9);
        assert_eq!(step.gradients[1].1.batch(), 6);
    }

    #[test]
    fn merged_and_sequential_updates_differ_under_non_iid_uploads() {
        // Same initial top model, same uploads (each worker single-class): merging updates
        // the top model on the mixed batch, sequential updating takes two skewed steps. The
        // resulting top models must differ — this is the effect the paper's Fig. 4 shows.
        let uploads = vec![upload(0, 6, 0), upload(1, 6, 1)];
        let mut merged_shard = TopShard::new(toy_top());
        let mut seq_shard = TopShard::new(toy_top());
        let _ = merged_shard.process_merged(&refs(&uploads));
        let _ = seq_shard.process_sequential(&refs(&uploads));
        assert_ne!(merged_shard.state(), seq_shard.state());
    }

    #[test]
    fn first_stale_step_is_the_synchronous_step_bit_for_bit() {
        // With an empty ring (no prior finish_step) there is no older version to read:
        // the first step under any window must be the k = 0 arithmetic exactly.
        let uploads = [upload(0, 4, 0), upload(1, 4, 1)];
        let mut sync = sharded(1, 1);
        let mut stale = sharded(1, 1);
        stale.set_staleness(3);
        let a = sync.process_merged(0, &refs(&uploads));
        let b = stale.process_merged(0, &refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(sync.top_state(), stale.top_state());
        assert_eq!(stale.take_lag_counts(), vec![1, 0, 0, 0]);
    }

    #[test]
    fn stale_gradients_come_from_the_oldest_retained_version() {
        // Two steps at k = 1: step B's dispatched gradients must be computed on the
        // pre-step-A parameters (the ring's oldest version), not on the current ones —
        // while the update itself still applies to the current parameters.
        let batch_a = [upload(0, 4, 0)];
        let batch_b = [upload(0, 4, 1)];
        let mut server = sharded(1, 1);
        server.set_staleness(1);
        let v0 = server.top_state();
        let _ = server.process_merged(0, &refs(&batch_a));
        let v1 = server.top_state();
        let step_b = server.process_merged(0, &refs(&batch_b));

        let mut at_v0 = TopShard::new(toy_top());
        at_v0.load_state(&v0);
        let expected = at_v0.begin_step(&merge_feature_refs(&refs(&batch_b)));
        assert_eq!(step_b.loss, expected.loss);
        assert_eq!(step_b.gradients[0].1.data(), expected.gradients[0].1.data());
        let mut at_v1 = TopShard::new(toy_top());
        at_v1.load_state(&v1);
        let current = at_v1.begin_step(&merge_feature_refs(&refs(&batch_b)));
        assert_ne!(step_b.gradients[0].1.data(), current.gradients[0].1.data());

        // The update applied those stale gradients to v1, not to v0: the resulting state
        // differs from both a fully synchronous run and a run stuck at v0.
        at_v1.finish_step();
        assert_ne!(server.top_state(), at_v1.state());
        assert_ne!(server.top_state(), v1);
        assert_eq!(server.take_lag_counts(), vec![1, 1]);
    }

    #[test]
    fn lag_histogram_saturates_at_the_staleness_bound() {
        let uploads = [upload(0, 4, 0), upload(1, 4, 1)];
        let mut server = sharded(1, 1);
        server.set_staleness(2);
        for _ in 0..5 {
            let _ = server.process_merged(0, &refs(&uploads));
        }
        // Lags observed: 0 (empty ring), 1, then saturated at the bound.
        assert_eq!(server.take_lag_counts(), vec![1, 1, 3]);
        // Draining resets the histogram.
        assert_eq!(server.take_lag_counts(), vec![0, 0, 0]);
        assert_eq!(server.staleness(), 2);
    }

    #[test]
    fn cross_shard_sync_clears_the_version_rings() {
        let a = [upload(0, 6, 0)];
        let b = [upload(1, 6, 1)];
        let mut server = sharded(2, 1);
        server.set_staleness(2);
        for _ in 0..3 {
            let _ = server.process_merged(0, &refs(&a));
            let _ = server.process_merged(1, &refs(&b));
        }
        let _ = server.take_lag_counts();
        // The sync averages the replicas: every retained version is invalidated, so the
        // next step on each shard starts from an empty ring at lag 0.
        server.sync_now();
        let _ = server.process_merged(0, &refs(&a));
        let _ = server.process_merged(1, &refs(&b));
        assert_eq!(server.take_lag_counts(), vec![2, 0, 0]);
    }

    #[test]
    fn stale_sequential_processing_versions_every_per_worker_update() {
        // Without merging each routed worker's update is its own version: two uploads
        // advance the ring twice, and the second sub-step already lags the first.
        let uploads = vec![upload(5, 2, 0), upload(9, 6, 1)];
        let mut server = sharded(1, 1);
        server.set_staleness(2);
        let step = server.process_sequential(0, &refs(&uploads));
        assert_eq!(step.gradients.len(), 2);
        assert_eq!(step.gradients[0].0, 5);
        assert_eq!(step.gradients[1].0, 9);
        assert_eq!(server.take_lag_counts(), vec![1, 1, 0]);
    }

    #[test]
    fn partitioned_ensemble_matches_the_single_server_under_staleness() {
        // PartitionedShard state vectors are interchangeable with TopShard's, and both
        // run the same stale snapshot dance at the ShardedServer level: the same upload
        // stream at the same window must stay bit-identical between the layouts.
        let uploads = [upload(0, 4, 0), upload(1, 4, 1), upload(2, 4, 2)];
        let mut single = sharded(1, 1);
        let mut partitioned = ShardedServer::partitioned(toy_top(), toy_top(), vec![0.0; 10], 2);
        single.set_staleness(2);
        partitioned.set_staleness(2);
        for _ in 0..4 {
            let a = single.process_merged(0, &refs(&uploads));
            let b = partitioned.process_merged(0, &refs(&uploads));
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.accuracy, b.accuracy);
        }
        assert_eq!(single.top_state(), partitioned.top_state());
        assert_eq!(single.take_lag_counts(), partitioned.take_lag_counts());
    }

    #[test]
    fn single_shard_server_routes_work_identically_to_a_bare_shard() {
        // The bit-identity contract of num_servers = 1: routing through the sharded
        // server must be exactly the bare shard's arithmetic.
        let uploads = vec![upload(0, 3, 0), upload(1, 5, 1)];
        let mut bare = TopShard::new(toy_top());
        let mut server = sharded(1, 1);
        let a = bare.process_merged(&refs(&uploads));
        let b = server.process_merged(0, &refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(bare.state(), server.top_state());
        // end_round on a single shard is a no-op on the model.
        let before = server.top_state();
        assert!(!server.end_round(0));
        assert_eq!(before, server.top_state());
    }

    #[test]
    fn replicas_diverge_between_syncs_and_converge_at_sync() {
        let mut server = sharded(2, 1);
        // Each shard trains on a different single-class stream: replicas must diverge.
        let a = [upload(0, 6, 0)];
        let b = [upload(1, 6, 1)];
        let _ = server.process_merged(0, &refs(&a));
        let _ = server.process_merged(1, &refs(&b));
        assert_ne!(server.shard_state(0), server.shard_state(1));
        // The sync averages them back together.
        assert!(server.end_round(0));
        assert_eq!(server.shard_state(0), server.shard_state(1));
    }

    #[test]
    fn sync_weights_follow_samples_processed_since_last_sync() {
        let mut server = sharded(2, 1);
        let heavy = [upload(0, 12, 0)];
        let light = [upload(1, 2, 1)];
        let _ = server.process_merged(0, &refs(&heavy));
        let _ = server.process_merged(1, &refs(&light));
        let s0 = server.shard_state(0);
        let s1 = server.shard_state(1);
        let expected = weighted_average_states(&[s0, s1], &[12.0, 2.0]);
        assert_eq!(server.averaged_top_state(), expected);
        server.sync_now();
        assert_eq!(server.shard_state(0), expected);
        // Counters reset: the next average is uniform until new work arrives.
        assert_eq!(
            server.averaged_top_state(),
            weighted_average_states(&[expected.clone(), expected.clone()], &[1.0, 1.0])
        );
    }

    #[test]
    fn end_round_honours_the_sync_period() {
        let mut server = sharded(2, 3);
        assert!(!server.end_round(0));
        assert!(!server.end_round(1));
        assert!(server.end_round(2)); // rounds 0..=2 completed: one period
        assert!(!server.end_round(3));
        assert!(server.end_round(5));
        assert_eq!(server.sync_every(), 3);
        assert_eq!(server.topology(), ShardTopology::Replicated);
    }

    #[test]
    fn aggregation_replaces_global_bottom_with_weighted_average() {
        let tops = vec![toy_top()];
        let mut server = ShardedServer::new(tops, toy_top(), vec![0.0; 4], 1);
        server.aggregate_bottoms(&[vec![1.0; 4], vec![3.0; 4]], &[1.0, 1.0]);
        assert_eq!(server.global_bottom(), &[2.0, 2.0, 2.0, 2.0]);
        server.aggregate_bottoms(&[vec![0.0; 4], vec![4.0; 4]], &[3.0, 1.0]);
        assert_eq!(server.global_bottom(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn evaluate_combines_bottom_and_top() {
        let mut rng = seeded(2);
        let bottom = Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 6, 8)))
            .push(Box::new(Relu::new()));
        let global = bottom.state();
        let mut replica = Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 6, 8)))
            .push(Box::new(Relu::new()));
        let mut server = ShardedServer::new(vec![toy_top()], toy_top(), global, 1);
        let inputs = Tensor::full(&[5, 6], 0.2);
        let labels = vec![0, 1, 2, 3, 0];
        let (loss, acc) = server.evaluate(&mut replica, &inputs, &labels);
        assert!(loss > 0.0);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn partitioned_shard_matches_the_full_top_shard_bit_for_bit() {
        // The keystone of the output-partitioned topology: partial-logit forward,
        // scattered gradient slices, the canonical-order trunk all-reduce and the global
        // clip fold must reproduce the unsharded TopShard's arithmetic exactly — losses,
        // dispatched gradients and parameters, bit for bit, step after step (including
        // the early steps where gradient clipping is active).
        for shards in [1usize, 2, 3, 4] {
            let mut reference = TopShard::new(toy_top());
            let mut partitioned = PartitionedShard::new(toy_top(), shards);
            reference.set_lr(0.1);
            partitioned.set_lr(0.1);
            assert_eq!(reference.state(), partitioned.state(), "initial state");
            for step in 0..4 {
                let uploads = vec![
                    upload(0, 3, step % 4),
                    upload(1, 5, (step + 1) % 4),
                    upload(2, 2, (step + 2) % 4),
                ];
                let a = reference.process_merged(&refs(&uploads));
                let b = partitioned.process_merged(&refs(&uploads));
                assert_eq!(a.loss, b.loss, "{shards} shards, step {step}: loss");
                assert_eq!(a.accuracy, b.accuracy, "{shards} shards, step {step}");
                assert_eq!(a.gradients.len(), b.gradients.len());
                for ((wa, ga), (wb, gb)) in a.gradients.iter().zip(&b.gradients) {
                    assert_eq!(wa, wb);
                    assert_eq!(
                        ga.data(),
                        gb.data(),
                        "{shards} shards, step {step}: dispatched gradient"
                    );
                }
                assert_eq!(
                    reference.state(),
                    partitioned.state(),
                    "{shards} shards, step {step}: parameters diverged"
                );
            }
        }
    }

    #[test]
    fn partitioned_shard_sequential_processing_matches_the_reference() {
        // The no-merging (typical SFL) path steps once per routed worker; the partitioned
        // ensemble must track the reference through the provided sequential sweep too.
        let mut reference = TopShard::new(toy_top());
        let mut partitioned = PartitionedShard::new(toy_top(), 3);
        let uploads = vec![upload(4, 2, 0), upload(9, 6, 1), upload(2, 3, 3)];
        let a = reference.process_sequential(&refs(&uploads));
        let b = partitioned.process_sequential(&refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(reference.state(), partitioned.state());
        assert_eq!(a.gradients[1].0, 9);
        assert_eq!(a.gradients[1].1.data(), b.gradients[1].1.data());
    }

    #[test]
    fn partitioned_eval_forward_matches_the_full_model() {
        let mut reference = TopShard::new(toy_top());
        let mut partitioned = PartitionedShard::new(toy_top(), 4);
        let uploads = [upload(0, 4, 1), upload(1, 4, 2)];
        let _ = reference.process_merged(&refs(&uploads));
        let _ = partitioned.process_merged(&refs(&uploads));
        let features = Tensor::full(&[5, 8], 0.17);
        assert_eq!(
            reference.eval_forward(&features).data(),
            partitioned.eval_forward(&features).data()
        );
    }

    #[test]
    fn partitioned_slices_are_contiguous_balanced_and_capped_at_class_count() {
        // toy_top has 4 output classes: 3 shards slice as 2/1/1, and requesting more
        // shards than classes caps the ensemble (a shard cannot own zero columns).
        let three = PartitionedShard::new(toy_top(), 3);
        assert_eq!(three.num_slices(), 3);
        assert_eq!(three.slice_range(0), 0..2);
        assert_eq!(three.slice_range(1), 2..3);
        assert_eq!(three.slice_range(2), 3..4);
        let capped = PartitionedShard::new(toy_top(), 16);
        assert_eq!(capped.num_slices(), 4);
        let mut covered = 0;
        for s in 0..capped.num_slices() {
            let range = capped.slice_range(s);
            assert_eq!(range.start, covered, "slices must be contiguous");
            assert!(!range.is_empty());
            covered = range.end;
        }
        assert_eq!(covered, 4);
    }

    #[test]
    fn partitioned_state_roundtrips_through_the_slice_layout() {
        let reference = TopShard::new(toy_top());
        let mut partitioned = PartitionedShard::new(toy_top(), 3);
        let state = reference.state();
        partitioned.load_state(&state);
        assert_eq!(partitioned.state(), state);
    }

    #[test]
    fn partitioned_server_is_a_single_route_group_with_no_sync() {
        let mut server = ShardedServer::partitioned(toy_top(), toy_top(), vec![0.0; 10], 4);
        assert_eq!(server.topology(), ShardTopology::OutputPartitioned);
        assert_eq!(server.num_shards(), 4);
        assert_eq!(server.num_route_groups(), 1);
        let uploads = vec![upload(0, 3, 0), upload(1, 5, 1)];
        let a = server.process_merged(0, &refs(&uploads));

        // The ensemble's step equals the unsharded single-server step exactly, and the
        // round boundary never syncs (there is no replica state to reconverge).
        let mut reference = ShardedServer::new(vec![toy_top()], toy_top(), vec![0.0; 10], 1);
        let b = reference.process_merged(0, &refs(&uploads));
        assert_eq!(a.loss, b.loss);
        assert_eq!(server.top_state(), reference.top_state());
        let before = server.top_state();
        assert!(!server.end_round(0));
        assert!(!server.end_round(1));
        assert_eq!(server.top_state(), before);
    }

    #[test]
    fn partitioned_server_evaluation_matches_the_single_server() {
        let mut rng = seeded(5);
        let mut bottom = Sequential::new().push(Box::new(Linear::new(&mut rng, 6, 8)));
        let global = bottom.state();
        let mut partitioned = ShardedServer::partitioned(toy_top(), toy_top(), global.clone(), 4);
        let mut reference = ShardedServer::new(vec![toy_top()], toy_top(), global, 1);
        let uploads = [upload(0, 4, 0), upload(1, 4, 2)];
        let _ = partitioned.process_merged(0, &refs(&uploads));
        let _ = reference.process_merged(0, &refs(&uploads));
        let inputs = Tensor::full(&[3, 6], 0.1);
        let labels = vec![0, 1, 2];
        let (loss_a, acc_a) = partitioned.evaluate(&mut bottom, &inputs, &labels);
        let (loss_b, acc_b) = reference.evaluate(&mut bottom, &inputs, &labels);
        assert_eq!(loss_a, loss_b);
        assert_eq!(acc_a, acc_b);
    }

    #[test]
    fn evaluation_uses_the_cross_shard_average() {
        // Two diverged replicas: evaluation must go through their average, which equals
        // neither shard alone but equals a single-shard server loaded with that average.
        let mut rng = seeded(3);
        let mut bottom = Sequential::new().push(Box::new(Linear::new(&mut rng, 6, 8)));
        let mut server =
            ShardedServer::new(vec![toy_top(), toy_top()], toy_top(), bottom.state(), 10);
        let a = [upload(0, 4, 0)];
        let b = [upload(1, 4, 2)];
        let _ = server.process_merged(0, &refs(&a));
        let _ = server.process_merged(1, &refs(&b));
        server.prepare_eval();
        let averaged = server.averaged_top_state();
        assert_ne!(averaged, server.shard_state(0));
        assert_ne!(averaged, server.shard_state(1));

        let inputs = Tensor::full(&[3, 6], 0.1);
        let labels = vec![0, 1, 2];
        let (loss, _) = server.evaluate(&mut bottom, &inputs, &labels);

        let mut reference = ShardedServer::new(vec![toy_top()], toy_top(), bottom.state(), 1);
        reference.shards[0].load_state(&averaged);
        let (ref_loss, _) = reference.evaluate(&mut bottom, &inputs, &labels);
        assert_eq!(loss, ref_loss);
    }
}
