//! Sequential model container.
//!
//! [`Sequential`] owns an ordered list of boxed [`Layer`]s and provides forward/backward
//! passes plus flat parameter (de)serialisation. The flat-vector view is what federated
//! aggregation operates on: bottom models from multiple workers are averaged element-wise
//! (optionally with per-worker weights) and loaded back.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;
use crate::F32_BYTES;

/// An ordered stack of layers applied one after another.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Creates a model from pre-built layers.
    pub fn from_layers(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the model.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order (used for summaries and split-point validation).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Runs a forward pass through every layer.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Runs a backward pass through every layer in reverse order, returning the gradient
    /// with respect to the model input.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// [`Self::backward`] for a model whose input gradient nobody reads — a worker's bottom
    /// model, or a whole model trained locally. Parameter gradients are bit-identical to
    /// `backward`'s; the first layer skips its input gradient.
    pub fn backward_params(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output)));
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output));
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Clears cached activations in every layer.
    pub fn reset_cache(&mut self) {
        for layer in &mut self.layers {
            layer.reset_cache();
        }
    }

    /// All parameters of the model, in layer order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable access to all parameters of the model, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Size of the serialised parameters in bytes (used for traffic accounting).
    pub fn param_bytes(&self) -> usize {
        self.num_params() * F32_BYTES
    }

    /// Copies all parameters into one flat vector (layer order, value order within layer).
    /// The buffer is pooled — dropping it (or passing it back through
    /// [`crate::pool::recycle`]) keeps the page for the next snapshot.
    pub fn state(&self) -> Vec<f32> {
        let mut out = crate::pool::take_uninit::<f32>(self.num_params());
        let mut offset = 0usize;
        for p in self.params() {
            let data = p.value.data();
            out[offset..offset + data.len()].copy_from_slice(data);
            offset += data.len();
        }
        out
    }

    /// Copies all parameter gradients into one flat vector (same ordering as [`Self::state`]).
    pub fn grad_state(&self) -> Vec<f32> {
        let mut out = crate::pool::take_uninit::<f32>(self.num_params());
        let mut offset = 0usize;
        for p in self.params() {
            let data = p.grad.data();
            out[offset..offset + data.len()].copy_from_slice(data);
            offset += data.len();
        }
        out
    }

    /// Loads parameters from a flat vector produced by [`Self::state`] on a model with the
    /// same architecture. Panics if the length does not match.
    pub fn load_state(&mut self, state: &[f32]) {
        let expected = self.num_params();
        assert_eq!(
            state.len(),
            expected,
            "load_state: expected {expected} values, got {}",
            state.len()
        );
        let mut offset = 0usize;
        for p in self.params_mut() {
            let n = p.len();
            p.value
                .data_mut()
                .copy_from_slice(&state[offset..offset + n]);
            offset += n;
        }
    }

    /// Splits the model into `(bottom, top)` at `split_index`: layers `[0, split_index)` go
    /// to the bottom model, layers `[split_index, len)` to the top model.
    pub fn split_at(self, split_index: usize) -> (Sequential, Sequential) {
        assert!(
            split_index <= self.layers.len(),
            "split_at: index {split_index} beyond {} layers",
            self.layers.len()
        );
        let mut layers = self.layers;
        let top_layers = layers.split_off(split_index);
        (Sequential { layers }, Sequential { layers: top_layers })
    }
}

/// Computes a weighted average of flat parameter states.
///
/// This implements the paper's bottom-model aggregation (Eq. 17): each worker's bottom model
/// is weighted by its batch size `d_i` relative to the total. Passing equal weights recovers
/// plain FedAvg aggregation (Eq. 4).
pub fn weighted_average_states(states: &[Vec<f32>], weights: &[f32]) -> Vec<f32> {
    assert!(!states.is_empty(), "weighted_average_states: no states");
    assert_eq!(
        states.len(),
        weights.len(),
        "weighted_average_states: weight count mismatch"
    );
    let len = states[0].len();
    for s in states {
        assert_eq!(
            s.len(),
            len,
            "weighted_average_states: state length mismatch"
        );
    }
    let total: f32 = weights.iter().sum();
    assert!(
        total > 0.0,
        "weighted_average_states: weights must sum to a positive value"
    );
    let mut out = crate::pool::take_zeroed::<f32>(len);
    for (state, &w) in states.iter().zip(weights) {
        let coeff = w / total;
        for (o, &v) in out.iter_mut().zip(state) {
            *o += coeff * v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::rng::seeded;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = seeded(seed);
        Sequential::new()
            .push(Box::new(Linear::new(&mut rng, 4, 8)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new(&mut rng, 8, 3)))
    }

    #[test]
    fn forward_shape() {
        let mut model = tiny_mlp(0);
        let x = Tensor::ones(&[5, 4]);
        let y = model.forward(&x, true);
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(model.num_layers(), 3);
    }

    #[test]
    fn state_roundtrip() {
        let mut a = tiny_mlp(1);
        let mut b = tiny_mlp(2);
        let x = Tensor::ones(&[2, 4]);
        assert_ne!(a.forward(&x, false).data(), b.forward(&x, false).data());
        let state = a.state();
        assert_eq!(state.len(), a.num_params());
        b.load_state(&state);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    fn zero_grad_clears_gradients() {
        let mut model = tiny_mlp(3);
        let x = Tensor::ones(&[2, 4]);
        let y = model.forward(&x, true);
        model.backward(&Tensor::ones(y.shape()));
        assert!(model.grad_state().iter().any(|&g| g != 0.0));
        model.zero_grad();
        assert!(model.grad_state().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn split_preserves_composition() {
        let mut full = tiny_mlp(4);
        let x = Tensor::ones(&[3, 4]);
        let y_full = full.forward(&x, false);

        let (mut bottom, mut top) = tiny_mlp(4).split_at(2);
        assert_eq!(bottom.num_layers(), 2);
        assert_eq!(top.num_layers(), 1);
        let features = bottom.forward(&x, false);
        let y_split = top.forward(&features, false);
        assert_eq!(y_full.data(), y_split.data());
    }

    #[test]
    fn backward_params_matches_backward_bit_for_bit() {
        use crate::layers::{Conv1d, Conv2d, Flatten};
        let conv2d = |seed| {
            let mut rng = seeded(seed);
            Sequential::new()
                .push(Box::new(Conv2d::new(&mut rng, 3, 5, 3, 1, 1)))
                .push(Box::new(Relu::new()))
                .push(Box::new(Conv2d::new(&mut rng, 5, 4, 3, 2, 0)))
                .push(Box::new(Flatten::new()))
        };
        let conv1d = |seed| {
            let mut rng = seeded(seed);
            Sequential::new()
                .push(Box::new(Conv1d::new(&mut rng, 2, 6, 5, 1, 2)))
                .push(Box::new(Relu::new()))
                .push(Box::new(Conv1d::new(&mut rng, 6, 3, 3, 1, 1)))
        };
        let cases: [(Sequential, Sequential, Vec<usize>); 3] = [
            (conv2d(7), conv2d(7), vec![2, 3, 7, 6]),
            (conv1d(8), conv1d(8), vec![3, 2, 11]),
            (tiny_mlp(9), tiny_mlp(9), vec![5, 4]),
        ];
        for (mut full, mut params_only, shape) in cases {
            let len = shape.iter().product();
            let x = Tensor::from_vec((0..len).map(|i| (i as f32 * 0.37).sin()).collect(), &shape);
            let y = full.forward(&x, true);
            let g = Tensor::from_vec(
                (0..y.len()).map(|i| (i as f32 * 0.11).cos()).collect(),
                y.shape(),
            );
            full.backward(&g);
            params_only.forward(&x, true);
            params_only.backward_params(&g);
            assert_eq!(full.grad_state(), params_only.grad_state());
        }
        // An empty model has no gradients to accumulate.
        Sequential::new().backward_params(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn weighted_average_equal_weights_is_mean() {
        let a = vec![0.0, 2.0];
        let b = vec![4.0, 6.0];
        let avg = weighted_average_states(&[a, b], &[1.0, 1.0]);
        assert_eq!(avg, vec![2.0, 4.0]);
    }

    #[test]
    fn weighted_average_respects_weights() {
        let a = vec![0.0];
        let b = vec![10.0];
        let avg = weighted_average_states(&[a, b], &[3.0, 1.0]);
        assert!((avg[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn weighted_average_rejects_mismatched_lengths() {
        let _ = weighted_average_states(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 1.0]);
    }

    #[test]
    fn param_bytes_matches_f32_size() {
        let model = tiny_mlp(5);
        assert_eq!(model.param_bytes(), model.num_params() * 4);
    }
}
