//! Feed-forward layers with exact manual backward passes.
//!
//! Each layer implements the [`Layer`] trait: `forward` caches whatever it needs for the
//! backward pass, `backward` consumes the gradient of the loss with respect to the layer's
//! output and returns the gradient with respect to its input, accumulating parameter
//! gradients into the layer's [`Param`]s along the way.
//!
//! The trait is object-safe so that models can be built as `Vec<Box<dyn Layer>>` and split
//! at an arbitrary layer index — the core requirement of split federated learning.

mod activation;
mod conv1d;
mod conv2d;
mod dropout;
mod flatten;
mod linear;
mod pool;

pub use activation::Relu;
pub use conv1d::Conv1d;
pub use conv2d::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{MaxPool1d, MaxPool2d};

use crate::tensor::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the last backward pass.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value of the parameter.
    pub value: Tensor,
    /// Gradient of the loss with respect to this parameter (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter from an initial value, with a zeroed gradient buffer.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Number of scalar elements in this parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the gradient buffer to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A neural-network layer with a manual backward pass.
pub trait Layer: Send {
    /// Human-readable layer name (used in model summaries and error messages).
    fn name(&self) -> &'static str;

    /// Computes the layer output for `input`.
    ///
    /// `train` selects training-time behaviour (e.g. dropout masks are only sampled when
    /// `train` is true). Implementations cache activations needed by [`Layer::backward`].
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Computes the gradient with respect to the layer input given the gradient with
    /// respect to the layer output, accumulating parameter gradients.
    ///
    /// Must be called after a corresponding `forward` with `train = true` semantics; the
    /// cached activations of that forward pass are consumed.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads (a model's first
    /// layer): accumulates exactly the same parameter gradients. The default runs
    /// `backward` and drops the result; layers with an input gradient worth skipping
    /// override it.
    fn backward_params(&mut self, grad_output: &Tensor) {
        drop(self.backward(grad_output));
    }

    /// Immutable access to this layer's parameters (may be empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to this layer's parameters (may be empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Total number of trainable scalars in the layer.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Clears cached activations (useful between epochs to bound memory).
    fn reset_cache(&mut self) {}
}

/// Numerically checks a layer's backward pass against central finite differences.
///
/// Only used by tests; exposed here so every layer module (and downstream crates) can reuse
/// the same checker.
#[cfg(test)]
pub(crate) fn check_input_gradient<L: Layer>(layer: &mut L, input: &Tensor, eps: f32, tol: f32) {
    // Loss = sum(output), so dLoss/dOutput = ones.
    let out = layer.forward(input, true);
    let grad_out = Tensor::ones(out.shape());
    let grad_in = layer.backward(&grad_out);
    assert_eq!(grad_in.shape(), input.shape());

    for idx in 0..input.len() {
        let mut plus = input.clone();
        plus.data_mut()[idx] += eps;
        let mut minus = input.clone();
        minus.data_mut()[idx] -= eps;
        let f_plus = layer.forward(&plus, true).sum();
        let f_minus = layer.forward(&minus, true).sum();
        let numeric = (f_plus - f_minus) / (2.0 * eps);
        let analytic = grad_in.data()[idx];
        assert!(
            (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
            "gradient mismatch at {idx}: numeric {numeric} vs analytic {analytic}"
        );
    }
}
