//! 1-D convolution, used by the speech-recognition model (CNN-S in the paper).

use super::{Layer, Param};
use crate::init;
use crate::kernels::{self, conv::ConvGeom};
use crate::tensor::Tensor;
use rand::Rng;

/// A 1-D convolution over `[batch, in_channels, length]` inputs.
///
/// Runs through [`crate::kernels::conv`] as a height-1 2-D convolution: the direct SIMD
/// kernel by default, or the original loop nest under [`kernels::KernelBackend::Naive`].
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// Creates a 1-D convolution layer with Kaiming-initialised weights and zero bias.
    pub fn new<R: Rng>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "Conv1d: invalid config"
        );
        let fan_in = in_channels * kernel;
        let weight = init::kaiming_normal(rng, &[out_channels, in_channels, kernel], fan_in);
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            cached_input: None,
        }
    }

    /// Output length for a given input length.
    pub fn output_len(&self, input: usize) -> usize {
        (input + 2 * self.padding - self.kernel) / self.stride + 1
    }

    fn geom(&self, input: &Tensor) -> ConvGeom {
        let (n, c_in, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        ConvGeom::conv1d(
            n,
            c_in,
            l,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
        )
    }

    /// Runs the backward kernels on the cached forward input, forming the input gradient
    /// only when `input_grad` is set.
    fn backward_kernels(&mut self, grad_output: &Tensor, input_grad: bool) -> Option<Tensor> {
        let input = self
            .cached_input
            .take()
            .expect("Conv1d::backward called without a cached forward pass");
        let geom = self.geom(&input);
        let backend = kernels::default_backend();
        let Param {
            value: weight,
            grad: weight_grad,
        } = &mut self.weight;
        let (x, w, g) = (input.data(), weight.data(), grad_output.data());
        let (gw, gb) = (weight_grad.data_mut(), self.bias.grad.data_mut());
        if input_grad {
            let grad_in = kernels::conv::conv_backward(backend, &geom, x, w, g, gw, gb);
            Some(Tensor::from_vec(grad_in, input.shape()))
        } else {
            kernels::conv::conv_backward_params(backend, &geom, x, w, g, gw, gb);
            None
        }
    }
}

impl Layer for Conv1d {
    fn name(&self) -> &'static str {
        "Conv1d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 3, "Conv1d: input must be [N, C, L]");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "Conv1d: channel mismatch"
        );
        let geom = self.geom(input);
        let out = kernels::conv::conv_forward(
            kernels::default_backend(),
            &geom,
            input.data(),
            self.weight.value.data(),
            self.bias.value.data(),
        );
        self.cached_input = Some(input.clone());
        Tensor::from_vec(out, &[geom.n, self.out_channels, geom.w_out()])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_kernels(grad_output, true)
            .expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_kernels(grad_output, false);
    }

    fn params(&self) -> Vec<&Param> {
        // lint: allow(hot-path-alloc) two-element parameter enumeration, called
        // once per optimizer step rather than per sample
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // lint: allow(hot-path-alloc) two-element parameter enumeration, called
        // once per optimizer step rather than per sample
        vec![&mut self.weight, &mut self.bias]
    }

    fn reset_cache(&mut self) {
        self.cached_input = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::check_input_gradient;
    use crate::rng::seeded;

    #[test]
    fn output_shape() {
        let mut rng = seeded(0);
        let mut conv = Conv1d::new(&mut rng, 2, 4, 3, 1, 1);
        let x = Tensor::zeros(&[3, 2, 16]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[3, 4, 16]);

        let mut strided = Conv1d::new(&mut rng, 2, 4, 3, 2, 0);
        let y2 = strided.forward(&x, true);
        assert_eq!(y2.shape(), &[3, 4, 7]);
    }

    #[test]
    fn known_value_moving_sum() {
        let mut rng = seeded(1);
        let mut conv = Conv1d::new(&mut rng, 1, 1, 2, 1, 0);
        conv.weight.value.data_mut().copy_from_slice(&[1.0, 1.0]);
        conv.bias.value.fill_zero();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded(2);
        let mut conv = Conv1d::new(&mut rng, 2, 3, 3, 1, 1);
        let x = init::kaiming_normal(&mut rng, &[1, 2, 6], 6);
        check_input_gradient(&mut conv, &x, 1e-2, 2e-2);
    }

    #[test]
    fn parameter_count() {
        let mut rng = seeded(3);
        let conv = Conv1d::new(&mut rng, 4, 8, 5, 1, 2);
        assert_eq!(conv.num_params(), 8 * 4 * 5 + 8);
    }
}
