//! Max-pooling kernels shared by `MaxPool1d` and `MaxPool2d`.
//!
//! Pooling has no meaningful blocked/naive split — there is a single deterministic
//! implementation, with the window stride equal to the window size (the only
//! configuration the model zoo uses). A 1-D pool is the `h = 1, kh = 1` special case.
//!
//! The forward pass runs row by row, folding each window's elements in ascending
//! `(ky, kx)` order with selects instead of branches. Each window keeps the first element
//! strictly greater than everything before it, starting from `-inf` and from the index of
//! the window's own first element — so a window holding only NaN (or `-inf`) routes its
//! gradient into itself. The body is multiversioned like the convolution kernel, and the
//! model zoo's `2 × 2` and `1 × 2` windows get a fast path that vectorises over a row's
//! windows. Every call runs on the calling thread: the engine's worker fan-out is the one
//! place training is split across threads.

use super::micro::{multiversion, Multiversion};

/// Max-pools `planes` independent `[h, w]` planes with a `kh × kw` window (stride equal
/// to the window). Returns the pooled values and, for each output element, the flat index
/// of its argmax in `x` — the exact format the layers' backward passes consume.
pub fn maxpool_forward(
    x: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
) -> (Vec<f32>, Vec<usize>) {
    assert!(kh > 0 && kw > 0, "maxpool_forward: window must be positive");
    assert_eq!(
        x.len(),
        planes * h * w,
        "maxpool_forward: input length mismatch"
    );
    assert!(
        h >= kh && w >= kw,
        "maxpool_forward: input smaller than window"
    );
    // Pooled checkouts, not zeroed: the kernel seeds every element before folding.
    let mut out = crate::pool::take_uninit::<f32>(planes * (h / kh) * (w / kw));
    let mut argmax = crate::pool::take_uninit::<usize>(out.len());
    if out.is_empty() {
        return (out, argmax);
    }
    multiversion(&mut PoolRows {
        x,
        h,
        w,
        kh,
        kw,
        out: &mut out,
        argmax: &mut argmax,
    });
    (out, argmax)
}

/// The planes of one pooling call.
struct PoolRows<'a> {
    x: &'a [f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    out: &'a mut [f32],
    argmax: &'a mut [usize],
}

impl Multiversion for PoolRows<'_> {
    #[inline(always)]
    fn run<const L: usize>(&mut self) {
        match (self.kh, self.kw) {
            (2, 2) => self.fixed_windows::<2, 2>(),
            (1, 2) => self.fixed_windows::<1, 2>(),
            _ => self.any_windows(),
        }
    }
}

impl PoolRows<'_> {
    /// Index in `x` of the first input element of each of the call's output rows.
    #[inline(always)]
    fn row_starts(&self, kh: usize, kw: usize) -> impl Iterator<Item = usize> {
        let (h_out, w_out) = (self.h / kh, self.w / kw);
        let (plane, row) = (self.h * self.w, kh * self.w);
        let planes = self.out.len() / (h_out * w_out);
        (0..planes).flat_map(move |p| (0..h_out).map(move |oy| p * plane + oy * row))
    }

    /// `KH × KW` windows: each window folds in registers, without branches, and the loop
    /// over a row's windows vectorises.
    #[inline(always)]
    fn fixed_windows<const KH: usize, const KW: usize>(&mut self) {
        let w_out = self.w / KW;
        for (r, row0) in self.row_starts(KH, KW).enumerate() {
            let rows: [&[[f32; KW]]; KH] = std::array::from_fn(|ky| {
                let start = row0 + ky * self.w;
                &self.x[start..start + w_out * KW].as_chunks::<KW>().0[..w_out]
            });
            let out = &mut self.out[r * w_out..][..w_out];
            let arg = &mut self.argmax[r * w_out..][..w_out];
            for ox in 0..w_out {
                // The winner's position inside its window, as a 32-bit code: the same
                // lane width as the values, so the loop vectorises over windows.
                let (mut m, mut k) = (f32::NEG_INFINITY, 0u32);
                for ky in 0..KH {
                    for kx in 0..KW {
                        let v = rows[ky][ox][kx];
                        let better = v > m;
                        m = if better { v } else { m };
                        k = if better { (ky * KW + kx) as u32 } else { k };
                    }
                }
                out[ox] = m;
                let k = k as usize;
                arg[ox] = row0 + (k / KW) * self.w + ox * KW + k % KW;
            }
        }
    }

    /// Any window, one at a time.
    #[inline(always)]
    fn any_windows(&mut self) {
        let (kh, kw, w) = (self.kh, self.kw, self.w);
        let w_out = w / kw;
        for (r, row0) in self.row_starts(kh, kw).enumerate() {
            let out = &mut self.out[r * w_out..][..w_out];
            let arg = &mut self.argmax[r * w_out..][..w_out];
            for (ox, (m, a)) in out.iter_mut().zip(arg.iter_mut()).enumerate() {
                (*m, *a) = (f32::NEG_INFINITY, row0 + ox * kw);
                for ky in 0..kh {
                    for kx in 0..kw {
                        let i = row0 + ky * w + ox * kw + kx;
                        if self.x[i] > *m {
                            (*m, *a) = (self.x[i], i);
                        }
                    }
                }
            }
        }
    }
}

/// Routes each output gradient back to the input position that produced its maximum.
pub fn maxpool_backward(grad_out: &[f32], argmax: &[usize], input_len: usize) -> Vec<f32> {
    assert_eq!(
        grad_out.len(),
        argmax.len(),
        "maxpool_backward: length mismatch"
    );
    let mut grad_in = crate::pool::take_zeroed::<f32>(input_len);
    for (g, &idx) in grad_out.iter().zip(argmax) {
        grad_in[idx] += g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_window_maxima_and_argmax() {
        #[rustfmt::skip]
        let x = vec![
            1.0, 2.0, 5.0, 6.0,
            3.0, 4.0, 7.0, 8.0,
        ];
        let (out, argmax) = maxpool_forward(&x, 1, 2, 4, 2, 2);
        assert_eq!(out, vec![4.0, 8.0]);
        assert_eq!(argmax, vec![5, 7]);
    }

    #[test]
    fn one_dimensional_pooling_is_height_one() {
        let x = vec![1.0, 5.0, 2.0, 3.0, 9.0, 0.0];
        let (out, argmax) = maxpool_forward(&x, 1, 1, 6, 1, 2);
        assert_eq!(out, vec![5.0, 3.0, 9.0]);
        assert_eq!(argmax, vec![1, 3, 4]);
    }

    #[test]
    fn backward_scatters_to_argmax() {
        let grad = maxpool_backward(&[10.0, 20.0], &[3, 1], 4);
        assert_eq!(grad, vec![0.0, 20.0, 0.0, 10.0]);
    }

    #[test]
    fn nan_only_window_keeps_its_gradient_in_its_own_window() {
        // Plane 1 of a 2-D pool is all NaN, as is the third window of a 1-D pool: no
        // element beats the -inf seed, so the argmax must still name the window's own
        // first element — never element 0 of the whole tensor.
        let nan = f32::NAN;
        let x = vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan];
        let (out, argmax) = maxpool_forward(&x, 2, 2, 2, 2, 2);
        assert_eq!(out, vec![4.0, f32::NEG_INFINITY]);
        assert_eq!(argmax, vec![3, 4]);
        let grad = maxpool_backward(&[1.0, 10.0], &argmax, x.len());
        assert_eq!(grad, vec![0.0, 0.0, 0.0, 1.0, 10.0, 0.0, 0.0, 0.0]);

        let x = vec![nan, 3.0, 5.0, nan, nan, nan];
        let (out, argmax) = maxpool_forward(&x, 1, 1, 6, 1, 2);
        assert_eq!(out, vec![3.0, 5.0, f32::NEG_INFINITY]);
        assert_eq!(argmax, vec![1, 2, 4]);
    }

    /// The per-window scan the row kernels replace, with the window's first index as seed.
    fn reference(
        x: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
    ) -> (Vec<f32>, Vec<usize>) {
        let (h_out, w_out) = (h / kh, w / kw);
        let (mut out, mut arg) = (Vec::new(), Vec::new());
        for p in 0..planes {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let first = p * h * w + oy * kh * w + ox * kw;
                    let (mut m, mut a) = (f32::NEG_INFINITY, first);
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let i = first + ky * w + kx;
                            if x[i] > m {
                                (m, a) = (x[i], i);
                            }
                        }
                    }
                    out.push(m);
                    arg.push(a);
                }
            }
        }
        (out, arg)
    }

    #[test]
    fn row_kernels_match_the_window_scan() {
        // Coarse values so ties are common, plus NaN and -inf entries.
        let mut x: Vec<f32> = (0..3 * 9 * 11)
            .map(|i| ((i * 7 % 5) as f32) - 2.0)
            .collect();
        x[13] = f32::NAN;
        x[50] = f32::NEG_INFINITY;
        for (h, w, kh, kw) in [
            (9, 11, 2, 2),
            (1, 99, 1, 2),
            (9, 11, 3, 3),
            (9, 11, 2, 3),
            (9, 11, 1, 1),
        ] {
            let planes = x.len() / (h * w);
            let (out, arg) = maxpool_forward(&x, planes, h, w, kh, kw);
            let (want_out, want_arg) = reference(&x, planes, h, w, kh, kw);
            assert_eq!(arg, want_arg, "{h}x{w} / {kh}x{kw}");
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want_out), "{h}x{w} / {kh}x{kw}");
        }
    }

    #[test]
    fn multiple_planes_are_independent() {
        let x = vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0];
        let (out, argmax) = maxpool_forward(&x, 2, 2, 2, 2, 2);
        assert_eq!(out, vec![4.0, 8.0]);
        assert_eq!(argmax, vec![3, 4]);
    }
}
