//! Convolution kernels: the naive loop nests (oracle) and a direct SIMD kernel (blocked).
//!
//! One generalised geometry, [`ConvGeom`], covers both layer types: `Conv2d` maps to a
//! square kernel over `[n, c_in, h, w]`, and `Conv1d` is the `h = 1, kh = 1` special case
//! over `[n, c_in, 1, l]`. Both backends implement **forward and backward** so either can
//! run a whole training step.
//!
//! # The direct kernel
//!
//! [`KernelBackend::Blocked`] convolves directly, with one code path for every stride,
//! padding and channel count. Each image is staged once into pooled scratch, as a
//! zero-padded copy of `hp` rows with pitch `wp` (the padded width rounded up to a
//! multiple of the horizontal stride `sw`). Outputs are computed in *wide*
//! coordinates: output `(oy, ox)` is position `j = oy·pitch + ox` with
//! `pitch = sh·wp / sw`, and tap `(ci, ky, kx)` of position `j` reads staged element
//! `sw·j + ci·hp·wp + ky·wp + kx`. So every tap of `L` consecutive positions is one
//! contiguous `L`-lane load (a strided gather when `sw > 1`), register-blocked over
//! output channels; the positions that wrap past a row's end are computed and dropped.
//!
//! The body is written once over `L`-lane arrays and compiled for AVX-512F, AVX and
//! baseline x86-64 by `micro::multiversion`, which follows the runtime's
//! micro-kernel policy (`MERGESFL_MICROKERNEL`).
//!
//! # Accumulation order
//!
//! Each output keeps one fixed fold order, whatever the lane width or blocking:
//!
//! * **forward** starts from the bias and adds the taps in ascending `(ci, ky, kx)` order —
//!   the naive nest's order, so forward is bit-identical to the oracle on finite inputs;
//! * **grad_w** folds images in batch order, then output positions in ascending order,
//!   vectorised over output channels; **grad_b** folds each output plane in scan order —
//!   both again the naive order;
//! * **grad_in** visits the taps in *descending* `(ky, kx)` order, adding for each a dot
//!   product over `co` that starts from `0.0`. For one input element, descending taps are
//!   ascending output positions, so every element folds its per-position terms in scan
//!   order. The gradient is read from a zero-stuffed frame, and taps that land outside the
//!   output add an exact `+0.0` (an accumulator that starts at `+0.0` is never `-0.0`).
//!   The naive nest sums per output channel instead, so grad_in is the one reduction
//!   that differs from the oracle, by a few ULPs (see `tests/kernel_parity.rs`).

use super::micro::{multiversion, Multiversion};
use super::{init_bias_planes, KernelBackend};

/// Widest vector any instantiation uses (AVX-512F, 16 lanes): sizes the staging slack
/// that the last, partly used vector of a row may read.
const MAX_LANES: usize = 16;

/// Geometry of a (possibly 1-D) convolution.
#[derive(Clone, Copy, Debug)]
pub struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c_in: usize,
    /// Input height (1 for 1-D convolutions).
    pub h: usize,
    /// Input width (the sequence length for 1-D convolutions).
    pub w: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel height (1 for 1-D convolutions).
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Vertical zero padding (0 for 1-D convolutions).
    pub ph: usize,
    /// Horizontal zero padding.
    pub pw: usize,
}

impl ConvGeom {
    /// Geometry of a square-kernel 2-D convolution (the `Conv2d` layer).
    pub fn conv2d(
        n: usize,
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            n,
            c_in,
            h,
            w,
            c_out,
            kh: kernel,
            kw: kernel,
            sh: stride,
            sw: stride,
            ph: padding,
            pw: padding,
        }
    }

    /// Geometry of a 1-D convolution (the `Conv1d` layer) as a height-1 2-D convolution.
    pub fn conv1d(
        n: usize,
        c_in: usize,
        l: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            n,
            c_in,
            h: 1,
            w: l,
            c_out,
            kh: 1,
            kw: kernel,
            sh: 1,
            sw: stride,
            ph: 0,
            pw: padding,
        }
    }

    /// Output height.
    pub fn h_out(&self) -> usize {
        (self.h + 2 * self.ph - self.kh) / self.sh + 1
    }

    /// Output width.
    pub fn w_out(&self) -> usize {
        (self.w + 2 * self.pw - self.kw) / self.sw + 1
    }

    fn per_image_in(&self) -> usize {
        self.c_in * self.h * self.w
    }

    fn per_image_out(&self) -> usize {
        self.c_out * self.h_out() * self.w_out()
    }

    /// Kernel taps per output channel: one per `(ci, ky, kx)`.
    fn patch_len(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    fn validate(&self, x_len: usize, w_len: usize) {
        assert!(
            self.c_in > 0
                && self.c_out > 0
                && self.kh > 0
                && self.kw > 0
                && self.sh > 0
                && self.sw > 0,
            "ConvGeom: invalid configuration"
        );
        assert!(
            self.h + 2 * self.ph >= self.kh && self.w + 2 * self.pw >= self.kw,
            "ConvGeom: input smaller than kernel"
        );
        assert_eq!(
            x_len,
            self.n * self.per_image_in(),
            "ConvGeom: input length mismatch"
        );
        assert_eq!(
            w_len,
            self.c_out * self.patch_len(),
            "ConvGeom: weight length mismatch"
        );
    }
}

/// Convolution forward pass; returns the `[n, c_out, h_out, w_out]` output buffer.
///
/// `weight` is `[c_out, c_in, kh, kw]` row-major, `bias` is `[c_out]`.
pub fn conv_forward(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
) -> Vec<f32> {
    geom.validate(x.len(), weight.len());
    assert_eq!(bias.len(), geom.c_out, "conv_forward: bias length mismatch");
    // Pooled page, not zeroed: both backends write every element. Callers adopt the
    // returned buffer into a pooled Tensor (or recycle it), closing the reuse loop.
    let mut out = crate::pool::take_uninit::<f32>(geom.n * geom.per_image_out());
    match backend {
        KernelBackend::Naive => {
            // The naive nest accumulates on top of the bias planes.
            init_bias_planes(&mut out, bias, geom.h_out() * geom.w_out());
            forward_naive(geom, x, weight, &mut out);
        }
        KernelBackend::Blocked => forward_direct(geom, x, weight, bias, &mut out),
    }
    out
}

/// Convolution backward pass.
///
/// Accumulates the weight gradient into `grad_w` (`[c_out, c_in, kh, kw]`) and the bias
/// gradient into `grad_b` (`[c_out]`), exactly as the layers' `Param::grad` buffers
/// expect, and returns the input gradient (`[n, c_in, h, w]`).
pub fn conv_backward(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) -> Vec<f32> {
    check_backward(geom, x, weight, grad_out, grad_w, grad_b);
    // The naive nest accumulates into grad_in; the direct kernel writes every element.
    let mut grad_in = match backend {
        KernelBackend::Naive => crate::pool::take_zeroed::<f32>(x.len()),
        KernelBackend::Blocked => crate::pool::take_uninit::<f32>(x.len()),
    };
    match backend {
        KernelBackend::Naive => {
            backward_naive(geom, x, weight, grad_out, grad_w, grad_b, &mut grad_in)
        }
        KernelBackend::Blocked => backward_direct(
            geom,
            x,
            weight,
            grad_out,
            grad_w,
            grad_b,
            Some(&mut grad_in),
        ),
    }
    grad_in
}

/// The parameter half of [`conv_backward`]: accumulates `grad_w` and `grad_b` bit for bit
/// as [`conv_backward`] does, without forming the input gradient. For a model's first
/// layer, whose input gradient nobody reads.
pub fn conv_backward_params(
    backend: KernelBackend,
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
) {
    check_backward(geom, x, weight, grad_out, grad_w, grad_b);
    match backend {
        KernelBackend::Naive => {
            // The oracle nest forms both gradients together; drop the input half.
            let mut grad_in = crate::pool::take_zeroed::<f32>(x.len());
            backward_naive(geom, x, weight, grad_out, grad_w, grad_b, &mut grad_in);
            crate::pool::recycle(grad_in);
        }
        KernelBackend::Blocked => backward_direct(geom, x, weight, grad_out, grad_w, grad_b, None),
    }
}

fn check_backward(
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &[f32],
    grad_b: &[f32],
) {
    geom.validate(x.len(), weight.len());
    assert_eq!(
        grad_out.len(),
        geom.n * geom.per_image_out(),
        "conv_backward: grad_out length mismatch"
    );
    assert_eq!(
        grad_w.len(),
        weight.len(),
        "conv_backward: grad_w length mismatch"
    );
    assert_eq!(
        grad_b.len(),
        geom.c_out,
        "conv_backward: grad_b length mismatch"
    );
}

// ---------------------------------------------------------------------------
// Naive oracle: the seed repository's direct loop nests, generalised to ConvGeom.
// ---------------------------------------------------------------------------

fn forward_naive(geom: &ConvGeom, x: &[f32], weight: &[f32], out: &mut [f32]) {
    let (h_out, w_out) = (geom.h_out(), geom.w_out());
    let &ConvGeom {
        n,
        c_in,
        h,
        w,
        c_out,
        kh,
        kw,
        sh,
        sw,
        ..
    } = geom;
    let (ph, pw) = (geom.ph as isize, geom.pw as isize);
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let oi = ((ni * c_out + co) * h_out + oy) * w_out + ox;
                    let mut acc = out[oi];
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as isize - ph;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as isize - pw;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((ni * c_in + ci) * h + iy as usize) * w + ix as usize;
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                acc += x[xi] * weight[wi];
                            }
                        }
                    }
                    out[oi] = acc;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn backward_naive(
    geom: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
    grad_in: &mut [f32],
) {
    let (h_out, w_out) = (geom.h_out(), geom.w_out());
    let &ConvGeom {
        n,
        c_in,
        h,
        w,
        c_out,
        kh,
        kw,
        sh,
        sw,
        ..
    } = geom;
    let (ph, pw) = (geom.ph as isize, geom.pw as isize);
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..h_out {
                for ox in 0..w_out {
                    let g = grad_out[((ni * c_out + co) * h_out + oy) * w_out + ox];
                    if g == 0.0 {
                        continue;
                    }
                    grad_b[co] += g;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = (oy * sh + ky) as isize - ph;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * sw + kx) as isize - pw;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = ((ni * c_in + ci) * h + iy as usize) * w + ix as usize;
                                let wi = ((co * c_in + ci) * kh + ky) * kw + kx;
                                grad_w[wi] += g * x[xi];
                                grad_in[xi] += g * weight[wi];
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Direct kernel: staged wide-coordinate convolution, multiversioned.
// ---------------------------------------------------------------------------

/// The wide-coordinate layout of one call (see the module docs).
struct Wide {
    h_out: usize,
    w_out: usize,
    /// Staged rows per plane: the padded input height.
    hp: usize,
    /// Staged row pitch: the padded input width rounded up to a multiple of `sw`.
    wp: usize,
    /// Horizontal stride: the lane step of a tap's load.
    sw: usize,
    /// Output row pitch in wide coordinates, `sh·wp / sw`.
    pitch: usize,
    /// Wide output positions per image, `(h_out − 1)·pitch + w_out`.
    span: usize,
}

impl Wide {
    fn new(g: &ConvGeom) -> Self {
        let (h_out, w_out) = (g.h_out(), g.w_out());
        let wp = (g.w + 2 * g.pw).next_multiple_of(g.sw);
        let pitch = g.sh * wp / g.sw;
        Self {
            h_out,
            w_out,
            hp: g.h + 2 * g.ph,
            wp,
            sw: g.sw,
            pitch,
            span: (h_out - 1) * pitch + w_out,
        }
    }

    fn plane(&self) -> usize {
        self.hp * self.wp
    }

    /// Staged offset of the flattened `(ci, ky, kx)` tap `t` from its output position.
    fn tap_offset(&self, g: &ConvGeom, t: usize) -> usize {
        let (ci, k) = (t / (g.kh * g.kw), t % (g.kh * g.kw));
        ci * self.plane() + (k / g.kw) * self.wp + k % g.kw
    }
}

/// Copies `[h, w]` planes into `dst` as zero-padded `[hp, wp]` planes. The rest of `dst`
/// is zeroed too: it is the slack the last, partly used vector of a plane may read.
fn stage_planes(g: &ConvGeom, lay: &Wide, x: &[f32], dst: &mut [f32]) {
    dst.fill(0.0);
    if g.h * g.w == 0 {
        return;
    }
    let top = g.ph * lay.wp + g.pw;
    for (src, plane) in x
        .chunks_exact(g.h * g.w)
        .zip(dst.chunks_exact_mut(lay.plane()))
    {
        for (iy, row) in src.chunks_exact(g.w).enumerate() {
            plane[top + iy * lay.wp..][..g.w].copy_from_slice(row);
        }
    }
}

/// Register blocks over `n` channels (or taps): `(first, width)` pairs of width 8, ending
/// in a block of 4 when at most 4 remain; the last block is padded with entries whose
/// results are dropped.
fn blocks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut first = 0;
    std::iter::from_fn(move || {
        (first < n).then(|| {
            let width = if n - first > 4 { 8 } else { 4 };
            first += width;
            (first - width, width)
        })
    })
}

/// `n` rounded up to the padded extent of [`blocks`].
fn padded(n: usize) -> usize {
    blocks(n).last().map_or(0, |(first, width)| first + width)
}

/// Loads `L` lanes `x[at + l·step]`: one contiguous load when `UNIT` (`step == 1`).
#[inline(always)]
fn lanes<const L: usize, const UNIT: bool>(x: &[f32], at: usize, step: usize) -> [f32; L] {
    if UNIT {
        x[at..at + L].try_into().expect("slice of L lanes")
    } else {
        std::array::from_fn(|l| x[at + l * step])
    }
}

/// Read-only state of one forward call.
struct ForwardPlan<'a> {
    g: &'a ConvGeom,
    lay: Wide,
    /// Staged offsets of the `(ci, ky, kx)` taps, ascending.
    taps: &'a [usize],
    /// `[c_out, taps]`, the layer's own layout.
    weight: &'a [f32],
    bias: &'a [f32],
}

/// One forward call: the batch's images with their outputs, and the scratch they are
/// staged in.
struct Forward<'a> {
    plan: &'a ForwardPlan<'a>,
    /// The batch's `[n, c_in, h, w]` inputs.
    x: &'a [f32],
    /// The batch's `[n, c_out, h_out, w_out]` outputs.
    out: &'a mut [f32],
    /// One staged image, plus the slack its last vectors may read.
    xs: &'a mut [f32],
    /// `[padded c_out][wide row]` results before the wrapped positions are dropped.
    wide: &'a mut [f32],
}

impl Multiversion for Forward<'_> {
    #[inline(always)]
    fn run<const L: usize>(&mut self) {
        if self.plan.lay.sw == 1 {
            self.images::<L, true>();
        } else {
            self.images::<L, false>();
        }
    }
}

impl Forward<'_> {
    #[inline(always)]
    fn images<const L: usize, const UNIT: bool>(&mut self) {
        let p = self.plan;
        let (g, lay) = (p.g, &p.lay);
        let wlen = lay.span.next_multiple_of(MAX_LANES);
        let out_plane = lay.h_out * lay.w_out;
        let per_in = g.per_image_in();
        for (ni, out_img) in self.out.chunks_exact_mut(g.c_out * out_plane).enumerate() {
            stage_planes(g, lay, &self.x[ni * per_in..][..per_in], self.xs);
            let xs = &*self.xs;
            for (c0, width) in blocks(g.c_out) {
                let wide = &mut self.wide[c0 * wlen..][..width * wlen];
                if width == 8 {
                    forward_block::<L, 8, UNIT>(xs, p, c0, wide, wlen);
                } else {
                    forward_block::<L, 4, UNIT>(xs, p, c0, wide, wlen);
                }
            }
            // Drop the wrapped positions: each output row is the head of its wide row.
            for (co, plane) in out_img.chunks_exact_mut(out_plane).enumerate() {
                for (oy, row) in plane.chunks_exact_mut(lay.w_out).enumerate() {
                    row.copy_from_slice(&self.wide[co * wlen + oy * lay.pitch..][..lay.w_out]);
                }
            }
        }
    }
}

/// `CB` output channels from `c0` over every wide position of one image: each accumulator
/// starts at its bias and adds the taps in ascending `(ci, ky, kx)` order. Channels past
/// `c_out` repeat the last one, and their rows of `wide` are dropped.
#[inline(always)]
fn forward_block<const L: usize, const CB: usize, const UNIT: bool>(
    xs: &[f32],
    p: &ForwardPlan<'_>,
    c0: usize,
    wide: &mut [f32],
    wlen: usize,
) {
    let ntaps = p.taps.len();
    let channel = |c: usize| (c0 + c).min(p.g.c_out - 1);
    let rows: [&[f32]; CB] = std::array::from_fn(|c| &p.weight[channel(c) * ntaps..][..ntaps]);
    let bias: [f32; CB] = std::array::from_fn(|c| p.bias[channel(c)]);
    for j0 in (0..p.lay.span).step_by(L) {
        let mut acc = bias.map(|b| [b; L]);
        for (t, &off) in p.taps.iter().enumerate() {
            let xv = lanes::<L, UNIT>(xs, p.lay.sw * j0 + off, p.lay.sw);
            for c in 0..CB {
                let w = rows[c][t];
                for l in 0..L {
                    acc[c][l] += w * xv[l];
                }
            }
        }
        for (c, a) in acc.iter().enumerate() {
            wide[c * wlen + j0..][..L].copy_from_slice(a);
        }
    }
}

fn forward_direct(g: &ConvGeom, x: &[f32], weight: &[f32], bias: &[f32], out: &mut [f32]) {
    if g.n == 0 {
        return;
    }
    let lay = Wide::new(g);
    let mut taps = crate::pool::take_uninit::<usize>(g.patch_len());
    for (t, off) in taps.iter_mut().enumerate() {
        *off = lay.tap_offset(g, t);
    }
    let staged_len = g.c_in * lay.plane() + g.sw * MAX_LANES;
    let wide_len = padded(g.c_out) * lay.span.next_multiple_of(MAX_LANES);
    let plan = ForwardPlan {
        g,
        lay,
        taps: &taps,
        weight,
        bias,
    };
    // The images are staged one at a time into pooled scratch.
    let mut xs = crate::pool::take_uninit::<f32>(staged_len);
    let mut wide = crate::pool::take_uninit::<f32>(wide_len);
    multiversion(&mut Forward {
        plan: &plan,
        x,
        out,
        xs: &mut xs,
        wide: &mut wide,
    });
    crate::pool::recycle(xs);
    crate::pool::recycle(wide);
    crate::pool::recycle(taps);
}

/// One backward call: the weight gradient, and the input gradient when one is wanted.
struct Backward<'a> {
    g: &'a ConvGeom,
    lay: Wide,
    x: &'a [f32],
    weight: &'a [f32],
    grad_out: &'a [f32],
    grad_w: &'a mut [f32],
    grad_in: Option<&'a mut [f32]>,
}

#[allow(clippy::too_many_arguments)]
fn backward_direct(
    g: &ConvGeom,
    x: &[f32],
    weight: &[f32],
    grad_out: &[f32],
    grad_w: &mut [f32],
    grad_b: &mut [f32],
    grad_in: Option<&mut [f32]>,
) {
    if g.n == 0 {
        return;
    }
    // Bias gradient: fold each output plane in scan order, images in batch order.
    let plane = g.h_out() * g.w_out();
    for g_img in grad_out.chunks_exact(g.c_out * plane) {
        for (gb, g_plane) in grad_b.iter_mut().zip(g_img.chunks_exact(plane)) {
            for &v in g_plane {
                *gb += v;
            }
        }
    }
    multiversion(&mut Backward {
        g,
        lay: Wide::new(g),
        x,
        weight,
        grad_out,
        grad_w,
        grad_in,
    });
}

impl Multiversion for Backward<'_> {
    #[inline(always)]
    fn run<const L: usize>(&mut self) {
        let (g, lay) = (self.g, &self.lay);
        let (c_in, c_out, kk) = (g.c_in, g.c_out, g.kh * g.kw);
        let (img_in, out_plane) = (g.per_image_in(), lay.h_out * lay.w_out);
        let ntaps = g.patch_len();

        // grad_w works on a [tap][channel] transpose, so one tap's channels are one vector
        // (channels padded to whole vectors, taps to whole blocks; padding is dropped).
        let c_pad = c_out.next_multiple_of(L);
        let t_pad = padded(ntaps);
        let mut offs = crate::pool::take_zeroed::<usize>(t_pad);
        for (t, off) in offs[..ntaps].iter_mut().enumerate() {
            *off = lay.tap_offset(g, t);
        }
        let mut gw_t = crate::pool::take_zeroed::<f32>(t_pad * c_pad);
        for (co, row) in self.grad_w.chunks_exact(ntaps).enumerate() {
            for (t, &v) in row.iter().enumerate() {
                gw_t[t * c_pad + co] = v;
            }
        }
        // The output gradient of one image as [position][channel]; padded channels stay 0.
        let mut g_t = crate::pool::take_zeroed::<f32>(out_plane * c_pad);
        let mut xs = crate::pool::take_uninit::<f32>(c_in * lay.plane());

        // grad_in reads each output channel's gradient from a zero-stuffed frame of
        // pitch wp: g[co, oy, ox] sits at row oy·sh + kh − 1, column ox·sw + kw − 1, so
        // input position i and descending tap d read frame element i + ftaps[d].
        let want_in = self.grad_in.is_some() && g.h * g.w > 0;
        let flen = (lay.hp + g.kh + 1) * lay.wp + MAX_LANES;
        let (i0, n_pos) = (g.ph * lay.wp + g.pw, (g.h.max(1) - 1) * lay.wp + g.w);
        let gi_len = n_pos.next_multiple_of(MAX_LANES);
        let scratch = |len| crate::pool::take_uninit::<f32>(if want_in { len } else { 0 });
        let mut frame = scratch(c_out * flen);
        let mut gi_wide = scratch(4 * gi_len);
        let mut ftaps = crate::pool::take_uninit::<usize>(if want_in { kk } else { 0 });
        // The weights as [ci][descending tap][co], so a block reads each channel's
        // weights for one tap as one contiguous run over co.
        let mut wi = scratch(c_in * kk * c_out);
        if want_in {
            for (d, f) in ftaps.iter_mut().enumerate() {
                let (ky, kx) = ((kk - 1 - d) / g.kw, (kk - 1 - d) % g.kw);
                *f = (g.kh - 1 - ky) * lay.wp + (g.kw - 1 - kx);
            }
            for (ci, w_ci) in wi.chunks_exact_mut(kk * c_out).enumerate() {
                for (d, w_tap) in w_ci.chunks_exact_mut(c_out).enumerate() {
                    for (co, w) in w_tap.iter_mut().enumerate() {
                        *w = self.weight[(co * c_in + ci) * kk + kk - 1 - d];
                    }
                }
            }
        }

        for ni in 0..g.n {
            let g_img = &self.grad_out[ni * c_out * out_plane..][..c_out * out_plane];
            stage_planes(g, lay, &self.x[ni * img_in..][..img_in], &mut xs);
            for (co, g_plane) in g_img.chunks_exact(out_plane).enumerate() {
                for (p, &v) in g_plane.iter().enumerate() {
                    g_t[p * c_pad + co] = v;
                }
            }
            for c0 in (0..c_pad).step_by(L) {
                for (t0, width) in blocks(ntaps) {
                    let rows = &mut gw_t[t0 * c_pad..][..width * c_pad];
                    let offs = &offs[t0..][..width];
                    let (xs, g_t) = (&xs[..], &g_t[..]);
                    match (width, g.sw) {
                        (8, 1) => grad_w_block::<L, 8, true>(xs, offs, g_t, c_pad, c0, lay, rows),
                        (8, _) => grad_w_block::<L, 8, false>(xs, offs, g_t, c_pad, c0, lay, rows),
                        (_, 1) => grad_w_block::<L, 4, true>(xs, offs, g_t, c_pad, c0, lay, rows),
                        _ => grad_w_block::<L, 4, false>(xs, offs, g_t, c_pad, c0, lay, rows),
                    }
                }
            }
            let Some(grad_in) = self.grad_in.as_deref_mut().filter(|_| want_in) else {
                continue;
            };
            frame.fill(0.0);
            for (g_plane, f) in g_img
                .chunks_exact(out_plane)
                .zip(frame.chunks_exact_mut(flen))
            {
                for (oy, g_row) in g_plane.chunks_exact(lay.w_out).enumerate() {
                    let base = (oy * g.sh + g.kh - 1) * lay.wp + g.kw - 1;
                    for (ox, &v) in g_row.iter().enumerate() {
                        f[base + ox * g.sw] = v;
                    }
                }
            }
            let gi_img = &mut grad_in[ni * img_in..][..img_in];
            // Input channels in blocks of 4: four dot products plus their running sums
            // keep both vector ports busy without spilling at any lane width.
            for ci0 in (0..c_in).step_by(4) {
                let wide = &mut gi_wide[..];
                grad_in_block::<L, 4>(
                    &frame, flen, &ftaps, &wi, c_in, ci0, i0, n_pos, wide, gi_len,
                );
                let planes = gi_img.chunks_exact_mut(g.h * g.w).skip(ci0).take(4);
                for (c, gi_plane) in planes.enumerate() {
                    for (iy, row) in gi_plane.chunks_exact_mut(g.w).enumerate() {
                        row.copy_from_slice(&gi_wide[c * gi_len + iy * lay.wp..][..g.w]);
                    }
                }
            }
        }

        for (co, row) in self.grad_w.chunks_exact_mut(ntaps).enumerate() {
            for (t, v) in row.iter_mut().enumerate() {
                *v = gw_t[t * c_pad + co];
            }
        }
        for buf in [gw_t, g_t, xs, frame, gi_wide, wi] {
            crate::pool::recycle(buf);
        }
        crate::pool::recycle(offs);
        crate::pool::recycle(ftaps);
    }
}

/// Weight gradient of `TB` taps × `L` output channels from `c0`, over one image: each
/// accumulator adds its output positions in ascending order, on top of the running sum
/// of the previous images held in `rows` (`[tap][c_pad]`).
#[inline(always)]
fn grad_w_block<const L: usize, const TB: usize, const UNIT: bool>(
    xs: &[f32],
    offs: &[usize],
    g_t: &[f32],
    c_pad: usize,
    c0: usize,
    lay: &Wide,
    rows: &mut [f32],
) {
    let offs: [usize; TB] = offs.try_into().expect("offsets of one tap block");
    let mut acc: [[f32; L]; TB] = std::array::from_fn(|b| {
        rows[b * c_pad + c0..][..L]
            .try_into()
            .expect("channels of one vector")
    });
    let (w_out, sw) = (lay.w_out, lay.sw);
    let run = (w_out - 1) * sw + 1;
    for oy in 0..lay.h_out {
        // Each tap's inputs along this output row, so the position loop indexes within
        // slices of known length (no per-tap bounds checks at unit stride).
        let row = sw * oy * lay.pitch;
        let x_rows: [&[f32]; TB] = std::array::from_fn(|b| &xs[row + offs[b]..][..run]);
        let g_row = &g_t[oy * w_out * c_pad..][..w_out * c_pad];
        for (ox, g) in g_row.chunks_exact(c_pad).enumerate() {
            let gv: [f32; L] = g[c0..c0 + L].try_into().expect("channels of one vector");
            for b in 0..TB {
                let xv = if UNIT {
                    x_rows[b][ox]
                } else {
                    x_rows[b][ox * sw]
                };
                for l in 0..L {
                    acc[b][l] += gv[l] * xv;
                }
            }
        }
    }
    for (b, a) in acc.iter().enumerate() {
        rows[b * c_pad + c0..][..L].copy_from_slice(a);
    }
}

/// Input gradient of `CB` input channels from `ci0` at the `n_pos` wide input positions
/// from `i0`: each accumulator starts at `0.0` and adds, tap by descending tap, a dot
/// product over the output channels that itself starts at `0.0`. Channels past `c_in`
/// repeat the last one, and their rows of `wide` are dropped.
#[inline(always)]
fn grad_in_block<const L: usize, const CB: usize>(
    frame: &[f32],
    flen: usize,
    ftaps: &[usize],
    wi: &[f32],
    c_in: usize,
    ci0: usize,
    i0: usize,
    n_pos: usize,
    wide: &mut [f32],
    wlen: usize,
) {
    let per_ci = wi.len() / c_in;
    let c_out = per_ci / ftaps.len();
    let rows: [&[f32]; CB] =
        std::array::from_fn(|c| &wi[(ci0 + c).min(c_in - 1) * per_ci..][..per_ci]);
    for q in (0..n_pos).step_by(L) {
        let mut acc = [[0.0f32; L]; CB];
        for (d, &fo) in ftaps.iter().enumerate() {
            let w_tap: [&[f32]; CB] = std::array::from_fn(|c| &rows[c][d * c_out..][..c_out]);
            let mut dot = [[0.0f32; L]; CB];
            for (co, f) in (0..c_out).zip(frame.chunks_exact(flen)) {
                let gv: [f32; L] = f[i0 + q + fo..][..L].try_into().expect("slice of L lanes");
                for c in 0..CB {
                    let w = w_tap[c][co];
                    for l in 0..L {
                        dot[c][l] += gv[l] * w;
                    }
                }
            }
            for (a, t) in acc.iter_mut().zip(&dot) {
                *a = std::array::from_fn(|l| a[l] + t[l]);
            }
        }
        for (c, a) in acc.iter().enumerate() {
            wide[c * wlen + q..][..L].copy_from_slice(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::Rng;

    fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.5f32..1.5)).collect()
    }

    fn check_conv_parity(geom: ConvGeom, seed: u64) {
        let mut rng = seeded(seed);
        let x = random_vec(&mut rng, geom.n * geom.per_image_in());
        let weight = random_vec(&mut rng, geom.c_out * geom.patch_len());
        let bias = random_vec(&mut rng, geom.c_out);
        let y_naive = conv_forward(KernelBackend::Naive, &geom, &x, &weight, &bias);
        let y_blocked = conv_forward(KernelBackend::Blocked, &geom, &x, &weight, &bias);
        assert_eq!(y_naive, y_blocked, "forward mismatch for {geom:?}");

        let grad_out = random_vec(&mut rng, y_naive.len());
        let (mut gw_n, mut gb_n) = (vec![0.0; weight.len()], vec![0.0; bias.len()]);
        let (mut gw_b, mut gb_b) = (vec![0.0; weight.len()], vec![0.0; bias.len()]);
        let gi_n = conv_backward(
            KernelBackend::Naive,
            &geom,
            &x,
            &weight,
            &grad_out,
            &mut gw_n,
            &mut gb_n,
        );
        let gi_b = conv_backward(
            KernelBackend::Blocked,
            &geom,
            &x,
            &weight,
            &grad_out,
            &mut gw_b,
            &mut gb_b,
        );
        assert_eq!(gw_n, gw_b, "grad_w mismatch for {geom:?}");
        assert_eq!(gb_n, gb_b, "grad_b mismatch for {geom:?}");
        for (i, (a, b)) in gi_n.iter().zip(&gi_b).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                "grad_in mismatch at {i} for {geom:?}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn conv2d_parity_across_strides_and_paddings() {
        check_conv_parity(ConvGeom::conv2d(2, 3, 6, 6, 4, 3, 1, 1), 10);
        check_conv_parity(ConvGeom::conv2d(1, 2, 7, 5, 3, 3, 2, 0), 11);
        check_conv_parity(ConvGeom::conv2d(3, 1, 4, 4, 2, 2, 2, 2), 12);
    }

    #[test]
    fn conv1d_parity() {
        check_conv_parity(ConvGeom::conv1d(2, 3, 16, 5, 5, 1, 2), 20);
        check_conv_parity(ConvGeom::conv1d(1, 1, 9, 2, 3, 2, 0), 21);
    }

    #[test]
    fn degenerate_one_by_one_and_empty_batch() {
        // 1x1 kernel on a 1x1 image is a pure channel mix.
        check_conv_parity(ConvGeom::conv2d(2, 3, 1, 1, 4, 1, 1, 0), 30);
        // An empty batch produces empty outputs and zero gradients on both backends.
        let geom = ConvGeom::conv2d(0, 2, 4, 4, 3, 3, 1, 1);
        for backend in [KernelBackend::Naive, KernelBackend::Blocked] {
            let y = conv_forward(backend, &geom, &[], &vec![1.0; 3 * 2 * 9], &[0.0; 3]);
            assert!(y.is_empty());
            let (mut gw, mut gb) = (vec![0.0; 3 * 2 * 9], vec![0.0; 3]);
            let gi = conv_backward(
                backend,
                &geom,
                &[],
                &vec![1.0; 3 * 2 * 9],
                &[],
                &mut gw,
                &mut gb,
            );
            assert!(gi.is_empty());
            assert!(gw.iter().all(|&v| v == 0.0) && gb.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn register_blocks_cover_every_channel() {
        let widths = |n| blocks(n).map(|(_, w)| w).collect::<Vec<_>>();
        assert_eq!(widths(0), Vec::<usize>::new());
        assert_eq!(widths(3), vec![4]);
        assert_eq!(widths(5), vec![8]);
        assert_eq!(widths(12), vec![8, 4]);
        assert_eq!(widths(27), vec![8, 8, 8, 4]);
        assert_eq!(padded(12), 12);
        assert_eq!(padded(27), 28);
    }

    #[test]
    fn wide_layout_of_a_strided_geometry() {
        // 7 wide, padding 1, stride 2: rows of 9 staged as pitch 10; output rows of 4
        // positions sit 2 staged rows (10 wide positions) apart.
        let lay = Wide::new(&ConvGeom::conv2d(1, 2, 5, 7, 3, 3, 2, 1));
        assert_eq!((lay.h_out, lay.w_out, lay.hp, lay.wp), (3, 4, 7, 10));
        assert_eq!((lay.pitch, lay.span), (10, 24));
    }
}
