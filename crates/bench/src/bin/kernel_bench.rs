//! Kernel benchmark: times the blocked GEMM/conv kernels against the naive oracle (and the
//! max-pool row kernel against the per-window scan it replaced) on shapes drawn from the
//! model zoo, counts steady-state heap allocations on the blocked
//! hot path, and emits the repo's perf trajectory file.
//!
//! ```text
//! kernel_bench [--json] [--check] [--min-speedup X]
//! ```
//!
//! * `--json` — additionally write the results to `BENCH_kernels.json` in the current
//!   directory (schema documented in README.md, "Compute kernels and the perf gate").
//! * `--check` — exit non-zero if any of the gates fail. Four gates run:
//!   1. the blocked backend must not be slower than `--min-speedup` (default 1.0) times
//!      the naive oracle on the gate shape, the largest GEMM;
//!   2. the gate-shape speedup must stay within `MERGESFL_PERF_FLOOR` (default 0.70) of
//!      the committed `BENCH_kernels.json` baseline, when one is present — a
//!      noise-tolerant regression floor rather than an exact match;
//!   3. with the tensor pool enabled, every blocked GEMM/conv/pool case must run with zero
//!      steady-state heap allocations per iteration — including the double-buffered
//!      driver on the gate shape (`MERGESFL_COUNT_ALLOCS=off` skips the measurement
//!      and the gate);
//!   4. on multi-core hosts, the double-buffered GEMM must not lose to the
//!      single-stage packed driver on the gate shape (within 5% noise tolerance).
//!      On single-core hosts pack and compute cannot overlap, so the gate reports
//!      both timings and skips with a message.
//!
//! `--check` with all four gates is what CI's `perf-smoke` job runs.
//!
//! For every packed GEMM case the table also reports the explicit single-stage and
//! double-buffered timings next to the runtime's auto-planned path, plus the stage
//! idle fraction — the share of double-buffered wall time the compute side spent
//! waiting for the packer thread, the direct observable of pack-vs-compute overlap.
//!
//! Every measurement reports the best wall-clock time over several repetitions, which is
//! robust against scheduler noise on shared CI runners. Allocation counts are measured
//! after the timing phase, in the same configuration the timing phase runs: kernels
//! never spawn threads, so no thread count needs pinning.

use mergesfl::json::{self, write_f64, JsonValue};
use mergesfl_nn::kernels::conv::{conv_backward, conv_forward, ConvGeom};
use mergesfl_nn::kernels::pool::maxpool_forward;
use mergesfl_nn::kernels::{
    gemm_cfg, gemm_with_scheme, reset_stage_stats, runtime, stage_stats, Epilogue, GemmPlan,
    KernelBackend, Staging, TilingScheme, Trans,
};
use mergesfl_nn::rng::seeded;
use rand::Rng;
use std::time::Instant;

/// The allocation probe: every heap allocation in this binary bumps a counter the
/// steady-state measurement reads. The library never installs it, so training binaries
/// pay nothing.
#[global_allocator]
static ALLOC_PROBE: mergesfl_nn::pool::CountingAlloc = mergesfl_nn::pool::CountingAlloc;

/// Gate shape: the largest GEMM; `--check` compares blocked vs naive here.
const GATE: &str = "gemm_nn_256x256x256";

/// Default fraction of the committed baseline's gate speedup the fresh run must reach.
const DEFAULT_PERF_FLOOR: f64 = 0.70;

/// What one benchmark entry runs.
enum Case {
    /// A plain GEMM of the given layout and shape, with an optional fused epilogue.
    Gemm {
        trans: Trans,
        m: usize,
        n: usize,
        k: usize,
        fused_bias_relu: bool,
    },
    /// One convolution forward pass.
    ConvForward(ConvGeom),
    /// One convolution backward pass (weight, bias and input gradients).
    ConvBackward(ConvGeom),
    /// One max-pool forward pass over `planes` planes of `h × w` with a `k × k` window.
    MaxPool {
        planes: usize,
        h: usize,
        w: usize,
        k: usize,
    },
}

struct Entry {
    name: &'static str,
    case: Case,
}

fn zoo() -> Vec<Entry> {
    vec![
        // Square GEMMs establishing the scaling trend; the largest is the CI gate.
        Entry {
            name: "gemm_nn_64x64x64",
            case: gemm(Trans::Nn, 64, 64, 64),
        },
        Entry {
            name: "gemm_nn_128x128x128",
            case: gemm(Trans::Nn, 128, 128, 128),
        },
        Entry {
            name: GATE,
            case: gemm(Trans::Nn, 256, 256, 256),
        },
        // Fused bias+ReLU epilogue on the gate shape (epilogue overhead visibility).
        Entry {
            name: "gemm_nt_256x256x256_bias_relu",
            case: Case::Gemm {
                trans: Trans::Nt,
                m: 256,
                n: 256,
                k: 256,
                fused_bias_relu: true,
            },
        },
        // Fully-connected shapes from the model zoo (y = x W^T at training batch sizes).
        Entry {
            name: "linear_cnnh_fc1_b32",
            case: gemm(Trans::Nt, 32, 32, 108),
        },
        Entry {
            name: "linear_alexnet_fc1_b64",
            case: gemm(Trans::Nt, 64, 48, 64),
        },
        // VGG16-Lite head FC layers at the server's training batch size: the shapes
        // `ServerCostModel` calibrates per-architecture costs from.
        Entry {
            name: "linear_vgg_fc1_b32",
            case: gemm(Trans::Nt, 32, 64, 16),
        },
        Entry {
            name: "linear_vgg_fc2_b32",
            case: gemm(Trans::Nt, 32, 48, 64),
        },
        // The same FC layer at a tail batch of 3: skinny-m wide-n `Nt`, the one
        // band where the direct (unpacked) register-tiled scheme is the fastest
        // allocation-free plan.
        Entry {
            name: "linear_vgg_fc2_b3",
            case: gemm(Trans::Nt, 3, 48, 64),
        },
        // Skinny bias-grad-style GEMV: m below the register tile. Selection keeps
        // the vectorised naive nest here (speedup pins at ~1.0) — the old cliff
        // fix routed it to a register tile that lost 4x to naive.
        Entry {
            name: "gemv_bias_grad_1x64x256",
            case: gemm(Trans::Tn, 1, 64, 256),
        },
        // Small square `Nn` product under the packing crossover: also stays on
        // the vectorised naive nest by design (speedup pins at ~1.0).
        Entry {
            name: "gemm_nn_12x12x12_small",
            case: gemm(Trans::Nn, 12, 12, 12),
        },
        // Convolutions from the model zoo (CNN-H head, AlexNet/VGG stems, CNN-S stem).
        Entry {
            name: "conv2d_vgg_c2_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(16, 8, 8, 8, 8, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_cnnh_c1_b32_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(32, 1, 12, 12, 6, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c1_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(16, 3, 16, 16, 8, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c1_b16_bwd",
            case: Case::ConvBackward(ConvGeom::conv2d(16, 3, 16, 16, 8, 3, 1, 1)),
        },
        // AlexNet-lite's mid-layer convs: 8→16 channels at 8×8 and 16→16 at 4×4.
        Entry {
            name: "conv2d_alexnet_c2_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(16, 8, 8, 8, 16, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c2_b16_bwd",
            case: Case::ConvBackward(ConvGeom::conv2d(16, 8, 8, 8, 16, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c3_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv2d(16, 16, 4, 4, 16, 3, 1, 1)),
        },
        Entry {
            name: "conv2d_alexnet_c3_b16_bwd",
            case: Case::ConvBackward(ConvGeom::conv2d(16, 16, 4, 4, 16, 3, 1, 1)),
        },
        Entry {
            name: "conv1d_cnns_c1_b16_fwd",
            case: Case::ConvForward(ConvGeom::conv1d(16, 1, 64, 8, 5, 1, 2)),
        },
        Entry {
            name: "conv1d_cnns_c1_b16_bwd",
            case: Case::ConvBackward(ConvGeom::conv1d(16, 1, 64, 8, 5, 1, 2)),
        },
        // AlexNet-lite's first MaxPool2d: 8 channels of 16×16, 2×2 windows.
        Entry {
            name: "maxpool2d_alexnet_p1_b16",
            case: Case::MaxPool {
                planes: 16 * 8,
                h: 16,
                w: 16,
                k: 2,
            },
        },
    ]
}

fn gemm(trans: Trans, m: usize, n: usize, k: usize) -> Case {
    Case::Gemm {
        trans,
        m,
        n,
        k,
        fused_bias_relu: false,
    }
}

fn random_vec(rng: &mut impl Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Best-of-`reps` wall-clock nanoseconds for one invocation of `f`, plus the
/// standard deviation across the reps as a timing-jitter indicator (high jitter
/// means the best-of figure is less trustworthy on that host).
fn best_ns<F: FnMut()>(mut f: F, reps: usize) -> (f64, f64) {
    f(); // warm-up (page in buffers, fill caches)
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (best, stddev_ns(&samples))
}

/// Population standard deviation of the timing samples.
fn stddev_ns(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples
        .iter()
        .map(|s| s - mean)
        // lint: allow(no-fma) fusing is welcome in a jitter statistic — accuracy,
        // not bit-identity, matters here; kernel math must never fuse
        .fold(0.0, |acc, d| d.mul_add(d, acc))
        / samples.len() as f64;
    var.sqrt()
}

/// Picks a repetition count so each measurement costs roughly 0.2 s at most.
fn reps_for(flops: f64) -> usize {
    // Assume a pessimistic 0.5 GFLOP/s for the naive path.
    let est_ns = flops / 0.5;
    ((200_000_000.0 / est_ns.max(1.0)) as usize).clamp(3, 25)
}

struct Measurement {
    name: &'static str,
    kind: &'static str,
    flops: f64,
    naive_ns: f64,
    blocked_ns: f64,
    /// Standard deviation of the blocked-path timing samples — printed as a ±
    /// column so noisy hosts are visible at a glance. Deliberately absent from the
    /// JSON output: the committed baseline format (and its parser) stays stable.
    blocked_jitter_ns: f64,
    /// Steady-state heap allocations per blocked-path iteration (warmed pool, one
    /// thread); `None` when counting is disabled via `MERGESFL_COUNT_ALLOCS=off`.
    allocs_per_iter: Option<f64>,
    /// Explicit single-stage packed timing with the auto plan's tile and partition;
    /// `None` for cases the runtime plans as naive or direct (and for convs, whose
    /// inner GEMMs are planned per image). Absent from the JSON output — the
    /// committed baseline schema (v2) stays stable.
    single_ns: Option<f64>,
    /// Explicit double-buffered timing with the same tile and partition.
    double_ns: Option<f64>,
    /// Share (%) of the double-buffered wall time the compute side spent blocked
    /// waiting for the packer thread — the pack-vs-compute overlap observable.
    stage_idle_pct: Option<f64>,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.blocked_ns
    }

    fn gflops(&self, ns: f64) -> f64 {
        self.flops / ns
    }
}

fn measure(entry: &Entry) -> Measurement {
    let mut rng = seeded(42);
    match &entry.case {
        Case::Gemm {
            trans,
            m,
            n,
            k,
            fused_bias_relu,
        } => {
            let (m, n, k) = (*m, *n, *k);
            let a_len = m * k;
            let b_len = k * n;
            let a = random_vec(&mut rng, a_len);
            let b = random_vec(&mut rng, b_len);
            let bias = random_vec(&mut rng, n);
            let mut c = vec![0.0f32; m * n];
            let flops = 2.0 * m as f64 * n as f64 * k as f64;
            let reps = reps_for(flops);
            let epilogue = || {
                if *fused_bias_relu {
                    Epilogue::BiasRowRelu(&bias)
                } else {
                    Epilogue::None
                }
            };
            // The naive baseline must be what the seed repository actually ran, or the
            // recorded speedups overstate the win. For `Nt` the seed's Linear layer
            // materialised Wᵀ and then used the row-contiguous `Nn` loop (plus a bias
            // broadcast and a separate ReLU pass for the fused entry) — timing the
            // strided naive `Nt` loop instead would be ~15x slower than that baseline.
            let naive_ns = match trans {
                Trans::Nt => {
                    best_ns(
                        || {
                            let mut bt = vec![0.0f32; k * n];
                            for j in 0..n {
                                for p in 0..k {
                                    bt[p * n + j] = b[j * k + p];
                                }
                            }
                            c.fill(0.0);
                            gemm_cfg(
                                KernelBackend::Naive,
                                Trans::Nn,
                                m,
                                n,
                                k,
                                &a,
                                &bt,
                                &mut c,
                                Epilogue::None,
                            );
                            if *fused_bias_relu {
                                mergesfl_nn::kernels::add_bias_rows(&mut c, &bias);
                                for v in c.iter_mut() {
                                    *v = v.max(0.0);
                                }
                            }
                            std::hint::black_box(&c);
                        },
                        reps,
                    )
                    .0
                }
                _ => {
                    best_ns(
                        || {
                            c.fill(0.0);
                            gemm_cfg(
                                KernelBackend::Naive,
                                *trans,
                                m,
                                n,
                                k,
                                &a,
                                &b,
                                &mut c,
                                epilogue(),
                            );
                            std::hint::black_box(&c);
                        },
                        reps,
                    )
                    .0
                }
            };
            let (blocked_ns, blocked_jitter_ns) = best_ns(
                || {
                    c.fill(0.0);
                    gemm_cfg(
                        KernelBackend::Blocked,
                        *trans,
                        m,
                        n,
                        k,
                        &a,
                        &b,
                        &mut c,
                        epilogue(),
                    );
                    std::hint::black_box(&c);
                },
                reps,
            );
            // Explicit staging comparison: when the runtime plans this shape as a
            // packed GEMM, re-run it with the plan's tile and partition but the
            // staging forced to single-stage and then double-buffered, so the table
            // (and the staging gate) can compare the two drivers head-to-head.
            let (single_ns, double_ns, stage_idle_pct) = match runtime::select(*trans, m, n, k) {
                GemmPlan::Tiled(scheme, micro) if scheme.stage != Staging::Direct => {
                    let single_scheme = TilingScheme {
                        stage: Staging::Single,
                        ..scheme
                    };
                    let double_scheme = TilingScheme {
                        stage: Staging::Double,
                        ..scheme
                    };
                    let single = best_ns(
                        || {
                            c.fill(0.0);
                            gemm_with_scheme(
                                *trans,
                                m,
                                n,
                                k,
                                &a,
                                &b,
                                &mut c,
                                epilogue(),
                                &single_scheme,
                                micro,
                            );
                            std::hint::black_box(&c);
                        },
                        reps,
                    )
                    .0;
                    // Warm up the double driver outside the measured window: the
                    // first call spawns the persistent packer thread.
                    c.fill(0.0);
                    gemm_with_scheme(
                        *trans,
                        m,
                        n,
                        k,
                        &a,
                        &b,
                        &mut c,
                        epilogue(),
                        &double_scheme,
                        micro,
                    );
                    // Stage idle is measured against the same wall-clock window the
                    // stage-wait counters accumulate over, so the percentage is the
                    // share of double-buffered runtime the compute side spent
                    // blocked on the packer — the pack/compute overlap observable.
                    reset_stage_stats();
                    let wall_start = Instant::now();
                    let mut best = f64::INFINITY;
                    for _ in 0..reps {
                        let start = Instant::now();
                        c.fill(0.0);
                        gemm_with_scheme(
                            *trans,
                            m,
                            n,
                            k,
                            &a,
                            &b,
                            &mut c,
                            epilogue(),
                            &double_scheme,
                            micro,
                        );
                        std::hint::black_box(&c);
                        best = best.min(start.elapsed().as_nanos() as f64);
                    }
                    let wall_ns = wall_start.elapsed().as_nanos() as f64;
                    let stats = stage_stats();
                    let idle = if wall_ns > 0.0 {
                        100.0 * stats.compute_wait_ns as f64 / wall_ns
                    } else {
                        0.0
                    };
                    (Some(single), Some(best), Some(idle))
                }
                _ => (None, None, None),
            };
            Measurement {
                name: entry.name,
                kind: "gemm",
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
                single_ns,
                double_ns,
                stage_idle_pct,
            }
        }
        Case::ConvForward(geom) => {
            let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
            let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
            let bias = random_vec(&mut rng, geom.c_out);
            let flops = conv_flops(geom);
            let reps = reps_for(flops);
            let run = |backend: KernelBackend| {
                best_ns(
                    || {
                        std::hint::black_box(conv_forward(backend, geom, &x, &w, &bias));
                    },
                    reps,
                )
            };
            let naive_ns = run(KernelBackend::Naive).0;
            let (blocked_ns, blocked_jitter_ns) = run(KernelBackend::Blocked);
            Measurement {
                name: entry.name,
                kind: "conv_forward",
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
                single_ns: None,
                double_ns: None,
                stage_idle_pct: None,
            }
        }
        Case::ConvBackward(geom) => {
            let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
            let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
            let go = random_vec(&mut rng, geom.n * geom.c_out * geom.h_out() * geom.w_out());
            let mut grad_w = vec![0.0f32; w.len()];
            let mut grad_b = vec![0.0f32; geom.c_out];
            // Backward runs the weight-gradient and input-gradient products: ~2x forward.
            let flops = 2.0 * conv_flops(geom);
            let reps = reps_for(flops);
            let mut run = |backend: KernelBackend| {
                best_ns(
                    || {
                        grad_w.fill(0.0);
                        grad_b.fill(0.0);
                        std::hint::black_box(conv_backward(
                            backend,
                            geom,
                            &x,
                            &w,
                            &go,
                            &mut grad_w,
                            &mut grad_b,
                        ));
                    },
                    reps,
                )
            };
            let naive_ns = run(KernelBackend::Naive).0;
            let (blocked_ns, blocked_jitter_ns) = run(KernelBackend::Blocked);
            Measurement {
                name: entry.name,
                kind: "conv_backward",
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
                single_ns: None,
                double_ns: None,
                stage_idle_pct: None,
            }
        }
        Case::MaxPool { planes, h, w, k } => {
            let (planes, h, w, k) = (*planes, *h, *w, *k);
            let x = random_vec(&mut rng, planes * h * w);
            // One comparison per input element.
            let flops = (planes * h * w) as f64;
            let reps = reps_for(flops);
            let naive_ns = best_ns(
                || {
                    std::hint::black_box(maxpool_scan(&x, planes, h, w, k));
                },
                reps,
            )
            .0;
            let (blocked_ns, blocked_jitter_ns) = best_ns(
                || {
                    let (out, argmax) = maxpool_forward(&x, planes, h, w, k, k);
                    std::hint::black_box((&out, &argmax));
                    mergesfl_nn::pool::recycle(out);
                    mergesfl_nn::pool::recycle(argmax);
                },
                reps,
            );
            Measurement {
                name: entry.name,
                kind: "maxpool_forward",
                flops,
                naive_ns,
                blocked_ns,
                blocked_jitter_ns,
                allocs_per_iter: None,
                single_ns: None,
                double_ns: None,
                stage_idle_pct: None,
            }
        }
    }
}

/// The per-window max-pool scan the row kernels replaced, kept as the pooling case's
/// naive baseline (same results, including the argmax seed).
fn maxpool_scan(x: &[f32], planes: usize, h: usize, w: usize, k: usize) -> (Vec<f32>, Vec<usize>) {
    let (h_out, w_out) = (h / k, w / k);
    let mut out = vec![f32::NEG_INFINITY; planes * h_out * w_out];
    let mut argmax = vec![0usize; out.len()];
    for p in 0..planes {
        for oy in 0..h_out {
            for ox in 0..w_out {
                let oi = (p * h_out + oy) * w_out + ox;
                argmax[oi] = p * h * w + oy * k * w + ox * k;
                for ky in 0..k {
                    for kx in 0..k {
                        let xi = p * h * w + (oy * k + ky) * w + ox * k + kx;
                        if x[xi] > out[oi] {
                            out[oi] = x[xi];
                            argmax[oi] = xi;
                        }
                    }
                }
            }
        }
    }
    (out, argmax)
}

fn conv_flops(geom: &ConvGeom) -> f64 {
    2.0 * (geom.n * geom.c_out * geom.h_out() * geom.w_out()) as f64
        * (geom.c_in * geom.kh * geom.kw) as f64
}

/// Steady-state heap allocations per invocation of `f`: warm-up iterations populate the
/// tensor pool, then the probe counter is read around a measured batch. Call sites pin
/// `RAYON_NUM_THREADS=1` first so thread spawns don't land in the count.
fn steady_state_allocs<F: FnMut()>(mut f: F) -> f64 {
    const WARMUP: usize = 3;
    const ITERS: u64 = 8;
    for _ in 0..WARMUP {
        f();
    }
    let before = mergesfl_nn::pool::heap_allocs();
    for _ in 0..ITERS {
        f();
    }
    (mergesfl_nn::pool::heap_allocs() - before) as f64 / ITERS as f64
}

/// Measures `allocs_per_iter` for one entry's blocked (hot) path. Buffers returned by
/// the conv kernels are pooled `Vec`s and are recycled explicitly — exactly what
/// `Tensor::from_vec` adoption does for them on the training path.
fn measure_allocs(entry: &Entry) -> f64 {
    let mut rng = seeded(42);
    match &entry.case {
        Case::Gemm {
            trans,
            m,
            n,
            k,
            fused_bias_relu,
        } => {
            let (m, n, k) = (*m, *n, *k);
            let a = random_vec(&mut rng, m * k);
            let b = random_vec(&mut rng, k * n);
            let bias = random_vec(&mut rng, n);
            let mut c = vec![0.0f32; m * n];
            steady_state_allocs(|| {
                c.fill(0.0);
                gemm_cfg(
                    KernelBackend::Blocked,
                    *trans,
                    m,
                    n,
                    k,
                    &a,
                    &b,
                    &mut c,
                    if *fused_bias_relu {
                        Epilogue::BiasRowRelu(&bias)
                    } else {
                        Epilogue::None
                    },
                );
                std::hint::black_box(&c);
            })
        }
        Case::ConvForward(geom) => {
            let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
            let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
            let bias = random_vec(&mut rng, geom.c_out);
            steady_state_allocs(|| {
                let out = conv_forward(KernelBackend::Blocked, geom, &x, &w, &bias);
                std::hint::black_box(&out);
                mergesfl_nn::pool::recycle(out);
            })
        }
        Case::ConvBackward(geom) => {
            let x = random_vec(&mut rng, geom.n * geom.c_in * geom.h * geom.w);
            let w = random_vec(&mut rng, geom.c_out * geom.c_in * geom.kh * geom.kw);
            let go = random_vec(&mut rng, geom.n * geom.c_out * geom.h_out() * geom.w_out());
            let mut grad_w = vec![0.0f32; w.len()];
            let mut grad_b = vec![0.0f32; geom.c_out];
            steady_state_allocs(|| {
                grad_w.fill(0.0);
                grad_b.fill(0.0);
                let grad_in = conv_backward(
                    KernelBackend::Blocked,
                    geom,
                    &x,
                    &w,
                    &go,
                    &mut grad_w,
                    &mut grad_b,
                );
                std::hint::black_box(&grad_in);
                mergesfl_nn::pool::recycle(grad_in);
            })
        }
        Case::MaxPool { planes, h, w, k } => {
            let x = random_vec(&mut rng, planes * h * w);
            steady_state_allocs(|| {
                let (out, argmax) = maxpool_forward(&x, *planes, *h, *w, *k, *k);
                std::hint::black_box((&out, &argmax));
                mergesfl_nn::pool::recycle(out);
                mergesfl_nn::pool::recycle(argmax);
            })
        }
    }
}

/// The gate-shape speedup recorded in a previously written `BENCH_kernels.json`
/// (either schema version), if the file exists and parses. Read before `--json`
/// overwrites the file, this is the committed perf-floor reference.
fn baseline_gate_speedup(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = json::parse(&text).ok()?;
    let gate = doc.get("gate").and_then(JsonValue::as_str)?.to_string();
    doc.get("entries")?
        .as_array()?
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(gate.as_str()))?
        .get("speedup")?
        .as_f64()
}

fn render_json(results: &[Measurement], threads: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"mergesfl-kernel-bench/v2\",\n");
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"gate\": \"{GATE}\",\n"));
    out.push_str("  \"entries\": [\n");
    for (i, r) in results.iter().enumerate() {
        let num = |v: f64| {
            let mut s = String::new();
            write_f64(&mut s, v);
            s
        };
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", r.name));
        out.push_str(&format!("\"kind\": \"{}\", ", r.kind));
        out.push_str(&format!("\"flops\": {}, ", num(r.flops)));
        out.push_str(&format!("\"naive_ns\": {}, ", num(r.naive_ns)));
        out.push_str(&format!("\"blocked_ns\": {}, ", num(r.blocked_ns)));
        out.push_str(&format!(
            "\"naive_gflops\": {}, ",
            num(round3(r.gflops(r.naive_ns)))
        ));
        out.push_str(&format!(
            "\"blocked_gflops\": {}, ",
            num(round3(r.gflops(r.blocked_ns)))
        ));
        out.push_str(&format!("\"speedup\": {}, ", num(round3(r.speedup()))));
        // v2 addition; `null` when counting was disabled. v1 consumers
        // (`calibrate::ServerCostModel`) ignore unknown fields.
        match r.allocs_per_iter {
            Some(a) => out.push_str(&format!("\"allocs_per_iter\": {}", num(round3(a)))),
            None => out.push_str("\"allocs_per_iter\": null"),
        }
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn main() {
    let mut emit_json = false;
    let mut check = false;
    let mut min_speedup = 1.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => emit_json = true,
            "--check" => check = true,
            "--min-speedup" => {
                min_speedup = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--min-speedup requires a numeric argument");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: kernel_bench [--json] [--check] [--min-speedup X]");
                std::process::exit(2);
            }
        }
    }

    // The committed trajectory file is the perf-floor reference; read it before
    // `--json` overwrites it with this run's numbers.
    let baseline_speedup = baseline_gate_speedup("BENCH_kernels.json");

    let threads = rayon::current_num_threads();
    println!("kernel_bench: naive oracle vs blocked kernels ({threads} thread(s))\n");
    println!(
        "  {:<32} {:>14} {:>12} {:>12} {:>10} {:>12} {:>9} {:>10} {:>10} {:>7}",
        "shape",
        "kind",
        "naive",
        "blocked",
        "jitter",
        "GFLOP/s",
        "speedup",
        "1-stage",
        "2-stage",
        "idle"
    );

    // Staging columns only apply to packed GEMM cases; everything else shows "-".
    let fmt_ms = |v: Option<f64>| match v {
        Some(ns) => format!("{:.2}ms", ns / 1e6),
        None => "-".to_string(),
    };
    let fmt_pct = |v: Option<f64>| match v {
        Some(p) => format!("{p:.1}%"),
        None => "-".to_string(),
    };

    let mut results = Vec::new();
    for entry in zoo() {
        let r = measure(&entry);
        println!(
            "  {:<32} {:>14} {:>10.2}ms {:>10.2}ms {:>7.2}ms {:>12.2} {:>8.2}x {:>10} {:>10} {:>7}",
            r.name,
            r.kind,
            r.naive_ns / 1e6,
            r.blocked_ns / 1e6,
            r.blocked_jitter_ns / 1e6,
            r.gflops(r.blocked_ns),
            r.speedup(),
            fmt_ms(r.single_ns),
            fmt_ms(r.double_ns),
            fmt_pct(r.stage_idle_pct),
        );
        results.push(r);
    }

    // Allocation phase, after all timing.
    let mut double_gate_allocs: Option<f64> = None;
    if mergesfl_nn::pool::count_allocs() {
        println!();
        for (entry, r) in zoo().iter().zip(results.iter_mut()) {
            let allocs = measure_allocs(entry);
            println!("  {:<32} allocs/iter (steady state): {allocs:.3}", r.name);
            r.allocs_per_iter = Some(allocs);
        }
        // The double-buffered driver on the gate shape: the packer thread and its
        // channels are spawned on the first (warm-up) call, so steady state must be
        // allocation-free too.
        if let GemmPlan::Tiled(scheme, micro) = runtime::select(Trans::Nn, 256, 256, 256) {
            if scheme.stage != Staging::Direct {
                let double_scheme = TilingScheme {
                    stage: Staging::Double,
                    ..scheme
                };
                let mut rng = seeded(42);
                let a = random_vec(&mut rng, 256 * 256);
                let b = random_vec(&mut rng, 256 * 256);
                let mut c = vec![0.0f32; 256 * 256];
                let allocs = steady_state_allocs(|| {
                    c.fill(0.0);
                    gemm_with_scheme(
                        Trans::Nn,
                        256,
                        256,
                        256,
                        &a,
                        &b,
                        &mut c,
                        Epilogue::None,
                        &double_scheme,
                        micro,
                    );
                    std::hint::black_box(&c);
                });
                println!(
                    "  {:<32} allocs/iter (steady state): {allocs:.3}",
                    "gemm_nn_256x256x256 (2-stage)"
                );
                double_gate_allocs = Some(allocs);
            }
        }
    }

    if emit_json {
        let json = render_json(&results, threads);
        std::fs::write("BENCH_kernels.json", &json).expect("failed to write BENCH_kernels.json");
        println!("\nwrote BENCH_kernels.json ({} entries)", results.len());
    }

    if check {
        let mut failed = false;
        let gate = results
            .iter()
            .find(|r| r.name == GATE)
            .expect("gate shape missing from the zoo");
        let speedup = gate.speedup();
        if speedup < min_speedup {
            eprintln!(
                "PERF GATE FAILED: blocked GEMM is {speedup:.2}x the naive oracle on {GATE} \
                 (required >= {min_speedup:.2}x)"
            );
            failed = true;
        } else {
            println!("\nperf gate passed: {speedup:.2}x >= {min_speedup:.2}x on {GATE}");
        }

        // Perf floor against the committed baseline (noise-tolerant regression check).
        let floor = mergesfl_nn::env::parsed::<f64>("MERGESFL_PERF_FLOOR")
            .filter(|f| f.is_finite() && *f > 0.0)
            .unwrap_or(DEFAULT_PERF_FLOOR);
        match baseline_speedup {
            Some(reference) => {
                let required = floor * reference;
                if speedup < required {
                    eprintln!(
                        "PERF FLOOR FAILED: gate speedup {speedup:.2}x fell below \
                         {floor:.2} x the committed baseline {reference:.2}x \
                         (required >= {required:.2}x)"
                    );
                    failed = true;
                } else {
                    println!(
                        "perf floor passed: {speedup:.2}x >= {floor:.2} x baseline \
                         {reference:.2}x on {GATE}"
                    );
                }
            }
            None => println!("perf floor skipped: no parsable committed BENCH_kernels.json"),
        }

        // Allocation gate: every blocked GEMM/conv/pool case must be allocation-free in
        // steady state when the pool serves checkouts.
        if mergesfl_nn::pool::count_allocs() && mergesfl_nn::pool::enabled() {
            let mut leaky: Vec<String> = results
                .iter()
                .filter(|r| r.allocs_per_iter.is_some_and(|a| a > 0.0))
                .map(|r| r.name.to_string())
                .collect();
            if double_gate_allocs.is_some_and(|a| a > 0.0) {
                leaky.push(format!("{GATE} (2-stage)"));
            }
            if leaky.is_empty() {
                println!("alloc gate passed: 0 steady-state allocs/iter on all cases");
            } else {
                eprintln!(
                    "ALLOC GATE FAILED: steady-state heap allocations on the blocked \
                     hot path: {}",
                    leaky.join(", ")
                );
                failed = true;
            }
        } else {
            println!("alloc gate skipped: counting or the tensor pool is disabled");
        }

        // Staging gate: double-buffering must pull its weight where it can — on a
        // multi-core host the overlapped driver must not lose to the single-stage
        // packed driver on the gate shape (5% noise tolerance). On one core pack
        // and compute serialise onto the same CPU, so the gate reports and skips.
        match (gate.single_ns, gate.double_ns) {
            (Some(single), Some(double)) if threads > 1 => {
                if double > single * 1.05 {
                    eprintln!(
                        "STAGING GATE FAILED: double-buffered GEMM {:.2}ms is slower than 1.05 x the single-stage driver {:.2}ms on {GATE}",
                        double / 1e6,
                        single / 1e6
                    );
                    failed = true;
                } else {
                    println!(
                        "staging gate passed: double-buffered {:.2}ms <= 1.05 x single-stage {:.2}ms on {GATE}",
                        double / 1e6,
                        single / 1e6
                    );
                }
            }
            (Some(single), Some(double)) => {
                println!(
                    "staging gate skipped: single-core host, pack and compute cannot overlap (double {:.2}ms vs single {:.2}ms on {GATE})",
                    double / 1e6,
                    single / 1e6
                );
            }
            _ => {
                println!("staging gate skipped: {GATE} was not planned as a packed GEMM");
            }
        }

        if failed {
            std::process::exit(1);
        }
    }
}
