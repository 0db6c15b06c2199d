//! The kernel runtime: per-shape GEMM plan selection and the plan knobs.
//!
//! [`select`] plans each GEMM as either the naive nest or an explicit
//! [`TilingScheme`] instead of hardcoded blocking constants. Layer code never
//! plans a product itself — it calls [`crate::kernels::gemm::gemm_cfg`], which
//! runs the plan [`select`] returns.
//!
//! Selection policy — layout-aware, because the naive nests vectorise very
//! differently per layout (measured on the reference host):
//!
//! 1. `2·m·n·k < SMALL_MIN_FLOPS` → [`GemmPlan::Naive`]: at a few hundred
//!    flops even the register tile's setup loses to the plain loops.
//! 2. `Nn`/`Tn` (B rows contiguous — the naive inner loop auto-vectorises):
//!    naive until [`BLOCKED_MIN_FLOPS`], where packing overtakes it; skinny
//!    shapes (`m < 4` or `n < 8`, e.g. the `[batch, 1, k]` bias-grad GEMVs)
//!    stay naive at any size — no register tile beats a contiguous axpy.
//! 3. `Nt` (the `y = x·Wᵀ` Linear layout — the naive inner loop is a *scalar*
//!    dot product): packed from [`SMALL_MIN_FLOPS`] up, except the skinny-`m`
//!    wide-`n` band (`m < 4`, `n ≥ 8`), where the **direct** unpacked scheme is
//!    the fastest allocation-free plan. This replaces the old cliff where every
//!    sub-threshold shape bounced to the scalar naive nest and everything above
//!    it paid packing overhead it could not amortise.
//! 4. Packed schemes take their tile from the widest available micro-kernel
//!    (AVX-512 wide `16×16` → AVX-512 `16×8` → AVX `8×8` → portable `4×8`)
//!    and are always single-stage. The engine already fans training out across
//!    workers, so the plan never reads the thread count; double-buffered
//!    staging runs only when a tiling override asks for `stages=2`.
//!
//! Two knobs adjust the plan (env or `RunConfig`): `MERGESFL_MICROKERNEL`
//! (`portable`/`avx`/`avx512`/`avx512w` — unavailable kernels are ignored) and
//! `MERGESFL_TILING` (`mc=..,kc=..,nc=..,stages=..,tile=MRxNR`, applied on top
//! of selection for packed schemes). Every scheme produces bit-identical
//! results, so the knobs are pure performance controls.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Once;

use super::gemm::Trans;
use super::micro::{MicroKernelId, MicroSelect};
use super::tiling::{Staging, TileSize, TilingOverride, TilingScheme};

/// Below this many flops (`2·m·n·k`) the naive loops win outright.
pub const SMALL_MIN_FLOPS: usize = 1 << 9;

/// Packing crossover for the row-contiguous layouts (`Nn`/`Tn`): below this
/// many flops (`2·m·n·k`) their auto-vectorised naive nests win; above it the
/// packed drivers do. Measured at ~`24³` on the reference host. `Nt` ignores
/// this constant — its naive nest is scalar, so packing pays from
/// [`SMALL_MIN_FLOPS`] up.
pub const BLOCKED_MIN_FLOPS: usize = 1 << 15;

/// The execution plan [`select`] picks for one GEMM shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPlan {
    /// Run the naive oracle loops (tiny products).
    Naive,
    /// Run the tiled drivers with this scheme and micro-kernel policy.
    Tiled(TilingScheme, MicroSelect),
}

/// Plans one `op(A)·op(B)` product of logical shape `m × n × k`. The layout
/// participates because the relative cost of the naive, direct and packed plans
/// depends on which operands are contiguous. Accepts any shape (including zero
/// extents) without panicking.
pub fn select(trans: Trans, m: usize, n: usize, k: usize) -> GemmPlan {
    let micro = micro_select();
    let flops = m.saturating_mul(2).saturating_mul(n).saturating_mul(k);
    if flops < SMALL_MIN_FLOPS {
        return GemmPlan::Naive;
    }
    let small_tile = TilingScheme::small(m, n, k).tile;
    let skinny = m < small_tile.mr || n < small_tile.nr;
    match trans {
        // B rows contiguous: the naive nest auto-vectorises and beats any
        // tile until packing amortises.
        Trans::Nn | Trans::Tn => {
            if skinny || flops < BLOCKED_MIN_FLOPS {
                return GemmPlan::Naive;
            }
        }
        // Scalar naive nest: packing pays almost immediately, except the
        // skinny-m wide-n band where the unpacked register tile is the
        // fastest allocation-free plan.
        Trans::Nt => {
            if m < small_tile.mr && n >= small_tile.nr {
                return GemmPlan::Tiled(TilingScheme::small(m, n, k), micro);
            }
            if n < small_tile.nr {
                return GemmPlan::Naive;
            }
        }
    }
    let mut scheme = TilingScheme::packed(preferred_tile(micro), Staging::Single);
    tiling_override().apply(&mut scheme);
    scheme.validate();
    GemmPlan::Tiled(scheme, micro)
}

/// The widest tile the `micro` policy can actually run on this host. A forced
/// but unavailable kernel degrades to the portable tile rather than erroring,
/// so `MERGESFL_MICROKERNEL=avx512` is safe on any machine.
fn preferred_tile(micro: MicroSelect) -> TileSize {
    match micro {
        MicroSelect::Force(id) if id.is_available() => id.tile(),
        MicroSelect::Force(_) => MicroKernelId::Portable.tile(),
        MicroSelect::Auto => {
            if MicroKernelId::Avx512_16x16.is_available() {
                MicroKernelId::Avx512_16x16.tile()
            } else if MicroKernelId::Avx512_16x8.is_available() {
                MicroKernelId::Avx512_16x8.tile()
            } else if MicroKernelId::Avx8x8.is_available() {
                MicroKernelId::Avx8x8.tile()
            } else {
                MicroKernelId::Portable.tile()
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Override knobs.
//
// Stored lock-free so `select` (one read per gemm call) costs a few relaxed
// atomic loads and zero allocations. Env values are folded in once, lazily;
// the RunConfig setters below overwrite them for the rest of the process.
// ---------------------------------------------------------------------------

const MICRO_AUTO: u8 = 0;

static MICRO_OVERRIDE: AtomicU8 = AtomicU8::new(MICRO_AUTO);
static OVERRIDE_MC: AtomicUsize = AtomicUsize::new(0);
static OVERRIDE_KC: AtomicUsize = AtomicUsize::new(0);
static OVERRIDE_NC: AtomicUsize = AtomicUsize::new(0);
static OVERRIDE_STAGES: AtomicU8 = AtomicU8::new(0);
static OVERRIDE_TILE: AtomicU8 = AtomicU8::new(0);
static ENV_INIT: Once = Once::new();

fn micro_tag(id: MicroKernelId) -> u8 {
    match id {
        MicroKernelId::Portable => 1,
        MicroKernelId::Avx8x8 => 2,
        MicroKernelId::Avx512_16x8 => 3,
        MicroKernelId::Avx512_16x16 => 4,
    }
}

fn micro_from_tag(tag: u8) -> Option<MicroKernelId> {
    match tag {
        1 => Some(MicroKernelId::Portable),
        2 => Some(MicroKernelId::Avx8x8),
        3 => Some(MicroKernelId::Avx512_16x8),
        4 => Some(MicroKernelId::Avx512_16x16),
        _ => None,
    }
}

fn tile_tag(tile: TileSize) -> u8 {
    match (tile.mr, tile.nr) {
        (4, 8) => 1,
        (8, 8) => 2,
        (16, 8) => 3,
        (16, 16) => 4,
        _ => 0,
    }
}

fn tile_from_tag(tag: u8) -> Option<TileSize> {
    match tag {
        1 => Some(TileSize { mr: 4, nr: 8 }),
        2 => Some(TileSize { mr: 8, nr: 8 }),
        3 => Some(TileSize { mr: 16, nr: 8 }),
        4 => Some(TileSize { mr: 16, nr: 16 }),
        _ => None,
    }
}

fn init_overrides_from_env() {
    ENV_INIT.call_once(|| {
        if let Some(spec) = crate::env::var("MERGESFL_MICROKERNEL") {
            let spec = spec.trim();
            if !spec.is_empty() {
                match MicroKernelId::from_name(spec) {
                    Some(id) => store_micro_override(Some(id)),
                    None => eprintln!(
                        "MERGESFL_MICROKERNEL: unknown kernel `{spec}` (portable/avx/avx512/avx512w); ignored"
                    ),
                }
            }
        }
        if let Some(spec) = crate::env::var("MERGESFL_TILING") {
            match TilingOverride::parse(&spec) {
                Ok(ov) => store_tiling_override(ov),
                Err(msg) => eprintln!("{msg}; MERGESFL_TILING ignored"),
            }
        }
    });
}

fn store_micro_override(id: Option<MicroKernelId>) {
    MICRO_OVERRIDE.store(id.map_or(MICRO_AUTO, micro_tag), Ordering::Relaxed);
}

fn store_tiling_override(ov: TilingOverride) {
    OVERRIDE_MC.store(ov.mc.unwrap_or(0), Ordering::Relaxed);
    OVERRIDE_KC.store(ov.kc.unwrap_or(0), Ordering::Relaxed);
    OVERRIDE_NC.store(ov.nc.unwrap_or(0), Ordering::Relaxed);
    OVERRIDE_STAGES.store(
        match ov.stages {
            None => 0,
            Some(Staging::Single) => 1,
            Some(Staging::Double) => 2,
            Some(Staging::Direct) => 0,
        },
        Ordering::Relaxed,
    );
    OVERRIDE_TILE.store(ov.tile.map_or(0, tile_tag), Ordering::Relaxed);
}

/// Sets (or clears, with `None`) the process-wide micro-kernel override.
/// Plumbed from `RunConfig`; takes precedence over `MERGESFL_MICROKERNEL`.
pub fn set_micro_override(id: Option<MicroKernelId>) {
    init_overrides_from_env();
    store_micro_override(id);
}

/// Sets the process-wide tiling override (the default value clears it).
/// Plumbed from `RunConfig`; takes precedence over `MERGESFL_TILING`.
pub fn set_tiling_override(ov: TilingOverride) {
    init_overrides_from_env();
    store_tiling_override(ov);
}

/// The effective micro-kernel policy: forced when an override names an
/// available kernel, auto otherwise.
pub fn micro_select() -> MicroSelect {
    init_overrides_from_env();
    match micro_from_tag(MICRO_OVERRIDE.load(Ordering::Relaxed)) {
        Some(id) if id.is_available() => MicroSelect::Force(id),
        _ => MicroSelect::Auto,
    }
}

/// The effective tiling override applied to packed schemes.
pub fn tiling_override() -> TilingOverride {
    init_overrides_from_env();
    TilingOverride {
        mc: match OVERRIDE_MC.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        },
        kc: match OVERRIDE_KC.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        },
        nc: match OVERRIDE_NC.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v),
        },
        stages: match OVERRIDE_STAGES.load(Ordering::Relaxed) {
            1 => Some(Staging::Single),
            2 => Some(Staging::Double),
            _ => None,
        },
        tile: tile_from_tag(OVERRIDE_TILE.load(Ordering::Relaxed)),
    }
}

// ---------------------------------------------------------------------------
// Stage-overlap accounting.
//
// The double-buffered driver records how long the compute side sat waiting for
// a packed stage (`compute_wait_ns`) and how many stages ran. `kernel_bench`
// resets the counters per case and reports wait / wall as "stage idle" — the
// observable measure of how much pack latency the overlap actually hid.
// ---------------------------------------------------------------------------

static STAGE_COMPUTE_WAIT_NS: AtomicU64 = AtomicU64::new(0);
static STAGE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Cumulative pack-vs-compute overlap counters since the last reset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Nanoseconds the compute side spent blocked waiting for a packed stage.
    pub compute_wait_ns: u64,
    /// Number of double-buffered stages executed.
    pub stages: u64,
}

/// Zeroes the overlap counters (call before a measured region).
pub fn reset_stage_stats() {
    STAGE_COMPUTE_WAIT_NS.store(0, Ordering::Relaxed);
    STAGE_COUNT.store(0, Ordering::Relaxed);
}

/// Reads the overlap counters accumulated since the last reset.
pub fn stage_stats() -> StageStats {
    StageStats {
        compute_wait_ns: STAGE_COMPUTE_WAIT_NS.load(Ordering::Relaxed),
        stages: STAGE_COUNT.load(Ordering::Relaxed),
    }
}

pub(super) fn record_stage_wait(wait_ns: u64, stages: u64) {
    STAGE_COMPUTE_WAIT_NS.fetch_add(wait_ns, Ordering::Relaxed);
    STAGE_COUNT.fetch_add(stages, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The overrides are process-global; serialise every test that reads or
    /// writes them so parallel test threads cannot observe each other's state.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn clear_overrides() {
        set_micro_override(None);
        set_tiling_override(TilingOverride::default());
    }

    #[test]
    fn select_never_panics_on_degenerate_shapes() {
        let _guard = lock();
        clear_overrides();
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            for &(m, n, k) in &[
                (0, 0, 0),
                (0, 5, 5),
                (5, 0, 5),
                (5, 5, 0),
                (1, 1, 1),
                (1, 1, 1 << 20),
                (usize::MAX >> 24, 1, 1),
                (usize::MAX >> 1, usize::MAX >> 1, 1),
                (usize::MAX, usize::MAX, usize::MAX),
            ] {
                let plan = select(trans, m, n, k);
                if let GemmPlan::Tiled(scheme, _) = plan {
                    scheme.validate();
                }
            }
        }
    }

    #[test]
    fn crossover_regression() {
        // Pins the layout-aware scheme-selection crossovers the cliff fix
        // introduced. Each boundary below was measured on the reference host;
        // moving one deliberately means re-measuring, not just editing the test.
        let _guard = lock();
        clear_overrides();

        // 2*4*4*4 = 128 flops < SMALL_MIN_FLOPS: naive for every layout.
        for trans in [Trans::Nn, Trans::Nt, Trans::Tn] {
            assert_eq!(select(trans, 4, 4, 4), GemmPlan::Naive, "{trans:?}");
        }

        // Row-contiguous layouts: the vectorised naive nest wins below the
        // packing crossover...
        assert_eq!(select(Trans::Nn, 12, 12, 12), GemmPlan::Naive);
        assert_eq!(select(Trans::Nn, 24, 24, 24), GemmPlan::Naive);
        // ... and skinny shapes (the [1, n, k] bias-grad GEMV, [m, 1, k]
        // weight-grad slivers) stay naive at any size.
        assert_eq!(select(Trans::Tn, 1, 64, 256), GemmPlan::Naive);
        assert_eq!(select(Trans::Nn, 64, 1, 1 << 12), GemmPlan::Naive);
        // 2*32^3 = 65536 >= BLOCKED_MIN_FLOPS: packed.
        match select(Trans::Nn, 32, 32, 32) {
            GemmPlan::Tiled(scheme, _) => assert_ne!(scheme.stage, Staging::Direct),
            plan => panic!("32^3 Nn should be packed, got {plan:?}"),
        }

        // Nt (scalar naive nest): packed from just above SMALL_MIN_FLOPS...
        match select(Trans::Nt, 8, 8, 8) {
            GemmPlan::Tiled(scheme, _) => assert_ne!(scheme.stage, Staging::Direct),
            plan => panic!("8x8x8 Nt should be packed, got {plan:?}"),
        }
        // ... the skinny-m wide-n band runs the direct unpacked scheme ...
        match select(Trans::Nt, 3, 48, 64) {
            GemmPlan::Tiled(scheme, _) => assert_eq!(scheme.stage, Staging::Direct),
            plan => panic!("3x48x64 Nt should run the direct scheme, got {plan:?}"),
        }
        // ... and skinny-n falls back to naive (nothing vectorises it).
        assert_eq!(select(Trans::Nt, 64, 1, 256), GemmPlan::Naive);

        // 256^3 is packed, with the default partition and a supported tile.
        match select(Trans::Nn, 256, 256, 256) {
            GemmPlan::Tiled(scheme, _) => {
                assert_ne!(scheme.stage, Staging::Direct);
                assert!(scheme.tile.is_supported());
                assert_eq!(scheme.partition.kc, 256);
            }
            plan => panic!("256^3 should be packed, got {plan:?}"),
        }
    }

    #[test]
    fn overrides_shape_the_packed_plan() {
        let _guard = lock();
        clear_overrides();
        set_tiling_override(TilingOverride {
            mc: Some(64),
            kc: Some(64),
            nc: Some(64),
            stages: Some(Staging::Double),
            tile: Some(TileSize { mr: 4, nr: 8 }),
        });
        match select(Trans::Nn, 256, 256, 256) {
            GemmPlan::Tiled(scheme, _) => {
                assert_eq!(scheme.partition.mc, 64);
                assert_eq!(scheme.stage, Staging::Double);
                assert_eq!(scheme.tile, TileSize { mr: 4, nr: 8 });
            }
            plan => panic!("expected packed plan, got {plan:?}"),
        }
        // Direct plans ignore the partition override.
        match select(Trans::Nt, 3, 48, 64) {
            GemmPlan::Tiled(scheme, _) => assert_eq!(scheme.stage, Staging::Direct),
            plan => panic!("expected direct plan, got {plan:?}"),
        }
        clear_overrides();
    }

    #[test]
    fn forced_micro_kernel_controls_tile() {
        let _guard = lock();
        clear_overrides();
        set_micro_override(Some(MicroKernelId::Portable));
        assert_eq!(micro_select(), MicroSelect::Force(MicroKernelId::Portable));
        match select(Trans::Nn, 256, 256, 256) {
            GemmPlan::Tiled(scheme, _) => assert_eq!(scheme.tile, TileSize { mr: 4, nr: 8 }),
            plan => panic!("expected packed plan, got {plan:?}"),
        }
        clear_overrides();
        assert_eq!(micro_select(), MicroSelect::Auto);
    }

    #[test]
    fn the_plan_does_not_depend_on_the_thread_count() {
        // Parallelism lives in the engine's worker fan-out, so a kernel plan reads
        // no thread count and stays single-stage unless an override asks otherwise.
        let _guard = lock();
        clear_overrides();
        let plan_at = |threads| {
            rayon::set_num_threads(threads);
            let plan = select(Trans::Nn, 256, 256, 256);
            rayon::set_num_threads(0);
            plan
        };
        let one = plan_at(1);
        assert!(
            matches!(one, GemmPlan::Tiled(scheme, _) if scheme.stage == Staging::Single),
            "{one:?}"
        );
        assert_eq!(one, plan_at(4));
    }

    #[test]
    fn stage_stats_accumulate_and_reset() {
        // Other tests may run double-buffered GEMMs concurrently and add to
        // the global counters, so assert lower bounds, not exact values.
        reset_stage_stats();
        record_stage_wait(120, 3);
        record_stage_wait(30, 1);
        let stats = stage_stats();
        assert!(stats.compute_wait_ns >= 150, "{stats:?}");
        assert!(stats.stages >= 4, "{stats:?}");
    }
}
