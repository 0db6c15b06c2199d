//! What the benchmark reads about its host and process: CPU time and peak memory
//! from `/proc`, the core count, the GEMM micro-kernel the runtime selects, and the
//! environment knobs that could have changed a run.

use mergesfl_nn::kernels::runtime::micro_select;
use mergesfl_nn::kernels::{MicroKernelId, MicroSelect};

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, 100 per second on
/// every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// Every environment variable the workspace reads (the knob table in
/// `mergesfl_nn::env`, plus the rayon shim's `RAYON_NUM_THREADS`).
const KNOBS: [&str; 21] = [
    "MERGESFL_PIPELINE",
    "MERGESFL_KERNELS",
    "MERGESFL_MICROKERNEL",
    "MERGESFL_TILING",
    "MERGESFL_TENSOR_POOL",
    "MERGESFL_COUNT_ALLOCS",
    "MERGESFL_NUM_SERVERS",
    "MERGESFL_SYNC_EVERY",
    "MERGESFL_STALENESS",
    "MERGESFL_TOPOLOGY",
    "MERGESFL_FLEET",
    "MERGESFL_CHURN",
    "MERGESFL_CHURN_PERIOD",
    "MERGESFL_CHURN_MIN_AVAIL",
    "MERGESFL_CHURN_DROPOUT",
    "MERGESFL_BENCH_JSON",
    "MERGESFL_PERF_FLOOR",
    "MERGESFL_SCALE",
    "MERGESFL_JSON",
    "MERGESFL_DATASETS",
    "RAYON_NUM_THREADS",
];

/// User plus system CPU seconds this process (all its threads, live and exited) has
/// used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().expect("utime is an integer")
        + fields[12].parse::<u64>().expect("stime is an integer");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM");
    kib / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The GEMM micro-kernel packed GEMMs run with: the forced one, or under auto
/// selection the widest the host supports (the runtime's own preference order).
pub fn micro_kernel() -> &'static str {
    match micro_select() {
        MicroSelect::Force(id) => id.name(),
        MicroSelect::Auto => [
            MicroKernelId::Avx512_16x16,
            MicroKernelId::Avx512_16x8,
            MicroKernelId::Avx8x8,
        ]
        .into_iter()
        .find(MicroKernelId::is_available)
        .unwrap_or(MicroKernelId::Portable)
        .name(),
    }
}

/// The workspace's environment knobs that are set, as `NAME=value` pairs. The
/// workloads override every one of them; they are reported so a reader can see what
/// the benchmark isolated itself from.
pub fn knobs_present() -> Vec<String> {
    KNOBS
        .iter()
        .filter_map(|&k| mergesfl_nn::env::var(k).map(|v| format!("{k}={v}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert!(!micro_kernel().is_empty());
    }
}
