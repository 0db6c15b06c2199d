//! Tests of the benchmark itself: tiny-size smoke runs of every workload that must
//! print every metric `BENCHMARK.json` declares, with its unit, and the replay ==
//! engine check on tiny configurations.

use std::process::Command;
use train_bench::measure::engine_run;
use train_bench::replay::{replay, Trace};
use train_bench::workload::{Size, Workload};

/// `(name, unit)` of every metric in one list of the repository's `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{list}\": ["))
        .expect("list is declared");
    let section = &text[start..start + text[start..].find(']').expect("list is closed")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("entry has the key")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string is closed")].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs the benchmark binary at tiny size; returns (exit success, stdout lines).
fn run(workload: &str, trace: &str) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_train_bench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (
        out.status.success(),
        stdout.lines().map(str::to_string).collect(),
    )
}

fn check_smoke(trace: &str, list: &str) {
    let metrics = declared(list);
    assert!(!metrics.is_empty());
    for workload in Workload::ALL {
        let (ok, lines) = run(workload.name(), trace);
        assert!(
            ok,
            "{} exited non-zero:\n{}",
            workload.name(),
            lines.join("\n")
        );
        let json = lines.last().expect("a result line");
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert_eq!(
            json.matches("\"value\": ").count(),
            metrics.len(),
            "{}: the result carries exactly the declared metrics",
            workload.name()
        );
        for (name, unit) in &metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &json[at..];
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(
                rest[..rest.find('}').expect("entry closes") + 1].ends_with(&unit_field),
                "{name} is not reported in {unit}"
            );
            let human = lines[..lines.len() - 1]
                .iter()
                .any(|l| l.contains(&format!("] {name} = ")) && l.contains(&format!(" {unit}")));
            let tail = name.ends_with(".tail");
            assert!(tail || human, "{name} has no human-readable line");
        }
        assert!(lines
            .iter()
            .any(|l| l.contains("failed_run_ratio = 0 ratio")));
        assert!(lines
            .iter()
            .any(|l| l.contains("nproc=") && l.contains("micro_kernel=")));
    }
}

#[test]
fn tiny_untraced_runs_print_every_end_to_end_metric_with_its_unit() {
    check_smoke("0", "end_to_end");
}

#[test]
fn tiny_traced_runs_print_every_per_layer_metric_with_its_unit() {
    check_smoke("1", "per_layer");
}

#[test]
fn per_layer_declaration_matches_what_the_traced_run_reports() {
    let declared: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    assert_eq!(declared, train_bench::traced::metric_names());
}

#[test]
fn replay_matches_the_engine_on_tiny_configs() {
    for workload in Workload::ALL {
        for seed in workload.training_seeds(11, Size::Tiny) {
            let config = workload.config(seed, Size::Tiny);
            let engine = engine_run(&config).expect("engine runs");
            let mut trace = Trace::default();
            let replayed = replay(&config, &mut trace);
            assert_eq!(
                replayed.trajectory,
                engine.trajectory,
                "{}",
                workload.name()
            );
            assert!(!trace.samples("control.plan_ms").is_empty());
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let args = |workload: &'static str, seed: &'static str, trace: &'static str| {
        [
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            trace,
        ]
    };
    for args in [
        args("nope", "1", "0"),
        args("cifar_1t", "x", "0"),
        args("cifar_1t", "1", "2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_train_bench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
