//! Runs the built benchmark at toy sizes (`--quick`), one process per run as
//! the real thing does, and checks what it prints against the manifest.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::path::PathBuf;
use std::process::{Command, Output};

use json::Json;

const BIN: &str = env!("CARGO_BIN_EXE_lardb-benchmark");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn manifest() -> Json {
    let out = run(&["manifest"]);
    assert!(out.status.success());
    Json::parse(&String::from_utf8(out.stdout).unwrap()).unwrap()
}

fn names(manifest: &Json, section: &str) -> Vec<(String, String)> {
    manifest
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

/// The last line of a run's standard output, checked against the contract.
fn check_result(stdout: &str, expected: &[(String, String)], never_zero: bool) {
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(got, want);
    for ((name, m), (_, unit)) in metrics.iter().zip(expected) {
        let fields: Vec<&str> = m
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(fields, ["value", "unit"], "{name}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{name} = {value}");
        if never_zero {
            assert!(value > 0.0, "{name} = {value}");
        }
    }
}

#[test]
fn every_workload_runs_untraced_and_traced_at_toy_sizes() {
    let manifest = manifest();
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let workloads = names(&manifest, "workloads");
    assert_eq!(workloads.len(), 6);
    for (workload, _) in &workloads {
        // A served block of ten statements needs most of a second today.
        let seconds = if workload == "serve_mixed" {
            "2"
        } else {
            "0.2"
        };
        for (trace, expected, never_zero) in [("0", &end_to_end, true), ("1", &per_layer, false)] {
            let out = run(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                seconds,
                "--trace",
                trace,
                "--quick",
            ]);
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            check_result(&stdout, expected, never_zero);
        }
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let digest = |seed: &str| {
        let out = run(&[
            "--workload",
            "gram_tuple",
            "--seed",
            seed,
            "--seconds",
            "0.1",
            "--trace",
            "0",
            "--quick",
        ]);
        let stdout = String::from_utf8(out.stdout).unwrap();
        let at = stdout.find("digest=").expect("a digest is printed") + "digest=".len();
        stdout[at..at + 16].to_string()
    };
    assert_eq!(digest("11"), digest("11"));
    assert_ne!(digest("11"), digest("12"));
}

#[test]
fn bad_command_lines_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "gram_tuple", "--trace", "2"],
        &["--workload", "gram_tuple", "--seconds", "0"],
        &["--seed", "1"],
        &["compare", "only-one.json"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"metrics\""),
            "{args:?}"
        );
    }
}

#[test]
fn engine_settings_in_the_environment_are_refused() {
    let out = Command::new(BIN)
        .args(["--workload", "gram_tuple", "--seconds", "0.1", "--quick"])
        .env("LARDB_EXPR_ENGINE", "interpret")
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("LARDB_EXPR_ENGINE"));
}

#[test]
fn a_quick_set_is_written_and_compare_rejects_it() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-set.json");
    let file = path.to_str().unwrap();
    let out = run(&[
        "set",
        "--out",
        file,
        "--quick",
        "--repeats",
        "2",
        "--seconds",
        "0.1",
        "--workloads",
        "gram_tuple,pagerank_sparse",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let set = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(set.get("quick"), Some(&Json::Bool(true)));
    // Two untraced runs and a traced one per workload.
    assert_eq!(set.get("runs").and_then(Json::as_arr).unwrap().len(), 6);
    let host = set.get("host").unwrap();
    for key in [
        "nproc",
        "cpu_model",
        "peak_gflops",
        "memcpy_gb_s",
        "rustc",
        "git_commit",
    ] {
        assert!(host.get(key).is_some(), "host fingerprint lacks {key}");
    }
    for r in set.get("runs").and_then(Json::as_arr).unwrap() {
        assert_eq!(r.get("quick"), Some(&Json::Bool(true)));
        assert_eq!(
            r.get("input_digest").and_then(Json::as_str).map(str::len),
            Some(16)
        );
        assert!(r.get("seed").is_some());
    }
    let out = run(&["compare", file, file]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--quick"));
    let _ = std::fs::remove_file(&path);
}
