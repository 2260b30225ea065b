//! Reduced-size runs of every workload, untraced and traced: each must pass
//! its own output checks, print exactly the metrics `BENCHMARK.json` names
//! for its mode, and repeat its exact counters across two runs of one seed.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every entry of `BENCHMARK.json`'s list `key`.
fn declared(bench: &str, key: &str) -> Vec<(String, String)> {
    let root = serde_json::parse_value_str(bench).expect("BENCHMARK.json parses");
    root.get(key)
        .and_then(|l| l.as_array())
        .expect("a list")
        .iter()
        .map(|m| {
            let [name, unit] = ["name", "unit"].map(|k| {
                let v = m.get(k).and_then(|x| x.as_str());
                v.unwrap_or_default().to_string()
            });
            (name, unit)
        })
        .collect()
}

/// `(name, unit)` of every metric of a result line, in printed order.
fn printed(result: &str) -> Vec<(String, String)> {
    let v = serde_json::parse_value_str(result).expect("the result line is JSON");
    v.get("metrics")
        .and_then(|m| m.as_object())
        .expect("a metrics object")
        .iter()
        .map(|(k, m)| {
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or_default();
            (k.clone(), unit.to_string())
        })
        .collect()
}

/// Builds the daemon beside this package's binary and returns its path.
fn serve_bin() -> PathBuf {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "rbb-serve",
            "--manifest-path",
        ])
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building rbb-serve");
    let bin = Path::new(env!("CARGO_BIN_EXE_perfbench")).with_file_name("rbb-serve");
    assert!(bin.is_file(), "{} was not built", bin.display());
    bin
}

/// One smoke run; returns the `exact` line and the result line.
fn run(workload: &str, seed: u64, trace: u8, serve: &Path, work: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", &trace.to_string(), "--smoke"])
        .arg("--work-dir")
        .arg(work)
        .arg("--serve-bin")
        .arg(serve)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let exact = lines
        .iter()
        .find(|l| l.starts_with("exact "))
        .expect("an exact line")
        .to_string();
    let result = lines.last().expect("a result line").to_string();
    (exact, result)
}

#[test]
fn every_workload_passes_its_checks_and_repeats_its_counters() {
    let bench_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench = std::fs::read_to_string(bench_path).expect("BENCHMARK.json is readable");
    let workloads: Vec<String> = declared(&bench, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads.len(), 4);
    let serve = serve_bin();
    let work = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    for workload in &workloads {
        for (trace, table) in [(0, "end_to_end"), (1, "per_layer")] {
            let (exact_a, result) = run(workload, 7, trace, &serve, &work);
            assert!(
                result.starts_with("{\"correct\":true,") && result.contains("\"failed\":0,"),
                "{workload} trace {trace}: {result}"
            );
            assert_eq!(printed(&result), declared(&bench, table), "{workload}");
            let (exact_b, _) = run(workload, 7, trace, &serve, &work);
            assert_eq!(exact_a, exact_b, "{workload} trace {trace}");
            let (exact_c, _) = run(workload, 8, trace, &serve, &work);
            assert_ne!(
                exact_a, exact_c,
                "{workload}: the seed must change the inputs"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
