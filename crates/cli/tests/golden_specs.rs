//! Golden snapshot tests: the full stdout of `rbb sim --spec --quick` (and
//! `rbb ensemble --spec --quick` for ensemble specs) is pinned for **every**
//! committed `specs/*.json`, so scenario and report semantics cannot drift
//! silently. A behavior change that alters any committed spec's output must
//! update the fixture in the same commit.
//!
//! A sweep spec (`specs/ensemble-eNN*.json`, an experiment as data) prints
//! its quick table. `rbb-experiments`' tests check the paper's claims over
//! the table its fixture pins, so no sweep runs twice in the test suite.
//!
//! Regenerate fixtures deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rbb-cli --test golden_specs
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // Tests run with the package root (crates/cli) as CWD.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs the built `rbb` binary on one spec and returns its stdout.
fn run_spec(spec: &Path) -> String {
    let is_ensemble = spec
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.starts_with("ensemble-"));
    let subcommand = if is_ensemble { "ensemble" } else { "sim" };
    let output = Command::new(env!("CARGO_BIN_EXE_rbb"))
        .args([subcommand, "--spec"])
        .arg(spec)
        .arg("--quick")
        // The harness guarantees thread-count invariance; pin it anyway so
        // a regression shows up here as a fixture diff, not flakiness.
        .env("RAYON_NUM_THREADS", "2")
        .output()
        .expect("rbb binary runs");
    assert!(
        output.status.success(),
        "rbb {subcommand} --spec {} failed:\n{}",
        spec.display(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("rbb output is UTF-8")
}

#[test]
fn every_committed_spec_matches_its_golden_fixture() {
    let specs_dir = repo_root().join("specs");
    let mut specs: Vec<PathBuf> = fs::read_dir(&specs_dir)
        .expect("specs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    specs.sort();
    assert!(
        specs.len() >= 8,
        "expected the committed spec set, found {specs:?}"
    );

    // Sanctioned env read: a test-harness regeneration switch, not a
    // knob any simulation result depends on (clippy.toml bans the rest).
    #[allow(clippy::disallowed_methods)]
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut fixtures_seen = Vec::new();
    for spec in &specs {
        let stem = spec.file_stem().unwrap().to_str().unwrap();
        let fixture = golden_dir().join(format!("{stem}.stdout"));
        let got = run_spec(spec);
        fixtures_seen.push(format!("{stem}.stdout"));
        if update {
            fs::create_dir_all(golden_dir()).unwrap();
            fs::write(&fixture, &got).unwrap();
            continue;
        }
        let want = fs::read_to_string(&fixture).unwrap_or_else(|_| {
            panic!(
                "missing fixture {} — run UPDATE_GOLDEN=1 cargo test -p rbb-cli --test golden_specs",
                fixture.display()
            )
        });
        assert_eq!(
            got,
            want,
            "stdout drifted for {} — if intentional, regenerate the fixture",
            spec.display()
        );
    }

    // No stale fixtures: every committed .stdout corresponds to a spec.
    // In update mode, stale fixtures are removed instead (so renaming or
    // deleting a spec regenerates cleanly in one run).
    for entry in fs::read_dir(golden_dir()).expect("tests/golden exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if fixtures_seen.contains(&name) {
            continue;
        }
        if update {
            fs::remove_file(&path).unwrap();
        } else {
            panic!("stale fixture {name} has no matching spec");
        }
    }
}
