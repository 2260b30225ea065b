//! Construction memory of the load engines: building a one-per-bin engine
//! of `n = 2^24` bins through `build_engine` may raise the process's peak
//! resident set by less than 6 bytes per bin. Its loads take 4; a list of
//! the start's `(bin, load)` pairs (8 more) or a dense copy of the start
//! beside the storage (4 more) does not fit.
//!
//! Linux only: the peak is `VmHWM` in `/proc/self/status`.
#![cfg(target_os = "linux")]

use rbb_sim::{build_engine, EngineSpec, ScenarioSpec};

/// This process's peak and current resident set (`VmHWM`, `VmRSS`), in
/// bytes.
fn resident() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let field = |name: &str| -> u64 {
        let line = (status.lines())
            .find_map(|l| l.strip_prefix(name))
            .unwrap_or_else(|| panic!("no {name} in /proc/self/status"));
        let kib = line.trim().trim_end_matches("kB").trim();
        kib.parse::<u64>().expect("a kB count") << 10
    };
    (field("VmHWM:"), field("VmRSS:"))
}

#[test]
fn one_per_bin_engines_are_built_holding_only_their_loads() {
    let n = 1usize << 24;
    for engine in [EngineSpec::Dense, EngineSpec::Sharded] {
        let spec = ScenarioSpec::builder(n).engine(engine).build();
        // Fill the resident set up to the peak an earlier build left, so
        // that the peak moves by exactly this build's own high point.
        let (peak, now) = resident();
        let ballast = vec![1u8; (peak - now) as usize];
        std::hint::black_box(&ballast);
        let (before, _) = resident();
        let built = build_engine(&spec).unwrap();
        let (after, _) = resident();
        assert_eq!(built.balls(), n as u64);
        let per_bin = (after - before) as f64 / n as f64;
        assert!(
            per_bin < 6.0,
            "{engine:?}: building raised the peak resident set by {per_bin:.2} bytes per bin"
        );
        eprintln!("{engine:?}: {per_bin:.2} bytes per bin");
        drop((built, ballast));
    }
}
