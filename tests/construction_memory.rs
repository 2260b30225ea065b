//! Memory of the load engines, read as the rise of the process's peak
//! resident set:
//!
//! * building a one-per-bin engine of `n = 2^24` bins through
//!   `build_engine` may raise it by less than 6 bytes per bin. Its loads
//!   take 4; a list of the start's `(bin, load)` pairs (8 more) or a dense
//!   copy of the start beside the storage (4 more) does not fit;
//! * stepping a one-per-bin 4-shard engine of `n = 2^22` bins for 30
//!   rounds may raise it by less than 7 bytes per bin. Its first round
//!   releases every ball, and the outboxes that route them take about 4
//!   bytes per ball; staging each shard's draws in a buffer of their own
//!   before routing them (4 more) does not fit.
//!
//! Each test first fills the resident set up to the peak that earlier work
//! left, so that the peak moves by exactly what it measures, and the two
//! take turns, as they share the one peak of the process.
//!
//! Linux only: the peak is `VmHWM` in `/proc/self/status`.
#![cfg(target_os = "linux")]

use std::sync::Mutex;

use rbb_sim::{build_engine, EngineSpec, ScenarioSpec};

/// Held by each test for its whole measurement.
static PEAK: Mutex<()> = Mutex::new(());

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

/// Runs `work` with the resident set filled up to its peak and returns how
/// far `work` raised that peak, in bytes per bin of `n`, with what `work`
/// returned.
fn peak_rise<T>(n: usize, work: impl FnOnce() -> T) -> (f64, T) {
    let (peak, now) = resident();
    let ballast = vec![1u8; (peak - now) as usize];
    std::hint::black_box(&ballast);
    let (before, _) = resident();
    let kept = work();
    let (after, _) = resident();
    drop(ballast);
    ((after - before) as f64 / n as f64, kept)
}

#[test]
fn one_per_bin_engines_are_built_holding_only_their_loads() {
    let _turn = PEAK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1usize << 24;
    for engine in [EngineSpec::Dense, EngineSpec::Sharded] {
        let spec = ScenarioSpec::builder(n).engine(engine).build();
        let (per_bin, built) = peak_rise(n, || build_engine(&spec).unwrap());
        assert_eq!(built.balls(), n as u64);
        assert!(
            per_bin < 6.0,
            "{engine:?}: building raised the peak resident set by {per_bin:.2} bytes per bin"
        );
        eprintln!("{engine:?}: {per_bin:.2} bytes per bin");
    }
}

#[test]
fn sharded_rounds_hold_only_their_outboxes() {
    let _turn = PEAK.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1usize << 22;
    let spec = ScenarioSpec::builder(n)
        .engine(EngineSpec::Sharded)
        .shards(4)
        .build();
    let mut engine = build_engine(&spec).unwrap();
    let (per_bin, moved) = peak_rise(n, || (0..30).map(|_| engine.step()).sum::<usize>());
    assert!(moved >= n, "the first round alone moves every ball");
    assert_eq!(engine.balls(), n as u64);
    assert!(
        per_bin < 7.0,
        "30 sharded rounds raised the peak resident set by {per_bin:.2} bytes per bin"
    );
    eprintln!("30 sharded rounds: {per_bin:.2} bytes per bin");
}
