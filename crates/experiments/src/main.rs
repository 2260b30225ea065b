//! `rbb-exp` — runs the experiment suite E01–E27.
//!
//! Usage:
//! ```text
//! rbb-exp [--quick] [--seed <u64>] [--no-write] (all | list | <id>...)
//! ```

use rbb_experiments::common::ExpContext;
use rbb_experiments::registry;
use rbb_sim::{OutputSink, SeedTree, DEFAULT_MASTER_SEED, RESULTS_DIR};

fn usage() -> ! {
    eprintln!("usage: rbb-exp [--quick] [--seed <u64>] [--no-write] (all | list | <id>...)");
    eprintln!("       ids: e01..e27; `list` prints the registry");
    std::process::exit(2);
}

fn main() {
    rbb_sim::output::exit_quietly_on_closed_stdout();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut write = true;
    let mut seed = DEFAULT_MASTER_SEED;
    let mut selected: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--no-write" => write = false,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            other => selected.push(other.to_string()),
        }
        i += 1;
    }
    if selected.is_empty() {
        usage();
    }

    let registry = registry();

    if selected.iter().any(|s| s == "list") {
        println!("available experiments:");
        for e in &registry {
            println!("  {}  {}  [{}]", e.id, e.title, e.claim);
        }
        return;
    }

    let run_all = selected.iter().any(|s| s == "all");
    // Reject unknown ids up front: silently ignoring `rbb-exp e01 e99`
    // would report success while skipping work.
    let unknown: Vec<&String> = selected
        .iter()
        .filter(|s| *s != "all" && !registry.iter().any(|e| e.id == s.as_str()))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {unknown:?}");
        usage();
    }
    let tree = SeedTree::new(seed);
    let start = std::time::Instant::now();
    let mut ran = 0usize;
    for e in &registry {
        if run_all || selected.iter().any(|s| s == e.id) {
            let t0 = std::time::Instant::now();
            let ctx = ExpContext {
                seeds: tree.scope(e.id),
                quick,
                sink: if write {
                    OutputSink::new(RESULTS_DIR, e.id, true)
                } else {
                    OutputSink::disabled()
                },
            };
            if let Err(err) = e.execute(&ctx) {
                eprintln!("{}: {err}", e.id);
                std::process::exit(1);
            }
            println!("[{} done in {:.1?}]", e.id, t0.elapsed());
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiment matched {selected:?}");
        usage();
    }
    println!(
        "\n{} experiment(s) completed in {:.1?} (seed = {:#x}, quick = {})",
        ran,
        start.elapsed(),
        seed,
        quick
    );
}
