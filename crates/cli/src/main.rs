//! `rbb` — command-line explorer for the repeated balls-into-bins
//! reproduction.
//!
//! ```text
//! rbb sim      --spec <file.json> [--seed S] [--quick]
//! rbb ensemble --spec <file.json> [--seeds N] [--master-seed S] [--quick]
//! rbb simulate [--n 1024] [--rounds R] [--start one-per-bin|all-in-one|random|geometric]
//!              [--seed S]
//! rbb traverse [--n 512] [--gamma 6] [--adversary all-in-one|random|follow-the-leader]
//! rbb topology [--kind complete|complete-graph|ring|torus|hypercube|random-regular|star]
//!              [--n 1024] [--rounds R]
//! rbb exact    [--n 3]
//! ```

mod args;
mod commands;

use args::Args;

fn usage() {
    eprintln!(
        "usage: rbb <sim|ensemble|simulate|traverse|topology|exact> [--key value]...\n\
         \n\
         sim        run a declarative scenario: --spec <file.json> [--seed S] [--quick]\n\
         ensemble   run a many-seed ensemble and print its JSON report (a sweep\n\
         \u{20}          spec prints its table; --quick runs its quick cells):\n\
         \u{20}          --spec <file.json> [--seeds N] [--master-seed S] [--quick]\n\
         simulate   run the paper's process and summarize load/legitimacy\n\
         traverse   multi-token traversal cover time (optional --gamma faults)\n\
         topology   constrained walks on a graph, with diameter/spectral gap\n\
         exact      exact small-n chain: stationary law, mixing, Appendix B\n\
         \n\
         common flags: --n <usize> --seed <u64> --rounds <u64>"
    );
}

fn main() {
    rbb_sim::output::exit_quietly_on_closed_stdout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            std::process::exit(2);
        }
    };
    let result = match args.command() {
        Some("sim") => commands::sim(&args),
        Some("ensemble") => commands::ensemble(&args),
        Some("simulate") => commands::simulate(&args),
        Some("traverse") => commands::traverse(&args),
        Some("topology") => commands::topology(&args),
        Some("exact") => commands::exact(&args),
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            usage();
            std::process::exit(2);
        }
        None => {
            usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
