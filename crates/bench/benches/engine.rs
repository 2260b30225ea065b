//! Engine throughput: one round of the repeated balls-into-bins process.
//!
//! Ablation DESIGN.md §3.1: the load-only engine vs the ball-identity engine
//! at matched `n` — the cost of carrying identities, queues and per-ball
//! stats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use rbb_core::ball_process::BallProcess;
use rbb_core::config::Config;
use rbb_core::engine::Engine;
use rbb_core::process::LoadProcess;
use rbb_core::rng::Xoshiro256pp;
use rbb_core::strategy::QueueStrategy;

fn bench_load_engine_batched(c: &mut Criterion) {
    let mut g = c.benchmark_group("load_engine_step_batched");
    for n in [256usize, 1024, 4096, 16384] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut p = LoadProcess::legitimate_start(n, 42);
            p.run_silent(100); // equilibrate
            b.iter(|| black_box(p.step_batched()));
        });
    }
    g.finish();
}

fn bench_ball_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("ball_engine_step");
    for n in [256usize, 1024, 4096, 16384] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut p = BallProcess::new(
                Config::one_per_bin(n),
                QueueStrategy::Fifo,
                Xoshiro256pp::seed_from(42),
            );
            for _ in 0..100 {
                p.step();
            }
            b.iter(|| black_box(p.step()));
        });
    }
    g.finish();
}

fn bench_convergence(c: &mut Criterion) {
    // Full Theorem-1(b) convergence run from the worst start.
    let mut g = c.benchmark_group("convergence_from_all_in_one");
    g.sample_size(20);
    for n in [256usize, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let thr = rbb_core::config::LegitimacyThreshold::default();
            b.iter(|| {
                let mut p =
                    LoadProcess::new(Config::all_in_one(n, n as u32), Xoshiro256pp::seed_from(7));
                black_box(p.run_until(20 * n as u64, |c| thr.is_legitimate(c)))
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_load_engine_batched,
    bench_ball_engine,
    bench_convergence
);
criterion_main!(benches);
