//! Sharded-engine **construction** throughput: wall time to stand up a
//! `ShardedEngine` of balanced 4-ary SplayNet shards, sequentially
//! (`build_threads = 1`, the historical default) versus with the parallel
//! shard build (`build_threads = 4`).
//!
//! Shard construction is embarrassingly parallel — each worker runs
//! `from_shape` on its own arena with no shared state — so on a ≥4-core
//! host the 4-thread build should approach 4× on 16 shards; the run
//! prints the measured ratio and the host's available parallelism so
//! single-core containers (where no construction speedup is physically
//! possible) are self-explaining rather than silently misleading.
//!
//! The criterion group times 10⁶-node builds (cheap enough to iterate);
//! `report_build_speedup` times the 10⁷-node acceptance configuration
//! directly, best-of-3.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use kst_engine::{EngineConfig, ShardedEngine};
use std::hint::black_box;

const N: usize = 1_000_000;
const N_REPORT: usize = 10_000_000;
const SHARDS: usize = 16;
const K: usize = 4;

fn build_engine(n: usize, build_threads: usize) -> ShardedEngine<kst_core::KSplayNet> {
    let cfg = EngineConfig::default()
        .with_shards(SHARDS)
        .with_build_threads(build_threads);
    ShardedEngine::ksplay(K, n, cfg)
}

fn bench_build_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_build_ksplay_1m_16shards");
    group.throughput(Throughput::Elements(N as u64));
    for build_threads in [1usize, 4] {
        let label = format!("{build_threads}thr");
        group.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
            b.iter(|| {
                let engine = build_engine(black_box(N), build_threads);
                engine.nets().len()
            });
        });
    }
    group.finish();
}

/// Directly times the 10⁷-node, 16-shard build at 4 build threads against
/// the sequential baseline and prints the speedup ratio (the acceptance
/// number on multi-core hosts).
fn report_build_speedup() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let time = |build_threads: usize| {
        let mut best = f64::MAX;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let engine = build_engine(N_REPORT, build_threads);
            let elapsed = start.elapsed();
            black_box(engine.nets().len());
            best = best.min(elapsed.as_secs_f64());
        }
        best
    };
    let seq = time(1);
    let par = time(4);
    println!(
        "engine_build: 16 shards at n=10^7, 4 build threads vs sequential = \
         {:.2}x speedup ({:.1} vs {:.1} Mnode/s; host has {cores} core(s), {})",
        seq / par,
        N_REPORT as f64 / par / 1e6,
        N_REPORT as f64 / seq / 1e6,
        kst_bench::speedup_ceiling_note(cores, 4)
    );
}

criterion_group!(benches, bench_build_threads);

fn main() {
    benches();
    report_build_speedup();
}
