//! Lazy-net serving throughput and rebuild cost (ROADMAP: grow
//! `LazyKaryNet` into a first-class network with its own bench coverage).
//!
//! Two groups, both wired into the `bench_check` baselines:
//!
//! * `lazy_serve` — steady-state serves between rebuilds on a 10⁵-node
//!   net: one tree-distance query plus one sparse-ledger record per
//!   request. With a warmed ledger this path is allocation-free, which a
//!   counting-allocator pre-pass asserts before any timing runs.
//! * `lazy_rebuild` — one full weight-balanced epoch rebuild at 10⁵
//!   nodes: key-frequency extraction from the sparse ledger, the
//!   weight-balanced shape build, and arena-tree materialization — the
//!   bulk cost α amortizes.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use kst_core::alloc_probe::{self, CountingAlloc};
use kst_core::lazy::weight_balanced_rebuilder;
use kst_core::{DecayingDemand, KstTree, LazyKaryNet, Network, ShapeTree};
use kst_workloads::gens;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 100_000;
const BATCH: usize = 10_000;
const TRACE_LEN: usize = 200_000;

fn zipf_trace() -> kst_workloads::Trace {
    gens::zipf(N, TRACE_LEN, 1.2, 41)
}

/// Steady-state lazy serving: the epoch ledger absorbs the trace's
/// distinct pairs during warmup, then every measured serve is a distance
/// query plus a ledger-count bump (no rebuilds: α is out of reach).
fn bench_lazy_serve(c: &mut Criterion) {
    let trace = zipf_trace();
    let mut group = c.benchmark_group("lazy_serve");
    group.throughput(Throughput::Elements(BATCH as u64));
    for k in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("steady_state", k), &k, |b, &k| {
            let mut net = LazyKaryNet::new(k, N, u64::MAX, weight_balanced_rebuilder(k));
            // Warm the ledger: every distinct pair allocates once, here.
            for &(u, v) in trace.requests() {
                net.serve(u, v);
            }
            let mut pos = 0usize;
            b.iter(|| {
                let mut acc = 0u64;
                for _ in 0..BATCH {
                    let (u, v) = trace.requests()[pos % trace.len()];
                    pos += 1;
                    acc += net.serve(black_box(u), black_box(v)).routing;
                }
                acc
            });
        });
    }
    group.finish();
}

/// One full weight-balanced rebuild from a realistic epoch ledger: what a
/// lazy net pays each time α fires at 10⁵ nodes.
fn bench_lazy_rebuild(c: &mut Criterion) {
    let trace = zipf_trace();
    let mut demand = DecayingDemand::new(N, 0);
    for &(u, v) in trace.requests() {
        demand.record(u, v);
    }
    demand.decay_merge();
    let mut group = c.benchmark_group("lazy_rebuild");
    group.throughput(Throughput::Elements(1));
    for k in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("weight_balanced_100k", k), &k, |b, &k| {
            b.iter(|| {
                let shape = ShapeTree::weight_balanced(N, k, &demand.key_weights());
                let tree = KstTree::from_shape(k, &shape);
                black_box(tree.n())
            });
        });
    }
    group.finish();
}

/// Asserts the steady-state lazy serve path performs **zero** heap
/// allocations once the epoch ledger has seen the trace's distinct pairs
/// (a trip fails the whole bench run, which the CI smoke step relies on).
fn assert_steady_state_lazy_serve_allocation_free() {
    let trace = gens::zipf(2048, 20_000, 1.2, 9);
    let mut net = LazyKaryNet::new(3, 2048, u64::MAX, weight_balanced_rebuilder(3));
    for &(u, v) in trace.requests() {
        net.serve(u, v);
    }
    let (acc, allocs) = alloc_probe::count_allocations(|| {
        let mut acc = 0u64;
        for &(u, v) in trace.requests() {
            acc += net.serve(u, v).routing;
        }
        acc
    });
    black_box(acc);
    assert_eq!(allocs, 0, "warmed LazyKaryNet::serve allocated");
    println!("lazy steady-state serve allocation assertion passed (0 allocations)");
}

criterion_group!(benches, bench_lazy_serve, bench_lazy_rebuild);

fn main() {
    assert_steady_state_lazy_serve_allocation_free();
    benches();
}
