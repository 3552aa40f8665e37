//! Incremental vs full rebuild cost at engine scale (ROADMAP: "an
//! incremental rebuilder (patch only subtrees whose observed demand
//! changed, cutting the O(n) materialization)").
//!
//! Setup: a 10⁶-node tree built from a stable hot-pair demand profile
//! (50 000 distinct pairs) under a decaying ledger, with planned
//! baselines marked. Between rebuild triggers, **< 1 % of the pairs are
//! perturbed**, all inside four narrow key ranges — the stable-workload
//! regime where localized drift is the only thing that changed.
//!
//! Both benches measure one complete rebuild trigger — demand view, plan,
//! apply — on the same tree and ledger:
//!
//! * `lazy_rebuild_incremental/incremental` — `IncrementalWeightBalanced`
//!   re-forms only the drifted subtrees (O(touched));
//! * `lazy_rebuild_incremental/full` — the whole-tree weight-balanced
//!   plan re-forms all 10⁶ nodes (O(n)), exactly what every trigger paid
//!   before the plan/apply split.
//!
//! A pre-pass prints the measured speedup and **asserts it is ≥ 5×** (the
//! acceptance bar for the incremental-rebuild work; measured far higher),
//! so the CI bench smoke fails if patch locality ever regresses. It also
//! prints the full rebuild's split into plan (view + planning) and apply
//! (patch materialization), in ns per re-formed node.

use criterion::{criterion_group, Criterion, Throughput};
use kst_core::lazy::{incremental_weight_balanced_rebuilder, weight_balanced_rebuilder};
use kst_core::{DecayingDemand, KstTree, Rebuild};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 1_000_000;
const K: usize = 4;
const BASE_PAIRS: usize = 50_000;
const TAU: u64 = 64;

/// Four narrow hot ranges (~0.2 % of the keyspace each) that receive the
/// perturbation: 480 new pairs total, < 1 % of `BASE_PAIRS`.
const PERTURBED_RANGES: [(u32, u32); 4] = [
    (100_000, 102_000),
    (333_000, 335_000),
    (600_000, 602_000),
    (890_000, 892_000),
];

/// Deterministic xorshift so the bench needs no RNG dependency.
struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Stable base profile: `BASE_PAIRS` distinct pairs spread over the whole
/// keyspace with deterministic weights 3..18.
fn record_base(demand: &mut DecayingDemand) {
    let mut rng = XorShift(0x5EED_CAFE);
    for _ in 0..BASE_PAIRS {
        let u = 1 + (rng.next() % N as u64) as u32;
        let v = 1 + (rng.next() % N as u64) as u32;
        if u != v {
            demand.record_many(u, v, 3 + rng.next() % 16);
        }
    }
}

/// The perturbation: 120 strong new pairs inside each hot range.
fn record_perturbation(demand: &mut DecayingDemand) {
    let mut rng = XorShift(0xD15E_A5ED);
    for &(lo, hi) in &PERTURBED_RANGES {
        for _ in 0..120 {
            let span = (hi - lo) as u64;
            let u = lo + (rng.next() % span) as u32;
            let v = lo + (rng.next() % span) as u32;
            if u != v {
                demand.record_many(u, v, 40 + rng.next() % 100);
            }
        }
    }
}

/// Builds the steady state: ledger with merged base demand, tree realizing
/// its weight-balanced shape, baselines marked, perturbation merged on
/// top. Returns (tree, ledger) ready for a rebuild trigger.
fn steady_state_with_drift() -> (KstTree, DecayingDemand) {
    let mut demand = DecayingDemand::new(N, 8);
    record_base(&mut demand);
    demand.decay_merge();
    let mut tree = KstTree::balanced(K, N);
    let mut full = weight_balanced_rebuilder(K);
    let plan = full.plan(&tree, &demand.view());
    plan.apply_to(&mut tree);
    let key_weights = demand.key_weights();
    demand.mark_planned(&key_weights, &plan.ranges());
    record_perturbation(&mut demand);
    demand.decay_merge();
    (tree, demand)
}

/// One complete rebuild trigger: view, plan, apply. Baselines are *not*
/// advanced, so every iteration replans the same drift.
fn trigger<R: Rebuild>(tree: &mut KstTree, demand: &DecayingDemand, policy: &mut R) -> u64 {
    let plan = policy.plan(tree, &demand.view());
    let stats = plan.apply_to(tree);
    stats.rebuild_nodes
}

fn bench_rebuilds(c: &mut Criterion) {
    let (mut tree, demand) = steady_state_with_drift();
    let mut group = c.benchmark_group("lazy_rebuild_incremental");
    group.throughput(Throughput::Elements(1));
    group.bench_function("incremental", |b| {
        let mut policy = incremental_weight_balanced_rebuilder(K, TAU);
        b.iter(|| black_box(trigger(&mut tree, &demand, &mut policy)));
    });
    group.bench_function("full", |b| {
        let mut policy = weight_balanced_rebuilder(K);
        b.iter(|| black_box(trigger(&mut tree, &demand, &mut policy)));
    });
    group.finish();
}

/// One full rebuild trigger split into its two phases: (plan seconds —
/// view and planning —, apply seconds, nodes re-formed).
fn full_split(tree: &mut KstTree, demand: &DecayingDemand) -> (f64, f64, u64) {
    let mut policy = weight_balanced_rebuilder(K);
    let start = Instant::now();
    let plan = policy.plan(tree, &demand.view());
    let plan_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let nodes = plan.apply_to(tree).rebuild_nodes;
    (plan_s, start.elapsed().as_secs_f64(), nodes)
}

/// Pre-pass: assert the incremental path re-forms a small fraction of the
/// tree and is ≥ 5× faster than a full rebuild on this < 1 %-churn
/// profile (a trip fails the whole bench run, which CI relies on).
fn assert_incremental_speedup() {
    let (mut tree, demand) = steady_state_with_drift();
    let mut incr = incremental_weight_balanced_rebuilder(K, TAU);
    let mut full = weight_balanced_rebuilder(K);
    // Warm both paths once (page in the arenas, size the scratch).
    let patched = trigger(&mut tree, &demand, &mut incr);
    assert!(
        patched > 0 && patched < (N / 10) as u64,
        "incremental plan re-formed {patched} of {N} nodes — drift detection broken"
    );
    trigger(&mut tree, &demand, &mut full);
    // Best-of-3 per side so a single descheduling hiccup on a shared CI
    // runner cannot flip the gate (the same reasoning as bench_check's
    // median-of-runs comparison).
    let best_of = |f: &mut dyn FnMut() -> u64| {
        let mut best = f64::INFINITY;
        let mut nodes = 0;
        for _ in 0..3 {
            let start = Instant::now();
            nodes = f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, nodes)
    };
    let (incr_s, incr_nodes) = best_of(&mut || trigger(&mut tree, &demand, &mut incr));
    let (full_s, full_nodes) = best_of(&mut || trigger(&mut tree, &demand, &mut full));
    assert_eq!(full_nodes, N as u64);
    let speedup = full_s / incr_s;
    println!(
        "incremental rebuild: {incr_nodes} nodes in {:.1} ms vs full {full_nodes} nodes in \
         {:.1} ms — {speedup:.1}x speedup",
        incr_s * 1e3,
        full_s * 1e3
    );
    // Full-rebuild split, best of 3 per phase.
    let (mut plan_s, mut apply_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (p, a, nodes) = full_split(&mut tree, &demand);
        assert_eq!(nodes, N as u64);
        plan_s = plan_s.min(p);
        apply_s = apply_s.min(a);
    }
    println!(
        "full rebuild split: plan {:.1} ns/node, apply {:.1} ns/node",
        plan_s * 1e9 / N as f64,
        apply_s * 1e9 / N as f64
    );
    assert!(
        speedup >= 5.0,
        "incremental rebuild must be ≥5x faster than full at <1% churn, measured {speedup:.1}x"
    );
}

criterion_group!(benches, bench_rebuilds);

fn main() {
    assert_incremental_speedup();
    benches();
}
