//! Differential guard for the lazy-net rebuild machinery, in two layers.
//!
//! **All-dirty plan/apply ≡ the PR 4 full-rebuild path.** The production
//! net now runs every rebuild through the two-phase plan/apply pipeline
//! (`Rebuild::plan` → `RebuildPlan` → `KstTree::patch_subtree`), with
//! classic whole-tree rebuilders degenerating to a single all-dirty patch
//! over `[1, n]`. That degenerate path must be **move-for-move identical**
//! to the historical full-rebuild implementation — same rebuild timings,
//! same rebuilt shapes (checked through all-pairs distances), same
//! per-request `ServeCost` including `links_changed` — for k ∈ {2, 3, 4}
//! across the optimal-DP, weight-balanced and centroid rebuild policies.
//! The oracle below is a faithful copy of the pre-refactor implementation
//! (dense `vec![0; n*n]` ledger, densify per rebuild, whole-tree
//! `from_shape` swap) with an independent `BTreeSet`-based link-difference
//! count, so any divergence in the production path shows up as a
//! per-request mismatch rather than a drifted total.
//!
//! **Partial patches count links exactly.** `patch_subtree` derives
//! `links_changed` from a snapshot of the patched range's parent
//! pointers; every partial patch of a rotated tree — random exact-subtree
//! ranges with random fragments, and the connector patches
//! `extract_range` issues — is checked against an independent
//! `BTreeSet` diff of the whole tree's edge set. So is every
//! `absorb_fragment` graft, at both ends, on rotated receivers and on
//! fresh ones with the depth cache armed.
//!
//! **Incremental plans preserve the invariants.** Partial patches have no
//! oracle — they are *supposed* to diverge from full rebuilds — so the
//! guard for them is structural: after every rebuild of an incremental
//! run, the tree passes `kst_core::invariants::validate` and greedy
//! routing still delivers every probed pair along a path at least as long
//! as the tree distance.

use ksan::core::lazy::{incremental_weight_balanced_rebuilder, weight_balanced_rebuilder};
use ksan::core::routing::route;
use ksan::core::{End, FullRebuild, KstTree, NodeIdx, Rebuild};
use ksan::prelude::*;
use ksan::sim::experiments::{centroid_rebuilder, optimal_rebuilder};
use ksan::statics::{centroid_shape, optimal_routing_based};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The pre-refactor lazy net, verbatim: dense flat n×n epoch demand,
/// rebuilder consuming `(n, &[u64])`, whole-tree rebuild on every trigger,
/// no α clamp (tests use α ≥ 1). Reports the rebuild telemetry the
/// degenerate all-dirty plan is defined to produce: one whole-tree patch
/// re-forming all n nodes.
struct DenseLazyOracle<F: FnMut(usize, &[u64]) -> ShapeTree> {
    tree: KstTree,
    k: usize,
    alpha: u64,
    rebuilder: F,
    since_rebuild: u64,
    epoch_demand: Vec<u64>,
    rebuilds: u64,
}

impl<F: FnMut(usize, &[u64]) -> ShapeTree> DenseLazyOracle<F> {
    fn new(k: usize, n: usize, alpha: u64, rebuilder: F) -> Self {
        DenseLazyOracle {
            tree: KstTree::balanced(k, n),
            k,
            alpha,
            rebuilder,
            since_rebuild: 0,
            epoch_demand: vec![0; n * n],
            rebuilds: 0,
        }
    }

    fn edge_set(t: &KstTree) -> BTreeSet<(u32, u32)> {
        let mut edges = BTreeSet::new();
        for v in t.nodes() {
            let p = t.parent(v);
            if p != ksan::core::NIL {
                edges.insert((v.min(p), v.max(p)));
            }
        }
        edges
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let n = self.tree.n();
        let routing = self.tree.distance_keys(u, v);
        self.since_rebuild += routing;
        if u != v {
            self.epoch_demand[(u as usize - 1) * n + (v as usize - 1)] += 1;
        }
        let mut links_changed = 0;
        let mut rebuild_patches = 0;
        let mut rebuild_nodes = 0;
        if self.since_rebuild >= self.alpha {
            let shape = (self.rebuilder)(n, &self.epoch_demand);
            let new_tree = KstTree::from_shape(self.k, &shape);
            let before = Self::edge_set(&self.tree);
            let after = Self::edge_set(&new_tree);
            links_changed = before.symmetric_difference(&after).count() as u64;
            self.tree = new_tree;
            self.since_rebuild = 0;
            self.epoch_demand.iter_mut().for_each(|d| *d = 0);
            self.rebuilds += 1;
            rebuild_patches = 1;
            rebuild_nodes = n as u64;
        }
        ServeCost {
            routing,
            rotations: 0,
            links_changed,
            rebuild_patches,
            rebuild_nodes,
        }
    }
}

/// Observed per-key frequencies from a dense matrix — the dense twin of
/// the sparse ledger's `key_weights` (each pair credits both endpoints).
fn dense_key_weights(n: usize, counts: &[u64]) -> Vec<(NodeKey, u64)> {
    let mut hot = Vec::new();
    for key in 0..n {
        let mut w = 0u64;
        for other in 0..n {
            w += counts[key * n + other] + counts[other * n + key];
        }
        if w > 0 {
            hot.push((key as NodeKey + 1, w));
        }
    }
    hot
}

/// Runs `trace` through the dense oracle and the production plan/apply
/// net with equivalent rebuild policies, asserting per-request
/// bit-identity and identical final topologies.
fn assert_plan_apply_matches_dense<FD, RS>(
    label: &str,
    k: usize,
    n: usize,
    alpha: u64,
    trace: &Trace,
    dense_policy: FD,
    plan_policy: RS,
) where
    FD: FnMut(usize, &[u64]) -> ShapeTree,
    RS: Rebuild,
{
    let mut oracle = DenseLazyOracle::new(k, n, alpha, dense_policy);
    let mut net = ksan::core::LazyKaryNet::new(k, n, alpha, plan_policy);
    for (i, &(u, v)) in trace.requests().iter().enumerate() {
        let want = oracle.serve(u, v);
        let got = net.serve(u, v);
        assert_eq!(
            got, want,
            "{label}: request #{i} ({u},{v}) diverged from the dense oracle"
        );
        assert_eq!(
            net.rebuilds(),
            oracle.rebuilds,
            "{label}: rebuild timing diverged at request #{i}"
        );
    }
    assert!(
        net.rebuilds() >= 3,
        "{label}: vacuous run — only {} rebuilds",
        net.rebuilds()
    );
    // Same final topology: all-pairs distances must agree exactly.
    for u in 1..=n as NodeKey {
        for v in 1..=n as NodeKey {
            assert_eq!(
                net.tree().distance_keys(u, v),
                oracle.tree.distance_keys(u, v),
                "{label}: final topology differs at pair ({u},{v})"
            );
        }
    }
}

#[test]
fn all_dirty_plan_is_move_for_move_identical_to_dense_optimal_dp() {
    let n = 40;
    for k in [2usize, 3, 4] {
        let trace = gens::zipf(n, 2000, 1.2, 100 + k as u64);
        assert_plan_apply_matches_dense(
            &format!("optimal-DP k={k}"),
            k,
            n,
            400,
            &trace,
            move |nn, counts| {
                optimal_routing_based(&DemandMatrix::from_counts(nn, counts), k).shape
            },
            optimal_rebuilder(k),
        );
    }
}

#[test]
fn all_dirty_plan_is_move_for_move_identical_to_dense_weight_balanced() {
    let n = 60;
    for k in [2usize, 3, 4] {
        let trace = gens::temporal(n, 4000, 0.7, 200 + k as u64);
        assert_plan_apply_matches_dense(
            &format!("weight-balanced k={k}"),
            k,
            n,
            500,
            &trace,
            move |nn, counts| ShapeTree::weight_balanced(nn, k, &dense_key_weights(nn, counts)),
            weight_balanced_rebuilder(k),
        );
    }
}

#[test]
fn all_dirty_plan_is_move_for_move_identical_to_dense_centroid() {
    let n = 50;
    for k in [2usize, 3, 4] {
        let trace = gens::projector(n, 3000, 300 + k as u64);
        assert_plan_apply_matches_dense(
            &format!("centroid k={k}"),
            k,
            n,
            350,
            &trace,
            move |nn, _counts| centroid_shape(nn, k),
            centroid_rebuilder(k),
        );
    }
}

#[test]
fn explicit_full_plan_wrapper_matches_dense_too() {
    // An inline FullRebuild closure (the migration path for custom
    // policies) goes through exactly the same degenerate plan.
    let n = 48;
    let k = 3;
    let trace = gens::temporal(n, 2500, 0.6, 77);
    assert_plan_apply_matches_dense(
        "inline FullRebuild k=3",
        k,
        n,
        300,
        &trace,
        move |nn, _counts| ShapeTree::balanced_kary(nn, k),
        FullRebuild(move |d: &DemandView<'_>| ShapeTree::balanced_kary(d.n(), k)),
    );
}

/// Incremental plans have no move-for-move oracle (locality is the whole
/// point); the guard is structural: search-tree invariants and routing
/// agreement must survive every patched rebuild, across arities and
/// half-lives.
#[test]
fn incremental_plans_preserve_invariants_and_routing_agreement() {
    for k in [2usize, 3, 4] {
        let n = 512;
        let mut net =
            ksan::core::LazyKaryNet::new(k, n, 2_000, incremental_weight_balanced_rebuilder(k, 8))
                .with_half_life(4);
        // Non-stationary traffic so plans are genuinely partial: the hot
        // region rotates, leaving the rest of the keyspace stale.
        let trace = gens::phase_shift(n, 30_000, 1_500, 5, 4, 0.9, 40 + k as u64);
        let mut rebuilds_seen = 0;
        let mut partial_plans = 0;
        for &(u, v) in trace.requests() {
            let before = net.rebuilds();
            let c = net.serve(u, v);
            if net.rebuilds() > before {
                rebuilds_seen += 1;
                if c.rebuild_nodes > 0 && c.rebuild_nodes < n as u64 {
                    partial_plans += 1;
                }
                // Invariants after every rebuild.
                ksan::core::invariants::validate(net.tree())
                    .unwrap_or_else(|e| panic!("k={k}: invariants broken after rebuild: {e}"));
                // Routing agreement on a probe grid: greedy routing must
                // deliver, never undercutting the tree distance.
                for (a, b) in [(1u32, n as u32), (u, v), (7, n as u32 / 2), (v, 3)] {
                    if a == b {
                        continue;
                    }
                    let r = route(net.tree(), a, b)
                        .unwrap_or_else(|e| panic!("k={k}: routing loop {a}->{b}: {e:?}"));
                    assert_eq!(*r.hops.last().unwrap(), net.tree().node_of(b));
                    assert!(r.len() >= net.tree().distance_keys(a, b));
                }
            }
        }
        assert!(rebuilds_seen >= 5, "k={k}: vacuous run ({rebuilds_seen})");
        assert!(
            partial_plans >= 1,
            "k={k}: no partial plan ever ran — guard is vacuous"
        );
    }
}

/// `patch_subtree` on arbitrary subtree ranges of a *rotated* tree (gap
/// boundaries crowded by splay-moved elements — the hard case for element
/// placement) keeps every invariant, and an identity patch changes no
/// links.
#[test]
fn patch_subtree_on_rotated_trees_keeps_invariants() {
    for k in [2usize, 3, 5] {
        let n = 300;
        let mut splay = KSplayNet::balanced(k, n);
        let trace = gens::zipf(n, 800, 1.2, 9 + k as u64);
        for &(u, v) in trace.requests() {
            splay.serve(u, v);
        }
        let mut tree = splay.tree().clone();
        // Patch the subtree of every node at depth ≤ 3 with a fresh
        // weight-balanced fragment biased to one hot key.
        let mut patched = 0;
        for v in tree.nodes() {
            if tree.depth(v) > 3 {
                continue;
            }
            // Subtree key range of v: min/max key over its DFS.
            let (mut lo, mut hi) = (u32::MAX, 0u32);
            let mut count = 0usize;
            let mut stack = vec![v];
            while let Some(w) = stack.pop() {
                let key = tree.key_of(w);
                lo = lo.min(key);
                hi = hi.max(key);
                count += 1;
                for &c in tree.children(w) {
                    if c != ksan::core::NIL {
                        stack.push(c);
                    }
                }
            }
            assert_eq!(
                count,
                (hi - lo + 1) as usize,
                "subtree range not contiguous"
            );
            let size = count;
            let hot = vec![(1 + (size as u32 / 2), 1_000u64)];
            let frag = ShapeTree::weight_balanced(size, k, &hot);
            let stats = tree.patch_subtree(lo, hi, &frag);
            assert_eq!(stats.rebuild_nodes, size as u64);
            ksan::core::invariants::validate(&tree)
                .unwrap_or_else(|e| panic!("k={k} patch [{lo},{hi}]: {e}"));
            patched += 1;
            if patched >= 12 {
                break;
            }
        }
        assert!(patched >= 4, "k={k}: too few patchable subtrees probed");
    }
}

/// Every tree edge as a `(smaller key, larger key)` pair, key `shift`ed
/// (extraction renumbers the remaining keys of a `Low` run down).
fn key_edges(t: &KstTree, shift: NodeKey) -> BTreeSet<(NodeKey, NodeKey)> {
    let mut edges = BTreeSet::new();
    for v in t.nodes() {
        let p = t.parent(v);
        if p != ksan::core::NIL {
            let (a, b) = (t.key_of(v) + shift, t.key_of(p) + shift);
            edges.insert((a.min(b), a.max(b)));
        }
    }
    edges
}

/// Subtree key span and node count of every node, indexed by node.
fn subtree_spans(t: &KstTree) -> Vec<(NodeKey, NodeKey, usize)> {
    let mut span = vec![(NodeKey::MAX, 0, 0usize); t.n()];
    let mut order = Vec::with_capacity(t.n());
    let mut stack = vec![t.root()];
    while let Some(v) = stack.pop() {
        order.push(v);
        stack.extend(t.children(v).iter().filter(|&&c| c != ksan::core::NIL));
    }
    for &v in order.iter().rev() {
        let key = t.key_of(v);
        let mut s = (key, key, 1usize);
        for &c in t.children(v) {
            if c != ksan::core::NIL {
                let (a, b, n) = span[c as usize];
                s = (s.0.min(a), s.1.max(b), s.2 + n);
            }
        }
        span[v as usize] = s;
    }
    span
}

/// A random fragment on `size` nodes: weight-balanced on a random hot set
/// (sometimes empty, i.e. the complete tree).
fn random_fragment(rng: &mut StdRng, size: usize, k: usize) -> ShapeTree {
    let mut hot: Vec<(NodeKey, u64)> = (0..rng.gen_range(0..=4usize))
        .map(|_| {
            (
                rng.gen_range(1..=size as NodeKey),
                rng.gen_range(1..=5_000u64),
            )
        })
        .collect();
    hot.sort_by_key(|&(key, _)| key);
    hot.dedup_by_key(|e| e.0);
    ShapeTree::weight_balanced(size, k, &hot)
}

/// A rotated tree: the topology after a zipf serve history on a k-splay
/// net, with routing elements scattered by the rotations.
fn rotated_tree(k: usize, n: usize, seed: u64) -> KstTree {
    let mut splay = KSplayNet::balanced(k, n);
    for &(u, v) in gens::zipf(n, 1_500, 1.1, seed).requests() {
        splay.serve(u, v);
    }
    splay.tree().clone()
}

#[test]
fn partial_patch_links_match_edge_set_diff() {
    let mut rng = StdRng::seed_from_u64(0x11_4C5);
    for k in [2usize, 3, 4] {
        let n = 240;
        let mut tree = rotated_tree(k, n, 60 + k as u64);
        let mut partial = 0;
        let mut moved = 0;
        for round in 0..60 {
            // A random node whose subtree owns a contiguous key range
            // (rotations can leave "shadow" subtrees that do not) of at
            // least three keys, so most fragments can move links.
            let spans = subtree_spans(&tree);
            let candidates: Vec<NodeIdx> = tree
                .nodes()
                .filter(|&v| {
                    let (a, b, count) = spans[v as usize];
                    (b - a + 1) as usize == count && count >= 3
                })
                .collect();
            // Every seventh round re-forms a subtree with its own shape,
            // which must move nothing; `subtree_shape` reproduces a
            // subtree only when all of its nodes own contiguous ranges.
            let identity = round % 7 == 0;
            let clean = |v: NodeIdx| {
                let mut stack = vec![v];
                while let Some(w) = stack.pop() {
                    let (a, b, count) = spans[w as usize];
                    if (b - a + 1) as usize != count {
                        return false;
                    }
                    stack.extend(tree.children(w).iter().filter(|&&c| c != ksan::core::NIL));
                }
                true
            };
            let pool: Vec<NodeIdx> = if identity {
                candidates.iter().copied().filter(|&v| clean(v)).collect()
            } else {
                candidates
            };
            let v = pool[rng.gen_range(0..pool.len())];
            let (lo, hi, size) = spans[v as usize];
            let fragment = if identity {
                tree.subtree_shape(v)
            } else {
                random_fragment(&mut rng, size, k)
            };
            let before = key_edges(&tree, 0);
            let cost = tree.patch_subtree(lo, hi, &fragment);
            let after = key_edges(&tree, 0);
            let want = before.symmetric_difference(&after).count() as u64;
            assert_eq!(
                cost.links_changed, want,
                "k={k} round {round}: patch [{lo},{hi}] miscounted links"
            );
            if identity {
                assert_eq!(cost.links_changed, 0, "k={k}: identity patch moved links");
            }
            ksan::core::invariants::validate(&tree)
                .unwrap_or_else(|e| panic!("k={k} round {round} patch [{lo},{hi}]: {e}"));
            partial += usize::from(size < n);
            moved += usize::from(want > 0);
        }
        assert!(partial >= 40, "k={k}: too few partial patches ({partial})");
        assert!(
            moved >= 20,
            "k={k}: too few patches changed links ({moved})"
        );
    }
}

/// The smallest subtree that holds every key of `[lo, hi]` and owns a
/// contiguous key range — the cover `extract_range` re-forms with a
/// connector when the run itself is not a subtree.
fn contiguous_cover(t: &KstTree, lo: NodeKey, hi: NodeKey) -> (NodeKey, NodeKey) {
    let (a, b, _) = subtree_spans(t)
        .into_iter()
        .filter(|&(a, b, count)| a <= lo && hi <= b && (b - a + 1) as usize == count)
        .min_by_key(|&(_, _, count)| count)
        .unwrap();
    (a, b)
}

/// `extract_range`'s connector for boundary run `[lo, hi]` inside cover
/// `[a, b]`: the key adjacent to the run as root, the run and the rest of
/// the cover as complete subtrees.
fn connector(lo: NodeKey, hi: NodeKey, a: NodeKey, b: NodeKey, k: usize) -> ShapeTree {
    let size = (hi - lo + 1) as usize;
    let mut conn = ShapeTree {
        children: Vec::new(),
        key_gap: Vec::new(),
        root: 0,
    };
    let (left, right, gap) = if lo == 1 {
        (size, (b - hi - 1) as usize, 1u8)
    } else {
        let left = (lo - 1 - a) as usize;
        (left, size, u8::from(left > 0))
    };
    let mut kids = Vec::new();
    for part in [left, right] {
        if part > 0 {
            kids.push(conn.push_balanced_subtree(part, k));
        }
    }
    conn.root = conn.push_leaf();
    conn.children[conn.root as usize] = kids;
    conn.key_gap[conn.root as usize] = gap;
    conn
}

#[test]
fn extract_range_connector_links_match_edge_set_diff() {
    let mut rng = StdRng::seed_from_u64(0xC0_22EC7);
    for k in [2usize, 3, 4] {
        let n = 200;
        let mut connectors = 0;
        for round in 0..40 {
            let tree = rotated_tree(k, n, 500 + 40 * k as u64 + round);
            let take = rng.gen_range(1..=n as NodeKey / 3);
            let low = round % 2 == 0;
            let (lo, hi) = if low {
                (1, take)
            } else {
                (n as NodeKey - take + 1, n as NodeKey)
            };
            // The connector patch on its own, against the oracle.
            let (a, b) = contiguous_cover(&tree, lo, hi);
            let mut reference = tree.clone();
            let mut conn_links = 0;
            if (a, b) != (lo, hi) {
                let before = key_edges(&reference, 0);
                conn_links = reference
                    .patch_subtree(a, b, &connector(lo, hi, a, b, k))
                    .links_changed;
                let after = key_edges(&reference, 0);
                assert_eq!(
                    conn_links,
                    before.symmetric_difference(&after).count() as u64,
                    "k={k} round {round}: connector patch [{a},{b}] miscounted links"
                );
                connectors += 1;
            }
            // The extraction books exactly that patch plus the detached
            // anchor link, and leaves the reference's remaining edges.
            let mut donor = tree.clone();
            let (fragment, cost) = donor.extract_range(lo, hi);
            assert_eq!(fragment.len(), take as usize);
            assert_eq!(
                cost.links_changed,
                conn_links + 1,
                "k={k} round {round}: extract [{lo},{hi}] miscounted links"
            );
            let remaining = key_edges(&donor, if low { hi } else { 0 });
            let run = |key: NodeKey| lo <= key && key <= hi;
            let kept: BTreeSet<(NodeKey, NodeKey)> = key_edges(&reference, 0)
                .into_iter()
                .filter(|&(x, y)| !run(x) && !run(y))
                .collect();
            assert_eq!(remaining, kept, "k={k} round {round}: remainder differs");
        }
        assert!(
            connectors >= 10,
            "k={k}: too few connector patches ({connectors})"
        );
    }
}

/// `absorb_fragment` books exactly the receiver's edge-set change, and
/// keeps every old receiver edge: each extracted fragment is grafted at
/// both ends of a rotated receiver and of a fresh one whose depth cache is
/// armed. On `End::Low` the old keys move up by the fragment size, so the
/// old edges are compared shifted.
#[test]
fn absorb_fragment_links_match_edge_set_diff() {
    let mut rng = StdRng::seed_from_u64(0xAB_50_4B);
    for k in [2usize, 3, 4] {
        for round in 0..20u64 {
            let n = 200;
            let mut donor = rotated_tree(k, n, 900 + 20 * k as u64 + round);
            let take = rng.gen_range(1..=n as NodeKey / 3);
            let (lo, hi) = if round % 2 == 0 {
                (1, take)
            } else {
                (n as NodeKey - take + 1, n as NodeKey)
            };
            let (fragment, _) = donor.extract_range(lo, hi);
            let f = fragment.len() as NodeKey;
            let receivers = [
                rotated_tree(k, 150, 1_300 + 20 * k as u64 + round),
                KstTree::balanced(k, 150),
            ];
            assert!(!receivers[0].depth_cache_armed() && receivers[1].depth_cache_armed());
            for receiver in &receivers {
                for end in [End::Low, End::High] {
                    let mut recv = receiver.clone();
                    let before = key_edges(&recv, if end == End::Low { f } else { 0 });
                    let cost = recv.absorb_fragment(end, &fragment);
                    let after = key_edges(&recv, 0);
                    let armed = receiver.depth_cache_armed();
                    let what = format!("k={k} round {round} {end:?} armed={armed}");
                    assert_eq!(
                        cost.links_changed,
                        before.symmetric_difference(&after).count() as u64,
                        "{what}: absorb miscounted links"
                    );
                    assert!(before.is_subset(&after), "{what}: an old edge was lost");
                    assert_eq!(recv.depth_cache_armed(), armed, "{what}");
                    ksan::core::invariants::validate(&recv)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                }
            }
        }
    }
}
