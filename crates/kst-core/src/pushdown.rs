//! **Push-Down Tree** network (after Avin, Mondal & Schmid, *Push-Down
//! Trees: Optimal Self-Adjusting Complete Trees*, PAPERS.md), adapted to
//! this repo's pair-communication cost model.
//!
//! The topology is a fixed complete k-ary tree of *positions*
//! ([`CompleteTopology`]); nodes self-adjust by exchanging positions. On a
//! request `(u, v)` the net charges the current tree distance, then each
//! endpoint is *promoted one level*: it swaps with the occupant of its
//! parent position — unless it already sits at the root, or its parent
//! position is occupied by the other endpoint (the anti-thrash guard that
//! keeps a converged hot pair from swapping back and forth forever).
//!
//! Properties this buys, all enforced by tests:
//!
//! * **Heap-shape invariant.** The tree is complete after every request —
//!   there is no rotation machinery that could unbalance it, so worst-case
//!   distance stays `O(log_k n)` unconditionally (`tests/proptests.rs`).
//! * **O(1) locality.** An adjustment touches at most two position edges
//!   per endpoint; `links_changed` is the exact symmetric difference of
//!   the before/after label-edge sets (`tests/differential_pushdown.rs`).
//! * **Convergence.** A repeated hot pair settles at root + root-child
//!   (distance 1, zero adjustments) after `O(depth)` requests.
//! * **Allocation-free serving.** All scratch is reserved at construction
//!   (`tests/zero_alloc.rs`, `kst-analyze` no-alloc pass).

use crate::complete::CompleteTopology;
use crate::key::{NodeIdx, NodeKey};
use crate::net::{Network, ServeCost};

/// Self-adjusting complete k-ary tree with local push-down (promotion)
/// adjustments. See the module docs for the discipline.
#[derive(Debug, Clone)]
pub struct PushDownNet {
    top: CompleteTopology,
}

impl PushDownNet {
    /// Builds a `k`-ary push-down tree over keys `1..=n` in level order
    /// (key 1 at the root).
    pub fn new(k: usize, n: usize) -> PushDownNet {
        PushDownNet {
            top: CompleteTopology::new(k, n),
        }
    }

    /// Arity of the position tree.
    pub fn k(&self) -> usize {
        self.top.k()
    }

    /// Current position (heap index) of `key`; root is position 0.
    /// Observability/test helper.
    pub fn position_of(&self, key: NodeKey) -> u32 {
        let i = self.index(key);
        self.top.pos_of(i)
    }

    /// Full undirected edge set in key space, sorted — test helper,
    /// allocates, never on the serve path.
    pub fn edge_keys(&self) -> Vec<(u32, u32)> {
        self.top.edge_keys()
    }

    /// Checks the occupancy permutation is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        self.top.validate()
    }

    fn index(&self, key: NodeKey) -> NodeIdx {
        let n = self.top.n();
        assert!(
            key >= 1 && (key as usize) <= n,
            "key {key} out of range 1..={n}"
        );
        key - 1
    }

    /// Promotes endpoint `x` one level, unless it is at the root or its
    /// parent position is occupied by `other`. Returns rotations performed.
    fn promote(&mut self, x: NodeIdx, other: NodeIdx) -> u64 {
        let p = self.top.pos_of(x);
        if p == 0 {
            return 0;
        }
        let q = self.top.parent_pos(p);
        if self.top.item_at(q) == other {
            return 0;
        }
        self.top.swap_positions(p, q);
        1
    }
}

impl Network for PushDownNet {
    fn len(&self) -> usize {
        self.top.n()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        let i = self.index(u);
        let j = self.index(v);
        self.top.distance_between(i, j)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let ui = self.index(u);
        let vi = self.index(v);
        if ui == vi {
            return ServeCost::default();
        }
        let routing = self.top.distance_between(ui, vi);

        // Touched-position superset, captured before any mutation. The
        // guards guarantee one endpoint's promotion never relocates the
        // other endpoint, so both endpoints' parent edges are known now.
        self.top.begin_adjust();
        let pu = self.top.pos_of(ui);
        let pv = self.top.pos_of(vi);
        let qu = self.top.parent_pos(pu);
        let qv = self.top.parent_pos(pv);
        self.top.touch(pu);
        self.top.touch(qu);
        self.top.touch(pv);
        self.top.touch(qv);
        self.top.snapshot_before();

        let mut rotations = 0;
        rotations += self.promote(ui, vi);
        rotations += self.promote(vi, ui);
        let links_changed = self.top.links_changed();

        ServeCost {
            routing,
            rotations,
            links_changed,
            ..ServeCost::default()
        }
    }

    fn label(&self) -> String {
        format!("{}-ary Push-Down Tree", self.top.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn hot_pair_converges_to_root_adjacency() {
        let mut net = PushDownNet::new(3, 40);
        let (u, v) = (37, 29);
        for _ in 0..16 {
            net.serve(u, v);
        }
        let tail = net.serve(u, v);
        assert_eq!(tail.routing, 1, "hot pair should be adjacent");
        assert_eq!(tail.rotations, 0, "converged pair must not thrash");
        assert_eq!(tail.links_changed, 0);
        let pu = net.position_of(u);
        let pv = net.position_of(v);
        assert_eq!(pu.min(pv), 0, "one endpoint must own the root");
        net.validate().unwrap();
    }

    #[test]
    fn self_request_is_free_and_immutable() {
        let mut net = PushDownNet::new(2, 17);
        let before = net.edge_keys();
        let cost = net.serve(5, 5);
        assert_eq!(cost, ServeCost::default());
        assert_eq!(net.edge_keys(), before);
    }

    #[test]
    fn links_match_global_edge_diff_on_random_traffic() {
        let mut net = PushDownNet::new(4, 77);
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..400 {
            let u = (xorshift(&mut state) % 77 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 77 + 1) as NodeKey;
            let before: BTreeSet<_> = net.edge_keys().into_iter().collect();
            let cost = net.serve(u, v);
            let after: BTreeSet<_> = net.edge_keys().into_iter().collect();
            let global = before.symmetric_difference(&after).count() as u64;
            assert_eq!(cost.links_changed, global, "req ({u},{v})");
            net.validate().unwrap();
        }
    }

    #[test]
    fn routing_cost_is_pre_adjustment_distance() {
        let mut net = PushDownNet::new(2, 63);
        let mut state = 42u64;
        for _ in 0..200 {
            let u = (xorshift(&mut state) % 63 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 63 + 1) as NodeKey;
            let expected = net.distance(u, v);
            let cost = net.serve(u, v);
            assert_eq!(cost.routing, expected);
        }
    }

    #[test]
    fn promotions_are_at_most_one_level_each() {
        let mut net = PushDownNet::new(3, 50);
        let mut state = 7u64;
        for _ in 0..300 {
            let u = (xorshift(&mut state) % 50 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 50 + 1) as NodeKey;
            if u == v {
                continue;
            }
            let du = net.top.depth_of(net.position_of(u));
            let dv = net.top.depth_of(net.position_of(v));
            let cost = net.serve(u, v);
            assert!(cost.rotations <= 2);
            let du2 = net.top.depth_of(net.position_of(u));
            let dv2 = net.top.depth_of(net.position_of(v));
            assert!(du2 + 1 >= du && du2 <= du);
            assert!(dv2 + 1 >= dv && dv2 <= dv);
        }
    }
}
