//! **Rotor-walk tree** network (after Avin et al., *Deterministic
//! Self-Adjusting Tree Networks Using Rotor Walks*, PAPERS.md), adapted to
//! this repo's pair-communication cost model.
//!
//! Like [`crate::pushdown::PushDownNet`], the link structure is a fixed
//! complete k-ary tree of positions and adjustments permute occupants. The
//! difference is *where the displaced occupant goes*: a promotion at parent
//! position `q` consults a deterministic **rotor pointer** at `q` that
//! cycles round-robin over `q`'s children. The promoted endpoint takes `q`;
//! the old occupant of `q` is pushed down into the rotor-chosen child; the
//! evicted child occupant back-fills the promoted endpoint's old slot (a
//! 3-cycle — or a plain swap when the rotor happens to point at the
//! endpoint's own slot). The rotor then advances one step.
//!
//! Rotor walks derandomise "push the loser somewhere fair": every child
//! slot of a busy position absorbs displaced occupants equally often, so no
//! subtree becomes a dumping ground, without any randomness — the whole
//! net is a deterministic function of the request sequence, which is what
//! makes the bit-identical replay and threaded-vs-sequential engine tests
//! possible (`tests/engine_differential.rs`). Fairness and exact
//! `links_changed` accounting are proptested (`tests/proptests.rs`).

use crate::complete::CompleteTopology;
use crate::key::{NodeIdx, NodeKey};
use crate::net::{Network, ServeCost};

/// Deterministic self-adjusting complete k-ary tree driven by per-position
/// rotor pointers. See the module docs for the discipline.
#[derive(Debug, Clone)]
pub struct RotorWalkNet {
    top: CompleteTopology,
    /// Next child slot each position will push a displaced occupant into.
    rotor: Vec<u32>,
}

impl RotorWalkNet {
    /// Builds a `k`-ary rotor-walk tree over keys `1..=n` in level order,
    /// all rotors pointing at slot 0.
    pub fn new(k: usize, n: usize) -> RotorWalkNet {
        RotorWalkNet {
            top: CompleteTopology::new(k, n),
            rotor: vec![0; n],
        }
    }

    /// Arity of the position tree.
    pub fn k(&self) -> usize {
        self.top.k()
    }

    /// Current rotor slot of position `p` (the child slot the next
    /// displacement at `p` will use). Observability/test helper.
    pub fn rotor_slot(&self, p: u32) -> u32 {
        let pi = p as usize;
        let count = self.top.child_count(p);
        if count == 0 {
            0
        } else {
            self.rotor[pi] % count
        }
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

    /// Promotes endpoint `x` one level via the rotor at its parent
    /// position, unless it is at the root or its parent position is
    /// occupied by `other`. Returns rotations performed (1 for a plain
    /// swap, 2 for a 3-cycle).
    fn promote(&mut self, x: NodeIdx, other: NodeIdx) -> u64 {
        let p = self.top.pos_of(x);
        if p == 0 {
            return 0;
        }
        let q = self.top.parent_pos(p);
        if self.top.item_at(q) == other {
            return 0;
        }
        // `p` is a child of `q`, so `q` has at least one child.
        let count = self.top.child_count(q);
        let qi = q as usize;
        let slot = self.rotor[qi] % count;
        self.rotor[qi] = (slot + 1) % count;
        let c64 = self.top.first_child(q) + slot as u64;
        let c = c64 as u32;
        if c == p {
            self.top.swap_positions(p, q);
            1
        } else {
            let displaced = self.top.item_at(q);
            let evicted = self.top.item_at(c);
            self.top.place(x, q);
            self.top.place(displaced, c);
            self.top.place(evicted, p);
            2
        }
    }
}

impl Network for RotorWalkNet {
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

        // Touched-position superset, captured before any mutation. Each
        // promotion moves occupants only within {q} ∪ children(q); the
        // first promotion can relocate the second endpoint, but only to a
        // sibling slot under the same parent, so both parents' pre-serve
        // neighborhoods cover every position either promotion can touch.
        self.top.begin_adjust();
        let pu = self.top.pos_of(ui);
        let pv = self.top.pos_of(vi);
        let qu = self.top.parent_pos(pu);
        let qv = self.top.parent_pos(pv);
        if qu != crate::key::NIL {
            self.top.touch_neighborhood(qu);
        }
        if qv != crate::key::NIL {
            self.top.touch_neighborhood(qv);
        }
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
        format!("{}-ary Rotor-Walk Tree", self.top.k())
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
        let mut net = RotorWalkNet::new(3, 40);
        let (u, v) = (38, 24);
        for _ in 0..16 {
            net.serve(u, v);
        }
        let tail = net.serve(u, v);
        assert_eq!(tail.routing, 1, "hot pair should be adjacent");
        assert_eq!(tail.rotations, 0, "converged pair must not thrash");
        assert_eq!(tail.links_changed, 0);
        net.validate().unwrap();
    }

    #[test]
    fn rotor_advances_round_robin() {
        let mut net = RotorWalkNet::new(4, 85);
        // Repeatedly promote distinct leaves under position 0's subtree and
        // watch the root rotor cycle 0,1,2,3,0,...
        let mut seen = Vec::new();
        let mut state = 3u64;
        for _ in 0..24 {
            let u = (xorshift(&mut state) % 85 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 85 + 1) as NodeKey;
            if u == v {
                continue;
            }
            let before: Vec<u32> = (0..85).map(|p| net.rotor_slot(p)).collect();
            net.serve(u, v);
            for p in 0..85u32 {
                let pi = p as usize;
                let after = net.rotor_slot(p);
                let count = net.top.child_count(p);
                if count == 0 {
                    continue;
                }
                let prev = before[pi];
                // A rotor either held still (not consulted, or consulted
                // 0 times) or advanced by the number of consultations.
                let delta = (after + count - prev) % count;
                assert!(delta <= 2, "rotor at {p} jumped by {delta}");
                seen.push(delta);
            }
            net.validate().unwrap();
        }
        assert!(seen.iter().any(|&d| d > 0), "no rotor ever advanced");
    }

    #[test]
    fn links_match_global_edge_diff_on_random_traffic() {
        let mut net = RotorWalkNet::new(3, 64);
        let mut state = 0xDEADBEEFCAFEBABEu64;
        for _ in 0..400 {
            let u = (xorshift(&mut state) % 64 + 1) as NodeKey;
            let v = (xorshift(&mut state) % 64 + 1) as NodeKey;
            let before: BTreeSet<_> = net.edge_keys().into_iter().collect();
            let cost = net.serve(u, v);
            let after: BTreeSet<_> = net.edge_keys().into_iter().collect();
            let global = before.symmetric_difference(&after).count() as u64;
            assert_eq!(cost.links_changed, global, "req ({u},{v})");
            net.validate().unwrap();
        }
    }

    #[test]
    fn deterministic_replay_is_bit_identical() {
        let build_and_run = || {
            let mut net = RotorWalkNet::new(3, 50);
            let mut state = 99u64;
            let mut totals = (0u64, 0u64, 0u64);
            for _ in 0..500 {
                let u = (xorshift(&mut state) % 50 + 1) as NodeKey;
                let v = (xorshift(&mut state) % 50 + 1) as NodeKey;
                let c = net.serve(u, v);
                totals.0 += c.routing;
                totals.1 += c.rotations;
                totals.2 += c.links_changed;
            }
            (totals, net.edge_keys())
        };
        assert_eq!(build_and_run(), build_and_run());
    }

    #[test]
    fn self_request_is_free_and_immutable() {
        let mut net = RotorWalkNet::new(2, 9);
        let before = net.edge_keys();
        let rotors: Vec<u32> = (0..9).map(|p| net.rotor_slot(p)).collect();
        let cost = net.serve(4, 4);
        assert_eq!(cost, ServeCost::default());
        assert_eq!(net.edge_keys(), before);
        let rotors_after: Vec<u32> = (0..9).map(|p| net.rotor_slot(p)).collect();
        assert_eq!(rotors, rotors_after, "self request must not spin rotors");
    }
}
