//! Differential test: the centroid (k+1)-SplayNet (Section 4.2) must make
//! exactly the moves its definition prescribes, request for request.
//!
//! The reference replays the same trace on a clone of the net's initial
//! `KstTree` using only public tree calls: `distance_lca` for the routing
//! charge and the LCA, `splay_until` for every move, the net's
//! `membership` to pick the case, and each subtree's anchor found by
//! walking up to `c1`/`c2`. Same-subtree requests follow the SplayNet
//! discipline inside the subtree; all other requests splay each
//! non-centroid endpoint up to its anchor. After every request the
//! `ServeCost` and the whole parent array must agree.

use kst_core::{
    KPlusOneSplayNet, KstTree, Membership, Network, NodeIdx, NodeKey, ServeCost, SplayStrategy,
    WindowPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const S: SplayStrategy = SplayStrategy::KSplay;
const P: WindowPolicy = WindowPolicy::Paper;

/// The centroid (`c1` or `c2`) that `x`'s subtree hangs from.
fn anchor(t: &KstTree, x: NodeIdx, c1: NodeIdx, c2: NodeIdx) -> NodeIdx {
    let mut y = x;
    while t.parent(y) != c1 && t.parent(y) != c2 {
        y = t.parent(y);
    }
    t.parent(y)
}

/// One request served on the reference tree.
fn reference_serve(t: &mut KstTree, net: &KPlusOneSplayNet, u: NodeKey, v: NodeKey) -> ServeCost {
    if u == v {
        return ServeCost::default();
    }
    let (c1, c2) = (t.node_of(net.c1_key()), t.node_of(net.c2_key()));
    let (nu, nv) = (t.node_of(u), t.node_of(v));
    let (routing, w) = t.distance_lca(nu, nv);
    let mut cost = ServeCost {
        routing,
        ..ServeCost::default()
    };
    match (net.membership(u), net.membership(v)) {
        (Membership::Subtree(a), Membership::Subtree(b)) if a == b => {
            if w == nu {
                cost += t.splay_until(nv, nu, S, P);
            } else if w == nv {
                cost += t.splay_until(nu, nv, S, P);
            } else {
                let top = t.parent(w);
                cost += t.splay_until(nu, top, S, P);
                cost += t.splay_until(nv, nu, S, P);
            }
        }
        (mu, mv) => {
            for (m, x) in [(mu, nu), (mv, nv)] {
                if let Membership::Subtree(_) = m {
                    let a = anchor(t, x, c1, c2);
                    cost += t.splay_until(x, a, S, P);
                }
            }
        }
    }
    cost
}

#[test]
fn centroid_net_matches_reference_move_for_move() {
    let n = 240usize;
    for k in [2usize, 3, 4] {
        let mut net = KPlusOneSplayNet::new(k, n);
        let mut t = net.tree().clone();
        let (c1, c2) = (net.c1_key(), net.c2_key());
        let mut rng = StdRng::seed_from_u64(0x5EED + k as u64);
        let (mut same, mut cross) = (0u32, 0u32);
        for i in 0..4000 {
            let u = rng.gen_range(1..=n as NodeKey);
            // Mix local pairs (mostly same-subtree), uniform pairs (mostly
            // cross-subtree) and centroid endpoints.
            let v = match rng.gen_range(0..8u32) {
                0 => c1,
                1 => c2,
                2..=4 => {
                    let d = rng.gen_range(1..=12) as NodeKey;
                    if u + d <= n as NodeKey {
                        u + d
                    } else {
                        u - d
                    }
                }
                _ => rng.gen_range(1..=n as NodeKey),
            };
            match (net.membership(u), net.membership(v)) {
                (Membership::Subtree(a), Membership::Subtree(b)) if a == b => same += 1,
                _ => cross += 1,
            }
            let want = reference_serve(&mut t, &net, u, v);
            let got = net.serve(u, v);
            assert_eq!(got, want, "k={k} request #{i} ({u},{v}): cost differs");
            for x in 0..n as NodeIdx {
                assert_eq!(
                    net.tree().parent(x),
                    t.parent(x),
                    "k={k} request #{i} ({u},{v}): parent of key {} differs",
                    x + 1
                );
            }
        }
        assert!(
            same > 500 && cross > 500,
            "k={k}: trace must exercise both cases ({same} same, {cross} cross)"
        );
    }
}
