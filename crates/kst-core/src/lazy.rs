//! Lazy (partially-reactive) self-adjusting networks — the meta-algorithm
//! the paper's introduction describes (via Feder et al.'s lazy SANs \[13\]):
//! serve requests on a *static* topology, and only when the routing cost
//! accumulated since the last reconfiguration exceeds a threshold `α`
//! rebuild the topology from the observed demand, paying the
//! reconfiguration cost. Between rebuilds the topology is static, so the
//! total cost trades routing (higher between rebuilds) against adjustment
//! (paid in bulk, rarely).
//!
//! # Two-phase rebuilds: plan / apply
//!
//! Rebuilding is split into two phases. A [`Rebuild`] policy first
//! **plans**: given the live tree and a [`DemandView`] of the demand
//! ledger it produces a [`RebuildPlan`] — a set of disjoint
//! [`SubtreePatch`]es, each replacing the subtree over one key range with
//! a fresh shape fragment. Applying the plan re-forms **only** the patched
//! ranges ([`KstTree::patch_subtree`]) in one pass over the patched
//! nodes, with exact `links_changed` accounting from a snapshot of the
//! range's parent pointers (no edge lists, no sorting). A whole-tree
//! shape is the degenerate single-patch plan ([`RebuildPlan::full`]), so
//! classic full rebuilders — any `FnMut(&DemandView) -> ShapeTree`
//! wrapped in [`FullRebuild`] — keep working unchanged, while
//! [`IncrementalWeightBalanced`] patches only the subtrees whose observed
//! demand drifted, cutting rebuild cost from O(n) per trigger to
//! O(touched) on stable workloads (the local-adjustment regime of
//! *Push-Down Trees*).
//!
//! # Demand ledger: EWMA across epochs
//!
//! Demand observed during an epoch is kept in the sparse ledger of a
//! [`DecayingDemand`]: one entry per **distinct** requested pair
//! (output-sensitive memory, the sparse-demand insight of *Toward
//! Demand-Aware Networking*), folded at every rebuild boundary into a
//! fixed-point EWMA at a configurable half-life
//! ([`LazyKaryNet::with_half_life`]). With half-life 0 (the default) the
//! ledger forgets everything at each rebuild — the classic per-epoch
//! semantics; with a positive half-life the net keeps a decaying memory of
//! earlier epochs, which is what stops non-stationary traffic from
//! thrashing the topology between unrelated optima.

use crate::key::{NodeIdx, NodeKey, NIL};
use crate::net::{Network, ServeCost};
use crate::shape::ShapeTree;
use crate::tree::KstTree;
use kst_workloads::{DecayingDemand, DemandView};

/// One subtree replacement of a [`RebuildPlan`]: the subtree whose key set
/// is exactly `[lo, hi]` is re-formed as `shape` (a fragment on
/// `hi − lo + 1` nodes; keys assigned `lo..=hi` in-order).
#[derive(Debug, Clone)]
pub struct SubtreePatch {
    /// First key of the patched range.
    pub lo: NodeKey,
    /// Last key of the patched range (inclusive).
    pub hi: NodeKey,
    /// Replacement fragment for the range.
    pub shape: ShapeTree,
}

/// A rebuild described as disjoint subtree patches, sorted by key range.
/// Empty plans are legal (nothing changed enough to justify work); a
/// single patch spanning `[1, n]` is a full rebuild.
#[derive(Debug, Clone, Default)]
pub struct RebuildPlan {
    patches: Vec<SubtreePatch>,
}

impl RebuildPlan {
    /// The no-op plan.
    pub fn empty() -> RebuildPlan {
        RebuildPlan::default()
    }

    /// The degenerate whole-tree plan: one patch spanning every key —
    /// exactly the pre-patch full-rebuild semantics.
    pub fn full(shape: ShapeTree) -> RebuildPlan {
        let n = shape.len();
        assert!(n >= 1, "full plan needs a non-empty shape");
        RebuildPlan {
            patches: vec![SubtreePatch {
                lo: 1,
                hi: n as NodeKey,
                shape,
            }],
        }
    }

    /// Wraps patches, validating they are sorted by `lo`, pairwise
    /// disjoint, and each fragment matches its range size.
    pub fn from_patches(patches: Vec<SubtreePatch>) -> RebuildPlan {
        for p in &patches {
            assert!(p.lo <= p.hi, "patch range [{},{}] inverted", p.lo, p.hi);
            assert_eq!(
                p.shape.len(),
                (p.hi - p.lo + 1) as usize,
                "patch [{},{}] fragment size mismatch",
                p.lo,
                p.hi
            );
        }
        assert!(
            patches.windows(2).all(|w| w[0].hi < w[1].lo),
            "patches must be sorted and disjoint"
        );
        RebuildPlan { patches }
    }

    /// The plan's patches, sorted by key range.
    pub fn patches(&self) -> &[SubtreePatch] {
        &self.patches
    }

    /// True when the plan changes nothing.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Total nodes the plan will re-form.
    pub fn patched_nodes(&self) -> u64 {
        self.patches.iter().map(|p| (p.hi - p.lo + 1) as u64).sum()
    }

    /// The patched key ranges (the baselines [`DecayingDemand::mark_planned`]
    /// should reset).
    pub fn ranges(&self) -> Vec<(NodeKey, NodeKey)> {
        self.patches.iter().map(|p| (p.lo, p.hi)).collect()
    }

    /// Applies every patch to `tree` via [`KstTree::patch_subtree`],
    /// summing the exact adjustment cost (`routing: 0`).
    pub fn apply_to(&self, tree: &mut KstTree) -> ServeCost {
        let mut cost = ServeCost::default();
        for p in &self.patches {
            cost += tree.patch_subtree(p.lo, p.hi, &p.shape);
        }
        cost
    }
}

/// A topology-rebuild policy: it **plans** from the live tree and the
/// demand view; [`RebuildPlan::apply_to`] then **applies** the plan's
/// subtree patches.
pub trait Rebuild {
    /// Produces the next rebuild's patches from the current topology and
    /// the demand observed since the last rebuild (`demand.dirty()` says
    /// where it changed).
    fn plan(&mut self, tree: &KstTree, demand: &DemandView<'_>) -> RebuildPlan;
}

/// Adapter turning a classic whole-tree rebuilder — any
/// `FnMut(&DemandView) -> ShapeTree` — into a [`Rebuild`] policy whose
/// every plan is the degenerate all-dirty single patch over `[1, n]`.
pub struct FullRebuild<F>(pub F);

impl<F: FnMut(&DemandView<'_>) -> ShapeTree> Rebuild for FullRebuild<F> {
    fn plan(&mut self, _tree: &KstTree, demand: &DemandView<'_>) -> RebuildPlan {
        RebuildPlan::full((self.0)(demand))
    }
}

/// Full-rebuild policy scaling to millions of nodes: the weight-balanced
/// tree on the ledger's smoothed key frequencies
/// ([`ShapeTree::weight_balanced`]), falling back to the complete balanced
/// tree wherever (and whenever) no demand was observed.
pub fn weight_balanced_rebuilder(k: usize) -> impl Rebuild {
    FullRebuild(move |demand: &DemandView<'_>| {
        ShapeTree::weight_balanced(demand.n(), k, demand.weights().entries())
    })
}

/// Incremental weight-balanced rebuild policy: walks the live tree from
/// the root and re-forms only the subtrees whose key ranges accumulated at
/// least `tau` units of demand change (per the view's dirty [`KeyMass`])
/// since they were last patched.
///
/// At each node with dirty mass `d ≥ τ` over its range the planner
/// decides between patching the whole range and descending:
///
/// * **patch here** when the dirty mass is the *majority* of the range's
///   demand weight (`2·d ≥ weight`) — the range's demand profile
///   fundamentally changed, so re-forming it wholesale is both cheapest
///   and best (this is also what makes the first rebuild from empty
///   baselines a single full-tree patch); or when diffuse change not
///   claimed by any ≥ τ child both reaches τ and outweighs the claimed
///   mass; or when no child reaches τ at all;
/// * **descend** into every ≥ τ child otherwise — concentrated drift
///   yields a few deep, small patches.
///
/// Keys of nodes the planner descends *through* are covered by no patch,
/// so their baselines stay put and their drift keeps accumulating until a
/// local patch eventually claims them — bounded residue, cleaned lazily.
///
/// [`KeyMass`]: kst_workloads::KeyMass
pub struct IncrementalWeightBalanced {
    k: usize,
    tau: u64,
}

impl IncrementalWeightBalanced {
    /// Policy with dirty threshold `tau` (clamped to ≥ 1: a zero
    /// threshold would patch every range on every trigger).
    pub fn new(k: usize, tau: u64) -> IncrementalWeightBalanced {
        assert!(k >= 2, "arity must be at least 2");
        IncrementalWeightBalanced { k, tau: tau.max(1) }
    }

    /// The effective dirty threshold (after the ≥ 1 clamp).
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// The weight-balanced fragment for one key range, with the view's
    /// weights shifted to the fragment-local key space.
    fn fragment(&self, demand: &DemandView<'_>, a: NodeKey, b: NodeKey) -> ShapeTree {
        let hot: Vec<(NodeKey, u64)> = demand
            .weights()
            .range(a, b)
            .iter()
            .map(|&(key, w)| (key - a + 1, w))
            .collect();
        ShapeTree::weight_balanced((b - a + 1) as usize, self.k, &hot)
    }
}

impl Rebuild for IncrementalWeightBalanced {
    fn plan(&mut self, tree: &KstTree, demand: &DemandView<'_>) -> RebuildPlan {
        let dirty = demand.dirty();
        if dirty.total() < self.tau {
            return RebuildPlan::empty();
        }
        let k = tree.k();
        let n = tree.n() as NodeKey;
        let mut patches: Vec<SubtreePatch> = Vec::new();
        // Pre-order, children pushed right-to-left so ranges pop in
        // ascending key order — emitted patches come out sorted.
        let mut stack: Vec<(NodeIdx, NodeKey, NodeKey)> = vec![(tree.root(), 1, n)];
        let mut kids: Vec<(NodeIdx, NodeKey, NodeKey)> = Vec::with_capacity(k);
        while let Some((r, a, b)) = stack.pop() {
            let d = dirty.range_mass(a, b);
            if d < self.tau {
                continue;
            }
            // Child key ranges, derived from the routing elements: slot j
            // holds exactly the keys strictly between elements j−1 and j
            // (minus the node's own key, which is always range-adjacent
            // to the child it shares a slot gap with).
            let own = tree.key_of(r);
            let es = tree.elems(r);
            let cs = tree.children(r);
            kids.clear();
            let mut claimed = 0u64;
            for (j, &c) in cs.iter().enumerate() {
                if c == NIL {
                    continue;
                }
                let mut lo_j = if j == 0 {
                    a
                } else {
                    (es[j - 1] >> crate::key::KEY_SHIFT) as NodeKey + 1
                };
                let mut hi_j = if j == k - 1 {
                    b
                } else {
                    (es[j] >> crate::key::KEY_SHIFT) as NodeKey
                };
                lo_j = lo_j.max(a);
                hi_j = hi_j.min(b);
                if own == lo_j {
                    lo_j += 1;
                } else if own == hi_j {
                    hi_j -= 1;
                }
                debug_assert!(
                    lo_j <= hi_j && !(lo_j <= own && own <= hi_j),
                    "child range derivation broken at key {own}"
                );
                let m = dirty.range_mass(lo_j, hi_j);
                if m >= self.tau {
                    kids.push((c, lo_j, hi_j));
                    claimed += m;
                }
            }
            let remainder = d - claimed;
            let profile_changed = 2 * d >= demand.weights().range_mass(a, b);
            if kids.is_empty() || profile_changed || (remainder >= self.tau && remainder >= claimed)
            {
                patches.push(SubtreePatch {
                    lo: a,
                    hi: b,
                    shape: self.fragment(demand, a, b),
                });
            } else {
                for &kid in kids.iter().rev() {
                    stack.push(kid);
                }
            }
        }
        RebuildPlan::from_patches(patches)
    }
}

/// Incremental weight-balanced policy with dirty threshold `tau` (see
/// [`IncrementalWeightBalanced`]), alongside the other rebuilder
/// factories.
pub fn incremental_weight_balanced_rebuilder(k: usize, tau: u64) -> IncrementalWeightBalanced {
    IncrementalWeightBalanced::new(k, tau)
}

/// Lazy self-adjusting k-ary search tree network with reconfiguration
/// threshold `alpha`.
pub struct LazyKaryNet<R: Rebuild> {
    tree: KstTree,
    k: usize,
    alpha: u64,
    rebuilder: R,
    /// routing cost accumulated since the last rebuild
    since_rebuild: u64,
    /// demand ledger: raw current epoch + EWMA-smoothed history
    demand: DecayingDemand,
    /// total rebuilds performed
    rebuilds: u64,
    /// total patches applied across all rebuilds
    patches_applied: u64,
    /// total nodes re-formed across all rebuilds
    nodes_patched: u64,
}

impl<R: Rebuild> LazyKaryNet<R> {
    /// Starts from the balanced k-ary tree with the given threshold and
    /// rebuild policy, and **no** cross-epoch demand memory (half-life 0;
    /// see [`LazyKaryNet::with_half_life`]).
    ///
    /// `alpha` is clamped to **at least 1**: with `alpha = 0` the
    /// threshold `since_rebuild >= alpha` would hold before any routing
    /// cost accrues, firing a full rebuild on *every* serve — including
    /// zero-cost self-requests — turning the lazy net into a rebuild
    /// storm. The clamp guarantees a rebuild only ever fires once at
    /// least one unit of routing cost has accumulated.
    pub fn new(k: usize, n: usize, alpha: u64, rebuilder: R) -> LazyKaryNet<R> {
        LazyKaryNet {
            tree: KstTree::balanced(k, n),
            k,
            alpha: alpha.max(1),
            rebuilder,
            since_rebuild: 0,
            demand: DecayingDemand::new(n, 0),
            rebuilds: 0,
            patches_applied: 0,
            nodes_patched: 0,
        }
    }

    /// Sets the demand ledger's EWMA half-life in epochs (0 = no memory,
    /// the default): at every rebuild boundary the smoothed ledger decays
    /// by `2^(−1/half_life)` before the epoch folds in, so rebuild plans
    /// see a decaying average of past epochs instead of the last epoch
    /// alone. Must be called before the first request.
    pub fn with_half_life(mut self, half_life: u32) -> LazyKaryNet<R> {
        assert!(
            self.since_rebuild == 0 && self.rebuilds == 0 && self.demand.is_empty(),
            "with_half_life must be called before serving"
        );
        self.demand = DecayingDemand::new(self.tree.n(), half_life);
        self
    }

    /// Number of epoch rebuilds performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The effective reconfiguration threshold (after the ≥ 1 clamp).
    pub fn alpha(&self) -> u64 {
        self.alpha
    }

    /// Routing cost accumulated since the last rebuild.
    pub fn since_rebuild(&self) -> u64 {
        self.since_rebuild
    }

    /// Read access to the full decaying ledger (smoothed history + epoch).
    pub fn demand(&self) -> &DecayingDemand {
        &self.demand
    }

    /// Total subtree patches applied across all rebuilds so far.
    pub fn patches_applied(&self) -> u64 {
        self.patches_applied
    }

    /// Total nodes re-formed across all rebuilds so far.
    pub fn nodes_patched(&self) -> u64 {
        self.nodes_patched
    }

    /// Read access to the current topology.
    pub fn tree(&self) -> &KstTree {
        &self.tree
    }
}

impl<R: Rebuild> Network for LazyKaryNet<R> {
    fn len(&self) -> usize {
        self.tree.n()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.tree.distance_keys(u, v)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let routing = self.tree.distance_keys(u, v);
        self.since_rebuild += routing;
        if u != v {
            // ksan-allow: no-alloc ledger growth is bounded by distinct pairs and amortized; the runtime alloc probe tracks it
            self.demand.record(u, v);
        }
        let mut cost = ServeCost {
            routing,
            ..ServeCost::default()
        };
        if self.since_rebuild >= self.alpha {
            // Epoch boundary: fold the epoch into the smoothed ledger,
            // plan against the live tree, apply the patches, then move
            // the planned baselines for exactly the patched ranges —
            // reusing the view's key weights so the trigger scans the
            // ledger once, not twice. The whole block allocates by
            // design: it runs once per α routing cost, so each call
            // below is a documented no-alloc cut point.
            // ksan-allow: no-alloc epoch-boundary ledger fold, amortized over α routing cost
            self.demand.decay_merge();
            let (plan, key_weights) = {
                // ksan-allow: no-alloc epoch-boundary demand snapshot, amortized over α routing cost
                let view = self.demand.view();
                // ksan-allow: no-alloc epoch-boundary rebuild planning, amortized over α routing cost
                let plan = self.rebuilder.plan(&self.tree, &view);
                // ksan-allow: no-alloc epoch-boundary weight handoff, amortized over α routing cost
                (plan, view.into_key_weights())
            };
            // ksan-allow: no-alloc epoch-boundary patch application, amortized over α routing cost
            cost += plan.apply_to(&mut self.tree);
            // ksan-allow: no-alloc epoch-boundary baseline advance, amortized over α routing cost
            self.demand.mark_planned(&key_weights, &plan.ranges());
            self.patches_applied += cost.rebuild_patches;
            self.nodes_patched += cost.rebuild_nodes;
            self.since_rebuild = 0;
            self.rebuilds += 1;
        }
        cost
    }

    fn label(&self) -> String {
        format!("lazy {}-ary net (α={})", self.k, self.alpha)
    }
}

/// Size of the symmetric difference of two **sorted, duplicate-free**
/// edge lists — the number of links that differ between two topologies
/// (the exact adjustment-cost accounting of the complete-tree baselines
/// and the link-accounting tests).
pub fn sym_diff(a: &[(NodeIdx, NodeIdx)], b: &[(NodeIdx, NodeIdx)]) -> u64 {
    let (mut i, mut j, mut d) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                d += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                j += 1;
            }
        }
    }
    d + (a.len() - i) as u64 + (b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    /// Toy rebuilder: balanced tree regardless of demand.
    fn balanced_rebuilder(k: usize) -> impl Rebuild {
        FullRebuild(move |d: &DemandView<'_>| ShapeTree::balanced_kary(d.n(), k))
    }

    #[test]
    fn rebuild_fires_at_threshold() {
        let mut net = LazyKaryNet::new(3, 64, 50, balanced_rebuilder(3));
        let mut total = 0u64;
        let mut served = 0;
        while net.rebuilds() == 0 {
            let c = net.serve(1, 64);
            total += c.routing;
            served += 1;
            assert!(served < 100, "rebuild never fired");
        }
        assert!(total >= 50);
        validate(net.tree()).unwrap();
    }

    #[test]
    fn rebuild_resets_epoch_exactly() {
        let mut net = LazyKaryNet::new(2, 32, 10, balanced_rebuilder(2));
        let mut boundaries = 0;
        for _ in 0..100 {
            let before = net.rebuilds();
            net.serve(1, 32);
            if net.rebuilds() > before {
                // Immediately after a rebuild boundary the epoch state is
                // exactly empty: the raw ledger holds no pairs at all (the
                // triggering request was folded into the smoothed view
                // handed to the planner) and the accumulated routing cost
                // restarts from zero.
                boundaries += 1;
                assert_eq!(net.demand().epoch_total(), 0, "ledger must be empty");
                assert_eq!(net.demand().epoch_pairs(), 0);
                assert_eq!(net.since_rebuild(), 0, "cost accumulator must reset");
            } else {
                // Between boundaries the ledger is tracking this epoch.
                assert!(net.demand().epoch_total() > 0);
                assert!(net.since_rebuild() > 0);
            }
        }
        assert!(net.rebuilds() >= 5);
        assert!(boundaries >= 5);
    }

    #[test]
    fn alpha_zero_is_clamped_to_one() {
        // Regression test for the rebuild-storm edge case: with α = 0 the
        // old `since_rebuild >= alpha` check fired a full rebuild on every
        // serve, even zero-cost self-requests. The ≥ 1 clamp means a
        // rebuild needs at least one unit of accumulated routing cost.
        let mut net = LazyKaryNet::new(2, 16, 0, balanced_rebuilder(2));
        assert_eq!(net.alpha(), 1);
        for _ in 0..50 {
            let c = net.serve(5, 5); // self-request: routing = 0
            assert_eq!(c.routing, 0);
            assert_eq!(c.links_changed, 0);
        }
        assert_eq!(net.rebuilds(), 0, "zero-cost traffic must never rebuild");
        // One real request accumulates cost and fires at the clamped α=1.
        net.serve(1, 16);
        assert_eq!(net.rebuilds(), 1);
    }

    #[test]
    fn links_changed_zero_when_shape_identical() {
        // Rebuilding into the same balanced shape changes no links, but
        // the full plan still reports its one whole-tree patch.
        let mut net = LazyKaryNet::new(3, 64, 1, balanced_rebuilder(3));
        let c = net.serve(1, 64); // fires immediately
        assert_eq!(net.rebuilds(), 1);
        assert_eq!(c.links_changed, 0);
        assert_eq!(c.rebuild_patches, 1);
        assert_eq!(c.rebuild_nodes, 64);
    }

    #[test]
    fn demand_aware_rebuilder_sees_epoch_demand() {
        // A rebuilder that checks the hottest pair is visible in the
        // planner-facing view (test-quality policy, not production).
        let rebuilder = FullRebuild(|demand: &DemandView<'_>| -> ShapeTree {
            let best = demand
                .pairs_sorted()
                .into_iter()
                .max_by_key(|&(_, _, c)| c)
                .expect("rebuilder must observe demand");
            assert_eq!((best.0, best.1), (3, 11));
            assert!(best.2 > 0);
            ShapeTree::balanced_kary(demand.n(), 2)
        });
        let mut net = LazyKaryNet::new(2, 16, 20, rebuilder);
        for _ in 0..20 {
            net.serve(3, 11);
        }
        assert!(net.rebuilds() >= 1);
    }

    #[test]
    fn ledger_memory_is_output_sensitive() {
        // The whole point of the sparse redesign: the ledger scales with
        // the *observed* pairs, not with n².
        let n = 1 << 17; // 131072 — a dense ledger would already be 137 GB
        let mut net = LazyKaryNet::new(4, n, u64::MAX, balanced_rebuilder(4));
        for i in 0..1000u32 {
            net.serve(1 + i % 50, n as u32 - (i % 40));
        }
        assert!(net.demand().epoch_pairs() <= 50 * 40);
        assert_eq!(net.demand().epoch_total(), 1000);
    }

    #[test]
    fn weight_balanced_rebuilder_pulls_hot_keys_up() {
        let n = 4096;
        let mut net = LazyKaryNet::new(2, n, 40_000, weight_balanced_rebuilder(2));
        let (hu, hv) = (10u32, n as u32 - 10);
        let balanced_dist = net.distance(hu, hv);
        for _ in 0..4000 {
            net.serve(hu, hv);
        }
        assert!(net.rebuilds() >= 1, "threshold must have fired");
        validate(net.tree()).unwrap();
        assert!(
            net.distance(hu, hv) < balanced_dist,
            "hot pair must be closer after a weight-balanced rebuild \
             ({} vs {balanced_dist})",
            net.distance(hu, hv)
        );
    }

    #[test]
    fn incremental_planner_patches_only_the_dirty_subtree() {
        // Establish a steady topology under a decaying ledger (incremental
        // planning presumes a stable smoothed baseline — with half-life 0
        // the whole weight profile is replaced every epoch, so everything
        // is always dirty and the planner correctly degrades to full
        // rebuilds), then perturb demand inside one narrow key region: the
        // next plan must not touch the whole tree.
        let n = 4096;
        let mut net = LazyKaryNet::new(2, n, 25_000, incremental_weight_balanced_rebuilder(2, 16))
            .with_half_life(8);
        // Warm-up epoch: spread demand, triggering a first (full) rebuild.
        for i in 0..2500u32 {
            let u = 1 + (i * 37) % (n as u32);
            let v = 1 + (i * 101 + 1) % (n as u32);
            if u != v {
                net.serve(u, v);
            }
        }
        assert!(net.rebuilds() >= 1);
        let full_nodes = net.nodes_patched();
        // Second phase: hammer one local pair until the next rebuild.
        let before = net.rebuilds();
        let mut served = 0;
        while net.rebuilds() == before {
            net.serve(100, 140);
            served += 1;
            assert!(served < 2_000_000, "second rebuild never fired");
        }
        let incr_nodes = net.nodes_patched() - full_nodes;
        assert!(
            incr_nodes < (n / 4) as u64,
            "local drift re-formed {incr_nodes} of {n} nodes — not incremental"
        );
        validate(net.tree()).unwrap();
    }

    #[test]
    fn incremental_planner_emits_empty_plan_when_nothing_drifted() {
        let mut p = incremental_weight_balanced_rebuilder(3, 100);
        let tree = KstTree::balanced(3, 100);
        let mut demand = DecayingDemand::new(100, 0);
        demand.record_many(1, 2, 3); // change mass 6 < τ = 100
        demand.decay_merge();
        let plan = p.plan(&tree, &demand.view());
        assert!(plan.is_empty());
        assert_eq!(plan.patched_nodes(), 0);
    }

    #[test]
    fn full_plan_apply_equals_from_shape_topology() {
        // Applying a whole-tree plan in place must produce exactly the
        // same topology as building the shape from scratch.
        let n = 300;
        for k in [2usize, 3, 5] {
            let mut demand = DecayingDemand::new(n, 0);
            for i in 0..40u32 {
                demand.record_many(1 + i, 42 + (i * 7) % (n as u32 - 42), (i % 5 + 1) as u64);
            }
            demand.decay_merge();
            let shape = ShapeTree::weight_balanced(n, k, &demand.key_weights());
            let reference = KstTree::from_shape(k, &shape);
            let mut tree = KstTree::balanced(k, n);
            let stats = RebuildPlan::full(shape).apply_to(&mut tree);
            assert_eq!(stats.rebuild_patches, 1);
            assert_eq!(stats.rebuild_nodes, n as u64);
            validate(&tree).unwrap();
            for u in 1..=n as NodeKey {
                for v in 1..=n as NodeKey {
                    assert_eq!(
                        tree.distance_keys(u, v),
                        reference.distance_keys(u, v),
                        "k={k} pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn decaying_net_remembers_earlier_epochs() {
        // With a positive half-life, demand from a *previous* epoch still
        // shapes the rebuild after a fresh epoch with unrelated traffic.
        let n = 1024;
        let hot = (5u32, 900u32);
        let make = |hl: u32| {
            LazyKaryNet::new(2, n, 4_000, weight_balanced_rebuilder(2)).with_half_life(hl)
        };
        let run = |mut net: LazyKaryNet<_>| {
            // Epoch 1: hammer the hot pair (forces ≥1 rebuild).
            for _ in 0..1500 {
                net.serve(hot.0, hot.1);
            }
            assert!(net.rebuilds() >= 1);
            // Epoch 2+: unrelated scattered traffic, another rebuild.
            for i in 0..1500u32 {
                net.serve(1 + (i * 13) % 512, 513 + (i * 29) % 511);
            }
            net.distance(hot.0, hot.1)
        };
        let with_memory = run(make(8));
        let without_memory = run(make(0));
        assert!(
            with_memory < without_memory,
            "EWMA memory should keep the old hot pair closer \
             (with {with_memory}, without {without_memory})"
        );
    }
}
