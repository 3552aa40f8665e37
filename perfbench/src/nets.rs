//! The two shard network types the workloads run on, seen from the
//! benchmark: how to build the engine, how to replicate its untouched
//! shard nets, and how to serve one shard operation on a replica while
//! timing each layer's public call.

use crate::clock::Clock;
use crate::workload::{NetKind, Workload};
use kst_core::lazy::{IncrementalWeightBalanced, LazyKaryNet};
use kst_core::{KSplayNet, Network, NodeKey, ServeCost, SplayStrategy, WindowPolicy};
use kst_engine::{EngineConfig, ShardedEngine};

/// The lazy net type `ShardedEngine::lazy` builds per shard.
pub type LazyNet = LazyKaryNet<IncrementalWeightBalanced>;

/// Per-layer counters and times gathered while replaying shard operations
/// on replicas. Times are in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct NetAcc {
    /// Shard operations served.
    pub ops: u64,
    /// Operations the adjacency fast path answered (k-splay nets).
    pub fast_ops: u64,
    /// Replay time outside the timed calls: fast-path serves and loop
    /// overhead.
    pub other_ns: f64,
    pub dist_calls: u64,
    pub dist_ns: f64,
    /// The lazy replay's read-only `distance_lca` probes: timed like
    /// `dist_ns`, but work the engine does not do.
    pub probe_ns: f64,
    pub dist_hops: u64,
    /// `distance_lca` calls made while the tree's depth cache was armed.
    pub dist_armed: u64,
    pub adjust_ns: f64,
    pub rotations: u64,
    /// Lazy serves that did not rebuild.
    pub serve_calls: u64,
    pub serve_ns: f64,
    /// One entry per lazy serve that rebuilt: its duration in ns.
    pub rebuild_ns: Vec<f64>,
    pub rebuild_nodes: u64,
}

impl NetAcc {
    /// Time the engine itself would spend serving these operations: the
    /// timed calls plus fast paths and loop overhead, without the lazy
    /// replay's probes.
    pub fn serve_path_ns(&self) -> f64 {
        let rebuild_ns = self.rebuild_ns.iter().fold(0.0, |a, b| a + b);
        self.other_ns + self.dist_ns + self.adjust_ns + self.serve_ns + rebuild_ns
    }
}

/// A shard network type the benchmark can replay.
pub trait BenchNet: Network + Send + Sized {
    /// The workload's engine, built with `cfg`.
    fn engine(w: &Workload, cfg: EngineConfig) -> ShardedEngine<Self>;

    /// Copies of the engine's shard nets, in shard order.
    fn replicas(w: &Workload, engine: &ShardedEngine<Self>) -> Vec<Self>;

    /// Serves local request `(a, b)` on this replica exactly as the engine
    /// would, booking each layer's time to `acc`. `clk` is a running lap
    /// clock: the time since its last lap belongs to the caller's loop.
    fn traced_serve(
        &mut self,
        a: NodeKey,
        b: NodeKey,
        clk: &mut Clock,
        acc: &mut NetAcc,
    ) -> ServeCost;
}

impl BenchNet for KSplayNet {
    fn engine(w: &Workload, cfg: EngineConfig) -> ShardedEngine<KSplayNet> {
        let NetKind::KSplay { k } = w.net else {
            panic!("{} does not run on k-splay nets", w.name);
        };
        ShardedEngine::ksplay(k, w.n, cfg)
    }

    fn replicas(_: &Workload, engine: &ShardedEngine<KSplayNet>) -> Vec<KSplayNet> {
        engine.nets().to_vec()
    }

    /// `KSplayNet::serve`, split at its layer boundaries: the adjacency
    /// fast path, then `KstTree::distance_lca` (routing charge and LCA in
    /// one walk), then the adjustment `KSplayNet::adjust` performs, given
    /// that LCA. Calling `adjust` itself would walk to the LCA a second
    /// time, which the engine does not do. The nets the engine builds use
    /// the default strategy and window policy.
    fn traced_serve(
        &mut self,
        a: NodeKey,
        b: NodeKey,
        clk: &mut Clock,
        acc: &mut NetAcc,
    ) -> ServeCost {
        acc.ops += 1;
        let tree = self.tree();
        let (nu, nv) = (tree.node_of(a), tree.node_of(b));
        if nu == nv {
            return ServeCost::default();
        }
        if tree.parent(nv) == nu || tree.parent(nu) == nv {
            acc.fast_ops += 1;
            return ServeCost {
                routing: 1,
                ..ServeCost::default()
            };
        }
        acc.other_ns += clk.lap();
        let armed = tree.depth_cache_armed();
        let (routing, w) = tree.distance_lca(nu, nv);
        acc.dist_ns += clk.lap();
        let (s, p) = (SplayStrategy::KSplay, WindowPolicy::Paper);
        let tree = self.tree_mut();
        let stats = if w == nu {
            tree.splay_until(nv, nu, s, p)
        } else if w == nv {
            tree.splay_until(nu, nv, s, p)
        } else {
            let boundary = tree.parent(w);
            let first = tree.splay_until(nu, boundary, s, p);
            let mut second = tree.splay_until(nv, nu, s, p);
            second.rotations += first.rotations;
            second.links_changed += first.links_changed;
            second
        };
        acc.adjust_ns += clk.lap();
        acc.dist_calls += 1;
        acc.dist_hops += routing;
        acc.dist_armed += armed as u64;
        acc.rotations += stats.rotations;
        ServeCost {
            routing,
            rotations: stats.rotations,
            links_changed: stats.links_changed,
            ..ServeCost::default()
        }
    }
}

impl BenchNet for LazyNet {
    fn engine(w: &Workload, cfg: EngineConfig) -> ShardedEngine<LazyNet> {
        let NetKind::Lazy {
            k,
            alpha,
            tau,
            half_life,
        } = w.net
        else {
            panic!("{} does not run on lazy nets", w.name);
        };
        ShardedEngine::lazy(k, w.n, alpha, tau, half_life, cfg)
    }

    /// `LazyKaryNet` is not `Clone`, so the replicas are built the way
    /// `ShardedEngine::lazy` builds each shard. That equals a copy only
    /// of an engine that has not served yet, which is the only kind the
    /// traced run replicates; the cost check against the engine's report
    /// confirms it.
    fn replicas(w: &Workload, engine: &ShardedEngine<LazyNet>) -> Vec<LazyNet> {
        let NetKind::Lazy {
            k,
            alpha,
            tau,
            half_life,
        } = w.net
        else {
            panic!("{} does not run on lazy nets", w.name);
        };
        engine
            .map()
            .ranges()
            .iter()
            .map(|r| {
                LazyKaryNet::new(
                    k,
                    r.len(),
                    alpha,
                    kst_core::lazy::incremental_weight_balanced_rebuilder(k, tau),
                )
                .with_half_life(half_life)
            })
            .collect()
    }

    /// Times a read-only `distance_lca` probe (the distance layer as the
    /// lazy net's serve reads it), then the whole `serve`, booked to the
    /// rebuild account when it crossed an epoch boundary.
    fn traced_serve(
        &mut self,
        a: NodeKey,
        b: NodeKey,
        clk: &mut Clock,
        acc: &mut NetAcc,
    ) -> ServeCost {
        acc.ops += 1;
        acc.other_ns += clk.lap();
        let tree = self.tree();
        let armed = tree.depth_cache_armed();
        let (hops, _) = tree.distance_lca(tree.node_of(a), tree.node_of(b));
        acc.probe_ns += clk.lap();
        let before = self.rebuilds();
        let c = self.serve(a, b);
        let t = clk.lap();
        if self.rebuilds() > before {
            acc.rebuild_ns.push(t);
            acc.rebuild_nodes += c.rebuild_nodes;
        } else {
            acc.serve_calls += 1;
            acc.serve_ns += t;
        }
        acc.dist_calls += 1;
        acc.dist_hops += hops;
        acc.dist_armed += armed as u64;
        c
    }
}

/// A network that serves nothing: an engine of these measures routing,
/// dispatch and batch handoff with no shard work behind them.
pub struct Noop(pub usize);

impl Network for Noop {
    fn len(&self) -> usize {
        self.0
    }

    fn distance(&self, _: NodeKey, _: NodeKey) -> u64 {
        0
    }

    fn serve(&mut self, _: NodeKey, _: NodeKey) -> ServeCost {
        ServeCost::default()
    }

    fn label(&self) -> String {
        "no-op".to_string()
    }
}
