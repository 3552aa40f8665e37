//! What the sharded engine takes from its shard nets' type, and what it
//! keeps when a shard fails:
//!
//! 1. live resharding comes from [`Network::as_reshardable`] — an engine
//!    built from a bare factory of reshardable nets reshards exactly like
//!    the `ShardedEngine::ksplay` convenience constructor, and a net type
//!    without the capability fails loudly before serving;
//! 2. workers only borrow the shard nets, so a worker panic unwinds out
//!    of `run_trace` with every net still in the engine.

use ksan::engine::{EngineConfig, ReshardConfig, ShardedEngine};
use ksan::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn resharding(shards: usize, threads: usize) -> EngineConfig {
    let mut rc = ReshardConfig::on();
    rc.epoch = 500;
    EngineConfig::default()
        .with_shards(shards)
        .with_threads(threads)
        .with_batch(64)
        .with_reshard(rc)
}

#[test]
fn resharding_comes_from_the_net_type_not_the_constructor() {
    let n = 800;
    let trace = gens::boundary_phase_shift(n, 8000, 4, 2000, 0.8, 19);
    for threads in [1, 2] {
        let cfg = resharding(4, threads);
        let mut bare = ShardedEngine::new(n, cfg.clone(), |_, r| KSplayNet::balanced(2, r.len()));
        let mut ksplay = ShardedEngine::ksplay(2, n, cfg);
        let a = bare.run_trace(&trace);
        assert_eq!(a, ksplay.run_trace(&trace), "threads={threads}");
        assert!(a.reshard.migrations > 0, "workload must trigger migrations");
        assert_eq!(bare.map(), ksplay.map());
    }
}

#[test]
#[should_panic(expected = "no reshard ops")]
fn resharding_a_net_type_without_reshard_ops_fails_loudly() {
    let n = 100;
    let mut engine = ShardedEngine::pushdown(2, n, resharding(2, 1));
    engine.run_trace(&gens::uniform(n, 1000, 3));
}

/// A k-splay net that panics on its `fault_at`-th serve: a shard whose
/// net hits a bug mid-run.
struct Faulty {
    net: KSplayNet,
    serves: usize,
    fault_at: Option<usize>,
}

impl Network for Faulty {
    fn len(&self) -> usize {
        self.net.len()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.net.distance(u, v)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        self.serves += 1;
        if Some(self.serves) == self.fault_at {
            panic!("injected fault on serve {}", self.serves);
        }
        self.net.serve(u, v)
    }

    fn label(&self) -> String {
        String::from("faulty k-splay")
    }
}

#[test]
fn a_worker_panic_leaves_the_engines_nets_in_place() {
    let (n, faulty) = (400, 1);
    let trace = gens::uniform(n, 4000, 5);
    let cfg = EngineConfig::default()
        .with_shards(4)
        .with_threads(2)
        .with_batch(16);
    let mut engine = ShardedEngine::new(n, cfg, |s, r| Faulty {
        net: KSplayNet::balanced(2, r.len()),
        serves: 0,
        fault_at: (s == faulty).then_some(50),
    });
    let run = catch_unwind(AssertUnwindSafe(|| engine.run_trace(&trace)));
    assert!(run.is_err(), "the injected fault must propagate");
    assert_eq!(engine.nets().len(), 4);
    for (s, net) in engine.nets().iter().enumerate() {
        if s != faulty {
            assert_eq!(net.len(), engine.map().range(s).len(), "shard {s}");
        }
    }
    assert_eq!(engine.nets()[faulty].serves, 50);
}
