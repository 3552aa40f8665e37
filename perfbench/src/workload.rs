//! The four named workloads: how each trace is generated from a seed and
//! which engine configuration replays it. `README.md` records why each
//! was chosen and which layers it is meant to load.

use kst_engine::{EngineConfig, ReshardConfig, SpineMode};
use kst_workloads::{gens, Trace};

/// The shard network a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum NetKind {
    /// `ShardedEngine::ksplay(k, ..)`.
    KSplay { k: usize },
    /// `ShardedEngine::lazy(k, .., alpha, tau, half_life, ..)`.
    Lazy {
        k: usize,
        alpha: u64,
        tau: u64,
        half_life: u32,
    },
}

/// One benchmark workload: a seeded trace generator plus the engine that
/// replays it.
pub struct Workload {
    pub name: &'static str,
    /// Keyspace size.
    pub n: usize,
    /// Requests per trace.
    pub m: usize,
    pub net: NetKind,
    /// The replay configuration (tracing off).
    pub cfg: EngineConfig,
    /// Worker threads of a threaded layout of `cfg` that only the traced
    /// run times, against `cfg` itself (1: none).
    pub threaded: usize,
    generate: fn(n: usize, m: usize, seed: u64) -> Trace,
}

const ZIPF_N: usize = 1_000_000;
const ZIPF_M: usize = 300_000;

fn zipf_trace(n: usize, m: usize, seed: u64) -> Trace {
    gens::zipf(n, m, 1.2, seed)
}

fn layout(shards: usize, threads: usize) -> EngineConfig {
    EngineConfig::default()
        .with_shards(shards)
        .with_threads(threads)
        .with_batch(1024)
}

pub const NAMES: [&str; 4] = ["hot_pairs", "zipf_splay", "zipf_lazy", "boundary_reshard"];

/// The workload called `name`, or `None` for an unknown name.
pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        "hot_pairs" => Workload {
            name: "hot_pairs",
            n: 1_000_000,
            m: 2_000_000,
            net: NetKind::KSplay { k: 4 },
            cfg: layout(4, 1),
            threaded: 2,
            generate: |n, m, seed| gens::sharded_hot_pairs(n, m, 4, 64, seed),
        },
        "zipf_splay" => Workload {
            name: "zipf_splay",
            n: ZIPF_N,
            m: ZIPF_M,
            net: NetKind::KSplay { k: 2 },
            cfg: layout(1, 1),
            threaded: 1,
            generate: zipf_trace,
        },
        "zipf_lazy" => Workload {
            name: "zipf_lazy",
            n: ZIPF_N,
            m: ZIPF_M,
            net: NetKind::Lazy {
                k: 2,
                alpha: 2_000_000,
                tau: 8,
                half_life: 4,
            },
            cfg: layout(1, 1),
            threaded: 1,
            generate: zipf_trace,
        },
        "boundary_reshard" => Workload {
            name: "boundary_reshard",
            n: 200_000,
            m: 200_000,
            net: NetKind::KSplay { k: 2 },
            cfg: layout(8, 1)
                .with_spine(SpineMode::KSplay { k: 2 })
                .with_reshard(ReshardConfig::on()),
            threaded: 2,
            generate: |n, m, seed| gens::boundary_phase_shift(n, m, 8, m / 8, 0.6, seed),
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// The workload's trace for `seed` (deterministic in the seed).
    pub fn trace(&self, seed: u64) -> Trace {
        (self.generate)(self.n, self.m, seed)
    }

    /// Worker threads the replay actually uses.
    pub fn workers(&self) -> usize {
        self.cfg.threads.min(self.cfg.shards).max(1)
    }
}
