//! The sharded serving engine: per-shard networks, per-shard request
//! queues, batched dispatch, and explicit cross-shard cost accounting.
//!
//! # Cost model
//!
//! The keyspace `1..=n` is partitioned into `S` contiguous shards by a
//! **versioned range table** ([`ShardMap`]); shard `s` runs one
//! independent [`Network`] over its local keyspace and a top-level
//! **router** stitches the shards together. A request `(u, v)` is
//! charged as follows:
//!
//! * **intra-shard** (`shard(u) == shard(v)`): exactly the shard net's
//!   [`Network::serve`] cost on the locally remapped endpoints — the same
//!   routing + rotations + link-changes a standalone net of that shard
//!   would report. No router involvement, nothing else charged.
//! * **cross-shard** (`shard(u) != shard(v)`): traffic flows
//!   `u → gateway(shard(u)) → router → gateway(shard(v)) → v`. The source
//!   shard serves `(u, g_u)` and the destination shard serves `(g_v, v)`
//!   (each skipped when the endpoint *is* the gateway), so both shards
//!   self-adjust toward their gateways exactly as they would toward any
//!   hot node; on top of those two local serve costs the **router**
//!   charges its own cost for the gateway pair.
//!
//! The router comes in two flavours ([`SpineMode`]):
//!
//! * [`SpineMode::Star`] (default): a flat star over the gateways — every
//!   cross-shard request costs a constant [`EngineConfig::router_hops`]
//!   routing hops (default 2: shard egress + ingress, the star's two
//!   edges). This is the degenerate spine configuration and reproduces
//!   the original fixed-router engine bit for bit.
//! * [`SpineMode::KSplay`]: a self-adjusting **router spine** — a k-splay
//!   network over the `S` gateway keys (shard `s` ↔ spine key `s + 1`).
//!   Hot shard pairs pull each other adjacent on the spine, so a skewed
//!   cross-shard working set converges toward 1 routing hop instead of
//!   the star's flat 2; the spine's routing/rotation costs are booked to
//!   the cross-shard account and its routing charge is reported as
//!   [`EngineReport::router_hops`].
//!
//! # Live resharding
//!
//! With [`ReshardConfig::enabled`] the partition itself becomes
//! demand-aware: the trace replays in epochs of [`ReshardConfig::epoch`]
//! requests, a decaying ledger ([`kst_workloads::DecayingDemand`])
//! accumulates cross-shard pair demand, and at every epoch boundary a
//! two-phase **plan/apply** rebalance runs on the dispatcher thread:
//!
//! 1. **Plan** — evaluate the `2(S − 1)` single-boundary shifts (each
//!    boundary, each direction, up to [`ReshardConfig::budget`] keys)
//!    against the smoothed demand: a shift's gain is the demand it heals
//!    (cross pairs made intra) minus the demand it breaks (intra pairs
//!    made cross), subject to a donor floor ([`ReshardConfig::min_shard`])
//!    and a receiver size cap ([`ReshardConfig::max_imbalance_pct`]).
//! 2. **Apply** — if the best gain clears [`ReshardConfig::min_gain`],
//!    splice the boundary run out of the donor shard's tree
//!    ([`kst_core::Reshardable`]), absorb the fragment into the
//!    neighbour, shift the [`ShardMap`] boundary and bump its version.
//!    The fragment keeps its learned subtree shape, so migrated hot keys
//!    stay hot-placed.
//!
//! Because shards are fully independent and the dispatcher enqueues
//! operations in trace order — and resharding runs between epochs, on
//! the dispatcher, from a thread-count-independent ledger — every shard
//! observes the *same* operation sequence no matter how many worker
//! threads drain the queues: the threaded run is bit-identical to the
//! sequential one, with or without resharding, which the differential
//! tests assert.

use crate::obs::{observed_serve, span_ts, ObsMode, ObsReport};
use crate::shard::ShardMap;
use kst_core::{KSplayNet, Network, ServeCost};
use kst_obs::{EventKind, Histogram, Stopwatch, Tracer};
use kst_sim::par::par_map;
use kst_sim::{Metrics, ObsCollector};
use kst_workloads::{DecayingDemand, KeyRange, NodeKey, Trace};
use std::sync::mpsc;

/// How many filled batches may queue per worker before the dispatcher
/// blocks (bounds engine memory regardless of trace length).
const QUEUE_DEPTH: usize = 4;

/// Topology of the top-level router over the shard gateways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpineMode {
    /// Flat star: every cross-shard request is charged a constant
    /// [`EngineConfig::router_hops`]. The degenerate spine.
    #[default]
    Star,
    /// Self-adjusting k-splay network over the `S` gateway keys: hot
    /// shard pairs converge to adjacency, cold pairs pay the tree
    /// distance.
    KSplay {
        /// Arity of the spine tree (clamped to ≥ 2).
        k: usize,
    },
}

/// Live-resharding knobs. Disabled by default; enable with
/// [`ReshardConfig::on`] or `KSAN_RESHARD=on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardConfig {
    /// Master switch. When off the partition is fixed for the whole run
    /// and the engine is bit-identical to the static-partition engine.
    pub enabled: bool,
    /// Requests per epoch: demand is folded and a migration considered
    /// at every epoch boundary.
    pub epoch: usize,
    /// Half-life (in epochs) of the decaying cross-shard demand ledger.
    pub half_life: u32,
    /// Maximum keys moved by one migration (one per epoch boundary).
    pub budget: usize,
    /// Minimum demand gain (healed minus broken pair weight) required to
    /// apply a migration.
    pub min_gain: u64,
    /// Donor shards always keep at least this many keys.
    pub min_shard: usize,
    /// Receiver-size cap as a percentage of the mean shard size `n / S`
    /// (e.g. 200 = a shard may grow to at most 2× the mean).
    pub max_imbalance_pct: u64,
}

impl Default for ReshardConfig {
    fn default() -> ReshardConfig {
        ReshardConfig {
            enabled: false,
            epoch: 4096,
            half_life: 4,
            budget: 256,
            min_gain: 1,
            min_shard: 8,
            max_imbalance_pct: 200,
        }
    }
}

impl ReshardConfig {
    /// The default knobs with the master switch on.
    pub fn on() -> ReshardConfig {
        ReshardConfig {
            enabled: true,
            ..ReshardConfig::default()
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of keyspace shards `S` (clamped to `1..=n` at build time).
    pub shards: usize,
    /// Worker threads draining the shard queues. `1` (or one shard) runs
    /// the sequential path — no threads, no channels, same totals.
    pub threads: usize,
    /// Dispatch batch size `B`: cross-thread handoff is amortized over
    /// `B` requests per channel send.
    pub batch: usize,
    /// Worker threads for **shard construction** (`ShardedEngine::new`).
    /// `1` (the default) builds shards sequentially in shard order —
    /// exactly the historical behaviour and transient-memory profile.
    /// Higher values build up to `build_threads` shards concurrently on
    /// scoped threads; shards are independent, so the resulting engine is
    /// bit-identical to a sequential build (a differential test pins
    /// this), but up to `build_threads` construction transients coexist.
    pub build_threads: usize,
    /// Routing hops charged per cross-shard request under
    /// [`SpineMode::Star`] (2 = shard egress + ingress). Ignored by a
    /// k-splay spine, which charges its own serve cost instead.
    pub router_hops: u64,
    /// Router topology over the shard gateways.
    pub spine: SpineMode,
    /// Live-resharding knobs (off by default).
    pub reshard: ReshardConfig,
    /// What to record while serving (histograms/timelines; see
    /// [`ObsMode`]). Off by default — the serve path then carries no
    /// observability overhead at all.
    pub obs: ObsMode,
    /// Span-ring capacity per tracer when observability is on (events
    /// kept per shard / dispatcher / worker timeline).
    pub obs_events: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: 1,
            threads: kst_sim::par::default_threads(),
            batch: 1024,
            build_threads: 1,
            router_hops: 2,
            spine: SpineMode::Star,
            reshard: ReshardConfig::default(),
            obs: ObsMode::Off,
            obs_events: 4096,
        }
    }
}

impl EngineConfig {
    /// Reads overrides from the environment: `KSAN_SHARDS`,
    /// `KSAN_THREADS`, `KSAN_BATCH`, `KSAN_BUILD_THREADS`,
    /// `KSAN_OBS` (`off`/`det`/`wall`),
    /// `KSAN_OBS_EVENTS`, `KSAN_SPINE` (`star`/`ksplay`), `KSAN_SPINE_K`,
    /// `KSAN_RESHARD` (`on`/`off`), `KSAN_RESHARD_EPOCH`,
    /// `KSAN_RESHARD_BUDGET`, and `KSAN_RESHARD_IMBALANCE` (the percent
    /// of the mean shard size a receiver may grow to).
    pub fn from_env() -> EngineConfig {
        let mut cfg = EngineConfig::default();
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = get("KSAN_SHARDS") {
            cfg.shards = v.max(1);
        }
        if let Some(v) = get("KSAN_THREADS") {
            cfg.threads = v.max(1);
        }
        if let Some(v) = get("KSAN_BATCH") {
            cfg.batch = v.max(1);
        }
        if let Some(v) = get("KSAN_BUILD_THREADS") {
            cfg.build_threads = v.max(1);
        }
        match std::env::var("KSAN_SPINE").ok().as_deref() {
            Some("ksplay") => {
                cfg.spine = SpineMode::KSplay {
                    k: get("KSAN_SPINE_K").unwrap_or(2).max(2),
                };
            }
            Some("star") => cfg.spine = SpineMode::Star,
            _ => {}
        }
        if let Ok(v) = std::env::var("KSAN_RESHARD") {
            cfg.reshard.enabled = matches!(v.as_str(), "on" | "1" | "true");
        }
        if let Some(v) = get("KSAN_RESHARD_EPOCH") {
            cfg.reshard.epoch = v.max(1);
        }
        if let Some(v) = get("KSAN_RESHARD_BUDGET") {
            cfg.reshard.budget = v.max(1);
        }
        if let Some(v) = get("KSAN_RESHARD_IMBALANCE") {
            cfg.reshard.max_imbalance_pct = (v as u64).max(100);
        }
        if let Some(m) = std::env::var("KSAN_OBS")
            .ok()
            .and_then(|v| ObsMode::parse(&v))
        {
            cfg.obs = m;
        }
        if let Some(v) = get("KSAN_OBS_EVENTS") {
            cfg.obs_events = v;
        }
        cfg
    }

    /// Builder-style shard count override.
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards;
        self
    }

    /// Builder-style thread count override.
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }

    /// Builder-style batch size override.
    pub fn with_batch(mut self, batch: usize) -> EngineConfig {
        self.batch = batch;
        self
    }

    /// Builder-style construction-thread override.
    pub fn with_build_threads(mut self, build_threads: usize) -> EngineConfig {
        self.build_threads = build_threads.max(1);
        self
    }

    /// Builder-style router-spine override.
    pub fn with_spine(mut self, spine: SpineMode) -> EngineConfig {
        self.spine = spine;
        self
    }

    /// Builder-style live-resharding override.
    pub fn with_reshard(mut self, reshard: ReshardConfig) -> EngineConfig {
        self.reshard = reshard;
        self
    }

    /// Builder-style observability mode override.
    pub fn with_obs(mut self, obs: ObsMode) -> EngineConfig {
        self.obs = obs;
        self
    }

    /// Builder-style span-ring capacity override.
    pub fn with_obs_events(mut self, events: usize) -> EngineConfig {
        self.obs_events = events;
        self
    }
}

/// What live resharding did during a run. All-zero when resharding is
/// off (or never fired), so reports stay comparable across configs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshardReport {
    /// Applied migrations (at most one per epoch boundary).
    pub migrations: u64,
    /// Total keys moved across shard boundaries.
    pub keys_moved: u64,
    /// Total tree links rewired by the extract/absorb surgeries.
    pub links_changed: u64,
    /// Final [`ShardMap`] version (0 = the construction partition).
    pub map_version: u64,
}

impl ReshardReport {
    /// Merge for chunked runs: counters sum, the version keeps the
    /// latest value.
    pub fn merge(&mut self, other: &ReshardReport) {
        self.migrations += other.migrations;
        self.keys_moved += other.keys_moved;
        self.links_changed += other.links_changed;
        self.map_version = self.map_version.max(other.map_version);
    }
}

/// Mergeable result of an engine run. Per-shard partials are kept apart
/// from cross-shard traffic so the intra-shard totals can be compared
/// move-for-move against standalone per-shard networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Intra-shard traffic metrics, one entry per shard. For a trace
    /// whose requests are all intra-shard this is *exactly* what a
    /// standalone net over that shard's keyspace would report for the
    /// shard's sub-sequence, move for move (the differential tests
    /// assert it); with cross-shard traffic present the gateway
    /// half-serves interleave with the shard's stream, so the partials
    /// remain exact per-shard accounts but no longer match an
    /// interference-free standalone run.
    pub per_shard: Vec<Metrics>,
    /// Cross-shard requests: `requests` counts whole cross-shard requests
    /// (not halves); costs are the two gateway half-serves plus the
    /// router's charge folded into `routing` (and, for a k-splay spine,
    /// its rotations/link-changes).
    pub cross: Metrics,
    /// Total routing charged by the router itself (already included in
    /// `cross.routing`, broken out so reports can separate "real"
    /// routing from the router surcharge). Star: `router_hops` per
    /// cross-shard request; k-splay spine: the spine's routing charges.
    pub router_hops: u64,
    /// What live resharding did (all-zero when off).
    pub reshard: ReshardReport,
    /// Observability surfaces recorded during the run (empty when
    /// [`EngineConfig::obs`] is off). Its equality compares only the
    /// deterministic histograms, so report equality keeps meaning
    /// "same costs, move for move" across thread/batch configs.
    pub obs: ObsReport,
}

impl EngineReport {
    /// An all-zero report for `shards` shards (the merge identity).
    pub fn new(shards: usize) -> EngineReport {
        EngineReport {
            per_shard: vec![Metrics::default(); shards],
            cross: Metrics::default(),
            router_hops: 0,
            reshard: ReshardReport::default(),
            obs: ObsReport::off(),
        }
    }

    /// Grand total across shards and the router — field-wise sum, so
    /// merging per-shard partials reduces to exactly the totals the
    /// standalone nets would report for intra-shard traffic.
    pub fn total(&self) -> Metrics {
        let mut m = Metrics::default();
        for s in &self.per_shard {
            m.merge(s);
        }
        m.merge(&self.cross);
        m
    }

    /// Fraction of requests that crossed shards.
    pub fn cross_fraction(&self) -> f64 {
        let total = self.total().requests;
        if total == 0 {
            0.0
        } else {
            self.cross.requests as f64 / total as f64
        }
    }

    /// Associative, commutative merge of two reports over the same shard
    /// layout (windowed / chunked runs reduce with this).
    pub fn merge(&mut self, other: &EngineReport) {
        assert_eq!(
            self.per_shard.len(),
            other.per_shard.len(),
            "cannot merge reports with different shard counts"
        );
        for (a, b) in self.per_shard.iter_mut().zip(&other.per_shard) {
            a.merge(b);
        }
        self.cross.merge(&other.cross);
        self.router_hops += other.router_hops;
        self.reshard.merge(&other.reshard);
        self.obs.merge(&other.obs);
    }
}

/// One queued shard operation. `lane` is the shard's index among its
/// worker's shards; `half` distinguishes the gateway half-serves of
/// cross-shard requests (cost booked to the router's cross-shard account)
/// from whole intra-shard requests.
#[derive(Debug, Clone, Copy)]
struct Op {
    lane: u32,
    a: NodeKey,
    b: NodeKey,
    half: bool,
}

/// Routes one request through the shard map — the single decomposition
/// point shared by the sequential serve path and the threaded
/// dispatcher, so the [`ShardMap`] lookup and the gateway half-serve
/// rules live in exactly one place.
///
/// `emit(shard, a, b, half)` fires once for an intra-shard request
/// (`half == false`, locally remapped endpoints) or up to twice for a
/// cross-shard one (`half == true`, each endpoint toward its own
/// gateway; an endpoint that *is* its gateway emits nothing). Returns
/// `Some((shard(u), shard(v)))` for cross-shard requests — the router's
/// job — and `None` for intra-shard ones. Allocation-free.
fn route_request(
    map: &ShardMap,
    u: NodeKey,
    v: NodeKey,
    mut emit: impl FnMut(usize, NodeKey, NodeKey, bool),
) -> Option<(usize, usize)> {
    let su = map.shard_of(u);
    let sv = map.shard_of(v);
    if su == sv {
        let r = map.range(su);
        emit(su, r.to_local(u), r.to_local(v), false);
        return None;
    }
    let gu = map.gateway(su);
    if u != gu {
        let r = map.range(su);
        emit(su, r.to_local(u), r.to_local(gu), true);
    }
    let gv = map.gateway(sv);
    if v != gv {
        let r = map.range(sv);
        emit(sv, r.to_local(gv), r.to_local(v), true);
    }
    Some((su, sv))
}

/// Charges the router for one cross-shard request: the flat
/// `router_hops` under the star, or a serve on the k-splay spine (shard
/// `s` ↔ spine key `s + 1`), which self-adjusts toward hot shard pairs.
/// Allocation-free (the spine's scratch is pre-sized at construction).
fn router_serve(
    spine: Option<&mut KSplayNet>,
    router_hops: u64,
    su: usize,
    sv: usize,
) -> ServeCost {
    match spine {
        None => ServeCost {
            routing: router_hops,
            ..ServeCost::default()
        },
        Some(spine) => spine.serve((su + 1) as NodeKey, (sv + 1) as NodeKey),
    }
}

/// One shard as a worker holds it while a slice drains: the engine's own
/// net, lent for the scope, and the report slots the worker books into.
struct Lane<'a, N> {
    net: &'a mut N,
    intra: &'a mut Metrics,
    obs: Option<&'a mut ObsCollector>,
}

/// A sharded serving engine: `S` independent shard networks plus the
/// top-level router spine, replaying traces either sequentially or on a
/// worker pool with batched per-shard queues, optionally rebalancing the
/// partition between epochs (live resharding).
pub struct ShardedEngine<N> {
    map: ShardMap,
    nets: Vec<N>,
    /// The self-adjusting router spine; `None` under [`SpineMode::Star`]
    /// (or with fewer than two shards), where the router is a constant
    /// charge instead of a network.
    spine: Option<KSplayNet>,
    /// The decaying cross-shard demand ledger migrations are planned
    /// from; present iff live resharding is enabled over two or more
    /// shards. The splice itself comes from [`Network::as_reshardable`].
    demand: Option<DecayingDemand>,
    cfg: EngineConfig,
    /// Run-origin clock: every wall-clock timestamp an observed run
    /// stamps (span `ts`, rebuild pauses) is an offset from this, so all
    /// threads share one time base. Unused unless
    /// [`EngineConfig::obs`] is [`ObsMode::WallClock`].
    origin: Stopwatch,
}

impl<N: Network> ShardedEngine<N> {
    /// Builds the engine over keyspace `1..=n`: the factory is called once
    /// per shard and must return a network over exactly the shard's local
    /// keyspace.
    ///
    /// Transient-memory contract: with the default
    /// [`EngineConfig::build_threads`]` = 1` shards are built sequentially
    /// in shard order, so at most **one** shard's construction transients
    /// exist at a time (the historical "never coexist" guarantee). With
    /// `build_threads = T > 1` shards are built by [`par_map`] on `T`
    /// worker threads and up to `T` construction transients overlap — bounded
    /// overlap replaces "never coexist", trading a T-bounded transient-RSS
    /// bump for a near-linear construction speedup. Shards are
    /// independent, so the built engine is bit-identical either way.
    pub fn new(
        n: usize,
        cfg: EngineConfig,
        factory: impl Fn(usize, KeyRange) -> N + Sync,
    ) -> ShardedEngine<N>
    where
        N: Send,
    {
        let map = ShardMap::contiguous(n, cfg.shards);
        let shards = map.shards();
        let build = |s: usize| {
            let range = map.range(s);
            let net = factory(s, range);
            assert_eq!(
                net.len(),
                range.len(),
                "shard {s}: factory built a {}-node net for a {}-key range",
                net.len(),
                range.len()
            );
            net
        };
        let nets = par_map((0..shards).collect(), cfg.build_threads, build);
        let spine = match cfg.spine {
            SpineMode::KSplay { k } if map.shards() >= 2 => {
                Some(KSplayNet::balanced(k.max(2), map.shards()))
            }
            _ => None,
        };
        let demand = (cfg.reshard.enabled && shards >= 2)
            .then(|| DecayingDemand::new(map.n(), cfg.reshard.half_life));
        ShardedEngine {
            map,
            nets,
            spine,
            demand,
            cfg,
            origin: Stopwatch::start(),
        }
    }

    /// The keyspace partition in use.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Read access to the shard networks (tests, reporting).
    pub fn nets(&self) -> &[N] {
        &self.nets
    }

    /// Read access to the router spine (`None` under the star).
    pub fn spine(&self) -> Option<&KSplayNet> {
        self.spine.as_ref()
    }

    /// Serves one request on the calling thread, folding its cost into
    /// `report` and returning the request's combined [`ServeCost`]
    /// (cross-shard: both gateway half-serves plus the router's charge).
    /// This is the engine's single source of truth for the cost model —
    /// the threaded path produces identical per-shard sequences.
    pub fn serve_one(&mut self, u: NodeKey, v: NodeKey, report: &mut EngineReport) -> ServeCost {
        let mode = report.obs.mode;
        let mut c = ServeCost::default();
        let mut intra_shard = usize::MAX;
        let nets = &mut self.nets;
        let obs = &mut report.obs;
        let origin = self.origin;
        let routed = route_request(&self.map, u, v, |s, a, b, half| {
            let cost = observed_serve(&mut nets[s], a, b, mode, obs.per_shard.get_mut(s), origin);
            c += cost;
            if !half {
                intra_shard = s;
            }
        });
        match routed {
            None => {
                report.per_shard[intra_shard].absorb(c);
            }
            Some((su, sv)) => {
                let rc = router_serve(self.spine.as_mut(), self.cfg.router_hops, su, sv);
                report.router_hops += rc.routing;
                c += rc;
                report.cross.absorb(c);
            }
        }
        c
    }

    /// Replays the whole trace on the calling thread (epoch-chunked when
    /// resharding is enabled).
    pub fn run_trace_seq(&mut self, trace: &Trace) -> EngineReport {
        self.run_epochs(trace, |engine, requests, report| {
            for &(u, v) in requests {
                engine.serve_one(u, v, report);
            }
        })
    }

    /// The one replay loop behind both run paths: `run_slice` serves a
    /// request slice into the report — one epoch at a time with a
    /// rebalance after each when resharding is on, else the whole trace.
    fn run_epochs(
        &mut self,
        trace: &Trace,
        mut run_slice: impl FnMut(&mut Self, &[(NodeKey, NodeKey)], &mut EngineReport),
    ) -> EngineReport {
        assert_eq!(trace.n(), self.map.n(), "trace keyspace != engine keyspace");
        let shards = self.map.shards();
        let mut report = EngineReport::new(shards);
        report.obs = ObsReport::with_config(shards, self.cfg.obs, self.cfg.obs_events);
        let epoch = if self.demand.is_some() {
            assert!(
                self.nets
                    .iter_mut()
                    .all(|net| net.as_reshardable().is_some()),
                "resharding is enabled but this engine's shard nets have no reshard ops: \
                 use a net type whose Network::as_reshardable returns Some \
                 (e.g. ShardedEngine::ksplay)"
            );
            self.cfg.reshard.epoch.max(1)
        } else {
            usize::MAX
        };
        for chunk in trace.requests().chunks(epoch) {
            run_slice(self, chunk, &mut report);
            self.reshard_boundary(chunk, &mut report);
        }
        report
    }

    /// The epoch-boundary rebalance: folds the epoch's cross-shard
    /// demand into the decaying ledger, plans the best single boundary
    /// shift, and applies it by splicing the boundary run between the
    /// neighbouring shard trees. Runs between epochs on the dispatching
    /// thread (cold path — the serve path itself stays allocation-free);
    /// deterministic given the trace and config, independent of the
    /// worker/batch layout.
    fn reshard_boundary(&mut self, chunk: &[(NodeKey, NodeKey)], report: &mut EngineReport) {
        let Some(demand) = self.demand.as_mut() else {
            return;
        };
        let shards = self.map.shards();
        for &(u, v) in chunk {
            if self.map.shard_of(u) != self.map.shard_of(v) {
                demand.record(u, v);
            }
        }
        demand.decay_merge();
        let pairs = demand.pairs_sorted();
        if report.obs.mode != ObsMode::Off {
            let mut load = vec![0u64; shards];
            for &(u, v, w) in &pairs {
                load[self.map.shard_of(u)] += w;
                load[self.map.shard_of(v)] += w;
            }
            let total: u64 = load.iter().sum();
            // Hottest shard's demand share over the uniform share,
            // ×100 — integer arithmetic, so the surface is
            // deterministic and part of report equality.
            let maxl = *load.iter().max().unwrap_or(&0);
            if let Some(pct) = (maxl * 100 * shards as u64).checked_div(total) {
                Histogram::record(&mut report.obs.imbalance, pct);
            }
        }
        if pairs.is_empty() {
            return;
        }
        let rc = self.cfg.reshard;
        let min_shard = rc.min_shard.max(1);
        // Plan: the best of the 2(S−1) single-boundary shifts. Positive
        // delta grows shard b with the low end of b+1; negative donates
        // b's high end to b+1. Ties keep the first candidate in loop
        // order (lowest boundary, grow-left before grow-right), so the
        // plan is deterministic.
        let mut best: Option<(i64, usize, isize)> = None;
        for b in 0..shards - 1 {
            for dir in [1isize, -1] {
                let (donor, receiver) = if dir > 0 { (b + 1, b) } else { (b, b + 1) };
                let donor_range = self.map.range(donor);
                let l = rc.budget.min(donor_range.len().saturating_sub(min_shard));
                if l == 0 {
                    continue;
                }
                let recv_len = self.map.range(receiver).len();
                if (recv_len + l) as u64 * 100 * shards as u64
                    > rc.max_imbalance_pct * self.map.n() as u64
                {
                    continue;
                }
                let (mlo, mhi) = if dir > 0 {
                    (donor_range.lo, donor_range.lo + l as NodeKey - 1)
                } else {
                    (donor_range.hi - l as NodeKey + 1, donor_range.hi)
                };
                let mut gain = 0i64;
                for &(u, v, w) in &pairs {
                    let mu = u >= mlo && u <= mhi;
                    let mv = v >= mlo && v <= mhi;
                    if mu == mv {
                        continue;
                    }
                    let other = if mu { v } else { u };
                    let so = self.map.shard_of(other);
                    if so == receiver {
                        gain += w as i64; // healed: the pair becomes intra-shard
                    } else if so == donor {
                        gain -= w as i64; // broken: the pair becomes cross-shard
                    }
                }
                if gain >= rc.min_gain.min(i64::MAX as u64) as i64
                    && best.is_none_or(|(bg, _, _)| gain > bg)
                {
                    best = Some((gain, b, dir * l as isize));
                }
            }
        }
        let Some((_gain, b, delta)) = best else {
            return;
        };
        let l = delta.unsigned_abs();
        // Apply: splice the boundary run out of the donor tree and hand
        // the fragment (learned shape intact) to the neighbour, then
        // shift the map boundary and bump its version.
        let (below, above) = self.nets.split_at_mut(b + 1);
        let (Some(left), Some(right)) = (below[b].as_reshardable(), above[0].as_reshardable())
        else {
            unreachable!("run_epochs checked that every shard net is reshardable");
        };
        let links = if delta > 0 {
            let (frag, s1) = right.extract_low(l);
            s1.links_changed + left.absorb_high(&frag).links_changed
        } else {
            let (frag, s1) = left.extract_high(l);
            s1.links_changed + right.absorb_low(&frag).links_changed
        };
        self.map.shift_boundary(b, delta);
        // ksan-allow: panic-surface the post-shift validate is the migration applier's own integrity gate; a failure means corrupted state that must not serve
        let check = self.map.validate();
        // ksan-allow: panic-surface see above — corrupted partitions must stop the run
        check.expect("live resharding broke the keyspace partition");
        debug_assert_eq!(self.nets[b].len(), self.map.range(b).len());
        debug_assert_eq!(self.nets[b + 1].len(), self.map.range(b + 1).len());
        report.reshard.migrations += 1;
        report.reshard.keys_moved += l as u64;
        report.reshard.links_changed += links;
        report.reshard.map_version = self.map.version();
        if report.obs.mode != ObsMode::Off {
            Histogram::record(&mut report.obs.moved_keys, l as u64);
            Tracer::record(
                &mut report.obs.dispatcher,
                EventKind::Migration,
                b as u64,
                l as u64,
            );
        }
    }
}

impl<N: Network + Send> ShardedEngine<N> {
    /// Replays the trace on a pool of `min(threads, shards)` workers with
    /// per-worker request queues and batched dispatch, falling back to the
    /// sequential path when one worker (or one shard) would run anyway.
    /// Totals are bit-identical to [`ShardedEngine::run_trace_seq`] —
    /// including under live resharding, whose epoch boundaries and
    /// migration decisions are fixed by the trace alone.
    pub fn run_trace(&mut self, trace: &Trace) -> EngineReport {
        let workers = self.cfg.threads.min(self.map.shards()).max(1);
        if workers <= 1 {
            return self.run_trace_seq(trace);
        }
        self.run_epochs(trace, |engine, requests, report| {
            engine.run_slice_threaded(requests, workers, report);
        })
    }

    /// Serves a request slice on `workers` scoped threads into `report`.
    /// Each worker borrows its shards' nets and report slots for the
    /// scope, so the engine's nets never leave it — not even when a
    /// worker panics.
    fn run_slice_threaded(
        &mut self,
        requests: &[(NodeKey, NodeKey)],
        workers: usize,
        report: &mut EngineReport,
    ) {
        let shards = self.map.shards();
        let batch = self.cfg.batch.max(1);
        let router_hops = self.cfg.router_hops;
        let mode = report.obs.mode;
        let origin = self.origin;
        let map = &self.map;
        let spine = &mut self.spine;
        if mode != ObsMode::Off {
            for w in report.obs.workers.len()..workers {
                let track = shards + 1 + w;
                let track = track as u32;
                let tracer = Tracer::with_capacity(track, self.cfg.obs_events);
                report.obs.workers.push(tracer);
            }
        }

        // Lend shard s to worker s % workers, ascending, so the worker
        // finds it at lane index s / workers.
        let mut lanes: Vec<Vec<Lane<'_, N>>> = (0..workers).map(|_| Vec::new()).collect();
        let mut shard_obs = report.obs.per_shard.iter_mut();
        for (s, (net, intra)) in self.nets.iter_mut().zip(&mut report.per_shard).enumerate() {
            let obs = shard_obs.next();
            lanes[s % workers].push(Lane { net, intra, obs });
        }
        let mut tracers = report.obs.workers.iter_mut();
        let mut halves = vec![ServeCost::default(); workers];
        let mut cross_requests = 0u64;
        let mut router_total = ServeCost::default();
        let batch_sizes = &mut report.obs.batch_sizes;
        let queue_depth = &mut report.obs.queue_depth;
        let dispatcher = &mut report.obs.dispatcher;
        // Records one batch handoff: batch size, the ops buffered across
        // all workers (a queue-occupancy proxy), and a `BatchHandoff` span.
        let mut handoff = |w: usize, len: usize, buffered: usize| {
            if mode == ObsMode::Off {
                return;
            }
            Histogram::record(batch_sizes, len as u64);
            Histogram::record(queue_depth, buffered as u64);
            let ts = span_ts(mode, origin);
            Tracer::record_timed(
                dispatcher,
                EventKind::BatchHandoff,
                w as u64,
                len as u64,
                ts,
                0,
            );
        };

        std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(workers);
            for (w, (lanes, half)) in lanes.into_iter().zip(&mut halves).enumerate() {
                let (tx, rx) = mpsc::sync_channel::<Vec<Op>>(QUEUE_DEPTH);
                senders.push(tx);
                let tracer = tracers.next();
                scope.spawn(move || {
                    worker_loop(lanes, rx, w, mode, origin, tracer, half);
                });
            }

            // Dispatch: walk the trace in order, route each request
            // through the shard map, append to per-worker batches, send a
            // batch whenever it fills. FIFO channels + a single
            // dispatcher preserve each shard's operation order; the
            // router spine is served here, on the dispatcher, so its
            // adjustment sequence is independent of the worker layout.
            let mut buffers: Vec<Vec<Op>> =
                (0..workers).map(|_| Vec::with_capacity(batch)).collect();
            for &(u, v) in requests {
                let routed = route_request(map, u, v, |s, a, b, half| {
                    let (w, lane) = (s % workers, (s / workers) as u32);
                    buffers[w].push(Op { lane, a, b, half });
                    if buffers[w].len() == batch {
                        handoff(w, batch, buffers.iter().map(Vec::len).sum());
                        let full = std::mem::replace(&mut buffers[w], Vec::with_capacity(batch));
                        // ksan-allow: panic-surface a closed queue means the scoped worker panicked; propagating is correct
                        senders[w].send(full).expect("engine worker hung up");
                    }
                });
                if let Some((su, sv)) = routed {
                    cross_requests += 1;
                    router_total += router_serve(spine.as_mut(), router_hops, su, sv);
                }
            }
            for (w, buf) in buffers.iter_mut().enumerate() {
                if !buf.is_empty() {
                    handoff(w, buf.len(), buf.len());
                    let tail = std::mem::take(buf);
                    // ksan-allow: panic-surface a closed queue means the scoped worker panicked; propagating is correct
                    senders[w].send(tail).expect("engine worker hung up");
                }
            }
            // Closing the queues lets the workers drain and finish; the
            // scope joins them and re-raises any worker panic.
            drop(senders);
        });

        // Assemble the cross-shard account: half-serve sums from the
        // workers, whole-request count and router charges from the
        // dispatcher. Field-wise associativity makes this equal to the
        // sequential path's per-request absorbs.
        report.router_hops += router_total.routing;
        let mut c = router_total;
        for h in halves {
            c += h;
        }
        let mut cross = Metrics::from_cost(c);
        cross.requests = cross_requests;
        report.cross.merge(&cross);
    }
}

/// Drains one worker's queue: serves every op on the borrowed shard nets,
/// observing into each shard's collector. Intra-shard metrics and the
/// cross-shard half-serve sum are tallied locally and booked into the
/// report once the queue closes, so workers do not write neighbouring
/// report slots on every op. Observation happens inside the worker against the shard's FIFO op
/// stream — the same stream the sequential path sees — which is what
/// makes the deterministic histogram surfaces bit-identical to
/// [`ShardedEngine::run_trace_seq`].
fn worker_loop<N: Network>(
    mut lanes: Vec<Lane<'_, N>>,
    rx: mpsc::Receiver<Vec<Op>>,
    w: usize,
    mode: ObsMode,
    origin: Stopwatch,
    mut tracer: Option<&mut Tracer>,
    half: &mut ServeCost,
) {
    // ksan-allow: no-alloc per-run tally setup, once per worker thread before any request is served
    let mut intra = vec![Metrics::default(); lanes.len()];
    let mut half_sum = ServeCost::default();
    while let Ok(ops) = rx.recv() {
        if let Some(tracer) = tracer.as_deref_mut() {
            let ts = span_ts(mode, origin);
            let len = ops.len() as u64;
            Tracer::record_timed(tracer, EventKind::ShardDispatch, len, w as u64, ts, 0);
        }
        for op in ops {
            let i = op.lane as usize;
            let lane = &mut lanes[i];
            let c = observed_serve(lane.net, op.a, op.b, mode, lane.obs.as_deref_mut(), origin);
            if op.half {
                half_sum += c;
            } else {
                intra[i].absorb(c);
            }
        }
    }
    for (lane, m) in lanes.iter_mut().zip(&intra) {
        lane.intra.merge(m);
    }
    *half = half_sum;
}

impl ShardedEngine<kst_core::KSplayNet> {
    /// Convenience constructor: one balanced k-ary SplayNet per shard.
    /// The net type is reshardable, so [`ReshardConfig::enabled`] works
    /// on it out of the box.
    pub fn ksplay(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::KSplayNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::KSplayNet::balanced(k, range.len())
        })
    }
}

impl ShardedEngine<kst_core::PushDownNet> {
    /// Convenience constructor: one k-ary Push-Down Tree per shard
    /// (competing topology; local occupant swaps, fixed complete shape).
    pub fn pushdown(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::PushDownNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::PushDownNet::new(k, range.len())
        })
    }
}

impl ShardedEngine<kst_core::lazy::LazyKaryNet<kst_core::lazy::IncrementalWeightBalanced>> {
    /// Convenience constructor: one lazy rebuild-based k-ary net per
    /// shard (epoch trigger `alpha`, incremental weight-balanced
    /// rebuilder with imbalance threshold `tau`, demand half-life
    /// `half_life` epochs). The config whose rebuild pauses the
    /// observability layer is built to expose.
    pub fn lazy(
        k: usize,
        n: usize,
        alpha: u64,
        tau: u64,
        half_life: u32,
        cfg: EngineConfig,
    ) -> ShardedEngine<kst_core::lazy::LazyKaryNet<kst_core::lazy::IncrementalWeightBalanced>> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::lazy::LazyKaryNet::new(
                k,
                range.len(),
                alpha,
                kst_core::lazy::incremental_weight_balanced_rebuilder(k, tau),
            )
            .with_half_life(half_life)
        })
    }
}

impl ShardedEngine<kst_core::RotorWalkNet> {
    /// Convenience constructor: one k-ary Rotor-Walk Tree per shard
    /// (competing topology; deterministic rotor-directed displacement).
    pub fn rotor(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::RotorWalkNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::RotorWalkNet::new(k, range.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_core::KSplayNet;
    use kst_workloads::gens;

    #[test]
    fn threaded_and_sequential_runs_are_bit_identical() {
        let trace = gens::uniform(240, 6000, 11);
        let cfg = EngineConfig::default()
            .with_shards(5)
            .with_threads(3)
            .with_batch(64);
        let mut seq = ShardedEngine::ksplay(3, 240, cfg.clone().with_threads(1));
        let mut par = ShardedEngine::ksplay(3, 240, cfg);
        let a = seq.run_trace(&trace);
        let b = par.run_trace(&trace);
        assert_eq!(a, b);
        assert_eq!(a.total().requests, 6000);
        assert!(a.cross.requests > 0, "uniform traffic must cross shards");
    }

    #[test]
    fn one_shard_engine_has_no_cross_traffic() {
        let trace = gens::temporal(100, 2000, 0.5, 5);
        let mut eng = ShardedEngine::ksplay(2, 100, EngineConfig::default());
        let rep = eng.run_trace(&trace);
        assert_eq!(rep.cross, Metrics::default());
        assert_eq!(rep.router_hops, 0);
        assert_eq!(rep.per_shard[0].requests, 2000);
    }

    #[test]
    fn cross_shard_request_charges_router_and_gateway_serves() {
        // 2 shards over 1..=10: [1..=5] gateway 3, [6..=10] gateway 8.
        let cfg = EngineConfig::default().with_shards(2).with_threads(1);
        let mut eng = ShardedEngine::ksplay(2, 10, cfg);
        let mut rep = EngineReport::new(2);

        // Reference nets mirroring the two shards.
        let mut lo = KSplayNet::balanced(2, 5);
        let mut hi = KSplayNet::balanced(2, 5);

        let c = eng.serve_one(1, 9, &mut rep);
        let want = lo.serve(1, 3).total_unit() + hi.serve(3, 4).total_unit() + 2;
        assert_eq!(c.total_unit(), want);
        assert_eq!(rep.cross.requests, 1);
        assert_eq!(rep.router_hops, 2);
        assert_eq!(rep.per_shard[0], Metrics::default());

        // An endpoint that *is* the gateway skips its half-serve.
        let c2 = eng.serve_one(3, 8, &mut rep);
        assert_eq!(c2.total_unit(), 2, "gateway-to-gateway is router-only");
        assert_eq!(rep.cross.requests, 2);
    }

    #[test]
    fn report_merge_is_associative_with_chunked_runs() {
        let trace = gens::temporal(120, 4000, 0.7, 9);
        let cfg = EngineConfig::default().with_shards(3).with_threads(1);
        let mut whole = ShardedEngine::ksplay(2, 120, cfg.clone());
        let full = whole.run_trace(&trace);

        let mut chunked = ShardedEngine::ksplay(2, 120, cfg);
        let reqs = trace.requests();
        let mut acc = EngineReport::new(3);
        for chunk in reqs.chunks(500) {
            let sub = Trace::new(120, chunk.to_vec());
            let part = chunked.run_trace(&sub);
            acc.merge(&part);
        }
        assert_eq!(acc, full);
    }

    #[test]
    fn factory_size_mismatch_panics() {
        let r = std::panic::catch_unwind(|| {
            ShardedEngine::new(
                10,
                EngineConfig::default().with_shards(2),
                |_, _| KSplayNet::balanced(2, 7), // wrong size
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn ksplay_spine_converges_on_a_hot_shard_pair() {
        // 8 shards, one hot cross-shard pair: the star charges a flat 2
        // per request; the spine pulls the two gateways adjacent and
        // serves repeats at 1 hop.
        let n = 160;
        let cfg = EngineConfig::default().with_shards(8).with_threads(1);
        let star_cfg = cfg.clone();
        let spine_cfg = cfg.with_spine(SpineMode::KSplay { k: 2 });
        let mut star = ShardedEngine::ksplay(2, n, star_cfg);
        let mut spine = ShardedEngine::ksplay(2, n, spine_cfg);
        // Gateway-to-gateway requests isolate the router charge.
        let (g0, g7) = (star.map().gateway(0), star.map().gateway(7));
        let reqs: Vec<(NodeKey, NodeKey)> = (0..500).map(|_| (g0, g7)).collect();
        let trace = Trace::new(n, reqs);
        let a = star.run_trace(&trace);
        let b = spine.run_trace(&trace);
        assert_eq!(a.router_hops, 1000, "star: flat 2 per request");
        assert!(
            b.router_hops < a.router_hops,
            "spine should beat the star on a repeated pair ({} vs {})",
            b.router_hops,
            a.router_hops
        );
    }

    #[test]
    fn resharding_migrates_hot_boundary_traffic() {
        // A hot pair straddling the shard 0/1 boundary: resharding
        // should shift the boundary so the pair lands in one shard.
        let n = 200; // 4 shards of 50
        let mut rc = ReshardConfig::on();
        rc.epoch = 200;
        rc.budget = 8;
        let cfg = EngineConfig::default()
            .with_shards(4)
            .with_threads(1)
            .with_reshard(rc);
        let mut eng = ShardedEngine::ksplay(2, n, cfg);
        // (50, 51) straddles the first boundary.
        let reqs: Vec<(NodeKey, NodeKey)> = (0..1000).map(|_| (50, 51)).collect();
        let trace = Trace::new(n, reqs);
        let rep = eng.run_trace(&trace);
        assert!(rep.reshard.migrations >= 1, "no migration applied");
        assert!(rep.reshard.keys_moved >= 1);
        assert!(eng.map().version() >= 1);
        eng.map().validate().unwrap();
        assert_eq!(
            eng.map().shard_of(50),
            eng.map().shard_of(51),
            "hot pair should be co-located after resharding"
        );
        // Shard nets still track the (shifted) ranges exactly.
        for s in 0..eng.map().shards() {
            assert_eq!(eng.nets()[s].len(), eng.map().range(s).len());
        }
    }

    #[test]
    fn resharding_off_leaves_the_map_untouched() {
        let trace = gens::uniform(120, 3000, 3);
        let cfg = EngineConfig::default().with_shards(4).with_threads(1);
        let mut eng = ShardedEngine::ksplay(2, 120, cfg);
        let rep = eng.run_trace(&trace);
        assert_eq!(rep.reshard, ReshardReport::default());
        assert_eq!(eng.map().version(), 0);
    }
}
