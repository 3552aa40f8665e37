//! The traced run (`--trace 1`): per-layer metrics from outside the
//! program.
//!
//! It replays the trace's shard operation streams on copies of a fresh
//! engine's shard nets, timing the calls into each layer's public
//! functions (`ShardMap` routing, the router spine, `distance_lca`, the
//! splay adjustment, lazy `serve`, the reshard ledger and splice), and
//! checks that the copies' costs add up exactly to the engine's own
//! report. It then times whole `run_trace` calls of variant engines (a
//! no-op network for handoff, other shard × thread layouts, observability
//! on) until the run's time is up.

use crate::clock::{deadline, median, ratio, timed, Clock};
use crate::nets::{BenchNet, LazyNet, NetAcc, Noop};
use crate::out::Outcome;
use crate::workload::{NetKind, Workload};
use kst_core::{KSplayNet, Network, NodeKey, Reshardable, ServeCost};
use kst_engine::{EngineReport, ObsMode, ShardMap, ShardedEngine};
use kst_sim::Metrics;
use kst_workloads::{DecayingDemand, Trace};
use std::path::Path;
use std::time::Instant;

/// Layer accounting of a traced replay.
#[derive(Default)]
struct Traced {
    /// `ShardMap` routing of every request into shard operations.
    route_ns: f64,
    /// Cross-shard requests, and the router's time and routing charge.
    cross: u64,
    spine_ns: f64,
    router_hops: u64,
    net: NetAcc,
    /// Resharding (boundary workload only).
    epochs: u64,
    epoch_ns: f64,
    ledger_ns: f64,
    ledger_pairs: u64,
    splice_ns: f64,
}

/// One shard operation: local endpoints and whether it is a gateway
/// half-serve of a cross-shard request.
type Op = (NodeKey, NodeKey, bool);

/// How the engine decomposes request `(u, v)` over `map`: one intra-shard
/// operation, or up to two gateway half-serves plus a router charge for
/// the returned shard pair. Mirrors the engine's own routing rule; the
/// cost check in [`run`] fails if the two ever disagree.
#[inline]
fn route(
    map: &ShardMap,
    u: NodeKey,
    v: NodeKey,
    mut emit: impl FnMut(usize, Op),
) -> Option<(usize, usize)> {
    let (su, sv) = (map.shard_of(u), map.shard_of(v));
    if su == sv {
        let r = map.range(su);
        emit(su, (r.to_local(u), r.to_local(v), false));
        return None;
    }
    let gu = map.gateway(su);
    if u != gu {
        let r = map.range(su);
        emit(su, (r.to_local(u), r.to_local(gu), true));
    }
    let gv = map.gateway(sv);
    if v != gv {
        let r = map.range(sv);
        emit(sv, (r.to_local(gv), r.to_local(v), true));
    }
    Some((su, sv))
}

/// The router's charge for one cross-shard request.
fn router(spine: Option<&mut KSplayNet>, hops: u64, su: usize, sv: usize) -> ServeCost {
    match spine {
        Some(spine) => spine.serve((su + 1) as NodeKey, (sv + 1) as NodeKey),
        None => ServeCost {
            routing: hops,
            ..ServeCost::default()
        },
    }
}

fn add(acc: &mut ServeCost, c: ServeCost) {
    acc.routing += c.routing;
    acc.rotations += c.rotations;
    acc.links_changed += c.links_changed;
    acc.rebuild_patches += c.rebuild_patches;
    acc.rebuild_nodes += c.rebuild_nodes;
}

/// Replays `reqs` on the replicas layer by layer — routing all requests,
/// then the router, then each shard's operation stream in trace order —
/// and returns the report the engine would produce for them.
fn replay_traced<N: BenchNet>(
    map: &ShardMap,
    mut spine: Option<&mut KSplayNet>,
    router_hops: u64,
    nets: &mut [N],
    reqs: &[(NodeKey, NodeKey)],
    tr: &mut Traced,
    clk: &mut Clock,
) -> EngineReport {
    let shards = map.shards();
    let mut ops: Vec<Vec<Op>> = (0..shards)
        .map(|_| Vec::with_capacity(2 * reqs.len() / shards + 16))
        .collect();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let ((), route_s) = timed(|| {
        for &(u, v) in reqs {
            if let Some(p) = route(map, u, v, |s, op| ops[s].push(op)) {
                pairs.push(p);
            }
        }
    });
    tr.route_ns += route_s * 1e9;

    let mut router_cost = ServeCost::default();
    let ((), spine_s) = timed(|| {
        for &(su, sv) in &pairs {
            add(
                &mut router_cost,
                router(spine.as_deref_mut(), router_hops, su, sv),
            );
        }
    });
    if spine.is_some() {
        tr.spine_ns += spine_s * 1e9;
    }
    tr.cross += pairs.len() as u64;
    tr.router_hops += router_cost.routing;

    let mut report = EngineReport::new(shards);
    let mut half = ServeCost::default();
    for (s, (net, stream)) in nets.iter_mut().zip(&ops).enumerate() {
        clk.lap();
        for &(a, b, is_half) in stream {
            let c = net.traced_serve(a, b, clk, &mut tr.net);
            if is_half {
                add(&mut half, c);
            } else {
                report.per_shard[s].absorb(c);
            }
        }
        tr.net.other_ns += clk.lap();
    }
    add(&mut half, router_cost);
    report.cross = Metrics {
        requests: pairs.len() as u64,
        routing: half.routing,
        rotations: half.rotations,
        links_changed: half.links_changed,
        rebuild_patches: half.rebuild_patches,
        rebuild_patched_nodes: half.rebuild_nodes,
    };
    report.router_hops = router_cost.routing;
    report
}

/// Serves `reqs` on the replicas the way the engine's sequential path
/// does, untraced, and returns the elapsed seconds.
fn replay_plain(
    map: &ShardMap,
    mut spine: Option<&mut KSplayNet>,
    router_hops: u64,
    nets: &mut [KSplayNet],
    reqs: &[(NodeKey, NodeKey)],
) -> f64 {
    let mut total = ServeCost::default();
    let ((), s) = timed(|| {
        for &(u, v) in reqs {
            if let Some((su, sv)) = route(map, u, v, |s, (a, b, _)| {
                add(&mut total, nets[s].serve(a, b))
            }) {
                add(
                    &mut total,
                    router(spine.as_deref_mut(), router_hops, su, sv),
                );
            }
        }
    });
    std::hint::black_box(total);
    s
}

/// The workload's layout variants whose whole `run_trace` the traced run
/// times, besides the workload itself.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
enum Variant {
    /// The workload's own configuration.
    Off,
    /// Same layout over no-op nets (resharding off): routing and
    /// dispatch only.
    Noop,
    /// The workload's threaded layout (`Workload::threaded` workers).
    Threaded,
    /// The threaded layout over no-op nets: routing, dispatch and batch
    /// handoff only.
    NoopThreaded,
    /// One shard, sequential (workloads with a threaded layout).
    OneShard,
    Det,
    Wall,
}

const VARIANTS: usize = Variant::Wall as usize + 1;

/// Threading layouts only exist where the workload names a threaded one.
/// Observability overhead is timed on the fast-path and the rebuild-heavy
/// workload; timing it on all four would cost every workload rounds.
fn variants(w: &Workload) -> Vec<Variant> {
    let mut v = vec![Variant::Off, Variant::Noop];
    if w.threaded > 1 {
        v.extend([Variant::Threaded, Variant::NoopThreaded, Variant::OneShard]);
    }
    if matches!(w.name, "hot_pairs" | "zipf_lazy") {
        v.extend([Variant::Det, Variant::Wall]);
    }
    v
}

/// Builds the variant's engine, times its `run_trace` and returns the
/// seconds, or `None` when its report fails the check against
/// `reference` (the workload's own report).
fn time_variant<N: BenchNet>(
    w: &Workload,
    v: Variant,
    trace: &Trace,
    reference: &EngineReport,
) -> Option<f64> {
    let cfg = w.cfg.clone();
    let (report, s) = match v {
        Variant::Noop | Variant::NoopThreaded => {
            let mut cfg = match v {
                Variant::NoopThreaded => cfg.with_threads(w.threaded),
                _ => cfg,
            };
            cfg.reshard.enabled = false;
            let mut e = ShardedEngine::new(w.n, cfg, |_, r| Noop(r.len()));
            timed(|| e.run_trace(trace))
        }
        _ => {
            let cfg = match v {
                Variant::Threaded => cfg.with_threads(w.threaded),
                Variant::OneShard => cfg.with_shards(1).with_threads(1),
                Variant::Det => cfg.with_obs(ObsMode::Deterministic),
                Variant::Wall => cfg.with_obs(ObsMode::WallClock),
                _ => cfg,
            };
            let mut e = N::engine(w, cfg);
            timed(|| e.run_trace(trace))
        }
    };
    let ok = match v {
        Variant::Noop | Variant::NoopThreaded | Variant::OneShard => {
            report.total().requests == trace.len() as u64
        }
        _ => report.total() == reference.total() && report.cross == reference.cross,
    };
    ok.then_some(s)
}

/// What one traced pass produced: the layer accounting, the report the
/// replicas add up to, and the engine's own report for the same trace.
struct Pass {
    tr: Traced,
    replica: EngineReport,
    engine: EngineReport,
}

/// One traced pass of a workload without resharding: replay the whole
/// trace on copies of a fresh engine's nets, then run the engine itself.
fn pass<N: BenchNet>(w: &Workload, trace: &Trace) -> Pass {
    let mut tr = Traced::default();
    let mut engine = N::engine(w, w.cfg.clone());
    let mut nets = N::replicas(w, &engine);
    let mut spine = engine.spine().cloned();
    let map = engine.map().clone();
    let mut clk = Clock::start();
    let replica = replay_traced(
        &map,
        spine.as_mut(),
        w.cfg.router_hops,
        &mut nets,
        trace.requests(),
        &mut tr,
        &mut clk,
    );
    drop(nets);
    let engine = engine.run_trace(trace);
    Pass {
        tr,
        replica,
        engine,
    }
}

/// One traced pass of the resharding workload: epoch by epoch, replay the
/// epoch on fresh copies of the engine's nets (traced, and once untraced),
/// then advance the engine by that epoch and replay the migration it
/// applied on the copies.
fn pass_reshard(w: &Workload, trace: &Trace) -> Pass {
    let mut tr = Traced::default();
    let mut engine = KSplayNet::engine(w, w.cfg.clone());
    let mut ledger = DecayingDemand::new(w.n, w.cfg.reshard.half_life);
    let mut replica = EngineReport::new(w.cfg.shards);
    let mut report = EngineReport::new(w.cfg.shards);
    let mut clk = Clock::start();
    let mut plain_s = 0.0;
    let mut engine_s = 0.0;
    for chunk in trace.requests().chunks(w.cfg.reshard.epoch.max(1)) {
        let map = engine.map().clone();
        let (mut nets, mut spine) = (engine.nets().to_vec(), engine.spine().cloned());
        let (mut plain, mut plain_spine) = (nets.clone(), spine.clone());
        plain_s += replay_plain(
            &map,
            plain_spine.as_mut(),
            w.cfg.router_hops,
            &mut plain,
            chunk,
        );
        drop(plain);
        let part = replay_traced(
            &map,
            spine.as_mut(),
            w.cfg.router_hops,
            &mut nets,
            chunk,
            &mut tr,
            &mut clk,
        );
        replica.merge(&part);

        let (pairs, ledger_s) = timed(|| {
            for &(u, v) in chunk {
                if map.shard_of(u) != map.shard_of(v) {
                    ledger.record(u, v);
                }
            }
            ledger.decay_merge();
            ledger.pairs_sorted().len()
        });
        tr.ledger_ns += ledger_s * 1e9;
        tr.ledger_pairs += pairs as u64;
        tr.epochs += 1;

        let sub = Trace::new(w.n, chunk.to_vec());
        let (part, s) = timed(|| engine.run_trace(&sub));
        engine_s += s;
        report.merge(&part);

        let moved = engine.map();
        if let Some(b) = (0..map.shards() - 1).find(|&b| map.range(b).hi != moved.range(b).hi) {
            let delta = moved.range(b).hi as i64 - map.range(b).hi as i64;
            let l = delta.unsigned_abs() as usize;
            let (links, splice_s) = timed(|| {
                let (left, right) = nets.split_at_mut(b + 1);
                let (frag, s1, receiver) = if delta > 0 {
                    let (frag, s1) = right[0].extract_low(l);
                    (frag, s1, &mut left[b])
                } else {
                    let (frag, s1) = left[b].extract_high(l);
                    (frag, s1, &mut right[0])
                };
                let s2 = if delta > 0 {
                    receiver.absorb_high(&frag)
                } else {
                    receiver.absorb_low(&frag)
                };
                s1.links_changed + s2.links_changed
            });
            tr.splice_ns += splice_s * 1e9;
            replica.reshard.migrations += 1;
            replica.reshard.keys_moved += l as u64;
            replica.reshard.links_changed += links;
        }
        replica.reshard.map_version = engine.map().version();
    }
    // What the engine spent beyond serving the epochs: ledger, plan,
    // splice and its per-request bookkeeping. `round_metrics` removes the
    // bookkeeping share, measured on the no-op engine.
    tr.epoch_ns = (engine_s - plain_s) * 1e9;
    Pass {
        tr,
        replica,
        engine: report,
    }
}

/// The traced run: rounds of one traced pass, one CSV ingest and one
/// `run_trace` per variant engine, until `seconds` have passed. Each
/// per-layer metric is the median over the rounds, and every round's
/// replica costs must equal its engine's report.
pub fn run(w: &Workload, trace: &Trace, csv: &Path, seconds: f64) -> Outcome {
    match w.net {
        NetKind::Lazy { .. } => rounds::<LazyNet>(w, trace, csv, seconds, pass::<LazyNet>),
        NetKind::KSplay { .. } if w.cfg.reshard.enabled => {
            rounds::<KSplayNet>(w, trace, csv, seconds, pass_reshard)
        }
        NetKind::KSplay { .. } => rounds::<KSplayNet>(w, trace, csv, seconds, pass::<KSplayNet>),
    }
}

type Metric = (&'static str, f64, &'static str);

fn rounds<N: BenchNet>(
    w: &Workload,
    trace: &Trace,
    csv: &Path,
    seconds: f64,
    pass: fn(&Workload, &Trace) -> Pass,
) -> Outcome {
    let end = deadline(seconds);
    let m = trace.len() as u64;
    let list = variants(w);
    let mut out = Outcome::default();
    let mut rows: Vec<Vec<Metric>> = Vec::new();
    while rows.is_empty() || Instant::now() < end {
        let p = pass(w, trace);
        out.attempted += m;
        if p.replica != p.engine {
            eprintln!("perfbench: replica costs differ from the engine report");
            out.failed += m;
        }
        let (loaded, ingest_s) = timed(|| Trace::from_csv_path(csv));
        out.attempted += 1;
        if !loaded.as_ref().is_ok_and(|t| t == trace) {
            out.failed += 1;
        }
        let mut times = [0.0; VARIANTS];
        for &v in &list {
            out.attempted += 1;
            match time_variant::<N>(w, v, trace, &p.engine) {
                Some(s) => times[v as usize] = s,
                None => out.failed += 1,
            }
        }
        rows.push(round_metrics(w, m as f64, &p, ingest_s, &times));
    }
    println!(
        "perfbench: traced run made {} rounds of a traced pass and {} variant engines",
        rows.len(),
        list.len()
    );
    for i in 0..rows[0].len() {
        let (name, _, unit) = rows[0][i];
        let mut xs: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
        out.put(name, median(&mut xs), unit);
    }
    out
}

/// Every per-layer metric of one round. `times[v]` is the round's
/// `run_trace` seconds of variant `v` (0 when the workload has none).
fn round_metrics(
    w: &Workload,
    m: f64,
    p: &Pass,
    ingest_s: f64,
    times: &[f64; VARIANTS],
) -> Vec<Metric> {
    let (tr, n) = (&p.tr, &p.tr.net);
    let t = |v: Variant| times[v as usize];
    let off = t(Variant::Off);
    let route_s = tr.route_ns / 1e9;
    let spine_s = tr.spine_ns / 1e9;
    // The no-op engines still route and serve the router spine.
    let dispatch_s = t(Variant::Noop) - route_s - spine_s;
    let handoff_s = if w.threaded > 1 {
        t(Variant::NoopThreaded) - route_s - spine_s
    } else {
        dispatch_s
    };
    let reshard_s = if tr.epochs > 0 {
        tr.epoch_ns / 1e9 - dispatch_s
    } else {
        0.0
    };
    let serve_s = n.serve_path_ns() / 1e9;
    let attributed = route_s + dispatch_s + spine_s + serve_s / w.workers() as f64 + reshard_s;
    let rebuilds = n.rebuild_ns.len() as f64;
    let rebuild_s = n.rebuild_ns.iter().fold(0.0, |a, b| a + b) / 1e9;
    let mut rebuild_ms: Vec<f64> = n.rebuild_ns.iter().map(|ns| ns / 1e6).collect();
    let rebuild_max = rebuild_ms.iter().copied().fold(0.0, f64::max);
    let (det, wall) = (t(Variant::Det), t(Variant::Wall));
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name, value, unit| out.push((name, value, unit));
    put("trace.ingest_s", ingest_s, "s");
    put("trace.ingest_ns_per_line", ingest_s * 1e9 / m, "ns");
    put("shard.route_s", route_s, "s");
    put("shard.route_ns_per_req", tr.route_ns / m, "ns");
    put("engine.handoff_s", handoff_s, "s");
    put(
        "engine.handoff_ns_per_op",
        ratio(handoff_s * 1e9, n.ops as f64),
        "ns",
    );
    put("engine.ops_per_req", n.ops as f64 / m, "ops");
    let threaded = t(Variant::Threaded);
    put("engine.threading_speedup", ratio(off, threaded), "x");
    put(
        "engine.speedup_vs_1x1",
        ratio(t(Variant::OneShard), threaded),
        "x",
    );
    put("engine.cross_frac", tr.cross as f64 / m, "frac");
    put(
        "net.fastpath_frac",
        ratio(n.fast_ops as f64, n.ops as f64),
        "frac",
    );
    put("net.other_s", n.other_ns / 1e9, "s");
    // On the lazy net the distance layer is timed by the read-only probe.
    let dist_ns = n.dist_ns + n.probe_ns;
    put("tree.distance_lca_s", dist_ns / 1e9, "s");
    put(
        "tree.distance_lca_ns_per_call",
        ratio(dist_ns, n.dist_calls as f64),
        "ns",
    );
    put(
        "tree.hops_per_call",
        ratio(n.dist_hops as f64, n.dist_calls as f64),
        "hops",
    );
    put(
        "tree.depth_armed_frac",
        ratio(n.dist_armed as f64, n.dist_calls as f64),
        "frac",
    );
    put("splay.adjust_s", n.adjust_ns / 1e9, "s");
    put(
        "splay.adjust_ns_per_call",
        ratio(n.adjust_ns, n.dist_calls as f64),
        "ns",
    );
    put(
        "splay.rotations_per_call",
        ratio(n.rotations as f64, n.dist_calls as f64),
        "rotations",
    );
    put("lazy.rebuild_s", rebuild_s, "s");
    put("lazy.rebuilds", rebuilds, "count");
    put("lazy.rebuild_ms_p50", median(&mut rebuild_ms), "ms");
    put("lazy.rebuild_ms_max", rebuild_max, "ms");
    put(
        "lazy.patched_nodes_per_rebuild",
        ratio(n.rebuild_nodes as f64, rebuilds),
        "nodes",
    );
    put(
        "lazy.serve_ns_per_call",
        ratio(n.serve_ns, n.serve_calls as f64),
        "ns",
    );
    put("spine.serve_s", spine_s, "s");
    put(
        "spine.hops_per_cross",
        ratio(tr.router_hops as f64, tr.cross as f64),
        "hops",
    );
    put("reshard.epoch_s", reshard_s, "s");
    put("reshard.ledger_s", tr.ledger_ns / 1e9, "s");
    put(
        "reshard.ledger_pairs",
        ratio(tr.ledger_pairs as f64, tr.epochs as f64),
        "pairs",
    );
    put("reshard.splice_s", tr.splice_ns / 1e9, "s");
    put(
        "reshard.migrations",
        p.engine.reshard.migrations as f64,
        "count",
    );
    put(
        "reshard.keys_moved",
        p.engine.reshard.keys_moved as f64,
        "count",
    );
    put("obs.det_overhead", ratio(det, off), "x");
    put("obs.wall_overhead", ratio(wall, off), "x");
    put("layers.run_trace_s", off, "s");
    put(
        "layers.unattributed_frac",
        1.0 - ratio(attributed, off),
        "frac",
    );
    out
}
