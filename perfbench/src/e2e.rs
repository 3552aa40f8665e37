//! The end-to-end run (`--trace 0`): repeatedly build a fresh engine,
//! load the CSV trace and replay it, with tracing off, checking every
//! replay's report against a sequential reference run.

use crate::clock::{deadline, median, ratio, timed};
use crate::nets::BenchNet;
use crate::out::Outcome;
use crate::workload::Workload;
use kst_engine::EngineReport;
use kst_workloads::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Timings of one replay: engine construction, CSV ingest, `run_trace`.
struct Rep {
    setup_s: f64,
    ingest_s: f64,
    serve_s: f64,
}

/// Requests of a replay that the report does not account for correctly:
/// none when it equals the reference, otherwise every request.
fn unaccounted(report: &EngineReport, reference: &EngineReport, m: u64) -> u64 {
    if report == reference && report.total().requests == m {
        0
    } else {
        m
    }
}

/// The workload's cost figures from a checked report.
fn put_costs(out: &mut Outcome, report: &EngineReport, m: usize) {
    let t = report.total();
    let m = m as f64;
    out.put("routing_per_req", t.routing as f64 / m, "hops");
    out.put(
        "unit_cost_per_req",
        (t.routing + t.rotations) as f64 / m,
        "unit",
    );
    out.put(
        "links_per_req",
        (t.links_changed + report.reshard.links_changed) as f64 / m,
        "links",
    );
    out.put("intra_frac", 1.0 - report.cross_fraction(), "frac");
}

/// Replays `trace` (already written to `csv`) until `seconds` have
/// passed and returns the end-to-end metrics. `peak_rss_mb` comes from a
/// separate process (see `main.rs`).
pub fn run<N: BenchNet>(
    w: &Workload,
    trace: &Trace,
    csv: &Path,
    seconds: f64,
    peak_rss_mb: f64,
) -> Outcome {
    let m = trace.len() as u64;
    let reference = N::engine(w, w.cfg.clone().with_threads(1)).run_trace_seq(trace);
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let end = deadline(seconds);
    while reps.is_empty() || Instant::now() < end {
        out.attempted += m;
        let rep = catch_unwind(AssertUnwindSafe(|| {
            let (mut engine, setup_s) = timed(|| N::engine(w, w.cfg.clone()));
            let (loaded, ingest_s) = timed(|| Trace::from_csv_path(csv));
            let loaded = loaded.expect("the trace CSV this run wrote must load");
            let (report, serve_s) = timed(|| engine.run_trace(&loaded));
            let bad = if loaded == *trace {
                unaccounted(&report, &reference, m)
            } else {
                m
            };
            (
                Rep {
                    setup_s,
                    ingest_s,
                    serve_s,
                },
                bad,
            )
        }));
        match rep {
            Ok((rep, 0)) => reps.push(rep),
            Ok((_, bad)) => out.failed += bad,
            Err(_) => out.failed += m,
        }
        if reps.is_empty() && Instant::now() >= end {
            break;
        }
    }
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut serve: Vec<f64> = reps.iter().map(|r| r.serve_s).collect();
    let mut replay: Vec<f64> = reps.iter().map(|r| r.ingest_s + r.serve_s).collect();
    let (serve_s, replay_s) = (median(&mut serve), median(&mut replay));
    // `median` sorted `serve`: print its spread next to the median.
    let quartile = |q: usize| {
        serve
            .get(q * serve.len().saturating_sub(1) / 4)
            .copied()
            .unwrap_or(0.0)
    };
    println!(
        "perfbench: {} replays of {m} requests; run_trace s min/q1/median/q3/max \
         {:.4}/{:.4}/{serve_s:.4}/{:.4}/{:.4}; median ingest + run_trace {replay_s:.4} s",
        reps.len(),
        quartile(0),
        quartile(1),
        quartile(3),
        quartile(4),
    );
    out.put("setup_s", median(&mut setup), "s");
    out.put("replay_rps", ratio(m as f64, replay_s), "1/s");
    out.put("serve_rps", ratio(m as f64, serve_s), "1/s");
    out.put("peak_rss_mb", peak_rss_mb, "MiB");
    put_costs(&mut out, &reference, trace.len());
    out
}
