//! The lazy meta-algorithm (Section 1, after \[13\]): keep the topology
//! static, rebuild it from observed demand whenever accumulated routing
//! cost crosses a threshold α. Compares against the fully-reactive k-ary
//! SplayNet and the static full tree, reporting routing and *link-change*
//! costs separately so the trade-off is visible under any reconfiguration
//! price.

#![forbid(unsafe_code)]

use kst_bench::{env_usize, write_report};
use kst_core::{KSplayNet, LazyKaryNet};
use kst_sim::experiments::{
    centroid_rebuilder, incremental_weight_balanced_rebuilder, optimal_rebuilder,
    weight_balanced_rebuilder,
};
use kst_sim::run;
use kst_sim::table::Table;
use kst_statics::full_kary;
use kst_workloads::gens;

fn main() {
    let m = env_usize("KSAN_REQUESTS", 200_000);
    let n = 200;
    let k = 3;
    let mut tab = Table::new(&[
        "workload",
        "network",
        "avg routing",
        "links changed / req",
        "rebuilds",
        "patches / rebuild",
        "nodes / patch",
    ]);
    let rebuild_telemetry = |metrics: &kst_sim::Metrics, rebuilds: u64| {
        if rebuilds == 0 {
            ("-".to_string(), "-".to_string())
        } else {
            (
                format!("{:.2}", metrics.rebuild_patches as f64 / rebuilds as f64),
                format!("{:.1}", metrics.avg_patch_size()),
            )
        }
    };
    for (wname, trace) in [
        ("zipf 1.2", gens::zipf(n, m, 1.2, 21)),
        ("temporal 0.5", gens::temporal(n, m, 0.5, 22)),
        ("projector-like", gens::projector(n, m, 23)),
    ] {
        // fully reactive
        let mut splay = KSplayNet::balanced(k, n);
        let ms = run(&mut splay, &trace);
        tab.row(vec![
            wname.into(),
            format!("{k}-ary SplayNet (reactive)"),
            format!("{:.3}", ms.avg_routing()),
            format!("{:.3}", ms.links_changed as f64 / ms.requests as f64),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        // lazy with the optimal-DP rebuilder at several thresholds
        for alpha in [m as u64 / 2, m as u64 * 2, m as u64 * 8] {
            let mut lazy = LazyKaryNet::new(k, n, alpha, optimal_rebuilder(k));
            let ml = run(&mut lazy, &trace);
            let (ppr, npp) = rebuild_telemetry(&ml, lazy.rebuilds());
            tab.row(vec![
                wname.into(),
                format!("lazy optimal-DP (α={alpha})"),
                format!("{:.3}", ml.avg_routing()),
                format!("{:.3}", ml.links_changed as f64 / ml.requests as f64),
                lazy.rebuilds().to_string(),
                ppr,
                npp,
            ]);
        }
        // lazy with the scalable weight-balanced rebuilder (the policy
        // that remains affordable when n rules the O(n³k) DP out)
        for alpha in [m as u64 / 2, m as u64 * 2] {
            let mut lazy_wb = LazyKaryNet::new(k, n, alpha, weight_balanced_rebuilder(k));
            let mw = run(&mut lazy_wb, &trace);
            let (ppr, npp) = rebuild_telemetry(&mw, lazy_wb.rebuilds());
            tab.row(vec![
                wname.into(),
                format!("lazy weight-balanced (α={alpha})"),
                format!("{:.3}", mw.avg_routing()),
                format!("{:.3}", mw.links_changed as f64 / mw.requests as f64),
                lazy_wb.rebuilds().to_string(),
                ppr,
                npp,
            ]);
        }
        // lazy with the demand-oblivious centroid rebuilder
        let mut lazy_c = LazyKaryNet::new(k, n, m as u64 * 2, centroid_rebuilder(k));
        let mc = run(&mut lazy_c, &trace);
        let (ppr, npp) = rebuild_telemetry(&mc, lazy_c.rebuilds());
        tab.row(vec![
            wname.into(),
            "lazy centroid".into(),
            format!("{:.3}", mc.avg_routing()),
            format!("{:.3}", mc.links_changed as f64 / mc.requests as f64),
            lazy_c.rebuilds().to_string(),
            ppr,
            npp,
        ]);
        // static baseline
        let full = full_kary(n, k).cost_on_trace(&trace);
        tab.row(vec![
            wname.into(),
            format!("full {k}-ary tree (static)"),
            format!("{:.3}", full as f64 / m as f64),
            "0.000".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    // Non-stationary section: rotating hot sets (phase_shift), where the
    // EWMA half-life and the incremental planner earn their keep.
    let (ns_n, ns_m, period, alpha) = (1024usize, m.min(60_000), 500usize, 4_000u64);
    let ns_trace = gens::phase_shift(ns_n, ns_m, period, 5, 4, 0.9, 33);
    let mut ns_tab = Table::new(&[
        "network",
        "avg routing",
        "links changed / req",
        "total cost",
        "rebuilds",
        "patches / rebuild",
        "nodes / patch",
    ]);
    let mut ns_row = |label: String, metrics: &kst_sim::Metrics, rebuilds: u64| {
        let (ppr, npp) = rebuild_telemetry(metrics, rebuilds);
        ns_tab.row(vec![
            label,
            format!("{:.3}", metrics.avg_routing()),
            format!(
                "{:.3}",
                metrics.links_changed as f64 / metrics.requests as f64
            ),
            (metrics.routing + metrics.links_changed).to_string(),
            rebuilds.to_string(),
            ppr,
            npp,
        ]);
    };
    for hl in [0u32, 4, 8, 16] {
        let mut net =
            LazyKaryNet::new(2, ns_n, alpha, weight_balanced_rebuilder(2)).with_half_life(hl);
        let met = run(&mut net, &ns_trace);
        ns_row(
            format!("lazy weight-balanced, half-life {hl}"),
            &met,
            net.rebuilds(),
        );
    }
    let mut inc = LazyKaryNet::new(2, ns_n, alpha, incremental_weight_balanced_rebuilder(2, 32))
        .with_half_life(8);
    let met = run(&mut inc, &ns_trace);
    ns_row(
        "lazy incremental (τ=32), half-life 8".into(),
        &met,
        inc.rebuilds(),
    );

    let mut report = format!(
        "## Lazy meta-algorithm vs reactive vs static (k = {k}, n = {n}, m = {m})\n\n\
         The lazy nets rebuild the optimal static tree from the epoch's\n\
         demand whenever accumulated routing cost crosses α; smaller α means\n\
         fresher topologies (lower routing) at more link churn. The patch\n\
         telemetry shows how *local* each policy's rebuilds are: full-tree\n\
         policies re-form all n nodes in one patch per rebuild, the\n\
         incremental planner only the drifted subtrees.\n\n"
    );
    report.push_str(&tab.to_markdown());
    report.push_str(&format!(
        "\n## Non-stationary: rotating hot sets (phase_shift, n = {ns_n}, m = {ns_m}, \
         P = {period}, α = {alpha})\n\n\
         Per-epoch ledgers (half-life 0) re-optimize for the phase that just\n\
         ended — high routing right after every shift plus near-total link\n\
         churn per rebuild. The EWMA ledger converges on the union of the\n\
         rotating sets; the incremental planner additionally re-forms only\n\
         the subtrees whose demand drifted.\n\n"
    ));
    report.push_str(&ns_tab.to_markdown());
    println!("{report}");
    match write_report("lazy_meta.md", &report) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
