//! Theorem 13 empirical check: k-ary SplayNet's total cost is
//! O(Σ_x a_x log(m/a_x) + b_x log(m/b_x)) — the sum of source and
//! destination entropies. We report cost / bound, which must stay bounded
//! by a constant across workloads and arities.

#![forbid(unsafe_code)]

use kst_bench::{env_usize, write_report};
use kst_core::KSplayNet;
use kst_sim::run;
use kst_sim::table::Table;
use kst_workloads::{entropy_bound_rhs, gens};

fn main() {
    let m = env_usize("KSAN_REQUESTS", 200_000);
    let mut tab = Table::new(&["workload", "k", "total cost", "entropy bound", "ratio"]);
    let workloads: Vec<(&str, kst_workloads::Trace)> = vec![
        ("zipf α=1.2 (n=512)", gens::zipf(512, m, 1.2, 1)),
        ("temporal 0.5 (n=512)", gens::temporal(512, m, 0.5, 2)),
        ("uniform (n=512)", gens::uniform(512, m, 3)),
        ("hpc-sim (n=512)", gens::hpc(512, m, 4)),
    ];
    let mut max_ratio: f64 = 0.0;
    for (name, trace) in &workloads {
        let bound = entropy_bound_rhs(trace);
        for k in [2usize, 3, 5, 10] {
            let mut net = KSplayNet::balanced(k, trace.n());
            let metrics = run(&mut net, trace);
            let cost = metrics.total_unit_cost();
            let ratio = cost as f64 / bound;
            max_ratio = max_ratio.max(ratio);
            tab.row(vec![
                name.to_string(),
                k.to_string(),
                cost.to_string(),
                format!("{bound:.0}"),
                format!("{ratio:.3}"),
            ]);
        }
    }
    let mut report = String::from(
        "## Theorem 13: entropy bound on k-ary SplayNet total cost\n\n\
         `ratio = (routing + rotations) / (Σ a_x log(m/a_x) + b_x log(m/b_x))` \
         must stay below a constant.\n\n",
    );
    report.push_str(&tab.to_markdown());
    report.push_str(&format!("\nMax ratio observed: {max_ratio:.3}\n"));
    println!("{report}");
    match write_report("entropy_check.md", &report) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
