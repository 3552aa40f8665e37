//! Exports the simulated evaluation traces as CSV (`# n=<n>` header then
//! `u,v` lines) so they can be inspected or replayed by other tools.
//!
//! Usage: `export_traces [out_dir]` (default `results/traces`); respects
//! `KSAN_REQUESTS` / `KSAN_FACEBOOK_N` / `KSAN_SEED`.

#![forbid(unsafe_code)]

use kst_sim::experiments::{workload, Scale, WORKLOADS};
use kst_workloads::stats;

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/traces".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let mut scale = Scale::from_env();
    // exports default to a manageable size
    scale.requests = kst_bench::env_usize("KSAN_REQUESTS", 100_000);
    for name in WORKLOADS {
        let trace = workload(name, &scale);
        let st = stats::stats(&trace);
        let path = format!("{out_dir}/{name}.csv");
        std::fs::write(&path, trace.to_csv()).expect("write trace");
        println!(
            "{path}: n={} m={} repeat-rate={:.3} src-entropy={:.2} distinct-pairs={}",
            st.n, st.m, st.repeat_rate, st.src_entropy, st.distinct_pairs
        );
    }
}
