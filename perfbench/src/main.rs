//! `perfbench`: the ksan replay benchmark.
//!
//! Generates a workload's trace from a seed, writes it to CSV (untimed),
//! then either replays it end to end through freshly built
//! `ShardedEngine`s with tracing off (`--trace 0`), or runs the traced
//! per-layer replay (`--trace 1`). The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir> [--rev <id>]
//! perfbench rss --workload <name> --seed <n> --work <dir>
//! ```
//!
//! `rss` loads the CSV a `run` wrote, builds the engine and replays once,
//! then prints the process's peak resident set in MiB; `run --trace 0`
//! starts it as a child process so that figure covers the replay alone.
//! `perfbench/run.py` builds this binary and calls `run`.

mod clock;
mod e2e;
mod layers;
mod nets;
mod out;
mod workload;

use kst_core::KSplayNet;
use kst_workloads::Trace;
use nets::{BenchNet, LazyNet};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{NetKind, Workload};

fn main() -> ExitCode {
    match run_cli() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn parsed<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    let raw = flag(flags, name)?;
    raw.parse()
        .map_err(|_| format!("--{name}: cannot parse {raw:?}"))
}

fn csv_path(work: &Path, w: &Workload, seed: u64) -> PathBuf {
    work.join(format!("{}-{seed}.csv", w.name))
}

fn run_cli() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: perfbench run|rss --workload <name> --seed <n> ...")?;
    let flags = parse_flags(rest)?;
    let name = flag(&flags, "workload")?;
    let w = workload::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (known: {})",
            workload::NAMES.join(", ")
        )
    })?;
    let seed: u64 = parsed(&flags, "seed")?;
    let work = PathBuf::from(flag(&flags, "work")?);
    match cmd.as_str() {
        "run" => {
            let seconds: f64 = parsed(&flags, "seconds")?;
            let traced = match flag(&flags, "trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            };
            let rev = flags.get("rev").map_or("unknown", String::as_str);
            run(&w, seed, seconds, traced, &work, rev)
        }
        "rss" => {
            let mb = match w.net {
                NetKind::KSplay { .. } => replay_once::<KSplayNet>(&w, &csv_path(&work, &w, seed)),
                NetKind::Lazy { .. } => replay_once::<LazyNet>(&w, &csv_path(&work, &w, seed)),
            }?;
            println!("{mb}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (run, rss)")),
    }
}

fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    rev: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let trace = w.trace(seed);
    let csv = csv_path(work, w, seed);
    std::fs::write(&csv, trace.to_csv()).map_err(|e| format!("{}: {e}", csv.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={seed} n={} requests={} shards={} threads={} workers={} traced_threaded_workers={} nproc={nproc} rev={rev} trace={}",
        w.name,
        w.n,
        trace.len(),
        w.cfg.shards,
        w.cfg.threads,
        w.workers(),
        w.threaded,
        traced as u8
    );
    let result = if traced {
        layers::run(w, &trace, &csv, seconds)
    } else {
        let rss = peak_rss_child(w, seed, work)?;
        match w.net {
            NetKind::Lazy { .. } => e2e::run::<LazyNet>(w, &trace, &csv, seconds, rss),
            NetKind::KSplay { .. } => e2e::run::<KSplayNet>(w, &trace, &csv, seconds, rss),
        }
    };
    // The CSV is an input of this run only; do not let runs pile up.
    let _ = std::fs::remove_file(&csv);
    println!("{}", result.to_json());
    Ok(())
}

/// Peak resident set, in MiB, of a child process that loads the CSV,
/// builds the engine and replays it once.
fn peak_rss_child(w: &Workload, seed: u64, work: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let child = Command::new(exe)
        .args([
            "rss",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--work",
        ])
        .arg(work)
        .output()
        .map_err(|e| format!("cannot start the rss child: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    if !child.status.success() {
        return Err(format!(
            "rss child failed ({}): {}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    stdout
        .trim()
        .parse()
        .map_err(|_| format!("rss child printed {stdout:?}"))
}

fn replay_once<N: BenchNet>(w: &Workload, csv: &Path) -> Result<f64, String> {
    let trace = Trace::from_csv_path(csv)?;
    let mut engine = N::engine(w, w.cfg.clone());
    let report = engine.run_trace(&trace);
    std::hint::black_box(report);
    clock::peak_rss_mb()
}
