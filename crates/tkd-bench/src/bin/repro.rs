//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! Usage: repro [--exp LIST] [--scale quick|paper] [--seed N] [--out DIR]
//!              [--threads 1,2,4,8] [--bench-out FILE]
//!
//!   --exp        comma-separated subset of:
//!                table2,fig10,table3,fig11,fig12,fig13,table4,
//!                fig14,fig15,fig16,fig17,fig18,binopt,ablation,baseline,
//!                perf
//!                (default: all paper artifacts; `perf` runs only when
//!                requested, and needs `--threads`)
//!   --scale      quick (default) or paper (the paper's dataset sizes)
//!   --seed       RNG seed (default 42)
//!   --out        also write each table as CSV into DIR
//!   --threads    with `--exp perf`: run the parallel-engine
//!                thread-scaling grid over the given thread counts; exits
//!                1 when a `threads: 1` row runs below 0.90x sequential
//!   --bench-out  where `--exp perf` writes its JSON (default:
//!                BENCH_3.json)
//! ```
//!
//! Engineering numbers (builds, queries, updates, snapshots, the service,
//! the kernels) come from the repository benchmark: `benchmark/`,
//! `BENCHMARK.json`.

use std::collections::BTreeSet;
use tkd_bench::{experiments as exp, perf, table::Table, Scale, KNOWN};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exps: Option<BTreeSet<String>> = None;
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut out_dir: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut threads: Option<Vec<usize>> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exp" => {
                i += 1;
                let list = match args.get(i) {
                    Some(l) => l,
                    None => usage("missing value for --exp"),
                };
                exps = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("paper") => Scale::Paper,
                    _ => usage("--scale must be quick or paper"),
                };
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => usage("--seed must be an integer"),
                };
            }
            "--out" => {
                i += 1;
                out_dir = match args.get(i) {
                    Some(d) => Some(d.clone()),
                    None => usage("missing value for --out"),
                };
            }
            "--bench-out" => {
                i += 1;
                bench_out = match args.get(i) {
                    Some(f) => Some(f.clone()),
                    None => usage("missing value for --bench-out"),
                };
            }
            "--threads" => {
                i += 1;
                let list = match args.get(i) {
                    Some(l) => l,
                    None => usage("missing value for --threads"),
                };
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                threads = match parsed {
                    Ok(v) if !v.is_empty() && v.iter().all(|&t| t >= 1) => Some(v),
                    _ => usage("--threads expects a comma-separated list of positive integers"),
                };
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }

    if let Some(set) = &exps {
        for name in set {
            if !KNOWN.contains(&name.as_str()) {
                usage(&format!("unknown experiment {name:?}"));
            }
        }
    }
    let wants_perf = exps.as_ref().is_some_and(|set| set.contains("perf"));
    if threads.is_some() && !wants_perf {
        usage("--threads requires --exp perf");
    }
    if wants_perf && threads.is_none() {
        usage(
            "--exp perf requires --threads (e.g. --threads 1,2,4); the sequential \
             build and query timings are cells of the repository benchmark \
             (benchmark/, workload warm-scoring)",
        );
    }
    let want = |name: &str| exps.as_ref().is_none_or(|set| set.contains(name));
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Paper => "paper",
    };
    println!("# TKD-on-incomplete-data reproduction — scale={scale_name}, seed={seed}\n");

    let mut all_tables: Vec<Table> = Vec::new();
    let mut emit = |tables: Vec<Table>| {
        for t in &tables {
            println!("{}", t.render());
        }
        all_tables.extend(tables);
    };

    if want("table2") {
        emit(vec![exp::table2()]);
    }
    if want("fig10") {
        emit(vec![exp::fig10(scale, seed)]);
    }
    if want("table3") {
        emit(vec![exp::table3(scale, seed)]);
    }
    if want("fig11") {
        emit(exp::fig11(scale, seed));
    }
    if want("fig12") {
        emit(exp::fig12(scale, seed));
    }
    if want("fig13") {
        emit(exp::fig13(scale, seed));
    }
    if want("table4") {
        emit(vec![exp::table4(scale, seed)]);
    }
    if want("fig14") {
        emit(exp::fig14(scale, seed));
    }
    if want("fig15") {
        emit(exp::fig15(scale, seed));
    }
    if want("fig16") {
        emit(exp::fig16(scale, seed));
    }
    if want("fig17") {
        emit(exp::fig17(scale, seed));
    }
    if want("fig18") {
        emit(exp::fig18(scale, seed));
    }
    if want("binopt") {
        emit(vec![exp::binopt()]);
    }
    if want("ablation") {
        emit(vec![exp::ablation_compression(scale, seed)]);
    }
    if want("baseline") {
        emit(vec![exp::ablation_baseline(scale, seed)]);
    }
    // The thread-scaling grid is opt-in: it measures this repository's
    // parallel engine, not a paper artifact, so `--exp` must name it.
    if let Some(ts) = &threads {
        let (table, json, below_floor) = perf::run_threads(scale, seed, ts);
        let bench_out = bench_out.as_deref().unwrap_or("BENCH_3.json");
        emit(vec![table]);
        std::fs::write(bench_out, json).expect("write perf JSON");
        println!("(perf baseline written to {bench_out})");
        // The one-thread gate: the artifact is written either way, so a
        // failing run can be inspected.
        if !below_floor.is_empty() {
            for row in &below_floor {
                eprintln!("error: one-thread engine slower than sequential: {row}");
            }
            std::process::exit(1);
        }
    }

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create output directory");
        for t in &all_tables {
            let slug: String = t
                .title
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
                .split('_')
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join("_");
            let path = format!("{dir}/{}.csv", &slug[..slug.len().min(80)]);
            std::fs::write(&path, t.to_csv()).expect("write CSV");
        }
        println!("({} CSV tables written to {dir})", all_tables.len());
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "Usage: repro [--exp LIST] [--scale quick|paper] [--seed N] [--out DIR] \
         [--threads 1,2,4,8] [--bench-out FILE]\n\
         experiments: {}\n\
         --exp perf --threads LIST runs the thread-scaling grid and its \
         one-thread gate (writes BENCH_3.json, or --bench-out FILE)\n\
         engineering numbers (builds, queries, updates, snapshots, the \
         service, kernels) are cells of the repository benchmark: \
         benchmark/, BENCHMARK.json",
        KNOWN.join(",")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
