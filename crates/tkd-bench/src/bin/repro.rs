//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! Usage: repro [--exp LIST] [--scale quick|paper] [--seed N] [--out DIR]
//!              [--bench-out FILE] [--threads 1,2,4,8]
//!              [--baseline FILE --current FILE [--tolerance R]]
//!
//!   --exp        comma-separated subset of:
//!                table2,fig10,table3,fig11,fig12,fig13,table4,
//!                fig14,fig15,fig16,fig17,fig18,binopt,ablation,baseline,
//!                perf,updates,persist,serve,load,compare
//!                (default: all paper artifacts; `perf`, `updates`,
//!                `persist`, `serve`, `load`, and `compare` run only
//!                when requested)
//!   --scale      quick (default) or paper (the paper's dataset sizes)
//!   --seed       RNG seed (default 42)
//!   --out        also write each table as CSV into DIR
//!   --threads    with `--exp perf`: run the parallel-engine
//!                thread-scaling grid over the given thread counts
//!   --bench-out  where `--exp perf` / `--exp updates` / `--exp persist`
//!                / `--exp serve` / `--exp load` writes its JSON
//!                (default: BENCH_2.json, BENCH_3.json with --threads,
//!                BENCH_4.json for updates, BENCH_5.json for persist,
//!                BENCH_6.json for serve, BENCH_7.json for load)
//!   --baseline   with `--exp compare`: the committed tkd-perf/v1 file
//!   --current    with `--exp compare`: the freshly measured snapshot
//!   --tolerance  with `--exp compare`: allowed normalized-time ratio
//!                before a cell counts as regressed (default 1.3);
//!                any regression exits non-zero
//! ```

use std::collections::BTreeSet;
use tkd_bench::{
    compare, experiments as exp, load, perf, persist, serve, table::Table, updates, Scale,
};

/// Every experiment name `--exp` accepts; the single source of truth for
/// validation and the usage text.
const KNOWN: [&str; 21] = [
    "table2", "fig10", "table3", "fig11", "fig12", "fig13", "table4", "fig14", "fig15", "fig16",
    "fig17", "fig18", "binopt", "ablation", "baseline", "perf", "updates", "persist", "serve",
    "load", "compare",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exps: Option<BTreeSet<String>> = None;
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut out_dir: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut tolerance = 1.3f64;

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
            "--baseline" => {
                i += 1;
                baseline = match args.get(i) {
                    Some(f) => Some(f.clone()),
                    None => usage("missing value for --baseline"),
                };
            }
            "--current" => {
                i += 1;
                current = match args.get(i) {
                    Some(f) => Some(f.clone()),
                    None => usage("missing value for --current"),
                };
            }
            "--tolerance" => {
                i += 1;
                tolerance = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) if v >= 1.0 => v,
                    _ => usage("--tolerance must be a ratio >= 1.0"),
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
    if threads.is_some() && !exps.as_ref().is_some_and(|set| set.contains("perf")) {
        usage("--threads requires --exp perf");
    }
    let want_compare = exps.as_ref().is_some_and(|set| set.contains("compare"));
    let wants = |name: &str| exps.as_ref().is_some_and(|set| set.contains(name));
    let bench_writers = ["perf", "updates", "persist", "serve", "load"]
        .iter()
        .filter(|e| wants(e))
        .count();
    if bench_out.is_some() && bench_writers > 1 {
        // Multiple experiments would write the same file, the later ones
        // silently clobbering the earlier.
        usage(
            "--bench-out is ambiguous across perf/updates/persist/serve/load; \
             run them separately",
        );
    }
    if (baseline.is_some() || current.is_some()) && !want_compare {
        usage("--baseline/--current require --exp compare");
    }
    if want_compare && (baseline.is_none() || current.is_none()) {
        usage("--exp compare requires --baseline FILE and --current FILE");
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
    // The perf baseline is opt-in: it is a repo artifact generator, not a
    // paper reproduction, so `--exp` must name it explicitly. With
    // `--threads` it runs the thread-scaling grid (BENCH_3.json) instead
    // of the sequential baseline grid (BENCH_2.json).
    if exps.as_ref().is_some_and(|set| set.contains("perf")) {
        let (table, json, default_out, below_floor) = match &threads {
            Some(ts) => {
                let (t, j, below_floor) = perf::run_threads(scale, seed, ts);
                (t, j, "BENCH_3.json", below_floor)
            }
            None => {
                let (t, j) = perf::run(scale, seed);
                (t, j, "BENCH_2.json", Vec::new())
            }
        };
        let bench_out = bench_out.as_deref().unwrap_or(default_out);
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
    // The dynamic-update maintenance benchmark (BENCH_4.json) — opt-in,
    // like perf.
    if exps.as_ref().is_some_and(|set| set.contains("updates")) {
        let (table, json) = updates::run(scale, seed);
        let bench_out = bench_out.as_deref().unwrap_or("BENCH_4.json");
        emit(vec![table]);
        std::fs::write(bench_out, json).expect("write updates JSON");
        println!("(update maintenance benchmark written to {bench_out})");
    }
    // The snapshot load-vs-rebuild benchmark (BENCH_5.json) — opt-in,
    // like perf and updates.
    if exps.as_ref().is_some_and(|set| set.contains("persist")) {
        let (table, json) = persist::run(scale, seed);
        let bench_out = bench_out.as_deref().unwrap_or("BENCH_5.json");
        emit(vec![table]);
        std::fs::write(bench_out, json).expect("write persist JSON");
        println!("(snapshot persistence benchmark written to {bench_out})");
    }
    // The TCP-service load benchmark (BENCH_6.json) — opt-in; starts a
    // real server on a loopback port and drives open-loop load.
    if exps.as_ref().is_some_and(|set| set.contains("serve")) {
        let (table, json) = serve::run(scale, seed);
        let bench_out = bench_out.as_deref().unwrap_or("BENCH_6.json");
        emit(vec![table]);
        std::fs::write(bench_out, json).expect("write serve JSON");
        println!("(serve load benchmark written to {bench_out})");
    }
    // The zero-copy snapshot-load + kernel benchmark (BENCH_7.json) —
    // opt-in, like the other artifact generators.
    if exps.as_ref().is_some_and(|set| set.contains("load")) {
        let (tables, json) = load::run(scale, seed);
        let bench_out = bench_out.as_deref().unwrap_or("BENCH_7.json");
        emit(tables);
        std::fs::write(bench_out, json).expect("write load JSON");
        println!("(zero-copy load benchmark written to {bench_out})");
    }
    // The perf regression gate — opt-in; a regression (or a vacuous
    // comparison) exits non-zero so CI fails.
    if want_compare {
        let (baseline, current) = (baseline.expect("checked"), current.expect("checked"));
        match compare::run(&baseline, &current, tolerance) {
            Ok((table, ok, warnings)) => {
                emit(vec![table]);
                for w in &warnings {
                    eprintln!("warning: {w}");
                }
                if !ok {
                    eprintln!(
                        "error: performance regression beyond {tolerance}x tolerance \
                         (see REGRESSED rows above)"
                    );
                    std::process::exit(1);
                }
                println!("(perf regression gate passed at tolerance {tolerance}x)");
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
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
         [--bench-out FILE] [--threads 1,2,4,8] \
         [--baseline FILE --current FILE [--tolerance R]]\n\
         experiments: {}\n\
         --threads runs the thread-scaling perf grid (requires --exp perf; \
         writes BENCH_3.json)\n\
         --exp updates measures incremental maintenance vs rebuild \
         (writes BENCH_4.json)\n\
         --exp persist measures snapshot load vs rebuild \
         (writes BENCH_5.json)\n\
         --exp serve drives open-loop load at a live TCP server \
         (writes BENCH_6.json)\n\
         --exp load measures zero-copy vs copying snapshot load and the \
         wide-lane popcount kernels (writes BENCH_7.json)\n\
         --exp compare gates normalized BIG/IBIG query times against a \
         committed tkd-perf/v1 baseline (exit 1 on regression)",
        KNOWN.join(",")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
