//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! Usage: repro [--exp LIST] [--scale quick|paper] [--seed N] [--out DIR]
//!
//!   --exp        comma-separated subset of:
//!                table2,fig10,table3,fig11,fig12,fig13,table4,
//!                fig14,fig15,fig16,fig17,fig18,binopt,ablation,baseline
//!                (default: all of them)
//!   --scale      quick (default) or paper (the paper's dataset sizes)
//!   --seed       RNG seed (default 42)
//!   --out        also write each table as CSV into DIR
//! ```
//!
//! Engineering numbers (builds, queries, thread scaling, updates,
//! snapshots, the service, the kernels) come from the repository
//! benchmark: `benchmark/`, `BENCHMARK.json`.

use std::collections::BTreeSet;
use tkd_bench::{experiments as exp, table::Table, Scale, KNOWN};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exps: Option<BTreeSet<String>> = None;
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut out_dir: Option<String> = None;

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
        "Usage: repro [--exp LIST] [--scale quick|paper] [--seed N] [--out DIR]\n\
         experiments: {}\n\
         engineering numbers (builds, queries, thread scaling, updates, \
         snapshots, the service, kernels) are cells of the repository \
         benchmark: benchmark/, BENCHMARK.json",
        KNOWN.join(",")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
