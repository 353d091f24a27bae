//! The repository's benchmark: four workloads from a cold one-shot query
//! to a two-worker cluster, each reporting end-to-end metrics (untraced)
//! or per-layer metrics (traced) and checking every answer it gets.
//! `benchmark/README.md` says why each workload and metric exists.

mod gen;
mod host;
mod json;
mod layers;
mod report;
mod selfcheck;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use tkdi::bitvec::kernels;

const USAGE: &str = "\
usage: tkdi-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       tkdi-benchmark --selfcheck [--smoke]
workloads: oneshot-cold warm-scoring serve-rw cluster-2w
  --seed N      the traffic derives from N alone (default 42); the starting rows are fixed
  --seconds S   length of the measured phase (default: run_seconds of BENCHMARK.json)
  --trace 1     record spans, report per-layer metrics instead of end-to-end ones
  --smoke       tenth-size inputs and a 2 s phase: names, schema and answers only
  --selfcheck   run every workload twice and compare the pairs against the bounds";

/// `run_seconds` of `BENCHMARK.json`: the length the bounds were set at.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.selfcheck == args.workload.is_some() {
        return Err("give exactly one of --workload and --selfcheck".into());
    }
    if let Some(name) = args.workload.as_deref() {
        if !report::WORKLOADS.contains(&name) {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(args)
}

fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let tmp = host::TempDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    // The cap is the machine's; the pin comes after it and is inherited
    // by every thread the workload, the server and the workers start.
    let cap = host::parallelism_cap();
    let cpus = host::allowed_cpus();
    let pinned = host::pin_to(&cpus[..cpus.len().min(1)]);
    let ctx = workloads::RunCtx {
        seed: args.seed,
        seconds,
        traced: args.traced,
        smoke: args.smoke,
        tmp: tmp.path(),
        cap,
        cpus: &cpus,
    };
    println!(
        "workload={name} seed={} seconds={seconds} trace={} smoke={} parallelism_cap={cap} pinned_to_cpu={} kernels={}",
        args.seed,
        u8::from(args.traced),
        args.smoke,
        if pinned { cpus[0].to_string() } else { "none".into() },
        kernels::dispatch_name()
    );
    let mut outcome = workloads::run(name, &ctx);
    let spans = outcome.tracer.span_count();
    let probe_us = stats::median(outcome.tracer.speed_readings()) / 1e3;
    println!(
        "speed: probe took {probe_us:.1} us (median of {}), reference {:.1} us; times are scaled to the reference",
        outcome.tracer.speed_readings().len(),
        speed::REFERENCE_NS / 1e3
    );
    if args.traced {
        outcome.report.set("host.speed_probe_us", probe_us, 1);
        outcome
            .report
            .set("host.parallelism_cap", ctx.cap as f64, 1);
        outcome.report.set("trace_spans", spans as f64, 1);
        let path = host::out_dir().join(format!("{name}.trace.json"));
        outcome
            .tracer
            .write(&path, name, args.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {spans} spans in {}", path.display());
    }
    outcome.report.print_lines();
    let checker = &outcome.checker;
    if let Some(why) = &checker.first_failure {
        println!("FAILED: {why}");
    }
    let correct = checker.failed == 0;
    println!(
        "{}",
        outcome.report.json(
            args.traced,
            correct,
            checker.attempted.max(1),
            checker.failed
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_workload(&args, name),
        None => selfcheck::run(args.smoke),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
