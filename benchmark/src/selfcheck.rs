//! `--selfcheck`: does the benchmark agree with itself? Every workload
//! runs twice on this build, each in its own process, and the run fails
//! if any end-to-end metric of the pair differs by more than the bound
//! `BENCHMARK.json` gives it. `--selfcheck --smoke` instead runs every
//! workload once untraced and once traced at the smoke size and checks
//! names, units, schema and answers only.

use crate::json::Json;
use crate::report::WORKLOADS;
use std::process::Command;
use std::time::Instant;

fn spec() -> Result<Json, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, unit, bound)` of every metric under `key` (`bound` is 0 for
/// per-layer metrics, which have none).
fn declared(spec: &Json, key: &str) -> Result<Vec<(String, String, f64)>, String> {
    let list = spec
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    Ok(list
        .iter()
        .map(|m| {
            let text = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            (text("name"), text("unit"), bound)
        })
        .collect())
}

/// Run one workload in a child process and parse its result line.
fn child(workload: &str, traced: bool, smoke: bool) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", "42"]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let start = Instant::now();
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let took = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}{last}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let result = Json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    Ok((result, took))
}

/// The result line has exactly the driver's keys, says the answers were
/// right, and carries exactly the declared metrics with their units.
fn check_schema(
    result: &Json,
    declared: &[(String, String, f64)],
    traced: bool,
) -> Result<(), String> {
    let keys: Vec<&str> = result.keys().collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("answers were wrong".into());
    }
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(-1.0);
    if attempted < 1.0 || failed != 0.0 {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let metrics = result.get("metrics").ok_or("no metrics")?;
    let names: Vec<&str> = metrics.keys().collect();
    let want: Vec<&str> = declared.iter().map(|d| d.0.as_str()).collect();
    if names != want {
        return Err(format!("metrics are {names:?}, declared are {want:?}"));
    }
    for (name, unit, _) in declared {
        let m = metrics.get(name).ok_or("metric vanished")?;
        let value = m.get("value").and_then(Json::as_f64);
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("{name} is not in {unit}"));
        }
        match value {
            Some(v) if v.is_finite() && (traced || v > 0.0) => {}
            other => return Err(format!("{name} reads {other:?}")),
        }
    }
    Ok(())
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

pub fn run(smoke: bool) -> Result<bool, String> {
    let spec = spec()?;
    let end_to_end = declared(&spec, "end_to_end")?;
    let per_layer = declared(&spec, "per_layer")?;
    let mut ok = true;
    if smoke {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let (result, took) = child(workload, traced, true)?;
                let list = if traced { &per_layer } else { &end_to_end };
                let verdict = check_schema(&result, list, traced);
                println!(
                    "{workload:<14} trace={} {took:>5.1} s  {}",
                    u8::from(traced),
                    verdict.as_ref().map_or_else(|e| e.as_str(), |()| "ok")
                );
                ok &= verdict.is_ok();
            }
        }
        return Ok(ok);
    }
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>8}",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for workload in WORKLOADS {
        let (a, _) = child(workload, false, false)?;
        let (b, _) = child(workload, false, false)?;
        for result in [&a, &b] {
            check_schema(result, &end_to_end, false).map_err(|e| format!("{workload}: {e}"))?;
        }
        for (name, _, bound) in &end_to_end {
            let (x, y) = (value(&a, name), value(&b, name));
            let diff = (x - y).abs() / x.min(y);
            let within = diff <= *bound;
            ok &= within;
            println!(
                "{workload:<14} {name:<24} {x:>14.4} {y:>14.4} {:>8.2} {:>8.1}{}",
                100.0 * diff,
                100.0 * bound,
                if within { "" } else { "  OVER" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    Ok(ok)
}
