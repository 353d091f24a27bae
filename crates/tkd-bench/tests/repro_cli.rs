//! The `repro` command line, driven as a built binary: which experiment
//! names and flags it accepts, what it answers for the ones it retired,
//! and that the usage text lists exactly [`tkd_bench::KNOWN`].

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn retired_experiments_are_unknown() {
    for name in [
        "updates", "persist", "serve", "load", "compare", "standing", "perf",
    ] {
        let out = repro(&["--exp", name]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "--exp {name}: {err}");
        assert!(err.contains("unknown experiment"), "--exp {name}: {err}");
    }
}

#[test]
fn compare_flags_are_unknown_arguments() {
    for flag in ["--baseline", "--threads", "--bench-out"] {
        let out = repro(&[flag, "x"]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(err.contains(&format!("unknown argument {flag}")), "{err}");
    }
}

#[test]
fn paper_artifacts_run_by_name() {
    let out = repro(&["--exp", "table2,binopt"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let printed = String::from_utf8_lossy(&out.stdout);
    for title in ["## Table 2", "optimal bin count"] {
        assert!(printed.contains(title), "missing {title:?} in {printed}");
    }
}

#[test]
fn usage_lists_exactly_the_known_experiments() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr_of(&out);
    let listed: Vec<&str> = err
        .lines()
        .find_map(|l| l.strip_prefix("experiments: "))
        .expect("usage has an experiments line")
        .split(',')
        .collect();
    assert_eq!(listed, tkd_bench::KNOWN);
}
