//! Regression tests for `tkdq`'s snapshot-mode flag conflicts: every
//! snapshot-serving command (`query --index`, `update --index`, `serve`)
//! must reject build-time-fixed flags (`--bins`, `--compact-threshold`)
//! and raw-dataset-only flags (`--subspace`) with the **same** targeted
//! message — previously only `query` rejected them and the others
//! silently ignored the flag, so e.g. `serve --index S --bins 4` looked
//! like it worked while serving the snapshot's baked-in binning.

use std::path::PathBuf;
use std::process::{Command, Output};
use tkdi::data::synthetic::{generate, Distribution, SyntheticConfig};
use tkdi::model::io;

fn tkdq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tkdq"))
        .args(args)
        .output()
        .expect("tkdq runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A tiny dataset file + built snapshot + valid ops script in a scratch
/// dir, shared by every conflict probe.
fn fixtures() -> (PathBuf, String, String, String) {
    let dir = std::env::temp_dir().join(format!("tkdq_cli_conflicts_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let data = dir.join("data.txt").to_string_lossy().into_owned();
    let snap = dir.join("index.snap").to_string_lossy().into_owned();
    let ops = dir.join("ops.txt").to_string_lossy().into_owned();
    let ds = generate(&SyntheticConfig {
        n: 20,
        dims: 3,
        cardinality: 10,
        missing_rate: 0.2,
        distribution: Distribution::Independent,
        seed: 7,
    });
    std::fs::write(&data, io::to_text(&ds)).expect("write dataset");
    std::fs::write(&ops, "set 0 0 1\n").expect("write ops");
    let built = tkdq(&["build", &data, "--out", &snap, "--bins", "3"]);
    assert!(built.status.success(), "build: {}", stderr_of(&built));
    (dir, data, snap, ops)
}

#[test]
fn snapshot_conflicts_are_rejected_uniformly() {
    let (dir, data, snap, ops) = fixtures();

    // Sanity: the snapshot itself serves queries and updates.
    let ok = tkdq(&["query", "--index", &snap, "--k", "3"]);
    assert!(ok.status.success(), "clean query: {}", stderr_of(&ok));

    // Each conflicting flag × each snapshot-mode command: exit code 2
    // and the one shared message for that flag.
    let probes: [(&str, &str, &str); 3] = [
        ("--bins", "4", "--bins is fixed at build time"),
        (
            "--compact-threshold",
            "0.5",
            "--compact-threshold is fixed at build time",
        ),
        ("--subspace", "0,1", "--subspace projects the raw dataset"),
    ];
    for (flag, value, message) in probes {
        let commands: [Vec<&str>; 3] = [
            vec!["query", "--index", &snap, "--k", "3", flag, value],
            vec![
                "update", "--index", &snap, "--ops", &ops, "--k", "3", flag, value,
            ],
            vec!["serve", "--index", &snap, flag, value],
        ];
        let mut messages = Vec::new();
        for argv in &commands {
            let out = tkdq(argv);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{argv:?} must reject {flag}, got: {}",
                stderr_of(&out)
            );
            let err = stderr_of(&out);
            assert!(
                err.contains(message),
                "{argv:?}: expected {message:?} in {err:?}"
            );
            // The targeted first line, identical across commands.
            messages.push(err.lines().next().unwrap_or_default().to_string());
        }
        assert!(
            messages.windows(2).all(|w| w[0] == w[1]),
            "{flag}: commands disagree on the message: {messages:?}"
        );
    }

    // The update path still works when the flags are dropped — the
    // rejection above fired before anything touched the snapshot.
    let ok = tkdq(&["update", "--index", &snap, "--ops", &ops, "--k", "3"]);
    assert!(ok.status.success(), "clean update: {}", stderr_of(&ok));

    // File mode keeps accepting the same flags (they are only conflicts
    // against a snapshot).
    let ok = tkdq(&[
        "query",
        &data,
        "--k",
        "3",
        "--bins",
        "4",
        "--subspace",
        "0,1",
    ]);
    assert!(ok.status.success(), "file-mode query: {}", stderr_of(&ok));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `generate` answers out-of-range flags like every other subcommand —
/// `error: …` naming the flag, usage, exit 2 — instead of tripping the
/// library generator's asserts (a backtrace and exit 101).
#[test]
fn generate_rejects_out_of_range_flags_without_panicking() {
    let probes: [(&str, &str); 6] = [
        ("--dims", "0"),
        ("--dims", "65"),
        ("--cardinality", "0"),
        ("--missing", "1.0"),
        ("--missing", "-0.5"),
        ("--missing", "nan"),
    ];
    for (flag, value) in probes {
        let out = tkdq(&["generate", flag, value]);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(
            err.starts_with("error:") && err.lines().next().is_some_and(|l| l.contains(flag)),
            "{flag} {value}: first line must name the flag, got {err:?}"
        );
        assert!(!err.contains("panicked"), "{flag} {value}: {err}");
        assert!(out.stdout.is_empty(), "{flag} {value}: printed rows");
    }

    // An empty dataset is a valid request.
    let out = tkdq(&["generate", "--n", "0"]);
    assert_eq!(out.status.code(), Some(0), "--n 0: {}", stderr_of(&out));
}

/// A bad op in an `update --index` script: the error names its script
/// line (comments count, as in every parse error), the batch applies
/// nothing, and the snapshot is not rewritten.
#[test]
fn rejected_update_names_the_line_and_keeps_the_snapshot() {
    let dir = std::env::temp_dir().join(format!("tkdq_cli_rejected_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let data = dir.join("data.txt").to_string_lossy().into_owned();
    let snap = dir.join("index.snap").to_string_lossy().into_owned();
    let ops = dir.join("ops.txt").to_string_lossy().into_owned();
    let ds = generate(&SyntheticConfig {
        n: 20,
        dims: 3,
        cardinality: 10,
        missing_rate: 0.2,
        distribution: Distribution::Independent,
        seed: 8,
    });
    std::fs::write(&data, io::to_text(&ds)).expect("write dataset");
    let built = tkdq(&["build", &data, "--out", &snap]);
    assert!(built.status.success(), "build: {}", stderr_of(&built));
    let before = std::fs::read(&snap).expect("snapshot");
    std::fs::write(
        &ops,
        "# one good op, then a bad delete\ninsert 1,2,3\ndelete 99\n",
    )
    .expect("write ops");

    let out = tkdq(&["update", "--index", &snap, "--ops", &ops, "--k", "3"]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("line 3") && err.contains("applied nothing"),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&snap).expect("snapshot"),
        before,
        "snapshot kept"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
