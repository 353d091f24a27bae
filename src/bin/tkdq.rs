//! `tkdq` — command-line top-k dominating queries on incomplete data.
//!
//! Run `tkdq help` for the full usage text. It is generated from the
//! command table in `tkdi::cli` — the same table the README's command
//! list is checked against — so this comment carries no copy of its own.
//! The TKDQL statement language (`tkdq query -e …`, `tkdq repl`) is
//! specified in `docs/TKDQL.md`.

use std::process::exit;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::variants;
use tkdi::data::synthetic::{generate, Distribution, SyntheticConfig};
use tkdi::model::{io, stats, Dataset, MAX_DIMS};
use tkdi::prelude::*;
use tkdi::skyline::incomplete;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage("missing command")
    };
    match cmd.as_str() {
        "info" => cmd_info(&args[1..]),
        "build" => cmd_build(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "update" => cmd_update(&args[1..]),
        "skyline" => cmd_skyline(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "cluster" => cmd_cluster(&args[1..]),
        "repl" => cmd_repl(&args[1..]),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown command {other:?}")),
    }
}

/// Minimal flag parser: positional file + `--flag value` pairs + bare flags.
struct Opts {
    file: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

const BARE_FLAGS: [&str; 3] = ["--labeled", "--stats", "--no-rewrite"];

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        file: None,
        flags: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "-e" {
            // Short alias for --expr (a TKDQL statement).
            i += 1;
            let Some(v) = args.get(i) else {
                usage("missing statement after -e");
            };
            opts.flags.push(("expr".to_string(), Some(v.clone())));
        } else if let Some(name) = a.strip_prefix("--") {
            if BARE_FLAGS.contains(&a.as_str()) {
                opts.flags.push((name.to_string(), None));
            } else {
                i += 1;
                let Some(v) = args.get(i) else {
                    usage(&format!("missing value for --{name}"));
                };
                opts.flags.push((name.to_string(), Some(v.clone())));
            }
        } else if opts.file.is_none() {
            opts.file = Some(a.clone());
        } else {
            usage(&format!("unexpected argument {a:?}"));
        }
        i += 1;
    }
    opts
}

impl Opts {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn load(&self) -> Dataset {
        let Some(file) = &self.file else {
            usage("missing input file")
        };
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("error: cannot read {file}: {e}");
            exit(1);
        });
        let parsed = if self.has("labeled") {
            io::parse_labeled(&text)
        } else {
            io::parse(&text)
        };
        parsed.unwrap_or_else(|e| {
            eprintln!("error: cannot parse {file}: {e}");
            exit(1);
        })
    }
}

fn display_name(ds: &Dataset, o: ObjectId) -> String {
    ds.label(o)
        .map(str::to_string)
        .unwrap_or_else(|| format!("#{o}"))
}

fn cmd_info(args: &[String]) {
    let opts = parse_opts(args);
    let ds = opts.load();
    println!("objects:       {}", ds.len());
    println!("dimensions:    {}", ds.dims());
    println!("missing rate:  {:.2}%", 100.0 * stats::missing_rate(&ds));
    println!("mask groups:   {}", stats::group_by_mask(&ds).len());
    for d in 0..ds.dims() {
        let vals = stats::distinct_values(&ds, d);
        let range = match (vals.first(), vals.last()) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            _ => "(never observed)".into(),
        };
        println!(
            "  dim {d}: cardinality {:<6} observed {:<6} range {range}",
            vals.len(),
            stats::observed_count(&ds, d),
        );
    }
}

/// The `--bins` flag (`auto` or a fixed count).
fn parse_bins(opts: &Opts) -> tkdi::core::BinChoice {
    match opts.get("bins") {
        None | Some("auto") => tkdi::core::BinChoice::Auto,
        Some(x) => tkdi::core::BinChoice::Fixed(
            x.parse()
                .unwrap_or_else(|_| usage("--bins must be an integer or 'auto'")),
        ),
    }
}

/// The `--compact-threshold` flag folded into the default policy.
fn parse_policy(opts: &Opts) -> CompactionPolicy {
    let mut policy = CompactionPolicy::default();
    if let Some(f) = opts.get("compact-threshold") {
        policy.max_tombstone_fraction = match f.parse() {
            Ok(v) if (0.0..=1.0).contains(&v) => v,
            _ => usage("--compact-threshold must be a fraction in [0,1]"),
        };
    }
    policy
}

/// The `--threads` flag (default 1).
fn parse_threads(opts: &Opts) -> usize {
    opts.get("threads")
        .map(|t| match t.parse() {
            Ok(v) if v >= 1 => v,
            _ => usage("--threads must be a positive integer"),
        })
        .unwrap_or(1)
}

/// Targeted rejection of flags that conflict with snapshot mode. Every
/// snapshot-serving command (`query --index`, `update --index`, `serve`)
/// enforces the identical set with identical messages, so a
/// build-time-fixed or raw-dataset-only flag errors out instead of being
/// silently ignored in one command and rejected in another.
fn reject_snapshot_conflicts(opts: &Opts) {
    if opts.get("subspace").is_some() {
        usage("--subspace projects the raw dataset; it is not available with a snapshot");
    }
    if opts.get("bins").is_some() {
        usage("--bins is fixed at build time; rebuild the snapshot to change it");
    }
    if opts.get("compact-threshold").is_some() {
        usage("--compact-threshold is fixed at build time; rebuild the snapshot to change it");
    }
}

/// Load the snapshot named by `--index`, or die with a clean error.
fn load_snapshot(path: &str) -> DynamicEngine {
    tkdi::store::load_engine(path).unwrap_or_else(|e| {
        eprintln!("error: cannot load snapshot {path}: {e}");
        exit(1);
    })
}

/// Print a ranked engine result (stable-id labels) plus optional stats.
fn print_engine_result(engine: &DynamicEngine, result: &TkdResult, stats: bool) {
    for (rank, e) in result.iter().enumerate() {
        let name = engine
            .label(e.id)
            .ok()
            .flatten()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .unwrap_or_else(|| format!("#{}", e.id));
        println!("{:>3}. {:<20} score {}", rank + 1, name, e.score);
    }
    if stats {
        let st = result.stats;
        eprintln!(
            "pruned: H1={} H2={} H3={}  scored={}",
            st.h1_pruned, st.h2_pruned, st.h3_pruned, st.scored
        );
    }
}

fn cmd_build(args: &[String]) {
    let opts = parse_opts(args);
    let out = opts
        .get("out")
        .unwrap_or_else(|| usage("build requires --out SNAP"))
        .to_string();
    let ds = opts.load();
    let (n, dims) = (ds.len(), ds.dims());
    let engine = DynamicEngine::with_options(
        ds,
        DynamicOptions {
            bins: parse_bins(&opts),
            policy: parse_policy(&opts),
        },
    );
    let bytes = tkdi::store::save_engine(&out, &engine).unwrap_or_else(|e| {
        eprintln!("error: cannot write snapshot: {e}");
        exit(1);
    });
    println!("snapshot written: {out} ({bytes} bytes, {n} objects × {dims} dims)");
}

fn cmd_query(args: &[String]) {
    let opts = parse_opts(args);
    if let Some(text) = opts.get("expr") {
        return cmd_query_expr(&opts, text);
    }
    let k: usize = opts
        .get("k")
        .unwrap_or_else(|| usage("query requires --k"))
        .parse()
        .unwrap_or_else(|_| usage("--k must be an integer"));
    if let Some(snap) = opts.get("index") {
        // Snapshot-served path: the engine artifacts come off disk; the
        // sequential/parallel scratch engines answer from them directly.
        if opts.file.is_some() {
            usage("--index replaces the dataset file; pass one or the other");
        }
        reject_snapshot_conflicts(&opts);
        let algorithm = match opts.get("algorithm").unwrap_or("big") {
            "big" => Algorithm::Big,
            "ibig" => Algorithm::Ibig,
            other => usage(&format!(
                "snapshots serve big | ibig, not {other:?} (query the dataset file instead)"
            )),
        };
        let mut engine = load_snapshot(snap);
        let result = engine
            .query_threads(
                &EngineQuery::new(k).algorithm(algorithm),
                parse_threads(&opts),
            )
            .expect("big/ibig checked above");
        print_engine_result(&engine, &result, opts.has("stats"));
        return;
    }
    let ds = opts.load();
    let algorithm = match opts.get("algorithm").unwrap_or("big") {
        "naive" => Algorithm::Naive,
        "esb" => Algorithm::Esb,
        "ubb" => Algorithm::Ubb,
        "big" => Algorithm::Big,
        "ibig" => Algorithm::Ibig,
        other => usage(&format!("unknown algorithm {other:?}")),
    };
    let mut query = TkdQuery::new(k)
        .algorithm(algorithm)
        .threads(parse_threads(&opts));
    if let Some(bins) = opts.get("bins") {
        if bins != "auto" {
            let x: usize = bins
                .parse()
                .unwrap_or_else(|_| usage("--bins must be an integer or 'auto'"));
            query = query.bins(tkdi::core::BinChoice::Fixed(x));
        }
    }
    let result = match opts.get("subspace") {
        None => query.run(&ds),
        Some(spec) => {
            let dims: Vec<usize> = spec
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| usage("--subspace expects dim indexes"))
                })
                .collect();
            variants::subspace_top_k(&ds, &dims, &query).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            })
        }
    };
    for (rank, e) in result.iter().enumerate() {
        println!(
            "{:>3}. {:<20} score {}",
            rank + 1,
            display_name(&ds, e.id),
            e.score
        );
    }
    if opts.has("stats") {
        let s = result.stats;
        eprintln!(
            "pruned: H1={} H2={} H3={}  scored={}",
            s.h1_pruned, s.h2_pruned, s.h3_pruned, s.scored
        );
    }
}

/// Print a TKDQL diagnostic with its caret snippet, without exiting
/// (the REPL keeps its session alive across bad statements).
fn report_ql(text: &str, e: &tkdi::ql::QlError) {
    eprintln!("error: {e}");
    if let Some(snippet) = e.snippet(text) {
        eprintln!("{snippet}");
    }
}

/// [`report_ql`], then exit — for the one-shot `query -e` path.
fn die_ql(text: &str, e: &tkdi::ql::QlError) -> ! {
    report_ql(text, e);
    exit(2);
}

/// Load a dataset file named by a `FROM` clause (or the positional
/// argument), without exiting on failure.
fn try_load_dataset(path: &str, labeled: bool) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = if labeled {
        io::parse_labeled(&text)
    } else {
        io::parse(&text)
    };
    parsed.map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Print a ranked dataset-backed result (original-dataset labels).
fn print_dataset_result(ds: &Dataset, result: &TkdResult, stats: bool) {
    for (rank, e) in result.iter().enumerate() {
        println!(
            "{:>3}. {:<20} score {}",
            rank + 1,
            display_name(ds, e.id),
            e.score
        );
    }
    if stats {
        let s = result.stats;
        eprintln!(
            "pruned: H1={} H2={} H3={}  scored={}",
            s.h1_pruned, s.h2_pruned, s.h3_pruned, s.scored
        );
    }
}

/// Bind, plan, and run an already-parsed statement against a dataset.
fn run_ql_on_dataset(
    stmt: &tkdi::ql::ast::Statement,
    ds: &Dataset,
    stats: bool,
) -> Result<(), tkdi::ql::QlError> {
    let plan = tkdi::ql::optimizer::plan(tkdi::ql::bind(stmt, ds.dims())?)?;
    match tkdi::ql::run_on_dataset(&plan, ds)? {
        tkdi::ql::Outcome::Rows(result) => print_dataset_result(ds, &result, stats),
        tkdi::ql::Outcome::Explain(rendered) => println!("{rendered}"),
        tkdi::ql::Outcome::Subscribed { .. } => unreachable!("rejected by run_on_dataset"),
    }
    Ok(())
}

/// Bind, plan, and run an already-parsed statement against a snapshot
/// engine. Plain `SUBSCRIBE` is rejected here: a subscription needs a
/// server to push deltas to, which a one-shot process cannot be.
fn run_ql_on_engine(
    stmt: &tkdi::ql::ast::Statement,
    engine: &mut DynamicEngine,
    stats: bool,
) -> Result<(), tkdi::ql::QlError> {
    if stmt.subscribe && !stmt.explain {
        return Err(tkdi::ql::QlError::exec(
            tkdi::ql::Span::eof(),
            "subscriptions need a live server; run `tkdq serve` and SUBSCRIBE over the wire",
        ));
    }
    let plan = tkdi::ql::optimizer::plan(tkdi::ql::bind(stmt, engine.dims())?)?;
    match tkdi::ql::run_on_engine(&plan, engine)? {
        tkdi::ql::Outcome::Rows(result) => print_engine_result(engine, &result, stats),
        tkdi::ql::Outcome::Explain(rendered) => println!("{rendered}"),
        tkdi::ql::Outcome::Subscribed { .. } => unreachable!("rejected above"),
    }
    Ok(())
}

/// `tkdq query -e "<tkdql>"` — one statement, then exit. The target is
/// the statement's `FROM` clause, the positional file, or `--index`.
fn cmd_query_expr(opts: &Opts, text: &str) {
    for flag in ["k", "algorithm", "subspace", "bins", "threads"] {
        if opts.get(flag).is_some() {
            usage(&format!(
                "--{flag} conflicts with -e; the TKDQL statement carries it \
                 (see docs/TKDQL.md)"
            ));
        }
    }
    let stmt = tkdi::ql::parse(text).unwrap_or_else(|e| die_ql(text, &e));
    let stats = opts.has("stats");
    if let Some(snap) = opts.get("index") {
        if opts.file.is_some() {
            usage("--index replaces the dataset file; pass one or the other");
        }
        if stmt.select().from.is_some() {
            usage("FROM names a dataset file; drop it when querying --index");
        }
        let mut engine = load_snapshot(snap);
        return run_ql_on_engine(&stmt, &mut engine, stats).unwrap_or_else(|e| die_ql(text, &e));
    }
    let ds = match (&stmt.select().from, &opts.file) {
        (Some((path, _)), None) => {
            try_load_dataset(path, opts.has("labeled")).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(1);
            })
        }
        (None, Some(_)) => opts.load(),
        (Some(_), Some(_)) => usage("pass the dataset either positionally or in FROM, not both"),
        (None, None) => {
            usage("the statement has no FROM clause; pass a dataset file or --index SNAP")
        }
    };
    run_ql_on_dataset(&stmt, &ds, stats).unwrap_or_else(|e| die_ql(text, &e));
}

/// `tkdq repl` — an interactive TKDQL shell. One statement per line;
/// diagnostics (with caret snippets) keep the session alive.
fn cmd_repl(args: &[String]) {
    use std::io::BufRead;
    let opts = parse_opts(args);
    let labeled = opts.has("labeled");
    enum Target {
        File(Dataset),
        Snapshot(Box<DynamicEngine>),
    }
    let mut target = match opts.get("index") {
        Some(snap) => {
            if opts.file.is_some() {
                usage("--index replaces the dataset file; pass one or the other");
            }
            Target::Snapshot(Box::new(load_snapshot(snap)))
        }
        None if opts.file.is_some() => Target::File(opts.load()),
        None => usage("repl needs a dataset file or --index SNAP"),
    };
    match &target {
        Target::File(ds) => eprintln!(
            "tkdql — {} objects × {} dims; one statement per line, \\q quits",
            ds.len(),
            ds.dims()
        ),
        Target::Snapshot(engine) => eprintln!(
            "tkdql — snapshot engine, {} live objects × {} dims; one statement per line, \\q quits",
            engine.len(),
            engine.dims()
        ),
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: stdin: {e}");
                break;
            }
        };
        let text = line.trim();
        if text.is_empty() || text.starts_with("--") {
            continue;
        }
        if matches!(text, "\\q" | "quit" | "exit") {
            break;
        }
        let stmt = match tkdi::ql::parse(text) {
            Ok(stmt) => stmt,
            Err(e) => {
                report_ql(text, &e);
                continue;
            }
        };
        let outcome = match &mut target {
            Target::Snapshot(engine) => {
                if let Some((_, span)) = &stmt.select().from {
                    report_ql(
                        text,
                        &tkdi::ql::QlError::exec(
                            *span,
                            "FROM names a dataset file; the snapshot engine is the target here",
                        ),
                    );
                    continue;
                }
                run_ql_on_engine(&stmt, engine, false)
            }
            Target::File(ds) => match &stmt.select().from {
                // A per-statement FROM queries that file without
                // replacing the session's dataset.
                Some((path, span)) => match try_load_dataset(path, labeled) {
                    Ok(other) => run_ql_on_dataset(&stmt, &other, false),
                    Err(e) => {
                        report_ql(text, &tkdi::ql::QlError::exec(*span, e));
                        continue;
                    }
                },
                None => run_ql_on_dataset(&stmt, ds, false),
            },
        };
        if let Err(e) = outcome {
            report_ql(text, &e);
        }
    }
}

/// Parse one ops-file cell: `-` = missing, else a non-NaN float.
fn parse_op_cell(cell: &str, line: usize) -> Option<f64> {
    if cell == "-" {
        return None;
    }
    match cell.parse::<f64>() {
        Ok(v) if !v.is_nan() => Some(v),
        _ => usage(&format!("ops line {line}: bad value {cell:?}")),
    }
}

/// Parse the update script (see the usage text for the line grammar)
/// into its ops and the script line of each.
fn parse_ops(text: &str, dims: usize, labeled: bool) -> (Vec<UpdateOp>, Vec<usize>) {
    let mut ops = Vec::new();
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .split(|c: char| c == ',' || c.is_whitespace())
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if cells.is_empty() {
            continue; // separators only — treat like a blank line
        }
        lines.push(line);
        let parse_id = |s: &str| -> ObjectId {
            s.parse()
                .unwrap_or_else(|_| usage(&format!("ops line {line}: bad object id {s:?}")))
        };
        match cells[0] {
            "insert" => {
                let (label, rest) = if labeled {
                    if cells.len() < 2 {
                        usage(&format!(
                            "ops line {line}: insert needs LABEL + {dims} cells"
                        ));
                    }
                    (Some(cells[1].to_string()), &cells[2..])
                } else {
                    (None, &cells[1..])
                };
                if rest.len() != dims {
                    usage(&format!(
                        "ops line {line}: insert expects {dims} cells, got {}",
                        rest.len()
                    ));
                }
                let row: Vec<Option<f64>> = rest.iter().map(|c| parse_op_cell(c, line)).collect();
                ops.push(match label {
                    Some(l) => UpdateOp::InsertLabeled(l, row),
                    None => UpdateOp::Insert(row),
                });
            }
            "delete" => {
                if cells.len() != 2 {
                    usage(&format!("ops line {line}: delete expects one id"));
                }
                ops.push(UpdateOp::Delete(parse_id(cells[1])));
            }
            "set" => {
                if cells.len() != 4 {
                    usage(&format!("ops line {line}: set expects ID DIM VALUE"));
                }
                let dim: usize = cells[2]
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("ops line {line}: bad dim {:?}", cells[2])));
                ops.push(UpdateOp::Set(
                    parse_id(cells[1]),
                    dim,
                    parse_op_cell(cells[3], line),
                ));
            }
            other => usage(&format!(
                "ops line {line}: unknown op {other:?} (insert/delete/set)"
            )),
        }
    }
    (ops, lines)
}

fn cmd_update(args: &[String]) {
    let opts = parse_opts(args);
    let k: usize = opts
        .get("k")
        .unwrap_or_else(|| usage("update requires --k"))
        .parse()
        .unwrap_or_else(|_| usage("--k must be an integer"));
    let algorithm = match opts.get("algorithm").unwrap_or("big") {
        "big" => Algorithm::Big,
        "ibig" => Algorithm::Ibig,
        other => usage(&format!(
            "the dynamic engine serves big | ibig, not {other:?}"
        )),
    };
    let threads = parse_threads(&opts);
    let ops_file = opts
        .get("ops")
        .unwrap_or_else(|| usage("update requires --ops FILE"));
    let text = std::fs::read_to_string(ops_file).unwrap_or_else(|e| {
        eprintln!("error: cannot read {ops_file}: {e}");
        exit(1);
    });
    // Snapshot mode resumes the persisted engine (ids keep counting from
    // the previous process) and rewrites the snapshot after the batch;
    // file mode builds a fresh engine from the dataset.
    let (mut engine, snap_path) = match opts.get("index") {
        Some(snap) => {
            if opts.file.is_some() {
                usage("--index replaces the dataset file; pass one or the other");
            }
            reject_snapshot_conflicts(&opts);
            (load_snapshot(snap), Some(snap.to_string()))
        }
        None => (
            DynamicEngine::with_options(
                opts.load(),
                DynamicOptions {
                    bins: parse_bins(&opts),
                    policy: parse_policy(&opts),
                },
            ),
            None,
        ),
    };
    let (ops, lines) = parse_ops(&text, engine.dims(), opts.has("labeled"));
    if let Some((i, e)) = engine.apply_ops(&ops).error {
        eprintln!(
            "error: ops line {}: {e}; the batch applied nothing",
            lines[i]
        );
        exit(1);
    }
    let s = engine.stats();
    eprintln!(
        "applied {} ops (+{} / -{} / ~{}), {} live, {} tombstones, epoch {}",
        ops.len(),
        s.inserts,
        s.deletes,
        s.cell_updates,
        engine.len(),
        engine.tombstones(),
        engine.epoch()
    );
    if let Some(path) = snap_path {
        let bytes = tkdi::store::save_engine(&path, &engine).unwrap_or_else(|e| {
            eprintln!("error: cannot rewrite snapshot: {e}");
            exit(1);
        });
        eprintln!("snapshot rewritten: {path} ({bytes} bytes)");
    }
    let result = engine
        .query_threads(&EngineQuery::new(k).algorithm(algorithm), threads)
        .expect("big/ibig checked above");
    print_engine_result(&engine, &result, opts.has("stats"));
}

fn cmd_skyline(args: &[String]) {
    let opts = parse_opts(args);
    let ds = opts.load();
    let band: usize = opts
        .get("band")
        .map(|b| {
            b.parse()
                .unwrap_or_else(|_| usage("--band must be an integer"))
        })
        .unwrap_or(1);
    let result = incomplete::k_skyband(&ds, band);
    println!("# {}-skyband: {} objects", band, result.len());
    for o in result {
        println!("{}", display_name(&ds, o));
    }
}

fn cmd_generate(args: &[String]) {
    let opts = parse_opts(args);
    let get_num = |name: &str, default: usize| -> usize {
        opts.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| usage(&format!("--{name} must be an integer")))
            })
            .unwrap_or(default)
    };
    let dims = get_num("dims", 5);
    if !(1..=MAX_DIMS).contains(&dims) {
        usage(&format!("--dims must lie in 1..={MAX_DIMS}"));
    }
    let cardinality = get_num("cardinality", 100);
    if cardinality == 0 {
        usage("--cardinality must be at least 1");
    }
    // `contains` is false for NaN, so a non-finite rate is rejected too.
    let missing_rate = match opts.get("missing").map(str::parse::<f64>) {
        None => 0.1,
        Some(Ok(rate)) if (0.0..1.0).contains(&rate) => rate,
        Some(_) => usage("--missing must be a rate in [0,1)"),
    };
    let cfg = SyntheticConfig {
        n: get_num("n", 1000),
        dims,
        cardinality,
        missing_rate,
        distribution: match opts.get("dist").unwrap_or("ind") {
            "ind" => Distribution::Independent,
            "ac" => Distribution::AntiCorrelated,
            "co" => Distribution::Correlated,
            other => usage(&format!("unknown distribution {other:?}")),
        },
        seed: opts
            .get("seed")
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            })
            .unwrap_or(42),
    };
    print!("{}", io::to_text(&generate(&cfg)));
}

fn cmd_serve(args: &[String]) {
    let opts = parse_opts(args);
    if opts.file.is_some() {
        usage("serve runs from a snapshot; build one first and pass --index SNAP");
    }
    reject_snapshot_conflicts(&opts);
    let snap = opts
        .get("index")
        .unwrap_or_else(|| usage("serve requires --index SNAP"))
        .to_string();
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7171").to_string();
    let ms = |name: &str, default: u64| -> u64 {
        opts.get(name)
            .map(|v| match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => usage(&format!("--{name} must be a positive integer")),
            })
            .unwrap_or(default)
    };
    let count = |name: &str, default: usize| -> usize {
        opts.get(name)
            .map(|v| match v.parse() {
                Ok(n) if n >= 1 => n,
                _ => usage(&format!("--{name} must be a positive integer")),
            })
            .unwrap_or(default)
    };
    let load_started = std::time::Instant::now();
    let mut engine = load_snapshot(&snap);
    let load_time = load_started.elapsed();
    if let Some(w) = opts.get("window") {
        let cap = match w.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => usage("--window must be a positive object count"),
        };
        engine.set_window(Some(cap));
    }
    let config = tkdi::serve::ServeConfig {
        threads: parse_threads(&opts),
        max_queue: count("max-queue", 128),
        batch_max: count("batch-max", 32),
        request_timeout: std::time::Duration::from_millis(ms("request-timeout-ms", 10_000)),
        io_timeout: std::time::Duration::from_millis(ms("io-timeout-ms", 5_000)),
        snapshot: if opts.has("no-rewrite") {
            None
        } else {
            Some(snap.clone().into())
        },
        load_time: Some(load_time),
        initial_seq: opts
            .get("initial-seq")
            .map(|v| match v.parse() {
                Ok(n) => n,
                Err(_) => usage("--initial-seq must be a non-negative integer"),
            })
            .unwrap_or(0),
        ..Default::default()
    };
    let server = tkdi::serve::Server::start(engine, addr.as_str(), config).unwrap_or_else(|e| {
        eprintln!("error: cannot start server on {addr}: {e}");
        exit(1);
    });
    println!(
        "serving {snap} on {} (shutdown frame drains and stops)",
        server.local_addr()
    );
    // Block until a client sends the shutdown frame, then persist the
    // drained engine one last time.
    match server.join() {
        Ok(engine) => {
            if opts.has("no-rewrite") {
                let final_path = format!("{snap}.final");
                match tkdi::store::save_engine(&final_path, &engine) {
                    Ok(bytes) => println!("drained; final snapshot: {final_path} ({bytes} bytes)"),
                    Err(e) => {
                        eprintln!("error: drained but final snapshot failed: {e}");
                        exit(1);
                    }
                }
            } else {
                println!("drained; snapshot rewritten: {snap}");
            }
        }
        Err(e) => {
            eprintln!("error: server did not drain cleanly: {e}");
            exit(1);
        }
    }
}

fn cmd_cluster(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("worker") => cmd_cluster_worker(&args[1..]),
        Some("query") => cmd_cluster_query(&args[1..]),
        Some(other) => usage(&format!("unknown cluster subcommand {other:?}")),
        None => usage("cluster requires a subcommand: worker | query"),
    }
}

fn cmd_cluster_worker(args: &[String]) {
    let opts = parse_opts(args);
    if opts.file.is_some() {
        usage("cluster worker takes no dataset; shards arrive as assigned snapshots");
    }
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7271").to_string();
    let worker =
        tkdi::cluster::Worker::start(addr.as_str(), tkdi::cluster::WorkerConfig::default())
            .unwrap_or_else(|e| {
                eprintln!("error: cannot start worker on {addr}: {e}");
                exit(1);
            });
    println!("worker on {} (close stdin to stop)", worker.local_addr());
    // Block until the parent closes our stdin (or we are killed) — the
    // coordinator drives everything else over the cluster plane.
    let mut sink = Vec::new();
    let _ = std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink);
    worker.stop();
    println!("worker stopped");
}

fn cmd_cluster_query(args: &[String]) {
    let opts = parse_opts(args);
    let k: usize = opts
        .get("k")
        .unwrap_or_else(|| usage("cluster query requires --k"))
        .parse()
        .unwrap_or_else(|_| usage("--k must be an integer"));
    let algorithm = match opts.get("algorithm").unwrap_or("big") {
        "big" => Algorithm::Big,
        "ibig" => Algorithm::Ibig,
        other => usage(&format!("the cluster serves big | ibig, not {other:?}")),
    };
    let workers: Vec<std::net::SocketAddr> = opts
        .get("workers")
        .unwrap_or_else(|| usage("cluster query requires --workers ADDR[,ADDR…]"))
        .split(',')
        .map(|a| {
            a.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad worker address {a:?}")))
        })
        .collect();
    let shards: usize = opts
        .get("shards")
        .map(|v| match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => usage("--shards must be a positive integer"),
        })
        .unwrap_or_else(|| workers.len());
    let dir = opts.get("dir").map_or_else(
        || std::env::temp_dir().join(format!("tkdq-cluster-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let ds = opts.load();
    let mut coord = tkdi::cluster::Coordinator::seed(
        &ds,
        shards,
        &workers,
        tkdi::cluster::ClusterConfig::new(&dir),
    )
    .unwrap_or_else(|e| {
        eprintln!("error: cannot seed cluster: {e}");
        exit(1);
    });
    eprintln!(
        "seeded {} shards over {} workers; snapshots in {}",
        shards,
        workers.len(),
        dir.display()
    );
    if let Some(ops_file) = opts.get("ops") {
        let text = std::fs::read_to_string(ops_file).unwrap_or_else(|e| {
            eprintln!("error: cannot read {ops_file}: {e}");
            exit(1);
        });
        let (ops, _) = parse_ops(&text, ds.dims(), opts.has("labeled"));
        coord.update(&ops).unwrap_or_else(|e| {
            eprintln!("error: cluster update failed: {e}");
            exit(1);
        });
        eprintln!("applied {} ops; {} live", ops.len(), coord.len());
    }
    if let Some(spec) = opts.get("handoff") {
        let (s, w) = spec
            .split_once(':')
            .and_then(|(s, w)| Some((s.parse::<u64>().ok()?, w.parse::<usize>().ok()?)))
            .unwrap_or_else(|| usage("--handoff takes SHARD:WORKER (two indexes)"));
        coord.handoff(s, w).unwrap_or_else(|e| {
            eprintln!("error: handoff failed: {e}");
            exit(1);
        });
        eprintln!("shard {s} handed off to worker {w}");
    }
    let result = coord.query(k, algorithm).unwrap_or_else(|e| {
        eprintln!("error: cluster query failed: {e}");
        exit(1);
    });
    for (rank, e) in result.iter().enumerate() {
        let name = coord
            .label(e.id)
            .map_or_else(|| format!("#{}", e.id), str::to_string);
        println!("{:>3}. {:<20} score {}", rank + 1, name, e.score);
    }
    if opts.has("stats") {
        let st = result.stats;
        let cs = coord.stats;
        eprintln!(
            "pruned: H1={} H2={} H3={}  scored={}",
            st.h1_pruned, st.h2_pruned, st.h3_pruned, st.scored
        );
        eprintln!(
            "wire: frames={} tau_rounds={} candidates={} repairs={}",
            cs.frames, cs.tau_rounds, cs.candidates_shipped, cs.repairs
        );
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("{}", tkdi::cli::usage_text());
    exit(if err.is_empty() { 0 } else { 2 });
}
