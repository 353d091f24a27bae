//! Plan execution against concrete targets, plus EXPLAIN rendering.
//!
//! Two targets exist:
//!
//! * a [`Dataset`] — any algorithm, any scope; the executor derives the
//!   sub-dataset (`WHERE` admission, then `SUBSPACE` projection), runs
//!   the core query on it, and remaps ids back to the original, exactly
//!   the composition `tkd_core::variants` uses (the differential harness
//!   pins bit-identity);
//! * a [`DynamicEngine`] — BIG/IBIG only. A full-space statement ranks on
//!   the maintained indexes, its `WHERE` ranges as the scope mask of
//!   [`DynamicEngine::query_constrained`], so no row is copied; a
//!   `SUBSPACE` statement re-ranks a projection, derived from a snapshot
//!   with ids translated through the live-id table; and `SUBSCRIBE`
//!   registers a [`StandingSpec`].
//!
//! Cost-based algorithm selection ([`AlgoChoice::Auto`]) measures the
//! rows the statement ranks ([`PlanStats`]; on an engine, its live or
//! admitted slots in place) and calls [`resolve_algorithm`]; EXPLAIN
//! renders the same stats and decision, so the printed and executed
//! choices are one decision, not two. A statement with a fixed
//! algorithm and no EXPLAIN measures nothing.

use crate::error::{QlError, Span};
use crate::plan::{resolve_algorithm, AlgoChoice, AlgoDecision, Plan, PlanStats};
use tkd_core::{
    variants, Algorithm, BinChoice, DynamicEngine, EngineQuery, ResultEntry, StandingId,
    StandingSpec, TkdQuery, TkdResult,
};
use tkd_model::{Dataset, ObjectId};
use tkd_skyline::constrained::Constraints;

/// What executing a statement produced.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A one-shot result set (ids refer to the original target).
    Rows(TkdResult),
    /// The rendered plan (`EXPLAIN`).
    Explain(String),
    /// A registered standing query and its initial result.
    Subscribed {
        /// Engine-unique standing-query handle.
        id: StandingId,
        /// The result set at registration time.
        initial: Vec<ResultEntry>,
    },
}

/// Execute `plan` against a dataset.
///
/// # Errors
/// Execution-stage [`QlError`] — e.g. `SUBSCRIBE` (which needs a dynamic
/// engine) or an out-of-range subspace after the data changed.
pub fn run_on_dataset(plan: &Plan, ds: &Dataset) -> Result<Outcome, QlError> {
    check_dims(plan, ds.dims())?;
    if plan.subscribe && !plan.explain {
        return Err(QlError::exec(
            Span::eof(),
            "SUBSCRIBE needs a dynamic engine target (a loaded snapshot is read-only)",
        ));
    }
    let derived = derive(plan, ds)?;
    // An EXPLAIN SUBSCRIBE must show what registration would pick, and
    // standing queries are served by the bitmap engines only.
    let decision = decide(plan, Some(&derived.stats), plan.subscribe);
    if plan.explain {
        return Ok(Outcome::Explain(render_explain(
            plan,
            &format!("dataset (N={}, d={})", ds.len(), ds.dims()),
            &derived.stats,
            &decision,
        )));
    }
    Ok(Outcome::Rows(run_derived(
        plan,
        &derived,
        decision.algorithm,
    )))
}

/// Execute `plan` against a dynamic engine.
///
/// # Errors
/// Execution-stage [`QlError`] — e.g. a `USING` algorithm the engine
/// cannot serve, or a standing spec the engine rejects.
pub fn run_on_engine(plan: &Plan, engine: &mut DynamicEngine) -> Result<Outcome, QlError> {
    check_dims(plan, engine.dims())?;
    if let AlgoChoice::Fixed(a) = plan.algo {
        if !matches!(a, Algorithm::Big | Algorithm::Ibig) {
            return Err(QlError::exec(
                Span::eof(),
                format!("a dynamic engine serves BIG and IBIG, not {a:?}"),
            ));
        }
    }
    if plan.subscribe {
        return subscribe(plan, engine);
    }
    if plan.subspace.is_some() {
        // A projection changes dominance itself: derive it from a
        // snapshot of the live rows; snapshot id `i` is live_ids()[i].
        let snap = engine.snapshot();
        let live = engine.live_ids();
        let derived = derive(plan, &snap)?;
        let decision = decide(plan, Some(&derived.stats), true);
        if plan.explain {
            let target = engine_target(engine);
            let text = render_explain(plan, &target, &derived.stats, &decision);
            return Ok(Outcome::Explain(text));
        }
        let result = run_derived(plan, &derived, decision.algorithm);
        return Ok(Outcome::Rows(variants::remap(result, &live)));
    }
    // Full space: ranked on the maintained indexes, the WHERE ranges as
    // a scope mask. Only EXPLAIN and AUTO measure the rows, in place.
    let constraints = constraints(plan);
    let stats = (plan.explain || plan.algo == AlgoChoice::Auto)
        .then(|| engine_stats(engine, &constraints))
        .transpose()?;
    let decision = decide(plan, stats.as_ref(), true);
    if plan.explain {
        let stats = stats.as_ref().expect("EXPLAIN measures its rows");
        let target = engine_target(engine);
        return Ok(Outcome::Explain(render_explain(
            plan, &target, stats, &decision,
        )));
    }
    let q = EngineQuery::new(plan.k).algorithm(decision.algorithm);
    let result = if plan.ranges.is_empty() {
        engine.query_threads(&q, plan.threads)
    } else {
        engine.query_constrained(&q, &constraints)
    };
    result.map(Outcome::Rows).map_err(exec_error)
}

fn subscribe(plan: &Plan, engine: &mut DynamicEngine) -> Result<Outcome, QlError> {
    // Standing queries run BIG/IBIG; AUTO resolves on the live data.
    let live_stats = match plan.algo {
        AlgoChoice::Fixed(_) => None,
        AlgoChoice::Auto => Some(engine_stats(engine, &Constraints::none(plan.dims))?),
    };
    let decision = decide(plan, live_stats.as_ref(), true);
    let mut spec = StandingSpec::new(plan.k).algorithm(decision.algorithm);
    if let Some(dims) = &plan.subspace {
        spec = spec.subspace(dims.clone());
    }
    for r in &plan.ranges {
        spec = spec.constrain(r.dim, r.lo, r.hi);
    }
    if plan.explain {
        let stats = match plan.subspace {
            Some(_) => derive(plan, &engine.snapshot())?.stats,
            None => engine_stats(engine, &constraints(plan))?,
        };
        let target = engine_target(engine);
        return Ok(Outcome::Explain(render_explain(
            plan, &target, &stats, &decision,
        )));
    }
    if let Some(w) = plan.window {
        engine.set_window(Some(w));
    }
    let id = engine.register(spec).map_err(exec_error)?;
    let initial = engine
        .standing_result(id)
        .map(<[ResultEntry]>::to_vec)
        .unwrap_or_default();
    Ok(Outcome::Subscribed { id, initial })
}

/// The plan's `WHERE` ranges as constraints (empty intervals kept).
fn constraints(plan: &Plan) -> Constraints {
    let mut c = Constraints::none(plan.dims);
    for r in &plan.ranges {
        c = c.with_interval(r.dim, r.lo, r.hi);
    }
    c
}

/// The statistics of the live rows of `engine` that `constraints`
/// admits, measured where they lie.
fn engine_stats(engine: &DynamicEngine, constraints: &Constraints) -> Result<PlanStats, QlError> {
    let slots = engine.admitted_slots(constraints).map_err(exec_error)?;
    Ok(PlanStats::of_rows(engine.slot_rows(), slots.into_iter()))
}

fn engine_target(engine: &DynamicEngine) -> String {
    format!("engine (live N={}, d={})", engine.len(), engine.dims())
}

fn exec_error(e: impl ToString) -> QlError {
    QlError::exec(Span::eof(), e.to_string())
}

/// A plan's derived dataset plus the id mapping back to the target.
struct Derived {
    ds: Dataset,
    /// `derived id i` → original id; `None` = identity.
    mapping: Option<Vec<ObjectId>>,
    stats: PlanStats,
}

/// Apply `WHERE` admission and `SUBSPACE` projection, mirroring
/// `tkd_core::variants` (admit → select → project → compose mappings).
fn derive(plan: &Plan, ds: &Dataset) -> Result<Derived, QlError> {
    let mut current = ds.clone();
    let mut mapping: Option<Vec<ObjectId>> = None;
    if !plan.ranges.is_empty() {
        let admitted = constraints(plan).admitted(&current);
        current = current.select(&admitted);
        mapping = Some(admitted);
    }
    if let Some(dims) = &plan.subspace {
        let (projected, kept) = current.project(dims).map_err(exec_error)?;
        mapping = Some(match mapping {
            None => kept,
            Some(outer) => kept.into_iter().map(|i| outer[i as usize]).collect(),
        });
        current = projected;
    }
    let stats = PlanStats::of(&current);
    Ok(Derived {
        ds: current,
        mapping,
        stats,
    })
}

/// Run the core query on the derived dataset and remap ids.
fn run_derived(plan: &Plan, derived: &Derived, algorithm: Algorithm) -> TkdResult {
    if derived.ds.is_empty() {
        return TkdResult::default();
    }
    let mut q = TkdQuery::new(plan.k)
        .algorithm(algorithm)
        .threads(plan.threads);
    if let Some(x) = plan.bins {
        q = q.bins(BinChoice::Fixed(x));
    }
    let result = q.run(&derived.ds);
    match &derived.mapping {
        None => result,
        Some(map) => variants::remap(result, map),
    }
}

/// The algorithm `plan` runs with: its `USING` clause, or the cost model
/// on `stats`, which an `AUTO` plan always measures.
fn decide(plan: &Plan, stats: Option<&PlanStats>, engine_only: bool) -> AlgoDecision {
    match plan.algo {
        AlgoChoice::Fixed(a) => AlgoDecision {
            algorithm: a,
            rationale: "USING clause".into(),
        },
        AlgoChoice::Auto => {
            resolve_algorithm(stats.expect("an AUTO plan measures its rows"), engine_only)
        }
    }
}

fn check_dims(plan: &Plan, dims: usize) -> Result<(), QlError> {
    if plan.dims != dims {
        return Err(QlError::exec(
            Span::eof(),
            format!(
                "plan was bound against {} dimensions but the target has {dims}",
                plan.dims
            ),
        ));
    }
    Ok(())
}

/// Render the EXPLAIN text: bound plan, pushed-down region, the
/// statistics of the rows the statement ranks, and the algorithm decision
/// with its rationale.
fn render_explain(plan: &Plan, target: &str, s: &PlanStats, decision: &AlgoDecision) -> String {
    let mut out = String::new();
    let kind = if plan.subscribe {
        "standing query (SUBSCRIBE)"
    } else {
        "one-shot query"
    };
    out.push_str(&format!("TKDQL {kind}\n"));
    out.push_str(&format!("  target:    {target}\n"));
    out.push_str(&format!("  k:         {}\n", plan.k));
    match &plan.subspace {
        None => out.push_str("  subspace:  full space\n"),
        Some(dims) => out.push_str(&format!(
            "  subspace:  {}\n",
            dims.iter()
                .map(|d| format!("d{}", d + 1))
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
    if plan.ranges.is_empty() {
        out.push_str("  pushdown:  none\n");
    } else {
        for r in &plan.ranges {
            out.push_str(&format!("  pushdown:  {r}\n"));
        }
    }
    out.push_str(&format!(
        "  derived:   N={}, d={}, missing rate {:.3}\n",
        s.n, s.dims, s.sigma
    ));
    out.push_str(&format!("  algorithm: {:?}\n", decision.algorithm));
    out.push_str(&format!("  chosen by: {}\n", decision.rationale));
    if plan.threads != 1 {
        out.push_str(&format!("  threads:   {}\n", plan.threads));
    }
    if let Some(x) = plan.bins {
        out.push_str(&format!("  bins:      {x}\n"));
    }
    if let Some(w) = plan.window {
        out.push_str(&format!("  window:    {w}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use tkd_core::variants;
    use tkd_model::fixtures;

    fn run(text: &str, ds: &Dataset) -> Outcome {
        let plan = compile(text, ds.dims()).unwrap();
        run_on_dataset(&plan, ds).unwrap()
    }

    fn rows(o: Outcome) -> TkdResult {
        match o {
            Outcome::Rows(r) => r,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn plain_select_matches_hand_query() {
        let ds = fixtures::fig3_sample();
        let r = rows(run("SELECT TOP 2 DOMINATING USING BIG", &ds));
        let want = TkdQuery::new(2).algorithm(Algorithm::Big).run(&ds);
        assert_eq!(r.entries(), want.entries());
        // The paper's Fig. 3 answer for T2D: {A2, C2} with score 16.
        assert_eq!(r.scores(), vec![16, 16]);
    }

    #[test]
    fn where_matches_constrained_variant() {
        let ds = fixtures::fig3_sample();
        let r = rows(run(
            "SELECT TOP 4 DOMINATING WHERE d4 BETWEEN 1 AND 4 USING UBB",
            &ds,
        ));
        let c = Constraints::none(4).with_range(3, 1.0, 4.0);
        let want =
            variants::constrained_top_k(&ds, &c, &TkdQuery::new(4).algorithm(Algorithm::Ubb));
        assert_eq!(r.entries(), want.entries());
    }

    #[test]
    fn subspace_matches_subspace_variant() {
        let ds = fixtures::fig3_sample();
        let r = rows(run(
            "SELECT TOP 3 DOMINATING SUBSPACE (d2, d4) USING IBIG",
            &ds,
        ));
        let want =
            variants::subspace_top_k(&ds, &[1, 3], &TkdQuery::new(3).algorithm(Algorithm::Ibig))
                .unwrap();
        assert_eq!(r.entries(), want.entries());
    }

    #[test]
    fn strict_bound_excludes_the_boundary() {
        let ds = fixtures::fig2_points();
        // Fig. 2: f = (4, 2). `d1 > 4` must exclude f; `d1 >= 4` keeps it.
        let f = ds.id_by_label("f").unwrap();
        let strict = rows(run("SELECT TOP 6 DOMINATING WHERE d1 > 4 USING NAIVE", &ds));
        assert!(!strict.ids().contains(&f));
        let loose = rows(run(
            "SELECT TOP 6 DOMINATING WHERE d1 >= 4 USING NAIVE",
            &ds,
        ));
        assert!(loose.ids().contains(&f));
    }

    #[test]
    fn contradiction_admits_only_missing() {
        let ds = fixtures::fig2_points();
        // Only e = (-, 4) misses d1; every conjunct is vacuously true on it.
        let r = rows(run(
            "SELECT TOP 6 DOMINATING WHERE d1 > 5 AND d1 < 3 USING NAIVE",
            &ds,
        ));
        assert_eq!(r.ids(), vec![ds.id_by_label("e").unwrap()]);
    }

    #[test]
    fn explain_reports_the_algorithm_execution_uses() {
        let ds = fixtures::fig3_sample();
        let text = "SELECT TOP 2 DOMINATING WHERE d4 <= 6";
        let explain = match run(&format!("EXPLAIN {text}"), &ds) {
            Outcome::Explain(s) => s,
            other => panic!("expected explain, got {other:?}"),
        };
        // The same Auto decision must show up when the query runs: rerun
        // both paths and compare against each fixed algorithm.
        let auto = rows(run(text, &ds));
        let algo_line = explain
            .lines()
            .find(|l| l.trim_start().starts_with("algorithm:"))
            .unwrap();
        let named: Vec<(&str, Algorithm)> = vec![
            ("Naive", Algorithm::Naive),
            ("Esb", Algorithm::Esb),
            ("Ubb", Algorithm::Ubb),
            ("Big", Algorithm::Big),
            ("Ibig", Algorithm::Ibig),
        ];
        let (_, chosen) = named
            .into_iter()
            .find(|(n, _)| algo_line.contains(n))
            .expect("explain names an algorithm");
        let fixed = rows(run(&format!("{text} USING {chosen:?}"), &ds));
        assert_eq!(auto.entries(), fixed.entries());
    }

    #[test]
    fn subscribe_on_dataset_is_an_exec_error() {
        let ds = fixtures::fig3_sample();
        let plan = compile("SUBSCRIBE TO SELECT TOP 2 DOMINATING", ds.dims()).unwrap();
        let e = run_on_dataset(&plan, &ds).unwrap_err();
        assert!(e.message.contains("dynamic engine"), "{e}");
    }

    #[test]
    fn engine_roundtrip_and_subscribe() {
        let ds = fixtures::fig3_sample();
        let mut engine = DynamicEngine::new(ds.clone());
        let plan = compile("SELECT TOP 2 DOMINATING USING BIG", 4).unwrap();
        let r = match run_on_engine(&plan, &mut engine).unwrap() {
            Outcome::Rows(r) => r,
            other => panic!("{other:?}"),
        };
        let want = TkdQuery::new(2).algorithm(Algorithm::Big).run(&ds);
        assert_eq!(r.entries(), want.entries());

        let plan = compile("SUBSCRIBE TO SELECT TOP 2 DOMINATING USING BIG", 4).unwrap();
        match run_on_engine(&plan, &mut engine).unwrap() {
            Outcome::Subscribed { initial, .. } => {
                assert_eq!(
                    initial.iter().map(|e| e.score).collect::<Vec<_>>(),
                    vec![16, 16]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn engine_scoped_query_translates_ids() {
        let ds = fixtures::fig3_sample();
        let mut engine = DynamicEngine::new(ds.clone());
        let plan = compile("SELECT TOP 3 DOMINATING SUBSPACE (d2, d4) USING BIG", 4).unwrap();
        let r = match run_on_engine(&plan, &mut engine).unwrap() {
            Outcome::Rows(r) => r,
            other => panic!("{other:?}"),
        };
        let want =
            variants::subspace_top_k(&ds, &[1, 3], &TkdQuery::new(3).algorithm(Algorithm::Big))
                .unwrap();
        assert_eq!(r.entries(), want.entries());
    }

    #[test]
    fn engine_where_ranks_admitted_rows_in_place() {
        let ds = fixtures::fig3_sample();
        let mut engine = DynamicEngine::new(ds);
        engine.delete(4).unwrap();
        engine.delete(11).unwrap();
        let snap = engine.snapshot();
        let live = engine.live_ids();
        for text in [
            "SELECT TOP 3 DOMINATING WHERE d4 BETWEEN 1 AND 4 USING BIG",
            "SELECT TOP 3 DOMINATING WHERE d4 BETWEEN 1 AND 4 USING IBIG",
            "SELECT TOP 2 DOMINATING WHERE d1 > 5 AND d1 < 3 USING BIG",
            "SELECT TOP 5 DOMINATING WHERE d2 <= 3 AND d3 >= 2",
            "SELECT TOP 4 DOMINATING",
        ] {
            let plan = compile(text, 4).unwrap();
            let got = rows(run_on_engine(&plan, &mut engine).unwrap());
            let got: Vec<(ObjectId, usize)> = got.iter().map(|e| (e.id, e.score)).collect();
            let want = rows(run_on_dataset(&plan, &snap).unwrap());
            let want: Vec<(ObjectId, usize)> = want
                .iter()
                .map(|e| (live[e.id as usize], e.score))
                .collect();
            assert_eq!(got, want, "{text}");
            // EXPLAIN measures the admitted slots where they lie: the
            // numbers of the derived dataset, with no snapshot taken.
            let plan = compile(&format!("EXPLAIN {text}"), 4).unwrap();
            let derived_line = |o: Outcome| match o {
                Outcome::Explain(s) => s
                    .lines()
                    .find(|l| l.contains("derived:"))
                    .unwrap()
                    .to_owned(),
                other => panic!("expected explain, got {other:?}"),
            };
            assert_eq!(
                derived_line(run_on_engine(&plan, &mut engine).unwrap()),
                derived_line(run_on_dataset(&plan, &snap).unwrap()),
                "{text}"
            );
        }
    }

    #[test]
    fn engine_rejects_non_bitmap_algorithms() {
        let ds = fixtures::fig3_sample();
        let mut engine = DynamicEngine::new(ds);
        let plan = compile("SELECT TOP 1 DOMINATING USING NAIVE", 4).unwrap();
        let e = run_on_engine(&plan, &mut engine).unwrap_err();
        assert!(e.message.contains("BIG"), "{e}");
    }
}
