//! The wire-parity gate: every answer the TCP service produces must be
//! **bit-identical** — entries, scores, tie order — to the in-process
//! engines it wraps.
//!
//! Three layers of pinning, in increasing depth:
//! * static: wire queries against a freshly loaded snapshot vs a
//!   [`ParallelEngine`] built over the same dataset, across missing
//!   rates × {BIG, IBIG} × an edge-heavy k grid;
//! * batched: explicit `query_batch` frames vs per-query answers and vs
//!   `ParallelEngine::query_many` (the coalescing path the server uses);
//! * dynamic: interleaved wire update batches vs a local twin engine
//!   *and* the PR-4 rebuild oracle (a from-scratch [`TkdQuery`] over the
//!   mirror's live rows) — the same discipline as
//!   `tests/dynamic_parity.rs`, now crossing a socket.
//!
//! The serve-path edge matrix rides along: empty `query_batch` frames
//! and `k = 0` queries must produce well-formed empty responses over the
//! wire, extending the `edge_matrix` coverage to the network layer.

mod common;

use common::{apply_to_mirror, random_dataset, random_op, Mirror, Mix};
use std::time::Duration;
use tkdi::core::dynamic::{CompactionPolicy, DynamicOptions};
use tkdi::core::{apply_notification, BinChoice, ResultEntry, TkdQuery};
use tkdi::prelude::*;
use tkdi::serve::{Client, QuerySpec, ServeConfig, ServeError, Server, WireNotification};

const BINS: usize = 3;

fn engine_over(ds: Dataset) -> DynamicEngine {
    DynamicEngine::with_options(
        ds,
        DynamicOptions {
            bins: BinChoice::Fixed(BINS),
            policy: CompactionPolicy::default(),
        },
    )
}

fn start(ds: Dataset) -> (Server, Client) {
    let server = Server::start(engine_over(ds), "127.0.0.1:0", ServeConfig::default())
        .expect("server binds");
    let client = Client::connect_with(server.local_addr(), Duration::from_secs(30))
        .expect("client connects");
    (server, client)
}

fn wire_spec(k: usize, alg: Algorithm) -> QuerySpec {
    QuerySpec::new(k).algorithm(alg)
}

/// Wire entries as comparable pairs.
fn over_wire(client: &mut Client, k: usize, alg: Algorithm) -> Vec<(u32, usize)> {
    client
        .query(wire_spec(k, alg))
        .expect("query answers")
        .iter()
        .map(|e| (e.id as u32, e.score as usize))
        .collect()
}

/// In-process entries from a dynamic twin engine.
fn in_process(engine: &mut DynamicEngine, k: usize, alg: Algorithm) -> Vec<(u32, usize)> {
    engine
        .query(&EngineQuery::new(k).algorithm(alg))
        .expect("BIG/IBIG supported")
        .iter()
        .map(|e| (e.id, e.score))
        .collect()
}

/// Static wire parity: the served snapshot answers exactly like a
/// ParallelEngine built over the same dataset, for every grid cell.
#[test]
fn static_queries_match_parallel_engine() {
    for missing_pct in [10u64, 30, 60] {
        let mut rng = Mix(900 + missing_pct);
        let ds = random_dataset(&mut rng, 50, 3, missing_pct);
        let n = ds.len();
        let reference = ParallelEngine::builder(&ds)
            .threads(2)
            .bins(vec![BINS; ds.dims()])
            .build();
        let (server, mut client) = start(ds.clone());
        for alg in [Algorithm::Big, Algorithm::Ibig] {
            for k in [0usize, 1, 2, n - 1, n, n + 3] {
                let want: Vec<(u32, usize)> = reference
                    .query(&EngineQuery::new(k).algorithm(alg))
                    .iter()
                    .map(|e| (e.id, e.score))
                    .collect();
                assert_eq!(
                    over_wire(&mut client, k, alg),
                    want,
                    "missing={missing_pct} {alg:?} k={k}"
                );
            }
        }
        server.stop().expect("clean stop");
    }
}

/// Batched wire parity: one `query_batch` frame answers exactly like
/// the same queries sent individually, and like `query_many` in-process.
#[test]
fn query_batch_matches_individual_queries() {
    let mut rng = Mix(17);
    let ds = random_dataset(&mut rng, 60, 4, 30);
    let reference = ParallelEngine::builder(&ds)
        .threads(2)
        .bins(vec![BINS; ds.dims()])
        .build();
    let (server, mut client) = start(ds.clone());
    let specs: Vec<QuerySpec> = (0..12)
        .map(|i| {
            wire_spec(
                (i * 5) % 17,
                if i % 2 == 0 {
                    Algorithm::Big
                } else {
                    Algorithm::Ibig
                },
            )
        })
        .collect();
    let batched = client.query_batch(&specs).expect("batch answers");
    assert_eq!(batched.len(), specs.len());
    let queries: Vec<EngineQuery> = specs
        .iter()
        .map(|s| EngineQuery::new(s.k as usize).algorithm(s.algorithm))
        .collect();
    let many = reference.query_many(&queries);
    for (i, spec) in specs.iter().enumerate() {
        let single = client.query(*spec).expect("single query");
        assert_eq!(batched[i], single, "batch[{i}] vs single");
        let want: Vec<(u64, u64)> = many[i]
            .iter()
            .map(|e| (u64::from(e.id), e.score as u64))
            .collect();
        let got: Vec<(u64, u64)> = batched[i].iter().map(|e| (e.id, e.score)).collect();
        assert_eq!(got, want, "batch[{i}] vs query_many");
    }
    server.stop().expect("clean stop");
}

/// Dynamic wire parity: interleave randomized update batches with
/// queries; the served answers stay pinned to a local twin engine fed
/// the identical ops AND to the rebuild-from-scratch oracle over the
/// mirror — across the full missing-rate grid.
#[test]
fn interleaved_updates_match_twin_and_rebuild_oracle() {
    for missing_pct in [10u64, 30, 60] {
        let dims = 3;
        let mut rng = Mix(3000 + missing_pct);
        let initial: Vec<Vec<Option<f64>>> = (0..15)
            .map(|_| common::row(&mut rng, dims, missing_pct))
            .collect();
        let ds = Dataset::from_rows(dims, &initial).expect("valid rows");
        let mut next_id = ds.len() as ObjectId;
        let mut mirror = Mirror::seeded(&initial);
        let mut twin = engine_over(ds.clone());
        let (server, mut client) = start(ds);
        for batch in 0..6 {
            let ops: Vec<UpdateOp> = (0..5)
                .map(|_| {
                    let op = random_op(&mut rng, &mirror, dims, missing_pct);
                    apply_to_mirror(&mut mirror, &op, &mut next_id);
                    op
                })
                .collect();
            let ack = client.update(&ops).expect("update batch applies");
            assert_eq!(ack.applied, ops.len() as u64);
            assert_eq!(ack.seq, batch + 1, "seq is the batch ordinal");
            assert_eq!(
                twin.apply_ops(&ops).error,
                None,
                "twin applies the same ops"
            );
            assert_eq!(ack.live, twin.len() as u64, "live count parity");
            // One inserted id per insert op, matching the mirror's
            // monotone allocation (ids next_id - inserts .. next_id).
            let inserts = ops
                .iter()
                .filter(|op| matches!(op, UpdateOp::Insert(_) | UpdateOp::InsertLabeled(_, _)))
                .count();
            let want_ids: Vec<u64> =
                (u64::from(next_id) - inserts as u64..u64::from(next_id)).collect();
            assert_eq!(ack.inserted_ids, want_ids, "inserted ids");
            let n = mirror.rows.len();
            let ids = mirror.ids();
            let snap = (n > 0).then(|| mirror.dataset());
            for alg in [Algorithm::Big, Algorithm::Ibig] {
                for k in [0usize, 1, n.saturating_sub(1), n, n + 2] {
                    let got = over_wire(&mut client, k, alg);
                    // Pin 1: the local twin engine fed identical ops.
                    assert_eq!(
                        got,
                        in_process(&mut twin, k, alg),
                        "twin missing={missing_pct} batch={batch} {alg:?} k={k}"
                    );
                    // Pin 2: the rebuild-from-scratch oracle (PR-4
                    // discipline) over the mirror's live rows.
                    let oracle: Vec<(u32, usize)> = match &snap {
                        None => Vec::new(),
                        Some(ds) => TkdQuery::new(k)
                            .algorithm(alg)
                            .run(ds)
                            .iter()
                            .map(|e| (ids[e.id as usize], e.score))
                            .collect(),
                    };
                    assert_eq!(
                        got, oracle,
                        "oracle missing={missing_pct} batch={batch} {alg:?} k={k}"
                    );
                }
            }
        }
        server.stop().expect("clean stop");
    }
}

/// Serve-path edge matrix: k = 0, empty batches, and k ≫ n must come
/// back as well-formed (empty or saturated) responses over the wire.
#[test]
fn edge_cases_over_the_wire() {
    let mut rng = Mix(55);
    let ds = random_dataset(&mut rng, 20, 3, 30);
    let n = ds.len();
    let (server, mut client) = start(ds);
    // k = 0: a well-formed empty result, not an error.
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        assert_eq!(over_wire(&mut client, 0, alg), Vec::new(), "{alg:?} k=0");
    }
    // Empty query_batch: a well-formed empty batch response.
    assert_eq!(
        client.query_batch(&[]).expect("empty batch answers"),
        Vec::<Vec<tkdi::serve::WireEntry>>::new()
    );
    // Batch of only k=0 queries: the right shape, every member empty.
    let zeros = vec![wire_spec(0, Algorithm::Big); 3];
    let got = client.query_batch(&zeros).expect("k=0 batch answers");
    assert_eq!(got, vec![Vec::new(); 3]);
    // k ≫ n saturates at n entries.
    assert_eq!(over_wire(&mut client, n + 100, Algorithm::Big).len(), n);
    // Empty update batch: acked with nothing applied and no seq advance.
    let ack = client.update(&[]).expect("empty update acked");
    assert_eq!((ack.applied, ack.seq), (0, 0));
    server.stop().expect("clean stop");
}

/// A `query_batch` whose answer could not fit one frame — here the
/// default `max_frame` over a 200-row dataset, with `k = usize::MAX` on
/// every spec — is refused with a typed rejection before any walk runs,
/// and the connection goes on serving.
#[test]
fn an_oversized_batch_is_rejected_and_the_connection_serves_on() {
    let mut rng = Mix(56);
    let ds = random_dataset(&mut rng, 200, 3, 30);
    let n = ds.len() as u64;
    let mut twin = engine_over(ds.clone());
    let (server, mut client) = start(ds);
    // Each spec's answer may hold n entries of 16 bytes: enough specs
    // to outgrow the frame, in a request of about 9 bytes per spec.
    let (max_frame, per_spec) = (ServeConfig::default().max_frame, 4 + 16 * n);
    let specs = vec![QuerySpec::new(usize::MAX); (max_frame / per_spec + 1) as usize];
    match client.query_batch(&specs) {
        Err(ServeError::Rejected { message, .. }) => {
            assert!(message.contains("frame"), "{message}")
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    // The same connection answers the next request, as the twin does.
    for alg in [Algorithm::Big, Algorithm::Ibig] {
        assert_eq!(
            over_wire(&mut client, 7, alg),
            in_process(&mut twin, 7, alg),
            "{alg:?}"
        );
    }
    // A batch just inside the bound is answered whole.
    let fits = vec![QuerySpec::new(usize::MAX); (max_frame / per_spec - 1) as usize];
    let got = client
        .query_batch(&fits)
        .expect("a batch that fits answers");
    assert_eq!(got.len(), fits.len());
    assert!(got.iter().all(|r| r.len() as u64 == n));
    server.stop().expect("clean stop");
}

/// Reinterpret a pushed wire notification as the core type so the view
/// can be folded with the same [`apply_notification`] the engine-side
/// parity harness pins.
fn note_to_core(n: &WireNotification) -> Notification {
    let entries = |es: &[tkdi::serve::WireEntry]| -> Vec<ResultEntry> {
        es.iter()
            .map(|e| ResultEntry {
                id: e.id as u32,
                score: e.score as usize,
            })
            .collect()
    };
    Notification {
        id: n.id,
        batch_seq: n.batch_seq,
        added: entries(&n.added),
        removed: n.removed.iter().map(|&id| id as u32).collect(),
        rescored: entries(&n.rescored),
        kth_score: n.kth_score.map(|s| s as usize),
        via_fallback: n.via_fallback,
    }
}

/// Read exactly `n` pushed notifications, failing loudly on a stall.
fn collect_notes(client: &mut Client, n: usize) -> Vec<WireNotification> {
    let mut notes = Vec::new();
    while notes.len() < n {
        match client
            .next_notification(Duration::from_secs(10))
            .expect("notification stream stays healthy")
        {
            Some(note) => notes.push(note),
            None => panic!("timed out at notification {}/{n}", notes.len()),
        }
    }
    notes
}

fn as_pairs(entries: &[ResultEntry]) -> Vec<(u64, u64)> {
    entries
        .iter()
        .map(|e| (u64::from(e.id), e.score as u64))
        .collect()
}

/// Standing wire parity: every pushed notification is field-identical to
/// the one a local twin engine (fed the same ops) produces, and folding
/// the pushes over the subscribe ack reproduces the twin's standing
/// result — across the missing-rate grid.
#[test]
fn standing_subscriptions_match_twin_engine() {
    for missing_pct in [10u64, 30, 60] {
        let dims = 3;
        let mut rng = Mix(7000 + missing_pct);
        let initial: Vec<Vec<Option<f64>>> = (0..14)
            .map(|_| common::row(&mut rng, dims, missing_pct))
            .collect();
        let ds = Dataset::from_rows(dims, &initial).expect("valid rows");
        let mut next_id = ds.len() as ObjectId;
        let mut mirror = Mirror::seeded(&initial);
        let mut twin = engine_over(ds.clone());
        let (server, mut client) = start(ds);
        let specs = [
            StandingSpec::new(3),
            StandingSpec::new(2).algorithm(Algorithm::Ibig),
            StandingSpec::new(5).subspace(vec![0, 2]),
            StandingSpec::new(4),
        ];
        // (wire id, twin id, running view folded from pushes).
        let mut subs: Vec<(u64, u64, Vec<ResultEntry>)> = Vec::new();
        for spec in &specs {
            let ack = client.subscribe(spec).expect("subscribe acked");
            let twin_id = twin.register(spec.clone()).expect("twin registers");
            let twin_initial = twin.standing_result(twin_id).expect("twin tracks");
            assert_eq!(
                ack.result
                    .iter()
                    .map(|e| (e.id, e.score))
                    .collect::<Vec<_>>(),
                as_pairs(twin_initial),
                "missing={missing_pct} initial result in the ack"
            );
            subs.push((ack.id, twin_id, twin_initial.to_vec()));
        }
        for batch in 0..6 {
            let ops: Vec<UpdateOp> = (0..5)
                .map(|_| {
                    let op = random_op(&mut rng, &mirror, dims, missing_pct);
                    apply_to_mirror(&mut mirror, &op, &mut next_id);
                    op
                })
                .collect();
            client.update(&ops).expect("update batch applies");
            let report = twin.apply_ops(&ops);
            assert!(report.error.is_none(), "twin applies the same ops");
            assert_eq!(report.notifications.len(), subs.len());
            let notes = collect_notes(&mut client, subs.len());
            for note in &notes {
                let (_, twin_id, view) = subs
                    .iter_mut()
                    .find(|(wire_id, _, _)| *wire_id == note.id)
                    .expect("push for a known subscription");
                let twin_note = report
                    .notifications
                    .iter()
                    .find(|n| n.id == *twin_id)
                    .expect("twin produced the same notification");
                let mut core = note_to_core(note);
                core.id = twin_note.id; // ids are per-engine; compare the payload
                assert_eq!(
                    &core, twin_note,
                    "missing={missing_pct} batch={batch} notification payload"
                );
                *view = apply_notification(view, &core);
                assert_eq!(
                    as_pairs(view),
                    as_pairs(twin.standing_result(*twin_id).expect("twin tracks")),
                    "missing={missing_pct} batch={batch} folded view"
                );
            }
        }
        // No stray pushes once every expected notification is consumed.
        assert_eq!(
            client
                .next_notification(Duration::from_millis(120))
                .expect("healthy stream"),
            None
        );
        server.stop().expect("clean stop");
    }
}

/// Pushed notifications must not wait for the idle-poll tick: once a
/// connection holds a subscription, the push sink's bell wakes the
/// connection thread, so delivery latency stays well under the 50ms
/// unsubscribed poll interval instead of averaging half of it.
#[test]
fn notifications_beat_the_poll_interval() {
    const POLL: Duration = Duration::from_millis(50);
    let dims = 3;
    let mut rng = Mix(61_000);
    let initial: Vec<Vec<Option<f64>>> = (0..12).map(|_| common::row(&mut rng, dims, 30)).collect();
    let ds = Dataset::from_rows(dims, &initial).expect("valid rows");
    let (server, mut client) = start(ds);
    client
        .subscribe(&StandingSpec::new(3))
        .expect("subscribe acked");
    let rounds = 6;
    let mut total = Duration::ZERO;
    for round in 0..rounds {
        let op = UpdateOp::Insert(common::row(&mut rng, dims, 30));
        client.update(&[op]).expect("insert applies");
        let sent = std::time::Instant::now();
        let note = client
            .next_notification(Duration::from_secs(5))
            .expect("healthy stream")
            .expect("one push per acked batch");
        let latency = sent.elapsed();
        assert_eq!(note.batch_seq, round + 1, "pushes arrive in batch order");
        assert!(
            latency < POLL,
            "round {round}: push took {latency:?}, the old poll-tick worst case"
        );
        total += latency;
    }
    let avg = total / rounds as u32;
    assert!(
        avg < Duration::from_millis(20),
        "average push latency {avg:?} should be far under the 50ms poll"
    );
    server.stop().expect("clean stop");
}

/// A subscription belongs to the connection that made it: ids are
/// sequential and echoed in every ack, so another connection guessing one
/// must not be able to end the owner's notification stream.
#[test]
fn standing_unsubscribe_is_scoped_to_the_owning_connection() {
    let dims = 3;
    let mut rng = Mix(62_000);
    let initial: Vec<Vec<Option<f64>>> = (0..12).map(|_| common::row(&mut rng, dims, 30)).collect();
    let ds = Dataset::from_rows(dims, &initial).expect("valid rows");
    let (server, mut a) = start(ds);
    let mut b = Client::connect_with(server.local_addr(), Duration::from_secs(30))
        .expect("second client connects");
    let ack = a.subscribe(&StandingSpec::new(3)).expect("subscribe acked");
    for round in 0..2 {
        let op = UpdateOp::Insert(common::row(&mut rng, dims, 30));
        b.update(&[op]).expect("insert applies");
        let note = a
            .next_notification(Duration::from_secs(5))
            .expect("healthy stream")
            .expect("one push per acked batch");
        assert_eq!((note.id, note.batch_seq), (ack.id, round + 1));
        if round == 0 {
            assert!(
                !b.unsubscribe(ack.id).expect("unsubscribe answers"),
                "another connection's id is not known to this one"
            );
        }
    }
    assert!(a.unsubscribe(ack.id).expect("unsubscribe answers"));
    assert!(!a.unsubscribe(ack.id).expect("unsubscribe answers"));
    server.stop().expect("clean stop");
}

/// Serve-path standing edge matrix: k = 0 subscriptions, duplicate
/// registrations, invalid specs, unsubscribe idempotence, and
/// subscribe-then-delete-everything all behave over the wire.
#[test]
fn standing_edge_matrix_over_the_wire() {
    let dims = 3;
    let mut rng = Mix(55_000);
    let initial: Vec<Vec<Option<f64>>> = (0..10).map(|_| common::row(&mut rng, dims, 30)).collect();
    let ds = Dataset::from_rows(dims, &initial).expect("valid rows");
    let n = ds.len();
    let (server, mut client) = start(ds);

    // k = 0: a valid standing query with an empty result, not an error.
    let zero = client
        .subscribe(&StandingSpec::new(0))
        .expect("k=0 subscribes");
    assert!(zero.result.is_empty(), "k=0 starts empty");

    // Duplicate registration of an identical spec: two independent
    // subscriptions with distinct ids and identical results.
    let a = client.subscribe(&StandingSpec::new(2)).expect("first sub");
    let b = client.subscribe(&StandingSpec::new(2)).expect("duplicate");
    assert_ne!(a.id, b.id, "duplicate registration gets its own id");
    assert_eq!(a.result, b.result, "identical specs agree");

    // Invalid spec: rejected with the typed error, connection unharmed.
    let err = client
        .subscribe(&StandingSpec::new(1).subspace(vec![dims + 5]))
        .expect_err("out-of-range subspace dim is rejected");
    assert!(
        matches!(err, ServeError::Rejected { .. }),
        "typed rejection, got {err:?}"
    );

    // One batch → exactly one notification per live subscription; the
    // k = 0 subscription's is empty with no k-th score.
    client
        .update(&[UpdateOp::Insert(common::row(&mut rng, dims, 30))])
        .expect("insert applies");
    let notes = collect_notes(&mut client, 3);
    let mut ids: Vec<u64> = notes.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    let mut want = vec![zero.id, a.id, b.id];
    want.sort_unstable();
    assert_eq!(ids, want, "one notification per subscription");
    let zn = notes.iter().find(|n| n.id == zero.id).expect("k=0 note");
    assert!(
        zn.added.is_empty() && zn.removed.is_empty() && zn.rescored.is_empty(),
        "k=0 delta stays empty"
    );
    assert_eq!(zn.kth_score, None, "k=0 has no k-th score");

    // Unsubscribe mid-stream: idempotent, and the dropped subscription
    // stops being notified while the others continue.
    assert!(client.unsubscribe(b.id).expect("unsubscribe acked"));
    assert!(
        !client.unsubscribe(b.id).expect("second unsubscribe acked"),
        "double unsubscribe reports unknown, not an error"
    );
    assert!(
        !client.unsubscribe(999_999).expect("unknown id acked"),
        "never-registered id reports unknown"
    );
    client
        .update(&[UpdateOp::Insert(common::row(&mut rng, dims, 30))])
        .expect("insert applies");
    let notes = collect_notes(&mut client, 2);
    let mut ids: Vec<u64> = notes.iter().map(|n| n.id).collect();
    ids.sort_unstable();
    let mut want = vec![zero.id, a.id];
    want.sort_unstable();
    assert_eq!(ids, want, "unsubscribed query is not notified");

    // Subscribe-then-delete-everything: the standing result must drain
    // to empty with no k-th score. Live objects are the 10 seeded rows
    // plus the 2 inserts above (stable ids allocate densely from 0).
    let victims: Vec<UpdateOp> = (0..n as u32 + 2).map(UpdateOp::Delete).collect();
    client.update(&victims).expect("delete-everything applies");
    let note = collect_notes(&mut client, 2)
        .into_iter()
        .find(|note| note.id == a.id)
        .expect("survivor is notified");
    assert_eq!(note.kth_score, None, "no k-th score on an empty engine");
    assert!(note.added.is_empty(), "nothing can enter an empty engine");
    let live = client.stats().expect("stats").live;
    assert_eq!(live, 0, "everything deleted");
    // A fresh identical subscription on the empty engine starts empty —
    // the standing result drained to exactly that.
    let fresh = client
        .subscribe(&StandingSpec::new(2))
        .expect("subscribe on empty engine");
    assert!(fresh.result.is_empty(), "empty engine, empty standing set");
    server.stop().expect("clean stop");
}
