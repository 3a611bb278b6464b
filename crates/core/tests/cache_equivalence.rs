//! Plan-cache and materialized-view equivalence tests.
//!
//! The plan cache must be a pure performance change: a warm (cached)
//! execution must return bit-identical rows to the cold run that seeded
//! it, across worker counts. Materialized-view delta maintenance must be
//! bit-identical to recomputing the defining query from scratch — the
//! test data uses dyadic rationals so float aggregation is exact and
//! "bit-identical" is meaningful.

mod common;

use common::compare::{canon_rows, metric, sweep};
use common::corpus::{self, FACTS_FILTER, FACTS_JOIN_AGG, FACTS_LA};
use common::fixtures::Fixture;
use common::lattice::{self, cell};
use lardb::{Database, Response};

/// The fact and dimension tables on `workers` workers of the product as
/// shipped.
fn seeded(workers: usize) -> Database {
    Fixture::Facts.open(&lattice::shipped(workers))
}

/// Every axis alone — the 2- and 256-entry caches among them, each
/// statement repeated so the second run is the cached plan's.
#[test]
fn every_axis_alone_matches_the_oracle_on_facts() {
    sweep(Fixture::Facts, corpus::on(Fixture::Facts), &lattice::single_axis());
}

#[test]
fn cached_matches_cold_across_workers() {
    for workers in [1usize, 4] {
        let db = seeded(workers);
        for q in corpus::on(Fixture::Facts).iter().map(|s| s.sql) {
            let cold = db.query(q).unwrap();
            let misses = db.plan_cache_stats().misses;
            let warm = db.query(q).unwrap();
            let stats = db.plan_cache_stats();
            assert_eq!(canon_rows(&cold), canon_rows(&warm), "W={workers} query={q}");
            assert!(stats.hits >= 1, "second run should hit: {q}");
            assert_eq!(stats.misses, misses, "second run re-missed: {q}");
        }
    }
}

/// A warm repeat skips the front end: parse, bind and optimize are
/// elided, not merely fast, so their stage timings stay at exactly zero.
#[test]
fn warm_repeat_skips_the_front_end_exactly() {
    const FRONT_END: [&str; 3] = ["parse", "bind", "optimize"];
    // A scalar filter, a join + aggregate, and an LA expression.
    for workers in [1usize, 4] {
        let db = seeded(workers);
        for q in [FACTS_FILTER, FACTS_JOIN_AGG, FACTS_LA] {
            let cold = db.query(q).unwrap();
            let profile = db.last_profile().expect("statement just ran");
            for stage in FRONT_END {
                assert!(profile.stage_ms(stage).unwrap() > 0.0, "W={workers} cold {stage}: {q}");
            }
            for repeat in 1..=3 {
                let hits = db.plan_cache_stats().hits;
                let warm = db.query(q).unwrap();
                let profile = db.last_profile().expect("statement just ran");
                for stage in FRONT_END {
                    assert_eq!(
                        profile.stage_ms(stage),
                        Some(0.0),
                        "W={workers} repeat {repeat} ran {stage}: {q}"
                    );
                }
                assert!(profile.stage_ms("execute").unwrap() > 0.0, "W={workers}: {q}");
                assert_eq!(canon_rows(&cold), canon_rows(&warm), "W={workers} query={q}");
                assert_eq!(db.plan_cache_stats().hits, hits + 1, "W={workers} query={q}");
            }
        }
    }
}

#[test]
fn literal_variants_do_not_collide() {
    // Same shape, different literals: both hit the cold path once, and
    // neither is served the other's rows.
    let db = seeded(2);
    let one = db.query("SELECT id FROM facts WHERE id = 1").unwrap();
    let two = db.query("SELECT id FROM facts WHERE id = 2").unwrap();
    assert_eq!(one.rows.len(), 1);
    assert_eq!(two.rows.len(), 1);
    assert_eq!(one.rows[0].value(0).as_integer(), Some(1));
    assert_eq!(two.rows[0].value(0).as_integer(), Some(2));
    // And each variant is independently cached.
    let before = db.plan_cache_stats().hits;
    db.query("SELECT id FROM facts WHERE id = 1").unwrap();
    db.query("SELECT id FROM facts WHERE id = 2").unwrap();
    assert_eq!(db.plan_cache_stats().hits, before + 2);
}

#[test]
fn ddl_invalidates_cached_plans() {
    let db = seeded(2);
    let q = "SELECT g, COUNT(*) AS c FROM facts GROUP BY g";
    db.query(q).unwrap();
    db.query(q).unwrap();
    let warm = db.plan_cache_stats();
    assert!(warm.hits >= 1);
    // DDL bumps the catalog version: the old key is unreachable.
    db.execute("CREATE TABLE unrelated (x INTEGER)").unwrap();
    let misses = db.plan_cache_stats().misses;
    db.query(q).unwrap();
    let stats = db.plan_cache_stats();
    assert_eq!(stats.misses, misses + 1, "post-DDL run must re-plan");
    assert!(stats.invalidations >= 1);
}

#[test]
fn insert_into_unrelated_table_keeps_cached_plans() {
    let db = seeded(2);
    let q = "SELECT g, label FROM dims WHERE g >= 0";
    db.query(q).unwrap(); // seeds the cache with a plan over dims only
    // A write to facts must not invalidate plans that never read facts.
    db.execute("INSERT INTO facts VALUES (950, 3, 1.5)").unwrap();
    let before = db.plan_cache_stats();
    db.query(q).unwrap();
    let after = db.plan_cache_stats();
    assert_eq!(after.hits, before.hits + 1, "unrelated INSERT evicted a dims plan");
    assert_eq!(after.misses, before.misses);
    // A write to dims itself does invalidate, and the re-planned query
    // sees the new row.
    db.execute("INSERT INTO dims VALUES (9, 109)").unwrap();
    let r = db.query(q).unwrap();
    assert_eq!(db.plan_cache_stats().misses, after.misses + 1, "write to dims must re-plan");
    assert_eq!(r.rows.len(), 6);
}

#[test]
fn prepared_statement_reexecution_hits_cache() {
    let db = seeded(2);
    let prepared = db.prepare("SELECT id, v FROM facts WHERE id >= 195").unwrap();
    // Prepare warmed the cache, so even the *first* execute is a hit.
    let before = db.plan_cache_stats();
    let first = match db.execute_prepared(&prepared).unwrap() {
        Response::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    };
    let second = match db.execute_prepared(&prepared).unwrap() {
        Response::Rows(r) => r,
        other => panic!("expected rows, got {other:?}"),
    };
    let stats = db.plan_cache_stats();
    assert_eq!(canon_rows(&first), canon_rows(&second));
    assert_eq!(first.rows.len(), 5);
    assert_eq!(stats.hits, before.hits + 2, "both executions should hit");
    assert_eq!(stats.misses, before.misses, "executions must not re-plan");
}

#[test]
fn explain_analyze_reports_cache_hit() {
    let db = seeded(2);
    let q = "SELECT g, SUM(v) AS s FROM facts GROUP BY g";
    db.query(q).unwrap(); // seeds the cache
    let text = match db.execute(&format!("EXPLAIN ANALYZE {q}")).unwrap() {
        Response::Explained(t) => t,
        other => panic!("expected explain text, got {other:?}"),
    };
    assert!(
        text.contains("plan cache: hit"),
        "EXPLAIN ANALYZE should note the cache hit:\n{text}"
    );
}

#[test]
fn disabled_cache_is_correct_and_silent() {
    let db = Fixture::Facts.open(&cell(|c| {
        c.workers = 2;
        c.plan_cache_entries = 0;
    }));
    for q in corpus::on(Fixture::Facts).iter().map(|s| s.sql) {
        let a = db.query(q).unwrap();
        let b = db.query(q).unwrap();
        assert_eq!(canon_rows(&a), canon_rows(&b), "query={q}");
    }
    let stats = db.plan_cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.entries, 0);
}

/// Every materialized-view shape: after an INSERT into the base table,
/// the maintained MV contents must be bit-identical to recomputing the
/// defining query from the current base data.
#[test]
fn mv_incremental_refresh_matches_recompute() {
    let cases: &[(&str, &str, &str)] = &[
        // Append-only: filter + project distributes over union.
        (
            "mv_append",
            "SELECT id, v * 2 AS vv FROM facts WHERE g = 1",
            "SELECT id, vv FROM mv_append",
        ),
        // Mergeable grouped aggregates: stored rows are merge states.
        (
            "mv_merge",
            "SELECT g, COUNT(*) AS c, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi \
             FROM facts GROUP BY g",
            "SELECT g, c, s, lo, hi FROM mv_merge",
        ),
        // Global (group-less) mergeable aggregate.
        (
            "mv_global",
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM facts",
            "SELECT n, s FROM mv_global",
        ),
        // Non-incrementalizable (AVG): falls back to full recompute.
        (
            "mv_avg",
            "SELECT g, AVG(v) AS a FROM facts GROUP BY g",
            "SELECT g, a FROM mv_avg",
        ),
        // Join view: append-able when the base appears once.
        (
            "mv_join",
            "SELECT f.id, d.label FROM facts AS f, dims AS d \
             WHERE f.g = d.g AND f.id >= 150",
            "SELECT id, label FROM mv_join",
        ),
    ];
    let db = seeded(2);
    for (name, defining, _) in cases {
        db.execute(&format!("CREATE MATERIALIZED VIEW {name} AS {defining}")).unwrap();
    }
    // Deltas hit both grouped and filtered shapes: existing groups grow,
    // a brand-new group (g has no 7 yet ⇒ joins produce nothing for it)
    // appears, and dyadic values keep the arithmetic exact.
    db.execute(
        "INSERT INTO facts VALUES \
         (500, 1, 0.5), (501, 1, 128.25), (502, 7, 2.75), (503, 4, 0.125)",
    )
    .unwrap();
    for (name, defining, read_back) in cases {
        let maintained = db.query(read_back).unwrap();
        let recomputed = db.query(defining).unwrap();
        assert_eq!(
            canon_rows(&maintained),
            canon_rows(&recomputed),
            "mv {name} diverged from recompute after INSERT"
        );
    }
    // A second wave, through the non-SQL insert path too.
    db.execute("INSERT INTO facts VALUES (600, 7, 64.5), (601, 0, 0.0625)").unwrap();
    for (name, defining, read_back) in cases {
        let maintained = db.query(read_back).unwrap();
        let recomputed = db.query(defining).unwrap();
        assert_eq!(
            canon_rows(&maintained),
            canon_rows(&recomputed),
            "mv {name} diverged after second INSERT"
        );
    }
}

/// Maintenance runs as a child of the statement that triggers it: the
/// recompute of an AVG view under a traced INSERT puts its execute stage,
/// its morsels and its pool waits on the INSERT's trace, leaves base and
/// view agreeing, and leaves nothing behind.
#[test]
fn maintenance_runs_as_a_child_of_the_insert() {
    use common::compare::assert_clean;
    use lardb::Source;
    let db = Fixture::Facts.open(&cell(|_| {}));
    let defining = "SELECT g, AVG(v) AS a FROM facts GROUP BY g";
    db.execute(&format!("CREATE MATERIALIZED VIEW mv_child AS {defining}")).unwrap();
    let rows: Vec<String> =
        (200..400).map(|i| format!("({i}, {}, {})", i % 7, i as f64 * 0.5)).collect();
    let insert = format!("INSERT INTO facts VALUES {}", rows.join(", "));
    let recorder = lardb_obs::recorder();
    let trace = recorder.start_forced(&insert, "test");
    db.run(Source::Sql(&insert), None, Some(&trace)).unwrap();
    let done = recorder.find(trace.id()).expect("the INSERT's trace is finished");
    for span in ["execute", "morsel", "pool.wait"] {
        assert!(done.has_span(span), "no {span} span on the INSERT's trace");
    }
    let maintained = db.query("SELECT g, a FROM mv_child").unwrap();
    assert_eq!(canon_rows(&maintained), canon_rows(&db.query(defining).unwrap()));
    assert_clean(&db, "maintenance under a traced INSERT");
    let names = db.catalog().table_names();
    assert!(!names.iter().any(|n| n.starts_with("__lardb_delta_")), "{names:?}");
}

#[test]
fn refresh_statement_matches_recompute() {
    let db = seeded(2);
    db.execute(
        "CREATE MATERIALIZED VIEW mv_r AS \
         SELECT g, SUM(v) AS s FROM facts GROUP BY g",
    )
    .unwrap();
    db.execute("INSERT INTO facts VALUES (900, 2, 12.5)").unwrap();
    // Explicit REFRESH recomputes from scratch; contents must match both
    // the incremental state and a fresh run of the defining query.
    match db.execute("REFRESH MATERIALIZED VIEW mv_r").unwrap() {
        Response::Inserted(n) => assert!(n >= 1),
        other => panic!("expected row count, got {other:?}"),
    }
    let refreshed = db.query("SELECT g, s FROM mv_r").unwrap();
    let recomputed = db.query("SELECT g, SUM(v) AS s FROM facts GROUP BY g").unwrap();
    assert_eq!(canon_rows(&refreshed), canon_rows(&recomputed));
}

#[test]
fn matview_over_matview_is_rejected() {
    let db = seeded(2);
    db.execute(
        "CREATE MATERIALIZED VIEW mv_base AS \
         SELECT g, SUM(v) AS s FROM facts GROUP BY g",
    )
    .unwrap();
    // Direct lineage: maintenance writes bypass INSERT dispatch, so a
    // view over a view's backing table would silently go stale.
    let err = db
        .execute("CREATE MATERIALIZED VIEW mv_top AS SELECT g FROM mv_base")
        .unwrap_err()
        .to_string();
    assert!(err.contains("mv_base"), "unexpected error: {err}");
    assert!(!db.catalog().has_table("mv_top"), "no orphan backing table");
    // Lineage hidden behind a virtual view is caught too (the binder
    // expands the view, so the bound plan scans mv_base).
    db.execute("CREATE VIEW v_over AS SELECT g, s FROM mv_base").unwrap();
    let err = db
        .execute("CREATE MATERIALIZED VIEW mv_top2 AS SELECT g FROM v_over")
        .unwrap_err()
        .to_string();
    assert!(err.contains("mv_base"), "unexpected error: {err}");
}

#[test]
fn drop_matview_with_dependents_is_refused() {
    let db = seeded(2);
    db.execute("CREATE MATERIALIZED VIEW mv_d AS SELECT id FROM facts WHERE g = 0")
        .unwrap();
    // CREATE rejects matview-over-matview, so fabricate a dependent
    // definition directly in the registry (simulating a legacy catalog):
    // the drop guard must still hold.
    db.catalog()
        .create_matview(
            "dependent",
            lardb::MatViewDef {
                sql: "SELECT id FROM mv_d".into(),
                base_tables: vec!["mv_d".into()],
            },
        )
        .unwrap();
    let err = db.execute("DROP MATERIALIZED VIEW mv_d").unwrap_err().to_string();
    assert!(err.contains("dependent"), "unexpected error: {err}");
    // Releasing the dependent releases the base.
    db.catalog().drop_matview("dependent").unwrap();
    db.execute("DROP MATERIALIZED VIEW mv_d").unwrap();
}

/// Regression test for the drop-then-create replace window: a reader
/// hammering the view while recompute maintenance replaces its backing
/// table must never observe a missing table.
#[test]
fn concurrent_select_during_maintenance_never_fails() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let db = seeded(2);
    // AVG forces the recompute strategy, which replaces the backing table.
    db.execute(
        "CREATE MATERIALIZED VIEW mv_swap AS \
         SELECT g, AVG(v) AS a FROM facts GROUP BY g",
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.query("SELECT g, a FROM mv_swap")
                    .expect("view must stay queryable during maintenance");
                reads += 1;
            }
            reads
        })
    };
    for i in 0..40i64 {
        db.execute(&format!(
            "INSERT INTO facts VALUES ({}, {}, 0.5)",
            1000 + i,
            i % 5
        ))
        .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader must not panic");
    assert!(reads > 0);
}

#[test]
fn drop_guards_protect_matviews_and_bases() {
    let db = seeded(2);
    db.execute("CREATE MATERIALIZED VIEW mv_g AS SELECT id FROM facts WHERE g = 0")
        .unwrap();
    // The backing table is not a plain table.
    let err = db.execute("DROP TABLE mv_g").unwrap_err().to_string();
    assert!(err.contains("MATERIALIZED"), "unexpected error: {err}");
    // The base can't be dropped out from under its dependents.
    let err = db.execute("DROP TABLE facts").unwrap_err().to_string();
    assert!(err.contains("mv_g"), "unexpected error: {err}");
    // Dropping the view releases the base.
    db.execute("DROP MATERIALIZED VIEW mv_g").unwrap();
    db.execute("DROP TABLE facts").unwrap();
}

#[test]
fn cache_and_mv_metrics_surface_in_show_metrics() {
    let db = seeded(2);
    db.execute("CREATE MATERIALIZED VIEW mv_m AS SELECT g, SUM(v) AS s FROM facts GROUP BY g")
        .unwrap();
    db.execute("INSERT INTO facts VALUES (700, 1, 1.5)").unwrap();
    let q = "SELECT COUNT(*) AS n FROM facts";
    db.query(q).unwrap();
    db.query(q).unwrap();
    for name in ["cache.hits", "cache.misses", "mv.created", "mv.refresh_rows"] {
        metric(&db, name);
    }
}

/// Every way into `Database::run` — text or prepared × no token, a live
/// one, one cancelled beforehand × untraced or under the caller's trace —
/// gives the same answer for a cold SELECT, its warm repeat, a CREATE
/// TABLE AS and an EXPLAIN ANALYZE; a supplied trace is finished exactly
/// once; and profile and trace agree on which lifecycle stages ran.
#[test]
fn every_entry_agrees_and_profile_and_trace_match() {
    use lardb::{CancelToken, EngineError, Source};
    let recorder = lardb_obs::recorder();
    for workers in [1usize, 4] {
        let db = seeded(workers);
        let mut answers: Vec<Vec<String>> = vec![Vec::new(); 4];
        let cells = (0..12).map(|cell| (cell, cell % 2 == 0, (cell / 2) % 3, cell / 6 == 1));
        for (cell, as_text, token, traced) in cells {
            // A literal of its own keeps each cell's first SELECT cold.
            let select = format!("SELECT g, SUM(v) AS s FROM facts WHERE id < {} GROUP BY g", 900 + cell);
            let statements = [
                select.clone(),
                select.clone(),
                format!("CREATE TABLE w{workers}c{cell} AS {select}"),
                format!("EXPLAIN ANALYZE {select}"),
            ];
            let cancel = (token > 0).then(CancelToken::new);
            if token == 2 {
                cancel.as_ref().unwrap().cancel();
            }
            for (kind, sql) in statements.iter().enumerate() {
                // (Preparing a SELECT plans it, so text cells must not.)
                let prepared = (!as_text).then(|| db.prepare(sql).unwrap());
                let source = prepared.as_ref().map_or(Source::Sql(sql), Source::Prepared);
                let trace = traced.then(|| recorder.start_forced(sql, "matrix"));
                let result = db.run(source, cancel.as_ref(), trace.as_ref());
                let at = format!("W={workers} cell {cell} statement {kind}");
                if let Some(trace) = &trace {
                    let mut ring = recorder.completed_snapshot();
                    ring.retain(|t| t.id == trace.id());
                    assert_eq!(ring.len(), 1, "finished once, by run: {at}");
                    assert_eq!(ring[0].error, result.as_ref().err().map(|e| e.to_string()), "{at}");
                    let profile = db.last_profile().unwrap();
                    for stage in ["parse", "bind", "optimize", "plan", "execute"] {
                        let timed = profile.stage_ms(stage).unwrap() > 0.0;
                        assert_eq!(timed, ring[0].has_span(stage), "{stage}: {at}");
                        // The warm repeat has no front end, a prepared
                        // statement no parse; a cold SELECT and a CREATE
                        // TABLE AS sent as text go through every stage.
                        let skipped = (kind == 1 || !as_text) && stage == "parse"
                            || kind == 1 && matches!(stage, "bind" | "optimize");
                        assert!(!(skipped && timed), "{stage} ran: {at}");
                        assert!(timed || !as_text || kind % 2 == 1, "{stage} did not run: {at}");
                    }
                }
                match (token, result) {
                    (2, Err(EngineError::Exec(lardb_exec::ExecError::Cancelled(_)))) => {
                        assert!(cancel.as_ref().unwrap().is_cancelled(), "re-armed: {at}");
                    }
                    (2, other) => panic!("a cancelled token must abort, got {other:?}: {at}"),
                    (_, Ok(Response::Rows(rows))) => answers[kind].push(canon_rows(&rows).join(";")),
                    (_, Ok(Response::Explained(text))) => {
                        answers[kind].push(text.contains("plan cache:").to_string())
                    }
                    (_, other) => answers[kind].push(format!("{other:?}")),
                }
            }
        }
        for (kind, answers) in answers.iter().enumerate() {
            assert_eq!(answers.len(), 8, "statement {kind}");
            assert!(answers.iter().all(|a| *a == answers[0]), "statement {kind}: {answers:?}");
        }
        // Materialized-view maintenance runs queries of its own; they are
        // not the statement, so neither its profile nor the cache sees them.
        db.execute("CREATE MATERIALIZED VIEW mv_q AS SELECT g, SUM(v) AS s FROM facts GROUP BY g")
            .unwrap();
        let insert = "INSERT INTO facts VALUES (2000, 1, 0.5)";
        let before = db.plan_cache_stats();
        db.execute(insert).unwrap();
        let (after, profile) = (db.plan_cache_stats(), db.last_profile().unwrap());
        assert_eq!((after.hits, after.misses, after.entries), (before.hits, before.misses, before.entries));
        assert_eq!((profile.query.as_str(), profile.operators.len()), (insert, 0));
        assert_eq!(profile.stage_ms("execute"), Some(0.0));
    }
}
