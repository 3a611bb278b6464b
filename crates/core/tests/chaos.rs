//! Chaos suite: fault injection must never yield a silent wrong answer.
//!
//! Every combination of fault kind × seed × worker count runs the
//! scheduler-equivalence query set over the serialized transport against
//! a deterministic [`FaultPlan`]. The contract under test is the checked
//! row stream's core guarantee: a faulted query either returns exactly
//! the fault-free answer (the fault missed, or was harmless like a delay)
//! or a clean `Err` — never a short or corrupted result set. A killed peer in
//! particular must be detected 100% of the time.

mod common;

use common::compare::{canon_rows, metric, sweep};
use common::corpus::{self, SKEW_GROUPS};
use common::fixtures::Fixture;
use common::lattice::at;
use lardb::{Database, DatabaseConfig, FaultKind, FaultPlan, TransportMode};

/// The skewed tables on `workers` workers over `transport`, under `plan`.
fn faulted(workers: usize, transport: TransportMode, plan: FaultPlan) -> Database {
    let mut cell = at(workers, transport, None);
    cell.config.net.faults = Some(plan);
    Fixture::Skew.open(&cell)
}

/// The core chaos matrix: under every fault kind, at three distinct seeds,
/// over the serialized transport and W ∈ {1, 4}, each query either matches
/// the fault-free answer exactly or fails with a clean error.
#[test]
fn faults_never_shorten_answers_silently() {
    // Count detections per destructive fault kind: across the whole
    // matrix each kind must be caught at least once, otherwise the
    // injection→detection pipeline is silently disconnected. The fault
    // schedule is pure arithmetic on (seed, channel, frame index), so
    // these counts are deterministic run-to-run.
    let mut detected: std::collections::HashMap<String, usize> =
        std::collections::HashMap::new();
    for workers in [1usize, 4] {
        let transport = TransportMode::Serialized;
        // Fault-free answers, themselves held to the oracle cell's.
        let statements = corpus::on(Fixture::Skew);
        let clean = sweep(Fixture::Skew, statements.clone(), &[at(workers, transport, None)]);
        let want: Vec<_> = clean[0].outcomes.iter().flatten().map(canon_rows).collect();
        for kind in FaultKind::ALL {
            for seed in [1u64, 2, 3] {
                let mut plan = FaultPlan::new(kind, seed);
                // High enough that multi-frame exchanges almost always
                // take at least one hit.
                plan.rate_ppm = 300_000;
                let db = faulted(workers, transport, plan);
                for (q, base) in statements.iter().map(|s| s.sql).zip(&want) {
                    let ctx = format!(
                        "W={workers} transport={transport:?} fault={kind} seed={seed} query={q}"
                    );
                    match db.query(q) {
                        Ok(got) => assert_eq!(
                            &canon_rows(&got),
                            base,
                            "silent wrong answer under fault: {ctx}"
                        ),
                        Err(e) => {
                            // A clean, typed error is the other
                            // acceptable outcome — but delays must
                            // never fail a query.
                            assert_ne!(
                                kind,
                                FaultKind::DelaySend,
                                "delay fault errored ({e}): {ctx}"
                            );
                            *detected.entry(kind.to_string()).or_default() += 1;
                        }
                    }
                }
            }
        }
    }
    for kind in [
        FaultKind::DropFrame,
        FaultKind::TruncateFrame,
        FaultKind::CorruptBytes,
        FaultKind::KillSender,
    ] {
        assert!(
            detected.get(&kind.to_string()).copied().unwrap_or(0) >= 1,
            "fault kind {kind} was never detected anywhere in the matrix: {detected:?}"
        );
    }
}

/// A peer killed mid-exchange is detected 100% of the time: with
/// `kill_after = 1` the victim always has more than one frame left to
/// ship on a W=4 hash exchange (three fin frames at minimum), so every
/// seed must produce an error, never a short answer. The pivot's pool of
/// four threads, and an oversubscribed one of 64 where the abort races
/// constant preemption and cross-queue stealing.
#[test]
fn killed_peer_is_always_detected() {
    for pool in [4usize, 64] {
        let transport = TransportMode::Serialized;
        for seed in [1u64, 2, 3, 4, 5] {
            let mut plan = FaultPlan::new(FaultKind::KillSender, seed);
            plan.kill_after = 1;
            let mut cell = at(4, transport, None);
            cell.config.pool_workers = Some(pool);
            cell.config.net.faults = Some(plan);
            let db = Fixture::Skew.open(&cell);
            let ctx = format!("pool={pool} transport={transport:?} seed={seed}");
            let err = db
                .query(SKEW_GROUPS)
                .expect_err(&format!("killed peer went undetected: {ctx}"));
            assert!(!err.to_string().is_empty(), "empty error for killed peer: {ctx}");
        }
    }
}

/// The fault-tolerance counters surface in SHOW METRICS after chaos runs:
/// injected faults, detected truncations, and query-wide aborts.
#[test]
fn chaos_counters_surface_in_show_metrics() {
    // Guarantee at least one detected truncation + abort in this process.
    let mut plan = FaultPlan::new(FaultKind::KillSender, 7);
    plan.kill_after = 1;
    let db = faulted(4, TransportMode::Serialized, plan);
    let _ = db.query("SELECT g, COUNT(*) AS c FROM skew GROUP BY g");

    // Read the process-wide registry through a fault-free database so the
    // metrics query itself can't be chaos-injected.
    let clean = Database::new(2);
    for name in ["net.faults_injected", "exchange.truncations_detected", "query.aborts"] {
        let v = metric(&clean, name);
        assert!(v >= 1.0, "metric {name} = {v}, expected >= 1");
    }
}

/// Cancels `cancel` as soon as the statement `worker` runs is seen holding
/// a governor reservation (`reserved`) — its join's build table, held for as long as
/// the probe runs — or once it has ended, whichever comes first. A KILL
/// sent after a fixed sleep races the statement (a faster build can finish
/// it first); one sent on this signal lands while every probe pair is
/// still ahead of it, however fast the build.
fn cancel_once_running<T>(
    reserved: impl Fn() -> bool,
    worker: &std::thread::JoinHandle<T>,
    cancel: &lardb::CancelToken,
) {
    use std::time::{Duration, Instant};
    let deadline = Instant::now() + Duration::from_secs(60);
    while !reserved() && !worker.is_finished() {
        assert!(Instant::now() < deadline, "the statement never reserved its build side");
        std::thread::sleep(Duration::from_millis(1));
    }
    cancel.cancel();
}

/// Cancellation latency: a KILL delivered mid-flight to a long-running
/// cross join must abort the query promptly (the executor's scan and join
/// probe loops both poll the token), and
/// the governor ledger must return to zero — no leaked reservations. The
/// same holds for a fused hash join whose probe side is short but whose
/// every row matches every build row: the token is polled per chunk of
/// pairs, not per probe row. The KILL is sent once the statement holds its
/// build reservation ([`cancel_once_running`]), so it outlasts the wait in
/// any build: the cross join has 2.16·10⁸ triples ahead of it (minutes
/// uncancelled), the skewed join 6.4·10⁷ pairs (about 0.9 s in release on
/// a 2-vCPU host, far longer in debug), against a 1 ms poll.
#[test]
fn cancellation_latency_is_bounded() {
    use std::time::{Duration, Instant};

    let db = Database::with_config(DatabaseConfig {
        workers: 2,
        pool_workers: Some(2),
        mem: Some(8),
        ..DatabaseConfig::default()
    });
    let governor = std::sync::Arc::clone(db.memory().governor());
    db.execute("CREATE TABLE big (a INTEGER, b DOUBLE)").unwrap();
    let vals: Vec<String> =
        (0..600).map(|i| format!("({i}, {}.5)", i % 50)).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", "))).unwrap();
    // One key for all 8 000 rows: 64 million matched pairs in one partition.
    db.execute("CREATE TABLE skew (k INTEGER, a INTEGER)").unwrap();
    let vals: Vec<String> = (0..8000).map(|i| format!("(7, {i})")).collect();
    db.execute(&format!("INSERT INTO skew VALUES {}", vals.join(", "))).unwrap();

    for sql in [
        "SELECT COUNT(*) AS n FROM big AS x, big AS y, big AS z \
         WHERE x.b + y.b + z.b < 0.0",
        "SELECT COUNT(*) AS n FROM skew AS x, skew AS y WHERE x.k = y.k",
    ] {
        let cancel = lardb::CancelToken::new();
        let worker_cancel = cancel.clone();
        let worker_db = db.clone();
        let worker = std::thread::spawn(move || {
            worker_db.run(lardb::Source::Sql(sql), Some(&worker_cancel), None)
        });

        // Kill the join once it is probing, and time the unwind.
        cancel_once_running(|| governor.reserved() > 0, &worker, &cancel);
        let killed_at = Instant::now();
        let result = worker.join().unwrap();
        let latency = killed_at.elapsed();

        match result {
            Err(lardb::EngineError::Exec(e)) => {
                assert!(
                    e.to_string().contains("cancel") || e.to_string().contains("abort"),
                    "expected a cancellation error, got: {e} ({sql})"
                );
            }
            other => panic!("expected Exec(Cancelled), got {other:?} ({sql})"),
        }
        // The 600^3 cross join runs for minutes uncancelled, the skewed
        // equi-join for ten seconds or more; two seconds is generous
        // headroom for the per-chunk + in-loop token checks.
        assert!(
            latency < Duration::from_secs(2),
            "cancellation took {latency:?}, expected < 2s ({sql})"
        );
        assert_eq!(
            governor.reserved(),
            0,
            "governor ledger must be zero after a cancelled query ({sql})"
        );
    }
}

/// The same bound without an aggregate on top: a plain join is the same
/// chunk producer as the fused one and polls the token after every chunk
/// of pairs it cuts, before the residual, so KILL waits out neither a
/// partition of a cross product nor probe rows that each match 8 000
/// build rows. Both residuals reject every pair, so no output piles up
/// while the join runs. As above, the KILL is sent once the statement
/// holds its build reservation, so it outlasts the wait in any build: the
/// cross product has 2.16·10⁸ triples ahead of it, the skewed join
/// 6.4·10⁷ pairs (about 1.7 s in release on a 2-vCPU host).
#[test]
fn unfused_join_cancellation_is_bounded() {
    use std::time::{Duration, Instant};

    let db = Database::with_config(DatabaseConfig {
        workers: 2,
        pool_workers: Some(2),
        mem: Some(8),
        ..DatabaseConfig::default()
    });
    let governor = std::sync::Arc::clone(db.memory().governor());
    db.execute("CREATE TABLE big (a INTEGER, b DOUBLE)").unwrap();
    let vals: Vec<String> = (0..600).map(|i| format!("({i}, {}.5)", i % 50)).collect();
    db.execute(&format!("INSERT INTO big VALUES {}", vals.join(", "))).unwrap();
    db.execute("CREATE TABLE skew (k INTEGER, a INTEGER)").unwrap();
    let vals: Vec<String> = (0..8000).map(|i| format!("(7, {i})")).collect();
    db.execute(&format!("INSERT INTO skew VALUES {}", vals.join(", "))).unwrap();

    for sql in [
        "SELECT x.a FROM big AS x, big AS y, big AS z WHERE x.b + y.b + z.b < 0.0",
        "SELECT x.a FROM skew AS x, skew AS y WHERE x.k = y.k AND x.a + y.a < 0",
    ] {
        let cancel = lardb::CancelToken::new();
        let (worker_cancel, worker_db) = (cancel.clone(), db.clone());
        let worker = std::thread::spawn(move || {
            worker_db.run(lardb::Source::Sql(sql), Some(&worker_cancel), None)
        });
        cancel_once_running(|| governor.reserved() > 0, &worker, &cancel);
        let killed_at = Instant::now();
        let result = worker.join().unwrap();
        let latency = killed_at.elapsed();
        match result {
            Err(lardb::EngineError::Exec(e)) => assert!(
                e.to_string().contains("cancel") || e.to_string().contains("abort"),
                "expected a cancellation error, got: {e} ({sql})"
            ),
            other => panic!("expected Exec(Cancelled), got {other:?} ({sql})"),
        }
        assert!(latency < Duration::from_secs(2), "cancellation took {latency:?} ({sql})");
        assert_eq!(governor.reserved(), 0, "governor ledger not zero after KILL ({sql})");
    }
}

/// A KILL lands inside a scan-fed Filter/Project chain: the pipeline
/// polls the token before every chunk it cuts from its partition, so with
/// one worker and one-row chunks a KILL waits out one row's
/// `matrix_multiply`, not the partition. Every row shares one matrix, so
/// the scan clones `Arc`s for microseconds and the statement is all chain.
/// The matrix is sized per build, as the dense kernel runs some 130×
/// slower unoptimized: 384 × 384 in release (about 4.6 ms a row on a
/// 2-vCPU host), 128 × 128 in debug (about 25 ms). Either way 1 024 rows
/// outlast the 2 s bound, one row is far inside it, and the 8 192-row
/// table runs for most of a minute or longer, which a KILL after a fixed
/// sleep cannot outrun.
#[test]
fn a_kill_lands_inside_a_scan_fed_chain() {
    use lardb::{DataType, Matrix, Partitioning, Row, Schema, Value};
    use std::time::{Duration, Instant};

    let db = Database::with_config(DatabaseConfig {
        workers: 1,
        batch_rows: 1,
        ..DatabaseConfig::default()
    });
    let governor = std::sync::Arc::clone(db.memory().governor());
    let n = if cfg!(debug_assertions) { 128 } else { 384 };
    let m = Value::matrix(Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 16) as f64 / 16.0));
    let columns = Schema::from_pairs(&[("m", DataType::Matrix(Some(n), Some(n)))]);
    db.create_table("t", columns, Partitioning::RoundRobin).unwrap();
    db.insert_rows("t", (0..8192).map(|_| Row::new(vec![m.clone()]))).unwrap();

    let sql = "SELECT sum_elements(matrix_multiply(m, m)) AS s FROM t";
    let cancel = lardb::CancelToken::new();
    let (worker_cancel, worker_db) = (cancel.clone(), db.clone());
    let worker = std::thread::spawn(move || {
        worker_db.run(lardb::Source::Sql(sql), Some(&worker_cancel), None)
    });
    std::thread::sleep(Duration::from_millis(300));
    assert!(!worker.is_finished(), "the statement ended before the KILL");
    cancel.cancel();
    let killed_at = Instant::now();
    let result = worker.join().unwrap();
    let latency = killed_at.elapsed();
    match result {
        Err(lardb::EngineError::Exec(lardb_exec::ExecError::Cancelled(_))) => {}
        other => panic!("expected Exec(Cancelled), got {other:?}"),
    }
    assert!(latency < Duration::from_secs(2), "cancellation took {latency:?}");
    assert_eq!(governor.reserved(), 0, "governor ledger not zero after KILL");
}
