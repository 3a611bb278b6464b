//! The `Database` façade: the full query path in one object.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lardb_exec::{
    CancelToken, Cluster, ExecStats, Executor, MemoryConfig, NetConfig, TransportMode,
};
use lardb_pool::WorkerPool;
use lardb_obs::{CollectingSink, OperatorProfile, QueryProfile, SpanGuard, Stage};
use lardb_planner::physical::PhysicalPlanner;
use lardb_planner::{LogicalPlan, Optimizer, OptimizerConfig, PlanEstimate};
use lardb_sql::ast::{SelectStatement, Statement, TableRef};
use lardb_sql::{parse_statement, Binder};
use lardb_storage::{
    Catalog, DataType, MatViewDef, Partitioning, Row, Schema, Table, Value,
};

use crate::error::{EngineError, Result};
use crate::plan_cache::{
    normalize, CacheStats, InvalidationReason, NormalizedStatement, PlanCache,
    StatementKind, DEFAULT_PLAN_CACHE_ENTRIES,
};
use crate::sessions::SessionRegistry;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Number of simulated shared-nothing workers (the paper used 10
    /// machines × 8 cores).
    pub workers: usize,
    /// Optimizer switches (size inference, early projection, DP budget).
    pub optimizer: OptimizerConfig,
    /// How exchange operators move batches between workers: `Pointer`
    /// (in-memory hand-off, estimated bytes), `Serialized` (wire-encoded
    /// over bounded channels, actual bytes), or `Tcp` (wire-encoded over
    /// loopback sockets).
    pub transport: TransportMode,
    /// Slow-query log threshold in milliseconds. Statements that take at
    /// least this long are reported on stderr and counted under the
    /// `db.slow_queries` metric. `None` (the default) disables the log.
    pub slow_query_ms: Option<f64>,
    /// Threads in the persistent worker pool that executes morsels.
    /// `None` (the default) shares the process-wide pool (sized from
    /// `LARDB_POOL_WORKERS` or the machine's core count); `Some(n)` gives
    /// this database a dedicated pool of `n` threads, created once and
    /// reused by every query.
    pub pool_workers: Option<usize>,
    /// Rows per scheduled morsel (default
    /// [`lardb_exec::DEFAULT_MORSEL_ROWS`]). Smaller morsels balance skew
    /// better; larger ones amortize scheduling further.
    pub morsel_rows: usize,
    /// Network-layer knobs for serialized/TCP exchanges: I/O timeouts, the
    /// maximum accepted frame size, and an optional deterministic fault
    /// injection plan (see `lardb_exec::FaultPlan`) for chaos testing.
    pub net: NetConfig,
    /// Memory budget for pipeline-breaking operators, in MiB. `None`
    /// (the default) shares the process-wide governor sized from
    /// `LARDB_MEM_BUDGET_MB` (unset ⇒ unbounded); `Some(0)` gives this
    /// database a dedicated *unbounded* governor; `Some(n)` gives it a
    /// dedicated `n`-MiB governor. When a hash join or grouped aggregate
    /// cannot reserve its working set it spills partitions to disk and
    /// finishes out-of-core (see `lardb_buf`).
    pub mem: Option<u64>,
    /// Directory for spill files. `None` (the default) uses
    /// `LARDB_SPILL_DIR`, falling back to the OS temp dir. Spill files
    /// are removed as soon as they are drained (and on abort).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Directory where each completed query trace is written as Chrome
    /// trace-event JSON (`trace-<id>.json`, loadable in Perfetto /
    /// `chrome://tracing`). `None` (the default) keeps traces only in the
    /// in-memory flight recorder.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Trace 1 of every `n` queries. `None` leaves the process-wide
    /// flight-recorder sampling untouched (default: every query);
    /// `Some(0)` disables tracing entirely.
    pub trace_sample: Option<u64>,
    /// Completed-trace ring capacity. `None` leaves the process-wide
    /// setting untouched (default 256).
    pub trace_capacity: Option<usize>,
    /// Expression engine for scan→filter→project→aggregate pipelines:
    /// `Compiled` (the default) pivots morsels into column batches and
    /// evaluates register bytecode with fused vectorized kernels, falling
    /// back to the row interpreter per chunk on any kernel error;
    /// `Interpret` runs everything through the row-at-a-time tree walker
    /// (the differential suite's oracle).
    pub expr_engine: lardb_exec::ExprEngine,
    /// Rows per column batch in the compiled engine (default
    /// [`lardb_exec::DEFAULT_BATCH_ROWS`]; env `LARDB_BATCH_ROWS`).
    /// Smaller batches stay cache-resident; larger ones amortize the
    /// pivot and dispatch further.
    pub batch_rows: usize,
    /// Capacity of the normalized plan cache in entries (default
    /// [`crate::plan_cache::DEFAULT_PLAN_CACHE_ENTRIES`]; env
    /// `LARDB_PLAN_CACHE`). Repeat SELECTs whose shape, literals, catalog
    /// version and optimizer knobs all match a cached entry skip
    /// parse/bind/optimize entirely. `0` disables caching.
    pub plan_cache_entries: usize,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            workers: 4,
            optimizer: OptimizerConfig::default(),
            transport: TransportMode::Pointer,
            slow_query_ms: None,
            pool_workers: None,
            morsel_rows: lardb_exec::DEFAULT_MORSEL_ROWS,
            net: NetConfig::default(),
            mem: None,
            spill_dir: None,
            trace_dir: None,
            trace_sample: None,
            trace_capacity: None,
            expr_engine: lardb_exec::ExprEngine::default(),
            batch_rows: std::env::var("LARDB_BATCH_ROWS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n: &usize| n > 0)
                .unwrap_or(lardb_exec::DEFAULT_BATCH_ROWS),
            plan_cache_entries: std::env::var("LARDB_PLAN_CACHE")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(DEFAULT_PLAN_CACHE_ENTRIES),
        }
    }
}

/// The outcome of a gathered query.
#[derive(Debug)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// All result rows.
    pub rows: Vec<Row>,
    /// Per-operator execution statistics.
    pub stats: ExecStats,
}

impl QueryResult {
    /// First row, first column — convenient for scalar results.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().map(|r| r.value(0))
    }

    /// Renders the result as a simple table.
    pub fn display_table(&self) -> String {
        let mut out = String::new();
        let names: Vec<String> =
            self.schema.columns().iter().map(|c| c.name.clone()).collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        for r in &self.rows {
            let vals: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            out.push_str(&vals.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// What a statement produced.
#[derive(Debug)]
pub enum Response {
    /// SELECT results.
    Rows(QueryResult),
    /// DDL completed (CREATE/DROP).
    Done,
    /// INSERT (or CREATE TABLE AS) row count.
    Inserted(usize),
    /// EXPLAIN output.
    Explained(String),
}

impl Response {
    /// Unwraps SELECT results.
    pub fn into_rows(self) -> Result<QueryResult> {
        match self {
            Response::Rows(q) => Ok(q),
            other => Err(EngineError::Usage(format!(
                "statement did not produce rows (got {other:?})"
            ))),
        }
    }
}

/// A parallel relational database with the paper's linear-algebra
/// extensions. Cloning shares the catalog (sessions over one store).
///
/// ```
/// use lardb::Database;
/// let db = Database::new(4);
/// db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
/// db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
/// let r = db.query("SELECT SUM(v) AS s FROM t").unwrap();
/// assert_eq!(r.scalar().unwrap().as_double(), Some(2.0));
/// ```
#[derive(Clone)]
pub struct Database {
    catalog: Arc<Catalog>,
    config: DatabaseConfig,
    /// The [`QueryProfile`] of the most recent statement that ran a plan
    /// (shared across clones, like the catalog).
    last_profile: Arc<Mutex<Option<QueryProfile>>>,
    /// True when the `metrics` catalog table was auto-materialized by the
    /// engine (and may therefore be refreshed/replaced); a user-created
    /// `metrics` table is never touched.
    metrics_table_auto: Arc<AtomicBool>,
    /// Same auto-materialization marker for the `queries` virtual table
    /// (the flight recorder's in-flight queries).
    queries_table_auto: Arc<AtomicBool>,
    /// Same marker for the `sessions` virtual table (the session
    /// registry, as rendered by `SHOW SESSIONS`).
    sessions_table_auto: Arc<AtomicBool>,
    /// The dedicated worker pool when [`DatabaseConfig::pool_workers`] is
    /// set — created once here and shared by every query's cluster (and
    /// by clones of this database). `None` ⇒ the process-wide pool.
    pool: Option<Arc<WorkerPool>>,
    /// Memory governor + spill directory every query's executor runs
    /// under, built once from [`DatabaseConfig::mem`] /
    /// [`DatabaseConfig::spill_dir`] so reservations and peak tracking
    /// are shared across queries (and clones) of this database.
    mem: MemoryConfig,
    /// Session/query bookkeeping shared across clones: `SHOW SESSIONS`
    /// renders it, `KILL <query-id>` cancels through it. The query server
    /// registers each connection here.
    sessions: Arc<SessionRegistry>,
    /// Label appended to this clone's slow-query log lines (e.g.
    /// `session 3 tenant acme`); per-clone, not shared.
    session_label: Option<String>,
    /// The normalized plan cache, shared across clones like the catalog
    /// (a schema change seen by one session must invalidate them all).
    plan_cache: Arc<PlanCache>,
}

impl Database {
    /// A database with `workers` simulated workers and default optimizer
    /// settings.
    pub fn new(workers: usize) -> Self {
        Database::with_config(DatabaseConfig {
            workers,
            ..DatabaseConfig::default()
        })
    }

    /// A database with explicit configuration.
    pub fn with_config(config: DatabaseConfig) -> Self {
        // Flight-recorder knobs are process-global: applied once at
        // construction.
        match config.trace_sample {
            Some(0) => lardb_obs::recorder().set_enabled(false),
            Some(n) => {
                lardb_obs::recorder().set_enabled(true);
                lardb_obs::recorder().set_sample_every(n);
            }
            None => {}
        }
        if let Some(cap) = config.trace_capacity {
            lardb_obs::recorder().set_capacity(cap);
        }
        let pool = config.pool_workers.map(|n| Arc::new(WorkerPool::new(n)));
        let mem = match config.mem {
            None => match &config.spill_dir {
                None => MemoryConfig::shared(),
                Some(dir) => MemoryConfig::shared().with_spill_dir(dir.clone()),
            },
            Some(0) => MemoryConfig::with_budget(None, config.spill_dir.clone()),
            Some(mb) => {
                MemoryConfig::with_budget(Some(mb * 1024 * 1024), config.spill_dir.clone())
            }
        };
        let plan_cache = Arc::new(PlanCache::new(config.plan_cache_entries));
        Database {
            catalog: Arc::new(Catalog::new()),
            config,
            last_profile: Arc::new(Mutex::new(None)),
            metrics_table_auto: Arc::new(AtomicBool::new(false)),
            queries_table_auto: Arc::new(AtomicBool::new(false)),
            sessions_table_auto: Arc::new(AtomicBool::new(false)),
            pool,
            mem,
            sessions: Arc::new(SessionRegistry::new()),
            session_label: None,
            plan_cache,
        }
    }

    /// The cluster every query of this database executes on: the
    /// configured worker count, morsel size, and (if dedicated) worker
    /// pool. With `cancel`, the query runs under an externally-owned
    /// token (KILL / disconnect wiring).
    fn cluster(&self, cancel: Option<&CancelToken>) -> Cluster {
        let mut cluster = Cluster::new(self.config.workers)
            .with_morsel_rows(self.config.morsel_rows);
        if let Some(pool) = &self.pool {
            cluster = cluster.with_pool(Arc::clone(pool));
        }
        if let Some(token) = cancel {
            cluster = cluster.with_cancel_token(token.clone());
        }
        // Attach the statement's flight-recorder trace (if sampled) so
        // morsel workers and exchange channels attribute to the query.
        if let Some(trace) = lardb_obs::trace::current() {
            cluster = cluster.with_trace(trace);
        }
        cluster
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The session registry shared by every clone of this database (what
    /// `SHOW SESSIONS` renders and `KILL` cancels through).
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    /// The memory configuration (governor + spill directory) this
    /// database's queries execute under.
    pub fn memory(&self) -> &MemoryConfig {
        &self.mem
    }

    /// Replaces the memory configuration (builder style). The query server
    /// uses this to give a clone a *tenant* governor: a sub-budget of the
    /// shared governor, so one tenant's reservations are capped without
    /// losing process-wide accounting. Catalog, pool, profile slot and
    /// session registry stay shared with the original.
    pub fn with_memory_config(mut self, mem: MemoryConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Tags this clone's slow-query log lines with a session label
    /// (builder style), e.g. `session 3 tenant acme`.
    pub fn with_session_label(mut self, label: impl Into<String>) -> Self {
        self.session_label = Some(label.into());
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Sets the exchange transport mode (builder style). `Serialized` and
    /// `Tcp` encode every boundary-crossing batch through the `lardb-net`
    /// wire codec and meter actual encoded bytes.
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.config.transport = transport;
        self
    }

    /// Mutates the exchange transport mode in place.
    pub fn set_transport(&mut self, transport: TransportMode) {
        self.config.transport = transport;
    }

    /// The configured exchange transport mode.
    pub fn transport(&self) -> TransportMode {
        self.config.transport
    }

    /// Sets the compiled engine's rows-per-column-batch (builder style).
    pub fn with_batch_rows(mut self, rows: usize) -> Self {
        self.config.batch_rows = rows.max(1);
        self
    }

    /// Mutates the optimizer configuration (ablation benchmarks flip
    /// [`OptimizerConfig::size_inference`] here). Counts a config
    /// invalidation on the plan cache; the knobs are also part of every
    /// cache key (the fingerprint), so even clones sharing the cache but
    /// not this config change can never see a mismatched plan.
    pub fn set_optimizer_config(&mut self, cfg: OptimizerConfig) {
        if cfg != self.config.optimizer {
            self.plan_cache.bump(InvalidationReason::Config);
        }
        self.config.optimizer = cfg;
    }

    /// Fingerprint of the configuration knobs an optimized plan depends
    /// on — part of every plan-cache key, so clones with diverged
    /// optimizer settings never share entries.
    fn config_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.config.optimizer.size_inference.hash(&mut h);
        self.config.optimizer.early_projection.hash(&mut h);
        self.config.optimizer.max_dp_inputs.hash(&mut h);
        h.finish()
    }

    /// The shared plan cache (version bumps, stats).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Point-in-time counters of this database's plan cache. Unlike the
    /// process-global `cache.*` metrics, these are per-cache, so tests
    /// running concurrently don't see each other's traffic.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Enables the slow-query log (builder style): statements taking at
    /// least `ms` milliseconds are reported on stderr and counted under
    /// the `db.slow_queries` metric.
    pub fn with_slow_query_threshold(mut self, ms: f64) -> Self {
        self.config.slow_query_ms = Some(ms);
        self
    }

    /// The [`QueryProfile`] of the most recent statement that ran a plan
    /// (SELECT, EXPLAIN ANALYZE, or CREATE TABLE AS), or `None` if no
    /// plan has run yet. The profile carries all five lifecycle stage
    /// timings plus per-operator estimate-vs-actual records.
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Executes one SQL statement.
    ///
    /// ```
    /// # use lardb::{Database, Response};
    /// # let db = Database::new(2);
    /// assert!(matches!(
    ///     db.execute("CREATE TABLE m (mat MATRIX[3][3], vec VECTOR[3])").unwrap(),
    ///     Response::Done
    /// ));
    /// // §3.1: a dimension mismatch is caught before execution.
    /// db.execute("CREATE TABLE bad (mat MATRIX[3][3], vec VECTOR[7])").unwrap();
    /// assert!(db.query("SELECT matrix_vector_multiply(mat, vec) AS x FROM bad").is_err());
    /// ```
    pub fn execute(&self, sql: &str) -> Result<Response> {
        self.execute_cancellable(sql, None)
    }

    /// Executes one SQL statement under an externally-owned cancel token:
    /// flipping `cancel` (from any thread) aborts the statement at the
    /// next morsel/row-batch boundary with `ExecError::Cancelled`. The
    /// query server wires `KILL <query-id>` and client-disconnect
    /// detection to this. A token already cancelled when execution starts
    /// aborts immediately.
    pub fn execute_with_cancel(&self, sql: &str, cancel: &CancelToken) -> Result<Response> {
        self.execute_cancellable(sql, Some(cancel))
    }

    /// Executes one SQL statement under an externally-minted flight
    /// recorder trace. The query server mints the trace *before*
    /// admission (so queue wait is on the trace) and hands it in here;
    /// the statement runs with the trace as the thread-local current
    /// trace, and the trace is finished (frozen into the recorder ring)
    /// when the statement completes.
    pub fn execute_with_trace(
        &self,
        sql: &str,
        cancel: &CancelToken,
        trace: &Arc<lardb_obs::ActiveTrace>,
    ) -> Result<Response> {
        self.execute_inner(sql, Some(cancel), Some(Arc::clone(trace)), None)
    }

    fn execute_cancellable(&self, sql: &str, cancel: Option<&CancelToken>) -> Result<Response> {
        // Embedded entry point: mint a (sampled) trace here; the server
        // path pre-mints via `execute_with_trace` to capture queue wait.
        let trace = lardb_obs::recorder().start(sql, "embedded");
        self.execute_inner(sql, cancel, trace, None)
    }

    /// Parses and validates a statement once, precomputing its plan-cache
    /// shape. Executing the returned handle skips re-parsing; cacheable
    /// SELECT shapes are bound and optimized right here (best-effort), so
    /// the first [`Database::execute_prepared`] is already a cache hit.
    /// Bind errors still surface at execute time, preserving the
    /// prepare-then-create-table workflow.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement> {
        let statement = parse_statement(sql)?;
        let norm = if self.plan_cache.enabled() { normalize(sql) } else { None };
        let prepared = PreparedStatement { sql: sql.into(), statement, norm };
        self.warm_plan_cache(&prepared);
        Ok(prepared)
    }

    /// Best-effort bind + optimize of a cacheable prepared SELECT into
    /// the plan cache. Failures are swallowed: they will surface (typed)
    /// when the statement is executed. The catalog version is captured
    /// *before* binding, so a concurrent DDL drops the insert instead of
    /// caching a plan bound against the pre-DDL catalog.
    fn warm_plan_cache(&self, prepared: &PreparedStatement) {
        let Some(norm) = &prepared.norm else { return };
        if norm.kind != StatementKind::Select {
            return;
        }
        let Statement::Select(sel) = &prepared.statement else { return };
        if references_virtual(sel) {
            return;
        }
        let version = self.plan_cache.version();
        let Ok(plan) = Binder::new(&self.catalog).bind_select(sel) else { return };
        let optimizer =
            Optimizer::new(self.catalog.as_ref(), self.config.optimizer.clone());
        let Ok(optimized) = optimizer.optimize(plan) else { return };
        self.plan_cache.insert(
            norm,
            self.config_fingerprint(),
            version,
            &crate::matview::scan_tables(&optimized),
            Arc::new(optimized),
        );
    }

    /// Executes a prepared statement. The stored parse tree is reused and
    /// the precomputed shape key routes SELECTs through the plan cache —
    /// repeat executions skip parse, bind *and* optimize.
    pub fn execute_prepared(&self, prepared: &PreparedStatement) -> Result<Response> {
        let trace = lardb_obs::recorder().start(&prepared.sql, "embedded");
        self.execute_inner(&prepared.sql, None, trace, Some(prepared))
    }

    /// [`Database::execute_prepared`] under an externally-owned cancel
    /// token (sampling decides whether a trace is minted, as in
    /// [`Database::execute_with_cancel`]).
    pub fn execute_prepared_with_cancel(
        &self,
        prepared: &PreparedStatement,
        cancel: &CancelToken,
    ) -> Result<Response> {
        let trace = lardb_obs::recorder().start(&prepared.sql, "embedded");
        self.execute_inner(&prepared.sql, Some(cancel), trace, Some(prepared))
    }

    /// [`Database::execute_prepared`] under an externally-owned cancel
    /// token and pre-minted flight-recorder trace — the query server's
    /// `Execute` message lands here.
    pub fn execute_prepared_with_trace(
        &self,
        prepared: &PreparedStatement,
        cancel: &CancelToken,
        trace: &Arc<lardb_obs::ActiveTrace>,
    ) -> Result<Response> {
        self.execute_inner(
            &prepared.sql,
            Some(cancel),
            Some(Arc::clone(trace)),
            Some(prepared),
        )
    }

    fn execute_inner(
        &self,
        sql: &str,
        cancel: Option<&CancelToken>,
        trace: Option<Arc<lardb_obs::ActiveTrace>>,
        prepared: Option<&PreparedStatement>,
    ) -> Result<Response> {
        let t0 = Instant::now();
        if let Some(t) = &trace {
            t.set_running();
        }
        let cur = trace
            .as_ref()
            .map(|t| lardb_obs::trace::push_current(Some(Arc::clone(t))));
        let sink = CollectingSink::new();
        let mut profile = QueryProfile::new(sql);
        let result = self.execute_traced(sql, cancel, &sink, &mut profile, prepared);
        profile.add_spans(&sink.take());
        if let (Some(t), Ok(Response::Rows(q))) = (&trace, &result) {
            t.add_rows(q.rows.len() as u64);
        }
        drop(cur);
        let trace_ids = trace.as_ref().map(|t| (t.id(), t.query_id()));
        if let Some(t) = trace {
            let err = result.as_ref().err().map(|e| e.to_string());
            let done = lardb_obs::recorder().finish(&t, err.as_deref());
            self.write_trace_file(&done);
        }
        self.finish_statement(sql, t0, result.is_err(), profile, trace_ids);
        result
    }

    /// Best-effort export of one completed trace as Chrome trace-event
    /// JSON under [`DatabaseConfig::trace_dir`]. I/O failures are
    /// swallowed: tracing must never fail a query.
    fn write_trace_file(&self, done: &lardb_obs::CompletedTrace) {
        let Some(dir) = &self.config.trace_dir else { return };
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(
            dir.join(format!("trace-{}.json", done.id)),
            done.to_chrome_json(),
        );
    }

    /// Bookkeeping for one finished statement: process-wide counters, the
    /// per-query latency histogram, the slow-query log, and publishing the
    /// statement's [`QueryProfile`]. Slow-query log lines carry the
    /// statement's trace and query ids when it ran traced, so a log line
    /// correlates directly with flight-recorder output.
    fn finish_statement(
        &self,
        sql: &str,
        t0: Instant,
        errored: bool,
        profile: QueryProfile,
        trace_ids: Option<(lardb_obs::TraceId, u64)>,
    ) {
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let registry = lardb_obs::global();
        registry.counter("db.queries").inc();
        registry.histogram("db.query_ms").observe(ms as u64);
        if errored {
            registry.counter("db.errors").inc();
        }
        if let Some(threshold) = self.config.slow_query_ms {
            if ms >= threshold {
                registry.counter("db.slow_queries").inc();
                let ids = match trace_ids {
                    Some((tid, 0)) => format!(" trace {tid}"),
                    Some((tid, qid)) => format!(" trace {tid} query {qid}"),
                    None => String::new(),
                };
                match &self.session_label {
                    Some(label) => eprintln!(
                        "[lardb] slow query ({ms:.1} ms ≥ {threshold:.1} ms) \
                         [{label}]{ids}: {sql}"
                    ),
                    None => eprintln!(
                        "[lardb] slow query ({ms:.1} ms ≥ {threshold:.1} ms){ids}: {sql}"
                    ),
                }
            }
        }
        *self.last_profile.lock().unwrap_or_else(|e| e.into_inner()) = Some(profile);
    }

    /// Statement dispatch with lifecycle spans recorded into `sink` and
    /// per-operator estimate-vs-actual records into `profile`. With
    /// `prepared`, the stored parse tree and shape key are reused instead
    /// of re-deriving them from `sql`.
    fn execute_traced(
        &self,
        sql: &str,
        cancel: Option<&CancelToken>,
        sink: &CollectingSink,
        profile: &mut QueryProfile,
        prepared: Option<&PreparedStatement>,
    ) -> Result<Response> {
        let fingerprint = self.config_fingerprint();
        // Captured once, before any bind: lookups read under it and
        // inserts are keyed (and validity-checked) against it, so a plan
        // is only ever cached under the catalog version it was bound at.
        let cache_version = self.plan_cache.version();
        let norm = match prepared {
            Some(p) => p.norm.clone(),
            None if self.plan_cache.enabled() => normalize(sql),
            None => None,
        };
        // Fast path: a bare SELECT whose shape, literals, catalog version
        // and config fingerprint are all cached skips parse, bind and
        // optimize entirely — their lifecycle stages stay at the
        // profile's pre-seeded zero, which is how the repeat-query bench
        // verifies the elision. Cached shapes never reference virtual
        // tables (gated at insert), so skipping their refresh is sound.
        if let Some(n) = &norm {
            if n.kind == StatementKind::Select {
                if let Some(cached) = self.plan_cache.lookup(n, fingerprint, cache_version) {
                    let (result, _) =
                        self.run_optimized(&cached, true, cancel, sink, profile)?;
                    return Ok(Response::Rows(result));
                }
            }
        }
        let statement = match prepared {
            Some(p) => p.statement.clone(),
            None => {
                let _g = SpanGuard::enter(sink, Stage::Parse, "");
                parse_statement(sql)?
            }
        };
        match statement {
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| lardb_storage::Column::new(n, t))
                        .collect(),
                );
                self.create_table(&name, schema, Partitioning::RoundRobin)?;
                Ok(Response::Done)
            }
            Statement::CreateTableAs { name, query } => {
                let plan = {
                    let _g = SpanGuard::enter(sink, Stage::Bind, "");
                    Binder::new(&self.catalog).bind_select(&query)?
                };
                let (result, _) =
                    self.run_traced(plan, /*gather=*/ false, cancel, sink, profile)?;
                let mut table = Table::new(
                    &name,
                    result.schema.clone(),
                    self.config.workers,
                    Partitioning::RoundRobin,
                );
                let n = result.rows.len();
                table.insert_all(result.rows)?;
                self.catalog.create_table(table)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Inserted(n))
            }
            Statement::CreateView { name, columns, query, sql } => {
                // Validate now so errors surface at CREATE VIEW time.
                Binder::new(&self.catalog).bind_select(&query)?;
                if let Some(cols) = &columns {
                    let plan = Binder::new(&self.catalog).bind_select(&query)?;
                    if plan.schema().arity() != cols.len() {
                        return Err(EngineError::Usage(format!(
                            "view column list has {} names but query yields {}",
                            cols.len(),
                            plan.schema().arity()
                        )));
                    }
                }
                self.catalog.create_view(&name, sql, columns)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::CreateMaterializedView { name, query, sql } => {
                let plan = {
                    let _g = SpanGuard::enter(sink, Stage::Bind, "");
                    Binder::new(&self.catalog).bind_select(&query)?
                };
                // Lineage from the *bound* plan: views are expanded, so
                // these are the base tables whose INSERTs must maintain
                // the view. Lineage through another materialized view is
                // rejected outright: maintenance writes to backing tables
                // directly (not through INSERT dispatch), so a view over
                // a view's backing table would silently go stale.
                let base_tables = crate::matview::scan_tables(&plan);
                if let Some(mv) = base_tables.iter().find(|t| self.catalog.has_matview(t))
                {
                    return Err(EngineError::Usage(format!(
                        "cannot create materialized view {name} over materialized \
                         view {mv}: maintenance does not cascade through \
                         materialized views"
                    )));
                }
                let (result, _) =
                    self.run_traced(plan, /*gather=*/ false, cancel, sink, profile)?;
                let mut table = Table::new(
                    &name,
                    result.schema.clone(),
                    self.config.workers,
                    Partitioning::RoundRobin,
                );
                let n = result.rows.len();
                table.insert_all(result.rows)?;
                self.catalog.create_table(table)?;
                if let Err(e) =
                    self.catalog.create_matview(&name, MatViewDef { sql, base_tables })
                {
                    let _ = self.catalog.drop_table(&name);
                    return Err(e.into());
                }
                self.plan_cache.bump(InvalidationReason::Ddl);
                lardb_obs::global().counter("mv.created").inc();
                Ok(Response::Inserted(n))
            }
            Statement::DropMaterializedView { name } => {
                if !self.catalog.has_matview(&name) {
                    return Err(EngineError::Usage(format!(
                        "no such materialized view: {name}"
                    )));
                }
                // Mirror the DropTable guard: CREATE rejects lineage
                // through materialized views, but a registry that names
                // one anyway (however it got there) must not lose its
                // base out from under it.
                let dependents = self.catalog.matviews_on(&name);
                if !dependents.is_empty() {
                    return Err(EngineError::Usage(format!(
                        "materialized view {name} has dependent materialized \
                         views: {}",
                        dependents.join(", ")
                    )));
                }
                self.catalog.drop_matview(&name)?;
                self.catalog.drop_table(&name)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::RefreshMaterializedView { name } => {
                // recompute_matview bumps the view's stats version.
                let n = self.recompute_matview(&name)?;
                Ok(Response::Inserted(n))
            }
            Statement::DropTable { name } => {
                if self.catalog.has_matview(&name) {
                    return Err(EngineError::Usage(format!(
                        "{name} is a materialized view; use DROP MATERIALIZED VIEW"
                    )));
                }
                let dependents = self.catalog.matviews_on(&name);
                if !dependents.is_empty() {
                    return Err(EngineError::Usage(format!(
                        "table {name} has dependent materialized views: {}",
                        dependents.join(", ")
                    )));
                }
                self.catalog.drop_table(&name)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::DropView { name } => {
                self.catalog.drop_view(&name)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Done)
            }
            Statement::Insert { table, rows } => {
                let binder = Binder::new(&self.catalog);
                let empty = Schema::default();
                let empty_row = Row::default();
                let mut materialized = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut vals = Vec::with_capacity(r.len());
                    for e in &r {
                        let bound = binder.bind_expr(e, &empty)?;
                        vals.push(lardb_exec::eval::eval(&bound, &empty_row)?);
                    }
                    materialized.push(Row::new(vals));
                }
                let n = materialized.len();
                let handle = self.catalog.table(&table)?;
                // Clone the delta only when some materialized view's
                // lineage includes this table.
                if self.catalog.matviews_on(&table).is_empty() {
                    handle.write().insert_all(materialized)?;
                } else {
                    let delta = materialized.clone();
                    handle.write().insert_all(materialized)?;
                    self.maintain_matviews_on(&table, &delta)?;
                }
                // Per-table: only cached plans reading this table (or a
                // maintained view, bumped during maintenance) go stale.
                self.plan_cache.bump_stats(&table);
                Ok(Response::Inserted(n))
            }
            Statement::Select(sel) => {
                self.refresh_virtual_tables(&sel)?;
                let cacheable = norm
                    .as_ref()
                    .is_some_and(|n| n.kind == StatementKind::Select)
                    && !references_virtual(&sel);
                let plan = {
                    let _g = SpanGuard::enter(sink, Stage::Bind, "");
                    Binder::new(&self.catalog).bind_select(&sel)?
                };
                if cacheable {
                    let optimized = {
                        let _g = SpanGuard::enter(sink, Stage::Optimize, "");
                        let optimizer = Optimizer::new(
                            self.catalog.as_ref(),
                            self.config.optimizer.clone(),
                        );
                        Arc::new(optimizer.optimize(plan)?)
                    };
                    self.plan_cache.insert(
                        norm.as_ref().expect("cacheable implies normalized"),
                        fingerprint,
                        cache_version,
                        &crate::matview::scan_tables(&optimized),
                        Arc::clone(&optimized),
                    );
                    let (result, _) =
                        self.run_optimized(&optimized, true, cancel, sink, profile)?;
                    return Ok(Response::Rows(result));
                }
                if self.plan_cache.enabled() {
                    self.plan_cache.note_uncacheable();
                }
                let (result, _) = self.run_traced(plan, true, cancel, sink, profile)?;
                Ok(Response::Rows(result))
            }
            Statement::Explain { query, analyze, trace } => {
                self.refresh_virtual_tables(&query)?;
                if trace {
                    // EXPLAIN TRACE: run the query under a *forced* trace
                    // (sampling does not apply) and return its Chrome
                    // trace-event JSON instead of the plan text. The
                    // statement was already parsed, so a measured re-parse
                    // stands in for the parse span; bind onward runs live
                    // under the forced trace.
                    let forced = lardb_obs::recorder().start_forced(sql, "explain");
                    forced.set_running();
                    let run = {
                        let _cur = lardb_obs::trace::push_current(Some(Arc::clone(&forced)));
                        let t_parse = Instant::now();
                        let _ = parse_statement(sql);
                        forced.record("parse", "query", t_parse, t_parse.elapsed(), Vec::new());
                        let bound = {
                            let _g = SpanGuard::enter(sink, Stage::Bind, "");
                            Binder::new(&self.catalog).bind_select(&query)
                        };
                        match bound {
                            Ok(plan) => {
                                self.run_traced(plan, true, cancel, sink, profile)
                            }
                            Err(e) => Err(e.into()),
                        }
                    };
                    let err = run.as_ref().err().map(|e| e.to_string());
                    if let Ok((result, _)) = &run {
                        forced.add_rows(result.rows.len() as u64);
                    }
                    let done = lardb_obs::recorder().finish(&forced, err.as_deref());
                    self.write_trace_file(&done);
                    run?;
                    return Ok(Response::Explained(done.to_chrome_json()));
                }
                let plan = {
                    let _g = SpanGuard::enter(sink, Stage::Bind, "");
                    Binder::new(&self.catalog).bind_select(&query)?
                };
                // EXPLAIN shares the wrapped SELECT's cache shape (the
                // prefix is stripped during normalization): a hit reuses
                // the cached optimized plan and says so; a miss seeds the
                // cache for the bare statement.
                let cacheable = norm.is_some() && !references_virtual(&query);
                let (optimized, cache_note) = if cacheable {
                    let n = norm.as_ref().expect("cacheable implies normalized");
                    match self.plan_cache.lookup(n, fingerprint, cache_version) {
                        Some(cached) => (cached, "hit"),
                        None => {
                            let optimized = {
                                let _g = SpanGuard::enter(sink, Stage::Optimize, "");
                                let optimizer = Optimizer::new(
                                    self.catalog.as_ref(),
                                    self.config.optimizer.clone(),
                                );
                                Arc::new(optimizer.optimize(plan)?)
                            };
                            self.plan_cache.insert(
                                n,
                                fingerprint,
                                cache_version,
                                &crate::matview::scan_tables(&optimized),
                                Arc::clone(&optimized),
                            );
                            (optimized, "miss")
                        }
                    }
                } else {
                    let optimized = {
                        let _g = SpanGuard::enter(sink, Stage::Optimize, "");
                        let optimizer = Optimizer::new(
                            self.catalog.as_ref(),
                            self.config.optimizer.clone(),
                        );
                        Arc::new(optimizer.optimize(plan)?)
                    };
                    (optimized, "off")
                };
                let mut text = self.explain_optimized(&optimized)?;
                if !text.ends_with('\n') {
                    text.push('\n');
                }
                text.push_str(&format!("plan cache: {cache_note}\n"));
                if analyze {
                    let (result, operators) =
                        self.run_optimized(&optimized, true, cancel, sink, profile)?;
                    if !text.ends_with('\n') {
                        text.push('\n');
                    }
                    text.push_str(&format!(
                        "== Execution Statistics ==\n{}\
                         total: {} rows shuffled, {} bytes shuffled, \
                         {} frames, blocked {:.3} ms\n",
                        result.stats.display_table(),
                        result.stats.total_rows_shuffled(),
                        result.stats.total_bytes_shuffled(),
                        result.stats.total_frames(),
                        result.stats.total_enqueue_block().as_secs_f64() * 1e3,
                    ));
                    if result.stats.total_batches() > 0
                        || result.stats.total_fallbacks() > 0
                    {
                        text.push_str(&format!(
                            "vectorized: {} batches, {} rows, {} kernel \
                             dispatches, {} interpreter fallbacks\n",
                            result.stats.total_batches(),
                            result.stats.total_batch_rows(),
                            result.stats.total_kernels(),
                            result.stats.total_fallbacks(),
                        ));
                    }
                    let d = result.stats.dispatch;
                    if d.any() {
                        text.push_str(&format!(
                            "la dispatch: {} dense, {} spmv, \
                             {} sp×dense, {} spgemm, {} sp-syrk, \
                             {} densified\n",
                            d.dense,
                            d.spmv,
                            d.sp_dense,
                            d.spgemm,
                            d.sp_syrk,
                            d.densified,
                        ));
                    }
                    text.push_str(&render_estimate_table(&operators));
                }
                Ok(Response::Explained(text))
            }
            Statement::ShowMetrics => Ok(Response::Rows(metrics_snapshot_result())),
            Statement::ShowSessions => {
                Ok(Response::Rows(sessions_snapshot_result(&self.sessions)))
            }
            Statement::ShowQueries => Ok(Response::Rows(queries_snapshot_result())),
            Statement::Kill { query_id } => {
                if self.sessions.kill(query_id) {
                    Ok(Response::Done)
                } else {
                    Err(EngineError::Usage(format!(
                        "no running query with id {query_id} (see SHOW SESSIONS)"
                    )))
                }
            }
        }
    }

    /// Executes a SELECT and returns its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?.into_rows()
    }

    /// EXPLAIN: optimized logical plan plus the physical plan with
    /// exchanges.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            Statement::Select(sel) | Statement::Explain { query: sel, .. } => {
                let plan = Binder::new(&self.catalog).bind_select(&sel)?;
                self.explain_logical(plan)
            }
            _ => Err(EngineError::Usage("EXPLAIN expects a SELECT".into())),
        }
    }

    fn explain_logical(&self, plan: LogicalPlan) -> Result<String> {
        let optimizer =
            Optimizer::new(self.catalog.as_ref(), self.config.optimizer.clone());
        let optimized = optimizer.optimize(plan)?;
        self.explain_optimized(&optimized)
    }

    /// Renders the EXPLAIN text for an already-optimized plan (the
    /// statement path arrives here with a cached or freshly-optimized
    /// plan in hand).
    fn explain_optimized(&self, optimized: &LogicalPlan) -> Result<String> {
        let mut pp = PhysicalPlanner::new(&self.catalog, self.catalog.as_ref());
        let physical = pp.plan_gathered(optimized)?;
        Ok(format!(
            "== Optimized Logical Plan ==\n{}\n== Physical Plan ==\n{}",
            optimized.display_tree(),
            physical.display_tree()
        ))
    }

    /// Runs a bound logical plan end-to-end (optimize → physical plan →
    /// parallel execute). Exposed for tests and the benchmark harness.
    /// The run's [`QueryProfile`] (with zeroed parse/bind stages, since
    /// the plan arrives pre-bound) is published to [`Database::last_profile`].
    pub fn run_logical(&self, plan: LogicalPlan, gather: bool) -> Result<QueryResult> {
        let sink = CollectingSink::new();
        let mut profile = QueryProfile::new("<logical plan>");
        let result = self.run_traced(plan, gather, None, &sink, &mut profile);
        profile.add_spans(&sink.take());
        *self.last_profile.lock().unwrap_or_else(|e| e.into_inner()) = Some(profile);
        result.map(|(q, _)| q)
    }

    /// The traced query back half: optimize → physical plan → execute,
    /// with one span per stage and per-operator estimate-vs-actual
    /// records appended to `profile`. Also returns the operator records
    /// so EXPLAIN ANALYZE can render them.
    ///
    /// Actual bytes are the metered shuffle bytes for exchanges; other
    /// operators don't move data across workers, so their "actual" bytes
    /// are derived as measured rows × the cost model's row width.
    pub(crate) fn run_traced(
        &self,
        plan: LogicalPlan,
        gather: bool,
        cancel: Option<&CancelToken>,
        sink: &CollectingSink,
        profile: &mut QueryProfile,
    ) -> Result<(QueryResult, Vec<OperatorProfile>)> {
        let optimized = {
            let _g = SpanGuard::enter(sink, Stage::Optimize, "");
            let optimizer =
                Optimizer::new(self.catalog.as_ref(), self.config.optimizer.clone());
            optimizer.optimize(plan)?
        };
        self.run_optimized(&optimized, gather, cancel, sink, profile)
    }

    /// The back half of [`Database::run_traced`] from an already-optimized
    /// plan: physical planning and execution under their spans. Plan-cache
    /// hits enter here directly, which is exactly what makes the
    /// parse/bind/optimize stages disappear from their profiles.
    fn run_optimized(
        &self,
        optimized: &LogicalPlan,
        gather: bool,
        cancel: Option<&CancelToken>,
        sink: &CollectingSink,
        profile: &mut QueryProfile,
    ) -> Result<(QueryResult, Vec<OperatorProfile>)> {
        let (physical, estimates) = {
            let _g = SpanGuard::enter(sink, Stage::Plan, "");
            let mut pp = PhysicalPlanner::new(&self.catalog, self.catalog.as_ref());
            let physical = if gather {
                pp.plan_gathered(optimized)?
            } else {
                pp.plan(optimized)?
            };
            let estimates = pp.estimates(&physical);
            (physical, estimates)
        };
        let dispatch_before = lardb_la::dispatch::dispatch_counters();
        let mut result = {
            let _g = SpanGuard::enter(sink, Stage::Execute, "");
            let executor = Executor::new(&self.catalog, self.cluster(cancel))
                .with_transport(self.config.transport)
                .with_net_config(self.config.net.clone())
                .with_memory(self.mem.clone())
                .with_expr_engine(self.config.expr_engine)
                .with_batch_rows(self.config.batch_rows);
            executor.execute(&physical)?
        };
        // Per-query kernel-dispatch attribution: the delta of the
        // process-wide counters across execution (concurrent queries may
        // bleed into each other's deltas). Also bridged to the global
        // `la.dispatch.*` metrics SHOW METRICS exposes.
        let d = lardb_la::dispatch::dispatch_counters().since(&dispatch_before);
        result.stats.dispatch = d;
        if d.any() {
            let m = lardb_obs::global();
            m.counter("la.dispatch.dense").add(d.dense);
            m.counter("la.dispatch.spmv").add(d.spmv);
            m.counter("la.dispatch.sp_dense").add(d.sp_dense);
            m.counter("la.dispatch.spgemm").add(d.spgemm);
            m.counter("la.dispatch.sp_syrk").add(d.sp_syrk);
            m.counter("la.dispatch.densified").add(d.densified);
        }
        let operators = join_estimates(&estimates, &result.stats);
        profile.operators.extend(operators.iter().cloned());
        let schema = result.schema.clone();
        let stats = std::mem::take(&mut result.stats);
        Ok((
            QueryResult { schema, rows: result.into_rows(), stats },
            operators,
        ))
    }

    /// Re-materializes the introspection virtual tables (`metrics`,
    /// `queries`, `sessions`) when `sel` references them (directly or in
    /// a subquery), so live engine state can be filtered, joined and
    /// aggregated with ordinary SQL. A user-created table with one of
    /// these names is never touched.
    fn refresh_virtual_tables(&self, sel: &SelectStatement) -> Result<()> {
        if references_table(sel, "metrics") {
            self.refresh_virtual("metrics", &self.metrics_table_auto, || {
                (metrics_schema(), metric_rows())
            })?;
        }
        if references_table(sel, "queries") {
            self.refresh_virtual("queries", &self.queries_table_auto, || {
                (queries_schema(), queries_rows())
            })?;
        }
        if references_table(sel, "sessions") {
            self.refresh_virtual("sessions", &self.sessions_table_auto, || {
                (sessions_schema(), sessions_rows(&self.sessions))
            })?;
        }
        Ok(())
    }

    /// Drops and re-creates one auto-materialized virtual table from a
    /// fresh snapshot. The `auto` flag distinguishes engine-created
    /// tables (refreshable) from a user's table of the same name (never
    /// clobbered).
    fn refresh_virtual(
        &self,
        name: &str,
        auto: &AtomicBool,
        snapshot: impl FnOnce() -> (Schema, Vec<Row>),
    ) -> Result<()> {
        if self.catalog.has_table(name) {
            if !auto.load(Ordering::Acquire) {
                return Ok(()); // the user's own table; never clobber it
            }
            self.catalog.drop_table(name)?;
        }
        let (schema, rows) = snapshot();
        let mut table = Table::new(name, schema, self.config.workers, Partitioning::RoundRobin);
        table.insert_all(rows)?;
        self.catalog.create_table(table)?;
        auto.store(true, Ordering::Release);
        Ok(())
    }

    /// Programmatic table creation with an explicit partitioning scheme
    /// (SQL `CREATE TABLE` defaults to round-robin; benchmark loaders use
    /// hash/replicated placement like the paper's §5 setups).
    pub fn create_table(
        &self,
        name: &str,
        schema: Schema,
        partitioning: Partitioning,
    ) -> Result<()> {
        let table = Table::new(name, schema, self.config.workers, partitioning);
        self.catalog.create_table(table)?;
        self.plan_cache.bump(InvalidationReason::Ddl);
        Ok(())
    }

    /// Programmatic bulk load (used by generators: vectors and matrices
    /// cannot be written as SQL literals). Maintains materialized views
    /// over the table and invalidates the plan cache's stats version,
    /// like SQL `INSERT`.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<usize> {
        let materialized: Vec<Row> = rows.into_iter().collect();
        let n = materialized.len();
        let handle = self.catalog.table(table)?;
        if self.catalog.matviews_on(table).is_empty() {
            handle.write().insert_all(materialized)?;
        } else {
            let delta = materialized.clone();
            handle.write().insert_all(materialized)?;
            self.maintain_matviews_on(table, &delta)?;
        }
        self.plan_cache.bump_stats(table);
        Ok(n)
    }
}

/// A statement prepared once via [`Database::prepare`]: the parse tree
/// and plan-cache shape key are stored, so executing it never re-parses
/// and SELECT shapes go straight to the plan cache.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    sql: Arc<str>,
    statement: Statement,
    norm: Option<NormalizedStatement>,
}

impl PreparedStatement {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// True when the SELECT references any auto-materialized introspection
/// table. Their contents change between executions (each reference
/// re-snapshots live engine state from the AST), so plans over them must
/// never be served from the cache.
fn references_virtual(sel: &SelectStatement) -> bool {
    ["metrics", "queries", "sessions"]
        .iter()
        .any(|t| references_table(sel, t))
}

/// True when the SELECT references `name` in any FROM clause, including
/// nested subqueries.
fn references_table(sel: &SelectStatement, name: &str) -> bool {
    sel.from.iter().any(|r| match r {
        TableRef::Table { name: t, .. } => t.eq_ignore_ascii_case(name),
        TableRef::Subquery { query, .. } => references_table(query, name),
    })
}

/// Schema of the `metrics` relation: one row per metric, name-sorted.
/// Counters and gauges fill `value`; histograms fill the distribution
/// columns (`count`, `sum`, `p50`, `p90`, `p99`) and leave `value` NULL.
/// `value` stays at column index 2 for backward compatibility.
fn metrics_schema() -> Schema {
    Schema::from_pairs(&[
        ("name", DataType::Varchar),
        ("kind", DataType::Varchar),
        ("value", DataType::Double),
        ("count", DataType::Double),
        ("sum", DataType::Double),
        ("p50", DataType::Double),
        ("p90", DataType::Double),
        ("p99", DataType::Double),
    ])
}

/// The process-wide metrics snapshot, one row per metric (see
/// [`metrics_schema`]).
fn metric_rows() -> Vec<Row> {
    let opt = |v: Option<f64>| v.map_or(Value::Null, Value::Double);
    lardb_obs::global()
        .table_snapshot()
        .into_iter()
        .map(|s| {
            Row::new(vec![
                Value::Varchar(s.name.as_str().into()),
                Value::Varchar(s.kind.label().into()),
                opt(s.value),
                opt(s.count),
                opt(s.sum),
                opt(s.p50),
                opt(s.p90),
                opt(s.p99),
            ])
        })
        .collect()
}

/// Schema of the `sessions` relation (`SHOW SESSIONS`).
fn sessions_schema() -> Schema {
    Schema::from_pairs(&[
        ("session_id", DataType::Integer),
        ("tenant", DataType::Varchar),
        ("peer", DataType::Varchar),
        ("state", DataType::Varchar),
        ("query_id", DataType::Integer),
        ("sql", DataType::Varchar),
        ("elapsed_ms", DataType::Double),
    ])
}

/// One row per open session — idle sessions carry NULL query columns.
fn sessions_rows(sessions: &SessionRegistry) -> Vec<Row> {
    sessions
        .snapshot()
        .into_iter()
        .map(|s| {
            Row::new(vec![
                Value::Integer(s.session_id as i64),
                Value::Varchar(s.tenant.as_str().into()),
                Value::Varchar(s.peer.as_str().into()),
                Value::Varchar(s.state.into()),
                s.query_id.map_or(Value::Null, |q| Value::Integer(q as i64)),
                s.sql.map_or(Value::Null, |q| Value::Varchar(q.as_str().into())),
                Value::Double(s.elapsed_ms),
            ])
        })
        .collect()
}

/// Builds the `SHOW SESSIONS` response relation.
fn sessions_snapshot_result(sessions: &SessionRegistry) -> QueryResult {
    QueryResult {
        schema: sessions_schema(),
        rows: sessions_rows(sessions),
        stats: ExecStats::new(),
    }
}

/// Builds the `SHOW METRICS` response relation.
fn metrics_snapshot_result() -> QueryResult {
    QueryResult {
        schema: metrics_schema(),
        rows: metric_rows(),
        stats: ExecStats::new(),
    }
}

/// Schema of the `queries` relation (`SHOW QUERIES`): one row per
/// in-flight traced query, straight from the flight recorder.
fn queries_schema() -> Schema {
    Schema::from_pairs(&[
        ("query_id", DataType::Integer),
        ("trace_id", DataType::Varchar),
        ("tenant", DataType::Varchar),
        ("state", DataType::Varchar),
        ("sql", DataType::Varchar),
        ("elapsed_ms", DataType::Double),
        ("queue_wait_ms", DataType::Double),
        ("rows", DataType::Integer),
        ("reserved_bytes", DataType::Integer),
        ("spill_bytes", DataType::Integer),
    ])
}

/// One row per in-flight traced query, in trace-id order.
fn queries_rows() -> Vec<Row> {
    lardb_obs::recorder()
        .active_snapshot()
        .into_iter()
        .map(|t| {
            Row::new(vec![
                match t.query_id() {
                    0 => Value::Null,
                    q => Value::Integer(q as i64),
                },
                Value::Varchar(t.id().to_string().into()),
                Value::Varchar(t.tenant().as_str().into()),
                Value::Varchar(t.state().name().into()),
                Value::Varchar(t.sql().into()),
                Value::Double(t.elapsed_ms()),
                Value::Double(t.queue_wait_ms()),
                Value::Integer(t.rows() as i64),
                Value::Integer(t.reserved_bytes()),
                Value::Integer(t.spill_bytes() as i64),
            ])
        })
        .collect()
}

/// Builds the `SHOW QUERIES` response relation.
fn queries_snapshot_result() -> QueryResult {
    QueryResult {
        schema: queries_schema(),
        rows: queries_rows(),
        stats: ExecStats::new(),
    }
}

/// Joins the planner's per-operator estimates against the executor's
/// measured actuals, producing one [`OperatorProfile`] per operator in
/// completion order. Exchange operators report metered shuffle bytes;
/// for all other operators the "actual" bytes are derived (measured rows
/// × the cost model's row width), since nothing was shipped.
fn join_estimates(
    estimates: &HashMap<usize, PlanEstimate>,
    stats: &ExecStats,
) -> Vec<OperatorProfile> {
    stats
        .operators()
        .iter()
        .map(|op| {
            let est = estimates
                .get(&op.id)
                .copied()
                .unwrap_or(PlanEstimate::new(0.0, 0.0));
            let actual_bytes = if op.label.starts_with("Exchange") {
                op.shuffle.bytes as f64
            } else {
                op.rows_out as f64 * est.row_bytes
            };
            OperatorProfile {
                id: op.id,
                label: op.label.clone(),
                est_rows: est.rows,
                actual_rows: op.rows_out as f64,
                est_bytes: est.total_bytes(),
                actual_bytes,
                wall_ms: op.wall.as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// Renders the EXPLAIN ANALYZE estimate-vs-actual section: est/actual
/// rows and megabytes plus the per-operator q-error of each.
fn render_estimate_table(operators: &[OperatorProfile]) -> String {
    let label_w = operators.iter().map(|o| o.label.len()).max().unwrap_or(0).max(24);
    let mut out = format!(
        "== Estimate vs Actual ==\n{:<5} {:<label_w$} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}\n",
        "id", "operator", "est_rows", "act_rows", "q_rows", "est_MB", "act_MB", "q_MB",
    );
    for o in operators {
        out.push_str(&format!(
            "{:<5} {:<label_w$} {:>12.0} {:>12.0} {:>8.2} {:>10.3} {:>10.3} {:>8.2}\n",
            o.id,
            o.label,
            o.est_rows,
            o.actual_rows,
            o.q_error_rows(),
            o.est_bytes / 1e6,
            o.actual_bytes / 1e6,
            o.q_error_bytes(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_la::Vector;
    use lardb_storage::DataType;

    #[test]
    fn ddl_insert_query_roundtrip() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)").unwrap();
        let r = db.query("SELECT SUM(v) AS s FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().as_double(), Some(7.5));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        assert!(db.execute("CREATE TABLE t (id INTEGER)").is_err());
    }

    #[test]
    fn view_and_drop() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.execute("CREATE VIEW big AS SELECT id FROM t WHERE id > 1").unwrap();
        let r = db.query("SELECT COUNT(*) AS n FROM big").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(1));
        db.execute("DROP VIEW big").unwrap();
        assert!(db.query("SELECT * FROM big").is_err());
        db.execute("DROP TABLE t").unwrap();
        assert!(db.query("SELECT * FROM t").is_err());
    }

    #[test]
    fn create_table_as() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let resp = db.execute("CREATE TABLE doubled AS SELECT id + id AS d FROM t").unwrap();
        assert!(matches!(resp, Response::Inserted(3)));
        let r = db.query("SELECT SUM(d) AS s FROM doubled").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(12));
    }

    #[test]
    fn programmatic_vectors_and_gram() {
        let db = Database::new(4);
        db.create_table(
            "x",
            Schema::from_pairs(&[("id", DataType::Integer), ("val", DataType::Vector(None))]),
            Partitioning::RoundRobin,
        )
        .unwrap();
        let rows = vec![
            Row::new(vec![Value::Integer(0), Value::vector(Vector::from_slice(&[1.0, 0.0]))]),
            Row::new(vec![Value::Integer(1), Value::vector(Vector::from_slice(&[0.0, 2.0]))]),
        ];
        db.insert_rows("x", rows).unwrap();
        let r = db
            .query("SELECT SUM(outer_product(val, val)) AS g FROM x")
            .unwrap();
        let g = r.scalar().unwrap().as_matrix().unwrap().clone();
        assert_eq!(g.get(0, 0).unwrap(), 1.0);
        assert_eq!(g.get(1, 1).unwrap(), 4.0);
        assert_eq!(g.get(0, 1).unwrap(), 0.0);
    }

    #[test]
    fn explain_shows_plans() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        let text = db.explain("SELECT id FROM t WHERE id = 1").unwrap();
        assert!(text.contains("Optimized Logical Plan"));
        assert!(text.contains("Physical Plan"));
        assert!(text.contains("TableScan"));
        // The EXPLAIN statement form works too.
        let resp = db.execute("EXPLAIN SELECT id FROM t").unwrap();
        assert!(matches!(resp, Response::Explained(_)));
    }

    #[test]
    fn usage_errors() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        assert!(db.execute("CREATE TABLE t2 (id INTEGER)").unwrap().into_rows().is_err());
        assert!(db.explain("INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn shared_catalog_across_clones() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        let session2 = db.clone();
        session2.execute("INSERT INTO t VALUES (42)").unwrap();
        let r = db.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(1));
    }

    #[test]
    fn show_metrics_returns_counters() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT id FROM t").unwrap();
        let r = db.query("SHOW METRICS").unwrap();
        assert_eq!(
            r.schema.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["name", "kind", "value", "count", "sum", "p50", "p90", "p99"]
        );
        // Deterministic ordering: rows come out sorted by metric name.
        let names: Vec<String> = r.rows.iter().map(|row| row.value(0).to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "SHOW METRICS must be name-sorted");
        // The registry is process-global and other tests run concurrently,
        // so assert presence and lower bounds, never exact equality.
        let queries = r
            .rows
            .iter()
            .find(|row| row.value(0).to_string().contains("db.queries"))
            .expect("db.queries metric present");
        assert!(queries.value(2).as_double().unwrap() >= 3.0);
    }

    #[test]
    fn metrics_virtual_table_is_queryable_and_refreshed() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT id FROM t").unwrap();
        let r = db
            .query("SELECT name, value FROM metrics WHERE name = 'exec.plans_run'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let first = r.rows[0].value(1).as_double().unwrap();
        assert!(first >= 1.0);
        // Re-querying refreshes the snapshot: the counter has moved on.
        db.query("SELECT id FROM t").unwrap();
        let r2 = db
            .query("SELECT value FROM metrics WHERE name = 'exec.plans_run'")
            .unwrap();
        assert!(r2.rows[0].value(0).as_double().unwrap() > first);
    }

    #[test]
    fn show_metrics_surfaces_histogram_percentiles() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.query("SELECT id FROM t").unwrap();
        let r = db.query("SHOW METRICS").unwrap();
        // db.query_ms is a histogram: one row, distribution columns
        // filled, scalar value NULL.
        let h = r
            .rows
            .iter()
            .find(|row| row.value(0).to_string() == "db.query_ms")
            .expect("db.query_ms histogram present");
        assert_eq!(h.value(1).to_string(), "histogram");
        assert!(matches!(h.value(2), Value::Null), "histogram has no scalar value");
        assert!(h.value(3).as_double().unwrap() >= 1.0, "count");
        for idx in [5usize, 6, 7] {
            assert!(h.value(idx).as_double().is_some(), "percentile column {idx}");
        }
    }

    #[test]
    fn show_queries_and_queries_virtual_table() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        // While a traced query runs, SHOW QUERIES (from another clone)
        // lists it with its trace id and state.
        let trace = lardb_obs::recorder().start_forced("SELECT id FROM t", "acme");
        trace.set_query_id(77);
        let r = db.query("SHOW QUERIES").unwrap();
        assert_eq!(
            r.schema.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            [
                "query_id",
                "trace_id",
                "tenant",
                "state",
                "sql",
                "elapsed_ms",
                "queue_wait_ms",
                "rows",
                "reserved_bytes",
                "spill_bytes"
            ]
        );
        let row = r
            .rows
            .iter()
            .find(|row| row.value(1).to_string() == trace.id().to_string())
            .expect("in-flight trace listed");
        assert_eq!(row.value(0).as_integer(), Some(77));
        assert_eq!(row.value(2).to_string(), "acme");
        // The `queries` virtual table sees the same in-flight query.
        let vt = db
            .query(&format!(
                "SELECT tenant FROM queries WHERE trace_id = '{}'",
                trace.id()
            ))
            .unwrap();
        assert_eq!(vt.rows.len(), 1);
        assert_eq!(vt.rows[0].value(0).to_string(), "acme");
        lardb_obs::recorder().finish(&trace, None);
        // Finished: no longer listed.
        let r = db.query("SHOW QUERIES").unwrap();
        assert!(r
            .rows
            .iter()
            .all(|row| row.value(1).to_string() != trace.id().to_string()));
    }

    #[test]
    fn sessions_virtual_table_is_queryable() {
        let db = Database::new(2);
        let sid = db.sessions().open("acme", "local");
        let r = db
            .query("SELECT tenant, state FROM sessions WHERE tenant = 'acme'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].value(1).to_string(), "idle");
        db.sessions().close(sid);
    }

    #[test]
    fn explain_trace_returns_chrome_json() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
        let Response::Explained(json) =
            db.execute("EXPLAIN TRACE SELECT SUM(v) AS s FROM t").unwrap()
        else {
            panic!("expected Explained");
        };
        assert!(json.contains("\"traceEvents\""), "{json}");
        for span in ["parse", "bind", "optimize", "plan", "execute"] {
            assert!(json.contains(&format!("\"name\": \"{span}\"")), "missing {span}");
        }
        // The umbrella event carries the SQL and the row count.
        assert!(json.contains("SUM(v)"), "{json}");
    }

    #[test]
    fn embedded_statements_land_in_flight_recorder() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let marker = "SELECT COUNT(*) AS embedded_recorder_probe FROM t";
        db.query(marker).unwrap();
        let done = lardb_obs::recorder()
            .completed_snapshot()
            .into_iter()
            .rev()
            .find(|t| t.sql == marker)
            .expect("embedded query traced");
        assert_eq!(done.rows, 1);
        assert!(done.has_span("execute"), "lifecycle spans recorded");
        assert!(done.error.is_none());
    }

    #[test]
    fn user_metrics_table_is_never_clobbered() {
        let db = Database::new(2);
        db.execute("CREATE TABLE metrics (id INTEGER)").unwrap();
        db.execute("INSERT INTO metrics VALUES (7)").unwrap();
        let r = db.query("SELECT id FROM metrics").unwrap();
        assert_eq!(r.scalar().unwrap().as_integer(), Some(7));
    }

    #[test]
    fn explain_analyze_prints_estimate_vs_actual() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 1.5)").unwrap();
        let Response::Explained(text) =
            db.execute("EXPLAIN ANALYZE SELECT SUM(v) AS s FROM t").unwrap()
        else {
            panic!("expected Explained");
        };
        assert!(text.contains("== Estimate vs Actual =="), "{text}");
        assert!(text.contains("est_rows"), "{text}");
        assert!(text.contains("act_rows"), "{text}");
        assert!(text.contains("q_rows"), "{text}");
        assert!(text.contains("q_MB"), "{text}");
    }

    #[test]
    fn last_profile_covers_all_lifecycle_stages() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.query("SELECT COUNT(*) AS n FROM t").unwrap();
        let p = db.last_profile().expect("profile after a query");
        for stage in ["parse", "bind", "optimize", "plan", "execute"] {
            assert!(p.stage_ms(stage).is_some(), "missing stage {stage}");
        }
        assert!(!p.operators.is_empty());
        assert!(p.operators.iter().all(|o| o.q_error_rows() >= 1.0));
        let json = p.to_json();
        assert!(json.contains("\"stage\": \"execute\""));
    }

    #[test]
    fn slow_query_log_counts_slow_statements() {
        let registry = lardb_obs::global();
        let before = registry.counter("db.slow_queries").get();
        let db = Database::new(2).with_slow_query_threshold(0.0);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        assert!(registry.counter("db.slow_queries").get() > before);
    }

    #[test]
    fn show_sessions_and_kill_statements() {
        let db = Database::new(2);
        // No sessions registered: empty relation with the right shape.
        let r = db.query("SHOW SESSIONS").unwrap();
        assert_eq!(
            r.schema.columns().iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["session_id", "tenant", "peer", "state", "query_id", "sql", "elapsed_ms"]
        );
        assert!(r.rows.is_empty());
        // A registered session with a running query shows up and is
        // killable by query id.
        let sid = db.sessions().open("acme", "local");
        let cancel = lardb_exec::CancelToken::new();
        let qid = db.sessions().begin_query(sid, "SELECT 1", &cancel);
        let r = db.query("SHOW SESSIONS").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].value(1).to_string(), "acme");
        assert_eq!(r.rows[0].value(3).to_string(), "running");
        assert!(matches!(
            db.execute(&format!("KILL {qid}")).unwrap(),
            Response::Done
        ));
        assert!(cancel.is_cancelled());
        // Killing a finished (or unknown) query is a usage error.
        db.sessions().end_query(sid);
        assert!(db.execute(&format!("KILL {qid}")).is_err());
        db.sessions().close(sid);
    }

    #[test]
    fn pre_cancelled_token_aborts_before_execution() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let cancel = lardb_exec::CancelToken::new();
        cancel.cancel();
        let err = db.execute_with_cancel("SELECT id FROM t", &cancel).unwrap_err();
        assert!(
            err.to_string().contains("killed") || err.to_string().contains("cancel"),
            "unexpected error: {err}"
        );
        // The same database still runs uncancelled statements fine.
        assert!(db.query("SELECT id FROM t").is_ok());
    }

    #[test]
    fn references_table_walks_subqueries() {
        let sql = "SELECT * FROM (SELECT name FROM metrics) AS m";
        let Ok(Statement::Select(sel)) = parse_statement(sql) else { panic!() };
        assert!(references_table(&sel, "metrics"));
        assert!(!references_table(&sel, "other"));
    }
}
