//! The `Database` façade: the one door every statement enters through.
//!
//! The statement path, top to bottom:
//!
//! 1. the outermost caller — [`Database::execute`] when embedded, the
//!    server session (before admission) when served — asks the flight
//!    recorder *once* whether the statement is traced, then calls
//! 2. [`Database::run`], which enters the statement's [`QueryContext`]
//!    (cancel token, trace, pool) once and builds its one record (text or
//!    prepared tree, context, [`QueryProfile`]) for
//! 3. `dispatch`: a warm bare SELECT takes its plan from the cache and goes
//!    straight to 4; anything else is parsed and matched on. Every SELECT
//!    body (SELECT, EXPLAIN, CREATE … AS) the cache has no plan for gets
//!    one from `optimized_for` — bind → optimize → insert — and ends in
//! 4. `run_plan`: physical planning, then `Executor::execute`.
//! 5. Back in `run` the trace is finished and exported (`EXPLAIN TRACE`
//!    replies with it), counters and slow-query log are fed, and the
//!    profile — every stage timed once, by [`QueryProfile::time`] —
//!    becomes [`Database::last_profile`].

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lardb_exec::{
    CancelToken, Cluster, ExecError, ExecStats, Executor, MemoryConfig, NetConfig,
    TransportMode,
};
use lardb_pool::{QueryContext, WorkerPool};
use lardb_obs::{ActiveTrace, OperatorProfile, QueryProfile, Stage};
use lardb_planner::physical::{PhysicalPlan, PhysicalPlanner};
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

/// Engine configuration. No field picks how expressions are evaluated:
/// every query compiles them, typed when planned, and its kernels answer
/// as the row interpreter would, which remains only the test suites'
/// oracle ([`Database::interpreted_oracle`]).
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Number of simulated shared-nothing workers (the paper used 10
    /// machines × 8 cores).
    pub workers: usize,
    /// Optimizer switches (size inference, early projection, DP budget).
    pub optimizer: OptimizerConfig,
    /// How exchange operators move batches between workers: `Pointer`
    /// (in-memory hand-off) or `Serialized` (wire-encoded over bounded
    /// channels). Both count the same shuffle bytes and frames.
    pub transport: TransportMode,
    /// Slow-query log threshold in milliseconds. Statements that take at
    /// least this long are reported on stderr and counted under the
    /// `db.slow_queries` metric. `None` (the default) disables the log.
    pub slow_query_ms: Option<f64>,
    /// Threads in the persistent worker pool that runs every partition
    /// task and fans out large dense kernels. `None` (the default) runs on the
    /// process pool, one thread per core; `Some(n)` gives this database a
    /// dedicated pool of `n` threads, created once and reused by every
    /// query. Either way a query's kernel counts are its own.
    pub pool_workers: Option<usize>,
    /// Network-layer knobs for serialized exchanges: the maximum accepted
    /// frame size, and an optional deterministic fault
    /// injection plan (see `lardb_exec::FaultPlan`) for chaos testing.
    pub net: NetConfig,
    /// Memory budget for pipeline-breaking operators, in MiB: `Some(n)`
    /// is an `n`-MiB budget, `None` (the default) and `Some(0)` are
    /// unbounded. Either way the governor is this database's own (shared
    /// with its clones, never with another database). When a hash join or
    /// grouped aggregate cannot reserve its working set it spills
    /// partitions to disk and finishes out-of-core (see `lardb_buf`).
    pub mem: Option<u64>,
    /// Directory for spill files. `None` (the default) uses the OS temp
    /// dir. Spill files are removed as soon as they are drained (and on
    /// abort).
    pub spill_dir: Option<std::path::PathBuf>,
    /// Directory where each completed query trace is written as Chrome
    /// trace-event JSON (`trace-<id>.json`, loadable in Perfetto /
    /// `chrome://tracing`). `None` (the default) keeps traces only in the
    /// in-memory flight recorder. *Which* statements are traced is set on
    /// the process-wide recorder (`lardb_obs::recorder()`), not here.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Rows per column batch of the chunk pipeline that filters,
    /// projections, join residuals and aggregates run in (default
    /// [`lardb_exec::DEFAULT_BATCH_ROWS`]): every chunk is pivoted into
    /// columns and evaluated by compiled kernels, which answer each row as
    /// the row interpreter does, values and errors.
    /// Smaller batches stay cache-resident; larger ones amortize the
    /// pivot and dispatch further.
    pub batch_rows: usize,
    /// Capacity of the normalized plan cache in entries (default
    /// [`crate::plan_cache::DEFAULT_PLAN_CACHE_ENTRIES`]). Repeat SELECTs
    /// whose shape, literals, catalog version and optimizer knobs all
    /// match a cached entry skip parse/bind/optimize entirely. `0`
    /// disables caching.
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
            net: NetConfig::default(),
            mem: None,
            spill_dir: None,
            trace_dir: None,
            batch_rows: lardb_exec::DEFAULT_BATCH_ROWS,
            plan_cache_entries: DEFAULT_PLAN_CACHE_ENTRIES,
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

/// What [`Database::run`] executes: SQL text, or a statement prepared once
/// whose parse tree and plan-cache shape are reused.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// SQL text, parsed (and normalized for the plan cache) here.
    Sql(&'a str),
    /// A handle from [`Database::prepare`]; never re-parsed.
    Prepared(&'a PreparedStatement),
}

/// Everything one statement carries through the path: what it arrived
/// with and what the path learns about it on the way. Built by
/// [`Database::run`] for a statement, and with nothing but a label for an
/// engine-internal query (materialized-view maintenance).
pub(crate) struct StatementRun<'a> {
    sql: &'a str,
    prepared: Option<&'a PreparedStatement>,
    /// The context the statement runs in (entered by whoever built the
    /// record); its stages are timed onto the context's trace.
    ctx: QueryContext,
    profile: QueryProfile,
    /// When parsing the SQL text began: an `EXPLAIN TRACE` that arrived
    /// untraced puts the parse it measured on the trace it forces.
    parse_started: Option<Instant>,
    /// `EXPLAIN TRACE`: the reply is the finished trace.
    reply_with_trace: bool,
}

impl<'a> StatementRun<'a> {
    pub(crate) fn new(
        sql: &'a str,
        prepared: Option<&'a PreparedStatement>,
        ctx: QueryContext,
    ) -> Self {
        let profile = QueryProfile::new(sql);
        StatementRun { sql, prepared, ctx, profile, parse_started: None, reply_with_trace: false }
    }
}

/// A SELECT-shaped statement's plan-cache key parts, captured once and
/// before any bind: the cache is asked under this version and a plan is
/// inserted under it, so a plan is only ever cached under the catalog
/// version it was bound at (a concurrent DDL drops the insert).
pub(crate) struct Shape {
    norm: NormalizedStatement,
    fingerprint: u64,
    version: u64,
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
    /// The [`QueryProfile`] of the most recent statement (shared across
    /// clones, like the catalog).
    last_profile: Arc<Mutex<Option<QueryProfile>>>,
    /// Names of the introspection relations ([`RELATIONS`]) the engine has
    /// materialized in the catalog and may therefore replace; a table of
    /// such a name that is *not* in here is the user's and is never
    /// touched. The lock is held across check-and-replace, so concurrent
    /// readers of one relation refresh it one after the other.
    auto_tables: Arc<Mutex<HashSet<&'static str>>>,
    /// The dedicated worker pool when [`DatabaseConfig::pool_workers`] is
    /// set — created once here and shared by every query's cluster (and
    /// by clones of this database). `None` ⇒ the process-wide pool.
    pub(crate) pool: Option<Arc<WorkerPool>>,
    /// Memory governor + spill directory every query's executor runs
    /// under, built once from [`DatabaseConfig::mem`] /
    /// [`DatabaseConfig::spill_dir`] so reservations and peak tracking
    /// are shared across queries (and clones) of this database.
    mem: MemoryConfig,
    /// Session/query bookkeeping shared across clones: `SHOW SESSIONS`
    /// renders it, `KILL <query-id>` cancels through it. The query server
    /// registers each connection here.
    sessions: Arc<SessionRegistry>,
    /// The server session this clone serves, as (session id, tenant);
    /// per-clone, not shared.
    session: Option<(u64, String)>,
    /// The normalized plan cache, shared across clones like the catalog
    /// (a schema change seen by one session must invalidate them all).
    plan_cache: Arc<PlanCache>,
    /// Every query runs on [`Executor::interpreted`]: set only by
    /// [`Database::interpreted_oracle`].
    interpreted: bool,
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

    /// A database with explicit configuration. Touches nothing outside
    /// the returned value; its governor and its queries' kernel counts are
    /// its own. The flight recorder, the metrics registry and the process
    /// pool (`pool_workers: None`) belong to the process by design.
    pub fn with_config(config: DatabaseConfig) -> Self {
        let pool = config.pool_workers.map(|n| Arc::new(WorkerPool::new(n)));
        let budget = config.mem.filter(|&mb| mb > 0).map(|mb| mb * 1024 * 1024);
        let mem = MemoryConfig::with_budget(budget, config.spill_dir.clone());
        let plan_cache = Arc::new(PlanCache::new(config.plan_cache_entries));
        Database {
            catalog: Arc::new(Catalog::new()),
            config,
            last_profile: Arc::new(Mutex::new(None)),
            auto_tables: Arc::default(),
            pool,
            mem,
            sessions: Arc::new(SessionRegistry::new()),
            session: None,
            plan_cache,
            interpreted: false,
        }
    }

    /// The differential suites' oracle, not a product setting: this
    /// database runs every query on [`Executor::interpreted`], the row
    /// interpreter over every chunk, with nothing compiled or pivoted.
    #[doc(hidden)]
    pub fn interpreted_oracle(mut self) -> Self {
        self.interpreted = true;
        self
    }

    /// The cluster every query of this database executes on: the
    /// configured worker count and (if dedicated) worker pool.
    fn cluster(&self) -> Cluster {
        let cluster = Cluster::new(self.config.workers);
        match &self.pool {
            Some(pool) => cluster.with_pool(Arc::clone(pool)),
            None => cluster,
        }
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
    /// uses this to give a clone a *tenant* governor: a sub-budget of this
    /// database's governor, so one tenant's reservations are capped
    /// without losing database-wide accounting. Catalog, pool, profile
    /// slot and session registry stay shared with the original.
    pub fn with_memory_config(mut self, mem: MemoryConfig) -> Self {
        self.mem = mem;
        self
    }

    /// Makes this clone the one serving session `id` of `tenant` (builder
    /// style): its slow-query log lines are tagged `session <id> tenant
    /// <tenant>`, and a trace it has to force (`EXPLAIN TRACE` on an
    /// unsampled statement) is the tenant's.
    pub fn with_session(mut self, id: u64, tenant: impl Into<String>) -> Self {
        self.session = Some((id, tenant.into()));
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Sets the exchange transport mode (builder style). `Serialized`
    /// encodes every boundary-crossing batch through the `lardb-net` wire
    /// codec and ships it; shuffle bytes and frames read alike under
    /// either mode.
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.config.transport = transport;
        self
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

    /// The [`QueryProfile`] of the most recent statement that went through
    /// [`Database::run`] on any clone — DDL and INSERT included, their
    /// plan-stage timings zero and `operators` empty — or `None` before
    /// the first one. A statement that ran a plan (SELECT, EXPLAIN
    /// ANALYZE, CREATE TABLE AS) carries the lifecycle stage timings plus
    /// per-operator estimate-vs-actual records. Engine-internal queries
    /// (materialized-view maintenance) never show up here.
    pub fn last_profile(&self) -> Option<QueryProfile> {
        self.last_profile.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Executes one SQL statement: asks the flight recorder whether to
    /// trace it, then [`Database::run`]s it.
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
        let trace = lardb_obs::recorder().start(sql, "embedded");
        self.run(Source::Sql(sql), None, trace.as_ref())
    }

    /// Executes a prepared statement, sampled like [`Database::execute`].
    /// The stored parse tree is reused and the precomputed shape key
    /// routes SELECTs through the plan cache — repeat executions skip
    /// parse, bind *and* optimize.
    pub fn execute_prepared(&self, prepared: &PreparedStatement) -> Result<Response> {
        let trace = lardb_obs::recorder().start(&prepared.sql, "embedded");
        self.run(Source::Prepared(prepared), None, trace.as_ref())
    }

    /// The one statement entry; `execute*` and the query server both land
    /// here.
    ///
    /// * `cancel` — an externally-owned token: flipping it (from any
    ///   thread) aborts the statement at the next task or chunk
    ///   boundary with `ExecError::Cancelled`. The server wires `KILL
    ///   <query-id>` and client-disconnect detection to it. A statement
    ///   whose token is already cancelled changes nothing: one that runs a
    ///   plan stops when execution starts, any other before it writes.
    ///   `None` gives the statement a token of its own.
    /// * `trace` — the caller's sampling decision. `run` never asks the
    ///   recorder to sample: the caller did (the server before admission,
    ///   so queue wait is on the trace), and `None` means untraced. The
    ///   trace is finished here — frozen into the recorder ring with the
    ///   error, if any, and exported to [`DatabaseConfig::trace_dir`] —
    ///   exactly once; the caller must not finish it again.
    ///
    /// Token, trace and this database's pool are the statement's
    /// [`QueryContext`], entered once here for the whole statement.
    pub fn run(
        &self,
        source: Source<'_>,
        cancel: Option<&CancelToken>,
        trace: Option<&Arc<ActiveTrace>>,
    ) -> Result<Response> {
        let t0 = Instant::now();
        let (sql, prepared) = match source {
            Source::Sql(sql) => (sql, None),
            Source::Prepared(p) => (&*p.sql, Some(p)),
        };
        let cancel = cancel.cloned().unwrap_or_default();
        let ctx = QueryContext::new(cancel, trace.cloned(), self.pool.clone());
        let _entered = ctx.enter();
        if let Some(trace) = trace {
            trace.set_running();
        }
        let mut st = StatementRun::new(sql, prepared, ctx);
        let mut result = self.dispatch(&mut st);
        let StatementRun { ctx, profile, reply_with_trace, .. } = st;
        let mut trace_ids = None;
        if let Some(trace) = ctx.trace() {
            if let Ok(Response::Rows(q)) = &result {
                trace.add_rows(q.rows.len() as u64);
            }
            let err = result.as_ref().err().map(|e| e.to_string());
            let done = lardb_obs::recorder().finish(trace, err.as_deref());
            // Best-effort export: tracing must never fail a query.
            if let Some(dir) = &self.config.trace_dir {
                let _ = std::fs::create_dir_all(dir);
                let _ = std::fs::write(
                    dir.join(format!("trace-{}.json", done.id)),
                    done.to_chrome_json(),
                );
            }
            trace_ids = Some((done.id, done.query_id));
            if reply_with_trace && result.is_ok() {
                result = Ok(Response::Explained(done.to_chrome_json()));
            }
        }
        self.finish_statement(sql, t0, result.is_err(), profile, trace_ids);
        result
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
                let label = match &self.session {
                    Some((id, tenant)) => format!(" [session {id} tenant {tenant}]"),
                    None => String::new(),
                };
                eprintln!(
                    "[lardb] slow query ({ms:.1} ms ≥ {threshold:.1} ms){label}{ids}: {sql}"
                );
            }
        }
        *self.last_profile.lock().unwrap_or_else(|e| e.into_inner()) = Some(profile);
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
    /// the plan cache, by the path a cold execution takes. Failures are
    /// swallowed: they will surface (typed) when the statement is executed.
    fn warm_plan_cache(&self, prepared: &PreparedStatement) {
        let (Some(norm), Statement::Select(sel)) = (&prepared.norm, &prepared.statement) else {
            return;
        };
        if norm.kind == StatementKind::Select && !references_virtual(sel) {
            let shape = self.shape(norm.clone());
            let ctx = QueryContext::new(CancelToken::new(), None, None);
            let mut st = StatementRun::new(&prepared.sql, None, ctx);
            let _ = self.optimized_for(&mut st, Some(&shape), sel);
        }
    }

    /// `norm` with the rest of its plan-cache key, as of now: the catalog
    /// version, and a fingerprint of the configuration knobs an optimized
    /// plan depends on, so clones with diverged optimizer settings never
    /// share entries.
    fn shape(&self, norm: NormalizedStatement) -> Shape {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.config.optimizer.size_inference.hash(&mut h);
        self.config.optimizer.early_projection.hash(&mut h);
        self.config.optimizer.max_dp_inputs.hash(&mut h);
        Shape { norm, fingerprint: h.finish(), version: self.plan_cache.version() }
    }

    /// Statement dispatch. Every lifecycle stage that runs is timed into
    /// `st.profile` (and the statement's trace); a stage that is skipped — the
    /// front end of a warm SELECT, the parse of a prepared statement —
    /// stays at the profile's pre-seeded zero and leaves no span.
    fn dispatch(&self, st: &mut StatementRun<'_>) -> Result<Response> {
        let norm = match st.prepared {
            Some(p) => p.norm.clone(),
            None if self.plan_cache.enabled() => normalize(st.sql),
            None => None,
        };
        let shape = norm.map(|norm| self.shape(norm));
        // The one question a SELECT-shaped statement asks the plan cache,
        // before it is parsed. A bare SELECT that hits skips parse, bind
        // and optimize entirely. Cached shapes never reference the
        // introspection relations (gated at insert), so skipping their
        // refresh is sound.
        let cached = shape
            .as_ref()
            .and_then(|s| self.plan_cache.lookup(&s.norm, s.fingerprint, s.version));
        let bare_select = shape.as_ref().is_some_and(|s| s.norm.kind == StatementKind::Select);
        if let (Some(plan), true) = (&cached, bare_select) {
            let (result, _) = self.run_plan(st, plan, true)?;
            return Ok(Response::Rows(result));
        }
        let statement = match st.prepared {
            Some(p) => p.statement.clone(),
            None => {
                st.parse_started = Some(Instant::now());
                st.profile.time(Stage::Parse, st.ctx.trace(), || parse_statement(st.sql))?
            }
        };
        // A killed statement changes nothing. One that runs a plan goes
        // through its front end and stops where execution starts; any
        // other stops here, before it writes.
        use Statement::{CreateMaterializedView as Cmv, CreateTableAs as Ctas, Explain, Select};
        let plans = matches!(statement, Select(_) | Explain { .. } | Ctas { .. } | Cmv { .. });
        if !plans && st.ctx.cancel_token().is_cancelled() {
            return Err(ExecError::Cancelled("query killed before execution".into()).into());
        }
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
                let (optimized, _) = self.optimized_for(st, None, &query)?;
                let (result, _) = self.run_plan(st, &optimized, /*gather=*/ false)?;
                let n = self.materialize(&name, result.schema, result.rows, false)?;
                self.plan_cache.bump(InvalidationReason::Ddl);
                Ok(Response::Inserted(n))
            }
            Statement::CreateView { name, columns, query, sql } => {
                // Validate now so errors surface at CREATE VIEW time.
                let plan = Binder::new(&self.catalog).bind_select(&query)?;
                if let Some(cols) = &columns {
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
                let (optimized, _) = self.optimized_for(st, None, &query)?;
                // Lineage from the *plan*: views are expanded, so these
                // are the base tables whose INSERTs must maintain the
                // view. Lineage through another materialized view is
                // rejected outright: maintenance writes to backing tables
                // directly (not through INSERT dispatch), so a view over
                // a view's backing table would silently go stale.
                let base_tables = crate::matview::scan_tables(&optimized);
                if let Some(mv) = base_tables.iter().find(|t| self.catalog.has_matview(t))
                {
                    return Err(EngineError::Usage(format!(
                        "cannot create materialized view {name} over materialized \
                         view {mv}: maintenance does not cascade through \
                         materialized views"
                    )));
                }
                let (result, _) = self.run_plan(st, &optimized, /*gather=*/ false)?;
                let n = self.materialize(&name, result.schema, result.rows, false)?;
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
                let mut literals = Vec::with_capacity(rows.len());
                for r in rows {
                    let mut vals = Vec::with_capacity(r.len());
                    for e in &r {
                        let bound = binder.bind_expr(e, &empty)?;
                        vals.push(lardb_exec::eval::eval(&bound, &empty_row)?);
                    }
                    literals.push(Row::new(vals));
                }
                Ok(Response::Inserted(self.insert_rows(&table, literals)?))
            }
            Statement::Select(sel) => {
                self.refresh_virtual_tables(&sel)?;
                let shape = shape.filter(|_| !references_virtual(&sel));
                if shape.is_none() && self.plan_cache.enabled() {
                    self.plan_cache.note_uncacheable();
                }
                let (optimized, _) = self.optimized_for(st, shape.as_ref(), &sel)?;
                let (result, _) = self.run_plan(st, &optimized, true)?;
                Ok(Response::Rows(result))
            }
            Statement::Explain { query, analyze, trace } => {
                self.refresh_virtual_tables(&query)?;
                let _forced = if trace && st.ctx.trace().is_none() {
                    // EXPLAIN TRACE on a statement nobody sampled: force a
                    // trace now (bind onward runs live in a context under
                    // it) and put the parse that was just measured on it.
                    let tenant = self.session.as_ref().map_or("embedded", |(_, t)| t);
                    let forced = lardb_obs::recorder().start_forced(st.sql, tenant);
                    if let Some(at) = st.parse_started {
                        let ms = st.profile.stage_ms(Stage::Parse.name()).unwrap_or(0.0);
                        let parse = Duration::from_secs_f64(ms / 1e3);
                        forced.record(Stage::Parse.name(), "query", at, parse, Vec::new());
                    }
                    forced.set_running();
                    let cancel = st.ctx.cancel_token().clone();
                    st.ctx = QueryContext::new(cancel, Some(forced), self.pool.clone());
                    Some(st.ctx.enter())
                } else {
                    None
                };
                // EXPLAIN shares the wrapped SELECT's cache shape (the
                // prefix is stripped during normalization): a hit reuses
                // the cached optimized plan and says so; a miss seeds the
                // cache for the bare statement.
                let shape = shape.filter(|_| !references_virtual(&query));
                let (optimized, cache_note) = match cached {
                    Some(plan) => (plan, "hit"),
                    None => self.optimized_for(st, shape.as_ref(), &query)?,
                };
                if trace {
                    // The reply is the statement's finished trace, which
                    // only `run` can produce; hand it the rows to count.
                    st.reply_with_trace = true;
                    let (result, _) = self.run_plan(st, &optimized, true)?;
                    return Ok(Response::Rows(result));
                }
                // EXPLAIN ANALYZE prints the physical plan it ran.
                let ran = if analyze { Some(self.run_plan(st, &optimized, true)?) } else { None };
                let mut text = match &ran {
                    Some((_, physical)) => explain_text(&optimized, physical),
                    None => self.explain_optimized(&optimized)?,
                };
                if !text.ends_with('\n') {
                    text.push('\n');
                }
                text.push_str(&format!("plan cache: {cache_note}\n"));
                if let Some((result, _)) = ran {
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
                    if result.stats.total_batches() > 0 {
                        text.push_str(&format!(
                            "vectorized: {} batches, {} rows, {} kernel dispatches\n",
                            result.stats.total_batches(),
                            result.stats.total_batch_rows(),
                            result.stats.total_kernels(),
                        ));
                    }
                    let d = result.stats.dispatch;
                    if d.any() {
                        text.push_str(&format!(
                            "la dispatch: {} dense, {} spmv, \
                             {} sp×dense, {} spgemm, {} densified\n",
                            d.dense,
                            d.spmv,
                            d.sp_dense,
                            d.spgemm,
                            d.densified,
                        ));
                    }
                    text.push_str(&render_estimate_table(&st.profile.operators));
                }
                Ok(Response::Explained(text))
            }
            Statement::ShowMetrics => Ok(Response::Rows(self.relation("metrics"))),
            Statement::ShowSessions => Ok(Response::Rows(self.relation("sessions"))),
            Statement::ShowQueries => Ok(Response::Rows(self.relation("queries"))),
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
                self.explain_optimized(&self.optimize(plan)?)
            }
            _ => Err(EngineError::Usage("EXPLAIN expects a SELECT".into())),
        }
    }

    /// Renders the EXPLAIN text for an already-optimized plan (the
    /// statement path arrives here with a cached or freshly-optimized
    /// plan in hand).
    fn explain_optimized(&self, optimized: &LogicalPlan) -> Result<String> {
        let mut pp = PhysicalPlanner::new(&self.catalog, self.catalog.as_ref());
        Ok(explain_text(optimized, &pp.plan_gathered(optimized)?))
    }

    /// Logical rewrites + cost-based join ordering under this database's
    /// optimizer knobs.
    fn optimize(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        let optimizer = Optimizer::new(self.catalog.as_ref(), self.config.optimizer.clone());
        Ok(optimizer.optimize(plan)?)
    }

    /// Bind → optimize for a SELECT the plan cache had no plan for, and
    /// what becomes of the plan: `miss` — inserted under the version
    /// `shape` captured before the bind; `off` — no cacheable shape (cache
    /// disabled, a SELECT over an introspection relation, CREATE … AS, an
    /// engine-internal query), so not inserted.
    pub(crate) fn optimized_for(
        &self,
        st: &mut StatementRun<'_>,
        shape: Option<&Shape>,
        sel: &SelectStatement,
    ) -> Result<(Arc<LogicalPlan>, &'static str)> {
        let binder = Binder::new(&self.catalog);
        let trace = st.ctx.trace();
        let plan = st.profile.time(Stage::Bind, trace, || binder.bind_select(sel))?;
        let optimized =
            Arc::new(st.profile.time(Stage::Optimize, trace, || self.optimize(plan))?);
        let Some(shape) = shape else { return Ok((optimized, "off")) };
        self.plan_cache.insert(
            &shape.norm,
            shape.fingerprint,
            shape.version,
            &crate::matview::scan_tables(&optimized),
            Arc::clone(&optimized),
        );
        Ok((optimized, "miss"))
    }

    /// The back half every plan goes through: physical planning and
    /// execution under their stages, per-operator estimate-vs-actual
    /// records appended to the statement's profile. Returns the result and
    /// the physical plan that produced it (EXPLAIN ANALYZE prints that
    /// plan). Plan-cache hits enter here directly, which is exactly what
    /// makes the parse/bind/optimize stages disappear from their profiles.
    ///
    /// Actual bytes are the metered shuffle bytes for exchanges; other
    /// operators don't move data across workers, so their "actual" bytes
    /// are derived as measured rows × the cost model's row width.
    pub(crate) fn run_plan(
        &self,
        st: &mut StatementRun<'_>,
        optimized: &LogicalPlan,
        gather: bool,
    ) -> Result<(QueryResult, PhysicalPlan)> {
        let mut pp = PhysicalPlanner::new(&self.catalog, self.catalog.as_ref());
        let trace = st.ctx.trace();
        let physical = st.profile.time(Stage::Plan, trace, || {
            if gather {
                pp.plan_gathered(optimized)
            } else {
                pp.plan(optimized)
            }
        })?;
        // Runs in a child of the thread's context, which is `st.ctx`.
        let mut result = st.profile.time(Stage::Execute, trace, || {
            let executor = Executor::new(&self.catalog, self.cluster())
                .with_transport(self.config.transport)
                .with_net_config(self.config.net.clone())
                .with_memory(self.mem.clone())
                .with_batch_rows(self.config.batch_rows);
            if self.interpreted { executor.interpreted() } else { executor }.execute(&physical)
        })?;
        st.profile.operators.extend(join_estimates(pp.estimates(), &result.stats));
        let schema = result.schema.clone();
        let stats = std::mem::take(&mut result.stats);
        Ok((QueryResult { schema, rows: result.into_rows(), stats }, physical))
    }

    /// The one way a query result becomes a catalog table: `name` is built
    /// fully from `rows` (moved in, not copied) and only then placed —
    /// created when `swap` is false (an existing name is an error), else
    /// swapped through the existing catalog handle under its write lock,
    /// so a concurrent SELECT sees the old rows or the new, never a
    /// missing table. An error while building leaves the catalog as it
    /// was. Returns the row count.
    pub(crate) fn materialize(
        &self,
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
        swap: bool,
    ) -> Result<usize> {
        let n = rows.len();
        let mut table = Table::new(name, schema, self.config.workers, Partitioning::RoundRobin);
        table.insert_all(rows)?;
        if swap {
            *self.catalog.table(name)?.write() = table;
        } else {
            self.catalog.create_table(table)?;
        }
        Ok(n)
    }

    /// The current rows of one of the [`RELATIONS`], as `SHOW <NAME>`
    /// replies with them.
    fn relation(&self, name: &str) -> QueryResult {
        let (_, schema, rows) = RELATIONS
            .iter()
            .find(|(relation, ..)| *relation == name)
            .expect("SHOW names a relation of RELATIONS");
        QueryResult { schema: schema(), rows: rows(self), stats: ExecStats::new() }
    }

    /// Re-materializes each of the [`RELATIONS`] that `sel` references
    /// (directly or in a subquery) from a fresh snapshot, so live engine
    /// state can be filtered, joined and aggregated with ordinary SQL. A
    /// user-created table with one of these names is never touched.
    fn refresh_virtual_tables(&self, sel: &SelectStatement) -> Result<()> {
        for (name, schema, rows) in RELATIONS {
            if !references_table(sel, name) {
                continue;
            }
            let mut auto = self.auto_tables.lock().unwrap_or_else(|e| e.into_inner());
            let exists = self.catalog.has_table(name);
            if exists && !auto.contains(name) {
                continue; // the user's own table; never clobber it
            }
            self.materialize(name, schema(), rows(self), exists)?;
            auto.insert(name);
        }
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

    /// Appends `rows` to `table`: SQL `INSERT` lands here with its
    /// evaluated literals, generators call it directly (vectors and
    /// matrices cannot be written as SQL literals). Maintains the
    /// materialized views over the table and invalidates the cached plans
    /// that read it.
    pub fn insert_rows(
        &self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<usize> {
        let rows: Vec<Row> = rows.into_iter().collect();
        let n = rows.len();
        let handle = self.catalog.table(table)?;
        // Clone the delta only when some materialized view's lineage
        // includes this table.
        if self.catalog.matviews_on(table).is_empty() {
            handle.write().insert_all(rows)?;
        } else {
            let delta = rows.clone();
            handle.write().insert_all(rows)?;
            self.maintain_matviews_on(table, &delta)?;
        }
        // Per-table: only cached plans reading this table (or a
        // maintained view, bumped during maintenance) go stale.
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

/// The introspection relations, each as (name, schema, current rows).
/// `SHOW METRICS|SESSIONS|QUERIES` replies with one directly; a SELECT
/// that names one reads the same schema and rows, materialized into the
/// catalog for the statement.
type Relation = (&'static str, fn() -> Schema, fn(&Database) -> Vec<Row>);
const RELATIONS: [Relation; 3] = [
    ("metrics", metrics_schema, |_| metric_rows()),
    ("queries", queries_schema, |_| queries_rows()),
    ("sessions", sessions_schema, |db| sessions_rows(&db.sessions)),
];

/// True when the SELECT references one of the [`RELATIONS`]. Their
/// contents change between executions (each reference re-snapshots live
/// engine state from the AST), so plans over them must never be served
/// from the cache.
fn references_virtual(sel: &SelectStatement) -> bool {
    RELATIONS.iter().any(|(name, ..)| references_table(sel, name))
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

/// Joins the planner's per-operator estimates against the executor's
/// measured actuals, producing one [`OperatorProfile`] per operator in
/// completion order. Exchange operators report metered shuffle bytes;
/// for all other operators the "actual" bytes are derived (measured rows
/// × the cost model's row width), since nothing was shipped.
fn join_estimates(estimates: &[PlanEstimate], stats: &ExecStats) -> Vec<OperatorProfile> {
    stats
        .operators()
        .iter()
        .map(|op| {
            let est = estimates.get(op.id).copied().unwrap_or(PlanEstimate::new(0.0, 0.0));
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

/// The EXPLAIN text of an optimized plan and the physical plan made of it.
fn explain_text(optimized: &LogicalPlan, physical: &PhysicalPlan) -> String {
    format!(
        "== Optimized Logical Plan ==\n{}\n== Physical Plan ==\n{}",
        optimized.display_tree(),
        physical.display_tree()
    )
}

/// Renders the EXPLAIN ANALYZE estimate-vs-actual section: est/actual
/// rows and megabytes plus the per-operator q-error of each. An `act_MB`
/// that was modeled, not counted, is marked `~`: every operator's but an
/// exchange's (measured rows × modeled width).
fn render_estimate_table(operators: &[OperatorProfile]) -> String {
    let label_w = operators.iter().map(|o| o.label.len()).max().unwrap_or(0).max(24);
    let mut out = format!(
        "== Estimate vs Actual ==\n{:<5} {:<label_w$} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}\n",
        "id", "operator", "est_rows", "act_rows", "q_rows", "est_MB", "act_MB", "q_MB",
    );
    for o in operators {
        let mark = if o.label.starts_with("Exchange") { "" } else { "~" };
        out.push_str(&format!(
            "{:<5} {:<label_w$} {:>12.0} {:>12.0} {:>8.2} {:>10.3} {:>10} {:>8.2}\n",
            o.id,
            o.label,
            o.est_rows,
            o.actual_rows,
            o.q_error_rows(),
            o.est_bytes / 1e6,
            format!("{mark}{:.3}", o.actual_bytes / 1e6),
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

    /// The §5 distance shape over NULL, ±0, NaN-bearing and mismatched
    /// vectors: compiled kernels answer as the interpreter, and a lane
    /// of the wrong dimension raises the interpreter's own message.
    #[test]
    fn inner_product_lanes_answer_as_the_interpreter() {
        let sql = "SELECT a.id, MIN(inner_product(a.val, b.val)) AS d, \
                   MAX(norm2(b.val)) AS n FROM x AS a, x AS b GROUP BY a.id";
        let run = |compiled, extra: Option<Vec<f64>>| {
            let db = Database::new(2);
            let db = if compiled { db } else { db.interpreted_oracle() };
            db.create_table(
                "x",
                Schema::from_pairs(&[("id", DataType::Integer), ("val", DataType::Vector(None))]),
                Partitioning::RoundRobin,
            )
            .unwrap();
            let mut vals = vec![
                Value::vector(Vector::from_slice(&[1.5, -2.0, 0.25])),
                Value::Null,
                Value::vector(Vector::from_slice(&[-0.0, 0.0, -0.0])),
                Value::vector(Vector::from_slice(&[f64::NAN, 1.0, 2.0])),
                Value::vector(Vector::from_slice(&[3.0, 4.0, 12.0])),
            ];
            vals.extend(extra.map(|v| Value::vector(Vector::from_slice(&v))));
            let rows: Vec<Row> = vals
                .into_iter()
                .enumerate()
                .map(|(i, v)| Row::new(vec![Value::Integer(i as i64), v]))
                .collect();
            db.insert_rows("x", rows).unwrap();
            db.query(sql)
        };
        let bits = |r: QueryResult| -> Vec<String> {
            let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows
        };
        let compiled = run(true, None).unwrap();
        assert!(compiled.stats.total_batches() > 0);
        let interpreted = run(false, None).unwrap();
        assert_eq!(bits(compiled), bits(interpreted));

        let bad = Some(vec![1.0, 2.0]);
        let compiled = run(true, bad.clone()).unwrap_err();
        let interpreted = run(false, bad).unwrap_err();
        assert_eq!(compiled.to_string(), interpreted.to_string());
        assert!(compiled.to_string().contains("inner_product"), "{compiled}");
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
        let sql = "EXPLAIN TRACE SELECT SUM(v) AS s FROM t";
        let Response::Explained(json) = db.execute(sql).unwrap() else {
            panic!("expected Explained");
        };
        assert!(json.contains("\"traceEvents\""), "{json}");
        for span in ["parse", "bind", "optimize", "plan", "execute"] {
            assert!(json.contains(&format!("\"name\": \"{span}\"")), "missing {span}");
        }
        // The umbrella event carries the SQL and the row count.
        assert!(json.contains("SUM(v)"), "{json}");
        // One statement, one trace: the reply is the ring's only entry for
        // it, with every stage on it once (the parse is not run again).
        let mut traces = lardb_obs::recorder().completed_snapshot();
        traces.retain(|t| t.sql == sql);
        assert_eq!(traces.len(), 1);
        for stage in Stage::LIFECYCLE {
            let spans = traces[0].events.iter().filter(|e| e.name == stage.name()).count();
            assert_eq!(spans, 1, "{} spans", stage.name());
        }
        assert_eq!(traces[0].rows, 1);
        assert!(json.contains(&traces[0].id.to_string()), "the reply is another trace");
    }

    /// Readers of one introspection relation refresh it in turn and swap
    /// it in whole: none ever finds it missing or already there.
    #[test]
    fn introspection_relations_survive_concurrent_readers() {
        let db = Database::new(2);
        for (name, ..) in RELATIONS {
            let sql = format!("SELECT COUNT(*) AS n FROM {name}");
            // Untraced: 3 600 statements would flush the recorder ring other
            // tests of this process look their traces up in.
            let reader = || (0..300).filter(|_| db.run(Source::Sql(&sql), None, None).is_err());
            let errors: usize = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..4).map(|_| scope.spawn(|| reader().count())).collect();
                readers.into_iter().map(|r| r.join().unwrap()).sum()
            });
            assert_eq!(errors, 0, "{name}");
            // SHOW and SELECT read one definition of the relation.
            let columns = |sql: String| -> Vec<(String, DataType)> {
                let schema = db.query(&sql).unwrap().schema;
                schema.columns().iter().map(|c| (c.name.clone(), c.dtype)).collect()
            };
            assert_eq!(columns(format!("SHOW {name}")), columns(format!("SELECT * FROM {name}")));
        }
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
        let db = Database::with_config(DatabaseConfig {
            workers: 2,
            slow_query_ms: Some(0.0),
            ..DatabaseConfig::default()
        });
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
        let err = db.run(Source::Sql("SELECT id FROM t"), Some(&cancel), None).unwrap_err();
        assert!(
            err.to_string().contains("killed") || err.to_string().contains("cancel"),
            "unexpected error: {err}"
        );
        // The same database still runs uncancelled statements fine.
        assert!(db.query("SELECT id FROM t").is_ok());
    }

    #[test]
    fn a_statement_killed_before_it_starts_writes_nothing() {
        let db = Database::new(2);
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let tables = db.catalog().table_names();
        let cancel = lardb_exec::CancelToken::new();
        cancel.cancel();
        for sql in ["INSERT INTO t VALUES (3)", "CREATE TABLE u (id INTEGER)"] {
            let err = db.run(Source::Sql(sql), Some(&cancel), None).unwrap_err();
            assert!(
                matches!(&err, EngineError::Exec(ExecError::Cancelled(m))
                    if m == "query killed before execution"),
                "{sql}: {err:?}"
            );
        }
        let n = db.query("SELECT COUNT(*) AS n FROM t").unwrap();
        assert_eq!(n.scalar().unwrap().as_integer(), Some(2));
        assert_eq!(db.catalog().table_names(), tables);
    }

    #[test]
    fn references_table_walks_subqueries() {
        let sql = "SELECT * FROM (SELECT name FROM metrics) AS m";
        let Ok(Statement::Select(sel)) = parse_statement(sql) else { panic!() };
        assert!(references_table(&sel, "metrics"));
        assert!(!references_table(&sel, "other"));
    }
}
