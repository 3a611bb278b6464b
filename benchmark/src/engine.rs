//! Every call into the engine's crates is in this file.
//!
//! Workloads and probes elsewhere in the benchmark speak in plain Rust
//! values (`f64` slices, [`Cell`] rows, SQL text). When an engine API moves,
//! this is the one file a `benchmark` issue edits.
//!
//! The benchmark measures the path a user gets by default. Apart from
//! `workers`, `pool_workers`, `mem`, `spill_dir` and the serialized
//! transport it names no engine knob.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use lardb::{
    Database, DatabaseConfig, ExecStats, Partitioning, Response, Row, Schema, TransportMode, Value,
};
use lardb_exec::batch::ColumnBatch;
use lardb_exec::{Cluster, Executor};
use lardb_la::{CooBuilder, Matrix, SparseMatrix, Vector};
use lardb_planner::physical::PhysicalPlanner;
use lardb_planner::Optimizer;
use lardb_pool::WorkerPool;
use lardb_server::{Client, QueryOutput, Server, ServerConfig, ServerError};
use lardb_sql::{parse_statement, Binder, Statement};
use lardb_storage::DataType;

use crate::span::Tracer;

/// Workers of every database and threads of its pool: the reference host
/// has two cores.
pub const WORKERS: usize = 2;

pub type Result<T> = std::result::Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ------------------------------------------------------------------ values

/// One generated value, before it becomes an engine value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Dbl(f64),
    Vector(Vec<f64>),
    /// Row-major dense matrix.
    Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColType {
    Int,
    Dbl,
    Vector(usize),
    Matrix(usize, usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    RoundRobin,
    Hash(usize),
    Replicated,
}

fn to_value(cell: Cell) -> Result<Value> {
    Ok(match cell {
        Cell::Int(v) => Value::Integer(v),
        Cell::Dbl(v) => Value::Double(v),
        Cell::Vector(v) => Value::vector(Vector::from_vec(v)),
        Cell::Matrix { rows, cols, data } => {
            Value::matrix(Matrix::from_vec(rows, cols, data).map_err(err)?)
        }
    })
}

fn to_rows(rows: Vec<Vec<Cell>>) -> Result<Vec<Row>> {
    rows.into_iter()
        .map(|r| {
            r.into_iter()
                .map(to_value)
                .collect::<Result<Vec<_>>>()
                .map(Row::new)
        })
        .collect()
}

/// Engine rows kept for a probe, so the probe runs on the workload's own
/// batches.
#[derive(Debug, Clone, Default)]
pub struct RowSample(Vec<Row>);

impl RowSample {
    pub fn rows(&self) -> usize {
        self.0.len()
    }
}

// ---------------------------------------------------------------- counters

/// Exact counters and engine-reported operator times of the statements of
/// one pass, read from the public `ExecStats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecCounts {
    pub statements: u64,
    pub batches: u64,
    pub fallbacks: u64,
    pub rows_shuffled: u64,
    pub bytes_shuffled: u64,
    pub frames: u64,
    pub spill_bytes: u64,
    pub spill_files: u64,
    pub dispatch_dense: u64,
    pub dispatch_spmv: u64,
    pub dispatch_densified: u64,
    /// Engine-reported wall time of operators whose label names a join, an
    /// aggregate, an exchange or a scan (`ExecStats::time_by_label`). A fused
    /// join→aggregate is reported by the engine under its join.
    pub join_s: f64,
    pub agg_s: f64,
    pub exchange_s: f64,
    pub scan_s: f64,
}

impl ExecCounts {
    fn from_stats(stats: &ExecStats) -> ExecCounts {
        let mut c = ExecCounts {
            statements: 1,
            batches: stats.total_batches() as u64,
            fallbacks: stats.total_fallbacks() as u64,
            rows_shuffled: stats.total_rows_shuffled() as u64,
            bytes_shuffled: stats.total_bytes_shuffled() as u64,
            frames: stats.total_frames() as u64,
            spill_bytes: stats.total_spill_bytes() as u64,
            spill_files: stats.total_spill_files() as u64,
            dispatch_dense: stats.dispatch.dense,
            dispatch_spmv: stats.dispatch.spmv,
            dispatch_densified: stats.dispatch.densified,
            ..ExecCounts::default()
        };
        for (label, wall) in stats.time_by_label() {
            let s = wall.as_secs_f64();
            if label.contains("Join") {
                c.join_s += s;
            } else if label.contains("Aggregate") {
                c.agg_s += s;
            } else if label.contains("Exchange") {
                c.exchange_s += s;
            } else if label.contains("Scan") {
                c.scan_s += s;
            }
        }
        c
    }

    pub fn add(&mut self, o: &ExecCounts) {
        self.statements += o.statements;
        self.batches += o.batches;
        self.fallbacks += o.fallbacks;
        self.rows_shuffled += o.rows_shuffled;
        self.bytes_shuffled += o.bytes_shuffled;
        self.frames += o.frames;
        self.spill_bytes += o.spill_bytes;
        self.spill_files += o.spill_files;
        self.dispatch_dense += o.dispatch_dense;
        self.dispatch_spmv += o.dispatch_spmv;
        self.dispatch_densified += o.dispatch_densified;
        self.join_s += o.join_s;
        self.agg_s += o.agg_s;
        self.exchange_s += o.exchange_s;
        self.scan_s += o.scan_s;
    }
}

/// Plan-cache counters of one database, from `Database::plan_cache_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
}

impl CacheCounts {
    /// Adds what the counters grew by between two readings.
    pub fn add_since(&mut self, before: CacheCounts, after: CacheCounts) {
        self.hits += after.hits.saturating_sub(before.hits);
        self.misses += after.misses.saturating_sub(before.misses);
        self.invalidations += after.invalidations.saturating_sub(before.invalidations);
    }
}

// ------------------------------------------------------------------ replies

/// What one statement produced.
#[derive(Debug, Default)]
pub struct Reply {
    rows: Vec<Row>,
    inserted: Option<u64>,
    /// Present when the statement ran a plan whose statistics the engine
    /// returned (a SELECT, or any statement of the traced run).
    pub counts: Option<ExecCounts>,
}

/// A dense matrix copied out of a reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Reply {
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn inserted(&self) -> Option<u64> {
        self.inserted
    }

    fn value(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows
            .get(row)
            .filter(|r| col < r.arity())
            .map(|r| r.value(col))
    }

    pub fn int(&self, row: usize, col: usize) -> Option<i64> {
        self.value(row, col)?.as_integer()
    }

    pub fn dbl(&self, row: usize, col: usize) -> Option<f64> {
        self.value(row, col)?.as_double()
    }

    pub fn vector(&self, row: usize, col: usize) -> Option<&[f64]> {
        self.value(row, col)?.as_vector().map(|v| v.as_slice())
    }

    /// The matrix in a cell, densified if the engine kept it sparse.
    pub fn matrix(&self, row: usize, col: usize) -> Option<Dense> {
        let m = self.value(row, col)?.to_dense_matrix()?;
        Some(Dense {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().to_vec(),
        })
    }
}

// ----------------------------------------------------------------- database

#[derive(Debug, Clone, Default)]
pub struct DbOptions {
    /// Exchanges encode rows through the wire codec instead of handing over
    /// pointers.
    pub serialized: bool,
    /// Memory budget in MiB for joins and aggregates; `None` is unbounded.
    pub mem_mib: Option<u64>,
    /// Private directory for spill files.
    pub spill_dir: Option<PathBuf>,
}

pub struct Db {
    db: Database,
    transport: TransportMode,
    /// Pool of the hand-driven executor in the traced run (the database's
    /// own pool is private to it).
    staging_pool: Arc<WorkerPool>,
}

impl Db {
    pub fn open(opts: &DbOptions) -> Db {
        let transport = if opts.serialized {
            TransportMode::Serialized
        } else {
            TransportMode::default()
        };
        let db = Database::with_config(DatabaseConfig {
            workers: WORKERS,
            pool_workers: Some(WORKERS),
            transport,
            // `Some(0)` is the engine's spelling of a private unbounded
            // governor, so the process-wide one is never shared.
            mem: Some(opts.mem_mib.unwrap_or(0)),
            spill_dir: opts.spill_dir.clone(),
            ..DatabaseConfig::default()
        });
        Db {
            db,
            transport,
            staging_pool: Arc::new(WorkerPool::new(WORKERS)),
        }
    }

    pub fn create_table(
        &self,
        name: &str,
        cols: &[(&str, ColType)],
        placement: Placement,
    ) -> Result<()> {
        let pairs: Vec<(&str, DataType)> = cols
            .iter()
            .map(|&(n, t)| {
                let dt = match t {
                    ColType::Int => DataType::Integer,
                    ColType::Dbl => DataType::Double,
                    ColType::Vector(n) => DataType::Vector(Some(n)),
                    ColType::Matrix(r, c) => DataType::Matrix(Some(r), Some(c)),
                };
                (n, dt)
            })
            .collect();
        let part = match placement {
            Placement::RoundRobin => Partitioning::RoundRobin,
            Placement::Hash(c) => Partitioning::Hash(c),
            Placement::Replicated => Partitioning::Replicated,
        };
        self.db
            .create_table(name, Schema::from_pairs(&pairs), part)
            .map_err(err)
    }

    /// Bulk load through `Database::insert_rows`.
    pub fn insert(&self, table: &str, rows: Vec<Vec<Cell>>) -> Result<usize> {
        self.db.insert_rows(table, to_rows(rows)?).map_err(err)
    }

    /// One statement through `Database::execute`, the path a user takes.
    pub fn execute(&self, sql: &str) -> Result<Reply> {
        Ok(match self.db.execute(sql).map_err(err)? {
            Response::Rows(q) => Reply {
                counts: Some(ExecCounts::from_stats(&q.stats)),
                rows: q.rows,
                inserted: None,
            },
            Response::Inserted(n) => Reply {
                inserted: Some(n as u64),
                ..Reply::default()
            },
            Response::Done | Response::Explained(_) => Reply::default(),
        })
    }

    /// The same statement driven by hand through the layers' public
    /// functions, each call inside a span. SELECT and CREATE TABLE AS are
    /// staged; any other statement goes through `Database::execute` under a
    /// `core.other` span. The plan cache is not on this path, so parse, bind
    /// and optimize are paid on every call.
    pub fn staged(&self, sql: &str, t: &mut Tracer) -> Result<Reply> {
        t.span("core.statement", |t| {
            let statement = t.span("sql.parse", |_| parse_statement(sql)).map_err(err)?;
            match statement {
                Statement::Select(sel) => {
                    let (_, rows, counts) = self.staged_select(&sel, true, t)?;
                    Ok(Reply {
                        rows,
                        inserted: None,
                        counts: Some(counts),
                    })
                }
                Statement::CreateTableAs { name, query } => {
                    let (schema, rows, counts) = self.staged_select(&query, false, t)?;
                    let n = t.span("storage.ctas_write", |_| -> Result<usize> {
                        self.db
                            .create_table(&name, schema, Partitioning::RoundRobin)
                            .map_err(err)?;
                        self.db.insert_rows(&name, rows).map_err(err)
                    })?;
                    Ok(Reply {
                        rows: Vec::new(),
                        inserted: Some(n as u64),
                        counts: Some(counts),
                    })
                }
                _ => t.span("core.other", |_| self.execute(sql)),
            }
        })
    }

    fn staged_select(
        &self,
        sel: &lardb_sql::SelectStatement,
        gather: bool,
        t: &mut Tracer,
    ) -> Result<(Schema, Vec<Row>, ExecCounts)> {
        let catalog = self.db.catalog();
        let bound = t
            .span("sql.bind", |_| Binder::new(catalog).bind_select(sel))
            .map_err(err)?;
        let optimized = t
            .span("planner.optimize", |_| {
                Optimizer::with_defaults(catalog).optimize(bound)
            })
            .map_err(err)?;
        let physical = t
            .span("planner.physical", |_| {
                let mut pp = PhysicalPlanner::new(catalog, catalog);
                if gather {
                    pp.plan_gathered(&optimized)
                } else {
                    pp.plan(&optimized)
                }
            })
            .map_err(err)?;
        let before = lardb_la::dispatch::dispatch_counters();
        let mut result = t
            .span("exec.execute", |_| {
                let cluster = Cluster::new(WORKERS).with_pool(Arc::clone(&self.staging_pool));
                Executor::new(catalog, cluster)
                    .with_transport(self.transport)
                    .with_memory(self.db.memory().clone())
                    .execute(&physical)
            })
            .map_err(err)?;
        result.stats.dispatch = lardb_la::dispatch::dispatch_counters().since(&before);
        let counts = ExecCounts::from_stats(&result.stats);
        let schema = result.schema.clone();
        Ok((schema, result.into_rows(), counts))
    }

    pub fn plan_cache(&self) -> CacheCounts {
        let s = self.db.plan_cache_stats();
        CacheCounts {
            hits: s.hits,
            misses: s.misses,
            invalidations: s.invalidations,
        }
    }

    /// Up to `limit` rows of a stored table, for probes.
    pub fn sample(&self, table: &str, limit: usize) -> Result<RowSample> {
        let handle = self.db.catalog().table(table).map_err(err)?;
        let guard = handle.read();
        Ok(RowSample(guard.iter_rows().take(limit).cloned().collect()))
    }
}

// ------------------------------------------------------------------- server

/// An in-process server on a loopback port, over a database.
pub struct Served {
    server: Option<Server>,
    addr: String,
}

impl Served {
    /// Starts the server with its default configuration on a free port.
    pub fn start(db: &Db) -> Result<Served> {
        let server = Server::start(db.db.clone(), ServerConfig::default()).map_err(err)?;
        let addr = server.local_addr().to_string();
        Ok(Served {
            server: Some(server),
            addr,
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// Dropping the handle stops accepting and waits for the accept loop and the
/// sessions to end.
impl Drop for Served {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Why a served statement produced no reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedError {
    /// Admission control refused the statement.
    Saturated(String),
    Other(String),
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn> {
        Client::connect(addr, "bench", "").map(Conn).map_err(err)
    }

    pub fn query(&mut self, sql: &str) -> std::result::Result<Reply, ServedError> {
        match self.0.query(sql) {
            Ok(QueryOutput::Rows { rows, .. }) => Ok(Reply {
                rows,
                ..Reply::default()
            }),
            Ok(QueryOutput::Inserted(n)) => Ok(Reply {
                inserted: Some(n),
                ..Reply::default()
            }),
            Ok(QueryOutput::Done | QueryOutput::Text(_)) => Ok(Reply::default()),
            Err(ServerError::Saturated { reason }) => Err(ServedError::Saturated(reason)),
            Err(e) => Err(ServedError::Other(e.to_string())),
        }
    }

    pub fn close(self) -> Result<()> {
        self.0.close().map_err(err)
    }
}

/// Turns the engine's flight recorder on or off for the whole process and
/// returns what it was.
pub fn set_recorder_enabled(on: bool) -> bool {
    let rec = lardb_obs::recorder();
    let was = rec.enabled();
    rec.set_enabled(on);
    was
}

// --------------------------------------------------------------- references
//
// Reference answers are computed with `lardb_la`'s dense and CSR types, on
// one thread of the benchmark, from the generated inputs.

fn dense(rows: usize, cols: usize, data: &[f64]) -> Result<Matrix> {
    Matrix::from_vec(rows, cols, data.to_vec()).map_err(err)
}

/// Largest absolute value, as the scale of a relative error.
fn scale(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Largest element-wise difference of `got` from `want`, relative to the
/// largest element of `want`. Different lengths are infinitely wrong.
pub fn relative_error(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let s = scale(want).max(f64::MIN_POSITIVE);
    got.iter().zip(want).fold(0.0f64, |m, (g, w)| {
        let d = (g - w).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            m.max(d / s)
        }
    })
}

/// How far `beta` is from solving the normal equations `XᵀX β = Xᵀy`,
/// relative to `Xᵀy`; `x` is `n × d` row-major.
pub fn normal_equations_error(
    x: &[f64],
    n: usize,
    d: usize,
    y: &[f64],
    beta: &[f64],
) -> Result<f64> {
    if beta.len() != d {
        return Ok(f64::INFINITY);
    }
    let xm = dense(n, d, x)?;
    let xt = xm.transpose();
    let fitted = xm
        .matrix_vector_multiply(&Vector::from_slice(beta))
        .map_err(err)?;
    let lhs = xt.matrix_vector_multiply(&fitted).map_err(err)?;
    let rhs = xt
        .matrix_vector_multiply(&Vector::from_slice(y))
        .map_err(err)?;
    Ok(relative_error(lhs.as_slice(), rhs.as_slice()))
}

/// `XᵀX`, row-major `d × d`.
pub fn gram_reference(x: &[f64], n: usize, d: usize) -> Result<Vec<f64>> {
    Ok(dense(n, d, x)?.gram().as_slice().to_vec())
}

/// The point whose nearest other point is farthest under `d(i, j) = xᵢ·(A xⱼ)`,
/// with that distance.
pub fn distance_reference(x: &[f64], n: usize, d: usize, a: &[f64]) -> Result<(usize, f64)> {
    let xm = dense(n, d, x)?;
    let am = dense(d, d, a)?;
    // Row j of X·Aᵀ is A xⱼ, so D = X · (X Aᵀ)ᵀ holds d(i, j).
    let ax = xm.multiply(&am.transpose()).map_err(err)?;
    let dist = xm.multiply(&ax.transpose()).map_err(err)?;
    let mut best = (0usize, f64::NEG_INFINITY);
    for i in 0..n {
        let row = dist.row(i);
        let nearest = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .fold(f64::INFINITY, |m, (_, &v)| m.min(v));
        if nearest > best.1 {
            best = (i, nearest);
        }
    }
    Ok(best)
}

/// `a × b` for row-major dense operands.
pub fn multiply_reference(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Result<Vec<f64>> {
    Ok(dense(m, k, a)?
        .multiply(&dense(k, n, b)?)
        .map_err(err)?
        .as_slice()
        .to_vec())
}

/// `m × v` for a row-major dense `rows × cols` matrix.
pub fn matvec_reference(m: &[f64], rows: usize, cols: usize, v: &[f64]) -> Result<Vec<f64>> {
    Ok(dense(rows, cols, m)?
        .matrix_vector_multiply(&Vector::from_slice(v))
        .map_err(err)?
        .into_vec())
}

/// A whole graph as one CSR matrix, for the reference PageRank iteration.
pub struct SparseReference(SparseMatrix);

impl SparseReference {
    /// `entries` are `(row, col, value)`; duplicates sum.
    pub fn build(n: usize, entries: impl IntoIterator<Item = (i64, i64, f64)>) -> Result<Self> {
        let mut b = CooBuilder::new();
        for (r, c, v) in entries {
            b.push(r, c, v).map_err(err)?;
        }
        b.build(n, n).map(SparseReference).map_err(err)
    }

    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// `damping · M·rank + teleport`.
    pub fn step(&self, rank: &[f64], damping: f64, teleport: f64) -> Result<Vec<f64>> {
        let y = self.0.spmv(&Vector::from_slice(rank)).map_err(err)?;
        Ok(y.as_slice()
            .iter()
            .map(|v| damping * v + teleport)
            .collect())
    }
}

// ------------------------------------------------------------------- probes
//
// A probe is a closure that performs one call into a layer's public
// function at a workload's own shapes and returns the seconds that call
// took; `probes.rs` repeats it and takes the median. Inputs are built once,
// outside the timed call.

fn random_matrix(rows: usize, cols: usize, rng: &mut crate::gen::Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.symmetric())
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = Instant::now();
    let out = f();
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(out);
    s
}

/// `Matrix::multiply` of `m × k` by `k × n`.
pub fn gemm_probe(m: usize, k: usize, n: usize, rng: &mut crate::gen::Rng) -> impl FnMut() -> f64 {
    let (a, b) = (random_matrix(m, k, rng), random_matrix(k, n, rng));
    move || timed(|| a.multiply(&b))
}

/// `Matrix::gram` (`AᵀA`) of a `rows × cols` matrix.
pub fn syrk_probe(rows: usize, cols: usize, rng: &mut crate::gen::Rng) -> impl FnMut() -> f64 {
    let a = random_matrix(rows, cols, rng);
    move || timed(|| a.gram())
}

/// `Matrix::transpose` of a `rows × cols` matrix.
pub fn transpose_probe(rows: usize, cols: usize, rng: &mut crate::gen::Rng) -> impl FnMut() -> f64 {
    let a = random_matrix(rows, cols, rng);
    move || timed(|| a.transpose())
}

/// `Matrix::inverse` of a well-conditioned `n × n` matrix.
pub fn inverse_probe(n: usize, rng: &mut crate::gen::Rng) -> impl FnMut() -> f64 {
    let mut a = random_matrix(n, n, rng);
    for i in 0..n {
        a.row_mut(i)[i] += n as f64;
    }
    move || timed(|| a.inverse())
}

fn csr(rows: usize, cols: usize, entries: &[(i64, i64, f64)]) -> Result<SparseMatrix> {
    let mut b = CooBuilder::new();
    for &(r, c, v) in entries {
        b.push(r, c, v).map_err(err)?;
    }
    b.build(rows, cols).map_err(err)
}

/// `SparseMatrix::spmv` on one tile; also returns the tile's stored entries.
pub fn spmv_probe(
    side: usize,
    entries: &[(i64, i64, f64)],
) -> Result<(usize, impl FnMut() -> f64)> {
    let tile = csr(side, side, entries)?;
    let x = Vector::filled(side, 1.0 / side as f64);
    Ok((tile.nnz(), move || timed(|| tile.spmv(&x))))
}

/// `CooBuilder::push` of every entry, then `build`, for one tile.
pub fn from_entries_probe(side: usize, entries: Vec<(i64, i64, f64)>) -> impl FnMut() -> f64 {
    move || {
        timed(|| {
            let mut b = CooBuilder::new();
            for &(r, c, v) in &entries {
                let _ = b.push(r, c, v);
            }
            b.build(side, side)
        })
    }
}

/// `ColumnBatch::from_rows` on a chunk of a workload's table.
pub fn pivot_probe(sample: &RowSample) -> impl FnMut() -> f64 + '_ {
    move || timed(|| ColumnBatch::from_rows(&sample.0))
}

/// Bytes of the sample as one encoded rows frame.
pub fn encoded_bytes(sample: &RowSample) -> usize {
    lardb_net::codec::encode_rows_frame(&sample.0).len()
}

/// `encode_rows_frame` on a workload's own batch.
pub fn encode_probe(sample: &RowSample) -> impl FnMut() -> f64 + '_ {
    move || timed(|| lardb_net::codec::encode_rows_frame(&sample.0))
}

/// `decode_frame` on the encoded form of a workload's own batch.
pub fn decode_probe(sample: &RowSample) -> impl FnMut() -> f64 {
    let frame = lardb_net::codec::encode_rows_frame(&sample.0);
    move || timed(|| lardb_net::codec::decode_frame(&frame))
}

/// `SpillWriter::write_rows` + `finish` of the sample into `dir`; the file
/// is deleted when the returned handle drops. Returns seconds and file bytes.
pub fn spill_write_once(dir: &Path, sample: &RowSample) -> Result<(f64, u64, SpillHandle)> {
    let t0 = Instant::now();
    let mut w = lardb_buf::SpillWriter::create(dir, "probe").map_err(err)?;
    w.write_rows(&sample.0).map_err(err)?;
    let file = w.finish().map_err(err)?;
    let s = t0.elapsed().as_secs_f64();
    let bytes = file.bytes();
    Ok((s, bytes, SpillHandle(file)))
}

/// A sealed spill file.
pub struct SpillHandle(lardb_buf::SpillFile);

impl SpillHandle {
    /// `SpillFile::read_rows`: seconds taken, or why it failed.
    pub fn read_once(&self) -> Result<f64> {
        let t0 = Instant::now();
        let rows = self.0.read_rows().map_err(err)?;
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(rows);
        Ok(s)
    }
}

/// `WorkerPool::scope` over `2 × workers` empty tasks.
pub fn pool_scope_probe() -> impl FnMut() -> f64 {
    let pool = WorkerPool::new(WORKERS);
    move || {
        timed(|| {
            pool.scope(|s| {
                for _ in 0..2 * WORKERS {
                    s.spawn(|| {});
                }
            })
        })
    }
}

/// `Database::insert_rows` of the sample into a fresh table of `cols`.
pub fn insert_probe<'a>(
    sample: &'a RowSample,
    cols: &'a [(&'a str, ColType)],
) -> impl FnMut() -> f64 + 'a {
    let db = Db::open(&DbOptions::default());
    let mut round = 0u64;
    move || {
        round += 1;
        let name = format!("probe_{round}");
        if db.create_table(&name, cols, Placement::RoundRobin).is_err() {
            return f64::NAN;
        }
        let rows = sample.0.clone();
        let s = timed(|| db.db.insert_rows(&name, rows));
        let _ = db.db.execute(&format!("DROP TABLE {name}"));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn relative_error_sees_wrong_values_lengths_and_nans() {
        assert_eq!(relative_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((relative_error(&[1.0, 2.2], &[1.0, 2.0]) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(relative_error(&[f64::NAN, 2.0], &[1.0, 2.0]), f64::INFINITY);
    }

    #[test]
    fn normal_equations_accept_the_solution_and_reject_a_perturbed_one() {
        let (n, d) = (40, 5);
        let mut rng = Rng::new(5);
        let x: Vec<f64> = (0..n * d).map(|_| rng.symmetric()).collect();
        let beta: Vec<f64> = (0..d).map(|_| rng.symmetric()).collect();
        // Without noise the generating beta solves the equations exactly.
        let y: Vec<f64> = x
            .chunks(d)
            .map(|r| r.iter().zip(&beta).map(|(a, b)| a * b).sum())
            .collect();
        assert!(normal_equations_error(&x, n, d, &y, &beta).unwrap() < 1e-12);
        let mut wrong = beta.clone();
        wrong[2] += 1e-3;
        assert!(normal_equations_error(&x, n, d, &y, &wrong).unwrap() > 1e-6);
        assert_eq!(
            normal_equations_error(&x, n, d, &y, &beta[1..]).unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn distance_reference_finds_the_isolated_point() {
        // Identity metric: d(i, j) is the dot product. Point 2 points away
        // from the others, so its nearest neighbour is the farthest of all.
        let x = [1.0, 0.0, 0.9, 0.1, -1.0, 0.0];
        let a = [1.0, 0.0, 0.0, 1.0];
        let (id, dist) = distance_reference(&x, 3, 2, &a).unwrap();
        // min over j≠i: point 0 -> -1.0, point 1 -> -0.9, point 2 -> -1.0.
        assert_eq!(id, 1);
        assert!((dist + 0.9).abs() < 1e-12);
    }

    #[test]
    fn sparse_reference_conserves_mass_on_a_stochastic_graph() {
        // 0 -> 1, 1 -> {0, 2}, 2 -> 0: every column sums to one.
        let m = SparseReference::build(3, [(1, 0, 1.0), (0, 1, 0.5), (2, 1, 0.5), (0, 2, 1.0)])
            .unwrap();
        assert_eq!(m.nnz(), 4);
        let next = m.step(&[1.0 / 3.0; 3], 0.85, 0.05).unwrap();
        assert!((next.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statements_take_the_same_answer_through_both_paths() {
        let db = Db::open(&DbOptions::default());
        db.create_table(
            "t",
            &[("k", ColType::Int), ("v", ColType::Dbl)],
            Placement::RoundRobin,
        )
        .unwrap();
        db.insert(
            "t",
            (0..10)
                .map(|i| vec![Cell::Int(i % 2), Cell::Dbl(i as f64)])
                .collect(),
        )
        .unwrap();
        let sql = "SELECT k, SUM(v) AS s FROM t GROUP BY k";
        let direct = db.execute(sql).unwrap();
        let mut tracer = Tracer::new();
        let staged = db.staged(sql, &mut tracer).unwrap();
        let sums = |r: &Reply| {
            let mut v: Vec<(i64, f64)> = (0..r.num_rows())
                .map(|i| (r.int(i, 0).unwrap(), r.dbl(i, 1).unwrap()))
                .collect();
            v.sort_by_key(|r| r.0);
            v
        };
        assert_eq!(sums(&direct), vec![(0, 20.0), (1, 25.0)]);
        assert_eq!(sums(&direct), sums(&staged));
        assert_eq!(staged.counts.as_ref().map(|c| c.statements), Some(1));
        let staged_ctas = db
            .staged("CREATE TABLE u AS SELECT k, v FROM t", &mut tracer)
            .unwrap();
        assert_eq!(staged_ctas.inserted(), Some(10));
        assert_eq!(
            db.execute("SELECT COUNT(*) AS n FROM u").unwrap().int(0, 0),
            Some(10)
        );
        let names: Vec<String> = tracer.self_seconds_by_name().into_keys().collect();
        for span in [
            "sql.parse",
            "sql.bind",
            "planner.optimize",
            "planner.physical",
            "exec.execute",
            "storage.ctas_write",
            "core.statement",
        ] {
            assert!(
                names.iter().any(|n| n == span),
                "no {span} span in {names:?}"
            );
        }
        assert!(db.execute("SELECT nope FROM t").is_err());
        assert!(db.staged("SELECT nope FROM t", &mut tracer).is_err());
    }
}
