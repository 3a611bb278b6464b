//! The configuration lattice: the one place the axes a result must not
//! depend on are enumerated. A [`Cell`] is a `DatabaseConfig` under a name,
//! or the interpreted oracle over one; [`oracle`] is the cell every other
//! is compared with, [`single_axis`] moves one axis at a time away from
//! the pivot (`cell(|_| {})`), and the suites build the pairs they pin
//! (W × transport × budget, interpreter × batch size, ...) with [`at`],
//! [`cell`] and [`interpreted`].

use std::sync::atomic::{AtomicUsize, Ordering};

use lardb::{Database, DatabaseConfig, TransportMode};

/// Morsels small enough that a 900-row partition splits into dozens of
/// stealable pieces.
pub const SPLIT: usize = 16;
/// One morsel per partition.
pub const WHOLE: usize = usize::MAX;

/// One configuration of the engine.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Every axis value, for failure messages.
    pub name: String,
    pub config: DatabaseConfig,
    /// Run every query through the row interpreter
    /// (`Database::interpreted_oracle`) rather than compiled.
    pub interpreted: bool,
    /// Run each statement twice back to back: the repeat is served from the
    /// plan cache and must be the answer the cold run gave. Set on the
    /// cell that moves the cache axis.
    pub repeat: bool,
}

/// The pivot — four workers over an oversubscribed pool of four (on any
/// core count, preemption forces cross-queue stealing), [`SPLIT`] morsels,
/// every other field the product default — with `set` applied.
pub fn cell(set: impl FnOnce(&mut DatabaseConfig)) -> Cell {
    let mut config = DatabaseConfig {
        workers: 4,
        pool_workers: Some(4),
        morsel_rows: SPLIT,
        ..DatabaseConfig::default()
    };
    set(&mut config);
    Cell { name: name(&config, false), config, interpreted: false, repeat: false }
}

/// `cell` run by the row interpreter, the reference the compiled pipeline
/// must match, values and errors.
pub fn interpreted(cell: Cell) -> Cell {
    Cell { name: name(&cell.config, true), interpreted: true, ..cell }
}

/// The pivot with its capacity axes set: `workers` workers over `transport`,
/// unbounded (`None`) or under a budget of `mem` MiB. The pairs the
/// out-of-core, sparse, chaos and transport suites pin are among these.
pub fn at(workers: usize, transport: TransportMode, mem: Option<u64>) -> Cell {
    cell(|c| {
        c.workers = workers;
        c.transport = transport;
        c.mem = mem;
    })
}

/// The product as shipped, `Database::new(workers)`: the process pool, one
/// thread per core, and the default morsels, which the pivot moves off.
pub fn shipped(workers: usize) -> Cell {
    cell(|c| *c = DatabaseConfig { workers, ..DatabaseConfig::default() })
}

/// The cell that defines the right answer: the row interpreter on one
/// worker over whole partitions, nothing cached, nothing shipped, nothing
/// spilled.
pub fn oracle() -> Cell {
    interpreted(cell(|c| {
        c.workers = 1;
        c.morsel_rows = WHOLE;
        c.plan_cache_entries = 0;
    }))
}

/// The pivot and each value of the axes that decide how much data is in
/// one place at a time: workers, memory budget, transport. The only axes
/// that change what a fixture built to spill or to ship tiles goes through.
pub fn capacity_axes() -> Vec<Cell> {
    vec![
        cell(|_| {}),
        cell(|c| c.workers = 1),
        cell(|c| c.mem = Some(1)),
        cell(|c| c.transport = TransportMode::Serialized),
    ]
}

/// The pivot and every axis alone. One axis away from the *pivot*, not
/// from the oracle: one worker ships nothing whatever the transport, and
/// the interpreter pivots no batch whatever `batch_rows`. The values the
/// pivot does not have are the oracle's or a cell's here; the last cell is
/// the product's own defaults. Of these axes only the worker count
/// re-associates an aggregate (through its Partial/Final split), which the
/// fixtures' exact doubles hide; morsel size and engine move no bit over
/// any doubles, since every aggregate folds one table per partition in
/// row order (`scheduler_equivalence` checks that on full mantissas).
pub fn single_axis() -> Vec<Cell> {
    let mut cells = capacity_axes();
    cells.push(interpreted(cell(|_| {})));
    cells.extend([1, 16].map(|rows| cell(|c| c.batch_rows = rows)));
    cells.push(cell(|c| c.morsel_rows = WHOLE));
    cells.push(Cell { repeat: true, ..cell(|c| c.plan_cache_entries = 2) });
    cells.push(cell(|c| c.pool_workers = Some(64)));
    cells.push(shipped(4));
    cells
}

/// Names a configuration by its axes. The destructuring is exhaustive on
/// purpose: a new `DatabaseConfig` field does not compile until it is
/// given a place here — an axis (then [`single_axis`] needs its values) or
/// a field results may not depend on, with the reason.
fn name(config: &DatabaseConfig, interpreted: bool) -> String {
    let DatabaseConfig {
        workers,
        transport,
        mem,
        batch_rows,
        morsel_rows,
        plan_cache_entries,
        pool_workers,
        // Plan choice, pinned against the unoptimized plan by
        // `tests/optimizer_plans.rs`; every cell runs the default.
        optimizer: _,
        // Faults (the chaos suite sets a plan) and the frame cap.
        net: _,
        // Where spill files go: `Cell::open` gives every database its own.
        spill_dir: _,
        // Reporting only.
        slow_query_ms: _,
        trace_dir: _,
    } = config;
    let morsel = if *morsel_rows == WHOLE { "whole".into() } else { morsel_rows.to_string() };
    let engine = if interpreted { "interpreted" } else { "compiled" };
    format!(
        "W={workers} {transport:?} mem={mem:?} {engine} batch={batch_rows} \
         morsel={morsel} cache={plan_cache_entries} pool={pool_workers:?}"
    )
}

impl Cell {
    /// An empty database under this configuration, spilling into a
    /// directory no other database uses, so `compare::assert_clean` can
    /// tell whose file was left behind.
    pub fn open(&self) -> Database {
        static OPENED: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lardb-eq-{}-{}",
            std::process::id(),
            OPENED.fetch_add(1, Ordering::Relaxed)
        ));
        let config = DatabaseConfig { spill_dir: Some(dir), ..self.config.clone() };
        let db = Database::with_config(config);
        if self.interpreted {
            db.interpreted_oracle()
        } else {
            db
        }
    }
}
