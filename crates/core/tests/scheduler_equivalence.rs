//! Morsel-scheduler equivalence and determinism tests.
//!
//! Morsel splitting and stealing must be a pure performance change: on
//! heavily skewed partitions (one partition holding ~90% of rows), across
//! worker counts and transports, execution over 16-row stolen morsels
//! must produce the same relations as one morsel per partition — and
//! repeated runs over stolen morsels must be bit-for-bit identical.

mod common;

use common::compare::{exact_rows, metric, sweep};
use common::corpus;
use common::fixtures::Fixture;
use common::lattice::{self, cell, SPLIT, WHOLE};
use lardb::TransportMode;

#[test]
fn split_morsels_match_whole_partitions_on_skew() {
    let mut cells = Vec::new();
    for workers in [1usize, 4] {
        for transport in [TransportMode::Pointer, TransportMode::Serialized] {
            for morsel_rows in [SPLIT, WHOLE] {
                cells.push(cell(|c| {
                    c.workers = workers;
                    c.transport = transport;
                    c.morsel_rows = morsel_rows;
                }));
            }
        }
    }
    sweep(Fixture::Skew, corpus::on(Fixture::Skew), &cells);
}

/// Every axis alone, over the skewed tables.
#[test]
fn every_axis_alone_matches_the_oracle_on_skew() {
    sweep(Fixture::Skew, corpus::on(Fixture::Skew), &lattice::single_axis());
}

#[test]
fn double_aggregates_match_within_tolerance() {
    // Morsel splitting re-associates float addition; sums must agree with
    // the one-morsel-per-partition run to rounding error only.
    let split_db = Fixture::Skew.open(&cell(|_| {}));
    let whole_db = Fixture::Skew.open(&cell(|c| c.morsel_rows = WHOLE));
    let q = "SELECT SUM(v) AS s FROM skew";
    let got = split_db.query(q).unwrap().scalar().unwrap().as_double().unwrap();
    let want = whole_db.query(q).unwrap().scalar().unwrap().as_double().unwrap();
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "split {got} vs whole {want}"
    );
}

#[test]
fn repeated_grouped_aggregation_is_deterministic() {
    // Per-partition partials merge in ascending morsel order no matter
    // which worker ran which morsel, so repeated runs are bit-identical —
    // including float AVG states.
    let db = Fixture::Skew.open(&cell(|_| {}));
    let q = "SELECT g, AVG(v) AS a, SUM(v) AS s, COUNT(*) AS c FROM skew GROUP BY g";
    let reference = exact_rows(&db.query(q).unwrap());
    for run in 1..5 {
        assert_eq!(exact_rows(&db.query(q).unwrap()), reference, "run {run} diverged");
    }
}

#[test]
fn pool_metrics_surface_in_show_metrics() {
    let db = Fixture::Skew.open(&cell(|_| {}));
    db.query("SELECT g, COUNT(*) AS c FROM skew GROUP BY g").unwrap();
    for name in ["pool.steals", "pool.queue_wait_us", "pool.size", "pool.utilization"] {
        metric(&db, name);
    }
    // The query above ran real morsels through the pool.
    let morsels = metric(&db, "pool.morsels");
    assert!(morsels >= 1.0, "pool.morsels = {morsels}");
}
