//! Out-of-core equivalence tests: a memory budget must be a pure
//! capacity change, never a semantic one.
//!
//! Every query here runs unbounded and under a budget small enough that
//! the hash-join build side and the grouped-aggregate state spill to disk,
//! and the budgeted result must be **bit-identical** to the unbounded one
//! (same rows, same order, same float bits), across worker counts and
//! transports. Spill files must be gone when the query finishes (the
//! comparator asserts it after every cell).

mod common;

use common::compare::{assert_clean, check, exact_rows, metric, sweep};
use common::corpus::{self, FAT_CROSS, FAT_CROSS_SUM, FAT_GROUPS, TILE_JOIN, WIDE_NAN_GROUPS};
use common::fixtures::{tile_table, Fixture, TILE};
use common::lattice::{self, at, cell, Cell};
use lardb::Database;
use lardb::TransportMode::{Pointer, Serialized};
use lardb_storage::gen::tiled_matrix_rows;

#[test]
fn budgeted_queries_match_unbounded_bit_exactly() {
    for workers in [1usize, 4] {
        let cells = [at(workers, Pointer, None), at(workers, Pointer, Some(1))];
        let runs = sweep(Fixture::Fat, corpus::on(Fixture::Fat), &cells);
        assert_eq!(runs[0].spilled(), 0, "W={workers}: an unbounded run must never spill");
        // The whole point: the budgeted runs actually went out of core.
        assert!(runs[1].spilled() > 0, "W={workers}: no query spilled under 1 MiB");
    }
}

#[test]
fn budgeted_serialized_transport_matches_pointer() {
    // Transport changes how exchanges move bytes; spilling must compose
    // with both. Compare serialized-budgeted against pointer-unbounded.
    let cells = [at(4, Pointer, None), at(4, Serialized, Some(1))];
    sweep(Fixture::Fat, corpus::on(Fixture::Fat), &cells);
}

/// Every axis that decides how much is in memory at once, alone, over the
/// two fixtures built to overflow 1 MiB.
#[test]
fn every_capacity_axis_alone_matches_the_oracle_on_fat_and_wide() {
    for fixture in [Fixture::Fat, Fixture::Wide] {
        sweep(fixture, corpus::on(fixture), &lattice::capacity_axes());
    }
}

/// The paper's §3.4 chunked (tiled) matrix multiply: `SUM(A_ik · B_kj)
/// GROUP BY i, j` over 64×64 tiles. Both the join build side (~1.2 MiB
/// of tiles) and the aggregate state (36 running 64×64 sums) exceed the
/// 1 MiB budget, so the query must finish out-of-core and still produce
/// float-bit-identical tiles. The tiles are full-mantissa random doubles
/// and the two runs have the same worker count, so a spilled partial sum
/// merged in another order, or written back a bit short, shows.
#[test]
fn chunked_matmul_spills_and_matches_unbounded() {
    const TILES: usize = 6;
    let open = |cell: Cell| {
        let db = cell.open();
        tile_table(&db, "ta", tiled_matrix_rows(7, TILES, TILE));
        tile_table(&db, "tb", tiled_matrix_rows(11, TILES, TILE));
        (cell, db)
    };
    for workers in [1usize, 4] {
        let [unbounded, budgeted] = [None, Some(1)].map(|mem| open(at(workers, Pointer, mem)));
        let runs = check(&corpus::named(&[TILE_JOIN]), unbounded, vec![budgeted]);
        assert_eq!(runs[0].result(0).rows.len(), TILES * TILES);
        // One partition holds the entire 1.2 MiB build side: the spill is
        // deterministic, not a scheduling accident.
        if workers == 1 {
            assert!(runs[0].spilled() > 0, "W=1 chunked matmul did not spill under 1 MiB");
        }
    }
}

/// A cross product is the hash join on the empty key, and hashing cannot
/// split that build side, so under 1 MiB it is reserved past the budget
/// instead of spilled: the rows, order and float bits of the unbounded run,
/// no spill, and at W=1 — where the build side is all of `fat` — the whole
/// footprint on the governor's ledger while the join runs, none after.
/// `FAT_CROSS` builds on `fat`'s `id`, `v` and `payload`, whose payload
/// bytes bound that footprint from below.
#[test]
fn cross_products_are_accounted_not_spilled() {
    let statements = corpus::named(&[FAT_CROSS, FAT_CROSS_SUM]);
    let build = Fixture::Fat.open(&at(1, Pointer, None)).query("SELECT id, v, payload FROM fat");
    let payload: usize = build.unwrap().rows.iter().map(lardb::Row::byte_size).sum();
    for workers in [1usize, 4] {
        let [unbounded, budgeted] = [None, Some(1)].map(|mem| {
            let cell = at(workers, Pointer, mem);
            let db = Fixture::Fat.open(&cell);
            (cell, db)
        });
        let governor = std::sync::Arc::clone(budgeted.1.memory().governor());
        let runs = check(&statements, unbounded, vec![budgeted]);
        assert_eq!(runs[0].spilled(), 0, "W={workers}: a cross product spilled");
        if workers == 1 {
            let peak = governor.peak();
            assert!(peak >= payload as u64 && peak > 1 << 20, "peak {peak} B, build {payload} B");
        }
        assert_eq!(governor.reserved(), 0, "W={workers}");
    }
}

#[test]
fn spill_metrics_surface_in_show_metrics() {
    let db = Fixture::Fat.open(&at(2, Pointer, Some(1)));
    let r = db.query(FAT_GROUPS).unwrap();
    assert!(r.stats.total_spill_bytes() > 0, "query did not spill");

    for name in ["spill.files", "spill.bytes_written", "spill.bytes_read"] {
        let v = metric(&db, name);
        assert!(v > 0.0, "{name} = {v}");
    }
    assert_clean(&db, "metrics");
}

/// A NaN group key under the spilling merge: its first-seen order map and
/// its bucket routing use the group table's hash and key equality, so the
/// NaN half of every key neither straddles buckets nor misses its order
/// entry, and 6 000 rows over 3 000 payloads come back as 3 000 groups —
/// the rows, order and float bits of the unbounded run.
#[test]
fn nan_group_keys_spill_like_they_merge_in_memory() {
    for workers in [1usize, 4] {
        let cells = [at(workers, Pointer, None), at(workers, Pointer, Some(1))];
        let runs = sweep(Fixture::Wide, corpus::named(&[WIDE_NAN_GROUPS]), &cells);
        let got = runs[1].result(0);
        assert_eq!(got.rows.len(), 3000, "W={workers}");
        assert!(got.rows.iter().all(|r| r.value(1).as_double().is_some_and(f64::is_nan)));
        if workers == 1 {
            assert!(runs[1].spilled() > 0, "the aggregate did not spill");
        }
    }
}

/// What a database can show of a run of `statements`: per statement its
/// rows in order (or its error message), its shuffle and batch totals and
/// its kernel choices.
/// The database is unbounded, so it never spills.
fn footprint(db: &Database, statements: &[corpus::Statement]) -> Vec<String> {
    let seen = statements.iter().map(|s| match db.query(s.sql) {
        Err(e) => e.to_string(),
        Ok(r) => {
            let s = &r.stats;
            assert_eq!(s.total_spill_bytes(), 0, "an unbounded database spilled");
            let totals = [
                s.total_rows_shuffled(),
                s.total_bytes_shuffled(),
                s.total_frames(),
                s.total_batches(),
            ];
            format!("{totals:?} {:?} {:?}", s.dispatch, exact_rows(&r))
        }
    });
    let seen = seen.collect();
    assert_clean(db, "footprint");
    seen
}

/// Databases in one process share no governor and no pool: while two
/// neighbours (1 MiB each, each on a dedicated pool of 2) are driven
/// through the spilling statements in a loop, each on its own thread, B
/// (unbounded, a dedicated pool of 4) answers the whole corpus exactly as
/// it did before they started — rows, error messages, spill, shuffle and
/// batch totals, kernel choices — and its governor's high-water mark does
/// not move. The mark is read off a one-worker twin of B over the `fat`
/// statements: reservations are taken per partition task, so on four
/// workers how many overlap is a scheduling outcome even alone.
#[test]
fn a_spilling_neighbour_changes_nothing() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::channel;
    let everything: Vec<_> = corpus::all().map(|(_, s)| s).collect();
    let fat = corpus::on(Fixture::Fat);
    let neighbours = [(); 2].map(|()| {
        Fixture::Fat.open(&cell(|c| {
            c.mem = Some(1);
            c.pool_workers = Some(2);
        }))
    });
    let b = cell(|_| {}).open();
    corpus::CORPUS.iter().for_each(|(fixture, ..)| fixture.load(&b));
    let narrow = Fixture::Fat.open(&cell(|c| c.workers = 1));
    // `mem: None` and `Some(0)` are both unbounded, and every database's
    // governor is its own.
    let zero = cell(|c| c.mem = Some(0)).open();
    let [a, a2] = &neighbours;
    let governors = [&b, &narrow, &zero, a, a2].map(|db| db.memory().governor());
    assert!(governors[..3].iter().all(|g| g.budget().is_none()));
    for (i, g) in governors.iter().enumerate() {
        assert!(governors[..i].iter().all(|other| !std::sync::Arc::ptr_eq(g, other)));
    }
    let observe_b = || {
        let seen = (footprint(&b, &everything), footprint(&narrow, &fat));
        (seen, narrow.memory().governor().peak())
    };
    let alone = observe_b();

    // Each neighbour reports its spilled bytes after every statement and
    // keeps lapping until B is done; B starts once both have spilled,
    // which one pass over `fat` must do.
    let stop = AtomicBool::new(false);
    let (spilt, beside) = std::thread::scope(|scope| {
        let spilled = neighbours.each_ref().map(|db| {
            let (spilling, spilled) = channel();
            let (fat, stop) = (&fat, &stop);
            // The thread owns `spilling`: a failure of the neighbour ends
            // the wait below.
            scope.spawn(move || {
                let mut bytes = 0;
                for s in fat.iter().cycle() {
                    bytes += db.query(s.sql).unwrap().stats.total_spill_bytes();
                    let _ = spilling.send(bytes);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
            });
            spilled
        });
        let spilt = spilled.map(|rx| rx.iter().take(fat.len()).any(|bytes| bytes > 0));
        let beside = observe_b();
        stop.store(true, Ordering::Relaxed);
        (spilt, beside)
    });
    assert_eq!(spilt, [true; 2], "a neighbour went through `fat` under 1 MiB without spilling");
    assert!(beside == alone, "B answered differently beside its neighbours");
    neighbours.iter().for_each(|db| assert_clean(db, "a neighbour"));
}
