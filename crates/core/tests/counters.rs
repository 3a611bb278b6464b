//! The exact counters, as a committed golden.
//!
//! Every corpus statement runs under a few fixed cells — W ∈ {1, 4} ×
//! pointer/serialized, plus one spilling budget — and what its
//! `ExecStats` counted is written one line per statement × cell × counter,
//! sorted, and compared with `tests/golden/counters.txt`. A change that
//! moves a counter shows as a diff of that file, which its author
//! regenerates with the ignored test below
//! (`cargo test -p lardb --test counters -- --ignored`) and explains.
//!
//! Only counters one run fixes are here: kernel dispatch by kind, rows
//! shuffled, encoded shuffle bytes and frames (which both transports
//! count alike), column batches and spill bytes. No timings and no means
//! over passes. The spilling cell runs one worker, where the partition that
//! overflows the budget is the whole table rather than whichever
//! partition reserves first. A counter that reads 0 has no line, and a
//! statement that must fail has no stats to count.

mod common;

use std::path::PathBuf;

use common::corpus::{self, Statement};
use common::fixtures::Fixture;
use common::lattice::{at, Cell};
use lardb::ExecStats;
use lardb::TransportMode::{Pointer, Serialized};

/// The cells, each under the short name its golden lines carry.
fn cells() -> Vec<(&'static str, Cell)> {
    vec![
        ("W=1 pointer", at(1, Pointer, None)),
        ("W=1 serialized", at(1, Serialized, None)),
        ("W=4 pointer", at(4, Pointer, None)),
        ("W=4 serialized", at(4, Serialized, None)),
        ("W=1 pointer mem=1MiB", at(1, Pointer, Some(1))),
    ]
}

/// The exact counters of one statement's run, by name.
fn counters(stats: &ExecStats) -> Vec<(&'static str, usize)> {
    let d = &stats.dispatch;
    vec![
        ("dispatch.dense", d.dense as usize),
        ("dispatch.spmv", d.spmv as usize),
        ("dispatch.sp_dense", d.sp_dense as usize),
        ("dispatch.spgemm", d.spgemm as usize),
        ("dispatch.densified", d.densified as usize),
        ("rows_shuffled", stats.total_rows_shuffled()),
        ("bytes_shuffled", stats.total_bytes_shuffled()),
        ("frames", stats.total_frames()),
        ("batches", stats.total_batches()),
        ("spill_bytes", stats.total_spill_bytes()),
    ]
}

/// The golden lines of `statements` over `fixture` under one cell.
fn lines(fixture: Fixture, statements: &[Statement], name: &str, cell: &Cell) -> Vec<String> {
    let db = fixture.open(cell);
    let mut out = Vec::new();
    for s in statements.iter().filter(|s| s.fails_with.is_none()) {
        let r = db.query(s.sql).unwrap_or_else(|e| panic!("{name}: {}: {e}", s.sql));
        let sql = s.sql.split_whitespace().collect::<Vec<_>>().join(" ");
        for (counter, n) in counters(&r.stats) {
            if n != 0 {
                out.push(format!("{sql} | {name} | {counter} {n}"));
            }
        }
    }
    out
}

/// The whole golden file: every fixture's cells run at once on threads of
/// their own, one fixture after another.
fn render() -> String {
    let cells = cells();
    let mut all = Vec::new();
    for fixture in corpus::CORPUS.iter().map(|(fixture, ..)| *fixture) {
        let statements = corpus::on(fixture);
        let statements = &statements;
        std::thread::scope(|scope| {
            let running: Vec<_> = cells
                .iter()
                .map(|(name, cell)| scope.spawn(move || lines(fixture, statements, name, cell)))
                .collect();
            for r in running {
                all.extend(r.join().expect("a cell's run failed"));
            }
        });
    }
    all.sort();
    all.into_iter().map(|line| line + "\n").collect()
}

fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counters.txt")
}

#[test]
fn exact_counters_match_the_golden() {
    let want = std::fs::read_to_string(golden()).expect("the golden file");
    let got = render();
    if got != want {
        let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
        let gone: Vec<_> = want.iter().filter(|l| !got.contains(l)).collect();
        let new: Vec<_> = got.iter().filter(|l| !want.contains(l)).collect();
        panic!("exact counters moved.\ngolden only: {gone:#?}\nthis run only: {new:#?}");
    }
}

#[test]
#[ignore = "rewrites tests/golden/counters.txt"]
fn rewrite_the_golden() {
    std::fs::write(golden(), render()).expect("the golden file is writable");
}
