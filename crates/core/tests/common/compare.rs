//! The one comparator: what "the same answer" means. Rows are rendered
//! with every double as its IEEE-754 bit pattern (`-0.0` is not `0.0`, a
//! NaN is its payload) and a CSR tile as the dense matrix it stores, a
//! failing statement's answer is its whole message, and a cell is only
//! done when its governor's ledger is back at zero and its spill directory
//! is empty.

use std::collections::HashMap;

use lardb::{Database, QueryResult, Value};

use super::corpus::Statement;
use super::fixtures::Fixture;
use super::lattice::{self, Cell};

fn bits(values: &[f64]) -> String {
    values.iter().map(|d| format!("{:016x}", d.to_bits())).collect::<Vec<_>>().join(" ")
}

/// Bit-exact, representation-agnostic rendering of one value.
pub fn canon(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("D:{}", bits(&[*d])),
        Value::LabeledScalar(s) => format!("L{}:{}", s.label, bits(&[s.value])),
        Value::Vector(x) => format!("V{}:{}", x.label(), bits(x.as_slice())),
        Value::Matrix(m) => format!("M{:?}:{}", m.shape(), bits(m.as_slice())),
        Value::SparseMatrix(m) => canon(&Value::matrix(m.to_dense())),
        other => format!("{other:?}"),
    }
}

/// A result's rows in the order it returned them, floats by their bits.
pub fn exact_rows(r: &QueryResult) -> Vec<String> {
    let row = |row: &lardb::Row| row.values().iter().map(canon).collect::<Vec<_>>().join("|");
    r.rows.iter().map(row).collect()
}

/// A result's rows as a multiset: [`exact_rows`], sorted.
pub fn canon_rows(r: &QueryResult) -> Vec<String> {
    let mut rows = exact_rows(r);
    rows.sort();
    rows
}

pub fn assert_spill_dir_empty(dir: &std::path::Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        let left: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        assert!(left.is_empty(), "spill files leaked in {}: {left:?}", dir.display());
    }
    let _ = std::fs::remove_dir(dir);
}

/// Nothing is left behind once a database's statements have returned,
/// failed ones included.
pub fn assert_clean(db: &Database, at: &str) {
    assert_eq!(db.memory().governor().reserved(), 0, "reservations leaked: {at}");
    assert_spill_dir_empty(db.memory().spill_dir());
}

/// The value `SHOW METRICS` on `db` reports for `name` (NaN for one that is
/// not a number); a metric that is not listed fails the test.
pub fn metric(db: &Database, name: &str) -> f64 {
    let shown = db.query("SHOW METRICS").unwrap();
    let row = shown.rows.iter().find(|row| row.value(0).to_string() == name);
    let row = row.unwrap_or_else(|| panic!("metric {name} missing from SHOW METRICS"));
    row.value(2).as_double().unwrap_or(f64::NAN)
}

/// What one statement did: its result, or the message it failed with.
pub type Outcome = Result<QueryResult, String>;

/// An outcome as the comparator sees it: [`exact_rows`], or the message.
type Answer = Result<Vec<String>, String>;

fn answer(outcome: &Outcome) -> Answer {
    outcome.as_ref().map(exact_rows).map_err(String::clone)
}

fn sorted(answer: &Answer) -> Answer {
    let mut answer = answer.clone();
    answer.iter_mut().for_each(|rows| rows.sort());
    answer
}

/// An outcome as a multiset of bit-exact rows, or its full message: what
/// two statements that must mean the same are compared by.
pub fn unordered(outcome: &Outcome) -> Result<Vec<String>, String> {
    sorted(&answer(outcome))
}

/// One cell's outcomes, in the order of the statements it was given.
pub struct Run {
    pub cell: Cell,
    pub outcomes: Vec<Outcome>,
    answers: Vec<Answer>,
}

impl Run {
    /// The result of statement `i`, which succeeded.
    pub fn result(&self, i: usize) -> &QueryResult {
        self.outcomes[i].as_ref().unwrap_or_else(|e| panic!("{}: {e}", self.cell.name))
    }

    /// Spill bytes over every statement of the cell.
    pub fn spilled(&self) -> usize {
        self.outcomes.iter().flatten().map(|r| r.stats.total_spill_bytes()).sum()
    }
}

/// Every operator the last statement executed was priced by the planner:
/// an operator it never priced would show its estimate as zero rows.
fn assert_priced(db: &Database, at: &str) {
    for op in db.last_profile().map(|p| p.operators).unwrap_or_default() {
        assert!(op.est_rows >= 1.0, "{} #{} unpriced: {at}", op.label, op.id);
    }
}

fn run(cell: &Cell, db: &Database, statements: &[Statement]) -> Run {
    let (mut outcomes, mut answers) = (Vec::new(), Vec::new());
    for s in statements {
        let first = db.query(s.sql).map_err(|e| e.to_string());
        assert_priced(db, &format!("{} statement={}", cell.name, s.sql));
        let rendered = answer(&first);
        if cell.repeat {
            let again = answer(&db.query(s.sql).map_err(|e| e.to_string()));
            assert_eq!(again, rendered, "repeat diverged: {} {}", cell.name, s.sql);
        }
        outcomes.push(first);
        answers.push(rendered);
    }
    assert_clean(db, &cell.name);
    Run { cell: cell.clone(), outcomes, answers }
}

/// Runs `statements` on every database, each opened under the cell beside
/// it, all at once on threads of their own. The `reference` — the oracle
/// cell's database, or the one a comparison names its own, like the sparse
/// suite's dense store — must answer each statement as the corpus expects;
/// every other cell must give the reference's answers as multisets of
/// bit-exact rows (or its full error message), in the row *order* of the
/// first run with as many workers, since rows are dealt to partitions the
/// same way. Returns the cells' runs, in order.
pub fn check(
    statements: &[Statement],
    reference: (Cell, Database),
    cells: Vec<(Cell, Database)>,
) -> Vec<Run> {
    let mut runs: Vec<Run> = std::thread::scope(|scope| {
        let running: Vec<_> = std::iter::once(&reference)
            .chain(&cells)
            .map(|(cell, db)| scope.spawn(move || run(cell, db, statements)))
            .collect();
        running.into_iter().map(|r| r.join().expect("a cell's run failed")).collect()
    });
    let reference = runs.remove(0);
    for (s, got) in statements.iter().zip(&reference.answers) {
        match (s.fails_with, got) {
            (None, Ok(_)) => {}
            (Some(fragment), Err(e)) => assert!(e.contains(fragment), "{}: {e}", s.sql),
            (_, got) => panic!("{}: the reference answered {got:?}", s.sql),
        }
    }
    let want: Vec<Answer> = reference.answers.iter().map(sorted).collect();
    let mut order = HashMap::from([(reference.cell.config.workers, &reference.answers)]);
    for got in &runs {
        let order = order.entry(got.cell.config.workers).or_insert(&got.answers);
        for (i, s) in statements.iter().enumerate() {
            let at = format!("{} statement={}", got.cell.name, s.sql);
            assert_eq!(sorted(&got.answers[i]), want[i], "{at}");
            assert_eq!(got.answers[i], order[i], "row order: {at}");
        }
    }
    runs
}

/// [`check`] of `statements` over `fixture` under each of `cells`, against
/// the oracle cell.
pub fn sweep(fixture: Fixture, statements: Vec<Statement>, cells: &[Cell]) -> Vec<Run> {
    let open = |cell: &Cell| (cell.clone(), fixture.open(cell));
    check(&statements, open(&lattice::oracle()), cells.iter().map(open).collect())
}
