//! Property test on the joined chunk: a join's matched pairs as two index
//! vectors over sides pivoted once ([`ColumnBatch::join`]) must read,
//! lane for lane, exactly what pivoting their concatenated rows reads —
//! the same validity and bit patterns — so the fused join→aggregate can
//! skip the concatenation without any kernel seeing a different value.
//! Each side is pivoted with its own schema, and the concatenation with
//! both; a side holding a lane of another type than its column's is
//! refused, as a ragged one is.

use lardb_exec::batch::{Col, ColumnBatch};
use lardb_la::Vector;
use lardb_storage::{Column, DataType, Row, Schema, Value};
use proptest::prelude::*;

/// splitmix64: deterministic shapes from one seed (the vendored proptest
/// provides scalar strategies only).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The declared type of a column of the given kind; kind 4's DOUBLE
/// column also draws INTEGER lanes.
const TYPES: [DataType; 6] = [
    DataType::Integer,
    DataType::Double,
    DataType::Boolean,
    DataType::Double,
    DataType::Double,
    DataType::Vector(None),
];

/// One lane of a column of the given kind: INTEGER, DOUBLE, BOOLEAN,
/// all-NULL, mixed INTEGER + DOUBLE, or VECTOR — NULLs sprinkled in all.
fn gen_lane(g: &mut Gen, kind: u64) -> Value {
    if g.below(4) == 0 {
        return Value::Null;
    }
    let int = |g: &mut Gen| Value::Integer(g.below(9) as i64 - 4);
    let dbl = |g: &mut Gen| {
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 0x5a);
        Value::Double([0.0, -0.0, 1.5, -2.25, f64::NAN, nan_payload][g.below(6) as usize])
    };
    match kind {
        0 => int(g),
        1 => dbl(g),
        2 => Value::Boolean(g.below(2) == 0),
        3 => Value::Null,
        4 if g.below(2) == 0 => int(g),
        4 => dbl(g),
        _ => Value::vector(Vector::from_vec(vec![g.below(3) as f64, -0.0])),
    }
}

/// A side's rows and schema, and whether a lane is of another type than
/// its column's (an INTEGER lane in kind 4's DOUBLE column).
fn gen_side(g: &mut Gen, n: usize, arity: usize) -> (Vec<Row>, Schema, bool) {
    let kinds: Vec<u64> = (0..arity).map(|_| g.below(6)).collect();
    let rows: Vec<Row> =
        (0..n).map(|_| Row::new(kinds.iter().map(|&k| gen_lane(g, k)).collect())).collect();
    let schema = Schema::new(kinds.iter().map(|&k| Column::new("c", TYPES[k as usize])).collect());
    let mistyped = rows.iter().any(|r| {
        r.values().iter().zip(&kinds).any(|(v, &k)| k == 4 && matches!(v, Value::Integer(_)))
    });
    (rows, schema, mistyped)
}

/// Exact lane equality: float bits, not float equality.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// `got` reads what `want` reads, lane for lane; typed columns of one
/// variant also agree on their raw lanes, garbage under NULLs included.
fn assert_same_lanes(got: &Col, want: &Col, j: usize) {
    assert_eq!(got.len(), want.len(), "column {j}");
    for i in 0..want.len() {
        assert_eq!(got.valid(i), want.valid(i), "column {j} lane {i} validity");
        assert!(
            same_bits(&got.value_at(i), &want.value_at(i)),
            "column {j} lane {i}: {:?} vs {:?}",
            got.value_at(i),
            want.value_at(i)
        );
    }
    match (got, want) {
        (Col::F64 { data: g, .. }, Col::F64 { data: w, .. }) => {
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "column {j}");
        }
        (Col::I64 { data: g, .. }, Col::I64 { data: w, .. }) => assert_eq!(g, w, "column {j}"),
        (Col::Bool { data: g, .. }, Col::Bool { data: w, .. }) => assert_eq!(g, w, "column {j}"),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn joined_chunk_reads_like_from_rows_of_the_concatenation(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (nl, nr) = (g.below(8) as usize, g.below(8) as usize);
        let (la, ra) = (g.below(5) as usize, g.below(5) as usize);
        let (mut left, ls, l_mistyped) = gen_side(&mut g, nl, la);
        let (mut right, rs, r_mistyped) = gen_side(&mut g, nr, ra);
        // One time in four, one row of one side gets another arity.
        if nl.min(nr) > 1 && g.below(4) == 0 {
            let side = if g.below(2) == 0 { &mut left } else { &mut right };
            let i = g.below(side.len() as u64) as usize;
            let mut vals = side[i].values().to_vec();
            if vals.pop().is_none() {
                vals.push(Value::Integer(1));
            }
            side[i] = Row::new(vals);
            // A ragged side is refused, and with it every chunk over it:
            // no operator writes one, so a pipeline raises an internal
            // error.
            let refused = |rows: &[Row], schema| ColumnBatch::pivot(rows, schema).is_none();
            prop_assert!(refused(&left, &ls) || refused(&right, &rs), "a ragged side pivoted");
            return Ok(());
        }
        // So is a side with a lane of another type than its column's.
        prop_assert_eq!(ColumnBatch::pivot(&left, &ls).is_none(), l_mistyped);
        prop_assert_eq!(ColumnBatch::pivot(&right, &rs).is_none(), r_mistyped);
        if l_mistyped || r_mistyped {
            return Ok(());
        }
        let lb = ColumnBatch::pivot(&left, &ls).unwrap();
        let rb = ColumnBatch::pivot(&right, &rs).unwrap();
        // Pairs in any order, repeats included; zero pairs when a side is empty.
        let n = if nl.min(nr) == 0 { 0 } else { g.below(10) as usize };
        let li: Vec<u32> = (0..n).map(|_| g.below(nl as u64) as u32).collect();
        let ri: Vec<u32> = (0..n).map(|_| g.below(nr as u64) as u32).collect();
        let got = ColumnBatch::join(&lb, &li, &rb, &ri);
        let pair = |(&l, &r): (&u32, &u32)| left[l as usize].concat(&right[r as usize]);
        let rows: Vec<Row> = li.iter().zip(&ri).map(pair).collect();
        let schema = ls.concat(&rs);
        let want = ColumnBatch::pivot(&rows, &schema).unwrap();
        prop_assert_eq!(got.len(), n);
        // Zero rows pivot to their schema's columns, with no lanes.
        prop_assert_eq!(got.arity(), la + ra);
        prop_assert_eq!(want.arity(), la + ra);
        let sides = lb.cols().iter().chain(rb.cols());
        // Every column has the variant its type names, pairs or rows.
        let variant = |c: &Col| std::mem::discriminant(c);
        for (j, ((c, w), s)) in got.cols().iter().zip(want.cols()).zip(sides).enumerate() {
            assert_same_lanes(c, w, j);
            assert_eq!(variant(c), variant(s), "column {j}");
            assert_eq!(variant(c), variant(w), "column {j}");
        }
        // A chunk gathered from a joined chunk (boxed views of views)
        // reads its lanes in the same way.
        let perm: Vec<u32> = (0..n).rev().map(|k| k as u32).collect();
        let none = ColumnBatch::from_rows(&[]).unwrap();
        let again = ColumnBatch::join(&got, &perm, &none, &perm);
        let rows: Vec<Row> = perm.iter().map(|&k| rows[k as usize].clone()).collect();
        let want = ColumnBatch::pivot(&rows, &schema).unwrap();
        prop_assert_eq!(again.arity(), got.arity());
        for (j, (c, w)) in again.cols().iter().zip(want.cols()).enumerate() {
            assert_same_lanes(c, w, j);
        }
    }
}
