//! Property tests for the spill subsystem: spill → reload is identity for
//! arbitrary row batches (every `Value` variant, NaN doubles, empty
//! vectors/matrices included), and any single flipped byte in the spill
//! file is detected as a typed error — never silently wrong rows.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lardb_buf::{BufError, SpillWriter};
use lardb_la::{LabeledScalar, Matrix, Vector};
use lardb_net::codec::wire_eq;
use lardb_storage::{Row, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// Doubles over the full bit space, with the edge cases (NaN, ±0.0,
/// ±∞, subnormals) forced in often enough that every run sees them.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0usize..12, i64::MIN..=i64::MAX).prop_map(|(sel, bits)| match sel {
        0 => f64::NAN,
        1 => -0.0,
        2 => 0.0,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => f64::from_bits(bits as u64),
    })
}

/// Strings from a palette that includes multi-byte UTF-8; empty often.
fn arb_string() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &['a', 'Z', '0', ' ', '_', 'é', 'β', '☃', '—', '\n'];
    vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|idx| idx.into_iter().map(|i| PALETTE[i]).collect())
}

/// Any `Value` variant, matching the codec property suite's coverage.
fn arb_value() -> impl Strategy<Value = Value> {
    (
        0usize..8,
        i64::MIN..=i64::MAX,
        arb_f64(),
        vec(arb_f64(), 0..18),
        (0usize..4, 0usize..4),
        arb_string(),
    )
        .prop_map(|(variant, int, x, data, (r, c), s)| match variant {
            0 => Value::Null,
            1 => Value::Integer(int),
            2 => Value::Double(x),
            3 => Value::Boolean(int % 2 == 0),
            4 => Value::Varchar(Arc::from(s.as_str())),
            5 => Value::LabeledScalar(LabeledScalar::new(x, int)),
            6 => {
                let mut v = Vector::from_vec(data);
                v.set_label(int);
                Value::vector(v)
            }
            _ => {
                let m = Matrix::from_fn(r, c, |i, j| {
                    if data.is_empty() { x } else { data[(i * c + j) % data.len()] }
                });
                Value::matrix(m)
            }
        })
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    vec(vec(arb_value(), 0..5).prop_map(Row::new), 0..40)
}

/// A directory no other test, and no other case of this test, uses.
fn test_dir(test: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir()
        .join(format!("lardb-buf-prop-{}-{test}-{case}", std::process::id()))
}

fn rows_wire_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.arity() == y.arity()
                && x.values().iter().zip(y.values()).all(|(p, q)| wire_eq(p, q))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Spill then reload is the identity, bit-exactly, for arbitrary batches.
    #[test]
    fn spill_reload_is_identity(rows in arb_rows(), split in 0usize..40) {
        let dir = test_dir("spill_reload_is_identity");
        let mut w = SpillWriter::create(&dir, "prop").expect("create");
        let cut = split.min(rows.len());
        w.write_rows(&rows[..cut]).expect("write");
        w.write_rows(&rows[cut..]).expect("write");
        let f = w.finish().expect("finish");
        prop_assert_eq!(f.rows(), rows.len() as u64);
        let back = f.read_rows().expect("read");
        prop_assert!(rows_wire_eq(&rows, &back));
        drop(f);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every single-byte flip anywhere in the file is caught: the read
    /// either errors (typed) or — if it somehow decodes — cannot produce
    /// the original rows with a matching fin. It must never panic.
    #[test]
    fn flipped_byte_is_detected(rows in arb_rows(), pos_sel in 0usize..10_000, flip in 1u8..=255) {
        let dir = test_dir("flipped_byte_is_detected");
        let mut w = SpillWriter::create(&dir, "flip").expect("create");
        w.write_rows(&rows).expect("write");
        let f = w.finish().expect("finish");
        let mut bytes = std::fs::read(f.path()).expect("slurp");
        let pos = pos_sel % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(f.path(), &bytes).expect("rewrite");
        match f.read_rows() {
            Err(BufError::Codec(_))
            | Err(BufError::Corrupt { .. })
            | Err(BufError::Truncated { .. })
            | Err(BufError::Io { .. }) => {}
            Ok(back) => {
                // A flip confined to a value's payload bytes can decode to a
                // frame of the same length whose checksum... no: the fin
                // checksum covers every rows-frame byte, so a flip in a rows
                // frame always trips it, and a flip in the fin frame trips
                // the comparison. The only undetectable position would be a
                // flip that leaves all bytes equal — impossible with a
                // nonzero mask. Reaching here means detection failed.
                prop_assert!(false, "flip at {pos} undetected ({} rows returned)", back.len());
            }
        }
        drop(f);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
