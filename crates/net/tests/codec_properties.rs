//! Property tests for the wire codec: `decode(encode(v))` is bit-exact
//! for every `Value` variant (NaN doubles, signed zeros, empty matrices,
//! extreme labels included), and truncated or corrupted frames return
//! errors — they never panic and never over-allocate.

use std::sync::Arc;

use lardb_la::{LabeledScalar, Matrix, Vector};
use lardb_net::codec::{
    checksum_update, decode_frame, decode_value, encode_fin_frame, encode_rows_frame,
    encode_schema_frame, encode_value, encoded_value_size, wire_eq, FinSummary, Frame,
    CHECKSUM_SEED,
};
use lardb_net::stream::{Check, Seal, StreamError};
use lardb_net::{ChannelTransport, NetError, Transport};
use lardb_storage::{Column, DataType, Row, Schema, Value};
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

/// Any `Value` variant. Labels span the full `i64` range; vectors may be
/// empty; matrices may have zero rows, zero columns, or both.
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

fn arb_dtype() -> impl Strategy<Value = DataType> {
    (0usize..7, proptest::option::of(0u32..2000), proptest::option::of(0u32..2000))
        .prop_map(|(sel, d1, d2)| match sel {
            0 => DataType::Integer,
            1 => DataType::Double,
            2 => DataType::Boolean,
            3 => DataType::Varchar,
            4 => DataType::LabeledScalar,
            5 => DataType::Vector(d1.map(|d| d as usize)),
            _ => DataType::Matrix(d1.map(|d| d as usize), d2.map(|d| d as usize)),
        })
}

fn arb_schema() -> impl Strategy<Value = Schema> {
    vec((arb_string(), proptest::option::of(arb_string()), arb_dtype()), 0..6)
        .prop_map(|cols| {
            Schema::new(
                cols.into_iter()
                    .map(|(name, qualifier, dtype)| Column { qualifier, name, dtype })
                    .collect(),
            )
        })
}

fn rows_wire_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.arity() == y.arity()
                && x.values().iter().zip(y.values()).all(|(p, q)| wire_eq(p, q))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn value_roundtrips_bit_exactly(v in arb_value()) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        prop_assert_eq!(buf.len(), encoded_value_size(&v));
        let back = decode_value(&buf).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("decode: {e}"))
        })?;
        prop_assert!(wire_eq(&v, &back), "{:?} != {:?}", v, back);
    }

    #[test]
    fn rows_frame_roundtrips(rows in vec(vec(arb_value(), 0..5), 0..5)) {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let frame = encode_rows_frame(&rows);
        match decode_frame(&frame) {
            Ok(Frame::Rows(back)) => {
                prop_assert!(rows_wire_eq(&rows, &back));
            }
            other => prop_assert!(false, "expected rows frame, got {:?}", other),
        }
    }

    #[test]
    fn schema_frame_roundtrips(schema in arb_schema()) {
        let frame = encode_schema_frame(&schema);
        match decode_frame(&frame) {
            Ok(Frame::Schema(back)) => prop_assert_eq!(back, schema),
            other => prop_assert!(false, "expected schema frame, got {:?}", other),
        }
    }

    #[test]
    fn truncated_frames_error_never_panic(
        rows in vec(vec(arb_value(), 0..4), 1..4),
        cut_sel in 0usize..10_000,
    ) {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let frame = encode_rows_frame(&rows);
        // Every proper prefix must fail to decode: the frame declares its
        // row count up front, so missing bytes are always detectable.
        let cut = cut_sel % frame.len();
        prop_assert!(
            decode_frame(&frame[..cut]).is_err(),
            "prefix of {} / {} bytes decoded", cut, frame.len()
        );
    }

    #[test]
    fn corrupted_frames_never_panic(
        rows in vec(vec(arb_value(), 0..4), 1..4),
        pos_sel in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let mut frame = encode_rows_frame(&rows);
        let pos = pos_sel % frame.len();
        frame[pos] ^= flip;
        // A flipped payload byte may still decode to a (different) valid
        // frame; the property is bounded, panic-free handling either way.
        let _ = decode_frame(&frame);
    }

    #[test]
    fn truncated_schema_frames_error(schema in arb_schema(), cut_sel in 0usize..10_000) {
        let frame = encode_schema_frame(&schema);
        let cut = cut_sel % frame.len();
        prop_assert!(decode_frame(&frame[..cut]).is_err());
    }

    #[test]
    fn fin_frames_roundtrip_and_reject_prefixes(
        frames in 0u64..=u64::MAX,
        rows in 0u64..=u64::MAX,
        checksum in 0u64..=u64::MAX,
        cut_sel in 0usize..10_000,
    ) {
        let fin = FinSummary { frames, rows, checksum };
        let frame = encode_fin_frame(&fin);
        match decode_frame(&frame) {
            Ok(Frame::Fin(back)) => prop_assert_eq!(back, fin),
            other => prop_assert!(false, "expected fin frame, got {:?}", other),
        }
        let cut = cut_sel % frame.len();
        prop_assert!(decode_frame(&frame[..cut]).is_err());
    }

    #[test]
    fn checksum_chunking_is_associative(
        bytes in vec(0u8..=255, 0..256),
        split_sel in 0usize..10_000,
    ) {
        // Senders checksum whole frames, receivers too — but the fold must
        // not depend on chunk boundaries, only on the byte stream.
        let whole = checksum_update(CHECKSUM_SEED, &bytes);
        let split = if bytes.is_empty() { 0 } else { split_sel % bytes.len() };
        let halves =
            checksum_update(checksum_update(CHECKSUM_SEED, &bytes[..split]), &bytes[split..]);
        prop_assert_eq!(whole, halves);
    }

    #[test]
    fn a_flipped_byte_in_any_frame_fails_the_check(
        schema in arb_schema(),
        rows in vec(vec(arb_value(), 1..4), 1..40),
        frame_sel in 0usize..10_000,
        byte_sel in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        // A cap just over the largest row's frame: several rows frames.
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let max = rows.iter().map(|r| encode_rows_frame(std::slice::from_ref(r)).len()).max();
        let mut seal = Seal::default();
        let mut frames = vec![seal.frame(encode_schema_frame(&schema))];
        frames.extend(seal.rows(&rows, max.unwrap() + 64).map(Result::unwrap));
        let decoded: Vec<Frame> = frames.iter().map(|f| decode_frame(f).unwrap()).collect();

        // The flipped frame is checked as it decoded before the flip, so
        // only the fold can notice.
        let at = frame_sel % frames.len();
        let byte = byte_sel % frames[at].len();
        frames[at][byte] ^= flip;
        let mut check = Check::default();
        for (bytes, frame) in frames.iter().zip(&decoded) {
            prop_assert_eq!(check.accept(bytes, frame), Ok(()));
        }
        let fin_frame = seal.fin();
        let got = check.accept(&fin_frame, &decode_frame(&fin_frame).unwrap());
        prop_assert!(
            matches!(&got, Err(StreamError::Mismatch { fin, seen })
                if (fin.frames, fin.rows) == (seen.frames, seen.rows)
                    && fin.checksum != seen.checksum),
            "frame {} byte {} ^ {:#x}: {:?}", at, byte, flip, got
        );
    }
}

/// The transport-level frame cap: a frame exactly at `max_frame_bytes`
/// passes, one byte over is rejected as `FrameTooLarge` before it is
/// buffered or shipped, and a zero-length frame moves cleanly through the
/// transport (decoding it then fails, but bounded and typed).
#[test]
fn frame_size_boundary_is_enforced() {
    let cap = 256usize;
    let transport =
        ChannelTransport { max_frame_bytes: cap, ..ChannelTransport::default() };
    let mesh = transport.mesh(2).unwrap();

    mesh.send(0, 1, vec![0xAB; cap]).unwrap();
    match mesh.send(0, 1, vec![0xAB; cap + 1]) {
        Err(NetError::FrameTooLarge { len, max }) => {
            assert_eq!((len, max), ((cap + 1) as u64, cap as u64));
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    mesh.send(0, 1, Vec::new()).unwrap();
    mesh.close(0).unwrap();
    mesh.close(1).unwrap();

    let (from, boundary) = mesh.recv(1).unwrap().unwrap();
    assert_eq!((from, boundary.len()), (0, cap));
    let (_, empty) = mesh.recv(1).unwrap().unwrap();
    assert!(empty.is_empty());
    assert!(decode_frame(&empty).is_err(), "zero-length frame must not decode");
    assert_eq!(mesh.recv(1).unwrap(), None);
}

#[test]
fn empty_and_garbage_buffers_error() {
    assert!(decode_frame(&[]).is_err());
    assert!(decode_value(&[]).is_err());
    assert!(decode_frame(&[0xFF; 64]).is_err());
    // A bogus huge length field must be rejected before allocating.
    let mut frame = encode_rows_frame(&[Row::new(vec![Value::Integer(1)])]);
    frame[3] = 0xFF;
    frame[4] = 0xFF;
    frame[5] = 0xFF;
    frame[6] = 0xFF;
    assert!(decode_frame(&frame).is_err());
}
