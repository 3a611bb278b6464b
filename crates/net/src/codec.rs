//! The binary wire format.
//!
//! Everything is **little-endian** and length-prefixed; nothing is
//! self-delimiting by accident. A frame looks like:
//!
//! ```text
//! ┌──────┬─────────┬──────┬─────────────┬─────────────────────────┐
//! │ 0xA7 │ version │ kind │ u32 payload │ payload …               │
//! │ magic│  (0x03) │  u8  │   count     │ (rows or one schema)    │
//! └──────┴─────────┴──────┴─────────────┴─────────────────────────┘
//! ```
//!
//! * kind `1` (rows): `count` rows follow, each `u32 arity` + values.
//! * kind `2` (schema): `count` is the column count; columns follow.
//! * kind `3` (fin): `count` is 0; three `u64`s follow — the channel's
//!   frame count, row count, and checksum over every preceding frame's
//!   bytes. Every sender ends every channel with a fin frame, so a
//!   receiver can prove it saw the whole stream (a missing or mismatching
//!   fin = truncation, surfaced as an error, never as a silently short
//!   result).
//! * kind `12` (trace): `count` is 0; one `u64` follows — the sender's
//!   query trace id, shipped as the channel's first frame when
//!   end-to-end tracing is on (kinds 4–11 are the server control
//!   protocol's, see `msg.rs`). Counted in the fin summary like any
//!   other frame.
//!
//! The fin checksum (protocol v3) is FNV-1a 64 a word at a time. With
//! `P = 0x100000001B3` and starting from the offset basis
//! `h = 0xCBF29CE484222325`, every 8-byte little-endian word `w` of the
//! preceding frames' *concatenated* bytes is first mixed on its own,
//! `u = w·P`, `m = u ^ (u >> 32)`, and then folds as `h ← (h ^ m)·P`;
//! the 0–7 trailing bytes `b` fold one at a time as `h ← (h ^ b)·P`
//! (byte-wise FNV-1a). Words run across frame boundaries, so the value
//! depends on the bytes alone, not on how they were cut.
//!
//! Every value starts with a tag byte:
//!
//! | tag | variant | payload |
//! |----:|---|---|
//! | 0 | `Null` | — |
//! | 1 | `Integer` | `i64` |
//! | 2 | `Double` | `f64` bits |
//! | 3 | `Boolean` | `u8` (0/1) |
//! | 4 | `Varchar` | `u32 len` + UTF-8 bytes |
//! | 5 | `LabeledScalar` | `f64` value + `i64` label |
//! | 6 | `Vector` | `u32 len` + `i64` label + `len × f64` |
//! | 7 | `Matrix` | `u32 rows` + `u32 cols` + `rows·cols × f64` |
//! | 8 | `SparseMatrix` | `u32 rows` + `u32 cols` + `u32 nnz` + nnz × (varint Δrow + varint col/Δcol + `f64`) |
//!
//! Sparse tiles ship **only their nonzeros**: entries stream in row-major
//! order, the row index as a delta from the previous entry's row and the
//! column either absolute (first entry of a row) or as the gap from the
//! previous column minus one (columns are strictly increasing within a
//! row). Deltas are LEB128 varints, so a million-edge tile costs a few
//! bytes per edge instead of `8·n²`. The decoder builds the tile's listed
//! rows straight from the deltas (a new row closes the previous one), so
//! it allocates nothing proportional to the declared row count, and the
//! structure is re-validated (increasing, in-bounds) before construction,
//! so a corrupted frame is a typed error — never a mis-shapen tile.
//!
//! Doubles travel as raw IEEE-754 bit patterns, so NaNs (any payload) and
//! signed zeros roundtrip exactly. Decoding is *checked*: truncated or
//! corrupted input yields a [`CodecError`], never a panic, and length
//! fields are validated against the remaining buffer before any
//! allocation (a corrupt 4 GB length cannot OOM the decoder).

use std::sync::Arc;

use lardb_la::{LabeledScalar, Matrix, SparseMatrix, Vector};
use lardb_storage::{Column, DataType, Row, Schema, Value};

/// First byte of every frame.
pub const FRAME_MAGIC: u8 = 0xA7;
/// Wire-format version this build speaks. Version 2 added the fin frame
/// (kind 3) that ends every exchange channel; version 3 folds its
/// checksum a word at a time.
pub const WIRE_VERSION: u8 = 3;

const KIND_ROWS: u8 = 1;
const KIND_SCHEMA: u8 = 2;
const KIND_FIN: u8 = 3;
// Kinds 4–11 belong to the server control protocol (`msg.rs`).
const KIND_TRACE: u8 = 12;

/// FNV-1a 64-bit prime: the multiplier of every fold step and of the
/// word mix.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A running stream checksum: FNV-1a 64 taken a little-endian 8-byte
/// word at a time over the stream's concatenated bytes (each word mixed
/// on its own first; the module header gives the definition), with the
/// 0–7 bytes of a word not yet complete held back. Because the partial word
/// travels in the state, how the stream was split into calls never
/// matters. [`ChecksumState::finish`] folds the held bytes in one at a
/// time and yields the `u64` a fin frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumState {
    h: u64,
    /// The pending bytes, little-endian from bit 0; bits past `len` are 0.
    tail: u64,
    len: u8,
}

/// The empty stream's state: the FNV-1a 64-bit offset basis, nothing
/// pending.
pub const CHECKSUM_SEED: ChecksumState =
    ChecksumState { h: 0xCBF2_9CE4_8422_2325, tail: 0, len: 0 };

impl ChecksumState {
    /// The checksum of everything folded so far: the pending bytes folded
    /// one at a time, as byte-wise FNV-1a does. Leaves the state as it is.
    pub fn finish(self) -> u64 {
        let byte = |i: u8| (self.tail >> (8 * i)) & 0xFF;
        (0..self.len).fold(self.h, |h, i| (h ^ byte(i)).wrapping_mul(FNV_PRIME))
    }
}

/// One word's fold step, `h ← (h ^ m(w))·P` with `m(w) = u ^ (u >> 32)`
/// for `u = w·P`. The multiply alone only carries a difference upward, and
/// it keeps a flip of bit 63 exactly a flip of bit 63, which a flip of a
/// later word's bit 63 would cancel. Mixing the word first folds its high
/// half onto its low half, so a flipped bit 63 meets `h`'s multiply at
/// bit 31 as well, and the multiply spreads it. `m` is a bijection (an
/// odd multiply, then an invertible xorshift) and it does not depend on
/// `h`, so it runs beside the dependent chain instead of lengthening it.
fn fold_word(h: u64, w: u64) -> u64 {
    let u = w.wrapping_mul(FNV_PRIME);
    (h ^ (u ^ (u >> 32))).wrapping_mul(FNV_PRIME)
}

/// Folds `bytes` into a running checksum. Start from [`CHECKSUM_SEED`];
/// feed every frame the channel ships, in order. Each step
/// (`fold_word`) is a bijection in `h` and in the word, so one changed
/// word anywhere changes the finished value. A truncation/corruption
/// tripwire, not a MAC.
pub fn checksum_update(mut state: ChecksumState, mut bytes: &[u8]) -> ChecksumState {
    if state.len > 0 {
        let have = usize::from(state.len);
        let take = (8 - have).min(bytes.len());
        for (i, &b) in bytes[..take].iter().enumerate() {
            state.tail |= u64::from(b) << (8 * (have + i));
        }
        bytes = &bytes[take..];
        if have + take < 8 {
            state.len = (have + take) as u8;
            return state;
        }
        state.h = fold_word(state.h, state.tail);
        state.tail = 0;
    }
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        state.h = fold_word(state.h, w);
    }
    let rest = words.remainder();
    for (i, &b) in rest.iter().enumerate() {
        state.tail |= u64::from(b) << (8 * i);
    }
    state.len = rest.len() as u8;
    state
}

const TAG_NULL: u8 = 0;
const TAG_INTEGER: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_BOOLEAN: u8 = 3;
const TAG_VARCHAR: u8 = 4;
const TAG_LABELED: u8 = 5;
const TAG_VECTOR: u8 = 6;
const TAG_MATRIX: u8 = 7;
const TAG_SPARSE_MATRIX: u8 = 8;

const DT_INTEGER: u8 = 0;
const DT_DOUBLE: u8 = 1;
const DT_BOOLEAN: u8 = 2;
const DT_VARCHAR: u8 = 3;
const DT_LABELED: u8 = 4;
const DT_VECTOR: u8 = 5;
const DT_MATRIX: u8 = 6;

/// A decode failure. Field names say what was being read when the input
/// ran out or made no sense.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// Input ended before `needed` more bytes of `what` could be read.
    Truncated { what: &'static str, needed: usize, available: usize },
    /// The first byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// A frame from a future (or garbage) wire version.
    UnsupportedVersion(u8),
    /// An unknown tag byte for `what`.
    BadTag { what: &'static str, tag: u8 },
    /// A `VARCHAR` or identifier payload was not valid UTF-8.
    BadUtf8,
    /// A length field implies more payload than the buffer holds.
    LengthOverflow { what: &'static str, len: u64, available: usize },
    /// Bytes were left over after the frame's declared contents.
    TrailingBytes(usize),
    /// A structurally invalid payload (e.g. a sparse tile whose decoded
    /// indices are out of bounds or non-monotone).
    Malformed { what: &'static str },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what, needed, available } => write!(
                f,
                "truncated input reading {what}: needed {needed} bytes, {available} available"
            ),
            CodecError::BadMagic(b) => write!(f, "bad frame magic byte 0x{b:02x}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            CodecError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            CodecError::LengthOverflow { what, len, available } => write!(
                f,
                "{what} length {len} exceeds remaining buffer ({available} bytes)"
            ),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            CodecError::Malformed { what } => write!(f, "malformed {what} payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A batch of rows — what exchanges ship.
    Rows(Vec<Row>),
    /// A schema — handshake / catalog shipment.
    Schema(Schema),
    /// End-of-channel summary.
    Fin(FinSummary),
    /// Trace-context propagation: the sender's query trace id, shipped
    /// first on a channel when end-to-end tracing is active so the
    /// receiving side can attribute its work to the same trace. Counted
    /// and checksummed like any other pre-fin frame.
    Trace(u64),
}

/// What one sender shipped down one channel, carried by the fin frame
/// that ends the channel. A receiver recomputes all three independently;
/// any mismatch (or a missing fin) is a detected truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FinSummary {
    /// Frames shipped before the fin (schema + row frames).
    pub frames: u64,
    /// Total rows across those frames.
    pub rows: u64,
    /// The finished [`ChecksumState`] over every preceding frame's encoded
    /// bytes, seeded with [`CHECKSUM_SEED`].
    pub checksum: u64,
}

// ------------------------------------------------------------- encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// LEB128 unsigned varint — used by the sparse-tile index deltas.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Encoded byte length of a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Streams one sparse tile's entries as row-major deltas: Δrow varint,
/// then absolute column (new row) or `col − prev_col − 1` (same row),
/// then the raw value bits.
fn encode_sparse_entries(m: &SparseMatrix, buf: &mut Vec<u8>) {
    let mut prev_row = 0usize;
    let mut prev_col = 0usize;
    let mut first = true;
    for (r, c, v) in m.iter() {
        let drow = r - prev_row;
        put_varint(buf, drow as u64);
        if first || drow > 0 {
            put_varint(buf, c as u64);
        } else {
            put_varint(buf, (c - prev_col - 1) as u64);
        }
        put_f64(buf, v);
        prev_row = r;
        prev_col = c;
        first = false;
    }
}

/// Appends one value's wire form to `buf`.
pub fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Integer(i) => {
            buf.push(TAG_INTEGER);
            put_i64(buf, *i);
        }
        Value::Double(d) => {
            buf.push(TAG_DOUBLE);
            put_f64(buf, *d);
        }
        Value::Boolean(b) => {
            buf.push(TAG_BOOLEAN);
            buf.push(u8::from(*b));
        }
        Value::Varchar(s) => {
            buf.push(TAG_VARCHAR);
            put_str(buf, s);
        }
        Value::LabeledScalar(s) => {
            buf.push(TAG_LABELED);
            put_f64(buf, s.value);
            put_i64(buf, s.label);
        }
        Value::Vector(vec) => {
            buf.push(TAG_VECTOR);
            put_u32(buf, vec.len() as u32);
            put_i64(buf, vec.label());
            buf.reserve(vec.len() * 8);
            for &x in vec.as_slice() {
                put_f64(buf, x);
            }
        }
        Value::Matrix(m) => {
            buf.push(TAG_MATRIX);
            put_u32(buf, m.rows() as u32);
            put_u32(buf, m.cols() as u32);
            buf.reserve(m.as_slice().len() * 8);
            for &x in m.as_slice() {
                put_f64(buf, x);
            }
        }
        Value::SparseMatrix(m) => {
            buf.push(TAG_SPARSE_MATRIX);
            put_u32(buf, m.rows() as u32);
            put_u32(buf, m.cols() as u32);
            put_u32(buf, m.nnz() as u32);
            buf.reserve(m.nnz() * 10);
            encode_sparse_entries(m, buf);
        }
    }
}

/// Appends one row (`u32` arity + values) to `buf`.
pub fn encode_row(row: &Row, buf: &mut Vec<u8>) {
    put_u32(buf, row.arity() as u32);
    for v in row.values() {
        encode_value(v, buf);
    }
}

fn encode_dtype(dt: &DataType, buf: &mut Vec<u8>) {
    let put_dim = |buf: &mut Vec<u8>, d: Option<usize>| match d {
        Some(n) => {
            buf.push(1);
            put_u32(buf, n as u32);
        }
        None => buf.push(0),
    };
    match dt {
        DataType::Integer => buf.push(DT_INTEGER),
        DataType::Double => buf.push(DT_DOUBLE),
        DataType::Boolean => buf.push(DT_BOOLEAN),
        DataType::Varchar => buf.push(DT_VARCHAR),
        DataType::LabeledScalar => buf.push(DT_LABELED),
        DataType::Vector(n) => {
            buf.push(DT_VECTOR);
            put_dim(buf, *n);
        }
        DataType::Matrix(r, c) => {
            buf.push(DT_MATRIX);
            put_dim(buf, *r);
            put_dim(buf, *c);
        }
    }
}

fn encode_column(c: &Column, buf: &mut Vec<u8>) {
    match &c.qualifier {
        Some(q) => {
            buf.push(1);
            put_str(buf, q);
        }
        None => buf.push(0),
    }
    put_str(buf, &c.name);
    encode_dtype(&c.dtype, buf);
}

fn frame_header(kind: u8, count: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.push(FRAME_MAGIC);
    buf.push(WIRE_VERSION);
    buf.push(kind);
    put_u32(&mut buf, count);
    buf
}

/// Encodes a batch of rows as one self-contained frame.
pub fn encode_rows_frame(rows: &[Row]) -> Vec<u8> {
    let mut buf = frame_header(KIND_ROWS, rows.len() as u32);
    for r in rows {
        encode_row(r, &mut buf);
    }
    buf
}

/// Encodes a schema as one self-contained frame.
pub fn encode_schema_frame(schema: &Schema) -> Vec<u8> {
    let mut buf = frame_header(KIND_SCHEMA, schema.arity() as u32);
    for c in schema.columns() {
        encode_column(c, &mut buf);
    }
    buf
}

/// Encodes an end-of-channel summary as one self-contained frame.
pub fn encode_fin_frame(fin: &FinSummary) -> Vec<u8> {
    let mut buf = frame_header(KIND_FIN, 0);
    buf.extend_from_slice(&fin.frames.to_le_bytes());
    buf.extend_from_slice(&fin.rows.to_le_bytes());
    buf.extend_from_slice(&fin.checksum.to_le_bytes());
    buf
}

/// Encodes a trace-context frame carrying the sender's trace id.
pub fn encode_trace_frame(trace_id: u64) -> Vec<u8> {
    let mut buf = frame_header(KIND_TRACE, 0);
    buf.extend_from_slice(&trace_id.to_le_bytes());
    buf
}

// ------------------------------------------------------------- decoding

/// A checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self, what: &'static str) -> Result<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64> {
        let b = self.take(8, what)?;
        Ok(f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }

    /// Reads a `u32` count and verifies the remaining buffer can hold at
    /// least `count × min_elem_bytes` more bytes before any allocation.
    fn checked_count(&mut self, what: &'static str, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u32(what)? as usize;
        let needed = n.saturating_mul(min_elem_bytes);
        if needed > self.remaining() {
            return Err(CodecError::LengthOverflow {
                what,
                len: n as u64,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    fn str(&mut self, what: &'static str) -> Result<&'a str> {
        let n = self.checked_count(what, 1)?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a LEB128 varint (≤ 10 bytes; overlong encodings rejected).
    fn varint(&mut self, what: &'static str) -> Result<u64> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(what)?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(CodecError::Malformed { what });
            }
            out |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    fn f64_run(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>> {
        let bytes = self.take(n * 8, what)?;
        let mut out = Vec::with_capacity(n);
        for chunk in bytes.chunks_exact(8) {
            out.push(f64::from_bits(u64::from_le_bytes(
                chunk.try_into().expect("8 bytes"),
            )));
        }
        Ok(out)
    }
}

fn decode_value_inner(r: &mut Reader<'_>) -> Result<Value> {
    let tag = r.u8("value tag")?;
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INTEGER => Value::Integer(r.i64("INTEGER")?),
        TAG_DOUBLE => Value::Double(r.f64("DOUBLE")?),
        TAG_BOOLEAN => Value::Boolean(r.u8("BOOLEAN")? != 0),
        TAG_VARCHAR => Value::Varchar(Arc::from(r.str("VARCHAR")?)),
        TAG_LABELED => {
            let value = r.f64("LABELED_SCALAR value")?;
            let label = r.i64("LABELED_SCALAR label")?;
            Value::LabeledScalar(LabeledScalar::new(value, label))
        }
        TAG_VECTOR => {
            let len = r.checked_count("VECTOR length", 8)?;
            let label = r.i64("VECTOR label")?;
            let data = r.f64_run(len, "VECTOR entries")?;
            let mut v = Vector::from_vec(data);
            v.set_label(label);
            Value::vector(v)
        }
        TAG_MATRIX => {
            let rows = r.checked_count("MATRIX rows", 0)?;
            let cols = r.checked_count("MATRIX cols", 0)?;
            let total = rows.saturating_mul(cols);
            if total.saturating_mul(8) > r.remaining() {
                return Err(CodecError::LengthOverflow {
                    what: "MATRIX entries",
                    len: total as u64,
                    available: r.remaining(),
                });
            }
            let data = r.f64_run(total, "MATRIX entries")?;
            let m = Matrix::from_vec(rows, cols, data)
                .expect("dimension check precedes construction");
            Value::matrix(m)
        }
        TAG_SPARSE_MATRIX => {
            let rows = r.checked_count("SPARSE_MATRIX rows", 0)?;
            let cols = r.checked_count("SPARSE_MATRIX cols", 0)?;
            // Each entry is ≥ 2 varint bytes + 8 value bytes.
            let nnz = r.checked_count("SPARSE_MATRIX nnz", 10)?;
            // Entries arrive row-major, so each new row closes the last
            // one: the decode builds the listed rows directly, with nothing
            // proportional to `rows`.
            let mut row_ids: Vec<u32> = Vec::new();
            let mut row_ptr: Vec<u32> = vec![0];
            let mut indices = Vec::with_capacity(nnz);
            let mut values = Vec::with_capacity(nnz);
            let malformed = |what| CodecError::Malformed { what };
            let mut row = 0usize;
            let mut col = 0usize;
            for i in 0..nnz {
                let drow = r.varint("SPARSE_MATRIX row delta")? as usize;
                let dcol = r.varint("SPARSE_MATRIX col delta")? as usize;
                let new_row = i == 0 || drow > 0;
                row = row.checked_add(drow).ok_or(malformed("SPARSE_MATRIX row index"))?;
                col = if new_row {
                    dcol
                } else {
                    col.checked_add(dcol).and_then(|c| c.checked_add(1)).unwrap_or(usize::MAX)
                };
                if row >= rows || col >= cols {
                    return Err(malformed("SPARSE_MATRIX index"));
                }
                if new_row {
                    if i > 0 {
                        row_ptr.push(i as u32);
                    }
                    row_ids.push(row as u32);
                }
                indices.push(col as u32);
                values.push(r.f64("SPARSE_MATRIX value")?);
            }
            if nnz > 0 {
                row_ptr.push(nnz as u32);
            }
            let m = SparseMatrix::from_parts(rows, cols, row_ids, row_ptr, indices, values)
                .map_err(|_| malformed("SPARSE_MATRIX structure"))?;
            Value::sparse_matrix(m)
        }
        tag => return Err(CodecError::BadTag { what: "value", tag }),
    })
}

fn decode_row_inner(r: &mut Reader<'_>) -> Result<Row> {
    // A value is at least 1 tag byte.
    let arity = r.checked_count("row arity", 1)?;
    let mut vals = Vec::with_capacity(arity);
    for _ in 0..arity {
        vals.push(decode_value_inner(r)?);
    }
    Ok(Row::new(vals))
}

fn decode_dtype(r: &mut Reader<'_>) -> Result<DataType> {
    let dim = |r: &mut Reader<'_>| -> Result<Option<usize>> {
        match r.u8("dimension flag")? {
            0 => Ok(None),
            _ => Ok(Some(r.u32("dimension")? as usize)),
        }
    };
    let tag = r.u8("data type tag")?;
    Ok(match tag {
        DT_INTEGER => DataType::Integer,
        DT_DOUBLE => DataType::Double,
        DT_BOOLEAN => DataType::Boolean,
        DT_VARCHAR => DataType::Varchar,
        DT_LABELED => DataType::LabeledScalar,
        DT_VECTOR => DataType::Vector(dim(r)?),
        DT_MATRIX => {
            let rows = dim(r)?;
            let cols = dim(r)?;
            DataType::Matrix(rows, cols)
        }
        tag => return Err(CodecError::BadTag { what: "data type", tag }),
    })
}

fn decode_column(r: &mut Reader<'_>) -> Result<Column> {
    let qualifier = match r.u8("qualifier flag")? {
        0 => None,
        _ => Some(r.str("qualifier")?.to_string()),
    };
    let name = r.str("column name")?.to_string();
    let dtype = decode_dtype(r)?;
    Ok(Column { qualifier, name, dtype })
}

/// Decodes one value from the start of `buf` (no frame header).
pub fn decode_value(buf: &[u8]) -> Result<Value> {
    let mut r = Reader::new(buf);
    let v = decode_value_inner(&mut r)?;
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

/// Decodes a full frame (magic + version + kind + payload).
pub fn decode_frame(buf: &[u8]) -> Result<Frame> {
    let mut r = Reader::new(buf);
    let magic = r.u8("frame magic")?;
    if magic != FRAME_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.u8("wire version")?;
    if version != WIRE_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = r.u8("frame kind")?;
    let frame = match kind {
        KIND_ROWS => {
            // A row is at least 4 arity bytes.
            let n = r.checked_count("frame row count", 4)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(decode_row_inner(&mut r)?);
            }
            Frame::Rows(rows)
        }
        KIND_SCHEMA => {
            // A column is at least flag + name length + dtype tag.
            let n = r.checked_count("frame column count", 6)?;
            let mut cols = Vec::with_capacity(n);
            for _ in 0..n {
                cols.push(decode_column(&mut r)?);
            }
            Frame::Schema(Schema::new(cols))
        }
        KIND_FIN => {
            let count = r.u32("fin count")?;
            if count != 0 {
                return Err(CodecError::BadTag { what: "fin count", tag: count as u8 });
            }
            Frame::Fin(FinSummary {
                frames: r.u64("fin frame count")?,
                rows: r.u64("fin row count")?,
                checksum: r.u64("fin checksum")?,
            })
        }
        KIND_TRACE => {
            let count = r.u32("trace count")?;
            if count != 0 {
                return Err(CodecError::BadTag { what: "trace count", tag: count as u8 });
            }
            Frame::Trace(r.u64("trace id")?)
        }
        tag => return Err(CodecError::BadTag { what: "frame kind", tag }),
    };
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(frame)
}

/// Encoded size of one value, including its tag byte (what the serialized
/// byte meter charges per value before batching overheads).
pub fn encoded_value_size(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Integer(_) | Value::Double(_) => 9,
        Value::Boolean(_) => 2,
        Value::Varchar(s) => 5 + s.len(),
        Value::LabeledScalar(_) => 17,
        Value::Vector(vec) => 13 + 8 * vec.len(),
        Value::Matrix(m) => 9 + 8 * m.as_slice().len(),
        Value::SparseMatrix(m) => {
            // Tag + three u32 headers + per-entry varint deltas + value.
            // Mirrors `encode_sparse_entries` exactly, so the serialized
            // byte meter charges nnz-proportional sizes.
            let mut size = 13;
            let mut prev_row = 0usize;
            let mut prev_col = 0usize;
            let mut first = true;
            for (r, c, _) in m.iter() {
                let drow = r - prev_row;
                size += varint_len(drow as u64);
                size += if first || drow > 0 {
                    varint_len(c as u64)
                } else {
                    varint_len((c - prev_col - 1) as u64)
                };
                size += 8;
                prev_row = r;
                prev_col = c;
                first = false;
            }
            size
        }
    }
}

/// Bytes of a rows frame before its first row: magic, version, kind and
/// the `u32` row count.
pub const ROWS_FRAME_HEADER_BYTES: usize = 7;

/// Encoded size of one row inside a rows frame: its `u32` arity plus its
/// values. What the frame cutter sizes a frame with before encoding it.
pub fn encoded_row_size(row: &Row) -> usize {
    4 + row.values().iter().map(encoded_value_size).sum::<usize>()
}

/// Bit-exact value equality: like `PartialEq` but comparing doubles by
/// their IEEE-754 bit patterns, so `NaN == NaN` and `-0.0 != 0.0`. This is
/// the correct notion of "the wire preserved the value" (roundtrip
/// property tests use it).
pub fn wire_eq(a: &Value, b: &Value) -> bool {
    let bits_eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Integer(x), Value::Integer(y)) => x == y,
        (Value::Double(x), Value::Double(y)) => bits_eq(*x, *y),
        (Value::Boolean(x), Value::Boolean(y)) => x == y,
        (Value::Varchar(x), Value::Varchar(y)) => x == y,
        (Value::LabeledScalar(x), Value::LabeledScalar(y)) => {
            bits_eq(x.value, y.value) && x.label == y.label
        }
        (Value::Vector(x), Value::Vector(y)) => {
            x.label() == y.label()
                && x.len() == y.len()
                && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| bits_eq(*p, *q))
        }
        (Value::Matrix(x), Value::Matrix(y)) => {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| bits_eq(*p, *q))
        }
        // Structural, bit-exact: the wire must preserve the sparse
        // representation itself, not just its dense meaning.
        (Value::SparseMatrix(x), Value::SparseMatrix(y)) => {
            let (xr, xp, xi, xv) = x.parts();
            let (yr, yp, yi, yv) = y.parts();
            x.shape() == y.shape()
                && (xr, xp, xi) == (yr, yp, yi)
                && xv.iter().zip(yv).all(|(p, q)| bits_eq(*p, *q))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sparse() -> SparseMatrix {
        let mut b = lardb_la::CooBuilder::new();
        b.push(0, 0, 1.5).unwrap();
        b.push(0, 300, -2.25).unwrap();
        b.push(7, 3, f64::NAN).unwrap();
        b.push(7, 4, -0.0).unwrap();
        b.push(12, 511, 9.75).unwrap();
        b.build(13, 512).unwrap()
    }

    fn sample_values() -> Vec<Value> {
        let mut v = Vector::from_slice(&[1.5, -2.5, 0.0]);
        v.set_label(42);
        vec![
            Value::Null,
            Value::Integer(i64::MIN),
            Value::Integer(i64::MAX),
            Value::Double(std::f64::consts::PI),
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Boolean(true),
            Value::Boolean(false),
            Value::varchar(""),
            Value::varchar("héllo wörld — tiles"),
            Value::LabeledScalar(LabeledScalar::new(f64::NEG_INFINITY, i64::MIN)),
            Value::Vector(Arc::new(v)),
            Value::vector(Vector::zeros(0)),
            Value::matrix(Matrix::zeros(0, 0)),
            Value::matrix(Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64)),
            Value::sparse_matrix(sample_sparse()),
            Value::sparse_matrix(SparseMatrix::zeros(4, 9)),
            Value::sparse_matrix(SparseMatrix::zeros(0, 0)),
        ]
    }

    #[test]
    fn value_roundtrip_all_variants() {
        for v in sample_values() {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf);
            assert_eq!(buf.len(), encoded_value_size(&v), "{v:?}");
            let back = decode_value(&buf).unwrap();
            assert!(wire_eq(&v, &back), "{v:?} != {back:?}");
        }
    }

    #[test]
    fn rows_frame_roundtrip() {
        let rows = vec![
            Row::new(sample_values()),
            Row::new(vec![]),
            Row::new(vec![Value::Integer(7)]),
        ];
        let frame = encode_rows_frame(&rows);
        let sized = ROWS_FRAME_HEADER_BYTES + rows.iter().map(encoded_row_size).sum::<usize>();
        assert_eq!(frame.len(), sized);
        match decode_frame(&frame).unwrap() {
            Frame::Rows(back) => {
                assert_eq!(back.len(), rows.len());
                for (a, b) in rows.iter().zip(&back) {
                    assert_eq!(a.arity(), b.arity());
                    for (x, y) in a.values().iter().zip(b.values()) {
                        assert!(wire_eq(x, y));
                    }
                }
            }
            other => panic!("wrong frame kind: {other:?}"),
        }
    }

    #[test]
    fn schema_frame_roundtrip() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Integer),
            Column::qualified("x1", "val", DataType::Vector(Some(10))),
            Column::new("m", DataType::Matrix(Some(3), None)),
            Column::new("s", DataType::LabeledScalar),
        ]);
        let frame = encode_schema_frame(&schema);
        assert_eq!(decode_frame(&frame).unwrap(), Frame::Schema(schema));
    }

    #[test]
    fn header_errors() {
        let frame = encode_rows_frame(&[Row::new(vec![Value::Integer(1)])]);
        let mut bad = frame.clone();
        bad[0] = 0x00;
        assert!(matches!(decode_frame(&bad), Err(CodecError::BadMagic(0))));
        let mut bad = frame.clone();
        bad[1] = 99;
        assert!(matches!(decode_frame(&bad), Err(CodecError::UnsupportedVersion(99))));
        let mut bad = frame.clone();
        bad[2] = 77;
        assert!(matches!(
            decode_frame(&bad),
            Err(CodecError::BadTag { what: "frame kind", .. })
        ));
        let mut long = frame;
        long.push(0xFF);
        assert!(matches!(decode_frame(&long), Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn trace_frame_roundtrip() {
        for id in [0u64, 1, 0xDEAD_BEEF_0BAD_F00D, u64::MAX] {
            let frame = encode_trace_frame(id);
            assert_eq!(decode_frame(&frame).unwrap(), Frame::Trace(id));
            // Truncated trace frames must error, never decode short.
            for cut in 0..frame.len() {
                assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut} decoded");
            }
        }
        // A trace frame is checksummable like any other frame.
        let a = checksum_update(CHECKSUM_SEED, &encode_trace_frame(7));
        assert_ne!(a, CHECKSUM_SEED);
    }

    #[test]
    fn fin_frame_roundtrip() {
        let fin = FinSummary { frames: 17, rows: 4096, checksum: 0xDEAD_BEEF_0BAD_F00D };
        let frame = encode_fin_frame(&fin);
        assert_eq!(decode_frame(&frame).unwrap(), Frame::Fin(fin));
        // Truncated fins must error, never decode short.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn checksum_is_order_sensitive_and_deterministic() {
        let a = checksum_update(CHECKSUM_SEED, b"frame one");
        let b = checksum_update(a, b"frame two");
        assert_eq!(
            b,
            checksum_update(checksum_update(CHECKSUM_SEED, b"frame one"), b"frame two")
        );
        let swapped = checksum_update(checksum_update(CHECKSUM_SEED, b"frame two"), b"frame one");
        assert_ne!(b, swapped, "checksum ignored frame order");
        assert_ne!(a, CHECKSUM_SEED);
        assert_eq!(checksum_update(CHECKSUM_SEED, b""), CHECKSUM_SEED);
    }

    /// The fold as its definition reads: offset basis, then every 8-byte
    /// little-endian word of the bytes, mixed on its own and folded, then
    /// the trailing bytes one at a time.
    fn fold_by_definition(bytes: &[u8]) -> u64 {
        let p = 0x0100_0000_01B3u64;
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let words = bytes.len() / 8 * 8;
        for w in bytes[..words].chunks(8) {
            let u = u64::from_le_bytes(w.try_into().unwrap()).wrapping_mul(p);
            h = (h ^ u ^ (u >> 32)).wrapping_mul(p);
        }
        for &b in &bytes[words..] {
            h = (h ^ u64::from(b)).wrapping_mul(p);
        }
        h
    }

    #[test]
    fn the_fold_is_its_definition_for_every_length_and_split() {
        let stream: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8).collect();
        for len in 0..=64 {
            let bytes = &stream[..len];
            let want = fold_by_definition(bytes);
            for split in 0..=len {
                let (a, b) = bytes.split_at(split);
                let got = checksum_update(checksum_update(CHECKSUM_SEED, a), b);
                assert_eq!(got.finish(), want, "length {len}, split at {split}");
            }
        }
        // Under a word it is byte-wise FNV-1a 64, published vectors and all.
        assert_eq!(CHECKSUM_SEED.finish(), 0xCBF2_9CE4_8422_2325);
        assert_eq!(checksum_update(CHECKSUM_SEED, b"a").finish(), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(checksum_update(CHECKSUM_SEED, b"foobar").finish(), 0x8594_4171_F739_67E8);
    }

    /// Without the word mix, flipping bit 63 of any two words cancelled:
    /// `(x ^ 2^63)·P = x·P ^ 2^63` for odd `P`. No two flipped bits in
    /// different words of this buffer may cancel, at any two positions.
    #[test]
    fn no_two_flipped_bits_in_different_words_cancel() {
        let words = 12;
        let bytes: Vec<u8> = (0..8 * words).map(|i| ((i * 97) ^ 0xC3) as u8).collect();
        let base = checksum_update(CHECKSUM_SEED, &bytes).finish();
        let mut flipped = bytes.clone();
        for (i, j) in (0..words).flat_map(|i| (i + 1..words).map(move |j| (i, j))) {
            for (a, b) in (0..64).flat_map(|a| (0..64).map(move |b| (a, b))) {
                flipped[8 * i + a / 8] ^= 1 << (a % 8);
                flipped[8 * j + b / 8] ^= 1 << (b % 8);
                let got = checksum_update(CHECKSUM_SEED, &flipped).finish();
                assert_ne!(got, base, "bit {a} of word {i} and bit {b} of word {j} cancel");
                flipped.copy_from_slice(&bytes);
            }
        }
    }

    #[test]
    fn truncation_always_errors() {
        let rows = vec![Row::new(sample_values())];
        let frame = encode_rows_frame(&rows);
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn sparse_tile_ships_nnz_not_dense_size() {
        // A 13×512 tile with 5 entries must encode in tens of bytes, not
        // the 8·13·512 ≈ 53 KB its dense form costs.
        let v = Value::sparse_matrix(sample_sparse());
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        assert_eq!(buf.len(), encoded_value_size(&v));
        assert!(buf.len() < 100, "sparse tile encoded {} bytes", buf.len());
        let dense = Value::matrix(sample_sparse().to_dense());
        assert!(encoded_value_size(&dense) > 50_000);
        // Signed zero and NaN payloads roundtrip bit-exactly.
        let back = decode_value(&buf).unwrap();
        assert!(wire_eq(&v, &back));
    }

    #[test]
    fn sparse_hostile_inputs_are_typed_errors() {
        // nnz claiming more entries than the buffer can hold.
        let mut buf = vec![TAG_SPARSE_MATRIX];
        buf.extend_from_slice(&4u32.to_le_bytes()); // rows
        buf.extend_from_slice(&4u32.to_le_bytes()); // cols
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // nnz
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_value(&buf),
            Err(CodecError::LengthOverflow { what: "SPARSE_MATRIX nnz", .. })
        ));

        // An entry whose decoded index lands outside the declared shape.
        let mut buf = vec![TAG_SPARSE_MATRIX];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(9); // Δrow = 9 → row 9 of a 2-row tile
        buf.push(0);
        buf.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_value(&buf),
            Err(CodecError::Malformed { what: "SPARSE_MATRIX index" })
        ));

        // Corrupting any single byte of a valid encoding must never
        // produce a *wrong* sparse tile silently: it either still decodes
        // to bit-identical values elsewhere (payload bytes of a value) or
        // errors. Structure bytes (deltas, counts) must error or change
        // the value — we assert no panic and no trailing acceptance.
        let v = Value::sparse_matrix(sample_sparse());
        let mut good = Vec::new();
        encode_value(&v, &mut good);
        for cut in 0..good.len() {
            assert!(decode_value(&good[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn a_tall_sparse_frame_allocates_by_its_entries() {
        // A 2³²−1-row tile with one entry decodes in O(1) memory: nothing
        // is allocated per declared row.
        let mut buf = vec![TAG_SPARSE_MATRIX];
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // cols
        buf.extend_from_slice(&1u32.to_le_bytes()); // nnz
        put_varint(&mut buf, u64::from(u32::MAX) - 1); // Δrow
        put_varint(&mut buf, 7); // col
        put_f64(&mut buf, -2.5);
        let Value::SparseMatrix(m) = decode_value(&buf).unwrap() else { panic!("not sparse") };
        assert_eq!((m.nnz(), m.parts().0), (1, &[u32::MAX - 1][..]));
        assert_eq!(m.get(u32::MAX as usize - 1, 7).unwrap(), -2.5);
        let mut again = Vec::new();
        encode_value(&Value::SparseMatrix(m), &mut again);
        assert_eq!(again, buf);
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        // A vector claiming u32::MAX entries in a 32-byte buffer must be
        // rejected by the length check, not die trying to allocate 32 GB.
        let mut buf = vec![TAG_VECTOR];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0i64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_value(&buf),
            Err(CodecError::LengthOverflow { what: "VECTOR length", .. })
        ));
    }
}
