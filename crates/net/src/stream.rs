//! The checked row stream: what a frame on a byte stream is, and what a
//! complete stream of frames is. The exchange, the spill files and the
//! server's reply stream all carry this one discipline; each adds only
//! what is its own (what may precede rows, its error type, its cap).
//!
//! * **Frame.** `u32`-LE length, then that many bytes ([`write_frame`],
//!   [`read_frame`]). A stream may end only between frames; the length is
//!   checked against the carrier's cap before anything is allocated. A
//!   read timeout before a frame's first byte is an outcome
//!   ([`FrameRead::Idle`]); one inside a frame means a slow peer, and the
//!   reader keeps waiting for the rest.
//! * **Cutter.** [`frame_sizes`] decides where rows frames end: at most
//!   [`ROWS_PER_FRAME`] rows and at most [`FRAME_TARGET_BYTES`]; a row
//!   larger than the target ships alone. [`Seal::rows`] encodes along
//!   those cuts up to the carrier's cap; the pointer exchange only sums
//!   them.
//! * **Proof.** The sender folds every frame it ships into a [`Seal`] and
//!   ends the stream with the seal's fin frame: frame count, row count and
//!   the checksum ([`checksum_update`]) over every preceding frame's
//!   bytes. The receiver folds the bytes it *received* into a [`Check`],
//!   which rejects a second fin, a frame after the fin and a fin that
//!   disagrees, and reports a stream that ended without one. A short or
//!   mangled stream is an error, never a short answer.

use std::io::{self, ErrorKind, Read, Write};

use lardb_storage::Row;

use crate::codec::{
    checksum_update, encode_fin_frame, encode_rows_frame, encoded_row_size, ChecksumState,
    FinSummary, Frame, CHECKSUM_SEED, ROWS_FRAME_HEADER_BYTES,
};
use crate::NetError;

/// Rows per encoded frame: large enough to amortize the frame header,
/// small enough that a stream spans several frames and real backpressure
/// can occur.
pub const ROWS_PER_FRAME: usize = 256;

/// Bytes at which the cutter ends a rows frame even if it holds fewer
/// than [`ROWS_PER_FRAME`] rows. Large tiles then travel as several
/// mid-sized frames, not a few multi-megabyte ones in flight at once.
pub const FRAME_TARGET_BYTES: usize = 1 << 20;

/// Where the cutter cuts `rows`: each rows frame's `(rows, bytes)`, in
/// order, sized by the codec ([`encoded_row_size`]) and not encoded. A
/// frame ends at [`ROWS_PER_FRAME`] rows or before a row that would take
/// it past [`FRAME_TARGET_BYTES`] or `max`; a first row larger than
/// either ships alone, so a frame over `max` holds one row the carrier
/// must refuse. Each row is sized once. A row in memory is no smaller
/// than its encoding, so the sums cannot wrap.
pub fn frame_sizes(rows: &[Row], max: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let limit = max.min(FRAME_TARGET_BYTES);
    let mut sizes = rows.iter().map(encoded_row_size).peekable();
    std::iter::from_fn(move || {
        let (mut n, mut bytes) = (0, ROWS_FRAME_HEADER_BYTES);
        while n < ROWS_PER_FRAME {
            let Some(row) = sizes.next_if(|row| n == 0 || bytes + row <= limit) else { break };
            n += 1;
            bytes += row;
        }
        (n > 0).then_some((n, bytes))
    })
}

// ------------------------------------------------------------------ frame

/// One read attempt's outcome.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame.
    Frame(Vec<u8>),
    /// The stream ended cleanly, between frames.
    Closed,
    /// The read timeout passed before the next frame's first byte.
    Idle,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside a frame, `got` bytes into `part`.
    Truncated { part: &'static str, got: usize, of: usize },
    /// The length prefix exceeds the carrier's cap.
    TooLarge { len: u64, max: u64 },
    /// Any other read error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { part, got, of } => {
                write!(f, "stream ended after {got} of {of} {part} bytes")
            }
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max} bytes")
            }
            FrameError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        let kind = match &e {
            FrameError::Truncated { .. } => ErrorKind::UnexpectedEof,
            FrameError::TooLarge { .. } => ErrorKind::InvalidData,
            FrameError::Io(e) => e.kind(),
        };
        io::Error::new(kind, e.to_string())
    }
}

/// Both `WouldBlock` and `TimedOut` mean "read deadline expired"
/// (platforms disagree on which a `set_read_timeout` expiry raises).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Writes one frame: the `u32`-LE length of `frame`, then `frame`.
pub fn write_frame(out: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "frame longer than its u32 prefix"))?;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(frame)
}

/// Reads one frame of at most `max` bytes. EOF before the first byte of
/// the prefix is a clean close; EOF anywhere later is
/// [`FrameError::Truncated`] — `read_exact` alone erases that difference,
/// which is how a dead peer silently shortens an answer.
pub fn read_frame(reader: &mut impl Read, max: usize) -> Result<FrameRead, FrameError> {
    let mut prefix = [0u8; 4];
    if let Some(early) = fill(reader, &mut prefix, "length prefix", true)? {
        return Ok(early);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    // Cap the attacker-controlled prefix BEFORE `vec![0u8; len]`.
    if len > max {
        return Err(FrameError::TooLarge { len: len as u64, max: max as u64 });
    }
    let mut frame = vec![0u8; len];
    fill(reader, &mut frame, "frame", false)?;
    Ok(FrameRead::Frame(frame))
}

/// Fills `buf`. At a frame boundary (`boundary`, nothing read yet) EOF
/// and a timeout are outcomes, returned as `Some`; anywhere else EOF is
/// truncation and a timeout is waited out.
fn fill(
    reader: &mut impl Read,
    buf: &mut [u8],
    part: &'static str,
    boundary: bool,
) -> Result<Option<FrameRead>, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) if boundary && got == 0 => return Ok(Some(FrameRead::Closed)),
            Ok(0) => return Err(FrameError::Truncated { part, got, of: buf.len() }),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && boundary && got == 0 => return Ok(Some(FrameRead::Idle)),
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(None)
}

// ------------------------------------------------------------------ proof

/// Frames, rows and the running checksum of one side of a stream; the
/// [`FinSummary`]'s `checksum` is filled in from `sum` when it is read.
#[derive(Debug)]
struct Tally {
    counts: FinSummary,
    sum: ChecksumState,
}

impl Default for Tally {
    fn default() -> Self {
        Tally { counts: FinSummary::default(), sum: CHECKSUM_SEED }
    }
}

impl Tally {
    fn fold(&mut self, frame: &[u8], rows: usize) {
        self.counts.frames += 1;
        self.counts.rows += rows as u64;
        self.sum = checksum_update(self.sum, frame);
    }

    fn summary(&self) -> FinSummary {
        FinSummary { checksum: self.sum.finish(), ..self.counts }
    }
}

/// The sender half of the completeness proof: folds every frame shipped,
/// in order, and produces the fin frame that ends the stream.
#[derive(Debug, Default)]
pub struct Seal(Tally);

impl Seal {
    /// Folds a frame that carries no rows (schema, trace) and hands it
    /// back to be shipped.
    pub fn frame(&mut self, frame: Vec<u8>) -> Vec<u8> {
        self.0.fold(&frame, 0);
        frame
    }

    /// The frame cutter: `rows` as encoded, folded rows frames, cut where
    /// [`frame_sizes`] cuts them. A row that alone does not fit `max`
    /// bytes ends the iteration with [`NetError::FrameTooLarge`], raised
    /// before anything that large is encoded.
    pub fn rows<'a>(
        &'a mut self,
        rows: &'a [Row],
        max: usize,
    ) -> impl Iterator<Item = Result<Vec<u8>, NetError>> + 'a {
        // Whatever the carrier allows, a frame must fit its u32 prefix.
        let max = max.min(u32::MAX as usize);
        let mut cuts = frame_sizes(rows, max);
        let mut rest = rows;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None; // every row shipped, or one refused
            }
            let (n, bytes) = cuts.next()?;
            if bytes > max {
                rest = &[];
                return Some(Err(NetError::FrameTooLarge { len: bytes as u64, max: max as u64 }));
            }
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            let frame = encode_rows_frame(chunk);
            debug_assert_eq!(frame.len(), bytes, "encoded_row_size disagrees with the encoder");
            self.0.fold(&frame, n);
            Some(Ok(frame))
        })
    }

    /// Frames and rows folded so far.
    pub fn summary(&self) -> FinSummary {
        self.0.summary()
    }

    /// The fin frame that ends the stream.
    pub fn fin(&self) -> Vec<u8> {
        encode_fin_frame(&self.0.summary())
    }
}

/// Why a received stream is not the one its sender shipped.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A second fin frame.
    SecondFin,
    /// A frame after the fin.
    AfterFin,
    /// The fin disagrees with what arrived.
    Mismatch { fin: FinSummary, seen: FinSummary },
    /// The stream ended without a fin.
    NoFin { seen: FinSummary },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::SecondFin => write!(f, "second fin frame"),
            StreamError::AfterFin => write!(f, "frame after fin"),
            StreamError::Mismatch { fin, seen } => write!(
                f,
                "fin says {} frames / {} rows / checksum {:#x}, stream has {} / {} / {:#x}",
                fin.frames, fin.rows, fin.checksum, seen.frames, seen.rows, seen.checksum
            ),
            StreamError::NoFin { seen } => write!(
                f,
                "ended after {} frames ({} rows) with no fin frame",
                seen.frames, seen.rows
            ),
        }
    }
}

/// The receiver half of the completeness proof.
#[derive(Debug, Default)]
pub struct Check {
    seen: Tally,
    sealed: bool,
}

impl Check {
    /// Accepts the next frame: `bytes` as they arrived and `frame` as
    /// they decoded. A fin is verified against everything before it.
    pub fn accept(&mut self, bytes: &[u8], frame: &Frame) -> Result<(), StreamError> {
        match frame {
            Frame::Fin(_) if self.sealed => Err(StreamError::SecondFin),
            _ if self.sealed => Err(StreamError::AfterFin),
            Frame::Fin(fin) => {
                self.sealed = true;
                let seen = self.seen.summary();
                if *fin == seen {
                    Ok(())
                } else {
                    Err(StreamError::Mismatch { fin: *fin, seen })
                }
            }
            other => {
                let rows = if let Frame::Rows(rows) = other { rows.len() } else { 0 };
                self.seen.fold(bytes, rows);
                Ok(())
            }
        }
    }

    /// True once the fin has arrived (verified or not).
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// Frames and rows accepted so far.
    pub fn seen(&self) -> FinSummary {
        self.seen.summary()
    }

    /// At the end of the stream: the fin must have arrived.
    pub fn finish(&self) -> Result<(), StreamError> {
        if self.sealed {
            Ok(())
        } else {
            Err(StreamError::NoFin { seen: self.seen.summary() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_frame;
    use lardb_la::Matrix;
    use lardb_storage::Value;
    use std::collections::VecDeque;

    /// `n` rows of `(i, cells × cells matrix)`: 4 + 9 + 9 + 8·cells² bytes
    /// each on the wire.
    fn tile_rows(n: usize, cells: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let m = Matrix::from_fn(cells, cells, |r, c| (i + r * cells + c) as f64);
                Row::new(vec![Value::Integer(i as i64), Value::matrix(m)])
            })
            .collect()
    }

    fn cut(rows: &[Row], max: usize) -> (Vec<Vec<u8>>, Seal) {
        let mut seal = Seal::default();
        let frames = seal.rows(rows, max).collect::<Result<Vec<_>, _>>().unwrap();
        (frames, seal)
    }

    fn decoded_rows(frame: &[u8]) -> Vec<Row> {
        match decode_frame(frame).unwrap() {
            Frame::Rows(rows) => rows,
            other => panic!("not a rows frame: {other:?}"),
        }
    }

    #[test]
    fn frames_that_fit_are_cut_by_row_count_alone() {
        let rows = tile_rows(600, 2);
        let (frames, seal) = cut(&rows, crate::DEFAULT_MAX_FRAME_BYTES);
        let by_count: Vec<_> = rows.chunks(ROWS_PER_FRAME).map(encode_rows_frame).collect();
        assert_eq!(frames, by_count);
        assert_eq!((seal.summary().frames, seal.summary().rows), (3, 600));
    }

    /// The spill cap's arithmetic at 1 : 1024 — a 256 KiB cap over rows of
    /// a little more than 1 KiB, where 256 rows pass the cap and one row
    /// does not. The cap is the cutter's argument, so nothing near
    /// 256 MiB is allocated to check it.
    #[test]
    fn frames_are_cut_by_bytes_before_they_pass_the_cap() {
        let max = 256 * 1024;
        let rows = tile_rows(600, 12); // 22 + 8·144 = 1 174 bytes a row
        let row_bytes = encoded_row_size(&rows[0]);
        assert_eq!(row_bytes, 1174);
        assert!(ROWS_FRAME_HEADER_BYTES + ROWS_PER_FRAME * row_bytes > max);
        let per_frame = (max - ROWS_FRAME_HEADER_BYTES) / row_bytes;
        let (frames, seal) = cut(&rows, max);
        assert_eq!(frames.len(), rows.len().div_ceil(per_frame));
        let mut back = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            assert!(frame.len() <= max, "frame {i} is {} bytes", frame.len());
            let got = decoded_rows(frame);
            let full = i + 1 < frames.len();
            assert!(!full || got.len() == per_frame, "frame {i} holds {} rows", got.len());
            back.extend(got);
        }
        assert_eq!(back, rows);
        assert_eq!(seal.summary().frames, frames.len() as u64);
        assert_eq!(seal.summary().rows, 600);
    }

    #[test]
    fn a_row_over_the_cap_is_frame_too_large() {
        let rows = tile_rows(3, 12);
        let need = (ROWS_FRAME_HEADER_BYTES + 1174) as u64;
        let mut seal = Seal::default();
        let got: Vec<_> = seal.rows(&rows, 1180).collect();
        assert_eq!(got, [Err(NetError::FrameTooLarge { len: need, max: 1180 })]);
        // At exactly its size a row ships alone.
        let (frames, _) = cut(&rows, need as usize);
        assert_eq!(frames.len(), 3);
    }

    /// 128×128 tiles (131 094 bytes a row) under the 64 MiB cap: seven
    /// rows reach the target, so 40 rows are six frames, none over it.
    #[test]
    fn large_tiles_are_cut_at_the_frame_target() {
        let rows = tile_rows(40, 128);
        let (frames, seal) = cut(&rows, crate::DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(frames.len(), 6);
        let mut back = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            assert!(frame.len() <= FRAME_TARGET_BYTES, "frame {i} is {} bytes", frame.len());
            back.extend(decoded_rows(frame));
        }
        assert_eq!(back, rows);
        assert_eq!((seal.summary().frames, seal.summary().rows), (6, 40));
    }

    #[test]
    fn a_row_over_the_target_ships_alone() {
        let big = tile_rows(1, 512).remove(0); // 2 MiB + 22 bytes
        assert!(encoded_row_size(&big) > 2 * FRAME_TARGET_BYTES);
        let (frames, _) = cut(std::slice::from_ref(&big), crate::DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(frames.len(), 1);
        assert_eq!(decoded_rows(&frames[0]), std::slice::from_ref(&big));

        let small = tile_rows(2, 2);
        let rows = [small[0].clone(), big, small[1].clone()];
        let (frames, _) = cut(&rows, crate::DEFAULT_MAX_FRAME_BYTES);
        let per_frame: Vec<_> = frames.iter().map(|f| decoded_rows(f)).collect();
        assert_eq!(per_frame, rows.iter().map(|r| vec![r.clone()]).collect::<Vec<_>>());
    }

    /// What a receiver is handed when the sender ships `rows` under `max`.
    fn shipped(rows: &[Row], max: usize) -> Vec<Vec<u8>> {
        let (mut frames, seal) = cut(rows, max);
        frames.push(seal.fin());
        frames
    }

    fn check(frames: &[Vec<u8>]) -> Result<(), StreamError> {
        let mut check = Check::default();
        for bytes in frames {
            check.accept(bytes, &decode_frame(bytes).unwrap())?;
        }
        check.finish()
    }

    #[test]
    fn the_check_accepts_exactly_the_stream_that_was_sealed() {
        let whole = shipped(&tile_rows(40, 3), 1024);
        assert!(whole.len() > 4);
        assert_eq!(check(&whole), Ok(()));
        assert_eq!(check(&shipped(&[], 1024)), Ok(()), "an empty stream is its fin alone");

        let fin = whole.len() - 1;
        let mut dropped = whole.clone();
        dropped.remove(1);
        assert!(matches!(check(&dropped), Err(StreamError::Mismatch { .. })));
        let mut swapped = whole.clone();
        swapped.swap(0, 1);
        assert!(matches!(check(&swapped), Err(StreamError::Mismatch { .. })));
        assert!(matches!(check(&whole[..fin]), Err(StreamError::NoFin { .. })));
        let mut twice = whole.clone();
        twice.push(whole[fin].clone());
        assert_eq!(check(&twice), Err(StreamError::SecondFin));
        let mut late = whole.clone();
        late.push(whole[0].clone());
        assert_eq!(check(&late), Err(StreamError::AfterFin));
    }

    /// Negating any two doubles of a shipped stream is caught, including
    /// two whose sign bits are bit 63 of their words (stream offsets
    /// ≡ 7 mod 8), which a bare `h ← (h ^ w)·P` fold let cancel.
    #[test]
    fn two_flipped_signs_fail_the_check() {
        let double = |i: usize, sign: f64| Row::new(vec![Value::Double(sign * (i as f64 + 0.5))]);
        let rows: Vec<Row> = (0..40).map(|i| double(i, 1.0)).collect();
        let whole = shipped(&rows, crate::DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(whole.len(), 2);
        // Header, then per row: u32 arity, tag, f64; the sign is in the
        // f64's last byte.
        let sign = |r: usize| ROWS_FRAME_HEADER_BYTES + 13 * r + 12;
        let mut top_bit_pairs = 0;
        for (r, s) in (0..40).flat_map(|r| (r + 1..40).map(move |s| (r, s))) {
            let mut flipped = whole.clone();
            flipped[0][sign(r)] ^= 0x80;
            flipped[0][sign(s)] ^= 0x80;
            let mut negated = rows.clone();
            for i in [r, s] {
                negated[i] = double(i, -1.0);
            }
            assert_eq!(decoded_rows(&flipped[0]), negated);
            assert!(
                matches!(check(&flipped), Err(StreamError::Mismatch { .. })),
                "rows {r} and {s} negated"
            );
            top_bit_pairs += usize::from(sign(r) % 8 == 7 && sign(s) % 8 == 7);
        }
        assert!(top_bit_pairs > 0);
    }

    /// A reader that plays back a script of read results.
    struct Script(VecDeque<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn a_timeout_is_idle_before_a_frame_and_the_carriers_policy_inside_one() {
        let timeout = || Err(io::Error::from(ErrorKind::WouldBlock));
        let mut waiting = Script(VecDeque::from([
            timeout(),
            Ok(vec![3, 0]),
            timeout(),
            Ok(vec![0, 0]),
            Ok(b"ab".to_vec()),
            timeout(),
            Ok(b"c".to_vec()),
        ]));
        assert!(matches!(read_frame(&mut waiting, 8), Ok(FrameRead::Idle)));
        assert!(matches!(read_frame(&mut waiting, 8), Ok(FrameRead::Frame(f)) if f == b"abc"));
        assert!(matches!(read_frame(&mut waiting, 8), Ok(FrameRead::Closed)));
    }
}
