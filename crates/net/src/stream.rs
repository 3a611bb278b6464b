//! The checked row stream: what a frame on a byte stream is, and what a
//! complete stream of frames is. The exchange, the spill files, the TCP
//! mesh and the server's reply stream all carry this one discipline; each
//! adds only what is its own (what may precede rows, its error type, its
//! cap).
//!
//! * **Frame.** `u32`-LE length, then that many bytes ([`write_frame`],
//!   [`read_frame`]). A stream may end only between frames; the length is
//!   checked against the carrier's cap before anything is allocated.
//! * **Cutter.** [`Seal::rows`] cuts rows into encoded rows frames of at
//!   most [`ROWS_PER_FRAME`] rows and at most the carrier's cap in bytes.
//! * **Proof.** The sender folds every frame it ships into a [`Seal`] and
//!   ends the stream with the seal's fin frame: frame count, row count and
//!   FNV-1a over every preceding frame's bytes. The receiver folds the
//!   bytes it *received* into a [`Check`], which rejects a second fin, a
//!   frame after the fin and a fin that disagrees, and reports a stream
//!   that ended without one. A short or mangled stream is an error, never
//!   a short answer.
//!
//! The fold runs byte-at-a-time over every frame on both sides
//! ([`checksum_update`]); this module is the one place to change that.

use std::io::{self, ErrorKind, Read, Write};

use lardb_storage::Row;

use crate::codec::{
    checksum_update, encode_fin_frame, encode_rows_frame, encoded_row_size, FinSummary, Frame,
    CHECKSUM_SEED, ROWS_FRAME_HEADER_BYTES,
};
use crate::NetError;

/// Rows per encoded frame: large enough to amortize the frame header,
/// small enough that a stream spans several frames and real backpressure
/// can occur.
pub const ROWS_PER_FRAME: usize = 256;

// ------------------------------------------------------------------ frame

/// What a read timeout *inside* a frame means. (One before a frame's
/// first byte is [`FrameRead::Idle`] under either.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// Keep waiting: the peer is slow, not gone (the server's two ends).
    Wait,
    /// Fail the stream with [`FrameError::Stalled`] (the worker mesh).
    Fail,
}

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
    /// The read timeout passed inside a frame under [`Stall::Fail`].
    Stalled,
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
            FrameError::Stalled => write!(f, "read timeout inside a frame"),
            FrameError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        let kind = match &e {
            FrameError::Truncated { .. } => ErrorKind::UnexpectedEof,
            FrameError::TooLarge { .. } => ErrorKind::InvalidData,
            FrameError::Stalled => ErrorKind::TimedOut,
            FrameError::Io(e) => e.kind(),
        };
        io::Error::new(kind, e.to_string())
    }
}

/// Both `WouldBlock` and `TimedOut` mean "read deadline expired"
/// (platforms disagree on which a `set_read_timeout` expiry raises).
pub fn is_timeout(e: &io::Error) -> bool {
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
pub fn read_frame(
    reader: &mut impl Read,
    max: usize,
    stall: Stall,
) -> Result<FrameRead, FrameError> {
    let mut prefix = [0u8; 4];
    if let Some(early) = fill(reader, &mut prefix, "length prefix", stall, true)? {
        return Ok(early);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    // Cap the attacker-controlled prefix BEFORE `vec![0u8; len]`.
    if len > max {
        return Err(FrameError::TooLarge { len: len as u64, max: max as u64 });
    }
    let mut frame = vec![0u8; len];
    fill(reader, &mut frame, "frame", stall, false)?;
    Ok(FrameRead::Frame(frame))
}

/// Fills `buf`. At a frame boundary (`boundary`, nothing read yet) EOF
/// and a timeout are outcomes, returned as `Some`; anywhere else they are
/// truncation and a stall.
fn fill(
    reader: &mut impl Read,
    buf: &mut [u8],
    part: &'static str,
    stall: Stall,
    boundary: bool,
) -> Result<Option<FrameRead>, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) if boundary && got == 0 => return Ok(Some(FrameRead::Closed)),
            Ok(0) => return Err(FrameError::Truncated { part, got, of: buf.len() }),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if boundary && got == 0 {
                    return Ok(Some(FrameRead::Idle));
                }
                if stall == Stall::Fail {
                    return Err(FrameError::Stalled);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(None)
}

// ------------------------------------------------------------------ proof

/// The sender half of the completeness proof: folds every frame shipped,
/// in order, and produces the fin frame that ends the stream.
#[derive(Debug)]
pub struct Seal(FinSummary);

/// Nothing shipped, nothing seen.
const EMPTY: FinSummary = FinSummary { frames: 0, rows: 0, checksum: CHECKSUM_SEED };

impl Default for Seal {
    fn default() -> Self {
        Seal(EMPTY)
    }
}

impl Seal {
    /// Folds a frame that carries no rows (schema, trace) and hands it
    /// back to be shipped.
    pub fn frame(&mut self, frame: Vec<u8>) -> Vec<u8> {
        self.fold(&frame, 0);
        frame
    }

    fn fold(&mut self, frame: &[u8], rows: usize) {
        self.0.frames += 1;
        self.0.rows += rows as u64;
        self.0.checksum = checksum_update(self.0.checksum, frame);
    }

    /// The frame cutter: `rows` as encoded, folded rows frames, each of at
    /// most [`ROWS_PER_FRAME`] rows and at most `max` bytes, in order. A
    /// row that alone does not fit ends the iteration with
    /// [`NetError::FrameTooLarge`], raised before anything that large is
    /// encoded. Sizes are the codec's own ([`encoded_row_size`]): a row
    /// in memory is no smaller than its encoding, so the sums cannot wrap.
    pub fn rows<'a>(
        &'a mut self,
        rows: &'a [Row],
        max: usize,
    ) -> impl Iterator<Item = Result<Vec<u8>, NetError>> + 'a {
        // Whatever the carrier allows, a frame must fit its u32 prefix.
        let max = max.min(u32::MAX as usize);
        let mut rest = rows;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let mut bytes = ROWS_FRAME_HEADER_BYTES;
            let mut n = 0;
            while n < rest.len().min(ROWS_PER_FRAME) {
                let with = bytes + encoded_row_size(&rest[n]);
                if with > max {
                    break;
                }
                bytes = with;
                n += 1;
            }
            if n == 0 {
                let len = (ROWS_FRAME_HEADER_BYTES + encoded_row_size(&rest[0])) as u64;
                rest = &[];
                return Some(Err(NetError::FrameTooLarge { len, max: max as u64 }));
            }
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            let frame = encode_rows_frame(chunk);
            debug_assert_eq!(frame.len(), bytes, "encoded_row_size disagrees with the encoder");
            self.fold(&frame, n);
            Some(Ok(frame))
        })
    }

    /// Frames and rows folded so far.
    pub fn summary(&self) -> FinSummary {
        self.0
    }

    /// The fin frame that ends the stream.
    pub fn fin(&self) -> Vec<u8> {
        encode_fin_frame(&self.0)
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
#[derive(Debug)]
pub struct Check {
    seen: FinSummary,
    sealed: bool,
}

impl Default for Check {
    fn default() -> Self {
        Check { seen: EMPTY, sealed: false }
    }
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
                if *fin == self.seen {
                    Ok(())
                } else {
                    Err(StreamError::Mismatch { fin: *fin, seen: self.seen })
                }
            }
            other => {
                self.seen.frames += 1;
                if let Frame::Rows(rows) = other {
                    self.seen.rows += rows.len() as u64;
                }
                self.seen.checksum = checksum_update(self.seen.checksum, bytes);
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
        self.seen
    }

    /// At the end of the stream: the fin must have arrived.
    pub fn finish(&self) -> Result<(), StreamError> {
        if self.sealed {
            Ok(())
        } else {
            Err(StreamError::NoFin { seen: self.seen })
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
        let script = || {
            Script(VecDeque::from([
                timeout(),
                Ok(vec![3, 0]),
                timeout(),
                Ok(vec![0, 0]),
                Ok(b"ab".to_vec()),
                timeout(),
                Ok(b"c".to_vec()),
            ]))
        };
        let mut waiting = script();
        assert!(matches!(read_frame(&mut waiting, 8, Stall::Wait), Ok(FrameRead::Idle)));
        assert!(
            matches!(read_frame(&mut waiting, 8, Stall::Wait), Ok(FrameRead::Frame(f)) if f == b"abc")
        );
        assert!(matches!(read_frame(&mut waiting, 8, Stall::Wait), Ok(FrameRead::Closed)));

        let mut failing = script();
        assert!(matches!(read_frame(&mut failing, 8, Stall::Fail), Ok(FrameRead::Idle)));
        assert!(matches!(read_frame(&mut failing, 8, Stall::Fail), Err(FrameError::Stalled)));
    }
}
