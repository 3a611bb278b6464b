//! Disk-backed row batches with end-to-end integrity checking.
//!
//! A spill file is a checked row stream (`lardb_net::stream`): zero or more
//! rows frames, cut by the stream's one cutter under this carrier's cap,
//! then the fin frame that proves the file complete. What is spill's own:
//! no schema or trace frame belongs in a file; a file that ends before its
//! fin frame is [`BufError::Truncated`]; one whose contents disagree with
//! the fin, or that has bytes after it, is [`BufError::Corrupt`].
//!
//! Both [`SpillWriter`] (before `finish`) and [`SpillFile`] delete their file
//! on drop, so neither a completed query nor an abort mid-spill leaves
//! anything behind in the spill directory.

use crate::{BufError, Result};
use lardb_net::codec::{decode_frame, Frame};
use lardb_net::stream::{read_frame, write_frame, Check, FrameError, FrameRead, Seal};
use lardb_storage::Row;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cap on one spill frame: the writer cuts frames to fit it, and the reader
/// refuses to allocate for a length prefix beyond it — that is corruption,
/// not data.
const MAX_SPILL_FRAME_BYTES: usize = 256 * 1024 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> BufError {
    BufError::Io {
        path: path.to_path_buf(),
        op,
        err: e.to_string(),
    }
}

fn stale_writer(op: &'static str) -> BufError {
    BufError::Io {
        path: PathBuf::new(),
        op,
        err: "spill writer already finished".to_string(),
    }
}

/// An open spill file being written. Call [`finish`](SpillWriter::finish) to
/// seal it with a fin frame and obtain the readable [`SpillFile`]; dropping
/// an unfinished writer deletes the partial file.
#[derive(Debug)]
pub struct SpillWriter {
    // `None` only after `finish` has consumed the writer's state.
    inner: Option<WriterInner>,
}

#[derive(Debug)]
struct WriterInner {
    out: BufWriter<File>,
    path: PathBuf,
    seal: Seal,
    bytes: u64,
    started: Instant,
}

impl SpillWriter {
    /// Create a fresh, uniquely named spill file under `dir` (created if
    /// missing). `label` goes into the file name for debuggability.
    pub fn create(dir: &Path, label: &str) -> Result<SpillWriter> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, "create spill dir", e))?;
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(
            "lardb-spill-{}-{}-{}.spl",
            std::process::id(),
            seq,
            label
        ));
        let file = File::create(&path).map_err(|e| io_err(&path, "create", e))?;
        lardb_obs::global().counter("spill.files").inc();
        Ok(SpillWriter {
            inner: Some(WriterInner {
                out: BufWriter::new(file),
                path,
                seal: Seal::default(),
                bytes: 0,
                started: Instant::now(),
            }),
        })
    }

    /// Append `rows`, encoded as wire frames of ≤256 rows that fit the
    /// spill frame cap.
    pub fn write_rows(&mut self, rows: &[Row]) -> Result<()> {
        // `finish()` consumes the writer, so `inner` is always present
        // here; stay panic-free anyway and surface a typed error.
        let Some(w) = self.inner.as_mut() else {
            return Err(stale_writer("write"));
        };
        for frame in w.seal.rows(rows, MAX_SPILL_FRAME_BYTES) {
            let frame = frame.map_err(|e| BufError::Io {
                path: w.path.clone(),
                op: "write",
                err: e.to_string(),
            })?;
            write_frame(&mut w.out, &frame).map_err(|e| io_err(&w.path, "write", e))?;
            w.bytes += 4 + frame.len() as u64;
        }
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.inner.as_ref().map_or(0, |w| w.seal.summary().rows)
    }

    /// Seal the file with its fin frame and flush it to disk.
    pub fn finish(mut self) -> Result<SpillFile> {
        let Some(mut w) = self.inner.take() else {
            return Err(stale_writer("finish"));
        };
        let fin = w.seal.fin();
        let rows = w.seal.summary().rows;
        if let Err(e) = write_frame(&mut w.out, &fin).and_then(|()| w.out.flush()) {
            let err = io_err(&w.path, "finish", e);
            drop(w.out);
            let _ = std::fs::remove_file(&w.path);
            return Err(err);
        }
        w.bytes += 4 + fin.len() as u64;
        let m = lardb_obs::global();
        m.counter("spill.bytes_written").add(w.bytes);
        // Attribute the spill to the query tracing this thread, if any.
        if let Some(t) = lardb_pool::QueryContext::current().and_then(|c| c.trace().cloned()) {
            t.add_spill_written(w.bytes);
            t.record(
                "spill.write",
                "spill",
                w.started,
                w.started.elapsed(),
                vec![
                    ("path", w.path.display().to_string()),
                    ("rows", rows.to_string()),
                    ("bytes", w.bytes.to_string()),
                ],
            );
        }
        Ok(SpillFile {
            path: w.path,
            rows,
            bytes: w.bytes,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if let Some(w) = self.inner.take() {
            drop(w.out);
            let _ = std::fs::remove_file(&w.path);
        }
    }
}

/// A sealed spill file; deleted from disk when dropped.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl SpillFile {
    /// Path of the backing file (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows stored in the file.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes on disk, including framing and the fin frame.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Read the whole file back, verifying every frame and the fin summary.
    /// Any mismatch — short file, bad bytes, wrong counts or checksum,
    /// trailing garbage — is a typed error, never silently wrong rows.
    pub fn read_rows(&self) -> Result<Vec<Row>> {
        let t0 = Instant::now();
        let file = File::open(&self.path).map_err(|e| io_err(&self.path, "open", e))?;
        let mut r = BufReader::new(file);
        let mut rows: Vec<Row> = Vec::with_capacity(self.rows as usize);
        let mut check = Check::default();
        let mut bytes_read: u64 = 0;
        let corrupt = |detail: String| BufError::Corrupt { path: self.path.clone(), detail };
        let truncated = |detail: String| BufError::Truncated { path: self.path.clone(), detail };
        loop {
            let frame = match read_frame(&mut r, MAX_SPILL_FRAME_BYTES) {
                Ok(FrameRead::Closed) => break,
                // Exactly one fin, and nothing after it.
                _ if check.sealed() => return Err(corrupt("bytes after fin frame".to_string())),
                Ok(FrameRead::Frame(frame)) => frame,
                Err(e @ FrameError::Truncated { .. }) => {
                    return Err(truncated(format!("{e}, {} complete frames in", check.seen().frames)))
                }
                Err(e @ FrameError::TooLarge { .. }) => return Err(corrupt(e.to_string())),
                Ok(FrameRead::Idle) => {
                    return Err(io_err(&self.path, "read", std::io::ErrorKind::TimedOut.into()))
                }
                Err(FrameError::Io(e)) => return Err(io_err(&self.path, "read", e)),
            };
            bytes_read += 4 + frame.len() as u64;
            let decoded = decode_frame(&frame)?;
            check.accept(&frame, &decoded).map_err(|e| corrupt(e.to_string()))?;
            match decoded {
                Frame::Rows(batch) => rows.extend(batch),
                Frame::Fin(_) => {}
                Frame::Schema(_) | Frame::Trace(_) => {
                    return Err(corrupt("unexpected schema or trace frame in spill file".into()))
                }
            }
        }
        check.finish().map_err(|e| truncated(e.to_string()))?;
        lardb_obs::global().counter("spill.bytes_read").add(bytes_read);
        if let Some(t) = lardb_pool::QueryContext::current().and_then(|c| c.trace().cloned()) {
            t.add_spill_read(bytes_read);
            t.record(
                "spill.read",
                "spill",
                t0,
                t0.elapsed(),
                vec![
                    ("path", self.path.display().to_string()),
                    ("rows", rows.len().to_string()),
                    ("bytes", bytes_read.to_string()),
                ],
            );
        }
        Ok(rows)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lardb_storage::Value;

    fn test_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lardb-buf-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).expect("test dir");
        d
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Integer(i as i64),
                    Value::Double(i as f64 * 0.5),
                    Value::varchar(format!("row-{i}")),
                ])
            })
            .collect()
    }

    #[test]
    fn roundtrip_multi_frame() {
        let dir = test_dir("roundtrip");
        let rows = sample_rows(700); // 3 frames at 256 rows/frame
        let mut w = SpillWriter::create(&dir, "rt").expect("create");
        w.write_rows(&rows[..300]).expect("write");
        w.write_rows(&rows[300..]).expect("write");
        assert_eq!(w.rows(), 700);
        let f = w.finish().expect("finish");
        assert_eq!(f.rows(), 700);
        assert!(f.bytes() > 0);
        let back = f.read_rows().expect("read");
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(&back) {
            assert_eq!(a.values().len(), b.values().len());
            for (x, y) in a.values().iter().zip(b.values()) {
                assert!(lardb_net::codec::wire_eq(x, y));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_file_roundtrips() {
        let dir = test_dir("empty");
        let w = SpillWriter::create(&dir, "empty").expect("create");
        let f = w.finish().expect("finish");
        assert_eq!(f.read_rows().expect("read").len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_writer_removes_file_on_drop() {
        let dir = test_dir("drop-writer");
        let mut w = SpillWriter::create(&dir, "d").expect("create");
        w.write_rows(&sample_rows(10)).expect("write");
        let path = w.inner.as_ref().expect("open").path.clone();
        drop(w);
        assert!(!path.exists(), "partial spill file must be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let dir = test_dir("drop-file");
        let mut w = SpillWriter::create(&dir, "d").expect("create");
        w.write_rows(&sample_rows(10)).expect("write");
        let f = w.finish().expect("finish");
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists(), "sealed spill file must be deleted on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_typed_error() {
        let dir = test_dir("trunc");
        let mut w = SpillWriter::create(&dir, "t").expect("create");
        w.write_rows(&sample_rows(600)).expect("write");
        let f = w.finish().expect("finish");
        let full = std::fs::read(f.path()).expect("slurp");
        for cut in [full.len() - 1, full.len() - 20, full.len() / 2, 3, 0] {
            std::fs::write(f.path(), &full[..cut]).expect("truncate");
            match f.read_rows() {
                Err(BufError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let dir = test_dir("trailing");
        let mut w = SpillWriter::create(&dir, "t").expect("create");
        w.write_rows(&sample_rows(5)).expect("write");
        let f = w.finish().expect("finish");
        let mut full = std::fs::read(f.path()).expect("slurp");
        full.push(0x00);
        std::fs::write(f.path(), &full).expect("append");
        match f.read_rows() {
            Err(BufError::Corrupt { detail, .. }) => {
                assert!(detail.contains("after fin"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = test_dir("missing");
        let mut w = SpillWriter::create(&dir, "m").expect("create");
        w.write_rows(&sample_rows(3)).expect("write");
        let f = w.finish().expect("finish");
        std::fs::remove_file(f.path()).expect("remove");
        match f.read_rows() {
            Err(BufError::Io { op, .. }) => assert_eq!(op, "open"),
            other => panic!("expected Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
