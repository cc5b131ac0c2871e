//! Append-only replay log: the durability layer of the learn service.
//!
//! Every batch of labeled rows the shadow trainer folds is first appended
//! here, so a hard-killed learner rebuilds its exact shadow state on
//! restart by replaying the log over the last checkpoint (folds are
//! deterministic — see [`bcpnn_core::Network::learn_batch`]).
//!
//! A fixed file header, then the shared codec's frames
//! (`bcpnn_tensor::io`, the envelope saved models use too): each is
//! length-prefixed and protected by a CRC-32, so torn writes and bit rot
//! are detected rather than trained on.
//!
//! ```text
//! file   := magic "bLRN" | version u8 | frame*
//! frame  := payload_len u32 LE | crc32(payload) u32 LE | payload
//! payload:= n_rows u32 | n_cols u32 | n_rows*n_cols f32 LE | n_rows labels u32 LE
//! ```
//!
//! Recovery policy: [`ReplayLog::open`] scans the file front to back and
//! keeps the longest valid prefix. The first truncated, CRC-mismatching,
//! or structurally malformed frame, or one whose length runs past the end
//! of the file, ends the scan; the corrupt tail is *dropped* (the file is
//! truncated back to the last good frame) and appending resumes from
//! there. Corruption is never a panic
//! and never an error on this path — a learner that crashed mid-append
//! must come back up.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bcpnn_tensor::io::{put_slice, write_frame, ByteReader, Word, ENVELOPE_LEN};
use bcpnn_tensor::{FrameReader, IoError, Matrix};

/// File magic: "bcpnn LeaRN log".
pub const MAGIC: [u8; 4] = *b"bLRN";
/// Format version written by this build.
pub const VERSION: u8 = 1;
/// Bytes before the first frame (magic + version).
pub const HEADER_LEN: u64 = 5;

/// One replayable unit: the labeled rows of exactly one shadow-trainer
/// fold, in fold order.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnFrame {
    /// The feature rows that were folded (batch x features).
    pub rows: Matrix<f32>,
    /// One class label per row.
    pub labels: Vec<usize>,
}

/// Serialize one fold's rows + labels as a frame payload (no length/CRC
/// envelope — [`ReplayLog::append`] adds that). Public for the proptests.
pub fn encode_payload(rows: &Matrix<f32>, labels: &[usize], out: &mut Vec<u8>) {
    out.clear();
    put_slice(out, &[rows.rows() as u32, rows.cols() as u32]);
    put_slice(out, rows.as_slice());
    for &label in labels {
        (label as u32).put(out);
    }
}

/// Parse one frame payload back into rows + labels. `None` means the
/// payload is structurally malformed (bad counts, trailing bytes, size
/// overflow) — the caller treats that exactly like a CRC mismatch.
pub fn decode_payload(payload: &[u8]) -> Option<LearnFrame> {
    let mut r = ByteReader::new(payload);
    let n_rows = r.word::<u32>().ok()? as usize;
    let n_cols = r.word::<u32>().ok()? as usize;
    if n_rows == 0 || n_cols == 0 {
        return None;
    }
    let data = r.words::<f32>(n_rows.checked_mul(n_cols)?).ok()?;
    let labels = r.words::<u32>(n_rows).ok()?;
    r.finish().ok()?;
    Some(LearnFrame {
        rows: Matrix::from_vec(n_rows, n_cols, data),
        labels: labels.into_iter().map(|l| l as usize).collect(),
    })
}

/// What [`ReplayLog::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Every intact frame, in append order — replay these over the last
    /// checkpoint to rebuild the shadow.
    pub frames: Vec<LearnFrame>,
    /// Bytes discarded from a corrupt/torn tail (0 on a clean log).
    pub dropped_bytes: u64,
}

/// The append-only log itself. One instance owns the file; appends go
/// straight to the OS (no userspace buffering) so a killed *process*
/// never loses an acknowledged frame.
#[derive(Debug)]
pub struct ReplayLog {
    file: File,
    path: PathBuf,
    bytes: u64,
    scratch: Vec<u8>,
}

impl ReplayLog {
    /// Open (or create) the log at `path`, recover the valid frame
    /// prefix, truncate any corrupt tail, and position for appending.
    pub fn open(path: &Path) -> std::io::Result<(ReplayLog, Recovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let total = file.metadata()?.len();

        // Header: absent/truncated on a fresh file -> write one. A wrong
        // magic/version is a different file entirely, not a torn tail —
        // refuse rather than silently wipe it.
        let mut header = [0u8; HEADER_LEN as usize];
        if total < HEADER_LEN {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            header[..4].copy_from_slice(&MAGIC);
            header[4] = VERSION;
            file.write_all(&header)?;
            file.sync_data()?;
            return Ok((
                ReplayLog {
                    file,
                    path: path.to_path_buf(),
                    bytes: HEADER_LEN,
                    scratch: Vec::new(),
                },
                Recovery {
                    frames: Vec::new(),
                    dropped_bytes: 0,
                },
            ));
        }
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        if header[..4] != MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not a replay log (bad magic)", path.display()),
            ));
        }
        if header[4] != VERSION {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "replay log {} has unsupported version {}",
                    path.display(),
                    header[4]
                ),
            ));
        }

        // Scan frames; keep the longest valid prefix.
        let mut frames = Vec::new();
        let mut good_end = HEADER_LEN;
        let mut reader = FrameReader::new(BufReader::new(&mut file), total - HEADER_LEN);
        loop {
            let payload = match reader.read_frame() {
                Ok(payload) => payload,
                // Clean EOF, a torn or oversized envelope, a torn payload
                // or bit rot inside it.
                Err(IoError::Format(_)) => break,
                Err(IoError::Io(e)) => return Err(e),
            };
            let Some(frame) = decode_payload(&payload) else {
                break; // structurally malformed
            };
            frames.push(frame);
            good_end += ENVELOPE_LEN + payload.len() as u64;
        }
        drop(reader);
        let dropped = total - good_end;
        if dropped > 0 {
            file.set_len(good_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end))?;
        Ok((
            ReplayLog {
                file,
                path: path.to_path_buf(),
                bytes: good_end,
                scratch: Vec::new(),
            },
            Recovery {
                frames,
                dropped_bytes: dropped,
            },
        ))
    }

    /// Append one fold's rows + labels. The frame is fully in the OS page
    /// cache when this returns (kill-safe); call [`ReplayLog::sync`] for
    /// power-loss durability.
    pub fn append(&mut self, rows: &Matrix<f32>, labels: &[usize]) -> std::io::Result<()> {
        let mut payload = std::mem::take(&mut self.scratch);
        encode_payload(rows, labels, &mut payload);
        let result = write_frame(&mut self.file, &payload);
        if result.is_ok() {
            self.bytes += ENVELOPE_LEN + payload.len() as u64;
        }
        self.scratch = payload;
        result
    }

    /// Flush appended frames to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Drop every frame (called right after a checkpoint made them
    /// redundant): truncate back to the header and sync.
    pub fn rotate(&mut self) -> std::io::Result<()> {
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.file.sync_data()?;
        self.bytes = HEADER_LEN;
        Ok(())
    }

    /// Current size of the log in bytes (header included) — exported as
    /// the `bcpnn_learn_replay_log_bytes` gauge.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bcpnn-replay-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("replay.log")
    }

    fn frame(seed: u32, rows: usize, cols: usize) -> (Matrix<f32>, Vec<usize>) {
        let x = Matrix::from_fn(rows, cols, |r, c| {
            (seed as f32) + (r * cols + c) as f32 * 0.25
        });
        let labels = (0..rows).map(|r| (r + seed as usize) % 3).collect();
        (x, labels)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The envelope CRC is the IEEE one (the classic check value), so
        // logs written before the codec moved still verify.
        use bcpnn_tensor::io::crc32;
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let path = tmp("crc");
        let (mut log, _) = ReplayLog::open(&path).unwrap();
        let (x, y) = frame(1, 2, 3);
        log.append(&x, &y).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let payload = &bytes[HEADER_LEN as usize + 8..];
        assert_eq!(bytes[9..13], crc32(payload).to_le_bytes());
    }

    #[test]
    fn append_then_reopen_replays_every_frame() {
        let path = tmp("roundtrip");
        let (mut log, rec) = ReplayLog::open(&path).unwrap();
        assert!(rec.frames.is_empty());
        let mut expect = Vec::new();
        for i in 0..5u32 {
            let (x, labels) = frame(i, 3 + i as usize, 4);
            log.append(&x, &labels).unwrap();
            expect.push(LearnFrame { rows: x, labels });
        }
        drop(log);
        let (log, rec) = ReplayLog::open(&path).unwrap();
        assert_eq!(rec.dropped_bytes, 0);
        assert_eq!(rec.frames, expect);
        assert_eq!(log.bytes(), std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let path = tmp("torn");
        let (mut log, _) = ReplayLog::open(&path).unwrap();
        let (x, labels) = frame(1, 4, 3);
        log.append(&x, &labels).unwrap();
        let (y, ylabels) = frame(2, 2, 3);
        log.append(&y, &ylabels).unwrap();
        drop(log);
        // Tear the last frame: chop 5 bytes off the file.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut log, rec) = ReplayLog::open(&path).unwrap();
        assert_eq!(rec.frames.len(), 1, "only the intact frame survives");
        assert_eq!(rec.frames[0].rows, x);
        assert!(rec.dropped_bytes > 0);
        // The log is immediately usable again.
        log.append(&y, &ylabels).unwrap();
        drop(log);
        let (_, rec) = ReplayLog::open(&path).unwrap();
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[1].rows, y);
    }

    #[test]
    fn bit_flip_drops_the_corrupt_frame_and_everything_after() {
        let path = tmp("bitflip");
        let (mut log, _) = ReplayLog::open(&path).unwrap();
        for i in 0..3u32 {
            let (x, labels) = frame(i, 3, 2);
            log.append(&x, &labels).unwrap();
        }
        let first_end = {
            let mut buf = Vec::new();
            encode_payload(&frame(0, 3, 2).0, &frame(0, 3, 2).1, &mut buf);
            HEADER_LEN + 8 + buf.len() as u64
        };
        drop(log);
        // Flip one payload bit inside the *second* frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = (first_end + 12) as usize;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = ReplayLog::open(&path).unwrap();
        assert_eq!(rec.frames.len(), 1, "prefix before the flip survives");
        assert!(rec.dropped_bytes > 0);
    }

    #[test]
    fn rotate_empties_the_log() {
        let path = tmp("rotate");
        let (mut log, _) = ReplayLog::open(&path).unwrap();
        let (x, labels) = frame(7, 6, 2);
        log.append(&x, &labels).unwrap();
        log.rotate().unwrap();
        assert_eq!(log.bytes(), HEADER_LEN);
        let (y, ylabels) = frame(8, 2, 2);
        log.append(&y, &ylabels).unwrap();
        drop(log);
        let (_, rec) = ReplayLog::open(&path).unwrap();
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].rows, y);
    }

    #[test]
    fn foreign_file_is_refused_not_wiped() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a replay log").unwrap();
        let err = ReplayLog::open(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Untouched.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a replay log"
        );
    }
}
