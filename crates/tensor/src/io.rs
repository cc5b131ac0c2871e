//! The one byte codec: CRC-framed little-endian binary.
//!
//! Every persisted byte of the workspace goes through this module: saved
//! models (`bcpnn_core::serialize`), the learner's replay log
//! (`bcpnn_learn::replay`) and the interior wire (`bcpnn_cluster::wire`,
//! which uses the slice codec but frames itself).
//!
//! ```text
//! frame  := len u32 LE | crc32(payload) u32 LE | payload
//! matrix := frame of  magic "bMAT" | elem width u8 | rows u32 LE | cols u32 LE | rows*cols LE words
//! ```
//!
//! Values travel as raw little-endian words, so every `f32` and `f64`
//! (NaN payloads included) round-trips bit for bit. The read side never
//! trusts a count: every size is a `checked_mul`, and the bytes are
//! checked to be present before anything is allocated, so hostile or
//! corrupt input is a typed [`IoError::Format`], never a panic or an
//! unbounded allocation.

use std::io::{self, Read, Write};

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Magic tag at the start of every matrix payload.
const MATRIX_MAGIC: [u8; 4] = *b"bMAT";
/// Bytes of a frame's envelope (length + CRC) in front of its payload.
pub const ENVELOPE_LEN: u64 = 8;

/// Errors produced by the codec.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The input did not conform to the expected format.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Slicing-by-8 CRC tables, computed at compile time: table 0 is the
/// classic byte table, table `k` advances a byte `k` positions further.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE 802.3 polynomial, reflected: the one
/// `cksum`/zlib use).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// A fixed-width value the codec writes as little-endian bytes.
pub trait Word: Copy {
    /// Bytes per value.
    const WIDTH: usize;
    /// Append the value's little-endian bytes.
    fn put(self, out: &mut Vec<u8>);
    /// Decode from exactly [`Word::WIDTH`] little-endian bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline(always)]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("exactly one word"))
            }
        }
    )*};
}
impl_word!(u8, u32, u64, f32, f64);

/// Append every value of `xs` as little-endian words.
pub fn put_slice<T: Word>(out: &mut Vec<u8>, xs: &[T]) {
    out.reserve(xs.len() * T::WIDTH);
    for &x in xs {
        x.put(out);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// The next `n` bytes, or a typed error if fewer are left.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        if n > self.bytes.len() {
            return Err(IoError::Format(format!(
                "payload truncated: wanted {n} bytes, {} left",
                self.bytes.len()
            )));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// The next little-endian word.
    pub fn word<T: Word>(&mut self) -> Result<T, IoError> {
        Ok(T::read_le(self.take(T::WIDTH)?))
    }

    /// The next `n` little-endian words. The byte count is checked for
    /// overflow and for presence before the vector is allocated.
    pub fn words<T: Word>(&mut self, n: usize) -> Result<Vec<T>, IoError> {
        let bytes = n
            .checked_mul(T::WIDTH)
            .ok_or_else(|| IoError::Format(format!("{n} values overflow a byte count")))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(T::WIDTH)
            .map(T::read_le)
            .collect())
    }

    /// A typed error unless every byte was read.
    pub fn finish(&self) -> Result<(), IoError> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(IoError::Format(format!("{n} trailing bytes"))),
        }
    }
}

/// Write one frame: the envelope (`len`, `crc32`) then `payload`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "a frame holds at most 4 GiB"))?;
    let mut envelope = [0u8; ENVELOPE_LEN as usize];
    envelope[..4].copy_from_slice(&len.to_le_bytes());
    envelope[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&envelope)?;
    w.write_all(payload)
}

/// Write a matrix as one frame.
pub fn write_matrix<S: Scalar + Word, W: Write>(w: &mut W, m: &Matrix<S>) -> Result<(), IoError> {
    let dim = |n: usize| {
        u32::try_from(n).map_err(|_| IoError::Format(format!("dimension {n} exceeds u32")))
    };
    let mut payload = Vec::with_capacity(13 + m.as_slice().len() * S::WIDTH);
    payload.extend_from_slice(&MATRIX_MAGIC);
    payload.push(S::WIDTH as u8);
    dim(m.rows())?.put(&mut payload);
    dim(m.cols())?.put(&mut payload);
    put_slice(&mut payload, m.as_slice());
    Ok(write_frame(w, &payload)?)
}

/// Reads frames from a source of known length: a frame's declared length
/// is checked against the bytes left before its payload is allocated.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    left: u64,
}

impl<R: Read> FrameReader<R> {
    /// Read frames from `inner`, which holds exactly `len` more bytes.
    pub fn new(inner: R, len: u64) -> Self {
        Self { inner, left: len }
    }

    /// The next frame's payload, CRC-checked. A truncated envelope or
    /// payload and a CRC mismatch are [`IoError::Format`]; only a failing
    /// read of bytes that are there is [`IoError::Io`].
    pub fn read_frame(&mut self) -> Result<Vec<u8>, IoError> {
        if self.left < ENVELOPE_LEN {
            return Err(IoError::Format(format!(
                "truncated frame envelope: {} bytes left",
                self.left
            )));
        }
        let mut envelope = [0u8; ENVELOPE_LEN as usize];
        self.inner.read_exact(&mut envelope)?;
        self.left -= ENVELOPE_LEN;
        let len = u32::read_le(&envelope[..4]);
        let crc = u32::read_le(&envelope[4..]);
        if u64::from(len) > self.left {
            return Err(IoError::Format(format!(
                "frame declares {len} bytes, {} left",
                self.left
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.inner.read_exact(&mut payload)?;
        self.left -= u64::from(len);
        if crc32(&payload) != crc {
            return Err(IoError::Format("frame CRC mismatch".into()));
        }
        Ok(payload)
    }

    /// The next frame, decoded as a matrix written by [`write_matrix`]
    /// with the same element width.
    pub fn read_matrix<S: Scalar + Word>(&mut self) -> Result<Matrix<S>, IoError> {
        let payload = self.read_frame()?;
        let mut r = ByteReader::new(&payload);
        if r.take(4)? != MATRIX_MAGIC {
            return Err(IoError::Format("frame is not a matrix (bad magic)".into()));
        }
        let width = r.word::<u8>()?;
        if usize::from(width) != S::WIDTH {
            return Err(IoError::Format(format!(
                "matrix of {width}-byte values, expected {}-byte values",
                S::WIDTH
            )));
        }
        let rows = r.word::<u32>()? as usize;
        let cols = r.word::<u32>()? as usize;
        let cells = rows
            .checked_mul(cols)
            .ok_or_else(|| IoError::Format(format!("{rows}x{cols} overflows")))?;
        let data = r.words(cells)?;
        r.finish()?;
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// A typed error unless every byte was read.
    pub fn finish(&self) -> Result<(), IoError> {
        match self.left {
            0 => Ok(()),
            n => Err(IoError::Format(format!(
                "{n} trailing bytes after the last frame"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::MatrixRng;

    fn frames(bytes: &[u8]) -> FrameReader<&[u8]> {
        FrameReader::new(bytes, bytes.len() as u64)
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn roundtrip_through_memory() {
        let mut m: Matrix<f32> = MatrixRng::seed_from(1).uniform(7, 5, -3.0, 3.0);
        m.as_mut_slice()[3] = f32::from_bits(0x7FC0_1234); // a NaN payload
        let mut buf = Vec::new();
        write_matrix(&mut buf, &m).unwrap();
        let back: Matrix<f32> = frames(&buf).read_matrix().unwrap();
        let bits = |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((back.shape(), bits(&back)), (m.shape(), bits(&m)));
    }

    #[test]
    fn roundtrip_through_file() {
        let path = std::env::temp_dir().join(format!("bcpnn_tensor_io_{}.bin", std::process::id()));
        let m: Matrix<f64> = Matrix::from_fn(3, 4, |r, c| r as f64 * 0.5 - c as f64);
        let mut file = std::fs::File::create(&path).unwrap();
        write_matrix(&mut file, &m).unwrap();
        write_frame(&mut file, b"tail").unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut r = FrameReader::new(io::BufReader::new(std::fs::File::open(&path).unwrap()), len);
        assert_eq!(r.read_matrix::<f64>().unwrap(), m);
        assert_eq!(r.read_frame().unwrap(), b"tail");
        r.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_header() {
        let err = frames(&framed(b"not-a-matrix"))
            .read_matrix::<f32>()
            .unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // An f64 matrix read as f32 names both widths.
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::<f64>::zeros(1, 1)).unwrap();
        let err = frames(&buf).read_matrix::<f32>().unwrap_err();
        assert!(err.to_string().contains("8-byte"), "{err}");
    }

    #[test]
    fn rejects_truncated_body() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::<f32>::filled(3, 2, 1.5)).unwrap();
        for cut in 0..buf.len() {
            let err = frames(&buf[..cut]).read_matrix::<f32>().unwrap_err();
            assert!(matches!(err, IoError::Format(_)), "cut {cut}: {err}");
        }
        // A flipped body byte fails the CRC.
        *buf.last_mut().unwrap() ^= 0x40;
        let err = frames(&buf).read_matrix::<f32>().unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn rejects_ragged_rows() {
        // A 2x2 header over three values, then over five: the body and the
        // shape disagree.
        let mut payload = MATRIX_MAGIC.to_vec();
        payload.push(4);
        put_slice(&mut payload, &[2u32, 2]);
        put_slice(&mut payload, &[1.0f32, 2.0, 3.0]);
        let err = frames(&framed(&payload)).read_matrix::<f32>().unwrap_err();
        assert!(err.to_string().contains("wanted 16 bytes"), "{err}");
        put_slice(&mut payload, &[4.0f32, 5.0]);
        let err = frames(&framed(&payload)).read_matrix::<f32>().unwrap_err();
        assert!(err.to_string().contains("4 trailing bytes"), "{err}");
        // Dimensions whose product overflows are refused before allocating.
        payload.truncate(5);
        put_slice(&mut payload, &[u32::MAX, u32::MAX]);
        assert!(frames(&framed(&payload)).read_matrix::<f64>().is_err());
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let mut buf = Vec::new();
        write_matrix(&mut buf, &Matrix::<f32>::zeros(0, 4)).unwrap();
        let back: Matrix<f32> = frames(&buf).read_matrix().unwrap();
        assert_eq!(back.shape(), (0, 4));
    }

    #[test]
    fn crc32_slicing_matches_the_bytewise_reference() {
        // Lengths on both sides of the 8-byte stride.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..bytes.len() {
            let crc = bytes[..n].iter().fold(!0u32, |crc, &b| {
                (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
            });
            assert_eq!(crc32(&bytes[..n]), !crc, "length {n}");
        }
    }

    #[test]
    fn slice_reads_check_counts_before_allocating() {
        let mut r = ByteReader::new(&[0u8; 8]);
        assert!(r.words::<f32>(usize::MAX / 2).is_err());
        assert!(r.words::<f64>(2).is_err());
        assert_eq!(r.words::<f32>(2).unwrap(), vec![0.0, 0.0]);
        r.finish().unwrap();
    }
}
