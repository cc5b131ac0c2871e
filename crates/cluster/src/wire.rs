//! The interior wire protocol: compact, versioned, length-prefixed binary
//! frames between the router tier and backend nodes.
//!
//! The exterior protocol (client ↔ router) is the gateway's HTTP/1.1 +
//! JSON; the interior hop deliberately is not. Feature rows and
//! probability rows travel as raw little-endian `f32` words — no decimal
//! rendering, no JSON parsing, no `f64` detour — so a predict fan-out
//! costs `4 bytes × cells` plus a fixed header, and bit-exactness across
//! the hop is a property of the encoding rather than of a careful float
//! printer.
//!
//! ## Framing
//!
//! ```text
//! +--------+---------+--------+--------------+-----------------+
//! | magic  | version | opcode | payload_len  | payload         |
//! | 4 B    | 1 B     | 1 B    | 4 B (LE u32) | payload_len B   |
//! +--------+---------+--------+--------------+-----------------+
//! ```
//!
//! * `magic` is [`MAGIC`] (`b"bCLu"`); anything else is rejected
//!   immediately — a stray HTTP client poking the backend port gets a
//!   typed [`WireError::BadMagic`], not a hang.
//! * `version` is [`VERSION`]. A node never interprets frames from a
//!   protocol version it does not speak.
//! * `payload_len` is bounded by the reader's limit (default
//!   [`DEFAULT_MAX_PAYLOAD`]) so a hostile or corrupt length cannot make a
//!   node allocate unbounded memory.
//!
//! Inside payloads: integers are little-endian; strings are a `u32` length
//! followed by UTF-8 bytes; `f32` matrices are `n_rows`/`n_cols` (`u32`
//! each) followed by row-major `f32` words. Every decode error is a typed
//! [`WireError::Malformed`] naming what was wrong.

use std::io::{Read, Write};
use std::time::Duration;

use bcpnn_tensor::io::{put_slice, ByteReader, Word};
use bcpnn_tensor::IoError;

/// The block of `f32` rows the frames carry (features on the way in, class
/// probabilities on the way out): the serving stack's own carrier, so a
/// decoded block is submitted, and an answer encoded, without a copy.
pub use bcpnn_serve::RowBlock;
use bcpnn_serve::{Priority, ServeError, SubmitOptions};

/// The 4 magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"bCLu";

/// Interior protocol version this build speaks.
pub const VERSION: u8 = 1;

/// Default ceiling on a frame payload (64 MiB — comfortably above the
/// gateway's 4 MiB JSON body limit after JSON→binary shrinkage, while
/// still bounding a corrupt length word).
pub const DEFAULT_MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes timeouts).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's protocol version is not [`VERSION`].
    UnsupportedVersion(u8),
    /// The opcode byte names no known frame type.
    UnknownOpcode(u8),
    /// The declared payload length exceeds the reader's limit.
    Oversized {
        /// Length the frame declared.
        declared: usize,
        /// The reader's configured ceiling.
        limit: usize,
    },
    /// The payload did not decode as the opcode's schema.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Oversized { declared, limit } => {
                write!(
                    f,
                    "frame payload of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            WireError::Malformed(msg) => write!(f, "malformed frame payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether this error is a socket-level timeout (the basis for the
    /// router's deadline mapping: a timed-out interior call with a client
    /// deadline becomes [`ServeError::DeadlineExceeded`]).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            )
        )
    }
}

/// Application-level error codes carried by [`Frame::Error`], mirroring
/// [`ServeError`] so the router can reconstruct the typed error — and
/// therefore the exact HTTP status — a single-node gateway would have
/// produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// No model under the requested name ([`ServeError::UnknownModel`]).
    UnknownModel = 1,
    /// Feature width mismatch ([`ServeError::ShapeMismatch`]).
    ShapeMismatch = 2,
    /// The model rejected the batch ([`ServeError::Model`]).
    Model = 3,
    /// Artifact I/O failure ([`ServeError::Io`]).
    Io = 4,
    /// Deadline passed before execution ([`ServeError::DeadlineExceeded`]).
    DeadlineExceeded = 5,
    /// The backend is shutting down ([`ServeError::Disconnected`]).
    Disconnected = 6,
    /// The artifact path is outside the backend's allowlisted root.
    Forbidden = 7,
    /// The request frame was semantically invalid (e.g. zero-width rows).
    BadRequest = 8,
    /// The node's online-learn queue is full; retry later.
    Overloaded = 9,
    /// The model abstained: prediction confidence fell below the
    /// request's threshold ([`ServeError::Abstained`]). Only appears as a
    /// whole-frame error on single-row paths; multi-row frames report
    /// abstention in-band via [`Frame::PredictOk`]'s `abstained` list.
    Abstained = 10,
}

impl ErrorCode {
    /// Decode from the wire byte.
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::UnknownModel,
            2 => ErrorCode::ShapeMismatch,
            3 => ErrorCode::Model,
            4 => ErrorCode::Io,
            5 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::Disconnected,
            7 => ErrorCode::Forbidden,
            8 => ErrorCode::BadRequest,
            9 => ErrorCode::Overloaded,
            10 => ErrorCode::Abstained,
            _ => return None,
        })
    }
}

/// Encode a [`ServeError`] as `(code, message)` for an error frame.
pub fn encode_serve_error(err: &ServeError) -> (ErrorCode, String) {
    let code = match err {
        ServeError::UnknownModel(_) => ErrorCode::UnknownModel,
        ServeError::ShapeMismatch { .. } => ErrorCode::ShapeMismatch,
        ServeError::Io(_) => ErrorCode::Io,
        ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        ServeError::Abstained => ErrorCode::Abstained,
        ServeError::Disconnected => ErrorCode::Disconnected,
        _ => ErrorCode::Model,
    };
    (code, err.to_string())
}

/// Reconstruct the [`ServeError`] an error frame stands for, so the
/// router-side HTTP mapping (`bcpnn_gateway::status_of`) yields the same
/// status a single-node deployment would. `Forbidden` and `BadRequest`
/// have no `ServeError` twin and are handled by the caller first.
pub fn decode_serve_error(code: ErrorCode, message: &str) -> ServeError {
    match code {
        ErrorCode::UnknownModel => ServeError::UnknownModel(message.to_string()),
        // The exact widths are only in the message; a zero/zero mismatch
        // still maps to the right HTTP status (400).
        ErrorCode::ShapeMismatch => ServeError::ShapeMismatch {
            expected: 0,
            got: 0,
        },
        ErrorCode::Io => ServeError::Io(message.to_string()),
        ErrorCode::DeadlineExceeded => ServeError::DeadlineExceeded,
        ErrorCode::Abstained => ServeError::Abstained,
        ErrorCode::Disconnected => ServeError::Disconnected,
        _ => ServeError::Model(message.to_string()),
    }
}

/// One listed model in a [`Frame::ModelsOk`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Registry name.
    pub name: String,
    /// Current version.
    pub version: u64,
    /// Feature width the model expects.
    pub n_inputs: u32,
    /// Number of output classes.
    pub n_classes: u32,
}

/// One interior-protocol frame: requests flow router → backend, replies
/// backend → router, one reply per request on the same connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Health probe; the nonce is echoed back in [`Frame::Pong`].
    Ping {
        /// Correlates the pong with its ping.
        nonce: u64,
    },
    /// Health probe reply.
    Pong {
        /// The ping's nonce, echoed.
        nonce: u64,
    },
    /// Run a batch of feature rows through a named model.
    Predict {
        /// Registry name of the model.
        model: String,
        /// Scheduling priority (`0` normal, `1` high, `2` low).
        priority: u8,
        /// Deadline in milliseconds, `0` for none. Measured from arrival
        /// at the backend, matching single-node submission semantics.
        deadline_ms: u64,
        /// Confidence floor ([`SubmitOptions::abstain_below`]): rows
        /// whose top-2 margin falls below it come back abstained instead
        /// of answered. `None` disables abstention.
        abstain: Option<f32>,
        /// The feature rows.
        rows: RowBlock,
    },
    /// Successful predict reply.
    PredictOk {
        /// Version of the model that answered every row: the serving
        /// batch's, not a later registry read (a node of this build
        /// always names it; the format keeps `None`).
        version: Option<u64>,
        /// One probability row per request row. Abstained rows are
        /// zero-filled; their indices are listed in `abstained`.
        rows: RowBlock,
        /// Indices of rows the model abstained on (confidence below the
        /// request's `abstain` threshold), strictly ascending.
        abstained: Vec<u32>,
    },
    /// Any application-level failure.
    Error {
        /// Typed failure category.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
    /// Load a persisted artifact from the backend's disk and hot-swap it
    /// into the backend's registry.
    Publish {
        /// Registry name to publish under.
        model: String,
        /// Artifact directory path on the backend host.
        path: String,
        /// Version number to publish as.
        version: u64,
        /// Compute backend (`0` naive, `1` parallel).
        backend: u8,
    },
    /// Successful publish reply.
    PublishOk {
        /// The version now serving.
        version: u64,
        /// Version displaced by the swap, if any.
        displaced: Option<u64>,
    },
    /// Request the backend's Prometheus exposition.
    MetricsReq,
    /// Prometheus exposition text.
    MetricsOk {
        /// The backend's full exposition (serve + gateway-style counters).
        text: String,
    },
    /// Request the backend's model listing.
    ModelsReq,
    /// Model listing reply.
    ModelsOk {
        /// Registered models, sorted by name.
        models: Vec<ModelInfo>,
    },
    /// Feed labeled rows to the online learner attached to a model. The
    /// router fans this out to *every* replica of the model's group, so
    /// each replica's shadow trains on the same stream.
    Learn {
        /// Registry name of the model.
        model: String,
        /// The labeled feature rows.
        rows: RowBlock,
        /// One class label per row.
        labels: Vec<u32>,
    },
    /// Successful learn reply.
    LearnOk {
        /// Rows accepted into the backend learner's queue.
        accepted: u64,
        /// Rows waiting in that queue after acceptance.
        queue_depth: u64,
    },
}

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Ping { .. } => 0x01,
            Frame::Pong { .. } => 0x02,
            Frame::Predict { .. } => 0x03,
            Frame::PredictOk { .. } => 0x04,
            Frame::Error { .. } => 0x05,
            Frame::Publish { .. } => 0x06,
            Frame::PublishOk { .. } => 0x07,
            Frame::MetricsReq => 0x08,
            Frame::MetricsOk { .. } => 0x09,
            Frame::ModelsReq => 0x0A,
            Frame::ModelsOk { .. } => 0x0B,
            Frame::Learn { .. } => 0x0C,
            Frame::LearnOk { .. } => 0x0D,
        }
    }

    /// Serialize the frame (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(10 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.opcode());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Ping { nonce } | Frame::Pong { nonce } => {
                nonce.put(&mut p);
            }
            Frame::Predict {
                model,
                priority,
                deadline_ms,
                abstain,
                rows,
            } => {
                put_str(&mut p, model);
                p.push(*priority);
                deadline_ms.put(&mut p);
                put_opt(&mut p, *abstain);
                put_rows(&mut p, rows);
            }
            Frame::PredictOk {
                version,
                rows,
                abstained,
            } => {
                put_opt(&mut p, *version);
                put_rows(&mut p, rows);
                (abstained.len() as u32).put(&mut p);
                put_slice(&mut p, abstained);
            }
            Frame::Error { code, message } => {
                p.push(*code as u8);
                put_str(&mut p, message);
            }
            Frame::Publish {
                model,
                path,
                version,
                backend,
            } => {
                put_str(&mut p, model);
                put_str(&mut p, path);
                version.put(&mut p);
                p.push(*backend);
            }
            Frame::PublishOk { version, displaced } => {
                version.put(&mut p);
                put_opt(&mut p, *displaced);
            }
            Frame::MetricsReq | Frame::ModelsReq => {}
            Frame::MetricsOk { text } => put_str(&mut p, text),
            Frame::Learn {
                model,
                rows,
                labels,
            } => {
                put_str(&mut p, model);
                put_rows(&mut p, rows);
                (labels.len() as u32).put(&mut p);
                put_slice(&mut p, labels);
            }
            Frame::LearnOk {
                accepted,
                queue_depth,
            } => {
                accepted.put(&mut p);
                queue_depth.put(&mut p);
            }
            Frame::ModelsOk { models } => {
                (models.len() as u32).put(&mut p);
                for m in models {
                    put_str(&mut p, &m.name);
                    m.version.put(&mut p);
                    put_slice(&mut p, &[m.n_inputs, m.n_classes]);
                }
            }
        }
        p
    }

    /// Write the frame to a stream and flush it.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.encode())?;
        w.flush()
    }

    /// Read one frame from a stream, enforcing `max_payload`.
    pub fn read_from<R: Read>(r: &mut R, max_payload: usize) -> Result<Frame, WireError> {
        let mut header = [0u8; 10];
        r.read_exact(&mut header)?;
        let magic: [u8; 4] = header[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        if header[4] != VERSION {
            return Err(WireError::UnsupportedVersion(header[4]));
        }
        let opcode = header[5];
        let len = u32::from_le_bytes(header[6..10].try_into().unwrap()) as usize;
        if len > max_payload {
            return Err(WireError::Oversized {
                declared: len,
                limit: max_payload,
            });
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Frame::decode_payload(opcode, &payload)
    }

    /// Decode a payload against its opcode's schema. Trailing bytes are a
    /// decode error: a frame means exactly its schema, nothing more.
    pub fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut c = ByteReader::new(payload);
        let frame = match opcode {
            0x01 => Frame::Ping { nonce: c.word()? },
            0x02 => Frame::Pong { nonce: c.word()? },
            0x03 => Frame::Predict {
                model: str(&mut c)?,
                priority: c.word()?,
                deadline_ms: c.word()?,
                abstain: opt(&mut c)?,
                rows: rows(&mut c)?,
            },
            0x04 => {
                let version = opt(&mut c)?;
                let rows = rows(&mut c)?;
                let n = c.word::<u32>()? as usize;
                let abstained = c.words(n)?;
                Frame::PredictOk {
                    version,
                    rows,
                    abstained,
                }
            }
            0x05 => {
                let raw = c.word::<u8>()?;
                let code = ErrorCode::from_u8(raw)
                    .ok_or_else(|| WireError::Malformed(format!("unknown error code {raw}")))?;
                Frame::Error {
                    code,
                    message: str(&mut c)?,
                }
            }
            0x06 => Frame::Publish {
                model: str(&mut c)?,
                path: str(&mut c)?,
                version: c.word()?,
                backend: c.word()?,
            },
            0x07 => Frame::PublishOk {
                version: c.word()?,
                displaced: opt(&mut c)?,
            },
            0x08 => Frame::MetricsReq,
            0x09 => Frame::MetricsOk { text: str(&mut c)? },
            0x0A => Frame::ModelsReq,
            0x0B => {
                // Entries are read one by one (never reserved up front), so
                // a corrupt count fails at the first missing byte.
                let n = c.word::<u32>()?;
                let models = (0..n)
                    .map(|_| {
                        Ok(ModelInfo {
                            name: str(&mut c)?,
                            version: c.word()?,
                            n_inputs: c.word()?,
                            n_classes: c.word()?,
                        })
                    })
                    .collect::<Result<_, WireError>>()?;
                Frame::ModelsOk { models }
            }
            0x0C => {
                let model = str(&mut c)?;
                let rows = rows(&mut c)?;
                let n = c.word::<u32>()? as usize;
                if n != rows.n_rows() {
                    return Err(WireError::Malformed(format!(
                        "learn frame has {} rows but {n} labels",
                        rows.n_rows()
                    )));
                }
                let labels = c.words(n)?;
                Frame::Learn {
                    model,
                    rows,
                    labels,
                }
            }
            0x0D => Frame::LearnOk {
                accepted: c.word()?,
                queue_depth: c.word()?,
            },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(frame)
    }
}

/// Convert a [`SubmitOptions`] to the wire's `(priority, deadline_ms,
/// abstain)` triple. Sub-millisecond deadlines round up to 1 ms so a
/// tiny-but-real deadline does not become "none" on the wire; the
/// abstention threshold travels as a raw `f32` word, bit-exactly.
pub fn encode_options(options: &SubmitOptions) -> (u8, u64, Option<f32>) {
    let priority = match options.priority {
        Priority::Normal => 0,
        Priority::High => 1,
        Priority::Low => 2,
    };
    let deadline_ms = options
        .deadline
        .map_or(0, |d| u64::max(d.as_millis() as u64, 1));
    (priority, deadline_ms, options.abstain_below)
}

/// Reconstruct [`SubmitOptions`] from the wire triple. Unknown priority
/// bytes degrade to `Normal` rather than failing the whole batch.
pub fn decode_options(priority: u8, deadline_ms: u64, abstain: Option<f32>) -> SubmitOptions {
    let mut options = SubmitOptions::new().priority(match priority {
        1 => Priority::High,
        2 => Priority::Low,
        _ => Priority::Normal,
    });
    if deadline_ms > 0 {
        options = options.deadline(Duration::from_millis(deadline_ms));
    }
    if let Some(threshold) = abstain {
        options = options.abstain_below(threshold);
    }
    options
}

fn put_opt<T: Word>(out: &mut Vec<u8>, v: Option<T>) {
    out.push(u8::from(v.is_some()));
    if let Some(v) = v {
        v.put(out);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

fn put_rows(out: &mut Vec<u8>, rows: &RowBlock) {
    put_slice(out, &[rows.n_cols, rows.n_rows() as u32]);
    put_slice(out, &rows.data);
}

impl From<IoError> for WireError {
    fn from(e: IoError) -> Self {
        match e {
            IoError::Io(e) => WireError::Io(e),
            IoError::Format(msg) => WireError::Malformed(msg),
        }
    }
}

fn opt<T: Word>(c: &mut ByteReader<'_>) -> Result<Option<T>, WireError> {
    match c.word::<u8>()? {
        0 => Ok(None),
        1 => Ok(Some(c.word()?)),
        other => Err(WireError::Malformed(format!(
            "option tag must be 0 or 1, got {other}"
        ))),
    }
}

fn str(c: &mut ByteReader<'_>) -> Result<String, WireError> {
    let len = c.word::<u32>()? as usize;
    String::from_utf8(c.take(len)?.to_vec())
        .map_err(|_| WireError::Malformed("string is not valid UTF-8".into()))
}

/// A row block; its cell count is overflow-checked and its bytes checked
/// present before anything is allocated.
fn rows(c: &mut ByteReader<'_>) -> Result<RowBlock, WireError> {
    let n_cols = c.word::<u32>()?;
    let n_rows = c.word::<u32>()? as usize;
    if n_rows > 0 && n_cols == 0 {
        return Err(WireError::Malformed("rows with zero width".into()));
    }
    let cells = n_rows
        .checked_mul(n_cols as usize)
        .ok_or_else(|| WireError::Malformed("row block dimensions overflow".into()))?;
    Ok(RowBlock {
        n_cols,
        data: c.words(cells)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.encode();
        Frame::read_from(&mut &bytes[..], DEFAULT_MAX_PAYLOAD).expect("frame round-trips")
    }

    #[test]
    fn every_variant_round_trips() {
        let frames = [
            Frame::Ping { nonce: 7 },
            Frame::Pong { nonce: u64::MAX },
            Frame::Predict {
                model: "higgs".into(),
                priority: 1,
                deadline_ms: 250,
                abstain: Some(0.35),
                rows: RowBlock::from_rows(&[vec![1.0, -2.5], vec![0.0, f32::MIN_POSITIVE]]),
            },
            Frame::Predict {
                model: "higgs".into(),
                priority: 0,
                deadline_ms: 0,
                abstain: None,
                rows: RowBlock::from_rows(&[vec![1.0, 2.0]]),
            },
            Frame::PredictOk {
                version: Some(3),
                rows: RowBlock::from_rows(&[vec![0.25, 0.75]]),
                abstained: vec![],
            },
            Frame::PredictOk {
                version: Some(3),
                rows: RowBlock::from_rows(&[vec![0.0, 0.0], vec![0.25, 0.75]]),
                abstained: vec![0],
            },
            Frame::PredictOk {
                version: None,
                rows: RowBlock {
                    n_cols: 0,
                    data: vec![],
                },
                abstained: vec![],
            },
            Frame::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "too slow".into(),
            },
            Frame::Publish {
                model: "higgs".into(),
                path: "/tmp/artifacts/higgs-v2".into(),
                version: 2,
                backend: 1,
            },
            Frame::PublishOk {
                version: 2,
                displaced: Some(1),
            },
            Frame::PublishOk {
                version: 1,
                displaced: None,
            },
            Frame::MetricsReq,
            Frame::MetricsOk {
                text: "# TYPE x counter\nx 1\n".into(),
            },
            Frame::ModelsReq,
            Frame::ModelsOk {
                models: vec![ModelInfo {
                    name: "higgs".into(),
                    version: 2,
                    n_inputs: 28,
                    n_classes: 2,
                }],
            },
            Frame::Learn {
                model: "higgs".into(),
                rows: RowBlock::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]),
                labels: vec![0, 1],
            },
            Frame::LearnOk {
                accepted: 2,
                queue_depth: 17,
            },
        ];
        for frame in &frames {
            assert_eq!(&roundtrip(frame), frame, "{frame:?}");
        }
    }

    #[test]
    fn floats_survive_bit_exactly_including_nan() {
        let rows = RowBlock {
            n_cols: 4,
            data: vec![f32::NAN, -0.0, f32::INFINITY, 1.000_000_1],
        };
        let frame = Frame::PredictOk {
            version: Some(1),
            rows,
            abstained: vec![],
        };
        let bytes = frame.encode();
        let back = Frame::read_from(&mut &bytes[..], DEFAULT_MAX_PAYLOAD).unwrap();
        let Frame::PredictOk { rows: got, .. } = back else {
            panic!("wrong frame type");
        };
        let Frame::PredictOk { rows: sent, .. } = frame else {
            unreachable!();
        };
        for (a, b) in sent.data.iter().zip(&got.data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn learn_frame_with_mismatched_label_count_is_malformed() {
        let good = Frame::Learn {
            model: "m".into(),
            rows: RowBlock::from_rows(&[vec![1.0], vec![2.0]]),
            labels: vec![0, 1],
        };
        let bytes = good.encode();
        // Payload layout: ..., label_count u32, labels. Lower the count:
        // the labels themselves become trailing bytes — still malformed.
        let mut tampered = bytes.clone();
        let count_at = tampered.len() - 2 * 4 - 4;
        tampered[count_at..count_at + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut tampered.as_slice(), DEFAULT_MAX_PAYLOAD),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn a_row_block_larger_than_its_payload_is_malformed_not_a_panic() {
        // A 13-byte PredictOk payload: no version, then 2^31 x 2^31 cells
        // and a zero abstained count. The cell count must be refused
        // before it is multiplied into a byte count or allocated.
        let mut payload = vec![0u8];
        for word in [1u32 << 31, 1 << 31, 0] {
            payload.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(payload.len(), 13);
        assert!(matches!(
            Frame::decode_payload(0x04, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn options_round_trip_through_the_wire_pair() {
        let options = SubmitOptions::new()
            .priority(Priority::High)
            .deadline(Duration::from_millis(250))
            .abstain_below(0.25);
        let (p, d, a) = encode_options(&options);
        assert_eq!((p, d, a), (1, 250, Some(0.25)));
        assert_eq!(decode_options(p, d, a), options);
        // No deadline stays none; sub-millisecond rounds up, not down.
        assert_eq!(encode_options(&SubmitOptions::new()), (0, 0, None));
        let tiny = SubmitOptions::new().deadline(Duration::from_micros(10));
        assert_eq!(encode_options(&tiny).1, 1);
    }

    #[test]
    fn serve_errors_map_there_and_back() {
        let cases = [
            ServeError::UnknownModel("m".into()),
            ServeError::DeadlineExceeded,
            ServeError::Abstained,
            ServeError::Disconnected,
            ServeError::Io("gone".into()),
            ServeError::Model("bad".into()),
        ];
        for err in cases {
            let (code, msg) = encode_serve_error(&err);
            let back = decode_serve_error(code, &msg);
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(&err),
                "{err:?}"
            );
        }
        // ShapeMismatch keeps its discriminant even though the widths
        // travel only in the message.
        let (code, msg) = encode_serve_error(&ServeError::ShapeMismatch {
            expected: 28,
            got: 3,
        });
        assert!(matches!(
            decode_serve_error(code, &msg),
            ServeError::ShapeMismatch { .. }
        ));
        assert!(msg.contains("28"));
    }
}
