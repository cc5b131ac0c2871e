//! Property-based checks on the interior wire protocol: every frame the
//! encoder can produce must decode back to itself through the streaming
//! reader, and byte streams that violate the framing rules must be
//! rejected with the *right* [`WireError`] — a router that misreads a
//! torn frame as a short answer would silently corrupt predictions.

use bcpnn_cluster::wire::{ErrorCode, Frame, ModelInfo, RowBlock, WireError, MAGIC, VERSION};
use proptest::prelude::*;

/// Wire-legal model/path strings: the charset the HTTP router admits.
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..64, 1..24).prop_map(|idx| {
        const CHARSET: &[u8; 64] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
        idx.iter().map(|&i| CHARSET[i] as char).collect()
    })
}

/// Arbitrary (possibly empty) row blocks with consistent geometry.
fn rows_strategy() -> impl Strategy<Value = RowBlock> {
    (1u32..8, 0usize..6).prop_flat_map(|(n_cols, n_rows)| {
        prop::collection::vec(-1.0e6f32..1.0e6, n_cols as usize * n_rows)
            .prop_map(move |data| RowBlock { n_cols, data })
    })
}

/// One arbitrary frame of any variant. The shim has no `prop_oneof`, so a
/// discriminant field selects the variant from one shared field bundle.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0usize..13,
        name_strategy(),
        name_strategy(),
        rows_strategy(),
        (
            0u64..u64::MAX,
            0u8..3,
            0..ErrorCode::ALL.len(),
            prop::bool::ANY,
            0u64..u64::MAX,
        ),
    )
        .prop_map(|(variant, name, text, rows, (n, small, code, flag, n2))| {
            let opt = if flag { Some(n2) } else { None };
            match variant {
                0 => Frame::Ping { nonce: n },
                1 => Frame::Pong { nonce: n },
                2 => Frame::Predict {
                    model: name,
                    priority: small,
                    deadline_ms: n2,
                    // Exercise both the present and absent encodings, with
                    // a value derived from the shared field bundle.
                    abstain: if flag {
                        Some((n % 1000) as f32 / 1000.0)
                    } else {
                        None
                    },
                    rows,
                },
                3 => {
                    // Abstained indices are one-per-row at most; flag
                    // toggles between "none" and "every row".
                    let abstained = if flag {
                        (0..rows.n_rows() as u32).collect()
                    } else {
                        Vec::new()
                    };
                    Frame::PredictOk {
                        version: opt,
                        rows,
                        abstained,
                    }
                }
                4 => Frame::Error {
                    code: ErrorCode::ALL[code],
                    message: text,
                },
                5 => Frame::Publish {
                    model: name,
                    path: text,
                    version: n,
                    backend: small,
                },
                6 => Frame::PublishOk {
                    version: n,
                    displaced: opt,
                },
                7 => Frame::MetricsReq,
                8 => Frame::MetricsOk { text },
                9 => Frame::ModelsReq,
                11 => {
                    // Labels are one-per-row by the frame's schema.
                    let labels = (0..rows.n_rows()).map(|i| i as u32).collect();
                    Frame::Learn {
                        model: name,
                        rows,
                        labels,
                    }
                }
                12 => Frame::LearnOk {
                    accepted: n,
                    queue_depth: n2,
                },
                _ => Frame::ModelsOk {
                    models: vec![
                        ModelInfo {
                            name,
                            version: n,
                            n_inputs: 28,
                            n_classes: 2,
                        },
                        ModelInfo {
                            name: text,
                            version: n2,
                            n_inputs: u32::from(small),
                            n_classes: code as u32,
                        },
                    ],
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_frame_round_trips_through_the_stream_reader(frame in frame_strategy()) {
        let bytes = frame.encode();
        let decoded = Frame::read_from(&mut bytes.as_slice(), bytes.len()).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn row_payloads_survive_bit_for_bit(rows in rows_strategy()) {
        let frame = Frame::PredictOk { version: Some(1), rows: rows.clone(), abstained: vec![] };
        let bytes = frame.encode();
        let Frame::PredictOk { rows: back, .. } =
            Frame::read_from(&mut bytes.as_slice(), bytes.len()).unwrap()
        else {
            panic!("wrong frame variant came back");
        };
        prop_assert_eq!(back.n_cols, rows.n_cols);
        prop_assert_eq!(back.data.len(), rows.data.len());
        for (a, b) in back.data.iter().zip(rows.data.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncating_a_frame_never_yields_a_frame(frame in frame_strategy(), frac in 0.0f32..1.0) {
        let bytes = frame.encode();
        // Any strict prefix must fail — as a clean I/O error (short read),
        // never as a successfully decoded different frame.
        let cut = ((bytes.len() as f32 * frac) as usize).min(bytes.len() - 1);
        let result = Frame::read_from(&mut bytes[..cut].as_ref(), bytes.len());
        prop_assert!(matches!(result, Err(WireError::Io(_))));
    }

    #[test]
    fn flipping_the_version_byte_is_rejected(frame in frame_strategy(), v in 0u8..255) {
        if v == VERSION {
            return;
        }
        let mut bytes = frame.encode();
        bytes[4] = v;
        let result = Frame::read_from(&mut bytes.as_slice(), bytes.len());
        prop_assert!(matches!(result, Err(WireError::UnsupportedVersion(got)) if got == v));
    }
}

/// The malformed-frame rejection table: each framing violation maps to
/// its own typed error, so operators can tell "wrong peer" (bad magic)
/// from "version skew" from "resource abuse" (oversized) at a glance.
#[test]
fn malformed_frames_are_rejected_with_typed_errors() {
    let good = (Frame::Ping { nonce: 7 }).encode();

    // Bad magic: something that is not this protocol at all.
    let mut bad_magic = good.clone();
    bad_magic[..4].copy_from_slice(b"HTTP");
    assert!(matches!(
        Frame::read_from(&mut bad_magic.as_slice(), 1024),
        Err(WireError::BadMagic(m)) if &m == b"HTTP"
    ));

    // Version skew: same protocol, future revision.
    let mut bad_version = good.clone();
    bad_version[4] = VERSION + 1;
    assert!(matches!(
        Frame::read_from(&mut bad_version.as_slice(), 1024),
        Err(WireError::UnsupportedVersion(v)) if v == VERSION + 1
    ));

    // Unknown opcode: valid header, no such frame type.
    let mut bad_opcode = good.clone();
    bad_opcode[5] = 0x7F;
    assert!(matches!(
        Frame::read_from(&mut bad_opcode.as_slice(), 1024),
        Err(WireError::UnknownOpcode(0x7F))
    ));

    // Oversized: declared length above the reader's ceiling. The reader
    // must refuse *before* allocating the declared buffer.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&MAGIC);
    oversized.push(VERSION);
    oversized.push(0x01);
    oversized.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Frame::read_from(&mut oversized.as_slice(), 1024),
        Err(WireError::Oversized { declared, limit: 1024 }) if declared == u32::MAX as usize
    ));

    // Short payload: header promises 8 nonce bytes, stream ends early.
    let mut short = good.clone();
    short.truncate(12);
    assert!(matches!(
        Frame::read_from(&mut short.as_slice(), 1024),
        Err(WireError::Io(_))
    ));

    // Trailing bytes: payload longer than the opcode's schema. A frame
    // means exactly its schema — extra bytes are a malformed frame, not
    // padding.
    let mut trailing = good.clone();
    trailing.push(0xFF);
    let len = (trailing.len() - 10) as u32;
    trailing[6..10].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        Frame::read_from(&mut trailing.as_slice(), 1024),
        Err(WireError::Malformed(_))
    ));

    // Ragged row block: data length not divisible by the column count.
    let mut ragged = Vec::new();
    ragged.extend_from_slice(&3u32.to_le_bytes()); // n_cols = 3
    ragged.extend_from_slice(&2u32.to_le_bytes()); // n_rows = 2
    ragged.extend_from_slice(&1.0f32.to_le_bytes()); // ...but only 1 value
    let mut framed = Vec::new();
    framed.extend_from_slice(&MAGIC);
    framed.push(VERSION);
    framed.push(0x04); // PredictOk
    let payload = {
        let mut p = vec![0u8]; // version: None
        p.extend_from_slice(&ragged);
        p
    };
    framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    framed.extend_from_slice(&payload);
    assert!(matches!(
        Frame::read_from(&mut framed.as_slice(), 1024),
        Err(WireError::Malformed(_))
    ));
}
