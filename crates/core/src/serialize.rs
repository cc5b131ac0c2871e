//! Model persistence.
//!
//! A saved model is a directory holding exactly one file, `model.bcpnn`,
//! written with the workspace's one byte codec (`bcpnn_tensor::io`): a
//! sequence of CRC-framed little-endian frames, read back through a
//! buffered reader one frame at a time.
//!
//! ## Format (`v5`)
//!
//! ```text
//! header  := frame of  magic "bcpnnMDL" | version u32 (5) | kind u8 | kind fields
//! pipeline fields := n_inputs u64 | n_hcu u64 | n_mcu u64 | receptive_field f64
//!                  | trace_rate f32 | eps f32 | bias_gain f32 | support_noise f32
//!                  | plasticity_swaps u64 | plasticity_interval u64
//!                  | readout u8 | n_classes u8 | calibration u8
//! pipeline frames := encoder boundaries (f64 matrix) | hidden mask
//!                  | hidden p_i | p_j | p_ij
//!                  | [readout p_i | p_j | p_ij]   (BCPNN or hybrid readout)
//!                  | [SGD weights | SGD bias]     (SGD or hybrid readout)
//!                  | [calibration state]          (calibration tag ≠ 0)
//! ```
//!
//! The header is the file's manifest: it says what kind of artifact the
//! file holds ([`ArtifactKind`]; `bcpnn_lowprec` writes the `quantized`
//! kind into the same container) and which frames follow. Weights are
//! *not* stored — they are deterministic functions of the probability
//! traces and are recomputed on load, which keeps the loaded model
//! internally consistent.
//!
//! Every failure to load is a typed [`CoreError`], never a panic: a
//! missing file, a flipped or truncated byte (the CRC of every frame), a
//! header of another version or kind, an unknown tag byte, a tensor of
//! the wrong shape, trailing bytes. A directory without `model.bcpnn`
//! (such as a `v4` directory of text matrices) is a
//! [`CoreError::Format`]; re-fit it with `bcpnn fit`.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

use bcpnn_backend::BackendKind;
use bcpnn_data::QuantileEncoder;
use bcpnn_tensor::io::{put_slice, write_frame, ByteReader, Word};
use bcpnn_tensor::{write_matrix, FrameReader, Matrix};

use crate::calibration::{Calibration, CalibrationMethod};
use crate::error::{CoreError, CoreResult};
use crate::mask::ReceptiveFieldMask;
use crate::model::Pipeline;
use crate::network::{NetworkBuilder, ReadoutKind};
use crate::params::HiddenLayerParams;
use crate::traces::ProbabilityTraces;

/// The one file of a model directory.
pub const MODEL_FILE: &str = "model.bcpnn";
/// Magic bytes opening the header frame.
const MAGIC: [u8; 8] = *b"bcpnnMDL";
/// The one version written and read.
pub const VERSION: u32 = 5;

/// What a model file holds: the header's kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ArtifactKind {
    /// A [`Pipeline`]: encoder, network state, optional calibration.
    Pipeline = 1,
    /// An int8 `QuantizedPipeline` (`bcpnn_lowprec`).
    Quantized = 2,
}

/// Write `dir/model.bcpnn` (creating `dir`): the header frame for `kind`
/// with the kind's own `fields`, then the frames `body` writes.
pub fn write_model_file(
    dir: &Path,
    kind: ArtifactKind,
    fields: &[u8],
    body: impl FnOnce(&mut BufWriter<File>) -> CoreResult<()>,
) -> CoreResult<()> {
    fs::create_dir_all(dir)?;
    let mut header = MAGIC.to_vec();
    VERSION.put(&mut header);
    header.push(kind as u8);
    header.extend_from_slice(fields);
    let mut w = BufWriter::new(File::create(dir.join(MODEL_FILE))?);
    write_frame(&mut w, &header)?;
    body(&mut w)?;
    w.flush()?;
    Ok(())
}

/// Open `dir/model.bcpnn` and check its header is a `v5` header of
/// `kind`. Returns the kind's header fields and the reader positioned at
/// the first tensor frame; the caller reads its frames, then calls
/// [`FrameReader::finish`] to refuse trailing bytes.
pub fn read_model_file(
    dir: &Path,
    kind: ArtifactKind,
) -> CoreResult<(Vec<u8>, FrameReader<BufReader<File>>)> {
    let file = match File::open(dir.join(MODEL_FILE)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && dir.is_dir() => {
            return Err(CoreError::Format(format!(
                "{} holds no {MODEL_FILE}, so it is not a v{VERSION} model directory \
                 (v4 and older directories of text matrices must be re-fitted with `bcpnn fit`)",
                dir.display()
            )))
        }
        file => file?,
    };
    let len = file.metadata()?.len();
    let mut frames = FrameReader::new(BufReader::new(file), len);
    let header = frames.read_frame()?;
    let mut r = ByteReader::new(&header);
    if !matches!(r.take(MAGIC.len()), Ok(magic) if magic == MAGIC) {
        return Err(CoreError::Format("not a model file (bad magic)".into()));
    }
    let version = r.word::<u32>()?;
    if version != VERSION {
        return Err(CoreError::Format(format!(
            "model file version v{version}, this build reads v{VERSION}"
        )));
    }
    let tag = r.word::<u8>()?;
    if tag != kind as u8 {
        return Err(CoreError::Format(format!(
            "the model file holds artifact kind {tag}, expected {kind:?} ({})",
            kind as u8
        )));
    }
    let fields = header[header.len() - r.remaining()..].to_vec();
    Ok((fields, frames))
}

fn row(v: &[f32]) -> Matrix<f32> {
    Matrix::from_vec(1, v.len(), v.to_vec())
}

fn write_traces<W: Write>(w: &mut W, t: &ProbabilityTraces) -> CoreResult<()> {
    write_matrix(w, &row(&t.pi))?;
    write_matrix(w, &row(&t.pj))?;
    write_matrix(w, &t.pij)?;
    Ok(())
}

fn read_traces<R: std::io::Read>(frames: &mut FrameReader<R>) -> CoreResult<ProbabilityTraces> {
    let traces = ProbabilityTraces {
        pi: frames.read_matrix::<f32>()?.into_vec(),
        pj: frames.read_matrix::<f32>()?.into_vec(),
        pij: frames.read_matrix()?,
    };
    if traces.pij.shape() != (traces.pi.len(), traces.pj.len()) {
        return Err(CoreError::Format(format!(
            "p_ij is {:?} but p_i, p_j have {} and {} entries",
            traces.pij.shape(),
            traces.pi.len(),
            traces.pj.len()
        )));
    }
    Ok(traces)
}

/// Save a [`Pipeline`] — its fitted encoder, the trained network's state
/// and any attached calibration — as a `v5` model directory.
pub fn save_pipeline<P: AsRef<Path>>(pipeline: &Pipeline, dir: P) -> CoreResult<()> {
    let network = pipeline.network();
    let calibration = pipeline.calibration();
    if let Some(cal) = calibration {
        cal.validate()?;
    }
    let n_classes = u8::try_from(network.n_classes()).map_err(|_| {
        CoreError::InvalidParams(format!(
            "a model file holds at most 255 classes, the network has {}",
            network.n_classes()
        ))
    })?;
    let hp = network.hidden().params();
    let mut fields = Vec::new();
    put_slice(
        &mut fields,
        &[hp.n_inputs, hp.n_hcu, hp.n_mcu].map(|v| v as u64),
    );
    hp.receptive_field.put(&mut fields);
    put_slice(
        &mut fields,
        &[hp.trace_rate, hp.eps, hp.bias_gain, hp.support_noise],
    );
    put_slice(
        &mut fields,
        &[hp.plasticity_swaps, hp.plasticity_interval].map(|v| v as u64),
    );
    fields.extend_from_slice(&[
        network.readout_kind() as u8,
        n_classes,
        calibration.map_or(0, |c| c.method() as u8),
    ]);
    let encoder = pipeline.encoder().expect("every pipeline has an encoder");
    write_model_file(dir.as_ref(), ArtifactKind::Pipeline, &fields, |w| {
        write_matrix(w, &encoder.boundaries())?;
        write_matrix(w, network.hidden().mask().as_matrix())?;
        write_traces(w, network.hidden().traces())?;
        if let Some(readout) = network.bcpnn_readout() {
            write_traces(w, readout.traces())?;
        }
        if let Some(sgd) = network.sgd_readout() {
            write_matrix(w, sgd.weights())?;
            write_matrix(w, &row(sgd.bias()))?;
        }
        if let Some(cal) = calibration {
            write_matrix(w, &cal.state())?;
        }
        Ok(())
    })
}

/// Load a [`Pipeline`] saved by [`save_pipeline`], instantiating the
/// network on the given backend (backends are runtime configuration, not
/// model state, so the caller chooses).
pub fn load_pipeline<P: AsRef<Path>>(dir: P, backend: BackendKind) -> CoreResult<Pipeline> {
    let (fields, mut frames) = read_model_file(dir.as_ref(), ArtifactKind::Pipeline)?;
    let mut r = ByteReader::new(&fields);
    let mut count = || r.word::<u64>().map(|v| v as usize);
    let (n_inputs, n_hcu, n_mcu) = (count()?, count()?, count()?);
    let receptive_field = r.word::<f64>()?;
    let [trace_rate, eps, bias_gain, support_noise] = r.words::<f32>(4)?[..] else {
        unreachable!("four words were read");
    };
    let hidden = HiddenLayerParams {
        n_inputs,
        n_hcu,
        n_mcu,
        receptive_field,
        trace_rate,
        eps,
        bias_gain,
        support_noise,
        plasticity_swaps: r.word::<u64>()? as usize,
        plasticity_interval: r.word::<u64>()? as usize,
    };
    let [readout, n_classes, calibration] = r.words::<u8>(3)?[..] else {
        unreachable!("three bytes were read");
    };
    r.finish()?;
    let readout = ReadoutKind::from_tag(readout)
        .ok_or_else(|| CoreError::Format(format!("unknown readout tag {readout}")))?;
    let calibration = match calibration {
        0 => None,
        1 => Some(CalibrationMethod::Temperature),
        2 => Some(CalibrationMethod::Isotonic),
        tag => return Err(CoreError::Format(format!("unknown calibration tag {tag}"))),
    };

    let encoder = QuantileEncoder::from_boundaries(&frames.read_matrix()?)?;
    if encoder.encoded_width() != hidden.n_inputs {
        return Err(CoreError::Format(format!(
            "the encoder produces {} columns but the network expects {}",
            encoder.encoded_width(),
            hidden.n_inputs
        )));
    }
    let mask = ReceptiveFieldMask::from_matrix(frames.read_matrix()?)?;
    let traces = read_traces(&mut frames)?;
    // Checked before the network is built, so a header's sizes never
    // drive an allocation the file's own frames do not back.
    let units = hidden.n_hcu.saturating_mul(hidden.n_mcu);
    if traces.pij.shape() != (hidden.n_inputs, units) {
        return Err(CoreError::Format(format!(
            "hidden traces are {:?}, the header describes {} inputs x {units} units",
            traces.pij.shape(),
            hidden.n_inputs
        )));
    }
    let mut network = NetworkBuilder::default()
        .hidden_params(hidden)
        .classes(usize::from(n_classes))
        .readout(readout)
        .backend(backend)
        .build_with(Some((mask, traces)))?;
    if let Some(head) = network.bcpnn_readout_mut() {
        head.restore_traces(read_traces(&mut frames)?)?;
    }
    if let Some(sgd) = network.sgd_readout_mut() {
        let weights = frames.read_matrix()?;
        sgd.set_parameters(weights, frames.read_matrix::<f32>()?.into_vec())?;
    }
    let calibration = match calibration {
        Some(method) => Some(Calibration::from_state(method, &frames.read_matrix()?)?),
        None => None,
    };
    frames.finish()?;
    let mut pipeline = Pipeline::new(network, encoder)?;
    pipeline.set_calibration(calibration)?;
    Ok(pipeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::tiny_pipeline;
    use crate::model::Predictor;
    use crate::network::Network;
    use bcpnn_tensor::io::crc32;

    /// `tiny_pipeline(seed)` saved into a fresh directory.
    fn saved(name: &str, seed: u64) -> (Pipeline, bcpnn_data::Dataset, std::path::PathBuf) {
        let dir = std::env::temp_dir()
            .join("bcpnn_serialize_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (pipeline, data) = tiny_pipeline(seed);
        save_pipeline(&pipeline, &dir).unwrap();
        (pipeline, data, dir)
    }

    fn load(dir: &Path) -> CoreResult<Pipeline> {
        load_pipeline(dir, BackendKind::Naive)
    }

    /// Rewrite the header frame of `dir`'s model file with `edit`, keeping
    /// its CRC valid, so a test reaches the checks behind the CRC.
    fn edit_header(dir: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
        let path = dir.join(MODEL_FILE);
        let bytes = fs::read(&path).unwrap();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        let mut header = bytes[8..8 + len].to_vec();
        edit(&mut header);
        let mut out = Vec::new();
        write_frame(&mut out, &header).unwrap();
        out.extend_from_slice(&bytes[8 + len..]);
        fs::write(&path, out).unwrap();
    }

    /// Offset of the readout tag in the header payload: magic, version,
    /// kind, three counts, an `f64`, four `f32`s, two counts.
    const READOUT_AT: usize = 8 + 4 + 1 + 24 + 8 + 16 + 16;

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let (pipeline, data, dir) = saved("roundtrip", 1);
        let loaded = load(&dir).unwrap();
        let proba = |p: &Pipeline| p.predict_proba(&data.features).unwrap();
        assert_eq!(proba(&loaded), proba(&pipeline));
        // The pure-BCPNN head also survives the roundtrip.
        let x = pipeline.encode(&data.features).unwrap();
        let bcpnn = |p: &Pipeline| {
            p.network()
                .predict_proba_with(ReadoutKind::Bcpnn, &x)
                .unwrap()
        };
        assert_eq!(bcpnn(&loaded), bcpnn(&pipeline));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_on_a_different_backend_gives_the_same_answers() {
        let (pipeline, data, dir) = saved("cross_backend", 5);
        let loaded = load_pipeline(&dir, BackendKind::Parallel).unwrap();
        let a = pipeline.predict_proba(&data.features).unwrap();
        assert!(a.max_abs_diff(&loaded.predict_proba(&data.features).unwrap()) < 1e-3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoder_rides_along_as_the_single_stage() {
        let (pipeline, data, dir) = saved("with_encoder", 11);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [MODEL_FILE]);
        let loaded = load(&dir).unwrap();
        let enc = loaded.encoder().unwrap();
        assert_eq!(enc, pipeline.encoder().unwrap());
        // Raw features -> encoded -> predictions match the original model.
        let direct = pipeline
            .network()
            .predict_proba(&pipeline.encode(&data.features).unwrap());
        let served = loaded
            .network()
            .predict_proba(&enc.transform_rows(&data.features));
        assert_eq!(direct.unwrap(), served.unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_encoder_width_is_rejected_at_save() {
        use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};
        let data = generate(&SyntheticHiggsConfig {
            n_samples: 100,
            seed: 14,
            ..Default::default()
        });
        let encoder = QuantileEncoder::fit(&data, 10); // 280 columns
        let net = Network::builder()
            .input(16)
            .hidden(2, 4, 0.5)
            .classes(2)
            .backend(BackendKind::Naive)
            .build()
            .unwrap();
        // The pair cannot even be bundled, so no directory is ever written.
        let err = Pipeline::new(net, encoder).unwrap_err();
        assert!(matches!(err, CoreError::DataMismatch(_)));
    }

    #[test]
    fn older_headers_are_a_typed_format_error() {
        let (_, _, dir) = saved("older_headers", 20);
        for version in 1..=4u32 {
            edit_header(&dir, |h| h[8..12].copy_from_slice(&version.to_le_bytes()));
            match load(&dir) {
                Err(CoreError::Format(msg)) => {
                    assert_eq!(
                        msg,
                        format!("model file version v{version}, this build reads v5")
                    )
                }
                other => panic!("v{version}: expected a Format error, got {other:?}"),
            }
        }
        // A v4 directory (text matrices, no model file) is refused by name.
        fs::remove_file(dir.join(MODEL_FILE)).unwrap();
        fs::write(dir.join("hidden_pij.mat"), "bcpnn-matrix v1 1 1\n0.5\n").unwrap();
        match load(&dir) {
            Err(CoreError::Format(msg)) => assert!(msg.contains("v4"), "{msg}"),
            other => panic!("expected a Format error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibration_rides_along_and_roundtrips_bit_exactly() {
        let (mut pipeline, data, dir) = saved("calibration", 40);
        let held_out = bcpnn_data::higgs::generate(&bcpnn_data::higgs::SyntheticHiggsConfig {
            n_samples: 120,
            seed: 41,
            ..Default::default()
        });
        for (method, other) in [
            (CalibrationMethod::Temperature, CalibrationMethod::Isotonic),
            (CalibrationMethod::Isotonic, CalibrationMethod::Temperature),
        ] {
            pipeline
                .fit_calibration(&held_out.features, &held_out.labels, method)
                .unwrap();
            save_pipeline(&pipeline, &dir).unwrap();
            let loaded = load(&dir).unwrap();
            assert_eq!(loaded.calibration(), pipeline.calibration());
            let proba = |p: &Pipeline| p.predict_proba(&data.features).unwrap();
            assert_eq!(proba(&loaded), proba(&pipeline));
            // The other family's tag meets a state of the wrong shape.
            edit_header(&dir, |h| h[READOUT_AT + 2] = other as u8);
            assert!(load(&dir).is_err());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_stage_tag_is_a_typed_error() {
        let (_, _, dir) = saved("unknown_tag", 34);
        let saved = fs::read(dir.join(MODEL_FILE)).unwrap();
        // Unknown kind, readout and calibration tags are refused by name,
        // and so is a trailing header byte.
        for (at, tag, names) in [
            (12, 9, "artifact kind 9"),
            (12, 2, "artifact kind 2"),
            (READOUT_AT, 7, "readout tag 7"),
            (READOUT_AT + 2, 3, "calibration tag 3"),
            (usize::MAX, 0, "trailing"),
        ] {
            edit_header(&dir, |h| match h.get_mut(at) {
                Some(byte) => *byte = tag,
                None => h.push(tag),
            });
            let err = load(&dir).unwrap_err();
            assert!(matches!(err, CoreError::Format(_)), "{names}: got {err:?}");
            assert!(err.to_string().contains(names), "{names}: {err}");
            fs::write(dir.join(MODEL_FILE), &saved).unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_stage_file_is_a_typed_error() {
        let (pipeline, _, dir) = saved("corrupt_stage", 35);
        let bytes = fs::read(dir.join(MODEL_FILE)).unwrap();
        let frame_at =
            |at: usize| 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let (encoder_at, mask_at) = (frame_at(0), frame_at(0) + frame_at(frame_at(0)));
        // The encoder frame is replaced (with a valid CRC) by NaN and
        // descending boundaries, and by a narrower encoder's: all typed
        // errors, never panics in the binner.
        let mut nan = pipeline.encoder().unwrap().boundaries();
        nan.as_mut_slice()[0] = f64::NAN;
        let mut descending = nan.clone();
        descending.as_mut_slice()[..2].copy_from_slice(&[1.0, 0.0]);
        let narrower = QuantileEncoder::fit_matrix(&Matrix::zeros(4, 28), 4).boundaries();
        for boundaries in [nan, descending, narrower] {
            let mut out = bytes[..encoder_at].to_vec();
            write_matrix(&mut out, &boundaries).unwrap();
            out.extend_from_slice(&bytes[mask_at..]);
            fs::write(dir.join(MODEL_FILE), out).unwrap();
            assert!(matches!(load(&dir), Err(CoreError::Format(_))));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let (_, _, dir) = saved("missing", 2);
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(load(&dir), Err(CoreError::Io(_))));
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load(&dir), Err(CoreError::Format(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_an_error() {
        let (_, _, dir) = saved("corrupt", 3);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"something-else v9").unwrap();
        fs::write(dir.join(MODEL_FILE), &bytes).unwrap();
        assert!(load(&dir).unwrap_err().to_string().contains("bad magic"));
        // A header whose CRC does not match is refused before it is read.
        bytes[4..8].copy_from_slice(&(crc32(b"something-else v9") ^ 1).to_le_bytes());
        fs::write(dir.join(MODEL_FILE), &bytes).unwrap();
        assert!(load(&dir).unwrap_err().to_string().contains("CRC"));
        fs::remove_dir_all(&dir).ok();
    }
}
