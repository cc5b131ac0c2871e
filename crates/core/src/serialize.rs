//! Model persistence.
//!
//! A trained [`Network`] is saved as a directory containing a small
//! key/value manifest plus one text matrix file (see `bcpnn_tensor::io`)
//! per state tensor: the hidden mask, the hidden and readout probability
//! traces, and the SGD head parameters. Weights are *not* stored — they are
//! deterministic functions of the traces and are recomputed on load, which
//! both keeps the files small and guarantees the loaded model is internally
//! consistent.
//!
//! ## Format
//!
//! One format is written and read, `v4`. Its manifest lists the input
//! stages in front of the network, and exactly two lists exist: a bare
//! network ([`save_network`]) writes `stages 0`, and a
//! [`Pipeline`](crate::model::Pipeline) ([`save_pipeline`]) writes
//! `stages 1` / `stage0 quantile` with the fitted quantile encoder in
//! `stage0.txt`. An attached post-hoc [`Calibration`] adds a
//! `calibration <kind>` line (kinds: `temperature`, `isotonic`) plus the
//! fitted state in `calibration.mat`, written **only when a calibration is
//! attached**. Any other stage list, a [`load_pipeline`] of a bare network,
//! and any other header version (`v1`–`v3` were never shipped in a model
//! directory) is a typed [`CoreError::Format`], never a panic.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use bcpnn_backend::BackendKind;
use bcpnn_data::QuantileEncoder;
use bcpnn_tensor::{load_matrix, save_matrix, Matrix};

use crate::calibration::{Calibration, IsotonicMap};
use crate::classifier::BcpnnClassifierParams;
use crate::error::{CoreError, CoreResult};
use crate::mask::ReceptiveFieldMask;
use crate::model::Pipeline;
use crate::network::{Network, NetworkBuilder, ReadoutKind};
use crate::params::{HiddenLayerParams, SgdParams};
use crate::traces::ProbabilityTraces;

const MANIFEST: &str = "manifest.txt";
/// File an attached calibration is stored in.
const CALIBRATION_FILE: &str = "calibration.mat";
const MAGIC: &str = "bcpnn-network";
/// The one version written by [`save_network`] / [`save_pipeline`] and
/// accepted by [`load_network`] / [`load_pipeline`].
const VERSION: &str = "v4";

/// File the fitted quantile encoder of a pipeline is stored in.
const ENCODER_FILE: &str = "stage0.txt";

fn vec_to_matrix(v: &[f32]) -> Matrix<f32> {
    Matrix::from_vec(1, v.len(), v.to_vec())
}

fn matrix_to_vec(m: Matrix<f32>) -> Vec<f32> {
    m.into_vec()
}

/// Persist one fitted [`Calibration`] to `path` (the `calibration.mat`
/// state file of `v4` directories). The parameters travel through the
/// bit-exact text matrix format: temperature as a `1x1` matrix, an
/// isotonic map as a `2xK` matrix (row 0 the breakpoints, row 1 the
/// values).
pub fn save_calibration(calibration: &Calibration, path: &Path) -> CoreResult<()> {
    let m = match calibration {
        Calibration::Temperature(t) => Matrix::from_vec(1, 1, vec![*t]),
        Calibration::Isotonic(map) => {
            let mut data = Vec::with_capacity(2 * map.xs().len());
            data.extend_from_slice(map.xs());
            data.extend_from_slice(map.ys());
            Matrix::from_vec(2, map.xs().len(), data)
        }
    };
    save_matrix(&m, path)?;
    Ok(())
}

/// Load one fitted [`Calibration`] from `path`, dispatching on its stable
/// persistence tag ([`Calibration::kind`]). Unknown tags, shape
/// mismatches, and parameter values that violate the calibration
/// invariants are all typed errors. Counterpart of [`save_calibration`].
pub fn load_calibration(kind: &str, path: &Path) -> CoreResult<Calibration> {
    let m: Matrix<f32> = load_matrix(path)?;
    let calibration = match kind {
        "temperature" => {
            if m.shape() != (1, 1) {
                return Err(CoreError::Format(format!(
                    "temperature calibration state must be 1x1, got {:?}",
                    m.shape()
                )));
            }
            Calibration::Temperature(m.as_slice()[0])
        }
        "isotonic" => {
            if m.rows() != 2 {
                return Err(CoreError::Format(format!(
                    "isotonic calibration state must have 2 rows, got {}",
                    m.rows()
                )));
            }
            Calibration::Isotonic(IsotonicMap::new(m.row(0).to_vec(), m.row(1).to_vec())?)
        }
        other => {
            return Err(CoreError::Format(format!(
                "unknown calibration kind {other:?}"
            )))
        }
    };
    calibration.validate()?;
    Ok(calibration)
}

/// Save a network into `dir` (created if missing), without an encoder.
pub fn save_network<P: AsRef<Path>>(network: &Network, dir: P) -> CoreResult<()> {
    save_dir(network, None, None, dir.as_ref())
}

/// Save a [`Pipeline`] — its fitted encoder, any attached calibration,
/// plus the trained network — as a self-describing `v4` model directory.
pub fn save_pipeline<P: AsRef<Path>>(pipeline: &Pipeline, dir: P) -> CoreResult<()> {
    save_dir(
        pipeline.network(),
        pipeline.encoder(),
        pipeline.calibration(),
        dir.as_ref(),
    )
}

fn save_dir(
    network: &Network,
    encoder: Option<&QuantileEncoder>,
    calibration: Option<&Calibration>,
    dir: &Path,
) -> CoreResult<()> {
    let hp = network.hidden().params();
    fs::create_dir_all(dir)?;
    let mut manifest = String::new();
    manifest.push_str(&format!("{MAGIC} {VERSION}\n"));
    manifest.push_str(&format!("n_inputs {}\n", hp.n_inputs));
    manifest.push_str(&format!("n_hcu {}\n", hp.n_hcu));
    manifest.push_str(&format!("n_mcu {}\n", hp.n_mcu));
    manifest.push_str(&format!("receptive_field {}\n", hp.receptive_field));
    manifest.push_str(&format!("trace_rate {}\n", hp.trace_rate));
    manifest.push_str(&format!("eps {}\n", hp.eps));
    manifest.push_str(&format!("bias_gain {}\n", hp.bias_gain));
    manifest.push_str(&format!("support_noise {}\n", hp.support_noise));
    manifest.push_str(&format!("plasticity_swaps {}\n", hp.plasticity_swaps));
    manifest.push_str(&format!("plasticity_interval {}\n", hp.plasticity_interval));
    manifest.push_str(&format!("n_classes {}\n", network.n_classes()));
    manifest.push_str(&format!("readout {}\n", network.readout_kind().name()));
    match encoder {
        Some(encoder) => {
            manifest.push_str("stages 1\nstage0 quantile\n");
            encoder.save(dir.join(ENCODER_FILE))?;
        }
        None => manifest.push_str("stages 0\n"),
    }
    // The calibration key (and its state file) exists only when a
    // calibration is attached.
    if let Some(cal) = calibration {
        cal.validate()?;
        manifest.push_str(&format!("calibration {}\n", cal.kind()));
        save_calibration(cal, &dir.join(CALIBRATION_FILE))?;
    }
    fs::write(dir.join(MANIFEST), manifest)?;

    save_matrix(
        network.hidden().mask().as_matrix(),
        dir.join("hidden_mask.mat"),
    )?;
    let ht = network.hidden().traces();
    save_matrix(&vec_to_matrix(&ht.pi), dir.join("hidden_pi.mat"))?;
    save_matrix(&vec_to_matrix(&ht.pj), dir.join("hidden_pj.mat"))?;
    save_matrix(&ht.pij, dir.join("hidden_pij.mat"))?;

    if let Some(readout) = network.bcpnn_readout() {
        let rt = readout.traces();
        save_matrix(&vec_to_matrix(&rt.pi), dir.join("readout_pi.mat"))?;
        save_matrix(&vec_to_matrix(&rt.pj), dir.join("readout_pj.mat"))?;
        save_matrix(&rt.pij, dir.join("readout_pij.mat"))?;
    }
    if let Some(sgd) = network.sgd_readout() {
        save_matrix(sgd.weights(), dir.join("sgd_weights.mat"))?;
        save_matrix(&vec_to_matrix(sgd.bias()), dir.join("sgd_bias.mat"))?;
    }
    Ok(())
}

fn parse_manifest(path: &Path) -> CoreResult<HashMap<String, String>> {
    let text = fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| CoreError::Format("empty manifest".into()))?;
    let mut hp = header.split_whitespace();
    if (hp.next(), hp.next()) != (Some(MAGIC), Some(VERSION)) {
        return Err(CoreError::Format(format!(
            "bad manifest header: {header:?}"
        )));
    }
    let mut map = HashMap::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(' ')
            .ok_or_else(|| CoreError::Format(format!("bad manifest line: {line:?}")))?;
        map.insert(k.to_string(), v.trim().to_string());
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(map: &HashMap<String, String>, key: &str) -> CoreResult<T> {
    let raw = map
        .get(key)
        .ok_or_else(|| CoreError::Format(format!("manifest missing key {key:?}")))?;
    raw.parse::<T>()
        .map_err(|_| CoreError::Format(format!("manifest key {key:?} has invalid value {raw:?}")))
}

/// Load a network previously written by [`save_network`] or
/// [`save_pipeline`], instantiating it on the given backend (backends are
/// runtime configuration, not model state, so the caller chooses). A
/// pipeline's encoder is read and checked, then dropped; use
/// [`load_pipeline`] to get the full artifact.
pub fn load_network<P: AsRef<Path>>(dir: P, backend: BackendKind) -> CoreResult<Network> {
    Ok(load_dir(dir.as_ref(), backend)?.0)
}

/// Load a full [`Pipeline`] — the fitted encoder, any attached
/// calibration, plus the trained network — from a model directory,
/// instantiating the network on the given backend. A bare network's
/// directory (`stages 0`) is a typed [`CoreError::Format`].
pub fn load_pipeline<P: AsRef<Path>>(dir: P, backend: BackendKind) -> CoreResult<Pipeline> {
    let (network, encoder, calibration) = load_dir(dir.as_ref(), backend)?;
    let encoder = encoder.ok_or_else(|| {
        CoreError::Format("the directory holds a bare network (`stages 0`), not a pipeline".into())
    })?;
    let mut pipeline = Pipeline::new(network, encoder)?;
    pipeline.set_calibration(calibration)?;
    Ok(pipeline)
}

fn load_dir(
    dir: &Path,
    backend: BackendKind,
) -> CoreResult<(Network, Option<QuantileEncoder>, Option<Calibration>)> {
    let manifest = parse_manifest(&dir.join(MANIFEST))?;
    let encoder = match get::<usize>(&manifest, "stages")? {
        0 => None,
        1 => {
            let kind: String = get(&manifest, "stage0")?;
            if kind != "quantile" {
                return Err(CoreError::Format(format!(
                    "unsupported pipeline stage kind {kind:?} (only `quantile` is read)"
                )));
            }
            Some(QuantileEncoder::load(dir.join(ENCODER_FILE))?)
        }
        n => {
            return Err(CoreError::Format(format!(
                "a model directory holds at most one stage, this one lists {n}"
            )))
        }
    };
    // The key is absent when no calibration was attached at save time.
    let calibration = match manifest.get("calibration") {
        Some(kind) => Some(load_calibration(kind, &dir.join(CALIBRATION_FILE))?),
        None => None,
    };
    let hidden = HiddenLayerParams {
        n_inputs: get(&manifest, "n_inputs")?,
        n_hcu: get(&manifest, "n_hcu")?,
        n_mcu: get(&manifest, "n_mcu")?,
        receptive_field: get(&manifest, "receptive_field")?,
        trace_rate: get(&manifest, "trace_rate")?,
        eps: get(&manifest, "eps")?,
        bias_gain: get(&manifest, "bias_gain")?,
        support_noise: get(&manifest, "support_noise")?,
        plasticity_swaps: get(&manifest, "plasticity_swaps")?,
        plasticity_interval: get(&manifest, "plasticity_interval")?,
    };
    if let Some(width) = encoder.as_ref().map(QuantileEncoder::encoded_width) {
        if width != hidden.n_inputs {
            return Err(CoreError::Format(format!(
                "the encoder produces {width} columns but the network expects {} \
                 (the stage files do not belong to this model)",
                hidden.n_inputs
            )));
        }
    }
    let n_classes: usize = get(&manifest, "n_classes")?;
    let readout_name: String = get(&manifest, "readout")?;
    let readout = ReadoutKind::parse(&readout_name)
        .ok_or_else(|| CoreError::Format(format!("unknown readout kind {readout_name:?}")))?;

    let mut network = NetworkBuilder::default()
        .hidden_params(hidden)
        .classes(n_classes)
        .readout(readout)
        .backend(backend)
        .classifier_params(BcpnnClassifierParams::default())
        .sgd_params(SgdParams::default())
        .build()?;

    // Hidden layer state.
    let mask_m: Matrix<f32> = load_matrix(dir.join("hidden_mask.mat"))?;
    let mask = ReceptiveFieldMask::from_matrix(mask_m);
    let traces = ProbabilityTraces {
        pi: matrix_to_vec(load_matrix(dir.join("hidden_pi.mat"))?),
        pj: matrix_to_vec(load_matrix(dir.join("hidden_pj.mat"))?),
        pij: load_matrix(dir.join("hidden_pij.mat"))?,
    };
    network.hidden_mut().restore_state(mask, traces)?;

    // BCPNN readout state.
    if network.bcpnn_readout().is_some() {
        let traces = ProbabilityTraces {
            pi: matrix_to_vec(load_matrix(dir.join("readout_pi.mat"))?),
            pj: matrix_to_vec(load_matrix(dir.join("readout_pj.mat"))?),
            pij: load_matrix(dir.join("readout_pij.mat"))?,
        };
        network
            .bcpnn_readout_mut()
            .expect("readout checked above")
            .restore_traces(traces)?;
    }

    // SGD readout state.
    if network.sgd_readout().is_some() {
        let weights: Matrix<f32> = load_matrix(dir.join("sgd_weights.mat"))?;
        let bias = matrix_to_vec(load_matrix(dir.join("sgd_bias.mat"))?);
        network
            .sgd_readout_mut()
            .expect("readout checked above")
            .set_parameters(weights, bias)?;
    }
    Ok((network, encoder, calibration))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TrainingParams;
    use crate::training::Trainer;
    use bcpnn_tensor::MatrixRng;

    fn toy_data(n: usize, d: usize, seed: u64) -> (Matrix<f32>, Vec<usize>) {
        let mut rng = MatrixRng::seed_from(seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let x = Matrix::from_fn(n, d, |r, c| {
            let cls = labels[r];
            let hot = if cls == 0 { c < d / 2 } else { c >= d / 2 };
            let p = if hot { 0.5 } else { 0.1 };
            f32::from(rng.uniform_scalar::<f64>(0.0, 1.0) < p)
        });
        (x, labels)
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("bcpnn_serialize_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let (x, y) = toy_data(200, 16, 1);
        let mut net = Network::builder()
            .input(16)
            .hidden(2, 4, 0.5)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(2)
            .build()
            .unwrap();
        Trainer::new(TrainingParams {
            unsupervised_epochs: 2,
            supervised_epochs: 3,
            batch_size: 32,
            seed: 3,
            shuffle: true,
        })
        .fit(&mut net, &x, &y)
        .unwrap();

        let dir = temp_dir("roundtrip");
        save_network(&net, &dir).unwrap();
        let loaded = load_network(&dir, BackendKind::Naive).unwrap();

        let (xt, _) = toy_data(50, 16, 4);
        let p_orig = net.predict_proba(&xt).unwrap();
        let p_load = loaded.predict_proba(&xt).unwrap();
        assert!(
            p_orig.max_abs_diff(&p_load) < 1e-4,
            "loaded network must predict identically (diff {})",
            p_orig.max_abs_diff(&p_load)
        );
        // The pure-BCPNN head also survives the roundtrip.
        let b_orig = net.predict_proba_with(ReadoutKind::Bcpnn, &xt).unwrap();
        let b_load = loaded.predict_proba_with(ReadoutKind::Bcpnn, &xt).unwrap();
        assert!(b_orig.max_abs_diff(&b_load) < 1e-4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_on_a_different_backend_gives_the_same_answers() {
        let (x, y) = toy_data(150, 16, 5);
        let mut net = Network::builder()
            .input(16)
            .hidden(1, 5, 0.6)
            .classes(2)
            .readout(ReadoutKind::Bcpnn)
            .backend(BackendKind::Parallel)
            .seed(6)
            .build()
            .unwrap();
        Trainer::new(TrainingParams {
            unsupervised_epochs: 2,
            supervised_epochs: 2,
            batch_size: 25,
            seed: 7,
            shuffle: false,
        })
        .fit(&mut net, &x, &y)
        .unwrap();
        let dir = temp_dir("cross_backend");
        save_network(&net, &dir).unwrap();
        let loaded = load_network(&dir, BackendKind::Naive).unwrap();
        let (xt, _) = toy_data(40, 16, 8);
        let a = net.predict_proba(&xt).unwrap();
        let b = loaded.predict_proba(&xt).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoder_rides_along_as_the_single_stage() {
        use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};

        let data = generate(&SyntheticHiggsConfig {
            n_samples: 400,
            seed: 11,
            ..Default::default()
        });
        let encoder = QuantileEncoder::fit(&data, 10);
        let x = encoder.transform(&data);
        let mut net = Network::builder()
            .input(encoder.encoded_width())
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(12)
            .build()
            .unwrap();
        Trainer::new(TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        })
        .fit(&mut net, &x, &data.labels)
        .unwrap();

        let dir = temp_dir("with_encoder");
        save_pipeline(&Pipeline::new(net.clone(), encoder.clone()).unwrap(), &dir).unwrap();
        let loaded = load_pipeline(&dir, BackendKind::Naive).unwrap();
        let enc = loaded.encoder().unwrap();
        assert_eq!(enc, &encoder);

        // Raw features -> encoded -> predictions match the original model.
        let fresh = generate(&SyntheticHiggsConfig {
            n_samples: 30,
            seed: 13,
            ..Default::default()
        });
        let direct = net.predict_proba(&encoder.transform(&fresh)).unwrap();
        let served = loaded
            .network()
            .predict_proba(&enc.transform_rows(&fresh.features))
            .unwrap();
        assert!(direct.max_abs_diff(&served) < 1e-5);

        // Plain load_network still works and ignores the encoder.
        let plain = load_network(&dir, BackendKind::Naive).unwrap();
        assert!(
            plain
                .predict_proba(&encoder.transform(&fresh))
                .unwrap()
                .max_abs_diff(&direct)
                < 1e-5
        );
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
        let (x, y) = toy_data(120, 16, 20);
        let mut net = Network::builder()
            .input(16)
            .hidden(2, 3, 0.5)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(21)
            .build()
            .unwrap();
        Trainer::new(TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 30,
            ..Default::default()
        })
        .fit(&mut net, &x, &y)
        .unwrap();
        let dir = temp_dir("older_headers");
        save_network(&net, &dir).unwrap();

        let manifest_path = dir.join(MANIFEST);
        let text = fs::read_to_string(&manifest_path).unwrap();
        for version in ["v1", "v2", "v3"] {
            fs::write(
                &manifest_path,
                text.replacen(
                    &format!("{MAGIC} {VERSION}"),
                    &format!("{MAGIC} {version}"),
                    1,
                ),
            )
            .unwrap();
            match load_pipeline(&dir, BackendKind::Naive) {
                Err(CoreError::Format(msg)) => {
                    assert_eq!(msg, format!("bad manifest header: \"{MAGIC} {version}\""))
                }
                other => panic!("{version}: expected a Format error, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_roundtrip_is_bit_exact() {
        let (pipeline, data) = crate::model::tests::tiny_pipeline(31);
        let dir_a = temp_dir("v3_exact_a");
        let dir_b = temp_dir("v3_exact_b");
        save_pipeline(&pipeline, &dir_a).unwrap();
        let loaded = load_pipeline(&dir_a, BackendKind::Naive).unwrap();
        // Re-saving the loaded pipeline reproduces every file byte-exactly.
        save_pipeline(&loaded, &dir_b).unwrap();
        let mut names: Vec<String> = fs::read_dir(&dir_a)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(names.contains(&MANIFEST.to_string()));
        assert!(names.contains(&ENCODER_FILE.to_string()));
        for name in &names {
            let a = fs::read(dir_a.join(name)).unwrap();
            let b = fs::read(dir_b.join(name)).unwrap();
            assert_eq!(a, b, "file {name} must round-trip bit-exactly");
        }
        // And predictions agree exactly.
        use crate::model::Predictor;
        let pa = pipeline.predict_proba(&data.features).unwrap();
        let pb = loaded.predict_proba(&data.features).unwrap();
        assert_eq!(pa, pb);
        fs::remove_dir_all(&dir_a).ok();
        fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn v4_calibration_rides_along_and_roundtrips_bit_exactly() {
        use crate::calibration::CalibrationMethod;
        use crate::model::Predictor;

        let (mut pipeline, data) = crate::model::tests::tiny_pipeline(40);
        let held_out = bcpnn_data::higgs::generate(&bcpnn_data::higgs::SyntheticHiggsConfig {
            n_samples: 120,
            seed: 41,
            ..Default::default()
        });
        pipeline
            .fit_calibration(
                &held_out.features,
                &held_out.labels,
                CalibrationMethod::Temperature,
            )
            .unwrap();
        let dir_a = temp_dir("v4_cal_a");
        let dir_b = temp_dir("v4_cal_b");
        save_pipeline(&pipeline, &dir_a).unwrap();
        let manifest = fs::read_to_string(dir_a.join(MANIFEST)).unwrap();
        assert!(manifest.starts_with("bcpnn-network v4"));
        assert!(manifest.contains("calibration temperature"));

        // Calibration survives the round trip and predictions agree
        // bit-exactly; the re-save reproduces every file byte for byte.
        let loaded = load_pipeline(&dir_a, BackendKind::Naive).unwrap();
        assert_eq!(loaded.calibration(), pipeline.calibration());
        assert_eq!(
            loaded.predict_proba(&data.features).unwrap(),
            pipeline.predict_proba(&data.features).unwrap()
        );
        save_pipeline(&loaded, &dir_b).unwrap();
        for entry in fs::read_dir(&dir_a).unwrap() {
            let name = entry.unwrap().file_name();
            let a = fs::read(dir_a.join(&name)).unwrap();
            let b = fs::read(dir_b.join(&name)).unwrap();
            assert_eq!(a, b, "file {name:?} must round-trip bit-exactly");
        }

        // Isotonic calibrations persist through the same path.
        let mut iso = load_pipeline(&dir_a, BackendKind::Naive).unwrap();
        iso.fit_calibration(
            &held_out.features,
            &held_out.labels,
            CalibrationMethod::Isotonic,
        )
        .unwrap();
        let dir_c = temp_dir("v4_cal_c");
        save_pipeline(&iso, &dir_c).unwrap();
        let iso_loaded = load_pipeline(&dir_c, BackendKind::Naive).unwrap();
        assert_eq!(iso_loaded.calibration(), iso.calibration());
        assert_eq!(
            iso_loaded.predict_proba(&data.features).unwrap(),
            iso.predict_proba(&data.features).unwrap()
        );

        // A corrupted calibration file is a typed error, not a panic.
        fs::write(dir_c.join(CALIBRATION_FILE), "garbage\n").unwrap();
        assert!(load_pipeline(&dir_c, BackendKind::Naive).is_err());
        // An unknown calibration kind is a typed error too.
        let text = fs::read_to_string(dir_a.join(MANIFEST))
            .unwrap()
            .replace("calibration temperature", "calibration platt");
        fs::write(dir_a.join(MANIFEST), text).unwrap();
        let err = load_pipeline(&dir_a, BackendKind::Naive).unwrap_err();
        assert!(matches!(err, CoreError::Format(_)), "got {err:?}");
        assert!(err.to_string().contains("platt"));
        fs::remove_dir_all(&dir_a).ok();
        fs::remove_dir_all(&dir_b).ok();
        fs::remove_dir_all(&dir_c).ok();
    }

    #[test]
    fn unknown_stage_tag_is_a_typed_error() {
        let (pipeline, _) = crate::model::tests::tiny_pipeline(34);
        let dir = temp_dir("unknown_stage");
        save_pipeline(&pipeline, &dir).unwrap();
        let manifest_path = dir.join(MANIFEST);
        let text = fs::read_to_string(&manifest_path).unwrap();
        assert!(text.contains("\nstages 1\nstage0 quantile\n"), "{text}");
        // Every stage list other than the one a pipeline writes is refused:
        // stage kinds that are gone, unknown ones, and longer chains.
        for (from, to) in [
            ("stage0 quantile", "stage0 wavelet"),
            ("stage0 quantile", "stage0 thermometer"),
            ("stage0 quantile", "stage0 standardize"),
            ("stages 1", "stages 2"),
        ] {
            fs::write(&manifest_path, text.replace(from, to)).unwrap();
            let err = load_pipeline(&dir, BackendKind::Naive).unwrap_err();
            assert!(matches!(err, CoreError::Format(_)), "{to}: got {err:?}");
            assert!(err.to_string().contains(&to[7..]), "{to}: {err}");
        }
        // A bare network's directory loads as a network, not a pipeline.
        let net_dir = temp_dir("unknown_stage_network");
        save_network(pipeline.network(), &net_dir).unwrap();
        assert!(load_network(&net_dir, BackendKind::Naive).is_ok());
        let err = load_pipeline(&net_dir, BackendKind::Naive).unwrap_err();
        assert!(matches!(err, CoreError::Format(_)), "got {err:?}");
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&net_dir).ok();
    }

    #[test]
    fn corrupted_stage_file_is_a_typed_error() {
        let (pipeline, _) = crate::model::tests::tiny_pipeline(35);
        let dir = temp_dir("corrupt_stage");
        save_pipeline(&pipeline, &dir).unwrap();
        fs::write(dir.join(ENCODER_FILE), "not an encoder\n").unwrap();
        let err = load_pipeline(&dir, BackendKind::Naive).unwrap_err();
        assert!(matches!(err, CoreError::Format(_)), "got {err:?}");
        // NaN boundaries parse as floats but must surface as a typed error
        // (not a panic deep inside the binner's ordering assertions).
        fs::write(
            dir.join(ENCODER_FILE),
            "bcpnn-quantile-encoder v1 1 3\nNaN 1.0\n",
        )
        .unwrap();
        let err = load_pipeline(&dir, BackendKind::Naive).unwrap_err();
        assert!(matches!(err, CoreError::Format(_)), "got {err:?}");
        // A stage file swapped in from a different model is caught by the
        // width check.
        let (other, _) = crate::model::tests::tiny_pipeline(36);
        let wrong_width = temp_dir("wrong_width_stage");
        save_pipeline(&other, &wrong_width).unwrap();
        let narrower = QuantileEncoder::fit_matrix(&Matrix::zeros(4, 28), 4);
        narrower.save(wrong_width.join(ENCODER_FILE)).unwrap();
        let err = load_pipeline(&wrong_width, BackendKind::Naive).unwrap_err();
        assert!(matches!(err, CoreError::Format(_)), "got {err:?}");
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&wrong_width).ok();
    }

    #[test]
    fn missing_manifest_is_an_error() {
        let dir = temp_dir("missing");
        fs::create_dir_all(&dir).unwrap();
        assert!(load_network(&dir, BackendKind::Naive).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_an_error() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST), "something-else v9\n").unwrap();
        let err = load_network(&dir, BackendKind::Naive).unwrap_err();
        assert!(matches!(err, CoreError::Format(_)));
        fs::remove_dir_all(&dir).ok();
    }
}
