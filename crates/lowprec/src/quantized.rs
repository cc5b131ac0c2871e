//! A servable quantized inference artifact: [`QuantizedPipeline`].
//!
//! Take a fitted [`Pipeline`], quantize the tensors its predictions
//! actually depend on — the hidden layer's masked weights and the readout
//! head it predicts with — and produce a standalone [`Predictor`] that
//!
//! * stores weights as int8 codes with a per-output-column scale
//!   ([`QuantPrecision::Int8`], 4x smaller),
//! * implements the zero-allocation [`Predictor::predict_proba_into`]
//!   discipline through [`Workspace::inference_scratch`],
//! * persists as an artifact directory ([`QuantizedPipeline::save`] /
//!   [`QuantizedPipeline::load`]) whose one `quantile` stage is the
//!   pipeline's encoder file, byte for byte, and
//! * publishes to the serving `ModelRegistry` like any other model
//!   (`examples/serving.rs` does exactly that).
//!
//! Accumulation stays `f32` throughout — "wide accumulator, narrow
//! storage", the datapath every int8 inference engine models — so the only
//! precision lost is in the stored weights. `tests/quantized_accuracy.rs`
//! gates the resulting held-out accuracy delta in CI.

use std::fs;
use std::path::Path;

use bcpnn_core::model::Predictor;
use bcpnn_core::{CoreError, CoreResult, Pipeline, ReadoutKind, Workspace};
use bcpnn_data::QuantileEncoder;
use bcpnn_tensor::simd::dispatch;
use bcpnn_tensor::{load_matrix, save_matrix, Matrix};

const MANIFEST: &str = "manifest.txt";
const MAGIC: &str = "bcpnn-quantized";
const VERSION: &str = "v1";
/// File the fitted quantile encoder is stored in.
const ENCODER_FILE: &str = "stage0.txt";

/// Storage precision of a [`QuantizedPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantPrecision {
    /// Symmetric int8 codes with one `f32` scale per output column.
    Int8,
}

impl QuantPrecision {
    /// Stable persistence / display tag.
    pub fn name(self) -> &'static str {
        match self {
            Self::Int8 => "int8",
        }
    }

    /// Parse a persistence tag.
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "int8" | "i8" => Some(Self::Int8),
            _ => None,
        }
    }
}

impl std::fmt::Display for QuantPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One quantized linear layer: int8 weights, `f32` bias and accumulator.
#[derive(Debug, Clone)]
struct QuantizedLinear {
    n_in: usize,
    n_out: usize,
    /// Row-major `n_in x n_out` int8 codes; `w_ij ≈ codes[i][j] · scales[j]`.
    codes: Vec<i8>,
    /// One scale per output column.
    scales: Vec<f32>,
    bias: Vec<f32>,
}

impl QuantizedLinear {
    /// Quantize a dense `f32` layer (`n_in x n_out` weights + bias).
    fn quantize(weights: &Matrix<f32>, bias: &[f32]) -> Self {
        let (n_in, n_out) = weights.shape();
        // Symmetric per-output-column scaling: each column's dynamic
        // range is set by the unit it feeds, so sharing one scale
        // per column loses far less than one scale per tensor.
        let mut scales = vec![0.0f32; n_out];
        for i in 0..n_in {
            for (j, &w) in weights.row(i).iter().enumerate() {
                scales[j] = scales[j].max(w.abs());
            }
        }
        for s in scales.iter_mut() {
            *s = if *s > 0.0 { *s / 127.0 } else { 1.0 };
        }
        let mut codes = Vec::with_capacity(n_in * n_out);
        for i in 0..n_in {
            for (j, &w) in weights.row(i).iter().enumerate() {
                codes.push((w / scales[j]).round().clamp(-127.0, 127.0) as i8);
            }
        }
        Self {
            n_in,
            n_out,
            codes,
            scales,
            bias: bias.to_vec(),
        }
    }

    /// `out = x · dequant(weights) + bias`, accumulated in `f32`. Batch
    /// major with zero skipping, like the naive backend: the `f32` output
    /// row stays cache-hot across one sample's active inputs, and the
    /// traffic that *is* re-streamed per sample — the weight rows — is
    /// where the narrow codes pay (a 4x smaller footprint than `f32`
    /// weights). `out` is resized to `batch x n_out`.
    fn forward_into(&self, x: &Matrix<f32>, out: &mut Matrix<f32>) {
        assert_eq!(x.cols(), self.n_in, "quantized forward: input width");
        let batch = x.rows();
        out.reset(batch, self.n_out);
        // Resolve the SIMD tier once per call; the decode-and-accumulate
        // kernels are bit-identical across tiers (i8 decoding is exact
        // and multiplies stay separate from adds), so quantized serving
        // output does not depend on which tier the host CPU lands on.
        let tier = dispatch::active_tier();
        for b in 0..batch {
            let x_row = x.row(b);
            let out_row = out.row_mut(b);
            // Accumulate raw code dot-products, then apply the
            // column scales and bias in one pass: one multiply per
            // output element instead of one per weight.
            for (i, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let code_row = &self.codes[i * self.n_out..(i + 1) * self.n_out];
                if xv == 1.0 {
                    // Binary one-hot encodings dominate serving
                    // input: the multiply disappears entirely.
                    dispatch::accumulate_i8_with(tier, out_row, code_row);
                } else {
                    dispatch::axpy_i8_with(tier, out_row, xv, code_row);
                }
            }
            for ((o, &s), &bias) in out_row.iter_mut().zip(&self.scales).zip(&self.bias) {
                *o = s * *o + bias;
            }
        }
    }

    /// The codes as an exactly-roundtrippable `f32` text matrix (int8
    /// values are all exactly representable in `f32`).
    fn codes_matrix(&self) -> Matrix<f32> {
        let data: Vec<f32> = self.codes.iter().map(|&c| f32::from(c)).collect();
        Matrix::from_vec(self.n_in, self.n_out, data)
    }
}

/// A quantized, servable clone of a fitted [`Pipeline`]: the same fitted
/// quantile encoder, the hidden layer and predicting readout head with narrow
/// weights, `f32` accumulation, and the zero-allocation `predict_proba_into`
/// discipline.
///
/// Construct with [`QuantizedPipeline::quantize`], persist with
/// [`QuantizedPipeline::save`] / [`QuantizedPipeline::load`], serve by
/// publishing to a `ModelRegistry` — it is a [`Predictor`] like any other.
#[derive(Debug, Clone)]
pub struct QuantizedPipeline {
    encoder: QuantileEncoder,
    hidden: QuantizedLinear,
    n_mcu: usize,
    readout: QuantizedLinear,
    precision: QuantPrecision,
}

impl QuantizedPipeline {
    /// Quantize a fitted pipeline's inference tensors at the given storage
    /// precision.
    ///
    /// Captures exactly what predictions depend on: the encoder (cloned,
    /// still `f64` boundaries — its state is tiny), the hidden layer's
    /// *masked* weights and bias, and the readout head the network's
    /// [`ReadoutKind`] predicts with (hybrid networks predict with the SGD
    /// head, so that is the head captured).
    pub fn quantize(pipeline: &Pipeline, precision: QuantPrecision) -> CoreResult<Self> {
        let network = pipeline.network();
        let encoder = pipeline.encoder().expect("every pipeline has an encoder");
        let hidden_layer = network.hidden();
        let (ro_weights, ro_bias) = match network.readout_kind() {
            ReadoutKind::Bcpnn => {
                let head = network.bcpnn_readout().ok_or_else(|| {
                    CoreError::InvalidParams("network has no BCPNN readout".into())
                })?;
                (head.weights(), head.bias())
            }
            ReadoutKind::Sgd | ReadoutKind::Hybrid => {
                let head = network
                    .sgd_readout()
                    .ok_or_else(|| CoreError::InvalidParams("network has no SGD readout".into()))?;
                (head.weights(), head.bias())
            }
        };
        Ok(Self {
            encoder: encoder.clone(),
            hidden: QuantizedLinear::quantize(hidden_layer.masked_weights(), hidden_layer.bias()),
            n_mcu: hidden_layer.params().n_mcu,
            readout: QuantizedLinear::quantize(ro_weights, ro_bias),
            precision,
        })
    }

    /// The storage precision.
    pub fn precision(&self) -> QuantPrecision {
        self.precision
    }

    /// The fitted quantile encoder in front of the quantized layers.
    pub fn encoder(&self) -> &QuantileEncoder {
        &self.encoder
    }

    /// The quantized hidden-layer forward alone: `out = encoded ·
    /// dequant(W_hidden) + bias`, resized to `batch x n_units`, `f32`
    /// accumulation, no softmax. This is the narrow-weight kernel the
    /// artifact exists for — exposed so benchmarks and numerics analyses
    /// can measure it against the same `f32` tensors
    /// (`network.hidden().masked_weights()`) without the
    /// softmax/readout cost that is identical across precisions.
    pub fn hidden_forward_into(&self, encoded: &Matrix<f32>, out: &mut Matrix<f32>) {
        self.hidden.forward_into(encoded, out);
    }

    /// Bytes of quantized weight storage (codes only), versus what the same
    /// tensors occupy in `f32` — the compression headline.
    pub fn weight_bytes(&self) -> (usize, usize) {
        let elems = self.hidden.n_in * self.hidden.n_out + self.readout.n_in * self.readout.n_out;
        (elems, elems * 4)
    }

    /// Class probabilities for a batch of raw feature rows, written into
    /// `out` with all scratch drawn from `ws` — allocation-free once the
    /// workspace has seen the batch shape.
    pub fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        if x.cols() != self.n_inputs() {
            return Err(CoreError::DataMismatch(format!(
                "quantized pipeline expects {} columns, rows have {}",
                self.n_inputs(),
                x.cols()
            )));
        }
        let (encoded, hidden) = ws.inference_scratch();
        self.encoder.transform_rows_into(x, encoded);
        self.hidden.forward_into(encoded, hidden);
        grouped_softmax_rows(hidden, self.n_mcu);
        self.readout.forward_into(hidden, out);
        grouped_softmax_rows(out, out.cols().max(1));
        Ok(())
    }

    /// Save as a self-describing quantized artifact directory: a manifest,
    /// the code/scale/bias tensors as text matrices, and the fitted encoder
    /// as the one `quantile` stage, in the same file format as `v4` model
    /// directories.
    pub fn save<P: AsRef<Path>>(&self, dir: P) -> CoreResult<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut manifest = String::new();
        manifest.push_str(&format!("{MAGIC} {VERSION}\n"));
        manifest.push_str(&format!("precision {}\n", self.precision.name()));
        manifest.push_str(&format!("n_mcu {}\n", self.n_mcu));
        manifest.push_str(&format!("input_width {}\n", self.n_inputs()));
        manifest.push_str("stages 1\nstage0 quantile\n");
        fs::write(dir.join(MANIFEST), manifest)?;
        for (name, layer) in [("hidden", &self.hidden), ("readout", &self.readout)] {
            save_matrix(&layer.codes_matrix(), dir.join(format!("{name}_codes.txt")))?;
            save_matrix(
                &Matrix::from_vec(1, layer.bias.len(), layer.bias.clone()),
                dir.join(format!("{name}_bias.txt")),
            )?;
            save_matrix(
                &Matrix::from_vec(1, layer.scales.len(), layer.scales.clone()),
                dir.join(format!("{name}_scales.txt")),
            )?;
        }
        self.encoder.save(dir.join(ENCODER_FILE))?;
        Ok(())
    }

    /// Load an artifact saved by [`QuantizedPipeline::save`]. The roundtrip
    /// is exact: codes, scales and biases reload bit-for-bit (small
    /// integers and `f32`s survive the text format losslessly), so a loaded
    /// artifact predicts identically to the one saved.
    pub fn load<P: AsRef<Path>>(dir: P) -> CoreResult<Self> {
        let dir = dir.as_ref();
        let manifest = fs::read_to_string(dir.join(MANIFEST))?;
        let mut lines = manifest.lines();
        let header = lines
            .next()
            .ok_or_else(|| CoreError::Format("empty quantized manifest".into()))?;
        if header.trim() != format!("{MAGIC} {VERSION}") {
            return Err(CoreError::Format(format!(
                "bad quantized manifest header: {header:?}"
            )));
        }
        let mut kv = std::collections::HashMap::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| CoreError::Format(format!("bad manifest line: {line:?}")))?;
            kv.insert(k.to_string(), v.to_string());
        }
        let get = |key: &str| -> CoreResult<&String> {
            kv.get(key)
                .ok_or_else(|| CoreError::Format(format!("manifest missing key {key:?}")))
        };
        let precision = QuantPrecision::parse(get("precision")?)
            .ok_or_else(|| CoreError::Format(format!("unknown precision {:?}", kv["precision"])))?;
        let n_mcu: usize = get("n_mcu")?
            .parse()
            .map_err(|_| CoreError::Format("bad n_mcu".into()))?;
        let input_width: usize = get("input_width")?
            .parse()
            .map_err(|_| CoreError::Format("bad input_width".into()))?;
        if (get("stages")?.as_str(), get("stage0")?.as_str()) != ("1", "quantile") {
            return Err(CoreError::Format(format!(
                "a quantized artifact holds one quantile stage, not stages {:?} / stage0 {:?}",
                kv["stages"], kv["stage0"]
            )));
        }
        let encoder = QuantileEncoder::load(dir.join(ENCODER_FILE))?;
        if encoder.n_features() != input_width {
            return Err(CoreError::Format(format!(
                "the encoder reads {} features but the manifest says {input_width}",
                encoder.n_features()
            )));
        }
        let load_layer = |name: &str| -> CoreResult<QuantizedLinear> {
            let codes_f32 = load_matrix::<f32, _>(dir.join(format!("{name}_codes.txt")))?;
            let bias = load_matrix::<f32, _>(dir.join(format!("{name}_bias.txt")))?.into_vec();
            let (n_in, n_out) = codes_f32.shape();
            if bias.len() != n_out {
                return Err(CoreError::Format(format!(
                    "{name}: bias length {} does not match {n_out} outputs",
                    bias.len()
                )));
            }
            let scales = load_matrix::<f32, _>(dir.join(format!("{name}_scales.txt")))?.into_vec();
            if scales.len() != n_out {
                return Err(CoreError::Format(format!(
                    "{name}: scale length {} does not match {n_out} outputs",
                    scales.len()
                )));
            }
            let codes = codes_f32
                .as_slice()
                .iter()
                .map(|&v| {
                    if v.round() == v && (-127.0..=127.0).contains(&v) {
                        Ok(v as i8)
                    } else {
                        Err(CoreError::Format(format!(
                            "{name}: {v} is not an int8 code"
                        )))
                    }
                })
                .collect::<CoreResult<Vec<i8>>>()?;
            Ok(QuantizedLinear {
                n_in,
                n_out,
                codes,
                scales,
                bias,
            })
        };
        let hidden = load_layer("hidden")?;
        let readout = load_layer("readout")?;
        if encoder.encoded_width() != hidden.n_in {
            return Err(CoreError::Format(format!(
                "the encoder produces {} columns but hidden expects {}",
                encoder.encoded_width(),
                hidden.n_in
            )));
        }
        if hidden.n_out != readout.n_in {
            return Err(CoreError::Format(format!(
                "hidden produces {} units but readout expects {}",
                hidden.n_out, readout.n_in
            )));
        }
        Ok(Self {
            encoder,
            hidden,
            n_mcu,
            readout,
            precision,
        })
    }
}

impl Predictor for QuantizedPipeline {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(0, 0);
        QuantizedPipeline::predict_proba_into(self, x, &mut ws, &mut out)?;
        Ok(out)
    }

    fn predict_proba_into(
        &self,
        x: &Matrix<f32>,
        ws: &mut Workspace,
        out: &mut Matrix<f32>,
    ) -> CoreResult<()> {
        QuantizedPipeline::predict_proba_into(self, x, ws, out)
    }

    fn predict(&self, x: &Matrix<f32>) -> CoreResult<Vec<usize>> {
        let proba = self.predict_proba(x)?;
        let mut out = Vec::new();
        dispatch::row_argmax_into(&proba, &mut out);
        Ok(out)
    }

    fn n_inputs(&self) -> usize {
        self.encoder.n_features()
    }

    fn n_classes(&self) -> usize {
        self.readout.n_out
    }
}

/// Sequential softmax over every contiguous `group`-column segment of every
/// row — the hidden HCU competition and (with `group == cols`) the final
/// class softmax. Kept single-threaded so the quantized predictor's cost is
/// a clean per-core number; the per-segment kernel is the shared SIMD
/// dispatch softmax (vectorized `exp_approx` on the lane/avx2 tiers).
fn grouped_softmax_rows(m: &mut Matrix<f32>, group: usize) {
    if m.cols() == 0 {
        return;
    }
    dispatch::softmax_groups_into(m, group);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcpnn_backend::BackendKind;
    use bcpnn_core::{Network, TrainingParams};
    use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};

    fn fitted_pipeline(seed: u64) -> (Pipeline, bcpnn_data::Dataset) {
        let data = generate(&SyntheticHiggsConfig {
            n_samples: 400,
            seed,
            ..Default::default()
        });
        let (pipeline, _) = Pipeline::fit(
            &data,
            10,
            Network::builder()
                .hidden(2, 6, 0.4)
                .classes(2)
                .readout(bcpnn_core::ReadoutKind::Hybrid)
                .backend(BackendKind::Naive)
                .seed(seed),
            TrainingParams {
                unsupervised_epochs: 1,
                supervised_epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
        )
        .unwrap();
        (pipeline, data)
    }

    #[test]
    fn quantized_predictions_track_f32_closely() {
        let (pipeline, data) = fitted_pipeline(1);
        let f32_proba = pipeline.predict_proba(&data.features).unwrap();
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        assert_eq!(q.n_inputs(), 28);
        assert_eq!(q.n_classes(), 2);
        let q_proba = q.predict_proba(&data.features).unwrap();
        assert_eq!(q_proba.shape(), f32_proba.shape());
        // Rows remain probability distributions.
        for r in 0..q_proba.rows() {
            let s: f32 = q_proba.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
        }
        let drift = q_proba.max_abs_diff(&f32_proba);
        assert!(drift < 0.05, "max probability drift {drift} too large");
    }

    #[test]
    fn predict_proba_into_is_identical_and_allocation_stable() {
        let (pipeline, data) = fitted_pipeline(2);
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        let mut ws = Workspace::new();
        let mut out = Matrix::filled(1, 1, f32::NAN);
        q.predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(out, q.predict_proba(&data.features).unwrap());
        let warmed = ws.allocated_elems();
        q.predict_proba_into(&data.features, &mut ws, &mut out)
            .unwrap();
        assert_eq!(ws.allocated_elems(), warmed, "workspace must stay warm");
        // Wrong width is a typed error.
        assert!(matches!(
            q.predict_proba_into(&Matrix::zeros(2, 3), &mut ws, &mut out),
            Err(CoreError::DataMismatch(_))
        ));
    }

    #[test]
    fn save_load_roundtrip_is_bit_exact() {
        let (pipeline, data) = fitted_pipeline(3);
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        let dir =
            std::env::temp_dir().join(format!("bcpnn_quantized_roundtrip_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        q.save(&dir).unwrap();
        let loaded = QuantizedPipeline::load(&dir).unwrap();
        assert_eq!(loaded.precision(), QuantPrecision::Int8);
        assert_eq!(loaded.encoder(), q.encoder());
        assert_eq!(
            loaded.predict_proba(&data.features).unwrap(),
            q.predict_proba(&data.features).unwrap(),
            "loaded artifact must predict identically"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bf16_directory_is_a_typed_format_error() {
        let (pipeline, _) = fitted_pipeline(6);
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        let dir = std::env::temp_dir().join(format!("bcpnn_quantized_bf16_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        q.save(&dir).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        fs::write(
            dir.join(MANIFEST),
            manifest.replace("precision int8", "precision bf16"),
        )
        .unwrap();
        match QuantizedPipeline::load(&dir) {
            Err(CoreError::Format(msg)) => {
                assert_eq!(msg, "unknown precision \"bf16\"")
            }
            other => panic!("expected a Format error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_other_stage_list_is_a_typed_format_error() {
        let (pipeline, _) = fitted_pipeline(7);
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        let dir =
            std::env::temp_dir().join(format!("bcpnn_quantized_stages_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        q.save(&dir).unwrap();
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert!(
            manifest.ends_with("\nstages 1\nstage0 quantile\n"),
            "{manifest}"
        );
        for (from, to) in [
            ("stage0 quantile", "stage0 thermometer"),
            ("stage0 quantile", "stage0 standardize"),
            ("stages 1", "stages 2"),
            ("stages 1\nstage0 quantile\n", "stages 0\n"),
        ] {
            fs::write(dir.join(MANIFEST), manifest.replace(from, to)).unwrap();
            match QuantizedPipeline::load(&dir) {
                Err(CoreError::Format(_)) => {}
                other => panic!("{to:?}: expected a Format error, got {other:?}"),
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quantize_errors_and_introspection() {
        let (pipeline, _) = fitted_pipeline(4);
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        let (narrow, wide) = q.weight_bytes();
        assert_eq!(wide, narrow * 4, "int8 stores 4x fewer weight bytes");
        assert_eq!(QuantPrecision::parse("i8"), Some(QuantPrecision::Int8));
        assert_eq!(QuantPrecision::parse("bf16"), None);
        // Loading a directory that is not a quantized artifact fails typed.
        let missing = std::env::temp_dir().join("bcpnn_quantized_missing");
        let _ = fs::remove_dir_all(&missing);
        assert!(QuantizedPipeline::load(&missing).is_err());
    }

    #[test]
    fn predict_matches_argmax_of_probabilities() {
        let (pipeline, data) = fitted_pipeline(5);
        let q = QuantizedPipeline::quantize(&pipeline, QuantPrecision::Int8).unwrap();
        let proba = q.predict_proba(&data.features).unwrap();
        assert_eq!(
            q.predict(&data.features).unwrap(),
            bcpnn_tensor::reduce::row_argmax(&proba)
        );
    }
}
