//! `score_offline`: a single caller and no server. `Pipeline::
//! predict_proba_into` over the held-out rows in 256-row batches. Set-up
//! also builds the int8 `QuantizedPipeline` and the `CascadeModel` (cheap
//! tier first, ~35 % of rows escalate) and checks their accuracy against
//! f32; the traced pass times them on the same batches.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bcpnn_core::model::Predictor;
use bcpnn_core::uncertainty::margin;
use bcpnn_core::{EvalReport, Pipeline, Workspace};
use bcpnn_lowprec::{QuantPrecision, QuantizedPipeline};
use bcpnn_serve::CascadeModel;
use bcpnn_tensor::Matrix;

use crate::fixture::{fit_cheap, fit_served, higgs_data, HiggsData};
use crate::report::{ensure, Rep, Run, NS_PER_US};
use crate::stages::{bit_equal, stage_layers, staged_predict, subnormal_share, StageBufs};
use crate::stats::median;
use crate::trace::Tracer;

const BATCH: usize = 256;
/// Share of rows the cascade sends on to the full tier.
const ESCALATE_PERCENT: usize = 35;
/// int8 may differ from f32 accuracy by this much, the cascade may lose
/// this much, and the cheap tier must answer at least this share.
const INT8_MAX_DELTA: f64 = 0.010;
const CASCADE_MAX_LOSS: f64 = 0.005;
const MIN_CHEAP_SHARE: f64 = 0.55;

pub fn repetition(run: &Run, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    let setup = Instant::now();
    let data = higgs_data(run.data_seed);
    let served = fit_served(&data.train, run.model_seed);
    let batches: Vec<Matrix<f32>> = (0..data.test.n_samples() / BATCH)
        .map(|b| {
            data.test
                .features
                .select_rows(&(b * BATCH..(b + 1) * BATCH).collect::<Vec<_>>())
        })
        .collect();
    let eval = served
        .evaluate(&data.test.features, &data.test.labels)
        .expect("evaluating the served model succeeds");
    rep.quality(&eval);
    let narrow = NarrowTiers::build(&data, &served, run.model_seed, &eval, &mut rep);

    // Warm-up, and the check that the four staged calls are the one-shot
    // pass: every batch, bit for bit.
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    let mut bufs = StageBufs::new();
    for batch in &batches {
        served
            .predict_proba_into(batch, &mut ws, &mut out)
            .expect("prediction succeeds");
        staged_predict(&served, batch, &mut bufs, |_, _| {});
        rep.check(ensure(bit_equal(&out, &bufs.out), || {
            "staged encode, linear_forward, grouped_softmax, readout differ from predict_proba_into"
                .into()
        }));
    }
    rep.setup_s = setup.elapsed().as_secs_f64();

    let mut ratios = Vec::new();
    let started = Instant::now();
    let mut rows = 0usize;
    'measure: loop {
        for batch in &batches {
            if started.elapsed() >= run.budget {
                break 'measure;
            }
            let sent = Instant::now();
            let result = served.predict_proba_into(black_box(batch), &mut ws, &mut out);
            let done = Instant::now();
            black_box(&out);
            rep.check(result.map_err(|e| e.to_string()));
            rep.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
            rows += batch.rows();
            if tracer.on() {
                let root = tracer.record(None, "core.predict", sent, done);
                let mut stage_sum = 0;
                staged_predict(&served, batch, &mut bufs, |name, ns| {
                    stage_sum += ns;
                    tracer.lay_out(root, name, ns);
                });
                rep.check(ensure(bit_equal(&out, &bufs.out), || {
                    "staged pass differs from the one-shot pass".into()
                }));
                ratios.push(stage_sum as f64 / (done - sent).as_nanos() as f64);
            }
        }
    }
    rep.rows_per_s = rows as f64 / started.elapsed().as_secs_f64();

    if tracer.on() {
        let batch = BATCH as f64;
        stage_layers(&mut rep, tracer, batch);
        rep.layer("core.stage_sum_over_oneshot", median(&ratios));
        rep.layer_from_self_times(tracer, "self.root_ms", "core.predict");
        let encoded = bufs.encoded.as_slice();
        let nonzero = encoded.iter().filter(|&&v| v != 0.0).count();
        rep.layer(
            "data.encoded_nonzero_share",
            nonzero as f64 / encoded.len() as f64,
        );
        rep.layer("core.hidden_subnormal_share", subnormal_share(&bufs.hidden));
        let (n_in, n_units) = served.network().hidden().masked_weights().shape();
        // Computed, not measured: inputs, weights, bias and outputs of one
        // 256-row call, as f32, shared over its rows.
        let bytes = (BATCH * n_in + n_in * n_units + n_units + BATCH * n_units) * 4;
        rep.layer("backend.linear_forward_bytes_per_row", bytes as f64 / batch);
        time_single_row(&served, &batches[0], tracer, &mut rep);
        narrow.time(&batches, run.budget / 2, tracer, &mut rep);
    }
    rep
}

/// `predict_proba_into` at batch 1: the compute inside one `gateway_single`
/// request.
fn time_single_row(served: &Pipeline, batch: &Matrix<f32>, tracer: &mut Tracer, rep: &mut Rep) {
    let mut ws = Workspace::new();
    let mut out = Matrix::zeros(0, 0);
    for r in 0..batch.rows() {
        let row = batch.select_rows(&[r]);
        tracer.time(None, "core.predict_b1", || {
            served
                .predict_proba_into(black_box(&row), &mut ws, &mut out)
                .expect("prediction succeeds");
        });
    }
    rep.layer_from_spans(
        tracer,
        "core.predict_b1_us",
        "core.predict_b1",
        NS_PER_US,
        1.0,
    );
}

/// The int8 twin of the served model and the cheap-tier → served-model
/// cascade, with how their accuracy on the held-out rows compares to f32.
struct NarrowTiers {
    int8: QuantizedPipeline,
    cascade: CascadeModel,
    /// Accuracy minus f32 accuracy, in percentage points.
    int8_delta_pp: f64,
    cascade_delta_pp: f64,
    /// Share of the held-out rows the cheap tier answered.
    cheap_share: f64,
}

impl NarrowTiers {
    /// Build both and check them: a check that fails is a failed operation
    /// of `rep`, traced or not.
    fn build(
        data: &HiggsData,
        served: &Pipeline,
        model_seed: u64,
        f32_eval: &EvalReport,
        rep: &mut Rep,
    ) -> NarrowTiers {
        let quantize = |p: &Pipeline| {
            QuantizedPipeline::quantize(p, QuantPrecision::Int8)
                .expect("int8 quantization succeeds")
        };
        let int8 = quantize(served);
        let cheap = quantize(&fit_cheap(&data.train, model_seed));
        // Escalate the lowest-margin rows of the cheap tier, the threshold
        // taken from its own margins on the held-out rows.
        let cheap_proba = cheap
            .predict_proba(&data.test.features)
            .expect("prediction succeeds");
        let mut margins: Vec<f32> = (0..cheap_proba.rows())
            .map(|r| margin(cheap_proba.row(r)))
            .collect();
        margins.sort_by(f32::total_cmp);
        let threshold = margins[margins.len() * ESCALATE_PERCENT / 100];
        let cascade = CascadeModel::new(
            "benchmark",
            Box::new(cheap),
            Box::new(served.clone()),
            threshold,
        )
        .expect("both tiers take 28 features and give 2 classes");

        let pp = |eval: &EvalReport| (eval.accuracy - f32_eval.accuracy) * 100.0;
        let int8_eval = int8
            .evaluate(&data.test.features, &data.test.labels)
            .expect("evaluation succeeds");
        rep.check(ensure(
            (int8_eval.accuracy - f32_eval.accuracy).abs() <= INT8_MAX_DELTA,
            || {
                format!(
                    "int8 accuracy {:.4} is not within 1.0 pp of f32 {:.4}",
                    int8_eval.accuracy, f32_eval.accuracy
                )
            },
        ));

        let stats = cascade.stats();
        let cascade_eval = cascade
            .evaluate(&data.test.features, &data.test.labels)
            .expect("evaluation succeeds");
        let cheap_share =
            stats.cheap_hits() as f64 / (stats.cheap_hits() + stats.escalations()).max(1) as f64;
        rep.check(ensure(
            cascade_eval.accuracy >= f32_eval.accuracy - CASCADE_MAX_LOSS
                && cheap_share >= MIN_CHEAP_SHARE,
            || {
                format!(
                    "cascade accuracy {:.4} (f32 {:.4}) with {:.0} % answered cheap",
                    cascade_eval.accuracy,
                    f32_eval.accuracy,
                    cheap_share * 100.0
                )
            },
        ));
        NarrowTiers {
            int8_delta_pp: pp(&int8_eval),
            cascade_delta_pp: pp(&cascade_eval),
            cheap_share,
            int8,
            cascade,
        }
    }

    /// Both tiers over the batches, `budget` each, and their layer metrics.
    fn time(&self, batches: &[Matrix<f32>], budget: Duration, tracer: &mut Tracer, rep: &mut Rep) {
        rep.layer("lowprec.int8_accuracy_delta_pp", self.int8_delta_pp);
        rep.layer("serve.cascade_accuracy_delta_pp", self.cascade_delta_pp);
        rep.layer("serve.cascade_cheap_share", self.cheap_share);
        let tiers: [(&dyn Predictor, &'static str, &'static str, &'static str); 2] = [
            (
                &self.int8,
                "lowprec.int8_predict",
                "lowprec.int8_rows_per_s",
                "lowprec.int8_predict_us_per_row",
            ),
            (
                &self.cascade,
                "serve.cascade",
                "serve.cascade_rows_per_s",
                "serve.cascade_us_per_row",
            ),
        ];
        for (model, span, rate, per_row) in tiers {
            let mut ws = Workspace::new();
            let mut out = Matrix::zeros(0, 0);
            let started = Instant::now();
            let mut rows = 0usize;
            while started.elapsed() < budget {
                for batch in batches {
                    let (result, _) = tracer.time(None, span, || {
                        model.predict_proba_into(black_box(batch), &mut ws, &mut out)
                    });
                    rep.check(result.map_err(|e| e.to_string()));
                    rows += batch.rows();
                }
            }
            rep.layer(rate, rows as f64 / started.elapsed().as_secs_f64());
            rep.layer_from_spans(tracer, per_row, span, NS_PER_US, BATCH as f64);
        }
    }
}
