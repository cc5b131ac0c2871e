//! `train_higgs`: the paper's workload. From the raw `Dataset`,
//! `QuantileEncoder::fit` + `transform`, `NetworkEstimator::fit_report` of
//! the paper model, then `Network::evaluate` on the held-out rows.

use std::time::{Duration, Instant};

use bcpnn_core::{Network, TrainingPhase};
use bcpnn_data::encode::QuantileEncoder;
use bcpnn_tensor::Matrix;

use crate::fixture::{higgs_data, paper_estimator, N_BINS};
use crate::report::{ensure, Rep, Run, NS_PER_MS, NS_PER_S, NS_PER_US};
use crate::stages::subnormal_share;
use crate::stats::{mean, median};
use crate::trace::Tracer;

/// Every fit must reach these on the held-out rows. They tell a trainer
/// that learns from one that does not (chance is 0.5 on both); how good the
/// model is, `test_auc` reports under its own bound. Over 150 fits on 50
/// `--seed`s AUC stayed within 0.720 to 0.752, but accuracy at the fixed 0.5
/// cut fell as low as 0.6165 (data seed 14, model seed 2022, AUC 0.7235)
/// where the hybrid head's bias landed off-centre, so floors near the
/// typical 0.67 / 0.74 fail on some seeds with nothing broken.
const MIN_ACCURACY: f64 = 0.55;
const MIN_AUC: f64 = 0.65;
/// Batch the trainer's kernels are timed on (the fit's batch size).
const KERNEL_BATCH: usize = 128;
const KERNEL_ITERATIONS: usize = 20;
/// Times a repetition generates its data; set-up is their median.
const SETUP_DRAWS: usize = 5;

pub fn repetition(run: &Run, tracer: &mut Tracer) -> Rep {
    let mut rep = Rep::default();
    // Set-up here is generating the data and nothing else: 30 ms, which one
    // sample reads anywhere from 27 to 52. So it is done several times and
    // the median is what set-up cost.
    let timed_data = || {
        let setup = Instant::now();
        let data = higgs_data(run.data_seed);
        (data, setup.elapsed().as_secs_f64())
    };
    let (mut data, first) = timed_data();
    let mut draws = vec![first];
    for _ in 1..SETUP_DRAWS {
        // Freed first, so that a repeat holds no more memory than one draw.
        drop(data);
        let (again, took) = timed_data();
        data = again;
        draws.push(took);
    }
    rep.setup_s = median(&draws);

    let (mut row_epochs, mut fit_wall) = (0usize, Duration::ZERO);
    let (mut accuracies, mut aucs) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut last = None;
    // At least one full fit; more while the budget lasts.
    while last.is_none() || started.elapsed() < run.budget {
        let fit_seed = run.model_seed + accuracies.len() as u64;
        let fit_started = Instant::now();
        let encoder = QuantileEncoder::fit(&data.train, N_BINS);
        let x = encoder.transform(&data.train);
        let (network, report) = paper_estimator(x.cols(), fit_seed)
            .fit_report(&x, &data.train.labels)
            .expect("fitting the paper model on generated data succeeds");
        let fit_ended = Instant::now();
        row_epochs += x.rows() * report.epochs.len();
        fit_wall += fit_ended - fit_started;
        rep.latencies_ms
            .push((fit_ended - fit_started).as_secs_f64() * 1e3);

        if tracer.on() {
            // The encoder calls again, timed alone, and the epochs the
            // program itself reported, laid out under the fit.
            let root = tracer.record(None, "train.fit", fit_started, fit_ended);
            tracer.replay(root, "data.encode_fit", || {
                QuantileEncoder::fit(&data.train, N_BINS)
            });
            tracer.replay(root, "data.encode", || encoder.transform(&data.train));
            for (phase, name) in [
                (TrainingPhase::Unsupervised, "core.fit_unsupervised"),
                (TrainingPhase::Supervised, "core.fit_supervised"),
            ] {
                let spent: Duration = report
                    .epochs
                    .iter()
                    .filter(|e| e.phase == phase)
                    .map(|e| e.duration)
                    .sum();
                tracer.lay_out(root, name, spent.as_nanos() as u64);
            }
        }

        let x_test = encoder.transform(&data.test);
        let (eval, _) = tracer.time(None, "core.evaluate", || {
            network
                .evaluate(&x_test, &data.test.labels)
                .expect("evaluating on the held-out rows succeeds")
        });
        rep.check(ensure(
            eval.accuracy >= MIN_ACCURACY && eval.auc >= MIN_AUC,
            || {
                format!(
                    "fit with model seed {fit_seed}: accuracy {:.4} / AUC {:.4} below {MIN_ACCURACY} / {MIN_AUC}",
                    eval.accuracy, eval.auc
                )
            },
        ));
        println!(
            "  fit: data seed {} model seed {fit_seed}: {:.3} s, accuracy {:.4}, AUC {:.4}",
            run.data_seed,
            (fit_ended - fit_started).as_secs_f64(),
            eval.accuracy,
            eval.auc
        );
        accuracies.push(eval.accuracy);
        aucs.push(eval.auc);
        last = Some((network, x));
    }
    rep.rows_per_s = row_epochs as f64 / fit_wall.as_secs_f64();
    rep.accuracy = mean(&accuracies);
    rep.auc = mean(&aucs);

    if tracer.on() {
        let (network, x) = last.expect("at least one fit ran");
        let subnormal = time_trainer_kernels(&network, &x, tracer);
        rep.layer("core.hidden_subnormal_share", subnormal);
        let rows = x.rows() as f64;
        let batch = KERNEL_BATCH as f64;
        rep.layer_from_spans(
            tracer,
            "data.encode_fit_s",
            "data.encode_fit",
            NS_PER_S,
            1.0,
        );
        rep.layer_from_spans(
            tracer,
            "data.encode_us_per_row",
            "data.encode",
            NS_PER_US,
            rows,
        );
        rep.layer_from_spans(
            tracer,
            "core.fit_unsupervised_s",
            "core.fit_unsupervised",
            NS_PER_S,
            1.0,
        );
        rep.layer_from_spans(
            tracer,
            "core.fit_supervised_s",
            "core.fit_supervised",
            NS_PER_S,
            1.0,
        );
        rep.layer_from_spans(tracer, "core.evaluate_s", "core.evaluate", NS_PER_S, 1.0);
        rep.layer_from_spans(
            tracer,
            "backend.update_traces_us_per_row",
            "backend.update_traces",
            NS_PER_US,
            batch,
        );
        rep.layer_from_spans(
            tracer,
            "backend.recompute_weights_ms",
            "backend.recompute_weights",
            NS_PER_MS,
            1.0,
        );
        rep.layer_from_self_times(tracer, "self.root_ms", "train.fit");
    }
    rep
}

/// `Backend::update_traces` and `Backend::recompute_weights` at the paper
/// model's shapes, on a copy of the trained traces. Returns the share of
/// the batch's hidden activations that are subnormal.
fn time_trainer_kernels(network: &Network, x: &Matrix<f32>, tracer: &mut Tracer) -> f64 {
    let hidden = network.hidden();
    let backend = hidden.backend();
    let params = hidden.params();
    let batch = x.select_rows(&(0..KERNEL_BATCH).collect::<Vec<_>>());
    let activations = hidden
        .forward(&batch)
        .expect("the hidden layer accepts its training rows");
    let subnormal = subnormal_share(&activations);
    let mut traces = hidden.traces().clone();
    let mut weights = hidden.masked_weights().clone();
    let mut bias = hidden.bias().to_vec();
    for _ in 0..KERNEL_ITERATIONS {
        tracer.time(None, "backend.update_traces", || {
            backend.update_traces(
                &batch,
                &activations,
                params.trace_rate,
                &mut traces.pi,
                &mut traces.pj,
                &mut traces.pij,
            );
        });
        tracer.time(None, "backend.recompute_weights", || {
            backend.recompute_weights(
                &traces.pi,
                &traces.pj,
                &traces.pij,
                params.eps,
                params.bias_gain,
                &mut weights,
                &mut bias,
            );
        });
    }
    std::hint::black_box((&weights, &bias));
    subnormal
}
