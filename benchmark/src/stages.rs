//! The forward pass taken apart: the four public calls
//! `Pipeline::predict_proba_into` makes, timed one by one from outside.

use std::time::Instant;

use bcpnn_core::Pipeline;
use bcpnn_tensor::Matrix;

use crate::report::{Rep, NS_PER_US};
use crate::trace::Tracer;

/// Buffers the staged pass writes; `out` holds the probabilities.
pub struct StageBufs {
    pub encoded: Matrix<f32>,
    pub hidden: Matrix<f32>,
    pub out: Matrix<f32>,
}

impl StageBufs {
    pub fn new() -> Self {
        Self {
            encoded: Matrix::zeros(0, 0),
            hidden: Matrix::zeros(0, 0),
            out: Matrix::zeros(0, 0),
        }
    }
}

/// Encode → `linear_forward` → `grouped_softmax` → readout on `x`, calling
/// `on_stage(span name, nanoseconds)` after each. The result must equal
/// the one-shot `predict_proba_into` bit for bit.
pub fn staged_predict(
    pipeline: &Pipeline,
    x: &Matrix<f32>,
    bufs: &mut StageBufs,
    mut on_stage: impl FnMut(&'static str, u64),
) {
    let encoder = pipeline
        .encoder()
        .expect("the benchmark's models have one quantile stage");
    let network = pipeline.network();
    let hidden = network.hidden();
    let readout = network
        .sgd_readout()
        .expect("hybrid networks predict with the SGD head");
    let mut timed = |name, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        on_stage(name, start.elapsed().as_nanos() as u64);
    };
    timed("data.encode", &mut || {
        encoder.transform_rows_into(x, &mut bufs.encoded)
    });
    timed("backend.linear_forward", &mut || {
        bufs.hidden.reset(x.rows(), hidden.n_units());
        hidden.backend().linear_forward(
            &bufs.encoded,
            hidden.masked_weights(),
            hidden.bias(),
            &mut bufs.hidden,
        );
    });
    timed("tensor.grouped_softmax", &mut || {
        hidden
            .backend()
            .grouped_softmax(&mut bufs.hidden, hidden.params().n_mcu);
    });
    timed("core.readout", &mut || {
        readout
            .predict_proba_into(&bufs.hidden, &mut bufs.out)
            .expect("the readout accepts the hidden code it was trained on");
    });
}

/// The per-row layer metrics of the four stages and of the one-shot call
/// (`core.predict` spans), from spans over operations of `rows` rows.
pub fn stage_layers(rep: &mut Rep, tracer: &Tracer, rows: f64) {
    for (metric, span) in [
        ("data.encode_us_per_row", "data.encode"),
        (
            "backend.linear_forward_us_per_row",
            "backend.linear_forward",
        ),
        (
            "tensor.grouped_softmax_us_per_row",
            "tensor.grouped_softmax",
        ),
        ("core.readout_us_per_row", "core.readout"),
        ("core.predict_us_per_row", "core.predict"),
    ] {
        rep.layer_from_spans(tracer, metric, span, NS_PER_US, rows);
    }
}

/// Whether two probability matrices are `to_bits()`-equal.
pub fn bit_equal(a: &Matrix<f32>, b: &Matrix<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Share of the values that are subnormal floats. Arithmetic on them is
/// many times slower than on normal ones, and a sharp hidden softmax over
/// 1000 minicolumns produces them.
pub fn subnormal_share(m: &Matrix<f32>) -> f64 {
    m.as_slice().iter().filter(|v| v.is_subnormal()).count() as f64
        / m.as_slice().len().max(1) as f64
}
