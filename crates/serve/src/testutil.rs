//! Test support: fixtures for this crate's own tests, the
//! [`GatePredictor`] that scheduler tests here and in `tests/` use to put
//! the worker pool in a known state instead of racing it, and the
//! [`NonFinitePredictor`] whose broken outputs the server must not ship.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use bcpnn_core::model::Predictor;
use bcpnn_core::CoreResult;
use bcpnn_tensor::Matrix;

/// A two-class [`Predictor`] whose forward pass blocks until the test
/// opens the gate, and which records what each pass was given.
///
/// Clones share one gate: publish one clone, keep another to drive it.
/// While the gate is closed every worker that picks up a batch stays busy,
/// so what the queue does with later requests is decided by the
/// scheduling policy alone, not by thread timing. Every row is answered
/// `[0.5, 0.5]`; tests tell rows apart by their first feature.
#[derive(Debug, Clone)]
pub struct GatePredictor {
    n_inputs: usize,
    gate: Arc<(Mutex<GateState>, Condvar)>,
}

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    /// First feature of every row of every pass, in the order the passes
    /// entered.
    batches: Vec<Vec<f32>>,
}

impl GatePredictor {
    /// A closed gate in front of a model that takes `n_inputs` features.
    pub fn new(n_inputs: usize) -> Self {
        Self {
            n_inputs,
            gate: Arc::default(),
        }
    }

    fn state(&self) -> MutexGuard<'_, GateState> {
        // A test that panics while holding the lock has already failed.
        self.gate.0.lock().expect("gate lock poisoned")
    }

    /// Block until `n` forward passes have entered (blocked or finished).
    pub fn wait_entered(&self, n: usize) {
        let mut state = self.state();
        while state.batches.len() < n {
            state = self.gate.1.wait(state).expect("gate lock poisoned");
        }
    }

    /// Let every blocked pass, and every later one, through.
    pub fn open(&self) {
        self.state().open = true;
        self.gate.1.notify_all();
    }

    /// The first feature of every row of every pass so far, one `Vec` per
    /// pass, in the order the passes entered.
    pub fn batches(&self) -> Vec<Vec<f32>> {
        self.state().batches.clone()
    }
}

impl Predictor for GatePredictor {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let mut state = self.state();
        state
            .batches
            .push(x.iter_rows().map(|row| row[0]).collect());
        self.gate.1.notify_all();
        while !state.open {
            state = self.gate.1.wait(state).expect("gate lock poisoned");
        }
        Ok(Matrix::filled(x.rows(), 2, 0.5))
    }

    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn n_classes(&self) -> usize {
        2
    }
}

/// A one-input, two-class [`Predictor`] with a broken forward pass: it
/// answers `[0.5, 0.5]` for a row whose feature is positive, but `NaN`s
/// for a negative one and `[inf, -inf]` for zero.
#[derive(Debug, Clone, Copy)]
pub struct NonFinitePredictor;

impl Predictor for NonFinitePredictor {
    fn predict_proba(&self, x: &Matrix<f32>) -> CoreResult<Matrix<f32>> {
        let answer = |feature: f32| {
            if feature < 0.0 {
                [f32::NAN; 2]
            } else if feature == 0.0 {
                [f32::INFINITY, f32::NEG_INFINITY]
            } else {
                [0.5; 2]
            }
        };
        let data = x.iter_rows().flat_map(|row| answer(row[0])).collect();
        Ok(Matrix::from_vec(x.rows(), 2, data))
    }

    fn n_inputs(&self) -> usize {
        1
    }

    fn n_classes(&self) -> usize {
        2
    }
}

/// Train a tiny synthetic-Higgs pipeline (quantile encoder + hybrid
/// network) for scheduler/registry tests.
#[cfg(test)]
pub(crate) fn tiny_pipeline(seed: u64) -> (bcpnn_core::Pipeline, bcpnn_data::Dataset) {
    use bcpnn_backend::BackendKind;
    use bcpnn_core::{Network, Pipeline, ReadoutKind, TrainingParams};
    use bcpnn_data::higgs::{generate, SyntheticHiggsConfig};

    let data = generate(&SyntheticHiggsConfig {
        n_samples: 400,
        seed,
        ..Default::default()
    });
    let (pipeline, _) = Pipeline::fit(
        &data,
        10,
        Network::builder()
            .hidden(2, 4, 0.3)
            .classes(2)
            .readout(ReadoutKind::Hybrid)
            .backend(BackendKind::Naive)
            .seed(seed),
        TrainingParams {
            unsupervised_epochs: 1,
            supervised_epochs: 1,
            batch_size: 50,
            ..Default::default()
        },
    )
    .expect("tiny pipeline trains");
    (pipeline, data)
}
