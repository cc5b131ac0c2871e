//! The [`Backend`] trait: the set of batched kernels a compute backend must
//! provide to train and evaluate a BCPNN layer.
//!
//! StreamBrain ships NumPy, OpenMP/MPI, CUDA and FPGA backends behind one
//! Python interface; the Rust reproduction keeps the same shape with a
//! [`NaiveBackend`](crate::NaiveBackend) reference implementation and a
//! multi-threaded [`ParallelBackend`](crate::ParallelBackend). All kernels
//! operate on `f32` matrices in row-major layout with the unit axis laid out
//! as `hcu-major` (`column = hcu * n_mcu + mcu`).

use bcpnn_tensor::Matrix;

/// Batched compute kernels for BCPNN layers.
///
/// Shapes (with `B` = batch size, `N` = inputs, `H` = hypercolumns,
/// `M` = minicolumns per hypercolumn, `U = H·M` = total units):
///
/// | buffer | shape | meaning |
/// |---|---|---|
/// | `x` | `B x N` | input batch (binary one-hot blocks for Higgs) |
/// | `weights` | `N x U` | log-odds weights |
/// | `bias` | `U` | log-probability biases |
/// | `activations` | `B x U` | per-HCU softmax outputs |
/// | `pi` | `N` | input probability traces |
/// | `pj` | `U` | unit probability traces |
/// | `pij` | `N x U` | joint probability traces |
/// | `mask` | `H x N` | binary receptive-field mask |
pub trait Backend: Send + Sync {
    /// Human-readable backend name (used in logs and benchmark tables).
    fn name(&self) -> &'static str;

    /// These kernels with the same bits, every one of them on the calling
    /// thread: what a row band of a banded predict runs, so that a band
    /// handed to the pool never re-enters it. `None` (the default) for a
    /// backend whose kernels never leave the calling thread; a predict on
    /// it runs its bands in order on the caller.
    fn serial(&self) -> Option<&dyn Backend> {
        None
    }

    /// Dense forward pass: `out = x · weights + bias` (bias broadcast over
    /// rows). `out` must be pre-allocated as `B x U`; its previous contents
    /// are overwritten, never read.
    fn linear_forward(
        &self,
        x: &Matrix<f32>,
        weights: &Matrix<f32>,
        bias: &[f32],
        out: &mut Matrix<f32>,
    );

    /// [`Backend::linear_forward`] for one-hot rows given by their hot
    /// columns: row `r` of `x` is 1.0 at the `k = hot.len() / B` columns
    /// `hot[r·k..(r+1)·k]` (strictly ascending) and 0.0 everywhere else.
    /// `mask` (`H x N`) is the receptive field `weights` was masked with by
    /// [`Backend::apply_mask`], so a weight row outside HCU `h`'s field holds
    /// only ±0 in `h`'s columns and an implementation may skip it. `out`
    /// must be pre-allocated as `B x U`; its previous contents are
    /// overwritten, never read.
    ///
    /// `to_bits()`-equal to `linear_forward` on the dense rows: with every
    /// input 1.0 the product `x · w` is `w` exactly, the dense kernels
    /// already skip zero inputs, and adding ±0 to an accumulator that never
    /// holds -0 leaves it unchanged.
    fn linear_forward_hot(
        &self,
        hot: &[u32],
        weights: &Matrix<f32>,
        mask: &Matrix<f32>,
        bias: &[f32],
        out: &mut Matrix<f32>,
    );

    /// Apply an independent softmax to every contiguous group of `group`
    /// columns of every row of `m` (minicolumn competition inside each
    /// hypercolumn).
    fn grouped_softmax(&self, m: &mut Matrix<f32>, group: usize);

    /// Update the probability traces from one batch:
    ///
    /// * `pi  ← (1-rate)·pi  + rate · mean_b(x)`
    /// * `pj  ← (1-rate)·pj  + rate · mean_b(act)`
    /// * `pij ← (1-rate)·pij + rate · (xᵀ·act)/B`
    fn update_traces(
        &self,
        x: &Matrix<f32>,
        act: &Matrix<f32>,
        rate: f32,
        pi: &mut [f32],
        pj: &mut [f32],
        pij: &mut Matrix<f32>,
    );

    /// Recompute weights and biases from the traces:
    /// `w_ij = ln(p_ij/(p_i·p_j))`, `b_j = gain·ln(p_j)`, with `eps` floors.
    fn recompute_weights(
        &self,
        pi: &[f32],
        pj: &[f32],
        pij: &Matrix<f32>,
        eps: f32,
        bias_gain: f32,
        weights: &mut Matrix<f32>,
        bias: &mut [f32],
    );

    /// Produce the masked weight matrix actually used in the forward pass:
    /// `out[i, h·M + m] = weights[i, h·M + m] · mask[h, i]`.
    ///
    /// # Panics
    /// Implementations panic if the shapes are inconsistent with `n_mcu`.
    fn apply_mask(
        &self,
        weights: &Matrix<f32>,
        mask: &Matrix<f32>,
        n_mcu: usize,
        out: &mut Matrix<f32>,
    );

    /// Mutual-information score of every (hypercolumn, input) pair:
    /// `out[h, i] = Σ_m MI_term(pi[i], pj[h·M+m], pij[i, h·M+m])`.
    ///
    /// Structural plasticity uses these scores to decide which silent
    /// connections to activate and which active connections to silence.
    fn mutual_information(
        &self,
        pi: &[f32],
        pj: &[f32],
        pij: &Matrix<f32>,
        n_mcu: usize,
        out: &mut Matrix<f32>,
    );
}

/// Validate the shape relationships shared by all backends. Called by the
/// implementations at the top of each kernel so that misuse fails loudly and
/// identically regardless of backend.
pub(crate) fn check_forward_shapes(
    x: &Matrix<f32>,
    weights: &Matrix<f32>,
    bias: &[f32],
    out: &Matrix<f32>,
) {
    assert_eq!(
        x.cols(),
        weights.rows(),
        "forward: x has {} columns but weights has {} rows",
        x.cols(),
        weights.rows()
    );
    assert_eq!(
        weights.cols(),
        bias.len(),
        "forward: weights has {} columns but bias has length {}",
        weights.cols(),
        bias.len()
    );
    assert_eq!(
        (x.rows(), weights.cols()),
        out.shape(),
        "forward: out must be {}x{}, got {:?}",
        x.rows(),
        weights.cols(),
        out.shape()
    );
}

/// Validate the shapes of [`Backend::linear_forward_hot`] and return the
/// number of hot columns per row.
pub(crate) fn check_hot_shapes(
    hot: &[u32],
    weights: &Matrix<f32>,
    mask: &Matrix<f32>,
    bias: &[f32],
    out: &Matrix<f32>,
) -> usize {
    assert_eq!(
        weights.cols(),
        bias.len(),
        "forward: weights has {} columns but bias has length {}",
        weights.cols(),
        bias.len()
    );
    assert_eq!(
        out.cols(),
        weights.cols(),
        "forward: out has {} columns but weights has {}",
        out.cols(),
        weights.cols()
    );
    assert!(
        mask.rows() > 0
            && mask.cols() == weights.rows()
            && weights.cols().is_multiple_of(mask.rows()),
        "forward: mask {:?} does not fit weights {:?}",
        mask.shape(),
        weights.shape()
    );
    if out.rows() == 0 {
        assert!(hot.is_empty(), "forward: hot columns for zero rows");
        return 0;
    }
    assert_eq!(
        hot.len() % out.rows(),
        0,
        "forward: {} hot columns do not split over {} rows",
        hot.len(),
        out.rows()
    );
    hot.len() / out.rows()
}

/// Validate trace-update shapes (see [`check_forward_shapes`]).
pub(crate) fn check_trace_shapes(
    x: &Matrix<f32>,
    act: &Matrix<f32>,
    pi: &[f32],
    pj: &[f32],
    pij: &Matrix<f32>,
) {
    assert_eq!(
        x.rows(),
        act.rows(),
        "traces: x and activations must share the batch dimension"
    );
    assert_eq!(
        x.cols(),
        pi.len(),
        "traces: pi must have one entry per input"
    );
    assert_eq!(
        act.cols(),
        pj.len(),
        "traces: pj must have one entry per unit"
    );
    assert_eq!(
        (x.cols(), act.cols()),
        pij.shape(),
        "traces: pij must be inputs x units"
    );
}

/// Validate mask application / MI shapes (see [`check_forward_shapes`]).
pub(crate) fn check_mask_shapes(
    weights: &Matrix<f32>,
    mask: &Matrix<f32>,
    n_mcu: usize,
    out: &Matrix<f32>,
) {
    assert!(n_mcu > 0, "n_mcu must be positive");
    assert_eq!(
        weights.cols() % n_mcu,
        0,
        "unit count {} is not a multiple of n_mcu {}",
        weights.cols(),
        n_mcu
    );
    let n_hcu = weights.cols() / n_mcu;
    assert_eq!(
        (n_hcu, weights.rows()),
        mask.shape(),
        "mask must be n_hcu x inputs ({} x {}), got {:?}",
        n_hcu,
        weights.rows(),
        mask.shape()
    );
    assert_eq!(
        weights.shape(),
        out.shape(),
        "masked-weight output must match the weight shape"
    );
}
