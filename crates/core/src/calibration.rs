//! Post-hoc probability calibration, fitted on a held-out split.
//!
//! A trained network's `predict_proba` rows are often over- or
//! under-confident: the argmax is right but the probabilities are not
//! trustworthy as *uncertainty* (Hou et al., "PCM and APCM Revisited: An
//! Uncertainty Perspective"). A [`Calibration`] is a small, persistable map
//! applied to every probability row after the readout — it never changes
//! the class *ranking*, only how confident the row claims to be, so
//! downstream abstention and cascade-escalation thresholds
//! (`bcpnn_core::uncertainty`) become meaningful.
//!
//! Two classic fits are supported:
//!
//! * [`Calibration::Temperature`] — temperature scaling: `qᵢ ∝ pᵢ^(1/T)`,
//!   `T` chosen to minimise held-out negative log-likelihood. `T > 1`
//!   softens rows, `T < 1` sharpens them; `T = 1` is the identity.
//! * [`Calibration::Isotonic`] — a single shared nondecreasing
//!   piecewise-linear map `g` (pool-adjacent-violators fit on pooled
//!   one-vs-rest `(probability, correctness)` pairs) applied per class,
//!   then renormalised.
//!
//! Both maps are monotone per row by construction — interpolation results
//! are clamped into their segment and every per-element transform is an
//! order-preserving IEEE operation — so calibrated rows never reorder
//! classes (`crates/core/tests/calibration_prop.rs` property-tests this).
//! A fitted calibration rides along in `v4` model directories (one
//! `calibration.mat` state file) and
//! round-trips persistence bit-exactly.

use bcpnn_tensor::Matrix;

use crate::error::{CoreError, CoreResult};

/// Probability floor applied after the isotonic map so a row can always be
/// renormalised (and log-losses downstream stay finite).
const ISOTONIC_FLOOR: f32 = 1e-6;

/// Which calibration family [`Pipeline::fit_calibration`] fits.
///
/// [`Pipeline::fit_calibration`]: crate::Pipeline::fit_calibration
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationMethod {
    /// One-parameter temperature scaling (NLL grid + refine).
    Temperature,
    /// Nondecreasing piecewise-linear map via pool-adjacent-violators.
    Isotonic,
}

/// A fitted, persistable post-hoc calibration map (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum Calibration {
    /// Temperature scaling with `T > 0`: `qᵢ ∝ pᵢ^(1/T)`.
    Temperature(f32),
    /// Shared nondecreasing map applied per class probability.
    Isotonic(IsotonicMap),
}

/// A nondecreasing piecewise-linear map on `[0, 1]`, the fitted state of
/// isotonic calibration. Strictly increasing breakpoints `xs` paired with
/// nondecreasing values `ys`; evaluation clamps outside the fitted range.
#[derive(Debug, Clone, PartialEq)]
pub struct IsotonicMap {
    xs: Vec<f32>,
    ys: Vec<f32>,
}

impl IsotonicMap {
    /// Build a map from breakpoints, validating the monotone invariants:
    /// equal non-empty lengths, finite values, `xs` strictly increasing,
    /// `ys` nondecreasing.
    pub fn new(xs: Vec<f32>, ys: Vec<f32>) -> CoreResult<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(CoreError::InvalidParams(format!(
                "isotonic map needs matching non-empty breakpoints ({} xs, {} ys)",
                xs.len(),
                ys.len()
            )));
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(CoreError::InvalidParams(
                "isotonic map breakpoints must be finite".into(),
            ));
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CoreError::InvalidParams(
                "isotonic map x-breakpoints must be strictly increasing".into(),
            ));
        }
        if ys.windows(2).any(|w| w[0] > w[1]) {
            return Err(CoreError::InvalidParams(
                "isotonic map values must be nondecreasing".into(),
            ));
        }
        Ok(Self { xs, ys })
    }

    /// Breakpoint abscissae (strictly increasing).
    pub fn xs(&self) -> &[f32] {
        &self.xs
    }

    /// Breakpoint values (nondecreasing).
    pub fn ys(&self) -> &[f32] {
        &self.ys
    }

    /// Evaluate the map at `p`. Clamps outside the fitted range; inside a
    /// segment the interpolation result is clamped into `[y₀, y₁]`, which
    /// together with nondecreasing `ys` makes the whole map monotone under
    /// IEEE rounding, not just in exact arithmetic.
    pub fn eval(&self, p: f32) -> f32 {
        let (xs, ys) = (&self.xs, &self.ys);
        if p <= xs[0] {
            return ys[0];
        }
        if p >= *xs.last().expect("validated non-empty") {
            return *ys.last().expect("validated non-empty");
        }
        let i = xs.partition_point(|&x| x < p); // first i with xs[i] >= p; 1..len
        let (x0, x1) = (xs[i - 1], xs[i]);
        let (y0, y1) = (ys[i - 1], ys[i]);
        let t = (p - x0) / (x1 - x0);
        (y0 + t * (y1 - y0)).clamp(y0, y1)
    }
}

impl Calibration {
    /// The stable persistence tag of this calibration kind (manifest value
    /// of the `calibration` key in `v4` model directories).
    pub fn kind(&self) -> &'static str {
        match self {
            Calibration::Temperature(_) => "temperature",
            Calibration::Isotonic(_) => "isotonic",
        }
    }

    /// Validate the invariants a fitted (or loaded) calibration must hold.
    pub fn validate(&self) -> CoreResult<()> {
        match self {
            Calibration::Temperature(t) => {
                if !(t.is_finite() && *t > 0.0) {
                    return Err(CoreError::InvalidParams(format!(
                        "calibration temperature must be finite and positive, got {t}"
                    )));
                }
                Ok(())
            }
            // IsotonicMap::new validated at construction; re-validate so a
            // hand-built value goes through the same checks.
            Calibration::Isotonic(map) => {
                IsotonicMap::new(map.xs.clone(), map.ys.clone()).map(|_| ())
            }
        }
    }

    /// Apply the calibration to every probability row of `proba`, in place
    /// and allocation-free. Rows stay in `[0, 1]`, sum to 1 (up to f32
    /// rounding), and are never reordered.
    pub fn apply_rows(&self, proba: &mut Matrix<f32>) {
        for r in 0..proba.rows() {
            self.apply_row(proba.row_mut(r));
        }
    }

    /// Apply the calibration to one probability row in place.
    pub fn apply_row(&self, row: &mut [f32]) {
        match self {
            Calibration::Temperature(t) => {
                let inv_t = 1.0 / t;
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    // powf is order-preserving for a fixed positive
                    // exponent; non-positive entries stay at zero.
                    *v = if *v > 0.0 { v.powf(inv_t) } else { 0.0 };
                    sum += *v;
                }
                if sum > 0.0 {
                    for v in row.iter_mut() {
                        *v /= sum;
                    }
                }
            }
            Calibration::Isotonic(map) => {
                let mut sum = 0.0f32;
                for v in row.iter_mut() {
                    *v = map.eval(*v).max(ISOTONIC_FLOOR);
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Fit temperature scaling on held-out `(probability row, label)` pairs
    /// by minimising negative log-likelihood over a deterministic
    /// log-spaced grid with local refinement.
    pub fn fit_temperature(proba: &Matrix<f32>, labels: &[usize]) -> CoreResult<Calibration> {
        validate_fit_inputs(proba, labels)?;
        let nll = |t: f64| -> f64 {
            let mut total = 0.0f64;
            for (r, &y) in labels.iter().enumerate() {
                let row = proba.row(r);
                let mut sum = 0.0f64;
                let mut scaled_y = 0.0f64;
                for (c, &p) in row.iter().enumerate() {
                    let p = f64::from(p).max(1e-12);
                    let s = (p.ln() / t).exp();
                    sum += s;
                    if c == y {
                        scaled_y = s;
                    }
                }
                total -= (scaled_y / sum).ln();
            }
            total
        };
        // Coarse log-spaced grid over [0.05, 20]...
        let mut best_t = 1.0f64;
        let mut best = f64::INFINITY;
        let (lo, hi) = (0.05f64.ln(), 20.0f64.ln());
        const GRID: usize = 64;
        for i in 0..=GRID {
            let t = (lo + (hi - lo) * i as f64 / GRID as f64).exp();
            let v = nll(t);
            if v < best {
                best = v;
                best_t = t;
            }
        }
        // ...then golden-section refinement in the bracketing interval.
        let step = (hi - lo) / GRID as f64;
        let (mut a, mut b) = ((best_t.ln() - step).exp(), (best_t.ln() + step).exp());
        const PHI: f64 = 0.618_033_988_749_894_9;
        for _ in 0..48 {
            let c = b - PHI * (b - a);
            let d = a + PHI * (b - a);
            if nll(c) <= nll(d) {
                b = d;
            } else {
                a = c;
            }
        }
        let fitted = Calibration::Temperature((0.5 * (a + b)) as f32);
        fitted.validate()?;
        Ok(fitted)
    }

    /// Fit isotonic calibration on held-out `(probability row, label)`
    /// pairs: pool one-vs-rest `(pᵢ, correctᵢ)` pairs across all classes,
    /// run pool-adjacent-violators, and keep the resulting nondecreasing
    /// piecewise-linear map.
    pub fn fit_isotonic(proba: &Matrix<f32>, labels: &[usize]) -> CoreResult<Calibration> {
        validate_fit_inputs(proba, labels)?;
        // Pooled one-vs-rest pairs, sorted by probability (total order —
        // validated finite — so the fit is deterministic).
        let mut pairs: Vec<(f32, f32)> = Vec::with_capacity(proba.rows() * proba.cols());
        for (r, &y) in labels.iter().enumerate() {
            for (c, &p) in proba.row(r).iter().enumerate() {
                pairs.push((p, f32::from(u8::from(c == y))));
            }
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Pool adjacent violators: merge neighbouring blocks while a left
        // block's mean response exceeds its right neighbour's.
        struct Block {
            x_sum: f64,
            y_sum: f64,
            n: f64,
        }
        let mut blocks: Vec<Block> = Vec::new();
        for (x, y) in pairs {
            blocks.push(Block {
                x_sum: f64::from(x),
                y_sum: f64::from(y),
                n: 1.0,
            });
            while blocks.len() >= 2 {
                let [left, right] = &blocks[blocks.len() - 2..] else {
                    unreachable!()
                };
                if left.y_sum / left.n <= right.y_sum / right.n {
                    break;
                }
                let right = blocks.pop().expect("len checked");
                let left = blocks.last_mut().expect("len checked");
                left.x_sum += right.x_sum;
                left.y_sum += right.y_sum;
                left.n += right.n;
            }
        }

        // Blocks → strictly-increasing breakpoints (x-ties merged).
        let mut xs: Vec<f32> = Vec::with_capacity(blocks.len());
        let mut ys: Vec<f32> = Vec::with_capacity(blocks.len());
        for b in &blocks {
            let x = (b.x_sum / b.n) as f32;
            let y = ((b.y_sum / b.n) as f32).clamp(0.0, 1.0);
            match xs.last() {
                Some(&last_x) if x <= last_x => {
                    let last_y = ys.last_mut().expect("parallel vectors");
                    *last_y = last_y.max(y);
                }
                _ => {
                    xs.push(x);
                    ys.push(y);
                }
            }
        }
        Ok(Calibration::Isotonic(IsotonicMap::new(xs, ys)?))
    }
}

fn validate_fit_inputs(proba: &Matrix<f32>, labels: &[usize]) -> CoreResult<()> {
    if proba.rows() == 0 || proba.cols() == 0 {
        return Err(CoreError::DataMismatch(
            "cannot fit a calibration on an empty probability matrix".into(),
        ));
    }
    if proba.rows() != labels.len() {
        return Err(CoreError::DataMismatch(format!(
            "{} probability rows but {} labels",
            proba.rows(),
            labels.len()
        )));
    }
    if let Some(&bad) = labels.iter().find(|&&y| y >= proba.cols()) {
        return Err(CoreError::DataMismatch(format!(
            "label {bad} out of range for {} classes",
            proba.cols()
        )));
    }
    if proba.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(CoreError::DataMismatch(
            "probability matrix has non-finite entries".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharp_rows() -> (Matrix<f32>, Vec<usize>) {
        // Overconfident rows: predicted 0.9 but right only ~2/3 of the time.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            rows.extend_from_slice(&[0.9, 0.1]);
            labels.push(usize::from(i % 3 == 0)); // wrong every third row
        }
        (Matrix::from_vec(30, 2, rows), labels)
    }

    #[test]
    fn temperature_identity_is_a_no_op() {
        let cal = Calibration::Temperature(1.0);
        let mut m = Matrix::from_vec(1, 3, vec![0.5, 0.3, 0.2]);
        let before = m.clone();
        cal.apply_rows(&mut m);
        for (a, b) in m.as_slice().iter().zip(before.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn high_temperature_softens_and_preserves_ranking() {
        let cal = Calibration::Temperature(4.0);
        let mut m = Matrix::from_vec(1, 3, vec![0.8, 0.15, 0.05]);
        cal.apply_rows(&mut m);
        let row = m.row(0);
        assert!(row[0] < 0.8, "softened: {row:?}");
        assert!(row[0] > row[1] && row[1] > row[2], "ranking kept: {row:?}");
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fitting_overconfident_rows_raises_the_temperature() {
        let (proba, labels) = sharp_rows();
        let Calibration::Temperature(t) = Calibration::fit_temperature(&proba, &labels).unwrap()
        else {
            panic!("wrong calibration kind")
        };
        assert!(t > 1.0, "overconfident rows need softening, got T={t}");
    }

    #[test]
    fn isotonic_fit_is_monotone_and_normalising() {
        let (proba, labels) = sharp_rows();
        let cal = Calibration::fit_isotonic(&proba, &labels).unwrap();
        cal.validate().unwrap();
        let mut m = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.6, 0.4]);
        cal.apply_rows(&mut m);
        for r in 0..2 {
            let row = m.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
            assert!(row.iter().all(|p| (0.0..=1.0).contains(p)));
        }
        // The 0.9-class entry stays the argmax after recalibration.
        assert!(m.row(0)[0] >= m.row(0)[1]);
    }

    #[test]
    fn isotonic_map_evaluation_clamps_and_interpolates() {
        let map = IsotonicMap::new(vec![0.2, 0.8], vec![0.4, 0.6]).unwrap();
        assert_eq!(map.eval(0.0), 0.4);
        assert_eq!(map.eval(1.0), 0.6);
        let mid = map.eval(0.5);
        assert!((mid - 0.5).abs() < 1e-6, "got {mid}");
    }

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert!(Calibration::Temperature(0.0).validate().is_err());
        assert!(Calibration::Temperature(f32::NAN).validate().is_err());
        assert!(IsotonicMap::new(vec![], vec![]).is_err());
        assert!(IsotonicMap::new(vec![0.5, 0.5], vec![0.1, 0.2]).is_err());
        assert!(IsotonicMap::new(vec![0.1, 0.2], vec![0.9, 0.2]).is_err());
        assert!(IsotonicMap::new(vec![0.1, f32::NAN], vec![0.1, 0.2]).is_err());
        let m = Matrix::from_vec(1, 2, vec![0.5, 0.5]);
        assert!(Calibration::fit_temperature(&m, &[7]).is_err());
        assert!(Calibration::fit_isotonic(&m, &[0, 1]).is_err());
        assert!(Calibration::fit_temperature(&Matrix::zeros(0, 2), &[]).is_err());
    }
}
