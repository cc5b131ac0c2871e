//! Kernels shared by the backend implementations.
//!
//! The per-element formulas of the BCPNN learning rule
//! (Ravichandran et al. 2020, eq. 4–8; Podobas et al. 2021 §3): the
//! log-odds weight, the log-probability bias, and the per-connection
//! mutual-information score used by structural plasticity — plus the
//! unit-trace (`pi` / `pj`) column scan of the parallel backend.

use bcpnn_tensor::simd::{F32x8, LANES};
use bcpnn_tensor::Matrix;

/// BCPNN weight for one connection: `w_ij = ln(p_ij / (p_i · p_j))`,
/// with all probabilities floored at `eps` so silent units stay finite.
#[inline(always)]
pub fn bcpnn_weight(pij: f32, pi: f32, pj: f32, eps: f32) -> f32 {
    let pi = pi.max(eps);
    let pj = pj.max(eps);
    let pij = pij.max(eps * eps);
    (pij / (pi * pj)).ln()
}

/// BCPNN bias for one unit: `b_j = gain · ln(p_j)` (floored at `eps`).
#[inline(always)]
pub fn bcpnn_bias(pj: f32, gain: f32, eps: f32) -> f32 {
    gain * pj.max(eps).ln()
}

/// Contribution of one (input `i`, minicolumn `j`) pair to the mutual
/// information between the binary input variable and the hypercolumn's
/// categorical variable.
///
/// With `p_i = P(x_i = 1)`, `p_j = P(mcu = j)` and `p_ij = P(x_i = 1, mcu = j)`
/// estimated by the probability traces, the pair contributes
///
/// ```text
/// p_ij · ln(p_ij / (p_i p_j)) + (p_j - p_ij) · ln((p_j - p_ij) / ((1 - p_i) p_j))
/// ```
///
/// i.e. both the "input active" and "input silent" cells of the joint table.
/// Summing over the hypercolumn's minicolumns gives the information score of
/// the connection, which structural plasticity uses to decide which silent
/// connections deserve to be activated.
#[inline(always)]
pub fn mutual_information_term(pi: f32, pj: f32, pij: f32, eps: f32) -> f32 {
    let pi = pi.max(eps);
    // In f32, `1.0 - eps` rounds back to 1.0 for small eps, so floor the
    // complementary probability explicitly instead of clamping pi above.
    let one_minus_pi = (1.0 - pi).max(eps);
    let pj = pj.max(eps);
    let pij = pij.clamp(eps * eps, pj);
    let p_silent_j = (pj - pij).max(eps * eps);
    let active = pij * (pij / (pi * pj)).ln();
    let silent = p_silent_j * (p_silent_j / (one_minus_pi * pj)).ln();
    active + silent
}

/// Exponential-moving-average update used for every probability trace:
/// `trace = (1 - rate) * trace + rate * observation`.
#[inline(always)]
pub fn trace_update(trace: f32, observation: f32, rate: f32) -> f32 {
    (1.0 - rate) * trace + rate * observation
}

/// `trace[c] ← trace_update(trace[c], col_sum_c(m) · inv_b, rate)` with the
/// batch sum of each column accumulated rows-ascending (the naive order),
/// eight columns per step.
pub(crate) fn column_mean_traces(m: &Matrix<f32>, rate: f32, inv_b: f32, traces: &mut [f32]) {
    let cols = m.cols();
    let mut col = 0;
    while col + LANES <= cols {
        let mut acc = F32x8::zero();
        for b in 0..m.rows() {
            acc += F32x8::load(&m.row(b)[col..col + LANES]);
        }
        let sums = acc.to_array();
        for (p, s) in traces[col..col + LANES].iter_mut().zip(sums) {
            *p = trace_update(*p, s * inv_b, rate);
        }
        col += LANES;
    }
    for (c, p) in traces.iter_mut().enumerate().skip(col) {
        let mut s = 0.0f32;
        for b in 0..m.rows() {
            s += m.get(b, c);
        }
        *p = trace_update(*p, s * inv_b, rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-8;

    #[test]
    fn independent_variables_have_zero_weight() {
        // p_ij = p_i * p_j  =>  w = ln(1) = 0.
        let w = bcpnn_weight(0.06, 0.2, 0.3, EPS);
        assert!(w.abs() < 1e-5);
    }

    #[test]
    fn correlated_variables_have_positive_weight() {
        let w = bcpnn_weight(0.2, 0.2, 0.3, EPS);
        assert!(w > 0.0);
    }

    #[test]
    fn anticorrelated_variables_have_negative_weight() {
        let w = bcpnn_weight(0.01, 0.2, 0.3, EPS);
        assert!(w < 0.0);
    }

    #[test]
    fn weight_is_finite_even_for_zero_traces() {
        let w = bcpnn_weight(0.0, 0.0, 0.0, EPS);
        assert!(w.is_finite());
    }

    #[test]
    fn bias_is_log_probability() {
        let b = bcpnn_bias(0.5, 1.0, EPS);
        assert!((b - 0.5f32.ln()).abs() < 1e-6);
        let scaled = bcpnn_bias(0.5, 2.0, EPS);
        assert!((scaled - 2.0 * 0.5f32.ln()).abs() < 1e-6);
        assert!(bcpnn_bias(0.0, 1.0, EPS).is_finite());
    }

    #[test]
    fn mi_term_is_zero_for_independence() {
        let mi = mutual_information_term(0.4, 0.25, 0.1, EPS);
        assert!(mi.abs() < 1e-5, "independent => no information, got {mi}");
    }

    #[test]
    fn mi_term_is_positive_for_dependence() {
        // Input perfectly predicts the minicolumn: pij == pj < pi.
        let mi = mutual_information_term(0.5, 0.25, 0.25, EPS);
        assert!(mi > 0.01);
        // Dependence in the "never co-active" direction also carries information.
        let mi2 = mutual_information_term(0.5, 0.25, 0.0, EPS);
        assert!(mi2 > 0.01);
    }

    #[test]
    fn mi_term_is_finite_at_extremes() {
        for &(pi, pj, pij) in &[(0.0f32, 0.0f32, 0.0f32), (1.0, 1.0, 1.0), (0.0, 1.0, 0.5)] {
            assert!(mutual_information_term(pi, pj, pij, EPS).is_finite());
        }
    }

    #[test]
    fn trace_update_interpolates() {
        assert_eq!(trace_update(0.0, 1.0, 0.25), 0.25);
        assert_eq!(trace_update(1.0, 1.0, 0.25), 1.0);
        assert_eq!(trace_update(0.5, 0.0, 0.5), 0.25);
    }
}
