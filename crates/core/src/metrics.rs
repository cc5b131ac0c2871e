//! Evaluation metrics: accuracy, confusion matrix, ROC / AUC, precision,
//! recall, F1 and log-loss.
//!
//! The paper reports test accuracy and Area Under the (ROC) Curve; the AUC
//! here is computed with the rank-statistic (Mann–Whitney U) formulation,
//! which is exact and handles ties by assigning mid-ranks.

use bcpnn_tensor::Matrix;

/// Fraction of predictions equal to the labels.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "accuracy: predictions and labels differ in length"
    );
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

/// Confusion matrix `C[label][prediction]` for `n_classes` classes.
///
/// # Panics
/// Panics on length mismatch or out-of-range entries.
pub fn confusion_matrix(
    predictions: &[usize],
    labels: &[usize],
    n_classes: usize,
) -> Vec<Vec<usize>> {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    let mut cm = vec![vec![0usize; n_classes]; n_classes];
    for (&p, &l) in predictions.iter().zip(labels.iter()) {
        assert!(p < n_classes && l < n_classes, "class index out of range");
        cm[l][p] += 1;
    }
    cm
}

/// Binary-classification counts with class 1 treated as "positive" and
/// every other class as "negative" (one-vs-rest), so a network with more
/// than two classes still gets a report: class 1 against the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryCounts {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl BinaryCounts {
    /// Compute the counts from hard predictions (class 1 against the rest).
    pub fn from_predictions(predictions: &[usize], labels: &[usize]) -> Self {
        assert_eq!(predictions.len(), labels.len(), "length mismatch");
        let mut c = Self {
            tp: 0,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        for (&p, &l) in predictions.iter().zip(labels.iter()) {
            match (l == 1, p == 1) {
                (true, true) => c.tp += 1,
                (false, true) => c.fp += 1,
                (false, false) => c.tn += 1,
                (true, false) => c.fn_ += 1,
            }
        }
        c
    }

    /// Precision `tp / (tp + fp)` (0 when undefined).
    pub fn precision(&self) -> f64 {
        let d = self.tp + self.fp;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// Recall (true-positive rate) `tp / (tp + fn)` (0 when undefined).
    pub fn recall(&self) -> f64 {
        let d = self.tp + self.fn_;
        if d == 0 {
            0.0
        } else {
            self.tp as f64 / d as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall; 0 when undefined).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Area under the ROC curve for binary labels (1 = positive) and real-valued
/// scores (higher = more positive), computed via the Mann–Whitney U
/// statistic with mid-rank tie handling. Returns 0.5 when one class is
/// absent.
pub fn auc(scores: &[f64], labels: &[usize]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "auc: length mismatch");
    let n_pos = labels.iter().filter(|&&l| l == 1).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    // Rank the scores (average rank for ties).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("NaN score"));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0usize;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        // Positions i..=j share the same score; assign the average 1-based rank.
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = ranks
        .iter()
        .zip(labels.iter())
        .filter(|(_, &l)| l == 1)
        .map(|(r, _)| *r)
        .sum();
    let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// ROC curve points `(false-positive rate, true-positive rate)` swept over
/// every distinct score threshold, ordered by increasing FPR. Includes the
/// trivial (0,0) and (1,1) endpoints.
pub fn roc_curve(scores: &[f64], labels: &[usize]) -> Vec<(f64, f64)> {
    assert_eq!(scores.len(), labels.len(), "roc: length mismatch");
    let n_pos = labels.iter().filter(|&&l| l == 1).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return vec![(0.0, 0.0), (1.0, 1.0)];
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    // Descending scores: progressively lower the threshold.
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("NaN score"));
    let mut pts = vec![(0.0, 0.0)];
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut k = 0usize;
    while k < order.len() {
        let threshold = scores[order[k]];
        while k < order.len() && scores[order[k]] == threshold {
            if labels[order[k]] == 1 {
                tp += 1;
            } else {
                fp += 1;
            }
            k += 1;
        }
        pts.push((fp as f64 / n_neg as f64, tp as f64 / n_pos as f64));
    }
    pts
}

/// Trapezoidal area under an ROC curve produced by [`roc_curve`]; agrees
/// with [`auc`] up to floating-point error.
pub fn auc_from_curve(curve: &[(f64, f64)]) -> f64 {
    let mut area = 0.0;
    for w in curve.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        area += (x1 - x0) * (y0 + y1) / 2.0;
    }
    area
}

/// Mean cross-entropy (log loss) of probability predictions against labels.
///
/// # Panics
/// Panics on shape mismatch or out-of-range labels.
pub fn log_loss(proba: &Matrix<f32>, labels: &[usize]) -> f64 {
    assert_eq!(proba.rows(), labels.len(), "log_loss: length mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for (r, &l) in labels.iter().enumerate() {
        assert!(l < proba.cols(), "label {l} out of range");
        total -= (proba.get(r, l) as f64).max(1e-15).ln();
    }
    total / labels.len() as f64
}

/// Summary of a binary-classification evaluation: the numbers the paper
/// reports per configuration. With more than two classes, accuracy and
/// log-loss still cover every class, while AUC, precision, recall and F1
/// score class 1 against the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Classification accuracy in [0, 1].
    pub accuracy: f64,
    /// Area under the ROC curve in [0, 1].
    pub auc: f64,
    /// Mean cross-entropy of the probability predictions.
    pub log_loss: f64,
    /// Precision of the positive (signal) class.
    pub precision: f64,
    /// Recall of the positive (signal) class.
    pub recall: f64,
    /// F1 of the positive class.
    pub f1: f64,
}

impl EvalReport {
    /// Build the report from class probabilities (`batch x n_classes`, class
    /// 1 = signal) and integer labels.
    pub fn from_probabilities(proba: &Matrix<f32>, labels: &[usize]) -> Self {
        assert_eq!(proba.rows(), labels.len(), "evaluation length mismatch");
        let predictions = bcpnn_tensor::reduce::row_argmax(proba);
        let scores: Vec<f64> = (0..proba.rows()).map(|r| proba.get(r, 1) as f64).collect();
        let counts = BinaryCounts::from_predictions(&predictions, labels);
        Self {
            accuracy: accuracy(&predictions, labels),
            auc: auc(&scores, labels),
            log_loss: log_loss(proba, labels),
            precision: counts.precision(),
            recall: counts.recall(),
            f1: counts.f1(),
        }
    }
}

impl std::fmt::Display for EvalReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "accuracy {:.2}% | AUC {:.3} | logloss {:.3} | P {:.3} R {:.3} F1 {:.3}",
            self.accuracy * 100.0,
            self.auc,
            self.log_loss,
            self.precision,
            self.recall,
            self.f1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_matrix_counts() {
        let cm = confusion_matrix(&[0, 1, 1, 0, 1], &[0, 1, 0, 0, 1], 2);
        assert_eq!(cm[0][0], 2);
        assert_eq!(cm[0][1], 1);
        assert_eq!(cm[1][1], 2);
        assert_eq!(cm[1][0], 0);
    }

    #[test]
    fn binary_counts_and_f1() {
        let c = BinaryCounts::from_predictions(&[1, 1, 0, 0, 1], &[1, 0, 0, 1, 1]);
        assert_eq!(c.tp, 2);
        assert_eq!(c.fp, 1);
        assert_eq!(c.tn, 1);
        assert_eq!(c.fn_, 1);
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn more_than_two_classes_count_class_one_against_the_rest() {
        let c = BinaryCounts::from_predictions(&[1, 2, 0, 1, 2, 1], &[1, 2, 1, 0, 0, 2]);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (1, 2, 2, 1));
        // A 3-class report: accuracy over all classes, the rest one-vs-rest.
        let proba = Matrix::from_vec(
            4,
            3,
            vec![
                0.7, 0.2, 0.1, // -> 0
                0.1, 0.8, 0.1, // -> 1
                0.1, 0.1, 0.8, // -> 2
                0.2, 0.6, 0.2, // -> 1
            ],
        );
        let r = EvalReport::from_probabilities(&proba, &[0, 1, 2, 2]);
        assert_eq!(r.accuracy, 0.75);
        assert_eq!((r.precision, r.recall), (0.5, 1.0));
        assert!(r.auc > 0.5 && r.log_loss.is_finite());
    }

    #[test]
    fn perfect_and_random_auc() {
        let labels = vec![0, 0, 1, 1];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 1.0);
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 0.0);
        // Constant scores: every pair is a tie => 0.5.
        assert!((auc(&[0.5, 0.5, 0.5, 0.5], &labels) - 0.5).abs() < 1e-12);
        // Degenerate label sets fall back to 0.5.
        assert_eq!(auc(&[0.1, 0.9], &[1, 1]), 0.5);
    }

    #[test]
    fn auc_handles_partial_overlap() {
        let scores = vec![0.1, 0.4, 0.35, 0.8];
        let labels = vec![0, 0, 1, 1];
        // Hand-computed: pairs (pos, neg): (0.35 vs 0.1)=1, (0.35 vs 0.4)=0,
        // (0.8 vs 0.1)=1, (0.8 vs 0.4)=1 → 3/4.
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn roc_curve_matches_rank_auc() {
        let scores = vec![0.2, 0.9, 0.4, 0.7, 0.55, 0.3, 0.8, 0.15];
        let labels = vec![0, 1, 0, 1, 1, 0, 1, 0];
        let curve = roc_curve(&scores, &labels);
        assert_eq!(curve.first(), Some(&(0.0, 0.0)));
        assert_eq!(curve.last(), Some(&(1.0, 1.0)));
        let a1 = auc(&scores, &labels);
        let a2 = auc_from_curve(&curve);
        assert!((a1 - a2).abs() < 1e-12, "{a1} vs {a2}");
    }

    #[test]
    fn log_loss_prefers_confident_correct_predictions() {
        let good = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.1, 0.9]);
        let bad = Matrix::from_vec(2, 2, vec![0.4, 0.6, 0.6, 0.4]);
        let labels = vec![0, 1];
        assert!(log_loss(&good, &labels) < log_loss(&bad, &labels));
    }

    #[test]
    fn eval_report_from_probabilities() {
        let proba = Matrix::from_vec(4, 2, vec![0.8, 0.2, 0.3, 0.7, 0.6, 0.4, 0.1, 0.9]);
        let labels = vec![0, 1, 0, 1];
        let r = EvalReport::from_probabilities(&proba, &labels);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.auc, 1.0);
        assert!(r.f1 > 0.99);
        let s = r.to_string();
        assert!(s.contains("accuracy"));
    }
}
