//! Evaluation metrics: accuracy, and the one-vs-rest macro ROC AUC the
//! paper uses during cross-validation to resist class imbalance (§V-C).

use pml_mlcore::Matrix;

/// Fraction of exact label matches.
///
/// Callers pass equal-length slices (debug builds assert); a missing
/// prediction counts as a miss, never an abort.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    debug_assert_eq!(truth.len(), pred.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

/// Binary ROC AUC from scores (probability of the positive class), computed
/// as the Mann–Whitney U statistic with proper tie handling.
///
/// Callers pass equal-length slices (debug builds assert); otherwise the
/// common prefix is scored.
pub fn roc_auc_binary(truth: &[bool], scores: &[f64]) -> f64 {
    debug_assert_eq!(truth.len(), scores.len(), "length mismatch");
    let n = truth.len().min(scores.len());
    let (truth, scores) = (&truth[..n], &scores[..n]);
    let n_pos = truth.iter().filter(|&&t| t).count();
    let n_neg = truth.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5; // undefined; neutral by convention
    }
    // Rank the scores (average ranks over ties).
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut rank = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0; // 1-based average rank
        for &k in &order[i..=j] {
            rank[k] = avg;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 = truth
        .iter()
        .zip(&rank)
        .filter_map(|(&t, &r)| t.then_some(r))
        .sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos * n_neg) as f64
}

/// Macro-averaged one-vs-rest ROC AUC from a class-probability matrix.
/// Classes absent from `truth` are skipped (their OvR AUC is undefined).
///
/// Callers pass one probability row per sample (debug builds assert);
/// otherwise the common prefix is scored.
pub fn macro_ovr_auc(truth: &[usize], proba: &Matrix) -> f64 {
    debug_assert_eq!(truth.len(), proba.rows(), "one probability row per sample");
    let n = truth.len().min(proba.rows());
    let truth = &truth[..n];
    let n_classes = proba.cols();
    let mut total = 0.0;
    let mut counted = 0usize;
    for c in 0..n_classes {
        let bin: Vec<bool> = truth.iter().map(|&t| t == c).collect();
        if bin.iter().all(|&b| !b) || bin.iter().all(|&b| b) {
            continue;
        }
        let scores: Vec<f64> = (0..n).map(|i| proba.get(i, c)).collect();
        total += roc_auc_binary(&bin, &scores);
        counted += 1;
    }
    if counted == 0 {
        0.5
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 1], &[0, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perfect_ranking_gives_auc_one() {
        let auc = roc_auc_binary(&[false, false, true, true], &[0.1, 0.2, 0.8, 0.9]);
        assert_eq!(auc, 1.0);
    }

    #[test]
    fn inverted_ranking_gives_auc_zero() {
        let auc = roc_auc_binary(&[true, true, false, false], &[0.1, 0.2, 0.8, 0.9]);
        assert_eq!(auc, 0.0);
    }

    #[test]
    fn random_scores_give_auc_half_under_ties() {
        let auc = roc_auc_binary(&[true, false, true, false], &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(auc, 0.5);
    }

    #[test]
    fn single_class_defaults_to_half() {
        assert_eq!(roc_auc_binary(&[true, true], &[0.3, 0.9]), 0.5);
    }

    #[test]
    fn macro_auc_on_perfect_probabilities() {
        let truth = vec![0, 1, 2];
        let proba = Matrix::from_rows([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]]);
        assert_eq!(macro_ovr_auc(&truth, &proba), 1.0);
    }

    #[test]
    fn macro_auc_skips_absent_classes() {
        let truth = vec![0, 0, 1];
        let proba = Matrix::from_rows([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.2, 0.8, 0.0]]);
        // Class 2 never appears; AUC averages over classes 0 and 1 only.
        assert_eq!(macro_ovr_auc(&truth, &proba), 1.0);
    }
}
