//! Train/test splitting, stratified k-fold cross-validation, and grid
//! search — the paper's "extensive hyperparameter tuning" machinery, with
//! AUC as the CV criterion (§V-C).

use crate::metrics::{accuracy, macro_ovr_auc};
use pml_mlcore::{Classifier, Dataset, MlError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Sub-dataset of the given rows (order preserved).
fn select(data: &Dataset, idx: &[usize]) -> Dataset {
    Dataset {
        x: data.x.select_rows(idx),
        y: idx.iter().map(|&i| data.y[i]).collect(),
        n_classes: data.n_classes,
        feature_names: data.feature_names.clone(),
    }
}

/// Shuffled train/test split: `test_fraction` of rows go to the test set.
pub fn train_test_split(
    data: &Dataset,
    test_fraction: f64,
    seed: u64,
) -> Result<(Dataset, Dataset), MlError> {
    if !(0.0..1.0).contains(&test_fraction) {
        return Err(MlError::InvalidParam {
            param: "test_fraction",
            why: format!("{test_fraction} not in [0, 1)"),
        });
    }
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let n_test = ((data.len() as f64) * test_fraction).round() as usize;
    let (test_idx, train_idx) = idx.split_at(n_test.min(data.len()));
    Ok((select(data, train_idx), select(data, test_idx)))
}

/// Stratified k-fold assignment: `fold[i]` in `0..k`, with each class's
/// samples spread evenly over folds.
pub fn stratified_folds(
    y: &[usize],
    n_classes: usize,
    k: usize,
    seed: u64,
) -> Result<Vec<usize>, MlError> {
    if k < 2 {
        return Err(MlError::InvalidParam {
            param: "k",
            why: "need at least two folds".into(),
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold = vec![0usize; y.len()];
    for c in 0..n_classes {
        let mut members: Vec<usize> = (0..y.len()).filter(|&i| y[i] == c).collect();
        members.shuffle(&mut rng);
        for (pos, &i) in members.iter().enumerate() {
            fold[i] = pos % k;
        }
    }
    Ok(fold)
}

/// What a cross-validation run optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    Accuracy,
    /// Macro one-vs-rest ROC AUC — robust to class imbalance, the paper's
    /// choice during CV.
    MacroAuc,
}

/// Mean k-fold cross-validation score for a model factory, over the folds
/// that have both a training and a validation side (with fewer members
/// than folds some are empty and are skipped).
pub fn cross_val_score<M, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    scoring: Scoring,
    make_model: F,
) -> Result<f64, MlError>
where
    M: Classifier,
    F: Fn() -> M,
{
    let folds = stratified_folds(&data.y, data.n_classes, k, seed)?;
    let mut total = 0.0;
    let mut scored = 0usize;
    for f in 0..k {
        let train_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] != f).collect();
        let val_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] == f).collect();
        if train_idx.is_empty() || val_idx.is_empty() {
            continue;
        }
        let train = select(data, &train_idx);
        let val = select(data, &val_idx);
        let mut model = make_model();
        model.fit(&train.x, &train.y, data.n_classes)?;
        total += match scoring {
            Scoring::Accuracy => accuracy(&val.y, &model.predict(&val.x)),
            Scoring::MacroAuc => macro_ovr_auc(&val.y, &model.predict_proba(&val.x)),
        };
        scored += 1;
    }
    if scored == 0 {
        return Err(MlError::InvalidParam {
            param: "k",
            why: format!("none of the {k} folds has both training and validation rows"),
        });
    }
    Ok(total / scored as f64)
}

/// Exhaustive grid search: evaluates `make_model(params)` for every
/// candidate by k-fold CV and returns (best params, best score).
pub fn grid_search<P, M, F>(
    data: &Dataset,
    candidates: &[P],
    k: usize,
    seed: u64,
    scoring: Scoring,
    make_model: F,
) -> Result<(P, f64), MlError>
where
    P: Clone,
    M: Classifier,
    F: Fn(&P) -> M,
{
    let mut best: Option<(P, f64)> = None;
    for p in candidates {
        let score = cross_val_score(data, k, seed, scoring, || make_model(p))?;
        if best.as_ref().is_none_or(|(_, bs)| score > *bs) {
            best = Some((p.clone(), score));
        }
    }
    best.ok_or(MlError::NoCandidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pml_mlcore::{ForestParams, Matrix, RandomForest};
    use rand::Rng;

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(usize::from(a > b));
        }
        Dataset::new(Matrix::from_rows(rows), y, 2, vec!["a".into(), "b".into()])
    }

    #[test]
    fn select_subsets() {
        let d = Dataset::new(
            Matrix::from_rows([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]),
            vec![0, 1, 1],
            2,
            vec!["a".into(), "b".into()],
        );
        let d = select(&d, &[2, 0]);
        assert_eq!(d.y, vec![1, 0]);
        assert_eq!(d.x.row(0), &[2.0, 2.0]);
    }

    #[test]
    fn split_partitions_data() {
        let d = dataset(100, 1);
        let (train, test) = train_test_split(&d, 0.3, 42).unwrap();
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
    }

    #[test]
    fn split_is_deterministic() {
        let d = dataset(50, 2);
        let (a, _) = train_test_split(&d, 0.3, 7).unwrap();
        let (b, _) = train_test_split(&d, 0.3, 7).unwrap();
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn stratified_folds_balance_classes() {
        let y: Vec<usize> = (0..100).map(|i| usize::from(i < 20)).collect();
        let folds = stratified_folds(&y, 2, 5, 0).unwrap();
        for f in 0..5 {
            let minority = (0..100).filter(|&i| folds[i] == f && y[i] == 1).count();
            assert_eq!(minority, 4); // 20 minority samples over 5 folds
        }
    }

    #[test]
    fn cross_val_scores_sensibly() {
        let d = dataset(200, 3);
        let score = cross_val_score(&d, 5, 0, Scoring::Accuracy, || {
            RandomForest::new(ForestParams {
                n_estimators: 15,
                ..Default::default()
            })
        })
        .unwrap();
        assert!(score > 0.85, "cv accuracy {score}");
    }

    #[test]
    fn cross_val_averages_over_the_folds_it_scored() {
        // Three samples over five folds: folds 2–4 are empty. Fold 0 holds
        // a class-0 sample and the only class-1 sample, trains on the other
        // class-0 sample alone and gets one of two right; fold 1 validates
        // the remaining class-0 sample, which 1-NN gets right.
        let x = Matrix::from_rows([[0.0], [0.1], [5.0]]);
        let d = Dataset::new(x, vec![0, 0, 1], 2, vec!["a".into()]);
        let knn = || crate::knn::Knn::new(crate::knn::KnnParams { k: 1 });
        let score = cross_val_score(&d, 5, 0, Scoring::Accuracy, knn);
        assert_eq!(score, Ok((0.5 + 1.0) / 2.0));

        // One sample: its fold has no training side, the rest no
        // validation side.
        let one = Dataset::new(Matrix::from_rows([[0.0]]), vec![0], 1, vec!["a".into()]);
        assert!(matches!(
            cross_val_score(&one, 3, 0, Scoring::Accuracy, knn),
            Err(MlError::InvalidParam { param: "k", .. })
        ));
    }

    #[test]
    fn grid_search_prefers_more_trees() {
        let d = dataset(150, 4);
        let candidates = vec![1usize, 25];
        let (best, score) = grid_search(&d, &candidates, 4, 0, Scoring::MacroAuc, |&n| {
            RandomForest::new(ForestParams {
                n_estimators: n,
                ..Default::default()
            })
        })
        .unwrap();
        assert_eq!(best, 25);
        assert!(score > 0.9);
    }
}
