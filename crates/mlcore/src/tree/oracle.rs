//! The grower histogram split finding replaced, kept as a test oracle:
//! the sort-based CART search (re-sort every candidate column at every
//! node, thresholds at midpoints of adjacent distinct values) exactly as
//! it shipped before ISSUE 14. The equivalence tests in `tree.rs` grow the
//! same tree with both and compare predictions, importances, depth and
//! node count; on lossless binnings they must agree.

use super::*;

impl DecisionTree {
    /// Fit on `x`/`y` with the exact sort-based split search. The RNG
    /// drives the per-split feature subsampling (only relevant when
    /// `max_features != All`).
    ///
    /// Callers pass one label per row and at least one sample (the public
    /// path validates through `Dataset::try_new`); on mismatched lengths the
    /// fit uses the common prefix, and debug builds assert.
    pub(super) fn fit(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        debug_assert_eq!(x.rows(), y.len(), "one label per row");
        debug_assert!(n_classes >= 1);
        debug_assert!(x.rows() >= 1, "cannot fit on an empty dataset");
        debug_assert!(x.cols() < LEAF as usize, "feature index must fit u16");
        let n = x.rows().min(y.len());
        let mut tree = DecisionTree {
            nodes: TreeNodes::default(),
            n_classes,
            raw_importance: vec![0.0; x.cols()],
        };
        let idx: Vec<usize> = (0..n).collect();
        tree.grow(x, y, idx, params, rng, 0, n as f64);
        tree
    }

    fn leaf_from(&mut self, y: &[usize], idx: &[usize]) -> u32 {
        let mut dist = vec![0.0; self.n_classes];
        for &i in idx {
            dist[y[i]] += 1.0;
        }
        self.nodes.push_leaf(&dist, idx.len() as f64)
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &mut self,
        x: &Matrix,
        y: &[usize],
        idx: Vec<usize>,
        params: &TreeParams,
        rng: &mut StdRng,
        depth: usize,
        n_total: f64,
    ) -> u32 {
        let n = idx.len();
        let mut counts = vec![0.0f64; self.n_classes];
        for &i in &idx {
            counts[y[i]] += 1.0;
        }
        let impurity = gini(counts.iter().copied(), n as f64);
        let depth_stop = params.max_depth.is_some_and(|d| depth >= d);
        if impurity == 0.0 || n < params.min_samples_split || depth_stop {
            return self.leaf_from(y, &idx);
        }

        // Feature subset for this split.
        let d = x.cols();
        let k = params.max_features.resolve(d);
        let features: Vec<usize> = if k >= d {
            (0..d).collect()
        } else {
            let mut all: Vec<usize> = (0..d).collect();
            all.shuffle(rng);
            let mut subset = all[..k].to_vec();
            subset.sort_unstable();
            subset
        };

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, decrease)
        let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(n);
        for &f in &features {
            sorted.clear();
            sorted.extend(idx.iter().map(|&i| (x.get(i, f), y[i])));
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut left = vec![0.0f64; self.n_classes];
            let mut right = counts.clone();
            for split_at in 1..n {
                let (v_prev, c_prev) = sorted[split_at - 1];
                left[c_prev] += 1.0;
                right[c_prev] -= 1.0;
                let v_next = sorted[split_at].0;
                if v_prev == v_next {
                    continue; // cannot split between equal values
                }
                let nl = split_at;
                let nr = n - split_at;
                if nl < params.min_samples_leaf || nr < params.min_samples_leaf {
                    continue;
                }
                let w_impurity = (nl as f64 * gini(left.iter().copied(), nl as f64)
                    + nr as f64 * gini(right.iter().copied(), nr as f64))
                    / n as f64;
                let decrease = impurity - w_impurity;
                if best.map_or(decrease > 1e-12, |(_, _, bd)| decrease > bd + 1e-12) {
                    best = Some((f, 0.5 * (v_prev + v_next), decrease));
                }
            }
        }

        let Some((feature, threshold, decrease)) = best else {
            return self.leaf_from(y, &idx);
        };
        self.raw_importance[feature] += (n as f64 / n_total) * decrease;

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| x.get(i, feature) <= threshold);
        let me = self.nodes.push_placeholder();
        let left = self.grow(x, y, left_idx, params, rng, depth + 1, n_total);
        let right = self.grow(x, y, right_idx, params, rng, depth + 1, n_total);
        self.nodes.set_split(me, feature, threshold, left, right);
        me
    }
}
