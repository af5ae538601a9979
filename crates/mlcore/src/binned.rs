//! Histogram binning for tree training (LightGBM-style split finding).
//!
//! [`BinnedMatrix`] quantizes each feature column once per fit into at most
//! 256 bins (`u8` codes, stored column-major), so a tree node can evaluate
//! every candidate split of a feature from one O(n) histogram pass instead
//! of an O(n log n) re-sort. When a column has no more distinct values than
//! bins — always true for this project's log₂-style features — the bin
//! edges are the midpoints between adjacent distinct values, and binned
//! split finding is *exactly* equivalent to the sort-based search (the
//! property tests in `tree.rs` pin this down). Denser columns fall back to
//! equal-frequency (quantile) bins.

use crate::matrix::Matrix;

/// The bin budget every trainer uses: codes are `u8`, so at most 256 bins
/// per feature.
pub const MAX_BINS: u16 = 256;

/// A feature matrix quantized for histogram split finding: one `u8` code
/// per (row, feature), laid out column-major so a node's histogram pass
/// streams one contiguous column, plus the real-valued bin edges so the
/// trained tree predicts directly on raw feature rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedMatrix {
    /// Column-major codes: `codes[f * rows + i]` is row `i`, feature `f`.
    codes: Vec<u8>,
    rows: usize,
    cols: usize,
    /// Per feature, the ascending split thresholds between adjacent bins
    /// (`n_bins = edges.len() + 1`). A value `v` lands in bin `b` iff
    /// `edges[b-1] < v <= edges[b]`, so `code <= b ⇔ v <= edges[b]` — the
    /// same left-closed convention as tree descent.
    edges: Vec<Vec<f64>>,
}

fn midpoint(a: f64, b: f64) -> f64 {
    0.5 * (a + b)
}

impl BinnedMatrix {
    /// Quantize every column of `x` into at most `max_bins` bins
    /// (clamped to `2..=256`).
    pub fn from_matrix(x: &Matrix, max_bins: u16) -> Self {
        let rows = x.rows();
        let cols = x.cols();
        let max_bins = max_bins.clamp(2, MAX_BINS) as usize;
        let mut codes = vec![0u8; rows * cols];
        let mut edges = Vec::with_capacity(cols);
        let mut vals: Vec<f64> = Vec::with_capacity(rows);
        for f in 0..cols {
            vals.clear();
            vals.extend((0..rows).map(|i| x.get(i, f)));
            vals.sort_by(f64::total_cmp);
            // Runs of the sorted column: (distinct value, multiplicity).
            let mut distinct: Vec<(f64, usize)> = Vec::new();
            for &v in &vals {
                match distinct.last_mut() {
                    Some((d, c)) if *d == v || (d.is_nan() && v.is_nan()) => *c += 1,
                    _ => distinct.push((v, 1)),
                }
            }
            let col_edges: Vec<f64> = if distinct.len() <= max_bins {
                // Lossless: one bin per distinct value, edges at midpoints —
                // identical candidate splits to the exact sort-based search.
                distinct
                    .windows(2)
                    .map(|w| midpoint(w[0].0, w[1].0))
                    .collect()
            } else {
                // Equal-frequency: close a bin at the first value change
                // after ~rows/max_bins samples.
                let target = rows.div_ceil(max_bins).max(1);
                let mut acc = 0usize;
                let mut e = Vec::with_capacity(max_bins - 1);
                for w in distinct.windows(2) {
                    acc += w[0].1;
                    if acc >= target {
                        e.push(midpoint(w[0].0, w[1].0));
                        acc = 0;
                        if e.len() == max_bins - 1 {
                            break;
                        }
                    }
                }
                e
            };
            let col = &mut codes[f * rows..(f + 1) * rows];
            for (i, slot) in col.iter_mut().enumerate() {
                let v = x.get(i, f);
                *slot = col_edges.partition_point(|&e| v > e) as u8;
            }
            edges.push(col_edges);
        }
        BinnedMatrix {
            codes,
            rows,
            cols,
            edges,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of bins for feature `f` (at least 1; 1 means unsplittable).
    pub fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// The code column for feature `f`, indexed by row.
    pub fn column(&self, f: usize) -> &[u8] {
        &self.codes[f * self.rows..(f + 1) * self.rows]
    }

    /// Real-valued split threshold between bins `bin` and `bin + 1` of
    /// feature `f`: rows with `code <= bin` satisfy `value <= threshold`.
    pub fn threshold(&self, f: usize, bin: usize) -> f64 {
        self.edges[f][bin]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(vals: &[f64]) -> Matrix {
        Matrix::from_rows(vals.iter().map(|&v| [v]).collect::<Vec<_>>())
    }

    #[test]
    fn lossless_binning_preserves_value_identity() {
        let x = column(&[3.0, 1.0, 2.0, 1.0, 3.0, 2.0]);
        let b = BinnedMatrix::from_matrix(&x, 256);
        assert_eq!(b.n_bins(0), 3);
        let codes = b.column(0);
        // Equal values share a code; order follows value order.
        assert_eq!(codes, &[2, 0, 1, 0, 2, 1]);
    }

    #[test]
    fn codes_consistent_with_thresholds() {
        let x = column(&[0.5, 1.5, 2.5, 3.5, 10.0]);
        let b = BinnedMatrix::from_matrix(&x, 256);
        for bin in 0..b.n_bins(0) - 1 {
            let t = b.threshold(0, bin);
            for (i, &code) in b.column(0).iter().enumerate() {
                let v = x.get(i, 0);
                assert_eq!(v <= t, (code as usize) <= bin, "v={v} t={t} code={code}");
            }
        }
    }

    #[test]
    fn quantile_path_respects_bin_budget() {
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let x = column(&vals);
        let b = BinnedMatrix::from_matrix(&x, 16);
        assert!(b.n_bins(0) <= 16, "n_bins {}", b.n_bins(0));
        assert!(b.n_bins(0) >= 8, "n_bins {}", b.n_bins(0));
        // Codes are monotone in value.
        let codes = b.column(0);
        for w in codes.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn constant_column_is_single_bin() {
        let x = column(&[4.0; 10]);
        let b = BinnedMatrix::from_matrix(&x, 256);
        assert_eq!(b.n_bins(0), 1);
        assert!(b.column(0).iter().all(|&c| c == 0));
    }
}
