//! Dense row-major feature matrix.
//!
//! Deliberately minimal: the dataset here is ~10⁴ rows × 14 columns, so a
//! contiguous `Vec<f64>` with row views is all the linear algebra this
//! project needs — no BLAS, no ndarray.

use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Build from row-major data whose shape holds at the call site;
    /// debug builds assert `data.len() == rows·cols`.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { data, rows, cols }
    }

    /// Build from an iterator of rows, which must all share one width;
    /// debug builds assert against ragged input.
    pub fn from_rows<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[f64]>,
    {
        let mut data = Vec::new();
        let mut n_rows = 0;
        let mut n_cols = None;
        for row in rows {
            let row = row.as_ref();
            match n_cols {
                None => n_cols = Some(row.len()),
                Some(c) => debug_assert_eq!(c, row.len(), "ragged rows"),
            }
            data.extend_from_slice(row);
            n_rows += 1;
        }
        Matrix {
            data,
            rows: n_rows,
            cols: n_cols.unwrap_or(0),
        }
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// View of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// New matrix containing the given rows, in order.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            data,
            rows: idx.len(),
            cols: self.cols,
        }
    }

    /// The whole row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major backing buffer, for kernels that fill
    /// disjoint row blocks in parallel.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_access() {
        let m = Matrix::from_rows([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(2, 1), 6.0);
    }

    #[test]
    fn select_rows_reorders() {
        let m = Matrix::from_rows([[1.0], [2.0], [3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rows*cols")]
    fn bad_shape_rejected() {
        Matrix::from_vec(vec![1.0, 2.0, 3.0], 2, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rejected() {
        Matrix::from_rows([vec![1.0], vec![1.0, 2.0]]);
    }
}
