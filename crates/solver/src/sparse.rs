//! Compressed-sparse-row matrices for the finite-element solver.

/// A CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Row pointers (`n + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices, row-major.
    pub cols: Vec<u32>,
    /// Values parallel to `cols`.
    pub vals: Vec<f64>,
    /// Number of columns.
    pub ncols: usize,
}

impl Csr {
    /// Builds a CSR matrix from (row, col, value) triplets; duplicate
    /// entries are summed.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _, _) in triplets {
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; triplets.len()];
        let mut vals = vec![0f64; triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            let k = cursor[r as usize];
            cols[k] = c;
            vals[k] = v;
            cursor[r as usize] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut out_cols = Vec::with_capacity(cols.len());
        let mut out_vals = Vec::with_capacity(vals.len());
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            for k in counts[r]..counts[r + 1] {
                scratch.push((cols[k], vals[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                out_cols.push(c);
                out_vals.push(v);
            }
            row_ptr[r + 1] = out_cols.len();
        }
        Csr {
            row_ptr,
            cols: out_cols,
            vals: out_vals,
            ncols,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// `y = A * x`.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.ncols);
        debug_assert_eq!(y.len(), self.nrows());
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.vals[k] * x[self.cols[k] as usize];
            }
            *yr = acc;
        }
    }

    /// The diagonal entries (zero where absent).
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows()];
        for (r, dr) in d.iter_mut().enumerate() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.cols[k] as usize == r {
                    *dr = self.vals[k];
                }
            }
        }
        d
    }

    /// Entry accessor (slow; for tests).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
            if self.cols[k] as usize == c {
                return self.vals[k];
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_with_duplicates() {
        let a = Csr::from_triplets(
            2,
            2,
            &[
                (0, 0, 1.0),
                (0, 0, 2.0),
                (1, 0, -1.0),
                (1, 1, 4.0),
                (0, 1, 0.5),
            ],
        );
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.cols.len(), 4, "duplicate entries are summed");
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), 0.5);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(1, 1), 4.0);
    }

    #[test]
    fn matvec() {
        let a = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let mut y = vec![0.0; 2];
        a.mul_vec(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = Csr::from_triplets(3, 3, &[(0, 0, 5.0), (1, 2, 1.0), (2, 2, -2.0)]);
        assert_eq!(a.diagonal(), vec![5.0, 0.0, -2.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = Csr::from_triplets(3, 3, &[(2, 0, 1.0)]);
        let mut y = vec![9.0; 3];
        a.mul_vec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 1.0]);
    }
}
