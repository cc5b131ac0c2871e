//! [`RowBlock`]: the one carrier of a request's rows.

/// A rectangular block of `f32` rows — features on the way in, class
/// probabilities on the way out. Stored flat, so the rows of one request
/// are one `Vec` from the body parser to the worker's batch matrix, and
/// the interior wire protocol (`bcpnn_cluster::wire`) ships it as is.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBlock {
    /// Width of every row.
    pub n_cols: u32,
    /// Row-major cells; `len == n_rows * n_cols`.
    pub data: Vec<f32>,
}

impl RowBlock {
    /// Build a block from equal-width rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f32>]) -> RowBlock {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for row in rows {
            assert_eq!(row.len(), n_cols, "ragged rows cannot form a RowBlock");
            data.extend_from_slice(row);
        }
        RowBlock {
            n_cols: n_cols as u32,
            data,
        }
    }

    /// Number of rows in the block.
    pub fn n_rows(&self) -> usize {
        if self.n_cols == 0 {
            0
        } else {
            self.data.len() / self.n_cols as usize
        }
    }

    /// Borrowed view of row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        let w = self.n_cols as usize;
        &self.data[i * w..(i + 1) * w]
    }

    /// The block as one owned `Vec` per row.
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        (0..self.n_rows()).map(|i| self.row(i).to_vec()).collect()
    }
}
