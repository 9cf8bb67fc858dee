//! Compressed sparse rows: the one sparse-matrix layout of the crate.
//!
//! The ratings (by user and, transposed, by item) are `Csr<f32>`; a
//! neighborhood table (forward lists and their transpose) is `Csr<f64>`.
//! Every matrix is built by one stable counting sort by row — from
//! arbitrary `(row, col, value)` triples ([`Csr::from_triples`]) or from
//! another matrix's entries with row and column swapped
//! ([`Csr::transpose`]) — so both share the same placement code.

use std::mem::size_of;

/// Row `r` occupies `row_ptr[r] .. row_ptr[r + 1]` in the two flat
/// arrays: `col_idx` holds the column indexes (strictly ascending within
/// each row, `u32` — half the footprint of `usize`) and `values` the
/// entries. Read-only once built.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<V> {
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<V>,
}

impl<V> Default for Csr<V> {
    /// The matrix with no rows.
    fn default() -> Self {
        Csr {
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V: Copy + Default> Csr<V> {
    /// The matrix of `triples` over `n_rows` rows (every row index below
    /// it), in any order. When a `(row, col)` cell appears more than once
    /// the **last** value wins: the counting sort keeps arrival order
    /// within a row, the stable sort by column keeps it within a cell, and
    /// the dedup keeps each cell's final value.
    pub fn from_triples(
        n_rows: usize,
        triples: impl Iterator<Item = (u32, u32, V)> + Clone,
    ) -> Self {
        let mut m = Csr::counting_sort(n_rows, triples);
        let mut cell: Vec<(u32, V)> = Vec::new();
        let mut end = 0;
        for r in 0..n_rows {
            let range = m.row_range(r);
            cell.clear();
            cell.extend(
                m.col_idx[range.clone()]
                    .iter()
                    .zip(&m.values[range])
                    .map(|(&c, &v)| (c, v)),
            );
            cell.sort_by_key(|&(c, _)| c);
            cell.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = later.1;
                }
                same
            });
            // Rows only shrink, so the write cursor never passes the reads.
            m.row_ptr[r] = end;
            for &(c, v) in &cell {
                m.col_idx[end] = c;
                m.values[end] = v;
                end += 1;
            }
        }
        m.row_ptr[n_rows] = end;
        m.col_idx.truncate(end);
        m.values.truncate(end);
        m.col_idx.shrink_to_fit();
        m.values.shrink_to_fit();
        m
    }

    /// The transpose over `n_cols` columns. The entries are walked row by
    /// row, so every transposed row comes out ascending.
    pub fn transpose(&self, n_cols: usize) -> Self {
        Csr::counting_sort(n_cols, self.iter().map(|(r, c, v)| (c, r, v)))
    }

    /// Stable counting sort of `entries` into `n_rows` rows: count each
    /// row, prefix-sum into row starts, then place the entries in arrival
    /// order.
    fn counting_sort(n_rows: usize, entries: impl Iterator<Item = (u32, u32, V)> + Clone) -> Self {
        let mut row_ptr = vec![0usize; n_rows + 1];
        for (r, _, _) in entries.clone() {
            row_ptr[r as usize + 1] += 1;
        }
        for r in 0..n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut next = row_ptr[..n_rows].to_vec();
        let mut col_idx = vec![0u32; row_ptr[n_rows]];
        let mut values = vec![V::default(); row_ptr[n_rows]];
        for (r, c, v) in entries {
            let at = &mut next[r as usize];
            col_idx[*at] = c;
            values[*at] = v;
            *at += 1;
        }
        Csr {
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Every entry as `(row, col, value)`, row by row, each row ascending
    /// in column.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, V)> + Clone + '_ {
        (0..self.n_rows()).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            let r = r as u32;
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// The value at `(r, c)`, if stored (binary search within row `r`).
    pub fn get(&self, r: usize, c: usize) -> Option<V> {
        let (cols, vals) = self.row(r);
        let c = u32::try_from(c).ok()?;
        cols.binary_search(&c).ok().map(|at| vals[at])
    }
}

impl<V> Csr<V> {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `r` as parallel `(column indexes, values)` slices.
    pub fn row(&self, r: usize) -> (&[u32], &[V]) {
        let range = self.row_range(r);
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// The half-open range of row `r` in the flat arrays.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r]..self.row_ptr[r + 1]
    }

    /// The row-pointer array (`n_rows + 1` entries, first 0, last `nnz`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Heap bytes of the three arrays.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * size_of::<usize>()
            + self.col_idx.len() * size_of::<u32>()
            + self.values.len() * size_of::<V>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triples_sort_into_rows_and_the_last_duplicate_wins() {
        let m = Csr::from_triples(
            3,
            [
                (2, 1, 1.0),
                (0, 4, 2.0),
                (2, 0, 3.0),
                (0, 4, 5.0),
                (2, 1, 7.0),
            ]
            .into_iter(),
        );
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row_ptr(), &[0, 1, 1, 3]);
        assert_eq!(m.row(0), (&[4][..], &[5.0][..]));
        assert_eq!(m.row(2), (&[0, 1][..], &[3.0, 7.0][..]));
        assert_eq!(m.get(2, 1), Some(7.0));
        assert_eq!((m.get(2, 2), m.get(1, 0)), (None, None));
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let m = Csr::from_triples(2, [(0, 2, 1.0f32), (1, 0, 2.0), (0, 0, 3.0)].into_iter());
        let t = m.transpose(3);
        assert_eq!(t.row(0), (&[0, 1][..], &[3.0, 2.0][..]));
        assert_eq!(t.row(1).0, &[] as &[u32]);
        assert_eq!(t.row(2), (&[0][..], &[1.0][..]));
        assert_eq!(t.transpose(2), m);
    }

    #[test]
    fn default_is_the_empty_matrix_a_build_makes() {
        let built = Csr::<f64>::from_triples(0, std::iter::empty());
        assert_eq!(Csr::default(), built);
        assert_eq!((built.n_rows(), built.nnz()), (0, 0));
        assert_eq!(built.heap_bytes(), size_of::<usize>());
    }
}
