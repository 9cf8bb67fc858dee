//! Stable bounded top-k selection.
//!
//! Model building and query execution both end with "keep the best `k` of
//! `n` rows" (neighbor-list truncation, `ORDER BY … LIMIT k`). Fully
//! sorting costs `O(n log n)`; [`top_k_by`] does the same selection with a
//! bounded binary heap in `O(n log k)` time and `O(k)` space, while
//! reproducing a *stable* sort's tie-break exactly — so swapping it in for
//! `sort_by` + `truncate` never changes results, only speed.
//!
//! [`serving_order`] is the one statement of the order recommendations
//! are served in; every selection of a user's top `k` — and the executor's
//! merge of several users' — ranks by it.

use std::cmp::Ordering;

/// The order recommendations are served in, best first: score descending
/// under [`f64::total_cmp`], then the tie key descending. The tie key of
/// one user's items is the item **id** — the key order of the
/// materialized score index, so a user's top-k is the same rows in the
/// same order whether it is selected from fresh scores or read from a
/// materialized list; a merge of several users' lists keys on `(user's
/// place reversed, item id)`.
pub fn serving_order<K: Ord>(a: (f64, K), b: (f64, K)) -> Ordering {
    b.0.total_cmp(&a.0).then_with(|| b.1.cmp(&a.1))
}

/// Return the `k` smallest elements under `cmp` in sorted order — exactly
/// what stable `sort_by(cmp)` followed by `truncate(k)` produces, in
/// `O(n log k)`.
///
/// Stability: among `cmp`-equal elements, earlier arrivals win the last
/// slots and keep their input order in the output, matching a stable sort.
pub fn top_k_by<T, F>(items: impl IntoIterator<Item = T>, k: usize, cmp: F) -> Vec<T>
where
    F: FnMut(&T, &T) -> Ordering,
{
    let mut top = TopK::new(k, cmp);
    for item in items {
        top.push(item);
    }
    top.into_sorted_vec()
}

/// The incremental form of [`top_k_by`]: push rows one at a time, learn
/// from each push which row (if any) fell out, so a caller that accounts
/// for what it holds (the executor's memory budget) can do so per row.
pub struct TopK<T, F> {
    /// Max-heap of the current best `k` under (cmp, arrival index); the
    /// root is the worst kept element. Carrying the arrival index makes the
    /// order total, which is what gives the stable-sort-equivalent
    /// tie-break: a later arrival that `cmp`-ties the root compares
    /// Greater, so it does not displace it.
    heap: Vec<(T, usize)>,
    k: usize,
    seq: usize,
    cmp: F,
}

impl<T, F> TopK<T, F>
where
    F: FnMut(&T, &T) -> Ordering,
{
    /// An empty selection of at most `k` elements under `cmp`.
    pub fn new(k: usize, cmp: F) -> Self {
        TopK {
            // `k` is caller-controlled (a SQL `LIMIT` can be u64::MAX); cap
            // the up-front reservation and let the heap grow to min(k, n)
            // naturally.
            heap: Vec::with_capacity(k.min(1024)),
            k,
            seq: 0,
            cmp,
        }
    }

    /// Offer `item`. Returns the element that is *not* kept as a result:
    /// `None` while fewer than `k` are held, otherwise either `item` itself
    /// (it does not beat the worst kept element) or the element it
    /// displaced.
    pub fn push(&mut self, item: T) -> Option<T> {
        let cand = (item, self.seq);
        self.seq += 1;
        let (heap, cmp) = (&mut self.heap, &mut self.cmp);
        if heap.len() < self.k {
            heap.push(cand);
            let mut child = heap.len() - 1;
            while child > 0 {
                let parent = (child - 1) / 2;
                if total(cmp, &heap[child], &heap[parent]) == Ordering::Greater {
                    heap.swap(child, parent);
                    child = parent;
                } else {
                    break;
                }
            }
            return None;
        }
        if self.k == 0 || total(cmp, &cand, &heap[0]) != Ordering::Less {
            return Some(cand.0);
        }
        let displaced = std::mem::replace(&mut heap[0], cand);
        let mut parent = 0;
        loop {
            let left = 2 * parent + 1;
            if left >= heap.len() {
                break;
            }
            let right = left + 1;
            let big = if right < heap.len()
                && total(cmp, &heap[right], &heap[left]) == Ordering::Greater
            {
                right
            } else {
                left
            };
            if total(cmp, &heap[big], &heap[parent]) == Ordering::Greater {
                heap.swap(big, parent);
                parent = big;
            } else {
                break;
            }
        }
        Some(displaced.0)
    }

    /// The worst kept element once `k` are held — the one a push must
    /// beat to be kept; `None` while fewer are held.
    pub fn floor(&self) -> Option<&T> {
        if self.k > 0 && self.heap.len() == self.k {
            Some(&self.heap[0].0)
        } else {
            None
        }
    }

    /// The kept elements, best first.
    pub fn into_sorted_vec(mut self) -> Vec<T> {
        let cmp = &mut self.cmp;
        self.heap.sort_by(|a, b| total(cmp, a, b));
        self.heap.into_iter().map(|(t, _)| t).collect()
    }
}

fn total<T, F>(cmp: &mut F, a: &(T, usize), b: &(T, usize)) -> Ordering
where
    F: FnMut(&T, &T) -> Ordering,
{
    cmp(&a.0, &b.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: stable sort + truncate.
    fn reference(items: &[(u64, usize)], k: usize) -> Vec<(u64, usize)> {
        let mut v = items.to_vec();
        v.sort_by_key(|a| a.0);
        v.truncate(k);
        v
    }

    fn lcg_stream(seed: u64, n: usize, modulo: u64) -> Vec<(u64, usize)> {
        let mut s = seed;
        (0..n)
            .map(|id| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) % modulo, id)
            })
            .collect()
    }

    #[test]
    fn matches_stable_sort_truncate() {
        for seed in 0..20u64 {
            // Small modulo forces many duplicate keys, exercising the
            // stability tie-break.
            let items = lcg_stream(seed, 200, 13);
            for k in [0, 1, 2, 7, 50, 199, 200, 500] {
                let got = top_k_by(items.iter().copied(), k, |a, b| a.0.cmp(&b.0));
                assert_eq!(got, reference(&items, k), "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn equal_keys_keep_input_order() {
        let items: Vec<(u64, usize)> = (0..10).map(|id| (7, id)).collect();
        let got = top_k_by(items.iter().copied(), 4, |a, b| a.0.cmp(&b.0));
        assert_eq!(got, vec![(7, 0), (7, 1), (7, 2), (7, 3)]);
    }

    #[test]
    fn empty_input_and_zero_k() {
        let empty: Vec<(u64, usize)> = Vec::new();
        assert!(top_k_by(empty.iter().copied(), 5, |a, b| a.cmp(b)).is_empty());
        let items = lcg_stream(1, 10, 100);
        assert!(top_k_by(items.iter().copied(), 0, |a, b| a.0.cmp(&b.0)).is_empty());
    }

    #[test]
    fn push_reports_what_fell_out() {
        let mut top = TopK::new(2, |a: &u64, b: &u64| a.cmp(b));
        assert_eq!(top.push(5), None);
        assert_eq!(top.floor(), None, "one held of two");
        assert_eq!(top.push(3), None);
        assert_eq!(top.push(9), Some(9), "worse than everything kept");
        assert_eq!(top.push(5), Some(5), "ties the worst kept: earlier wins");
        assert_eq!(top.floor(), Some(&5));
        assert_eq!(top.push(1), Some(5), "displaces the worst kept");
        assert_eq!(top.floor(), Some(&3));
        assert_eq!(top.into_sorted_vec(), vec![1, 3]);
        let mut none = TopK::new(0, |a: &u64, b: &u64| a.cmp(b));
        assert_eq!(none.push(7), Some(7));
        assert_eq!(none.floor(), None);
        assert!(none.into_sorted_vec().is_empty());
    }

    #[test]
    fn works_with_descending_comparator() {
        let items = lcg_stream(3, 100, 1000);
        let got = top_k_by(items.iter().copied(), 5, |a, b| b.0.cmp(&a.0));
        let mut want = items.clone();
        want.sort_by_key(|a| std::cmp::Reverse(a.0));
        want.truncate(5);
        assert_eq!(got, want);
    }
}
