//! The per-pair Eq. 2 merge the candidate-list kernels replaced, kept
//! only as the oracle their bit-identity tests compare against. It is
//! compiled into tests alone — the library's unit tests (`#[cfg(test)]`)
//! and `tests/prop.rs` (by `#[path]`) — so it reads nothing but slices.

/// Eq. 2 for one pair by merge-intersect. `row` is one side's sorted CSR
/// row of ratings — ItemCF: the user's ratings by item; UserCF: the item's
/// ratings by user — and `list` the other side's similarity list, sorted
/// by neighbor index: ItemCF `N(i)`, UserCF `N(u)`. Terms are added in
/// ascending neighbor index; `None` when the two share no entry.
pub fn merge_eq2((ids, ratings): (&[u32], &[f32]), list: &[(usize, f64)]) -> Option<f64> {
    let (mut a, mut b) = (0, 0);
    let mut num = 0.0;
    let mut den = 0.0;
    while a < ids.len() && b < list.len() {
        match (ids[a] as usize).cmp(&list[b].0) {
            std::cmp::Ordering::Less => a += 1,
            std::cmp::Ordering::Greater => b += 1,
            std::cmp::Ordering::Equal => {
                let (r, sim) = (f64::from(ratings[a]), list[b].1);
                num += sim * r;
                den += sim.abs();
                a += 1;
                b += 1;
            }
        }
    }
    if den == 0.0 {
        None
    } else {
        Some(num / den)
    }
}
