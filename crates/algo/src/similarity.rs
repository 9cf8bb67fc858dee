//! Similarity measures over co-rated dimensions (paper Eq. 1).
//!
//! Both measures are functions of [`CoRatedSums`]. [`co_rated_sums`] fills
//! them for one pair of *sorted sparse vectors* in a single merge pass;
//! [`crate::neighborhood`] fills them for every partner of an entity at once.
//!
//! * **Cosine** (the paper's Eq. 1): `a·b / (‖a‖‖b‖)`. Following the paper
//!   ("The score is calculated using the vector's co-rated dimensions"),
//!   the norms are taken over the co-rated dimensions only.
//! * **Pearson correlation**: the classic CF variant, mean-centered over
//!   co-rated dimensions.

/// Which similarity function a neighborhood model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Similarity {
    /// Cosine similarity over co-rated dimensions (Eq. 1).
    Cosine,
    /// Pearson correlation over co-rated dimensions.
    Pearson,
}

/// Running sums over the co-rated dimensions of two sparse vectors.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoRatedSums {
    /// Number of co-rated dimensions.
    pub n: usize,
    /// Σ aᵢbᵢ
    pub dot: f64,
    /// Σ aᵢ
    pub sum_a: f64,
    /// Σ bᵢ
    pub sum_b: f64,
    /// Σ aᵢ²
    pub sq_a: f64,
    /// Σ bᵢ²
    pub sq_b: f64,
}

/// Merge-intersect two sorted sparse vectors, accumulating co-rated sums.
/// `O(|a| + |b|)`.
pub fn co_rated_sums(a: &[(usize, f64)], b: &[(usize, f64)]) -> CoRatedSums {
    let mut s = CoRatedSums::default();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                s.add(a[i].1, b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    s
}

impl CoRatedSums {
    /// Add one co-rated dimension: `x` from the first vector, `y` from
    /// the second.
    #[inline]
    pub fn add(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.dot += x * y;
        self.sum_a += x;
        self.sum_b += y;
        self.sq_a += x * x;
        self.sq_b += y * y;
    }

    /// Cosine similarity from the accumulated sums; `None` when undefined
    /// (no overlap or a zero-norm vector).
    pub fn cosine(&self) -> Option<f64> {
        cosine(self.dot, self.sq_a, self.sq_b)
    }

    /// Pearson correlation from the accumulated sums; `None` when undefined
    /// (fewer than 2 co-rated dimensions or zero variance on either side).
    pub fn pearson(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let cov = self.dot - self.sum_a * self.sum_b / n;
        let var_a = self.sq_a - self.sum_a * self.sum_a / n;
        let var_b = self.sq_b - self.sum_b * self.sum_b / n;
        let denom = (var_a * var_b).sqrt();
        if denom <= f64::EPSILON {
            return None;
        }
        // Clamp against floating-point drift just outside [-1, 1].
        Some((cov / denom).clamp(-1.0, 1.0))
    }

    /// Apply the chosen measure.
    pub fn score(&self, measure: Similarity) -> Option<f64> {
        match measure {
            Similarity::Cosine => self.cosine(),
            Similarity::Pearson => self.pearson(),
        }
    }
}

/// Cosine from `Σ aᵢbᵢ`, `Σ aᵢ²` and `Σ bᵢ²`: `None` exactly when
/// `Σ aᵢ² · Σ bᵢ² == 0`. No count is needed — with no co-rated dimension
/// all three sums are zero — so the neighborhood build's cosine slot
/// carries only these three.
pub(crate) fn cosine(dot: f64, sq_a: f64, sq_b: f64) -> Option<f64> {
    let denom = (sq_a * sq_b).sqrt();
    (denom != 0.0).then(|| dot / denom)
}

/// Convenience: similarity of two sorted sparse vectors.
pub fn similarity(a: &[(usize, f64)], b: &[(usize, f64)], measure: Similarity) -> Option<f64> {
    co_rated_sums(a, b).score(measure)
}

impl std::str::FromStr for Similarity {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cosine" | "cos" => Ok(Similarity::Cosine),
            "pearson" | "pear" => Ok(Similarity::Pearson),
            other => Err(format!("unknown similarity measure `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(usize, f64)]) -> Vec<(usize, f64)> {
        pairs.to_vec()
    }

    #[test]
    fn cosine_identical_vectors_is_one() {
        let a = v(&[(0, 1.0), (2, 3.0), (5, 2.0)]);
        let s = similarity(&a, &a, Similarity::Cosine).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_dims_no_overlap() {
        let a = v(&[(0, 1.0), (1, 2.0)]);
        let b = v(&[(2, 1.0), (3, 2.0)]);
        assert_eq!(similarity(&a, &b, Similarity::Cosine), None);
    }

    #[test]
    fn cosine_known_value() {
        // Co-rated dims {0, 1}: a = (1, 2), b = (2, 1).
        let a = v(&[(0, 1.0), (1, 2.0), (7, 9.0)]);
        let b = v(&[(0, 2.0), (1, 1.0), (8, 9.0)]);
        let s = similarity(&a, &b, Similarity::Cosine).unwrap();
        assert!((s - 4.0 / 5.0).abs() < 1e-12); // (2+2)/(√5·√5)
    }

    #[test]
    fn pearson_perfect_positive_and_negative() {
        let a = v(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
        let b = v(&[(0, 2.0), (1, 4.0), (2, 6.0)]);
        assert!((similarity(&a, &b, Similarity::Pearson).unwrap() - 1.0).abs() < 1e-9);
        let c = v(&[(0, 3.0), (1, 2.0), (2, 1.0)]);
        assert!((similarity(&a, &c, Similarity::Pearson).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_needs_two_corated_and_variance() {
        let a = v(&[(0, 1.0)]);
        let b = v(&[(0, 2.0)]);
        assert_eq!(similarity(&a, &b, Similarity::Pearson), None);
        // Constant vector ⇒ zero variance ⇒ undefined.
        let c = v(&[(0, 3.0), (1, 3.0)]);
        let d = v(&[(0, 1.0), (1, 2.0)]);
        assert_eq!(similarity(&c, &d, Similarity::Pearson), None);
    }

    #[test]
    fn pearson_clamped_to_unit_interval() {
        let a = v(&[(0, 1.0), (1, 1.0 + 1e-15), (2, 3.0)]);
        let b = v(&[(0, 1.0), (1, 1.0), (2, 3.0)]);
        let s = similarity(&a, &b, Similarity::Pearson).unwrap();
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn merge_is_symmetric() {
        let a = v(&[(0, 1.0), (3, 2.0), (5, 0.5)]);
        let b = v(&[(1, 4.0), (3, 1.0), (5, 2.0)]);
        let ab = co_rated_sums(&a, &b);
        let ba = co_rated_sums(&b, &a);
        assert_eq!(ab.n, ba.n);
        assert_eq!(ab.dot, ba.dot);
        assert_eq!(ab.sum_a, ba.sum_b);
        assert_eq!(ab.sq_a, ba.sq_b);
        assert_eq!(
            similarity(&a, &b, Similarity::Cosine),
            similarity(&b, &a, Similarity::Cosine)
        );
    }

    #[test]
    fn zero_norm_cosine_undefined() {
        let a = v(&[(0, 0.0)]);
        let b = v(&[(0, 1.0)]);
        assert_eq!(similarity(&a, &b, Similarity::Cosine), None);
    }

    #[test]
    fn parse_measure_names() {
        assert_eq!("cosine".parse::<Similarity>(), Ok(Similarity::Cosine));
        assert_eq!("Pearson".parse::<Similarity>(), Ok(Similarity::Pearson));
        assert!("jaccard".parse::<Similarity>().is_err());
    }
}
