//! The synthetic dataset generator.
//!
//! Ratings are sampled as follows:
//!
//! * the item of each rating is drawn from a Zipf(`skew`) distribution
//!   over items, the user from a Zipf(`skew`) distribution over users —
//!   real rating data is heavy-tailed in both dimensions;
//! * duplicate `(user, item)` pairs are rejected until the requested count
//!   of distinct ratings is reached (with a deterministic sweep fallback
//!   for very dense specs);
//! * the rating value has learnable structure: users and items belong to
//!   latent clusters with a random affinity matrix, plus per-user and
//!   per-item bias and noise, quantized to half-star steps and clamped to
//!   the rating scale.

use crate::spec::SyntheticSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A generated user row.
#[derive(Debug, Clone, PartialEq)]
pub struct UserRow {
    /// User id (1-based, like MovieLens).
    pub uid: i64,
    /// Display name.
    pub name: String,
    /// Home city label.
    pub city: String,
}

/// A generated item (movie / business) row.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemRow {
    /// Item id (1-based).
    pub iid: i64,
    /// Display name.
    pub name: String,
    /// Genre (movies) or category (businesses).
    pub genre: String,
    /// Planar location for POI datasets.
    pub location: Option<(f64, f64)>,
    /// City the POI falls in (empty for non-located datasets).
    pub city: String,
}

/// A city region (POI datasets): an axis-aligned rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct CityRow {
    /// City name.
    pub name: String,
    /// Region as `(min_x, min_y, max_x, max_y)`.
    pub rect: (f64, f64, f64, f64),
}

/// A complete generated dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (from the spec).
    pub name: String,
    /// Users.
    pub users: Vec<UserRow>,
    /// Items.
    pub items: Vec<ItemRow>,
    /// `(uid, iid, rating)` triples, distinct pairs.
    pub ratings: Vec<(i64, i64, f64)>,
    /// City regions (empty unless the spec has locations).
    pub cities: Vec<CityRow>,
}

const GENRES: [&str; 18] = [
    "Action",
    "Adventure",
    "Animation",
    "Comedy",
    "Crime",
    "Documentary",
    "Drama",
    "Fantasy",
    "Film-Noir",
    "Horror",
    "Musical",
    "Mystery",
    "Romance",
    "Sci-Fi",
    "Suspense",
    "Thriller",
    "War",
    "Western",
];

const CITY_NAMES: [&str; 16] = [
    "San Diego",
    "Minneapolis",
    "Austin",
    "Phoenix",
    "Tempe",
    "Seattle",
    "Portland",
    "Denver",
    "Chicago",
    "Boston",
    "Atlanta",
    "Madison",
    "Pittsburgh",
    "Charlotte",
    "Las Vegas",
    "Urbana",
];

/// World extent for POI locations (a planar 1,000 × 1,000 "metro area").
pub const WORLD: f64 = 1000.0;

/// Sampler over `0..n` with probability ∝ `1/(rank+1)^skew`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, skew: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(skew);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let roll = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < roll)
            .min(self.cumulative.len() - 1)
    }
}

/// Generate a dataset from a spec. Deterministic for a fixed seed.
pub fn generate(spec: &SyntheticSpec) -> Dataset {
    assert!(
        spec.n_ratings <= spec.n_users * spec.n_items,
        "cannot generate {} distinct ratings from a {}x{} matrix",
        spec.n_ratings,
        spec.n_users,
        spec.n_items
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Latent structure.
    let k = spec.n_clusters.max(1);
    let affinity: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let user_cluster: Vec<usize> = (0..spec.n_users).map(|_| rng.gen_range(0..k)).collect();
    let item_cluster: Vec<usize> = (0..spec.n_items).map(|_| rng.gen_range(0..k)).collect();
    let user_bias: Vec<f64> = (0..spec.n_users)
        .map(|_| rng.gen_range(-0.6..0.6))
        .collect();
    let item_bias: Vec<f64> = (0..spec.n_items)
        .map(|_| rng.gen_range(-0.6..0.6))
        .collect();
    let mid = (spec.rating_min + spec.rating_max) / 2.0;
    let half_span = (spec.rating_max - spec.rating_min) / 2.0;

    let rate = |u: usize, i: usize, rng: &mut StdRng| -> f64 {
        let structure = affinity[user_cluster[u]][item_cluster[i]] * half_span * 0.7;
        let noise = rng.gen_range(-0.5..0.5);
        let raw = mid + structure + user_bias[u] + item_bias[i] + noise;
        // Quantize to half-star steps, clamp to scale.
        let stepped = (raw * 2.0).round() / 2.0;
        stepped.clamp(spec.rating_min, spec.rating_max)
    };

    // Distinct (user, item) pair sampling with Zipf marginals.
    let user_zipf = Zipf::new(spec.n_users, spec.skew);
    let item_zipf = Zipf::new(spec.n_items, spec.skew);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(spec.n_ratings);
    let mut ratings = Vec::with_capacity(spec.n_ratings);
    let mut attempts = 0usize;
    let max_attempts = spec.n_ratings.saturating_mul(30).max(1024);
    while ratings.len() < spec.n_ratings && attempts < max_attempts {
        attempts += 1;
        let u = user_zipf.sample(&mut rng);
        let i = item_zipf.sample(&mut rng);
        if seen.insert((u as u32, i as u32)) {
            let value = rate(u, i, &mut rng);
            ratings.push(((u + 1) as i64, (i + 1) as i64, value));
        }
    }
    // Deterministic sweep fallback for very dense specs where rejection
    // sampling stalls.
    'sweep: for u in 0..spec.n_users {
        if ratings.len() >= spec.n_ratings {
            break 'sweep;
        }
        for i in 0..spec.n_items {
            if ratings.len() >= spec.n_ratings {
                break 'sweep;
            }
            if seen.insert((u as u32, i as u32)) {
                let value = rate(u, i, &mut rng);
                ratings.push(((u + 1) as i64, (i + 1) as i64, value));
            }
        }
    }

    // Users / items / cities.
    let kind = if spec.with_locations {
        "Business"
    } else {
        "Movie"
    };
    let cities: Vec<CityRow> = if spec.with_locations {
        // 4 × 4 grid of city rectangles tiling the world.
        let cell = WORLD / 4.0;
        (0..16)
            .map(|c| {
                let (gx, gy) = ((c % 4) as f64, (c / 4) as f64);
                CityRow {
                    name: CITY_NAMES[c].to_owned(),
                    rect: (gx * cell, gy * cell, (gx + 1.0) * cell, (gy + 1.0) * cell),
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    let users = (0..spec.n_users)
        .map(|u| UserRow {
            uid: (u + 1) as i64,
            name: format!("user-{}", u + 1),
            city: CITY_NAMES[u % CITY_NAMES.len()].to_owned(),
        })
        .collect();
    let items = (0..spec.n_items)
        .map(|i| {
            let location = spec
                .with_locations
                .then(|| (rng.gen_range(0.0..WORLD), rng.gen_range(0.0..WORLD)));
            let city = match location {
                Some((x, y)) => {
                    let cell = WORLD / 4.0;
                    let gx = ((x / cell) as usize).min(3);
                    let gy = ((y / cell) as usize).min(3);
                    CITY_NAMES[gy * 4 + gx].to_owned()
                }
                None => String::new(),
            };
            ItemRow {
                iid: (i + 1) as i64,
                name: format!("{kind}-{}", i + 1),
                genre: GENRES[i % spec.n_genres.clamp(1, GENRES.len())].to_owned(),
                location,
                city,
            }
        })
        .collect();

    Dataset {
        name: spec.name.clone(),
        users,
        items,
        ratings,
        cities,
    }
}

impl Dataset {
    /// Ratings as `recdb_algo` inputs.
    pub fn algo_ratings(&self) -> Vec<recdb_algo::Rating> {
        self.ratings
            .iter()
            .map(|&(u, i, r)| recdb_algo::Rating::new(u, i, r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn small() -> Dataset {
        generate(&SyntheticSpec::movielens().scaled(0.05))
    }

    #[test]
    fn exact_cardinalities() {
        let d = small();
        let spec = SyntheticSpec::movielens().scaled(0.05);
        assert_eq!(d.users.len(), spec.n_users);
        assert_eq!(d.items.len(), spec.n_items);
        assert_eq!(d.ratings.len(), spec.n_ratings);
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let d = small();
        let mut seen = HashSet::new();
        for &(u, i, r) in &d.ratings {
            assert!(seen.insert((u, i)), "duplicate pair ({u},{i})");
            assert!((1..=d.users.len() as i64).contains(&u));
            assert!((1..=d.items.len() as i64).contains(&i));
            assert!((1.0..=5.0).contains(&r), "rating {r} out of scale");
            assert_eq!(r * 2.0, (r * 2.0).round(), "half-star steps");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.ratings, b.ratings);
        assert_eq!(a.items, b.items);
        let mut other_seed = SyntheticSpec::movielens().scaled(0.05);
        other_seed.seed = 1;
        let c = generate(&other_seed);
        assert_ne!(a.ratings, c.ratings);
    }

    #[test]
    fn item_popularity_is_skewed() {
        let d = small();
        let mut counts: HashMap<i64, usize> = HashMap::new();
        for &(_, i, _) in &d.ratings {
            *counts.entry(i).or_default() += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10% of items should hold well over 10% of ratings.
        let top = sorted.len() / 10;
        let top_mass: usize = sorted[..top].iter().sum();
        let frac = top_mass as f64 / d.ratings.len() as f64;
        assert!(frac > 0.25, "top-decile mass only {frac}");
    }

    #[test]
    fn ratings_have_learnable_structure() {
        // ItemCosCF on a train split should beat global-mean guessing.
        use recdb_algo::eval::{evaluate, split};
        use recdb_algo::{model::TrainConfig, Algorithm};
        let d = generate(&SyntheticSpec::movielens().scaled(0.1));
        let (train, test) = split(&d.algo_ratings(), 0.2, 7);
        let mean = train.iter().map(|r| r.value).sum::<f64>() / train.len() as f64;
        let baseline_rmse =
            (test.iter().map(|r| (r.value - mean).powi(2)).sum::<f64>() / test.len() as f64).sqrt();
        let acc = evaluate(Algorithm::ItemCosCF, train, &test, &TrainConfig::default()).unwrap();
        assert!(
            acc.rmse < baseline_rmse,
            "CF rmse {} ≥ mean-baseline {}",
            acc.rmse,
            baseline_rmse
        );
    }

    #[test]
    fn yelp_has_locations_and_cities() {
        let d = generate(&SyntheticSpec::yelp().scaled(0.05));
        assert_eq!(d.cities.len(), 16);
        for item in &d.items {
            let (x, y) = item.location.expect("POI location");
            assert!((0.0..WORLD).contains(&x) && (0.0..WORLD).contains(&y));
            // The assigned city's rectangle contains the location.
            let city = d.cities.iter().find(|c| c.name == item.city).unwrap();
            let (ax, ay, bx, by) = city.rect;
            assert!(x >= ax && x <= bx && y >= ay && y <= by);
        }
        // City rectangles tile the world without overlap.
        let area: f64 = d
            .cities
            .iter()
            .map(|c| (c.rect.2 - c.rect.0) * (c.rect.3 - c.rect.1))
            .sum();
        assert!((area - WORLD * WORLD).abs() < 1e-6);
    }

    #[test]
    fn movie_dataset_has_no_locations() {
        let d = small();
        assert!(d.cities.is_empty());
        assert!(d.items.iter().all(|i| i.location.is_none()));
        assert!(d.items.iter().all(|i| !i.genre.is_empty()));
    }

    #[test]
    fn dense_spec_falls_back_to_sweep() {
        let spec = SyntheticSpec {
            name: "dense".into(),
            n_users: 10,
            n_items: 10,
            n_ratings: 100, // the full matrix
            ..SyntheticSpec::movielens()
        };
        let d = generate(&spec);
        assert_eq!(d.ratings.len(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot generate")]
    fn impossible_spec_panics() {
        let spec = SyntheticSpec {
            n_users: 2,
            n_items: 2,
            n_ratings: 5,
            ..SyntheticSpec::movielens()
        };
        let _ = generate(&spec);
    }
}
