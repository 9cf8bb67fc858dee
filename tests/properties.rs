//! Property-based tests over the full stack.
//!
//! The central property is **optimizer soundness**: for arbitrary ratings
//! data and arbitrary pushable predicates, the naive plan (full Recommend,
//! Filter on top — the paper's Figure 3(a)) and the optimized plan
//! (FilterRecommend / JoinRecommend) must return exactly the same rows.

use proptest::prelude::*;
use recdb::core::RecDb;
use recdb::exec::{build_logical, execute_plan, optimize, ExecContext, ResultSet};
use recdb::guard::QueryGuard;
use recdb::sql::{parse, Statement};
use recdb::storage::Value;

/// Arbitrary small ratings universe: distinct (user, item) pairs with
/// half-star ratings.
fn ratings_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64)>> {
    proptest::collection::btree_set((1i64..12, 1i64..12), 5..60).prop_flat_map(|pairs| {
        let pairs: Vec<(i64, i64)> = pairs.into_iter().collect();
        let n = pairs.len();
        proptest::collection::vec(2u8..=10, n).prop_map(move |halves| {
            pairs
                .iter()
                .zip(&halves)
                .map(|(&(u, i), &h)| (u, i, h as f64 / 2.0))
                .collect()
        })
    })
}

fn db_with(ratings: &[(i64, i64, f64)], algorithm: &str) -> RecDb {
    let db = RecDb::new();
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .unwrap();
    let values: Vec<String> = ratings
        .iter()
        .map(|(u, i, r)| format!("({u}, {i}, {r})"))
        .collect();
    db.execute(&format!("INSERT INTO ratings VALUES {}", values.join(", ")))
        .unwrap();
    db.execute(&format!(
        "CREATE RECOMMENDER prop ON ratings USERS FROM uid ITEMS FROM iid \
         RATINGS FROM ratingval USING {algorithm}"
    ))
    .unwrap();
    db
}

fn run_naive_and_optimized(db: &RecDb, sql: &str) -> (ResultSet, ResultSet) {
    let Statement::Select(select) = parse(sql).unwrap() else {
        panic!("not a select")
    };
    let catalog = db.catalog();
    let ctx = ExecContext::new(&catalog, db, recdb::guard::QueryGuard::unlimited());
    let naive = build_logical(&select, &catalog).unwrap();
    let optimized = optimize(build_logical(&select, &catalog).unwrap());
    (
        execute_plan(&naive, &ctx).unwrap(),
        execute_plan(&optimized, &ctx).unwrap(),
    )
}

fn canonical(r: &ResultSet) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = r
        .rows()
        .iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| match v {
                    // Round floats so both plans quantize identically.
                    Value::Float(f) => format!("{:.9}", f),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Figure 3(a) naive plan ≡ optimized FilterRecommend plan, for
    /// arbitrary data and arbitrary uid/iid/rating predicates.
    #[test]
    fn optimizer_preserves_filter_semantics(
        ratings in ratings_strategy(),
        user in 1i64..12,
        items in proptest::collection::vec(1i64..12, 1..5),
        min_rating in 0u8..6,
    ) {
        let db = db_with(&ratings, "ItemCosCF");
        let item_list: Vec<String> = items.iter().map(i64::to_string).collect();
        let sql = format!(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = {user} AND R.iid IN ({}) AND R.ratingval >= {}",
            item_list.join(", "),
            min_rating,
        );
        let (naive, optimized) = run_naive_and_optimized(&db, &sql);
        prop_assert_eq!(canonical(&naive), canonical(&optimized));
    }

    /// Naive join plan ≡ JoinRecommend plan, for arbitrary data.
    #[test]
    fn optimizer_preserves_join_semantics(
        ratings in ratings_strategy(),
        user in 1i64..12,
    ) {
        let db = db_with(&ratings, "ItemCosCF");
        db.execute("CREATE TABLE movies (mid INT, genre TEXT)").unwrap();
        let rows: Vec<String> = (1..12)
            .map(|m| format!("({m}, '{}')", if m % 2 == 0 { "Action" } else { "Drama" }))
            .collect();
        db.execute(&format!("INSERT INTO movies VALUES {}", rows.join(", ")))
            .unwrap();
        let sql = format!(
            "SELECT R.uid, R.iid, R.ratingval, M.genre \
             FROM ratings AS R, movies AS M \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = {user} AND M.mid = R.iid AND M.genre = 'Action'"
        );
        let (naive, optimized) = run_naive_and_optimized(&db, &sql);
        prop_assert_eq!(canonical(&naive), canonical(&optimized));
    }

    /// An index join returns exactly the rows a hash join over an
    /// index-less copy of the inner table returns, for arbitrary data, a
    /// delete, and `FLOAT` probes of an `INT` and a `FLOAT` column (`3.0`
    /// joins `3`, `2.5` joins nothing there).
    #[test]
    fn index_join_equals_hash_join(
        ratings in ratings_strategy(),
        deleted_user in 1i64..12,
        probes in proptest::collection::vec(0u8..26, 1..12),
    ) {
        let db = RecDb::new();
        let values: Vec<String> = ratings
            .iter()
            .map(|(u, i, r)| format!("({u}, {i}, {r})"))
            .collect();
        let each = |sql: &str| {
            for table in ["indexed", "plain"] {
                db.execute(&sql.replace("{t}", table)).unwrap();
            }
        };
        // One index fills with the rows, the other is backfilled.
        each("CREATE TABLE {t} (uid INT, iid INT, ratingval FLOAT)");
        db.execute("CREATE INDEX indexed_iid ON indexed (iid)").unwrap();
        each(&format!("INSERT INTO {{t}} VALUES {}", values.join(", ")));
        db.execute("CREATE INDEX indexed_val ON indexed (ratingval)").unwrap();
        each(&format!("DELETE FROM {{t}} WHERE uid = {deleted_user}"));
        db.execute("CREATE TABLE probes (k FLOAT)").unwrap();
        let keys: Vec<String> = probes.iter().map(|&h| format!("({})", f64::from(h) / 2.0)).collect();
        db.execute(&format!("INSERT INTO probes VALUES {}", keys.join(", "))).unwrap();
        for column in ["iid", "ratingval"] {
            let join = |table: &str| {
                format!("SELECT P.k, R.uid, R.iid FROM probes AS P, {table} AS R WHERE P.k = R.{column}")
            };
            let plan = db.query(&format!("EXPLAIN ANALYZE {}", join("indexed"))).unwrap();
            let operators: Vec<String> = plan.rows().iter().map(|t| t.values()[0].to_string()).collect();
            prop_assert!(operators.iter().any(|op| op.trim_start().starts_with("IndexJoin")), "{:?}", operators);
            let indexed = db.query(&join("indexed")).unwrap();
            let plain = db.query(&join("plain")).unwrap();
            prop_assert_eq!(canonical(&indexed), canonical(&plain), "{}", column);
        }
    }

    /// The materialized-index path returns the same rows as the online
    /// path for arbitrary data.
    #[test]
    fn index_path_equals_online_path(
        ratings in ratings_strategy(),
        user in 1i64..12,
    ) {
        let db = db_with(&ratings, "ItemCosCF");
        let sql = format!(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = {user}"
        );
        let online = db.query(&sql).unwrap();
        db.materialize("prop").unwrap();
        let indexed = db.query(&sql).unwrap();
        prop_assert_eq!(canonical(&online), canonical(&indexed));
    }

    /// Recommendations never include pairs the user already rated, and
    /// every score is finite — for every algorithm.
    #[test]
    fn no_rated_pairs_and_finite_scores(
        ratings in ratings_strategy(),
        algo_idx in 0usize..6,
    ) {
        let algorithm = recdb::algo::Algorithm::ALL[algo_idx];
        let db = db_with(&ratings, algorithm.name());
        let rows = db.query(&format!(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING {algorithm}"
        )).unwrap();
        let rated: std::collections::HashSet<(i64, i64)> =
            ratings.iter().map(|&(u, i, _)| (u, i)).collect();
        for t in rows.rows() {
            let u = t.get(0).unwrap().as_int().unwrap();
            let i = t.get(1).unwrap().as_int().unwrap();
            let s = t.get(2).unwrap().as_f64().unwrap();
            prop_assert!(!rated.contains(&(u, i)), "({u},{i}) was already rated");
            prop_assert!(s.is_finite(), "score {s} not finite");
        }
    }

    /// INSERT → SELECT roundtrip: arbitrary values survive the slotted
    /// page encoding and come back unchanged through SQL.
    #[test]
    fn sql_value_roundtrip(
        a in any::<i64>(),
        b in -1e6f64..1e6,
        s in "[a-zA-Z0-9 ]{0,24}",
        flag in any::<bool>(),
        x in -1e3f64..1e3,
        y in -1e3f64..1e3,
    ) {
        let db = RecDb::new();
        db.execute("CREATE TABLE t (a INT, b FLOAT, s TEXT, f BOOL, p POINT)").unwrap();
        db.execute(&format!(
            "INSERT INTO t VALUES ({a}, {b:?}, '{s}', {flag}, POINT({x:?}, {y:?}))"
        )).unwrap();
        let rows = db.query("SELECT * FROM t").unwrap();
        prop_assert_eq!(rows.len(), 1);
        prop_assert_eq!(rows.value(0, "a").unwrap(), &Value::Int(a));
        prop_assert_eq!(rows.value(0, "b").unwrap(), &Value::Float(b));
        prop_assert_eq!(rows.value(0, "s").unwrap(), &Value::Text(s));
        prop_assert_eq!(rows.value(0, "f").unwrap(), &Value::Bool(flag));
        prop_assert_eq!(rows.value(0, "p").unwrap(), &Value::Point(x, y));
    }

    /// ORDER BY ... DESC LIMIT k returns the k largest values in order,
    /// whatever the data.
    #[test]
    fn order_by_limit_is_topk(
        ratings in ratings_strategy(),
        k in 1usize..8,
    ) {
        let db = db_with(&ratings, "ItemCosCF");
        let all = db.query(
            "SELECT R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF",
        ).unwrap();
        let mut scores: Vec<f64> = all
            .rows()
            .iter()
            .map(|t| t.get(0).unwrap().as_f64().unwrap())
            .collect();
        scores.sort_by(|a, b| b.total_cmp(a));
        scores.truncate(k);
        let top = db.query(&format!(
            "SELECT R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             ORDER BY R.ratingval DESC LIMIT {k}"
        )).unwrap();
        let got: Vec<f64> = top
            .rows()
            .iter()
            .map(|t| t.get(0).unwrap().as_f64().unwrap())
            .collect();
        prop_assert_eq!(got.len(), scores.len());
        for (g, e) in got.iter().zip(&scores) {
            prop_assert!((g - e).abs() < 1e-12, "{:?} vs {:?}", got, scores);
        }
    }
}

/// Arbitrary [`Value`] of every variant, including NULL, non-finite
/// floats, and unicode text.
fn float_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        float_strategy().prop_map(Value::Float),
        "[a-zA-Z0-9 '%\\\\]{0,24}".prop_map(Value::Text),
        // Unicode text: arbitrary scalar values (surrogate gaps fold to
        // U+FFFD), exercising multi-byte UTF-8 in the length-prefixed
        // encoding.
        proptest::collection::vec(any::<u32>(), 0..12).prop_map(|cs| {
            Value::Text(
                cs.into_iter()
                    .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}'))
                    .collect(),
            )
        }),
        any::<bool>().prop_map(Value::Bool),
        (float_strategy(), float_strategy()).prop_map(|(x, y)| Value::Point(x, y)),
        (
            float_strategy(),
            float_strategy(),
            float_strategy(),
            float_strategy()
        )
            .prop_map(|(a, b, c, d)| Value::Rect(a, b, c, d)),
    ]
}

/// Float-aware equality: the binary encoding must preserve exact bit
/// patterns (NaN payloads, signed zero), which `PartialEq` can't check.
fn bits_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Point(x0, y0), Value::Point(x1, y1)) => {
            x0.to_bits() == x1.to_bits() && y0.to_bits() == y1.to_bits()
        }
        (Value::Rect(a0, b0, c0, d0), Value::Rect(a1, b1, c1, d1)) => {
            a0.to_bits() == a1.to_bits()
                && b0.to_bits() == b1.to_bits()
                && c0.to_bits() == c1.to_bits()
                && d0.to_bits() == d1.to_bits()
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slotted-page binary encoding round-trips arbitrary tuples of
    /// every `Value` variant exactly — sizes agree, trailing bytes are
    /// not consumed, and float bit patterns survive. This is the codec
    /// the WAL and the checkpointed page files both rely on.
    #[test]
    fn tuple_binary_encoding_round_trips(
        values in proptest::collection::vec(value_strategy(), 0..12),
    ) {
        use recdb::storage::Tuple;
        let tuple = Tuple::new(values.clone());
        let mut buf = Vec::new();
        tuple.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), tuple.encoded_size(), "size accounting");
        // Decode must report exactly how many bytes it consumed, even
        // with unrelated bytes following (tuples are packed in pages).
        buf.extend_from_slice(&[0xEE, 0xDD, 0xCC]);
        let (decoded, used) = Tuple::decode(&buf).expect("decode");
        prop_assert_eq!(used, tuple.encoded_size());
        prop_assert_eq!(decoded.values().len(), values.len());
        for (got, want) in decoded.values().iter().zip(&values) {
            prop_assert!(bits_equal(got, want), "{:?} vs {:?}", got, want);
        }
    }
}

/// Possibly-empty ratings universe, small enough that worker shards
/// regularly degenerate (n = 0, n = 1, n < threads).
fn sparse_ratings_strategy() -> impl Strategy<Value = Vec<(i64, i64, f64)>> {
    proptest::collection::btree_set((1i64..10, 1i64..10), 0..40).prop_flat_map(|pairs| {
        let pairs: Vec<(i64, i64)> = pairs.into_iter().collect();
        let n = pairs.len();
        proptest::collection::vec(2u8..=10, n).prop_map(move |halves| {
            pairs
                .iter()
                .zip(&halves)
                .map(|(&(u, i), &h)| (u, i, h as f64 / 2.0))
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel neighborhood build is bit-identical to the serial one
    /// for arbitrary data, thread counts, and truncation — including the
    /// shard-boundary edge cases (no ratings at all, single entity, more
    /// threads than entities, entities with empty vectors).
    #[test]
    fn parallel_neighborhood_build_matches_serial(
        ratings in sparse_ratings_strategy(),
        threads in 2usize..9,
        max_neighbors in proptest::option::of(1usize..6),
    ) {
        use recdb::algo::neighborhood::{build_item_neighborhood, build_user_neighborhood};
        use recdb::algo::{NeighborhoodParams, Rating, RatingsMatrix};
        let m = RatingsMatrix::from_ratings(
            ratings.iter().map(|&(u, i, r)| Rating::new(u, i, r)),
        );
        let serial = NeighborhoodParams {
            max_neighbors,
            threads: 1,
            ..NeighborhoodParams::cosine()
        };
        let parallel = NeighborhoodParams { threads, ..serial };
        prop_assert_eq!(
            build_item_neighborhood(&m, &parallel, &QueryGuard::unlimited()).unwrap(),
            build_item_neighborhood(&m, &serial, &QueryGuard::unlimited()).unwrap()
        );
        prop_assert_eq!(
            build_user_neighborhood(&m, &parallel, &QueryGuard::unlimited()).unwrap(),
            build_user_neighborhood(&m, &serial, &QueryGuard::unlimited()).unwrap()
        );
    }

    /// Bounded top-k selection ≡ stable sort + truncate, for arbitrary
    /// duplicate-heavy keys and any k (0, > len, …).
    #[test]
    fn bounded_topk_equals_stable_sort(
        keys in proptest::collection::vec(0u8..8, 0..100),
        k in 0usize..120,
    ) {
        let items: Vec<(u8, usize)> =
            keys.into_iter().enumerate().map(|(i, v)| (v, i)).collect();
        let got = recdb::algo::top_k_by(items.clone(), k, |a, b| a.0.cmp(&b.0));
        let mut want = items;
        want.sort_by_key(|a| a.0);
        want.truncate(k);
        prop_assert_eq!(got, want);
    }
}
