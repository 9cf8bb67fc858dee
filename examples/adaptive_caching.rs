//! The adaptive materialization manager in action (§IV-C/D, Algorithm 4).
//!
//! Drives a skewed workload — a handful of hot users issue most queries
//! while a handful of hot items absorb most rating inserts — then runs the
//! cache manager and shows:
//!
//! 1. which user/item pairs it admits/evicts (the hotness decision),
//! 2. the top-k latency difference between a fully materialized user
//!    (IndexRecommend) and an online user (FilterRecommend + Sort),
//! 3. the demand/consumption-rate histograms behind the decision
//!    (the paper's Table I, live).
//!
//! ```text
//! cargo run --release --example adaptive_caching
//! ```

use recdb::core::{RecDb, RecDbConfig};
use recdb::datasets::SyntheticSpec;
use std::time::Instant;

fn main() {
    let mut db = RecDb::with_config(RecDbConfig {
        hotness_threshold: 0.5,
        maintenance_threshold_pct: f64::INFINITY,
        ..RecDbConfig::default()
    });
    let dataset = recdb::datasets::generate(&SyntheticSpec::movielens().scaled(0.2));
    dataset.load_into(&mut db).expect("load dataset");
    db.execute(
        "CREATE RECOMMENDER cached ON ratings USERS FROM uid ITEMS FROM iid \
         RATINGS FROM ratingval USING ItemCosCF",
    )
    .expect("create recommender");

    // Skewed workload: users 1–5 are hot (many queries); five *tail*
    // items churn (many new ratings from new users). Tail items are
    // mostly unseen by the hot users, so hot pairs are materialization
    // candidates (Algorithm 4 only considers unseen pairs).
    let n_items = dataset.items.len() as i64;
    println!(
        "running a skewed workload (hot users 1-5, churning items {}..{})...",
        n_items - 5,
        n_items - 1
    );
    for round in 0..60 {
        let user = (round % 5) + 1;
        db.query(&format!(
            "SELECT R.iid FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = {user} LIMIT 1"
        ))
        .expect("workload query");
        let item = n_items - 5 + (round % 5);
        db.execute(&format!(
            "INSERT INTO ratings VALUES ({}, {item}, 4.0)",
            10_000 + round
        ))
        .expect("workload insert");
    }
    // One cold query so user 50 appears in the histogram with low demand.
    db.query(
        "SELECT R.iid FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
         WHERE R.uid = 50 LIMIT 1",
    )
    .expect("cold query");

    // Run Algorithm 4.
    let decision = db.run_cache_manager("cached").expect("cache manager");
    println!(
        "cache manager: admitted {} pairs, evicted {} pairs",
        decision.admitted.len(),
        decision.evicted.len()
    );
    let sample: Vec<_> = decision.admitted.iter().take(8).collect();
    println!("first admitted pairs (user, item): {sample:?}");

    // The live Table I: demand/consumption rates behind the decision.
    let rec = db.recommender("cached").unwrap();
    rec.with_stats(|stats| {
        println!("\nUsers histogram (hot vs cold):");
        for u in [1i64, 2, 50] {
            if let Some(s) = stats.user(u) {
                println!(
                    "  user {u:>3}: QC={:<4} D_u={:.4} (D_MAX={:.4})",
                    s.query_count,
                    s.demand_rate,
                    stats.d_max()
                );
            }
        }
        println!("Items histogram:");
        for i in [n_items - 5, n_items - 4, n_items - 3] {
            if let Some(s) = stats.item(i) {
                println!(
                    "  item {i:>3}: UC={:<4} P_i={:.4} (P_MAX={:.4})",
                    s.update_count,
                    s.consumption_rate,
                    stats.p_max()
                );
            }
        }
    });
    println!(
        "\nmaterialized entries in RecScoreIndex: {}",
        rec.materialized_entries()
    );

    // Latency comparison: materialize user 1 fully, leave user 50 online.
    rec.materialize_user(1);
    let topk = |db: &RecDb, user: i64| {
        let sql = format!(
            "SELECT R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = {user} ORDER BY R.ratingval DESC LIMIT 10"
        );
        let t = Instant::now();
        for _ in 0..20 {
            db.query(&sql).expect("topk");
        }
        t.elapsed() / 20
    };
    let hot = topk(&db, 1);
    let cold = topk(&db, 50);
    println!("\ntop-10 latency, materialized user 1 (IndexRecommend): {hot:?}");
    println!("top-10 latency, online user 50 (FilterRecommend+Sort): {cold:?}");
    println!(
        "speedup from pre-computation: {:.1}x",
        cold.as_secs_f64() / hot.as_secs_f64().max(1e-12)
    );
}
