//! Bounded-memory walkthrough: run the same workload on an engine
//! squeezed into an 8-frame buffer pool and on an unbounded one, show
//! the answers are identical, and read the pool counters that reveal
//! the difference — hit rate and evictions.
//!
//! Run with: `cargo run --release --example bounded_memory`

use recdb::core::{RecDb, RecDbConfig};

/// Build a ratings world big enough that its heap pages plus the two
/// RecScoreIndex B+-trees cannot fit in 8 frames.
fn load_world(db: &RecDb) {
    db.execute("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)")
        .expect("create table");
    let mut chunk = Vec::new();
    for u in 0..120i64 {
        for i in 0..80i64 {
            if (u + i) % 4 == 0 {
                continue; // held out so every user has unseen items
            }
            let val = f64::from(((u * 7 + i * 3) % 9 + 1) as i32) / 2.0;
            chunk.push(format!("({u}, {i}, {val})"));
            if chunk.len() == 500 {
                db.execute(&format!("INSERT INTO ratings VALUES {}", chunk.join(", ")))
                    .expect("insert chunk");
                chunk.clear();
            }
        }
    }
    if !chunk.is_empty() {
        db.execute(&format!("INSERT INTO ratings VALUES {}", chunk.join(", ")))
            .expect("insert tail");
    }
    db.execute(
        "CREATE RECOMMENDER Rec ON ratings \
         USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF",
    )
    .expect("create recommender");
    db.materialize("Rec").expect("materialize");
}

fn top5(db: &RecDb, uid: i64) -> Vec<String> {
    let rows = db
        .query(&format!(
            "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
             RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
             WHERE R.uid = {uid} ORDER BY R.ratingval DESC LIMIT 5"
        ))
        .expect("recommend");
    (0..rows.len())
        .map(|i| {
            format!(
                "item {} scored {}",
                rows.value(i, "iid").expect("iid"),
                rows.value(i, "ratingval").expect("ratingval")
            )
        })
        .collect()
}

fn main() {
    // Eight 8 KiB frames: ~64 KiB of resident pages, however large the
    // table and index grow. The unbounded engine is the control.
    let bounded = RecDb::with_config(RecDbConfig {
        buffer_pool_pages: 8,
        ..RecDbConfig::default()
    });
    let unbounded = RecDb::with_config(RecDbConfig {
        buffer_pool_pages: usize::MAX,
        ..RecDbConfig::default()
    });
    load_world(&bounded);
    load_world(&unbounded);

    let pages = unbounded
        .catalog()
        .table("ratings")
        .expect("ratings")
        .heap()
        .page_count();
    println!("ratings heap: {pages} pages of 8 KiB; bounded pool: 8 frames\n");

    for uid in [1, 17, 63] {
        let (b, u) = (top5(&bounded, uid), top5(&unbounded, uid));
        assert_eq!(b, u, "answers must not depend on pool size");
        println!("user {uid}: {}", b.join(", "));
    }
    println!("\nbounded and unbounded answers identical ✓");

    // The pool counters tell the residency story the identical answers
    // hide (full catalog: docs/OBSERVABILITY.md; sizing: docs/STORAGE.md).
    for (name, db) in [("bounded(8)", &bounded), ("unbounded", &unbounded)] {
        let pool = db.buffer_pool();
        let (hits, misses) = (pool.hits(), pool.misses());
        println!(
            "{name:<12} hits={hits:<7} misses={misses:<6} hit rate={:.1}%  \
             evictions={}",
            100.0 * hits as f64 / (hits + misses).max(1) as f64,
            pool.evictions(),
        );
    }
    assert!(bounded.buffer_pool().evictions() > 0);
    println!("\n8-frame engine really evicted ✓");
}
