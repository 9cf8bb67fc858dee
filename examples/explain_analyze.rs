//! Inspecting a query: `EXPLAIN ANALYZE` plan trees and engine metrics.
//!
//! Builds the quickstart's Figure 1 movie world, then profiles the paper's
//! top-k query twice — once served online (FilterRecommend selecting the
//! top k itself, `top-k=10` on its line) and once from the materialized
//! RecScoreIndex (Limit over IndexRecommend) — so the plan
//! trees show both access paths with their actual row counts and timings.
//! Ends with the engine-wide Prometheus metrics dump.
//!
//! ```text
//! cargo run --example explain_analyze
//! ```

use recdb::core::RecDb;

fn print_plan(db: &mut RecDb, sql: &str) {
    let plan = db.query(sql).expect("explain analyze");
    for i in 0..plan.len() {
        println!("{}", plan.value(i, "plan").expect("plan column"));
    }
}

fn main() {
    let mut db = RecDb::new();
    db.execute_script(
        "CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
         INSERT INTO ratings VALUES
            (1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5), (2, 3, 2.0),
            (3, 2, 1.0), (3, 1, 2.0), (4, 2, 1.0);
         CREATE RECOMMENDER GeneralRec ON ratings \
            USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval \
            USING ItemCosCF;",
    )
    .expect("schema + recommender");

    let sql = "EXPLAIN ANALYZE SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
               RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
               WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10";

    // Online path: scores are computed per query and ranked as they are
    // computed; only the best ten become tuples.
    println!("-- {sql}\n");
    println!("Before materialization (online FilterRecommend):");
    print_plan(&mut db, sql);

    // Materialize the score index; the optimizer now picks IndexRecommend,
    // which serves pre-computed scores in descending order (no sort).
    db.materialize("GeneralRec").expect("materialize");
    println!("\nAfter materialization (IndexRecommend):");
    print_plan(&mut db, sql);

    // Everything the engine counted along the way, in Prometheus text
    // format: statements by kind, index hits/misses, model build times...
    println!("\n-- RecDb::render_metrics()\n");
    print!("{}", db.render_metrics());
}
