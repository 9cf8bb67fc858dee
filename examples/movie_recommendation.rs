//! Movie recommendation at MovieLens scale (§VI's first scenario).
//!
//! Loads a scaled MovieLens-like dataset, creates recommenders for three
//! algorithms, and walks through the paper's query repertoire: plain
//! prediction (Query 2 shape), selective prediction (Query 3),
//! genre-filtered join (Query 4), and SVD top-k with a join (Query 5) —
//! printing the optimizer's plan for each so the FilterRecommend /
//! JoinRecommend / IndexRecommend choices are visible.
//!
//! ```text
//! cargo run --release --example movie_recommendation
//! ```

use recdb::core::RecDb;
use recdb::datasets::SyntheticSpec;

fn show(db: &mut RecDb, title: &str, sql: &str) {
    println!("== {title}\n-- {sql}");
    println!("{}", db.explain(sql).expect("explain"));
    let rows = db.query(sql).expect("query");
    println!("{rows}");
}

fn main() {
    let mut db = RecDb::new();
    // A 10%-scale MovieLens keeps the example snappy in debug builds.
    let dataset = recdb::datasets::generate(&SyntheticSpec::movielens().scaled(0.1));
    dataset.load_into(&mut db).expect("load dataset");
    println!(
        "loaded {} users, {} movies, {} ratings\n",
        dataset.users.len(),
        dataset.items.len(),
        dataset.ratings.len()
    );

    for algo in ["ItemCosCF", "ItemPearCF", "SVD"] {
        db.execute(&format!(
            "CREATE RECOMMENDER movies_{algo} ON ratings USERS FROM uid \
             ITEMS FROM iid RATINGS FROM ratingval USING {algo}"
        ))
        .expect("create recommender");
        let rec = db.recommender(&format!("movies_{algo}")).unwrap();
        println!("built {algo:<11} model in {:?}", rec.build_time());
    }
    println!();

    // Query 3 shape: predict user 1's ratings for five specific movies.
    show(
        &mut db,
        "Predicted ratings for five specific movies (FilterRecommend)",
        "SELECT R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
         WHERE R.uid = 150 AND R.iid IN (1, 2, 3, 4, 5)",
    );

    // Query 4 shape: genre-filtered join (JoinRecommend).
    show(
        &mut db,
        "Action-movie recommendations with names (JoinRecommend)",
        "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
         WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Action' \
         ORDER BY R.ratingval DESC LIMIT 5",
    );

    // Query 5 shape: SVD top-5 Action movies. Materialize user 1 first so
    // the planner can pick IndexRecommend.
    db.recommender("movies_SVD").unwrap().materialize_user(1);
    show(
        &mut db,
        "SVD top-5 (IndexRecommend over the pre-computed score index)",
        "SELECT R.iid, R.ratingval FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD \
         WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5",
    );

    // Recommendation analytics: aggregates compose with RECOMMEND.
    show(
        &mut db,
        "Analytics: recommendation volume and mean score per user (GROUP BY)",
        "SELECT R.uid, COUNT(*) AS n, AVG(R.ratingval) AS mean \
         FROM ratings AS R \
         RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
         WHERE R.uid IN (1, 2, 3, 4, 5) \
         GROUP BY R.uid ORDER BY mean DESC",
    );
    show(
        &mut db,
        "Analytics: catalog composition (plain SQL aggregate)",
        "SELECT genre, COUNT(*) AS movies FROM movies \
         GROUP BY genre ORDER BY movies DESC LIMIT 5",
    );

    // The non-personalized fallback: same ranking for everyone.
    db.execute(
        "CREATE RECOMMENDER movies_pop ON ratings USERS FROM uid \
         ITEMS FROM iid RATINGS FROM ratingval USING Popularity",
    )
    .expect("popularity recommender");

    // Algorithms disagree — show the top picks side by side.
    println!("== Top pick per algorithm for user 1");
    for algo in ["ItemCosCF", "ItemPearCF", "SVD", "Popularity"] {
        let rows = db
            .query(&format!(
                "SELECT R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING {algo} \
                 WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 1"
            ))
            .expect("query");
        let item = rows.value(0, "iid").map(|v| v.to_string());
        let score = rows.value(0, "ratingval").map(|v| v.to_string());
        println!(
            "  {algo:<11} -> movie {} (predicted {})",
            item.unwrap_or_else(|| "-".into()),
            score.unwrap_or_else(|| "-".into())
        );
    }
}
