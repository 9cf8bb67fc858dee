//! Loading generated datasets into a [`RecDb`] instance.
//!
//! The table layouts mirror the paper's Figure 1 (movies) and §V (POIs):
//!
//! * `users(uid INT, name TEXT, city TEXT)`
//! * `movies(mid INT, name TEXT, genre TEXT)` — non-located datasets
//! * `businesses(bid INT, name TEXT, category TEXT, loc POINT, city TEXT)`
//!   plus `cities(name TEXT, geom RECT)` — located datasets
//! * `ratings(uid INT, iid INT, ratingval FLOAT)`

use crate::generate::Dataset;
use recdb_core::{EngineResult, RecDb};
use recdb_storage::{Tuple, Value};

/// Names of the tables a dataset was loaded into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedTables {
    /// The users table.
    pub users: String,
    /// The items table (`movies` or `businesses`).
    pub items: String,
    /// The ratings table.
    pub ratings: String,
    /// The cities table, when the dataset has locations.
    pub cities: Option<String>,
}

impl Dataset {
    /// Create the tables and bulk-load the rows. Table names are fixed by
    /// the layout above; loading twice into one engine is an error (drop
    /// the tables first).
    pub fn load_into(&self, db: &mut RecDb) -> EngineResult<LoadedTables> {
        let located = self.items.iter().any(|i| i.location.is_some());
        let items_table = if located { "businesses" } else { "movies" };

        // Through SQL, so a durable engine logs the tables like their rows.
        let items_ddl = if located {
            "CREATE TABLE businesses (bid INT, name TEXT, category TEXT, loc POINT, city TEXT);
             CREATE TABLE cities (name TEXT, geom RECT)"
        } else {
            "CREATE TABLE movies (mid INT, name TEXT, genre TEXT)"
        };
        db.execute_script(&format!(
            "CREATE TABLE users (uid INT, name TEXT, city TEXT);
             {items_ddl};
             CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"
        ))?;

        let user_rows: Vec<Tuple> = self
            .users
            .iter()
            .map(|u| {
                Tuple::new(vec![
                    Value::Int(u.uid),
                    Value::Text(u.name.clone()),
                    Value::Text(u.city.clone()),
                ])
            })
            .collect();
        db.insert_tuples("users", user_rows)?;

        let item_rows: Vec<Tuple> = self
            .items
            .iter()
            .map(|i| {
                if located {
                    let (x, y) = i.location.expect("located dataset");
                    Tuple::new(vec![
                        Value::Int(i.iid),
                        Value::Text(i.name.clone()),
                        Value::Text(i.genre.clone()),
                        Value::Point(x, y),
                        Value::Text(i.city.clone()),
                    ])
                } else {
                    Tuple::new(vec![
                        Value::Int(i.iid),
                        Value::Text(i.name.clone()),
                        Value::Text(i.genre.clone()),
                    ])
                }
            })
            .collect();
        db.insert_tuples(items_table, item_rows)?;

        if located {
            let city_rows: Vec<Tuple> = self
                .cities
                .iter()
                .map(|c| {
                    Tuple::new(vec![
                        Value::Text(c.name.clone()),
                        Value::Rect(c.rect.0, c.rect.1, c.rect.2, c.rect.3),
                    ])
                })
                .collect();
            db.insert_tuples("cities", city_rows)?;
        }

        let rating_rows: Vec<Tuple> = self
            .ratings
            .iter()
            .map(|&(u, i, r)| Tuple::new(vec![Value::Int(u), Value::Int(i), Value::Float(r)]))
            .collect();
        db.insert_tuples("ratings", rating_rows)?;

        Ok(LoadedTables {
            users: "users".into(),
            items: items_table.into(),
            ratings: "ratings".into(),
            cities: located.then(|| "cities".into()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::spec::SyntheticSpec;

    #[test]
    fn load_movie_dataset() {
        let d = generate(&SyntheticSpec::movielens().scaled(0.02));
        let mut db = RecDb::new();
        let tables = d.load_into(&mut db).unwrap();
        assert_eq!(tables.items, "movies");
        assert_eq!(tables.cities, None);
        assert_eq!(
            db.catalog().table("ratings").unwrap().tuple_count() as usize,
            d.ratings.len()
        );
        assert_eq!(
            db.catalog().table("users").unwrap().tuple_count() as usize,
            d.users.len()
        );
        // SQL sees the data.
        let db = db;
        let rows = db.query("SELECT * FROM movies WHERE mid = 1").unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn load_poi_dataset_and_run_spatial_sql() {
        let d = generate(&SyntheticSpec::yelp().scaled(0.02));
        let mut db = RecDb::new();
        let tables = d.load_into(&mut db).unwrap();
        assert_eq!(tables.items, "businesses");
        assert_eq!(tables.cities.as_deref(), Some("cities"));
        // Paper Query 6 shape: spatial containment against a city region.
        let rows = db
            .query(
                "SELECT B.name FROM businesses AS B, cities AS C \
                 WHERE C.name = 'San Diego' AND ST_Contains(C.geom, B.loc)",
            )
            .unwrap();
        let in_city = d.items.iter().filter(|i| i.city == "San Diego").count();
        assert_eq!(rows.len(), in_city);
    }

    #[test]
    fn loaded_data_supports_create_recommender() {
        let d = generate(&SyntheticSpec::ldos_comoda().scaled(0.3));
        let mut db = RecDb::new();
        d.load_into(&mut db).unwrap();
        db.execute(
            "CREATE RECOMMENDER R ON ratings USERS FROM uid ITEMS FROM iid \
             RATINGS FROM ratingval USING ItemCosCF",
        )
        .unwrap();
        let rec = db.recommender("R").unwrap();
        assert_eq!(rec.model().trained_on(), d.ratings.len());
    }

    #[test]
    fn double_load_errors_cleanly() {
        let d = generate(&SyntheticSpec::movielens().scaled(0.01));
        let mut db = RecDb::new();
        d.load_into(&mut db).unwrap();
        assert!(d.load_into(&mut db).is_err());
    }
}
