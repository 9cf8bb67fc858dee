//! The five workloads and their seeded op streams.
//!
//! A stream is a pure function of `(workload, seed, client, world shape)`;
//! the engine sees only the SQL text an [`Op`] renders to.

use crate::rng::{Fnv1a, SplitMix64, Zipf};
use crate::world::EngineSpec;
use std::fmt::Write as _;
use std::path::Path;

/// Rows every top-k statement asks for.
pub const TOP_K: usize = 10;
/// `mixed_smallpool` is 90 % top-k, 5 % scans, 5 % inserts: 18, 1 and 1
/// of every 20 ops.
const MIX_ROUND: u64 = 20;
/// Ops hashed into the stream fingerprint.
pub const FINGERPRINT_OPS: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TopkIndex,
    TopkOnline,
    JoinGenre,
    IngestDurable,
    MixedSmallpool,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TopkIndex,
        Workload::TopkOnline,
        Workload::JoinGenre,
        Workload::IngestDurable,
        Workload::MixedSmallpool,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkIndex => "topk_index",
            Workload::TopkOnline => "topk_online",
            Workload::JoinGenre => "join_genre",
            Workload::IngestDurable => "ingest_durable",
            Workload::MixedSmallpool => "mixed_smallpool",
        }
    }

    /// Why the workload is in the benchmark (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TopkIndex => {
                "paper Query 1 for the 64 materialized users, Zipf(0.8): IndexRecommend is cheap, \
                 so wire, parse, plan and txn bookkeeping dominate; algo and wal do nothing"
            }
            Workload::TopkOnline => {
                "paper Query 1 for non-materialized users: FilterRecommend scores ~1.6k items \
                 per request, so algo kernels and exec operators dominate, the front end is <5%"
            }
            Workload::JoinGenre => {
                "paper Query 4 (ratings join movies on one genre) for non-materialized users: \
                 JoinRecommend, predicate evaluation, tuple-at-a-time dispatch, small-heap scans"
            }
            Workload::IngestDurable => {
                "single-row autocommit INSERTs into a durable engine with the N=10% rebuild rule \
                 on: WAL append and fsync, heap append, X locks, synchronous model rebuilds"
            }
            Workload::MixedSmallpool => {
                "2 clients, 90% index top-k, 5% full scans, 5% durable inserts, 64-frame pool \
                 ~25x smaller than the data: lock conflicts, eviction, read-vs-write trades"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client sessions. `mixed_smallpool` uses one per host
    /// CPU of the reference host (2); the rest are single-client so their
    /// counters repeat exactly.
    pub fn clients(self) -> usize {
        match self {
            Workload::MixedSmallpool => 2,
            _ => 1,
        }
    }

    pub fn durable(self) -> bool {
        matches!(self, Workload::IngestDurable | Workload::MixedSmallpool)
    }

    /// The engine this workload runs against. `data_root` is where durable
    /// workloads keep their data directory.
    pub fn engine(self, data_root: &Path) -> EngineSpec {
        EngineSpec {
            data_dir: self.durable().then(|| data_root.join(self.name())),
            // 64 frames against ~466 heap + ~1,200 index pages: the working
            // set is ~25x the pool. Everywhere else the engine default
            // (1,024) holds the read working set.
            buffer_pool_pages: match self {
                Workload::MixedSmallpool => 64,
                _ => 1024,
            },
        }
    }

    /// The physical operator `EXPLAIN ANALYZE` must show for each class of
    /// statement the workload sends.
    pub fn expected_operators(self) -> &'static [(OpKind, &'static str)] {
        match self {
            Workload::TopkIndex => &[(OpKind::TopK, "IndexRecommend")],
            Workload::TopkOnline => &[(OpKind::TopK, "FilterRecommend")],
            Workload::JoinGenre => &[(OpKind::Join, "JoinRecommend")],
            Workload::IngestDurable => &[],
            Workload::MixedSmallpool => {
                &[(OpKind::TopK, "IndexRecommend"), (OpKind::Scan, "SeqScan")]
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    TopK,
    Join,
    Scan,
    Insert,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::TopK, OpKind::Join, OpKind::Scan, OpKind::Insert];
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op<'a> {
    /// Paper Query 1.
    TopK { uid: i64 },
    /// Paper Query 4.
    Join { uid: i64, genre: &'a str },
    /// All of one user's ratings: a full heap scan (no secondary index).
    Scan { uid: i64 },
    /// One new rating, autocommitted.
    Insert { uid: i64, iid: i64, rating: f64 },
}

impl Op<'_> {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::TopK { .. } => OpKind::TopK,
            Op::Join { .. } => OpKind::Join,
            Op::Scan { .. } => OpKind::Scan,
            Op::Insert { .. } => OpKind::Insert,
        }
    }

    /// The user the op is about.
    pub fn uid(&self) -> i64 {
        match *self {
            Op::TopK { uid } | Op::Join { uid, .. } | Op::Scan { uid } | Op::Insert { uid, .. } => {
                uid
            }
        }
    }

    /// Render the statement into `sql` (cleared first).
    pub fn write_sql(&self, sql: &mut String) {
        sql.clear();
        let written = match *self {
            Op::TopK { uid } => write!(
                sql,
                "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = {uid} ORDER BY R.ratingval DESC LIMIT {TOP_K}"
            ),
            Op::Join { uid, genre } => write!(
                sql,
                "SELECT R.uid, M.name, R.ratingval FROM ratings AS R, movies AS M \
                 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF \
                 WHERE R.uid = {uid} AND M.mid = R.iid AND M.genre = '{genre}'"
            ),
            Op::Scan { uid } => write!(
                sql,
                "SELECT uid, iid, ratingval FROM ratings WHERE uid = {uid}"
            ),
            Op::Insert { uid, iid, rating } => {
                write!(
                    sql,
                    "INSERT INTO ratings VALUES ({uid}, {iid}, {rating:.1})"
                )
            }
        };
        written.expect("writing to a String cannot fail");
    }

    pub fn sql(&self) -> String {
        let mut s = String::new();
        self.write_sql(&mut s);
        s
    }
}

/// The shape of the world an op stream draws from. Everything here is
/// derived from the generated dataset, never from the engine.
#[derive(Debug, Clone)]
pub struct Shape {
    pub n_users: usize,
    pub n_items: usize,
    pub hot_users: Vec<i64>,
    pub cold_users: Vec<i64>,
    /// Distinct genres, sorted.
    pub genres: Vec<String>,
    /// `[(uid - 1) * genres.len() + g]`: items of genre `g` that the user
    /// has not rated in the seed data.
    unrated_by_genre: Vec<usize>,
    /// Seed ratings of user `uid - 1`.
    user_ratings: Vec<usize>,
    /// Items with at least one seed rating: the model's item universe.
    rated_items: usize,
    /// Bit `(uid-1) * n_items + (iid-1)` set = pair rated in the seed data.
    rated: Vec<u64>,
}

impl Shape {
    /// `item_genres[iid - 1]` is the genre of item `iid`; ids are dense
    /// and 1-based, as the dataset generator makes them.
    pub fn new(
        n_users: usize,
        hot_users: Vec<i64>,
        item_genres: &[String],
        ratings: impl Iterator<Item = (i64, i64)>,
    ) -> Shape {
        let n_items = item_genres.len();
        let mut genres: Vec<String> = item_genres.to_vec();
        genres.sort();
        genres.dedup();
        let item_genre: Vec<usize> = item_genres
            .iter()
            .map(|g| genres.binary_search(g).expect("genre collected above"))
            .collect();
        let mut genre_size = vec![0usize; genres.len()];
        for &g in &item_genre {
            genre_size[g] += 1;
        }
        let mut unrated_by_genre = genre_size.repeat(n_users);
        let mut rated = vec![0u64; (n_users * n_items).div_ceil(64)];
        let mut user_ratings = vec![0usize; n_users];
        let mut item_rated = vec![false; n_items];
        for (u, i) in ratings {
            let (u, i) = (u as usize - 1, i as usize - 1);
            let bit = u * n_items + i;
            rated[bit / 64] |= 1 << (bit % 64);
            user_ratings[u] += 1;
            item_rated[i] = true;
            unrated_by_genre[u * genres.len() + item_genre[i]] -= 1;
        }
        let cold_users = (1..=n_users as i64)
            .filter(|u| !hot_users.contains(u))
            .collect();
        Shape {
            n_users,
            n_items,
            hot_users,
            cold_users,
            genres,
            unrated_by_genre,
            user_ratings,
            rated_items: item_rated.iter().filter(|&&r| r).count(),
            rated,
        }
    }

    fn is_rated(&self, pair: usize) -> bool {
        self.rated[pair / 64] >> (pair % 64) & 1 == 1
    }

    /// Whether the seed data holds a rating for `(uid, iid)`.
    #[cfg(test)]
    pub fn has_rating(&self, uid: i64, iid: i64) -> bool {
        self.is_rated((uid as usize - 1) * self.n_items + (iid as usize - 1))
    }

    /// Seed ratings of `uid`.
    pub fn ratings_of_user(&self, uid: i64) -> usize {
        self.user_ratings[uid as usize - 1]
    }

    /// Items of `genre` that `uid` has not rated in the seed data: the
    /// exact cardinality of paper Query 4.
    pub fn unrated_in_genre(&self, uid: i64, genre: &str) -> usize {
        match self
            .genres
            .binary_search_by(|probe| probe.as_str().cmp(genre))
        {
            Ok(g) => self.unrated_by_genre[(uid as usize - 1) * self.genres.len() + g],
            Err(_) => 0,
        }
    }

    /// `(user, item)` predictions `op` makes the model compute at query
    /// time: none when the RecScoreIndex serves it.
    pub fn pairs_scored_online(&self, op: &Op<'_>) -> u64 {
        match *op {
            Op::TopK { uid } if self.hot_users.contains(&uid) => 0,
            Op::TopK { uid } => (self.rated_items - self.ratings_of_user(uid)) as u64,
            Op::Join { uid, genre } => self.unrated_in_genre(uid, genre) as u64,
            Op::Scan { .. } | Op::Insert { .. } => 0,
        }
    }
}

/// Model rebuilds the engine's N % rule (`maintenance_threshold_pct`,
/// default 10) makes over `inserts` acknowledged single-row inserts, when
/// the model was built from `trained_on` ratings: the insert that brings
/// the ratings pending since the last build to a tenth of what that build
/// saw triggers the next, which sees them all. The comparison is the
/// engine's own expression, so that both round alike.
pub fn expected_rebuilds(mut trained_on: u64, inserts: u64) -> u64 {
    let (mut pending, mut rebuilds) = (0u64, 0);
    for _ in 0..inserts {
        pending += 1;
        if pending as f64 / trained_on.max(1) as f64 * 100.0 >= 10.0 {
            trained_on += pending;
            pending = 0;
            rebuilds += 1;
        }
    }
    rebuilds
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One client's endless, seeded sequence of ops.
#[derive(Debug, Clone)]
pub struct OpStream<'a> {
    workload: Workload,
    shape: &'a Shape,
    rng: SplitMix64,
    hot: Zipf,
    issued: u64,
    /// Where in the current round of `mixed_smallpool` the scan and the
    /// insert come.
    scan_at: u64,
    insert_at: u64,
    /// Walk over all `(user, item)` pairs: position `k` is pair
    /// `(start + k * stride) mod pairs`, `stride` coprime with `pairs`, so
    /// every pair comes up exactly once. Rated pairs are skipped; client
    /// `c` of `n` takes positions `c, c + n, …`, so inserts are distinct
    /// across clients too.
    walk_at: u64,
    walk_step: u64,
    walk_start: u64,
    walk_stride: u64,
}

impl<'a> OpStream<'a> {
    pub fn new(workload: Workload, seed: u64, client: usize, shape: &'a Shape) -> Self {
        // The walk is shared by all clients of a run; everything else is
        // per client.
        let mut shared = SplitMix64::new(seed);
        let pairs = (shape.n_users * shape.n_items) as u64;
        let walk_start = shared.below(pairs);
        let mut walk_stride = shared.below(pairs) | 1;
        while gcd(walk_stride, pairs) != 1 {
            walk_stride += 2;
        }
        let mut rng =
            SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        // Decorrelate nearby seeds.
        rng.next_u64();
        OpStream {
            workload,
            shape,
            rng,
            hot: Zipf::new(shape.hot_users.len(), 0.8),
            issued: 0,
            scan_at: 0,
            insert_at: 0,
            walk_at: client as u64,
            walk_step: workload.clients() as u64,
            walk_start,
            walk_stride,
        }
    }

    fn hot_topk(&mut self) -> Op<'a> {
        let uid = self.shape.hot_users[self.hot.sample(&mut self.rng)];
        Op::TopK { uid }
    }

    fn cold_user(&mut self) -> i64 {
        let n = self.shape.cold_users.len() as u64;
        self.shape.cold_users[self.rng.below(n) as usize]
    }

    fn insert(&mut self) -> Op<'a> {
        let pairs = (self.shape.n_users * self.shape.n_items) as u64;
        loop {
            let pair = ((self.walk_start as u128 + self.walk_at as u128 * self.walk_stride as u128)
                % pairs as u128) as usize;
            self.walk_at += self.walk_step;
            if !self.shape.is_rated(pair) {
                return Op::Insert {
                    uid: (pair / self.shape.n_items) as i64 + 1,
                    iid: (pair % self.shape.n_items) as i64 + 1,
                    // Half-star steps on the 1–5 scale, like the seed data.
                    rating: 1.0 + 0.5 * self.rng.below(9) as f64,
                };
            }
        }
    }

    pub fn next_op(&mut self) -> Op<'a> {
        let n = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::TopkIndex => self.hot_topk(),
            Workload::TopkOnline => Op::TopK {
                uid: self.cold_user(),
            },
            Workload::JoinGenre => Op::Join {
                uid: self.cold_user(),
                genre: &self.shape.genres[n as usize % self.shape.genres.len()],
            },
            Workload::IngestDurable => self.insert(),
            Workload::MixedSmallpool => {
                // Every MIX_ROUND ops hold exactly one scan and one insert,
                // at seeded places. (A client gets through some 160 scans
                // in ten seconds and they take three quarters of the time;
                // drawn independently per op, their number would have a
                // standard deviation of 8 %, and throughput with it.)
                let place = n % MIX_ROUND;
                if place == 0 {
                    self.scan_at = self.rng.below(MIX_ROUND);
                    self.insert_at = (self.scan_at + 1 + self.rng.below(MIX_ROUND - 1)) % MIX_ROUND;
                }
                match place {
                    at if at == self.scan_at => Op::Scan {
                        uid: 1 + self.rng.below(self.shape.n_users as u64) as i64,
                    },
                    at if at == self.insert_at => self.insert(),
                    _ => self.hot_topk(),
                }
            }
        }
    }
}

/// FNV-1a over the SQL text of the first [`FINGERPRINT_OPS`] ops of every
/// client's stream.
pub fn fingerprint(workload: Workload, seed: u64, shape: &Shape) -> u64 {
    let mut hash = Fnv1a::new();
    let mut sql = String::new();
    for client in 0..workload.clients() {
        let mut stream = OpStream::new(workload, seed, client, shape);
        for _ in 0..FINGERPRINT_OPS {
            stream.next_op().write_sql(&mut sql);
            hash.write(sql.as_bytes());
            hash.write(b"\n");
        }
    }
    hash.finish()
}

#[cfg(test)]
pub(crate) fn test_shape() -> Shape {
    let genres: Vec<String> = (0..30)
        .map(|i| ["Action", "Drama", "War"][i % 3].to_owned())
        .collect();
    Shape::new(
        40,
        (0..8).map(|k| k * 5 + 1).collect(),
        &genres,
        (1..=40).flat_map(|u| {
            (1..=30)
                .filter(move |i| (u * 7 + i) % 3 == 0)
                .map(move |i| (u, i))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let shape = test_shape();
        for w in Workload::ALL {
            assert_eq!(
                fingerprint(w, 11, &shape),
                fingerprint(w, 11, &shape),
                "{}",
                w.name()
            );
            assert_ne!(
                fingerprint(w, 11, &shape),
                fingerprint(w, 12, &shape),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn inserts_are_new_distinct_pairs_across_clients() {
        let shape = test_shape();
        let mut seen = HashSet::new();
        for client in 0..2 {
            let mut s = OpStream::new(Workload::MixedSmallpool, 5, client, &shape);
            let mut inserts = 0;
            while inserts < 150 {
                if let Op::Insert { uid, iid, rating } = s.next_op() {
                    inserts += 1;
                    assert!(!shape.has_rating(uid, iid));
                    assert!(seen.insert((uid, iid)), "pair ({uid},{iid}) issued twice");
                    assert!((1.0..=5.0).contains(&rating));
                }
            }
        }
    }

    #[test]
    fn join_cardinality_matches_a_direct_count() {
        let shape = test_shape();
        for uid in 1..=40 {
            for (g, genre) in shape.genres.iter().enumerate() {
                // test_shape: item `iid` has genre index `(iid - 1) % 3`.
                let direct = (1..=30)
                    .filter(|&iid| (iid as usize - 1) % 3 == g && !shape.has_rating(uid, iid))
                    .count();
                assert_eq!(shape.unrated_in_genre(uid, genre), direct);
            }
        }
        assert_eq!(shape.unrated_in_genre(1, "Nope"), 0);
    }

    #[test]
    fn streams_target_the_intended_users() {
        let shape = test_shape();
        let mut idx = OpStream::new(Workload::TopkIndex, 3, 0, &shape);
        let mut online = OpStream::new(Workload::TopkOnline, 3, 0, &shape);
        let mut join = OpStream::new(Workload::JoinGenre, 3, 0, &shape);
        for n in 0..500 {
            assert!(shape.hot_users.contains(&idx.next_op().uid()));
            assert!(shape.cold_users.contains(&online.next_op().uid()));
            match join.next_op() {
                Op::Join { uid, genre } => {
                    assert!(shape.cold_users.contains(&uid));
                    assert_eq!(genre, shape.genres[n % 3]);
                }
                other => panic!("join_genre issued {other:?}"),
            }
        }
    }

    #[test]
    fn rebuilds_follow_the_ten_percent_schedule() {
        assert_eq!(expected_rebuilds(100_000, 9_999), 0);
        assert_eq!(expected_rebuilds(100_000, 10_000), 1);
        assert_eq!(expected_rebuilds(100_000, 20_999), 1);
        assert_eq!(expected_rebuilds(100_000, 21_000), 2);
        // ISSUE 11: 150,000 inserts into 100,000 rows cross it 9 times.
        assert_eq!(expected_rebuilds(100_000, 150_000), 9);
    }

    #[test]
    fn mixed_is_ninety_five_five() {
        let shape = test_shape();
        let mut s = OpStream::new(Workload::MixedSmallpool, 9, 0, &shape);
        let mut places = HashSet::new();
        for _ in 0..1_000 {
            let round: Vec<OpKind> = (0..MIX_ROUND).map(|_| s.next_op().kind()).collect();
            let count = |k: OpKind| round.iter().filter(|&&x| x == k).count();
            assert_eq!(
                (
                    count(OpKind::TopK),
                    count(OpKind::Scan),
                    count(OpKind::Insert)
                ),
                (18, 1, 1)
            );
            places.insert(round.iter().position(|&k| k == OpKind::Scan));
        }
        assert_eq!(
            places.len(),
            MIX_ROUND as usize,
            "scans come at every place"
        );
    }
}
