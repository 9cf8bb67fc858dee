//! The closed loop: each client is an application session that sends a
//! statement, waits for the reply, checks it, and sends the next.

use crate::workload::{Op, OpKind, OpStream, Shape, TOP_K};
use recdb::server::{Client, WireResult};
use recdb::storage::Tuple;
use std::time::{Duration, Instant};

/// Replies kept per client for the row-for-row comparison with OnTopDB.
pub const SAMPLED_REPLIES: usize = 64;
/// Failure messages kept per client (the rest are only counted).
const KEPT_FAILURES: usize = 5;

/// Where a statement goes. The only thing that crosses this boundary is
/// the SQL text; tests substitute a recorder for the TCP client.
pub trait Executor {
    fn execute(&mut self, sql: &str) -> Result<WireResult, String>;
}

impl Executor for Client {
    fn execute(&mut self, sql: &str) -> Result<WireResult, String> {
        Client::execute(self, sql).map_err(|e| e.to_string())
    }
}

/// Why a reply is wrong, or `None`.
pub fn check_reply(op: &Op<'_>, reply: &WireResult, shape: &Shape) -> Option<String> {
    let rows = match (op, reply) {
        (Op::Insert { .. }, WireResult::Inserted(1)) => return None,
        (Op::Insert { .. }, other) => return Some(format!("INSERT answered {other:?}")),
        (_, WireResult::Rows { rows, .. }) => rows,
        (_, other) => return Some(format!("SELECT answered {other:?}")),
    };
    let uid = op.uid();
    if let Some(bad) = rows.iter().find(|r| int_at(r, 0) != Some(uid)) {
        return Some(format!("row {bad:?} is not for uid {uid}"));
    }
    match *op {
        Op::TopK { .. } => {
            if rows.len() != TOP_K {
                return Some(format!("top-{TOP_K} for uid {uid} has {} rows", rows.len()));
            }
            let scores: Vec<f64> = rows.iter().filter_map(|r| float_at(r, 2)).collect();
            if scores.len() != rows.len() || scores.windows(2).any(|w| w[0] < w[1]) {
                return Some(format!(
                    "scores for uid {uid} not non-increasing: {scores:?}"
                ));
            }
        }
        Op::Join { genre, .. } => {
            let expected = shape.unrated_in_genre(uid, genre);
            if rows.len() != expected {
                return Some(format!(
                    "join for uid {uid} genre {genre}: {} rows, expected {expected}",
                    rows.len()
                ));
            }
        }
        Op::Scan { .. } => {
            // Concurrent inserts may only add to the seed rows.
            let seed_rows = shape.ratings_of_user(uid);
            if rows.len() < seed_rows {
                return Some(format!(
                    "scan for uid {uid}: {} rows, seed data has {seed_rows}",
                    rows.len()
                ));
            }
        }
        Op::Insert { .. } => unreachable!("handled above"),
    }
    None
}

pub fn int_at(row: &Tuple, col: usize) -> Option<i64> {
    row.get(col).and_then(|v| v.as_int())
}

pub fn float_at(row: &Tuple, col: usize) -> Option<f64> {
    row.get(col).and_then(|v| v.as_f64())
}

/// What one client did.
#[derive(Debug, Default)]
pub struct ClientRun<'a> {
    /// Ops sent, warm-up included.
    pub attempted: u64,
    /// Errors, refusals and wrong answers, warm-up included.
    pub failed: u64,
    pub failures: Vec<String>,
    /// `INSERT`s acknowledged, warm-up included.
    pub inserts_acked: u64,
    /// Latency of every timed op, nanoseconds, by op kind.
    pub latencies_ns: [Vec<u64>; OpKind::ALL.len()],
    /// First timed op sent → last timed reply decoded.
    pub timed: Duration,
    /// `(user, item)` predictions the timed ops asked the model for
    /// online (computed from the seed data, not counted by the engine).
    pub pairs_scored: u64,
    /// The first [`SAMPLED_REPLIES`] timed recommendation replies.
    pub sampled: Vec<(Op<'a>, Vec<Tuple>)>,
}

impl ClientRun<'_> {
    pub fn timed_ops(&self) -> u64 {
        self.latencies_ns.iter().map(|v| v.len() as u64).sum()
    }

    fn run_op(
        &mut self,
        exec: &mut dyn Executor,
        op: &Op<'_>,
        sql: &mut String,
        shape: &Shape,
    ) -> (Duration, Instant, Option<WireResult>) {
        op.write_sql(sql);
        let sent = Instant::now();
        let reply = exec.execute(sql);
        let done = Instant::now();
        self.attempted += 1;
        let problem = match &reply {
            Ok(r) => check_reply(op, r, shape),
            Err(e) => Some(e.clone()),
        };
        match problem {
            None if op.kind() == OpKind::Insert => self.inserts_acked += 1,
            None => {}
            Some(why) => {
                self.failed += 1;
                if self.failures.len() < KEPT_FAILURES {
                    self.failures.push(format!("{sql}: {why}"));
                }
            }
        }
        (done - sent, done, reply.ok())
    }
}

/// Run one client: `warm_up` of untimed ops, `ready()` (the caller's
/// rendezvous, where it snapshots the engine's counters), then timed ops
/// until `measure` has passed.
pub fn drive<'a>(
    exec: &mut dyn Executor,
    stream: &mut OpStream<'a>,
    shape: &Shape,
    warm_up: Duration,
    measure: Duration,
    ready: impl FnOnce(),
) -> ClientRun<'a> {
    let mut run = ClientRun::default();
    for v in &mut run.latencies_ns {
        v.reserve(1 << 16);
    }
    let mut sql = String::with_capacity(256);

    let started = Instant::now();
    while started.elapsed() < warm_up {
        let op = stream.next_op();
        run.run_op(exec, &op, &mut sql, shape);
    }
    ready();

    let started = Instant::now();
    loop {
        let op = stream.next_op();
        let (latency, done, reply) = run.run_op(exec, &op, &mut sql, shape);
        run.latencies_ns[op.kind() as usize].push(latency.as_nanos() as u64);
        run.pairs_scored += shape.pairs_scored_online(&op);
        if run.sampled.len() < SAMPLED_REPLIES && matches!(op.kind(), OpKind::TopK | OpKind::Join) {
            if let Some(WireResult::Rows { rows, .. }) = reply {
                run.sampled.push((op, rows));
            }
        }
        if done - started >= measure {
            run.timed = done - started;
            return run;
        }
    }
}

/// The `q`-quantile (nearest rank) of an ascending-sorted slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn sorted_ns(parts: impl IntoIterator<Item = impl AsRef<[u64]>>) -> Vec<u64> {
    let mut all: Vec<u64> = Vec::new();
    for p in parts {
        all.extend_from_slice(p.as_ref());
    }
    all.sort_unstable();
    all
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{test_shape, Workload};
    use recdb::storage::{DataType, Value};

    /// Answers every statement plausibly and records what it was sent.
    struct Recorder {
        seen: Vec<String>,
    }

    impl Executor for Recorder {
        fn execute(&mut self, sql: &str) -> Result<WireResult, String> {
            self.seen.push(sql.to_owned());
            Ok(if sql.starts_with("INSERT") {
                WireResult::Inserted(1)
            } else {
                WireResult::Rows {
                    columns: vec![("x".into(), DataType::Int)],
                    rows: Vec::new(),
                }
            })
        }
    }

    #[test]
    fn the_engine_receives_only_the_generated_sql() {
        let shape = test_shape();
        let seed = 9_876_543_210u64;
        for w in Workload::ALL {
            let mut rec = Recorder { seen: Vec::new() };
            let mut stream = OpStream::new(w, seed, 0, &shape);
            let run = drive(
                &mut rec,
                &mut stream,
                &shape,
                Duration::ZERO,
                Duration::from_millis(20),
                || {},
            );
            assert_eq!(run.attempted as usize, rec.seen.len());
            let mut replay = OpStream::new(w, seed, 0, &shape);
            for sent in &rec.seen {
                assert_eq!(*sent, replay.next_op().sql(), "{}", w.name());
                assert!(!sent.contains(w.name()), "workload name leaked: {sent}");
                assert!(!sent.contains(&seed.to_string()), "seed leaked: {sent}");
            }
        }
    }

    #[test]
    fn wrong_answers_count_as_failures() {
        let shape = test_shape();
        let row = |uid: i64, iid: i64, score: f64| {
            Tuple::new(vec![Value::Int(uid), Value::Int(iid), Value::Float(score)])
        };
        let rows = |rows: Vec<Tuple>| WireResult::Rows {
            columns: Vec::new(),
            rows,
        };
        let op = Op::TopK { uid: 6 };
        let good: Vec<Tuple> = (0..TOP_K)
            .map(|k| row(6, k as i64, 5.0 - k as f64 * 0.1))
            .collect();
        assert_eq!(check_reply(&op, &rows(good.clone()), &shape), None);
        assert!(check_reply(&op, &rows(good[..9].to_vec()), &shape).is_some());
        let mut other_user = good.clone();
        other_user[3] = row(7, 3, 4.7);
        assert!(check_reply(&op, &rows(other_user), &shape).is_some());
        let mut unsorted = good.clone();
        unsorted.swap(0, 9);
        assert!(check_reply(&op, &rows(unsorted), &shape).is_some());
        assert!(check_reply(&op, &WireResult::Inserted(1), &shape).is_some());
        let ins = Op::Insert {
            uid: 1,
            iid: 1,
            rating: 3.0,
        };
        assert_eq!(check_reply(&ins, &WireResult::Inserted(1), &shape), None);
        assert!(check_reply(&ins, &WireResult::Inserted(0), &shape).is_some());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
