//! The correctness gate that runs in the same command as the measurement.
//! Every violation is returned as a message; the caller counts each one
//! as a failed operation.

use crate::driver::{float_at, int_at, Executor};
use crate::workload::{Op, OpStream, Shape, Workload};
use crate::world::{engine_config, EngineSpec};
use recdb::algo::Algorithm;
use recdb::core::RecDb;
use recdb::datasets::Dataset;
use recdb::ontop::{OnTopDb, PredictionScope};
use recdb::server::WireResult;
use recdb::storage::Tuple;
use std::collections::BTreeMap;

/// Scores of the two systems must agree this closely.
const SCORE_TOLERANCE: f64 = 1e-9;

/// `EXPLAIN ANALYZE` one statement of each class the workload sends and
/// look for the physical operator the workload exists to exercise.
pub fn intended_operators(
    exec: &mut dyn Executor,
    workload: Workload,
    seed: u64,
    shape: &Shape,
) -> Vec<String> {
    let mut problems = Vec::new();
    for &(kind, operator) in workload.expected_operators() {
        let mut stream = OpStream::new(workload, seed, 0, shape);
        let op = std::iter::repeat_with(|| stream.next_op())
            .find(|op| op.kind() == kind)
            .expect("an endless stream reaches every kind it issues");
        let sql = format!("EXPLAIN ANALYZE {}", op.sql());
        match exec.execute(&sql) {
            Ok(WireResult::Rows { rows, .. }) => {
                let plan: Vec<&str> = rows
                    .iter()
                    .filter_map(|r| r.get(0).and_then(|v| v.as_text()))
                    .collect();
                if !plan.iter().any(|line| line.contains(operator)) {
                    problems.push(format!("{sql}: no {operator} in plan {plan:?}"));
                }
            }
            Ok(other) => problems.push(format!("{sql}: answered {other:?}")),
            Err(e) => problems.push(format!("{sql}: {e}")),
        }
    }
    problems
}

/// OnTopDB over an identical copy of the seed data: the executable
/// specification of what a `RECOMMEND` query returns.
pub struct Oracle {
    ontop: OnTopDb,
}

impl Oracle {
    pub fn build(dataset: &Dataset) -> Result<Oracle, String> {
        let spec = EngineSpec {
            data_dir: None,
            buffer_pool_pages: 1024,
        };
        let mut copy = RecDb::with_config(engine_config(&spec));
        dataset.load_into(&mut copy).map_err(|e| e.to_string())?;
        let mut ontop = OnTopDb::new(copy).map_err(|e| e.to_string())?;
        ontop
            .create_recommender("ratings", "uid", "iid", "ratingval", Algorithm::ItemCosCF)
            .map_err(|e| e.to_string())?;
        Ok(Oracle { ontop })
    }

    fn rows(&mut self, uid: i64, residual_sql: &str) -> Result<Vec<Tuple>, String> {
        self.ontop
            .run(
                "ratings",
                Algorithm::ItemCosCF,
                PredictionScope::SingleUser(uid),
                residual_sql,
            )
            .map(|r| r.rows().to_vec())
            .map_err(|e| format!("oracle {residual_sql}: {e}"))
    }

    /// Why `reply` is not what OnTopDB answers for `op`, or `None`.
    pub fn disagreement(&mut self, op: &Op<'_>, reply: &[Tuple]) -> Option<String> {
        match *op {
            Op::TopK { uid } => {
                // All of the user's predictions, best first: ties at equal
                // score may legitimately come back in another item order,
                // so compare the score at each rank, and each returned
                // item's score with the oracle's score for that item.
                let all = match self.rows(
                    uid,
                    &format!(
                        "SELECT P.uid, P.iid, P.ratingval FROM _ontop_predictions AS P \
                         WHERE P.uid = {uid} ORDER BY P.ratingval DESC"
                    ),
                ) {
                    Ok(rows) => rows,
                    Err(e) => return Some(e),
                };
                let by_item: BTreeMap<i64, f64> = all
                    .iter()
                    .filter_map(|r| Some((int_at(r, 1)?, float_at(r, 2)?)))
                    .collect();
                for (rank, row) in reply.iter().enumerate() {
                    let (Some(iid), Some(score)) = (int_at(row, 1), float_at(row, 2)) else {
                        return Some(format!("uid {uid} rank {rank}: malformed row {row:?}"));
                    };
                    let at_rank = all.get(rank).and_then(|r| float_at(r, 2));
                    if !close(at_rank, score) {
                        return Some(format!(
                            "uid {uid} rank {rank}: score {score}, oracle has {at_rank:?}"
                        ));
                    }
                    if !close(by_item.get(&iid).copied(), score) {
                        return Some(format!(
                            "uid {uid} item {iid}: score {score}, oracle has {:?}",
                            by_item.get(&iid)
                        ));
                    }
                }
                None
            }
            Op::Join { uid, genre } => {
                let expected = match self.rows(
                    uid,
                    &format!(
                        "SELECT P.uid, M.name, P.ratingval \
                         FROM _ontop_predictions AS P, movies AS M \
                         WHERE P.uid = {uid} AND M.mid = P.iid AND M.genre = '{genre}'"
                    ),
                ) {
                    Ok(rows) => rows,
                    Err(e) => return Some(e),
                };
                let by_name = |rows: &[Tuple]| -> BTreeMap<String, f64> {
                    rows.iter()
                        .filter_map(|r| Some((r.get(1)?.as_text()?.to_owned(), float_at(r, 2)?)))
                        .collect()
                };
                let (got, want) = (by_name(reply), by_name(&expected));
                if got.len() != reply.len() || got.len() != want.len() {
                    return Some(format!(
                        "uid {uid} genre {genre}: {} rows, oracle has {}",
                        reply.len(),
                        expected.len()
                    ));
                }
                got.iter().zip(&want).find_map(|((gn, gs), (wn, ws))| {
                    (gn != wn || !close(Some(*ws), *gs)).then(|| {
                        format!("uid {uid} genre {genre}: ({gn}, {gs}) vs oracle ({wn}, {ws})")
                    })
                })
            }
            Op::Scan { .. } | Op::Insert { .. } => None,
        }
    }
}

fn close(expected: Option<f64>, got: f64) -> bool {
    expected.is_some_and(|e| (e - got).abs() <= SCORE_TOLERANCE)
}

/// `SELECT COUNT(*) FROM ratings` must see the seed rows plus every
/// acknowledged insert.
pub fn row_count(exec: &mut dyn Executor, expected: u64, when: &str) -> Option<String> {
    const SQL: &str = "SELECT COUNT(*) FROM ratings";
    match exec.execute(SQL) {
        Ok(WireResult::Rows { rows, .. }) => {
            let got = rows.first().and_then(|r| int_at(r, 0));
            (got != Some(expected as i64))
                .then(|| format!("{SQL} {when}: {got:?}, expected {expected}"))
        }
        Ok(other) => Some(format!("{SQL} {when}: answered {other:?}")),
        Err(e) => Some(format!("{SQL} {when}: {e}")),
    }
}

/// The same count straight from a re-opened engine (after recovery).
impl Executor for RecDb {
    fn execute(&mut self, sql: &str) -> Result<WireResult, String> {
        RecDb::execute(self, sql)
            .map(|r| WireResult::from_query_result(&r))
            .map_err(|e| e.to_string())
    }
}
