//! The outside-in layer trace: spans recorded from this crate around the
//! public calls into each layer, kept in memory and written out at exit.
//!
//! Spans inside the engine are a later change; until then a layer's time
//! is what its public entry point takes when called on the same mix of
//! inputs.

use crate::driver::{quantile, us, Executor};
use crate::workload::{Op, OpStream};
use crate::world::{World, RECOMMENDER};
use recdb::core::QueryGuard;
use recdb::exec::{build_logical, execute_plan, optimize, ExecContext};
use recdb::server::{Request, Response, WireResult};
use recdb::sql::{parse, Statement};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Ops dealt to each role of the traced pass (fewer if its time budget
/// runs out).
pub const TRACED_OPS: usize = 2_000;

/// Consecutive ops one role of the traced pass takes before the next role's
/// turn: a few milliseconds, far shorter than the host's noisy spells.
const TURN_OPS: u64 = 100;

#[derive(Debug, Clone)]
pub struct Span {
    /// Spans of one request share this.
    pub request: u64,
    /// 1-based; unique within the trace.
    pub span: u32,
    /// The span that caused this one; 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(TRACED_OPS * 12),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, request: u64, parent: u32, name: &'static str) -> u32 {
        let span = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            span,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        span
    }

    pub fn end(&mut self, span: u32) {
        self.spans[span as usize - 1].end_ns = self.now_ns();
    }

    /// Time `f` as a child of `parent`.
    pub fn child<R>(
        &mut self,
        request: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.begin(request, parent, name);
        let out = black_box(f());
        self.end(span);
        out
    }

    /// Ascending durations (ns) of every span, by name.
    pub fn durations(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in &self.spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.end_ns - s.start_ns);
        }
        for v in by_name.values_mut() {
            v.sort_unstable();
        }
        by_name
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"request\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.span, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median of a name's spans in microseconds; 0 when the workload never
/// reaches that layer.
pub fn p50_us(durations: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    durations.get(name).map_or(0.0, |v| us(quantile(v, 0.5)))
}

/// What the traced pass did besides recording spans.
#[derive(Debug, Default)]
pub struct TracedPass {
    pub requests: u64,
    /// Acknowledged `INSERT`s among them (they are real).
    pub inserts: u64,
    /// Sorted bytes of each in-process statement's text / encoded response.
    pub stmt_bytes: Vec<u64>,
    pub resp_bytes: Vec<u64>,
}

/// The traced pass: the next ops of `stream`, dealt to three roles in
/// turns of [`TURN_OPS`], so that each op runs exactly once and all three
/// see the same mix of ops, the same pool and the same state of the host.
/// (Turns of one op were tried: each role then finds the caches as another
/// left them, and the wire median rose by 15 % on `topk_index`.)
///
/// * **wire**: over TCP, under a `client.roundtrip` span. Its median
///   against the untraced median is the tracing overhead.
/// * **request**: what the server does with a frame, in this process:
///   decode it, run it through a session (`core.execute`), encode the
///   reply — plus the client's encode and decode on either side.
/// * **probe**: the statement's stages called one by one (parse, plan,
///   run, and the storage or model call at the bottom); `core.execute`
///   minus those is the engine's own bookkeeping. An `INSERT` dealt to the
///   probe is parsed and not executed.
///
/// Ends after [`TRACED_OPS`] ops per role or when `budget` has passed.
pub fn traced_pass(
    tracer: &mut Tracer,
    world: &World,
    wire: &mut dyn Executor,
    stream: &mut OpStream<'_>,
    budget: Duration,
) -> Result<TracedPass, String> {
    let db = &world.db;
    let mut session = db.session();
    let (model, index) = {
        let rec = db
            .recommender(RECOMMENDER)
            .ok_or("recommender missing in traced pass")?;
        (rec.model(), rec.index())
    };
    let mut pass = TracedPass::default();
    let mut sql = String::new();
    let started = Instant::now();
    while pass.requests < 3 * TRACED_OPS as u64 && started.elapsed() < budget {
        let op = stream.next_op();
        op.write_sql(&mut sql);
        let id = pass.requests;
        pass.requests += 1;
        let is_insert = matches!(op, Op::Insert { .. });
        match id / TURN_OPS % 3 {
            0 => {
                let root = tracer.begin(id, 0, "client.roundtrip");
                let reply = wire.execute(&sql);
                tracer.end(root);
                reply.map_err(|e| format!("traced wire op: {sql}: {e}"))?;
                pass.inserts += u64::from(is_insert);
            }
            1 => {
                pass.stmt_bytes.push(sql.len() as u64);
                let root = tracer.begin(id, 0, "request");
                let frame = tracer.child(id, root, "server.req_encode", || {
                    Request::Statement {
                        deadline: None,
                        sql: sql.clone(),
                    }
                    .encode()
                });
                let request = tracer
                    .child(id, root, "server.req_decode", || Request::decode(&frame))
                    .map_err(|e| e.to_string())?;
                let Request::Statement { sql: decoded, .. } = request else {
                    return Err("statement frame decoded to another request".into());
                };
                let result = tracer
                    .child(id, root, "core.execute", || session.execute(&decoded))
                    .map_err(|e| format!("in-process {decoded}: {e}"))?;
                let reply = tracer.child(id, root, "server.resp_encode", || {
                    Response::Result(WireResult::from_query_result(&result)).encode()
                });
                tracer
                    .child(id, root, "server.resp_decode", || Response::decode(&reply))
                    .map_err(|e| e.to_string())?;
                tracer.end(root);
                pass.resp_bytes.push(reply.len() as u64);
                pass.inserts += u64::from(is_insert);
            }
            _ => {
                let probe = tracer.begin(id, 0, "probe");
                let statement = tracer
                    .child(id, probe, "sql.parse", || parse(&sql))
                    .map_err(|e| e.to_string())?;
                if let Statement::Select(select) = &statement {
                    let catalog = db.catalog();
                    let plan = tracer
                        .child(id, probe, "exec.plan", || {
                            build_logical(select, &catalog).map(optimize)
                        })
                        .map_err(|e| e.to_string())?;
                    tracer
                        .child(id, probe, "exec.run", || {
                            let ctx = ExecContext::new(&catalog, &**db, QueryGuard::unlimited());
                            execute_plan(&plan, &ctx)
                        })
                        .map_err(|e| e.to_string())?;
                }
                if let Op::TopK { uid } = op {
                    match &index {
                        Some(index) if index.is_complete(uid) => {
                            tracer.child(id, probe, "storage.index_topk", || {
                                index.iter_desc(uid, None, None).take(10).count()
                            });
                        }
                        _ => {
                            if let Some(u) = model.matrix().user_idx(uid) {
                                tracer.child(id, probe, "algo.topk", || model.top_k_unseen(u, 10));
                            }
                        }
                    }
                }
                tracer.end(probe);
            }
        }
    }
    pass.stmt_bytes.sort_unstable();
    pass.resp_bytes.sort_unstable();
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_group_by_name() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                request: 0,
                span: 1,
                parent: 0,
                name: "request",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                request: 0,
                span: 2,
                parent: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                request: 0,
                span: 3,
                parent: 1,
                name: "b",
                start_ns: 40,
                end_ns: 90,
            },
        ];
        assert_eq!(t.durations()["b"], vec![50]);
        assert_eq!(p50_us(&t.durations(), "request"), 0.1);
        assert_eq!(p50_us(&t.durations(), "absent"), 0.0);
    }
}
