//! One run of one workload in this process: set up, measure with tracing
//! off, optionally trace, check the answers, report.

use crate::check::{intended_operators, row_count, Oracle};
use crate::driver::{drive, median, quantile, sorted_ns, us, ClientRun};
use crate::report::{dir_bytes, filesystem_of, peak_rss_mib, result_line, Metrics};
use crate::trace::{p50_us, traced_pass, TracedPass, Tracer};
use crate::workload::{expected_rebuilds, fingerprint, OpKind, OpStream, Shape, Workload};
use crate::world::{engine_config, reset_dir, EngineSpec, Phases, World, RECOMMENDER};
use recdb::core::RecDb;
use recdb::obs::MetricsSnapshot;
use recdb::server::Client;
use recdb::storage::{Tuple, Value};
use recdb::wal::{Wal, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median, which drops the process's
/// first, cold one.
const SETUPS: usize = 5;
/// Share of `--seconds` spent on untimed warm-up ops before the timed
/// section.
const WARM_UP_SHARE: f64 = 0.05;
/// The engine's histogram of model build times.
const MODEL_BUILDS: &str = "recdb_model_build_micros{algorithm=\"ItemCosCF\"}";
/// Bytes of one rating as the user supplied it: two ids and a value.
const USER_BYTES_PER_RATING: u64 = 24;

#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One set-up instead of [`SETUPS`] (`--smoke`).
    pub single_setup: bool,
    /// Where traces go.
    pub out_dir: PathBuf,
    /// Where durable workloads keep their data directories.
    pub data_root: PathBuf,
}

pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
}

fn shut_down(world: World) -> Result<(), String> {
    let World { db, server, .. } = world;
    let report = server.shutdown();
    if report.leaked_connections > 0 {
        return Err(format!(
            "shutdown leaked {} connections",
            report.leaked_connections
        ));
    }
    drop(db);
    Ok(())
}

/// Set up `SETUPS` times, keeping the last world; every phase is reported
/// as its median over the set-ups.
fn set_up_repeatedly(spec: &RunSpec, engine: &EngineSpec) -> Result<(World, Phases), String> {
    let reps = if spec.single_setup { 1 } else { SETUPS };
    let mut all: Vec<Phases> = Vec::with_capacity(reps);
    let mut world = World::set_up(spec.seed, engine)?;
    all.push(world.phases);
    for _ in 1..reps {
        shut_down(world)?;
        world = World::set_up(spec.seed, engine)?;
        all.push(world.phases);
    }
    let of = |f: fn(&Phases) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let phases = Phases {
        generate_ms: of(|p| p.generate_ms),
        load_ms: of(|p| p.load_ms),
        build_ms: of(|p| p.build_ms),
        materialize_ms: of(|p| p.materialize_ms),
        total_s: of(|p| p.total_s),
    };
    Ok((world, phases))
}

fn shape_of(world: &World) -> Shape {
    let genres: Vec<String> = world
        .dataset
        .items
        .iter()
        .map(|i| i.genre.clone())
        .collect();
    Shape::new(
        world.dataset.users.len(),
        world.hot_users.clone(),
        &genres,
        world.dataset.ratings.iter().map(|&(u, i, _)| (u, i)),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the timed section produced.
struct Timed<'a> {
    runs: Vec<ClientRun<'a>>,
    clients: Vec<Client>,
    /// The engine's counters after warm-up and after the last timed op.
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Timed<'_> {
    fn counter(&self, key: &str) -> f64 {
        (self.after.counter(key) - self.before.counter(key)) as f64
    }

    /// `(count, sum)` movement of a histogram.
    fn histogram(&self, key: &str) -> (f64, f64) {
        let read = |s: &MetricsSnapshot| s.histogram(key).map_or((0, 0), |h| (h.count, h.sum));
        let (c0, s0) = read(&self.before);
        let (c1, s1) = read(&self.after);
        ((c1 - c0) as f64, (s1 - s0) as f64)
    }

    fn sum(&self, f: fn(&ClientRun<'_>) -> u64) -> u64 {
        self.runs.iter().map(f).sum()
    }
}

/// The timed section: every client warms up, the engine's counters are
/// snapshotted while all clients wait, then all run until the time is up.
fn timed_section<'a>(
    spec: &RunSpec,
    world: &World,
    shape: &'a Shape,
    streams: &mut [OpStream<'a>],
) -> Result<Timed<'a>, String> {
    let addr = world.server.addr();
    let mut clients = Vec::new();
    for _ in 0..streams.len() {
        clients.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let warm_up = Duration::from_secs_f64(spec.seconds * WARM_UP_SHARE);
    let measure = Duration::from_secs_f64(spec.seconds);
    let rendezvous = Barrier::new(streams.len() + 1);
    let (results, before) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(clients)
            .map(|(stream, mut client)| {
                let rendezvous = &rendezvous;
                scope.spawn(move || {
                    let run = drive(&mut client, stream, shape, warm_up, measure, || {
                        rendezvous.wait();
                        rendezvous.wait();
                    });
                    (run, client)
                })
            })
            .collect();
        rendezvous.wait();
        let before = world.db.metrics_snapshot();
        rendezvous.wait();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (results, before)
    });
    let after = world.db.metrics_snapshot();
    let mut timed = Timed {
        runs: Vec::new(),
        clients: Vec::new(),
        before,
        after,
    };
    for r in results {
        let (run, client) = r.map_err(|_| "a client thread panicked".to_owned())?;
        timed.runs.push(run);
        timed.clients.push(client);
    }
    Ok(timed)
}

/// Median time, µs, of up to `max` calls of `f` made within `budget`.
fn p50_of_repeated(
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let started = Instant::now();
    let mut samples = Vec::with_capacity(max);
    while samples.len() < max && (samples.is_empty() || started.elapsed() < budget) {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    Ok(us(quantile(&samples, 0.5)))
}

/// `append` + `commit` of a same-shape record on a scratch log beside the
/// data directory: what one insert pays the log and the device.
fn wal_probe(data_root: &Path, budget: Duration) -> Result<f64, String> {
    let dir = data_root.join("wal-probe");
    reset_dir(&dir)?;
    let mut wal = Wal::open(&dir.join("wal.log"), 0)
        .map_err(|e| e.to_string())?
        .wal;
    let record = WalRecord::Insert {
        table: "ratings".into(),
        tuples: vec![Tuple::new(vec![
            Value::Int(1),
            Value::Int(1),
            Value::Float(3.0),
        ])],
    };
    let p50 = p50_of_repeated(500, budget, || {
        wal.append(&record).map_err(|e| e.to_string())?;
        wal.commit().map_err(|e| e.to_string())
    })?;
    drop(wal);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(p50)
}

/// Per-op counts and ratios from the engine's counters over the timed
/// section, and the client-side split by statement class.
fn counter_metrics(m: &mut Metrics, t: &Timed<'_>, all_sorted: &[u64]) {
    let n = t.sum(|r| r.timed_ops()) as f64;
    let class_p50 = |kind: OpKind| {
        let v = sorted_ns(t.runs.iter().map(|r| &r.latencies_ns[kind as usize]));
        us(quantile(&v, 0.5))
    };
    m.set("client.samples", n);
    m.set("client.p50_us", us(quantile(all_sorted, 0.5)));
    m.set("client.p99_us", us(quantile(all_sorted, 0.99)));
    m.set("client.max_us", us(all_sorted.last().copied().unwrap_or(0)));
    m.set("client.topk_p50_us", class_p50(OpKind::TopK));
    m.set("client.scan_p50_us", class_p50(OpKind::Scan));
    m.set("client.insert_p50_us", class_p50(OpKind::Insert));

    let scanned = t.counter("recdb_rows_scanned_total");
    m.set("exec.rows_scanned_per_op", ratio(scanned, n));
    m.set(
        "exec.rows_scanned_per_row_returned",
        ratio(scanned, t.counter("recdb_rows_returned_total")),
    );
    let hits = t.counter("recdb_recscoreindex_hits_total");
    let misses = t.counter("recdb_recscoreindex_misses_total");
    m.set("exec.index_hit_rate", ratio(hits, hits + misses));
    m.set(
        "algo.pairs_scored_per_op",
        ratio(t.sum(|r| r.pairs_scored) as f64, n),
    );

    let (rebuilds, rebuild_us) = t.histogram(MODEL_BUILDS);
    m.set("core.rebuild_count", rebuilds);
    m.set("core.rebuild_ms_total", rebuild_us / 1e3);
    m.set("txn.lock_waits", t.counter("recdb_lock_waits_total"));
    m.set(
        "txn.lock_wait_us_total",
        t.histogram("recdb_lock_wait_micros").1,
    );
    m.set(
        "txn.commits",
        t.counter("recdb_txn_total{outcome=\"commit\"}"),
    );
    m.set(
        "txn.aborts",
        t.counter("recdb_txn_total{outcome=\"abort\"}")
            + t.counter("recdb_txn_total{outcome=\"timeout\"}"),
    );
    for (metric, counter) in [
        ("wal.appends_per_op", "recdb_wal_appends_total"),
        ("wal.bytes_per_op", "recdb_wal_appended_bytes_total"),
        ("wal.fsyncs_per_op", "recdb_wal_fsyncs_total"),
        ("storage.evictions_per_op", "recdb_pages_evicted_total"),
    ] {
        m.set(metric, ratio(t.counter(counter), n));
    }
    let pool_hits = t.counter("recdb_buffer_pool_hits_total");
    let pool_misses = t.counter("recdb_buffer_pool_misses_total");
    m.set(
        "storage.pool_hit_rate",
        ratio(pool_hits, pool_hits + pool_misses),
    );
    m.set(
        "storage.pool_accesses_per_op",
        ratio(pool_hits + pool_misses, n),
    );
}

/// Medians of the traced pass's spans, and what is derived from them.
fn span_metrics(m: &mut Metrics, tracer: &Tracer, pass: &TracedPass, client_p50: f64) {
    let spans = tracer.durations();
    for (metric, span) in [
        ("server.req_encode_us", "server.req_encode"),
        ("server.req_decode_us", "server.req_decode"),
        ("server.resp_encode_us", "server.resp_encode"),
        ("server.resp_decode_us", "server.resp_decode"),
        ("sql.parse_us", "sql.parse"),
        ("exec.plan_us", "exec.plan"),
        ("exec.run_us", "exec.run"),
        ("algo.topk_us", "algo.topk"),
        ("storage.index_topk_us", "storage.index_topk"),
        ("core.execute_us", "core.execute"),
    ] {
        m.set(metric, p50_us(&spans, span));
    }
    let execute = p50_us(&spans, "core.execute");
    m.set(
        "core.self_us",
        execute
            - p50_us(&spans, "sql.parse")
            - p50_us(&spans, "exec.plan")
            - p50_us(&spans, "exec.run"),
    );
    // Both medians are of the traced pass, whose roles alternate op by
    // op: the same mix of ops at the same time, which the untraced timed
    // section (seconds earlier, on another stretch of the stream) is not.
    let traced_roundtrip = p50_us(&spans, "client.roundtrip");
    m.set("server.roundtrip_self_us", traced_roundtrip - execute);
    m.set("server.resp_bytes", quantile(&pass.resp_bytes, 0.5) as f64);
    m.set("sql.stmt_bytes", quantile(&pass.stmt_bytes, 0.5) as f64);
    m.set(
        "trace.overhead_frac",
        ratio(traced_roundtrip, client_p50) - 1.0,
    );
}

/// Pages held, and for a durable engine what a final checkpoint costs and
/// leaves on disk.
fn footprint_metrics(
    m: &mut Metrics,
    db: &RecDb,
    data_dir: Option<&Path>,
    rows: u64,
) -> Result<(), String> {
    let heap_pages: usize = db.catalog().tables().map(|t| t.heap().page_count()).sum();
    let index_pages = db
        .recommender(RECOMMENDER)
        .and_then(|r| r.index())
        .map_or(0, |i| i.node_pages());
    m.set("storage.heap_pages", heap_pages as f64);
    m.set("storage.index_pages", index_pages as f64);
    let (mut ckpt_ms, mut ckpt_bytes, mut amplification) = (0.0, 0.0, 0.0);
    if let Some(dir) = data_dir {
        let t = Instant::now();
        db.checkpoint().map_err(|e| e.to_string())?;
        ckpt_ms = t.elapsed().as_secs_f64() * 1e3;
        // Pool spill files and the log are scratch, not the checkpoint.
        let scratch =
            |p: &Path| p.components().any(|c| c.as_os_str() == "pool") || p.ends_with("wal.log");
        ckpt_bytes = dir_bytes(dir, &|p| !scratch(p)) as f64;
        amplification = ratio(
            dir_bytes(dir, &|_| true) as f64,
            (USER_BYTES_PER_RATING * rows) as f64,
        );
    }
    m.set("storage.checkpoint_ms", ckpt_ms);
    m.set("storage.checkpoint_bytes", ckpt_bytes);
    m.set("storage.bytes_per_user_byte", amplification);
    Ok(())
}

pub fn run(spec: &RunSpec) -> Result<RunReport, String> {
    let w = spec.workload;
    let engine = w.engine(&spec.data_root);
    std::fs::create_dir_all(&spec.out_dir).map_err(|e| e.to_string())?;
    let (world, phases) = set_up_repeatedly(spec, &engine)?;
    let shape = shape_of(&world);
    println!(
        "workload {} seed {} seconds {} traced {} clients {}",
        w.name(),
        spec.seed,
        spec.seconds,
        spec.traced,
        w.clients()
    );
    println!("stream_fnv {:#018x}", fingerprint(w, spec.seed, &shape));
    if let Some(dir) = &engine.data_dir {
        println!("data_dir {} on {}", dir.display(), filesystem_of(dir));
    }

    let model_builds = |db: &RecDb| {
        db.metrics_snapshot()
            .histogram(MODEL_BUILDS)
            .map_or(0, |h| h.count)
    };
    let builds_at_start = model_builds(&world.db);
    let trained_on = world
        .db
        .recommender(RECOMMENDER)
        .map_or(0, |r| r.model().trained_on() as u64);

    let mut streams: Vec<OpStream<'_>> = (0..w.clients())
        .map(|c| OpStream::new(w, spec.seed, c, &shape))
        .collect();
    let mut timed = timed_section(spec, &world, &shape, &mut streams)?;
    let peak_rss = peak_rss_mib();

    let mut attempted = timed.sum(|r| r.attempted);
    let mut failed = timed.sum(|r| r.failed);
    let mut inserts_acked = timed.sum(|r| r.inserts_acked);
    for why in timed.runs.iter().flat_map(|r| &r.failures) {
        eprintln!("FAILED {why}");
    }
    let timed_ops = timed.sum(|r| r.timed_ops());
    let wall = timed.runs.iter().map(|r| r.timed).max().unwrap_or_default();
    let all = sorted_ns(timed.runs.iter().flat_map(|r| r.latencies_ns.iter()));
    let p50 = us(quantile(&all, 0.5));
    println!("samples {timed_ops}");

    let mut m = Metrics::default();
    m.set("setup_s", phases.total_s);
    m.set(
        "throughput_ops_s",
        ratio(timed_ops as f64, wall.as_secs_f64()),
    );
    m.set("p50_us", p50);
    m.set("peak_rss_mb", peak_rss);

    if spec.traced {
        counter_metrics(&mut m, &timed, &all);
        // Tracing on. On a thread of its own, like the timed clients and
        // the server's connection threads: the main thread's allocator
        // arena is the one set-up fragmented, and is measurably slower.
        let pass_budget = Duration::from_secs_f64(spec.seconds / 2.0);
        let probe_budget = Duration::from_secs_f64(spec.seconds / 4.0);
        let mut tracer = Tracer::new();
        let client = &mut timed.clients[0];
        let pass = std::thread::scope(|scope| {
            scope
                .spawn(|| traced_pass(&mut tracer, &world, client, &mut streams[0], pass_budget))
                .join()
                .map_err(|_| "the traced pass panicked".to_owned())
        })??;
        attempted += pass.requests;
        inserts_acked += pass.inserts;
        span_metrics(&mut m, &tracer, &pass, p50);
        let trace_file = spec.out_dir.join(format!("trace-{}.jsonl", w.name()));
        tracer
            .write_jsonl(&trace_file)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

        m.set(
            "server.ping_us",
            p50_of_repeated(2_000, probe_budget, || {
                client.ping().map_err(|e| format!("ping: {e}"))
            })?,
        );
        {
            let catalog = world.db.catalog();
            let heap = catalog.table("ratings").map_err(|e| e.to_string())?.heap();
            let scan_us = p50_of_repeated(3, probe_budget, || {
                std::hint::black_box(heap.scan().count());
                Ok(())
            })?;
            m.set(
                "storage.heap_scan_us_per_page",
                scan_us / heap.page_count().max(1) as f64,
            );
        }
        m.set(
            "wal.append_commit_us",
            if w.durable() {
                wal_probe(&spec.data_root, probe_budget)?
            } else {
                0.0
            },
        );
        m.set("algo.build_ms", phases.build_ms);
        m.set("core.materialize_ms", phases.materialize_ms);
        m.set("datasets.generate_ms", phases.generate_ms);
        m.set("datasets.load_ms", phases.load_ms);
    }

    // Correctness gate; each violation counts as a failed op. The mixed
    // workload's top-k replies were sampled before any insert could have
    // triggered a rebuild, so the seed-data oracle still applies to them.
    let client = &mut timed.clients[0];
    let mut problems = intended_operators(client, w, spec.seed, &shape);
    attempted += w.expected_operators().len() as u64;
    if timed.runs.iter().any(|r| !r.sampled.is_empty()) {
        let mut oracle = Oracle::build(&world.dataset)?;
        for (op, reply) in timed.runs.iter().flat_map(|r| &r.sampled) {
            attempted += 1;
            problems.extend(oracle.disagreement(op, reply));
        }
    }
    // The N % rule is deterministic in the inserts acknowledged since set-up.
    attempted += 1;
    let rebuilds = model_builds(&world.db) - builds_at_start;
    let expected = expected_rebuilds(trained_on, inserts_acked);
    if rebuilds != expected {
        problems.push(format!(
            "{rebuilds} model rebuilds since set-up; {inserts_acked} inserts into a model \
             trained on {trained_on} ratings make {expected}"
        ));
    }
    let expected_rows = world.dataset.ratings.len() as u64 + inserts_acked;
    if w.durable() {
        attempted += 1;
        problems.extend(row_count(client, expected_rows, "over the wire"));
    }
    if spec.traced {
        footprint_metrics(&mut m, &world.db, engine.data_dir.as_deref(), expected_rows)?;
    }

    drop(timed);
    drop(streams);
    shut_down(world)?;
    let mut open_ms = 0.0;
    if let Some(dir) = &engine.data_dir {
        let t = Instant::now();
        let mut reopened = RecDb::open_with_config(engine_config(&engine))
            .map_err(|e| format!("re-open after shutdown: {e}"))?;
        open_ms = t.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        problems.extend(row_count(&mut reopened, expected_rows, "after re-open"));
        drop(reopened);
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    if spec.traced {
        m.set("core.open_ms", open_ms);
    }

    failed += problems.len() as u64;
    for p in &problems {
        eprintln!("FAILED {p}");
    }
    m.print();
    println!("{}", result_line(&m, spec.traced, attempted, failed)?);
    Ok(RunReport { attempted, failed })
}
