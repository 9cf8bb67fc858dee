//! Counters, gauges, histograms, and the registry that names them.
//!
//! Hot-path recording is one atomic RMW per event: metric handles are
//! `Arc`-shared cells handed out by the [`Registry`], so callers resolve a
//! name once (a short mutex-guarded map lookup) and then record lock-free.
//! Series are identified by a canonical key `name{label="value",…}` with
//! labels sorted by label name, so the same logical series always lands in
//! the same cell regardless of call-site label order.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. materialized entries).
#[derive(Debug, Default)]
pub struct Gauge {
    cell: AtomicI64,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (microseconds, rows,
/// bytes). Buckets are upper bounds, exclusive of `+Inf` which is implicit;
/// counts are *per bucket* internally and cumulated only at render time,
/// so `observe` is a single `fetch_add` on the first bucket that fits.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            buckets: bounds.iter().map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time copy of one histogram series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (inclusive), ascending. `+Inf` is implicit.
    pub bounds: Vec<u64>,
    /// Per-bucket (non-cumulative) observation counts, aligned with
    /// `bounds`. Observations above the last bound only appear in `count`.
    pub buckets: Vec<u64>,
    /// Total observations, including those above the last bound.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

/// Point-in-time copy of every registered series, keyed by canonical
/// series key (`name{label="value",…}`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: BTreeMap<String, u64>,
    /// All gauges.
    pub gauges: BTreeMap<String, i64>,
    /// All histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter series by exact key, 0 if never registered.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of every counter series in a family (all label combinations of
    /// `name`).
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| family_of(k) == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Value of a gauge series by exact key, 0 if never registered.
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// A histogram series by exact key.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(key)
    }

    /// Render in the Prometheus text exposition format: one `# TYPE` line
    /// per metric family, then one sample line per series. Histograms
    /// expand into the conventional `_bucket{le=…}` (cumulative),
    /// `_sum`, and `_count` samples.
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_family_group(&mut out, "counter", self.counters.iter(), |out, key, v| {
            out.push_str(&format!("{key} {v}\n"));
        });
        render_family_group(&mut out, "gauge", self.gauges.iter(), |out, key, v| {
            out.push_str(&format!("{key} {v}\n"));
        });
        render_family_group(
            &mut out,
            "histogram",
            self.histograms.iter(),
            |out, key, h| {
                let (family, labels) = split_key(key);
                let with = |extra: &str| -> String {
                    match (labels, extra.is_empty()) {
                        (None, true) => String::new(),
                        (None, false) => format!("{{{extra}}}"),
                        (Some(l), true) => format!("{{{l}}}"),
                        (Some(l), false) => format!("{{{l},{extra}}}"),
                    }
                };
                let mut cumulative = 0u64;
                for (bound, n) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += n;
                    let le = format!("le=\"{bound}\"");
                    out.push_str(&format!("{family}_bucket{} {cumulative}\n", with(&le)));
                }
                out.push_str(&format!(
                    "{family}_bucket{} {}\n",
                    with("le=\"+Inf\""),
                    h.count
                ));
                out.push_str(&format!("{family}_sum{} {}\n", with(""), h.sum));
                out.push_str(&format!("{family}_count{} {}\n", with(""), h.count));
            },
        );
        out
    }
}

/// Emit `# TYPE` headers per family and delegate sample rendering, for one
/// kind of metric. Assumes the iterator is sorted by key (BTreeMap order),
/// which groups each family's series together.
fn render_family_group<'a, V: 'a>(
    out: &mut String,
    kind: &str,
    series: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &str, &V),
) {
    let mut last_family = String::new();
    for (key, value) in series {
        let family = family_of(key);
        if family != last_family {
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            last_family = family.to_owned();
        }
        render(out, key, value);
    }
}

/// The family name of a series key: everything before the label braces.
fn family_of(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Split a series key into `(family, labels-inside-braces)`.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((family, rest)) => (family, rest.strip_suffix('}')),
        None => (key, None),
    }
}

/// The engine-wide metric registry. Cheap to share (`Arc<Registry>`);
/// every accessor takes `&self`, so `&self` query paths can both resolve
/// and record. Handles are memoized: asking for the same series twice
/// returns the same cell.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter series `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels…}`, created on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Arc::clone(
            lock(&self.counters)
                .entry(series_key(name, labels))
                .or_default(),
        )
    }

    /// Register `cell` as the counter series `name` (no labels), in place
    /// of any cell the series had: how a component that owns its counters
    /// publishes them, so that each event is one add to one cell.
    pub fn register_counter(&self, name: &str, cell: Arc<Counter>) {
        lock(&self.counters).insert(series_key(name, &[]), cell);
    }

    /// The gauge series `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge series `name{labels…}`, created on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        Arc::clone(
            lock(&self.gauges)
                .entry(series_key(name, labels))
                .or_default(),
        )
    }

    /// The histogram series `name` with the given bucket upper bounds
    /// (no labels).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.histogram_with(name, bounds, &[])
    }

    /// The histogram series `name{labels…}`. `bounds` applies on first
    /// registration; later calls reuse the existing buckets regardless.
    pub fn histogram_with(
        &self,
        name: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        Arc::clone(
            lock(&self.histograms)
                .entry(series_key(name, labels))
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// Copy every series into a plain value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Render the current state in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// Poison-tolerant lock: metrics must keep working after a contained
/// panic elsewhere in the engine.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Canonical series key: `name` alone, or `name{k="v",…}` with labels
/// sorted by label name and values minimally escaped.
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let body: Vec<String> = sorted
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let r = Registry::new();
        r.counter("hits").inc();
        r.counter("hits").add(2);
        assert_eq!(r.snapshot().counter("hits"), 3);
        assert_eq!(r.snapshot().counter("nonexistent"), 0);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let r = Registry::new();
        r.counter_with("x", &[("b", "2"), ("a", "1")]).inc();
        r.counter_with("x", &[("a", "1"), ("b", "2")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("x{a=\"1\",b=\"2\"}"), 2, "{snap:?}");
        assert_eq!(snap.counter_family("x"), 2);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.snapshot().gauge("depth"), 7);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = Registry::new();
        let h = r.histogram("lat", &[10, 100]);
        for v in [1, 10, 11, 1_000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(
            hs.buckets,
            vec![2, 1],
            "le=10 gets 1 and 10; le=100 gets 11"
        );
        assert_eq!(hs.count, 4, "the 1000 overflows into +Inf only");
        assert_eq!(hs.sum, 1_022);
    }

    #[test]
    fn render_is_prometheus_shaped() {
        let r = Registry::new();
        r.counter_with("recdb_statements_total", &[("kind", "select")])
            .add(4);
        r.gauge("recdb_materialized_entries").set(5);
        r.histogram("recdb_model_build_micros", &[100, 1_000])
            .observe(150);
        let text = r.render();
        assert!(text.contains("# TYPE recdb_statements_total counter"));
        assert!(text.contains("recdb_statements_total{kind=\"select\"} 4"));
        assert!(text.contains("# TYPE recdb_materialized_entries gauge"));
        assert!(text.contains("recdb_materialized_entries 5"));
        assert!(text.contains("# TYPE recdb_model_build_micros histogram"));
        assert!(text.contains("recdb_model_build_micros_bucket{le=\"100\"} 0"));
        assert!(text.contains("recdb_model_build_micros_bucket{le=\"1000\"} 1"));
        assert!(text.contains("recdb_model_build_micros_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("recdb_model_build_micros_sum 150"));
        assert!(text.contains("recdb_model_build_micros_count 1"));
    }

    #[test]
    fn histogram_render_merges_labels_with_le() {
        let r = Registry::new();
        r.histogram_with("b", &[10], &[("algorithm", "SVD")])
            .observe(3);
        let text = r.render();
        assert!(
            text.contains("b_bucket{algorithm=\"SVD\",le=\"10\"} 1"),
            "{text}"
        );
        assert!(text.contains("b_sum{algorithm=\"SVD\"} 3"));
    }

    #[test]
    fn handles_are_shared() {
        let r = Arc::new(Registry::new());
        let c = r.counter("shared");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counter thread");
        }
        assert_eq!(r.snapshot().counter("shared"), 4000);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("c", &[("q", "a\"b")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("c{q=\"a\\\"b\"}"), 1);
    }
}
