//! The metric catalogue (the one source `BENCHMARK.json` is generated
//! from), result printing, and the facts about the host a result depends
//! on.

use crate::workload::Workload;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
    }
}

/// What a user of the system sees, with the share of the parent's median
/// by which each may worsen before a change counts as a regression.
/// Failures are not a metric here: every run reports `failed` out of
/// `attempted`, and any failure fails the run.
///
/// The timing bounds are as wide as they are because of the host, not the
/// program: ten runs of one build on the 2-vCPU reference VM spread (first
/// to third quartile over median) by 2 to 16 % on throughput and the
/// median, the same seed as much as different ones, in spells that last
/// minutes. A tail percentile is not here at all for the same reason: p95
/// and p99 spread by up to 29 %, more than any bound the contract allows,
/// so the 99th is reported without a bound, as `client.p99_us`. See
/// README.md, "How steady it is".
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lower("setup_s", "s"), 0.25),
    (higher("throughput_ops_s", "ops/s"), 0.25),
    (lower("p50_us", "us"), 0.25),
    (lower("peak_rss_mb", "MiB"), 0.10),
];

/// One layer each, named `<layer>.<what>` after the repo's crates.
pub const PER_LAYER: &[MetricDef] = &[
    lower("server.req_encode_us", "us"),
    lower("server.req_decode_us", "us"),
    lower("server.resp_encode_us", "us"),
    lower("server.resp_decode_us", "us"),
    lower("server.resp_bytes", "B"),
    lower("server.ping_us", "us"),
    lower("server.roundtrip_self_us", "us"),
    lower("sql.parse_us", "us"),
    lower("sql.stmt_bytes", "B"),
    lower("exec.plan_us", "us"),
    lower("exec.run_us", "us"),
    lower("exec.rows_scanned_per_op", "rows"),
    lower("exec.rows_scanned_per_row_returned", "ratio"),
    higher("exec.index_hit_rate", "ratio"),
    lower("algo.topk_us", "us"),
    lower("algo.pairs_scored_per_op", "pairs"),
    lower("algo.build_ms", "ms"),
    lower("core.execute_us", "us"),
    lower("core.self_us", "us"),
    lower("core.materialize_ms", "ms"),
    lower("core.rebuild_count", "count"),
    lower("core.rebuild_ms_total", "ms"),
    lower("core.open_ms", "ms"),
    lower("txn.lock_waits", "count"),
    lower("txn.lock_wait_us_total", "us"),
    higher("txn.commits", "count"),
    lower("txn.aborts", "count"),
    lower("wal.appends_per_op", "count"),
    lower("wal.bytes_per_op", "B"),
    lower("wal.fsyncs_per_op", "count"),
    lower("wal.append_commit_us", "us"),
    higher("storage.pool_hit_rate", "ratio"),
    lower("storage.pool_accesses_per_op", "count"),
    lower("storage.evictions_per_op", "count"),
    lower("storage.index_topk_us", "us"),
    lower("storage.heap_scan_us_per_page", "us"),
    lower("storage.checkpoint_ms", "ms"),
    lower("storage.checkpoint_bytes", "B"),
    lower("storage.bytes_per_user_byte", "ratio"),
    lower("storage.heap_pages", "pages"),
    lower("storage.index_pages", "pages"),
    lower("datasets.generate_ms", "ms"),
    lower("datasets.load_ms", "ms"),
    higher("client.samples", "count"),
    lower("client.p50_us", "us"),
    lower("client.p99_us", "us"),
    lower("client.max_us", "us"),
    lower("client.topk_p50_us", "us"),
    lower("client.scan_p50_us", "us"),
    lower("client.insert_p50_us", "us"),
    lower("trace.overhead_frac", "ratio"),
];

fn better(def: &MetricDef) -> &'static str {
    if def.lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (def, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            def.name,
            def.unit,
            better(def)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, def) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            def.name,
            def.unit,
            better(def)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `metric <name> <value> <unit>` lines for every catalogued metric
    /// that was measured, in catalogue order.
    pub fn print(&self) {
        let defs = END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER);
        for def in defs {
            if let Some(v) = self.get(def.name) {
                println!("metric {} {} {}", def.name, v, def.unit);
            }
        }
    }

    /// The `"metrics"` object of the result line: exactly `defs`.
    fn json(&self, defs: &[&MetricDef]) -> Result<String, String> {
        let mut s = String::from("{");
        for (i, def) in defs.iter().enumerate() {
            let v = self
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        s.push('}');
        Ok(s)
    }
}

/// The one-line JSON object a run ends with.
pub fn result_line(
    metrics: &Metrics,
    traced: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let defs: Vec<&MetricDef> = if traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(d, _)| d).collect()
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json(&defs)?
    ))
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir` for which `keep(path)`.
pub fn dir_bytes(dir: &Path, keep: &dyn Fn(&Path) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&path, keep),
                Ok(m) if keep(&path) => m.len(),
                _ => 0,
            }
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The environment block written into `results.json`: a number from this
/// benchmark means nothing without it.
pub fn environment_json(data_root: &Path) -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host_threads\": {threads}, \"data_dir\": {}, \"data_dir_filesystem\": {}, \
         \"flush_policy\": \"engine default: fsync per commit\", \"git_commit\": {}, \"rustc\": {}}}",
        json_string(&data_root.display().to_string()),
        json_string(&filesystem_of(data_root)),
        json_string(&command_line("git", &["rev-parse", "HEAD"])),
        json_string(&command_line("rustc", &["--version"])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh --emit-manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        assert!(END_TO_END.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    #[test]
    fn result_line_carries_exactly_the_asked_set() {
        let mut m = Metrics::default();
        for (def, _) in END_TO_END {
            m.set(def.name, 1.5);
        }
        let line = result_line(&m, false, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            result_line(&m, true, 10, 0).is_err(),
            "per-layer set not measured"
        );
        assert!(result_line(&m, false, 10, 1)
            .unwrap()
            .contains("\"correct\": false"));
    }
}
