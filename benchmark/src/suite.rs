//! Everything above a single run: the whole suite (one process per
//! workload), and the A/A check that the benchmark agrees with itself.

use crate::driver::median;
use crate::report::{environment_json, END_TO_END, RUN_SECONDS};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Runs per set of the A/A check: what the benchmark's driver makes.
const AA_RUNS: usize = 10;

/// Measured values of one child run, by metric name.
type Values = BTreeMap<String, f64>;

struct ChildRun {
    values: Values,
    /// The child's last line: the result object.
    result: String,
    ok: bool,
}

/// Run one workload in a process of its own (so that `VmHWM`, cold caches
/// and the first model build are that workload's alone), echoing what it
/// prints.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut values = Values::new();
    for line in stdout.lines() {
        println!("  {line}");
        let mut f = line.split_whitespace();
        if let (Some("metric"), Some(name), Some(value)) = (f.next(), f.next(), f.next()) {
            if let Ok(v) = value.parse::<f64>() {
                values.insert(name.to_owned(), v);
            }
        }
    }
    Ok(ChildRun {
        values,
        result: stdout.lines().last().unwrap_or("null").to_owned(),
        ok: out.status.success(),
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Every workload once, traced (a traced run measures its end-to-end
/// metrics with tracing off first, so one process yields both sets).
/// Writes `results.json`; returns whether every run was correct.
pub fn suite(seed: u64, smoke: bool, out_dir: &Path, data_root: &Path) -> Result<bool, String> {
    let seconds = if smoke {
        RUN_SECONDS as f64 / 50.0
    } else {
        RUN_SECONDS as f64
    };
    let started = Instant::now();
    let mut all_ok = true;
    let mut json = format!(
        "{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"environment\": {},\n  \"workloads\": {{\n",
        environment_json(data_root)
    );
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        println!("== {} ==", w.name());
        let run = child(w, seed, seconds, true, smoke)?;
        all_ok &= run.ok;
        let comma = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let mut end_to_end = String::new();
        for (def, _) in END_TO_END {
            if let Some(v) = run.values.get(def.name) {
                let _ = write!(end_to_end, "\"{}\": {v}, ", def.name);
            }
        }
        let _ = writeln!(
            json,
            "    \"{}\": {{\"correct\": {}, \"end_to_end\": {{{}}}, \"traced\": {}}}{comma}",
            w.name(),
            run.ok,
            end_to_end.trim_end_matches(", "),
            run.result
        );
    }
    json.push_str("  }\n}\n");
    write_file(&out_dir.join("results.json"), &json)?;
    println!(
        "suite: {} in {:.1} s; results in {}",
        if all_ok { "all correct" } else { "FAILURES" },
        started.elapsed().as_secs_f64(),
        out_dir.join("results.json").display()
    );
    Ok(all_ok)
}

fn quartile_spread(values: &[f64]) -> f64 {
    // statistics.quantiles(values, n=4), method "exclusive".
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let pos = p * (n + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let (q1, q2, q3) = (at(0.25), at(0.5), at(0.75));
    (q3 - q1) / q2
}

/// The acceptance test a benchmark must pass before its numbers mean
/// anything: two sets of [`AA_RUNS`] runs of the same build, a new seed each
/// run. Per workload and end-to-end metric, the spread of each set
/// (interquartile range over median) must stay within the metric's bound,
/// and the second set's median may not be worse than the first's by more
/// than the bound. Writes `AA.json`; returns whether everything held.
pub fn aa(seed: u64, aa_file: &Path, data_root: &Path) -> Result<bool, String> {
    let mut all_ok = true;
    let mut json = format!(
        "{{\n  \"runs_per_set\": {AA_RUNS},\n  \"seconds\": {RUN_SECONDS},\n  \"first_seed\": {seed},\n  \"environment\": {},\n  \"workloads\": {{\n",
        environment_json(data_root)
    );
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = Default::default();
        for (s, set) in sets.iter_mut().enumerate() {
            for r in 0..AA_RUNS {
                let run_seed = seed + (s * AA_RUNS + r) as u64;
                println!("== {} set {} seed {run_seed} ==", w.name(), s + 1);
                let run = child(w, run_seed, RUN_SECONDS as f64, false, false)?;
                all_ok &= run.ok;
                for (def, _) in END_TO_END {
                    let v = run
                        .values
                        .get(def.name)
                        .ok_or_else(|| format!("{} printed no {}", w.name(), def.name))?;
                    set.entry(def.name).or_default().push(*v);
                }
            }
        }
        let _ = writeln!(json, "    \"{}\": {{", w.name());
        for (mi, (def, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][def.name], &sets[1][def.name]);
            let (ma, mb) = (median(a), median(b));
            let worse = if def.lower_is_better {
                mb / ma - 1.0
            } else {
                ma / mb - 1.0
            };
            let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
            // The set-up spread is reported but not judged: the driver
            // exempts it too, because the first set-up of a process is cold.
            let steady = def.name == "setup_s" || spread_a.max(spread_b) <= *bound;
            let ok = steady && worse <= *bound;
            all_ok &= ok;
            println!(
                "aa {:16} {:18} median {ma:12.4} {mb:12.4} {:4} second worse by {:+.4} spread {spread_a:.4} {spread_b:.4} bound {bound} {}",
                w.name(),
                def.name,
                def.unit,
                worse,
                if ok { "ok" } else { "MISSED" }
            );
            let comma = if mi + 1 < END_TO_END.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "      \"{}\": {{\"unit\": \"{}\", \"median_first\": {ma}, \"median_second\": {mb}, \
                 \"second_worse_by\": {worse}, \"spread_first\": {spread_a}, \"spread_second\": {spread_b}, \
                 \"bound\": {bound}, \"within_bound\": {ok}}}{comma}",
                def.name, def.unit
            );
        }
        let comma = if wi + 1 < Workload::ALL.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  }\n}\n");
    write_file(aa_file, &json)?;
    println!(
        "aa: {}; written to {}",
        if all_ok {
            "every metric within its bound"
        } else {
            "BOUNDS MISSED"
        },
        aa_file.display()
    );
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert!((quartile_spread(&[10.0, 30.0, 20.0]) - 1.0).abs() < 1e-12);
    }
}
