//! Repeatability: `--selfcheck` runs every workload as two sets of runs of
//! the same binary and compares the set medians; `--compare` applies the
//! same rule to saved results. A metric FAILs when the medians differ by
//! more than **half** its bound — the remedy is a longer run or demoting
//! the metric to per-layer, never a wider bound.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use tse_telemetry::json::parse;
use tse_telemetry::JsonValue;

use crate::contract::contract;
use crate::harness::median;

/// One saved run: its workload, core count and metric values.
struct Saved {
    workload: String,
    cpu_cores: u64,
    metrics: BTreeMap<String, f64>,
}

fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::U64(n) => Some(*n as f64),
        JsonValue::I64(n) => Some(*n as f64),
        JsonValue::F64(n) => Some(*n),
        _ => None,
    }
}

fn parse_saved(line: &str) -> Result<Saved, String> {
    let v = parse(line)?;
    let stamp = v.get("stamp").ok_or("no stamp")?;
    let result = v.get("result").ok_or("no result")?;
    let JsonValue::Obj(metrics) = result.get("metrics").ok_or("no metrics")? else {
        return Err("metrics is not an object".into());
    };
    Ok(Saved {
        workload: stamp
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("no workload")?
            .to_string(),
        cpu_cores: stamp
            .get("cpu_cores")
            .and_then(JsonValue::as_u64)
            .ok_or("no cpu_cores")?,
        metrics: metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), number(m.get("value")?)?)))
            .collect(),
    })
}

fn load(path: &Path) -> Result<Vec<Saved>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_saved)
        .collect()
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which
/// is what the driver uses for its spreads.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (ld, n) = (v.len(), 4);
    if ld < 2 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (ld + 1) / n).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    })
}

/// Compare two sets of saved runs; prints one row per workload × metric.
/// Returns whether every end-to-end metric agreed within half its bound.
fn compare(a: &[Saved], b: &[Saved]) -> Result<bool, String> {
    if let (Some(x), Some(y)) = (a.first(), b.first()) {
        if a.iter().chain(b).any(|s| s.cpu_cores != x.cpu_cores) {
            return Err(format!(
                "refusing to compare results taken on differing cpu_cores ({} vs {})",
                x.cpu_cores, y.cpu_cores
            ));
        }
    }
    let mut all_ok = true;
    println!(
        "{:<14} {:<12} {:>12} {:>22} {:>12} {:>22} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "diff%", "limit%"
    );
    for workload in &contract().workloads {
        for m in &contract().end_to_end {
            let values = |set: &[Saved]| -> Vec<f64> {
                set.iter()
                    .filter(|s| s.workload == *workload)
                    .filter_map(|s| s.metrics.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            let diff = (mb - ma).abs() / ma;
            let ok = diff <= m.bound / 2.0;
            all_ok &= ok;
            println!(
                "{:<14} {:<12} {:>12.4} {:>10.4}..{:<10.4} {:>12.4} {:>10.4}..{:<10.4} {:>8.2} {:>7.2}  {}",
                workload,
                m.name,
                ma,
                qa[0],
                qa[2],
                mb,
                qb[0],
                qb[2],
                diff * 100.0,
                m.bound * 50.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    Ok(all_ok)
}

fn verdict(outcome: Result<bool, String>) -> ExitCode {
    match outcome {
        Ok(true) => {
            println!("PASS: every end-to-end metric repeats within half its bound");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!(
                "FAIL: lengthen the run or demote the metric to per-layer; do not widen the bound"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tse-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

pub fn compare_files(a: &Path, b: &Path) -> ExitCode {
    verdict(load(a).and_then(|a| compare(&a, &load(b)?)))
}

/// Run one workload in a fresh process (so `peak_rss_mb` and allocator state
/// are a first run's) and return its saved-result line.
fn spawn_run(workload: &str, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &contract().run_seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (result, stamp) = (
        lines.next().ok_or("no result line")?,
        lines.next().ok_or("no stamp line")?,
    );
    let stamp = parse(stamp)?;
    let stamp = stamp.get("stamp").ok_or("no stamp")?.clone();
    Ok(JsonValue::obj(vec![("stamp", stamp), ("result", parse(result)?)]).render())
}

/// Two sets of `runs` runs per workload, each run with another seed. The
/// sets alternate (A, B, A, B, ...) so that a drift of the machine between
/// minutes lands on both alike. They are saved as `selfcheck-A.jsonl` /
/// `selfcheck-B.jsonl` and compared.
pub fn selfcheck(out_dir: &Path, runs: u64) -> ExitCode {
    let mut sets = [String::new(), String::new()];
    for workload in &contract().workloads {
        for run in 0..runs {
            for (s, set) in sets.iter_mut().enumerate() {
                let seed = 100 * (s as u64 + 1) + run;
                eprintln!(
                    "selfcheck: {workload} set {} run {run} (seed {seed})",
                    ["A", "B"][s]
                );
                match spawn_run(workload, seed) {
                    Ok(line) => *set += &(line + "\n"),
                    Err(e) => {
                        eprintln!("tse-benchmark: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    let paths = ["selfcheck-A.jsonl", "selfcheck-B.jsonl"].map(|name| out_dir.join(name));
    for (path, set) in paths.iter().zip(&sets) {
        if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(path, set)) {
            eprintln!("tse-benchmark: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    compare_files(&paths[0], &paths[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn saved(workload: &str, cores: u64, ops: f64) -> Saved {
        let metrics = contract()
            .end_to_end
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    if m.name == "ops_per_s" { ops } else { 1.0 },
                )
            })
            .collect();
        Saved {
            workload: workload.into(),
            cpu_cores: cores,
            metrics,
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn compare_fails_past_half_the_bound_and_refuses_mixed_cores() {
        let a = [saved("local_read", 2, 100.0)];
        // Within half of ops_per_s's bound agrees, past it does not.
        let bound = contract()
            .end_to_end
            .iter()
            .find(|m| m.name == "ops_per_s")
            .expect("ops_per_s is gated")
            .bound;
        let apart = |share: f64| [saved("local_read", 2, 100.0 * (1.0 + share * bound))];
        assert_eq!(compare(&a, &apart(0.4)), Ok(true));
        assert_eq!(compare(&a, &apart(-0.6)), Ok(false));
        assert!(compare(&a, &[saved("local_read", 4, 100.0)]).is_err());
    }

    #[test]
    fn saved_lines_round_trip() {
        let line = r#"{"stamp":{"workload":"local_read","cpu_cores":2},"result":{"correct":true,"attempted":1,"failed":0,"metrics":{"ops_per_s":{"value":12.5,"unit":"1/s"}}}}"#;
        let s = parse_saved(line).unwrap();
        assert_eq!(
            (s.workload.as_str(), s.cpu_cores, s.metrics["ops_per_s"]),
            ("local_read", 2, 12.5)
        );
    }
}
