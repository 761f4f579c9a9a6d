//! The benchmark's contract, read from `BENCHMARK.json` at the repo root
//! (compiled in, so there is one source of truth): workload names, metric
//! names with units and bounds. Plus the run configuration and the
//! result/stamp rendering.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use tse_telemetry::json::parse;
use tse_telemetry::JsonValue;

use crate::harness::{summarize, Phase};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract. `bound` is 0 for per-layer metrics.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub bound: f64,
}

/// `BENCHMARK.json`, as far as the harness needs it.
pub struct Contract {
    /// Seconds one run measures, at the commit that sized the op counts.
    pub run_seconds: u64,
    /// The gated workloads (the binary can run others; see `main.rs`).
    pub workloads: Vec<String>,
    /// The gated metrics, defined on every workload.
    pub end_to_end: Vec<Metric>,
    /// The ungated metrics of a `--trace 1` run, `<crate>.<metric>`. A
    /// layer that a workload leaves idle reports 0 there.
    pub per_layer: Vec<Metric>,
}

fn parse_contract(text: &str) -> Option<Contract> {
    let json = parse(text).ok()?;
    let list = |key: &str| match json.get(key) {
        Some(JsonValue::Arr(items)) => Some(items.clone()),
        _ => None,
    };
    let name = |v: &JsonValue| Some(v.get("name")?.as_str()?.to_string());
    let metrics = |key: &str| -> Option<Vec<Metric>> {
        list(key)?
            .iter()
            .map(|m| {
                Some(Metric {
                    name: name(m)?,
                    unit: m.get("unit")?.as_str()?.to_string(),
                    bound: match m.get("bound") {
                        Some(JsonValue::F64(bound)) => *bound,
                        _ => 0.0,
                    },
                })
            })
            .collect()
    };
    Some(Contract {
        run_seconds: json.get("run_seconds")?.as_u64()?,
        workloads: list("workloads")?.iter().map(name).collect::<Option<_>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The parsed contract.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| parse_contract(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Accepted and stamped only: the op counts are frozen constants, sized
    /// once so the measured phase takes `run_seconds` at the commit that
    /// defined the benchmark, so both commits of a comparison do identical
    /// work.
    pub seconds: u64,
    pub trace: bool,
    /// Where durable directories, results and span files go.
    pub out_dir: PathBuf,
    /// Durable directory override (`--dir`).
    pub durable_dir: Option<PathBuf>,
}

impl Config {
    /// A fresh (emptied) durable directory for this run.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let root = self
            .durable_dir
            .clone()
            .unwrap_or_else(|| self.out_dir.join("tmp"));
        let dir = root.join(format!("{}-{}-{tag}", self.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create durable dir");
        dir
    }
}

/// Per-layer values by metric name; everything starts at 0 ("layer idle").
pub type Layers = BTreeMap<&'static str, f64>;

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub read_p50_us: f64,
    pub layers: Layers,
    /// Workload-specific stamp entries (op counts, population sizes, ...).
    pub stamp: Vec<(&'static str, JsonValue)>,
}

/// Set a per-layer metric, insisting the name is part of the contract.
pub fn put(layers: &mut Layers, name: &'static str, value: f64) {
    assert!(
        contract().per_layer.iter().any(|m| m.name == name),
        "{name} is not a per-layer metric"
    );
    layers.insert(name, value);
}

/// The workload's own client boundary on a traced run: the supported tail
/// (with its percentile and sample count) of the primary op's and the
/// read's latency samples, given in nanoseconds.
pub fn put_client_tails(layers: &mut Layers, ops_ns: &[f64], reads_ns: &[f64]) {
    let (ops, reads) = (summarize(ops_ns), summarize(reads_ns));
    put(layers, "client.op_tail_us", ops.tail / 1e3);
    put(layers, "client.op_tail_pct", ops.tail_pct);
    put(layers, "client.op_samples", ops.samples as f64);
    put(layers, "client.read_tail_us", reads.tail / 1e3);
    put(layers, "client.read_tail_pct", reads.tail_pct);
    put(layers, "client.read_samples", reads.samples as f64);
}

/// What tracing cost a closed-loop phase: allocations per op on the traced
/// rounds, and how much slower those rounds ran.
pub fn put_tracing_cost(layers: &mut Layers, phase: &Phase) {
    put(layers, "client.allocs_per_op", phase.allocs_per_op());
    put(
        layers,
        "bench.trace_overhead_pct",
        phase.trace_overhead_pct(),
    );
}

fn metric(value: f64, unit: &str) -> JsonValue {
    JsonValue::obj(vec![("value", value.into()), ("unit", unit.into())])
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end without tracing, per-layer with).
pub fn result_json(cfg: &Config, out: &Outcome, peak_rss_mb: f64) -> JsonValue {
    let metrics: Vec<(String, JsonValue)> = if cfg.trace {
        contract()
            .per_layer
            .iter()
            .map(|m| {
                let v = out.layers.get(m.name.as_str()).copied().unwrap_or(0.0);
                (m.name.clone(), metric(v, &m.unit))
            })
            .collect()
    } else {
        contract()
            .end_to_end
            .iter()
            .map(|m| {
                let v = match m.name.as_str() {
                    "setup_s" => out.setup_s,
                    "ops_per_s" => out.ops_per_s,
                    "op_p50_us" => out.op_p50_us,
                    "read_p50_us" => out.read_p50_us,
                    "peak_rss_mb" => peak_rss_mb,
                    other => unreachable!("no measurement for end-to-end metric {other}"),
                };
                (m.name.clone(), metric(v, &m.unit))
            })
            .collect()
    };
    JsonValue::obj(vec![
        ("correct", (out.failed == 0 && out.attempted > 0).into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("metrics", JsonValue::Obj(metrics)),
    ])
}

/// The git commit of the checkout, read from `.git` without spawning git
/// (`"unknown"` outside a repository, as in the driver's checkout).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Hardware threads available to this process.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Guard rail: a workload may not start more load threads than cores.
pub fn check_load_threads(threads: usize) {
    let cores = cpu_cores();
    assert!(
        threads <= cores,
        "refusing to start {threads} load threads on {cores} cores: the result would measure \
         scheduling, not the system"
    );
}

/// The environment stamp that accompanies every result.
pub fn stamp_json(cfg: &Config, out: &Outcome) -> JsonValue {
    let mut pairs: Vec<(String, JsonValue)> = vec![
        ("workload".into(), cfg.workload.as_str().into()),
        ("seed".into(), cfg.seed.into()),
        ("seconds".into(), cfg.seconds.into()),
        ("traced".into(), cfg.trace.into()),
        ("cpu_cores".into(), cpu_cores().into()),
        ("commit".into(), git_commit().into()),
    ];
    pairs.extend(out.stamp.iter().map(|(k, v)| (k.to_string(), v.clone())));
    JsonValue::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_into_the_contract() {
        let c = contract();
        assert_eq!(c.workloads, ["local_read", "served_mixed", "evolve_trace"]);
        assert!(c.run_seconds >= 10);
        let gated: Vec<&str> = c.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            gated,
            [
                "setup_s",
                "ops_per_s",
                "op_p50_us",
                "read_p50_us",
                "peak_rss_mb"
            ]
        );
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(c
            .per_layer
            .iter()
            .all(|m| m.bound == 0.0 && m.name.contains('.')));
        assert!(parse_contract("{\"run_seconds\": 1}").is_none());
    }
}
