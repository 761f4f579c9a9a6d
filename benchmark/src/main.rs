//! `tse-benchmark` — the repo benchmark. One command runs one workload and
//! prints every metric by name with its unit, checking correctness:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dir <durable dir>]
//! tse-benchmark --selfcheck [runs]     # two sets of runs (default 3 each) must agree within half the bounds
//! tse-benchmark --compare a.jsonl b.jsonl
//! ```
//!
//! See `README.md` for the workloads, the metrics and the noise rules.

mod check;
mod contract;
mod durable_write;
mod evolve_trace;
mod harness;
mod layers;
mod local_read;
mod population;
mod served_mixed;

use std::path::PathBuf;
use std::process::ExitCode;

use contract::{contract, Config, Outcome};
use harness::Tracer;
use tse_core::TseResult;
use tse_telemetry::JsonValue;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// Every workload the binary can run. `BENCHMARK.json` lists the gated ones;
/// `durable_write` is runnable but ungated (see README, "Bounds").
const WORKLOADS: [&str; 4] = [
    "local_read",
    "durable_write",
    "served_mixed",
    "evolve_trace",
];

const USAGE: &str =
    "usage: tse-benchmark --workload <local_read|durable_write|served_mixed|evolve_trace> \
    --seed <n> [--seconds <s>] [--trace <0|1>] [--dir <durable dir>]\n       \
    tse-benchmark --selfcheck [runs] | --compare <a.jsonl> <b.jsonl>";

enum Mode {
    Run(Config),
    SelfCheck(u64),
    Compare(PathBuf, PathBuf),
}

/// Results, spans and durable scratch directories live next to the build
/// output (`<target dir>/benchmark/`), which is inside the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("<target>/<profile>/tse-benchmark");
    target.join("benchmark")
}

fn parse_args() -> Result<Mode, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: contract().run_seconds,
        trace: false,
        out_dir: out_dir(),
        durable_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|_| "--seed must be a number")?,
            "--seconds" => {
                cfg.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be a whole number")?;
                if cfg.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--dir" => cfg.durable_dir = Some(PathBuf::from(value()?)),
            "--selfcheck" => {
                let runs = it.next().map_or(Ok(3), |n| {
                    n.parse().map_err(|_| "--selfcheck takes a run count")
                })?;
                return Ok(Mode::SelfCheck(runs));
            }
            "--compare" => return Ok(Mode::Compare(value()?.into(), value()?.into())),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    Ok(Mode::Run(cfg))
}

fn run_workload(cfg: &Config, tracer: &mut Tracer) -> TseResult<Outcome> {
    let mut out = match cfg.workload.as_str() {
        "local_read" => local_read::run(cfg, tracer),
        "durable_write" => durable_write::run(cfg, tracer),
        "served_mixed" => served_mixed::run(cfg, tracer),
        "evolve_trace" => evolve_trace::run(cfg, tracer),
        other => unreachable!("workload {other:?} passed validation"),
    }?;
    if cfg.trace {
        layers::probe(cfg, tracer, &mut out)?;
        contract::put(&mut out.layers, "bench.spans_recorded", tracer.len() as f64);
    }
    Ok(out)
}

fn run(cfg: &Config) -> ExitCode {
    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    let mut tracer = Tracer::new(cfg.trace);
    let out = match run_workload(cfg, &mut tracer) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("tse-benchmark: {} aborted: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    // Every workload removes its own durable directories; this only takes
    // the shared parent away once it is empty (another run may be using it).
    let _ = std::fs::remove_dir(cfg.out_dir.join("tmp"));
    let stem = format!("{}-seed{}-trace{}", cfg.workload, cfg.seed, cfg.trace as u8);
    if cfg.trace {
        let path = cfg.out_dir.join(format!("{stem}.spans.jsonl"));
        tracer.write_jsonl(&path).expect("write span file");
    }
    let stamp = contract::stamp_json(cfg, &out);
    let result = contract::result_json(cfg, &out, harness::peak_rss_mb());
    let saved = JsonValue::obj(vec![("stamp", stamp.clone()), ("result", result.clone())]);
    std::fs::write(
        cfg.out_dir.join(format!("{stem}.json")),
        saved.render() + "\n",
    )
    .expect("write result file");
    println!("{}", JsonValue::obj(vec![("stamp", stamp)]).render());
    println!("{}", result.render());
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tse-benchmark: {} of {} checked ops failed",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Mode::Run(cfg)) => run(&cfg),
        Ok(Mode::SelfCheck(runs)) => check::selfcheck(&out_dir(), runs),
        Ok(Mode::Compare(a, b)) => check::compare_files(&a, &b),
        Err(e) => {
            eprintln!("tse-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
