//! Workload 4 — `evolve_trace`: the admin client replays a seeded
//! Sjøberg-mix trace of schema changes, as command text through
//! `TseClient::evolve`, on a durable 5 000-object system, while a "legacy"
//! client pinned to v1 of the same family issues paced gets on a second
//! thread.
//!
//! Why: translate, classify, view regeneration, swap-in and `fork_shared`
//! do the work. Late changes dominate (the per-change prover rebuild is
//! O(V²)), so incremental classification must show here and nowhere else.
//! The pinned reader is the paper's transparency claim on a latency budget.
//!
//! The first [`HISTORY`] changes of the trace are the system's evolution
//! history and belong to the set-up; the measured changes are the later,
//! dearer ones. A round of the measured phase is one replay of all of them
//! on a freshly set-up system, so every round also yields one `setup_s`
//! sample.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::{
    LocalClient, SharedSystem, TseClient, TseCode, TseReader, TseResult, TseSystem, TseWriter,
};
use tse_object_model::{Oid, Value};
use tse_workload::{build_university, generate_and_apply_trace, TraceMix};

use tse_telemetry::JsonValue;

use crate::contract::{check_load_threads, fs_type, put, put_client_tails, Config, Outcome};
use crate::harness::{
    count_allocs, hist_p50, median, run_phase, time_block, Ctx, StreamHash, Tally, Tracer, BLOCK,
    ROUNDS, WARMUP_SHARE,
};
use crate::population::{define_university, FAMILY};

pub const POPULATION: usize = 5_000;
/// Schema changes in the trace (frozen; the family ends at version K + 1):
/// the first [`HISTORY`] are applied during set-up, the rest are measured.
pub const TRACE_LEN: usize = 105;
pub const HISTORY: usize = 50;
/// The trace is **one frozen draw** of the Sjøberg mix. What a change costs
/// depends so much on which classes a draw happens to touch (5.5 to 31.8
/// evolves/s across ten draws at the seed commit) that a draw per run would
/// measure the dice, not the code. `--seed` drives the population's values
/// and the legacy reader's picks instead.
pub const TRACE_SEED: u64 = 1;
/// The legacy reader issues [`TICK_BLOCKS`] blocks of [`BLOCK`] gets per
/// tick: 2 000/s. (Ten blocks per wake-up rather than one: the first blocks
/// after a sleep find the caches cold, and the median block should show the
/// read path under evolution, not the wake-up.)
const TICK: Duration = Duration::from_millis(320);
const TICK_BLOCKS: usize = 10;
/// `(class, attr)` pairs the v1 reader cycles through.
const V1_PAIRS: [(&str, &str); 4] = [
    ("Person", "name"),
    ("Person", "age"),
    ("Student", "age"),
    ("Staff", "name"),
];
/// Population classes by creation index, all of them Students *and* Staff's
/// siblings so every v1 pair above has members.
const CLASSES: [&str; 3] = ["TA", "Grader", "TA"];

const EVOLVE: usize = 0;
const LEGACY_GET: usize = 1;
const KINDS: [&str; 2] = ["core.evolve", "client.legacy_get"];

/// Generate the trace against an in-memory twin of the durable system's
/// schema and render it to command text. Also returns the name of one
/// attribute the trace adds, which v1 must never see.
fn generate() -> TseResult<(Vec<String>, String, u64)> {
    let (mut twin, _) = build_university()?;
    twin.create_view_all(FAMILY)?;
    let trace = generate_and_apply_trace(
        &mut twin,
        FAMILY,
        TRACE_LEN,
        &TraceMix::default(),
        TRACE_SEED,
    )?;
    let mut hash = StreamHash::default();
    let mut commands = Vec::with_capacity(TRACE_LEN);
    for change in &trace.changes {
        let command = change.render()?;
        command.bytes().for_each(|b| hash.feed(b as u64));
        commands.push(command);
    }
    let post_v1_attr = commands
        .iter()
        .find_map(|c| {
            c.strip_prefix("add_attribute ")?
                .split(':')
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "attr_1".to_string());
    Ok((commands, post_v1_attr, hash.0))
}

fn name_of(idx: usize) -> String {
    format!("e{idx}")
}

fn age_of(seed: u64, idx: usize) -> i64 {
    18 + ((seed as usize).wrapping_add(idx * 7) % 50) as i64
}

/// A freshly set-up system: the population, a client still bound to v1, and
/// the admin client that applied the history and is bound to its end.
struct Fresh {
    sys: SharedSystem,
    oids: Vec<Oid>,
    legacy: LocalClient,
    admin: LocalClient,
}

fn setup(dir: &std::path::Path, seed: u64, history: &[String]) -> TseResult<Fresh> {
    let sys = TseSystem::builder(dir).open()?;
    let admin = sys.client(FAMILY);
    define_university(&admin)?;
    let writer = admin.writer()?;
    let oids = (0..POPULATION)
        .map(|idx| {
            writer.create(
                CLASSES[idx % CLASSES.len()],
                &[
                    ("name", Value::Str(name_of(idx))),
                    ("age", Value::Int(age_of(seed, idx))),
                ],
            )
        })
        .collect::<TseResult<Vec<Oid>>>()?;
    drop(writer);
    let legacy = sys.client(FAMILY);
    for command in history {
        admin.evolve(command)?;
    }
    Ok(Fresh {
        sys,
        oids,
        legacy,
        admin,
    })
}

/// The legacy program: a burst of blocks of gets per tick through a fresh
/// v1 session, every value checked, plus one probe that a post-v1 attribute
/// stays invisible. Returns its per-op samples (ns) and its tally.
fn legacy_reader(
    legacy: &LocalClient,
    oids: &[Oid],
    seed: u64,
    post_v1_attr: &str,
    stop: &AtomicBool,
) -> (Vec<f64>, Tally) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c65_6761);
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut values: Vec<TseResult<Value>> = Vec::with_capacity(BLOCK);
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let reader = legacy.session().expect("legacy client is bound to v1");
        tally.check(reader.view_version() == 1, || {
            "legacy reader left v1".into()
        });
        for _ in 0..TICK_BLOCKS {
            let picks: Vec<(usize, usize)> = (0..BLOCK)
                .map(|_| {
                    (
                        rng.gen_range(0..V1_PAIRS.len()),
                        rng.gen_range(0..oids.len()),
                    )
                })
                .collect();
            values.clear();
            samples.push(time_block(BLOCK, |i| {
                let (pair, idx) = picks[i];
                values.push(reader.get(oids[idx], V1_PAIRS[pair].0, V1_PAIRS[pair].1));
            }));
            for (got, (pair, idx)) in values.iter().zip(&picks) {
                let want = match V1_PAIRS[*pair].1 {
                    "name" => Value::Str(name_of(*idx)),
                    _ => Value::Int(age_of(seed, *idx)),
                };
                tally.check(got.as_ref().ok() == Some(&want), || {
                    format!(
                        "legacy get {:?} of object {idx}: {got:?} != {want:?}",
                        V1_PAIRS[*pair]
                    )
                });
            }
        }
        let leaked = reader.get(oids[0], "Person", post_v1_attr);
        tally.check(
            matches!(&leaked, Err(e) if e.code() == TseCode::NotFound),
            || format!("v1 reader saw post-v1 attribute {post_v1_attr}: {leaked:?}"),
        );
        drop(reader);
        next += TICK;
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
    }
    (samples, tally)
}

/// Phase breakdown of the traced evolves, in nanoseconds per evolve.
#[derive(Default)]
struct Phases {
    wall: Vec<f64>,
    translate: Vec<f64>,
    classify: Vec<f64>,
    view_regen: Vec<f64>,
    swap_in: Vec<f64>,
    glue: Vec<f64>,
    classes_touched: Vec<f64>,
    duplicates_folded: f64,
    last10_over_first10: Vec<f64>,
    /// Whole-trace replays that were traced, and what they allocated.
    traced_replays: f64,
    allocs: f64,
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> TseResult<Outcome> {
    // The admin thread and the legacy reader thread.
    check_load_threads(2);
    let (commands, post_v1_attr, stream_hash) = generate()?;

    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut phases = Phases::default();
    let mut fs = String::new();
    let mut last_snapshot = None;
    let mut classes_final = 0;
    let mut failure = None;

    // One block is one replay of the first `n` measured changes on a fresh
    // system: a tenth of them to warm up, then all of them once per round.
    let (history, measured) = commands.split_at(HISTORY);
    let warm_len = (measured.len() as f64 * WARMUP_SHARE) as usize;
    let mut replay = |n: usize, ctx: &mut Ctx| -> TseResult<()> {
        let dir = cfg.fresh_dir("replay");
        fs = fs_type(&dir);
        let t = Instant::now();
        let Fresh {
            sys,
            oids,
            legacy,
            admin,
        } = setup(&dir, cfg.seed, history)?;
        setup_s.push(t.elapsed().as_secs_f64());
        sys.telemetry().reset();
        let stop = AtomicBool::new(false);
        let mut classify_ns = Vec::with_capacity(n);
        let traced = ctx.traced;
        let mut replay_evolves = || {
            std::thread::scope(|scope| {
                let reader =
                    scope.spawn(|| legacy_reader(&legacy, &oids, cfg.seed, &post_v1_attr, &stop));
                for (i, command) in measured[..n].iter().enumerate() {
                    let t0 = if ctx.traced { ctx.tracer.now_ns() } else { 0 };
                    let t = Instant::now();
                    let version = if ctx.traced {
                        // Same pipeline below the client; this entry point
                        // returns the EvolutionReport with its PhaseTimings.
                        sys.evolve_cmd(FAMILY, command)
                            .map_err(tse_core::TseError::from)
                            .map(|report| {
                                let wall = t.elapsed().as_nanos() as f64;
                                let p = &report.timings;
                                phases.wall.push(wall);
                                phases.translate.push(p.translate_ns as f64);
                                phases.classify.push(p.classify_ns as f64);
                                phases.view_regen.push(p.view_regen_ns as f64);
                                phases.swap_in.push(p.swap_in_ns as f64);
                                phases.glue.push(wall - p.phases_sum_ns() as f64);
                                phases.classes_touched.push(report.classes_touched as f64);
                                phases.duplicates_folded += report.duplicates_folded as f64;
                                classify_ns.push(p.classify_ns as f64);
                                // Phase spans are laid out back to back from the
                                // evolve's start: the report gives durations only.
                                let parent = ctx.tracer.record(
                                    KINDS[EVOLVE],
                                    t0,
                                    t0 + wall as u64,
                                    None,
                                    ctx.op,
                                );
                                let mut at = t0;
                                for (name, ns) in [
                                    ("core.translate", p.translate_ns),
                                    ("classifier.classify", p.classify_ns),
                                    ("view.view_regen", p.view_regen_ns),
                                    ("view.swap_in", p.swap_in_ns),
                                ] {
                                    ctx.tracer.record(name, at, at + ns, parent, ctx.op);
                                    at += ns;
                                }
                                (HISTORY + i) as u32 + 2
                            })
                    } else {
                        admin.evolve(command).map(|summary| summary.version)
                    };
                    let wall = t.elapsed().as_nanos() as f64;
                    ctx.sample(EVOLVE, wall);
                    ctx.busy(1, wall);
                    let expected = (HISTORY + i) as u32 + 2;
                    tally.check(version.as_ref().ok() == Some(&expected), || {
                        format!("evolve {i} ({command}): {version:?}")
                    });
                }
                stop.store(true, Ordering::Release);
                reader.join().expect("legacy reader panicked")
            })
        };
        // Allocations of the evolves (and the reader beside them) alone:
        // the round's own count would include the set-up.
        let (samples, reader_tally) = if traced {
            let (out, allocs) = count_allocs(&mut replay_evolves);
            phases.allocs += allocs as f64;
            out
        } else {
            replay_evolves()
        };
        samples.iter().for_each(|ns| ctx.sample(LEGACY_GET, *ns));
        tally.attempted += reader_tally.attempted;
        tally.failed += reader_tally.failed;
        if classify_ns.len() >= 20 {
            let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
            phases
                .last10_over_first10
                .push(mean(&classify_ns[classify_ns.len() - 10..]) / mean(&classify_ns[..10]));
            phases.traced_replays += 1.0;
        }

        let versions = sys.client(FAMILY).versions()?;
        tally.check(versions as usize == HISTORY + n + 1, || {
            format!(
                "family ends at version {versions}, expected {}",
                HISTORY + n + 1
            )
        });
        classes_final = sys.session().meta().schema().class_count();
        last_snapshot = Some(sys.telemetry().snapshot());
        drop((legacy, admin, sys));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    };
    let blocks: Vec<usize> = std::iter::once(warm_len)
        .chain(std::iter::repeat_n(measured.len(), ROUNDS))
        .collect();
    let phase = run_phase(
        tracer,
        &KINDS,
        blocks.split_at(1),
        || (),
        |n, ctx| {
            if let Err(e) = replay(*n, ctx) {
                failure.get_or_insert(e);
            }
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }

    let mut out = Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        setup_s: median(&setup_s),
        ops_per_s: phase.rate(false),
        op_p50_us: phase.latency_ns(&[EVOLVE]) / 1e3,
        read_p50_us: phase.latency_ns(&[LEGACY_GET]) / 1e3,
        ..Outcome::default()
    };
    if cfg.trace {
        let snap = last_snapshot.expect("at least one round");
        let total = |s: &[f64]| s.iter().sum::<f64>();
        put(
            &mut out.layers,
            "core.translate_us_p50",
            median(&phases.translate) / 1e3,
        );
        put(
            &mut out.layers,
            "classifier.classify_us_p50",
            median(&phases.classify) / 1e3,
        );
        put(
            &mut out.layers,
            "view.view_regen_us_p50",
            median(&phases.view_regen) / 1e3,
        );
        put(
            &mut out.layers,
            "view.swap_in_us_p50",
            median(&phases.swap_in) / 1e3,
        );
        put(
            &mut out.layers,
            "core.evolve_glue_us",
            median(&phases.glue) / 1e3,
        );
        put(
            &mut out.layers,
            "classifier.classify_share",
            total(&phases.classify) / total(&phases.wall),
        );
        put(
            &mut out.layers,
            "classifier.classify_last10_over_first10",
            median(&phases.last10_over_first10),
        );
        put(
            &mut out.layers,
            "core.evolve_exclusive_ns_p50",
            hist_p50(snap.histograms.get("evolve.exclusive_ns")),
        );
        put(
            &mut out.layers,
            "core.classes_touched_mean",
            total(&phases.classes_touched) / phases.classes_touched.len() as f64,
        );
        put(
            &mut out.layers,
            "classifier.duplicates_folded_total",
            phases.duplicates_folded / phases.traced_replays,
        );
        put(
            &mut out.layers,
            "object_model.schema_classes_final",
            classes_final as f64,
        );
        put_client_tails(
            &mut out.layers,
            &phase.pooled(&[EVOLVE]),
            &phase.pooled(&[LEGACY_GET]),
        );
        put(
            &mut out.layers,
            "client.allocs_per_op",
            phases.allocs / phases.wall.len() as f64,
        );
        put(
            &mut out.layers,
            "bench.trace_overhead_pct",
            phase.trace_overhead_pct(),
        );
    }
    out.stamp = vec![
        (
            "setup_samples_s",
            JsonValue::Arr(setup_s.iter().map(|s| (*s).into()).collect()),
        ),
        ("population_objects", POPULATION.into()),
        ("trace_changes", TRACE_LEN.into()),
        ("history_changes_in_setup", HISTORY.into()),
        ("trace_seed", TRACE_SEED.into()),
        ("final_view_version", (TRACE_LEN + 1).into()),
        ("rounds", ROUNDS.into()),
        (
            "legacy_reader_gets_per_s",
            (((TICK_BLOCKS * BLOCK) as f64 / TICK.as_secs_f64()) as u64).into(),
        ),
        ("op_stream_hash", format!("{stream_hash:016x}").into()),
        ("durable_dir_fs", fs.into()),
        (
            "flush_policy",
            "shipped default: group-commit fsync before ack, 4 MiB auto-checkpoint".into(),
        ),
        ("load_threads", 2usize.into()),
    ];
    Ok(out)
}
