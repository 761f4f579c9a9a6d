//! Offline forensic reader for TSE telemetry journals.
//!
//! A journal is the JSONL flight-recorder output of `tse-telemetry`: one
//! object per closed span or point event, each stamped with a dense thread
//! id (`tid`) and, when emitted inside a session/evolve scope, a `trace`
//! id. This crate parses a journal (tolerating one torn final line, the
//! normal state of a sink cut off mid-write), reconstructs per-trace
//! structure, and derives the reports the `tse-inspect` binary prints:
//!
//! * per-trace summaries (kind, threads involved, record count, time span),
//! * evolve-phase timelines (translate → classify → view_regen → swap_in),
//! * lock-wait / stripe-contention breakdowns and WAL group-commit batch
//!   statistics from an embedded `metrics.snapshot` event,
//! * the slow-op log with its attributed wait times,
//! * a Prometheus-style text exposition of the embedded snapshot,
//! * a CI gate ([`Journal::check`]) that fails on causality violations,
//!   zero traces, or dropped flight-recorder records.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use tse_telemetry::json::{parse, validate_lines_tolerant, JsonValue};

/// The four phases a complete evolve trace must exhibit, in pipeline order.
pub const EVOLVE_PHASES: [&str; 4] =
    ["evolve.translate", "evolve.classify", "evolve.view_regen", "evolve.swap_in"];

/// A parsed journal: every complete record, in emission order.
pub struct Journal {
    /// Parsed records (JSON objects), oldest first.
    pub records: Vec<JsonValue>,
    /// True when the final line was torn (truncated mid-record) and skipped.
    pub torn: bool,
}

/// One trace's footprint in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Trace id.
    pub id: u64,
    /// Trace kind from its `trace.begin` event (`read_session`, `evolve`,
    /// …), or `?` if the begin event was evicted from the ring.
    pub kind: String,
    /// Total records stamped with this trace.
    pub records: usize,
    /// Closed spans stamped with this trace.
    pub spans: usize,
    /// Dense thread ids that emitted under this trace.
    pub tids: BTreeSet<u64>,
    /// Earliest timestamp (span start or event time), ns since epoch.
    pub first_ns: u64,
    /// Latest timestamp (span end or event time), ns since epoch.
    pub last_ns: u64,
    /// Trace this one causally follows (e.g. autocheckpoint ← write), from
    /// its `trace.begin` event.
    pub follows_from_trace: Option<u64>,
}

/// One phase interval inside an evolve timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Span name, e.g. `evolve.classify`.
    pub name: String,
    /// Start offset, ns since epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Emitting thread.
    pub tid: u64,
}

/// A reconstructed evolve: the root `evolve` span plus its phase children.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolveTimeline {
    /// Trace the evolve ran under (None for pre-trace journals).
    pub trace: Option<u64>,
    /// Root `evolve` span id.
    pub span: u64,
    /// Root span start, ns since epoch.
    pub start_ns: u64,
    /// Root span duration, ns.
    pub total_ns: u64,
    /// Child phase spans ordered by start time.
    pub phases: Vec<Phase>,
    /// True when all of [`EVOLVE_PHASES`] are present.
    pub complete: bool,
}

/// Aggregate view of one histogram from an embedded metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    /// Histogram name, e.g. `lock.stripe_wait_ns`.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// One slow-op journal event with its attributed waits.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowOp {
    /// Operation name (`create`, `update_where`, …).
    pub op: String,
    /// Trace the operation ran under.
    pub trace: Option<u64>,
    /// Emitting thread.
    pub tid: u64,
    /// Operation duration, ns.
    pub dur_ns: u64,
    /// Wait-time fields attributed to the op (`lock.stripe_wait_ns`, …).
    pub waits: Vec<(String, u64)>,
}

/// Result of the CI gate.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Complete records parsed.
    pub records: usize,
    /// Final line was torn and skipped.
    pub torn: bool,
    /// Distinct traces observed.
    pub traces: usize,
    /// `journal.dropped` from the last embedded snapshot, if any snapshot
    /// was embedded.
    pub dropped: Option<u64>,
    /// Everything that makes the gate fail (empty = pass).
    pub problems: Vec<String>,
    /// Advisory findings; printed but do not fail the gate.
    pub warnings: Vec<String>,
}

/// Result of checking one `BENCH_*.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCheckReport {
    /// The `cpu_cores` stamp, if present.
    pub cpu_cores: Option<u64>,
    /// Keys anywhere in the artifact whose names claim parallel scaling
    /// (`scaling*`, `speedup*`).
    pub scaling_keys: Vec<String>,
    /// Everything that makes the gate fail (empty = pass).
    pub problems: Vec<String>,
    /// Advisory findings; printed but do not fail the gate.
    pub warnings: Vec<String>,
}

/// CI gate for a benchmark artifact (a single `BENCH_*.json` object, as
/// opposed to a JSONL journal): FAIL when the artifact is not an object or
/// lacks the `cpu_cores` stamp, WARN (without failing) when a scaling or
/// speedup figure was measured on a 1-core host — every configuration
/// timeslices onto the same CPU there, so the claim is noise.
pub fn check_bench_artifact(text: &str) -> Result<BenchCheckReport, String> {
    let value = parse(text.trim())?;
    if !matches!(value, JsonValue::Obj(_)) {
        return Err("bench artifact is not a JSON object".to_string());
    }
    let cpu_cores = get_u64(&value, "cpu_cores");
    let mut scaling_keys = Vec::new();
    collect_scaling_keys(&value, "", &mut scaling_keys);
    let mut problems = Vec::new();
    let mut warnings = Vec::new();
    match cpu_cores {
        None => problems.push(
            "cpu_cores missing: artifact predates the host stamp; re-run the bench".to_string(),
        ),
        Some(1) if !scaling_keys.is_empty() => warnings.push(format!(
            "scaling claim from a 1-core artifact: {} measured with every thread \
             timesliced onto one CPU",
            scaling_keys.join(", ")
        )),
        Some(_) => {}
    }
    Ok(BenchCheckReport { cpu_cores, scaling_keys, problems, warnings })
}

/// Walk the artifact and record dotted paths of keys that name a parallel
/// scaling figure.
fn collect_scaling_keys(value: &JsonValue, prefix: &str, out: &mut Vec<String>) {
    match value {
        JsonValue::Obj(pairs) => {
            for (k, v) in pairs {
                let path =
                    if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                if k.contains("scaling") || k.contains("speedup") {
                    out.push(path.clone());
                }
                collect_scaling_keys(v, &path, out);
            }
        }
        JsonValue::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                collect_scaling_keys(v, &format!("{prefix}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn get_u64(rec: &JsonValue, key: &str) -> Option<u64> {
    rec.get(key).and_then(|v| v.as_u64())
}

fn get_str<'a>(rec: &'a JsonValue, key: &str) -> Option<&'a str> {
    rec.get(key).and_then(|v| v.as_str())
}

fn is_span(rec: &JsonValue) -> bool {
    get_str(rec, "kind") == Some("span")
}

/// A record's end-of-interval timestamp: span end or event time.
fn end_ns(rec: &JsonValue) -> u64 {
    if is_span(rec) {
        get_u64(rec, "start_ns").unwrap_or(0) + get_u64(rec, "dur_ns").unwrap_or(0)
    } else {
        get_u64(rec, "at_ns").unwrap_or(0)
    }
}

fn start_ns(rec: &JsonValue) -> u64 {
    if is_span(rec) {
        get_u64(rec, "start_ns").unwrap_or(0)
    } else {
        get_u64(rec, "at_ns").unwrap_or(0)
    }
}

impl Journal {
    /// Parse a JSONL journal, tolerating one torn final line.
    pub fn parse(input: &str) -> Result<Journal, String> {
        let (_, torn) = validate_lines_tolerant(input)?;
        let mut records = Vec::new();
        let lines: Vec<&str> =
            input.lines().filter(|l| !l.trim().is_empty()).collect();
        for (k, line) in lines.iter().enumerate() {
            match parse(line) {
                Ok(v) => records.push(v),
                Err(_) if torn && k + 1 == lines.len() => {}
                Err(e) => return Err(e),
            }
        }
        Ok(Journal { records, torn })
    }

    /// Summaries of every trace seen in the journal, by trace id.
    pub fn trace_summaries(&self) -> Vec<TraceSummary> {
        let mut by_id: BTreeMap<u64, TraceSummary> = BTreeMap::new();
        for rec in &self.records {
            let Some(trace) = get_u64(rec, "trace") else { continue };
            let s = by_id.entry(trace).or_insert_with(|| TraceSummary {
                id: trace,
                kind: "?".to_string(),
                records: 0,
                spans: 0,
                tids: BTreeSet::new(),
                first_ns: u64::MAX,
                last_ns: 0,
                follows_from_trace: None,
            });
            s.records += 1;
            if is_span(rec) {
                s.spans += 1;
            }
            if let Some(tid) = get_u64(rec, "tid") {
                s.tids.insert(tid);
            }
            s.first_ns = s.first_ns.min(start_ns(rec));
            s.last_ns = s.last_ns.max(end_ns(rec));
            if get_str(rec, "name") == Some("trace.begin") {
                if let Some(fields) = rec.get("fields") {
                    if let Some(kind) = get_str(fields, "kind") {
                        s.kind = kind.to_string();
                    }
                    s.follows_from_trace = get_u64(fields, "follows_from_trace");
                }
            }
        }
        by_id.into_values().collect()
    }

    /// Reconstruct every evolve in the journal: the root `evolve` span and
    /// its direct phase children, ordered by start time.
    pub fn evolve_timelines(&self) -> Vec<EvolveTimeline> {
        let roots: Vec<(u64, Option<u64>, u64, u64)> = self
            .records
            .iter()
            .filter(|r| is_span(r) && get_str(r, "name") == Some("evolve"))
            .filter_map(|r| {
                Some((
                    get_u64(r, "id")?,
                    get_u64(r, "trace"),
                    get_u64(r, "start_ns")?,
                    get_u64(r, "dur_ns")?,
                ))
            })
            .collect();
        roots
            .into_iter()
            .map(|(span, trace, start, total)| {
                let mut phases: Vec<Phase> = self
                    .records
                    .iter()
                    .filter(|r| {
                        is_span(r)
                            && get_u64(r, "parent") == Some(span)
                            && get_str(r, "name")
                                .is_some_and(|n| n.starts_with("evolve."))
                    })
                    .filter_map(|r| {
                        Some(Phase {
                            name: get_str(r, "name")?.to_string(),
                            start_ns: get_u64(r, "start_ns")?,
                            dur_ns: get_u64(r, "dur_ns")?,
                            tid: get_u64(r, "tid").unwrap_or(0),
                        })
                    })
                    .collect();
                phases.sort_by_key(|p| p.start_ns);
                let complete = EVOLVE_PHASES
                    .iter()
                    .all(|name| phases.iter().any(|p| p.name == *name));
                EvolveTimeline { trace, span, start_ns: start, total_ns: total, phases, complete }
            })
            .collect()
    }

    /// Causality violations: a span whose `parent` record exists in the
    /// journal but lives on a different thread or trace (legal parents are
    /// same-thread, same-trace; cross-thread links must use
    /// `follows_from`). Events are checked for thread-locality only, since
    /// an event may legally be stamped with an inner trace while its
    /// enclosing span belongs to an outer one.
    pub fn causality_errors(&self) -> Vec<String> {
        let spans: BTreeMap<u64, &JsonValue> = self
            .records
            .iter()
            .filter(|r| is_span(r))
            .filter_map(|r| Some((get_u64(r, "id")?, r)))
            .collect();
        let mut errors = Vec::new();
        for rec in &self.records {
            let Some(parent_id) = get_u64(rec, "parent") else { continue };
            // A parent evicted from the ring is not a violation.
            let Some(parent) = spans.get(&parent_id) else { continue };
            let name = get_str(rec, "name").unwrap_or("?");
            if get_u64(rec, "tid") != get_u64(parent, "tid") {
                errors.push(format!(
                    "{name}: parent span {parent_id} lives on another thread \
                     (tid {:?} vs {:?})",
                    get_u64(rec, "tid"),
                    get_u64(parent, "tid")
                ));
                continue;
            }
            if is_span(rec) && get_u64(rec, "trace") != get_u64(parent, "trace") {
                errors.push(format!(
                    "{name}: parent span {parent_id} belongs to another trace \
                     ({:?} vs {:?}) without a follows_from link",
                    get_u64(rec, "trace"),
                    get_u64(parent, "trace")
                ));
            }
        }
        errors
    }

    /// The embedded `metrics.snapshot` payloads, oldest first.
    pub fn snapshots(&self) -> Vec<&JsonValue> {
        self.records
            .iter()
            .filter(|r| get_str(r, "name") == Some("metrics.snapshot"))
            .filter_map(|r| r.get("fields")?.get("snapshot"))
            .collect()
    }

    /// The most recent embedded metrics snapshot, if any.
    pub fn last_snapshot(&self) -> Option<&JsonValue> {
        self.snapshots().pop()
    }

    /// Histogram stats with a given name prefix from the last snapshot.
    pub fn hist_stats(&self, prefix: &str) -> Vec<HistStat> {
        let Some(snap) = self.last_snapshot() else { return Vec::new() };
        let Some(JsonValue::Obj(hists)) = snap.get("histograms") else {
            return Vec::new();
        };
        hists
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .filter_map(|(name, h)| {
                Some(HistStat {
                    name: name.clone(),
                    count: get_u64(h, "count")?,
                    sum: get_u64(h, "sum")?,
                    min: get_u64(h, "min")?,
                    max: get_u64(h, "max")?,
                    mean: match h.get("mean") {
                        Some(JsonValue::F64(m)) => *m,
                        Some(v) => v.as_u64().unwrap_or(0) as f64,
                        None => 0.0,
                    },
                })
            })
            .collect()
    }

    /// A counter from the last embedded snapshot. `None` means no snapshot
    /// was embedded at all; a snapshot without the counter reads as 0
    /// (counters are sparse — never-bumped counters are absent).
    pub fn snapshot_counter(&self, name: &str) -> Option<u64> {
        let counters = self.last_snapshot()?.get("counters")?;
        Some(counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0))
    }

    /// Every `slow_op` event, in order.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.records
            .iter()
            .filter(|r| get_str(r, "name") == Some("slow_op"))
            .filter_map(|r| {
                let fields = r.get("fields")?;
                let waits = match fields {
                    JsonValue::Obj(pairs) => pairs
                        .iter()
                        .filter(|(k, _)| k.starts_with("lock.") || k.starts_with("wal."))
                        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                        .collect(),
                    _ => Vec::new(),
                };
                Some(SlowOp {
                    op: get_str(fields, "op")?.to_string(),
                    trace: get_u64(r, "trace"),
                    tid: get_u64(r, "tid").unwrap_or(0),
                    dur_ns: get_u64(fields, "dur_ns")?,
                    waits,
                })
            })
            .collect()
    }

    /// Run the CI gate: fail on zero traces, any causality violation,
    /// `journal.dropped > 0` in the embedded snapshot, a poisoned WAL,
    /// quarantined snapshot generations, a `health.transition` into
    /// degraded/poisoned that never recovered, or a dedup-window overflow
    /// (`server.dedup_overflow > 0` — the server evicted an idempotency
    /// entry a client might still retry against, voiding exactly-once).
    /// Warns — without failing — when the journal records client
    /// reconnects but no server drain, a context mismatch: the client and
    /// server halves came from different runs, or connections died
    /// without the server ever shutting down cleanly.
    pub fn check(&self) -> CheckReport {
        let traces = self.trace_summaries();
        let dropped = self.snapshot_counter("journal.dropped");
        let mut problems = Vec::new();
        let mut warnings = Vec::new();
        if traces.is_empty() {
            problems.push("no traces: no record carries a trace id".to_string());
        }
        if let Some(d) = dropped {
            if d > 0 {
                problems.push(format!("journal.dropped = {d}: flight recorder overflowed"));
            }
        }
        // Health: the journal's *last* transition tells the ending state —
        // a degradation followed by a heal ends at `healthy` and passes;
        // anything else means the system ended the run impaired.
        let last_health = self
            .records
            .iter()
            .rev()
            .find(|r| get_str(r, "name") == Some("health.transition"));
        if let Some(fields) = last_health.and_then(|r| r.get("fields")) {
            let to = get_str(fields, "to").unwrap_or("");
            if to != "healthy" {
                let reason = get_str(fields, "reason").unwrap_or("?");
                problems.push(format!(
                    "health: last transition entered `{to}` ({reason}) and never recovered"
                ));
            }
        }
        for (counter, hint) in [
            ("wal.poisoned", "the write-ahead log fail-stopped"),
            ("scrub.quarantined", "the scrubber quarantined corrupt snapshot generations"),
            (
                "server.dedup_overflow",
                "the idempotency window evicted entries a client may still retry against",
            ),
        ] {
            if let Some(v) = self.snapshot_counter(counter) {
                if v > 0 {
                    problems.push(format!("{counter} = {v}: {hint}"));
                }
            }
        }
        if self.snapshot_counter("client.reconnects").unwrap_or(0) > 0 {
            let drained =
                self.hist_stats("server.drain_ns").iter().any(|h| h.count > 0);
            if !drained {
                warnings.push(
                    "client.reconnects recorded but server.drain_ns never observed: \
                     client and server telemetry look like mismatched runs, or \
                     connections died without a clean server drain"
                        .to_string(),
                );
            }
        }
        problems.extend(self.causality_errors());
        CheckReport {
            records: self.records.len(),
            torn: self.torn,
            traces: traces.len(),
            dropped,
            problems,
            warnings,
        }
    }
}

/// Sanitize a metric name for Prometheus exposition (`[a-zA-Z0-9_]`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("tse_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

/// Render an embedded metrics snapshot as Prometheus text exposition:
/// counters as `counter`, histograms as cumulative-bucket `histogram`
/// families with `_bucket{le=...}`, `_sum`, and `_count` series.
pub fn prometheus(snapshot: &JsonValue) -> String {
    let mut out = String::new();
    if let Some(JsonValue::Obj(counters)) = snapshot.get("counters") {
        for (name, v) in counters {
            let Some(v) = v.as_u64() else { continue };
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {v}");
        }
    }
    if let Some(JsonValue::Obj(hists)) = snapshot.get("histograms") {
        for (name, h) in hists {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            if let Some(JsonValue::Arr(buckets)) = h.get("buckets") {
                for b in buckets {
                    let JsonValue::Arr(pair) = b else { continue };
                    let (Some(le), Some(count)) =
                        (pair.first().and_then(|v| v.as_u64()),
                         pair.get(1).and_then(|v| v.as_u64()))
                    else {
                        continue;
                    };
                    cumulative += count;
                    let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
                }
            }
            let count = h.get("count").and_then(|v| v.as_u64()).unwrap_or(0);
            let sum = h.get("sum").and_then(|v| v.as_u64()).unwrap_or(0);
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {count}");
            let _ = writeln!(out, "{n}_sum {sum}");
            let _ = writeln!(out, "{n}_count {count}");
        }
    }
    out
}

/// Render the full human-readable report (what the binary prints without
/// flags).
pub fn report(journal: &Journal) -> String {
    let mut out = String::new();
    let traces = journal.trace_summaries();
    let _ = writeln!(
        out,
        "journal: {} records, {} traces{}",
        journal.records.len(),
        traces.len(),
        if journal.torn { " (torn final line skipped)" } else { "" }
    );

    let _ = writeln!(out, "\n== traces ==");
    for t in &traces {
        let tids: Vec<String> = t.tids.iter().map(|t| t.to_string()).collect();
        let follows = t
            .follows_from_trace
            .map(|f| format!("  follows trace {f}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "trace {:>4}  {:<14} {:>5} records  {:>4} spans  tids [{}]  {:>10} ns{}",
            t.id,
            t.kind,
            t.records,
            t.spans,
            tids.join(","),
            t.last_ns.saturating_sub(t.first_ns),
            follows
        );
    }

    let timelines = journal.evolve_timelines();
    if !timelines.is_empty() {
        let _ = writeln!(out, "\n== evolve timelines ==");
        for tl in &timelines {
            let trace = tl.trace.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "evolve span {} (trace {trace}): total {} ns{}",
                tl.span,
                tl.total_ns,
                if tl.complete { "" } else { "  [INCOMPLETE]" }
            );
            for p in &tl.phases {
                let offset = p.start_ns.saturating_sub(tl.start_ns);
                let _ = writeln!(
                    out,
                    "  +{offset:>10} ns  {:<18} {:>10} ns  tid {}",
                    p.name, p.dur_ns, p.tid
                );
            }
        }
    }

    let locks = journal.hist_stats("lock.");
    if !locks.is_empty() {
        let _ = writeln!(out, "\n== lock waits ==");
        for h in &locks {
            let _ = writeln!(
                out,
                "{:<24} count {:>8}  mean {:>12.0} ns  max {:>12} ns  total {:>14} ns",
                h.name, h.count, h.mean, h.max, h.sum
            );
        }
    }

    let wal = journal.hist_stats("wal.");
    if !wal.is_empty() {
        let _ = writeln!(out, "\n== wal group commit ==");
        for h in &wal {
            let _ = writeln!(
                out,
                "{:<24} count {:>8}  mean {:>12.1}  min {:>8}  max {:>12}",
                h.name, h.count, h.mean, h.min, h.max
            );
        }
    }

    let slow = journal.slow_ops();
    if !slow.is_empty() {
        let _ = writeln!(out, "\n== slow ops ==");
        for s in &slow {
            let waits: Vec<String> =
                s.waits.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let trace = s.trace.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{:<16} {:>12} ns  trace {trace}  tid {}  [{}]",
                s.op,
                s.dur_ns,
                s.tid,
                waits.join(" ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_telemetry::Telemetry;

    /// Drive a real Telemetry through a multi-trace workload and return its
    /// journal text — keeps these tests honest against the writer.
    fn sample_journal() -> String {
        let t = Telemetry::new();
        let tr = t.mint_trace("evolve");
        let g = t.enter_trace(tr);
        {
            let _e = t.span("evolve");
            for phase in EVOLVE_PHASES {
                let _p = t.span(phase);
            }
        }
        drop(g);
        let tr2 = t.mint_trace("write_session");
        let g2 = t.enter_trace(tr2);
        t.observe_ns("lock.stripe_wait_ns", 300);
        t.set_slow_op_threshold_ns(1);
        let create = t.op(&tse_telemetry::op_name!("create"));
        t.observe_op(&create, 5_000, None);
        drop(g2);
        t.journal_metrics_snapshot();
        t.journal_lines()
    }

    #[test]
    fn parses_and_summarizes_traces() {
        let j = Journal::parse(&sample_journal()).unwrap();
        assert!(!j.torn);
        let traces = j.trace_summaries();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].kind, "evolve");
        assert_eq!(traces[1].kind, "write_session");
        assert!(traces[0].spans >= 5);
        assert!(j.causality_errors().is_empty());
    }

    #[test]
    fn reconstructs_a_complete_evolve_timeline() {
        let j = Journal::parse(&sample_journal()).unwrap();
        let timelines = j.evolve_timelines();
        assert_eq!(timelines.len(), 1);
        let tl = &timelines[0];
        assert!(tl.complete, "all four phases present: {:?}", tl.phases);
        assert_eq!(tl.phases.len(), 4);
        // Phases are in start order and nested inside the root interval.
        for w in tl.phases.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
        for p in &tl.phases {
            assert!(p.start_ns >= tl.start_ns);
        }
    }

    #[test]
    fn slow_ops_and_snapshot_stats_surface() {
        let j = Journal::parse(&sample_journal()).unwrap();
        let slow = j.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].op, "create");
        assert_eq!(slow[0].dur_ns, 5_000);
        assert!(slow[0].waits.iter().any(|(k, v)| k == "lock.stripe_wait_ns" && *v == 300));
        let locks = j.hist_stats("lock.");
        assert!(locks.iter().any(|h| h.name == "lock.stripe_wait_ns" && h.sum == 300));
        assert_eq!(j.snapshot_counter("journal.dropped"), Some(0));
    }

    #[test]
    fn check_passes_on_clean_journal_and_fails_on_empty_traces() {
        let j = Journal::parse(&sample_journal()).unwrap();
        let report = j.check();
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert!(report.traces >= 2);

        // A journal with records but no trace stamps fails the gate.
        let untraced = Telemetry::new();
        untraced.event("lonely", &[]);
        let j2 = Journal::parse(&untraced.journal_lines()).unwrap();
        assert!(j2.check().problems.iter().any(|p| p.contains("no traces")));
    }

    #[test]
    fn check_flags_dropped_records_and_cross_thread_parents() {
        let t = Telemetry::with_capacity(4);
        let tr = t.mint_trace("evolve");
        let _g = t.enter_trace(tr);
        for i in 0..10 {
            t.event("e", &[("i", (i as u64).into())]);
        }
        t.journal_metrics_snapshot();
        let j = Journal::parse(&t.journal_lines()).unwrap();
        let report = j.check();
        assert!(report.dropped.unwrap() > 0);
        assert!(report.problems.iter().any(|p| p.contains("journal.dropped")));

        // A hand-forged cross-thread parent is caught.
        let forged = concat!(
            "{\"kind\":\"span\",\"id\":1,\"parent\":null,\"trace\":1,\"tid\":1,",
            "\"name\":\"a\",\"depth\":0,\"start_ns\":0,\"dur_ns\":10}\n",
            "{\"kind\":\"span\",\"id\":2,\"parent\":1,\"trace\":1,\"tid\":2,",
            "\"name\":\"b\",\"depth\":1,\"start_ns\":1,\"dur_ns\":5}\n",
        );
        let j2 = Journal::parse(forged).unwrap();
        assert!(j2
            .causality_errors()
            .iter()
            .any(|e| e.contains("another thread")));
    }

    #[test]
    fn check_flags_unrecovered_health_poisoned_wal_and_quarantines() {
        // Degrade → heal ends at `healthy`: passes.
        let t = Telemetry::new();
        let tr = t.mint_trace("chaos");
        let _g = t.enter_trace(tr);
        t.event(
            "health.transition",
            &[("from", "healthy".into()), ("to", "degraded".into()), ("reason", "disk_full".into())],
        );
        t.event(
            "health.transition",
            &[("from", "degraded".into()), ("to", "healthy".into()), ("reason", "heal".into())],
        );
        let j = Journal::parse(&t.journal_lines()).unwrap();
        assert!(
            !j.check().problems.iter().any(|p| p.contains("health")),
            "{:?}",
            j.check().problems
        );

        // A degradation that never heals fails.
        t.event(
            "health.transition",
            &[
                ("from", "healthy".into()),
                ("to", "degraded".into()),
                ("reason", "retries_exhausted".into()),
            ],
        );
        let j = Journal::parse(&t.journal_lines()).unwrap();
        assert!(j
            .check()
            .problems
            .iter()
            .any(|p| p.contains("degraded") && p.contains("never recovered")));

        // Poisoned-WAL and quarantine counters in the embedded snapshot fail.
        let t2 = Telemetry::new();
        let tr2 = t2.mint_trace("chaos");
        let _g2 = t2.enter_trace(tr2);
        t2.event("something", &[]);
        t2.incr("wal.poisoned", 1);
        t2.incr("scrub.quarantined", 2);
        t2.journal_metrics_snapshot();
        let j2 = Journal::parse(&t2.journal_lines()).unwrap();
        let problems = j2.check().problems;
        assert!(problems.iter().any(|p| p.contains("wal.poisoned = 1")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("scrub.quarantined = 2")), "{problems:?}");
    }

    #[test]
    fn check_flags_dedup_overflow_and_reconnects_without_drain() {
        // Reconnects with no drain observation: WARN, not FAIL.
        let t = Telemetry::new();
        let tr = t.mint_trace("chaos");
        let _g = t.enter_trace(tr);
        t.event("net", &[]);
        t.incr("client.reconnects", 3);
        t.journal_metrics_snapshot();
        let j = Journal::parse(&t.journal_lines()).unwrap();
        let r = j.check();
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert!(
            r.warnings.iter().any(|w| w.contains("client.reconnects")),
            "{:?}",
            r.warnings
        );

        // The same reconnects alongside a recorded drain: clean.
        t.observe_ns("server.drain_ns", 1_000);
        t.journal_metrics_snapshot();
        let j = Journal::parse(&t.journal_lines()).unwrap();
        assert!(j.check().warnings.is_empty(), "{:?}", j.check().warnings);

        // A dedup-window overflow is a hard failure: the server evicted
        // idempotency state a client may still retry against.
        t.incr("server.dedup_overflow", 2);
        t.journal_metrics_snapshot();
        let j = Journal::parse(&t.journal_lines()).unwrap();
        assert!(
            j.check().problems.iter().any(|p| p.contains("server.dedup_overflow = 2")),
            "{:?}",
            j.check().problems
        );
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_sanitized() {
        let j = Journal::parse(&sample_journal()).unwrap();
        let text = prometheus(j.last_snapshot().unwrap());
        assert!(text.contains("# TYPE tse_op_create counter"));
        assert!(text.contains("tse_op_create 1"));
        assert!(text.contains("# TYPE tse_latency_create histogram"));
        assert!(text.contains("tse_latency_create_count 1"));
        assert!(text.contains("tse_latency_create_bucket{le=\"+Inf\"} 1"));
        // No raw dots survive sanitization.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(!name.contains('.'), "unsanitized name: {name}");
        }
    }

    #[test]
    fn torn_tail_is_tolerated_and_reported() {
        let mut text = sample_journal();
        text.push_str("{\"kind\":\"event\",\"name\":\"torn");
        let j = Journal::parse(&text).unwrap();
        assert!(j.torn);
        assert!(report(&j).contains("torn final line skipped"));
    }

    #[test]
    fn bench_artifact_check_gates_cpu_cores_and_flags_1_core_scaling() {
        // Missing stamp: FAIL.
        let r = check_bench_artifact(r#"{"bench":"x","scaling_4_over_1":3.2}"#).unwrap();
        assert_eq!(r.cpu_cores, None);
        assert!(!r.problems.is_empty());

        // 1-core with a scaling claim: WARN, not FAIL. The nested
        // speedup key is found too.
        let r = check_bench_artifact(
            r#"{"cpu_cores":1,"scaling_4_over_1":3.2,"fork":{"speedup":40.0}}"#,
        )
        .unwrap();
        assert!(r.problems.is_empty());
        assert_eq!(r.warnings.len(), 1, "{:?}", r.warnings);
        assert_eq!(r.scaling_keys, vec!["scaling_4_over_1", "fork.speedup"]);

        // Multi-core with claims, or 1-core without claims: clean.
        assert!(check_bench_artifact(r#"{"cpu_cores":8,"scaling_4_over_1":3.2}"#)
            .unwrap()
            .warnings
            .is_empty());
        assert!(check_bench_artifact(r#"{"cpu_cores":1,"total_ns":5}"#)
            .unwrap()
            .warnings
            .is_empty());

        // Non-objects are a parse-level error.
        assert!(check_bench_artifact("[1,2]").is_err());
    }

    #[test]
    fn human_report_renders_all_sections() {
        let j = Journal::parse(&sample_journal()).unwrap();
        let text = report(&j);
        for section in ["== traces ==", "== evolve timelines ==", "== lock waits ==",
                        "== wal group commit ==", "== slow ops =="] {
            // wal section only present if wal.* histograms exist — sample
            // has none, so allow its absence.
            if section.contains("wal") && j.hist_stats("wal.").is_empty() {
                continue;
            }
            assert!(text.contains(section), "missing {section} in:\n{text}");
        }
        assert!(text.contains("evolve.swap_in"));
    }
}
