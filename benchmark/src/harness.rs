//! Measurement primitives: block timing, robust statistics, the open-loop
//! scheduler, the counting allocator and the in-memory span recorder.
//!
//! Everything here exists to suppress the noise that sank the previous
//! benchmark (see README, "PR 11 post-mortem") by how much is measured, not
//! by what is reported: sub-10 µs ops are timed in blocks of [`BLOCK`], the
//! measured phase is a frozen op count split into [`ROUNDS`] equal rounds,
//! and every gated value is the plain median across rounds of wall-clock
//! time ([`Phase::rate`], [`Phase::latency_ns`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use tse_core::TseResult;

/// Ops per timed block. One `Instant` pair times the block; the per-op
/// sample is the block time divided by this.
pub const BLOCK: usize = 64;

/// Equal rounds the measured phase is split into; the median round is
/// reported.
pub const ROUNDS: usize = 5;

/// Share of the measured op count run untimed first.
pub const WARMUP_SHARE: f64 = 0.10;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// [`quantile`] of unordered samples; 0 for none (an untraced run has no
/// traced rounds to summarise).
pub fn quantile_of(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

/// Median of unordered samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile_of(samples, 0.5)
}

/// The tail percentiles the harness is willing to report, ascending.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, or `None` when even p90 does not (`n < 100`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Supported tail and sample count of one latency population.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub tail_pct: f64,
    pub tail: f64,
    pub samples: usize,
}

/// Summarise samples (any unit). An empty population summarises to zeros.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (tail_pct, tail) = match tail_percentile(v.len()) {
        Some(p) => (p, quantile(&v, p / 100.0)),
        None => (50.0, quantile(&v, 0.5)),
    };
    Summary {
        tail_pct,
        tail,
        samples: v.len(),
    }
}

/// Median estimate from one of the system's log2 telemetry histograms:
/// linear interpolation inside the bucket holding the middle observation
/// (0 for an empty histogram). Bucket-quantised, hence per-layer only.
pub fn hist_p50(h: Option<&tse_telemetry::HistogramSnapshot>) -> f64 {
    let Some(h) = h.filter(|h| h.count > 0) else {
        return 0.0;
    };
    let rank = h.count as f64 / 2.0;
    let (mut seen, mut lower) = (0.0, 0.0);
    for (upper, n) in &h.buckets {
        if seen + *n as f64 >= rank {
            return lower + (*upper as f64 - lower) * (rank - seen) / *n as f64;
        }
        seen += *n as f64;
        lower = *upper as f64;
    }
    h.max as f64
}

/// FNV-1a over a stream of words: the op-stream fingerprint stamped into
/// every result, so two runs can prove they did identical work.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    pub fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------
// Open-loop scheduler
// ---------------------------------------------------------------------------

/// A monotonic nanosecond clock; the scheduler is generic over it so tests
/// can drive it with a fake server that advances a fake clock.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
}

/// Wall clock anchored at construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What an open-loop run observed, all in nanoseconds.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Completion time minus **intended** send time, per request.
    pub latency_ns: Vec<f64>,
    /// Actual send time minus intended send time, per request.
    pub sched_lag_ns: Vec<f64>,
    /// Most requests that were due but unsent at any completion.
    pub backlog_max: u64,
    /// Wall time of the whole run.
    pub elapsed_ns: u64,
}

/// Send `n` requests on a fixed schedule of one per `interval_ns`,
/// spin-waiting for each slot. `send` blocks until the response arrived and
/// returns the clock reading at that moment (what it does afterwards, such
/// as checking the answer, is not latency). Latency is measured from the
/// slot's *intended* time, so a stall charges every request that became due
/// behind it (no coordinated omission).
pub fn open_loop<C: Clock>(
    clock: &mut C,
    n: usize,
    interval_ns: u64,
    mut send: impl FnMut(&mut C, usize) -> u64,
) -> OpenLoopRun {
    let mut run = OpenLoopRun {
        latency_ns: Vec::with_capacity(n),
        sched_lag_ns: Vec::with_capacity(n),
        ..OpenLoopRun::default()
    };
    let start = clock.now_ns();
    for i in 0..n {
        let intended = start + i as u64 * interval_ns;
        let mut now = clock.now_ns();
        while now < intended {
            std::hint::spin_loop();
            now = clock.now_ns();
        }
        run.sched_lag_ns.push((now - intended) as f64);
        let done = send(clock, i);
        run.latency_ns.push((done - intended) as f64);
        run.backlog_max = run.backlog_max.max((done - intended) / interval_ns.max(1));
    }
    run.elapsed_ns = clock.now_ns() - start;
    run
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// The bench binary's global allocator: the system allocator plus an exact
/// allocation count, taken only while [`count_allocs`] runs (traced runs).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter bump, which touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with allocation counting on; returns its result and the exact
/// number of `alloc`/`realloc` calls made by **any** thread meanwhile (run
/// it while other threads are quiet). Calls may nest.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let was_on = COUNTING.swap(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(was_on, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/// One recorded span: a layer call seen from outside.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Spans of one logical operation share this id.
    pub op: u64,
}

/// In-memory span sink; off (and free) unless the run is traced. Written
/// as JSON lines when the benchmark ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 1,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Time `ops_in_block` calls of `f` with one `Instant` pair; returns
/// wall nanoseconds **per op**.
pub fn time_block(ops_in_block: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..ops_in_block {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / ops_in_block as f64
}

// ---------------------------------------------------------------------------
// The measured phase
// ---------------------------------------------------------------------------

/// One round of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub ops: u64,
    /// Wall seconds the system spent on those ops: the sum of the timed
    /// spans, so generating inputs and checking answers stay outside.
    pub secs: f64,
    /// Spans and allocation counting were on during this round.
    pub traced: bool,
    pub allocs: u64,
    /// Per op kind, the latency samples in nanoseconds per op.
    pub samples: Vec<Vec<f64>>,
}

/// What a measured phase observed, round by round.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
}

impl Phase {
    /// The one estimator behind every gated value: the plain median, across
    /// the rounds with `traced == traced`, of each round's value.
    fn median_round(&self, traced: bool, value: impl Fn(&Round) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .filter_map(value)
            .collect();
        median(&values)
    }

    /// Ops per second of the median round.
    pub fn rate(&self, traced: bool) -> f64 {
        self.median_round(traced, |r| Some(r.ops as f64 / r.secs))
    }

    /// Latency of the given op kinds: the median within each untraced round
    /// (kinds pooled), then the median round.
    pub fn latency_ns(&self, kinds: &[usize]) -> f64 {
        self.median_round(false, |r| {
            let pooled: Vec<f64> = kinds
                .iter()
                .flat_map(|k| r.samples[*k].iter().copied())
                .collect();
            (!pooled.is_empty()).then(|| median(&pooled))
        })
    }

    /// Every sample of the given kinds, all rounds pooled (for the tails).
    pub fn pooled(&self, kinds: &[usize]) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| kinds.iter().flat_map(|k| r.samples[*k].iter().copied()))
            .collect()
    }

    /// Allocations per op over the traced rounds.
    pub fn allocs_per_op(&self) -> f64 {
        let (allocs, ops) = self
            .rounds
            .iter()
            .filter(|r| r.traced)
            .fold((0, 0), |(a, o), r| (a + r.allocs, o + r.ops));
        if ops == 0 {
            0.0
        } else {
            allocs as f64 / ops as f64
        }
    }

    /// Tracing overhead: how much slower the traced rounds ran, in percent.
    pub fn trace_overhead_pct(&self) -> f64 {
        (self.rate(false) / self.rate(true) - 1.0) * 100.0
    }
}

/// What a block of work reports into while it runs: the round being filled
/// and, on a traced round, the span sink.
pub struct Ctx<'a> {
    pub tracer: &'a mut Tracer,
    /// Spans and allocation counting are on.
    pub traced: bool,
    /// The id this round's spans share.
    pub op: u64,
    kinds: &'a [&'static str],
    round: Round,
}

impl Ctx<'_> {
    /// Time `n` calls of `f` with one `Instant` pair: `n` completed ops and
    /// one latency sample of `kind`. On a traced round every 64th op carries
    /// a span named after its kind (a block of 64 always does).
    pub fn timed(&mut self, kind: usize, n: usize, f: impl FnMut(usize)) {
        let before = self.round.ops / BLOCK as u64;
        let t0 = if self.traced { self.tracer.now_ns() } else { 0 };
        let ns_per_op = time_block(n, f);
        let ns = ns_per_op * n as f64;
        self.busy(n as u64, ns);
        self.sample(kind, ns_per_op);
        if self.traced && self.round.ops / BLOCK as u64 != before {
            self.tracer
                .record(self.kinds[kind], t0, t0 + ns as u64, None, self.op);
        }
    }

    /// One latency sample of `kind` taken elsewhere (another thread, or an
    /// open loop's intended-send clock).
    pub fn sample(&mut self, kind: usize, ns_per_op: f64) {
        self.round.samples[kind].push(ns_per_op);
    }

    /// `ops` completed ops that took `ns` of the round's wall time.
    pub fn busy(&mut self, ops: u64, ns: f64) {
        self.round.ops += ops;
        self.round.secs += ns / 1e9;
    }
}

/// The measured phase of every workload. Runs the warm-up blocks untimed,
/// calls `before_measured` (the place to reset the system's counters), then
/// runs the measured blocks as [`ROUNDS`] equal rounds. `exec` runs one block
/// and reports through its [`Ctx`]; it does the timing itself so that
/// checking answers stays outside the timed spans. On a traced run the even
/// rounds record spans and count allocations; the odd rounds stay untraced as
/// the overhead reference.
pub fn run_phase<B>(
    tracer: &mut Tracer,
    kinds: &[&'static str],
    (warmup, measured): (&[B], &[B]),
    before_measured: impl FnOnce(),
    mut exec: impl FnMut(&B, &mut Ctx),
) -> Phase {
    let mut run_round = |tracer: &mut Tracer, blocks: &[B], traced: bool| {
        let op = tracer.next_op();
        let start = tracer.now_ns();
        let mut ctx = Ctx {
            tracer,
            traced,
            op,
            kinds,
            round: Round {
                traced,
                samples: vec![Vec::new(); kinds.len()],
                ..Round::default()
            },
        };
        let mut body = |ctx: &mut Ctx| blocks.iter().for_each(|block| exec(block, ctx));
        if traced {
            ctx.round.allocs = count_allocs(|| body(&mut ctx)).1;
            let end = ctx.tracer.now_ns();
            ctx.tracer.record("round", start, end, None, op);
        } else {
            body(&mut ctx);
        }
        ctx.round
    };
    run_round(tracer, warmup, false);
    before_measured();
    let per_round = measured.len() / ROUNDS;
    assert!(per_round > 0, "measured phase shorter than {ROUNDS} blocks");
    let rounds = measured
        .chunks_exact(per_round)
        .take(ROUNDS)
        .enumerate()
        .map(|(r, blocks)| {
            let traced = tracer.enabled() && r % 2 == 0;
            run_round(tracer, blocks, traced)
        })
        .collect();
    Phase { rounds }
}

/// Set-ups per run (`evolve_trace` sets up once per replay instead).
pub const SETUPS: usize = 3;

/// Set the system up [`SETUPS`] times on the wall clock, discarding every
/// build but the last. Returns that one with the seconds each set-up took;
/// `setup_s` is their median.
pub fn repeat_setup<T>(
    mut build: impl FnMut(usize) -> TseResult<T>,
    mut discard: impl FnMut(T),
) -> TseResult<(T, Vec<f64>)> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut built = None;
    for i in 0..SETUPS {
        if let Some(previous) = built.take() {
            discard(previous);
        }
        let start = Instant::now();
        built = Some(build(i)?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((built.expect("at least one set-up"), secs))
}
/// Checked-operation bookkeeping: every op whose answer was compared with
/// the expectation counts as attempted; a wrong value, a wrong cardinality
/// or a refused request counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked op; the first few failures are described on stderr.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED op: {}", describe());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CPU placement
// ---------------------------------------------------------------------------

/// Words in a CPU mask: room for 1024 CPUs, the kernel's default limit.
const MASK_WORDS: usize = 16;

extern "C" {
    // From the C library std already links; see sched_setaffinity(2).
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While alive, the calling thread — and every thread spawned meanwhile,
/// which inherits the mask — runs on one CPU; dropping it restores the
/// previous mask **of the calling thread**.
///
/// A synchronous single-connection RPC never runs client and handler at
/// once, so one CPU loses nothing; but in this VM a cross-CPU wake-up costs
/// several times the whole request (measured: 72k requests/s pinned, 15k
/// unpinned, and mid-run migrations between the two). This is placement of
/// the load, not part of any estimate.
pub struct OneCpu {
    previous: [u64; MASK_WORDS],
    /// The CPU in use, for the stamp (`None`: the kernel refused).
    pub cpu: Option<usize>,
}

impl OneCpu {
    /// Pin to the highest-numbered CPU this thread may use.
    pub fn pin() -> OneCpu {
        let mut previous = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&previous);
        // SAFETY: `previous` is a live, writable buffer of exactly `bytes`
        // bytes; pid 0 means the calling thread.
        let got = unsafe { sched_getaffinity(0, bytes, previous.as_mut_ptr()) };
        let cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|c| previous[c / 64] >> (c % 64) & 1 == 1);
        let (Some(cpu), true) = (cpu, got == 0) else {
            return OneCpu {
                previous,
                cpu: None,
            };
        };
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of `bytes` bytes naming a CPU the
        // thread was already allowed on.
        let set = unsafe { sched_setaffinity(0, bytes, one.as_ptr()) };
        OneCpu {
            previous,
            cpu: (set == 0).then_some(cpu),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            // SAFETY: restores the mask `sched_getaffinity` filled in.
            unsafe {
                sched_setaffinity(
                    0,
                    std::mem::size_of_val(&self.previous),
                    self.previous.as_ptr(),
                )
            };
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        let s = summarize(&(0..1_000).map(|v| v as f64).collect::<Vec<_>>());
        assert_eq!((s.tail_pct, s.samples), (99.0, 1_000));
        assert!((s.tail - 989.01).abs() < 1e-6);
    }

    fn round(ops: u64, secs: f64, latencies: &[f64]) -> Round {
        Round {
            ops,
            secs,
            samples: vec![latencies.to_vec()],
            ..Round::default()
        }
    }

    #[test]
    fn gated_values_are_the_median_round() {
        // Five rounds at 1000 op/s and 10 ns, one of them stalled tenfold:
        // the median round is an undisturbed one.
        let mut phase = Phase {
            rounds: vec![
                round(1000, 1.0, &[10.0, 10.0, 12.0]),
                round(1000, 1.0, &[10.0, 11.0, 12.0]),
                round(1000, 10.0, &[100.0, 100.0, 100.0]),
                round(1000, 1.0, &[9.0, 10.0, 50.0]),
                round(1000, 1.0, &[10.0, 10.0, 10.0]),
            ],
        };
        assert_eq!(phase.rate(false), 1000.0);
        assert_eq!(phase.latency_ns(&[0]), 10.0);
        // The estimator is two-sided: slow three rounds of five by a fifth
        // (a periodic checkpoint, an epoch stall) and the value moves.
        for r in &mut phase.rounds[..3] {
            *r = round(1000, 1.2, &[12.0, 12.0, 12.0]);
        }
        assert!((phase.rate(false) - 1000.0 / 1.2).abs() < 1e-9);
        assert_eq!(phase.latency_ns(&[0]), 12.0);
        // An even count interpolates; traced rounds are kept apart.
        phase.rounds.truncate(4);
        phase.rounds[3].traced = true;
        assert_eq!(phase.latency_ns(&[0]), 12.0);
        assert_eq!(phase.rate(true), 1000.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn run_phase_splits_a_fixed_op_count_into_equal_rounds() {
        let mut tracer = Tracer::new(false);
        let blocks: Vec<usize> = (0..11 + ROUNDS * 7 + 3).collect();
        let (mut seen, mut reset_at) = (Vec::new(), None);
        let phase = run_phase(
            &mut tracer,
            &["op"],
            (&blocks[..11], &blocks[11..]),
            || reset_at = Some(11),
            |block, ctx| {
                ctx.timed(0, BLOCK, |_| seen.push(*block));
            },
        );
        assert_eq!(reset_at, Some(11));
        assert_eq!(phase.rounds.len(), ROUNDS);
        for r in &phase.rounds {
            assert_eq!((r.ops, r.samples[0].len()), (7 * BLOCK as u64, 7));
            assert!(r.secs > 0.0 && !r.traced);
        }
        // Warm-up first, then the measured blocks in order; a remainder
        // that does not fill a round is not run.
        seen.dedup();
        assert_eq!(seen, (0..11 + ROUNDS * 7).collect::<Vec<_>>());
    }

    /// A fake clock the fake server advances.
    struct FakeClock(u64);
    impl Clock for FakeClock {
        fn now_ns(&mut self) -> u64 {
            self.0 += 1; // reading the clock costs a nanosecond
            self.0
        }
    }

    #[test]
    fn open_loop_times_from_intended_send_time() {
        // Service takes 10 ns except request 2, which stalls for 1000 ns.
        // At one request per 100 ns the stall makes requests 3.. late; a
        // send-time clock would hide that, the intended-time clock must not.
        let mut clock = FakeClock(0);
        let run = open_loop(&mut clock, 20, 100, |c, i| {
            c.0 += if i == 2 { 1000 } else { 10 };
            c.now_ns()
        });
        assert!(
            run.latency_ns[1] < 20.0,
            "before the stall: {:?}",
            run.latency_ns
        );
        assert!(run.latency_ns[2] >= 1000.0);
        // Request 3 was due 100 ns after request 2 but waited out the stall.
        assert!(
            run.latency_ns[3] >= 900.0,
            "coordinated omission: {:?}",
            run.latency_ns
        );
        assert!(run.sched_lag_ns[3] >= 890.0);
        assert!(run.latency_ns[3] > run.latency_ns[4] && run.latency_ns[4] > run.latency_ns[5]);
        assert_eq!(run.backlog_max, 10);
        // The queue drains: the tail of the run is back to service time.
        assert!(run.latency_ns[19] < 20.0);
    }

    #[test]
    fn counting_allocator_counts_exactly() {
        // Tests run on parallel threads and the counter is process-wide, so
        // take the minimum over a few repetitions of a fixed fixture.
        let fixture = || {
            let a = std::hint::black_box(Box::new(7u64));
            let mut v: Vec<u32> = Vec::with_capacity(4);
            v.extend([1, 2, 3, 4]);
            v.push(5); // one realloc
            std::hint::black_box((a, v));
        };
        let min = (0..50).map(|_| count_allocs(fixture).1).min().unwrap();
        assert_eq!(min, 3);
        assert_eq!((0..50).map(|_| count_allocs(|| ()).1).min().unwrap(), 0);
    }

    #[test]
    fn stream_hash_depends_on_order() {
        let (mut a, mut b) = (StreamHash::default(), StreamHash::default());
        a.feed(1);
        a.feed(2);
        b.feed(2);
        b.feed(1);
        assert_ne!(a.0, b.0);
    }
}
