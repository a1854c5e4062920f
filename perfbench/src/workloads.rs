//! The three workloads. Each builds its inputs from the workload seed,
//! measures with tracing off or on, checks the program's outputs, and
//! records its metrics into an [`Outcome`].
//!
//! Load is a closed loop from one process: the next run starts when the
//! previous one has finished, on at most two threads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fatrobots_model::{Phase, RobotId};
use fatrobots_scheduler::{Adversary, Directive, Liveness, MotionControl, SystemSnapshot};
use fatrobots_sim::checkpoint::CheckpointedSweep;
use fatrobots_sim::experiment::{
    self, AdversaryKind, RunHooks, RunSpec, RunStatus, RunSummary, PROGRESS_EVERY_DEFAULT,
};
use fatrobots_sim::init::Shape;
use fatrobots_sim::sweep::{SupervisionPolicy, SweepObserver, SweepPool};
use fatrobots_sim::{SimConfig, Simulator, World, WorldMode};

use crate::report::{Outcome, Samples};
use crate::speed::{Speed, REF_SECONDS, RESIDENT_MB};
use crate::trace::{Driver, Probes, Spans};

/// The workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["sweep-small", "window-mid", "scale-10k"];

/// Workers of the supervised sweep, and threads of the parallel runs.
const THREADS: usize = 2;

/// Sweep shapes and adversaries: the E-tables' traffic.
const SWEEP_SHAPES: [Shape; 5] = [
    Shape::Random,
    Shape::Circle,
    Shape::Line,
    Shape::Clusters,
    Shape::Grid,
];
const SWEEP_ADVERSARIES: [AdversaryKind; 4] = [
    AdversaryKind::RoundRobin,
    AdversaryKind::RandomAsync,
    AdversaryKind::StopHappy,
    AdversaryKind::CrashStop { k: 1 },
];

/// Robots the scale workload's adversary activates.
const SCALE_ACTIVE: usize = 16;

/// Workload sizes. [`Plan::full`] is the benchmark; [`Plan::tiny`] runs
/// the same code paths in well under a second, for the self-tests.
#[derive(Debug)]
pub struct Plan {
    /// Runs in the sweep.
    pub sweep_runs: usize,
    /// Smallest and largest n of the sweep; run `i` has
    /// `n = lo + i mod (hi - lo + 1)`.
    pub sweep_n: (usize, usize),
    /// Per-run event cap of the sweep, per robot.
    pub sweep_cap_per_robot: usize,
    /// One round of windowed runs: robot count and event window of each.
    pub windows: &'static [(usize, usize)],
    /// Robots of the scale workload.
    pub scale_n: usize,
    /// Scheduling rounds of the scale workload; one round gives each
    /// active robot one Look–Compute–Move cycle (four events).
    pub scale_rounds: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Accesses per pass of the machine-speed reference kernel.
    pub reference_steps: usize,
}

impl Plan {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Plan {
            sweep_runs: 390,
            sweep_n: (4, 16),
            sweep_cap_per_robot: 300,
            windows: &[
                (32, 6_000),
                (64, 2_000),
                (96, 1_500),
                (32, 6_000),
                (64, 2_000),
                (96, 1_500),
            ],
            scale_n: 10_000,
            scale_rounds: 10,
            setup_repeats: 101,
            reference_steps: 1 << 20,
        }
    }

    /// Minimal sizes over the same code paths.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Plan {
            sweep_runs: 8,
            sweep_n: (4, 6),
            sweep_cap_per_robot: 100,
            windows: &[(8, 300), (10, 300), (12, 300)],
            scale_n: 400,
            scale_rounds: 2,
            setup_repeats: 3,
            reference_steps: 1 << 12,
        }
    }
}

/// splitmix64: the seeds of a workload's runs, derived from its seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The simulator configuration `experiment::run` derives from a spec. The
/// runs that need a simulator of their own — traced, or under the scale
/// workload's adversary — are built with it; `window-mid`'s two-thread runs
/// go through `experiment::run_with_hooks` and are checked against them.
fn config(spec: &RunSpec) -> SimConfig {
    SimConfig {
        max_events: spec.max_events,
        liveness: Liveness::new(spec.delta),
        world_mode: spec.world_mode,
        threads: spec.threads.max(1),
        sample_every: spec.sample_every,
        ..SimConfig::default()
    }
}

/// Builds the simulator `experiment::run` would build for `spec`, with the
/// given adversary, decorated with `probes` when tracing.
fn build(spec: &RunSpec, adversary: Box<dyn Adversary>, probes: Option<&Probes>) -> Simulator {
    let centers = spec.shape.generate(spec.n, spec.seed);
    let strategy = spec.strategy.build(spec.n);
    let (strategy, adversary) = match probes {
        Some(p) => p.wrap(strategy, adversary),
        None => (strategy, adversary),
    };
    Simulator::new(centers, strategy, adversary, config(spec))
}

/// What a finished run is compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Finish {
    events: usize,
    fingerprint: u64,
    terminated: bool,
    gathered: bool,
    distance_bits: u64,
}

/// Reads a finished run's outcome the way `Simulator::run` does, and checks
/// `World::is_valid` on its final configuration.
fn finish(sim: &mut Simulator, mode: WorldMode, out: &mut Outcome) -> Finish {
    let terminated = sim.effectively_terminated();
    let gathered = terminated && sim.is_gathered_live();
    let mut world = World::new(
        sim.centers().to_vec(),
        SimConfig::default().visibility,
        mode,
    );
    let valid = world.is_valid();
    out.check(valid, || {
        format!("final configuration of a {}-robot run overlaps", sim.len())
    });
    Finish {
        events: sim.metrics().events,
        fingerprint: sim.fingerprint(),
        terminated,
        gathered,
        distance_bits: sim.metrics().distance_travelled.to_bits(),
    }
}

/// World, core and parallel counters summed over runs.
#[derive(Debug, Default)]
struct Counters {
    pair_hits: u64,
    pair_misses: u64,
    cover_answers: u64,
    cert_skips: u64,
    pair_entries: u64,
    registrations: u64,
    hull_repairs: u64,
    hull_rebuilds: u64,
    decision_hits: u64,
    decision_misses: u64,
    batches: u64,
    batched_events: u64,
    spec_hits: u64,
    spec_aborts: u64,
}

impl Counters {
    fn add_world(&mut self, sim: &Simulator) {
        let (hits, misses) = sim.visibility_cache_stats();
        let (cover, skips) = sim.world().cert_stats();
        let (entries, regs) = sim.pair_store_stats();
        let (repairs, rebuilds) = sim.hull_repair_stats();
        let (dhits, dmisses) = sim.decision_cache_stats();
        self.pair_hits += hits;
        self.pair_misses += misses;
        self.cover_answers += cover;
        self.cert_skips += skips;
        self.pair_entries += entries;
        self.registrations += regs;
        self.hull_repairs += repairs;
        self.hull_rebuilds += rebuilds;
        self.decision_hits += dhits;
        self.decision_misses += dmisses;
    }

    /// Adds `parallel_stats`: batches, batched events, speculation hits
    /// and aborts.
    fn add_parallel(&mut self, (batches, batched, hits, aborts): (u64, u64, u64, u64)) {
        self.batches += batches;
        self.batched_events += batched;
        self.spec_hits += hits;
        self.spec_aborts += aborts;
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A rate measured while the reference kernel took `reference` seconds,
/// scaled to the reference machine.
fn scaled_rate(rate: f64, reference: f64) -> f64 {
    rate * reference / REF_SECONDS
}

/// Records a rate metric from rounds measured at the wall clock and from
/// the same rounds scaled to the reference machine: the scaled median is
/// the metric, the wall-clock one a note.
fn record_rate(out: &mut Outcome, name: &'static str, wall: &Samples, scaled: &Samples) {
    out.timing(name, scaled, "1/s");
    out.notes.push(format!(
        "{name} at the wall clock: {}",
        wall.describe("1/s")
    ));
}

/// Records the per-layer metrics of a traced run: `spans` and `probes` from
/// the traced single-thread runs, `counters` from them (world, core) and
/// from the two-thread runs (parallel), and `untraced_ns` — the wall time
/// of the same runs untraced, for the tracing overhead.
fn record_layers(
    out: &mut Outcome,
    spans: &Spans,
    probes: &Probes,
    counters: &Counters,
    untraced_ns: u64,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    out.metric("world.look_ms", ms(spans.look_ns), "ms");
    out.metric("world.move_ms", ms(spans.move_ns), "ms");
    out.timing("world.look_cold_ms_p50", &spans.cold_looks, "ms");
    out.timing("world.look_warm_ms_p50", &spans.warm_looks, "ms");
    let c = counters;
    out.metric("world.pair_kernel_calls", c.pair_misses as f64, "count");
    out.metric("world.pair_hits", c.pair_hits as f64, "count");
    let lookups = (c.pair_hits + c.pair_misses) as f64;
    out.metric(
        "world.pair_hit_ratio",
        ratio(c.pair_hits as f64, lookups),
        "ratio",
    );
    let looks = spans.looks.len() as f64;
    out.metric(
        "world.pair_kernel_per_look",
        ratio(c.pair_misses as f64, looks),
        "count",
    );
    out.metric("world.cover_answers", c.cover_answers as f64, "count");
    out.metric("world.cert_skips", c.cert_skips as f64, "count");
    out.metric("world.pair_entries", c.pair_entries as f64, "count");
    out.metric("world.registrations", c.registrations as f64, "count");
    out.metric("world.hull_repairs", c.hull_repairs as f64, "count");
    out.metric("world.hull_rebuilds", c.hull_rebuilds as f64, "count");

    let decides = probes.decide.samples();
    out.metric("core.decide_calls", probes.decide.calls() as f64, "count");
    out.metric("core.decide_ms", ms(spans.decide_ns), "ms");
    out.timing("core.decide_us_p50", &decides, "us");
    out.metric("core.decide_us_p90", decides.percentile(90.0), "us");
    out.metric("core.decision_hits", c.decision_hits as f64, "count");
    let computes = (c.decision_hits + c.decision_misses) as f64;
    out.metric(
        "core.decision_hit_ratio",
        ratio(c.decision_hits as f64, computes),
        "ratio",
    );

    out.metric("scheduler.next_calls", probes.next.calls() as f64, "count");
    out.metric("scheduler.next_ms", ms(spans.next_ns), "ms");
    out.metric("engine.compute_step_ms", ms(spans.compute_ns), "ms");
    out.metric("engine.other_ms", ms(spans.other_ns), "ms");

    out.metric("parallel.batches", c.batches as f64, "count");
    out.metric("parallel.batched_events", c.batched_events as f64, "count");
    out.metric(
        "parallel.batch_fill",
        ratio(c.batched_events as f64, c.batches as f64),
        "ratio",
    );
    out.metric("parallel.spec_hits", c.spec_hits as f64, "count");
    out.metric("parallel.spec_aborts", c.spec_aborts as f64, "count");

    let wall = spans.wall_ns as f64;
    out.metric("trace.wall_ms", ms(spans.wall_ns), "ms");
    let unattributed = ratio(wall - spans.attributed_ns() as f64, wall);
    out.metric("trace.unattributed_frac", unattributed, "frac");
    let overhead = ratio(wall - untraced_ns as f64, untraced_ns as f64);
    out.metric("trace.overhead_frac", overhead, "frac");
    out.notes.push(format!(
        "trace: layer self times cover {:.4} of the traced wall time; tracing overhead {:.4}",
        1.0 - unattributed,
        overhead
    ));
}

/// Peak resident set size of this process (`VmHWM`), in MiB, less the
/// speed reference's buffers, which stay resident for the whole run.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0 - RESIDENT_MB)
}

/// A scratch directory inside the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".perfbench-work").join(format!("{}-{k}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Opens a fresh journal at `path`, discarding an earlier one.
fn fresh_journal(path: &Path) -> std::io::Result<CheckpointedSweep> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    CheckpointedSweep::open(path)
}

/// The sweep's observer: journals every milestone through the checkpoint
/// session, as `TableSpec::execute_supervised_on` does, timing each append
/// and noting when runs complete.
struct Journaller<'a> {
    ck: &'a mut CheckpointedSweep,
    specs: &'a [RunSpec],
    path: &'a Path,
    start: Instant,
    append_ms: Samples,
    bytes_written: u64,
    completions: Vec<f64>,
}

impl Journaller<'_> {
    fn appended(&mut self, t: Instant) {
        self.append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // Every append rewrites the whole journal.
        self.bytes_written += std::fs::metadata(self.path).map_or(0, |m| m.len());
    }
}

impl SweepObserver for Journaller<'_> {
    fn on_progress(&mut self, slot: usize, events: usize, fingerprint: u64) {
        let t = Instant::now();
        self.ck
            .journal_progress(slot as u64, &self.specs[slot], events, fingerprint);
        self.appended(t);
    }

    fn on_completed(&mut self, slot: usize, summary: &RunSummary) {
        self.completions.push(self.start.elapsed().as_secs_f64());
        let t = Instant::now();
        self.ck.journal_completed(slot as u64, summary);
        self.appended(t);
    }
}

fn sweep_specs(seed: u64, plan: &Plan) -> Vec<RunSpec> {
    let (lo, hi) = plan.sweep_n;
    let sizes = hi - lo + 1;
    (0..plan.sweep_runs)
        .map(|i| {
            let n = lo + i % sizes;
            let mut spec = RunSpec::new(n, mix(seed, i as u64));
            spec.shape = SWEEP_SHAPES[(i / sizes) % SWEEP_SHAPES.len()];
            spec.adversary =
                SWEEP_ADVERSARIES[(i / (sizes * SWEEP_SHAPES.len())) % SWEEP_ADVERSARIES.len()];
            spec.max_events = plan.sweep_cap_per_robot * n;
            spec
        })
        .collect()
}

/// Times `repeats` set-ups and records `setup_s`, their median, plus the
/// generation and construction parts for the traced run. `specs` are the
/// runs one set-up prepares; `extra` is the rest of the set-up (pool spawn,
/// journal open), run after the simulators are built.
fn time_setup(
    out: &mut Outcome,
    plan: &Plan,
    specs: &[RunSpec],
    adversary: &dyn Fn(&RunSpec) -> Box<dyn Adversary>,
    extra: &mut dyn FnMut(&mut Outcome),
) {
    let (mut total, mut generate, mut new) =
        (Samples::default(), Samples::default(), Samples::default());
    for _ in 0..plan.setup_repeats {
        let start = Instant::now();
        let (mut gen_s, mut new_s) = (0.0, 0.0);
        for spec in specs {
            let t = Instant::now();
            let centers = spec.shape.generate(spec.n, spec.seed);
            gen_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let sim = Simulator::new(
                centers,
                spec.strategy.build(spec.n),
                adversary(spec),
                config(spec),
            );
            new_s += t.elapsed().as_secs_f64();
            drop(sim);
        }
        extra(out);
        total.push(start.elapsed().as_secs_f64());
        generate.push(gen_s * 1e3);
        new.push(new_s * 1e3);
    }
    out.timing("setup_s", &total, "s");
    out.metric("init.generate_ms", generate.median(), "ms");
    out.metric("engine.new_ms", new.median(), "ms");
}

fn spec_adversary(spec: &RunSpec) -> Box<dyn Adversary> {
    spec.adversary.build(spec.seed, spec.n)
}

/// One supervised, journalled sweep and the resume that reads its journal
/// back, with every output check.
struct SweepRound {
    wall_s: f64,
    retries: u64,
    gathered: usize,
    append_ms: Samples,
    bytes_written: u64,
    journal_bytes: u64,
    completions: Vec<f64>,
    resume_ms: f64,
}

fn sweep_round(
    pool: &mut SweepPool,
    specs: &[RunSpec],
    policy: &SupervisionPolicy,
    journal: &Path,
    serial: &[Finish],
    out: &mut Outcome,
) -> Option<SweepRound> {
    let mut ck = match fresh_journal(journal) {
        Ok(ck) => ck,
        Err(e) => {
            out.check(false, || format!("cannot open the journal: {e}"));
            return None;
        }
    };
    let mut observer = Journaller {
        ck: &mut ck,
        specs,
        path: journal,
        start: Instant::now(),
        append_ms: Samples::default(),
        bytes_written: 0,
        completions: Vec::new(),
    };
    let outcome = pool.run_supervised(specs, policy, &mut observer);
    let wall_s = observer.start.elapsed().as_secs_f64();
    let (append_ms, bytes_written, completions) = (
        std::mem::take(&mut observer.append_ms),
        observer.bytes_written,
        std::mem::take(&mut observer.completions),
    );
    out.check(outcome.failures.is_empty(), || {
        format!(
            "{} sweep runs failed: {:?}",
            outcome.failures.len(),
            outcome.failures
        )
    });
    out.check(ck.telemetry().write_errors == 0, || {
        "journal writes failed".to_string()
    });
    let mut gathered = 0;
    for ((spec, summary), serial) in specs.iter().zip(&outcome.summaries).zip(serial) {
        let Some(summary) = summary else { continue };
        gathered += usize::from(summary.gathered);
        let same = summary.events == serial.events
            && summary.terminated == serial.terminated
            && summary.gathered == serial.gathered
            && summary.distance.to_bits() == serial.distance_bits;
        out.check(same, || {
            format!("sweep and in-process runs differ for {spec:?}")
        });
    }

    // Resume: every row must come back from the journal unchanged.
    let t = Instant::now();
    let resumed: Option<Vec<RunSummary>> =
        CheckpointedSweep::open(journal).ok().and_then(|mut ck| {
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| ck.take_completed(i as u64, spec))
                .collect()
        });
    let resume_ms = t.elapsed().as_secs_f64() * 1e3;
    let resumed_ok = resumed.is_some_and(|rows| {
        rows.iter()
            .zip(&outcome.summaries)
            .all(|(row, summary)| summary.as_ref() == Some(row))
    });
    out.check(resumed_ok, || {
        "resumed summaries differ from the sweep's".to_string()
    });
    Some(SweepRound {
        wall_s,
        retries: outcome.retries,
        gathered,
        append_ms,
        bytes_written,
        journal_bytes: std::fs::metadata(journal).map_or(0, |m| m.len()),
        completions,
        resume_ms,
    })
}

/// `sweep-small`: a report-style supervised sweep of about 400 small runs
/// on a two-worker pool, journalled through the checkpoint layer and then
/// resumed from the journal, repeated until the time is up. The same runs
/// are first replayed in-process at one thread, which gives the Look
/// timings, the final configurations whose validity is checked, and the
/// reference every sweep row is compared with.
pub fn sweep_small(
    seed: u64,
    seconds: f64,
    trace: bool,
    plan: &Plan,
    speed: &mut Speed,
    out: &mut Outcome,
) {
    let work = match WorkDir::new() {
        Ok(w) => w,
        Err(e) => {
            out.check(false, || {
                format!("cannot create the journal directory: {e}")
            });
            return;
        }
    };
    let journal = work.0.join("journal.frck");
    let specs = sweep_specs(seed, plan);
    let mut setup_extra = |out: &mut Outcome| {
        let pool = SweepPool::new(THREADS);
        let opened = fresh_journal(&journal);
        out.check(opened.is_ok(), || {
            format!("cannot open {}", journal.display())
        });
        drop(pool);
    };
    time_setup(out, plan, &specs, &spec_adversary, &mut setup_extra);

    // The same runs in-process at one thread. Traced, each traced run is
    // followed by the same run untraced, for the overhead and the per-run
    // times the pool's efficiency is judged against.
    let probes = Probes::default();
    let traced = trace.then_some(&probes);
    let mut spans = Spans::default();
    let mut counters = Counters::default();
    let mut serial = Vec::with_capacity(specs.len());
    let (mut untraced_ns, mut busy_ns) = (0u64, 0u64);
    for spec in &specs {
        let mut sim = build(spec, spec_adversary(spec), traced);
        Driver::new(spec.n).drive(&mut sim, spec.max_events, traced, &mut spans);
        counters.add_world(&sim);
        let done = finish(&mut sim, spec.world_mode, out);
        if trace {
            let t = Instant::now();
            let mut sim = build(spec, spec_adversary(spec), None);
            let t_run = Instant::now();
            sim.run();
            untraced_ns += t_run.elapsed().as_nanos() as u64;
            busy_ns += t.elapsed().as_nanos() as u64;
            out.check(sim.fingerprint() == done.fingerprint, || {
                format!("traced and untraced fingerprints differ for {spec:?}")
            });
        }
        serial.push(done);
    }
    let events: usize = serial.iter().map(|f| f.events).sum();
    out.notes.push(format!(
        "in-process pass at one thread: {events} events, {:.1} events/s",
        events as f64 / (spans.wall_ns as f64 / 1e9)
    ));
    record_looks(out, &spans.looks);

    // The policy `report --checkpoint-dir` sweeps with.
    let policy = SupervisionPolicy {
        progress_every: PROGRESS_EVERY_DEFAULT,
        ..SupervisionPolicy::default()
    };
    let mut pool = SweepPool::new(THREADS);
    let (mut wall_rates, mut rates, mut runs_per_s) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut gathered = 0;
    let start = Instant::now();
    let mut before = speed.measure(THREADS);
    while let Some(round) = sweep_round(&mut pool, &specs, &policy, &journal, &serial, out) {
        let after = speed.measure(THREADS);
        wall_rates.push(events as f64 / round.wall_s);
        rates.push(scaled_rate(
            events as f64 / round.wall_s,
            (before + after) / 2.0,
        ));
        before = after;
        runs_per_s.push(specs.len() as f64 / round.wall_s);
        gathered = round.gathered;
        if trace {
            let wall = round.wall_s;
            out.metric(
                "sweep.pool_efficiency",
                ratio(busy_ns as f64 / 1e9, THREADS as f64 * wall),
                "ratio",
            );
            // After the last dispatch, each of the last `THREADS - 1`
            // completions leaves a worker idle until the sweep ends.
            let tail: f64 = round
                .completions
                .iter()
                .rev()
                .take(THREADS - 1)
                .map(|&t| wall - t)
                .sum();
            out.metric("sweep.tail_idle_s", tail, "s");
            out.metric("sweep.retries", round.retries as f64, "count");
            out.metric("checkpoint.appends", round.append_ms.len() as f64, "count");
            out.metric("checkpoint.append_ms", round.append_ms.sum(), "ms");
            out.metric(
                "checkpoint.append_ms_p90",
                round.append_ms.percentile(90.0),
                "ms",
            );
            out.notes.push(format!(
                "checkpoint append: {}",
                round.append_ms.describe("ms")
            ));
            out.metric("checkpoint.bytes_written", round.bytes_written as f64, "B");
            out.metric("checkpoint.journal_bytes", round.journal_bytes as f64, "B");
            out.metric("checkpoint.resume_ms", round.resume_ms, "ms");
            break;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    record_rate(out, "events_per_s", &wall_rates, &rates);
    out.timing("runs_per_s", &runs_per_s, "1/s");
    out.metric(
        "gathered_frac",
        gathered as f64 / specs.len() as f64,
        "frac",
    );
    if trace {
        record_layers(out, &spans, &probes, &counters, untraced_ns);
    }
}

/// Records `look_ms_p50` and `look_ms_p90` from every timed Look step.
fn record_looks(out: &mut Outcome, looks: &Samples) {
    out.metric("look_ms_p50", looks.median(), "ms");
    out.metric("look_ms_p90", looks.percentile(90.0), "ms");
    out.notes.push(format!("look_ms: {}", looks.describe("ms")));
}

/// Runs specs at one thread and at two, compares the two outcomes, and
/// accumulates wall times, spans and counters. Traced, the one-thread run
/// is decorated and an untraced one-thread run is added for the tracing
/// overhead and a fingerprint comparison.
struct PairedRuns<'a> {
    probes: Option<&'a Probes>,
    spans: Spans,
    counters: Counters,
    t1_ns: u64,
    t2_ns: u64,
    untraced_ns: u64,
    events: u64,
    /// Single-thread throughput of each driven window.
    window_rates: Samples,
}

impl<'a> PairedRuns<'a> {
    fn new(probes: Option<&'a Probes>) -> Self {
        PairedRuns {
            probes,
            spans: Spans::default(),
            counters: Counters::default(),
            t1_ns: 0,
            t2_ns: 0,
            untraced_ns: 0,
            events: 0,
            window_rates: Samples::default(),
        }
    }

    /// Runs `spec` at one thread, driven in windows of `window` events,
    /// and returns its outcome. Traced, an untraced simulator of the same
    /// spec is driven window by window alongside, so both see the same
    /// machine conditions.
    fn run_t1(
        &mut self,
        spec: &RunSpec,
        window: usize,
        adversary: &dyn Fn() -> Box<dyn Adversary>,
        out: &mut Outcome,
    ) -> Finish {
        let mut sim = build(spec, adversary(), self.probes);
        let mut driver = Driver::new(spec.n);
        let mut plain = self.probes.map(|_| {
            (
                build(spec, adversary(), None),
                Driver::new(spec.n),
                Spans::default(),
            )
        });
        let mut done = 0;
        while done < spec.max_events {
            let end = (done + window).min(spec.max_events);
            let wall0 = self.spans.wall_ns;
            driver.drive(&mut sim, end, self.probes, &mut self.spans);
            let ns = self.spans.wall_ns - wall0;
            self.t1_ns += ns;
            let applied = sim.metrics().events - done;
            self.window_rates.push(applied as f64 / (ns as f64 / 1e9));
            if let Some((sim, driver, spans)) = plain.as_mut() {
                driver.drive(sim, end, None, spans);
            }
            if applied == 0 {
                break;
            }
            done += applied;
        }
        self.counters.add_world(&sim);
        let serial = finish(&mut sim, spec.world_mode, out);
        drop(sim);
        self.events += serial.events as u64;
        if let Some((sim, _, spans)) = plain {
            self.untraced_ns += spans.wall_ns;
            out.check(sim.fingerprint() == serial.fingerprint, || {
                format!("traced and untraced fingerprints differ for {spec:?}")
            });
        }
        serial
    }

    /// Runs `spec` at two threads under the given adversary and checks it
    /// against its single-thread outcome `serial`.
    fn run_t2(
        &mut self,
        spec: &RunSpec,
        serial: &Finish,
        adversary: &dyn Fn() -> Box<dyn Adversary>,
        out: &mut Outcome,
    ) {
        let spec2 = RunSpec {
            threads: THREADS,
            ..*spec
        };
        let mut sim = build(&spec2, adversary(), None);
        let t = Instant::now();
        sim.run();
        self.t2_ns += t.elapsed().as_nanos() as u64;
        self.counters.add_parallel(sim.parallel_stats());
        let parallel = finish(&mut sim, spec.world_mode, out);
        out.check(parallel == *serial, || {
            format!("threads 1 and threads 2 differ for {spec:?}: {serial:?} vs {parallel:?}")
        });
    }

    /// Runs `spec` at two threads through `experiment::run_with_hooks`, the
    /// product's own set-up, and checks it against its single-thread
    /// outcome `serial`. A progress callback after every event keeps the
    /// engine fingerprint of the last one.
    fn run_t2_product(&mut self, spec: &RunSpec, serial: &Finish, out: &mut Outcome) {
        let spec2 = RunSpec {
            threads: THREADS,
            ..*spec
        };
        let mut fingerprint = None;
        let mut keep = |_: usize, fp: u64| fingerprint = Some(fp);
        let hooks = RunHooks {
            progress: Some(&mut keep),
            progress_every: 1,
            ..RunHooks::default()
        };
        let t = Instant::now();
        let status = experiment::run_with_hooks(&spec2, hooks);
        self.t2_ns += t.elapsed().as_nanos() as u64;
        let RunStatus::Completed(s) = status else {
            out.check(false, || format!("threads-2 run of {spec:?} was cancelled"));
            return;
        };
        self.counters.add_parallel((
            s.par_batches,
            s.par_batched_events,
            s.speculation_hits,
            s.speculation_aborts,
        ));
        let parallel = Finish {
            events: s.events,
            fingerprint: fingerprint.unwrap_or_default(),
            terminated: s.terminated,
            gathered: s.gathered,
            distance_bits: s.distance.to_bits(),
        };
        out.check(parallel == *serial, || {
            format!("threads 1 and threads 2 differ for {spec:?}: {serial:?} vs {parallel:?}")
        });
    }

    /// The two-thread throughput, as a note, and, traced, the per-layer
    /// metrics.
    fn record(&self, out: &mut Outcome) {
        let t2 = ratio(self.events as f64, self.t2_ns as f64 / 1e9);
        out.notes.push(format!(
            "threads 2: {} events, {t2:.3} events/s",
            self.events
        ));
        out.metric("events_per_s_t2", t2, "1/s");
        if let Some(probes) = self.probes {
            record_layers(out, &self.spans, probes, &self.counters, self.untraced_ns);
            let speedup = ratio(self.untraced_ns as f64, self.t2_ns as f64);
            out.metric("parallel.speedup_t2", speedup, "ratio");
        }
    }
}

/// `window-mid`: fixed event windows of single runs at n = 32, 64 and 96
/// from random starts under the random-async adversary, each run at one
/// thread and then at two, round after round until the time is up.
pub fn window_mid(
    seed: u64,
    seconds: f64,
    trace: bool,
    plan: &Plan,
    speed: &mut Speed,
    out: &mut Outcome,
) {
    let spec = |k: usize| {
        let (n, window) = plan.windows[k % plan.windows.len()];
        RunSpec {
            max_events: window,
            ..RunSpec::new(n, mix(seed, k as u64))
        }
    };
    // Set-up builds the simulators of the first four rounds: a single
    // round's set-up is too short to time steadily.
    let first: Vec<RunSpec> = (0..4 * plan.windows.len()).map(spec).collect();
    time_setup(out, plan, &first, &spec_adversary, &mut |_| {});

    let probes = Probes::default();
    let mut runs = PairedRuns::new(trace.then_some(&probes));
    let (mut wall_rates, mut rates) = (Samples::default(), Samples::default());
    let start = Instant::now();
    let mut k = 0;
    loop {
        // The round's single-thread runs back to back, bracketed by
        // reference measurements, then the same runs at two threads.
        let specs: Vec<RunSpec> = (k..k + plan.windows.len()).map(spec).collect();
        k += specs.len();
        let (events0, t1_ns0) = (runs.events, runs.t1_ns);
        let before = speed.measure(1);
        let serial: Vec<Finish> = specs
            .iter()
            .map(|s| runs.run_t1(s, s.max_events, &|| spec_adversary(s), out))
            .collect();
        let after = speed.measure(1);
        for (s, serial) in specs.iter().zip(&serial) {
            runs.run_t2_product(s, serial, out);
        }
        let rate = (runs.events - events0) as f64 / ((runs.t1_ns - t1_ns0) as f64 / 1e9);
        wall_rates.push(rate);
        rates.push(scaled_rate(rate, (before + after) / 2.0));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    record_rate(out, "events_per_s", &wall_rates, &rates);
    record_looks(out, &runs.spans.looks);
    runs.record(out);
}

/// The scale workload's schedule: a fixed set of robots activated in turn,
/// every move run to completion. The other robots never act — they are the
/// scenery every Look must prune.
#[derive(Debug, Clone)]
pub struct Cycle {
    robots: Vec<usize>,
    cursor: usize,
}

impl Cycle {
    /// [`SCALE_ACTIVE`] robots of a hex packing of `n`: a 4 × 4 lattice of
    /// stride `side / 20`, placed by `seed` away from the packing's edge so
    /// that every seed activates robots with a like neighbourhood.
    pub fn for_hex(seed: u64, n: usize) -> Self {
        let side = (n as f64).sqrt().ceil() as usize;
        let stride = (side / 20).max(1);
        let margin = side / 5;
        let room = side.saturating_sub(2 * margin + 3 * stride).max(1);
        let (r0, c0) = (
            margin + (mix(seed, 1) % room as u64) as usize,
            margin + (mix(seed, 2) % room as u64) as usize,
        );
        let robots = (0..SCALE_ACTIVE)
            .map(|k| (r0 + (k / 4) * stride) * side + c0 + (k % 4) * stride)
            .filter(|&i| i < n)
            .collect();
        Cycle { robots, cursor: 0 }
    }
}

impl Adversary for Cycle {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        for _ in 0..self.robots.len() {
            let robot = self.robots[self.cursor];
            self.cursor = (self.cursor + 1) % self.robots.len();
            if system.phases[robot] != Phase::Terminate {
                return Some(Directive {
                    robot: RobotId(robot),
                    motion: MotionControl::Full,
                });
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "cycle"
    }
}

/// `scale-10k`: n = 10⁴ robots in a hex packing on the sparse world, with
/// [`Cycle`] activating 16 of them for a fixed number of rounds, at one
/// thread and then at two. The first round builds each active robot's full
/// visibility row (cold Looks); later rounds refresh rows after real moves
/// (warm Looks).
pub fn scale_10k(
    seed: u64,
    _seconds: f64,
    trace: bool,
    plan: &Plan,
    speed: &mut Speed,
    out: &mut Outcome,
) {
    let round = SCALE_ACTIVE * 4;
    let spec = RunSpec {
        shape: Shape::Hex,
        world_mode: WorldMode::Sparse,
        sample_every: 0,
        max_events: plan.scale_rounds * round,
        ..RunSpec::new(plan.scale_n, seed)
    };
    let adversary = || -> Box<dyn Adversary> { Box::new(Cycle::for_hex(seed, plan.scale_n)) };
    time_setup(out, plan, &[spec], &|_| adversary(), &mut |_| {});

    let probes = Probes::default();
    let mut runs = PairedRuns::new(trace.then_some(&probes));
    let before = speed.measure(1);
    let serial = runs.run_t1(&spec, round, &adversary, out);
    let after = speed.measure(1);
    runs.run_t2(&spec, &serial, &adversary, out);
    // Rounds differ in work as the active robots settle, so the rate is
    // taken over the whole window, scaled by the references around it.
    let rate = runs.events as f64 / (runs.t1_ns as f64 / 1e9);
    let reference = (before + after) / 2.0;
    out.metric("events_per_s", scaled_rate(rate, reference), "1/s");
    out.notes.push(format!(
        "events_per_s at the wall clock: {rate:.6} 1/s over {} rounds; per round {}",
        plan.scale_rounds,
        runs.window_rates.describe("1/s")
    ));
    record_looks(out, &runs.spans.looks);
    out.notes.push(format!(
        "Looks: cold {}; warm {}",
        runs.spans.cold_looks.describe("ms"),
        runs.spans.warm_looks.describe("ms")
    ));
    runs.record(out);
}

/// Per-layer metric prefixes of the layers a workload does not exercise;
/// they read 0 in its traced result.
pub fn unused_layers(name: &str) -> &'static [&'static str] {
    match name {
        "sweep-small" => &["parallel."],
        _ => &["sweep.", "checkpoint."],
    }
}

/// Runs the named workload into `out`; `false` for an unknown name.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    plan: &Plan,
    out: &mut Outcome,
) -> bool {
    let workload: fn(u64, f64, bool, &Plan, &mut Speed, &mut Outcome) = match name {
        "sweep-small" => sweep_small,
        "window-mid" => window_mid,
        "scale-10k" => scale_10k,
        _ => return false,
    };
    let mut speed = Speed::new(plan.reference_steps);
    workload(seed, seconds, trace, plan, &mut speed, out);
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("failed_frac", failed_frac, "frac");
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, END_TO_END_TEXT, PER_LAYER};

    fn tiny(name: &str, trace: bool) -> Outcome {
        let mut out = Outcome::default();
        assert!(run(name, 7, 0.0, trace, &Plan::tiny(), &mut out));
        assert_eq!(out.failed, 0, "{name}: an output check failed");
        assert!(out.attempted > 0);
        out
    }

    fn assert_metric(out: &Outcome, workload: &str, name: &str, unit: &str) -> f64 {
        let &(value, got) = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload} did not emit {name}"));
        assert_eq!(got, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        value
    }

    #[test]
    fn tiny_runs_emit_every_end_to_end_metric() {
        for workload in WORKLOADS {
            let out = tiny(workload, false);
            for (name, unit) in END_TO_END {
                let value = assert_metric(&out, workload, name, unit);
                assert!(value > 0.0, "{workload}: {name} must never read 0");
            }
            for (name, unit) in END_TO_END_TEXT {
                let sweep_only = matches!(name, "runs_per_s" | "gathered_frac");
                let engine_only = name == "events_per_s_t2";
                if (workload == "sweep-small" && !engine_only)
                    || (workload != "sweep-small" && !sweep_only)
                {
                    assert_metric(&out, workload, name, unit);
                }
            }
        }
    }

    #[test]
    fn tiny_traced_runs_emit_every_per_layer_metric() {
        for workload in WORKLOADS {
            let out = tiny(workload, true);
            for (name, unit) in PER_LAYER {
                if !unused_layers(workload).iter().any(|p| name.starts_with(p)) {
                    assert_metric(&out, workload, name, unit);
                }
            }
            assert!(out.metrics["trace.wall_ms"].0 > 0.0);
            assert!(out.metrics["core.decide_calls"].0 > 0.0);
            assert!(out.metrics["scheduler.next_calls"].0 > 0.0);
        }
    }

    #[test]
    fn cycle_activates_sixteen_distinct_interior_robots() {
        for n in [400, 10_000] {
            for seed in 0..50 {
                let cycle = Cycle::for_hex(seed, n);
                let mut robots = cycle.robots.clone();
                robots.sort_unstable();
                robots.dedup();
                assert_eq!(robots.len(), SCALE_ACTIVE, "n {n} seed {seed}");
                assert!(robots.iter().all(|&i| i < n));
            }
        }
    }
}
