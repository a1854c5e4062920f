//! Parallel sweep engine with supervised execution.
//!
//! Every experiment in this repo is a bag of fully seeded, independent
//! simulations, so sweeps are embarrassingly parallel. [`run_sweep`] fans a
//! `&[RunSpec]` out over a scoped worker pool (plain `std::thread`, no
//! external dependencies) and returns the summaries **in input order**, so
//! the output of a parallel sweep is byte-identical to the serial one —
//! `run_sweep(specs, jobs)` equals `specs.iter().map(run).collect()` for
//! every `jobs`.
//!
//! The work queue is a single [`AtomicUsize`] index into the spec slice:
//! each worker claims the next unclaimed spec, executes it, and stores the
//! summary into that spec's dedicated slot. Long and short runs therefore
//! interleave freely across workers without any ordering machinery beyond
//! the slot index.
//!
//! For one-shot sweeps, [`run_sweep`] spawns a scoped pool per call. A
//! caller that dispatches *several* sweeps in one invocation (the `report`
//! binary runs up to six experiment tables) uses a [`SweepPool`] instead:
//! the workers are spawned once and fed batches over a channel, so the
//! table groups share one pool rather than paying a thread spawn/join per
//! `sweep_table` call. Both dispatchers return summaries in input order, so
//! their output is byte-identical to the serial sweep.
//!
//! ## Supervision
//!
//! [`SweepPool::run_supervised`] is the fault-tolerant dispatcher: a run
//! that panics (or trips its wall-clock watchdog) does **not** abort the
//! sweep. The failed attempt is retried up to
//! [`SupervisionPolicy::max_retries`] times with deterministic linear
//! backoff; a run that exhausts its retries becomes a structured
//! [`SweepFailure`] (spec, message, attempt count) and its spec is
//! **quarantined** — re-submitting it to the same pool fails immediately
//! instead of burning another worker on a deterministic crash. The sweep
//! always completes with every non-failing summary in place.
//!
//! The watchdog is cooperative: each supervised run gets an armed
//! [`CancelFlag`] wired into
//! [`SimConfig::cancel`](crate::engine::SimConfig), and one shared watchdog
//! thread raises the flag when the run's wall-clock budget expires. The
//! engine polls the flag between events, so cancellation always lands on a
//! clean event boundary — a hung run is reaped gracefully rather than
//! wedging its worker until CI's job timeout.
//!
//! [`SweepPool::run`] keeps the historical fail-fast contract (any failure
//! panics on the caller's thread once the batch drains) for callers that
//! prefer abort-everything semantics — the `report --fail-fast` flag.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::engine::CancelFlag;
use crate::experiment::{run, run_with_hooks, RunHooks, RunSpec, RunStatus, RunSummary};

/// The number of workers to use when the caller has no preference: the
/// available hardware parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Executes every spec and returns the summaries in input order.
///
/// `jobs` is the worker count; `0` is treated as 1, and the pool never
/// spawns more workers than there are specs. With `jobs <= 1` the sweep
/// runs inline on the calling thread — no threads are spawned at all.
///
/// A panic inside any run (a simulator validity assertion, for instance)
/// propagates to the caller once the scope joins. For supervised execution
/// use [`SweepPool::run_supervised`].
pub fn run_sweep(specs: &[RunSpec], jobs: usize) -> Vec<RunSummary> {
    let jobs = jobs.clamp(1, specs.len().max(1));
    if jobs == 1 {
        return specs.iter().map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunSummary>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let summary = run(spec);
                *slots[i].lock().expect("sweep slot poisoned") = Some(summary);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every claimed slot is filled before the scope joins")
        })
        .collect()
}

/// How [`SweepPool::run_supervised`] handles failing and hung runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionPolicy {
    /// Re-executions granted after a failed first attempt. A run therefore
    /// executes at most `1 + max_retries` times before it becomes a
    /// [`SweepFailure`].
    pub max_retries: u32,
    /// Base of the deterministic linear backoff: the k-th retry of a run
    /// sleeps `k * backoff` before re-dispatch.
    pub backoff: Duration,
    /// Wall-clock budget per run attempt. When set, every attempt gets an
    /// armed cancel flag and the pool's watchdog thread raises it once the
    /// budget expires; the cancelled attempt counts as a failure ("hung"
    /// runs are deterministic here, so they are usually quarantined after
    /// their retries hang too). `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Interval, in events, between progress callbacks delivered to the
    /// [`SweepObserver`] (`0` disables progress reporting). The checkpoint
    /// journal uses these as its progress records.
    pub progress_every: usize,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            max_retries: 1,
            backoff: Duration::from_millis(25),
            watchdog: None,
            progress_every: 0,
        }
    }
}

impl SupervisionPolicy {
    /// The policy behind the historical abort-everything contract: no
    /// retries, no watchdog, no progress traffic.
    pub fn fail_fast() -> Self {
        SupervisionPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
            watchdog: None,
            progress_every: 0,
        }
    }
}

/// A run that exhausted its supervision budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// The spec that failed.
    pub spec: RunSpec,
    /// The panic message, or a watchdog/quarantine description.
    pub message: String,
    /// Attempts actually executed (0 for a run rejected by quarantine).
    pub attempts: u32,
    /// `true` when the spec is now quarantined in this pool: identical
    /// specs submitted later fail immediately without running.
    pub quarantined: bool,
}

/// The outcome of a supervised sweep: per-slot summaries (`None` where the
/// run failed), the structured failures, and the retry count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One slot per input spec, in input order; `None` marks a failed run.
    pub summaries: Vec<Option<RunSummary>>,
    /// Failures in input-slot order (deterministic regardless of worker
    /// interleaving).
    pub failures: Vec<SweepFailure>,
    /// Total re-executions performed after failed attempts.
    pub retries: u64,
}

/// Milestone callbacks delivered by [`SweepPool::run_supervised`] on the
/// caller's thread. The checkpoint journal is the canonical implementor;
/// `()` implements it as a no-op sink.
pub trait SweepObserver {
    /// A run reported progress: `slot` is the index into the submitted spec
    /// slice, `events` the applied-event count, `fingerprint` the engine's
    /// [state fingerprint](crate::engine::Simulator::fingerprint) at that
    /// index. Only delivered when [`SupervisionPolicy::progress_every`] is
    /// non-zero.
    fn on_progress(&mut self, slot: usize, events: usize, fingerprint: u64) {
        let _ = (slot, events, fingerprint);
    }
    /// A run completed; delivered before the summary is stored into its
    /// slot, so a journal write here strictly precedes the sweep returning.
    fn on_completed(&mut self, slot: usize, summary: &RunSummary) {
        let _ = (slot, summary);
    }
}

impl SweepObserver for () {}

/// One unit of pool work.
#[derive(Debug, Clone, Copy)]
struct PoolTask {
    /// Index into the submitted spec slice.
    slot: usize,
    spec: RunSpec,
    /// Events between progress messages (0 = none).
    progress_every: usize,
    /// Wall-clock budget for this attempt.
    watchdog: Option<Duration>,
}

/// How one attempt of a task ended.
#[derive(Debug)]
enum RunVerdict {
    /// The run finished and produced its summary (boxed: a summary is a few
    /// hundred bytes and rides a channel).
    Completed(Box<RunSummary>),
    /// The watchdog cancelled the run after `events` events.
    Cancelled { events: usize },
    /// The run panicked with this message.
    Panicked { message: String },
}

/// A message from a worker to the supervisor.
#[derive(Debug)]
enum PoolMsg {
    /// Periodic progress from an in-flight run.
    Progress {
        slot: usize,
        events: usize,
        fingerprint: u64,
    },
    /// A run attempt finished (one way or another).
    Done { slot: usize, verdict: RunVerdict },
}

/// Shared state of the pool's watchdog thread: armed deadlines plus a
/// condvar the registrar pokes so the thread re-plans its sleep.
#[derive(Debug, Default)]
struct WatchdogShared {
    state: Mutex<WatchdogState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct WatchdogState {
    /// (token, deadline, flag-to-raise) per in-flight supervised attempt.
    entries: Vec<(u64, Instant, CancelFlag)>,
    next_token: u64,
    shutdown: bool,
}

/// Registers a deadline with the watchdog; returns the token to deregister
/// with once the attempt finishes.
fn watchdog_register(shared: &WatchdogShared, deadline: Instant, flag: CancelFlag) -> u64 {
    let mut state = shared.state.lock().expect("watchdog state poisoned");
    let token = state.next_token;
    state.next_token += 1;
    state.entries.push((token, deadline, flag));
    shared.cv.notify_all();
    token
}

/// Removes a deadline (the attempt finished before — or after — it fired).
fn watchdog_deregister(shared: &WatchdogShared, token: u64) {
    let mut state = shared.state.lock().expect("watchdog state poisoned");
    state.entries.retain(|&(t, _, _)| t != token);
    shared.cv.notify_all();
}

/// The watchdog loop: raise every expired flag, then sleep until the
/// nearest remaining deadline (or until poked).
fn watchdog_loop(shared: &WatchdogShared) {
    let mut state = shared.state.lock().expect("watchdog state poisoned");
    loop {
        if state.shutdown {
            break;
        }
        let now = Instant::now();
        state.entries.retain(|(_, deadline, flag)| {
            if *deadline <= now {
                flag.cancel();
                false
            } else {
                true
            }
        });
        let nearest = state
            .entries
            .iter()
            .map(|&(_, deadline, _)| deadline.duration_since(now))
            .min();
        state = match nearest {
            Some(wait) => {
                shared
                    .cv
                    .wait_timeout(state, wait)
                    .expect("watchdog state poisoned")
                    .0
            }
            None => shared.cv.wait(state).expect("watchdog state poisoned"),
        };
    }
}

/// Executes one attempt of a task: arms the watchdog (when budgeted), runs
/// with hooks, catches panics, and always deregisters the deadline.
fn execute_attempt(
    task: &PoolTask,
    watchdog: &WatchdogShared,
    mut on_progress: impl FnMut(usize, u64),
) -> RunVerdict {
    let cancel = if task.watchdog.is_some() {
        CancelFlag::armed()
    } else {
        CancelFlag::default()
    };
    let token = task
        .watchdog
        .map(|budget| watchdog_register(watchdog, Instant::now() + budget, cancel.clone()));
    let spec = task.spec;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut progress = |events: usize, fingerprint: u64| on_progress(events, fingerprint);
        let hooks = RunHooks {
            cancel: cancel.clone(),
            progress: (task.progress_every > 0)
                .then_some(&mut progress as &mut dyn FnMut(usize, u64)),
            progress_every: task.progress_every,
        };
        run_with_hooks(&spec, hooks)
    }));
    if let Some(token) = token {
        watchdog_deregister(watchdog, token);
    }
    match result {
        Ok(RunStatus::Completed(summary)) => RunVerdict::Completed(summary),
        Ok(RunStatus::Cancelled { events }) => RunVerdict::Cancelled { events },
        Err(payload) => RunVerdict::Panicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The failure message for a non-completed verdict.
fn verdict_message(verdict: &RunVerdict, budget: Option<Duration>) -> String {
    match verdict {
        RunVerdict::Completed(_) => unreachable!("completed runs are not failures"),
        RunVerdict::Cancelled { events } => format!(
            "watchdog: cancelled after {events} events (budget {:.3}s)",
            budget.unwrap_or_default().as_secs_f64()
        ),
        RunVerdict::Panicked { message } => format!("panic: {message}"),
    }
}

/// Message attached to a quarantine rejection.
const QUARANTINE_MESSAGE: &str =
    "quarantined: this spec already exhausted its retries in this invocation";

/// A persistent worker pool for multi-sweep invocations.
///
/// Workers are spawned once (at construction) and shared by every
/// [`SweepPool::run`] / [`SweepPool::run_supervised`] call; each batch
/// drains completely before the call returns, so batches never interleave
/// and the summaries come back in input order — element-for-element equal
/// to [`run_sweep`] with the same worker count, which is how the
/// determinism tests pin it.
///
/// With `jobs <= 1` no worker threads are spawned and every batch runs
/// inline on the calling thread (the watchdog thread, if a policy asks for
/// one, is spawned lazily either way).
#[derive(Debug)]
pub struct SweepPool {
    /// Sender side of the task queue; `None` once the pool is shut down.
    task_tx: Option<mpsc::Sender<PoolTask>>,
    result_rx: mpsc::Receiver<PoolMsg>,
    workers: Vec<std::thread::JoinHandle<()>>,
    jobs: usize,
    /// Deadlines shared with the (lazily spawned) watchdog thread.
    watchdog: Arc<WatchdogShared>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    /// Specs that exhausted their retries in this pool's lifetime;
    /// re-submissions fail immediately.
    quarantine: Vec<RunSpec>,
}

impl SweepPool {
    /// Spawns a pool with the given worker count (`0` is treated as 1; one
    /// worker means inline execution, no worker threads).
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let (task_tx, task_rx) = mpsc::channel::<PoolTask>();
        let (result_tx, result_rx) = mpsc::channel::<PoolMsg>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let watchdog = Arc::new(WatchdogShared::default());
        let workers = if jobs == 1 {
            Vec::new()
        } else {
            (0..jobs)
                .map(|_| {
                    let task_rx = Arc::clone(&task_rx);
                    let result_tx = result_tx.clone();
                    let watchdog = Arc::clone(&watchdog);
                    std::thread::spawn(move || loop {
                        // Hold the queue lock only for the receive so other
                        // workers can claim tasks while this one runs.
                        let task = {
                            let rx = task_rx.lock().expect("sweep task queue poisoned");
                            rx.recv()
                        };
                        let Ok(task) = task else { break };
                        let progress_tx = result_tx.clone();
                        let verdict = execute_attempt(&task, &watchdog, |events, fingerprint| {
                            let _ = progress_tx.send(PoolMsg::Progress {
                                slot: task.slot,
                                events,
                                fingerprint,
                            });
                        });
                        // A send error means the pool was dropped mid-batch
                        // (the caller gave up); just exit.
                        if result_tx
                            .send(PoolMsg::Done {
                                slot: task.slot,
                                verdict,
                            })
                            .is_err()
                        {
                            break;
                        }
                    })
                })
                .collect()
        };
        SweepPool {
            task_tx: Some(task_tx),
            result_rx,
            workers,
            jobs,
            watchdog,
            watchdog_thread: None,
            quarantine: Vec::new(),
        }
    }

    /// The worker count this pool runs with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The specs currently quarantined in this pool.
    pub fn quarantined(&self) -> &[RunSpec] {
        &self.quarantine
    }

    /// Spawns the watchdog thread if a policy needs one and it is not
    /// running yet.
    fn ensure_watchdog(&mut self, policy: &SupervisionPolicy) {
        if policy.watchdog.is_some() && self.watchdog_thread.is_none() {
            let shared = Arc::clone(&self.watchdog);
            self.watchdog_thread = Some(std::thread::spawn(move || watchdog_loop(&shared)));
        }
    }

    /// Executes every spec on the pool and returns the summaries in input
    /// order — the historical fail-fast contract.
    ///
    /// # Panics
    /// Panics on the caller's thread if any run failed (after the batch
    /// drains, so the pool stays reusable up to the panic). For structured
    /// failures use [`SweepPool::run_supervised`].
    pub fn run(&mut self, specs: &[RunSpec]) -> Vec<RunSummary> {
        let outcome = self.run_supervised(specs, &SupervisionPolicy::fail_fast(), &mut ());
        if let Some(failure) = outcome.failures.first() {
            panic!("sweep run failed: {}", failure.message);
        }
        outcome
            .summaries
            .into_iter()
            .map(|slot| slot.expect("a failure-free sweep fills every slot"))
            .collect()
    }

    /// Executes every spec under supervision and returns the structured
    /// outcome: summaries in input order (`None` for failed slots),
    /// failures in slot order, and the retry count. Never panics on a
    /// failing run — panics are caught per attempt, retried per the
    /// policy, and quarantined once the retries are spent. Progress and
    /// completion milestones are delivered to `observer` on this thread.
    pub fn run_supervised(
        &mut self,
        specs: &[RunSpec],
        policy: &SupervisionPolicy,
        observer: &mut dyn SweepObserver,
    ) -> SweepOutcome {
        self.ensure_watchdog(policy);
        if self.workers.is_empty() {
            self.run_supervised_inline(specs, policy, observer)
        } else {
            self.run_supervised_pooled(specs, policy, observer)
        }
    }

    /// The inline (jobs ≤ 1) supervised path: same semantics, no worker
    /// threads, specs executed in order on the calling thread.
    fn run_supervised_inline(
        &mut self,
        specs: &[RunSpec],
        policy: &SupervisionPolicy,
        observer: &mut dyn SweepObserver,
    ) -> SweepOutcome {
        let mut summaries: Vec<Option<RunSummary>> = vec![None; specs.len()];
        let mut failures: Vec<SweepFailure> = Vec::new();
        let mut retries = 0u64;
        for (slot, &spec) in specs.iter().enumerate() {
            if self.quarantine.contains(&spec) {
                failures.push(SweepFailure {
                    spec,
                    message: QUARANTINE_MESSAGE.to_string(),
                    attempts: 0,
                    quarantined: true,
                });
                continue;
            }
            let task = PoolTask {
                slot,
                spec,
                progress_every: policy.progress_every,
                watchdog: policy.watchdog,
            };
            let mut attempts = 0u32;
            loop {
                let verdict = execute_attempt(&task, &self.watchdog, |events, fingerprint| {
                    observer.on_progress(slot, events, fingerprint)
                });
                match verdict {
                    RunVerdict::Completed(summary) => {
                        observer.on_completed(slot, &summary);
                        summaries[slot] = Some(*summary);
                        break;
                    }
                    failed => {
                        attempts += 1;
                        if attempts <= policy.max_retries {
                            retries += 1;
                            std::thread::sleep(policy.backoff * attempts);
                            continue;
                        }
                        self.quarantine.push(spec);
                        failures.push(SweepFailure {
                            spec,
                            message: verdict_message(&failed, policy.watchdog),
                            attempts,
                            quarantined: true,
                        });
                        break;
                    }
                }
            }
        }
        SweepOutcome {
            summaries,
            failures,
            retries,
        }
    }

    /// The threaded supervised path: dispatch everything, then drain
    /// completions, re-dispatching failed attempts until every slot either
    /// completed or exhausted its retries.
    fn run_supervised_pooled(
        &mut self,
        specs: &[RunSpec],
        policy: &SupervisionPolicy,
        observer: &mut dyn SweepObserver,
    ) -> SweepOutcome {
        let task_tx = self.task_tx.as_ref().expect("pool is live").clone();
        let mut summaries: Vec<Option<RunSummary>> = vec![None; specs.len()];
        // (slot, failure) so the rows can be emitted in deterministic slot
        // order whatever the worker interleaving was.
        let mut failures: Vec<(usize, SweepFailure)> = Vec::new();
        let mut attempts: Vec<u32> = vec![0; specs.len()];
        let mut retries = 0u64;
        let mut pending = 0usize;
        for (slot, &spec) in specs.iter().enumerate() {
            if self.quarantine.contains(&spec) {
                failures.push((
                    slot,
                    SweepFailure {
                        spec,
                        message: QUARANTINE_MESSAGE.to_string(),
                        attempts: 0,
                        quarantined: true,
                    },
                ));
                continue;
            }
            task_tx
                .send(PoolTask {
                    slot,
                    spec,
                    progress_every: policy.progress_every,
                    watchdog: policy.watchdog,
                })
                .expect("a sweep worker died");
            pending += 1;
        }
        while pending > 0 {
            let msg = self
                .result_rx
                .recv()
                .expect("a sweep worker died before finishing its batch");
            match msg {
                PoolMsg::Progress {
                    slot,
                    events,
                    fingerprint,
                } => observer.on_progress(slot, events, fingerprint),
                PoolMsg::Done { slot, verdict } => match verdict {
                    RunVerdict::Completed(summary) => {
                        observer.on_completed(slot, &summary);
                        summaries[slot] = Some(*summary);
                        pending -= 1;
                    }
                    failed => {
                        attempts[slot] += 1;
                        if attempts[slot] <= policy.max_retries {
                            retries += 1;
                            // Deterministic linear backoff before the
                            // re-dispatch. The supervisor sleeps; queued
                            // completions simply wait in the channel.
                            std::thread::sleep(policy.backoff * attempts[slot]);
                            task_tx
                                .send(PoolTask {
                                    slot,
                                    spec: specs[slot],
                                    progress_every: policy.progress_every,
                                    watchdog: policy.watchdog,
                                })
                                .expect("a sweep worker died");
                        } else {
                            self.quarantine.push(specs[slot]);
                            failures.push((
                                slot,
                                SweepFailure {
                                    spec: specs[slot],
                                    message: verdict_message(&failed, policy.watchdog),
                                    attempts: attempts[slot],
                                    quarantined: true,
                                },
                            ));
                            pending -= 1;
                        }
                    }
                },
            }
        }
        failures.sort_by_key(|&(slot, _)| slot);
        SweepOutcome {
            summaries,
            failures: failures.into_iter().map(|(_, f)| f).collect(),
            retries,
        }
    }
}

impl Drop for SweepPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's receive loop.
        self.task_tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(watchdog) = self.watchdog_thread.take() {
            {
                let mut state = self.watchdog.state.lock().expect("watchdog state poisoned");
                state.shutdown = true;
                self.watchdog.cv.notify_all();
            }
            let _ = watchdog.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{AdversaryKind, StrategyKind};
    use crate::init::Shape;

    /// A small but non-trivial spec matrix: two robot counts, three seeds,
    /// two shapes — twelve runs, each short enough for a debug-mode test.
    fn spec_matrix() -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for &n in &[3usize, 4] {
            for seed in 1..=3u64 {
                for &shape in &[Shape::Circle, Shape::Clusters] {
                    specs.push(RunSpec {
                        shape,
                        adversary: AdversaryKind::RoundRobin,
                        strategy: StrategyKind::Paper,
                        max_events: 20_000,
                        ..RunSpec::new(n, seed)
                    });
                }
            }
        }
        specs
    }

    /// A spec that deterministically panics inside the engine (n = 0).
    fn panicking_spec() -> RunSpec {
        RunSpec {
            max_events: 10,
            ..RunSpec::new(0, 1)
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_element_for_element() {
        let specs = spec_matrix();
        let serial = run_sweep(&specs, 1);
        let parallel = run_sweep(&specs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s, p, "summary {i} differs between jobs=1 and jobs=4");
        }
    }

    #[test]
    fn sweep_preserves_input_order() {
        let specs = spec_matrix();
        let summaries = run_sweep(&specs, 3);
        for (spec, summary) in specs.iter().zip(&summaries) {
            assert_eq!(*spec, summary.spec);
        }
    }

    #[test]
    fn zero_jobs_is_treated_as_one() {
        let specs = vec![RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(3, 1)
        }];
        assert_eq!(run_sweep(&specs, 0), run_sweep(&specs, 1));
    }

    #[test]
    fn empty_sweep_returns_no_summaries() {
        assert!(run_sweep(&[], 8).is_empty());
    }

    #[test]
    fn more_jobs_than_specs_is_fine() {
        let specs = vec![
            RunSpec {
                shape: Shape::Circle,
                adversary: AdversaryKind::RoundRobin,
                max_events: 20_000,
                ..RunSpec::new(3, 1)
            };
            2
        ];
        assert_eq!(run_sweep(&specs, 16), run_sweep(&specs, 1));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn pool_reused_across_batches_matches_run_sweep() {
        // One pool dispatching several batches (the report binary's usage
        // pattern) must produce exactly the per-call sweeps' output.
        let specs = spec_matrix();
        let (first, second) = specs.split_at(specs.len() / 2);
        let mut pool = SweepPool::new(4);
        assert_eq!(pool.jobs(), 4);
        assert_eq!(pool.run(first), run_sweep(first, 4));
        assert_eq!(pool.run(second), run_sweep(second, 1));
        // And an empty batch is fine.
        assert!(pool.run(&[]).is_empty());
    }

    #[test]
    fn pool_converts_worker_panics_into_failure_rows() {
        // The supervised contract that replaced the historical
        // `resume_unwind`: a panicking run (n = 0) becomes a structured
        // failure row with its retry count while every healthy run in the
        // same batch completes, and the sweep itself never panics.
        let good = RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(3, 1)
        };
        let specs = vec![panicking_spec(), good, panicking_spec()];
        let mut pool = SweepPool::new(2);
        let policy = SupervisionPolicy {
            max_retries: 1,
            backoff: Duration::from_millis(1),
            ..SupervisionPolicy::default()
        };
        let outcome = pool.run_supervised(&specs, &policy, &mut ());
        assert_eq!(outcome.summaries.len(), 3);
        assert!(outcome.summaries[0].is_none());
        assert!(outcome.summaries[2].is_none());
        let healthy = outcome.summaries[1]
            .as_ref()
            .expect("healthy run completes");
        assert_eq!(healthy.spec, good);
        // Two failing slots; the first to exhaust its retries quarantines
        // the spec, and the identical sibling either also ran (2 attempts)
        // or was rejected by the fresh quarantine (0 attempts).
        assert_eq!(outcome.failures.len(), 2);
        for failure in &outcome.failures {
            assert_eq!(failure.spec, panicking_spec());
            assert!(failure.quarantined);
            assert!(
                failure.attempts == 0 || failure.attempts == 2,
                "ran attempts = 1 + 1 retry"
            );
            assert!(!failure.message.is_empty());
        }
        assert!(outcome.retries >= 1);
        // The pool survives: the same batch re-submitted now short-circuits
        // the quarantined spec without running it.
        let again = pool.run_supervised(&specs, &policy, &mut ());
        assert!(again.summaries[1].is_some());
        assert_eq!(again.failures.len(), 2);
        for failure in &again.failures {
            assert_eq!(failure.attempts, 0, "quarantine rejects without running");
            assert_eq!(failure.message, QUARANTINE_MESSAGE);
        }
        assert_eq!(again.retries, 0);
    }

    #[test]
    #[should_panic(expected = "sweep run failed")]
    fn fail_fast_run_still_panics_on_a_failing_spec() {
        // The historical abort-everything contract lives on behind
        // `SweepPool::run` (the `report --fail-fast` path).
        let specs = vec![panicking_spec(); 2];
        let mut pool = SweepPool::new(2);
        let _ = pool.run(&specs);
    }

    #[test]
    fn supervised_matches_run_sweep_on_healthy_specs() {
        // Supervision must be a no-op for failure-free sweeps: identical
        // summaries, no failures, no retries — inline and pooled.
        let specs = spec_matrix();
        let expected = run_sweep(&specs, 1);
        for jobs in [1, 4] {
            let mut pool = SweepPool::new(jobs);
            let outcome = pool.run_supervised(&specs, &SupervisionPolicy::default(), &mut ());
            assert!(outcome.failures.is_empty());
            assert_eq!(outcome.retries, 0);
            let summaries: Vec<RunSummary> =
                outcome.summaries.into_iter().map(Option::unwrap).collect();
            assert_eq!(summaries, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn watchdog_cancels_a_long_run() {
        // A run with an enormous event budget under the maximally
        // obstructive adversary takes far longer than the 10 ms budget, so
        // the watchdog must cancel it and the supervisor must turn the
        // cancellation into a failure row (no retry: max_retries = 0).
        let hung = RunSpec {
            adversary: AdversaryKind::StopHappy,
            max_events: 50_000_000,
            ..RunSpec::new(10, 1)
        };
        let policy = SupervisionPolicy {
            max_retries: 0,
            watchdog: Some(Duration::from_millis(10)),
            ..SupervisionPolicy::default()
        };
        for jobs in [1, 2] {
            let mut pool = SweepPool::new(jobs);
            let outcome = pool.run_supervised(&[hung], &policy, &mut ());
            assert!(outcome.summaries[0].is_none(), "jobs={jobs}");
            assert_eq!(outcome.failures.len(), 1, "jobs={jobs}");
            assert!(
                outcome.failures[0].message.contains("watchdog"),
                "jobs={jobs}: {}",
                outcome.failures[0].message
            );
        }
    }

    #[test]
    fn observer_sees_progress_and_completion() {
        #[derive(Default)]
        struct Recorder {
            progress: Vec<(usize, usize, u64)>,
            completed: Vec<usize>,
        }
        impl SweepObserver for Recorder {
            fn on_progress(&mut self, slot: usize, events: usize, fingerprint: u64) {
                self.progress.push((slot, events, fingerprint));
            }
            fn on_completed(&mut self, slot: usize, _summary: &RunSummary) {
                self.completed.push(slot);
            }
        }
        let specs = vec![RunSpec {
            shape: Shape::Circle,
            adversary: AdversaryKind::RoundRobin,
            max_events: 20_000,
            ..RunSpec::new(4, 2)
        }];
        let policy = SupervisionPolicy {
            progress_every: 50,
            ..SupervisionPolicy::default()
        };
        let mut pool = SweepPool::new(1);
        let mut recorder = Recorder::default();
        let outcome = pool.run_supervised(&specs, &policy, &mut recorder);
        let summary = outcome.summaries[0].as_ref().expect("run completes");
        assert_eq!(recorder.completed, vec![0]);
        assert!(
            !recorder.progress.is_empty(),
            "a {}-event run reports progress at interval 50",
            summary.events
        );
        // Progress is monotone in events and every record belongs to slot 0.
        let mut last = 0;
        for &(slot, events, _) in &recorder.progress {
            assert_eq!(slot, 0);
            assert!(events > last);
            last = events;
        }
    }

    #[test]
    fn single_job_pool_runs_inline() {
        let specs = spec_matrix();
        let mut pool = SweepPool::new(1);
        assert_eq!(pool.run(&specs[..3]), run_sweep(&specs[..3], 1));
        let mut zero = SweepPool::new(0);
        assert_eq!(zero.jobs(), 1);
        assert_eq!(zero.run(&specs[..1]), run_sweep(&specs[..1], 1));
    }
}
