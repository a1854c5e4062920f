//! Timing from outside the program: decorators over the `Strategy` and
//! `Adversary` seams, and per-`step()` spans attributed by event kind.
//!
//! A traced step's span is split into the time the adversary spent in
//! `Adversary::next` (the scheduler layer), the time the strategy spent in
//! `Strategy::decide_with` (the core layer), and the step's self time,
//! which goes to the world layer on Look and motion events and to the
//! engine on Compute and dispatch events.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fatrobots_core::{ComputeScratch, Decision, Strategy};
use fatrobots_model::LocalView;
use fatrobots_scheduler::{Adversary, Directive, Event, FaultStats, SystemSnapshot};
use fatrobots_sim::Simulator;

use crate::report::Samples;

/// Calls and busy time of one decorated seam, shared between the decorator
/// (owned by the simulator) and the driver that reads it.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    nanos: AtomicU64,
    /// Per-call durations in microseconds, when kept.
    samples: Option<Mutex<Vec<f64>>>,
}

impl Clock {
    /// A clock that also keeps every call's duration.
    pub fn with_samples() -> Self {
        Clock {
            samples: Some(Mutex::new(Vec::new())),
            ..Clock::default()
        }
    }

    fn record(&self, start: Instant) {
        let nanos = start.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(samples) = &self.samples {
            samples
                .lock()
                .expect("a decorated call panicked while recording")
                .push(nanos as f64 / 1e3);
        }
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy time recorded so far, in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Per-call durations in microseconds (empty unless kept).
    pub fn samples(&self) -> Samples {
        let mut out = Samples::default();
        if let Some(samples) = &self.samples {
            for &s in samples.lock().expect("sample lock poisoned").iter() {
                out.push(s);
            }
        }
        out
    }
}

/// A strategy that times `decide_with` and delegates everything else, so
/// the decorated run's event stream equals the plain one.
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
    clock: Arc<Clock>,
}

impl TimedStrategy {
    /// Wraps `inner`, recording into `clock`.
    pub fn new(inner: Box<dyn Strategy>, clock: Arc<Clock>) -> Self {
        TimedStrategy { inner, clock }
    }
}

impl Strategy for TimedStrategy {
    fn decide(&self, view: &LocalView) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(view);
        self.clock.record(start);
        decision
    }

    fn decide_with(&self, view: &LocalView, scratch: &mut ComputeScratch) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide_with(view, scratch);
        self.clock.record(start);
        decision
    }

    fn memoizable(&self) -> bool {
        self.inner.memoizable()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An adversary that times `next` and delegates everything else.
pub struct TimedAdversary {
    inner: Box<dyn Adversary>,
    clock: Arc<Clock>,
}

impl TimedAdversary {
    /// Wraps `inner`, recording into `clock`.
    pub fn new(inner: Box<dyn Adversary>, clock: Arc<Clock>) -> Self {
        TimedAdversary { inner, clock }
    }
}

impl Adversary for TimedAdversary {
    fn next(&mut self, system: &SystemSnapshot<'_>) -> Option<Directive> {
        let start = Instant::now();
        let directive = self.inner.next(system);
        self.clock.record(start);
        directive
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn permanently_stopped(&self, robot: usize) -> bool {
        self.inner.permanently_stopped(robot)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

/// The clocks behind a traced simulator's decorators.
#[derive(Debug, Clone)]
pub struct Probes {
    /// `Strategy::decide_with` (the core layer).
    pub decide: Arc<Clock>,
    /// `Adversary::next` (the scheduler layer).
    pub next: Arc<Clock>,
}

impl Default for Probes {
    fn default() -> Self {
        Probes {
            decide: Arc::new(Clock::with_samples()),
            next: Arc::new(Clock::default()),
        }
    }
}

impl Probes {
    /// Decorates a strategy and an adversary with these clocks.
    pub fn wrap(
        &self,
        strategy: Box<dyn Strategy>,
        adversary: Box<dyn Adversary>,
    ) -> (Box<dyn Strategy>, Box<dyn Adversary>) {
        (
            Box::new(TimedStrategy::new(strategy, Arc::clone(&self.decide))),
            Box::new(TimedAdversary::new(adversary, Arc::clone(&self.next))),
        )
    }
}

/// Step spans accumulated over one or more driven runs, in nanoseconds.
#[derive(Debug, Default)]
pub struct Spans {
    /// Wall time of the driving loops.
    pub wall_ns: u64,
    /// Events applied.
    pub events: u64,
    /// Self time of Look steps (row refresh and snapshot).
    pub look_ns: u64,
    /// Self time of motion steps (`Arrive`, `Stop`, `Collide`).
    pub move_ns: u64,
    /// Self time of Compute steps, decide time excluded.
    pub compute_ns: u64,
    /// Self time of dispatch steps (`Move`, `Done`) and of the final step
    /// that found no directive.
    pub other_ns: u64,
    /// Time inside `Adversary::next` (traced runs only).
    pub next_ns: u64,
    /// Time inside `Strategy::decide_with` (traced runs only).
    pub decide_ns: u64,
    /// Duration of every Look step, in milliseconds.
    pub looks: Samples,
    /// Look steps that built a robot's row for the first time.
    pub cold_looks: Samples,
    /// Every later Look step.
    pub warm_looks: Samples,
}

impl Spans {
    /// Sum of the attributed layer times.
    pub fn attributed_ns(&self) -> u64 {
        self.look_ns
            + self.move_ns
            + self.compute_ns
            + self.other_ns
            + self.next_ns
            + self.decide_ns
    }
}

/// Drives one simulator, remembering which robots have Looked, so that a
/// run driven in several windows still tells cold Looks from warm ones.
#[derive(Debug)]
pub struct Driver {
    looked: Vec<bool>,
}

impl Driver {
    /// A driver for a simulator of `n` robots.
    pub fn new(n: usize) -> Self {
        Driver {
            looked: vec![false; n],
        }
    }

    /// Steps `sim` until it has applied `max_events` events or the
    /// adversary has no directive left — the loop of `Simulator::run` at
    /// one thread — timing every step. With `probes` (the clocks of the
    /// decorators `sim` was built with) each span is split into scheduler,
    /// core and self time.
    pub fn drive(
        &mut self,
        sim: &mut Simulator,
        max_events: usize,
        probes: Option<&Probes>,
        spans: &mut Spans,
    ) {
        let read = |p: Option<&Probes>| p.map_or((0, 0), |p| (p.next.nanos(), p.decide.nanos()));
        let start = Instant::now();
        while sim.metrics().events < max_events {
            let (next0, decide0) = read(probes);
            let t = Instant::now();
            let event = sim.step();
            let step_ns = t.elapsed().as_nanos() as u64;
            let (next1, decide1) = read(probes);
            let (next_ns, decide_ns) = (next1 - next0, decide1 - decide0);
            spans.next_ns += next_ns;
            spans.decide_ns += decide_ns;
            let self_ns = step_ns.saturating_sub(next_ns + decide_ns);
            match event {
                Some(Event::Look(robot)) => {
                    spans.look_ns += self_ns;
                    let ms = step_ns as f64 / 1e6;
                    spans.looks.push(ms);
                    if std::mem::replace(&mut self.looked[robot.0], true) {
                        spans.warm_looks.push(ms);
                    } else {
                        spans.cold_looks.push(ms);
                    }
                }
                Some(Event::Compute(_)) => spans.compute_ns += self_ns,
                Some(Event::Arrive(_) | Event::Stop(_) | Event::Collide(_)) => {
                    spans.move_ns += self_ns
                }
                Some(Event::Move(_) | Event::Done(_)) => spans.other_ns += self_ns,
                None => {
                    spans.other_ns += self_ns;
                    break;
                }
            }
            spans.events += 1;
        }
        spans.wall_ns += start.elapsed().as_nanos() as u64;
    }
}
