//! The equivalence pin for the cached world state: a `World`-backed run
//! must replay **event-for-event identical** to a from-scratch reference
//! recomputation, across every `Shape` × `AdversaryKind` combination of the
//! experiment matrix.
//!
//! The cached engine ([`WorldMode::Sparse`], the default) answers Look
//! snapshots, validity, connectivity and the gathering predicate from
//! caches with grid-indexed dirty-pair invalidation; the reference engine
//! ([`WorldMode::Scratch`]) recomputes everything per query exactly like
//! the seed engine did. Identical event streams, final centers, outcomes
//! and metrics prove the caches never change observable behaviour.

use fatrobots::prelude::*;
use fatrobots::sim::experiment::{AdversaryKind, StrategyKind};
use fatrobots::sim::world::WorldMode;
use fatrobots::sim::RunOutcome;

#[allow(clippy::type_complexity)]
fn run_with_threads(
    n: usize,
    seed: u64,
    shape: Shape,
    adversary: AdversaryKind,
    mode: WorldMode,
    decision_cache: bool,
    threads: usize,
) -> (
    RunOutcome,
    Vec<Point>,
    Vec<fatrobots::scheduler::Event>,
    (u64, u64, u64, u64),
) {
    let centers = shape.generate(n, seed);
    let mut sim = Simulator::new(
        centers,
        StrategyKind::Paper.build(n),
        adversary.build(seed, n),
        SimConfig {
            max_events: 12_000,
            record_trace: true,
            world_mode: mode,
            decision_cache,
            threads,
            ..SimConfig::default()
        },
    );
    let outcome = sim.run();
    let stats = sim.parallel_stats();
    (
        outcome,
        sim.centers().to_vec(),
        sim.trace().events().to_vec(),
        stats,
    )
}

fn run_with_config(
    n: usize,
    seed: u64,
    shape: Shape,
    adversary: AdversaryKind,
    mode: WorldMode,
    decision_cache: bool,
) -> (RunOutcome, Vec<Point>, Vec<fatrobots::scheduler::Event>) {
    let (outcome, centers, events, _) =
        run_with_threads(n, seed, shape, adversary, mode, decision_cache, 1);
    (outcome, centers, events)
}

fn run_with_mode(
    n: usize,
    seed: u64,
    shape: Shape,
    adversary: AdversaryKind,
    mode: WorldMode,
) -> (RunOutcome, Vec<Point>, Vec<fatrobots::scheduler::Event>) {
    run_with_config(n, seed, shape, adversary, mode, true)
}

#[test]
fn world_backed_runs_replay_identically_across_the_matrix() {
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (cached_outcome, cached_centers, cached_events) =
                run_with_mode(5, 2, shape, adversary, WorldMode::Sparse);
            let (scratch_outcome, scratch_centers, scratch_events) =
                run_with_mode(5, 2, shape, adversary, WorldMode::Scratch);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                cached_events, scratch_events,
                "event stream diverged for {label}"
            );
            assert_eq!(
                cached_centers, scratch_centers,
                "final centers diverged for {label}"
            );
            assert_eq!(
                cached_outcome, scratch_outcome,
                "run outcome (incl. metrics and samples) diverged for {label}"
            );
            assert!(
                !cached_events.is_empty(),
                "the {label} run must actually execute events"
            );
        }
    }
}

/// The pair-store pin: the matrix above runs n = 5, where every corridor
/// is short and few blocked answers are certified. This one replays the
/// same Shape × AdversaryKind matrix at n = 12, where chords span more
/// cells and occlusion is common, so rows initialize lazily, dirty pairs
/// queue on pending rows and blocked answers are certified and skipped
/// by the drains — and still every run must match the from-scratch
/// reference event for event.
#[test]
fn sparse_world_runs_replay_identically_across_the_matrix() {
    let (mut cover_answers, mut cert_skips) = (0, 0);
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let run = |mode| {
                let centers = shape.generate(12, 3);
                let mut sim = Simulator::new(
                    centers,
                    StrategyKind::Paper.build(12),
                    adversary.build(3, 12),
                    SimConfig {
                        max_events: 4_000,
                        record_trace: true,
                        world_mode: mode,
                        ..SimConfig::default()
                    },
                );
                let outcome = sim.run();
                let certs = sim.world().cert_stats();
                let events = sim.trace().events().to_vec();
                (outcome, sim.centers().to_vec(), events, certs)
            };
            let (cached_outcome, cached_centers, cached_events, certs) = run(WorldMode::Sparse);
            let (scratch_outcome, scratch_centers, scratch_events, _) = run(WorldMode::Scratch);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                cached_events, scratch_events,
                "event stream diverged from scratch for {label}"
            );
            assert_eq!(cached_centers, scratch_centers, "{label}");
            assert_eq!(cached_outcome, scratch_outcome, "{label}");
            cover_answers += certs.0;
            cert_skips += certs.1;
        }
    }
    // The pin is only meaningful if the certificate path actually engages.
    assert!(
        cover_answers > 0,
        "no recompute was answered by a strip cover"
    );
    assert!(cert_skips > 0, "no drain ever skipped a certified pair");
}

/// The decision-memoization pin: with the cache on (the default), every
/// Compute event whose robot's view version is unchanged replays the
/// memoized decision instead of running `Strategy::decide_with`. The
/// algorithm is a deterministic function of the view and an unchanged
/// version guarantees an unchanged view, so the two engines must produce
/// event-for-event identical streams, final centers and outcomes across
/// the whole experiment matrix — any divergence means the view-version
/// bookkeeping let a stale decision through.
#[test]
fn memoized_decisions_replay_identically_across_the_matrix() {
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (cached_outcome, cached_centers, cached_events) =
                run_with_config(5, 2, shape, adversary, WorldMode::Sparse, true);
            let (fresh_outcome, fresh_centers, fresh_events) =
                run_with_config(5, 2, shape, adversary, WorldMode::Sparse, false);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                cached_events, fresh_events,
                "event stream diverged with the decision cache for {label}"
            );
            assert_eq!(
                cached_centers, fresh_centers,
                "final centers diverged with the decision cache for {label}"
            );
            assert_eq!(
                cached_outcome, fresh_outcome,
                "run outcome diverged with the decision cache for {label}"
            );
        }
    }
}

/// The parallel-executor pin: `SimConfig::threads = 4` routes runs through
/// the commutation-batching + speculative-Compute executor, which must
/// replay **event-for-event identical** to the serial loop — same event
/// stream, same final centers, same outcome (metrics and samples included)
/// — across the whole Shape × AdversaryKind matrix. Any divergence means a
/// batched event did not actually commute or a speculation replayed a
/// stale decision.
#[test]
fn parallel_executor_replays_identically_across_the_matrix() {
    let mut batched_events = 0;
    let mut spec_hits = 0;
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (par_outcome, par_centers, par_events, stats) =
                run_with_threads(5, 2, shape, adversary, WorldMode::Sparse, true, 4);
            let (ser_outcome, ser_centers, ser_events, _) =
                run_with_threads(5, 2, shape, adversary, WorldMode::Sparse, true, 1);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(
                par_events, ser_events,
                "parallel event stream diverged from serial for {label}"
            );
            assert_eq!(
                par_centers, ser_centers,
                "parallel final centers diverged from serial for {label}"
            );
            assert_eq!(
                par_outcome, ser_outcome,
                "parallel run outcome diverged from serial for {label}"
            );
            batched_events += stats.1;
            spec_hits += stats.2;
        }
    }
    // The pin is only meaningful if the parallel paths actually engage.
    assert!(
        batched_events > 0,
        "no run of the matrix ever committed a multi-event batch"
    );
    assert!(
        spec_hits > 0,
        "no run of the matrix ever consumed a speculative decision"
    );
}

/// Same pin with the decision cache disabled: speculation is off (it rides
/// on the memoization contract), so this isolates pure commutation
/// batching against the uncached serial reference.
#[test]
fn parallel_executor_matches_serial_without_the_decision_cache() {
    for shape in Shape::ALL {
        for adversary in AdversaryKind::ALL {
            let (par_outcome, par_centers, par_events, stats) =
                run_with_threads(5, 2, shape, adversary, WorldMode::Sparse, false, 4);
            let (ser_outcome, ser_centers, ser_events, _) =
                run_with_threads(5, 2, shape, adversary, WorldMode::Sparse, false, 1);
            let label = format!("shape={} adversary={}", shape.name(), adversary.name());
            assert_eq!(par_events, ser_events, "event stream diverged for {label}");
            assert_eq!(par_centers, ser_centers);
            assert_eq!(par_outcome, ser_outcome);
            assert_eq!(stats.2, 0, "speculation must stay off without the cache");
            assert_eq!(stats.3, 0);
        }
    }
}

#[test]
fn larger_asynchronous_run_replays_identically() {
    // One deeper spot-check past the matrix: more robots, the seeded
    // random-async schedule, and enough events to cycle the cache through
    // many generations.
    let (cached_outcome, cached_centers, cached_events) = run_with_mode(
        9,
        7,
        Shape::Random,
        AdversaryKind::RandomAsync,
        WorldMode::Sparse,
    );
    let (scratch_outcome, scratch_centers, scratch_events) = run_with_mode(
        9,
        7,
        Shape::Random,
        AdversaryKind::RandomAsync,
        WorldMode::Scratch,
    );
    assert_eq!(cached_events, scratch_events);
    assert_eq!(cached_centers, scratch_centers);
    assert_eq!(cached_outcome, scratch_outcome);
    // And the same workload with the decision memo disabled: the seeded
    // async schedule interleaves Looks and Computes of different robots
    // arbitrarily, so stale-replay bugs that a round-robin schedule could
    // mask show up here.
    let (fresh_outcome, fresh_centers, fresh_events) = run_with_config(
        9,
        7,
        Shape::Random,
        AdversaryKind::RandomAsync,
        WorldMode::Sparse,
        false,
    );
    assert_eq!(cached_events, fresh_events);
    assert_eq!(cached_centers, fresh_centers);
    assert_eq!(cached_outcome, fresh_outcome);
}
