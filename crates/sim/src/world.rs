//! The world state: ground-truth centers plus cached derived state.
//!
//! The paper's model is event-serial by construction — exactly one robot
//! acts per event — so between two consecutive Look snapshots at most one
//! center has changed. [`World`] exploits this: it owns the ground-truth
//! centers plus derived state that is **incrementally maintained** instead
//! of being recomputed from scratch on every event:
//!
//! * a **pair store** of visibility answers, holding only the pairs that
//!   have been computed, with per-robot sorted adjacency lists that *are*
//!   the visible sets, invalidated pair-by-pair when a move can actually
//!   have changed the pair's answer;
//! * the **convex hull** (and the all-on-hull flag), the **connectivity**
//!   predicate, the **validity** (no-overlap) predicate and the minimum
//!   pairwise gap, each tagged with a configuration version and recomputed
//!   lazily on first use after a move.
//!
//! Memory is linear in n plus the computed pairs, which is what lets the
//! same world serve n = 3 and n = 10⁴.
//!
//! ## The invalidation rule
//!
//! A cached visibility entry for the pair `(j, k)` is computed from the two
//! endpoint centers plus the obstacles near their sight corridor (the
//! capsule of radius [`VISIBILITY_PRUNE_RADIUS`] around the chord
//! `c_j`–`c_k` — see `disc_sees_disc_among`). The entry must therefore be
//! invalidated exactly when either endpoint moves, or some robot moves
//! *into* or *out of* that corridor. Scanning all pairs per move would
//! reintroduce the quadratic cost, so the corridor membership is indexed
//! through the spatial grid:
//!
//! * when a pair is (re)computed, it registers itself in every cell of the
//!   conservative cover of its corridor, at the grid level matched to its
//!   chord length (so each pair holds O(1) cells);
//! * when robot `i` moves, only the registrations of the cells it left and
//!   entered (one pair of cells per level) are drained, and exactly those
//!   pairs are marked dirty and queued on both endpoints' pending rows.
//!
//! The cover is a superset of the cells that can hold a relevant obstacle
//! (and always contains the endpoints' own cells), so a stale hit is
//! impossible: any robot whose move can change the pair's answer — either
//! endpoint, a robot leaving the corridor, a robot entering it — stamps a
//! registered cell. A Look recomputes only its row's queued dirty pairs,
//! against a grid-pruned obstacle slice.
//!
//! ## The occlusion horizon
//!
//! Robots are opaque discs, so in a dense formation a robot sees only its
//! own ring — yet a row holds n − 1 pairs, and a robot that moves beyond
//! the certificate drift radius dirties all of them. The **occlusion
//! horizon** makes such a Look output-sensitive. Before computing a row,
//! the refresh asks [`occlusion_horizon`] whether the obstacles within
//! radius R of the robot block every line leaving it, at R = 6, 12, 24, …
//! When it closes, the certificate proves the pair kernel answers "not
//! seen" for every robot at least `R + HORIZON_FAR_MARGIN` away, so the
//! refresh computes only the **near field** (robots within
//! `R + HORIZON_FAR_MARGIN + ρ` of the robot's anchor, O(ring) pairs).
//! Far pairs get no entry, no kernel call and no registration, and count
//! as cache hits.
//!
//! *Soundness.* The certificate covers the line space around the robot's
//! anchor with the bands blocked by its obstacles, with the same slack ρ
//! (`COVER_STABILITY_RADIUS`) as the certified strip cover. It holds for
//! any configuration in which the robot stays within ρ of its anchor and
//! every other robot within ρ of its position at certification (see the
//! geometry docs for the argument). Every robot is within
//! `CERT_DRIFT_RADIUS = ρ/2` of its anchor, so in-drift moves keep both.
//! Robots beyond the near radius at certification stay beyond
//! `R + HORIZON_FAR_MARGIN` while they stay in drift, so they remain far.
//!
//! *Invalidation.* The horizon registers, certified, on the cells covering
//! its near-field disc, through the same drains as the pair corridors. An
//! in-drift move skips it like any certified registration. A move beyond
//! drift by the owner, or with an old or new position inside the disc (a
//! cover obstacle leaving, a far robot arriving), dirties it and bumps the
//! owner's view version. The next refresh then closes a fresh horizon or
//! computes the full row. Under a live horizon the refresh recomputes the
//! queued dirty pairs of the near field and every queued pair whose stored
//! answer is "seen", so a stale far entry created by another row never
//! leaks into the adjacency. Unseen far pairs stay dirty and are left to
//! the horizon.
//!
//! *Cost rule.* A horizon is tried at R only while its near field — at
//! most `(near radius + 1)²` robots by disc packing — is smaller than the
//! work it would spare: the rest of the row for a row without stored far
//! pairs, the queued recomputes for a full row. Small worlds and warm rows
//! therefore never pay for an attempt, and a row whose horizon does not
//! close runs the full-row path unchanged.
//!
//! ## Bit-identical results
//!
//! The cached path answers every query through the *same* geometric kernels
//! as the from-scratch path (`disc_sees_disc_among` with a conservatively
//! pre-filtered obstacle slice is exactly `disc_sees_disc` over all
//! centers; the hull, connectivity and sample predicates are evaluated by
//! the same functions on the same inputs). A `World` in
//! [`WorldMode::Scratch`] recomputes everything per query, which is how the
//! determinism suite pins the equivalence event-for-event.

use std::collections::HashMap;

use fatrobots_geometry::grid::{CellCoord, CellHashBuilder, CellMap, UniformGrid, GRID_LEVELS};
use fatrobots_geometry::hull::{ConvexHull, HullScratch};
use fatrobots_geometry::visibility::{
    corridor_filter_soa, disc_sees_disc_among, min_pairwise_gap, no_three_collinear,
    occlusion_horizon, strip_cover_blocked, strip_cover_blocked_with_slack, visible_set,
    VisibilityConfig, COVER_STABILITY_RADIUS, HORIZON_FAR_MARGIN, VISIBILITY_PRUNE_RADIUS,
};
use fatrobots_geometry::{Point, Segment, Vec2, UNIT_RADIUS};
use fatrobots_model::config::{gap_touches, TOUCH_TOL};
use fatrobots_model::GeometricConfig;

use crate::metrics::SamplePredicates;

/// Edge length of the spatial-grid cells: two robot diameters, so corridor
/// and contact queries touch a handful of cells while clusters of touching
/// robots still share cells.
const GRID_CELL: f64 = 4.0 * UNIT_RADIUS;

/// Safety margin added to the swept-capsule query of the contact scan, far
/// larger than the engine's contact tolerances (`1e-6`/`1e-9`) and far
/// smaller than a cell.
const CONTACT_QUERY_MARGIN: f64 = 1e-3;

/// Minimum length before a cell registration list or a pending row is ever
/// compacted (dead entries dropped). Beyond it, compaction triggers when a
/// list doubles past its size after the previous compaction, so the work
/// is amortized O(1) per push while garbage from frequently recomputed
/// pairs stays bounded.
const REGISTRATION_COMPACT_LEN: usize = 64;

/// How a [`World`] answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorldMode {
    /// The cached world (the default): a pair store that only materializes
    /// computed pairs, per-robot adjacency lists, and corridor
    /// registrations placed at a chord-length-matched grid level. Memory
    /// is linear in n + computed pairs.
    Sparse,
    /// Every query recomputes from scratch, exactly like the seed engine.
    /// Used by the determinism suite as the reference behaviour.
    Scratch,
}

/// One cached visibility entry: the answer for the unordered pair
/// `{a, b}`. Entries live in an append-only slab ([`PairStore::entries`])
/// and are never removed, so a slot index names its pair for the life of
/// the world.
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    a: u32,
    b: u32,
    seen: bool,
    /// Bumped on every recompute; cell registrations carrying an older
    /// generation are dead.
    gen: u32,
    dirty: bool,
    /// The last recompute certified "blocked" through
    /// [`strip_cover_blocked_with_slack`], so the answer provably stays
    /// `false` while **every** robot — both endpoints and every corridor
    /// obstacle — remains within [`CERT_DRIFT_RADIUS`] of its anchor.
    /// Lets the drain *skip* a certified registration for any in-drift
    /// move with a single branch (the flag is copied into the
    /// registration record, so no pair-store read is needed): the
    /// mechanism that makes both a mover's own far-pair row and the
    /// thousands of third-party corridors crossing its cell survive
    /// oscillation with zero per-move work.
    certified: bool,
}

impl PairEntry {
    /// The endpoint that is not `i`.
    fn partner(&self, i: usize) -> usize {
        if self.a as usize == i {
            self.b as usize
        } else {
            self.a as usize
        }
    }
}

/// Maximum distance a robot may drift from its anchor before the anchor
/// resets (the resetting move itself fails every skip check, so it drains
/// and dirties every certified registration it covers first). Certificates
/// are issued when the endpoints are within this radius of their anchors
/// and honored while every robot involved stays within it, so any robot's
/// position differs from its certification-time one by at most
/// `2·CERT_DRIFT_RADIUS = COVER_STABILITY_RADIUS` — exactly the per-robot
/// drift [`strip_cover_blocked_with_slack`] guarantees against, for
/// obstacles as well as endpoints.
const CERT_DRIFT_RADIUS: f64 = COVER_STABILITY_RADIUS / 2.0;

/// Chord lengths up to this many cell edges register at a grid level; a
/// longer chord moves up one level. Keeps every pair's corridor
/// registration at O(1) cells regardless of chord length (the memory term
/// that would otherwise scale with the configuration diameter).
const REG_SPAN_CELLS: f64 = 8.0;

/// The smallest radius an occlusion horizon is certified at; each further
/// attempt doubles it. At the paper-regime hex spacing the ring of
/// obstacles within 6 radii already blocks every line leaving a robot.
const HORIZON_FIRST_RADIUS: f64 = 6.0;

/// Certification radius of a horizon after `doublings` doublings of
/// [`HORIZON_FIRST_RADIUS`].
fn horizon_radius(doublings: u8) -> f64 {
    HORIZON_FIRST_RADIUS * f64::from(1u32 << doublings)
}

/// Radius of the near field of a horizon certified at `radius`: the pairs
/// a horizon row stores. Robots beyond it at certification are at least
/// `radius + HORIZON_FAR_MARGIN` away for as long as they stay within the
/// drift radius, which is all the certificate needs.
fn horizon_near_radius(radius: f64) -> f64 {
    radius + HORIZON_FAR_MARGIN + COVER_STABILITY_RADIUS
}

/// Upper bound on the robots in the near field of a horizon certified at
/// `radius`: unit discs centred within the near radius lie inside a disc
/// one radius larger, so by area at most `(near + 1)²` of them fit.
fn horizon_near_bound(radius: f64) -> f64 {
    let r = horizon_near_radius(radius) + UNIT_RADIUS;
    r * r / (UNIT_RADIUS * UNIT_RADIUS)
}

/// Packed key of the unordered pair `{a, b}` (`a < b`).
fn pair_key(a: usize, b: usize) -> u64 {
    debug_assert!(a < b);
    ((a as u64) << 32) | b as u64
}

/// One registration: the pair in slab slot `slot`, at generation `gen`,
/// depends on the registered cell — or, when [`Self::horizon`] is set, the
/// occlusion horizon of row `slot` at horizon generation `gen` does.
#[derive(Debug, Clone, Copy)]
struct Registration {
    slot: u32,
    gen: u32,
    /// The registration belongs to a row's occlusion horizon (always
    /// certified), not to a pair's corridor.
    horizon: bool,
    /// Copy of [`PairEntry::certified`] at registration time, so the drain
    /// fast path can skip certified registrations without touching the
    /// pair store. A stale copy is harmless: if the pair has since been
    /// recomputed, this registration is dead (generation mismatch) and
    /// skipping it merely retains garbage — the *live* registration written
    /// by that recompute carries the current flag and is the one that
    /// matters. Stale registrations are reaped by the drain's slow path and
    /// the amortized compaction sweeps.
    certified: bool,
}

/// A cell's registrations plus its amortized-compaction watermark: the
/// list is swept for dead entries only when it doubles past its size after
/// the previous sweep.
#[derive(Debug, Default)]
struct CellRegistrations {
    regs: Vec<Registration>,
    compact_at: usize,
}

/// The per-robot state of the cached world.
#[derive(Debug)]
struct Row {
    /// Sorted adjacency: the robots whose pair with this one is stored
    /// with `seen == true` (possibly dirty — a row refresh recomputes the
    /// dirty pairs before the list is read).
    adj: Vec<u32>,
    /// Pair slots to recompute at the next row refresh, fed by the cell
    /// drains. May hold stale entries (pairs already recomputed through
    /// the partner's row); the refresh skips anything no longer dirty.
    pending: Vec<u32>,
    /// Amortized-compaction watermark of `pending`, bounding the queue of
    /// rows that rarely refresh.
    pending_compact_at: usize,
    /// Which of the row's pairs are stored (see [`RowState`]).
    state: RowState,
    /// Generation of the row's latest occlusion horizon: horizon
    /// registrations carrying an older one are dead.
    horizon_gen: u32,
    /// Certificate anchor. Invariant outside `move_robot`: the robot is
    /// within [`CERT_DRIFT_RADIUS`] of it — a move that would break this
    /// first fails every skip check (dirtying the row as usual) and then
    /// resets the anchor to the new position.
    anchor: Point,
}

/// How much of a row the pair store holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RowState {
    /// Only some of the row's pairs may be stored — none yet, or those of
    /// a horizon that has since been dirtied — and dirty ones need not be
    /// queued. The next refresh closes a fresh horizon or computes every
    /// pair.
    Partial,
    /// Every pair of the row is stored; the dirty ones are queued on
    /// `pending`.
    Full,
    /// A live occlusion horizon, certified at radius
    /// [`horizon_radius`]`(doublings)` around the robot's anchor, answers
    /// "not seen" for every robot at least `radius + HORIZON_FAR_MARGIN`
    /// from the anchor. The pairs of the near field are stored, the dirty
    /// ones queued. Centring on the anchor keeps the row small: the robot
    /// never leaves it by more than the drift radius without dirtying the
    /// horizon.
    Horizon { doublings: u8 },
}

/// How the next refresh brings a row up to date, decided read-only by
/// [`World::refresh_kind`] so that [`World::look_plan`] and the refresh
/// itself agree. Horizons are named by their doublings (see
/// [`RowState::Horizon`]).
#[derive(Debug, Clone, Copy)]
enum Refresh {
    /// Compute every pair of the row that is not stored clean.
    Full,
    /// Recompute the queued dirty pairs; under a live horizon only the
    /// seen ones and those of the near field.
    Pending { horizon: Option<u8> },
    /// A fresh horizon closes: compute its near field, then the queued
    /// dirty pairs that are seen.
    Close { doublings: u8 },
}

impl Refresh {
    /// The horizon the refresh works under, live or fresh.
    fn horizon(self) -> Option<u8> {
        match self {
            Refresh::Full => None,
            Refresh::Pending { horizon } => horizon,
            Refresh::Close { doublings } => Some(doublings),
        }
    }
}

/// Whether a dirty pair queued on a row must be recomputed by its refresh
/// under `horizon`: always without one; under a horizon only when its
/// stored answer is "seen" — a stale entry must never leak into the
/// adjacency — or the `partner` lies in the near field. Every other dirty
/// pair is a far pair the horizon already answers.
fn pending_needs_recompute(
    entry: &PairEntry,
    partner: Point,
    horizon: Option<(Point, f64)>,
) -> bool {
    entry.dirty
        && horizon.map_or(true, |(center, radius)| {
            entry.seen || in_near_field(partner, center, radius)
        })
}

/// Whether `p` lies in the near field of a horizon certified at `radius`
/// around `center`.
fn in_near_field(p: Point, center: Point, radius: f64) -> bool {
    let near = horizon_near_radius(radius);
    p.distance_sq(center) < near * near
}

/// Whether a registration still stands for live state: a pair
/// registration of the entry's current, clean generation, or a horizon
/// registration of its row's current, live horizon.
fn registration_live(entries: &[PairEntry], rows: &[Row], r: &Registration) -> bool {
    if r.horizon {
        let row = &rows[r.slot as usize];
        matches!(row.state, RowState::Horizon { .. }) && row.horizon_gen == r.gen
    } else {
        let e = &entries[r.slot as usize];
        e.gen == r.gen && !e.dirty
    }
}

/// Appends `reg` to a cell's registrations, first sweeping out dead ones
/// when the list has doubled since the last sweep.
fn push_registration(
    cell_regs: &mut CellRegistrations,
    reg: Registration,
    entries: &[PairEntry],
    rows: &[Row],
) {
    if cell_regs.regs.len() >= cell_regs.compact_at.max(REGISTRATION_COMPACT_LEN) {
        cell_regs
            .regs
            .retain(|r| registration_live(entries, rows, r));
        cell_regs.compact_at = cell_regs.regs.len() * 2;
    }
    cell_regs.regs.push(reg);
}

/// The visibility state of the cached world: everything is sized by what
/// has actually been computed, never by n².
#[derive(Debug, Default)]
struct PairStore {
    /// Slot of every pair computed so far, keyed by [`pair_key`]. Absent
    /// means "never computed".
    slots: HashMap<u64, u32, CellHashBuilder>,
    /// The append-only entry slab [`Self::slots`] indexes into. Cell
    /// registrations and pending queues carry slot indices, so draining
    /// and compaction index an array instead of hashing a key.
    entries: Vec<PairEntry>,
    /// Per-robot state, indexed by robot.
    rows: Vec<Row>,
    /// Corridor registrations per grid level (index = level).
    regs: [CellMap<CellRegistrations>; GRID_LEVELS],
}

impl PairStore {
    /// The slot of the pair `{a, b}`, appending a fresh dirty entry to the
    /// slab when the pair was never computed.
    fn slot_or_insert(&mut self, a: usize, b: usize) -> u32 {
        let entries = &mut self.entries;
        *self.slots.entry(pair_key(a, b)).or_insert_with(|| {
            entries.push(PairEntry {
                a: a as u32,
                b: b as u32,
                seen: false,
                gen: 0,
                dirty: true,
                certified: false,
            });
            (entries.len() - 1) as u32
        })
    }

    /// The stored entry of the pair `{a, b}`, if it was ever computed.
    fn get(&self, a: usize, b: usize) -> Option<&PairEntry> {
        let slot = *self.slots.get(&pair_key(a, b))?;
        Some(&self.entries[slot as usize])
    }
}

/// Queues `slot` on a row's pending queue, keeping the queue bounded by the
/// number of distinct partners: past the watermark the queue is sorted and
/// deduplicated (stale entries are cheap to carry — the refresh skips
/// anything no longer dirty — but duplicates must not accumulate without
/// bound on rows that rarely refresh).
fn push_pending(row: &mut Row, slot: u32) {
    row.pending.push(slot);
    if row.pending.len() >= row.pending_compact_at.max(REGISTRATION_COMPACT_LEN) {
        row.pending.sort_unstable();
        row.pending.dedup();
        row.pending_compact_at = row.pending.len() * 2;
    }
}

/// Inserts `v` into a sorted adjacency list (no-op when present).
fn adj_insert(list: &mut Vec<u32>, v: u32) {
    if let Err(pos) = list.binary_search(&v) {
        list.insert(pos, v);
    }
}

/// Removes `v` from a sorted adjacency list (no-op when absent).
fn adj_remove(list: &mut Vec<u32>, v: u32) {
    if let Ok(pos) = list.binary_search(&v) {
        list.remove(pos);
    }
}

/// One pair visibility answer computed **read-only** by
/// [`World::compute_pair_answer`], ready to be committed. Every recompute
/// is such an answer plus its commit; carrying the answer instead of
/// recomputing it at commit time is what lets worker threads run the pair
/// kernels on a shared `&World` while the serial commit
/// ([`World::visible_of_into_with`]) replays every piece of bookkeeping
/// (generation bumps, registrations, view versions, telemetry) in the
/// original event order.
#[derive(Debug, Clone, Copy)]
pub struct PairAnswer {
    /// Lower endpoint of the unordered pair.
    pub a: usize,
    /// Upper endpoint of the unordered pair (`a < b`).
    pub b: usize,
    /// The kernel's visibility verdict for the pair.
    pub seen: bool,
    /// The answer was certified "blocked" by the slack strip cover (see
    /// [`PairEntry::certified`]'s doc on the `World` internals).
    certified: bool,
    /// The answer came from a strip cover (slack or exact) instead of the
    /// witness kernel — replayed into the `cover_answers` telemetry at
    /// commit.
    cover_answered: bool,
}

/// Per-thread scratch buffers for [`World::compute_pair_answer`], owned by
/// the caller so concurrent probes never share storage (the `World` keeps
/// one for its own serial recomputes).
#[derive(Debug, Default)]
pub struct PairProbe {
    cand: Vec<usize>,
    sx: Vec<f64>,
    sy: Vec<f64>,
    keep: Vec<u32>,
    obs: Vec<Point>,
}

/// Precomputed pair answers keyed by unordered pair, injected into
/// [`World::visible_of_into_with`]. An absent pair is not an error — the
/// commit simply recomputes it serially, so injection can only change
/// *where* a kernel runs, never its result.
#[derive(Debug, Default)]
pub struct PairAnswers {
    map: HashMap<u64, PairAnswer, CellHashBuilder>,
}

impl PairAnswers {
    /// Drops every stored answer (keeps the allocation).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Stores one computed answer (last write wins).
    pub fn insert(&mut self, answer: PairAnswer) {
        self.map.insert(pair_key(answer.a, answer.b), answer);
    }

    /// The stored answer for the unordered pair `{a, b}`, if any.
    fn get(&self, a: usize, b: usize) -> Option<&PairAnswer> {
        self.map.get(&pair_key(a, b))
    }
}

/// A computed minimum pairwise gap: the gap value plus the (ascending)
/// pair achieving it, or `None` for fewer than two robots. The achieving
/// pair is what lets a single move maintain the cache in O(n): only a
/// mover that holds the minimum can raise it.
type MinGapEntry = Option<(f64, (usize, usize))>;

/// Which robots moved since the hull cache was last brought up to date.
/// Exactly one mover (possibly moved several times) is the repairable case;
/// two distinct movers degrade to a full rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HullStaleness {
    /// No move since the last hull refresh.
    Clean,
    /// Only this robot moved (any number of times).
    One(usize),
    /// Two or more distinct robots moved.
    Many,
}

impl HullStaleness {
    fn record_move(&mut self, i: usize) {
        *self = match *self {
            HullStaleness::Clean => HullStaleness::One(i),
            HullStaleness::One(j) if j == i => HullStaleness::One(i),
            _ => HullStaleness::Many,
        };
    }
}

/// The simulator's ground-truth configuration plus incrementally maintained
/// derived state. See the module docs for the design.
#[derive(Debug)]
pub struct World {
    mode: WorldMode,
    vis: VisibilityConfig,
    centers: Vec<Point>,
    grid: UniformGrid,
    /// Configuration version: incremented once per applied move.
    version: u64,
    /// Visibility state ([`WorldMode::Sparse`] only; empty otherwise).
    store: PairStore,
    /// Structure-of-arrays mirror of `centers`, kept in sync by
    /// [`Self::move_robot`]: the batched corridor filter reads coordinates
    /// from flat lanes instead of an array-of-structs.
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Lazily recomputed global state, each tagged with the version it was
    /// computed at. The hull is rebuilt **in place** (its buffers and the
    /// construction scratch are reused across version bumps): `hull_version`
    /// is `None` until the first build.
    hull: ConvexHull,
    hull_scratch: HullScratch,
    hull_version: Option<u64>,
    hull_all_on: bool,
    /// Movers since the last hull refresh: drives the single-mover in-place
    /// hull repair.
    hull_staleness: HullStaleness,
    connected_cache: Option<(u64, bool)>,
    valid_cache: Option<(u64, bool)>,
    /// Minimum pairwise gap with its achieving pair, maintained across
    /// single moves while warm (see [`Self::min_pairwise_gap`]).
    min_gap_cache: Option<(u64, MinGapEntry)>,
    /// Per-robot view versions: bumped exactly when the robot's Look
    /// snapshot may differ from the previous one — the robot itself moved,
    /// a pair involving it or its horizon was dirtied (its visible set, or
    /// the position of a robot it sees, may have changed). Monotone;
    /// starts at 1 so the model layer's 0 can mean "never stamped".
    view_versions: Vec<u64>,
    /// Visibility-cache telemetry: pair lookups answered from the cache vs
    /// recomputed.
    hits: u64,
    misses: u64,
    /// Hull-cache telemetry: refreshes served by the single-mover in-place
    /// repair vs full rebuilds.
    hull_repairs: u64,
    hull_rebuilds: u64,
    /// Blocked-certificate telemetry: recomputes whose answer came from a
    /// strip cover (slack or exact) instead of the witness kernel, and
    /// drain visits that skipped dirtying a certified pair.
    cover_answers: u64,
    cert_skips: u64,
    /// Reusable buffers: grid candidates of the validity and connectivity
    /// scans and of the horizon's near field, the horizon's obstacles, and
    /// the scratch of the world's own pair recomputes.
    cand_buf: Vec<usize>,
    obs_buf: Vec<Point>,
    probe: PairProbe,
}

impl World {
    /// Creates the world for the given centers.
    pub fn new(centers: Vec<Point>, vis: VisibilityConfig, mode: WorldMode) -> Self {
        let n = centers.len();
        let grid = UniformGrid::new(GRID_CELL, &centers);
        let mut store = PairStore::default();
        if mode == WorldMode::Sparse {
            store.rows = centers
                .iter()
                .map(|&anchor| Row {
                    adj: Vec::new(),
                    pending: Vec::new(),
                    pending_compact_at: 0,
                    state: RowState::Partial,
                    horizon_gen: 0,
                    anchor,
                })
                .collect();
        }
        let xs = centers.iter().map(|c| c.x).collect();
        let ys = centers.iter().map(|c| c.y).collect();
        World {
            mode,
            vis,
            centers,
            grid,
            version: 0,
            store,
            xs,
            ys,
            hull: ConvexHull::default(),
            hull_scratch: HullScratch::default(),
            hull_version: None,
            hull_all_on: false,
            hull_staleness: HullStaleness::Clean,
            connected_cache: None,
            valid_cache: None,
            min_gap_cache: None,
            view_versions: vec![1; n],
            hits: 0,
            misses: 0,
            hull_repairs: 0,
            hull_rebuilds: 0,
            cover_answers: 0,
            cert_skips: 0,
            cand_buf: Vec::new(),
            obs_buf: Vec::new(),
            probe: PairProbe::default(),
        }
    }

    /// Number of robots.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// `true` when the world holds no robots.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// The query mode.
    pub fn mode(&self) -> WorldMode {
        self.mode
    }

    /// The ground-truth centers.
    pub fn centers(&self) -> &[Point] {
        &self.centers
    }

    /// Center of robot `i`.
    pub fn center(&self, i: usize) -> Point {
        self.centers[i]
    }

    /// Cache telemetry: `(hits, misses)` of the pairwise visibility cache.
    /// Every pair a Look or a [`Self::sees`] probe asks about counts once:
    /// a hit when it was answered without a computation — a clean stored
    /// entry, or a far pair answered by the row's occlusion horizon — and
    /// a miss when it had to be (re)computed. Both are 0 in
    /// [`WorldMode::Scratch`].
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hull-cache telemetry: `(repairs, rebuilds)` — refreshes served by the
    /// single-mover in-place repair vs full rebuilds. Both are 0 in
    /// [`WorldMode::Scratch`] (every query recomputes, nothing is counted).
    pub fn hull_repair_stats(&self) -> (u64, u64) {
        (self.hull_repairs, self.hull_rebuilds)
    }

    /// Pair-store telemetry: `(entries, registrations)` — the pairs
    /// actually computed so far (a row under an occlusion horizon stores
    /// only its near field, so far pairs add nothing), and the corridor
    /// and horizon registrations currently held (live or not yet
    /// compacted). Linear in n plus the computed pairs, which is what the
    /// scale gate's memory assertions watch. Both are 0 in
    /// [`WorldMode::Scratch`].
    pub fn pair_store_stats(&self) -> (u64, u64) {
        let registrations = self
            .store
            .regs
            .iter()
            .flat_map(CellMap::values)
            .map(|c| c.regs.len() as u64)
            .sum();
        (self.store.entries.len() as u64, registrations)
    }

    /// Blocked-certificate telemetry: `(cover_answers, cert_skips)` —
    /// recomputes answered by a strip cover instead of the witness kernel,
    /// and drain visits that kept a certified pair clean through an
    /// endpoint move. Both are 0 in [`WorldMode::Scratch`].
    pub fn cert_stats(&self) -> (u64, u64) {
        (self.cover_answers, self.cert_skips)
    }

    /// The view version of robot `i`. The contract the engine's decision
    /// memoization rests on: read the version right after taking robot
    /// `i`'s Look snapshot ([`Self::visible_of_into`], which recomputes
    /// every dirty pair of row `i`); if two such reads return the same
    /// value, the two snapshots are **guaranteed** bit-identical. (The
    /// converse is conservative — a bump does not prove the view changed.)
    /// Bumps come from four places: the mover itself on every effective
    /// move, both endpoints of a *seen* pair when it is dirtied, both
    /// endpoints of a pair whose answer flips at a recompute, and the
    /// owner of an occlusion horizon when it is dirtied. In
    /// [`WorldMode::Scratch`] every effective move bumps every robot, which
    /// keeps the guarantee trivially.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn view_version(&self, i: usize) -> u64 {
        self.view_versions[i]
    }

    /// Moves robot `i` to `p`: bumps the configuration version, dirties
    /// every pair registered on the cells the robot leaves and enters, and
    /// rehashes the robot in the grid. Moving a robot to its current
    /// position is a no-op (nothing can have changed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn move_robot(&mut self, i: usize, p: Point) {
        let old = self.centers[i];
        if old == p {
            return;
        }
        self.version += 1;
        self.hull_staleness.record_move(i);
        match self.mode {
            WorldMode::Sparse => {
                // The mover's own view always changes (its center is part of
                // it). Every *other* affected view is bumped either by the
                // drain (clean seen pairs being dirtied — the robots that
                // can watch this move happen) or by the flip check when a
                // dirty pair is recomputed. No O(n) scan anywhere: moving a
                // robot nobody sees bumps only the mover.
                self.view_versions[i] += 1;
                // Registrations live at every grid level (each pair picks
                // the level matching its chord length), so the move drains
                // its from/to cell at each level. Coarser
                // cells hold more incidental registrations; the drain's
                // exact chord-distance test filters them, so coarseness
                // costs drain time, never correctness.
                for level in 0..GRID_LEVELS {
                    let from = self.grid.cell_of_at(old, level);
                    let to = self.grid.cell_of_at(p, level);
                    self.drain_cell(level, from, i, old, p);
                    if to != from {
                        self.drain_cell(level, to, i, old, p);
                    }
                }
                // Anchor maintenance, after the drains: a move beyond the
                // drift radius has just failed every skip check (dirtying
                // the mover's certified pairs), so re-anchoring here cannot
                // strand a certificate issued against the old anchor.
                let anchor = &mut self.store.rows[i].anchor;
                if p.distance_sq(*anchor) > CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS {
                    *anchor = p;
                }
            }
            WorldMode::Scratch => {
                // Scratch mode keeps no dirty-pair machinery; conservatively
                // treat every view as changed by any effective move.
                for v in &mut self.view_versions {
                    *v += 1;
                }
            }
        }
        self.grid.move_point(i, p);
        self.centers[i] = p;
        self.xs[i] = p.x;
        self.ys[i] = p.y;
        if self.mode != WorldMode::Scratch {
            self.update_min_gap_after_move(i);
        }
    }

    /// Maintains the min-gap cache across the move of robot `i` when it was
    /// warm (computed at the version just before this move); otherwise it
    /// simply stays stale and the next query rescans.
    ///
    /// Only pairs involving the mover changed, so: if the cached minimum is
    /// achieved by a pair *not* involving the mover, that pair is unchanged
    /// and still realises the minimum over all non-mover pairs — the new
    /// global minimum is its fold with the mover's O(n) row (exactly the
    /// value the full O(n²) rescan would produce, since `min` over the same
    /// multiset is order-independent). If the mover held the minimum, its
    /// gap may have *grown*, and nothing short of a rescan is sound — the
    /// cache is dropped instead.
    fn update_min_gap_after_move(&mut self, i: usize) {
        let Some((v, entry)) = self.min_gap_cache else {
            return;
        };
        if v + 1 != self.version {
            return; // already stale before this move
        }
        match entry {
            None => {
                // Fewer than two robots: nothing to maintain.
                self.min_gap_cache = Some((self.version, None));
            }
            Some((_, (a, b))) if a == i || b == i => {
                self.min_gap_cache = None; // the mover held the minimum
            }
            Some((gap, pair)) => {
                let (mut best, mut best_pair) = (gap, pair);
                for j in 0..self.len() {
                    if j == i {
                        continue;
                    }
                    let g = self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS;
                    if g < best {
                        best = g;
                        best_pair = (i.min(j), i.max(j));
                    }
                }
                self.min_gap_cache = Some((self.version, Some((best, best_pair))));
            }
        }
    }

    /// Processes one cell's corridor registrations at one grid level for a
    /// move of robot `mover` from `old` to `new`: pairs whose answer can
    /// actually depend on that move — the mover is an endpoint, or its old
    /// or new position lies within the pruning radius of the pair's chord —
    /// are marked dirty, queued on both endpoints' pending rows (so the
    /// next row refresh recomputes exactly the dirtied pairs instead of
    /// probing all n) and dropped; unaffected live registrations are kept
    /// (the cell cover is conservative, so most drains touch corridors the
    /// mover never entered). Dead registrations (older generation, or pairs
    /// already dirty) are dropped — a dirty pair re-registers when it is
    /// next recomputed.
    fn drain_cell(&mut self, level: usize, cell: CellCoord, mover: usize, old: Point, new: Point) {
        use std::collections::hash_map::Entry;
        let PairStore {
            entries,
            rows,
            regs,
            ..
        } = &mut self.store;
        let Entry::Occupied(mut occupied) = regs[level].entry(cell) else {
            return;
        };
        let cell_regs = occupied.get_mut();
        let centers = &self.centers;
        let view_versions = &mut self.view_versions;
        let cert_skips = &mut self.cert_skips;
        let prune_sq = VISIBILITY_PRUNE_RADIUS * VISIBILITY_PRUNE_RADIUS;
        let drift_sq = CERT_DRIFT_RADIUS * CERT_DRIFT_RADIUS;
        // Hoisted skip predicate: this move keeps the mover within the
        // drift radius of its anchor. While that holds, every certified
        // registration — the mover's own pairs *and* third-party corridors
        // crossing this cell — provably keeps its "blocked" answer (see
        // [`CERT_DRIFT_RADIUS`]), so the fast path below retains it with
        // one branch and no pair-store read. A move beyond the radius
        // makes this `false` for the whole drain, which dirties every
        // certified pair the mover could affect *before* `move_robot`
        // resets the anchor.
        let mover_within_drift = new.distance_sq(rows[mover].anchor) <= drift_sq;
        cell_regs.regs.retain(|r| {
            if r.certified && mover_within_drift {
                *cert_skips += 1;
                return true;
            }
            if r.horizon {
                let owner = r.slot as usize;
                let row = &mut rows[owner];
                let RowState::Horizon { doublings } = row.state else {
                    return false; // dead: the horizon was dirtied
                };
                if row.horizon_gen != r.gen {
                    return false; // dead: superseded by a newer horizon
                }
                let (center, radius) = (row.anchor, horizon_radius(doublings));
                // The owner moved, or the mover entered or left the near
                // field (a cover obstacle leaving, a far robot arriving).
                let affected = owner == mover
                    || in_near_field(old, center, radius)
                    || in_near_field(new, center, radius);
                if affected {
                    row.state = RowState::Partial;
                    view_versions[owner] += 1;
                }
                return !affected;
            }
            let entry = &mut entries[r.slot as usize];
            if entry.gen != r.gen || entry.dirty {
                return false; // dead registration
            }
            let (a, b) = (entry.a as usize, entry.b as usize);
            // Squared-distance form of `distance_to(..) <= PRUNE_RADIUS`:
            // exactly equivalent (the radius squares exactly), one sqrt
            // cheaper per drained registration.
            let affected = a == mover || b == mover || {
                let chord = Segment::new(centers[a], centers[b]);
                chord.distance_sq_to(old) <= prune_sq || chord.distance_sq_to(new) <= prune_sq
            };
            if affected {
                entry.dirty = true;
                // View-version maintenance. A robot's Look snapshot changes
                // only when a robot it *sees* moved or its visible set
                // flips. Dirtying a **seen** pair therefore bumps both
                // endpoints right here: a clean pair is registered on both
                // endpoints' current cells, so a seen pair whose endpoint
                // moves is always drained at that move, and while the pair
                // stays dirty no further endpoint move can slip through
                // unbumped. **Unseen** pairs stay silent — their endpoints'
                // views can only change if the answer flips, which the
                // recompute detects (and bumps), always before any robot
                // stamps a view version off that state. This is what keeps
                // one move's invalidation at O(deg): moving a robot nobody
                // sees bumps nobody else.
                if entry.seen {
                    view_versions[a] += 1;
                    view_versions[b] += 1;
                }
                push_pending(&mut rows[a], r.slot);
                push_pending(&mut rows[b], r.slot);
            }
            !affected
        });
        if cell_regs.regs.is_empty() {
            occupied.remove();
        } else {
            // The drain doubles as a sweep: reset the compaction watermark.
            cell_regs.compact_at = cell_regs.regs.len() * 2;
        }
    }

    /// Whether robots `i` and `j` see each other, answered from the cache
    /// when the entry is clean and recomputed (through the grid-pruned pair
    /// kernel) otherwise.
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    pub fn sees(&mut self, i: usize, j: usize) -> bool {
        assert!(i != j, "a robot trivially sees itself");
        if self.mode == WorldMode::Scratch {
            return fatrobots_geometry::visibility::disc_sees_disc(i, j, &self.centers, &self.vis);
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let slot = self.store.slot_or_insert(a, b);
        let entry = self.store.entries[slot as usize];
        if !entry.dirty {
            self.hits += 1;
            return entry.seen;
        }
        self.misses += 1;
        self.recompute_slot(slot, None)
    }

    /// The grid level a registration spanning `span` (a pair's chord, a
    /// horizon's near-field diameter) is placed at: the finest level whose
    /// cells are large enough that the cover holds O(1) of them
    /// ([`REG_SPAN_CELLS`]). Long chords land on the coarsest level, whose
    /// cover is a handful of cells even across the whole configuration.
    fn reg_level(&self, span: f64) -> usize {
        for level in 0..GRID_LEVELS {
            if span <= self.grid.cell_size_at(level) * REG_SPAN_CELLS {
                return level;
            }
        }
        GRID_LEVELS - 1
    }

    /// Computes one pair's visibility answer **without mutating anything**:
    /// candidate obstacles from the occupancy-pruned corridor walk, trimmed
    /// by the batched SoA corridor filter, then the strip covers and the
    /// witness kernel, on caller-owned scratch. Safe to call from worker
    /// threads on a shared `&World` — the commit that later injects the
    /// result replays all bookkeeping serially and lands in exactly the
    /// state a serial recompute would have produced (no robot moves
    /// between the probe and its commit, so the inputs are frozen).
    ///
    /// The filter accepts a superset of the centers within
    /// [`VISIBILITY_PRUNE_RADIUS`] of the chord, which is all
    /// `disc_sees_disc_among` needs for the exhaustive answer (and makes
    /// the slice order irrelevant: the kernel returns a boolean, not a
    /// witness).
    ///
    /// # Panics
    /// Panics if `a >= b`, either index is out of bounds, or the world is
    /// in [`WorldMode::Scratch`] (which has no pair store to commit into).
    pub fn compute_pair_answer(&self, a: usize, b: usize, probe: &mut PairProbe) -> PairAnswer {
        assert!(a < b && b < self.len(), "invalid pair");
        assert!(
            self.mode != WorldMode::Scratch,
            "scratch mode has no pair store"
        );
        let (ca, cb) = (self.centers[a], self.centers[b]);
        // Candidate obstacles: sites of the occupied base cells of the
        // corridor cover (the pruned walk surfaces exactly the sites the
        // flat walk would).
        probe.cand.clear();
        {
            let grid = &self.grid;
            let cand = &mut probe.cand;
            grid.for_each_occupied_cell_near_segment(ca, cb, VISIBILITY_PRUNE_RADIUS, |cell| {
                if let Some(sites) = grid.sites_in(cell) {
                    cand.extend(sites.iter().copied().filter(|&k| k != a && k != b));
                }
                true
            });
        }
        probe.sx.clear();
        probe.sy.clear();
        for &k in &probe.cand {
            probe.sx.push(self.xs[k]);
            probe.sy.push(self.ys[k]);
        }
        probe.keep.clear();
        corridor_filter_soa(
            ca,
            cb,
            VISIBILITY_PRUNE_RADIUS,
            &probe.sx,
            &probe.sy,
            &mut probe.keep,
        );
        probe.obs.clear();
        let (sx, sy) = (&probe.sx, &probe.sy);
        probe.obs.extend(
            probe
                .keep
                .iter()
                .map(|&l| Point::new(sx[l as usize], sy[l as usize])),
        );
        let obs = &probe.obs;
        // Two-tier blocked fast path before the O(k²) witness kernel. The
        // slack cover additionally certifies the answer against drift (see
        // [`PairEntry::certified`]); the exact cover only answers this
        // recompute. Both are one-sided — `false` falls through to the
        // kernel — so the answer is always the kernel's.
        let (seen, certified, cover_answered) = if strip_cover_blocked_with_slack(ca, cb, obs) {
            (false, true, true)
        } else if strip_cover_blocked(ca, cb, obs) {
            (false, false, true)
        } else {
            (disc_sees_disc_among(ca, cb, obs, &self.vis), false, false)
        };
        PairAnswer {
            a,
            b,
            seen,
            certified,
            cover_answered,
        }
    }

    /// Recomputes the pair in `slot` and re-registers its corridor: the
    /// answer is taken from `answer` when one was precomputed
    /// ([`Self::compute_pair_answer`] on another thread) and computed here
    /// otherwise. Every side effect — generation bump, dirty clear, cover
    /// telemetry, view versions, adjacency, registration — runs here
    /// either way, so an injected answer leaves the world in exactly the
    /// state a serial recompute would.
    fn recompute_slot(&mut self, slot: u32, answer: Option<&PairAnswer>) -> bool {
        let PairEntry { a, b, .. } = self.store.entries[slot as usize];
        let (a, b) = (a as usize, b as usize);
        let ans = match answer {
            Some(ans) => {
                debug_assert!(ans.a == a && ans.b == b, "answer injected for wrong pair");
                *ans
            }
            None => {
                let mut probe = std::mem::take(&mut self.probe);
                let ans = self.compute_pair_answer(a, b, &mut probe);
                self.probe = probe;
                ans
            }
        };
        if ans.cover_answered {
            self.cover_answers += 1;
        }
        let entry = &mut self.store.entries[slot as usize];
        entry.gen = entry.gen.wrapping_add(1);
        entry.dirty = false;
        entry.certified = ans.certified;
        let gen = entry.gen;
        if entry.seen != ans.seen {
            // Flip: both Look snapshots change. (Dirtying an unseen pair
            // deliberately does not bump — this recompute is where a
            // false→true transition is caught, and it always runs before a
            // view version is stamped off the new state. A fresh entry
            // starts unseen, so a first computation that lands on `true`
            // bumps too.)
            entry.seen = ans.seen;
            self.view_versions[a] += 1;
            self.view_versions[b] += 1;
            let rows = &mut self.store.rows;
            if ans.seen {
                adj_insert(&mut rows[a].adj, b as u32);
                adj_insert(&mut rows[b].adj, a as u32);
            } else {
                adj_remove(&mut rows[a].adj, b as u32);
                adj_remove(&mut rows[b].adj, a as u32);
            }
        }
        // Register on the chosen level's conservative cover, carrying the
        // just-computed certified flag so drains can honor it without a
        // pair-store read.
        let (ca, cb) = (self.centers[a], self.centers[b]);
        let reg = Registration {
            slot,
            gen,
            horizon: false,
            certified: ans.certified,
        };
        let level = self.reg_level(ca.distance(cb));
        self.register(reg, level, ca, cb, VISIBILITY_PRUNE_RADIUS);
        ans.seen
    }

    /// Places `reg` on every level-`level` cell of the conservative cover
    /// of the capsule of `radius` around segment `a`–`b`. The walk must not
    /// skip empty cells: a future mover can enter one.
    fn register(&mut self, reg: Registration, level: usize, a: Point, b: Point, radius: f64) {
        let PairStore {
            entries,
            rows,
            regs,
            ..
        } = &mut self.store;
        let level_regs = &mut regs[level];
        self.grid
            .for_each_cell_near_segment_at(level, a, b, radius, |cell| {
                push_registration(level_regs.entry(cell).or_default(), reg, entries, rows);
                true
            });
    }

    /// How the next refresh of row `i` proceeds — read-only, so that
    /// [`Self::look_plan`] and the refresh decide identically (nothing
    /// between the two can move a robot or touch the row). A live horizon
    /// keeps answering; otherwise a fresh one is tried at radius 6, 12,
    /// 24, … for as long as the cost rule holds: the near field it would
    /// compute, bounded by [`horizon_near_bound`], must be smaller than
    /// the rest of the work it would spare — the whole row for a partial
    /// row, the queued recomputes for a full one. Small worlds and warm
    /// rows never pay for an attempt. `cand`/`obs` are scratch.
    fn refresh_kind(&self, i: usize, cand: &mut Vec<usize>, obs: &mut Vec<Point>) -> Refresh {
        let row = &self.store.rows[i];
        let spare = match row.state {
            RowState::Horizon { doublings } => {
                return Refresh::Pending {
                    horizon: Some(doublings),
                };
            }
            RowState::Full => row.pending.len(),
            RowState::Partial => self.len() - 1,
        } as f64;
        let mut doublings = 0;
        while 2.0 * horizon_near_bound(horizon_radius(doublings)) < spare {
            let radius = horizon_radius(doublings);
            self.grid
                .candidates_near_point(row.anchor, radius + UNIT_RADIUS, cand);
            obs.clear();
            obs.extend(cand.iter().filter(|&&k| k != i).map(|&k| self.centers[k]));
            if occlusion_horizon(row.anchor, obs, radius) {
                return Refresh::Close { doublings };
            }
            doublings += 1;
        }
        match row.state {
            RowState::Full => Refresh::Pending { horizon: None },
            _ => Refresh::Full,
        }
    }

    /// The near-field disc `(center, radius)` of a horizon of row `i`
    /// after `doublings` doublings.
    fn horizon_disc(&self, i: usize, doublings: u8) -> (Point, f64) {
        (self.store.rows[i].anchor, horizon_radius(doublings))
    }

    /// Fills `out` with the near field of a horizon certified at `radius`
    /// around `center` for row `i`: every other robot strictly within
    /// [`horizon_near_radius`], ascending.
    fn horizon_near_set(&self, i: usize, center: Point, radius: f64, out: &mut Vec<usize>) {
        self.grid
            .candidates_near_point(center, horizon_near_radius(radius), out);
        out.retain(|&j| j != i && in_near_field(self.centers[j], center, radius));
    }

    /// Brings every pair of row `i` up to date, so that its adjacency list
    /// *is* the visible set. The kind of refresh is [`Self::refresh_kind`]'s:
    ///
    /// * **full** — every pair not stored clean is computed (a row's first
    ///   refresh when no horizon closes: the unavoidable O(n));
    /// * **close** — a fresh occlusion horizon closed, so only its near
    ///   field is computed (O(near)); far pairs get no entry, no kernel
    ///   call and no registration, and the horizon registers instead;
    /// * **pending** — only the pairs queued dirty by the cell drains
    ///   recompute (the output-sensitive steady state), under a live
    ///   horizon only the seen ones and the near field's.
    ///
    /// Whatever the kind, every pair of the row counts once in the hit/miss
    /// telemetry: the pairs computed here are misses, all others (clean
    /// entries and horizon answers alike) hits.
    ///
    /// Each recompute is answered from the injected [`PairAnswers`] when
    /// present (serially recomputed otherwise). The drain order, the
    /// hit/miss telemetry and every state transition are identical either
    /// way.
    fn refresh_row_with(&mut self, i: usize, answers: Option<&PairAnswers>) {
        let n = self.len();
        let mut cand = std::mem::take(&mut self.cand_buf);
        let mut obs = std::mem::take(&mut self.obs_buf);
        let kind = self.refresh_kind(i, &mut cand, &mut obs);
        self.obs_buf = obs;
        let mut recomputed = 0;
        let mut recompute = |world: &mut World, slot: u32| {
            let PairEntry { a, b, dirty, .. } = world.store.entries[slot as usize];
            if dirty {
                recomputed += 1;
                let ans = answers.and_then(|s| s.get(a as usize, b as usize));
                world.recompute_slot(slot, ans);
            }
        };
        let horizon = kind.horizon().map(|d| self.horizon_disc(i, d));
        match (kind, horizon) {
            (Refresh::Full, _) => {
                for j in (0..n).filter(|&j| j != i) {
                    let slot = self.store.slot_or_insert(i.min(j), i.max(j));
                    recompute(self, slot);
                }
            }
            (Refresh::Close { .. }, Some((center, radius))) => {
                self.horizon_near_set(i, center, radius, &mut cand);
                for &j in &cand {
                    let slot = self.store.slot_or_insert(i.min(j), i.max(j));
                    recompute(self, slot);
                }
            }
            _ => {}
        }
        self.cand_buf = cand;
        let mut slots = std::mem::take(&mut self.store.rows[i].pending);
        if !matches!(kind, Refresh::Full) {
            slots.sort_unstable();
            slots.dedup();
            for &slot in &slots {
                // Stale queue entries (already recomputed through the
                // partner's row or a direct `sees` probe) are skipped by
                // the dirty check; under a horizon, so are unseen far pairs.
                let entry = self.store.entries[slot as usize];
                if pending_needs_recompute(&entry, self.centers[entry.partner(i)], horizon) {
                    recompute(self, slot);
                }
            }
        }
        // Every pair not recomputed was answered from a clean entry or by
        // the horizon.
        self.misses += recomputed;
        self.hits += (n - 1) as u64 - recomputed;
        slots.clear();
        let row = &mut self.store.rows[i];
        row.pending = slots;
        row.pending_compact_at = 0;
        match (kind, horizon) {
            (Refresh::Full, _) => row.state = RowState::Full,
            (Refresh::Close { doublings }, Some((center, radius))) => {
                row.state = RowState::Horizon { doublings };
                row.horizon_gen = row.horizon_gen.wrapping_add(1);
                let reg = Registration {
                    slot: i as u32,
                    gen: row.horizon_gen,
                    horizon: true,
                    certified: true,
                };
                let near = horizon_near_radius(radius);
                let level = self.reg_level(2.0 * near);
                self.register(reg, level, center, center, near);
            }
            _ => {}
        }
    }

    /// The pairs the next [`Self::visible_of_into`] for robot `i` would
    /// recompute, **right now** (read-only; appended to `out` as `(a, b)`
    /// endpoint pairs with `a < b`, deduplicated) — exactly those, horizon
    /// or not, so that batched Looks commit like serial ones. This is the
    /// commutation interface of the parallel executor: two Looks whose
    /// plans share no pair recompute disjoint pair sets, so their kernel
    /// work can run concurrently and commit in either order with identical
    /// results — and since a robot's plan only ever contains its own pairs,
    /// two plans can only share the one pair joining the two robots.
    ///
    /// Valid until the next mutating call (a move dirties pairs and queues
    /// pending work; a refresh consumes it).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn look_plan(&self, i: usize, out: &mut Vec<(usize, usize)>) {
        assert!(i < self.len(), "robot index out of bounds");
        if self.mode == WorldMode::Scratch {
            return;
        }
        let missing_or_dirty = |j: usize| {
            let (a, b) = (i.min(j), i.max(j));
            match self.store.get(a, b) {
                Some(e) if !e.dirty => None,
                _ => Some((a, b)),
            }
        };
        let mut cand = Vec::new();
        let kind = self.refresh_kind(i, &mut cand, &mut Vec::new());
        let horizon = kind.horizon().map(|d| self.horizon_disc(i, d));
        let closed = match (kind, horizon) {
            (Refresh::Full, _) => {
                out.extend(
                    (0..self.len())
                        .filter(|&j| j != i)
                        .filter_map(missing_or_dirty),
                );
                return;
            }
            (Refresh::Close { .. }, Some((center, radius))) => {
                self.horizon_near_set(i, center, radius, &mut cand);
                out.extend(cand.iter().filter_map(|&j| missing_or_dirty(j)));
                true
            }
            _ => false,
        };
        // Mirror the refresh's drain: sorted, deduplicated, dirty-only —
        // minus the near field a closing refresh has just computed.
        let mut slots = self.store.rows[i].pending.clone();
        slots.sort_unstable();
        slots.dedup();
        for &slot in &slots {
            let e = &self.store.entries[slot as usize];
            let partner = self.centers[e.partner(i)];
            let computed = closed && horizon.is_some_and(|(c, r)| in_near_field(partner, c, r));
            if !computed && pending_needs_recompute(e, partner, horizon) {
                out.push((e.a as usize, e.b as usize));
            }
        }
    }

    /// Indices of the robots visible to robot `i`, ascending — the cached
    /// equivalent of `visible_set`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn visible_of(&mut self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.visible_of_into(i, &mut out);
        out
    }

    /// Fills `out` with the (ascending) indices of the robots visible to
    /// robot `i` — [`Self::visible_of`] writing into caller-owned storage,
    /// so the engine's per-Look cost is free of allocation.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn visible_of_into(&mut self, i: usize, out: &mut Vec<usize>) {
        self.visible_of_into_with(i, out, None);
    }

    /// [`Self::visible_of_into`] with precomputed pair answers: every
    /// recompute the refresh hits is answered from `answers` when present
    /// (committing all bookkeeping here, serially) and recomputed in place
    /// otherwise. With `None` — or an empty set — this **is** the serial
    /// path: injection only moves kernel evaluations onto other threads,
    /// never changes what is computed, in which order it is committed, or
    /// what the telemetry counts.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn visible_of_into_with(
        &mut self,
        i: usize,
        out: &mut Vec<usize>,
        answers: Option<&PairAnswers>,
    ) {
        assert!(i < self.len(), "robot index out of bounds");
        out.clear();
        if self.mode == WorldMode::Scratch {
            out.extend(visible_set(i, &self.centers, &self.vis));
            return;
        }
        // The refresh recomputes exactly the dirty pairs of row `i`; the
        // sorted adjacency list then *is* the ascending visible set.
        self.refresh_row_with(i, answers);
        out.extend(self.store.rows[i].adj.iter().map(|&j| j as usize));
    }

    /// Brings the hull cache up to date when stale and returns the
    /// all-on-hull flag. When exactly one robot moved since the last
    /// refresh (tracked by [`HullStaleness`], the common case on the
    /// event-serial schedule) the hull is **repaired in place** —
    /// [`ConvexHull::repair_point_move`] patches the sorted chain input and,
    /// when the corner polygon is unchanged, the boundary tags, skipping
    /// the O(n log n) rebuild. The repair is exact by construction, so the
    /// result is identical to a rebuild; multi-mover staleness or a repair
    /// refusal falls back to `rebuild_with`.
    fn refresh_hull(&mut self) -> bool {
        let stale = match (self.mode, self.hull_version) {
            (WorldMode::Scratch, _) => true,
            (_, Some(v)) => v != self.version,
            (_, None) => true,
        };
        if stale {
            let repaired = self.mode != WorldMode::Scratch
                && self.hull_version.is_some()
                && match self.hull_staleness {
                    HullStaleness::One(i) => {
                        self.hull
                            .repair_point_move(i, self.centers[i], &mut self.hull_scratch)
                    }
                    _ => false,
                };
            if repaired {
                self.hull_repairs += 1;
            } else {
                self.hull
                    .rebuild_with(&self.centers, &mut self.hull_scratch);
                if self.mode != WorldMode::Scratch {
                    self.hull_rebuilds += 1;
                }
            }
            self.hull_all_on = self.len() <= 2 || self.hull.all_on_hull();
            self.hull_version = Some(self.version);
        }
        self.hull_staleness = HullStaleness::Clean;
        self.hull_all_on
    }

    /// Convex hull of the centers (cached).
    pub fn hull(&mut self) -> &ConvexHull {
        self.refresh_hull();
        &self.hull
    }

    /// `true` when every center lies on the hull boundary (cached).
    pub fn all_on_hull(&mut self) -> bool {
        self.refresh_hull()
    }

    /// `true` when no two discs overlap beyond the touch tolerance.
    /// Grid-local in the cached world (overlap is a contact-radius
    /// relation), identical in outcome to the global minimum-gap test.
    pub fn is_valid(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return GeometricConfig::is_valid_on(&self.centers);
        }
        if let Some((v, ok)) = self.valid_cache {
            if v == self.version {
                return ok;
            }
        }
        let mut cand = std::mem::take(&mut self.cand_buf);
        let mut ok = true;
        'outer: for i in 0..self.len() {
            self.grid
                .candidates_near_point(self.centers[i], 2.0 * UNIT_RADIUS, &mut cand);
            for &j in cand.iter().filter(|&&j| j > i) {
                // The same float expression as the reference (`gap >=
                // -TOUCH_TOL` in `GeometricConfig::is_valid_on`): the
                // algebraically equal `d < 2R - TOUCH_TOL` rounds
                // differently at the boundary.
                let gap = self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS;
                if gap < -TOUCH_TOL {
                    ok = false;
                    break 'outer;
                }
            }
        }
        self.cand_buf = cand;
        self.valid_cache = Some((self.version, ok));
        ok
    }

    /// `true` when the union of the discs is connected (cached; the
    /// tangency graph is built from grid neighbourhoods instead of all
    /// pairs).
    pub fn is_connected(&mut self) -> bool {
        if self.mode == WorldMode::Scratch {
            return GeometricConfig::is_connected_on(&self.centers);
        }
        if let Some((v, ok)) = self.connected_cache {
            if v == self.version {
                return ok;
            }
        }
        let n = self.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let mut cand = std::mem::take(&mut self.cand_buf);
        for i in 0..n {
            self.grid.candidates_near_point(
                self.centers[i],
                2.0 * UNIT_RADIUS + TOUCH_TOL,
                &mut cand,
            );
            for &j in cand.iter().filter(|&&j| j > i) {
                let gap = self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS;
                if gap_touches(gap) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        self.cand_buf = cand;
        let root = if n == 0 { 0 } else { find(&mut parent, 0) };
        let ok = n <= 1 || (0..n).all(|i| find(&mut parent, i) == root);
        self.connected_cache = Some((self.version, ok));
        ok
    }

    /// Minimum boundary-to-boundary gap over all pairs (`None` for fewer
    /// than two robots). The cache tracks the achieving pair so that a
    /// single move maintains it in O(n) (`update_min_gap_after_move`):
    /// only pairs involving the mover can lower the running minimum, and
    /// only a mover that *held* it can raise it (that case drops back to
    /// this full rescan). The cached value is always exactly what
    /// `min_pairwise_gap(centers)` returns — `min` over the same pair
    /// multiset is order-independent.
    pub fn min_pairwise_gap(&mut self) -> Option<f64> {
        if self.mode == WorldMode::Scratch {
            return min_pairwise_gap(&self.centers);
        }
        if let Some((v, entry)) = self.min_gap_cache {
            if v == self.version {
                return entry.map(|(gap, _)| gap);
            }
        }
        let n = self.len();
        let mut entry = None;
        for i in 0..n {
            for j in (i + 1)..n {
                let gap = self.centers[i].distance(self.centers[j]) - 2.0 * UNIT_RADIUS;
                if entry.map_or(true, |(best, _)| gap < best) {
                    entry = Some((gap, (i, j)));
                }
            }
        }
        self.min_gap_cache = Some((self.version, entry));
        debug_assert_eq!(
            entry.map(|(gap, _)| gap),
            min_pairwise_gap(&self.centers),
            "the argmin-tracking rescan must reproduce the reference fold"
        );
        entry.map(|(gap, _)| gap)
    }

    /// The gathering predicate (Definition 1): connected and fully visible.
    /// Exactly [`GeometricConfig::is_gathered_on`], with the sampled
    /// full-visibility fallback answered from the pair cache when the
    /// world's visibility parameters are the default ones that predicate
    /// uses.
    pub fn is_gathered(&mut self, collinearity_tol: f64) -> bool {
        if self.mode == WorldMode::Scratch {
            return GeometricConfig::is_gathered_on(&self.centers, collinearity_tol);
        }
        if !self.is_connected() {
            return false;
        }
        if self.all_on_hull() && no_three_collinear(&self.centers, collinearity_tol) {
            return true;
        }
        if self.vis == VisibilityConfig::default() {
            let n = self.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    if !self.sees(i, j) {
                        return false;
                    }
                }
            }
            true
        } else {
            GeometricConfig::is_fully_visible_sampled_on(
                &self.centers,
                &VisibilityConfig::default(),
            )
        }
    }

    /// The configuration-level predicates behind one metrics sample, from
    /// the cached hull and connectivity.
    pub fn sample_predicates(&mut self, collinearity_tol: f64) -> SamplePredicates {
        if self.mode == WorldMode::Scratch {
            return SamplePredicates::from_centers(&self.centers, collinearity_tol);
        }
        let connected = self.is_connected();
        let all_on = self.refresh_hull();
        SamplePredicates::from_hull(&self.hull, all_on, connected, collinearity_tol)
    }

    /// Fills `out` with the (ascending) indices of every robot that could
    /// stop robot `i` within `allowed` travel from `start` along the unit
    /// direction `dir`: a superset of the discs within contact range of the
    /// swept capsule. In scratch mode this is simply every other robot.
    pub fn contact_candidates(
        &mut self,
        i: usize,
        start: Point,
        dir: Vec2,
        allowed: f64,
        out: &mut Vec<usize>,
    ) {
        if self.mode == WorldMode::Scratch {
            out.clear();
            out.extend((0..self.len()).filter(|&j| j != i));
            return;
        }
        let end = start + dir * (allowed + CONTACT_QUERY_MARGIN);
        self.grid.candidates_near_segment(
            start,
            end,
            2.0 * UNIT_RADIUS + CONTACT_QUERY_MARGIN,
            out,
        );
        out.retain(|&j| j != i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatrobots_geometry::visibility::strip_cover_blocked;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn world(centers: Vec<Point>) -> World {
        World::new(centers, VisibilityConfig::default(), WorldMode::Sparse)
    }

    /// Every derived answer of a cached world must equal the from-scratch
    /// answer on the same centers.
    fn assert_matches_scratch(w: &mut World) {
        let centers = w.centers().to_vec();
        let vis = VisibilityConfig::default();
        for i in 0..centers.len() {
            assert_eq!(
                w.visible_of(i),
                visible_set(i, &centers, &vis),
                "visible set of robot {i} diverged"
            );
        }
        assert_eq!(w.is_valid(), GeometricConfig::is_valid_on(&centers));
        assert_eq!(w.is_connected(), GeometricConfig::is_connected_on(&centers));
        assert_eq!(w.all_on_hull(), GeometricConfig::all_on_hull_on(&centers));
        assert_eq!(
            w.is_gathered(1e-9),
            GeometricConfig::is_gathered_on(&centers, 1e-9)
        );
        assert_eq!(w.min_pairwise_gap(), min_pairwise_gap(&centers));
    }

    #[test]
    fn fresh_world_matches_scratch_everywhere() {
        let mut w = world(vec![
            p(0.0, 0.0),
            p(3.0, 0.5),
            p(6.0, -0.5),
            p(2.0, 4.0),
            p(5.0, 3.0),
        ]);
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn moves_invalidate_exactly_what_they_must() {
        let mut w = world(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)]);
        assert_matches_scratch(&mut w);
        // Slide the middle robot off the 0–2 corridor: 0 and 2 regain sight.
        w.move_robot(1, p(10.0, 5.0));
        assert_matches_scratch(&mut w);
        assert!(w.sees(0, 2));
        // And back on: they lose it again.
        w.move_robot(1, p(10.0, 0.0));
        assert_matches_scratch(&mut w);
        assert!(!w.sees(0, 2));
        w.move_robot(3, p(9.0, 11.0));
        w.move_robot(0, p(1.0, 0.5));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn scripted_moves_match_scratch_after_every_move() {
        let mut w = world(vec![
            p(0.0, 0.0),
            p(10.0, 0.0),
            p(20.0, 0.0),
            p(10.0, 12.0),
            p(5.0, 30.0),
        ]);
        for (m, to) in [
            (1, p(10.0, 5.0)),
            (4, p(5.0, 1.0)),
            (3, p(10.0, 0.5)),
            (1, p(10.0, 0.0)),
            (0, p(0.0, 1.0)),
            (4, p(5.0, 30.0)),
        ] {
            w.move_robot(m, to);
            assert_matches_scratch(&mut w);
        }
    }

    #[test]
    fn unrelated_pairs_hit_the_cache_after_a_move() {
        let mut w = world(vec![
            p(0.0, 0.0),
            p(6.0, 0.0),
            p(100.0, 100.0),
            p(106.0, 100.0),
        ]);
        // Warm every pair.
        for i in 0..4 {
            let _ = w.visible_of(i);
        }
        let (_, misses_before) = w.cache_stats();
        // A far-away move cannot touch the 0–1 corridor.
        w.move_robot(2, p(101.0, 100.0));
        assert!(w.sees(0, 1));
        let (hits, misses) = w.cache_stats();
        assert_eq!(
            misses, misses_before,
            "the 0-1 pair must be answered from the cache"
        );
        assert!(hits > 0);
        // But pairs involving the mover are recomputed.
        assert!(w.sees(2, 3));
        let (_, misses_after) = w.cache_stats();
        assert_eq!(misses_after, misses_before + 1);
    }

    #[test]
    fn every_pair_of_a_look_counts_once_in_the_telemetry() {
        let mut w = world(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)]);
        let mut total = 0;
        for (m, to) in [(1, p(10.0, 5.0)), (3, p(10.0, 0.5)), (1, p(10.0, 0.0))] {
            for i in 0..w.len() {
                let _ = w.visible_of(i);
                total += w.len() as u64 - 1;
                let (hits, misses) = w.cache_stats();
                assert_eq!(hits + misses, total, "Look of robot {i}");
            }
            w.move_robot(m, to);
        }
        assert!(w.cache_stats().1 > 0, "the moves must force recomputes");
    }

    #[test]
    fn scratch_mode_reports_no_cache_traffic() {
        let mut w = World::new(
            vec![p(0.0, 0.0), p(5.0, 0.0)],
            VisibilityConfig::default(),
            WorldMode::Scratch,
        );
        assert!(w.sees(0, 1));
        let _ = w.visible_of(0);
        let _ = w.hull();
        assert_eq!(w.cache_stats(), (0, 0));
        assert_eq!(w.hull_repair_stats(), (0, 0));
        assert_eq!(w.pair_store_stats(), (0, 0));
    }

    #[test]
    fn view_versions_bump_only_for_affected_robots() {
        // A line of robots: each sees only its neighbours (the middle
        // discs occlude the far ones).
        let mut w = world(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(30.0, 0.0)]);
        // Clean every pair (the state right after everybody Looked).
        for i in 0..4 {
            assert_eq!(w.visible_of(i).len(), if i == 0 || i == 3 { 1 } else { 2 });
        }
        let before: Vec<u64> = (0..4).map(|i| w.view_version(i)).collect();
        // Robot 3 slides along the line, staying hidden from 0 and 1: only
        // the mover and its one watcher (robot 2) may be bumped, so 0's and
        // 1's cached decisions stay replayable.
        w.move_robot(3, p(31.0, 0.0));
        for i in 0..4 {
            let _ = w.visible_of(i); // re-Look: flips (none here) would bump
        }
        assert_eq!(w.view_version(0), before[0], "robot 0 cannot see the move");
        assert_eq!(w.view_version(1), before[1], "robot 1 cannot see the move");
        assert!(w.view_version(2) > before[2], "robot 2 watches the mover");
        assert!(
            w.view_version(3) > before[3],
            "the mover's own view changed"
        );
        // With every row clean and stable, further queries bump nothing.
        let snapshot: Vec<u64> = (0..4).map(|i| w.view_version(i)).collect();
        for i in 0..4 {
            let _ = w.visible_of(i);
        }
        let _ = w.hull();
        let _ = w.is_gathered(1e-9);
        assert_eq!(
            snapshot,
            (0..4).map(|i| w.view_version(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn visibility_flips_bump_versions_at_the_recompute() {
        // Robot 1 occludes the 0–2 sight line; moving it away flips the
        // (0, 2) pair. The flip is detected when the dirty pair is next
        // recomputed — robot 0's version must differ between the two
        // post-Look states even though robot 0 never moved and never saw
        // the mover... (it does see robot 1 here, so the seen-pair rule
        // already bumps it; the flip rule is what carries configurations
        // where the occluder is itself invisible — pinned by the proptests
        // against arbitrary scripts.)
        let mut w = world(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)]);
        let vis0 = w.visible_of(0);
        assert_eq!(vis0, vec![1]);
        let v0 = w.view_version(0);
        w.move_robot(1, p(10.0, 8.0));
        let vis0_after = w.visible_of(0);
        assert_eq!(vis0_after, vec![1, 2], "0 regains sight of 2");
        assert!(
            w.view_version(0) > v0,
            "a flipped pair must invalidate the affected views"
        );
    }

    #[test]
    fn unchanged_view_version_guarantees_identical_visible_set() {
        let mut w = world(vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0), p(10.0, 12.0)]);
        let mut seen: Vec<(u64, Vec<usize>)> = (0..4)
            .map(|i| {
                let vis = w.visible_of(i);
                (w.view_version(i), vis)
            })
            .collect();
        for (step, &(m, to)) in [
            (1, p(10.0, 5.0)),
            (3, p(10.0, 0.5)),
            (1, p(10.0, 0.0)),
            (0, p(0.0, 1.0)),
        ]
        .iter()
        .enumerate()
        {
            w.move_robot(m, to);
            for (i, slot) in seen.iter_mut().enumerate() {
                let vis = w.visible_of(i);
                let v = w.view_version(i);
                if v == slot.0 {
                    assert_eq!(
                        vis, slot.1,
                        "step {step}: version of robot {i} held but its visible set changed"
                    );
                }
                *slot = (v, vis);
            }
        }
    }

    #[test]
    fn hull_refresh_repairs_single_movers_and_rebuilds_otherwise() {
        let mut w = world(vec![
            p(0.0, 0.0),
            p(20.0, 0.0),
            p(20.0, 20.0),
            p(0.0, 20.0),
            p(10.0, 10.0),
        ]);
        let _ = w.hull(); // cold: full build
        assert_eq!(w.hull_repair_stats(), (0, 1));
        // One mover (even over several moves) is repaired in place.
        w.move_robot(4, p(11.0, 11.0));
        w.move_robot(4, p(12.0, 9.0));
        assert!(!w.all_on_hull());
        assert_eq!(w.hull_repair_stats(), (1, 1));
        // The repaired structure answers like a from-scratch world.
        assert_matches_scratch(&mut w);
        // Two distinct movers force a rebuild.
        w.move_robot(0, p(-1.0, 0.0));
        w.move_robot(4, p(10.0, 10.0));
        let _ = w.hull();
        let (repairs, rebuilds) = w.hull_repair_stats();
        assert_eq!(repairs, 1);
        assert!(rebuilds >= 2);
        // An interior mover crossing onto the hull boundary repairs too.
        w.move_robot(4, p(25.0, 10.0));
        assert!(w.hull().index_on_hull(4));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn move_to_same_position_is_a_noop() {
        let mut w = world(vec![p(0.0, 0.0), p(5.0, 0.0)]);
        let _ = w.visible_of(0);
        let (_, misses) = w.cache_stats();
        w.move_robot(0, p(0.0, 0.0));
        let _ = w.visible_of(0);
        let (hits, misses_after) = w.cache_stats();
        assert_eq!(misses_after, misses, "a no-op move must not invalidate");
        assert!(hits >= 1);
    }

    #[test]
    fn single_robot_world_is_trivially_fine() {
        let mut w = world(vec![p(1.0, 1.0)]);
        assert!(w.visible_of(0).is_empty());
        assert!(w.visible_of(0).is_empty());
        assert!(w.is_valid());
        assert!(w.is_connected());
        assert_eq!(w.min_pairwise_gap(), None);
    }

    #[test]
    fn overlap_is_detected_incrementally() {
        let mut w = world(vec![p(0.0, 0.0), p(5.0, 0.0)]);
        assert!(w.is_valid());
        w.move_robot(1, p(1.0, 0.0));
        assert!(!w.is_valid());
        assert!(w.min_pairwise_gap().unwrap() < 0.0);
    }

    #[test]
    fn long_jumps_across_many_cells_invalidate_both_endpoints() {
        // Robot 2 jumps from far away straight onto the 0–1 corridor: the
        // pair (0, 1) was computed with an empty corridor, and the only
        // cells that see the move are the jump's endpoints.
        let mut w = world(vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 50.0)]);
        assert!(w.sees(0, 1));
        w.move_robot(2, p(5.0, 0.0));
        assert!(!w.sees(0, 1), "the newcomer must block the sight line");
        assert_matches_scratch(&mut w);
        // And jumping away again restores it.
        w.move_robot(2, p(5.0, 50.0));
        assert!(w.sees(0, 1));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn pair_store_only_materializes_queried_rows() {
        let n = 40;
        let centers: Vec<Point> = (0..n)
            .map(|i| p((i % 8) as f64 * 5.0, (i / 8) as f64 * 5.0))
            .collect();
        let mut w = world(centers);
        let _ = w.visible_of(0);
        let (entries, _) = w.pair_store_stats();
        assert_eq!(
            entries,
            (n - 1) as u64,
            "one row refresh must materialize exactly its own pairs"
        );
    }

    #[test]
    fn long_chords_register_coarsely_and_still_invalidate() {
        // The 0–1 chord is far longer than REG_SPAN_CELLS base cells, so
        // its corridor registers at a coarse level; a robot jumping into
        // the corridor must still dirty it through the coarse-cell drain.
        let mut w = world(vec![p(0.0, 0.0), p(200.0, 0.0), p(100.0, 50.0)]);
        assert!(w.sees(0, 1));
        w.move_robot(2, p(100.0, 0.0));
        assert!(!w.sees(0, 1), "the newcomer must block the long sight line");
        assert_matches_scratch(&mut w);
        w.move_robot(2, p(100.0, 50.0));
        assert!(w.sees(0, 1));
        assert_matches_scratch(&mut w);
    }

    #[test]
    fn registrations_and_pending_queues_stay_bounded() {
        // Oscillate one robot through a corridor many times; the far cells
        // of the corridor accumulate registrations that the compaction
        // bound must keep finite.
        let mut w = world(vec![p(0.0, 0.0), p(40.0, 0.0), p(20.0, 3.0)]);
        for k in 0..500 {
            let y = if k % 2 == 0 { 0.0 } else { 3.0 };
            w.move_robot(2, p(20.0, y));
            let _ = w.visible_of(0);
        }
        let worst = w
            .store
            .regs
            .iter()
            .flat_map(CellMap::values)
            .map(|c| c.regs.len())
            .max()
            .unwrap_or(0);
        assert!(
            worst <= 2 * REGISTRATION_COMPACT_LEN,
            "registration lists must stay bounded (worst {worst})"
        );
        let worst_pending = w.store.rows.iter().map(|r| r.pending.len()).max().unwrap();
        assert!(
            worst_pending <= 2 * REGISTRATION_COMPACT_LEN.max(w.len()),
            "pending queues must stay bounded (worst {worst_pending})"
        );
        assert_matches_scratch(&mut w);
    }

    /// A jittered hex packing of `side²` robots at spacing 2.1: every robot
    /// sees only its ring, and interior robots close a horizon.
    fn hex_field(side: usize) -> Vec<Point> {
        let spacing = 2.1;
        let row_h = spacing * 3f64.sqrt() / 2.0;
        let mut state = 0x5ca1ab1e_u64;
        let mut jitter = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.02
        };
        (0..side * side)
            .map(|i| {
                let (row, col) = (i / side, i % side);
                let stagger = if row % 2 == 1 { spacing / 2.0 } else { 0.0 };
                p(
                    col as f64 * spacing + stagger + jitter(),
                    row as f64 * row_h + jitter(),
                )
            })
            .collect()
    }

    /// Robot `i`'s visible set by the from-scratch definition, kept
    /// affordable at n ≈ 1000 through the kernel's own contracts: each
    /// pair gets the obstacles within the pruning radius of its chord
    /// (which makes it exactly `disc_sees_disc`), and the sound exact
    /// strip cover answers blocked pairs before the witness search.
    fn scratch_visible(centers: &[Point], i: usize) -> Vec<usize> {
        let vis = VisibilityConfig::default();
        (0..centers.len())
            .filter(|&j| {
                if j == i {
                    return false;
                }
                let (a, b) = (i.min(j), i.max(j));
                let chord = Segment::new(centers[a], centers[b]);
                let obs: Vec<Point> = centers
                    .iter()
                    .enumerate()
                    .filter(|&(k, &c)| {
                        k != a && k != b && chord.distance_to(c) <= VISIBILITY_PRUNE_RADIUS
                    })
                    .map(|(_, &c)| c)
                    .collect();
                !strip_cover_blocked(centers[a], centers[b], &obs)
                    && disc_sees_disc_among(centers[a], centers[b], &obs, &vis)
            })
            .collect()
    }

    /// A Look of robot `i` checked against everything the horizon must
    /// keep: the visible set equals scratch, the plan lists exactly the
    /// pairs the refresh recomputes, and every pair counts once.
    fn checked_look(w: &mut World, i: usize) -> Vec<usize> {
        let mut plan = Vec::new();
        w.look_plan(i, &mut plan);
        let (hits, misses) = w.cache_stats();
        let visible = w.visible_of(i);
        let (hits_after, misses_after) = w.cache_stats();
        assert_eq!(
            misses_after - misses,
            plan.len() as u64,
            "robot {i}: the plan must list exactly the recomputed pairs"
        );
        for &(a, b) in &plan {
            assert!(!w.store.get(a, b).expect("planned pair stored").dirty);
        }
        assert_eq!(
            hits_after - hits + misses_after - misses,
            w.len() as u64 - 1,
            "robot {i}: every pair of a Look counts once"
        );
        assert_eq!(visible, scratch_visible(w.centers(), i), "robot {i}");
        visible
    }

    /// The generation of robot `i`'s live horizon, if it has one.
    fn live_horizon(w: &World, i: usize) -> Option<u32> {
        let row = &w.store.rows[i];
        matches!(row.state, RowState::Horizon { .. }).then_some(row.horizon_gen)
    }

    #[test]
    fn horizon_rows_match_scratch_through_scripted_moves() {
        let side = 32;
        let mut w = world(hex_field(side));
        let at = |row: usize, col: usize| row * side + col;
        let i = at(16, 16);
        let home = |w: &World, k: usize| w.center(k);

        // A cold Look closes a horizon: only the near field is stored.
        let ring = checked_look(&mut w, i);
        let first = live_horizon(&w, i).expect("an interior robot closes a horizon");
        assert!(w.pair_store_stats().0 < 200, "far pairs must get no entry");

        // In-drift oscillation of a neighbour and of the robot itself
        // keeps the horizon live.
        let (k, ck, ci) = (ring[0], home(&w, ring[0]), home(&w, i));
        for (m, to) in [
            (k, p(ck.x + 0.02, ck.y)),
            (i, p(ci.x, ci.y - 0.02)),
            (k, ck),
            (i, ci),
        ] {
            w.move_robot(m, to);
            checked_look(&mut w, i);
            assert_eq!(live_horizon(&w, i), Some(first), "in-drift moves keep it");
        }

        // A near robot leaving the horizon disc dirties it.
        let near = at(18, 17);
        let hole = home(&w, near);
        w.move_robot(near, p(-40.0, -40.0));
        assert_eq!(live_horizon(&w, i), None, "a near robot left");
        checked_look(&mut w, i);
        let second = live_horizon(&w, i).expect("the ring still closes");

        // A far robot entering the disc dirties it too.
        w.move_robot(at(0, 0), hole);
        assert_eq!(live_horizon(&w, i), None, "a far robot arrived");
        checked_look(&mut w, i);
        assert!(live_horizon(&w, i).is_some_and(|g| g != second));

        // Open robot i's row to the right (a channel to its far end f):
        // f's full row stores the pair (i, f) as seen.
        let f = at(16, side - 1);
        let channel: Vec<(usize, Point)> = (17..side - 1)
            .map(|col| (at(16, col), home(&w, at(16, col))))
            .collect();
        for (n, &(m, _)) in channel.iter().enumerate() {
            w.move_robot(m, p(-60.0 - 3.0 * n as f64, -60.0));
        }
        assert!(
            checked_look(&mut w, f).contains(&i),
            "f sees i down the channel"
        );
        // Closing the channel dirties (i, f); robot i's next Look closes a
        // horizon, under which that stale seen entry must not leak.
        let (m, back) = channel[0];
        w.move_robot(m, back);
        assert!(
            w.store.rows[i].adj.contains(&(f as u32)),
            "stale seen entry"
        );
        assert!(!checked_look(&mut w, i).contains(&f));
        assert!(live_horizon(&w, i).is_some(), "the refilled channel closes");
        assert!(!w.store.rows[i].adj.contains(&(f as u32)));
        checked_look(&mut w, f);

        // Reopening it makes the horizon refuse: the full row sees f.
        w.move_robot(m, p(-100.0, -60.0));
        assert!(checked_look(&mut w, i).contains(&f));
        assert_eq!(w.store.rows[i].state, RowState::Full);
    }

    #[test]
    fn contact_candidates_cover_the_swept_path() {
        let centers = vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 30.0)];
        let mut w = world(centers.clone());
        let mut out = Vec::new();
        w.contact_candidates(0, p(0.0, 0.0), Vec2::new(1.0, 0.0), 9.0, &mut out);
        assert!(out.contains(&1), "the disc ahead must be a candidate");
        assert!(!out.contains(&0), "the mover itself is excluded");
        let mut scratch = World::new(centers, VisibilityConfig::default(), WorldMode::Scratch);
        scratch.contact_candidates(0, p(0.0, 0.0), Vec2::new(1.0, 0.0), 9.0, &mut out);
        assert_eq!(out, vec![1, 2], "scratch mode scans everyone");
    }
}
