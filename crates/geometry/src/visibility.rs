//! Visibility between unit discs among unit-disc obstacles.
//!
//! Section 2 of the paper defines visibility as follows: a point `p` is
//! visible to robot `r_i` when there is a point `p_i` on the bounding circle
//! of `r_i` such that the open segment `(p_i, p)` contains no point of any
//! *other* robot; `r_i` sees robot `r_j` when at least one point of `r_j`'s
//! bounding circle is visible to `r_i`.
//!
//! Deciding this exactly requires an arrangement of tangent lines. We use a
//! two-tier approach:
//!
//! 1. **Exact test in convex position** — when all centers in question lie on
//!    their common convex hull and no three are collinear, every robot sees
//!    every other robot (this is the equivalence the paper's Lemma 4 relies
//!    on). [`fully_visible_in_convex_position`] decides this case exactly.
//! 2. **Conservative sampling test for arbitrary configurations** —
//!    [`disc_sees_disc`] tries the center segment, the two outer tangent
//!    segments and a configurable grid of boundary-point pairs; a segment
//!    counts as a sight line when it does not pass through the **interior** of
//!    any other disc. This test never reports visibility that does not exist
//!    (each witness segment is a genuine sight line); it can miss sight lines
//!    that only exist through very thin gaps, which makes the simulated robots
//!    strictly *more* conservative than the paper's idealised robots — they
//!    act on less information, never on wrong information.

use std::cmp::Ordering;

use crate::circle::{Circle, UNIT_RADIUS};
use crate::hull::ConvexHull;
use crate::kernel::{EpsKernel, Kernel};
use crate::line::Line;
use crate::point::Point;
use crate::predicates::Orientation;
use crate::segment::Segment;

/// Pruning radius for the pair-level visibility test: a disc whose center is
/// farther than this from the segment joining two centers can neither enter
/// the corridor-obstacle set of [`disc_sees_disc_among`] (which requires a
/// perpendicular offset below `3·UNIT_RADIUS`) nor block any candidate
/// witness segment (candidates lie in the radius-`UNIT_RADIUS` capsule
/// around the chord, so a blocker sits within `2·UNIT_RADIUS` plus the
/// clearance of the chord). Passing any superset of the centers within this
/// distance of the chord to [`disc_sees_disc_among`] therefore yields
/// exactly the same answer as passing every center.
pub const VISIBILITY_PRUNE_RADIUS: f64 = 3.0 * UNIT_RADIUS;

/// The corridor-obstacle predicate of the pair-level test: `true` when the
/// center `ck` projects strictly between the chord endpoints and lies
/// within [`VISIBILITY_PRUNE_RADIUS`] of the chord's supporting line.
/// `ci` is the first endpoint, `dir`/`perp` the chord's unit direction and
/// CCW normal, `span` its length. This single definition is what
/// [`disc_sees_disc`]'s early-out, [`disc_sees_disc_among`]'s filter, and
/// (through the constant) the simulator's cache invalidation all agree on.
#[inline]
fn in_corridor(
    ci: Point,
    dir: crate::point::Vec2,
    perp: crate::point::Vec2,
    span: f64,
    ck: Point,
) -> bool {
    let w = ck - ci;
    let along = w.dot(dir);
    along > 0.0 && along < span && w.dot(perp).abs() < VISIBILITY_PRUNE_RADIUS
}

/// Tuning parameters for the sampling-based visibility test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibilityConfig {
    /// Number of boundary sample points per disc (per side of the sight
    /// corridor). Higher values find thinner sight lines at higher cost.
    pub samples: usize,
    /// Obstacle tolerance: a segment is blocked when it comes within
    /// `radius + shrink` of an obstacle center. Robots are closed discs, so
    /// grazing an obstacle boundary blocks the sight line (this is why three
    /// collinear hull robots break full visibility).
    pub shrink: f64,
}

impl Default for VisibilityConfig {
    fn default() -> Self {
        VisibilityConfig {
            samples: 12,
            shrink: 1e-9,
        }
    }
}

/// `true` when the segment avoids the interior of every obstacle disc.
pub fn segment_clear(seg: &Segment, obstacles: &[Circle], cfg: &VisibilityConfig) -> bool {
    segment_clear_k::<EpsKernel>(seg, obstacles, cfg)
}

/// [`segment_clear`] with the per-disc blocking tests decided by kernel `K`.
pub fn segment_clear_k<K: Kernel>(
    seg: &Segment,
    obstacles: &[Circle],
    cfg: &VisibilityConfig,
) -> bool {
    obstacles
        .iter()
        .all(|c| !c.blocks_segment_k::<K>(seg, cfg.shrink))
}

/// `true` when the unit disc centred at `centers[i]` can see the unit disc
/// centred at `centers[j]`, treating every other disc in `centers` as an
/// opaque obstacle.
///
/// The test searches for a *witness sight segment* from the boundary of disc
/// `i` to the boundary of disc `j` that stays strictly clear of every other
/// (closed) disc, in two stages:
///
/// 1. **Parallel family** — segments at a common perpendicular offset
///    `o ∈ [−1, 1]` from the center-to-center chord. The candidate offsets
///    are the corridor edges plus the edges of every obstacle's blocked
///    interval.
/// 2. **Slanted family** — when no parallel witness exists, segments whose
///    perpendicular offsets at the two endpoints differ (`o₁ ≠ o₂`), with
///    both endpoints drawn from the same critical-offset set. This covers
///    the thin diagonal sight lines that appear when touching robots sit
///    near the line of sight at different depths.
///
/// Every candidate is verified with an exact segment-versus-disc distance
/// test, so a `true` answer always corresponds to a genuine sight line.
/// A `false` answer can in principle miss exotic witnesses that are tangent
/// to two obstacles while aligned with neither endpoint's critical offsets,
/// but such configurations do not arise from the gathering dynamics (and the
/// test errs on the conservative side: the robot acts as if it saw less, not
/// more).
///
/// # Panics
/// Panics if `i == j` or either index is out of bounds.
pub fn disc_sees_disc(i: usize, j: usize, centers: &[Point], cfg: &VisibilityConfig) -> bool {
    disc_sees_disc_k::<EpsKernel>(i, j, centers, cfg)
}

/// [`disc_sees_disc`] with the witness verification decided by kernel `K`.
///
/// Kernel routing covers the *blocking classifications* (candidate segment
/// vs obstacle distance). The candidate **constructions** — corridor frame,
/// critical offsets, boundary endpoints, tangent lines — are shared f64 by
/// all kernels: the search is existential over a sampled candidate set, so
/// constructions determine only *which* witnesses are tried, while the
/// kernel decides whether a tried witness is genuinely clear.
///
/// # Panics
/// Panics if `i == j` or either index is out of bounds.
pub fn disc_sees_disc_k<K: Kernel>(
    i: usize,
    j: usize,
    centers: &[Point],
    cfg: &VisibilityConfig,
) -> bool {
    assert!(i != j, "a robot trivially sees itself");
    // Evaluate in normalized (lower index first) orientation: the kernel's
    // strict float comparisons are not exactly symmetric under endpoint
    // swap, and every caller — including the simulator's cached pair
    // matrix, which stores one entry per unordered pair — must see the
    // same answer for (i, j) and (j, i).
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    let ci = centers[lo];
    let cj = centers[hi];
    // Cheap no-allocation early-out through the shared `in_corridor`
    // predicate: with no center in the corridor the kernel returns `true`
    // without looking at the obstacle slice.
    let axis = cj - ci;
    let span = axis.norm();
    if span <= f64::EPSILON {
        return true;
    }
    let dir = axis / span;
    let perp = dir.perp_ccw();
    let corridor_empty = !centers
        .iter()
        .enumerate()
        .any(|(k, &ck)| k != lo && k != hi && in_corridor(ci, dir, perp, span, ck));
    if corridor_empty {
        return true;
    }
    let others: Vec<Point> = centers
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != lo && k != hi)
        .map(|(_, &c)| c)
        .collect();
    disc_sees_disc_among_k::<K>(ci, cj, &others, cfg)
}

/// Pair-level form of [`disc_sees_disc`]: decides whether the unit disc at
/// `ci` sees the unit disc at `cj` when exactly the discs in `obstacles`
/// (which must not include `ci` or `cj`) are present.
///
/// `obstacles` may safely contain discs that are irrelevant to the pair —
/// the corridor filter below discards them — so callers with a spatial
/// index can pass any superset of the centers within
/// [`VISIBILITY_PRUNE_RADIUS`] of the segment `ci`–`cj` and obtain exactly
/// the same answer as the exhaustive test over all centers.
pub fn disc_sees_disc_among(
    ci: Point,
    cj: Point,
    obstacles: &[Point],
    cfg: &VisibilityConfig,
) -> bool {
    disc_sees_disc_among_k::<EpsKernel>(ci, cj, obstacles, cfg)
}

/// [`disc_sees_disc_among`] with the blocking classifications decided by
/// kernel `K` (see [`disc_sees_disc_k`] for what routing does and does not
/// cover).
pub fn disc_sees_disc_among_k<K: Kernel>(
    ci: Point,
    cj: Point,
    obstacles: &[Point],
    cfg: &VisibilityConfig,
) -> bool {
    // The kernel runs hundreds of thousands of times per simulated second;
    // its working buffers live in a per-thread scratch so the steady state
    // performs no heap allocation (sweep workers each get their own).
    AMONG_SCRATCH.with(|scratch| {
        disc_sees_disc_among_with::<K>(ci, cj, obstacles, cfg, &mut scratch.borrow_mut())
    })
}

/// Reusable working buffers of [`disc_sees_disc_among`].
#[derive(Default)]
struct AmongScratch {
    /// Corridor obstacles; doubles as the stage-3 `relevant` list.
    corridor: Vec<Point>,
    /// Critical perpendicular offsets.
    offsets: Vec<f64>,
    /// Threat-ordered obstacle copy (large slices only).
    threat: Vec<Point>,
    /// Per-offset boundary endpoints + blocked flags, disc `i` / disc `j`.
    ends_i: Vec<(Point, bool)>,
    ends_j: Vec<(Point, bool)>,
}

thread_local! {
    static AMONG_SCRATCH: std::cell::RefCell<AmongScratch> =
        std::cell::RefCell::new(AmongScratch::default());
}

fn disc_sees_disc_among_with<K: Kernel>(
    ci: Point,
    cj: Point,
    obstacles: &[Point],
    cfg: &VisibilityConfig,
    scratch: &mut AmongScratch,
) -> bool {
    let axis = cj - ci;
    let span = axis.norm();
    if span <= f64::EPSILON {
        return true;
    }
    let dir = axis / span;
    let perp = dir.perp_ccw();

    // Obstacles that can possibly obstruct: those whose centers project
    // strictly between the two endpoints and whose perpendicular offset is
    // within one diameter of the corridor (the shared `in_corridor`
    // predicate).
    let AmongScratch {
        corridor,
        offsets,
        threat,
        ends_i,
        ends_j,
    } = scratch;
    corridor.clear();
    corridor.extend(
        obstacles
            .iter()
            .filter(|&&ck| in_corridor(ci, dir, perp, span, ck)),
    );
    if corridor.is_empty() {
        return true;
    }

    // Critical perpendicular offsets: the corridor edges and both edges of
    // every obstacle's shadow.
    let clearance = cfg.shrink.max(1e-9);
    offsets.clear();
    offsets.push(-UNIT_RADIUS);
    offsets.push(UNIT_RADIUS);
    for &c in corridor.iter() {
        let o = (c - ci).dot(perp);
        offsets.push(o - UNIT_RADIUS - clearance);
        offsets.push(o + UNIT_RADIUS + clearance);
    }
    offsets.retain(|o| (-UNIT_RADIUS..=UNIT_RADIUS).contains(o));

    // Endpoint on the boundary of the disc at `center`, at perpendicular
    // offset `o`, on the side facing the other disc (`sign` = +1 towards j,
    // −1 towards i).
    let endpoint = |center: Point, o: f64, sign: f64| {
        let along = (UNIT_RADIUS * UNIT_RADIUS - o * o).max(0.0).sqrt();
        center + perp * o + dir * (along * sign)
    };

    // The search below is purely **existential** — the answer is `true` iff
    // *some* candidate segment verifies as clear — so three transformations
    // speed up the (expensive, every-candidate-fails) blocked case without
    // changing any answer:
    //
    // * obstacles are verified in **threat order** (ascending perpendicular
    //   distance from the chord axis), so a blocked candidate meets its
    //   blocker after one or two tests instead of scanning the whole slice
    //   (`all` over a set is order-independent);
    // * the per-offset boundary endpoints are computed **once** instead of
    //   once per candidate pair (same formula, same values);
    // * candidates whose endpoint already sits within blocking range of
    //   some obstacle are **pruned**: the closest segment point to that
    //   obstacle is at most the endpoint distance away, so verification
    //   provably fails. Pruning only ever skips failing candidates.
    //
    // Small slices skip the sorting/precompute bookkeeping (it costs more
    // than it saves there) and run the same candidate loops directly.
    let block_dist = UNIT_RADIUS + clearance / 2.0;
    let block_sq = block_dist * block_dist;
    let threat: &[Point] = if obstacles.len() >= SORTED_THREAT_MIN {
        threat.clear();
        threat.extend_from_slice(obstacles);
        threat.sort_unstable_by(|a, b| {
            let oa = (*a - ci).dot(perp).abs();
            let ob = (*b - ci).dot(perp).abs();
            oa.partial_cmp(&ob).unwrap_or(std::cmp::Ordering::Equal)
        });
        threat
    } else {
        obstacles
    };
    // A candidate is a genuine witness when every obstacle keeps squared
    // distance > block_sq from it — the kernel's squared segment-distance
    // classification (bit-identical to the historic inline closest-point
    // computation under the ε kernel).
    let clear = |p1: Point, p2: Point| {
        threat
            .iter()
            .all(|&ck| K::cmp_segment_dist_sq(p1, p2, ck, block_sq) == Ordering::Greater)
    };

    if obstacles.len() < SORTED_THREAT_MIN {
        // Stages 1 and 2, direct form.
        for &o in offsets.iter() {
            if clear(endpoint(ci, o, 1.0), endpoint(cj, o, -1.0)) {
                return true;
            }
        }
        for &o1 in offsets.iter() {
            for &o2 in offsets.iter() {
                if crate::predicates::approx_eq_tol(o1, o2, f64::EPSILON) {
                    continue;
                }
                if clear(endpoint(ci, o1, 1.0), endpoint(cj, o2, -1.0)) {
                    return true;
                }
            }
        }
    } else {
        // Degenerate-segment form of the same kernel classification: the
        // prune must agree with `clear`, or exact evaluation could skip a
        // candidate the exact `clear` would have accepted.
        let point_blocked = |p: Point| {
            threat
                .iter()
                .any(|&ck| K::cmp_segment_dist_sq(p, p, ck, block_sq) != Ordering::Greater)
        };
        ends_i.clear();
        ends_i.extend(offsets.iter().map(|&o| {
            let p = endpoint(ci, o, 1.0);
            (p, point_blocked(p))
        }));
        ends_j.clear();
        ends_j.extend(offsets.iter().map(|&o| {
            let p = endpoint(cj, o, -1.0);
            (p, point_blocked(p))
        }));

        // Stage 1: parallel witnesses.
        for (&(p1, b1), &(p2, b2)) in ends_i.iter().zip(ends_j.iter()) {
            if !b1 && !b2 && clear(p1, p2) {
                return true;
            }
        }
        // Stage 2: slanted witnesses with both endpoint offsets critical.
        for (i1, &o1) in offsets.iter().enumerate() {
            let (p1, b1) = ends_i[i1];
            if b1 {
                continue;
            }
            for (i2, &o2) in offsets.iter().enumerate() {
                if crate::predicates::approx_eq_tol(o1, o2, f64::EPSILON) {
                    continue;
                }
                let (p2, b2) = ends_j[i2];
                if !b2 && clear(p1, p2) {
                    return true;
                }
            }
        }
    }
    // Stage 3: witnesses tangent to two of the circles involved. If any free
    // sight segment exists it can be translated/rotated until it touches two
    // of the discs (possibly the endpoints' own discs), so enumerating the
    // common tangent lines of every pair — pushed out by the clearance so
    // the witness is strictly free — is a complete search up to that
    // clearance.
    let relevant = corridor;
    relevant.push(ci);
    relevant.push(cj);
    let mut lines = [Line::through(Point::ORIGIN, Point::new(1.0, 0.0)); 8];
    for a in 0..relevant.len() {
        for b in (a + 1)..relevant.len() {
            let count = tangent_candidate_lines(
                relevant[a],
                relevant[b],
                UNIT_RADIUS + clearance,
                (ci, cj),
                &mut lines,
            );
            for line in &lines[..count] {
                if let Some(seg) = chord_between_discs::<K>(line, ci, cj) {
                    if clear(seg.a, seg.b) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Obstacle-slice size from which the pair kernel's blocked-case
/// bookkeeping (threat-sorted verification order, endpoint precompute,
/// blocked-endpoint pruning) pays for itself. Below it, the direct loops
/// are faster — small slices mean few candidates and cheap scans, and the
/// bookkeeping's allocations would dominate. Either path enumerates and
/// verifies the identical candidate set.
const SORTED_THREAT_MIN: usize = 6;

/// How far (beyond [`UNIT_RADIUS`]) a tangent candidate line may run from an
/// endpoint disc and still be emitted by [`tangent_candidate_lines`]. The
/// pre-reject estimate and `chord_between_discs`'s exact test evaluate the
/// same point–line distance through differently rounded expressions; both
/// are a handful of IEEE operations on simulation-scale coordinates, so
/// they agree to ~1e-12. This margin is six orders above that: a line
/// discarded here provably fails the `> UNIT_RADIUS` rejection of
/// `chord_between_discs` too, so the prefilter never removes a candidate
/// the search would have kept.
const TANGENT_REACH_MARGIN: f64 = 1e-6;

/// The candidate sight lines tangent (at distance `r`) to the two unit discs
/// centred at `a` and `b`: up to four lines, each described by a unit normal
/// `ν` and offset `c` with `ν·x + c = 0`. Writes into the caller's fixed
/// buffer (at most eight candidates exist) and returns how many were
/// produced, so the stage-3 search performs no heap allocation.
///
/// `endpoints = (ci, cj)` are the sight pair's discs: lines that provably
/// miss either disc (farther than `UNIT_RADIUS` + [`TANGENT_REACH_MARGIN`])
/// are rejected **before** the line is constructed — in dense blocked
/// configurations ~97% of tangent lines die on `chord_between_discs`'s
/// first check, and this prefilter answers the same question with six
/// flops instead of a full construction. Borderline lines are still
/// emitted and decided by the exact test, so the surviving candidate set
/// is unchanged.
fn tangent_candidate_lines(
    a: Point,
    b: Point,
    r: f64,
    endpoints: (Point, Point),
    out: &mut [Line; 8],
) -> usize {
    let mut count = 0;
    let w = a - b;
    let d = w.norm();
    if d <= f64::EPSILON {
        return count;
    }
    let u = w / d;
    let v = u.perp_ccw();
    // The endpoint discs in the (u, v) frame anchored at `a`: the distance
    // from a tangent line (ν·x + c = 0, ν = along·u ± perp_mag·v,
    // c = s1·r − ν·a) to a point p is |ν·(p − a) + s1·r|.
    let (ci, cj) = endpoints;
    let w1 = ci - a;
    let w2 = cj - a;
    let (w1u, w1v) = (w1.dot(u), w1.dot(v));
    let (w2u, w2v) = (w2.dot(u), w2.dot(v));
    let reach = UNIT_RADIUS + TANGENT_REACH_MARGIN;
    for (s1, s2) in [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)] {
        // Find unit normals ν with ν·a + c = s1·r and ν·b + c = s2·r, i.e.
        // ν·w = (s1 − s2)·r.
        let q = (s1 - s2) * r;
        if q.abs() > d {
            continue; // the discs are too close for this tangent family
        }
        let along = q / d; // component of ν along w
        let perp_mag = (1.0 - along * along).max(0.0).sqrt();
        for sign in [1.0, -1.0] {
            let di_est = (along * w1u + sign * perp_mag * w1v + s1 * r).abs();
            let dj_est = (along * w2u + sign * perp_mag * w2v + s1 * r).abs();
            if di_est <= reach && dj_est <= reach {
                let nu = u * along + v * (perp_mag * sign);
                let c = s1 * r - nu.dot(a.to_vec());
                // Represent the line through its foot point with direction ⟂ ν.
                let foot = Point::ORIGIN + nu * (-c);
                out[count] = Line::from_point_dir(foot, nu.perp_ccw());
                count += 1;
            }
            if perp_mag <= f64::EPSILON {
                break; // the two mirror solutions coincide
            }
        }
    }
    count
}

/// The portion of `line` that runs from the boundary of the unit disc at
/// `ci` to the boundary of the unit disc at `cj`, or `None` when the line
/// misses either disc.
fn chord_between_discs<K: Kernel>(line: &Line, ci: Point, cj: Point) -> Option<Segment> {
    // Whether the candidate line reaches both discs is a kernel
    // classification; the chord endpoints below are shared constructions.
    if line.cmp_distance_to_k::<K>(ci, UNIT_RADIUS) == Ordering::Greater
        || line.cmp_distance_to_k::<K>(cj, UNIT_RADIUS) == Ordering::Greater
    {
        return None;
    }
    let di = line.distance_to(ci);
    let dj = line.distance_to(cj);
    let pi = line.project(ci);
    let pj = line.project(cj);
    if pi.distance(pj) <= f64::EPSILON {
        return None;
    }
    // Pull each endpoint back onto its own disc boundary (towards the other
    // disc) so the segment spans exactly the gap between the discs.
    let dir = (pj - pi).normalized();
    let off_i = (UNIT_RADIUS * UNIT_RADIUS - di.powi(2)).max(0.0).sqrt();
    let off_j = (UNIT_RADIUS * UNIT_RADIUS - dj.powi(2)).max(0.0).sqrt();
    Some(Segment::new(pi + dir * off_i, pj - dir * off_j))
}

/// Indices of all robots visible to robot `i` in the configuration `centers`
/// (excluding `i` itself), using the sampling test.
pub fn visible_set(i: usize, centers: &[Point], cfg: &VisibilityConfig) -> Vec<usize> {
    (0..centers.len())
        .filter(|&j| j != i && disc_sees_disc(i, j, centers, cfg))
        .collect()
}

/// Relative slack applied to the squared corridor radius by
/// [`corridor_filter_soa`]. The batched lanes evaluate the distance with a
/// fused expression whose rounding can differ from
/// `Segment::distance_sq_to` by a few ulps; inflating the acceptance radius
/// keeps the filtered set a **superset** of the scalar filter's set, which
/// is all the witness kernel's contract requires (extra obstacles beyond
/// the pruning radius never change its answer).
const SOA_FILTER_SLACK: f64 = 1.0 + 1e-9;

/// Batched corridor pre-filter over candidate obstacles held in
/// structure-of-arrays form: appends to `out` the index of every candidate
/// `(xs[k], ys[k])` whose distance to segment `a`–`b` is (conservatively)
/// at most `radius`.
///
/// The loop body is branch-free per lane and runs over `chunks_exact(4)` so
/// the compiler can vectorize it; a scalar tail handles the remainder. The
/// accepted set is a superset of
/// `{k : Segment::distance_sq_to((xs[k], ys[k])) <= radius²}` (see
/// `SOA_FILTER_SLACK`), so feeding it to [`disc_sees_disc_among`] with
/// `radius = VISIBILITY_PRUNE_RADIUS` yields exactly the exhaustive
/// answer.
///
/// # Panics
/// Panics if `xs` and `ys` differ in length.
pub fn corridor_filter_soa(
    a: Point,
    b: Point,
    radius: f64,
    xs: &[f64],
    ys: &[f64],
    out: &mut Vec<u32>,
) {
    assert_eq!(xs.len(), ys.len(), "SoA coordinate slices must match");
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let len_sq = dx * dx + dy * dy;
    let inv_len_sq = if len_sq <= f64::EPSILON {
        0.0 // degenerate chord: every t collapses to the endpoint `a`
    } else {
        1.0 / len_sq
    };
    let r_sq = radius * radius * SOA_FILTER_SLACK;
    let lane = |x: f64, y: f64| -> bool {
        let px = x - a.x;
        let py = y - a.y;
        let t = ((px * dx + py * dy) * inv_len_sq).clamp(0.0, 1.0);
        let ex = px - t * dx;
        let ey = py - t * dy;
        ex * ex + ey * ey <= r_sq
    };
    let chunks_x = xs.chunks_exact(4);
    let chunks_y = ys.chunks_exact(4);
    let tail = chunks_x.remainder().len();
    let mut base = 0u32;
    for (cx, cy) in chunks_x.zip(chunks_y) {
        // Evaluate all four lanes unconditionally (no early exit), then
        // push the survivors: the mask computation is what vectorizes.
        let mask = [
            lane(cx[0], cy[0]),
            lane(cx[1], cy[1]),
            lane(cx[2], cy[2]),
            lane(cx[3], cy[3]),
        ];
        for (l, &keep) in mask.iter().enumerate() {
            if keep {
                out.push(base + l as u32);
            }
        }
        base += 4;
    }
    let start = xs.len() - tail;
    for k in start..xs.len() {
        if lane(xs[k], ys[k]) {
            out.push(k as u32);
        }
    }
}

/// Safety margin the strip-cover certificate subtracts from the blocking
/// half-width. The kernel blocks a candidate when an obstacle sits within
/// `UNIT_RADIUS + clearance/2` of it, so certifying at `UNIT_RADIUS − 1e-7`
/// leaves a gap seven-plus orders of magnitude above the ~1e-13 absolute
/// rounding of the polygon clipping below: a line the cover misses by
/// honest arithmetic can never be rounded into the covered set.
const STRIP_COVER_SAFETY: f64 = 1e-7;

/// Per-robot stability radius (ρ) of [`strip_cover_blocked_with_slack`]:
/// when the slack cover fires, the pair stays blocked for **any**
/// configuration in which every robot — the two endpoints *and* every
/// obstacle — sits within ρ of its position at certification time.
/// Endpoint drift is absorbed by enlarging the candidate square; obstacle
/// drift by narrowing every blocking strip by ρ (an obstacle that moved ρ
/// still blocks the narrowed strip); *new* obstacles only block more
/// (the witness search is monotone in obstacles) and obstacles can only
/// leave a corridor by first drifting beyond ρ.
///
/// The value trades skip duration against cover density: narrowing strips
/// by ρ shrinks their width to `2(1−ρ)`, and in a hex packing at center
/// spacing `s` the tightest cover constraint is parallel-to-chord
/// candidates, covered at perpendicular strip pitch `s·√3/2` (the row
/// height). At the paper-regime spacing ≈ 2.1 that pitch is ≈ 1.82, so
/// ρ must stay below ≈ 0.09 for the certificate to fire at all; 0.05
/// leaves a ≈ 0.08 overlap margin for packing jitter while still
/// tolerating a generous oscillation radius (ρ/2 per robot) in the
/// simulator.
pub const COVER_STABILITY_RADIUS: f64 = 0.05;

/// Minimum chord span for the exact strip-cover certificate: keeps the
/// square inflation `2/(span − 2)` at most 1/3.
pub const STRIP_COVER_MIN_SPAN: f64 = 8.0;

/// Minimum chord span for the slack certificate; keeps the slack square
/// (see [`strip_cover_blocked_with_slack`]) comfortably bounded.
pub const STRIP_COVER_SLACK_MIN_SPAN: f64 = 8.0;

/// Obstacles closer than this to either endpoint (measured along the chord
/// axis) are ignored by the cover: beyond this margin the foot of the
/// perpendicular from the obstacle onto a candidate line provably falls
/// inside the candidate *segment*, so line distance equals segment distance.
const STRIP_COVER_AXIAL_MARGIN: f64 = 2.5;

const STRIP_COVER_MAX_POLYS: usize = 16;
const STRIP_COVER_MAX_VERTS: usize = 24;

/// Sound O(|obstacles| · polygons) *blocked* certificate for the pair
/// kernel: when this returns `true`, [`disc_sees_disc_among`] returns
/// `false` for the same endpoints and **any** obstacle slice admitted by
/// the kernel contract — without running the O(k²) witness search.
///
/// # Line-space cover
///
/// Work in the chord frame (origin `ci`, axis towards `cj`, span `T`).
/// Every candidate segment the kernel verifies has one endpoint within
/// `UNIT_RADIUS` of `ci` and the other within `UNIT_RADIUS` of `cj`
/// (stages 1–2 use `endpoint(c, o, ±1)` exactly on the unit circle; stage 3
/// pulls both endpoints onto the unit circles). Parameterize the candidate
/// by the offsets `(a, b)` of its supporting line at axial positions `0`
/// and `T`. An endpoint `(t_e, o_e)` with `t_e² + o_e² ≤ 1` and slope
/// `|s| ≤ 2/(T−2)` extrapolates to `|a| = |o_e − s·t_e| ≤ 1 + 2/(T−2)`,
/// so every candidate lives in the square `[−S, S]²` with
/// `S = 1 + 2/(T−2) + ε`.
///
/// An obstacle at `(t_k, o_k)` with `u = t_k/T` *blocks* every line whose
/// axial offset difference satisfies `|a(1−u) + b·u − o_k| ≤ hw`
/// (`hw = UNIT_RADIUS − ``STRIP_COVER_SAFETY`): the perpendicular
/// distance is the axial difference divided by `√(1+s²)`, hence ≤ hw,
/// strictly inside the kernel's blocking distance
/// `UNIT_RADIUS + clearance/2`. Restricting to obstacles with
/// `t_k ∈ [2.5, T−2.5]` makes the foot of that perpendicular land inside
/// the candidate segment (the foot sits within
/// `|o_k − line(t_k)|·|s| < 1.5` of `t_k`, and the segment spans at least
/// `[1, T−1]`), so segment distance equals line distance. Each obstacle
/// therefore covers a diagonal **strip** of the `(a, b)` square.
///
/// If the strips jointly cover the square, every candidate is blocked and
/// the kernel must answer "not seen". The cover test clips the square
/// against the complement of each strip, maintaining the uncovered region
/// as a small set of convex polygons; the certificate fires when the set
/// becomes empty. Obstacles are processed nearest-the-chord first so
/// central strips (which cover the most) come early.
///
/// # One-sidedness and numerics
///
/// `false` never means "visible" — the caller falls back to the kernel, so
/// the fast path cannot flip an answer. For `true` to be sound despite
/// floating point: a genuinely clear witness line keeps axial distance
/// `> UNIT_RADIUS` from every usable obstacle, so its `(a, b)` point sits
/// at distance ≥ `STRIP_COVER_SAFETY` from every (narrowed) strip — an
/// uncovered ball that survives the ~1e-13 absolute clipping error. The
/// clipping itself uses closed half-planes, so measure-zero slivers are
/// retained, and the routine gives up (returns `false`) rather than drop
/// state when polygon or vertex budgets overflow.
///
/// Covering obstacles sit within `UNIT_RADIUS + hw < 2·UNIT_RADIUS` of the
/// chord segment, inside [`VISIBILITY_PRUNE_RADIUS`], so they are present
/// in any obstacle slice the kernel contract admits — the certificate is
/// stable under the same superset rule as the kernel.
pub fn strip_cover_blocked(ci: Point, cj: Point, obstacles: &[Point]) -> bool {
    let span = (cj - ci).norm();
    if span < STRIP_COVER_MIN_SPAN {
        return false;
    }
    let square = 1.0 + 2.0 / (span - 2.0) + STRIP_COVER_SAFETY;
    strip_cover(ci, cj, obstacles, square, 0.0)
}

/// Drift-stable variant of [`strip_cover_blocked`]: a `true` verdict
/// certifies that the kernel answers "not seen" for **any** configuration
/// in which every robot — endpoints and obstacles alike — sits within
/// [`COVER_STABILITY_RADIUS`] (ρ) of its position at this call (still
/// under the kernel's obstacle-superset contract).
///
/// All reasoning stays in the *certification* frame. Endpoint drift ≤ ρ:
/// a witness for the drifted pair has endpoints within `1 + ρ` of the
/// certification centers, hence slope `|s| ≤ (2+2ρ)/(T−2−2ρ)` and
/// extrapolated offsets
/// `|a| ≤ (1+ρ)·(1 + (2+2ρ)/(T−2−2ρ))` in the certification frame — the
/// enlarged square below. Obstacle drift ≤ ρ: every strip is narrowed by
/// ρ, so a candidate inside the narrowed strip keeps perpendicular
/// distance ≤ `hw − ρ + ρ = hw` to the *drifted* obstacle and stays
/// blocked; the axial margin grows by `2ρ` so the perpendicular foot
/// still lands inside the (drifted) candidate segment. Obstacles that
/// *enter* the corridor after certification only remove witnesses (the
/// search is monotone in obstacles), and a certification obstacle can
/// only leave the corridor by first exceeding drift ρ. The simulator
/// turns this into a cheap dirty-skip: while every robot stays within
/// `ρ/2` of its registration anchor, a certified-blocked pair needs no
/// recompute — and no per-move attention at all.
pub fn strip_cover_blocked_with_slack(ci: Point, cj: Point, obstacles: &[Point]) -> bool {
    let span = (cj - ci).norm();
    if span < STRIP_COVER_SLACK_MIN_SPAN {
        return false;
    }
    let p = COVER_STABILITY_RADIUS;
    let square = (1.0 + p) * (1.0 + (2.0 + 2.0 * p) / (span - 2.0 - 2.0 * p)) + STRIP_COVER_SAFETY;
    strip_cover(ci, cj, obstacles, square, p)
}

/// Shared cover sweep over the `(a, b)` line square of half-side `square`.
/// `shrink` narrows every strip and widens the axial exclusion margin to
/// make the verdict robust to per-obstacle drift ≤ `shrink` (0 for the
/// exact certificate).
fn strip_cover(ci: Point, cj: Point, obstacles: &[Point], square: f64, shrink: f64) -> bool {
    let axis = cj - ci;
    let span = axis.norm();
    let dir = axis / span;
    let perp = dir.perp_ccw();
    let hw = UNIT_RADIUS - shrink - STRIP_COVER_SAFETY;
    let margin = STRIP_COVER_AXIAL_MARGIN + 2.0 * shrink;
    STRIP_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let StripScratch {
            strips,
            polys,
            flip,
            pool,
        } = &mut *scratch;
        strips.clear();
        for &c in obstacles {
            let w = c - ci;
            let t = w.dot(dir);
            if !(margin..=span - margin).contains(&t) {
                continue;
            }
            let o = w.dot(perp);
            if o.abs() > square + hw {
                continue;
            }
            strips.push((t / span, o));
        }
        // On the square's diagonal `a = b` (the lines parallel to the
        // chord) every strip reduces to `|a − o| ≤ hw`, so a cover must
        // reach both diagonal corners `(±square, ±square)`. Most uncovered
        // corridors fail this O(k) test and skip the polygon clipping.
        let reaches = |end: f64| {
            strips
                .iter()
                .any(|&(_, o)| (end - hw..=end + hw).contains(&o))
        };
        if !reaches(square) || !reaches(-square) {
            return false;
        }
        strips
            .sort_unstable_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap_or(Ordering::Equal));

        pool.append(polys);
        pool.append(flip);
        let mut start = pool.pop().unwrap_or_default();
        start.clear();
        start.extend_from_slice(&[
            (-square, -square),
            (square, -square),
            (square, square),
            (-square, square),
        ]);
        polys.push(start);
        for &(u, o) in strips.iter() {
            // Uncovered ∩ strip-complement: each polygon splits into the
            // part below the strip (f ≤ o − hw) and the part above it
            // (f ≥ o + hw), where f(a, b) = a·(1−u) + b·u.
            let (na, nb) = (1.0 - u, u);
            for poly in polys.drain(..) {
                let mut below = pool.pop().unwrap_or_default();
                let mut above = pool.pop().unwrap_or_default();
                below.clear();
                above.clear();
                clip_halfplane(&poly, na, nb, o - hw, 1.0, &mut below);
                clip_halfplane(&poly, na, nb, o + hw, -1.0, &mut above);
                pool.push(poly);
                for piece in [below, above] {
                    if piece.is_empty() {
                        pool.push(piece);
                    } else {
                        flip.push(piece);
                    }
                }
            }
            std::mem::swap(polys, flip);
            if polys.is_empty() {
                return true;
            }
            if polys.len() > STRIP_COVER_MAX_POLYS
                || polys.iter().any(|p| p.len() > STRIP_COVER_MAX_VERTS)
            {
                // Budget overflow: give up soundly rather than drop state.
                return false;
            }
        }
        false
    })
}

/// Clips convex polygon `input` to the closed half-plane
/// `sign·(na·a + nb·b − c) ≤ 0` (Sutherland–Hodgman, one plane).
fn clip_halfplane(
    input: &[(f64, f64)],
    na: f64,
    nb: f64,
    c: f64,
    sign: f64,
    out: &mut Vec<(f64, f64)>,
) {
    let n = input.len();
    for i in 0..n {
        let p = input[i];
        let q = input[(i + 1) % n];
        let dp = sign * (na * p.0 + nb * p.1 - c);
        let dq = sign * (na * q.0 + nb * q.1 - c);
        if dp <= 0.0 {
            out.push(p);
        }
        if (dp < 0.0) != (dq < 0.0) && dp != dq {
            let t = dp / (dp - dq);
            if t > 0.0 && t < 1.0 {
                out.push((p.0 + t * (q.0 - p.0), p.1 + t * (q.1 - p.1)));
            }
        }
    }
}

thread_local! {
    /// Strip/polygon scratch of [`strip_cover`] — the certificate runs per
    /// pair recompute on the simulator's hot path, so the outer vectors
    /// must not reallocate once warm.
    static STRIP_SCRATCH: std::cell::RefCell<StripScratch> =
        const {
            std::cell::RefCell::new(StripScratch {
                strips: Vec::new(),
                polys: Vec::new(),
                flip: Vec::new(),
                pool: Vec::new(),
            })
        };
}

struct StripScratch {
    /// Filtered obstacles as `(t/span, perpendicular offset)` pairs.
    strips: Vec<(f64, f64)>,
    /// Current uncovered region as disjoint convex polygons in `(a, b)`.
    polys: Vec<Vec<(f64, f64)>>,
    /// Next generation of `polys` while clipping.
    flip: Vec<Vec<(f64, f64)>>,
    /// Retired vertex buffers, reused so the sweep stops allocating once
    /// warm.
    pool: Vec<Vec<(f64, f64)>>,
}

/// How far beyond its certification radius an occlusion horizon answers:
/// a horizon closed at radius `R` hides every robot at least
/// `R + HORIZON_FAR_MARGIN` from the certified center (see
/// [`occlusion_horizon`]).
pub const HORIZON_FAR_MARGIN: f64 = 3.0 * UNIT_RADIUS;

/// Uniform φ-bins the horizon cover starts from.
const HORIZON_BINS: usize = 64;

/// Halvings a φ-bin may take before the horizon cover gives up on it:
/// bins end no narrower than 2π/4096, where an obstacle at radius 24
/// still keeps a band of width ≥ 2·hw − 0.04.
const HORIZON_MAX_SPLITS: u32 = 6;

/// Bins the horizon cover may examine before giving up (a closed cover of
/// a dense packing needs the initial 64 and a handful of splits).
const HORIZON_MAX_BIN_VISITS: usize = 2048;

/// Directions sampled by the horizon's O(k) precheck.
const HORIZON_PROBES: usize = 16;

/// Absolute slack added to every per-bin interval bound, covering the
/// rounding of the bin frame (`cos`/`sin` of the bin midpoint) and of the
/// dot products — orders of magnitude below `STRIP_COVER_SAFETY`.
const HORIZON_BOUND_SLACK: f64 = 1e-9;

/// Drift-stable **occlusion horizon** of a robot around `center`: when
/// this returns `true`, [`disc_sees_disc_among`] answers "not seen"
/// between that robot and **every** robot `j` with
/// `|c_j − center| ≥ radius + `[`HORIZON_FAR_MARGIN`], for any
/// configuration in which the robot sits within [`COVER_STABILITY_RADIUS`]
/// (ρ) of `center` and every other robot — every obstacle, and `j` itself
/// — within ρ of its position at this call (`j`'s distance measured at
/// query time), under the kernel's obstacle-superset contract. It is the
/// row-level sibling of [`strip_cover_blocked_with_slack`]: one
/// certificate answers a whole far field instead of one pair.
///
/// `obstacles` may be any set of the *other* robots' centers; only those
/// within about `radius + 1` of `center` can contribute, and a missing
/// obstacle only makes the cover less likely to close.
///
/// # Line-space cover
///
/// Parametrize oriented lines by direction φ (unit `u`, normal `n = u⊥`)
/// and signed offset `d` from `center`. Every candidate segment the kernel
/// verifies for a far pair runs from a point `p` within `1` of the robot's
/// center — so `|p − center| ≤ 1 + ρ`, giving `|d| ≤ D = 1 + ρ`
/// and axial position `t_p ≤ 1 + ρ` — to a point `q` within `1` of `c_j`,
/// so `|q − center| ≥ R + 2` and `t_q ≥ √((R+2)² − D²) > R`. The segment
/// therefore spans every axial position in `[1 + ρ, R]`.
///
/// An obstacle at offset `w` from `center` has axial position `a = w·u`
/// and offset `o = w·n`. When `a ∈ [1 + 2ρ, R − ρ]` and
/// `|o − d| ≤ hw = 1 − ρ − ``STRIP_COVER_SAFETY`, the drifted obstacle
/// (moved at most ρ) keeps axial position in `[1 + ρ, R]` — so the foot of
/// its perpendicular lands on the segment — and perpendicular distance
/// `≤ 1 − STRIP_COVER_SAFETY`, strictly inside the kernel's blocking
/// distance `UNIT_RADIUS + clearance/2`. Each obstacle thus covers a band
/// of the `(φ, d)` cylinder, and if the bands cover all of
/// `[0, 2π) × [−D, D]` every candidate is blocked. The line through the
/// robot towards `c_j` is itself covered, so some obstacle lies inside the
/// pair's corridor and the kernel's empty-corridor shortcut cannot answer
/// "seen" either. Blocking obstacles sit within `2·UNIT_RADIUS` of the
/// chord, inside [`VISIBILITY_PRUNE_RADIUS`], so any admitted obstacle
/// slice contains them; robots that *enter* afterwards only block more.
///
/// # Sound bins
///
/// The cover is checked per φ-bin of half-width `h`: over the bin, `a` and
/// `o` stay within `|w|·h` (plus `HORIZON_BOUND_SLACK`) of their values
/// at the bin midpoint, so an obstacle whose axial range fits the window
/// covers the `d`-interval `[o_max − hw, o_min + hw]` for the **whole**
/// bin. A bin whose intervals cover `[−D, D]` is closed; an open bin is
/// halved (up to `HORIZON_MAX_SPLITS` times) before the certificate
/// gives up. An O(k) precheck first asks the exact bands to cover three
/// lines (`d = −D, 0, D`) in each of `HORIZON_PROBES` directions — a
/// necessary condition (a hull vertex, say, fails it at once), so it only
/// ever skips certificates that could not close. `false` never means
/// "visible": callers fall back to computing the pairs.
pub fn occlusion_horizon(center: Point, obstacles: &[Point], radius: f64) -> bool {
    let rho = COVER_STABILITY_RADIUS;
    let hw = UNIT_RADIUS - rho - STRIP_COVER_SAFETY;
    let reach = UNIT_RADIUS + rho + STRIP_COVER_SAFETY;
    let (a_min, a_max) = (UNIT_RADIUS + 2.0 * rho, radius - rho);
    if a_max <= a_min {
        return false;
    }
    let r_max_sq = a_max * a_max + (reach + hw) * (reach + hw);
    let frame = |phi: f64| {
        let u = crate::point::Vec2::from_angle(phi);
        (u, u.perp_ccw())
    };
    HORIZON_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let HorizonScratch {
            obs,
            intervals,
            bins,
        } = &mut *scratch;
        obs.clear();
        for &c in obstacles {
            let w = c - center;
            let r_sq = w.norm_sq();
            if r_sq >= a_min * a_min && r_sq <= r_max_sq {
                obs.push((w, r_sq.sqrt()));
            }
        }
        // Necessary condition: the exact bands cover the probe lines.
        for k in 0..HORIZON_PROBES {
            let (u, n) = frame(std::f64::consts::TAU * k as f64 / HORIZON_PROBES as f64);
            for d in [-reach, 0.0, reach] {
                let covered = obs.iter().any(|&(w, _)| {
                    (a_min..=a_max).contains(&w.dot(u)) && (d - hw..=d + hw).contains(&w.dot(n))
                });
                if !covered {
                    return false;
                }
            }
        }
        let step = std::f64::consts::TAU / HORIZON_BINS as f64;
        bins.clear();
        bins.extend((0..HORIZON_BINS).rev().map(|k| {
            let lo = k as f64 * step;
            (lo, lo + step, 0)
        }));
        let mut visits = 0;
        while let Some((lo, hi, splits)) = bins.pop() {
            visits += 1;
            let half = 0.5 * (hi - lo);
            let (u, n) = frame(lo + half);
            intervals.clear();
            for &(w, r) in obs.iter() {
                let spread = r * half + HORIZON_BOUND_SLACK;
                let a = w.dot(u);
                if a - spread < a_min || a + spread > a_max {
                    continue;
                }
                let o = w.dot(n);
                let (from, to) = (o + spread - hw, o - spread + hw);
                if from <= to && to >= -reach && from <= reach {
                    intervals.push((from, to));
                }
            }
            intervals.sort_unstable_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(Ordering::Equal));
            let mut covered_to = -reach;
            for &(from, to) in intervals.iter() {
                if from > covered_to {
                    break;
                }
                covered_to = covered_to.max(to);
            }
            if covered_to >= reach {
                continue;
            }
            if splits == HORIZON_MAX_SPLITS || visits >= HORIZON_MAX_BIN_VISITS {
                return false;
            }
            let mid = lo + half;
            bins.push((mid, hi, splits + 1));
            bins.push((lo, mid, splits + 1));
        }
        true
    })
}

thread_local! {
    /// Working buffers of [`occlusion_horizon`], reused across calls.
    static HORIZON_SCRATCH: std::cell::RefCell<HorizonScratch> =
        const {
            std::cell::RefCell::new(HorizonScratch {
                obs: Vec::new(),
                intervals: Vec::new(),
                bins: Vec::new(),
            })
        };
}

struct HorizonScratch {
    /// Contributing obstacles as (offset from the center, its norm).
    obs: Vec<(crate::point::Vec2, f64)>,
    /// One bin's covered `d`-intervals.
    intervals: Vec<(f64, f64)>,
    /// Bins still to check: `(φ_lo, φ_hi, halvings so far)`.
    bins: Vec<(f64, f64, u32)>,
}

/// Exact full-visibility test for configurations in convex position.
///
/// Returns `true` when every center lies on the common convex hull **and** no
/// three centers are collinear — which, for unit discs whose centers are in
/// convex position, is equivalent to every robot seeing every other robot
/// (the equivalence used throughout Section 4 of the paper).
///
/// `collinearity_tol` is the tolerance on the doubled triangle area used for
/// the collinearity test; the gathering algorithm passes its own `1/n`-scaled
/// band here.
pub fn fully_visible_in_convex_position(centers: &[Point], collinearity_tol: f64) -> bool {
    fully_visible_in_convex_position_k::<EpsKernel>(centers, collinearity_tol)
}

/// [`fully_visible_in_convex_position`] with the hull membership and the
/// collinearity band decided by kernel `K`.
pub fn fully_visible_in_convex_position_k<K: Kernel>(
    centers: &[Point],
    collinearity_tol: f64,
) -> bool {
    if centers.len() <= 2 {
        return true;
    }
    let hull = ConvexHull::from_points_k::<K>(centers);
    if !hull.all_on_hull() {
        return false;
    }
    no_three_collinear_k::<K>(centers, collinearity_tol)
}

/// `true` when no three of the given points are collinear within `tol`
/// (tolerance on the doubled triangle area).
pub fn no_three_collinear(points: &[Point], tol: f64) -> bool {
    no_three_collinear_k::<EpsKernel>(points, tol)
}

/// [`no_three_collinear`] with the per-triple test decided by kernel `K`.
pub fn no_three_collinear_k<K: Kernel>(points: &[Point], tol: f64) -> bool {
    let n = points.len();
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                if K::orientation_tol(points[a], points[b], points[c], tol)
                    == Orientation::Collinear
                {
                    return false;
                }
            }
        }
    }
    true
}

/// `true` when the three points are exactly collinear within the default
/// predicate tolerance. Convenience re-export used by the algorithm crate.
pub fn three_collinear(a: Point, b: Point, c: Point) -> bool {
    three_collinear_k::<EpsKernel>(a, b, c)
}

/// [`three_collinear`] under kernel `K`'s policy collinearity width.
pub fn three_collinear_k<K: Kernel>(a: Point, b: Point, c: Point) -> bool {
    K::orientation(a, b, c) == Orientation::Collinear
}

/// Minimum gap (boundary-to-boundary distance) over all pairs of unit discs,
/// or `None` for fewer than two discs. Negative values indicate overlap.
pub fn min_pairwise_gap(centers: &[Point]) -> Option<f64> {
    let n = centers.len();
    if n < 2 {
        return None;
    }
    let mut best = f64::INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let gap = centers[i].distance(centers[j]) - 2.0 * UNIT_RADIUS;
            if gap < best {
                best = gap;
            }
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn cfg() -> VisibilityConfig {
        VisibilityConfig::default()
    }

    #[test]
    fn two_discs_always_see_each_other() {
        let centers = vec![p(0.0, 0.0), p(10.0, 0.0)];
        assert!(disc_sees_disc(0, 1, &centers, &cfg()));
        assert!(disc_sees_disc(1, 0, &centers, &cfg()));
    }

    #[test]
    fn blocking_disc_in_the_middle_hides_far_disc() {
        // Three collinear discs spaced far apart: the middle one blocks the
        // center line but NOT the tangent lines... unless the corridor is
        // fully covered. With equal radii and perfect collinearity the middle
        // disc exactly fills the corridor, so the outer robots cannot see
        // each other.
        let centers = vec![p(0.0, 0.0), p(10.0, 0.0), p(20.0, 0.0)];
        assert!(!disc_sees_disc(0, 2, &centers, &cfg()));
        assert!(disc_sees_disc(0, 1, &centers, &cfg()));
        assert!(disc_sees_disc(1, 2, &centers, &cfg()));
    }

    #[test]
    fn offset_disc_does_not_block() {
        // The "blocking" disc is displaced well off the corridor.
        let centers = vec![p(0.0, 0.0), p(10.0, 5.0), p(20.0, 0.0)];
        assert!(disc_sees_disc(0, 2, &centers, &cfg()));
    }

    #[test]
    fn slightly_offset_disc_leaves_a_thin_sight_line() {
        // Middle disc displaced by more than a radius from the corridor
        // center line frees one tangent side.
        let centers = vec![p(0.0, 0.0), p(10.0, 2.5), p(20.0, 0.0)];
        assert!(disc_sees_disc(0, 2, &centers, &cfg()));
    }

    #[test]
    fn visibility_is_symmetric_on_random_like_configs() {
        let centers = vec![
            p(0.0, 0.0),
            p(3.0, 0.5),
            p(6.0, -0.5),
            p(2.0, 4.0),
            p(5.0, 3.0),
        ];
        for i in 0..centers.len() {
            for j in 0..centers.len() {
                if i != j {
                    assert_eq!(
                        disc_sees_disc(i, j, &centers, &cfg()),
                        disc_sees_disc(j, i, &centers, &cfg()),
                        "asymmetric visibility between {i} and {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn visible_set_excludes_self() {
        let centers = vec![p(0.0, 0.0), p(4.0, 0.0), p(8.0, 0.0)];
        let v = visible_set(1, &centers, &cfg());
        assert_eq!(v, vec![0, 2]);
        let v0 = visible_set(0, &centers, &cfg());
        assert_eq!(v0, vec![1]);
    }

    #[test]
    fn convex_position_full_visibility() {
        // Square: all on hull, no three collinear.
        let square = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)];
        assert!(fully_visible_in_convex_position(&square, 1e-9));
        // Add an interior point: no longer all on hull.
        let mut with_interior = square.clone();
        with_interior.push(p(5.0, 5.0));
        assert!(!fully_visible_in_convex_position(&with_interior, 1e-9));
        // Three collinear on the hull boundary.
        let collinear_cfg = vec![p(0.0, 0.0), p(5.0, 0.0), p(10.0, 0.0), p(5.0, 10.0)];
        assert!(!fully_visible_in_convex_position(&collinear_cfg, 1e-9));
    }

    #[test]
    fn no_three_collinear_tolerance_band() {
        let pts = vec![p(0.0, 0.0), p(5.0, 0.05), p(10.0, 0.0), p(5.0, 10.0)];
        // Tiny tolerance: the small bump is NOT collinear.
        assert!(no_three_collinear(&pts, 1e-9));
        // Large tolerance (the paper's 1/n band scaled): it IS collinear.
        assert!(!no_three_collinear(&pts, 1.0));
    }

    #[test]
    fn min_gap_reports_touching_and_overlap() {
        assert_eq!(min_pairwise_gap(&[p(0.0, 0.0)]), None);
        let touching = vec![p(0.0, 0.0), p(2.0, 0.0)];
        assert!(min_pairwise_gap(&touching).unwrap().abs() < 1e-12);
        let apart = vec![p(0.0, 0.0), p(5.0, 0.0)];
        assert!((min_pairwise_gap(&apart).unwrap() - 3.0).abs() < 1e-12);
        let overlap = vec![p(0.0, 0.0), p(1.0, 0.0)];
        assert!(min_pairwise_gap(&overlap).unwrap() < 0.0);
    }

    #[test]
    fn three_collinear_helper() {
        assert!(three_collinear(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)));
        assert!(!three_collinear(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 1.0)));
    }

    #[test]
    fn soa_corridor_filter_is_a_tight_superset_of_the_scalar_filter() {
        use crate::segment::Segment;
        // A pseudo-random cloud (fixed LCG so the test is deterministic)
        // around two chords, one generic and one degenerate. Every scalar
        // accept must survive the batched filter, and every batched accept
        // must be within the slack-inflated radius.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 40.0 - 10.0
        };
        let n = 103; // not a multiple of 4: exercises the scalar tail
        let xs: Vec<f64> = (0..n).map(|_| next()).collect();
        let ys: Vec<f64> = (0..n).map(|_| next()).collect();
        for (a, b) in [(p(0.0, 0.0), p(17.0, 6.0)), (p(3.0, 3.0), p(3.0, 3.0))] {
            let radius = VISIBILITY_PRUNE_RADIUS;
            let seg = Segment::new(a, b);
            let mut got = Vec::new();
            corridor_filter_soa(a, b, radius, &xs, &ys, &mut got);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending, unique");
            for k in 0..n {
                let d_sq = seg.distance_sq_to(p(xs[k], ys[k]));
                if d_sq <= radius * radius {
                    assert!(
                        got.contains(&(k as u32)),
                        "scalar accept {k} dropped by the batched filter"
                    );
                }
            }
            for &k in &got {
                let d_sq = seg.distance_sq_to(p(xs[k as usize], ys[k as usize]));
                assert!(
                    d_sq <= radius * radius * (1.0 + 1e-6),
                    "batched accept {k} is far outside the corridor"
                );
            }
        }
    }

    #[test]
    fn strip_cover_requires_actual_cover() {
        let (ci, cj) = (p(0.0, 0.0), p(30.0, 0.0));
        // Empty corridor and a single mid-chord obstacle: the parallel
        // grazing candidates at offset ±1 survive one strip, so no cover.
        assert!(!strip_cover_blocked(ci, cj, &[]));
        assert!(!strip_cover_blocked(ci, cj, &[p(15.0, 0.0)]));
        // Three obstacles at staggered depths and offsets close the square:
        // the mid strip kills everything but the grazing corners, and the
        // offset strips at other depths kill those.
        let wall = [p(15.0, 0.0), p(10.0, 1.1), p(20.0, -1.1)];
        assert!(strip_cover_blocked(ci, cj, &wall));
        assert!(!disc_sees_disc_among(ci, cj, &wall, &cfg()));
        // Without the lower flanker the grazing candidates just below the
        // mid obstacle stay clear (axial distance ≳ UNIT_RADIUS): the
        // lower corner of the line square is uncovered, so no certificate.
        let open = [p(15.0, 0.0), p(15.0, 1.1)];
        assert!(!strip_cover_blocked(ci, cj, &open));
        // Obstacles within the axial end margin are ignored: a wall hugging
        // an endpoint cannot certify on its own.
        let hugging = [p(1.0, 0.0), p(1.2, 1.1), p(1.4, -1.1)];
        assert!(!strip_cover_blocked(ci, cj, &hugging));
        // Short chords never certify.
        assert!(!strip_cover_blocked(
            p(0.0, 0.0),
            p(6.0, 0.0),
            &[p(3.0, 0.0)]
        ));
    }

    #[test]
    fn strip_cover_certificate_always_agrees_with_the_kernel() {
        // Randomized soundness check: whenever the cover certificate fires,
        // the full witness search must say "blocked" — including under
        // endpoint perturbations within the advertised slack. Clusters are
        // hex-packed, so far pairs are genuinely blocked and the
        // certificate fires for a healthy fraction of samples (asserted, so
        // the test cannot silently go vacuous).
        let mut state = 0x00C0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let (mut fired, mut slack_fired) = (0u32, 0u32);
        for _ in 0..25 {
            let spacing = 2.05 + 0.3 * next();
            let side = 12;
            let row_h = spacing * 3f64.sqrt() / 2.0;
            let centers: Vec<Point> = (0..side * side)
                .map(|i| {
                    let (r, c) = (i / side, i % side);
                    let stagger = if r % 2 == 1 { spacing / 2.0 } else { 0.0 };
                    p(
                        c as f64 * spacing + stagger + (next() - 0.5) * 0.02,
                        r as f64 * row_h + (next() - 0.5) * 0.02,
                    )
                })
                .collect();
            for _ in 0..10 {
                let i = (next() * centers.len() as f64) as usize % centers.len();
                let j = (next() * centers.len() as f64) as usize % centers.len();
                if i == j {
                    continue;
                }
                let (ci, cj) = (centers[i], centers[j]);
                let obstacles: Vec<Point> = centers
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i && k != j)
                    .map(|(_, &c)| c)
                    .collect();
                if strip_cover_blocked(ci, cj, &obstacles) {
                    fired += 1;
                    assert!(
                        !disc_sees_disc_among(ci, cj, &obstacles, &cfg()),
                        "strip cover fired for a pair the kernel sees (span {})",
                        ci.distance(cj)
                    );
                }
                if strip_cover_blocked_with_slack(ci, cj, &obstacles) {
                    slack_fired += 1;
                    // The drift contract: blocked for ANY configuration
                    // with every robot within ρ of its certification
                    // position. Spot-check worst-ish drifts: endpoints
                    // pulled together/sideways AND every obstacle jostled
                    // by a deterministic per-obstacle offset of norm ρ.
                    let d = COVER_STABILITY_RADIUS;
                    for (round, (da, db)) in [
                        ((d, 0.0), (-d, 0.0)),
                        ((0.0, d), (0.0, -d)),
                        ((d / 2.0, d / 2.0), (-d / 2.0, d / 2.0)),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        let (qi, qj) = (p(ci.x + da.0, ci.y + da.1), p(cj.x + db.0, cj.y + db.1));
                        let drifted: Vec<Point> = obstacles
                            .iter()
                            .enumerate()
                            .map(|(k, &c)| {
                                let ang = (k * 37 + round * 101) as f64;
                                p(c.x + d * ang.cos(), c.y + d * ang.sin())
                            })
                            .collect();
                        assert!(
                            !disc_sees_disc_among(qi, qj, &drifted, &cfg()),
                            "slack cover fired but a ρ-drifted configuration \
                             sees (span {})",
                            ci.distance(cj)
                        );
                    }
                }
            }
        }
        assert!(
            fired >= 30,
            "exact cover fired only {fired} times — vacuous test"
        );
        assert!(
            slack_fired >= 15,
            "slack cover fired only {slack_fired} times — vacuous test"
        );
    }

    /// Deterministic unit-interval source for the randomized tests.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    /// A jittered `side × side` packing at center spacing `spacing`, hex
    /// or square, with each robot dropped with probability `holes`.
    fn packing(
        side: usize,
        spacing: f64,
        hex: bool,
        holes: f64,
        next: &mut impl FnMut() -> f64,
    ) -> Vec<Point> {
        let row_h = if hex {
            spacing * 3f64.sqrt() / 2.0
        } else {
            spacing
        };
        (0..side * side)
            .filter_map(|i| {
                let (r, c) = (i / side, i % side);
                let stagger = if hex && r % 2 == 1 {
                    spacing / 2.0
                } else {
                    0.0
                };
                let at = p(
                    c as f64 * spacing + stagger + (next() - 0.5) * 0.02,
                    r as f64 * row_h + (next() - 0.5) * 0.02,
                );
                (next() >= holes).then_some(at)
            })
            .collect()
    }

    /// Every center but `i` and `j` within [`VISIBILITY_PRUNE_RADIUS`] of
    /// their chord: an obstacle slice the kernel contract admits.
    fn corridor_slice(centers: &[Point], i: usize, j: usize) -> Vec<Point> {
        let chord = Segment::new(centers[i], centers[j]);
        centers
            .iter()
            .enumerate()
            .filter(|&(k, &c)| k != i && k != j && chord.distance_to(c) <= VISIBILITY_PRUNE_RADIUS)
            .map(|(_, &c)| c)
            .collect()
    }

    #[test]
    fn occlusion_horizon_hides_the_far_field_from_the_exact_kernel() {
        // Across jittered hex and square packings with random holes: a
        // closed horizon must make the exact kernel answer "not seen" for
        // every robot beyond R + HORIZON_FAR_MARGIN — checked on the
        // nearest far shell, where a gap would show first — in the
        // certified configuration and in one where every robot drifted by
        // the full stability radius.
        let mut next = lcg(0x0B5C_0DE5);
        let (mut closed, mut refused) = (0u32, 0u32);
        for trial in 0..10 {
            let hex = trial % 5 != 4;
            let spacing = 2.02 + 0.2 * next();
            let holes = if trial % 2 == 0 { 0.0 } else { 0.05 };
            let side = 22;
            let centers = packing(side, spacing, hex, holes, &mut next);
            let middle = |v: f64| side / 4 + (v * (side / 2) as f64) as usize;
            let (row, col) = (middle(next()), middle(next()));
            let target = p(col as f64 * spacing, row as f64 * spacing * 0.9);
            let i = (0..centers.len())
                .min_by(|&a, &b| {
                    let (da, db) = (centers[a].distance(target), centers[b].distance(target));
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            let center = centers[i];
            let others: Vec<Point> = centers
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i)
                .map(|(_, &c)| c)
                .collect();
            for radius in [6.0, 12.0] {
                if !occlusion_horizon(center, &others, radius) {
                    refused += 1;
                    continue;
                }
                closed += 1;
                let drift = if trial % 2 == 0 {
                    0.0
                } else {
                    COVER_STABILITY_RADIUS
                };
                let moved: Vec<Point> = centers
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| {
                        let angle = k as f64 * 2.399 + trial as f64;
                        p(c.x + drift * angle.cos(), c.y + drift * angle.sin())
                    })
                    .collect();
                let far = radius + HORIZON_FAR_MARGIN;
                for j in 0..moved.len() {
                    let d = moved[j].distance(center);
                    if j == i || d < far || d >= far + 1.5 {
                        continue;
                    }
                    let (lo, hi) = (i.min(j), i.max(j));
                    assert!(
                        !disc_sees_disc_among_k::<crate::kernel::ExactKernel>(
                            moved[lo],
                            moved[hi],
                            &corridor_slice(&moved, lo, hi),
                            &cfg()
                        ),
                        "trial {trial}: horizon R={radius} closed but robot {j} at {d:.3} is seen"
                    );
                }
            }
        }
        assert!(
            closed >= 8,
            "the horizon closed only {closed} times — vacuous test"
        );
        assert!(
            refused >= 2,
            "the horizon never refused — the packings are too easy"
        );
    }

    #[test]
    fn occlusion_horizon_refuses_a_one_robot_wide_channel() {
        // A hex packing with one row of robots taken out: the robot just
        // below the channel sees far along it, so no horizon may close.
        let mut next = lcg(0x0C4A_77E1);
        let (side, spacing) = (30, 2.1);
        let row_h = spacing * 3f64.sqrt() / 2.0;
        let centers: Vec<Point> = packing(side, spacing, true, 0.0, &mut next)
            .into_iter()
            .filter(|c| ((c.y / row_h).round() as usize) != side / 2)
            .collect();
        let channel_y = (side / 2) as f64 * row_h;
        let i = (0..centers.len())
            .min_by(|&a, &b| {
                let target = p(side as f64, channel_y - row_h);
                let (da, db) = (centers[a].distance(target), centers[b].distance(target));
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        let seen_beyond = (0..centers.len())
            .filter(|&j| j != i)
            .filter(|&j| {
                let (lo, hi) = (i.min(j), i.max(j));
                let slice = corridor_slice(&centers, lo, hi);
                centers[j].distance(centers[i]) >= 24.0 + HORIZON_FAR_MARGIN
                    && disc_sees_disc_among(centers[lo], centers[hi], &slice, &cfg())
            })
            .count();
        assert!(seen_beyond > 0, "the channel must open a far sight line");
        let others: Vec<Point> = centers
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, &c)| c)
            .collect();
        for radius in [6.0, 12.0, 24.0] {
            assert!(
                !occlusion_horizon(centers[i], &others, radius),
                "the horizon closed at R={radius} across an open channel"
            );
        }
        // Without the channel the same robot's horizon closes.
        let packed = packing(side, spacing, true, 0.0, &mut lcg(0x0C4A_77E1));
        let k = (0..packed.len())
            .min_by(|&a, &b| {
                let (da, db) = (
                    packed[a].distance(centers[i]),
                    packed[b].distance(centers[i]),
                );
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        let rest: Vec<Point> = packed
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != k)
            .map(|(_, &c)| c)
            .collect();
        assert!(occlusion_horizon(packed[k], &rest, 6.0));
    }

    #[test]
    fn occlusion_horizon_never_closes_at_a_hull_vertex() {
        let mut next = lcg(7);
        let centers = packing(12, 2.1, true, 0.0, &mut next);
        assert!(!occlusion_horizon(centers[0], &centers[1..], 6.0));
        assert!(!occlusion_horizon(p(0.0, 0.0), &[], 6.0));
    }

    #[test]
    #[should_panic]
    fn soa_corridor_filter_rejects_mismatched_slices() {
        let mut out = Vec::new();
        corridor_filter_soa(p(0.0, 0.0), p(1.0, 0.0), 1.0, &[0.0, 1.0], &[0.0], &mut out);
    }
}
