//! Delaunay refinement (`dr`): eliminate skinny triangles by inserting
//! circumcenters, in parallel rounds coordinated with deterministic
//! reservations.
//!
//! One scan of the mesh seeds a worklist with the skinny triangles. A
//! triangle's shape never changes, so no triangle outside the worklist
//! can become skinny later: after a round, the worklist is that round's
//! losers plus the triangles its winners created. Per round:
//! 1. keep the worklist's skinny alive triangles (read-only filter — `RO`),
//! 2. plan each insertion: circumcenter, containing triangle, cavity and
//!    the *affected set* (cavity ∪ its outer neighbours) — read-only,
//! 3. every plan reserves its affected triangles by priority
//!    (`ReservationStation` `write_min`s — the `AW` phase),
//! 4. plans holding **all** their reservations win; winners are assigned
//!    triangle/point id ranges by a prefix sum (deterministic ids),
//! 5. winners apply their cavity retriangulations in parallel: each
//!    writes its new point and its fresh triangles into slots carved off
//!    for it with `split_at_mut`, and kills and patches existing triangles
//!    through a raw shared view — sound because affected sets of winners
//!    are disjoint by construction (each reserved cell has one holder).
//!
//! A priority is `hash64(triangle id)` in the high bits and the
//! candidate's position in the low bits, as PBBS's random priorities:
//! with priorities in id order, which is the Morton insertion order,
//! neighbouring skinny triangles would hold neighbouring priorities and
//! each chain of overlapping cavities would commit only its head a round.
//! The priorities, the worklist order and so the refined mesh are a
//! function of the input alone, at any worker count.
//!
//! Skinny triangles whose circumcenter lands in super-triangle territory
//! are marked unrefinable and leave the worklist (the stand-in for
//! PBBS's boundary/encroachment handling), which with Ruppert's ratio
//! bound `√2` guarantees termination.

use rayon::prelude::*;

use rpb_concurrent::reservations::ReservationStation;
use rpb_fearless::SharedMutSlice;
use rpb_parlay::random::hash64;

use crate::mesh::{Cavity, Tri, Triangulation, NO_TRI};
use crate::point::Point;
use crate::predicates::{circumcenter, radius_edge_ratio};

/// Refinement configuration.
#[derive(Clone, Copy, Debug)]
pub struct RefineParams {
    /// Quality bound: triangles with circumradius/shortest-edge ratio
    /// above this are skinny. Ruppert termination needs `>= sqrt(2)`.
    pub max_ratio: f64,
    /// Hard cap on inserted Steiner points.
    pub max_steiner: usize,
    /// Size floor: triangles whose shortest edge is already below this
    /// are never refined (counted unrefinable). This is the practical
    /// stand-in for Ruppert's boundary/encroachment rules: without
    /// constrained hull segments, interior insertions near the hull can
    /// cascade into ever-smaller slivers; the floor bounds total work by
    /// `area / min_edge²`. `0.0` disables the floor.
    pub min_edge: f64,
}

impl Default for RefineParams {
    fn default() -> Self {
        RefineParams {
            max_ratio: std::f64::consts::SQRT_2,
            max_steiner: 1_000_000,
            min_edge: 0.0,
        }
    }
}

impl RefineParams {
    /// Parameters adapted to a point set: size floor scaled so that at
    /// most on the order of `budget_per_point × n` triangles fit the
    /// input's bounding box, and the Steiner cap set to match.
    pub fn for_points(points: &[Point], budget_per_point: usize) -> RefineParams {
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let extent = ((max_x - min_x).max(max_y - min_y)).max(1e-9);
        let budget = (budget_per_point * points.len().max(1)) as f64;
        RefineParams {
            max_ratio: std::f64::consts::SQRT_2,
            max_steiner: budget as usize,
            // Floor ~4× below the uniform budget scale: fine enough to
            // fix the dense region's skinny triangles, coarse enough to
            // stop hull-fringe cascades before the Steiner cap.
            min_edge: 0.5 * extent / budget.sqrt().max(1.0),
        }
    }
}

/// Outcome of a refinement run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Reservation/commit rounds executed (parallel) or batches (seq).
    pub rounds: usize,
    /// Steiner points inserted.
    pub inserted: usize,
    /// Commit attempts that lost their reservations and retried.
    pub retries: usize,
    /// Triangles marked unrefinable (circumcenter in ghost territory).
    pub unrefinable: usize,
}

/// One planned circumcenter insertion.
struct Plan {
    center: Point,
    cavity: Cavity,
    /// Sorted affected triangle ids: cavity ∪ outer boundary neighbours.
    affected: Vec<u32>,
}

/// Is triangle `t` a refinement candidate?
fn is_skinny(mesh: &Triangulation, t: u32, params: &RefineParams, unref: &[bool]) -> bool {
    let tri = &mesh.tris[t as usize];
    if !tri.alive || mesh.touches_ghost(t) || unref.get(t as usize).copied().unwrap_or(false) {
        return false;
    }
    let [a, b, c] = mesh.corners(t);
    if params.min_edge > 0.0 {
        let shortest = a.dist(&b).min(b.dist(&c)).min(c.dist(&a));
        if shortest < params.min_edge {
            return false; // at the size floor: unrefinable by policy
        }
    }
    match radius_edge_ratio(&a, &b, &c) {
        Some(q) => q > params.max_ratio,
        None => false, // degenerate: leave alone
    }
}

/// Builds the insertion plan for skinny triangle `t`, or `None` if the
/// triangle must be marked unrefinable.
fn make_plan(mesh: &Triangulation, t: u32) -> Option<Plan> {
    // (t is also the unrefinable-marking key held by the caller.)
    let [a, b, c] = mesh.corners(t);
    let center = circumcenter(&a, &b, &c)?;
    let start = mesh.locate(&center, t);
    if mesh.touches_ghost(start) {
        return None; // boundary territory: unrefinable
    }
    let cavity = mesh.cavity(&center, start);
    if cavity.boundary.len() < 3 {
        return None;
    }
    let mut affected: Vec<u32> = cavity.tris.clone();
    affected.extend(
        cavity
            .boundary
            .iter()
            .filter(|&&(_, _, o, _)| o != NO_TRI)
            .map(|&(_, _, o, _)| o),
    );
    affected.sort_unstable();
    affected.dedup();
    Some(Plan {
        center,
        cavity,
        affected,
    })
}

/// Parallel Delaunay refinement. Returns statistics; the mesh is refined
/// in place and stays structurally valid and locally Delaunay.
pub fn refine(mesh: &mut Triangulation, params: RefineParams) -> RefineStats {
    let mut stats = RefineStats::default();
    // The one full scan. A triangle's shape never changes, so after it the
    // candidates are the losers and the triangles the winners create.
    let mut work: Vec<u32> = (0..mesh.tris.len() as u32).collect();
    while stats.inserted < params.max_steiner {
        // 1. Candidates: skinny, and not killed by an earlier winner.
        let bad: Vec<u32> = work
            .par_iter()
            .copied()
            .filter(|&t| is_skinny(mesh, t, &params, &[]))
            .collect();
        if bad.is_empty() {
            break;
        }
        assert!(bad.len() < u32::MAX as usize, "too many candidates");
        stats.rounds += 1;
        // 2. Plans (read-only on the mesh). A priority is the triangle's
        // hash above its position: unique, a function of the mesh alone,
        // and blind to where the triangle sits, so overlapping cavities do
        // not queue behind one another in id order.
        let plans: Vec<Option<(usize, u32, Plan)>> = bad
            .par_iter()
            .enumerate()
            .map(|(i, &t)| {
                let prio = (hash64(t as u64) & !0xFFFF_FFFF) | i as u64;
                make_plan(mesh, t).map(|plan| (prio as usize, t, plan))
            })
            .collect();
        let live_plans: Vec<(usize, u32, Plan)> = plans.into_iter().flatten().collect();
        // Unrefinable candidates leave the worklist for good.
        stats.unrefinable += bad.len() - live_plans.len();
        if live_plans.is_empty() {
            break;
        }
        // 3. Reserve.
        let station = ReservationStation::new(mesh.tris.len());
        live_plans.par_iter().for_each(|(i, _, plan)| {
            for &c in &plan.affected {
                station.reserve(c as usize, *i);
            }
        });
        // 4. Winners + deterministic id assignment; losers retry.
        let won: Vec<bool> = live_plans
            .par_iter()
            .map(|(i, _, plan)| plan.affected.iter().all(|&c| station.holds(c as usize, *i)))
            .collect();
        let mut winners: Vec<&Plan> = Vec::new();
        work.clear();
        for ((_, t, plan), &w) in live_plans.iter().zip(&won) {
            if w {
                winners.push(plan);
            } else {
                work.push(*t);
            }
        }
        stats.retries += work.len();
        if winners.is_empty() {
            // Cannot happen: the lowest-priority plan always holds all its
            // reservations. Guard anyway to avoid an infinite loop.
            break;
        }
        let tri_base = mesh.tris.len();
        let point_base = mesh.points.len();
        let fresh: usize = winners.iter().map(|p| p.cavity.boundary.len()).sum();
        work.extend(tri_base as u32..(tri_base + fresh) as u32);
        // 5. Apply in parallel. Each winner writes its own new point and
        // its own window of fresh triangles, carved off the new tail with
        // `split_at_mut`; only its writes to reserved, existing triangles
        // go through a raw view.
        mesh.tris.resize(
            tri_base + fresh,
            Tri {
                v: [0; 3],
                nbr: [NO_TRI; 3],
                alive: false,
            },
        );
        mesh.points
            .resize(point_base + winners.len(), Point::default());
        {
            let (old_tris, mut rest) = mesh.tris.split_at_mut(tri_base);
            let mut jobs = Vec::with_capacity(winners.len());
            let mut base = tri_base;
            for plan in &winners {
                let k = plan.cavity.boundary.len();
                let (window, tail) = rest.split_at_mut(k);
                jobs.push((*plan, base as u32, window));
                rest = tail;
                base += k;
            }
            let old_view = SharedMutSlice::new(old_tris);
            mesh.points[point_base..]
                .par_iter_mut()
                .zip(jobs.par_iter_mut())
                .enumerate()
                .for_each(|(w, (point, (plan, base, window)))| {
                    *point = plan.center;
                    let p_idx = (point_base + w) as u32;
                    apply_cavity_raw(&old_view, window, plan, p_idx, *base);
                });
        }
        stats.inserted += winners.len();
    }
    stats
}

/// The parallel-safe version of [`Triangulation::apply_cavity`]. The
/// winner's fresh triangles `base..base + k` arrive as `fresh`, its own
/// window; the triangles it kills or patches are existing ones (below the
/// round's first fresh id) in its reserved affected set, which no other
/// winner touches.
fn apply_cavity_raw(
    old: &SharedMutSlice<'_, Tri>,
    fresh: &mut [Tri],
    plan: &Plan,
    p_idx: u32,
    base: u32,
) {
    let boundary = &plan.cavity.boundary;
    let k = boundary.len() as u32;
    // Kill the cavity.
    for &t in &plan.cavity.tris {
        // SAFETY: t is reserved by this winner.
        unsafe { old.get_mut(t as usize).alive = false };
    }
    // Chain boundary cycle.
    let mut next_edge = std::collections::HashMap::with_capacity(boundary.len());
    for &(a, b, o, oslot) in boundary {
        next_edge.insert(a, (b, o, oslot));
    }
    let start = boundary[0].0;
    let mut a = start;
    for (i, tri) in (0..k).zip(fresh.iter_mut()) {
        let (b, o, oslot) = next_edge[&a];
        let t_id = base + i;
        let nxt = base + (i + 1) % k;
        let prv = base + (i + k - 1) % k;
        *tri = Tri {
            v: [p_idx, a, b],
            nbr: [o, nxt, prv],
            alive: true,
        };
        if o != NO_TRI {
            // SAFETY: o is in the reserved affected set.
            unsafe { old.get_mut(o as usize).nbr[oslot as usize] = t_id };
        }
        a = b;
    }
    debug_assert_eq!(a, start, "boundary cycle did not close");
}

/// Sequential refinement baseline: processes the current skinny set in id
/// order, one cavity at a time.
pub fn refine_seq(mesh: &mut Triangulation, params: RefineParams) -> RefineStats {
    let mut stats = RefineStats::default();
    let mut unref = vec![false; mesh.tris.len()];
    loop {
        if stats.inserted >= params.max_steiner {
            break;
        }
        unref.resize(mesh.tris.len(), false);
        let bad: Vec<u32> = (0..mesh.tris.len() as u32)
            .filter(|&t| is_skinny(mesh, t, &params, &unref))
            .collect();
        if bad.is_empty() {
            break;
        }
        stats.rounds += 1;
        for t in bad {
            unref.resize(mesh.tris.len(), false);
            if !is_skinny(mesh, t, &params, &unref) {
                continue; // killed or fixed by an earlier insertion
            }
            match make_plan(mesh, t) {
                Some(plan) => {
                    let p_idx = mesh.points.len() as u32;
                    mesh.points.push(plan.center);
                    mesh.apply_cavity(p_idx, &plan.cavity);
                    stats.inserted += 1;
                    if stats.inserted >= params.max_steiner {
                        return stats;
                    }
                }
                None => {
                    unref[t as usize] = true;
                    stats.unrefinable += 1;
                }
            }
        }
    }
    stats
}

/// Counts alive, non-ghost triangles that remain refinable under
/// `params` (used by tests and the harness to verify the refinement
/// postcondition — a correct run leaves at most `stats.unrefinable`).
pub fn count_skinny(mesh: &Triangulation, params: &RefineParams) -> usize {
    let none = vec![false; mesh.tris.len()];
    (0..mesh.tris.len() as u32)
        .into_par_iter()
        .filter(|&t| is_skinny(mesh, t, params, &none))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delaunay::delaunay;
    use crate::point::{kuzmin_points, uniform_points};

    fn check_refined(mesh: &Triangulation, stats: &RefineStats, params: &RefineParams) {
        mesh.check_valid();
        assert!(
            stats.inserted < params.max_steiner,
            "hit the Steiner cap ({} inserted)",
            stats.inserted
        );
        let skinny = count_skinny(mesh, params);
        assert!(
            skinny <= stats.unrefinable,
            "skinny {} > unrefinable {}",
            skinny,
            stats.unrefinable
        );
        assert!(stats.inserted > 0, "refinement did nothing");
    }

    #[test]
    fn seq_refine_improves_quality() {
        let pts = kuzmin_points(200, 1);
        let params = RefineParams::for_points(&pts, 40);
        let mut mesh = delaunay(&pts);
        let before = count_skinny(&mesh, &params);
        assert!(before > 0, "input has no skinny triangles to fix");
        let stats = refine_seq(&mut mesh, params);
        check_refined(&mesh, &stats, &params);
    }

    #[test]
    fn par_refine_improves_quality() {
        let pts = kuzmin_points(200, 2);
        let params = RefineParams::for_points(&pts, 40);
        let mut mesh = delaunay(&pts);
        let stats = refine(&mut mesh, params);
        check_refined(&mesh, &stats, &params);
    }

    #[test]
    fn par_refine_uniform_points() {
        let pts = uniform_points(300, 3);
        let params = RefineParams::for_points(&pts, 40);
        let mut mesh = delaunay(&pts);
        let stats = refine(&mut mesh, params);
        check_refined(&mesh, &stats, &params);
    }

    #[test]
    fn par_refine_round_count_is_pinned() {
        // Hashed priorities let most of a round's candidates win, and the
        // worklist re-plans only losers and new triangles. Position
        // priorities or a full rescan each round move these counts.
        let pts = kuzmin_points(400, 0x4222);
        let params = RefineParams::for_points(&pts, 40);
        let mut mesh = delaunay(&pts);
        let stats = refine(&mut mesh, params);
        check_refined(&mesh, &stats, &params);
        assert_eq!(
            stats,
            RefineStats {
                rounds: 17,
                inserted: 168,
                retries: 567,
                unrefinable: 42,
            }
        );
    }

    #[test]
    fn refined_mesh_is_locally_delaunay() {
        // Every insertion maintains the empty-circumcircle property, so a
        // full Delaunay check must pass on the refined mesh too.
        let pts = uniform_points(80, 4);
        let params = RefineParams::for_points(&pts, 40);
        let mut mesh = delaunay(&pts);
        refine(&mut mesh, params);
        mesh.check_valid();
        mesh.check_delaunay();
    }

    #[test]
    fn steiner_cap_is_respected() {
        let pts = kuzmin_points(300, 5);
        let mut mesh = delaunay(&pts);
        let params = RefineParams {
            max_ratio: 1.0,
            max_steiner: 10,
            min_edge: 0.0,
        };
        let stats = refine(&mut mesh, params);
        // One round's winners may overshoot the cap slightly; never by
        // more than the final round's batch.
        assert!(
            stats.inserted <= 10 + 512,
            "cap grossly exceeded: {}",
            stats.inserted
        );
        mesh.check_valid();
    }

    #[test]
    fn par_and_seq_reach_equivalent_quality() {
        let pts = kuzmin_points(150, 6);
        let params = RefineParams::for_points(&pts, 40);
        let mut m1 = delaunay(&pts);
        let mut m2 = delaunay(&pts);
        let s1 = refine(&mut m1, params);
        let s2 = refine_seq(&mut m2, params);
        check_refined(&m1, &s1, &params);
        check_refined(&m2, &s2, &params);
    }

    #[test]
    fn size_floor_bounds_insertions() {
        // A coarse floor must terminate quickly even at an aggressive
        // quality bound.
        let pts = kuzmin_points(100, 7);
        let params = RefineParams {
            max_ratio: 1.0,
            max_steiner: 100_000,
            min_edge: 0.5,
        };
        let mut mesh = delaunay(&pts);
        let stats = refine(&mut mesh, params);
        assert!(
            stats.inserted < 20_000,
            "floor failed to bound work: {}",
            stats.inserted
        );
        mesh.check_valid();
    }
}
