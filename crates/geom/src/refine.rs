//! Delaunay refinement (`dr`): eliminate skinny triangles by inserting
//! circumcenters, in parallel rounds coordinated with deterministic
//! reservations.
//!
//! Per round:
//! 1. collect skinny alive triangles (read-only filter — `RO`),
//! 2. plan each insertion: circumcenter, containing triangle, cavity and
//!    the *affected set* (cavity ∪ its outer neighbours) — read-only,
//! 3. every plan reserves its affected triangles by priority
//!    (`ReservationStation` `write_min`s — the `AW` phase),
//! 4. plans holding **all** their reservations win; winners are assigned
//!    triangle/point id ranges by a prefix sum (deterministic ids),
//! 5. winners apply their cavity retriangulations in parallel through a
//!    raw shared view — sound because affected sets of winners are
//!    disjoint by construction (each reserved cell has one holder).
//!
//! Losers retry next round. Skinny triangles whose circumcenter lands in
//! super-triangle territory are marked unrefinable (the stand-in for
//! PBBS's boundary/encroachment handling), which with Ruppert's ratio
//! bound `√2` guarantees termination.

use rayon::prelude::*;

use rpb_concurrent::reservations::ReservationStation;
use rpb_fearless::SharedMutSlice;

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
    let mut unref = vec![false; mesh.tris.len()];
    loop {
        if stats.inserted >= params.max_steiner {
            break;
        }
        unref.resize(mesh.tris.len(), false);
        // 1. Candidates, ascending id = deterministic priorities.
        let bad: Vec<u32> = (0..mesh.tris.len() as u32)
            .into_par_iter()
            .filter(|&t| is_skinny(mesh, t, &params, &unref))
            .collect();
        if bad.is_empty() {
            break;
        }
        stats.rounds += 1;
        // 2. Plans (read-only on the mesh).
        let plans: Vec<(usize, Option<Plan>)> = bad
            .par_iter()
            .enumerate()
            .map(|(i, &t)| (i, make_plan(mesh, t)))
            .collect();
        // Mark unrefinable sources.
        for (_, p) in plans.iter().filter(|(_, p)| p.is_none()) {
            let _ = p;
        }
        let mut live_plans: Vec<(usize, Plan)> = Vec::with_capacity(plans.len());
        for (i, p) in plans {
            match p {
                Some(plan) => live_plans.push((i, plan)),
                None => {
                    unref[bad[i] as usize] = true;
                    stats.unrefinable += 1;
                }
            }
        }
        if live_plans.is_empty() {
            continue;
        }
        // 3. Reserve.
        let station = ReservationStation::new(mesh.tris.len());
        live_plans.par_iter().for_each(|(i, plan)| {
            for &c in &plan.affected {
                station.reserve(c as usize, *i);
            }
        });
        // 4. Winners + deterministic id assignment.
        let winners: Vec<&(usize, Plan)> = live_plans
            .par_iter()
            .filter(|(i, plan)| plan.affected.iter().all(|&c| station.holds(c as usize, *i)))
            .collect();
        stats.retries += live_plans.len() - winners.len();
        if winners.is_empty() {
            // Cannot happen: the lowest-priority plan always holds all its
            // reservations. Guard anyway to avoid an infinite loop.
            break;
        }
        let tri_base = mesh.tris.len();
        let point_base = mesh.points.len();
        let mut tri_offsets = Vec::with_capacity(winners.len());
        let mut acc = tri_base;
        for (_, plan) in winners.iter() {
            tri_offsets.push(acc);
            acc += plan.cavity.boundary.len();
        }
        // 5. Apply in parallel through raw views.
        mesh.tris.resize(
            acc,
            Tri {
                v: [0; 3],
                nbr: [NO_TRI; 3],
                alive: false,
            },
        );
        mesh.points
            .resize(point_base + winners.len(), Point::default());
        {
            let tris_view = SharedMutSlice::new(&mut mesh.tris);
            let pts_view = SharedMutSlice::new(&mut mesh.points);
            winners.par_iter().enumerate().for_each(|(w, (_, plan))| {
                let p_idx = (point_base + w) as u32;
                // SAFETY: slot p_idx is written by exactly this winner.
                unsafe { pts_view.write(p_idx as usize, plan.center) };
                apply_cavity_raw(&tris_view, plan, p_idx, tri_offsets[w] as u32);
            });
        }
        stats.inserted += winners.len();
        unref.resize(mesh.tris.len(), false);
    }
    stats
}

/// The parallel-safe version of [`Triangulation::apply_cavity`]: all
/// mutated triangle slots are either in the winner's reserved affected
/// set or in its exclusively assigned fresh range.
fn apply_cavity_raw(tris: &SharedMutSlice<'_, Tri>, plan: &Plan, p_idx: u32, base: u32) {
    let boundary = &plan.cavity.boundary;
    let k = boundary.len() as u32;
    // Kill the cavity.
    for &t in &plan.cavity.tris {
        // SAFETY: t is reserved by this winner.
        unsafe { tris.get_mut(t as usize).alive = false };
    }
    // Chain boundary cycle.
    let mut next_edge = std::collections::HashMap::with_capacity(boundary.len());
    for &(a, b, o, oslot) in boundary {
        next_edge.insert(a, (b, o, oslot));
    }
    let start = boundary[0].0;
    let mut a = start;
    for i in 0..k {
        let (b, o, oslot) = next_edge[&a];
        let t_id = base + i;
        let nxt = base + (i + 1) % k;
        let prv = base + (i + k - 1) % k;
        // SAFETY: t_id is in this winner's fresh range.
        unsafe {
            *tris.get_mut(t_id as usize) = Tri {
                v: [p_idx, a, b],
                nbr: [o, nxt, prv],
                alive: true,
            };
        }
        if o != NO_TRI {
            // SAFETY: o is in the reserved affected set.
            unsafe { tris.get_mut(o as usize).nbr[oslot as usize] = t_id };
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
