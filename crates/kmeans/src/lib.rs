//! k-means clustering on a two-level memory (§VII future work).
//!
//! The paper reports preliminary k-means algorithms that "run a factor of ρ
//! faster using scratchpad for many sizes of data and k". The mechanism is
//! simple and instructive: Lloyd's algorithm is a bandwidth-bound streaming
//! kernel — every iteration reads all `n·d` coordinates once while the
//! `k·d` centroids stay cache-resident. Staging the points in the
//! scratchpad once lets every subsequent iteration stream at `ρ×` the DRAM
//! bandwidth.
//!
//! Two implementations share the same numerics (identical results for
//! identical seeds) and differ only in data placement:
//!
//! * [`kmeans_far`] — points stream from DRAM every iteration (baseline).
//! * [`kmeans_near`] — points are tiled into the scratchpad once; iterations
//!   stream the resident fraction from near memory and only the overflow
//!   (when `n·d` exceeds the scratchpad) from DRAM.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlmm_core::extsort::RegionLevel;
use tlmm_core::par::{charge_compute_striped, charge_io_striped};
use tlmm_core::pool::{host_threads, map_indexed};
use tlmm_scratchpad::trace::with_lane;
use tlmm_scratchpad::{Dir, FarArray, SpError, TwoLevel};

/// Tuning for both k-means variants.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Clusters.
    pub k: usize,
    /// Dimensions per point.
    pub dim: usize,
    /// Iteration cap.
    pub max_iters: u32,
    /// Convergence threshold on squared centroid displacement.
    pub tol: f64,
    /// Seed for centroid initialisation.
    pub seed: u64,
    /// Virtual lanes (simulated cores).
    pub sim_lanes: usize,
    /// Real host parallelism.
    pub parallel: bool,
    /// For [`kmeans_tiled`]: mark tile loads overlappable (DMA prefetching,
    /// §VII). `false` models the paper's blocking prototype.
    pub prefetch: bool,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            k: 8,
            dim: 4,
            max_iters: 50,
            tol: 1e-9,
            seed: 0xBEEF,
            sim_lanes: 8,
            parallel: true,
            prefetch: true,
        }
    }
}

/// Output of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Flat `k × dim` centroid matrix.
    pub centroids: Vec<f64>,
    /// Cluster index per point.
    pub assignments: Vec<u32>,
    /// Iterations executed (including the converging one).
    pub iterations: u32,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

/// Generate `n` points in `dim` dimensions around `k` Gaussian blobs
/// (Box–Muller; no external distribution crate needed). Returns the flat
/// `n × dim` coordinate array.
pub fn generate_blobs(n: usize, dim: usize, k: usize, spread: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<f64> = (0..k.max(1) * dim)
        .map(|_| rng.gen_range(-100.0..100.0))
        .collect();
    let gauss = move |rng: &mut StdRng| {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        (-2.0 * u1.ln()).sqrt() * u2.cos()
    };
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = i % k.max(1);
        for j in 0..dim {
            out.push(centers[c * dim + j] + spread * gauss(&mut rng));
        }
    }
    out
}

/// k-means++ seeding (Arthur & Vassilvitskii): the first centroid is
/// uniform, each further one is drawn with probability proportional to its
/// squared distance from the nearest chosen centroid. Costs one streaming
/// pass over the points per centroid, charged to far memory (seeding
/// happens before any scratchpad staging).
fn init_centroids(tl: &TwoLevel, points: &[f64], n: usize, cfg: &KMeansConfig) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let d = cfg.dim.max(1);
    let n = n.max(1);
    let mut centroids = Vec::with_capacity(cfg.k * d);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(&points[first * d..(first + 1) * d]);
    tl.charge_far_random(Dir::Read, 1, (d * 8) as u64);

    let mut dist2 = vec![f64::INFINITY; n];
    for _ in 1..cfg.k {
        let newest = &centroids[centroids.len() - d..];
        let mut total = 0.0;
        for (i, p) in points.chunks_exact(d).enumerate() {
            let mut s = 0.0;
            for j in 0..d {
                let diff = p[j] - newest[j];
                s += diff * diff;
            }
            dist2[i] = dist2[i].min(s);
            total += dist2[i];
        }
        // One streaming pass over the points per added centroid, striped
        // across the node's lanes.
        charge_io_striped(
            tl,
            RegionLevel::Far,
            Dir::Read,
            (points.len() * 8) as u64,
            cfg.sim_lanes,
        );
        tl.charge_compute((n * d) as u64);
        let pick = if total > 0.0 {
            let target = rng.gen_range(0.0..total);
            let mut acc = 0.0;
            let mut idx = n - 1;
            for (i, &w) in dist2.iter().enumerate() {
                acc += w;
                if acc >= target {
                    idx = i;
                    break;
                }
            }
            idx
        } else {
            rng.gen_range(0..n)
        };
        centroids.extend_from_slice(&points[pick * d..(pick + 1) * d]);
        tl.charge_far_random(Dir::Read, 1, (d * 8) as u64);
    }
    centroids
}

/// One assignment+accumulate pass over a stripe of points. Returns
/// `(sums, counts, inertia, changed)`.
#[allow(clippy::type_complexity)]
fn assign_stripe(
    points: &[f64],
    centroids: &[f64],
    assignments: &mut [u32],
    k: usize,
    d: usize,
) -> (Vec<f64>, Vec<u64>, f64, u64) {
    let mut sums = vec![0.0f64; k * d];
    let mut counts = vec![0u64; k];
    let mut inertia = 0.0f64;
    let mut changed = 0u64;
    for (p, a) in points.chunks_exact(d).zip(assignments.iter_mut()) {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for c in 0..k {
            let mut dist = 0.0;
            for j in 0..d {
                let diff = p[j] - centroids[c * d + j];
                dist += diff * diff;
            }
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        if *a != best as u32 {
            changed += 1;
        }
        *a = best as u32;
        inertia += best_d;
        counts[best] += 1;
        for j in 0..d {
            sums[best * d + j] += p[j];
        }
    }
    (sums, counts, inertia, changed)
}

/// Shared Lloyd's loop; the first `near_elems` of the flat array live in
/// the scratchpad, the rest in DRAM (0 = pure baseline).
fn lloyd(tl: &TwoLevel, points: &[f64], near_elems: usize, cfg: &KMeansConfig) -> KMeansResult {
    let d = cfg.dim.max(1);
    let k = cfg.k.max(1);
    let n = points.len() / d;
    let lanes = cfg.sim_lanes.max(1);
    let mut centroids = init_centroids(tl, points, n, cfg);
    let mut assignments = vec![u32::MAX; n];
    let mut iterations = 0;
    let mut inertia = 0.0;

    // Stripe the points across lanes (whole points, not raw elements).
    let per_lane_pts = n.div_ceil(lanes).max(1);

    for _iter in 0..cfg.max_iters {
        iterations += 1;
        tl.begin_phase("kmeans.iter");
        let stripes: Vec<(usize, &[f64], &mut [u32])> = {
            let mut res = Vec::new();
            let mut pts = points;
            let mut asn = assignments.as_mut_slice();
            let mut idx = 0usize;
            while !pts.is_empty() {
                let take = per_lane_pts.min(pts.len() / d);
                let (pa, pb) = pts.split_at(take * d);
                let (aa, ab) = asn.split_at_mut(take);
                res.push((idx, pa, aa));
                pts = pb;
                asn = ab;
                idx += take;
            }
            res
        };
        let centroids_ref = &centroids;
        let work = |lane: usize, (base, pts, asn): (usize, &[f64], &mut [u32])| {
            with_lane(lane % lanes, || {
                // Stream this stripe's coordinates from wherever they live.
                let lo_elem = base * d;
                let hi_elem = lo_elem + pts.len();
                let near_part = hi_elem.min(near_elems).saturating_sub(lo_elem);
                let far_part = pts.len() - near_part;
                if near_part > 0 {
                    tl.charge_near_io(Dir::Read, (near_part * 8) as u64);
                }
                if far_part > 0 {
                    tl.charge_far_io(Dir::Read, (far_part * 8) as u64);
                }
                let r = assign_stripe(pts, centroids_ref, asn, k, d);
                // One multiply-add + compare per coordinate per centroid.
                tl.charge_compute((pts.len() * k) as u64);
                r
            })
        };
        let threads = if cfg.parallel { host_threads() } else { 1 };
        let partials = map_indexed(threads, stripes, work);

        // Reduce partials (k*d doubles — cache-resident, compute only).
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        inertia = 0.0;
        let mut changed = 0u64;
        for (s, c, i, ch) in partials {
            for (a, b) in sums.iter_mut().zip(s) {
                *a += b;
            }
            for (a, b) in counts.iter_mut().zip(c) {
                *a += b;
            }
            inertia += i;
            changed += ch;
        }
        tl.charge_compute((k * d) as u64);

        // Update step with convergence test.
        let mut max_shift = 0.0f64;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // keep the old centroid for empty clusters
            }
            let mut shift = 0.0;
            for j in 0..d {
                let newv = sums[c * d + j] / counts[c] as f64;
                let diff = newv - centroids[c * d + j];
                shift += diff * diff;
                centroids[c * d + j] = newv;
            }
            max_shift = max_shift.max(shift);
        }
        tl.end_phase();
        if changed == 0 || max_shift < cfg.tol {
            break;
        }
    }
    KMeansResult {
        centroids,
        assignments,
        iterations,
        inertia,
    }
}

/// Baseline: points stream from DRAM every iteration.
pub fn kmeans_far(tl: &TwoLevel, points: &FarArray<f64>, cfg: &KMeansConfig) -> KMeansResult {
    lloyd(tl, points.as_slice_uncharged(), 0, cfg)
}

/// Prefetching variant (§VII: k-means "which take advantage of
/// prefetching"): points that do not fit the scratchpad are streamed
/// through it in double-buffered tiles whose loads are marked
/// overlappable, so the simulator (like DMA hardware) hides the far-memory
/// traffic behind the previous tile's distance computations. Numerics are
/// identical to [`kmeans_far`]/[`kmeans_near`].
pub fn kmeans_tiled(
    tl: &TwoLevel,
    points: &FarArray<f64>,
    cfg: &KMeansConfig,
) -> Result<KMeansResult, SpError> {
    let d = cfg.dim.max(1);
    let k = cfg.k.max(1);
    let pts = points.as_slice_uncharged();
    let n = pts.len() / d;
    let lanes = cfg.sim_lanes.max(1);

    // Geometry: resident region + two tile buffers, whole points only.
    let avail = tl.near_available_elems::<f64>().saturating_sub(1024);
    let tile_elems = ((avail / 8) / d).max(1) * d;
    let resident_elems = (avail.saturating_sub(2 * tile_elems) / d).min(n) * d;
    let _resident = tl.near_alloc::<f64>(resident_elems)?;
    let _tiles = tl.near_alloc::<f64>(2 * tile_elems)?;

    let mut centroids = init_centroids(tl, pts, n, cfg);
    let mut assignments = vec![u32::MAX; n];
    let mut iterations = 0;
    let mut inertia = 0.0;

    // One-off staging of the resident region.
    let resident_bytes = (resident_elems * 8) as u64;
    tl.begin_phase("kmeans.load");
    charge_io_striped(tl, RegionLevel::Far, Dir::Read, resident_bytes, lanes);
    charge_io_striped(tl, RegionLevel::Near, Dir::Write, resident_bytes, lanes);
    tl.end_phase();

    for _iter in 0..cfg.max_iters {
        iterations += 1;
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        inertia = 0.0;
        let mut changed = 0u64;
        let mut fold = |r: (Vec<f64>, Vec<u64>, f64, u64)| {
            for (a, b) in sums.iter_mut().zip(r.0) {
                *a += b;
            }
            for (a, b) in counts.iter_mut().zip(r.1) {
                *a += b;
            }
            inertia += r.2;
            changed += r.3;
        };

        // Resident part: streams from the scratchpad.
        tl.begin_phase("kmeans.iter");
        if resident_elems > 0 {
            charge_io_striped(tl, RegionLevel::Near, Dir::Read, resident_bytes, lanes);
            let res_pts = resident_elems / d;
            fold(assign_stripe(
                &pts[..resident_elems],
                &centroids,
                &mut assignments[..res_pts],
                k,
                d,
            ));
            charge_compute_striped(tl, (resident_elems * k) as u64, lanes);
        }

        // Non-resident tail: double-buffered tiles. Each load phase is
        // overlappable — it hides behind the previous tile's assign phase.
        let mut off = resident_elems;
        while off < n * d {
            let hi = (off + tile_elems).min(n * d);
            tl.begin_phase("kmeans.tile.load");
            if cfg.prefetch {
                tl.mark_phase_overlappable();
            }
            let tile_bytes = ((hi - off) * 8) as u64;
            charge_io_striped(tl, RegionLevel::Far, Dir::Read, tile_bytes, lanes);
            charge_io_striped(tl, RegionLevel::Near, Dir::Write, tile_bytes, lanes);
            tl.begin_phase("kmeans.tile.assign");
            charge_io_striped(tl, RegionLevel::Near, Dir::Read, tile_bytes, lanes);
            fold(assign_stripe(
                &pts[off..hi],
                &centroids,
                &mut assignments[off / d..hi / d],
                k,
                d,
            ));
            charge_compute_striped(tl, ((hi - off) * k) as u64, lanes);
            tl.end_phase();
            off = hi;
        }

        tl.charge_compute((k * d) as u64);
        let mut max_shift = 0.0f64;
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            let mut shift = 0.0;
            for j in 0..d {
                let newv = sums[c * d + j] / counts[c] as f64;
                let diff = newv - centroids[c * d + j];
                shift += diff * diff;
                centroids[c * d + j] = newv;
            }
            max_shift = max_shift.max(shift);
        }
        tl.end_phase();
        if changed == 0 || max_shift < cfg.tol {
            break;
        }
    }
    Ok(KMeansResult {
        centroids,
        assignments,
        iterations,
        inertia,
    })
}

/// Scratchpad variant: stage as many points as fit into near memory once,
/// then iterate streaming the resident part at scratchpad bandwidth.
pub fn kmeans_near(
    tl: &TwoLevel,
    points: &FarArray<f64>,
    cfg: &KMeansConfig,
) -> Result<KMeansResult, SpError> {
    let total = points.len();
    let d = cfg.dim.max(1);
    // Whole points only; leave a little headroom for centroids/bookkeeping.
    let avail = tl.near_available_elems::<f64>().saturating_sub(1024);
    let near_pts = (avail / d).min(total / d);
    let near_elems = near_pts * d;
    let _resident = tl.near_alloc::<f64>(near_elems)?;
    let (bytes, lanes) = ((near_elems * 8) as u64, cfg.sim_lanes);
    tl.begin_phase("kmeans.load");
    // One streaming copy DRAM -> scratchpad, striped across lanes.
    charge_io_striped(tl, RegionLevel::Far, Dir::Read, bytes, lanes);
    charge_io_striped(tl, RegionLevel::Near, Dir::Write, bytes, lanes);
    tl.end_phase();
    Ok(lloyd(tl, points.as_slice_uncharged(), near_elems, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn cfg(k: usize, d: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            dim: d,
            ..Default::default()
        }
    }

    #[test]
    fn blobs_have_expected_shape() {
        let pts = generate_blobs(1000, 3, 4, 0.5, 1);
        assert_eq!(pts.len(), 3000);
        assert!(pts.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn converges_on_separated_blobs() {
        let tl = tl();
        let pts = generate_blobs(2000, 2, 4, 0.1, 2);
        let arr = tl.far_from_vec(pts);
        let r = kmeans_far(&tl, &arr, &cfg(4, 2));
        assert!(r.iterations < 50, "should converge, took {}", r.iterations);
        // Tight, well-separated blobs with k-means++ seeding: inertia per
        // point should be on the order of dim·spread², far below the
        // blob-merging local optima (~10^3 here).
        let per_point = r.inertia / 2000.0;
        assert!(per_point < 1.0, "inertia/pt {per_point}");
    }

    #[test]
    fn near_and_far_agree_numerically() {
        let tl = tl();
        let pts = generate_blobs(3000, 3, 5, 1.0, 3);
        let arr = tl.far_from_vec(pts);
        let a = kmeans_far(&tl, &arr, &cfg(5, 3));
        let b = kmeans_near(&tl, &arr, &cfg(5, 3)).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.iterations, b.iterations);
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn far_variant_never_touches_scratchpad() {
        let tl = tl();
        let arr = tl.far_from_vec(generate_blobs(1000, 2, 3, 1.0, 4));
        kmeans_far(&tl, &arr, &cfg(3, 2));
        assert_eq!(tl.ledger().snapshot().near_bytes, 0);
    }

    #[test]
    fn near_variant_moves_iteration_traffic_to_scratchpad() {
        // 1000 pts * 2 dims * 8 B = 16 KB fits the 1 MiB scratchpad fully.
        let tl = tl();
        let arr = tl.far_from_vec(generate_blobs(1000, 2, 3, 1.0, 5));
        let r = kmeans_near(&tl, &arr, &cfg(3, 2)).unwrap();
        let s = tl.ledger().snapshot();
        let data_bytes = 16_000u64;
        // Far traffic: one staging pass plus k-1 k-means++ seeding passes —
        // independent of the iteration count.
        assert!(
            s.far_bytes < 4 * data_bytes,
            "far bytes {} should be ~3 passes",
            s.far_bytes
        );
        // Near traffic: one write + one read per iteration.
        assert!(
            s.near_bytes >= data_bytes * (r.iterations as u64),
            "near bytes {} iterations {}",
            s.near_bytes,
            r.iterations
        );
    }

    #[test]
    fn partial_residency_splits_traffic() {
        // 1 MiB scratchpad, 131072 f64 capacity; make a 300k-element input.
        let tl = tl();
        let n = 50_000;
        let d = 6; // 300k elements = 2.4 MB > 1 MiB
        let arr = tl.far_from_vec(generate_blobs(n, d, 4, 1.0, 6));
        kmeans_near(&tl, &arr, &cfg(4, d)).unwrap();
        let s = tl.ledger().snapshot();
        assert!(s.near_bytes > 0);
        // Far per-iteration traffic exists (the non-resident tail).
        assert!(s.far_bytes > (n * d * 8) as u64);
    }

    #[test]
    fn tiled_matches_far_numerically() {
        let tl = tl();
        // 2.4 MB of points > 1 MiB scratchpad: forces real tiling.
        let n = 50_000;
        let d = 6;
        let pts = generate_blobs(n, d, 4, 1.0, 8);
        let arr = tl.far_from_vec(pts);
        let a = kmeans_far(&tl, &arr, &cfg(4, d));
        let b = kmeans_tiled(&tl, &arr, &cfg(4, d)).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.iterations, b.iterations);
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn tiled_marks_tile_loads_overlappable() {
        let tl = tl();
        let n = 50_000;
        let d = 6;
        let arr = tl.far_from_vec(generate_blobs(n, d, 4, 1.0, 9));
        kmeans_tiled(&tl, &arr, &cfg(4, d)).unwrap();
        let t = tl.take_trace();
        let loads: Vec<_> = t
            .phases
            .iter()
            .filter(|p| p.name == "kmeans.tile.load")
            .collect();
        assert!(!loads.is_empty(), "oversized input must produce tiles");
        assert!(loads.iter().all(|p| p.overlappable));
        // Every load is followed by its assign phase.
        assert!(t.phases.iter().any(|p| p.name == "kmeans.tile.assign"));
    }

    #[test]
    fn tiled_fits_entirely_when_small() {
        let tl = tl();
        let arr = tl.far_from_vec(generate_blobs(2000, 2, 3, 1.0, 10));
        let r = kmeans_tiled(&tl, &arr, &cfg(3, 2)).unwrap();
        let t = tl.take_trace();
        // No tiles needed: everything resident.
        assert!(t.phases.iter().all(|p| p.name != "kmeans.tile.load"));
        assert!(r.iterations >= 1);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let tl = tl();
        let pts = generate_blobs(2000, 2, 4, 1.0, 7);
        let arr = tl.far_from_vec(pts);
        let mut c = cfg(4, 2);
        c.parallel = false;
        let a = kmeans_far(&tl, &arr, &c);
        c.parallel = true;
        let b = kmeans_far(&tl, &arr, &c);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn handles_k_larger_than_distinct_points() {
        let tl = tl();
        // 10 identical points, k=4: empty clusters keep old centroids.
        let pts = vec![1.0f64; 10 * 2];
        let arr = tl.far_from_vec(pts);
        let r = kmeans_far(&tl, &arr, &cfg(4, 2));
        assert_eq!(r.assignments.len(), 10);
        assert!(r.inertia < 1e-18);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let tl = tl();
        let pts = vec![0.0f64, 0.0, 2.0, 2.0, 4.0, 4.0];
        let arr = tl.far_from_vec(pts);
        let mut c = cfg(1, 2);
        c.max_iters = 10;
        let r = kmeans_far(&tl, &arr, &c);
        assert!((r.centroids[0] - 2.0).abs() < 1e-12);
        assert!((r.centroids[1] - 2.0).abs() < 1e-12);
    }
}
