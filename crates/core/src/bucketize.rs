//! Bucket-boundary extraction (the `BucketPos` computation of §IV-D).
//!
//! Given a *sorted* chunk and the sorted pivot set `X`, compute for every
//! bucket the index of its first element in the chunk. NMsort records this
//! metadata instead of eagerly scattering bucket elements to DRAM — the
//! innovation that avoids the small-transfer penalty ("Without this
//! innovation, we were unable to exploit the scratchpad effectively").
//!
//! The extraction is the paper's "multithreaded algorithm that determines
//! bucket boundaries in a sorted list": pivots are split into contiguous
//! groups, each lane binary-searches its group's starting position (a few
//! random block reads) and then scans forward linearly (sequential reads).

use crate::extsort::RegionLevel;
use crate::{ceil_lg, SortElem};
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Dir, TwoLevel};

/// Positions of bucket starts in a sorted chunk.
///
/// `positions.len() == pivots.len() + 2`: `positions[0] == 0`,
/// `positions[i]` for `1 ≤ i ≤ m` is the first index holding an element
/// `> pivots[i-1]`, and `positions[m+1] == chunk.len()`. Bucket `i` is
/// `chunk[positions[i]..positions[i+1]]`.
pub type BucketPositions = Vec<u64>;

/// Compute bucket positions for one sorted chunk resident at `level`.
pub fn bucket_positions<T: SortElem>(
    tl: &TwoLevel,
    level: RegionLevel,
    sorted: &[T],
    pivots: &[T],
    lanes: usize,
    threads: usize,
) -> BucketPositions {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "chunk not sorted");
    debug_assert!(
        pivots.windows(2).all(|w| w[0] < w[1]),
        "pivots not sorted/unique"
    );
    let m = pivots.len();
    let n = sorted.len();
    let elem = std::mem::size_of::<T>() as u64;
    if m == 0 {
        return vec![0, n as u64];
    }
    let lanes = lanes.max(1);
    let per_lane = m.div_ceil(lanes);
    let base = current_lane();

    let work = |g: usize, group: &[T]| -> Vec<u64> {
        with_lane(base + g % lanes, || {
            // Jump to the group's first boundary with a binary search:
            // lg(n) random reads at `level`.
            let first = group[0];
            let mut idx = crate::kernels::simd::partition_point_le(sorted, &first);
            let probes = ceil_lg(n);
            match level {
                RegionLevel::Near => tl.charge_near_random(Dir::Read, probes, probes * elem),
                RegionLevel::Far => tl.charge_far_random(Dir::Read, probes, probes * elem),
            }
            tl.charge_compute(probes);

            // Walk forward for the remaining boundaries in the group. The
            // scan is sequential; we charge the bytes actually inspected.
            let scan_start = idx;
            let mut out = Vec::with_capacity(group.len());
            out.push(idx as u64);
            for p in &group[1..] {
                // Sequential boundary scan; the SIMD kernel inspects the
                // same elements a scalar walk would, so the charged scan
                // length below is unchanged by dispatch.
                idx += crate::kernels::simd::count_le(&sorted[idx..], p);
                out.push(idx as u64);
            }
            let scanned = (idx - scan_start) as u64;
            let bytes = scanned * elem;
            match level {
                RegionLevel::Near => tl.charge_near_io(Dir::Read, bytes),
                RegionLevel::Far => tl.charge_far_io(Dir::Read, bytes),
            }
            tl.charge_compute(scanned + group.len() as u64);
            out
        })
    };

    let boundary_lists = crate::pool::map_indexed(threads, pivots.chunks(per_lane), work);

    let mut positions = Vec::with_capacity(m + 2);
    positions.push(0);
    for list in boundary_lists {
        positions.extend(list);
    }
    positions.push(n as u64);
    positions
}

/// Add one chunk's bucket sizes into the global `BucketTot` array (which
/// lives in the scratchpad for the entire run). Charges a near read+write
/// of the totals, striped across the `lanes` that update disjoint ranges.
pub fn accumulate_totals(
    tl: &TwoLevel,
    totals: &mut [u64],
    positions: &BucketPositions,
    lanes: usize,
) {
    assert_eq!(
        totals.len() + 1,
        positions.len(),
        "totals/positions mismatch"
    );
    for (i, t) in totals.iter_mut().enumerate() {
        let size = positions[i + 1] - positions[i];
        *t += size;
    }
    // Batched: one atomic flush per non-empty log2 bucket instead of three
    // atomics per bucket-size sample (this loop runs per chunk).
    tlmm_telemetry::histogram!("core.bucketize.bucket_elems")
        .record_iter((0..totals.len()).map(|i| positions[i + 1] - positions[i]));
    let lanes = lanes.max(1);
    let per = totals.len().div_ceil(lanes).max(1);
    let base = current_lane();
    let mut at = 0usize;
    let mut lane = 0usize;
    while at < totals.len() {
        let take = per.min(totals.len() - at);
        with_lane(base + lane, || {
            let bytes = (take * 8) as u64;
            tl.charge_near_io(Dir::Read, bytes);
            tl.charge_near_io(Dir::Write, bytes);
            tl.charge_compute(take as u64);
        });
        at += take;
        lane = (lane + 1) % lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn brute_positions(sorted: &[u64], pivots: &[u64]) -> Vec<u64> {
        let mut pos = vec![0u64];
        for p in pivots {
            pos.push(sorted.partition_point(|x| x <= p) as u64);
        }
        pos.push(sorted.len() as u64);
        pos
    }

    #[test]
    fn matches_brute_force() {
        let tl = tl();
        let sorted: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let pivots = vec![10, 100, 101, 102, 2000, 2997];
        for lanes in [1, 2, 3, 8] {
            let got = bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, lanes, 1);
            assert_eq!(got, brute_positions(&sorted, &pivots), "lanes={lanes}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let tl = tl();
        let sorted: Vec<u64> = (0..10_000).map(|i| i / 3).collect();
        let pivots: Vec<u64> = (0..64).map(|i| i * 50).collect();
        let a = bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, 8, 4);
        let b = bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, 8, 1);
        assert_eq!(a, b);
        assert_eq!(a, brute_positions(&sorted, &pivots));
    }

    #[test]
    fn positions_partition_the_chunk() {
        let tl = tl();
        let sorted: Vec<u64> = vec![5; 100]; // all equal
        let pivots = vec![1, 5, 9];
        let pos = bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, 4, 1);
        assert_eq!(pos, vec![0, 0, 100, 100, 100]);
        // Elements equal to pivot 5 land in bucket 1 ((1, 5]).
    }

    #[test]
    fn empty_chunk_and_empty_pivots() {
        let tl = tl();
        let pos = bucket_positions::<u64>(&tl, RegionLevel::Near, &[], &[1, 2], 2, 1);
        assert_eq!(pos, vec![0, 0, 0, 0]);
        let sorted = vec![1u64, 2, 3];
        let pos = bucket_positions(&tl, RegionLevel::Near, &sorted, &[], 2, 1);
        assert_eq!(pos, vec![0, 3]);
    }

    #[test]
    fn pivots_outside_range() {
        let tl = tl();
        let sorted: Vec<u64> = (100..200).collect();
        let pos = bucket_positions(&tl, RegionLevel::Near, &sorted, &[1, 2, 3], 1, 1);
        assert_eq!(pos, vec![0, 0, 0, 0, 100]);
        let pos = bucket_positions(&tl, RegionLevel::Near, &sorted, &[500, 600], 1, 1);
        assert_eq!(pos, vec![0, 100, 100, 100]);
    }

    #[test]
    fn accumulate_totals_sums_sizes() {
        let tl = tl();
        let mut totals = vec![0u64; 3];
        accumulate_totals(&tl, &mut totals, &vec![0, 10, 10, 25], 2);
        accumulate_totals(&tl, &mut totals, &vec![0, 5, 20, 30], 2);
        assert_eq!(totals, vec![15, 15, 25]);
        assert!(tl.ledger().snapshot().near_bytes > 0);
    }

    #[test]
    fn charges_scale_with_scan_not_with_n_times_m() {
        // The merge-scan extraction touches each chunk element about once in
        // total, so near traffic should be O(n + lanes·lg n) elements, far
        // below m·lg(n) random probes.
        let tl = tl();
        let n = 100_000usize;
        let sorted: Vec<u64> = (0..n as u64).collect();
        let pivots: Vec<u64> = (1..1000).map(|i| i * 100).collect();
        bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, 4, 1);
        let s = tl.ledger().snapshot();
        let elem = 8u64;
        assert!(
            s.near_bytes <= (n as u64 + 4 * 64) * elem,
            "near bytes {} too large",
            s.near_bytes
        );
    }
}
