//! The single-level baseline: GNU-parallel-class multiway mergesort.
//!
//! Table I compares NMsort against "the GNU parallel C++ library's multi-way
//! merge sort (originally from the MCSTL)", running entirely out of
//! conventional DRAM. This module is that comparator: `p` simulated threads
//! each sort a contiguous run with an introsort, then the sorted runs are
//! multiway-merged (single pass when the cache can hold one input buffer per
//! run, as on the Fig. 4 machine).
//!
//! Cost accounting models what the SST simulation measures: an introsort's
//! partitioning passes stream the run through DRAM once per level *above*
//! the point where the subproblem fits the per-thread cache share, plus one
//! final in-cache pass; the merge streams everything once more per round.
//! The scratchpad is never touched — "GNU Sort" has zero scratchpad
//! accesses in Table I by construction.

use crate::extsort::{merge_rounds, RegionLevel};
use crate::{ceil_lg, SortElem, SortError};
use tlmm_scratchpad::trace::with_lane;
use tlmm_scratchpad::{Dir, FarArray, TwoLevel};

/// Tuning knobs for [`baseline_sort`].
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Simulated threads `p` (= number of initial runs). The paper's machine
    /// has 256.
    pub sim_lanes: usize,
    /// Host worker threads sorting runs and merging groups (1 = inline).
    pub threads: usize,
    /// Per-thread effective cache share in bytes. Default: `Z / sim_lanes`.
    pub cache_per_lane_bytes: Option<u64>,
    /// Merge fan-in. Default: one `B`-sized input buffer per half cache,
    /// clamped to the run count (single-pass merge on big caches, like the
    /// MCSTL merge).
    pub fanout: Option<usize>,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            sim_lanes: 8,
            threads: crate::pool::host_threads(),
            cache_per_lane_bytes: None,
            fanout: None,
        }
    }
}

/// Result of a [`baseline_sort`] run.
#[derive(Debug)]
pub struct BaselineReport<T> {
    /// Sorted output (far memory).
    pub output: FarArray<T>,
    /// Initial sorted runs (= simulated threads).
    pub runs: usize,
    /// Introsort partitioning passes charged per run (levels above cache).
    pub partition_passes: u32,
    /// Multiway merge rounds.
    pub merge_rounds: u32,
}

/// Sort `input` with the DRAM-only parallel multiway mergesort.
pub fn baseline_sort<T: SortElem>(
    tl: &TwoLevel,
    input: FarArray<T>,
    cfg: &BaselineConfig,
) -> Result<BaselineReport<T>, SortError> {
    let n = input.len();
    let p = cfg.sim_lanes.max(1);
    crate::pool::validate_threads(cfg.threads)?;
    let elem = std::mem::size_of::<T>() as u64;
    let mut data = input;
    if n <= 1 {
        return Ok(BaselineReport {
            output: data,
            runs: n,
            partition_passes: 0,
            merge_rounds: 0,
        });
    }
    let _run_span = tlmm_telemetry::span!("baseline_sort");
    let run_elems = n.div_ceil(p);
    let zc_bytes = cfg
        .cache_per_lane_bytes
        .unwrap_or_else(|| (tl.params().cache_bytes / p as u64).max(1));
    let zc_elems = (zc_bytes / elem.max(1)).max(1) as usize;
    // Introsort levels whose subproblems exceed the thread's cache share:
    // each streams the whole run through DRAM once (read + write), plus one
    // final pass for the in-cache base sorts.
    let depth_above = if run_elems > zc_elems {
        ceil_lg(run_elems.div_ceil(zc_elems)) as u32
    } else {
        0
    };
    let passes = depth_above + 1;

    // ---- Run sorting ----------------------------------------------------
    // Phase boundary: cooperative cancellation / deadline check.
    tl.checkpoint()?;
    tl.begin_phase("baseline.run_sort");
    let runs = data.as_mut_slice_uncharged().chunks_mut(run_elems);
    crate::pool::run_indexed(cfg.threads, runs, |r, run| {
        with_lane(r % p, || {
            let bytes = run.len() as u64 * elem;
            for _ in 0..passes {
                tl.charge_far_io(Dir::Read, bytes);
                tl.charge_far_io(Dir::Write, bytes);
            }
            crate::kernels::sort_kernel(run);
            tl.charge_compute(run.len() as u64 * ceil_lg(run.len()));
        })
    });
    let n_runs = n.div_ceil(run_elems);

    // ---- Multiway merge ---------------------------------------------------
    tl.checkpoint()?;
    tl.begin_phase("baseline.merge");
    let mut scratch = tl.far_alloc::<T>(n);
    let fanout = cfg.fanout.unwrap_or_else(|| {
        ((tl.params().cache_bytes / (2 * tl.params().block_bytes)) as usize).clamp(2, 4096)
    });
    let bounds: Vec<usize> = (0..=n_runs).map(|i| (i * run_elems).min(n)).collect();
    let (in_scratch, rounds, _cmps) = merge_rounds(
        tl,
        RegionLevel::Far,
        data.as_mut_slice_uncharged(),
        scratch.as_mut_slice_uncharged(),
        bounds,
        fanout,
        p,
        cfg.threads,
    );
    tl.end_phase();

    let output = if in_scratch { scratch } else { data };
    Ok(BaselineReport {
        output,
        runs: n_runs,
        partition_passes: passes,
        merge_rounds: rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn sorts_correctly() {
        let tl = tl();
        for n in [0usize, 1, 2, 100, 10_000, 200_000] {
            let v = random_vec(n, n as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            let r = baseline_sort(&tl, tl.far_from_vec(v), &BaselineConfig::default()).unwrap();
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice(), "n={n}");
        }
    }

    #[test]
    fn never_touches_scratchpad() {
        let tl = tl();
        baseline_sort(
            &tl,
            tl.far_from_vec(random_vec(100_000, 3)),
            &BaselineConfig::default(),
        )
        .unwrap();
        let s = tl.ledger().snapshot();
        assert_eq!(s.near_blocks(), 0, "GNU sort has zero scratchpad accesses");
        assert_eq!(s.near_bytes, 0);
        assert!(s.far_bytes > 0);
    }

    #[test]
    fn far_traffic_exceeds_nmsorts_four_passes() {
        // On a machine where runs exceed the per-lane cache, the baseline
        // streams the data more times than NMsort's ~4 far passes.
        let tl = tl();
        let n = 200_000usize;
        baseline_sort(
            &tl,
            tl.far_from_vec(random_vec(n, 4)),
            &BaselineConfig {
                sim_lanes: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let s = tl.ledger().snapshot();
        let data_bytes = (n * 8) as u64;
        assert!(
            s.far_bytes > 4 * data_bytes,
            "far bytes {} vs 4 passes {}",
            s.far_bytes,
            4 * data_bytes
        );
    }

    #[test]
    fn single_merge_round_when_cache_allows() {
        let tl = tl();
        let r = baseline_sort(
            &tl,
            tl.far_from_vec(random_vec(50_000, 5)),
            &BaselineConfig {
                sim_lanes: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.runs, 8);
        assert_eq!(r.merge_rounds, 1, "Fig.4-class caches merge in one pass");
    }

    #[test]
    fn multi_round_merge_with_small_fanout() {
        let tl = tl();
        let v = random_vec(10_000, 6);
        let mut expect = v.clone();
        expect.sort_unstable();
        let r = baseline_sort(
            &tl,
            tl.far_from_vec(v),
            &BaselineConfig {
                sim_lanes: 16,
                fanout: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.merge_rounds, 4); // 16 -> 8 -> 4 -> 2 -> 1
        assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn partition_passes_grow_when_cache_shrinks() {
        let tl = tl();
        let mk = |cache: u64| {
            let r = baseline_sort(
                &tl,
                tl.far_from_vec(random_vec(100_000, 7)),
                &BaselineConfig {
                    sim_lanes: 4,
                    cache_per_lane_bytes: Some(cache),
                    ..Default::default()
                },
            )
            .unwrap();
            r.partition_passes
        };
        let big = mk(10 << 20);
        let small = mk(16 << 10);
        assert_eq!(big, 1, "run fits cache: single pass");
        assert!(small > big, "small={small} big={big}");
    }

    #[test]
    fn equal_keys_and_presorted() {
        let tl = tl();
        for v in [vec![5u64; 50_000], (0..50_000u64).collect::<Vec<_>>()] {
            let mut expect = v.clone();
            expect.sort_unstable();
            let r = baseline_sort(&tl, tl.far_from_vec(v), &BaselineConfig::default()).unwrap();
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
        }
    }
}
