//! External multiway mergesort against one memory level.
//!
//! This is the engine behind Corollary 3 ("sorting x elements that fit in
//! the scratchpad … using multi-way merge sort with a branching factor of
//! Z/B") and behind the far-memory baseline. It sorts a region resident in
//! one memory (near or far) by
//!
//! 1. **Run formation** — stream cache-sized pieces in, sort them with an
//!    in-cache sort, stream them back; then
//! 2. **Merge passes** — loser-tree merges of up to `fanout` runs at a time,
//!    ping-ponging between the region and an equally sized scratch region,
//!    until one run remains.
//!
//! Every streamed byte is charged to the [`TwoLevel`] ledger at the correct
//! block granularity for the level (`B` for far, `ρB` for near), and every
//! comparison is charged as compute. Work is attributed to `lanes` virtual
//! lanes in the same round-robin pattern a real parallel execution would
//! use; with [`ExtSortConfig::threads`] > 1 the host actually runs
//! runs/groups in parallel on a sized worker pool ([`crate::pool`]).

use crate::{ceil_lg, SortElem};
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Backoff, Dir, FaultDecision, FaultOp, RetryClass, TwoLevel};

/// Which memory level the sorted region lives in (decides charge units and
/// default geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionLevel {
    /// The scratchpad (`ρB`-byte blocks).
    Near,
    /// Far memory (`B`-byte blocks).
    Far,
}

/// Tuning knobs for [`external_sort`].
#[derive(Debug, Clone)]
pub struct ExtSortConfig {
    /// Virtual lanes to attribute work to (simulated cores). Default 1.
    pub lanes: usize,
    /// Elements per formation run. Default: half the cache, so the run plus
    /// its working state stay cache-resident.
    pub run_elems: Option<usize>,
    /// Merge fan-in. Default: enough input buffers of one level-block each
    /// to half-fill the cache, clamped to `[2, 1024]`.
    pub fanout: Option<usize>,
    /// Host worker threads fanning out runs and merge groups (1 = run
    /// inline). Never affects simulated charges.
    pub threads: usize,
}

impl Default for ExtSortConfig {
    fn default() -> Self {
        Self {
            lanes: 1,
            run_elems: None,
            fanout: None,
            threads: 1,
        }
    }
}

/// What [`external_sort`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtSortOutcome {
    /// The sorted result is in the `scratch` slice rather than `data`.
    pub in_scratch: bool,
    /// Merge rounds executed (0 when a single run sufficed).
    pub rounds: u32,
    /// Formation runs created.
    pub runs: usize,
    /// Total comparisons charged.
    pub comparisons: u64,
}

#[inline]
fn charge_io<T>(tl: &TwoLevel, level: RegionLevel, dir: Dir, elems: usize) {
    let bytes = (elems * std::mem::size_of::<T>()) as u64;
    match level {
        RegionLevel::Near => tl.charge_near_io(dir, bytes),
        RegionLevel::Far => tl.charge_far_io(dir, bytes),
    }
}

/// Formation runs are sorted in-cache by one lane each, so a run must fit
/// that lane's *share* of the cache: `Z / lanes / 2`.
fn default_run_elems<T>(tl: &TwoLevel, lanes: usize) -> usize {
    let elem = std::mem::size_of::<T>().max(1);
    ((tl.params().cache_bytes as usize) / (2 * elem * lanes.max(1))).max(64)
}

fn default_fanout(tl: &TwoLevel, level: RegionLevel) -> usize {
    let blk = match level {
        RegionLevel::Near => tl.params().near_block_bytes(),
        RegionLevel::Far => tl.params().block_bytes,
    };
    ((tl.params().cache_bytes / (2 * blk)) as usize).clamp(2, 1024)
}

/// Sort `data` (resident at `level`) using `scratch` (same level, same
/// length) as merge ping-pong space. Returns where the result landed.
///
/// `data` and `scratch` are the raw region slices; this function charges
/// exactly the streaming a buffer-at-a-time implementation performs (see
/// the module docs of [`crate`] and `TwoLevel`'s low-level charging API).
pub fn external_sort<T: SortElem>(
    tl: &TwoLevel,
    level: RegionLevel,
    data: &mut [T],
    scratch: &mut [T],
    cfg: &ExtSortConfig,
) -> ExtSortOutcome {
    assert_eq!(
        data.len(),
        scratch.len(),
        "scratch region must match data region"
    );
    let n = data.len();
    if n <= 1 {
        return ExtSortOutcome {
            in_scratch: false,
            rounds: 0,
            runs: n,
            comparisons: 0,
        };
    }
    let lanes = cfg.lanes.max(1);
    let run_elems = cfg
        .run_elems
        .unwrap_or_else(|| default_run_elems::<T>(tl, lanes));
    let run_elems = run_elems.clamp(2, n);
    let fanout = cfg
        .fanout
        .unwrap_or_else(|| default_fanout(tl, level))
        .max(2);

    // ---- Run formation ------------------------------------------------
    let base = current_lane();
    let total_cmps = std::sync::atomic::AtomicU64::new(0);
    let stage_op = match level {
        RegionLevel::Near => FaultOp::NearStage,
        RegionLevel::Far => FaultOp::FarStage,
    };
    let form = |i: usize, run: &mut [T]| {
        with_lane(base + i % lanes, || {
            match tl.preflight(stage_op) {
                FaultDecision::Fail(_) => {
                    // The inbound formation stream aborted mid-run: the
                    // wasted read is charged and the run is streamed again
                    // (a single re-read, the `Restage` backoff budget).
                    charge_io::<T>(tl, level, Dir::Read, run.len());
                    Backoff::for_memory(tl, RetryClass::Restage).again();
                }
                FaultDecision::Delay(_) => {
                    charge_io::<T>(tl, level, Dir::Read, run.len());
                    tlmm_telemetry::counter!("degradation.extsort_delay").incr();
                }
                FaultDecision::Proceed => {}
            }
            charge_io::<T>(tl, level, Dir::Read, run.len());
            // Host kernel choice (radix vs comparison) never changes the
            // simulated charge below — see kernels module docs.
            crate::kernels::sort_kernel(run);
            let cmps = run.len() as u64 * ceil_lg(run.len());
            tl.charge_compute(cmps);
            charge_io::<T>(tl, level, Dir::Write, run.len());
            total_cmps.fetch_add(cmps, std::sync::atomic::Ordering::Relaxed);
        })
    };
    crate::pool::run_indexed(cfg.threads, data.chunks_mut(run_elems), form);
    let n_runs = n.div_ceil(run_elems);

    // ---- Merge rounds --------------------------------------------------
    let bounds: Vec<usize> = (0..=n_runs).map(|i| (i * run_elems).min(n)).collect();
    let (in_scratch, rounds, merge_cmps) =
        merge_rounds(tl, level, data, scratch, bounds, fanout, lanes, cfg.threads);
    total_cmps.fetch_add(merge_cmps, std::sync::atomic::Ordering::Relaxed);

    ExtSortOutcome {
        in_scratch,
        rounds,
        runs: n_runs,
        comparisons: total_cmps.into_inner(),
    }
}

/// Repeatedly merge groups of up to `fanout` adjacent sorted runs (given by
/// `bounds` offsets) between `data` and `scratch` until one run remains.
/// Returns `(result_in_scratch, rounds, comparisons)`. Shared by
/// [`external_sort`] and the far-memory baseline.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_rounds<T: SortElem>(
    tl: &TwoLevel,
    level: RegionLevel,
    data: &mut [T],
    scratch: &mut [T],
    mut bounds: Vec<usize>,
    fanout: usize,
    lanes: usize,
    threads: usize,
) -> (bool, u32, u64) {
    let n = data.len();
    let fanout = fanout.max(2);
    let lanes = lanes.max(1);
    let total_cmps = std::sync::atomic::AtomicU64::new(0);
    let mut src: &mut [T] = data;
    let mut dst: &mut [T] = scratch;
    let mut rounds = 0u32;
    while bounds.len() > 2 {
        let groups: Vec<(usize, usize)> = bounds[..bounds.len() - 1]
            .iter()
            .step_by(fanout)
            .enumerate()
            .map(|(g, _)| {
                let lo = g * fanout;
                let hi = (lo + fanout).min(bounds.len() - 1);
                (lo, hi)
            })
            .collect();

        // Split dst into one output slice per group (groups are adjacent).
        let mut out_slices: Vec<&mut [T]> = Vec::with_capacity(groups.len());
        {
            let mut rest: &mut [T] = dst;
            let mut consumed = 0usize;
            for &(lo, hi) in &groups {
                let len = bounds[hi] - bounds[lo];
                let (a, b) = rest.split_at_mut(bounds[lo] - consumed + len);
                // a contains [consumed .. bounds[hi]); keep only the tail
                // that belongs to this group.
                let off = bounds[lo] - consumed;
                out_slices.push(&mut a[off..]);
                consumed = bounds[hi];
                rest = b;
            }
        }

        let src_ref: &[T] = src;
        // When there are fewer groups than lanes (late rounds), each group's
        // merge is itself parallelized across its lane share — a group merge
        // charged to a single lane would put the whole stream on one core's
        // critical path, which is not how a multithreaded multiway merge
        // behaves.
        let n_groups = groups.len().max(1);
        let ways = lanes.div_ceil(n_groups);
        let base = current_lane();
        let merge_group = |g: usize, (&(lo, hi), out): (&(usize, usize), &mut [T])| {
            let runs: Vec<&[T]> = (lo..hi)
                .map(|r| &src_ref[bounds[r]..bounds[r + 1]])
                .collect();
            let elems = out.len();
            let cmps = crate::pmerge::parallel_merge(&runs, out, ways, threads);
            // Charge IO and compute across this group's lane share.
            for j in 0..ways {
                let lane = base + (g + j * n_groups) % lanes;
                let share_lo = j * elems / ways;
                let share_hi = (j + 1) * elems / ways;
                let share = share_hi - share_lo;
                if share == 0 {
                    continue;
                }
                with_lane(lane, || {
                    charge_io::<T>(tl, level, Dir::Read, share);
                    charge_io::<T>(tl, level, Dir::Write, share);
                    tl.charge_compute(cmps * share as u64 / elems.max(1) as u64);
                });
            }
            total_cmps.fetch_add(cmps, std::sync::atomic::Ordering::Relaxed);
        };
        crate::pool::run_indexed(threads, groups.iter().zip(out_slices), merge_group);

        bounds = groups
            .iter()
            .map(|&(lo, _)| bounds[lo])
            .chain(std::iter::once(n))
            .collect();
        std::mem::swap(&mut src, &mut dst);
        rounds += 1;
    }

    (rounds % 2 == 1, rounds, total_cmps.into_inner())
}

/// Sort a small, cache-resident slice at `level`: one read, one in-cache
/// sort, one write. Used for pivot samples (§III-A).
pub fn cache_sort<T: SortElem>(tl: &TwoLevel, level: RegionLevel, data: &mut [T]) -> u64 {
    if data.len() <= 1 {
        return 0;
    }
    charge_io::<T>(tl, level, Dir::Read, data.len());
    crate::kernels::sort_kernel(data);
    let cmps = data.len() as u64 * ceil_lg(data.len());
    tl.charge_compute(cmps);
    charge_io::<T>(tl, level, Dir::Write, data.len());
    cmps
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        // B=64, rho=4, M=1MiB, Z=16KiB => cache holds 2048 u64.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn run_case(n: usize, cfg: &ExtSortConfig) {
        let tl = tl();
        let mut data = random_vec(n, n as u64);
        let mut expect = data.clone();
        expect.sort_unstable();
        let mut scratch = vec![0u64; n];
        let out = external_sort(&tl, RegionLevel::Near, &mut data, &mut scratch, cfg);
        let result = if out.in_scratch { &scratch } else { &data };
        assert_eq!(result, &expect, "n={n} cfg={cfg:?}");
    }

    #[test]
    fn sorts_various_sizes_sequential() {
        for n in [0, 1, 2, 3, 100, 2048, 2049, 10_000, 100_000] {
            run_case(n, &ExtSortConfig::default());
        }
    }

    #[test]
    fn sorts_parallel_with_lanes() {
        run_case(
            50_000,
            &ExtSortConfig {
                lanes: 8,
                threads: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn sorts_with_tiny_runs_and_fanout() {
        // Forces many merge rounds.
        run_case(
            10_000,
            &ExtSortConfig {
                run_elems: Some(16),
                fanout: Some(2),
                ..Default::default()
            },
        );
        run_case(
            10_000,
            &ExtSortConfig {
                run_elems: Some(7),
                fanout: Some(3),
                ..Default::default()
            },
        );
    }

    #[test]
    fn charges_expected_volume_single_round() {
        let tl = tl();
        let n = 8192usize; // run=1024 (Z/2 elems) -> 8 runs, fanout 32 -> 1 round
        let mut data = random_vec(n, 1);
        let mut scratch = vec![0u64; n];
        let out = external_sort(
            &tl,
            RegionLevel::Near,
            &mut data,
            &mut scratch,
            &ExtSortConfig::default(),
        );
        assert_eq!(out.rounds, 1);
        assert_eq!(out.runs, 8);
        let s = tl.ledger().snapshot();
        // Formation: read+write n; merge: read+write n. All near.
        assert_eq!(s.near_bytes, 4 * (n as u64) * 8);
        assert_eq!(s.far_bytes, 0);
        // Block math: bytes / (rho*B) since every streamed piece here is
        // block-aligned.
        assert_eq!(s.near_blocks(), 4 * (n as u64) * 8 / 256);
    }

    #[test]
    fn far_level_charges_far() {
        let tl = tl();
        let n = 4096usize;
        let mut data = random_vec(n, 2);
        let mut scratch = vec![0u64; n];
        external_sort(
            &tl,
            RegionLevel::Far,
            &mut data,
            &mut scratch,
            &ExtSortConfig::default(),
        );
        let s = tl.ledger().snapshot();
        assert_eq!(s.near_bytes, 0);
        assert!(s.far_bytes > 0);
    }

    #[test]
    fn presorted_and_reverse_inputs() {
        let tl = tl();
        for n in [5000usize, 12_345] {
            for gen in [0, 1] {
                let mut data: Vec<u64> = if gen == 0 {
                    (0..n as u64).collect()
                } else {
                    (0..n as u64).rev().collect()
                };
                let mut scratch = vec![0u64; n];
                let out = external_sort(
                    &tl,
                    RegionLevel::Near,
                    &mut data,
                    &mut scratch,
                    &ExtSortConfig::default(),
                );
                let result = if out.in_scratch { &scratch } else { &data };
                assert!(result.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn all_equal_elements() {
        let tl = tl();
        let n = 10_000;
        let mut data = vec![7u64; n];
        let mut scratch = vec![0u64; n];
        let out = external_sort(
            &tl,
            RegionLevel::Near,
            &mut data,
            &mut scratch,
            &ExtSortConfig::default(),
        );
        let result = if out.in_scratch { &scratch } else { &data };
        assert!(result.iter().all(|&v| v == 7));
    }

    #[test]
    fn parallel_and_sequential_charge_identically() {
        let run = |threads: usize| {
            let tl = tl();
            let mut data = random_vec(30_000, 9);
            let mut scratch = vec![0u64; 30_000];
            let cfg = ExtSortConfig {
                lanes: 4,
                threads,
                ..Default::default()
            };
            external_sort(&tl, RegionLevel::Near, &mut data, &mut scratch, &cfg);
            tl.ledger().snapshot()
        };
        let s_par = run(4);
        let s_seq = run(1);
        assert_eq!(s_par.near_bytes, s_seq.near_bytes);
        assert_eq!(s_par.near_blocks(), s_seq.near_blocks());
        assert_eq!(s_par.compute_ops, s_seq.compute_ops);
    }

    #[test]
    fn cache_sort_roundtrip() {
        let tl = tl();
        let mut v = vec![3u64, 1, 2];
        let cmps = cache_sort(&tl, RegionLevel::Near, &mut v);
        assert_eq!(v, vec![1, 2, 3]);
        assert!(cmps > 0);
        let s = tl.ledger().snapshot();
        assert_eq!(s.near_read_blocks, 1);
        assert_eq!(s.near_write_blocks, 1);
    }

    #[test]
    fn lane_attribution_spreads_work() {
        let tl = tl();
        tl.begin_phase("sort");
        let mut data = random_vec(16_384, 3);
        let mut scratch = vec![0u64; 16_384];
        external_sort(
            &tl,
            RegionLevel::Near,
            &mut data,
            &mut scratch,
            &ExtSortConfig {
                lanes: 4,
                run_elems: Some(2048),
                ..Default::default()
            },
        );
        tl.end_phase();
        let t = tl.take_trace();
        // 8 runs over 4 lanes: every lane formed 2 runs.
        assert_eq!(t.phases[0].active_lanes(), 4);
    }
}
