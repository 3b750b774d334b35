//! Differential property tests for the kernel layer.
//!
//! Three oracles:
//! * `radix_sort` / `sort_kernel` must agree with `slice::sort_unstable`
//!   on every workload shape the experiments use — uniform, sorted,
//!   reverse, nearly-sorted, few-distinct, Zipf, all-equal, sawtooth —
//!   and for every [`RadixKey`] type (`u64`, `u32`, `i64` with negatives).
//! * The branchless [`LoserTree`] must be observationally identical to the
//!   pre-rewrite [`ReferenceLoserTree`]: same emitted sequence *and* same
//!   comparison count, on randomized run sets including empty runs.
//! * [`merge_into_slice`] returns the count of its merge *schedule* — pair
//!   pre-merges, then a loser tree — whichever plane produced it. The
//!   oracle is [`merge_schedule_ref`], a reference execution of that
//!   schedule; a plain reference tree only agrees while the pairing stays
//!   aligned, which `arb_runs` (no duplicate-heavy runs) happens to keep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tlmm_core::kernels::reference::{merge_into_slice_ref, merge_schedule_ref, ReferenceLoserTree};
use tlmm_core::kernels::{radix_sort, simd, sort_kernel, RadixKey};
use tlmm_core::losertree::{
    merge_into_slice, pairwise_merge, schedule_comparisons, tournament_merge, LoserTree,
};
use tlmm_core::pmerge::{parallel_merge, split_parts};
use tlmm_testkit::KERNEL_SHAPES as SHAPES;
use tlmm_workloads::generate;

fn check_radix<T: RadixKey + std::fmt::Debug>(mut v: Vec<T>) {
    let mut expect = v.clone();
    expect.sort_unstable();
    radix_sort(&mut v);
    assert_eq!(v, expect);
}

fn arb_runs() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u64..500, 0..300).prop_map(|mut v| {
            v.sort_unstable();
            v
        }),
        0..14,
    )
}

/// Run sets for the schedule-count oracle: `k` from 2 to 1024, with empty
/// runs, duplicate-heavy plateau runs of at least 128 keys (so the plan's
/// plateau probe fires and shifts the pairing), 2-value runs, and in a
/// quarter of the sets one run longer than the pre-merge limit (2^16). Run lengths
/// straddle the pairwise plane's average-length cutoff.
fn arb_schedule_runs() -> impl Strategy<Value = Vec<Vec<u64>>> {
    (2usize..1025, any::<u64>(), 0u8..4).prop_map(|(k, seed, long)| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Keep the whole set near 50k keys whatever k is.
        let max_len = (50_000 / k).clamp(8, 2_000);
        let mut runs: Vec<Vec<u64>> = (0..k)
            .map(|_| {
                let len = rng.gen_range(0..=max_len);
                match rng.gen_range(0..5) {
                    0 => Vec::new(),
                    1 => {
                        // Plateaus 32..200 keys wide.
                        let len = len.max(128);
                        let width = rng.gen_range(32..200u64);
                        let base = rng.gen_range(0..50u64);
                        (0..len as u64).map(|i| base + i / width).collect()
                    }
                    2 => (0..len).map(|_| rng.gen_range(0..2u64)).collect(),
                    _ => (0..len).map(|_| rng.gen_range(0..5_000u64)).collect(),
                }
            })
            .collect();
        if long == 0 {
            let at = rng.gen_range(0..k);
            runs[at] = (0..(1 << 16) + rng.gen_range(1..2_000u64))
                .map(|_| rng.gen_range(0..5_000u64))
                .collect();
        }
        for r in &mut runs {
            r.sort_unstable();
        }
        runs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn schedule_count_matches_reference_execution(runs in arb_schedule_runs()) {
        let refs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
        let mut expect: Vec<u64> = runs.concat();
        expect.sort_unstable();
        let mut want = vec![0u64; expect.len()];
        let cmps = merge_schedule_ref(&refs, &mut want);
        prop_assert_eq!(&want, &expect);
        let cost = schedule_comparisons(&refs);
        prop_assert_eq!(cost.pair + cost.tree, cmps);

        // parallel_merge charges each independent part's schedule.
        let ways_cmps: Vec<(usize, u64)> = [1usize, 2, 8]
            .into_iter()
            .map(|ways| {
                let want = match split_parts(&refs, ways) {
                    Some(parts) => parts
                        .iter()
                        .map(|p| {
                            let mut o = vec![0u64; p.iter().map(|s| s.len()).sum()];
                            merge_schedule_ref(p, &mut o)
                        })
                        .sum(),
                    None => cmps,
                };
                (ways, want)
            })
            .collect();

        let prior = simd::enabled();
        for vector in [true, false] {
            simd::set_enabled(vector);
            for merge in [merge_into_slice, tournament_merge, pairwise_merge] {
                let mut out = vec![0u64; expect.len()];
                prop_assert_eq!(merge(&refs, &mut out), cmps, "simd={}", vector);
                prop_assert_eq!(&out, &expect);
            }
            for &(ways, want) in &ways_cmps {
                let mut out = vec![0u64; expect.len()];
                prop_assert_eq!(parallel_merge(&refs, &mut out, ways, 1), want, "ways={}", ways);
                prop_assert_eq!(&out, &expect);
            }
        }
        simd::set_enabled(prior);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn radix_matches_std_on_all_workload_shapes(
        shape_idx in 0usize..SHAPES.len(),
        n in 0usize..6_000,
        seed in any::<u64>(),
    ) {
        let v = generate(SHAPES[shape_idx], n, seed);
        check_radix(v);
    }

    #[test]
    fn radix_matches_std_for_all_key_types(
        v in proptest::collection::vec(any::<u64>(), 0..4_000),
    ) {
        // Reinterpret the same bits as each key type; i64 halves are
        // negative, exercising the sign-flip transform.
        check_radix(v.clone());
        check_radix(v.iter().map(|&x| x as u32).collect::<Vec<u32>>());
        check_radix(v.iter().map(|&x| x as i64).collect::<Vec<i64>>());
    }

    #[test]
    fn sort_kernel_matches_std_across_threshold(
        v in proptest::collection::vec(any::<u64>(), 0..2_000),
    ) {
        // Sizes straddle RADIX_MIN_LEN, so both dispatch arms are hit.
        let mut a = v.clone();
        let mut expect = v;
        expect.sort_unstable();
        sort_kernel(&mut a);
        prop_assert_eq!(a, expect);
    }

    #[test]
    fn loser_tree_matches_reference_sequence_and_comparisons(
        runs in arb_runs(),
    ) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let mut new_lt = LoserTree::new(refs.clone());
        let mut old_lt = ReferenceLoserTree::new(refs);
        loop {
            let (a, b) = (new_lt.next_element(), old_lt.next_element());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(new_lt.comparisons(), old_lt.comparisons());
    }

    #[test]
    fn merge_into_slice_matches_reference(runs in arb_runs()) {
        let refs: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let mut a = vec![0u64; total];
        let cmps_new = merge_into_slice(&refs, &mut a);
        let mut b = vec![0u64; total];
        let cmps_old = merge_into_slice_ref(&refs, &mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(cmps_new, cmps_old);
    }
}
