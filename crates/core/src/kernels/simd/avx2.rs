//! Hand-vectorized AVX2 kernels for `u64` keys.
//!
//! Every public function here is a *safe* wrapper whose body enters an
//! `unsafe` `#[target_feature(enable = "avx2")]` implementation. Callers
//! must only reach these through [`super`]'s dispatchers, which gate on
//! [`super::enabled`] (host AVX2 detected, `TLMM_NO_SIMD` unset); the
//! wrappers re-verify detection in debug builds.
//!
//! AVX2 has no unsigned 64-bit compare, so ordered comparisons run in the
//! signed domain after XOR-ing each lane with `1 << 63` (maps `u64` order
//! onto `i64` order). All loads/stores are unaligned (`loadu`/`storeu`) —
//! run slices come from arbitrary offsets inside chunk buffers.

#![allow(unsafe_code)]

use core::arch::x86_64::*;

/// `u64 → i64` order-preserving bias (flips the sign bit lane-wise).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bias(v: __m256i) -> __m256i {
    _mm256_xor_si256(v, _mm256_set1_epi64x(i64::MIN))
}

fn debug_check_avx2() {
    debug_assert!(
        is_x86_feature_detected!("avx2"),
        "AVX2 kernel reached without host support; dispatch must gate on simd::enabled()"
    );
}

// ---------------------------------------------------------------------------
// Boundary scans
// ---------------------------------------------------------------------------

/// See [`super::count_le`]: longest `<= pivot` prefix of sorted `s`.
pub fn count_le_u64(s: &[u64], pivot: &u64) -> usize {
    debug_check_avx2();
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    unsafe { count_le_impl(s, *pivot) }
}

#[target_feature(enable = "avx2")]
unsafe fn count_le_impl(s: &[u64], pivot: u64) -> usize {
    let vp = bias(_mm256_set1_epi64x(pivot as i64));
    let mut i = 0usize;
    // 4 lanes per step; the slice is sorted, so the first lane holding an
    // element > pivot ends the scan (trailing_zeros of the movemask).
    while i + 4 <= s.len() {
        let v = _mm256_loadu_si256(s.as_ptr().add(i).cast());
        let gt = _mm256_cmpgt_epi64(bias(v), vp);
        let m = _mm256_movemask_pd(_mm256_castsi256_pd(gt)) as u32;
        if m != 0 {
            return i + m.trailing_zeros() as usize;
        }
        i += 4;
    }
    while i < s.len() && s[i] <= pivot {
        i += 1;
    }
    i
}

/// See [`super::partition_point_le`]: binary search narrowed to a small
/// window, finished with the SIMD linear scan.
pub fn partition_point_le_u64(s: &[u64], pivot: &u64) -> usize {
    debug_check_avx2();
    let p = *pivot;
    let (mut lo, mut hi) = (0usize, s.len());
    // Keep halving until the window fits a few vector steps.
    while hi - lo > 32 {
        let mid = lo + (hi - lo) / 2;
        if s[mid] <= p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    lo + unsafe { count_le_impl(&s[lo..hi], p) }
}

// ---------------------------------------------------------------------------
// Radix histogram + scatter
// ---------------------------------------------------------------------------

/// See [`super::radix_histogram`]: digit counts of `(x >> shift) & mask`.
pub fn radix_histogram_u64(data: &[u64], shift: u32, mask: u64, hist: &mut [u32]) {
    debug_check_avx2();
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    unsafe { radix_histogram_impl(data, shift, mask, hist) }
}

#[target_feature(enable = "avx2")]
unsafe fn radix_histogram_impl(data: &[u64], shift: u32, mask: u64, hist: &mut [u32]) {
    let vshift = _mm_cvtsi64_si128(shift as i64);
    let vmask = _mm256_set1_epi64x(mask as i64);
    let mut digits = [0u64; 8];
    let mut i = 0usize;
    // 8 keys per step: two 4-lane digit extractions, then eight unrolled
    // counter increments from the spilled digit buffer (the increments are
    // inherently scalar — AVX2 has no conflict detection — but the shifts
    // and masks vectorize).
    while i + 8 <= data.len() {
        let v0 = _mm256_loadu_si256(data.as_ptr().add(i).cast());
        let v1 = _mm256_loadu_si256(data.as_ptr().add(i + 4).cast());
        let d0 = _mm256_and_si256(_mm256_srl_epi64(v0, vshift), vmask);
        let d1 = _mm256_and_si256(_mm256_srl_epi64(v1, vshift), vmask);
        _mm256_storeu_si256(digits.as_mut_ptr().cast(), d0);
        _mm256_storeu_si256(digits.as_mut_ptr().add(4).cast(), d1);
        hist[digits[0] as usize] += 1;
        hist[digits[1] as usize] += 1;
        hist[digits[2] as usize] += 1;
        hist[digits[3] as usize] += 1;
        hist[digits[4] as usize] += 1;
        hist[digits[5] as usize] += 1;
        hist[digits[6] as usize] += 1;
        hist[digits[7] as usize] += 1;
        i += 8;
    }
    for &x in &data[i..] {
        hist[((x >> shift) & mask) as usize] += 1;
    }
}

/// See [`super::radix_scatter`]: scatter by digit through `cursors`.
pub fn radix_scatter_u64(
    data: &[u64],
    shift: u32,
    mask: u64,
    cursors: &mut [u32],
    scratch: &mut [u64],
) {
    debug_check_avx2();
    // SAFETY: dispatch gates on AVX2 detection before routing here.
    unsafe { radix_scatter_impl(data, shift, mask, cursors, scratch) }
}

#[target_feature(enable = "avx2")]
unsafe fn radix_scatter_impl(
    data: &[u64],
    shift: u32,
    mask: u64,
    cursors: &mut [u32],
    scratch: &mut [u64],
) {
    let vshift = _mm_cvtsi64_si128(shift as i64);
    let vmask = _mm256_set1_epi64x(mask as i64);
    let mut digits = [0u64; 8];
    let mut i = 0usize;
    // Batched digit extraction feeding scalar scatter stores (the stores
    // must stay in input order for radix stability, so they cannot be
    // reordered into gather/scatter lanes).
    while i + 8 <= data.len() {
        let v0 = _mm256_loadu_si256(data.as_ptr().add(i).cast());
        let v1 = _mm256_loadu_si256(data.as_ptr().add(i + 4).cast());
        let d0 = _mm256_and_si256(_mm256_srl_epi64(v0, vshift), vmask);
        let d1 = _mm256_and_si256(_mm256_srl_epi64(v1, vshift), vmask);
        _mm256_storeu_si256(digits.as_mut_ptr().cast(), d0);
        _mm256_storeu_si256(digits.as_mut_ptr().add(4).cast(), d1);
        for j in 0..8 {
            let b = digits[j] as usize;
            scratch[cursors[b] as usize] = data[i + j];
            cursors[b] += 1;
        }
        i += 8;
    }
    for &x in &data[i..] {
        let b = ((x >> shift) & mask) as usize;
        scratch[cursors[b] as usize] = x;
        cursors[b] += 1;
    }
}

// ---------------------------------------------------------------------------
// 4-wide bitonic merge network
// ---------------------------------------------------------------------------

// The network runs on *biased* keys (see [`bias`]): loads are biased once
// and stores unbiased once, so every compare inside is one signed
// `cmpgt`.

/// One compare-exchange stage on biased keys: each lane meets its partner
/// `t` (a lane permutation of `v`) and keeps the min where `flip` is 0 and
/// the max where it is all-ones. Flipping every bit reverses signed order
/// (`!x > !y ⟺ y > x`), so one compare and one blend serve both
/// directions.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exchange(v: __m256i, t: __m256i, flip: __m256i) -> __m256i {
    let take_t = _mm256_cmpgt_epi64(_mm256_xor_si256(v, flip), _mm256_xor_si256(t, flip));
    _mm256_blendv_epi8(v, t, take_t)
}

/// Sort a 4-lane *bitonic* sequence of biased keys ascending with the
/// 2-step cleaner (half exchange, then adjacent-pair exchange).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitonic4_clean(v: __m256i) -> __m256i {
    // Step 1: lanes {0,1} meet {2,3} (swap 128-bit halves); mins stay low.
    let t = _mm256_permute4x64_epi64(v, 0b01_00_11_10);
    let v = exchange(v, t, _mm256_set_epi64x(-1, -1, 0, 0));
    // Step 2: adjacent lanes meet; mins in lanes 0,2, maxes in 1,3.
    let t = _mm256_permute4x64_epi64(v, 0b10_11_00_01);
    exchange(v, t, _mm256_set_epi64x(-1, 0, -1, 0))
}

/// Merge two ascending 4-lane registers of biased keys into an ascending
/// 8-sequence, returned as (low 4, high 4): reverse `b`, lane-wise min/max
/// forms two bitonic halves, clean each.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitonic_merge8(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
    let br = _mm256_permute4x64_epi64(b, 0b00_01_10_11);
    let a_gt = _mm256_cmpgt_epi64(a, br);
    let lo = _mm256_blendv_epi8(a, br, a_gt);
    let hi = _mm256_blendv_epi8(br, a, a_gt);
    (bitonic4_clean(lo), bitonic4_clean(hi))
}

/// Biased load of the 4 keys at `p`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load4(p: *const u64) -> __m256i {
    bias(_mm256_loadu_si256(p.cast()))
}

/// Unbiased store of a biased register to the 4 keys at `p`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store4(p: *mut u64, v: __m256i) {
    _mm256_storeu_si256(p.cast(), bias(v));
}

/// See [`super::merge_pair`]: merge sorted `a` and `b` into `out` with the
/// 4-wide bitonic network, streaming 4 outputs per step from both ends.
pub fn merge_pair_u64(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_check_avx2();
    assert_eq!(out.len(), a.len() + b.len(), "merge_pair size mismatch");
    if a.len() < 4 || b.len() < 4 {
        super::scalar::merge_pair(a, b, out);
        return;
    }
    // SAFETY: dispatch gates on AVX2 detection before routing here; length
    // preconditions checked above.
    unsafe { merge_pair_two_ended(a, b, out) }
}

/// Two interleaved streams: the front one emits the smallest elements
/// ascending from `out[0]`, the back one (the mirror image: hold the low
/// half, refill from the run whose tail is larger) the largest descending
/// from the end. Each stream's network output feeds its next step, so one
/// stream is bound by that latency chain; two independent chains overlap.
/// When a stream cannot refill a full block it stops, and the gap between
/// the two — the sorted merge's positions `[front, back)` — is merged from
/// the runs' co-ranks at its two ends.
#[target_feature(enable = "avx2")]
unsafe fn merge_pair_two_ended(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let (la, lb) = (a.len(), b.len());
    let (mut fva, mut fvb) = (load4(pa), load4(pb));
    let (mut fa, mut fb, mut fo) = (4usize, 4usize, 0usize);
    // Back-stream read heads are exclusive ends.
    let (mut ra, mut rb, mut ro) = (la - 4, lb - 4, la + lb);
    let (mut rva, mut rvb) = (load4(pa.add(ra)), load4(pb.add(rb)));
    let (mut front, mut back) = (true, true);
    loop {
        let step_f = front && ro - fo >= 4;
        let step_r = back && ro - fo >= if step_f { 8 } else { 4 };
        if !(step_f || step_r) {
            break;
        }
        if step_f {
            let (lo, hi) = bitonic_merge8(fva, fvb);
            store4(po.add(fo), lo);
            fo += 4;
            fvb = hi;
            // Refill from the run with the smaller head: load both
            // candidate blocks and blend, no branch — on uniform keys the
            // comparison is a coin flip. Needs a full block in both runs.
            front = fa + 4 <= la && fb + 4 <= lb;
            if front {
                let ta = *pa.add(fa) <= *pb.add(fb);
                let mask = _mm256_set1_epi64x(-i64::from(ta));
                fva = _mm256_blendv_epi8(load4(pb.add(fb)), load4(pa.add(fa)), mask);
                fa += 4 * usize::from(ta);
                fb += 4 * usize::from(!ta);
            }
        }
        if step_r {
            let (lo, hi) = bitonic_merge8(rva, rvb);
            ro -= 4;
            store4(po.add(ro), hi);
            rvb = lo;
            // Mirror image: refill from the run with the larger tail.
            back = ra >= 4 && rb >= 4;
            if back {
                let ta = *pa.add(ra - 1) > *pb.add(rb - 1);
                let mask = _mm256_set1_epi64x(-i64::from(ta));
                rva = _mm256_blendv_epi8(load4(pb.add(rb - 4)), load4(pa.add(ra - 4)), mask);
                ra -= 4 * usize::from(ta);
                rb -= 4 * usize::from(!ta);
            }
        }
    }
    let (i, j) = co_rank(a, b, fo);
    let (i2, j2) = co_rank(a, b, ro);
    let (ma, mb) = (&a[i..i2], &b[j..j2]);
    let gap = &mut out[fo..ro];
    if ma.len() < 4 || mb.len() < 4 {
        super::scalar::merge_pair(ma, mb, gap);
    } else {
        merge_pair_impl(ma, mb, gap);
    }
}

/// Split point of the stable merge of `a` and `b` after `k` outputs:
/// `(i, k − i)` with `a[..i]` and `b[..k − i]` the first `k` (ties to `a`).
fn co_rank(a: &[u64], b: &[u64], k: usize) -> (usize, usize) {
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    while lo < hi {
        let i = (lo + hi) / 2;
        if a[i] <= b[k - i - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, k - lo)
}

/// One-ended stream merge (both runs at least 4 long).
#[target_feature(enable = "avx2")]
unsafe fn merge_pair_impl(a: &[u64], b: &[u64], out: &mut [u64]) {
    // Stream-merge invariant (the classic SIMD two-way merge): hold 8
    // elements in registers, emit the low 4, keep the high 4, refill from
    // whichever run's next element is smaller. Every register element
    // originates below its run's read head, so the emitted low half is
    // bounded by both heads — the output is globally sorted.
    let mut va = load4(a.as_ptr());
    let mut vb = load4(b.as_ptr());
    let (mut ia, mut ib, mut o) = (4usize, 4usize, 0usize);
    loop {
        let (lo, hi) = bitonic_merge8(va, vb);
        store4(out.as_mut_ptr().add(o), lo);
        o += 4;
        vb = hi;
        // Refill from the run whose head is smaller — loading from the
        // *other* run would emit elements ahead of the smaller unread head.
        // If the smaller-head run cannot supply a full block, leave the
        // register loop and finish scalar.
        let a_head_smaller = match (ia < a.len(), ib < b.len()) {
            (true, true) => a[ia] <= b[ib],
            (true, false) => true,
            (false, true) => false,
            (false, false) => break,
        };
        if a_head_smaller {
            if ia + 4 > a.len() {
                break;
            }
            va = load4(a.as_ptr().add(ia));
            ia += 4;
        } else {
            if ib + 4 > b.len() {
                break;
            }
            va = load4(b.as_ptr().add(ib));
            ib += 4;
        }
    }
    // Fewer than 4 elements remain in at least one run: spill the held
    // register and finish with a scalar 3-way merge of (held, a-tail,
    // b-tail).
    let mut held = [0u64; 4];
    store4(held.as_mut_ptr(), vb);
    let (mut h, mut i, mut j) = (0usize, ia, ib);
    while o < out.len() {
        // Smallest of the three heads; `held` is sorted ascending.
        let hv = if h < 4 { Some(held[h]) } else { None };
        let av = if i < a.len() { Some(a[i]) } else { None };
        let bv = if j < b.len() { Some(b[j]) } else { None };
        let take_h = hv.is_some()
            && av.is_none_or(|x| hv.expect("checked") <= x)
            && bv.is_none_or(|x| hv.expect("checked") <= x);
        if take_h {
            out[o] = held[h];
            h += 1;
        } else if av.is_some() && bv.is_none_or(|x| av.expect("checked") <= x) {
            out[o] = a[i];
            i += 1;
        } else {
            out[o] = b[j];
            j += 1;
        }
        o += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn has_avx2() -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[test]
    fn count_and_partition_match_scalar() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let n = rng.gen_range(0usize..400);
            let dense = rng.gen_bool(0.5);
            let mut v: Vec<u64> = (0..n)
                .map(|_| {
                    if dense {
                        rng.gen_range(0..32)
                    } else {
                        rng.gen()
                    }
                })
                .collect();
            v.sort_unstable();
            let p = if dense {
                rng.gen_range(0..40)
            } else {
                rng.gen()
            };
            let want = v.partition_point(|x| *x <= p);
            assert_eq!(count_le_u64(&v, &p), want);
            assert_eq!(partition_point_le_u64(&v, &p), want);
        }
    }

    #[test]
    fn histogram_matches_scalar_loop() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let n = rng.gen_range(0usize..600);
            let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let bits = rng.gen_range(1u32..9);
            let shift = rng.gen_range(0u32..(64 - bits));
            let mask = (1u64 << bits) - 1;
            let buckets = 1usize << bits;
            let mut got = vec![0u32; buckets];
            radix_histogram_u64(&data, shift, mask, &mut got);
            let mut want = vec![0u32; buckets];
            for &x in &data {
                want[((x >> shift) & mask) as usize] += 1;
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn scatter_matches_scalar_loop() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            let n = rng.gen_range(0usize..600);
            let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let bits = rng.gen_range(1u32..7);
            let shift = rng.gen_range(0u32..(64 - bits));
            let mask = (1u64 << bits) - 1;
            let buckets = 1usize << bits;
            let mut hist = vec![0u32; buckets];
            for &x in &data {
                hist[((x >> shift) & mask) as usize] += 1;
            }
            let starts: Vec<u32> = hist
                .iter()
                .scan(0u32, |acc, &c| {
                    let s = *acc;
                    *acc += c;
                    Some(s)
                })
                .collect();
            let run = |simd: bool| {
                let mut cursors = starts.clone();
                let mut scratch = vec![0u64; n];
                if simd {
                    radix_scatter_u64(&data, shift, mask, &mut cursors, &mut scratch);
                } else {
                    for &x in &data {
                        let b = ((x >> shift) & mask) as usize;
                        scratch[cursors[b] as usize] = x;
                        cursors[b] += 1;
                    }
                }
                (cursors, scratch)
            };
            assert_eq!(run(true), run(false));
        }
    }

    #[test]
    fn merge_pair_matches_scalar_merge() {
        if !has_avx2() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..300 {
            let la = rng.gen_range(0usize..300);
            let lb = rng.gen_range(0usize..300);
            let dense = rng.gen_bool(0.4);
            let mut gen = |len: usize| -> Vec<u64> {
                let mut v: Vec<u64> = (0..len)
                    .map(|_| {
                        if dense {
                            rng.gen_range(0..16)
                        } else {
                            rng.gen_range(0..1000)
                        }
                    })
                    .collect();
                v.sort_unstable();
                v
            };
            let a = gen(la);
            let b = gen(lb);
            let mut got = vec![0u64; la + lb];
            merge_pair_u64(&a, &b, &mut got);
            let mut want = vec![0u64; la + lb];
            crate::kernels::simd::scalar::merge_pair(&a, &b, &mut want);
            assert_eq!(got, want, "la={la} lb={lb}");
        }
    }

    #[test]
    fn merge_pair_two_ended_on_skewed_lengths() {
        if !has_avx2() {
            return;
        }
        // Short runs against long ones, placed low, high or clustered, so
        // either stream (or both) runs out of full blocks early.
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..400 {
            let la = rng.gen_range(4usize..24);
            let lb = rng.gen_range(4usize..600);
            let (lo, hi) = match rng.gen_range(0..4) {
                0 => (0u64, 100u64),
                1 => (900, 1000),
                2 => (480, 520),
                _ => (0, 1000),
            };
            let mut a: Vec<u64> = (0..la).map(|_| rng.gen_range(lo..hi)).collect();
            let mut b: Vec<u64> = (0..lb).map(|_| rng.gen_range(0..1000)).collect();
            a.sort_unstable();
            b.sort_unstable();
            if rng.gen_bool(0.5) {
                std::mem::swap(&mut a, &mut b);
            }
            let mut got = vec![0u64; a.len() + b.len()];
            merge_pair_u64(&a, &b, &mut got);
            let mut want = vec![0u64; a.len() + b.len()];
            crate::kernels::simd::scalar::merge_pair(&a, &b, &mut want);
            assert_eq!(got, want, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn merge_pair_adversarial_blocks() {
        if !has_avx2() {
            return;
        }
        // One run entirely below, entirely above, and interleaved in blocks
        // of 4 — the refill decision's edge cases.
        let cases: Vec<(Vec<u64>, Vec<u64>)> = vec![
            ((0..64).collect(), (64..128).collect()),
            ((64..128).collect(), (0..64).collect()),
            (
                (0..64).map(|x| x * 2).collect(),
                (0..64).map(|x| x * 2 + 1).collect(),
            ),
            (vec![5; 40], vec![5; 44]),
            ((0..8).collect(), (4..100).collect()),
            // A short run in the middle, at either end, or straddling the
            // extremes of a long one: the two-ended kernel's streams stop
            // early and the co-rank gap merge takes over.
            (vec![500, 501, 502, 503, 504], (0..1000).collect()),
            (vec![0, 1, 2, 3, 4, 5], (10..1000).collect()),
            (vec![2000, 2001, 2002, 2003, 2004], (0..1000).collect()),
            (vec![0, 1, 2, 3, 998, 999, 1000, 1001], (1..1000).collect()),
            (
                vec![u64::MAX; 9],
                vec![u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX],
            ),
            (
                vec![0, 1 << 62, 1 << 63, 3 << 62, u64::MAX],
                (0..400).map(|x| x << 55).collect(),
            ),
        ];
        for (a, b) in cases {
            let mut got = vec![0u64; a.len() + b.len()];
            merge_pair_u64(&a, &b, &mut got);
            let mut want = [a.clone(), b.clone()].concat();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}
