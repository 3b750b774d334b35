//! Striped, charged bulk copies between memory levels.
//!
//! Moving a chunk between DRAM and the scratchpad is bandwidth work shared
//! by all cores: each of the `lanes` virtual lanes streams a contiguous
//! stripe. These helpers perform the copy (fanning out over the caller's
//! `threads` host workers via [`crate::pool`]) and charge each stripe to
//! its lane, so the phase trace shows the transfer as parallel — which is
//! how the flow simulator can apply the full channel bandwidth to it.
//!
//! Charging and copying are separate passes: every stripe is charged on
//! the calling thread in [`stage_order`], then the bytes move in one pass.
//! The arbiter therefore sees the same request sequence whatever `threads`
//! is.

use crate::extsort::RegionLevel;
use crate::SortElem;
use std::ops::Range;
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Dir, TwoLevel};

/// Charge an IO volume split evenly across lanes — the attribution for
/// cooperative streaming operations whose real execution interleaves lanes
/// finely (bulk transfers, shared merge streams).
///
/// Lane ids are *offset by the ambient lane*: an operation running "on"
/// lane 5 with `lanes = 1` charges lane 5, not lane 0, so nested
/// single-lane work (e.g. one bucket of a parallel recursion) stays on its
/// assigned lane.
///
/// The stripes are issued in [`stage_order`]: each stripe keeps its lane
/// (attribution is positional, not temporal), so per-lane trace volumes and
/// the ledger are invariant under the executor's permutation — only the
/// arbitration timeline (slot waits) moves.
pub fn charge_io_striped(tl: &TwoLevel, level: RegionLevel, dir: Dir, bytes: u64, lanes: usize) {
    let base = current_lane();
    let stripes = Stripes::new(bytes as usize, lanes);
    for i in stage_order(tl, stripes.count) {
        let len = stripes.get(i).len() as u64;
        with_lane(base + i, || match level {
            RegionLevel::Near => tl.charge_near_io(dir, len),
            RegionLevel::Far => tl.charge_far_io(dir, len),
        });
    }
}

/// The order in which a stage issues its `n` charged pieces: the installed
/// executor's seeded [`tlmm_scratchpad::Executor::permutation`] (schedule
/// fuzzing, one call per stage), or `0..n` in natural order without an
/// executor — allocation-free then.
pub(crate) fn stage_order(tl: &TwoLevel, n: usize) -> impl Iterator<Item = usize> {
    let seeded = tl.executor().map(|ex| ex.permutation(n));
    let natural = if seeded.is_some() { 0..0 } else { 0..n };
    seeded.into_iter().flatten().chain(natural)
}

/// Charge compute split evenly across lanes (ambient-lane offset like
/// [`charge_io_striped`]). Compute never touches transfer slots, so there
/// is nothing to arbitrate or permute.
pub fn charge_compute_striped(tl: &TwoLevel, ops: u64, lanes: usize) {
    let base = current_lane();
    for (i, r) in striped_ranges(ops as usize, lanes).enumerate() {
        with_lane(base + i, || tl.charge_compute(r.len() as u64));
    }
}

/// Endpoint pair of a charged copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyKind {
    /// DRAM → scratchpad (far read + near write).
    FarToNear,
    /// Scratchpad → DRAM (near read + far write).
    NearToFar,
    /// DRAM → DRAM (far read + far write).
    FarToFar,
    /// Scratchpad → scratchpad (near read + near write).
    NearToNear,
}

/// Split `0..len` into at most `lanes` contiguous near-equal stripes.
///
/// Returns a lazy iterator so per-charge callers ([`charge_io_striped`],
/// [`charge_compute_striped`]) stay allocation-free on the hot path — these
/// run once per transfer in every merge round and used to collect a `Vec`
/// each time. The iterator is `Clone + ExactSizeIterator`, so callers that
/// genuinely need a materialized list (e.g. pool fan-out) can collect it
/// themselves.
pub fn striped_ranges(
    len: usize,
    lanes: usize,
) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    let stripes = Stripes::new(len, lanes);
    (0..stripes.count).map(move |i| stripes.get(i))
}

/// The stripe geometry behind [`striped_ranges`], indexable so a stage can
/// visit the stripes in any order.
#[derive(Debug, Clone, Copy)]
struct Stripes {
    len: usize,
    per: usize,
    count: usize,
}

impl Stripes {
    fn new(len: usize, lanes: usize) -> Self {
        // `per` for the empty case is arbitrary; `count` is 0 so nothing
        // yields.
        let per = if len == 0 {
            1
        } else {
            len.div_ceil(lanes.max(1))
        };
        Self {
            len,
            per,
            count: len.div_ceil(per),
        }
    }

    fn get(&self, i: usize) -> Range<usize> {
        i * self.per..((i + 1) * self.per).min(self.len)
    }
}

fn charge_stripe<T>(tl: &TwoLevel, kind: CopyKind, elems: usize) {
    let bytes = (elems * std::mem::size_of::<T>()) as u64;
    match kind {
        CopyKind::FarToNear => {
            tl.charge_far_io(Dir::Read, bytes);
            tl.charge_near_io(Dir::Write, bytes);
        }
        CopyKind::NearToFar => {
            tl.charge_near_io(Dir::Read, bytes);
            tl.charge_far_io(Dir::Write, bytes);
        }
        CopyKind::FarToFar => {
            tl.charge_far_io(Dir::Read, bytes);
            tl.charge_far_io(Dir::Write, bytes);
        }
        CopyKind::NearToNear => {
            tl.charge_near_io(Dir::Read, bytes);
            tl.charge_near_io(Dir::Write, bytes);
        }
    }
}

/// Copy `src` into `dst` (equal lengths), charging both endpoints of
/// `kind` in lane stripes: stripe `i` is charged on lane `base + i` in
/// [`stage_order`], then the bytes move in one pass, split over `threads`
/// host workers by [`crate::pool`] (1 = a single inline copy).
pub fn charged_copy<T: SortElem>(
    tl: &TwoLevel,
    kind: CopyKind,
    src: &[T],
    dst: &mut [T],
    lanes: usize,
    threads: usize,
) {
    assert_eq!(src.len(), dst.len(), "charged_copy length mismatch");
    if src.is_empty() {
        return;
    }
    let base = current_lane();
    let stripes = Stripes::new(src.len(), lanes);
    for i in stage_order(tl, stripes.count) {
        with_lane(base + i, || {
            charge_stripe::<T>(tl, kind, stripes.get(i).len())
        });
    }
    let per = src.len().div_ceil(threads.max(1));
    crate::pool::run_indexed(
        threads,
        src.chunks(per).zip(dst.chunks_mut(per)),
        |_, (s, d)| d.copy_from_slice(s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    #[test]
    fn striped_ranges_cover_exactly() {
        for (len, lanes) in [(0, 4), (1, 4), (10, 3), (100, 7), (4096, 16), (5, 100)] {
            let rs: Vec<_> = striped_ranges(len, lanes).collect();
            assert_eq!(striped_ranges(len, lanes).len(), rs.len());
            assert!(rs.len() <= lanes.max(1));
            let mut cursor = 0;
            for r in &rs {
                assert_eq!(r.start, cursor);
                assert!(!r.is_empty());
                cursor = r.end;
            }
            assert_eq!(cursor, len);
        }
    }

    #[test]
    fn copy_moves_data_and_charges() {
        let tl = tl();
        let src: Vec<u64> = (0..10_000).collect();
        let mut dst = vec![0u64; 10_000];
        charged_copy(&tl, CopyKind::FarToNear, &src, &mut dst, 8, 1);
        assert_eq!(src, dst);
        let s = tl.ledger().snapshot();
        assert_eq!(s.far_bytes, 80_000);
        assert_eq!(s.near_bytes, 80_000);
        // 8 stripes of 10 000 B each, ⌈10000/64⌉ = 157 blocks per stripe.
        assert_eq!(s.far_read_blocks, 8 * 157);
    }

    #[test]
    fn parallel_copy_matches_sequential_charges() {
        let run = |threads: usize| {
            let tl = tl();
            let src: Vec<u32> = (0..50_000).collect();
            let mut dst = vec![0u32; 50_000];
            charged_copy(&tl, CopyKind::NearToFar, &src, &mut dst, 8, threads);
            assert_eq!(src, dst);
            tl.ledger().snapshot()
        };
        let a = run(4);
        let b = run(1);
        assert_eq!(a, b);
    }

    #[test]
    fn all_copy_kinds_charge_correct_levels() {
        let cases = [
            (CopyKind::FarToNear, true, true),
            (CopyKind::NearToFar, true, true),
            (CopyKind::FarToFar, true, false),
            (CopyKind::NearToNear, false, true),
        ];
        for (kind, far, near) in cases {
            let tl = tl();
            let src = vec![1u8; 1000];
            let mut dst = vec![0u8; 1000];
            charged_copy(&tl, kind, &src, &mut dst, 4, 1);
            let s = tl.ledger().snapshot();
            assert_eq!(s.far_bytes > 0, far, "{kind:?}");
            assert_eq!(s.near_bytes > 0, near, "{kind:?}");
        }
    }

    #[test]
    fn lanes_receive_stripes() {
        let tl = tl();
        tl.begin_phase("copy");
        let src = vec![0u64; 8192];
        let mut dst = vec![0u64; 8192];
        charged_copy(&tl, CopyKind::FarToNear, &src, &mut dst, 8, 4);
        tl.end_phase();
        let t = tl.take_trace();
        assert_eq!(t.phases[0].active_lanes(), 8);
        // Stripes are near-equal.
        let works = &t.phases[0].lanes;
        let max = works.iter().map(|w| w.far_read_bytes).max().unwrap();
        let min = works.iter().map(|w| w.far_read_bytes).min().unwrap();
        assert!(max - min <= 8 * 1024 / 8);
    }
}
