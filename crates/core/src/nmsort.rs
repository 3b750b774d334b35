//! NMsort: the practical two-phase near-memory parallel sort (§IV-D).
//!
//! **Phase 1.** Stream `Θ(M)`-sized chunks of the input into the scratchpad;
//! sort each chunk there with a parallel external mergesort; write the
//! sorted chunk back to DRAM; and extract *bucket metadata* — per chunk, the
//! `BucketPos` array (first index of every bucket in the sorted chunk), and
//! globally the `BucketTot` array (aggregate bucket sizes), which stays
//! resident in the scratchpad for the whole run. Recording metadata instead
//! of eagerly scattering bucket elements avoids the many small DRAM
//! transfers that made the naive algorithm unable to exploit the scratchpad.
//!
//! **Phase 2.** Greedily take maximal runs of consecutive buckets whose
//! total size fits the scratchpad ("we batched thousands of buckets into one
//! transfer"); gather the corresponding segment of every sorted chunk into
//! the scratchpad; multiway-merge the segments (they are sorted); and stream
//! the merged batch to its final position in DRAM.
//!
//! Inputs with heavy duplication can produce single buckets larger than the
//! scratchpad; those are split by sampled sub-splitters and, in the limit
//! (too few distinct keys to split), merged directly from DRAM — correct for
//! arbitrary inputs, merely less scratchpad-accelerated, and counted
//! honestly either way.

use crate::bucketize::{accumulate_totals, bucket_positions, BucketPositions};
use crate::extsort::{external_sort, ExtSortConfig, RegionLevel};
use crate::par::{charge_compute_striped, charge_io_striped, charged_copy, stage_order, CopyKind};
use crate::pmerge::parallel_merge;
use crate::quicksort::external_quicksort;
use crate::sample::{draw_pivots, PivotSample};
use crate::{SortElem, SortError};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tlmm_model::CostSnapshot;
use tlmm_scratchpad::trace::with_lane;
use tlmm_scratchpad::{
    with_faults_suppressed, ArenaBuf, Backoff, Dir, FarArray, FaultDecision, FaultOp, NearArray,
    RetryClass, StagingArena, TransferId, TwoLevel,
};

/// Which algorithm sorts each chunk inside the scratchpad (§III-A: "Other
/// sorting algorithms could be used, such as quicksort").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkSorter {
    /// Multiway mergesort with fanout `Z/ρB` (Corollary 3; the paper's
    /// choice — "practically competitive" at hardware-realistic ρ).
    #[default]
    MultiwayMerge,
    /// External quicksort (Corollary 7; optimal only when ρ = Ω(lg M/Z)).
    Quicksort,
}

/// Tuning knobs for [`nmsort`].
#[derive(Debug, Clone)]
pub struct NmSortConfig {
    /// Virtual lanes (simulated cores) to attribute work to. The paper's
    /// Fig. 4 machine has 256.
    pub sim_lanes: usize,
    /// Elements per Phase-1 chunk. Default: 40 % of the scratchpad, leaving
    /// an equal-sized merge buffer plus bookkeeping space.
    pub chunk_elems: Option<usize>,
    /// Number of pivots (`m`, so `m+1` buckets). Default:
    /// `min(M/4B, chunk/8, 65536)`.
    pub n_pivots: Option<usize>,
    /// RNG seed for pivot sampling.
    pub seed: u64,
    /// Host worker threads fanning out real work (chunk copies, segment
    /// gathers, merges) in addition to virtual-lane accounting. `1` runs
    /// everything inline; never affects simulated charges.
    pub threads: usize,
    /// Mark ingest phases overlappable (DMA double-buffering semantics).
    pub use_dma: bool,
    /// In-scratchpad chunk sorting algorithm.
    pub chunk_sorter: ChunkSorter,
}

impl Default for NmSortConfig {
    fn default() -> Self {
        Self {
            sim_lanes: 8,
            chunk_elems: None,
            n_pivots: None,
            seed: 0x5EED_CAFE,
            threads: crate::pool::host_threads(),
            use_dma: false,
            chunk_sorter: ChunkSorter::MultiwayMerge,
        }
    }
}

/// Counts of every degradation-ladder action a run took; all zero on a
/// clean run over well-spread keys. Each ladder rung is also mirrored in a
/// `degradation.*` telemetry counter, so fleets can alert on them without
/// plumbing reports around.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationStats {
    /// Phase-1 chunk-size halvings after injected allocation failures.
    pub chunk_shrinks: u64,
    /// Retried small near allocations (pivot residence, bucket totals).
    pub alloc_retries: u64,
    /// Re-staged transfers after injected aborts (Phase-1 ingest and
    /// writeback; each aborted attempt was charged in full).
    pub transfer_retries: u64,
    /// Transfers that completed after an injected retransmission delay
    /// (charged twice).
    pub transfer_delays: u64,
    /// Cache staging streams re-read (or retransmitted) inside the chunk
    /// sorter after injected [`FaultOp::FarStage`]/[`FaultOp::NearStage`]
    /// events.
    pub stage_restages: u64,
    /// Operations forced through with injection suppressed after the retry
    /// budget ran out — the last rung of every ladder.
    pub forced_ops: u64,
    /// Phase-2 batches merged straight from DRAM because their gather could
    /// not be staged into the scratchpad.
    pub batch_fallbacks: u64,
    /// Oversized-bucket parts merged straight from DRAM (too few distinct
    /// keys to sub-split). Fires on duplicate-heavy inputs even without
    /// faults — a data-driven degradation, not a fault-driven one.
    pub dram_direct_parts: u64,
    /// DMA-overlapped Phase-1 transfers demoted to blocking synchronous
    /// copies after an injected [`FaultOp::DmaIssue`] abort (same bytes
    /// moved; only the overlap is lost).
    pub dma_fallbacks: u64,
}

impl DegradationStats {
    /// Total degradation events of any kind.
    pub fn total(&self) -> u64 {
        self.chunk_shrinks
            + self.alloc_retries
            + self.transfer_retries
            + self.transfer_delays
            + self.stage_restages
            + self.forced_ops
            + self.batch_fallbacks
            + self.dram_direct_parts
            + self.dma_fallbacks
    }

    /// Did any ladder rung fire?
    pub fn any(&self) -> bool {
        self.total() > 0
    }
}

/// Result of an [`nmsort`] run.
#[derive(Debug)]
pub struct NmSortReport<T> {
    /// The sorted output, resident in far memory.
    pub output: FarArray<T>,
    /// Phase-1 chunks processed.
    pub chunks: usize,
    /// Pivots used (after deduplication).
    pub n_pivots: usize,
    /// Phase-2 batches (bucket groups merged per scratchpad fill).
    pub batches: usize,
    /// Oversized buckets that required sub-splitting or streaming.
    pub oversized_buckets: usize,
    /// Degradation-ladder actions the run took (fault recovery and
    /// DRAM-direct fallbacks).
    pub degradations: DegradationStats,
    /// Ledger delta of the sampling step.
    pub sample_cost: CostSnapshot,
    /// Ledger delta of Phase 1.
    pub phase1_cost: CostSnapshot,
    /// Ledger delta of Phase 2.
    pub phase2_cost: CostSnapshot,
}

struct Geometry {
    chunk: usize,
    /// Chunk-sized staging buffers Phase 1 needs: 2 in blocking mode
    /// (current + sort scratch), 3 in DMA mode on multi-chunk inputs
    /// (current + sort scratch + the next chunk being gathered in the
    /// background — the double buffer).
    n_bufs: usize,
}

/// Chunk-derived counts: `(n_chunks, n_pivots)` for a given chunk size.
/// Factored out so the shrink ladder can recompute them after the chunk is
/// reduced under allocation pressure.
fn chunk_counts(tl: &TwoLevel, n: usize, chunk: usize, cfg: &NmSortConfig) -> (usize, usize) {
    let n_chunks = n.div_ceil(chunk.max(1)).max(1);
    let n_pivots = if n_chunks <= 1 {
        0
    } else {
        cfg.n_pivots
            .unwrap_or_else(|| {
                let by_blocks = (tl.params().scratchpad_blocks() / 4) as usize;
                by_blocks.min(chunk / 8).min(65_536)
            })
            .max(1)
    };
    (n_chunks, n_pivots)
}

fn geometry<T: SortElem>(
    tl: &TwoLevel,
    n: usize,
    cfg: &NmSortConfig,
) -> Result<Geometry, SortError> {
    let elem = std::mem::size_of::<T>();
    let m_elems = tl.params().scratchpad_capacity_elems(elem);
    // Both modes budget 4/5 of M for chunk buffers; DMA mode splits it
    // three ways (the third buffer is the double-buffered next chunk).
    let default_chunk = if cfg.use_dma {
        (m_elems * 4 / 15).max(2)
    } else {
        (m_elems * 2 / 5).max(2)
    };
    let chunk = cfg.chunk_elems.unwrap_or(default_chunk).clamp(1, n.max(1));
    let n_chunks = n.div_ceil(chunk.max(1)).max(1);
    let n_bufs = if cfg.use_dma && n_chunks > 1 { 3 } else { 2 };
    let (_n_chunks, n_pivots) = chunk_counts(tl, n, chunk, cfg);
    // Feasibility: the chunk buffers + pivots + totals must fit in M.
    let needed = (n_bufs * chunk * elem + n_pivots * elem + (n_pivots + 1) * 8) as u64;
    if needed > tl.params().scratchpad_bytes {
        return Err(SortError::ScratchpadTooSmall {
            needed,
            available: tl.params().scratchpad_bytes,
        });
    }
    Ok(Geometry { chunk, n_bufs })
}

/// Charge the full traffic of a far↔near copy of `bytes` without moving
/// data — the honest cost of an aborted or retransmitted staging attempt
/// (the payload crossed the channels and was discarded).
fn charge_copy_volume(tl: &TwoLevel, kind: CopyKind, bytes: u64, lanes: usize) {
    match kind {
        CopyKind::FarToNear => {
            charge_io_striped(tl, RegionLevel::Far, Dir::Read, bytes, lanes);
            charge_io_striped(tl, RegionLevel::Near, Dir::Write, bytes, lanes);
        }
        CopyKind::NearToFar => {
            charge_io_striped(tl, RegionLevel::Near, Dir::Read, bytes, lanes);
            charge_io_striped(tl, RegionLevel::Far, Dir::Write, bytes, lanes);
        }
        _ => unreachable!("staged copies move between far and near"),
    }
}

/// The fault ladder of one staged far↔near transfer of `bytes`, run on
/// the issuing thread before the transfer itself is charged. Injected
/// aborts are re-staged, each aborted attempt charged in full, until the
/// [`Backoff`] policy's `Stage` budget runs out and the transfer is forced
/// through; an injected delay charges one retransmission.
fn stage_fault_ladder(
    tl: &TwoLevel,
    kind: CopyKind,
    bytes: u64,
    lanes: usize,
    stats: &mut DegradationStats,
) {
    let op = match kind {
        CopyKind::FarToNear => FaultOp::FarToNear,
        CopyKind::NearToFar => FaultOp::NearToFar,
        _ => unreachable!("staged copies move between far and near"),
    };
    let mut bo = Backoff::for_memory(tl, RetryClass::Stage);
    loop {
        match tl.preflight(op) {
            FaultDecision::Fail(_) => {
                charge_copy_volume(tl, kind, bytes, lanes);
                if bo.again() {
                    stats.transfer_retries += 1;
                } else {
                    bo.give_up();
                    stats.forced_ops += 1;
                    return;
                }
            }
            FaultDecision::Delay(_) => {
                charge_copy_volume(tl, kind, bytes, lanes);
                stats.transfer_delays += 1;
                tlmm_telemetry::counter!("degradation.transfer_delay").incr();
                return;
            }
            FaultDecision::Proceed => return,
        }
    }
}

/// A [`charged_copy`] behind the [`stage_fault_ladder`].
fn staged_copy_with_retry<T: SortElem>(
    tl: &TwoLevel,
    kind: CopyKind,
    src: &[T],
    dst: &mut [T],
    lanes: usize,
    threads: usize,
    stats: &mut DegradationStats,
) {
    stage_fault_ladder(tl, kind, std::mem::size_of_val(src) as u64, lanes, stats);
    charged_copy(tl, kind, src, dst, lanes, threads);
}

/// Consult the injector's [`FaultOp::DmaIssue`] class before overlapping a
/// Phase-1 transfer with DMA. An injected abort demotes the transfer to a
/// blocking synchronous copy (the phase is simply not marked overlappable):
/// same bytes move, only the latency hiding is lost — the mildest rung of
/// the degradation ladder. Delay decisions keep the overlap.
fn dma_issue_allowed(tl: &TwoLevel, stats: &mut DegradationStats) -> bool {
    match tl.preflight(FaultOp::DmaIssue) {
        FaultDecision::Fail(_) => {
            stats.dma_fallbacks += 1;
            tlmm_telemetry::counter!("degradation.dma_abort").incr();
            tlmm_telemetry::counter!("degradation.dma_sync_fallback").incr();
            false
        }
        FaultDecision::Delay(_) | FaultDecision::Proceed => true,
    }
}

/// Injected fault events on the cache staging classes so far (the chunk
/// sorter recovers from these internally; see [`crate::extsort`]).
fn stage_event_count(tl: &TwoLevel) -> u64 {
    tl.fault_injector()
        .map(|inj| {
            inj.events()
                .iter()
                .filter(|e| matches!(e.op, FaultOp::FarStage | FaultOp::NearStage))
                .count() as u64
        })
        .unwrap_or(0)
}

/// Near allocation with bounded retry of injected refusals, then a forced
/// attempt with injection suppressed. Genuine capacity errors propagate
/// immediately.
fn near_alloc_with_retry<T: Copy + Default>(
    tl: &TwoLevel,
    len: usize,
    stats: &mut DegradationStats,
) -> Result<NearArray<T>, SortError> {
    let mut bo = Backoff::for_memory(tl, RetryClass::Alloc);
    while !bo.exhausted() {
        match tl.near_alloc::<T>(len) {
            Ok(a) => return Ok(a),
            Err(e) if e.is_injected() => {
                bo.again();
                stats.alloc_retries += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    bo.give_up();
    stats.forced_ops += 1;
    with_faults_suppressed(|| tl.near_alloc::<T>(len)).map_err(SortError::from)
}

/// Allocate the chunk-sized staging buffers from the run's arena, halving
/// the chunk under injected allocation pressure (bounded by the
/// [`Backoff`] `Shrink` budget) before forcing the allocation through.
/// Returns the chunk size actually used. Arena growth is exact-fit, so the
/// scratchpad bytes reserved here match what direct `near_alloc` calls
/// would have reserved, shrink ladder included.
fn alloc_chunk_buffers<T: SortElem>(
    tl: &TwoLevel,
    arena: &StagingArena,
    mut chunk: usize,
    n_bufs: usize,
    stats: &mut DegradationStats,
) -> Result<(usize, Vec<ArenaBuf<T>>), SortError> {
    let try_alloc = |chunk: usize| -> Result<Vec<ArenaBuf<T>>, tlmm_scratchpad::SpError> {
        let mut bufs = Vec::with_capacity(n_bufs);
        for _ in 0..n_bufs {
            bufs.push(arena.alloc_array::<T>(chunk)?);
        }
        Ok(bufs)
    };
    let mut bo = Backoff::for_memory(tl, RetryClass::Shrink);
    loop {
        match try_alloc(chunk) {
            Ok(bufs) => return Ok((chunk, bufs)),
            Err(e) if e.is_injected() && chunk > 2 && bo.again() => {
                // Transient scratchpad pressure: degrade to a smaller chunk
                // (more Phase-1 chunks, same asymptotics) instead of failing.
                chunk = (chunk / 2).max(2);
                stats.chunk_shrinks += 1;
            }
            Err(e) if e.is_injected() => {
                bo.give_up();
                stats.forced_ops += 1;
                return with_faults_suppressed(|| try_alloc(chunk))
                    .map(|bufs| (chunk, bufs))
                    .map_err(SortError::from);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// How a Phase-1 ingest moves its bytes. Every mode settles its fault
/// preflights and ledger charges on the issuing thread at issue time, so
/// the ledger and trace never depend on which mode ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mover {
    /// A fault-laddered [`charged_copy`] before the chunk's sort: the
    /// blocking schedule, the pipeline's priming ingest, and the sync
    /// fallback after an injected [`FaultOp::DmaIssue`] abort.
    Blocking,
    /// An overlapped gather copied and retired inline at issue time (one
    /// host thread; the overlap is simulated only).
    Inline,
    /// An overlapped gather whose bytes a scoped worker copies while the
    /// current chunk sorts; retired once the sort is done.
    Background,
}

/// The NMsort Phase-1 chunk loop's inputs and outputs: one ingest and one
/// sort → writeback → bounds body shared by every schedule.
struct Phase1<'a, T> {
    tl: &'a TwoLevel,
    cfg: &'a NmSortConfig,
    ext_cfg: ExtSortConfig,
    arena: &'a StagingArena,
    sample: &'a PivotSample<T>,
    input: &'a [T],
    chunk: usize,
    n_chunks: usize,
    lanes: usize,
    totals: &'a mut [u64],
    /// Every chunk, sorted, at its input offset.
    sorted_chunks: FarArray<T>,
    /// Per-chunk BucketPos arrays (multi-chunk runs only).
    positions: Vec<BucketPositions>,
    stats: DegradationStats,
}

impl<T: SortElem> Phase1<'_, T> {
    fn chunk_range(&self, k: usize) -> Range<usize> {
        k * self.chunk..((k + 1) * self.chunk).min(self.input.len())
    }

    /// Open an ingest phase and gather chunk `k` into `dst`. An overlapped
    /// mover consults [`FaultOp::DmaIssue`] first; an abort demotes the
    /// gather to [`Mover::Blocking`] in the same phase slot (same bytes
    /// move, only the overlap is lost). A [`Mover::Background`] gather
    /// returns its pending transfer for the caller to fill and retire.
    fn ingest(
        &mut self,
        dst: &mut ArenaBuf<T>,
        k: usize,
        mover: Mover,
    ) -> Result<Option<(TransferId, Range<usize>)>, SortError> {
        let range = self.chunk_range(k);
        let len = range.len();
        self.tl.begin_phase("nmsort.p1.ingest");
        if mover == Mover::Blocking || !dma_issue_allowed(self.tl, &mut self.stats) {
            staged_copy_with_retry(
                self.tl,
                CopyKind::FarToNear,
                &self.input[range],
                &mut dst.as_mut_slice_uncharged()[..len],
                self.lanes,
                self.cfg.threads,
                &mut self.stats,
            );
            self.arena.note_sync_transfer();
            return Ok(None);
        }
        // Overlappable: the flow engine charges max(ingest(k), sort(k-1))
        // instead of their sum.
        self.tl.mark_phase_overlappable();
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        stage_fault_ladder(
            self.tl,
            CopyKind::FarToNear,
            bytes,
            self.lanes,
            &mut self.stats,
        );
        charge_copy_volume(self.tl, CopyKind::FarToNear, bytes, self.lanes);
        let id = dst.issue(Dir::Read, bytes)?;
        if mover == Mover::Background {
            return Ok(Some((id, range)));
        }
        dst.transfer_fill(&self.input[range], 0);
        self.arena.retire(id)?;
        Ok(None)
    }

    /// Sort chunk `k` (resident in `chunk_buf`), write it back to DRAM and
    /// record its bucket bounds. The caller owns the enclosing phase
    /// bracket and calls `end_phase`.
    fn sort_writeback_bounds(
        &mut self,
        k: usize,
        chunk_buf: &mut ArenaBuf<T>,
        scratch_buf: &mut ArenaBuf<T>,
    ) {
        let range = self.chunk_range(k);
        let len = range.len();
        let tl = self.tl;

        tl.begin_phase("nmsort.p1.sort");
        let sorted: &[T] = match self.cfg.chunk_sorter {
            ChunkSorter::MultiwayMerge => {
                let outcome = external_sort(
                    tl,
                    RegionLevel::Near,
                    &mut chunk_buf.as_mut_slice_uncharged()[..len],
                    &mut scratch_buf.as_mut_slice_uncharged()[..len],
                    &self.ext_cfg,
                );
                if outcome.in_scratch {
                    &scratch_buf.as_slice_uncharged()[..len]
                } else {
                    &chunk_buf.as_slice_uncharged()[..len]
                }
            }
            ChunkSorter::Quicksort => {
                external_quicksort(
                    tl,
                    RegionLevel::Near,
                    &mut chunk_buf.as_mut_slice_uncharged()[..len],
                    self.lanes,
                );
                &chunk_buf.as_slice_uncharged()[..len]
            }
        };

        tl.begin_phase("nmsort.p1.writeback");
        if self.cfg.use_dma && dma_issue_allowed(tl, &mut self.stats) {
            tl.mark_phase_overlappable();
        }
        staged_copy_with_retry(
            tl,
            CopyKind::NearToFar,
            sorted,
            &mut self.sorted_chunks.as_mut_slice_uncharged()[range],
            self.lanes,
            self.cfg.threads,
            &mut self.stats,
        );
        self.arena.note_sync_transfer();

        if self.n_chunks > 1 {
            tl.begin_phase("nmsort.p1.bounds");
            let pos = bucket_positions(
                tl,
                RegionLevel::Near,
                sorted,
                &self.sample.pivots,
                self.lanes,
                self.cfg.threads,
            );
            accumulate_totals(tl, self.totals, &pos, self.lanes);
            // BucketPos for this chunk goes to DRAM (the auxiliary array of
            // Fig. 2(c)); the write is a cooperative stream like the data
            // transfers.
            charge_io_striped(
                tl,
                RegionLevel::Far,
                Dir::Write,
                (pos.len() * 8) as u64,
                self.lanes,
            );
            self.positions.push(pos);
        }
    }
}

/// Greedy batch plan over buckets: maximal consecutive groups with total
/// size ≤ `cap`. A single bucket larger than `cap` forms its own batch.
fn plan_batches(totals: &[u64], cap: u64) -> Vec<(usize, usize)> {
    let mut batches = Vec::new();
    let mut lo = 0usize;
    let mut acc = 0u64;
    for (i, &t) in totals.iter().enumerate() {
        if acc > 0 && acc + t > cap {
            batches.push((lo, i));
            lo = i;
            acc = 0;
        }
        acc += t;
    }
    if acc > 0 || lo < totals.len() {
        batches.push((lo, totals.len()));
    }
    batches.retain(|(a, b)| a < b);
    batches
}

/// Sort `input` with NMsort; returns the sorted output and a report.
pub fn nmsort<T: SortElem>(
    tl: &TwoLevel,
    input: FarArray<T>,
    cfg: &NmSortConfig,
) -> Result<NmSortReport<T>, SortError> {
    let n = input.len();
    let lanes = cfg.sim_lanes.max(1);
    crate::pool::validate_threads(cfg.threads)?;
    if n == 0 {
        return Ok(NmSortReport {
            output: input,
            chunks: 0,
            n_pivots: 0,
            batches: 0,
            oversized_buckets: 0,
            degradations: DegradationStats::default(),
            sample_cost: CostSnapshot::default(),
            phase1_cost: CostSnapshot::default(),
            phase2_cost: CostSnapshot::default(),
        });
    }
    let _run_span = tlmm_telemetry::span!("nmsort");
    let geo = geometry::<T>(tl, n, cfg)?;
    let base = tl.ledger().snapshot();
    let mut degradations = DegradationStats::default();
    // Stage-class faults are handled (and charged) inside the chunk sorter;
    // attribute them to this run by event-log delta.
    let stage_events_base = stage_event_count(tl);

    // ---- Scratchpad allocations ---------------------------------------
    // All chunk staging lives in a generation-based arena: chunk_buf
    // (ingest + gather space), scratch_buf (sort ping-pong + merge
    // output), and in DMA mode next_buf (the incoming double-buffered
    // chunk). Allocated before sampling so that an allocation-pressure
    // chunk shrink can still influence the default pivot count.
    let arena = StagingArena::new(tl);
    let (chunk, bufs) =
        alloc_chunk_buffers::<T>(tl, &arena, geo.chunk, geo.n_bufs, &mut degradations)?;
    let mut bufs = bufs.into_iter();
    let mut chunk_buf = bufs.next().expect("chunk buffer");
    let mut scratch_buf = bufs.next().expect("scratch buffer");
    let mut next_buf = bufs.next();
    let n_chunks = n.div_ceil(chunk.max(1)).max(1);
    // The pivot count stays anchored to the *pre-shrink* geometry: a
    // degraded run must never sample fewer pivots (and so pay less far
    // traffic) than the clean run would. The shrunk chunk only affects how
    // many Phase-1 chunks there are; the smaller buffers always still hold
    // the pre-shrink pivot set.
    let n_pivots = if n_chunks <= 1 {
        0
    } else {
        let (_, p) = chunk_counts(tl, n, geo.chunk, cfg);
        p.max(1)
    };

    // ---- Pivot sample (kept resident in the scratchpad) ---------------
    tl.begin_phase("nmsort.sample");
    let sample: PivotSample<T> = if n_chunks > 1 {
        draw_pivots(tl, &input, n_pivots, cfg.seed, lanes)
    } else {
        PivotSample {
            pivots: Vec::new(),
            drawn: 0,
        }
    };
    tl.end_phase();
    let after_sample = tl.ledger().snapshot();

    // pivot_res reserves the resident sample; totals = BucketTot.
    let _pivot_res = near_alloc_with_retry::<T>(tl, sample.pivots.len(), &mut degradations)?;
    let mut totals_buf = near_alloc_with_retry::<u64>(tl, sample.n_buckets(), &mut degradations)?;

    // ---- Phase 1 --------------------------------------------------------
    // DMA mode on a multi-chunk input double-buffers: chunk k+1's gather
    // is issued before chunk k sorts. Everything else ingests chunk k
    // itself, blocking.
    let pipelined = geo.n_bufs == 3;
    let mover = match (pipelined, cfg.threads > 1) {
        (false, _) => Mover::Blocking,
        (true, false) => Mover::Inline,
        (true, true) => Mover::Background,
    };
    let src = input.as_slice_uncharged();
    let mut p1 = Phase1 {
        tl,
        cfg,
        ext_cfg: ExtSortConfig {
            lanes,
            threads: cfg.threads,
            ..Default::default()
        },
        arena: &arena,
        sample: &sample,
        input: src,
        chunk,
        n_chunks,
        lanes,
        totals: totals_buf.as_mut_slice_uncharged(),
        sorted_chunks: tl.far_alloc::<T>(n),
        positions: Vec::with_capacity(n_chunks),
        stats: degradations,
    };
    if pipelined {
        // Prime the pipeline: chunk 0 has nothing to hide behind.
        p1.ingest(&mut chunk_buf, 0, Mover::Blocking)?;
    }
    for k in 0..n_chunks {
        // Phase boundary: cooperative cancellation / deadline check.
        tl.checkpoint()?;
        let pending = if !pipelined {
            p1.ingest(&mut chunk_buf, k, mover)?
        } else if k + 1 < n_chunks {
            let nb = next_buf
                .as_mut()
                .expect("pipelined geometry has a next buffer");
            p1.ingest(nb, k + 1, mover)?
        } else {
            None
        };
        std::thread::scope(|s| {
            if let Some((_, range)) = pending.clone() {
                // The worker only moves bytes; the read-before-retire guard
                // on next_buf stays armed until the retire below.
                let nb = next_buf
                    .as_mut()
                    .expect("pipelined geometry has a next buffer");
                s.spawn(move || nb.transfer_fill(&src[range], 0));
            }
            p1.sort_writeback_bounds(k, &mut chunk_buf, &mut scratch_buf);
        });
        if let Some((id, _)) = pending {
            arena.retire(id)?;
        }
        tl.end_phase();
        if pipelined && k + 1 < n_chunks {
            std::mem::swap(
                &mut chunk_buf,
                next_buf
                    .as_mut()
                    .expect("pipelined geometry has a next buffer"),
            );
        }
    }
    let Phase1 {
        sorted_chunks,
        positions: all_positions,
        stats: mut degradations,
        ..
    } = p1;
    // Phase 2 needs only two buffers; freeing the double buffer here
    // exercises the arena's free path on every DMA run.
    drop(next_buf);
    let after_p1 = tl.ledger().snapshot();

    // ---- Phase 2 --------------------------------------------------------
    let mut batches_run = 0usize;
    let mut oversized = 0usize;
    let elem = std::mem::size_of::<T>() as u64;
    let output = if n_chunks == 1 {
        // The single sorted chunk already is the final list.
        sorted_chunks
    } else {
        let mut output = tl.far_alloc::<T>(n);
        // Read BucketTot (resident in near) to plan batches (Fig. 3(a)).
        tl.begin_phase("nmsort.p2.plan");
        let totals: Vec<u64> = totals_buf.as_slice_uncharged().to_vec();
        charge_io_striped(
            tl,
            RegionLevel::Near,
            Dir::Read,
            (totals.len() * 8) as u64,
            lanes,
        );
        let cap = chunk as u64;
        let batches = plan_batches(&totals, cap);
        batches_run = batches.len();

        let chunk_starts: Vec<usize> = (0..n_chunks).map(|k| k * chunk).collect();
        let mut out_off = 0usize;
        for (blo, bhi) in batches {
            // Phase boundary: cooperative cancellation / deadline check.
            tl.checkpoint()?;
            let total: u64 = totals[blo..bhi].iter().sum();
            if total == 0 {
                continue;
            }
            if total <= cap {
                // Can this batch be staged into the scratchpad right now?
                tl.begin_phase("nmsort.p2.gather");
                let decision = tl.preflight(FaultOp::FarToNear);
                if let FaultDecision::Delay(_) = decision {
                    charge_copy_volume(tl, CopyKind::FarToNear, total * elem, lanes);
                    degradations.transfer_delays += 1;
                    tlmm_telemetry::counter!("degradation.transfer_delay").incr();
                }
                if let FaultDecision::Fail(_) = decision {
                    // The gather aborted mid-flight: charge the lost staging
                    // attempt and merge this batch straight from DRAM — the
                    // same fallback §IV-D uses for unsplittable buckets.
                    charge_copy_volume(tl, CopyKind::FarToNear, total * elem, lanes);
                    degradations.batch_fallbacks += 1;
                    tlmm_telemetry::counter!("degradation.p2_dram_direct").incr();
                    merge_from_far(
                        tl,
                        sorted_chunks.as_slice_uncharged(),
                        &batch_segments(&all_positions, &chunk_starts, (blo, bhi)),
                        true,
                        &mut output.as_mut_slice_uncharged()[out_off..out_off + total as usize],
                        lanes,
                        cfg.threads,
                    );
                } else {
                    merge_via_scratchpad(
                        tl,
                        sorted_chunks.as_slice_uncharged(),
                        &batch_segments(&all_positions, &chunk_starts, (blo, bhi)),
                        true,
                        &mut chunk_buf,
                        &mut scratch_buf,
                        &mut output.as_mut_slice_uncharged()[out_off..out_off + total as usize],
                        lanes,
                        cfg.threads,
                    );
                }
            } else {
                oversized += 1;
                tlmm_telemetry::counter!("nmsort.oversized_bucket").incr();
                let direct_parts = merge_oversized_bucket(
                    tl,
                    &sorted_chunks,
                    &all_positions,
                    &chunk_starts,
                    (blo, bhi),
                    &mut chunk_buf,
                    &mut scratch_buf,
                    &mut output,
                    out_off,
                    total as usize,
                    lanes,
                    cfg.threads,
                );
                degradations.dram_direct_parts += direct_parts as u64;
            }
            out_off += total as usize;
        }
        debug_assert_eq!(out_off, n, "batches must cover the input exactly");
        output
    };

    let after_p2 = tl.ledger().snapshot();
    degradations.stage_restages = stage_event_count(tl) - stage_events_base;
    if degradations.any() {
        tlmm_telemetry::counter!("degradation.runs").incr();
    }
    Ok(NmSortReport {
        output,
        chunks: n_chunks,
        n_pivots: sample.pivots.len(),
        batches: batches_run,
        oversized_buckets: oversized,
        degradations,
        sample_cost: after_sample.since(&base),
        phase1_cost: after_p1.since(&after_sample),
        phase2_cost: after_p2.since(&after_p1),
    })
}

/// Merge `segs` of `src` straight from DRAM into `out` in one
/// `nmsort.p2.stream_far` phase, never touching the scratchpad: the
/// Phase-2 fallback for a batch whose gather could not be staged
/// (`read_bounds`: its BucketPos boundary pairs are read from DRAM first)
/// and for an oversized-bucket part with too few distinct keys to split.
/// Far traffic matches the staged path (one read + one write of the data);
/// what is lost is the near-memory acceleration, not correctness.
fn merge_from_far<T: SortElem>(
    tl: &TwoLevel,
    src: &[T],
    segs: &[(usize, usize)],
    read_bounds: bool,
    out: &mut [T],
    lanes: usize,
    threads: usize,
) {
    let bytes = std::mem::size_of_val(out) as u64;
    tl.begin_phase("nmsort.p2.stream_far");
    if read_bounds {
        tl.charge_far_random(Dir::Read, 2 * segs.len() as u64, 16 * segs.len() as u64);
    }
    let seg_slices: Vec<&[T]> = segs.iter().map(|&(a, b)| &src[a..b]).collect();
    let cmps = parallel_merge(&seg_slices, out, lanes, threads);
    charge_io_striped(tl, RegionLevel::Far, Dir::Read, bytes, lanes);
    charge_io_striped(tl, RegionLevel::Far, Dir::Write, bytes, lanes);
    charge_compute_striped(tl, cmps, lanes);
    tl.end_phase();
}

/// Per-chunk segment of a bucket range: `(chunk_global_lo, chunk_global_hi)`
/// element offsets into the `sorted_chunks` array.
fn batch_segments(
    all_positions: &[BucketPositions],
    chunk_starts: &[usize],
    (blo, bhi): (usize, usize),
) -> Vec<(usize, usize)> {
    all_positions
        .iter()
        .zip(chunk_starts)
        .map(|(pos, &start)| (start + pos[blo] as usize, start + pos[bhi] as usize))
        .collect()
}

/// The `nmsort.p2.gather` phase of a scratchpad-staged Phase-2 batch or
/// part: copy `segs` of `src` back to back into `gather_buf`, charged as
/// one striped far→near transfer of the whole volume. With `read_bounds`
/// (a batch planned from BucketPos), each segment first charges the DRAM
/// read of its boundary pair on lane `k % lanes`, issued in the executor's
/// stage order.
fn gather_segments<T: SortElem>(
    tl: &TwoLevel,
    src: &[T],
    segs: &[(usize, usize)],
    read_bounds: bool,
    gather_buf: &mut ArenaBuf<T>,
    lanes: usize,
    threads: usize,
) {
    let total: usize = segs.iter().map(|&(lo, hi)| hi - lo).sum();
    let bytes = (total * std::mem::size_of::<T>()) as u64;
    tl.begin_phase("nmsort.p2.gather");
    gather_buf.arena().note_sync_transfer();
    if read_bounds {
        for k in stage_order(tl, segs.len()) {
            with_lane(k % lanes, || tl.charge_far_random(Dir::Read, 2, 16));
        }
    }
    let mut dsts: Vec<&mut [T]> = Vec::with_capacity(segs.len());
    let mut rest = &mut gather_buf.as_mut_slice_uncharged()[..total];
    for &(lo, hi) in segs {
        let (a, b) = std::mem::take(&mut rest).split_at_mut(hi - lo);
        dsts.push(a);
        rest = b;
    }
    crate::pool::run_indexed(threads, segs.iter().zip(dsts), |_, (&(lo, hi), dst)| {
        dst.copy_from_slice(&src[lo..hi])
    });
    // The gather streams the whole batch; all lanes cooperate on the
    // transfer (segments are subdivided further on a real machine), so
    // the volume is charged striped rather than one-lane-per-chunk.
    charge_io_striped(tl, RegionLevel::Far, Dir::Read, bytes, lanes);
    charge_io_striped(tl, RegionLevel::Near, Dir::Write, bytes, lanes);
}

/// A scratchpad-staged Phase-2 batch (or oversized-bucket part): gather
/// `segs` of `src` into `gather_buf` ([`gather_segments`]), merge them
/// inside the scratchpad, then stream the merged run to its final DRAM
/// position `out`.
#[allow(clippy::too_many_arguments)]
fn merge_via_scratchpad<T: SortElem>(
    tl: &TwoLevel,
    src: &[T],
    segs: &[(usize, usize)],
    read_bounds: bool,
    gather_buf: &mut ArenaBuf<T>,
    merge_buf: &mut ArenaBuf<T>,
    out: &mut [T],
    lanes: usize,
    threads: usize,
) {
    gather_segments(tl, src, segs, read_bounds, gather_buf, lanes, threads);
    let total = out.len();
    let bytes = std::mem::size_of_val(out) as u64;
    tl.begin_phase("nmsort.p2.merge");
    {
        let gather: &[T] = gather_buf.as_slice_uncharged();
        let mut seg_slices: Vec<&[T]> = Vec::with_capacity(segs.len());
        let mut cursor = 0usize;
        for &(lo, hi) in segs {
            seg_slices.push(&gather[cursor..cursor + (hi - lo)]);
            cursor += hi - lo;
        }
        let merged = &mut merge_buf.as_mut_slice_uncharged()[..total];
        let cmps = parallel_merge(&seg_slices, merged, lanes, threads);
        // Merge streams the batch through cache once each way.
        charge_io_striped(tl, RegionLevel::Near, Dir::Read, bytes, lanes);
        charge_io_striped(tl, RegionLevel::Near, Dir::Write, bytes, lanes);
        charge_compute_striped(tl, cmps, lanes);
    }

    // -- Stream the merged batch to its final DRAM position -------------
    tl.begin_phase("nmsort.p2.writeout");
    merge_buf.arena().note_sync_transfer();
    charged_copy(
        tl,
        CopyKind::NearToFar,
        &merge_buf.as_slice_uncharged()[..total],
        out,
        lanes,
        threads,
    );
    tl.end_phase();
}

/// A single bucket larger than the scratchpad: split it into
/// scratchpad-sized parts by sampled sub-splitters and run each part as a
/// normal batch; parts that still do not fit (too few distinct keys) are
/// merged straight from DRAM. Returns how many parts took the DRAM-direct
/// path.
#[allow(clippy::too_many_arguments)]
fn merge_oversized_bucket<T: SortElem>(
    tl: &TwoLevel,
    sorted_chunks: &FarArray<T>,
    all_positions: &[BucketPositions],
    chunk_starts: &[usize],
    bucket_range: (usize, usize),
    gather_buf: &mut ArenaBuf<T>,
    merge_buf: &mut ArenaBuf<T>,
    output: &mut FarArray<T>,
    out_off: usize,
    total: usize,
    lanes: usize,
    threads: usize,
) -> usize {
    let elem = std::mem::size_of::<T>() as u64;
    let cap = gather_buf.len();
    let segs = batch_segments(all_positions, chunk_starts, bucket_range);
    let src = sorted_chunks.as_slice_uncharged();

    // Sample sub-splitters from the bucket's segments (random far reads).
    tl.begin_phase("nmsort.p2.subsplit");
    let n_parts = total.div_ceil(cap / 2) + 1;
    let mut sample: Vec<T> = Vec::new();
    for &(lo, hi) in &segs {
        let len = hi - lo;
        if len == 0 {
            continue;
        }
        let want = ((16 * n_parts * len) / total).max(1);
        let step = (len / want).max(1);
        sample.extend(src[lo..hi].iter().step_by(step).copied());
    }
    tl.charge_far_random(Dir::Read, sample.len() as u64, sample.len() as u64 * elem);
    crate::kernels::sort_kernel(&mut sample);
    tl.charge_compute(sample.len() as u64 * crate::ceil_lg(sample.len()));
    sample.dedup();
    let mut splitters: Vec<T> = (1..n_parts)
        .map(|t| sample[(t * sample.len() / n_parts).min(sample.len() - 1)])
        .collect();
    splitters.dedup();

    // Per-splitter boundaries inside each segment (binary searches on DRAM).
    let mut cuts: Vec<Vec<usize>> = Vec::with_capacity(splitters.len() + 1);
    for s in &splitters {
        let row: Vec<usize> = segs
            .iter()
            .map(|&(lo, hi)| lo + src[lo..hi].partition_point(|x| x <= s))
            .collect();
        tl.charge_far_random(
            Dir::Read,
            segs.len() as u64 * crate::ceil_lg(total),
            segs.len() as u64 * crate::ceil_lg(total) * elem,
        );
        cuts.push(row);
    }
    cuts.push(segs.iter().map(|&(_, hi)| hi).collect());
    tl.end_phase();

    // Run each part.
    let mut dram_direct = 0usize;
    let mut part_off = out_off;
    let mut prev: Vec<usize> = segs.iter().map(|&(lo, _)| lo).collect();
    for row in cuts {
        let part_segs: Vec<(usize, usize)> = prev.iter().zip(&row).map(|(&a, &b)| (a, b)).collect();
        let part_total: usize = part_segs.iter().map(|&(a, b)| b - a).sum();
        prev = row;
        if part_total == 0 {
            continue;
        }
        if part_total <= cap {
            merge_via_scratchpad(
                tl,
                src,
                &part_segs,
                false,
                gather_buf,
                merge_buf,
                &mut output.as_mut_slice_uncharged()[part_off..part_off + part_total],
                lanes,
                threads,
            );
        } else {
            // Degenerate duplication: merge straight from DRAM.
            dram_direct += 1;
            tlmm_telemetry::counter!("nmsort.dram_direct_part").incr();
            merge_from_far(
                tl,
                src,
                &part_segs,
                false,
                &mut output.as_mut_slice_uncharged()[part_off..part_off + part_total],
                lanes,
                threads,
            );
        }
        part_off += part_total;
    }
    debug_assert_eq!(
        part_off,
        out_off + total,
        "oversized parts must cover bucket"
    );
    dram_direct
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tlmm_model::ScratchpadParams;

    fn tl_small() -> TwoLevel {
        // M = 1 MiB, Z = 16 KiB, B = 64, rho = 4.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    fn assert_sorted_matches(report: &NmSortReport<u64>, mut expect: Vec<u64>) {
        expect.sort_unstable();
        assert_eq!(report.output.as_slice_uncharged(), expect.as_slice());
    }

    #[test]
    fn sorts_multi_chunk_input() {
        let tl = tl_small();
        // M holds 131072 u64; chunk ≈ 52428; use n = 500k for ~10 chunks.
        let v = random_vec(500_000, 42);
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert!(report.chunks >= 8, "chunks = {}", report.chunks);
        assert!(report.batches >= 2);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn sorts_single_chunk_input() {
        let tl = tl_small();
        let v = random_vec(10_000, 1);
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_eq!(report.chunks, 1);
        assert_eq!(report.n_pivots, 0);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn sorts_empty_and_tiny() {
        let tl = tl_small();
        for n in [0usize, 1, 2, 3] {
            let v = random_vec(n, n as u64);
            let input = tl.far_from_vec(v.clone());
            let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert_sorted_matches(&report, v);
        }
    }

    #[test]
    fn sorts_presorted_reverse_and_equal() {
        let tl = tl_small();
        let n = 300_000usize;
        let cases: Vec<Vec<u64>> = vec![
            (0..n as u64).collect(),
            (0..n as u64).rev().collect(),
            vec![7; n],
        ];
        for v in cases {
            let input = tl.far_from_vec(v.clone());
            let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert_sorted_matches(&report, v);
        }
    }

    #[test]
    fn all_equal_forces_oversized_bucket_path() {
        let tl = tl_small();
        let n = 400_000usize;
        let v = vec![99u64; n];
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert!(report.oversized_buckets >= 1);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn few_distinct_keys() {
        let tl = tl_small();
        let n = 400_000usize;
        let v: Vec<u64> = (0..n).map(|i| (i % 3) as u64).collect();
        let input = tl.far_from_vec(v.clone());
        let report = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn respects_explicit_geometry() {
        let tl = tl_small();
        let v = random_vec(100_000, 5);
        let input = tl.far_from_vec(v.clone());
        let cfg = NmSortConfig {
            chunk_elems: Some(10_000),
            n_pivots: Some(100),
            ..Default::default()
        };
        let report = nmsort(&tl, input, &cfg).unwrap();
        assert_eq!(report.chunks, 10);
        assert!(report.n_pivots <= 100);
        assert_sorted_matches(&report, v);
    }

    #[test]
    fn rejects_oversized_chunk_config() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(100_000, 6));
        let cfg = NmSortConfig {
            chunk_elems: Some(100_000), // 2x 800KB buffers > 1MB scratchpad
            ..Default::default()
        };
        match nmsort(&tl, input, &cfg) {
            Err(SortError::ScratchpadTooSmall { .. }) => {}
            other => panic!("expected ScratchpadTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn sequential_and_parallel_agree_on_ledger() {
        let run = |threads: usize| {
            let tl = tl_small();
            let input = tl.far_from_vec(random_vec(200_000, 7));
            let cfg = NmSortConfig {
                threads,
                ..Default::default()
            };
            nmsort(&tl, input, &cfg).unwrap();
            tl.ledger().snapshot()
        };
        let a = run(4);
        let b = run(1);
        assert_eq!(a.far_bytes, b.far_bytes);
        assert_eq!(a.near_bytes, b.near_bytes);
    }

    #[test]
    fn far_traffic_is_a_few_passes() {
        // NMsort's DRAM traffic should be ~4 passes over the data
        // (ingest read, writeback write, gather read, writeout write) plus
        // metadata — far below a DRAM-only sort's traffic.
        let tl = tl_small();
        let n = 500_000usize;
        let input = tl.far_from_vec(random_vec(n, 8));
        nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        let s = tl.ledger().snapshot();
        let data_bytes = (n * 8) as u64;
        assert!(s.far_bytes >= 4 * data_bytes, "far {} B", s.far_bytes);
        assert!(s.far_bytes <= 5 * data_bytes, "far {} B", s.far_bytes);
        // Near traffic dominates far traffic (the whole point).
        assert!(s.near_bytes > s.far_bytes);
    }

    #[test]
    fn phase_costs_partition_total() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(300_000, 9));
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        let s = tl.ledger().snapshot();
        let sum = r.sample_cost + r.phase1_cost + r.phase2_cost;
        assert_eq!(sum.far_bytes, s.far_bytes);
        assert_eq!(sum.near_bytes, s.near_bytes);
        assert_eq!(sum.compute_ops, s.compute_ops);
    }

    #[test]
    fn trace_has_expected_phases() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(300_000, 10));
        nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        let t = tl.take_trace();
        let names: std::collections::HashSet<&str> =
            t.phases.iter().map(|p| p.name.as_str()).collect();
        for expected in [
            "nmsort.sample",
            "nmsort.p1.ingest",
            "nmsort.p1.sort",
            "nmsort.p1.writeback",
            "nmsort.p1.bounds",
            "nmsort.p2.gather",
            "nmsort.p2.merge",
            "nmsort.p2.writeout",
        ] {
            assert!(names.contains(expected), "missing phase {expected}");
        }
    }

    #[test]
    fn dma_marks_ingest_overlappable() {
        let tl = tl_small();
        let input = tl.far_from_vec(random_vec(200_000, 11));
        let cfg = NmSortConfig {
            use_dma: true,
            ..Default::default()
        };
        nmsort(&tl, input, &cfg).unwrap();
        let t = tl.take_trace();
        // Pipelined schedule: the priming ingest of chunk 0 has nothing to
        // hide behind (synchronous); every later ingest is issued before
        // the previous chunk's sort and overlaps it.
        let ingest: Vec<bool> = t
            .phases
            .iter()
            .filter(|p| p.name == "nmsort.p1.ingest")
            .map(|p| p.overlappable)
            .collect();
        assert!(ingest.len() >= 2, "expected multiple ingest phases");
        assert!(!ingest[0], "priming ingest must be synchronous");
        assert!(
            ingest[1..].iter().all(|&o| o),
            "steady-state ingests must overlap: {ingest:?}"
        );
        assert!(t
            .phases
            .iter()
            .filter(|p| p.name == "nmsort.p1.sort")
            .all(|p| !p.overlappable));
        assert!(t
            .phases
            .iter()
            .filter(|p| p.name == "nmsort.p1.writeback")
            .all(|p| p.overlappable));
    }

    #[test]
    fn quicksort_chunk_sorter_sorts_and_costs_more_near_traffic() {
        let run = |sorter: ChunkSorter| {
            let tl = tl_small();
            let v = random_vec(300_000, 21);
            let mut expect = v.clone();
            expect.sort_unstable();
            let input = tl.far_from_vec(v);
            let cfg = NmSortConfig {
                chunk_sorter: sorter,
                ..Default::default()
            };
            let r = nmsort(&tl, input, &cfg).unwrap();
            assert_eq!(r.output.as_slice_uncharged(), expect.as_slice());
            tl.ledger().snapshot().near_blocks()
        };
        let merge = run(ChunkSorter::MultiwayMerge);
        let quick = run(ChunkSorter::Quicksort);
        // rho = 4 on this geometry is below Corollary 7's optimality point,
        // so quicksort should stream more near blocks.
        assert!(quick > merge, "quick {quick} vs merge {merge}");
    }

    #[test]
    fn chunk_shrinks_on_injected_alloc_failure() {
        let tl = tl_small();
        // Fail the very first near allocation: the chunk-buffer ladder must
        // halve the chunk and carry on.
        tl.install_fault_plan(tlmm_scratchpad::FaultPlan::none(1).fail_kth(FaultOp::NearAlloc, 0));
        let v = random_vec(300_000, 31);
        let input = tl.far_from_vec(v.clone());
        let clean_chunks = {
            let tl2 = tl_small();
            let input2 = tl2.far_from_vec(v.clone());
            nmsort(&tl2, input2, &NmSortConfig::default())
                .unwrap()
                .chunks
        };
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_eq!(r.degradations.chunk_shrinks, 1);
        assert!(r.chunks > clean_chunks, "{} vs {}", r.chunks, clean_chunks);
        assert_sorted_matches(&r, v);
    }

    #[test]
    fn batch_gather_failure_falls_back_to_dram_direct() {
        let tl = tl_small();
        // Phase 1 of a ~6-chunk run consumes 6 far→near preflights (ingest);
        // fail the 7th, which is the first Phase-2 batch gather.
        let v = random_vec(300_000, 32);
        let probe = {
            let tl2 = tl_small();
            let input2 = tl2.far_from_vec(v.clone());
            nmsort(&tl2, input2, &NmSortConfig::default())
                .unwrap()
                .chunks
        };
        tl.install_fault_plan(
            tlmm_scratchpad::FaultPlan::none(1).fail_kth(FaultOp::FarToNear, probe as u64),
        );
        let input = tl.far_from_vec(v.clone());
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_eq!(r.degradations.batch_fallbacks, 1);
        assert_sorted_matches(&r, v);
    }

    #[test]
    fn degrades_gracefully_and_never_cheapens_under_mixed_faults() {
        let v = random_vec(300_000, 33);
        let clean = {
            let tl = tl_small();
            let input = tl.far_from_vec(v.clone());
            let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert!(!r.degradations.any());
            tl.ledger().snapshot()
        };
        for seed in 0..4u64 {
            let tl = tl_small();
            tl.install_fault_plan(tlmm_scratchpad::FaultPlan::seeded(seed));
            let input = tl.far_from_vec(v.clone());
            let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
            assert_sorted_matches(&r, v.clone());
            let s = tl.ledger().snapshot();
            // Honest accounting: faults can only add DRAM traffic.
            assert!(
                s.far_bytes >= clean.far_bytes,
                "seed {seed}: degraded {} < clean {}",
                s.far_bytes,
                clean.far_bytes
            );
            if tl.faults_injected() > 0 {
                assert!(r.degradations.any(), "seed {seed}: faults fired silently");
            }
        }
    }

    #[test]
    fn degraded_trace_records_fault_counts() {
        let tl = tl_small();
        tl.install_fault_plan(
            tlmm_scratchpad::FaultPlan::none(1)
                .fail_kth(FaultOp::FarToNear, 0)
                .fail_kth(FaultOp::NearToFar, 2),
        );
        let v = random_vec(300_000, 34);
        let input = tl.far_from_vec(v.clone());
        let r = nmsort(&tl, input, &NmSortConfig::default()).unwrap();
        assert_sorted_matches(&r, v);
        assert_eq!(tl.take_trace().faults(), 2);
    }

    #[test]
    fn plan_batches_greedy() {
        assert_eq!(plan_batches(&[5, 5, 5], 10), vec![(0, 2), (2, 3)]);
        assert_eq!(plan_batches(&[20], 10), vec![(0, 1)]);
        assert_eq!(plan_batches(&[3, 20, 3], 10), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(plan_batches(&[], 10), Vec::<(usize, usize)>::new());
        assert_eq!(plan_batches(&[0, 0, 4], 10), vec![(0, 3)]);
    }
}
