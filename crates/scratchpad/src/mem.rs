//! The [`TwoLevel`] memory handle: allocation, charging, phases.

use crate::array::{FarArray, NearArray};
use crate::cancel::CancelToken;
use crate::error::SpError;
use crate::executor::{ExecConfig, ExecConfigError, Executor};
use crate::fault::{self, FaultDecision, FaultInjector, FaultOp, FaultPlan};
use crate::trace::{PhaseTrace, TraceRecorder};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tlmm_model::ledger::{CostLedger, Dir, Level};
use tlmm_model::ScratchpadParams;

/// Shared state behind a [`TwoLevel`] handle.
#[derive(Debug)]
pub struct TwoLevelInner {
    pub(crate) params: ScratchpadParams,
    pub(crate) ledger: CostLedger,
    pub(crate) recorder: TraceRecorder,
    pub(crate) near_used: AtomicU64,
    pub(crate) faults: Mutex<Option<Arc<FaultInjector>>>,
    /// Fast-path gate so un-faulted runs never take the `faults` lock.
    pub(crate) has_faults: AtomicBool,
    pub(crate) executor: Mutex<Option<Arc<Executor>>>,
    /// Fast-path gate so executor-free runs never take the `executor` lock.
    pub(crate) has_executor: AtomicBool,
    /// The current job's cancel token plus the ledger unit count at install
    /// time (deadline budgets are measured from there).
    pub(crate) cancel: Mutex<Option<(CancelToken, u64)>>,
    /// Fast-path gate so cancel-free runs never take the `cancel` lock.
    pub(crate) has_cancel: AtomicBool,
}

/// Handle to a two-level main memory. Cheap to clone; clones share the
/// ledger, trace and scratchpad budget.
///
/// All methods are `&self` and thread-safe. Algorithms move data on raw
/// slices and charge what they logically move through
/// [`Self::charge_far_io`] / [`Self::charge_near_io`] (and the random and
/// compute variants): a far↔near transfer charges both sides (a far-side
/// read/write in `B`-byte blocks, a near-side write/read in `ρB`-byte
/// blocks); staging between one memory and the cache charges that memory
/// only, since the cache is free like cache hits in the model.
#[derive(Debug, Clone)]
pub struct TwoLevel {
    inner: Arc<TwoLevelInner>,
}

impl TwoLevel {
    /// Create a two-level memory with the given model parameters; panics on
    /// invalid parameters. Prefer [`Self::try_new`] at API edges where the
    /// parameters come from a caller.
    pub fn new(params: ScratchpadParams) -> Self {
        Self::try_new(params).expect("invalid scratchpad parameters")
    }

    /// Create a two-level memory, surfacing invalid parameters (zero
    /// scratchpad, near block larger than `M`, bad ρ, …) as a typed
    /// [`SpError::BadParams`] instead of a panic now or an arithmetic
    /// underflow later inside `near_alloc`.
    pub fn try_new(params: ScratchpadParams) -> Result<Self, SpError> {
        params.validate().map_err(SpError::BadParams)?;
        Ok(Self {
            inner: Arc::new(TwoLevelInner {
                params,
                ledger: CostLedger::new(),
                recorder: TraceRecorder::new(),
                near_used: AtomicU64::new(0),
                faults: Mutex::new(None),
                has_faults: AtomicBool::new(false),
                executor: Mutex::new(None),
                has_executor: AtomicBool::new(false),
                cancel: Mutex::new(None),
                has_cancel: AtomicBool::new(false),
            }),
        })
    }

    /// The model parameters this memory was built with.
    pub fn params(&self) -> &ScratchpadParams {
        &self.inner.params
    }

    /// The block-transfer ledger (model-unit ground truth).
    pub fn ledger(&self) -> &CostLedger {
        &self.inner.ledger
    }

    /// Bytes currently allocated in the scratchpad.
    pub fn near_used_bytes(&self) -> u64 {
        self.inner.near_used.load(Ordering::Relaxed)
    }

    /// Bytes still available in the scratchpad.
    pub fn near_available_bytes(&self) -> u64 {
        self.inner
            .params
            .scratchpad_bytes
            .saturating_sub(self.near_used_bytes())
    }

    /// How many `T`s could still be allocated in the scratchpad.
    pub fn near_available_elems<T>(&self) -> usize {
        (self.near_available_bytes() as usize) / std::mem::size_of::<T>().max(1)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install `plan` on this memory; every hooked operation from now on
    /// consults the returned injector. Replaces any previous plan.
    pub fn install_fault_plan(&self, plan: FaultPlan) -> Arc<FaultInjector> {
        let inj = Arc::new(FaultInjector::new(plan));
        *self.inner.faults.lock() = Some(Arc::clone(&inj));
        self.inner.has_faults.store(true, Ordering::Release);
        inj
    }

    /// Remove any installed fault plan.
    pub fn clear_faults(&self) {
        *self.inner.faults.lock() = None;
        self.inner.has_faults.store(false, Ordering::Release);
    }

    /// The currently installed injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        if !self.inner.has_faults.load(Ordering::Acquire) {
            return None;
        }
        self.inner.faults.lock().clone()
    }

    /// Failures injected so far (0 when no plan is installed).
    pub fn faults_injected(&self) -> u64 {
        self.fault_injector().map(|i| i.injected()).unwrap_or(0)
    }

    /// Run `f` with fault injection disabled on this thread — the final
    /// rung of a degradation ladder after bounded retries.
    pub fn with_faults_suppressed<R>(&self, f: impl FnOnce() -> R) -> R {
        fault::with_faults_suppressed(f)
    }

    /// Consult the fault plan for one logical operation of class `op`
    /// *without* moving any data. Algorithm kernels that charge explicitly
    /// (rather than calling the transfer methods) gate their staging steps
    /// on this, so injected faults reach the raw-slice hot paths too.
    ///
    /// A `Fail`/`Delay` decision is recorded in the open phase's fault
    /// count and in telemetry; honest recharging is the caller's job
    /// (the caller knows the volume it was about to move).
    pub fn preflight(&self, op: FaultOp) -> FaultDecision {
        if !self.inner.has_faults.load(Ordering::Acquire) || fault::faults_suppressed() {
            return FaultDecision::Proceed;
        }
        let Some(inj) = self.inner.faults.lock().clone() else {
            return FaultDecision::Proceed;
        };
        let d = inj.decide(op);
        match d {
            FaultDecision::Proceed => {}
            FaultDecision::Fail(_) => {
                self.inner.recorder.record_fault();
                tlmm_telemetry::counter!("fault.injected").incr();
                if tlmm_telemetry::flight::enabled() {
                    tlmm_telemetry::flight::fault_event(&format!("{op:?}.fail"));
                }
                match op {
                    FaultOp::NearAlloc => tlmm_telemetry::counter!("fault.near_alloc").incr(),
                    FaultOp::FarToNear => tlmm_telemetry::counter!("fault.far_to_near").incr(),
                    FaultOp::NearToFar => tlmm_telemetry::counter!("fault.near_to_far").incr(),
                    FaultOp::FarStage => tlmm_telemetry::counter!("fault.far_stage").incr(),
                    FaultOp::NearStage => tlmm_telemetry::counter!("fault.near_stage").incr(),
                    FaultOp::DmaIssue => tlmm_telemetry::counter!("fault.dma_issue").incr(),
                }
            }
            FaultDecision::Delay(_) => {
                self.inner.recorder.record_fault();
                tlmm_telemetry::counter!("fault.delayed").incr();
                if tlmm_telemetry::flight::enabled() {
                    tlmm_telemetry::flight::fault_event(&format!("{op:?}.delay"));
                }
            }
        }
        d
    }

    // ------------------------------------------------------------------
    // Cooperative cancellation (phase-boundary checkpoints)
    // ------------------------------------------------------------------

    /// Install `token` as the current job's cancel/deadline token; any
    /// unit budget on the token is measured from the ledger's charge total
    /// at this instant. Replaces any previous token.
    pub fn install_cancel(&self, token: CancelToken) {
        let snap = self.inner.ledger.snapshot();
        *self.inner.cancel.lock() = Some((token, snap.far_bytes + snap.near_bytes));
        self.inner.has_cancel.store(true, Ordering::Release);
    }

    /// Remove any installed cancel token (end of job).
    pub fn clear_cancel(&self) {
        *self.inner.cancel.lock() = None;
        self.inner.has_cancel.store(false, Ordering::Release);
    }

    /// The currently installed cancel token, if any.
    pub fn cancel_token(&self) -> Option<CancelToken> {
        if !self.inner.has_cancel.load(Ordering::Acquire) {
            return None;
        }
        self.inner.cancel.lock().as_ref().map(|(t, _)| t.clone())
    }

    /// Cooperative cancellation point. Sort engines call this **at phase
    /// boundaries**; it returns [`SpError::Cancelled`] when the installed
    /// token was cancelled or its charged-unit deadline budget has been
    /// exhausted (the token is then cancelled too, so every later
    /// checkpoint agrees). Near allocations held by the caller unwind via
    /// RAII on the resulting early return, leaving the arena reusable.
    /// Free when no token is installed (one atomic load).
    pub fn checkpoint(&self) -> Result<(), SpError> {
        if !self.inner.has_cancel.load(Ordering::Acquire) {
            return Ok(());
        }
        let guard = self.inner.cancel.lock();
        let Some((token, base_units)) = guard.as_ref() else {
            return Ok(());
        };
        if token.is_cancelled() {
            tlmm_telemetry::counter!("cancel.checkpoint_trips").incr();
            return Err(SpError::Cancelled);
        }
        if let Some(budget) = token.unit_budget() {
            let snap = self.inner.ledger.snapshot();
            let spent = (snap.far_bytes + snap.near_bytes).saturating_sub(*base_units);
            if spent >= budget {
                token.cancel();
                tlmm_telemetry::counter!("cancel.deadline_trips").incr();
                return Err(SpError::Cancelled);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Executor (Theorem 10 `p′` transfer arbitration)
    // ------------------------------------------------------------------

    /// Install an executor on this memory; from now on every charged
    /// transfer contends for its `p′` transfer slots in virtual time.
    /// Replaces any previous executor. Arbitration never touches the
    /// charge ledger — only waits (trace `slot_wait_units` + telemetry) are
    /// added — so the ledger stays byte-identical to an executor-free run.
    pub fn install_executor(&self, cfg: ExecConfig) -> Result<Arc<Executor>, ExecConfigError> {
        cfg.validate()?;
        let ex = Arc::new(Executor::new(cfg));
        *self.inner.executor.lock() = Some(Arc::clone(&ex));
        self.inner.has_executor.store(true, Ordering::Release);
        Ok(ex)
    }

    /// The currently installed executor, if any.
    pub fn executor(&self) -> Option<Arc<Executor>> {
        if !self.inner.has_executor.load(Ordering::Acquire) {
            return None;
        }
        self.inner.executor.lock().clone()
    }

    /// Arbitrate one charged transfer of `bytes` over the executor's
    /// transfer slots (no-op without an executor). Virtual waits are
    /// recorded against the current lane in the open phase; the grant's
    /// stamps go to the flight recorder.
    #[inline]
    fn arbitrate(&self, bytes: u64) -> Option<crate::executor::TransferGrant> {
        if !self.inner.has_executor.load(Ordering::Acquire) {
            return None;
        }
        let ex = self.inner.executor.lock().clone()?;
        let grant = ex.begin_transfer(crate::trace::current_lane(), bytes);
        if grant.wait_units > 0 {
            let wait = grant.wait_units;
            self.inner.recorder.charge(|w| w.slot_wait_units += wait);
        }
        Some(grant)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Move a host vector into far memory. Free: the data is *defined* to
    /// start in DRAM, exactly like a freshly produced input array.
    pub fn far_from_vec<T: Copy>(&self, v: Vec<T>) -> FarArray<T> {
        FarArray {
            data: v,
            owner: Arc::clone(&self.inner),
        }
    }

    /// Allocate a zero-initialised far array. Far memory is arbitrarily
    /// large; this cannot fail.
    pub fn far_alloc<T: Copy + Default>(&self, len: usize) -> FarArray<T> {
        self.far_from_vec(vec![T::default(); len])
    }

    /// Allocate a near (scratchpad) array, failing if capacity `M` would be
    /// exceeded — the modified `malloc` of §VI-B.2.
    pub fn near_alloc<T: Copy + Default>(&self, len: usize) -> Result<NearArray<T>, SpError> {
        if let FaultDecision::Fail(index) = self.preflight(FaultOp::NearAlloc) {
            return Err(SpError::FaultInjected {
                op: FaultOp::NearAlloc,
                index,
            });
        }
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let cap = self.inner.params.scratchpad_bytes;
        // Reserve optimistically; roll back on overflow.
        let prev = self.inner.near_used.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > cap {
            self.inner.near_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(SpError::NearCapacityExceeded {
                requested: bytes,
                available: cap.saturating_sub(prev),
            });
        }
        Ok(NearArray {
            data: vec![T::default(); len],
            reserved_bytes: bytes,
            owner: Arc::clone(&self.inner),
        })
    }

    /// Reserve `bytes` of scratchpad capacity without materialising an
    /// array — the staging arena's growth path. Same optimistic
    /// reserve/rollback protocol (and the same error numbers) as
    /// [`Self::near_alloc`], so arena growth is indistinguishable from a
    /// direct allocation in capacity accounting.
    pub(crate) fn reserve_near_bytes(&self, bytes: u64) -> Result<(), SpError> {
        let cap = self.inner.params.scratchpad_bytes;
        let prev = self.inner.near_used.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > cap {
            self.inner.near_used.fetch_sub(bytes, Ordering::Relaxed);
            return Err(SpError::NearCapacityExceeded {
                requested: bytes,
                available: cap.saturating_sub(prev),
            });
        }
        Ok(())
    }

    /// Return `bytes` of scratchpad capacity reserved with
    /// [`Self::reserve_near_bytes`].
    pub(crate) fn release_near_bytes(&self, bytes: u64) {
        self.inner.near_used.fetch_sub(bytes, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Charging primitives
    // ------------------------------------------------------------------

    /// Mirror one charged transfer into the flight recorder (no-op when
    /// no recorder is installed). `ledger_bytes` is the byte volume the
    /// cost ledger booked — the flight trace is cross-checkable against
    /// `CostSnapshot` byte-for-byte — while the grant's timing reflects
    /// the *arbitrated* occupancy (they differ for random access).
    #[inline]
    fn flight_transfer(
        &self,
        dir: Dir,
        ledger_bytes: u64,
        extra_flags: u32,
        grant: &Option<crate::executor::TransferGrant>,
    ) {
        if !tlmm_telemetry::flight::enabled() {
            return;
        }
        let mut flags = extra_flags;
        if matches!(dir, Dir::Write) {
            flags |= tlmm_telemetry::flight::FLAG_WRITE;
        }
        let timing = grant.as_ref().and_then(|g| g.timing);
        tlmm_telemetry::flight::transfer_event(ledger_bytes, flags, timing);
    }

    fn charge_far(&self, dir: Dir, bytes: u64) {
        let grant = self.arbitrate(bytes);
        let blocks = self.inner.params.far_blocks_for(bytes);
        self.inner.ledger.charge(Level::Far, dir, blocks, bytes);
        self.inner.recorder.charge(|w| match dir {
            Dir::Read => w.far_read_bytes += bytes,
            Dir::Write => w.far_write_bytes += bytes,
        });
        match dir {
            Dir::Read => tlmm_telemetry::counter!("scratchpad.far.read_bytes").add(bytes),
            Dir::Write => tlmm_telemetry::counter!("scratchpad.far.write_bytes").add(bytes),
        }
        tlmm_telemetry::histogram!("scratchpad.far.transfer_bytes").record(bytes);
        self.flight_transfer(dir, bytes, tlmm_telemetry::flight::FLAG_FAR, &grant);
    }

    fn charge_near(&self, dir: Dir, bytes: u64) {
        let grant = self.arbitrate(bytes);
        let blocks = self.inner.params.near_blocks_for(bytes);
        self.inner.ledger.charge(Level::Near, dir, blocks, bytes);
        self.inner.recorder.charge(|w| match dir {
            Dir::Read => w.near_read_bytes += bytes,
            Dir::Write => w.near_write_bytes += bytes,
        });
        match dir {
            Dir::Read => tlmm_telemetry::counter!("scratchpad.near.read_bytes").add(bytes),
            Dir::Write => tlmm_telemetry::counter!("scratchpad.near.write_bytes").add(bytes),
        }
        tlmm_telemetry::histogram!("scratchpad.near.transfer_bytes").record(bytes);
        self.flight_transfer(dir, bytes, 0, &grant);
    }

    /// Record `n` RAM-model operations (comparisons, arithmetic).
    pub fn charge_compute(&self, n: u64) {
        self.inner.ledger.charge_compute(n);
        self.inner.recorder.charge(|w| w.compute_ops += n);
        tlmm_telemetry::counter!("scratchpad.compute_ops").add(n);
        if tlmm_telemetry::flight::enabled() {
            tlmm_telemetry::flight::compute_event(n);
        }
    }

    /// Charge a contiguous far-memory transfer of `bytes` bytes
    /// (`⌈bytes/B⌉` blocks).
    pub fn charge_far_io(&self, dir: Dir, bytes: u64) {
        self.charge_far(dir, bytes);
    }

    /// Charge a contiguous near-memory transfer of `bytes` bytes
    /// (`⌈bytes/ρB⌉` blocks).
    pub fn charge_near_io(&self, dir: Dir, bytes: u64) {
        self.charge_near(dir, bytes);
    }

    /// Charge `accesses` *random* far-memory accesses moving `bytes` bytes
    /// in total: each random access costs a full block regardless of how few
    /// bytes it uses (e.g. gathering a random sample, §III-A).
    pub fn charge_far_random(&self, dir: Dir, accesses: u64, bytes: u64) {
        // Random accesses occupy the transfer machinery for their full
        // block volume, matching what the trace records below.
        let grant = self.arbitrate(accesses * self.inner.params.block_bytes);
        self.inner.ledger.charge(Level::Far, dir, accesses, bytes);
        self.inner.recorder.charge(|w| match dir {
            Dir::Read => w.far_read_bytes += accesses * self.inner.params.block_bytes,
            Dir::Write => w.far_write_bytes += accesses * self.inner.params.block_bytes,
        });
        self.flight_transfer(
            dir,
            bytes,
            tlmm_telemetry::flight::FLAG_FAR | tlmm_telemetry::flight::FLAG_RANDOM,
            &grant,
        );
    }

    /// Charge `accesses` random near-memory accesses moving `bytes` bytes.
    pub fn charge_near_random(&self, dir: Dir, accesses: u64, bytes: u64) {
        let blk = self.inner.params.near_block_bytes();
        let grant = self.arbitrate(accesses * blk);
        self.inner.ledger.charge(Level::Near, dir, accesses, bytes);
        self.inner.recorder.charge(|w| match dir {
            Dir::Read => w.near_read_bytes += accesses * blk,
            Dir::Write => w.near_write_bytes += accesses * blk,
        });
        self.flight_transfer(dir, bytes, tlmm_telemetry::flight::FLAG_RANDOM, &grant);
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Begin a named phase; subsequent charges land in it. Returns a guard
    /// that ends the phase when dropped.
    pub fn phase(&self, name: &str) -> PhaseGuard<'_> {
        self.inner.recorder.begin_phase(name);
        PhaseGuard { tl: self }
    }

    /// Begin a named phase without a guard.
    pub fn begin_phase(&self, name: &str) {
        self.inner.recorder.begin_phase(name);
    }

    /// End the open phase.
    pub fn end_phase(&self) {
        self.inner.recorder.end_phase();
    }

    /// Mark the open phase overlappable (its transfers may proceed behind
    /// the next phase's compute — DMA semantics).
    pub fn mark_phase_overlappable(&self) {
        self.inner.recorder.mark_overlappable();
    }

    /// Snapshot the phase trace recorded so far.
    pub fn trace(&self) -> PhaseTrace {
        self.inner.recorder.trace()
    }

    /// Take the phase trace and reset the recorder.
    pub fn take_trace(&self) -> PhaseTrace {
        self.inner.recorder.take_trace()
    }

    /// Reset ledger and trace (e.g. after a warm-up run). Scratchpad
    /// allocations are untouched.
    pub fn reset_accounting(&self) {
        self.inner.ledger.reset();
        self.inner.recorder.reset();
    }
}

/// Ends the phase it guards when dropped.
pub struct PhaseGuard<'a> {
    tl: &'a TwoLevel,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.tl.end_phase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::with_lane;

    fn tl() -> TwoLevel {
        // B=64, rho=4 (near block 256B), M=1MiB, Z=16KiB.
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
    }

    #[test]
    fn near_alloc_respects_capacity() {
        let tl = tl();
        let a = tl.near_alloc::<u64>((1 << 20) / 8).unwrap(); // fills M
        assert!(tl.near_alloc::<u64>(1).is_err());
        drop(a);
        assert!(tl.near_alloc::<u64>(1).is_ok());
    }

    #[test]
    fn near_alloc_error_reports_availability() {
        let tl = tl();
        let _a = tl.near_alloc::<u8>((1 << 20) - 100).unwrap();
        match tl.near_alloc::<u8>(200) {
            Err(SpError::NearCapacityExceeded {
                requested,
                available,
            }) => {
                assert_eq!(requested, 200);
                assert_eq!(available, 100);
            }
            other => panic!("expected capacity error, got {other:?}"),
        }
    }

    #[test]
    fn transfer_charges_both_sides_in_model_units() {
        let tl = tl();
        tl.charge_far_io(Dir::Read, 4096);
        tl.charge_near_io(Dir::Write, 4096);
        let s = tl.ledger().snapshot();
        // 4096 bytes: 64 far blocks read, 16 near blocks written.
        assert_eq!(s.far_read_blocks, 64);
        assert_eq!(s.near_write_blocks, 16);
        assert_eq!(s.far_bytes, 4096);
        assert_eq!(s.near_bytes, 4096);
    }

    #[test]
    fn partial_blocks_round_up() {
        let tl = tl();
        tl.charge_near_io(Dir::Read, 256); // exactly one rho*B block
        tl.charge_far_io(Dir::Write, 40); // 40 bytes -> 1 block
        let s = tl.ledger().snapshot();
        assert_eq!(s.near_read_blocks, 1);
        assert_eq!(s.near_write_blocks, 0);
        assert_eq!(s.far_write_blocks, 1);
        assert_eq!(s.far_read_blocks, 0);
    }

    #[test]
    fn phases_collect_lane_work() {
        let tl = tl();
        {
            let _p = tl.phase("ingest");
            with_lane(1, || {
                tl.charge_far_io(Dir::Read, 8192);
                tl.charge_near_io(Dir::Write, 8192);
            });
        }
        {
            let _p = tl.phase("compute");
            tl.charge_compute(500);
        }
        let t = tl.take_trace();
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].name, "ingest");
        assert_eq!(t.phases[0].lanes[1].far_read_bytes, 8192);
        assert_eq!(t.phases[1].total().compute_ops, 500);
    }

    #[test]
    fn reset_accounting_clears_everything() {
        let tl = tl();
        tl.charge_far_io(Dir::Read, 64);
        tl.reset_accounting();
        assert_eq!(tl.ledger().snapshot().total_blocks(), 0);
        assert!(tl.take_trace().phases.is_empty());
    }

    #[test]
    fn clone_shares_budget_and_ledger() {
        let tl = tl();
        let tl2 = tl.clone();
        let _a = tl.near_alloc::<u8>(1 << 20).unwrap();
        assert!(tl2.near_alloc::<u8>(1).is_err());
        tl2.charge_far_io(Dir::Read, 64);
        assert_eq!(tl.ledger().snapshot().far_read_blocks, 1);
    }

    #[test]
    fn concurrent_transfers_charge_losslessly() {
        let tl = tl();
        std::thread::scope(|s| {
            for t in 0..8 {
                let tl = tl.clone();
                s.spawn(move || {
                    with_lane(t, || {
                        for _ in 0..16 {
                            tl.charge_far_io(Dir::Read, 512);
                        }
                    })
                });
            }
        });
        // 128 charges of 512 bytes = 8 far blocks each.
        assert_eq!(tl.ledger().snapshot().far_read_blocks, 128 * 8);
        let t = tl.trace();
        assert_eq!(t.total().far_read_bytes, 128 * 512);
        assert_eq!(t.phases[0].active_lanes(), 8);
    }
}
