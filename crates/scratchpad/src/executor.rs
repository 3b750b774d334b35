//! Deterministic multi-worker transfer executor (Theorem 10's `p′`).
//!
//! The paper's parallel result (§IV-C, Theorem 10) assumes `p′` processors
//! can make *simultaneous block transfers*; bandwidth limits may force
//! `p′ < p`. The rest of the runtime only *attributes* transfer volume to
//! virtual lanes — this module makes the contention real: an [`Executor`]
//! installed on a [`crate::TwoLevel`] arbitrates every charged transfer over
//! a bounded pool of `p′` **transfer slots** in virtual time.
//!
//! Each transfer request is granted the best transfer slot in virtual time
//! (1 unit = 1 byte through one slot), with seeded tie-breaks, and stages
//! that charge several stripes or segments issue them in a seeded
//! [`Executor::permutation`] ("schedule fuzzing"). Every statistic —
//! per-worker wait, per-slot busy time, the makespan — is replayable
//! **bit-for-bit** from `(seed, p, p′)`. The charge ledger is *never*
//! touched by arbitration, so it is invariant across seeds and worker
//! counts and identical to an executor-free run.
//!
//! The executor runs no host threads: how the bytes are moved is the
//! caller's business (`tlmm_core::pool`), and the ledger never sees it.
//!
//! The arbitration granularity is one **charge call**: every far- or
//! near-memory charge of `b` bytes occupies one slot for `b` virtual units
//! (both channel crossings of a far↔near copy are charged separately, so
//! both occupy the shared transfer machinery — the NoC view of §V).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable holding the deterministic scheduler seed.
/// When set, [`ExecConfig::from_env`] yields a deterministic executor.
pub const EXEC_SEED_ENV: &str = "TLMM_EXEC_SEED";
/// Environment variable overriding the worker count `p` (default 8).
pub const EXEC_WORKERS_ENV: &str = "TLMM_EXEC_WORKERS";
/// Environment variable overriding the transfer-slot count `p′`
/// (default = workers).
pub const EXEC_SLOTS_ENV: &str = "TLMM_EXEC_SLOTS";

/// Typed validation errors for an [`ExecConfig`] — surfaced at API edges
/// instead of a panic deep inside `Executor::new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecConfigError {
    /// `p = 0`: no worker clock could ever issue a transfer.
    ZeroWorkers,
    /// `p′ = 0`: no transfer could ever be granted a slot.
    ZeroSlots,
    /// `p′ > p`: a slot no worker can drive would be meaningless.
    SlotsExceedWorkers,
}

impl core::fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            ExecConfigError::ZeroWorkers => "executor workers (p) must be >= 1",
            ExecConfigError::ZeroSlots => "transfer slots (p') must be >= 1",
            ExecConfigError::SlotsExceedWorkers => {
                "transfer slots (p') must not exceed workers (p)"
            }
        })
    }
}

impl std::error::Error for ExecConfigError {}

/// Configuration of an [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Workers `p` owning virtual clocks (lanes fold onto them).
    pub workers: usize,
    /// Simultaneous transfer slots `p′` (the bandwidth bound of Theorem 10).
    pub transfer_slots: usize,
    /// Seed for the schedule permutation and arbitration tie-breaks.
    pub seed: u64,
}

impl ExecConfig {
    /// A deterministic (virtual-time) configuration.
    pub fn deterministic(workers: usize, transfer_slots: usize, seed: u64) -> Self {
        Self {
            workers,
            transfer_slots,
            seed,
        }
    }

    /// Validate the configuration: both pools must be non-empty, and
    /// `p′ ≤ p` (a slot no worker can drive would be meaningless).
    pub fn validate(&self) -> Result<(), ExecConfigError> {
        if self.workers == 0 {
            return Err(ExecConfigError::ZeroWorkers);
        }
        if self.transfer_slots == 0 {
            return Err(ExecConfigError::ZeroSlots);
        }
        if self.transfer_slots > self.workers {
            return Err(ExecConfigError::SlotsExceedWorkers);
        }
        Ok(())
    }

    /// Build a deterministic config from `TLMM_EXEC_SEED` (+ optional
    /// `TLMM_EXEC_WORKERS` / `TLMM_EXEC_SLOTS`); `None` when the seed
    /// variable is unset or unparsable. The parsed counts are taken as
    /// given — [`Self::validate`] rejects a zero or a `p′ > p` instead of
    /// the run silently recording a `p′` nobody asked for.
    pub fn from_env() -> Option<Self> {
        let seed: u64 = std::env::var(EXEC_SEED_ENV).ok()?.trim().parse().ok()?;
        let workers: usize = std::env::var(EXEC_WORKERS_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(8);
        let slots: usize = std::env::var(EXEC_SLOTS_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(workers);
        Some(Self::deterministic(workers, slots, seed))
    }
}

// SplitMix64 — the same cheap seeded hash the fault injector uses; here it
// drives schedule permutations and arbitration tie-breaks.
use crate::backoff::splitmix64;

/// Virtual-time arbiter state.
#[derive(Debug)]
struct VirtualState {
    /// Virtual time at which each transfer slot becomes free.
    slot_free: Vec<u64>,
    /// Cumulative busy units per slot (occupancy numerator).
    slot_busy: Vec<u64>,
    /// Each worker's virtual clock.
    worker_clock: Vec<u64>,
    /// Monotone request counter (tie-break salt).
    seq: u64,
}

/// Per-worker statistics, updated lock-free (charges may come from any
/// host thread).
#[derive(Debug, Default)]
struct WorkerCell {
    transfers: AtomicU64,
    bytes: AtomicU64,
    wait_units: AtomicU64,
}

/// Per-worker row of an [`ExecReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Arbitrated transfers issued by this worker.
    pub transfers: u64,
    /// Bytes moved through the arbiter by this worker.
    pub bytes: u64,
    /// Virtual units spent waiting for a slot.
    pub wait_units: u64,
    /// Final virtual clock.
    pub clock_units: u64,
}

/// Snapshot of an executor's arbitration statistics — serializable so bench
/// artifacts can record contention next to the trace they replay.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecReport {
    /// Workers `p`.
    pub workers: usize,
    /// Transfer slots `p′`.
    pub transfer_slots: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// Max worker virtual clock — the simulated makespan in byte-units.
    pub makespan_units: u64,
    /// Total virtual wait across workers.
    pub total_wait_units: u64,
    /// Total bytes arbitrated.
    pub total_bytes: u64,
    /// Total arbitrated transfers.
    pub transfers: u64,
    /// Cumulative busy units per transfer slot; the occupancy of slot `i` is `per_slot_busy_units[i] / makespan_units`.
    pub per_slot_busy_units: Vec<u64>,
    /// Per-worker breakdown, index = worker id.
    pub per_worker: Vec<WorkerReport>,
}

impl ExecReport {
    /// Arbitrated throughput in bytes per virtual unit: `p′` when the run
    /// is bandwidth-saturated, up to `p` when it is not (0 without a
    /// makespan).
    pub fn throughput_units(&self) -> f64 {
        if self.makespan_units == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.makespan_units as f64
        }
    }
}

/// The outcome of one arbitrated transfer. The virtual occupancy is
/// already booked on the slot timeline when the grant is returned.
#[derive(Debug, Clone, Copy)]
pub struct TransferGrant {
    /// Virtual byte-units waited to acquire the slot.
    pub wait_units: u64,
    /// The arbiter's issue/grant/retire stamps (virtual byte-units plus the
    /// slot id) for the flight recorder. `None` for 0-byte grants.
    pub timing: Option<tlmm_telemetry::flight::TransferTiming>,
}

/// Per-tenant slot-quota bookkeeping for the service layer: how many of the
/// `p′` transfer slots each tenant currently holds a *lease* on. A lease is
/// a scheduling reservation — the arbiter itself keeps granting individual
/// transfers per lane — so leases bound how much parallelism a scheduler
/// may assign a tenant, deterministically (plain integer state, a
/// `BTreeMap` so iteration order never depends on hashing).
#[derive(Debug, Default)]
struct QuotaState {
    /// Per-tenant cap on leased slots; `None` = all of `p′`.
    tenant_cap: Option<usize>,
    leased: BTreeMap<u64, usize>,
    total: usize,
    preemptions: u64,
}

/// The executor: a virtual-time transfer-slot arbiter. Install on a
/// [`crate::TwoLevel`] with [`crate::TwoLevel::install_executor`]; every
/// charged transfer is then arbitrated here.
#[derive(Debug)]
pub struct Executor {
    cfg: ExecConfig,
    vstate: Mutex<VirtualState>,
    cells: Vec<WorkerCell>,
    /// Per-call-site stage counter salting the schedule permutation, so
    /// successive stages of one run get distinct (but replayable) orders.
    stage_seq: AtomicU64,
    quota: Mutex<QuotaState>,
}

impl Executor {
    /// Build an executor; panics on an invalid config (validate with
    /// [`ExecConfig::validate`] first at API edges).
    pub fn new(cfg: ExecConfig) -> Self {
        cfg.validate().expect("invalid executor config");
        Self {
            vstate: Mutex::new(VirtualState {
                slot_free: vec![0; cfg.transfer_slots],
                slot_busy: vec![0; cfg.transfer_slots],
                worker_clock: vec![0; cfg.workers],
                seq: 0,
            }),
            cells: (0..cfg.workers).map(|_| WorkerCell::default()).collect(),
            stage_seq: AtomicU64::new(0),
            quota: Mutex::new(QuotaState::default()),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Per-tenant slot quotas (service-layer leases over the p′ pool)
    // ------------------------------------------------------------------

    /// Total transfer slots `p′` available for leasing.
    pub fn slots_total(&self) -> usize {
        self.cfg.transfer_slots
    }

    /// Cap how many slots any single tenant may lease (`None` = up to all
    /// of `p′`). Existing leases are not revoked — the cap applies to new
    /// grants; schedulers revoke at phase boundaries via
    /// [`Self::release_lease`].
    pub fn set_tenant_slot_cap(&self, cap: Option<usize>) {
        self.quota.lock().tenant_cap = cap;
    }

    /// Try to lease up to `want` slots for `tenant`. Grants
    /// `min(want, free slots, tenant's remaining quota)` — possibly 0 —
    /// and returns the granted count. Pure integer state: replayable.
    pub fn try_lease(&self, tenant: u64, want: usize) -> usize {
        let mut q = self.quota.lock();
        let held = q.leased.get(&tenant).copied().unwrap_or(0);
        let tenant_room = q
            .tenant_cap
            .unwrap_or(self.cfg.transfer_slots)
            .saturating_sub(held);
        let free = self.cfg.transfer_slots.saturating_sub(q.total);
        let grant = want.min(tenant_room).min(free);
        if grant > 0 {
            *q.leased.entry(tenant).or_insert(0) += grant;
            q.total += grant;
            tlmm_telemetry::counter!("executor.lease_granted").add(grant as u64);
        } else if want > 0 {
            tlmm_telemetry::counter!("executor.lease_denied").incr();
        }
        grant
    }

    /// Return `n` leased slots from `tenant` to the pool (saturating: a
    /// tenant can never go negative).
    pub fn release_lease(&self, tenant: u64, n: usize) {
        let mut q = self.quota.lock();
        let held = q.leased.get(&tenant).copied().unwrap_or(0);
        let give = n.min(held);
        if give == 0 {
            return;
        }
        if held == give {
            q.leased.remove(&tenant);
        } else if let Some(h) = q.leased.get_mut(&tenant) {
            *h -= give;
        }
        q.total -= give;
        tlmm_telemetry::counter!("executor.lease_released").add(give as u64);
    }

    /// Slots currently leased by `tenant`.
    pub fn leased(&self, tenant: u64) -> usize {
        self.quota.lock().leased.get(&tenant).copied().unwrap_or(0)
    }

    /// Slots currently leased across all tenants.
    pub fn total_leased(&self) -> usize {
        self.quota.lock().total
    }

    /// Record that a scheduler preempted `yielded` slots from `tenant` at a
    /// phase boundary (the slots themselves move via
    /// [`Self::release_lease`] / [`Self::try_lease`]).
    pub fn note_preemption(&self, tenant: u64, yielded: usize) {
        self.quota.lock().preemptions += 1;
        tlmm_telemetry::counter!("executor.preemptions").incr();
        tlmm_telemetry::counter!("executor.preempted_slots").add(yielded as u64);
        if tlmm_telemetry::sink::enabled() {
            use serde::Value;
            tlmm_telemetry::sink::emit(
                "preempt",
                vec![
                    ("tenant".to_string(), Value::U64(tenant)),
                    ("slots".to_string(), Value::U64(yielded as u64)),
                ],
            );
        }
    }

    /// Preemptions recorded so far.
    pub fn preemptions(&self) -> u64 {
        self.quota.lock().preemptions
    }

    /// The configuration this executor was built with.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Which worker owns virtual lane `lane` (lanes fold onto workers
    /// round-robin, mirroring how memsim folds lanes onto cores).
    #[inline]
    pub fn worker_of(&self, lane: usize) -> usize {
        lane % self.cfg.workers
    }

    /// Arbitrate one transfer of `bytes` issued from `lane`, recording
    /// stats. Returns the virtual wait in byte-units. Never touches the
    /// charge ledger.
    pub fn transfer(&self, lane: usize, bytes: u64) -> u64 {
        self.begin_transfer(lane, bytes).wait_units
    }

    /// Arbitrate one transfer and return its grant: the virtual wait plus
    /// the arbiter's stamps for the flight recorder.
    pub fn begin_transfer(&self, lane: usize, bytes: u64) -> TransferGrant {
        if bytes == 0 {
            return TransferGrant {
                wait_units: 0,
                timing: None,
            };
        }
        let w = self.worker_of(lane);
        let cell = &self.cells[w];
        cell.transfers.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        tlmm_telemetry::counter!("executor.transfers").incr();
        let timing = self.acquire_virtual(w, bytes);
        let wait = timing.grant - timing.issue;
        if wait > 0 {
            cell.wait_units.fetch_add(wait, Ordering::Relaxed);
            tlmm_telemetry::counter!("executor.slot_wait_units").add(wait);
            tlmm_telemetry::histogram!("executor.wait_per_transfer").record(wait);
        }
        TransferGrant {
            wait_units: wait,
            timing: Some(timing),
        }
    }

    /// Virtual-time slot grant: reuse a slot that is already free at the
    /// worker's clock when one exists (latest-free first — a worker
    /// streaming back-to-back stays on one slot, leaving the others open);
    /// otherwise wait for the earliest-free slot. Ties break by a seeded
    /// hash of `(seed, request, slot)`, so the whole schedule is a pure
    /// function of `(seed, p, p′)` and the request order. Returns the full
    /// issue/grant/retire stamps (`grant - issue` is the slot wait).
    fn acquire_virtual(&self, worker: usize, bytes: u64) -> tlmm_telemetry::flight::TransferTiming {
        let mut st = self.vstate.lock();
        let now = st.worker_clock[worker];
        let salt = splitmix64(self.cfg.seed ^ st.seq);
        st.seq += 1;
        let tie = |slot: usize| splitmix64(salt ^ slot as u64);
        let slot = {
            let free_now = st
                .slot_free
                .iter()
                .enumerate()
                .filter(|&(_, &f)| f <= now)
                .max_by_key(|&(i, &f)| (f, tie(i)));
            match free_now {
                Some((i, _)) => i,
                None => st
                    .slot_free
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &f)| (f, tie(i)))
                    .map(|(i, _)| i)
                    .expect("p' >= 1"),
            }
        };
        let grant = now.max(st.slot_free[slot]);
        let fin = grant + bytes;
        st.slot_free[slot] = fin;
        st.slot_busy[slot] += bytes;
        st.worker_clock[worker] = fin;
        tlmm_telemetry::flight::TransferTiming {
            slot: slot as u32,
            issue: now,
            grant,
            retire: fin,
        }
    }

    /// A seeded permutation of `0..n` — the schedule-fuzzing order for one
    /// stage. Each call advances the stage counter (and the
    /// `executor.stages` telemetry counter), so successive stages get
    /// different (but replay-stable) orders.
    pub fn permutation(&self, n: usize) -> Vec<usize> {
        tlmm_telemetry::counter!("executor.stages").incr();
        let salt = splitmix64(self.cfg.seed ^ self.stage_seq.fetch_add(1, Ordering::Relaxed));
        let mut order: Vec<usize> = (0..n).collect();
        // Seeded Fisher–Yates.
        for i in (1..n).rev() {
            let j = (splitmix64(salt ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    /// Snapshot the arbitration statistics.
    pub fn report(&self) -> ExecReport {
        let st = self.vstate.lock();
        let per_worker: Vec<WorkerReport> = self
            .cells
            .iter()
            .enumerate()
            .map(|(w, c)| WorkerReport {
                transfers: c.transfers.load(Ordering::Relaxed),
                bytes: c.bytes.load(Ordering::Relaxed),
                wait_units: c.wait_units.load(Ordering::Relaxed),
                clock_units: st.worker_clock[w],
            })
            .collect();
        ExecReport {
            workers: self.cfg.workers,
            transfer_slots: self.cfg.transfer_slots,
            seed: self.cfg.seed,
            makespan_units: st.worker_clock.iter().copied().max().unwrap_or(0),
            total_wait_units: per_worker.iter().map(|w| w.wait_units).sum(),
            total_bytes: per_worker.iter().map(|w| w.bytes).sum(),
            transfers: per_worker.iter().map(|w| w.transfers).sum(),
            per_slot_busy_units: st.slot_busy.clone(),
            per_worker,
        }
    }

    /// Reset all arbitration state and statistics (between measured runs on
    /// one memory; the ledger has its own reset).
    pub fn reset(&self) {
        let mut st = self.vstate.lock();
        st.slot_free.iter_mut().for_each(|f| *f = 0);
        st.slot_busy.iter_mut().for_each(|b| *b = 0);
        st.worker_clock.iter_mut().for_each(|c| *c = 0);
        st.seq = 0;
        drop(st);
        for c in &self.cells {
            c.transfers.store(0, Ordering::Relaxed);
            c.bytes.store(0, Ordering::Relaxed);
            c.wait_units.store(0, Ordering::Relaxed);
        }
        self.stage_seq.store(0, Ordering::Relaxed);
        *self.quota.lock() = QuotaState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(p: usize, slots: usize, seed: u64) -> Executor {
        Executor::new(ExecConfig::deterministic(p, slots, seed))
    }

    #[test]
    fn config_validation_rejects_degenerate_pools() {
        assert!(ExecConfig::deterministic(0, 1, 0).validate().is_err());
        assert!(ExecConfig::deterministic(1, 0, 0).validate().is_err());
        assert!(ExecConfig::deterministic(2, 4, 0).validate().is_err());
        assert!(ExecConfig::deterministic(4, 4, 0).validate().is_ok());
    }

    #[test]
    fn no_contention_when_slots_match_workers() {
        let ex = det(4, 4, 7);
        for round in 0..8 {
            for w in 0..4 {
                assert_eq!(ex.transfer(w, 1000), 0, "round {round} worker {w}");
            }
        }
        let r = ex.report();
        assert_eq!(r.total_wait_units, 0);
        assert_eq!(r.makespan_units, 8 * 1000);
        assert_eq!(r.total_bytes, 32 * 1000);
    }

    #[test]
    fn contention_appears_once_workers_exceed_slots() {
        // 4 workers, 1 slot: total demand serializes; makespan = total bytes.
        let ex = det(4, 1, 7);
        let mut waited = 0;
        for w in 0..4 {
            for _ in 0..4 {
                waited += ex.transfer(w, 500);
            }
        }
        let r = ex.report();
        assert_eq!(r.makespan_units, 16 * 500);
        assert!(waited > 0, "one slot must force waits");
        assert_eq!(r.total_wait_units, waited);
        assert_eq!(r.per_slot_busy_units, vec![16 * 500]);
    }

    #[test]
    fn throughput_saturates_at_slot_count() {
        // Fixed per-worker demand; the makespan knee sits at p = p'.
        let makespan = |p: usize, slots: usize| {
            let ex = det(p, slots, 3);
            for w in 0..p {
                for _ in 0..8 {
                    ex.transfer(w, 1 << 10);
                }
            }
            ex.report().makespan_units
        };
        // p <= p': each worker streams on its own slot, makespan flat.
        assert_eq!(makespan(1, 1), 8 << 10);
        assert_eq!(makespan(2, 2), 8 << 10);
        assert_eq!(makespan(4, 4), 8 << 10);
        // p > p': bandwidth-bound, makespan grows with p/p'.
        assert_eq!(makespan(4, 2), 16 << 10);
        assert_eq!(makespan(8, 2), 32 << 10);
    }

    #[test]
    fn replay_is_bit_identical_for_fixed_seed() {
        let run = |seed: u64| {
            let ex = det(5, 2, seed);
            for i in 0..40 {
                ex.transfer(i % 5, 100 + (i as u64 * 37) % 900);
            }
            ex.report()
        };
        assert_eq!(run(11), run(11));
        assert_eq!(run(99), run(99));
        // Different seeds may legitimately produce different schedules, but
        // conserved quantities stay fixed.
        let (a, b) = (run(11), run(99));
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.transfers, b.transfers);
    }

    #[test]
    fn busy_units_are_conserved() {
        let ex = det(6, 3, 42);
        let mut total = 0u64;
        for i in 0..60 {
            let b = 64 * (1 + (i as u64 % 7));
            total += b;
            ex.transfer(i % 6, b);
        }
        let r = ex.report();
        assert_eq!(r.per_slot_busy_units.iter().sum::<u64>(), total);
        assert_eq!(r.total_bytes, total);
        assert!(r.makespan_units >= total / 3);
        assert!(r.makespan_units <= total);
    }

    #[test]
    fn concurrent_transfers_are_counted_and_conserved() {
        // Charges may arrive from any host thread: every one must be
        // counted, and the virtual clocks must stay consistent.
        let ex = det(8, 2, 7);
        let sent: u64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..8)
                .map(|t| {
                    let ex = &ex;
                    s.spawn(move || {
                        let mut bytes = 0;
                        for i in 0..500 {
                            let b = 64 + i % 128;
                            ex.transfer(t, b);
                            bytes += b;
                        }
                        bytes
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let r = ex.report();
        assert_eq!(r.transfers, 8 * 500);
        assert_eq!(r.total_bytes, sent);
        assert_eq!(r.per_slot_busy_units.iter().sum::<u64>(), sent);
        assert!(r.makespan_units >= sent / 2);
        for w in &r.per_worker {
            assert_eq!(w.transfers, 500);
            // A worker's clock is its bytes plus its waits.
            assert_eq!(w.clock_units, w.bytes + w.wait_units);
        }
        let clocks = r.per_worker.iter().map(|w| w.clock_units);
        assert_eq!(r.makespan_units, clocks.max().unwrap());
        assert_eq!(
            r.total_wait_units,
            r.per_worker.iter().map(|w| w.wait_units).sum::<u64>()
        );
    }

    #[test]
    fn permutations_are_replayable_and_cover() {
        let a = det(4, 2, 5);
        let b = det(4, 2, 5);
        for n in [0usize, 1, 2, 7, 32] {
            let pa = a.permutation(n);
            let pb = b.permutation(n);
            assert_eq!(pa, pb);
            let mut sorted = pa.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
        // Stage counter advanced in lockstep; next stage differs from the
        // first at this size (overwhelmingly likely, fixed seed = fixed
        // outcome, so this is a deterministic assertion).
        assert_ne!(a.permutation(32), a.permutation(32));
    }

    #[test]
    fn reset_clears_all_state() {
        let ex = det(3, 2, 1);
        for w in 0..3 {
            ex.transfer(w, 4096);
        }
        ex.permutation(8);
        ex.reset();
        let r = ex.report();
        assert_eq!(r.total_bytes, 0);
        assert_eq!(r.makespan_units, 0);
        assert_eq!(r.transfers, 0);
        assert_eq!(r.per_slot_busy_units, vec![0, 0]);
    }

    #[test]
    fn leases_respect_pool_and_tenant_caps() {
        let ex = det(8, 4, 1);
        assert_eq!(ex.slots_total(), 4);
        // Tenant 1 can take the whole pool when uncapped.
        assert_eq!(ex.try_lease(1, 10), 4);
        assert_eq!(ex.try_lease(2, 1), 0, "pool exhausted");
        ex.release_lease(1, 2);
        assert_eq!(ex.leased(1), 2);
        assert_eq!(ex.total_leased(), 2);
        // Per-tenant cap of 1: tenant 2 gets one slot even though two are free.
        ex.set_tenant_slot_cap(Some(1));
        assert_eq!(ex.try_lease(2, 5), 1);
        assert_eq!(ex.try_lease(2, 1), 0, "tenant cap reached");
        // Over-release saturates instead of underflowing.
        ex.release_lease(2, 99);
        assert_eq!(ex.leased(2), 0);
        ex.release_lease(1, 2);
        assert_eq!(ex.total_leased(), 0);
        ex.note_preemption(1, 2);
        assert_eq!(ex.preemptions(), 1);
        ex.reset();
        assert_eq!(ex.preemptions(), 0);
    }

    #[test]
    fn validation_errors_are_typed() {
        assert_eq!(
            ExecConfig::deterministic(0, 1, 0).validate(),
            Err(ExecConfigError::ZeroWorkers)
        );
        assert_eq!(
            ExecConfig::deterministic(1, 0, 0).validate(),
            Err(ExecConfigError::ZeroSlots)
        );
        assert_eq!(
            ExecConfig::deterministic(2, 4, 0).validate(),
            Err(ExecConfigError::SlotsExceedWorkers)
        );
    }

    #[test]
    fn from_env_parses_knobs() {
        // Serialize env access: tests in this module run in one process.
        std::env::set_var(EXEC_SEED_ENV, "1234");
        std::env::set_var(EXEC_WORKERS_ENV, "16");
        std::env::set_var(EXEC_SLOTS_ENV, "4");
        let cfg = ExecConfig::from_env().expect("seed set");
        assert_eq!(cfg.seed, 1234);
        assert_eq!(cfg.workers, 16);
        assert_eq!(cfg.transfer_slots, 4);
        // Out-of-range counts are passed through for `validate` to reject,
        // not clamped into a `p′` nobody asked for.
        std::env::set_var(EXEC_WORKERS_ENV, "0");
        let cfg = ExecConfig::from_env().expect("seed set");
        assert_eq!(cfg.workers, 0);
        assert_eq!(cfg.validate(), Err(ExecConfigError::ZeroWorkers));
        std::env::set_var(EXEC_WORKERS_ENV, "2");
        let cfg = ExecConfig::from_env().expect("seed set");
        assert_eq!(cfg.transfer_slots, 4);
        assert_eq!(cfg.validate(), Err(ExecConfigError::SlotsExceedWorkers));
        std::env::remove_var(EXEC_SLOTS_ENV);
        std::env::remove_var(EXEC_WORKERS_ENV);
        std::env::remove_var(EXEC_SEED_ENV);
        assert!(ExecConfig::from_env().is_none());
    }
}
