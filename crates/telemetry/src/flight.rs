//! Causal flight recorder: lock-free per-lane rings of typed events.
//!
//! The aggregate layers (counters, spans, the cost ledger) answer *how
//! much* — this module answers *which*: which transfer chain, on which
//! slot, made the run as long as it was. Every lane owns a fixed-size
//! ring of [`FlightEvent`]s; emission is a `fetch_add` claim plus a
//! release-stamped payload write, so hot paths never take a lock. A
//! global sequence counter totally orders events across lanes (in
//! deterministic executor mode emission is single-threaded, so the
//! order — and therefore the serialized trace — is bit-for-bit
//! replayable from `(seed, p, p′)`).
//!
//! # Clock domains
//!
//! * [`ClockDomain::Virtual`] — timestamps are the executor's virtual
//!   byte-units. Transfer events carry the arbiter's exact
//!   issue/grant/retire stamps; span, phase, and fault events are
//!   stamped with the emitting lane's *last retire* (a lane's virtual
//!   clock only advances through its own transfers, so per-lane
//!   timestamps are monotone non-decreasing).
//! * [`ClockDomain::Wall`] — timestamps are [`crate::now_ns`]
//!   nanoseconds. Transfers charged without an executor carry no slot
//!   identity ([`NO_SLOT`]) or occupancy.
//!
//! # Event vocabulary
//!
//! The vendored serde derive supports flat named-field structs and
//! fieldless enums only, so [`FlightEvent`] is a single flat record:
//! `kind` discriminates, and the remaining fields are meaningful per
//! kind (unused ones hold their `NO_*` sentinel / zero). Transfer
//! lifecycles are three events (`Issue`, `Grant`, `Retire`) sharing a
//! recorder-local `id`, which is what makes the issue→grant→retire
//! ordering and the slot timeline checkable after the fact.

use std::cell::{Cell as StdCell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::lane::current_lane;
use crate::now_ns;

/// Serialized trace schema version (bump on incompatible change).
pub const TRACE_SCHEMA_VERSION: u32 = 1;
/// `slot` sentinel: event is not bound to a transfer slot.
pub const NO_SLOT: u32 = u32::MAX;
/// `name` sentinel: event carries no interned name.
pub const NO_NAME: u32 = u32::MAX;
/// Highest lane id the recorder tracks; events from lanes at or above
/// this are counted in [`LaneTrace::dropped`] of lane `MAX_LANES - 1`.
pub const MAX_LANES: usize = 256;

/// Flag bit: the transfer crossed the far (DRAM) channel.
pub const FLAG_FAR: u32 = 1 << 0;
/// Flag bit: the transfer wrote (near→far or far-write); unset = read.
pub const FLAG_WRITE: u32 = 1 << 1;
/// Flag bit: the charge was a fault-injected retry/abort penalty.
pub const FLAG_RETRY: u32 = 1 << 2;
/// Flag bit: the transfer was charged at random-access granularity
/// (`bytes` is the touched-byte ledger charge, while the arbitrated
/// occupancy was `accesses × block`).
pub const FLAG_RANDOM: u32 = 1 << 3;

/// Which clock stamped the events of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockDomain {
    /// Executor virtual byte-units (deterministic mode).
    Virtual,
    /// Nanoseconds since the telemetry epoch (host / untimed mode).
    Wall,
}

/// Event discriminant. See module docs for per-kind field meanings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A named execution phase opened (`name`).
    PhaseBegin,
    /// The matching phase closed (`name`).
    PhaseEnd,
    /// A kernel/algorithm span opened on this lane (`name`).
    SpanBegin,
    /// The matching span closed (`name`).
    SpanEnd,
    /// Transfer `id` requested a slot at `ts` (`bytes`, `flags`).
    Issue,
    /// Transfer `id` was granted `slot` at `ts`.
    Grant,
    /// Transfer `id` released `slot` at `ts`; `bytes` moved in total.
    Retire,
    /// A staging-arena pending transfer (`id` in the *arena's* id space,
    /// not the recorder's) completed at `ts`, unblocking deferred frees.
    /// Deliberately outside the Issue/Grant/Retire triple invariant: the
    /// triple tracks the ledger charge, this tracks buffer lifetime.
    ArenaRetire,
    /// `bytes` holds compute ops charged on this lane at `ts`.
    Compute,
    /// A fault-plan decision fired (`name` = op/decision label).
    Fault,
}

/// One flight-recorder event. Flat on purpose — see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Global emission order (process-wide per recorder install).
    pub seq: u64,
    /// Timestamp in the trace's [`ClockDomain`].
    pub ts: u64,
    /// Discriminant.
    pub kind: EventKind,
    /// Transfer id (Issue/Grant/Retire); 0 for other kinds.
    pub id: u64,
    /// Ledger bytes (transfers) or compute ops; 0 otherwise.
    pub bytes: u64,
    /// Transfer slot (Grant/Retire in virtual mode) or [`NO_SLOT`].
    pub slot: u32,
    /// Interned name id (phases/spans/faults) or [`NO_NAME`].
    pub name: u32,
    /// `FLAG_*` bits.
    pub flags: u32,
}

impl Default for FlightEvent {
    fn default() -> Self {
        FlightEvent {
            seq: 0,
            ts: 0,
            kind: EventKind::Compute,
            id: 0,
            bytes: 0,
            slot: NO_SLOT,
            name: NO_NAME,
            flags: 0,
        }
    }
}

/// Virtual-time stamps of one arbitrated transfer, as reported by the
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// Slot that served the transfer.
    pub slot: u32,
    /// When the worker requested a slot.
    pub issue: u64,
    /// When the slot was granted (`grant - issue` = slot wait).
    pub grant: u64,
    /// When the transfer finished occupying the slot.
    pub retire: u64,
}

// ---------------------------------------------------------------------
// Lock-free per-lane ring
// ---------------------------------------------------------------------

/// Ring cell: `stamp == index + 1` ⇒ the payload for claim `index` is
/// fully written. Readers run at quiescence (take/snapshot) and treat a
/// mismatched stamp as an overwritten (dropped) entry.
struct RingCell {
    stamp: AtomicU64,
    ev: UnsafeCell<FlightEvent>,
}

// SAFETY: the payload is only read by snapshot() after validating the
// release-stamped claim index; concurrent writers never share a claim
// (fetch_add hands out unique indices).
unsafe impl Sync for RingCell {}

struct LaneRing {
    /// Next claim index (total events ever emitted on this lane).
    head: AtomicU64,
    /// Lane-local virtual clock: max retire seen on this lane.
    clock: AtomicU64,
    cells: Box<[RingCell]>,
}

impl LaneRing {
    fn new(capacity: usize) -> Self {
        LaneRing {
            head: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            cells: (0..capacity)
                .map(|_| RingCell {
                    stamp: AtomicU64::new(0),
                    ev: UnsafeCell::new(FlightEvent::default()),
                })
                .collect(),
        }
    }

    #[inline]
    fn push(&self, ev: FlightEvent) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[(idx as usize) % self.cells.len()];
        // Invalidate before writing so a racing snapshot never reads a
        // half-written payload as valid.
        cell.stamp.store(u64::MAX, Ordering::Relaxed);
        // SAFETY: claim `idx` is uniquely ours (fetch_add); see RingCell.
        unsafe {
            *cell.ev.get() = ev;
        }
        cell.stamp.store(idx + 1, Ordering::Release);
    }

    /// Read surviving events in claim order (quiescent snapshot).
    fn snapshot(&self) -> (u64, Vec<FlightEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.cells.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for idx in start..head {
            let cell = &self.cells[(idx as usize) % self.cells.len()];
            if cell.stamp.load(Ordering::Acquire) == idx + 1 {
                // SAFETY: stamp matches the claim, so the payload write
                // for `idx` happened-before our Acquire load.
                out.push(unsafe { *cell.ev.get() });
            }
        }
        (head, out)
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// Flight-recorder configuration.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Clock domain events are stamped in.
    pub domain: ClockDomain,
    /// Ring capacity per lane (rounded up to at least 16). Overflow
    /// drops the *oldest* events and is reported per lane.
    pub capacity_per_lane: usize,
    /// Executor workers `p` (lane → worker folding for the analyzer).
    pub workers: u32,
    /// Executor transfer slots `p′`.
    pub transfer_slots: u32,
    /// Executor seed (provenance only).
    pub seed: u64,
}

impl FlightConfig {
    /// Virtual-domain config mirroring an executor's `(p, p′, seed)`.
    pub fn virtual_time(workers: u32, transfer_slots: u32, seed: u64) -> Self {
        FlightConfig {
            domain: ClockDomain::Virtual,
            capacity_per_lane: 1 << 15,
            workers,
            transfer_slots,
            seed,
        }
    }

    /// Wall-clock config (executor-free runs).
    pub fn wall(workers: u32, transfer_slots: u32) -> Self {
        FlightConfig {
            domain: ClockDomain::Wall,
            capacity_per_lane: 1 << 15,
            workers,
            transfer_slots,
            seed: 0,
        }
    }

    /// Override the per-lane ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity_per_lane = capacity;
        self
    }
}

/// The installed recorder: lazily-allocated lane rings + name interner.
pub struct FlightRecorder {
    domain: ClockDomain,
    capacity: usize,
    workers: u32,
    transfer_slots: u32,
    seed: u64,
    lanes: Vec<Mutex<Option<Box<LaneRing>>>>,
    /// Lanes that have a ring (dense scan shortcut for snapshot).
    lane_touched: Vec<AtomicBool>,
    names: Mutex<NameTable>,
    next_seq: AtomicU64,
    next_transfer: AtomicU64,
}

#[derive(Default)]
struct NameTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl FlightRecorder {
    fn new(cfg: &FlightConfig) -> Self {
        FlightRecorder {
            domain: cfg.domain,
            capacity: cfg.capacity_per_lane.max(16),
            workers: cfg.workers.max(1),
            transfer_slots: cfg.transfer_slots.max(1),
            seed: cfg.seed,
            lanes: (0..MAX_LANES).map(|_| Mutex::new(None)).collect(),
            lane_touched: (0..MAX_LANES).map(|_| AtomicBool::new(false)).collect(),
            names: Mutex::new(NameTable::default()),
            next_seq: AtomicU64::new(0),
            next_transfer: AtomicU64::new(0),
        }
    }

    /// Clock domain of this recorder.
    pub fn domain(&self) -> ClockDomain {
        self.domain
    }

    fn intern(&self, name: &str) -> u32 {
        let mut t = self.names.lock();
        if let Some(&id) = t.by_name.get(name) {
            return id;
        }
        let id = t.names.len() as u32;
        t.names.push(name.to_string());
        t.by_name.insert(name.to_string(), id);
        id
    }

    /// Run `f` against the ring for `lane`, creating it on first touch.
    /// Lanes beyond [`MAX_LANES`] fold onto the last ring (still
    /// monotone per ring because all clocks are non-decreasing).
    #[inline]
    fn with_ring<R>(&self, lane: usize, f: impl FnOnce(&LaneRing) -> R) -> R {
        let lane = lane.min(MAX_LANES - 1);
        // Fast path: ring exists. The Option is only written once, so a
        // read under the mutex is cheap and uncontended after creation.
        let mut guard = self.lanes[lane].lock();
        if guard.is_none() {
            *guard = Some(Box::new(LaneRing::new(self.capacity)));
            self.lane_touched[lane].store(true, Ordering::Release);
        }
        f(guard.as_ref().expect("ring just ensured"))
    }

    #[inline]
    fn domain_now(&self, lane: usize) -> u64 {
        match self.domain {
            ClockDomain::Virtual => {
                let lane = lane.min(MAX_LANES - 1);
                self.lanes[lane]
                    .lock()
                    .as_ref()
                    .map_or(0, |r| r.clock.load(Ordering::Relaxed))
            }
            ClockDomain::Wall => now_ns(),
        }
    }

    #[inline]
    fn emit(&self, lane: usize, mut ev: FlightEvent) {
        ev.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.with_ring(lane, |r| r.push(ev));
    }

    fn emit_named(&self, kind: EventKind, name: &str) {
        let lane = current_lane().unwrap_or(0);
        let ev = FlightEvent {
            ts: self.domain_now(lane),
            kind,
            name: self.intern(name),
            ..FlightEvent::default()
        };
        self.emit(lane, ev);
    }

    fn emit_transfer(&self, bytes: u64, mut flags: u32, timing: Option<TransferTiming>) {
        let lane = current_lane().unwrap_or(0);
        if fault_retry_active() {
            flags |= FLAG_RETRY;
        }
        let id = self.next_transfer.fetch_add(1, Ordering::Relaxed) + 1;
        let (slot, issue, grant, retire) = match timing {
            Some(t) => (t.slot, t.issue, t.grant, t.retire),
            None => {
                let now = self.domain_now(lane);
                (NO_SLOT, now, now, now)
            }
        };
        let base = FlightEvent {
            id,
            bytes,
            flags,
            ..FlightEvent::default()
        };
        self.emit(
            lane,
            FlightEvent {
                ts: issue,
                kind: EventKind::Issue,
                ..base
            },
        );
        self.emit(
            lane,
            FlightEvent {
                ts: grant,
                kind: EventKind::Grant,
                slot,
                ..base
            },
        );
        self.emit(
            lane,
            FlightEvent {
                ts: retire,
                kind: EventKind::Retire,
                slot,
                ..base
            },
        );
        if self.domain == ClockDomain::Virtual {
            self.with_ring(lane, |r| {
                r.clock.fetch_max(retire, Ordering::Relaxed);
            });
        }
    }

    fn emit_compute(&self, ops: u64) {
        let lane = current_lane().unwrap_or(0);
        let ev = FlightEvent {
            ts: self.domain_now(lane),
            kind: EventKind::Compute,
            bytes: ops,
            ..FlightEvent::default()
        };
        self.emit(lane, ev);
    }

    /// Drain the recorder into a serializable trace.
    pub fn to_trace(&self) -> FlightTrace {
        let mut lanes = Vec::new();
        for lane in 0..MAX_LANES {
            if !self.lane_touched[lane].load(Ordering::Acquire) {
                continue;
            }
            let guard = self.lanes[lane].lock();
            let Some(ring) = guard.as_ref() else { continue };
            let (emitted, mut events) = ring.snapshot();
            events.sort_by_key(|e| e.seq);
            let dropped = emitted - events.len() as u64;
            lanes.push(LaneTrace {
                lane: lane as u32,
                emitted,
                dropped,
                events,
            });
        }
        FlightTrace {
            schema_version: TRACE_SCHEMA_VERSION,
            domain: self.domain,
            workers: self.workers,
            transfer_slots: self.transfer_slots,
            seed: self.seed,
            names: self.names.lock().names.clone(),
            lanes,
        }
    }
}

// ---------------------------------------------------------------------
// Serialized trace
// ---------------------------------------------------------------------

/// Events that survived in one lane's ring, in emission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneTrace {
    /// Lane id.
    pub lane: u32,
    /// Events ever emitted on this lane (including overwritten ones).
    pub emitted: u64,
    /// Events lost to ring overflow (oldest-first).
    pub dropped: u64,
    /// Surviving events, ascending `seq`.
    pub events: Vec<FlightEvent>,
}

/// A complete drained trace — the `trace.json`-able artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightTrace {
    /// [`TRACE_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// Clock domain of every `ts` in the trace.
    pub domain: ClockDomain,
    /// Executor workers `p` (lanes fold onto workers `lane % p`).
    pub workers: u32,
    /// Executor transfer slots `p′`.
    pub transfer_slots: u32,
    /// Executor seed.
    pub seed: u64,
    /// Interned name table (`FlightEvent::name` indexes this).
    pub names: Vec<String>,
    /// Per-lane event streams (lanes that emitted anything).
    pub lanes: Vec<LaneTrace>,
}

/// A transfer reconstructed from its Issue/Grant/Retire triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRec {
    /// Recorder-local transfer id.
    pub id: u64,
    /// Issuing lane.
    pub lane: u32,
    /// Ledger bytes charged.
    pub bytes: u64,
    /// Slot that served it ([`NO_SLOT`] without an executor).
    pub slot: u32,
    /// Issue timestamp.
    pub issue: u64,
    /// Grant timestamp (`grant - issue` = slot wait).
    pub grant: u64,
    /// Retire timestamp.
    pub retire: u64,
    /// `FLAG_*` bits.
    pub flags: u32,
}

impl TransferRec {
    /// Did this transfer cross the far channel?
    pub fn far(&self) -> bool {
        self.flags & FLAG_FAR != 0
    }

    /// Was this charge a fault retry/abort penalty?
    pub fn retry(&self) -> bool {
        self.flags & FLAG_RETRY != 0
    }
}

impl FlightTrace {
    /// Resolve an interned name id.
    pub fn name(&self, id: u32) -> &str {
        if id == NO_NAME {
            ""
        } else {
            self.names.get(id as usize).map_or("?", |s| s.as_str())
        }
    }

    /// Total events dropped to ring overflow across all lanes.
    pub fn dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Sum of ledger bytes over retired transfers matching `pred`.
    pub fn transfer_bytes(&self, pred: impl Fn(&TransferRec) -> bool) -> u64 {
        self.transfers()
            .iter()
            .filter(|t| pred(t))
            .map(|t| t.bytes)
            .sum()
    }

    /// Reconstruct all complete transfer triples, ascending id.
    pub fn transfers(&self) -> Vec<TransferRec> {
        let mut partial: HashMap<u64, TransferRec> = HashMap::new();
        let mut done: Vec<TransferRec> = Vec::new();
        for lane in &self.lanes {
            for ev in &lane.events {
                match ev.kind {
                    EventKind::Issue => {
                        partial.insert(
                            ev.id,
                            TransferRec {
                                id: ev.id,
                                lane: lane.lane,
                                bytes: ev.bytes,
                                slot: NO_SLOT,
                                issue: ev.ts,
                                grant: 0,
                                retire: 0,
                                flags: ev.flags,
                            },
                        );
                    }
                    EventKind::Grant => {
                        if let Some(t) = partial.get_mut(&ev.id) {
                            t.grant = ev.ts;
                            t.slot = ev.slot;
                        }
                    }
                    EventKind::Retire => {
                        if let Some(mut t) = partial.remove(&ev.id) {
                            t.retire = ev.ts;
                            done.push(t);
                        }
                    }
                    _ => {}
                }
            }
        }
        done.sort_by_key(|t| t.id);
        done
    }

    /// Check the trace's structural invariants. Returns every violation
    /// found (empty ⇒ valid): schema version, per-lane timestamp
    /// monotonicity, strict span nesting, globally alternating phases,
    /// complete ordered issue→grant→retire triples, and (virtual
    /// domain) slot-timeline exclusivity.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        if self.schema_version != TRACE_SCHEMA_VERSION {
            errs.push(format!(
                "schema_version {} != supported {}",
                self.schema_version, TRACE_SCHEMA_VERSION
            ));
        }

        // Per-lane: monotone timestamps, ascending seq, span stack.
        for lane in &self.lanes {
            let mut last_ts = 0u64;
            let mut last_seq: Option<u64> = None;
            let mut spans: Vec<u32> = Vec::new();
            for ev in &lane.events {
                if ev.ts < last_ts {
                    errs.push(format!(
                        "lane {}: ts regressed {} -> {} at seq {}",
                        lane.lane, last_ts, ev.ts, ev.seq
                    ));
                }
                last_ts = ev.ts;
                if let Some(ls) = last_seq {
                    if ev.seq <= ls {
                        errs.push(format!(
                            "lane {}: seq not ascending at {}",
                            lane.lane, ev.seq
                        ));
                    }
                }
                last_seq = Some(ev.seq);
                match ev.kind {
                    EventKind::SpanBegin => spans.push(ev.name),
                    EventKind::SpanEnd => match spans.pop() {
                        Some(open) if open == ev.name => {}
                        Some(open) => errs.push(format!(
                            "lane {}: span `{}` closed while `{}` open (seq {})",
                            lane.lane,
                            self.name(ev.name),
                            self.name(open),
                            ev.seq
                        )),
                        None => errs.push(format!(
                            "lane {}: span `{}` closed with no span open (seq {})",
                            lane.lane,
                            self.name(ev.name),
                            ev.seq
                        )),
                    },
                    _ => {}
                }
            }
            if lane.dropped == 0 && !spans.is_empty() {
                errs.push(format!(
                    "lane {}: {} span(s) never closed (`{}` innermost)",
                    lane.lane,
                    spans.len(),
                    self.name(*spans.last().expect("non-empty"))
                ));
            }
        }

        // Global order: merge by seq for phase alternation checks.
        let mut all: Vec<&FlightEvent> = self.lanes.iter().flat_map(|l| &l.events).collect();
        all.sort_by_key(|e| e.seq);
        let mut phases: Vec<u32> = Vec::new();
        for ev in &all {
            match ev.kind {
                EventKind::PhaseBegin => phases.push(ev.name),
                EventKind::PhaseEnd => match phases.pop() {
                    Some(open) if open == ev.name => {}
                    Some(open) => errs.push(format!(
                        "phase `{}` closed while `{}` open (seq {})",
                        self.name(ev.name),
                        self.name(open),
                        ev.seq
                    )),
                    None => errs.push(format!(
                        "phase `{}` closed with none open (seq {})",
                        self.name(ev.name),
                        ev.seq
                    )),
                },
                _ => {}
            }
        }
        if self.dropped() == 0 && !phases.is_empty() {
            errs.push(format!("{} phase(s) never closed", phases.len()));
        }

        // Transfer triples: one of each kind per id, ordered stamps,
        // grant/retire slot agreement.
        let mut triples: HashMap<u64, [u32; 3]> = HashMap::new();
        for ev in &all {
            let i = match ev.kind {
                EventKind::Issue => 0,
                EventKind::Grant => 1,
                EventKind::Retire => 2,
                _ => continue,
            };
            triples.entry(ev.id).or_insert([0u32; 3])[i] += 1;
        }
        for (id, counts) in &triples {
            if *counts != [1, 1, 1] && self.dropped() == 0 {
                errs.push(format!(
                    "transfer {id}: issue/grant/retire counts {counts:?} (want [1,1,1])"
                ));
            }
        }
        for t in self.transfers() {
            if !(t.issue <= t.grant && t.grant <= t.retire) {
                errs.push(format!(
                    "transfer {}: stamps not ordered issue {} <= grant {} <= retire {}",
                    t.id, t.issue, t.grant, t.retire
                ));
            }
        }

        // Virtual domain: a slot serves one transfer at a time.
        if self.domain == ClockDomain::Virtual {
            let mut by_slot: HashMap<u32, Vec<(u64, u64, u64)>> = HashMap::new();
            for t in self.transfers() {
                if t.slot != NO_SLOT {
                    by_slot
                        .entry(t.slot)
                        .or_default()
                        .push((t.grant, t.retire, t.id));
                }
            }
            for (slot, mut iv) in by_slot {
                iv.sort_unstable();
                for w in iv.windows(2) {
                    if w[1].0 < w[0].1 {
                        errs.push(format!(
                            "slot {slot}: transfers {} and {} overlap ([{}, {}) vs [{}, {}))",
                            w[0].2, w[1].2, w[0].0, w[0].1, w[1].0, w[1].1
                        ));
                    }
                }
            }
        }

        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json_pretty(&self) -> Result<String, serde::Error> {
        serde::json::to_string_pretty(self)
    }

    /// Parse a trace back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        serde::json::from_str(s)
    }
}

// ---------------------------------------------------------------------
// Global install / emit API
// ---------------------------------------------------------------------

static FLIGHT_ON: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static RECORDER: Mutex<Option<Arc<FlightRecorder>>> = Mutex::new(None);

thread_local! {
    static CACHED: RefCell<(u64, Option<Arc<FlightRecorder>>)> =
        const { RefCell::new((0, None)) };
    static FAULT_RETRY: StdCell<bool> = const { StdCell::new(false) };
}

/// Is a flight recorder installed? Hot paths gate on this before
/// assembling any event.
#[inline]
pub fn enabled() -> bool {
    FLIGHT_ON.load(Ordering::Relaxed)
}

/// Install a fresh recorder, replacing (and discarding) any previous
/// one. Returns the installed recorder for direct draining.
pub fn install(cfg: FlightConfig) -> Arc<FlightRecorder> {
    let rec = Arc::new(FlightRecorder::new(&cfg));
    *RECORDER.lock() = Some(Arc::clone(&rec));
    GENERATION.fetch_add(1, Ordering::Release);
    FLIGHT_ON.store(true, Ordering::Release);
    rec
}

/// Uninstall the recorder and drain it into a trace (`None` if no
/// recorder was installed).
pub fn uninstall() -> Option<FlightTrace> {
    FLIGHT_ON.store(false, Ordering::Release);
    let rec = RECORDER.lock().take();
    GENERATION.fetch_add(1, Ordering::Release);
    rec.map(|r| r.to_trace())
}

/// Snapshot the installed recorder without uninstalling it.
pub fn snapshot() -> Option<FlightTrace> {
    let rec = RECORDER.lock().clone();
    rec.map(|r| r.to_trace())
}

#[inline]
fn with_recorder(f: impl FnOnce(&FlightRecorder)) {
    if !enabled() {
        return;
    }
    CACHED.with(|c| {
        let generation = GENERATION.load(Ordering::Acquire);
        let mut cached = c.borrow_mut();
        if cached.0 != generation {
            *cached = (generation, RECORDER.lock().clone());
        }
        if let Some(rec) = cached.1.as_ref() {
            f(rec);
        }
    });
}

/// Record a phase boundary (called by the scratchpad trace recorder).
pub fn phase_event(begin: bool, name: &str) {
    with_recorder(|r| {
        r.emit_named(
            if begin {
                EventKind::PhaseBegin
            } else {
                EventKind::PhaseEnd
            },
            name,
        )
    });
}

/// Record a span boundary (called by the span layer for RAII spans).
pub fn span_event(begin: bool, name: &str) {
    with_recorder(|r| {
        r.emit_named(
            if begin {
                EventKind::SpanBegin
            } else {
                EventKind::SpanEnd
            },
            name,
        )
    });
}

/// Record a fault-plan decision on the current lane.
pub fn fault_event(label: &str) {
    with_recorder(|r| r.emit_named(EventKind::Fault, label));
}

/// Record compute ops charged on the current lane.
pub fn compute_event(ops: u64) {
    with_recorder(|r| r.emit_compute(ops));
}

/// Record one charged transfer (three events: issue/grant/retire).
/// `bytes` is the *ledger* charge; `timing` carries the arbiter's
/// stamps when an executor arbitrated the transfer.
pub fn transfer_event(bytes: u64, flags: u32, timing: Option<TransferTiming>) {
    with_recorder(|r| r.emit_transfer(bytes, flags, timing));
}

/// Record the retirement of a staging-arena pending transfer as a lone
/// `Retire` event carrying the arena's own transfer id — distinct from the
/// issue/grant/retire triple of [`transfer_event`], which tracks the
/// *charge*; this tracks the *completion* that unblocks arena frees.
pub fn arena_retire_event(id: u64, bytes: u64, flags: u32) {
    with_recorder(|r| {
        let lane = current_lane().unwrap_or(0);
        let ev = FlightEvent {
            ts: r.domain_now(lane),
            kind: EventKind::ArenaRetire,
            id,
            bytes,
            flags,
            name: r.intern("arena.retire"),
            ..FlightEvent::default()
        };
        r.emit(lane, ev);
    });
}

/// Run `f` with charges flagged as fault-retry penalties; the runtime
/// wraps the double-charge/abort paths of its fault branches in this so
/// the analyzer can attribute that occupancy to `fault_retry`.
pub fn with_fault_retry<R>(f: impl FnOnce() -> R) -> R {
    FAULT_RETRY.with(|c| {
        let prev = c.replace(true);
        let out = f();
        c.set(prev);
        out
    })
}

/// Is the current thread inside [`with_fault_retry`]?
#[inline]
pub fn fault_retry_active() -> bool {
    FAULT_RETRY.with(|c| c.get())
}

/// Serialize tests that install/uninstall the global recorder (the
/// harness runs tests on parallel threads in one process).
#[cfg(test)]
pub(crate) fn test_guard() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_quiet() -> FlightTrace {
        uninstall().expect("recorder installed")
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = test_guard();
        let _ = uninstall();
        assert!(!enabled());
        transfer_event(4096, FLAG_FAR, None);
        span_event(true, "t.noop");
        assert!(snapshot().is_none());
    }

    #[test]
    fn transfer_triples_roundtrip() {
        let _g = test_guard();
        let _ = install(FlightConfig::virtual_time(4, 2, 7));
        crate::with_lane(3, || {
            transfer_event(
                1024,
                FLAG_FAR,
                Some(TransferTiming {
                    slot: 1,
                    issue: 0,
                    grant: 10,
                    retire: 1034,
                }),
            );
            transfer_event(512, FLAG_FAR | FLAG_WRITE, None);
        });
        let trace = take_quiet();
        let ts = trace.transfers();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].bytes, 1024);
        assert_eq!(ts[0].slot, 1);
        assert_eq!(ts[0].grant, 10);
        assert!(ts[0].far());
        // The untimed transfer lands at the lane clock (= 1034 after
        // the first retire) with no slot.
        assert_eq!(ts[1].slot, NO_SLOT);
        assert_eq!(ts[1].issue, 1034);
        trace.validate().expect("valid trace");
    }

    #[test]
    fn validate_flags_unbalanced_spans_and_ts_regression() {
        let _g = test_guard();
        let _ = install(FlightConfig::virtual_time(2, 1, 0));
        span_event(true, "t.open_only");
        let mut trace = take_quiet();
        assert!(trace.validate().is_err());
        // Manufacture a timestamp regression.
        trace.lanes[0].events[0].ts = 5;
        trace.lanes[0].events.push(FlightEvent {
            seq: 999,
            ts: 1,
            kind: EventKind::Compute,
            ..FlightEvent::default()
        });
        let errs = trace.validate().unwrap_err();
        assert!(errs.iter().any(|e| e.contains("ts regressed")));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let _g = test_guard();
        let _ = install(FlightConfig::virtual_time(1, 1, 0).with_capacity(16));
        for i in 0..40 {
            compute_event(i);
        }
        let trace = take_quiet();
        assert_eq!(trace.lanes.len(), 1);
        let lane = &trace.lanes[0];
        assert_eq!(lane.emitted, 40);
        assert_eq!(lane.dropped, 24);
        assert_eq!(lane.events.len(), 16);
        // Survivors are the newest events, in order.
        assert_eq!(lane.events.first().unwrap().bytes, 24);
        assert_eq!(lane.events.last().unwrap().bytes, 39);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let _g = test_guard();
        let _ = install(FlightConfig::virtual_time(2, 2, 42));
        crate::with_lane(0, || {
            span_event(true, "t.rt.span");
            transfer_event(
                256,
                FLAG_FAR,
                Some(TransferTiming {
                    slot: 0,
                    issue: 0,
                    grant: 0,
                    retire: 256,
                }),
            );
            span_event(false, "t.rt.span");
        });
        let trace = take_quiet();
        let json = trace.to_json_pretty().expect("serialize");
        let back = FlightTrace::from_json(&json).expect("parse");
        assert_eq!(trace, back);
    }

    #[test]
    fn fault_retry_flag_scopes_to_closure() {
        let _g = test_guard();
        let _ = install(FlightConfig::virtual_time(1, 1, 0));
        with_fault_retry(|| transfer_event(64, FLAG_FAR, None));
        transfer_event(64, FLAG_FAR, None);
        let trace = take_quiet();
        let ts = trace.transfers();
        assert!(ts[0].retry());
        assert!(!ts[1].retry());
    }
}
