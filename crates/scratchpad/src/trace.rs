//! Phase traces: what the runtime records and the simulator replays.
//!
//! A run of an algorithm on the two-level memory produces a sequence of
//! **phases** (e.g. "phase1.chunk_sort", "phase2.merge"). Within a phase,
//! work is attributed to **virtual lanes** — the simulated cores. Lanes are
//! virtual so that a laptop with 8 host threads can produce the trace of a
//! 256-core machine: the algorithm partitions its work into `lanes` pieces
//! and wraps each piece in [`with_lane`], no matter which host thread runs
//! it.
//!
//! The resulting [`PhaseTrace`] contains, per phase and lane, the exact byte
//! volumes moved against each memory and the RAM-model operation count. The
//! `tlmm-memsim` crate turns this into simulated wall-clock time under a
//! machine configuration (Fig. 4 of the paper).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Run `f` with all runtime charges on this thread attributed to virtual
/// lane `lane`. Nestable; the previous lane is restored afterwards.
///
/// Delegates to [`tlmm_telemetry::with_lane`] so that telemetry spans and
/// events opened inside the closure carry the same lane attribution the
/// cost trace uses — one thread-local, one source of truth.
pub fn with_lane<R>(lane: usize, f: impl FnOnce() -> R) -> R {
    tlmm_telemetry::with_lane(lane, f)
}

/// The lane charges on this thread are currently attributed to.
/// Outside any [`with_lane`] scope, charges land on lane 0.
pub fn current_lane() -> usize {
    tlmm_telemetry::current_lane().unwrap_or(0)
}

/// Work attributed to one virtual lane within one phase. All byte fields are
/// raw bytes moved (the model-unit block counts live in the
/// [`tlmm_model::CostLedger`]; the simulator wants bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneWork {
    /// Bytes read from far memory (DRAM → cache).
    pub far_read_bytes: u64,
    /// Bytes written to far memory.
    pub far_write_bytes: u64,
    /// Bytes read from near memory (scratchpad → cache).
    pub near_read_bytes: u64,
    /// Bytes written to near memory.
    pub near_write_bytes: u64,
    /// RAM-model operations (comparisons, arithmetic) executed.
    pub compute_ops: u64,
    /// Virtual byte-units this lane's worker spent waiting for a transfer
    /// slot under an installed [`crate::executor::Executor`] (Theorem 10's
    /// `p′` arbitration). Zero when no executor is installed and whenever
    /// `p ≤ p′` demand never collides.
    pub slot_wait_units: u64,
}

impl LaneWork {
    /// Total bytes that cross the far-memory channels.
    pub fn far_bytes(&self) -> u64 {
        self.far_read_bytes + self.far_write_bytes
    }

    /// Total bytes that cross the near-memory channels.
    pub fn near_bytes(&self) -> u64 {
        self.near_read_bytes + self.near_write_bytes
    }

    /// Total bytes through the on-chip network (everything crosses it).
    pub fn noc_bytes(&self) -> u64 {
        self.far_bytes() + self.near_bytes()
    }

    /// Is this lane entirely idle?
    pub fn is_idle(&self) -> bool {
        self.noc_bytes() == 0 && self.compute_ops == 0
    }

    /// Element-wise sum.
    pub fn merged(&self, o: &LaneWork) -> LaneWork {
        LaneWork {
            far_read_bytes: self.far_read_bytes + o.far_read_bytes,
            far_write_bytes: self.far_write_bytes + o.far_write_bytes,
            near_read_bytes: self.near_read_bytes + o.near_read_bytes,
            near_write_bytes: self.near_write_bytes + o.near_write_bytes,
            compute_ops: self.compute_ops + o.compute_ops,
            slot_wait_units: self.slot_wait_units + o.slot_wait_units,
        }
    }
}

/// One recorded phase: a name and per-lane work vectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Human-readable phase name (e.g. `"nmsort.p1.sort_chunk"`).
    pub name: String,
    /// Per-virtual-lane work. Index = lane id; lanes never charged are
    /// absent only if beyond the maximum charged lane.
    pub lanes: Vec<LaneWork>,
    /// Hint that this phase's transfers may be overlapped with the *next*
    /// phase's compute (set for DMA-issued transfers; §VII future work).
    pub overlappable: bool,
    /// Number of injected faults (failures and delays) that fired while this
    /// phase was open. Zero on clean runs; lets memsim replay distinguish
    /// degraded traces.
    pub faults: u64,
}

impl PhaseRecord {
    /// Aggregate work over all lanes.
    pub fn total(&self) -> LaneWork {
        self.lanes
            .iter()
            .fold(LaneWork::default(), |a, l| a.merged(l))
    }

    /// Number of non-idle lanes.
    pub fn active_lanes(&self) -> usize {
        self.lanes.iter().filter(|l| !l.is_idle()).count()
    }

    /// The busiest lane's work (the critical path if the phase is
    /// compute-limited).
    pub fn max_lane(&self) -> LaneWork {
        self.lanes
            .iter()
            .copied()
            .max_by_key(|l| (l.compute_ops, l.noc_bytes()))
            .unwrap_or_default()
    }
}

/// The full trace of a run: an ordered list of phases.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhaseTrace {
    /// Phases in execution order.
    pub phases: Vec<PhaseRecord>,
}

impl PhaseTrace {
    /// Aggregate work over the whole run.
    pub fn total(&self) -> LaneWork {
        self.phases
            .iter()
            .fold(LaneWork::default(), |a, p| a.merged(&p.total()))
    }

    /// Maximum lane index charged anywhere, plus one.
    pub fn lane_count(&self) -> usize {
        self.phases.iter().map(|p| p.lanes.len()).max().unwrap_or(0)
    }

    /// Total injected faults recorded across all phases.
    pub fn faults(&self) -> u64 {
        self.phases.iter().map(|p| p.faults).sum()
    }

    /// Per-lane work summed across all phases (index = lane id).
    pub fn lane_totals(&self) -> Vec<LaneWork> {
        let mut totals = vec![LaneWork::default(); self.lane_count()];
        for p in &self.phases {
            for (i, l) in p.lanes.iter().enumerate() {
                totals[i] = totals[i].merged(l);
            }
        }
        totals
    }
}

/// Thread-safe trace recorder. One per [`crate::TwoLevel`].
///
/// Charging is coarse (one call per chunk transfer or buffer refill, not per
/// element), so a mutex is plenty; see DESIGN.md §5.1.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<RecorderInner>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    finished: Vec<PhaseRecord>,
    open: Option<PhaseRecord>,
    /// Wall-clock telemetry span covering the open phase. Detached: phase
    /// begin/end may happen on different frames (or threads) than the
    /// charges inside it.
    open_span: Option<tlmm_telemetry::Span>,
}

impl RecorderInner {
    fn open_mut(&mut self) -> &mut PhaseRecord {
        self.open.get_or_insert_with(|| {
            self.open_span = Some(tlmm_telemetry::Span::detached("anonymous"));
            tlmm_telemetry::flight::phase_event(true, "anonymous");
            PhaseRecord {
                name: "anonymous".to_string(),
                ..Default::default()
            }
        })
    }

    fn close_open(&mut self) {
        if let Some(p) = self.open.take() {
            tlmm_telemetry::flight::phase_event(false, &p.name);
            self.finished.push(p);
        }
        if let Some(span) = self.open_span.take() {
            span.finish();
        }
    }
}

impl TraceRecorder {
    /// Fresh recorder with no phases.
    pub fn new() -> Self {
        Self::default()
    }

    /// Close the open phase (if any) and start a new one.
    pub fn begin_phase(&self, name: &str) {
        let mut g = self.inner.lock();
        g.close_open();
        tlmm_telemetry::flight::phase_event(true, name);
        g.open = Some(PhaseRecord {
            name: name.to_string(),
            ..Default::default()
        });
        g.open_span = Some(tlmm_telemetry::Span::detached(name));
    }

    /// Mark the open phase as overlappable (DMA semantics).
    pub fn mark_overlappable(&self) {
        let mut g = self.inner.lock();
        g.open_mut().overlappable = true;
    }

    /// Record that an injected fault fired inside the open phase (an
    /// anonymous phase is opened if none is).
    pub fn record_fault(&self) {
        let mut g = self.inner.lock();
        g.open_mut().faults += 1;
    }

    /// Close the open phase.
    pub fn end_phase(&self) {
        self.inner.lock().close_open();
    }

    /// Charge work to the current thread's virtual lane in the open phase
    /// (an anonymous phase is opened if none is).
    pub fn charge(&self, f: impl FnOnce(&mut LaneWork)) {
        let lane = current_lane();
        let mut g = self.inner.lock();
        let p = g.open_mut();
        if p.lanes.len() <= lane {
            p.lanes.resize(lane + 1, LaneWork::default());
        }
        f(&mut p.lanes[lane]);
    }

    /// Snapshot the trace so far (closing nothing); the open phase is
    /// included as-is.
    pub fn trace(&self) -> PhaseTrace {
        let g = self.inner.lock();
        let mut phases = g.finished.clone();
        if let Some(p) = &g.open {
            phases.push(p.clone());
        }
        PhaseTrace { phases }
    }

    /// Take the trace and reset the recorder.
    pub fn take_trace(&self) -> PhaseTrace {
        let mut g = self.inner.lock();
        g.close_open();
        PhaseTrace {
            phases: std::mem::take(&mut g.finished),
        }
    }

    /// Drop everything recorded so far.
    pub fn reset(&self) {
        let mut g = self.inner.lock();
        g.finished.clear();
        if let Some(p) = g.open.take() {
            // Keep the flight recorder's phase events balanced even when
            // the phase record itself is discarded.
            tlmm_telemetry::flight::phase_event(false, &p.name);
        }
        if let Some(span) = g.open_span.take() {
            span.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_thread_local_and_nest() {
        assert_eq!(current_lane(), 0);
        with_lane(3, || {
            assert_eq!(current_lane(), 3);
            with_lane(5, || assert_eq!(current_lane(), 5));
            assert_eq!(current_lane(), 3);
        });
        assert_eq!(current_lane(), 0);
    }

    #[test]
    fn charges_land_in_named_phase_and_lane() {
        let r = TraceRecorder::new();
        r.begin_phase("p0");
        with_lane(2, || r.charge(|w| w.far_read_bytes += 100));
        r.begin_phase("p1");
        r.charge(|w| w.near_write_bytes += 7);
        r.end_phase();
        let t = r.take_trace();
        assert_eq!(t.phases.len(), 2);
        assert_eq!(t.phases[0].name, "p0");
        assert_eq!(t.phases[0].lanes.len(), 3);
        assert_eq!(t.phases[0].lanes[2].far_read_bytes, 100);
        assert_eq!(t.phases[1].lanes[0].near_write_bytes, 7);
    }

    #[test]
    fn anonymous_phase_catches_strays() {
        let r = TraceRecorder::new();
        r.charge(|w| w.compute_ops += 1);
        let t = r.take_trace();
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].name, "anonymous");
        assert_eq!(t.total().compute_ops, 1);
    }

    #[test]
    fn totals_and_max_lane() {
        let p = PhaseRecord {
            name: "x".into(),
            lanes: vec![
                LaneWork {
                    compute_ops: 5,
                    far_read_bytes: 10,
                    ..Default::default()
                },
                LaneWork {
                    compute_ops: 9,
                    ..Default::default()
                },
                LaneWork::default(),
            ],
            overlappable: false,
            faults: 0,
        };
        assert_eq!(p.total().compute_ops, 14);
        assert_eq!(p.total().far_bytes(), 10);
        assert_eq!(p.max_lane().compute_ops, 9);
        assert_eq!(p.active_lanes(), 2);
    }

    #[test]
    fn trace_lane_count_and_total() {
        let r = TraceRecorder::new();
        r.begin_phase("a");
        with_lane(7, || r.charge(|w| w.compute_ops += 1));
        r.begin_phase("b");
        with_lane(1, || r.charge(|w| w.far_write_bytes += 64));
        let t = r.trace();
        assert_eq!(t.lane_count(), 8);
        assert_eq!(t.total().compute_ops, 1);
        assert_eq!(t.total().far_bytes(), 64);
        // trace() is non-destructive.
        assert_eq!(r.trace().phases.len(), 2);
    }

    #[test]
    fn concurrent_charges_from_many_lanes() {
        let r = std::sync::Arc::new(TraceRecorder::new());
        r.begin_phase("par");
        std::thread::scope(|s| {
            for lane in 0..16 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    with_lane(lane, || {
                        for _ in 0..1000 {
                            r.charge(|w| w.compute_ops += 1);
                        }
                    })
                });
            }
        });
        let t = r.take_trace();
        assert_eq!(t.total().compute_ops, 16_000);
        assert_eq!(t.phases[0].active_lanes(), 16);
    }

    #[test]
    fn lanework_is_idle() {
        assert!(LaneWork::default().is_idle());
        assert!(!LaneWork {
            compute_ops: 1,
            ..Default::default()
        }
        .is_idle());
    }
}
