//! The virtual-time job scheduler: admission, quotas, deadlines, overload.
//!
//! See the crate docs for the execution model. Everything in this module is
//! deterministic integer arithmetic over `(seed, p′, job list)` — no wall
//! clock, no host-thread races — so the emitted [`Decision`] log replays
//! bit for bit (pinned by `tests/replay.rs`).

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};
use tlmm_core::baseline::{baseline_sort, BaselineConfig};
use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_core::oblivious::{spms_sort, squaresort_sort, ObliviousConfig};
use tlmm_core::SortError;
use tlmm_model::admission::{shrink_to_fit, AdmissionEstimate};
use tlmm_model::params::ParamError;
use tlmm_model::{Engine, ScratchpadParams};
use tlmm_scratchpad::{splitmix64, CancelToken, ExecConfig, ExecConfigError, Executor, TwoLevel};
use tlmm_workloads::{generate, Workload};

/// Element size every service job sorts (the repo's workloads are u64).
const ELEM_BYTES: usize = 8;

/// Priority class of a job. Order matters: lower index = higher priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Latency-sensitive foreground queries: small queue, biggest slot
    /// share, preempts lower classes.
    Interactive,
    /// Throughput work with ordinary expectations.
    Batch,
    /// Scavenger work: runs on one slot, first to yield under pressure.
    Background,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Stable lowercase name (telemetry lanes, report keys).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        }
    }

    /// Index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }

    /// Transfer slots the class asks for at start (clamped to the pool).
    fn want_slots(self) -> u64 {
        match self {
            Priority::Interactive => 4,
            Priority::Batch => 2,
            Priority::Background => 1,
        }
    }
}

/// One job submitted to the service.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Tenant the job belongs to (quota key).
    pub tenant: u64,
    /// Priority class.
    pub priority: Priority,
    /// Which engine sorts it.
    pub engine: Engine,
    /// Elements to sort (random u64 from `seed`).
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
    /// Virtual-time arrival instant.
    pub arrival: u64,
    /// Absolute virtual-time deadline; `None` = none.
    pub deadline: Option<u64>,
}

/// Why a job was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// Could never fit the scratchpad, even fully degraded — resubmitting
    /// later cannot help.
    Infeasible,
    /// Near memory is saturated by running jobs and the class queue is
    /// full; retry after `retry_after`.
    NearSaturated,
    /// The class queue is at capacity; retry after `retry_after`.
    QueueFull,
}

/// Typed admission rejection: the overload answer is never a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Why.
    pub reason: RejectReason,
    /// Virtual-time units after which a retry has a chance (0 = never —
    /// only for [`RejectReason::Infeasible`]).
    pub retry_after: u64,
}

/// Final state of one job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// Ran to completion; output verified sorted.
    Done {
        /// Completion − arrival, in virtual units.
        latency: u64,
        /// Charged far+near bytes the job actually consumed.
        units: u64,
        /// Proactive chunk shrinks applied at admission.
        shrinks: u32,
    },
    /// Shed at admission with a typed rejection.
    Shed(Rejected),
    /// Deadline passed — in queue (`ran == false`) or mid-run via
    /// cooperative cancellation (`ran == true`, partial `units` charged).
    TimedOut {
        /// Did the job start (and get cancelled at a phase boundary)?
        ran: bool,
        /// Charged units before the cancellation point.
        units: u64,
    },
    /// The engine returned a typed error (never a panic).
    Failed {
        /// Display of the underlying [`SortError`].
        error: String,
    },
}

/// What the scheduler decided, when. Flat on purpose: the vendored serde
/// derives only plain structs and unit enums, and a flat row set diffs
/// cleanly in the golden replay file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Decision {
    /// Monotonic decision number.
    pub seq: u64,
    /// Virtual time of the decision.
    pub at: u64,
    /// What happened.
    pub kind: DecisionKind,
    /// Job id (submission index).
    pub job: u64,
    /// Tenant of the job.
    pub tenant: u64,
    /// Priority class of the job.
    pub class: Priority,
    /// Slots held after the decision (Start/Preempt), else 0.
    pub slots: u64,
    /// Kind-specific detail: charged units (Complete/TimeOut), retry_after
    /// (Shed), yielded slots (Preempt), admission shrinks (Start), else 0.
    pub note: u64,
}

/// Decision kinds (unit variants — see [`Decision`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecisionKind {
    /// Admitted and started immediately.
    Start,
    /// Admitted but queued (no slots / near budget right now).
    Queue,
    /// Shed with a typed rejection.
    Shed,
    /// A running job yielded slots to a higher class.
    Preempt,
    /// Ran to verified completion.
    Complete,
    /// Deadline passed (queued or cancelled mid-run).
    TimeOut,
    /// Engine returned a typed error.
    Fail,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Scratchpad geometry shared by all jobs.
    pub params: ScratchpadParams,
    /// Transfer-slot pool `p′` (Theorem 10) leased to running jobs.
    pub slots: u64,
    /// Near-memory bytes admission may reserve (≤ `params.scratchpad_bytes`;
    /// 0 = use the whole scratchpad).
    pub near_budget_bytes: u64,
    /// Max slots any single tenant may lease at once (0 = no cap).
    pub tenant_slot_cap: u64,
    /// Queue capacity per class, `[interactive, batch, background]`.
    /// Interactive is small on purpose: bounding its queue bounds its p99.
    pub queue_cap: [usize; 3],
    /// Seed for the deterministic executor's arbitration tie-breaks.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            params: ScratchpadParams::new(64, 4.0, 64 << 20, 4 << 20)
                .expect("default service params are valid"),
            slots: 8,
            near_budget_bytes: 0,
            tenant_slot_cap: 6,
            queue_cap: [8, 64, 256],
            seed: 0x5EED,
        }
    }
}

/// Errors configuring or constructing the service (jobs themselves never
/// error the service; they fail individually with typed outcomes).
#[derive(Debug)]
pub enum ServiceError {
    /// The scratchpad parameters failed validation.
    BadParams(ParamError),
    /// The executor configuration failed validation.
    BadExec(ExecConfigError),
    /// A service-level knob is out of range.
    BadConfig(&'static str),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::BadParams(e) => write!(f, "invalid scratchpad parameters: {e}"),
            ServiceError::BadExec(e) => write!(f, "invalid executor config: {e}"),
            ServiceError::BadConfig(r) => write!(f, "invalid service config: {r}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Exact percentile of a **sorted** latency slice: the `⌈q·len⌉`-th order
/// statistic. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Per-class outcome summary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name.
    pub class: String,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed with verified output.
    pub completed: u64,
    /// Jobs shed at admission (typed).
    pub shed: u64,
    /// Jobs timed out (queued or cancelled mid-run).
    pub timed_out: u64,
    /// Jobs that returned a typed engine error.
    pub failed: u64,
    /// Preemption events where this class yielded slots.
    pub preempted: u64,
    /// Latency percentiles over completed jobs, virtual units.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Worst completed-job latency.
    pub max_latency: u64,
    /// Charged units of completed jobs — the class's goodput numerator.
    pub goodput_units: u64,
}

/// End-of-run report: per-class stats, the decision log, and the global
/// robustness invariants the soak bench asserts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Stats per class, `[interactive, batch, background]`.
    pub classes: Vec<ClassStats>,
    /// Every scheduling decision, in order.
    pub decisions: Vec<Decision>,
    /// Virtual time of the last event.
    pub makespan: u64,
    /// Sum of charged units over completed jobs (goodput numerator).
    pub goodput_units: u64,
    /// Charged units including cancelled/failed work (throughput).
    pub total_units: u64,
    /// Jobs admitted degraded (proactive chunk shrink).
    pub degraded_admissions: u64,
    /// Post-job scratchpad leak checks performed.
    pub leak_checks: u64,
    /// Leak checks that found residual near bytes — must be 0.
    pub leak_failures: u64,
    /// Slot-yield events (matches the executor's preemption counter).
    pub preemptions: u64,
}

impl ServiceReport {
    /// Stats for `class`.
    pub fn class(&self, p: Priority) -> &ClassStats {
        &self.classes[p.index()]
    }

    /// Completed-job goodput as a fraction of total charged units.
    pub fn goodput_fraction(&self) -> f64 {
        if self.total_units == 0 {
            return 1.0;
        }
        self.goodput_units as f64 / self.total_units as f64
    }
}

// ---------------------------------------------------------------------------
// Scheduler internals
// ---------------------------------------------------------------------------

/// Event ranks at equal times: completions free resources before deadlines
/// fire, deadlines fire before new arrivals are admitted.
const RANK_COMPLETE: u8 = 0;
const RANK_DEADLINE: u8 = 1;
const RANK_ARRIVE: u8 = 2;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive(u64),
    Deadline(u64),
    Complete(u64),
}

#[derive(Debug)]
enum Pending {
    Done { units: u64, shrinks: u32 },
    TimedOut { units: u64 },
    Failed { units: u64, error: String },
}

#[derive(Debug)]
struct Running {
    tenant: u64,
    class: Priority,
    slots: u64,
    /// Units left at `last_t`, progressing at `slots` units per tick.
    remaining: u64,
    last_t: u64,
    reserved: u64,
    ev_key: (u64, u8, u64),
    pending: Pending,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Waiting,
    Queued,
    Running,
    Finished,
}

/// The job-queue front end. Construct with [`SortService::new`], feed it a
/// workload with [`SortService::run`], read the [`ServiceReport`].
pub struct SortService {
    cfg: ServiceConfig,
    near_budget: u64,
}

impl SortService {
    /// Validate the configuration and build a service.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        cfg.params.validate().map_err(ServiceError::BadParams)?;
        if cfg.slots == 0 {
            return Err(ServiceError::BadConfig("slots must be >= 1"));
        }
        let near_budget = if cfg.near_budget_bytes == 0 {
            cfg.params.scratchpad_bytes
        } else {
            cfg.near_budget_bytes
        };
        if near_budget > cfg.params.scratchpad_bytes {
            return Err(ServiceError::BadConfig(
                "near budget exceeds the scratchpad",
            ));
        }
        Ok(SortService { cfg, near_budget })
    }

    /// Run `jobs` through the service to completion and report. Outcomes
    /// are returned per job (same order as `jobs`) alongside the report.
    pub fn run(
        &self,
        jobs: &[JobRequest],
    ) -> Result<(ServiceReport, Vec<JobOutcome>), ServiceError> {
        let tl = TwoLevel::try_new(self.cfg.params).map_err(|e| match e {
            tlmm_scratchpad::SpError::BadParams(p) => ServiceError::BadParams(p),
            _ => ServiceError::BadConfig("scratchpad construction failed"),
        })?;
        let workers = (self.cfg.slots as usize).max(1);
        let exec = ExecConfig::deterministic(workers, workers, self.cfg.seed);
        let executor = tl.install_executor(exec).map_err(ServiceError::BadExec)?;
        if self.cfg.tenant_slot_cap > 0 {
            executor.set_tenant_slot_cap(Some(self.cfg.tenant_slot_cap as usize));
        }
        let mut st = Sched {
            cfg: &self.cfg,
            near_budget: self.near_budget,
            tl,
            executor,
            jobs,
            state: vec![JobState::Waiting; jobs.len()],
            outcomes: (0..jobs.len())
                .map(|_| JobOutcome::Failed {
                    error: "never scheduled".to_string(),
                })
                .collect(),
            events: BTreeMap::new(),
            seq: 0,
            running: BTreeMap::new(),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            reserved: 0,
            decisions: Vec::new(),
            decision_seq: 0,
            latencies: [Vec::new(), Vec::new(), Vec::new()],
            preempted: [0; 3],
            degraded_admissions: 0,
            leak_checks: 0,
            leak_failures: 0,
            total_units: 0,
            makespan: 0,
        };
        st.seed_arrivals();
        st.run_loop();
        Ok(st.finish())
    }
}

struct Sched<'a> {
    cfg: &'a ServiceConfig,
    near_budget: u64,
    tl: TwoLevel,
    executor: std::sync::Arc<Executor>,
    jobs: &'a [JobRequest],
    state: Vec<JobState>,
    outcomes: Vec<JobOutcome>,
    events: BTreeMap<(u64, u8, u64), Ev>,
    seq: u64,
    running: BTreeMap<u64, Running>,
    queues: [VecDeque<u64>; 3],
    reserved: u64,
    decisions: Vec<Decision>,
    decision_seq: u64,
    latencies: [Vec<u64>; 3],
    preempted: [u64; 3],
    degraded_admissions: u64,
    leak_checks: u64,
    leak_failures: u64,
    total_units: u64,
    makespan: u64,
}

impl<'a> Sched<'a> {
    fn seed_arrivals(&mut self) {
        for (i, j) in self.jobs.iter().enumerate() {
            let key = (j.arrival, RANK_ARRIVE, self.next_seq());
            self.events.insert(key, Ev::Arrive(i as u64));
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn decide(&mut self, at: u64, kind: DecisionKind, job: u64, slots: u64, note: u64) {
        let j = &self.jobs[job as usize];
        self.decision_seq += 1;
        self.decisions.push(Decision {
            seq: self.decision_seq,
            at,
            kind,
            job,
            tenant: j.tenant,
            class: j.priority,
            slots,
            note,
        });
    }

    fn run_loop(&mut self) {
        while let Some((key, ev)) = self.events.pop_first() {
            let t = key.0;
            self.makespan = self.makespan.max(t);
            match ev {
                Ev::Arrive(id) => self.on_arrive(id, t),
                Ev::Deadline(id) => self.on_deadline(id, t),
                Ev::Complete(id) => self.on_complete(id, t),
            }
        }
    }

    // ---- admission ----------------------------------------------------

    fn on_arrive(&mut self, id: u64, t: u64) {
        let j = &self.jobs[id as usize];
        if let Some(dl) = j.deadline {
            let key = (dl.max(t), RANK_DEADLINE, self.next_seq());
            self.events.insert(key, Ev::Deadline(id));
        }
        // Idle-machine feasibility: a job that cannot fit the whole budget
        // even fully degraded is shed immediately — queueing cannot help.
        let j = &self.jobs[id as usize];
        if shrink_to_fit(
            &self.cfg.params,
            j.engine,
            j.n as u64,
            ELEM_BYTES,
            None,
            self.near_budget,
        )
        .is_none()
        {
            self.shed(id, t, RejectReason::Infeasible, 0);
            return;
        }
        if self.try_start(id, t) {
            return;
        }
        // Queue or shed.
        let class = self.jobs[id as usize].priority;
        let qi = class.index();
        if self.queues[qi].len() < self.cfg.queue_cap[qi] {
            self.queues[qi].push_back(id);
            self.state[id as usize] = JobState::Queued;
            self.decide(t, DecisionKind::Queue, id, 0, 0);
        } else {
            let retry = self.earliest_completion().map_or(1, |c| (c - t).max(1));
            let reason = if self.reserved > 0 {
                RejectReason::NearSaturated
            } else {
                RejectReason::QueueFull
            };
            self.shed(id, t, reason, retry);
        }
    }

    fn shed(&mut self, id: u64, t: u64, reason: RejectReason, retry_after: u64) {
        let class = self.jobs[id as usize].priority;
        tlmm_telemetry::qos::count_shed(class.name());
        tlmm_telemetry::qos::tenant_counter(self.jobs[id as usize].tenant, "shed").incr();
        self.outcomes[id as usize] = JobOutcome::Shed(Rejected {
            reason,
            retry_after,
        });
        self.state[id as usize] = JobState::Finished;
        self.decide(t, DecisionKind::Shed, id, 0, retry_after);
    }

    fn earliest_completion(&self) -> Option<u64> {
        self.events
            .keys()
            .filter(|(_, rank, _)| *rank == RANK_COMPLETE)
            .map(|(t, _, _)| *t)
            .min()
    }

    // ---- starting jobs -------------------------------------------------

    /// Try to start `id` at `t`: reserve near memory (possibly degraded),
    /// lease slots (preempting lower classes for interactive work), and
    /// physically execute. Returns false when resources are unavailable.
    fn try_start(&mut self, id: u64, t: u64) -> bool {
        let j = &self.jobs[id as usize];
        let near_free = self.near_budget - self.reserved;
        let Some(est) = shrink_to_fit(
            &self.cfg.params,
            j.engine,
            j.n as u64,
            ELEM_BYTES,
            None,
            near_free,
        ) else {
            return false;
        };
        let class = j.priority;
        let tenant = j.tenant;
        let want = class.want_slots().min(self.cfg.slots);
        let mut grant = self.executor.try_lease(tenant, want as usize) as u64;
        if grant < want && class == Priority::Interactive {
            self.preempt_lower(t, want - grant);
            grant += self.executor.try_lease(tenant, (want - grant) as usize) as u64;
        }
        if grant == 0 {
            return false;
        }
        self.start(id, t, est, grant);
        true
    }

    /// Demand `needed` slots from running lower-class jobs: background
    /// first, then batch, youngest victims first — each yields down to one
    /// slot at this (virtual-time) phase boundary.
    fn preempt_lower(&mut self, t: u64, mut needed: u64) {
        let mut victims: Vec<u64> = self
            .running
            .iter()
            .filter(|(_, r)| r.class != Priority::Interactive && r.slots > 1)
            .map(|(id, _)| *id)
            .collect();
        victims.sort_by_key(|id| {
            let r = &self.running[id];
            (std::cmp::Reverse(r.class.index()), std::cmp::Reverse(*id))
        });
        for vid in victims {
            if needed == 0 {
                break;
            }
            let (tenant, class, yielded, new_slots) = {
                let r = self.running.get_mut(&vid).expect("victim is running");
                let yielded = (r.slots - 1).min(needed);
                // Bank progress at the old rate before the rate changes.
                let done = (t - r.last_t).saturating_mul(r.slots);
                r.remaining = r.remaining.saturating_sub(done);
                r.last_t = t;
                r.slots -= yielded;
                (r.tenant, r.class, yielded, r.slots)
            };
            self.executor.release_lease(tenant, yielded as usize);
            self.executor.note_preemption(tenant, yielded as usize);
            tlmm_telemetry::qos::count_preempt(class.name());
            self.preempted[class.index()] += yielded.min(1);
            self.reschedule_completion(vid, t);
            self.decide(t, DecisionKind::Preempt, vid, new_slots, yielded);
            needed -= yielded;
        }
    }

    fn reschedule_completion(&mut self, id: u64, t: u64) {
        let (old_key, due) = {
            let r = &self.running[&id];
            (r.ev_key, t + (r.remaining.div_ceil(r.slots)).max(1))
        };
        self.events.remove(&old_key);
        let key = (due, RANK_COMPLETE, self.next_seq());
        self.events.insert(key, Ev::Complete(id));
        self.running.get_mut(&id).expect("running").ev_key = key;
    }

    /// Commit a start: reserve, execute physically, schedule completion.
    fn start(&mut self, id: u64, t: u64, est: AdmissionEstimate, slots: u64) {
        let j = &self.jobs[id as usize];
        self.reserved += est.near_peak_bytes;
        if est.shrinks > 0 {
            self.degraded_admissions += 1;
            tlmm_telemetry::counter!("service.degraded_admissions").incr();
        }
        tlmm_telemetry::qos::tenant_counter(j.tenant, "started").incr();
        self.state[id as usize] = JobState::Running;
        self.decide(t, DecisionKind::Start, id, slots, est.shrinks as u64);

        let (result, units) = self.execute(id, t, slots, est.chunk_elems);
        self.total_units += units;
        let (pending, due) = match result {
            Ok(()) => (
                Pending::Done {
                    units,
                    shrinks: est.shrinks,
                },
                t + units.div_ceil(slots).max(1),
            ),
            Err(SortError::Canceled) => {
                // The unit budget tripped at a phase boundary: the job ends
                // at its deadline, partial charges kept.
                let dl = self.jobs[id as usize].deadline.unwrap_or(t);
                (Pending::TimedOut { units }, dl.max(t + 1))
            }
            Err(e) => (
                Pending::Failed {
                    units,
                    error: e.to_string(),
                },
                t + units.div_ceil(slots).max(1),
            ),
        };
        let key = (due, RANK_COMPLETE, self.next_seq());
        self.events.insert(key, Ev::Complete(id));
        self.running.insert(
            id,
            Running {
                tenant: self.jobs[id as usize].tenant,
                class: self.jobs[id as usize].priority,
                slots,
                remaining: units,
                last_t: t,
                reserved: est.near_peak_bytes,
                ev_key: key,
                pending,
            },
        );
    }

    /// Physically execute job `id` on the shared scratchpad. Returns the
    /// engine result and the charged far+near bytes (the ledger delta).
    fn execute(
        &mut self,
        id: u64,
        t: u64,
        slots: u64,
        chunk_elems: usize,
    ) -> (Result<(), SortError>, u64) {
        let j = &self.jobs[id as usize];
        let before = self.tl.ledger().snapshot();
        let base_units = before.far_bytes + before.near_bytes;
        if let Some(dl) = j.deadline {
            // The job may charge at most slots × (deadline − now) units
            // before its deadline; the token trips the first phase boundary
            // past that budget.
            let budget = dl.saturating_sub(t).saturating_mul(slots);
            self.tl
                .install_cancel(CancelToken::with_unit_budget(budget));
        }
        let keys = generate(Workload::UniformU64, j.n, j.seed);
        let fp = Fingerprint::of(&keys);
        let input = self.tl.far_from_vec(keys);
        let check = |out: &[u64]| verify(out, fp);
        let lanes = slots as usize;
        let result: Result<(), SortError> = match j.engine {
            Engine::NmSort | Engine::NmSortDma => {
                let cfg = NmSortConfig {
                    sim_lanes: lanes,
                    chunk_elems: Some(chunk_elems.max(2)),
                    threads: 1,
                    use_dma: j.engine == Engine::NmSortDma,
                    ..Default::default()
                };
                nmsort(&self.tl, input, &cfg).and_then(|r| check(r.output.as_slice_uncharged()))
            }
            Engine::Baseline => {
                let cfg = BaselineConfig {
                    sim_lanes: lanes,
                    threads: 1,
                    ..Default::default()
                };
                baseline_sort(&self.tl, input, &cfg)
                    .and_then(|r| check(r.output.as_slice_uncharged()))
            }
            Engine::Spms | Engine::SquareSort => {
                let cfg = ObliviousConfig {
                    lanes,
                    threads: 1,
                    ..Default::default()
                };
                let run = if j.engine == Engine::Spms {
                    spms_sort(&self.tl, input, &cfg)
                } else {
                    squaresort_sort(&self.tl, input, &cfg)
                };
                run.and_then(|(out, _)| check(out.as_slice_uncharged()))
            }
        };
        self.tl.clear_cancel();
        // The arena must be reusable by the next job no matter how this
        // one ended — cancellation unwinds through NearArray RAII.
        self.leak_checks += 1;
        if self.tl.near_used_bytes() != 0 {
            self.leak_failures += 1;
            tlmm_telemetry::counter!("service.leak_failures").incr();
        }
        let after = self.tl.ledger().snapshot();
        let units = (after.far_bytes + after.near_bytes).saturating_sub(base_units);
        (result, units)
    }

    // ---- deadlines and completions ------------------------------------

    fn on_deadline(&mut self, id: u64, t: u64) {
        if self.state[id as usize] != JobState::Queued {
            // Running jobs are bounded by their cancel token; finished or
            // shed jobs need nothing.
            return;
        }
        let qi = self.jobs[id as usize].priority.index();
        self.queues[qi].retain(|&q| q != id);
        self.state[id as usize] = JobState::Finished;
        self.outcomes[id as usize] = JobOutcome::TimedOut {
            ran: false,
            units: 0,
        };
        self.decide(t, DecisionKind::TimeOut, id, 0, 0);
    }

    fn on_complete(&mut self, id: u64, t: u64) {
        let r = self.running.remove(&id).expect("completing job runs");
        self.executor.release_lease(r.tenant, r.slots as usize);
        self.reserved -= r.reserved;
        self.state[id as usize] = JobState::Finished;
        let j = &self.jobs[id as usize];
        let latency = t - j.arrival;
        match r.pending {
            Pending::Done { units, shrinks } => {
                tlmm_telemetry::qos::class_latency(j.priority.name()).record(latency);
                tlmm_telemetry::qos::tenant_counter(j.tenant, "completed").incr();
                self.latencies[j.priority.index()].push(latency);
                self.outcomes[id as usize] = JobOutcome::Done {
                    latency,
                    units,
                    shrinks,
                };
                self.decide(t, DecisionKind::Complete, id, 0, units);
            }
            Pending::TimedOut { units } => {
                self.outcomes[id as usize] = JobOutcome::TimedOut { ran: true, units };
                self.decide(t, DecisionKind::TimeOut, id, 0, units);
            }
            Pending::Failed { units, error } => {
                self.outcomes[id as usize] = JobOutcome::Failed { error };
                self.decide(t, DecisionKind::Fail, id, 0, units);
            }
        }
        self.drain_queues(t);
    }

    /// Start queued work freed-up resources now allow, highest class
    /// first, FIFO within a class (head-of-line: a too-big head blocks its
    /// class — deliberate, so admission order within a class is preserved).
    fn drain_queues(&mut self, t: u64) {
        for class in Priority::ALL {
            let qi = class.index();
            while let Some(&head) = self.queues[qi].front() {
                if !self.try_start(head, t) {
                    break;
                }
                self.queues[qi].pop_front();
            }
        }
    }

    // ---- reporting -----------------------------------------------------

    fn finish(mut self) -> (ServiceReport, Vec<JobOutcome>) {
        let mut classes = Vec::with_capacity(3);
        for class in Priority::ALL {
            let qi = class.index();
            let mut lats = std::mem::take(&mut self.latencies[qi]);
            lats.sort_unstable();
            let mut cs = ClassStats {
                class: class.name().to_string(),
                p50: percentile(&lats, 0.50),
                p95: percentile(&lats, 0.95),
                p99: percentile(&lats, 0.99),
                max_latency: lats.last().copied().unwrap_or(0),
                preempted: self.preempted[qi],
                ..Default::default()
            };
            for (i, j) in self.jobs.iter().enumerate() {
                if j.priority != class {
                    continue;
                }
                cs.submitted += 1;
                match &self.outcomes[i] {
                    JobOutcome::Done { units, .. } => {
                        cs.completed += 1;
                        cs.goodput_units += units;
                    }
                    JobOutcome::Shed(_) => cs.shed += 1,
                    JobOutcome::TimedOut { .. } => cs.timed_out += 1,
                    JobOutcome::Failed { .. } => cs.failed += 1,
                }
            }
            classes.push(cs);
        }
        let goodput_units = classes.iter().map(|c| c.goodput_units).sum();
        let report = ServiceReport {
            classes,
            decisions: self.decisions,
            makespan: self.makespan,
            goodput_units,
            total_units: self.total_units,
            degraded_admissions: self.degraded_admissions,
            leak_checks: self.leak_checks,
            leak_failures: self.leak_failures,
            preemptions: self.executor.preemptions(),
        };
        (report, self.outcomes)
    }
}

/// Order-independent fingerprint of a multiset of keys: length, wrapping
/// sum and wrapping sum of mixed keys. A dropped, duplicated or altered key
/// changes it (the mixed sum with overwhelming probability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    len: usize,
    sum: u64,
    mixed: u64,
}

impl Fingerprint {
    fn of(keys: &[u64]) -> Self {
        keys.iter().fold(
            Fingerprint {
                len: keys.len(),
                sum: 0,
                mixed: 0,
            },
            |f, &x| Fingerprint {
                sum: f.sum.wrapping_add(x),
                mixed: f.mixed.wrapping_add(splitmix64(x)),
                ..f
            },
        )
    }
}

/// A job's output must be in order and a permutation of its input
/// (`input` is the input's fingerprint). Host-side only: charges nothing.
fn verify(out: &[u64], input: Fingerprint) -> Result<(), SortError> {
    if !out.windows(2).all(|w| w[0] <= w[1]) {
        Err(SortError::BadConfig {
            reason: "service job produced unsorted output",
        })
    } else if Fingerprint::of(out) != input {
        Err(SortError::BadConfig {
            reason: "service job output is not a permutation of its input",
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_rejects_reordered_dropped_and_duplicated_keys() {
        let input = [5u64, 1, 9, 3, 3];
        let fp = Fingerprint::of(&input);
        assert!(verify(&[1, 3, 3, 5, 9], fp).is_ok());
        assert!(verify(&[1, 3, 5, 3, 9], fp).is_err(), "unsorted");
        assert!(verify(&[1, 3, 5, 9], fp).is_err(), "dropped key");
        assert!(verify(&[1, 3, 3, 5, 9, 9], fp).is_err(), "duplicated key");
        assert!(
            verify(&[1, 3, 5, 5, 9], fp).is_err(),
            "key replaced by a duplicate"
        );
        assert!(verify(&[1, 3, 3, 5, 8], fp).is_err(), "altered key");
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            params: ScratchpadParams::new(64, 4.0, 1 << 20, 64 << 10).unwrap(),
            slots: 8,
            near_budget_bytes: 0,
            tenant_slot_cap: 6,
            queue_cap: [4, 16, 64],
            seed: 7,
        }
    }

    fn job(
        tenant: u64,
        priority: Priority,
        engine: Engine,
        n: usize,
        arrival: u64,
        deadline: Option<u64>,
    ) -> JobRequest {
        JobRequest {
            tenant,
            priority,
            engine,
            n,
            seed: tenant * 31 + n as u64,
            arrival,
            deadline,
        }
    }

    #[test]
    fn every_engine_completes_and_leaves_no_leak() {
        let svc = SortService::new(small_cfg()).unwrap();
        let jobs: Vec<JobRequest> = Engine::ALL
            .iter()
            .enumerate()
            .map(|(i, &e)| job(i as u64, Priority::Batch, e, 5_000, i as u64 * 10, None))
            .collect();
        let (rep, outcomes) = svc.run(&jobs).unwrap();
        assert_eq!(rep.leak_failures, 0);
        assert_eq!(rep.leak_checks, Engine::ALL.len() as u64);
        for o in &outcomes {
            assert!(matches!(o, JobOutcome::Done { .. }), "{o:?}");
        }
        assert_eq!(rep.class(Priority::Batch).completed, 5);
        assert!(rep.goodput_units > 0);
        assert_eq!(rep.goodput_units, rep.total_units);
    }

    #[test]
    fn queued_deadline_times_out_without_running() {
        let svc = SortService::new(ServiceConfig {
            slots: 1,
            ..small_cfg()
        })
        .unwrap();
        // Job 0 hogs the single slot; job 1's deadline passes while queued.
        let jobs = vec![
            job(0, Priority::Batch, Engine::NmSort, 50_000, 0, None),
            job(1, Priority::Batch, Engine::NmSort, 50_000, 1, Some(5)),
        ];
        let (rep, outcomes) = svc.run(&jobs).unwrap();
        assert!(matches!(
            outcomes[1],
            JobOutcome::TimedOut {
                ran: false,
                units: 0
            }
        ));
        assert!(matches!(outcomes[0], JobOutcome::Done { .. }));
        assert_eq!(rep.class(Priority::Batch).timed_out, 1);
        assert_eq!(rep.leak_failures, 0);
    }

    #[test]
    fn running_deadline_cancels_at_a_phase_boundary() {
        let svc = SortService::new(small_cfg()).unwrap();
        // Deadline so tight the unit budget trips mid-run; NMsort checks
        // at every Phase-1 chunk boundary.
        let jobs = vec![job(0, Priority::Batch, Engine::NmSort, 200_000, 0, Some(2))];
        let (rep, outcomes) = svc.run(&jobs).unwrap();
        match &outcomes[0] {
            JobOutcome::TimedOut { ran: true, units } => {
                assert!(*units > 0, "partial work stays charged");
            }
            other => panic!("expected mid-run timeout, got {other:?}"),
        }
        assert_eq!(
            rep.leak_failures, 0,
            "cancellation must not leak near memory"
        );
        assert_eq!(rep.class(Priority::Batch).timed_out, 1);
    }

    #[test]
    fn overload_sheds_typed_with_retry_after() {
        let svc = SortService::new(ServiceConfig {
            slots: 1,
            queue_cap: [0, 0, 0],
            ..small_cfg()
        })
        .unwrap();
        let jobs = vec![
            job(0, Priority::Batch, Engine::NmSort, 50_000, 0, None),
            job(1, Priority::Batch, Engine::NmSort, 50_000, 1, None),
        ];
        let (rep, outcomes) = svc.run(&jobs).unwrap();
        match &outcomes[1] {
            JobOutcome::Shed(r) => {
                assert!(r.retry_after > 0, "shed must carry a retry hint");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(rep.class(Priority::Batch).shed, 1);
    }

    #[test]
    fn infeasible_jobs_are_refused_not_oomed() {
        let svc = SortService::new(ServiceConfig {
            near_budget_bytes: 4 << 10,
            ..small_cfg()
        })
        .unwrap();
        // SPMS on 100k elements wants far more than 4 KiB of near budget
        // and has no shrink ladder.
        let jobs = vec![job(0, Priority::Batch, Engine::Spms, 100_000, 0, None)];
        let (_rep, outcomes) = svc.run(&jobs).unwrap();
        match &outcomes[0] {
            JobOutcome::Shed(r) => assert_eq!(r.reason, RejectReason::Infeasible),
            other => panic!("expected infeasible shed, got {other:?}"),
        }
    }

    #[test]
    fn saturated_near_budget_degrades_admission() {
        // Budget below NMsort's clean working set: admission must apply
        // the chunk-shrink ladder proactively, and the job must still
        // complete with verified output.
        let params = ScratchpadParams::new(64, 4.0, 1 << 20, 64 << 10).unwrap();
        let clean = tlmm_model::admission::estimate(&params, Engine::NmSort, 60_000, 8, None);
        let svc = SortService::new(ServiceConfig {
            params,
            near_budget_bytes: clean.near_peak_bytes / 2,
            ..small_cfg()
        })
        .unwrap();
        let jobs = vec![job(0, Priority::Batch, Engine::NmSort, 60_000, 0, None)];
        let (rep, outcomes) = svc.run(&jobs).unwrap();
        match &outcomes[0] {
            JobOutcome::Done { shrinks, .. } => assert!(*shrinks > 0),
            other => panic!("expected degraded completion, got {other:?}"),
        }
        assert_eq!(rep.degraded_admissions, 1);
        assert_eq!(rep.leak_failures, 0);
    }

    #[test]
    fn interactive_arrival_preempts_background_slots() {
        let svc = SortService::new(ServiceConfig {
            slots: 4,
            ..small_cfg()
        })
        .unwrap();
        // Two background jobs on separate tenants lease 1 slot each; two
        // batch jobs take 2+1; then an interactive job arrives wanting 4.
        let jobs = vec![
            job(0, Priority::Batch, Engine::NmSort, 80_000, 0, None),
            job(1, Priority::Batch, Engine::NmSort, 80_000, 0, None),
            job(2, Priority::Interactive, Engine::NmSort, 10_000, 1, None),
        ];
        let (rep, outcomes) = svc.run(&jobs).unwrap();
        assert!(
            rep.preemptions > 0,
            "interactive pressure must preempt lower-class slots: {:?}",
            rep.decisions
        );
        assert!(rep
            .decisions
            .iter()
            .any(|d| d.kind == DecisionKind::Preempt));
        for o in &outcomes {
            assert!(matches!(o, JobOutcome::Done { .. }), "{o:?}");
        }
    }

    #[test]
    fn decisions_replay_bit_for_bit() {
        let cfg = small_cfg();
        let mk = || {
            let jobs: Vec<JobRequest> = (0..12)
                .map(|i| {
                    let class = Priority::ALL[i % 3];
                    let engine = Engine::ALL[i % Engine::ALL.len()];
                    job(
                        (i % 4) as u64,
                        class,
                        engine,
                        4_000 + i * 700,
                        (i as u64) * 3,
                        if i % 4 == 0 {
                            Some(i as u64 * 3 + 9_000_000)
                        } else {
                            None
                        },
                    )
                })
                .collect();
            let svc = SortService::new(cfg.clone()).unwrap();
            svc.run(&jobs).unwrap().0
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.goodput_units, b.goodput_units);
    }

    #[test]
    fn percentile_is_exact_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn bad_configs_are_typed() {
        assert!(matches!(
            SortService::new(ServiceConfig {
                slots: 0,
                ..small_cfg()
            }),
            Err(ServiceError::BadConfig(_))
        ));
        assert!(matches!(
            SortService::new(ServiceConfig {
                near_budget_bytes: u64::MAX,
                ..small_cfg()
            }),
            Err(ServiceError::BadConfig(_))
        ));
    }
}
