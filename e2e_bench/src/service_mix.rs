//! The `service_mix` job list and the service layer's own metrics.
//!
//! The recipe is the soak mix: all five engines (60/10/10/10/10), sizes
//! uniform in [2k, 40k], classes interactive/batch/background 20/50/30, a
//! deadline on a third of the interactive jobs, and arrivals spread
//! open-loop in virtual time at twice the slot pool's capacity. Proportions
//! and sizes are stratified rather than drawn independently, so every seed
//! offers the same amount of work in a different order.

use tlmm_model::{Engine, ScratchpadParams};
use tlmm_scratchpad::splitmix64;
use tlmm_service::{JobOutcome, JobRequest, Priority, RejectReason, ServiceConfig, ServiceReport};

use crate::metrics::Metric;

/// Offered load as a multiple of the slot pool's capacity.
const LOAD_X: u64 = 2;
const MIN_N: usize = 2_000;
pub const MAX_N: usize = 40_000;

pub fn config() -> ServiceConfig {
    ServiceConfig {
        params: ScratchpadParams::new(64, 4.0, 1 << 20, 64 << 10)
            .expect("service_mix scratchpad parameters are valid"),
        slots: 8,
        near_budget_bytes: 0,
        tenant_slot_cap: 6,
        queue_cap: [4, 128, 512],
        seed: 0x50AC_BEEF,
    }
}

/// Fisher–Yates shuffle driven by a splitmix64 stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `count` items: each of `parts` takes its share (in tenths) of `count`,
/// the first part takes the rounding remainder; then shuffled.
fn stratified<T: Copy>(count: usize, parts: &[(T, usize)], seed: u64) -> Vec<T> {
    let mut out = Vec::with_capacity(count);
    for &(item, tenths) in &parts[1..] {
        out.extend(std::iter::repeat_n(item, count * tenths / 10));
    }
    out.extend(std::iter::repeat_n(parts[0].0, count - out.len()));
    shuffle(&mut out, seed);
    out
}

pub fn build_jobs(count: usize, seed: u64, cfg: &ServiceConfig) -> Vec<JobRequest> {
    let h = |salt: u64, i: usize| splitmix64(splitmix64(seed ^ salt) ^ i as u64);
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| {
            let u = (h(1, i) >> 11) as f64 / (1u64 << 53) as f64;
            MIN_N + ((i as f64 + u) * (MAX_N - MIN_N) as f64 / count as f64) as usize
        })
        .collect();
    shuffle(&mut sizes, h(2, 0));
    let engines = stratified(
        count,
        &[
            (Engine::NmSort, 6),
            (Engine::NmSortDma, 1),
            (Engine::Baseline, 1),
            (Engine::Spms, 1),
            (Engine::SquareSort, 1),
        ],
        h(3, 0),
    );
    let classes = stratified(
        count,
        &[
            (Priority::Batch, 5),
            (Priority::Interactive, 2),
            (Priority::Background, 3),
        ],
        h(4, 0),
    );
    let est: Vec<u64> = (0..count)
        .map(|i| {
            tlmm_model::admission_estimate(&cfg.params, engines[i], sizes[i] as u64, 8, None)
                .est_units
        })
        .collect();
    // The pool serves `slots` units per virtual tick; spreading arrivals
    // over (total demand) / (slots × LOAD_X) ticks offers LOAD_X × capacity.
    let span = (est.iter().sum::<u64>() / (cfg.slots * LOAD_X)).max(count as u64);
    let gap = (span / count as u64).max(1);
    let mut interactive = 0;
    (0..count)
        .map(|i| {
            let arrival = i as u64 * gap;
            let deadline = (classes[i] == Priority::Interactive).then(|| {
                interactive += 1;
                arrival + 8 * est[i].div_ceil(cfg.slots).max(1)
            });
            JobRequest {
                tenant: h(5, i) % 8,
                priority: classes[i],
                engine: engines[i],
                n: sizes[i],
                seed: h(6, i),
                arrival,
                // A third of interactive jobs carry a deadline of 8× their
                // ideal full-pool service time.
                deadline: deadline.filter(|_| interactive % 3 == 0),
            }
        })
        .collect()
}

/// Indices of `take` jobs spread evenly over the job list sorted by size:
/// the replay set has the mix's size distribution for every seed.
pub fn replay_set(jobs: &[JobRequest], take: usize) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..jobs.len()).collect();
    by_size.sort_by_key(|&i| (jobs[i].n, i));
    let step = jobs.len() as f64 / take as f64;
    (0..take)
        .map(|k| by_size[((k as f64 + 0.5) * step) as usize])
        .collect()
}

/// Jobs shed at admission or timed out; failed jobs are counted as
/// failures elsewhere.
pub fn turned_away(outcomes: &[JobOutcome]) -> u64 {
    outcomes
        .iter()
        .filter(|o| matches!(o, JobOutcome::Shed(_) | JobOutcome::TimedOut { .. }))
        .count() as u64
}

/// The service layer's counts and virtual-time latencies. All zero when
/// the workload bypasses the service.
pub fn layer_metrics(run: Option<(&ServiceReport, &[JobOutcome])>) -> Vec<Metric> {
    let shed = |reason: RejectReason| {
        run.map_or(0, |(_, o)| {
            o.iter()
                .filter(|x| matches!(x, JobOutcome::Shed(r) if r.reason == reason))
                .count()
        }) as f64
    };
    let rep = run.map(|(r, _)| r);
    let sum = |f: fn(&tlmm_service::ClassStats) -> u64| {
        rep.map_or(0, |r| r.classes.iter().map(f).sum::<u64>()) as f64
    };
    let count = |name: &str, v: f64| Metric::exact(format!("service.{name}"), "count", v);
    let mut out = vec![
        count("completed", sum(|c| c.completed)),
        count("shed.infeasible", shed(RejectReason::Infeasible)),
        count("shed.near_saturated", shed(RejectReason::NearSaturated)),
        count("shed.queue_full", shed(RejectReason::QueueFull)),
        count("timed_out", sum(|c| c.timed_out)),
        count("failed", sum(|c| c.failed)),
        count("preempted", rep.map_or(0, |r| r.preemptions) as f64),
        count(
            "degraded_admissions",
            rep.map_or(0, |r| r.degraded_admissions) as f64,
        ),
        count("leak_failures", rep.map_or(0, |r| r.leak_failures) as f64),
    ];
    for p in [Priority::Interactive, Priority::Batch, Priority::Background] {
        let c = rep.map(|r| r.class(p));
        for (q, v) in [
            ("p50", c.map_or(0, |c| c.p50)),
            ("p99", c.map_or(0, |c| c.p99)),
        ] {
            out.push(Metric::exact(
                format!("service.{}.{q}_units", p.name()),
                "units",
                v as f64,
            ));
        }
    }
    out.push(Metric::exact(
        "service.makespan_units",
        "units",
        rep.map_or(0, |r| r.makespan) as f64,
    ));
    out.push(Metric::exact(
        "service.goodput_frac",
        "ratio",
        rep.map_or(0.0, ServiceReport::goodput_fraction),
    ));
    out
}
