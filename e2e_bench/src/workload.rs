//! Workload set-up and the two runs of a workload: the end-to-end run,
//! with the benchmark's own spans off, and the traced run, which attributes
//! host time to layers.

use std::time::Instant;

use tlmm_core::pool::host_threads;
use tlmm_memsim::simulate_flow;
use tlmm_model::{CostSnapshot, Engine, ScratchpadParams};
use tlmm_scratchpad::TwoLevel;
use tlmm_service::{JobOutcome, JobRequest, ServiceReport, SortService};
use tlmm_workloads::{generate, Workload};

use crate::bed::{Bed, Job, Pass, Tracing};
use crate::engine::{machine, Call};
use crate::layers::{probes, time_median, Phases, SpanAgg, NMSORT_PHASES};
use crate::metrics::{summarize, Metric};
use crate::service_mix;
use crate::verify::{Checker, Fingerprint};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Uniform,
    Presorted,
    Service,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Uniform, Kind::Presorted, Kind::Service];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Uniform => "uniform_10m",
            Kind::Presorted => "presorted_10m",
            Kind::Service => "service_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Small inputs and scaled-down memories: the self-check.
    pub smoke: bool,
    /// Self-check: corrupt the first timed output.
    pub corrupt: bool,
}

pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the table only: they do not apply to every
    /// workload.
    pub extra: Vec<Metric>,
    /// Span aggregate of a traced run.
    pub spans: Option<SpanAgg>,
}

/// Prefix of the sort input each engine sorts once during warm-up.
const WARM_KEYS: usize = 1 << 20;

fn sort_shape(kind: Kind, smoke: bool) -> (Workload, usize, ScratchpadParams) {
    let workload = match kind {
        Kind::Presorted => Workload::NearlySorted(0.01),
        _ => Workload::UniformU64,
    };
    // The smoke shape keeps three Phase-1 chunks at 300k keys.
    let (n, m, z) = if smoke {
        (300_000, 2 << 20, 128 << 10)
    } else {
        (10_000_000, 64 << 20, 4 << 20)
    };
    let params = ScratchpadParams::new(64, 8.0, m, z).expect("sort workload parameters are valid");
    (workload, n, params)
}

/// Bytes of the largest array the workload sorts.
pub fn largest_array_bytes(kind: Kind) -> u64 {
    match kind {
        Kind::Service => 8 * service_mix::MAX_N as u64,
        _ => 8 * sort_shape(kind, false).1 as u64,
    }
}

/// `(jobs offered, jobs replayed directly through each engine)`.
fn service_shape(smoke: bool) -> (usize, usize) {
    if smoke {
        (120, 24)
    } else {
        (1200, 240)
    }
}

/// The timed calls of every repetition, in their base order.
fn calls() -> [Call; 5] {
    [
        Call::Std,
        Call::Sort(Engine::NmSort, 1),
        Call::Sort(Engine::NmSort, host_threads()),
        Call::Sort(Engine::NmSortDma, 1),
        Call::Sort(Engine::Baseline, 1),
    ]
}
const STD: usize = 0;
const NM1: usize = 1;
const NMX: usize = 2;
const DMA: usize = 3;
const BASE: usize = 4;

/// The gated calls of one end-to-end repetition, in their base order,
/// rotated each repetition. Each runs between two `sort_unstable` passes
/// over the same inputs, and the gate takes its ratio to their mean: the
/// shared host's speed moves by up to a quarter between runs and within
/// seconds, and a call and its neighbours see the same host. Each gated
/// call runs twice. NMsort at t=`nproc` follows in every other repetition,
/// and on `service_mix` the service runs, each between two
/// `sort_unstable` passes over the keys of its whole job list. A
/// repetition is short (about 9 s at 10M keys), so little of the run's time
/// is left unused when the next one would not fit.
const GATED: [usize; 6] = [NM1, BASE, DMA, NM1, BASE, DMA];

/// `SortService::run` calls per repetition (`service_mix` only).
const SERVICE_RUNS: usize = 2;

struct Service {
    svc: SortService,
    jobs: Vec<JobRequest>,
}

impl Service {
    /// One `SortService::run` over the whole job list. Returns the report,
    /// the outcomes and the host wall seconds of the call.
    fn run(
        &self,
        span: Option<&str>,
        ck: &mut Checker,
    ) -> Option<(ServiceReport, Vec<JobOutcome>, f64)> {
        let t0 = Instant::now();
        let result = {
            let _span = span.map(tlmm_telemetry::enter);
            self.svc.run(&self.jobs)
        };
        let secs = t0.elapsed().as_secs_f64();
        match result {
            Err(e) => {
                ck.op_failed("service run", format!("{e:?}"));
                None
            }
            Ok((rep, outcomes)) => {
                ck.attempted += self.jobs.len() as u64;
                for o in &outcomes {
                    if let JobOutcome::Failed { error } = o {
                        ck.failed += 1;
                        eprintln!("FAILED service job: {error}");
                    }
                }
                ck.invariant(rep.leak_failures == 0, || {
                    format!("service leaked near memory {} times", rep.leak_failures)
                });
                Some((rep, outcomes, secs))
            }
        }
    }

    /// `sort_unstable` over the keys of every job of the list, generated as
    /// the service generates them; each output is checked. Returns the host
    /// wall seconds of the sorts alone.
    fn std_pass(&self, ck: &mut Checker) -> f64 {
        let mut secs = 0.0;
        for j in &self.jobs {
            let mut v = generate(Workload::UniformU64, j.n, j.seed);
            let fp = Fingerprint::of(&v);
            let t0 = Instant::now();
            v.sort_unstable();
            secs += t0.elapsed().as_secs_f64();
            ck.output("service std_sort", &mut v, fp);
        }
        secs
    }
}

struct Prepared {
    bed: Bed,
    service: Option<Service>,
}

/// Wall seconds of every set-up of a run and of the `generate` calls in
/// them. Every set-up must generate the same inputs.
#[derive(Default)]
struct Setups {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    first_inputs: Option<Vec<Fingerprint>>,
}

impl Setups {
    /// Input generation, memory and service construction, and warm-up.
    fn run(&mut self, kind: Kind, o: &Opts, ck: &mut Checker) -> Prepared {
        let t0 = Instant::now();
        let (bed, service) = match kind {
            Kind::Uniform | Kind::Presorted => {
                let (workload, n, params) = sort_shape(kind, o.smoke);
                let g0 = Instant::now();
                let input = generate(workload, n, o.seed);
                self.generate_s.push(g0.elapsed().as_secs_f64());
                let bed = Bed {
                    tl: TwoLevel::new(params),
                    jobs: vec![Job::new(input)],
                };
                (bed, None)
            }
            Kind::Service => {
                let (offered, replayed) = service_shape(o.smoke);
                let cfg = service_mix::config();
                let jobs = service_mix::build_jobs(offered, o.seed, &cfg);
                let g0 = Instant::now();
                let inputs: Vec<Vec<u64>> = service_mix::replay_set(&jobs, replayed)
                    .into_iter()
                    .map(|i| generate(Workload::UniformU64, jobs[i].n, jobs[i].seed))
                    .collect();
                self.generate_s.push(g0.elapsed().as_secs_f64());
                let bed = Bed {
                    tl: TwoLevel::new(cfg.params),
                    jobs: inputs.into_iter().map(Job::new).collect(),
                };
                let svc = SortService::new(cfg).expect("service_mix configuration is valid");
                (bed, Some(Service { svc, jobs }))
            }
        };
        warm_up(&bed, service.as_ref(), ck);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        let fps: Vec<_> = bed.jobs.iter().map(|j| j.fp).collect();
        ck.same(&mut self.first_inputs, fps, "generated inputs");
        Prepared { bed, service }
    }

    /// One more set-up, dropped at once. Taken after every repetition, so
    /// that `setup_s` samples the host over the whole run, as the timed
    /// calls do, and not only at its start.
    fn again(&mut self, kind: Kind, o: &Opts, ck: &mut Checker) {
        drop(self.run(kind, o, ck));
    }
}

/// Run every call once on a small slice of the workload, and the service
/// on the head of its job list, so lazy set-up is done before timing.
fn warm_up(bed: &Bed, service: Option<&Service>, ck: &mut Checker) {
    let jobs = match service {
        Some(s) => {
            let head = Service {
                svc: SortService::new(service_mix::config()).expect("valid configuration"),
                jobs: s.jobs[..s.jobs.len().min(60)].to_vec(),
            };
            head.run(None, ck);
            bed.jobs
                .iter()
                .take(4)
                .map(|j| Job::new(j.input.clone()))
                .collect()
        }
        None => vec![Job::new(
            bed.jobs[0].input[..bed.jobs[0].input.len().min(WARM_KEYS)].to_vec(),
        )],
    };
    let warm = Bed {
        tl: bed.tl.clone(),
        jobs,
    };
    for call in calls() {
        warm.pass(call, None, ck);
    }
}

/// Keep repeating while at least half of the next repetition, as long as
/// the last one, still fits in `budget_s`, so that a run measures
/// `budget_s` on average; at least three repetitions (two in the
/// self-check).
fn more_reps(rep: usize, start: Instant, last_rep_s: f64, budget_s: f64, o: &Opts) -> bool {
    let min = if o.smoke { 2 } else { 3 };
    rep < min || start.elapsed().as_secs_f64() + last_rep_s / 2.0 <= budget_s
}

fn median(v: &[f64]) -> f64 {
    summarize(v).median
}

/// Mean over jobs of each job's median wall across repetitions, so that
/// one slow call moves only its own job. The quartiles printed with it are
/// those of the per-repetition means.
fn per_job(name: &str, passes: &[Vec<f64>]) -> Metric {
    let jobs = passes[0].len();
    let job_median = |j: usize| median(&passes.iter().map(|p| p[j]).collect::<Vec<_>>());
    let means: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().sum::<f64>() / jobs as f64)
        .collect();
    Metric {
        value: (0..jobs).map(job_median).sum::<f64>() / jobs as f64,
        ..Metric::sampled(name, "s", &means)
    }
}

/// Median over jobs of each job's wall in `call` over the mean of its walls
/// in the `sort_unstable` passes just before and after: one slow job in a
/// pass of many small ones does not move it.
fn median_job_ratio(call: &[f64], before: &[f64], after: &[f64]) -> f64 {
    let ratios: Vec<f64> = (0..call.len())
        .map(|j| call[j] / ((before[j] + after[j]) / 2.0))
        .collect();
    median(&ratios)
}

/// Ledger and wall bookkeeping of the end-to-end run.
#[derive(Default)]
struct Record {
    walls: [Vec<Vec<f64>>; 5],
    first_ledgers: [Option<Vec<CostSnapshot>>; 5],
}

impl Record {
    /// One untraced pass of call `i`. Every ledger equals the first of its
    /// engine; the t=nproc NMsort ledger must equal the t=1 one.
    fn pass(&mut self, bed: &Bed, i: usize, ck: &mut Checker) -> Pass {
        let call = calls()[i];
        let pass = bed.pass(call, None, ck);
        self.walls[i].push(pass.walls.clone());
        if i != STD {
            let slot = if i == NMX { NM1 } else { i };
            let what = format!("{} ledger", call.label());
            ck.same(&mut self.first_ledgers[slot], pass.ledgers.clone(), &what);
        }
        pass
    }
}

pub fn end_to_end(kind: Kind, o: &Opts, ck: &mut Checker) -> Outcome {
    let mut setups = Setups::default();
    let p = setups.run(kind, o, ck);
    ck.corrupt_next = o.corrupt;
    let jobs = p.bed.jobs.len() as f64;
    let mut rec = Record::default();
    // Per call, the median job's wall over its neighbouring
    // `sort_unstable` walls.
    let mut vs_std: [Vec<f64>; 5] = Default::default();
    let mut service_vs_std = Vec::new();
    let mut jobs_per_s = Vec::new();
    let mut first_sim = None;
    let mut sims = (0.0, 0.0);
    let mut first_service = None;
    let mut service_last = None;
    let mut turned_away = 0;
    let start = Instant::now();
    let mut rep_s = 0.0;
    let mut rep = 0;
    while more_reps(rep, start, rep_s, o.seconds, o) {
        let r0 = Instant::now();
        let mut passes: [Pass; 5] = Default::default();
        let mut std_before = rec.pass(&p.bed, STD, ck).walls;
        for k in 0..GATED.len() {
            let i = GATED[(k + rep) % GATED.len()];
            passes[i] = rec.pass(&p.bed, i, ck);
            let std_after = rec.pass(&p.bed, STD, ck).walls;
            vs_std[i].push(median_job_ratio(&passes[i].walls, &std_before, &std_after));
            std_before = std_after;
            if i == NM1 && p.service.is_none() {
                // The closed-loop caller of a sort workload completes one
                // job per NMsort call.
                jobs_per_s.push(1.0 / passes[NM1].mean());
            }
        }
        // Table-only: every other repetition leaves more time to the gated
        // calls.
        if rep % 2 == 1 {
            rec.pass(&p.bed, NMX, ck);
        }
        if let Some(s) = &p.service {
            let mut std_before = s.std_pass(ck);
            for _ in 0..SERVICE_RUNS {
                let run = s.run(None, ck);
                let std_after = s.std_pass(ck);
                let std_s = (std_before + std_after) / 2.0;
                std_before = std_after;
                let Some((report, outcomes, secs)) = run else {
                    continue;
                };
                service_vs_std.push(secs / std_s);
                jobs_per_s.push(s.jobs.len() as f64 / secs);
                turned_away += service_mix::turned_away(&outcomes);
                let digest = serde::json::to_string(&report).expect("report serializes");
                ck.same(&mut first_service, digest, "service virtual-time report");
                service_last = Some((report, outcomes));
            }
        }
        sims = (passes[NM1].sim_s, passes[BASE].sim_s);
        ck.same(
            &mut first_sim,
            (sims.0.to_bits(), sims.1.to_bits()),
            "simulated seconds",
        );
        setups.again(kind, o, ck);
        rep_s = r0.elapsed().as_secs_f64();
        rep += 1;
    }
    // A sort workload's job is one NMsort call.
    let jobs_vs_std = match &p.service {
        Some(_) => service_vs_std,
        None => vs_std[NM1].clone(),
    };

    let metrics = vec![
        Metric::sampled("nmsort_vs_std", "ratio", &vs_std[NM1]),
        Metric::sampled("dma_vs_std", "ratio", &vs_std[DMA]),
        Metric::sampled("baseline_vs_std", "ratio", &vs_std[BASE]),
        Metric::sampled("jobs_vs_std", "ratio", &jobs_vs_std),
        Metric::exact("sim_s", "s", sims.0 / jobs),
        Metric::exact("sim_speedup", "ratio", sims.1 / sims.0),
        Metric::sampled("setup_s", "s", &setups.setup_s),
        Metric::exact(
            "peak_rss_mb",
            "MiB",
            crate::host::peak_rss_mb().unwrap_or(f64::NAN),
        ),
    ];
    // Host walls in seconds and jobs per second: what a user of this host
    // sees, but they move with the shared host's speed by up to a quarter
    // between runs, beyond any bound a gate could hold.
    let mut extra = vec![
        per_job("nmsort_t1_s", &rec.walls[NM1]),
        per_job("nmsort_tmax_s", &rec.walls[NMX]),
        per_job("dma_t1_s", &rec.walls[DMA]),
        per_job("baseline_t1_s", &rec.walls[BASE]),
        per_job("ref.std_sort.s", &rec.walls[STD]),
        Metric::sampled("jobs_per_s", "1/s", &jobs_per_s),
    ];
    if let Some((report, _)) = &service_last {
        let p99 = report.class(tlmm_service::Priority::Interactive).p99;
        extra.push(Metric::exact("interactive_p99_units", "units", p99 as f64));
        extra.push(Metric::exact(
            "goodput_frac",
            "ratio",
            report.goodput_fraction(),
        ));
    }
    extra.push(Metric::exact(
        "failed_frac",
        "ratio",
        (ck.failed + turned_away) as f64 / ck.attempted.max(1) as f64,
    ));
    Outcome {
        metrics,
        extra,
        spans: None,
    }
}

pub fn traced(kind: Kind, o: &Opts, ck: &mut Checker) -> Outcome {
    let mut setups = Setups::default();
    let p = setups.run(kind, o, ck);
    let calls = calls();
    let mut spans = SpanAgg::default();
    let mut phases: [Phases; 5] = Default::default();
    let mut walls: [Vec<Vec<f64>>; 5] = Default::default();
    let mut untraced = Vec::new();
    let mut passes: [Pass; 5] = Default::default();
    let mut service_last = None;
    let start = Instant::now();
    let mut rep_s = 0.0;
    let mut rep = 0;
    // Half the time goes to traced repetitions; the rest is left for the
    // oblivious engines and the layer probes.
    while more_reps(rep, start, rep_s, o.seconds / 2.0, o) {
        let r0 = Instant::now();
        if let Some(s) = &p.service {
            drop(tlmm_telemetry::take_spans());
            service_last = s.run(Some("bench.service.run"), ck);
            spans.add(&tlmm_telemetry::take_spans());
        }
        untraced.push(p.bed.pass(calls[NM1], None, ck).walls.iter().sum::<f64>());
        for k in 0..calls.len() {
            let i = (k + rep) % calls.len();
            let tracing = Tracing {
                phases: &mut phases[i],
                spans: &mut spans,
            };
            passes[i] = p.bed.pass(calls[i], Some(tracing), ck);
            walls[i].push(passes[i].walls.clone());
        }
        setups.again(kind, o, ck);
        rep_s = r0.elapsed().as_secs_f64();
        rep += 1;
    }
    let mut job_s = Vec::new();
    for e in [Engine::Spms, Engine::SquareSort] {
        let mut ph = Phases::default();
        let tracing = Tracing {
            phases: &mut ph,
            spans: &mut spans,
        };
        job_s.push((e, p.bed.pass(Call::Sort(e, 1), Some(tracing), ck).mean()));
    }

    // Probe data: one Phase-1 chunk of the sort input, or the largest
    // replayed service job.
    let params = *p.bed.tl.params();
    let (chunk, merge_src, k) = match kind {
        Kind::Service => {
            let big = p
                .bed
                .jobs
                .iter()
                .map(|j| j.input.as_slice())
                .max_by_key(|v| v.len())
                .expect("replay set is not empty");
            (big, big, 3)
        }
        _ => {
            let input = p.bed.jobs[0].input.as_slice();
            let est = tlmm_model::admission_estimate(
                &params,
                Engine::NmSort,
                input.len() as u64,
                8,
                None,
            );
            let chunk = est.chunk_elems.min(input.len());
            (&input[..chunk], input, input.len().div_ceil(chunk))
        }
    };
    // NMsort's default pivot count for this chunk.
    let n_pivots = ((params.scratchpad_blocks() / 4) as usize)
        .min(chunk.len() / 8)
        .min(65_536);
    let probe_metrics = probes(&p.bed.tl, chunk, merge_src, k, n_pivots, &mut spans, ck);

    let (sim_s, ()) = time_median(
        "bench.memsim.simulate_flow",
        || (),
        |_| drop(simulate_flow(&passes[NM1].last_trace, &machine())),
    );
    let admission: Vec<(Engine, u64)> = match &p.service {
        Some(s) => s.jobs.iter().map(|j| (j.engine, j.n as u64)).collect(),
        None => Engine::ALL
            .iter()
            .map(|&e| (e, p.bed.jobs[0].input.len() as u64))
            .collect(),
    };
    let (admission_s, ()) = time_median(
        "bench.model.admission_estimate",
        || (),
        |_| {
            for &(e, n) in &admission {
                std::hint::black_box(tlmm_model::admission_estimate(&params, e, n, 8, None));
            }
        },
    );
    let admission_s = admission_s / admission.len() as f64;

    let nm = &phases[NM1];
    let nmx = &phases[NMX];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = vec![Metric::exact("nmsort.span.s", "s", nm.span_s())];
    for ph in NMSORT_PHASES {
        m.push(Metric::exact(
            format!("nmsort.{ph}.share"),
            "ratio",
            nm.share(ph),
        ));
    }
    m.extend([
        Metric::exact("nmsort.p1.sort.s", "s", nm.phase_s("p1.sort")),
        Metric::exact("nmsort.unattributed.s", "s", nm.unattributed_s()),
        Metric::exact("nmsort.phase_coverage", "ratio", nm.coverage()),
        Metric::exact("nmsort.copy.gbps", "GB/s", nm.copy_gbps()),
        Metric::exact("nmsort.scaling", "ratio", ratio(nm.span_s(), nmx.span_s())),
        Metric::exact(
            "nmsort.p1.sort.scaling",
            "ratio",
            ratio(nm.phase_s("p1.sort"), nmx.phase_s("p1.sort")),
        ),
        Metric::exact(
            "nmsort.p2.merge.scaling",
            "ratio",
            ratio(nm.phase_s("p2.merge"), nmx.phase_s("p2.merge")),
        ),
    ]);
    m.extend(probe_metrics);
    m.push(per_job("ref.std_sort.s", &walls[STD]));
    let ledger = passes[NM1]
        .ledgers
        .iter()
        .fold(CostSnapshot::default(), |a, &l| a + l);
    for (name, v) in [
        ("far_bytes", ledger.far_bytes),
        ("near_bytes", ledger.near_bytes),
        ("far_blocks", ledger.far_blocks()),
        ("near_blocks", ledger.near_blocks()),
        ("compute_ops", ledger.compute_ops),
    ] {
        m.push(Metric::exact(
            format!("scratchpad.ledger.{name}"),
            "count",
            v as f64,
        ));
    }
    m.extend([
        Metric::exact(
            "dma.overlapped_pairs",
            "count",
            passes[DMA].overlapped_pairs as f64,
        ),
        Metric::exact("dma.overlap_saved_s", "s", passes[DMA].overlap_saved_s),
        Metric::exact("dma.span.s", "s", phases[DMA].span_s()),
        Metric::exact("baseline.run_sort.s", "s", phases[BASE].phase_s("run_sort")),
        Metric::exact("baseline.merge.s", "s", phases[BASE].phase_s("merge")),
        Metric::exact("memsim.simulate_flow.s", "s", sim_s),
        Metric::sampled("workloads.generate.s", "s", &setups.generate_s),
        Metric::exact("model.admission_estimate.us", "us", admission_s * 1e6),
        per_job("core.nmsort.job.s", &walls[NM1]),
        per_job("core.dma.job.s", &walls[DMA]),
        per_job("core.baseline.job.s", &walls[BASE]),
    ]);
    for (e, secs) in job_s {
        m.push(Metric::exact(format!("core.{}.job.s", e.name()), "s", secs));
    }
    m.extend(service_mix::layer_metrics(
        service_last.as_ref().map(|(r, o, _)| (r, o.as_slice())),
    ));
    let traced_t1: Vec<f64> = walls[NM1].iter().map(|w| w.iter().sum::<f64>()).collect();
    let overhead = (median(&traced_t1) - median(&untraced)) / median(&untraced);
    m.push(Metric::exact("telemetry.overhead_frac", "ratio", overhead));

    ck.invariant(nm.coverage() >= 0.95, || {
        format!(
            "nmsort phase spans cover only {:.1}%",
            100.0 * nm.coverage()
        )
    });
    nm.print("nmsort t=1 phases");
    nmx.print(&format!("nmsort t={} phases", host_threads()));
    phases[DMA].print("nmsort dma t=1 phases");
    phases[BASE].print("baseline t=1 phases");
    Outcome {
        metrics: m,
        extra: Vec::new(),
        spans: Some(spans),
    }
}
