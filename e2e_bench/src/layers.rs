//! Per-layer attribution: phase self times harvested from the spans the
//! program already records, the span aggregate written as the trace
//! artifact, and direct probes of single layers on the workload's data.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;
use tlmm_core::bucketize::bucket_positions;
use tlmm_core::extsort::{external_sort, ExtSortConfig, RegionLevel};
use tlmm_core::losertree::merge_into_slice;
use tlmm_core::par::{charged_copy, CopyKind};
use tlmm_core::sort_kernel;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::SpanRecord;

use crate::engine::{Done, LANES};
use crate::metrics::{summarize, Metric};
use crate::verify::{Checker, Fingerprint};

/// NMsort's phases, in execution order, without the `nmsort.` prefix.
pub const NMSORT_PHASES: [&str; 9] = [
    "sample",
    "p1.ingest",
    "p1.sort",
    "p1.writeback",
    "p1.bounds",
    "p2.plan",
    "p2.gather",
    "p2.merge",
    "p2.writeout",
];

/// The phases that move keys between far and near memory.
const COPY_PHASES: [&str; 4] = ["p1.ingest", "p1.writeback", "p2.gather", "p2.writeout"];

/// An engine's root span and the self time of its phase spans, summed
/// over the calls added. Phases run one after another, so a phase's self
/// time is its span clipped to the root span.
#[derive(Debug, Default)]
pub struct Phases {
    calls: u64,
    span_ns: u64,
    phase_ns: BTreeMap<String, u64>,
    phase_count: BTreeMap<String, u64>,
    copy_bytes: u64,
}

impl Phases {
    /// Attribute one call whose root span is named `root` and whose phases
    /// are named `<root prefix>.<phase>`.
    pub fn add(&mut self, done: &Done, root: &str, prefix: &str) {
        let Some(r) = done.spans.iter().find(|s| s.name == root) else {
            return;
        };
        let r_end = r.start_ns + r.dur_ns;
        self.calls += 1;
        self.span_ns += r.dur_ns;
        for s in done.spans.iter().filter(|s| s.parent == r.id) {
            let Some(phase) = s.name.strip_prefix(prefix) else {
                continue;
            };
            let clipped = (s.start_ns + s.dur_ns)
                .min(r_end)
                .saturating_sub(s.start_ns.max(r.start_ns));
            *self.phase_ns.entry(phase.to_string()).or_default() += clipped;
            *self.phase_count.entry(phase.to_string()).or_default() += 1;
        }
        for p in &done.trace.phases {
            let copy = p
                .name
                .strip_prefix(prefix)
                .is_some_and(|n| COPY_PHASES.contains(&n));
            if copy {
                self.copy_bytes += p.lanes.iter().map(|l| l.far_bytes()).sum::<u64>();
            }
        }
    }

    fn per_call(&self, ns: u64) -> f64 {
        ns as f64 / self.calls.max(1) as f64 / 1e9
    }

    /// Mean root span per call, seconds.
    pub fn span_s(&self) -> f64 {
        self.per_call(self.span_ns)
    }

    /// Mean self time of `phase` per call, seconds (0 if it never ran).
    pub fn phase_s(&self, phase: &str) -> f64 {
        self.per_call(self.phase_ns.get(phase).copied().unwrap_or(0))
    }

    /// Share of the root span spent in `phase`.
    pub fn share(&self, phase: &str) -> f64 {
        self.phase_ns.get(phase).copied().unwrap_or(0) as f64 / self.span_ns.max(1) as f64
    }

    fn attributed_ns(&self) -> u64 {
        self.phase_ns.values().sum()
    }

    /// Root-span time no phase span covers, per call.
    pub fn unattributed_s(&self) -> f64 {
        self.per_call(self.span_ns.saturating_sub(self.attributed_ns()))
    }

    /// Share of the root span the phase spans cover.
    pub fn coverage(&self) -> f64 {
        self.attributed_ns() as f64 / self.span_ns.max(1) as f64
    }

    /// Far-side bytes of the copy phases over their self time.
    pub fn copy_gbps(&self) -> f64 {
        let ns: u64 = COPY_PHASES
            .iter()
            .filter_map(|p| self.phase_ns.get(*p))
            .sum();
        self.copy_bytes as f64 / ns.max(1) as f64
    }

    /// Print every phase that ran: spans per call, seconds per call, share.
    pub fn print(&self, title: &str) {
        println!(
            "== {title}: {} calls, {:.6} s per call, phases cover {:.2}%",
            self.calls,
            self.span_s(),
            100.0 * self.coverage()
        );
        for (phase, ns) in &self.phase_ns {
            println!(
                "  {:<14} x{:<6.1} {:>12.6} s {:>7.2}%",
                phase,
                self.phase_count[phase] as f64 / self.calls.max(1) as f64,
                self.per_call(*ns),
                100.0 * self.share(phase)
            );
        }
        println!(
            "  {:<14} {:>20.6} s {:>7.2}%",
            "unattributed",
            self.unattributed_s(),
            100.0 * (1.0 - self.coverage())
        );
    }
}

/// Every span of a traced run, aggregated by name; raw spans are not kept.
#[derive(Debug, Default)]
pub struct SpanAgg(BTreeMap<String, Vec<u64>>);

impl SpanAgg {
    pub fn add(&mut self, spans: &[SpanRecord]) {
        for s in spans {
            self.0.entry(s.name.clone()).or_default().push(s.dur_ns);
        }
    }

    /// `(name, count, total, p50, p99, max)`, times in seconds.
    fn rows(&self) -> Vec<(String, usize, f64, f64, f64, f64)> {
        self.0
            .iter()
            .map(|(name, durs)| {
                let mut d = durs.clone();
                d.sort_unstable();
                let rank =
                    |q: f64| d[((q * d.len() as f64).ceil() as usize).max(1) - 1] as f64 / 1e9;
                let total = d.iter().sum::<u64>() as f64 / 1e9;
                let max = d[d.len() - 1] as f64 / 1e9;
                (name.clone(), d.len(), total, rank(0.5), rank(0.99), max)
            })
            .collect()
    }

    pub fn print(&self) {
        println!(
            "== spans by name: {:<30} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "", "count", "total_s", "p50_s", "p99_s", "max_s"
        );
        for (name, n, total, p50, p99, max) in self.rows() {
            println!("  {name:<46} {n:>7} {total:>12.6} {p50:>12.6} {p99:>12.6} {max:>12.6}");
        }
    }

    pub fn to_value(&self) -> Value {
        let num = |x: f64| Value::F64(x);
        Value::Map(
            self.rows()
                .into_iter()
                .map(|(name, n, total, p50, p99, max)| {
                    let row = Value::Map(vec![
                        ("count".into(), Value::U64(n as u64)),
                        ("total_s".into(), num(total)),
                        ("p50_s".into(), num(p50)),
                        ("p99_s".into(), num(p99)),
                        ("max_s".into(), num(max)),
                    ]);
                    (name, row)
                })
                .collect(),
        )
    }
}

/// Median wall time of `f` over fresh states from `setup`, repeated until
/// at least five runs and a quarter second of timed work; each run sits in
/// the benchmark's span `name`. Returns the median and the last state.
pub fn time_median<S>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&mut S),
) -> (f64, S) {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let mut state = setup();
        let span = tlmm_telemetry::enter(name);
        let t0 = Instant::now();
        f(&mut state);
        let dt = t0.elapsed().as_secs_f64();
        drop(span);
        times.push(dt);
        total += dt;
        if times.len() >= 1000 || (times.len() >= 5 && total >= 0.25) {
            return (summarize(&times).median, state);
        }
    }
}

/// Probe single layers on the workload's data, outside any engine:
/// * `chunk` — one Phase-1 chunk of the input (chunk sort, copies);
/// * `merge_src` — keys cut into `k` runs, each sorted, then merged by the
///   loser tree; the merged keys also give the bucket pivots, and their
///   length is the size of the first-touch allocation;
/// * `n_pivots` — NMsort's default pivot count for the workload.
pub fn probes(
    tl: &TwoLevel,
    chunk: &[u64],
    merge_src: &[u64],
    k: usize,
    n_pivots: usize,
    spans: &mut SpanAgg,
    ck: &mut Checker,
) -> Vec<Metric> {
    let len = chunk.len();
    let chunk_fp = Fingerprint::of(chunk);
    let bytes = (len * 8) as f64;
    let mut out = Vec::new();
    drop(tlmm_telemetry::take_spans());

    let ext_cfg = ExtSortConfig {
        lanes: LANES,
        threads: 1,
        ..Default::default()
    };
    let (ext_s, (mut data, mut scratch, in_scratch)) = time_median(
        "bench.extsort.chunk_sort",
        || (chunk.to_vec(), vec![1u64; len], false),
        |(d, s, in_s)| *in_s = external_sort(tl, RegionLevel::Near, d, s, &ext_cfg).in_scratch,
    );
    let ext_out = if in_scratch { &mut scratch } else { &mut data };
    ck.output("extsort chunk", ext_out, chunk_fp);
    out.push(Metric::exact("core.extsort.chunk_sort.s", "s", ext_s));

    let (kernel_s, mut sorted) = time_median(
        "bench.kernels.sort_kernel",
        || chunk.to_vec(),
        |d| sort_kernel(d),
    );
    ck.output("sort_kernel chunk", &mut sorted, chunk_fp);
    out.push(Metric::exact("core.kernels.sort_kernel.s", "s", kernel_s));

    let piece = merge_src.len().div_ceil(k.max(1)).max(1);
    let runs: Vec<Vec<u64>> = merge_src
        .chunks(piece)
        .map(|c| {
            let mut r = c.to_vec();
            sort_kernel(&mut r);
            r
        })
        .collect();
    let refs: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
    let mut comparisons = 0;
    let (merge_s, mut merged) = time_median(
        "bench.losertree.merge",
        || vec![1u64; merge_src.len()],
        |o| comparisons = merge_into_slice(&refs, o),
    );
    ck.output("loser-tree merge", &mut merged, Fingerprint::of(merge_src));
    out.push(Metric::exact("core.losertree.merge.s", "s", merge_s));
    out.push(Metric::exact(
        "core.losertree.comparisons",
        "count",
        comparisons as f64,
    ));

    let step = merged.len().div_ceil(n_pivots + 1).max(1);
    let mut pivots: Vec<u64> = merged
        .iter()
        .skip(step - 1)
        .step_by(step)
        .copied()
        .collect();
    pivots.dedup();
    let mut positions = Vec::new();
    let (bucket_s, ()) = time_median(
        "bench.bucketize",
        || (),
        |_| positions = bucket_positions(tl, RegionLevel::Near, &sorted, &pivots, LANES, 1),
    );
    ck.invariant(
        positions.len() == pivots.len() + 2 && positions.windows(2).all(|w| w[0] <= w[1]),
        || "bucket positions are not monotone".into(),
    );
    out.push(Metric::exact("core.bucketize.s", "s", bucket_s));

    let mut dst = vec![1u64; len];
    let (copy_s, ()) = time_median(
        "bench.scratchpad.charged_copy",
        || (),
        |_| charged_copy(tl, CopyKind::FarToNear, chunk, &mut dst, LANES, 1),
    );
    ck.invariant(dst == chunk, || "charged_copy output differs".into());
    let (memcpy_s, ()) = time_median("bench.ref.memcpy", || (), |_| dst.copy_from_slice(chunk));
    drop(dst);
    // First touch of a whole input: a fresh `far_alloc` of all `merge_src`
    // keys written once, less a warm copy of the same bytes.
    let mut warm = merge_src.to_vec();
    let (warm_s, ()) = time_median(
        "bench.scratchpad.warm_copy",
        || (),
        |_| warm.copy_from_slice(merge_src),
    );
    drop(warm);
    let (fresh_s, _) = time_median(
        "bench.scratchpad.far_alloc",
        || None,
        |slot| {
            let mut fresh = tl.far_alloc::<u64>(merge_src.len());
            fresh.as_mut_slice_uncharged().copy_from_slice(merge_src);
            *slot = Some(fresh);
        },
    );
    out.push(Metric::exact(
        "scratchpad.charged_copy.gbps",
        "GB/s",
        bytes / copy_s / 1e9,
    ));
    out.push(Metric::exact(
        "ref.memcpy.gbps",
        "GB/s",
        bytes / memcpy_s / 1e9,
    ));
    out.push(Metric::exact("ref.memcpy.s", "s", memcpy_s));
    out.push(Metric::exact(
        "scratchpad.first_touch.s",
        "s",
        fresh_s - warm_s,
    ));

    spans.add(&tlmm_telemetry::take_spans());
    out
}
