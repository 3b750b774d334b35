//! **Kernel bench** — host wall-clock before→after deltas for the kernel
//! layer (DESIGN.md §10).
//!
//! Four cells × four workload shapes:
//!
//! * `run_formation` — Phase-1 style chunk sorting: `sort_unstable` per run
//!   (the pre-kernel reference) vs [`tlmm_core::kernels::sort_kernel`]
//!   (MSD hybrid radix for `u64`).
//! * `kway_merge` — k-way merge of sorted runs: the original branchy
//!   loser tree vs [`merge_into_slice`] (the pairwise data plane plus the
//!   analytic comparison count, at this cell's run lengths).
//! * `bucketize` — `BucketPos` extraction over sorted chunks (no
//!   before/after pair: the kernel layer doesn't change it; the median is
//!   recorded to catch regressions).
//! * `nmsort_e2e` — end-to-end NMsort wall clock at 1M (and 10M in
//!   `--full10m` mode) through the standard harness.
//!
//! Methodology: every measurement clones pristine input outside the timed
//! region, runs `WARMUP` untimed iterations, then reports the **median of
//! `MEASURE` timed iterations** — medians are robust to one-off
//! scheduling noise without discarding real variance (see DESIGN.md §10).
//!
//! Output: `BENCH_kernels.json` at the working directory root (the
//! committed before→after record) and `results/kernel_bench.{txt,json}`
//! via the artifact plumbing.
//!
//! Run: `cargo run --release -p tlmm-bench --bin kernel_bench [-- --smoke | --full10m | --merge-crossover]`
//!
//! `--smoke` shrinks sizes for CI and additionally asserts the optimized
//! kernels agree element-for-element with the reference implementations,
//! and that the merge's two paths — the pairwise data plane and the
//! loser-tree path — give the same output and comparison count with SIMD
//! dispatch on and off, on every shape of `tlmm_testkit::KERNEL_SHAPES`.
//!
//! `--merge-crossover` prints only the sweep behind the k-way merge's
//! small-merge cutoff (see [`merge_crossover`]).

use std::time::Instant;
use tlmm_bench::{artifact, outln, run_sort, SortAlgo, SortSpec};
use tlmm_core::kernels::reference::{form_runs_ref, merge_into_slice_ref, merge_schedule_ref};
use tlmm_core::kernels::simd;
use tlmm_core::kernels::sort_kernel;
use tlmm_core::losertree::{merge_into_slice, pairwise_merge, tournament_merge};
use tlmm_core::{bucketize, extsort::RegionLevel};
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_telemetry::RunReport;
use tlmm_workloads::{generate, Workload};

use serde::Serialize;

/// Sorted-run length for the formation cell: the external mergesort's
/// default at experiment scale (`Z / (2·elem·lanes)` = 4 MiB / 128).
const RUN_ELEMS: usize = 32_768;
/// Merge fan-in for the k-way cell (the experiments' typical fanout).
const KWAY: usize = 16;

#[derive(Serialize)]
struct Cell {
    kernel: String,
    workload: String,
    n: usize,
    /// Median ms of the pre-kernel implementation (absent for cells with
    /// no before/after pair).
    baseline_ms: Option<f64>,
    optimized_ms: f64,
    /// `baseline_ms / optimized_ms` when a baseline exists.
    speedup: Option<f64>,
}

#[derive(Serialize)]
struct BenchFile {
    git_sha: String,
    mode: String,
    warmup_iters: usize,
    measured_iters: usize,
    cells: Vec<Cell>,
}

struct Timing {
    warmup: usize,
    measure: usize,
}

/// Median of `timing.measure` timed iterations after `timing.warmup`
/// untimed ones. `prep` runs outside the timed region every iteration.
fn median_ms<S, P: FnMut() -> S, F: FnMut(S)>(timing: &Timing, mut prep: P, mut work: F) -> f64 {
    for _ in 0..timing.warmup {
        work(prep());
    }
    let mut samples = Vec::with_capacity(timing.measure);
    for _ in 0..timing.measure {
        let state = prep();
        let t0 = Instant::now();
        work(state);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(samples)
}

/// Interleaved before/after medians: each measured iteration times the
/// baseline and the optimized kernel back to back, so slow load drift on a
/// shared host hits both sides of the ratio equally (DESIGN.md §10).
///
/// Returns `(median_base_ms, median_opt_ms, median_speedup)`. The speedup
/// is the **median of the per-iteration ratios**, not the ratio of the
/// medians: a transient stall (frequency throttle, scheduler migration)
/// lands inside one iteration and skews both of that iteration's timings
/// together, so its ratio stays sane while the ratio-of-medians can pair a
/// stalled sample with a clean one. The perf gate compares these ratios.
fn paired_medians_ms<S, P, A, B>(
    timing: &Timing,
    mut prep: P,
    mut base: A,
    mut opt: B,
) -> (f64, f64, f64)
where
    P: FnMut() -> S,
    A: FnMut(S),
    B: FnMut(S),
{
    for _ in 0..timing.warmup {
        base(prep());
        opt(prep());
    }
    let mut bs = Vec::with_capacity(timing.measure);
    let mut os = Vec::with_capacity(timing.measure);
    let mut ratios = Vec::with_capacity(timing.measure);
    for _ in 0..timing.measure {
        let state = prep();
        let t0 = Instant::now();
        base(state);
        let b = t0.elapsed().as_secs_f64() * 1e3;
        let state = prep();
        let t0 = Instant::now();
        opt(state);
        let o = t0.elapsed().as_secs_f64() * 1e3;
        bs.push(b);
        os.push(o);
        ratios.push(b / o);
    }
    (median(bs), median(os), median(ratios))
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn shapes() -> [(&'static str, Workload); 4] {
    [
        ("uniform", Workload::UniformU64),
        ("sawtooth", Workload::Sawtooth(8192)),
        ("few_distinct", Workload::FewDistinct(64)),
        ("zipf", Workload::Zipf(1.2)),
    ]
}

/// Optimized run formation: `sort_kernel` per chunk (radix for u64).
fn form_runs_opt(data: &mut [u64], run_elems: usize) {
    for run in data.chunks_mut(run_elems.max(2)) {
        sort_kernel(run);
    }
}

fn run_formation_cells(n: usize, timing: &Timing, smoke: bool, cells: &mut Vec<Cell>) {
    for (name, w) in shapes() {
        let input = generate(w, n, 0xF0);
        if smoke {
            let mut a = input.clone();
            let mut b = input.clone();
            form_runs_ref(&mut a, RUN_ELEMS);
            form_runs_opt(&mut b, RUN_ELEMS);
            assert_eq!(a, b, "run formation kernels disagree on {name}");
        }
        let (base, opt, speedup) = paired_medians_ms(
            timing,
            || input.clone(),
            |mut v| form_runs_ref(&mut v, RUN_ELEMS),
            |mut v| form_runs_opt(&mut v, RUN_ELEMS),
        );
        cells.push(Cell {
            kernel: "run_formation".into(),
            workload: name.into(),
            n,
            baseline_ms: Some(base),
            optimized_ms: opt,
            speedup: Some(speedup),
        });
    }
}

fn kway_merge_cells(n: usize, timing: &Timing, smoke: bool, cells: &mut Vec<Cell>) {
    for (name, w) in shapes() {
        let mut data = generate(w, n, 0xF1);
        let run_len = n.div_ceil(KWAY);
        for run in data.chunks_mut(run_len) {
            run.sort_unstable();
        }
        let runs: Vec<&[u64]> = data.chunks(run_len).collect();
        if smoke {
            let mut a = vec![0u64; n];
            let mut b = vec![0u64; n];
            let ca = merge_into_slice_ref(&runs, &mut a);
            let cb = merge_into_slice(&runs, &mut b);
            assert_eq!(a, b, "merge kernels disagree on {name}");
            assert_eq!(ca, cb, "merge comparison counts diverge on {name}");
            // And the SIMD pre-merge path must be invisible: same output,
            // same comparison ledger, with vector dispatch forced off.
            let prior = simd::enabled();
            simd::set_enabled(false);
            let mut c = vec![0u64; n];
            let cc = merge_into_slice(&runs, &mut c);
            simd::set_enabled(prior);
            assert_eq!(b, c, "merge output changed with SIMD disabled on {name}");
            assert_eq!(cb, cc, "merge counts changed with SIMD disabled on {name}");
        }
        let (base, opt, speedup) = paired_medians_ms(
            timing,
            || vec![0u64; n],
            |mut out| {
                merge_into_slice_ref(&runs, &mut out);
            },
            |mut out| {
                merge_into_slice(&runs, &mut out);
            },
        );
        cells.push(Cell {
            kernel: "kway_merge".into(),
            workload: name.into(),
            n,
            baseline_ms: Some(base),
            optimized_ms: opt,
            speedup: Some(speedup),
        });
    }
}

/// `--merge-crossover`: time the k-way merge's two paths back to back on
/// the same runs over k × average run length × shape, and print ns per
/// element and the loser-tree ÷ pairwise ratio. This sweep is the
/// measurement behind `losertree`'s small-merge cutoff (DESIGN.md §10).
fn merge_crossover() {
    println!(
        "{:<13} {:>5} {:>4} {:>10} {:>10} {:>6}",
        "shape", "k", "avg", "tree ns/e", "pair ns/e", "ratio"
    );
    for (name, w) in [shapes()[0], shapes()[2], shapes()[3]] {
        for k in [4usize, 16, 64, 256, 1024, 4096] {
            for avg in [2usize, 4, 8, 16, 32, 64] {
                let n = k * avg;
                let mut data = generate(w, n, 0xF5);
                for run in data.chunks_mut(avg) {
                    run.sort_unstable();
                }
                let runs: Vec<&[u64]> = data.chunks(avg).collect();
                let mut out = vec![0u64; n];
                // Repeat each timed call up to ~4M elements of work.
                let reps = (4_000_000 / n).clamp(3, 400);
                let per_elem = |t: Instant| t.elapsed().as_secs_f64() * 1e9 / (reps * n) as f64;
                let (mut tree, mut pair) = (Vec::new(), Vec::new());
                for _ in 0..7 {
                    let t = Instant::now();
                    for _ in 0..reps {
                        std::hint::black_box(tournament_merge(&runs, &mut out));
                    }
                    tree.push(per_elem(t));
                    let t = Instant::now();
                    for _ in 0..reps {
                        std::hint::black_box(pairwise_merge(&runs, &mut out));
                    }
                    pair.push(per_elem(t));
                }
                let (t, p) = (median(tree), median(pair));
                println!(
                    "{name:<13} {k:>5} {avg:>4} {t:>10.2} {p:>10.2} {:>6.2}",
                    t / p
                );
            }
        }
    }
}

/// Smoke-only agreement check of the merge's two paths on every kernel
/// shape, SIMD dispatch on and off: same output, and the same count as a
/// reference execution of the merge schedule.
fn merge_plane_checks(n: usize) {
    let prior = simd::enabled();
    for shape in tlmm_testkit::KERNEL_SHAPES {
        let mut data = generate(shape, n, 0xF4);
        let run_len = n.div_ceil(KWAY);
        for run in data.chunks_mut(run_len) {
            run.sort_unstable();
        }
        let runs: Vec<&[u64]> = data.chunks(run_len).collect();
        let mut want = vec![0u64; n];
        let schedule = merge_schedule_ref(&runs, &mut want);
        for vector in [true, false] {
            simd::set_enabled(vector);
            let mut a = vec![0u64; n];
            let mut b = vec![0u64; n];
            let ca = tournament_merge(&runs, &mut a);
            let cb = pairwise_merge(&runs, &mut b);
            assert_eq!(
                a, want,
                "loser-tree path missorts {shape:?} (simd={vector})"
            );
            assert_eq!(b, want, "pairwise plane missorts {shape:?} (simd={vector})");
            assert_eq!(
                ca, schedule,
                "loser-tree path miscounts {shape:?} (simd={vector})"
            );
            assert_eq!(
                cb, schedule,
                "pairwise plane miscounts {shape:?} (simd={vector})"
            );
        }
    }
    simd::set_enabled(prior);
}

fn bucketize_cells(n: usize, timing: &Timing, cells: &mut Vec<Cell>) {
    let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 22, 1 << 16).unwrap());
    for (name, w) in shapes() {
        let mut sorted = generate(w, n, 0xF2);
        sorted.sort_unstable();
        // 63 pivots ≈ the experiments' bucket counts; dedup for the
        // duplicate-heavy shapes (pivots must be strictly increasing).
        let mut pivots: Vec<u64> = (1..64u64)
            .map(|i| sorted[(i as usize * n / 64).min(n - 1)])
            .collect();
        pivots.dedup();
        let opt = median_ms(
            timing,
            || (),
            |()| {
                bucketize::bucket_positions(&tl, RegionLevel::Near, &sorted, &pivots, 8, 1);
            },
        );
        cells.push(Cell {
            kernel: "bucketize".into(),
            workload: name.into(),
            n,
            baseline_ms: None,
            optimized_ms: opt,
            speedup: None,
        });
    }
}

fn nmsort_cells(sizes: &[usize], timing: &Timing, cells: &mut Vec<Cell>) {
    for &n in sizes {
        for (name, _) in shapes().into_iter().take(1) {
            // End-to-end is dominated by the uniform case the paper
            // evaluates; one shape keeps full runs under a minute.
            let opt = median_ms(
                timing,
                || (),
                |()| {
                    run_sort(&SortSpec {
                        threads: 1,
                        algo: SortAlgo::NmSort,
                        n,
                        lanes: 8,
                        chunk_elems: None,
                        seed: 0xF3,
                        fault_seed: None,
                    })
                    .expect("nmsort e2e cell failed");
                },
            );
            cells.push(Cell {
                kernel: "nmsort_e2e".into(),
                workload: name.into(),
                n,
                baseline_ms: None,
                optimized_ms: opt,
                speedup: None,
            });
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--merge-crossover") {
        merge_crossover();
        return Ok(());
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let full10m = args.iter().any(|a| a == "--full10m");
    let mode = if smoke { "smoke" } else { "full" };

    let (n, nmsort_sizes, timing) = if smoke {
        // 100k keeps a smoke run in CI seconds while giving each paired
        // cell multiple full runs/chunks to time — at 20k the speedup
        // ratios were too noisy for a ±15% gate.
        (
            100_000,
            vec![100_000],
            Timing {
                warmup: 1,
                measure: 9,
            },
        )
    } else {
        let mut sizes = vec![1_000_000];
        if full10m {
            sizes.push(10_000_000);
        }
        (
            1_000_000,
            sizes,
            Timing {
                warmup: 2,
                measure: 7,
            },
        )
    };

    eprintln!(
        "[kernel_bench] mode={mode}, n={n}, median of {}",
        timing.measure
    );
    tlmm_telemetry::reset();

    let mut cells = Vec::new();
    run_formation_cells(n, &timing, smoke, &mut cells);
    kway_merge_cells(n, &timing, smoke, &mut cells);
    if smoke {
        merge_plane_checks(n);
    }
    bucketize_cells(n, &timing, &mut cells);
    nmsort_cells(&nmsort_sizes, &timing, &mut cells);

    // Rendered table.
    let mut text = String::new();
    outln!(
        text,
        "Kernel wall-clock bench ({mode}): median of {} after {} warmup",
        timing.measure,
        timing.warmup
    );
    outln!(
        text,
        "{:<14} {:<13} {:>10} {:>12} {:>12} {:>8}",
        "kernel",
        "workload",
        "n",
        "baseline ms",
        "optimized ms",
        "speedup"
    );
    for c in &cells {
        outln!(
            text,
            "{:<14} {:<13} {:>10} {:>12} {:>12.3} {:>8}",
            c.kernel,
            c.workload,
            c.n,
            c.baseline_ms.map_or("-".into(), |b| format!("{b:.3}")),
            c.optimized_ms,
            c.speedup.map_or("-".into(), |s| format!("{s:.2}x"))
        );
    }
    if smoke {
        outln!(
            text,
            "smoke agreement checks: OK (kernels match references; merge planes agree)"
        );
    }

    let file = BenchFile {
        git_sha: artifact::git_sha(),
        mode: mode.into(),
        warmup_iters: timing.warmup,
        measured_iters: timing.measure,
        cells,
    };
    // Full mode refreshes the committed trajectory file; smoke mode writes
    // its (smaller-n) cells next to the other CI artifacts so the perf
    // gate can diff them against the committed smoke baseline without
    // ever clobbering the full-mode record.
    let bench_path = if smoke {
        let dir = artifact::results_dir();
        std::fs::create_dir_all(&dir)?;
        dir.join("BENCH_kernels_smoke.json")
    } else {
        std::path::PathBuf::from("BENCH_kernels.json")
    };
    std::fs::write(&bench_path, serde::json::to_string_pretty(&file)? + "\n")?;
    outln!(text, "wrote {}", bench_path.display());

    let report = RunReport::collect("kernel_bench")
        .meta("mode", mode)
        .meta("n", n.to_string());
    artifact::emit("kernel_bench", &text, report)?;
    Ok(())
}
