//! Golden charge-ledger snapshots: nondeterminism regressions fail loudly.
//!
//! For each of the six sorters, a canonical small-N run's `CostSnapshot`
//! is committed under `tests/golden/`. Every test run re-executes the
//! sorter and asserts byte-identical serialization against the golden —
//! first with no executor (the sequential oracle), then under the
//! deterministic executor across `p ∈ {1, 2, 8}` workers and two scheduler
//! seeds. Arbitration may reorder and delay transfers but must never
//! change a single charged byte.
//!
//! The two NMsort goldens also pin the full `PhaseTrace` of the
//! executor-free run (`<name>.trace.json`): phase order and names, per-lane
//! work, `overlappable` flags and fault counts. A third trace golden pins a
//! multi-chunk DMA-pipelined run under a fault plan that aborts DMA issues
//! and fails/delays far→near transfers, so every rung of the Phase-1
//! ingest ladder (overlapped issue, sync fallback, re-stage, forced copy)
//! is fixed too.
//!
//! `exec_schedule.json` pins the deterministic arbiter itself: every
//! sorter, a multi-chunk NMsort whose Phase 2 runs, and an NMsort whose
//! oversized bucket is split into parts staged through the scratchpad, all
//! under `ExecConfig::deterministic(8, 2, 42)`. It records the ledger, the
//! executor's virtual-time report and each phase's per-lane slot waits, so
//! a change to the order of arbiter requests or stage permutations shows.
//!
//! Regenerate after an *intentional* accounting change with:
//! `TLMM_BLESS=1 cargo test --test golden_ledgers`

use two_level_mem::prelude::*;
use two_level_mem::scratchpad::PhaseTrace;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const N: usize = 30_000;
const DATA_SEED: u64 = 0xC0FFEE;

fn tl() -> TwoLevel {
    TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap())
}

fn input() -> Vec<u64> {
    generate(Workload::UniformU64, N, DATA_SEED)
}

/// Run one canonical sorter configuration, optionally under an executor;
/// returns the ledger snapshot and the phase trace.
fn run_sorter(name: &str, exec: Option<tlmm_scratchpad::ExecConfig>) -> (CostSnapshot, PhaseTrace) {
    let tl = tl();
    if let Some(cfg) = exec {
        tl.install_executor(cfg).unwrap();
    }
    sort_canonical(&tl, name);
    (tl.ledger().snapshot(), tl.take_trace())
}

/// Sort the canonical input with sorter `name` on `tl`.
fn sort_canonical(tl: &TwoLevel, name: &str) {
    let far = tl.far_from_vec(input());
    match name {
        "nmsort" => {
            let r = two_level_mem::core::nmsort::nmsort(
                tl,
                far,
                &NmSortConfig {
                    sim_lanes: 8,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(r.output.as_slice_uncharged());
        }
        "nmsort_dma" => {
            // The DMA-pipelined NMsort golden is NEW with the staging
            // arena (there was no overlapped engine to pin before it):
            // its 3-buffer geometry stages smaller chunks, so its totals
            // legitimately differ from "nmsort" — while the blocking
            // goldens above stay byte-identical across the arena
            // refactor, which is the invariant that pins the arena's
            // exact-fit accounting.
            let r = two_level_mem::core::nmsort::nmsort(
                tl,
                far,
                &NmSortConfig {
                    sim_lanes: 8,
                    threads: 1,
                    use_dma: true,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(r.output.as_slice_uncharged());
        }
        "seqsort" => {
            let (out, _) = seq_scratchpad_sort(
                tl,
                far,
                &SeqSortConfig {
                    lanes: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(out.as_slice_uncharged());
        }
        "parsort" => {
            let (out, _) = par_scratchpad_sort(
                tl,
                far,
                &ParSortConfig {
                    lanes: 8,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(out.as_slice_uncharged());
        }
        "baseline" => {
            let r = baseline_sort(
                tl,
                far,
                &BaselineConfig {
                    sim_lanes: 4,
                    threads: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_sorted(r.output.as_slice_uncharged());
        }
        "spms" | "squaresort" => {
            let cfg = ObliviousConfig {
                lanes: 8,
                threads: 1,
                ..Default::default()
            };
            let (out, _report) = if name == "spms" {
                spms_sort(tl, far, &cfg).unwrap()
            } else {
                squaresort_sort(tl, far, &cfg).unwrap()
            };
            assert_sorted(out.as_slice_uncharged());
        }
        other => panic!("unknown sorter {other}"),
    }
}

fn assert_sorted(v: &[u64]) {
    assert!(v.windows(2).all(|w| w[0] <= w[1]), "output must be sorted");
    assert_eq!(v.len(), N);
}

/// Assert `snap` serializes byte-identically to the committed golden
/// (or bless it when `TLMM_BLESS` is set), including the typed
/// round-trip — see `tlmm_testkit::check_golden`.
fn check_against_golden(name: &str, snap: &CostSnapshot, context: &str) {
    tlmm_testkit::check_golden(&tlmm_testkit::golden_path(GOLDEN_DIR, name), snap, context);
}

/// Render a trace as a JSON array with one phase per line, so a golden
/// diff points at the phase that moved.
fn render_trace(trace: &PhaseTrace) -> String {
    let phases: Vec<String> = trace
        .phases
        .iter()
        .map(|p| serde::json::to_string(p).expect("phase serializes"))
        .collect();
    format!("[\n{}\n]", phases.join(",\n"))
}

fn check_trace_golden(name: &str, trace: &PhaseTrace) {
    let path = tlmm_testkit::golden_path(GOLDEN_DIR, &format!("{name}.trace"));
    tlmm_testkit::check_golden_str(&path, &render_trace(trace), "no executor");
}

const SORTERS: [&str; 7] = [
    "nmsort",
    "nmsort_dma",
    "seqsort",
    "parsort",
    "baseline",
    "spms",
    "squaresort",
];

#[test]
fn all_sorters_match_their_golden_ledgers() {
    for name in SORTERS {
        let (snap, _) = run_sorter(name, None);
        check_against_golden(name, &snap, "no executor");
    }
}

#[test]
fn nmsort_traces_match_their_goldens() {
    for name in ["nmsort", "nmsort_dma"] {
        let (_, trace) = run_sorter(name, None);
        check_trace_golden(name, &trace);
    }
}

#[test]
fn faulted_dma_pipeline_trace_matches_its_golden() {
    // Five chunks, so the DMA pipeline primes chunk 0 and overlaps the
    // ingest of chunks 1..4 with the sort of their predecessor. The plan
    // aborts two DMA issues (sync fallback), fails the first four
    // far→near preflights (the priming ingest exhausts its re-stage budget
    // and is forced through), and delays a share of transfers.
    let tl = tl();
    let mut plan = FaultPlan::none(0x7EA5)
        .fail_kth(FaultOp::DmaIssue, 1)
        .fail_kth(FaultOp::DmaIssue, 4);
    for k in 0..4 {
        plan = plan.fail_kth(FaultOp::FarToNear, k);
    }
    plan.transfer_delay_permille = 250;
    tl.install_fault_plan(plan);
    let far = tl.far_from_vec(input());
    let r = two_level_mem::core::nmsort::nmsort(
        &tl,
        far,
        &NmSortConfig {
            sim_lanes: 8,
            threads: 1,
            use_dma: true,
            chunk_elems: Some(N / 5),
            ..Default::default()
        },
    )
    .unwrap();
    assert_sorted(r.output.as_slice_uncharged());
    assert_eq!(r.chunks, 5);
    let d = r.degradations;
    assert!(d.dma_fallbacks > 0, "{d:?}");
    assert!(d.transfer_retries > 0, "{d:?}");
    assert!(d.forced_ops > 0, "{d:?}");
    assert!(d.transfer_delays > 0, "{d:?}");
    check_trace_golden("nmsort_dma_faulted", &tl.take_trace());
}

#[test]
fn golden_ledgers_replay_across_workers_and_seeds() {
    for name in SORTERS {
        for p in [1usize, 2, 8] {
            for seed in [1u64, 42] {
                let slots = p.min(2);
                let exec = tlmm_scratchpad::ExecConfig::deterministic(p, slots, seed);
                let (snap, _) = run_sorter(name, Some(exec));
                check_against_golden(name, &snap, &format!("p={p} p'={slots} seed={seed}"));
            }
        }
    }
}

#[test]
fn golden_ledgers_replay_under_fully_serialized_arbiter() {
    // p' = 1: every transfer in the whole sort funnels through a single
    // slot — the sequential-engine equivalence of the acceptance criteria.
    for name in SORTERS {
        let exec = tlmm_scratchpad::ExecConfig::deterministic(8, 1, 7);
        let (snap, _) = run_sorter(name, Some(exec));
        check_against_golden(name, &snap, "p=8 p'=1");
    }
}

/// One worker's row of the executor report, as pinned by the schedule
/// golden.
#[derive(serde::Serialize)]
struct WorkerSchedule {
    transfers: u64,
    bytes: u64,
    wait_units: u64,
    clock_units: u64,
}

/// A run's ledger and virtual-time arbitration summary.
#[derive(serde::Serialize)]
struct RunSchedule {
    run: String,
    cost: CostSnapshot,
    makespan_units: u64,
    total_wait_units: u64,
    total_bytes: u64,
    transfers: u64,
    per_slot_busy_units: Vec<u64>,
    per_worker: Vec<WorkerSchedule>,
}

/// One phase's per-lane slot waits.
#[derive(serde::Serialize)]
struct PhaseWaits {
    run: String,
    phase: String,
    slot_wait_units: Vec<u64>,
}

/// Render a finished run on `tl` (whose phase trace is `trace`) as
/// schedule-golden lines: one summary line, then one line per phase.
fn schedule_lines(run: &str, tl: &TwoLevel, trace: PhaseTrace) -> Vec<String> {
    let r = tl
        .executor()
        .expect("schedule runs install an executor")
        .report();
    let summary = RunSchedule {
        run: run.to_string(),
        cost: tl.ledger().snapshot(),
        makespan_units: r.makespan_units,
        total_wait_units: r.total_wait_units,
        total_bytes: r.total_bytes,
        transfers: r.transfers,
        per_slot_busy_units: r.per_slot_busy_units,
        per_worker: r
            .per_worker
            .iter()
            .map(|w| WorkerSchedule {
                transfers: w.transfers,
                bytes: w.bytes,
                wait_units: w.wait_units,
                clock_units: w.clock_units,
            })
            .collect(),
    };
    let mut lines = vec![serde::json::to_string(&summary).expect("summary serializes")];
    for p in trace.phases {
        let waits = PhaseWaits {
            run: run.to_string(),
            phase: p.name,
            slot_wait_units: p.lanes.iter().map(|l| l.slot_wait_units).collect(),
        };
        lines.push(serde::json::to_string(&waits).expect("phase serializes"));
    }
    lines
}

/// A fresh memory under the schedule golden's executor.
fn scheduled_tl() -> TwoLevel {
    let tl = tl();
    tl.install_executor(tlmm_scratchpad::ExecConfig::deterministic(8, 2, 42))
        .unwrap();
    tl
}

/// NMsort of `input` in five chunks, so Phase 2 gathers, merges and
/// writes out batches; `n_pivots` overrides the default bucket count.
fn nmsort_five_chunks(
    tl: &TwoLevel,
    input: Vec<u64>,
    n_pivots: Option<usize>,
) -> NmSortReport<u64> {
    let far = tl.far_from_vec(input);
    let r = two_level_mem::core::nmsort::nmsort(
        tl,
        far,
        &NmSortConfig {
            sim_lanes: 8,
            threads: 1,
            chunk_elems: Some(N / 5),
            n_pivots,
            ..Default::default()
        },
    )
    .unwrap();
    assert_sorted(r.output.as_slice_uncharged());
    assert_eq!(r.chunks, 5);
    r
}

#[test]
fn exec_schedule_matches_its_golden() {
    let mut lines = Vec::new();
    for name in SORTERS {
        let tl = scheduled_tl();
        sort_canonical(&tl, name);
        lines.extend(schedule_lines(name, &tl, tl.take_trace()));
    }

    let tl = scheduled_tl();
    nmsort_five_chunks(&tl, input(), None);
    lines.extend(schedule_lines("nmsort_five_chunks", &tl, tl.take_trace()));

    // A skewed input over few buckets, so a bucket overflows the gather
    // buffer: it is sub-split, and at least one part is staged through the
    // scratchpad (its gather phase directly follows the sub-split).
    let tl = scheduled_tl();
    let skewed = generate(Workload::Zipf(1.2), N, DATA_SEED);
    let r = nmsort_five_chunks(&tl, skewed, Some(8));
    assert!(r.oversized_buckets >= 1, "{}", r.oversized_buckets);
    let trace = tl.take_trace();
    assert!(
        trace
            .phases
            .windows(2)
            .any(|w| w[0].name == "nmsort.p2.subsplit" && w[1].name == "nmsort.p2.gather"),
        "no oversized-bucket part was staged through the scratchpad"
    );
    lines.extend(schedule_lines("nmsort_oversized", &tl, trace));

    let path = tlmm_testkit::golden_path(GOLDEN_DIR, "exec_schedule");
    let rendered = format!("[\n{}\n]", lines.join(",\n"));
    tlmm_testkit::check_golden_str(&path, &rendered, "p=8 p'=2 seed=42");
}
