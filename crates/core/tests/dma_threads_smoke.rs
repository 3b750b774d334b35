//! The DMA pipeline's host-thread count must be invisible to the model:
//! with `threads > 1` the next chunk's gather runs on a scoped worker while
//! the current chunk sorts, with `threads == 1` it is copied inline at
//! issue time. Both schedules must produce the same ledger, the same phase
//! trace and the same staging-arena transfer record.
//!
//! The arena record is read from the process-wide `arena.*` telemetry
//! counters, so this binary holds exactly one test.

use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_model::{CostSnapshot, ScratchpadParams};
use tlmm_scratchpad::{ArenaStats, TwoLevel};

fn arena_counters() -> ArenaStats {
    let reg = tlmm_telemetry::registry();
    ArenaStats {
        issued: reg.counter("arena.transfer_issued").get(),
        retired: reg.counter("arena.transfer_retired").get(),
        sync_transfers: reg.counter("arena.sync_transfer").get(),
        ..Default::default()
    }
}

fn run(threads: usize) -> (CostSnapshot, String, ArenaStats) {
    let tl = TwoLevel::new(ScratchpadParams::new(64, 4.0, 1 << 20, 16 << 10).unwrap());
    let v: Vec<u64> = (0..300_000u64).rev().collect();
    let input = tl.far_from_vec(v);
    let cfg = NmSortConfig {
        use_dma: true,
        threads,
        ..Default::default()
    };
    let before = arena_counters();
    let r = nmsort(&tl, input, &cfg).unwrap();
    let after = arena_counters();
    assert!(r.chunks > 2, "the pipeline needs several chunks");
    assert!(r
        .output
        .as_slice_uncharged()
        .windows(2)
        .all(|w| w[0] <= w[1]));
    let arena = ArenaStats {
        issued: after.issued - before.issued,
        retired: after.retired - before.retired,
        sync_transfers: after.sync_transfers - before.sync_transfers,
        ..Default::default()
    };
    let trace = serde::json::to_string(&tl.take_trace()).expect("trace serializes");
    (tl.ledger().snapshot(), trace, arena)
}

#[test]
fn dma_pipelined_with_host_threads_matches_sequential() {
    let (snap_threaded, trace_threaded, arena_threaded) = run(2);
    let (snap_inline, trace_inline, arena_inline) = run(1);
    assert_eq!(snap_threaded, snap_inline);
    assert!(
        trace_threaded == trace_inline,
        "phase traces differ between threads=2 and threads=1"
    );
    assert_eq!(arena_threaded, arena_inline);
    // Every chunk after the first was gathered through a pending transfer.
    assert!(arena_threaded.issued > 0);
    assert_eq!(arena_threaded.issued, arena_threaded.retired);
}
