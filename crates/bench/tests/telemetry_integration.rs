//! Harness-level telemetry checks: span/lane attribution survives the host
//! pool's worker threads, and the artifact writer produces both result
//! files.

use std::sync::Mutex;
use tlmm_bench::artifact;
use tlmm_telemetry::{span, with_lane, RunReport};

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn spans_attribute_lanes_across_pool_threads() {
    let _g = lock();
    tlmm_telemetry::reset();

    tlmm_core::pool::run_indexed(4, 0..8usize, |_, lane| {
        with_lane(lane, || {
            let _s = span!("bench_it.lane_work");
        });
    });

    let report = RunReport::collect("bench_it");
    let lane_spans: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "bench_it.lane_work")
        .collect();
    assert_eq!(lane_spans.len(), 8);
    let mut seen: Vec<u64> = lane_spans.iter().filter_map(|s| s.lane).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..8).collect::<Vec<u64>>());
}

#[test]
fn emit_writes_text_and_json_artifacts() {
    let _g = lock();
    tlmm_telemetry::reset();

    let dir = std::env::temp_dir().join(format!("tlmm-artifact-test-{}", std::process::id()));
    std::env::set_var(artifact::RESULTS_DIR_ENV, &dir);
    {
        let _s = span!("bench_it.emit");
    }
    let report = RunReport::collect("emit_test").meta("n", 1);
    let written =
        artifact::emit("emit_test", "hello artifact\n", report).expect("emit artifact files");
    std::env::remove_var(artifact::RESULTS_DIR_ENV);

    let text = std::fs::read_to_string(&written.text).expect("text artifact");
    assert_eq!(text, "hello artifact\n");
    let json = std::fs::read_to_string(&written.json).expect("json artifact");
    let back = RunReport::from_json(&json).expect("parse artifact report");
    assert_eq!(back.name, "emit_test");
    assert!(back.meta.contains_key("git_sha"), "emit stamps the git sha");
    assert!(back.spans.iter().any(|s| s.name == "bench_it.emit"));
    std::fs::remove_dir_all(&dir).ok();
}
