//! Property tests: blocked GEMM equals the reference product for arbitrary
//! shapes and tilings, in both placements.

use proptest::prelude::*;
use tlmm_model::ScratchpadParams;
use tlmm_scratchpad::TwoLevel;
use tlmm_tile::{gemm_far, gemm_near, gemm_reference, GemmConfig, Matrix};

fn tl() -> TwoLevel {
    TwoLevel::new(ScratchpadParams::new(64, 4.0, 4 << 20, 64 << 10).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_matches_reference(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        tile in 4usize..24,
        lanes in 1usize..16,
        seed in any::<u64>(),
    ) {
        let tl = tl();
        let a = Matrix::random(&tl, m, k, seed);
        let b = Matrix::random(&tl, k, n, seed ^ 1);
        let expect = gemm_reference(&a, &b);
        let cfg = GemmConfig { tile: Some(tile), sim_lanes: lanes, parallel: false };

        let cf = gemm_far(&tl, &a, &b, &cfg);
        for (x, y) in cf.data.as_slice_uncharged().iter().zip(&expect) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        let cn = gemm_near(&tl, &a, &b, &cfg).unwrap();
        prop_assert_eq!(cf.data.as_slice_uncharged(), cn.data.as_slice_uncharged());
    }

    #[test]
    fn near_gemm_far_traffic_is_bounded_by_three_passes(
        n in 16usize..64,
        tile in 4usize..16,
    ) {
        // Staged GEMM touches DRAM ~3 matrix volumes: stage B once, stage
        // each A stripe once, write C once (plus rounding slack).
        let tl = tl();
        let a = Matrix::random(&tl, n, n, 7);
        let b = Matrix::random(&tl, n, n, 8);
        let cfg = GemmConfig { tile: Some(tile), sim_lanes: 4, parallel: false };
        gemm_near(&tl, &a, &b, &cfg).unwrap();
        let s = tl.ledger().snapshot();
        let vol = (n * n * 8) as u64;
        prop_assert!(s.far_bytes <= 3 * vol + vol / 2, "far {} vs 3 passes {}", s.far_bytes, 3 * vol);
    }
}

/// An installed executor reorders the staging stripes and books slot waits,
/// but the ledger and every lane's volumes stay those of an executor-free run.
#[test]
fn executor_moves_only_the_slot_waits() {
    let run = |exec: bool| {
        let tl = tl();
        let ex = exec.then(|| {
            tl.install_executor(tlmm_scratchpad::ExecConfig::deterministic(8, 2, 42))
                .unwrap()
        });
        let a = Matrix::random(&tl, 48, 48, 7);
        let b = Matrix::random(&tl, 48, 48, 8);
        let cfg = GemmConfig {
            tile: Some(8),
            sim_lanes: 4,
            parallel: false,
        };
        gemm_near(&tl, &a, &b, &cfg).unwrap();
        let lanes: Vec<(String, Vec<_>)> = tl
            .take_trace()
            .phases
            .into_iter()
            .map(|p| {
                let lanes = p
                    .lanes
                    .into_iter()
                    .map(|l| tlmm_scratchpad::trace::LaneWork {
                        slot_wait_units: 0,
                        ..l
                    });
                (p.name, lanes.collect())
            })
            .collect();
        (tl.ledger().snapshot(), lanes, ex.map(|e| e.report()))
    };
    let (free_cost, free_lanes, _) = run(false);
    let (exec_cost, exec_lanes, report) = run(true);
    assert_eq!(free_cost, exec_cost);
    assert_eq!(free_lanes, exec_lanes);
    let staged = &free_lanes
        .iter()
        .find(|(n, _)| n == "gemm.stage_b")
        .unwrap()
        .1;
    assert_eq!(staged.len(), 4, "B is staged in one stripe per lane");
    let report = report.unwrap();
    assert!(report.transfers > 0);
    assert_eq!(
        report.total_bytes,
        exec_cost.far_bytes + exec_cost.near_bytes
    );
}
