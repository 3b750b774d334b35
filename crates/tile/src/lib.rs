//! Tiled dense kernels on a two-level memory.
//!
//! §VII of the paper closes with "It remains to determine what other kinds
//! of algorithms can run efficiently on a scratchpad architecture." This
//! crate answers with the classic data-reuse kernel: blocked matrix
//! multiply. `C = A·B` touches every element of `B` once **per tile-row of
//! A** — reuse the scratchpad monetizes directly, unlike the single-scan
//! kernels §I warns about.
//!
//! Two implementations share numerics exactly:
//!
//! * [`gemm_far`] — classic cache-blocked GEMM; every panel of `B` streams
//!   from DRAM each time it is needed.
//! * [`gemm_near`] — stages panels of `B` (and the active `A` stripe) in the
//!   scratchpad: `B`'s far traffic drops from `Θ(n³/√Z)` to one pass, the
//!   repeated reads hitting the `ρ×` channel instead.
//!
//! Matrices are dense, row-major `f64`, dimensions `m×k · k×n`.

use tlmm_core::extsort::RegionLevel;
use tlmm_core::par::charge_io_striped;
use tlmm_core::pool::{host_threads, run_indexed};
use tlmm_scratchpad::trace::{current_lane, with_lane};
use tlmm_scratchpad::{Dir, FarArray, SpError, TwoLevel};

/// Tuning for the GEMM variants.
#[derive(Debug, Clone)]
pub struct GemmConfig {
    /// Tile edge in elements (square tiles). Default: sized so three tiles
    /// fit the cache (`3·t² ≤ Z/8`).
    pub tile: Option<usize>,
    /// Virtual lanes (simulated cores).
    pub sim_lanes: usize,
    /// Real host parallelism over output tile rows.
    pub parallel: bool,
}

impl Default for GemmConfig {
    fn default() -> Self {
        Self {
            tile: None,
            sim_lanes: 8,
            parallel: true,
        }
    }
}

/// Simple dense matrix in far memory (row-major).
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major backing array in far memory.
    pub data: FarArray<f64>,
}

impl Matrix {
    /// Wrap a row-major vector as a far-memory matrix.
    pub fn from_vec(tl: &TwoLevel, rows: usize, cols: usize, v: Vec<f64>) -> Self {
        assert_eq!(v.len(), rows * cols, "dimension mismatch");
        Self {
            rows,
            cols,
            data: tl.far_from_vec(v),
        }
    }

    /// Random matrix with entries in [-1, 1).
    pub fn random(tl: &TwoLevel, rows: usize, cols: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let v: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Self::from_vec(tl, rows, cols, v)
    }
}

/// Tiles must fit a lane's *share* of the cache: `3·t² ≤ Z/(8·lanes)`.
fn default_tile(tl: &TwoLevel, lanes: usize) -> usize {
    let z_elems = tl.params().cache_bytes as usize / 8 / lanes.max(1);
    (((z_elems / 3) as f64).sqrt() as usize).clamp(4, 512)
}

/// The compute kernel: C_tile += A_tile · B_tile (all dense row-major
/// slices with explicit strides).
#[allow(clippy::too_many_arguments)]
fn tile_kernel(
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    mt: usize,
    nt: usize,
    kt: usize,
) {
    for i in 0..mt {
        for p in 0..kt {
            let aip = a[i * lda + p];
            let brow = &b[p * ldb..p * ldb + nt];
            let crow = &mut c[i * ldc..i * ldc + nt];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aip * bv;
            }
        }
    }
}

/// Shared blocked GEMM; `stage_b_near` selects whether the repeated reads
/// of `B` (and the `A` stripe) are charged to near or far memory.
fn gemm_impl(
    tl: &TwoLevel,
    a: &Matrix,
    b: &Matrix,
    cfg: &GemmConfig,
    stage_b_near: bool,
) -> Result<Matrix, SpError> {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let lanes = cfg.sim_lanes.max(1);
    let t = cfg.tile.unwrap_or_else(|| default_tile(tl, lanes)).max(4);
    let mut c = vec![0.0f64; m * n];
    let av = a.data.as_slice_uncharged();
    let bv = b.data.as_slice_uncharged();

    // Staging: the near variant holds all of B plus one A stripe resident.
    let _resident = if stage_b_near {
        let need = k * n + t * k;
        let avail = tl.near_available_elems::<f64>();
        if need > avail {
            return Err(SpError::NearCapacityExceeded {
                requested: (need * 8) as u64,
                available: (avail * 8) as u64,
            });
        }
        let res = tl.near_alloc::<f64>(need)?;
        tl.begin_phase("gemm.stage_b");
        charge_io_striped(tl, RegionLevel::Far, Dir::Read, (k * n * 8) as u64, lanes);
        charge_io_striped(tl, RegionLevel::Near, Dir::Write, (k * n * 8) as u64, lanes);
        tl.end_phase();
        Some(res)
    } else {
        None
    };

    tl.begin_phase("gemm.compute");
    // One work item per tile-row of C; each lane owns whole tile-rows.
    let tile_rows: Vec<usize> = (0..m).step_by(t).collect();
    let c_rows: Vec<&mut [f64]> = {
        let mut out = Vec::with_capacity(tile_rows.len());
        let mut rest = c.as_mut_slice();
        for &i0 in &tile_rows {
            let rows_here = t.min(m - i0);
            let (head, tail) = rest.split_at_mut(rows_here * n);
            out.push(head);
            rest = tail;
        }
        out
    };
    let base = current_lane();
    let n_jt = n.div_ceil(t);
    let work = |wi: usize, (&i0, c_stripe): (&usize, &mut [f64])| {
        let mt = t.min(m - i0);
        if stage_b_near {
            // The A stripe for this tile-row is staged far -> near once;
            // its repeated tile reads below then hit the scratchpad.
            with_lane(base + (wi * n_jt) % lanes, || {
                tl.charge_far_io(Dir::Read, (mt * k * 8) as u64);
                tl.charge_near_io(Dir::Write, (mt * k * 8) as u64);
            });
        }
        for (ji, j0) in (0..n).step_by(t).enumerate() {
            // Each (tile-row, tile-col) pair is one lane's work item, so a
            // many-core node sees n²/t² parallel units, not n/t.
            with_lane(base + (wi * n_jt + ji) % lanes, || {
                let nt = t.min(n - j0);
                for p0 in (0..k).step_by(t) {
                    let kt = t.min(k - p0);
                    // A tiles stream from DRAM (or the staged stripe);
                    // B tiles are re-read once per tile-row of A — the
                    // reused traffic the scratchpad accelerates.
                    if stage_b_near {
                        tl.charge_near_io(Dir::Read, ((mt * kt + kt * nt) * 8) as u64);
                    } else {
                        tl.charge_far_io(Dir::Read, ((mt * kt + kt * nt) * 8) as u64);
                    }
                    tile_kernel(
                        &av[i0 * k + p0..],
                        k,
                        &bv[p0 * n + j0..],
                        n,
                        &mut c_stripe[j0..],
                        n,
                        mt,
                        nt,
                        kt,
                    );
                    // One RAM-model op per multiply-add.
                    tl.charge_compute((mt * nt * kt) as u64);
                }
                // The finished C tile streams back to DRAM once.
                tl.charge_far_io(Dir::Write, (mt * nt * 8) as u64);
            })
        }
    };
    let threads = if cfg.parallel { host_threads() } else { 1 };
    run_indexed(threads, tile_rows.iter().zip(c_rows), work);
    tl.end_phase();
    Ok(Matrix::from_vec(tl, m, n, c))
}

/// Cache-blocked GEMM with all operands in far memory.
pub fn gemm_far(tl: &TwoLevel, a: &Matrix, b: &Matrix, cfg: &GemmConfig) -> Matrix {
    gemm_impl(tl, a, b, cfg, false).expect("far GEMM cannot exhaust the scratchpad")
}

/// Blocked GEMM with `B` (and the active `A` stripe) staged in the
/// scratchpad. Fails if `B` does not fit.
pub fn gemm_near(
    tl: &TwoLevel,
    a: &Matrix,
    b: &Matrix,
    cfg: &GemmConfig,
) -> Result<Matrix, SpError> {
    gemm_impl(tl, a, b, cfg, true)
}

/// Reference O(n³) multiply for test oracles.
pub fn gemm_reference(a: &Matrix, b: &Matrix) -> Vec<f64> {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let av = a.data.as_slice_uncharged();
    let bv = b.data.as_slice_uncharged();
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] += av[i * k + p] * bv[p * n + j];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlmm_model::ScratchpadParams;

    fn tl() -> TwoLevel {
        TwoLevel::new(ScratchpadParams::new(64, 4.0, 4 << 20, 64 << 10).unwrap())
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn far_matches_reference() {
        let tl = tl();
        for (m, k, n) in [(1, 1, 1), (7, 5, 3), (32, 32, 32), (50, 33, 71)] {
            let a = Matrix::random(&tl, m, k, 1);
            let b = Matrix::random(&tl, k, n, 2);
            let c = gemm_far(&tl, &a, &b, &GemmConfig::default());
            assert_close(c.data.as_slice_uncharged(), &gemm_reference(&a, &b));
        }
    }

    #[test]
    fn near_matches_far_exactly() {
        let tl = tl();
        let a = Matrix::random(&tl, 64, 48, 3);
        let b = Matrix::random(&tl, 48, 80, 4);
        let cfg = GemmConfig::default();
        let cf = gemm_far(&tl, &a, &b, &cfg);
        let cn = gemm_near(&tl, &a, &b, &cfg).unwrap();
        assert_eq!(
            cf.data.as_slice_uncharged(),
            cn.data.as_slice_uncharged(),
            "identical numerics"
        );
    }

    #[test]
    fn near_moves_b_from_far_only_once() {
        let tl = tl();
        let n = 128usize;
        let a = Matrix::random(&tl, n, n, 5);
        let b = Matrix::random(&tl, n, n, 6);
        let cfg = GemmConfig {
            tile: Some(16),
            parallel: false,
            ..Default::default()
        };
        gemm_near(&tl, &a, &b, &cfg).unwrap();
        let s_near = tl.ledger().snapshot();

        let tl2 = self::tests::tl();
        let a = Matrix::random(&tl2, n, n, 5);
        let b = Matrix::random(&tl2, n, n, 6);
        gemm_far(&tl2, &a, &b, &cfg);
        let s_far = tl2.ledger().snapshot();

        // Far variant re-reads B per tile-row: n/t = 8 passes of B.
        assert!(
            s_far.far_bytes > 4 * s_near.far_bytes,
            "far {} vs near {}",
            s_far.far_bytes,
            s_near.far_bytes
        );
        assert!(s_near.near_bytes > 0);
        assert_eq!(s_far.near_bytes, 0);
    }

    #[test]
    fn near_rejects_oversized_b() {
        let tl = tl();
        // B = 1024x1024 f64 = 8 MB > 4 MiB scratchpad.
        let a = Matrix::random(&tl, 8, 1024, 7);
        let b = Matrix::random(&tl, 1024, 1024, 8);
        assert!(gemm_near(&tl, &a, &b, &GemmConfig::default()).is_err());
    }

    #[test]
    fn parallel_and_sequential_identical() {
        let tl = tl();
        let a = Matrix::random(&tl, 40, 40, 9);
        let b = Matrix::random(&tl, 40, 40, 10);
        let mut cfg = GemmConfig {
            parallel: false,
            ..Default::default()
        };
        let c1 = gemm_far(&tl, &a, &b, &cfg);
        cfg.parallel = true;
        let c2 = gemm_far(&tl, &a, &b, &cfg);
        assert_eq!(c1.data.as_slice_uncharged(), c2.data.as_slice_uncharged());
    }

    #[test]
    fn lanes_receive_work() {
        let tl = tl();
        tl.begin_phase("test");
        let a = Matrix::random(&tl, 64, 32, 11);
        let b = Matrix::random(&tl, 32, 64, 12);
        gemm_far(
            &tl,
            &a,
            &b,
            &GemmConfig {
                tile: Some(8),
                sim_lanes: 8,
                parallel: false,
            },
        );
        let t = tl.take_trace();
        let active: usize = t.phases.iter().map(|p| p.active_lanes()).max().unwrap();
        assert!(active >= 8, "active lanes {active}");
    }
}
