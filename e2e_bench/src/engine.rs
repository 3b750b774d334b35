//! One timed call into a sort engine through the crates' public entry
//! points, with its output checked outside the timed region.

use std::time::Instant;
use tlmm_core::baseline::{baseline_sort, BaselineConfig};
use tlmm_core::nmsort::{nmsort, NmSortConfig};
use tlmm_core::oblivious::{spms_sort, squaresort_sort, ObliviousConfig};
use tlmm_core::SortError;
use tlmm_memsim::MachineConfig;
use tlmm_model::{CostSnapshot, Engine};
use tlmm_scratchpad::{FarArray, PhaseTrace, TwoLevel};
use tlmm_telemetry::SpanRecord;

use crate::verify::{Checker, Fingerprint};

/// Simulated lanes of every engine run (the ledger depends on them, not on
/// host threads).
pub const LANES: usize = 8;

/// The replay machine of `sim_s`: the paper's Fig. 4 node, 8 cores, ρ = 8.
pub fn machine() -> MachineConfig {
    MachineConfig::fig4(8, 8.0)
}

/// What one timed call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `slice::sort_unstable` on a host copy: the reference floor.
    Std,
    /// A repository engine at the given host thread count.
    Sort(Engine, usize),
}

impl Call {
    pub fn label(self) -> String {
        match self {
            Call::Std => "std_sort".into(),
            Call::Sort(e, t) => format!("{}_t{t}", e.name()),
        }
    }
}

/// A finished, verified call.
pub struct Done {
    pub secs: f64,
    pub ledger: CostSnapshot,
    pub trace: PhaseTrace,
    /// Spans the call recorded, with the benchmark's own span when traced.
    pub spans: Vec<SpanRecord>,
}

fn sort_engine(
    tl: &TwoLevel,
    e: Engine,
    input: FarArray<u64>,
    threads: usize,
) -> Result<FarArray<u64>, SortError> {
    let oblivious = ObliviousConfig {
        lanes: LANES,
        threads,
        ..Default::default()
    };
    match e {
        Engine::NmSort | Engine::NmSortDma => {
            let cfg = NmSortConfig {
                sim_lanes: LANES,
                threads,
                use_dma: e == Engine::NmSortDma,
                ..Default::default()
            };
            nmsort(tl, input, &cfg).map(|r| r.output)
        }
        Engine::Baseline => {
            let cfg = BaselineConfig {
                sim_lanes: LANES,
                threads,
                ..Default::default()
            };
            baseline_sort(tl, input, &cfg).map(|r| r.output)
        }
        Engine::Spms => spms_sort(tl, input, &oblivious).map(|(out, _)| out),
        Engine::SquareSort => squaresort_sort(tl, input, &oblivious).map(|(out, _)| out),
    }
}

enum Output {
    Host(Vec<u64>),
    Far(FarArray<u64>),
}

/// Run `call` on a copy of `input` (already in far memory for the engines)
/// and check its output. `span` names the benchmark's own span around the
/// call, in traced runs only. Returns `None` when the engine returned an
/// error.
pub fn run(
    tl: &TwoLevel,
    call: Call,
    input: &[u64],
    fp: Fingerprint,
    span: Option<&str>,
    ck: &mut Checker,
) -> Option<Done> {
    tl.reset_accounting();
    drop(tlmm_telemetry::take_spans());
    let copy = input.to_vec();
    let (result, secs) = {
        let _span = span.map(tlmm_telemetry::enter);
        match call {
            Call::Std => {
                let mut v = copy;
                let t0 = Instant::now();
                v.sort_unstable();
                (Ok(Output::Host(v)), t0.elapsed().as_secs_f64())
            }
            Call::Sort(e, threads) => {
                let far = tl.far_from_vec(copy);
                let t0 = Instant::now();
                let r = sort_engine(tl, e, far, threads);
                (r.map(Output::Far), t0.elapsed().as_secs_f64())
            }
        }
    };
    let spans = tlmm_telemetry::take_spans();
    let ledger = tl.ledger().snapshot();
    let trace = tl.take_trace();
    let label = call.label();
    match result {
        Err(e) => {
            ck.op_failed(&label, e);
            None
        }
        Ok(mut out) => {
            let out = match &mut out {
                Output::Host(v) => v.as_mut_slice(),
                Output::Far(f) => f.as_mut_slice_uncharged(),
            };
            ck.output(&label, out, fp);
            ck.invariant(tl.near_used_bytes() == 0, || {
                format!("{label} left scratchpad memory allocated")
            });
            Some(Done {
                secs,
                ledger,
                trace,
                spans,
            })
        }
    }
}
