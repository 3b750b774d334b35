//! The inputs of one workload in far memory, and a pass of one call over
//! all of them.

use tlmm_memsim::simulate_flow;
use tlmm_model::{CostSnapshot, Engine};
use tlmm_scratchpad::{PhaseTrace, TwoLevel};

use crate::engine::{self, machine, Call};
use crate::layers::{Phases, SpanAgg};
use crate::verify::{Checker, Fingerprint};

pub struct Job {
    pub input: Vec<u64>,
    pub fp: Fingerprint,
}

impl Job {
    pub fn new(input: Vec<u64>) -> Job {
        let fp = Fingerprint::of(&input);
        Job { input, fp }
    }
}

/// A two-level memory and the inputs each call sorts, one after another.
pub struct Bed {
    pub tl: TwoLevel,
    pub jobs: Vec<Job>,
}

/// The traced side of a pass: phase attribution and the span aggregate.
pub struct Tracing<'a> {
    pub phases: &'a mut Phases,
    pub spans: &'a mut SpanAgg,
}

/// What one pass of a call over every job measured.
#[derive(Default)]
pub struct Pass {
    /// Host wall of each call in job order, seconds (NaN for a call that
    /// failed).
    pub walls: Vec<f64>,
    /// Ledger of each call, in job order.
    pub ledgers: Vec<CostSnapshot>,
    /// Summed simulated seconds on [`machine`].
    pub sim_s: f64,
    pub overlapped_pairs: u64,
    pub overlap_saved_s: f64,
    /// Phase trace of the last call.
    pub last_trace: PhaseTrace,
}

/// Root span and phase-name prefix of an engine's spans.
fn span_names(e: Engine) -> Option<(&'static str, &'static str)> {
    match e {
        Engine::NmSort | Engine::NmSortDma => Some(("nmsort", "nmsort.")),
        Engine::Baseline => Some(("baseline_sort", "baseline.")),
        Engine::Spms | Engine::SquareSort => None,
    }
}

impl Bed {
    pub fn pass(&self, call: Call, mut tracing: Option<Tracing<'_>>, ck: &mut Checker) -> Pass {
        let mut pass = Pass::default();
        let span = format!("bench.{}", call.label());
        for job in &self.jobs {
            let traced_span = tracing.as_ref().map(|_| span.as_str());
            let Some(done) = engine::run(&self.tl, call, &job.input, job.fp, traced_span, ck)
            else {
                pass.walls.push(f64::NAN);
                continue;
            };
            pass.walls.push(done.secs);
            if let Call::Sort(e, _) = call {
                let sim = simulate_flow(&done.trace, &machine());
                pass.sim_s += sim.seconds;
                pass.overlapped_pairs += sim.overlapped_pairs;
                pass.overlap_saved_s += sim.overlap_saved_seconds;
                if let (Some(t), Some((root, prefix))) = (tracing.as_mut(), span_names(e)) {
                    t.phases.add(&done, root, prefix);
                }
            }
            if let Some(t) = tracing.as_mut() {
                t.spans.add(&done.spans);
            }
            pass.ledgers.push(done.ledger);
            pass.last_trace = done.trace;
        }
        pass
    }
}

impl Pass {
    /// Mean host wall per call, seconds.
    pub fn mean(&self) -> f64 {
        self.walls.iter().sum::<f64>() / self.walls.len().max(1) as f64
    }
}
