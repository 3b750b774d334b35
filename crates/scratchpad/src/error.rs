//! Runtime errors of the two-level memory.

use tlmm_model::params::ParamError;

/// Errors raised by allocation, staging-arena and fault-injection operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpError {
    /// The [`tlmm_model::ScratchpadParams`] handed to
    /// [`crate::TwoLevel::try_new`] are invalid (zero scratchpad, near
    /// block larger than the scratchpad, bad ρ, …) — surfaced as a typed
    /// error at construction instead of a panic or an underflow deep in
    /// `near_alloc`.
    BadParams(ParamError),
    /// A cooperative cancellation point fired: the job's
    /// [`crate::CancelToken`] was cancelled or its deadline budget ran out.
    /// Raised only from [`crate::TwoLevel::checkpoint`] at phase
    /// boundaries, so scratchpad state is always consistent (and near
    /// allocations are released by RAII on unwind-free early return).
    Cancelled,
    /// A near (scratchpad) allocation would exceed the capacity `M`.
    /// This is the defining constraint of the architecture: the scratchpad
    /// "cannot replace DRAM entirely" (§I).
    NearCapacityExceeded {
        /// Bytes the allocation asked for.
        requested: u64,
        /// Bytes still available in the scratchpad.
        available: u64,
    },
    /// An installed [`crate::fault::FaultPlan`] failed this operation.
    /// Injected transfer failures are charged in full (the payload moved
    /// and was lost); callers are expected to degrade, not crash.
    FaultInjected {
        /// The operation class that was hit.
        op: crate::fault::FaultOp,
        /// 0-based index of the operation within its class.
        index: u64,
    },
    /// A transfer was issued against a staging-arena generation that has
    /// already been freed. Generations are never reused while live, so
    /// this always means the caller kept a handle past the buffer's drop.
    StaleGeneration {
        /// The dead generation the caller presented.
        generation: u64,
    },
    /// A retire was presented for a transfer id that is not pending:
    /// either it was never issued or it has already been retired
    /// (double-retire). The arena keeps issue/retire strictly paired.
    TransferNotPending {
        /// The offending transfer id.
        id: u64,
    },
}

impl SpError {
    /// Is this error a deliberate injection (as opposed to a genuine
    /// capacity violation)? Degradation ladders retry these.
    pub fn is_injected(&self) -> bool {
        matches!(self, SpError::FaultInjected { .. })
    }
}

impl core::fmt::Display for SpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpError::BadParams(e) => write!(f, "invalid scratchpad parameters: {e}"),
            SpError::Cancelled => write!(f, "job cancelled at a phase boundary"),
            SpError::NearCapacityExceeded {
                requested,
                available,
            } => write!(
                f,
                "scratchpad capacity exceeded: requested {requested} B, {available} B available"
            ),
            SpError::FaultInjected { op, index } => {
                write!(f, "injected fault: {} op #{index}", op.name())
            }
            SpError::StaleGeneration { generation } => {
                write!(
                    f,
                    "transfer issued against dead arena generation {generation}"
                )
            }
            SpError::TransferNotPending { id } => {
                write!(
                    f,
                    "transfer #{id} is not pending (never issued or already retired)"
                )
            }
        }
    }
}

impl std::error::Error for SpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SpError::NearCapacityExceeded {
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("10"));
        let e = SpError::TransferNotPending { id: 7 };
        assert!(e.to_string().contains("#7"));
    }
}
