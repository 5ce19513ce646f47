//! Typed errors of `run` and the fallible `try_syrk_*` wrappers.

use crate::planner::PlanError;
use syrk_machine::MachineError;

/// Why a fallible SYRK run failed: either the requested configuration was
/// rejected before any rank started ([`PlanError`]) or the simulated
/// machine aborted mid-run ([`MachineError`] — crash, deadlock, peer
/// failure, …).
#[derive(Debug, Clone, PartialEq)]
pub enum SyrkError {
    /// The grid/shape configuration is invalid.
    Plan(PlanError),
    /// The simulated machine failed during the run.
    Machine(MachineError),
}

impl std::fmt::Display for SyrkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyrkError::Plan(e) => write!(f, "invalid SYRK plan: {e}"),
            SyrkError::Machine(e) => write!(f, "machine failure: {e}"),
        }
    }
}

impl std::error::Error for SyrkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SyrkError::Plan(e) => Some(e),
            SyrkError::Machine(e) => Some(e),
        }
    }
}

impl From<PlanError> for SyrkError {
    fn from(e: PlanError) -> Self {
        SyrkError::Plan(e)
    }
}

impl From<MachineError> for SyrkError {
    fn from(e: MachineError) -> Self {
        SyrkError::Machine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_carry_the_cause() {
        let e = SyrkError::from(PlanError::UnsupportedOrder { c: 4 });
        assert!(e.to_string().contains("no triangle block construction"));
        assert!(e.source().is_some());
        let e = SyrkError::from(MachineError::PeerFailed { rank: 3 });
        assert!(e.to_string().contains("machine failure"));
    }
}
