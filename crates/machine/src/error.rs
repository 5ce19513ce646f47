//! Structured errors for the simulated machine.
//!
//! The machine distinguishes *programmer errors* (mismatched collective
//! arguments, unbalanced phase pops, out-of-range ranks — these stay
//! panics, as in MPI debug builds) from *runtime failures* that a robust
//! caller may want to observe and handle: a crashed or panicked peer, a
//! deadlocked communication pattern, or a payload whose type does not
//! match the receive. The latter are
//! [`MachineError`]s, produced by the `try_*` APIs on
//! [`Comm`](crate::Comm) and [`Machine::try_run`](crate::Machine::try_run).

use std::fmt;

/// What a blocked rank was waiting for when a deadlock was declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitEdge {
    /// World rank of the blocked processor.
    pub from: usize,
    /// World rank it is waiting to hear from.
    pub to: usize,
    /// Blocking operation: `"recv"`, `"exchange"`, or a collective name.
    pub op: &'static str,
    /// `(communicator id, user tag)` the receive is matching on.
    pub tag: (u64, u64),
    /// The innermost cost phase active on the blocked rank, if any.
    pub phase: Option<&'static str>,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} waits on rank {} ({} tag {:?}",
            self.from, self.to, self.op, self.tag
        )?;
        if let Some(p) = self.phase {
            write!(f, ", phase {p:?}")?;
        }
        write!(f, ")")
    }
}

/// Wait-for-graph diagnostic produced by the scheduler when no rank can
/// run: one edge per blocked rank, plus the set of ranks that had already
/// finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// One wait-for edge per rank that was blocked when the run stalled.
    pub edges: Vec<WaitEdge>,
    /// Ranks that had already returned from the SPMD closure.
    pub finished: Vec<usize>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadlock: all {} live ranks blocked with no progress",
            self.edges.len()
        )?;
        for e in &self.edges {
            write!(f, "\n  {e}")?;
        }
        if !self.finished.is_empty() {
            write!(f, "\n  finished ranks: {:?}", self.finished)?;
        }
        Ok(())
    }
}

/// A runtime failure of a machine run, returned by the `try_*` APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// Every live rank was blocked in a receive with no message in flight;
    /// the scheduler aborted the run instead of hanging.
    Deadlock(DeadlockInfo),
    /// A rank was killed by an injected crash fault
    /// (see [`FaultPlan::crash_rank`](crate::FaultPlan::crash_rank)).
    RankCrashed {
        /// World rank that crashed.
        rank: usize,
        /// Number of communication operations it completed first.
        after_ops: u64,
    },
    /// A rank's closure panicked; the payload's message is preserved.
    RankPanicked {
        /// World rank that panicked.
        rank: usize,
        /// Panic message, when it was a string payload.
        message: String,
    },
    /// A rank aborted because another rank had already failed; the first
    /// failure is reported separately (this is the cascade, not the cause).
    PeerFailed {
        /// World rank that observed the failure.
        rank: usize,
    },
    /// A rank's output failed an algorithm-level checksum verification
    /// (ABFT): the run produced data, but the data is wrong. Unlike a
    /// crash this does not shrink the world — the same grid can retry.
    DataCorruption {
        /// World rank whose output failed verification.
        rank: usize,
        /// Human-readable description of the failed check (which block,
        /// which row, and the localized column when identifiable).
        detail: String,
    },
    /// The matched message's payload was not of the requested type.
    TypeMismatch {
        /// Group rank performing the receive.
        rank: usize,
        /// Group rank of the sender.
        src: usize,
        /// User tag of the message.
        tag: u64,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Deadlock(info) => write!(f, "{info}"),
            MachineError::RankCrashed { rank, after_ops } => {
                write!(
                    f,
                    "rank {rank}: injected crash after {after_ops} operations"
                )
            }
            MachineError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            MachineError::PeerFailed { rank } => {
                write!(f, "rank {rank}: aborted because another rank failed first")
            }
            MachineError::DataCorruption { rank, detail } => {
                write!(
                    f,
                    "rank {rank}: output failed checksum verification: {detail}"
                )
            }
            MachineError::TypeMismatch { rank, src, tag } => {
                write!(
                    f,
                    "rank {rank}: type mismatch receiving from {src} tag {tag}"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_display_lists_edges() {
        let info = DeadlockInfo {
            edges: vec![
                WaitEdge {
                    from: 0,
                    to: 1,
                    op: "recv",
                    tag: (0, 7),
                    phase: Some("ring"),
                },
                WaitEdge {
                    from: 1,
                    to: 0,
                    op: "recv",
                    tag: (0, 8),
                    phase: None,
                },
            ],
            finished: vec![2],
        };
        let s = MachineError::Deadlock(info).to_string();
        assert!(s.contains("rank 0 waits on rank 1"));
        assert!(s.contains("rank 1 waits on rank 0"));
        assert!(s.contains("phase \"ring\""));
        assert!(s.contains("finished ranks: [2]"));
    }

    #[test]
    fn error_messages_name_the_rank() {
        let e = MachineError::RankCrashed {
            rank: 3,
            after_ops: 12,
        };
        assert_eq!(e.to_string(), "rank 3: injected crash after 12 operations");
        let e = MachineError::TypeMismatch {
            rank: 1,
            src: 0,
            tag: 9,
        };
        assert!(e.to_string().contains("type mismatch"));
    }
}
