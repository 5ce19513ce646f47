//! # syrk-machine — a simulated α-β-γ distributed-memory machine
//!
//! This crate is the parallel-machine substrate for the SPAA '23 paper
//! *Parallel Memory-Independent Communication Bounds for SYRK*
//! (Al Daas, Ballard, Grigori, Kumar, Rouse). The paper analyses
//! algorithms in the MPI / α-β-γ model (§3.2):
//!
//! * `P` processors, each with its own local memory,
//! * a fully connected network with bidirectional links,
//! * a message of `w` words costs `α + β·w`; a flop costs `γ`,
//! * collectives (`All-to-All`, `Reduce-Scatter`) use pairwise-exchange
//!   algorithms with latency `P − 1` and bandwidth `(1 − 1/P)·w`.
//!
//! [`Machine::try_run`] executes an SPMD closure on every rank, as
//! cooperatively scheduled contexts on a deterministic discrete-event
//! loop (scaling to 10⁵ ranks in one process where the target has a
//! native context switch); ranks communicate through [`Comm`] (typed
//! point-to-point, MPI-style collectives, sub-communicators). All data
//! movement is *real* — the
//! algorithms built on top compute actual numerical results — and every
//! word is metered, so measured communication can be compared directly
//! against the paper's lower bounds.
//!
//! There is one API and it returns `Result`: every communication method
//! (`try_send`, `try_recv`, `try_exchange` and the `try_*` collectives)
//! and the runner itself fail with a typed [`MachineError`] — an injected
//! crash, a deadlock with its wait-for graph, a payload of the wrong type,
//! a failed peer. A rank that panics on a broken caller contract (a
//! destination out of range, segment lengths the ranks disagree on) is
//! caught and reported as [`MachineError::RankPanicked`] instead of
//! taking the process down. [`Comm::split`] is the one communicator
//! method without a `Result`: it panics if the run fails while the rank
//! waits for its membership, and that panic is reported the same way.
//!
//! ```
//! use syrk_machine::{Machine, MachineError};
//!
//! let out = Machine::new(3).try_run(|comm| {
//!     let blocks: Vec<Vec<f64>> = (0..comm.size())
//!         .map(|q| vec![(comm.rank() * 10 + q) as f64])
//!         .collect();
//!     let recv = comm.try_all_to_all(blocks)?;
//!     Ok(recv.iter().map(|b| b[0]).sum::<f64>())
//! })?;
//! // Rank 1 receives 01, 11, 21.
//! assert_eq!(out.results[1], 1.0 + 11.0 + 21.0);
//! assert_eq!(out.cost.max_words_sent(), 2); // (1 - 1/P)·w with w = 3
//! # Ok::<(), MachineError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod collectives;
mod comm;
mod context;
mod cost;
pub mod dump;
mod engine;
mod envelope;
mod error;
pub mod export;
mod fault;
mod machine;
mod metrics;
mod sync;
mod topology;
mod trace;

/// Re-export of the workspace telemetry crate: the metrics registry,
/// the wall-clock flight recorder, and their exporters. The machine's
/// counters (`syrk_coll_*`, `syrk_fault_*`, `syrk_retry_*`) land on this
/// registry; `telemetry::flight::enable()` turns on wall-clock recording
/// for [`chrome_trace_json_with_wall`] and failure dumps.
pub use syrk_telemetry as telemetry;

pub use collectives::{CollectiveAlg, ReduceScatterAlg};
pub use comm::{
    Comm, PhaseScope, RECOVER_AGREE_PHASE, RECOVER_BACKOFF_PHASE, RECOVER_DETECT_PHASE,
    RECOVER_REDISTRIBUTE_PHASE,
};
pub use cost::{CostModel, CostReport, PhaseCost, PhaseRow, PhaseTable, RankCost};
pub use envelope::Payload;
pub use error::{DeadlockInfo, MachineError, WaitEdge};
pub use export::{chrome_trace_json, chrome_trace_json_with_wall, timelines_csv};
pub use fault::FaultPlan;
pub use machine::{EngineKind, Machine, RunOutput};
pub use topology::{GridComms, ProcessGrid};
pub use trace::{Event, EventKind, Timeline};
