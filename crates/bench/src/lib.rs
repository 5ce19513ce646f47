//! # syrk-bench — experiment harness
//!
//! Regenerates every table and figure of the SPAA '23 SYRK paper from the
//! implementation (see DESIGN.md's per-experiment index). The
//! `experiments` binary prints aligned text tables and writes CSVs;
//! `plan` and `trace` are the planner and phase-trace CLIs. Wall-clock
//! numbers are not measured here: that is `syrkbench` (`benchmark/`).

#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod trace;

pub use experiments::{all, Experiment};
pub use table::{fnum, Table};
