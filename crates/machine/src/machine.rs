//! The SPMD runner: executes the user closure on every simulated rank and
//! collects results plus the cost report.
//!
//! Every rank is a suspendable context (see [`crate::context`]) advanced
//! by one discrete-event loop in deterministic α-β-γ clock order (see
//! [`crate::engine`]). With the native context switch 10⁴–10⁵-rank runs
//! fit in one process, and deadlock detection is exact: an empty ready
//! queue with live ranks *is* the deadlock.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::comm::{Comm, World};
use crate::context::{Body, Context, Coroutine};
use crate::cost::{CostModel, CostReport};
use crate::engine::EventState;
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::sync::Mutex;

/// The scheduler's name for the `syrkbench` host fingerprint
/// (`benchmark/src/host.rs`), which is the only caller of
/// [`Machine::selected_engine`]; there is nothing to select. Goes when the
/// harness stops asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Cooperatively scheduled ranks on the discrete-event loop.
    Event,
}

impl EngineKind {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        "event"
    }
}

/// Output of one machine run: the per-rank results of the SPMD closure and
/// the aggregated communication/computation cost report.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Closure results, indexed by world rank.
    pub results: Vec<R>,
    /// Cost accounting for the whole run.
    pub cost: CostReport,
    /// Per-rank event timelines, present when tracing was enabled.
    pub traces: Option<Vec<crate::trace::Timeline>>,
}

/// A simulated distributed-memory machine with `P` processors, a fully
/// connected network with bidirectional links, and α-β-γ cost accounting
/// (§3.2 of the paper).
///
/// ```
/// use syrk_machine::{Machine, MachineError};
///
/// let out = Machine::new(4).try_run(|comm| {
///     // Each rank contributes its rank to every rank's segment;
///     // Reduce-Scatter leaves each rank its segment of the sum.
///     let mine = vec![vec![comm.rank() as f64]; comm.size()];
///     let total = comm.try_reduce_scatter(mine)?;
///     Ok(total[0])
/// })?;
/// assert!(out.results.iter().all(|&r| r == 6.0));
/// # Ok::<(), MachineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    size: usize,
    model: CostModel,
    faults: Option<FaultPlan>,
    tracing: bool,
    failure_dump: Option<PathBuf>,
    rank_stack_kb: Option<usize>,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Erase the borrow lifetimes of a rank body so it can be stored in a
/// [`Context`].
///
/// # Safety
///
/// Sound only because `try_run_on` drives every context to completion
/// (the scheduler's exit invariant, upheld even under failures via the
/// abort wake-all) and drops the context vector before the borrowed
/// locals — the closure can neither run nor be dropped after its borrows
/// end. A portable context consumes its body on the rank's thread before
/// it reports completion.
unsafe fn erase_lifetime<'a>(b: Box<dyn FnOnce() + Send + 'a>) -> Body {
    // SAFETY: the two types differ only in the lifetime bound, so the
    // layout is the same; the caller keeps the borrows alive (above).
    unsafe { std::mem::transmute(b) }
}

impl Machine {
    /// A machine with `size` processors and bandwidth-only cost accounting
    /// (α = γ = 0, β = 1), so that clocks directly report word counts.
    ///
    /// # Panics
    ///
    /// If `size` is 0 or above `u32::MAX`: the collectives keep ranks as
    /// `u32`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "a machine needs at least one processor");
        assert!(
            u32::try_from(size).is_ok(),
            "a machine has at most u32::MAX processors, not {size}"
        );
        Machine {
            size,
            model: CostModel::bandwidth_only(),
            faults: None,
            tracing: false,
            failure_dump: None,
            rank_stack_kb: None,
        }
    }

    /// Write a post-mortem artifact to `path` if the run fails: the
    /// error, the wait-for graph (for deadlocks), a metrics snapshot,
    /// and the flight recording as Chrome trace events (see
    /// [`crate::dump`]). A machine without a path writes nothing.
    pub fn with_failure_dump(mut self, path: impl Into<PathBuf>) -> Self {
        self.failure_dump = Some(path.into());
        self
    }

    /// Enable per-rank communication-event tracing (see
    /// [`RunOutput::traces`]).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Set the α-β-γ cost model.
    pub fn with_model(mut self, model: CostModel) -> Self {
        self.model = model;
        self
    }

    /// Install a deterministic fault-injection plan for the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Set the per-rank stack size, in KiB (min 16), overriding the
    /// size-based default: 256 KiB up to 4096 ranks, 64 KiB above.
    pub fn with_rank_stack_kb(mut self, kb: usize) -> Self {
        assert!(kb >= 16, "with_rank_stack_kb: need at least 16 KiB");
        self.rank_stack_kb = Some(kb);
        self
    }

    /// Number of processors.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Always [`EngineKind::Event`]. The `syrkbench` host fingerprint is
    /// the only caller.
    pub fn selected_engine(&self) -> EngineKind {
        EngineKind::Event
    }

    /// How many ranks execute simultaneously: 1 — the scheduler runs one
    /// rank at a time, so a rank may use the whole host for local compute.
    /// The `syrkbench` replay (`benchmark/src/replay.rs`) is the only
    /// caller.
    pub fn concurrent_ranks(&self) -> usize {
        1
    }

    /// Per-rank stack in bytes: the builder override, else 256 KiB for
    /// small machines (panic formatting and backtraces want headroom)
    /// dropping to 64 KiB past 4096 ranks. The native backend rounds it up
    /// to whole 4 KiB pages (a 17 KiB override gets 20 KiB). The size is
    /// address space, not memory: that backend carves stacks out of 64 MiB
    /// chunks whose untouched pages never become resident (see
    /// `context/native.rs`), so a 10⁵-rank machine reserves 6.4 GB in ~100
    /// mappings and holds one page per idle rank.
    fn rank_stack_bytes(&self) -> usize {
        let kb = self
            .rank_stack_kb
            .unwrap_or(if self.size <= 4096 { 256 } else { 64 });
        kb * 1024
    }

    /// The shared state of one run.
    fn build_world(&self) -> World {
        let p = self.size;
        // Sequence screening is only exercised when faults can perturb
        // messages; skip the per-rank O(P) counters otherwise.
        let screened = self.faults.as_ref().is_some_and(|f| f.perturbs_messages());
        World {
            model: self.model,
            poisoned: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            first_error: Mutex::new(None),
            finished: (0..p).map(|_| AtomicBool::new(false)).collect(),
            ops: (0..p).map(|_| AtomicU64::new(0)).collect(),
            crashed: Mutex::new(Vec::new()),
            faults: self.faults.clone(),
            traces: self
                .tracing
                .then(|| (0..p).map(|_| Mutex::new(Vec::new())).collect()),
            event: EventState::new(p, if screened { p } else { 0 }),
        }
    }

    /// Run `f` in SPMD fashion on every rank and collect results and
    /// costs, or the run's first failure as a [`MachineError`].
    ///
    /// The closure returns `Result`, so communication on [`Comm`]
    /// composes with `?`. A rank that panics is reported as
    /// [`MachineError::RankPanicked`]; an injected crash, a deadlock or a
    /// rank's own error is reported as itself. The first failure wins and
    /// later cascades (ranks aborting because a peer already failed) are
    /// suppressed.
    ///
    /// ```
    /// use syrk_machine::{Machine, MachineError};
    ///
    /// let err = Machine::new(2)
    ///     .try_run(|comm| -> Result<(), MachineError> {
    ///         let _: Vec<f64> = comm.try_recv(1 - comm.rank(), 0)?; // nobody sends
    ///         Ok(())
    ///     })
    ///     .unwrap_err();
    /// assert!(matches!(err, MachineError::Deadlock(_)));
    /// ```
    #[must_use = "the Result carries the run's output or its first failure"]
    pub fn try_run<R, F>(&self, f: F) -> Result<RunOutput<R>, MachineError>
    where
        R: Send,
        F: Fn(Comm) -> Result<R, MachineError> + Sync,
    {
        self.try_run_on::<Coroutine, R, F>(f)
    }

    /// [`try_run`](Machine::try_run) on context backend `C`: one context
    /// per rank, advanced by the scheduler in deterministic clock order.
    fn try_run_on<C, R, F>(&self, f: F) -> Result<RunOutput<R>, MachineError>
    where
        C: Context,
        R: Send,
        F: Fn(Comm) -> Result<R, MachineError> + Sync,
    {
        let p = self.size;
        let world = Arc::new(self.build_world());
        let group: Arc<Vec<usize>> = Arc::new((0..p).collect());
        let stack_bytes = self.rank_stack_bytes();
        // Result slots live above the contexts so the erased borrows in
        // the rank bodies are dropped (with the context vector) first.
        let result_slots: Vec<Mutex<Option<R>>> = (0..p).map(|_| Mutex::new(None)).collect();
        let bodies: Vec<Body> = (0..p)
            .map(|rank| {
                let world = Arc::clone(&world);
                let group = Arc::clone(&group);
                let f = &f;
                let slots = &result_slots;
                let body = move || {
                    let comm = Comm::new_world(Arc::clone(&world), rank, group);
                    let r = panic::catch_unwind(AssertUnwindSafe(|| f(comm)));
                    match r {
                        Ok(Ok(v)) => *slots[rank].lock() = Some(v),
                        Ok(Err(e)) => world.record_error(rank, e),
                        Err(payload) => {
                            // Record the originating failure *before*
                            // raising the poison flag, so ranks that abort
                            // in cascade can never claim the first-error
                            // slot.
                            world.record_error(
                                rank,
                                MachineError::RankPanicked {
                                    rank,
                                    message: panic_message(payload.as_ref()),
                                },
                            );
                            world.poisoned.store(true, Ordering::SeqCst);
                        }
                    }
                    world.finished[rank].store(true, Ordering::SeqCst);
                };
                // SAFETY: `contexts` runs every body to completion and is
                // dropped below, before `world` and the result slots the
                // bodies borrow.
                unsafe { erase_lifetime(Box::new(body)) }
            })
            .collect();
        let mut contexts = C::spawn(stack_bytes, bodies);
        crate::engine::drive(&world, &mut contexts);
        drop(contexts);
        let results: Vec<Option<R>> = result_slots.into_iter().map(|m| m.into_inner()).collect();
        self.collect(world, results)
    }

    /// Epilogue: unwrap the world, surface the first
    /// recorded error (writing the failure dump), or assemble the
    /// [`RunOutput`].
    fn collect<R>(
        &self,
        world: Arc<World>,
        results: Vec<Option<R>>,
    ) -> Result<RunOutput<R>, MachineError> {
        let world = Arc::try_unwrap(world).unwrap_or_else(|_| {
            panic!("a Comm outlived the machine run; do not leak communicators from the closure")
        });
        if let Some((_, e)) = world.first_error.into_inner() {
            crate::dump::dump_on_error(self.failure_dump.as_deref(), &e);
            return Err(e);
        }
        let mut ranks = Vec::with_capacity(self.size);
        let mut phases = Vec::with_capacity(self.size);
        for slot in world.event.slots {
            let (total, rank_phases) = slot.into_inner().ledger.into_parts();
            ranks.push(total);
            phases.push(rank_phases);
        }
        let traces = world
            .traces
            .map(|ts| ts.into_iter().map(|m| m.into_inner()).collect());
        Ok(RunOutput {
            results: results
                .into_iter()
                .map(|o| o.expect("rank produced no result yet no error was recorded"))
                .collect(),
            cost: CostReport {
                model: self.model,
                ranks,
                phases,
            },
            traces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Machine::new(1)
            .try_run(|comm| {
                assert_eq!(comm.rank(), 0);
                assert_eq!(comm.size(), 1);
                Ok(42)
            })
            .unwrap();
        assert_eq!(out.results, vec![42]);
        assert_eq!(out.cost.total_words(), 0);
    }

    #[test]
    fn results_are_indexed_by_rank() {
        let out = Machine::new(8)
            .try_run(|comm| Ok(comm.rank() * 10))
            .unwrap();
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn many_ranks_spawn() {
        // The simulator must scale to the processor counts used in the
        // experiments (e.g. P = c(c+1) up to 110 or more).
        let out = Machine::new(110).try_run(|comm| Ok(comm.size())).unwrap();
        assert!(out.results.iter().all(|&s| s == 110));
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_ranks_rejected() {
        let _ = Machine::new(0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "at most u32::MAX processors")]
    fn rank_counts_past_u32_rejected() {
        let _ = Machine::new(1 << 32);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        // The rank's panic is the run's typed first error; its message is
        // raised here.
        let err = Machine::new(3)
            .try_run(|comm| {
                if comm.rank() == 2 {
                    panic!("deliberate");
                }
                Ok(())
            })
            .unwrap_err();
        let want = MachineError::RankPanicked {
            rank: 2,
            message: "deliberate".to_string(),
        };
        assert_eq!(err, want);
        panic!("{err}");
    }

    #[test]
    fn first_error_wins_over_cascades() {
        // Rank 1 fails first; ranks 0 and 2 then abort inside a blocked
        // receive. The reported error must be rank 1's, not a cascade.
        let err = Machine::new(3)
            .try_run(|comm| -> Result<(), MachineError> {
                if comm.rank() == 1 {
                    return Err(MachineError::RankCrashed {
                        rank: 1,
                        after_ops: 0,
                    });
                }
                let _: Vec<f64> = comm.try_recv(1, 0)?;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::RankCrashed {
                rank: 1,
                after_ops: 0
            }
        );
    }

    #[test]
    fn try_run_reports_panics_as_errors() {
        let err = Machine::new(2)
            .try_run(|comm| {
                if comm.rank() == 0 {
                    panic!("kaboom {}", 7);
                }
                Ok(comm.rank())
            })
            .unwrap_err();
        assert_eq!(
            err,
            MachineError::RankPanicked {
                rank: 0,
                message: "kaboom 7".to_string()
            }
        );
    }

    #[test]
    fn try_run_collects_results_on_success() {
        let out = Machine::new(4)
            .try_run(|comm| Ok(comm.rank() * 2))
            .expect("clean run");
        assert_eq!(out.results, vec![0, 2, 4, 6]);
    }

    #[test]
    fn cost_model_is_applied() {
        let model = CostModel {
            alpha: 10.0,
            beta: 2.0,
            gamma: 0.0,
        };
        let out = Machine::new(2)
            .with_model(model)
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 0, vec![1.0f64; 4])
                } else {
                    comm.try_recv::<Vec<f64>>(0, 0).map(drop)
                }
            })
            .unwrap();
        // Sender clock: α + β·4 = 18.
        assert!((out.cost.ranks[0].clock - 18.0).abs() < 1e-12);
        assert!((out.cost.elapsed() - 18.0).abs() < 1e-12);
    }

    /// Run `f` on the native and on the portable context backend; the two
    /// outcomes must be equal — results, per-rank costs (clock bits
    /// included) and phase tables, or the first error.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn on_both_backends<R, F>(machine: &Machine, f: F) -> Result<RunOutput<R>, MachineError>
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(Comm) -> Result<R, MachineError> + Sync,
    {
        use crate::context::{native, portable};
        let native = machine.try_run_on::<native::Coroutine, R, _>(&f);
        let portable = machine.try_run_on::<portable::Coroutine, R, _>(&f);
        assert_eq!(native.as_ref().err(), portable.as_ref().err());
        if let (Ok(n), Ok(p)) = (&native, &portable) {
            assert_eq!(n.results, p.results);
            assert_eq!(n.cost.ranks, p.cost.ranks);
            assert_eq!(n.cost.phases, p.cost.phases);
        }
        native
    }

    #[test]
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn portable_backend_equals_native() {
        // A ring exchange with per-rank clocks.
        let ring = on_both_backends(&Machine::new(6).with_model(CostModel::typical()), |comm| {
            let p = comm.size();
            let next = (comm.rank() + 1) % p;
            let prev = (comm.rank() + p - 1) % p;
            let mine = vec![comm.rank() as f64; 8];
            let got: Vec<f64> = comm.try_exchange(next, mine, prev, 1)?;
            comm.add_flops(100);
            Ok(got[0])
        })
        .expect("ring exchange");
        assert_eq!(ring.results, [5.0, 0.0, 1.0, 2.0, 3.0, 4.0]);

        // A collective over enough ranks to interleave many parks.
        let sums = on_both_backends(&Machine::new(64), |comm| {
            let mine = vec![vec![comm.rank() as f64; 4]; comm.size()];
            Ok(comm.try_reduce_scatter(mine)?.iter().sum::<f64>())
        })
        .expect("reduce_scatter");
        let expect = (0..64).sum::<usize>() as f64 * 4.0;
        assert!(sums.results.iter().all(|&r| r == expect));

        // A hundred early messages for a rank parked on another one: it is
        // not woken for them, and drains them in arrival order afterwards.
        let early = on_both_backends(&Machine::new(102), |comm| {
            if comm.rank() == 0 {
                let asked: Vec<f64> = comm.try_recv(101, 7)?;
                let mut sum = asked[0];
                for src in 1..=100 {
                    sum += comm.try_recv::<Vec<f64>>(src, 1)?[0];
                }
                return Ok(sum);
            }
            let tag = if comm.rank() == 101 { 7 } else { 1 };
            comm.try_send(0, tag, vec![comm.rank() as f64])?;
            Ok(0.0)
        })
        .expect("early messages");
        assert_eq!(early.results[0], (1..=101).sum::<usize>() as f64);
        assert_eq!(early.cost.ranks[0].msgs_recv, 101);

        // Mutual receive: the exact wait-for graph, rank 2 finished.
        let err = on_both_backends(&Machine::new(3), |comm| {
            if comm.rank() < 2 {
                let _: Vec<f64> = comm.try_recv(1 - comm.rank(), 9)?;
            }
            Ok(())
        })
        .expect_err("mutual recv must deadlock");
        let MachineError::Deadlock(info) = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(info.edges.len(), 2);
        assert_eq!(info.finished, vec![2]);

        // An injected crash surfaces as the same typed first error.
        let crashed = Machine::new(4).with_faults(FaultPlan::seeded(3).crash_rank(1, 2));
        let err = on_both_backends(&crashed, |comm| {
            comm.try_all_gather(vec![comm.rank() as f64; 2])?;
            comm.try_all_gather(vec![1.0; 2]).map(drop)
        })
        .expect_err("crash plan must fail");
        assert!(matches!(err, MachineError::RankCrashed { rank: 1, .. }));

        // A rank panic while its peers are parked on it.
        let err = on_both_backends(&Machine::new(3), |comm| {
            if comm.rank() == 2 {
                panic!("deliberate");
            }
            comm.try_recv::<Vec<f64>>(2, 0).map(drop)
        })
        .expect_err("a panicking rank must fail the run");
        assert_eq!(
            err,
            MachineError::RankPanicked {
                rank: 2,
                message: "deliberate".to_string()
            }
        );
    }

    #[test]
    fn event_engine_scales_past_thread_limits() {
        // More ranks than any reasonable thread budget, one process, and
        // an actual data dependency chain across all of them.
        let p = 3000;
        let out = Machine::new(p)
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.try_send(1, 0, vec![1.0f64])?;
                    return Ok(0.0);
                }
                let v: Vec<f64> = comm.try_recv(comm.rank() - 1, 0)?;
                let acc = v[0] + 1.0;
                if comm.rank() + 1 < comm.size() {
                    comm.try_send(comm.rank() + 1, 0, vec![acc])?;
                }
                Ok(acc)
            })
            .unwrap();
        assert_eq!(out.results[p - 1], p as f64);
    }

    #[test]
    fn event_engine_detects_deadlock_exactly() {
        // Two ranks each waiting on the other: the scheduler reports the
        // wait-for graph the moment the stalled configuration arises.
        let err = Machine::new(2)
            .try_run(|comm| -> Result<(), MachineError> {
                let peer = 1 - comm.rank();
                let _: Vec<f64> = comm.try_recv(peer, 9)?;
                Ok(())
            })
            .unwrap_err();
        let MachineError::Deadlock(info) = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(info.edges.len(), 2);
        assert_eq!(info.edges[0].from, 0);
        assert_eq!(info.edges[0].to, 1);
        assert_eq!(info.edges[1].from, 1);
        assert_eq!(info.edges[1].to, 0);
        assert!(info.finished.is_empty());
    }

    #[test]
    fn event_engine_runs_with_tiny_stacks() {
        // The large-P stack policy (64 KiB) must be enough for the
        // communication paths; the canary turns an overflow into a
        // loud failure rather than corruption.
        let out = Machine::new(64)
            .with_rank_stack_kb(64)
            .try_run(|comm| {
                let mine = vec![vec![comm.rank() as f64; 4]; comm.size()];
                Ok(comm.try_reduce_scatter(mine)?.iter().sum::<f64>())
            })
            .unwrap();
        let expect = (0..64).sum::<usize>() as f64 * 4.0;
        assert!(out.results.iter().all(|&r| r == expect));
    }
}
