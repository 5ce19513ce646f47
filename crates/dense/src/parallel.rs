//! Kernel runtime for the dense kernels: one task list, one cursor.
//!
//! The workspace builds without external crates, so the rayon layer the
//! kernels used to sit on is replaced by an in-repo runtime. A region is
//! a list of at most `4 × workers` flop-balanced chunks from
//! [`crate::schedule`], and no task spawns another, so the runtime is a
//! shared atomic cursor over that list:
//!
//! * each worker takes the next task with one `fetch_add` and runs it,
//!   until the cursor passes the end of the list; the cursor visits the
//!   list as a deal of `workers` contiguous blocks would run it, so tasks
//!   that run together lie far apart,
//! * the caller participates as worker 0, so a `workers == 1` run stays
//!   on the calling thread with no handoff at all.
//!
//! Every run meters `syrk_tasks_scheduled` / `syrk_tasks_run` and the
//! `syrk_queue_depth` gauge on the telemetry registry, and — when the
//! flight recorder is enabled — records a wall-clock span per task.
//! This runtime has no parker: a worker exits when the cursor runs out
//! instead of blocking, so there are no park/unpark events to meter
//! (DESIGN.md §9).
//!
//! Two knobs control the thread count:
//!
//! * the `SYRK_NUM_THREADS` environment variable (a positive integer,
//!   parsed **once** into a `OnceLock`; any other value is a hard error,
//!   like an invalid `SYRK_FORCE_ISA`), and
//! * a process-wide budget set by [`limit_threads`], which the simulated
//!   machine uses to split hardware threads fairly across its ranks
//!   (each of `P` rank threads runs kernels with `available/P` workers
//!   instead of oversubscribing `P × available`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use syrk_telemetry::flight::{self, FlightKind};

/// Process-wide thread budget; 0 means "unset, use the hardware count".
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Parse a `SYRK_NUM_THREADS` value: a positive integer, or the error
/// message naming the value (`0`, negatives, non-numeric).
pub(crate) fn parse_thread_count(s: &str) -> Result<usize, String> {
    s.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| {
            format!("SYRK_NUM_THREADS: invalid value {s:?} (expected a positive integer)")
        })
}

/// The `SYRK_NUM_THREADS` override, read and parsed exactly once per
/// process. [`available_threads`] sits on the scheduling hot path, and
/// `std::env::var` + parse per call was measurable overhead; the
/// environment of a running process is ours, so caching is safe. An
/// invalid value panics: falling back to the hardware count would run,
/// and publish numbers for, a thread count nobody asked for.
fn env_thread_override() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        let value = std::env::var("SYRK_NUM_THREADS").ok()?;
        Some(parse_thread_count(&value).unwrap_or_else(|e| panic!("{e}")))
    })
}

/// The host's hardware thread count (what `std::thread` reports), before
/// any budget or environment override. Bench metadata records this next
/// to the *effective* [`available_threads`] so a thread-starved host is
/// distinguishable from a capped run. Asked of the OS once per process:
/// `available_parallelism` reads the affinity mask and cgroup files on
/// every call, which outside a [`limit_threads`] budget made a 1 × 96
/// `mul_nt` take 30 µs instead of 1.2 µs.
pub(crate) fn hardware_threads() -> usize {
    static HW_THREADS: OnceLock<usize> = OnceLock::new();
    *HW_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of worker threads a kernel may use right now: the active
/// [`limit_threads`] budget if one is set, else `SYRK_NUM_THREADS`, else
/// the hardware parallelism.
pub fn available_threads() -> usize {
    let budget = THREAD_BUDGET.load(Ordering::Relaxed);
    if budget != 0 {
        return budget;
    }
    if let Some(n) = env_thread_override() {
        return n;
    }
    hardware_threads()
}

/// RAII guard restoring the previous thread budget on drop.
#[must_use = "the budget is restored when the guard drops"]
#[derive(Debug)]
pub struct ThreadBudgetGuard {
    prev: usize,
}

impl Drop for ThreadBudgetGuard {
    fn drop(&mut self) {
        THREAD_BUDGET.store(self.prev, Ordering::Relaxed);
    }
}

/// Cap kernel parallelism at `n` threads until the returned guard drops.
/// The budget is process-wide (it must reach the machine's rank threads,
/// which a thread-local could not), so nesting different budgets from
/// concurrent callers is last-writer-wins — acceptable because the budget
/// only affects performance, never results.
pub fn limit_threads(n: usize) -> ThreadBudgetGuard {
    let prev = THREAD_BUDGET.swap(n.max(1), Ordering::Relaxed);
    ThreadBudgetGuard { prev }
}

/// The [`available_threads`] budget split evenly over `p` concurrently
/// running ranks, at least one each. The simulated machine runs one rank
/// at a time, so the algorithms no longer ask; the `syrkbench` replay
/// (`benchmark/src/replay.rs`) is the only caller. An outer
/// [`limit_threads`] guard caps a whole simulated run without it.
pub fn machine_thread_budget(p: usize) -> usize {
    (available_threads() / p.max(1)).max(1)
}

/// Flops below which a kernel's task list runs on the calling thread.
///
/// Measured on the 2-vCPU Xeon (Sapphire Rapids, KVM) this repository is
/// developed on: spawning and joining one scoped worker costs 16 µs, and
/// a single thread sustains 37–46 GFLOP/s at this size, so 2²² flops are
/// ~100 µs of serial work. Two workers ran such kernels at 0.79–0.89× the
/// one-thread speed (0.18–0.45× at 2¹⁷–2²⁰ flops) and first won between
/// 2²³ and 2²⁵; the cutoff sits one octave under the earliest win. It is
/// a constant, not an option: a host where it is wrong by 2× loses a few
/// percent on kernels within that octave.
pub const SERIAL_FLOP_CUTOFF: u64 = 1 << 22;

/// Output entries (`m·n`, or a triangle's packed length) at or below which
/// `gemm_nt`, `gemm_nn`, `syrk_packed` and `syr2k_packed` skip the
/// packed runtime and compute each entry as one direct chain, bitwise the
/// same `C` (see `crate::direct`).
///
/// Measured on the same host, one thread, direct against packed: with
/// 64 entries the direct path is ahead at every depth (8×8 `gemm_nt`:
/// 1.30 vs 1.61 µs at k = 64, 4.6 vs 5.9 µs at k = 256, 73 vs 96 µs at
/// k = 4096; 1×64: 4–5× ahead), with 81 it is behind at every depth (9×9:
/// 2.17 vs 1.69, 8.6 vs 6.2, 136 vs 102 µs). SYRK crosses between 66 and
/// 78 packed entries. A 2×2×64 product takes 0.23 µs instead of 1.20.
/// Like the flop cutoff it is a constant, not an option.
pub(crate) const SMALL_OUTPUT_CUTOFF: usize = 64;

/// Worker threads worth using for a task list of `total_flops`: one
/// (the caller, no spawn) below [`SERIAL_FLOP_CUTOFF`], else
/// [`available_threads`].
pub fn workers_for_flops(total_flops: u64) -> usize {
    if total_flops < SERIAL_FLOP_CUTOFF {
        1
    } else {
        available_threads()
    }
}

/// Task-list oversubscription: chunks created per worker, so a worker
/// that finishes early still finds a chunk left at the cursor. ×4 keeps
/// chunks large enough that per-chunk loop overhead stays negligible.
pub(crate) const TASKS_PER_WORKER: usize = 4;

/// How many flop-balanced chunks a driver should create for `workers`
/// workers: oversubscribed by `TASKS_PER_WORKER` when parallel, a single
/// chunk when serial (the inline path has nobody to balance against).
pub fn steal_task_count(workers: usize) -> usize {
    if workers > 1 {
        workers * TASKS_PER_WORKER
    } else {
        1
    }
}

/// Run `f(index, task)` for every task on up to [`available_threads`]
/// workers (the caller is worker 0), each taking the next index from one
/// shared cursor. With one worker or one task everything runs inline on
/// the caller's thread. Which worker runs which task is
/// nondeterministic; callers must make task *results*
/// placement-determined (disjoint `&mut` output chunks, fixed
/// per-element accumulation order), which every kernel driver in this
/// crate does. Panics in workers propagate to the caller.
pub fn par_for_each_task<T, F>(tasks: Vec<T>, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    // One flight-recorded, counter-metered task execution. The counters
    // are relaxed atomics (one inc per task, tasks are coarse); the
    // flight span costs two `Instant` reads only while recording.
    let run_task = |i: usize, t: T| {
        if flight::is_enabled() {
            let t0 = flight::now_ns();
            f(i, t);
            flight::record(FlightKind::Task, t0, flight::now_ns(), i as u64);
        } else {
            f(i, t);
        }
        crate::stats::add_task_run();
    };

    let workers = available_threads().min(tasks.len());
    crate::stats::add_tasks_scheduled(tasks.len() as u64);
    if workers <= 1 {
        for (i, t) in tasks.into_iter().enumerate() {
            run_task(i, t);
        }
        return;
    }

    // The cursor walks the list as if it were dealt in `workers`
    // contiguous blocks, one index of each block per round, so tasks
    // that run at the same time lie far apart: neighbouring triangle
    // chunks would wait on each other's shared-pack blocks.
    let total = tasks.len();
    let block = |i: usize| i * workers / total;
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| (i - (block(i) * total).div_ceil(workers), block(i)));
    // The cursor hands each index to exactly one worker, so each slot's
    // lock is taken once and never contended. The cursor publishes no
    // data (each slot's mutex orders its task), so `Relaxed` suffices.
    let slots: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let run_worker = || {
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let task = slots[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            run_task(i, task.expect("the cursor hands out each index once"));
        }
    };

    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(run_worker)).collect();
        run_worker();
        // Join explicitly so a worker's panic payload reaches the caller
        // (scope's implicit join replaces it with a generic message).
        let mut first_panic = None;
        for h in handles {
            if let Err(e) = h.join() {
                first_panic.get_or_insert(e);
            }
        }
        if let Some(e) = first_panic {
            std::panic::resume_unwind(e);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn budget_guard_restores() {
        let before = available_threads();
        {
            let _g = limit_threads(1);
            assert_eq!(available_threads(), 1);
            {
                let _g2 = limit_threads(3);
                assert_eq!(available_threads(), 3);
            }
            assert_eq!(available_threads(), 1);
        }
        assert_eq!(available_threads(), before);
    }

    #[test]
    fn machine_budget_never_zero() {
        assert!(machine_thread_budget(1) >= 1);
        assert!(machine_thread_budget(1000) >= 1);
    }

    #[test]
    fn thread_env_parser_rejects_garbage() {
        // Invalid values are an error naming the value, never a silent
        // fall-back to the hardware count.
        for bad in [
            "0",
            "-3",
            "abc",
            "",
            "  ",
            "1.5",
            "0x4",
            "18446744073709551616",
        ] {
            assert_eq!(
                parse_thread_count(bad),
                Err(format!(
                    "SYRK_NUM_THREADS: invalid value {bad:?} (expected a positive integer)"
                )),
            );
        }
        assert_eq!(parse_thread_count("1"), Ok(1));
        assert_eq!(parse_thread_count(" 8 "), Ok(8));
    }

    #[test]
    fn env_override_is_cached() {
        // Whatever the ambient environment, repeated reads must agree:
        // the OnceLock answers every call after the first without
        // touching the environment again.
        let first = env_thread_override();
        for _ in 0..100 {
            assert_eq!(env_thread_override(), first);
        }
    }

    #[test]
    fn steal_task_count_scales_with_workers() {
        assert_eq!(steal_task_count(1), 1);
        assert_eq!(steal_task_count(2), 2 * TASKS_PER_WORKER);
        assert_eq!(steal_task_count(8), 8 * TASKS_PER_WORKER);
    }

    #[test]
    fn par_for_each_runs_every_task_once() {
        let sum = AtomicU64::new(0);
        let tasks: Vec<u64> = (1..=100).collect();
        par_for_each_task(tasks, |i, t| {
            assert_eq!(i as u64 + 1, t);
            sum.fetch_add(t, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn par_for_each_runs_every_task_once_under_skewed_work() {
        // Uneven task durations on four workers; every index must still
        // be executed exactly once.
        let _g = limit_threads(4);
        let counts: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let tasks: Vec<usize> = (0..64).collect();
        par_for_each_task(tasks, |i, t| {
            assert_eq!(i, t);
            if t % 7 == 0 {
                // Skewed work so workers finish out of step.
                std::hint::black_box((0..20_000).sum::<u64>());
            }
            counts[t].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "task {i} ran wrong number of times"
            );
        }
    }

    #[test]
    fn par_for_each_disjoint_mutation() {
        let mut data = vec![0u64; 64];
        let chunks: Vec<&mut [u64]> = data.chunks_mut(8).collect();
        par_for_each_task(chunks, |i, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 8 + j) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    #[should_panic(expected = "task boom")]
    fn worker_panic_propagates() {
        let _g = limit_threads(2);
        par_for_each_task(vec![0usize; 8], |i, _| {
            if i == 5 {
                panic!("task boom");
            }
        });
    }
}
