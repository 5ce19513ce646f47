//! What a simulated rank costs the host in memory: stacks come out of a
//! few large allocations that are freed with the run, an idle rank holds
//! one stack page, the process's peak resident set does not climb from
//! run to run, and a stack carved out of a chunk is still guarded by its
//! canary.
//!
//! The resident set (`VmHWM`, `VmRSS`) and the allocation counts are the
//! process's, so this file is a process of its own (CI runs it as its own
//! step) and its tests take turns.
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use syrk_machine::Machine;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Allocations and frees of at least this size are counted.
const LARGE: usize = 64 * 1024;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_FREES: AtomicUsize = AtomicUsize::new(0);

struct CountLarge;

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for CountLarge {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= LARGE {
            LARGE_FREES.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountLarge = CountLarge;

/// A `kB` line of this process's `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line"))
}

/// Peak resident set of this process so far, in MB (10⁶ bytes).
fn vm_hwm_mb() -> f64 {
    status_kib("VmHWM") as f64 * 1.024e-3
}

/// The ranks of the `sim_ranks` benchmark shape (c = 47), its exchange
/// partners per rank (4c) and its chunk size.
const RANKS: usize = 2256;
const PARTNERS: usize = 188;
const WORDS: usize = 2;

#[test]
fn peak_resident_set_does_not_climb_across_runs() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = vm_hwm_mb();
    for _ in 0..12 {
        let out = Machine::new(RANKS)
            .try_run(|comm| {
                let (me, p) = (comm.rank(), comm.size());
                let sends = (1..=PARTNERS)
                    .map(|s| ((me + s) % p, vec![me as f64; WORDS]))
                    .collect();
                let recvs: Vec<(usize, usize)> =
                    (1..=PARTNERS).map(|s| ((me + p - s) % p, WORDS)).collect();
                let got: Vec<Vec<f64>> = comm.try_all_to_all_sparse(sends, &recvs)?;
                Ok(got.iter().map(|b| b[0]).sum::<f64>())
            })
            .expect("a clean exchange");
        let want = |me: usize| {
            (1..=PARTNERS)
                .map(|s| ((me + RANKS - s) % RANKS) as f64)
                .sum()
        };
        assert!((0..RANKS).all(|me| out.results[me] == want(me)));
        assert_eq!(out.cost.total_words(), (RANKS * PARTNERS * WORDS) as u64);
    }
    let grown = vm_hwm_mb() - before;
    println!("VmHWM {before:.0} MB before, +{grown:.0} MB after 12 runs");
    // 2256 stacks of 256 KiB are 590 MB; before stacks came out of chunks
    // that are unmapped with the run, a dozen runs touched all of it.
    assert!(
        grown < 200.0,
        "VmHWM grew by {grown:.0} MB over 12 runs of {RANKS} ranks"
    );
}

#[test]
fn stacks_are_a_few_large_allocations_freed_with_the_run() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (allocs, frees) = (
        LARGE_ALLOCS.load(Ordering::Relaxed),
        LARGE_FREES.load(Ordering::Relaxed),
    );
    Machine::new(RANKS).try_run(|_| Ok(())).unwrap();
    let allocs = LARGE_ALLOCS.load(Ordering::Relaxed) - allocs;
    let frees = LARGE_FREES.load(Ordering::Relaxed) - frees;
    println!("{allocs} allocations and {frees} frees of {LARGE}+ bytes");
    // Nine stack chunks (590 MB in 64 MiB pieces) and a handful of
    // per-rank tables, not one block per rank.
    assert!(
        (9..=16).contains(&allocs),
        "{allocs} allocations of {LARGE}+ bytes"
    );
    assert_eq!(frees, allocs, "a large allocation outlived the run");
}

#[test]
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn a_stack_overflow_inside_a_chunk_trips_the_canary() {
    #[inline(never)]
    fn overrun() {
        let mut frame = [0u8; 24 * 1024];
        frame.fill(0xa5);
        std::hint::black_box(&mut frame);
    }

    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Ten 16 KiB stacks in one chunk. Ranks 0–8 return at once, so when
    // the last rank runs 24 KiB down from the top of the chunk it buries
    // its own canary and the upper half of a stack nobody will use again.
    let failure = std::panic::catch_unwind(|| {
        Machine::new(10).with_rank_stack_kb(16).try_run(|comm| {
            if comm.rank() == 9 {
                overrun();
            }
            Ok(())
        })
    })
    .expect_err("the overflow must not go unnoticed");
    let message = failure
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| failure.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(
        message.contains("overflowed") && message.contains("Machine::with_rank_stack_kb"),
        "unexpected panic: {message:?}"
    );
}

/// 20 000 ranks of a one-round ring, the last of them to finish reading
/// the resident set while every rank's stack and slot is still live: an
/// idle rank costs its top stack page, which also holds the canary of the
/// stack above, and its share of the slot tables — ~5 KiB on x86_64,
/// where a stack top 16 B into a page cost ~9 KiB. Release only: debug
/// frames are deeper.
#[test]
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[cfg_attr(debug_assertions, ignore = "release frames only")]
fn an_idle_rank_costs_one_stack_page() {
    const P: usize = 20_000;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let before = status_kib("VmRSS");
    let finished = AtomicUsize::new(0);
    let in_run = AtomicUsize::new(0);
    Machine::new(P)
        .try_run(|comm| {
            let me = comm.rank();
            comm.try_send((me + 1) % P, 0, me as f64)?;
            let left: f64 = comm.try_recv((me + P - 1) % P, 0)?;
            assert_eq!(left as usize, (me + P - 1) % P);
            if finished.fetch_add(1, Ordering::SeqCst) + 1 == P {
                in_run.store(status_kib("VmRSS"), Ordering::SeqCst);
            }
            Ok(())
        })
        .expect("a clean ring");
    let per_rank = (in_run.load(Ordering::SeqCst) - before) as f64 / P as f64;
    println!("{per_rank:.2} KiB of resident set per idle rank");
    assert!(per_rank <= 6.0, "{per_rank:.2} KiB per idle rank");
}
