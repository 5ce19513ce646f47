//! Portable context backend: one parked OS thread per rank, for the
//! targets without the assembly switch of `context::native`.
//!
//! A rank's call stack is its thread's. Suspending is handing over a
//! baton — a mutex-guarded turn marker and a condition variable — and
//! blocking until it comes back, so exactly one of scheduler and rank runs
//! at any moment, just as with the register switch: the scheduler's heap
//! order decides everything, the OS scheduler nothing. The mutex hand-over
//! also orders every memory access of one side before the other side's
//! next step, which is what lets the world's uncontended locks and relaxed
//! flags serve both backends.
//!
//! This is safe Rust. A rank costs a thread (its stack, a kernel task and
//! two futex round trips per switch instead of a dozen instructions), so
//! the 10⁴-rank runs stay the native backend's territory.

use std::cell::OnceCell;
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;

use super::{run_body, Body, Context, Status};
use crate::sync::Mutex;

/// Who runs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Turn {
    Scheduler,
    Rank,
    /// The rank's body has returned; its thread is exiting.
    Done,
}

/// The hand-over point between a rank's thread and its scheduler.
struct Baton {
    turn: Mutex<Turn>,
    passed: Condvar,
}

impl Baton {
    fn pass(&self, to: Turn) {
        *self.turn.lock() = to;
        self.passed.notify_one();
    }

    /// Block until the baton has left `holder`; returns who has it now.
    fn wait_while(&self, holder: Turn) -> Turn {
        *self
            .passed
            .wait_while(self.turn.lock(), |turn| *turn == holder)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    /// The baton of the rank whose body this thread runs; unset on every
    /// other thread.
    static BATON: OnceCell<Arc<Baton>> = const { OnceCell::new() };
}

/// A rank and, from its first resume on, the thread that runs it.
pub(crate) struct Coroutine {
    baton: Arc<Baton>,
    stack_bytes: usize,
    /// The rank body until the first resume moves it onto its thread.
    body: Option<Body>,
    thread: Option<JoinHandle<()>>,
}

impl Context for Coroutine {
    fn spawn(stack_bytes: usize, bodies: Vec<Body>) -> Vec<Coroutine> {
        let coroutine = |body| Coroutine {
            baton: Arc::new(Baton {
                turn: Mutex::new(Turn::Scheduler),
                passed: Condvar::new(),
            }),
            stack_bytes,
            body: Some(body),
            thread: None,
        };
        bodies.into_iter().map(coroutine).collect()
    }

    fn is_done(&self) -> bool {
        *self.baton.turn.lock() == Turn::Done
    }

    fn resume(&mut self) -> Status {
        assert!(!self.is_done(), "resume of a completed coroutine");
        self.baton.pass(Turn::Rank);
        if let Some(body) = self.body.take() {
            let baton = Arc::clone(&self.baton);
            let rank = move || {
                BATON.with(|b| {
                    b.get_or_init(|| Arc::clone(&baton));
                });
                run_body(body);
                baton.pass(Turn::Done);
            };
            let thread = std::thread::Builder::new()
                .stack_size(self.stack_bytes)
                .spawn(rank)
                .expect("no OS thread left for a simulated rank on the portable context backend");
            self.thread = Some(thread);
        }
        match self.baton.wait_while(Turn::Rank) {
            Turn::Done => Status::Complete,
            _ => Status::Yielded,
        }
    }
}

impl Drop for Coroutine {
    /// Wait for a finished rank's thread to be gone. An unfinished one —
    /// the scheduler is unwinding — stays parked for good and never
    /// touches its body's borrows again.
    fn drop(&mut self) {
        if let (true, Some(thread)) = (self.is_done(), self.thread.take()) {
            let _ = thread.join();
        }
    }
}

/// Suspend the rank whose body this thread runs, if it runs one, and
/// return `true` once the scheduler has resumed it; `false` on a thread
/// that is not a rank's.
pub(super) fn yield_current() -> bool {
    BATON.with(|b| match b.get() {
        Some(baton) => {
            baton.pass(Turn::Scheduler);
            baton.wait_while(Turn::Scheduler);
            true
        }
        None => false,
    })
}
