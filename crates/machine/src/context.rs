//! Rank contexts: how a simulated rank's call stack is suspended and
//! resumed.
//!
//! The scheduler (see [`crate::engine`]) advances one rank at a time, and a
//! rank can block deep inside a receive — arbitrarily far down the user's
//! SPMD closure — and hand control back without unwinding. That takes a
//! *stackful* continuation. Two backends provide one behind the same four
//! operations, `spawn` / `resume` / `is_done` ([`Context`]) and
//! [`yield_now`]:
//!
//! * `native` — a private stack per rank, carved from 64 MiB chunks, and a
//!   callee-saved register switch in naked assembly (x86_64, AArch64);
//! * `portable` — a parked OS thread per rank and a baton passed between
//!   it and the scheduler (every other target).
//!
//! The target architecture chooses, at build time, and nothing else does.
//! On either backend exactly one of scheduler and rank runs at any moment,
//! so the scheduler's heap order — and with it every result, cost vector
//! and diagnostic — is the same on both. Test builds compile the portable
//! backend on every host so that this is checked where CI runs.

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) mod native;
#[cfg(any(test, not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
pub(crate) mod portable;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) use native::Coroutine;
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) use portable::Coroutine;

/// Outcome of one [`Context::resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// The rank suspended at a blocking point ([`yield_now`]).
    Yielded,
    /// The rank's body ran to completion; it must not be resumed again.
    Complete,
}

/// What a rank runs: its SPMD closure, wrapped by the machine.
pub(crate) type Body = Box<dyn FnOnce() + Send>;

/// A suspended rank, as the scheduler sees it.
pub(crate) trait Context: Sized {
    /// The contexts of one run, one per body in order: each will run its
    /// body on a stack of `stack_bytes` of its own when first resumed. A
    /// body must not unwind (the machine wraps rank closures in
    /// `catch_unwind`). All of a run's contexts are made together so that
    /// a backend can allocate their stacks together.
    fn spawn(stack_bytes: usize, bodies: Vec<Body>) -> Vec<Self>;

    /// Run the rank until it yields or completes. Must only be called
    /// from scheduler context (not from inside another resume of the same
    /// context) and never after it completed.
    fn resume(&mut self) -> Status;

    /// Whether the rank's body has run to completion.
    fn is_done(&self) -> bool;
}

/// Outermost frame of a rank on both backends. A panic escaping the body
/// can neither unwind across the native backend's assembly frames nor be
/// left to kill a thread the scheduler is waiting on, so it is a hard
/// abort.
fn run_body(body: Body) {
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
        eprintln!("fatal: panic escaped a simulated rank's outermost frame");
        std::process::abort();
    }
}

/// Suspend the rank running on this thread, returning control to its
/// scheduler. Returns when the scheduler resumes it.
///
/// Each backend keeps the running rank in a thread-local of its own. The
/// native one is set only for the length of a resume, so where both are
/// set the native context is the innermost.
///
/// Panics when called outside a rank — blocking receives only reach this
/// from inside [`Machine::try_run`](crate::Machine::try_run).
pub(crate) fn yield_now() {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if native::yield_current() {
        return;
    }
    #[cfg(any(test, not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
    if portable::yield_current() {
        return;
    }
    panic!("yield_now outside a simulated rank");
}

#[cfg(test)]
mod tests {
    /// The same five tests for each backend.
    macro_rules! backend_tests {
        ($backend:ident) => {
            mod $backend {
                use crate::context::$backend::Coroutine;
                use crate::context::{yield_now, Body, Context, Status};
                use std::sync::atomic::{AtomicUsize, Ordering};
                use std::sync::{Arc, Mutex};

                fn one(stack_bytes: usize, body: Body) -> Coroutine {
                    Coroutine::spawn(stack_bytes, vec![body]).remove(0)
                }

                #[test]
                fn runs_to_completion_without_yield() {
                    let hit = Arc::new(AtomicUsize::new(0));
                    let h = Arc::clone(&hit);
                    let mut co = one(
                        64 * 1024,
                        Box::new(move || {
                            h.store(7, Ordering::SeqCst);
                        }),
                    );
                    assert_eq!(co.resume(), Status::Complete);
                    assert!(co.is_done());
                    assert_eq!(hit.load(Ordering::SeqCst), 7);
                }

                #[test]
                fn yield_suspends_and_resume_continues() {
                    let log = Arc::new(Mutex::new(Vec::new()));
                    let l = Arc::clone(&log);
                    let mut co = one(
                        64 * 1024,
                        Box::new(move || {
                            l.lock().unwrap().push(1);
                            yield_now();
                            l.lock().unwrap().push(2);
                            yield_now();
                            l.lock().unwrap().push(3);
                        }),
                    );
                    assert_eq!(co.resume(), Status::Yielded);
                    assert_eq!(*log.lock().unwrap(), [1]);
                    assert_eq!(co.resume(), Status::Yielded);
                    assert_eq!(*log.lock().unwrap(), [1, 2]);
                    assert_eq!(co.resume(), Status::Complete);
                    assert_eq!(*log.lock().unwrap(), [1, 2, 3]);
                }

                #[test]
                fn interleaves_many_coroutines() {
                    // Round-robin 8 counters; each increments its slot 100
                    // times with a yield between increments. Deep
                    // interleaving must preserve per-coroutine program
                    // order and isolation.
                    let counts = Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
                    let bodies = (0..8)
                        .map(|i| {
                            let counts = Arc::clone(&counts);
                            Box::new(move || {
                                for _ in 0..100 {
                                    counts[i].fetch_add(1, Ordering::SeqCst);
                                    yield_now();
                                }
                            }) as Body
                        })
                        .collect();
                    let mut cos = Coroutine::spawn(64 * 1024, bodies);
                    let mut live = cos.len();
                    while live > 0 {
                        for co in cos.iter_mut() {
                            if !co.is_done() && co.resume() == Status::Complete {
                                live -= 1;
                            }
                        }
                    }
                    for c in counts.iter() {
                        assert_eq!(c.load(Ordering::SeqCst), 100);
                    }
                }

                #[test]
                fn panic_inside_closure_is_caught_by_wrapper() {
                    // Machine-style wrapper: catch_unwind inside the body.
                    let caught = Arc::new(AtomicUsize::new(0));
                    let c = Arc::clone(&caught);
                    let mut co = one(
                        64 * 1024,
                        Box::new(move || {
                            let r = std::panic::catch_unwind(|| panic!("boom"));
                            if r.is_err() {
                                c.store(1, Ordering::SeqCst);
                            }
                        }),
                    );
                    assert_eq!(co.resume(), Status::Complete);
                    assert_eq!(caught.load(Ordering::SeqCst), 1);
                }

                #[test]
                fn float_state_survives_switches() {
                    // Callee-saved FP registers (d8–d15 on AArch64) must
                    // round-trip through a yield; accumulate in a way the
                    // compiler keeps in registers across the call.
                    let out = Arc::new(Mutex::new(0.0f64));
                    let o = Arc::clone(&out);
                    let mut co = one(
                        64 * 1024,
                        Box::new(move || {
                            let mut acc = 1.5f64;
                            for i in 0..10 {
                                acc = acc.mul_add(1.25, i as f64);
                                yield_now();
                            }
                            *o.lock().unwrap() = acc;
                        }),
                    );
                    let mut reference = 1.5f64;
                    for i in 0..10 {
                        reference = reference.mul_add(1.25, i as f64);
                    }
                    while co.resume() != Status::Complete {}
                    assert_eq!(*out.lock().unwrap(), reference);
                }
            }
        };
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    backend_tests!(native);
    backend_tests!(portable);
}
