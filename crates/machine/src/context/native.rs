//! Native context backend: a private stack per rank and a callee-saved
//! register switch, for the targets that have one written (x86_64 SysV and
//! AArch64 AAPCS64).
//!
//! Suspending is a plain callee-saved context switch — no external crates,
//! just two naked functions per architecture. The switch saves exactly
//! what the respective ABI makes the callee responsible for (x86_64:
//! `rbp rbx r12–r15` + `rsp`; AArch64: `x19–x28 x29 x30` + `d8–d15` +
//! `sp`); everything else is caller-saved and already spilled by the
//! compiler around the `ctx_switch` call.
//!
//! Safety model:
//! * a coroutine is only ever resumed from the thread that created it, and
//!   only one coroutine per thread runs at a time (strict alternation with
//!   its scheduler), so no state is shared concurrently;
//! * panics unwind *inside* the coroutine's own stack and are caught at
//!   its outermost frame — unwinding never crosses the assembly frames;
//! * stacks carry a canary word at their low end, checked after every
//!   resume, so an overflow fails loudly instead of silently corrupting
//!   the stack below it.
//!
//! The stacks of one run are carved out of chunks of [`STACK_CHUNK_BYTES`],
//! one `alloc` and one `dealloc` per chunk per run. 64 MiB is above the
//! 32 MiB ceiling of glibc's dynamic mmap threshold, so a full chunk is
//! always a mapping of its own, returned to the kernel when the run ends:
//! a stack page no rank touched never becomes resident, and no freed stack
//! is recycled into the heap for later runs' envelopes and tables to dirty.
//! A 10⁵-rank machine is ~100 mappings — neither one multi-GB reservation
//! nor 10⁵ heap blocks (the kernel caps a process at `vm.max_map_count`
//! mappings, typically 65530).
//!
//! Stacks are whole pages long and lie back to back, each one's canary at
//! the top of the one below. A chunk is one page longer than its stacks,
//! and they start at the offset that puts every stack top [`TOP_SLACK`]
//! bytes below a page boundary, wherever the allocator placed the chunk.
//! The next stack's canary then sits in those bytes, in the page its
//! neighbour's first frames touch anyway. An idle rank costs that one
//! page — ~5 KiB of resident set with its slot, where a top 16 B into a
//! page cost ~9 KiB — and the whole 2256-rank `sim_ranks` run, payloads,
//! ledgers and the assembled `C` included, peaks at 32 kB per rank. With
//! larger pages than [`PAGE`] the layout is the same and saves less.

use std::alloc::{self, Layout};
use std::cell::Cell;
use std::rc::Rc;

use super::{run_body, Body, Context, Status};

/// Size of the allocations rank stacks are carved from; the last chunk of
/// a run is the remainder.
const STACK_CHUNK_BYTES: usize = 64 << 20;

/// The page size stacks are laid out for.
const PAGE: usize = 4096;

/// Bytes between a stack's top and the page boundary above it: the
/// canary word of the stack above, with the top kept 16-aligned. Every
/// byte of it is a byte less of the top page for a rank's own frames.
const TOP_SLACK: usize = 16;

/// Magic written at the lowest words of every coroutine stack and checked
/// after each resume.
const CANARY: u64 = 0xdead_5afe_57ac_ca11;

#[cfg(target_arch = "x86_64")]
mod arch {
    use std::arch::naked_asm;

    /// Save the callee-saved state on the current stack, store the stack
    /// pointer to `*save`, and resume from the stack pointer in
    /// `*restore`. Returns (into the restored context) when some other
    /// context switches back.
    #[unsafe(naked)]
    pub(super) unsafe extern "sysv64" fn ctx_switch(_save: *mut usize, _restore: *const usize) {
        naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, [rsi]",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of every coroutine: `prepare` plants this as the `ret`
    /// target of the initial `ctx_switch`, with the bootstrap argument in
    /// the restored `r12`. Realigns the stack and calls the Rust entry
    /// (which never returns; the trailing `ud2` enforces that).
    #[unsafe(naked)]
    unsafe extern "sysv64" fn trampoline() {
        naked_asm!(
            "mov rdi, r12",
            "and rsp, -16",
            "call {entry}",
            "ud2",
            entry = sym super::coroutine_entry,
        )
    }

    /// Lay out the bootstrap frame below `top` (16-aligned) so the first
    /// `ctx_switch` into it pops zeros into the callee-saved registers
    /// (except `r12` = `arg`) and returns into `trampoline`.
    pub(super) unsafe fn prepare(top: *mut usize, arg: *mut u8) -> usize {
        // SAFETY: the caller passes the 16-aligned top of an unused stack,
        // so the seven words below it are writable and nothing else's.
        unsafe {
            let mut sp = top;
            sp = sp.sub(1);
            *sp = trampoline as *const () as usize; // ret target
            sp = sp.sub(1);
            *sp = 0; // rbp
            sp = sp.sub(1);
            *sp = 0; // rbx
            sp = sp.sub(1);
            *sp = arg as usize; // r12 — bootstrap argument
            sp = sp.sub(1);
            *sp = 0; // r13
            sp = sp.sub(1);
            *sp = 0; // r14
            sp = sp.sub(1);
            *sp = 0; // r15
            sp as usize
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use std::arch::naked_asm;

    /// AArch64 twin of the x86_64 switch: saves `x19–x28`, the frame
    /// pointer/link register pair, and the low halves of `v8–v15` (the
    /// callee-saved SIMD state), swaps `sp`, and returns via the restored
    /// `x30`.
    #[unsafe(naked)]
    pub(super) unsafe extern "C" fn ctx_switch(_save: *mut usize, _restore: *const usize) {
        naked_asm!(
            "sub sp, sp, #160",
            "stp x19, x20, [sp, #0]",
            "stp x21, x22, [sp, #16]",
            "stp x23, x24, [sp, #32]",
            "stp x25, x26, [sp, #48]",
            "stp x27, x28, [sp, #64]",
            "stp x29, x30, [sp, #80]",
            "stp d8, d9, [sp, #96]",
            "stp d10, d11, [sp, #112]",
            "stp d12, d13, [sp, #128]",
            "stp d14, d15, [sp, #144]",
            "mov x9, sp",
            "str x9, [x0]",
            "ldr x9, [x1]",
            "mov sp, x9",
            "ldp x19, x20, [sp, #0]",
            "ldp x21, x22, [sp, #16]",
            "ldp x23, x24, [sp, #32]",
            "ldp x25, x26, [sp, #48]",
            "ldp x27, x28, [sp, #64]",
            "ldp x29, x30, [sp, #80]",
            "ldp d8, d9, [sp, #96]",
            "ldp d10, d11, [sp, #112]",
            "ldp d12, d13, [sp, #128]",
            "ldp d14, d15, [sp, #144]",
            "add sp, sp, #160",
            "ret",
        )
    }

    /// First frame: the bootstrap argument travels in the restored `x19`.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        naked_asm!(
            "mov x0, x19",
            "bl {entry}",
            "brk #0x1",
            entry = sym super::coroutine_entry,
        )
    }

    /// One 160-byte register frame below `top`: `x19` slot = `arg`, `x30`
    /// (link register) slot = `trampoline`, everything else zero. After
    /// the restoring `ctx_switch` pops it, `sp == top` (16-aligned, as
    /// AArch64 requires at all times).
    pub(super) unsafe fn prepare(top: *mut usize, arg: *mut u8) -> usize {
        // SAFETY: the caller passes the 16-aligned top of an unused stack,
        // so the 160 bytes below it are writable and nothing else's.
        unsafe {
            let sp = (top as *mut u8).sub(160) as *mut usize;
            std::ptr::write_bytes(sp, 0, 20);
            *sp = arg as usize; // x19 — bootstrap argument
            *sp.add(11) = trampoline as usize; // x30 — ret target
            sp as usize
        }
    }
}

/// One allocation holding the stacks of consecutive ranks, freed when the
/// last of their coroutines drops.
struct Chunk {
    ptr: *mut u8,
    layout: Layout,
    /// Where the first stack starts: its top, like every other, is
    /// [`TOP_SLACK`] bytes below a page boundary.
    first: usize,
}

impl Chunk {
    /// Room for `stacks` stacks of `bytes` (a multiple of [`PAGE`]).
    fn new(stacks: usize, bytes: usize) -> Rc<Chunk> {
        let layout =
            Layout::from_size_align(stacks * bytes + PAGE, 16).expect("stack chunk layout");
        // SAFETY: the layout is not zero-sized — it holds at least a page.
        let ptr = unsafe { alloc::alloc(layout) };
        if ptr.is_null() {
            alloc::handle_alloc_error(layout);
        }
        let first = (PAGE - TOP_SLACK).wrapping_sub(ptr as usize) % PAGE;
        Rc::new(Chunk { ptr, layout, first })
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `alloc` with this layout, and every
        // coroutine running on it is gone (each holds an `Rc`).
        unsafe { alloc::dealloc(self.ptr, self.layout) };
    }
}

/// A coroutine stack — `bytes` of a [`Chunk`] — with a canary at its low
/// end.
struct Stack {
    base: *mut u8,
    bytes: usize,
    /// Keeps the memory under `base` allocated.
    _chunk: Rc<Chunk>,
}

impl Stack {
    /// The `index`-th stack of `bytes` (a multiple of [`PAGE`]) within
    /// `chunk`.
    fn carve(chunk: &Rc<Chunk>, index: usize, bytes: usize) -> Stack {
        let start = chunk.first + index * bytes;
        assert!(start + bytes <= chunk.layout.size());
        // SAFETY: in bounds of the chunk by the assertion; 16-aligned, as
        // every top is and `bytes` is a multiple of the page size.
        let base = unsafe {
            let base = chunk.ptr.add(start);
            (base as *mut u64).write(CANARY);
            base
        };
        Stack {
            base,
            bytes,
            _chunk: Rc::clone(chunk),
        }
    }

    /// One past the highest usable word (stacks grow downward).
    fn top(&self) -> *mut usize {
        // SAFETY: `carve` checked that `base..base + bytes` lies in the
        // chunk, so its end is at most one past the chunk's last byte.
        unsafe { self.base.add(self.bytes) as *mut usize }
    }

    fn canary_intact(&self) -> bool {
        // SAFETY: `base` is 16-aligned, in bounds and written by `carve`,
        // and `_chunk` keeps the chunk allocated.
        unsafe { (self.base as *const u64).read() == CANARY }
    }
}

/// Shared switch state between a coroutine and its scheduler. Boxed so
/// its address is stable while both sides hold raw pointers to it.
struct Inner {
    /// Scheduler-side stack pointer, live while the coroutine runs.
    sched_sp: usize,
    /// Coroutine-side stack pointer, live while it is suspended.
    coro_sp: usize,
    done: bool,
    /// The rank body; taken by `coroutine_entry` on first resume.
    closure: Option<Body>,
}

thread_local! {
    /// The coroutine currently running on this thread (null in scheduler
    /// context). A stack of one: nested machines save and restore it
    /// around their own resumes.
    static CURRENT: Cell<*mut Inner> = const { Cell::new(std::ptr::null_mut()) };
}

/// Rust-side first frame of every coroutine, called by the architecture
/// trampoline on the coroutine's own stack. Runs the closure and switches
/// back to the scheduler for the last time.
extern "C" fn coroutine_entry(inner: *mut Inner) -> ! {
    // SAFETY: `inner` is the boxed `Inner` that `resume` handed to
    // `prepare`; its `Coroutine` owns the box and outlives this frame, and
    // the scheduler, parked in `ctx_switch`, does not touch it meanwhile.
    run_body(unsafe { (*inner).closure.take().expect("coroutine entered twice") });
    // SAFETY: as above; `sched_sp` is the stack pointer the parked
    // scheduler saved in `resume`.
    unsafe {
        (*inner).done = true;
        arch::ctx_switch(&mut (*inner).coro_sp, &(*inner).sched_sp);
    }
    // The scheduler never resumes a completed coroutine.
    std::process::abort();
}

/// A suspended rank: its private stack plus the saved switch state.
pub(crate) struct Coroutine {
    stack: Stack,
    inner: Box<Inner>,
    started: bool,
}

impl Context for Coroutine {
    fn spawn(stack_bytes: usize, bodies: Vec<Body>) -> Vec<Coroutine> {
        let stack_bytes = stack_bytes.max(16 * 1024).next_multiple_of(PAGE);
        let per_chunk = (STACK_CHUNK_BYTES / stack_bytes).max(1);
        let mut coroutines = Vec::with_capacity(bodies.len());
        let mut bodies = bodies.into_iter();
        while bodies.len() > 0 {
            let stacks = per_chunk.min(bodies.len());
            let chunk = Chunk::new(stacks, stack_bytes);
            for (index, body) in bodies.by_ref().take(stacks).enumerate() {
                coroutines.push(Coroutine {
                    stack: Stack::carve(&chunk, index, stack_bytes),
                    inner: Box::new(Inner {
                        sched_sp: 0,
                        coro_sp: 0,
                        done: false,
                        closure: Some(body),
                    }),
                    started: false,
                });
            }
        }
        coroutines
    }

    fn is_done(&self) -> bool {
        self.inner.done
    }

    fn resume(&mut self) -> Status {
        assert!(!self.inner.done, "resume of a completed coroutine");
        let inner: *mut Inner = &mut *self.inner;
        if !self.started {
            self.started = true;
            // SAFETY: the stack is unused until this first resume, and
            // `inner` is boxed, so it stays put while the coroutine lives.
            self.inner.coro_sp = unsafe { arch::prepare(self.stack.top(), inner as *mut u8) };
        }
        let prev = CURRENT.with(|c| c.replace(inner));
        // SAFETY: the coroutine is not done, so `coro_sp` is the frame
        // `prepare` laid out or the one it saved when it last yielded; it
        // runs on this thread only (`Coroutine` is not `Send`).
        unsafe { arch::ctx_switch(&mut (*inner).sched_sp, &(*inner).coro_sp) };
        CURRENT.with(|c| c.set(prev));
        assert!(
            self.stack.canary_intact(),
            "a simulated rank overflowed its coroutine stack; raise it with \
             Machine::with_rank_stack_kb"
        );
        if self.inner.done {
            Status::Complete
        } else {
            Status::Yielded
        }
    }
}

/// Suspend the coroutine running on this thread, if one is, and return
/// `true` once the scheduler has resumed it; `false` when this thread is
/// not inside a native coroutine.
pub(super) fn yield_current() -> bool {
    let inner = CURRENT.with(|c| c.get());
    if inner.is_null() {
        return false;
    }
    // SAFETY: a non-null `CURRENT` is the `Inner` of the coroutine running
    // on this stack, and `sched_sp` is where `resume` parked its scheduler.
    unsafe { arch::ctx_switch(&mut (*inner).coro_sp, &(*inner).sched_sp) };
    true
}

#[cfg(test)]
mod tests {
    use super::{Coroutine, PAGE, STACK_CHUNK_BYTES, TOP_SLACK};
    use crate::context::{Body, Context};
    use std::rc::Rc;

    fn spawn_idle(stack_bytes: usize, ranks: usize) -> Vec<Coroutine> {
        let bodies = (0..ranks).map(|_| Box::new(|| ()) as Body).collect();
        Coroutine::spawn(stack_bytes, bodies)
    }

    #[test]
    fn every_stack_top_is_the_slack_below_a_page_boundary() {
        // 256 KiB stacks fill a chunk with 256 of them: 300 take two.
        let bytes = 256 * 1024;
        let cos = spawn_idle(bytes, STACK_CHUNK_BYTES / bytes + 44);
        let chunks = cos
            .windows(2)
            .filter(|w| !Rc::ptr_eq(&w[0].stack._chunk, &w[1].stack._chunk));
        assert_eq!(chunks.count(), 1, "two chunks");
        for (i, co) in cos.iter().enumerate() {
            assert_eq!(
                co.stack.top() as usize % PAGE,
                PAGE - TOP_SLACK,
                "stack {i}"
            );
            assert_eq!(co.stack.bytes, bytes);
        }
        for w in cos.windows(2) {
            if Rc::ptr_eq(&w[0].stack._chunk, &w[1].stack._chunk) {
                assert_eq!(w[1].stack.base, w[0].stack.top() as *mut u8);
            }
        }
        // 17 KiB rounds up to whole pages.
        let odd = spawn_idle(17 * 1024, 1);
        assert_eq!(odd[0].stack.bytes, 20 * 1024);
        assert_eq!(odd[0].stack.top() as usize % PAGE, PAGE - TOP_SLACK);
    }
}
