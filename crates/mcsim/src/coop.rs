//! Cooperative single-OS-thread execution backend: stackful coroutines
//! with hand-rolled x86-64 context switching.
//!
//! ## Why
//!
//! The simulator serializes every memory event through the scheduler turn,
//! so at any instant exactly one simulated core is runnable. Running each
//! simulated core on its own OS thread therefore buys no parallelism — but
//! it makes every turn handoff cost a futex wake plus a kernel context
//! switch (~1.5 µs measured on a 1-vCPU host), which dominates wall-clock
//! at small scheduler quanta: the Figure-1 lazy-list run at quantum 0
//! performs 15 M handoffs. Switching between coroutine stacks in user
//! space costs ~10 ns — two orders of magnitude less — and involves no
//! lock, no atomic, and no syscall.
//!
//! ## How
//!
//! Each simulated core gets a heap-allocated stack seeded with a trampoline
//! frame ([`prepare`]). [`switch`] saves the SysV callee-saved state (six
//! integer registers, MXCSR control bits, x87 control word) plus the stack
//! pointer and resumes another context; the first
//! switch into a fresh stack "returns" into the trampoline, which calls
//! [`entry`] with the coroutine's payload pointer (smuggled through
//! `rbx`). Everything runs on the caller's OS thread, so thread-locals,
//! panics (caught at the coroutine root) and the machine lock behave
//! normally; the machine lock is taken **once per run** instead of per
//! event.
//!
//! A coroutine body retires (recording its final switch target), returns
//! so its closure allocation is freed, and the entry shim then switches
//! away for the last time; the stack is unmapped when the run ends. A
//! retired context is never resumed — the entry shim aborts if it is.
//!
//! This module is `x86_64`+Linux only (ELF assembly and raw syscalls);
//! the machine falls back to the
//! OS-thread backend elsewhere (identical simulated behaviour, see
//! `machine.rs`).
//!
//! ## Thread confinement (Send/Sync audit)
//!
//! A [`Stack`], the context pointers [`prepare`] returns, and every
//! [`CoroPayload`] are confined to the single host thread running
//! `run_coop`: created in its frame, switched into only from it, and
//! unmapped before it returns. **Coroutine stacks must never leak across
//! host threads** — a context saved on one OS thread and resumed on
//! another would corrupt thread-locals (including the machine's
//! `HOLDING_STATE` deadlock guard) and panic bookkeeping. The raw pointers
//! in these types make them `!Send`/`!Sync`, so the compiler enforces the
//! confinement; keep it that way when extending this module. Concurrent
//! coop runs of *different* machines on different host threads are safe
//! and exercised by the caharness parallel sweep (each run owns its
//! stacks, and the machine lock is per-machine).

use std::arch::global_asm;

global_asm!(
    r#"
    .text
    .balign 16
    .global mcsim_coop_switch
    .hidden mcsim_coop_switch
    .type mcsim_coop_switch, @function
// fn mcsim_coop_switch(save: *mut *mut u8 [rdi], to: *mut u8 [rsi])
//
// Saves the SysV callee-saved state on the current stack — the six integer
// registers plus the MXCSR control bits and the x87 control word, which the
// ABI also preserves across calls — stores the resulting stack pointer
// through `save`, then installs `to` and restores its state. Caller-saved
// state is handled by the compiler because this is an ordinary
// `extern "C"` call.
mcsim_coop_switch:
    push rbp
    push rbx
    push r12
    push r13
    push r14
    push r15
    sub rsp, 8
    stmxcsr [rsp]
    fnstcw [rsp + 4]
    mov [rdi], rsp
    mov rsp, rsi
    ldmxcsr [rsp]
    fldcw [rsp + 4]
    add rsp, 8
    pop r15
    pop r14
    pop r13
    pop r12
    pop rbx
    pop rbp
    ret
    .size mcsim_coop_switch, . - mcsim_coop_switch

    .balign 16
    .global mcsim_coop_trampoline
    .hidden mcsim_coop_trampoline
    .type mcsim_coop_trampoline, @function
// First-switch target of a fresh coroutine stack: `prepare` seeded rbx
// with the payload pointer and left rsp 8 bytes past a 16-byte boundary
// (the state a `ret` leaves behind), so realign and enter Rust.
mcsim_coop_trampoline:
    mov rdi, rbx
    sub rsp, 8
    call mcsim_coop_entry
    ud2
    .size mcsim_coop_trampoline, . - mcsim_coop_trampoline
"#
);

// SAFETY: both symbols are defined in the global_asm! block above with
// exactly these signatures and the sysv64 callee-saved contract.
unsafe extern "C" {
    fn mcsim_coop_switch(save: *mut *mut u8, to: *mut u8);
    fn mcsim_coop_trampoline();
}

/// What a coroutine runs: a type-erased, boxed one-shot closure returning
/// the context slot to switch to after the core has retired, plus the
/// switch-table coordinates the entry shim needs for that final switch.
///
/// The closure returns **after** retiring (it must not switch away itself
/// at the end), so its `Box` is consumed and freed by the call — a closure
/// that never returned would leak its captures on every run.
pub(crate) struct CoroPayload {
    pub f: Option<Box<dyn FnOnce() -> usize>>,
    /// Context-slot table shared with the run loop.
    pub ctxs: *mut *mut u8,
    /// This coroutine's own slot in `ctxs`.
    pub own_slot: usize,
}

#[no_mangle]
extern "C" fn mcsim_coop_entry(payload: *mut CoroPayload) {
    // SAFETY: the payload box is owned (and later freed) by the run loop —
    // the `prepare` contract keeps it alive until this first entry; only
    // the closure is taken out of it here. Calling the FnOnce box by value
    // frees the closure's own allocation when it returns.
    let f = unsafe { (*payload).f.take() }.expect("coroutine entered twice");
    let target = f();
    // SAFETY: the core has retired; leave this stack forever. Only Copy
    // data lives in this frame, so abandoning it leaks nothing, and the
    // target context in the shared table is live by the switch contract.
    unsafe {
        let ctxs = (*payload).ctxs;
        let own = (*payload).own_slot;
        switch(ctxs.add(own), *ctxs.add(target));
    }
    // A retired coroutine's context is never resumed.
    std::process::abort();
}

/// A coroutine stack: an anonymous mmap with a `PROT_NONE` guard page at
/// the low end, so overflowing the stack faults (SIGSEGV) exactly like an
/// OS thread overflowing its kernel guard page would — never silent heap
/// corruption. Pages are committed lazily by the kernel, so untouched
/// stack costs address space, not resident memory.
pub(crate) struct Stack {
    /// Base of the whole mapping (guard page first).
    base: *mut u8,
    /// Total mapping length including the guard page.
    len: usize,
}

/// Default usable stack size per simulated core. Workload closures are
/// shallow (data-structure ops, no deep recursion); 1 MiB leaves ample
/// headroom, and the guard page catches anything deeper.
pub(crate) const STACK_SIZE: usize = 1 << 20;

const PAGE: usize = 4096;

/// Raw x86-64 Linux syscall `nr` with three arguments (the workspace is
/// offline: no libc crate). The asm clobbers only rcx/r11, per the kernel
/// ABI.
///
/// # Safety
///
/// The caller passes argument values valid for syscall `nr`, and the call
/// must not unmap or remap memory that is still in use.
unsafe fn sys3(nr: usize, a: usize, b: usize, c: usize) -> isize {
    sys6(nr, a, b, c, 0, 0, 0)
}

/// [`sys3`] with six arguments.
///
/// # Safety
///
/// As for [`sys3`].
#[allow(clippy::too_many_arguments)]
unsafe fn sys6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a,
        in("rsi") b,
        in("rdx") c,
        in("r10") d,
        in("r8") e,
        in("r9") f,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

impl Stack {
    pub fn new(size: usize) -> Self {
        const SYS_MMAP: usize = 9;
        const SYS_MPROTECT: usize = 10;
        const PROT_READ_WRITE: usize = 0x3;
        const PROT_NONE: usize = 0x0;
        const MAP_PRIVATE_ANON: usize = 0x22;
        let len = size.next_multiple_of(PAGE) + PAGE;
        // SAFETY: a fresh anonymous private mapping aliases nothing; the
        // error branches abort before the pointer is ever used.
        unsafe {
            let base = sys6(
                SYS_MMAP,
                0,
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANON,
                usize::MAX, // fd = -1
                0,
            );
            // Raw syscalls signal errors as -errno in -4095..=-1.
            assert!(
                !(-4095..=-1).contains(&base),
                "mmap failed for coroutine stack: errno {}",
                -base
            );
            let base = base as *mut u8;
            // Guard page at the low end (stacks grow down).
            let r = sys3(SYS_MPROTECT, base as usize, PAGE, PROT_NONE);
            assert_eq!(r, 0, "mprotect failed for stack guard page: errno {}", -r);
            Self { base, len }
        }
    }

    /// Highest usable address (exclusive).
    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the owned mapping, never dereferenced
        // directly (the seeded frame starts below it).
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        const SYS_MUNMAP: usize = 11;
        // SAFETY: unmapping the exact mapping created in `new`; Drop runs
        // only after every coroutine on this stack has retired.
        unsafe {
            sys3(SYS_MUNMAP, self.base as usize, self.len, 0);
        }
    }
}

/// Seed `stack` with a trampoline frame for `payload` and return the
/// context pointer to [`switch`] into.
///
/// Frame layout (descending addresses from the 16-byte-aligned top):
/// `[0 pad] [trampoline] [rbp=0] [rbx=payload] [r12..r15 = 0]
/// [mxcsr | x87cw<<32]`, matching the restore order in
/// `mcsim_coop_switch`; the FP control slot is seeded with the
/// architectural defaults (MXCSR 0x1F80, x87 CW 0x037F).
///
/// # Safety
/// `payload` must stay valid until the coroutine has been entered, and
/// `stack` must outlive every switch into the returned context.
pub(crate) unsafe fn prepare(stack: &mut Stack, payload: *mut CoroPayload) -> *mut u8 {
    let top = stack.top();
    let top = top.sub(top as usize & 15); // align down to 16
    let mut sp = top as *mut u64;
    sp = sp.sub(1);
    sp.write(0); // padding; keeps the trampoline's rsp ≡ 8 (mod 16)
    sp = sp.sub(1);
    sp.write(mcsim_coop_trampoline as *const () as u64);
    sp = sp.sub(1);
    sp.write(0); // rbp
    sp = sp.sub(1);
    sp.write(payload as u64); // rbx → rdi in the trampoline
    sp = sp.sub(4);
    std::ptr::write_bytes(sp, 0, 4); // r12..r15
    sp = sp.sub(1);
    sp.write(0x1F80 | (0x037F << 32)); // default MXCSR | x87 control word
    sp as *mut u8
}

/// Switch from the current context (saved through `save`) to `to`.
///
/// # Safety
/// `to` must be a context produced by [`prepare`] or a previous save, on a
/// still-live stack, and never currently running.
#[inline]
pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
    mcsim_coop_switch(save, to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ptr;

    #[test]
    fn coroutine_round_trip() {
        // A coroutine that increments a counter each time it is resumed and
        // yields back, demonstrating switch/resume, the trampoline, and the
        // final entry-performed switch. Slot 0 = coroutine, slot 1 = main.
        use std::sync::atomic::{AtomicU32, Ordering};
        static mut CTXS: [*mut u8; 2] = [ptr::null_mut(); 2];
        static COUNT: AtomicU32 = AtomicU32::new(0);

        let mut stack = Stack::new(64 * 1024);
        let ctxs = &raw mut CTXS as *mut *mut u8;
        // SAFETY: the context table and stack are static/local state that
        // outlives every switch (here and in the block below); slot 1 is
        // saved by the switch that resumes slot 0, so targets are always
        // live.
        let body: Box<dyn FnOnce() -> usize> = Box::new(move || unsafe {
            for _ in 0..3 {
                COUNT.fetch_add(1, Ordering::Relaxed);
                switch(ctxs, *ctxs.add(1));
            }
            1 // final target: main — the entry shim performs this switch
        });
        let mut payload = CoroPayload {
            f: Some(body),
            ctxs,
            own_slot: 0,
        };
        // SAFETY: payload and stack outlive the coroutine (it retires
        // inside this block); every switch target was just saved/prepared.
        unsafe {
            CTXS[0] = prepare(&mut stack, &mut payload);
            for expect in 1..=3u32 {
                switch(ctxs.add(1), *ctxs);
                assert_eq!(COUNT.load(Ordering::Relaxed), expect);
            }
            switch(ctxs.add(1), *ctxs); // resume: loop ends, body returns
            assert_eq!(COUNT.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn closure_drops_before_final_switch_and_resaved_contexts_round_trip() {
        // Unsafe-sweep audit pin for two module-doc claims:
        // (1) the entry shim consumes and frees the coroutine's closure
        //     Box *before* the final switch away — a closure that switched
        //     away itself would leak its captures on every run. Observed
        //     via an Arc refcount: 2 while the body is suspended mid-run,
        //     back to 1 the moment control returns from the final switch.
        // (2) a *re-saved* context (not the fresh trampoline frame that
        //     `coroutine_round_trip` exercises on first entry) restores
        //     its callee-saved state exactly: the loop counter lives in
        //     the coroutine's frame across three suspend/resume cycles,
        //     so any switch-frame corruption derails `progress`.
        use std::sync::Arc;
        // Slot 0 = coroutine, slot 1 = main. Locals are fine: raw pointers
        // carry no lifetime, and everything outlives the final switch.
        let mut ctxs: [*mut u8; 2] = [ptr::null_mut(); 2];
        let ctxs_ptr = ctxs.as_mut_ptr();
        let token = Arc::new(());
        let witness = Arc::clone(&token);
        let mut progress = 0u64;
        let progress_ptr: *mut u64 = &mut progress;
        // SAFETY: ctxs/progress are locals of the enclosing test frame,
        // which is suspended (hence live) whenever the coroutine runs, here
        // and in the block below; slot reads always follow the matching
        // save.
        let body: Box<dyn FnOnce() -> usize> = Box::new(move || unsafe {
            let _held = witness; // freed only when the closure is dropped
            for i in 1..=3u64 {
                *progress_ptr = i;
                switch(ctxs_ptr, *ctxs_ptr.add(1));
            }
            1 // final target: main — performed by the entry shim
        });
        let mut stack = Stack::new(64 * 1024);
        let mut payload = CoroPayload {
            f: Some(body),
            ctxs: ctxs_ptr,
            own_slot: 0,
        };
        // SAFETY: payload and stack outlive the coroutine (it retires
        // inside this block); every switch target was just saved/prepared.
        unsafe {
            *ctxs_ptr = prepare(&mut stack, &mut payload);
            for expect in 1..=3u64 {
                // Read slot 0 through the table: after the first resume it
                // holds a re-saved context, not the prepare() frame.
                switch(ctxs_ptr.add(1), *ctxs_ptr);
                assert_eq!(std::ptr::read(progress_ptr), expect);
                assert_eq!(Arc::strong_count(&token), 2, "closure must be live mid-run");
            }
            switch(ctxs_ptr.add(1), *ctxs_ptr); // body returns; shim frees it
            assert_eq!(
                Arc::strong_count(&token),
                1,
                "closure must be freed before the final switch"
            );
        }
    }
}
