//! Stacks of their own for simulated threads, and the switch between them.
//!
//! Under [`SimEngine`](crate::SimEngine) exactly one Amber thread runs at a
//! time, so each needs a stack but not an OS thread. [`Stack`] maps one with
//! a guard page below it, [`prepare`] lays a first frame on it, and [`swap`]
//! saves the running context on its own stack and resumes another: the
//! callee-saved registers, the floating-point control state and the stack
//! pointer, nothing else. Every stack's base frame is [`trampoline`], which
//! tells unwinders the stack ends there.
//!
//! A stack is mapped once and kept: the simulator's fibers outlive their
//! engine in a process-wide cache (`sim.rs`), so a run that follows another
//! maps, protects and faults in nothing. Tests count the stacks each OS
//! thread maps (`tests::mapped_here`).

use std::ffi::{c_int, c_long, c_void};
use std::io;
use std::ptr::NonNull;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("SimEngine switches stacks by hand on x86_64 and aarch64 Linux only");

/// Usable bytes of a simulated thread's stack: what its OS thread had when
/// it had one.
const STACK_BYTES: usize = 256 * 1024;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const SC_PAGESIZE: c_int = 30;

// std links libc already; these are its declarations on Linux.
unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// A mapped stack: [`STACK_BYTES`] above one `PROT_NONE` guard page, so an
/// overflow faults instead of writing over a neighbour.
pub(crate) struct Stack {
    base: NonNull<u8>,
    len: usize,
}

impl Stack {
    pub(crate) fn new() -> io::Result<Stack> {
        #[cfg(test)]
        tests::MAPPED.set(tests::MAPPED.get() + 1);
        // SAFETY: sysconf only reads a constant of the running system.
        let page = unsafe { sysconf(SC_PAGESIZE) } as usize;
        let len = STACK_BYTES + page;
        let prot = PROT_READ | PROT_WRITE;
        // SAFETY: a fresh private anonymous mapping, placed by the kernel,
        // aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                prot,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        let base = match NonNull::new(base.cast::<u8>()) {
            Some(base) if base.as_ptr() as usize != usize::MAX => base,
            _ => return Err(io::Error::last_os_error()),
        };
        let stack = Stack { base, len };
        // SAFETY: the lowest page of the mapping just made; nothing uses it.
        if unsafe { mprotect(base.as_ptr().cast(), page, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// One past the highest byte: page-aligned, so 16-byte aligned.
    fn top(&self) -> *mut u8 {
        self.base.as_ptr().wrapping_add(self.len)
    }

    /// Whether `addr` lies in the mapping: a local's address says whether
    /// the code taking it runs on this stack.
    pub(crate) fn contains(&self, addr: *const u8) -> bool {
        (self.base.as_ptr().cast_const()..self.top().cast_const()).contains(&addr)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this stack's own, and whoever drops it
        // runs on another stack and never resumes a context saved on it.
        unsafe { munmap(self.base.as_ptr().cast(), self.len) };
    }
}

/// Lays a first frame at the top of `stack` and returns the stack pointer
/// a [`swap`] resumes it from: that swap "returns" into [`trampoline`],
/// which calls `entry(arg)`.
///
/// # Safety
///
/// No context may be saved on `stack`: its top is overwritten.
pub(crate) unsafe fn prepare(
    stack: &Stack,
    entry: extern "C" fn(*mut u8) -> !,
    arg: *mut u8,
) -> *mut u8 {
    let trampoline = trampoline as *const () as usize;
    let (entry, arg) = (entry as *const () as usize, arg as usize);
    // The words `swap` pops, lowest address first.
    #[cfg(target_arch = "x86_64")]
    let frame: [usize; 10] = [
        // MXCSR (all exceptions masked, round to nearest), x87 control word.
        0x1F80 | (0x037F << 32),
        0,     // r15
        0,     // r14
        arg,   // r13
        entry, // r12
        0,     // rbx
        0,     // rbp: no caller frame
        trampoline,
        // Padding: the trampoline starts 16-byte aligned, as a `call` needs.
        0,
        0,
    ];
    // x19, x20, x21..x28, x29, x30, d8..d15, FPCR, padding (sp stays
    // 16-byte aligned). Zero x29 says there is no caller frame; zero FPCR
    // rounds to nearest and traps nothing.
    #[cfg(target_arch = "aarch64")]
    let frame: [usize; 22] = {
        let mut frame = [0; 22];
        frame[0] = entry;
        frame[1] = arg;
        frame[11] = trampoline;
        frame
    };
    let sp = stack.top().wrapping_sub(std::mem::size_of_val(&frame));
    // SAFETY: the frame fits well inside the mapping, is aligned (the top
    // is, and the frame is a multiple of 16 bytes) and, by the contract,
    // holds no saved context.
    unsafe {
        sp.cast::<usize>()
            .copy_from_nonoverlapping(frame.as_ptr(), frame.len())
    };
    sp
}

/// Saves the running context on its own stack, stores its stack pointer at
/// `*save`, and resumes the context saved at `load`; returns when something
/// swaps back to the stack pointer stored at `*save`.
///
/// # Safety
///
/// `load` is a stack pointer from [`prepare`] or a `*save` of an earlier
/// swap, not resumed since; its stack is mapped, and `save` is writable.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn swap(save: *mut *mut u8, load: *mut u8) {
    // SAFETY: saves exactly what `prepare`'s frame and the load half below
    // restore, in the same order; every other register is caller-saved.
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// See the x86_64 version.
///
/// # Safety
///
/// As for the x86_64 version.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn swap(save: *mut *mut u8, load: *mut u8) {
    // SAFETY: saves exactly what `prepare`'s frame and the load half below
    // restore, in the same order; every other register is caller-saved
    // (of v8..v15 only the low halves, d8..d15, are callee-saved).
    std::arch::naked_asm!(
        "sub sp, sp, #176",
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
        "mrs x9, fpcr",
        "str x9, [sp, #160]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldr x9, [sp, #160]",
        "msr fpcr, x9",
        "ldp d14, d15, [sp, #144]",
        "ldp d12, d13, [sp, #128]",
        "ldp d10, d11, [sp, #112]",
        "ldp d8, d9, [sp, #96]",
        "ldp x29, x30, [sp, #80]",
        "ldp x27, x28, [sp, #64]",
        "ldp x25, x26, [sp, #48]",
        "ldp x23, x24, [sp, #32]",
        "ldp x21, x22, [sp, #16]",
        "ldp x19, x20, [sp, #0]",
        "add sp, sp, #176",
        "ret",
    )
}

/// The base frame of every prepared stack: calls the entry `prepare` left
/// in a callee-saved register with its argument. The return address is
/// undefined here, so an unwinder (a backtrace) stops at this frame instead
/// of walking off the top of the stack.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    // SAFETY: entered only by `swap`'s `ret` onto a `prepare`d frame, with
    // the entry in r12, its argument in r13 and rsp 16-byte aligned; the
    // entry never returns.
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r13",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

/// See the x86_64 version.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    // SAFETY: entered only by `swap`'s `ret` onto a `prepare`d frame, with
    // the entry in x19 and its argument in x20; the entry never returns.
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined lr",
        "mov x0, x20",
        "blr x19",
        "brk #1",
        ".cfi_endproc",
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    thread_local! {
        pub(super) static MAPPED: Cell<u64> = const { Cell::new(0) };
    }

    /// How many stacks this OS thread has mapped: per OS thread, because
    /// the test harness runs other engines' tests beside the one asking.
    pub(crate) fn mapped_here() -> u64 {
        MAPPED.get()
    }
}
