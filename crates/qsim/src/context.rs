//! Stackful coroutines: the stacks simulated processes run on, and the
//! register switch that passes the CPU from one of them to another.
//!
//! Every simulated process of a run executes on the OS thread that called
//! [`crate::Simulation::run`], each on a [`Stack`] of its own. Handing the
//! CPU to another process is one [`Context::switch`]: push the callee-saved
//! registers onto the running stack, store the stack pointer in the running
//! [`Context`], load the target's stack pointer and pop the registers it
//! pushed when it was suspended. Nothing enters the OS kernel, so a handoff
//! costs a few dozen instructions instead of a futex wake plus a kernel
//! context switch.
//!
//! The switch follows the x86_64 System V ABI, and the stacks are Linux
//! mappings; other targets do not build.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "qsim runs simulated processes as x86_64 Linux coroutines; other targets are unsupported"
);

#[cfg(test)]
use std::cell::Cell;
use std::cell::UnsafeCell;
use std::ffi::c_void;
use std::ptr::NonNull;

/// Usable depth of one coroutine stack: that of std's default thread stack.
const STACK_SIZE: usize = 2 << 20;
/// One `PROT_NONE` page below the stack turns an overflow into a fault.
const GUARD_SIZE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;

/// MXCSR and x87 control word a new context starts with: the ABI defaults
/// (all exceptions masked, round to nearest, 64-bit x87 precision).
const MXCSR_DEFAULT: u64 = 0x1f80;
const X87_CW_DEFAULT: u64 = 0x037f;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

#[cfg(test)]
thread_local! {
    /// Coroutine stacks mapped and not yet unmapped by this thread. A run
    /// maps and unmaps all of its stacks on the thread that calls `run`.
    static LIVE_STACKS: Cell<usize> = const { Cell::new(0) };
}

/// Coroutine stacks this thread has mapped and not unmapped (leak checks).
#[cfg(test)]
pub(crate) fn live_stacks() -> usize {
    LIVE_STACKS.with(Cell::get)
}

/// One coroutine stack: a private `MAP_NORESERVE` mapping, so only the
/// pages a process touches cost memory, with a guard page at its low end.
pub(crate) struct Stack {
    /// Lowest address of the mapping (the guard page).
    base: NonNull<u8>,
}

impl Stack {
    fn new() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE;
        // SAFETY: an anonymous mapping at an address of the kernel's choice
        // touches no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "mmap of a coroutine stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping just made is ours to protect.
        let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a stack guard page failed");
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() + 1));
        Stack {
            base: NonNull::new(base.cast()).expect("mmap returned null"),
        }
    }

    /// Give up ownership of the mapping, as its base address.
    pub(crate) fn into_raw(self) -> *mut u8 {
        let base = self.base.as_ptr();
        std::mem::forget(self);
        base
    }

    /// Take back a mapping given up with [`Stack::into_raw`].
    ///
    /// # Safety
    ///
    /// `base` came from `into_raw`, and nothing else takes it back.
    pub(crate) unsafe fn from_raw(base: *mut u8) -> Stack {
        Stack {
            base: NonNull::new(base).expect("a stack base is never null"),
        }
    }

    /// Whether `addr` lies in this stack's usable range.
    pub(crate) fn contains(&self, addr: *const u8) -> bool {
        let base = self.base.as_ptr().cast_const();
        addr >= base.wrapping_add(GUARD_SIZE) && addr < self.top().cast_const()
    }

    /// One past the highest usable address; 16-byte aligned (page aligned).
    fn top(&self) -> *mut u8 {
        // SAFETY: the mapping is `GUARD_SIZE + STACK_SIZE` bytes long.
        unsafe { self.base.as_ptr().add(GUARD_SIZE + STACK_SIZE) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of this length that this
        // `Stack` owns. The kernel drops a stack only once no code will run
        // on it again: a finished process's after it switched away for
        // good, any other when its simulation is dropped. A failure could
        // only leak the mapping, so it is not checked.
        unsafe { munmap(self.base.as_ptr().cast(), GUARD_SIZE + STACK_SIZE) };
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() - 1));
    }
}

/// The saved state of one suspended context. The registers sit on its own
/// stack, pushed by [`Context::switch`]; only the stack pointer lives here.
pub(crate) struct Context {
    sp: UnsafeCell<*mut u8>,
}

impl Context {
    pub(crate) fn new() -> Context {
        Context {
            sp: UnsafeCell::new(std::ptr::null_mut()),
        }
    }

    /// Map a new stack and lay out a first frame on it such that the first
    /// switch into `self` calls `entry(a0, a1)` at its top. The caller
    /// keeps the stack mapped until that coroutine has switched away for
    /// good.
    ///
    /// # Safety
    ///
    /// `self` must not be running, and no switch into it may run until
    /// this returns.
    pub(crate) unsafe fn start(
        &self,
        entry: unsafe extern "C" fn(usize, usize) -> !,
        a0: usize,
        a1: usize,
    ) -> Stack {
        let stack = Stack::new();
        // Popped by `switch_stacks` in this order, lowest address first:
        // the FP control words, r15, r14, r13, r12, rbx, rbp, and the
        // return address. After the `ret` into `trampoline`, rsp is the
        // 16-byte-aligned stack top, as the ABI wants at a `call`.
        let frame: [u64; 8] = [
            (X87_CW_DEFAULT << 32) | MXCSR_DEFAULT,
            0,
            entry as *const () as u64,
            a1 as u64,
            a0 as u64,
            0,
            0,
            trampoline as *const () as u64,
        ];
        // SAFETY: the frame fits in the top 64 bytes of the new stack,
        // which no code runs on, and `top` is 8-byte aligned; by the
        // caller's contract nothing else reads or writes `self.sp` now.
        unsafe {
            let sp = stack.top().cast::<u64>().sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            *self.sp.get() = sp.cast();
        }
        stack
    }

    /// Suspend the running code into `self` and resume `to`, handing it
    /// `msg`. Returns the `msg` of the switch that later resumes `self`.
    ///
    /// Panics if the thread is unwinding: every process of a run shares the
    /// thread's panic state, so a switch would show one process's unwind to
    /// another (and `std::thread::panicking` would lie to it).
    ///
    /// # Safety
    ///
    /// `to` must be suspended — saved by an earlier `switch` or laid out by
    /// [`Context::start`] — and not resumed by anyone else, on a stack that
    /// stays mapped while it runs. `self` must be the running context.
    pub(crate) unsafe fn switch(&self, to: &Context, msg: usize) -> usize {
        assert!(
            !std::thread::panicking(),
            "a coroutine switch while unwinding"
        );
        // SAFETY: by the caller's contract `to` is suspended and its frame
        // is mapped; `self.sp` receives our stack pointer before any other
        // code can read it.
        unsafe { switch_stacks(self.sp.get(), *to.sp.get(), msg) }
    }
}

/// Push the callee-saved state, store rsp to `*save`, load `load` into rsp,
/// pop the state saved there and return `msg` on the loaded stack. The
/// callee-saved state of the System V ABI is rbx, rbp, r12–r15, rsp, the
/// MXCSR control bits and the x87 control word.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(save: *mut *mut u8, load: *mut u8, msg: usize) -> usize {
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
        "mov rax, rdx",
        "ret",
    )
}

/// First code of every coroutine: call `entry(a0, a1)` as [`Context::start`]
/// left them in r14, r12 and r13. The frame marks the return address
/// undefined, so unwinders and backtraces stop here; the entry never
/// returns, and `ud2` traps if it ever does.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "mov rsi, r13",
        "call r14",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair {
        main: Context,
        coro: Context,
        log: Cell<u64>,
    }

    /// Log each message and pass it back, plus one, to `main`.
    ///
    /// # Safety
    ///
    /// `pair` points at a `Pair` that outlives the coroutine, whose `main`
    /// is suspended in a switch to `coro`.
    unsafe extern "C" fn bounce(pair: usize, first: usize) -> ! {
        // SAFETY: `pair` points at the test's `Pair`, alive while we run.
        let pair = unsafe { &*(pair as *const Pair) };
        let mut msg = first;
        loop {
            pair.log.set(pair.log.get() * 10 + msg as u64);
            // Floating point across switches keeps its rounding mode.
            assert_eq!((msg as f64 / 3.0 * 3.0).round() as usize, msg);
            // SAFETY: `main` suspended itself to resume us.
            msg = unsafe { pair.coro.switch(&pair.main, msg + 1) };
        }
    }

    #[test]
    fn switch_passes_messages_both_ways() {
        let live = live_stacks();
        let pair = Pair {
            main: Context::new(),
            coro: Context::new(),
            log: Cell::new(0),
        };
        // SAFETY: `coro` has never run.
        let stack = unsafe { pair.coro.start(bounce, &pair as *const Pair as usize, 1) };
        assert_eq!(live_stacks(), live + 1);
        // SAFETY: `coro` is laid out on a mapped stack; later it is
        // suspended in its own `switch`.
        let got: Vec<usize> = (0..3)
            .map(|i| unsafe { pair.main.switch(&pair.coro, i + 5) })
            .collect();
        // The first switch enters `bounce` with its start argument (1);
        // every later one resumes it with the message.
        assert_eq!(got, vec![2, 7, 8]);
        assert_eq!(pair.log.get(), 167);
        drop(stack);
        assert_eq!(live_stacks(), live);
    }
}
