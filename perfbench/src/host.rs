//! The host under the wall clock: pinning the process to one CPU, and
//! measuring what a thread handoff costs there.
//!
//! `qsim` runs one rank thread at a time and passes the turn on with an
//! atomic flag and a park/unpark. When the threads may float across CPUs,
//! most handoffs wake a thread on another CPU, and what that costs depends
//! on what else the host runs there. Pinned to one CPU, every handoff is a
//! local context switch. Its cost still drifts with the host's load, by
//! 20–40% between runs a few minutes apart on a shared 2-vCPU VM, while
//! arithmetic and memory copies hold steady; [`handoff_ns`] measures it so
//! that the wall metrics can be scaled to a fixed reference cost.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Instant;

/// Handoffs per [`handoff_ns`] sample: tens of ms.
const HANDOFFS: usize = 10_000;

/// Words of the CPU mask handed to the kernel: room for 1024 CPUs.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread, and so every thread it starts afterwards, to
/// the first CPU it is allowed on. Returns that CPU, or `None` if the
/// platform has no affinity call or refused it.
#[cfg(target_os = "linux")]
pub fn pin_first_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Restrict the calling thread to one CPU: not available here.
#[cfg(not(target_os = "linux"))]
pub fn pin_first_cpu() -> Option<usize> {
    None
}

/// Wall ns of one thread handoff in a ring of `threads` threads (at least
/// 2): each waits for its turn with park and passes it to the next with
/// unpark, the way `qsim` passes the turn between ranks. With many threads
/// each switch also reaches a stack that has left the caches, as in a world
/// of many ranks. Thread start-up is not timed, and every helper thread has
/// ended when this returns.
pub fn handoff_ns(threads: usize) -> f64 {
    let n = threads.max(2);
    let laps = HANDOFFS.div_ceil(n);
    // Whose turn it is; `n` until the ring is complete.
    let turn = Arc::new(AtomicUsize::new(n));
    let ring: Arc<OnceLock<Vec<Thread>>> = Arc::new(OnceLock::new());
    let helpers: Vec<_> = (1..n)
        .map(|me| {
            let (turn, ring) = (turn.clone(), ring.clone());
            std::thread::spawn(move || {
                let next = (me + 1) % n;
                for _ in 0..laps {
                    while turn.load(Ordering::Acquire) != me {
                        std::thread::park();
                    }
                    turn.store(next, Ordering::Release);
                    ring.get().expect("the ring is complete")[next].unpark();
                }
            })
        })
        .collect();
    let mut threads = vec![std::thread::current()];
    threads.extend(helpers.iter().map(|h| h.thread().clone()));
    let ring = ring.get_or_init(|| threads);
    let t = Instant::now();
    for _ in 0..laps {
        turn.store(1, Ordering::Release);
        ring[1].unpark();
        while turn.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
    }
    let ns = t.elapsed().as_nanos() as f64 / (laps * n) as f64;
    for h in helpers {
        h.join().expect("a handoff helper does not panic");
    }
    ns
}
