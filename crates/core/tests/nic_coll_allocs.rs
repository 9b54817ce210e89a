//! Heap traffic of the NIC-offloaded collectives. A fired event hands its
//! payload to the host and to every forwarding chain as one buffer, the
//! first contribution becomes the accumulator, only the event a rank
//! waits on queues a payload for its host, and each program sleeps on one
//! signal. This binary counts every heap allocation one collective makes
//! on a 16-rank world, after warm-up rounds have built its program and
//! grown the stack's and the kernel's queues, with the counting global allocator
//! of `common`, and requires the exact count: a NIC barrier allocates
//! nothing.
//!
//! The host-tree allreduce the NIC programs replace is counted the same
//! way: its matches and polled RDMA completions collect into scratch lists
//! that allocate nothing for zero or one entry.

use std::cell::Cell;
use std::rc::Rc;

use openmpi_core::{Mpi, Placement, ReduceOp, StackConfig, Transports, Universe};

mod common;
use common::{ALLOCS, WINDOW};

#[global_allocator]
static ALLOC: common::Counting = common::Counting { floor: 0 };

/// World size (one rank per node): a radix-4 program tree two levels deep.
const RANKS: usize = 16;
/// Rounds run before the counted one. The first builds the programs; the
/// rest let the calendar queue's wheel slots, which keep their capacity
/// once grown, reach the most events any of them holds in this traffic,
/// over more than a hundred turns of the 262 µs wheel.
const WARMUP: u64 = 100;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Coll {
    /// NIC barrier.
    Barrier,
    /// NIC bcast of 2 KiB from root 5.
    Bcast,
    /// NIC SumU64 allreduce of 2 KiB.
    Allreduce,
    /// SumU64 allreduce of 4 KiB: too large for a NIC program, so it runs
    /// as a reduce and a bcast over point-to-point.
    HostAllreduce,
}

/// Payload bytes of each collective.
fn len(coll: Coll) -> usize {
    match coll {
        Coll::Barrier => 0,
        Coll::Bcast | Coll::Allreduce => 2048,
        Coll::HostAllreduce => 4096,
    }
}

/// `len` bytes of little-endian u64 lanes, lane `l` holding `f(l)`.
fn lanes(len: usize, f: impl Fn(u64) -> u64) -> Vec<u8> {
    (0..len as u64 / 8)
        .flat_map(|l| f(l).to_le_bytes())
        .collect()
}

/// This rank's input for `round`, and what every rank must hold after it.
fn pattern(coll: Coll, rank: usize, round: u64) -> (Vec<u8>, Vec<u8>) {
    let len = len(coll);
    let lane = |r: u64, l: u64| r * (l + 3) + round;
    match coll {
        Coll::Barrier => (Vec::new(), Vec::new()),
        Coll::Bcast => {
            let want = lanes(len, |l| lane(5, l));
            let mine = if rank == 5 { want.clone() } else { Vec::new() };
            (mine, want)
        }
        Coll::Allreduce | Coll::HostAllreduce => (
            lanes(len, |l| lane(rank as u64, l)),
            lanes(len, |l| (0..RANKS as u64).map(|r| lane(r, l)).sum()),
        ),
    }
}

fn run(mpi: &Mpi, coll: Coll, buf: &elan4::HostBuf) {
    let w = mpi.world();
    match coll {
        Coll::Barrier => mpi.barrier(&w),
        Coll::Bcast => mpi.bcast(&w, 5, buf, len(coll)),
        Coll::Allreduce | Coll::HostAllreduce => {
            mpi.allreduce(&w, ReduceOp::SumU64, buf, len(coll))
        }
    }
}

/// Run `coll` for `WARMUP` rounds and then a counted one, with a NIC
/// barrier around each; returns the counted round's allocations. The
/// window opens when the first rank leaves the barrier before the counted
/// call and closes when the last rank returns from it, so it also covers
/// the tail of that barrier and the head of the next, both of which
/// allocate nothing.
fn counted(coll: Coll) -> usize {
    let mut cfg = StackConfig::best();
    cfg.coll_nic_offload = true;
    cfg.metrics = true;
    // The flight recorder's ring grows on demand up to its capacity, so
    // it would still be growing inside the window.
    cfg.flight_recorder = false;
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig {
            nodes: RANKS,
            ..Default::default()
        },
        cfg,
        Transports::default(),
    );
    let finished = Rc::new(Cell::new(0));
    ALLOCS.set(0);
    {
        let finished = finished.clone();
        uni.run_world(RANKS, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let buf = mpi.alloc(len(coll).max(1));
            for round in 0..=WARMUP {
                let (mine, want) = pattern(coll, me, round);
                mpi.write(&buf, 0, &mine);
                mpi.barrier(&w);
                let is_counted = round == WARMUP;
                if is_counted {
                    WINDOW.set(true);
                }
                run(&mpi, coll, &buf);
                if is_counted {
                    finished.set(finished.get() + 1);
                    if finished.get() == RANKS {
                        WINDOW.set(false);
                    }
                }
                mpi.barrier(&w);
                assert_eq!(
                    mpi.read(&buf, 0, len(coll)),
                    want,
                    "{coll:?}: rank {me} round {round}"
                );
            }
            mpi.free(buf);
        });
    }
    assert_eq!(finished.get(), RANKS, "{coll:?}: every rank finishes");
    assert!(
        uni.cluster.stats().event_writes > 0,
        "{coll:?}: no NIC program ran"
    );
    ALLOCS.get()
}

#[test]
fn nic_barrier_allocates_nothing() {
    assert_eq!(counted(Coll::Barrier), 0);
}

/// The root's staged read of the frame and the one shared buffer its
/// children's QDMAs carry; every hop below forwards that buffer.
#[test]
fn nic_bcast_allocates_the_roots_staged_frame_and_its_share() {
    assert_eq!(counted(Coll::Bcast), 2);
}

/// Each rank's read of its contribution, which becomes the accumulator of
/// its fan-in event, and the buffer the root's fire shares between its
/// host and the fan-out: one per rank plus one.
#[test]
fn nic_allreduce_allocates_one_contribution_per_rank_and_one_share() {
    assert_eq!(counted(Coll::Allreduce), RANKS + 1);
}

/// Reduce and bcast over point-to-point. A match and a polled RDMA
/// completion each reach their handler through a scratch list that holds
/// one entry inline: with a heap list per pass the count was 241 (45 more
/// for the matches, 15 more for the completions). The round issues 15
/// RDMA descriptors. Each one's completion event reuses a freed slot,
/// whose chain list keeps its capacity, and its pending record owns it
/// without an `Rc`; each share is split across rails without a list, and
/// the fire moves its chained frame onto the wire instead of copying it.
/// With a fresh slot, an `Rc` and a chunk list per descriptor the count
/// was 181, and with a copy of each chained frame 136.
#[test]
fn host_allreduce_allocation_count() {
    assert_eq!(counted(Coll::HostAllreduce), 121);
}
