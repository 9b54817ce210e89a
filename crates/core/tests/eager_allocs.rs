//! Heap traffic of the eager path. An eager message owns one buffer from
//! send to match: the frame, allocated once at the sender and filled from
//! host memory, moved through the QDMA deposit, stripped of its header in
//! place at the receiver and copied out at the match. This binary counts
//! the payload-sized heap allocations a 2-rank exchange of 1 KiB eager
//! messages makes, with the counting global allocator of `common` and a
//! 1 KiB floor, and requires exactly one per message whether the receive was pre-posted, the message
//! arrived unexpected, or the send parked for flow-control credits.

use std::cell::Cell;
use std::rc::Rc;

use openmpi_core::{Mpi, Placement, StackConfig, Universe};

mod common;
use common::{ALLOCS, WINDOW};

#[global_allocator]
static ALLOC: common::Counting = common::Counting { floor: LEN };

/// Payload bytes per message; allocations at least this large count.
const LEN: usize = 1024;
/// Messages each rank sends the other per round.
const MSGS: usize = 8;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Case {
    /// Receives are posted before any message is sent.
    PrePosted,
    /// Every message is queued unexpected before its receive is posted.
    Unexpected,
    /// Flow control with two credits per peer: most sends park.
    Parked,
}

/// The byte pattern of message `i` from `rank` in `round`.
fn pattern(rank: usize, round: usize, i: usize) -> Vec<u8> {
    (0..LEN)
        .map(|b| (rank * 131 + round * 31 + i * 7 + b) as u8)
        .collect()
}

/// This rank's unexpected arrivals and parked sends so far, read in
/// place: a metrics snapshot would allocate inside the window.
fn shape_now(mpi: &Mpi) -> (u64, u64) {
    let m = mpi.endpoint().metrics.lock();
    (m.counters.unexpected_total, m.counters.flow_sends_queued)
}

/// Run two rounds of the exchange; the second is counted, the first only
/// grows the stack's queues and maps to their steady size. Returns the
/// counted allocations and, per rank, the counted round's unexpected
/// arrivals and parked sends.
fn exchange(case: Case) -> (usize, [(u64, u64); 2]) {
    let mut cfg = StackConfig::best();
    cfg.metrics = true;
    // The flight recorder's ring grows on demand up to its capacity, so
    // it would still be growing inside the window.
    cfg.flight_recorder = false;
    if case == Case::Parked {
        cfg.flow_enable = true;
        cfg.flow_credits = 2;
    }
    // The second rank to finish the counted round closes the window.
    let finished = Rc::new(Cell::new(0));
    ALLOCS.set(0);
    let uni = Universe::paper_testbed(cfg);
    let (_, shape) = {
        let finished = finished.clone();
        uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let (me, peer) = (mpi.rank(), 1 - mpi.rank());
            let mut shape = (0, 0);
            let sbufs: Vec<_> = (0..MSGS).map(|_| mpi.alloc(LEN)).collect();
            let rbufs: Vec<_> = (0..MSGS).map(|_| mpi.alloc(LEN)).collect();
            for round in 0..2 {
                for (i, b) in sbufs.iter().enumerate() {
                    mpi.write(b, 0, &pattern(me, round, i));
                }
                for b in &rbufs {
                    mpi.write(b, 0, &[0; LEN]);
                }
                mpi.barrier(&w);
                let counted = round == 1;
                if counted {
                    WINDOW.set(true);
                }
                let before = shape_now(&mpi);
                let irecvs = |mpi: &Mpi| {
                    (0..MSGS)
                        .map(|i| mpi.irecv(&w, peer as i32, i as i32, &rbufs[i], LEN))
                        .collect::<Vec<_>>()
                };
                let isends = |mpi: &Mpi| {
                    (0..MSGS)
                        .map(|i| mpi.isend(&w, peer, i as i32, &sbufs[i], LEN))
                        .collect::<Vec<_>>()
                };
                let reqs = match case {
                    Case::PrePosted | Case::Parked => {
                        let mut reqs = irecvs(&mpi);
                        mpi.barrier(&w);
                        reqs.extend(isends(&mpi));
                        reqs
                    }
                    Case::Unexpected => {
                        let mut reqs = isends(&mpi);
                        // Frames dispatch in order: once the last is
                        // queued unexpected, so is every other.
                        mpi.probe(&w, peer as i32, MSGS as i32 - 1);
                        reqs.extend(irecvs(&mpi));
                        reqs
                    }
                };
                mpi.waitall(reqs);
                if counted {
                    finished.set(finished.get() + 1);
                    if finished.get() == 2 {
                        WINDOW.set(false);
                    }
                    let after = shape_now(&mpi);
                    shape = (after.0 - before.0, after.1 - before.1);
                }
                mpi.barrier(&w);
                for (i, b) in rbufs.iter().enumerate() {
                    assert_eq!(
                        mpi.read(b, 0, LEN),
                        pattern(peer, round, i),
                        "{case:?}: rank {me} round {round} message {i} corrupt"
                    );
                }
            }
            for b in sbufs.into_iter().chain(rbufs) {
                mpi.free(b);
            }
            shape
        })
    };
    assert_eq!(finished.get(), 2, "{case:?}: both ranks finish the round");
    (ALLOCS.get(), [shape[0], shape[1]])
}

fn assert_one_per_message(case: Case) -> [(u64, u64); 2] {
    let (big, shape) = exchange(case);
    assert_eq!(
        big,
        2 * MSGS,
        "{case:?}: {big} payload-sized allocations for {} eager messages",
        2 * MSGS
    );
    shape
}

#[test]
fn pre_posted_receive_costs_one_allocation_per_message() {
    let shape = assert_one_per_message(Case::PrePosted);
    assert_eq!(shape, [(0, 0); 2], "no message may arrive unexpected");
}

#[test]
fn unexpected_message_costs_one_allocation_per_message() {
    let shape = assert_one_per_message(Case::Unexpected);
    assert_eq!(
        shape,
        [(MSGS as u64, 0); 2],
        "every message arrives unexpected"
    );
}

#[test]
fn parked_send_costs_one_allocation_per_message() {
    let shape = assert_one_per_message(Case::Parked);
    assert!(
        shape.iter().all(|&(_, parked)| parked > 0),
        "sends must park for credits: {shape:?}"
    );
}
