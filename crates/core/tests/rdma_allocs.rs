//! Heap traffic of the rendezvous RDMA path. Each RDMA descriptor's
//! completion event reuses a slot its context freed earlier, keeping the
//! slot's chain-list capacity, and is owned by its pending record without
//! an `Rc`; a monolithic share is split across rails without a list. This
//! binary counts every heap allocation one pre-posted message makes on a
//! 2-rank world, after warm-up rounds have grown the stack's and the
//! kernel's queues and the event tables, with the counting global allocator
//! of `common`, and requires the exact count: under the doorbell
//! (`PollEvent`) and under both shared completion queue modes.

use std::cell::Cell;
use std::rc::Rc;

use openmpi_core::{CompletionMode, Placement, StackConfig, Transports, Universe};

mod common;
use common::{ALLOCS, WINDOW};

#[global_allocator]
static ALLOC: common::Counting = common::Counting { floor: 0 };

/// Rounds run before the counted one.
const WARMUP: usize = 100;

/// The byte pattern of `round`'s message.
fn pattern(len: usize, round: usize) -> Vec<u8> {
    (0..len).map(|b| (round * 31 + b * 7) as u8).collect()
}

/// Send one `len`-byte message from rank 0 to rank 1 for `WARMUP` rounds
/// and then a counted one, with RDMA completions reaching the host per
/// `completion`, the receive posted before a NIC barrier and the
/// send after it; returns the counted round's allocations and the RDMA
/// descriptors it issued. The window opens when the sender leaves the
/// barrier and closes when the last rank has completed its request, so it
/// also covers the barrier's tail on the receiver, which allocates
/// nothing.
fn counted(len: usize, completion: CompletionMode) -> (usize, u64) {
    let mut cfg = StackConfig::best();
    cfg.completion = completion;
    cfg.coll_nic_offload = true;
    cfg.metrics = true;
    // The flight recorder's ring grows on demand up to its capacity, so
    // it would still be growing inside the window.
    cfg.flight_recorder = false;
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig {
            nodes: 2,
            ..Default::default()
        },
        cfg,
        Transports::default(),
    );
    let finished = Rc::new(Cell::new(0));
    let rdmas = Rc::new(Cell::new(0));
    ALLOCS.set(0);
    {
        let (finished, rdmas) = (finished.clone(), rdmas.clone());
        uni.run_world(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let buf = mpi.alloc(len);
            let cluster = mpi.endpoint().cluster.clone();
            for round in 0..=WARMUP {
                let is_counted = round == WARMUP;
                if me == 0 {
                    mpi.write(&buf, 0, &pattern(len, round));
                    mpi.barrier(&w);
                    if is_counted {
                        rdmas.set(cluster.stats().rdmas);
                        WINDOW.set(true);
                    }
                    mpi.send(&w, 1, 7, &buf, len);
                } else {
                    let r = mpi.irecv(&w, 0, 7, &buf, len);
                    mpi.barrier(&w);
                    mpi.wait(r);
                }
                if is_counted {
                    finished.set(finished.get() + 1);
                    if finished.get() == 2 {
                        WINDOW.set(false);
                        rdmas.set(cluster.stats().rdmas - rdmas.get());
                    }
                }
                if me == 1 {
                    assert_eq!(mpi.read(&buf, 0, len), pattern(len, round), "round {round}");
                }
            }
            mpi.free(buf);
        });
    }
    assert_eq!(finished.get(), 2, "both ranks finish");
    (ALLOCS.get(), rdmas.get())
}

/// Every completion mode with the allocations a message makes under it:
/// the doorbell (`PollEvent`), then the shared completion queue combined
/// with the receive queue or separate from it, where each descriptor's
/// event chains a Completion frame into the queue instead of ringing the
/// doorbell and `arm_descriptor` builds that frame afresh.
fn modes(doorbell: usize, shared: usize) -> [(CompletionMode, usize); 3] {
    [
        (CompletionMode::PollEvent, doorbell),
        (CompletionMode::SharedQueueCombined, shared),
        (CompletionMode::SharedQueueSeparate, shared),
    ]
}

/// A 64 KiB message below `pipe.min_len`: one RDMA read of the whole
/// share. Under the doorbell, with a fresh event slot (whose chain list
/// the chained FIN grew), an `Rc` and a chunk list for its one descriptor
/// the count was 8, and with a copy of the chained FIN_ACK frame at the
/// fire 5.
#[test]
fn monolithic_rdma_message_allocation_count() {
    for (mode, want) in modes(4, 3) {
        let (allocs, rdmas) = counted(64 << 10, mode);
        assert_eq!(rdmas, 1, "{mode:?}");
        assert_eq!(allocs, want, "{mode:?}");
    }
}

/// A 1 MiB message, pipelined in 32 KiB chunks and a held-back tail: 33
/// descriptors. Under the doorbell, with a fresh event slot and an `Rc`
/// per descriptor, and the final one's chain list grown for its FIN, the
/// count was 41, and with a copy of the final chunk's chained frame at the
/// fire 7. The shared queues' count includes a fresh Completion frame per
/// descriptor.
#[test]
fn pipelined_rdma_message_allocation_count() {
    for (mode, want) in modes(6, 45) {
        let (allocs, rdmas) = counted(1 << 20, mode);
        assert_eq!(rdmas, 33, "{mode:?}");
        assert_eq!(allocs, want, "{mode:?}");
    }
}
