//! The TCP PTL reliability layer under injected faults: exhausted
//! retransmissions surface as MPI error classes instead of aborts,
//! redelivered control frames are suppressed idempotently, corrupt headers
//! are counted and dropped, and unroutable peers fail the request rather
//! than the rank.

use std::rc::Rc;

use openmpi_core::{MpiErrClass, Placement, StackConfig, Universe};

fn tcp_only_universe(stack: StackConfig) -> Rc<Universe> {
    Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        openmpi_core::Transports {
            elan_rails: 0,
            tcp: true,
        },
    )
}

/// Every FIN_ACK (original and retransmits) vanishes: the receiver exhausts
/// its retries, declares the sender failed, and nacks the stranded send —
/// which completes with `MPI_ERR_PROC_FAILED` on the sender instead of
/// wedging or panicking. Both ranks finalize cleanly.
#[test]
fn exhausted_retries_fail_the_request_instead_of_panicking() {
    let stack = StackConfig {
        inline_first_frag: true,
        metrics: true,
        tcp_retransmit_timeout: qsim::Dur::from_us(100),
        tcp_retransmit_backoff: 2,
        tcp_max_retries: 2,
        ..StackConfig::best()
    };
    let uni = tcp_only_universe(stack);
    // Swallow the FIN_ACK and every retransmission of it.
    uni.tcp_net
        .inject_drop(openmpi_core::hdr::HdrType::FinAck, 99);

    let (_, ranks) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 64 << 10;
        let buf = mpi.alloc(len);
        let err = if mpi.rank() == 0 {
            let r = mpi.isend(&w, 1, 7, &buf, len);
            Some(mpi.wait_result(r))
        } else {
            // The receiver pulled the payload before losing its FIN_ACK:
            // its receive completes normally.
            let r = mpi.irecv(&w, 0, 7, &buf, len);
            assert_eq!(mpi.wait_result(r), Ok(()));
            None
        };
        mpi.free(buf);
        (mpi.endpoint().clone(), err)
    });

    let errs: Vec<_> = ranks.iter().filter_map(|(_, err)| *err).collect();
    assert_eq!(errs, vec![Err(MpiErrClass::ProcFailed)]);
    for (rank, (ep, _)) in ranks.iter().enumerate() {
        let pv = openmpi_core::pvar_snapshot(ep);
        if rank == 1 {
            assert_eq!(pv.get("rel.retransmits"), Some(2), "both retries spent");
            assert_eq!(pv.get("rel.gave_up"), Some(1));
            assert_eq!(pv.get("queues.failed_peers"), Some(1));
        } else {
            assert_eq!(pv.get("rel.reqs_failed"), Some(1), "send nacked");
        }
        assert_eq!(pv.get("queues.ctl_inflight"), Some(0), "buffers drained");
        assert_eq!(ep.mapping_count(), 0, "failed request leaked a mapping");
    }
}

/// A control frame delivered twice must be acknowledged twice but acted on
/// once: no double completion, no double flow-control credit, metrics
/// counted exactly once.
#[test]
fn duplicate_control_frames_are_suppressed() {
    let stack = StackConfig {
        inline_first_frag: true,
        metrics: true,
        ..StackConfig::best()
    };
    let uni = tcp_only_universe(stack);
    uni.tcp_net
        .inject_dup(openmpi_core::hdr::HdrType::FinAck, 1);

    let (_, eps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 64 << 10;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &vec![0x5Au8; len]);
            mpi.send(&w, 1, 3, &buf, len);
        } else {
            mpi.recv(&w, 0, 3, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), vec![0x5Au8; len]);
        }
        mpi.free(buf);
        mpi.endpoint().clone()
    });

    assert_eq!(uni.tcp_net.stats().frames_duplicated, 1);
    for (rank, ep) in eps.iter().enumerate() {
        let pv = openmpi_core::pvar_snapshot(ep);
        if rank == 0 {
            // The sender saw the FIN_ACK twice and suppressed the replay.
            assert_eq!(pv.get("rel.dup_suppressed"), Some(1));
        }
        assert_eq!(pv.get("rel.retransmits"), Some(0), "no loss, no resend");
        assert_eq!(pv.get("rel.gave_up"), Some(0));
        assert_eq!(
            pv.get("rel.reqs_failed"),
            Some(0),
            "nothing double-completed"
        );
        assert_eq!(pv.get("queues.ctl_inflight"), Some(0));
    }
}

/// Garbage on the wire is counted and dropped, never a panic: feed the
/// dispatcher a frame of pure noise and keep communicating afterwards.
#[test]
fn corrupt_header_is_counted_and_dropped() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = tcp_only_universe(stack);
    uni.run_world(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        // A frame of pure noise arrives (line corruption below the framing
        // layer); the decoder rejects it and the stack moves on.
        openmpi_core::proto::dispatch(mpi.proc(), mpi.endpoint(), vec![0xAB; 80]);
        let pv = openmpi_core::pvar_snapshot(mpi.endpoint());
        assert_eq!(pv.get("rel.corrupt_frames"), Some(1));
        // The rank still communicates normally afterwards.
        let buf = mpi.alloc(256);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &[7u8; 256]);
            mpi.send(&w, 1, 1, &buf, 256);
        } else {
            mpi.recv(&w, 0, 1, &buf, 256);
            assert_eq!(mpi.read(&buf, 0, 256), vec![7u8; 256]);
        }
        mpi.free(buf);
    });
}

/// No transport configured at all: a send fails with
/// `MPI_ERR_UNREACHABLE` at post time instead of panicking the rank, and
/// finalize still completes (the runtime barrier is out-of-band).
#[test]
fn unroutable_peer_fails_the_request_instead_of_panicking() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        openmpi_core::Transports {
            elan_rails: 0,
            tcp: false,
        },
    );
    let (_, errs) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        (mpi.rank() == 0).then(|| {
            let w = mpi.world();
            let buf = mpi.alloc(1024);
            let r = mpi.isend(&w, 1, 0, &buf, 1024);
            let err = mpi.wait_result(r);
            let pv = openmpi_core::pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("rel.reqs_failed"), Some(1));
            mpi.free(buf);
            err
        })
    });
    let errs: Vec<_> = errs.into_iter().flatten().collect();
    assert_eq!(errs, vec![Err(MpiErrClass::NoTransport)]);
}
