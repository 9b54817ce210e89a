//! The registration (pin-down) cache end to end: repeated buffers hit,
//! capacity pressure evicts LRU mappings, disabling the cache unmaps per
//! request, and failed requests release their registrations instead of
//! leaking them. Every scenario also proves MMU hygiene: after finalize
//! (which asserts `mapping_count() == 0` itself) the endpoints report no
//! live mappings and no cached bytes.

use std::rc::Rc;

use openmpi_core::{MpiErrClass, Placement, StackConfig, Transports, Universe};

fn elan_universe(stack: StackConfig) -> Rc<Universe> {
    Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        Transports::default(),
    )
}

/// Every rank's endpoint, indexed by rank, is clean after finalize.
fn assert_hygiene(eps: &[Rc<openmpi_core::Endpoint>]) {
    for (rank, ep) in eps.iter().enumerate() {
        assert_eq!(ep.mapping_count(), 0, "rank {rank} leaked MMU mappings");
        let s = ep.reg_stats();
        assert_eq!(s.entries, 0, "rank {rank} kept cache entries past drain");
        assert_eq!(s.mapped_bytes, 0, "rank {rank} kept cached bytes");
    }
}

/// A rendezvous ping-pong reusing the same buffers: each rank registers its
/// send and receive buffer once (two misses) and every later iteration
/// hits, with the `reg.*` pvars agreeing with the cache's own stats.
#[test]
fn repeated_buffers_hit_the_cache() {
    let iters = 8usize;
    let len = 64 << 10;
    let (_, eps) =
        elan_universe(StackConfig::best()).run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(len);
            let rbuf = mpi.alloc(len);
            for _ in 0..iters {
                if mpi.rank() == 0 {
                    mpi.send(&w, 1, 0, &sbuf, len);
                    mpi.recv(&w, 1, 0, &rbuf, len);
                } else {
                    mpi.recv(&w, 0, 0, &rbuf, len);
                    mpi.send(&w, 0, 0, &sbuf, len);
                }
            }
            let s = mpi.endpoint().reg_stats();
            assert_eq!(s.misses, 2, "one registration per buffer");
            assert_eq!(s.hits, 2 * (iters as u64 - 1), "every reuse must hit");
            assert_eq!(s.evictions, 0, "well under capacity");
            let pv = openmpi_core::pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("reg.hits"), Some(s.hits));
            assert_eq!(pv.get("reg.misses"), Some(s.misses));
            mpi.free(sbuf);
            mpi.free(rbuf);
            mpi.endpoint().clone()
        });
    assert_hygiene(&eps);
}

/// With `reg.cache` off every rendezvous maps and unmaps directly: the
/// cache counts nothing and nothing survives any request.
#[test]
fn disabled_cache_unmaps_per_request_and_counts_nothing() {
    let stack = StackConfig {
        reg_cache: false,
        ..StackConfig::best()
    };
    let len = 64 << 10;
    let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(len);
        for _ in 0..4 {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &buf, len);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
            }
        }
        // Blocking calls completed, so even mid-run nothing stays mapped.
        assert_eq!(mpi.endpoint().mapping_count(), 0);
        assert_eq!(mpi.endpoint().reg_stats(), Default::default());
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}

/// A one-entry cache cycling through distinct buffers must evict the LRU
/// mapping on every new registration instead of growing without bound.
#[test]
fn capacity_pressure_evicts_lru_mappings() {
    let stack = StackConfig {
        reg_cache_entries: 1,
        ..StackConfig::best()
    };
    let len = 16 << 10;
    let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let bufs: Vec<_> = (0..3).map(|_| mpi.alloc(len)).collect();
        for round in 0..6 {
            let b = &bufs[round % bufs.len()];
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, b, len);
            } else {
                mpi.recv(&w, 0, 0, b, len);
            }
        }
        let s = mpi.endpoint().reg_stats();
        assert!(s.evictions > 0, "rotating buffers must evict, got {s:?}");
        assert!(s.entries <= 1, "capacity is one entry, got {s:?}");
        for b in bufs {
            mpi.free(b);
        }
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}

/// Exhausted retransmissions fail the stranded send; the failed request
/// must release its registration (leak-safety through `fail_request`), the
/// error must be surfaced — `waitany_result` for the sender, an
/// error-carrying `Status` from `wait_status` for a receive stranded on
/// the failed peer — and `rel.errs_surfaced` must account for both.
#[test]
fn failed_requests_release_registrations_and_surface_errors() {
    let stack = StackConfig {
        inline_first_frag: true,
        metrics: true,
        tcp_retransmit_timeout: qsim::Dur::from_us(100),
        tcp_retransmit_backoff: 2,
        tcp_max_retries: 2,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        Transports {
            elan_rails: 0,
            tcp: true,
        },
    );
    // Swallow the FIN_ACK and every retransmission of it.
    uni.tcp_net
        .inject_drop(openmpi_core::hdr::HdrType::FinAck, 99);

    let (_, eps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 64 << 10;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            let r = mpi.isend(&w, 1, 7, &buf, len);
            let (idx, res) = mpi.waitany_result(&[r]);
            assert_eq!(idx, 0);
            assert_eq!(res, Err(MpiErrClass::ProcFailed));
        } else {
            // This receive pulls its payload before the FIN_ACK loss: fine.
            let r1 = mpi.irecv(&w, 0, 7, &buf, len);
            // This one can only be satisfied by the peer we are about to
            // declare failed: it completes with an error status instead.
            let spare = mpi.alloc(len);
            let r2 = mpi.irecv(&w, 0, 9, &spare, len);
            assert_eq!(mpi.wait_result(r1), Ok(()));
            let st = mpi.wait_status(r2);
            assert_eq!(st.error, Some(MpiErrClass::ProcFailed));
            assert_eq!(st.source, 0, "selector survives into the status");
            assert_eq!(st.tag, 9);
            mpi.free(spare);
        }
        let pv = openmpi_core::pvar_snapshot(mpi.endpoint());
        assert_eq!(pv.get("rel.reqs_failed"), Some(1));
        assert_eq!(
            pv.get("rel.errs_surfaced"),
            Some(1),
            "the app saw the error it was handed"
        );
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}

/// `waitall_result` reports per-request error classes in posting order
/// (MPI_ERR_IN_STATUS), while plain `waitall` keeps its ignore-errors
/// contract; `test()` reaps completed requests so they cannot leak.
#[test]
fn waitall_result_surfaces_every_error_in_order() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        Transports {
            elan_rails: 0,
            tcp: false,
        },
    );
    let (_, eps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        if mpi.rank() == 0 {
            let w = mpi.world();
            let buf = mpi.alloc(2048);
            let r1 = mpi.isend(&w, 1, 0, &buf, 2048);
            let r2 = mpi.isend(&w, 1, 1, &buf, 2048);
            assert_eq!(
                mpi.waitall_result([r1, r2]),
                Err(vec![
                    Some(MpiErrClass::NoTransport),
                    Some(MpiErrClass::NoTransport)
                ])
            );
            // A completed (failed) request: test() reaps it on first sight.
            let r3 = mpi.isend(&w, 1, 2, &buf, 2048);
            assert!(mpi.test(r3), "failed request is done");
            assert!(mpi.test(r3), "reaped request stays done, not leaked");
            let pv = openmpi_core::pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("rel.reqs_failed"), Some(3));
            assert_eq!(pv.get("rel.errs_surfaced"), Some(2), "waitall_result");
            assert_eq!(pv.get("queues.send_reqs_live"), Some(0));
            mpi.free(buf);
        }
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}
