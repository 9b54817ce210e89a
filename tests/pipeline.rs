//! The pipelined chunked-RDMA rendezvous end to end: odd message sizes
//! chunk and reassemble intact, the degenerate depth-1 pipeline keeps
//! monolithic control semantics (one chained FIN/FIN_ACK per transfer),
//! the per-chunk registrations flow through the pin-down cache when it is
//! on and unmap eagerly when it is off, striping spreads chunks across
//! rails, and a request failed mid-pipeline releases every chunk mapping.
//! Every scenario also proves MMU hygiene after finalize.

use std::rc::Rc;

use openmpi_core::{
    cvar_write, pvar_snapshot, CvarValue, MpiErrClass, Placement, StackConfig, Transports, Universe,
};

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

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + len) as u8).collect()
}

/// Message lengths with no relation to the chunk size — a prime-ish chunk
/// set at runtime through the `pipe.*` cvars — must still arrive intact:
/// every mid chunk, the clamped chunk before the held-back tail, and the
/// sub-chunk FIN tail itself reassemble to the exact source bytes.
#[test]
fn odd_sizes_chunk_and_reassemble_intact() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let sizes = [131_075usize, 200_001, 262_147, 524_289];
    let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
        // Runtime-tunable engine: an awkward chunk size and a low cutoff
        // so every test length takes the pipelined path.
        cvar_write(mpi.endpoint(), "pipe.chunk", CvarValue::U64(20_000)).unwrap();
        cvar_write(mpi.endpoint(), "pipe.min_len", CvarValue::U64(64 << 10)).unwrap();
        let w = mpi.world();
        for &len in &sizes {
            let buf = mpi.alloc(len);
            if mpi.rank() == 0 {
                mpi.write(&buf, 0, &pattern(len));
                mpi.send(&w, 1, 0, &buf, len);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                assert_eq!(mpi.read(&buf, 0, len), pattern(len), "len {len}");
            }
            mpi.free(buf);
        }
        if mpi.rank() == 1 {
            // The receiver pulls in the read scheme, so it owns the engine.
            let pv = pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("pipe.started"), Some(sizes.len() as u64));
            let issued = pv.get("pipe.chunks_issued").unwrap();
            assert_eq!(pv.get("pipe.chunks_landed"), Some(issued));
            assert!(issued > sizes.len() as u64, "multiple chunks per message");
            let hwm = pv.get("pipe.depth_hwm").unwrap();
            assert!((2..=4).contains(&hwm), "window filled, bounded: {hwm}");
            assert!(pv.get("pipe.reg_overlap_ns").unwrap() > 0, "overlap won");
        }
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}

/// `pipe.depth = 1` is the degenerate pipeline: one chunk in flight at a
/// time. It must deliver the same bytes with the same control-message
/// count as the monolithic path — the FIN/FIN_ACK still chains to exactly
/// one completion per transfer.
#[test]
fn depth_one_matches_monolithic_semantics() {
    let len = 512 << 10;
    let run = |stack: StackConfig| -> Vec<(u32, u64, u64)> {
        let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(len);
            if mpi.rank() == 0 {
                mpi.write(&buf, 0, &pattern(len));
                mpi.send(&w, 1, 0, &buf, len);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                assert_eq!(mpi.read(&buf, 0, len), pattern(len));
            }
            mpi.free(buf);
            mpi.endpoint().clone()
        });
        let out: Vec<(u32, u64, u64)> = (0u32..)
            .zip(&eps)
            .map(|(rank, ep)| {
                let pv = pvar_snapshot(ep);
                (
                    rank,
                    pv.get("control.fin").unwrap(),
                    pv.get("control.fin_ack").unwrap(),
                )
            })
            .collect();
        assert_hygiene(&eps);
        out
    };

    let mono = run(StackConfig {
        metrics: true,
        pipeline_min_len: usize::MAX,
        ..StackConfig::best()
    });
    let (_, eps) = elan_universe(StackConfig {
        metrics: true,
        pipeline_depth: 1,
        ..StackConfig::best()
    })
    .run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(len));
            mpi.send(&w, 1, 0, &buf, len);
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), pattern(len));
            let pv = pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("pipe.started"), Some(1));
            assert_eq!(pv.get("pipe.depth_hwm"), Some(1), "strictly serial");
            let issued = pv.get("pipe.chunks_issued").unwrap();
            assert!(issued > 1, "still chunked, just one at a time");
            assert_eq!(pv.get("pipe.chunks_landed"), Some(issued));
        }
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    let depth1: Vec<(u32, u64, u64)> = (0u32..)
        .zip(&eps)
        .map(|(rank, ep)| {
            let pv = pvar_snapshot(ep);
            (
                rank,
                pv.get("control.fin").unwrap(),
                pv.get("control.fin_ack").unwrap(),
            )
        })
        .collect();
    assert_hygiene(&eps);

    let total = |v: &[(u32, u64, u64)]| {
        v.iter()
            .fold((0u64, 0u64), |(f, fa), (_, a, b)| (f + a, fa + b))
    };
    assert_eq!(
        total(&mono),
        total(&depth1),
        "chunking must not multiply control traffic"
    );
}

/// Per-chunk registrations go through the pin-down cache: a repeated
/// pipelined ping-pong misses only on the first pass over each chunk and
/// hits on every reuse. With the cache off the same traffic leaves nothing
/// mapped between blocking calls and counts nothing.
#[test]
fn pipeline_chunks_use_the_regcache_when_enabled() {
    let len = 384 << 10;
    let iters = 4usize;

    // Cache on: chunk sub-regions are stable across iterations, so the
    // second and later passes hit for every chunk registration.
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let sbuf = mpi.alloc(len);
        let rbuf = mpi.alloc(len);
        let mut misses_after_first = 0;
        for it in 0..iters {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &sbuf, len);
                mpi.recv(&w, 1, 0, &rbuf, len);
            } else {
                mpi.recv(&w, 0, 0, &rbuf, len);
                mpi.send(&w, 0, 0, &sbuf, len);
            }
            if it == 0 {
                misses_after_first = mpi.endpoint().reg_stats().misses;
            }
        }
        let s = mpi.endpoint().reg_stats();
        assert!(s.misses > 0, "first pass registers every chunk");
        assert_eq!(
            s.misses, misses_after_first,
            "later passes must never miss: every chunk registration hits"
        );
        assert!(s.hits >= (iters as u64 - 1) * 2, "reuse hit per direction");
        assert_eq!(s.evictions, 0, "well under capacity");
        let pv = pvar_snapshot(mpi.endpoint());
        assert_eq!(pv.get("pipe.started"), Some(iters as u64));
        mpi.free(sbuf);
        mpi.free(rbuf);
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);

    // Cache off: the pipeline maps and unmaps per chunk, so nothing stays
    // mapped once the blocking calls return and the cache counts nothing.
    let stack = StackConfig {
        metrics: true,
        reg_cache: false,
        ..StackConfig::best()
    };
    let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(len);
        for _ in 0..iters {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &buf, len);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
            }
        }
        assert_eq!(mpi.endpoint().mapping_count(), 0);
        assert_eq!(mpi.endpoint().reg_stats(), Default::default());
        if mpi.rank() == 1 {
            let pv = pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("pipe.started"), Some(iters as u64));
        }
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}

/// Pipelined chunks stripe across rails: on a two-rail fabric the engine
/// keeps up to `pipe.depth` chunks in flight per rail and the message
/// still reassembles intact.
#[test]
fn pipeline_stripes_across_rails() {
    let len = 1 << 20;
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig {
            rails: 2,
            ..Default::default()
        },
        stack,
        Transports {
            elan_rails: 2,
            tcp: false,
        },
    );
    let (_, eps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(len));
            mpi.send(&w, 1, 0, &buf, len);
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), pattern(len));
            let pv = pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("pipe.started"), Some(1));
            let issued = pv.get("pipe.chunks_issued").unwrap();
            assert_eq!(pv.get("pipe.chunks_landed"), Some(issued));
            assert!(issued >= 4, "1 MiB in 32 KiB chunks fans wide");
            let hwm = pv.get("pipe.depth_hwm").unwrap();
            assert!(
                hwm > 4,
                "two rails must carry more in flight than one rail's depth, got {hwm}"
            );
        }
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}

/// A request failed while its pipeline is mid-flight must tear the engine
/// down completely: in-flight chunk completions are forgotten, every chunk
/// mapping (and the staged final registration) is released, and
/// `mapping_count()` drops to zero on both ends. Late DMA completions
/// against the freed doorbell events are ignored.
#[test]
fn failed_mid_pipeline_releases_every_chunk_mapping() {
    let len = 4 << 20;
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let (_, eps) = elan_universe(stack).run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            let r = mpi.isend(&w, 1, 0, &buf, len);
            // The receiver kills its pull within microseconds; any reads it
            // already issued resolved their translations at issue time, so
            // dropping the send (and its mapping) afterwards is safe.
            mpi.compute(qsim::Dur::from_us(2000));
            mpi.abort_request(r, MpiErrClass::Internal);
            assert_eq!(mpi.wait_result(r), Err(MpiErrClass::Internal));
        } else {
            let r = mpi.irecv(&w, 0, 0, &buf, len);
            // Poll (progress runs inside `test`) until the pipeline is
            // observably mid-flight: 4 MiB takes milliseconds on the wire,
            // so it cannot finish between two 5us polls.
            while pvar_snapshot(mpi.endpoint()).get("queues.pipelines_live") != Some(1) {
                assert!(!mpi.test(r), "must still be in flight when aborted");
                mpi.compute(qsim::Dur::from_us(5));
            }
            assert!(
                pvar_snapshot(mpi.endpoint())
                    .get("pipe.chunks_issued")
                    .unwrap()
                    > 0
            );
            mpi.abort_request(r, MpiErrClass::Internal);
            assert_eq!(mpi.wait_result(r), Err(MpiErrClass::Internal));
            let pv = pvar_snapshot(mpi.endpoint());
            assert_eq!(pv.get("queues.pipelines_live"), Some(0));
        }
        let pv = pvar_snapshot(mpi.endpoint());
        assert_eq!(pv.get("rel.reqs_failed"), Some(1));
        assert_eq!(pv.get("rel.errs_surfaced"), Some(1));
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    assert_hygiene(&eps);
}
