//! Cross-crate correctness matrix: random payloads through every protocol
//! configuration, many ranks, mixed traffic patterns.

use openmpi_core::{
    CompletionMode, Placement, ProgressMode, RdmaScheme, StackConfig, Universe, ANY_SOURCE,
};
use qsim::Pcg32;

fn random_payload(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    rng.bytes(len)
}

/// Every (scheme × inline × chained × completion) combination moves random
/// payloads of awkward sizes correctly under polling progress.
#[test]
fn protocol_matrix_random_payloads() {
    let mut rng = Pcg32::new(0xE1A4);
    for scheme in [RdmaScheme::Read, RdmaScheme::Write] {
        for inline in [false, true] {
            for completion in [
                CompletionMode::PollEvent,
                CompletionMode::SharedQueueCombined,
            ] {
                let mut cfg = StackConfig::best();
                cfg.scheme = scheme;
                cfg.inline_first_frag = inline;
                cfg.completion = completion;
                // Sizes straddling every protocol boundary.
                let sizes = [0usize, 1, 63, 1984, 1985, 2048, 4095, 16384, 1 << 17];
                let payloads: Vec<Vec<u8>> =
                    sizes.iter().map(|&l| random_payload(&mut rng, l)).collect();
                let p0 = payloads.clone();
                let p1 = payloads;
                let uni = Universe::paper_testbed(cfg);
                uni.run_world(2, Placement::RoundRobin, move |mpi| {
                    let w = mpi.world();
                    if mpi.rank() == 0 {
                        for (i, p) in p0.iter().enumerate() {
                            let b = mpi.alloc(p.len().max(1));
                            mpi.write(&b, 0, p);
                            mpi.send(&w, 1, i as i32, &b, p.len());
                            mpi.free(b);
                        }
                    } else {
                        for (i, p) in p1.iter().enumerate() {
                            let b = mpi.alloc(p.len().max(1));
                            mpi.recv(&w, 0, i as i32, &b, p.len());
                            assert_eq!(
                                &mpi.read(&b, 0, p.len()),
                                p,
                                "{scheme:?}/inline={inline}/{completion:?} size {} corrupt",
                                p.len()
                            );
                            mpi.free(b);
                        }
                    }
                });
            }
        }
    }
}

/// Thread-based progress moves the same random traffic correctly.
#[test]
fn thread_progress_random_payloads() {
    let mut rng = Pcg32::new(7);
    for (progress, completion) in [
        (ProgressMode::Interrupt, CompletionMode::PollEvent),
        (ProgressMode::OneThread, CompletionMode::SharedQueueCombined),
        (
            ProgressMode::TwoThreads,
            CompletionMode::SharedQueueSeparate,
        ),
    ] {
        let mut cfg = StackConfig::best();
        cfg.progress = progress;
        cfg.completion = completion;
        let sizes = [0usize, 100, 1984, 8192, 1 << 16];
        let payloads: Vec<Vec<u8>> = sizes.iter().map(|&l| random_payload(&mut rng, l)).collect();
        let p0 = payloads.clone();
        let p1 = payloads;
        let uni = Universe::paper_testbed(cfg);
        uni.run_world(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            if mpi.rank() == 0 {
                for (i, p) in p0.iter().enumerate() {
                    let b = mpi.alloc(p.len().max(1));
                    mpi.write(&b, 0, p);
                    mpi.send(&w, 1, i as i32, &b, p.len());
                }
            } else {
                for (i, p) in p1.iter().enumerate() {
                    let b = mpi.alloc(p.len().max(1));
                    mpi.recv(&w, 0, i as i32, &b, p.len());
                    assert_eq!(&mpi.read(&b, 0, p.len()), p, "{progress:?} corrupt");
                }
            }
        });
    }
}

/// All-pairs traffic on the full 8-node testbed: every rank sends a
/// distinct payload to every other rank; wildcards drain them.
#[test]
fn eight_rank_all_pairs() {
    let uni = Universe::paper_testbed(StackConfig::best());
    let (_, received) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let n = mpi.size();
        let me = mpi.rank();
        let len = 3000; // rendezvous-sized
        let sbuf = mpi.alloc(len);
        // Payload identifies the (src, dst) pair.
        let reqs: Vec<_> = (0..n)
            .filter(|&d| d != me)
            .map(|d| {
                let b = mpi.alloc(len);
                let val = (me * 16 + d) as u8;
                mpi.write(&b, 0, &vec![val; len]);
                mpi.isend(&w, d, 77, &b, len)
            })
            .collect();
        let mut got = vec![false; n];
        let mut received = 0;
        let rbuf = mpi.alloc(len);
        for _ in 0..n - 1 {
            let st = mpi.recv(&w, ANY_SOURCE, 77, &rbuf, len);
            let data = mpi.read(&rbuf, 0, len);
            assert!(data.iter().all(|&b| b == (st.source * 16 + me) as u8));
            assert!(!got[st.source], "duplicate from {}", st.source);
            got[st.source] = true;
            received += 1;
        }
        mpi.waitall(reqs);
        let _ = sbuf;
        received
    });
    assert_eq!(received.iter().sum::<usize>(), 8 * 7);
}

/// Typed (non-contiguous) data across the rendezvous path with both
/// schemes.
#[test]
fn strided_datatype_both_schemes() {
    use ompi_datatype::{Convertor, Datatype};
    for scheme in [RdmaScheme::Read, RdmaScheme::Write] {
        let mut cfg = StackConfig::best();
        cfg.scheme = scheme;
        let dt = Datatype::vector(512, 8, 24, Datatype::u8());
        let conv = Convertor::new(dt, 1);
        assert!(conv.packed_len() > 1984);
        let span = conv.span();
        let c0 = conv.clone();
        let c1 = conv;
        let uni = Universe::paper_testbed(cfg);
        uni.run_world(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(span);
            if mpi.rank() == 0 {
                let data: Vec<u8> = (0..span).map(|i| (i % 241) as u8).collect();
                mpi.write(&buf, 0, &data);
                let r = mpi.isend_typed(&w, 1, 0, &buf, c0.clone());
                mpi.wait(r);
            } else {
                let r = mpi.irecv_typed(&w, 0, 0, &buf, c1.clone());
                mpi.wait(r);
                let got = mpi.read(&buf, 0, span);
                for (off, len) in c1.segments() {
                    for k in 0..len {
                        assert_eq!(got[off + k], ((off + k) % 241) as u8);
                    }
                }
            }
        });
    }
}

/// Sends posted before the receiver even enters MPI calls are buffered as
/// unexpected messages and drained in matching order.
#[test]
fn unexpected_flood_then_drain() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let count = 40;
        if mpi.rank() == 0 {
            let reqs: Vec<_> = (0..count)
                .map(|i| {
                    let b = mpi.alloc(256);
                    mpi.write(&b, 0, &[i as u8; 256]);
                    mpi.isend(&w, 1, 9, &b, 256)
                })
                .collect();
            mpi.waitall(reqs);
        } else {
            mpi.compute(qsim::Dur::from_us(300));
            let b = mpi.alloc(256);
            for i in 0..count {
                mpi.recv(&w, 0, 9, &b, 256);
                assert_eq!(mpi.read(&b, 0, 1)[0], i as u8, "drain out of order");
            }
        }
    });
}

/// Collectives on 8 ranks under every progress engine.
#[test]
fn collectives_under_all_progress_modes() {
    for (progress, completion) in [
        (ProgressMode::Polling, CompletionMode::PollEvent),
        (ProgressMode::Interrupt, CompletionMode::PollEvent),
        (ProgressMode::OneThread, CompletionMode::SharedQueueCombined),
        (
            ProgressMode::TwoThreads,
            CompletionMode::SharedQueueSeparate,
        ),
    ] {
        let mut cfg = StackConfig::best();
        cfg.progress = progress;
        cfg.completion = completion;
        let uni = Universe::paper_testbed(cfg);
        uni.run_world(8, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let n = mpi.size();
            mpi.barrier(&w);
            // Rendezvous-sized bcast exercises the RDMA path per mode.
            let b = mpi.alloc(8192);
            if me == 0 {
                mpi.write(&b, 0, &random_payload(&mut Pcg32::new(1), 8192));
            }
            mpi.bcast(&w, 0, &b, 8192);
            let expect = random_payload(&mut Pcg32::new(1), 8192);
            assert_eq!(mpi.read(&b, 0, 8192), expect, "{progress:?}");
            // Allreduce over all ranks.
            let acc = mpi.alloc(8);
            mpi.write(&acc, 0, &(me as f64).to_le_bytes());
            mpi.allreduce(&w, openmpi_core::ReduceOp::SumF64, &acc, 8);
            let v = f64::from_le_bytes(mpi.read(&acc, 0, 8).try_into().unwrap());
            assert_eq!(v as usize, n * (n - 1) / 2, "{progress:?}");
        });
    }
}

/// The CG application converges under thread-based progress too (the mode
/// interplays with every blocking wait in the dot products).
#[test]
fn cg_under_one_thread_progress() {
    use ompi_apps::cg::{run, CgConfig};
    let mut cfg = StackConfig::best();
    cfg.progress = ProgressMode::OneThread;
    cfg.completion = CompletionMode::SharedQueueCombined;
    let uni = Universe::paper_testbed(cfg);
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let r = run(
            &mpi,
            &w,
            &CgConfig {
                n: 128,
                max_iters: 150,
                tol: 1e-10,
            },
        );
        assert!(r.rr <= 1e-10, "rank {} rr={}", mpi.rank(), r.rr);
        for v in r.x {
            assert!((v - 1.0).abs() < 1e-4);
        }
    });
}

/// Mixed traffic: RMA epochs interleaved with two-sided messages and a
/// collective, all on the same ranks.
#[test]
fn rma_and_two_sided_interleave() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let n = mpi.size();
        let wbuf = mpi.alloc(256);
        let mut win = mpi.win_create(&w, wbuf);
        for round in 0..3u8 {
            // Two-sided ring exchange...
            let s = mpi.alloc(128);
            let r = mpi.alloc(128);
            mpi.write(&s, 0, &[round.wrapping_mul(me as u8 + 1); 128]);
            mpi.sendrecv(
                &w,
                (me + 1) % n,
                40,
                &s,
                128,
                ((me + n - 1) % n) as i32,
                40,
                &r,
                128,
            );
            // ...then an RMA epoch writing into the left neighbour...
            let src = mpi.alloc(64);
            mpi.write(&src, 0, &[round ^ 0xA5; 64]);
            mpi.put(&mut win, (me + n - 1) % n, 0, &src, 0, 64);
            mpi.win_fence(&mut win);
            assert_eq!(mpi.read(&wbuf, 0, 64), vec![round ^ 0xA5; 64]);
            // ...then a collective.
            mpi.barrier(&w);
            mpi.free(s);
            mpi.free(r);
            mpi.free(src);
        }
        mpi.win_free(win);
        mpi.free(wbuf);
    });
}
