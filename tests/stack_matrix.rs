//! Cross-crate correctness matrix: random payloads through every protocol
//! configuration, many ranks, mixed traffic patterns.

use openmpi_core::{
    CompletionMode, Mpi, Placement, ProgressMode, RdmaScheme, ReduceOp, StackConfig, Transports,
    Universe, ANY_SOURCE,
};
use qsim::{Pcg32, Report};

fn random_payload(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    rng.bytes(len)
}

/// A run's `(end_time_ns, events_processed, schedule_hash)`.
type Pin = (u64, u64, u64);

fn pin(r: &Report) -> Pin {
    (r.end_time.as_ns(), r.events_processed, r.schedule_hash)
}

/// Compare each configuration's run against its pinned schedule (one row
/// per configuration, in loop order), naming the configuration that moved.
fn assert_pins(got: &[(String, Pin)], want: &[Pin]) {
    assert_eq!(got.len(), want.len(), "configuration count");
    for ((label, have), pinned) in got.iter().zip(want) {
        assert_eq!(have, pinned, "{label}: schedule moved");
    }
}

/// Each `protocol_matrix_random_payloads` configuration's pinned run. A
/// change that keeps every virtual cost and every step's order keeps these;
/// one that moves a schedule fails on the configuration it moved.
const MATRIX_PINS: [Pin; 24] = [
    (1_604_271, 472, 0x308f_a109_c609_7ce1), // Read/inline=0/chained=1/PollEvent
    (1_677_191, 588, 0xb8e5_ba8e_1fc1_8f01), // Read/inline=0/chained=1/SharedQueueCombined
    (1_677_191, 588, 0xb8e5_ba8e_1fc1_8f01), // Read/inline=0/chained=1/SharedQueueSeparate
    (1_607_271, 478, 0xb701_7a8b_b7c8_c5e8), // Read/inline=0/chained=0/PollEvent
    (1_690_863, 594, 0x3c9f_4139_2657_3caf), // Read/inline=0/chained=0/SharedQueueCombined
    (1_690_863, 594, 0x3c9f_4139_2657_3caf), // Read/inline=0/chained=0/SharedQueueSeparate
    (1_625_337, 485, 0x2218_4f36_23aa_cf9e), // Read/inline=1/chained=1/PollEvent
    (1_698_257, 601, 0x276b_c94f_1f50_b186), // Read/inline=1/chained=1/SharedQueueCombined
    (1_698_257, 601, 0x276b_c94f_1f50_b186), // Read/inline=1/chained=1/SharedQueueSeparate
    (1_628_337, 491, 0xc5d8_aef6_2d2c_ab65), // Read/inline=1/chained=0/PollEvent
    (1_711_929, 607, 0x7695_4b43_2aaa_6c96), // Read/inline=1/chained=0/SharedQueueCombined
    (1_711_929, 607, 0x7695_4b43_2aaa_6c96), // Read/inline=1/chained=0/SharedQueueSeparate
    (1_607_781, 515, 0xde42_4f30_ee38_f3d1), // Write/inline=0/chained=1/PollEvent
    (1_661_591, 636, 0xe819_dcf2_f9b7_f728), // Write/inline=0/chained=1/SharedQueueCombined
    (1_661_591, 636, 0xe819_dcf2_f9b7_f728), // Write/inline=0/chained=1/SharedQueueSeparate
    (1_610_781, 521, 0x6210_de7b_2bfb_00c5), // Write/inline=0/chained=0/PollEvent
    (1_663_053, 637, 0xfc97_466c_08d9_c7c5), // Write/inline=0/chained=0/SharedQueueCombined
    (1_663_053, 637, 0xfc97_466c_08d9_c7c5), // Write/inline=0/chained=0/SharedQueueSeparate
    (1_629_470, 533, 0x911d_64c5_c365_3aa7), // Write/inline=1/chained=1/PollEvent
    (1_681_732, 649, 0x4d25_6c90_d96e_1fb8), // Write/inline=1/chained=1/SharedQueueCombined
    (1_681_732, 649, 0x4d25_6c90_d96e_1fb8), // Write/inline=1/chained=1/SharedQueueSeparate
    (1_631_970, 539, 0x02a4_d5ba_e275_e5d1), // Write/inline=1/chained=0/PollEvent
    (1_683_944, 655, 0xe705_606e_9acf_d16b), // Write/inline=1/chained=0/SharedQueueCombined
    (1_683_944, 655, 0xe705_606e_9acf_d16b), // Write/inline=1/chained=0/SharedQueueSeparate
];

/// Every (scheme × inline × chained × completion) combination moves random
/// payloads of awkward sizes correctly under polling progress, and each
/// keeps its pinned schedule. The 1 MiB size takes the pipelined path.
#[test]
fn protocol_matrix_random_payloads() {
    let mut rng = Pcg32::new(0xE1A4);
    let mut got = Vec::new();
    for scheme in [RdmaScheme::Read, RdmaScheme::Write] {
        for inline in [false, true] {
            for chained in [true, false] {
                for completion in [
                    CompletionMode::PollEvent,
                    CompletionMode::SharedQueueCombined,
                    CompletionMode::SharedQueueSeparate,
                ] {
                    let label = format!(
                        "{scheme:?}/inline={}/chained={}/{completion:?}",
                        u8::from(inline),
                        u8::from(chained)
                    );
                    let mut cfg = StackConfig::best();
                    cfg.scheme = scheme;
                    cfg.inline_first_frag = inline;
                    cfg.chained_fin = chained;
                    cfg.completion = completion;
                    // Sizes straddling every protocol boundary.
                    let sizes = [
                        0usize,
                        1,
                        63,
                        1984,
                        1985,
                        2048,
                        4095,
                        16384,
                        1 << 17,
                        1 << 20,
                    ];
                    let payloads: Vec<Vec<u8>> =
                        sizes.iter().map(|&l| random_payload(&mut rng, l)).collect();
                    let p0 = payloads.clone();
                    let p1 = payloads;
                    let what = label.clone();
                    let uni = Universe::paper_testbed(cfg);
                    let report = uni.run_world(2, Placement::RoundRobin, move |mpi| {
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
                                    "{what} size {} corrupt",
                                    p.len()
                                );
                                mpi.free(b);
                            }
                        }
                    });
                    got.push((label, pin(&report)));
                }
            }
        }
    }
    assert_pins(&got, &MATRIX_PINS);
}

/// Each `thread_progress_random_payloads` mode's pinned run.
const THREAD_PINS: [Pin; 3] = [
    (289_684, 122, 0xb486_705b_7aaf_12ce), // Interrupt/PollEvent
    (301_654, 145, 0xf292_15d5_1be4_0361), // OneThread/SharedQueueCombined
    (308_554, 147, 0xdf0f_0f78_21bd_048a), // TwoThreads/SharedQueueSeparate
];

/// Thread-based progress moves the same random traffic correctly, and
/// each mode keeps its pinned schedule.
#[test]
fn thread_progress_random_payloads() {
    let mut rng = Pcg32::new(7);
    let mut got = Vec::new();
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
        let report = uni.run_world(2, Placement::RoundRobin, move |mpi| {
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
        got.push((format!("{progress:?}/{completion:?}"), pin(&report)));
    }
    assert_pins(&got, &THREAD_PINS);
}

/// Ranks (and nodes) of each NIC-offloaded collective run: a radix-4
/// program tree three levels deep.
const COLL_RANKS: usize = 64;

/// A collective that `COLL_PINS` runs offloaded to the NIC.
#[derive(Clone, Copy, Debug)]
enum NicColl {
    Barrier,
    /// A 64-byte bcast from root 37.
    Bcast,
    /// `bcast_bytes` from root 0: two back-to-back bcasts.
    BcastBytes,
    /// A SumU64 allreduce of this many bytes.
    Allreduce(usize),
}

/// Each `nic_collectives_keep_their_schedules` run's pinned schedule.
const COLL_PINS: [(NicColl, Pin); 5] = [
    (NicColl::Barrier, (197_551, 4_098, 0x6640_6645_29c4_766e)),
    (NicColl::Bcast, (185_070, 3_587, 0xfd21_a428_5972_56f0)),
    (NicColl::BcastBytes, (205_628, 4_344, 0x5f97_a253_e83d_0dde)),
    (
        NicColl::Allreduce(8),
        (197_805, 4_098, 0x9b3b_c397_c6b4_b0be),
    ),
    (
        NicColl::Allreduce(2048),
        (292_664, 4_161, 0x02fd_cf6f_fbc3_767a),
    ),
];

/// Run `coll` twice back to back, so that some fires latch before their
/// host waits on them, and check what every rank received.
fn nic_coll_twice(mpi: &Mpi, coll: NicColl) {
    let w = mpi.world();
    let me = mpi.rank();
    let n = COLL_RANKS as u64;
    for round in 0..2u64 {
        match coll {
            NicColl::Barrier => mpi.barrier(&w),
            NicColl::Bcast => {
                let b = mpi.alloc(64);
                let want: Vec<u8> = (0..64).map(|i| (i * 3 + round) as u8).collect();
                if me == 37 {
                    mpi.write(&b, 0, &want);
                }
                mpi.bcast(&w, 37, &b, 64);
                assert_eq!(mpi.read(&b, 0, 64), want, "rank {me} round {round}");
                mpi.free(b);
            }
            NicColl::BcastBytes => {
                let want = random_payload(&mut Pcg32::new(round), 1000);
                let mine = if me == 0 { want.clone() } else { Vec::new() };
                let got = mpi.bcast_bytes(&w, 0, mine);
                assert_eq!(got, want, "rank {me} round {round}");
            }
            NicColl::Allreduce(len) => {
                let b = mpi.alloc(len);
                let lanes: Vec<u8> = (0..len as u64 / 8)
                    .flat_map(|l| (me as u64 * (l + 1) + round).to_le_bytes())
                    .collect();
                mpi.write(&b, 0, &lanes);
                mpi.allreduce(&w, ReduceOp::SumU64, &b, len);
                for (l, lane) in (0..).zip(mpi.read(&b, 0, len).chunks_exact(8)) {
                    let want = n * (n - 1) / 2 * (l + 1) + n * round;
                    assert_eq!(u64::from_le_bytes(lane.try_into().unwrap()), want);
                }
                mpi.free(b);
            }
        }
    }
}

/// A barrier, a bcast from a non-zero root, `bcast_bytes` and SumU64
/// allreduces of 8 B and 2 KiB, each offloaded to the NIC at 64 ranks,
/// deliver the right bytes and keep their pinned schedules.
#[test]
fn nic_collectives_keep_their_schedules() {
    let mut got = Vec::new();
    for (coll, _) in COLL_PINS {
        let mut cfg = StackConfig::best();
        cfg.coll_nic_offload = true;
        let uni = Universe::new(
            elan4::NicConfig::default(),
            qsnet::FabricConfig {
                nodes: COLL_RANKS,
                ..Default::default()
            },
            cfg,
            Transports::default(),
        );
        let report = uni.run_world(COLL_RANKS, Placement::RoundRobin, move |mpi| {
            nic_coll_twice(&mpi, coll)
        });
        assert!(
            uni.cluster.stats().event_writes > 0,
            "{coll:?} never ran on the NIC"
        );
        got.push((format!("{coll:?}"), pin(&report)));
    }
    let want: Vec<Pin> = COLL_PINS.iter().map(|&(_, p)| p).collect();
    assert_pins(&got, &want);
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
