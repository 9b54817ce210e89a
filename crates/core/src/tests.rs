//! End-to-end tests of the whole stack on the simulated testbed.

use std::cell::Cell;
use std::rc::Rc;

use ompi_datatype::{Convertor, Datatype};

use crate::config::{CompletionMode, ProgressMode, RdmaScheme, StackConfig};
use crate::endpoint::Transports;
use crate::metrics::CollOp;
use crate::mpi::{Mpi, ANY_SOURCE, ANY_TAG};
use crate::universe::{Placement, Universe};

fn pattern(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| ((i * 31 + seed as usize * 7) % 251) as u8)
        .collect()
}

/// Run a 2-rank world; rank 0 and rank 1 run the respective closures.
/// Returns both ranks' values, rank 0's first.
fn run_pair<T: 'static>(
    cfg: StackConfig,
    f0: impl Fn(&Mpi) -> T + 'static,
    f1: impl Fn(&Mpi) -> T + 'static,
) -> Vec<T> {
    let uni = Universe::paper_testbed(cfg);
    uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        if mpi.rank() == 0 {
            f0(&mpi)
        } else {
            f1(&mpi)
        }
    })
    .1
}

#[test]
fn run_ranks_returns_values_in_rank_order() {
    // Rank r finishes (8 - r) µs after MPI_Init, so the ranks return in
    // reverse.
    let uni = Universe::paper_testbed(StackConfig::best());
    let (_, ranks) = uni.run_ranks(8, Placement::RoundRobin, |mpi| {
        mpi.compute(qsim::Dur::from_us(8 - mpi.rank() as u64));
        mpi.rank()
    });
    assert_eq!(ranks, (0..8).collect::<Vec<_>>());
}

/// Ping-pong `iters` round trips of `len` bytes; returns half-RTT in ns.
fn pingpong(cfg: StackConfig, len: usize, iters: usize) -> u64 {
    let uni = Universe::paper_testbed(cfg);
    uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let world = mpi.world();
        let sbuf = mpi.alloc(len.max(1));
        let rbuf = mpi.alloc(len.max(1));
        mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
        mpi.barrier(&world);
        let t0 = mpi.now();
        for _ in 0..iters {
            if mpi.rank() == 0 {
                mpi.send(&world, 1, 0, &sbuf, len);
                mpi.recv(&world, 1, 0, &rbuf, len);
            } else {
                mpi.recv(&world, 0, 0, &rbuf, len);
                mpi.send(&world, 0, 0, &sbuf, len);
            }
        }
        let total = (mpi.now() - t0).as_ns();
        if mpi.rank() == 0 {
            assert_eq!(mpi.read(&rbuf, 0, len), pattern(len, 1), "data corrupt");
        }
        total / (2 * iters as u64)
    })
    .1[0]
}

#[test]
fn eager_pingpong_data_and_latency() {
    let l0 = pingpong(StackConfig::best(), 0, 20);
    let l64 = pingpong(StackConfig::best(), 64, 20);
    // Paper band: Open MPI small-message latency ≈ 4-5 µs.
    assert!(l0 > 2_500 && l0 < 6_000, "0B latency {l0}ns out of band");
    assert!(l64 > l0, "64B should cost more than 0B");
}

#[test]
fn rendezvous_sizes_all_scheme_combinations() {
    for scheme in [RdmaScheme::Read, RdmaScheme::Write] {
        for inline in [false, true] {
            for chained in [false, true] {
                let mut cfg = StackConfig::best();
                cfg.scheme = scheme;
                cfg.inline_first_frag = inline;
                cfg.chained_fin = chained;
                for len in [1985usize, 4096, 65536] {
                    let lat = pingpong(cfg.clone(), len, 4);
                    assert!(
                        lat > 3_000,
                        "{scheme:?} inline={inline} chained={chained} len={len}: {lat}ns"
                    );
                }
            }
        }
    }
}

#[test]
fn forced_rendezvous_small_messages() {
    for scheme in [RdmaScheme::Read, RdmaScheme::Write] {
        for inline in [false, true] {
            let mut cfg = StackConfig::best();
            cfg.scheme = scheme;
            cfg.inline_first_frag = inline;
            cfg.force_rendezvous = true;
            for len in [0usize, 4, 512, 1984] {
                pingpong(cfg.clone(), len, 3);
            }
        }
    }
}

#[test]
fn read_scheme_beats_write_scheme_without_inline() {
    // Paper §6.1: RDMA read saves a control packet vs. RDMA write.
    let mut read_cfg = StackConfig::best();
    read_cfg.force_rendezvous = true;
    let mut write_cfg = read_cfg.clone();
    write_cfg.scheme = RdmaScheme::Write;
    let r = pingpong(read_cfg, 1024, 10);
    let w = pingpong(write_cfg, 1024, 10);
    assert!(r < w, "read {r}ns should beat write {w}ns");
}

#[test]
fn no_inline_beats_inline_rendezvous() {
    // Paper §6.1: sending the rendezvous packet without inlined data is
    // better wherever the rendezvous path runs (sizes above the 1984-byte
    // threshold; below it the eager path is used).
    for len in [2048usize, 4096, 8192] {
        let no_inline = StackConfig::best();
        let mut inline = no_inline.clone();
        inline.inline_first_frag = true;
        let ni = pingpong(no_inline, len, 10);
        let il = pingpong(inline, len, 10);
        assert!(
            ni < il,
            "len={len}: no-inline {ni}ns should beat inline {il}ns"
        );
    }
}

#[test]
fn datatype_engine_adds_fixed_overhead() {
    // Paper §6.1: the DTP copy engine costs ~0.4 µs per request.
    let mut base = StackConfig::best();
    base.force_rendezvous = true;
    base.inline_first_frag = true;
    let mut dtp = base.clone();
    dtp.use_datatype_engine = true;
    let b = pingpong(base, 256, 10);
    let d = pingpong(dtp, 256, 10);
    let delta = d.saturating_sub(b);
    assert!(
        (300..600).contains(&delta),
        "DTP overhead {delta}ns, expected ~400"
    );
}

#[test]
fn chained_fin_saves_host_turnaround() {
    let mut chained = StackConfig::best();
    chained.force_rendezvous = true;
    let mut unchained = chained.clone();
    unchained.chained_fin = false;
    let c = pingpong(chained, 4096, 10);
    let u = pingpong(unchained, 4096, 10);
    assert!(c < u, "chained {c}ns should beat unchained {u}ns");
    assert!(
        u - c < 3_000,
        "chaining gain should be marginal (paper §6.2), got {}ns",
        u - c
    );
}

#[test]
fn shared_completion_queue_costs_a_little() {
    let mut poll = StackConfig::best();
    poll.force_rendezvous = true;
    let mut one_q = poll.clone();
    one_q.completion = CompletionMode::SharedQueueCombined;
    let mut two_q = poll.clone();
    two_q.completion = CompletionMode::SharedQueueSeparate;
    let p = pingpong(poll, 4096, 10);
    let q1 = pingpong(one_q, 4096, 10);
    let q2 = pingpong(two_q, 4096, 10);
    assert!(q1 > p, "one-queue {q1} should cost over basic {p}");
    assert!(q2 > p, "two-queue {q2} should cost over basic {p}");
}

#[test]
fn progress_mode_ordering_matches_table1() {
    let mut basic = StackConfig::best();
    basic.force_rendezvous = true;

    let mut irq = basic.clone();
    irq.progress = ProgressMode::Interrupt;

    let mut one = basic.clone();
    one.progress = ProgressMode::OneThread;
    one.completion = CompletionMode::SharedQueueCombined;

    let mut two = basic.clone();
    two.progress = ProgressMode::TwoThreads;
    two.completion = CompletionMode::SharedQueueSeparate;

    let b = pingpong(basic, 4, 10);
    let i = pingpong(irq, 4, 10);
    let o = pingpong(one, 4, 10);
    let t = pingpong(two, 4, 10);
    assert!(b < i && i < o && o < t, "expected {b} < {i} < {o} < {t}");
    // Rough paper magnitudes: interrupts ~+10us, one thread ~+8 more,
    // two threads a few more.
    assert!((i - b) > 6_000 && (i - b) < 16_000, "irq delta {}", i - b);
    assert!(
        (o - i) > 4_000 && (o - i) < 14_000,
        "thread delta {}",
        o - i
    );
}

#[test]
fn message_ordering_is_fifo_per_peer() {
    run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(8);
            for i in 0..16u64 {
                mpi.write(&buf, 0, &i.to_le_bytes());
                mpi.send(&w, 1, 7, &buf, 8);
            }
        },
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(8);
            for i in 0..16u64 {
                mpi.recv(&w, 0, 7, &buf, 8);
                let got = u64::from_le_bytes(mpi.read(&buf, 0, 8).try_into().unwrap());
                assert_eq!(got, i, "messages reordered");
            }
        },
    );
}

#[test]
fn wildcard_source_and_tag() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(3, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        if mpi.rank() == 0 {
            let buf = mpi.alloc(4);
            let mut seen = [false; 3];
            for _ in 0..2 {
                let st = mpi.recv(&w, ANY_SOURCE, ANY_TAG, &buf, 4);
                assert_eq!(st.tag, 40 + st.source as i32);
                assert_eq!(mpi.read(&buf, 0, 4), vec![st.source as u8; 4]);
                seen[st.source] = true;
            }
            assert!(seen[1] && seen[2]);
        } else {
            let buf = mpi.alloc(4);
            mpi.write(&buf, 0, &[mpi.rank() as u8; 4]);
            mpi.send(&w, 0, 40 + mpi.rank() as i32, &buf, 4);
        }
    });
}

#[test]
fn unexpected_messages_match_late_receives() {
    run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(1 << 16);
            mpi.write(&buf, 0, &pattern(1 << 16, 3));
            // Large rendezvous + small eager, both before any recv is up.
            let r1 = mpi.isend(&w, 1, 5, &buf, 1 << 16);
            let r2 = mpi.isend(&w, 1, 6, &buf, 100);
            mpi.waitall([r1, r2]);
        },
        |mpi| {
            let w = mpi.world();
            // Force both messages into the unexpected path.
            mpi.compute(qsim::Dur::from_us(500));
            let big = mpi.alloc(1 << 16);
            let small = mpi.alloc(100);
            // Receive in the opposite order of arrival.
            mpi.recv(&w, 0, 6, &small, 100);
            mpi.recv(&w, 0, 5, &big, 1 << 16);
            assert_eq!(mpi.read(&big, 0, 1 << 16), pattern(1 << 16, 3));
            assert_eq!(mpi.read(&small, 0, 100), pattern(1 << 16, 3)[..100]);
        },
    );
}

/// Each RDMA descriptor's completion event is freed once the host sees it
/// fire, and the next descriptor reuses its slot: after a run of
/// monolithic and pipelined round trips a context's event table holds no
/// more slots than one pipeline window has events in flight, not one per
/// descriptor.
#[test]
fn rdma_completion_events_reuse_their_slots() {
    let cfg = StackConfig::best();
    let depth = cfg.pipeline_depth;
    let uni = Universe::paper_testbed(cfg);
    let (_, slots) = uni.run_ranks(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(1 << 20);
        for i in 0..50 {
            let len = if i % 2 == 0 { 64 << 10 } else { 1 << 20 };
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &buf, len);
                mpi.recv(&w, 1, 0, &buf, len);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                mpi.send(&w, 0, 0, &buf, len);
            }
        }
        mpi.endpoint().ectx.event_slots()
    });
    let rdmas = uni.cluster.stats().rdmas;
    assert!(rdmas > 1000, "only {rdmas} descriptors");
    for (rank, n) in slots.iter().enumerate() {
        assert!(*n <= depth, "rank {rank} holds {n} event slots");
    }
}

#[test]
fn noncontiguous_datatypes_roundtrip() {
    // Columns of a matrix: 256 blocks of 16 bytes, stride 48.
    let dt = Datatype::vector(256, 16, 48, Datatype::u8());
    let conv = Convertor::new(dt, 1);
    let span = conv.span();
    let packed_len = conv.packed_len();
    assert!(packed_len > crate::hdr::MAX_INLINE, "exercise rendezvous");
    let conv0 = conv.clone();
    let conv1 = conv;
    run_pair(
        StackConfig::best(),
        move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(span);
            mpi.write(&buf, 0, &pattern(span, 9));
            let r = mpi.isend_typed(&w, 1, 3, &buf, conv0.clone());
            mpi.wait(r);
        },
        move |mpi| {
            const SENTINEL: u8 = 0xEE;
            let w = mpi.world();
            let buf = mpi.alloc(span);
            mpi.write(&buf, 0, &vec![SENTINEL; span]);
            let r = mpi.irecv_typed(&w, 0, 3, &buf, conv1.clone());
            mpi.wait(r);
            let got = mpi.read(&buf, 0, span);
            let sent = pattern(span, 9);
            // Every block lands, and the gap bytes between blocks are
            // never written.
            let mut end = 0;
            for (off, len) in conv1.segments() {
                assert!(
                    got[end..off].iter().all(|&b| b == SENTINEL),
                    "gap {end}..{off} overwritten"
                );
                assert_eq!(&got[off..off + len], &sent[off..off + len]);
                end = off + len;
            }
        },
    );
}

/// A receive failed while its strided payload is being unpacked (another
/// process of the rank gives up on the peer between the last byte landing
/// and the request being marked done) completes once, with the error: the
/// unpack's success tail does not run after the failure.
#[test]
fn receive_failed_during_its_unpack_completes_once() {
    use crate::proto::fail_request;
    use crate::state::MpiErrClass;

    let dt = Datatype::vector(256, 16, 48, Datatype::u8());
    let conv = Convertor::new(dt, 1);
    let span = conv.span();
    let conv0 = conv.clone();
    let conv1 = conv;
    let mut cfg = StackConfig::best();
    cfg.metrics = true;
    let out = run_pair(
        cfg,
        move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(span);
            let r = mpi.isend_typed(&w, 1, 3, &buf, conv0.clone());
            mpi.wait(r);
            None
        },
        move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(span);
            let r = mpi.irecv_typed(&w, 0, 3, &buf, conv1.clone());
            let ep = mpi.endpoint().clone();
            let failed = Rc::new(Cell::new(false));
            let failed_by = failed.clone();
            mpi.proc().spawn("give-up", move |p| loop {
                let landed = {
                    let st = ep.state.lock();
                    match st.reqs.get(&r.id) {
                        Some(q) if !q.phase.is_done() => {
                            q.envelope.is_some_and(|e| q.bytes_done >= e.len)
                        }
                        _ => return,
                    }
                };
                if landed {
                    fail_request(&p, &ep, r.id, MpiErrClass::ProcFailed);
                    failed_by.set(true);
                    return;
                }
                p.advance(qsim::Dur::from_ns(10));
            });
            let res = mpi.wait_result(r);
            let m = mpi.endpoint().metrics.lock();
            Some((
                failed.get(),
                res,
                m.counters.reqs_failed,
                m.completion_time.count(),
            ))
        },
    );
    let (failed, res, reqs_failed, completions) = out[1].unwrap();
    assert!(failed, "the receive finished before its bytes were seen");
    assert_eq!(res, Err(MpiErrClass::ProcFailed));
    assert_eq!(reqs_failed, 1);
    assert_eq!(completions, 0, "a failed receive also completed");
}

/// A write-scheme send failed while `handle_ack` schedules its bulk share
/// (another process of the rank gives up on the peer once the receiver's
/// ACK has matched the send) starts no pipeline and pushes no TCP share:
/// it issues no chunk and no fragment, and holds no chunk mapping at
/// finalize. The receive, sent neither bytes nor a FIN, fails when it is
/// aborted.
#[test]
fn send_failed_before_its_pipeline_starts_issues_no_chunk() {
    use crate::proto::fail_request;
    use crate::state::{MpiErrClass, Phase};

    let len = 1 << 20;
    let mut cfg = StackConfig::best();
    cfg.scheme = RdmaScheme::Write;
    cfg.metrics = true;
    for tcp in [false, true] {
        let uni = Universe::new(
            elan4::NicConfig::default(),
            qsnet::FabricConfig::default(),
            cfg.clone(),
            Transports { elan_rails: 1, tcp },
        );
        let (_, out) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(len);
            if mpi.rank() == 1 {
                let r = mpi.irecv(&w, 0, 3, &buf, len);
                let deadline = mpi.now() + qsim::Dur::from_us(5000);
                while mpi.now() < deadline {
                    assert!(!mpi.test(r), "the receive finished without its FIN");
                    mpi.compute(qsim::Dur::from_us(5));
                }
                mpi.abort_request(r, MpiErrClass::ProcFailed);
                return (mpi.wait_result(r), 0, 0);
            }
            let s = mpi.isend(&w, 1, 3, &buf, len);
            let ep = mpi.endpoint().clone();
            mpi.proc().spawn("give-up", move |p| loop {
                let matched = match ep.state.lock().reqs.get(&s.id) {
                    Some(q) if !q.phase.is_done() => q.phase == Phase::Matched,
                    _ => return,
                };
                if matched {
                    fail_request(&p, &ep, s.id, MpiErrClass::ProcFailed);
                    return;
                }
                p.advance(qsim::Dur::from_ns(10));
            });
            let res = mpi.wait_result(s);
            let m = mpi.endpoint().metrics.lock();
            (res, m.counters.pipe_chunks_issued, m.counters.frags_sent)
        });
        let failed = Err(MpiErrClass::ProcFailed);
        assert_eq!(out[0], (failed, 0, 0), "tcp {tcp}: send, chunks, fragments");
        assert_eq!(out[1].0, failed, "tcp {tcp}");
    }
}

/// Request ids are one space across sends and receives, but an id read off
/// the wire keeps its kind: a FIN naming a live send, or an ACK naming a
/// live receive, moves neither request, and the exchange then completes.
#[test]
fn wire_ids_of_the_other_kind_are_ignored() {
    use crate::hdr::{pack_ack_seq, Hdr, HdrType};

    let len = 64 << 10;
    let out = run_pair(
        StackConfig::best(),
        move |mpi| {
            let w = mpi.world();
            let (sbuf, rbuf) = (mpi.alloc(len), mpi.alloc(len));
            mpi.write(&sbuf, 0, &pattern(len, 3));
            let r = mpi.irecv(&w, 1, 7, &rbuf, len);
            let s = mpi.isend(&w, 1, 7, &sbuf, len);
            let ep = mpi.endpoint();
            let marks = || {
                let st = ep.state.lock();
                [r.id, s.id].map(|id| (st.reqs[&id].phase, st.reqs[&id].bytes_done))
            };
            let mut fin = Hdr::new(HdrType::Fin);
            fin.recv_req = s.id;
            fin.offset = len as u64;
            let mut ack = Hdr::new(HdrType::Ack);
            ack.send_req = r.id;
            ack.seq = pack_ack_seq(4096, 0);
            for hdr in [fin, ack] {
                let (kind, before) = (hdr.kind, marks());
                crate::proto::dispatch(mpi.proc(), ep, hdr.frame(&[]));
                assert_eq!(
                    marks(),
                    before,
                    "a {kind:?} moved a request of the other kind"
                );
            }
            mpi.wait(s);
            mpi.wait(r);
            mpi.read(&rbuf, 0, len) == pattern(len, 4)
        },
        move |mpi| {
            let w = mpi.world();
            let (sbuf, rbuf) = (mpi.alloc(len), mpi.alloc(len));
            mpi.write(&sbuf, 0, &pattern(len, 4));
            mpi.recv(&w, 0, 7, &rbuf, len);
            mpi.send(&w, 0, 7, &sbuf, len);
            mpi.read(&rbuf, 0, len) == pattern(len, 3)
        },
    );
    assert_eq!(out, [true, true]);
}

#[test]
fn nonblocking_window_of_outstanding_sends() {
    run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let bufs: Vec<_> = (0..8)
                .map(|i| {
                    let b = mpi.alloc(8192);
                    mpi.write(&b, 0, &pattern(8192, i as u8));
                    b
                })
                .collect();
            let reqs: Vec<_> = bufs.iter().map(|b| mpi.isend(&w, 1, 11, b, 8192)).collect();
            mpi.waitall(reqs);
        },
        |mpi| {
            let w = mpi.world();
            let bufs: Vec<_> = (0..8).map(|_| mpi.alloc(8192)).collect();
            let reqs: Vec<_> = bufs.iter().map(|b| mpi.irecv(&w, 0, 11, b, 8192)).collect();
            mpi.waitall(reqs);
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(mpi.read(b, 0, 8192), pattern(8192, i as u8));
            }
        },
    );
}

#[test]
fn collectives_eight_ranks() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(8, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let n = mpi.size();
        let me = mpi.rank();

        // Barrier synchronizes virtual time.
        mpi.barrier(&w);

        // Bcast from rank 3.
        let b = mpi.alloc(1024);
        if me == 3 {
            mpi.write(&b, 0, &pattern(1024, 42));
        }
        mpi.bcast(&w, 3, &b, 1024);
        assert_eq!(mpi.read(&b, 0, 1024), pattern(1024, 42));

        // Allreduce sum of f64.
        let r = mpi.alloc(8 * 4);
        let vals: Vec<f64> = (0..4).map(|i| (me * 10 + i) as f64).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        mpi.write(&r, 0, &bytes);
        mpi.allreduce(&w, crate::ReduceOp::SumF64, &r, 32);
        let out = mpi.read(&r, 0, 32);
        for i in 0..4 {
            let v = f64::from_le_bytes(out[i * 8..i * 8 + 8].try_into().unwrap());
            let expect: f64 = (0..n).map(|rk| (rk * 10 + i) as f64).sum();
            assert_eq!(v, expect);
        }

        // Gather to rank 0.
        let s = mpi.alloc(4);
        mpi.write(&s, 0, &[me as u8; 4]);
        let g = mpi.alloc(4 * n);
        mpi.gather(&w, 0, &s, 4, Some(&g));
        if me == 0 {
            for rk in 0..n {
                assert_eq!(mpi.read(&g, rk * 4, 4), vec![rk as u8; 4]);
            }
        }

        // Alltoall.
        let send = mpi.alloc(8 * n);
        let recv = mpi.alloc(8 * n);
        for dst in 0..n {
            mpi.write(&send, dst * 8, &[(me * 16 + dst) as u8; 8]);
        }
        mpi.alltoall(&w, &send, &recv, 8);
        for src in 0..n {
            assert_eq!(mpi.read(&recv, src * 8, 8), vec![(src * 16 + me) as u8; 8]);
        }
    });
}

#[test]
fn comm_split_and_dup() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(6, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        // Two halves, reversed rank order within each.
        let color = (me % 2) as i32;
        let key = -(me as i32);
        let sub = mpi.comm_split(&w, color, key).unwrap();
        assert_eq!(sub.size(), 3);
        // key = -rank reverses order: highest old rank becomes rank 0.
        let expect_rank = match me {
            0 | 1 => 2,
            2 | 3 => 1,
            _ => 0,
        };
        assert_eq!(sub.rank(), expect_rank);
        // Ring exchange within the subcomm.
        let buf = mpi.alloc(8);
        mpi.write(&buf, 0, &(me as u64).to_le_bytes());
        let nxt = (sub.rank() + 1) % sub.size();
        let prv = (sub.rank() + sub.size() - 1) % sub.size();
        let rbuf = mpi.alloc(8);
        mpi.sendrecv(&sub, nxt, 1, &buf, 8, prv as i32, 1, &rbuf, 8);
        mpi.barrier(&w);

        // Dup of the world works independently.
        let dup = mpi.comm_dup(&w);
        mpi.barrier(&dup);
    });
}

#[test]
fn dynamic_spawn_parent_child_traffic() {
    let uni = Universe::paper_testbed(StackConfig::best());
    let spawned_check = Rc::new(Cell::new(0));
    let sc = spawned_check.clone();
    uni.run_world(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        if mpi.rank() == 0 {
            // Dynamically spawn two children on nodes 4 and 5.
            let sc2 = sc.clone();
            let inter = mpi.spawn(2, &[4, 5], move |child| {
                let pc = child.parent_comm().expect("child must see its parent");
                assert_eq!(pc.rank(), child.rank() + 1);
                // Child world works among children.
                let cw = child.world();
                child.barrier(&cw);
                // Receive from the parent, double it, send back.
                let buf = child.alloc(8);
                child.recv(&pc, 0, 9, &buf, 8);
                let v = u64::from_le_bytes(child.read(&buf, 0, 8).try_into().unwrap());
                child.write(&buf, 0, &(v * 2).to_le_bytes());
                child.send(&pc, 0, 10, &buf, 8);
                sc2.set(sc2.get() + 1);
            });
            let buf = mpi.alloc(8);
            for c in 1..=2usize {
                mpi.write(&buf, 0, &(100 * c as u64).to_le_bytes());
                mpi.send(&inter, c, 9, &buf, 8);
            }
            for _ in 0..2 {
                let st = mpi.recv(&inter, ANY_SOURCE, 10, &buf, 8);
                let v = u64::from_le_bytes(mpi.read(&buf, 0, 8).try_into().unwrap());
                assert_eq!(v, 200 * st.source as u64);
            }
        }
        mpi.barrier(&w);
    });
    assert_eq!(spawned_check.get(), 2);
}

#[test]
fn multirail_striping_is_faster_and_correct() {
    fn bw_run(rails: usize) -> u64 {
        let fabric = qsnet::FabricConfig {
            rails: 2,
            ..Default::default()
        };
        let uni = Universe::new(
            elan4::NicConfig::default(),
            fabric,
            StackConfig::best(),
            Transports {
                elan_rails: rails,
                tcp: false,
            },
        );
        let (_, t) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let len = 1 << 20;
            let buf = mpi.alloc(len);
            if mpi.rank() == 0 {
                mpi.write(&buf, 0, &pattern(len, 1));
                mpi.barrier(&w);
                let t0 = mpi.now();
                mpi.send(&w, 1, 0, &buf, len);
                // Round-trip one byte to bound delivery.
                let ack = mpi.alloc(1);
                mpi.recv(&w, 1, 1, &ack, 1);
                (mpi.now() - t0).as_ns()
            } else {
                mpi.barrier(&w);
                mpi.recv(&w, 0, 0, &buf, len);
                assert_eq!(mpi.read(&buf, 0, len), pattern(len, 1));
                let ack = mpi.alloc(1);
                mpi.send(&w, 0, 1, &ack, 1);
                0
            }
        });
        t[0]
    }
    let one = bw_run(1);
    let two = bw_run(2);
    // PCI-X is shared, so two rails can't double throughput, but they must
    // beat one rail measurably.
    assert!(two < one * 95 / 100, "2 rails {two}ns vs 1 rail {one}ns");
}

#[test]
fn concurrent_elan_and_tcp_striping() {
    let mut cfg = StackConfig::best();
    cfg.scheme = RdmaScheme::Write;
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        cfg,
        Transports {
            elan_rails: 1,
            tcp: true,
        },
    );
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let len = 1 << 20;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(len, 5));
            mpi.send(&w, 1, 0, &buf, len);
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), pattern(len, 5));
        }
    });
    // The Elan share must actually have moved via RDMA.
    let stats = uni.cluster.stats();
    assert!(stats.rdmas > 0, "elan share missing");
}

#[test]
fn tcp_only_transport_works_and_is_slow() {
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        StackConfig::best(),
        Transports {
            elan_rails: 0,
            tcp: true,
        },
    );
    let (_, t) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(64);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(64, 2));
            let t0 = mpi.now();
            mpi.send(&w, 1, 0, &buf, 64);
            mpi.recv(&w, 1, 0, &buf, 64);
            (mpi.now() - t0).as_ns() / 2
        } else {
            mpi.recv(&w, 0, 0, &buf, 64);
            mpi.send(&w, 0, 0, &buf, 64);
            0
        }
    });
    let lat = t[0];
    // TCP latency is tens of microseconds — the paper's motivation.
    assert!(lat > 20_000, "tcp latency {lat}ns suspiciously low");
}

/// Over a long run of in-order reliable control frames the duplicate
/// filter holds no sequence number one by one, only each peer's floor,
/// and a replayed frame (one already below the floor when it lands) is
/// still suppressed.
#[test]
fn duplicate_filter_stays_bounded_over_in_order_control_frames() {
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
            tcp: true,
        },
    );
    uni.tcp_net.inject_dup(crate::hdr::HdrType::Ack, 1);
    let (_, eps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 16 << 10;
        let buf = mpi.alloc(len);
        for i in 0..600 {
            if mpi.rank() == 0 {
                mpi.write(&buf, 0, &pattern(len, i as u8));
                mpi.send(&w, 1, 0, &buf, len);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                assert_eq!(mpi.read(&buf, 0, len), pattern(len, i as u8));
            }
        }
        mpi.free(buf);
        mpi.endpoint().clone()
    });
    let mut sent = 0;
    let mut suppressed = 0;
    for ep in &eps {
        let st = ep.state.lock();
        sent += st.ctl_next_seq.values().sum::<u32>();
        for seen in st.ctl_seen.values() {
            assert_eq!(seen.held(), 0, "in-order frames held one by one");
        }
        suppressed += ep.metrics.lock().counters.dup_suppressed;
    }
    assert!(sent >= 1000, "only {sent} reliable control frames");
    assert_eq!(uni.tcp_net.stats().frames_duplicated, 1);
    assert_eq!(suppressed, 1, "the replayed ACK was acted on");
}

#[test]
fn pml_layer_cost_instrumentation() {
    // Paper §6.3: the PML layer and above costs ≈ 0.5 µs per message.
    let uni = Universe::paper_testbed(StackConfig::best());
    let (_, cost) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(64);
        for _ in 0..50 {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &buf, 64);
                mpi.recv(&w, 1, 0, &buf, 64);
            } else {
                mpi.recv(&w, 0, 0, &buf, 64);
                mpi.send(&w, 0, 0, &buf, 64);
            }
        }
        mpi.endpoint().pml_layer_cost()
    });
    let c = cost[0].expect("no samples");
    assert!(
        c.as_ns() > 200 && c.as_ns() < 1_500,
        "PML layer cost {c} out of band"
    );
}

#[test]
fn deterministic_virtual_timing() {
    let a = pingpong(StackConfig::best(), 4096, 5);
    let b = pingpong(StackConfig::best(), 4096, 5);
    assert_eq!(
        a, b,
        "identical runs must produce identical virtual timings"
    );
}

#[test]
fn memory_is_released_after_finalize() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(1 << 18);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, 1 << 18);
        } else {
            mpi.recv(&w, 0, 0, &buf, 1 << 18);
        }
        mpi.free(buf);
    });
    for node in 0..2 {
        assert_eq!(uni.cluster.mem_in_use(node), 0, "leak on node {node}");
    }
}

#[test]
fn fabric_fault_injection_is_transparent() {
    let uni = Universe::paper_testbed(StackConfig::best());
    // Fault several packets between the two nodes used by the ranks.
    uni.cluster.fabric().inject_drops(0, 1, 3);
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let len = 1 << 16;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(len, 7));
            mpi.send(&w, 1, 0, &buf, len);
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), pattern(len, 7));
        }
    });
    assert_eq!(uni.cluster.fabric().stats().retries, 3);
}

// ---------------------------------------------------------------------------
// extensions: RMA, hardware broadcast, probe, scatter
// ---------------------------------------------------------------------------

#[test]
fn rma_put_get_fence() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let n = mpi.size();
        let wbuf = mpi.alloc(1024);
        mpi.write(&wbuf, 0, &[me as u8; 1024]);
        let mut win = mpi.win_create(&w, wbuf);

        // Everyone puts its rank byte into the right neighbour's window.
        let src = mpi.alloc(64);
        mpi.write(&src, 0, &[(me + 100) as u8; 64]);
        let right = (me + 1) % n;
        mpi.put(&mut win, right, me * 64, &src, 0, 64);
        mpi.win_fence(&mut win);

        // The left neighbour's put is visible locally after the fence.
        let left = (me + n - 1) % n;
        assert_eq!(mpi.read(&wbuf, left * 64, 64), vec![(left + 100) as u8; 64]);

        // One-sided read of rank 0's window.
        let dst = mpi.alloc(1024);
        mpi.get(&mut win, 0, 0, &dst, 0, 1024);
        mpi.win_fence(&mut win);
        let got = mpi.read(&dst, 256, 64);
        assert!(got
            .iter()
            .all(|&b| b == 0 || b == 103 || b == 100 + n as u8 - 1));

        mpi.win_free(win);
        mpi.free(src);
        mpi.free(dst);
        mpi.free(wbuf);
    });
}

#[test]
fn rma_accumulate_sum() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let wbuf = mpi.alloc(8);
        mpi.write(&wbuf, 0, &0f64.to_le_bytes());
        let mut win = mpi.win_create(&w, wbuf);
        // Serialized epochs: each rank adds its value to rank 0's counter.
        for turn in 0..mpi.size() {
            if mpi.rank() == turn {
                let v = mpi.alloc(8);
                mpi.write(&v, 0, &((turn + 1) as f64).to_le_bytes());
                mpi.accumulate_sum_f64(&mut win, 0, 0, &v, 0, 8);
                mpi.free(v);
            }
            mpi.win_fence(&mut win);
        }
        if mpi.rank() == 0 {
            let total = f64::from_le_bytes(mpi.read(&wbuf, 0, 8).try_into().unwrap());
            assert_eq!(total, 1.0 + 2.0 + 3.0 + 4.0);
        }
        mpi.win_free(win);
        mpi.free(wbuf);
    });
}

#[test]
fn hardware_bcast_used_and_faster_than_tree() {
    fn bcast_time(hw: bool, len: usize) -> (u64, u64) {
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, t) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
            let mut w = mpi.world();
            if !hw {
                w.hw_coll = false; // force the binomial tree
            }
            let buf = mpi.alloc(len);
            if mpi.rank() == 0 {
                mpi.write(&buf, 0, &pattern(len, 9));
            }
            mpi.barrier(&w);
            let t0 = mpi.now();
            for _ in 0..5 {
                mpi.bcast(&w, 0, &buf, len);
            }
            assert_eq!(mpi.read(&buf, 0, len), pattern(len, 9));
            mpi.barrier(&w);
            (mpi.now() - t0).as_ns()
        });
        (t[0], uni.cluster.stats().hw_bcasts)
    }
    let (hw_t, hw_count) = bcast_time(true, 1024);
    let (tree_t, tree_count) = bcast_time(false, 1024);
    assert!(hw_count > 0, "hardware broadcast not used");
    assert_eq!(tree_count, 0, "tree bcast must not touch hw bcast");
    assert!(
        hw_t < tree_t,
        "hw bcast {hw_t}ns should beat tree {tree_t}ns on 8 ranks"
    );
}

#[test]
fn spawned_comm_falls_back_to_tree_bcast() {
    // Paper §4.1: late joiners cannot use the hardware broadcast because
    // the global virtual address space no longer covers them.
    let uni = Universe::paper_testbed(StackConfig::best());
    let before = uni.cluster.stats().hw_bcasts;
    uni.run_world(1, Placement::RoundRobin, |mpi| {
        let inter = mpi.spawn(2, &[5, 6], |child| {
            let pc = child.parent_comm().unwrap();
            let buf = child.alloc(256);
            child.bcast(&pc, 0, &buf, 256);
            let expect: Vec<u8> = (0..256).map(|i| i as u8).collect();
            assert_eq!(child.read(&buf, 0, 256), expect);
        });
        let buf = mpi.alloc(256);
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        mpi.write(&buf, 0, &data);
        mpi.bcast(&inter, 0, &buf, 256);
    });
    assert_eq!(
        uni.cluster.stats().hw_bcasts,
        before,
        "spawned communicator must not use hw bcast"
    );
}

#[test]
fn probe_and_iprobe() {
    run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(512);
            mpi.write(&buf, 0, &pattern(512, 4));
            mpi.compute(qsim::Dur::from_us(50));
            mpi.send(&w, 1, 21, &buf, 512);
        },
        |mpi| {
            let w = mpi.world();
            // Nothing there yet.
            assert!(mpi.iprobe(&w, 0, 21).is_none());
            // Blocking probe sees the message without consuming it.
            let st = mpi.probe(&w, ANY_SOURCE, ANY_TAG);
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 21);
            assert_eq!(st.len, 512);
            // Still there for iprobe, then receive exactly st.len bytes.
            assert!(mpi.iprobe(&w, 0, 21).is_some());
            let buf = mpi.alloc(st.len);
            let st2 = mpi.recv(&w, st.source as i32, st.tag, &buf, st.len);
            assert_eq!(st2.len, 512);
            assert_eq!(mpi.read(&buf, 0, 512), pattern(512, 4));
            // Consumed now.
            assert!(mpi.iprobe(&w, 0, 21).is_none());
        },
    );
}

#[test]
fn scatter_distributes_blocks() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(8, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let n = mpi.size();
        let me = mpi.rank();
        let recv = mpi.alloc(128);
        if me == 2 {
            let send = mpi.alloc(128 * n);
            for r in 0..n {
                mpi.write(&send, r * 128, &[(r * 3) as u8; 128]);
            }
            mpi.scatter(&w, 2, Some(&send), &recv, 128);
        } else {
            mpi.scatter(&w, 2, None, &recv, 128);
        }
        assert_eq!(mpi.read(&recv, 0, 128), vec![(me * 3) as u8; 128]);
    });
}

#[test]
fn integrity_check_passes_on_clean_wire() {
    let mut cfg = StackConfig::best();
    cfg.integrity_check = true;
    // All sizes, both protocol paths, verified end to end.
    for len in [1usize, 1984, 4096] {
        pingpong(cfg.clone(), len, 3);
    }
}

#[test]
fn integrity_check_catches_injected_corruption() {
    let mut cfg = StackConfig::best();
    cfg.integrity_check = true;
    let uni = Universe::paper_testbed(cfg);
    uni.cluster.inject_payload_corruption(1);
    let sim = qsim::Simulation::new();
    uni.launch_world(&sim, 2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(1024);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(1024, 1));
            mpi.send(&w, 1, 0, &buf, 1024);
        } else {
            mpi.recv(&w, 0, 0, &buf, 1024);
        }
    });
    match sim.run() {
        Err(qsim::SimError::ProcPanic { message, .. }) => {
            assert!(message.contains("integrity check failed"), "got: {message}");
        }
        other => panic!("expected fail-stop on corruption, got {other:?}"),
    }
    assert_eq!(uni.cluster.stats().corrupted_deposits, 1);
}

#[test]
fn without_integrity_check_corruption_is_silent() {
    // Documents why the check exists: the same fault passes undetected.
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.cluster.inject_payload_corruption(1);
    let (_, delivered) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(1024);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &pattern(1024, 1));
            mpi.send(&w, 1, 0, &buf, 1024);
            Vec::new()
        } else {
            mpi.recv(&w, 0, 0, &buf, 1024);
            mpi.read(&buf, 0, 1024)
        }
    });
    assert_ne!(delivered[1], pattern(1024, 1), "corruption went unnoticed");
}

#[test]
fn waitany_returns_first_completion() {
    run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(64);
            // Send tag 1 late, tag 2 early.
            mpi.compute(qsim::Dur::from_us(200));
            mpi.send(&w, 1, 2, &buf, 64);
            mpi.compute(qsim::Dur::from_us(200));
            mpi.send(&w, 1, 1, &buf, 64);
        },
        |mpi| {
            let w = mpi.world();
            let b1 = mpi.alloc(64);
            let b2 = mpi.alloc(64);
            let r1 = mpi.irecv(&w, 0, 1, &b1, 64);
            let r2 = mpi.irecv(&w, 0, 2, &b2, 64);
            let reqs = [r1, r2];
            let first = mpi.waitany(&reqs);
            assert_eq!(first, 1, "tag 2 arrives first");
            mpi.wait(reqs[0]);
        },
    );
}

#[test]
fn self_send_loopback() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        // Nonblocking self-send, both eager and rendezvous sized.
        for len in [64usize, 4096] {
            let sbuf = mpi.alloc(len);
            let rbuf = mpi.alloc(len);
            mpi.write(&sbuf, 0, &pattern(len, me as u8));
            let rr = mpi.irecv(&w, me as i32, 5, &rbuf, len);
            let sr = mpi.isend(&w, me, 5, &sbuf, len);
            mpi.wait(sr);
            mpi.wait(rr);
            assert_eq!(mpi.read(&rbuf, 0, len), pattern(len, me as u8));
            mpi.free(sbuf);
            mpi.free(rbuf);
        }
    });
}

#[test]
fn truncation_is_detected() {
    let uni = Universe::paper_testbed(StackConfig::best());
    let sim = qsim::Simulation::new();
    uni.launch_world(&sim, 2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        if mpi.rank() == 0 {
            let buf = mpi.alloc(256);
            mpi.send(&w, 1, 0, &buf, 256);
        } else {
            let buf = mpi.alloc(64);
            mpi.recv(&w, 0, 0, &buf, 64); // too small
        }
    });
    match sim.run() {
        Err(qsim::SimError::ProcPanic { message, .. }) => {
            assert!(message.contains("truncation"), "got: {message}");
        }
        other => panic!("expected truncation error, got {other:?}"),
    }
}

#[test]
fn scan_prefix_sums() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(6, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let buf = mpi.alloc(16);
        let vals = [(me + 1) as f64, (me * 2) as f64];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        mpi.write(&buf, 0, &bytes);
        mpi.scan(&w, crate::ReduceOp::SumF64, &buf, 16);
        let out = mpi.read(&buf, 0, 16);
        let a = f64::from_le_bytes(out[0..8].try_into().unwrap());
        let b = f64::from_le_bytes(out[8..16].try_into().unwrap());
        let expect_a: f64 = (0..=me).map(|r| (r + 1) as f64).sum();
        let expect_b: f64 = (0..=me).map(|r| (r * 2) as f64).sum();
        assert_eq!(a, expect_a, "rank {me}");
        assert_eq!(b, expect_b, "rank {me}");
    });
}

#[test]
fn reduce_scatter_blocks() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let n = mpi.size();
        let me = mpi.rank();
        let send = mpi.alloc(8 * n);
        // Rank r contributes value (r+1) in every block.
        let vals: Vec<f64> = vec![(me + 1) as f64; n];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        mpi.write(&send, 0, &bytes);
        let recv = mpi.alloc(8);
        mpi.reduce_scatter(&w, crate::ReduceOp::SumF64, &send, &recv, 8);
        let got = f64::from_le_bytes(mpi.read(&recv, 0, 8).try_into().unwrap());
        let expect: f64 = (1..=n).map(|v| v as f64).sum();
        assert_eq!(got, expect, "rank {me}");
    });
}

#[test]
fn gatherv_variable_lengths() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(5, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        // Rank r contributes r copies of byte r (rank 0 contributes none).
        let mine = vec![me as u8; me];
        let res = mpi.gatherv(&w, 3, &mine);
        if me == 3 {
            let (offsets, bytes) = res.expect("root gets the result");
            assert_eq!(offsets.len(), 6);
            for r in 0..5 {
                assert_eq!(offsets[r + 1] - offsets[r], r);
                assert!(bytes[offsets[r]..offsets[r + 1]]
                    .iter()
                    .all(|&b| b == r as u8));
            }
        } else {
            assert!(res.is_none());
        }
    });
}

#[test]
fn persistent_requests_halo_pattern() {
    run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(256);
            let rbuf = mpi.alloc(256);
            let ps = mpi.send_init(&w, 1, 30, &sbuf, 256);
            let pr = mpi.recv_init(&w, 1, 31, &rbuf, 256);
            for round in 0..5u8 {
                mpi.write(&sbuf, 0, &[round; 256]);
                let reqs = mpi.startall(&[ps.clone(), pr.clone()]);
                mpi.waitall(reqs);
                assert_eq!(mpi.read(&rbuf, 0, 256), vec![round ^ 0xFF; 256]);
            }
        },
        |mpi| {
            let w = mpi.world();
            let sbuf = mpi.alloc(256);
            let rbuf = mpi.alloc(256);
            let ps = mpi.send_init(&w, 0, 31, &sbuf, 256);
            let pr = mpi.recv_init(&w, 0, 30, &rbuf, 256);
            for round in 0..5u8 {
                mpi.write(&sbuf, 0, &[round ^ 0xFF; 256]);
                let reqs = mpi.startall(&[ps.clone(), pr.clone()]);
                mpi.waitall(reqs);
                assert_eq!(mpi.read(&rbuf, 0, 256), vec![round; 256]);
            }
        },
    );
}

#[test]
fn trace_records_protocol_flow() {
    use crate::trace::TraceEvent;
    let mut cfg = StackConfig::best();
    cfg.trace = true;
    let uni = Universe::paper_testbed(cfg);
    let (_, traces) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(8192);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, 8192); // rendezvous-sized
        } else {
            mpi.recv(&w, 0, 0, &buf, 8192);
        }
        let ep = mpi.endpoint().clone();
        let log = ep.trace.lock();
        let rank = mpi.rank();
        // Receiver (read scheme) must show match -> rdma read -> dma done
        // -> completion, in that order.
        if rank == 1 {
            let evs: Vec<&TraceEvent> = log.iter().map(|(_, e)| e).collect();
            let matched = evs
                .iter()
                .position(|e| matches!(e, TraceEvent::Matched { .. }));
            let rdma = evs
                .iter()
                .position(|e| matches!(e, TraceEvent::RdmaIssued { read: true, .. }));
            let done = evs
                .iter()
                .position(|e| matches!(e, TraceEvent::DmaDone { .. }));
            let comp = evs
                .iter()
                .position(|e| matches!(e, TraceEvent::Completed { send: false, .. }));
            assert!(
                matched < rdma && rdma < done && done < comp,
                "read-scheme order violated: {evs:?}"
            );
        }
        crate::trace::dump(&log)
    });
    assert_eq!(traces.len(), 2);
    for lines in &traces {
        assert!(!lines.is_empty());
    }
}

#[test]
fn trace_off_records_nothing() {
    let uni = Universe::paper_testbed(StackConfig::best());
    let (_, empty) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(64);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, 64);
        } else {
            mpi.recv(&w, 0, 0, &buf, 64);
        }
        mpi.endpoint().trace.lock().is_empty()
    });
    assert!(empty.iter().all(|&e| e), "tracing leaked when off");
}

#[test]
fn ssend_completes_only_after_match() {
    let at = run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(16);
            // Small message: a plain send would complete locally at once;
            // the synchronous send must wait for the late receiver.
            mpi.ssend(&w, 1, 0, &buf, 16);
            mpi.now().as_ns()
        },
        |mpi| {
            let w = mpi.world();
            mpi.compute(qsim::Dur::from_us(300));
            let posted = mpi.now().as_ns();
            let buf = mpi.alloc(16);
            mpi.recv(&w, 0, 0, &buf, 16);
            posted
        },
    );
    let (done, posted) = (at[0], at[1]);
    assert!(
        done > posted,
        "ssend completed at {done}ns before the recv was posted at {posted}ns"
    );
}

#[test]
fn plain_small_send_completes_before_match() {
    // Contrast with the ssend test: buffered eager semantics.
    let at = run_pair(
        StackConfig::best(),
        |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(16);
            mpi.send(&w, 1, 0, &buf, 16);
            mpi.now().as_ns()
        },
        |mpi| {
            let w = mpi.world();
            mpi.compute(qsim::Dur::from_us(300));
            let buf = mpi.alloc(16);
            mpi.recv(&w, 0, 0, &buf, 16);
            0
        },
    );
    assert!(
        at[0] < 300_000,
        "eager send should complete before the receiver wakes"
    );
}

#[test]
fn comm_free_releases_contexts() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let dup = mpi.comm_dup(&w);
        let buf = mpi.alloc(32);
        let nxt = (mpi.rank() + 1) % mpi.size();
        let prv = ((mpi.rank() + mpi.size() - 1) % mpi.size()) as i32;
        mpi.sendrecv(&dup, nxt, 1, &buf, 32, prv, 1, &buf, 32);
        let dup_ctx = dup.ctx;
        mpi.comm_free(dup);
        assert!(
            !mpi.endpoint().state.lock().comms.contains_key(&dup_ctx),
            "context survived comm_free"
        );
        // The world is unaffected.
        mpi.barrier(&w);
    });
}

#[test]
fn sixty_four_ranks_on_a_three_level_tree() {
    // Exercise a 64-node quaternary fat tree (3 switch levels) end to end.
    let fabric = qsnet::FabricConfig {
        nodes: 64,
        ..Default::default()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        fabric,
        StackConfig::best(),
        Transports::default(),
    );
    uni.run_world(64, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let n = mpi.size();
        let me = mpi.rank();
        // Ring exchange across the full machine.
        let sbuf = mpi.alloc(512);
        let rbuf = mpi.alloc(512);
        mpi.write(&sbuf, 0, &[me as u8; 512]);
        let st = mpi.sendrecv(
            &w,
            (me + 1) % n,
            3,
            &sbuf,
            512,
            ((me + n - 1) % n) as i32,
            3,
            &rbuf,
            512,
        );
        assert_eq!(st.source, (me + n - 1) % n);
        assert_eq!(mpi.read(&rbuf, 0, 512), vec![st.source as u8; 512]);
        // Global reduction over all 64 ranks.
        let acc = mpi.alloc(8);
        mpi.write(&acc, 0, &(me as f64).to_le_bytes());
        mpi.allreduce(&w, crate::ReduceOp::SumF64, &acc, 8);
        let total = f64::from_le_bytes(mpi.read(&acc, 0, 8).try_into().unwrap());
        assert_eq!(total as usize, (0..n).sum::<usize>());
    });
}

#[test]
fn rma_pscw_epochs() {
    // Ranks 1..3 put into rank 0's window under post/start/complete/wait —
    // no fence, no involvement of uninvolved ranks.
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(4, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let wbuf = mpi.alloc(3 * 64);
        mpi.write(&wbuf, 0, &[0u8; 3 * 64]);
        let mut win = mpi.win_create(&w, wbuf);

        if me == 0 {
            mpi.win_post(&win, &[1, 2, 3]);
            mpi.win_wait(&win, &[1, 2, 3]);
            for origin in 1..4usize {
                assert_eq!(
                    mpi.read(&wbuf, (origin - 1) * 64, 64),
                    vec![origin as u8 * 7; 64],
                    "origin {origin}'s slab missing"
                );
            }
        } else {
            let src = mpi.alloc(64);
            mpi.write(&src, 0, &[me as u8 * 7; 64]);
            mpi.win_start(&win, &[0]);
            mpi.put(&mut win, 0, (me - 1) * 64, &src, 0, 64);
            mpi.win_complete(&mut win, &[0]);
            mpi.free(src);
        }
        mpi.win_free(win);
        mpi.free(wbuf);
    });
}

#[test]
fn rank_failure_is_reported_cleanly() {
    // A rank that dies mid-run surfaces as a ProcPanic with its name, and
    // the simulation tears down instead of hanging (the fail-stop behaviour
    // the paper's fault-tolerant runtime needs to detect).
    let uni = Universe::paper_testbed(StackConfig::best());
    let sim = qsim::Simulation::new();
    uni.launch_world(&sim, 2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(64);
        if mpi.rank() == 0 {
            panic!("simulated rank crash");
        } else {
            mpi.recv(&w, 0, 0, &buf, 64);
        }
    });
    match sim.run() {
        Err(qsim::SimError::ProcPanic { proc, message }) => {
            assert_eq!(proc, "rank0");
            assert!(message.contains("simulated rank crash"));
        }
        other => panic!("expected rank failure report, got {other:?}"),
    }
}

#[test]
fn spawned_child_initiates_first_contact() {
    // Regression: the child rendezvous-sends to the parent before the
    // parent has ever addressed the child, so the parent must resolve the
    // child's addressing lazily at match time.
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(1, Placement::RoundRobin, |mpi| {
        let inter = mpi.spawn(1, &[3], |child| {
            let pc = child.parent_comm().unwrap();
            let buf = child.alloc(8192);
            child.write(&buf, 0, &pattern(8192, 6));
            // Rendezvous-sized: the parent must reply (read scheme pulls /
            // FIN_ACK), which requires the child's peer info.
            child.send(&pc, 0, 1, &buf, 8192);
            child.free(buf);
        });
        let buf = mpi.alloc(8192);
        mpi.recv(&inter, 1, 1, &buf, 8192);
        assert_eq!(mpi.read(&buf, 0, 8192), pattern(8192, 6));
        mpi.free(buf);
    });
}

#[test]
fn alltoallv_variable_payloads() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(5, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let n = mpi.size();
        let me = mpi.rank();
        // Rank r sends (r + d) bytes of value r*16+d to rank d.
        let sends: Vec<Vec<u8>> = (0..n).map(|d| vec![(me * 16 + d) as u8; me + d]).collect();
        let got = mpi.alltoallv(&w, &sends);
        for (src, data) in got.iter().enumerate() {
            assert_eq!(data.len(), src + me, "length from {src}");
            assert!(data.iter().all(|&b| b == (src * 16 + me) as u8));
        }
    });
}

#[test]
fn rma_under_interrupt_progress() {
    let mut cfg = StackConfig::best();
    cfg.progress = ProgressMode::Interrupt;
    let uni = Universe::paper_testbed(cfg);
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let wbuf = mpi.alloc(4096);
        let mut win = mpi.win_create(&w, wbuf);
        if mpi.rank() == 0 {
            let src = mpi.alloc(4096);
            mpi.write(&src, 0, &pattern(4096, 3));
            mpi.put(&mut win, 1, 0, &src, 0, 4096);
        }
        mpi.win_fence(&mut win);
        if mpi.rank() == 1 {
            assert_eq!(mpi.read(&wbuf, 0, 4096), pattern(4096, 3));
        }
        mpi.win_free(win);
    });
}

// ---- end-to-end flow control -----------------------------------------------

/// Run an N-to-1 eager incast with the receiver asleep for the opening
/// burst; returns (completion_ns, victim ej queue peak, pool fallbacks
/// summed over ranks, resolved per-peer credits).
fn incast_run(flow_on: bool) -> (u64, u64, u64, u64) {
    let mut cfg = StackConfig::best();
    cfg.metrics = true;
    cfg.flow_enable = flow_on;
    let (ranks, msgs, len) = (8usize, 32usize, 1024usize);
    let uni = Universe::paper_testbed(cfg);
    let (report, rows) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        if mpi.rank() == 0 {
            // Sleep through the opening burst so every message arrives
            // unexpected and stages in the bounce pool.
            mpi.compute(qsim::Dur::from_ns(300_000));
            let rbuf = mpi.alloc(len);
            for _ in 0..(ranks - 1) * msgs {
                mpi.recv(&w, ANY_SOURCE, 0, &rbuf, len);
            }
        } else {
            let sbuf = mpi.alloc(len);
            mpi.write(&sbuf, 0, &pattern(len, mpi.rank() as u8));
            let reqs: Vec<_> = (0..msgs).map(|_| mpi.isend(&w, 0, 0, &sbuf, len)).collect();
            mpi.waitall(reqs);
        }
        mpi.barrier(&w);
        let ep = mpi.endpoint();
        let (_, ej) = ep.cluster.fabric().node_link_totals(ep.node);
        let credits = ep.tunables.flow_credits() as u64;
        let fallbacks = ep.metrics_snapshot().counters.flow_pool_fallbacks;
        (ej.queue_peak, credits, fallbacks)
    });
    // Rank 0 is the victim.
    let (peak, credits, _) = rows[0];
    let fallbacks = rows.iter().map(|r| r.2).sum();
    (report.end_time.as_ns(), peak, fallbacks, credits)
}

#[test]
fn incast_flow_control_bounds_victim_queue_and_wins() {
    let (t_off, peak_off, fb_off, _) = incast_run(false);
    let (t_on, peak_on, fb_on, credits) = incast_run(true);
    // Pool exhaustion is the flow-off cost: 224 unexpected messages against
    // 64 preallocated slots must overflow into charged fallbacks.
    assert!(
        fb_off > 0,
        "flow-off incast never exhausted the bounce pool"
    );
    assert_eq!(fb_on, 0, "flow-on incast overran the bounce pool");
    // The end-to-end window caps in-flight eager traffic at senders *
    // credits, which the victim's ejection link peak must respect (small
    // slack for barrier/control frames sharing the link).
    assert!(credits >= 2, "auto-scaled credits {credits} out of range");
    let bound = 7 * credits + 8;
    assert!(
        peak_on <= bound,
        "victim ej peak {peak_on} exceeds credit bound {bound}"
    );
    assert!(
        peak_on < peak_off,
        "flow-on ej peak {peak_on} not below flow-off {peak_off}"
    );
    assert!(
        t_on < t_off,
        "flow-on incast ({t_on}ns) not faster than flow-off ({t_off}ns)"
    );
}

#[test]
fn flow_credit_invariant_over_random_interleavings() {
    // Proptest-style: seeded LCG drives per-rank send/recv/compute
    // interleavings; the credit ledger must reconcile at quiescence.
    type Row = (usize, usize, usize, u64, u64, u64, usize);
    for seed in [1u64, 7, 23] {
        let mut cfg = StackConfig::best();
        cfg.metrics = true;
        cfg.flow_enable = true;
        cfg.flow_credits = 3; // tiny window: parking on every burst
        let (ranks, msgs) = (4usize, 10usize);
        let uni = Universe::paper_testbed(cfg);
        let (_, per_rank) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let mut x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(me as u64 + 1);
            let mut rng = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            };
            let sbuf = mpi.alloc(1984);
            let rbuf = mpi.alloc(1984);
            mpi.write(&sbuf, 0, &pattern(1984, me as u8));
            // Shuffle the (peer, iteration) send plan.
            let mut plan: Vec<usize> = (0..ranks)
                .filter(|&d| d != me)
                .flat_map(|d| std::iter::repeat_n(d, msgs))
                .collect();
            for i in (1..plan.len()).rev() {
                plan.swap(i, rng() as usize % (i + 1));
            }
            let total_recvs = (ranks - 1) * msgs;
            let mut recvs_done = 0;
            let mut sends = Vec::new();
            for &dst in &plan {
                let len = (rng() % 1984) as usize;
                sends.push(mpi.isend(&w, dst, 0, &sbuf, len));
                match rng() % 3 {
                    0 if recvs_done < total_recvs => {
                        mpi.recv(&w, ANY_SOURCE, 0, &rbuf, 1984);
                        recvs_done += 1;
                    }
                    1 => mpi.compute(qsim::Dur::from_ns(rng() % 5_000)),
                    _ => {}
                }
            }
            while recvs_done < total_recvs {
                mpi.recv(&w, ANY_SOURCE, 0, &rbuf, 1984);
                recvs_done += 1;
            }
            mpi.waitall(sends);
            mpi.barrier(&w);
            let ep = mpi.endpoint();
            let st = ep.state.lock();
            let rows: Vec<Row> = st
                .flow
                .iter()
                .map(|(peer, fp)| {
                    assert!(
                        fp.queued.is_empty(),
                        "rank {me}: sends still parked for rank {} at quiescence",
                        peer.rank
                    );
                    (
                        me,
                        peer.rank,
                        fp.credits,
                        fp.consumed,
                        fp.returned,
                        fp.delivered,
                        fp.pending_return,
                    )
                })
                .collect();
            rows
        });
        let rows: Vec<Row> = per_rank.into_iter().flatten().collect();
        let initial = 3u64;
        let find = |a: usize, b: usize| rows.iter().find(|r| r.0 == a && r.1 == b);
        for &(rank, peer, credits, consumed, returned, delivered, pending) in rows.iter() {
            // The ledger: every consumed credit is either returned or still
            // held out of the window (in flight / awaiting grant).
            assert_eq!(
                consumed,
                returned + (initial - credits as u64),
                "seed {seed}: rank {rank} -> {peer} ledger off \
                 (consumed {consumed}, returned {returned}, credits {credits})"
            );
            assert!(
                credits as u64 <= initial,
                "seed {seed}: rank {rank} over-granted by rank {peer}"
            );
            assert!(pending as u64 <= delivered, "pending exceeds deliveries");
            // Cross-rank: the peer can only have delivered what we sent
            // under credit, and can only have granted what it delivered.
            if let Some(&(_, _, _, _, _, peer_delivered, _)) = find(peer, rank) {
                assert!(
                    peer_delivered <= consumed,
                    "seed {seed}: rank {peer} delivered {peer_delivered} from \
                     rank {rank}, which only consumed {consumed} credits"
                );
                assert!(
                    returned <= peer_delivered,
                    "seed {seed}: rank {rank} got {returned} credits back from \
                     rank {peer}, which only delivered {peer_delivered}"
                );
            }
        }
    }
}

#[test]
fn credit_starved_peer_does_not_block_traffic_to_others() {
    let mut cfg = StackConfig::best();
    cfg.metrics = true;
    cfg.flow_enable = true;
    cfg.flow_credits = 4;
    let sleep_ns = 2_000_000u64;
    let uni = Universe::paper_testbed(cfg);
    let (_, rows) = uni.run_ranks(3, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(512);
        mpi.write(&buf, 0, &pattern(512, mpi.rank() as u8));
        // Rank 1's (ping-pong done at, sends queued).
        let out = match mpi.rank() {
            0 => {
                // Slow receiver: rank 1's flood must park, starved of
                // credits, until this compute ends.
                mpi.compute(qsim::Dur::from_ns(sleep_ns));
                let rbuf = mpi.alloc(512);
                for _ in 0..40 {
                    mpi.recv(&w, 1, 0, &rbuf, 512);
                }
                (0, 0)
            }
            1 => {
                let reqs: Vec<_> = (0..40).map(|_| mpi.isend(&w, 0, 0, &buf, 512)).collect();
                // Credits to rank 0 are exhausted; traffic to rank 2 must
                // keep flowing regardless.
                let rbuf = mpi.alloc(512);
                for _ in 0..8 {
                    mpi.send(&w, 2, 1, &buf, 512);
                    mpi.recv(&w, 2, 1, &rbuf, 512);
                }
                let done = mpi.now().as_ns();
                mpi.waitall(reqs);
                let queued = mpi.endpoint().metrics_snapshot().counters.flow_sends_queued;
                (done, queued)
            }
            _ => {
                let rbuf = mpi.alloc(512);
                for _ in 0..8 {
                    mpi.recv(&w, 1, 1, &rbuf, 512);
                    mpi.send(&w, 1, 1, &buf, 512);
                }
                (0, 0)
            }
        };
        mpi.barrier(&w);
        out
    });
    let (done, queued) = rows[1];
    assert!(
        queued > 0,
        "the flood never exhausted rank 1's credits to rank 0"
    );
    assert!(
        done < sleep_ns,
        "rank 1 <-> rank 2 ping-pong ({done}ns) stalled behind the parked \
         flood to the sleeping rank 0"
    );
}

#[test]
fn late_eager_message_after_aborted_recv_is_dropped_cleanly() {
    let mut cfg = StackConfig::best();
    cfg.flow_enable = true;
    let uni = Universe::paper_testbed(cfg);
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(512);
        if mpi.rank() == 0 {
            let r = mpi.irecv(&w, 1, 5, &buf, 512);
            mpi.abort_request(r, crate::state::MpiErrClass::Internal);
            assert!(mpi.wait_result(r).is_err(), "aborted recv must report");
            mpi.barrier(&w);
            // The sender's message lands unexpected (its match was
            // reaped), staged in the bounce pool until finalize.
            mpi.barrier(&w);
            assert_eq!(mpi.endpoint().bounce_in_use(), 1, "payload not staged");
        } else {
            mpi.barrier(&w);
            mpi.write(&buf, 0, &pattern(512, 9));
            mpi.send(&w, 0, 5, &buf, 512);
            mpi.barrier(&w);
        }
        // Finalize must release the orphaned stage and the pool itself
        // without tripping the in-use assertion or leaking mappings.
        mpi.finalize();
        assert_eq!(mpi.endpoint().bounce_in_use(), 0);
        assert_eq!(mpi.endpoint().mapping_count(), 0);
    });
}

// ---------------------------------------------------------------------------
// NIC-resident collectives
// ---------------------------------------------------------------------------

fn nic_coll_cfg() -> StackConfig {
    let mut cfg = StackConfig::best();
    cfg.coll_nic_offload = true;
    cfg.metrics = true;
    cfg
}

#[test]
fn nic_offloaded_collectives_match_host_results() {
    let uni = Universe::paper_testbed(nic_coll_cfg());
    let (_, rows) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let n = mpi.size();
        mpi.barrier(&w);
        // Broadcasts from rotating roots, sizes spanning 0..=QDMA max.
        for (i, len) in [0usize, 1, 8, 777, 2048].into_iter().enumerate() {
            let root = i % n;
            let b = mpi.alloc(len.max(1));
            if me == root {
                mpi.write(&b, 0, &pattern(len, i as u8));
            }
            mpi.bcast(&w, root, &b, len);
            assert_eq!(
                mpi.read(&b, 0, len),
                pattern(len, i as u8),
                "bcast len {len}"
            );
            mpi.free(b);
        }
        // Allreduce through every NIC-supported operator.
        let s = (n * (n - 1) / 2) as u64;
        let b = mpi.alloc(16);
        mpi.write(&b, 0, &(me as f64).to_le_bytes());
        mpi.write(&b, 8, &((me * 3) as f64).to_le_bytes());
        mpi.allreduce(&w, crate::coll::ReduceOp::SumF64, &b, 16);
        let lane0 = f64::from_le_bytes(mpi.read(&b, 0, 8).try_into().unwrap());
        let lane1 = f64::from_le_bytes(mpi.read(&b, 8, 8).try_into().unwrap());
        assert_eq!(lane0, s as f64, "sum lane 0");
        assert_eq!(lane1, (3 * s) as f64, "sum lane 1");
        mpi.write(&b, 0, &((me as f64) * 1.5).to_le_bytes());
        mpi.allreduce(&w, crate::coll::ReduceOp::MaxF64, &b, 8);
        let mx = f64::from_le_bytes(mpi.read(&b, 0, 8).try_into().unwrap());
        assert_eq!(mx, (n - 1) as f64 * 1.5, "max");
        mpi.write(&b, 0, &(me as u64 + 7).to_le_bytes());
        mpi.allreduce(&w, crate::coll::ReduceOp::SumU64, &b, 8);
        let su = u64::from_le_bytes(mpi.read(&b, 0, 8).try_into().unwrap());
        assert_eq!(su, s + 7 * n as u64, "u64 sum");
        mpi.free(b);
        mpi.barrier(&w);
        mpi.endpoint().metrics_snapshot()
    });
    assert!(
        uni.cluster.stats().event_writes > 0,
        "offloaded collectives must hop NIC-to-NIC via event writes"
    );
    assert_eq!(rows.len(), 8);
    for (rank, m) in rows.iter().enumerate() {
        // 2 barriers + 5 bcasts + 3 allreduces, every one offloaded.
        assert_eq!(m.counters.coll_nic_offloaded, 10, "rank {rank} offloaded");
        assert_eq!(m.counters.coll_nic_fallbacks, 0, "rank {rank} fallbacks");
        // 1 barrier + 5 bcast roots + 3 allreduce ops = 9 cached programs.
        assert_eq!(m.counters.coll_nic_programs, 9, "rank {rank} programs");
    }
}

#[test]
fn nic_bcast_bytes_pipelines_without_payload_mixups() {
    // bcast_bytes issues two back-to-back broadcasts (length, then payload)
    // and the NIC root never blocks between them: successive frames must
    // queue in fire order at every hop, not overwrite each other.
    let uni = Universe::paper_testbed(nic_coll_cfg());
    uni.run_world(8, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        for round in 0..10u8 {
            let root = (round as usize) % 4;
            let len = 100 + round as usize * 37;
            let data = if mpi.rank() == root {
                pattern(len, round)
            } else {
                Vec::new()
            };
            let out = mpi.bcast_bytes(&w, root, data);
            assert_eq!(out, pattern(len, round), "round {round}");
        }
    });
}

#[test]
fn nic_offload_falls_back_when_ineligible() {
    let uni = Universe::paper_testbed(nic_coll_cfg());
    let (_, rows) = uni.run_ranks(4, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        // Oversize broadcast: beyond the single-QDMA payload cap, so it
        // must take the host path (hardware-rail eager chunks) and still
        // deliver correct bytes.
        let len = 4096;
        let b = mpi.alloc(len);
        if me == 0 {
            mpi.write(&b, 0, &pattern(len, 3));
        }
        mpi.bcast(&w, 0, &b, len);
        assert_eq!(mpi.read(&b, 0, len), pattern(len, 3), "oversize bcast");
        mpi.free(b);
        // A split communicator loses the synchronous-creation guarantee
        // (hw_coll = false): its collectives stay host-driven.
        let sub = mpi.comm_split(&w, (me % 2) as i32, me as i32).unwrap();
        mpi.barrier(&sub);
        let sb = mpi.alloc(8);
        mpi.write(&sb, 0, &(me as u64).to_le_bytes());
        mpi.allreduce(&sub, crate::coll::ReduceOp::SumU64, &sb, 8);
        let expect: u64 = (0..4).filter(|r| r % 2 == me % 2).map(|r| r as u64).sum();
        assert_eq!(
            u64::from_le_bytes(mpi.read(&sb, 0, 8).try_into().unwrap()),
            expect,
            "split allreduce"
        );
        mpi.free(sb);
        mpi.endpoint().metrics_snapshot()
    });
    for (rank, m) in rows.iter().enumerate() {
        assert!(
            m.counters.coll_nic_fallbacks >= 3,
            "rank {rank}: oversize bcast + split barrier + split allreduce \
             must all count as fallbacks, got {}",
            m.counters.coll_nic_fallbacks
        );
    }
}

/// A universe with one node per rank on the default fat tree.
fn sized_universe(ranks: usize, cfg: StackConfig) -> Rc<Universe> {
    Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig {
            nodes: ranks,
            ..Default::default()
        },
        cfg,
        Transports::default(),
    )
}

#[test]
fn mpi_init_costs_the_same_few_oob_hops_at_any_size() {
    // MPI_Init publishes, waits for the job and fetches one shared modex
    // table; the launch adds one more OOB barrier. None of it grows with
    // the job.
    let init_ns = |ranks: usize| {
        let uni = sized_universe(ranks, StackConfig::best());
        let oob = uni.rte.cfg().oob_latency.as_ns();
        let (_, t) = uni.run_ranks(ranks, Placement::RoundRobin, |mpi| mpi.now().as_ns());
        (t.into_iter().max().unwrap_or(0), oob)
    };
    let (two, oob) = init_ns(2);
    assert!(two <= 4 * oob, "MPI_Init took {two} ns, over 4 OOB hops");
    for ranks in [64, 256] {
        assert_eq!(init_ns(ranks).0, two, "MPI_Init at {ranks} ranks");
    }
}

#[test]
fn peers_resolve_lazily_from_the_shared_table() {
    // After MPI_Init a rank has decoded only its own addressing; building
    // a NIC allreduce program resolves exactly its tree neighbours.
    const N: usize = 256;
    let uni = sized_universe(N, nic_coll_cfg());
    let radix = uni.cfg.coll_tree_radix;
    uni.run_world(N, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let known = |mpi: &Mpi| {
            let mut ranks: Vec<usize> = mpi
                .endpoint()
                .state
                .lock()
                .peers
                .keys()
                .map(|p| p.rank)
                .collect();
            ranks.sort_unstable();
            ranks
        };
        assert_eq!(known(&mpi), vec![me], "rank {me} after init");
        let b = mpi.alloc(8);
        mpi.write(&b, 0, &(me as u64).to_le_bytes());
        mpi.allreduce(&w, crate::coll::ReduceOp::SumU64, &b, 8);
        let sum = u64::from_le_bytes(mpi.read(&b, 0, 8).try_into().unwrap());
        assert_eq!(sum, (N * (N - 1) / 2) as u64);
        // Root 0: a rank's virtual rank is its rank.
        let mut expect: Vec<usize> = (1..=radix)
            .map(|i| radix * me + i)
            .filter(|&c| c < N)
            .collect();
        if me > 0 {
            expect.push((me - 1) / radix);
        }
        expect.push(me);
        expect.sort_unstable();
        assert_eq!(known(&mpi), expect, "rank {me} after the allreduce");
    });
}

#[test]
fn nic_program_setup_survives_skewed_entry() {
    // Ranks reach each first call (and so each program's per-edge setup
    // and readiness fan-in) up to 500 us apart, in seeded order.
    const N: usize = 64;
    for radix in [2, 4, 8] {
        let mut cfg = nic_coll_cfg();
        cfg.coll_tree_radix = radix;
        let uni = sized_universe(N, cfg);
        let (_, rows) = uni.run_ranks(N, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let mut rng = qsim::rng::Pcg32::new(((radix as u64) << 32) | me as u64);
            let mut skew = || mpi.compute(qsim::Dur::from_ns(rng.below(500_001)));
            skew();
            mpi.barrier(&w);
            for (i, root) in [0, 17, 63].into_iter().enumerate() {
                let len = 64 + 100 * i;
                let b = mpi.alloc(len);
                if me == root {
                    mpi.write(&b, 0, &pattern(len, i as u8));
                }
                skew();
                mpi.bcast(&w, root, &b, len);
                assert_eq!(mpi.read(&b, 0, len), pattern(len, i as u8), "radix {radix}");
                mpi.free(b);
            }
            let b = mpi.alloc(8);
            mpi.write(&b, 0, &(me as u64 + 1).to_le_bytes());
            skew();
            mpi.allreduce(&w, crate::coll::ReduceOp::SumU64, &b, 8);
            let sum = u64::from_le_bytes(mpi.read(&b, 0, 8).try_into().unwrap());
            assert_eq!(sum, (N * (N + 1) / 2) as u64, "radix {radix}");
            mpi.endpoint().metrics_snapshot()
        });
        for m in &rows {
            assert_eq!(m.counters.coll_nic_programs, 5, "radix {radix}");
            assert_eq!(m.counters.coll_nic_offloaded, 5, "radix {radix}");
        }
    }
}

#[test]
fn hw_bcast_cvar_gates_the_rail() {
    // Gate closed: eligible broadcasts run the binomial tree, the hardware
    // rail stays untouched, data still arrives.
    let mut cfg = StackConfig::best();
    cfg.coll_hw_bcast = false;
    cfg.metrics = true;
    let uni = Universe::paper_testbed(cfg);
    let (_, rows) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let b = mpi.alloc(1024);
        if mpi.rank() == 0 {
            mpi.write(&b, 0, &pattern(1024, 5));
        }
        mpi.bcast(&w, 0, &b, 1024);
        assert_eq!(mpi.read(&b, 0, 1024), pattern(1024, 5));
        mpi.endpoint().metrics_snapshot()
    });
    assert_eq!(
        uni.cluster.stats().hw_bcasts,
        0,
        "coll.hw_bcast=false must keep the broadcast off the rail"
    );
    for m in &rows {
        assert_eq!(m.counters.coll[CollOp::BcastHw as usize], 0);
    }

    // Gate open (the default): the same broadcast uses the rail.
    let mut cfg = StackConfig::best();
    cfg.metrics = true;
    let uni = Universe::paper_testbed(cfg);
    let (_, rows) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let b = mpi.alloc(1024);
        if mpi.rank() == 0 {
            mpi.write(&b, 0, &pattern(1024, 5));
        }
        mpi.bcast(&w, 0, &b, 1024);
        assert_eq!(mpi.read(&b, 0, 1024), pattern(1024, 5));
        mpi.endpoint().metrics_snapshot()
    });
    assert!(
        uni.cluster.stats().hw_bcasts > 0,
        "rail unused with gate open"
    );
    let hw_counts: u64 = rows
        .iter()
        .map(|m| m.counters.coll[CollOp::BcastHw as usize])
        .sum();
    assert!(hw_counts > 0, "root must count its hw bcast");
}

#[test]
fn partial_communicator_bcast_avoids_hw_rail() {
    // A split communicator spans only part of the rail-connected set; the
    // hardware broadcast gate (and the NIC-offload gate) must both refuse
    // it even though the cvars are on.
    let mut cfg = nic_coll_cfg();
    cfg.metrics = true;
    let uni = Universe::paper_testbed(cfg);
    uni.run_world(8, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let sub = mpi.comm_split(&w, (me % 2) as i32, me as i32).unwrap();
        let b = mpi.alloc(512);
        if sub.rank() == 0 {
            mpi.write(&b, 0, &pattern(512, (me % 2) as u8));
        }
        mpi.bcast(&sub, 0, &b, 512);
        assert_eq!(mpi.read(&b, 0, 512), pattern(512, (me % 2) as u8));
        mpi.free(b);
    });
    assert_eq!(
        uni.cluster.stats().hw_bcasts,
        0,
        "partial communicator must fall back off the hardware rail"
    );
}

#[test]
fn long_tail_collectives_match_scalar_reference_and_attribute_spans() {
    let mut cfg = StackConfig::best();
    cfg.metrics = true;
    cfg.trace = true;
    cfg.trace_capacity = 65536;
    let uni = Universe::paper_testbed(cfg);
    let (_, rows) = uni.run_ranks(6, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let me = mpi.rank();
        let n = mpi.size();
        // alltoallv: distinct length and content per (src, dst) pair.
        let sends: Vec<Vec<u8>> = (0..n)
            .map(|d| vec![(me * 16 + d) as u8; (me * 7 + d) % 13])
            .collect();
        let got = mpi.alltoallv(&w, &sends);
        for (s, v) in got.iter().enumerate() {
            assert_eq!(*v, vec![(s * 16 + me) as u8; (s * 7 + me) % 13], "from {s}");
        }
        // scan: prefix sums of (rank + 1).
        let b = mpi.alloc(8);
        mpi.write(&b, 0, &(me as u64 + 1).to_le_bytes());
        mpi.scan(&w, crate::coll::ReduceOp::SumU64, &b, 8);
        let expect: u64 = (0..=me).map(|r| r as u64 + 1).sum();
        assert_eq!(
            u64::from_le_bytes(mpi.read(&b, 0, 8).try_into().unwrap()),
            expect,
            "scan prefix"
        );
        mpi.free(b);
        // reduce_scatter: lane j of rank r's send is r + 10 j.
        let block = 8;
        let send = mpi.alloc(block * n);
        let recv = mpi.alloc(block);
        for j in 0..n {
            mpi.write(&send, j * 8, &(me as u64 + 10 * j as u64).to_le_bytes());
        }
        mpi.reduce_scatter(&w, crate::coll::ReduceOp::SumU64, &send, &recv, block);
        let expect: u64 = (0..n).map(|r| r as u64 + 10 * me as u64).sum();
        assert_eq!(
            u64::from_le_bytes(mpi.read(&recv, 0, 8).try_into().unwrap()),
            expect,
            "reduce_scatter block"
        );
        mpi.free(send);
        mpi.free(recv);
        // gatherv: rank r contributes 3r+1 bytes of known content to root 2.
        let data: Vec<u8> = (0..me * 3 + 1).map(|k| (me * 5 + k) as u8).collect();
        let res = mpi.gatherv(&w, 2, &data);
        if me == 2 {
            let (offsets, bytes) = res.expect("root gets the concatenation");
            assert_eq!(offsets.len(), n + 1);
            for r in 0..n {
                let expect: Vec<u8> = (0..r * 3 + 1).map(|k| (r * 5 + k) as u8).collect();
                assert_eq!(
                    &bytes[offsets[r]..offsets[r + 1]],
                    &expect[..],
                    "rank {r} slot"
                );
            }
        } else {
            assert!(res.is_none(), "non-root gets nothing");
        }
        mpi.endpoint().trace.lock().clone()
    });
    // Composed collectives must attribute every `coll` span to the
    // outermost operation: the primitives they delegate to (gather, reduce,
    // scatter, bcast) never open spans of their own.
    let allowed = ["alltoallv", "scan", "reduce_scatter", "gatherv"];
    assert_eq!(rows.len(), 6);
    for (rank, t) in rows.iter().enumerate() {
        assert_eq!(t.dropped(), 0, "rank {rank}: ring must hold the whole run");
        let mut depth = 0usize;
        let mut names = Vec::new();
        for (_, ev) in t.iter() {
            match ev {
                crate::trace::TraceEvent::SpanBegin { cat, name, .. } if *cat == "coll" => {
                    assert_eq!(depth, 0, "rank {rank}: nested coll span {name}");
                    depth += 1;
                    names.push(*name);
                }
                crate::trace::TraceEvent::SpanEnd { cat, .. } if *cat == "coll" => {
                    depth -= 1;
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "rank {rank}: unbalanced coll spans");
        for nm in &names {
            assert!(
                allowed.contains(nm),
                "rank {rank}: span '{nm}' leaked from inside a composed collective"
            );
        }
        for want in allowed {
            assert!(
                names.contains(&want),
                "rank {rank}: no span for outermost op {want}"
            );
        }
    }
}
