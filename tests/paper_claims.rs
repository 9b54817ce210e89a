//! The paper's qualitative claims, asserted against regenerated (reduced)
//! experiment data. These are the "shape" checks EXPERIMENTS.md documents:
//! who wins, by roughly what factor, and where the crossovers fall.

use ompi_bench::measure::{
    layer_decomposition, mpich_bandwidth, mpich_latency, ompi_bandwidth, ompi_latency,
    qdma_native_latency, Setup,
};
use openmpi_core::{CompletionMode, ProgressMode, RdmaScheme, StackConfig};

fn rndv(scheme: RdmaScheme, inline: bool, dtp: bool) -> StackConfig {
    let mut c = StackConfig::best();
    c.scheme = scheme;
    c.inline_first_frag = inline;
    c.use_datatype_engine = dtp;
    c.force_rendezvous = true;
    c
}

/// §6.1 / Fig. 7: "RDMA read is able to deliver better performance compared
/// to RDMA write ... the RDMA read-based scheme essentially saves a control
/// packet".
#[test]
fn fig7_read_beats_write() {
    for len in [1024usize, 4096] {
        let r = ompi_latency(&Setup::paper(rndv(RdmaScheme::Read, false, false)), len);
        let w = ompi_latency(&Setup::paper(rndv(RdmaScheme::Write, false, false)), len);
        assert!(r < w, "len={len}: read {r:.2}us !< write {w:.2}us");
        // "saves a control packet": the gap is on the order of one to two
        // small-message crossings, not 10x.
        assert!(w - r < 6.0, "len={len}: gap {:.2}us too large", w - r);
    }
}

/// §6.1 / Fig. 7: the datatype component costs ~0.4 µs per request.
#[test]
fn fig7_dtp_overhead_near_04us() {
    let base = ompi_latency(&Setup::paper(rndv(RdmaScheme::Read, true, false)), 256);
    let dtp = ompi_latency(&Setup::paper(rndv(RdmaScheme::Read, true, true)), 256);
    let delta = dtp - base;
    assert!(
        (0.3..0.6).contains(&delta),
        "DTP overhead {delta:.3}us, paper says ~0.4us"
    );
}

/// §6.1: rendezvous without inlined data wins wherever the rendezvous path
/// operates (above the 1984-byte threshold).
#[test]
fn fig7_no_inline_wins_above_threshold() {
    for len in [2048usize, 4096] {
        let mut inline = StackConfig::best();
        inline.inline_first_frag = true;
        let ni = ompi_latency(&Setup::paper(StackConfig::best()), len);
        let il = ompi_latency(&Setup::paper(inline), len);
        assert!(ni < il, "len={len}: no-inline {ni:.2} !< inline {il:.2}");
    }
}

/// §6.2 / Fig. 8: chained FIN is a marginal win; the shared completion
/// queue costs extra (an additional QDMA per RDMA); one-queue and two-queue
/// polling costs are about the same.
#[test]
fn fig8_completion_strategies() {
    let base = rndv(RdmaScheme::Read, false, false);
    let mut nochain = base.clone();
    nochain.chained_fin = false;
    let mut oneq = base.clone();
    oneq.completion = CompletionMode::SharedQueueCombined;
    let mut twoq = base.clone();
    twoq.completion = CompletionMode::SharedQueueSeparate;

    let len = 4096;
    let b = ompi_latency(&Setup::paper(base), len);
    let nc = ompi_latency(&Setup::paper(nochain), len);
    let q1 = ompi_latency(&Setup::paper(oneq), len);
    let q2 = ompi_latency(&Setup::paper(twoq), len);

    assert!(b < nc, "chained {b:.2} !< no-chain {nc:.2}");
    assert!(
        nc - b < 1.0,
        "chaining should be marginal, got {:.2}",
        nc - b
    );
    assert!(
        q1 > b + 0.5,
        "one-queue {q1:.2} should cost over basic {b:.2}"
    );
    assert!(
        (q1 - q2).abs() < 0.3,
        "polling one-queue {q1:.2} vs two-queue {q2:.2} should be ~equal"
    );
}

/// §6.3 / Fig. 9: the PML layer and above costs ≈ 0.5 µs, and the PTL
/// delivers performance comparable to native QDMA of a (64+N)-byte message.
#[test]
fn fig9_layer_decomposition() {
    let setup = Setup::paper(StackConfig::best());
    let nic = elan4::NicConfig::default();
    let fabric = qsnet::FabricConfig::default();
    for len in [0usize, 64, 512] {
        let (_total, pml, ptl) = layer_decomposition(&setup, len);
        assert!(
            (0.3..1.2).contains(&pml),
            "len={len}: PML cost {pml:.2}us not ~0.5us"
        );
        let qdma = qdma_native_latency(&nic, &fabric, len + 64);
        let ratio = ptl / qdma;
        assert!(
            (0.8..1.6).contains(&ratio),
            "len={len}: PTL {ptl:.2}us vs QDMA {qdma:.2}us (ratio {ratio:.2}) not comparable"
        );
    }
}

/// Table 1: Basic < Interrupt < One Thread < Two Threads, with roughly the
/// paper's deltas (≈ +10 µs interrupt, ≈ +8 µs threading, a few more for
/// the second thread).
#[test]
fn table1_progress_modes() {
    let basic = rndv(RdmaScheme::Read, false, false);
    let mut irq = basic.clone();
    irq.progress = ProgressMode::Interrupt;
    let mut one = basic.clone();
    one.progress = ProgressMode::OneThread;
    one.completion = CompletionMode::SharedQueueCombined;
    let mut two = basic.clone();
    two.progress = ProgressMode::TwoThreads;
    two.completion = CompletionMode::SharedQueueSeparate;

    for len in [4usize, 4096] {
        let b = ompi_latency(&Setup::paper(basic.clone()), len);
        let i = ompi_latency(&Setup::paper(irq.clone()), len);
        let o = ompi_latency(&Setup::paper(one.clone()), len);
        let t = ompi_latency(&Setup::paper(two.clone()), len);
        assert!(
            b < i && i < o && o < t,
            "len={len}: expected {b:.2} < {i:.2} < {o:.2} < {t:.2}"
        );
        assert!(
            (i - b) > 6.0 && (i - b) < 16.0,
            "interrupt delta {:.2}",
            i - b
        );
        assert!(
            (o - i) > 3.0 && (o - i) < 12.0,
            "one-thread delta {:.2}",
            o - i
        );
        assert!(
            (t - o) > 1.0 && (t - o) < 16.0,
            "two-thread delta {:.2}",
            t - o
        );
    }
}

/// §6.5 / Fig. 10(a): Open MPI latency is slightly higher than
/// MPICH-QsNetII for small messages (64-byte header + host-side matching vs
/// 32-byte header + NIC matching) but comparable: within a couple of µs.
#[test]
fn fig10_small_message_latency_gap() {
    let nic = elan4::NicConfig::default();
    let fabric = qsnet::FabricConfig::default();
    for len in [0usize, 64, 512] {
        let m = mpich_latency(&nic, &fabric, len);
        let o = ompi_latency(&Setup::paper(StackConfig::best()), len);
        assert!(
            o > m,
            "len={len}: Open MPI {o:.2} should trail MPICH {m:.2}"
        );
        assert!(
            o - m < 3.0,
            "len={len}: gap {:.2}us not 'comparable'",
            o - m
        );
    }
}

/// §6.5 / Fig. 10(d): MPICH's Tport pipelining wins the middle range of
/// message sizes, and the curves converge for very large messages.
#[test]
fn fig10_bandwidth_midrange_crossover() {
    let nic = elan4::NicConfig::default();
    let fabric = qsnet::FabricConfig::default();
    let setup = Setup::paper(StackConfig::best());

    // Middle range: MPICH clearly ahead.
    let m_mid = mpich_bandwidth(&nic, &fabric, 8192, 16, 2);
    let o_mid = ompi_bandwidth(&setup, 8192, 16, 2);
    assert!(
        m_mid > o_mid * 1.05,
        "mid-range: MPICH {m_mid:.0} should beat Open MPI {o_mid:.0}"
    );

    // 1 MB: within a few percent of each other, both near the PCI-X bound.
    let m_big = mpich_bandwidth(&nic, &fabric, 1 << 20, 4, 2);
    let o_big = ompi_bandwidth(&setup, 1 << 20, 4, 2);
    let ratio = o_big / m_big;
    assert!(
        (0.95..1.05).contains(&ratio),
        "1MB: Open MPI {o_big:.0} vs MPICH {m_big:.0} should converge"
    );
    assert!(
        (800.0..1000.0).contains(&o_big),
        "peak bandwidth {o_big:.0} MB/s out of the PCI-X band"
    );
}

/// Deterministic reproduction: regenerating an experiment yields identical
/// virtual-time numbers.
#[test]
fn experiments_are_deterministic() {
    let a = ompi_latency(&Setup::paper(StackConfig::best()), 4096);
    let b = ompi_latency(&Setup::paper(StackConfig::best()), 4096);
    assert_eq!(a, b);
    let nic = elan4::NicConfig::default();
    let fabric = qsnet::FabricConfig::default();
    assert_eq!(
        mpich_latency(&nic, &fabric, 64),
        mpich_latency(&nic, &fabric, 64)
    );
}

/// §3's motivation for asynchronous progress: with a progress thread, a
/// rendezvous write-scheme transfer overlaps host computation; with polling
/// it serializes behind it.
#[test]
fn async_progress_enables_overlap() {
    use openmpi_core::{Placement, Universe};

    fn total_us(progress: ProgressMode, compute_us: u64) -> f64 {
        let mut cfg = StackConfig::best();
        cfg.scheme = RdmaScheme::Write;
        cfg.progress = progress;
        if progress == ProgressMode::OneThread {
            cfg.completion = CompletionMode::SharedQueueCombined;
        }
        let uni = Universe::paper_testbed(cfg);
        let (_, t) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let len = 256 << 10;
            let buf = mpi.alloc(len);
            mpi.barrier(&w);
            if mpi.rank() == 0 {
                let t0 = mpi.now();
                let req = mpi.isend(&w, 1, 0, &buf, len);
                mpi.compute(qsim::Dur::from_us(compute_us));
                mpi.wait(req);
                (mpi.now() - t0).as_ns()
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                0
            }
        });
        t[0] as f64 / 1_000.0
    }

    // Latency-only (no compute): the thread overhead makes OneThread lose.
    let poll_0 = total_us(ProgressMode::Polling, 0);
    let thread_0 = total_us(ProgressMode::OneThread, 0);
    assert!(poll_0 < thread_0, "no compute: polling {poll_0} should win");

    // With 300us of computation the transfer hides behind it only with the
    // progress thread.
    let poll_300 = total_us(ProgressMode::Polling, 300);
    let thread_300 = total_us(ProgressMode::OneThread, 300);
    assert!(
        thread_300 < poll_300 * 0.7,
        "overlap missing: thread {thread_300} vs polling {poll_300}"
    );
    // Polling serializes: total ≈ transfer + compute.
    assert!(poll_300 > poll_0 + 280.0);
    // The thread overlaps: total ≈ max(transfer, compute) + overhead.
    assert!(thread_300 < thread_0 + 60.0);
}
