//! One function per table/figure of the paper (the per-experiment index of
//! DESIGN.md §4), plus the ablation sweeps.

use elan4::NicConfig;
use openmpi_core::{CompletionMode, ProgressMode, RdmaScheme, StackConfig, Transports};
use qsnet::FabricConfig;

use crate::measure::{
    layer_decomposition, mpich_bandwidth, mpich_latency, ompi_bandwidth, ompi_latency,
    qdma_native_latency, Setup,
};
use crate::report::{sizes_large, sizes_small, Table};

fn rndv_cfg(scheme: RdmaScheme, inline: bool, dtp: bool) -> StackConfig {
    let mut c = StackConfig::best();
    c.scheme = scheme;
    c.inline_first_frag = inline;
    c.use_datatype_engine = dtp;
    c.force_rendezvous = true;
    c
}

/// Fig. 7(a)/(b): basic RDMA read vs. write, with/without inlined first
/// fragment, with/without the datatype engine. The rendezvous path is
/// forced so the RDMA schemes are exercised at every size.
pub fn fig7(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "Fig. 7: basic RDMA read and write latency",
        "us",
        &[
            "RDMA-Read",
            "Read-NoInline",
            "Read-DTP",
            "RDMA-Write",
            "Write-NoInline",
            "Write-DTP",
        ],
    );
    let cfgs = [
        rndv_cfg(RdmaScheme::Read, true, false),
        rndv_cfg(RdmaScheme::Read, false, false),
        rndv_cfg(RdmaScheme::Read, true, true),
        rndv_cfg(RdmaScheme::Write, true, false),
        rndv_cfg(RdmaScheme::Write, false, false),
        rndv_cfg(RdmaScheme::Write, true, true),
    ];
    for &len in sizes {
        let vals = cfgs
            .iter()
            .map(|c| ompi_latency(&Setup::paper(c.clone()), len))
            .collect();
        t.push(len, vals);
    }
    t
}

pub fn fig7a() -> Table {
    fig7(&[0, 2, 4, 8, 16, 32, 64, 128, 256, 512])
}

pub fn fig7b() -> Table {
    fig7(&[512, 1024, 2048, 4096])
}

/// Fig. 8: chained DMA and shared completion queue. RDMA-read rendezvous;
/// series compare fast chained completion, host-driven FIN_ACK, and the
/// one-queue / two-queue shared completion strategies.
pub fn fig8() -> Table {
    let mut t = Table::new(
        "Fig. 8: chained DMA and shared completion queue",
        "us",
        &["RDMA-Read", "Read-NoChain", "One-Queue", "Two-Queue"],
    );
    let base = rndv_cfg(RdmaScheme::Read, false, false);
    let mut nochain = base.clone();
    nochain.chained_fin = false;
    let mut oneq = base.clone();
    oneq.completion = CompletionMode::SharedQueueCombined;
    let mut twoq = base.clone();
    twoq.completion = CompletionMode::SharedQueueSeparate;
    let cfgs = [base, nochain, oneq, twoq];
    for len in [
        0usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
    ] {
        let vals = cfgs
            .iter()
            .map(|c| ompi_latency(&Setup::paper(c.clone()), len))
            .collect();
        t.push(len, vals);
    }
    t
}

/// Fig. 9 / §6.3: communication overhead per layer. QDMA latency is the
/// native ping-pong of a `(64+N)`-byte message (the 64-byte Open MPI
/// header); PTL latency is the measured total minus the PML-layer cost.
pub fn fig9() -> Table {
    let mut t = Table::new(
        "Fig. 9: communication cost by layer",
        "us",
        &[
            "QDMA latency(64+N)",
            "PTL latency",
            "PML layer cost",
            "Total",
        ],
    );
    let nic = NicConfig::default();
    let fabric = FabricConfig::default();
    let setup = Setup::paper(StackConfig::best());
    for len in [0usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1984] {
        let qdma = qdma_native_latency(&nic, &fabric, (len + 64).min(2048));
        let (total, pml, ptl) = layer_decomposition(&setup, len);
        t.push(len, vec![qdma, ptl, pml, total]);
    }
    t
}

/// Table 1: thread-based asynchronous progress, RDMA-read rendezvous at
/// 4 B and 4 KB across the four completion strategies.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: thread-based asynchronous progress (RDMA-Read)",
        "us",
        &["Basic", "Interrupt", "One Thread", "Two Threads"],
    );
    let basic = rndv_cfg(RdmaScheme::Read, false, false);
    let mut irq = basic.clone();
    irq.progress = ProgressMode::Interrupt;
    let mut one = basic.clone();
    one.progress = ProgressMode::OneThread;
    one.completion = CompletionMode::SharedQueueCombined;
    let mut two = basic.clone();
    two.progress = ProgressMode::TwoThreads;
    two.completion = CompletionMode::SharedQueueSeparate;
    let cfgs = [basic, irq, one, two];
    for len in [4usize, 4096] {
        let vals = cfgs
            .iter()
            .map(|c| ompi_latency(&Setup::paper(c.clone()), len))
            .collect();
        t.push(len, vals);
    }
    t
}

fn fig10_cfgs() -> (StackConfig, StackConfig) {
    // "Best options": chained FIN, polling progress without the shared
    // completion queue, rendezvous without inlined data.
    let read = StackConfig::best();
    let mut write = read.clone();
    write.scheme = RdmaScheme::Write;
    (read, write)
}

/// Fig. 10(a)/(b): ping-pong latency, Open MPI (both schemes) vs MPICH.
pub fn fig10_latency(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "Fig. 10(a/b): latency, Open MPI vs MPICH-QsNetII",
        "us",
        &[
            "MPICH-QsNetII",
            "PTL/Elan4-RDMA-Read",
            "PTL/Elan4-RDMA-Write",
        ],
    );
    let nic = NicConfig::default();
    let fabric = FabricConfig::default();
    let (read, write) = fig10_cfgs();
    for &len in sizes {
        let m = mpich_latency(&nic, &fabric, len);
        let r = ompi_latency(&Setup::paper(read.clone()), len);
        let w = ompi_latency(&Setup::paper(write.clone()), len);
        t.push(len, vec![m, r, w]);
    }
    t
}

pub fn fig10a() -> Table {
    fig10_latency(&sizes_small())
}

pub fn fig10b() -> Table {
    fig10_latency(&sizes_large())
}

/// Fig. 10(c)/(d): streaming bandwidth, Open MPI vs MPICH.
pub fn fig10_bandwidth(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "Fig. 10(c/d): bandwidth, Open MPI vs MPICH-QsNetII",
        "MB/s",
        &[
            "MPICH-QsNetII",
            "PTL/Elan4-RDMA-Read",
            "PTL/Elan4-RDMA-Write",
        ],
    );
    let nic = NicConfig::default();
    let fabric = FabricConfig::default();
    let (read, write) = fig10_cfgs();
    for &len in sizes {
        let window = (64.min(1 + (1 << 20) / len.max(1))).max(2);
        let reps = 3;
        let m = mpich_bandwidth(&nic, &fabric, len, window, reps);
        let r = ompi_bandwidth(&Setup::paper(read.clone()), len, window, reps);
        let w = ompi_bandwidth(&Setup::paper(write.clone()), len, window, reps);
        t.push(len, vec![m, r, w]);
    }
    t
}

pub fn fig10c() -> Table {
    fig10_bandwidth(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
}

pub fn fig10d() -> Table {
    fig10_bandwidth(&sizes_large())
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper (DESIGN.md §4)
// ---------------------------------------------------------------------------

/// Multi-rail striping (the paper's §8 future work): bandwidth with one vs
/// two Elan4 rails.
pub fn multirail() -> Table {
    let mut t = Table::new(
        "Ablation: multi-rail striping bandwidth",
        "MB/s",
        &["1 rail", "2 rails"],
    );
    for len in [4096usize, 16 << 10, 64 << 10, 256 << 10, 1 << 20] {
        let mut vals = Vec::new();
        for rails in [1usize, 2] {
            let fabric = FabricConfig {
                rails: 2,
                ..Default::default()
            };
            let setup = Setup {
                nic: NicConfig::default(),
                fabric,
                stack: StackConfig::best(),
                transports: Transports {
                    elan_rails: rails,
                    tcp: false,
                },
            };
            vals.push(ompi_bandwidth(&setup, len, 8, 3));
        }
        t.push(len, vals);
    }
    t
}

/// Concurrent message striping across Elan4 + TCP (the paper's
/// multi-network goal), vs each alone.
pub fn multinet() -> Table {
    let mut t = Table::new(
        "Ablation: concurrent Elan4 + TCP striping bandwidth",
        "MB/s",
        &["Elan4 only", "TCP only", "Elan4+TCP"],
    );
    for len in [64 << 10, 256 << 10, 1 << 20] {
        let mut vals = Vec::new();
        for (rails, tcp) in [(1usize, false), (0, true), (1, true)] {
            let mut stack = StackConfig::best();
            stack.scheme = RdmaScheme::Write; // push protocol covers TCP
            let setup = Setup {
                nic: NicConfig::default(),
                fabric: FabricConfig::default(),
                stack,
                transports: Transports {
                    elan_rails: rails,
                    tcp,
                },
            };
            vals.push(ompi_bandwidth(&setup, len, 4, 2));
        }
        t.push(len, vals);
    }
    t
}

/// Sensitivity of the eager/rendezvous switchover.
pub fn sweep_rndv_threshold() -> Table {
    let mut t = Table::new(
        "Ablation: rendezvous-threshold sweep (latency at the boundary)",
        "us",
        &["threshold=256", "threshold=1024", "threshold=1984"],
    );
    for len in [128usize, 256, 512, 1024, 1500, 1984] {
        let mut vals = Vec::new();
        for thresh in [256usize, 1024, 1984] {
            let mut c = StackConfig::best();
            c.eager_limit = thresh;
            vals.push(ompi_latency(&Setup::paper(c), len));
        }
        t.push(len, vals);
    }
    t
}

/// Collective performance: hardware broadcast (global address space) vs
/// the binomial tree, across message sizes on the full 8-node testbed.
pub fn coll_bcast() -> Table {
    use openmpi_core::{Placement, Universe};

    fn bcast_us(hw: bool, len: usize) -> f64 {
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, t) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
            let mut w = mpi.world();
            if !hw {
                w.hw_coll = false;
            }
            let buf = mpi.alloc(len.max(1));
            mpi.barrier(&w);
            let t0 = mpi.now();
            let iters = 10;
            for _ in 0..iters {
                mpi.bcast(&w, 0, &buf, len);
            }
            mpi.barrier(&w);
            (mpi.now() - t0).as_ns() / iters
        });
        t[0] as f64 / 1_000.0
    }

    let mut t = Table::new(
        "Ablation: broadcast on 8 ranks, hardware vs binomial tree",
        "us",
        &["HW bcast", "Binomial tree"],
    );
    for len in [4usize, 256, 1024, 1984, 8192, 65536] {
        t.push(len, vec![bcast_us(true, len), bcast_us(false, len)]);
    }
    t
}

/// One-sided put/get vs two-sided send/recv latency: RMA skips matching,
/// headers, and receiver involvement entirely.
pub fn onesided() -> Table {
    use openmpi_core::{Placement, Universe};

    fn rma_us(len: usize, get: bool) -> f64 {
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, t) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let wbuf = mpi.alloc(len.max(8));
            let mut win = mpi.win_create(&w, wbuf);
            let local = mpi.alloc(len.max(8));
            mpi.barrier(&w);
            let t0 = mpi.now();
            let iters = 10;
            for _ in 0..iters {
                if mpi.rank() == 0 {
                    if get {
                        mpi.get(&mut win, 1, 0, &local, 0, len);
                    } else {
                        mpi.put(&mut win, 1, 0, &local, 0, len);
                    }
                }
                mpi.win_fence(&mut win);
            }
            let total = (mpi.now() - t0).as_ns() / iters;
            mpi.win_free(win);
            total
        });
        t[0] as f64 / 1_000.0
    }

    let mut t = Table::new(
        "Ablation: one-sided put/get epoch vs two-sided send latency",
        "us",
        &["put+fence", "get+fence", "send/recv"],
    );
    for len in [8usize, 1024, 4096, 65536] {
        let send = ompi_latency(&Setup::paper(StackConfig::best()), len);
        t.push(len, vec![rma_us(len, false), rma_us(len, true), send]);
    }
    t
}

/// Application-level scaling: per-step time of the mini-applications on
/// 1, 2, 4 and 8 ranks (communication/computation balance of real
/// workloads on the stack).
pub fn apps_scaling() -> Table {
    use openmpi_core::{Placement, Universe};

    fn stencil_us(ranks: usize) -> f64 {
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, t) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let cfg = ompi_apps::stencil::StencilConfig {
                rows: 128,
                cols: 64,
                steps: 10,
                ..Default::default()
            };
            mpi.barrier(&w);
            let t0 = mpi.now();
            let _ = ompi_apps::stencil::run(&mpi, &w, &cfg);
            (mpi.now() - t0).as_ns() / 10
        });
        t[0] as f64 / 1_000.0
    }

    fn cg_us(ranks: usize) -> f64 {
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, t) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let cfg = ompi_apps::cg::CgConfig {
                n: 512,
                max_iters: 50,
                tol: 0.0, // run exactly 50 iterations
            };
            mpi.barrier(&w);
            let t0 = mpi.now();
            let r = ompi_apps::cg::run(&mpi, &w, &cfg);
            (mpi.now() - t0).as_ns() / r.iters as u64
        });
        t[0] as f64 / 1_000.0
    }

    fn ep_us(ranks: usize) -> f64 {
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, t) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let cfg = ompi_apps::ep::EpConfig::default();
            mpi.barrier(&w);
            let t0 = mpi.now();
            let _ = ompi_apps::ep::run(&mpi, &w, &cfg);
            (mpi.now() - t0).as_ns()
        });
        t[0] as f64 / 1_000.0
    }

    let mut t = Table::new(
        "Ablation: mini-application time vs ranks",
        "us",
        &[
            "stencil 128x64 step",
            "CG n=512 iteration",
            "EP 64Ki pairs total",
        ],
    );
    for ranks in [1usize, 2, 4, 8] {
        t.push(ranks, vec![stencil_us(ranks), cg_us(ranks), ep_us(ranks)]);
    }
    t
}

/// Why asynchronous progress exists (paper §3): overlap of communication
/// and computation. The sender posts a rendezvous-sized isend under the
/// RDMA-*write* scheme (so the sender's host must service the ACK), then
/// computes for `X` µs before waiting. With polling progress the protocol
/// stalls until the host re-enters the library; with one-thread progress
/// the progress thread services the ACK during the computation.
pub fn overlap() -> Table {
    use openmpi_core::{Placement, Universe};

    fn total_us(progress: ProgressMode, compute_us: usize) -> f64 {
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
                mpi.compute(qsim::Dur::from_us(compute_us as u64));
                mpi.wait(req);
                (mpi.now() - t0).as_ns()
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                0
            }
        });
        t[0] as f64 / 1_000.0
    }

    let mut t = Table::new(
        "Ablation: comm/compute overlap, 256KB RDMA-write isend + X us compute",
        "us total",
        &["Polling", "One Thread"],
    );
    for compute in [0usize, 100, 300, 600, 1000] {
        t.push(
            compute,
            vec![
                total_us(ProgressMode::Polling, compute),
                total_us(ProgressMode::OneThread, compute),
            ],
        );
    }
    t
}

/// Scaling on larger machines: collective latency as the fat tree grows
/// from one level (8 nodes) to three (64 nodes).
pub fn scale() -> Table {
    use openmpi_core::{Placement, Universe};

    fn coll_us(ranks: usize, which: u8) -> f64 {
        let fabric = FabricConfig {
            nodes: ranks.max(8),
            ..Default::default()
        };
        let uni = Universe::new(
            NicConfig::default(),
            fabric,
            StackConfig::best(),
            Transports::default(),
        );
        let (_, t) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let buf = mpi.alloc(1024);
            mpi.barrier(&w);
            let t0 = mpi.now();
            let iters = 10;
            for _ in 0..iters {
                match which {
                    0 => mpi.barrier(&w),
                    1 => mpi.bcast(&w, 0, &buf, 1024),
                    _ => mpi.allreduce(&w, openmpi_core::ReduceOp::SumF64, &buf, 64),
                }
            }
            mpi.barrier(&w);
            (mpi.now() - t0).as_ns() / iters
        });
        t[0] as f64 / 1_000.0
    }

    let mut t = Table::new(
        "Ablation: collective latency vs machine size (ranks)",
        "us",
        &["barrier", "bcast 1KB (hw)", "allreduce 64B"],
    );
    for ranks in [4usize, 8, 16, 32, 64] {
        t.push(
            ranks,
            vec![coll_us(ranks, 0), coll_us(ranks, 1), coll_us(ranks, 2)],
        );
    }
    t
}

/// Collective-I/O bandwidth vs the number of I/O nodes: 8 ranks write a
/// shared checkpoint file; striping across more I/O nodes scales until the
/// ranks' request rate saturates.
pub fn io_scaling() -> Table {
    use openmpi_core::{Placement, Universe};

    fn bw(io_nodes: usize, block: usize) -> f64 {
        let uni = Universe::paper_testbed(StackConfig::best());
        let pfs = ompi_io::Pfs::new(ompi_io::PfsConfig {
            io_nodes,
            ..Default::default()
        });
        let (_, t) = uni.run_ranks(8, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let f = ompi_io::File::open(&mpi, &pfs, &w, "ckpt");
            let buf = mpi.alloc(block);
            mpi.barrier(&w);
            let t0 = mpi.now();
            f.write_all(&mpi, 0, &buf, block);
            (mpi.now() - t0).as_ns()
        });
        let ns = t[0] as f64;
        (8 * block) as f64 / (ns / 1e9) / 1e6
    }

    let mut t = Table::new(
        "Ablation: collective checkpoint bandwidth vs I/O nodes (8 ranks)",
        "MB/s",
        &["256KB/rank", "1MB/rank"],
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        t.push(nodes, vec![bw(nodes, 256 << 10), bw(nodes, 1 << 20)]);
    }
    t
}

/// Sensitivity of Table 1 to the interrupt cost (how much of the
/// asynchronous-progress penalty is the kernel's fault).
pub fn sweep_irq_cost() -> Table {
    let mut t = Table::new(
        "Ablation: interrupt-latency sweep (4B RDMA-read, interrupt mode)",
        "us",
        &["Basic", "Interrupt"],
    );
    for irq_us in [1usize, 3, 5, 10, 20] {
        let nic = NicConfig {
            irq_latency: qsim::Dur::from_us(irq_us as u64),
            ..Default::default()
        };
        let basic = Setup {
            nic: nic.clone(),
            fabric: FabricConfig::default(),
            stack: rndv_cfg(RdmaScheme::Read, false, false),
            transports: Transports::default(),
        };
        let mut istack = rndv_cfg(RdmaScheme::Read, false, false);
        istack.progress = ProgressMode::Interrupt;
        let interrupt = Setup {
            nic,
            fabric: FabricConfig::default(),
            stack: istack,
            transports: Transports::default(),
        };
        t.push(
            irq_us,
            vec![ompi_latency(&basic, 4), ompi_latency(&interrupt, 4)],
        );
    }
    t
}

/// Every experiment by its command-line name, in `results/experiments.md`
/// order.
#[expect(clippy::type_complexity)]
pub const EXPERIMENTS: &[(&str, fn() -> Table)] = &[
    ("fig7a", fig7a as fn() -> Table),
    ("fig7b", fig7b),
    ("fig8", fig8),
    ("fig9", fig9),
    ("table1", table1),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig10c", fig10c),
    ("fig10d", fig10d),
    ("multirail", multirail),
    ("multinet", multinet),
    ("coll-bcast", coll_bcast),
    ("onesided", onesided),
    ("apps", apps_scaling),
    ("overlap", overlap),
    ("scale", scale),
    ("io", io_scaling),
    ("sweep-rndv", sweep_rndv_threshold),
    ("sweep-irq", sweep_irq_cost),
];
