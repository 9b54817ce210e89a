//! # mpich-qsnet — the MPICH-QsNetII comparator
//!
//! The baseline the paper measures against (§6.5): MPICH layered on the
//! Quadrics Tport interface. Its distinguishing properties, all modelled:
//!
//! - **NIC-based tag matching** — posted receives live in the NIC; a
//!   matched eager message lands in the user buffer without a host round
//!   trip (the Open MPI PTL deliberately forgoes this to share request
//!   queues across networks).
//! - **32-byte headers** — half of Open MPI's 64-byte match header.
//! - **NIC-side pipelining** — large messages are pulled by the receiving
//!   NIC in streamed chunks as soon as the envelope matches, giving the
//!   strong mid-range bandwidth of Fig. 10(d).
//! - **Static process pool** — all contexts are claimed before the ranks
//!   start, and the rank ↔ VPID binding is fixed (exactly the property
//!   that keeps MPICH-QsNet from supporting MPI-2 dynamic processes,
//!   paper §3.2).

#![warn(missing_docs)]

use std::cell::Cell;
use std::rc::Rc;

use elan4::{Cluster, ElanCtx, HostBuf, Tport, TportRecv, TportSend, Vpid};
use qsim::{Dur, Proc, Simulation};

/// Host-library overhead per MPI call (thin MPICH layer above Tport).
#[derive(Clone, Debug)]
pub struct MpichConfig {
    /// Host time per MPI call above the Tport.
    pub call_overhead: Dur,
}

impl Default for MpichConfig {
    fn default() -> Self {
        MpichConfig {
            call_overhead: Dur::from_ns(450),
        }
    }
}

/// Source wildcard for receives.
pub const MPICH_ANY_SOURCE: i32 = -1;
/// Tag wildcard for receives.
pub const MPICH_ANY_TAG: i64 = elan4::TPORT_ANY_TAG;

/// One rank of an MPICH-QsNet job.
pub struct MpichRank {
    proc: Proc,
    ctx: Rc<ElanCtx>,
    tport: Tport,
    rank: usize,
    vpids: Rc<Vec<Vpid>>,
    cfg: MpichConfig,
}

/// A pending nonblocking operation.
pub enum MpichReq {
    /// A pending send.
    Send(TportSend),
    /// A pending receive.
    Recv(TportRecv),
}

impl MpichRank {
    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Ranks in the job.
    pub fn size(&self) -> usize {
        self.vpids.len()
    }

    /// The underlying simulated process.
    pub fn proc(&self) -> &Proc {
        &self.proc
    }

    /// Current virtual time.
    pub fn now(&self) -> qsim::Time {
        self.proc.now()
    }

    /// Allocate host memory on this rank's node.
    pub fn alloc(&self, len: usize) -> HostBuf {
        self.ctx.alloc(len)
    }

    /// Free a buffer.
    pub fn free(&self, buf: HostBuf) {
        self.ctx.free(buf);
    }

    /// Untimed host store into a buffer.
    pub fn write(&self, buf: &HostBuf, off: usize, data: &[u8]) {
        self.ctx.write(buf, off, data);
    }

    /// Untimed host load from a buffer.
    pub fn read(&self, buf: &HostBuf, off: usize, len: usize) -> Vec<u8> {
        self.ctx.read(buf, off, len)
    }

    /// Nonblocking tagged send of `len` bytes.
    pub fn isend(&self, dst: usize, tag: i64, buf: &HostBuf, len: usize) -> MpichReq {
        self.proc.advance(self.cfg.call_overhead);
        MpichReq::Send(
            self.tport
                .isend(&self.proc, self.vpids[dst], tag, *buf, len),
        )
    }

    /// Nonblocking tagged receive into `buf` (NIC-side matching).
    pub fn irecv(&self, src: i32, tag: i64, buf: HostBuf) -> MpichReq {
        self.proc.advance(self.cfg.call_overhead);
        let src_sel = if src == MPICH_ANY_SOURCE {
            elan4::TPORT_ANY_SRC
        } else {
            self.vpids[src as usize].raw()
        };
        MpichReq::Recv(self.tport.irecv(&self.proc, src_sel, tag, buf))
    }

    /// Block until the operation completes.
    pub fn wait(&self, req: &MpichReq) {
        match req {
            MpichReq::Send(s) => self.tport.wait_send(&self.proc, s),
            MpichReq::Recv(r) => {
                self.tport.wait_recv(&self.proc, r);
            }
        }
    }

    /// Blocking send.
    pub fn send(&self, dst: usize, tag: i64, buf: &HostBuf, len: usize) {
        let r = self.isend(dst, tag, buf, len);
        self.wait(&r);
    }

    /// Blocking receive.
    pub fn recv(&self, src: i32, tag: i64, buf: &HostBuf) {
        let r = self.irecv(src, tag, *buf);
        self.wait(&r);
    }

    /// Simple dissemination barrier over tport messages.
    pub fn barrier(&self) {
        let n = self.size();
        if n <= 1 {
            return;
        }
        let me = self.rank;
        let buf = self.alloc(1);
        let mut k = 1;
        let mut round = 0i64;
        while k < n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            let tag = -(1000 + round); // reserved negative tag space
            let r = self.irecv(from as i32, tag, buf);
            self.send(to, tag, &buf, 1);
            self.wait(&r);
            k <<= 1;
            round += 1;
        }
        self.free(buf);
    }
}

/// Launch an `n`-rank MPICH-QsNet job on `cluster`, run it to completion,
/// and return each rank's return value at its rank index. Contexts are
/// claimed up front (static pool) with rank `r` placed on node `r % nodes`.
pub fn run_mpich<T: 'static>(
    cluster: &Rc<Cluster>,
    n: usize,
    cfg: MpichConfig,
    entry: impl Fn(MpichRank) -> T + 'static,
) -> Vec<T> {
    let sim = Simulation::new();
    let slots = launch_mpich(&sim, cluster, n, cfg, entry);
    if let Err(e) = sim.run() {
        panic!("mpich simulation failed: {e}");
    }
    slots
        .iter()
        .enumerate()
        .map(|(r, v)| {
            v.take()
                .unwrap_or_else(|| panic!("rank {r} returned no value"))
        })
        .collect()
}

/// Like [`run_mpich`] but on an existing simulation: returns one slot per
/// rank, which receives the rank's return value when its body returns.
pub fn launch_mpich<T: 'static>(
    sim: &Simulation,
    cluster: &Rc<Cluster>,
    n: usize,
    cfg: MpichConfig,
    entry: impl Fn(MpichRank) -> T + 'static,
) -> Vec<Rc<Cell<Option<T>>>> {
    let nodes = cluster.nodes();
    // Static pool: claim every context before any rank runs.
    let ctxs: Vec<Rc<ElanCtx>> = (0..n)
        .map(|r| Rc::new(ElanCtx::attach(cluster, r % nodes).expect("capability exhausted")))
        .collect();
    let vpids = Rc::new(ctxs.iter().map(|c| c.vpid()).collect::<Vec<_>>());
    let entry = Rc::new(entry);
    let slots: Vec<Rc<Cell<Option<T>>>> = (0..n).map(|_| Rc::new(Cell::new(None))).collect();
    for ((rank, ctx), out) in ctxs.into_iter().enumerate().zip(&slots) {
        let vpids = vpids.clone();
        let entry = entry.clone();
        let cfg = cfg.clone();
        let out = out.clone();
        sim.spawn(&format!("mpich{rank}"), move |p| {
            let tport = Tport::new(ctx.clone(), 0);
            out.set(Some(entry(MpichRank {
                proc: p,
                ctx,
                tport,
                rank,
                vpids,
                cfg,
            })));
        });
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan4::NicConfig;
    use qsnet::FabricConfig;

    fn pattern(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| ((i * 13 + seed as usize) % 251) as u8)
            .collect()
    }

    fn cluster() -> Rc<Cluster> {
        Cluster::new(NicConfig::default(), FabricConfig::default())
    }

    fn pingpong(len: usize, iters: usize) -> u64 {
        let cl = cluster();
        run_mpich(&cl, 2, MpichConfig::default(), move |r| {
            let sbuf = r.alloc(len.max(1));
            let rbuf = r.alloc(len.max(1));
            r.write(&sbuf, 0, &pattern(len, r.rank() as u8));
            r.barrier();
            let t0 = r.now();
            for _ in 0..iters {
                if r.rank() == 0 {
                    r.send(1, 0, &sbuf, len);
                    r.recv(1, 0, &rbuf);
                } else {
                    r.recv(0, 0, &rbuf);
                    r.send(0, 0, &sbuf, len);
                }
            }
            let lat = (r.now() - t0).as_ns() / (2 * iters as u64);
            if r.rank() == 0 {
                assert_eq!(r.read(&rbuf, 0, len), pattern(len, 1));
            }
            lat
        })[0]
    }

    #[test]
    fn run_mpich_returns_values_in_rank_order() {
        // Rank r finishes (8 - r) µs in, so the ranks return in reverse.
        let cl = cluster();
        let ranks = run_mpich(&cl, 8, MpichConfig::default(), |r| {
            r.proc().advance(Dur::from_us(8 - r.rank() as u64));
            r.rank()
        });
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn small_message_latency_band() {
        let l0 = pingpong(0, 20);
        // MPICH-QsNetII small-message latency ≈ 3 µs in the paper.
        assert!(l0 > 1_800 && l0 < 4_000, "mpich 0B latency {l0}ns");
    }

    #[test]
    fn large_message_bandwidth_band() {
        let len = 1 << 20;
        let ns = pingpong(len, 2);
        let mbps = len as f64 / (ns as f64 / 1e9) / 1e6;
        // Peak ≈ 900 MB/s (PCI-X bound).
        assert!(mbps > 700.0 && mbps < 1100.0, "mpich bandwidth {mbps} MB/s");
    }

    #[test]
    fn wildcard_recv_and_tags() {
        let cl = cluster();
        run_mpich(&cl, 3, MpichConfig::default(), |r| {
            if r.rank() == 0 {
                let buf = r.alloc(16);
                for _ in 0..2 {
                    r.recv(MPICH_ANY_SOURCE, MPICH_ANY_TAG, &buf);
                }
            } else {
                let buf = r.alloc(16);
                r.write(&buf, 0, &[r.rank() as u8; 16]);
                r.send(0, r.rank() as i64, &buf, 16);
            }
        });
    }

    #[test]
    fn eight_rank_ring() {
        let cl = cluster();
        run_mpich(&cl, 8, MpichConfig::default(), |r| {
            let n = r.size();
            let me = r.rank();
            let sbuf = r.alloc(512);
            let rbuf = r.alloc(512);
            r.write(&sbuf, 0, &pattern(512, me as u8));
            let rr = r.irecv(((me + n - 1) % n) as i32, 5, rbuf);
            r.send((me + 1) % n, 5, &sbuf, 512);
            r.wait(&rr);
            assert_eq!(
                r.read(&rbuf, 0, 512),
                pattern(512, ((me + n - 1) % n) as u8)
            );
        });
    }
}
