//! Tree-based collectives layered on point-to-point, as in the paper's
//! stack ("currently, collective communication is provided as a separated
//! component on top of point-to-point communication", §2.1).
//!
//! All collective traffic flows on the communicator's collective context so
//! it can never match application receives.

use std::rc::Rc;

use elan4::{EventId, NicReduce, Payload, QdmaSpec, Vpid};

use crate::comm::Communicator;
use crate::metrics::CollOp;
use crate::mpi::Mpi;

/// Reduction operators over typed byte buffers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise f64 sum.
    SumF64,
    /// Element-wise f64 max.
    MaxF64,
    /// Element-wise wrapping u64 sum.
    SumU64,
}

impl ReduceOp {
    /// `acc ⟵ acc ⊕ other`, element-wise.
    pub fn apply(&self, acc: &mut [u8], other: &[u8]) {
        assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::SumF64 => fold::<8>(acc, other, |a, b| {
                (f64::from_le_bytes(a) + f64::from_le_bytes(b)).to_le_bytes()
            }),
            ReduceOp::MaxF64 => fold::<8>(acc, other, |a, b| {
                f64::from_le_bytes(a)
                    .max(f64::from_le_bytes(b))
                    .to_le_bytes()
            }),
            ReduceOp::SumU64 => fold::<8>(acc, other, |a, b| {
                u64::from_le_bytes(a)
                    .wrapping_add(u64::from_le_bytes(b))
                    .to_le_bytes()
            }),
        }
    }
}

fn fold<const N: usize>(acc: &mut [u8], other: &[u8], f: impl Fn([u8; N], [u8; N]) -> [u8; N]) {
    assert_eq!(acc.len() % N, 0, "buffer not a whole number of elements");
    for (a, b) in acc.chunks_exact_mut(N).zip(other.chunks_exact(N)) {
        let r = f(a.try_into().unwrap(), b.try_into().unwrap());
        a.copy_from_slice(&r);
    }
}

const TAG_BARRIER: i32 = 1;
const TAG_BCAST: i32 = 2;
const TAG_REDUCE: i32 = 3;
const TAG_GATHER: i32 = 4;
const TAG_ALLTOALL: i32 = 5;
const TAG_BCAST_HW: i32 = 7;
const TAG_SCATTER: i32 = 8;

impl Mpi {
    /// Telemetry: one collective entered. Composed collectives (allreduce,
    /// reduce_scatter, …) also count the primitives they delegate to.
    fn coll_count(&self, op: CollOp) {
        self.endpoint()
            .metric(|m| m.counters.coll[op as usize] += 1);
    }

    /// Run one collective body with causal attribution: count it and, at
    /// the outermost nesting level, open a `coll` trace span whose id tags
    /// (via [`crate::endpoint::Endpoint::cur_coll`]) every message the
    /// collective posts, so a merged trace links fan-in/fan-out hops back
    /// to the operation. Composed collectives stay attributed to the outer
    /// operation: the inner primitive only adds its counter.
    fn with_coll<R>(&self, op: CollOp, f: impl FnOnce() -> R) -> R {
        self.coll_count(op);
        let cid = self.endpoint().coll_enter();
        if let Some(id) = cid {
            self.endpoint().trace(
                self.proc().now(),
                crate::trace::TraceEvent::SpanBegin {
                    id,
                    cat: "coll",
                    name: op.name(),
                },
            );
        }
        let out = f();
        if let Some(id) = cid {
            self.endpoint().trace(
                self.proc().now(),
                crate::trace::TraceEvent::SpanEnd {
                    id,
                    cat: "coll",
                    name: op.name(),
                },
            );
        }
        self.endpoint().coll_exit();
        out
    }

    /// Barrier: a NIC-resident event-tree program when the communicator is
    /// eligible for offload, otherwise a host-driven dissemination barrier
    /// (ceil(log2(n)) rounds).
    pub fn barrier(&self, comm: &Communicator) {
        self.with_coll(CollOp::Barrier, || {
            let c = comm.coll_plane();
            let n = c.size();
            if n <= 1 {
                return;
            }
            if self.endpoint().tunables.coll_nic_offload() {
                if self.nic_eligible(&c) {
                    let prog = self.nic_program(&c, NicCollKind::Barrier, None, 0);
                    return self.run_nic_barrier(&prog);
                }
                self.nic_fallback();
            }
            self.host_barrier(&c);
        })
    }

    /// Host-driven dissemination barrier over point-to-point, with tags
    /// drawn from `TAG_BARRIER * 1000 + round`.
    fn host_barrier(&self, c: &Communicator) {
        let n = c.size();
        let me = c.rank();
        let buf = self.alloc(1);
        let mut k = 1;
        let mut round = 0;
        while k < n {
            let to = (me + k) % n;
            let from = (me + n - k) % n;
            let tag = TAG_BARRIER * 1000 + round;
            let rr = self.irecv(c, from as i32, tag, &buf, 0);
            let sr = self.isend(c, to, tag, &buf, 0);
            self.wait(sr);
            self.wait(rr);
            k <<= 1;
            round += 1;
        }
        self.free(buf);
    }

    /// Broadcast `len` bytes of `buf` from `root`. Uses the Elan4 hardware
    /// broadcast when the communicator was created synchronously (the
    /// global-virtual-address-space gate of paper §4.1); otherwise a
    /// binomial tree over point-to-point.
    pub fn bcast(&self, comm: &Communicator, root: usize, buf: &elan4::HostBuf, len: usize) {
        let c = comm.coll_plane();
        let n = c.size();
        if n <= 1 {
            return;
        }
        if self.endpoint().tunables.coll_nic_offload() {
            if self.nic_eligible(&c) && len <= NIC_COLL_MAX {
                let prog = self.nic_program(&c, NicCollKind::Bcast, None, root);
                return self.with_coll(CollOp::Bcast, || {
                    self.run_nic_bcast(&c, &prog, root, buf, len)
                });
            }
            self.nic_fallback();
        }
        if c.hw_coll
            && self.endpoint().transports.elan_rails > 0
            && self.endpoint().tunables.coll_hw_bcast()
        {
            return self.bcast_hw(&c, root, buf, len);
        }
        self.with_coll(CollOp::Bcast, || {
            // Virtual rank with the root at 0.
            let vrank = (c.rank() + n - root) % n;
            let mut mask = 1usize;
            // Receive once from the parent...
            while mask < n {
                if vrank & mask != 0 {
                    let parent = (vrank - mask + root) % n;
                    self.recv(&c, parent as i32, TAG_BCAST, buf, len);
                    break;
                }
                mask <<= 1;
            }
            // ...then forward down the tree.
            mask >>= 1;
            while mask > 0 {
                if vrank + mask < n {
                    let child = (vrank + mask + root) % n;
                    self.send(&c, child, TAG_BCAST, buf, len);
                }
                mask >>= 1;
            }
        })
    }

    /// Hardware broadcast: the root chunks the payload into ≤1984-byte
    /// eager fragments, each delivered to every member with a single NIC
    /// injection; members receive them as ordinary matched messages.
    fn bcast_hw(&self, c: &Communicator, root: usize, buf: &elan4::HostBuf, len: usize) {
        self.with_coll(CollOp::BcastHw, || {
            const CHUNK: usize = crate::hdr::MAX_INLINE;
            let chunks = len.div_ceil(CHUNK).max(1);
            if c.rank() == root {
                for i in 0..chunks {
                    let off = i * CHUNK;
                    let take = (len - off).min(CHUNK);
                    let data = self.read(buf, off, take);
                    crate::proto::post_bcast_eager(
                        self.proc(),
                        self.endpoint(),
                        c,
                        TAG_BCAST_HW,
                        &data,
                    );
                }
            } else {
                for i in 0..chunks {
                    let off = i * CHUNK;
                    let take = (len - off).min(CHUNK);
                    let slot = buf.slice(off, take.max(1));
                    self.recv(c, root as i32, TAG_BCAST_HW, &slot, take);
                }
            }
        })
    }

    /// Scatter: block `i` of `send` (root only) lands in every rank `i`'s
    /// `recv` buffer.
    pub fn scatter(
        &self,
        comm: &Communicator,
        root: usize,
        send: Option<&elan4::HostBuf>,
        recv: &elan4::HostBuf,
        block: usize,
    ) {
        self.with_coll(CollOp::Scatter, || {
            let c = comm.coll_plane();
            let n = c.size();
            if c.rank() == root {
                let send = send.expect("root must supply a send buffer");
                assert!(send.len >= n * block, "scatter buffer too small");
                let own = self.read(send, root * block, block);
                self.write(recv, 0, &own);
                let reqs: Vec<_> = (0..n)
                    .filter(|&r| r != root)
                    .map(|r| {
                        let slot = send.slice(r * block, block);
                        self.isend(&c, r, TAG_SCATTER, &slot, block)
                    })
                    .collect();
                self.waitall(reqs);
            } else {
                self.recv(&c, root as i32, TAG_SCATTER, recv, block);
            }
        })
    }

    /// Broadcast a variable-length byte vector (length prefix + payload).
    pub fn bcast_bytes(&self, comm: &Communicator, root: usize, data: Vec<u8>) -> Vec<u8> {
        let c = comm.coll_plane();
        let lbuf = self.alloc(8);
        if c.rank() == root {
            self.write(&lbuf, 0, &(data.len() as u64).to_le_bytes());
        }
        self.bcast(comm, root, &lbuf, 8);
        let len = u64::from_le_bytes(self.read(&lbuf, 0, 8).try_into().unwrap()) as usize;
        self.free(lbuf);

        let buf = self.alloc(len.max(1));
        if c.rank() == root {
            self.write(&buf, 0, &data);
        }
        self.bcast(comm, root, &buf, len);
        let out = self.read(&buf, 0, len);
        self.free(buf);
        out
    }

    /// Binomial-tree reduction of `len` bytes to `root`. Every rank's `buf`
    /// holds its contribution; on the root it holds the result afterwards.
    pub fn reduce(
        &self,
        comm: &Communicator,
        root: usize,
        op: ReduceOp,
        buf: &elan4::HostBuf,
        len: usize,
    ) {
        self.with_coll(CollOp::Reduce, || {
            let c = comm.coll_plane();
            let n = c.size();
            if n <= 1 {
                return;
            }
            let vrank = (c.rank() + n - root) % n;
            let tmp = self.alloc(len.max(1));
            let mut mask = 1usize;
            while mask < n {
                if vrank & mask != 0 {
                    let parent = (vrank - mask + root) % n;
                    self.send(&c, parent, TAG_REDUCE, buf, len);
                    break;
                }
                if vrank + mask < n {
                    let child = (vrank + mask + root) % n;
                    self.recv(&c, child as i32, TAG_REDUCE, &tmp, len);
                    let mut acc = self.read(buf, 0, len);
                    let other = self.read(&tmp, 0, len);
                    op.apply(&mut acc, &other);
                    self.write(buf, 0, &acc);
                }
                mask <<= 1;
            }
            self.free(tmp);
        })
    }

    /// Reduce-to-all: a NIC-resident combining tree when eligible (the NIC
    /// reduces on the way up and broadcasts the result on the way down),
    /// otherwise reduce to rank 0 then broadcast.
    pub fn allreduce(&self, comm: &Communicator, op: ReduceOp, buf: &elan4::HostBuf, len: usize) {
        self.with_coll(CollOp::Allreduce, || {
            if self.endpoint().tunables.coll_nic_offload() {
                let c = comm.coll_plane();
                if self.nic_eligible(&c) && len <= NIC_COLL_MAX && len.is_multiple_of(8) {
                    if let Some(nic_op) = op.nic_reduce() {
                        let prog = self.nic_program(&c, NicCollKind::Allreduce, Some(nic_op), 0);
                        return self.run_nic_allreduce(&prog, buf, len);
                    }
                }
                self.nic_fallback();
            }
            self.reduce(comm, 0, op, buf, len);
            self.bcast(comm, 0, buf, len);
        })
    }

    /// Gather `len` bytes from every rank into `recv` (root only), ordered
    /// by rank.
    pub fn gather(
        &self,
        comm: &Communicator,
        root: usize,
        sbuf: &elan4::HostBuf,
        len: usize,
        recv: Option<&elan4::HostBuf>,
    ) {
        self.with_coll(CollOp::Gather, || {
            let c = comm.coll_plane();
            let n = c.size();
            if c.rank() == root {
                let recv = recv.expect("root must supply a receive buffer");
                assert!(recv.len >= n * len, "gather buffer too small");
                let data = self.read(sbuf, 0, len);
                self.write(recv, root * len, &data);
                let mut reqs = Vec::new();
                for r in 0..n {
                    if r == root {
                        continue;
                    }
                    let slot = recv.slice(r * len, len);
                    reqs.push(self.irecv(&c, r as i32, TAG_GATHER, &slot, len));
                }
                self.waitall(reqs);
            } else {
                self.send(&c, root, TAG_GATHER, sbuf, len);
            }
        })
    }

    /// All-gather via gather + broadcast.
    pub fn allgather(
        &self,
        comm: &Communicator,
        sbuf: &elan4::HostBuf,
        len: usize,
        recv: &elan4::HostBuf,
    ) {
        self.with_coll(CollOp::Allgather, || {
            self.gather(comm, 0, sbuf, len, Some(recv));
            self.bcast(comm, 0, recv, comm.size() * len);
        })
    }

    /// All-gather of small variable payloads (equal length per rank derived
    /// from `mine`), returned as a concatenated vector ordered by rank.
    pub fn allgather_bytes(&self, comm: &Communicator, mine: &[u8]) -> Vec<u8> {
        let n = comm.size();
        let len = mine.len();
        let sbuf = self.alloc(len.max(1));
        self.write(&sbuf, 0, mine);
        let rbuf = self.alloc((n * len).max(1));
        self.allgather(comm, &sbuf, len, &rbuf);
        let out = self.read(&rbuf, 0, n * len);
        self.free(sbuf);
        self.free(rbuf);
        out
    }

    /// Pairwise-exchange all-to-all: rank `r`'s block `i` of `send` goes to
    /// rank `i`'s block `r` of `recv`.
    pub fn alltoall(
        &self,
        comm: &Communicator,
        send: &elan4::HostBuf,
        recv: &elan4::HostBuf,
        block: usize,
    ) {
        self.with_coll(CollOp::Alltoall, || {
            let c = comm.coll_plane();
            let n = c.size();
            let me = c.rank();
            assert!(send.len >= n * block && recv.len >= n * block);
            // Local block.
            let own = self.read(send, me * block, block);
            self.write(recv, me * block, &own);
            // Exchange with every other rank, staggered to avoid hot spots.
            for step in 1..n {
                let to = (me + step) % n;
                let from = (me + n - step) % n;
                let sslice = send.slice(to * block, block);
                let rslice = recv.slice(from * block, block);
                let tag = TAG_ALLTOALL * 1000 + step as i32;
                let rr = self.irecv(&c, from as i32, tag, &rslice, block);
                let sr = self.isend(&c, to, tag, &sslice, block);
                self.wait(sr);
                self.wait(rr);
            }
        })
    }
}

const TAG_SCAN: i32 = 9;
const TAG_GATHERV: i32 = 10;

impl Mpi {
    /// Inclusive prefix reduction (MPI_Scan): rank `r` ends up with the
    /// reduction of ranks `0..=r`. Linear chain: receive from the left,
    /// fold, forward to the right.
    pub fn scan(&self, comm: &Communicator, op: ReduceOp, buf: &elan4::HostBuf, len: usize) {
        self.with_coll(CollOp::Scan, || {
            let c = comm.coll_plane();
            let n = c.size();
            let me = c.rank();
            if n <= 1 {
                return;
            }
            if me > 0 {
                let tmp = self.alloc(len.max(1));
                self.recv(&c, (me - 1) as i32, TAG_SCAN, &tmp, len);
                let mut acc = self.read(buf, 0, len);
                let left = self.read(&tmp, 0, len);
                op.apply(&mut acc, &left);
                self.write(buf, 0, &acc);
                self.free(tmp);
            }
            if me < n - 1 {
                self.send(&c, me + 1, TAG_SCAN, buf, len);
            }
        })
    }

    /// Reduce-scatter with equal blocks: element-wise reduction of every
    /// rank's `send` (length `n * block`), with block `i` of the result
    /// landing in rank `i`'s `recv`.
    pub fn reduce_scatter(
        &self,
        comm: &Communicator,
        op: ReduceOp,
        send: &elan4::HostBuf,
        recv: &elan4::HostBuf,
        block: usize,
    ) {
        self.with_coll(CollOp::ReduceScatter, || {
            let c = comm.coll_plane();
            let n = c.size();
            assert!(send.len >= n * block && recv.len >= block);
            // Reduce to rank 0, then scatter — simple and correct; a pairwise
            // exchange would halve the traffic but the collective layer is not
            // what the paper evaluates.
            let work = self.alloc((n * block).max(1));
            let data = self.read(send, 0, n * block);
            self.write(&work, 0, &data);
            self.reduce(comm, 0, op, &work, n * block);
            if c.rank() == 0 {
                self.scatter(comm, 0, Some(&work), recv, block);
            } else {
                self.scatter(comm, 0, None, recv, block);
            }
            self.free(work);
        })
    }

    /// Variable-length gather: each rank contributes `len` bytes; the root
    /// receives them ordered by rank, returned as (offsets, bytes).
    pub fn gatherv(
        &self,
        comm: &Communicator,
        root: usize,
        data: &[u8],
    ) -> Option<(Vec<usize>, Vec<u8>)> {
        self.with_coll(CollOp::Gatherv, || self.gatherv_inner(comm, root, data))
    }

    fn gatherv_inner(
        &self,
        comm: &Communicator,
        root: usize,
        data: &[u8],
    ) -> Option<(Vec<usize>, Vec<u8>)> {
        let c = comm.coll_plane();
        let n = c.size();
        // Gather the lengths first.
        let mut len_bytes = Vec::with_capacity(8);
        len_bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        let lbuf = self.alloc(8);
        self.write(&lbuf, 0, &len_bytes);
        let lens_buf = self.alloc(8 * n);
        self.gather(
            comm,
            root,
            &lbuf,
            8,
            (c.rank() == root).then_some(&lens_buf),
        );

        let result = if c.rank() == root {
            let lens: Vec<usize> = self
                .read(&lens_buf, 0, 8 * n)
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()) as usize)
                .collect();
            let mut offsets = Vec::with_capacity(n + 1);
            let mut total = 0;
            for l in &lens {
                offsets.push(total);
                total += l;
            }
            offsets.push(total);
            let mut out = vec![0u8; total];
            out[offsets[root]..offsets[root] + data.len()].copy_from_slice(data);
            // Receive each rank's payload into its slot.
            let mut reqs = Vec::new();
            let mut bufs = Vec::new();
            for (r, len) in lens.iter().enumerate() {
                if r == root || *len == 0 {
                    continue;
                }
                let b = self.alloc(*len);
                reqs.push((r, self.irecv(&c, r as i32, TAG_GATHERV, &b, *len)));
                bufs.push((r, b));
            }
            for (_, req) in &reqs {
                self.wait(*req);
            }
            for (r, b) in &bufs {
                let bytes = self.read(b, 0, lens[*r]);
                out[offsets[*r]..offsets[*r] + lens[*r]].copy_from_slice(&bytes);
                self.free(*b);
            }
            Some((offsets, out))
        } else {
            if !data.is_empty() {
                let b = self.alloc(data.len());
                self.write(&b, 0, data);
                self.send(&c, root, TAG_GATHERV, &b, data.len());
                self.free(b);
            }
            None
        };
        self.free(lbuf);
        self.free(lens_buf);
        result
    }
}

const TAG_ALLTOALLV: i32 = 11;

impl Mpi {
    /// Variable-count all-to-all: `sends[i]` goes to rank `i`; returns the
    /// vector received from each rank, in rank order. Lengths need not be
    /// agreed beforehand — receivers probe for them.
    pub fn alltoallv(&self, comm: &Communicator, sends: &[Vec<u8>]) -> Vec<Vec<u8>> {
        self.with_coll(CollOp::Alltoallv, || self.alltoallv_inner(comm, sends))
    }

    fn alltoallv_inner(&self, comm: &Communicator, sends: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let c = comm.coll_plane();
        let n = c.size();
        let me = c.rank();
        assert_eq!(sends.len(), n, "one send vector per rank");

        let mut reqs = Vec::new();
        let mut bufs = Vec::new();
        for (d, data) in sends.iter().enumerate() {
            if d == me {
                continue;
            }
            let b = self.alloc(data.len().max(1));
            self.write(&b, 0, data);
            reqs.push(self.isend(&c, d, TAG_ALLTOALLV, &b, data.len()));
            bufs.push(b);
        }

        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = sends[me].clone();
        for _ in 0..n - 1 {
            let st = self.probe(&c, crate::mpi::ANY_SOURCE, TAG_ALLTOALLV);
            let b = self.alloc(st.len.max(1));
            self.recv(&c, st.source as i32, TAG_ALLTOALLV, &b, st.len);
            out[st.source] = self.read(&b, 0, st.len);
            self.free(b);
        }
        self.waitall(reqs);
        for b in bufs {
            self.free(b);
        }
        out
    }
}

/// Setup tag for the NIC-program event-id exchange.
const TAG_NICPROG: i32 = 12;
/// Setup tag for the readiness fan-in that closes NIC-program setup.
const TAG_NICPROG_SYNC: i32 = 13;

/// NIC payloads ride in single event-write QDMAs, so an offloaded bcast or
/// allreduce frame is capped at the QDMA limit.
const NIC_COLL_MAX: usize = 2048;

impl ReduceOp {
    /// The NIC-side reduction implementing this operator, if the NIC thread
    /// processor supports it. Only commutative/associative 64-bit-lane ops
    /// qualify; anything else keeps the collective on the host path.
    fn nic_reduce(&self) -> Option<NicReduce> {
        match self {
            ReduceOp::SumF64 => Some(NicReduce::SumF64),
            ReduceOp::MaxF64 => Some(NicReduce::MaxF64),
            ReduceOp::SumU64 => Some(NicReduce::SumU64),
        }
    }
}

/// Which collective a NIC-resident event program implements.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum NicCollKind {
    /// Pure synchronization: empty payloads up and down the tree.
    Barrier,
    /// Root seeds its children's down events; the up tree stays dormant.
    Bcast,
    /// Combining tree: partials reduce on the way up, the result fans out
    /// on the way down.
    Allreduce,
}

impl NicCollKind {
    fn name(&self) -> &'static str {
        match self {
            NicCollKind::Barrier => "barrier",
            NicCollKind::Bcast => "bcast",
            NicCollKind::Allreduce => "allreduce",
        }
    }
}

/// Cache key for one compiled NIC program. Payload length is deliberately
/// absent: the event wiring is payload-agnostic, so one program serves every
/// message size a communicator throws at it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProgKey {
    /// The communicator's collective context id.
    pub coll_ctx: u32,
    /// Which collective the program implements.
    pub kind: NicCollKind,
    /// NIC reduction (allreduce programs only).
    pub op: Option<NicReduce>,
    /// Tree fan-out the program was compiled for.
    pub radix: usize,
    /// Root rank the tree is rotated around.
    pub root: usize,
}

/// One rank's slice of a compiled NIC collective program: two counted
/// events whose chains encode the tree, armed once and reused for every
/// subsequent call (auto-reset re-arms the counts on the NIC).
pub struct NicProgram {
    /// Trace identity (unique per rank).
    prog_id: u64,
    /// Fan-in event: children's arrivals plus this rank's own entry. Fires
    /// when the whole subtree has entered; carries the combined payload.
    up: elan4::ElanEvent,
    /// Fan-out event: one arrival from the parent releases this rank and
    /// forwards the payload to its children.
    down: elan4::ElanEvent,
    /// The one signal this rank's host sleeps on, set on the event it
    /// waits for: `up` at the root, `down` elsewhere.
    sig: qsim::Signal,
    /// This rank's position in virtual-rank space (root at 0).
    vr: usize,
    /// Direct children as (vpid, down-event id) — the bcast root seeds
    /// these directly with QDMAs.
    children: Vec<(Vpid, EventId)>,
}

impl Mpi {
    /// Structural eligibility for NIC offload: a synchronously-created
    /// group (shared virtual address space, like the hardware broadcast
    /// gate of paper §4.1), an Elan rail to run on, and a non-trivial
    /// group. Per-call payload limits are checked at the call sites.
    ///
    /// Every input is the same on every member, so the decision is too,
    /// and no rank can block in a setup exchange its peers skip: a
    /// `hw_coll` communicator holds ranks of one launched job, and every
    /// rank of a job starts with the universe's transports.
    fn nic_eligible(&self, c: &Communicator) -> bool {
        c.hw_coll && self.endpoint().transports.elan_rails > 0 && c.size() > 1
    }

    /// Telemetry: offload was requested (`coll.nic_offload` on) but this
    /// call ran on the host path instead.
    fn nic_fallback(&self) {
        self.endpoint()
            .metric(|m| m.counters.coll_nic_fallbacks += 1);
    }

    /// Look up (or compile) the NIC program for `key` on an eligible
    /// communicator. Every member must call this with the same arguments —
    /// compilation performs a setup exchange — which holds because all
    /// inputs (cvars, group shape) are job-uniform.
    fn nic_program(
        &self,
        c: &Communicator,
        kind: NicCollKind,
        op: Option<NicReduce>,
        root: usize,
    ) -> Rc<NicProgram> {
        let ep = self.endpoint();
        let radix = ep.tunables.coll_tree_radix();
        let key = ProgKey {
            coll_ctx: c.ctx,
            kind,
            op,
            radix,
            root,
        };
        if let Some(prog) = ep.nic_progs.lock().get(&key) {
            return prog.clone();
        }
        let prog = self.build_nic_program(c, kind, op, radix, root);
        ep.nic_progs.lock().insert(key, prog.clone());
        prog
    }

    /// Compile one rank's slice of a NIC collective program: create the up
    /// and down events, swap event ids with the tree parent and children,
    /// arm the chains that encode a radix-`radix` tree rotated around
    /// `root`, and report readiness up the same tree. Setup traffic runs
    /// over the program's own edges only, so its cost grows with the
    /// tree's depth and fan-out, not with the group.
    ///
    /// Only the root waits for the whole tree to be armed. That is enough:
    /// a barrier or allreduce `up` event counts the rank's own entry, so no
    /// fan-in completes — and no `down` event is fed — before every rank
    /// has left setup; a bcast root seeds its children's `down` events
    /// directly, and it leaves setup last.
    fn build_nic_program(
        &self,
        c: &Communicator,
        kind: NicCollKind,
        op: Option<NicReduce>,
        radix: usize,
        root: usize,
    ) -> Rc<NicProgram> {
        let ep = self.endpoint();
        let n = c.size();
        let me = c.rank();
        let vr = (me + n - root) % n;
        let to_rank = |v: usize| (v + root) % n;
        let parent = (vr > 0).then(|| to_rank((vr - 1) / radix));
        let child_ranks: Vec<usize> = (1..=radix)
            .map(|i| radix * vr + i)
            .filter(|&cv| cv < n)
            .map(to_rank)
            .collect();
        let nchildren = child_ranks.len();

        // Fan-in: every child's arrival plus this rank's own entry; the
        // auto-reset re-arms the count on the NIC so the program survives
        // back-to-back calls without a host round-trip.
        let up = ep.ectx.event_create((nchildren + 1) as u32);
        up.set_auto_reset((nchildren + 1) as u32);
        if let Some(o) = op {
            up.set_combine(o);
        }
        let down = ep.ectx.event_create(1);
        down.set_auto_reset(1);
        // The host waits on one event, through one signal for the
        // program's life; only that event queues fire payloads for the
        // host, and only when the collective returns one.
        let sig = self.proc().signal();
        let waited = if parent.is_some() { &down } else { &up };
        waited.set_signal(sig.clone());
        waited.set_capture(kind != NicCollKind::Barrier);

        // Each tree edge carries one 8-byte (up, down) id pair each way.
        // Raw tagged point-to-point: this runs underneath the collectives,
        // so it must not call one.
        let neighbours: Vec<usize> = parent
            .into_iter()
            .chain(child_ranks.iter().copied())
            .collect();
        let mine = self.alloc(8);
        self.write(
            &mine,
            0,
            &[up.id().0.to_le_bytes(), down.id().0.to_le_bytes()].concat(),
        );
        let theirs = self.alloc(8 * neighbours.len());
        let reqs: Vec<_> = neighbours
            .iter()
            .map(|&r| self.isend(c, r, TAG_NICPROG, &mine, 8))
            .collect();
        for (i, &r) in neighbours.iter().enumerate() {
            self.recv(c, r as i32, TAG_NICPROG, &theirs.slice(8 * i, 8), 8);
        }
        self.waitall(reqs);
        let ids = self.read(&theirs, 0, 8 * neighbours.len());
        self.free(mine);
        self.free(theirs);

        // (vpid, up id, down id) per neighbour, parent first.
        let wiring: Vec<(Vpid, EventId, EventId)> = {
            let mut st = ep.state.lock();
            neighbours
                .iter()
                .zip(ids.chunks_exact(8))
                .map(|(&r, pair)| {
                    let vpid = st
                        .peer(&c.group[r])
                        .and_then(|p| p.elan)
                        .expect("NIC-program neighbour without Elan addressing")
                        .vpid;
                    let id = |at: usize| {
                        EventId(u32::from_le_bytes(pair[at..at + 4].try_into().unwrap()))
                    };
                    (vpid, id(0), id(4))
                })
                .collect()
        };
        let (to_parent, to_children) = wiring.split_at(parent.is_some() as usize);
        let children: Vec<(Vpid, EventId)> = to_children
            .iter()
            .map(|&(vpid, _, child_down)| (vpid, child_down))
            .collect();

        let rail = 0;
        if let Some(&(vpid, parent_up, _)) = to_parent.first() {
            up.chain_qdma(QdmaSpec::forward_to_event(vpid, parent_up, rail));
            for &(vpid, child_down) in &children {
                down.chain_qdma(QdmaSpec::forward_to_event(vpid, child_down, rail));
            }
        } else {
            // The root's fan-in completing IS the collective completing;
            // its chains launch the fan-out phase directly.
            for &(vpid, child_down) in &children {
                up.chain_qdma(QdmaSpec::forward_to_event(vpid, child_down, rail));
            }
        }

        // Readiness fan-in up the same tree: once this rank's chains are
        // armed, a 0-byte token from each child, then one to the parent.
        let token = self.alloc(1);
        for &r in &child_ranks {
            self.recv(c, r as i32, TAG_NICPROG_SYNC, &token, 0);
        }
        if let Some(p) = parent {
            self.send(c, p, TAG_NICPROG_SYNC, &token, 0);
        }
        self.free(token);

        let prog_id = ((c.ctx as u64) << 32) | up.id().0 as u64;
        ep.metric(|m| m.counters.coll_nic_programs += 1);
        ep.trace(
            self.proc().now(),
            crate::trace::TraceEvent::NicProgArmed {
                prog: prog_id,
                kind: kind.name(),
                radix,
                members: n,
            },
        );
        Rc::new(NicProgram {
            prog_id,
            up,
            down,
            sig,
            vr,
            children,
        })
    }

    /// Block until the event this rank waits on fires (`up` at the root,
    /// `down` elsewhere) and return it: the single host wakeup of an
    /// offloaded collective. Every inter-rank hop of the program is
    /// NIC-to-NIC, so nothing here needs the host progress engine —
    /// sleeping on the event signal cannot deadlock.
    fn wait_nic_event<'p>(&self, prog: &'p NicProgram) -> &'p elan4::ElanEvent {
        let proc = self.proc();
        let ev = if prog.vr == 0 { &prog.up } else { &prog.down };
        // A fire since the last wait latched the signal; the event word is
        // what counts, so drop the stale notification rather than pay a
        // second poll for it.
        prog.sig.clear();
        loop {
            if ev.take_fired(proc) {
                break;
            }
            match proc.wait(&prog.sig) {
                qsim::Wait::Signaled => {}
                qsim::Wait::Shutdown => panic!("simulation shut down inside a NIC collective"),
            }
        }
        if prog.vr != 0 {
            // A non-root rank's own fan-in fired on the NIC to forward its
            // partials upward; by the time `down` released the host that
            // fire has long latched. A bcast leaves `up` dormant.
            let _ = prog.up.take_fired_ready();
        }
        ev
    }

    fn nic_coll_complete(&self, prog: &NicProgram, kind: NicCollKind) {
        let ep = self.endpoint();
        ep.metric(|m| m.counters.coll_nic_offloaded += 1);
        ep.trace(
            self.proc().now(),
            crate::trace::TraceEvent::NicCollComplete {
                prog: prog.prog_id,
                coll: ep.cur_coll(),
                kind: kind.name(),
            },
        );
    }

    /// Enter an armed barrier program: one PIO store, then sleep until the
    /// tree has drained back down to this rank.
    fn run_nic_barrier(&self, prog: &NicProgram) {
        let ep = self.endpoint();
        ep.ectx.set_event(self.proc(), &prog.up, None);
        self.wait_nic_event(prog);
        self.nic_coll_complete(prog, NicCollKind::Barrier);
    }

    /// Broadcast through an armed program: the root QDMAs the frame into
    /// each direct child's down event and returns (fire-and-forget, like
    /// the eager send it replaces); descendants relay NIC-to-NIC. Payloads
    /// queue in fire order at each hop, so back-to-back broadcasts from a
    /// non-blocking root pipeline safely.
    fn run_nic_bcast(
        &self,
        c: &Communicator,
        prog: &NicProgram,
        root: usize,
        buf: &elan4::HostBuf,
        len: usize,
    ) {
        let ep = self.endpoint();
        if c.rank() == root {
            // One staged buffer, shared by the QDMA to every child.
            let data = Payload::Shared(Rc::new(self.read(buf, 0, len)));
            for &(vpid, ev) in &prog.children {
                ep.ectx
                    .qdma_to_event(self.proc(), 0, vpid, ev, data.clone());
            }
        } else {
            let out = self.wait_nic_event(prog).take_payload();
            assert_eq!(out.len(), len, "NIC bcast payload length mismatch");
            self.write(buf, 0, &out);
        }
        self.nic_coll_complete(prog, NicCollKind::Bcast);
    }

    /// Allreduce through an armed combining-tree program: enter with this
    /// rank's contribution (the NIC folds it into the fan-in event), sleep,
    /// and read the full reduction from the event that released us.
    fn run_nic_allreduce(&self, prog: &NicProgram, buf: &elan4::HostBuf, len: usize) {
        let ep = self.endpoint();
        let data = self.read(buf, 0, len);
        ep.ectx.set_event(self.proc(), &prog.up, Some(data));
        let result = self.wait_nic_event(prog).take_payload();
        assert_eq!(result.len(), len, "NIC allreduce payload length mismatch");
        self.write(buf, 0, &result);
        self.nic_coll_complete(prog, NicCollKind::Allreduce);
    }
}
