//! The user-facing MPI-flavoured API.
//!
//! Each rank's entry closure receives an [`Mpi`] handle wrapping its
//! simulated process, endpoint, and `MPI_COMM_WORLD`. The API follows MPI-2
//! semantics where the paper depends on them: tag/source wildcards, ordered
//! matching, nonblocking requests, communicator creation, and dynamic
//! process management (`spawn`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use elan4::HostBuf;
use ompi_datatype::{Convertor, Datatype};
use ompi_rte::{JobId, ProcName};
use qsim::{Dur, Proc, Time};

use crate::comm::{register_comm, Communicator};
use crate::endpoint::Endpoint;
use crate::proto::{self, ReqKind, Request};
use crate::universe::Universe;

/// MPI_ANY_SOURCE for the `src` argument of receives.
pub const ANY_SOURCE: i32 = -1;
/// MPI_ANY_TAG for the `tag` argument of receives.
pub const ANY_TAG: i32 = -1;

/// Completion information of a receive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Status {
    /// Sender's rank within the communicator.
    pub source: usize,
    /// Matched tag.
    pub tag: i32,
    /// Packed message length in bytes.
    pub len: usize,
    /// `Some` when the stack completed the receive with an error instead
    /// of a payload (MPI_ERR_IN_STATUS semantics). The other fields are
    /// then best-effort: the request's selectors if it never matched.
    pub error: Option<crate::state::MpiErrClass>,
}

/// Per-rank MPI handle. Owned by the rank's simulated process.
pub struct Mpi {
    proc: Proc,
    ep: Rc<Endpoint>,
    universe: Rc<Universe>,
    world: Communicator,
    parent: RefCell<Option<Option<Communicator>>>,
    finalized: Cell<bool>,
}

impl Mpi {
    pub(crate) fn new(
        proc: Proc,
        ep: Rc<Endpoint>,
        universe: Rc<Universe>,
        world: Communicator,
    ) -> Mpi {
        Mpi {
            proc,
            ep,
            universe,
            world,
            parent: RefCell::new(None),
            finalized: Cell::new(false),
        }
    }

    // ---- identity --------------------------------------------------------

    /// This rank's `MPI_COMM_WORLD`.
    pub fn world(&self) -> Communicator {
        self.world.clone()
    }

    /// Rank within the world.
    pub fn rank(&self) -> usize {
        self.world.my_rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// This process's global name.
    pub fn name(&self) -> ProcName {
        self.ep.name
    }

    /// The job this process belongs to.
    pub fn job(&self) -> JobId {
        self.ep.name.job
    }

    /// The underlying simulated process.
    pub fn proc(&self) -> &Proc {
        &self.proc
    }

    /// The communication endpoint (for stats and instrumentation).
    pub fn endpoint(&self) -> &Rc<Endpoint> {
        &self.ep
    }

    /// The shared machine/configuration.
    pub fn universe(&self) -> &Rc<Universe> {
        &self.universe
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.proc.now()
    }

    /// Model local computation.
    pub fn compute(&self, d: Dur) {
        self.proc.advance(d);
    }

    // ---- memory ------------------------------------------------------------

    /// Allocate host memory on this rank's node.
    pub fn alloc(&self, len: usize) -> HostBuf {
        self.ep.alloc(len)
    }

    /// Free a buffer.
    pub fn free(&self, buf: HostBuf) {
        self.ep.free(buf);
    }

    /// Untimed host store into a buffer.
    pub fn write(&self, buf: &HostBuf, off: usize, data: &[u8]) {
        self.ep.write_buf(buf, off, data);
    }

    /// Untimed host load from a buffer.
    pub fn read(&self, buf: &HostBuf, off: usize, len: usize) -> Vec<u8> {
        self.ep.read_buf(buf, off, len)
    }

    // ---- point-to-point ----------------------------------------------------

    /// Nonblocking typed send.
    pub fn isend_typed(
        &self,
        comm: &Communicator,
        dst: usize,
        tag: i32,
        buf: &HostBuf,
        conv: Convertor,
    ) -> Request {
        assert!(tag >= 0, "application tags must be non-negative");
        assert!(dst < comm.size(), "destination rank out of range");
        proto::post_send(&self.proc, &self.ep, comm, dst, tag, *buf, conv)
    }

    /// Nonblocking contiguous-bytes send of `len` bytes from `buf`.
    pub fn isend(
        &self,
        comm: &Communicator,
        dst: usize,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Request {
        assert!(len <= buf.len);
        self.isend_typed(comm, dst, tag, buf, Convertor::new(Datatype::bytes(len), 1))
    }

    /// Nonblocking typed receive. `src` may be [`ANY_SOURCE`], `tag` may be
    /// [`ANY_TAG`].
    pub fn irecv_typed(
        &self,
        comm: &Communicator,
        src: i32,
        tag: i32,
        buf: &HostBuf,
        conv: Convertor,
    ) -> Request {
        let src_sel = (src != ANY_SOURCE).then(|| {
            assert!((src as usize) < comm.size(), "source rank out of range");
            src as u32
        });
        let tag_sel = (tag != ANY_TAG).then(|| {
            assert!(tag >= 0, "application tags must be non-negative");
            tag
        });
        proto::post_recv(&self.proc, &self.ep, comm, src_sel, tag_sel, *buf, conv)
    }

    /// Nonblocking synchronous send (MPI_Issend): completion guarantees the
    /// receiver matched the message. Implemented by forcing the rendezvous
    /// path, whose FIN_ACK/ACK only comes back after a match (paper Figs.
    /// 3-4).
    pub fn issend(
        &self,
        comm: &Communicator,
        dst: usize,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Request {
        assert!(tag >= 0 && dst < comm.size() && len <= buf.len);
        proto::post_send_mode(
            &self.proc,
            &self.ep,
            comm,
            dst,
            tag,
            *buf,
            Convertor::new(Datatype::bytes(len), 1),
            true,
        )
    }

    /// Blocking synchronous send (MPI_Ssend).
    pub fn ssend(&self, comm: &Communicator, dst: usize, tag: i32, buf: &HostBuf, len: usize) {
        let r = self.issend(comm, dst, tag, buf, len);
        self.wait(r);
    }

    /// Nonblocking contiguous-bytes receive of up to `len` bytes.
    pub fn irecv(
        &self,
        comm: &Communicator,
        src: i32,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Request {
        assert!(len <= buf.len);
        self.irecv_typed(comm, src, tag, buf, Convertor::new(Datatype::bytes(len), 1))
    }

    /// Block until a request completes.
    pub fn wait(&self, req: Request) {
        proto::wait(&self.proc, &self.ep, req);
    }

    /// Block until a request completes; returns `Err` with the MPI error
    /// class when the stack completed it unsuccessfully (unreachable peer,
    /// retransmissions exhausted) instead of delivering the data. The
    /// request is reaped either way.
    pub fn wait_result(&self, req: Request) -> Result<(), crate::state::MpiErrClass> {
        match proto::wait(&self.proc, &self.ep, req) {
            Some(e) => {
                self.ep.metric(|m| m.counters.errs_surfaced += 1);
                Err(e)
            }
            None => Ok(()),
        }
    }

    /// Block until a receive completes; returns its status. A receive the
    /// stack completed with an error (unreachable peer, retransmissions
    /// exhausted) yields a status whose `error` field is set instead of a
    /// panic; check it before trusting the payload.
    pub fn wait_status(&self, req: Request) -> Status {
        assert_eq!(req.kind, ReqKind::Recv, "wait_status is for receives");
        self.ep
            .wait_until(&self.proc, |st| proto::req_done(st, req));
        let r = self
            .ep
            .state
            .lock()
            .reqs
            .remove(&req.id)
            .expect("request already reaped");
        let error = r.phase.error();
        if error.is_some() {
            self.ep.metric(|m| m.counters.errs_surfaced += 1);
        }
        match (r.envelope, r.recv) {
            (Some(env), _) => Status {
                source: env.rank as usize,
                tag: env.tag,
                len: env.len,
                error,
            },
            // Failed before matching: fall back to the request's selectors
            // (0 / ANY_TAG when wildcarded) so the caller still gets a
            // well-formed status around the error class.
            (None, sel) => Status {
                source: sel.as_ref().and_then(|s| s.src_sel).unwrap_or(0) as usize,
                tag: sel.and_then(|s| s.tag_sel).unwrap_or(ANY_TAG),
                len: r.bytes_done,
                error,
            },
        }
    }

    /// Nonblocking completion test. A `true` return reaps the request (MPI
    /// semantics): do not wait on it again.
    pub fn test(&self, req: Request) -> bool {
        proto::test(&self.proc, &self.ep, req)
    }

    /// Fail a live request in place, taking the same teardown a NACK or an
    /// internal protocol error would (mid-pipeline chunk mappings included).
    /// Fault-path test hook, not part of the MPI surface: the peer is not
    /// notified, so the test must degrade both ends itself.
    #[doc(hidden)]
    pub fn abort_request(&self, req: Request, err: crate::state::MpiErrClass) {
        proto::fail_request(&self.proc, &self.ep, req.id, err);
    }

    /// Wait for every request in order. Request errors are dropped, as with
    /// MPI_STATUSES_IGNORE; use [`Mpi::waitall_result`] to observe them.
    pub fn waitall(&self, reqs: impl IntoIterator<Item = Request>) {
        for r in reqs {
            self.wait(r);
        }
    }

    /// Wait for every request in order, surfacing per-request errors the
    /// way MPI_ERR_IN_STATUS does: `Err` carries one entry per request (in
    /// posting order) with the error class of each failed one.
    pub fn waitall_result(
        &self,
        reqs: impl IntoIterator<Item = Request>,
    ) -> Result<(), Vec<Option<crate::state::MpiErrClass>>> {
        let mut errs = Vec::new();
        let mut failed = false;
        for r in reqs {
            let e = self.wait_result(r).err();
            failed |= e.is_some();
            errs.push(e);
        }
        if failed {
            Err(errs)
        } else {
            Ok(())
        }
    }

    /// Block until any request in the slice completes; returns its index
    /// (and reaps that request — the others stay pending). Drops the
    /// completed request's error, as with MPI_STATUS_IGNORE; use
    /// [`Mpi::waitany_result`] to observe it.
    pub fn waitany(&self, reqs: &[Request]) -> usize {
        proto::waitany(&self.proc, &self.ep, reqs)
    }

    /// Like [`Mpi::waitany`], but also reports whether the completed
    /// request finished with an error.
    pub fn waitany_result(
        &self,
        reqs: &[Request],
    ) -> (usize, Result<(), crate::state::MpiErrClass>) {
        let (idx, err) = proto::waitany_result(&self.proc, &self.ep, reqs);
        match err {
            Some(e) => {
                self.ep.metric(|m| m.counters.errs_surfaced += 1);
                (idx, Err(e))
            }
            None => (idx, Ok(())),
        }
    }

    /// Blocking send.
    pub fn send(&self, comm: &Communicator, dst: usize, tag: i32, buf: &HostBuf, len: usize) {
        let r = self.isend(comm, dst, tag, buf, len);
        self.wait(r);
    }

    /// Blocking receive; returns the match status.
    pub fn recv(
        &self,
        comm: &Communicator,
        src: i32,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> Status {
        let r = self.irecv(comm, src, tag, buf, len);
        self.wait_status(r)
    }

    /// Combined send+receive (deadlock-free exchange).
    #[expect(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        comm: &Communicator,
        dst: usize,
        stag: i32,
        sbuf: &HostBuf,
        slen: usize,
        src: i32,
        rtag: i32,
        rbuf: &HostBuf,
        rlen: usize,
    ) -> Status {
        let rr = self.irecv(comm, src, rtag, rbuf, rlen);
        let sr = self.isend(comm, dst, stag, sbuf, slen);
        self.wait(sr);
        self.wait_status(rr)
    }

    /// Nonblocking probe: is a matching message available? Returns its
    /// status without consuming it.
    pub fn iprobe(&self, comm: &Communicator, src: i32, tag: i32) -> Option<Status> {
        let (src_sel, tag_sel) = probe_selectors(comm, src, tag);
        proto::progress_pass(&self.proc, &self.ep);
        self.ep
            .state
            .lock()
            .peek_unexpected(comm.ctx, src_sel, tag_sel)
            .map(|(s, t, l)| Status {
                source: s as usize,
                tag: t,
                len: l,
                error: None,
            })
    }

    /// Blocking probe: wait until a matching message is available.
    pub fn probe(&self, comm: &Communicator, src: i32, tag: i32) -> Status {
        let (src_sel, tag_sel) = probe_selectors(comm, src, tag);
        let ctx = comm.ctx;
        let mut found = None;
        self.ep.wait_until(&self.proc, |st| {
            found = st.peek_unexpected(ctx, src_sel, tag_sel);
            found.is_some()
        });
        let (s, t, l) = found.unwrap();
        Status {
            source: s as usize,
            tag: t,
            len: l,
            error: None,
        }
    }

    // ---- communicator management -------------------------------------------

    /// Duplicate a communicator (fresh contexts, same group).
    pub fn comm_dup(&self, comm: &Communicator) -> Communicator {
        // Rank 0 allocates the context pair and broadcasts it.
        let mut ctxs = [0u32; 2];
        if comm.my_rank == 0 {
            let (a, b) = self.universe.alloc_ctx_pair();
            ctxs = [a, b];
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ctxs[0].to_le_bytes());
        bytes.extend_from_slice(&ctxs[1].to_le_bytes());
        let bytes = self.bcast_bytes(comm, 0, bytes);
        let dup = Communicator {
            ctx: u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
            coll_ctx: u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            group: comm.group.clone(),
            my_rank: comm.my_rank,
            hw_coll: comm.hw_coll,
        };
        register_comm(&self.proc, &self.ep, &dup);
        self.barrier(comm);
        dup
    }

    /// Split `comm` by color (negative = do not participate). Returns the
    /// new communicator for this rank's color.
    pub fn comm_split(&self, comm: &Communicator, color: i32, key: i32) -> Option<Communicator> {
        // Gather everyone's (color, key).
        let mut mine = Vec::new();
        mine.extend_from_slice(&color.to_le_bytes());
        mine.extend_from_slice(&key.to_le_bytes());
        let all = self.allgather_bytes(comm, &mine);
        let pairs: Vec<(i32, i32)> = all
            .chunks_exact(8)
            .map(|c| {
                (
                    i32::from_le_bytes(c[0..4].try_into().unwrap()),
                    i32::from_le_bytes(c[4..8].try_into().unwrap()),
                )
            })
            .collect();

        // Distinct non-negative colors, sorted: rank 0 allocates a context
        // pair for each and broadcasts the table.
        let mut colors: Vec<i32> = pairs.iter().map(|p| p.0).filter(|c| *c >= 0).collect();
        colors.sort_unstable();
        colors.dedup();
        let mut table = Vec::new();
        if comm.my_rank == 0 {
            for c in &colors {
                let (a, b) = self.universe.alloc_ctx_pair();
                table.extend_from_slice(&c.to_le_bytes());
                table.extend_from_slice(&a.to_le_bytes());
                table.extend_from_slice(&b.to_le_bytes());
            }
        } else {
            table = vec![0u8; colors.len() * 12];
        }
        let table = self.bcast_bytes(comm, 0, table);

        self.barrier(comm);
        if color < 0 {
            return None;
        }
        let (ctx, coll_ctx) = table
            .chunks_exact(12)
            .find_map(|c| {
                let col = i32::from_le_bytes(c[0..4].try_into().unwrap());
                (col == color).then(|| {
                    (
                        u32::from_le_bytes(c[4..8].try_into().unwrap()),
                        u32::from_le_bytes(c[8..12].try_into().unwrap()),
                    )
                })
            })
            .expect("own color missing from split table");

        // Members of my color, ordered by (key, old rank).
        let mut members: Vec<(i32, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.0 == color)
            .map(|(r, p)| (p.1, r))
            .collect();
        members.sort_unstable();
        let group: Rc<[ProcName]> = members.iter().map(|(_, r)| comm.group[*r]).collect();
        let my_rank = members
            .iter()
            .position(|(_, r)| *r == comm.my_rank)
            .unwrap();
        let new = Communicator {
            ctx,
            coll_ctx,
            group,
            my_rank,
            // A split group did not initialize synchronously as one unit;
            // no global address space, no hardware broadcast (paper §4.1).
            hw_coll: false,
        };
        register_comm(&self.proc, &self.ep, &new);
        Some(new)
    }

    /// Release a communicator's matching state (MPI_Comm_free). Collective:
    /// all members must call it, and no traffic may be pending on it.
    pub fn comm_free(&self, comm: Communicator) {
        self.barrier(&comm);
        let mut st = self.ep.state.lock();
        for ctx in [comm.ctx, comm.coll_ctx] {
            if let Some(c) = st.comms.remove(&ctx) {
                assert!(
                    c.unexpected.is_empty() && c.posted.is_empty(),
                    "comm_free with pending traffic on ctx {ctx}"
                );
            }
        }
    }

    // ---- dynamic process management (MPI-2) ----------------------------------

    /// Spawn `count` new MPI processes running `entry` on the given nodes
    /// (paper §4.1: processes join the Quadrics network dynamically, claiming
    /// contexts from the system-wide capability at any time). Returns the
    /// merged parent+children communicator: this rank is rank 0, child `i`
    /// is rank `i + 1`.
    pub fn spawn(
        &self,
        count: usize,
        nodes: &[usize],
        entry: impl Fn(Mpi) + 'static,
    ) -> Communicator {
        assert_eq!(nodes.len(), count);
        let uni = self.universe.clone();
        let child_job = uni.rte.create_job(count, Some(self.ep.name));
        let (ictx, icoll) = uni.alloc_ctx_pair();
        let (wctx, wcoll) = uni.alloc_ctx_pair();

        // Publish the context ids where the children can find them.
        let mut blob = Vec::new();
        for v in [ictx, icoll, wctx, wcoll] {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        uni.rte.modex_put(
            &self.proc,
            self.ep.name,
            &format!("spawn-{}", child_job.0),
            blob,
        );

        // The children's world and the parent-plus-children list, built
        // once and shared by every child.
        let world_group: Rc<[ProcName]> = (0..count)
            .map(|rank| ProcName {
                job: child_job,
                rank,
            })
            .collect();
        let inter = Communicator {
            ctx: ictx,
            coll_ctx: icoll,
            group: std::iter::once(self.ep.name)
                .chain(world_group.iter().copied())
                .collect(),
            my_rank: 0,
            hw_coll: false,
        };
        register_comm(&self.proc, &self.ep, &inter);

        let entry = Rc::new(entry);
        let parent_name = self.ep.name;
        for (rank, &node) in nodes.iter().enumerate() {
            let uni = uni.clone();
            let entry = entry.clone();
            let world_group = world_group.clone();
            let inter_group = inter.group.clone();
            self.proc
                .spawn(&format!("spawned-{}-{rank}", child_job.0), move |p| {
                    let name = ProcName {
                        job: child_job,
                        rank,
                    };
                    let ep = Endpoint::init(
                        &p,
                        name,
                        node,
                        uni.cfg.clone(),
                        uni.transports.clone(),
                        uni.cluster.clone(),
                        uni.rte.clone(),
                        Some(uni.tcp_net.clone()),
                    );
                    ep.start_progress(&p);
                    // Fetch the context ids the parent allocated.
                    let blob =
                        uni.rte
                            .modex_get(&p, parent_name, &format!("spawn-{}", child_job.0));
                    let v: Vec<u32> = blob
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                        .collect();
                    let world = Communicator {
                        ctx: v[2],
                        coll_ctx: v[3],
                        group: world_group,
                        my_rank: rank,
                        // Spawned after the initial launch: late joiners have
                        // no global virtual address space (paper §4.1).
                        hw_coll: false,
                    };
                    register_comm(&p, &ep, &world);
                    let inter = Communicator {
                        ctx: v[0],
                        coll_ctx: v[1],
                        group: inter_group,
                        my_rank: rank + 1,
                        hw_coll: false,
                    };
                    register_comm(&p, &ep, &inter);
                    uni.rte.barrier(&p, child_job);
                    let mpi = Mpi::new(p, ep, uni, world);
                    *mpi.parent.borrow_mut() = Some(Some(inter));
                    entry(mpi);
                });
        }
        inter
    }

    /// For spawned processes: the merged communicator to the parent
    /// (`None` for processes launched directly).
    pub fn parent_comm(&self) -> Option<Communicator> {
        if let Some(cached) = self.parent.borrow().as_ref() {
            return cached.clone();
        }
        *self.parent.borrow_mut() = Some(None);
        None
    }

    // ---- teardown ------------------------------------------------------------

    /// Drain pending communication, synchronize, and release network
    /// resources. Called automatically when the handle drops.
    pub fn finalize(&self) {
        if !self.finalized.replace(true) {
            self.ep.finalize(&self.proc);
        }
    }
}

/// A persistent communication request (MPI_Send_init / MPI_Recv_init):
/// the argument set is frozen once; each [`Mpi::start`] posts a fresh
/// operation with it. Useful for fixed communication patterns (halo
/// exchanges) where request setup cost matters.
#[derive(Clone)]
pub struct PersistentRequest {
    comm: Communicator,
    kind: ReqKind,
    peer: i32,
    tag: i32,
    buf: elan4::HostBuf,
    conv: Convertor,
}

impl Mpi {
    /// Freeze a send's argument set for repeated starting.
    pub fn send_init(
        &self,
        comm: &Communicator,
        dst: usize,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> PersistentRequest {
        assert!(tag >= 0 && dst < comm.size() && len <= buf.len);
        PersistentRequest {
            comm: comm.clone(),
            kind: ReqKind::Send,
            peer: dst as i32,
            tag,
            buf: *buf,
            conv: Convertor::new(Datatype::bytes(len), 1),
        }
    }

    /// Freeze a receive's argument set for repeated starting.
    pub fn recv_init(
        &self,
        comm: &Communicator,
        src: i32,
        tag: i32,
        buf: &HostBuf,
        len: usize,
    ) -> PersistentRequest {
        assert!(len <= buf.len);
        PersistentRequest {
            comm: comm.clone(),
            kind: ReqKind::Recv,
            peer: src,
            tag,
            buf: *buf,
            conv: Convertor::new(Datatype::bytes(len), 1),
        }
    }

    /// Post one operation from a persistent request (MPI_Start).
    pub fn start(&self, p: &PersistentRequest) -> Request {
        match p.kind {
            ReqKind::Send => {
                self.isend_typed(&p.comm, p.peer as usize, p.tag, &p.buf, p.conv.clone())
            }
            ReqKind::Recv => self.irecv_typed(&p.comm, p.peer, p.tag, &p.buf, p.conv.clone()),
        }
    }

    /// Start every request in the slice (MPI_Startall).
    pub fn startall(&self, ps: &[PersistentRequest]) -> Vec<Request> {
        ps.iter().map(|p| self.start(p)).collect()
    }
}

fn probe_selectors(comm: &Communicator, src: i32, tag: i32) -> (Option<u32>, Option<i32>) {
    let src_sel = (src != ANY_SOURCE).then(|| {
        assert!((src as usize) < comm.size(), "source rank out of range");
        src as u32
    });
    let tag_sel = (tag != ANY_TAG).then(|| {
        assert!(tag >= 0, "application tags must be non-negative");
        tag
    });
    (src_sel, tag_sel)
}

impl Drop for Mpi {
    fn drop(&mut self) {
        if !self.finalized.get() && !std::thread::panicking() {
            self.finalized.set(true);
            self.ep.finalize(&self.proc);
        }
    }
}
