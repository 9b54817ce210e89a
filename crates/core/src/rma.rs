//! MPI-2 one-sided communication (RMA) over the Elan4 RDMA path.
//!
//! The paper positions Open MPI as an MPI-2 implementation and its related
//! work (Jiang et al. [15, 16]) maps one-sided operations directly onto
//! RDMA. This module does the same on the simulated hardware: a window
//! exposes a registered (Elan-mapped) region on every rank; `put`/`get`
//! translate to RDMA write/read against the target's E4 address with *zero*
//! target-side host involvement; `fence` closes an active-target epoch by
//! draining local completions and synchronizing the group.
//!
//! Supported synchronization: active-target fence epochs. RMA requires a
//! polling or interrupt progress engine (the thread-progress modes funnel
//! completions through the shared queue, which fence does not consume).

use elan4::{DmaKind, E4Addr, ElanEvent, HostBuf, Vpid};
use qsim::Wait;

use crate::comm::Communicator;
use crate::config::ProgressMode;
use crate::mpi::Mpi;

/// An outstanding RMA descriptor and the origin mapping (with its region,
/// for the registration cache) to release once it completes.
type PendingRma = (ElanEvent, Option<(E4Addr, HostBuf)>);

/// An exposed memory window (one per rank of the communicator).
pub struct Window {
    comm: Communicator,
    /// The locally exposed region.
    buf: HostBuf,
    local_e4: E4Addr,
    /// Exposed region of every rank: (vpid, e4 value, length).
    peers: Vec<(Vpid, u64, usize)>,
    /// Outstanding RMA descriptors started in this epoch.
    pending: Vec<PendingRma>,
}

impl Window {
    /// The communicator the window spans.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }
}

impl Mpi {
    /// Collectively create a window exposing `buf` on every rank of `comm`.
    pub fn win_create(&self, comm: &Communicator, buf: HostBuf) -> Window {
        assert!(
            matches!(
                self.endpoint().cfg.progress,
                ProgressMode::Polling | ProgressMode::Interrupt
            ),
            "RMA requires polling or interrupt progress"
        );
        // Register the region with the NIC (paper §4.2: the memory
        // descriptor is expanded with an E4 address). Windows live until
        // win_free, so the mapping is charged directly, not cached.
        let local_e4 = self.endpoint().ectx.map(self.proc(), &buf);
        self.compute(self.endpoint().cfg.host.req_bookkeep);

        // Exchange (vpid, e4, len) with the group.
        let mut mine = Vec::with_capacity(16);
        mine.extend_from_slice(&local_e4.owner().raw().to_le_bytes());
        mine.extend_from_slice(&local_e4.value().to_le_bytes());
        mine.extend_from_slice(&(buf.len as u32).to_le_bytes());
        let all = self.allgather_bytes(comm, &mine);
        let peers = all
            .chunks_exact(16)
            .map(|c| {
                (
                    Vpid(u32::from_le_bytes(c[0..4].try_into().unwrap())),
                    u64::from_le_bytes(c[4..12].try_into().unwrap()),
                    u32::from_le_bytes(c[12..16].try_into().unwrap()) as usize,
                )
            })
            .collect();
        Window {
            comm: comm.clone(),
            buf,
            local_e4,
            peers,
            pending: Vec::new(),
        }
    }

    /// One-sided write: `len` bytes from `(src, src_off)` into the window
    /// of `target` at `target_off`. Completes (remotely) by the next fence.
    pub fn put(
        &self,
        win: &mut Window,
        target: usize,
        target_off: usize,
        src: &HostBuf,
        src_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        let (vpid, va, wlen) = win.peers[target];
        assert!(target_off + len <= wlen, "put beyond the target window");
        assert!(src_off + len <= src.len, "put beyond the origin buffer");
        let remote = E4Addr::from_raw(vpid, va + target_off as u64);
        let (local, unmap) = self.origin_mapping(win, src, src_off, len);
        let ep = self.endpoint();
        let event = ep.ectx.event_create(1);
        crate::proto::arm_doorbell(ep, &event);
        ep.ectx.rdma(
            self.proc(),
            0,
            DmaKind::Write,
            local,
            remote,
            len,
            Some(event.event_ref()),
        );
        win.pending.push((event, unmap));
    }

    /// One-sided read: `len` bytes from `target`'s window at `target_off`
    /// into `(dst, dst_off)`. Data is valid after the next fence.
    pub fn get(
        &self,
        win: &mut Window,
        target: usize,
        target_off: usize,
        dst: &HostBuf,
        dst_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        let (vpid, va, wlen) = win.peers[target];
        assert!(target_off + len <= wlen, "get beyond the target window");
        assert!(dst_off + len <= dst.len, "get beyond the origin buffer");
        let remote = E4Addr::from_raw(vpid, va + target_off as u64);
        let (local, unmap) = self.origin_mapping(win, dst, dst_off, len);
        let ep = self.endpoint();
        let event = ep.ectx.event_create(1);
        crate::proto::arm_doorbell(ep, &event);
        ep.ectx.rdma(
            self.proc(),
            0,
            DmaKind::Read,
            local,
            remote,
            len,
            Some(event.event_ref()),
        );
        win.pending.push((event, unmap));
    }

    /// Fence-epoch accumulate (sum of f64): fetch the target region, apply
    /// the operation, write it back. Origin-side arithmetic: correct as
    /// long as one origin touches a given target region per epoch (the
    /// usual fence-discipline requirement).
    pub fn accumulate_sum_f64(
        &self,
        win: &mut Window,
        target: usize,
        target_off: usize,
        src: &HostBuf,
        src_off: usize,
        len: usize,
    ) {
        assert_eq!(len % 8, 0);
        // Synchronous fetch.
        let tmp = self.alloc(len.max(1));
        self.get(win, target, target_off, &tmp, 0, len);
        self.rma_flush(win);
        let mut acc = self.read(&tmp, 0, len);
        let add = self.read(src, src_off, len);
        crate::coll::ReduceOp::SumF64.apply(&mut acc, &add);
        self.write(&tmp, 0, &acc);
        self.compute(self.endpoint().cfg.copy.memcpy(len));
        self.put(win, target, target_off, &tmp, 0, len);
        self.rma_flush(win);
        self.free(tmp);
    }

    /// Close the access/exposure epoch: drain local RMA completions, then
    /// synchronize the group so every peer's operations are also complete.
    pub fn win_fence(&self, win: &mut Window) {
        self.rma_flush(win);
        self.barrier(&win.comm);
    }

    /// Collectively tear the window down.
    pub fn win_free(&self, win: Window) {
        let mut win = win;
        self.rma_flush(&mut win);
        self.barrier(&win.comm);
        self.endpoint().ectx.unmap(self.proc(), win.local_e4);
        let _ = win.buf; // ownership stays with the caller
    }

    // -- internals ----------------------------------------------------------

    /// Map the origin buffer for one op; windows' own buffers reuse the
    /// window mapping, others go through the registration cache so a
    /// repeated origin buffer pays the pin-down cost once.
    fn origin_mapping(
        &self,
        win: &Window,
        buf: &HostBuf,
        off: usize,
        len: usize,
    ) -> (E4Addr, Option<(E4Addr, HostBuf)>) {
        if buf.addr == win.buf.addr && off + len <= win.buf.len {
            (win.local_e4.offset(off), None)
        } else {
            let region = buf.slice(off, len);
            let e4 = crate::regcache::acquire(self.proc(), self.endpoint(), &region);
            self.compute(self.endpoint().cfg.host.req_bookkeep);
            (e4, Some((e4, region)))
        }
    }

    /// Wait for every outstanding RMA descriptor of this window.
    fn rma_flush(&self, win: &mut Window) {
        let ep = self.endpoint().clone();
        let bell = ep.doorbell().expect("RMA without a progress doorbell");
        for (event, unmap) in win.pending.drain(..) {
            loop {
                if event.take_fired_ready() {
                    break;
                }
                match self.proc().wait(&bell) {
                    Wait::Signaled => self.compute(ep.cluster.cfg().poll_check),
                    Wait::Shutdown => panic!("shutdown during RMA flush"),
                }
            }
            event.free();
            if let Some((e4, region)) = unmap {
                crate::regcache::release(self.proc(), &ep, &region, e4);
            }
        }
    }
}

/// Reserved collective-plane tags for PSCW control messages.
const TAG_RMA_POST: i32 = 900;
const TAG_RMA_COMPLETE: i32 = 901;

/// Generalized active-target synchronization (MPI_Win_post / start /
/// complete / wait): exposure and access epochs between explicit rank
/// groups rather than the whole communicator.
impl Mpi {
    /// Expose the window to the `origins` group (MPI_Win_post). Pair with
    /// [`Mpi::win_wait`].
    pub fn win_post(&self, win: &Window, origins: &[usize]) {
        let c = win.comm().coll_plane();
        let buf = self.alloc(1);
        for &o in origins {
            assert_ne!(o, c.rank(), "cannot post to self");
            self.send(&c, o, TAG_RMA_POST, &buf, 0);
        }
        self.free(buf);
    }

    /// Begin an access epoch against the `targets` group (MPI_Win_start):
    /// blocks until each target has posted its exposure epoch.
    pub fn win_start(&self, win: &Window, targets: &[usize]) {
        let c = win.comm().coll_plane();
        let buf = self.alloc(1);
        for &t in targets {
            self.recv(&c, t as i32, TAG_RMA_POST, &buf, 0);
        }
        self.free(buf);
    }

    /// End the access epoch (MPI_Win_complete): drains local RMA
    /// completions, then tells each target its data is in place.
    pub fn win_complete(&self, win: &mut Window, targets: &[usize]) {
        self.flush_pending_pub(win);
        let c = win.comm().coll_plane();
        let buf = self.alloc(1);
        for &t in targets {
            self.send(&c, t, TAG_RMA_COMPLETE, &buf, 0);
        }
        self.free(buf);
    }

    /// End the exposure epoch (MPI_Win_wait): blocks until every origin
    /// has completed its accesses.
    pub fn win_wait(&self, win: &Window, origins: &[usize]) {
        let c = win.comm().coll_plane();
        let buf = self.alloc(1);
        for &o in origins {
            self.recv(&c, o as i32, TAG_RMA_COMPLETE, &buf, 0);
        }
        self.free(buf);
    }

    /// Public flush: wait for this window's outstanding RMA descriptors
    /// without group synchronization (MPI_Win_flush_local-ish).
    pub fn flush_pending_pub(&self, win: &mut Window) {
        self.rma_flush(win);
    }
}
