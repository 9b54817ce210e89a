//! Communicators: an ordered group of process names plus a pair of context
//! ids (one for point-to-point traffic, one for collectives, mirroring how
//! real MPI keeps collective traffic from matching user receives).

use std::rc::Rc;

use ompi_rte::ProcName;
use qsim::Proc;

use crate::endpoint::Endpoint;
use crate::state::CommState;

/// A communicator as seen by one rank.
#[derive(Clone, Debug)]
pub struct Communicator {
    /// Context id for point-to-point matching.
    pub ctx: u32,
    /// Context id for collective traffic.
    pub coll_ctx: u32,
    /// Member processes, in rank order; shared by every handle onto this
    /// communicator and its collective plane.
    pub group: Rc<[ProcName]>,
    /// This process's rank within `group`.
    pub my_rank: usize,
    /// True only for groups created synchronously at job launch: such
    /// groups share the global virtual address space and may use the
    /// Elan4 hardware broadcast. Groups involving late joiners (spawn,
    /// split, dup) cannot (paper §4.1).
    pub hw_coll: bool,
}

impl Communicator {
    /// Number of members.
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// The collective-plane alias of this communicator (same group, the
    /// collective context as its p2p context).
    pub fn coll_plane(&self) -> Communicator {
        Communicator {
            ctx: self.coll_ctx,
            coll_ctx: self.coll_ctx,
            group: self.group.clone(),
            my_rank: self.my_rank,
            hw_coll: self.hw_coll,
        }
    }
}

/// Register `comm` with this endpoint's matching engine and re-dispatch any
/// frames that arrived for its contexts before registration.
pub fn register_comm(proc: &Proc, ep: &Rc<Endpoint>, comm: &Communicator) {
    let early = {
        let mut st = ep.state.lock();
        for ctx in [comm.ctx, comm.coll_ctx] {
            assert!(
                !st.comms.contains_key(&ctx),
                "context id {ctx} registered twice"
            );
            st.comms.insert(ctx, CommState::new(comm.group.clone()));
        }
        let mut early = Vec::new();
        let mut keep = Vec::new();
        for (hdr, payload) in st.early_frames.drain(..) {
            if hdr.ctx == comm.ctx || hdr.ctx == comm.coll_ctx {
                early.push((hdr, payload));
            } else {
                keep.push((hdr, payload));
            }
        }
        st.early_frames = keep;
        early
    };
    for (hdr, payload) in early {
        crate::proto::handle_match_frame(proc, ep, hdr, payload);
    }
}
