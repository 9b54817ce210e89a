//! Per-rank PML state: requests, communicators, and the matching engine.
//!
//! Everything here is plain data held in the endpoint's `state` cell; no
//! virtual time is consumed at this layer (costs are charged by the caller
//! from the [`crate::config::HostConfig`] model).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use elan4::E4Addr;
use ompi_datatype::Convertor;
use ompi_rte::{JobId, ProcName};
use qsim::{Dur, FastMap, FastSet, Signal, Time};

use crate::hdr::{Hdr, HdrType};
use crate::peer::PeerInfo;
use crate::proto::ReqKind;

/// MPI-style error class a request completes with when the protocol gives
/// up on it instead of panicking the rank (graceful degradation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MpiErrClass {
    /// The peer stopped acknowledging control frames: retransmission retries
    /// were exhausted (or the peer was already marked failed).
    ProcFailed,
    /// No active transport can reach the peer (or carry its bulk data).
    NoTransport,
    /// A protocol invariant broke (e.g. an ACK describing a transfer range
    /// outside the message); the request is abandoned instead of panicking
    /// the rank.
    Internal,
}

impl MpiErrClass {
    /// The corresponding MPI error-class name.
    pub fn mpi_name(self) -> &'static str {
        match self {
            MpiErrClass::ProcFailed => "MPI_ERR_PROC_FAILED",
            MpiErrClass::NoTransport => "MPI_ERR_UNREACHABLE",
            MpiErrClass::Internal => "MPI_ERR_INTERN",
        }
    }
}

/// Where a request stands in its protocol: the one record of its progress
/// (the paper's rendezvous posted, matched, ACK or RDMA read, FIN or
/// FIN_ACK, complete, Figs. 3–4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// An eager send waiting on its peer's exhausted credit window.
    Parked,
    /// A receive nothing has matched yet, or a rendezvous send whose
    /// receiver has not answered.
    Posted,
    /// A receive that matched its first fragment, or a rendezvous send its
    /// receiver has answered (ACK or FIN_ACK): the payload is on its way.
    Matched,
    /// Finished: delivered, or given up on with an error class (the
    /// payload outcome is then undefined).
    Done(Option<MpiErrClass>),
}

impl Phase {
    /// Has the request finished, successfully or not?
    pub fn is_done(self) -> bool {
        matches!(self, Phase::Done(_))
    }

    /// The error class a finished request completed with.
    pub fn error(self) -> Option<MpiErrClass> {
        match self {
            Phase::Done(err) => err,
            _ => None,
        }
    }
}

/// One sequence-stamped control frame awaiting its [`HdrType::CtlAck`]
/// receipt: the retransmit buffer entry of the TCP reliability layer.
pub struct InflightCtl {
    /// The peer the frame was sent to.
    pub peer: ProcName,
    /// Reliability sequence number stamped on the frame (per-peer, 1-based).
    pub rel_seq: u32,
    /// Control kind, for counters and diagnostics.
    pub kind: HdrType,
    /// The exact frame bytes, re-sent verbatim on timeout.
    pub frame: Vec<u8>,
    /// Retransmissions performed so far.
    pub attempts: u32,
    /// Current timeout (doubles — or whatever the backoff multiplier says —
    /// after each retransmission).
    pub timeout: Dur,
    /// Virtual time at which the entry times out next.
    pub deadline: Time,
}

/// Reliability sequence numbers already processed from one peer: every
/// number up to a floor, plus those above it that arrived out of order. A
/// sender stamps 1, 2, 3, … per peer, so in-order delivery only raises the
/// floor and the filter stays one word per peer for the whole run, while
/// any reordering or replay is still judged exactly.
#[derive(Debug, Default)]
pub struct SeenSeqs {
    /// Every sequence number in `1..=floor` has been seen.
    floor: u32,
    /// Seen sequence numbers above `floor + 1`.
    above: FastSet<u32>,
}

impl SeenSeqs {
    /// Record `seq`; false when it had been seen already (a duplicate).
    pub fn insert(&mut self, seq: u32) -> bool {
        if seq <= self.floor {
            return false;
        }
        if seq == self.floor + 1 {
            self.floor = seq;
        } else if !self.above.insert(seq) {
            return false;
        }
        // At `u32::MAX` (a sequence a corrupt frame may carry) the next
        // number wraps to 0, which is never held.
        while self.above.remove(&self.floor.wrapping_add(1)) {
            self.floor += 1;
        }
        true
    }

    /// Sequence numbers held one by one: those seen above the floor.
    #[cfg(test)]
    pub fn held(&self) -> usize {
        self.above.len()
    }
}

/// A request, send or receive: one record for both directions, as MPI
/// gives both the same envelope of peer, tag and communicator.
pub struct Req {
    /// Request token (appears in wire headers); unique across both kinds.
    pub id: u64,
    /// Globally unique message id ([`crate::hdr::msg_gid`]); stamps every
    /// trace/flight event of this logical message on both ranks. A send
    /// has it from post time, a receive from its match; 0 before that.
    pub gid: u64,
    /// Where the request stands; `Done` once delivered (locally for an
    /// eager send, fully acknowledged for a rendezvous one, received and
    /// unpacked for a receive) or failed.
    pub phase: Phase,
    /// Virtual time the request was posted (telemetry).
    pub posted_at: Time,
    /// The user buffer: a send's source, a receive's destination.
    pub buf: elan4::HostBuf,
    /// Bounce buffer holding the packed stream of a non-contiguous
    /// request, freed on completion.
    pub bounce: Option<elan4::HostBuf>,
    /// The packed region ([`Req::region`]) exposed for RDMA.
    pub e4: Option<E4Addr>,
    /// Packed bytes done: confirmed delivered for a send, landed for a
    /// receive.
    pub bytes_done: usize,
    /// Peer, tag and length: a send's from post time, a receive's from
    /// its match.
    pub envelope: Option<Envelope>,
    /// What only a receive has; `None` for a send.
    pub recv: Option<RecvSel>,
}

impl Req {
    /// Where the packed bytes live: the bounce buffer, or the user buffer
    /// of a contiguous request.
    pub fn region(&self) -> elan4::HostBuf {
        self.bounce.unwrap_or(self.buf)
    }

    /// Is this a send?
    pub fn is_send(&self) -> bool {
        self.recv.is_none()
    }

    /// Send or receive.
    pub fn kind(&self) -> ReqKind {
        if self.is_send() {
            ReqKind::Send
        } else {
            ReqKind::Recv
        }
    }
}

/// The envelope of a message, seen from this rank.
#[derive(Copy, Clone, Debug)]
pub struct Envelope {
    /// The process on the other side: a send's destination, a receive's
    /// matched source.
    pub peer: ProcName,
    /// That process's rank within the communicator.
    pub rank: u32,
    /// MPI tag.
    pub tag: i32,
    /// Total packed message length.
    pub len: usize,
}

/// What a receive selects and how it unpacks.
pub struct RecvSel {
    /// Communicator context id.
    pub ctx: u32,
    /// `None` = MPI_ANY_SOURCE, else the comm-rank we accept.
    pub src_sel: Option<u32>,
    /// `None` = MPI_ANY_TAG.
    pub tag_sel: Option<i32>,
    /// Datatype convertor for the buffer.
    pub conv: Convertor,
}

/// A fragment parked in the unexpected queue.
pub struct UnexpectedFrag {
    /// The fragment's header.
    pub hdr: Hdr,
    /// Inline payload bytes.
    pub payload: Vec<u8>,
    /// Bounce region backing the parked payload: a slot from the
    /// preallocated [`BouncePool`] (or a charged fallback allocation when
    /// the pool is dry). `None` for payload-free fragments. Released when
    /// the fragment is consumed by a match, purged for a failed peer, or
    /// drained at finalize.
    pub stage: Option<elan4::HostBuf>,
    /// Sending process.
    pub from: ProcName,
    /// Arrival stamp for FIFO unexpected matching.
    pub arrival: u64,
    /// Virtual arrival time (telemetry: match-latency samples).
    pub arrived_at: Time,
}

/// An eager send parked locally because its peer is out of flow credits.
/// The header (including the ordering `seq`) was fully built at post time,
/// so draining the queue FIFO preserves MPI ordering.
pub struct QueuedSend {
    /// The owning send request.
    pub sid: u64,
    /// The wire header, ready to go.
    pub hdr: Hdr,
    /// The built frame: room for the header, then the packed payload.
    pub frame: Vec<u8>,
    /// Virtual time the send was parked (feeds `flow.queued_ns`).
    pub queued_at: Time,
}

/// Per-peer credit state of the end-to-end flow-control scheme. Both the
/// sender view (`credits`, `queued`) and the receiver view
/// (`pending_return`) live here — each side only touches its half.
pub struct FlowPeer {
    /// Sends we may still issue to this peer before blocking.
    pub credits: usize,
    /// Eager sends parked until credits return (FIFO).
    pub queued: VecDeque<QueuedSend>,
    /// Credits consumed by local sends to this peer (monotonic).
    pub consumed: u64,
    /// Credits returned by this peer (monotonic); the invariant
    /// `consumed == returned + (initial - credits)` holds at quiescence.
    pub returned: u64,
    /// Receiver side: credits owed back to this peer (its messages we
    /// have delivered but not yet re-granted). Piggybacked on the next
    /// ACK/FIN_ACK toward the peer, or flushed by an explicit
    /// CREDIT_RETURN frame when it piles up past half the window.
    pub pending_return: usize,
    /// Receiver side: messages from this peer delivered to their final
    /// buffer (monotonic, for invariant checks).
    pub delivered: u64,
}

impl FlowPeer {
    /// Fresh state with the initial credit grant.
    pub fn new(initial: usize) -> Self {
        FlowPeer {
            credits: initial,
            queued: VecDeque::new(),
            consumed: 0,
            returned: 0,
            pending_return: 0,
            delivered: 0,
        }
    }
}

/// Preallocated, fixed-slot bounce pool for unexpected-message payloads
/// and small request bounce buffers (the GASNet elan-conduit trick: pay
/// the allocation once at init, not per message). Slots are uniform
/// ([`crate::hdr::SLOT_LEN`] bytes); `acquire` hands out a slice of a free
/// slot and `release` recognizes pool slots by their base address, so
/// callers can treat pool slots and fallback allocations uniformly.
pub struct BouncePool {
    /// Free slots (full-length).
    free: Vec<elan4::HostBuf>,
    /// Uniform slot length.
    slot_len: usize,
    /// Base addresses of every pool slot (membership test for `release`).
    slots: FastSet<elan4::HostAddr>,
    /// Slots currently handed out.
    in_use: usize,
}

impl BouncePool {
    /// An empty (unseeded) pool; every acquire misses until `seed`.
    pub fn new() -> Self {
        BouncePool {
            free: Vec::new(),
            slot_len: 0,
            slots: FastSet::default(),
            in_use: 0,
        }
    }

    /// Install the preallocated slots (called once at endpoint init).
    pub fn seed(&mut self, bufs: Vec<elan4::HostBuf>, slot_len: usize) {
        self.slot_len = slot_len;
        for b in &bufs {
            self.slots.insert(b.addr);
        }
        self.free = bufs;
    }

    /// Hand out a `len`-byte slice of a free slot, or `None` when the pool
    /// is dry or `len` exceeds the slot size (caller falls back to a real
    /// allocation and is charged for it).
    pub fn acquire(&mut self, len: usize) -> Option<elan4::HostBuf> {
        if len > self.slot_len {
            return None;
        }
        let slot = self.free.pop()?;
        self.in_use += 1;
        Some(slot.slice(0, len.max(1)))
    }

    /// Return a region. `true` if it was a pool slot (now free again);
    /// `false` means it was a fallback allocation the caller must free.
    pub fn release(&mut self, buf: elan4::HostBuf) -> bool {
        if !self.slots.contains(&buf.addr) {
            return false;
        }
        self.in_use -= 1;
        self.free.push(elan4::HostBuf {
            addr: buf.addr,
            len: self.slot_len,
        });
        true
    }

    /// Slots currently handed out (must be 0 at finalize).
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Total pool slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Take every slot back for freeing at finalize.
    pub fn drain(&mut self) -> Vec<elan4::HostBuf> {
        assert_eq!(self.in_use, 0, "bounce pool drained with slots in use");
        self.slots.clear();
        std::mem::take(&mut self.free)
    }
}

impl Default for BouncePool {
    fn default() -> Self {
        Self::new()
    }
}

/// Matching and ordering state for one communicator.
pub struct CommState {
    /// Members in rank order: the communicator's own list, shared.
    pub group: Rc<[ProcName]>,
    /// Recv request ids in post order (MPI matching is FIFO over these).
    pub posted: Vec<u64>,
    /// Fragments that matched no posted receive yet.
    pub unexpected: Vec<UnexpectedFrag>,
    /// Next sequence number per destination rank.
    pub next_send_seq: FastMap<u32, u32>,
    /// Next expected sequence number per source rank.
    pub next_recv_seq: FastMap<u32, u32>,
    /// Match-class fragments that arrived ahead of their sequence number
    /// (possible with multi-rail striping).
    pub out_of_order: Vec<UnexpectedFrag>,
    arrival_counter: u64,
}

impl CommState {
    /// Fresh matching state for one communicator.
    pub fn new(group: Rc<[ProcName]>) -> Self {
        CommState {
            group,
            posted: Vec::new(),
            unexpected: Vec::new(),
            next_send_seq: FastMap::default(),
            next_recv_seq: FastMap::default(),
            out_of_order: Vec::new(),
            arrival_counter: 0,
        }
    }

    /// Allocate the next ordering sequence number toward `dst_rank`.
    pub fn alloc_send_seq(&mut self, dst_rank: u32) -> u32 {
        let e = self.next_send_seq.entry(dst_rank).or_insert(0);
        let s = *e;
        *e += 1;
        s
    }

    /// Is `hdr` the next in-order match fragment from its sender? If not,
    /// the caller must park it in `out_of_order`.
    pub fn is_in_order(&self, hdr: &Hdr) -> bool {
        let expected = self.next_recv_seq.get(&hdr.src_rank).copied().unwrap_or(0);
        hdr.seq == expected
    }

    /// Mark the current in-order fragment from `src_rank` as processed.
    pub fn advance_recv_seq(&mut self, src_rank: u32) {
        *self.next_recv_seq.entry(src_rank).or_insert(0) += 1;
    }

    /// Pop a parked fragment that has become in-order, if any.
    pub fn take_ready_out_of_order(&mut self) -> Option<UnexpectedFrag> {
        let pos = self.out_of_order.iter().position(|f| {
            self.next_recv_seq
                .get(&f.hdr.src_rank)
                .copied()
                .unwrap_or(0)
                == f.hdr.seq
        })?;
        Some(self.out_of_order.remove(pos))
    }

    /// Monotonic stamp for unexpected-queue FIFO ordering.
    pub fn next_arrival_stamp(&mut self) -> u64 {
        self.arrival_counter += 1;
        self.arrival_counter
    }
}

/// Does `(src_sel, tag_sel)` accept a fragment from `src_rank` with `tag`?
pub fn selector_matches(
    src_sel: Option<u32>,
    tag_sel: Option<i32>,
    src_rank: u32,
    tag: i32,
) -> bool {
    src_sel.map(|s| s == src_rank).unwrap_or(true) && tag_sel.map(|t| t == tag).unwrap_or(true)
}

/// Role of a pending local DMA descriptor: the request it serves and what
/// its completion does.
#[derive(Clone, Debug)]
pub struct DmaRole {
    /// The request being served: the receive for RDMA reads (read scheme),
    /// the send for RDMA writes (write scheme).
    pub req: u64,
    /// Bytes this descriptor moves.
    pub bytes: usize,
    /// Receiver-side RDMA read vs sender-side RDMA write.
    pub is_read: bool,
    /// One chunk of a pipelined bulk transfer; completion is routed to the
    /// chunk engine, which releases the chunk's mapping, credits the owning
    /// request, and refills the in-flight window.
    pub chunk: bool,
    /// The FIN (write) or FIN_ACK (read) to send from the host, and its
    /// destination, when it was not chained to the descriptor.
    pub ctl: Option<(ProcName, Hdr)>,
}

impl DmaRole {
    /// A monolithic descriptor serving `req`, with no control attached.
    pub(crate) fn new(req: u64, bytes: usize, is_read: bool) -> DmaRole {
        DmaRole {
            req,
            bytes,
            is_read,
            chunk: false,
            ctl: None,
        }
    }

    /// The kind of request the descriptor serves: a read lands a
    /// receive's bytes, a write moves a send's.
    pub(crate) fn served(&self) -> ReqKind {
        if self.is_read {
            ReqKind::Recv
        } else {
            ReqKind::Send
        }
    }
}

/// One pipeline chunk whose RDMA is in flight: the per-chunk mapping to
/// release when its completion lands (or when the request fails).
pub struct PipeChunk {
    /// Completion token of the chunk's descriptor.
    pub token: u64,
    /// The sub-buffer registered for this chunk.
    pub sub: elan4::HostBuf,
    /// Its Elan4 mapping.
    pub e4: E4Addr,
    /// Rail the chunk was issued on (per-rail depth accounting).
    pub rail: usize,
}

/// Per-request state of a pipelined rendezvous bulk transfer (the chunk
/// engine in [`crate::proto`]). Lives beside the request, keyed by request
/// id in [`EpState::pipelines`], and holds only what the request lacks: the
/// request itself gives the direction (a receive pulls, a send pushes), the
/// message id, the peer and the local packed region.
pub struct PipeState {
    /// Remote address of the first bulk byte (one contiguous mapping on the
    /// far side — only the local, DMA-issuing side is chunked).
    pub remote: E4Addr,
    /// Offset of the first bulk byte within the request's packed region
    /// (inline bytes and any TCP-routed range come before/after the Elan
    /// share).
    pub base_off: usize,
    /// Bulk bytes this pipeline moves.
    pub total: usize,
    /// Chunk size (frozen from the `pipe.chunk` cvar at start).
    pub chunk: usize,
    /// Chunks allowed in flight per rail (frozen from `pipe.depth`).
    pub depth: usize,
    /// Offset of the next chunk to issue, relative to the bulk start.
    pub next_off: usize,
    /// Bulk bytes whose completion landed.
    pub landed: usize,
    /// Chunks currently in flight.
    pub inflight: Vec<PipeChunk>,
    /// In-flight chunk count per rail; one entry for each rail chunks
    /// stripe across.
    pub per_rail: Vec<usize>,
    /// The final chunk's mapping, registered ahead of time; its descriptor
    /// is only issued once every other chunk has landed, so the chained
    /// FIN/FIN_ACK cannot overtake an earlier chunk still in flight.
    pub staged_final: Option<(elan4::HostBuf, E4Addr)>,
    /// The FIN (write scheme) or FIN_ACK (read scheme) to attach to the
    /// final chunk — chained as a QDMA or sent from the host on completion.
    pub fin: Hdr,
    /// Round-robin rail pointer.
    pub next_rail: usize,
}

/// Upper bound on the control-carrying final chunk, in bytes. The final
/// chunk is *held back* until every other chunk has landed (so the chained
/// FIN/FIN_ACK cannot overtake data still in flight on another rail); that
/// hold-back serializes the final chunk's wire time behind the whole
/// transfer, so it is kept small — a few microseconds of tail, not a full
/// `pipe.chunk`.
pub const PIPE_FIN_TAIL: usize = 2048;

impl PipeState {
    /// Offset at which the held-back, control-carrying final chunk starts.
    /// Everything before it is streamed as ordinary pipelined chunks.
    pub fn final_off(&self) -> usize {
        let tail = self.chunk.min(PIPE_FIN_TAIL).min(self.total - 1).max(1);
        self.total - tail
    }
}

/// A paced TCP bulk push: the remainder of `handle_ack`'s TCP share that
/// has not been fragmented onto the wire yet. Draining is bounded to
/// `pipe.depth` fragments per progress pass so one large share cannot
/// monopolize the progress loop. The send gives the destination and the
/// packed region.
pub struct TcpPush {
    /// The send request whose bytes are being pushed.
    pub send_req: u64,
    /// The receive each fragment lands in, on the destination.
    pub recv_req: u64,
    /// Next packed offset to push.
    pub next_off: usize,
    /// One past the last packed offset of the share.
    pub end: usize,
}

/// A DMA whose completion the host still has to observe.
pub struct PendingDma {
    /// Token linking shared-completion-queue messages to this entry.
    pub token: u64,
    /// The counted completion event, freed once the host observes it.
    pub event: elan4::ElanEvent,
    /// What to do when it fires.
    pub role: DmaRole,
}

/// The heart of one rank's PML, in the endpoint's `state` cell.
pub struct EpState {
    /// Matching state per registered context id.
    pub comms: FastMap<u32, CommState>,
    /// Live requests, sends and receives, by id.
    pub reqs: FastMap<u64, Req>,
    /// DMA descriptors whose completion the host has not yet observed.
    pub pending_dmas: Vec<PendingDma>,
    /// Addressing of the peers this rank has resolved so far; read it
    /// through [`EpState::peer`], which fills it lazily.
    pub peers: FastMap<ProcName, PeerInfo>,
    /// The own job's `ptl` modex table, indexed by rank: fetched in one
    /// OOB request at `MPI_Init` and shared by every rank of the job.
    pub ptl_table: Option<(JobId, Rc<[Vec<u8>]>)>,
    /// Next request id.
    pub next_req: u64,
    /// Next shared-completion-queue token.
    pub next_dma_token: u64,
    /// Set once finalize begins (drain mode).
    pub finalizing: bool,
    /// Application threads blocked in thread-progress mode; notified on any
    /// request completion.
    pub waiters: Vec<Signal>,
    /// Match-class frames that arrived for a communicator this rank has not
    /// registered yet; re-dispatched at registration.
    pub early_frames: Vec<(Hdr, Vec<u8>)>,
    /// Next reliability sequence number per peer (1-based; 0 on the wire
    /// means "not sequence-stamped").
    pub ctl_next_seq: FastMap<ProcName, u32>,
    /// Sequence-stamped control frames not yet receipted by their peer; the
    /// retransmit buffer. Scanned by `reliability_tick`.
    pub ctl_inflight: Vec<InflightCtl>,
    /// Reliability sequence numbers already processed, per origin peer:
    /// duplicate-suppression state making redelivered frames idempotent.
    pub ctl_seen: FastMap<ProcName, SeenSeqs>,
    /// Peers declared failed after retransmission retries were exhausted.
    /// New sends to them error out immediately.
    pub failed_peers: FastSet<ProcName>,
    /// Active pipelined bulk transfers, keyed by the owning request id.
    pub pipelines: FastMap<u64, PipeState>,
    /// Scratch list of `pipelines` keys that one progress pass pumps,
    /// kept between passes so pumping does not allocate.
    pub pipe_ids: Vec<u64>,
    /// TCP bulk pushes awaiting their next paced burst.
    pub tcp_pushes: Vec<TcpPush>,
    /// Per-peer credit/backpressure state (lazily created on first
    /// eager traffic with a peer).
    pub flow: BTreeMap<ProcName, FlowPeer>,
    /// Preallocated bounce slots for unexpected payloads and small
    /// bounce buffers.
    pub bounce_pool: BouncePool,
}

impl EpState {
    /// Empty PML state.
    pub fn new() -> Self {
        EpState {
            comms: FastMap::default(),
            reqs: FastMap::default(),
            pending_dmas: Vec::new(),
            peers: FastMap::default(),
            ptl_table: None,
            next_req: 1,
            next_dma_token: 1,
            finalizing: false,
            waiters: Vec::new(),
            early_frames: Vec::new(),
            ctl_next_seq: FastMap::default(),
            ctl_inflight: Vec::new(),
            ctl_seen: FastMap::default(),
            failed_peers: FastSet::default(),
            pipelines: FastMap::default(),
            pipe_ids: Vec::new(),
            tcp_pushes: Vec::new(),
            flow: BTreeMap::new(),
            bounce_pool: BouncePool::new(),
        }
    }

    /// Addressing of `who`: a peer resolved earlier, or a rank of this
    /// job decoded from the `ptl` table on first use (no virtual time: the
    /// table arrived at `MPI_Init`). `None` for a process of another job
    /// that `proto::ensure_peer` has not resolved yet.
    pub fn peer(&mut self, who: &ProcName) -> Option<&PeerInfo> {
        match self.peers.entry(*who) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => {
                let (job, table) = self.ptl_table.as_ref()?;
                if who.job != *job {
                    return None;
                }
                Some(e.insert(PeerInfo::from_bytes(table.get(who.rank)?)))
            }
        }
    }

    /// Per-peer flow state, created with `initial` credits on first use.
    pub fn flow_entry(&mut self, peer: ProcName, initial: usize) -> &mut FlowPeer {
        self.flow
            .entry(peer)
            .or_insert_with(|| FlowPeer::new(initial))
    }

    /// Eager sends parked across all peers (the `queues.flow_queued` pvar).
    pub fn flow_queued_total(&self) -> usize {
        self.flow.values().map(|f| f.queued.len()).sum()
    }

    /// Allocate a request id.
    pub fn alloc_req_id(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Allocate a completion-queue token.
    pub fn alloc_dma_token(&mut self) -> u64 {
        let t = self.next_dma_token;
        self.next_dma_token += 1;
        t
    }

    /// Find the first posted receive that matches `hdr` (FIFO order);
    /// removes and returns its id.
    pub fn match_posted(&mut self, ctx: u32, hdr: &Hdr) -> Option<u64> {
        let comm = self.comms.get_mut(&ctx)?;
        let i = comm.posted.iter().position(|rid| {
            self.reqs[rid]
                .recv
                .as_ref()
                .is_some_and(|s| selector_matches(s.src_sel, s.tag_sel, hdr.src_rank, hdr.tag))
        })?;
        Some(comm.posted.remove(i))
    }

    /// Find the earliest unexpected fragment matching a new receive.
    pub fn match_unexpected(
        &mut self,
        ctx: u32,
        src_sel: Option<u32>,
        tag_sel: Option<i32>,
    ) -> Option<UnexpectedFrag> {
        let comm = self.comms.get_mut(&ctx)?;
        let mut best: Option<usize> = None;
        for (i, f) in comm.unexpected.iter().enumerate() {
            if selector_matches(src_sel, tag_sel, f.hdr.src_rank, f.hdr.tag)
                && best
                    .map(|b| comm.unexpected[b].arrival > f.arrival)
                    .unwrap_or(true)
            {
                best = Some(i);
            }
        }
        best.map(|i| comm.unexpected.remove(i))
    }

    /// Non-destructive probe of the unexpected queue: earliest matching
    /// fragment's (src_rank, tag, msg_len).
    pub fn peek_unexpected(
        &self,
        ctx: u32,
        src_sel: Option<u32>,
        tag_sel: Option<i32>,
    ) -> Option<(u32, i32, usize)> {
        let comm = self.comms.get(&ctx)?;
        let mut best: Option<&UnexpectedFrag> = None;
        for f in &comm.unexpected {
            if selector_matches(src_sel, tag_sel, f.hdr.src_rank, f.hdr.tag)
                && best.map(|b| b.arrival > f.arrival).unwrap_or(true)
            {
                best = Some(f);
            }
        }
        best.map(|f| (f.hdr.src_rank, f.hdr.tag, f.hdr.msg_len as usize))
    }

    /// Are all live requests complete? (Finalize's drain condition.)
    pub fn all_requests_done(&self) -> bool {
        self.reqs.values().all(|r| r.phase.is_done())
    }

    /// The live request `id` if it is of `kind`. An id read off the wire
    /// names one kind (an ACK or FIN_ACK a send, a FIN or FRAG a
    /// receive), and a handler ignores a request of the other.
    pub fn req_of(&mut self, kind: ReqKind, id: u64) -> Option<&mut Req> {
        self.reqs.get_mut(&id).filter(|r| r.kind() == kind)
    }

    /// Give back the bounce stages of the fragments parked in every
    /// communicator's unexpected and out-of-order lists: each pool slot
    /// returns to the pool, and the fallback allocations are returned for
    /// the caller to free outside the lock. With `peer`, only that peer's
    /// fragments are released, and they are dropped as well.
    pub fn release_stages(&mut self, peer: Option<ProcName>) -> Vec<elan4::HostBuf> {
        let mut stages = Vec::new();
        for c in self.comms.values_mut() {
            for parked in [&mut c.unexpected, &mut c.out_of_order] {
                parked.retain_mut(|f| {
                    if peer.is_some_and(|p| f.from != p) {
                        return true;
                    }
                    stages.extend(f.stage.take());
                    peer.is_none()
                });
            }
        }
        stages.retain(|s| !self.bounce_pool.release(*s));
        stages
    }
}

impl Default for EpState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(rank: usize) -> ProcName {
        ProcName {
            job: ompi_rte::JobId(0),
            rank,
        }
    }

    fn mk_hdr(src: u32, tag: i32, seq: u32) -> Hdr {
        let mut h = Hdr::new(crate::hdr::HdrType::Eager);
        h.src_rank = src;
        h.tag = tag;
        h.seq = seq;
        h.ctx = 0;
        h
    }

    #[test]
    fn seen_seqs_judge_reordered_and_replayed_frames_exactly() {
        let mut seen = SeenSeqs::default();
        assert!(seen.insert(3));
        assert!(seen.insert(2));
        assert_eq!(seen.held(), 2, "two arrived ahead of 1");
        assert!(!seen.insert(3), "a replay above the floor");
        assert!(seen.insert(1));
        assert_eq!(seen.held(), 0, "1 closed the gap");
        for seq in 1..=3 {
            assert!(!seen.insert(seq), "a replay of {seq} below the floor");
        }
        assert!(seen.insert(4));
        assert_eq!(seen.held(), 0);
        // The largest sequence number neither overflows the floor nor is
        // forgotten.
        assert!(seen.insert(u32::MAX));
        assert!(!seen.insert(u32::MAX));
        let mut top = SeenSeqs {
            floor: u32::MAX - 1,
            ..SeenSeqs::default()
        };
        assert!(top.insert(u32::MAX));
        assert!(!top.insert(u32::MAX));
    }

    fn mk_state_with_comm() -> EpState {
        let mut st = EpState::new();
        st.comms
            .insert(0, CommState::new([name(0), name(1)].into()));
        st
    }

    fn post_recv(st: &mut EpState, src: Option<u32>, tag: Option<i32>) -> u64 {
        let id = st.alloc_req_id();
        st.reqs.insert(
            id,
            Req {
                id,
                gid: 0,
                phase: Phase::Posted,
                posted_at: Time::ZERO,
                buf: elan4::HostBuf {
                    addr: elan4::HostAddr { node: 0, off: 0 },
                    len: 0,
                },
                bounce: None,
                e4: None,
                bytes_done: 0,
                envelope: None,
                recv: Some(RecvSel {
                    ctx: 0,
                    src_sel: src,
                    tag_sel: tag,
                    conv: Convertor::new(ompi_datatype::Datatype::bytes(0), 0),
                }),
            },
        );
        st.comms.get_mut(&0).unwrap().posted.push(id);
        id
    }

    #[test]
    fn fifo_matching_of_posted_receives() {
        let mut st = mk_state_with_comm();
        let a = post_recv(&mut st, Some(1), Some(5));
        let b = post_recv(&mut st, Some(1), Some(5));
        let h = mk_hdr(1, 5, 0);
        assert_eq!(st.match_posted(0, &h), Some(a));
        assert_eq!(st.match_posted(0, &h), Some(b));
        assert_eq!(st.match_posted(0, &h), None);
    }

    #[test]
    fn wildcards_match_anything() {
        let mut st = mk_state_with_comm();
        let a = post_recv(&mut st, None, None);
        let h = mk_hdr(1, 12345, 0);
        assert_eq!(st.match_posted(0, &h), Some(a));
    }

    #[test]
    fn selective_receive_skips_nonmatching() {
        let mut st = mk_state_with_comm();
        let _a = post_recv(&mut st, Some(1), Some(7));
        let b = post_recv(&mut st, Some(1), Some(9));
        let h = mk_hdr(1, 9, 0);
        assert_eq!(st.match_posted(0, &h), Some(b));
        // The tag-7 receive is still posted.
        assert_eq!(st.comms[&0].posted.len(), 1);
    }

    #[test]
    fn unexpected_matched_in_arrival_order() {
        let mut st = mk_state_with_comm();
        for tag in [4, 5, 4] {
            let stamp = st.comms.get_mut(&0).unwrap().next_arrival_stamp();
            let f = UnexpectedFrag {
                hdr: mk_hdr(1, tag, 0),
                payload: vec![tag as u8],
                stage: None,
                from: name(1),
                arrival: stamp,
                arrived_at: Time::ZERO,
            };
            st.comms.get_mut(&0).unwrap().unexpected.push(f);
        }
        let got = st.match_unexpected(0, Some(1), Some(4)).unwrap();
        assert_eq!(got.payload, vec![4]);
        let got2 = st.match_unexpected(0, None, None).unwrap();
        assert_eq!(got2.hdr.tag, 5, "earliest arrival wins for wildcards");
    }

    #[test]
    fn sequence_ordering_detects_gaps() {
        let mut st = mk_state_with_comm();
        let comm = st.comms.get_mut(&0).unwrap();
        assert!(comm.is_in_order(&mk_hdr(1, 0, 0)));
        assert!(!comm.is_in_order(&mk_hdr(1, 0, 1)));
        comm.advance_recv_seq(1);
        assert!(comm.is_in_order(&mk_hdr(1, 0, 1)));
        // Independent per source.
        assert!(comm.is_in_order(&mk_hdr(0, 0, 0)));
    }

    #[test]
    fn out_of_order_release() {
        let mut st = mk_state_with_comm();
        let comm = st.comms.get_mut(&0).unwrap();
        comm.out_of_order.push(UnexpectedFrag {
            hdr: mk_hdr(1, 0, 1),
            payload: vec![],
            stage: None,
            from: name(1),
            arrival: 0,
            arrived_at: Time::ZERO,
        });
        assert!(comm.take_ready_out_of_order().is_none());
        comm.advance_recv_seq(1); // seq 0 processed
        let f = comm.take_ready_out_of_order().unwrap();
        assert_eq!(f.hdr.seq, 1);
    }

    #[test]
    fn bounce_pool_round_trips_slots_and_rejects_oversize() {
        let mut p = BouncePool::new();
        assert!(p.acquire(16).is_none(), "unseeded pool always misses");
        let slot = |off| elan4::HostBuf {
            addr: elan4::HostAddr { node: 0, off },
            len: 2048,
        };
        p.seed(vec![slot(0), slot(2048)], 2048);
        assert_eq!(p.capacity(), 2);
        assert!(p.acquire(4096).is_none(), "oversize goes to fallback");
        let a = p.acquire(100).unwrap();
        assert_eq!(a.len, 100);
        let b = p.acquire(0).unwrap();
        assert_eq!(b.len, 1, "zero-len acquire still reserves a slot");
        assert!(p.acquire(1).is_none(), "pool dry");
        assert_eq!(p.in_use(), 2);
        let foreign = elan4::HostBuf {
            addr: elan4::HostAddr {
                node: 0,
                off: 1 << 20,
            },
            len: 64,
        };
        assert!(!p.release(foreign), "fallback allocs are not pool slots");
        assert!(p.release(a));
        assert!(p.release(b));
        assert_eq!(p.in_use(), 0);
        let c = p.acquire(2048).unwrap();
        assert_eq!(c.len, 2048, "released slot regains full length");
        assert!(p.release(c));
        assert_eq!(p.drain().len(), 2);
    }

    #[test]
    fn flow_entry_seeds_initial_credits_once() {
        let mut st = EpState::new();
        st.flow_entry(name(1), 8).credits -= 3;
        assert_eq!(st.flow_entry(name(1), 8).credits, 5);
        assert_eq!(st.flow_queued_total(), 0);
    }

    #[test]
    fn send_seq_allocation_is_per_destination() {
        let mut st = mk_state_with_comm();
        let comm = st.comms.get_mut(&0).unwrap();
        assert_eq!(comm.alloc_send_seq(1), 0);
        assert_eq!(comm.alloc_send_seq(1), 1);
        assert_eq!(comm.alloc_send_seq(0), 0);
    }
}
