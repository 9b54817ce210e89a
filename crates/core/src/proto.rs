//! The wire protocol: eager sends, the two rendezvous schemes (RDMA write +
//! FIN, RDMA read + FIN_ACK), chained completion, the shared completion
//! queue, and fragment push for non-RDMA transports.
//!
//! Lock discipline: the endpoint state lock is never held across a
//! time-consuming call (`advance`, QDMA/RDMA issue). Handlers lock, mutate,
//! collect work, unlock, then act.

use std::rc::Rc;

use elan4::{DmaKind, E4Addr, HostBuf, QdmaSpec, Vpid};
use ompi_datatype::Convertor;
use ompi_rte::ProcName;
use qsim::Proc;

use crate::comm::Communicator;
use crate::config::{CompletionMode, ProgressMode, RdmaScheme};
use crate::endpoint::Endpoint;
use crate::hdr::{Hdr, HdrType, HDR_LEN, MAX_INLINE};
use crate::metrics::ControlKind;
use crate::state::{
    DmaRole, Envelope, EpState, InflightCtl, MpiErrClass, PendingDma, Phase, PipeChunk, PipeState,
    QueuedSend, RecvSel, Req, TcpPush, UnexpectedFrag,
};

/// Payload room in one TCP frame after the 64-byte header.
const TCP_FRAG_PAYLOAD: usize = (64 << 10) - HDR_LEN;

/// Request kinds, for the user-facing handle.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReqKind {
    /// A send request.
    Send,
    /// A receive request.
    Recv,
}

/// A nonblocking-request handle.
#[derive(Copy, Clone, Debug)]
pub struct Request {
    /// The request id within its endpoint.
    pub id: u64,
    /// Send or receive.
    pub kind: ReqKind,
}

/// How a frame travels.
#[derive(Copy, Clone, Debug)]
enum Route {
    Elan { rail: usize },
    Tcp,
}

// ---------------------------------------------------------------------------
// posting
// ---------------------------------------------------------------------------

/// Post a send of `conv` over `buf` to `(comm, dst_rank, tag)`.
pub fn post_send(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    comm: &Communicator,
    dst_rank: usize,
    tag: i32,
    buf: HostBuf,
    conv: Convertor,
) -> Request {
    post_send_mode(proc, ep, comm, dst_rank, tag, buf, conv, false)
}

/// Like [`post_send`], with `sync` forcing MPI_Ssend semantics: the request
/// only completes once the receiver has matched it, which the rendezvous
/// protocol provides for free — so a synchronous send is simply a send that
/// must take the rendezvous path regardless of size.
#[expect(clippy::too_many_arguments)]
pub fn post_send_mode(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    comm: &Communicator,
    dst_rank: usize,
    tag: i32,
    buf: HostBuf,
    conv: Convertor,
    sync: bool,
) -> Request {
    let host = ep.cfg.host.clone();
    let posted_at = proc.now();
    proc.advance(host.req_bookkeep + host.sched);
    let msg_len = conv.packed_len();
    let dst = comm.group[dst_rank];
    ensure_peer(proc, ep, dst);

    let (id, seq, peer, peer_failed, stale_comm) = {
        let mut st = ep.state.lock();
        let id = st.alloc_req_id();
        // A stale communicator handle degrades the request instead of
        // aborting the rank (the seq is then meaningless, but so is the
        // send).
        let (seq, stale_comm) = match st.comms.get_mut(&comm.ctx) {
            Some(c) => (c.alloc_send_seq(dst_rank as u32), false),
            None => (0, true),
        };
        let peer = st.peer(&dst).cloned().expect("unresolved peer");
        let peer_failed = st.failed_peers.contains(&dst);
        (id, seq, peer, peer_failed, stale_comm)
    };
    // The globally unique message id: derived, not carried on the wire —
    // the first fragment already identifies (sender, send_req), and control
    // frames resolve it from local request state.
    let gid = crate::hdr::msg_gid(ep.name.job.0, ep.name.rank as u32, id);

    let eager = !sync && !ep.cfg.force_rendezvous && msg_len <= ep.tunables.eager_limit();
    // Graceful degradation: a send to a failed or unreachable peer completes
    // immediately with an error status instead of panicking the rank. The
    // ordering seq allocated above leaves a gap, which is harmless — no
    // frame from us can reach that peer anyway.
    let route = if peer_failed || stale_comm {
        None
    } else {
        first_route(ep, &peer)
    };
    let mut req = Req {
        id,
        gid,
        phase: Phase::Posted,
        posted_at,
        buf,
        bounce: None,
        e4: None,
        bytes_done: 0,
        envelope: Some(Envelope {
            peer: dst,
            rank: dst_rank as u32,
            tag,
            len: msg_len,
        }),
        recv: None,
    };
    let Some(route) = route else {
        let err = if stale_comm {
            MpiErrClass::Internal
        } else if peer_failed {
            MpiErrClass::ProcFailed
        } else {
            MpiErrClass::NoTransport
        };
        req.phase = Phase::Done(Some(err));
        ep.state.lock().reqs.insert(id, req);
        record_failure(proc, ep, id, true, err);
        return Request {
            id,
            kind: ReqKind::Send,
        };
    };

    let mut hdr = Hdr::new(if eager {
        HdrType::Eager
    } else {
        HdrType::Rendezvous
    });
    hdr.ctx = comm.ctx;
    hdr.src_rank = comm.my_rank as u32;
    hdr.tag = tag;
    hdr.seq = seq;
    hdr.msg_len = msg_len as u64;
    hdr.send_req = id;

    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SendPosted {
            req: id,
            gid,
            coll: ep.cur_coll(),
            dst: dst_rank as u32,
            tag,
            len: msg_len,
            eager,
        },
    );
    if eager {
        // The PML work ends here; staging the copy and building the frame
        // is the PTL's job (paper §6.3 draws the layer boundary at the
        // ptl_send call).
        ep.instr_mark_tx(proc.now());
        // Copy the whole message behind the header (buffered semantics:
        // the request completes locally once the copy is staged).
        let frame = packed_frame(ep, &buf, &conv, None, msg_len);
        charge_pack(proc, ep, msg_len);
        proc.advance(host.hdr_build);
        // End-to-end flow control: an eager send consumes one credit from
        // the peer's window; with the window exhausted (or older sends
        // already waiting — FIFO per peer) the frame parks locally until
        // credits return, instead of flooding the peer's receive queue.
        // Self-sends loop back without touching the fabric and are exempt.
        let unparked = if ep.tunables.flow_enable() && dst != ep.name {
            let init = ep.tunables.flow_credits();
            let mut st = ep.state.lock();
            let fp = st.flow_entry(dst, init);
            if fp.credits == 0 || !fp.queued.is_empty() {
                fp.queued.push_back(QueuedSend {
                    sid: id,
                    hdr,
                    frame,
                    queued_at: proc.now(),
                });
                None
            } else {
                fp.credits -= 1;
                fp.consumed += 1;
                Some((hdr, frame))
            }
        } else {
            Some((hdr, frame))
        };
        let parked = unparked.is_none();
        if let Some((hdr, frame)) = unparked {
            if ep.tunables.flow_enable() && dst != ep.name {
                ep.metric(|m| m.counters.flow_credits_consumed += 1);
            }
            send_frame(proc, ep, &peer, route, hdr, frame);
        } else {
            ep.metric(|m| {
                m.counters.flow_sends_queued += 1;
                m.counters.eager_sent += 1;
            });
            ep.trace(
                proc.now(),
                crate::trace::TraceEvent::FlowQueued { req: id, gid },
            );
        }
        if parked {
            req.phase = Phase::Parked;
        } else {
            req.bytes_done = msg_len;
            req.phase = Phase::Done(None);
        }
        ep.state.lock().reqs.insert(id, req);
        if !parked {
            ep.metric(|m| {
                m.counters.eager_sent += 1;
                m.completion_time
                    .record(proc.now().saturating_sub(posted_at));
            });
        }
        return Request {
            id,
            kind: ReqKind::Send,
        };
    }
    // The endpoint-wide outstanding-DMA cap (the GASNet elan-conduit
    // NETWORKDEPTH throttle): a rendezvous post waits for descriptor room
    // before adding more. Only the application thread blocks here — the
    // progress path enforces the same cap inside the chunk engine.
    let dma_cap = ep.tunables.flow_dma_cap();
    if ep.tunables.flow_enable() && dma_cap > 0 {
        let needs_wait = ep.state.lock().pending_dmas.len() >= dma_cap;
        if needs_wait {
            ep.wait_until(proc, |st| st.pending_dmas.len() < dma_cap);
            ep.metric(|m| m.counters.flow_dma_waits += 1);
        }
    }

    // Rendezvous: expose the packed source region for RDMA (paper §4.2 —
    // the memory descriptor is expanded with an E4 address).
    let bounce = if conv.is_contiguous() || msg_len == 0 {
        None
    } else {
        let b = flow_bounce_alloc(proc, ep, msg_len.max(1), false);
        let span = ep.read_buf(&buf, 0, conv.span());
        let packed = conv.pack(&span);
        ep.write_buf(&b, 0, &packed);
        proc.advance(ep.cfg.copy.convertor(&conv, msg_len));
        Some(b)
    };
    req.bounce = bounce;
    let region = req.region();
    // The read scheme needs the whole source exposed up front: the receiver
    // pulls straight out of it, and the remote side of an RDMA must be one
    // contiguous mapping. The write scheme's source is only touched by our
    // own descriptors, so its registration is deferred to the ACK — where
    // the pipelined path registers it chunk by chunk, overlapped with the
    // transfer, and the monolithic path acquires it lazily.
    let src_e4 = (msg_len > 0 && ep.cfg.scheme == RdmaScheme::Read)
        .then(|| expose(proc, ep, gid, &region, msg_len, bounce.is_none(), true));

    let inline_len = if ep.cfg.inline_first_frag {
        msg_len.min(MAX_INLINE)
    } else {
        0
    };
    ep.instr_mark_tx(proc.now());
    let frame = packed_frame(ep, &buf, &conv, bounce.as_ref(), inline_len);
    charge_pack(proc, ep, inline_len);
    if let Some(e4) = src_e4 {
        hdr.e4_va = e4.value();
        hdr.e4_vpid = e4.owner().raw();
    }
    proc.advance(host.hdr_build);
    send_frame(proc, ep, &peer, route, hdr, frame);

    req.e4 = src_e4;
    ep.state.lock().reqs.insert(id, req);
    ep.metric(|m| m.counters.rndv_sent += 1);
    // The handshake span closes when the receiver is first heard from
    // (ACK or FIN_ACK) — see `first_receiver_contact`.
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanBegin {
            id,
            cat: "rndv",
            name: "rndv_handshake",
        },
    );
    Request {
        id,
        kind: ReqKind::Send,
    }
}

/// Post a receive. `src = None` is MPI_ANY_SOURCE; `tag = None` is
/// MPI_ANY_TAG.
pub fn post_recv(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    comm: &Communicator,
    src: Option<u32>,
    tag: Option<i32>,
    buf: HostBuf,
    conv: Convertor,
) -> Request {
    let host = ep.cfg.host.clone();
    let posted_at = proc.now();
    proc.advance(host.req_bookkeep);
    let cap = conv.packed_len();
    let bounce = if conv.is_contiguous() || cap == 0 {
        None
    } else {
        Some(flow_bounce_alloc(proc, ep, cap.max(1), false))
    };
    let (id, hit, stale_comm) = {
        let mut st = ep.state.lock();
        let id = st.alloc_req_id();
        st.reqs.insert(
            id,
            Req {
                id,
                gid: 0,
                phase: Phase::Posted,
                posted_at,
                buf,
                bounce,
                e4: None,
                bytes_done: 0,
                envelope: None,
                recv: Some(RecvSel {
                    ctx: comm.ctx,
                    src_sel: src,
                    tag_sel: tag,
                    conv,
                }),
            },
        );
        // Check the unexpected queue before exposing the request.
        let hit = st.match_unexpected(comm.ctx, src, tag);
        let mut stale_comm = false;
        if hit.is_none() {
            // A stale communicator handle degrades the request instead of
            // aborting the rank.
            match st.comms.get_mut(&comm.ctx) {
                Some(c) => c.posted.push(id),
                None => stale_comm = true,
            }
        }
        (id, hit, stale_comm)
    };
    proc.advance(host.pml_match);
    ep.metric(|m| m.counters.recvs_posted += 1);
    ep.trace(proc.now(), crate::trace::TraceEvent::RecvPosted { req: id });
    if stale_comm {
        fail_request(proc, ep, id, MpiErrClass::Internal);
    } else if let Some(frag) = hit {
        matched(proc, ep, id, frag);
    }
    Request {
        id,
        kind: ReqKind::Recv,
    }
}

/// Root side of a hardware broadcast: one NIC injection delivers an eager
/// fragment to every other member of `comm`. Only legal on communicators
/// with the global-address-space property (`hw_coll`); the collective layer
/// enforces that gate (paper §4.1).
pub fn post_bcast_eager(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    comm: &Communicator,
    tag: i32,
    data: &[u8],
) {
    assert!(data.len() <= MAX_INLINE);
    let host = ep.cfg.host.clone();
    proc.advance(host.req_bookkeep + host.sched);
    // Stage the payload once (single send-buffer copy for the whole group).
    charge_pack(proc, ep, data.len());
    proc.advance(host.hdr_build);

    let targets: Vec<(Vpid, elan4::QueueId, Vec<u8>)> = {
        let mut st = ep.state.lock();
        if !st.comms.contains_key(&comm.ctx) {
            // Stale communicator handle: nothing to broadcast into.
            return;
        }
        let members = &comm.group;
        let mut out = Vec::with_capacity(members.len() - 1);
        for (rank, who) in members.iter().enumerate() {
            if rank == comm.my_rank {
                continue;
            }
            let Some(c) = st.comms.get_mut(&comm.ctx) else {
                break;
            };
            let seq = c.alloc_send_seq(rank as u32);
            let mut hdr = Hdr::new(HdrType::Eager);
            hdr.ctx = comm.ctx;
            hdr.src_rank = comm.my_rank as u32;
            hdr.tag = tag;
            hdr.seq = seq;
            hdr.msg_len = data.len() as u64;
            hdr.payload_len = data.len() as u32;
            let peer = st.peer(who).cloned().expect("unresolved peer");
            let e = peer.elan.expect("hw bcast to a peer without elan");
            out.push((e.vpid, e.main_q, hdr.frame(data)));
        }
        out
    };
    ep.instr_mark_tx(proc.now());
    ep.ectx.hw_bcast(proc, 0, targets, None);
}

// ---------------------------------------------------------------------------
// waiting
// ---------------------------------------------------------------------------

/// Block until `req` completes; reaps the request and returns its error
/// class when the stack completed it unsuccessfully.
pub fn wait(proc: &Proc, ep: &Rc<Endpoint>, req: Request) -> Option<MpiErrClass> {
    ep.wait_until(proc, |st| req_done(st, req));
    reap(&mut ep.state.lock(), req)
}

/// Has `req` finished? A request missing from the table was reaped.
pub(crate) fn req_done(st: &EpState, req: Request) -> bool {
    st.reqs.get(&req.id).is_none_or(|r| r.phase.is_done())
}

/// Forget a completed request; its error class if it failed.
fn reap(st: &mut EpState, req: Request) -> Option<MpiErrClass> {
    st.reqs.remove(&req.id).and_then(|r| r.phase.error())
}

/// Block until any of `reqs` completes; returns its index and reaps it.
pub fn waitany(proc: &Proc, ep: &Rc<Endpoint>, reqs: &[Request]) -> usize {
    waitany_result(proc, ep, reqs).0
}

/// Like [`waitany`], but also surfaces the reaped request's error class
/// instead of silently dropping it.
pub fn waitany_result(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    reqs: &[Request],
) -> (usize, Option<MpiErrClass>) {
    assert!(!reqs.is_empty());
    let mut idx = 0;
    ep.wait_until(proc, |st| {
        for (i, r) in reqs.iter().enumerate() {
            if req_done(st, *r) {
                idx = i;
                return true;
            }
        }
        false
    });
    (idx, reap(&mut ep.state.lock(), reqs[idx]))
}

/// Fletcher-16 cost: ~0.17 ns/B of host time.
fn checksum_cost(len: usize) -> qsim::Dur {
    qsim::Dur::for_bytes(len, 6000)
}

/// Nonblocking completion check (MPI_Test). Reaps the request when it
/// reports completion (MPI semantics: a successful test frees the request;
/// a later `wait` on it is a no-op because missing requests count as done).
pub fn test(proc: &Proc, ep: &Rc<Endpoint>, req: Request) -> bool {
    progress_pass(proc, ep);
    let mut st = ep.state.lock();
    if !req_done(&st, req) {
        return false;
    }
    reap(&mut st, req);
    true
}

// ---------------------------------------------------------------------------
// progress
// ---------------------------------------------------------------------------

/// One polling sweep over every incoming channel and pending DMA; returns
/// true if any work was done. Only the application thread polls: under a
/// progress-thread mode the threads drive progress, and this does nothing.
pub fn progress_pass(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    if !matches!(
        ep.cfg.progress,
        ProgressMode::Polling | ProgressMode::Interrupt
    ) {
        return false;
    }
    ep.timers_tick(proc);
    ep.metric(|m| m.counters.progress_iterations += 1);
    let mut any = false;
    for q in [&ep.main_q, &ep.comp_q].into_iter().flatten() {
        any |= drain_queue(proc, ep, q);
    }
    any |= drain_tcp_inbox(proc, ep);
    // Poll outstanding DMA completion events (the Basic strategy of §6.2).
    // Collected under the lock and handled after it: an event that fires
    // during one `dma_done` waits for the next pass.
    let fired = {
        let mut st = ep.state.lock();
        let mut out = Collected::default();
        let mut i = 0;
        while i < st.pending_dmas.len() {
            if st.pending_dmas[i].event.take_fired_ready() {
                out.push(st.pending_dmas.swap_remove(i));
            } else {
                i += 1;
            }
        }
        out
    };
    for p in fired {
        p.event.free();
        dma_done(proc, ep, p.token, p.role);
        any = true;
    }
    pump(proc, ep) || any
}

/// Dispatch every frame ready in receive queue `q`; true if there was one.
pub(crate) fn drain_queue(proc: &Proc, ep: &Rc<Endpoint>, q: &elan4::RxQueue) -> bool {
    let mut any = false;
    while let Some(frame) = q.pop_ready() {
        dispatch(proc, ep, frame);
        any = true;
    }
    any
}

/// Dispatch every frame in the TCP inbox, charging the kernel receive path
/// (a syscall and the copy out of the socket) for each; true if there was
/// one.
pub(crate) fn drain_tcp_inbox(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    let mut any = false;
    while let Some(frame) = ep.tcp_inbox.as_ref().and_then(|ib| ib.pop()) {
        if let Some(net) = &ep.tcp_net {
            proc.advance(net.cfg().syscall + ep.cluster.cfg().memcpy(frame.len()));
        }
        dispatch(proc, ep, frame);
        any = true;
    }
    any
}

/// Work parked between dispatches: paced TCP pushes and pipeline windows
/// with room, then flow control (credit-starved send queues and hoarded
/// credit returns). True if any of them did work.
pub(crate) fn pump(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    let pushed = tcp_push_pump(proc, ep);
    let piped = pipe_pump_all(proc, ep);
    flow_pump(proc, ep) || pushed || piped
}

/// Entries collected under the state lock and handled once it is released.
/// The first is kept inline and only later ones go to the heap, so the
/// common pass, which collects none or one, allocates nothing.
struct Collected<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Default for Collected<T> {
    fn default() -> Self {
        Collected {
            first: None,
            rest: Vec::new(),
        }
    }
}

impl<T> Collected<T> {
    fn push(&mut self, item: T) {
        if self.first.is_none() {
            self.first = Some(item);
        } else {
            self.rest.push(item);
        }
    }
}

impl<T> IntoIterator for Collected<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    /// The entries in the order they were pushed.
    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

/// Handle one incoming frame (from any queue or the TCP inbox).
pub fn dispatch(proc: &Proc, ep: &Rc<Endpoint>, frame: Vec<u8>) {
    proc.advance(ep.cfg.host.hdr_parse);
    // A frame that fails header validation is counted and dropped, never
    // panicked on: one corrupt frame must not take the rank down.
    let hdr = match Hdr::decode(&frame) {
        Ok(h) => h,
        Err(_) => {
            ep.metric(|m| m.counters.corrupt_frames += 1);
            ep.trace(
                proc.now(),
                crate::trace::TraceEvent::CorruptFrame { len: frame.len() },
            );
            return;
        }
    };
    // The frame's buffer becomes the payload's: strip the header in place.
    let mut payload = frame;
    payload.drain(..HDR_LEN);
    debug_assert_eq!(payload.len(), hdr.payload_len as usize);
    if ep.cfg.integrity_check && !payload.is_empty() {
        proc.advance(checksum_cost(payload.len()));
        let got = crate::hdr::fletcher16(&payload);
        if got != hdr.checksum {
            // Fail-stop: detection is the paper-era guarantee (LA-MPI);
            // recovery is listed as future work (§8).
            panic!(
                "end-to-end integrity check failed: {:?} fragment from rank {} \
                 (expected {:#06x}, computed {got:#06x})",
                hdr.kind, hdr.src_rank, hdr.checksum
            );
        }
    }

    // Receive side of the TCP reliability layer: a sequence-stamped control
    // frame is receipted (always — the previous receipt may itself have been
    // lost) and then deduplicated, making redelivery idempotent before any
    // handler can double-credit or double-complete.
    if ep.cfg.tcp_reliability && control_kind(hdr.kind).is_some() && hdr.tag != 0 {
        let origin = ProcName {
            job: ompi_rte::JobId(hdr.ctx),
            rank: hdr.src_rank as usize,
        };
        let rel_seq = hdr.tag as u32;
        ensure_peer(proc, ep, origin);
        send_ctl_ack(proc, ep, origin, rel_seq);
        let duplicate = {
            let mut st = ep.state.lock();
            !st.ctl_seen.entry(origin).or_default().insert(rel_seq)
        };
        if duplicate {
            ep.metric(|m| m.counters.dup_suppressed += 1);
            ep.trace(
                proc.now(),
                crate::trace::TraceEvent::CtlDuplicate {
                    kind: hdr.kind.name(),
                    rel_seq,
                },
            );
            return;
        }
    }

    match hdr.kind {
        HdrType::Eager | HdrType::Rendezvous => {
            ep.instr_mark_rx(proc.now());
            handle_match_frame(proc, ep, hdr, payload);
        }
        HdrType::Ack => handle_ack(proc, ep, hdr),
        HdrType::Fin => credit(proc, ep, ReqKind::Recv, hdr.recv_req, hdr.offset as usize),
        HdrType::FinAck => {
            // Piggybacked flow credits ride in `e4_vpid` (unused on a
            // FIN_ACK); hand them back before the byte credit completes
            // (and possibly reaps) the send.
            if hdr.e4_vpid > 0 {
                let peer = {
                    let mut st = ep.state.lock();
                    st.req_of(ReqKind::Send, hdr.send_req)
                        .and_then(|r| r.envelope)
                        .map(|e| e.peer)
                };
                if let Some(peer) = peer {
                    flow_credits_in(proc, ep, peer, hdr.e4_vpid as usize);
                }
            }
            credit(proc, ep, ReqKind::Send, hdr.send_req, hdr.offset as usize)
        }
        HdrType::Frag => handle_frag(proc, ep, hdr, payload),
        HdrType::Completion => {
            ep.metric(|m| m.counters.chained_completions += 1);
            let token = hdr.e4_va;
            let pending = {
                let mut st = ep.state.lock();
                st.pending_dmas
                    .iter()
                    .position(|p| p.token == token)
                    .map(|i| st.pending_dmas.swap_remove(i))
            };
            if let Some(p) = pending {
                p.event.free();
                dma_done(proc, ep, p.token, p.role);
            }
        }
        HdrType::CtlAck => handle_ctl_ack(proc, ep, hdr),
        HdrType::Nack => handle_nack(proc, ep, hdr),
        HdrType::CreditReturn => {
            // Explicit credit grant: `seq` carries the count, ctx/src_rank
            // the granting peer (same encoding the reliability layer
            // stamps, so both routes agree).
            let origin = ProcName {
                job: ompi_rte::JobId(hdr.ctx),
                rank: hdr.src_rank as usize,
            };
            flow_credits_in(proc, ep, origin, hdr.seq as usize);
        }
    }
}

/// An Eager or Rendezvous fragment arrived: sequence-gate it, then match.
pub(crate) fn handle_match_frame(proc: &Proc, ep: &Rc<Endpoint>, hdr: Hdr, payload: Vec<u8>) {
    proc.advance(ep.cfg.host.pml_match);
    let ctx = hdr.ctx;
    let mut work = Collected::default();
    let mut stage_fallbacks = 0usize;
    {
        let mut st = ep.state.lock();
        if !st.comms.contains_key(&ctx) {
            // Communicator not registered on this rank yet (e.g. a split in
            // progress): park the frame; registration re-dispatches it.
            st.early_frames.push((hdr, payload));
            return;
        }
        // Re-checked under the same lock hold, but routed through let-else
        // so a torn-down communicator degrades instead of aborting.
        let Some(comm) = st.comms.get_mut(&ctx) else {
            return;
        };
        let now = proc.now();
        let frag = UnexpectedFrag {
            from: comm.group[hdr.src_rank as usize],
            hdr,
            payload,
            stage: None,
            arrival: comm.next_arrival_stamp(),
            arrived_at: now,
        };
        if !comm.is_in_order(&frag.hdr) {
            comm.out_of_order.push(frag);
            return;
        }
        comm.advance_recv_seq(frag.hdr.src_rank);
        queue_or_match(&mut st, ep, now, frag, &mut work, &mut stage_fallbacks);
        // Earlier out-of-order arrivals may now be in sequence.
        while let Some(comm) = st.comms.get_mut(&ctx) {
            let Some(next) = comm.take_ready_out_of_order() else {
                break;
            };
            comm.advance_recv_seq(next.hdr.src_rank);
            queue_or_match(&mut st, ep, now, next, &mut work, &mut stage_fallbacks);
        }
    }
    // Pool-miss penalty, charged outside the state lock: each fallback is
    // a per-message bounce allocation (+ first touch) on the critical
    // receive path — exactly the cost the preallocated pool exists to
    // avoid (GASNet elan-conduit heritage).
    for _ in 0..stage_fallbacks {
        proc.advance(ep.cfg.host.bounce_alloc);
    }
    for (rid, frag) in work {
        matched(proc, ep, rid, frag);
    }
}

/// Try to match `frag` against posted receives; park it if nothing matches.
/// A parked payload is staged into a bounce region — a preallocated pool
/// slot when one is free (the common, cheap case), otherwise a per-message
/// fallback whose allocation cost the caller charges once per increment of
/// `stage_fallbacks` (charging cannot happen here: the state lock is held).
fn queue_or_match(
    st: &mut EpState,
    ep: &Rc<Endpoint>,
    now: qsim::Time,
    mut frag: UnexpectedFrag,
    work: &mut Collected<(u64, UnexpectedFrag)>,
    stage_fallbacks: &mut usize,
) {
    match st.match_posted(frag.hdr.ctx, &frag.hdr) {
        Some(rid) => work.push((rid, frag)),
        None => {
            ep.trace(
                now,
                crate::trace::TraceEvent::Unexpected {
                    src: frag.hdr.src_rank,
                    tag: frag.hdr.tag,
                },
            );
            if !frag.payload.is_empty() && frag.stage.is_none() {
                match st.bounce_pool.acquire(frag.payload.len()) {
                    Some(slot) => {
                        frag.stage = Some(slot);
                        ep.metric(|m| m.counters.flow_pool_hits += 1);
                    }
                    None => {
                        *stage_fallbacks += 1;
                        ep.metric(|m| m.counters.flow_pool_fallbacks += 1);
                    }
                }
            }
            let ctx = frag.hdr.ctx;
            let Some(comm) = st.comms.get_mut(&ctx) else {
                // Communicator torn down mid-dispatch: drop the fragment,
                // returning its stage to the pool.
                if let Some(slot) = frag.stage.take() {
                    st.bounce_pool.release(slot);
                }
                return;
            };
            comm.unexpected.push(frag);
            let depth = comm.unexpected.len();
            ep.metric(|m| {
                m.counters.unexpected_total += 1;
                m.counters.unexpected_depth(depth);
            });
        }
    }
}

/// A receive has matched a first fragment: copy any inline payload and run
/// the configured long-message scheme for the remainder.
fn matched(proc: &Proc, ep: &Rc<Endpoint>, rid: u64, frag: UnexpectedFrag) {
    let hdr = frag.hdr;
    let msg_len = hdr.msg_len as usize;
    let inline_len = hdr.payload_len as usize;
    // Reconstruct the sender's globally unique message id from the first
    // fragment: the sending process identity plus its request token. A
    // hardware-broadcast fragment carries send_req 0 and stays unattributed.
    let gid = if hdr.send_req != 0 {
        crate::hdr::msg_gid(frag.from.job.0, frag.from.rank as u32, hdr.send_req)
    } else {
        0
    };

    // Record the match and copy the inline bytes.
    let (recv_posted_at, ctx) = {
        let mut st = ep.state.lock();
        let Some(r) = st.reqs.get_mut(&rid) else {
            // The receive was failed or reaped between match and delivery:
            // nothing to land into. Return any staging slot; the sender's
            // request is cleaned up by its own completion or failure path.
            if let Some(slot) = frag.stage {
                if !st.bounce_pool.release(slot) {
                    drop(st);
                    ep.free(slot);
                }
            }
            return;
        };
        let sel = r.recv.as_ref().expect("only a posted receive matches");
        assert!(
            msg_len <= sel.conv.packed_len(),
            "message truncation: incoming {} bytes into a {}-byte receive",
            msg_len,
            sel.conv.packed_len()
        );
        let ctx = sel.ctx;
        r.gid = gid;
        r.envelope = Some(Envelope {
            peer: frag.from,
            rank: hdr.src_rank,
            tag: hdr.tag,
            len: msg_len,
        });
        // A receive failed while its match was collected stays finished.
        if r.phase == Phase::Posted {
            r.phase = Phase::Matched;
        }
        (r.posted_at, ctx)
    };
    // Match latency covers both directions of waiting: a pre-posted receive
    // waits for the fragment, an unexpected fragment waits for the receive.
    ep.metric(|m| {
        m.counters.matches += 1;
        let since = recv_posted_at.max(frag.arrived_at);
        m.match_time.record(proc.now().saturating_sub(since));
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::Matched {
            req: rid,
            gid,
            src: hdr.src_rank,
            tag: hdr.tag,
            len: msg_len,
        },
    );
    if inline_len > 0 {
        {
            let st = ep.state.lock();
            if let Some(r) = st.reqs.get(&rid) {
                write_packed(ep, r, 0, &frag.payload);
            }
        }
        charge_unpack(proc, ep, inline_len);
        if let Some(r) = ep.state.lock().reqs.get_mut(&rid) {
            r.bytes_done += inline_len;
        }
    }
    // Delivery: the payload now lives in the application buffer, so the
    // staging slot is reusable.
    if let Some(slot) = frag.stage {
        flow_bounce_free(ep, slot);
    }

    if hdr.kind == HdrType::Eager {
        // End-to-end crediting happens at *delivery*, not arrival: only a
        // matched-and-copied message has truly vacated its receiver-side
        // buffering. The credit rides the next control frame toward the
        // sender, or an explicit return once enough accumulate.
        if ep.tunables.flow_enable() && hdr.send_req != 0 && frag.from != ep.name {
            flow_note_delivered(ep, frag.from);
        }
        maybe_complete(proc, ep, rid);
        return;
    }

    // --- rendezvous remainder ---
    // The sender may be from another job (dynamic spawn) and unknown to us
    // until now: resolve its addressing before replying.
    ensure_peer(proc, ep, frag.from);
    let peer = {
        let mut st = ep.state.lock();
        st.peer(&frag.from).cloned().expect("unresolved peer")
    };
    proc.advance(ep.cfg.host.sched);
    let remainder = msg_len - inline_len;
    let Some((elan_share, tcp_share)) = plan_remainder(ep, &peer, remainder) else {
        // No transport can carry the remainder: the receive completes with
        // an error status and the sender is told (best effort) to give up
        // on its request too, instead of panicking either rank.
        send_nack(proc, ep, &peer, hdr.send_req, 0, MpiErrClass::NoTransport);
        fail_request(proc, ep, rid, MpiErrClass::NoTransport);
        return;
    };
    let pull_elan = ep.cfg.scheme == RdmaScheme::Read && elan_share > 0;
    // Pipelined pull: the local destination is registered chunk by chunk by
    // the chunk engine (overlapped with the pulls), so the full-region map
    // below is skipped. The sender's side stays one contiguous mapping —
    // the remote side of an RDMA must translate in a single mapping.
    let pipe_read = pull_elan && pipe_eligible(ep, elan_share);

    // Expose the destination region when RDMA will land data here. The
    // mapping charges time, so it happens *outside* the state lock: read
    // the region under the lock, register, then publish the result —
    // tolerating the request having been raced to a mapping or failed in
    // the meantime.
    let dst_e4 = if remainder > 0
        && ((pull_elan && !pipe_read) || (ep.cfg.scheme == RdmaScheme::Write && elan_share > 0))
    {
        let info = {
            let st = ep.state.lock();
            st.reqs
                .get(&rid)
                .map(|r| (r.e4, r.region(), r.bounce.is_none()))
        };
        let Some((have, region, cacheable)) = info else {
            // Failed while the match was in flight.
            return;
        };
        let e4 = match have {
            Some(e4) => e4,
            None => {
                let fresh = expose(proc, ep, gid, &region, remainder, cacheable, false);
                match store_mapping(proc, ep, rid, &region, fresh) {
                    Some(e4) => e4,
                    // Failed (or reaped) while we were mapping: nothing
                    // left to pull into.
                    None => return,
                }
            }
        };
        proc.advance(ep.cfg.host.req_bookkeep);
        Some(e4)
    } else {
        None
    };

    match ep.cfg.scheme {
        RdmaScheme::Read => {
            if pull_elan {
                // Pull the Elan share straight out of the sender's exposed
                // region; FIN_ACK acknowledges rendezvous + inline + pulled
                // bytes in one control message (Fig. 4).
                let src_e4 = E4Addr::from_raw(Vpid(hdr.e4_vpid), hdr.e4_va);
                let credit = inline_len + elan_share;
                if pipe_read {
                    // Chunked pull: register the landing region piece by
                    // piece, overlapped with the in-flight pulls; the
                    // FIN_ACK rides the final chunk. A receive failed while
                    // the match was scheduled takes no credits.
                    let live = ep
                        .state
                        .lock()
                        .reqs
                        .get(&rid)
                        .is_some_and(|r| !r.phase.is_done());
                    if live {
                        pipe_start(
                            proc,
                            ep,
                            rid,
                            src_e4.offset(inline_len),
                            inline_len,
                            elan_share,
                            fin_ack_with_credits(ep, frag.from, hdr.send_req, credit),
                        );
                    }
                } else {
                    issue_rdma(
                        proc,
                        ep,
                        &peer,
                        gid,
                        DmaKind::Read,
                        dst_e4.unwrap().offset(inline_len),
                        src_e4.offset(inline_len),
                        elan_share,
                        DmaRole::new(rid, elan_share, true),
                        fin_ack_with_credits(ep, frag.from, hdr.send_req, credit),
                    );
                    ep.metric(|m| m.counters.rdma_read_batches += 1);
                }
            } else if let Some(route) = first_route(ep, &peer) {
                // Nothing to pull: acknowledge the rendezvous (and the
                // inline bytes) immediately. An unroutable peer just means
                // the FIN_ACK stays unsent; its side degrades on timeout.
                proc.advance(ep.cfg.host.hdr_build);
                send_ctl(
                    proc,
                    ep,
                    &peer,
                    route,
                    fin_ack_with_credits(ep, frag.from, hdr.send_req, inline_len),
                );
                ep.trace(
                    proc.now(),
                    crate::trace::TraceEvent::ControlSent {
                        gid,
                        kind: "FinAck",
                    },
                );
            }
            if tcp_share > 0 {
                // Ask the sender to push the TCP share.
                let mut ack = Hdr::new(HdrType::Ack);
                ack.ctx = ctx;
                ack.send_req = hdr.send_req;
                ack.recv_req = rid;
                ack.offset = (inline_len + elan_share) as u64;
                ack.msg_len = tcp_share as u64;
                stamp_ack_credits(ep, frag.from, &mut ack);
                proc.advance(ep.cfg.host.hdr_build);
                send_ctl(proc, ep, &peer, Route::Tcp, ack);
            }
        }
        RdmaScheme::Write => {
            // Expose the destination and let the sender drive everything
            // (Fig. 3). `seq` carries the inline credit.
            let mut ack = Hdr::new(HdrType::Ack);
            ack.ctx = ctx;
            ack.send_req = hdr.send_req;
            ack.recv_req = rid;
            ack.offset = inline_len as u64;
            ack.msg_len = remainder as u64;
            ack.seq = inline_len as u32;
            stamp_ack_credits(ep, frag.from, &mut ack);
            if let Some(e4) = dst_e4 {
                ack.e4_va = e4.value();
                ack.e4_vpid = e4.owner().raw();
            }
            if send_control(proc, ep, &peer, ack) {
                ep.trace(
                    proc.now(),
                    crate::trace::TraceEvent::ControlSent { gid, kind: "Ack" },
                );
            }
        }
    }
    maybe_complete(proc, ep, rid);
}

/// Sender side: the receiver acknowledged a rendezvous (write scheme), or
/// asked for a TCP push of part of the message (read-scheme striping).
fn handle_ack(proc: &Proc, ep: &Rc<Endpoint>, hdr: Hdr) {
    let host = ep.cfg.host.clone();
    let sid = hdr.send_req;
    // `seq` packs the inline-byte credit in its low half and piggybacked
    // flow-control credits in its high half.
    let credit = crate::hdr::ack_inline_len(hdr.seq) as usize;
    let piggyback = crate::hdr::ack_credits(hdr.seq);
    let range_start = hdr.offset as usize;
    let range_len = hdr.msg_len as usize;

    let Some((peer, src_e4, src_region, cacheable, msg_len, gid)) = ({
        let mut st = ep.state.lock();
        match st.req_of(ReqKind::Send, sid) {
            Some(r) => {
                r.bytes_done += credit;
                let env = r.envelope.expect("a send has its envelope from post time");
                let src_e4 = r.e4;
                let region = r.region();
                let cacheable = r.bounce.is_none();
                let gid = r.gid;
                let peer = st.peer(&env.peer).cloned().expect("unresolved peer");
                Some((peer, src_e4, region, cacheable, env.len, gid))
            }
            None => None,
        }
    }) else {
        return;
    };
    first_receiver_contact(proc, ep, sid);
    if piggyback > 0 {
        flow_credits_in(proc, ep, peer.name, piggyback as usize);
    }

    if range_start + range_len > msg_len {
        // A protocol invariant broke: the ACK describes a transfer range
        // outside the message. Abandon the request (and tell the receiver
        // to do the same) instead of panicking the rank.
        send_nack(proc, ep, &peer, 0, hdr.recv_req, MpiErrClass::Internal);
        fail_request(proc, ep, sid, MpiErrClass::Internal);
        return;
    }

    if range_len > 0 {
        proc.advance(host.sched);
        let (elan_share, tcp_share) = match ep.cfg.scheme {
            // In the read scheme the receiver pulls the Elan share itself;
            // an ACK only ever covers the TCP share.
            RdmaScheme::Read => (0, range_len),
            RdmaScheme::Write => match plan_remainder(ep, &peer, range_len) {
                Some(split) => split,
                None => {
                    // No transport for the bulk bytes: degrade both sides
                    // instead of panicking.
                    send_nack(proc, ep, &peer, 0, hdr.recv_req, MpiErrClass::NoTransport);
                    fail_request(proc, ep, sid, MpiErrClass::NoTransport);
                    return;
                }
            },
        };
        if elan_share > 0 {
            let dst_e4 = E4Addr::from_raw(Vpid(hdr.e4_vpid), hdr.e4_va);
            let mut fin = Hdr::new(HdrType::Fin);
            fin.recv_req = hdr.recv_req;
            fin.offset = elan_share as u64;
            if src_e4.is_none() && pipe_eligible(ep, elan_share) {
                // Chunked push: the source was left unregistered at post
                // time; register it piece by piece, overlapped with the
                // in-flight writes. The FIN rides the final chunk.
                pipe_start(
                    proc,
                    ep,
                    sid,
                    dst_e4.offset(range_start),
                    range_start,
                    elan_share,
                    fin,
                );
            } else {
                // Monolithic write: the whole source must be exposed. The
                // write scheme defers the post-time map, so acquire it
                // lazily here, tolerating the request having been raced to
                // a mapping or failed while registering.
                let src_e4 = match src_e4 {
                    Some(e4) => e4,
                    None => {
                        let fresh = expose(proc, ep, gid, &src_region, elan_share, cacheable, true);
                        match store_mapping(proc, ep, sid, &src_region, fresh) {
                            Some(e4) => e4,
                            // Failed (or reaped) while we were mapping.
                            None => return,
                        }
                    }
                };
                issue_rdma(
                    proc,
                    ep,
                    &peer,
                    gid,
                    DmaKind::Write,
                    src_e4.offset(range_start),
                    dst_e4.offset(range_start),
                    elan_share,
                    DmaRole::new(sid, elan_share, false),
                    fin,
                );
                ep.metric(|m| m.counters.rdma_write_batches += 1);
            }
        }
        if tcp_share > 0 {
            // Push fragments over TCP, paced by the chunk engine's depth
            // knob: `handle_ack` no longer fragments the whole share in one
            // unbounded loop — the push is parked and drained a bounded
            // burst per progress pass (buffered semantics still credit each
            // fragment at issue).
            let start = range_start + elan_share;
            ep.state.lock().tcp_pushes.push(TcpPush {
                send_req: sid,
                recv_req: hdr.recv_req,
                next_off: start,
                end: start + tcp_share,
            });
            tcp_push_pump(proc, ep);
        }
    }
    maybe_complete(proc, ep, sid);
}

/// A pushed fragment landed (TCP path).
fn handle_frag(proc: &Proc, ep: &Rc<Endpoint>, hdr: Hdr, payload: Vec<u8>) {
    {
        let mut st = ep.state.lock();
        let Some(r) = st.req_of(ReqKind::Recv, hdr.recv_req) else {
            return;
        };
        write_packed(ep, r, hdr.offset as usize, &payload);
    }
    proc.advance(ep.memcpy_cost(payload.len()));
    credit(proc, ep, ReqKind::Recv, hdr.recv_req, payload.len());
}

/// A local DMA descriptor completed (observed via event poll or a
/// shared-completion-queue token). `token` identifies the burst so its
/// trace span can be closed.
fn dma_done(proc: &Proc, ep: &Rc<Endpoint>, token: u64, role: DmaRole) {
    // Attribute the completion to its message: the role names the owning
    // request, whose state carries the globally unique id.
    let gid = ep.state.lock().reqs.get(&role.req).map_or(0, |r| r.gid);
    let (bytes, kind) = (role.bytes, role.served());
    ep.trace(proc.now(), crate::trace::TraceEvent::DmaDone { gid, bytes });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanEnd {
            id: token,
            cat: "rdma",
            name: "rdma_burst",
        },
    );
    if role.chunk {
        pipe_chunk_landed(proc, ep, role.req, token, bytes, kind);
        return;
    }
    if let Some((to, hdr)) = role.ctl {
        send_unchained(proc, ep, to, hdr);
    }
    credit(proc, ep, kind, role.req, bytes);
}

// ---------------------------------------------------------------------------
// credits & completion
// ---------------------------------------------------------------------------

/// Credit `bytes` done to request `id` if it is of `kind`: bytes landed in
/// a receive, or confirmed delivered for a send. Crediting a send is also
/// how it hears from its receiver.
fn credit(proc: &Proc, ep: &Rc<Endpoint>, kind: ReqKind, id: u64, bytes: usize) {
    let credited = {
        let mut st = ep.state.lock();
        st.req_of(kind, id).map(|r| r.bytes_done += bytes).is_some()
    };
    if !credited {
        return;
    }
    if kind == ReqKind::Send {
        first_receiver_contact(proc, ep, id);
    }
    maybe_complete(proc, ep, id);
}

/// The first time a rendezvous sender hears back from the receiver (ACK in
/// the write scheme, FIN_ACK in the read scheme) closes the handshake: the
/// send is matched, and the histogram sample and the `rndv` trace span
/// both end here.
fn first_receiver_contact(proc: &Proc, ep: &Rc<Endpoint>, sid: u64) {
    let posted_at = {
        let mut st = ep.state.lock();
        match st.reqs.get_mut(&sid) {
            Some(r) if r.phase == Phase::Posted => {
                r.phase = Phase::Matched;
                Some(r.posted_at)
            }
            _ => None,
        }
    };
    let Some(posted_at) = posted_at else { return };
    // The phase change above is protocol state; only the telemetry below
    // is gated.
    if !ep.tunables.metrics() && !ep.tunables.trace() {
        return;
    }
    ep.metric(|m| {
        m.rndv_handshake
            .record(proc.now().saturating_sub(posted_at))
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanEnd {
            id: sid,
            cat: "rndv",
            name: "rndv_handshake",
        },
    );
}

/// Finish request `id` once every byte of its envelope is done: unpack a
/// non-contiguous receive's bounce buffer, mark the request done, give
/// back what it held, then bookkeeping, the completion-time sample, the
/// `Completed` event and the waiter wakeup.
fn maybe_complete(proc: &Proc, ep: &Rc<Endpoint>, id: u64) {
    let unpack_cost = {
        let st = ep.state.lock();
        let Some(r) = st.reqs.get(&id).filter(|r| !r.phase.is_done()) else {
            return;
        };
        let Some(len) = r.envelope.map(|e| e.len).filter(|&len| len <= r.bytes_done) else {
            return;
        };
        // Each typemap segment is copied straight from the packed stream
        // into the user buffer, up to the message's end, leaving the gaps
        // between them as they were.
        r.recv.as_ref().zip(r.bounce).map(|(sel, bounce)| {
            let mut packed = 0;
            for (off, seg_len) in sel.conv.segments() {
                if packed == len {
                    break;
                }
                let take = seg_len.min(len - packed);
                ep.ectx.copy(&bounce, packed, &r.buf, off, take);
                packed += take;
            }
            assert_eq!(packed, len, "packed bytes did not fit typemap");
            ep.cfg.copy.convertor(&sel.conv, len)
        })
    };
    if let Some(cost) = unpack_cost {
        proc.advance(cost);
    }
    let (held, posted_at, gid, send) = {
        let mut st = ep.state.lock();
        // Reaped, or completed with an error by a failure path that ran
        // during the unpack's advance: the request is already finished.
        let Some(r) = st.reqs.get_mut(&id).filter(|r| !r.phase.is_done()) else {
            return;
        };
        r.phase = Phase::Done(None);
        (Held::of(r), r.posted_at, r.gid, r.is_send())
    };
    held.release(proc, ep);
    proc.advance(ep.cfg.host.req_bookkeep);
    ep.metric(|m| {
        m.completion_time
            .record(proc.now().saturating_sub(posted_at))
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::Completed { req: id, gid, send },
    );
    notify_waiters(proc, ep);
}

/// What a finished request gives back: its mapping of `region`, released
/// to the pin-down cache or unmapped, and its bounce buffer.
struct Held {
    region: HostBuf,
    e4: Option<E4Addr>,
    bounce: Option<HostBuf>,
}

impl Held {
    fn of(r: &mut Req) -> Held {
        Held {
            region: r.region(),
            e4: r.e4.take(),
            bounce: r.bounce.take(),
        }
    }

    /// The one release path of success and failure alike: a finished
    /// request must not leak its registration or its bounce buffer.
    fn release(self, proc: &Proc, ep: &Rc<Endpoint>) {
        if let Some(e4) = self.e4 {
            crate::regcache::release(proc, ep, &self.region, e4);
        }
        if let Some(b) = self.bounce {
            flow_bounce_free(ep, b);
        }
    }
}

fn notify_waiters(proc: &Proc, ep: &Rc<Endpoint>) {
    let waiters = std::mem::take(&mut ep.state.lock().waiters);
    let sim = proc.sim();
    for w in waiters {
        w.notify(&sim);
    }
}

// ---------------------------------------------------------------------------
// exposing buffers for RDMA
// ---------------------------------------------------------------------------

/// Expose `bytes` of `region` under an E4 address (paper §4.2). A user
/// buffer (`cacheable`) goes through the pin-down cache; a bounce buffer is
/// freed on completion, so caching its mapping would go stale, and it is
/// mapped directly. With `bookkeep`, the MMU table bookkeeping is charged
/// first, inside the traced window; the `Registered` event's `cost_ns`
/// (critpath's `registration` stage) covers that window.
fn expose(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    gid: u64,
    region: &HostBuf,
    bytes: usize,
    cacheable: bool,
    bookkeep: bool,
) -> E4Addr {
    let t0 = proc.now();
    if bookkeep {
        proc.advance(ep.cfg.host.req_bookkeep);
    }
    let e4 = if cacheable {
        crate::regcache::acquire(proc, ep, region)
    } else {
        ep.ectx.map(proc, region)
    };
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::Registered {
            gid,
            bytes,
            cost_ns: proc.now().saturating_sub(t0).as_ns(),
        },
    );
    e4
}

/// Store `fresh`, a mapping of `region` made outside the state lock, in
/// request `id`'s slot, and return the mapping the request now holds: a
/// racing path may have stored one first (that one stays), or the request
/// may have failed or been reaped meanwhile (`None`). `fresh` is released
/// whenever it was not stored.
fn store_mapping(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    id: u64,
    region: &HostBuf,
    fresh: E4Addr,
) -> Option<E4Addr> {
    let (held, stored) = {
        let mut st = ep.state.lock();
        match st.reqs.get_mut(&id).filter(|r| !r.phase.is_done()) {
            Some(r) => {
                let stored = r.e4.is_none();
                (Some(*r.e4.get_or_insert(fresh)), stored)
            }
            None => (None, false),
        }
    };
    if !stored {
        crate::regcache::release(proc, ep, region, fresh);
    }
    held
}

// ---------------------------------------------------------------------------
// transport primitives
// ---------------------------------------------------------------------------

/// Pick the first-fragment transport: the lowest-latency *active*
/// component that can reach the peer (paper §2.1's first heuristic), the
/// first in registry order among equals. `None` when no common transport
/// exists — the caller degrades the request to an error completion
/// instead of panicking the rank.
fn first_route(ep: &Rc<Endpoint>, peer: &crate::peer::PeerInfo) -> Option<Route> {
    let reg = ep.ptls.lock();
    reg.active()
        .filter_map(|info| match info.kind {
            crate::ptl::PtlKind::Elan4 { rail } if peer.elan.is_some() => {
                Some((info.latency_rank, Route::Elan { rail }))
            }
            crate::ptl::PtlKind::Tcp if peer.tcp.is_some() => Some((info.latency_rank, Route::Tcp)),
            _ => None,
        })
        // `min_by_key` keeps the first of equal keys.
        .min_by_key(|&(rank, _)| rank)
        .map(|(_, route)| route)
}

/// Send a payload-free control frame.
fn send_ctl(proc: &Proc, ep: &Rc<Endpoint>, peer: &crate::peer::PeerInfo, route: Route, hdr: Hdr) {
    send_frame(proc, ep, peer, route, hdr, frame_with_room(0));
}

/// Send a control frame on the first route to `peer`, charging its header
/// build. `false` when no transport reaches the peer: the frame stays
/// unsent and the peer's side degrades on its own timeout.
fn send_control(proc: &Proc, ep: &Rc<Endpoint>, peer: &crate::peer::PeerInfo, hdr: Hdr) -> bool {
    let Some(route) = first_route(ep, peer) else {
        return false;
    };
    proc.advance(ep.cfg.host.hdr_build);
    send_ctl(proc, ep, peer, route, hdr);
    true
}

/// Send the FIN or FIN_ACK that did not ride its RDMA's completion
/// (`pml.chained_fin` off): the host sends it once it has seen the
/// transfer land.
fn send_unchained(proc: &Proc, ep: &Rc<Endpoint>, to: ProcName, hdr: Hdr) {
    let peer = ep.state.lock().peer(&to).cloned();
    if let Some(peer) = peer {
        send_control(proc, ep, &peer, hdr);
    }
}

/// Stamp `hdr` into the reserved prefix of `frame` (see
/// [`frame_with_room`]) and put the frame on the wire. The buffer itself
/// travels on: into the peer's receive queue or TCP inbox, where
/// `dispatch` strips the header in place.
fn send_frame(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    peer: &crate::peer::PeerInfo,
    route: Route,
    mut hdr: Hdr,
    mut frame: Vec<u8>,
) {
    let payload = &frame[HDR_LEN..];
    hdr.payload_len = payload.len() as u32;
    if ep.cfg.integrity_check && !payload.is_empty() {
        hdr.checksum = crate::hdr::fletcher16(payload);
        proc.advance(checksum_cost(payload.len()));
    }
    // Sequence-stamp TCP-routed control frames (the reliability layer):
    // the per-peer rel_seq rides the tag bytes — unused by every control
    // handler — and the origin identity rides ctx/src_rank so the receiver
    // can receipt and deduplicate. Elan-routed control frames ride reliable
    // hardware and stay unstamped (tag 0).
    let reliable =
        matches!(route, Route::Tcp) && ep.cfg.tcp_reliability && control_kind(hdr.kind).is_some();
    if reliable {
        let rel_seq = {
            let mut st = ep.state.lock();
            let e = st.ctl_next_seq.entry(peer.name).or_insert(0);
            *e += 1;
            *e
        };
        hdr.tag = rel_seq as i32;
        hdr.ctx = ep.name.job.0;
        hdr.src_rank = ep.name.rank as u32;
    }
    frame[..HDR_LEN].copy_from_slice(&hdr.to_bytes());
    if ep.tunables.metrics() {
        if let Some(kind) = control_kind(hdr.kind) {
            ep.metric(|m| m.counters.control(kind));
        }
        let kind = match route {
            Route::Elan { rail } => crate::ptl::PtlKind::Elan4 { rail },
            Route::Tcp => crate::ptl::PtlKind::Tcp,
        };
        ep.ptls.lock().charge(kind, frame.len());
    }
    match route {
        Route::Elan { rail } => {
            let e = peer.elan.as_ref().expect("peer has no elan address");
            ep.ectx.qdma(proc, rail, e.vpid, e.main_q, frame, None);
        }
        Route::Tcp => {
            if reliable {
                let rel_seq = hdr.tag as u32;
                let timeout = ep.tunables.tcp_retransmit_timeout();
                let deadline = proc.now() + timeout;
                ep.state.lock().ctl_inflight.push(InflightCtl {
                    peer: peer.name,
                    rel_seq,
                    kind: hdr.kind,
                    frame: frame.clone(),
                    attempts: 0,
                    timeout,
                    deadline,
                });
                ep.trace(
                    proc.now(),
                    crate::trace::TraceEvent::SpanBegin {
                        id: rel_span_id(peer.name, rel_seq),
                        cat: "rel",
                        name: "ctl_inflight",
                    },
                );
            }
            let net = ep.tcp_net.as_ref().expect("tcp not enabled");
            net.send(proc, ep.cluster.cfg(), ep.node, peer.name, frame);
        }
    }
}

/// Split `len` bulk bytes between the RDMA-capable components (Elan rails)
/// and the push components (TCP) by their registered bandwidth weights
/// (paper §2.1's second heuristic). `None` when no transport can carry the
/// bulk bytes — the caller degrades the request instead of panicking.
fn plan_remainder(
    ep: &Rc<Endpoint>,
    peer: &crate::peer::PeerInfo,
    len: usize,
) -> Option<(usize, usize)> {
    if len == 0 {
        return Some((0, 0));
    }
    let reg = ep.ptls.lock();
    let ew = if peer.elan.is_some() {
        reg.rdma_weight()
    } else {
        0
    };
    let tw = if peer.tcp.is_some() {
        reg.total_weight() - reg.rdma_weight()
    } else {
        0
    };
    match (ew > 0, tw > 0) {
        (true, false) => Some((len, 0)),
        (false, true) => Some((0, len)),
        (true, true) => {
            let elan = (len as u64 * ew / (ew + tw)) as usize;
            Some((elan, len - elan))
        }
        (false, false) => None,
    }
}

/// Issue RDMA chunks for one share, armed by [`arm_descriptor`]; without
/// `pml.chained_fin` the role carries `control` for the host to send.
#[expect(clippy::too_many_arguments)]
fn issue_rdma(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    peer: &crate::peer::PeerInfo,
    gid: u64,
    kind: DmaKind,
    local: E4Addr,
    remote: E4Addr,
    len: usize,
    mut role: DmaRole,
    control: Hdr,
) {
    let chunks = rail_chunks(len, ep.transports.elan_rails);
    let nchunks = chunks.len().max(1) as u32;
    let (event, token) = arm_descriptor(ep, peer, nchunks, Some(&control));
    let done = event.event_ref();
    if !ep.cfg.chained_fin {
        role.ctl = Some((peer.name, control));
    }

    ep.state
        .lock()
        .pending_dmas
        .push(PendingDma { token, event, role });

    ep.metric(|m| {
        m.counters.rdma_descriptors += nchunks as u64;
        m.counters.rdma_bytes += len as u64;
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::RdmaIssued {
            gid,
            read: kind == DmaKind::Read,
            bytes: len,
        },
    );
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanBegin {
            id: token,
            cat: "rdma",
            name: "rdma_burst",
        },
    );
    // Fire the descriptors, striped across rails (rail_chunks never emits
    // zero-length chunks). The pending record owns the event; the
    // descriptors name it by its `EventRef`.
    for (rail, (off, chunk_len)) in chunks.enumerate() {
        ep.ectx.rdma(
            proc,
            rail,
            kind,
            local.offset(off),
            remote.offset(off),
            chunk_len,
            Some(done),
        );
    }
}

/// Arm a fresh completion event for `nchunks` descriptors and allocate its
/// token. The FIN/FIN_ACK `control`, if any, is chained to the event when
/// `pml.chained_fin` is on — the paper's optimization: the NIC fires it off
/// the final RDMA without host involvement; it bypasses `send_frame`, so
/// its control counter is bumped here. The completion itself reaches the
/// host per `ptl.completion_mode`: the doorbell (and interrupt) the host
/// polls or sleeps on, or a small QDMA chained into the shared completion
/// queue (Fig. 6), where many outstanding RDMAs funnel into one
/// host-waitable queue.
fn arm_descriptor(
    ep: &Rc<Endpoint>,
    peer: &crate::peer::PeerInfo,
    nchunks: u32,
    control: Option<&Hdr>,
) -> (elan4::ElanEvent, u64) {
    let event = ep.ectx.event_create(nchunks);
    let e_peer = peer.elan.as_ref().expect("rdma to a peer without elan");
    if let Some(ctl) = control.filter(|_| ep.cfg.chained_fin) {
        if let Some(kind) = control_kind(ctl.kind) {
            ep.metric(|m| m.counters.control(kind));
        }
        event.chain_qdma(QdmaSpec::to_queue(
            e_peer.vpid,
            e_peer.main_q,
            ctl.frame(&[]),
            0,
        ));
    }
    let token = ep.state.lock().alloc_dma_token();
    match ep.cfg.completion {
        CompletionMode::PollEvent => arm_doorbell(ep, &event),
        CompletionMode::SharedQueueCombined | CompletionMode::SharedQueueSeparate => {
            let my_elan = ep.my_info.elan.as_ref().unwrap();
            let q = if ep.cfg.completion == CompletionMode::SharedQueueSeparate {
                my_elan.comp_q.expect("two-queue mode without a comp queue")
            } else {
                my_elan.main_q
            };
            let mut tok_hdr = Hdr::new(HdrType::Completion);
            tok_hdr.e4_va = token;
            ep.metric(|m| m.counters.control(ControlKind::Completion));
            event.chain_qdma(QdmaSpec::to_queue(my_elan.vpid, q, tok_hdr.frame(&[]), 0));
        }
    }
    (event, token)
}

/// Have `event`'s fire ring the progress doorbell the host polls or sleeps
/// on, and raise an interrupt under interrupt progress.
pub(crate) fn arm_doorbell(ep: &Endpoint, event: &elan4::ElanEvent) {
    if let Some(bell) = ep.doorbell() {
        event.set_signal(bell);
    }
    if ep.cfg.progress == ProgressMode::Interrupt {
        event.arm_irq(true);
    }
}

// ---------------------------------------------------------------------------
// pipelined rendezvous: chunked RDMA with registration/transfer overlap
// ---------------------------------------------------------------------------

/// Is an Elan bulk share worth pipelining? The share's size alone decides,
/// against the runtime tunables: at least `pipe.min_len`, and spanning more
/// than one chunk (a single chunk is the monolithic path with extra
/// bookkeeping).
fn pipe_eligible(ep: &Rc<Endpoint>, elan_share: usize) -> bool {
    elan_share >= ep.tunables.pipeline_min_len() && elan_share > ep.tunables.pipeline_chunk()
}

/// Begin request `req`'s pipelined bulk transfer (a receive pulls, a send
/// pushes) and issue its first window of chunks. `remote` addresses the
/// first bulk byte on the peer — one contiguous peer mapping, because the
/// remote side of an RDMA must translate within a single mapping; only the
/// local, DMA-issuing side is chunked. `base_off` locates that byte in the
/// request's packed region. A request that already finished starts
/// nothing, as [`store_mapping`] stores nothing for it.
fn pipe_start(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    req: u64,
    remote: E4Addr,
    base_off: usize,
    total: usize,
    fin: Hdr,
) {
    let pull = {
        let mut st = ep.state.lock();
        let Some(r) = st.reqs.get(&req).filter(|r| !r.phase.is_done()) else {
            return;
        };
        let pull = !r.is_send();
        let ps = PipeState {
            remote,
            base_off,
            total,
            chunk: ep.tunables.pipeline_chunk(),
            depth: ep.tunables.pipeline_depth(),
            next_off: 0,
            landed: 0,
            inflight: Vec::new(),
            per_rail: vec![0; ep.transports.elan_rails.max(1)],
            staged_final: None,
            fin,
            next_rail: 0,
        };
        st.pipelines.insert(req, ps);
        pull
    };
    ep.metric(|m| {
        if pull {
            m.counters.rdma_read_batches += 1;
        } else {
            m.counters.rdma_write_batches += 1;
        }
        m.counters.pipe_started += 1;
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanBegin {
            id: req,
            cat: "pipe",
            name: "pipe_transfer",
        },
    );
    pipe_pump(proc, ep, req);
}

/// One scheduling step the pump decided on (computed under the state lock,
/// executed outside it — registration and descriptor issue both consume
/// virtual time).
enum PipeStep {
    /// Register and issue the chunk at `off`.
    Mid {
        off: usize,
        len: usize,
        rail: usize,
        overlap: bool,
    },
    /// Register the final chunk's mapping ahead of time (no descriptor).
    Stage {
        off: usize,
        len: usize,
        overlap: bool,
    },
    /// Issue the final chunk from its staged mapping, with the control.
    Last {
        off: usize,
        len: usize,
        rail: usize,
        sub: HostBuf,
        e4: E4Addr,
    },
    /// Window full (or waiting out the hold-back) — nothing to do.
    Idle,
}

/// Round-robin rail choice honoring the per-rail in-flight cap.
fn pipe_pick_rail(ps: &mut PipeState) -> Option<usize> {
    let rails = ps.per_rail.len();
    for i in 0..rails {
        let r = (ps.next_rail + i) % rails;
        if ps.per_rail[r] < ps.depth {
            ps.next_rail = (r + 1) % rails;
            return Some(r);
        }
    }
    None
}

/// Keep one pipeline's window full: issue chunk descriptors while the
/// per-rail in-flight window has room, registering each next chunk while
/// earlier ones are on the wire — the overlap this engine exists for.
///
/// The final chunk carries the chained FIN/FIN_ACK, and chunks complete out
/// of order across rails, so it is *held back* until every other chunk has
/// landed (the peer must not see the control — and release its mapping —
/// while data is still in flight). Its registration is staged ahead of
/// time, so the hold-back tail costs one descriptor issue, not a map.
/// Depth 1 on one rail degenerates to strictly sequential chunks with the
/// same message semantics as the monolithic path.
fn pipe_pump(proc: &Proc, ep: &Rc<Endpoint>, req: u64) -> bool {
    let mut worked = false;
    loop {
        let dma_cap = ep.tunables.flow_dma_cap();
        let (step, peer, info) = {
            let mut guard = ep.state.lock();
            let st = &mut *guard;
            // Endpoint-wide outstanding-DMA cap: when flow control is on,
            // a full descriptor window idles the pump (non-blocking — the
            // next completion or progress pass refills it).
            let throttled =
                ep.tunables.flow_enable() && dma_cap > 0 && st.pending_dmas.len() >= dma_cap;
            // The request gives the direction, the message id, the peer and
            // the region; every path that finishes it drops its pipeline.
            let (Some(ps), Some(r)) = (st.pipelines.get_mut(&req), st.reqs.get(&req)) else {
                return worked;
            };
            let final_off = ps.final_off();
            let step = if throttled {
                PipeStep::Idle
            } else if ps.next_off < final_off {
                match pipe_pick_rail(ps) {
                    Some(rail) => {
                        let off = ps.next_off;
                        let len = ps.chunk.min(final_off - off);
                        ps.next_off += len;
                        ps.per_rail[rail] += 1;
                        PipeStep::Mid {
                            off,
                            len,
                            rail,
                            overlap: !ps.inflight.is_empty(),
                        }
                    }
                    None => PipeStep::Idle,
                }
            } else if ps.next_off == final_off && ps.staged_final.is_none() {
                PipeStep::Stage {
                    off: final_off,
                    len: ps.total - final_off,
                    overlap: !ps.inflight.is_empty(),
                }
            } else if ps.next_off == final_off {
                // The final chunk may launch once the chained control can
                // no longer overtake data: either the window is empty, or
                // everything still in flight rides ONE rail and the final
                // chunk queues behind it (per-rail bus ordering makes its
                // completion — and thus the chained FIN/FIN_ACK — strictly
                // later).
                let rail = match ps.inflight.as_slice() {
                    [] => pipe_pick_rail(ps),
                    [first, rest @ ..] if rest.iter().all(|c| c.rail == first.rail) => {
                        (ps.per_rail[first.rail] < ps.depth).then_some(first.rail)
                    }
                    _ => None,
                };
                match rail {
                    Some(rail) => {
                        let (sub, e4) = ps.staged_final.take().unwrap();
                        ps.next_off = ps.total;
                        ps.per_rail[rail] += 1;
                        PipeStep::Last {
                            off: final_off,
                            len: ps.total - final_off,
                            rail,
                            sub,
                            e4,
                        }
                    }
                    None => PipeStep::Idle,
                }
            } else {
                PipeStep::Idle
            };
            let peer = r.envelope.expect("a piped request has its envelope").peer;
            let info = (
                r.region(),
                ps.base_off,
                r.bounce.is_none(),
                ps.remote,
                !r.is_send(),
                ps.fin.clone(),
                r.gid,
            );
            (step, st.peer(&peer).cloned(), info)
        };
        let Some(peer) = peer else { return worked };
        let (region, base_off, cacheable, remote, is_read, fin, gid) = info;
        match step {
            PipeStep::Idle => return worked,
            PipeStep::Stage { off, len, overlap } => {
                let sub = region.slice(base_off + off, len);
                let e4 = pipe_register(proc, ep, gid, &sub, cacheable, overlap);
                let parked = {
                    let mut st = ep.state.lock();
                    match st.pipelines.get_mut(&req) {
                        Some(ps) => {
                            ps.staged_final = Some((sub, e4));
                            true
                        }
                        None => false,
                    }
                };
                if !parked {
                    // Torn down while registering: nothing references the
                    // staged mapping any more.
                    crate::regcache::release(proc, ep, &sub, e4);
                    return worked;
                }
                worked = true;
            }
            PipeStep::Mid {
                off,
                len,
                rail,
                overlap,
            } => {
                let sub = region.slice(base_off + off, len);
                let e4 = pipe_register(proc, ep, gid, &sub, cacheable, overlap);
                pipe_issue_chunk(
                    proc, ep, &peer, req, is_read, rail, sub, e4, remote, off, len, None,
                );
                worked = true;
            }
            PipeStep::Last {
                off,
                len,
                rail,
                sub,
                e4,
            } => {
                pipe_issue_chunk(
                    proc,
                    ep,
                    &peer,
                    req,
                    is_read,
                    rail,
                    sub,
                    e4,
                    remote,
                    off,
                    len,
                    Some(fin),
                );
                worked = true;
            }
        }
    }
}

/// Register one chunk's sub-buffer, charging the same request-bookkeeping
/// cost the monolithic path pays per mapping. Registration time spent while
/// other chunks are on the wire is the overlap the engine exists to win —
/// count it.
fn pipe_register(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    gid: u64,
    sub: &HostBuf,
    cacheable: bool,
    overlap: bool,
) -> E4Addr {
    let t0 = proc.now();
    let e4 = expose(proc, ep, gid, sub, sub.len, cacheable, true);
    if overlap {
        let dt = proc.now().saturating_sub(t0);
        ep.metric(|m| m.counters.pipe_reg_overlap_ns += dt.as_ns());
    }
    e4
}

/// Create the completion event, attach the chained control on the final
/// chunk, publish the in-flight record, and fire one chunk descriptor.
#[expect(clippy::too_many_arguments)]
fn pipe_issue_chunk(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    peer: &crate::peer::PeerInfo,
    req: u64,
    is_read: bool,
    rail: usize,
    sub: HostBuf,
    e4: E4Addr,
    remote: E4Addr,
    off: usize,
    len: usize,
    fin: Option<Hdr>,
) {
    // Unchained, the control stays in the pipe state, and
    // `pipe_chunk_landed` sends it from the host when the final chunk lands.
    let (event, token) = arm_descriptor(ep, peer, 1, fin.as_ref());
    let last = fin.is_some();
    // Publish the chunk, tolerating the pipeline having been torn down
    // while its mapping was acquired.
    let depth_now = {
        let mut guard = ep.state.lock();
        let st = &mut *guard;
        match (st.pipelines.get_mut(&req), st.reqs.get(&req)) {
            (Some(ps), Some(r)) => {
                ps.inflight.push(PipeChunk {
                    token,
                    sub,
                    e4,
                    rail,
                });
                Some((ps.inflight.len(), r.gid))
            }
            _ => None,
        }
    };
    let Some((depth_now, gid)) = depth_now else {
        crate::regcache::release(proc, ep, &sub, e4);
        event.free();
        return;
    };
    let done = event.event_ref();
    ep.state.lock().pending_dmas.push(PendingDma {
        token,
        event,
        role: DmaRole {
            chunk: true,
            ..DmaRole::new(req, len, is_read)
        },
    });
    ep.metric(|m| {
        m.counters.rdma_descriptors += 1;
        m.counters.rdma_bytes += len as u64;
        m.counters.pipe_chunks_issued += 1;
        m.counters.pipe_depth(depth_now);
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::PipeChunk {
            req,
            gid,
            off,
            len,
            last,
        },
    );
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanBegin {
            id: token,
            cat: "rdma",
            name: "rdma_burst",
        },
    );
    let kind = if is_read {
        DmaKind::Read
    } else {
        DmaKind::Write
    };
    ep.ectx
        .rdma(proc, rail, kind, e4, remote.offset(off), len, Some(done));
}

/// A pipelined chunk's completion fired: release its mapping, credit the
/// owning request, forward the control message when the transfer finished
/// un-chained, and refill the window. The pipeline record dies with its
/// final chunk.
fn pipe_chunk_landed(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    req: u64,
    token: u64,
    bytes: usize,
    kind: ReqKind,
) {
    let (chunk, fin) = {
        let mut st = ep.state.lock();
        let Some(ps) = st.pipelines.get_mut(&req) else {
            // Torn down by a failure path, which released the mappings.
            return;
        };
        let chunk = ps
            .inflight
            .iter()
            .position(|c| c.token == token)
            .map(|i| ps.inflight.remove(i));
        if let Some(c) = &chunk {
            ps.per_rail[c.rail] -= 1;
        }
        ps.landed += bytes;
        let finished = ps.landed >= ps.total && ps.inflight.is_empty();
        let fin = if finished {
            let ps = st.pipelines.remove(&req).expect("looked up above");
            let to = st.reqs[&req]
                .envelope
                .expect("a piped request has its envelope");
            Some((to.peer, ps.fin))
        } else {
            None
        };
        (chunk, fin)
    };
    if let Some(c) = chunk {
        // Cached chunk mappings go back to the pin-down cache; direct
        // (bounce-buffer) mappings fall through to a charged unmap. Either
        // way the mapping is gone before the credit below can complete the
        // request and free the region.
        crate::regcache::release(proc, ep, &c.sub, c.e4);
    }
    ep.metric(|m| m.counters.pipe_chunks_landed += 1);
    let finished = fin.is_some();
    if let Some((to, ctl)) = fin {
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::SpanEnd {
                id: req,
                cat: "pipe",
                name: "pipe_transfer",
            },
        );
        if !ep.cfg.chained_fin {
            send_unchained(proc, ep, to, ctl);
        }
    }
    credit(proc, ep, kind, req, bytes);
    if !finished {
        pipe_pump(proc, ep, req);
    }
}

/// Pump every live pipeline. A safety net for the thread-progress modes —
/// chunk completions normally refill their own windows.
fn pipe_pump_all(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    let mut ids = {
        let mut st = ep.state.lock();
        if st.pipelines.is_empty() {
            return false;
        }
        let mut ids = std::mem::take(&mut st.pipe_ids);
        ids.extend(st.pipelines.keys().copied());
        ids
    };
    let mut any = false;
    for &id in &ids {
        if pipe_pump(proc, ep, id) {
            any = true;
        }
    }
    ids.clear();
    ep.state.lock().pipe_ids = ids;
    any
}

/// Drain the parked TCP bulk pushes, at most `pipe.depth` fragments per
/// push per call: the pacing that replaced `handle_ack`'s unbounded
/// fragment loop. The send gives the destination and the packed region; a
/// push whose send finished is dropped unsent. Returns true when fragments
/// went out, so the polling wait loop keeps cycling until the pushes drain
/// instead of blocking.
fn tcp_push_pump(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    let host = ep.cfg.host.clone();
    let burst_frags = ep.tunables.pipeline_depth();
    let bursts: Vec<(u64, crate::peer::PeerInfo, u64, HostBuf, usize, usize)> = {
        let mut guard = ep.state.lock();
        let st = &mut *guard;
        if st.tcp_pushes.is_empty() {
            return false;
        }
        st.tcp_pushes
            .retain(|p| st.reqs.get(&p.send_req).is_some_and(|r| !r.phase.is_done()));
        let mut out = Vec::new();
        for i in 0..st.tcp_pushes.len() {
            let p = &st.tcp_pushes[i];
            let (sid, recv_req, start, end) = (p.send_req, p.recv_req, p.next_off, p.end);
            let burst_end = end.min(start + burst_frags * TCP_FRAG_PAYLOAD);
            if burst_end <= start {
                continue;
            }
            let send = &st.reqs[&sid];
            let region = send.region();
            let dst = send.envelope.expect("a send has its envelope").peer;
            let Some(peer) = st.peer(&dst).cloned() else {
                continue;
            };
            st.tcp_pushes[i].next_off = burst_end;
            out.push((sid, peer, recv_req, region, start, burst_end));
        }
        st.tcp_pushes.retain(|p| p.next_off < p.end);
        out
    };
    if bursts.is_empty() {
        return false;
    }
    for (sid, peer, recv_req, region, start, end) in bursts {
        let mut off = start;
        while off < end {
            let take = (end - off).min(TCP_FRAG_PAYLOAD);
            let mut frame = frame_with_room(take);
            ep.ectx.read_into(&region, off, take, &mut frame);
            let mut fh = Hdr::new(HdrType::Frag);
            fh.recv_req = recv_req;
            fh.offset = off as u64;
            proc.advance(host.hdr_build);
            send_frame(proc, ep, &peer, Route::Tcp, fh, frame);
            ep.metric(|m| m.counters.frags_sent += 1);
            off += take;
        }
        credit(proc, ep, ReqKind::Send, sid, end - start);
    }
    true
}

/// Split `len` into per-rail `(offset, len)` chunks, the first `len %
/// rails` of them one byte longer. Zero-length chunks are omitted (no
/// zero-byte RDMA descriptors when `len < rails`), and `rails == 0` is
/// treated as a single rail rather than dividing by zero.
fn rail_chunks(len: usize, rails: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    let rails = rails.max(1);
    let (base, extra) = (len / rails, len % rails);
    (0..rails.min(len)).map(move |r| (r * base + r.min(extra), base + usize::from(r < extra)))
}

/// The control kind a frame counts as; `None` for data and CTL_ACK/NACK frames.
fn control_kind(kind: HdrType) -> Option<ControlKind> {
    match kind {
        HdrType::Ack => Some(ControlKind::Ack),
        HdrType::Fin => Some(ControlKind::Fin),
        HdrType::FinAck => Some(ControlKind::FinAck),
        HdrType::Completion => Some(ControlKind::Completion),
        // Losing a credit return would wedge the sender's window shut, so
        // explicit returns ride the retransmit buffer like the rest of the
        // control plane.
        HdrType::CreditReturn => Some(ControlKind::Credit),
        _ => None,
    }
}

fn make_fin_ack(send_req: u64, credit: usize) -> Hdr {
    let mut h = Hdr::new(HdrType::FinAck);
    h.send_req = send_req;
    h.offset = credit as u64;
    h
}

// ---------------------------------------------------------------------------
// end-to-end flow control: per-peer send credits + bounce-buffer pool
// ---------------------------------------------------------------------------
//
// Eager traffic has no end-to-end limit in the base protocol: every sender
// fires QDMAs as fast as the host can post them, and an incast receiver
// drowns — its NIC queue overflows and every unexpected message costs a
// fresh per-message bounce allocation. The scheme here is the classic
// receiver-granted credit window (cf. MVAPICH on InfiniBand and the GASNet
// elan conduit's NETWORKDEPTH throttle): each peer may have at most
// `flow.credits` undelivered eager messages in flight; a credit returns
// when the *receiver has matched and copied out* the message, piggybacked
// on whatever control frame next travels back (ACK / FIN_ACK) or — when
// the reverse direction is silent — in an explicit CREDIT_RETURN frame
// once half the window has accumulated. Senders without credits park the
// built frame locally (`FlowPeer::queued`) and the request stays
// incomplete, which is the backpressure.

/// Acquire a bounce region: a preallocated pool slot when one fits (the
/// cheap, steady-state case), else a per-message allocation. Callers on
/// the unexpected-message path charge `host.bounce_alloc` for fallbacks;
/// posted-receive/send staging passes `charge_fallback = false` because
/// the base protocol already allocated per message there.
fn flow_bounce_alloc(proc: &Proc, ep: &Rc<Endpoint>, len: usize, charge_fallback: bool) -> HostBuf {
    let slot = ep.state.lock().bounce_pool.acquire(len);
    match slot {
        Some(b) => {
            ep.metric(|m| m.counters.flow_pool_hits += 1);
            b
        }
        None => {
            ep.metric(|m| m.counters.flow_pool_fallbacks += 1);
            if charge_fallback {
                proc.advance(ep.cfg.host.bounce_alloc);
            }
            ep.alloc(len)
        }
    }
}

/// Return a bounce region to wherever it came from: the pool when it is a
/// pool slot, the allocator otherwise.
fn flow_bounce_free(ep: &Rc<Endpoint>, buf: HostBuf) {
    let pooled = ep.state.lock().bounce_pool.release(buf);
    if !pooled {
        ep.free(buf);
    }
}

/// Receiver side: an eager message was delivered (matched + copied out),
/// so one unit of receiver-side buffering is free again. The credit is
/// *noted*, not sent — it rides the next control frame toward that peer,
/// or an explicit return once enough accumulate (see `flow_pump`).
fn flow_note_delivered(ep: &Rc<Endpoint>, peer: ProcName) {
    let init = ep.tunables.flow_credits();
    let mut st = ep.state.lock();
    let fp = st.flow_entry(peer, init);
    fp.pending_return += 1;
    fp.delivered += 1;
}

/// Take every credit currently owed to `peer`, for piggybacking on an
/// outgoing control frame (capped at what a u16 carries; the remainder
/// stays pending). Zero when flow control is off — the packed fields then
/// carry exactly the legacy values.
fn flow_take_pending(ep: &Rc<Endpoint>, peer: ProcName) -> u16 {
    if !ep.tunables.flow_enable() {
        return 0;
    }
    let mut st = ep.state.lock();
    let Some(fp) = st.flow.get_mut(&peer) else {
        return 0;
    };
    let take = fp.pending_return.min(u16::MAX as usize);
    fp.pending_return -= take;
    take as u16
}

/// Build a FIN_ACK stamped with any credits owed to `peer`: `e4_vpid` is
/// meaningless on a FIN_ACK (no address travels), so the credits ride
/// there for free.
fn fin_ack_with_credits(ep: &Rc<Endpoint>, peer: ProcName, send_req: u64, credit: usize) -> Hdr {
    let mut h = make_fin_ack(send_req, credit);
    let pb = flow_take_pending(ep, peer);
    if pb > 0 {
        h.e4_vpid = pb as u32;
        ep.metric(|m| m.counters.flow_piggybacked += 1);
    }
    h
}

/// Re-pack an ACK's `seq` so its high half carries any credits owed to
/// `peer` (the low half keeps the inline-byte credit already stored).
fn stamp_ack_credits(ep: &Rc<Endpoint>, peer: ProcName, ack: &mut Hdr) {
    let inline = ack.seq;
    let pb = flow_take_pending(ep, peer);
    if pb > 0 {
        ep.metric(|m| m.counters.flow_piggybacked += 1);
    }
    ack.seq = crate::hdr::pack_ack_seq(inline, pb);
}

/// Sender side: `n` credits came back from `peer` (piggybacked or via an
/// explicit CREDIT_RETURN). Restock the window and drain any sends parked
/// on it.
fn flow_credits_in(proc: &Proc, ep: &Rc<Endpoint>, peer: ProcName, n: usize) {
    if n == 0 || !ep.tunables.flow_enable() {
        return;
    }
    let init = ep.tunables.flow_credits();
    {
        let mut st = ep.state.lock();
        let fp = st.flow_entry(peer, init);
        fp.credits += n;
        fp.returned += n as u64;
    }
    ep.metric(|m| m.counters.flow_credits_returned += n as u64);
    flow_drain_peer(proc, ep, peer);
}

/// Send parked eager frames to `peer` while its credit window has room,
/// in FIFO order (MPI ordering: `hdr.seq` was assigned at post time, and
/// the receiver's in-order check would park anything sent out of order
/// anyway). Each drained send completes like a normal buffered eager send.
fn flow_drain_peer(proc: &Proc, ep: &Rc<Endpoint>, peer: ProcName) -> bool {
    let batch: Vec<QueuedSend> = {
        let mut st = ep.state.lock();
        match st.flow.get_mut(&peer) {
            Some(fp) => {
                let mut out = Vec::new();
                while fp.credits > 0 && !fp.queued.is_empty() {
                    fp.credits -= 1;
                    fp.consumed += 1;
                    out.push(fp.queued.pop_front().expect("checked non-empty"));
                }
                out
            }
            None => Vec::new(),
        }
    };
    if batch.is_empty() {
        return false;
    }
    let peer_info = ep.state.lock().peer(&peer).cloned();
    let Some(pi) = peer_info else {
        for q in batch {
            fail_request(proc, ep, q.sid, MpiErrClass::ProcFailed);
        }
        return true;
    };
    for q in batch {
        let waited = proc.now().saturating_sub(q.queued_at);
        ep.metric(|m| {
            m.counters.flow_credits_consumed += 1;
            m.counters.flow_queued_ns += waited.as_ns();
        });
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::FlowSent {
                req: q.sid,
                gid: crate::hdr::msg_gid(ep.name.job.0, ep.name.rank as u32, q.sid),
            },
        );
        let Some(route) = first_route(ep, &pi) else {
            fail_request(proc, ep, q.sid, MpiErrClass::NoTransport);
            continue;
        };
        let len = q.hdr.msg_len as usize;
        proc.advance(ep.cfg.host.hdr_build);
        send_frame(proc, ep, &pi, route, q.hdr, q.frame);
        // Buffered eager semantics: on the wire = locally complete.
        credit(proc, ep, ReqKind::Send, q.sid, len);
    }
    true
}

/// Explicit credit return: the reverse direction is silent (pure eager
/// floods generate no ACK/FIN_ACK back toward the sender), so the credits
/// travel in their own control frame. Origin identity rides ctx/src_rank
/// — the same fields the reliability layer stamps, with the same values —
/// and the count rides `seq`.
fn send_credit_return(proc: &Proc, ep: &Rc<Endpoint>, to: ProcName, n: usize) {
    let peer = ep.state.lock().peer(&to).cloned();
    let mut h = Hdr::new(HdrType::CreditReturn);
    h.ctx = ep.name.job.0;
    h.src_rank = ep.name.rank as u32;
    h.seq = n as u32;
    if !peer.is_some_and(|peer| send_control(proc, ep, &peer, h)) {
        // Unsent: the credits stay owed.
        if let Some(fp) = ep.state.lock().flow.get_mut(&to) {
            fp.pending_return += n;
        }
        return;
    }
    ep.metric(|m| m.counters.flow_credit_frames += 1);
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::ControlSent {
            gid: 0,
            kind: "CreditReturn",
        },
    );
}

/// One flow-control progress step, run from every progress pass: drain
/// send queues whose windows re-opened, and flush hoarded credit returns
/// (at least half a window's worth) for peers with no reverse traffic to
/// piggyback on.
fn flow_pump(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    if !ep.tunables.flow_enable() {
        return false;
    }
    let mut any = false;
    let drainable: Vec<ProcName> = {
        let st = ep.state.lock();
        st.flow
            .iter()
            .filter(|(_, fp)| fp.credits > 0 && !fp.queued.is_empty())
            .map(|(p, _)| *p)
            .collect()
    };
    for p in drainable {
        if flow_drain_peer(proc, ep, p) {
            any = true;
        }
    }
    let threshold = (ep.tunables.flow_credits() / 2).max(1);
    let returns: Vec<(ProcName, usize)> = {
        let mut st = ep.state.lock();
        st.flow
            .iter_mut()
            .filter(|(_, fp)| fp.pending_return >= threshold)
            .map(|(p, fp)| (*p, std::mem::take(&mut fp.pending_return)))
            .collect()
    };
    for (p, n) in returns {
        send_credit_return(proc, ep, p, n);
        any = true;
    }
    any
}

// ---------------------------------------------------------------------------
// TCP control-frame reliability
// ---------------------------------------------------------------------------

/// Trace-span id of one retransmit-buffer entry, unique per (peer, seq).
fn rel_span_id(peer: ProcName, rel_seq: u32) -> u64 {
    ((peer.job.0 as u64) << 48) | ((peer.rank as u64) << 32) | rel_seq as u64
}

/// Wire code of an error class carried in a NACK's `seq` field.
fn err_code(err: MpiErrClass) -> u32 {
    match err {
        MpiErrClass::ProcFailed => 0,
        MpiErrClass::NoTransport => 1,
        MpiErrClass::Internal => 2,
    }
}

fn err_from_code(code: u32) -> MpiErrClass {
    match code {
        1 => MpiErrClass::NoTransport,
        2 => MpiErrClass::Internal,
        _ => MpiErrClass::ProcFailed,
    }
}

/// Receipt for a sequence-stamped control frame. Itself unreliable by
/// design: if it is lost, the peer retransmits and the duplicate triggers a
/// fresh receipt here.
fn send_ctl_ack(proc: &Proc, ep: &Rc<Endpoint>, origin: ProcName, rel_seq: u32) {
    let peer = {
        let mut st = ep.state.lock();
        st.peer(&origin).cloned().expect("unresolved peer")
    };
    let mut h = Hdr::new(HdrType::CtlAck);
    h.ctx = ep.name.job.0;
    h.src_rank = ep.name.rank as u32;
    h.seq = rel_seq;
    proc.advance(ep.cfg.host.hdr_build);
    send_ctl(proc, ep, &peer, Route::Tcp, h);
    ep.metric(|m| m.counters.ctl_acks_sent += 1);
}

/// The peer receipted one of our stamped control frames: retire its
/// retransmit-buffer entry.
fn handle_ctl_ack(proc: &Proc, ep: &Rc<Endpoint>, hdr: Hdr) {
    let from = ProcName {
        job: ompi_rte::JobId(hdr.ctx),
        rank: hdr.src_rank as usize,
    };
    let rel_seq = hdr.seq;
    let retired = {
        let mut st = ep.state.lock();
        st.ctl_inflight
            .iter()
            .position(|e| e.peer == from && e.rel_seq == rel_seq)
            .map(|i| st.ctl_inflight.remove(i))
    };
    if retired.is_some() {
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::SpanEnd {
                id: rel_span_id(from, rel_seq),
                cat: "rel",
                name: "ctl_inflight",
            },
        );
        // Finalize waits for the retransmit buffer to drain.
        notify_waiters(proc, ep);
    }
}

/// Best-effort failure notice from a peer that gave up retransmitting a
/// control frame naming one of our requests: complete it with an error
/// status instead of leaving it to stall.
fn handle_nack(proc: &Proc, ep: &Rc<Endpoint>, hdr: Hdr) {
    let err = err_from_code(hdr.seq);
    for (kind, id) in [(ReqKind::Send, hdr.send_req), (ReqKind::Recv, hdr.recv_req)] {
        let named = ep.state.lock().req_of(kind, id).is_some();
        if named {
            fail_request(proc, ep, id, err);
        }
    }
}

/// Send a best-effort NACK naming the *peer-owned* request tokens in
/// `send_req` / `recv_req` (zero = not named). Unreliable and unstamped.
fn send_nack(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    peer: &crate::peer::PeerInfo,
    send_req: u64,
    recv_req: u64,
    err: MpiErrClass,
) {
    let mut h = Hdr::new(HdrType::Nack);
    h.ctx = ep.name.job.0;
    h.src_rank = ep.name.rank as u32;
    h.send_req = send_req;
    h.recv_req = recv_req;
    h.seq = err_code(err);
    send_control(proc, ep, peer, h);
}

/// Complete a request with an MPI-style error status: the graceful-
/// degradation path for exhausted retries, NACKed requests, and unroutable
/// peers. Mirrors the completion path (resource release, telemetry,
/// waiter wakeup) with `error` set instead of a delivered payload.
pub(crate) fn fail_request(proc: &Proc, ep: &Rc<Endpoint>, id: u64, err: MpiErrClass) {
    let (held, send, handshake_open, chunks, staged) = {
        let mut st = ep.state.lock();
        let Some(r) = st.reqs.get_mut(&id).filter(|r| !r.phase.is_done()) else {
            return;
        };
        // A rendezvous send its receiver never answered still has its
        // handshake span open.
        let handshake_open = r.is_send() && r.phase == Phase::Posted;
        r.phase = Phase::Done(Some(err));
        let (held, send, ctx, peer) = (
            Held::of(r),
            r.is_send(),
            r.recv.as_ref().map(|s| s.ctx),
            r.envelope.map(|e| e.peer),
        );
        // An unmatched recv failed here is still in its comm's posted list;
        // drop it so matching never dereferences the request after the
        // application reaps it.
        if let Some(c) = ctx.and_then(|ctx| st.comms.get_mut(&ctx)) {
            c.posted.retain(|rid| *rid != id);
        }
        // A credit-starved send still parked in the flow queue never went
        // on the wire; the parked frame dies with the request.
        if let Some(fp) = peer.and_then(|peer| st.flow.get_mut(&peer)) {
            fp.queued.retain(|q| q.sid != id);
        }
        // Tear down any pipelined transfer this request owned: forget its
        // in-flight chunk completions (stale event fires are ignored), drop
        // parked TCP pushes, and release every chunk mapping — a failed
        // request must leave `mapping_count()` untouched.
        st.tcp_pushes.retain(|p| p.send_req != id);
        let (chunks, staged) = match st.pipelines.remove(&id) {
            Some(ps) => {
                let tokens: Vec<u64> = ps.inflight.iter().map(|c| c.token).collect();
                let mut i = 0;
                while i < st.pending_dmas.len() {
                    if tokens.contains(&st.pending_dmas[i].token) {
                        let p = st.pending_dmas.swap_remove(i);
                        p.event.free();
                    } else {
                        i += 1;
                    }
                }
                (ps.inflight, ps.staged_final)
            }
            None => (Vec::new(), None),
        };
        (held, send, handshake_open, chunks, staged)
    };
    if handshake_open {
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::SpanEnd {
                id,
                cat: "rndv",
                name: "rndv_handshake",
            },
        );
    }
    for c in &chunks {
        crate::regcache::release(proc, ep, &c.sub, c.e4);
    }
    if let Some((sub, e4)) = staged {
        crate::regcache::release(proc, ep, &sub, e4);
    }
    if !chunks.is_empty() || staged.is_some() {
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::SpanEnd {
                id,
                cat: "pipe",
                name: "pipe_transfer",
            },
        );
    }
    held.release(proc, ep);
    record_failure(proc, ep, id, send, err);
    notify_waiters(proc, ep);
}

/// Count and trace request `id`'s failure with `err`, then freeze the
/// flight recorder at that moment, so a post-mortem can explain *what led
/// up to* the error, not just name it.
fn record_failure(proc: &Proc, ep: &Endpoint, id: u64, send: bool, err: MpiErrClass) {
    ep.metric(|m| m.counters.reqs_failed += 1);
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::ReqFailed {
            req: id,
            send,
            err: err.mpi_name(),
        },
    );
    ep.flight_dump(&format!("request failed: {}", err.mpi_name()), proc.now());
}

/// Scan the retransmit buffer: re-send entries whose timeout expired (with
/// exponential backoff) and give up on entries whose retries are exhausted,
/// degrading the affected requests to error completions. Driven from every
/// progress pass and from bounded-wait expiries.
pub(crate) fn reliability_tick(proc: &Proc, ep: &Rc<Endpoint>) {
    if !ep.cfg.tcp_reliability {
        return;
    }
    let now = proc.now();
    let max_retries = ep.tunables.tcp_max_retries();
    let backoff = u64::from(ep.tunables.tcp_retransmit_backoff());
    let mut resends: Vec<(ProcName, Vec<u8>, HdrType, u32, u32)> = Vec::new();
    let mut abandoned: Vec<InflightCtl> = Vec::new();
    {
        let mut st = ep.state.lock();
        if st.ctl_inflight.is_empty() {
            return;
        }
        let mut i = 0;
        while i < st.ctl_inflight.len() {
            if st.ctl_inflight[i].deadline > now {
                i += 1;
                continue;
            }
            if st.ctl_inflight[i].attempts >= max_retries {
                let e = st.ctl_inflight.remove(i);
                st.failed_peers.insert(e.peer);
                abandoned.push(e);
            } else {
                let e = &mut st.ctl_inflight[i];
                e.attempts += 1;
                e.timeout = e.timeout * backoff;
                e.deadline = now + e.timeout;
                resends.push((e.peer, e.frame.clone(), e.kind, e.rel_seq, e.attempts));
                i += 1;
            }
        }
    }
    for (to, frame, kind, rel_seq, attempt) in resends {
        ep.metric(|m| m.counters.retransmits += 1);
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::CtlRetransmit {
                kind: kind.name(),
                rel_seq,
                attempt,
            },
        );
        if let Some(net) = &ep.tcp_net {
            net.send(proc, ep.cluster.cfg(), ep.node, to, frame);
        }
    }
    for e in abandoned {
        give_up_on(proc, ep, e);
    }
}

/// Retries exhausted on one stamped control frame: the peer is now
/// considered failed. Tell it (best effort) which of *its* requests will
/// never complete, then degrade every live local request bound to it.
fn give_up_on(proc: &Proc, ep: &Rc<Endpoint>, e: InflightCtl) {
    ep.metric(|m| m.counters.gave_up += 1);
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::CtlGaveUp {
            kind: e.kind.name(),
            rel_seq: e.rel_seq,
        },
    );
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanEnd {
            id: rel_span_id(e.peer, e.rel_seq),
            cat: "rel",
            name: "ctl_inflight",
        },
    );
    // Request tokens are per-endpoint counters, so the NACK names only the
    // ids the *peer* owns, recovered from the abandoned frame itself.
    let (peer_send_req, peer_recv_req, peer) = {
        let mut st = ep.state.lock();
        let orig = Hdr::decode(&e.frame).ok();
        let (s, r) = match (e.kind, &orig) {
            (HdrType::Ack | HdrType::FinAck, Some(h)) => (h.send_req, 0),
            (HdrType::Fin, Some(h)) => (0, h.recv_req),
            _ => (0, 0),
        };
        (s, r, st.peer(&e.peer).cloned())
    };
    if let Some(peer) = &peer {
        if peer_send_req != 0 || peer_recv_req != 0 {
            send_nack(
                proc,
                ep,
                peer,
                peer_send_req,
                peer_recv_req,
                MpiErrClass::ProcFailed,
            );
        }
    }
    // Degrade every live local request bound to the failed peer, in post
    // order: each one whose envelope names the peer (a send, or a receive
    // in flight from it), and each unmatched receive selecting the peer by
    // name, which no other sender can ever satisfy.
    let doomed = {
        let st = ep.state.lock();
        let mut ids: Vec<u64> = st
            .reqs
            .values()
            .filter(|r| !r.phase.is_done())
            .filter(|r| match (&r.envelope, &r.recv) {
                (Some(env), _) => env.peer == e.peer,
                (None, Some(sel)) => sel.src_sel.is_some_and(|s| {
                    st.comms
                        .get(&sel.ctx)
                        .and_then(|c| c.group.get(s as usize))
                        .is_some_and(|name| *name == e.peer)
                }),
                (None, None) => false,
            })
            .map(|r| r.id)
            .collect();
        ids.sort_unstable();
        ids
    };
    for id in doomed {
        fail_request(proc, ep, id, MpiErrClass::ProcFailed);
    }
    // Purge the failed peer's parked receive-side state: its unexpected
    // fragments will never match a receive that completes, and each one
    // staged in the bounce pool pins a slot other peers need. Failing the
    // per-request sends above already emptied its flow queue; the peer's
    // credit entry goes with it.
    let leaked = {
        let mut st = ep.state.lock();
        st.flow.remove(&e.peer);
        st.release_stages(Some(e.peer))
    };
    for b in leaked {
        ep.free(b);
    }
    // The retransmit buffer shrank even if no request was degraded:
    // finalize may now be able to proceed.
    notify_waiters(proc, ep);
}

// ---------------------------------------------------------------------------
// data staging helpers
// ---------------------------------------------------------------------------

fn charge_pack(proc: &Proc, ep: &Rc<Endpoint>, len: usize) {
    if len == 0 {
        return;
    }
    let mut cost = ep.cfg.host.inline_copy_setup + ep.memcpy_cost(len);
    if ep.cfg.use_datatype_engine {
        cost += ep.cfg.copy.convertor_setup;
    }
    proc.advance(cost);
}

fn charge_unpack(proc: &Proc, ep: &Rc<Endpoint>, len: usize) {
    if len == 0 {
        return;
    }
    proc.advance(ep.cfg.host.unpack_setup + ep.memcpy_cost(len));
}

/// An empty frame: [`HDR_LEN`] zero bytes that `send_frame` overwrites
/// with the header, and capacity for `payload_len` payload bytes behind
/// them, so filling it never reallocates.
fn frame_with_room(payload_len: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HDR_LEN + payload_len);
    frame.resize(HDR_LEN, 0);
    frame
}

/// A frame carrying the first `len` bytes of a send's packed stream,
/// copied straight from host memory: the message's one buffer.
fn packed_frame(
    ep: &Rc<Endpoint>,
    buf: &HostBuf,
    conv: &Convertor,
    bounce: Option<&HostBuf>,
    len: usize,
) -> Vec<u8> {
    let mut frame = frame_with_room(len);
    if len == 0 {
        return frame;
    }
    if let Some(b) = bounce {
        ep.ectx.read_into(b, 0, len, &mut frame);
    } else if conv.is_contiguous() {
        ep.ectx.read_into(buf, 0, len, &mut frame);
    } else {
        let span = ep.read_buf(buf, 0, conv.span());
        frame.extend_from_slice(&conv.pack_range(&span, 0, len));
    }
    frame
}

/// Write packed-stream bytes into a receive's landing region.
fn write_packed(ep: &Rc<Endpoint>, r: &Req, off: usize, data: &[u8]) {
    if !data.is_empty() {
        ep.write_buf(&r.region(), off, data);
    }
}

/// Resolve `who`'s addressing before first contact. A rank of this job
/// comes from the `ptl` table fetched at `MPI_Init`; a process of another
/// job (spawn, connect) costs one OOB lookup.
fn ensure_peer(proc: &Proc, ep: &Rc<Endpoint>, who: ProcName) {
    let known = ep.state.lock().peer(&who).is_some();
    if !known {
        let raw = ep.rte.modex_get(proc, who, "ptl");
        let info = crate::peer::PeerInfo::from_bytes(&raw);
        ep.state.lock().peers.insert(who, info);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_chunks_covers_len_without_empty_chunks() {
        for (len, rails) in [
            (0usize, 1usize),
            (1, 4),
            (3, 4),
            (4, 4),
            (5, 4),
            (64 << 10, 3),
        ] {
            let chunks: Vec<_> = rail_chunks(len, rails).collect();
            assert!(
                chunks.iter().all(|c| c.1 > 0),
                "empty chunk for len={len} rails={rails}"
            );
            let total: usize = chunks.iter().map(|c| c.1).sum();
            assert_eq!(total, len, "bytes lost for len={len} rails={rails}");
            // Chunks are contiguous and in order.
            let mut off = 0;
            for (o, l) in chunks {
                assert_eq!(o, off);
                off += l;
            }
        }
    }

    #[test]
    fn rail_chunks_zero_rails_does_not_divide_by_zero() {
        assert!(rail_chunks(10, 0).eq([(0, 10)]));
        assert_eq!(rail_chunks(0, 0).len(), 0);
    }

    #[test]
    fn rail_chunks_fewer_bytes_than_rails_skips_idle_rails() {
        assert!(rail_chunks(2, 4).eq([(0, 1), (1, 1)]));
    }

    #[test]
    fn rel_span_ids_distinct_across_peers_and_seqs() {
        let a = ProcName {
            job: ompi_rte::JobId(0),
            rank: 1,
        };
        let b = ProcName {
            job: ompi_rte::JobId(0),
            rank: 2,
        };
        assert_ne!(rel_span_id(a, 1), rel_span_id(b, 1));
        assert_ne!(rel_span_id(a, 1), rel_span_id(a, 2));
    }

    #[test]
    fn nack_error_codes_roundtrip() {
        for err in [
            MpiErrClass::ProcFailed,
            MpiErrClass::NoTransport,
            MpiErrClass::Internal,
        ] {
            assert_eq!(err_from_code(err_code(err)), err);
        }
    }
}
