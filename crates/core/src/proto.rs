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
    DmaRole, EpState, InflightCtl, MatchInfo, MpiErrClass, PendingDma, PipeChunk, PipeState,
    QueuedSend, RecvReq, SendReq, TcpPush, UnexpectedFrag,
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
#[allow(clippy::too_many_arguments)]
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
    let Some(route) = route else {
        let err = if stale_comm {
            MpiErrClass::Internal
        } else if peer_failed {
            MpiErrClass::ProcFailed
        } else {
            MpiErrClass::NoTransport
        };
        ep.state.lock().send_reqs.insert(
            id,
            SendReq {
                id,
                gid,
                ctx: comm.ctx,
                dst,
                dst_rank: dst_rank as u32,
                tag,
                seq,
                msg_len,
                src_e4: None,
                src_region: buf,
                bounce: None,
                bytes_confirmed: 0,
                done: true,
                posted_at,
                rndv_acked: false,
                error: Some(err),
            },
        );
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
                    gid,
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
        let mut st = ep.state.lock();
        st.send_reqs.insert(
            id,
            SendReq {
                id,
                gid,
                ctx: comm.ctx,
                dst,
                dst_rank: dst_rank as u32,
                tag,
                seq,
                msg_len,
                src_e4: None,
                src_region: buf,
                bounce: None,
                bytes_confirmed: if parked { 0 } else { msg_len },
                done: !parked,
                posted_at,
                rndv_acked: false,
                error: None,
            },
        );
        drop(st);
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
    let region = bounce.unwrap_or(buf);
    // The read scheme needs the whole source exposed up front: the receiver
    // pulls straight out of it, and the remote side of an RDMA must be one
    // contiguous mapping. The write scheme's source is only touched by our
    // own descriptors, so its registration is deferred to the ACK — where
    // the pipelined path registers it chunk by chunk, overlapped with the
    // transfer, and the monolithic path acquires it lazily.
    let src_e4 = if msg_len > 0 && ep.cfg.scheme == RdmaScheme::Read {
        let t0 = proc.now();
        proc.advance(host.req_bookkeep); // MMU table bookkeeping
                                         // User buffers go through the pin-down cache; bounce buffers are
                                         // freed on completion, so caching their mapping would go stale.
        let e4 = if bounce.is_none() {
            crate::regcache::acquire(proc, ep, &region)
        } else {
            ep.ectx.map(proc, &region)
        };
        ep.trace(
            proc.now(),
            crate::trace::TraceEvent::Registered {
                gid,
                bytes: msg_len,
                cost_ns: proc.now().saturating_sub(t0).as_ns(),
            },
        );
        Some(e4)
    } else {
        None
    };

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

    let mut st = ep.state.lock();
    st.send_reqs.insert(
        id,
        SendReq {
            id,
            gid,
            ctx: comm.ctx,
            dst,
            dst_rank: dst_rank as u32,
            tag,
            seq,
            msg_len,
            src_e4,
            src_region: region,
            bounce,
            bytes_confirmed: 0,
            done: false,
            posted_at,
            rndv_acked: false,
            error: None,
        },
    );
    drop(st);
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
        st.recv_reqs.insert(
            id,
            RecvReq {
                id,
                ctx: comm.ctx,
                src_sel: src,
                tag_sel: tag,
                buf,
                conv,
                matched: None,
                dst_e4: None,
                bounce,
                bytes_received: 0,
                done: false,
                posted_at,
                error: None,
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
        fail_request(proc, ep, ReqKind::Recv, id, MpiErrClass::Internal);
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

/// Block until `req` completes; reaps the request.
pub fn wait(proc: &Proc, ep: &Rc<Endpoint>, req: Request) {
    ep.wait_until(proc, |st| req_done(st, req));
    let mut st = ep.state.lock();
    match req.kind {
        ReqKind::Send => {
            st.send_reqs.remove(&req.id);
        }
        ReqKind::Recv => {
            st.recv_reqs.remove(&req.id);
        }
    }
}

fn req_done(st: &EpState, req: Request) -> bool {
    match req.kind {
        ReqKind::Send => st.send_reqs.get(&req.id).map(|r| r.done).unwrap_or(true),
        ReqKind::Recv => st.recv_reqs.get(&req.id).map(|r| r.done).unwrap_or(true),
    }
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
    let mut st = ep.state.lock();
    let err = match reqs[idx].kind {
        ReqKind::Send => st.send_reqs.remove(&reqs[idx].id).and_then(|r| r.error),
        ReqKind::Recv => st.recv_reqs.remove(&reqs[idx].id).and_then(|r| r.error),
    };
    (idx, err)
}

/// Fletcher-16 cost: ~0.17 ns/B of host time.
fn checksum_cost(len: usize) -> qsim::Dur {
    qsim::Dur::for_bytes(len, 6000)
}

/// Nonblocking completion check (MPI_Test). Reaps the request when it
/// reports completion (MPI semantics: a successful test frees the request;
/// a later `wait` on it is a no-op because missing requests count as done).
pub fn test(proc: &Proc, ep: &Rc<Endpoint>, req: Request) -> bool {
    if matches!(
        ep.cfg.progress,
        ProgressMode::Polling | ProgressMode::Interrupt
    ) {
        progress_pass(proc, ep);
    }
    let mut st = ep.state.lock();
    if !req_done(&st, req) {
        return false;
    }
    match req.kind {
        ReqKind::Send => {
            st.send_reqs.remove(&req.id);
        }
        ReqKind::Recv => {
            st.recv_reqs.remove(&req.id);
        }
    }
    true
}

// ---------------------------------------------------------------------------
// progress
// ---------------------------------------------------------------------------

/// One polling sweep over every incoming channel and pending DMA; returns
/// true if any work was done.
pub fn progress_pass(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    crate::introspect::watchdog_tick(proc, ep);
    crate::introspect::timeline_tick(proc, ep);
    reliability_tick(proc, ep);
    ep.metric(|m| m.counters.progress_iterations += 1);
    let mut any = false;
    if let Some(q) = &ep.main_q {
        while let Some(frame) = q.pop_ready() {
            dispatch(proc, ep, frame);
            any = true;
        }
    }
    if let Some(q) = &ep.comp_q {
        while let Some(frame) = q.pop_ready() {
            dispatch(proc, ep, frame);
            any = true;
        }
    }
    if let Some(ib) = &ep.tcp_inbox {
        while let Some(frame) = ib.pop() {
            if let Some(net) = &ep.tcp_net {
                proc.advance(net.cfg().syscall + ep.cluster.cfg().memcpy(frame.len()));
            }
            dispatch(proc, ep, frame);
            any = true;
        }
    }
    // Poll outstanding DMA completion events (the Basic strategy of §6.2).
    let fired: Vec<PendingDma> = {
        let mut st = ep.state.lock();
        let mut out = Vec::new();
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
    // Paced bulk work: parked TCP pushes and pipeline windows with room.
    if tcp_push_pump(proc, ep) {
        any = true;
    }
    if pipe_pump_all(proc, ep) {
        any = true;
    }
    // Flow control: drain credit-starved send queues and flush hoarded
    // credit returns.
    if flow_pump(proc, ep) {
        any = true;
    }
    any
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
        HdrType::Fin => credit_recv(proc, ep, hdr.recv_req, hdr.offset as usize),
        HdrType::FinAck => {
            // Piggybacked flow credits ride in `e4_vpid` (unused on a
            // FIN_ACK); hand them back before the byte credit completes
            // (and possibly reaps) the send.
            if hdr.e4_vpid > 0 {
                let peer = {
                    let st = ep.state.lock();
                    st.send_reqs.get(&hdr.send_req).map(|r| r.dst)
                };
                if let Some(peer) = peer {
                    flow_credits_in(proc, ep, peer, hdr.e4_vpid as usize);
                }
            }
            credit_send(proc, ep, hdr.send_req, hdr.offset as usize)
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
    let mut work: Vec<(u64, UnexpectedFrag)> = Vec::new();
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
        let from = comm.group[hdr.src_rank as usize];
        let now = proc.now();
        if !comm.is_in_order(&hdr) {
            let stamp = comm.next_arrival_stamp();
            comm.out_of_order.push(UnexpectedFrag {
                hdr,
                payload,
                stage: None,
                from,
                ptl: 0,
                arrival: stamp,
                arrived_at: now,
            });
            return;
        }
        comm.advance_recv_seq(hdr.src_rank);
        let stamp = comm.next_arrival_stamp();
        queue_or_match(
            &mut st,
            ep,
            now,
            UnexpectedFrag {
                hdr,
                payload,
                stage: None,
                from,
                ptl: 0,
                arrival: stamp,
                arrived_at: now,
            },
            &mut work,
            &mut stage_fallbacks,
        );
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
    work: &mut Vec<(u64, UnexpectedFrag)>,
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
    let recv_posted_at = {
        let mut st = ep.state.lock();
        let Some(r) = st.recv_reqs.get_mut(&rid) else {
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
        assert!(
            msg_len <= r.conv.packed_len(),
            "message truncation: incoming {} bytes into a {}-byte receive",
            msg_len,
            r.conv.packed_len()
        );
        r.matched = Some(MatchInfo {
            gid,
            src_rank: hdr.src_rank,
            src: frag.from,
            tag: hdr.tag,
            msg_len,
            send_req: hdr.send_req,
            src_e4_va: hdr.e4_va,
            src_e4_vpid: hdr.e4_vpid,
        });
        r.posted_at
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
            if let Some(r) = st.recv_reqs.get(&rid) {
                write_packed(ep, r, 0, &frag.payload);
            }
        }
        charge_unpack(proc, ep, inline_len);
        if let Some(r) = ep.state.lock().recv_reqs.get_mut(&rid) {
            r.bytes_received += inline_len;
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
        maybe_complete_recv(proc, ep, rid);
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
        fail_request(proc, ep, ReqKind::Recv, rid, MpiErrClass::NoTransport);
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
            st.recv_reqs
                .get(&rid)
                .map(|r| (r.dst_e4, r.bounce.unwrap_or(r.buf), r.bounce.is_none()))
        };
        let Some((have, region, cacheable)) = info else {
            // Failed while the match was in flight.
            return;
        };
        let e4 = match have {
            Some(e4) => e4,
            None => {
                let t0 = proc.now();
                let fresh = if cacheable {
                    crate::regcache::acquire(proc, ep, &region)
                } else {
                    ep.ectx.map(proc, &region)
                };
                ep.trace(
                    proc.now(),
                    crate::trace::TraceEvent::Registered {
                        gid,
                        bytes: remainder,
                        cost_ns: proc.now().saturating_sub(t0).as_ns(),
                    },
                );
                enum Publish {
                    Stored,
                    Raced(E4Addr),
                    Gone,
                }
                let publish = {
                    let mut st = ep.state.lock();
                    match st.recv_reqs.get_mut(&rid) {
                        Some(r) if !r.done => match r.dst_e4 {
                            Some(other) => Publish::Raced(other),
                            None => {
                                r.dst_e4 = Some(fresh);
                                Publish::Stored
                            }
                        },
                        _ => Publish::Gone,
                    }
                };
                match publish {
                    Publish::Stored => fresh,
                    Publish::Raced(other) => {
                        crate::regcache::release(proc, ep, &region, fresh);
                        other
                    }
                    Publish::Gone => {
                        // Failed (or reaped) while we were mapping:
                        // nothing left to pull into.
                        crate::regcache::release(proc, ep, &region, fresh);
                        return;
                    }
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
                    // FIN_ACK rides the final chunk.
                    let dst = {
                        let st = ep.state.lock();
                        st.recv_reqs
                            .get(&rid)
                            .filter(|r| !r.done)
                            .map(|r| (r.bounce.unwrap_or(r.buf), r.bounce.is_none()))
                    };
                    if let Some((region, cacheable)) = dst {
                        ep.metric(|m| m.counters.rdma_read_batches += 1);
                        pipe_start(
                            proc,
                            ep,
                            true,
                            rid,
                            gid,
                            frag.from,
                            src_e4.offset(inline_len),
                            region,
                            inline_len,
                            elan_share,
                            cacheable,
                            fin_ack_with_credits(ep, frag.from, hdr.send_req, credit),
                        );
                    }
                } else {
                    if ep.tunables.pipeline_enable() {
                        ep.metric(|m| m.counters.pipe_fallback += 1);
                    }
                    issue_rdma(
                        proc,
                        ep,
                        &peer,
                        gid,
                        DmaKind::Read,
                        dst_e4.unwrap().offset(inline_len),
                        src_e4.offset(inline_len),
                        elan_share,
                        DmaRole::Read {
                            recv_req: rid,
                            bytes: elan_share,
                            fin_ack: None,
                        },
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
                ack.ctx = ctx_of(ep, rid);
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
            ack.ctx = ctx_of(ep, rid);
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
            if let Some(route) = first_route(ep, &peer) {
                proc.advance(ep.cfg.host.hdr_build);
                send_ctl(proc, ep, &peer, route, ack);
                ep.trace(
                    proc.now(),
                    crate::trace::TraceEvent::ControlSent { gid, kind: "Ack" },
                );
            }
        }
    }
    maybe_complete_recv(proc, ep, rid);
}

fn ctx_of(ep: &Rc<Endpoint>, rid: u64) -> u32 {
    ep.state
        .lock()
        .recv_reqs
        .get(&rid)
        .map(|r| r.ctx)
        .unwrap_or(0)
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
        match st.send_reqs.get_mut(&sid) {
            Some(r) => {
                r.bytes_confirmed += credit;
                let dst = r.dst;
                let src_e4 = r.src_e4;
                let region = r.src_region;
                let cacheable = r.bounce.is_none();
                let msg_len = r.msg_len;
                let gid = r.gid;
                let peer = st.peer(&dst).cloned().expect("unresolved peer");
                Some((peer, src_e4, region, cacheable, msg_len, gid))
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
        fail_request(proc, ep, ReqKind::Send, sid, MpiErrClass::Internal);
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
                    fail_request(proc, ep, ReqKind::Send, sid, MpiErrClass::NoTransport);
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
                ep.metric(|m| m.counters.rdma_write_batches += 1);
                pipe_start(
                    proc,
                    ep,
                    false,
                    sid,
                    gid,
                    peer.name,
                    dst_e4.offset(range_start),
                    src_region,
                    range_start,
                    elan_share,
                    cacheable,
                    fin,
                );
            } else {
                // Monolithic write: the whole source must be exposed. The
                // write scheme defers the post-time map, so acquire it
                // lazily here (also covering pipelining having been turned
                // off between post and ACK), tolerating the request having
                // been raced to a mapping or failed while registering.
                if ep.tunables.pipeline_enable() {
                    ep.metric(|m| m.counters.pipe_fallback += 1);
                }
                let src_e4 = match src_e4 {
                    Some(e4) => e4,
                    None => {
                        let t0 = proc.now();
                        proc.advance(host.req_bookkeep);
                        let fresh = if cacheable {
                            crate::regcache::acquire(proc, ep, &src_region)
                        } else {
                            ep.ectx.map(proc, &src_region)
                        };
                        ep.trace(
                            proc.now(),
                            crate::trace::TraceEvent::Registered {
                                gid,
                                bytes: elan_share,
                                cost_ns: proc.now().saturating_sub(t0).as_ns(),
                            },
                        );
                        let published = {
                            let mut st = ep.state.lock();
                            match st.send_reqs.get_mut(&sid) {
                                Some(r) if !r.done => match r.src_e4 {
                                    Some(other) => Some(other),
                                    None => {
                                        r.src_e4 = Some(fresh);
                                        Some(fresh)
                                    }
                                },
                                _ => None,
                            }
                        };
                        match published {
                            Some(e4) if e4 == fresh => e4,
                            Some(other) => {
                                crate::regcache::release(proc, ep, &src_region, fresh);
                                other
                            }
                            None => {
                                // Failed (or reaped) while we were mapping.
                                crate::regcache::release(proc, ep, &src_region, fresh);
                                return;
                            }
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
                    DmaRole::Write {
                        send_req: sid,
                        bytes: elan_share,
                        fin: None,
                    },
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
            let mut fh = Hdr::new(HdrType::Frag);
            fh.recv_req = hdr.recv_req;
            ep.state.lock().tcp_pushes.push(TcpPush {
                send_req: sid,
                peer: peer.name,
                src_region,
                frag_hdr: fh,
                next_off: start,
                end: start + tcp_share,
            });
            tcp_push_pump(proc, ep);
        }
    }
    maybe_complete_send(proc, ep, sid);
}

/// A pushed fragment landed (TCP path).
fn handle_frag(proc: &Proc, ep: &Rc<Endpoint>, hdr: Hdr, payload: Vec<u8>) {
    {
        let st = ep.state.lock();
        let Some(r) = st.recv_reqs.get(&hdr.recv_req) else {
            return;
        };
        write_packed(ep, r, hdr.offset as usize, &payload);
    }
    proc.advance(ep.memcpy_cost(payload.len()));
    credit_recv(proc, ep, hdr.recv_req, payload.len());
}

/// A local DMA descriptor completed (observed via event poll or a
/// shared-completion-queue token). `token` identifies the burst so its
/// trace span can be closed.
fn dma_done(proc: &Proc, ep: &Rc<Endpoint>, token: u64, role: DmaRole) {
    let bytes = match &role {
        DmaRole::Read { bytes, .. }
        | DmaRole::Write { bytes, .. }
        | DmaRole::Chunk { bytes, .. } => *bytes,
    };
    // Attribute the completion to its message: the role names the owning
    // request, whose state carries the globally unique id.
    let gid = {
        let st = ep.state.lock();
        match &role {
            DmaRole::Read { recv_req, .. } => req_gid(&st, false, *recv_req),
            DmaRole::Write { send_req, .. } => req_gid(&st, true, *send_req),
            DmaRole::Chunk { req, is_read, .. } => st
                .pipelines
                .get(req)
                .map(|p| p.gid)
                .unwrap_or_else(|| req_gid(&st, !*is_read, *req)),
        }
    };
    ep.trace(proc.now(), crate::trace::TraceEvent::DmaDone { gid, bytes });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::SpanEnd {
            id: token,
            cat: "rdma",
            name: "rdma_burst",
        },
    );
    match role {
        DmaRole::Read {
            recv_req,
            bytes,
            fin_ack,
        } => {
            if let Some((_ptl, to, hdr)) = fin_ack {
                let peer = {
                    let mut st = ep.state.lock();
                    st.peer(&to).cloned().expect("unresolved peer")
                };
                if let Some(route) = first_route(ep, &peer) {
                    proc.advance(ep.cfg.host.hdr_build);
                    send_ctl(proc, ep, &peer, route, hdr);
                }
            }
            credit_recv(proc, ep, recv_req, bytes);
        }
        DmaRole::Write {
            send_req,
            bytes,
            fin,
        } => {
            if let Some((_ptl, to, hdr)) = fin {
                let peer = {
                    let mut st = ep.state.lock();
                    st.peer(&to).cloned().expect("unresolved peer")
                };
                if let Some(route) = first_route(ep, &peer) {
                    proc.advance(ep.cfg.host.hdr_build);
                    send_ctl(proc, ep, &peer, route, hdr);
                }
            }
            credit_send(proc, ep, send_req, bytes);
        }
        DmaRole::Chunk {
            req,
            bytes,
            is_read,
        } => {
            pipe_chunk_landed(proc, ep, req, token, bytes, is_read);
        }
    }
}

// ---------------------------------------------------------------------------
// credits & completion
// ---------------------------------------------------------------------------

/// Resolve a live request's globally unique message id from local state:
/// a send carries it from post time; a receive learns it at match time.
/// 0 = unattributed (reaped request, or an unmatched receive).
fn req_gid(st: &EpState, send: bool, id: u64) -> u64 {
    if send {
        st.send_reqs.get(&id).map(|r| r.gid).unwrap_or(0)
    } else {
        st.recv_reqs
            .get(&id)
            .and_then(|r| r.matched.as_ref())
            .map(|m| m.gid)
            .unwrap_or(0)
    }
}

fn credit_recv(proc: &Proc, ep: &Rc<Endpoint>, rid: u64, bytes: usize) {
    {
        let mut st = ep.state.lock();
        if let Some(r) = st.recv_reqs.get_mut(&rid) {
            r.bytes_received += bytes;
        }
    }
    maybe_complete_recv(proc, ep, rid);
}

fn credit_send(proc: &Proc, ep: &Rc<Endpoint>, sid: u64, bytes: usize) {
    {
        let mut st = ep.state.lock();
        if let Some(r) = st.send_reqs.get_mut(&sid) {
            r.bytes_confirmed += bytes;
        }
    }
    first_receiver_contact(proc, ep, sid);
    maybe_complete_send(proc, ep, sid);
}

/// The first time a rendezvous sender hears back from the receiver (ACK in
/// the write scheme, FIN_ACK in the read scheme) closes the handshake: the
/// histogram sample and the `rndv` trace span both end here.
fn first_receiver_contact(proc: &Proc, ep: &Rc<Endpoint>, sid: u64) {
    let posted_at = {
        let mut st = ep.state.lock();
        match st.send_reqs.get_mut(&sid) {
            Some(r) if !r.rndv_acked => {
                r.rndv_acked = true;
                Some(r.posted_at)
            }
            _ => None,
        }
    };
    let Some(posted_at) = posted_at else { return };
    // The flag flip above is protocol state (the watchdog reads it to name
    // the stall phase); only the telemetry below is gated.
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

fn maybe_complete_recv(proc: &Proc, ep: &Rc<Endpoint>, rid: u64) {
    let finish = {
        let st = ep.state.lock();
        match st.recv_reqs.get(&rid) {
            Some(r) => {
                !r.done
                    && r.matched
                        .as_ref()
                        .map(|m| r.bytes_received >= m.msg_len)
                        .unwrap_or(false)
            }
            None => false,
        }
    };
    if !finish {
        return;
    }
    // Unpack the bounce buffer for non-contiguous receives.
    let unpack = {
        let st = ep.state.lock();
        st.recv_reqs.get(&rid).and_then(|r| {
            r.bounce
                .map(|b| (b, r.matched.as_ref().map(|m| m.msg_len).unwrap_or(0)))
        })
    };
    if let Some((bounce, msg_len)) = unpack {
        let pieces = {
            let st = ep.state.lock();
            st.recv_reqs
                .get(&rid)
                .map(|r| (ep.read_buf(&bounce, 0, msg_len), r.conv.clone(), r.buf))
        };
        if let Some((packed, conv, buf)) = pieces {
            let mut span = ep.read_buf(&buf, 0, conv.span());
            conv.unpack_range(&packed, 0, &mut span);
            ep.write_buf(&buf, 0, &span);
            proc.advance(ep.cfg.copy.convertor(&conv, msg_len));
        }
    }
    let finished = {
        let mut st = ep.state.lock();
        st.recv_reqs.get_mut(&rid).map(|r| {
            r.done = true;
            let gid = r.matched.as_ref().map(|m| m.gid).unwrap_or(0);
            (r.dst_e4.take(), r.bounce.take(), r.buf, r.posted_at, gid)
        })
    };
    let Some((e4, bounce, buf, posted_at, gid)) = finished else {
        // Reaped concurrently (e.g. raced with a failure path).
        return;
    };
    if let Some(e4) = e4 {
        crate::regcache::release(proc, ep, &bounce.unwrap_or(buf), e4);
    }
    if let Some(b) = bounce {
        flow_bounce_free(ep, b);
    }
    proc.advance(ep.cfg.host.req_bookkeep);
    ep.metric(|m| {
        m.completion_time
            .record(proc.now().saturating_sub(posted_at))
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::Completed {
            req: rid,
            gid,
            send: false,
        },
    );
    notify_waiters(proc, ep);
}

fn maybe_complete_send(proc: &Proc, ep: &Rc<Endpoint>, sid: u64) {
    let finish = {
        let st = ep.state.lock();
        match st.send_reqs.get(&sid) {
            Some(r) => !r.done && r.bytes_confirmed >= r.msg_len,
            None => false,
        }
    };
    if !finish {
        return;
    }
    let finished = {
        let mut st = ep.state.lock();
        st.send_reqs.get_mut(&sid).map(|r| {
            r.done = true;
            (
                r.src_e4.take(),
                r.src_region,
                r.bounce.take(),
                r.posted_at,
                r.gid,
            )
        })
    };
    let Some((e4, region, bounce, posted_at, gid)) = finished else {
        // Reaped concurrently (e.g. raced with a failure path).
        return;
    };
    if let Some(e4) = e4 {
        crate::regcache::release(proc, ep, &region, e4);
    }
    if let Some(b) = bounce {
        flow_bounce_free(ep, b);
    }
    proc.advance(ep.cfg.host.req_bookkeep);
    ep.metric(|m| {
        m.completion_time
            .record(proc.now().saturating_sub(posted_at))
    });
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::Completed {
            req: sid,
            gid,
            send: true,
        },
    );
    notify_waiters(proc, ep);
}

fn notify_waiters(proc: &Proc, ep: &Rc<Endpoint>) {
    let waiters = std::mem::take(&mut ep.state.lock().waiters);
    let sim = proc.sim();
    for w in waiters {
        w.notify(&sim);
    }
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

/// Issue RDMA chunks for one share, set up completion notification per the
/// configured mode, and attach chained control messages.
#[allow(clippy::too_many_arguments)]
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
    let rails = ep.transports.elan_rails;
    let chunks = rail_chunks(len, rails);
    let nchunks = chunks.len().max(1) as u32;

    let event = Rc::new(ep.ectx.event_create(nchunks));
    let e_peer = peer.elan.as_ref().expect("rdma to a peer without elan");

    // Chained control message (FIN / FIN_ACK) — the paper's optimization:
    // the NIC fires it off the final RDMA without host involvement. It
    // bypasses `send_frame`, so the control counter is bumped here.
    if ep.cfg.chained_fin {
        if let Some(kind) = control_kind(control.kind) {
            ep.metric(|m| m.counters.control(kind));
        }
        event.chain_qdma(QdmaSpec::to_queue(
            e_peer.vpid,
            e_peer.main_q,
            control.frame(&[]),
            0,
        ));
    } else {
        // The host sends the control message after observing completion.
        role = match role {
            DmaRole::Read {
                recv_req, bytes, ..
            } => DmaRole::Read {
                recv_req,
                bytes,
                fin_ack: Some((0, peer.name, control)),
            },
            DmaRole::Write {
                send_req, bytes, ..
            } => DmaRole::Write {
                send_req,
                bytes,
                fin: Some((0, peer.name, control)),
            },
            DmaRole::Chunk { .. } => unreachable!("pipelined chunks use pipe_issue_chunk"),
        };
    }

    // Local completion notification.
    let token = ep.state.lock().alloc_dma_token();
    match ep.cfg.completion {
        CompletionMode::PollEvent => {
            if let Some(bell) = ep.doorbell() {
                event.set_signal(bell);
            }
            if ep.cfg.progress == ProgressMode::Interrupt {
                event.arm_irq(true);
            }
        }
        CompletionMode::SharedQueueCombined | CompletionMode::SharedQueueSeparate => {
            // Chain a small QDMA into the shared completion queue (Fig. 6):
            // many outstanding RDMAs funnel into one host-waitable queue.
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

    ep.state.lock().pending_dmas.push(PendingDma {
        token,
        event: event.clone(),
        role,
    });

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
    // zero-length chunks).
    for (rail, (off, chunk_len)) in chunks.into_iter().enumerate() {
        ep.ectx.rdma(
            proc,
            rail,
            kind,
            local.offset(off),
            remote.offset(off),
            chunk_len,
            Some(event.id()),
        );
    }
}

// ---------------------------------------------------------------------------
// pipelined rendezvous: chunked RDMA with registration/transfer overlap
// ---------------------------------------------------------------------------

/// Is an Elan bulk share worth pipelining? Gated on the runtime tunables:
/// pipelining enabled, share at least `pipe.min_len`, and spanning more
/// than one chunk (a single chunk is the monolithic path with extra
/// bookkeeping).
fn pipe_eligible(ep: &Rc<Endpoint>, elan_share: usize) -> bool {
    ep.tunables.pipeline_enable()
        && elan_share >= ep.tunables.pipeline_min_len()
        && elan_share > ep.tunables.pipeline_chunk()
}

/// Begin a pipelined bulk transfer and issue its first window of chunks.
/// `remote` addresses the first bulk byte on the peer — one contiguous peer
/// mapping, because the remote side of an RDMA must translate within a
/// single mapping; only the local, DMA-issuing side is chunked. `base_off`
/// locates that byte in the local `region`.
#[allow(clippy::too_many_arguments)]
fn pipe_start(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    is_read: bool,
    req: u64,
    gid: u64,
    peer: ProcName,
    remote: E4Addr,
    region: HostBuf,
    base_off: usize,
    total: usize,
    cacheable: bool,
    fin: Hdr,
) {
    let rails = ep.transports.elan_rails.max(1);
    let ps = PipeState {
        is_read,
        req,
        gid,
        peer,
        remote,
        region,
        base_off,
        total,
        chunk: ep.tunables.pipeline_chunk(),
        depth: ep.tunables.pipeline_depth(),
        rails,
        cacheable,
        next_off: 0,
        landed: 0,
        inflight: Vec::new(),
        per_rail: vec![0; rails],
        staged_final: None,
        fin,
        next_rail: 0,
    };
    ep.state.lock().pipelines.insert(req, ps);
    ep.metric(|m| m.counters.pipe_started += 1);
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
    for i in 0..ps.rails {
        let r = (ps.next_rail + i) % ps.rails;
        if ps.per_rail[r] < ps.depth {
            ps.next_rail = (r + 1) % ps.rails;
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
            let mut st = ep.state.lock();
            // Endpoint-wide outstanding-DMA cap: when flow control is on,
            // a full descriptor window idles the pump (non-blocking — the
            // next completion or progress pass refills it).
            let throttled =
                ep.tunables.flow_enable() && dma_cap > 0 && st.pending_dmas.len() >= dma_cap;
            let Some(ps) = st.pipelines.get_mut(&req) else {
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
            let peer_name = ps.peer;
            let info = (
                ps.region,
                ps.base_off,
                ps.cacheable,
                ps.remote,
                ps.is_read,
                ps.fin.clone(),
                ps.gid,
            );
            (step, st.peer(&peer_name).cloned(), info)
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
    proc.advance(ep.cfg.host.req_bookkeep);
    let e4 = if cacheable {
        crate::regcache::acquire(proc, ep, sub)
    } else {
        ep.ectx.map(proc, sub)
    };
    if overlap {
        let dt = proc.now().saturating_sub(t0);
        ep.metric(|m| m.counters.pipe_reg_overlap_ns += dt.as_ns());
    }
    ep.trace(
        proc.now(),
        crate::trace::TraceEvent::Registered {
            gid,
            bytes: sub.len,
            cost_ns: proc.now().saturating_sub(t0).as_ns(),
        },
    );
    e4
}

/// Create the completion event, attach the chained control on the final
/// chunk, publish the in-flight record, and fire one chunk descriptor.
#[allow(clippy::too_many_arguments)]
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
    let event = Rc::new(ep.ectx.event_create(1));
    let e_peer = peer.elan.as_ref().expect("rdma to a peer without elan");
    let last = fin.is_some();
    if let Some(ctl) = fin {
        if ep.cfg.chained_fin {
            // The NIC fires the FIN/FIN_ACK off the final chunk without
            // host involvement. It bypasses `send_frame`, so the control
            // counter is bumped here.
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
        // Not chained: `pipe_chunk_landed` sends the control from the host
        // when the final chunk lands (the header lives in the pipe state).
    }
    let token = ep.state.lock().alloc_dma_token();
    match ep.cfg.completion {
        CompletionMode::PollEvent => {
            if let Some(bell) = ep.doorbell() {
                event.set_signal(bell);
            }
            if ep.cfg.progress == ProgressMode::Interrupt {
                event.arm_irq(true);
            }
        }
        CompletionMode::SharedQueueCombined | CompletionMode::SharedQueueSeparate => {
            // Chain a small QDMA into the shared completion queue (Fig. 6).
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
    // Publish the chunk, tolerating the pipeline having been torn down
    // while its mapping was acquired.
    let depth_now = {
        let mut st = ep.state.lock();
        match st.pipelines.get_mut(&req) {
            Some(ps) => {
                ps.inflight.push(PipeChunk {
                    token,
                    sub,
                    e4,
                    rail,
                });
                Some((ps.inflight.len(), ps.gid))
            }
            None => None,
        }
    };
    let Some((depth_now, gid)) = depth_now else {
        crate::regcache::release(proc, ep, &sub, e4);
        event.free();
        return;
    };
    ep.state.lock().pending_dmas.push(PendingDma {
        token,
        event: event.clone(),
        role: DmaRole::Chunk {
            req,
            bytes: len,
            is_read,
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
    ep.ectx.rdma(
        proc,
        rail,
        kind,
        e4,
        remote.offset(off),
        len,
        Some(event.id()),
    );
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
    is_read: bool,
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
            st.pipelines.remove(&req).map(|ps| (ps.peer, ps.fin))
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
            // The control did not ride the final chunk: the host sends it,
            // like the monolithic un-chained path.
            let peer = ep.state.lock().peer(&to).cloned();
            if let Some(peer) = peer {
                if let Some(route) = first_route(ep, &peer) {
                    proc.advance(ep.cfg.host.hdr_build);
                    send_ctl(proc, ep, &peer, route, ctl);
                }
            }
        }
    }
    if is_read {
        credit_recv(proc, ep, req, bytes);
    } else {
        credit_send(proc, ep, req, bytes);
    }
    if !finished {
        pipe_pump(proc, ep, req);
    }
}

/// Pump every live pipeline. A safety net for the thread-progress modes —
/// chunk completions normally refill their own windows.
pub(crate) fn pipe_pump_all(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
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
/// fragment loop. Returns true when fragments went out, so the polling
/// wait loop keeps cycling until the pushes drain instead of blocking.
pub(crate) fn tcp_push_pump(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
    let host = ep.cfg.host.clone();
    let burst_frags = ep.tunables.pipeline_depth();
    let bursts: Vec<(u64, crate::peer::PeerInfo, Hdr, HostBuf, usize, usize)> = {
        let mut st = ep.state.lock();
        if st.tcp_pushes.is_empty() {
            return false;
        }
        let mut out = Vec::new();
        for i in 0..st.tcp_pushes.len() {
            let (sid, peer_name, fh, region, start, end) = {
                let p = &st.tcp_pushes[i];
                (
                    p.send_req,
                    p.peer,
                    p.frag_hdr.clone(),
                    p.src_region,
                    p.next_off,
                    p.end,
                )
            };
            let burst_end = end.min(start + burst_frags * TCP_FRAG_PAYLOAD);
            if burst_end <= start {
                continue;
            }
            let Some(peer) = st.peer(&peer_name).cloned() else {
                continue;
            };
            st.tcp_pushes[i].next_off = burst_end;
            out.push((sid, peer, fh, region, start, burst_end));
        }
        st.tcp_pushes.retain(|p| p.next_off < p.end);
        out
    };
    if bursts.is_empty() {
        return false;
    }
    for (sid, peer, fh_template, region, start, end) in bursts {
        let mut off = start;
        while off < end {
            let take = (end - off).min(TCP_FRAG_PAYLOAD);
            let mut frame = frame_with_room(take);
            ep.ectx.read_into(&region, off, take, &mut frame);
            let mut fh = fh_template.clone();
            fh.offset = off as u64;
            proc.advance(host.hdr_build);
            send_frame(proc, ep, &peer, Route::Tcp, fh, frame);
            ep.metric(|m| m.counters.frags_sent += 1);
            off += take;
        }
        {
            let mut st = ep.state.lock();
            if let Some(r) = st.send_reqs.get_mut(&sid) {
                r.bytes_confirmed += end - start;
            }
        }
        maybe_complete_send(proc, ep, sid);
    }
    true
}

/// Split `len` into per-rail `(offset, len)` chunks. Zero-length chunks are
/// omitted (no zero-byte RDMA descriptors when `len < rails`), and
/// `rails == 0` is treated as a single rail rather than dividing by zero.
fn rail_chunks(len: usize, rails: usize) -> Vec<(usize, usize)> {
    let rails = rails.max(1);
    let base = len / rails;
    let extra = len % rails;
    let mut out = Vec::with_capacity(rails);
    let mut off = 0;
    for r in 0..rails {
        let l = base + usize::from(r < extra);
        if l == 0 {
            continue;
        }
        out.push((off, l));
        off += l;
    }
    out
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
            fail_request(proc, ep, ReqKind::Send, q.sid, MpiErrClass::ProcFailed);
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
                gid: q.gid,
            },
        );
        let Some(route) = first_route(ep, &pi) else {
            fail_request(proc, ep, ReqKind::Send, q.sid, MpiErrClass::NoTransport);
            continue;
        };
        proc.advance(ep.cfg.host.hdr_build);
        send_frame(proc, ep, &pi, route, q.hdr, q.frame);
        // Buffered eager semantics: on the wire = locally complete.
        {
            let mut st = ep.state.lock();
            if let Some(r) = st.send_reqs.get_mut(&q.sid) {
                r.bytes_confirmed = r.msg_len;
            }
        }
        maybe_complete_send(proc, ep, q.sid);
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
    let restore = |ep: &Rc<Endpoint>| {
        if let Some(fp) = ep.state.lock().flow.get_mut(&to) {
            fp.pending_return += n;
        }
    };
    let Some(peer) = peer else {
        restore(ep);
        return;
    };
    let Some(route) = first_route(ep, &peer) else {
        restore(ep);
        return;
    };
    let mut h = Hdr::new(HdrType::CreditReturn);
    h.ctx = ep.name.job.0;
    h.src_rank = ep.name.rank as u32;
    h.seq = n as u32;
    proc.advance(ep.cfg.host.hdr_build);
    send_ctl(proc, ep, &peer, route, h);
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
pub(crate) fn flow_pump(proc: &Proc, ep: &Rc<Endpoint>) -> bool {
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
    if hdr.send_req != 0 {
        fail_request(proc, ep, ReqKind::Send, hdr.send_req, err);
    }
    if hdr.recv_req != 0 {
        fail_request(proc, ep, ReqKind::Recv, hdr.recv_req, err);
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
    let Some(route) = first_route(ep, peer) else {
        return;
    };
    let mut h = Hdr::new(HdrType::Nack);
    h.ctx = ep.name.job.0;
    h.src_rank = ep.name.rank as u32;
    h.send_req = send_req;
    h.recv_req = recv_req;
    h.seq = err_code(err);
    proc.advance(ep.cfg.host.hdr_build);
    send_ctl(proc, ep, peer, route, h);
}

/// Complete a request with an MPI-style error status: the graceful-
/// degradation path for exhausted retries, NACKed requests, and unroutable
/// peers. Mirrors the completion path (resource release, telemetry,
/// waiter wakeup) with `error` set instead of a delivered payload.
pub(crate) fn fail_request(
    proc: &Proc,
    ep: &Rc<Endpoint>,
    kind: ReqKind,
    id: u64,
    err: MpiErrClass,
) {
    let cleanup = {
        let mut st = ep.state.lock();
        match kind {
            ReqKind::Send => {
                let info = st.send_reqs.get_mut(&id).and_then(|r| {
                    if r.done {
                        None
                    } else {
                        r.done = true;
                        r.error = Some(err);
                        Some((r.src_e4.take(), r.src_region, r.bounce.take(), r.dst))
                    }
                });
                info.map(|(e4, region, bounce, dst)| {
                    // A credit-starved send still parked in the flow queue
                    // never went on the wire; the parked frame dies with
                    // the request.
                    if let Some(fp) = st.flow.get_mut(&dst) {
                        fp.queued.retain(|q| q.sid != id);
                    }
                    (e4, region, bounce)
                })
            }
            ReqKind::Recv => {
                let cleanup = st.recv_reqs.get_mut(&id).and_then(|r| {
                    if r.done {
                        None
                    } else {
                        r.done = true;
                        r.error = Some(err);
                        let region = r.bounce.unwrap_or(r.buf);
                        Some((r.dst_e4.take(), region, r.bounce.take(), r.ctx))
                    }
                });
                // An unmatched recv failed here is still in its comm's
                // posted list; drop it so matching never dereferences the
                // request after the application reaps it.
                cleanup.map(|(e4, region, bounce, ctx)| {
                    if let Some(c) = st.comms.get_mut(&ctx) {
                        c.posted.retain(|rid| *rid != id);
                    }
                    (e4, region, bounce)
                })
            }
        }
    };
    let Some((e4, region, bounce)) = cleanup else {
        return;
    };
    // Tear down any pipelined transfer this request owned: forget its
    // in-flight chunk completions (stale event fires are ignored), drop
    // parked TCP pushes, and release every chunk mapping — a failed
    // request must leave `mapping_count()` untouched.
    let (chunks, staged) = {
        let mut st = ep.state.lock();
        if kind == ReqKind::Send {
            st.tcp_pushes.retain(|p| p.send_req != id);
        }
        match st.pipelines.remove(&id) {
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
        }
    };
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
    // Same resource discipline as the success path: cached mappings go
    // back to the cache, everything else is unmapped — a failed request
    // must not leak its registration.
    if let Some(e4) = e4 {
        crate::regcache::release(proc, ep, &region, e4);
    }
    if let Some(b) = bounce {
        flow_bounce_free(ep, b);
    }
    record_failure(proc, ep, id, kind == ReqKind::Send, err);
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
    // Degrade every live local request bound to the failed peer.
    let (sends, recvs) = {
        let st = ep.state.lock();
        let sends: Vec<u64> = st
            .send_reqs
            .values()
            .filter(|r| !r.done && r.dst == e.peer)
            .map(|r| r.id)
            .collect();
        let recvs: Vec<u64> = st
            .recv_reqs
            .values()
            .filter(|r| {
                if r.done {
                    return false;
                }
                match &r.matched {
                    // In flight from the failed peer: it will never finish.
                    Some(m) => m.src == e.peer,
                    // Unmatched but selecting the failed peer by name: no
                    // other sender can ever satisfy it, so complete it with
                    // the error instead of letting it hang silently.
                    None => r.src_sel.is_some_and(|s| {
                        st.comms
                            .get(&r.ctx)
                            .and_then(|c| c.group.get(s as usize))
                            .is_some_and(|name| *name == e.peer)
                    }),
                }
            })
            .map(|r| r.id)
            .collect();
        (sends, recvs)
    };
    for id in sends {
        fail_request(proc, ep, ReqKind::Send, id, MpiErrClass::ProcFailed);
    }
    for id in recvs {
        fail_request(proc, ep, ReqKind::Recv, id, MpiErrClass::ProcFailed);
    }
    // Purge the failed peer's parked receive-side state: its unexpected
    // fragments will never match a receive that completes, and each one
    // staged in the bounce pool pins a slot other peers need. Failing the
    // per-request sends above already emptied its flow queue; the peer's
    // credit entry goes with it.
    let leaked = {
        let mut st = ep.state.lock();
        st.flow.remove(&e.peer);
        let mut stages: Vec<HostBuf> = Vec::new();
        for c in st.comms.values_mut() {
            c.unexpected.retain_mut(|f| {
                if f.from == e.peer {
                    if let Some(s) = f.stage.take() {
                        stages.push(s);
                    }
                    false
                } else {
                    true
                }
            });
            c.out_of_order.retain_mut(|f| {
                if f.from == e.peer {
                    if let Some(s) = f.stage.take() {
                        stages.push(s);
                    }
                    false
                } else {
                    true
                }
            });
        }
        let mut leaked = Vec::new();
        for s in stages {
            if !st.bounce_pool.release(s) {
                leaked.push(s);
            }
        }
        leaked
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
fn write_packed(ep: &Rc<Endpoint>, r: &RecvReq, off: usize, data: &[u8]) {
    if data.is_empty() {
        return;
    }
    match &r.bounce {
        Some(b) => ep.write_buf(b, off, data),
        None => ep.write_buf(&r.buf, off, data),
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
            let chunks = rail_chunks(len, rails);
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
        assert_eq!(rail_chunks(10, 0), vec![(0, 10)]);
        assert_eq!(rail_chunks(0, 0), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn rail_chunks_fewer_bytes_than_rails_skips_idle_rails() {
        assert_eq!(rail_chunks(2, 4), vec![(0, 1), (1, 1)]);
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
