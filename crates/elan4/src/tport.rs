//! Tport: the NIC-resident tagged message port used by MPICH-QsNetII.
//!
//! This is the *comparator's* transport. The NIC keeps the posted-receive
//! table and does tag matching itself, so a matched eager message lands in
//! the user buffer with no host round trip; large messages are pulled by the
//! receiving NIC in pipelined chunks as soon as the envelope matches. The
//! Open MPI PTL deliberately does *not* use this (paper §6.5): its
//! host-side shared request queues are the price of multi-network
//! concurrency and MPI-2 dynamic process support.

use std::collections::VecDeque;
use std::rc::Rc;

use qsim::{Proc, Signal, SimHandle};

use crate::cluster::Cluster;
use crate::ctx::ElanCtx;
use crate::types::{HostAddr, HostBuf, Vpid};

/// Tag wildcard for receives.
pub const TPORT_ANY_TAG: i64 = -1;
/// Source wildcard for receives.
pub const TPORT_ANY_SRC: u32 = u32::MAX;

/// Match information delivered with a completed receive.
#[derive(Clone, Debug)]
pub struct TportEnvelope {
    /// Sending context.
    pub src: Vpid,
    /// Message tag.
    pub tag: i64,
    /// Message length in bytes.
    pub len: usize,
}

/// A receive posted into the NIC's matching table.
struct PostedRecv {
    src: u32,
    tag: i64,
    buf: HostBuf,
    seq: u64,
    signal: Signal,
    done: Rc<qsim::Local<Option<TportEnvelope>>>,
}

/// A message that arrived before its receive was posted. Small messages
/// carry their payload (buffered NIC-side); large ones are represented by
/// the source descriptor so the data can be pulled on match.
struct UnexpectedMsg {
    env: TportEnvelope,
    eager: Option<Vec<u8>>,
    src_addr: HostAddr,
    rail: usize,
    src_done: SenderDone,
}

#[derive(Clone)]
struct SenderDone {
    signal: Signal,
    flag: Rc<qsim::Local<bool>>,
}

/// Per-context NIC tport state.
#[derive(Default)]
pub struct TportState {
    posted: Vec<PostedRecv>,
    unexpected: VecDeque<UnexpectedMsg>,
    next_post_seq: u64,
}

/// Host handle for tagged-port communication on an attached context.
pub struct Tport {
    ctx: Rc<ElanCtx>,
    rail: usize,
}

/// Handle for a pending receive.
pub struct TportRecv {
    signal: Signal,
    done: Rc<qsim::Local<Option<TportEnvelope>>>,
}

/// Handle for a pending send.
pub struct TportSend {
    signal: Signal,
    flag: Rc<qsim::Local<bool>>,
}

impl Tport {
    /// Open a tagged port over `ctx` on `rail`.
    pub fn new(ctx: Rc<ElanCtx>, rail: usize) -> Tport {
        Tport { ctx, rail }
    }

    /// The context this port is bound to.
    pub fn ctx(&self) -> &Rc<ElanCtx> {
        &self.ctx
    }

    /// Post a tagged receive into `buf`. Matching happens on the NIC; the
    /// returned handle completes when data has landed in `buf`.
    pub fn irecv(&self, proc: &Proc, src: u32, tag: i64, buf: HostBuf) -> TportRecv {
        let cluster = self.ctx.cluster().clone();
        proc.advance(cluster.cfg().pio_cmd);
        let signal = proc.signal();
        let done: Rc<qsim::Local<Option<TportEnvelope>>> = Rc::new(qsim::Local::new(None));
        let vpid = self.ctx.vpid();
        let rail = self.rail;

        let sim = proc.sim();
        let match_at = proc.now() + cluster.cfg().cmd_process + cluster.cfg().tport_match;
        let r_done = done.clone();
        let r_sig = signal.clone();
        let cl = cluster;
        sim.call_at(match_at, move |s| {
            let mut inner = cl.inner.lock();
            let Some(ctx) = inner.ctxs.get_mut(&vpid.raw()) else {
                return;
            };
            let tp = &mut ctx.tport;
            let pos = tp
                .unexpected
                .iter()
                .position(|m| tag_match(src, tag, m.env.src, m.env.tag));
            if let Some(i) = pos {
                let msg = tp.unexpected.remove(i).unwrap();
                drop(inner);
                deliver_matched(&cl, s, msg, buf, r_done, r_sig);
            } else {
                let seq = tp.next_post_seq;
                tp.next_post_seq += 1;
                tp.posted.push(PostedRecv {
                    src,
                    tag,
                    buf,
                    seq,
                    signal: r_sig,
                    done: r_done,
                });
            }
            let _ = rail;
        });
        TportRecv { signal, done }
    }

    /// Send `len` bytes of `buf` to `(dst, tag)`. Small messages go eagerly
    /// with a 32-byte header; large ones send an envelope and are pulled by
    /// the destination NIC once matched.
    pub fn isend(&self, proc: &Proc, dst: Vpid, tag: i64, buf: HostBuf, len: usize) -> TportSend {
        assert!(len <= buf.len);
        let cluster = self.ctx.cluster().clone();
        let cfg = cluster.cfg().clone();
        proc.advance(cfg.pio_cmd);
        let signal = proc.signal();
        let flag = Rc::new(qsim::Local::new(false));
        let src = self.ctx.vpid();
        let rail = self.rail;
        let env = TportEnvelope { src, tag, len };
        let sim = proc.sim();
        let src_node = self.ctx.node();
        let dst_node = dst.node(cfg.ctxs_per_node);
        let sender_done = SenderDone {
            signal: signal.clone(),
            flag: flag.clone(),
        };

        let eager = len <= cfg.tport_eager;
        let start = proc.now();
        let src_addr = HostAddr {
            node: buf.addr.node,
            off: buf.addr.off,
        };
        let payload: Option<Vec<u8>> = eager.then(|| cluster.mem_read(src_addr, len));
        let wire_len = 32 + if eager { len } else { 0 };

        let bus_done = {
            let mut inner = cluster.inner.lock();
            let launched = Cluster::cmdq_acquire(&mut inner, &cfg, src_node, rail, start);
            Cluster::bus_acquire(&mut inner, &cfg, src_node, rail, launched, wire_len)
        };
        let delivered = cluster
            .fabric()
            .packet_delivery(rail, src_node, dst_node, wire_len, bus_done);

        if eager {
            // Sender completes once the payload has left host memory.
            let sd = sender_done.clone();
            sim.call_at(bus_done + cfg.event_fire, move |s| {
                *sd.flag.lock() = true;
                sd.signal.notify(s);
            });
        }

        let cl = cluster.clone();
        sim.call_at(delivered + cfg.tport_match, move |s| {
            nic_arrival(
                &cl,
                s,
                dst,
                UnexpectedMsg {
                    env,
                    eager: payload,
                    src_addr,
                    rail,
                    src_done: sender_done,
                },
            );
        });
        TportSend { signal, flag }
    }

    /// Block until the receive completes; returns the matched envelope.
    pub fn wait_recv(&self, proc: &Proc, r: &TportRecv) -> TportEnvelope {
        loop {
            if let Some(env) = r.done.lock().clone() {
                return env;
            }
            proc.wait(&r.signal).expect_signaled();
            proc.advance(self.ctx.cluster().cfg().poll_check);
        }
    }

    /// Block until the send completes (buffer reusable).
    pub fn wait_send(&self, proc: &Proc, send: &TportSend) {
        loop {
            if *send.flag.lock() {
                return;
            }
            proc.wait(&send.signal).expect_signaled();
            proc.advance(self.ctx.cluster().cfg().poll_check);
        }
    }
}

impl TportRecv {
    /// Has the receive completed?
    pub fn is_done(&self) -> bool {
        self.done.lock().is_some()
    }
}

impl TportSend {
    /// Has the send completed (buffer reusable)?
    pub fn is_done(&self) -> bool {
        *self.flag.lock()
    }
}

fn tag_match(want_src: u32, want_tag: i64, src: Vpid, tag: i64) -> bool {
    (want_src == TPORT_ANY_SRC || want_src == src.raw())
        && (want_tag == TPORT_ANY_TAG || want_tag == tag)
}

/// NIC-side handling of an arriving envelope at the destination.
fn nic_arrival(cluster: &Rc<Cluster>, sim: &SimHandle, dst: Vpid, msg: UnexpectedMsg) {
    let mut inner = cluster.inner.lock();
    let Some(ctx) = inner.ctxs.get_mut(&dst.raw()) else {
        return;
    };
    let tp = &mut ctx.tport;
    let mut best: Option<usize> = None;
    for (i, p) in tp.posted.iter().enumerate() {
        if tag_match(p.src, p.tag, msg.env.src, msg.env.tag)
            && best.map(|b| tp.posted[b].seq > p.seq).unwrap_or(true)
        {
            best = Some(i);
        }
    }
    if let Some(i) = best {
        let p = tp.posted.remove(i);
        drop(inner);
        deliver_matched(cluster, sim, msg, p.buf, p.done, p.signal);
    } else {
        tp.unexpected.push_back(msg);
    }
}

/// Move a matched message into the user buffer and complete both sides.
fn deliver_matched(
    cluster: &Rc<Cluster>,
    sim: &SimHandle,
    msg: UnexpectedMsg,
    buf: HostBuf,
    done: Rc<qsim::Local<Option<TportEnvelope>>>,
    signal: Signal,
) {
    let cfg = cluster.cfg().clone();
    let len = msg.env.len.min(buf.len);
    let dst_node = buf.addr.node;
    let dst_addr = HostAddr {
        node: buf.addr.node,
        off: buf.addr.off,
    };

    if let Some(payload) = msg.eager {
        // Eager data is already at the NIC: one bus write into the buffer.
        let landed = {
            let mut inner = cluster.inner.lock();
            Cluster::bus_acquire(&mut inner, &cfg, dst_node, msg.rail, sim.now(), len)
        } + cfg.event_fire;
        let cl = cluster.clone();
        sim.call_at(landed, move |s| {
            cl.mem_write(dst_addr, &payload[..len]);
            *done.lock() = Some(msg.env);
            signal.notify(s);
        });
        return;
    }

    // Rendezvous: the destination NIC pulls the data, streaming MTU-sized
    // packets through source bus / wire / destination bus. No host is
    // involved at either end — this is Tport's mid-range advantage.
    let src_node = msg.src_addr.node;
    let rail = msg.rail;
    let req_arrival =
        cluster
            .fabric()
            .packet_delivery(rail, dst_node, src_node, cfg.rdma_req_bytes, sim.now());
    let mut cursor = req_arrival + cfg.cmd_process;
    let mut completed;
    let mtu = cluster.fabric().config().mtu;
    let mut remaining = len;
    loop {
        let pkt = remaining.min(mtu);
        let bus_done = {
            let mut inner = cluster.inner.lock();
            Cluster::bus_acquire(&mut inner, &cfg, src_node, rail, cursor, pkt)
        };
        let delivered = cluster
            .fabric()
            .packet_delivery(rail, src_node, dst_node, pkt, bus_done);
        completed = {
            let mut inner = cluster.inner.lock();
            Cluster::bus_acquire(&mut inner, &cfg, dst_node, rail, delivered, pkt)
        };
        cursor = bus_done;
        if remaining <= mtu {
            break;
        }
        remaining -= pkt;
    }

    let cl = cluster.clone();
    let src_addr = msg.src_addr;
    let src_done = msg.src_done;
    sim.call_at(completed + cfg.event_fire, move |s| {
        if len > 0 {
            cl.mem_copy(src_addr, dst_addr, len);
        }
        *done.lock() = Some(msg.env);
        signal.notify(s);
        // Sender-side completion rides back on the pull's final ack.
        *src_done.flag.lock() = true;
        src_done.signal.notify(s);
    });
}
