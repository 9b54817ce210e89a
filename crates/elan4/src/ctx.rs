//! Host-side handles: the `libelan4`-flavoured API a process uses after
//! attaching to the NIC.
//!
//! Every operation that crosses the host/NIC boundary takes a [`qsim::Proc`]
//! so its host-visible cost (PIO writes, poll checks) advances that
//! process's virtual clock; NIC-side costs run asynchronously through the
//! event queue.

use std::rc::Rc;

use qsim::{Dur, Proc, Signal, Wait};
use qsnet::NodeId;

use crate::cluster::{Cluster, EventState, Payload, QdmaSpec, QueueState};
use crate::types::{DmaKind, E4Addr, EventId, EventRef, HostAddr, HostBuf, QueueId, Vpid};

/// A claimed Elan4 context: the per-process NIC endpoint.
///
/// Dropping the handle does *not* release the context (finalization is an
/// explicit protocol step in the paper); call [`ElanCtx::detach`].
pub struct ElanCtx {
    cluster: Rc<Cluster>,
    vpid: Vpid,
    node: NodeId,
}

impl ElanCtx {
    /// Claim a free context on `node` (dynamic join). Returns `None` when
    /// the node's capability is exhausted.
    pub fn attach(cluster: &Rc<Cluster>, node: NodeId) -> Option<ElanCtx> {
        let vpid = cluster.claim_ctx(node)?;
        Some(ElanCtx {
            cluster: cluster.clone(),
            vpid,
            node,
        })
    }

    /// This context's network address.
    pub fn vpid(&self) -> Vpid {
        self.vpid
    }

    /// The node this context lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The machine this context is attached to.
    pub fn cluster(&self) -> &Rc<Cluster> {
        &self.cluster
    }

    /// Release the context back to the system-wide capability.
    pub fn detach(self) {
        self.cluster.release_ctx(self.vpid);
    }

    // ---- memory ----------------------------------------------------------

    /// Allocate host memory on this node.
    ///
    /// # Panics
    /// When the node arena is exhausted.
    pub fn alloc(&self, len: usize) -> HostBuf {
        let mut inner = self.cluster.inner.lock();
        let off = inner.nodes[self.node]
            .alloc
            .alloc(len)
            .expect("node memory exhausted");
        HostBuf {
            addr: HostAddr {
                node: self.node,
                off,
            },
            len,
        }
    }

    /// Return a buffer to the node arena.
    pub fn free(&self, buf: HostBuf) {
        assert_eq!(buf.addr.node, self.node);
        let mut inner = self.cluster.inner.lock();
        inner.nodes[self.node].alloc.free(buf.addr.off, buf.len);
    }

    /// Untimed host store (cost is the caller's to model, typically via
    /// [`ElanCtx::memcpy_cost`]).
    pub fn write(&self, buf: &HostBuf, off: usize, data: &[u8]) {
        assert!(off + data.len() <= buf.len, "write out of bounds");
        self.cluster.mem_write(
            HostAddr {
                node: buf.addr.node,
                off: buf.addr.off + off,
            },
            data,
        );
    }

    /// Untimed host load.
    pub fn read(&self, buf: &HostBuf, off: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(buf, off, len, &mut out);
        out
    }

    /// Untimed host load appended to `out`, so a caller can fill a frame
    /// it has already allocated straight from host memory.
    pub fn read_into(&self, buf: &HostBuf, off: usize, len: usize, out: &mut Vec<u8>) {
        assert!(off + len <= buf.len, "read out of bounds");
        self.cluster.mem_append(
            HostAddr {
                node: buf.addr.node,
                off: buf.addr.off + off,
            },
            len,
            out,
        );
    }

    /// Untimed host copy of `len` bytes from `src` at `src_off` to `dst` at
    /// `dst_off`, in one pass with no staging buffer; the buffers may live
    /// on different nodes.
    pub fn copy(&self, src: &HostBuf, src_off: usize, dst: &HostBuf, dst_off: usize, len: usize) {
        let (from, to) = (src.slice(src_off, len), dst.slice(dst_off, len));
        self.cluster.mem_copy(from.addr, to.addr, len);
    }

    /// Host memcpy cost for `len` bytes.
    pub fn memcpy_cost(&self, len: usize) -> Dur {
        self.cluster.cfg.memcpy(len)
    }

    /// Map a buffer into Elan space (the "expanded memory descriptor" of
    /// paper §4.2). Charges the calling process the registration cost —
    /// pinning plus per-page MMU loads ([`NicConfig::map_cost`]) — before
    /// the translation becomes visible.
    ///
    /// [`NicConfig::map_cost`]: crate::NicConfig::map_cost
    pub fn map(&self, proc: &Proc, buf: &HostBuf) -> E4Addr {
        proc.advance(self.cluster.cfg.map_cost(buf.len));
        let mut inner = self.cluster.inner.lock();
        inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached")
            .mmu
            .map(*buf)
    }

    /// Remove an Elan-space mapping; returns false if it was not mapped.
    /// Charges the calling process the TLB-shootdown/unpin cost.
    pub fn unmap(&self, proc: &Proc, addr: E4Addr) -> bool {
        proc.advance(self.cluster.cfg.unmap_shootdown);
        let mut inner = self.cluster.inner.lock();
        inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached")
            .mmu
            .unmap(addr)
    }

    /// Live mappings in this context's MMU (leak checks). A detached
    /// context has no MMU state left, hence no mappings.
    pub fn mapping_count(&self) -> usize {
        let inner = self.cluster.inner.lock();
        inner
            .ctxs
            .get(&self.vpid.raw())
            .map(|c| c.mmu.mapping_count())
            .unwrap_or(0)
    }

    // ---- queues ----------------------------------------------------------

    /// Create a receive queue with `nslots` slots of `slot_size` bytes (the
    /// Quadrics QSLOTS). Slot size is capped at 2 KB like real QDMA.
    pub fn create_queue(&self, nslots: usize, slot_size: usize) -> RxQueue {
        assert!(slot_size <= 2048, "QDMA slots are at most 2KB");
        assert!(nslots > 0);
        let mut inner = self.cluster.inner.lock();
        let ctx = inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached");
        let qid = QueueId(ctx.queues.len() as u16);
        ctx.queues.push(Some(QueueState {
            slot_size,
            nslots,
            slots: Default::default(),
            signal: None,
            irq_armed: false,
        }));
        RxQueue {
            cluster: self.cluster.clone(),
            vpid: self.vpid,
            qid,
        }
    }

    // ---- QDMA ------------------------------------------------------------

    /// Post a queued DMA of `data` (≤ destination slot size) to `dst`'s
    /// queue `qid`. Costs one PIO write on the calling process; the rest is
    /// asynchronous. `local_event` fires once the payload has left host
    /// memory, unless that event has been freed by then.
    pub fn qdma(
        &self,
        proc: &Proc,
        rail: usize,
        dst: Vpid,
        qid: QueueId,
        data: Vec<u8>,
        local_event: Option<EventRef>,
    ) {
        assert!(data.len() <= 2048, "QDMA messages are at most 2KB");
        proc.advance(self.cluster.cfg.pio_cmd);
        // cmd_process is charged as command-processor occupancy inside the
        // cluster engines, not as a latency offset here.
        let start = proc.now();
        let spec = QdmaSpec::to_queue(dst, qid, data, rail);
        self.cluster
            .qdma_from_nic(&proc.sim(), start, self.vpid, spec, local_event);
    }

    /// Post a QDMA that writes a *remote counted event*: the arrival
    /// decrements `event` in `dst`'s context, carrying `data` into its
    /// combine buffer. One PIO write on the calling process; no receive
    /// queue is touched. This is how a host injects itself into a standing
    /// NIC collective program on another rank. A [`Payload::Shared`] buffer
    /// lets one host send the same bytes to several events without a copy
    /// per QDMA.
    pub fn qdma_to_event(
        &self,
        proc: &Proc,
        rail: usize,
        dst: Vpid,
        event: EventId,
        data: impl Into<Payload>,
    ) {
        let data = data.into();
        assert!(data.len() <= 2048, "QDMA messages are at most 2KB");
        proc.advance(self.cluster.cfg.pio_cmd);
        let start = proc.now();
        let spec = QdmaSpec::to_event(dst, event, data, rail);
        self.cluster
            .qdma_from_nic(&proc.sim(), start, self.vpid, spec, None);
    }

    /// Hardware broadcast: deliver one ≤2 KB frame to the queues of many
    /// peers with a single NIC injection (the switches replicate it).
    /// Only valid across a synchronously-created set of contexts; the
    /// upper layer enforces the paper's global-address-space gate.
    /// `local_event` fires as for [`ElanCtx::qdma`].
    pub fn hw_bcast(
        &self,
        proc: &Proc,
        rail: usize,
        targets: Vec<(Vpid, QueueId, Vec<u8>)>,
        local_event: Option<EventRef>,
    ) {
        assert!(
            targets.iter().all(|t| t.2.len() <= 2048),
            "broadcast frames are at most 2KB"
        );
        proc.advance(self.cluster.cfg.pio_cmd);
        let start = proc.now();
        self.cluster
            .hw_bcast_from_nic(&proc.sim(), start, self.vpid, rail, targets, local_event);
    }

    // ---- RDMA ------------------------------------------------------------

    /// Post an RDMA descriptor. `local` must be owned by this context;
    /// `remote` names the peer mapping. `done` fires locally on completion,
    /// unless that event has been freed by then.
    #[expect(clippy::too_many_arguments)]
    pub fn rdma(
        &self,
        proc: &Proc,
        rail: usize,
        kind: DmaKind,
        local: E4Addr,
        remote: E4Addr,
        len: usize,
        done: Option<EventRef>,
    ) {
        proc.advance(self.cluster.cfg.pio_cmd);
        let start = proc.now();
        self.cluster.rdma_from_nic(
            &proc.sim(),
            start,
            self.vpid,
            rail,
            kind,
            local,
            remote,
            len,
            done,
        );
    }

    // ---- events ----------------------------------------------------------

    /// Create an Elan event with the given completion count (Fig. 5b). The
    /// event takes the slot most recently handed back by
    /// [`ElanEvent::free`], at that slot's new generation, and only grows
    /// the context's event table when no slot is free, so the table never
    /// holds more slots than the most events live at once. An event that
    /// remote event writes target must never be freed: they name its slot
    /// by [`ElanEvent::id`] alone, without a generation.
    pub fn event_create(&self, count: u32) -> ElanEvent {
        let mut inner = self.cluster.inner.lock();
        let ctx = inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached");
        let (slot, gen) = match ctx.free_events.pop() {
            Some(slot) => {
                let st = &mut ctx.events[slot as usize];
                st.count = count as i64;
                st.freed = false;
                (slot, st.gen)
            }
            None => {
                ctx.events.push(EventState::new(count));
                (ctx.events.len() as u32 - 1, 0)
            }
        };
        ElanEvent {
            cluster: self.cluster.clone(),
            vpid: self.vpid,
            id: EventId(slot),
            gen,
        }
    }

    /// Slots in this context's event table, live and free (leak checks).
    /// A detached context has none.
    pub fn event_slots(&self) -> usize {
        let inner = self.cluster.inner.lock();
        inner
            .ctxs
            .get(&self.vpid.raw())
            .map_or(0, |c| c.events.len())
    }

    /// Host-side event trigger (a PIO store to the event word): decrement a
    /// *local* event, optionally contributing `data` to its combine buffer.
    /// This is how the host "enters" an armed NIC collective program —
    /// after this single store, every further hop is NIC→NIC.
    pub fn set_event(&self, proc: &Proc, event: &ElanEvent, data: Option<Vec<u8>>) {
        assert_eq!(event.vpid, self.vpid, "event of another context");
        proc.advance(self.cluster.cfg.pio_cmd);
        self.cluster.event_complete_with_data(
            &proc.sim(),
            self.vpid,
            event.id,
            Some(event.gen),
            data.map(Payload::Owned),
        );
    }
}

/// Host handle onto a QDMA receive queue.
pub struct RxQueue {
    cluster: Rc<Cluster>,
    vpid: Vpid,
    qid: QueueId,
}

impl RxQueue {
    /// Queue id within the owning context.
    pub fn id(&self) -> QueueId {
        self.qid
    }

    /// The context that created the queue.
    pub fn owner(&self) -> Vpid {
        self.vpid
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut QueueState) -> R) -> R {
        let mut inner = self.cluster.inner.lock();
        let ctx = inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached");
        let q = ctx.queues[self.qid.0 as usize]
            .as_mut()
            .expect("queue destroyed");
        f(q)
    }

    /// Pop without the poll cost (used right after a signalled wakeup,
    /// where the detection cost has been paid already).
    pub fn pop_ready(&self) -> Option<Vec<u8>> {
        self.with_state(|q| q.slots.pop_front())
    }

    /// True when no message is waiting.
    pub fn is_empty(&self) -> bool {
        self.with_state(|q| q.slots.is_empty())
    }

    /// Register `sig` to be notified on every deposit. With
    /// [`RxQueue::arm_irq`] the notification models an interrupt (delayed by
    /// `irq_latency`); otherwise it models the host observing the event word.
    pub fn set_signal(&self, sig: Signal) {
        self.with_state(|q| q.signal = Some(sig));
    }

    /// Generate a host interrupt on every deposit (vs. polled host events).
    pub fn arm_irq(&self, armed: bool) {
        self.with_state(|q| q.irq_armed = armed);
    }

    /// Block until a message is available, then pop it. `detect_cost` is
    /// charged after wakeup (poll-detection or interrupt-return overhead).
    pub fn wait_pop(&self, proc: &Proc, sig: &Signal, detect_cost: Dur) -> Result<Vec<u8>, Wait> {
        loop {
            if let Some(m) = self.pop_ready() {
                return Ok(m);
            }
            match proc.wait(sig) {
                Wait::Signaled => {
                    if detect_cost > Dur::ZERO {
                        proc.advance(detect_cost);
                    }
                }
                Wait::Shutdown => return Err(Wait::Shutdown),
            }
        }
    }
}

/// Host handle onto one occupant of an Elan event slot. Once the event is
/// freed the handle is spent: [`ElanEvent::free`] through it again does
/// nothing, and any other use panics, since the slot may hold another
/// event by then.
pub struct ElanEvent {
    cluster: Rc<Cluster>,
    vpid: Vpid,
    id: EventId,
    gen: u32,
}

impl ElanEvent {
    /// Slot id within the owning context: the address remote event writes
    /// use ([`crate::QdmaTarget::Event`]), valid for as long as the event
    /// is never freed.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// This event as a posted command names its local completion: what
    /// [`ElanCtx::rdma`]'s `done` and [`ElanCtx::qdma`]'s and
    /// [`ElanCtx::hw_bcast`]'s `local_event` take. A completion through it
    /// after the event is freed is ignored.
    pub fn event_ref(&self) -> EventRef {
        EventRef {
            id: self.id,
            gen: self.gen,
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut EventState) -> R) -> R {
        let mut inner = self.cluster.inner.lock();
        let ctx = inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached");
        let st = &mut ctx.events[self.id.0 as usize];
        assert_eq!(st.gen, self.gen, "event used after free");
        f(st)
    }

    /// Consume one latched fire if present (a host poll of the event word).
    pub fn take_fired(&self, proc: &Proc) -> bool {
        proc.advance(self.cluster.cfg.poll_check);
        self.take_fired_ready()
    }

    /// Consume one latched fire without the poll cost.
    pub fn take_fired_ready(&self) -> bool {
        self.with_state(|e| {
            if e.fired > 0 {
                e.fired -= 1;
                true
            } else {
                false
            }
        })
    }

    /// Re-arm with a fresh count. The paper's Fig. 5c/5d race (host reset vs
    /// NIC decrement) does not arise here because the simulation serializes
    /// them — which is exactly why the real design needs the shared
    /// completion queue instead. Only the count re-arms: the fire of an
    /// event without auto-reset spent its chain, so a chained QDMA is not
    /// relaunched (an event that relaunches its chain every round is
    /// [`ElanEvent::set_auto_reset`]).
    pub fn reset(&self, count: u32) {
        self.with_state(|e| e.count = count as i64);
    }

    /// Make the event self-re-arming: every fire adds `count` back, so a
    /// standing collective program survives round after round without the
    /// host racing the NIC to reset it. Early arrivals for the next round
    /// simply pre-decrement the re-armed count.
    pub fn set_auto_reset(&self, count: u32) {
        self.with_state(|e| e.auto_reset = Some(count as i64));
    }

    /// Configure the NIC-side reduction applied to arriving event-write
    /// payloads (64-bit LE lanes). Without one, the latest payload wins —
    /// the broadcast-forwarding mode.
    pub fn set_combine(&self, op: crate::cluster::NicReduce) {
        self.with_state(|e| e.combine = Some(op));
    }

    /// Queue each fire's payload for [`ElanEvent::take_payload`]. Off by
    /// default: an event whose host reads no payload (an RDMA completion,
    /// a fan-in that only forwards its partials) queues none.
    pub fn set_capture(&self, on: bool) {
        self.with_state(|e| e.capture = on);
    }

    /// Pop the oldest unconsumed fire payload (the combined partials of a
    /// reduction round, or a forwarded broadcast frame) of an event that
    /// captures them ([`ElanEvent::set_capture`]). Payloads queue in fire
    /// order, so pipelined rounds of a standing program never clobber a
    /// frame the host has not drained yet. The buffer is the one the fire
    /// also forwarded, shared when a chain still holds it.
    pub fn take_payload(&self) -> Payload {
        self.with_state(|e| e.fired_payloads.pop_front().unwrap_or_default())
    }

    /// Notify `sig` when the event fires (host-event observation).
    pub fn set_signal(&self, sig: Signal) {
        self.with_state(|e| e.signal = Some(sig));
    }

    /// Deliver the fire as an interrupt (adds `irq_latency`).
    pub fn arm_irq(&self, armed: bool) {
        self.with_state(|e| e.irq_armed = armed);
    }

    /// Chain a QDMA to this event: launched by the NIC when the count hits
    /// zero (the paper's chained-event mechanism). Multiple chained QDMAs
    /// launch in the order they were attached.
    pub fn chain_qdma(&self, spec: QdmaSpec) {
        self.with_state(|e| e.chained.push(spec));
    }

    /// Hand the event's slot back to its context for the next
    /// [`ElanCtx::event_create`]: its signal, chained specs and payloads
    /// are dropped, and the slot moves to its next generation, so a
    /// completion still in flight for this event is ignored and never
    /// reaches the slot's next occupant. Only an event that is never
    /// freed may be the target of remote event writes, which name the
    /// slot without a generation. Freeing through a handle whose event
    /// has already been freed does nothing.
    pub fn free(&self) {
        let mut inner = self.cluster.inner.lock();
        let ctx = inner
            .ctxs
            .get_mut(&self.vpid.raw())
            .expect("context detached");
        let st = &mut ctx.events[self.id.0 as usize];
        if st.gen != self.gen {
            return;
        }
        st.vacate();
        ctx.free_events.push(self.id.0);
    }
}

impl std::fmt::Debug for ElanCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ElanCtx({}, node {})", self.vpid, self.node)
    }
}
