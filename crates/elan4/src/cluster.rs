//! The simulated cluster: per-node main memory + PCI-X bus, per-context NIC
//! state (MMU, receive queues, events), and the QDMA/RDMA engines that move
//! bytes through the [`qsnet::Fabric`].
//!
//! All mutable state sits in one [`qsim::Local`] cell: the `qsim` kernel
//! runs every process and device callback of a run on one thread, one at
//! a time, so the state needs no lock.

use std::collections::VecDeque;
use std::rc::Rc;

use qsim::{FastMap, Local, Signal, SimHandle, Time};
use qsnet::{Fabric, FabricConfig, NodeId};

use crate::alloc::Allocator;
use crate::config::NicConfig;
use crate::mmu::Mmu;
use crate::types::{DmaKind, E4Addr, EventId, EventRef, HostAddr, QueueId, Vpid};

/// Where a QDMA lands on the destination NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QdmaTarget {
    /// Deposit into a receive queue slot (the classic QDMA).
    Queue(QueueId),
    /// Write a remote counted event: the arrival decrements the event and
    /// hands the payload to its combine buffer — no queue slot, no host.
    /// This is the inter-hop primitive of NIC-resident collectives. The
    /// write names the slot without a generation, so its event must never
    /// be freed.
    Event(EventId),
}

/// The bytes of a QDMA or of an event fire: owned by their one holder, or
/// shared by every consumer of one fire (the host and each forwarding
/// chain), so a fired payload is moved from hop to hop, never copied.
#[derive(Clone, Debug)]
pub enum Payload {
    /// The only holder's buffer.
    Owned(Vec<u8>),
    /// One buffer several holders read.
    Shared(Rc<Vec<u8>>),
}

// The shared variant fits in `Vec`'s niche, so carrying it inside
// `QdmaSpec::data` keeps the spec that every chained launch copies at 48
// bytes.
const _: () = assert!(std::mem::size_of::<QdmaSpec>() == 48);

impl Default for Payload {
    fn default() -> Payload {
        Payload::Owned(Vec::new())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Owned(v)
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(v) => v,
        }
    }
}

impl Payload {
    /// The buffer, copied only if another holder still reads it.
    fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(v) => Rc::unwrap_or_clone(v),
        }
    }

    /// Write access, copying the buffer first only if another holder
    /// still reads it.
    fn make_mut(&mut self) -> &mut Vec<u8> {
        if let Payload::Shared(_) = self {
            *self = Payload::Owned(std::mem::take(self).into_vec());
        }
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(_) => unreachable!("made owned above"),
        }
    }

    /// Hand one of `holders` their reference: a clone for all but the last
    /// holder, which takes the buffer itself. A non-empty buffer with
    /// several holders is made shared first, so every clone is a reference
    /// count; an empty one allocates nothing either way.
    fn hand_out(&mut self, holders: &mut usize) -> Payload {
        *holders -= 1;
        if *holders == 0 {
            return std::mem::take(self);
        }
        if let Payload::Owned(v) = self {
            if !v.is_empty() {
                *self = Payload::Shared(Rc::new(std::mem::take(v)));
            }
        }
        self.clone()
    }
}

/// A small message to be queued (QDMA) — possibly launched from a chained
/// event without host involvement.
#[derive(Clone, Debug)]
pub struct QdmaSpec {
    /// Destination context.
    pub dst: Vpid,
    /// Destination receive queue or counted event.
    pub target: QdmaTarget,
    /// Message bytes (≤ 2 KB). A queue deposit takes them as an owned
    /// frame; an event write may carry a fire's shared buffer.
    pub data: Payload,
    /// Rail to inject on.
    pub rail: usize,
    /// For chained specs: replace `data` at launch time with the firing
    /// event's payload (forwarding combined partials up a reduction tree,
    /// or a broadcast payload down one).
    pub payload_from_event: bool,
}

impl QdmaSpec {
    /// A QDMA into a receive queue.
    pub fn to_queue(dst: Vpid, queue: QueueId, data: Vec<u8>, rail: usize) -> QdmaSpec {
        QdmaSpec {
            dst,
            target: QdmaTarget::Queue(queue),
            data: Payload::Owned(data),
            rail,
            payload_from_event: false,
        }
    }

    /// A QDMA that writes a remote counted event, carrying `data` into its
    /// combine buffer.
    pub fn to_event(dst: Vpid, event: EventId, data: Payload, rail: usize) -> QdmaSpec {
        QdmaSpec {
            dst,
            target: QdmaTarget::Event(event),
            data,
            rail,
            payload_from_event: false,
        }
    }

    /// A chained event-write whose payload is resolved when the chaining
    /// event fires (the firing event's payload is forwarded).
    pub fn forward_to_event(dst: Vpid, event: EventId, rail: usize) -> QdmaSpec {
        QdmaSpec {
            dst,
            target: QdmaTarget::Event(event),
            data: Payload::default(),
            rail,
            payload_from_event: true,
        }
    }
}

/// Reduction the NIC thread processor applies when combining event-write
/// payloads (64-bit little-endian lanes). Only commutative/associative ops
/// are offloadable; anything else stays on the host path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NicReduce {
    /// Lane-wise `f64` sum.
    SumF64,
    /// Lane-wise `f64` max.
    MaxF64,
    /// Lane-wise wrapping `u64` sum.
    SumU64,
}

/// Combine `data` into `acc` lane-by-lane. An empty accumulator adopts the
/// payload itself (the first contribution seeds it); a later one is folded
/// into the accumulator in place, which is copied first only if another
/// holder still reads it.
fn nic_combine(acc: &mut Payload, data: Payload, op: NicReduce) {
    if acc.is_empty() {
        *acc = data;
        return;
    }
    assert_eq!(acc.len(), data.len(), "NIC combine length mismatch");
    for (a, d) in acc.make_mut().chunks_exact_mut(8).zip(data.chunks_exact(8)) {
        let x = <[u8; 8]>::try_from(&*a).unwrap();
        let y = <[u8; 8]>::try_from(d).unwrap();
        let out = match op {
            NicReduce::SumF64 => (f64::from_le_bytes(x) + f64::from_le_bytes(y)).to_le_bytes(),
            NicReduce::MaxF64 => f64::from_le_bytes(x)
                .max(f64::from_le_bytes(y))
                .to_le_bytes(),
            NicReduce::SumU64 => u64::from_le_bytes(x)
                .wrapping_add(u64::from_le_bytes(y))
                .to_le_bytes(),
        };
        a.copy_from_slice(&out);
    }
}

pub(crate) struct QueueState {
    pub slot_size: usize,
    pub nslots: usize,
    pub slots: VecDeque<Vec<u8>>,
    pub signal: Option<Signal>,
    pub irq_armed: bool,
}

pub(crate) struct EventState {
    pub count: i64,
    /// Number of times the count reached zero, minus consumed fires.
    pub fired: u64,
    pub signal: Option<Signal>,
    pub irq_armed: bool,
    pub chained: Vec<QdmaSpec>,
    /// The slot is on its context's free list.
    pub freed: bool,
    /// Goes up each time the slot is freed; a local completion posted for
    /// another generation is ignored.
    pub gen: u32,
    /// Re-arm the count by this much on every fire. This is what makes a
    /// standing collective program reusable across iterations: arrivals for
    /// the next round simply pre-decrement the re-armed count.
    pub auto_reset: Option<i64>,
    /// NIC-side reduction applied to arriving event-write payloads.
    pub combine: Option<NicReduce>,
    /// Payloads combined since the last fire.
    pub accum: Payload,
    /// Queue each fire's payload for the host. Off unless the host reads
    /// one: a fire then only feeds its forwarding chains.
    pub capture: bool,
    /// Payloads captured at each fire, oldest first, consumed in order by
    /// the host. A FIFO rather than a latest-wins word: pipelined rounds
    /// of a standing program may fire an event again before the host
    /// drains the previous payload.
    pub fired_payloads: VecDeque<Payload>,
}

impl EventState {
    /// A new slot's first occupant.
    pub fn new(count: u32) -> EventState {
        EventState {
            count: count as i64,
            fired: 0,
            signal: None,
            irq_armed: false,
            chained: Vec::new(),
            freed: false,
            gen: 0,
            auto_reset: None,
            combine: None,
            accum: Payload::default(),
            capture: false,
            fired_payloads: VecDeque::new(),
        }
    }

    /// Hand the slot back: drop what its occupant held (signal, chained
    /// specs, payloads), keeping the chain list's and the payload FIFO's
    /// capacity for the next occupant, and move to the next generation.
    pub fn vacate(&mut self) {
        self.count = 0;
        self.fired = 0;
        self.signal = None;
        self.irq_armed = false;
        self.chained.clear();
        self.freed = true;
        self.gen = self.gen.wrapping_add(1);
        self.auto_reset = None;
        self.combine = None;
        self.accum = Payload::default();
        self.capture = false;
        self.fired_payloads.clear();
    }
}

pub(crate) struct CtxState {
    pub mmu: Mmu,
    pub queues: Vec<Option<QueueState>>,
    pub events: Vec<EventState>,
    /// Slots of `events` that [`crate::ElanEvent::free`] handed back, the
    /// most recently freed last; `event_create` takes from here before it
    /// grows the table.
    pub free_events: Vec<u32>,
    pub tport: crate::tport::TportState,
}

pub(crate) struct NodeState {
    pub mem: Vec<u8>,
    pub alloc: Allocator,
    /// PCI-X availability per rail: each Elan4 adapter sits in its own
    /// PCI-X slot, so rails have independent host-bus bandwidth (as in the
    /// multirail systems of Coll et al. that the paper cites).
    pub bus_free: Vec<Time>,
    /// NIC command-processor availability per rail: commands (QDMA/RDMA
    /// launches) serialize through the Elan4 thread processor, which is
    /// what bounds small-message issue rate.
    pub cmdq_free: Vec<Time>,
    /// Receive-side deposit engine availability per rail: queue-slot
    /// writes also serialize, bounding small-message reception rate.
    pub deposit_free: Vec<Time>,
}

/// Running counters for tests and benches.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// QDMA messages issued.
    pub qdmas: u64,
    /// Hardware broadcasts issued.
    pub hw_bcasts: u64,
    /// RDMA descriptors issued.
    pub rdmas: u64,
    /// Bytes moved by RDMA.
    pub rdma_bytes: u64,
    /// Chained commands launched by fired events.
    pub chained_launches: u64,
    /// QDMA deposits that targeted a remote counted event (collective
    /// program hops) instead of a receive queue.
    pub event_writes: u64,
    /// Host interrupts generated.
    pub interrupts: u64,
    /// Deposits that found a full queue (each retries).
    pub queue_overflows: u64,
    /// Deposits corrupted by fault injection.
    pub corrupted_deposits: u64,
}

pub(crate) struct ClusterInner {
    pub nodes: Vec<NodeState>,
    pub ctxs: FastMap<u32, CtxState>,
    pub free_ctxs: Vec<Vec<u16>>,
    pub stats: ClusterStats,
    /// Fault injection: payload-carrying QDMA deposits to corrupt (flips
    /// one byte past the 64-byte header).
    pub corrupt_deposits: u64,
}

/// The whole simulated machine: fabric + NICs + node memory.
pub struct Cluster {
    pub(crate) cfg: NicConfig,
    pub(crate) fabric: Rc<Fabric>,
    pub(crate) inner: Local<ClusterInner>,
}

impl Cluster {
    /// Build the simulated machine: fabric, per-node memory, NIC state.
    pub fn new(cfg: NicConfig, fabric_cfg: FabricConfig) -> Rc<Cluster> {
        let fabric = Fabric::new(fabric_cfg);
        let nodes = (0..fabric.config().nodes)
            .map(|_| NodeState {
                mem: vec![0u8; cfg.node_mem],
                alloc: Allocator::new(cfg.node_mem),
                bus_free: vec![Time::ZERO; fabric.config().rails],
                cmdq_free: vec![Time::ZERO; fabric.config().rails],
                deposit_free: vec![Time::ZERO; fabric.config().rails],
            })
            .collect();
        let free_ctxs = (0..fabric.config().nodes)
            .map(|_| (0..cfg.ctxs_per_node).rev().collect())
            .collect();
        Rc::new(Cluster {
            cfg,
            fabric,
            inner: Local::new(ClusterInner {
                nodes,
                ctxs: FastMap::default(),
                free_ctxs,
                stats: ClusterStats::default(),
                corrupt_deposits: 0,
            }),
        })
    }

    /// NIC timing parameters.
    pub fn cfg(&self) -> &NicConfig {
        &self.cfg
    }

    /// The wire this machine is built on.
    pub fn fabric(&self) -> &Rc<Fabric> {
        &self.fabric
    }

    /// Host count.
    pub fn nodes(&self) -> usize {
        self.fabric.config().nodes
    }

    /// Rail count.
    pub fn rails(&self) -> usize {
        self.fabric.config().rails
    }

    /// Snapshot of the NIC-level counters.
    pub fn stats(&self) -> ClusterStats {
        self.inner.lock().stats.clone()
    }

    /// Bytes currently allocated on `node` (leak checks in tests).
    pub fn mem_in_use(&self, node: NodeId) -> usize {
        self.inner.lock().nodes[node].alloc.in_use()
    }

    /// Fault injection: corrupt one payload byte in each of the next
    /// `count` payload-carrying QDMA deposits (models undetected wire or
    /// DMA data corruption, which end-to-end integrity checking exists to
    /// catch).
    pub fn inject_payload_corruption(&self, count: u64) {
        self.inner.lock().corrupt_deposits += count;
    }

    /// Claim a context on `node` out of the system-wide capability. This is
    /// the dynamic-join primitive: processes may attach (and detach) at any
    /// time during the run.
    pub(crate) fn claim_ctx(&self, node: NodeId) -> Option<Vpid> {
        let mut inner = self.inner.lock();
        let ctx = inner.free_ctxs[node].pop()?;
        let vpid = Vpid::new(node, ctx, self.cfg.ctxs_per_node);
        inner.ctxs.insert(
            vpid.raw(),
            CtxState {
                mmu: Mmu::new(vpid, node),
                queues: Vec::new(),
                events: Vec::new(),
                free_events: Vec::new(),
                tport: crate::tport::TportState::default(),
            },
        );
        Some(vpid)
    }

    /// Release a context back to the capability (the disjoin half of
    /// dynamic process management). Safe to call with live traffic in
    /// flight: subsequent DMAs to the context are dropped.
    pub fn release_ctx(&self, vpid: Vpid) {
        let mut inner = self.inner.lock();
        if inner.ctxs.remove(&vpid.raw()).is_some() {
            let node = vpid.node(self.cfg.ctxs_per_node);
            let ctx = (vpid.raw() - node as u32 * self.cfg.ctxs_per_node as u32) as u16;
            inner.free_ctxs[node].push(ctx);
        }
    }

    /// Is a context currently attached? (Connection liveness for PTLs.)
    pub fn ctx_alive(&self, vpid: Vpid) -> bool {
        self.inner.lock().ctxs.contains_key(&vpid.raw())
    }

    // ---- host memory -----------------------------------------------------

    pub(crate) fn mem_read(&self, addr: HostAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.mem_append(addr, len, &mut out);
        out
    }

    pub(crate) fn mem_append(&self, addr: HostAddr, len: usize, out: &mut Vec<u8>) {
        let inner = self.inner.lock();
        out.extend_from_slice(&inner.nodes[addr.node].mem[addr.off..addr.off + len]);
    }

    pub(crate) fn mem_write(&self, addr: HostAddr, data: &[u8]) {
        let mut inner = self.inner.lock();
        inner.nodes[addr.node].mem[addr.off..addr.off + data.len()].copy_from_slice(data);
    }

    /// Copy `len` bytes from `src` to `dst` in one pass under one lock,
    /// with the semantics of reading the whole source before writing:
    /// overlapping ranges on one node move like `memmove`.
    pub(crate) fn mem_copy(&self, src: HostAddr, dst: HostAddr, len: usize) {
        let mut inner = self.inner.lock();
        let (from, to) = (src.off..src.off + len, dst.off..dst.off + len);
        if src.node == dst.node {
            inner.nodes[src.node].mem.copy_within(from, dst.off);
        } else {
            let [s, d] = inner
                .nodes
                .get_disjoint_mut([src.node, dst.node])
                .expect("source and destination nodes exist");
            d.mem[to].copy_from_slice(&s.mem[from]);
        }
    }

    // ---- engines ---------------------------------------------------------

    /// Reserve the NIC command processor of `(node, rail)` starting no
    /// earlier than `earliest`; returns the time the command has been
    /// launched. Commands serialize: this is the per-NIC message-rate
    /// ceiling.
    pub(crate) fn cmdq_acquire(
        inner: &mut ClusterInner,
        cfg: &NicConfig,
        node: NodeId,
        rail: usize,
        earliest: Time,
    ) -> Time {
        let start = earliest.max(inner.nodes[node].cmdq_free[rail]);
        let done = start + cfg.cmd_process;
        inner.nodes[node].cmdq_free[rail] = done;
        done
    }

    /// Reserve the receive-side deposit engine of `(node, rail)`; returns
    /// the completion time of the slot write.
    pub(crate) fn deposit_acquire(
        inner: &mut ClusterInner,
        cfg: &NicConfig,
        node: NodeId,
        rail: usize,
        earliest: Time,
    ) -> Time {
        let start = earliest.max(inner.nodes[node].deposit_free[rail]);
        let done = start + cfg.qdma_deposit;
        inner.nodes[node].deposit_free[rail] = done;
        done
    }

    /// Reserve the PCI-X bus of `node`'s rail-`rail` adapter for `len`
    /// bytes starting no earlier than `earliest`; returns the completion
    /// time of the bus transaction.
    pub(crate) fn bus_acquire(
        inner: &mut ClusterInner,
        cfg: &NicConfig,
        node: NodeId,
        rail: usize,
        earliest: Time,
        len: usize,
    ) -> Time {
        let start = earliest.max(inner.nodes[node].bus_free[rail]);
        let done = start + cfg.bus_setup + cfg.bus(len);
        inner.nodes[node].bus_free[rail] = done;
        done
    }

    /// Issue a QDMA from `src_vpid`'s NIC: the command is already in the NIC
    /// (launch at `start`), payload `data` goes into `dst`'s receive queue.
    /// `local_event`, if any, fires on the issuing NIC once the payload has
    /// been pulled from host memory (send buffer reusable).
    pub(crate) fn qdma_from_nic(
        self: &Rc<Self>,
        sim: &SimHandle,
        start: Time,
        src_vpid: Vpid,
        spec: QdmaSpec,
        local_event: Option<EventRef>,
    ) {
        let cfg = self.cfg.clone();
        let src_node = src_vpid.node(cfg.ctxs_per_node);
        let dst_node = spec.dst.node(cfg.ctxs_per_node);
        let len = spec.data.len();

        let (bus_done, delivered) = {
            let mut inner = self.inner.lock();
            inner.stats.qdmas += 1;
            let launched = Self::cmdq_acquire(&mut inner, &cfg, src_node, spec.rail, start);
            let bus_done = Self::bus_acquire(&mut inner, &cfg, src_node, spec.rail, launched, len);
            drop(inner);
            let delivered = self
                .fabric
                .packet_delivery(spec.rail, src_node, dst_node, len, bus_done);
            (bus_done, delivered)
        };

        // Local completion: send buffer drained from host memory.
        if let Some(ev) = local_event {
            let me = self.clone();
            sim.call_at(bus_done + cfg.event_fire, move |s| {
                me.event_complete(s, src_vpid, ev);
            });
        }

        // Remote deposit after the destination bus writes the slot.
        let me = self.clone();
        sim.call_at(delivered, move |s| {
            let rail = spec.rail;
            let deposit_at = {
                let mut inner = me.inner.lock();
                let bus = Self::bus_acquire(&mut inner, &me.cfg, dst_node, rail, s.now(), len);
                Self::deposit_acquire(&mut inner, &me.cfg, dst_node, rail, bus)
            };
            let me2 = me.clone();
            s.call_at(deposit_at, move |s| me2.deposit(s, spec));
        });
    }

    /// Place a QDMA payload at its destination: a queue slot (retrying
    /// while full) or a remote counted event (the collective-program hop).
    fn deposit(self: &Rc<Self>, sim: &SimHandle, mut spec: QdmaSpec) {
        let qid = match spec.target {
            QdmaTarget::Event(ev) => {
                // Event writes bypass the queue machinery entirely: the
                // deposit engine writes the event word (and its combine
                // buffer), which may fire further chained commands.
                self.inner.lock().stats.event_writes += 1;
                let payload = if spec.data.is_empty() {
                    None
                } else {
                    Some(spec.data)
                };
                self.event_complete_with_data(sim, spec.dst, ev, None, payload);
                return;
            }
            QdmaTarget::Queue(q) => q,
        };
        let mut inner = self.inner.lock();
        if inner.corrupt_deposits > 0 && spec.data.len() > 64 {
            inner.corrupt_deposits -= 1;
            inner.stats.corrupted_deposits += 1;
            let idx = 64 + (spec.data.len() - 64) / 2;
            spec.data.make_mut()[idx] ^= 0x5A;
        }
        let cfg_retry = self.cfg.queue_retry;
        let irq_latency = self.cfg.irq_latency;
        let Some(ctx) = inner.ctxs.get_mut(&spec.dst.raw()) else {
            // Destination detached: the message is dropped on the floor,
            // like a DMA to a revoked context. Finalize must drain first
            // (paper §4.1).
            return;
        };
        let Some(Some(q)) = ctx.queues.get_mut(qid.0 as usize) else {
            return;
        };
        assert!(
            spec.data.len() <= q.slot_size,
            "QDMA payload {} exceeds slot size {}",
            spec.data.len(),
            q.slot_size
        );
        if q.slots.len() >= q.nslots {
            inner.stats.queue_overflows += 1;
            let me = self.clone();
            sim.call_after(cfg_retry, move |s| me.deposit(s, spec));
            return;
        }
        q.slots.push_back(spec.data.into_vec());
        let signal = q.signal.clone();
        let irq = q.irq_armed;
        if irq {
            inner.stats.interrupts += 1;
        }
        drop(inner);
        if let Some(sig) = signal {
            if irq {
                sim.call_after(irq_latency, move |s| sig.notify(s));
            } else {
                sig.notify(sim);
            }
        }
    }

    /// Issue an RDMA. For `Write`, data moves local -> remote; for `Read`, a
    /// request packet travels to the remote NIC which streams data back.
    /// `done_event` fires on the **issuing** NIC when the transfer completes
    /// (data landed), decrementing its count unless the event has been
    /// freed meanwhile; chained QDMAs launch from the event.
    ///
    /// MTU-sized chunks pipeline across the three stages (source bus, wire,
    /// destination bus), so long transfers run at the slowest stage's rate
    /// while short ones pay each stage's latency in sequence.
    #[expect(clippy::too_many_arguments)]
    pub(crate) fn rdma_from_nic(
        self: &Rc<Self>,
        sim: &SimHandle,
        start: Time,
        issuer: Vpid,
        rail: usize,
        kind: DmaKind,
        local: E4Addr,
        remote: E4Addr,
        len: usize,
        done_event: Option<EventRef>,
    ) {
        assert_eq!(
            local.owner(),
            issuer,
            "local E4Addr owned by another context"
        );
        let cfg = self.cfg.clone();
        let issuer_node = issuer.node(cfg.ctxs_per_node);
        let remote_node = remote.owner().node(cfg.ctxs_per_node);

        // Resolve translations up front (faults surface at issue).
        let (local_host, remote_host) = {
            let inner = self.inner.lock();
            let lctx = inner
                .ctxs
                .get(&issuer.raw())
                .expect("issuing context detached");
            let rctx = inner
                .ctxs
                .get(&remote.owner().raw())
                .unwrap_or_else(|| panic!("RDMA target context {} detached", remote.owner()));
            let lh = lctx.mmu.translate(local, len).expect("local MMU fault");
            let rh = rctx.mmu.translate(remote, len).expect("remote MMU fault");
            (lh, rh)
        };

        let launched = {
            let mut inner = self.inner.lock();
            Self::cmdq_acquire(&mut inner, &cfg, issuer_node, rail, start)
        };
        let (src_node, dst_node, src_host, dst_host, data_start) = match kind {
            DmaKind::Write => (issuer_node, remote_node, local_host, remote_host, launched),
            DmaKind::Read => {
                // Request packet to the data source, then its NIC launches.
                let req_arrival = self.fabric.packet_delivery(
                    rail,
                    issuer_node,
                    remote_node,
                    cfg.rdma_req_bytes,
                    launched,
                );
                let remote_launch = {
                    let mut inner = self.inner.lock();
                    Self::cmdq_acquire(&mut inner, &cfg, remote_node, rail, req_arrival)
                };
                (
                    remote_node,
                    issuer_node,
                    remote_host,
                    local_host,
                    remote_launch,
                )
            }
        };

        {
            let mut inner = self.inner.lock();
            inner.stats.rdmas += 1;
            inner.stats.rdma_bytes += len as u64;
        }

        // Chunk pipeline. A zero-length RDMA still makes one (empty) packet.
        let mtu = self.fabric.config().mtu;
        let mut remaining = len;
        let mut cursor = data_start;
        let mut completed;
        loop {
            let chunk = remaining.min(mtu);
            let bus_done = {
                let mut inner = self.inner.lock();
                Self::bus_acquire(&mut inner, &cfg, src_node, rail, cursor, chunk)
            };
            let delivered = self
                .fabric
                .packet_delivery(rail, src_node, dst_node, chunk, bus_done);
            let landed = {
                let mut inner = self.inner.lock();
                Self::bus_acquire(&mut inner, &cfg, dst_node, rail, delivered, chunk)
            };
            completed = landed;
            // The source bus can start the next chunk as soon as it is free;
            // `bus_acquire` already serializes it, so don't gate on delivery.
            cursor = bus_done;
            if remaining <= mtu {
                break;
            }
            remaining -= chunk;
        }

        // Move the actual bytes and fire the completion event when done.
        let me = self.clone();
        sim.call_at(completed + cfg.event_fire, move |s| {
            if len > 0 {
                me.mem_copy(src_host, dst_host, len);
            }
            if let Some(ev) = done_event {
                me.event_complete(s, issuer, ev);
            }
        });
    }

    /// Hardware broadcast (paper §4.1): one NIC injection, replicated by
    /// the Elite switches to every target queue. Requires the global
    /// virtual address space of a synchronously-created capability — the
    /// caller is responsible for that gate. Per-target payloads may differ
    /// only in header sequencing; the wire carries the frame once.
    pub(crate) fn hw_bcast_from_nic(
        self: &Rc<Self>,
        sim: &SimHandle,
        start: Time,
        src_vpid: Vpid,
        rail: usize,
        targets: Vec<(Vpid, QueueId, Vec<u8>)>,
        local_event: Option<EventRef>,
    ) {
        let cfg = self.cfg.clone();
        let src_node = src_vpid.node(cfg.ctxs_per_node);
        let len = targets.iter().map(|t| t.2.len()).max().unwrap_or(0);

        let bus_done = {
            let mut inner = self.inner.lock();
            inner.stats.hw_bcasts += 1;
            let launched = Self::cmdq_acquire(&mut inner, &cfg, src_node, rail, start);
            Self::bus_acquire(&mut inner, &cfg, src_node, rail, launched, len)
        };
        if let Some(ev) = local_event {
            let me = self.clone();
            sim.call_at(bus_done + cfg.event_fire, move |s| {
                me.event_complete(s, src_vpid, ev);
            });
        }
        let dst_nodes: Vec<usize> = targets
            .iter()
            .map(|(v, _, _)| v.node(cfg.ctxs_per_node))
            .collect();
        let deliveries = self
            .fabric
            .bcast_delivery(rail, src_node, &dst_nodes, len, bus_done);
        for ((vpid, qid, data), delivered) in targets.into_iter().zip(deliveries) {
            let me = self.clone();
            let dst_node = vpid.node(cfg.ctxs_per_node);
            let spec = QdmaSpec::to_queue(vpid, qid, data, rail);
            sim.call_at(delivered, move |s| {
                let deposit_at = {
                    let mut inner = me.inner.lock();
                    let bus = Self::bus_acquire(&mut inner, &me.cfg, dst_node, rail, s.now(), len);
                    Self::deposit_acquire(&mut inner, &me.cfg, dst_node, rail, bus)
                };
                let me2 = me.clone();
                s.call_at(deposit_at, move |s| me2.deposit(s, spec));
            });
        }
    }

    /// A local completion: decrement the event `ev` was taken from; on
    /// reaching zero: latch the fire, notify the host (optionally via
    /// interrupt), and launch any chained QDMA. Ignored once that event has
    /// been freed, even if its slot has a new occupant.
    pub(crate) fn event_complete(self: &Rc<Self>, sim: &SimHandle, vpid: Vpid, ev: EventRef) {
        self.event_complete_with_data(sim, vpid, ev.id, Some(ev.gen), None);
    }

    /// [`Cluster::event_complete`] carrying an arriving event-write payload.
    /// `gen` is the generation a local completion was posted for; a remote
    /// event write has none and reaches whatever live event holds the slot.
    /// The payload is folded into the event's combine buffer (or adopted
    /// verbatim when no reduction is configured); on fire that one buffer
    /// goes to the host, if it captures payloads, and to every chained
    /// payload-forwarding spec, and an auto-reset event re-arms its count
    /// for the next round. Only an auto-reset event keeps its chain: any
    /// other event's fire launches its chained specs once.
    pub(crate) fn event_complete_with_data(
        self: &Rc<Self>,
        sim: &SimHandle,
        vpid: Vpid,
        ev: EventId,
        gen: Option<u32>,
        data: Option<Payload>,
    ) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let irq_latency = self.cfg.irq_latency;
        let chain_latency = self.cfg.chain_latency;
        let Some(ctx) = inner.ctxs.get_mut(&vpid.raw()) else {
            return;
        };
        let st = &mut ctx.events[ev.0 as usize];
        if st.freed || gen.is_some_and(|g| g != st.gen) {
            return;
        }
        if let Some(d) = data {
            match st.combine {
                Some(op) => nic_combine(&mut st.accum, d, op),
                None => st.accum = d,
            }
        }
        st.count -= 1;
        if st.count > 0 {
            return;
        }
        st.fired += 1;
        if let Some(rearm) = st.auto_reset {
            st.count += rearm;
        }
        // The fired payload goes to the host queue, if it captures one, and
        // to every forwarding spec; the last of them takes it by move.
        let mut payload = std::mem::take(&mut st.accum);
        let mut holders = st.chained.iter().filter(|s| s.payload_from_event).count();
        if st.capture {
            holders += 1;
            st.fired_payloads.push_back(payload.hand_out(&mut holders));
        }
        if st.irq_armed {
            inner.stats.interrupts += 1;
        }
        inner.stats.chained_launches += st.chained.len() as u64;
        // Only the kernel's queue is touched from here on, so the chain is
        // launched straight from the event's standing spec list.
        if let Some(sig) = &st.signal {
            if st.irq_armed {
                let sig = sig.clone();
                sim.call_after(irq_latency, move |s| sig.notify(s));
            } else {
                sig.notify(sim);
            }
        }
        // A one-shot event's fire spends its chain: each spec's data moves
        // out, and the list keeps its capacity for the slot's next
        // occupant. An auto-reset event fires every round, so its standing
        // specs are copied.
        let one_shot = st.auto_reset.is_none();
        for spec in &mut st.chained {
            // Chained commands launch on the NIC without crossing the I/O
            // bus: no PIO, just the chain launch latency.
            let data = if spec.payload_from_event {
                payload.hand_out(&mut holders)
            } else if one_shot {
                std::mem::take(&mut spec.data)
            } else {
                spec.data.clone()
            };
            let spec = QdmaSpec { data, ..*spec };
            let me = self.clone();
            let at = sim.now() + chain_latency;
            sim.call_at(at, move |s| {
                me.qdma_from_nic(s, s.now(), vpid, spec, None);
            });
        }
        if one_shot {
            st.chained.clear();
        }
    }
}
