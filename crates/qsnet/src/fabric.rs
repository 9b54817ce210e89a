//! The wire: per-rail, per-node link occupancy and packet timing.
//!
//! A message handed to [`Fabric::send`] is cut into MTU-sized packets. Each
//! packet serializes on the source injection link, crosses
//! [`FatTree::switch_hops`] switch stages, and serializes again into the
//! destination node; consecutive packets pipeline. QsNetII performs
//! link-level retransmission in hardware, so injected faults delay packets
//! (and bump a retry counter) rather than losing them.

use std::collections::VecDeque;
use std::rc::Rc;

use qsim::{Dur, Local, Ring, SimHandle, Time};

use crate::topology::{FatTree, NodeId};

/// Fabric timing and shape parameters.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Switch down-degree (4 = quaternary / Elite4).
    pub radix: usize,
    /// Number of hosts.
    pub nodes: usize,
    /// Independent rails (the paper's future-work multi-rail setup).
    pub rails: usize,
    /// Link bandwidth in bytes per microsecond (1300 = 1.3 GB/s QsNetII).
    pub link_bytes_per_us: u64,
    /// Latency through one Elite4 switch stage.
    pub hop_latency: Dur,
    /// Maximum packet payload on the wire.
    pub mtu: usize,
    /// Per-packet wire overhead (routing flits, CRC) in bytes.
    pub packet_overhead: usize,
    /// Delay before the hardware retransmits a faulted packet.
    pub retry_delay: Dur,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            radix: 4,
            nodes: 8,
            rails: 1,
            link_bytes_per_us: 1300,
            hop_latency: Dur::from_ns(40),
            mtu: 2048,
            packet_overhead: 16,
            retry_delay: Dur::from_us(2),
        }
    }
}

/// Running counters, readable at any time.
#[derive(Clone, Debug, Default)]
pub struct FabricStats {
    /// Packets scheduled onto the wire (including broadcast replicas).
    pub packets: u64,
    /// Application payload carried.
    pub payload_bytes: u64,
    /// Payload plus per-packet wire overhead (and retransmissions).
    pub wire_bytes: u64,
    /// Hardware retransmissions triggered by injected faults.
    pub retries: u64,
}

struct RailState {
    /// Virtual time at which each node's injection link frees up.
    tx_free: Vec<Time>,
    /// Virtual time at which each node's reception link frees up.
    rx_free: Vec<Time>,
}

/// Which stage of a route a link belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LinkKind {
    /// Host NIC → leaf switch.
    Injection,
    /// Level-k switch → level-(k+1) switch (towards the tree root).
    Up,
    /// Level-(k+1) switch → level-k switch (towards the hosts).
    Down,
    /// Leaf switch → host NIC.
    Ejection,
}

impl LinkKind {
    /// Short wire name used in link labels and JSON.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::Injection => "inj",
            LinkKind::Up => "up",
            LinkKind::Down => "down",
            LinkKind::Ejection => "ej",
        }
    }
}

/// Per-link running counters.
#[derive(Default)]
struct LinkAcct {
    /// Nanoseconds the link spent serializing bytes (including retries).
    busy_ns: u64,
    payload_bytes: u64,
    wire_bytes: u64,
    packets: u64,
    retries: u64,
    /// High-water mark of packets simultaneously holding or waiting for
    /// the link. Tracked only for endpoint links (the timing model has no
    /// switch-internal queues: cut-through contention resolves at the
    /// endpoints).
    queue_peak: u64,
    /// End times of busy intervals still in the future, for queue depth.
    inflight: VecDeque<Time>,
}

impl LinkAcct {
    fn charge(&mut self, busy_ns: u64, payload: u64, wire: u64) {
        self.busy_ns += busy_ns;
        self.payload_bytes += payload;
        self.wire_bytes += wire;
        self.packets += 1;
    }

    /// Record a packet asking for the link at `arrival` and releasing it at
    /// `end`; returns the depth it observed (itself included).
    fn enqueue(&mut self, arrival: Time, end: Time) -> u64 {
        while self.inflight.front().is_some_and(|&e| e <= arrival) {
            self.inflight.pop_front();
        }
        self.inflight.push_back(end);
        let depth = self.inflight.len() as u64;
        self.queue_peak = self.queue_peak.max(depth);
        depth
    }

    /// Packets still holding or waiting for the link at `now`.
    fn queue_now(&mut self, now: Time) -> u64 {
        while self.inflight.front().is_some_and(|&e| e <= now) {
            self.inflight.pop_front();
        }
        self.inflight.len() as u64
    }
}

/// Per-rail link accounting: one record per injection/ejection link (per
/// node) and per inter-switch link (per level, per switch).
struct RailAcct {
    inj: Vec<LinkAcct>,
    ej: Vec<LinkAcct>,
    /// `up[k-1][s]`: the uplink of level-k switch `s`, k in `1..levels`.
    up: Vec<Vec<LinkAcct>>,
    /// `down[k-1][s]`: the downlink into level-k switch `s`.
    down: Vec<Vec<LinkAcct>>,
}

impl RailAcct {
    fn new(topo: &FatTree) -> RailAcct {
        let nodes = topo.nodes();
        let mk = |n: usize| (0..n).map(|_| LinkAcct::default()).collect::<Vec<_>>();
        let stages = (1..topo.levels())
            .map(|k| mk(topo.switches_at(k)))
            .collect::<Vec<_>>();
        RailAcct {
            inj: mk(nodes),
            ej: mk(nodes),
            up: stages.iter().map(|s| mk(s.len())).collect(),
            down: stages,
        }
    }
}

/// Identity plus counters for one accounted link, as captured by
/// [`Fabric::link_snapshot`].
#[derive(Clone, Debug)]
pub struct LinkSnapshot {
    /// Rail the link belongs to.
    pub rail: usize,
    /// Route stage.
    pub kind: LinkKind,
    /// Switch level for `Up`/`Down` links (1 = leaf switch); 0 for
    /// endpoint links.
    pub level: u32,
    /// Node id for `Injection`/`Ejection`; switch index within the level
    /// for `Up`/`Down`.
    pub index: usize,
    /// Nanoseconds spent serializing bytes (including retransmissions).
    pub busy_ns: u64,
    /// Application payload carried.
    pub payload_bytes: u64,
    /// Payload plus per-packet overhead and retransmitted bytes.
    pub wire_bytes: u64,
    /// Packets carried.
    pub packets: u64,
    /// Hardware retransmissions on this link.
    pub retries: u64,
    /// Peak simultaneous holders/waiters (endpoint links only).
    pub queue_peak: u64,
    /// Holders/waiters at snapshot time (endpoint links only).
    pub queue_now: u64,
}

impl LinkSnapshot {
    /// Stable display name, e.g. `r0.inj.n3`, `r0.up.l1.s0`, `r0.ej.n0`.
    pub fn name(&self) -> String {
        match self.kind {
            LinkKind::Injection | LinkKind::Ejection => {
                format!("r{}.{}.n{}", self.rail, self.kind.label(), self.index)
            }
            LinkKind::Up | LinkKind::Down => format!(
                "r{}.{}.l{}.s{}",
                self.rail,
                self.kind.label(),
                self.level,
                self.index
            ),
        }
    }

    /// Fraction of `elapsed_ns` the link spent busy.
    pub fn occupancy(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / elapsed_ns as f64
        }
    }

    fn to_json(&self, elapsed_ns: u64) -> String {
        format!(
            "{{\"link\":\"{}\",\"rail\":{},\"kind\":\"{}\",\"level\":{},\
             \"index\":{},\"busy_ns\":{},\"payload_bytes\":{},\
             \"wire_bytes\":{},\"packets\":{},\"retries\":{},\
             \"queue_peak\":{},\"queue_now\":{},\"occupancy\":{:.6}}}",
            self.name(),
            self.rail,
            self.kind.label(),
            self.level,
            self.index,
            self.busy_ns,
            self.payload_bytes,
            self.wire_bytes,
            self.packets,
            self.retries,
            self.queue_peak,
            self.queue_now,
            self.occupancy(elapsed_ns),
        )
    }
}

/// One endpoint-facing link's counters summed across rails, for the pvar
/// plane (`fab.inj.*` / `fab.ej.*`).
#[derive(Clone, Debug, Default)]
pub struct LinkTotals {
    /// Nanoseconds busy.
    pub busy_ns: u64,
    /// Application payload carried.
    pub payload_bytes: u64,
    /// Payload plus overhead and retransmissions.
    pub wire_bytes: u64,
    /// Packets carried.
    pub packets: u64,
    /// Hardware retransmissions.
    pub retries: u64,
    /// Peak queue depth.
    pub queue_peak: u64,
}

impl LinkTotals {
    fn add(&mut self, a: &LinkAcct) {
        self.busy_ns += a.busy_ns;
        self.payload_bytes += a.payload_bytes;
        self.wire_bytes += a.wire_bytes;
        self.packets += a.packets;
        self.retries += a.retries;
        self.queue_peak = self.queue_peak.max(a.queue_peak);
    }
}

/// Aggregate utilization of one route stage (all links of one kind/level).
#[derive(Clone, Debug)]
pub struct StageUtil {
    /// Stage label: `inj`, `ej`, `up.l1`, `down.l2`, …
    pub stage: String,
    /// Links of this stage that carried at least one packet.
    pub links_active: usize,
    /// Total busy nanoseconds across the stage's active links.
    pub busy_ns: u64,
    /// Mean occupancy of the active links over the report window.
    pub occupancy: f64,
}

/// Top-N hottest links plus per-stage utilization over `[0, at_ns]`.
#[derive(Clone, Debug)]
pub struct CongestionReport {
    /// Virtual time the report was taken at (window is `[0, at_ns]`).
    pub at_ns: u64,
    /// Total links that carried at least one packet.
    pub links_active: usize,
    /// Hottest links, sorted by busy time descending, truncated to top-N.
    pub links: Vec<LinkSnapshot>,
    /// Per-stage utilization over every active link (not just top-N).
    pub stages: Vec<StageUtil>,
}

impl CongestionReport {
    /// The single busiest link, if any traffic flowed at all.
    pub fn hottest(&self) -> Option<&LinkSnapshot> {
        self.links.first()
    }

    /// JSON rendering of the report.
    pub fn to_json(&self) -> String {
        let links: Vec<String> = self.links.iter().map(|l| l.to_json(self.at_ns)).collect();
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"stage\":\"{}\",\"links_active\":{},\"busy_ns\":{},\
                     \"occupancy\":{:.6}}}",
                    s.stage, s.links_active, s.busy_ns, s.occupancy
                )
            })
            .collect();
        format!(
            "{{\"at_ns\":{},\"links_active\":{},\"stages\":[{}],\"links\":[{}]}}",
            self.at_ns,
            self.links_active,
            stages.join(","),
            links.join(",")
        )
    }

    /// Human-readable table for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "congestion report at t={}ns ({} active links)\n",
            self.at_ns, self.links_active
        ));
        out.push_str("  stage     links  busy_ns      occupancy\n");
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<9} {:<6} {:<12} {:.1}%\n",
                s.stage,
                s.links_active,
                s.busy_ns,
                s.occupancy * 100.0
            ));
        }
        out.push_str("  link            busy_ns      occ%   KiB      pkts  qpeak qnow retry\n");
        for l in &self.links {
            out.push_str(&format!(
                "  {:<15} {:<12} {:<6.1} {:<8} {:<5} {:<5} {:<4} {}\n",
                l.name(),
                l.busy_ns,
                l.occupancy(self.at_ns) * 100.0,
                l.wire_bytes >> 10,
                l.packets,
                l.queue_peak,
                l.queue_now,
                l.retries
            ));
        }
        out
    }
}

/// A list of link busy windows as `(start_ns, end_ns)` pairs.
pub type BusyWindows = Vec<(u64, u64)>;

/// Optional per-node busy-interval log for endpoint links, merged across
/// rails. Off by default (the hot path only pays an `Option` check); the
/// critical-path analyzer turns it on to cross-check per-message queueing
/// time against actual link occupancy windows.
struct IntervalLog {
    /// Per-node injection-link busy windows `(start_ns, end_ns)`.
    inj: Vec<Ring<(u64, u64)>>,
    /// Per-node ejection-link busy windows `(start_ns, end_ns)`.
    ej: Vec<Ring<(u64, u64)>>,
}

impl IntervalLog {
    fn new(nodes: usize, capacity: usize) -> IntervalLog {
        IntervalLog {
            inj: vec![Ring::with_capacity(capacity); nodes],
            ej: vec![Ring::with_capacity(capacity); nodes],
        }
    }
}

#[derive(Default)]
struct FaultState {
    /// (src, dst) -> number of upcoming packets to fault once each.
    drops: Vec<(NodeId, NodeId, u64)>,
}

impl FaultState {
    fn take_drop(&mut self, src: NodeId, dst: NodeId) -> bool {
        for entry in &mut self.drops {
            if entry.0 == src && entry.1 == dst && entry.2 > 0 {
                entry.2 -= 1;
                return true;
            }
        }
        false
    }
}

struct FabricState {
    rails: Vec<RailState>,
    acct: Vec<RailAcct>,
    stats: FabricStats,
    faults: FaultState,
    intervals: Option<IntervalLog>,
}

/// The simulated QsNetII fabric shared by every NIC in the cluster.
pub struct Fabric {
    config: FabricConfig,
    topo: FatTree,
    state: Local<FabricState>,
}

impl Fabric {
    /// Build the fabric for `config` (topology + per-rail link state).
    pub fn new(config: FabricConfig) -> Rc<Fabric> {
        assert!(config.rails >= 1, "at least one rail");
        assert!(config.mtu > 0, "mtu must be positive");
        let topo = FatTree::new(config.radix, config.nodes);
        let rails = (0..config.rails)
            .map(|_| RailState {
                tx_free: vec![Time::ZERO; config.nodes],
                rx_free: vec![Time::ZERO; config.nodes],
            })
            .collect();
        let acct = (0..config.rails).map(|_| RailAcct::new(&topo)).collect();
        Rc::new(Fabric {
            config,
            topo,
            state: Local::new(FabricState {
                rails,
                acct,
                stats: FabricStats::default(),
                faults: FaultState::default(),
                intervals: None,
            }),
        })
    }

    /// The timing/shape parameters this fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The fat-tree topology.
    pub fn topology(&self) -> &FatTree {
        &self.topo
    }

    /// Snapshot of the running counters.
    pub fn stats(&self) -> FabricStats {
        self.state.lock().stats.clone()
    }

    /// Arrange for the next `count` packets from `src` to `dst` to be
    /// faulted once each (each costs one hardware retransmission).
    pub fn inject_drops(&self, src: NodeId, dst: NodeId, count: u64) {
        self.state.lock().faults.drops.push((src, dst, count));
    }

    /// Transmit `len` payload bytes from `src` to `dst` on `rail`; run
    /// `done` when the final byte arrives. Returns the scheduled delivery
    /// time.
    ///
    /// # Panics
    /// If `rail`, `src` or `dst` are out of range.
    pub fn send(
        self: &Rc<Self>,
        sim: &SimHandle,
        rail: usize,
        src: NodeId,
        dst: NodeId,
        len: usize,
        done: impl FnOnce(&SimHandle) + 'static,
    ) -> Time {
        let delivered = self.schedule_packets(sim, rail, src, dst, len);
        sim.call_at(delivered, done);
        delivered
    }

    /// Like [`Fabric::send`] but without a completion callback (used when the
    /// caller chains its own events off the returned time).
    pub fn schedule_packets(
        self: &Rc<Self>,
        sim: &SimHandle,
        rail: usize,
        src: NodeId,
        dst: NodeId,
        len: usize,
    ) -> Time {
        let now = sim.now();
        let n_packets = len.div_ceil(self.config.mtu).max(1);
        let mut remaining = len;
        let mut delivered = now;
        for _ in 0..n_packets {
            let payload = remaining.min(self.config.mtu);
            remaining -= payload;
            delivered = self.packet_delivery(rail, src, dst, payload, now);
        }
        delivered
    }

    /// Schedule one packet of `payload` bytes, not entering the wire before
    /// `not_before` (e.g. because the host bus is still feeding the NIC).
    /// Returns the time the packet's tail reaches the destination NIC. This
    /// is the building block NIC DMA engines use to pipeline MTU chunks.
    ///
    /// # Panics
    /// If `rail`, `src` or `dst` are out of range, or `payload > mtu`.
    pub fn packet_delivery(
        &self,
        rail: usize,
        src: NodeId,
        dst: NodeId,
        payload: usize,
        not_before: Time,
    ) -> Time {
        assert!(rail < self.config.rails, "rail out of range");
        assert!(payload <= self.config.mtu, "packet exceeds MTU");
        let hops = self.topo.switch_hops(src, dst);
        let route_latency = self.config.hop_latency * hops as u64;
        let wire_len = payload + self.config.packet_overhead;
        let ser = Dur::for_bytes(wire_len, self.config.link_bytes_per_us);

        let mut st = self.state.lock();
        let faulted = st.faults.take_drop(src, dst);
        let rs = &mut st.rails[rail];
        let tx_start = not_before.max(rs.tx_free[src]);
        let mut start = tx_start;
        if faulted {
            // Hardware-level retransmission: the packet occupies the link,
            // is NAKed, and goes again after the retry delay.
            start = start + ser + self.config.retry_delay;
        }
        // Cut-through routing: the head flit arrives after the route
        // latency while the tail is still serializing.
        let head_arrival = start + route_latency;
        let rx_start = head_arrival.max(rs.rx_free[dst]);
        let pkt_delivered = rx_start + ser;
        rs.tx_free[src] = start + ser;
        rs.rx_free[dst] = pkt_delivered;
        let tx_free = rs.tx_free[src];

        st.stats.packets += 1;
        st.stats.payload_bytes += payload as u64;
        st.stats.wire_bytes += wire_len as u64;
        if faulted {
            st.stats.retries += 1;
            st.stats.wire_bytes += wire_len as u64;
        }

        // Per-link accounting. A faulted packet crossed the injection link
        // twice (transmit, NAK, retransmit), so it is charged double there;
        // the switches and the ejection link only ever see the good copy.
        let ser_ns = ser.as_ns();
        let (payload, wire) = (payload as u64, wire_len as u64);
        let acct = &mut st.acct[rail];
        let inj = &mut acct.inj[src];
        if faulted {
            inj.charge(2 * ser_ns, payload, 2 * wire);
            inj.retries += 1;
        } else {
            inj.charge(ser_ns, payload, wire);
        }
        inj.enqueue(not_before, tx_free);
        for k in 1..self.topo.nca_level(src, dst) {
            acct.up[(k - 1) as usize][self.topo.subtree(src, k)].charge(ser_ns, payload, wire);
            acct.down[(k - 1) as usize][self.topo.subtree(dst, k)].charge(ser_ns, payload, wire);
        }
        let ej = &mut acct.ej[dst];
        ej.charge(ser_ns, payload, wire);
        ej.enqueue(head_arrival, pkt_delivered);

        if let Some(log) = st.intervals.as_mut() {
            log.inj[src].push((tx_start.as_ns(), tx_free.as_ns()));
            log.ej[dst].push((rx_start.as_ns(), pkt_delivered.as_ns()));
        }

        pkt_delivered
    }
}

impl Fabric {
    /// Hardware broadcast: one injection from `src` is replicated by the
    /// Elite switches to every destination. The source link is occupied
    /// once; each destination pays its own route latency and reception
    /// serialization. Returns per-destination delivery times (same order
    /// as `dsts`). Quadrics supports this only across a contiguous,
    /// synchronously-created address space — the caller enforces that
    /// (paper §4.1).
    pub fn bcast_delivery(
        &self,
        rail: usize,
        src: NodeId,
        dsts: &[NodeId],
        payload: usize,
        not_before: Time,
    ) -> Vec<Time> {
        assert!(rail < self.config.rails, "rail out of range");
        assert!(payload <= self.config.mtu, "packet exceeds MTU");
        let wire_len = payload + self.config.packet_overhead;
        let ser = Dur::for_bytes(wire_len, self.config.link_bytes_per_us);

        let mut st = self.state.lock();
        let start = not_before.max(st.rails[rail].tx_free[src]);
        st.rails[rail].tx_free[src] = start + ser;
        let tx_free = st.rails[rail].tx_free[src];
        let ser_ns = ser.as_ns();
        let (payload_u, wire) = (payload as u64, wire_len as u64);
        let mut out = Vec::with_capacity(dsts.len());
        // The source injects once; the Elite switches replicate at the
        // nearest common ancestor, so uplinks are charged once (to the
        // highest level any destination needs) and downlinks per branch.
        let mut max_nca = 0;
        let mut down_seen: Vec<(u32, usize)> = Vec::new();
        for &dst in dsts {
            let hops = self.topo.switch_hops(src, dst);
            let nca = self.topo.nca_level(src, dst);
            max_nca = max_nca.max(nca);
            let head_arrival = start + self.config.hop_latency * hops as u64;
            let rx_start = head_arrival.max(st.rails[rail].rx_free[dst]);
            let delivered = rx_start + ser;
            st.rails[rail].rx_free[dst] = delivered;
            out.push(delivered);
            st.stats.packets += 1;
            st.stats.payload_bytes += payload as u64;
            st.stats.wire_bytes += wire_len as u64;
            let acct = &mut st.acct[rail];
            // Destinations sharing a subtree share the downlink into it:
            // the switches replicate below it, so charge it once.
            for k in 1..nca {
                let s = self.topo.subtree(dst, k);
                if !down_seen.contains(&(k, s)) {
                    down_seen.push((k, s));
                    acct.down[(k - 1) as usize][s].charge(ser_ns, payload_u, wire);
                }
            }
            let ej = &mut acct.ej[dst];
            ej.charge(ser_ns, payload_u, wire);
            ej.enqueue(head_arrival, delivered);
        }
        let acct = &mut st.acct[rail];
        let inj = &mut acct.inj[src];
        inj.charge(ser_ns, payload_u, wire);
        inj.enqueue(not_before, tx_free);
        for k in 1..max_nca {
            acct.up[(k - 1) as usize][self.topo.subtree(src, k)].charge(ser_ns, payload_u, wire);
        }
        if let Some(log) = st.intervals.as_mut() {
            log.inj[src].push((start.as_ns(), tx_free.as_ns()));
            for (&dst, &delivered) in dsts.iter().zip(out.iter()) {
                log.ej[dst].push((delivered.as_ns() - ser_ns, delivered.as_ns()));
            }
        }
        out
    }
}

impl Fabric {
    /// Counters for every link that carried at least one packet, ordered
    /// by rail, then stage (injection, up, down, ejection), then index.
    /// `now` bounds the report window and prices current queue depth.
    pub fn link_snapshot(&self, now: Time) -> Vec<LinkSnapshot> {
        let mut st = self.state.lock();
        let mut out = Vec::new();
        for rail in 0..self.config.rails {
            let acct = &mut st.acct[rail];
            let push = |kind: LinkKind,
                        level: u32,
                        index: usize,
                        a: &mut LinkAcct,
                        out: &mut Vec<LinkSnapshot>| {
                if a.packets == 0 {
                    return;
                }
                let queue_now = a.queue_now(now);
                out.push(LinkSnapshot {
                    rail,
                    kind,
                    level,
                    index,
                    busy_ns: a.busy_ns,
                    payload_bytes: a.payload_bytes,
                    wire_bytes: a.wire_bytes,
                    packets: a.packets,
                    retries: a.retries,
                    queue_peak: a.queue_peak,
                    queue_now,
                });
            };
            for (n, a) in acct.inj.iter_mut().enumerate() {
                push(LinkKind::Injection, 0, n, a, &mut out);
            }
            for (k, stage) in acct.up.iter_mut().enumerate() {
                for (s, a) in stage.iter_mut().enumerate() {
                    push(LinkKind::Up, k as u32 + 1, s, a, &mut out);
                }
            }
            for (k, stage) in acct.down.iter_mut().enumerate() {
                for (s, a) in stage.iter_mut().enumerate() {
                    push(LinkKind::Down, k as u32 + 1, s, a, &mut out);
                }
            }
            for (n, a) in acct.ej.iter_mut().enumerate() {
                push(LinkKind::Ejection, 0, n, a, &mut out);
            }
        }
        out
    }

    /// One node's injection and ejection link totals summed across rails —
    /// the numbers each endpoint exports as `fab.inj.*` / `fab.ej.*` pvars.
    pub fn node_link_totals(&self, node: NodeId) -> (LinkTotals, LinkTotals) {
        assert!(node < self.config.nodes, "node out of range");
        let st = self.state.lock();
        let mut inj = LinkTotals::default();
        let mut ej = LinkTotals::default();
        for acct in &st.acct {
            inj.add(&acct.inj[node]);
            ej.add(&acct.ej[node]);
        }
        (inj, ej)
    }

    /// Packets currently holding or waiting for one node's endpoint links
    /// at `now`, summed across rails: `(injection, ejection)`. This is the
    /// instantaneous queue depth the timeline sampler plots — on an incast
    /// victim the ejection number ramps while the burst drains.
    pub fn node_queue_now(&self, node: NodeId, now: Time) -> (u64, u64) {
        assert!(node < self.config.nodes, "node out of range");
        let mut st = self.state.lock();
        let (mut inj, mut ej) = (0, 0);
        for acct in &mut st.acct {
            inj += acct.inj[node].queue_now(now);
            ej += acct.ej[node].queue_now(now);
        }
        (inj, ej)
    }

    /// Start recording per-node endpoint-link busy intervals (merged across
    /// rails), keeping at most `capacity` windows per link. Idempotent;
    /// re-enabling with a new capacity clears the recorded windows.
    pub fn record_intervals(&self, capacity: usize) {
        let mut st = self.state.lock();
        st.intervals = Some(IntervalLog::new(self.config.nodes, capacity));
    }

    /// One node's recorded endpoint-link busy windows as
    /// `(injection, ejection)` lists of `(start_ns, end_ns)`, each sorted by
    /// start time. Empty unless [`Fabric::record_intervals`] was called.
    pub fn node_busy_intervals(&self, node: NodeId) -> (BusyWindows, BusyWindows) {
        assert!(node < self.config.nodes, "node out of range");
        let st = self.state.lock();
        match &st.intervals {
            Some(log) => {
                let mut inj: BusyWindows = log.inj[node].iter().copied().collect();
                let mut ej: BusyWindows = log.ej[node].iter().copied().collect();
                inj.sort_unstable();
                ej.sort_unstable();
                (inj, ej)
            }
            None => (Vec::new(), Vec::new()),
        }
    }

    /// Build the congestion report over `[0, now]`: the `top_n` hottest
    /// links by busy time plus per-stage utilization.
    pub fn congestion_report(&self, now: Time, top_n: usize) -> CongestionReport {
        let links = self.link_snapshot(now);
        let at_ns = now.as_ns();
        let mut stages: Vec<StageUtil> = Vec::new();
        for l in &links {
            let stage = match l.kind {
                LinkKind::Injection | LinkKind::Ejection => l.kind.label().to_string(),
                LinkKind::Up | LinkKind::Down => format!("{}.l{}", l.kind.label(), l.level),
            };
            match stages.iter_mut().find(|s| s.stage == stage) {
                Some(s) => {
                    s.links_active += 1;
                    s.busy_ns += l.busy_ns;
                }
                None => stages.push(StageUtil {
                    stage,
                    links_active: 1,
                    busy_ns: l.busy_ns,
                    occupancy: 0.0,
                }),
            }
        }
        for s in &mut stages {
            if at_ns > 0 && s.links_active > 0 {
                s.occupancy = s.busy_ns as f64 / (at_ns * s.links_active as u64) as f64;
            }
        }
        let links_active = links.len();
        let mut sorted = links;
        sorted.sort_by(|a, b| b.busy_ns.cmp(&a.busy_ns).then(a.name().cmp(&b.name())));
        sorted.truncate(top_n);
        CongestionReport {
            at_ns,
            links_active,
            links: sorted,
            stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Simulation;
    use std::cell::Cell;

    fn fabric() -> Rc<Fabric> {
        Fabric::new(FabricConfig::default())
    }

    fn one_send(f: &Rc<Fabric>, src: usize, dst: usize, len: usize) -> u64 {
        let sim = Simulation::new();
        let t = Rc::new(Cell::new(0));
        let t2 = t.clone();
        let f = f.clone();
        sim.spawn("tx", move |p| {
            let sig = p.signal();
            let sig2 = sig.clone();
            f.send(&p.sim(), 0, src, dst, len, move |s| sig2.notify(s));
            p.wait(&sig).expect_signaled();
            t2.set(p.now().as_ns());
        });
        sim.run().unwrap();
        t.get()
    }

    #[test]
    fn same_leaf_is_faster_than_cross_leaf() {
        let f = fabric();
        let near = one_send(&f, 0, 1, 1024); // 1 switch hop
        let f = fabric();
        let far = one_send(&f, 0, 4, 1024); // 3 switch hops
        assert!(far > near);
        assert_eq!(far - near, 2 * 40); // two extra hops
    }

    #[test]
    fn zero_byte_message_still_takes_a_packet() {
        let f = fabric();
        let t = one_send(&f, 0, 1, 0);
        assert!(t > 0);
        assert_eq!(f.stats().packets, 1);
        assert_eq!(f.stats().payload_bytes, 0);
    }

    #[test]
    fn large_message_bandwidth_approaches_link_rate() {
        let f = fabric();
        let len = 1 << 20; // 1 MB
        let ns = one_send(&f, 0, 1, len);
        let mb_per_s = len as f64 / (ns as f64 / 1e9) / 1e6;
        // MTU overhead (16B per 2048B) costs < 1%; route latency is small.
        assert!(mb_per_s > 1200.0 && mb_per_s < 1300.0, "got {mb_per_s}");
    }

    #[test]
    fn packets_pipeline_not_accumulate_hop_latency() {
        // With k packets, total time should be ~k*ser + const, not k*(ser+hops).
        let f = fabric();
        let t1 = one_send(&f, 0, 4, 2048);
        let f = fabric();
        let t8 = one_send(&f, 0, 4, 8 * 2048);
        let ser = Dur::for_bytes(2048 + 16, 1300).as_ns();
        assert!(t8 < t1 + 8 * ser, "t8={t8} t1={t1} ser={ser}");
    }

    #[test]
    fn injected_drop_delays_and_counts_retry() {
        let f = fabric();
        let clean = one_send(&f, 0, 1, 512);
        let f = fabric();
        f.inject_drops(0, 1, 1);
        let faulted = one_send(&f, 0, 1, 512);
        assert!(faulted > clean + 2_000); // at least the retry delay
        assert_eq!(f.stats().retries, 1);
    }

    #[test]
    fn concurrent_senders_to_one_destination_serialize() {
        let f = fabric();
        let sim = Simulation::new();
        let done = Rc::new(Cell::new(0));
        for src in [0usize, 1, 2] {
            let f = f.clone();
            let done = done.clone();
            sim.spawn(&format!("tx{src}"), move |p| {
                let sig = p.signal();
                let sig2 = sig.clone();
                f.send(&p.sim(), 0, src, 3, 2048, move |s| sig2.notify(s));
                p.wait(&sig).expect_signaled();
                done.set(done.get().max(p.now().as_ns()));
            });
        }
        sim.run().unwrap();
        let ser = Dur::for_bytes(2048 + 16, 1300).as_ns();
        // Three packets into one rx link: last delivery >= 3 serializations.
        assert!(done.get() >= 3 * ser);
    }

    #[test]
    fn rails_are_independent() {
        let cfg = FabricConfig {
            rails: 2,
            ..Default::default()
        };
        let f = Fabric::new(cfg);
        let sim = Simulation::new();
        let done = Rc::new(Cell::new(0));
        for rail in [0usize, 1] {
            let f = f.clone();
            let done = done.clone();
            sim.spawn(&format!("rail{rail}"), move |p| {
                let sig = p.signal();
                let sig2 = sig.clone();
                f.send(&p.sim(), rail, 0, 1, 1 << 20, move |s| sig2.notify(s));
                p.wait(&sig).expect_signaled();
                done.set(done.get().max(p.now().as_ns()));
            });
        }
        sim.run().unwrap();
        // Both 1MB transfers overlap fully on separate rails: finish in the
        // time of one (plus epsilon), not two.
        let one_rail_ns = Dur::for_bytes((1 << 20) + 16 * 512, 1300).as_ns();
        assert!(done.get() < one_rail_ns * 3 / 2);
    }
}

#[cfg(test)]
mod bcast_tests {
    use super::*;
    use qsim::Simulation;
    use std::cell::Cell;

    #[test]
    fn bcast_occupies_source_link_once() {
        let f = Fabric::new(FabricConfig::default());
        let sim = Simulation::new();
        let done = Rc::new(Cell::new(0));
        {
            let f = f.clone();
            let done = done.clone();
            sim.spawn("tx", move |p| {
                let deliveries = f.bcast_delivery(0, 0, &[1, 2, 3, 4, 5, 6, 7], 1024, p.now());
                let last = deliveries.iter().max().unwrap().as_ns();
                // Compare with 7 sequential unicasts of the same payload.
                let f2 = Fabric::new(FabricConfig::default());
                let mut uni_last = 0;
                for d in 1..8usize {
                    let t = f2.packet_delivery(0, 0, d, 1024, p.now());
                    uni_last = uni_last.max(t.as_ns());
                }
                assert!(
                    last < uni_last,
                    "bcast last delivery {last} should beat serialized unicast {uni_last}"
                );
                done.set(last);
            });
        }
        sim.run().unwrap();
        assert!(done.get() > 0);
        // One source serialization, seven receptions accounted.
        assert_eq!(f.stats().packets, 7);
    }

    #[test]
    fn bcast_respects_receiver_occupancy() {
        let f = Fabric::new(FabricConfig::default());
        // Busy up node 3's reception link first.
        let t0 = Time::ZERO;
        let busy_until = f.packet_delivery(0, 5, 3, 2048, t0);
        let deliveries = f.bcast_delivery(0, 0, &[1, 3], 512, t0);
        // Node 1 is free; node 3 must wait for the earlier packet.
        assert!(deliveries[1] > deliveries[0]);
        assert!(deliveries[1] >= busy_until);
    }

    #[test]
    fn bcast_to_near_and_far_nodes_reflects_hops() {
        let f = Fabric::new(FabricConfig::default());
        let d = f.bcast_delivery(0, 0, &[1, 4], 64, Time::ZERO);
        // Node 1 shares the leaf switch (1 hop); node 4 crosses the top
        // (3 hops): 2 extra hops at 40ns each.
        assert_eq!(d[1].as_ns() - d[0].as_ns(), 80);
    }
}

#[cfg(test)]
mod link_tests {
    use super::*;

    const FAR: Time = Time::from_ns(1 << 40);

    #[test]
    fn incast_concentrates_busy_time_on_the_ejection_link() {
        let f = Fabric::new(FabricConfig::default());
        // 7 sources each push 4 MTU packets at node 0 simultaneously.
        for src in 1..8usize {
            for _ in 0..4 {
                f.packet_delivery(0, src, 0, 2048, Time::ZERO);
            }
        }
        let links = f.link_snapshot(FAR);
        let busy = |kind: LinkKind, index: usize| {
            links
                .iter()
                .find(|l| l.kind == kind && l.index == index)
                .map(|l| l.busy_ns)
                .unwrap_or(0)
        };
        let ej0 = busy(LinkKind::Ejection, 0);
        for src in 1..8usize {
            assert_eq!(ej0, 7 * busy(LinkKind::Injection, src), "src {src}");
        }
        // The victim's receive FIFO backs up; every source injects freely.
        let ej = links
            .iter()
            .find(|l| l.kind == LinkKind::Ejection && l.index == 0)
            .unwrap();
        assert!(ej.queue_peak >= 7, "queue_peak {}", ej.queue_peak);
        assert_eq!(ej.queue_now, 0, "drained by the time of the snapshot");
        let rep = f.congestion_report(FAR, 3);
        assert_eq!(rep.hottest().unwrap().name(), "r0.ej.n0");
    }

    #[test]
    fn link_bytes_reconcile_with_fabric_stats() {
        let f = Fabric::new(FabricConfig::default());
        for (src, dst, len) in [
            (0usize, 1usize, 100usize),
            (2, 7, 2048),
            (5, 4, 1),
            (3, 0, 999),
        ] {
            f.packet_delivery(0, src, dst, len, Time::ZERO);
        }
        let stats = f.stats();
        let links = f.link_snapshot(FAR);
        let sum = |kind: LinkKind, field: fn(&LinkSnapshot) -> u64| {
            links
                .iter()
                .filter(|l| l.kind == kind)
                .map(field)
                .sum::<u64>()
        };
        assert_eq!(
            sum(LinkKind::Injection, |l| l.payload_bytes),
            stats.payload_bytes
        );
        assert_eq!(
            sum(LinkKind::Ejection, |l| l.payload_bytes),
            stats.payload_bytes
        );
        assert_eq!(sum(LinkKind::Injection, |l| l.wire_bytes), stats.wire_bytes);
        assert_eq!(sum(LinkKind::Injection, |l| l.packets), stats.packets);
    }

    #[test]
    fn switch_links_charged_only_on_cross_leaf_routes() {
        let f = Fabric::new(FabricConfig::default());
        f.packet_delivery(0, 0, 1, 512, Time::ZERO); // same leaf: no switch links
        let links = f.link_snapshot(FAR);
        assert!(links.iter().all(|l| l.kind != LinkKind::Up));

        f.packet_delivery(0, 0, 4, 512, Time::ZERO); // crosses the spine
        let links = f.link_snapshot(FAR);
        let up = links.iter().find(|l| l.kind == LinkKind::Up).unwrap();
        assert_eq!((up.level, up.index, up.packets), (1, 0, 1));
        assert_eq!(up.name(), "r0.up.l1.s0");
        let down = links.iter().find(|l| l.kind == LinkKind::Down).unwrap();
        assert_eq!((down.level, down.index, down.packets), (1, 1, 1));
    }

    #[test]
    fn faulted_packet_doubles_injection_charges_only() {
        let f = Fabric::new(FabricConfig::default());
        f.inject_drops(0, 1, 1);
        f.packet_delivery(0, 0, 1, 512, Time::ZERO);
        let links = f.link_snapshot(FAR);
        let inj = links
            .iter()
            .find(|l| l.kind == LinkKind::Injection)
            .unwrap();
        let ej = links.iter().find(|l| l.kind == LinkKind::Ejection).unwrap();
        assert_eq!(inj.retries, 1);
        assert_eq!(inj.busy_ns, 2 * ej.busy_ns);
        assert_eq!(inj.wire_bytes, 2 * ej.wire_bytes);
        assert_eq!(ej.retries, 0);
        let (inj_tot, ej_tot) = f.node_link_totals(0);
        assert_eq!(inj_tot.retries, 1);
        assert_eq!(inj_tot.busy_ns, inj.busy_ns);
        assert_eq!(ej_tot.packets, 0, "node 0 received nothing");
    }

    #[test]
    fn bcast_charges_source_once_and_each_branch() {
        let f = Fabric::new(FabricConfig::default());
        f.bcast_delivery(0, 0, &[1, 2, 4, 5], 1024, Time::ZERO);
        let links = f.link_snapshot(FAR);
        let find = |kind: LinkKind, index: usize| {
            links
                .iter()
                .find(|l| l.kind == kind && l.index == index)
                .unwrap()
        };
        assert_eq!(find(LinkKind::Injection, 0).packets, 1);
        for dst in [1usize, 2, 4, 5] {
            assert_eq!(find(LinkKind::Ejection, dst).packets, 1);
        }
        // Replication happens at the spine: one uplink transit, one
        // downlink transit into the far leaf switch.
        assert_eq!(find(LinkKind::Up, 0).packets, 1);
        assert_eq!(find(LinkKind::Down, 1).packets, 1);
    }

    #[test]
    fn congestion_report_renders_stages_and_json() {
        let f = Fabric::new(FabricConfig::default());
        for src in 1..4usize {
            f.packet_delivery(0, src, 0, 2048, Time::ZERO);
        }
        let rep = f.congestion_report(Time::from_ns(10_000), 8);
        let json = rep.to_json();
        assert!(json.contains("\"link\":\"r0.ej.n0\""), "{json}");
        assert!(json.contains("\"stage\":\"inj\""), "{json}");
        assert!(json.contains("\"occupancy\":"), "{json}");
        let text = rep.render();
        assert!(text.contains("r0.ej.n0"), "{text}");
        let hottest = rep.hottest().unwrap();
        assert!(hottest.occupancy(rep.at_ns) > 0.0);
        assert!(hottest.occupancy(rep.at_ns) <= 1.0);
    }

    #[test]
    fn busy_intervals_and_queue_now_track_the_ejection_link() {
        let f = Fabric::new(FabricConfig::default());
        f.record_intervals(64);
        let mut last = Time::ZERO;
        for src in 1..4usize {
            last = last.max(f.packet_delivery(0, src, 0, 2048, Time::ZERO));
        }
        // Mid-drain the victim's ejection queue is non-empty; after the
        // last delivery it is empty again.
        let ser = Dur::for_bytes(2048 + 16, 1300);
        let (_, ej_mid) = f.node_queue_now(0, Time::from_ns(ser.as_ns() / 2));
        assert!(ej_mid >= 2, "ej queue mid-drain: {ej_mid}");
        let (inj_end, ej_end) = f.node_queue_now(0, last);
        assert_eq!((inj_end, ej_end), (0, 0));
        // Three recorded ejection windows, back to back, none overlapping.
        let (inj_iv, ej_iv) = f.node_busy_intervals(0);
        assert!(inj_iv.is_empty(), "node 0 injected nothing");
        assert_eq!(ej_iv.len(), 3);
        for w in ej_iv.windows(2) {
            assert!(w[0].1 <= w[1].0, "ejection windows overlap: {w:?}");
        }
        assert_eq!(ej_iv.last().unwrap().1, last.as_ns());
        // Senders recorded their injection windows.
        let (src_inj, _) = f.node_busy_intervals(1);
        assert_eq!(src_inj.len(), 1);
        // Without recording enabled, nothing is retained.
        let f2 = Fabric::new(FabricConfig::default());
        f2.packet_delivery(0, 1, 0, 512, Time::ZERO);
        assert_eq!(f2.node_busy_intervals(0), (Vec::new(), Vec::new()));
    }

    #[test]
    fn empty_fabric_reports_no_links() {
        let f = Fabric::new(FabricConfig::default());
        assert!(f.link_snapshot(FAR).is_empty());
        let rep = f.congestion_report(Time::ZERO, 5);
        assert!(rep.hottest().is_none());
        assert_eq!(rep.links_active, 0);
        assert!(rep.to_json().contains("\"links\":[]"));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use qsim::Pcg32;

    /// Delivery never precedes injection + route latency, and the same
    /// link never carries two packets at once (tx occupancy is
    /// monotone).
    #[test]
    fn packet_timing_invariants() {
        for case in 0..256 {
            let mut rng = Pcg32::new(case);
            let sizes: Vec<usize> = (0..rng.range(1, 20)).map(|_| rng.range(0, 2048)).collect();
            let src = rng.range(0, 8);
            let dst = rng.range(0, 8);
            if src == dst {
                continue;
            }
            let f = Fabric::new(FabricConfig::default());
            let cfg = f.config().clone();
            let hops = f.topology().switch_hops(src, dst) as u64;
            let mut last_delivery = Time::ZERO;
            let mut clock = Time::ZERO;
            for (i, len) in sizes.iter().enumerate() {
                // Interleave immediate and delayed injections.
                if i % 3 == 0 {
                    clock += Dur::from_ns(500);
                }
                let d = f.packet_delivery(0, src, dst, *len, clock);
                let ser = Dur::for_bytes(len + cfg.packet_overhead, cfg.link_bytes_per_us);
                // Lower bound: not-before + route + serialization.
                assert!(
                    d >= clock + cfg.hop_latency * hops + ser,
                    "case {case}: packet {i} delivered too early"
                );
                // Receiver-side FIFO: in-order delivery per (src, dst).
                assert!(d >= last_delivery, "case {case}: packet {i} reordered");
                last_delivery = d;
            }
        }
    }

    /// Total wire time of a message stream is conserved: the sum of
    /// payloads matches the payload stats, and wire bytes include the
    /// per-packet overhead exactly once per packet.
    #[test]
    fn stats_account_every_byte() {
        for case in 0..256 {
            let mut rng = Pcg32::new(case);
            let sizes: Vec<usize> = (0..rng.range(1, 12)).map(|_| rng.range(0, 6000)).collect();
            let f = Fabric::new(FabricConfig::default());
            let cfg = f.config().clone();
            let mut expect_payload = 0u64;
            let mut expect_packets = 0u64;
            for len in &sizes {
                expect_payload += *len as u64;
                expect_packets += len.div_ceil(cfg.mtu).max(1) as u64;
                // Packetize the way the NIC's DMA engine does.
                let mut remaining = *len;
                loop {
                    let pkt = remaining.min(cfg.mtu);
                    f.packet_delivery(0, 0, 1, pkt, Time::ZERO);
                    if remaining <= cfg.mtu {
                        break;
                    }
                    remaining -= pkt;
                }
            }
            let stats = f.stats();
            assert_eq!(stats.payload_bytes, expect_payload, "case {case}");
            assert_eq!(stats.packets, expect_packets, "case {case}");
            assert_eq!(
                stats.wire_bytes,
                expect_payload + expect_packets * cfg.packet_overhead as u64,
                "case {case}"
            );
        }
    }
}
