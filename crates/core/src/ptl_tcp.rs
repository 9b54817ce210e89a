//! The TCP/IP reference transport.
//!
//! Open MPI's first PTL ran over TCP (paper §1); it pays operating-system
//! overhead (syscalls) and kernel data copies on both sides, which is the
//! motivation for the Elan4 PTL. We model a switched gigabit Ethernet as a
//! full crossbar with per-node link occupancy, plus per-send syscall and
//! copy costs. Frames arrive whole in a per-rank inbox (the stream framing
//! of a real socket is below the fidelity this reproduction needs).

use std::collections::VecDeque;
use std::rc::Rc;

use elan4::NicConfig;
use ompi_rte::ProcName;
use qsim::{Dur, FastMap, Local, Proc, Signal, Time};

/// Ethernet + kernel-stack timing model.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// One-way wire+switch latency.
    pub wire_latency: Dur,
    /// Practical link bandwidth, bytes per microsecond (1 GbE ≈ 110 MB/s).
    pub bytes_per_us: u64,
    /// Syscall + TCP/IP stack processing per send or receive.
    pub syscall: Dur,
    /// Largest frame handed to the kernel at once.
    pub max_frame: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            wire_latency: Dur::from_us(22),
            bytes_per_us: 110,
            syscall: Dur::from_us_f64(2.5),
            max_frame: 64 << 10,
        }
    }
}

/// Incoming frame queue of one rank.
pub struct TcpInbox {
    queue: Local<VecDeque<Vec<u8>>>,
    doorbell: Local<Option<Signal>>,
    depth_hwm: Local<usize>,
}

impl TcpInbox {
    /// An empty inbox with no doorbell.
    pub fn new() -> Rc<TcpInbox> {
        Rc::new(TcpInbox {
            queue: Local::new(VecDeque::new()),
            doorbell: Local::new(None),
            depth_hwm: Local::new(0),
        })
    }

    /// Notify `sig` on every delivered frame.
    pub fn set_doorbell(&self, sig: Signal) {
        *self.doorbell.lock() = Some(sig);
    }

    /// Take the next frame, if any.
    pub fn pop(&self) -> Option<Vec<u8>> {
        self.queue.lock().pop_front()
    }

    /// True when no frame is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Deepest the queue has ever been (socket-buffer occupancy telemetry).
    pub fn depth_hwm(&self) -> usize {
        *self.depth_hwm.lock()
    }

    fn deliver(&self, frame: Vec<u8>) {
        let depth = {
            let mut q = self.queue.lock();
            q.push_back(frame);
            q.len()
        };
        let mut hwm = self.depth_hwm.lock();
        *hwm = (*hwm).max(depth);
    }
}

struct TcpNetInner {
    inboxes: FastMap<ProcName, (usize, Rc<TcpInbox>)>,
    tx_free: Vec<Time>,
    rx_free: Vec<Time>,
    stats: TcpNetStats,
    drop_rule: Option<DropRule>,
    dup_rule: Option<DupRule>,
}

/// Armed fault injection: vanish frames of one kind off the wire.
struct DropRule {
    kind: u8,
    remaining: u64,
}

/// Armed fault injection: deliver frames of one kind twice.
struct DupRule {
    kind: u8,
    remaining: u64,
}

/// Traffic totals of the shared Ethernet.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TcpNetStats {
    /// Frames accepted for delivery.
    pub frames_sent: u64,
    /// Bytes across those frames.
    pub bytes_sent: u64,
    /// Frames dropped because the peer was unbound (RST behaviour).
    pub frames_dropped: u64,
    /// Frames silently discarded by armed fault injection
    /// ([`TcpNet::inject_drop`]).
    pub frames_injected: u64,
    /// Frames delivered twice by armed fault injection
    /// ([`TcpNet::inject_dup`]).
    pub frames_duplicated: u64,
}

/// The shared Ethernet.
pub struct TcpNet {
    cfg: TcpConfig,
    inner: Local<TcpNetInner>,
}

impl TcpNet {
    /// A fresh Ethernet for `nodes` hosts.
    pub fn new(cfg: TcpConfig, nodes: usize) -> Rc<TcpNet> {
        Rc::new(TcpNet {
            cfg,
            inner: Local::new(TcpNetInner {
                inboxes: FastMap::default(),
                tx_free: vec![Time::ZERO; nodes],
                rx_free: vec![Time::ZERO; nodes],
                stats: TcpNetStats::default(),
                drop_rule: None,
                dup_rule: None,
            }),
        })
    }

    /// The timing model in use.
    pub fn cfg(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Traffic totals so far.
    pub fn stats(&self) -> TcpNetStats {
        self.inner.lock().stats
    }

    /// Bind a rank's inbox (the `listen`/`accept` moment).
    pub fn bind(&self, who: ProcName, node: usize, inbox: Rc<TcpInbox>) {
        self.inner.lock().inboxes.insert(who, (node, inbox));
    }

    /// Close a rank's socket (frames in flight are dropped, like RST).
    pub fn unbind(&self, who: ProcName) {
        self.inner.lock().inboxes.remove(&who);
    }

    /// Arm deterministic fault injection: the next `count` frames whose
    /// header kind equals `kind` (e.g. [`crate::hdr::HdrType::FinAck`])
    /// vanish off the wire after the sender has paid its kernel costs —
    /// exactly the loss a stall-diagnostics test needs, with no randomness.
    pub fn inject_drop(&self, kind: crate::hdr::HdrType, count: u64) {
        self.inner.lock().drop_rule = Some(DropRule {
            kind: kind as u8,
            remaining: count,
        });
    }

    /// Arm deterministic duplication: the next `count` frames whose header
    /// kind equals `kind` are delivered twice, one wire latency apart — the
    /// redelivery a duplicate-suppression test needs, with no randomness.
    pub fn inject_dup(&self, kind: crate::hdr::HdrType, count: u64) {
        self.inner.lock().dup_rule = Some(DupRule {
            kind: kind as u8,
            remaining: count,
        });
    }

    /// Send one frame from the calling process's node to `dst`. Charges the
    /// caller the syscall + kernel copy; wire time is asynchronous. The
    /// matching receive-side copy cost is charged when the frame is popped
    /// (see `Endpoint` dispatch).
    pub fn send(
        self: &Rc<Self>,
        proc: &Proc,
        nic_cfg: &NicConfig,
        src_node: usize,
        dst: ProcName,
        frame: Vec<u8>,
    ) {
        assert!(frame.len() <= self.cfg.max_frame, "frame exceeds max_frame");
        // Kernel send path: syscall + copy into socket buffer.
        proc.advance(self.cfg.syscall + nic_cfg.memcpy(frame.len()));

        {
            // Fault injection happens after the sender paid its costs: the
            // kernel accepted the frame, the wire lost it.
            let mut inner = self.inner.lock();
            if let Some(rule) = &mut inner.drop_rule {
                if rule.remaining > 0 && frame.first() == Some(&rule.kind) {
                    rule.remaining -= 1;
                    inner.stats.frames_injected += 1;
                    return;
                }
            }
        }

        let (dst_node, inbox) = {
            let mut inner = self.inner.lock();
            match inner.inboxes.get(&dst) {
                Some((n, i)) => (*n, i.clone()),
                // Peer closed: TCP would RST; the frame vanishes.
                None => {
                    inner.stats.frames_dropped += 1;
                    return;
                }
            }
        };
        let now = proc.now();
        let ser = Dur::for_bytes(frame.len(), self.cfg.bytes_per_us);
        let (delivered, copies) = {
            let mut inner = self.inner.lock();
            inner.stats.frames_sent += 1;
            inner.stats.bytes_sent += frame.len() as u64;
            let mut copies = 1u64;
            if let Some(rule) = &mut inner.dup_rule {
                if rule.remaining > 0 && frame.first() == Some(&rule.kind) {
                    rule.remaining -= 1;
                    inner.stats.frames_duplicated += 1;
                    copies = 2;
                }
            }
            let start = now.max(inner.tx_free[src_node]);
            inner.tx_free[src_node] = start + ser;
            let arr = (start + self.cfg.wire_latency).max(inner.rx_free[dst_node]);
            let done = arr + ser;
            inner.rx_free[dst_node] = done;
            (done, copies)
        };
        for i in 0..copies {
            let inbox = inbox.clone();
            let frame = frame.clone();
            // A duplicated frame re-arrives one wire latency after the
            // original, as a retransmitted segment would.
            proc.sim()
                .call_at(delivered + self.cfg.wire_latency * i, move |s| {
                    inbox.deliver(frame);
                    if let Some(d) = inbox.doorbell.lock().clone() {
                        d.notify(s);
                    }
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Simulation;
    use std::cell::Cell;

    #[test]
    fn tcp_latency_dominated_by_wire_and_syscalls() {
        let net = TcpNet::new(TcpConfig::default(), 2);
        let sim = Simulation::new();
        let a = ProcName {
            job: ompi_rte::JobId(0),
            rank: 0,
        };
        let b = ProcName {
            job: ompi_rte::JobId(0),
            rank: 1,
        };
        let inbox = TcpInbox::new();
        net.bind(a, 0, TcpInbox::new());
        net.bind(b, 1, inbox.clone());
        let t = Rc::new(Cell::new(0));
        {
            let net = net.clone();
            let inbox = inbox.clone();
            let t = t.clone();
            sim.spawn("rx", move |p| {
                let sig = p.signal();
                inbox.set_doorbell(sig.clone());
                let _ = net; // keep alive
                loop {
                    if inbox.pop().is_some() {
                        break;
                    }
                    p.wait(&sig).expect_signaled();
                }
                t.set(p.now().as_ns());
            });
        }
        {
            let net = net.clone();
            sim.spawn("tx", move |p| {
                p.advance(Dur::from_ns(10));
                net.send(&p, &NicConfig::default(), 0, b, vec![0u8; 64]);
            });
        }
        sim.run().unwrap();
        let ns = t.get();
        // syscall 2.5us + copy + 22us wire + serialization.
        assert!(ns > 24_000 && ns < 30_000, "tcp one-way {ns}ns");
    }

    #[test]
    fn frames_arrive_in_order() {
        let net = TcpNet::new(TcpConfig::default(), 2);
        let sim = Simulation::new();
        let b = ProcName {
            job: ompi_rte::JobId(0),
            rank: 1,
        };
        let inbox = TcpInbox::new();
        net.bind(b, 1, inbox.clone());
        let got = Rc::new(Local::new(Vec::new()));
        {
            let got = got.clone();
            let inbox = inbox.clone();
            sim.spawn("rx", move |p| {
                let sig = p.signal();
                inbox.set_doorbell(sig.clone());
                let mut n = 0;
                while n < 5 {
                    match inbox.pop() {
                        Some(f) => {
                            got.lock().push(f[0]);
                            n += 1;
                        }
                        None => {
                            p.wait(&sig).expect_signaled();
                        }
                    }
                }
            });
        }
        {
            let net = net.clone();
            sim.spawn("tx", move |p| {
                for i in 0..5u8 {
                    net.send(&p, &NicConfig::default(), 0, b, vec![i; 100]);
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(*got.lock(), vec![0, 1, 2, 3, 4]);
        let stats = net.stats();
        assert_eq!(stats.frames_sent, 5);
        assert_eq!(stats.bytes_sent, 5 * 100);
        assert_eq!(stats.frames_dropped, 0);
        assert!(inbox.depth_hwm() >= 1);
    }

    #[test]
    fn injected_drop_vanishes_matching_kind_only_until_exhausted() {
        let net = TcpNet::new(TcpConfig::default(), 2);
        let sim = Simulation::new();
        let b = ProcName {
            job: ompi_rte::JobId(0),
            rank: 1,
        };
        let inbox = TcpInbox::new();
        net.bind(b, 1, inbox.clone());
        net.inject_drop(crate::hdr::HdrType::FinAck, 1);
        let got = Rc::new(Local::new(Vec::new()));
        {
            let got = got.clone();
            let inbox = inbox.clone();
            sim.spawn("rx", move |p| {
                let sig = p.signal();
                inbox.set_doorbell(sig.clone());
                let mut n = 0;
                while n < 2 {
                    match inbox.pop() {
                        Some(f) => {
                            got.lock().push(f[0]);
                            n += 1;
                        }
                        None => {
                            p.wait(&sig).expect_signaled();
                        }
                    }
                }
            });
        }
        {
            let net = net.clone();
            sim.spawn("tx", move |p| {
                let fin_ack = crate::hdr::HdrType::FinAck as u8;
                // First FIN_ACK vanishes, the eager frame passes, and the
                // second FIN_ACK passes because the rule is exhausted.
                net.send(&p, &NicConfig::default(), 0, b, vec![fin_ack; 16]);
                net.send(&p, &NicConfig::default(), 0, b, vec![1u8; 16]);
                net.send(&p, &NicConfig::default(), 0, b, vec![fin_ack; 16]);
            });
        }
        sim.run().unwrap();
        assert_eq!(*got.lock(), vec![1, crate::hdr::HdrType::FinAck as u8]);
        assert_eq!(net.stats().frames_injected, 1);
        assert_eq!(net.stats().frames_sent, 2);
    }

    #[test]
    fn injected_dup_delivers_matching_kind_twice() {
        let net = TcpNet::new(TcpConfig::default(), 2);
        let sim = Simulation::new();
        let b = ProcName {
            job: ompi_rte::JobId(0),
            rank: 1,
        };
        let inbox = TcpInbox::new();
        net.bind(b, 1, inbox.clone());
        net.inject_dup(crate::hdr::HdrType::FinAck, 1);
        let got = Rc::new(Local::new(Vec::new()));
        {
            let got = got.clone();
            let inbox = inbox.clone();
            sim.spawn("rx", move |p| {
                let sig = p.signal();
                inbox.set_doorbell(sig.clone());
                let mut n = 0;
                while n < 3 {
                    match inbox.pop() {
                        Some(f) => {
                            got.lock().push(f[0]);
                            n += 1;
                        }
                        None => {
                            p.wait(&sig).expect_signaled();
                        }
                    }
                }
            });
        }
        {
            let net = net.clone();
            sim.spawn("tx", move |p| {
                let fin_ack = crate::hdr::HdrType::FinAck as u8;
                // The FIN_ACK arrives twice; the eager frame once; the rule
                // is exhausted after the first match.
                net.send(&p, &NicConfig::default(), 0, b, vec![fin_ack; 16]);
                net.send(&p, &NicConfig::default(), 0, b, vec![1u8; 16]);
            });
        }
        sim.run().unwrap();
        let mut seen = got.lock().clone();
        seen.sort_unstable();
        let fin_ack = crate::hdr::HdrType::FinAck as u8;
        assert_eq!(seen, vec![1, fin_ack, fin_ack]);
        assert_eq!(net.stats().frames_duplicated, 1);
        assert_eq!(net.stats().frames_sent, 2);
    }

    #[test]
    fn send_to_unbound_peer_is_dropped() {
        let net = TcpNet::new(TcpConfig::default(), 2);
        let sim = Simulation::new();
        let ghost = ProcName {
            job: ompi_rte::JobId(9),
            rank: 9,
        };
        {
            let net = net.clone();
            sim.spawn("tx", move |p| {
                net.send(&p, &NicConfig::default(), 0, ghost, vec![1, 2, 3]);
                p.advance(Dur::from_us(100));
            });
        }
        sim.run().unwrap();
        assert_eq!(net.stats().frames_dropped, 1);
        assert_eq!(net.stats().frames_sent, 0);
    }
}
