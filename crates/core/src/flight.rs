//! Post-mortem flight recorder.
//!
//! A bounded, always-on ring of recent fabric/protocol events — much
//! cheaper than the full trace ring (compact events, small default
//! capacity, no span bookkeeping), so it stays enabled in production runs
//! where `telemetry.trace` is off. When the progress watchdog declares a
//! stall, or a request completes with an MPI error class, the ring is
//! dumped as structured JSON: the last things that happened before the
//! failure, exactly the view a post-mortem needs.
//!
//! Events are fed from the same funnel as the trace ring
//! ([`crate::endpoint::Endpoint::trace`]), mapped down to the compact
//! [`FlightEvent`] subset; protocol code needs no extra call sites.

use std::collections::VecDeque;

use qsim::Time;

use crate::trace::{escape_json, TraceEvent};

/// Ring capacity of every endpoint's [`FlightRecorder`]
/// ([`FlightRecorder::default`]).
pub const FLIGHT_CAPACITY: usize = 256;

/// One compact flight-recorder event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// A send request was posted.
    Send {
        /// Request id.
        req: u64,
        /// Global message id ([`crate::hdr::msg_gid`]).
        gid: u64,
        /// Destination rank.
        dst: u32,
        /// Message length.
        len: usize,
        /// Eager (true) or rendezvous (false).
        eager: bool,
    },
    /// A receive request was posted.
    Recv {
        /// Request id.
        req: u64,
    },
    /// A first fragment matched a posted receive.
    Match {
        /// The receive request.
        req: u64,
        /// Global message id.
        gid: u64,
        /// Sender rank.
        src: u32,
        /// Total message length.
        len: usize,
    },
    /// A first fragment arrived unexpected.
    Unexpected {
        /// Sender rank.
        src: u32,
    },
    /// RDMA descriptors were issued.
    Rdma {
        /// Global message id the batch serves.
        gid: u64,
        /// Read (receiver pulls) or write (sender pushes).
        read: bool,
        /// Bytes covered.
        bytes: usize,
    },
    /// A local DMA completion was reaped.
    DmaDone {
        /// Global message id the descriptor served.
        gid: u64,
        /// Bytes credited.
        bytes: usize,
    },
    /// A control message was sent.
    Control {
        /// Global message id the frame belongs to; 0 when unattributed.
        gid: u64,
        /// `"Ack"`, `"Fin"` or `"FinAck"`.
        kind: &'static str,
    },
    /// The reliability layer re-sent a control frame.
    Retransmit {
        /// Control kind name.
        kind: &'static str,
        /// Retransmission attempt number.
        attempt: u32,
    },
    /// Retransmission retries were exhausted.
    GaveUp {
        /// Control kind name.
        kind: &'static str,
    },
    /// A corrupt frame was dropped.
    Corrupt {
        /// Raw frame length.
        len: usize,
    },
    /// A request completed cleanly.
    Complete {
        /// Request id.
        req: u64,
        /// Global message id.
        gid: u64,
        /// Send (true) or receive (false).
        send: bool,
    },
    /// A request completed with an MPI error class.
    ReqFailed {
        /// Request id.
        req: u64,
        /// MPI error-class name.
        err: &'static str,
    },
    /// The watchdog declared a stall on this rank.
    Stall {
        /// Number of stuck requests.
        stuck: usize,
    },
}

impl FlightEvent {
    /// Map a trace event down to the compact flight subset; `None` for
    /// high-volume or bookkeeping-only events (pipeline chunks, duplicate
    /// suppressions, spans) that would wash the ring out.
    pub fn from_trace(ev: &TraceEvent) -> Option<FlightEvent> {
        Some(match ev {
            TraceEvent::SendPosted {
                req,
                gid,
                dst,
                len,
                eager,
                ..
            } => FlightEvent::Send {
                req: *req,
                gid: *gid,
                dst: *dst,
                len: *len,
                eager: *eager,
            },
            TraceEvent::RecvPosted { req } => FlightEvent::Recv { req: *req },
            TraceEvent::Matched {
                req, gid, src, len, ..
            } => FlightEvent::Match {
                req: *req,
                gid: *gid,
                src: *src,
                len: *len,
            },
            TraceEvent::Unexpected { src, .. } => FlightEvent::Unexpected { src: *src },
            TraceEvent::RdmaIssued { gid, read, bytes } => FlightEvent::Rdma {
                gid: *gid,
                read: *read,
                bytes: *bytes,
            },
            TraceEvent::DmaDone { gid, bytes } => FlightEvent::DmaDone {
                gid: *gid,
                bytes: *bytes,
            },
            TraceEvent::ControlSent { gid, kind } => FlightEvent::Control { gid: *gid, kind },
            TraceEvent::CtlRetransmit { kind, attempt, .. } => FlightEvent::Retransmit {
                kind,
                attempt: *attempt,
            },
            TraceEvent::CtlGaveUp { kind, .. } => FlightEvent::GaveUp { kind },
            TraceEvent::CorruptFrame { len } => FlightEvent::Corrupt { len: *len },
            TraceEvent::Completed { req, gid, send } => FlightEvent::Complete {
                req: *req,
                gid: *gid,
                send: *send,
            },
            TraceEvent::ReqFailed { req, err, .. } => FlightEvent::ReqFailed { req: *req, err },
            TraceEvent::PipeChunk { .. }
            | TraceEvent::Registered { .. }
            | TraceEvent::CtlDuplicate { .. }
            | TraceEvent::FlowQueued { .. }
            | TraceEvent::FlowSent { .. }
            | TraceEvent::NicProgArmed { .. }
            | TraceEvent::NicCollComplete { .. }
            | TraceEvent::SpanBegin { .. }
            | TraceEvent::SpanEnd { .. } => return None,
        })
    }

    /// The global message id an event is attributed to, when it carries one
    /// and it is non-zero. Used to reconstruct a single message's lifecycle
    /// out of the ring (e.g. for stall diagnostics).
    pub fn gid(&self) -> Option<u64> {
        match self {
            FlightEvent::Send { gid, .. }
            | FlightEvent::Match { gid, .. }
            | FlightEvent::Rdma { gid, .. }
            | FlightEvent::DmaDone { gid, .. }
            | FlightEvent::Control { gid, .. }
            | FlightEvent::Complete { gid, .. } => (*gid != 0).then_some(*gid),
            _ => None,
        }
    }

    /// Short event name used in the JSON dump.
    pub fn name(&self) -> &'static str {
        match self {
            FlightEvent::Send { .. } => "send",
            FlightEvent::Recv { .. } => "recv",
            FlightEvent::Match { .. } => "match",
            FlightEvent::Unexpected { .. } => "unexpected",
            FlightEvent::Rdma { .. } => "rdma",
            FlightEvent::DmaDone { .. } => "dma_done",
            FlightEvent::Control { .. } => "control",
            FlightEvent::Retransmit { .. } => "retransmit",
            FlightEvent::GaveUp { .. } => "gave_up",
            FlightEvent::Corrupt { .. } => "corrupt",
            FlightEvent::Complete { .. } => "complete",
            FlightEvent::ReqFailed { .. } => "req_failed",
            FlightEvent::Stall { .. } => "stall",
        }
    }

    fn fields_json(&self) -> String {
        match self {
            FlightEvent::Send {
                req,
                gid,
                dst,
                len,
                eager,
            } => format!(
                ",\"req\":{req},\"gid\":{gid},\"dst\":{dst},\"len\":{len},\"eager\":{eager}"
            ),
            FlightEvent::Recv { req } => format!(",\"req\":{req}"),
            FlightEvent::Match { req, gid, src, len } => {
                format!(",\"req\":{req},\"gid\":{gid},\"src\":{src},\"len\":{len}")
            }
            FlightEvent::Unexpected { src } => format!(",\"src\":{src}"),
            FlightEvent::Rdma { gid, read, bytes } => {
                format!(",\"gid\":{gid},\"read\":{read},\"bytes\":{bytes}")
            }
            FlightEvent::DmaDone { gid, bytes } => format!(",\"gid\":{gid},\"bytes\":{bytes}"),
            FlightEvent::Control { gid, kind } => {
                format!(",\"gid\":{gid},\"kind\":\"{}\"", escape_json(kind))
            }
            FlightEvent::Retransmit { kind, attempt } => {
                format!(",\"kind\":\"{}\",\"attempt\":{attempt}", escape_json(kind))
            }
            FlightEvent::GaveUp { kind } => format!(",\"kind\":\"{}\"", escape_json(kind)),
            FlightEvent::Corrupt { len } => format!(",\"len\":{len}"),
            FlightEvent::Complete { req, gid, send } => {
                format!(",\"req\":{req},\"gid\":{gid},\"send\":{send}")
            }
            FlightEvent::ReqFailed { req, err } => {
                format!(",\"req\":{req},\"err\":\"{}\"", escape_json(err))
            }
            FlightEvent::Stall { stuck } => format!(",\"stuck\":{stuck}"),
        }
    }

    /// One event as a JSON object, timestamped.
    pub fn to_json(&self, at: Time) -> String {
        format!(
            "{{\"t_ns\":{},\"ev\":\"{}\"{}}}",
            at.as_ns(),
            self.name(),
            self.fields_json()
        )
    }
}

/// The bounded always-on event ring. When full, the oldest event is
/// evicted and counted, so the ring always holds the *tail* of history —
/// the part a post-mortem cares about.
pub struct FlightRecorder {
    events: VecDeque<(Time, FlightEvent)>,
    capacity: usize,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Record one event at `now`, evicting the oldest when full.
    pub fn record(&mut self, now: Time, ev: FlightEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((now, ev));
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events in record order.
    pub fn events(&self) -> impl Iterator<Item = &(Time, FlightEvent)> {
        self.events.iter()
    }

    /// The retained tail as a JSON array of timestamped events.
    pub fn events_json(&self) -> String {
        let rows: Vec<String> = self.events.iter().map(|(t, e)| e.to_json(*t)).collect();
        format!("[{}]", rows.join(","))
    }

    /// A full dump document for one rank:
    /// `{"rank":r,"reason":"...","at_ns":t,"dropped":n,"events":[...]}`.
    pub fn dump_json(&self, rank: usize, reason: &str, at: Time) -> String {
        format!(
            "{{\"rank\":{},\"reason\":\"{}\",\"at_ns\":{},\"dropped\":{},\"events\":{}}}",
            rank,
            escape_json(reason),
            at.as_ns(),
            self.dropped,
            self.events_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_tail_and_counts_drops() {
        let mut fr = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            fr.record(Time::from_ns(i * 10), FlightEvent::Recv { req: i });
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let reqs: Vec<u64> = fr
            .events()
            .map(|(_, e)| match e {
                FlightEvent::Recv { req } => *req,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(reqs, vec![2, 3, 4]);
    }

    #[test]
    fn trace_mapping_keeps_protocol_events_and_drops_noise() {
        let ev = TraceEvent::SendPosted {
            req: 9,
            gid: 77,
            coll: 0,
            dst: 1,
            tag: 5,
            len: 4096,
            eager: false,
        };
        assert_eq!(
            FlightEvent::from_trace(&ev),
            Some(FlightEvent::Send {
                req: 9,
                gid: 77,
                dst: 1,
                len: 4096,
                eager: false
            })
        );
        assert_eq!(FlightEvent::from_trace(&ev).unwrap().gid(), Some(77));
        assert_eq!(
            FlightEvent::from_trace(&TraceEvent::ReqFailed {
                req: 2,
                send: true,
                err: "MPI_ERR_PROC_FAILED"
            }),
            Some(FlightEvent::ReqFailed {
                req: 2,
                err: "MPI_ERR_PROC_FAILED"
            })
        );
        assert_eq!(
            FlightEvent::from_trace(&TraceEvent::PipeChunk {
                req: 1,
                gid: 77,
                off: 0,
                len: 8192,
                last: false
            }),
            None
        );
        assert_eq!(
            FlightEvent::from_trace(&TraceEvent::Registered {
                gid: 77,
                bytes: 8192,
                cost_ns: 100
            }),
            None
        );
        assert_eq!(
            FlightEvent::from_trace(&TraceEvent::SpanBegin {
                id: 1,
                cat: "rndv",
                name: "x"
            }),
            None
        );
    }

    #[test]
    fn dump_is_valid_shaped_json() {
        let mut fr = FlightRecorder::default();
        fr.record(
            Time::from_ns(100),
            FlightEvent::Control {
                gid: 5,
                kind: "FinAck",
            },
        );
        fr.record(Time::from_ns(200), FlightEvent::Stall { stuck: 2 });
        let dump = fr.dump_json(3, "watchdog stall", Time::from_ns(250));
        assert!(dump.contains("\"rank\":3"));
        assert!(dump.contains("\"reason\":\"watchdog stall\""));
        assert!(dump.contains("\"ev\":\"control\",\"gid\":5,\"kind\":\"FinAck\""));
        assert!(dump.contains("\"ev\":\"stall\",\"stuck\":2"));
        assert!(dump.contains("\"dropped\":0"));
    }
}
