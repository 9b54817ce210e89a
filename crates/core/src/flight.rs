//! Post-mortem flight recorder.
//!
//! A bounded, always-on ring of recent protocol events — much cheaper than
//! the full trace ring (small capacity, no span or per-chunk events), so it
//! stays enabled in production runs where `telemetry.trace` is off. When
//! the progress watchdog declares a stall, or a request completes with an
//! MPI error class, the ring is dumped as structured JSON: the last things
//! that happened before the failure, exactly the view a post-mortem needs.
//!
//! The ring is a [`TraceLog`] fed from the same funnel as the trace ring
//! ([`crate::endpoint::Endpoint::trace`]) with the events
//! [`TraceEvent::in_flight`] admits; protocol code needs no extra call
//! sites.

use qsim::Time;

use crate::trace::{escape_json, TraceEvent, TraceLog};

/// Ring capacity of every endpoint's flight recorder.
pub const FLIGHT_CAPACITY: usize = 256;

/// Timestamped events as a JSON array, oldest first.
pub(crate) fn events_json<'a>(events: impl IntoIterator<Item = &'a (Time, TraceEvent)>) -> String {
    let rows: Vec<String> = events.into_iter().map(|(t, e)| e.to_json(*t)).collect();
    format!("[{}]", rows.join(","))
}

/// A full dump document for one rank:
/// `{"rank":r,"reason":"...","at_ns":t,"dropped":n,"events":[...]}`.
pub(crate) fn dump_json(ring: &TraceLog, rank: usize, reason: &str, at: Time) -> String {
    format!(
        "{{\"rank\":{},\"reason\":\"{}\",\"at_ns\":{},\"dropped\":{},\"events\":{}}}",
        rank,
        escape_json(reason),
        at.as_ns(),
        ring.dropped(),
        events_json(ring.iter())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every kind, with its trace name.
    fn every_event() -> Vec<TraceEvent> {
        use TraceEvent::*;
        let (req, gid, kind) = (1, 2, "Fin");
        vec![
            SendPosted {
                req,
                gid,
                coll: 0,
                dst: 1,
                tag: 5,
                len: 4096,
                eager: false,
            },
            RecvPosted { req },
            Matched {
                req,
                gid,
                src: 0,
                tag: 5,
                len: 4096,
            },
            Unexpected { src: 0, tag: 5 },
            Registered {
                gid,
                bytes: 8192,
                cost_ns: 100,
            },
            RdmaIssued {
                gid,
                read: true,
                bytes: 4096,
            },
            DmaDone { gid, bytes: 4096 },
            PipeChunk {
                req,
                gid,
                off: 0,
                len: 8192,
                last: false,
            },
            ControlSent { gid, kind },
            Completed {
                req,
                gid,
                send: true,
            },
            CtlRetransmit {
                kind,
                rel_seq: 3,
                attempt: 1,
            },
            CtlDuplicate { kind, rel_seq: 3 },
            CtlGaveUp { kind, rel_seq: 3 },
            ReqFailed {
                req,
                send: true,
                err: "MPI_ERR_PROC_FAILED",
            },
            CorruptFrame { len: 64 },
            Stall { stuck: 1 },
            FlowQueued { req, gid },
            FlowSent { req, gid },
            NicProgArmed {
                prog: 1,
                kind: "barrier",
                radix: 4,
                members: 8,
            },
            NicCollComplete {
                prog: 1,
                coll: 1,
                kind: "barrier",
            },
            SpanBegin {
                id: 1,
                cat: "rndv",
                name: "rndv_handshake",
            },
            SpanEnd {
                id: 1,
                cat: "rdma",
                name: "rdma_burst",
            },
        ]
    }

    #[test]
    fn in_flight_keeps_protocol_milestones_and_drops_noise() {
        let all = every_event();
        let mut names: Vec<&str> = all.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22, "one event of each kind");
        let kept: Vec<&str> = all
            .iter()
            .filter(|e| e.in_flight())
            .map(|e| e.name())
            .collect();
        assert_eq!(
            kept,
            [
                "send_posted",
                "recv_posted",
                "matched",
                "unexpected",
                "rdma_issued",
                "dma_done",
                "control_sent",
                "completed",
                "ctl_retransmit",
                "ctl_gave_up",
                "req_failed",
                "corrupt_frame",
                "stall",
            ]
        );
    }

    #[test]
    fn dump_is_valid_shaped_json() {
        let mut ring = TraceLog::with_capacity(FLIGHT_CAPACITY);
        ring.push((
            Time::from_ns(100),
            TraceEvent::ControlSent {
                gid: 5,
                kind: "FinAck",
            },
        ));
        ring.push((Time::from_ns(200), TraceEvent::Stall { stuck: 2 }));
        let dump = dump_json(&ring, 3, "watchdog stall", Time::from_ns(250));
        assert!(dump.contains("\"rank\":3"));
        assert!(dump.contains("\"reason\":\"watchdog stall\""));
        assert!(
            dump.contains("{\"t_ns\":100,\"ev\":\"control_sent\",\"gid\":5,\"kind\":\"FinAck\"}")
        );
        assert!(dump.contains("{\"t_ns\":200,\"ev\":\"stall\",\"stuck\":2}"));
        assert!(dump.contains("\"dropped\":0"));
    }
}
