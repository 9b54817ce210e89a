//! Fabric-level observability: per-link occupancy accounting under an
//! N-to-1 incast, the congestion report naming the victim's ejection link,
//! and the post-mortem flight recorder dumping on watchdog stalls and
//! failed requests.

use ompi_bench::measure::{incast_congestion, stall_flight_demo, Setup};
use openmpi_core::{MpiErrClass, Placement, StackConfig, Universe};
use qsnet::LinkKind;

/// An 8-rank incast: every sender's traffic funnels into rank 0's ejection
/// link, so that link's busy time is ~(N-1)× any single source injection
/// link, the congestion report names it hottest, and the byte totals
/// reconcile across the pvar and fabric planes.
#[test]
fn incast_concentrates_occupancy_on_the_victims_ejection_link() {
    let ranks = 8;
    let (len, iters) = (1 << 10, 32);
    let cap = incast_congestion(&Setup::paper(StackConfig::default()), ranks, len, iters, 64);

    // The fabric report names the victim's ejection link as hottest.
    assert_eq!(cap.hot_rank, 0, "rank 0 is the incast victim");
    assert_eq!(cap.hot_link().as_deref(), Some("r0.ej.n0"));
    let hot = cap.congestion.hottest().expect("links are active");
    assert_eq!(hot.kind, LinkKind::Ejection);
    assert!(
        hot.queue_peak >= (ranks - 1) as u64,
        "incast queue depth peaked at {} < fan-in {}",
        hot.queue_peak,
        ranks - 1
    );

    // Occupancy concentration: the victim's ejection link burned several
    // times the busy time of any single source injection link. Each sender
    // contributes ~1/(N-1) of the victim's traffic, so the ratio is ~N-1;
    // barrier/finalize chatter erodes it slightly.
    let src_inj_max = cap
        .congestion
        .links
        .iter()
        .filter(|l| l.kind == LinkKind::Injection && l.index != 0)
        .map(|l| l.busy_ns)
        .max()
        .expect("source injection links are active");
    assert!(
        hot.busy_ns >= 5 * src_inj_max,
        "ejection busy {}ns not ~{}x source injection busy {}ns",
        hot.busy_ns,
        ranks - 1,
        src_inj_max
    );

    // The victim's ejection link carried at least the application payload.
    let app_bytes = ((ranks - 1) * len * iters) as u64;
    assert!(
        hot.payload_bytes >= app_bytes,
        "ejection payload {} < application payload {}",
        hot.payload_bytes,
        app_bytes
    );

    // Byte reconciliation, fabric plane: everything injected was ejected
    // (single rail, no drops), summed over the full link table.
    let fab_sum = |kind: LinkKind| -> u64 {
        cap.congestion
            .links
            .iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.payload_bytes)
            .sum()
    };
    assert_eq!(fab_sum(LinkKind::Injection), fab_sum(LinkKind::Ejection));

    // Byte reconciliation, pvar plane: the cluster aggregation of each
    // rank's `fab.*` pvars matches the fabric's own link table exactly —
    // the introspection plane is a view of the same accounting, not a
    // second tally.
    let agg = |name: &str| cap.cluster.get(name).expect(name).sum;
    assert_eq!(agg("fab.inj.payload_bytes"), fab_sum(LinkKind::Injection));
    assert_eq!(agg("fab.ej.payload_bytes"), fab_sum(LinkKind::Ejection));
    assert_eq!(
        cap.cluster.get("fab.ej.busy_ns").expect("aggregated").max,
        hot.busy_ns,
        "hottest link's busy time surfaces as the pvar max"
    );
    assert_eq!(
        cap.cluster
            .get("fab.ej.busy_ns")
            .expect("aggregated")
            .max_rank,
        0,
        "the pvar plane names the victim rank"
    );

    // Per-stage utilization is present and the endpoint stages carried all
    // payload traffic.
    assert!(cap.congestion.stages.iter().any(|s| s.stage == "ej"));
    assert!(cap.congestion.stages.iter().any(|s| s.stage == "up.l1"));
}

/// A forced rendezvous stall (dropped FIN_ACK, reliability off): the
/// watchdog aborts the run and the flight recorder's ring — dumped
/// automatically at detection — contains the protocol events leading up to
/// the wedge, embedded in both the stall diagnostic and the standalone
/// dump.
#[test]
fn watchdog_stall_dumps_the_flight_recorder() {
    let demo = stall_flight_demo(true);
    assert!(
        demo.panic_msg.contains("progress watchdog"),
        "watchdog fired: {}",
        demo.panic_msg
    );
    assert_eq!(demo.flight_dumps.len(), 1, "one dump from the stalled rank");
    let dump = &demo.flight_dumps[0];
    assert!(dump.contains("\"reason\":\"watchdog stall\""), "{dump}");
    assert!(
        dump.contains("\"ev\":\"send_posted\""),
        "the rendezvous send that wedged is in the ring: {dump}"
    );
    assert!(
        dump.contains("\"ev\":\"stall\""),
        "the stall event closes the ring: {dump}"
    );
    // The structured diagnostic embeds the same ring.
    assert_eq!(demo.diagnostics.len(), 1);
    assert!(
        demo.diagnostics[0].contains("\"flight\":[{"),
        "diagnostic embeds flight events: {}",
        demo.diagnostics[0]
    );
}

/// Rank 0 sends to rank 1 with no transport activated, so the send fails
/// with an MPI error class; returns rank 0's flight dumps.
fn unroutable_send_dumps(flight_recorder: bool) -> Vec<String> {
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        StackConfig {
            flight_recorder,
            ..StackConfig::best()
        },
        openmpi_core::Transports {
            elan_rails: 0,
            tcp: false,
        },
    );
    let (_, mut dumps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        if mpi.rank() == 0 {
            let w = mpi.world();
            let buf = mpi.alloc(1024);
            let r = mpi.isend(&w, 1, 0, &buf, 1024);
            assert_eq!(mpi.wait_result(r), Err(MpiErrClass::NoTransport));
            let ep = mpi.endpoint();
            let pv = openmpi_core::pvar_snapshot(ep);
            let own = ep.introspect.lock().flight_dumps.clone();
            assert_eq!(pv.get("flight.dumps"), Some(own.len() as u64));
            mpi.free(buf);
            own
        } else {
            Vec::new()
        }
    });
    dumps.swap_remove(0)
}

/// A request failing with an MPI error class (unroutable peer) freezes the
/// flight recorder too: the dump names the failure and ends with the
/// `req_failed` event.
#[test]
fn failed_request_dumps_the_flight_recorder() {
    let dumps = unroutable_send_dumps(true);
    assert_eq!(dumps.len(), 1);
    assert!(
        dumps[0].contains("\"reason\":\"request failed: MPI_ERR_UNREACHABLE\""),
        "{}",
        dumps[0]
    );
    assert!(
        dumps[0].contains("\"ev\":\"req_failed\""),
        "the failure event closes the ring: {}",
        dumps[0]
    );
}

/// With `flight.enable` off neither post-mortem path takes a dump: the
/// watchdog still aborts the stalled run and the unroutable send still
/// fails, but no dump is pushed or counted.
#[test]
fn flight_enable_off_means_no_dump_on_either_path() {
    let demo = stall_flight_demo(false);
    assert!(
        demo.panic_msg.contains("progress watchdog"),
        "watchdog fired: {}",
        demo.panic_msg
    );
    assert_eq!(demo.diagnostics.len(), 1);
    assert_eq!(demo.flight_dumps, Vec::<String>::new(), "stall path");
    // The diagnosis reads the stuck request's own state, not the ring.
    assert_eq!(
        demo.stuck,
        stall_flight_demo(true).stuck,
        "stalled stage with the recorder off"
    );
    assert_eq!(
        unroutable_send_dumps(false),
        Vec::<String>::new(),
        "failed send"
    );
}

/// Turning `flight.enable` off at runtime stops recording: the ring keeps
/// what it already holds, but no new events are added (and no dump is
/// taken; see `flight_enable_off_means_no_dump_on_either_path`).
#[test]
fn flight_recorder_cvar_gates_recording() {
    let uni = Universe::paper_testbed(StackConfig::best());
    uni.run_world(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(256);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, 256);
            let ep = mpi.endpoint();
            let before = ep.flight.lock().len();
            assert!(before > 0, "flight recorder is on by default");
            openmpi_core::cvar_write(ep, "flight.enable", openmpi_core::CvarValue::Bool(false))
                .unwrap();
            mpi.send(&w, 1, 1, &buf, 256);
            assert_eq!(ep.flight.lock().len(), before, "gated off: no new events");
        } else {
            mpi.recv(&w, 0, 0, &buf, 256);
            mpi.recv(&w, 0, 1, &buf, 256);
        }
        mpi.free(buf);
    });
}
