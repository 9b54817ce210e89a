//! Dynamic process management (the paper's §4.1 capability) and fault
//! behaviour: spawn cascades, disjoin/rejoin of contexts, capability
//! exhaustion, link-fault transparency.

use std::cell::Cell;
use std::rc::Rc;

use ompi_bench::measure::run_until_stall;
use openmpi_core::{Mpi, Placement, StackConfig, Universe};

/// A parent spawns workers which themselves spawn grandchildren: contexts
/// are claimed and released at three different times during the run.
#[test]
fn nested_dynamic_spawn() {
    let uni = Universe::paper_testbed(StackConfig::best());
    let grandchildren = Rc::new(Cell::new(0));
    let g2 = grandchildren.clone();
    uni.run_world(1, Placement::RoundRobin, move |mpi| {
        let g3 = g2.clone();
        let inter = mpi.spawn(1, &[2], move |child| {
            let g4 = g3.clone();
            let pc = child.parent_comm().unwrap();
            // Child spawns its own child.
            let gc = child.spawn(1, &[3], move |grand| {
                let gpc = grand.parent_comm().unwrap();
                let buf = grand.alloc(8);
                grand.recv(&gpc, 0, 0, &buf, 8);
                let v = u64::from_le_bytes(grand.read(&buf, 0, 8).try_into().unwrap());
                grand.write(&buf, 0, &(v + 1).to_le_bytes());
                grand.send(&gpc, 0, 1, &buf, 8);
                grand.free(buf);
                g4.set(g4.get() + 1);
            });
            let buf = child.alloc(8);
            // Relay: parent -> child -> grandchild -> child -> parent.
            child.recv(&pc, 0, 0, &buf, 8);
            child.send(&gc, 1, 0, &buf, 8);
            child.recv(&gc, 1, 1, &buf, 8);
            child.send(&pc, 0, 1, &buf, 8);
            child.free(buf);
        });
        let buf = mpi.alloc(8);
        mpi.write(&buf, 0, &41u64.to_le_bytes());
        mpi.send(&inter, 1, 0, &buf, 8);
        mpi.recv(&inter, 1, 1, &buf, 8);
        let v = u64::from_le_bytes(mpi.read(&buf, 0, 8).try_into().unwrap());
        assert_eq!(v, 42);
        mpi.free(buf);
    });
    assert_eq!(grandchildren.get(), 1);
}

/// Contexts released by finished jobs are reusable: run several generations
/// of spawned workers on the same node with a deliberately tiny capability.
#[test]
fn context_recycling_across_generations() {
    let nic = elan4::NicConfig {
        ctxs_per_node: 3, // tiny: forces reuse across generations
        ..Default::default()
    };
    let uni = Universe::new(
        nic,
        qsnet::FabricConfig::default(),
        StackConfig::best(),
        openmpi_core::Transports::default(),
    );
    let done = Rc::new(Cell::new(0));
    let d2 = done.clone();
    uni.run_world(1, Placement::Nodes(vec![0]), move |mpi| {
        for gen in 0..4 {
            let d3 = d2.clone();
            // Each generation spawns 2 workers on nodes 1 and 2; they
            // finalize (disjoining) before the next generation starts.
            let inter = mpi.spawn(2, &[1, 2], move |worker| {
                let pc = worker.parent_comm().unwrap();
                let buf = worker.alloc(8);
                worker.recv(&pc, 0, 3, &buf, 8);
                worker.send(&pc, 0, 4, &buf, 8);
                worker.free(buf);
                d3.set(d3.get() + 1);
            });
            let buf = mpi.alloc(8);
            for w in 1..=2 {
                mpi.write(&buf, 0, &(gen as u64).to_le_bytes());
                mpi.send(&inter, w, 3, &buf, 8);
            }
            for _ in 0..2 {
                mpi.recv(&inter, openmpi_core::ANY_SOURCE, 4, &buf, 8);
            }
            mpi.free(buf);
            // Wait (in virtual time) for the workers to finalize so their
            // contexts return to the capability before the next spawn.
            mpi.compute(qsim::Dur::from_us(200));
        }
    });
    assert_eq!(done.get(), 8);
}

/// Capability exhaustion is a clean, diagnosable failure.
#[test]
fn capability_exhaustion_panics_cleanly() {
    let nic = elan4::NicConfig {
        ctxs_per_node: 1,
        ..Default::default()
    };
    let cluster = elan4::Cluster::new(nic, qsnet::FabricConfig::default());
    let a = elan4::ElanCtx::attach(&cluster, 0).unwrap();
    assert!(elan4::ElanCtx::attach(&cluster, 0).is_none());
    a.detach();
    assert!(elan4::ElanCtx::attach(&cluster, 0).is_some());
}

/// Hardware-level retransmission keeps MPI traffic correct under injected
/// link faults, for both eager and rendezvous messages and under striping.
#[test]
fn link_faults_are_transparent_to_mpi() {
    let fabric = qsnet::FabricConfig {
        rails: 2,
        ..Default::default()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        fabric,
        StackConfig::best(),
        openmpi_core::Transports {
            elan_rails: 2,
            tcp: false,
        },
    );
    // Fault traffic in both directions between the ranks' nodes.
    uni.cluster.fabric().inject_drops(0, 1, 5);
    uni.cluster.fabric().inject_drops(1, 0, 5);
    uni.run_world(2, Placement::RoundRobin, |mpi| {
        let w = mpi.world();
        let len = 1 << 17;
        let buf = mpi.alloc(len);
        let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &data);
            mpi.send(&w, 1, 0, &buf, len);
            mpi.recv(&w, 1, 1, &buf, 64);
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), data);
            mpi.send(&w, 0, 1, &buf, 64);
        }
        mpi.free(buf);
    });
    // All of the forward-direction drops and most of the reverse ones are
    // consumed (the reverse path carries only a handful of control packets).
    assert!(uni.cluster.fabric().stats().retries >= 8);
}

/// A lost delivery-confirmation control frame no longer strands the sender:
/// the TCP PTL's reliability layer retransmits the FIN_ACK after its timeout
/// and the transfer completes with no watchdog abort (the watchdog stays
/// armed throughout to prove it never fires).
#[test]
fn retransmission_heals_dropped_fin_ack() {
    let stack = StackConfig {
        inline_first_frag: true,
        metrics: true,
        watchdog_interval: 8,
        watchdog_grace: 4,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        openmpi_core::Transports {
            elan_rails: 0,
            tcp: true,
        },
    );
    // Swallow the single FIN_ACK of the one rendezvous message below.
    uni.tcp_net
        .inject_drop(openmpi_core::hdr::HdrType::FinAck, 1);

    let (_, eps) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 64 << 10;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &vec![0xC3u8; len]);
            mpi.send(&w, 1, 7, &buf, len);
        } else {
            mpi.recv(&w, 0, 7, &buf, len);
            assert_eq!(mpi.read(&buf, 0, len), vec![0xC3u8; len]);
        }
        mpi.free(buf);
        mpi.endpoint().clone()
    });

    for (rank, ep) in eps.iter().enumerate() {
        // No rank stalled: the retransmit healed the loss long before the
        // watchdog's grace period elapsed.
        assert_eq!(ep.introspect.lock().stalls_detected, 0, "rank {rank}");
        let pv = openmpi_core::pvar_snapshot(ep);
        if rank == 1 {
            // The receiver owns the FIN_ACK: exactly one resend healed it.
            assert_eq!(pv.get("rel.retransmits"), Some(1), "rank 1 resends once");
            assert_eq!(pv.get("rel.gave_up"), Some(0));
        } else {
            assert_eq!(pv.get("rel.retransmits"), Some(0), "sender had no loss");
        }
        // All retransmit buffers drained before finalize.
        assert_eq!(pv.get("queues.ctl_inflight"), Some(0));
        assert_eq!(pv.get("queues.failed_peers"), Some(0));
    }
    // Exactly the one injected frame vanished.
    assert_eq!(uni.tcp_net.stats().frames_injected, 1);
}

/// With the reliability layer disabled, a lost delivery-confirmation control
/// frame leaves the sender stranded mid-rendezvous; the progress watchdog
/// must detect it deterministically and name the protocol phase and peer in
/// its diagnostic (the last-resort path the retransmit layer normally
/// preempts).
#[test]
fn watchdog_diagnoses_dropped_fin_ack() {
    let stack = StackConfig {
        // Inline first fragments self-credit the TCP share, so dropping the
        // lone FIN_ACK strands the sender exactly one fragment short.
        inline_first_frag: true,
        tcp_reliability: false,
        watchdog_interval: 8,
        watchdog_grace: 4,
        ..StackConfig::best()
    };
    let uni = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        stack,
        openmpi_core::Transports {
            elan_rails: 0,
            tcp: true,
        },
    );
    // Swallow the single FIN_ACK of the one rendezvous message below.
    uni.tcp_net
        .inject_drop(openmpi_core::hdr::HdrType::FinAck, 1);

    let (msg, eps) = run_until_stall(&uni, |mpi| {
        let w = mpi.world();
        let len = 64 << 10;
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 7, &buf, len);
        } else {
            mpi.recv(&w, 0, 7, &buf, len);
        }
        mpi.free(buf);
    });
    // The stalled rank aborts the simulation through a watchdog panic whose
    // message is the structured diagnostic.
    assert!(
        msg.contains("progress watchdog"),
        "diagnostic header: {msg}"
    );
    assert!(
        msg.contains("rdma-read+fin_ack"),
        "names the protocol phase: {msg}"
    );
    assert!(
        msg.contains("handshake done, awaiting delivery confirmation"),
        "phase detail: {msg}"
    );
    assert!(msg.contains("peer rank 1"), "names the peer: {msg}");

    // The diagnostic is also recorded on the stalled endpoint, and only
    // there: the receiver finished its transfer and parks in finalize.
    for (rank, ep) in eps.iter().enumerate() {
        let ins = ep.introspect.lock();
        if rank == 0 {
            assert_eq!(ins.stalls_detected, 1, "sender stalls once");
            assert_eq!(ins.diagnostics.len(), 1);
            let d = &ins.diagnostics[0];
            assert_eq!(d.rank, 0);
            assert_eq!(d.stuck.len(), 1);
            assert_eq!(d.stuck[0].peer, "rank 1");
            assert_eq!(d.stuck[0].tag, "7");
            assert_eq!(d.stuck[0].kind, "send");
            assert_eq!(d.stuck[0].bytes_total, 64 << 10);
            assert!(
                d.stuck[0].bytes_done < d.stuck[0].bytes_total,
                "payload incomplete"
            );
            // Nothing of the send's own is in flight: only the receiver's
            // lost FIN_ACK would finish it.
            assert!(
                d.stuck[0].stalled_stage.starts_with("fin_wait"),
                "stage: {}",
                d.stuck[0].stalled_stage
            );
            let json = d.to_json();
            assert!(json.contains("\"kind\":\"send\""), "json: {json}");
            assert!(json.contains("\"peer\":\"rank 1\""), "json: {json}");
        } else {
            assert_eq!(ins.stalls_detected, 0, "receiver completed cleanly");
        }
    }
    // Exactly the one injected frame vanished.
    assert_eq!(uni.tcp_net.stats().frames_injected, 1);
}

/// The watchdog diagnoses each stuck request from its own phase, whatever
/// the message size: an eager send parked on an exhausted credit window
/// waits in `queued`, and a 64 B synchronous send is a rendezvous whose
/// receiver, matched but missing its one pushed fragment, waits in
/// `fin_wait`.
#[test]
fn watchdog_names_each_stuck_requests_phase_and_stage() {
    let armed = StackConfig {
        watchdog_interval: 8,
        watchdog_grace: 4,
        ..StackConfig::best()
    };
    // Three 64 B sends into a two-credit window, toward a rank that posts
    // no receive and so never returns a credit.
    let credits = Universe::paper_testbed(StackConfig {
        flow_enable: true,
        flow_credits: 2,
        ..armed.clone()
    });
    let parked: fn(&Mpi) = |mpi| {
        let (w, buf) = (mpi.world(), mpi.alloc(64));
        if mpi.rank() == 0 {
            mpi.waitall(
                (0..3)
                    .map(|tag| mpi.isend(&w, 1, tag, &buf, 64))
                    .collect::<Vec<_>>(),
            );
        }
    };
    // A 64 B ssend over TCP alone, its one pushed fragment lost.
    let tcp = Universe::new(
        elan4::NicConfig::default(),
        qsnet::FabricConfig::default(),
        armed,
        openmpi_core::Transports {
            elan_rails: 0,
            tcp: true,
        },
    );
    tcp.tcp_net.inject_drop(openmpi_core::hdr::HdrType::Frag, 1);
    let ssend: fn(&Mpi) = |mpi| {
        let (w, buf) = (mpi.world(), mpi.alloc(64));
        if mpi.rank() == 0 {
            mpi.ssend(&w, 1, 7, &buf, 64);
        } else {
            mpi.recv(&w, 0, 7, &buf, 64);
        }
    };
    let send_phase = "eager: parked on the peer's exhausted credit window";
    let recv_phase = "rdma-read+fin_ack: matched, awaiting remaining payload";
    let cases = [
        (&credits, parked, (0, "send", send_phase, "queued")),
        (&tcp, ssend, (1, "recv", recv_phase, "fin_wait")),
    ];
    for (uni, body, (rank, kind, phase, stage)) in cases {
        let (_, eps) = run_until_stall(uni, body);
        // Exactly one rank stalls, on exactly one request.
        let diags: Vec<_> = eps
            .iter()
            .flat_map(|ep| ep.introspect.lock().diagnostics.clone())
            .collect();
        let [d] = diags.as_slice() else {
            panic!("{kind} on rank {rank}: expected one diagnostic, got {diags:?}");
        };
        let [s] = d.stuck.as_slice() else {
            panic!("{kind} on rank {rank}: expected one stuck request, got {d:?}");
        };
        assert_eq!((d.rank, s.kind, s.phase.as_str()), (rank, kind, phase));
        let got_stage = &s.stalled_stage;
        assert!(got_stage.starts_with(stage), "{phase}: stage {got_stage}");
    }
}

/// The same job re-run after another job used the cluster sees a clean
/// machine (no cross-run interference through the shared fabric state).
#[test]
fn sequential_jobs_share_the_machine() {
    let uni = Universe::paper_testbed(StackConfig::best());
    for round in 0..3u8 {
        uni.run_world(4, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let b = mpi.alloc(128);
            if mpi.rank() == 0 {
                mpi.write(&b, 0, &[round; 128]);
            }
            mpi.bcast(&w, 0, &b, 128);
            assert_eq!(mpi.read(&b, 0, 128), vec![round; 128]);
            mpi.free(b);
        });
    }
    for node in 0..8 {
        assert_eq!(uni.cluster.mem_in_use(node), 0);
    }
}
