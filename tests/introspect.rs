//! MPI_T-style introspection: the cvar registry (read, validated write,
//! runtime effect), the pvar snapshot/aggregation plane, and a clean
//! watchdog-armed run producing zero stalls with pvar totals that agree
//! with the metrics plane.

use std::rc::Rc;

use openmpi_core::{CvarValue, Placement, StackConfig, Universe};

/// Every registry entry is readable, defaults mirror the config, and bad
/// writes (unknown name, read-only target, type mismatch, invalid value)
/// fail with a diagnostic instead of corrupting the stack.
#[test]
fn cvar_registry_reads_defaults_and_validates_writes() {
    let cfg = StackConfig::best();
    let eager = cfg.eager_limit as u64;
    let uni = Universe::paper_testbed(cfg);
    uni.run_world(1, Placement::RoundRobin, move |mpi| {
        let ep = mpi.endpoint();

        let json = openmpi_core::cvars_json(ep);
        for name in [
            "pml.eager_limit",
            "pml.rdma_scheme",
            "ptl.completion_mode",
            "telemetry.metrics",
            "watchdog.interval",
            "watchdog.grace",
        ] {
            assert!(json.contains(&format!("\"{name}\"")), "{name} in {json}");
        }

        assert_eq!(
            openmpi_core::cvar_read(ep, "pml.eager_limit"),
            Some(CvarValue::U64(eager))
        );
        assert_eq!(
            openmpi_core::cvar_read(ep, "telemetry.metrics"),
            Some(CvarValue::Bool(false))
        );
        assert_eq!(openmpi_core::cvar_read(ep, "no.such.var"), None);

        // Unknown variable.
        assert!(openmpi_core::cvar_write(ep, "no.such.var", CvarValue::U64(1)).is_err());
        // Read-only variable.
        assert!(
            openmpi_core::cvar_write(ep, "pml.rdma_scheme", CvarValue::Str("write".into()))
                .is_err()
        );
        // Type mismatch on a writable variable.
        assert!(openmpi_core::cvar_write(ep, "pml.eager_limit", CvarValue::Bool(true)).is_err());
        // Out-of-range value.
        assert!(openmpi_core::cvar_write(ep, "pml.eager_limit", CvarValue::U64(1 << 30)).is_err());
        assert!(openmpi_core::cvar_write(ep, "watchdog.grace", CvarValue::U64(0)).is_err());

        // A valid write takes effect immediately and reads back.
        openmpi_core::cvar_write(ep, "watchdog.grace", CvarValue::U64(9)).unwrap();
        assert_eq!(
            openmpi_core::cvar_read(ep, "watchdog.grace"),
            Some(CvarValue::U64(9))
        );
        openmpi_core::cvar_write(ep, "telemetry.metrics", CvarValue::Bool(true)).unwrap();
        assert_eq!(
            openmpi_core::cvar_read(ep, "telemetry.metrics"),
            Some(CvarValue::Bool(true))
        );
    });
}

/// Writing `pml.eager_limit` mid-run changes protocol selection for the
/// very next send: the same message length goes eager before the write and
/// rendezvous after it.
#[test]
fn eager_limit_write_flips_protocol_at_runtime() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = Universe::paper_testbed(stack);
    let metrics: Rc<qsim::Local<Vec<openmpi_core::Metrics>>> =
        Rc::new(qsim::Local::new(Vec::new()));
    let m2 = metrics.clone();
    uni.run_world(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 1024; // below the default eager limit
        let buf = mpi.alloc(len);
        if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, len);
            openmpi_core::cvar_write(mpi.endpoint(), "pml.eager_limit", CvarValue::U64(0)).unwrap();
            mpi.send(&w, 1, 1, &buf, len);
            m2.lock().push(mpi.endpoint().metrics_snapshot());
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            mpi.recv(&w, 0, 1, &buf, len);
        }
        mpi.free(buf);
    });
    let m = metrics.lock();
    assert_eq!(m.len(), 1);
    assert_eq!(m[0].counters.eager_sent, 1, "first send below the limit");
    assert_eq!(m[0].counters.rndv_sent, 1, "second send after limit drop");
}

/// A clean watchdog-armed run: no stalls, and the cluster-wide pvar
/// aggregation agrees exactly with the per-rank metrics totals from the
/// same run.
#[test]
fn clean_run_zero_stalls_and_pvar_totals_match_metrics() {
    use ompi_bench::measure::{introspect_pingpong, Setup};

    let setup = Setup::paper(StackConfig::default());
    let (telemetry, report) = introspect_pingpong(&setup, 4, 16 << 10, 6, 32);

    assert_eq!(report.stalls, 0, "clean run must not stall");
    assert!(report.diagnostics.is_empty());
    assert_eq!(report.cluster.ranks, 4);
    assert_eq!(report.snapshots.len(), 4);

    // The aggregation and the metrics plane come from the same run: sums
    // must agree counter for counter.
    type Counter = fn(&openmpi_core::Metrics) -> u64;
    let checks: [(&str, Counter); 5] = [
        ("pml.eager_sent", |m| m.counters.eager_sent),
        ("pml.rndv_sent", |m| m.counters.rndv_sent),
        ("pml.recvs_posted", |m| m.counters.recvs_posted),
        ("rdma.bytes", |m| m.counters.rdma_bytes),
        ("progress.iterations", |m| m.counters.progress_iterations),
    ];
    for (pvar, counter) in checks {
        let agg = report.cluster.get(pvar).unwrap_or_else(|| {
            panic!("{pvar} aggregated");
        });
        let expect: u64 = telemetry.per_rank.iter().map(counter).sum();
        assert_eq!(agg.sum, expect, "{pvar} cluster sum");
        let max: u64 = telemetry.per_rank.iter().map(counter).max().unwrap();
        let min: u64 = telemetry.per_rank.iter().map(counter).min().unwrap();
        assert_eq!(agg.max, max, "{pvar} cluster max");
        assert_eq!(agg.min, min, "{pvar} cluster min");
    }

    // Per-rank snapshots match the per-rank metrics too.
    for (rank, snap) in report.snapshots.iter().enumerate() {
        assert_eq!(snap.rank, rank);
        assert_eq!(
            snap.get("pml.rndv_sent").unwrap(),
            telemetry.per_rank[rank].counters.rndv_sent,
            "rank {rank} snapshot"
        );
        assert_eq!(snap.get("watchdog.stalls_detected"), Some(0));
        assert!(snap.get("watchdog.scans").unwrap() > 0, "watchdog armed");
    }

    // Rank 0 drives three peers in this ping-pong; it must surface as the
    // straggler of the aggregation.
    assert_eq!(report.cluster.straggler, Some(0));

    // The emitted JSON document carries the headline numbers.
    let json = report.to_json();
    assert!(json.contains("\"stalls\":0"));
    assert!(json.contains("\"straggler\":0"));
}
