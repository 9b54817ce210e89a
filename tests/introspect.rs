//! MPI_T-style introspection: the cvar registry (read, validated write,
//! runtime effect), the pvar snapshot/aggregation plane, and a clean
//! watchdog-armed run producing zero stalls with pvar totals that agree
//! with the metrics plane.

use openmpi_core::introspect::{cvar_default, registry_json};
use openmpi_core::{cvar_read, cvar_write, CvarValue, Placement, StackConfig, Universe, CVARS};

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

        let json = registry_json(ep);
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

/// Every row of the knob table on a 1-rank default endpoint: it reads its
/// default, a writable row takes its own value back and refuses a value of
/// the wrong type, a read-only row refuses every write, and the first value
/// past either end of a row's range is refused both by a runtime write and
/// by `StackConfig::check` — one range check for init and for writes.
#[test]
fn every_cvar_row_round_trips() {
    let uni = Universe::paper_testbed(StackConfig::default());
    uni.run_world(1, Placement::RoundRobin, |mpi| {
        let ep = mpi.endpoint();
        let defaults = StackConfig::default();
        assert_eq!(cvar_default("no.such.cvar"), None);
        for d in CVARS {
            let default = d.get(&defaults);
            assert_eq!(cvar_default(d.name), Some(default.clone()), "{}", d.name);
            // The one live value that differs from its default: a 0 credit
            // window resolves at init (1 rank: clamp(64 / 1, 2, 16)).
            let live = if d.name == "flow.credits" {
                CvarValue::U64(16)
            } else {
                default
            };
            assert_eq!(cvar_read(ep, d.name), Some(live.clone()), "{}", d.name);

            let wrong = match live {
                CvarValue::Bool(_) => CvarValue::U64(1),
                _ => CvarValue::Bool(true),
            };
            if d.writable {
                cvar_write(ep, d.name, live.clone()).unwrap();
                assert_eq!(cvar_read(ep, d.name), Some(live.clone()), "{}", d.name);
                let err = cvar_write(ep, d.name, wrong).unwrap_err();
                assert!(err.contains("type mismatch"), "{}: {err}", d.name);
            } else {
                for v in [live.clone(), wrong] {
                    let err = cvar_write(ep, d.name, v).unwrap_err();
                    assert!(err.contains("read-only"), "{}: {err}", d.name);
                }
            }

            let Some((lo, hi)) = d.range else { continue };
            for (inside, outside) in [(lo, lo.checked_sub(1)), (hi, hi.checked_add(1))] {
                if inside == u64::MAX {
                    continue; // no upper bound
                }
                let mut cfg = StackConfig::default();
                d.set(&mut cfg, &CvarValue::U64(inside)).unwrap();
                assert_eq!(cfg.check(), Ok(()), "{} = {inside}", d.name);
                let Some(x) = outside else { continue };
                if d.writable {
                    let err = cvar_write(ep, d.name, CvarValue::U64(x)).unwrap_err();
                    assert!(err.contains("out of range"), "{}: {err}", d.name);
                }
                d.set(&mut cfg, &CvarValue::U64(x)).unwrap();
                if d.name == "flow.credits" && x == 0 {
                    // A config may ask for the auto-scaled window; a write
                    // may not.
                    assert_eq!(cfg.check(), Ok(()));
                } else {
                    let err = cfg.check().unwrap_err();
                    assert!(err.contains("out of range"), "{}: {err}", d.name);
                }
            }
            assert_eq!(cvar_read(ep, d.name), Some(live), "{}", d.name);
        }
    });
}

/// Turning flow control on at runtime works on a config that left the
/// credit window at its auto-scaled default: the window resolves at init
/// whether or not flow control starts on, so eager sends find credits
/// instead of parking forever.
#[test]
fn flow_enable_write_finds_a_resolved_credit_window() {
    let stack = StackConfig {
        metrics: true,
        ..StackConfig::best()
    };
    let uni = Universe::paper_testbed(stack);
    let (_, consumed) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let ep = mpi.endpoint();
        // 2 ranks: clamp(64 / 1, 2, 16).
        assert_eq!(cvar_read(ep, "flow.credits"), Some(CvarValue::U64(16)));
        cvar_write(ep, "flow.enable", CvarValue::Bool(true)).unwrap();
        assert_eq!(cvar_read(ep, "flow.credits"), Some(CvarValue::U64(16)));
        let w = mpi.world();
        mpi.barrier(&w);
        let len = 64;
        let buf = mpi.alloc(len);
        for i in 0..40 {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, i, &buf, len);
            } else {
                mpi.recv(&w, 0, i, &buf, len);
            }
        }
        mpi.free(buf);
        (mpi.rank() == 0).then(|| {
            mpi.endpoint()
                .metrics_snapshot()
                .counters
                .flow_credits_consumed
        })
    });
    // The 40 sends and rank 0's one barrier message each took a credit.
    assert_eq!(
        consumed.into_iter().flatten().collect::<Vec<_>>(),
        vec![41],
        "every send went through the window"
    );
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
    let (_, metrics) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let len = 1024; // below the default eager limit
        let buf = mpi.alloc(len);
        let sender = if mpi.rank() == 0 {
            mpi.send(&w, 1, 0, &buf, len);
            openmpi_core::cvar_write(mpi.endpoint(), "pml.eager_limit", CvarValue::U64(0)).unwrap();
            mpi.send(&w, 1, 1, &buf, len);
            Some(mpi.endpoint().metrics_snapshot())
        } else {
            mpi.recv(&w, 0, 0, &buf, len);
            mpi.recv(&w, 0, 1, &buf, len);
            None
        };
        mpi.free(buf);
        sender
    });
    let m: Vec<_> = metrics.into_iter().flatten().collect();
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
