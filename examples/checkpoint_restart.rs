//! Checkpoint/restart — the paper's fault-tolerance motif, end to end.
//!
//! Open MPI's dynamic process management exists so jobs can checkpoint,
//! die, and restart (paper §3/§4.1). This example runs a distributed heat
//! stencil halfway, collectively checkpoints every rank's block to the
//! parallel file system, tears the whole world down (every Elan4 context
//! is released), then launches a **new** world — fresh processes, fresh
//! dynamically claimed contexts — which restores the checkpoint and
//! finishes the computation. The result matches an uninterrupted run
//! exactly.
//!
//! ```text
//! cargo run --release --example checkpoint_restart
//! ```

use ompi_apps::stencil::{self, StencilConfig};
use ompi_io::{File, Pfs, PfsConfig};
use openmpi_core::{Placement, StackConfig, Universe};

const RANKS: usize = 4;

fn main() {
    let cfg = StencilConfig {
        rows: 64,
        cols: 32,
        steps: 30,
        ..Default::default()
    };
    // Reference: one uninterrupted 30-step run.
    let reference = stencil::serial_reference(&cfg);

    let universe = Universe::paper_testbed(StackConfig::best());
    let pfs = Pfs::new(PfsConfig::default());

    // ---- Phase 1: run the first 15 steps, checkpoint, and exit. ----
    let phase1 = StencilConfig {
        steps: 15,
        ..cfg.clone()
    };
    let p1 = pfs.clone();
    universe.run_world(RANKS, Placement::RoundRobin, move |mpi| {
        let world = mpi.world();
        let result = stencil::run(&mpi, &world, &phase1);
        // Collective checkpoint: every rank deposits its rows.
        let f = File::open(&mpi, &p1, &world, "stencil.ckpt");
        let bytes: Vec<u8> = result.block.iter().flat_map(|v| v.to_le_bytes()).collect();
        let buf = mpi.alloc(bytes.len());
        mpi.write(&buf, 0, &bytes);
        f.write_all(&mpi, 0, &buf, bytes.len());
        if mpi.rank() == 0 {
            println!(
                "[{}] phase 1 checkpointed {} bytes after 15 steps; world exits",
                mpi.now(),
                f.len()
            );
        }
        f.close(&mpi);
        mpi.free(buf);
        // The Mpi handle drops here: finalize + context disjoin.
    });
    // The first world is completely gone; its contexts are back in the
    // capability.
    for node in 0..8 {
        assert_eq!(universe.cluster.mem_in_use(node), 0);
    }

    // ---- Phase 2: a brand-new world restores and finishes. ----
    let phase2 = StencilConfig {
        steps: 15,
        ..cfg.clone()
    };
    let p2 = pfs.clone();
    let (_, blocks) = universe.run_ranks(RANKS, Placement::RoundRobin, move |mpi| {
        let world = mpi.world();
        let me = mpi.rank();
        let (_start, rows_here) = stencil::rows_of(&phase2, me, RANKS);
        let block_bytes = rows_here * phase2.cols * 8;

        // Restore this rank's block from the checkpoint.
        let f = File::open(&mpi, &p2, &world, "stencil.ckpt");
        let buf = mpi.alloc(block_bytes);
        let got = f.read_all(&mpi, 0, &buf, block_bytes);
        assert_eq!(got, block_bytes, "checkpoint truncated");
        let restored: Vec<f64> = mpi
            .read(&buf, 0, block_bytes)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if me == 0 {
            println!(
                "[{}] phase 2 restored the checkpoint in a fresh world",
                mpi.now()
            );
        }

        // Continue the remaining 15 steps from the restored state.
        let result = stencil::run_from(&mpi, &world, &phase2, restored);
        f.close(&mpi);
        mpi.free(buf);
        result.block
    });

    // Verify against the uninterrupted reference.
    let assembled: Vec<f64> = blocks.into_iter().flatten().collect();
    assert_eq!(assembled.len(), reference.len());
    for (i, (a, b)) in assembled.iter().zip(&reference).enumerate() {
        assert!(
            (a - b).abs() < 1e-12,
            "cell {i}: restarted {a} vs uninterrupted {b}"
        );
    }
    println!("restart matches the uninterrupted 30-step run bit for bit ✓");
}
