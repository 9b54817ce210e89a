//! Protocol tracing: watch one rendezvous unfold.
//!
//! Enables `StackConfig::trace` and prints the receiver's and sender's
//! protocol event timelines for a single 8 KB message — the virtual-time
//! version of the paper's Fig. 4 (rendezvous with RDMA read + FIN_ACK).
//!
//! ```text
//! cargo run --release --example trace_protocol
//! ```

use std::rc::Rc;

use openmpi_core::{Placement, StackConfig, Universe};
use qsim::Local;

fn main() {
    let mut cfg = StackConfig::best();
    cfg.trace = true;
    #[allow(clippy::type_complexity)]
    let traces: Rc<Local<Vec<(usize, Vec<String>)>>> = Rc::new(Local::new(Vec::new()));
    let t2 = traces.clone();

    let universe = Universe::paper_testbed(cfg);
    universe.run_world(2, Placement::RoundRobin, move |mpi| {
        let world = mpi.world();
        let buf = mpi.alloc(8192);
        if mpi.rank() == 0 {
            mpi.write(&buf, 0, &[0x42u8; 8192]);
            mpi.send(&world, 1, 7, &buf, 8192);
        } else {
            mpi.recv(&world, 0, 7, &buf, 8192);
            assert_eq!(mpi.read(&buf, 0, 8), vec![0x42u8; 8]);
        }
        let lines = openmpi_core::trace::dump(&mpi.endpoint().trace.lock());
        t2.lock().push((mpi.rank(), lines));
    });

    let mut traces = traces.lock().clone();
    traces.sort_by_key(|(r, _)| *r);
    for (rank, lines) in traces {
        let role = if rank == 0 { "sender" } else { "receiver" };
        println!("\n=== rank {rank} ({role}) ===");
        for l in lines {
            println!("  {l}");
        }
    }
    println!("\nRead the receiver timeline against the paper's Fig. 4:");
    println!("  Matched -> RdmaIssued(read) -> DmaDone -> Completed,");
    println!("with the FIN_ACK chained to the final RDMA by the NIC.");
}
