//! Concurrent communication over multiple interfaces — the paper's §8
//! future work, built on the PML's ability to stripe one message across
//! PTL modules:
//!
//! 1. **Multi-rail**: two Elan4 rails (each in its own PCI-X slot) carry
//!    halves of every bulk transfer.
//! 2. **Multi-network**: an Elan4 rail and the TCP/IP PTL carry
//!    bandwidth-weighted shares of the same message.
//!
//! ```text
//! cargo run --release --example multirail_multinet
//! ```

use elan4::NicConfig;
use openmpi_core::{Placement, RdmaScheme, StackConfig, Transports, Universe};
use qsnet::FabricConfig;

fn bandwidth(rails: usize, tcp: bool, len: usize) -> f64 {
    let fabric = FabricConfig {
        rails: 2,
        ..Default::default()
    };
    let mut stack = StackConfig::best();
    // The write scheme covers push transports, so mixed Elan+TCP works.
    stack.scheme = RdmaScheme::Write;
    let uni = Universe::new(
        NicConfig::default(),
        fabric,
        stack,
        Transports {
            elan_rails: rails,
            tcp,
        },
    );
    let (_, out) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        let buf = mpi.alloc(len);
        let ack = mpi.alloc(1);
        mpi.barrier(&w);
        let t0 = mpi.now();
        let reps = 4;
        for _ in 0..reps {
            if mpi.rank() == 0 {
                mpi.send(&w, 1, 0, &buf, len);
                mpi.recv(&w, 1, 1, &ack, 0);
            } else {
                mpi.recv(&w, 0, 0, &buf, len);
                mpi.send(&w, 0, 1, &ack, 0);
            }
        }
        let ns = (mpi.now() - t0).as_ns();
        ((len * reps) as f64 / (ns as f64 / 1e9) / 1e6) as u64
    });
    out[0] as f64
}

fn main() {
    let len = 1 << 20;
    println!("1 MB transfer bandwidth on the simulated testbed:\n");
    let one = bandwidth(1, false, len);
    println!("  one Elan4 rail          : {one:>7.0} MB/s");
    let two = bandwidth(2, false, len);
    println!(
        "  two Elan4 rails         : {two:>7.0} MB/s  ({:.2}x)",
        two / one
    );
    let tcp = bandwidth(0, true, len);
    println!("  TCP/IP alone            : {tcp:>7.0} MB/s");
    let both = bandwidth(1, true, len);
    println!(
        "  Elan4 + TCP concurrently: {both:>7.0} MB/s  (+{:.0} over Elan alone)",
        both - one
    );

    assert!(two > one * 1.3, "multirail should scale");
    assert!(both > one, "adding TCP should add bandwidth");
    println!("\nPML striping schedules each message across every available PTL,");
    println!("exactly as the paper's §2.1 scheduling heuristics describe.");
}
