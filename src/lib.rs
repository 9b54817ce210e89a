//! # openmpi-elan4-repro
//!
//! Umbrella crate for the reproduction of *"Design and Implementation of
//! Open MPI over Quadrics/Elan4"* (Yu, Woodall, Graham, Panda; 2004/2005).
//!
//! The stack, bottom up:
//!
//! - [`qsim`] — deterministic discrete-event simulation kernel (virtual time).
//! - [`qsnet`] — QsNetII fabric model: quaternary fat tree, Elite4 switches,
//!   link bandwidth/occupancy.
//! - [`elan4`] — Elan4 NIC model: capabilities/VPIDs, MMU + E4 addresses,
//!   command queues, QDMA, RDMA read/write, counted + chained events,
//!   interrupts, and the Tport NIC-side tag-matching engine.
//! - [`ompi_rte`] — run-time environment: job launch, out-of-band channel,
//!   modex, dynamic process management support.
//! - [`ompi_datatype`] — MPI datatype engine (typemaps + pack/unpack
//!   convertor).
//! - [`openmpi_core`] — the paper's contribution: the PML message-management
//!   layer, the PTL transport framework, the PTL/Elan4 transport (QDMA eager,
//!   RDMA read/write rendezvous schemes, chained-event completion, shared
//!   completion queue, asynchronous progress), a TCP/IP reference PTL, and an
//!   MPI-2-flavoured user API.
//! - [`mpich_qsnet`] — the MPICH-QsNetII comparator (NIC tag matching via
//!   Tport, 32-byte headers, NIC-side pipelining).
//! - [`ompi_apps`] — mini-applications (stencils, conjugate gradient,
//!   parallel sample sort) verified against serial references.
//! - [`ompi_io`] — MPI-IO-style parallel I/O over a simulated striped file
//!   system (the "scalable I/O" goal from the paper's introduction).
//!
//! ## Example
//!
//! ```
//! use openmpi_core::{Placement, StackConfig, Universe};
//!
//! // The paper's testbed: 8 nodes, quaternary fat tree, Elan4 NICs.
//! let universe = Universe::paper_testbed(StackConfig::best());
//! // Each rank's return value comes back at its rank's index.
//! let (_report, bufs) = universe.run_ranks(2, Placement::RoundRobin, |mpi| {
//!     let world = mpi.world();
//!     let buf = mpi.alloc(1024);
//!     if mpi.rank() == 0 {
//!         mpi.write(&buf, 0, &[42u8; 1024]);
//!         mpi.send(&world, 1, 0, &buf, 1024);
//!     } else {
//!         mpi.recv(&world, 0, 0, &buf, 1024);
//!     }
//!     mpi.read(&buf, 0, 1024)
//! });
//! assert_eq!(bufs[1], vec![42u8; 1024]);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]

pub use elan4;
pub use mpich_qsnet;
pub use ompi_apps;
pub use ompi_datatype;
pub use ompi_io;
pub use ompi_rte;
pub use openmpi_core;
pub use qsim;
pub use qsnet;
