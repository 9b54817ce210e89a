//! # openmpi-core — the Open MPI communication stack over simulated Elan4
//!
//! The paper's contribution, reproduced in Rust on top of the simulated
//! Quadrics hardware:
//!
//! - [`hdr`] — the 64-byte match/control header (vs. MPICH-QsNetII's 32).
//! - [`state`] + [`proto`] — the PML: request management, FIFO matching
//!   with wildcards, per-peer sequence ordering, and the long-message
//!   protocols: **RDMA write + FIN** and **RDMA read + FIN_ACK** (paper
//!   Figs. 3 & 4), optionally with the control message *chained* to the
//!   final RDMA, plus the **shared completion queue** built from chained
//!   QDMAs (Fig. 6).
//! - [`endpoint`] — per-rank NIC resources and the four progress engines
//!   (polling, interrupt, one-thread, two-thread; paper §6.4/Table 1).
//! - [`ptl_tcp`] — the TCP/IP reference transport, usable concurrently with
//!   Elan4 for multi-network striping.
//! - [`mpi`] + [`comm`] + [`coll`] — an MPI-2-flavoured API: communicators,
//!   wildcards, nonblocking requests, split/dup, tree collectives, and
//!   dynamic process spawn over the Elan4 capability (paper §4.1).
//! - [`universe`] — glue that launches MPI worlds onto a simulated cluster.
//!
//! Every protocol knob the paper evaluates lives in [`StackConfig`].

#![warn(missing_docs)]

pub mod coll;
pub mod comm;
pub mod config;
pub mod critpath;
pub mod endpoint;
pub mod flight;
pub mod hdr;
pub mod introspect;
pub mod metrics;
pub mod mpi;
pub mod peer;
pub mod proto;
pub mod ptl;
pub mod ptl_tcp;
pub mod regcache;
pub mod rma;
pub mod state;
pub mod trace;
pub mod universe;

pub use coll::ReduceOp;
pub use comm::Communicator;
pub use config::{
    CompletionMode, CvarDef, CvarValue, HostConfig, ProgressMode, RdmaScheme, StackConfig, CVARS,
};
pub use critpath::{BucketStats, CritPathReport, MsgPath};
pub use endpoint::{Endpoint, Transports};
pub use introspect::{cvar_read, cvar_write, pvar_snapshot, PvarSnapshot, StallDiagnostic};
pub use metrics::{CollOp, Counters, Histogram, Metrics};
pub use mpi::{Mpi, PersistentRequest, Status, ANY_SOURCE, ANY_TAG};
pub use proto::{ReqKind, Request};
pub use ptl::{PtlInfo, PtlKind, PtlRegistry, PtlStage, PtlTraffic};
pub use ptl_tcp::{TcpConfig, TcpNet};
pub use regcache::{RegCache, RegStats};
pub use rma::Window;
pub use state::MpiErrClass;
pub use trace::{chrome_trace_json, TraceEvent, TraceLog};
pub use universe::{Placement, Universe};

#[cfg(test)]
mod tests;
