//! # elan4 — simulated Quadrics Elan4 NIC
//!
//! A from-scratch model of the pieces of `libelan4` the paper's transport
//! uses, driven by the deterministic `qsim` kernel and the `qsnet` fabric:
//!
//! - **Capability & contexts** — processes claim a context (and thus a
//!   [`Vpid`]) on a node at any time: the dynamic-join primitive the paper
//!   needs for MPI-2 dynamic process management.
//! - **Memory & MMU** — host buffers live in per-node arenas; the NIC can
//!   only touch memory that has been mapped to an [`E4Addr`] through the
//!   context's [`mmu::Mmu`] (paper §4.2's address-format constraint).
//! - **QDMA** — queued DMA of ≤ 2 KB messages into a peer's receive queue
//!   ([`RxQueue`]) with host-event notification and optional interrupts.
//! - **RDMA** — read and write DMA between mapped buffers, chunk-pipelined
//!   across host bus / wire / host bus.
//! - **Events** — counted completion events; an event may carry a *chained*
//!   QDMA launched by the NIC when it fires (the chained-event mechanism
//!   behind the paper's FIN/FIN_ACK optimization and shared completion
//!   queue). Each context keeps its events in a table of slots:
//!   [`ElanEvent::free`] hands a slot back and [`ElanCtx::event_create`]
//!   reuses a free slot before it grows the table, so the table holds no
//!   more slots than the most events ever live at once. A slot's
//!   generation goes up on every free, and a local completion (an RDMA's
//!   `done`, a QDMA's or broadcast's `local_event`) carries the generation
//!   of the [`EventRef`] it was posted with, so a completion armed for an
//!   earlier occupant is ignored. Remote event writes address a slot by
//!   its bare [`EventId`], so only events that are never freed (the
//!   standing events of NIC collective programs) may be their targets.
//! - **Tport** — the NIC-side tag-matching engine used by the
//!   MPICH-QsNetII comparator.
//!
//! Timing constants live in [`NicConfig`]; see DESIGN.md §5.

#![warn(missing_docs)]

mod alloc;
mod cluster;
mod config;
mod ctx;
pub mod mmu;
mod tport;
mod types;

pub use cluster::{Cluster, ClusterStats, NicReduce, Payload, QdmaSpec, QdmaTarget};
pub use config::NicConfig;
pub use ctx::{ElanCtx, ElanEvent, RxQueue};
pub use tport::{Tport, TportEnvelope, TportRecv, TportSend, TPORT_ANY_SRC, TPORT_ANY_TAG};
pub use types::{DmaKind, E4Addr, EventId, EventRef, HostAddr, HostBuf, QueueId, Vpid};

#[cfg(test)]
mod tests;
