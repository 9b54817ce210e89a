//! The three workloads. Each is generated in full from its seed before
//! the simulation starts; the ranks only read the plan.

pub mod coll256;
pub mod incast;
pub mod pingpong;

use openmpi_core::StackConfig;
use qsnet::FabricConfig;

use crate::harness::Rank;

/// Workload names, in the order the docs list them.
pub const NAMES: [&str; 3] = ["pingpong", "coll256", "incast"];

/// A generated workload.
pub enum Plan {
    /// See [`pingpong`].
    Pingpong(pingpong::Plan),
    /// See [`coll256`].
    Coll256(coll256::Plan),
    /// See [`incast`].
    Incast(incast::Plan),
}

impl Plan {
    /// Generate workload `name` from `seed` with `blocks` blocks of timed
    /// ops (`None`: the workload's standard size). Unknown names give `None`.
    pub fn new(name: &str, seed: u64, blocks: Option<usize>) -> Option<Plan> {
        Some(match name {
            "pingpong" => Plan::Pingpong(pingpong::plan(seed, blocks.unwrap_or(pingpong::BLOCKS))),
            "coll256" => Plan::Coll256(coll256::plan(seed, blocks.unwrap_or(coll256::BLOCKS))),
            "incast" => Plan::Incast(incast::plan(seed, blocks.unwrap_or(incast::BLOCKS))),
            _ => return None,
        })
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        match self {
            Plan::Pingpong(_) => pingpong::RANKS,
            Plan::Coll256(_) => coll256::RANKS,
            Plan::Incast(_) => incast::RANKS,
        }
    }

    /// Ops in the timed phase.
    pub fn ops(&self) -> usize {
        match self {
            Plan::Pingpong(p) => p.sizes.len(),
            Plan::Coll256(p) => p.ops.len(),
            Plan::Incast(p) => p.msgs.len(),
        }
    }

    /// Ops per block of the wall-clock-per-op samples.
    pub fn block_ops(&self) -> usize {
        match self {
            Plan::Pingpong(_) => pingpong::BLOCK_OPS,
            Plan::Coll256(_) => 1,
            Plan::Incast(_) => incast::BLOCK_OPS,
        }
    }

    /// One thread handoff in a ring of [`Plan::ranks`] threads on a quiet
    /// shared 2-vCPU Intel Xeon VM, ns: the reference the wall metrics are
    /// scaled to (see `host`), so scaled times stay close to that VM's.
    pub fn handoff_ref_ns(&self) -> f64 {
        match self {
            Plan::Pingpong(_) => 1200.0,
            Plan::Coll256(_) => 4500.0,
            Plan::Incast(_) => 3500.0,
        }
    }

    /// The stack every rank runs.
    pub fn stack(&self) -> StackConfig {
        match self {
            Plan::Pingpong(_) => StackConfig::best(),
            Plan::Coll256(_) => StackConfig {
                coll_nic_offload: true,
                ..StackConfig::best()
            },
            Plan::Incast(_) => StackConfig {
                flow_enable: true,
                ..StackConfig::best()
            },
        }
    }

    /// The fabric: the paper's 8-node testbed, or one node per rank for
    /// `coll256`.
    pub fn fabric(&self) -> FabricConfig {
        match self {
            Plan::Coll256(_) => FabricConfig {
                nodes: coll256::RANKS,
                ..FabricConfig::default()
            },
            _ => FabricConfig::default(),
        }
    }

    /// One rank's warm-up and timed phase.
    pub fn body(&self, r: &mut Rank) {
        match self {
            Plan::Pingpong(p) => pingpong::body(p, r),
            Plan::Coll256(p) => coll256::body(p, r),
            Plan::Incast(p) => incast::body(p, r),
        }
    }
}
