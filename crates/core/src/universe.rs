//! The universe: the shared simulated machine plus everything needed to
//! launch MPI worlds on it (and spawn further jobs dynamically).

use std::cell::Cell;
use std::rc::Rc;

use elan4::{Cluster, NicConfig};
use ompi_rte::{ProcName, Rte, RteConfig};
use qsim::Simulation;
use qsnet::FabricConfig;

use crate::comm::{register_comm, Communicator};
use crate::config::StackConfig;
use crate::endpoint::{Endpoint, Transports};
use crate::mpi::Mpi;
use crate::ptl_tcp::{TcpConfig, TcpNet};

/// Where to place ranks on the simulated cluster.
#[derive(Clone, Debug)]
pub enum Placement {
    /// Rank `r` on node `r % nodes` (one rank per node up to the node count).
    RoundRobin,
    /// Explicit node per rank.
    Nodes(Vec<usize>),
}

impl Placement {
    /// The node `rank` is placed on.
    pub fn node_of(&self, rank: usize, nodes: usize) -> usize {
        match self {
            Placement::RoundRobin => rank % nodes,
            Placement::Nodes(v) => v[rank],
        }
    }
}

/// Shared machine + configuration; cheap to clone via `Rc`.
pub struct Universe {
    /// The simulated machine.
    pub cluster: Rc<Cluster>,
    /// The runtime environment.
    pub rte: Rc<Rte>,
    /// The management Ethernet for the TCP PTL.
    pub tcp_net: Rc<TcpNet>,
    /// Stack configuration every launched rank uses.
    pub cfg: StackConfig,
    /// Transports every launched rank activates.
    pub transports: Transports,
    next_ctx: Cell<u32>,
}

impl Universe {
    /// Build a universe over a custom machine and stack configuration.
    pub fn new(
        nic: NicConfig,
        fabric: FabricConfig,
        cfg: StackConfig,
        transports: Transports,
    ) -> Rc<Universe> {
        cfg.validate();
        let nodes = fabric.nodes;
        let cluster = Cluster::new(nic, fabric);
        Rc::new(Universe {
            cluster,
            rte: Rte::new(RteConfig::default()),
            tcp_net: TcpNet::new(TcpConfig::default(), nodes),
            cfg,
            transports,
            next_ctx: Cell::new(0),
        })
    }

    /// Default machine: the paper's 8-node QS-8A testbed, Elan4 only.
    pub fn paper_testbed(cfg: StackConfig) -> Rc<Universe> {
        Universe::new(
            NicConfig::default(),
            FabricConfig::default(),
            cfg,
            Transports::default(),
        )
    }

    /// Allocate a (p2p, collective) context-id pair, globally unique.
    pub fn alloc_ctx_pair(&self) -> (u32, u32) {
        let base = self.next_ctx.get();
        self.next_ctx.set(base + 2);
        (base, base + 1)
    }

    /// Launch an MPI world of `n` ranks; each runs `entry`. Returns one slot
    /// per rank, which receives the rank's return value when its body
    /// returns (the simulation must be driven to completion by the caller).
    pub fn launch_world<T: 'static>(
        self: &Rc<Self>,
        sim: &Simulation,
        n: usize,
        placement: Placement,
        entry: impl Fn(Mpi) -> T + 'static,
    ) -> Vec<Rc<Cell<Option<T>>>> {
        let job = self.rte.create_job(n, None);
        let (ctx, coll_ctx) = self.alloc_ctx_pair();
        let entry = Rc::new(entry);
        // One cell per rank: a store indexed into one shared slice from the
        // rank's body raised a 256-rank world's peak RSS by ~3.5 KiB a rank.
        let slots: Vec<Rc<Cell<Option<T>>>> = (0..n).map(|_| Rc::new(Cell::new(None))).collect();
        let nodes = self.cluster.nodes();
        let group: Rc<[ProcName]> = (0..n).map(|rank| ProcName { job, rank }).collect();
        for (rank, out) in slots.iter().enumerate() {
            let node = placement.node_of(rank, nodes);
            let uni = self.clone();
            let entry = entry.clone();
            let out = out.clone();
            let group = group.clone();
            sim.spawn(&format!("rank{rank}"), move |p| {
                let name = ProcName { job, rank };
                let ep = Endpoint::init(
                    &p,
                    name,
                    node,
                    uni.cfg.clone(),
                    uni.transports.clone(),
                    uni.cluster.clone(),
                    uni.rte.clone(),
                    Some(uni.tcp_net.clone()),
                );
                ep.start_progress(&p);
                let world = Communicator {
                    ctx,
                    coll_ctx,
                    group,
                    my_rank: rank,
                    // Launched synchronously: the global virtual address
                    // space exists, so hardware collectives are available.
                    hw_coll: true,
                };
                register_comm(&p, &ep, &world);
                // Everyone must have registered before traffic flows.
                uni.rte.barrier(&p, job);
                let mpi = Mpi::new(p, ep, uni, world);
                out.set(Some(entry(mpi)));
            });
        }
        slots
    }

    /// Build a simulation, launch one world of `n` ranks, run it to
    /// completion, and return the kernel's report with each rank's return
    /// value at its world-rank index.
    pub fn run_ranks<T: 'static>(
        self: &Rc<Self>,
        n: usize,
        placement: Placement,
        entry: impl Fn(Mpi) -> T + 'static,
    ) -> (qsim::Report, Vec<T>) {
        let sim = Simulation::new();
        let slots = self.launch_world(&sim, n, placement, entry);
        let report = match sim.run() {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        };
        let values = slots
            .iter()
            .enumerate()
            .map(|(r, v)| {
                v.take()
                    .unwrap_or_else(|| panic!("rank {r} returned no value"))
            })
            .collect();
        (report, values)
    }

    /// [`Universe::run_ranks`] for a body that returns nothing.
    pub fn run_world(
        self: &Rc<Self>,
        n: usize,
        placement: Placement,
        entry: impl Fn(Mpi) + 'static,
    ) -> qsim::Report {
        self.run_ranks(n, placement, entry).0
    }
}
