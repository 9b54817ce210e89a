//! # ompi-rte — run-time environment
//!
//! The Open MPI Run-Time Environment (ORTE) pieces the paper leans on:
//! process naming, the out-of-band *modex* (module exchange) through which
//! PTL modules publish their network addresses at `MPI_Init` time, job-wide
//! barriers, and the bookkeeping for MPI-2 dynamic process management
//! (`MPI_Comm_spawn`): "Open MPI Run-Time Environment (RTE) can help the
//! newly created processes to establish connections with the existing
//! processes" (paper §4.1).
//!
//! The out-of-band channel is modelled as a management network separate
//! from the Quadrics fabric: each operation costs [`RteConfig::oob_latency`]
//! of virtual time, which only affects startup/spawn paths, never the
//! data-path benchmarks.

#![warn(missing_docs)]

pub mod pvar;

pub use pvar::{ClusterReport, PvarAgg};

use std::rc::Rc;

use qsim::{Dur, FastMap, Local, Proc, Signal};

/// Identifies a launched job (an `MPI_COMM_WORLD` or a spawned child world).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u32);

/// A process name: job + rank within the job.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcName {
    /// The job this process belongs to.
    pub job: JobId,
    /// Rank within the job.
    pub rank: usize,
}

/// RTE timing model.
#[derive(Clone, Debug)]
pub struct RteConfig {
    /// One out-of-band operation (publish, lookup, barrier message) over the
    /// management network.
    pub oob_latency: Dur,
}

impl Default for RteConfig {
    fn default() -> Self {
        RteConfig {
            oob_latency: Dur::from_us(30),
        }
    }
}

struct BarrierState {
    generation: u64,
    arrived: usize,
    waiters: Vec<Signal>,
}

struct JobState {
    size: usize,
    parent: Option<ProcName>,
    modex: FastMap<(usize, String), Vec<u8>>,
    /// Whole-job tables handed out by [`Rte::modex_table`], by key. A new
    /// `modex_put` of the key drops its table.
    tables: FastMap<String, Rc<[Vec<u8>]>>,
    modex_waiters: Vec<Signal>,
    barrier: BarrierState,
}

struct RteInner {
    jobs: FastMap<JobId, JobState>,
    next_job: u32,
}

/// The shared runtime-environment service.
pub struct Rte {
    cfg: RteConfig,
    inner: Local<RteInner>,
}

impl Rte {
    /// A fresh runtime-environment service with no jobs.
    pub fn new(cfg: RteConfig) -> Rc<Rte> {
        Rc::new(Rte {
            cfg,
            inner: Local::new(RteInner {
                jobs: FastMap::default(),
                next_job: 0,
            }),
        })
    }

    /// The timing model in use.
    pub fn cfg(&self) -> &RteConfig {
        &self.cfg
    }

    /// Register a new job of `size` ranks; returns its id. `parent` links a
    /// dynamically spawned child world to the spawning process.
    pub fn create_job(&self, size: usize, parent: Option<ProcName>) -> JobId {
        let mut inner = self.inner.lock();
        let id = JobId(inner.next_job);
        inner.next_job += 1;
        inner.jobs.insert(
            id,
            JobState {
                size,
                parent,
                modex: FastMap::default(),
                tables: FastMap::default(),
                modex_waiters: Vec::new(),
                barrier: BarrierState {
                    generation: 0,
                    arrived: 0,
                    waiters: Vec::new(),
                },
            },
        );
        id
    }

    /// Number of ranks in `job`.
    pub fn job_size(&self, job: JobId) -> usize {
        self.inner.lock().jobs[&job].size
    }

    /// The spawning process, for dynamically created jobs.
    pub fn job_parent(&self, job: JobId) -> Option<ProcName> {
        self.inner.lock().jobs[&job].parent
    }

    /// Publish `(key, value)` for `who` (one OOB message).
    pub fn modex_put(&self, proc: &Proc, who: ProcName, key: &str, value: Vec<u8>) {
        proc.advance(self.cfg.oob_latency);
        let mut inner = self.inner.lock();
        let job = inner.jobs.get_mut(&who.job).expect("unknown job");
        job.modex.insert((who.rank, key.to_string()), value);
        job.tables.remove(key);
        let waiters = std::mem::take(&mut job.modex_waiters);
        drop(inner);
        let sim = proc.sim();
        for w in waiters {
            w.notify(&sim);
        }
    }

    /// Non-blocking lookup.
    pub fn modex_try_get(&self, who: ProcName, key: &str) -> Option<Vec<u8>> {
        let inner = self.inner.lock();
        inner
            .jobs
            .get(&who.job)?
            .modex
            .get(&(who.rank, key.to_string()))
            .cloned()
    }

    /// Blocking lookup: waits (in virtual time) until the peer publishes.
    pub fn modex_get(&self, proc: &Proc, who: ProcName, key: &str) -> Vec<u8> {
        proc.advance(self.cfg.oob_latency);
        loop {
            {
                let mut inner = self.inner.lock();
                let job = inner.jobs.get_mut(&who.job).expect("unknown job");
                if let Some(v) = job.modex.get(&(who.rank, key.to_string())) {
                    return v.clone();
                }
                let sig = proc.signal();
                job.modex_waiters.push(sig.clone());
                drop(inner);
                proc.wait(&sig).expect_signaled();
            }
        }
    }

    /// Every rank's value for `key` in one OOB request, indexed by rank:
    /// waits (in virtual time) until the whole job has published it. The
    /// table is built once and every caller shares the same `Rc`, so a
    /// job fetches its modex in O(1) requests per rank and O(n) memory in
    /// total.
    pub fn modex_table(&self, proc: &Proc, job: JobId, key: &str) -> Rc<[Vec<u8>]> {
        proc.advance(self.cfg.oob_latency);
        loop {
            let mut inner = self.inner.lock();
            let st = inner.jobs.get_mut(&job).expect("unknown job");
            if let Some(table) = st.tables.get(key) {
                return table.clone();
            }
            let rows: Option<Vec<Vec<u8>>> = (0..st.size)
                .map(|rank| st.modex.get(&(rank, key.to_string())).cloned())
                .collect();
            if let Some(rows) = rows {
                let table: Rc<[Vec<u8>]> = rows.into();
                st.tables.insert(key.to_string(), table.clone());
                return table;
            }
            let sig = proc.signal();
            st.modex_waiters.push(sig.clone());
            drop(inner);
            proc.wait(&sig).expect_signaled();
        }
    }

    /// Job-wide barrier over the OOB network (used during `MPI_Init` /
    /// finalize, matching the paper's collective connection setup).
    pub fn barrier(&self, proc: &Proc, job: JobId) {
        proc.advance(self.cfg.oob_latency);
        let sig = proc.signal();
        let release = {
            let mut inner = self.inner.lock();
            let st = inner.jobs.get_mut(&job).expect("unknown job");
            st.barrier.arrived += 1;
            if st.barrier.arrived == st.size {
                st.barrier.arrived = 0;
                st.barrier.generation += 1;
                Some(std::mem::take(&mut st.barrier.waiters))
            } else {
                st.barrier.waiters.push(sig.clone());
                None
            }
        };
        match release {
            Some(waiters) => {
                let sim = proc.sim();
                for w in waiters {
                    w.notify(&sim);
                }
            }
            None => proc.wait(&sig).expect_signaled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Simulation;
    use std::cell::Cell;

    #[test]
    fn modex_put_get_across_processes() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(2, None);
        let got = Rc::new(Local::new(Vec::new()));

        {
            let rte = rte.clone();
            let got = got.clone();
            sim.spawn("r0", move |p| {
                // Get blocks until r1 publishes.
                let v = rte.modex_get(&p, ProcName { job, rank: 1 }, "addr");
                *got.lock() = v;
            });
        }
        {
            let rte = rte.clone();
            sim.spawn("r1", move |p| {
                p.advance(Dur::from_us(100));
                rte.modex_put(&p, ProcName { job, rank: 1 }, "addr", vec![42, 43]);
            });
        }
        sim.run().unwrap();
        assert_eq!(*got.lock(), vec![42, 43]);
    }

    #[test]
    fn modex_table_waits_for_the_job_and_is_shared() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(3, None);
        let got = Rc::new(Local::new(Vec::new()));
        for r in 0..3usize {
            let (rte, got) = (rte.clone(), got.clone());
            sim.spawn(&format!("r{r}"), move |p| {
                p.advance(Dur::from_us(100 * r as u64));
                rte.modex_put(&p, ProcName { job, rank: r }, "ptl", vec![r as u8; r + 1]);
                let t0 = p.now().as_ns();
                let table = rte.modex_table(&p, job, "ptl");
                got.lock().push((r, t0, p.now().as_ns(), table));
            });
        }
        sim.run().unwrap();
        let got = got.lock();
        let last_put = 200_000 + 30_000;
        for (r, t0, t, table) in got.iter() {
            assert_eq!(table.len(), 3);
            for (rank, v) in table.iter().enumerate() {
                assert_eq!(*v, vec![rank as u8; rank + 1]);
            }
            // One OOB hop, or the wait for the last rank's publish.
            assert_eq!(*t, (t0 + 30_000).max(last_put), "rank {r}");
            assert!(Rc::ptr_eq(table, &got[0].3), "one table for the job");
        }
    }

    #[test]
    fn modex_put_drops_the_cached_table() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(1, None);
        let who = ProcName { job, rank: 0 };
        let rte2 = rte.clone();
        sim.spawn("r0", move |p| {
            rte2.modex_put(&p, who, "k", vec![1]);
            let first = rte2.modex_table(&p, job, "k");
            assert!(Rc::ptr_eq(&first, &rte2.modex_table(&p, job, "k")));
            rte2.modex_put(&p, who, "other", vec![9]);
            assert!(Rc::ptr_eq(&first, &rte2.modex_table(&p, job, "k")));
            rte2.modex_put(&p, who, "k", vec![2]);
            let second = rte2.modex_table(&p, job, "k");
            assert_eq!((&*first[0], &*second[0]), (&[1u8][..], &[2u8][..]));
        });
        sim.run().unwrap();
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(3, None);
        let max_t = Rc::new(Cell::new(0));
        let min_t = Rc::new(Cell::new(u64::MAX));
        for r in 0..3usize {
            let rte = rte.clone();
            let max_t = max_t.clone();
            let min_t = min_t.clone();
            sim.spawn(&format!("r{r}"), move |p| {
                p.advance(Dur::from_us(10 * r as u64));
                rte.barrier(&p, job);
                let t = p.now().as_ns();
                max_t.set(max_t.get().max(t));
                min_t.set(min_t.get().min(t));
            });
        }
        sim.run().unwrap();
        // Everyone leaves at the same virtual instant.
        assert_eq!(max_t.get(), min_t.get());
        // Which is no earlier than the last arrival (20us + oob).
        assert!(max_t.get() >= 20_000 + 30_000);
    }

    #[test]
    fn barrier_is_reusable() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(2, None);
        let count = Rc::new(Cell::new(0));
        for r in 0..2usize {
            let rte = rte.clone();
            let count = count.clone();
            sim.spawn(&format!("r{r}"), move |p| {
                for _ in 0..5 {
                    p.advance(Dur::from_us(1 + r as u64));
                    rte.barrier(&p, job);
                    count.set(count.get() + 1);
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(count.get(), 10);
    }

    #[test]
    fn spawned_job_records_parent() {
        let rte = Rte::new(RteConfig::default());
        let world = rte.create_job(4, None);
        let parent = ProcName {
            job: world,
            rank: 2,
        };
        let child = rte.create_job(2, Some(parent));
        assert_ne!(world, child);
        assert_eq!(rte.job_parent(child), Some(parent));
        assert_eq!(rte.job_parent(world), None);
        assert_eq!(rte.job_size(child), 2);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use qsim::{Dur, Simulation};

    #[test]
    fn modex_try_get_is_nonblocking() {
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(1, None);
        let who = ProcName { job, rank: 0 };
        assert!(rte.modex_try_get(who, "missing").is_none());
        let sim = Simulation::new();
        {
            let rte = rte.clone();
            sim.spawn("p", move |p| {
                rte.modex_put(&p, who, "k", vec![9]);
            });
        }
        sim.run().unwrap();
        assert_eq!(rte.modex_try_get(who, "k"), Some(vec![9]));
        assert!(rte.modex_try_get(who, "other").is_none());
    }

    #[test]
    fn jobs_are_isolated() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let a = rte.create_job(2, None);
        let b = rte.create_job(2, None);
        assert_ne!(a, b);
        // Barriers on different jobs do not release each other.
        for (job, delay) in [(a, 0u64), (a, 5), (b, 10), (b, 15)] {
            let rte = rte.clone();
            sim.spawn(&format!("{job:?}-{delay}"), move |p| {
                p.advance(Dur::from_us(delay));
                rte.barrier(&p, job);
            });
        }
        sim.run().unwrap();
        // Keys are namespaced by job.
        let sim2 = Simulation::new();
        {
            let rte = rte.clone();
            sim2.spawn("p", move |p| {
                rte.modex_put(&p, ProcName { job: a, rank: 0 }, "x", vec![1]);
                rte.modex_put(&p, ProcName { job: b, rank: 0 }, "x", vec![2]);
            });
        }
        sim2.run().unwrap();
        assert_eq!(
            rte.modex_try_get(ProcName { job: a, rank: 0 }, "x"),
            Some(vec![1])
        );
        assert_eq!(
            rte.modex_try_get(ProcName { job: b, rank: 0 }, "x"),
            Some(vec![2])
        );
    }

    #[test]
    fn oob_operations_cost_virtual_time() {
        use std::cell::Cell;
        use std::rc::Rc;
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(1, None);
        let t = Rc::new(Cell::new(0));
        {
            let (rte, t) = (rte.clone(), t.clone());
            sim.spawn("p", move |p| {
                rte.modex_put(&p, ProcName { job, rank: 0 }, "k", vec![]);
                t.set(p.now().as_ns());
            });
        }
        sim.run().unwrap();
        assert_eq!(t.get(), 30_000, "one OOB hop = 30us");
    }
}
