//! # ompi-io — MPI-IO-style parallel I/O
//!
//! "Scalable I/O support" is one of the Open MPI goals the paper's
//! introduction lists. This crate provides the smallest faithful version:
//! a striped parallel file system in virtual time ([`Pfs`]) and an
//! MPI-IO-flavoured interface ([`File`]) with independent `read_at`/
//! `write_at` and a collective `write_all` where each rank deposits its
//! block, the accesses fanning out over the I/O nodes concurrently.

#![warn(missing_docs)]

mod pfs;

pub use pfs::{Pfs, PfsConfig, PfsStats};

use std::rc::Rc;

use elan4::HostBuf;
use openmpi_core::{Communicator, Mpi};
use qsim::Wait;

/// An open file handle bound to a communicator (MPI_File semantics: opens
/// and collective operations involve the whole group).
pub struct File {
    pfs: Rc<Pfs>,
    comm: Communicator,
    name: String,
}

impl File {
    /// Collectively open (creating if absent) `name` on `pfs`.
    pub fn open(mpi: &Mpi, pfs: &Rc<Pfs>, comm: &Communicator, name: &str) -> File {
        // Rank 0 creates; everyone synchronizes before first use.
        if comm.rank() == 0 && !pfs.exists(name) {
            pfs.create(name);
        }
        mpi.barrier(comm);
        File {
            pfs: pfs.clone(),
            comm: comm.clone(),
            name: name.to_string(),
        }
    }

    /// The file's current length.
    pub fn len(&self) -> usize {
        self.pfs.len(&self.name).unwrap_or(0)
    }

    /// True when the file holds no bytes yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Independent write of `len` bytes from `buf` at absolute `offset`.
    /// Blocks (in virtual time) until the storage has the data.
    pub fn write_at(&self, mpi: &Mpi, offset: usize, buf: &HostBuf, len: usize) {
        let data = mpi.read(buf, 0, len);
        let done = self.pfs.write(mpi.now(), &self.name, offset, &data);
        block_until(mpi, done);
    }

    /// Independent read of up to `len` bytes at `offset` into `buf`;
    /// returns the bytes actually read.
    pub fn read_at(&self, mpi: &Mpi, offset: usize, buf: &HostBuf, len: usize) -> usize {
        let (done, data) = self.pfs.read(mpi.now(), &self.name, offset, len);
        mpi.write(buf, 0, &data);
        block_until(mpi, done);
        data.len()
    }

    /// Collective write: rank `r` deposits its `len`-byte block at
    /// `base + r * len`. All ranks' requests are issued together so the
    /// stripes fan out across the I/O nodes; completes when every rank's
    /// data is stored (closing barrier).
    pub fn write_all(&self, mpi: &Mpi, base: usize, buf: &HostBuf, len: usize) {
        let offset = base + self.comm.rank() * len;
        self.write_at(mpi, offset, buf, len);
        mpi.barrier(&self.comm);
    }

    /// Collective read of rank-`r`'s block written by [`File::write_all`].
    pub fn read_all(&self, mpi: &Mpi, base: usize, buf: &HostBuf, len: usize) -> usize {
        let offset = base + self.comm.rank() * len;
        let n = self.read_at(mpi, offset, buf, len);
        mpi.barrier(&self.comm);
        n
    }

    /// Collectively close the file (a synchronization point; the simulated
    /// storage is always durable).
    pub fn close(self, mpi: &Mpi) {
        mpi.barrier(&self.comm);
    }
}

/// Park the calling rank until virtual time `t`.
fn block_until(mpi: &Mpi, t: qsim::Time) {
    let now = mpi.now();
    if t > now {
        let sig = mpi.proc().signal();
        let sig2 = sig.clone();
        mpi.proc().sim().call_at(t, move |s| sig2.notify(s));
        match mpi.proc().wait(&sig) {
            Wait::Signaled => {}
            Wait::Shutdown => panic!("shutdown during I/O"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmpi_core::{Placement, StackConfig, Universe};

    #[test]
    fn collective_write_then_read_back() {
        let uni = Universe::paper_testbed(StackConfig::best());
        let pfs = Pfs::new(PfsConfig::default());
        let p2 = pfs.clone();
        uni.run_world(4, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let block = 32 << 10;
            let f = File::open(&mpi, &p2, &w, "checkpoint.dat");
            let buf = mpi.alloc(block);
            mpi.write(&buf, 0, &vec![me as u8 + 1; block]);
            f.write_all(&mpi, 0, &buf, block);
            assert_eq!(f.len(), 4 * block);

            // Each rank reads its right neighbour's block back.
            let nxt = (me + 1) % 4;
            let rbuf = mpi.alloc(block);
            let got = f.read_at(&mpi, nxt * block, &rbuf, block);
            assert_eq!(got, block);
            assert_eq!(mpi.read(&rbuf, 0, block), vec![nxt as u8 + 1; block]);
            f.close(&mpi);
        });
        assert_eq!(pfs.stats().bytes as usize, 2 * 4 * (32 << 10));
    }

    #[test]
    fn collective_io_scales_with_io_nodes() {
        fn run(io_nodes: usize) -> u64 {
            let uni = Universe::paper_testbed(StackConfig::best());
            let pfs = Pfs::new(PfsConfig {
                io_nodes,
                ..Default::default()
            });
            let (_, t) = uni.run_ranks(4, Placement::RoundRobin, move |mpi| {
                let w = mpi.world();
                let f = File::open(&mpi, &pfs, &w, "big.dat");
                let block = 256 << 10;
                let buf = mpi.alloc(block);
                mpi.barrier(&w);
                let t0 = mpi.now();
                f.write_all(&mpi, 0, &buf, block);
                (mpi.now() - t0).as_ns()
            });
            t[0]
        }
        let wide = run(8);
        let narrow = run(1);
        assert!(
            wide * 3 < narrow,
            "collective I/O should scale with I/O nodes: {wide} vs {narrow}"
        );
    }

    #[test]
    fn independent_writes_do_not_corrupt_neighbours() {
        let uni = Universe::paper_testbed(StackConfig::best());
        let pfs = Pfs::new(PfsConfig {
            stripe: 128, // small stripes: adjacent writes share I/O nodes
            ..Default::default()
        });
        let p2 = pfs.clone();
        uni.run_world(8, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let me = mpi.rank();
            let f = File::open(&mpi, &p2, &w, "interleaved");
            let buf = mpi.alloc(100);
            mpi.write(&buf, 0, &[me as u8 + 10; 100]);
            // Unaligned, interleaved, concurrent.
            f.write_at(&mpi, me * 100, &buf, 100);
            mpi.barrier(&w);
            let rbuf = mpi.alloc(100);
            f.read_at(&mpi, me * 100, &rbuf, 100);
            assert_eq!(mpi.read(&rbuf, 0, 100), vec![me as u8 + 10; 100]);
        });
    }
}
