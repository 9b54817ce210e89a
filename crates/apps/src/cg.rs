//! Conjugate gradient on a distributed 1-D Laplacian.
//!
//! Solves `A x = b` where `A = tridiag(-1, 2, -1)` of global size `n`,
//! block-distributed over the ranks. The matrix-vector product needs one
//! halo value from each neighbour per iteration; the dot products are
//! allreduces. Verified against a serial CG and against the residual
//! definition directly.

use openmpi_core::{Communicator, Mpi};

use crate::{dot, read_f64s, write_f64s};

/// Problem definition for the CG solve.
#[derive(Clone, Debug)]
pub struct CgConfig {
    /// Global unknowns.
    pub n: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on `r·r`.
    pub tol: f64,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            n: 256,
            max_iters: 200,
            tol: 1e-10,
        }
    }
}

/// Outcome of a distributed CG solve on one rank.
pub struct CgResult {
    /// This rank's block of the solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iters: usize,
    /// Final squared residual norm.
    pub rr: f64,
}

fn block_of(n: usize, rank: usize, nranks: usize) -> (usize, usize) {
    let base = n / nranks;
    let extra = n % nranks;
    let mine = base + usize::from(rank < extra);
    let start = rank * base + rank.min(extra);
    (start, mine)
}

/// Distributed `y = A p` for the 1-D Laplacian, exchanging one halo value
/// with each neighbour.
fn matvec(mpi: &Mpi, comm: &Communicator, p: &[f64], halo: &HaloBufs) -> Vec<f64> {
    let me = comm.rank();
    let n = comm.size();
    let len = p.len();
    let mut left = 0.0;
    let mut right = 0.0;
    if len > 0 {
        if me > 0 {
            write_f64s(mpi, &halo.send_l, 0, &p[..1]);
            mpi.sendrecv(
                comm,
                me - 1,
                60,
                &halo.send_l,
                8,
                (me - 1) as i32,
                61,
                &halo.recv_l,
                8,
            );
            left = read_f64s(mpi, &halo.recv_l, 0, 1)[0];
        }
        if me < n - 1 {
            write_f64s(mpi, &halo.send_r, 0, &p[len - 1..]);
            mpi.sendrecv(
                comm,
                me + 1,
                61,
                &halo.send_r,
                8,
                (me + 1) as i32,
                60,
                &halo.recv_r,
                8,
            );
            right = read_f64s(mpi, &halo.recv_r, 0, 1)[0];
        }
    }
    let mut y = vec![0.0; len];
    for i in 0..len {
        let lo = if i == 0 { left } else { p[i - 1] };
        let hi = if i == len - 1 { right } else { p[i + 1] };
        y[i] = 2.0 * p[i] - lo - hi;
    }
    mpi.compute(qsim::Dur::from_ns(3 * len as u64));
    y
}

struct HaloBufs {
    send_l: elan4::HostBuf,
    recv_l: elan4::HostBuf,
    send_r: elan4::HostBuf,
    recv_r: elan4::HostBuf,
}

/// Distributed CG with `b` defined as `A * ones` (so the exact solution is
/// the all-ones vector).
pub fn run(mpi: &Mpi, comm: &Communicator, cfg: &CgConfig) -> CgResult {
    let me = comm.rank();
    let nranks = comm.size();
    let (_start, mine) = block_of(cfg.n, me, nranks);

    let halo = HaloBufs {
        send_l: mpi.alloc(8),
        recv_l: mpi.alloc(8),
        send_r: mpi.alloc(8),
        recv_r: mpi.alloc(8),
    };

    // b = A * ones.
    let ones = vec![1.0f64; mine];
    let b = matvec(mpi, comm, &ones, &halo);

    let mut x = vec![0.0f64; mine];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rr = dot(mpi, comm, &r, &r);
    let mut iters = 0;

    while iters < cfg.max_iters && rr > cfg.tol {
        let ap = matvec(mpi, comm, &p, &halo);
        let pap = dot(mpi, comm, &p, &ap);
        let alpha = rr / pap;
        for i in 0..mine {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        mpi.compute(qsim::Dur::from_ns(4 * mine as u64));
        let rr_new = dot(mpi, comm, &r, &r);
        let beta = rr_new / rr;
        for i in 0..mine {
            p[i] = r[i] + beta * p[i];
        }
        mpi.compute(qsim::Dur::from_ns(2 * mine as u64));
        rr = rr_new;
        iters += 1;
    }

    mpi.free(halo.send_l);
    mpi.free(halo.recv_l);
    mpi.free(halo.send_r);
    mpi.free(halo.recv_r);

    CgResult { x, iters, rr }
}

/// Serial CG on the same system, for verification.
pub fn serial_reference(cfg: &CgConfig) -> (Vec<f64>, usize) {
    let n = cfg.n;
    let matvec = |p: &[f64]| -> Vec<f64> {
        let mut y = vec![0.0; n];
        for i in 0..n {
            let lo = if i == 0 { 0.0 } else { p[i - 1] };
            let hi = if i == n - 1 { 0.0 } else { p[i + 1] };
            y[i] = 2.0 * p[i] - lo - hi;
        }
        y
    };
    let b = matvec(&vec![1.0; n]);
    let mut x = vec![0.0; n];
    let mut r = b;
    let mut p = r.clone();
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut iters = 0;
    while iters < cfg.max_iters && rr > cfg.tol {
        let ap = matvec(&p);
        let pap: f64 = p.iter().zip(&ap).map(|(a, c)| a * c).sum();
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
        iters += 1;
    }
    (x, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmpi_core::{Placement, StackConfig, Universe};

    #[test]
    fn serial_cg_solves_to_ones() {
        let cfg = CgConfig::default();
        let (x, iters) = serial_reference(&cfg);
        assert!(iters < cfg.max_iters, "did not converge");
        for v in x {
            assert!((v - 1.0).abs() < 1e-4, "solution component {v}");
        }
    }

    #[test]
    fn distributed_cg_converges_to_ones_on_4_ranks() {
        let cfg = CgConfig::default();
        let cfg2 = cfg.clone();
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, parts) = uni.run_ranks(4, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            let result = run(&mpi, &w, &cfg2);
            assert!(
                result.rr <= cfg2.tol,
                "rank {} rr={}",
                mpi.rank(),
                result.rr
            );
            result.x
        });
        let x: Vec<f64> = parts.into_iter().flatten().collect();
        assert_eq!(x.len(), cfg.n);
        for v in x {
            assert!((v - 1.0).abs() < 1e-4, "component {v} != 1");
        }
    }

    #[test]
    fn distributed_matches_serial_iteration_count() {
        // Same arithmetic order for the dots (tree reduce) can differ by a
        // few ULPs, but the iteration count should match on this
        // well-conditioned problem.
        let cfg = CgConfig {
            n: 64,
            ..Default::default()
        };
        let (_x, serial_iters) = serial_reference(&cfg);
        let cfg2 = cfg.clone();
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, iters) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            run(&mpi, &w, &cfg2).iters
        });
        let dist_iters = iters[0];
        assert!(
            dist_iters.abs_diff(serial_iters) <= 2,
            "distributed {dist_iters} vs serial {serial_iters}"
        );
    }
}
