//! 2-D five-point heat stencil with row-block decomposition.
//!
//! The grid is `rows x cols`, partitioned into contiguous row blocks, one
//! per rank. Each step exchanges one halo row with each neighbour
//! (`sendrecv`) and applies the Jacobi update; every `residual_every` steps
//! the global residual is reduced. Verified against [`serial_reference`].

use openmpi_core::{Communicator, Mpi, ReduceOp};

use crate::{read_f64s, write_f64s};

/// Problem definition.
#[derive(Clone, Debug)]
pub struct StencilConfig {
    /// Global grid rows.
    pub rows: usize,
    /// Global grid columns.
    pub cols: usize,
    /// Jacobi steps to run.
    pub steps: usize,
    /// Diffusion coefficient (stability needs alpha <= 0.25).
    pub alpha: f64,
    /// Initial hot cell (row, col, value).
    pub spike: (usize, usize, f64),
}

impl Default for StencilConfig {
    fn default() -> Self {
        StencilConfig {
            rows: 64,
            cols: 32,
            steps: 25,
            alpha: 0.2,
            spike: (31, 15, 100.0),
        }
    }
}

/// Result of a distributed run: this rank's block (without halos) plus the
/// final global residual.
pub struct StencilResult {
    /// This rank's rows, row-major, without halos.
    pub block: Vec<f64>,
    /// Rows owned by this rank.
    pub rows_here: usize,
    /// Final global residual.
    pub residual: f64,
}

/// Rows owned by `rank` (block distribution with remainder spread left).
pub fn rows_of(cfg: &StencilConfig, rank: usize, nranks: usize) -> (usize, usize) {
    let base = cfg.rows / nranks;
    let extra = cfg.rows % nranks;
    let mine = base + usize::from(rank < extra);
    let start = rank * base + rank.min(extra);
    (start, mine)
}

/// One Jacobi update over a block with halos already in place.
/// `u` has `rows_here + 2` rows; rows 0 and rows_here+1 are halos.
fn jacobi_step(
    u: &[f64],
    cols: usize,
    rows_here: usize,
    alpha: f64,
    top: bool,
    bottom: bool,
) -> Vec<f64> {
    let mut next = u.to_vec();
    for r in 1..=rows_here {
        for c in 0..cols {
            let idx = r * cols + c;
            // Global boundary rows/cols are Dirichlet (held fixed).
            if (top && r == 1) || (bottom && r == rows_here) || c == 0 || c == cols - 1 {
                continue;
            }
            let up = u[idx - cols];
            let down = u[idx + cols];
            let left = u[idx - 1];
            let right = u[idx + 1];
            next[idx] = u[idx] + alpha * (up + down + left + right - 4.0 * u[idx]);
        }
    }
    next
}

/// Distributed run on `comm`, starting from the configured spike.
pub fn run(mpi: &Mpi, comm: &Communicator, cfg: &StencilConfig) -> StencilResult {
    let me = comm.rank();
    let n = comm.size();
    let (start_row, rows_here) = rows_of(cfg, me, n);
    let cols = cfg.cols;
    let mut u = vec![0.0f64; (rows_here + 2) * cols];
    let (sr, sc, sv) = cfg.spike;
    if sr >= start_row && sr < start_row + rows_here {
        u[(sr - start_row + 1) * cols + sc] = sv;
    }
    run_inner(mpi, comm, cfg, u, rows_here, me, n)
}

/// Distributed run continuing from a previously computed interior block
/// (e.g. one restored from a checkpoint).
pub fn run_from(
    mpi: &Mpi,
    comm: &Communicator,
    cfg: &StencilConfig,
    interior: Vec<f64>,
) -> StencilResult {
    let me = comm.rank();
    let n = comm.size();
    let (_start_row, rows_here) = rows_of(cfg, me, n);
    let cols = cfg.cols;
    assert_eq!(interior.len(), rows_here * cols, "restored block shape");
    let mut u = vec![0.0f64; (rows_here + 2) * cols];
    u[cols..(rows_here + 1) * cols].copy_from_slice(&interior);
    run_inner(mpi, comm, cfg, u, rows_here, me, n)
}

fn run_inner(
    mpi: &Mpi,
    comm: &Communicator,
    cfg: &StencilConfig,
    mut u: Vec<f64>,
    rows_here: usize,
    me: usize,
    n: usize,
) -> StencilResult {
    let cols = cfg.cols;

    let row_bytes = cols * 8;
    let send_up = mpi.alloc(row_bytes);
    let recv_up = mpi.alloc(row_bytes);
    let send_dn = mpi.alloc(row_bytes);
    let recv_dn = mpi.alloc(row_bytes);
    let res_buf = mpi.alloc(8);

    let mut residual = f64::MAX;
    for _ in 0..cfg.steps {
        // Halo exchange with the neighbours.
        if me > 0 {
            write_f64s(mpi, &send_up, 0, &u[cols..2 * cols]);
            mpi.sendrecv(
                comm,
                me - 1,
                50,
                &send_up,
                row_bytes,
                (me - 1) as i32,
                51,
                &recv_up,
                row_bytes,
            );
            u[..cols].copy_from_slice(&read_f64s(mpi, &recv_up, 0, cols));
        }
        if me < n - 1 {
            write_f64s(
                mpi,
                &send_dn,
                0,
                &u[rows_here * cols..(rows_here + 1) * cols],
            );
            mpi.sendrecv(
                comm,
                me + 1,
                51,
                &send_dn,
                row_bytes,
                (me + 1) as i32,
                50,
                &recv_dn,
                row_bytes,
            );
            u[(rows_here + 1) * cols..].copy_from_slice(&read_f64s(mpi, &recv_dn, 0, cols));
        }

        let next = jacobi_step(&u, cols, rows_here, cfg.alpha, me == 0, me == n - 1);
        // 6 flops per interior cell.
        mpi.compute(qsim::Dur::from_ns(6 * (rows_here * cols) as u64));
        let local_res: f64 = next
            .iter()
            .zip(&u)
            .skip(cols)
            .take(rows_here * cols)
            .map(|(a, b)| (a - b).abs())
            .sum();
        u = next;

        write_f64s(mpi, &res_buf, 0, &[local_res]);
        mpi.allreduce(comm, ReduceOp::SumF64, &res_buf, 8);
        residual = read_f64s(mpi, &res_buf, 0, 1)[0];
    }

    mpi.free(send_up);
    mpi.free(recv_up);
    mpi.free(send_dn);
    mpi.free(recv_dn);
    mpi.free(res_buf);

    StencilResult {
        block: u[cols..(rows_here + 1) * cols].to_vec(),
        rows_here,
        residual,
    }
}

/// Serial reference: the whole grid in one piece.
pub fn serial_reference(cfg: &StencilConfig) -> Vec<f64> {
    let cols = cfg.cols;
    // Whole grid plus phantom halos so the same kernel applies.
    let mut u = vec![0.0f64; (cfg.rows + 2) * cols];
    u[(cfg.spike.0 + 1) * cols + cfg.spike.1] = cfg.spike.2;
    for _ in 0..cfg.steps {
        u = jacobi_step(&u, cols, cfg.rows, cfg.alpha, true, true);
    }
    u[cols..(cfg.rows + 1) * cols].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmpi_core::{Placement, StackConfig, Universe};

    #[test]
    fn rows_partition_covers_grid() {
        let cfg = StencilConfig {
            rows: 67,
            ..Default::default()
        };
        let mut covered = 0;
        let mut next_start = 0;
        for r in 0..5 {
            let (start, mine) = rows_of(&cfg, r, 5);
            assert_eq!(start, next_start);
            next_start += mine;
            covered += mine;
        }
        assert_eq!(covered, 67);
    }

    #[test]
    fn distributed_matches_serial_on_4_ranks() {
        let cfg = StencilConfig::default();
        let reference = serial_reference(&cfg);
        let cfg2 = cfg.clone();
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, blocks) = uni.run_ranks(4, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            run(&mpi, &w, &cfg2).block
        });
        let assembled: Vec<f64> = blocks.into_iter().flatten().collect();
        assert_eq!(assembled.len(), reference.len());
        for (i, (a, b)) in assembled.iter().zip(&reference).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "cell {i}: distributed {a} vs serial {b}"
            );
        }
    }

    #[test]
    fn residual_decreases() {
        let cfg = StencilConfig::default();
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, res) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            run(&mpi, &w, &cfg).residual
        });
        let final_res = res[0];
        assert!(final_res.is_finite());
        assert!(final_res < 100.0, "diffusion should spread the spike");
    }
}
