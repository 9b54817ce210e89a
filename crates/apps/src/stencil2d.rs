//! 2-D heat stencil with a 2-D processor grid: row halos are contiguous,
//! column halos are *strided* — sent directly from the field with an
//! `MPI_Type_vector`-style datatype, exercising the datatype engine's
//! pack/unpack path through the rendezvous protocol exactly the way real
//! halo exchanges do.

use ompi_datatype::{Convertor, Datatype};
use openmpi_core::{Communicator, Mpi, ReduceOp};

use crate::{read_f64s, write_f64s};

/// Problem definition: a `rows x cols` grid on a `pr x pc` processor grid.
#[derive(Clone, Debug)]
pub struct Stencil2dConfig {
    /// Grid rows (must divide by the process-grid rows).
    pub rows: usize,
    /// Grid columns (must divide by the process-grid columns).
    pub cols: usize,
    /// Process-grid rows.
    pub pr: usize,
    /// Process-grid columns.
    pub pc: usize,
    /// Jacobi steps.
    pub steps: usize,
    /// Diffusion coefficient.
    pub alpha: f64,
}

impl Default for Stencil2dConfig {
    fn default() -> Self {
        Stencil2dConfig {
            rows: 32,
            cols: 32,
            pr: 2,
            pc: 2,
            steps: 15,
            alpha: 0.2,
        }
    }
}

/// This rank's position in the process grid.
fn grid_pos(rank: usize, pc: usize) -> (usize, usize) {
    (rank / pc, rank % pc)
}

/// One Jacobi sweep over the interior of a halo-padded block.
fn sweep(
    u: &[f64],
    lr: usize,
    lc: usize,
    alpha: f64,
    fixed: impl Fn(usize, usize) -> bool,
) -> Vec<f64> {
    let w = lc + 2;
    let mut next = u.to_vec();
    for r in 1..=lr {
        for c in 1..=lc {
            if fixed(r, c) {
                continue;
            }
            let i = r * w + c;
            next[i] = u[i] + alpha * (u[i - w] + u[i + w] + u[i - 1] + u[i + 1] - 4.0 * u[i]);
        }
    }
    next
}

/// Distributed 2-D run; returns this rank's interior block (row-major).
pub fn run(mpi: &Mpi, comm: &Communicator, cfg: &Stencil2dConfig) -> Vec<f64> {
    assert_eq!(comm.size(), cfg.pr * cfg.pc, "process grid mismatch");
    assert_eq!(cfg.rows % cfg.pr, 0, "rows must divide evenly");
    assert_eq!(cfg.cols % cfg.pc, 0, "cols must divide evenly");
    let lr = cfg.rows / cfg.pr; // local rows
    let lc = cfg.cols / cfg.pc; // local cols
    let (gr, gc) = grid_pos(comm.rank(), cfg.pc);
    let w = lc + 2; // padded width

    // Field lives in simulated memory so halo sends can use datatypes on it.
    let field = mpi.alloc((lr + 2) * w * 8);
    let mut u = vec![0.0f64; (lr + 2) * w];
    // Heat the global top edge.
    if gr == 0 {
        for c in 1..=lc {
            u[w + c] = 100.0;
        }
    }
    write_f64s(mpi, &field, 0, &u);

    // Column-halo datatype: `lr` doubles with a stride of `w` doubles.
    let col_type = || Datatype::vector(lr, 8, w * 8, Datatype::u8());
    // Row-halo: contiguous `lc` doubles.
    let up = gr.checked_sub(1).map(|r| r * cfg.pc + gc);
    let down = (gr + 1 < cfg.pr).then(|| (gr + 1) * cfg.pc + gc);
    let left = gc.checked_sub(1).map(|c| gr * cfg.pc + c);
    let right = (gc + 1 < cfg.pc).then(|| gr * cfg.pc + gc + 1);

    let res_buf = mpi.alloc(8);
    for _step in 0..cfg.steps {
        write_f64s(mpi, &field, 0, &u);
        let mut reqs = Vec::new();
        // Row halos (contiguous slices of the padded field).
        let row_at = |r: usize| field.slice((r * w + 1) * 8, lc * 8);
        if let Some(peer) = up {
            reqs.push(mpi.isend(comm, peer, 20, &row_at(1), lc * 8));
            reqs.push(mpi.irecv(comm, peer as i32, 21, &row_at(0), lc * 8));
        }
        if let Some(peer) = down {
            reqs.push(mpi.isend(comm, peer, 21, &row_at(lr), lc * 8));
            reqs.push(mpi.irecv(comm, peer as i32, 20, &row_at(lr + 1), lc * 8));
        }
        // Column halos: strided vector straight out of / into the field.
        let col_at = |c: usize| field.slice((w + c) * 8, ((lr - 1) * w + 1) * 8);
        if let Some(peer) = left {
            reqs.push(mpi.isend_typed(comm, peer, 22, &col_at(1), Convertor::new(col_type(), 1)));
            reqs.push(mpi.irecv_typed(
                comm,
                peer as i32,
                23,
                &col_at(0),
                Convertor::new(col_type(), 1),
            ));
        }
        if let Some(peer) = right {
            reqs.push(mpi.isend_typed(comm, peer, 23, &col_at(lc), Convertor::new(col_type(), 1)));
            reqs.push(mpi.irecv_typed(
                comm,
                peer as i32,
                22,
                &col_at(lc + 1),
                Convertor::new(col_type(), 1),
            ));
        }
        mpi.waitall(reqs);
        u = read_f64s(mpi, &field, 0, (lr + 2) * w);

        // Global boundary cells are Dirichlet-fixed.
        let next = sweep(&u, lr, lc, cfg.alpha, |r, c| {
            (gr == 0 && r == 1)
                || (gr == cfg.pr - 1 && r == lr)
                || (gc == 0 && c == 1)
                || (gc == cfg.pc - 1 && c == lc)
        });
        mpi.compute(qsim::Dur::from_ns(6 * (lr * lc) as u64));
        let local_res: f64 = next.iter().zip(&u).map(|(a, b)| (a - b).abs()).sum();
        u = next;
        write_f64s(mpi, &res_buf, 0, &[local_res]);
        mpi.allreduce(comm, ReduceOp::SumF64, &res_buf, 8);
    }
    mpi.free(res_buf);
    mpi.free(field);

    // Strip the halos.
    let mut out = Vec::with_capacity(lr * lc);
    for r in 1..=lr {
        out.extend_from_slice(&u[r * w + 1..r * w + 1 + lc]);
    }
    out
}

/// Serial reference on the full grid.
pub fn serial_reference(cfg: &Stencil2dConfig) -> Vec<f64> {
    let w = cfg.cols + 2;
    let mut u = vec![0.0f64; (cfg.rows + 2) * w];
    for c in 1..=cfg.cols {
        u[w + c] = 100.0;
    }
    for _ in 0..cfg.steps {
        u = sweep(&u, cfg.rows, cfg.cols, cfg.alpha, |r, c| {
            r == 1 || r == cfg.rows || c == 1 || c == cfg.cols
        });
    }
    let mut out = Vec::with_capacity(cfg.rows * cfg.cols);
    for r in 1..=cfg.rows {
        out.extend_from_slice(&u[r * w + 1..r * w + 1 + cfg.cols]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmpi_core::{Placement, StackConfig, Universe};

    fn run_grid(cfg: Stencil2dConfig) -> Vec<f64> {
        let cfg2 = cfg.clone();
        let uni = Universe::paper_testbed(StackConfig::best());
        let (_, blocks) = uni.run_ranks(cfg.pr * cfg.pc, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            run(&mpi, &w, &cfg2)
        });
        // Reassemble the global grid from the 2-D blocks.
        let lr = cfg.rows / cfg.pr;
        let lc = cfg.cols / cfg.pc;
        let mut grid = vec![0.0f64; cfg.rows * cfg.cols];
        for (rank, block) in blocks.into_iter().enumerate() {
            let (gr, gc) = super::grid_pos(rank, cfg.pc);
            for r in 0..lr {
                for c in 0..lc {
                    grid[(gr * lr + r) * cfg.cols + gc * lc + c] = block[r * lc + c];
                }
            }
        }
        grid
    }

    #[test]
    fn two_by_two_grid_matches_serial() {
        let cfg = Stencil2dConfig::default();
        let reference = serial_reference(&cfg);
        let grid = run_grid(cfg);
        for (i, (a, b)) in grid.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-12, "cell {i}: {a} vs {b}");
        }
    }

    #[test]
    fn four_by_two_grid_matches_serial() {
        let cfg = Stencil2dConfig {
            rows: 32,
            cols: 16,
            pr: 4,
            pc: 2,
            steps: 12,
            alpha: 0.25,
        };
        let reference = serial_reference(&cfg);
        let grid = run_grid(cfg);
        for (i, (a, b)) in grid.iter().zip(&reference).enumerate() {
            assert!((a - b).abs() < 1e-12, "cell {i}: {a} vs {b}");
        }
    }
}
