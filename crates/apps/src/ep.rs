//! EP — an embarrassingly parallel kernel in the NAS spirit: generate
//! pairs of pseudo-random deviates, count Gaussian pairs by annulus via
//! the Marsaglia polar method, and combine the per-rank tallies with a
//! single reduction. Communication is one `allreduce` at the end, so the
//! app is compute-bound — the scaling counterpoint to the latency-bound
//! CG and stencil kernels.

use openmpi_core::{Communicator, Mpi, ReduceOp};

use crate::{read_f64s, write_f64s};

/// Problem definition.
#[derive(Clone, Debug)]
pub struct EpConfig {
    /// Total pairs across all ranks.
    pub pairs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EpConfig {
    fn default() -> Self {
        EpConfig {
            pairs: 1 << 16,
            seed: 271_828,
        }
    }
}

/// Result: Gaussian-pair counts per annulus `[0,1), [1,2), ... [9,10)`
/// plus the accepted-pair total, identical on every rank.
pub struct EpResult {
    /// Counts by annulus of max(|x|, |y|).
    pub annuli: [u64; 10],
    /// Total accepted pairs.
    pub accepted: u64,
}

fn lcg(state: &mut u64) -> f64 {
    // 2^-63-scaled xorshift64* in (-1, 1).
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
    (v >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Tally one rank's share of the pairs.
fn tally(cfg: &EpConfig, first: usize, count: usize) -> ([u64; 10], u64) {
    let mut annuli = [0u64; 10];
    let mut accepted = 0u64;
    for i in first..first + count {
        let mut s = cfg
            .seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let x1 = lcg(&mut s);
        let x2 = lcg(&mut s);
        let t = x1 * x1 + x2 * x2;
        if t <= 1.0 && t > 0.0 {
            accepted += 1;
            let f = (-2.0 * t.ln() / t).sqrt();
            let (g1, g2) = (x1 * f, x2 * f);
            let m = g1.abs().max(g2.abs());
            let bin = (m as usize).min(9);
            annuli[bin] += 1;
        }
    }
    (annuli, accepted)
}

/// Distributed run: each rank tallies its block, one allreduce combines.
pub fn run(mpi: &Mpi, comm: &Communicator, cfg: &EpConfig) -> EpResult {
    let n = comm.size();
    let me = comm.rank();
    let base = cfg.pairs / n;
    let extra = cfg.pairs % n;
    let mine = base + usize::from(me < extra);
    let first = me * base + me.min(extra);

    let (annuli, accepted) = tally(cfg, first, mine);
    // ~60 flops per pair.
    mpi.compute(qsim::Dur::from_ns(60 * mine as u64));

    // Pack counts as f64 (exactly representable well past these ranges).
    let mut vals = [0.0f64; 11];
    for (i, a) in annuli.iter().enumerate() {
        vals[i] = *a as f64;
    }
    vals[10] = accepted as f64;
    let buf = mpi.alloc(11 * 8);
    write_f64s(mpi, &buf, 0, &vals);
    mpi.allreduce(comm, ReduceOp::SumF64, &buf, 11 * 8);
    let out = read_f64s(mpi, &buf, 0, 11);
    mpi.free(buf);

    let mut annuli = [0u64; 10];
    for (i, a) in annuli.iter_mut().enumerate() {
        *a = out[i] as u64;
    }
    EpResult {
        annuli,
        accepted: out[10] as u64,
    }
}

/// Serial reference.
pub fn serial_reference(cfg: &EpConfig) -> EpResult {
    let (annuli, accepted) = tally(cfg, 0, cfg.pairs);
    EpResult { annuli, accepted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmpi_core::{Placement, StackConfig, Universe};

    #[test]
    fn distributed_tallies_match_serial() {
        let cfg = EpConfig::default();
        let reference = serial_reference(&cfg);
        for ranks in [2usize, 5, 8] {
            let cfg2 = cfg.clone();
            let uni = Universe::paper_testbed(StackConfig::best());
            let (_, got) = uni.run_ranks(ranks, Placement::RoundRobin, move |mpi| {
                let w = mpi.world();
                let r = run(&mpi, &w, &cfg2);
                (r.annuli, r.accepted)
            });
            assert_eq!(got.len(), ranks);
            for (annuli, accepted) in got.iter() {
                assert_eq!(*accepted, reference.accepted, "{ranks} ranks");
                assert_eq!(*annuli, reference.annuli, "{ranks} ranks");
            }
        }
    }

    #[test]
    fn acceptance_rate_near_pi_over_four() {
        let r = serial_reference(&EpConfig::default());
        let rate = r.accepted as f64 / (1 << 16) as f64;
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.02,
            "rate {rate}"
        );
    }
}
