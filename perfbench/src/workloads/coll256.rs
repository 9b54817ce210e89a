//! `coll256`: 256 ranks, one per node, on a 256-node fat tree with NIC
//! collective offload on. A closed loop of seeded collectives: barrier, a
//! bcast of at most 2 KiB from a small seeded set of roots, a NIC-eligible
//! allreduce of at most 2 KiB, and a 4–8 KiB allreduce that falls back to
//! the host tree. An op is one collective; its latency runs from the last rank
//! entering it to the last rank leaving it, so the skew ranks carry in
//! from the previous op does not count.
//!
//! A block holds three NIC allreduces so that the median op falls well
//! inside a class whose latency grows with its seeded size, not near the
//! edge between two classes; the host allreduce's size is seeded for the
//! same reason at the tail.

use openmpi_core::ReduceOp;
use qsim::Pcg32;

use crate::harness::Rank;
use crate::stats::{bytes, shuffle, stratified};

/// World size.
pub const RANKS: usize = 256;
/// Blocks per repetition.
pub const BLOCKS: usize = 16;
/// Ops per block, in seeded order.
pub const BLOCK_OPS: usize = 6;
/// Bcast roots drawn per seed; every one is warmed up.
const ROOTS: usize = 3;
/// Largest payload of the NIC-resident programs.
const NIC_MAX: u64 = 2048;
/// Payload range of the host-fallback allreduce, bytes.
const HOST_LEN: (u64, u64) = (4 << 10, 8 << 10);
/// Multipliers of the allreduce contributions: element `j` of rank `r` is
/// `a + r * STRIDE_RANK + j * STRIDE_ELEM` (wrapping), so the sum has a
/// closed form.
const STRIDE_RANK: u64 = 0x9e37_79b9_7f4a_7c15;
const STRIDE_ELEM: u64 = 0xbf58_476d_1ce4_e5b9;

/// One collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// MPI_Barrier.
    Barrier,
    /// MPI_Bcast from `root`.
    Bcast {
        /// The root rank.
        root: usize,
    },
    /// MPI_Allreduce (sum of u64) the NIC can combine.
    AllreduceNic,
    /// MPI_Allreduce (sum of u64) too large for the NIC program.
    AllreduceHost,
}

impl Kind {
    /// Name used by the per-kind metrics.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Barrier => "barrier",
            Kind::Bcast { .. } => "bcast",
            Kind::AllreduceNic => "allreduce_nic",
            Kind::AllreduceHost => "allreduce_host",
        }
    }
}

/// Per-kind metric names.
pub const KINDS: [&str; 4] = ["barrier", "bcast", "allreduce_nic", "allreduce_host"];

/// One generated collective.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Which collective.
    pub kind: Kind,
    /// Payload bytes (0 for a barrier).
    pub len: usize,
    /// Bcast: offset of the payload in the pattern. Allreduce: the
    /// contribution base `a`.
    pub seed: u64,
}

/// The seeded inputs.
pub struct Plan {
    /// The collectives, block by block.
    pub ops: Vec<Op>,
    /// Bcast roots, all warmed up.
    pub roots: Vec<usize>,
    /// Seeded bcast payload bytes.
    pub pattern: Vec<u8>,
}

/// Generate `blocks` blocks of collectives from `seed`.
pub fn plan(seed: u64, blocks: usize) -> Plan {
    let mut rng = Pcg32::new(seed);
    let mut ranks: Vec<usize> = (0..RANKS).collect();
    shuffle(&mut rng, &mut ranks);
    let roots = ranks[..ROOTS].to_vec();
    let mut bcast_len = stratified(&mut rng, blocks, 1, NIC_MAX);
    let mut nic_words = stratified(&mut rng, 3 * blocks, 1, NIC_MAX / 8);
    let mut host_words = stratified(&mut rng, blocks, HOST_LEN.0 / 8, HOST_LEN.1 / 8);
    let mut ops = Vec::with_capacity(blocks * BLOCK_OPS);
    for _ in 0..blocks {
        let mut block = [
            Kind::Barrier,
            Kind::Bcast {
                root: roots[rng.below(ROOTS as u64) as usize],
            },
            Kind::AllreduceNic,
            Kind::AllreduceNic,
            Kind::AllreduceNic,
            Kind::AllreduceHost,
        ];
        shuffle(&mut rng, &mut block);
        for kind in block {
            let len = match kind {
                Kind::Barrier => 0,
                Kind::Bcast { .. } => bcast_len.pop().expect("one per block") as usize,
                Kind::AllreduceNic => 8 * nic_words.pop().expect("one per block") as usize,
                Kind::AllreduceHost => 8 * host_words.pop().expect("one per block") as usize,
            };
            let seed = match kind {
                Kind::Bcast { .. } => rng.below((NIC_MAX as usize * 2 - len) as u64),
                _ => rng.next_u64(),
            };
            ops.push(Op { kind, len, seed });
        }
    }
    Plan {
        ops,
        roots,
        pattern: bytes(&mut rng, 2 * NIC_MAX as usize),
    }
}

/// Element `j` of rank `rank`'s allreduce contribution.
fn contribution(a: u64, rank: usize, j: usize) -> u64 {
    a.wrapping_add((rank as u64).wrapping_mul(STRIDE_RANK))
        .wrapping_add((j as u64).wrapping_mul(STRIDE_ELEM))
}

/// Scalar reference: element `j` of the sum of every rank's contribution.
fn reference(a: u64, j: usize) -> u64 {
    let n = RANKS as u64;
    n.wrapping_mul(a)
        .wrapping_add(STRIDE_RANK.wrapping_mul(n * (n - 1) / 2))
        .wrapping_add(n.wrapping_mul(j as u64).wrapping_mul(STRIDE_ELEM))
}

fn words(v: impl Iterator<Item = u64>) -> Vec<u8> {
    v.flat_map(u64::to_le_bytes).collect()
}

/// Run one collective; returns whether its output verified.
fn run(p: &Plan, r: &mut Rank, op: &Op, id: usize, buf: &elan4::HostBuf) -> bool {
    let (mpi, w, me) = (r.mpi, r.world.clone(), r.rank());
    match op.kind {
        Kind::Barrier => {
            let s = r.open("barrier", id);
            mpi.barrier(&w);
            r.close(s);
            true
        }
        Kind::Bcast { root } => {
            let expect = &p.pattern[op.seed as usize..op.seed as usize + op.len];
            if me == root {
                mpi.write(buf, 0, expect);
            }
            let s = r.open("bcast", id);
            mpi.bcast(&w, root, buf, op.len);
            r.close(s);
            me == root || mpi.read(buf, 0, op.len) == expect
        }
        Kind::AllreduceNic | Kind::AllreduceHost => {
            let n = op.len / 8;
            mpi.write(buf, 0, &words((0..n).map(|j| contribution(op.seed, me, j))));
            let s = r.open("allreduce", id);
            mpi.allreduce(&w, ReduceOp::SumU64, buf, op.len);
            r.close(s);
            mpi.read(buf, 0, op.len) == words((0..n).map(|j| reference(op.seed, j)))
        }
    }
}

/// One rank's warm-up and timed phase.
pub fn body(p: &Plan, r: &mut Rank) {
    let mpi = r.mpi;
    let buf = mpi.alloc(HOST_LEN.1 as usize);
    // Warm-up: compile every NIC program the timed phase uses (one bcast
    // program per root) and run the host fallback once.
    let mut warm = vec![
        Op {
            kind: Kind::Barrier,
            len: 0,
            seed: 0,
        },
        Op {
            kind: Kind::AllreduceNic,
            len: NIC_MAX as usize,
            seed: 1,
        },
        Op {
            kind: Kind::AllreduceHost,
            len: HOST_LEN.1 as usize,
            seed: 2,
        },
    ];
    warm.extend(p.roots.iter().map(|&root| Op {
        kind: Kind::Bcast { root },
        len: NIC_MAX as usize,
        seed: 0,
    }));
    for op in &warm {
        run(p, r, op, 0, &buf);
    }
    r.warmed();
    for (i, op) in p.ops.iter().enumerate() {
        // Every collective is a wall-clock sample of its own: tens of ms,
        // long enough to be steady, and per-op samples let the wall tail
        // land on the slow kinds.
        r.block();
        let s = r.open("op", i);
        let t = mpi.now();
        let ok = run(p, r, op, i, &buf);
        r.latency(i, t, mpi.now());
        if ok {
            let landed = match op.kind {
                Kind::Bcast { root } if root == r.rank() => 0,
                _ => op.len,
            };
            r.landed(landed);
        } else {
            r.fail(Some(i));
        }
        r.close(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_a_direct_sum() {
        for j in [0, 1, 255] {
            let direct = (0..RANKS).fold(0u64, |acc, r| acc.wrapping_add(contribution(42, r, j)));
            assert_eq!(direct, reference(42, j));
        }
    }

    #[test]
    fn every_block_holds_one_of_each_kind() {
        let p = plan(5, 8);
        for block in p.ops.chunks(BLOCK_OPS) {
            let mut names: Vec<_> = block.iter().map(|o| o.kind.name()).collect();
            names.sort_unstable();
            let mut want = KINDS.to_vec();
            want.extend(["allreduce_nic", "allreduce_nic"]);
            want.sort_unstable();
            assert_eq!(names, want);
            for o in block {
                match o.kind {
                    Kind::AllreduceNic => assert!(o.len % 8 == 0 && o.len as u64 <= NIC_MAX),
                    Kind::AllreduceHost => assert!(o.len % 8 == 0 && o.len as u64 > NIC_MAX),
                    Kind::Bcast { root } => assert!(p.roots.contains(&root)),
                    _ => {}
                }
            }
        }
    }
}
