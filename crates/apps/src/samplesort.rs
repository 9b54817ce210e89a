//! Parallel sample sort.
//!
//! 1. Each rank sorts its local keys.
//! 2. Regular samples go to rank 0 (`gather`), which picks splitters and
//!    broadcasts them.
//! 3. Keys are exchanged pairwise; bucket sizes are *not* pre-agreed — the
//!    receiver uses `probe` to size each incoming bucket (exercising the
//!    message-probing the MPI layer provides).
//! 4. Each rank merges its received buckets.
//!
//! The result is globally sorted: rank i's largest key ≤ rank i+1's
//! smallest.

use openmpi_core::{Communicator, Mpi};

/// Problem definition for the parallel sort.
#[derive(Clone, Debug)]
pub struct SortConfig {
    /// Keys per rank before sorting.
    pub keys_per_rank: usize,
    /// Seed for the deterministic key generator.
    pub seed: u64,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig {
            keys_per_rank: 2000,
            seed: 42,
        }
    }
}

/// Deterministic pseudo-random keys for rank `rank`.
pub fn generate_keys(cfg: &SortConfig, rank: usize) -> Vec<u32> {
    let mut state = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rank as u64 + 1);
    (0..cfg.keys_per_rank)
        .map(|_| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
        })
        .collect()
}

const TAG_SAMPLE_EXCHANGE: i32 = 70;

/// Distributed sample sort; returns this rank's globally ordered shard.
pub fn run(mpi: &Mpi, comm: &Communicator, cfg: &SortConfig) -> Vec<u32> {
    let me = comm.rank();
    let n = comm.size();

    let mut keys = generate_keys(cfg, me);
    keys.sort_unstable();
    mpi.compute(qsim::Dur::from_ns((keys.len() as u64) * 20)); // ~n log n

    if n == 1 {
        return keys;
    }

    // Regular sampling: n samples per rank.
    let samples: Vec<u32> = (0..n)
        .map(|i| keys[(i * keys.len()) / n + keys.len() / (2 * n)])
        .collect();
    let sbuf = mpi.alloc(4 * n);
    let bytes: Vec<u8> = samples.iter().flat_map(|k| k.to_le_bytes()).collect();
    mpi.write(&sbuf, 0, &bytes);
    let gathered = mpi.alloc(4 * n * n);
    mpi.gather(
        comm,
        0,
        &sbuf,
        4 * n,
        if me == 0 { Some(&gathered) } else { None },
    );

    // Rank 0 picks n-1 splitters and broadcasts them.
    let splitters: Vec<u32> = if me == 0 {
        let mut all: Vec<u32> = mpi
            .read(&gathered, 0, 4 * n * n)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        all.sort_unstable();
        let sp: Vec<u32> = (1..n).map(|i| all[i * n]).collect();
        let sp_bytes: Vec<u8> = sp.iter().flat_map(|k| k.to_le_bytes()).collect();
        mpi.bcast_bytes(comm, 0, sp_bytes)
    } else {
        mpi.bcast_bytes(comm, 0, Vec::new())
    }
    .chunks_exact(4)
    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
    .collect();
    mpi.free(sbuf);
    mpi.free(gathered);

    // Partition local keys into n buckets by the splitters.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for k in keys {
        let b = splitters.partition_point(|s| *s <= k);
        buckets[b].push(k);
    }

    // Exchange: send bucket d to rank d; receive n-1 buckets of unknown
    // size, probing for their lengths.
    let mut reqs = Vec::new();
    let mut send_bufs = Vec::new();
    for (d, bucket) in buckets.iter().enumerate() {
        if d == me {
            continue;
        }
        let bytes: Vec<u8> = bucket.iter().flat_map(|k| k.to_le_bytes()).collect();
        let buf = mpi.alloc(bytes.len().max(1));
        mpi.write(&buf, 0, &bytes);
        reqs.push(mpi.isend(comm, d, TAG_SAMPLE_EXCHANGE, &buf, bytes.len()));
        send_bufs.push(buf);
    }

    let mut merged: Vec<u32> = std::mem::take(&mut buckets[me]);
    for _ in 0..n - 1 {
        // Probe first: the bucket length is not known a priori.
        let st = mpi.probe(comm, openmpi_core::ANY_SOURCE, TAG_SAMPLE_EXCHANGE);
        let rbuf = mpi.alloc(st.len.max(1));
        let st2 = mpi.recv(comm, st.source as i32, TAG_SAMPLE_EXCHANGE, &rbuf, st.len);
        assert_eq!(st2.len, st.len);
        merged.extend(
            mpi.read(&rbuf, 0, st.len)
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        );
        mpi.free(rbuf);
    }
    mpi.waitall(reqs);
    for b in send_bufs {
        mpi.free(b);
    }

    merged.sort_unstable();
    mpi.compute(qsim::Dur::from_ns((merged.len() as u64) * 20));
    merged
}

/// Serial reference: concatenate every rank's keys and sort.
pub fn serial_reference(cfg: &SortConfig, nranks: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..nranks).flat_map(|r| generate_keys(cfg, r)).collect();
    all.sort_unstable();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmpi_core::{Placement, StackConfig, Universe};

    /// Each rank's sorted shard, in rank order.
    fn run_sort(nranks: usize, cfg: SortConfig) -> Vec<Vec<u32>> {
        let uni = Universe::paper_testbed(StackConfig::best());
        uni.run_ranks(nranks, Placement::RoundRobin, move |mpi| {
            let w = mpi.world();
            run(&mpi, &w, &cfg)
        })
        .1
    }

    #[test]
    fn sorts_globally_on_4_ranks() {
        let cfg = SortConfig::default();
        let shards = run_sort(4, cfg.clone());
        let assembled: Vec<u32> = shards.iter().flatten().copied().collect();
        assert_eq!(assembled, serial_reference(&cfg, 4));
        // Shard boundaries are ordered.
        for w in shards.windows(2) {
            if let (Some(hi), Some(lo)) = (w[0].last(), w[1].first()) {
                assert!(hi <= lo, "shard boundary out of order");
            }
        }
    }

    #[test]
    fn sorts_on_8_ranks_with_skewed_keys() {
        let cfg = SortConfig {
            keys_per_rank: 500,
            seed: 7,
        };
        let shards = run_sort(8, cfg.clone());
        let assembled: Vec<u32> = shards.into_iter().flatten().collect();
        assert_eq!(assembled, serial_reference(&cfg, 8));
    }

    #[test]
    fn single_rank_degenerates_to_local_sort() {
        let cfg = SortConfig {
            keys_per_rank: 100,
            seed: 3,
        };
        let shards = run_sort(1, cfg.clone());
        assert_eq!(shards[0], serial_reference(&cfg, 1));
    }
}
