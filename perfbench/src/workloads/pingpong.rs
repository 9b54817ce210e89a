//! `pingpong`: two ranks, `StackConfig::best()`, one round trip
//! outstanding. Each round's size comes from a seeded mix of eager,
//! rendezvous and pipelined-rendezvous messages. Rank 1 verifies the
//! pattern and echoes the buffer back; rank 0 verifies the echo. An op is
//! one round trip; its latency is half of it.

use qsim::Pcg32;

use crate::harness::{recv, send, Rank};
use crate::stats::{bytes, shuffle, stratified};

/// World size.
pub const RANKS: usize = 2;
/// Blocks per repetition.
pub const BLOCKS: usize = 40;
/// Ops per block, in seeded order: [`MIX`] of each class. A block is one
/// wall-clock sample; a hundred ops smooth over the spread of sizes.
pub const BLOCK_OPS: usize = 100;
/// Ops of each class per block: eager, rendezvous, pipelined.
const MIX: [usize; 3] = [70, 20, 10];
/// Size range of each class: eager (up to the inline limit), rendezvous,
/// pipelined rendezvous (from `pipeline_min_len`).
const CLASSES: [(u64, u64); 3] = [(0, 1984), (4 << 10, 64 << 10), (256 << 10, 1 << 20)];
const MAX_LEN: usize = 1 << 20;
const PATTERN_LEN: usize = 2 * MAX_LEN;

/// The seeded inputs.
pub struct Plan {
    /// Message size of each round trip.
    pub sizes: Vec<usize>,
    /// Offset of each message's payload in `pattern`.
    pub offs: Vec<usize>,
    /// Seeded payload bytes.
    pub pattern: Vec<u8>,
}

/// Generate `blocks` blocks of round trips from `seed`.
pub fn plan(seed: u64, blocks: usize) -> Plan {
    let mut rng = Pcg32::new(seed);
    let mut per_class: Vec<Vec<u64>> = CLASSES
        .iter()
        .zip(MIX)
        .map(|(&(lo, hi), n)| stratified(&mut rng, blocks * n, lo, hi))
        .collect();
    let block_mix: Vec<usize> = (0..MIX.len()).flat_map(|c| vec![c; MIX[c]]).collect();
    let mut sizes = Vec::with_capacity(blocks * BLOCK_OPS);
    for _ in 0..blocks {
        let mut mix = block_mix.clone();
        shuffle(&mut rng, &mut mix);
        sizes.extend(
            mix.iter()
                .map(|&c| per_class[c].pop().expect("one size per slot") as usize),
        );
    }
    let offs = sizes
        .iter()
        .map(|&len| rng.below((PATTERN_LEN - len + 1) as u64) as usize)
        .collect();
    Plan {
        sizes,
        offs,
        pattern: bytes(&mut rng, PATTERN_LEN),
    }
}

/// One rank's warm-up and timed phase.
pub fn body(p: &Plan, r: &mut Rank) {
    let (mpi, w) = (r.mpi, r.world.clone());
    let sbuf = mpi.alloc(MAX_LEN);
    let rbuf = mpi.alloc(MAX_LEN);
    // Warm-up: the largest size of each class, so the registration cache
    // holds the pipeline's chunk mappings before timing starts.
    for &(_, hi) in &CLASSES {
        let len = hi as usize;
        if r.rank() == 0 {
            mpi.write(&sbuf, 0, &p.pattern[..len]);
            send(mpi, &w, 1, &sbuf, len);
            recv(mpi, &w, 1, &rbuf, len);
        } else {
            recv(mpi, &w, 0, &rbuf, len);
            send(mpi, &w, 0, &rbuf, len);
        }
    }
    r.warmed();
    for (i, (&len, &off)) in p.sizes.iter().zip(&p.offs).enumerate() {
        if i % BLOCK_OPS == 0 {
            r.block();
        }
        let expect = &p.pattern[off..off + len];
        let op = r.open("op", i);
        if r.rank() == 0 {
            mpi.write(&sbuf, 0, expect);
            let t = mpi.now();
            let s = r.open("send", i);
            let sent = send(mpi, &w, 1, &sbuf, len);
            r.close(s);
            let s = r.open("recv", i);
            let got = recv(mpi, &w, 1, &rbuf, len);
            r.close(s);
            r.latency(i, t, t + (mpi.now() - t) / 2);
            if sent && verify(r, got.map(|st| st.len), &rbuf, expect) {
                r.landed(len);
            } else {
                r.fail(Some(i));
            }
        } else {
            let s = r.open("recv", i);
            let got = recv(mpi, &w, 0, &rbuf, len);
            r.close(s);
            if verify(r, got.map(|st| st.len), &rbuf, expect) {
                r.landed(len);
            } else {
                r.fail(Some(i));
            }
            let s = r.open("send", i);
            if !send(mpi, &w, 0, &rbuf, len) {
                r.fail(Some(i));
            }
            r.close(s);
        }
        r.close(op);
    }
}

/// The receive completed with the expected length and payload.
fn verify(r: &Rank, got_len: Option<usize>, buf: &elan4::HostBuf, expect: &[u8]) -> bool {
    got_len == Some(expect.len()) && r.mpi.read(buf, 0, expect.len()) == expect
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_holds_the_class_mix() {
        let p = plan(3, 4);
        assert_eq!(p.sizes.len(), 400);
        for block in p.sizes.chunks(BLOCK_OPS) {
            let class = |len: usize| {
                CLASSES
                    .iter()
                    .position(|&(lo, hi)| (lo..=hi).contains(&(len as u64)))
            };
            let mut counts = [0; 3];
            for &len in block {
                counts[class(len).expect("size inside a class")] += 1;
            }
            assert_eq!(counts, MIX);
        }
        assert!(p
            .sizes
            .iter()
            .zip(&p.offs)
            .all(|(l, o)| o + l <= PATTERN_LEN));
    }
}
