//! `incast`: eight ranks on the paper testbed with flow control on. In each
//! round the seven senders post a seeded burst of eager messages to rank 0,
//! rank 0 computes for a seeded delay and then drains the burst with
//! `ANY_SOURCE` receives, and a barrier ends the round. An op is one
//! message; its latency runs from the send's virtual post time, stamped
//! into the payload, to the matching receive's completion.

use openmpi_core::ANY_SOURCE;
use qsim::{Dur, Pcg32};

use crate::harness::{recv, Rank};
use crate::stats::{bytes, stratified};

/// World size.
pub const RANKS: usize = 8;
/// Rounds per repetition.
pub const BLOCKS: usize = 100;
/// Messages per round, split among the senders by seed.
pub const BLOCK_OPS: usize = 56;
const SENDERS: usize = RANKS - 1;
/// Eager message sizes.
const LEN: (u64, u64) = (64, 1984);
/// Rank 0's compute delay before draining a round, ns.
const DELAY_NS: (u64, u64) = (20_000, 200_000);
/// Payload header: the send's post time (u64) and the message index (u32).
const HDR: usize = 12;
const PATTERN_LEN: usize = 4 << 10;

/// One generated message.
#[derive(Clone, Copy, Debug)]
pub struct Msg {
    /// Sending rank.
    pub sender: usize,
    /// Payload bytes, header included.
    pub len: usize,
    /// Offset of the pattern part of its payload.
    pub off: usize,
}

/// The seeded inputs.
pub struct Plan {
    /// Every message, round by round, and by sender within a round.
    pub msgs: Vec<Msg>,
    /// Rank 0's compute delay in each round, ns.
    pub delays: Vec<u64>,
    /// Seeded payload bytes.
    pub pattern: Vec<u8>,
}

/// Generate `rounds` rounds from `seed`.
pub fn plan(seed: u64, rounds: usize) -> Plan {
    let mut rng = Pcg32::new(seed);
    let mut lens = stratified(&mut rng, rounds * BLOCK_OPS, LEN.0, LEN.1);
    let delays = stratified(&mut rng, rounds, DELAY_NS.0, DELAY_NS.1);
    let mut msgs = Vec::with_capacity(rounds * BLOCK_OPS);
    for _ in 0..rounds {
        // Every sender posts at least one message; the rest fall at random.
        let mut counts = [1usize; SENDERS];
        for _ in SENDERS..BLOCK_OPS {
            counts[rng.below(SENDERS as u64) as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                let len = lens.pop().expect("one size per message") as usize;
                let off = rng.below((PATTERN_LEN - len) as u64) as usize;
                msgs.push(Msg {
                    sender: s + 1,
                    len,
                    off,
                });
            }
        }
    }
    Plan {
        msgs,
        delays,
        pattern: bytes(&mut rng, PATTERN_LEN),
    }
}

/// One rank's warm-up and timed phase.
pub fn body(p: &Plan, r: &mut Rank) {
    let (mpi, w) = (r.mpi, r.world.clone());
    let slot = LEN.1 as usize;
    let buf = mpi.alloc(BLOCK_OPS * slot);
    // Warm-up: one message from every sender.
    if r.rank() == 0 {
        for _ in 0..SENDERS {
            recv(mpi, &w, ANY_SOURCE, &buf, slot);
        }
    } else {
        crate::harness::send(mpi, &w, 0, &buf, slot);
    }
    r.warmed();
    for (round, msgs) in p.msgs.chunks(BLOCK_OPS).enumerate() {
        r.block();
        let first = round * BLOCK_OPS;
        let s = r.open("round", round);
        if r.rank() == 0 {
            drain(p, r, round, msgs, &buf);
        } else {
            burst(p, r, first, msgs, &buf);
        }
        let b = r.open("barrier", round);
        mpi.barrier(&w);
        r.close(b);
        r.close(s);
    }
}

/// A sender's part of a round: post its messages, then wait for all.
fn burst(p: &Plan, r: &mut Rank, first: usize, msgs: &[Msg], buf: &elan4::HostBuf) {
    let (mpi, w, me) = (r.mpi, r.world.clone(), r.rank());
    let slot = LEN.1 as usize;
    let mine: Vec<usize> = (0..msgs.len()).filter(|&k| msgs[k].sender == me).collect();
    let mut reqs = Vec::with_capacity(mine.len());
    for (n, &k) in mine.iter().enumerate() {
        let m = msgs[k];
        let dst = buf.slice(n * slot, m.len);
        let mut payload = Vec::with_capacity(m.len);
        payload.extend_from_slice(&mpi.now().as_ns().to_le_bytes());
        payload.extend_from_slice(&((first + k) as u32).to_le_bytes());
        payload.extend_from_slice(&p.pattern[m.off..m.off + m.len - HDR]);
        mpi.write(&dst, 0, &payload);
        let s = r.open("isend", first + k);
        reqs.push(mpi.isend(&w, 0, crate::harness::TAG, &dst, m.len));
        r.close(s);
    }
    let s = r.open("waitall", first);
    let res = mpi.waitall_result(reqs);
    r.close(s);
    if let Err(errs) = res {
        for (n, e) in errs.iter().enumerate() {
            if e.is_some() {
                r.fail(Some(first + mine[n]));
            }
        }
    }
}

/// Rank 0's part of a round: compute, then receive every message of the
/// round from any sender, checking each against the plan.
fn drain(p: &Plan, r: &mut Rank, round: usize, msgs: &[Msg], buf: &elan4::HostBuf) {
    let (mpi, w) = (r.mpi, r.world.clone());
    let first = round * BLOCK_OPS;
    mpi.compute(Dur::from_ns(p.delays[round]));
    // Per-sender order is MPI's non-overtaking order: the next message a
    // sender's stream delivers is its earliest undelivered one.
    let mut next: Vec<usize> = (0..RANKS)
        .map(|s| {
            msgs.iter()
                .position(|m| m.sender == s)
                .unwrap_or(msgs.len())
        })
        .collect();
    for _ in 0..msgs.len() {
        let s = r.open("recv", first);
        let got = recv(mpi, &w, ANY_SOURCE, buf, LEN.1 as usize);
        r.close(s);
        let Some(st) = got else {
            r.fail(None);
            continue;
        };
        let Some(k) = next.get(st.source).copied().filter(|&k| k < msgs.len()) else {
            r.fail(None);
            continue;
        };
        next[st.source] = (k + 1..msgs.len())
            .find(|&j| msgs[j].sender == st.source)
            .unwrap_or(msgs.len());
        let m = msgs[k];
        let data = mpi.read(buf, 0, st.len);
        let ok = st.len == m.len
            && data[8..HDR] == ((first + k) as u32).to_le_bytes()
            && data[HDR..] == p.pattern[m.off..m.off + m.len - HDR];
        if ok {
            let posted = u64::from_le_bytes(data[..8].try_into().expect("8-byte stamp"));
            r.latency(first + k, qsim::Time::from_ns(posted), mpi.now());
            r.landed(m.len);
        } else {
            r.fail(Some(first + k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_has_a_message_from_every_sender() {
        let p = plan(9, 10);
        assert_eq!(p.msgs.len(), 10 * BLOCK_OPS);
        for round in p.msgs.chunks(BLOCK_OPS) {
            for s in 1..RANKS {
                assert!(round.iter().any(|m| m.sender == s));
            }
            assert!(round.iter().all(|m| m.off + m.len - HDR <= PATTERN_LEN));
        }
    }
}
