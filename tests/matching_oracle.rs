//! Randomized check of MPI matching semantics, end to end through the
//! simulated stack: random tag sequences and receive selectors must match
//! exactly as the MPI-standard oracle predicts (FIFO over posted receives,
//! send order per peer), both when receives are pre-posted and when every
//! message lands in the unexpected queue first.

use openmpi_core::{Placement, StackConfig, Universe, ANY_TAG};
use qsim::Pcg32;

/// `None` = MPI_ANY_TAG selector.
type Selector = Option<u8>;

/// The MPI matching oracle: messages arrive in send order; each matches the
/// first (in post order) unmatched receive whose selector accepts it.
/// Returns `recv index -> msg index`, or `None` if any message or receive
/// goes unmatched (such cases would block and are discarded).
fn oracle(msgs: &[u8], recvs: &[Selector]) -> Option<Vec<usize>> {
    let mut assignment = vec![usize::MAX; recvs.len()];
    let mut taken = vec![false; recvs.len()];
    for (mi, tag) in msgs.iter().enumerate() {
        let slot = recvs
            .iter()
            .enumerate()
            .find(|(ri, sel)| !taken[*ri] && sel.map(|s| s == *tag).unwrap_or(true));
        match slot {
            Some((ri, _)) => {
                taken[ri] = true;
                assignment[ri] = mi;
            }
            None => return None,
        }
    }
    if taken.iter().all(|t| *t) {
        Some(assignment)
    } else {
        None
    }
}

/// Run the same scenario on the simulated stack; returns `recv index ->
/// msg index` recovered from unique payloads.
fn simulate(msgs: Vec<u8>, recvs: Vec<Selector>, preposted: bool) -> Vec<usize> {
    let uni = Universe::paper_testbed(StackConfig::best());
    let msgs2 = msgs.clone();
    let recvs2 = recvs.clone();
    let (_, mut out) = uni.run_ranks(2, Placement::RoundRobin, move |mpi| {
        let w = mpi.world();
        if mpi.rank() == 0 {
            if !preposted {
                // Let every message land unexpected first.
                mpi.compute(qsim::Dur::from_us(5));
            }
            let bufs: Vec<_> = msgs2
                .iter()
                .enumerate()
                .map(|(mi, tag)| {
                    let b = mpi.alloc(8);
                    mpi.write(&b, 0, &(mi as u64).to_le_bytes());
                    (b, *tag)
                })
                .collect();
            let reqs: Vec<_> = bufs
                .iter()
                .map(|(b, tag)| mpi.isend(&w, 1, *tag as i32, b, 8))
                .collect();
            mpi.waitall(reqs);
            Vec::new()
        } else {
            if !preposted {
                mpi.compute(qsim::Dur::from_us(400));
            }
            let bufs: Vec<_> = recvs2.iter().map(|_| mpi.alloc(8)).collect();
            let reqs: Vec<_> = recvs2
                .iter()
                .zip(&bufs)
                .map(|(sel, b)| {
                    let tag = sel.map(|t| t as i32).unwrap_or(ANY_TAG);
                    mpi.irecv(&w, 0, tag, b, 8)
                })
                .collect();
            mpi.waitall(reqs);
            bufs.iter()
                .map(|b| u64::from_le_bytes(mpi.read(b, 0, 8).try_into().unwrap()) as usize)
                .collect()
        }
    });
    out.swap_remove(1)
}

/// 24 random scenarios (each runs two full simulations), generated from a
/// fixed seed so every run exercises the identical case set.
#[test]
fn matching_follows_the_mpi_oracle() {
    let mut rng = Pcg32::new(0xE1A4_0A7C);
    let mut cases = 0;
    while cases < 24 {
        let msgs: Vec<u8> = (0..rng.range(1, 7)).map(|_| rng.below(4) as u8).collect();
        // Build receives that exactly cover the messages: one receive per
        // message, some wildcarded, in a shuffled post order.
        let mut recvs: Vec<Selector> = msgs
            .iter()
            .map(|t| if rng.chance(0.5) { None } else { Some(*t) })
            .collect();
        rng.shuffle(&mut recvs);
        let Some(expected) = oracle(&msgs, &recvs) else {
            // Would block: not a valid MPI program; skip.
            continue;
        };
        cases += 1;
        let pre = simulate(msgs.clone(), recvs.clone(), true);
        assert_eq!(
            pre, expected,
            "pre-posted receives diverged from oracle: msgs={msgs:?} recvs={recvs:?}"
        );
        let late = simulate(msgs, recvs.clone(), false);
        assert_eq!(
            late, expected,
            "unexpected-queue path diverged from oracle: recvs={recvs:?}"
        );
    }
}

#[test]
fn oracle_sanity() {
    // msgs a,b with recvs [ANY, exact-a] deadlocks per MPI semantics.
    assert_eq!(oracle(&[0, 1], &[None, Some(0)]), None);
    // msgs a,b with recvs [exact-b, ANY]: a->ANY(1), b->exact(0).
    assert_eq!(oracle(&[0, 1], &[Some(1), None]), Some(vec![1, 0]));
    // FIFO among equal wildcards.
    assert_eq!(oracle(&[5, 5], &[None, None]), Some(vec![0, 1]));
}
