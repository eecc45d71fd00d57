//! `minimpi` — a rank-based communicator, the repo's MPI substitute.
//!
//! Parsl's Extreme Scale Executor (EXEX, §4.3.2) uses mpi4py: a batch job
//! starts N ranks, rank 0 becomes the manager and the remaining ranks become
//! workers. This crate reproduces the slice of MPI that EXEX needs:
//!
//! - [`World::create`] builds an N-rank communicator whose [`Rank`] handles
//!   are moved onto threads (our stand-in for MPI processes).
//! - Point-to-point [`Rank::send`] / [`Rank::recv`] with source and tag
//!   matching (including wildcard receives, used by the EXEX manager loop).
//! - **Fate sharing**: [`Rank::abort`] poisons the whole communicator, and a
//!   rank handle dropped before [`Rank::finalize`] does the same. This
//!   models the paper's observation that "job and node failures can result
//!   in the loss of the entire MPI application" — the EXEX fault-tolerance
//!   drawback that motivates splitting allocations into several worker
//!   pools.
//!
//! # Example
//!
//! ```
//! use minimpi::{World, Tag};
//!
//! let ranks = minimpi::World::create(2);
//! let mut handles = Vec::new();
//! for rank in ranks {
//!     handles.push(std::thread::spawn(move || {
//!         if rank.rank() == 0 {
//!             rank.send(1, Tag(7), b"ping".to_vec()).unwrap();
//!             let m = rank.recv(Some(1), Some(Tag(8))).unwrap();
//!             assert_eq!(m.payload, b"pong");
//!         } else {
//!             let m = rank.recv(Some(0), Some(Tag(7))).unwrap();
//!             assert_eq!(m.payload, b"ping");
//!             rank.send(0, Tag(8), b"pong".to_vec()).unwrap();
//!         }
//!         rank.finalize();
//!     }));
//! }
//! for h in handles { h.join().unwrap(); }
//! ```

mod comm;
mod error;

pub use comm::{Message, Rank, Tag, World, ANY_SOURCE, ANY_TAG};
pub use error::MpiError;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn run_world<F>(n: usize, f: F)
    where
        F: Fn(Rank) + Send + Sync + Copy + 'static,
    {
        let ranks = World::create(n);
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|r| std::thread::spawn(move || f(r)))
            .collect();
        for h in handles {
            h.join().expect("rank thread panicked");
        }
    }

    #[test]
    fn world_assigns_sequential_ranks() {
        let ranks = World::create(4);
        let ids: Vec<usize> = ranks.iter().map(|r| r.rank()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(ranks.iter().all(|r| r.size() == 4));
        for r in ranks {
            r.finalize();
        }
    }

    #[test]
    fn ring_pass() {
        run_world(4, |rank| {
            let me = rank.rank();
            let n = rank.size();
            if me == 0 {
                rank.send(1, Tag(0), vec![1]).unwrap();
                let m = rank.recv(Some(n - 1), Some(Tag(0))).unwrap();
                assert_eq!(m.payload, vec![n as u8]);
            } else {
                let m = rank.recv(Some(me - 1), Some(Tag(0))).unwrap();
                let mut v = m.payload;
                v[0] += 1;
                rank.send((me + 1) % n, Tag(0), v).unwrap();
            }
            rank.finalize();
        });
    }

    #[test]
    fn wildcard_receive_any_source() {
        run_world(3, |rank| {
            if rank.rank() == 0 {
                let mut seen = [false; 3];
                for _ in 0..2 {
                    let m = rank.recv(ANY_SOURCE, Some(Tag(5))).unwrap();
                    seen[m.from] = true;
                }
                assert!(seen[1] && seen[2]);
            } else {
                rank.send(0, Tag(5), vec![rank.rank() as u8]).unwrap();
            }
            rank.finalize();
        });
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        run_world(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, Tag(1), b"first".to_vec()).unwrap();
                rank.send(1, Tag(2), b"second".to_vec()).unwrap();
            } else {
                // Receive in reverse tag order; the unmatched message must
                // be buffered, not lost.
                let m2 = rank.recv(Some(0), Some(Tag(2))).unwrap();
                assert_eq!(m2.payload, b"second");
                let m1 = rank.recv(Some(0), Some(Tag(1))).unwrap();
                assert_eq!(m1.payload, b"first");
            }
            rank.finalize();
        });
    }

    #[test]
    fn abort_poisons_every_rank() {
        let ranks = World::create(3);
        let mut iter = ranks.into_iter();
        let r0 = iter.next().unwrap();
        let r1 = iter.next().unwrap();
        let r2 = iter.next().unwrap();
        let h = std::thread::spawn(move || {
            // r1 blocks in recv, then gets woken by the abort.
            let err = r1.recv(Some(0), None).unwrap_err();
            assert!(matches!(err, MpiError::Aborted));
        });
        std::thread::sleep(Duration::from_millis(20));
        r2.abort();
        h.join().unwrap();
        assert!(matches!(r0.send(2, Tag(0), vec![]), Err(MpiError::Aborted)));
        r0.finalize();
        r2.finalize();
    }

    #[test]
    fn dropping_rank_without_finalize_aborts_world() {
        let ranks = World::create(2);
        let mut iter = ranks.into_iter();
        let r0 = iter.next().unwrap();
        let r1 = iter.next().unwrap();
        drop(r1); // simulates a crashed MPI process
        assert!(matches!(r0.send(1, Tag(0), vec![]), Err(MpiError::Aborted)));
        r0.finalize();
    }

    #[test]
    fn send_to_invalid_rank_is_error() {
        let ranks = World::create(1);
        let r0 = ranks.into_iter().next().unwrap();
        assert!(matches!(
            r0.send(5, Tag(0), vec![]),
            Err(MpiError::InvalidRank(5))
        ));
        r0.finalize();
    }
}
