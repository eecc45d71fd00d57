//! Delay line: a background thread that holds messages for the configured
//! network latency before delivering them.

use crate::endpoint::{Envelope, InboxSender};
use crate::stats::FabricStats;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::Instant;

pub(crate) struct Delivery {
    pub env: Envelope,
    pub inbox: InboxSender,
    pub stats: FabricStats,
}

/// Heap entry ordered by earliest deadline first, FIFO within a deadline.
struct Pending {
    deadline: Instant,
    seq: u64,
    delivery: Delivery,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // (then lowest sequence number) on top.
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

pub(crate) struct DelayLine {
    tx: Sender<(Instant, Delivery)>,
}

impl DelayLine {
    pub fn spawn() -> Self {
        let (tx, rx) = channel::<(Instant, Delivery)>();
        std::thread::Builder::new()
            .name("nexus-delay".into())
            .spawn(move || {
                let mut heap: BinaryHeap<Pending> = BinaryHeap::new();
                let mut seq = 0u64;
                let mut disconnected = false;
                loop {
                    let now = Instant::now();
                    while heap.peek().is_some_and(|p| p.deadline <= now) {
                        let p = heap.pop().expect("peeked");
                        deliver(p.delivery);
                    }
                    if disconnected && heap.is_empty() {
                        return;
                    }
                    let wait = heap
                        .peek()
                        .map(|p| p.deadline.saturating_duration_since(now));
                    let received = match wait {
                        Some(d) if disconnected => {
                            // No new messages can arrive; just wait out the
                            // remaining deadlines.
                            std::thread::sleep(d);
                            continue;
                        }
                        Some(d) => rx.recv_timeout(d),
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    match received {
                        Ok((deadline, delivery)) => {
                            heap.push(Pending {
                                deadline,
                                seq,
                                delivery,
                            });
                            seq += 1;
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => disconnected = true,
                    }
                }
            })
            .expect("spawn nexus delay thread");
        DelayLine { tx }
    }

    pub fn enqueue(&self, deadline: Instant, delivery: Delivery) {
        // If the delay thread is gone the fabric is shutting down; dropping
        // the message is acceptable then.
        let _ = self.tx.send((deadline, delivery));
    }
}

fn deliver(d: Delivery) {
    if d.inbox.send(d.env).is_ok() {
        d.stats.record_delivered();
    } else {
        d.stats.record_dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_orders_by_deadline_then_seq() {
        let now = Instant::now();
        let (tx, _inbox) = crate::endpoint::Inbox::new();
        let mk = |offset_ms: u64, seq: u64| Pending {
            deadline: now + std::time::Duration::from_millis(offset_ms),
            seq,
            delivery: Delivery {
                env: Envelope {
                    from: crate::Addr::new("t"),
                    payload: bytes::Bytes::new(),
                },
                inbox: std::sync::Arc::clone(&tx),
                stats: FabricStats::default(),
            },
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(10, 0));
        heap.push(mk(5, 1));
        heap.push(mk(5, 2));
        heap.push(mk(1, 3));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|p| p.seq)).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }
}
