//! Rank handles and point-to-point matching.

use crate::error::MpiError;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Message tag, used for receive matching like MPI tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag(pub u32);

/// Wildcard source for [`Rank::recv`]: match a message from any rank.
pub const ANY_SOURCE: Option<usize> = None;
/// Wildcard tag for [`Rank::recv`]: match a message with any tag.
pub const ANY_TAG: Option<Tag> = None;

/// A received point-to-point message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub from: usize,
    /// Message tag.
    pub tag: Tag,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

/// Items travelling on rank inboxes: user messages and the abort
/// broadcast.
enum Item {
    Msg(Message),
    Abort,
}

struct Shared {
    aborted: AtomicBool,
    txs: Vec<Sender<Item>>,
}

impl Shared {
    fn abort(&self) {
        if !self.aborted.swap(true, Ordering::SeqCst) {
            for tx in &self.txs {
                let _ = tx.send(Item::Abort);
            }
        }
    }
}

/// Factory for communicators.
pub struct World;

impl World {
    /// Create an `n`-rank communicator and return the rank handles in rank
    /// order, ready to be moved onto threads.
    pub fn create(n: usize) -> Vec<Rank> {
        assert!(n > 0, "communicator needs at least one rank");
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let shared = Arc::new(Shared {
            aborted: AtomicBool::new(false),
            txs,
        });
        rxs.into_iter()
            .enumerate()
            .map(|(rank, rx)| Rank {
                rank,
                size: n,
                rx,
                shared: Arc::clone(&shared),
                pending_msgs: RefCell::new(Vec::new()),
                finalized: Cell::new(false),
            })
            .collect()
    }
}

/// One rank's handle onto the communicator.
///
/// A rank handle is single-threaded (move it onto its thread); dropping it
/// without calling [`Rank::finalize`] aborts the entire communicator, the
/// way a crashed MPI process takes down the whole application.
pub struct Rank {
    rank: usize,
    size: usize,
    rx: Receiver<Item>,
    shared: Arc<Shared>,
    /// User messages received while waiting for something else.
    pending_msgs: RefCell<Vec<Message>>,
    finalized: Cell<bool>,
}

impl Rank {
    /// This rank's index, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.size
    }

    /// True once the communicator is aborted.
    pub fn is_aborted(&self) -> bool {
        self.shared.aborted.load(Ordering::SeqCst)
    }

    fn check_alive(&self) -> Result<(), MpiError> {
        if self.is_aborted() {
            Err(MpiError::Aborted)
        } else {
            Ok(())
        }
    }

    /// Send `payload` to rank `to` with `tag`.
    pub fn send(&self, to: usize, tag: Tag, payload: Vec<u8>) -> Result<(), MpiError> {
        self.check_alive()?;
        let tx = self.shared.txs.get(to).ok_or(MpiError::InvalidRank(to))?;
        tx.send(Item::Msg(Message {
            from: self.rank,
            tag,
            payload,
        }))
        .map_err(|_| MpiError::Aborted)
    }

    /// Block until a message matching `source`/`tag` arrives.
    ///
    /// `None` acts as a wildcard ([`ANY_SOURCE`] / [`ANY_TAG`]).
    pub fn recv(&self, source: Option<usize>, tag: Option<Tag>) -> Result<Message, MpiError> {
        self.recv_inner(source, tag, None)
    }

    /// [`Rank::recv`] with a deadline.
    pub fn recv_timeout(
        &self,
        source: Option<usize>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Message, MpiError> {
        self.recv_inner(source, tag, Some(timeout))
    }

    fn recv_inner(
        &self,
        source: Option<usize>,
        tag: Option<Tag>,
        timeout: Option<Duration>,
    ) -> Result<Message, MpiError> {
        self.check_alive()?;
        let matches =
            |m: &Message| source.is_none_or(|s| s == m.from) && tag.is_none_or(|t| t == m.tag);
        // Check messages buffered by earlier non-matching receives first.
        {
            let mut pending = self.pending_msgs.borrow_mut();
            if let Some(i) = pending.iter().position(&matches) {
                return Ok(pending.remove(i));
            }
        }
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            let item = match deadline {
                None => self.rx.recv().map_err(|_| MpiError::Aborted)?,
                Some(d) => {
                    let left = d.saturating_duration_since(std::time::Instant::now());
                    match self.rx.recv_timeout(left) {
                        Ok(i) => i,
                        Err(RecvTimeoutError::Timeout) => return Err(MpiError::Timeout),
                        Err(RecvTimeoutError::Disconnected) => return Err(MpiError::Aborted),
                    }
                }
            };
            match item {
                Item::Abort => {
                    self.shared.aborted.store(true, Ordering::SeqCst);
                    return Err(MpiError::Aborted);
                }
                Item::Msg(m) if matches(&m) => return Ok(m),
                Item::Msg(m) => self.pending_msgs.borrow_mut().push(m),
            }
        }
    }

    /// Mark clean shutdown for this rank. After finalize, dropping the
    /// handle does not abort the communicator.
    pub fn finalize(self) {
        self.finalized.set(true);
        // Drop runs next and sees the flag.
    }

    /// Abort the communicator: every rank's pending and future operations
    /// fail with [`MpiError::Aborted`].
    pub fn abort(&self) {
        self.shared.abort();
    }
}

impl Drop for Rank {
    fn drop(&mut self) {
        if !self.finalized.get() && !self.is_aborted() {
            // A rank vanished without finalizing — the whole "MPI job" dies.
            self.shared.abort();
        }
    }
}

impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rank")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("aborted", &self.is_aborted())
            .finish()
    }
}
