//! Endpoints: the mailbox handles held by executor components, and the
//! inbox every port reads from.

use crate::addr::Addr;
use crate::error::{RecvError, SendError};
use crate::fabric::FabricInner;
use crate::transport::{Port, SendHalf};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// A message as received: sender identity plus opaque payload.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Address of the endpoint that sent this message.
    pub from: Addr,
    /// Message body; `wire` frames in the executors.
    pub payload: Bytes,
}

impl Envelope {
    /// Whether this is a [`Waker`]'s wake: an empty payload, which no
    /// protocol frame is. It carries nothing; it only ends a wait.
    pub fn is_wake(&self) -> bool {
        self.payload.is_empty()
    }
}

/// The sending end of an inbox, held by whatever delivers into it (a
/// fabric binding, the hub's table of local ports, a spoke's reader).
/// Dropping the last one closes the inbox once it is read dry.
pub(crate) type InboxSender = Arc<Sender<Envelope>>;

/// A port's inbox: the receiving end of a `std::sync::mpsc` channel, and
/// a weak hold on the sending end for the port's wakers. The fabric's
/// endpoints and the hub's local ports each read their own.
pub(crate) struct Inbox {
    rx: Receiver<Envelope>,
    tx: Weak<Sender<Envelope>>,
}

impl Inbox {
    /// A new inbox and its one strong sending end.
    pub(crate) fn new() -> (InboxSender, Inbox) {
        let (tx, rx) = channel();
        let tx = Arc::new(tx);
        let inbox = Inbox {
            rx,
            tx: Arc::downgrade(&tx),
        };
        (tx, inbox)
    }

    pub(crate) fn recv(&self) -> Result<Envelope, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Closed)
    }

    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Closed,
        })
    }

    pub(crate) fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// A waker for the port at `addr` that reads this inbox.
    pub(crate) fn waker(&self, addr: &Addr) -> Waker {
        Waker {
            inbox: Weak::clone(&self.tx),
            wake: Envelope {
                from: addr.clone(),
                payload: Bytes::new(),
            },
        }
    }
}

/// Ends a wait in a port's `recv`: it puts a wake ([`Envelope::is_wake`])
/// into the port's own inbox, in this process, without touching the wire.
/// It holds the inbox weakly, so it never keeps a killed or closed port's
/// inbox open: once the port's plane lets go of it, a wake is refused and
/// the port's reader sees the inbox close.
#[derive(Clone)]
pub struct Waker {
    inbox: Weak<Sender<Envelope>>,
    /// The wake it posts, made once: an empty envelope from the port.
    wake: Envelope,
}

impl Waker {
    /// Post one wake. False once the inbox is closed.
    pub fn wake(&self) -> bool {
        self.inbox
            .upgrade()
            .is_some_and(|tx| tx.send(self.wake.clone()).is_ok())
    }
}

/// A bound mailbox on a [`crate::Fabric`].
///
/// Dropping an endpoint unbinds its address; subsequent sends to it fail
/// with [`SendError::PeerGone`], exactly like connecting to a closed socket.
pub struct Endpoint {
    tx: EndpointTx,
    inbox: Inbox,
    generation: u64,
}

/// An endpoint's send half.
#[derive(Clone)]
struct EndpointTx {
    addr: Addr,
    closed: Arc<AtomicBool>,
    fabric: Arc<FabricInner>,
}

impl SendHalf for EndpointTx {
    /// Returns as soon as the fabric accepts the message; delivery may be
    /// delayed by the fabric's configured latency.
    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(SendError::SelfClosed);
        }
        self.fabric.route(&self.addr, to, payload)
    }
}

impl Endpoint {
    pub(crate) fn new(
        addr: Addr,
        inbox: Inbox,
        generation: u64,
        closed: Arc<AtomicBool>,
        fabric: Arc<FabricInner>,
    ) -> Self {
        Endpoint {
            tx: EndpointTx {
                addr,
                closed,
                fabric,
            },
            inbox,
            generation,
        }
    }

    /// True once the endpoint has been killed via fault injection.
    pub fn is_closed(&self) -> bool {
        self.tx.closed.load(Ordering::Acquire)
    }
}

impl Port for Endpoint {
    fn addr(&self) -> &Addr {
        &self.tx.addr
    }

    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError> {
        self.tx.send(to, payload)
    }

    fn send_half(&self) -> Arc<dyn SendHalf> {
        Arc::new(self.tx.clone())
    }

    fn recv(&self) -> Result<Envelope, RecvError> {
        self.inbox.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.inbox.recv_timeout(timeout)
    }

    fn try_recv(&self) -> Option<Envelope> {
        self.inbox.try_recv()
    }

    fn waker(&self) -> Option<Waker> {
        Some(self.inbox.waker(&self.tx.addr))
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.tx.fabric.unbind(&self.tx.addr, self.generation);
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("addr", &self.tx.addr)
            .field("closed", &self.is_closed())
            .finish()
    }
}
