//! Transport abstraction: the executors' message plane, generalized.
//!
//! The HTEX protocol loops (interchange, manager, client) are written
//! against [`Port`] — an addressed mailbox that can send to any peer by
//! [`Addr`] — and [`Transport`] — a factory that attaches ports. Two
//! implementations exist:
//!
//! - the in-proc [`Fabric`], the fast deterministic test
//!   double with latency/loss/kill fault injection, and
//! - the real TCP plane ([`crate::tcp`]), hub-and-spoke sockets carrying
//!   `wire` length-prefixed frames between processes.
//!
//! Every protocol loop runs unchanged over either plane.

use crate::addr::Addr;
use crate::endpoint::{Envelope, Waker};
use crate::error::{RecvError, SendError};
use crate::fabric::Fabric;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// The send half of a [`Port`]: any thread of the port's owner may hold
/// one and send through it while the port's one reader waits on the port.
pub trait SendHalf: Send + Sync {
    /// Send `payload` to the peer named `to`, from the port's address.
    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError>;
}

/// An addressed mailbox on some message plane.
///
/// The fabric's [`crate::Endpoint`] is one, and so are the TCP plane's
/// ports ([`crate::tcp`]). Delivery guarantees are those of the underlying
/// plane: FIFO between a given sender/receiver pair, no delivery guarantee
/// across a link drop. A port has one reader: a protocol loop waits on
/// nothing but its port. Other threads send through its
/// [`Port::send_half`], and a port whose reader waits on an inbox in this
/// process can also be woken through its [`Port::waker`].
pub trait Port: Send {
    /// This port's own address.
    fn addr(&self) -> &Addr;

    /// Send `payload` to the peer named `to`.
    fn send(&self, to: &Addr, payload: Bytes) -> Result<(), SendError>;

    /// A send half of this port, for threads other than its reader.
    fn send_half(&self) -> Arc<dyn SendHalf>;

    /// Block until a message arrives.
    fn recv(&self) -> Result<Envelope, RecvError>;

    /// Block up to `timeout` for a message.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError>;

    /// Take a message if one is already here, without blocking.
    fn try_recv(&self) -> Option<Envelope>;

    /// A handle that ends a wait in this port's `recv` from another
    /// thread of this process, without touching the wire. `None` where no
    /// such handle can exist: a TCP spoke's reader blocks in its socket's
    /// `read`, which no other thread can end.
    fn waker(&self) -> Option<Waker> {
        None
    }

    /// Link incarnation counter: bumped each time the underlying link is
    /// re-established. In-proc endpoints never reconnect, so the default
    /// is a constant. Managers watch this to re-register after a drop.
    fn generation(&self) -> u64 {
        0
    }
}

/// Failure to attach a port (name collision, socket error).
#[derive(Debug, Clone)]
pub struct TransportError(pub String);

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport: {}", self.0)
    }
}

impl std::error::Error for TransportError {}

/// A message plane that can attach named ports.
pub trait Transport: Send + Sync {
    /// Bind a mailbox at `addr` and return it as a boxed [`Port`].
    fn attach(&self, addr: Addr) -> Result<Box<dyn Port>, TransportError>;

    /// Largest frame the plane will carry; batchers chunk to this budget.
    fn max_frame_bytes(&self) -> usize;
}

impl Transport for Fabric {
    fn attach(&self, addr: Addr) -> Result<Box<dyn Port>, TransportError> {
        self.bind(addr)
            .map(|ep| Box::new(ep) as Box<dyn Port>)
            .map_err(|e| TransportError(e.to_string()))
    }

    fn max_frame_bytes(&self) -> usize {
        Fabric::max_frame_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_attaches_ports() {
        let fabric = Fabric::new();
        let a = fabric.attach(Addr::new("a")).unwrap();
        let b = fabric.attach(Addr::new("b")).unwrap();
        assert_eq!(a.generation(), 0);
        a.send(&Addr::new("b"), Bytes::from_static(b"ping"))
            .unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(&env.payload[..], b"ping");
        assert!(fabric.attach(Addr::new("a")).is_err());
    }

    /// A waker ends a wait with a wake and never keeps a killed port's
    /// inbox open: the wake is refused and the reader sees the close.
    #[test]
    fn a_waker_keeps_no_killed_inbox_open() {
        let fabric = Fabric::new();
        let a = fabric.attach(Addr::new("a")).unwrap();
        let waker = a.waker().expect("a fabric endpoint can be woken");
        assert!(waker.wake());
        assert!(a.recv().unwrap().is_wake());
        fabric.kill(&Addr::new("a"));
        assert!(!waker.wake());
        let closed = a.recv_timeout(Duration::from_secs(5));
        assert!(matches!(closed, Err(RecvError::Closed)), "{closed:?}");
    }
}
