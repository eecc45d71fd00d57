//! The doorbell: how the client wakes the interchange, a broker loop that
//! waits on its port alone (§4.3.1: the interchange is one event loop
//! over its sockets).
//!
//! The interchange blocks only in its port's `recv_timeout`. The client's
//! request queue is a std queue beside the port. After a push, the client
//! rings: it posts one wake into the port's inbox ([`nexus::Waker`]) if
//! the loop is parked, wants this push, and has no wake pending. One
//! atomic word holds that state, so a push into a busy loop costs no
//! syscall.
//!
//! No wake-up is lost: the loop publishes "parked" and then looks at its
//! queue once more before it blocks, and the producer pushes and then
//! reads the word. With a `SeqCst` fence on both sides, either the loop's
//! look finds the push or the producer's read finds "parked".

use nexus::Waker;
use std::sync::atomic::{fence, AtomicU8, Ordering::SeqCst};

/// The loop is blocked, or about to block, on its port.
const PARKED: u8 = 1;
/// Parked with tasks no manager can take: another task is no reason to
/// wake, only a control request is.
const SATURATED: u8 = 2;
/// A wake is on its way; later pushes stay silent.
const RUNG: u8 = 4;

pub(crate) struct Doorbell {
    state: AtomicU8,
    waker: Waker,
}

impl Doorbell {
    pub(crate) fn new(waker: Waker) -> Self {
        Doorbell {
            state: AtomicU8::new(0),
            waker,
        }
    }

    /// After a push: wake the loop if it is parked, the push is `urgent`
    /// or the loop not saturated, and no wake is pending.
    pub(crate) fn ring(&self, urgent: bool) {
        fence(SeqCst);
        let mut state = self.state.load(SeqCst);
        while state & PARKED != 0 && state & RUNG == 0 && (urgent || state & SATURATED == 0) {
            match self
                .state
                .compare_exchange_weak(state, state | RUNG, SeqCst, SeqCst)
            {
                Ok(_) => {
                    self.waker.wake();
                    return;
                }
                Err(now) => state = now,
            }
        }
    }

    /// Before the loop blocks. It must look at its queue once more after
    /// this, and block only if that finds nothing.
    pub(crate) fn park(&self, saturated: bool) {
        self.state
            .store(PARKED | if saturated { SATURATED } else { 0 }, SeqCst);
        fence(SeqCst);
    }

    /// The loop is awake: pushes ring nothing until it parks again.
    pub(crate) fn unpark(&self) {
        self.state.store(0, SeqCst);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// Run `f` on a thread of its own and fail if it has not returned
    /// within `limit`: a lost wake-up fails its test instead of hanging
    /// it. A hung `f` is left behind, detached.
    pub(crate) fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        if let Err(e) = finished.recv_timeout(limit) {
            panic!("the test body did not return within {limit:?}: {e}");
        }
    }
}
