//! `nexus` — in-process addressed message fabric.
//!
//! Parsl's executors wire their components together with ZeroMQ queues
//! (§4.3): the executor client, the interchange, managers, and workers each
//! hold sockets and exchange framed messages. This crate reproduces that
//! substrate for an in-process, multi-threaded world:
//!
//! - **Endpoints** are named mailboxes ([`Addr`]) registered on a
//!   [`Fabric`]. Any endpoint can send to any address, like ZeroMQ
//!   ROUTER/DEALER identities.
//! - **Envelopes** carry the sender address and an opaque payload, so
//!   request/reply and broker patterns fall out naturally.
//! - **Latency injection** delays delivery by a configurable per-fabric
//!   duration, letting tests reproduce the paper's measured 0.07 ms /
//!   0.04 ms node-to-node RTTs.
//! - **Fault injection** kills endpoints (peer-gone errors, like a closed
//!   socket) or silently drops links (network loss), which the executors'
//!   heartbeat protocols must detect, as in §4.3.1.
//!
//! # Example
//!
//! ```
//! use nexus::{Addr, Fabric, Port};
//! use bytes::Bytes;
//!
//! let fabric = Fabric::new();
//! let a = fabric.bind(Addr::new("client")).unwrap();
//! let b = fabric.bind(Addr::new("interchange")).unwrap();
//! a.send(&Addr::new("interchange"), Bytes::from_static(b"task")).unwrap();
//! let env = b.recv().unwrap();
//! assert_eq!(env.from.as_str(), "client");
//! assert_eq!(&env.payload[..], b"task");
//! ```

mod addr;
mod endpoint;
mod error;
mod fabric;
mod latency;
mod stats;
pub mod tcp;
pub mod transport;

pub use addr::Addr;
pub use endpoint::{Endpoint, Envelope, Waker};
pub use error::{RecvError, SendError};
pub use fabric::{AddrInUse, Fabric, FabricConfig, DEFAULT_MAX_FRAME_BYTES};
pub use stats::FabricStats;
pub use tcp::{SpokeConfig, TcpHub, TcpSpoke};
pub use transport::{Port, SendHalf, Transport, TransportError};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Duration;

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn frame_budget_defaults_and_overrides() {
        assert_eq!(Fabric::new().max_frame_bytes(), DEFAULT_MAX_FRAME_BYTES);
        let fabric = Fabric::with_config(FabricConfig {
            max_frame_bytes: 512,
            ..Default::default()
        });
        assert_eq!(fabric.max_frame_bytes(), 512);
    }

    #[test]
    fn send_recv_roundtrip() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        a.send(&Addr::new("b"), payload("hi")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(env.from.as_str(), "a");
        assert_eq!(&env.payload[..], b"hi");
    }

    #[test]
    fn duplicate_bind_rejected() {
        let fabric = Fabric::new();
        let _a = fabric.bind(Addr::new("x")).unwrap();
        assert!(fabric.bind(Addr::new("x")).is_err());
    }

    #[test]
    fn send_to_unknown_address_fails() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        let err = a.send(&Addr::new("ghost"), payload("x")).unwrap_err();
        assert!(matches!(err, SendError::PeerGone(_)));
    }

    #[test]
    fn dropping_endpoint_unbinds() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        {
            let _b = fabric.bind(Addr::new("b")).unwrap();
        }
        assert!(matches!(
            a.send(&Addr::new("b"), payload("x")),
            Err(SendError::PeerGone(_))
        ));
        // The name can be reused after the endpoint is gone.
        let _b2 = fabric.bind(Addr::new("b")).unwrap();
    }

    #[test]
    fn kill_makes_peer_gone_and_closes_inbox() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        a.send(&Addr::new("b"), payload("first")).unwrap();
        fabric.kill(&Addr::new("b"));
        assert!(matches!(
            a.send(&Addr::new("b"), payload("second")),
            Err(SendError::PeerGone(_))
        ));
        // The killed endpoint's recv reports closure once drained.
        assert_eq!(&b.recv().unwrap().payload[..], b"first");
        assert!(matches!(b.recv(), Err(RecvError::Closed)));
    }

    #[test]
    fn dropped_link_loses_messages_silently() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        fabric.drop_link(&Addr::new("a"), &Addr::new("b"));
        // Send succeeds (the network ate it), but nothing arrives.
        a.send(&Addr::new("b"), payload("lost")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        assert_eq!(fabric.stats().dropped(), 1);
        // Restore and verify delivery resumes.
        fabric.restore_link(&Addr::new("a"), &Addr::new("b"));
        a.send(&Addr::new("b"), payload("found")).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"found");
    }

    #[test]
    fn latency_delays_delivery() {
        let fabric = Fabric::with_config(FabricConfig {
            latency: Duration::from_millis(30),
            ..Default::default()
        });
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        let t0 = std::time::Instant::now();
        a.send(&Addr::new("b"), payload("slow")).unwrap();
        let env = b.recv().unwrap();
        assert_eq!(&env.payload[..], b"slow");
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "elapsed {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn latency_preserves_order_between_same_pair() {
        let fabric = Fabric::with_config(FabricConfig {
            latency: Duration::from_millis(5),
            ..Default::default()
        });
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        for i in 0..20u8 {
            a.send(&Addr::new("b"), Bytes::copy_from_slice(&[i]))
                .unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.recv().unwrap().payload[0], i);
        }
    }

    #[test]
    fn stats_count_messages() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        for _ in 0..5 {
            a.send(&Addr::new("b"), payload("m")).unwrap();
        }
        for _ in 0..5 {
            b.recv().unwrap();
        }
        assert_eq!(fabric.stats().sent(), 5);
        assert_eq!(fabric.stats().delivered(), 5);
        assert_eq!(fabric.stats().dropped(), 0);
    }

    #[test]
    fn many_to_one_fan_in() {
        let fabric = Fabric::new();
        let hub = fabric.bind(Addr::new("hub")).unwrap();
        let senders: Vec<_> = (0..8)
            .map(|i| fabric.bind(Addr::new(format!("w{i}"))).unwrap())
            .collect();
        std::thread::scope(|s| {
            for (i, ep) in senders.into_iter().enumerate() {
                s.spawn(move || {
                    for j in 0..50u8 {
                        ep.send(&Addr::new("hub"), Bytes::copy_from_slice(&[i as u8, j]))
                            .unwrap();
                    }
                });
            }
            let mut seen = 0;
            while seen < 8 * 50 {
                hub.recv().unwrap();
                seen += 1;
            }
        });
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let fabric = Fabric::new();
        let a = fabric.bind(Addr::new("a")).unwrap();
        assert!(a.try_recv().is_none());
        let b = fabric.bind(Addr::new("b")).unwrap();
        b.send(&Addr::new("a"), payload("now")).unwrap();
        // Zero-latency fabric delivers synchronously.
        assert!(a.try_recv().is_some());
    }

    #[test]
    fn loss_probability_drops_some_messages() {
        let fabric = Fabric::with_config(FabricConfig {
            loss_probability: 0.5,
            seed: 42,
            ..Default::default()
        });
        let a = fabric.bind(Addr::new("a")).unwrap();
        let b = fabric.bind(Addr::new("b")).unwrap();
        for _ in 0..200 {
            a.send(&Addr::new("b"), payload("x")).unwrap();
        }
        let mut got = 0;
        while b.try_recv().is_some() {
            got += 1;
        }
        assert!(got > 50 && got < 150, "got {got}");
        assert_eq!(fabric.stats().dropped() + got, 200);
    }
}
