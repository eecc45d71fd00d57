//! Property tests on the fabric: delivery is exactly-once and per-pair
//! FIFO on a fault-free network, and accounting identities hold under
//! random loss.

use bytes::Bytes;
use nexus::{Addr, Fabric, FabricConfig, Port};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every message sent on a perfect fabric arrives exactly once, in
    /// per-sender order.
    #[test]
    fn perfect_fabric_is_exactly_once_fifo(
        messages in vec((0usize..4, any::<u16>()), 1..60)
    ) {
        let fabric = Fabric::new();
        let hub = fabric.bind(Addr::new("hub")).unwrap();
        let senders: Vec<_> = (0..4)
            .map(|i| fabric.bind(Addr::new(format!("s{i}"))).unwrap())
            .collect();
        for &(s, v) in &messages {
            senders[s].send(&Addr::new("hub"), Bytes::from(v.to_le_bytes().to_vec())).unwrap();
        }
        // Collect everything; group by sender.
        let mut got: Vec<Vec<u16>> = vec![Vec::new(); 4];
        for _ in 0..messages.len() {
            let env = hub.recv().unwrap();
            let idx: usize = env.from.as_str()[1..].parse().unwrap();
            got[idx].push(u16::from_le_bytes([env.payload[0], env.payload[1]]));
        }
        prop_assert!(hub.try_recv().is_none(), "no duplicates");
        for (s, got_s) in got.iter().enumerate() {
            let sent: Vec<u16> = messages.iter().filter(|(i, _)| *i == s).map(|(_, v)| *v).collect();
            prop_assert_eq!(got_s, &sent, "per-sender FIFO for s{}", s);
        }
        prop_assert_eq!(fabric.stats().sent(), messages.len() as u64);
        prop_assert_eq!(fabric.stats().delivered(), messages.len() as u64);
        prop_assert_eq!(fabric.stats().dropped(), 0);
    }

    /// Under random loss, sent == delivered + dropped, and everything
    /// delivered was genuinely sent (no fabrication).
    #[test]
    fn lossy_fabric_accounting_balances(
        n in 1usize..120,
        loss in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let fabric = Fabric::with_config(FabricConfig {
            loss_probability: loss,
            seed,
            ..Default::default()
        });
        let rx = fabric.bind(Addr::new("rx")).unwrap();
        let tx = fabric.bind(Addr::new("tx")).unwrap();
        for i in 0..n {
            tx.send(&Addr::new("rx"), Bytes::from(vec![i as u8])).unwrap();
        }
        let mut received = 0u64;
        while rx.try_recv().is_some() {
            received += 1;
        }
        let stats = fabric.stats();
        prop_assert_eq!(stats.sent(), n as u64);
        prop_assert_eq!(stats.delivered(), received);
        prop_assert_eq!(stats.delivered() + stats.dropped(), n as u64);
    }

    /// Killing an endpoint never panics senders; every send after the kill
    /// reports PeerGone.
    #[test]
    fn kill_is_clean(n_before in 0usize..10, n_after in 1usize..10) {
        let fabric = Fabric::new();
        let rx = fabric.bind(Addr::new("victim")).unwrap();
        let tx = fabric.bind(Addr::new("tx")).unwrap();
        for _ in 0..n_before {
            tx.send(&Addr::new("victim"), Bytes::new()).unwrap();
        }
        fabric.kill(&Addr::new("victim"));
        for _ in 0..n_after {
            prop_assert!(tx.send(&Addr::new("victim"), Bytes::new()).is_err());
        }
        // The victim still drains pre-kill messages, then sees Closed.
        let mut drained = 0;
        while rx.try_recv().is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, n_before);
        prop_assert!(rx.is_closed());
    }
}
