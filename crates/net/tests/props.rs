//! Property-based tests for the simulated network substrate.
//!
//! Every latency figure is derived from this layer, so its delivery has to
//! be exact: delay grows with size, every message is delivered once, and
//! delivery order follows virtual time.

use proptest::prelude::*;
use secureblox_net::{LatencyModel, Message, MessageKind, NodeId, SimNetwork};
use std::time::Duration;

const KINDS: [MessageKind; 4] = [
    MessageKind::Update,
    MessageKind::AnonForward,
    MessageKind::AnonBackward,
    MessageKind::Credit,
];

fn arb_sends(
    nodes: u32,
    count: usize,
) -> impl Strategy<Value = Vec<(u32, u32, usize, usize, u64)>> {
    // (from, to, payload_len, kind_index, send_time)
    proptest::collection::vec(
        (
            0..nodes,
            0..nodes,
            0usize..4096,
            0usize..KINDS.len(),
            0u64..1_000_000,
        ),
        0..count,
    )
}

proptest! {
    /// Delay is monotone in wire size and never below the propagation floor.
    #[test]
    fn latency_is_monotone_in_size(prop_us in 0u64..10_000, bw in 1u64..2_000_000_000,
                                   a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let model = LatencyModel {
            propagation: Duration::from_micros(prop_us),
            bandwidth_bytes_per_sec: bw,
        };
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(model.delay(small) <= model.delay(large));
        prop_assert!(model.delay(small) >= Duration::from_micros(prop_us));
    }

    /// Every message sent is delivered exactly once, deliveries come out in
    /// non-decreasing virtual-time order, and no delivery happens before its
    /// send time plus the propagation floor.
    #[test]
    fn every_send_is_delivered_once_in_time_order(sends in arb_sends(8, 64)) {
        let mut network = SimNetwork::new(LatencyModel::default());
        let mut expected_payload_bytes: usize = 0;
        for &(from, to, len, kind, at) in &sends {
            let msg = Message::new(NodeId(from), NodeId(to), KINDS[kind], vec![0xAB; len]);
            let deliver_at = network.send(msg, at);
            prop_assert!(deliver_at >= at + LatencyModel::default().propagation.as_nanos() as u64);
            expected_payload_bytes += len;
        }
        prop_assert_eq!(network.in_flight(), sends.len());

        let mut last_time = 0u64;
        let mut delivered = 0usize;
        let mut delivered_payload = 0usize;
        while let Some((t, msg)) = network.next_delivery() {
            prop_assert!(t >= last_time);
            last_time = t;
            delivered += 1;
            delivered_payload += msg.payload.len();
        }
        prop_assert_eq!(delivered, sends.len());
        prop_assert_eq!(delivered_payload, expected_payload_bytes);
        prop_assert!(network.is_idle());
    }
}
