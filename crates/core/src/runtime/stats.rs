//! Per-node run statistics.
//!
//! The paper's evaluation metrics (§8.1) are per-node quantities: the bytes
//! a node sends (Figures 6 and 12), how long its transactions take
//! (Figure 7), and when it goes quiet (Figures 4/5 and 8/9).  Each node
//! records them in its own [`NodeStats`], from its own engine context, so
//! both executors record in the same place and a run's report is a fold over
//! the nodes — nothing is shared, sharded or merged.

use secureblox_net::{Message, MessageKind, VirtualTime};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// Messages and bytes sent on one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LinkTraffic {
    pub(crate) messages: usize,
    pub(crate) bytes: usize,
}

/// One node's statistics, accumulated across runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeStats {
    /// Wall-clock duration of every committed transaction.
    pub(crate) transaction_durations: Vec<Duration>,
    /// Virtual time at which each committed transaction finished (the
    /// hash-join completion CDFs read the initiator's).
    pub(crate) completion_times: Vec<VirtualTime>,
    /// Virtual time at which the node last finished processing anything.
    pub(crate) last_activity: VirtualTime,
    /// Batches refused by a security constraint.
    pub(crate) rejected_batches: usize,
    /// Batches rolled back by a functional-dependency conflict.
    pub(crate) conflicting_batches: usize,
    /// Retraction deltas verified and DRed-applied.
    pub(crate) retractions_applied: usize,
    /// Traffic this node sent, per destination node index.
    pub(crate) sent_to: BTreeMap<usize, LinkTraffic>,
    /// Messages this node sent, per kind.
    pub(crate) sent_by_kind: HashMap<MessageKind, usize>,
}

impl NodeStats {
    /// A committed transaction that ran for `duration` of real compute time
    /// and finished at virtual time `finished_at`.
    pub(crate) fn record_transaction(&mut self, duration: Duration, finished_at: VirtualTime) {
        self.transaction_durations.push(duration);
        self.completion_times.push(finished_at);
        self.touch(finished_at);
    }

    /// A batch refused by a security constraint (unknown principal, bad
    /// signature, missing write access, forbidden delegation, undecryptable
    /// payload).
    pub(crate) fn record_rejection(&mut self, finished_at: VirtualTime) {
        self.rejected_batches += 1;
        self.touch(finished_at);
    }

    /// A batch rolled back by a functional-dependency conflict — duplicate
    /// data, not a security decision.
    pub(crate) fn record_conflict(&mut self, finished_at: VirtualTime) {
        self.conflicting_batches += 1;
        self.touch(finished_at);
    }

    /// A retraction delta applied: signature verified, facts deleted,
    /// derived state DRed-maintained.
    pub(crate) fn record_retraction(&mut self, finished_at: VirtualTime) {
        self.retractions_applied += 1;
        self.touch(finished_at);
    }

    /// A message this node sent, charged at its wire size.
    pub(crate) fn record_send(&mut self, message: &Message) {
        let link = self.sent_to.entry(message.to.index()).or_default();
        link.messages += 1;
        link.bytes += message.wire_size();
        *self.sent_by_kind.entry(message.kind).or_default() += 1;
    }

    fn touch(&mut self, at: VirtualTime) {
        self.last_activity = self.last_activity.max(at);
    }

    /// Bytes this node originated.  Received bytes are some other node's
    /// sent bytes, so summing sent bytes over the nodes counts every message
    /// exactly once.
    pub(crate) fn bytes_sent(&self) -> usize {
        self.sent_to.values().map(|link| link.bytes).sum()
    }

    /// Messages this node originated.
    pub(crate) fn messages_sent(&self) -> usize {
        self.sent_to.values().map(|link| link.messages).sum()
    }

    /// Messages of one kind this node originated.
    #[cfg(test)]
    pub(crate) fn messages_of_kind(&self, kind: MessageKind) -> usize {
        self.sent_by_kind.get(&kind).copied().unwrap_or(0)
    }
}

/// Every committed-transaction duration across `nodes`, ascending.
pub(crate) fn sorted_durations<'a>(nodes: impl Iterator<Item = &'a NodeStats>) -> Vec<Duration> {
    let mut all: Vec<Duration> = nodes
        .flat_map(|stats| stats.transaction_durations.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// The mean of `durations` (Figure 7); zero when there are none.
pub(crate) fn mean_duration(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    durations.iter().sum::<Duration>() / durations.len() as u32
}

/// The `q`-th percentile (0.0..=1.0) of ascending `sorted` durations by the
/// nearest-rank method; zero when there are none.
pub(crate) fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// The mean per-node sent traffic in KB — the metric of Figures 6 and 12;
/// zero for no nodes.
pub(crate) fn mean_kb(per_node_bytes: &[usize]) -> f64 {
    if per_node_bytes.is_empty() {
        return 0.0;
    }
    per_node_bytes
        .iter()
        .map(|&bytes| bytes as f64 / 1024.0)
        .sum::<f64>()
        / per_node_bytes.len() as f64
}

/// The `k` links that carried the most messages, busiest first, as
/// `(from, to, traffic)` node indices; ties break by bytes, then by link.
/// Names the hot spots when a run exhausts its message budget.
pub(crate) fn busiest_links<'a>(
    nodes: impl Iterator<Item = &'a NodeStats>,
    k: usize,
) -> Vec<(usize, usize, LinkTraffic)> {
    let mut links: Vec<(usize, usize, LinkTraffic)> = nodes
        .enumerate()
        .flat_map(|(from, stats)| {
            stats
                .sent_to
                .iter()
                .map(move |(&to, &traffic)| (from, to, traffic))
        })
        .collect();
    links.sort_by(|a, b| {
        (b.2.messages, b.2.bytes)
            .cmp(&(a.2.messages, a.2.bytes))
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    links.truncate(k);
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use secureblox_net::NodeId;

    const KINDS: [MessageKind; 4] = [
        MessageKind::Update,
        MessageKind::AnonForward,
        MessageKind::AnonBackward,
        MessageKind::Credit,
    ];

    fn send(nodes: &mut [NodeStats], from: usize, to: usize, payload: usize, kind: MessageKind) {
        let message = Message::new(
            NodeId(from as u32),
            NodeId(to as u32),
            kind,
            vec![0u8; payload],
        );
        nodes[from].record_send(&message);
    }

    /// Random sends across six nodes: sent bytes partition the total wire
    /// bytes (per node and per link), every message is counted once per
    /// kind, and the per-node KB figure is the mean of the per-node values.
    #[test]
    fn sent_traffic_partitions_the_wire_total() {
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nodes = vec![NodeStats::default(); 6];
            let mut total_wire = 0usize;
            let mut by_sender = [0usize; 6];
            let count = rng.gen_range(0..48usize);
            for _ in 0..count {
                let (from, to) = (rng.gen_range(0..6usize), rng.gen_range(0..6usize));
                let payload = rng.gen_range(0..4096usize);
                send(
                    &mut nodes,
                    from,
                    to,
                    payload,
                    KINDS[rng.gen_range(0..4usize)],
                );
                let wire = payload + secureblox_net::message::HEADER_OVERHEAD_BYTES;
                total_wire += wire;
                by_sender[from] += wire;
            }
            let per_node: Vec<usize> = nodes.iter().map(NodeStats::bytes_sent).collect();
            assert_eq!(per_node, by_sender, "seed {seed}");
            assert_eq!(per_node.iter().sum::<usize>(), total_wire, "seed {seed}");
            for stats in &nodes {
                let by_kind: usize = KINDS.iter().map(|&k| stats.messages_of_kind(k)).sum();
                assert_eq!(by_kind, stats.messages_sent());
            }
            let messages: usize = nodes.iter().map(NodeStats::messages_sent).sum();
            assert_eq!(messages, count);
            let mean = per_node.iter().map(|&b| b as f64 / 1024.0).sum::<f64>() / 6.0;
            assert!((mean_kb(&per_node) - mean).abs() < 1e-9, "seed {seed}");
        }
    }

    /// Only the sender is charged: a node that only receives sends nothing,
    /// and the sum over nodes counts each message once.
    #[test]
    fn bytes_sent_counts_the_sender_only() {
        let mut nodes = vec![NodeStats::default(); 3];
        send(&mut nodes, 0, 1, 952, MessageKind::Update);
        send(&mut nodes, 2, 0, 452, MessageKind::Credit);
        assert_eq!(nodes[0].bytes_sent(), 1000);
        assert_eq!(nodes[1].bytes_sent(), 0);
        assert_eq!(nodes[2].bytes_sent(), 500);
        assert_eq!(nodes.iter().map(NodeStats::bytes_sent).sum::<usize>(), 1500);
        assert_eq!(nodes[0].messages_of_kind(MessageKind::Update), 1);
        assert_eq!(nodes[0].messages_of_kind(MessageKind::Credit), 0);
        assert!((mean_kb(&[1024, 0, 2048]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busiest_links_order_and_tie_break() {
        let mut nodes = vec![NodeStats::default(); 3];
        send(&mut nodes, 0, 1, 52, MessageKind::Update);
        send(&mut nodes, 0, 1, 152, MessageKind::Update);
        send(&mut nodes, 1, 2, 2, MessageKind::Update);
        // Two single-message links of equal bytes: the lower link id wins.
        send(&mut nodes, 2, 0, 2, MessageKind::Update);
        assert_eq!(
            nodes[0].sent_to[&1],
            LinkTraffic {
                messages: 2,
                bytes: 300
            }
        );
        // Directed: the reverse link is untouched.
        assert!(!nodes[1].sent_to.contains_key(&0));
        let top = busiest_links(nodes.iter(), 1);
        assert_eq!(top.len(), 1);
        assert_eq!((top[0].0, top[0].1, top[0].2.messages), (0, 1, 2));
        let all = busiest_links(nodes.iter(), 10);
        let order: Vec<(usize, usize)> = all.iter().map(|&(f, t, _)| (f, t)).collect();
        assert_eq!(order, vec![(0, 1), (1, 2), (2, 0)]);
        // More bytes beats a lower link id at equal message counts.
        send(&mut nodes, 2, 0, 10, MessageKind::Update);
        send(&mut nodes, 1, 2, 0, MessageKind::Update);
        let order: Vec<(usize, usize)> = busiest_links(nodes.iter(), 3)
            .iter()
            .map(|&(f, t, _)| (f, t))
            .collect();
        assert_eq!(order, vec![(0, 1), (2, 0), (1, 2)]);
    }

    #[test]
    fn duration_percentiles_are_nearest_rank() {
        let mut nodes = vec![NodeStats::default(); 2];
        for ms in 1..=100u64 {
            nodes[(ms % 2) as usize].record_transaction(Duration::from_millis(ms), ms);
        }
        let sorted = sorted_durations(nodes.iter());
        assert_eq!(percentile(&sorted, 0.5), Duration::from_millis(50));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&sorted, 0.0), Duration::from_millis(1));
    }

    /// The average duration is the arithmetic mean of everything recorded,
    /// and every verdict advances the node's last-activity watermark.
    #[test]
    fn verdicts_and_mean_duration() {
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nodes = vec![NodeStats::default(); 8];
            let mut total = Duration::ZERO;
            let mut max_finish = 0u64;
            let count = rng.gen_range(1..64usize);
            for i in 0..count {
                let micros = rng.gen_range(1..100_000u64);
                let finish = (i as u64 + 1) * 1_000 + micros;
                nodes[rng.gen_range(0..8usize)]
                    .record_transaction(Duration::from_micros(micros), finish);
                total += Duration::from_micros(micros);
                max_finish = max_finish.max(finish);
            }
            let sorted = sorted_durations(nodes.iter());
            assert_eq!(sorted.len(), count);
            assert_eq!(mean_duration(&sorted), total / count as u32, "seed {seed}");
            let fixpoint = nodes.iter().map(|s| s.last_activity).max();
            assert_eq!(fixpoint, Some(max_finish), "seed {seed}");
        }
        let mut stats = NodeStats::default();
        stats.record_transaction(Duration::from_millis(10), 1_000);
        stats.record_rejection(2_000);
        stats.record_conflict(500);
        stats.record_retraction(9_500);
        assert_eq!(stats.completion_times, vec![1_000]);
        assert_eq!(
            (
                stats.rejected_batches,
                stats.conflicting_batches,
                stats.retractions_applied
            ),
            (1, 1, 1)
        );
        assert_eq!(stats.last_activity, 9_500);
    }

    #[test]
    fn empty_stats_are_safe() {
        let stats = NodeStats::default();
        assert_eq!(stats.bytes_sent(), 0);
        assert_eq!(stats.messages_of_kind(MessageKind::Update), 0);
        let sorted = sorted_durations(std::iter::once(&stats));
        assert_eq!(mean_duration(&sorted), Duration::ZERO);
        assert_eq!(percentile(&sorted, 0.5), Duration::ZERO);
        assert_eq!(mean_kb(&[]), 0.0);
        assert!(busiest_links(std::iter::empty(), 3).is_empty());
    }
}
