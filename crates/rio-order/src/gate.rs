//! The target driver's in-order submission gate (§4.3.1).
//!
//! An RDMA NIC may reorder requests across queue pairs, but the target
//! driver must submit ordered writes to the SSD in per-server order, or
//! a FLUSH could persist a later write while an earlier one still sits
//! in a network queue (the W1_2/W3 example of §4.3.1). The gate buffers
//! early arrivals and releases requests in the per-(stream, server)
//! dispatch order stamped by the initiator.
//!
//! When a stream is pinned to a single RC queue pair (scheduler
//! Principle 2), arrivals are already in order and the gate releases
//! every request immediately — the paper's "in-order delivery removes
//! this overhead" observation is then directly visible in
//! [`SubmissionGate::buffered`] staying at zero.
//!
//! # Hot-path layout
//!
//! Dispatch ordinals are dense per stream, so early arrivals live in a
//! ring (`ring[i]` holds ordinal `next + 1 + i`) and streams live in a
//! plain `Vec` indexed by stream id — the fast path (in-order arrival,
//! nothing buffered) touches no map at all.

use std::collections::VecDeque;

use crate::attr::OrderingAttr;

/// Per-stream gate state on one target server.
#[derive(Debug, Default)]
struct GateStream {
    /// Next dispatch ordinal expected from the initiator.
    next: u64,
    /// Early arrivals: `ring[i]` buffers ordinal `next + 1 + i`.
    ring: VecDeque<Option<(OrderingAttr, u64)>>,
}

/// Reorders arrivals back into per-server submission order.
///
/// # Examples
///
/// ```
/// use rio_order::attr::{BlockRange, OrderingAttr, Seq, StreamId};
/// use rio_order::gate::SubmissionGate;
///
/// let mut gate = SubmissionGate::new();
/// let mut early = OrderingAttr::single(StreamId(0), Seq(2), BlockRange::new(1, 1));
/// early.dispatch_idx = 1;
/// let mut first = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 1));
/// first.dispatch_idx = 0;
/// // The network delivered them out of order.
/// let mut released = Vec::new();
/// gate.arrive_into(early, 20, &mut released);
/// assert!(released.is_empty());
/// gate.arrive_into(first, 10, &mut released);
/// assert_eq!(released.len(), 2);
/// assert_eq!(released[0].1, 10);
/// assert_eq!(released[1].1, 20);
/// ```
#[derive(Debug, Default)]
pub struct SubmissionGate {
    /// Indexed directly by stream id; grown on demand.
    streams: Vec<GateStream>,
    buffered_now: usize,
}

impl SubmissionGate {
    /// Creates an empty gate.
    pub fn new() -> Self {
        SubmissionGate::default()
    }

    /// Creates a gate pre-sized for stream ids `0..n_streams`, so the
    /// hot path never grows the stream table.
    pub fn with_streams(n_streams: usize) -> Self {
        let mut g = SubmissionGate::default();
        g.streams.resize_with(n_streams, GateStream::default);
        g
    }

    /// [`Self::arrive_into`] with a fresh buffer per arrival, for tests.
    #[cfg(test)]
    pub fn arrive(&mut self, attr: OrderingAttr, token: u64) -> Vec<(OrderingAttr, u64)> {
        let mut released = Vec::new();
        self.arrive_into(attr, token, &mut released);
        released
    }

    /// Handles the arrival of an ordered request: appends the requests
    /// (attribute, token) now releasable to the SSD, in order, to
    /// `released` (which is *not* cleared), letting hot callers reuse
    /// one buffer across arrivals.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or stale dispatch ordinal (the transport is
    /// reliable; duplicates indicate a protocol bug).
    pub fn arrive_into(
        &mut self,
        attr: OrderingAttr,
        token: u64,
        released: &mut Vec<(OrderingAttr, u64)>,
    ) {
        let sid = attr.stream.0 as usize;
        if sid >= self.streams.len() {
            self.streams.resize_with(sid + 1, GateStream::default);
        }
        let st = &mut self.streams[sid];
        assert!(
            attr.dispatch_idx >= st.next,
            "stale dispatch ordinal {} (next expected {})",
            attr.dispatch_idx,
            st.next
        );
        if attr.dispatch_idx == st.next {
            st.next += 1;
            released.push((attr, token));
            // Drain the contiguous run of buffered successors. After
            // each increment of `next` the ring's front slot is the one
            // for the new `next`: release it if filled, and when it is
            // an empty placeholder consume it too (its ordinal will now
            // arrive as a direct, in-order delivery).
            while let Some(Some(entry)) = st.ring.pop_front() {
                st.next += 1;
                self.buffered_now -= 1;
                released.push(entry);
            }
        } else {
            let off = (attr.dispatch_idx - st.next - 1) as usize;
            if off >= st.ring.len() {
                st.ring.resize_with(off + 1, || None);
            }
            let slot = &mut st.ring[off];
            assert!(slot.is_none(), "duplicate dispatch ordinal");
            *slot = Some((attr, token));
            self.buffered_now += 1;
        }
    }

    /// Requests currently held back waiting for predecessors.
    pub fn buffered(&self) -> usize {
        self.buffered_now
    }

    /// Drops all buffered state (crash / reconnect: a fresh gate epoch).
    pub fn reset(&mut self) {
        for st in &mut self.streams {
            st.next = 0;
            st.ring.clear();
        }
        self.buffered_now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{BlockRange, Seq, StreamId};
    use proptest::prelude::*;

    fn attr(stream: u16, idx: u64) -> OrderingAttr {
        let mut a = OrderingAttr::single(
            StreamId(stream),
            Seq(idx as u32 + 1),
            BlockRange::new(idx, 1),
        );
        a.dispatch_idx = idx;
        a
    }

    #[test]
    fn in_order_arrivals_pass_through() {
        let mut g = SubmissionGate::new();
        for i in 0..10 {
            let out = g.arrive(attr(0, i), i);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].1, i);
            assert_eq!(g.buffered(), 0, "no buffering when delivery is in order");
        }
    }

    #[test]
    fn reordered_arrivals_release_in_order() {
        let mut g = SubmissionGate::new();
        assert!(g.arrive(attr(0, 2), 2).is_empty());
        assert!(g.arrive(attr(0, 1), 1).is_empty());
        assert_eq!(g.buffered(), 2);
        let out = g.arrive(attr(0, 0), 0);
        assert_eq!(
            out.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(g.buffered(), 0);
    }

    #[test]
    fn streams_gate_independently() {
        let mut g = SubmissionGate::new();
        assert!(
            g.arrive(attr(0, 1), 1).is_empty(),
            "stream 0 waits for idx 0"
        );
        let out = g.arrive(attr(1, 0), 100);
        assert_eq!(out.len(), 1, "stream 1 is unaffected");
    }

    #[test]
    #[should_panic(expected = "duplicate dispatch ordinal")]
    fn duplicate_rejected() {
        let mut g = SubmissionGate::new();
        g.arrive(attr(0, 5), 0);
        g.arrive(attr(0, 5), 1);
    }

    #[test]
    #[should_panic(expected = "stale dispatch ordinal")]
    fn stale_rejected() {
        let mut g = SubmissionGate::new();
        g.arrive(attr(0, 0), 0);
        g.arrive(attr(0, 0), 1);
    }

    #[test]
    fn reset_starts_new_epoch() {
        let mut g = SubmissionGate::new();
        g.arrive(attr(0, 0), 0);
        g.arrive(attr(0, 5), 5);
        g.reset();
        assert_eq!(g.buffered(), 0);
        let out = g.arrive(attr(0, 0), 9);
        assert_eq!(out.len(), 1);
    }

    proptest! {
        /// Any permutation of arrivals is released in exactly dispatch
        /// order, with nothing lost.
        #[test]
        fn prop_release_order_is_dispatch_order(
            n in 1usize..50,
            seed in any::<u64>(),
        ) {
            let mut rng = rio_sim::SimRng::seed_from_u64(seed);
            let mut order: Vec<u64> = (0..n as u64).collect();
            for i in (1..order.len()).rev() {
                let j = rng.between(0, i as u64) as usize;
                order.swap(i, j);
            }
            let mut g = SubmissionGate::new();
            let mut released = Vec::new();
            for idx in order {
                released.extend(g.arrive(attr(0, idx), idx).into_iter().map(|(_, t)| t));
            }
            prop_assert_eq!(released, (0..n as u64).collect::<Vec<_>>());
            prop_assert_eq!(g.buffered(), 0);
        }
    }
}
