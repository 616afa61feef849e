//! In-order completion (Fig. 4 step ⑨).
//!
//! Ordered write requests execute out of order inside the pipeline, so
//! their internal completions arrive out of order too. The completer
//! buffers them and releases *group* completions to the application
//! strictly in sequence order per stream, so the file system only ever
//! observes an ordered state. A group is internally complete when its
//! boundary request has completed (telling us `num`) and all `num`
//! members have completed; a merged span completes as a unit.
//!
//! A merge is reported *once*, with the merged unit's attribute: the
//! ORDER queue only merges whole groups and marks every merge
//! `boundary` with `member_idx == 0`, so such a completion is credited
//! with all `num` members of its group (or, across groups, completes
//! the whole span) — callers never unroll a merge into its parts.
//!
//! Fragment (split) completions are rejoined *below* this layer by the
//! block layer — exactly as Linux completes a parent bio only when all
//! split children finish — so the completer only sees logical members.
//! Every fragment carries its unit's ordering identity, so the attribute
//! of whichever fragment finishes last serves as the unit's completion.
//!
//! # Hot-path layout
//!
//! Sequence numbers are contiguous per stream, so the pending set is a
//! *dense ring*: slot `i` of the ring is group `delivered_through + 1 +
//! i`. Lookup, insert and release are direct index arithmetic on a
//! `VecDeque` instead of the tree walk a `BTreeMap` would pay per
//! completion.

use std::collections::VecDeque;

use crate::attr::{OrderingAttr, Seq, StreamId};

/// Progress of one pending group or merged span.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// No completion has arrived for this sequence yet.
    Vacant,
    /// An unmerged group accumulating member completions.
    Group {
        members_done: u16,
        /// Total members; `None` until the boundary member completes.
        num: Option<u16>,
    },
    /// A whole-group merged span `[seq_start ..= seq_end]`; completes
    /// atomically.
    MergedSpan { seq_end: Seq, done: bool },
}

/// Per-stream completion state.
#[derive(Debug, Clone)]
struct StreamCompletions {
    /// Every group at or below this sequence has been delivered.
    delivered_through: Seq,
    /// Dense pending ring: `ring[i]` tracks group
    /// `delivered_through + 1 + i`.
    ring: VecDeque<Pending>,
    /// Buffered groups: one per occupied group slot, a merged span
    /// counting every group it covers.
    pending_count: usize,
}

impl StreamCompletions {
    fn new() -> Self {
        StreamCompletions {
            delivered_through: Seq::HEAD,
            ring: VecDeque::new(),
            pending_count: 0,
        }
    }

    /// Slot for `seq`, growing the ring with vacancies as needed.
    fn slot_mut(&mut self, seq: Seq) -> &mut Pending {
        let idx = (seq.0 - self.delivered_through.0 - 1) as usize;
        if idx >= self.ring.len() {
            self.ring.resize(idx + 1, Pending::Vacant);
        }
        &mut self.ring[idx]
    }
}

/// Buffers out-of-order completions and releases them in order.
///
/// # Examples
///
/// ```
/// use rio_order::attr::{BlockRange, OrderingAttr, Seq, StreamId};
/// use rio_order::completion::InOrderCompleter;
///
/// let mut c = InOrderCompleter::new(1);
/// let st = StreamId(0);
/// let mk = |seq: u32| {
///     let mut a = OrderingAttr::single(st, Seq(seq), BlockRange::new(0, 1));
///     a.boundary = true;
///     a.num = 1;
///     a
/// };
/// // Group 2 completes before group 1: nothing is released yet.
/// assert!(c.on_done(&mk(2)).is_empty());
/// // Group 1 completes: both are now released, in order.
/// assert_eq!(c.on_done(&mk(1)), vec![Seq(1), Seq(2)]);
/// assert_eq!(c.delivered_through(st), Seq(2));
/// ```
#[derive(Debug, Clone)]
pub struct InOrderCompleter {
    streams: Vec<StreamCompletions>,
}

impl InOrderCompleter {
    /// Creates a completer for `n_streams` streams.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams` is zero.
    pub fn new(n_streams: usize) -> Self {
        assert!(n_streams > 0, "need at least one stream");
        InOrderCompleter {
            streams: (0..n_streams).map(|_| StreamCompletions::new()).collect(),
        }
    }

    /// Creates a completer whose per-stream rings are pre-sized for a
    /// completion window of `window` groups, avoiding ring growth on
    /// the hot path.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams` is zero.
    pub fn with_window(n_streams: usize, window: usize) -> Self {
        let mut c = Self::new(n_streams);
        for st in &mut c.streams {
            st.ring.reserve(window);
        }
        c
    }

    /// Highest sequence delivered to the application on `stream`.
    pub fn delivered_through(&self, stream: StreamId) -> Seq {
        self.streams[stream.0 as usize].delivered_through
    }

    /// Whether group `seq` has been delivered on `stream`.
    pub fn is_delivered(&self, stream: StreamId, seq: Seq) -> bool {
        seq <= self.delivered_through(stream)
    }

    /// Number of groups buffered but not yet deliverable on `stream`.
    #[cfg(test)]
    pub fn pending_groups(&self, stream: StreamId) -> usize {
        self.streams[stream.0 as usize].pending_count
    }

    /// Total groups buffered but not yet deliverable, across every
    /// stream — the completion-side buffering the ordering guarantee
    /// costs at one instant (the stage-trace layer samples its peak).
    pub fn total_pending(&self) -> usize {
        self.streams.iter().map(|s| s.pending_count).sum()
    }

    /// Records the internal completion of one logical request and
    /// returns the sequence numbers that become externally deliverable,
    /// in order.
    ///
    /// # Panics
    ///
    /// Panics if the completion duplicates an already-delivered group,
    /// a group overruns its member count, or a merged span overlaps an
    /// existing pending group (protocol violations).
    pub fn on_done(&mut self, attr: &OrderingAttr) -> Vec<Seq> {
        let mut released = Vec::new();
        self.on_done_into(attr, &mut released);
        released
    }

    /// Allocation-free form of [`Self::on_done`]: appends the newly
    /// deliverable sequence numbers to `released` (which is *not*
    /// cleared), letting hot callers reuse one buffer across events.
    ///
    /// # Panics
    ///
    /// As [`Self::on_done`].
    pub fn on_done_into(&mut self, attr: &OrderingAttr, released: &mut Vec<Seq>) {
        let st = self
            .streams
            .get_mut(attr.stream.0 as usize)
            .expect("unknown stream");
        assert!(
            attr.seq_start > st.delivered_through,
            "completion for already-delivered group {:?}",
            attr.seq_start
        );

        let slot = st.slot_mut(attr.seq_start);
        let was_vacant = matches!(slot, Pending::Vacant);
        if attr.is_merged_span() {
            if was_vacant {
                *slot = Pending::MergedSpan {
                    seq_end: attr.seq_end,
                    done: false,
                };
            }
            match slot {
                Pending::MergedSpan { seq_end, done } => {
                    assert_eq!(*seq_end, attr.seq_end, "inconsistent merged span");
                    assert!(!*done, "duplicate merged-span completion");
                    *done = true;
                }
                Pending::Group { .. } => unreachable!("merged span overlaps plain group"),
                Pending::Vacant => unreachable!("slot was just filled"),
            }
        } else {
            if was_vacant {
                *slot = Pending::Group {
                    members_done: 0,
                    num: None,
                };
            }
            match slot {
                Pending::Group { members_done, num } => {
                    // A whole-group unit (first member and boundary at
                    // once) stands for every member of its group.
                    // (`max(1)`: a malformed zero count still trips the
                    // overrun check below.)
                    let whole_group = attr.boundary && attr.member_idx == 0;
                    *members_done += if whole_group { attr.num.max(1) } else { 1 };
                    if attr.boundary {
                        assert!(num.is_none(), "duplicate boundary completion");
                        *num = Some(attr.num);
                    }
                    if let Some(n) = *num {
                        assert!(
                            *members_done <= n,
                            "group {:?} overran its member count",
                            attr.seq_start
                        );
                    }
                }
                Pending::MergedSpan { .. } => unreachable!("plain completion overlaps merged span"),
                Pending::Vacant => unreachable!("slot was just filled"),
            }
        }
        if was_vacant {
            st.pending_count += (attr.seq_end.0 - attr.seq_start.0) as usize + 1;
        }

        // Release the contiguous prefix of finished groups.
        loop {
            let finished_to = match st.ring.front() {
                Some(Pending::Group {
                    members_done,
                    num: Some(n),
                }) if members_done == n => st.delivered_through.next(),
                Some(Pending::MergedSpan {
                    seq_end,
                    done: true,
                }) => *seq_end,
                _ => break,
            };
            // Drop the covered slots; a merged span's tail slots are
            // vacant (the span completes as one unit) but were counted
            // as buffered groups with its head.
            let mut s = st.delivered_through.next();
            loop {
                st.ring.pop_front();
                st.pending_count -= 1;
                released.push(s);
                if s == finished_to {
                    break;
                }
                s = s.next();
            }
            st.delivered_through = finished_to;
        }
    }

    /// Resets a stream after crash recovery: delivery resumes above
    /// `delivered_through` with no pending groups.
    pub fn reset_stream(&mut self, stream: StreamId, delivered_through: Seq) {
        let st = &mut self.streams[stream.0 as usize];
        st.delivered_through = delivered_through;
        st.ring.clear();
        st.pending_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::BlockRange;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn single(seq: u32) -> OrderingAttr {
        let mut a = OrderingAttr::single(StreamId(0), Seq(seq), BlockRange::new(0, 1));
        a.boundary = true;
        a.num = 1;
        a
    }

    fn member(seq: u32, idx: u8) -> OrderingAttr {
        let mut a = OrderingAttr::single(StreamId(0), Seq(seq), BlockRange::new(idx as u64, 1));
        a.member_idx = idx;
        a
    }

    fn boundary(seq: u32, idx: u8, num: u16) -> OrderingAttr {
        let mut a = member(seq, idx);
        a.boundary = true;
        a.num = num;
        a
    }

    fn merged(start: u32, end: u32) -> OrderingAttr {
        let mut a = OrderingAttr::single(StreamId(0), Seq(start), BlockRange::new(0, 4));
        a.seq_end = Seq(end);
        a.boundary = true;
        a.num = (end - start + 1) as u16;
        a
    }

    #[test]
    fn in_order_completions_release_immediately() {
        let mut c = InOrderCompleter::new(1);
        assert_eq!(c.on_done(&single(1)), vec![Seq(1)]);
        assert_eq!(c.on_done(&single(2)), vec![Seq(2)]);
        assert_eq!(c.delivered_through(StreamId(0)), Seq(2));
    }

    #[test]
    fn out_of_order_completions_buffer() {
        let mut c = InOrderCompleter::new(1);
        assert!(c.on_done(&single(3)).is_empty());
        assert!(c.on_done(&single(2)).is_empty());
        assert_eq!(c.pending_groups(StreamId(0)), 2);
        assert_eq!(c.on_done(&single(1)), vec![Seq(1), Seq(2), Seq(3)]);
        assert_eq!(c.pending_groups(StreamId(0)), 0);
    }

    #[test]
    fn group_waits_for_all_members() {
        let mut c = InOrderCompleter::new(1);
        // Group 1 has three members; boundary arrives in the middle.
        assert!(c.on_done(&member(1, 0)).is_empty());
        assert!(c.on_done(&boundary(1, 2, 3)).is_empty());
        assert_eq!(c.on_done(&member(1, 1)), vec![Seq(1)]);
    }

    #[test]
    fn group_waits_for_boundary_to_learn_num() {
        let mut c = InOrderCompleter::new(1);
        assert!(c.on_done(&member(1, 0)).is_empty());
        assert!(c.on_done(&member(1, 1)).is_empty());
        // Only the boundary reveals that the group had exactly 3 members.
        assert_eq!(c.on_done(&boundary(1, 2, 3)), vec![Seq(1)]);
    }

    #[test]
    fn merged_span_releases_all_covered_groups() {
        let mut c = InOrderCompleter::new(1);
        assert_eq!(c.on_done(&merged(1, 3)), vec![Seq(1), Seq(2), Seq(3)]);
        assert_eq!(c.delivered_through(StreamId(0)), Seq(3));
    }

    #[test]
    fn merged_span_blocked_by_earlier_group() {
        let mut c = InOrderCompleter::new(1);
        assert!(c.on_done(&merged(2, 4)).is_empty());
        assert_eq!(c.on_done(&single(1)), vec![Seq(1), Seq(2), Seq(3), Seq(4)]);
    }

    /// A merge inside one group is dispatched as a whole-group unit
    /// (first member and boundary at once): its single completion
    /// stands for every member.
    #[test]
    fn whole_group_unit_completes_all_its_members_at_once() {
        let mut c = InOrderCompleter::new(1);
        assert_eq!(c.on_done(&boundary(1, 0, 3)), vec![Seq(1)]);
        assert_eq!(c.pending_groups(StreamId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "already-delivered")]
    fn whole_group_unit_completes_only_once() {
        let mut c = InOrderCompleter::new(1);
        c.on_done(&boundary(1, 0, 3));
        c.on_done(&boundary(1, 0, 3));
    }

    #[test]
    fn held_back_merged_span_counts_every_group_it_covers() {
        let mut c = InOrderCompleter::new(1);
        assert!(c.on_done(&merged(2, 4)).is_empty());
        assert_eq!(c.total_pending(), 3);
        assert_eq!(c.on_done(&single(1)).len(), 4);
        assert_eq!(c.total_pending(), 0);
    }

    #[test]
    fn is_delivered_observer() {
        let mut c = InOrderCompleter::new(1);
        c.on_done(&single(1));
        assert!(c.is_delivered(StreamId(0), Seq(1)));
        assert!(!c.is_delivered(StreamId(0), Seq(2)));
    }

    #[test]
    fn streams_do_not_interfere() {
        let mut c = InOrderCompleter::new(2);
        let mut a = single(1);
        a.stream = StreamId(1);
        assert_eq!(c.on_done(&a), vec![Seq(1)]);
        assert_eq!(c.delivered_through(StreamId(0)), Seq::HEAD);
        assert_eq!(c.delivered_through(StreamId(1)), Seq(1));
    }

    #[test]
    #[should_panic(expected = "already-delivered")]
    fn duplicate_delivery_rejected() {
        let mut c = InOrderCompleter::new(1);
        c.on_done(&single(1));
        c.on_done(&single(1));
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn member_overrun_rejected_pending() {
        let mut c = InOrderCompleter::new(1);
        // Group 2 (pending behind missing group 1).
        let mut b = boundary(2, 0, 1);
        b.stream = StreamId(0);
        c.on_done(&b);
        let mut extra = member(2, 1);
        extra.stream = StreamId(0);
        c.on_done(&extra);
    }

    #[test]
    fn reset_stream_clears_pending() {
        let mut c = InOrderCompleter::new(1);
        c.on_done(&single(5));
        c.reset_stream(StreamId(0), Seq(7));
        assert_eq!(c.delivered_through(StreamId(0)), Seq(7));
        assert_eq!(c.pending_groups(StreamId(0)), 0);
        assert_eq!(c.on_done(&single(8)), vec![Seq(8)]);
    }

    /// The obviously-correct reference the dense ring is checked
    /// against: per stream, a map from group sequence to (members
    /// done, member count once the boundary told it).
    struct RefCompleter {
        streams: Vec<(u32, RefGroups)>,
    }

    /// Group sequence → (members done, member count once known).
    type RefGroups = BTreeMap<u32, (u16, Option<u16>)>;

    impl RefCompleter {
        fn on_done(&mut self, attr: &OrderingAttr) -> Vec<Seq> {
            let (delivered, groups) = &mut self.streams[attr.stream.0 as usize];
            if attr.is_merged_span() {
                // Whole groups only: every covered group is complete.
                for seq in attr.seq_start.0..=attr.seq_end.0 {
                    assert!(groups.insert(seq, (1, Some(1))).is_none());
                }
            } else {
                let g = groups.entry(attr.seq_start.0).or_insert((0, None));
                g.0 += if attr.boundary && attr.member_idx == 0 { attr.num } else { 1 };
                if attr.boundary {
                    g.1 = Some(attr.num);
                }
            }
            let mut released = Vec::new();
            while let Some(&(done, Some(num))) = groups.get(&(*delivered + 1)) {
                if done != num {
                    break;
                }
                *delivered += 1;
                groups.remove(delivered);
                released.push(Seq(*delivered));
            }
            released
        }

        fn total_pending(&self) -> usize {
            self.streams.iter().map(|(_, groups)| groups.len()).sum()
        }
    }

    /// Seeded random scripts on two streams: groups of 1–4 members laid
    /// out so the real ORDER queue dispatches some unmerged, some merged
    /// inside one group and some merged across groups; the units
    /// complete in random order, and after every completion the ring
    /// and the reference must have released the same sequences and hold
    /// back the same number of groups.
    #[test]
    fn lockstep_with_the_map_based_reference() {
        use crate::scheduler::{OrderQueue, OrderQueueConfig};
        use crate::sequencer::{Sequencer, SubmitOpts};
        use rio_sim::SimRng;
        const STREAMS: usize = 2;
        // Units seen: unmerged, merged inside one group, merged across.
        let mut kinds = [0usize; 3];
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut sequencer = Sequencer::new(STREAMS, 1);
            let mut units = Vec::new();
            let groups = rng.between(1, 12) as u32;
            for s in 0..STREAMS {
                let stream = StreamId(s as u16);
                let mut queue = OrderQueue::new(stream, OrderQueueConfig::default());
                let mut lba = 0u64;
                for _ in 0..groups {
                    let members = rng.between(1, 4) as u16;
                    for m in 0..members {
                        // A gap keeps this request from merging.
                        lba += if rng.chance(0.6) { 1 } else { 5 };
                        let opts = SubmitOpts {
                            end_group: m == members - 1,
                            ..Default::default()
                        };
                        queue.push(sequencer.submit(stream, BlockRange::new(lba, 1), opts), 0);
                    }
                    if rng.chance(0.4) {
                        units.extend(queue.flush());
                    }
                }
                units.extend(queue.flush());
            }
            for u in &units {
                kinds[match (u.is_merged(), u.attr.is_merged_span()) {
                    (false, _) => 0,
                    (true, false) => 1,
                    (true, true) => 2,
                }] += 1;
            }
            for i in (1..units.len()).rev() {
                units.swap(i, rng.between(0, i as u64) as usize);
            }
            let mut ring = InOrderCompleter::new(STREAMS);
            let mut reference = RefCompleter {
                streams: vec![(0, BTreeMap::new()); STREAMS],
            };
            let mut released = Vec::new();
            for u in &units {
                released.clear();
                ring.on_done_into(&u.attr, &mut released);
                assert_eq!(released, reference.on_done(&u.attr), "seed {seed}");
                assert_eq!(ring.total_pending(), reference.total_pending(), "seed {seed}");
            }
            for s in 0..STREAMS {
                assert_eq!(ring.delivered_through(StreamId(s as u16)), Seq(groups));
            }
            assert_eq!(ring.total_pending(), 0);
        }
        assert!(kinds.iter().all(|&n| n > 50), "script mix too thin: {kinds:?}");
    }

    proptest! {
        /// Whatever the completion arrival order, delivery is exactly
        /// 1..=n in sequence order.
        #[test]
        fn prop_delivery_is_ordered_prefix(
            n in 1u32..40,
            seed in any::<u64>(),
        ) {
            let mut rng = rio_sim::SimRng::seed_from_u64(seed);
            let mut order: Vec<u32> = (1..=n).collect();
            for i in (1..order.len()).rev() {
                let j = rng.between(0, i as u64) as usize;
                order.swap(i, j);
            }
            let mut c = InOrderCompleter::new(1);
            let mut delivered = Vec::new();
            for seq in order {
                delivered.extend(c.on_done(&single(seq)));
            }
            let expect: Vec<Seq> = (1..=n).map(Seq).collect();
            prop_assert_eq!(delivered, expect);
        }

        /// Multi-member groups with shuffled member arrival still
        /// deliver as an ordered prefix.
        #[test]
        fn prop_groups_deliver_in_order(
            sizes in proptest::collection::vec(1u16..5, 1..12),
            seed in any::<u64>(),
        ) {
            let mut rng = rio_sim::SimRng::seed_from_u64(seed);
            // Build all member completions.
            let mut events = Vec::new();
            for (g, &size) in sizes.iter().enumerate() {
                let seq = g as u32 + 1;
                for m in 0..size {
                    if m == size - 1 {
                        events.push(boundary(seq, m as u8, size));
                    } else {
                        events.push(member(seq, m as u8));
                    }
                }
            }
            for i in (1..events.len()).rev() {
                let j = rng.between(0, i as u64) as usize;
                events.swap(i, j);
            }
            let mut c = InOrderCompleter::new(1);
            let mut delivered = Vec::new();
            for e in &events {
                delivered.extend(c.on_done(e));
            }
            let expect: Vec<Seq> = (1..=sizes.len() as u32).map(Seq).collect();
            prop_assert_eq!(delivered, expect);
        }
    }
}
