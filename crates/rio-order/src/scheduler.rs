//! The Rio I/O scheduler's ORDER queue: merging and splitting (§4.5).
//!
//! Principle 1: ordered requests get a dedicated software queue per
//! stream. Principle 2 (stream → one NIC send queue) is enforced by the
//! driver layer. Principle 3: merging/splitting may *enhance* but never
//! weaken ordering guarantees — a merged request becomes atomic.
//!
//! Merging requirements (Fig. 8a):
//! 1. performed within a sole stream (each queue belongs to one stream);
//! 2. sequence numbers must be continuous — this implementation merges
//!    *whole groups only* (runs that start at a group's first member and
//!    end at a boundary), which keeps crash recovery unambiguous;
//! 3. LBAs must be non-overlapping and consecutive.
//!
//! Splitting (Fig. 8b) tags fragments with `split_idx`/`last` so that
//! recovery can rejoin them before validating the global order. A merged
//! request may subsequently be split by volume striping; a fragment is
//! never re-merged.

use crate::attr::{BlockRange, OrderingAttr, SplitInfo, StreamId};

/// One queued ordered request: the logical attribute plus an opaque
/// caller token (e.g. the block-layer request id).
#[derive(Debug, Clone, Copy)]
pub struct QueuedRequest {
    /// Logical ordering attribute from the sequencer.
    pub attr: OrderingAttr,
    /// Caller handle, returned in [`DispatchUnit::parts`].
    pub token: u64,
}

/// A dispatchable unit: either a single request or a whole-group merge.
#[derive(Debug, Clone)]
pub struct DispatchUnit {
    /// The (possibly merged) attribute to dispatch.
    pub attr: OrderingAttr,
    /// The constituent requests, in submission order.
    pub parts: Vec<QueuedRequest>,
}

impl DispatchUnit {
    /// Whether this unit is a merge of several requests.
    #[cfg(test)]
    pub fn is_merged(&self) -> bool {
        self.parts.len() > 1
    }
}

/// One flush's dispatch units without a copy: a flush drains the whole
/// queue and every unit is a run of *consecutive* queued requests, so
/// the batch is the drained request vector itself plus one
/// `(attribute, length)` span per unit. The caller owns it and hands it
/// back to every flush, which recycles both vectors.
#[derive(Debug, Default)]
pub struct DispatchBatch {
    parts: Vec<QueuedRequest>,
    /// Per unit, in order: its (possibly merged) attribute and how many
    /// of `parts` it covers. The lengths sum to `parts.len()`.
    spans: Vec<(OrderingAttr, usize)>,
}

impl DispatchBatch {
    /// The units in dispatch order: each one's attribute and its
    /// constituent requests, in submission order.
    pub fn units(&self) -> impl Iterator<Item = (&OrderingAttr, &[QueuedRequest])> {
        let mut rest = self.parts.as_slice();
        self.spans.iter().map(move |(attr, len)| {
            let (parts, tail) = rest.split_at(*len);
            rest = tail;
            (attr, parts)
        })
    }
}

/// The largest merged request, in 4 KB blocks: 128 KB, the Intel 905P
/// single-request transfer limit the paper cites (§4.5).
pub const MAX_MERGE_BLOCKS: u32 = 32;

/// Configuration for one ORDER queue.
#[derive(Debug, Clone, Copy)]
pub struct OrderQueueConfig {
    /// Whether merging is enabled (Fig. 12 evaluates Rio w/o merge).
    pub merge: bool,
    /// Upper bound on a merged request's size in blocks.
    pub max_merge_blocks: u32,
}

impl Default for OrderQueueConfig {
    fn default() -> Self {
        OrderQueueConfig {
            merge: true,
            max_merge_blocks: MAX_MERGE_BLOCKS,
        }
    }
}

/// The dedicated software queue for one stream's ordered requests.
#[derive(Debug, Clone)]
pub struct OrderQueue {
    stream: StreamId,
    queue: Vec<QueuedRequest>,
    config: OrderQueueConfig,
}

impl OrderQueue {
    /// Creates an empty queue for `stream`.
    pub fn new(stream: StreamId, config: OrderQueueConfig) -> Self {
        OrderQueue {
            stream,
            queue: Vec::new(),
            config,
        }
    }

    /// The stream this queue schedules.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a request in submission order.
    ///
    /// # Panics
    ///
    /// Panics if the attribute belongs to another stream.
    pub fn push(&mut self, attr: OrderingAttr, token: u64) {
        assert_eq!(attr.stream, self.stream, "request on wrong ORDER queue");
        self.queue.push(QueuedRequest { attr, token });
    }

    /// Whether `next` may extend a run currently ending in `last` with
    /// `run_blocks` blocks accumulated.
    fn may_extend(&self, last: &OrderingAttr, next: &OrderingAttr, run_blocks: u32) -> bool {
        // Fragments of split requests are not re-merged.
        if last.split.is_some() || next.split.is_some() {
            return false;
        }
        // LBAs must be consecutive, within the size cap.
        if !last.range.abuts(&next.range)
            || run_blocks + next.range.blocks > self.config.max_merge_blocks
        {
            return false;
        }
        // IPU and non-IPU requests never merge (different recovery).
        if last.ipu != next.ipu {
            return false;
        }
        // A FLUSH barrier is only preserved if it ends the merged unit.
        if last.flush {
            return false;
        }
        // Whole-group continuity: the next member of the same group, or
        // the first member of the next one.
        if last.boundary {
            next.seq_start.0 == last.seq_end.0 + 1 && next.member_idx == 0
        } else {
            next.seq_start == last.seq_end && next.member_idx == last.member_idx + 1
        }
    }

    /// Drains the queue into `batch` (replacing what it held), merging
    /// whole-group runs when enabled (the plug-flush point of the block
    /// layer). The queue keeps the batch's old request vector, so a
    /// batch reused across flushes allocates nothing.
    pub fn flush_into(&mut self, batch: &mut DispatchBatch) {
        batch.parts.clear();
        batch.spans.clear();
        std::mem::swap(&mut self.queue, &mut batch.parts);
        let parts = batch.parts.as_slice();
        let mut at = 0;
        while let Some(first) = parts.get(at).map(|p| p.attr) {
            // The unit as of its last whole group: the merged attribute
            // and how many requests it covers.
            let mut whole = (first, 1);
            // Candidate runs start only at a group's first member.
            if self.config.merge && first.member_idx == 0 && first.split.is_none() {
                // The run so far as one attribute; `num` counts the
                // members of its closed groups only.
                let mut run = first;
                run.num = if first.boundary { first.num } else { 0 };
                let mut last = first;
                for (extra, next) in parts[at + 1..].iter().enumerate() {
                    if !self.may_extend(&last, &next.attr, run.range.blocks) {
                        break;
                    }
                    last = next.attr;
                    run.range = run.range.join(&last.range);
                    // A merged unit must end at a boundary (whole
                    // groups): members past the last one start the next
                    // unit, and with no boundary at all the head is
                    // dispatched unmerged.
                    if last.boundary {
                        run.num += last.num;
                        run.seq_end = last.seq_end;
                        run.flush = last.flush;
                        run.boundary = true;
                        whole = (run, extra + 2);
                    }
                }
            }
            batch.spans.push(whole);
            at += whole.1;
        }
    }

    /// [`Self::flush_into`] with the units copied out into vectors of
    /// their own. The queue takes its buffer back, so it keeps its
    /// capacity across calls.
    pub fn flush(&mut self) -> Vec<DispatchUnit> {
        let mut batch = DispatchBatch::default();
        self.flush_into(&mut batch);
        let units = batch
            .units()
            .map(|(attr, parts)| DispatchUnit {
                attr: *attr,
                parts: parts.to_vec(),
            })
            .collect();
        batch.parts.clear();
        self.queue = batch.parts;
        units
    }
}

/// Splits an attribute into fragments tiling `extents` (volume striping
/// or transfer-size limits, Fig. 8b), appending them to `frags` (which
/// is *not* cleared), letting hot callers reuse one buffer across
/// dispatches and pass the ranges straight out of their extent list.
///
/// Each fragment inherits the ordering identity and gains
/// `SplitInfo { idx, last }` so recovery can rejoin them; a single
/// extent is not a split.
///
/// # Panics
///
/// Panics if `extents` do not exactly tile the attribute's range, if the
/// attribute is already a fragment, or if there are more than 256
/// fragments.
pub fn split_attr_into(
    attr: &OrderingAttr,
    extents: impl ExactSizeIterator<Item = BlockRange>,
    frags: &mut Vec<OrderingAttr>,
) {
    assert!(attr.split.is_none(), "re-splitting a fragment");
    let n = extents.len();
    assert!(n > 0, "no extents");
    assert!(n <= 256, "too many fragments");
    let mut total = 0u64;
    frags.extend(extents.enumerate().map(|(i, range)| {
        total += range.blocks as u64;
        OrderingAttr {
            range,
            split: (n > 1).then_some(SplitInfo {
                idx: i as u8,
                last: i == n - 1,
            }),
            ..*attr
        }
    }));
    assert_eq!(
        total, attr.range.blocks as u64,
        "extents do not tile the request"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Seq;
    use crate::sequencer::{Sequencer, SubmitOpts};
    use rio_sim::SimRng;
    use std::collections::VecDeque;

    /// [`split_attr_into`] with a fresh buffer per split.
    fn split_attr(attr: &OrderingAttr, extents: &[BlockRange]) -> Vec<OrderingAttr> {
        let mut frags = Vec::new();
        split_attr_into(attr, extents.iter().copied(), &mut frags);
        frags
    }

    fn queue() -> OrderQueue {
        OrderQueue::new(StreamId(0), OrderQueueConfig::default())
    }

    /// The flush algorithm as it stood before batches: pop the head,
    /// pop while the run extends, push the members past the last
    /// boundary back, copy every unit's parts into a vector of its own.
    /// Kept as the oracle [`OrderQueue::flush_into`] is checked against.
    fn oracle_flush(q: &OrderQueue) -> Vec<DispatchUnit> {
        let mut queue: VecDeque<QueuedRequest> = q.queue.iter().copied().collect();
        let mut units = Vec::new();
        while let Some(first) = queue.pop_front() {
            let mut parts = vec![first];
            let mut whole = (1, first.attr);
            if q.config.merge && first.attr.member_idx == 0 && first.attr.split.is_none() {
                let mut run_blocks = first.attr.range.blocks;
                let mut last = first.attr;
                while let Some(&next) = queue.front() {
                    if !q.may_extend(&last, &next.attr, run_blocks) {
                        break;
                    }
                    run_blocks += next.attr.range.blocks;
                    queue.pop_front();
                    parts.push(next);
                    last = next.attr;
                    if last.boundary {
                        whole = (parts.len(), last);
                    }
                }
                for tail in parts.drain(whole.0..).rev() {
                    queue.push_front(tail);
                }
            }
            let mut attr = first.attr;
            if parts.len() > 1 {
                for p in &parts[1..] {
                    attr.range = attr.range.join(&p.attr.range);
                }
                let closed = parts.iter().filter(|p| p.attr.boundary);
                attr.num = closed.map(|p| p.attr.num).sum();
                attr.seq_end = whole.1.seq_end;
                attr.member_idx = 0;
                attr.boundary = true;
                attr.flush = whole.1.flush;
            }
            units.push(DispatchUnit { attr, parts });
        }
        units
    }

    /// A unit as comparable data: its attribute and its part tokens.
    fn shape<'a>(attr: &OrderingAttr, parts: impl Iterator<Item = &'a QueuedRequest>) -> (OrderingAttr, Vec<u64>) {
        (*attr, parts.map(|p| p.token).collect())
    }

    /// 200 seeded push scripts — groups of 1–4 members, abutting and
    /// non-abutting LBAs, interior and trailing FLUSH, IPU groups,
    /// pre-split fragments, merge on and off, caps 4 and 32, flushes in
    /// the middle of a group and an open group at the tail — through
    /// one reused batch: every flush equals the oracle unit for unit.
    #[test]
    fn flush_into_matches_the_oracle_on_seeded_scripts() {
        let (mut merged_units, mut merged_spans) = (0, 0);
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let config = OrderQueueConfig {
                merge: seed % 4 != 0,
                max_merge_blocks: if seed % 2 == 0 { 32 } else { 4 },
            };
            let mut s = Sequencer::new(1, 1);
            let mut q = OrderQueue::new(StreamId(0), config);
            let mut batch = DispatchBatch::default();
            let mut check = |q: &mut OrderQueue| {
                let want = oracle_flush(q);
                let copied = q.clone().flush();
                q.flush_into(&mut batch);
                assert!(q.is_empty(), "seed {seed}: a flush drains the queue");
                let want: Vec<_> = want.iter().map(|u| shape(&u.attr, u.parts.iter())).collect();
                let got: Vec<_> = batch.units().map(|(a, p)| shape(a, p.iter())).collect();
                assert_eq!(got, want, "seed {seed}");
                let copied: Vec<_> = copied.iter().map(|u| shape(&u.attr, u.parts.iter())).collect();
                assert_eq!(copied, want, "seed {seed}: the copying wrapper");
                merged_units += want.iter().filter(|u| u.1.len() > 1).count();
                merged_spans += want.iter().filter(|u| u.0.is_merged_span()).count();
            };
            let (mut lba, mut token) = (0u64, 0u64);
            let groups = rng.between(1, 12) as u32;
            for g in 0..groups {
                let members = rng.between(1, 4) as u32;
                let ipu = rng.chance(0.1);
                // The last group may stay open: its boundary never comes.
                let open = g == groups - 1 && rng.chance(0.5);
                for m in 0..members {
                    if rng.chance(0.2) {
                        lba += rng.between(1, 5);
                    }
                    let end_group = m == members - 1 && !open;
                    let opts = SubmitOpts {
                        end_group,
                        ipu,
                        flush: end_group && rng.chance(0.2),
                    };
                    let blocks = rng.between(1, 2) as u32;
                    let attr = s.submit(StreamId(0), BlockRange::new(lba, blocks), opts);
                    lba += blocks as u64;
                    if blocks > 1 && rng.chance(0.2) {
                        let (head, tail) = (attr.range.lba, attr.range.end() - 1);
                        let cut = [BlockRange::new(head, blocks - 1), BlockRange::new(tail, 1)];
                        for frag in split_attr(&attr, &cut) {
                            q.push(frag, token);
                            token += 1;
                        }
                    } else {
                        q.push(attr, token);
                        token += 1;
                    }
                    if rng.chance(0.05) {
                        check(&mut q);
                    }
                }
            }
            check(&mut q);
        }
        assert!(
            merged_units > 200 && merged_spans > 50,
            "the scripts must exercise merging: {merged_units} merged units, {merged_spans} across groups"
        );
    }

    fn end() -> SubmitOpts {
        SubmitOpts {
            end_group: true,
            ..Default::default()
        }
    }

    /// Fig. 8(a): W1_1 (lba 1), W1_2 (lba 2-5), W2 (lba 6) merge into
    /// W1-2 covering lba 1-6 with seq range 1-2 and num 3.
    #[test]
    fn figure8a_whole_group_merge() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let w1_1 = s.submit(StreamId(0), BlockRange::new(1, 1), SubmitOpts::default());
        let w1_2 = s.submit(StreamId(0), BlockRange::new(2, 4), end());
        let w2 = s.submit(StreamId(0), BlockRange::new(6, 1), end());
        q.push(w1_1, 10);
        q.push(w1_2, 11);
        q.push(w2, 12);
        let units = q.flush();
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert!(u.is_merged());
        assert_eq!(u.attr.seq_start, Seq(1));
        assert_eq!(u.attr.seq_end, Seq(2));
        assert_eq!(u.attr.num, 3);
        assert_eq!(u.attr.range, BlockRange::new(1, 6));
        assert!(u.attr.boundary);
        assert_eq!(u.parts.len(), 3);
        assert_eq!(
            u.parts.iter().map(|p| p.token).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
    }

    #[test]
    fn non_adjacent_lbas_do_not_merge() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let a = s.submit(StreamId(0), BlockRange::new(0, 1), end());
        let b = s.submit(StreamId(0), BlockRange::new(100, 1), end());
        q.push(a, 0);
        q.push(b, 1);
        let units = q.flush();
        assert_eq!(units.len(), 2);
        assert!(!units[0].is_merged());
        assert!(!units[1].is_merged());
    }

    #[test]
    fn merge_disabled_passthrough() {
        let mut s = Sequencer::new(1, 1);
        let mut q = OrderQueue::new(
            StreamId(0),
            OrderQueueConfig {
                merge: false,
                ..Default::default()
            },
        );
        let a = s.submit(StreamId(0), BlockRange::new(0, 1), end());
        let b = s.submit(StreamId(0), BlockRange::new(1, 1), end());
        q.push(a, 0);
        q.push(b, 1);
        assert_eq!(q.flush().len(), 2);
    }

    #[test]
    fn size_cap_respected() {
        let mut s = Sequencer::new(1, 1);
        let mut q = OrderQueue::new(
            StreamId(0),
            OrderQueueConfig {
                merge: true,
                max_merge_blocks: 4,
            },
        );
        for i in 0..4 {
            let a = s.submit(StreamId(0), BlockRange::new(i * 2, 2), end());
            q.push(a, i);
        }
        let units = q.flush();
        // 2+2 fits under the 4-block cap; two merged pairs result.
        assert_eq!(units.len(), 2);
        assert!(units.iter().all(|u| u.is_merged()));
        assert!(units.iter().all(|u| u.attr.range.blocks == 4));
    }

    #[test]
    fn interior_flush_blocks_merge() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let a = s.submit(
            StreamId(0),
            BlockRange::new(0, 1),
            SubmitOpts {
                end_group: true,
                flush: true,
                ..Default::default()
            },
        );
        let b = s.submit(StreamId(0), BlockRange::new(1, 1), end());
        q.push(a, 0);
        q.push(b, 1);
        let units = q.flush();
        assert_eq!(units.len(), 2, "a FLUSH may only end a merged unit");
    }

    #[test]
    fn trailing_flush_merges_and_carries() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let a = s.submit(StreamId(0), BlockRange::new(0, 1), end());
        let b = s.submit(
            StreamId(0),
            BlockRange::new(1, 1),
            SubmitOpts {
                end_group: true,
                flush: true,
                ..Default::default()
            },
        );
        q.push(a, 0);
        q.push(b, 1);
        let units = q.flush();
        assert_eq!(units.len(), 1);
        assert!(units[0].attr.flush, "merged unit carries the final FLUSH");
    }

    #[test]
    fn ipu_never_merges_with_normal() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let a = s.submit(StreamId(0), BlockRange::new(0, 1), end());
        let b = s.submit(
            StreamId(0),
            BlockRange::new(1, 1),
            SubmitOpts {
                end_group: true,
                ipu: true,
                ..Default::default()
            },
        );
        q.push(a, 0);
        q.push(b, 1);
        assert_eq!(q.flush().len(), 2);
    }

    #[test]
    fn partial_group_tail_is_not_merged() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        // Group 1 complete; group 2 has a member but no boundary yet.
        let a = s.submit(StreamId(0), BlockRange::new(0, 1), end());
        let b = s.submit(StreamId(0), BlockRange::new(1, 1), SubmitOpts::default());
        q.push(a, 0);
        q.push(b, 1);
        let units = q.flush();
        assert_eq!(units.len(), 2, "open group cannot join a merge");
        assert!(!units[0].is_merged());
    }

    #[test]
    fn mid_group_start_is_not_merged() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        // Member 0 of group 1 dispatched earlier; members 1..2 plus the
        // next group are in the queue — the run cannot start mid-group.
        let _a = s.submit(StreamId(0), BlockRange::new(0, 1), SubmitOpts::default());
        let b = s.submit(StreamId(0), BlockRange::new(1, 1), end());
        let c = s.submit(StreamId(0), BlockRange::new(2, 1), end());
        q.push(b, 1);
        q.push(c, 2);
        let units = q.flush();
        assert_eq!(units.len(), 2);
        assert!(!units[0].is_merged());
    }

    #[test]
    fn fragments_never_remerge() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let a = s.submit(StreamId(0), BlockRange::new(0, 2), end());
        let frags = split_attr(&a, &[BlockRange::new(0, 1), BlockRange::new(1, 1)]);
        q.push(frags[0], 0);
        q.push(frags[1], 1);
        assert_eq!(q.flush().len(), 2);
    }

    #[test]
    #[should_panic(expected = "wrong ORDER queue")]
    fn wrong_stream_rejected() {
        let mut s = Sequencer::new(2, 1);
        let mut q = queue();
        let a = s.submit(StreamId(1), BlockRange::new(0, 1), end());
        q.push(a, 0);
    }

    #[test]
    fn split_attr_tiles_range() {
        let mut s = Sequencer::new(1, 1);
        let a = s.submit(StreamId(0), BlockRange::new(10, 6), end());
        let frags = split_attr(
            &a,
            &[
                BlockRange::new(10, 2),
                BlockRange::new(12, 2),
                BlockRange::new(14, 2),
            ],
        );
        assert_eq!(frags.len(), 3);
        assert_eq!(
            frags[0].split,
            Some(SplitInfo {
                idx: 0,
                last: false
            })
        );
        assert_eq!(frags[2].split, Some(SplitInfo { idx: 2, last: true }));
        assert!(frags.iter().all(|f| f.seq_start == a.seq_start));
        assert!(frags.iter().all(|f| f.member_idx == a.member_idx));
    }

    #[test]
    fn split_single_extent_is_identity() {
        let mut s = Sequencer::new(1, 1);
        let a = s.submit(StreamId(0), BlockRange::new(10, 6), end());
        let frags = split_attr(&a, &[BlockRange::new(10, 6)]);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].split, None, "a single extent is not a split");
    }

    #[test]
    #[should_panic(expected = "do not tile")]
    fn split_attr_rejects_mismatched_extents() {
        let mut s = Sequencer::new(1, 1);
        let a = s.submit(StreamId(0), BlockRange::new(10, 6), end());
        let _ = split_attr(&a, &[BlockRange::new(10, 2)]);
    }

    #[test]
    #[should_panic(expected = "re-splitting")]
    fn split_attr_rejects_fragment() {
        let mut s = Sequencer::new(1, 1);
        let a = s.submit(StreamId(0), BlockRange::new(10, 4), end());
        let frags = split_attr(&a, &[BlockRange::new(10, 2), BlockRange::new(12, 2)]);
        let _ = split_attr(&frags[0], &[BlockRange::new(10, 2)]);
    }

    /// The journal-triplet workload of the motivation experiments: an
    /// 8 KB body group followed by a 4 KB commit group halves into one
    /// NVMe-oF command (§4.1: "the number of NVMe-oF commands and
    /// associated operations is halved").
    #[test]
    fn journal_triplet_merges_into_one_command() {
        let mut s = Sequencer::new(1, 1);
        let mut q = queue();
        let jm = s.submit(StreamId(0), BlockRange::new(0, 2), end());
        let jc = s.submit(
            StreamId(0),
            BlockRange::new(2, 1),
            SubmitOpts {
                end_group: true,
                flush: true,
                ..Default::default()
            },
        );
        q.push(jm, 0);
        q.push(jc, 1);
        let units = q.flush();
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].attr.range, BlockRange::new(0, 3));
        assert!(units[0].attr.flush);
        assert_eq!(units[0].attr.num, 2);
    }
}
