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

use std::collections::VecDeque;

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
            // 128 KB of 4 KB blocks — the Intel 905P single-request
            // transfer limit the paper cites (§4.5).
            max_merge_blocks: 32,
        }
    }
}

/// The dedicated software queue for one stream's ordered requests.
#[derive(Debug, Clone)]
pub struct OrderQueue {
    stream: StreamId,
    queue: VecDeque<QueuedRequest>,
    config: OrderQueueConfig,
}

impl OrderQueue {
    /// Creates an empty queue for `stream`.
    pub fn new(stream: StreamId, config: OrderQueueConfig) -> Self {
        OrderQueue {
            stream,
            queue: VecDeque::new(),
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
        self.queue.push_back(QueuedRequest { attr, token });
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

    /// Drains the queue into dispatch units, merging whole-group runs
    /// when enabled (the plug-flush point of the block layer).
    pub fn flush(&mut self) -> Vec<DispatchUnit> {
        let mut units = Vec::new();
        while let Some(first) = self.queue.pop_front() {
            if !self.config.merge {
                units.push(DispatchUnit {
                    attr: first.attr,
                    parts: vec![first],
                });
                continue;
            }
            // Candidate runs start only at a group's first member.
            let mut parts = vec![first];
            // The run as of its last whole group: how many parts, and
            // the attribute of the one that closes it.
            let mut whole = (1, first.attr);
            if first.attr.member_idx == 0 && first.attr.split.is_none() {
                let mut run_blocks = first.attr.range.blocks;
                let mut last = first.attr;
                while let Some(&next) = self.queue.front() {
                    if !self.may_extend(&last, &next.attr, run_blocks) {
                        break;
                    }
                    run_blocks += next.attr.range.blocks;
                    self.queue.pop_front();
                    parts.push(next);
                    last = next.attr;
                    if last.boundary {
                        whole = (parts.len(), last);
                    }
                }
                // A merged unit must end at a boundary (whole groups):
                // the members past the last one go back to the head of
                // the queue, and with no boundary at all the head is
                // dispatched unmerged.
                for tail in parts.drain(whole.0..).rev() {
                    self.queue.push_front(tail);
                }
            }
            let (first_attr, last_attr) = (first.attr, whole.1);
            if parts.len() == 1 {
                units.push(DispatchUnit {
                    attr: first_attr,
                    parts,
                });
                continue;
            }
            let mut range = first_attr.range;
            let mut num_total: u16 = 0;
            for p in &parts[1..] {
                range = range.join(&p.attr.range);
            }
            for p in &parts {
                if p.attr.boundary {
                    num_total += p.attr.num;
                }
            }
            let mut merged = first_attr;
            merged.seq_end = last_attr.seq_end;
            merged.num = num_total;
            merged.member_idx = 0;
            merged.boundary = true;
            merged.flush = last_attr.flush;
            merged.range = range;
            units.push(DispatchUnit {
                attr: merged,
                parts,
            });
        }
        units
    }
}

/// Splits an attribute into fragments tiling `extents` (volume striping
/// or transfer-size limits, Fig. 8b), appending them to `frags` (which
/// is *not* cleared), letting hot callers reuse one buffer across
/// dispatches.
///
/// Each fragment inherits the ordering identity and gains
/// `SplitInfo { idx, last }` so recovery can rejoin them.
///
/// # Panics
///
/// Panics if `extents` do not exactly tile the attribute's range, if the
/// attribute is already a fragment, or if there are more than 256
/// fragments.
pub fn split_attr_into(attr: &OrderingAttr, extents: &[BlockRange], frags: &mut Vec<OrderingAttr>) {
    assert!(attr.split.is_none(), "re-splitting a fragment");
    assert!(!extents.is_empty(), "no extents");
    assert!(extents.len() <= 256, "too many fragments");
    let total: u64 = extents.iter().map(|e| e.blocks as u64).sum();
    assert_eq!(
        total, attr.range.blocks as u64,
        "extents do not tile the request"
    );
    if extents.len() == 1 {
        let mut only = *attr;
        only.range = extents[0];
        frags.push(only);
        return;
    }
    frags.extend(extents.iter().enumerate().map(|(i, e)| {
        let mut frag = *attr;
        frag.range = *e;
        frag.split = Some(SplitInfo {
            idx: i as u8,
            last: i == extents.len() - 1,
        });
        frag
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Seq;
    use crate::sequencer::{Sequencer, SubmitOpts};

    /// [`split_attr_into`] with a fresh buffer per split.
    fn split_attr(attr: &OrderingAttr, extents: &[BlockRange]) -> Vec<OrderingAttr> {
        let mut frags = Vec::new();
        split_attr_into(attr, extents, &mut frags);
        frags
    }

    fn queue() -> OrderQueue {
        OrderQueue::new(StreamId(0), OrderQueueConfig::default())
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
