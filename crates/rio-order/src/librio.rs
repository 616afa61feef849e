//! The `librio` programming model (§4.6): `rio_setup`, `rio_submit`,
//! `rio_wait` over an ordered block device abstraction.
//!
//! This is the paper's user-facing API shape, bundling the sequencer,
//! per-stream ORDER queues and the in-order completer into one object.
//! It is transport-agnostic: `rio_submit` stamps and queues a request,
//! [`Rio::flush_into`] (the block layer's plug-flush point) hands back
//! the dispatch units the caller's driver must send, and the caller feeds
//! internal completions back through [`Rio::on_done`]. The simulator's
//! initiator driver (`rio_stack::Cluster`, one [`Rio`] per initiator
//! host) is exactly such a caller; a real transport plugs in the same
//! way.
//!
//! ```
//! use rio_order::librio::{Rio, RioSetup};
//! use rio_order::attr::{BlockRange, StreamId};
//! use rio_order::DispatchBatch;
//!
//! // rio_setup: 2 streams over 1 target server.
//! let mut rio = Rio::setup(RioSetup { streams: 2, servers: 1, merge: true, window: 16 });
//! let st = StreamId(0);
//! // rio_submit: journal body, then commit with FLUSH + group end.
//! rio.submit(st, BlockRange::new(0, 2), false, false);
//! let commit = rio.submit(st, BlockRange::new(2, 1), true, true);
//! // The plug flushes: everything queued on the stream is scheduled,
//! // into a batch the driver keeps and lends to every flush.
//! let mut batch = DispatchBatch::default();
//! rio.flush_into(st, &mut batch);
//! let units: Vec<_> = batch.units().collect();
//! assert_eq!(units.len(), 1, "body and commit merged into one unit");
//! // The driver dispatches units; completions come back asynchronously,
//! // one per unit — a merge is reported with the merged attribute.
//! let (merged, parts) = units[0];
//! assert_eq!(parts.len(), 2);
//! rio.on_done(merged);
//! // rio_wait: the group is durable and delivered in order.
//! assert!(rio.wait(st, commit.seq_end));
//! ```

use crate::attr::{BlockRange, OrderingAttr, Seq, ServerId, StreamId};
use crate::completion::InOrderCompleter;
use crate::scheduler::{DispatchBatch, OrderQueue, OrderQueueConfig};
use crate::sequencer::{Sequencer, SubmitOpts};

/// `rio_setup` parameters: stream count ("ideally the number of
/// independent transactions allowed", §4.6) and target servers.
#[derive(Debug, Clone, Copy)]
pub struct RioSetup {
    /// Number of independent ordered streams.
    pub streams: usize,
    /// Number of target servers backing the ordered device.
    pub servers: usize,
    /// Whether the ORDER queues merge consecutive groups.
    pub merge: bool,
    /// Groups per stream the completer's ring is pre-sized for (the
    /// caller's in-flight bound), so the hot path never grows it.
    pub window: usize,
}

/// The ordered block device handle.
pub struct Rio {
    sequencer: Sequencer,
    completer: InOrderCompleter,
    queues: Vec<OrderQueue>,
}

impl Rio {
    /// `rio_setup`: associates streams with the (networked) devices.
    ///
    /// # Panics
    ///
    /// Panics on zero streams or servers.
    pub fn setup(cfg: RioSetup) -> Self {
        Rio {
            sequencer: Sequencer::new(cfg.streams, cfg.servers),
            completer: InOrderCompleter::with_window(cfg.streams, cfg.window),
            queues: (0..cfg.streams)
                .map(|s| {
                    OrderQueue::new(
                        StreamId(s as u16),
                        OrderQueueConfig {
                            merge: cfg.merge,
                            ..Default::default()
                        },
                    )
                })
                .collect(),
        }
    }

    /// Number of configured streams.
    pub fn n_streams(&self) -> usize {
        self.sequencer.n_streams()
    }

    /// `rio_submit`: stamps one ordered write on `stream`, queues it on
    /// the stream's ORDER queue and returns its logical attribute.
    ///
    /// `end_group` marks the final request of the group (the paper's
    /// boundary flag); `flush` embeds a FLUSH for durability.
    pub fn submit(
        &mut self,
        stream: StreamId,
        range: BlockRange,
        end_group: bool,
        flush: bool,
    ) -> OrderingAttr {
        let attr = self.sequencer.submit(
            stream,
            range,
            SubmitOpts {
                end_group,
                ipu: false,
                flush,
            },
        );
        self.queues[stream.0 as usize].push(attr, 0);
        attr
    }

    /// Drains `stream`'s ORDER queue into the dispatch units ready for
    /// the driver (the plug-flush point), replacing what `batch` held.
    /// Everything queued since the last flush is one merge window, so
    /// consecutive whole groups merge across group boundaries
    /// (Fig. 8a). A driver keeps one batch and lends it to every flush.
    pub fn flush_into(&mut self, stream: StreamId, batch: &mut DispatchBatch) {
        self.queues[stream.0 as usize].flush_into(batch);
    }

    /// [`Self::flush_into`] with the units copied out of a fresh batch.
    #[cfg(test)]
    pub fn flush(&mut self, stream: StreamId) -> Vec<crate::DispatchUnit> {
        self.queues[stream.0 as usize].flush()
    }

    /// Stamps the per-server part of a unit fragment at dispatch time
    /// (the initiator driver calls this once per physical request).
    pub fn stamp(&mut self, attr: &mut OrderingAttr, server: ServerId) {
        self.sequencer.stamp_dispatch(attr, server);
    }

    /// Feeds an internal completion back; returns the group sequences
    /// that become externally visible, in order.
    pub fn on_done(&mut self, attr: &OrderingAttr) -> Vec<Seq> {
        self.completer.on_done(attr)
    }

    /// Allocation-free form of [`Self::on_done`]: appends to `released`
    /// (which is *not* cleared).
    pub fn on_done_into(&mut self, attr: &OrderingAttr, released: &mut Vec<Seq>) {
        self.completer.on_done_into(attr, released);
    }

    /// `rio_wait`: whether group `seq` has been delivered on `stream`.
    ///
    /// A driver integration parks the caller until this turns true; the
    /// polling loop of §4.6 maps onto repeated calls.
    pub fn wait(&self, stream: StreamId, seq: Seq) -> bool {
        self.completer.is_delivered(stream, seq)
    }

    /// Highest delivered sequence per stream (durability horizon for
    /// PMR-log recycling).
    pub fn delivered_through(&self, stream: StreamId) -> Seq {
        self.completer.delivered_through(stream)
    }

    /// Groups completed internally but held back for in-order delivery,
    /// across every stream.
    pub fn total_pending(&self) -> usize {
        self.completer.total_pending()
    }

    /// Re-arms `stream` after crash recovery: everything through
    /// `resume` counts as delivered, the next group opens at
    /// `resume + 1`, and the per-server chains restart from
    /// `resume_prev` (missing entries restart from the head). Marks
    /// above `resume` name groups that rolled back and will redispatch
    /// under new numbers — a fresh gate waiting on one would buffer
    /// forever — so they are clamped to `resume`.
    pub fn reset_stream(&mut self, stream: StreamId, resume: Seq, resume_prev: &[Seq]) {
        debug_assert!(
            self.queues[stream.0 as usize].is_empty(),
            "reset with unflushed requests queued"
        );
        let prev: Vec<Seq> = resume_prev.iter().map(|&q| q.min(resume)).collect();
        self.sequencer.reset_stream(stream, resume.next(), &prev);
        self.completer.reset_stream(stream, resume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rio(streams: usize, servers: usize, merge: bool) -> Rio {
        Rio::setup(RioSetup {
            streams,
            servers,
            merge,
            window: 8,
        })
    }

    #[test]
    fn setup_submit_wait_round_trip() {
        let mut rio = rio(1, 2, false);
        let st = StreamId(0);
        rio.submit(st, BlockRange::new(0, 1), true, false);
        let units = rio.flush(st);
        assert_eq!(units.len(), 1);
        let mut frag = units[0].attr;
        rio.stamp(&mut frag, ServerId(1));
        assert_eq!(frag.server, ServerId(1));
        assert!(!rio.wait(st, Seq(1)), "not delivered yet");
        let delivered = rio.on_done(&units[0].attr);
        assert_eq!(delivered, vec![Seq(1)]);
        assert!(rio.wait(st, Seq(1)));
    }

    #[test]
    fn groups_accumulate_until_boundary() {
        let mut rio = rio(1, 1, true);
        let st = StreamId(0);
        rio.submit(st, BlockRange::new(0, 1), false, false);
        rio.submit(st, BlockRange::new(1, 1), false, false);
        rio.submit(st, BlockRange::new(2, 1), true, true);
        let units = rio.flush(st);
        assert_eq!(units.len(), 1, "whole group merges into one unit");
        assert_eq!(units[0].attr.num, 3);
        assert!(units[0].attr.flush);
        assert!(rio.flush(st).is_empty(), "a flush drains the queue");
    }

    #[test]
    fn streams_wait_independently() {
        let mut rio = rio(2, 1, false);
        rio.submit(StreamId(0), BlockRange::new(0, 1), true, false);
        rio.submit(StreamId(1), BlockRange::new(8, 1), true, false);
        let u0 = rio.flush(StreamId(0));
        let _u1 = rio.flush(StreamId(1));
        rio.on_done(&u0[0].attr);
        assert!(rio.wait(StreamId(0), Seq(1)));
        assert!(!rio.wait(StreamId(1), Seq(1)), "stream 1 still in flight");
    }

    #[test]
    fn one_flush_merges_across_group_boundaries() {
        // Fig. 8a / Fig. 12 through the paper's own API: two adjacent
        // single-block groups queued before one flush leave as one
        // command, and its completion delivers both groups in order.
        let mut rio = rio(1, 1, true);
        let st = StreamId(0);
        rio.submit(st, BlockRange::new(4, 1), true, false);
        rio.submit(st, BlockRange::new(5, 1), true, false);
        let units = rio.flush(st);
        assert_eq!(units.len(), 1, "two groups, one dispatch unit");
        assert_eq!(units[0].attr.range, BlockRange::new(4, 2));
        assert_eq!((units[0].attr.seq_start, units[0].attr.seq_end), (Seq(1), Seq(2)));
        let mut delivered = Vec::new();
        rio.on_done_into(&units[0].attr, &mut delivered);
        assert_eq!(delivered, vec![Seq(1), Seq(2)]);
        assert_eq!(rio.total_pending(), 0);
    }

    #[test]
    fn reset_stream_rearms_sequencer_and_completer_together() {
        let mut rio = rio(1, 2, false);
        let st = StreamId(0);
        for lba in 0..3 {
            rio.submit(st, BlockRange::new(lba, 1), true, false);
        }
        let units = rio.flush(st);
        // Group 3 completes out of order and is held back; group 1
        // is delivered; group 2 never completes.
        rio.on_done(&units[2].attr);
        assert_eq!(rio.on_done(&units[0].attr), vec![Seq(1)]);
        assert_eq!(rio.total_pending(), 1);
        // Recovery kept groups 1-2; server 1's chain mark (4) names a
        // rolled-back group and must clamp to the resume point.
        rio.reset_stream(st, Seq(2), &[Seq(1), Seq(4)]);
        assert_eq!(rio.delivered_through(st), Seq(2));
        assert_eq!(rio.total_pending(), 0, "held-back completions died with the epoch");
        let mut next = rio.submit(st, BlockRange::new(9, 1), true, false);
        assert_eq!(next.seq_start, Seq(3), "submission resumes at resume + 1");
        rio.stamp(&mut next, ServerId(1));
        assert_eq!(next.prev, Seq(2), "prev mark clamped to the resume point");
        assert_eq!(next.dispatch_idx, 0, "dispatch ordinals restart");
    }
}
