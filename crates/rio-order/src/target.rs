//! The target driver's ordering state (§4.3): the in-order submission
//! gate, the PMR log, and per stream the live log slots it recycles
//! once the initiator reports their completions delivered. Like
//! [`PmrLog`], it is pure logic: every mutation returns the
//! [`PmrWrite`]s the caller applies to the PMR region.

use std::collections::VecDeque;

use crate::attr::{OrderingAttr, Seq, StreamId};
use crate::gate::SubmissionGate;
use crate::pmrlog::{LogFull, PmrLog, PmrWrite, SlotRef};

/// One stream's live slots, oldest first, each with the last group its
/// record covers; whether this target keeps the stream's head mark (it
/// appended here, or a reconnect wrote the mark); its last release.
#[derive(Debug, Clone, Default)]
struct StreamSlots {
    live: VecDeque<(Seq, SlotRef)>,
    marked: bool,
    released: Seq,
}

/// The ordering half of one RIO target server.
#[derive(Debug)]
pub struct RioTarget {
    /// The in-order submission gate (§4.3.1).
    pub gate: SubmissionGate,
    log: PmrLog,
    streams: Vec<StreamSlots>,
}

impl RioTarget {
    /// Formats a log for `streams` streams over a PMR region of
    /// `region_len` bytes (see [`PmrLog::format`]), with its writes.
    pub fn format(region_len: usize, streams: usize) -> (RioTarget, Vec<PmrWrite>) {
        let (log, writes) = PmrLog::format(region_len, streams);
        let streams = vec![StreamSlots::default(); streams];
        let gate = SubmissionGate::with_streams(streams.len());
        (RioTarget { gate, log, streams }, writes)
    }

    /// Persists a released command's ordering attribute (step ⑤) and
    /// books its slot for the stream's next release.
    pub fn append(&mut self, attr: &OrderingAttr) -> Result<(SlotRef, PmrWrite), LogFull> {
        let (slot, write) = self.log.append(&attr.to_pmr_record(0))?;
        let st = &mut self.streams[attr.stream.0 as usize];
        st.live.push_back((attr.seq_end, slot));
        st.marked = true;
        Ok((slot, write))
    }

    /// Applies the initiator's report that `stream` delivered through
    /// `through`: frees the slots of the groups up to it, oldest first,
    /// and returns the head-mark write. A release no higher than the
    /// last, or of a stream whose mark is not kept here, writes nothing.
    pub fn release(&mut self, stream: StreamId, through: Seq) -> Option<PmrWrite> {
        let st = &mut self.streams[stream.0 as usize];
        if through <= st.released {
            return None;
        }
        st.released = through;
        while let Some(&(_, slot)) = st.live.front().filter(|(last, _)| *last <= through) {
            st.live.pop_front();
            self.log.free(slot);
        }
        st.marked.then(|| self.log.set_head_seq(stream, through))
    }

    /// The persist toggle of `slot`'s record (step ⑦).
    pub fn mark_persist(&self, slot: SlotRef) -> PmrWrite {
        self.log.mark_persist(slot)
    }

    /// Starts a fresh epoch after a resuming recovery: a reset gate, and
    /// the log re-formatted over `region_len` bytes with each stream's
    /// head mark at `heads` (in stream order), so a later crash scans
    /// only this epoch's records.
    pub fn reconnect(
        &mut self,
        region_len: usize,
        heads: impl ExactSizeIterator<Item = Seq>,
    ) -> Vec<PmrWrite> {
        self.gate.reset();
        let (log, mut writes) = PmrLog::format(region_len, heads.len());
        writes.reserve_exact(heads.len());
        for (s, (st, head)) in self.streams.iter_mut().zip(heads).enumerate() {
            writes.push(log.set_head_seq(StreamId(s as u16), head));
            st.live.clear();
            (st.marked, st.released) = (true, head);
        }
        self.log = log;
        writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::BlockRange;

    const REGION: usize = 4096;

    /// A one-block request of group `seq` on `stream`.
    fn attr(stream: u16, seq: u32) -> OrderingAttr {
        OrderingAttr::single(StreamId(stream), Seq(seq), BlockRange::new(seq as u64, 1))
    }

    fn apply(region: &mut [u8], writes: impl IntoIterator<Item = PmrWrite>) {
        for w in writes {
            region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
        }
    }

    #[test]
    fn release_frees_the_covered_slots_oldest_first_and_marks_the_head() {
        let (mut t, _) = RioTarget::format(REGION, 2);
        let slots: Vec<SlotRef> = [1, 2, 2, 3]
            .map(|seq| t.append(&attr(0, seq)).expect("space").0)
            .into();
        let w = t.release(StreamId(0), Seq(2)).expect("a head-mark write");
        assert_eq!(w, t.log.set_head_seq(StreamId(0), Seq(2)));
        let live: Vec<SlotRef> = t.streams[0].live.iter().map(|&(_, s)| s).collect();
        assert_eq!(live, [slots[3]], "groups 1 and 2 freed, group 3 kept");
        assert_eq!(t.log.live(), 1, "the log's head moved past the freed slots");
    }

    #[test]
    fn an_equal_or_lower_release_changes_nothing() {
        let (mut t, _) = RioTarget::format(REGION, 1);
        for seq in 1..=3 {
            t.append(&attr(0, seq)).expect("space");
        }
        assert!(t.release(StreamId(0), Seq(1)).is_some());
        for through in [1, 0] {
            assert_eq!(t.release(StreamId(0), Seq(through)), None);
            assert_eq!(t.log.live(), 2);
            assert_eq!(t.streams[0].live.len(), 2);
        }
    }

    #[test]
    fn a_stream_that_never_appended_gets_no_head_mark() {
        let (mut t, _) = RioTarget::format(REGION, 2);
        t.append(&attr(0, 1)).expect("space");
        assert_eq!(t.release(StreamId(1), Seq(5)), None);
        assert_eq!(t.log.live(), 1, "stream 0's slot untouched");
        // Its release is still applied: appending later and releasing
        // no higher marks nothing.
        t.append(&attr(1, 6)).expect("space");
        assert_eq!(t.release(StreamId(1), Seq(5)), None);
        assert!(t.release(StreamId(1), Seq(6)).is_some());
    }

    #[test]
    fn a_reconnected_log_scans_to_the_heads_and_no_record() {
        let mut region = vec![0u8; REGION];
        let (mut t, writes) = RioTarget::format(REGION, 3);
        apply(&mut region, writes);
        for seq in 1..=4 {
            let (_, w) = t.append(&attr(seq as u16 % 3, seq)).expect("space");
            apply(&mut region, [w]);
        }
        let mut released = Vec::new();
        let mut early = attr(0, 9);
        early.dispatch_idx = 1;
        t.gate.arrive_into(early, 9, &mut released);
        assert_eq!(t.gate.buffered(), 1);

        let heads = [Seq(7), Seq(0), Seq(12)];
        region.fill(0);
        apply(&mut region, t.reconnect(REGION, heads.into_iter()));
        let scan = PmrLog::scan(&region).expect("formatted");
        let want: Vec<(StreamId, Seq)> = (0..3).map(|s| (StreamId(s as u16), heads[s])).collect();
        assert_eq!(scan.head_seqs, want);
        assert!(scan.records.is_empty());
        assert_eq!(t.gate.buffered(), 0, "a fresh gate epoch");
        assert_eq!(t.log.live(), 0);
        // Every stream keeps its mark; a release at the head is stale.
        assert_eq!(t.release(StreamId(1), Seq(0)), None);
        assert!(t.release(StreamId(1), Seq(1)).is_some());
    }
}
