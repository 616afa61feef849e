//! The asynchronous crash-recovery algorithm (§4.4).
//!
//! After a crash, each target server scans its PMR log in parallel and
//! ships the decoded records to the initiator, which:
//!
//! 1. rejoins split fragments into logical units (Fig. 8b),
//! 2. decides durability per unit — directly from the persist bit on
//!    power-loss-protected drives, or through the "a later FLUSH-carrying
//!    record persisted" rule on volatile-cache drives (§4.3.2),
//! 3. merges the per-server lists into the global ordering list and cuts
//!    it at the first incomplete or non-durable group — the *valid
//!    prefix* of the correctness proof (§4.8),
//! 4. emits a plan: on an **initiator restart**, roll back (discard)
//!    everything beyond the prefix; on a **target repair**, keep alive
//!    servers' attributes and replay the missing pieces on the failed
//!    servers (idempotent, §4.4.1). In-place updates are never rolled
//!    back; they are reported to the upper layer instead (§4.4.2).

use std::collections::BTreeMap;

use rio_proto::PmrRecord;

use crate::attr::{BlockRange, Seq, ServerId, StreamId};

/// One server's post-crash scan.
#[derive(Debug, Clone)]
pub struct ServerScan {
    /// The scanned server.
    pub server: ServerId,
    /// Whether its SSD has power-loss protection (persist bits are set
    /// per record on completion rather than per FLUSH).
    pub plp: bool,
    /// Superblock delivered-through marks.
    pub head_seqs: Vec<(StreamId, Seq)>,
    /// All decodable records.
    pub records: Vec<PmrRecord>,
}

/// What kind of crash is being recovered (§4.4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryMode {
    /// The initiator restarted: roll back beyond the valid prefix.
    InitiatorRestart,
    /// One or more targets failed and reconnected: repair by replay.
    TargetRepair {
        /// The servers that crashed and lost in-flight state.
        failed: Vec<ServerId>,
    },
}

/// Input to the recovery computation.
#[derive(Debug, Clone)]
pub struct RecoveryInput {
    /// Per-server scans (one per connected target).
    pub scans: Vec<ServerScan>,
    /// Crash kind.
    pub mode: RecoveryMode,
}

/// A block range to erase on a server (roll-back).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscardOp {
    /// Server holding the blocks.
    pub server: ServerId,
    /// Device index within the server.
    pub ssd: u8,
    /// Physical blocks to erase.
    pub range: BlockRange,
}

/// A request piece to re-send during target repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOp {
    /// Stream of the request.
    pub stream: StreamId,
    /// First group covered.
    pub seq_start: Seq,
    /// Last group covered.
    pub seq_end: Seq,
    /// Member ordinal within the group.
    pub member_idx: u8,
    /// Server the replay must target.
    pub server: ServerId,
    /// Device index within the server.
    pub ssd: u8,
    /// Blocks covered by the recorded (non-durable) piece.
    pub range: BlockRange,
}

/// An in-place-update record beyond the valid prefix, reported to the
/// upper layer (file system) instead of being rolled back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpuEvent {
    /// Stream of the request.
    pub stream: StreamId,
    /// Group sequence.
    pub seq: Seq,
    /// Server holding the blocks.
    pub server: ServerId,
    /// Device index within the server.
    pub ssd: u8,
    /// Blocks the IPU covered.
    pub range: BlockRange,
    /// Whether the IPU data is durable.
    pub durable: bool,
}

/// Recovery outcome for one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamPlan {
    /// The stream.
    pub stream: StreamId,
    /// Delivered-through mark recovered from the superblocks.
    pub resume_head: Seq,
    /// The global order is intact through this sequence (the valid
    /// prefix D1 ← … ← Dk of §4.8).
    pub valid_through: Seq,
    /// Blocks to erase (initiator restart only).
    pub discard: Vec<DiscardOp>,
    /// Pieces to re-send (target repair only).
    pub replay: Vec<ReplayOp>,
    /// In-place updates beyond the prefix, for the upper layer.
    pub ipu: Vec<IpuEvent>,
    /// Per server: newest group ≤ `valid_through` with presence on that
    /// server (seed for [`crate::sequencer::Sequencer::reset_stream`]).
    pub resume_prev: Vec<Seq>,
}

/// The full recovery plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// Plans per stream, ordered by stream id.
    pub streams: Vec<StreamPlan>,
}

/// A record together with its origin server and durability verdict.
#[derive(Debug, Clone)]
struct Located {
    rec: PmrRecord,
    server: ServerId,
    durable: bool,
}

/// One logical unit: an unsplit request or the rejoined fragments of a
/// split one.
#[derive(Debug, Clone)]
struct Unit {
    seq_start: Seq,
    seq_end: Seq,
    member_idx: u8,
    boundary: bool,
    num: u16,
    ipu: bool,
    complete: bool,
    durable: bool,
    pieces: Vec<Located>,
}

impl RecoveryPlan {
    /// Runs the recovery computation.
    pub fn compute(input: &RecoveryInput) -> RecoveryPlan {
        // Per-(server, ssd) FLUSH durability horizon per stream: the
        // largest seq_end among flush-carrying records whose persist bit
        // is set. A FLUSH only persists the device it ran on.
        let mut flush_horizon: BTreeMap<(ServerId, u8, u16), u32> = BTreeMap::new();
        for scan in &input.scans {
            if scan.plp {
                continue;
            }
            for rec in &scan.records {
                if rec.flags.flush && rec.persist {
                    let key = (scan.server, rec.ssd, rec.stream);
                    let e = flush_horizon.entry(key).or_insert(0);
                    *e = (*e).max(rec.seq_end);
                }
            }
        }

        // Any server's delivered mark is a lower bound on the truly
        // delivered prefix; take the max.
        let mut heads: BTreeMap<u16, Seq> = BTreeMap::new();
        let mut n_servers = 0u16;
        for scan in &input.scans {
            n_servers = n_servers.max(scan.server.0 + 1);
            for &(stream, seq) in &scan.head_seqs {
                let h = heads.entry(stream.0).or_insert(Seq::HEAD);
                *h = (*h).max(seq);
            }
        }

        // Locate every record above its stream's head with its
        // durability verdict, bucketed by stream. Records already
        // delivered before the crash (stale slots from earlier log laps
        // included) are dropped here, but still open their stream's
        // bucket, so the stream is planned from its records either way.
        let mut by_stream: BTreeMap<u16, Vec<Located>> = BTreeMap::new();
        for scan in &input.scans {
            for rec in &scan.records {
                let bucket = by_stream.entry(rec.stream).or_default();
                let head = heads.get(&rec.stream).copied().unwrap_or(Seq::HEAD);
                if rec.seq_end <= head.0 {
                    continue;
                }
                let durable = if scan.plp {
                    rec.persist
                } else {
                    (rec.flags.flush && rec.persist)
                        || flush_horizon
                            .get(&(scan.server, rec.ssd, rec.stream))
                            .is_some_and(|&h| rec.seq_end <= h)
                };
                bucket.push(Located {
                    rec: *rec,
                    server: scan.server,
                    durable,
                });
            }
        }

        let mut streams = Vec::new();
        for (&stream_raw, located) in &by_stream {
            let stream = StreamId(stream_raw);
            let head = heads.get(&stream_raw).copied().unwrap_or(Seq::HEAD);
            streams.push(Self::plan_stream(
                stream,
                head,
                located,
                &input.mode,
                n_servers,
            ));
        }
        // Streams that have head marks but no surviving records still
        // need a (trivial) plan so the sequencer can be re-seeded.
        for (&stream_raw, &head) in &heads {
            if !by_stream.contains_key(&stream_raw) {
                streams.push(StreamPlan {
                    stream: StreamId(stream_raw),
                    resume_head: head,
                    valid_through: head,
                    discard: Vec::new(),
                    replay: Vec::new(),
                    ipu: Vec::new(),
                    resume_prev: vec![Seq::HEAD; n_servers as usize],
                });
            }
        }
        streams.sort_by_key(|p| p.stream);
        RecoveryPlan { streams }
    }

    fn plan_stream(
        stream: StreamId,
        head: Seq,
        located: &[Located],
        mode: &RecoveryMode,
        n_servers: u16,
    ) -> StreamPlan {
        // 1. Rejoin units: key (seq_start, seq_end, member_idx). Every
        //    record is above the head: `compute` dropped the rest.
        let mut units: BTreeMap<(u32, u32, u8), Unit> = BTreeMap::new();
        for l in located {
            let key = (l.rec.seq_start, l.rec.seq_end, l.rec.member_idx);
            let unit = units.entry(key).or_insert_with(|| Unit {
                seq_start: Seq(l.rec.seq_start),
                seq_end: Seq(l.rec.seq_end),
                member_idx: l.rec.member_idx,
                boundary: false,
                num: 0,
                ipu: l.rec.flags.ipu,
                complete: false,
                durable: false,
                pieces: Vec::new(),
            });
            if l.rec.flags.boundary {
                unit.boundary = true;
                unit.num = unit.num.max(l.rec.num);
            }
            unit.pieces.push(l.clone());
        }
        for unit in units.values_mut() {
            Self::resolve_unit(unit);
        }

        // 2. Walk the global list upward from the head and cut at the
        //    first unsatisfied group.
        let mut valid_through = head;
        let mut cursor = head.next();
        'walk: loop {
            // A merged span covering the cursor?
            let span = units
                .values()
                .find(|u| u.seq_start <= cursor && cursor <= u.seq_end && u.seq_start != u.seq_end);
            if let Some(u) = span {
                if u.complete && u.durable {
                    valid_through = u.seq_end;
                    cursor = u.seq_end.next();
                    continue 'walk;
                }
                break 'walk;
            }
            // Otherwise a plain group: need its boundary and all members.
            let members: Vec<&Unit> = units
                .values()
                .filter(|u| u.seq_start == cursor && u.seq_end == cursor)
                .collect();
            let boundary = members.iter().find(|u| u.boundary);
            let Some(b) = boundary else { break 'walk };
            let num = b.num;
            let all_present_durable = (0..num as u8).all(|m| {
                members
                    .iter()
                    .any(|u| u.member_idx == m && u.complete && u.durable)
            });
            if !all_present_durable {
                break 'walk;
            }
            valid_through = cursor;
            cursor = cursor.next();
        }

        // 3. Actions for everything beyond the prefix.
        let mut discard = Vec::new();
        let mut replay = Vec::new();
        let mut ipu = Vec::new();
        for unit in units.values() {
            if unit.seq_end <= valid_through {
                continue;
            }
            for piece in &unit.pieces {
                let range = BlockRange::new(piece.rec.lba, piece.rec.len.max(1) as u32);
                if unit.ipu {
                    ipu.push(IpuEvent {
                        stream,
                        seq: unit.seq_start,
                        server: piece.server,
                        ssd: piece.rec.ssd,
                        range,
                        durable: piece.durable,
                    });
                    continue;
                }
                match mode {
                    RecoveryMode::InitiatorRestart => {
                        discard.push(DiscardOp {
                            server: piece.server,
                            ssd: piece.rec.ssd,
                            range,
                        });
                    }
                    RecoveryMode::TargetRepair { failed } => {
                        // Alive servers keep their attributes; failed
                        // servers get the recorded-but-non-durable
                        // pieces replayed (idempotent).
                        if failed.contains(&piece.server) && !piece.durable {
                            replay.push(ReplayOp {
                                stream,
                                seq_start: unit.seq_start,
                                seq_end: unit.seq_end,
                                member_idx: unit.member_idx,
                                server: piece.server,
                                ssd: piece.rec.ssd,
                                range,
                            });
                        }
                    }
                }
            }
        }
        discard.sort_by_key(|d| (d.server, d.range.lba));
        discard.dedup();
        replay.sort_by_key(|r| (r.seq_start, r.member_idx, r.server, r.range.lba));
        replay.dedup();

        // 4. Per-server resume chains within the valid prefix.
        let mut resume_prev = vec![Seq::HEAD; n_servers as usize];
        for unit in units.values() {
            if unit.seq_end > valid_through {
                continue;
            }
            for piece in &unit.pieces {
                let slot = &mut resume_prev[piece.server.0 as usize];
                *slot = (*slot).max(unit.seq_end);
            }
        }

        StreamPlan {
            stream,
            resume_head: head,
            valid_through,
            discard,
            replay,
            ipu,
            resume_prev,
        }
    }

    /// Decides completeness and durability of one unit from its pieces.
    fn resolve_unit(unit: &mut Unit) {
        let split = unit.pieces.iter().any(|p| p.rec.flags.split);
        if !split {
            unit.complete = true;
            unit.durable = unit.pieces.iter().any(|p| p.durable);
            return;
        }
        // Fragments: need indices 0..=k with `last` on k; each index is
        // durable if any copy of it is durable (replays duplicate).
        let mut last_idx: Option<u8> = None;
        for p in &unit.pieces {
            if p.rec.flags.last_split {
                last_idx = Some(last_idx.map_or(p.rec.split_idx, |l: u8| l.max(p.rec.split_idx)));
            }
        }
        let Some(last) = last_idx else {
            unit.complete = false;
            unit.durable = false;
            return;
        };
        let mut all_present = true;
        let mut all_durable = true;
        for idx in 0..=last {
            let copies: Vec<&Located> = unit
                .pieces
                .iter()
                .filter(|p| p.rec.split_idx == idx)
                .collect();
            if copies.is_empty() {
                all_present = false;
                all_durable = false;
                break;
            }
            if !copies.iter().any(|c| c.durable) {
                all_durable = false;
            }
        }
        unit.complete = all_present;
        unit.durable = all_present && all_durable;
    }

    /// Looks up the plan for one stream.
    pub fn stream(&self, stream: StreamId) -> Option<&StreamPlan> {
        self.streams.iter().find(|p| p.stream == stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{OrderingAttr, SplitInfo};

    fn attr(seq: u32, member: u8, lba: u64, blocks: u32) -> OrderingAttr {
        let mut a = OrderingAttr::single(StreamId(0), Seq(seq), BlockRange::new(lba, blocks));
        a.member_idx = member;
        a
    }

    fn boundary(seq: u32, member: u8, num: u16, lba: u64, blocks: u32) -> OrderingAttr {
        let mut a = attr(seq, member, lba, blocks);
        a.boundary = true;
        a.num = num;
        a
    }

    fn rec_of(a: &OrderingAttr, persist: bool) -> PmrRecord {
        let mut a = *a;
        a.persist = persist;
        a.to_pmr_record(0)
    }

    fn scan(server: u16, plp: bool, records: Vec<PmrRecord>) -> ServerScan {
        ServerScan {
            server: ServerId(server),
            plp,
            head_seqs: vec![(StreamId(0), Seq(0))],
            records,
        }
    }

    fn initiator(scans: Vec<ServerScan>) -> RecoveryPlan {
        RecoveryPlan::compute(&RecoveryInput {
            scans,
            mode: RecoveryMode::InitiatorRestart,
        })
    }

    /// The Fig. 6 example: server 1 holds groups 1, 3, 4(non-durable),
    /// 6; server 2 holds 2_1, 2_2, 5, 7_1, 7_2(non-durable). The global
    /// list is 1 ← 2 ← 3; everything else is discarded.
    #[test]
    fn figure6_initiator_recovery() {
        let s1 = scan(
            0,
            true,
            vec![
                rec_of(&boundary(1, 0, 1, 0, 1), true),
                rec_of(&boundary(3, 0, 1, 10, 1), true),
                rec_of(&boundary(4, 0, 1, 20, 1), false),
                rec_of(&boundary(6, 0, 1, 30, 1), true),
            ],
        );
        let s2 = scan(
            1,
            true,
            vec![
                rec_of(&attr(2, 0, 40, 1), true),
                rec_of(&boundary(2, 1, 2, 41, 1), true),
                rec_of(&boundary(5, 0, 1, 50, 1), true),
                rec_of(&attr(7, 0, 60, 1), true),
                rec_of(&boundary(7, 1, 2, 61, 1), false),
            ],
        );
        let plan = initiator(vec![s1, s2]);
        let sp = plan.stream(StreamId(0)).expect("stream 0");
        assert_eq!(sp.valid_through, Seq(3));
        // W4 (server 0), W6 (server 0), W5 (server 1), W7_* (server 1)
        // are all discarded.
        let discards: Vec<(u16, u64)> = sp
            .discard
            .iter()
            .map(|d| (d.server.0, d.range.lba))
            .collect();
        assert!(discards.contains(&(0, 20)), "W4 erased");
        assert!(discards.contains(&(0, 30)), "W6 erased");
        assert!(discards.contains(&(1, 50)), "W5 erased");
        assert!(discards.contains(&(1, 60)), "W7_1 erased");
        assert!(discards.contains(&(1, 61)), "W7_2 erased");
        assert_eq!(sp.discard.len(), 5);
        // Per-server resume chains: server 0 last valid group 3,
        // server 1 last valid group 2.
        assert_eq!(sp.resume_prev, vec![Seq(3), Seq(2)]);
    }

    /// Fig. 6 as a target repair: server 0 failed. W4 is replayed there;
    /// alive server 1's attributes are kept (no discard).
    #[test]
    fn figure6_target_repair() {
        let s1 = scan(
            0,
            true,
            vec![
                rec_of(&boundary(1, 0, 1, 0, 1), true),
                rec_of(&boundary(3, 0, 1, 10, 1), true),
                rec_of(&boundary(4, 0, 1, 20, 1), false),
            ],
        );
        let s2 = scan(
            1,
            true,
            vec![
                rec_of(&attr(2, 0, 40, 1), true),
                rec_of(&boundary(2, 1, 2, 41, 1), true),
                rec_of(&boundary(5, 0, 1, 50, 1), true),
            ],
        );
        let plan = RecoveryPlan::compute(&RecoveryInput {
            scans: vec![s1, s2],
            mode: RecoveryMode::TargetRepair {
                failed: vec![ServerId(0)],
            },
        });
        let sp = plan.stream(StreamId(0)).expect("stream 0");
        assert_eq!(sp.valid_through, Seq(3));
        assert!(sp.discard.is_empty(), "repair never discards");
        assert_eq!(sp.replay.len(), 1);
        assert_eq!(sp.replay[0].seq_start, Seq(4));
        assert_eq!(sp.replay[0].server, ServerId(0));
    }

    #[test]
    fn empty_input_empty_plan() {
        let plan = initiator(vec![]);
        assert!(plan.streams.is_empty());
    }

    #[test]
    fn incomplete_group_cuts_prefix() {
        // Group 1 has 2 members but only one record survived.
        let s = scan(
            0,
            true,
            vec![
                rec_of(&boundary(1, 1, 2, 1, 1), true),
                rec_of(&boundary(2, 0, 1, 2, 1), true),
            ],
        );
        let plan = initiator(vec![s]);
        let sp = plan.stream(StreamId(0)).expect("stream 0");
        assert_eq!(
            sp.valid_through,
            Seq(0),
            "missing member invalidates group 1"
        );
        assert_eq!(sp.discard.len(), 2, "both surviving records roll back");
    }

    #[test]
    fn missing_boundary_cuts_prefix() {
        let s = scan(0, true, vec![rec_of(&attr(1, 0, 1, 1), true)]);
        let plan = initiator(vec![s]);
        let sp = plan.stream(StreamId(0)).expect("stream 0");
        assert_eq!(sp.valid_through, Seq(0));
    }

    #[test]
    fn non_plp_needs_flush_cover() {
        // On a volatile-cache drive, persist bits on data records stay 0;
        // only the flush carrier's bit flips.
        let w1 = rec_of(&boundary(1, 0, 1, 1, 1), false);
        let mut w2attr = boundary(2, 0, 1, 2, 1);
        w2attr.flush = true;
        // Case A: flush not yet completed -> nothing durable.
        let plan = initiator(vec![scan(0, false, vec![w1, rec_of(&w2attr, false)])]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(0));
        // Case B: flush completed -> everything at or below it durable.
        let w1 = rec_of(&boundary(1, 0, 1, 1, 1), false);
        let plan = initiator(vec![scan(0, false, vec![w1, rec_of(&w2attr, true)])]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(2));
    }

    #[test]
    fn flush_cover_does_not_cross_servers() {
        let w1 = rec_of(&boundary(1, 0, 1, 1, 1), false);
        let mut w2attr = boundary(2, 0, 1, 2, 1);
        w2attr.flush = true;
        // The flush completed on server 1; server 0's record remains
        // non-durable.
        let plan = initiator(vec![
            scan(0, false, vec![w1]),
            scan(1, false, vec![rec_of(&w2attr, true)]),
        ]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(0));
    }

    #[test]
    fn merged_span_is_atomic() {
        // A merged record covering groups 1-3.
        let mut m = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 6));
        m.seq_end = Seq(3);
        m.boundary = true;
        m.num = 3;
        // Durable: all three groups valid at once.
        let plan = initiator(vec![scan(0, true, vec![rec_of(&m, true)])]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(3));
        // Non-durable: none valid (the "nothing" of all-or-nothing).
        let plan = initiator(vec![scan(0, true, vec![rec_of(&m, false)])]);
        let sp = plan.stream(StreamId(0)).unwrap();
        assert_eq!(sp.valid_through, Seq(0));
        assert_eq!(sp.discard.len(), 1);
        assert_eq!(sp.discard[0].range, BlockRange::new(0, 6));
    }

    #[test]
    fn split_unit_rejoins_across_servers() {
        // One member of group 1 split across two servers (Fig. 8b).
        let mut f0 = boundary(1, 0, 1, 100, 2);
        f0.split = Some(SplitInfo {
            idx: 0,
            last: false,
        });
        let mut f1 = boundary(1, 0, 1, 200, 2);
        f1.split = Some(SplitInfo { idx: 1, last: true });
        // Both durable: group valid.
        let plan = initiator(vec![
            scan(0, true, vec![rec_of(&f0, true)]),
            scan(1, true, vec![rec_of(&f1, true)]),
        ]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(1));
        // One fragment non-durable: whole unit invalid, both discarded.
        let plan = initiator(vec![
            scan(0, true, vec![rec_of(&f0, true)]),
            scan(1, true, vec![rec_of(&f1, false)]),
        ]);
        let sp = plan.stream(StreamId(0)).unwrap();
        assert_eq!(sp.valid_through, Seq(0));
        assert_eq!(sp.discard.len(), 2, "all fragments roll back together");
    }

    #[test]
    fn missing_fragment_invalidates_unit() {
        let mut f0 = boundary(1, 0, 1, 100, 2);
        f0.split = Some(SplitInfo {
            idx: 0,
            last: false,
        });
        // The last fragment never arrived: no `last` marker at all.
        let plan = initiator(vec![scan(0, true, vec![rec_of(&f0, true)])]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(0));
    }

    #[test]
    fn ipu_reported_not_discarded() {
        let mut a = boundary(1, 0, 1, 5, 1);
        a.ipu = true;
        let plan = initiator(vec![scan(0, true, vec![rec_of(&a, false)])]);
        let sp = plan.stream(StreamId(0)).unwrap();
        assert_eq!(
            sp.valid_through,
            Seq(0),
            "non-durable IPU still cuts the prefix"
        );
        assert!(sp.discard.is_empty(), "IPU data is never erased");
        assert_eq!(sp.ipu.len(), 1);
        assert!(!sp.ipu[0].durable);
        assert_eq!(sp.ipu[0].range, BlockRange::new(5, 1));
    }

    #[test]
    fn head_seq_filters_stale_records() {
        // Records for groups 1-2 are stale (delivered, head=2); group 3
        // onward is live.
        let mut s = scan(
            0,
            true,
            vec![
                rec_of(&boundary(1, 0, 1, 1, 1), true),
                rec_of(&boundary(2, 0, 1, 2, 1), true),
                rec_of(&boundary(4, 0, 1, 4, 1), true),
            ],
        );
        s.head_seqs = vec![(StreamId(0), Seq(2))];
        let plan = initiator(vec![s]);
        let sp = plan.stream(StreamId(0)).unwrap();
        assert_eq!(sp.resume_head, Seq(2));
        // Group 3 has no record at all -> prefix stops at the head.
        assert_eq!(sp.valid_through, Seq(2));
        // Group 4's blocks roll back.
        assert_eq!(sp.discard.len(), 1);
        assert_eq!(sp.discard[0].range.lba, 4);
    }

    #[test]
    fn duplicate_records_from_replay_are_tolerated() {
        // A replayed request appended two records; one is durable.
        let a = boundary(1, 0, 1, 9, 1);
        let plan = initiator(vec![scan(
            0,
            true,
            vec![rec_of(&a, false), rec_of(&a, true)],
        )]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(1));
    }

    #[test]
    fn multiple_streams_planned_independently() {
        let mut a1 = boundary(1, 0, 1, 0, 1);
        a1.stream = StreamId(0);
        let mut b1 = boundary(1, 0, 1, 10, 1);
        b1.stream = StreamId(1);
        let mut s = scan(0, true, vec![rec_of(&a1, true), rec_of(&b1, false)]);
        s.head_seqs = vec![(StreamId(0), Seq(0)), (StreamId(1), Seq(0))];
        let plan = initiator(vec![s]);
        assert_eq!(plan.stream(StreamId(0)).unwrap().valid_through, Seq(1));
        assert_eq!(plan.stream(StreamId(1)).unwrap().valid_through, Seq(0));
    }
}
