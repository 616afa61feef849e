//! What a power failure can leave of a PMR log region (§4.3.2) — a
//! torn tail, flipped or splatted bytes, slots the device refused and
//! that read as zeroes — is answered by `PmrLog::scan` with a scan or
//! `None`, and every scan by `RecoveryPlan::compute` with a plan:
//! never a panic.
//! The record decoder's own fuzz lives in rio-proto; this is the
//! log-level case on top of it. Seeded, fixed case count: a sub-second
//! `cargo test`.

use std::collections::VecDeque;

use rio_order::attr::{BlockRange, Seq, ServerId, SplitInfo, StreamId};
use rio_order::pmrlog::{PmrLog, PmrWrite, SlotRef};
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_proto::PmrRecord;
use rio_sim::SimRng;

const CASES: usize = 10_000;
const SERVERS: usize = 2;

/// Applies one MMIO write, as the target driver does to the real PMR.
fn apply(region: &mut [u8], w: &PmrWrite) {
    region[w.offset..][..w.bytes.len()].copy_from_slice(&w.bytes);
}

/// One target's log, its region, and its live slots oldest first, each
/// with the group its record ends and whether that ends the group.
struct Target {
    log: PmrLog,
    region: Vec<u8>,
    live: VecDeque<(SlotRef, StreamId, Seq, bool)>,
}

/// The regions of `SERVERS` targets after a seeded mix of appends from
/// one sequencer (plain members, boundaries, FLUSH carriers, IPUs, split
/// fragments and merged spans), persist toggles, frees in completion
/// order and delivered-through marks, wrapping the small logs often.
fn seeded_regions(rng: &mut SimRng) -> Vec<Vec<u8>> {
    let streams = rng.between(1, 3) as usize;
    let len = PmrLog::superblock_size(streams) + rng.between(4, 15) as usize * PmrRecord::SIZE;
    let mut targets: Vec<Target> = (0..SERVERS)
        .map(|_| {
            let (log, writes) = PmrLog::format(len, streams);
            let mut region = vec![0; len];
            writes.iter().for_each(|w| apply(&mut region, w));
            let live = VecDeque::new();
            Target { log, region, live }
        })
        .collect();
    let mut sequencer = Sequencer::new(streams, SERVERS);
    let mut lba = 0;
    for _ in 0..rng.below(48) {
        let server = rng.below(SERVERS as u64) as usize;
        let t = &mut targets[server];
        if t.log.is_full() || rng.chance(0.3) {
            // The oldest completion reached the application.
            if let Some((slot, stream, seq, boundary)) = t.live.pop_front() {
                t.log.free(slot);
                if boundary && rng.chance(0.5) {
                    apply(&mut t.region, &t.log.set_head_seq(stream, seq));
                }
            }
            continue;
        }
        let stream = StreamId(rng.below(streams as u64) as u16);
        let opts = SubmitOpts {
            end_group: rng.chance(0.6),
            ipu: rng.chance(0.05),
            flush: rng.chance(0.2),
        };
        let blocks = rng.between(1, 3) as u32;
        let mut attr = sequencer.submit(stream, BlockRange::new(lba, blocks), opts);
        lba += blocks as u64;
        if rng.chance(0.1) {
            let last = rng.chance(0.5);
            attr.split = Some(SplitInfo {
                idx: rng.below(3) as u8,
                last,
            });
        } else if attr.boundary && rng.chance(0.1) {
            attr.seq_end = Seq(attr.seq_start.0 + rng.between(1, 2) as u32);
        }
        sequencer.stamp_dispatch(&mut attr, ServerId(server as u16));
        let (slot, w) = t.log.append(&attr.to_pmr_record(0)).expect("not full");
        apply(&mut t.region, &w);
        if rng.chance(0.7) {
            apply(&mut t.region, &t.log.mark_persist(slot));
        }
        t.live
            .push_back((slot, stream, attr.seq_end, attr.boundary));
    }
    targets.into_iter().map(|t| t.region).collect()
}

/// One to three seeded faults, in place.
fn tear(rng: &mut SimRng, region: &mut Vec<u8>) {
    for _ in 0..rng.between(1, 3) {
        if region.is_empty() {
            return;
        }
        let at = rng.below(region.len() as u64) as usize;
        match rng.below(5) {
            // The power cut the region short.
            0 => region.truncate(at),
            // A slot the device refused reads back as zeroes.
            1 => {
                let slot = at / PmrRecord::SIZE * PmrRecord::SIZE;
                let end = (slot + PmrRecord::SIZE).min(region.len());
                region[slot..end].fill(0);
            }
            // A short run of bytes splatted with one value.
            2 => {
                let end = (at + rng.between(1, 8) as usize).min(region.len());
                region[at..end].fill(rng.next_u64() as u8);
            }
            _ => region[at] ^= 1 << rng.below(8),
        }
    }
}

/// The scans of the regions `PmrLog::scan` accepts.
fn scans(regions: &[Vec<u8>], plp: bool) -> Vec<ServerScan> {
    let scan = |(server, region): (usize, &Vec<u8>)| {
        let out = PmrLog::scan(region)?;
        Some(ServerScan {
            server: ServerId(server as u16),
            plp,
            head_seqs: out.head_seqs,
            records: out.records,
        })
    };
    regions.iter().enumerate().filter_map(scan).collect()
}

#[test]
fn torn_flipped_and_refused_logs_scan_and_recover_without_panicking() {
    let mut rng = SimRng::seed_from_u64(0x70A2_1065);
    let (mut refused, mut recovered) = (0, 0);
    for case in 0..CASES {
        let clean = seeded_regions(&mut rng);
        let plp = rng.chance(0.5);
        assert_eq!(
            scans(&clean, plp).len(),
            SERVERS,
            "case {case}: a clean log scans"
        );
        let mut torn = clean.clone();
        for region in &mut torn {
            if rng.chance(0.8) {
                tear(&mut rng, region);
            }
        }
        let scans = scans(&torn, plp);
        refused += SERVERS - scans.len();
        let failed = vec![ServerId(rng.below(SERVERS as u64) as usize as u16)];
        for mode in [
            RecoveryMode::InitiatorRestart,
            RecoveryMode::TargetRepair { failed },
        ] {
            let input = RecoveryInput {
                scans: scans.clone(),
                mode,
            };
            for stream in RecoveryPlan::compute(&input).streams {
                assert!(stream.valid_through >= stream.resume_head, "case {case}");
                recovered += (stream.valid_through > stream.resume_head) as usize;
            }
        }
    }
    // Not vacuous: torn superblocks refuse whole regions, and what
    // survives still recovers groups.
    assert!(
        refused > CASES / 10 && recovered > CASES / 2,
        "{refused} {recovered}"
    );
}

/// What the loop above first reaches at case 102 999 of its seed (it
/// panicked in `Seq::next` there), built by hand: a splat that leaves a
/// stream's delivered-through mark at `u32::MAX`. No sequencer writes
/// it — closing that group would exhaust the sequence space — and
/// recovery would step past it, so the scan refuses the region.
#[test]
fn a_delivered_mark_at_the_end_of_the_sequence_space_is_refused() {
    let mut region = vec![0; PmrLog::superblock_size(1) + 4 * PmrRecord::SIZE];
    let (mut log, writes) = PmrLog::format(region.len(), 1);
    writes.iter().for_each(|w| apply(&mut region, w));
    let mut sequencer = Sequencer::new(1, 1);
    let end_group = SubmitOpts {
        end_group: true,
        ..SubmitOpts::default()
    };
    let mut attr = sequencer.submit(StreamId(0), BlockRange::new(0, 1), end_group);
    sequencer.stamp_dispatch(&mut attr, ServerId(0));
    let (slot, w) = log.append(&attr.to_pmr_record(0)).expect("space");
    apply(&mut region, &w);
    apply(&mut region, &log.mark_persist(slot));
    let plan = |region: &[u8]| {
        let scan = PmrLog::scan(region)?;
        let input = RecoveryInput {
            scans: vec![ServerScan {
                server: ServerId(0),
                plp: true,
                head_seqs: scan.head_seqs,
                records: scan.records,
            }],
            mode: RecoveryMode::InitiatorRestart,
        };
        Some(RecoveryPlan::compute(&input).streams[0].valid_through)
    };
    assert_eq!(plan(&region), Some(Seq(1)));
    // The last mark a sequencer can write still recovers.
    apply(
        &mut region,
        &log.set_head_seq(StreamId(0), Seq(u32::MAX - 1)),
    );
    assert_eq!(plan(&region), Some(Seq(u32::MAX - 1)));
    region[8..12].fill(0xFF);
    assert_eq!(plan(&region), None);
}
