//! What a power failure can leave of a PMR log region (§4.3.2) — a
//! torn tail, flipped or splatted bytes, slots the device refused and
//! that read as zeroes — is answered by `PmrLog::scan` with a scan or
//! `None`, and every scan by `RecoveryPlan::compute` with a plan:
//! never a panic. The same region held as the pages a `rio_ssd::Pmr`
//! allocates scans alike, and the records recovery drops as delivered
//! change no plan.
//! The record decoder's own fuzz lives in rio-proto; this is the
//! log-level case on top of it. Seeded, fixed case count: a sub-second
//! `cargo test`.

use std::collections::VecDeque;

use rio_order::attr::{BlockRange, OrderingAttr, Seq, ServerId, SplitInfo, StreamId};
use rio_order::pmrlog::{PmrLog, PmrWrite, ScanOutcome, SlotRef};
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_proto::PmrRecord;
use rio_sim::SimRng;
use rio_ssd::Pmr;

mod common;
use common::without_stale;

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

/// `PmrLog::scan_pages` over `region` cut into `page`-byte pages, the
/// all-zero ones left out as a `Pmr` never allocates them.
fn scan_cut(region: &[u8], page: usize) -> Option<ScanOutcome> {
    let pages = region.chunks(page).enumerate();
    let written = pages.filter(|(_, bytes)| bytes.iter().any(|&b| b != 0));
    let written = written.map(|(i, bytes)| (i * page, bytes));
    PmrLog::scan_pages(region.len(), written)
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
        // A page is 64 KiB in a `Pmr`; these regions are smaller, so
        // cuts of a few records put slots and head marks on both sides
        // of page boundaries too.
        for region in clean.iter().chain(&torn) {
            for page in [64 << 10, 96, PmrRecord::SIZE] {
                let whole = PmrLog::scan(region);
                assert_eq!(scan_cut(region, page), whole, "case {case}: {page} B pages");
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
            let plan = RecoveryPlan::compute(&input);
            assert_eq!(
                plan,
                RecoveryPlan::compute(&without_stale(&input)),
                "case {case}: a delivered record moved the plan"
            );
            for stream in plan.streams {
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

/// A superblock of 20 000 streams runs past the first 64 KiB page of a
/// `Pmr`: its head marks are read across the page boundary, and the
/// pages the log wrote scan exactly as the contiguous image does.
#[test]
fn a_superblock_across_pages_scans_as_its_contiguous_image() {
    const STREAMS: usize = 20_000;
    let len = 2 << 20;
    assert!(PmrLog::superblock_size(STREAMS) > 64 << 10);
    let mut pmr = Pmr::new(len);
    let mut region = vec![0; len];
    let mut write = |w: &PmrWrite| {
        pmr.mmio_write(w.offset, &w.bytes);
        apply(&mut region, w);
    };
    let (mut log, writes) = PmrLog::format(len, STREAMS);
    writes.iter().for_each(&mut write);
    for s in (0..STREAMS as u16).step_by(7) {
        write(&log.set_head_seq(StreamId(s), Seq(s as u32 + 1)));
    }
    for s in [0, 16_381, 16_382, 19_999] {
        let stream = StreamId(s);
        let attr = OrderingAttr::single(stream, Seq(s as u32 + 2), BlockRange::new(s as u64, 1));
        let (_, w) = log.append(&attr.to_pmr_record(0)).expect("space");
        write(&w);
    }
    let scan = PmrLog::scan(&region).expect("formatted");
    assert_eq!(scan.head_seqs.len(), STREAMS);
    // 19 999 is a multiple of seven, past the first page; 19 998 is not.
    assert_eq!(scan.head_seqs[19_999], (StreamId(19_999), Seq(20_000)));
    assert_eq!(scan.head_seqs[19_998], (StreamId(19_998), Seq(0)));
    assert_eq!(scan.records.len(), 4);
    assert_eq!(pmr.written().count(), 2, "the superblock's two pages");
    assert_eq!(PmrLog::scan_pages(pmr.len(), pmr.written()), Some(scan));
}
