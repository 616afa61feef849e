//! In-loop fault handling and the §4.4 / §6.5 recovery.
//!
//! A [`crate::config::FaultPlan`] on the cluster configuration crashes
//! arbitrary target subsets (or single NICs) at arbitrary virtual
//! times — including while retransmissions are in flight. The handler
//! here applies the physical failure, then initiator 0 (1) rebuilds the
//! global order from the PMR logs and (2) discards the data blocks that
//! disobey the storage order, and — for survivable faults — re-arms
//! every ordering engine and resumes the workload in a fresh epoch.
//!
//! Recovery is traffic on the legs every command rides: phase 1 sends
//! each target a scan request and takes its records back, phase 2 sends
//! each SSD that owes discards one batch of them. The module holds no
//! cost model: scans and the merge cost CPU time ([`crate::cpu`]),
//! discards and the scrub device time (`rio_ssd::ssd`), so both phases
//! in [`crate::metrics::RecoveryMetrics`] are measured between events,
//! matching the paper's "~55 ms to reconstruct the global order" and
//! "~125 ms data recovery" breakdown.

use std::collections::BTreeMap;

use rio_order::attr::{BlockRange, Seq, ServerId, StreamId};
use rio_order::pmrlog::PmrLog;
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_proto::PmrRecord;
use rio_sim::{SimDuration, SimTime};
use rio_ssd::ssd::SCRUB_US_PER_BLOCK;

use super::target::write_pmr;
use super::{Cluster, Cmd, CmdKind, Event, Leg, Wait};
use crate::config::FaultKind;
use crate::cpu::{DRAM_SCAN_NS_PER_RECORD, MERGE_NS_PER_RECORD, PMR_SCAN_NS_PER_SLOT};
use crate::metrics::{RecoveryMetrics, StreamRecovery};

/// A recovery whose messages are on the wire: what the fault handler
/// found, kept until the last reply of each phase lands.
pub(super) struct Recovering {
    /// Its report; the phase spans and streams are filled in as they end.
    row: RecoveryMetrics,
    /// Replies the current phase still waits for.
    waiting: usize,
    /// When every alive SSD has settled the commands it accepted.
    quiesced: SimTime,
    /// The integrity scrub's device time on the slowest SSD.
    scrub: SimDuration,
    /// Per stream, the last group the scrub lets redeliver.
    repair_cut: Vec<u32>,
    /// The ranges to discard, per (target, SSD) that owes any.
    owed: BTreeMap<(usize, usize), Vec<BlockRange>>,
}

impl Cluster {
    /// Fires the plan's next fault: applies the physical failure, plans
    /// the §4.4 recovery from the PMR logs and the scrub, and posts
    /// phase 1's scan requests. Their replies drive the rest.
    pub(super) fn on_fault(&mut self, now: SimTime) {
        let idx = self.fault_cursor;
        self.fault_cursor += 1;
        let ev = self.cfg.faults.events[idx].clone();
        // A packet-corruption fault only retunes the fabric's per-packet
        // corruption rate mid-run: nothing crashes, no epoch closes, and
        // every in-flight transfer keeps going (corrupted packets are
        // caught by the receiver CRC and NAKed into go-back-N recovery).
        if let FaultKind::PacketCorrupt { rate } = &ev.kind {
            self.fabric.set_corrupt_rate(*rate);
            return;
        }
        let crashed = ev.kind.hit_targets(self.targets.len());
        let power_fail = ev.kind.is_power_fail();

        // Close the current epoch at the fault instant.
        self.epochs.push(self.open_epoch(now));

        // The initiator's connections die with the fault: every
        // in-flight command, data pull, completion and retransmission
        // timer is lost. Clearing the slabs with the heap keeps stale
        // ids from ever resolving again.
        self.events.clear();
        self.cmds.clear();
        self.units.clear();
        if let Some(tr) = &mut self.trace {
            // Every open trace dies with its command; the rolled-back
            // tail redispatches with fresh traces in the next epoch.
            tr.abort_open(idx as u32);
        }
        if let Some(tm) = &mut self.telemetry {
            // In-flight commands and queued writes died with the
            // connections. The pending-group gauge survives only when
            // a resume will account it back (redeliver/requeue) after
            // recovery.
            tm.crash(now, !ev.resume);
        }

        // Physical failure. Power loss kills volatile SSD state on the
        // crashed targets; a NIC reset only kills in-flight transfers.
        // Every NIC reconnects fresh — messages parked in go-back-N
        // recovery died with their resend events, which is exactly the
        // state `crash_reset` forgets.
        if power_fail {
            // On integrity runs the power cut tears the write each SSD
            // was absorbing (half-landed bytes under the intended seal).
            for &t in &crashed {
                for ssd in &mut self.targets[t].ssds {
                    self.integ.torn_injected += ssd.crash(now);
                }
            }
        }
        for t in &mut self.targets {
            t.nic.crash_reset(now);
            // Queued-but-unadmitted tenant work died with its commands.
            if let Some(drr) = &mut t.drr {
                drr.clear();
            }
        }
        for init in &mut self.initiators {
            init.nic.crash_reset(now);
        }

        // Alive targets keep power: every command their SSDs already
        // accepted completes on-device (microseconds) long before the
        // recovery (milliseconds) reads or rolls back state. Settle
        // them now so a pending write cannot land after a discard.
        let mut quiesced = now;
        for (t, target) in self.targets.iter_mut().enumerate() {
            if power_fail && crashed.contains(&t) {
                continue;
            }
            for ssd in &mut target.ssds {
                quiesced = quiesced.max(ssd.quiesce(now));
            }
        }

        // Bit rot strikes *after* the quiesce settles outstanding
        // writes: flips land on data at rest, one bit in each of up to
        // `flips` distinct sealed blocks per SSD of the hit targets
        // (single-bit errors are exactly what CRC-32C always catches,
        // so every injected flip is detectable by the scrub below).
        if let FaultKind::BitRot { flips, .. } = &ev.kind {
            for &t in &crashed {
                for ssd in &mut self.targets[t].ssds {
                    self.integ.rot_injected += ssd.rot_at_rest(*flips);
                }
            }
        }

        // ---- Phase 1: rebuild the global order ------------------------
        // Nothing writes a log or a block until the resume, so the scans
        // and the plan are read here; the scan requests spend their
        // time. A power-failed target lost its driver and must MMIO-scan
        // the whole PMR region; an alive target's driver still knows its
        // head marks and live slots and answers from DRAM — which is why
        // a NIC flap recovers orders of magnitude faster than a power
        // failure. Initiator 0 sends every recovery message, on its first
        // thread's connection; a scan's `phys` counts the slots it ships.
        let heads = PmrLog::superblock_size(self.init_of_stream.len()) / PmrRecord::SIZE;
        let mut scans = Vec::new();
        for t in 0..self.targets.len() {
            let ssd = &self.targets[t].ssds[0];
            let pmr = ssd.pmr();
            let outcome = PmrLog::scan_pages(pmr.len(), pmr.written()).expect("formatted PMR");
            let mmio = power_fail && crashed.contains(&t);
            let live = heads + outcome.records.len();
            let slots = if mmio { pmr.len() / PmrRecord::SIZE } else { live };
            scans.push(ServerScan {
                server: ServerId(t as u16),
                plp: ssd.profile().plp,
                head_seqs: outcome.head_seqs,
                records: outcome.records,
            });
            let scan = BlockRange::new(0, slots as u32);
            self.post_capsule(now, Cmd::new(CmdKind::Scan { mmio }, 0, t, 0, 0, scan));
        }
        let records_scanned = scans.iter().map(|s| s.records.len()).sum();
        let plan = RecoveryPlan::compute(&RecoveryInput {
            scans,
            mode: RecoveryMode::InitiatorRestart,
        });
        let mut owed: BTreeMap<(usize, usize), Vec<BlockRange>> = BTreeMap::new();
        for d in plan.streams.iter().flat_map(|sp| &sp.discard) {
            owed.entry((d.server.0 as usize, d.ssd as usize)).or_default().push(d.range);
        }

        // ---- Integrity scrub (before any discard) ---------------------
        // Every sealed media block is re-checksummed — in parallel per
        // SSD — and mismatches are classified *before* Phase 2 runs: a
        // discard erases a block's seal, so scrubbing later would
        // under-count. A corrupt block still owned by a
        // submitted-but-undelivered group is repairable: the stream's
        // redelivery cut drops below that group, rolling it back for
        // resubmission with fresh bytes (exactly-once is preserved —
        // the group was never delivered). A corrupt block outside any
        // tracked group (e.g. rot on already-delivered data) is
        // unrepairable data loss: reported. Either way the block is
        // discarded: a repairable block's group resubmits fresh bytes,
        // an unrepairable one must at least never read back with a
        // valid-looking payload.
        let mut repair_cut = vec![u32::MAX; self.init_of_stream.len()];
        let mut scrub = SimDuration::ZERO;
        if self.integrity {
            // Physical legs were registered target-major, SSD-minor —
            // the same nested order as this walk.
            let mut leg = 0usize;
            for (t, target) in self.targets.iter().enumerate() {
                for (s_idx, ssd) in target.ssds.iter().enumerate() {
                    let (scanned, corrupt) = ssd.scrub();
                    self.integ.scrubbed_records += scanned;
                    let us = scanned as f64 * SCRUB_US_PER_BLOCK;
                    scrub = scrub.max(SimDuration::from_micros_f64(us));
                    for &plba in &corrupt {
                        let logical = self.volume.logical_of(leg, plba);
                        let owns = |m: &BlockRange| m.lba <= logical && logical < m.end();
                        let owner = self.threads.iter().find_map(|th| {
                            let mut groups = th.undelivered.iter();
                            let g = groups.find(|g| owns(&g.spec.range));
                            g.map(|g| (th.stream.0 as usize, g.seq))
                        });
                        if let Some((s, seq)) = owner {
                            self.integ.media_repaired += 1;
                            repair_cut[s] = repair_cut[s].min(seq.saturating_sub(1));
                        } else {
                            self.integ.media_unrepairable += 1;
                        }
                        owed.entry((t, s_idx)).or_default().push(BlockRange::new(plba, 1));
                    }
                    self.integ.media_detected += corrupt.len() as u64;
                    leg += 1;
                }
            }
            self.integ.scrub_us += scrub.as_nanos() as f64 / 1e3;
        }

        self.recovering = Some(Recovering {
            row: RecoveryMetrics {
                fault: idx,
                crashed_targets: crashed,
                power_fail,
                crashed_at: now,
                resumed_at: now,
                order_rebuild: SimDuration::ZERO,
                data_recovery: SimDuration::ZERO,
                records_scanned,
                discards: owed.values().map(Vec::len).sum(),
                streams: Vec::new(),
                plan,
            },
            waiting: self.targets.len(),
            quiesced,
            scrub,
            repair_cut,
            owed,
        });
    }

    /// A recovery message reached its target. A scan occupies a target
    /// core, then ships its records back. A discard batch goes to its
    /// SSD, which runs the discards one at a time; the batch completes
    /// with the last.
    pub(super) fn on_recovery_arrive(&mut self, now: SimTime, id: u64) {
        let msg = *self.cmd(id);
        if let CmdKind::Scan { mmio } = msg.kind {
            let per_slot = if mmio { PMR_SCAN_NS_PER_SLOT } else { DRAM_SCAN_NS_PER_RECORD };
            let core = &mut self.targets[msg.target].cores;
            let cost = SimDuration::from_nanos(per_slot * msg.phys.blocks as u64);
            let scanned = core.admit_to(0, now, cost);
            self.transmit(scanned, id, Leg::Completion, None);
        } else if let Some(rec) = &self.recovering {
            let ssd = &mut self.targets[msg.target].ssds[msg.ssd];
            let owed = rec.owed[&(msg.target, msg.ssd)].iter();
            let done = owed.fold(now, |_, r| ssd.submit_discard(now, r.lba, r.blocks).1);
            self.events.push(done, Event::DiscardsDone(id));
        }
    }

    /// A recovery reply reached initiator 0. The last scan reply runs
    /// the global merge and posts one discard batch per SSD that owes
    /// any; the last discard reply ends the recovery.
    pub(super) fn on_recovery_reply(&mut self, now: SimTime, kind: CmdKind) {
        let Some(rec) = &mut self.recovering else {
            return;
        };
        rec.waiting -= 1;
        if rec.waiting > 0 {
            return;
        }
        if kind == CmdKind::Discard {
            self.finish_recovery(now);
            return;
        }
        // Unlike a scan, the merge stays off the cores' ledger: an
        // initiator's is `initiator_util`, the I/O path's CPU that §6.1's
        // efficiency divides by, and nothing else waits for the merge.
        let merge_ns = MERGE_NS_PER_RECORD * rec.row.records_scanned as u64;
        let merged = now + SimDuration::from_nanos(merge_ns);
        rec.row.order_rebuild = merged.since(rec.row.crashed_at);
        let from = (merged + rec.scrub).max(rec.quiesced);
        let batches: Vec<_> = rec.owed.iter().map(|(&to, r)| (to, r.len() as u32)).collect();
        rec.waiting = batches.len();
        if batches.is_empty() {
            self.finish_recovery(from);
        }
        for ((t, ssd), n) in batches {
            let batch = Cmd::new(CmdKind::Discard, 0, t, ssd, 0, BlockRange::new(0, n));
            self.post_capsule(from, batch);
        }
    }

    /// Ends the recovery at `resumed_at`: settles every stream against
    /// the plan and reports the recovery; a survivable fault also
    /// reconnects the targets and resumes the workload in a fresh epoch.
    fn finish_recovery(&mut self, resumed_at: SimTime) {
        let Some(rec) = self.recovering.take() else {
            return;
        };
        let idx = rec.row.fault;
        let resume = self.cfg.faults.events[idx].resume;
        let data_recovery = resumed_at.since(rec.row.crashed_at + rec.row.order_rebuild);
        if let Some(tm) = &mut self.telemetry {
            tm.recovery_span(idx as u32, rec.row.crashed_at, resumed_at);
        }
        let rearm = resume.then_some(resumed_at);
        let streams: Vec<StreamRecovery> = (0..self.init_of_stream.len())
            .map(|s| self.recover_stream(s, &rec.row.plan, rec.repair_cut[s], rearm))
            .collect();
        if resume {
            self.reconnect_targets(&streams);
        }
        self.recoveries.push(RecoveryMetrics {
            resumed_at,
            data_recovery,
            streams,
            ..rec.row
        });

        // A later fault fires no earlier than this instant.
        self.epoch_start = resumed_at;
        if resume {
            for t in 0..self.threads.len() {
                self.events.push(resumed_at, Event::Resume(t));
            }
        }
    }

    /// Settles stream `s` against the recovery plan and reports its
    /// row. A halting (one-shot) fault only reports the plan's verdict;
    /// a resuming one (`resumed_at`) completes the
    /// durable-but-unacknowledged prefix, hands the stream's rolled-back
    /// groups back to its thread, and re-arms the owning initiator's
    /// ordering engines at the resume point.
    fn recover_stream(
        &mut self,
        s: usize,
        plan: &RecoveryPlan,
        repair_cut: u32,
        resumed_at: Option<SimTime>,
    ) -> StreamRecovery {
        let stream = StreamId(s as u16);
        let init = self.init_of_stream[s];
        let delivered = self.initiators[init].rio.delivered_through(stream);
        let sp = plan.stream(stream);
        let mut row = StreamRecovery {
            stream,
            delivered_through: delivered,
            valid_through: sp.map_or(delivered, |p| p.valid_through),
            redelivered: 0,
            requeued: 0,
        };
        let Some(resumed_at) = resumed_at else {
            return row;
        };
        // The scrub may pull the redelivery cut *below* the plan's
        // valid mark: a durable-but-corrupt (torn/rotted) group must
        // roll back and resubmit instead of redelivering.
        let valid = row.valid_through.0.min(repair_cut);
        row.valid_through = Seq(valid);

        if s < self.threads.len() {
            let t = s;
            let mut undelivered = std::mem::take(&mut self.threads[t].undelivered);
            // 1. Deliver the durable-but-unacknowledged prefix now: its
            //    data survived in storage order, so re-executing it
            //    would double-apply.
            while undelivered.front().is_some_and(|g| g.seq <= valid) {
                let g = undelivered.pop_front().expect("front exists");
                self.deliver(t, 1, g.spec.range.blocks as u64, g.submitted, resumed_at);
                row.redelivered += 1;
            }
            // 2. Everything beyond the prefix was rolled back: re-queue
            //    it ahead of the thread's ungenerated script,
            //    preserving submission order.
            row.requeued = undelivered.len() as u64;
            if row.requeued > 0 {
                if let Some(tm) = &mut self.telemetry {
                    tm.requeued(resumed_at, row.requeued);
                }
            }
            while let Some(g) = undelivered.pop_back() {
                self.threads[t].queue.push_front(g.spec);
            }
            let th = &mut self.threads[t];
            // Hand the emptied queue (and its capacity) back.
            th.undelivered = undelivered;
            th.inflight = 0;
            let was_syncing = matches!(th.wait, Wait::Sync);
            th.wait = Wait::Nothing;
            if was_syncing && row.requeued == 0 {
                // The op's sync point cleared during recovery; a
                // re-queued commit group re-arms it on resubmission
                // instead.
                self.finish_op(t, resumed_at);
            }
        }

        // 3. Re-arm sequencer and completer. The new epoch opens above
        //    everything the app saw complete AND everything the storage
        //    kept: on volatile drives the prefix can cut below the
        //    delivered mark (acked data was lost — ordinary non-fsync
        //    write-loss semantics), and on PLP drives it can extend
        //    above it (durable groups whose completions were in
        //    flight).
        let resume_prev = sp.map_or(&[][..], |p| &p.resume_prev);
        self.initiators[init]
            .rio
            .reset_stream(stream, row.valid_through.max(delivered), resume_prev);
        row
    }

    /// Reconnects every RIO target after a resuming recovery: a fresh
    /// gate epoch (dispatch ordinals restarted with the sequencer) and
    /// PMR logs re-formatted with the new epoch's head marks, so a later
    /// crash scans only post-resume records.
    fn reconnect_targets(&mut self, streams: &[StreamRecovery]) {
        for target in &mut self.targets {
            if let Some(rio) = &mut target.rio {
                let heads = streams.iter().map(|r| r.valid_through.max(r.delivered_through));
                let len = target.ssds[0].pmr().len();
                write_pmr(&mut target.ssds, rio.reconnect(len, heads));
            }
        }
    }
}
