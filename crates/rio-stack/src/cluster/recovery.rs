//! In-loop fault handling and the §4.4 / §6.5 recovery: the cost model
//! and the orchestration that spends it.
//!
//! A [`crate::config::FaultPlan`] on the cluster configuration crashes
//! arbitrary target subsets (or single NICs) at arbitrary virtual
//! times — including while retransmissions are in flight. The handler
//! here applies the physical failure, then the initiator (1) rebuilds
//! the global order from the PMR logs and (2) discards the data blocks
//! that disobey the storage order, and — for survivable faults —
//! re-arms every ordering engine and resumes the workload in a fresh
//! epoch. Both phases are timed separately in
//! [`crate::metrics::RecoveryMetrics`], matching the paper's "~55 ms to
//! reconstruct the global order" and "~125 ms data recovery" breakdown.
//!
//! Recovery cost model:
//!
//! * PMR scanning is MMIO-bound: each 32 B slot read costs
//!   [`PMR_SCAN_US_PER_SLOT`] µs of target CPU — this, not the 2 MB
//!   network transfer, dominates phase 1 exactly as the paper observes
//!   ("most of which is spent on reading data from PMR").
//! * Scanned records travel to the initiator as one RDMA transfer.
//! * The global merge is CPU work proportional to the live records.
//! * Each discard is an SSD command; discards run concurrently per SSD
//!   (the paper's "discarding is performed asynchronously for each SSD
//!   and each server").

use rio_order::attr::{Seq, ServerId, StreamId};
use rio_order::pmrlog::PmrLog;
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::SubmissionGate;
use rio_sim::{SimDuration, SimTime};

use super::{Cluster, Event};
use crate::config::FaultKind;
use crate::metrics::{RecoveryMetrics, StreamRecovery};

/// Cost of one 32 B MMIO read while scanning the PMR (µs). Paid only
/// by power-failed targets, whose driver state died with them.
pub const PMR_SCAN_US_PER_SLOT: f64 = 0.8;

/// Cost of reading one live record from an *alive* target driver's
/// in-memory log mirror (µs). A target that kept power never rescans
/// its PMR over MMIO — the driver still knows its live slots and ships
/// them from DRAM, which is why a NIC flap recovers orders of
/// magnitude faster than a power failure.
pub const DRAM_SCAN_US_PER_RECORD: f64 = 0.05;

/// CPU cost of merging one scanned record into the global list (ns).
pub const MERGE_NS_PER_RECORD: u64 = 350;

/// SSD-side cost of one discard command (µs). TRIM-class commands on
/// scattered 4 KB ranges are far slower than reads/writes on real
/// devices (calibrated against the paper's ~125 ms data recovery).
pub const DISCARD_US: f64 = 150.0;

/// Cost of verifying one sealed media block during the post-quiesce
/// integrity scrub (µs): a 4 KB read plus a CRC-32C pass. Paid only on
/// integrity runs, in parallel per SSD.
pub const SCRUB_US_PER_BLOCK: f64 = 2.0;

impl Cluster {
    /// Handles one scheduled fault: applies the physical failure, runs
    /// the §4.4 recovery (parallel PMR scans, global merge, discard of
    /// out-of-order blocks) inside the event loop, and — for survivable
    /// faults — re-arms every ordering engine and resumes the workload
    /// in a fresh epoch.
    pub(super) fn on_fault(&mut self, now: SimTime, idx: usize) {
        self.fault_cursor = idx + 1;
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
            let mut torn = 0u64;
            for &t in &crashed {
                for ssd in &mut self.targets[t].ssds {
                    torn += ssd.crash(now);
                }
            }
            self.integ.torn_injected += torn;
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
            let mut rotted = 0u64;
            for &t in &crashed {
                for ssd in &mut self.targets[t].ssds {
                    rotted += ssd.rot_at_rest(*flips);
                }
            }
            self.integ.rot_injected += rotted;
        }

        // ---- Phase 1: rebuild the global order ------------------------
        // Targets scan in parallel and ship their records in one
        // transfer each; the initiator merges serially. A power-failed
        // target lost its driver and must MMIO-scan the whole PMR
        // region; an alive target's driver still knows its live slots
        // and answers from DRAM — which is why a NIC flap recovers
        // orders of magnitude faster than a power failure.
        let fabric_bw = self.cfg.fabric.bandwidth;
        let one_way_us = self.cfg.fabric.one_way_latency_us;
        let mut scans = Vec::new();
        let mut scan_parallel = SimDuration::ZERO;
        let mut records_total = 0usize;
        for (t, target) in self.targets.iter().enumerate() {
            let plp = target.ssds[0].profile().plp;
            let pmr = target.ssds[0].pmr();
            let outcome = PmrLog::scan(pmr.contents()).expect("formatted PMR");
            let full_scan = power_fail && crashed.contains(&t);
            let (scan_us, bytes) = if full_scan {
                let slots = pmr.len() / 32;
                (slots as f64 * PMR_SCAN_US_PER_SLOT, pmr.len() as u64)
            } else {
                let live = outcome.records.len();
                (
                    live as f64 * DRAM_SCAN_US_PER_RECORD,
                    live as u64 * 32,
                )
            };
            let scan_time = SimDuration::from_micros_f64(scan_us);
            let wire = SimDuration::from_micros_f64(
                bytes as f64 / fabric_bw * 1e6 + 2.0 * one_way_us,
            );
            scan_parallel = scan_parallel.max(scan_time + wire);
            records_total += outcome.records.len();
            scans.push(ServerScan {
                server: ServerId(t as u16),
                plp,
                head_seqs: outcome.head_seqs,
                records: outcome.records,
            });
        }
        let merge_cpu = SimDuration::from_nanos(MERGE_NS_PER_RECORD * records_total as u64);
        let order_rebuild = scan_parallel + merge_cpu;
        let plan = RecoveryPlan::compute(&RecoveryInput {
            scans,
            mode: RecoveryMode::InitiatorRestart,
        });

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
        // unrepairable data loss: reported and discarded.
        let mut repair_cut = vec![u32::MAX; self.init_of_stream.len()];
        let mut extra_discards: Vec<(usize, usize, u64)> = Vec::new();
        let mut scrub_parallel = SimDuration::ZERO;
        if self.integrity {
            let mut scrubbed = 0u64;
            let mut detected = 0u64;
            let mut repaired = 0u64;
            let mut unrepairable = 0u64;
            // Physical legs were registered target-major, SSD-minor —
            // the same nested order as this walk.
            let mut leg = 0usize;
            for (t, target) in self.targets.iter().enumerate() {
                for (s_idx, ssd) in target.ssds.iter().enumerate() {
                    let (scanned, corrupt) = ssd.scrub();
                    scrubbed += scanned;
                    scrub_parallel = scrub_parallel.max(SimDuration::from_micros_f64(
                        scanned as f64 * SCRUB_US_PER_BLOCK,
                    ));
                    for &plba in &corrupt {
                        detected += 1;
                        let logical = self.volume.logical_of(leg, plba);
                        let mut owner = None;
                        'find: for th in &self.threads {
                            for g in &th.undelivered {
                                for m in g.spec.members.iter() {
                                    if logical >= m.range.lba
                                        && logical < m.range.lba + m.range.blocks as u64
                                    {
                                        owner = Some((th.stream.0 as usize, g.seq));
                                        break 'find;
                                    }
                                }
                            }
                        }
                        if let Some((s, seq)) = owner {
                            repaired += 1;
                            repair_cut[s] = repair_cut[s].min(seq.saturating_sub(1));
                        } else {
                            unrepairable += 1;
                        }
                        extra_discards.push((t, s_idx, plba));
                    }
                    leg += 1;
                }
            }
            self.integ.scrubbed_records += scrubbed;
            self.integ.media_detected += detected;
            self.integ.media_repaired += repaired;
            self.integ.media_unrepairable += unrepairable;
            self.integ.scrub_us += scrub_parallel.as_nanos() as f64 / 1e3;
        }

        // ---- Phase 2: discard out-of-order blocks ---------------------
        // Discards run concurrently per (server, ssd); within one SSD
        // they serialize at DISCARD_US plus one wire round trip.
        let t_disc = (now + order_rebuild + scrub_parallel).max(quiesced);
        for target in &mut self.targets {
            for ssd in &mut target.ssds {
                ssd.advance(t_disc);
            }
        }
        let mut per_ssd_counts: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        let mut discards = 0usize;
        for sp in &plan.streams {
            for d in &sp.discard {
                discards += 1;
                *per_ssd_counts
                    .entry((d.server.0 as usize, d.ssd as usize))
                    .or_insert(0) += 1;
                let ssd = &mut self.targets[d.server.0 as usize].ssds[d.ssd as usize];
                ssd.submit_discard(t_disc, d.range.lba, d.range.blocks);
            }
        }
        // Scrub-detected corrupt blocks are discarded too: a repairable
        // block's group resubmits fresh bytes, an unrepairable block
        // must at least never read back with a valid-looking payload.
        for &(t, s_idx, plba) in &extra_discards {
            discards += 1;
            *per_ssd_counts.entry((t, s_idx)).or_insert(0) += 1;
            self.targets[t].ssds[s_idx].submit_discard(t_disc, plba, 1);
        }
        let data_recovery = per_ssd_counts
            .values()
            .map(|&n| SimDuration::from_micros_f64(n as f64 * DISCARD_US + 2.0 * one_way_us))
            .max()
            .unwrap_or(SimDuration::ZERO);
        let resumed_at = t_disc + data_recovery;
        if let Some(tm) = &mut self.telemetry {
            tm.recovery_span(idx as u32, now, resumed_at);
        }

        // ---- Re-arm and resume (or halt for one-shot experiments) -----
        let rearm = ev.resume.then_some(resumed_at);
        let streams: Vec<StreamRecovery> = (0..self.init_of_stream.len())
            .map(|s| self.recover_stream(s, &plan, repair_cut[s], rearm))
            .collect();
        if ev.resume {
            self.reconnect_targets(&streams);
        }

        self.recoveries.push(RecoveryMetrics {
            fault: idx,
            crashed_targets: crashed,
            power_fail,
            crashed_at: now,
            resumed_at,
            order_rebuild,
            data_recovery,
            records_scanned: records_total,
            discards,
            streams,
            plan,
        });

        self.epoch_start = resumed_at;
        if ev.resume {
            // The heap clear above killed the later fault events too;
            // re-arm them. A fault scheduled inside this recovery
            // window slips to the resume instant.
            for j in (idx + 1)..self.cfg.faults.events.len() {
                let at = self.cfg.faults.events[j].at.max(resumed_at);
                self.events.push(at, Event::Fault(j as u32));
            }
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
                self.deliver(t, 1, g.spec.blocks() as u64, g.submitted, resumed_at);
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
            th.parked = false;
            let was_syncing = th.syncing;
            th.syncing = false;
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

    /// Reconnects every target after a resuming recovery: a fresh gate
    /// epoch (dispatch ordinals restarted with the sequencer) and PMR
    /// logs re-formatted with the new epoch's head marks, so a later
    /// crash scans only post-resume records.
    fn reconnect_targets(&mut self, streams: &[StreamRecovery]) {
        for target in &mut self.targets {
            target.gate = SubmissionGate::with_streams(streams.len());
            for q in &mut target.slots {
                q.clear();
            }
            if target.log.is_some() {
                let pmr_len = target.ssds[0].pmr().len();
                let (log, writes) = PmrLog::format(pmr_len, streams.len());
                for w in &writes {
                    target.apply_pmr_write(w);
                }
                for (s, row) in streams.iter().enumerate() {
                    let head = row.valid_through.max(row.delivered_through);
                    let w = log.set_head_seq(row.stream, head);
                    target.apply_pmr_write(&w);
                    target.slot_seen[s] = true;
                    target.applied_release[s] = head.0;
                }
                target.log = Some(log);
            }
        }
    }
}
