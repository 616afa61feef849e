//! The target server: command arrival, the in-order submission gate,
//! PMR bookkeeping, per-tenant DRR admission and the SSD submit/done
//! path (Fig. 4 steps ④–⑧).
//!
//! Three of the four ordering modes share every handler here; they
//! branch on what the command carries (`cmd.attr`, `cmd.kind`), never
//! on the mode.

use std::collections::VecDeque;

use rio_net::Nic;
use rio_order::attr::{OrderingAttr, Seq, StreamId};
use rio_order::pmrlog::{PmrLog, PmrWrite, SlotRef};
use rio_order::SubmissionGate;
use rio_proto::{payload, PayloadDigest};
use rio_sim::{MultiServer, SimDuration, SimRng, SimTime};
use rio_ssd::{BlockImage, Images, Ssd, SsdProfile};

use super::wire::Leg;
use super::{Cluster, CmdKind, Event};
use crate::cpu::{
    CRC_PER_BLOCK_NS, IRQ_NS, PMR_APPEND_NS, PMR_TOGGLE_NS, SSD_SUBMIT_NS, TARGET_RECV_NS,
};
use crate::trace::Stage;

/// Blocks of SSD service one DRR weight unit earns per round.
const DRR_QUANTUM_BLOCKS: u64 = 8;
/// Admitted-but-incomplete writes one target sustains before its DRR
/// holds commands back. Small on purpose: fairness needs the backlog
/// to queue *here*, where the scheduler arbitrates, not inside the
/// device.
const DRR_OUTSTANDING_CAP: usize = 4;

/// Target-side deficit-round-robin scheduler over per-tenant queues
/// at the SSD admission point. Only instantiated when more than one
/// distinct tenant shares the cluster — single-tenant runs never
/// construct it, keeping them byte-identical to the pre-tenancy path.
pub(super) struct DrrSched {
    /// Per-tenant DRR weight (the sum of the tenant's initiators'
    /// weights, each at least 1), indexed like `Cluster::tenants`.
    weights: Vec<u32>,
    /// Per-tenant deficit counters, in blocks.
    deficits: Vec<u64>,
    /// Per-tenant FIFO of (command id, enqueue instant, blocks).
    queues: Vec<VecDeque<(u64, SimTime, u32)>>,
    /// Round-robin cursor over tenants.
    cursor: usize,
    /// Whether the cursor just arrived at its queue (quantum not yet
    /// granted for this visit). A visit spans many pump calls — the
    /// outstanding cap rations slots, not rounds — so the flag keeps
    /// one quantum per visit no matter how the pumping interleaves.
    fresh: bool,
    /// Writes admitted to this target's SSDs and not yet completed.
    outstanding: usize,
}

impl DrrSched {
    pub(super) fn new(weights: Vec<u32>) -> Self {
        let n = weights.len();
        DrrSched {
            weights,
            deficits: vec![0; n],
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            fresh: true,
            outstanding: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Forgets every queued command and outstanding write (a crash
    /// killed them all; their slab ids must never resolve again).
    pub(super) fn clear(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for d in &mut self.deficits {
            *d = 0;
        }
        self.fresh = true;
        self.outstanding = 0;
    }

    /// One pump of the scheduler: while the admission cap has room and
    /// tenants have queued writes, the cursor tenant earns
    /// `weight × quantum` blocks of deficit per visit and drains queue
    /// heads while the deficit lasts. Appends each admission to `admit`
    /// as (tenant index, command id, enqueue instant).
    fn admit_into(&mut self, admit: &mut Vec<(usize, u64, SimTime)>) {
        let n = self.queues.len();
        while self.outstanding < DRR_OUTSTANDING_CAP && !self.is_empty() {
            let i = self.cursor;
            if self.queues[i].is_empty() {
                // An emptied queue forfeits its leftover deficit
                // (classic DRR: no banking while idle).
                self.deficits[i] = 0;
                self.cursor = (i + 1) % n;
                self.fresh = true;
                continue;
            }
            // One quantum per *visit*, not per pump call: the
            // outstanding cap slices a visit across many calls, and
            // re-granting the quantum on every admission slot would
            // collapse the weights into plain round-robin.
            if self.fresh {
                self.deficits[i] += DRR_QUANTUM_BLOCKS * self.weights[i] as u64;
                self.fresh = false;
            }
            let &(id, queued_at, blocks) = self.queues[i].front().expect("non-empty");
            if (blocks as u64) > self.deficits[i] {
                // Deficit spent; the remainder carries into the next
                // round so oversized writes still progress.
                self.cursor = (i + 1) % n;
                self.fresh = true;
                continue;
            }
            self.deficits[i] -= blocks as u64;
            self.queues[i].pop_front();
            self.outstanding += 1;
            admit.push((i, id, queued_at));
        }
    }
}

/// One target server.
pub(super) struct Target {
    pub(super) cores: MultiServer,
    pub(super) nic: Nic,
    pub(super) gate: SubmissionGate,
    pub(super) ssds: Vec<Ssd>,
    pub(super) log: Option<PmrLog>,
    /// Per-tenant fair scheduler at the SSD admission point (`None`
    /// unless the run has more than one distinct tenant).
    pub(super) drr: Option<DrrSched>,
    /// Live PMR slots per stream (indexed by stream id), append order.
    pub(super) slots: Vec<VecDeque<(u32, SlotRef)>>,
    /// Whether a stream ever appended a PMR slot on this target; the
    /// superblock head mark is only maintained for such streams.
    pub(super) slot_seen: Vec<bool>,
    /// Last release (head-seq) applied per stream.
    pub(super) applied_release: Vec<u32>,
}

impl Target {
    /// Builds one target server for `streams` global streams: `cores`
    /// driver cores, its SSDs (each seeded from `rng`, in order) and,
    /// for Rio (`pmr_log`), a freshly formatted PMR log on the first SSD.
    pub(super) fn new(
        ssds: &[SsdProfile],
        cores: usize,
        nic: Nic,
        streams: usize,
        pmr_log: bool,
        integrity: bool,
        drr: Option<DrrSched>,
        rng: &mut SimRng,
    ) -> Self {
        let ssds = ssds
            .iter()
            .map(|p| {
                let mut s = Ssd::new(p.clone(), rng.below(u64::MAX));
                s.set_integrity(integrity);
                s
            })
            .collect();
        let mut t = Target {
            cores: MultiServer::new(cores),
            nic,
            gate: SubmissionGate::with_streams(streams),
            ssds,
            log: None,
            drr,
            slots: vec![VecDeque::new(); streams],
            slot_seen: vec![false; streams],
            applied_release: vec![0; streams],
        };
        if pmr_log {
            let (log, writes) = PmrLog::format(t.ssds[0].pmr().len(), streams);
            for w in &writes {
                t.apply_pmr_write(w);
            }
            t.log = Some(log);
        }
        t
    }

    pub(super) fn apply_pmr_write(&mut self, w: &PmrWrite) {
        self.ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
    }

    /// Persists a released command's ordering attribute in the PMR log
    /// (step ⑤) and remembers the slot for the stream's next release.
    fn pmr_append(&mut self, attr: &OrderingAttr) -> SlotRef {
        let log = self.log.as_mut().expect("rio target has a log");
        let (slot, write) = log
            .append(&attr.to_pmr_record(0))
            .expect("PMR log full: raise pmr size or lower inflight bound");
        self.apply_pmr_write(&write);
        self.slots[attr.stream.0 as usize].push_back((attr.seq_end.0, slot));
        self.slot_seen[attr.stream.0 as usize] = true;
        slot
    }

    /// Applies a delivered-through release from the initiator: frees
    /// PMR slots and advances the superblock head mark.
    fn apply_release(&mut self, stream: StreamId, through: u32) {
        let applied = &mut self.applied_release[stream.0 as usize];
        if through <= *applied {
            return;
        }
        *applied = through;
        // Only streams that ever appended a slot here carry a head mark
        // in this target's PMR superblock.
        if self.slot_seen[stream.0 as usize] {
            let q = &mut self.slots[stream.0 as usize];
            let log = self.log.as_mut().expect("rio target");
            while let Some(&(seq_end, slot)) = q.front() {
                if seq_end <= through {
                    q.pop_front();
                    log.free(slot);
                } else {
                    break;
                }
            }
            let w = log.set_head_seq(stream, Seq(through));
            self.apply_pmr_write(&w);
        }
    }

    /// Toggles the persist bit of a command's PMR record, charging the
    /// posted MMIO (`cost_ns`) to the connection's target core.
    fn pmr_persist(
        &mut self,
        cpu: SimTime,
        core: usize,
        slot: Option<SlotRef>,
        cost_ns: u64,
    ) -> SimTime {
        if let Some(slot) = slot {
            let w = self.log.as_ref().expect("rio target").mark_persist(slot);
            self.apply_pmr_write(&w);
        }
        self.cores.admit_to(core, cpu, SimDuration::from_nanos(cost_ns))
    }
}

impl Cluster {
    /// One half of command `id`'s target rendezvous landed at `at`: the
    /// data pull, or the driver work (CPU + gate release). The first
    /// half only records its instant; the second schedules the SSD
    /// submission at the later of the two, so it fires exactly once.
    pub(super) fn rendezvous(&mut self, id: u64, at: SimTime) {
        let cmd = self.cmd_mut(id);
        match cmd.ready {
            None => cmd.ready = Some(at),
            Some(first) => self.events.push(first.max(at), Event::SsdSubmit(id)),
        }
    }

    /// A command capsule reached its target: RECV, start the data pull,
    /// and pass the gate (Rio) or go straight to the driver (baselines).
    /// A control or recovery message goes to its own handler first,
    /// before the command is copied.
    pub(super) fn on_cmd_arrive(&mut self, now: SimTime, id: u64) {
        let cmd = self.cmd(id);
        match cmd.kind {
            CmdKind::Ctrl => {
                let target = cmd.target;
                self.on_ctrl_arrive(now, id, target);
                return;
            }
            CmdKind::Scan { .. } | CmdKind::Discard => {
                self.on_recovery_arrive(now, id);
                return;
            }
            CmdKind::Write | CmdKind::Flush => {}
        }
        let cmd = *cmd;
        let (target_idx, tid) = (cmd.target, cmd.trace);
        let init = self.threads[cmd.thread].init;
        // Target-side work lands on the core of the sender's
        // connection QP (one QP group per initiator).
        let core = self.conn_qp(cmd.thread, cmd.qp);
        let recv_done = self.targets[target_idx]
            .cores
            .admit_to(core, now, SimDuration::from_nanos(TARGET_RECV_NS));
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateAdmit, recv_done);
            tr.gate_depth(tid, self.targets[target_idx].gate.buffered() as u32);
        }
        if let Some(tm) = &mut self.telemetry {
            tm.gate_depth(recv_done, self.targets[target_idx].gate.buffered() as u32);
        }

        if cmd.kind == CmdKind::Flush {
            // Explicit FLUSH command (Linux mode): straight to the SSD.
            let submit = self.ungated_submit(recv_done, target_idx, core, tid);
            let ssd = &mut self.targets[target_idx].ssds[cmd.ssd];
            let (_op, done) = ssd.submit_flush(submit);
            ssd.retire(now);
            self.events.push(done, Event::SsdFlushDone(id));
            return;
        }

        // Pull the data blocks with a one-sided RDMA READ (overlaps any
        // gate wait). A dropped packet parks the pull in go-back-N
        // recovery; its half of the rendezvous lands when the resend
        // completes, and the submission waits for it.
        self.transmit(recv_done, id, Leg::Pull, None);

        if let Some(attr) = cmd.attr {
            // Apply the release piggyback for this stream.
            let through = self.initiators[init].rio.delivered_through(attr.stream);
            self.targets[target_idx].apply_release(attr.stream, through.0);
            // The in-order submission gate may buffer the command.
            let mut released = std::mem::take(&mut self.gate_scratch);
            released.clear();
            self.targets[target_idx]
                .gate
                .arrive_into(attr, id, &mut released);
            if !released.iter().any(|&(_, rid)| rid == id) {
                // The arriving command was held back out of order;
                // bill the buffering to its initiator.
                self.initiators[init].m.gate_buffered += 1;
            }
            let mut cpu = recv_done;
            for &(r_attr, r_id) in &released {
                cpu = self.rio_release(cpu, target_idx, r_attr, r_id);
            }
            self.gate_scratch = released;
        } else {
            // Baselines submit once the driver CPU work and the data
            // pull both finish (a scheduled event keeps the device
            // clock monotone).
            let submit = self.ungated_submit(recv_done, target_idx, core, tid);
            self.rendezvous(id, submit);
        }
    }

    /// Target driver work of a command no gate holds (explicit FLUSH,
    /// baseline writes): release == driver done.
    fn ungated_submit(&mut self, at: SimTime, target_idx: usize, core: usize, tid: u32) -> SimTime {
        let submit = self.targets[target_idx]
            .cores
            .admit_to(core, at, SimDuration::from_nanos(SSD_SUBMIT_NS));
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateRelease, submit);
        }
        submit
    }

    /// Processes one gate release: PMR append, then SSD submission.
    fn rio_release(
        &mut self,
        cpu: SimTime,
        target_idx: usize,
        attr: OrderingAttr,
        id: u64,
    ) -> SimTime {
        // Persist the ordering attribute before the data (step ⑤).
        let slot = self.targets[target_idx].pmr_append(&attr);
        let cmd = self.cmd_mut(id);
        cmd.slot = Some(slot);
        let (thread, qp, tid) = (cmd.thread, cmd.qp, cmd.trace);
        let core = self.conn_qp(thread, qp);
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateRelease, cpu);
        }
        let cpu = self.targets[target_idx]
            .cores
            .admit_to(core, cpu, SimDuration::from_nanos(PMR_APPEND_NS));
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::PmrPersist, cpu);
        }
        // Submit to the SSD once the driver work and the data pull both
        // finish (via an event, keeping the device clock monotone). A
        // retransmitted data pull may still be in flight here.
        let submit = self.targets[target_idx]
            .cores
            .admit_to(core, cpu, SimDuration::from_nanos(SSD_SUBMIT_NS));
        self.rendezvous(id, submit);
        cpu
    }

    /// A command's driver work and data pull are both done: submit its
    /// write — directly, or on multi-tenant runs behind its tenant's DRR
    /// share.
    pub(super) fn on_ssd_submit(&mut self, now: SimTime, id: u64) {
        let cmd = *self.cmd(id);
        if let Some(drr) = &mut self.targets[cmd.target].drr {
            let tenant_idx = self.initiators[self.threads[cmd.thread].init].tenant_idx;
            drr.queues[tenant_idx].push_back((id, now, cmd.phys.blocks));
            self.drr_pump(now, cmd.target);
            return;
        }
        self.ssd_submit_now(now, id);
    }

    /// Admits a write to its SSD unconditionally (the DRR already ran,
    /// or the run is single-tenant and the scheduler is inert).
    ///
    /// On integrity runs the target first re-derives the payload digest
    /// over the pulled bytes and checks it against the capsule's stamp
    /// (charging a per-block CRC pass). The fabric NAKs every corrupted
    /// packet back into go-back-N recovery, so by construction the
    /// check always passes here — the assert *is* the end-to-end
    /// guarantee that no corrupted payload reaches media. The write
    /// then carries each block's payload seed, sealed on acceptance.
    fn ssd_submit_now(&mut self, now: SimTime, id: u64) {
        let cmd = *self.cmd(id);
        let (target_idx, lba, blocks, tag) = (cmd.target, cmd.phys.lba, cmd.phys.blocks, cmd.tag());
        let (at, images) = if self.integrity {
            let core = self.conn_qp(cmd.thread, cmd.qp);
            let crc = SimDuration::from_nanos(CRC_PER_BLOCK_NS * blocks as u64);
            let at = self.targets[target_idx].cores.admit_to(core, now, crc);
            let stream = self.threads[cmd.thread].stream.0;
            let seed = |j| payload::seed_for(stream, tag, lba + j);
            // Compared by value: a reference into `cmd` handed to the
            // failure path would keep the whole copy in memory.
            assert!(
                PayloadDigest::over_seeds((0..blocks as u64).map(seed)) == cmd.digest,
                "corrupted payload reached the target SSD queue"
            );
            // A payload block travels as its seed, which the device
            // seals; the one-block command that is nearly every
            // command carries no list.
            let image = |j| BlockImage::Payload(seed(j));
            let images = if blocks == 1 {
                Images::Run(image(0), 1)
            } else {
                Images::List((0..blocks as u64).map(image).collect())
            };
            (at, images)
        } else {
            (now, Images::Run(BlockImage::Tag(tag), blocks))
        };
        if let Some(tm) = &mut self.telemetry {
            tm.ssd_admit(at, target_idx);
        }
        let ssd = &mut self.targets[target_idx].ssds[cmd.ssd];
        let (_op, done) = ssd.submit_write(at, lba, images, false);
        // `at` may run ahead of the clock; `now` is the floor.
        ssd.retire(now);
        self.events.push(done, Event::SsdWriteDone(id));
    }

    /// Pumps one target's DRR scheduler: admitted writes hit the SSD at
    /// `now`; their wait is recorded in the per-tenant admission
    /// histogram.
    fn drr_pump(&mut self, now: SimTime, target_idx: usize) {
        let mut admit = std::mem::take(&mut self.admit_scratch);
        if let Some(drr) = &mut self.targets[target_idx].drr {
            drr.admit_into(&mut admit);
        }
        for (tenant_idx, id, queued_at) in admit.drain(..) {
            self.tenant_gate_wait[tenant_idx].record(now.since(queued_at));
            if let Some(tm) = &mut self.telemetry {
                tm.drr_wait(now, tenant_idx, now.since(queued_at));
            }
            self.ssd_submit_now(now, id);
        }
        self.admit_scratch = admit;
    }

    /// Submits a command's embedded FLUSH at the event's instant.
    pub(super) fn on_ssd_flush_submit(&mut self, now: SimTime, id: u64) {
        let cmd = *self.cmd(id);
        let ssd = &mut self.targets[cmd.target].ssds[cmd.ssd];
        let (_op, done) = ssd.submit_flush(now);
        ssd.retire(now);
        self.events.push(done, Event::SsdFlushDone(id));
    }

    /// A command's SSD write finished: free its DRR admission slot,
    /// then run the media-done path.
    pub(super) fn on_ssd_write_done(&mut self, now: SimTime, id: u64) {
        let target_idx = self.cmd(id).target;
        if let Some(tm) = &mut self.telemetry {
            tm.ssd_done(now, target_idx);
        }
        if let Some(drr) = &mut self.targets[target_idx].drr {
            // A completed write frees one admission slot; let the DRR
            // refill it before the completion is processed.
            drr.outstanding = drr.outstanding.saturating_sub(1);
            self.drr_pump(now, target_idx);
        }
        self.on_media_done(now, id, false);
    }

    /// The device finished a command's write (`flushed == false`) or
    /// its FLUSH — embedded or explicit (`flushed == true`): IRQ, then
    /// either chain the embedded FLUSH or complete the command.
    pub(super) fn on_media_done(&mut self, now: SimTime, id: u64, flushed: bool) {
        let cmd = *self.cmd(id);
        let (target_idx, core) = (cmd.target, self.conn_qp(cmd.thread, cmd.qp));
        let chain_flush = cmd.flush_embedded && !flushed;
        // Rio toggles the record's persist bit once the data is durable
        // (step ⑦): at write completion on PLP drives; otherwise only on
        // the FLUSH carrier, which vouches for everything before it
        // (§4.3.2).
        let plp = self.targets[target_idx].ssds[cmd.ssd].profile().plp;
        let persist = cmd.attr.is_some() && (flushed || plp);
        if let Some(tr) = &mut self.trace {
            // An embedded FLUSH overwrites the write's stamp when it
            // lands (last write wins): media-done is the durability
            // instant.
            tr.rec(cmd.trace, Stage::MediaDone, now);
        }
        let target = &mut self.targets[target_idx];
        let mut cpu = target.cores.admit_to(core, now, SimDuration::from_nanos(IRQ_NS));
        if chain_flush {
            // The final request of a durability group embeds a FLUSH
            // (§4.6): run it before completing.
            self.events.push(cpu, Event::SsdFlushSubmit(id));
            return;
        }
        if persist {
            cpu = target.pmr_persist(cpu, core, cmd.slot, PMR_TOGGLE_NS);
        }
        self.transmit(cpu, id, Leg::Completion, None);
    }
}
