//! The target server: command arrival, the RIO target driver's gate and
//! PMR log (`rio_order::RioTarget`), per-tenant DRR admission and the
//! SSD submit/done path (Fig. 4 steps ④–⑧).
//!
//! Three of the four ordering modes share every handler here; they
//! branch on what the command carries (`cmd.attr`, `cmd.kind`), never
//! on the mode.

use std::collections::VecDeque;

use rio_net::Nic;
use rio_order::attr::OrderingAttr;
use rio_order::pmrlog::PmrWrite;
use rio_order::RioTarget;
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
    pub(super) ssds: Vec<Ssd>,
    /// The gate, the PMR log and its slot book (`None` unless the mode
    /// is RIO).
    pub(super) rio: Option<RioTarget>,
    /// Per-tenant fair scheduler at the SSD admission point (`None`
    /// unless the run has more than one distinct tenant).
    pub(super) drr: Option<DrrSched>,
}

impl Target {
    /// Builds one target server: `cores` driver cores, its SSDs (each
    /// seeded from `rng`, in order) and, for RIO (`rio_streams`), a
    /// freshly formatted PMR log for that many streams on the first SSD.
    pub(super) fn new(
        ssds: &[SsdProfile],
        cores: usize,
        nic: Nic,
        rio_streams: Option<usize>,
        integrity: bool,
        drr: Option<DrrSched>,
        rng: &mut SimRng,
    ) -> Self {
        let mut ssds: Vec<Ssd> = ssds
            .iter()
            .map(|p| {
                let mut s = Ssd::new(p.clone(), rng.below(u64::MAX));
                s.set_integrity(integrity);
                s
            })
            .collect();
        let rio = rio_streams.map(|streams| {
            let (rio, writes) = RioTarget::format(ssds[0].pmr().len(), streams);
            write_pmr(&mut ssds, writes);
            rio
        });
        Target {
            cores: MultiServer::new(cores),
            nic,
            ssds,
            rio,
            drr,
        }
    }
}

/// Applies a RIO target's log writes to its first SSD's PMR.
pub(super) fn write_pmr(ssds: &mut [Ssd], writes: impl IntoIterator<Item = PmrWrite>) {
    for w in writes {
        ssds[0].pmr_mut().mmio_write(w.offset, &w.bytes);
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
        let target = &mut self.targets[target_idx];
        let recv_done = target.cores.admit_to(core, now, SimDuration::from_nanos(TARGET_RECV_NS));
        let depth = target.rio.as_ref().map_or(0, |rio| rio.gate.buffered()) as u32;
        if let Some(tr) = &mut self.trace {
            tr.rec(tid, Stage::GateAdmit, recv_done);
            tr.gate_depth(tid, depth);
        }
        if let Some(tm) = &mut self.telemetry {
            tm.gate_depth(recv_done, depth);
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

        let Target { rio, ssds, .. } = &mut self.targets[target_idx];
        if let (Some(attr), Some(rio)) = (cmd.attr, rio) {
            // Apply the release piggyback for this stream.
            let through = self.initiators[init].rio.delivered_through(attr.stream);
            write_pmr(ssds, rio.release(attr.stream, through));
            // The in-order submission gate may buffer the command.
            let mut released = std::mem::take(&mut self.gate_scratch);
            released.clear();
            rio.gate.arrive_into(attr, id, &mut released);
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
        let Target { rio, ssds, .. } = &mut self.targets[target_idx];
        let slot = rio.as_mut().map(|rio| {
            let (slot, write) = rio
                .append(&attr)
                .expect("PMR log full: raise pmr size or lower inflight bound");
            write_pmr(ssds, [write]);
            slot
        });
        let cmd = self.cmd_mut(id);
        cmd.slot = slot;
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
            if let (Some(rio), Some(slot)) = (&target.rio, cmd.slot) {
                write_pmr(&mut target.ssds, [rio.mark_persist(slot)]);
            }
            cpu = target.cores.admit_to(core, cpu, SimDuration::from_nanos(PMR_TOGGLE_NS));
        }
        self.transmit(cpu, id, Leg::Completion, None);
    }
}
