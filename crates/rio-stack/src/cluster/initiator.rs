//! The initiator host: submitter threads, the `librio` handle they
//! share, the RIO and orderless submit loops, dispatch, and the
//! completion side up to in-order delivery (Fig. 4 steps ①–③ and ⑨).
//!
//! Thread `i` owns global stream `i` for the whole run, and delivery on
//! a stream is in order — so a thread's submitted-but-undelivered
//! groups are one FIFO ([`ThreadState::undelivered`]), the only
//! per-group state the engine keeps.

use std::collections::VecDeque;

use rio_block::{Bio, Extent};
use rio_net::Nic;
use rio_order::attr::{BlockRange, OrderingAttr, StreamId};
use rio_order::scheduler::{split_attr_into, QueuedRequest, MAX_MERGE_BLOCKS};
use rio_order::{Rio, RioSetup};
use rio_proto::{payload, PayloadDigest};
use rio_sim::{Histogram, MultiServer, SimDuration, SimRng, SimTime};

use super::{Cluster, Cmd, CmdKind, Event, Unit};
use crate::config::{InitiatorConfig, OrderingMode};
use crate::cpu::{
    CMD_POST_NS, CRC_PER_BLOCK_NS, CTX_SWITCH_NS, IRQ_NS, MERGE_PER_BIO_NS, ORDER_QUEUE_NS,
    SUBMIT_BIO_NS,
};
use crate::metrics::InitiatorMetrics;
use crate::trace::Stage;
use crate::workload::{FsyncStage, GroupSpec};

/// Slot index of an fsync stage in `stage_marks` / `stage_dispatch`.
fn stage_index(stage: FsyncStage) -> usize {
    match stage {
        FsyncStage::Data => 0,
        FsyncStage::Meta => 1,
        FsyncStage::Commit => 2,
    }
}

/// One submitted-but-undelivered group of a Rio thread.
#[derive(Debug)]
pub(super) struct Undelivered {
    /// Group sequence number on the thread's stream.
    pub(super) seq: u32,
    /// When it was submitted (the latency clock's start).
    pub(super) submitted: SimTime,
    /// The script entry, moved in at submit: its blocks and fsync stage
    /// are read off it, and a recovery re-queues it from here.
    pub(super) spec: GroupSpec,
}

/// What a submitter thread is blocked on. A completion wakes only a
/// `Slot` thread that has work and window room, or a `Sync` thread
/// whose window drained; a thread in `Ack` is woken by its gate
/// `Resume` alone.
#[derive(Debug)]
pub(super) enum Wait {
    /// Runnable, or done submitting.
    Nothing,
    /// Parked on a full window or an exhausted script.
    Slot,
    /// At a sync point: waits for `inflight == 0`.
    Sync,
    /// Horae: this group's control message awaits its ack (its data
    /// path dispatches then). The control path is serialized, so there
    /// is at most one.
    Ack(GroupSpec),
}

/// Per-thread state.
pub(super) struct ThreadState {
    /// Owning initiator (index into `Cluster::initiators`).
    pub(super) init: usize,
    pub(super) core: usize,
    pub(super) stream: StreamId,
    /// Next script unit (op) index to generate.
    pub(super) next_op: u64,
    /// Generated-but-unsubmitted groups of the current/pending ops.
    pub(super) queue: VecDeque<GroupSpec>,
    pub(super) inflight: usize,
    pub(super) area_start: u64,
    pub(super) area_blocks: u64,
    pub(super) rng: SimRng,
    pub(super) wait: Wait,
    /// Start of the current fsync op (its first stage's submission;
    /// `None` between ops — an op may well start at t = 0).
    pub(super) op_start: Option<SimTime>,
    /// Dispatch timestamps of the current op's stages.
    pub(super) stage_marks: [Option<SimTime>; 3],
    /// Linux mode: whether the in-flight group needs a FLUSH leg and
    /// whether it ends an op.
    pub(super) cur_flush_leg: bool,
    pub(super) cur_sync_after: bool,
    /// Rio: submitted-but-undelivered groups. Thread `i` owns stream
    /// `i` and delivery is in order, so this is one FIFO with
    /// contiguous sequence numbers: group `seq` sits at index
    /// `seq - front.seq`, a delivery pops the front, and a recovery
    /// redelivers the durable prefix and re-queues the rolled-back tail.
    pub(super) undelivered: VecDeque<Undelivered>,
}

impl ThreadState {
    /// Thread (and stream) `i`, pinned to `core` of initiator `init`,
    /// writing its private `area_blocks`-block slice of the volume.
    /// `window` pre-sizes the undelivered queue (0 outside Rio, where
    /// it stays empty).
    pub(super) fn new(
        i: usize,
        init: usize,
        core: usize,
        area_blocks: u64,
        window: usize,
        rng: SimRng,
    ) -> Self {
        ThreadState {
            init,
            core,
            stream: StreamId(i as u16),
            next_op: 0,
            queue: VecDeque::new(),
            inflight: 0,
            area_start: i as u64 * area_blocks,
            area_blocks,
            rng,
            wait: Wait::Nothing,
            op_start: None,
            stage_marks: [None; 3],
            cur_flush_leg: false,
            cur_sync_after: false,
            undelivered: VecDeque::with_capacity(window),
        }
    }

    /// The still-undelivered group `seq` of this thread's stream.
    fn undelivered_group(&self, seq: u32) -> Option<&Undelivered> {
        let front = self.undelivered.front()?;
        self.undelivered.get(seq.checked_sub(front.seq)? as usize)
    }
}

/// One initiator host: its driver cores, fabric NIC and `librio`
/// handle (sequencer, ORDER queues, in-order completer), plus the
/// slice of the global stream space it owns. Stream ids are global —
/// initiator `i` owns `[m.stream_base, m.stream_base + m.streams)` — so
/// every structure keyed by (global) stream is implicitly keyed by
/// (initiator, stream) with no id translation anywhere on the event
/// path.
pub(super) struct Initiator {
    pub(super) cores: MultiServer,
    pub(super) nic: Nic,
    /// Sized at the *global* stream count; the initiator only ever
    /// touches its own slice.
    pub(super) rio: Rio,
    /// Index of the tenant it bills to in `Cluster::tenants`.
    pub(super) tenant_idx: usize,
    /// Its `RunMetrics::initiators` row — identity (tenant, weight,
    /// stream slice) and the counters the event path bumps in place.
    /// Run totals are sums of these rows; `util` is filled in by
    /// `metrics()`.
    pub(super) m: InitiatorMetrics,
}

impl Initiator {
    /// Initiator `index` with `cores` driver cores, owning `ic.streams`
    /// global streams from `stream_base`.
    pub(super) fn new(
        index: usize,
        ic: &InitiatorConfig,
        cores: usize,
        tenant_idx: usize,
        stream_base: usize,
        nic: Nic,
        rio: RioSetup,
    ) -> Self {
        Initiator {
            cores: MultiServer::new(cores),
            nic,
            rio: Rio::setup(rio),
            tenant_idx,
            m: InitiatorMetrics {
                initiator: index,
                tenant: ic.tenant,
                weight: ic.weight,
                stream_base,
                streams: ic.streams,
                groups_done: 0,
                blocks_done: 0,
                commands_sent: 0,
                gate_buffered: 0,
                group_latency: Histogram::new(),
                util: 0.0,
                finished_at: SimTime::ZERO,
            },
        }
    }
}

impl Cluster {
    /// Thread `t` (re)considers submitting work: the one place the
    /// ordering mode picks a submit engine.
    pub(super) fn on_resume(&mut self, now: SimTime, t: usize) {
        // A thread at a sync point stays blocked until its window drains
        // (`maybe_wake` finishes the op and resumes it), a Horae thread
        // until its control ack.
        let th = &mut self.threads[t];
        if matches!(th.wait, Wait::Sync | Wait::Ack(_)) {
            return;
        }
        th.wait = Wait::Nothing;
        match self.cfg.mode {
            OrderingMode::Rio { .. } => self.submit_async_rio(now, t),
            OrderingMode::Orderless => self.submit_async_orderless(now, t),
            OrderingMode::Horae => self.submit_horae(now, t),
            OrderingMode::LinuxNvmf => self.submit_linux(now, t),
        }
    }

    pub(super) fn thread_has_work(&self, t: usize) -> bool {
        !self.threads[t].queue.is_empty()
            || self.threads[t].next_op < self.workload.groups_per_thread
    }

    /// Pops the next group to submit, generating the next script unit
    /// when the queue runs dry.
    pub(super) fn next_group_spec(&mut self, t: usize) -> GroupSpec {
        if self.threads[t].queue.is_empty() {
            let th = &mut self.threads[t];
            self.workload.op_into(
                th.next_op,
                th.area_start,
                th.area_blocks,
                &mut th.rng,
                &mut th.queue,
            );
            th.next_op += 1;
        }
        self.threads[t].queue.pop_front().expect("queue refilled")
    }

    /// Charges per-op application CPU and tracks fsync op starts.
    pub(super) fn note_group_start(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        spec: &GroupSpec,
    ) -> SimTime {
        if spec.app_cpu_ns > 0 {
            cpu = self.init_run_on(t, cpu, spec.app_cpu_ns);
        }
        // The op clock starts at the first staged group after the
        // previous op finished.
        if spec.stage.is_some() && self.threads[t].op_start.is_none() {
            self.threads[t].op_start = Some(cpu);
        }
        cpu
    }

    /// Records the dispatch mark of an fsync stage.
    pub(super) fn mark_stage(&mut self, t: usize, stage: FsyncStage, at: SimTime) {
        let idx = stage_index(stage);
        if self.threads[t].stage_marks[idx].is_none() {
            self.threads[t].stage_marks[idx] = Some(at);
        }
    }

    /// Finishes the current fsync op at `now` (the sync point cleared).
    pub(super) fn finish_op(&mut self, t: usize, now: SimTime) {
        let th = &mut self.threads[t];
        let start = th.op_start.take();
        let marks = std::mem::take(&mut th.stage_marks);
        self.ops_done += 1;
        if let Some(start) = start {
            self.op_latency.record(now.since(start));
            let mut prev = start;
            for (i, m) in marks.iter().enumerate() {
                if let Some(at) = m {
                    self.stage_lat[i].record(at.since(prev).as_nanos() as f64);
                    prev = *at;
                }
            }
            self.stage_lat[3].record(now.since(prev).as_nanos() as f64);
        }
    }

    /// Rio: submit batches through the initiator's `librio` handle.
    fn submit_async_rio(&mut self, now: SimTime, t: usize) {
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while self.threads[t].inflight < window && self.thread_has_work(t) {
            let batch = self.workload.batch.max(1);
            let mut submitted = 0;
            let mut hit_sync = false;
            while submitted < batch && self.threads[t].inflight < window && self.thread_has_work(t)
            {
                let spec = self.next_group_spec(t);
                cpu = self.note_group_start(cpu, t, &spec);
                let stream = self.threads[t].stream;
                cpu = self.init_run_on(t, cpu, SUBMIT_BIO_NS + ORDER_QUEUE_NS);
                let rio = &mut self.initiators[self.threads[t].init].rio;
                let seq = rio.submit(stream, spec.range, true, spec.flush).seq_start.0;
                if let Some(tm) = &mut self.telemetry {
                    tm.group_submitted(cpu, 1);
                }
                hit_sync = spec.sync_after;
                let th = &mut self.threads[t];
                debug_assert!(th.undelivered.back().is_none_or(|g| g.seq + 1 == seq));
                th.undelivered.push_back(Undelivered {
                    seq,
                    submitted: cpu,
                    spec,
                });
                th.inflight += 1;
                submitted += 1;
                if hit_sync {
                    break;
                }
            }
            // Flush the ORDER queue: merge pass + dispatch, out of the
            // one batch every flush of the run recycles.
            let mut batch = std::mem::take(&mut self.rio_batch);
            self.initiators[self.threads[t].init].rio.flush_into(self.threads[t].stream, &mut batch);
            for (attr, parts) in batch.units() {
                let merged_extra = parts.len() as u64 - 1;
                if merged_extra > 0 {
                    cpu = self.init_run_on(t, cpu, MERGE_PER_BIO_NS * merged_extra);
                }
                cpu = self.dispatch_rio_unit(cpu, t, attr, parts);
            }
            self.rio_batch = batch;
            if hit_sync && self.wait_for_sync(t, cpu) {
                return;
            }
        }
        self.park_or_finish(t);
    }

    /// Thread `t` reached a sync point at `cpu`: it parks until its
    /// window drains (`maybe_wake` then finishes the op). Returns
    /// `false` in the degenerate case where nothing is in flight and
    /// the op finishes on the spot.
    pub(super) fn wait_for_sync(&mut self, t: usize, cpu: SimTime) -> bool {
        let waiting = self.threads[t].inflight > 0;
        if !waiting {
            self.finish_op(t, cpu);
        }
        self.threads[t].wait = if waiting { Wait::Sync } else { Wait::Nothing };
        waiting
    }

    /// Submit-loop epilogue: the thread parks while it has work queued
    /// or in flight, and is done submitting otherwise.
    pub(super) fn park_or_finish(&mut self, t: usize) {
        let parks = self.thread_has_work(t) || self.threads[t].inflight > 0;
        self.threads[t].wait = if parks { Wait::Slot } else { Wait::Nothing };
    }

    /// Dispatches one Rio unit — its (merged) attribute and the queued
    /// requests it covers: stripe, split, stamp, send fragments.
    fn dispatch_rio_unit(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        attr: &OrderingAttr,
        parts: &[QueuedRequest],
    ) -> SimTime {
        let mut extents = std::mem::take(&mut self.extent_scratch);
        extents.clear();
        self.chunked_extents_into(attr.range, &mut extents);
        // One fragment per extent, carrying its physical range.
        let mut frags = std::mem::take(&mut self.frag_scratch);
        frags.clear();
        split_attr_into(attr, extents.iter().map(|e| e.range), &mut frags);
        let unit_id = self.units.insert(Unit {
            plain_groups: 0,
            blocks: attr.range.blocks,
            fragments_total: frags.len(),
            fragments_done: 0,
            submitted: cpu,
        });
        for (frag, ext) in frags.iter_mut().zip(extents.iter()) {
            frag.ssd = ext.ssd as u8;
            self.initiators[self.threads[t].init].rio.stamp(frag, ext.server);
            cpu = self.post_write(cpu, t, ext, Some(*frag), frag.flush, unit_id);
        }
        self.extent_scratch = extents;
        self.frag_scratch = frags;
        // Stage dispatch marks for the Fig. 14 breakdown, all at the
        // same `cpu` instant; every part is its group's one write.
        for p in parts {
            let group = self.threads[t].undelivered_group(p.attr.seq_start.0);
            if let Some(stage) = group.and_then(|g| g.spec.stage) {
                self.mark_stage(t, stage, cpu);
            }
        }
        cpu
    }

    /// Orderless: plug batching and merging, then async dispatch.
    fn submit_async_orderless(&mut self, now: SimTime, t: usize) {
        let window = self.cfg.max_inflight_per_stream;
        let mut cpu = now;
        while self.threads[t].inflight < window && self.thread_has_work(t) {
            let batch = self.workload.batch.max(1);
            // The one plug every batch of the run refills.
            let mut plug = std::mem::take(&mut self.plug);
            plug.clear();
            let mut groups_in_batch = 0u64;
            let mut bio_id = 0u64;
            let mut hit_sync = false;
            while groups_in_batch < batch as u64
                && self.threads[t].inflight < window
                && self.thread_has_work(t)
            {
                let spec = self.next_group_spec(t);
                cpu = self.note_group_start(cpu, t, &spec);
                cpu = self.init_run_on(t, cpu, SUBMIT_BIO_NS);
                let mut bio = Bio::write(bio_id, spec.range, bio_id);
                bio.flags.flush = spec.flush;
                plug.add(bio);
                bio_id += 1;
                self.threads[t].inflight += 1;
                groups_in_batch += 1;
                if let Some(stage) = spec.stage {
                    self.mark_stage(t, stage, cpu);
                }
                if spec.sync_after {
                    hit_sync = true;
                    break;
                }
            }
            let max_blocks = if self.cfg.plug_merge { MAX_MERGE_BLOCKS } else { 1 };
            for (range, bios) in plug.merged_runs(max_blocks) {
                let merged_extra = bios.len() as u64 - 1;
                if merged_extra > 0 {
                    cpu = self.init_run_on(t, cpu, MERGE_PER_BIO_NS * merged_extra);
                }
                let flush = bios.iter().any(|b| b.flags.flush);
                cpu = self.dispatch_plain_unit(cpu, t, range, bios.len() as u64, flush);
            }
            self.plug = plug;
            if hit_sync && self.wait_for_sync(t, cpu) {
                return;
            }
        }
        self.park_or_finish(t);
    }

    /// Dispatches one orderless/baseline write covering `range`,
    /// representing `groups` workload groups. Returns the CPU cursor.
    pub(super) fn dispatch_plain_unit(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        range: BlockRange,
        groups: u64,
        flush_embedded: bool,
    ) -> SimTime {
        let mut extents = std::mem::take(&mut self.extent_scratch);
        extents.clear();
        self.chunked_extents_into(range, &mut extents);
        let unit_id = self.units.insert(Unit {
            plain_groups: groups,
            blocks: range.blocks,
            fragments_total: extents.len(),
            fragments_done: 0,
            submitted: cpu,
        });
        if let Some(tm) = &mut self.telemetry {
            tm.group_submitted(cpu, groups);
        }
        for ext in &extents {
            cpu = self.post_write(cpu, t, ext, None, flush_embedded, unit_id);
        }
        self.extent_scratch = extents;
        cpu
    }

    /// Stamps, posts and sends the write command for extent `ext` of
    /// thread `t`'s unit `unit`: payload digest (integrity runs charge
    /// the per-block CRC pass to the app core), command build + post,
    /// QP choice, capsule on the wire. Payloads are tagged with the
    /// group sequence under Rio and the unit id on the baseline paths.
    /// Returns the CPU cursor.
    fn post_write(
        &mut self,
        mut cpu: SimTime,
        t: usize,
        ext: &Extent,
        attr: Option<OrderingAttr>,
        flush_embedded: bool,
        unit: u64,
    ) -> SimTime {
        let stream = self.threads[t].stream.0;
        let qp = self.pick_qp(stream as usize);
        let write = Cmd::new(CmdKind::Write, t, ext.server.0 as usize, ext.ssd, qp, ext.range);
        let mut cmd = Cmd { attr, flush_embedded, unit, ..write };
        if self.integrity {
            let (lba, blocks, tag) = (ext.range.lba, ext.range.blocks as u64, cmd.tag());
            cpu = self.init_run_on(t, cpu, CRC_PER_BLOCK_NS * blocks);
            cmd.digest = PayloadDigest::over_seeds(
                (0..blocks).map(|j| payload::seed_for(stream, tag, lba + j)),
            );
        }
        let stamped = cpu;
        cpu = self.init_run_on(t, cpu, CMD_POST_NS);
        self.send_cmd(cpu, stamped, cmd);
        cpu
    }

    /// Charges `cost_ns` on thread `t`'s pinned core of its initiator.
    pub(super) fn init_run_on(&mut self, t: usize, now: SimTime, cost_ns: u64) -> SimTime {
        let (init, core) = (self.threads[t].init, self.threads[t].core);
        self.initiators[init].cores.admit_to(core, now, SimDuration::from_nanos(cost_ns))
    }

    /// Splits a logical range into per-device extents capped at the
    /// device transfer limit and the PMR record length field, appending
    /// to `out`. Uses the internal map scratch buffer, so callers pass
    /// a buffer they took out of `self` first.
    fn chunked_extents_into(&mut self, range: BlockRange, out: &mut Vec<Extent>) {
        let mut mapped = std::mem::take(&mut self.map_scratch);
        mapped.clear();
        self.volume.map_into(range, &mut mapped);
        for e in &mapped {
            let prof = self.targets[e.server.0 as usize].ssds[e.ssd].profile();
            let cap = prof.max_transfer_blocks.clamp(1, 255);
            let mut remaining = e.range.blocks;
            let mut lba = e.range.lba;
            let mut off = e.logical_offset;
            while remaining > 0 {
                let take = remaining.min(cap);
                out.push(Extent {
                    server: e.server,
                    ssd: e.ssd,
                    range: BlockRange::new(lba, take),
                    logical_offset: off,
                });
                lba += take as u64;
                off += take as u64;
                remaining -= take;
            }
        }
        self.map_scratch = mapped;
    }

    /// A completion capsule reached the initiator: IRQ, fragment rejoin,
    /// then in-order delivery (Rio) or immediate delivery (baselines).
    /// A control acknowledgement or a recovery reply takes its own
    /// handler, which touches no telemetry or trace.
    pub(super) fn on_cmd_complete(&mut self, now: SimTime, id: u64) {
        // Kind and thread are read in place: a control or recovery
        // message's removal then copies nothing out.
        let c = self.cmd(id);
        let (kind, thread) = (c.kind, c.thread);
        if !matches!(kind, CmdKind::Write | CmdKind::Flush) {
            self.cmds.remove(id);
            match kind {
                CmdKind::Ctrl => self.on_ctrl_ack(now, thread),
                _ => self.on_recovery_reply(now, kind),
            }
            return;
        }
        let cmd = self.cmds.remove(id).expect("cmd exists");
        let t = cmd.thread;
        let cpu = self.init_run_on(t, now, IRQ_NS);
        if let Some(tm) = &mut self.telemetry {
            tm.cmd_done(cpu);
        }
        if let Some(tr) = &mut self.trace {
            tr.rec(cmd.trace, Stage::Complete, cpu);
            if cmd.attr.is_none() {
                // No in-order completer on the baseline paths:
                // completion is delivery, the trace closes here.
                tr.finish_unordered(cmd.trace, cpu);
            }
        }

        if cmd.kind == CmdKind::Flush {
            // Linux mode flush leg: the group is durable.
            self.finish_sync_group(cpu, t);
            return;
        }

        let unit_id = cmd.unit;
        let finished = {
            let unit = self.units.get_mut(unit_id).expect("unit exists");
            unit.fragments_done += 1;
            unit.fragments_done == unit.fragments_total
        };
        if !finished {
            return;
        }
        let unit = self.units.remove(unit_id).expect("unit exists");

        if let Some(attr) = &cmd.attr {
            // Rio: this last fragment's attribute carries the unit's
            // ordering identity (merged span included); report the unit
            // to the in-order completer once.
            let mut delivered = std::mem::take(&mut self.delivered_scratch);
            delivered.clear();
            let init = self.threads[t].init;
            self.initiators[init].rio.on_done_into(attr, &mut delivered);
            if self.trace.is_some() || self.telemetry.is_some() {
                // Sample the completer's held-back pressure.
                let held: usize = self.initiators.iter().map(|i| i.rio.total_pending()).sum();
                if let Some(tr) = &mut self.trace {
                    // Commands delivered through the in-order completer
                    // close now.
                    if let Some(&last) = delivered.last() {
                        tr.deliver(attr.stream.0 as usize, last.0, cpu);
                    }
                    tr.note_completer_held(held as u64);
                }
                if let Some(tm) = &mut self.telemetry {
                    tm.completer_pending(cpu, held as u64);
                }
            }
            for &seq in &delivered {
                // In-order delivery: the group is the queue's front.
                let g = self.threads[t]
                    .undelivered
                    .pop_front()
                    .expect("delivered group was submitted");
                debug_assert_eq!(g.seq, seq.0);
                self.deliver(t, 1, g.spec.range.blocks as u64, g.submitted, cpu);
                self.threads[t].inflight -= 1;
                self.maybe_wake(cpu, t);
            }
            self.delivered_scratch = delivered;
        } else {
            self.deliver(t, unit.plain_groups, unit.blocks as u64, unit.submitted, cpu);
            if self.cfg.mode == OrderingMode::LinuxNvmf {
                // Write leg finished; issue the FLUSH leg.
                self.on_sync_write_complete(cpu, t, &cmd);
            } else {
                // Orderless / Horae data path.
                self.threads[t].inflight -= unit.plain_groups as usize;
                self.maybe_wake(cpu, t);
            }
        }
    }

    /// `groups` groups of thread `owner`, `blocks` blocks in all,
    /// submitted at `submitted`, became visible to the application at
    /// `at`: the one place delivery is accounted, on the owning
    /// initiator's row.
    pub(super) fn deliver(
        &mut self,
        owner: usize,
        groups: u64,
        blocks: u64,
        submitted: SimTime,
        at: SimTime,
    ) {
        self.last_completion = self.last_completion.max(at);
        if let Some(tm) = &mut self.telemetry {
            tm.delivered(at, groups, blocks);
        }
        let m = &mut self.initiators[self.threads[owner].init].m;
        m.groups_done += groups;
        m.blocks_done += blocks;
        m.group_latency.record(at.since(submitted));
        m.finished_at = m.finished_at.max(at);
    }

    /// Wakes a parked thread whose window has room again, or whose
    /// sync point (fsync wait) is now satisfied.
    fn maybe_wake(&mut self, now: SimTime, t: usize) {
        let inflight = self.threads[t].inflight;
        match self.threads[t].wait {
            Wait::Sync if inflight == 0 => self.finish_op(t, now),
            Wait::Slot
                if self.thread_has_work(t) && inflight < self.cfg.max_inflight_per_stream => {}
            _ => return,
        }
        self.threads[t].wait = Wait::Nothing;
        let cpu = self.init_run_on(t, now, CTX_SWITCH_NS);
        self.events.push(cpu, Event::Resume(t));
    }
}
