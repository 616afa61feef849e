//! The two systems the paper compares against (§6.2), on the shared
//! data path: Horae's synchronous control path ahead of an asynchronous
//! data path, and stock Linux NVMe-oF's one-group-at-a-time write +
//! FLUSH. Both dispatch plain (unordered) units; what differs from the
//! orderless engine is only *when* a thread may submit.

use rio_order::attr::BlockRange;
use rio_sim::{SimDuration, SimTime};

use super::{Cluster, Cmd, CmdKind, Event, Leg, Wait};
use crate::cpu::{
    CMD_POST_NS, CTX_SWITCH_NS, HORAE_CTRL_GAP_NS, HORAE_CTRL_HANDLE_NS, HORAE_CTRL_POST_NS,
    IRQ_NS, SUBMIT_BIO_NS,
};

impl Cluster {
    /// Horae: serialized control path, then asynchronous data path.
    /// The thread posts one group's control message and blocks on its
    /// ack; the ack's gate `Resume` is its one wake.
    pub(super) fn submit_horae(&mut self, now: SimTime, t: usize) {
        if self.threads[t].inflight >= self.cfg.max_inflight_per_stream || !self.thread_has_work(t)
        {
            self.park_or_finish(t);
            return;
        }
        let spec = self.next_group_spec(t);
        let cpu = self.note_group_start(now, t, &spec);
        self.threads[t].inflight += 1;
        let cpu = self.init_run_on(t, cpu, HORAE_CTRL_POST_NS);
        // Control metadata goes to the group's primary target, on the
        // stream's QP. It moves no data: like a FLUSH, its range is the
        // one block at LBA 0.
        let primary = self.volume.map_block(spec.range.lba).0 .0 as usize;
        let qp = self.threads[t].stream.0 as usize % self.cfg.cores;
        let ctrl = Cmd::new(CmdKind::Ctrl, t, primary, 0, qp, BlockRange::new(0, 1));
        self.post_capsule(cpu, ctrl);
        // The synchronous control path blocks the thread: the wait's
        // context switch pair occupies its core, off the critical path.
        self.init_run_on(t, cpu, CTX_SWITCH_NS);
        self.threads[t].wait = Wait::Ack(spec);
    }

    /// Horae control message `id` reached `target`: persist the
    /// ordering metadata, acknowledge on the completion leg.
    pub(super) fn on_ctrl_arrive(&mut self, now: SimTime, id: u64, target: usize) {
        // Target CPU: RECV + ordering-layer bookkeeping + PMR MMIO.
        // The ordering layer appends metadata in global order, so the
        // handler serializes on one dedicated core.
        let handle = SimDuration::from_nanos(HORAE_CTRL_HANDLE_NS);
        let done = self.targets[target].cores.admit_to(0, now, handle);
        self.transmit(done, id, Leg::Completion, None);
    }

    /// The control acknowledgement is back: the group's data path may go.
    pub(super) fn on_ctrl_ack(&mut self, now: SimTime, thread: usize) {
        let t = thread;
        let cpu = self.init_run_on(t, now, IRQ_NS);
        // Dispatch the acknowledged group's data path asynchronously.
        let Wait::Ack(spec) = std::mem::replace(&mut self.threads[t].wait, Wait::Nothing) else {
            unreachable!("ctrl ack without pending group")
        };
        let c = self.init_run_on(t, cpu, SUBMIT_BIO_NS);
        let c = self.dispatch_plain_unit(c, t, spec.range, 1, spec.flush);
        if let Some(stage) = spec.stage {
            self.mark_stage(t, stage, c);
        }
        if spec.sync_after {
            if !self.wait_for_sync(t, c) {
                self.events.push(c, Event::Resume(t));
            }
            return;
        }
        // The serialized control path may proceed with the next group
        // only after the ordering-layer gap.
        let next = c + SimDuration::from_nanos(HORAE_CTRL_GAP_NS);
        self.events.push(next, Event::Resume(t));
    }

    /// Linux ordered NVMe-oF: one group at a time, completion + FLUSH,
    /// so the thread's in-flight count is its whole sync state.
    ///
    /// Block-level ordered workloads flush after every request (the
    /// classic ordered NVMe-oF of §2.2). File-system journaling flushes
    /// only on the commit record, like Ext4's sync transfer.
    pub(super) fn submit_linux(&mut self, now: SimTime, t: usize) {
        if self.threads[t].inflight > 0 || !self.thread_has_work(t) {
            return;
        }
        let spec = self.next_group_spec(t);
        let mut cpu = self.note_group_start(now, t, &spec);
        // Journaling stages pay the jbd2 kthread handoff (wakeup of the
        // journal thread plus the completion softirq).
        if spec.stage.is_some() {
            cpu = self.init_run_on(t, cpu, 2 * CTX_SWITCH_NS);
        }
        self.threads[t].inflight += 1;
        self.threads[t].cur_flush_leg = spec.stage.is_none() || spec.flush;
        self.threads[t].cur_sync_after = spec.sync_after || spec.stage.is_none();
        cpu = self.init_run_on(t, cpu, SUBMIT_BIO_NS);
        cpu = self.dispatch_plain_unit(cpu, t, spec.range, 1, false);
        if let Some(stage) = spec.stage {
            self.mark_stage(t, stage, cpu);
        }
    }

    /// Linux mode: after the ordered write completes, send a FLUSH leg
    /// when the group requires one, otherwise finish the group.
    pub(super) fn on_sync_write_complete(&mut self, now: SimTime, t: usize, write: &Cmd) {
        let cpu = self.init_run_on(t, now, CTX_SWITCH_NS);
        if !self.threads[t].cur_flush_leg {
            self.finish_sync_group(cpu, t);
            return;
        }
        let c = self.init_run_on(t, cpu, CMD_POST_NS);
        // The FLUSH rides the write's connection to the write's SSD. It
        // moves no data: its range is the one block at LBA 0 (the LBA
        // its trace reports), and it carries no payload digest.
        let one = BlockRange::new(0, 1);
        let flush = Cmd::new(CmdKind::Flush, t, write.target, write.ssd, write.qp, one);
        self.send_cmd(c, cpu, flush);
    }

    /// Finishes the current synchronous group — its write, or its FLUSH
    /// leg when it has one, completed — and moves on.
    pub(super) fn finish_sync_group(&mut self, now: SimTime, t: usize) {
        self.threads[t].inflight -= 1;
        self.last_completion = self.last_completion.max(now);
        if self.threads[t].cur_sync_after {
            self.finish_op(t, now);
        }
        let cpu = self.init_run_on(t, now, CTX_SWITCH_NS);
        self.events.push(cpu, Event::Resume(t));
    }
}
