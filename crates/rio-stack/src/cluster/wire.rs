//! The wire between initiator and target: the three transfer legs of a
//! command, QP arithmetic, and go-back-N resends.
//!
//! Every command crosses the fabric three times — capsule out, data
//! pull, completion back — strictly in sequence, so at most one of its
//! windows is parked at a time. A Horae control message and a recovery
//! message are commands that skip the pull. The parked window (leg,
//! packets left, whether a corruption failed it) rides in the `Resend`
//! event that resumes it; the command itself keeps none of it.

use rio_net::{Ends, XferStep};
use rio_proto::{Cqe, PmrRecord, Sqe};
use rio_sim::SimTime;

use super::{Cluster, Cmd, CmdKind, Event};

/// NVMe-oF command capsule size on the wire: an SQE and a 32-byte
/// header.
const CMD_CAPSULE_BYTES: u64 = Sqe::SIZE as u64 + 32;
/// Completion capsule size on the wire: a CQE and a 16-byte header.
const COMPLETION_BYTES: u64 = Cqe::SIZE as u64 + 16;
/// Horae control message size on the wire (a group's ordering metadata).
const CTRL_CAPSULE_BYTES: u64 = 64;
/// Horae control acknowledgement size on the wire.
const CTRL_ACK_BYTES: u64 = 16;

/// One of the three wire transfers of a command, in the order they run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Leg {
    /// Command capsule, initiator → target; delivery is `CmdArrive`.
    Capsule,
    /// One-sided data pull by the target; delivery is one half of the
    /// target rendezvous.
    Pull,
    /// Completion capsule, target → initiator; delivery is `CmdComplete`.
    Completion,
}

impl Leg {
    /// The leg's message size on the wire: a fixed capsule each way
    /// (smaller for a Horae control message), the command's blocks for
    /// the data pull, and a scan's records on its way back.
    pub(super) fn bytes(self, cmd: &Cmd) -> u64 {
        match (self, cmd.kind) {
            (Leg::Capsule, CmdKind::Ctrl) => CTRL_CAPSULE_BYTES,
            (Leg::Capsule, _) => CMD_CAPSULE_BYTES,
            (Leg::Pull, _) => cmd.phys.blocks as u64 * 4096,
            (Leg::Completion, CmdKind::Ctrl) => CTRL_ACK_BYTES,
            (Leg::Completion, CmdKind::Scan { .. }) => {
                cmd.phys.blocks as u64 * PmrRecord::SIZE as u64
            }
            (Leg::Completion, _) => COMPLETION_BYTES,
        }
    }
}

impl Cluster {
    /// Initiator-side QP index for (target, qp-within-connection).
    pub(super) fn target_qp(&self, target: usize, qp: usize) -> usize {
        target * self.cfg.cores + qp
    }

    /// Target-side connection QP for thread `t`'s command: every
    /// initiator owns one group of `cores` QPs on each target NIC, so
    /// the wire QP is the initiator's base plus the within-connection
    /// QP. Single-initiator runs reduce to `qp`.
    pub(super) fn conn_qp(&self, t: usize, qp: usize) -> usize {
        self.threads[t].init * self.cfg.cores + qp
    }

    /// Picks the QP for a command of `stream`: pinned (Principle 2) or
    /// scattered round-robin (the ablation).
    pub(super) fn pick_qp(&mut self, stream: usize) -> usize {
        if self.cfg.pin_stream_to_qp {
            stream % self.cfg.cores
        } else {
            self.scatter_qp += 1;
            (self.scatter_qp as usize) % self.cfg.cores
        }
    }

    /// Applies one fabric transfer step of command `id`'s `leg`: a
    /// delivery runs the leg's continuation at the arrival instant; a
    /// drop parks the go-back-N window in a `Resend` event at the
    /// recovery timeout.
    pub(super) fn xfer_step(&mut self, id: u64, leg: Leg, step: XferStep) {
        match (step, leg) {
            (XferStep::Delivered { at }, Leg::Capsule) => {
                self.events.push(at, Event::CmdArrive(id));
            }
            (XferStep::Delivered { at }, Leg::Pull) => self.rendezvous(id, at),
            (XferStep::Delivered { at }, Leg::Completion) => {
                self.events.push(at, Event::CmdComplete(id));
            }
            (XferStep::Dropped { resume_at, pkts_left, corrupted }, _) => {
                let resend = Event::Resend { id, leg, pkts: pkts_left, corrupt: corrupted };
                self.events.push(resume_at, resend);
            }
        }
    }

    /// Sends one NVMe-oF command: counts it, opens its stage trace, and
    /// puts its capsule on the wire. `stamped` is the instant the
    /// command was stamped/generated, before the post CPU charge — the
    /// head of its stage trace.
    pub(super) fn send_cmd(&mut self, now: SimTime, stamped: SimTime, mut cmd: Cmd) {
        let init = self.threads[cmd.thread].init;
        self.initiators[init].m.commands_sent += 1;
        if let Some(tm) = &mut self.telemetry {
            tm.cmd_sent(now);
        }
        if let Some(tr) = &mut self.trace {
            let stream = self.threads[cmd.thread].stream.0;
            let tid = tr.open(
                init as u16,
                stream,
                cmd.attr.map(|a| (a.seq_start.0, a.seq_end.0)),
                cmd.target as u16,
                cmd.ssd as u16,
                cmd.phys.lba,
                cmd.flush_embedded || cmd.kind == CmdKind::Flush,
                stamped,
                now,
            );
            if let Some(a) = &cmd.attr {
                tr.pending_push(a.stream.0 as usize, a.seq_end.0, tid);
            }
            cmd.trace = tid;
        }
        self.post_capsule(now, cmd);
    }

    /// Puts `cmd` in flight and its capsule on the wire at `now`.
    pub(super) fn post_capsule(&mut self, now: SimTime, cmd: Cmd) {
        let id = self.cmds.insert(cmd);
        self.transmit(now, id, Leg::Capsule, None);
    }

    /// A leg's retransmission timeout fired: resend the window of
    /// `pkts` packets from the lost one (go-back-N).
    pub(super) fn on_resend(&mut self, now: SimTime, id: u64, leg: Leg, pkts: u32, corrupt: bool) {
        let cmd = self.cmd(id);
        let (target, tid) = (cmd.target, cmd.trace);
        let init = self.threads[cmd.thread].init;
        // The fabric says what goes back on the wire this round, each
        // packet annotated exactly once: the whole remaining window, or
        // after a lost pull request only that one header packet, which
        // leaves the reader.
        let (n, from_reader) = self.fabric.resend(leg == Leg::Pull, leg.bytes(cmd), pkts);
        let n_corrupt = if corrupt { n } else { 0 };
        if let Some(tr) = &mut self.trace {
            if corrupt {
                tr.retx_corrupt(tid, n);
            } else {
                tr.retx(tid, n);
            }
        }
        if let Some(tm) = &mut self.telemetry {
            // Charged to the NIC that transmits: the target sends the
            // completion and a pull's request, the initiator the rest.
            if leg == Leg::Completion || from_reader {
                tm.retx_target(now, target, n, n_corrupt);
            } else {
                tm.retx_initiator(now, init, n, n_corrupt);
            }
        }
        self.transmit(now, id, leg, Some(pkts));
    }

    /// Puts command `id`'s `leg` on the wire at `now` — the whole
    /// message, or with `resend` the go-back-N window of that many
    /// packets — over the leg's NICs and queue pair: the capsule leaves
    /// the initiator on its QP to the target, the pull reads the
    /// initiator's memory over that same QP, and the completion leaves
    /// the target on the sender's connection QP. The only place a
    /// message meets the fabric.
    pub(super) fn transmit(&mut self, now: SimTime, id: u64, leg: Leg, resend: Option<u32>) {
        let cmd = self.cmd(id);
        let (target, bytes) = (cmd.target, leg.bytes(cmd));
        let init = self.threads[cmd.thread].init;
        let (init_qp, conn_qp) = (self.target_qp(target, cmd.qp), self.conn_qp(cmd.thread, cmd.qp));
        let (init_nic, target_nic) = (&mut self.initiators[init].nic, &mut self.targets[target].nic);
        let (ends, qp) = match leg {
            Leg::Capsule => (Ends::Send(init_nic), init_qp),
            Leg::Pull => (Ends::Read { reader: target_nic, source: init_nic }, init_qp),
            Leg::Completion => (Ends::Send(target_nic), conn_qp),
        };
        let step = self.fabric.transfer(ends, qp, now, bytes, resend);
        self.xfer_step(id, leg, step);
    }
}
