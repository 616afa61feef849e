//! The per-layer replay drivers of the traced pass.
//!
//! From outside the program a layer is visible only through its public
//! functions, so each driver here calls one of them in the pattern the
//! cluster uses (steady-state depth, reused scratch buffers, the same
//! payload sizes) and times it. The numbers are costs *in isolation*:
//! caches are warm and nothing else runs between calls, so they bound
//! a layer's share from below — see `ledger::est_shares`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rio_block::{Bio, Plug, StripedVolume};
use rio_fs::{MemDev, OrderedDev, RioFs};
use rio_net::{Fabric, FabricProfile, Nic, XferStep};
use rio_order::attr::{BlockRange, OrderingAttr, Seq, ServerId, StreamId};
use rio_order::pmrlog::PmrLog;
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::scheduler::{OrderQueue, OrderQueueConfig};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_order::{InOrderCompleter, SubmissionGate};
use rio_proto::payload::{self, BLOCK_BYTES};
use rio_proto::{crc32c, PmrRecord, RioExt, Sqe};
use rio_sim::{EventHeap, Histogram, SimDuration, SimRng, SimTime, Slab};
use rio_ssd::{BlockImage, Ssd, SsdProfile};
use rio_stack::FabricConfig;
use rio_workloads::{MiniKv, Varmail};

use crate::e2e::Metric;
use crate::host::{host_now, Spans};

/// Timed drivers [`Replay::all`] runs; callers split their budget by it.
pub const DRIVERS: u32 = 33;

/// Runs replay drivers under one span tree and collects their metrics.
pub struct Replay<'a> {
    spans: &'a mut Spans,
    parent: usize,
    /// Host time each driver may spend.
    budget: Duration,
    timed: u32,
    /// The metrics measured so far.
    pub out: Vec<Metric>,
    /// Output checks the drivers failed.
    pub failures: Vec<String>,
}

/// Times `f`.
fn clock<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = host_now();
    let out = f();
    (out, t0.elapsed())
}

impl<'a> Replay<'a> {
    /// A replay session recording under span `parent`.
    pub fn new(spans: &'a mut Spans, parent: usize, budget: Duration) -> Self {
        Replay {
            spans,
            parent,
            budget,
            timed: 0,
            out: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Nanoseconds per operation of `batch`, the fastest of several
    /// rounds (host jitter only ever adds time). `batch(n)` performs
    /// about `n` operations and returns how many it did and how long
    /// the timed part took; set-up it does outside its own clock is
    /// free.
    fn ns_per_op(
        &mut self,
        span: &'static str,
        mut batch: impl FnMut(u64) -> (u64, Duration),
    ) -> f64 {
        const FIRST: u64 = 512;
        let start: Instant = host_now();
        let mut n = FIRST;
        let mut best = f64::INFINITY;
        for round in 0..16 {
            let (ops, dt) = batch(n);
            let ns = dt.as_nanos() as f64 / ops.max(1) as f64;
            best = best.min(ns);
            if round >= 2 && start.elapsed() >= self.budget {
                break;
            }
            // Aim each further round at a quarter of the budget.
            let want = self.budget.as_nanos() as f64 / 4.0 / ns.max(0.1);
            n = (want as u64).clamp(FIRST, 1 << 22);
        }
        self.spans
            .record(span, Some(self.parent), start, host_now());
        self.timed += 1;
        best
    }

    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(Metric::new(name, unit, value));
    }

    /// Measures `name` in nanoseconds per operation.
    fn ns(&mut self, name: &'static str, batch: impl FnMut(u64) -> (u64, Duration)) {
        let v = self.ns_per_op(name, batch);
        self.push(name, "ns", v);
    }

    /// `rio-sim`: event heap, slab arena, histogram, PRNG.
    pub fn rio_sim(&mut self) {
        // The cluster's heap holds a few thousand pending events at
        // these workloads' windows (8 threads x 48 groups x ~4 events).
        const DEPTH: u64 = 4096;
        let mut heap: EventHeap<(u64, u64)> = EventHeap::with_capacity(DEPTH as usize);
        let mut rng = SimRng::seed_from_u64(7);
        for i in 0..DEPTH {
            heap.push(SimTime::from_nanos(rng.below(100_000)), (i, i));
        }
        self.ns("rio-sim.heap_push_pop_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    let (t, ev) = heap.pop().expect("steady depth");
                    // Completions land 10-110 us ahead, like SSD writes.
                    let at = t.as_nanos() + 10_000 + (ev.0.wrapping_mul(0x9E37_79B9) & 0xFFFF);
                    heap.push(SimTime::from_nanos(at), (ev.0 + 1, ev.1));
                }
                n
            })
        });
        black_box(heap.len());

        // In-flight commands: ~128 B records, a few hundred live.
        let mut slab: Slab<[u64; 16]> = Slab::with_capacity(512);
        let mut keys: Vec<u64> = (0..384).map(|i| slab.insert([i; 16])).collect();
        self.ns("rio-sim.slab_insert_remove_ns", |n| {
            clock(|| {
                for i in 0..n as usize {
                    let k = i % keys.len();
                    black_box(slab.remove(keys[k]));
                    keys[k] = slab.insert([i as u64; 16]);
                }
                n
            })
        });

        let mut hist = Histogram::new();
        self.ns("rio-sim.hist_record_ns", |n| {
            clock(|| {
                for i in 0..n {
                    hist.record(SimDuration::from_nanos(
                        20_000 + (i.wrapping_mul(2_654_435_761) & 0xF_FFFF),
                    ));
                }
                n
            })
        });
        black_box(hist.count());

        self.ns("rio-sim.rng_below_ns", |n| {
            clock(|| {
                let mut acc = 0u64;
                for _ in 0..n {
                    acc ^= rng.below(1 << 20);
                }
                black_box(acc);
                n
            })
        });
    }

    /// `rio-order`: sequencer, ORDER queue, gate, completer, PMR log,
    /// scan and recovery plan.
    pub fn rio_order(&mut self) {
        let end_group = SubmitOpts {
            end_group: true,
            ..Default::default()
        };

        let mut seq = Sequencer::new(8, 2);
        let mut i = 0u64;
        self.ns("rio-order.sequencer_submit_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    let stream = StreamId((i % 8) as u16);
                    let mut attr = seq.submit(stream, BlockRange::new(i % 100_000, 1), end_group);
                    seq.stamp_dispatch(&mut attr, ServerId((i % 2) as u16));
                    black_box(attr);
                    i += 1;
                }
                n
            })
        });

        // Random 4 KB writes: one request per flush, nothing merges.
        let mut seq = Sequencer::new(1, 1);
        let mut q = OrderQueue::new(StreamId(0), OrderQueueConfig::default());
        let mut lba = 0u64;
        self.ns("rio-order.order_queue_push_flush_ns", |n| {
            clock(|| {
                for t in 0..n {
                    lba = (lba + 7919) % 1_000_000;
                    q.push(
                        seq.submit(StreamId(0), BlockRange::new(lba, 1), end_group),
                        t,
                    );
                    black_box(q.flush());
                }
                n
            })
        });

        // Sequential batch of 16: one merged command per flush.
        let mut seq = Sequencer::new(1, 1);
        let mut q = OrderQueue::new(StreamId(0), OrderQueueConfig::default());
        let mut lba = 0u64;
        self.ns("rio-order.order_queue_merge16_ns", |n| {
            clock(|| {
                let merges = n.div_ceil(16);
                for _ in 0..merges {
                    for t in 0..16 {
                        q.push(
                            seq.submit(StreamId(0), BlockRange::new(lba, 1), end_group),
                            t,
                        );
                        lba += 1;
                    }
                    let units = q.flush();
                    debug_assert_eq!(units.len(), 1);
                    black_box(units);
                }
                merges
            })
        });

        let proto = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 1));
        let mut gate = SubmissionGate::with_streams(1);
        let mut released = Vec::with_capacity(8);
        let mut idx = 0u64;
        self.ns("rio-order.gate_arrive_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    let mut attr = proto;
                    attr.dispatch_idx = idx;
                    gate.arrive_into(attr, idx, &mut released);
                    idx += 1;
                    black_box(released.len());
                    released.clear();
                }
                n
            })
        });

        // Unpinned streams: every pair arrives swapped, so one arrival
        // buffers and the next releases both.
        let mut gate = SubmissionGate::with_streams(1);
        let mut idx = 0u64;
        self.ns("rio-order.gate_arrive_ooo_ns", |n| {
            clock(|| {
                for _ in 0..n.div_ceil(2) {
                    for d in [idx + 1, idx] {
                        let mut attr = proto;
                        attr.dispatch_idx = d;
                        gate.arrive_into(attr, d, &mut released);
                    }
                    idx += 2;
                    black_box(released.len());
                    released.clear();
                }
                n.div_ceil(2) * 2
            })
        });

        let done = |s: u32| {
            let mut a = OrderingAttr::single(StreamId(0), Seq(s), BlockRange::new(0, 1));
            a.boundary = true;
            a.num = 1;
            a
        };
        let mut completer = InOrderCompleter::with_window(1, 64);
        let mut delivered = Vec::with_capacity(32);
        let mut base = 0u32;
        self.ns("rio-order.completer_on_done_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    base += 1;
                    completer.on_done_into(&done(base), &mut delivered);
                    black_box(delivered.len());
                    delivered.clear();
                }
                n
            })
        });

        // A 16-group window completing in reverse: 15 buffer, the last
        // releases the prefix.
        let mut completer = InOrderCompleter::with_window(1, 64);
        let mut base = 0u32;
        self.ns("rio-order.completer_ooo_ns", |n| {
            clock(|| {
                let windows = n.div_ceil(16);
                for _ in 0..windows {
                    for s in (base + 1..=base + 16).rev() {
                        completer.on_done_into(&done(s), &mut delivered);
                    }
                    base += 16;
                    black_box(delivered.len());
                    delivered.clear();
                }
                windows * 16
            })
        });

        let (mut log, _) = PmrLog::format(2 * 1024 * 1024, 24);
        let rec = done(1).to_pmr_record(0);
        let mut live = std::collections::VecDeque::with_capacity(512);
        self.ns("rio-order.pmrlog_append_free_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    if live.len() == 384 {
                        log.free(live.pop_front().expect("non-empty"));
                    }
                    let (slot, write) = log.append(&rec).expect("384 live records fit in 2 MB");
                    black_box(write);
                    live.push_back(slot);
                }
                n
            })
        });

        // Recovery: a 2 MB region holding 10 000 live records, then the
        // global merge over two servers' scans of that size.
        const RECORDS: u64 = 10_000;
        let mut region = vec![0u8; 2 * 1024 * 1024];
        let (mut log, writes) = PmrLog::format(region.len(), 24);
        let mut seq = Sequencer::new(1, 2);
        let mut per_server = Vec::new();
        let apply = |region: &mut [u8], w: &rio_order::PmrWrite| {
            region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
        };
        for w in &writes {
            apply(&mut region, w);
        }
        for i in 0..RECORDS {
            let mut attr = seq.submit(StreamId(0), BlockRange::new(i * 8, 8), end_group);
            seq.stamp_dispatch(&mut attr, ServerId((i % 2) as u16));
            attr.persist = i % 7 != 0;
            let rec = attr.to_pmr_record(0);
            let (_, w) = log.append(&rec).expect("10 000 records fit in 2 MB");
            apply(&mut region, &w);
            per_server.push((attr.server, rec));
        }
        let v = self.ns_per_op("rio-order.pmrlog_scan_us_per_krec", |_| {
            let (found, dt) = clock(|| PmrLog::scan(&region).expect("formatted").records.len());
            assert_eq!(found as u64, RECORDS, "scan lost records");
            (RECORDS, dt)
        });
        self.push("rio-order.pmrlog_scan_us_per_krec", "us", v);

        let input = RecoveryInput {
            scans: (0..2u16)
                .map(|s| ServerScan {
                    server: ServerId(s),
                    plp: true,
                    head_seqs: vec![(StreamId(0), Seq(0))],
                    records: per_server
                        .iter()
                        .filter(|(srv, _)| srv.0 == s)
                        .map(|(_, r)| *r)
                        .collect(),
                })
                .collect(),
            mode: RecoveryMode::InitiatorRestart,
        };
        let v = self.ns_per_op("rio-order.recovery_compute_us_per_krec", |_| {
            let (plan, dt) = clock(|| RecoveryPlan::compute(&input));
            black_box(plan.streams.len());
            (RECORDS, dt)
        });
        self.push("rio-order.recovery_compute_us_per_krec", "us", v);
    }

    /// `rio-net`: command capsules and data pulls, lossless and lossy.
    pub fn rio_net(&mut self) {
        const QPS: usize = 36;
        let profile = FabricProfile::connectx6();
        let mut fabric = Fabric::new(profile.clone(), 11);
        let mut initiator = Nic::for_profile(QPS, &profile);
        let mut target = Nic::for_profile(QPS, &profile);
        let mut now = 0u64;
        let mut i = 0usize;
        self.ns("rio-net.send_capsule_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    now += 700;
                    i += 1;
                    let at = SimTime::from_nanos(now);
                    black_box(fabric.send_burst(&mut initiator, i % QPS, at, 96));
                }
                n
            })
        });
        for (name, bytes) in [
            ("rio-net.pull_4k_ns", 4096),
            ("rio-net.pull_64k_ns", 65_536),
        ] {
            self.ns(name, |n| {
                clock(|| {
                    for _ in 0..n {
                        now += 4_000;
                        i += 1;
                        let at = SimTime::from_nanos(now);
                        black_box(fabric.pull_burst(
                            &mut target,
                            &mut initiator,
                            i % QPS,
                            at,
                            bytes,
                        ));
                    }
                    n
                })
            });
        }

        // rio_integrity_crash's fabric: 1 % loss, 0.1 % corruption, four
        // paths. A pull is not done until go-back-N has delivered it.
        let mut net = FabricConfig::lossy(1e-2, 4);
        net.corrupt_rate = 1e-3;
        let profile = net.apply(FabricProfile::connectx6());
        let mut fabric = Fabric::new(profile.clone(), 13);
        let mut initiator = Nic::for_profile(QPS, &profile);
        let mut target = Nic::for_profile(QPS, &profile);
        self.ns("rio-net.pull_4k_lossy_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    now += 4_000;
                    i += 1;
                    let qp = i % QPS;
                    let mut step = fabric.pull_burst(
                        &mut target,
                        &mut initiator,
                        qp,
                        SimTime::from_nanos(now),
                        4096,
                    );
                    while let XferStep::Dropped {
                        resume_at,
                        pkts_left,
                        ..
                    } = step
                    {
                        step = fabric.resume_pull(
                            &mut target,
                            &mut initiator,
                            qp,
                            resume_at,
                            pkts_left,
                            4096,
                        );
                    }
                    black_box(step);
                }
                n
            })
        });
        let sent = |nic: &Nic| (nic.stats().packets, nic.stats().retransmits);
        let (pkts, retx) = (
            sent(&target).0 + sent(&initiator).0,
            sent(&target).1 + sent(&initiator).1,
        );
        self.push(
            "rio-net.retx_per_kpkt",
            "count",
            retx as f64 * 1e3 / pkts.max(1) as f64,
        );
    }

    /// `rio-ssd`: write and flush submission, deferred effects, scrub.
    pub fn rio_ssd(&mut self) {
        // Submissions are O(1) appends whose effects `advance` settles
        // later, so each batch times the two phases separately.
        const SPAN_LBAS: u64 = 1 << 16;
        let mut advance_ns = f64::INFINITY;
        let mut ssd = Ssd::new(SsdProfile::optane905p(), 3);
        let mut now = 0u64;
        let mut lba = 0u64;
        self.ns("rio-ssd.submit_write_ns", |n| {
            let (_, dt) = clock(|| {
                for _ in 0..n {
                    now += 2_000;
                    lba = (lba + 7919) % SPAN_LBAS;
                    let images = vec![BlockImage::Tag(lba)];
                    black_box(ssd.submit_write(SimTime::from_nanos(now), lba, images, false));
                }
            });
            now += 1_000_000;
            let (_, settle) = clock(|| ssd.advance(SimTime::from_nanos(now)));
            advance_ns = advance_ns.min(settle.as_nanos() as f64 / n as f64);
            (n, dt)
        });
        self.ns("rio-ssd.submit_flush_ns", |n| {
            let out = clock(|| {
                for _ in 0..n {
                    now += 2_000;
                    black_box(ssd.submit_flush(SimTime::from_nanos(now)));
                }
                n
            });
            now += 1_000_000;
            ssd.advance(SimTime::from_nanos(now));
            out
        });
        self.push("rio-ssd.advance_ns", "ns", advance_ns);

        // Integrity on: real 4 KB payloads, CRC-32C sealed on landing.
        let mut ssd = Ssd::new(SsdProfile::optane905p(), 3);
        ssd.set_integrity(true);
        let block = payload::block_for(payload::seed_for(0, 1, 0));
        const SEALED_LBAS: u64 = 2048;
        self.ns("rio-ssd.submit_write_sealed_ns", |n| {
            let n = n.min(SEALED_LBAS);
            let out = clock(|| {
                for _ in 0..n {
                    now += 2_000;
                    lba = (lba + 7919) % SEALED_LBAS;
                    let images = vec![BlockImage::Bytes(block.clone())];
                    black_box(ssd.submit_write(SimTime::from_nanos(now), lba, images, false));
                }
                n
            });
            now += 1_000_000;
            ssd.advance(SimTime::from_nanos(now));
            out
        });
        let v = self.ns_per_op("rio-ssd.scrub_ns_per_record", |_| {
            let ((scanned, corrupt), dt) = clock(|| ssd.scrub());
            assert!(corrupt.is_empty(), "scrub flagged intact media");
            (scanned, dt)
        });
        self.push("rio-ssd.scrub_ns_per_record", "ns", v);
    }

    /// `rio-proto`: CRC-32C, payload generation and checking, codecs.
    pub fn rio_proto(&mut self) {
        let mb_s = |ns_per_block: f64| BLOCK_BYTES as f64 / ns_per_block * 1e3;
        let mut block = payload::block_for(payload::seed_for(0, 1, 0));
        let v = self.ns_per_op("rio-proto.crc32c_mb_s", |n| {
            clock(|| {
                let mut acc = 0u32;
                for _ in 0..n {
                    acc ^= crc32c(black_box(&block));
                }
                black_box(acc);
                n
            })
        });
        self.push("rio-proto.crc32c_mb_s", "MB/s", mb_s(v));
        let v = self.ns_per_op("rio-proto.payload_fill_mb_s", |n| {
            clock(|| {
                for s in 0..n {
                    payload::fill_block(s, black_box(&mut block));
                }
                n
            })
        });
        self.push("rio-proto.payload_fill_mb_s", "MB/s", mb_s(v));
        let v = self.ns_per_op("rio-proto.payload_verify_mb_s", |n| {
            clock(|| {
                for _ in 0..n {
                    assert!(
                        payload::verify_block(black_box(&block)),
                        "generated block fails its own check"
                    );
                }
                n
            })
        });
        self.push("rio-proto.payload_verify_mb_s", "MB/s", mb_s(v));

        let mut seq = Sequencer::new(1, 1);
        let attr = seq.submit(
            StreamId(0),
            BlockRange::new(77, 8),
            SubmitOpts {
                end_group: true,
                ..Default::default()
            },
        );
        let ext = attr.to_wire();
        self.ns("rio-proto.sqe_codec_ns", |n| {
            clock(|| {
                for cid in 0..n {
                    let mut sqe = Sqe::write(cid as u16, 77, 8);
                    ext.embed(&mut sqe);
                    let back = Sqe::decode(black_box(&sqe.encode()));
                    black_box(RioExt::extract(&back).expect("rio command"));
                }
                n
            })
        });
        let rec = attr.to_pmr_record(0);
        self.ns("rio-proto.pmr_record_codec_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    let bytes = black_box(&rec).encode();
                    black_box(PmrRecord::decode(black_box(&bytes)).expect("valid record"));
                }
                n
            })
        });
    }

    /// `rio-block`: stripe mapping and the orderless plug.
    pub fn rio_block(&mut self) {
        // The 4-SSD / 2-target volume, 4 KB stripes.
        let legs = vec![
            (ServerId(0), 0),
            (ServerId(0), 1),
            (ServerId(1), 0),
            (ServerId(1), 1),
        ];
        let volume = StripedVolume::new(legs, 1, 1 << 24);
        let mut extents = Vec::with_capacity(4);
        let mut lba = 0u64;
        self.ns("rio-block.map_into_ns", |n| {
            clock(|| {
                for _ in 0..n {
                    lba = (lba + 7919) % (1 << 24);
                    volume.map_into(BlockRange::new(lba, 1), &mut extents);
                    black_box(extents.len());
                    extents.clear();
                }
                n
            })
        });
        let mut id = 0u64;
        self.ns("rio-block.plug_merge16_ns", |n| {
            clock(|| {
                let plugs = n.div_ceil(16);
                for _ in 0..plugs {
                    let mut plug = Plug::new();
                    for _ in 0..16 {
                        plug.add(Bio::write(id, BlockRange::new(id, 1), id));
                        id += 1;
                    }
                    let runs = plug.finish(32);
                    debug_assert_eq!(runs.len(), 1);
                    black_box(runs);
                }
                plugs
            })
        });
    }

    /// `rio-fs` and `rio-workloads`: the file-system stack that runs
    /// over `OrderedDev`, never the cluster. No end-to-end metric
    /// covers it yet; these are the before-numbers for the day it joins.
    pub fn rio_fs_and_workloads(&mut self) {
        const OPS: u64 = 2_000;
        let mut crashed: Option<OrderedDev> = None;
        let v = self.ns_per_op("rio-fs.write_fsync_us", |_| {
            let mut fs = RioFs::mkfs(OrderedDev::new(16 * 1024), 4);
            fs.create("bench").expect("create");
            let data = [0xA5u8; 4096];
            let (_, dt) = clock(|| {
                for i in 0..OPS {
                    fs.write("bench", (i % 8) * 4096, &data).expect("write");
                    fs.fsync("bench", (i % 4) as usize).expect("fsync");
                }
            });
            crashed = Some(fs.into_device());
            (OPS, dt)
        });
        self.push("rio-fs.write_fsync_us", "us", v / 1e3);

        // Power failure with only the FLUSH-pinned prefix surviving,
        // then journal replay on mount.
        let dev = crashed.expect("write_fsync ran");
        let mut problems = Vec::new();
        let v = self.ns_per_op("rio-fs.mount_replay_ms", |_| {
            let (fs, dt) = clock(|| RioFs::mount(dev.crash_image(0)));
            match fs {
                Some(fs) => problems = fs.fsck(),
                None => problems = vec!["mount failed".into()],
            }
            (1, dt)
        });
        self.push("rio-fs.mount_replay_ms", "ms", v / 1e6);
        if !problems.is_empty() {
            self.failures
                .push(format!("rio-fs: fsck after crash+mount: {problems:?}"));
        }

        let mut problems = Vec::new();
        let v = self.ns_per_op("rio-workloads.varmail_ops_per_sec", |_| {
            let mut fs = RioFs::mkfs(MemDev::new(16 * 1024), 4);
            let mut vm = Varmail::new(42, 32, 0);
            let (_, dt) = clock(|| {
                for _ in 0..OPS {
                    vm.step(&mut fs).expect("varmail op");
                }
            });
            problems = fs.fsck();
            (OPS, dt)
        });
        self.push("rio-workloads.varmail_ops_per_sec", "1/s", 1e9 / v);
        if !problems.is_empty() {
            self.failures
                .push(format!("rio-workloads: fsck after varmail: {problems:?}"));
        }

        let mut lost = false;
        let v = self.ns_per_op("rio-workloads.minikv_put_per_sec", |_| {
            let mut fs = RioFs::mkfs(MemDev::new(16 * 1024), 4);
            let mut kv = MiniKv::open(&mut fs, 0, 16 * 1024);
            let (_, dt) = clock(|| {
                for i in 0..OPS {
                    let key = format!("user{i:06}");
                    kv.put(&mut fs, key.as_bytes(), b"profile-data")
                        .expect("put");
                }
            });
            lost |= kv.get(&fs, b"user000042").as_deref() != Some(&b"profile-data"[..]);
            (OPS, dt)
        });
        self.push("rio-workloads.minikv_put_per_sec", "1/s", 1e9 / v);
        if lost {
            self.failures
                .push("rio-workloads: MiniKV lost an acknowledged put".into());
        }
    }

    /// Runs every driver.
    pub fn all(&mut self) {
        self.rio_sim();
        self.rio_order();
        self.rio_net();
        self.rio_ssd();
        self.rio_proto();
        self.rio_block();
        self.rio_fs_and_workloads();
        assert_eq!(self.timed, DRIVERS, "keep DRIVERS in step with the drivers");
    }
}
