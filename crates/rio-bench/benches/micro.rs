//! Criterion microbenchmarks of the ordering core's hot paths.
//!
//! These measure the *real* CPU cost of the data structures the paper's
//! design leans on: attribute stamping, whole-group merging, PMR log
//! append/scan, recovery's global merge, wire encoding, and the
//! integrity data path (CRC-32C, payload generation, sealed SSD writes
//! and the scrub).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rio_order::attr::{BlockRange, OrderingAttr, StreamId};
use rio_order::pmrlog::PmrLog;
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::scheduler::{OrderQueue, OrderQueueConfig};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_order::{attr::Seq, attr::ServerId, InOrderCompleter, SubmissionGate};
use rio_proto::{crc32c, payload, RioExt, Sqe};
use rio_sim::{EventHeap, SimTime};
use rio_ssd::{BlockImage, Ssd, SsdProfile};

fn bench_sequencer(c: &mut Criterion) {
    c.bench_function("sequencer_stamp", |b| {
        let mut seq = Sequencer::new(1, 2);
        let mut i = 0u64;
        b.iter(|| {
            let mut attr = seq.submit(
                StreamId(0),
                BlockRange::new(i % 100_000, 1),
                SubmitOpts {
                    end_group: true,
                    ..Default::default()
                },
            );
            seq.stamp_dispatch(&mut attr, ServerId((i % 2) as u16));
            i += 1;
            attr
        });
    });
}

fn bench_merge(c: &mut Criterion) {
    c.bench_function("order_queue_merge_16", |b| {
        b.iter_batched(
            || {
                let mut seq = Sequencer::new(1, 1);
                let mut q = OrderQueue::new(StreamId(0), OrderQueueConfig::default());
                for i in 0..16u64 {
                    let attr = seq.submit(
                        StreamId(0),
                        BlockRange::new(i, 1),
                        SubmitOpts {
                            end_group: true,
                            ..Default::default()
                        },
                    );
                    q.push(attr, i);
                }
                q
            },
            |mut q| q.flush(),
            BatchSize::SmallInput,
        );
    });
}

fn bench_pmr_log(c: &mut Criterion) {
    c.bench_function("pmr_log_append", |b| {
        let (mut log, _) = PmrLog::format(2 * 1024 * 1024, 24);
        let mut seq = Sequencer::new(1, 1);
        let attr = seq.submit(
            StreamId(0),
            BlockRange::new(0, 8),
            SubmitOpts {
                end_group: true,
                ..Default::default()
            },
        );
        let rec = attr.to_pmr_record(0);
        let mut appended = Vec::new();
        b.iter(|| {
            if log.is_full() {
                for s in appended.drain(..) {
                    log.free(s);
                }
            }
            let (slot, w) = log.append(&rec).expect("space");
            appended.push(slot);
            w
        });
    });

    c.bench_function("pmr_scan_2mb", |b| {
        let mut region = vec![0u8; 2 * 1024 * 1024];
        let (mut log, writes) = PmrLog::format(region.len(), 24);
        for w in &writes {
            region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
        }
        let mut seq = Sequencer::new(1, 1);
        for i in 0..10_000u64 {
            let attr = seq.submit(
                StreamId(0),
                BlockRange::new(i, 1),
                SubmitOpts {
                    end_group: true,
                    ..Default::default()
                },
            );
            let (_, w) = log.append(&attr.to_pmr_record(0)).expect("space");
            region[w.offset..w.offset + w.bytes.len()].copy_from_slice(&w.bytes);
        }
        b.iter(|| PmrLog::scan(&region).expect("formatted").records.len());
    });
}

fn bench_recovery(c: &mut Criterion) {
    c.bench_function("recovery_merge_10k", |b| {
        let mut seq = Sequencer::new(1, 2);
        let mut records = Vec::new();
        for i in 0..10_000u64 {
            let mut attr = seq.submit(
                StreamId(0),
                BlockRange::new(i * 8, 8),
                SubmitOpts {
                    end_group: true,
                    ..Default::default()
                },
            );
            seq.stamp_dispatch(&mut attr, ServerId((i % 2) as u16));
            attr.persist = i % 7 != 0;
            records.push((attr.server, attr.to_pmr_record(0)));
        }
        let scans: Vec<ServerScan> = (0..2u16)
            .map(|s| ServerScan {
                server: ServerId(s),
                plp: true,
                head_seqs: vec![(StreamId(0), Seq(0))],
                records: records
                    .iter()
                    .filter(|(srv, _)| srv.0 == s)
                    .map(|(_, r)| *r)
                    .collect(),
            })
            .collect();
        let input = RecoveryInput {
            scans,
            mode: RecoveryMode::InitiatorRestart,
        };
        b.iter(|| RecoveryPlan::compute(&input).streams.len());
    });
}

/// Hot-path data structures of the engine and ordering core: the event
/// heap's push/pop cycle, the completion ring's buffered release, and
/// the submission gate's in-order admit.
fn bench_structures(c: &mut Criterion) {
    c.bench_function("event_heap_push_pop", |b| {
        // Steady-state engine rhythm: a 64-deep heap cycling one event
        // per step, the slab reusing slots with no allocation.
        let mut heap = EventHeap::with_capacity(64);
        let mut now = 0u64;
        for i in 0..64u64 {
            heap.push(SimTime::from_nanos(i), i);
        }
        b.iter(|| {
            let (t, v) = heap.pop().expect("non-empty");
            now += 1;
            heap.push(SimTime::from_nanos(t.as_nanos() + 64), v ^ now);
            v
        });
    });

    c.bench_function("completion_ring_release", |b| {
        // Out-of-order internal completions over a 16-group window:
        // 15 buffer, the 16th releases the whole prefix.
        let mk = |seq: u32| {
            let mut a = OrderingAttr::single(StreamId(0), Seq(seq), BlockRange::new(0, 1));
            a.boundary = true;
            a.num = 1;
            a
        };
        let mut base = 0u32;
        let mut released = Vec::with_capacity(16);
        let mut completer = InOrderCompleter::with_window(1, 32);
        b.iter(|| {
            for seq in (base + 2..=base + 16).rev() {
                completer.on_done_into(&mk(seq), &mut released);
            }
            completer.on_done_into(&mk(base + 1), &mut released);
            base += 16;
            let n = released.len();
            released.clear();
            n
        });
    });

    c.bench_function("gate_admit", |b| {
        // The pinned-stream fast path: every arrival is in dispatch
        // order and passes straight through without buffering.
        let mut gate = SubmissionGate::with_streams(1);
        let mut idx = 0u64;
        let mut released = Vec::with_capacity(4);
        let proto = OrderingAttr::single(StreamId(0), Seq(1), BlockRange::new(0, 1));
        b.iter(|| {
            let mut attr = proto;
            attr.dispatch_idx = idx;
            gate.arrive_into(attr, idx, &mut released);
            idx += 1;
            let n = released.len();
            released.clear();
            n
        });
    });
}

fn bench_wire(c: &mut Criterion) {
    c.bench_function("sqe_encode_decode", |b| {
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
        b.iter(|| {
            let mut sqe = Sqe::write(3, 77, 8);
            ext.embed(&mut sqe);
            let bytes = sqe.encode();
            let back = Sqe::decode(&bytes);
            RioExt::extract(&back).expect("rio command")
        });
    });
}

/// The integrity data path, one kernel per bench: every number is per
/// 4 KB block except the scrub, which walks 1 024 sealed records.
fn bench_integrity(c: &mut Criterion) {
    let block = payload::block_for(payload::seed_for(0, 1, 0));

    c.bench_function("crc32c_4k", |b| b.iter(|| crc32c(black_box(&block))));

    c.bench_function("payload_fill_4k", |b| {
        let mut out = block.clone();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            payload::fill_block(seed, black_box(&mut out));
        });
    });

    // A PLP drive with integrity on: each write is shared into the
    // logical view and CRC-32C sealed at submission. Effects settle in
    // bulk every `SETTLE` submissions, as they do at the end of a run.
    const SEALED_LBAS: u64 = 1024;
    const SETTLE: u64 = 1024;
    let sealed_ssd = || {
        let mut ssd = Ssd::new(SsdProfile::optane905p(), 3);
        ssd.set_integrity(true);
        ssd
    };
    c.bench_function("ssd_submit_write_sealed", |b| {
        let mut ssd = sealed_ssd();
        let mut n = 0u64;
        b.iter_batched(
            || vec![BlockImage::Bytes(block.clone())],
            |images| {
                n += 1;
                let now = SimTime::from_nanos(n * 2_000);
                let done = ssd.submit_write(now, n % SEALED_LBAS, images, false);
                if n.is_multiple_of(SETTLE) {
                    ssd.advance(now);
                }
                done
            },
            BatchSize::SmallInput,
        );
    });

    c.bench_function("ssd_scrub_1k_records", |b| {
        let mut ssd = sealed_ssd();
        let mut now = SimTime::ZERO;
        for lba in 0..SEALED_LBAS {
            let images = vec![BlockImage::Bytes(payload::block_for(lba))];
            now = ssd.submit_write(now, lba, images, false).1;
        }
        ssd.advance(now);
        b.iter(|| {
            let (scanned, corrupt) = ssd.scrub();
            assert_eq!((scanned, corrupt.len()), (SEALED_LBAS, 0));
            scanned
        });
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sequencer, bench_merge, bench_pmr_log, bench_recovery, bench_structures, bench_wire, bench_integrity
);
criterion_main!(benches);
