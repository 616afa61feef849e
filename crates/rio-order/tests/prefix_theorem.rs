//! The §4.8 correctness theorem, as a randomized property test.
//!
//! Claim: for any workload of ordered groups dispatched across servers,
//! and any crash that durably persists an arbitrary *subset* of the
//! recorded requests (subject only to the device rules the stack
//! enforces), Rio's recovery plan reconstructs a state `D1 ← … ← Dk`
//! that is a valid prefix of the submitted order:
//!
//! * `valid_through` is exactly the longest prefix in which every group
//!   is complete and durable;
//! * every non-IPU record beyond the prefix is discarded;
//! * nothing inside the prefix is ever discarded.

use proptest::prelude::*;
use rio_order::attr::{BlockRange, OrderingAttr, Seq, ServerId, StreamId};
use rio_order::recovery::{RecoveryInput, RecoveryMode, RecoveryPlan, ServerScan};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_proto::PmrRecord;

mod common;
use common::without_stale;

/// A generated workload group: member count and target server picks.
#[derive(Debug, Clone)]
struct GenGroup {
    members: Vec<u8>, // Server index per member.
}

fn gen_groups() -> impl Strategy<Value = Vec<GenGroup>> {
    proptest::collection::vec(
        proptest::collection::vec(0u8..3, 1..4).prop_map(|members| GenGroup { members }),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn recovery_always_yields_the_maximal_valid_prefix(
        groups in gen_groups(),
        durable_mask in proptest::collection::vec(any::<bool>(), 60),
    ) {
        // Dispatch every group through the real sequencer.
        let mut seq = Sequencer::new(1, 3);
        let mut records: Vec<(ServerId, PmrRecord)> = Vec::new();
        let mut all_attrs: Vec<OrderingAttr> = Vec::new();
        let mut lba = 0u64;
        for g in &groups {
            let n = g.members.len();
            for (i, &srv) in g.members.iter().enumerate() {
                let mut attr = seq.submit(
                    StreamId(0),
                    BlockRange::new(lba, 1),
                    SubmitOpts { end_group: i == n - 1, ..Default::default() },
                );
                lba += 1;
                seq.stamp_dispatch(&mut attr, ServerId(srv as u16));
                all_attrs.push(attr);
            }
        }
        // The crash persists an arbitrary subset of the records (PLP
        // rule: per-record persist bits).
        for (i, attr) in all_attrs.iter().enumerate() {
            let mut a = *attr;
            a.persist = durable_mask.get(i).copied().unwrap_or(false);
            records.push((a.server, a.to_pmr_record(0)));
        }
        let scans: Vec<ServerScan> = (0..3u16)
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
        let plan = RecoveryPlan::compute(&RecoveryInput {
            scans,
            mode: RecoveryMode::InitiatorRestart,
        });
        let sp = plan.stream(StreamId(0)).expect("stream 0 planned");

        // Reference model: group g is satisfied iff all its members'
        // records are durable.
        let mut satisfied = Vec::with_capacity(groups.len());
        {
            let mut idx = 0usize;
            for g in &groups {
                let ok = (0..g.members.len()).all(|j| {
                    durable_mask.get(idx + j).copied().unwrap_or(false)
                });
                idx += g.members.len();
                satisfied.push(ok);
            }
        }
        let expect_prefix = satisfied.iter().take_while(|&&ok| ok).count() as u32;
        prop_assert_eq!(
            sp.valid_through.0, expect_prefix,
            "prefix mismatch: satisfied={:?}", satisfied
        );

        // Discards cover exactly the records beyond the prefix.
        for d in &sp.discard {
            prop_assert!(
                d.range.lba >= u64::from(expect_prefix), // LBA g-1 belongs to group ... map below.
                "sanity"
            );
        }
        // Stronger: no discarded LBA belongs to a prefix group; every
        // non-durable-beyond-prefix record's LBA is discarded.
        let mut lba_group = Vec::new(); // LBA -> group index.
        for (gi, g) in groups.iter().enumerate() {
            for _ in &g.members {
                lba_group.push(gi as u32);
            }
        }
        let discarded: std::collections::BTreeSet<u64> =
            sp.discard.iter().map(|d| d.range.lba).collect();
        for &l in &discarded {
            prop_assert!(
                lba_group[l as usize] >= expect_prefix,
                "discarded LBA {l} belongs to prefix group {}",
                lba_group[l as usize]
            );
        }
        for (i, _attr) in all_attrs.iter().enumerate() {
            let g = lba_group[i];
            if g >= expect_prefix {
                prop_assert!(
                    discarded.contains(&(i as u64)),
                    "beyond-prefix record at LBA {i} (group {g}) not discarded"
                );
            }
        }
    }

    /// Target repair never discards and only replays non-durable pieces
    /// on failed servers.
    #[test]
    fn target_repair_replays_only_failed_servers(
        groups in gen_groups(),
        durable_mask in proptest::collection::vec(any::<bool>(), 60),
        failed in 0u16..3,
    ) {
        let mut seq = Sequencer::new(1, 3);
        let mut records: Vec<(ServerId, PmrRecord)> = Vec::new();
        let mut lba = 0u64;
        let mut i = 0usize;
        for g in &groups {
            let n = g.members.len();
            for (j, &srv) in g.members.iter().enumerate() {
                let mut attr = seq.submit(
                    StreamId(0),
                    BlockRange::new(lba, 1),
                    SubmitOpts { end_group: j == n - 1, ..Default::default() },
                );
                lba += 1;
                seq.stamp_dispatch(&mut attr, ServerId(srv as u16));
                attr.persist = durable_mask.get(i).copied().unwrap_or(false);
                i += 1;
                records.push((attr.server, attr.to_pmr_record(0)));
            }
        }
        let scans: Vec<ServerScan> = (0..3u16)
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
        let plan = RecoveryPlan::compute(&RecoveryInput {
            scans,
            mode: RecoveryMode::TargetRepair { failed: vec![ServerId(failed)] },
        });
        let sp = plan.stream(StreamId(0)).expect("stream 0");
        prop_assert!(sp.discard.is_empty(), "repair must not roll back");
        for r in &sp.replay {
            prop_assert_eq!(r.server, ServerId(failed), "replay targets the failed server only");
        }
    }

    /// Records at or below their stream's delivered-through mark change
    /// no plan: recovery plans the same with them as without them,
    /// whichever servers' superblocks carry which mark.
    #[test]
    fn delivered_records_change_no_plan(
        groups in gen_groups(),
        durable_mask in proptest::collection::vec(any::<bool>(), 60),
        heads in proptest::collection::vec(0u32..24, 3),
        plp in any::<bool>(),
        failed in 0u16..3,
    ) {
        let mut seq = Sequencer::new(1, 3);
        let mut records = vec![Vec::new(); 3];
        let mut lba = 0u64;
        let mut i = 0usize;
        for g in &groups {
            let n = g.members.len();
            for (j, &srv) in g.members.iter().enumerate() {
                // Every third group's boundary carries a FLUSH, which is
                // what makes a volatile-cache drive's records durable.
                let end_group = j == n - 1;
                let flush = end_group && i.is_multiple_of(3);
                let mut attr = seq.submit(
                    StreamId(0),
                    BlockRange::new(lba, 1),
                    SubmitOpts { end_group, flush, ..Default::default() },
                );
                lba += 1;
                seq.stamp_dispatch(&mut attr, ServerId(srv as u16));
                attr.persist = durable_mask.get(i).copied().unwrap_or(false);
                i += 1;
                records[srv as usize].push(attr.to_pmr_record(0));
            }
        }
        let scans: Vec<ServerScan> = records
            .into_iter()
            .zip(&heads)
            .enumerate()
            .map(|(s, (records, &head))| ServerScan {
                server: ServerId(s as u16),
                plp,
                head_seqs: vec![(StreamId(0), Seq(head))],
                records,
            })
            .collect();
        for mode in [
            RecoveryMode::InitiatorRestart,
            RecoveryMode::TargetRepair { failed: vec![ServerId(failed)] },
        ] {
            let input = RecoveryInput { scans: scans.clone(), mode };
            prop_assert_eq!(
                RecoveryPlan::compute(&input),
                RecoveryPlan::compute(&without_stale(&input))
            );
        }
    }
}
